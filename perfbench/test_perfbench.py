"""Tests of the benchmark itself, at tiny bounds.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout; every pass runs in a fresh process.
"""

from __future__ import annotations

import random
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "registry-enum": {
        "CHK-RAM5": {"max_n": 14, "order": 40},
        "CHK-RAM7": {"max_n": 12, "order": 40},
        "CHK-RAM11": {"max_n": 17, "order": 40},
        "CHK-DYSON": {"max_n5": 14, "max_n7": 12},
        "CHK-AG": {"max_n5": 14, "max_n7": 12, "max_n11": 17},
        "CHK-CRANKGF": {"order": 12},
        "CHK-GREF5": {"max_n": 14},
        "CHK-RSGF": {"order": 10},
        "CHK-P02PROD": {"order": 12},
        "CHK-ANDREWS": {"max_n": 14},
        "CHK-SRANKPROD": {"order": 12},
        "CHK-LEMMA1": {"order": 10},
        "CHK-THM1": {"max_n": 14},
        "CHK-THM2": {"max_n": 14, "joint_n": 10},
        "CHK-G2": {"order": 10},
        "CHK-ORBIT": {"max_n": 14},
        "CHK-THM3": {"max_n": 14},
        "CHK-ELEGANT": {"max_n": 10},
        "CHK-SRTQ": {"max_n": 8, "t_min": 2, "t_max": 9},
        "CHK-STRIP": {"max_n": 8},
        "CHK-BGRALT": {"max_n": 10},
        "CHK-THM5": {"max_n": 12},
        "CHK-COR5": {"max_n": 12},
    },
    "registry-series": {
        "CHK-COEFFZ": {"order": 60},
        "CHK-JTPA": {"order": 200},
        "CHK-JTP": {"order": 50},
        "CHK-FJ": {"order": 12, "xi_order": 40},
        "CHK-G3": {"order": 30, "tally_order": 8},
        "CHK-RAMBEST": {"order": 30},
        "CHK-TCOREGF": {"order": 60, "enum_n": 8, "t_min": 2, "t_max": 5},
        "CHK-5CORE": {"order": 20, "psift_order": 20, "rel_n": 30},
        "CHK-REFINE": {"refine_n": 20, "theta_n": 20, "invar_n": 10},
        "CHK-A50": {"max_arg": 100, "form4_n": 20, "map_n": 10},
        "CHK-THM4": {"max_weight": 12, "t_min": 2, "t_max": 5, "g_range": 5},
        "CHK-AB5JR": {"max_weight": 60},
        "CHK-AB5J4": {"max_weight": 60},
    },
}

def _reports(workload: str, seed: int) -> tuple[list[str], dict]:
    job = {"checks": workloads.registry_job(TINY[workload], seed)}
    checks = run.run_pass(ROOT, job)["checks"]
    assert all(item["error"] is None for item in checks), checks
    return [item["id"] for item in checks], {item["id"]: item["report"] for item in checks}


def test_tiny_bounds_cover_the_registry():
    assert set(TINY["registry-enum"]) == set(workloads.ENUM_CHECKS)
    assert set(TINY["registry-series"]) == set(workloads.SERIES_CHECKS)
    assert len(workloads.ENUM_CHECKS) + len(workloads.SERIES_CHECKS) == 36


def test_reports_do_not_depend_on_check_order():
    # process-wide caches are filled in a different order under each seed
    for workload in TINY:
        order1, reports1 = _reports(workload, 1)
        order2, reports2 = _reports(workload, 2)
        assert order1 != order2
        assert reports1 == reports2
        for check_id, report in reports1.items():
            wanted = "counterexample-found" if check_id == "CHK-AB5JR" else "pass"
            assert report["status"] == wanted, report


def test_traced_counts_repeat_for_the_same_seed():
    job = {
        "checks": workloads.registry_job(TINY["registry-enum"], 3)
        + workloads.registry_job(TINY["registry-series"], 3),
        "queries": {"seed": 3, "count": 60, "weights": "small"},
        "trace": True,
    }
    counts = []
    for _ in range(2):
        trace = run.run_pass(ROOT, job)["trace"]
        counts.append({k: v for k, v in trace.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    # names imported with `from .x import f` are traced too
    for name in ("partitions.yielded", "stats.srank_calls", "cores.phi1_calls",
                 "orbits.orbit_map_shifted_calls", "cores.core_vectors",
                 "qseries.factor_passes", "rings.cyc5_mul_calls", "rings.laurent_mul_calls"):
        assert counts[0][name] > 0, name


def test_query_specs_have_their_weight():
    rng = random.Random(5)
    for _ in range(5000):
        weight = workloads.large_weight(rng.random())
        assert weight % 5 == 4
        spec = workloads.partition_spec(rng, weight, rng.randint(1, weight))
        sizes = [size for size, _ in spec]
        assert sizes == sorted(set(sizes), reverse=True)
        assert all(mult > 0 for _, mult in spec)
        assert sum(size * mult for size, mult in spec) == weight
