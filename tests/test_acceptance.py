"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest -s tests/test_acceptance.py`` to stream the per-criterion
lines.  Every tolerance here is exact equality in exact arithmetic; bounds
are the stated acceptance bounds, not reduced ones.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from pathlib import Path

from tcorelab import stats, tables, verify
from tcorelab.cores import (
    alpha_from_n,
    capital_phi,
    capital_phi_inv,
    core_vector_counts,
    iter_core_vectors,
    n_from_alpha,
    phi1,
    phi1_inv,
    phi2,
    phi2_inv,
    q_alpha,
)
from tcorelab.partitions import enumerate_partitions, strip_to_core

GOLDEN = Path(__file__).parent / "golden"


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number:2d} PASS {description}", flush=True)

        return wrapper

    return decorate


def run_ok(check_id: str, **params) -> verify.CheckReport:
    report = verify.run_check(check_id, **params)
    assert report.ok(), f"{check_id}: {report.status} {report.witness}"
    return report


@criterion(1, "tables reproduce the golden transcriptions byte-for-byte")
def test_criterion_1_tables():
    start = time.perf_counter()
    t1 = tables.render_table1(9)
    t2 = tables.render_table2(9)
    elapsed = time.perf_counter() - start
    assert t1 == (GOLDEN / "table1.txt").read_text()
    assert t2 == (GOLDEN / "table2.txt").read_text()
    data = tables.table1_json(9)
    assert data["total"] == 30
    sizes = {(row["srank_mod4"], row["st_crank_mod5"]): len(row["members"])
             for row in data["rows"]}
    assert all(sizes[(0, k)] == 4 for k in range(5))
    assert all(sizes[(2, k)] == 2 for k in range(5))
    assert len(tables.table2_json(9)["orbits"]) == 6
    assert elapsed < 1.0


@criterion(2, "St-crank, 2-quotient-rank and 5-core crank split p_i(5n+4) evenly")
def test_criterion_2_three_statistics():
    start = time.perf_counter()
    run_ok("CHK-THM1", max_n=49)
    run_ok("CHK-THM2", max_n=49)
    run_ok("CHK-THM3", max_n=49)
    elapsed = time.perf_counter() - start
    # the Table 1 sizes: 4 partitions of 9 in each class mod 5 of srank 0
    # (mod 4), 2 in each of srank 2
    for stat_name in ("st-crank", "two-quotient-rank", "five-core-crank"):
        cells = Counter()
        for (s, value), c in tables.weight_table(9).joint("srank", stat_name).items():
            cells[s % 4, value % 5] += c
        assert cells == {(s, k): 4 if s == 0 else 2 for s in (0, 2) for k in range(5)}
    assert elapsed < 120.0


@criterion(3, "srank-refined congruences of p(5n+4) mod 5 and mod 10")
def test_criterion_3_refinement():
    run_ok("CHK-ANDREWS", max_n=49)


@criterion(4, "series identities hold exactly at the stated orders")
def test_criterion_4_series():
    run_ok("CHK-JTPA", order=1000)
    run_ok("CHK-RAMBEST", order=30)
    run_ok("CHK-RSGF", order=20)
    run_ok("CHK-LEMMA1", order=20)
    run_ok("CHK-P02PROD", order=30)
    run_ok("CHK-G2", order=25)
    run_ok("CHK-G3", order=40, tally_order=20)
    run_ok("CHK-TCOREGF", order=200, t_min=2, t_max=7)
    run_ok("CHK-COEFFZ", order=60)


@criterion(5, "bijection round trips are identities at the stated bounds")
def test_criterion_5_round_trips():
    for n in range(21):
        for p in enumerate_partitions(n):
            for t in (2, 3, 4, 5, 7):
                assert phi1_inv(phi1(p, t)) == p
    for t in range(2, 8):
        for nvec, _ in iter_core_vectors(t, 25):
            assert phi2(phi2_inv(nvec), t) == nvec
    for n in range(26):
        for p in enumerate_partitions(n):
            p1, p2 = stats.bijection1(p)
            assert stats.bijection1_inv(p1, p2) == p
    for n in range(21):
        type_b = {p for p in enumerate_partitions(n) if stats.is_type_b(p)}
        images = set()
        for p in enumerate_partitions(n):
            if stats.is_type_a(p):
                pb = stats.bijection2(p)
                assert stats.bijection2_inv(pb) == p
                images.add(pb)
        assert images == type_b
    for alpha in itertools.product(range(-2, 3), repeat=5):
        if sum(alpha) == 1:
            assert alpha_from_n(n_from_alpha(alpha)) == alpha
    for n in (9, 14, 19):
        for p in enumerate_partitions(n):
            alpha, quotient = capital_phi(p)
            assert capital_phi_inv(alpha, quotient) == p
            assert n == 5 * q_alpha(alpha) - 1 + 5 * sum(q.weight for q in quotient)


@criterion(6, "independent oracles agree: hook stripping and t-core counts")
def test_criterion_6_oracles():
    for n in range(19):
        for p in enumerate_partitions(n):
            for t in (2, 3, 5):
                assert strip_to_core(p, t) == phi1(p, t).core
    run_ok("CHK-TCOREGF", enum_n=30, t_min=2, t_max=7)


@criterion(7, "srank theorem suite: cores, quotients and strip increments")
def test_criterion_7_srank_suite():
    run_ok("CHK-THM4", max_weight=30, t_min=2, t_max=9)
    run_ok("CHK-SRTQ", max_n=24, t_min=2, t_max=9)
    run_ok("CHK-ELEGANT", max_n=29)
    run_ok("CHK-STRIP", max_n=18)


@criterion(8, "5-core counting relations and their srank refinements")
def test_criterion_8_five_core_counting():
    run_ok("CHK-5CORE", rel_n=104)
    run_ok("CHK-REFINE", refine_n=100, theta_n=104)
    run_ok("CHK-A50", form4_n=100)
    by_srank = core_vector_counts(5, 524, verify._SRANK_MOD4)
    count = verify._sum_down(by_srank, 0)
    for n in range(105):
        assert count[5 * n + 4] == 5 * count[n]
    for m in range(2, 525, 4):
        assert by_srank[(m, 0)] == 0


@criterion(9, "BG-rank suite: alternate forms, class splits, product identity")
def test_criterion_9_bg_rank():
    run_ok("CHK-BGRALT", max_n=25)
    run_ok("CHK-THM5", max_n=45)
    run_ok("CHK-COR5", max_n=45)
    run_ok("CHK-FJ", order=25)


@criterion(10, "counterexample search finds its pinned witness; 5n+4 family passes")
def test_criterion_10_counterexample():
    report = verify.run_check("CHK-AB5JR", max_weight=60)
    assert report.status == "counterexample-found"
    assert report.witness == {"n": 0, "r": 0, "j": 0, "weight": 0, "count": 1}
    run_ok("CHK-AB5J4", max_weight=104)


@criterion(11, "full registry passes deterministically within the time budget")
def test_criterion_11_run_all():
    reports = verify.run_all()
    failures = [r.check_id for r in reports if not r.ok()]
    assert not failures, failures
    total = sum(r.elapsed for r in reports)
    assert total < 600.0, f"registry took {total:.1f}s"
    # determinism: rerunning a sample of checks, with every process-wide
    # table cleared in between, reproduces the reports exactly
    for check_id in ("CHK-RAMBEST", "CHK-FJ", "CHK-BGRALT"):
        definition = verify.REGISTRY[check_id]
        first = definition.func(dict(definition.defaults))
        tables.clear_memo()
        second = definition.func(dict(definition.defaults))
        assert first == second
        again = verify.run_check(check_id)
        assert (again.status, again.witness) == first
