"""tcorelab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload registry-enum --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh Python process
(child.py) that imports tcorelab from ./src, so process-wide caches start
empty every time, as they do for a user.  Passes repeat until the next one
would overrun --seconds (at least two, or one untraced/traced pair with
--trace 1).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and every pass.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected_reports.json"
WORKLOADS = (*workloads.REGISTRY_WORKLOADS, "query-large")
SETUP_SAMPLES = 30        # set-up-only spawns per run, on top of the pass spawns
MIN_PASSES = 2
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a wrong program output)."""


def _spawn(root: Path, job: dict | None) -> tuple[float, dict | None]:
    """Run child.py once; returns (set-up seconds, result or None)."""
    cmd = [sys.executable, str(CHILD), str(root / "src")]
    if job is None:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(
            None if job is None else json.dumps(job).encode(), timeout=PASS_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"pass process failed (exit {proc.returncode})")
    return setup, (json.loads(out.splitlines()[-1]) if job is not None else None)


def run_pass(root: Path, job: dict) -> dict:
    """One pass in a fresh process; adds its set-up and whole duration."""
    start = time.perf_counter()
    setup, result = _spawn(root, job)
    result["setup_s"] = setup
    result["elapsed_s"] = time.perf_counter() - start
    return result


def build_job(workload: str, seed: int, trace: bool) -> dict:
    """A pass's inputs; query requests are generated in the pass process."""
    if workload == "query-large":
        queries = {"seed": seed, "count": workloads.QUERY_LARGE_COUNT, "weights": "large"}
        return {"checks": [], "queries": queries, "trace": trace}
    checks = workloads.registry_job(workloads.REGISTRY_WORKLOADS[workload], seed)
    queries = None if trace else {"seed": seed, "count": workloads.PROBE_COUNT,
                                  "weights": "small"}
    return {"checks": checks, "queries": queries, "trace": trace}


def check_failures(result: dict, expected: dict) -> list[str]:
    """Every check whose report differs from the recorded one, and every bad query."""
    failures = []
    for item in result["checks"]:
        if item["error"] is not None:
            failures.append(f"{item['id']}: {item['error']}")
        elif item["report"] != expected.get(item["id"]):
            failures.append(f"{item['id']}: report differs from {EXPECTED.name}")
    return failures + result["query_failures"]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    untraced_job = build_job(workload, seed, False)
    traced_job = build_job(workload, seed, True) if trace else None
    passes: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    setups = [_spawn(root, None)[0] for _ in range(SETUP_SAMPLES)]
    unit_s = 0.0  # duration of the longest pass or untraced/traced pair so far
    while True:
        unit_start = time.perf_counter()
        passes.append(run_pass(root, untraced_job))
        if traced_job is not None:
            traced.append(run_pass(root, traced_job))
        unit_s = max(unit_s, time.perf_counter() - unit_start)
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() - start + unit_s > seconds:
            break
    setups += [p["setup_s"] for p in passes + traced]

    failures: list[str] = []
    attempted = 0
    for p in passes + traced:
        failures += check_failures(p, expected)
        attempted += len(p["checks"]) + p["queries_run"]
    latencies = [x for p in passes for x in p["latencies_us"]]
    if len(latencies) < 100:
        raise BenchError(f"only {len(latencies)} query latencies; every query failed early")
    wall = statistics.median(p["wall_s"] for p in passes)
    if trace:
        counts = [{k: v for k, v in t["trace"].items() if isinstance(v, int)} for t in traced]
        if any(c != counts[0] for c in counts):
            failures.append("traced passes on the same inputs gave different counts")
        metrics = {k: statistics.median(t["trace"][k] for t in traced)
                   for k in traced[0]["trace"]} | counts[0]
        metrics["verify.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        metrics["trace_overhead"] = statistics.median(t["wall_s"] for t in traced) / wall
    else:
        percentiles = statistics.quantiles(latencies, n=100)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["rss_kib"] for p in passes) / 1024,
            "query_p50_us": percentiles[49],
            "query_p99_us": percentiles[98],
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": env,
            "latency_samples": len(latencies),
            "setup_samples": setups,
            "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "rss_kib", "setup_s", "elapsed_s")}
                       | {"traced": p["trace"] is not None} for p in passes + traced],
            "failures": failures[:20],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "tcorelab" / "__init__.py").is_file():
        print("run.py: no src/tcorelab under the current directory; run it from "
              "the root of a tcorelab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        outcome = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
    if missing:
        print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(outcome["detail"]))
    failed = len(outcome["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
