"""One benchmark pass in a fresh process.

Usage: child.py SRC_DIR [--setup-only]

Imports tcorelab from SRC_DIR, prints ``ready`` (the parent times set-up up
to that line), then reads one JSON job from stdin, runs it and prints one
JSON result line.  A job holds ``checks`` ([check id, params] pairs),
``queries`` (the seed, count and weights of workloads.query_job, or null)
and ``trace``.  Check reports are compared by the parent.  Query results are
checked here against an independent route, outside the timed span, except
in a traced pass, whose counts would include the checking.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _usage() -> tuple[float, int]:
    """(CPU seconds, peak RSS in KiB) of this process plus its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss + kids.ru_maxrss


def _partition(spec):
    from tcorelab.partitions import Partition

    return Partition([size for size, mult in spec for _ in range(mult)])


# -- independent routes for query results ----------------------------------


def _srank_by_definition(p) -> int:
    return p.odd_part_count() - p.conjugate().odd_part_count()


def _ag_crank_by_definition(p) -> int:
    ones = p.count(1)
    return p.largest if ones == 0 else sum(1 for part in p if part > ones) - ones


def _five_core_crank_by_vector(p) -> int:
    from tcorelab import cores

    alpha = cores.alpha_from_n(cores.phi2(cores.phi1(p, 5).core, 5))
    return (1 + sum(i * a for i, a in enumerate(alpha))) % 5


def _stat_oracle(name: str, p) -> int:
    from tcorelab import cores, stats

    if name == "srank":
        return _srank_by_definition(p)
    if name == "dyson-rank":
        return p.largest - p.num_parts
    if name == "ag-crank":
        return _ag_crank_by_definition(p)
    if name == "st-crank":
        p1, _ = stats.bijection1(p)
        return (_ag_crank_by_definition(p1) + _srank_by_definition(p) // 2
                + (1 if stats.is_type_b(p) else 0))
    if name == "two-quotient-rank":
        q0, q1 = cores.phi1(p, 2).quotient
        return q0.num_parts - q1.num_parts
    if name == "five-core-crank":
        return _five_core_crank_by_vector(p)
    if name == "bg-rank":
        # the first coordinate of the 2-core's n-vector
        return cores.phi2(cores.phi1(p, 2).core, 2)[0]
    raise ValueError(f"no oracle for {name!r}")


def _query_problem(kind: str, t: int, p, result) -> str | None:
    """Why `result` is wrong for this request, or None."""
    from tcorelab import cores, orbits

    if kind == "phi1":
        core, quotient = result.core, result.quotient
        if core.weight + t * sum(q.weight for q in quotient) != p.weight:
            return "weight identity"
        if cores.phi1_inv(result) != p:
            return "phi1_inv(phi1(p)) != p"
        return None
    if kind == "phi1-inv":
        return None if result == p else "phi1_inv(phi1(p)) != p"
    if kind == "orbit-map-s":
        if result.weight != p.weight:
            return "weight changed"
        if (_five_core_crank_by_vector(result) - _five_core_crank_by_vector(p)) % 5 != 1:
            return "five-core crank did not step by 1"
        q = result
        for _ in range(4):
            q = orbits.orbit_map_s(q)
        return None if q == p else "five applications do not return p"
    expected = _stat_oracle(kind, p)
    return None if result == expected else f"{result} != {expected}"


def run_queries(requests, verify_results: bool):
    """Time each request alone; returns (latencies in us, failures)."""
    from tcorelab import cores, orbits, stats

    latencies = []
    failures = []
    clock = time.perf_counter
    for kind, t, spec in requests:
        p = _partition(spec)
        try:
            if kind == "phi1":
                fn, arg = cores.phi1, (p, t)
            elif kind == "phi1-inv":
                fn, arg = cores.phi1_inv, (cores.phi1(p, t),)
            elif kind == "orbit-map-s":
                fn, arg = orbits.orbit_map_s, (p,)
            else:
                fn, arg = stats.STATISTICS[kind], (p,)
            start = clock()
            try:
                result = fn(*arg)
            finally:
                # a request that raises still waited this long
                latencies.append(1e6 * (clock() - start))
            problem = _query_problem(kind, t, p, result) if verify_results else None
        except Exception as exc:  # every failed request is counted and reported
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{kind} t={t} weight={p.weight}: {problem}")
    return latencies, failures


def run_checks(checks):
    from tcorelab import verify

    out = []
    clock = time.perf_counter
    for check_id, params in checks:
        start = clock()
        try:
            report, error = verify.run_check(check_id, **params).to_json(), None
        except Exception as exc:  # reported to the parent as a failed check
            report, error = None, f"{type(exc).__name__}: {exc}"
        out.append({"id": check_id, "seconds": clock() - start,
                    "report": report, "error": error})
    return out


def run_job(job: dict) -> dict:
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0, _ = _usage()
    start = time.perf_counter()
    checks = run_checks(job.get("checks", []))
    wall = time.perf_counter() - start
    cpu = _usage()[0] - cpu0
    # registry workloads: the probe queries run after the registry, outside wall_s.
    # They are generated only now, so the registry's peak memory does not hold them.
    queries = workloads.query_job(**job["queries"]) if job.get("queries") else []
    latencies, failures = run_queries(queries, verify_results=tracer is None)
    if not checks:
        # query-large: CPU of the whole query loop, result checks included
        wall = sum(latencies) / 1e6
        cpu = _usage()[0] - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kib": _usage()[1],
        "checks": checks,
        "queries_run": len(queries),
        "latencies_us": latencies,
        "query_failures": failures,
        "trace": tracer.metrics() if tracer else None,
    }


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import tcorelab

    if Path(tcorelab.__file__).resolve().parent != src / "tcorelab":
        print(f"imported tcorelab from {tcorelab.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0
    result = run_job(json.load(sys.stdin))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
