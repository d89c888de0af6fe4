"""Command-line interface.

Reports are emitted as one JSON object per line on stdout; human-readable
summaries go to stderr.  Exit codes: 0 all pass (a found counterexample for
CHK-AB5JR counts as a pass), 1 any failure, 2 usage error (a bad argument,
or any ValueError the command raises, printed as one ``error:`` line).
``verify`` first checks every id it is given and the parameters of each
check, and an unknown id or a negative bound is a usage error before any
check runs.  Then it runs every check: a check that raises
ValueError reports status "error", prints one ``error:`` line and makes the
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import stats, tables, verify
from .cores import phi1
from .partitions import Partition
from .qseries import (
    TRIANGULAR_FACTORS,
    crank_factors,
    p02prod_series,
    partition_count_series,
    poch_product,
    rambest_series,
    t_core_series,
    triangular_theta,
)
from .rings import INT, LaurentRing


def _crank_gf(order: int):
    ring = LaurentRing(("x",))
    return poch_product(ring, order, crank_factors(ring.monomial(x=1), ring.monomial(x=-1)))


# `series` expressions: name -> builder(order, the argument after a colon),
# each reading the product its check verifies
SERIES = {
    "partition-gf": lambda order, arg: partition_count_series(order),
    "euler": lambda order, arg: poch_product(INT, order, [(1, 1, 1, 1)]),
    "tcore-gf": lambda order, arg: t_core_series(int(arg or 5), order),
    "jtpa-product": lambda order, arg: poch_product(INT, order, TRIANGULAR_FACTORS),
    "jtpa-theta": lambda order, arg: triangular_theta(INT, order),
    "rambest-rhs": lambda order, arg: rambest_series(order),
    "p02prod-rhs": lambda order, arg: p02prod_series(order),
    "crank-gf": lambda order, arg: _crank_gf(order),
}


def _series_registry(expr: str, order: int):
    """The named series construction for the `series` subcommand."""
    name, _, arg = expr.partition(":")
    if name not in SERIES:
        raise ValueError(f"unknown series expression {expr!r}")
    return SERIES[name](order, arg)


def _laurent_json(elem) -> list[dict]:
    names = elem.ring.names
    return [
        {"monomial": {n: e for n, e in zip(names, exps) if e}, "coeff": c}
        for exps, c in elem.sorted_terms()
    ]


def _emit_series(series) -> None:
    if series.ring is INT:
        print(json.dumps({"order": series.order, "coefficients": series.coeffs}))
    else:
        coeffs = [_laurent_json(c) for c in series.coeffs]
        print(json.dumps({"order": series.order, "coefficients": coeffs}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcorelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="evaluate a statistic on one partition")
    p_stat.add_argument("--stat", required=True, choices=sorted(stats.STATISTICS))
    p_stat.add_argument("--partition", required=True,
                        help="comma-separated parts; empty string for the empty partition")

    p_dec = sub.add_parser("decompose", help="t-core/t-quotient decomposition")
    p_dec.add_argument("--t", type=int, required=True)
    p_dec.add_argument("--partition", required=True)

    p_table = sub.add_parser("table", help="render a classification table")
    p_table.add_argument("--name", required=True, choices=("table1", "table2"))
    p_table.add_argument("--weight", type=int, default=9)
    p_table.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run registry checks")
    p_verify.add_argument("--check", action="append", default=None,
                          help="registry id, e.g. CHK-THM1 (repeatable)")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--order", type=int, default=None)

    p_search = sub.add_parser("search", help="counterexample search")
    p_search.add_argument("--family", required=True, choices=("ab5jr",))
    p_search.add_argument("--max-weight", type=int, default=60)

    p_series = sub.add_parser("series", help="print a named series")
    p_series.add_argument("--expr", required=True)
    p_series.add_argument("--order", type=int, default=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "stat":
        p = Partition.from_text(args.partition)
        value = stats.STATISTICS[args.stat](p)
        print(json.dumps({"statistic": args.stat, "partition": p.to_json(),
                          "value": value}))
        return 0

    if args.command == "decompose":
        p = Partition.from_text(args.partition)
        print(json.dumps(phi1(p, args.t).to_json()))
        return 0

    if args.command == "table":
        if args.name == "table1":
            out = tables.table1_json(args.weight) if args.json else tables.render_table1(args.weight)
        else:
            out = tables.table2_json(args.weight) if args.json else tables.render_table2(args.weight)
        if args.json:
            print(json.dumps(out))
        else:
            sys.stdout.write(out)
        return 0

    if args.command == "verify":
        overrides = {}
        if args.max_n is not None:
            overrides["max_n"] = args.max_n
        if args.order is not None:
            overrides["order"] = args.order
        if args.all:
            ids = list(verify.REGISTRY)
        elif args.check:
            ids = args.check
        else:
            parser.error("verify needs --check or --all")
        for check_id in ids:
            if check_id not in verify.REGISTRY:
                raise ValueError(f"unknown check id {check_id!r}")
        # each check takes the overrides it has parameters for, and a
        # negative one fails before any check runs
        runs = [(check_id, verify.check_params(check_id, **{
            k: v for k, v in overrides.items() if k in verify.REGISTRY[check_id].defaults}))
            for check_id in ids]
        code = 0
        for check_id, params in runs:
            report = verify.run_check(check_id, **params)
            print(json.dumps(report.to_json()))
            if report.status == "error":
                print(f"error: {check_id}: {report.witness['error']}", file=sys.stderr)
                code = 2
                continue
            ok = report.ok()
            if not ok:
                code = max(code, 1)
            marker = "PASS" if ok else "FAIL"
            print(f"{marker} {check_id}: {verify.REGISTRY[check_id].summary}"
                  f" [{report.status}]", file=sys.stderr)
        return code

    if args.command == "search":
        report = verify.search_counterexample(args.family, args.max_weight)
        print(json.dumps(report.to_json()))
        found = report.status == "counterexample-found"
        print(("witness found" if found else "no witness in range"), file=sys.stderr)
        return 0 if found else 1

    if args.command == "series":
        _emit_series(_series_registry(args.expr, args.order))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
