"""Record the expected check reports for the registry workloads' bounds.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  Runs every registry workload once, in
registry order and in a fresh process, and writes each check's ``to_json()``
to expected_reports.json, which run.py compares every later pass against.
Re-record only when the program's reports are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    reports = {}
    for bounds in workloads.REGISTRY_WORKLOADS.values():
        job = {"checks": [[cid, params] for cid, params in bounds.items()]}
        for item in run.run_pass(root, job)["checks"]:
            report = item["report"]
            wanted = "counterexample-found" if item["id"] == "CHK-AB5JR" else "pass"
            if report is None or report["status"] != wanted:
                print(f"{item['id']}: {item['error'] or report['status']}", file=sys.stderr)
                return 1
            reports[item["id"]] = item["report"]
    run.EXPECTED.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"recorded {len(reports)} reports in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
