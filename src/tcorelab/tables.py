"""Classification tables for the partitions of 5n+4.

Table 1 groups partitions by (srank mod 4, St-crank mod 5); Table 2 lists
the orbits of the shifted orbit map with the 5-core crank as column index,
each member annotated with its 5-core and quotient slot.  Cell contents are
sorted lexicographically by part tuple and frequency notation is used
throughout, so renderings are byte-stable.
"""

from __future__ import annotations

# verify imports this module too; the weight table is read at call time
from . import stats, verify
from .cores import phi1
from .orbits import orbit
from .partitions import Partition


def freq_notation(p: Partition) -> str:
    """Frequency form, ascending parts: (1^4,5^1); the empty partition is ()."""
    if not p:
        return "()"
    return "(" + ",".join(f"{part}^{f}" for part, f in p.frequencies().items()) + ")"


def table1_data(n: int = 9) -> dict:
    cells: dict[tuple[int, int], list[Partition]] = {
        (s, k): [] for s in (0, 2) for k in range(5)
    }
    total = 0
    for p in verify._weight_table(n).partitions():
        total += 1
        cells[(stats.srank(p) % 4, stats.st_crank(p) % 5)].append(p)
    for members in cells.values():
        members.sort()
    return {"n": n, "total": total, "cells": cells}


def render_table1(n: int = 9) -> str:
    data = table1_data(n)
    lines = [
        f"Table 1: the {data['total']} partitions of {n} "
        "by srank mod 4 and St-crank mod 5"
    ]
    for s in (0, 2):
        for k in range(5):
            members = ", ".join(freq_notation(p) for p in data["cells"][(s, k)])
            lines.append(f"srank={s} | St-crank={k} (mod 5): {members}")
    return "\n".join(lines) + "\n"


def table1_json(n: int = 9) -> dict:
    data = table1_data(n)
    return {
        "n": n,
        "total": data["total"],
        "rows": [
            {
                "srank_mod4": s,
                "st_crank_mod5": k,
                "members": [list(p) for p in data["cells"][(s, k)]],
            }
            for s in (0, 2)
            for k in range(5)
        ],
    }


def _member_annotation(p: Partition) -> dict:
    cq = phi1(p, 5)
    slots = [i for i, q in enumerate(cq.quotient) if q]
    slot = None
    if cq.quotient_weight() == 1:
        slot = slots[0]
    return {"core": cq.core, "quotient": cq.quotient, "slot": slot}


def table2_data(n: int = 9) -> dict:
    if n % 5 != 4:
        raise ValueError(f"weight {n} is not 4 (mod 5)")
    seen: set[Partition] = set()
    orbits = []
    total = 0
    for p in verify._weight_table(n).partitions():
        total += 1
        if p in seen:
            continue
        ob = orbit(p, shifted=True)
        seen.update(ob.members)
        annotations = [_member_annotation(m) for m in ob.members]
        orbits.append(
            {
                "members": ob.members,
                "annotations": annotations,
                "srank_mod4": stats.srank(ob.members[0]) % 4,
                "all_cores": all(
                    sum(q.weight for q in a["quotient"]) == 0 for a in annotations
                ),
            }
        )
    # 5-core orbits first within each srank class, then lexicographic by the
    # crank-0 member
    orbits.sort(
        key=lambda ob: (
            ob["srank_mod4"],
            0 if ob["all_cores"] else 1,
            tuple(ob["members"][0]),
        )
    )
    return {"n": n, "total": total, "orbits": orbits}


def _member_text(member: Partition, annotation: dict) -> str:
    text = freq_notation(member)
    core = annotation["core"]
    quotient = annotation["quotient"]
    if sum(q.weight for q in quotient) == 0:
        return text
    if annotation["slot"] is not None:
        return f"{text} -> ({freq_notation(core)},{annotation['slot']})"
    inner = "|".join(freq_notation(q) for q in quotient)
    return f"{text} -> ({freq_notation(core)};{inner})"


def render_table2(n: int = 9) -> str:
    data = table2_data(n)
    lines = [
        f"Table 2: the {data['total']} partitions of {n} in "
        f"{len(data['orbits'])} orbits of the shifted orbit map; "
        "columns are c5 = 0,1,2,3,4 (mod 5)"
    ]
    for idx, ob in enumerate(data["orbits"], start=1):
        members = ", ".join(
            _member_text(m, a) for m, a in zip(ob["members"], ob["annotations"])
        )
        lines.append(f"orbit {idx} | srank={ob['srank_mod4']}: {members}")
    return "\n".join(lines) + "\n"


def table2_json(n: int = 9) -> dict:
    data = table2_data(n)
    return {
        "n": n,
        "total": data["total"],
        "orbits": [
            {
                "srank_mod4": ob["srank_mod4"],
                "all_cores": ob["all_cores"],
                "c5": list(range(5)),
                "members": [list(m) for m in ob["members"]],
                "images": [
                    {
                        "core": list(a["core"]),
                        "slot": a["slot"],
                        "quotient": [list(q) for q in a["quotient"]],
                    }
                    for a in ob["annotations"]
                ],
            }
            for ob in data["orbits"]
        ],
    }
