"""Per-weight statistic tables, t-core tallies and the classification tables.

The checks read partitions and statistic values from one `WeightTable` per
weight and t-core counts from one `core_tally` walk; both are kept for the
life of the process, until `clear_memo`.

Table 1 groups partitions by (srank mod 4, St-crank mod 5); Table 2 lists
the orbits of the shifted orbit map with the 5-core crank as column index,
each member annotated with its 5-core and quotient slot.  Cell contents are
sorted lexicographically by part tuple and frequency notation is used
throughout, so renderings are byte-stable.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from functools import lru_cache, partial
from itertools import repeat, starmap, tee
from typing import Callable, Iterator

from . import stats
from .cores import iter_core_vectors, phi1, phi2_inv
from .orbits import orbit
from .partitions import Partition, check_enumeration_bound, enumerate_partitions, is_t_core


def clear_memo() -> None:
    """Empty both process-wide tables, so the next check recomputes from
    scratch."""
    weight_table.cache_clear()
    _core_tally.cache_clear()


# ---------------------------------------------------------------------------
# per-weight statistic tables and t-core tallies

# Columns beside stats.STATISTICS.  Every column function is looked up when a
# column is filled, never bound at import, so wrappers installed around the
# statistics see each call.
COLUMNS: dict[str, Callable[[Partition], int]] = {
    "odd-parts": lambda p: p.odd_part_count(),
    "conjugate-odd-parts": lambda p: p.conjugate().odd_part_count(),
    "is-5-core": lambda p: is_t_core(p, 5),
    "has-repeated-even-part": lambda p: stats.has_repeated_even_part(p),
}


class WeightTable:
    """The partitions of one weight, packed, and statistic columns over them.

    The first read enumerates the weight once and keeps that enumeration as
    one bytes object: the parts of each partition, one byte per part, with a
    zero byte between partitions.  Every later read replays it, so a weight
    is enumerated once however many columns and walks read it.  Entry k of
    every column belongs to the k-th partition in enumeration order, so a
    joint distribution is a Counter over zipped columns.  A column is filled
    the first time a check reads it; every value is bounded by the weight in
    absolute value, so 16-bit arrays hold them at any enumerable weight.
    Every read checks the weight against the enumeration bound, so a table
    filled under a higher bound answers as a cold one would.
    """

    def __init__(self, n: int):
        self.n = n
        self.packed: bytes | None = None
        self.filled: dict[str, array] = {}

    def _fill(self, names: tuple[str, ...]) -> None:
        check_enumeration_bound(self.n)
        if self.n > 255:
            raise ValueError(f"a weight table packs one part per byte, so it holds "
                             f"weights up to 255, not {self.n}")
        if self.packed is None:
            self.packed = b"\0".join(map(bytes, enumerate_partitions(self.n)))
        for name in names:
            if name not in self.filled:
                self.filled[name] = array("h", map(_column_function(name), self.partitions()))

    def total(self) -> int:
        """p(n), the number of partitions of the weight."""
        self._fill(())
        return self.packed.count(0) + 1

    def partitions(self) -> Iterator[Partition]:
        """The partitions of the weight in enumeration order, replayed."""
        self._fill(())
        return map(Partition._trusted, self.packed.split(b"\0"))

    def columns(self, *names: str) -> tuple[array, ...]:
        """The named columns, any missing ones filled in one pass."""
        self._fill(names)
        return tuple(self.filled[name] for name in names)

    def joint(self, *names: str) -> Counter:
        """Counts of the value tuples that the named columns take together."""
        return Counter(zip(*self.columns(*names)))


def _column_function(name: str) -> Callable[[Partition], int]:
    return stats.STATISTICS.get(name) or COLUMNS[name]


@lru_cache(maxsize=None)
def weight_table(n: int) -> WeightTable:
    """The process-wide table of weight n."""
    return WeightTable(n)


# filter name -> (column, test on its value)
FILTERS: dict[str, tuple[str, Callable[[int], bool]]] = {
    "srank-0-mod-4": ("srank", lambda s: s % 4 == 0),
    "srank-2-mod-4": ("srank", lambda s: s % 4 == 2),
    "is-5-core": ("is-5-core", bool),
    "no-repeated-even-parts": ("has-repeated-even-part", operator.not_),
}


def class_counts(
    n: int, statistic: str, modulus: int, filter_name: str | None = None
) -> dict[int, int]:
    """Exhaustive residue tally of a named statistic over the partitions of n."""
    if statistic not in stats.STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if filter_name is not None and filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}")
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    column, keep = FILTERS.get(filter_name, (statistic, None))
    out = {r: 0 for r in range(modulus)}
    for (value, tag), c in weight_table(n).joint(statistic, column).items():
        if keep is None or keep(tag):
            out[value % modulus] += c
    return out


def _vectors(walk: Iterator) -> Iterator:
    return map(operator.itemgetter(0), walk)


def _five_core_crank_at(vec: tuple[int, ...], w: int) -> int | None:
    # the crank is defined on the 5-cores of weight 4 (mod 5) only
    return stats.five_core_crank_from_vector(vec) if w % 5 == 4 else None


def _charge_residues(t: int, walk: Iterator) -> Iterator:
    """(weight - (0,1,..,t-1).n) mod t along the walk, which the weight
    formula makes 0."""
    vecs, weights = tee(walk)
    dots = map(sum, map(map, repeat(operator.mul), repeat(range(t)), _vectors(vecs)))
    gaps = map(operator.sub, map(operator.itemgetter(1), weights), dots)
    return map(operator.mod, gaps, repeat(t))


# Columns of the t-core tallies.  Each entry maps t and a stream of
# (n-vector, weight) pairs to the stream of its values, so a fill runs in
# C-level iterators where it can.  Entries are looked up when a tally is
# filled, and the statistics when an entry runs, like COLUMNS.
CORE_COLUMNS: dict[str, Callable[[int, Iterator], Iterator]] = {
    "srank-mod-4": lambda t, walk: map(partial(stats.core_srank_mod4, t), _vectors(walk)),
    "five-core-crank": lambda t, walk: starmap(_five_core_crank_at, walk),
    "bg-rank": lambda t, walk: map(stats.bg_rank, map(phi2_inv, _vectors(walk))),
    "charge-residue": _charge_residues,
}


def core_tally(t: int, limit: int, *names: str) -> Counter:
    """Counts of the (weight, *values) tuples that the named CORE_COLUMNS
    take over the t-cores of weight <= limit.

    One n-vector walk fills each tally, and the tally is kept for the life
    of the process; do not mutate it.  The walk runs up to the next weight
    t-1 (mod t), so bounds that differ by less than t share one tally: it
    may hold weights past `limit`, and each reader stays within its own
    bound.
    """
    return _core_tally(t, limit + (t - 1 - limit) % t, names)


@lru_cache(maxsize=None)
def _core_tally(t: int, top: int, names: tuple[str, ...]) -> Counter:
    fills = [CORE_COLUMNS[name] for name in names]
    # one streamed walk: the copies advance together, no vector is kept
    walk, *copies = tee(iter_core_vectors(t, top), len(fills) + 1)
    columns = [fill(t, copy) for fill, copy in zip(fills, copies)]
    return Counter(zip(map(operator.itemgetter(1), walk), *columns))


# ---------------------------------------------------------------------------
# classification tables


def freq_notation(p: Partition) -> str:
    """Frequency form, ascending parts: (1^4,5^1); the empty partition is ()."""
    if not p:
        return "()"
    return "(" + ",".join(f"{part}^{f}" for part, f in p.frequencies().items()) + ")"


def table1_data(n: int = 9) -> dict:
    cells: dict[tuple[int, int], list[Partition]] = {
        (s, k): [] for s in (0, 2) for k in range(5)
    }
    table = weight_table(n)
    for p, srank, crank in zip(table.partitions(), *table.columns("srank", "st-crank")):
        cells[(srank % 4, crank % 5)].append(p)
    for members in cells.values():
        members.sort()
    return {"n": n, "total": table.total(), "cells": cells}


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
    table = weight_table(n)
    for p in table.partitions():
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
    return {"n": n, "total": table.total(), "orbits": orbits}


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
