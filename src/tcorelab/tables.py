"""Per-weight statistic tables and the classification tables.

The checks read partitions and statistic values from one `WeightTable` per
weight, kept for the life of the process, until `clear_memo`.  A weight
table is built from the tables of the lower weights, never by enumerating
its weight.  The t-cores are counted by class in `cores.core_vector_counts`.

Table 1 groups partitions by (srank mod 4, St-crank mod 5); Table 2 lists
the orbits of the shifted orbit map with the 5-core crank as column index,
each member annotated with its 5-core and quotient slot.  Each table is
built once, in its JSON form (partitions as lists of parts), and the text
renderings read that form.  Cell contents are sorted lexicographically by
part tuple and frequency notation is used throughout, so renderings are
byte-stable.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

from . import stats
from .cores import phi1
from .orbits import orbit
from .partitions import Partition, check_enumeration_bound


def clear_memo() -> None:
    """Empty the process-wide weight tables, so the next check recomputes
    from scratch."""
    weight_table.cache_clear()


# ---------------------------------------------------------------------------
# per-weight statistic tables


def _core_step(t: int, member: str, a: int, _, *sources: array, i: int = 0) -> Iterable[int]:
    """Charge i or quotient part count i of a + q for t, from q's charges
    c_0..c_{t-1} (its t-core's n-vector), then its quotient components' part
    counts k_0..k_{t-1}; () has all of them 0.

    Prepending a lays a bead of colour r = (a - 1) mod t at level (a - 1)//t
    on top and moves q's beads down one place, so q's colour i + 1 becomes
    colour i, and its colour 0 colour t - 1, a level lower.  So c_i(a + q) =
    c_{i+1 mod t}(q) + [i = r] - [i = t - 1], and k_i(a + q) = k_{i+1 mod
    t}(q) for i != r.  Component r has k_r(a + q) = (a - 1)//t + 1 - c_r(a +
    q) parts, the gaps below the new bead on its runner, never negative.
    """
    charges, parts = sources[:t], sources[t:]
    r = (a - 1) % t

    def charge(j: int) -> Iterator[int]:
        return map(((j == r) - (j == t - 1)).__add__, charges[(j + 1) % t])

    if member == "charge":
        return charge(i)
    if i != r:
        return parts[(i + 1) % t]
    return map(((a - 1) // t + 1).__sub__, charge(r))


def _members(kind: str, t: int) -> tuple[str, ...]:
    return tuple(f"{kind}:{t}:{i}" for i in range(t))


def _core_family(t: int) -> dict[str, tuple[tuple[str, ...], Callable[..., Iterable[int]]]]:
    # Every member lists all t charges, and a part count all t part counts,
    # so a read fills the same columns at each weight below it, however deep
    # the recursion goes.
    charges, parts = _members("charge", t), _members("quotient-parts", t)
    return {
        **{name: (charges, partial(_core_step, t, "charge", i=i))
           for i, name in enumerate(charges)},
        **{name: ((*charges, *parts), partial(_core_step, t, "quotient-parts", i=i))
           for i, name in enumerate(parts)},
    }


def _five_core_crank_fold(a: int, _, *charges: array) -> Iterator[int]:
    # 1 + the charges of a + q times stats.FIVE_CORE_CRANK, mod 5
    terms = (map(k.__mul__, _core_step(5, "charge", a, _, *charges, i=i))
             for i, k in enumerate(stats.FIVE_CORE_CRANK) if k)
    return map((5).__rmod__, map(sum, zip(repeat(1), *terms)))


def _repeated_even_fold(a: int, above: Callable[[int], int],
                        repeated: array) -> Iterable[int]:
    # a + q repeats the even part a exactly when q's largest part is a
    exact = above(a - 1)
    return chain(repeat(1, exact), repeated[exact:]) if a % 2 == 0 else repeated


def _odd_top_fold(a: int, above: Callable[[int], int], odd: array) -> Iterable[int]:
    # the multiplicity of a in a + q is one more than in q when q's largest
    # part is a, and 1 otherwise
    exact = above(a - 1)
    return chain(map((1).__xor__, odd[:exact]), repeat(1, len(odd) - exact))


def _ag_crank_step(a: int, crank: array, ones: array) -> Iterator[int]:
    # The AG crank of a + q, for a part a at least q's largest.  Without
    # ones (a >= 2) the crank is the largest part, a.  Otherwise a keeps q's
    # ones and joins the parts larger than their number when it exceeds it.
    # For a = 1, q is 1^m with crank -m, and a + q has -(m + 1).
    most = max(ones, default=0)
    bump = [a] + [1] * (a - 1) + [0] * (most - a + 1) if a > 1 else [-1] * (most + 1)
    return map(operator.add, map(operator.mul, crank, map(bool, ones)),
               map(bump.__getitem__, ones))


def _extraction_step(a: int, above: Callable[[int], int], crank: array, ones: array,
                     odd_top: array) -> tuple[Iterable[int], Iterable[int]]:
    """The AG crank and the ones of the even-pair extraction of a + q.

    The extraction (stats.bijection1) halves each pair of equal even parts.
    a + q completes a new pair, and so gains the half a/2 on top, exactly
    when a is even, q's largest part is a and its multiplicity in q is odd
    (odd_top); otherwise its extraction is q's.
    """
    exact = above(a - 1)
    if a & 1 or not exact:
        return crank, ones
    gain = odd_top[:exact]
    stepped = _ag_crank_step(a >> 1, crank[:exact], ones[:exact])
    crank = chain(map(operator.getitem, zip(crank[:exact], stepped), gain), crank[exact:])
    if a == 2:
        ones = chain(map(operator.add, ones[:exact], gain), ones[exact:])
    return crank, ones


def _st_crank_fold(a: int, above: Callable[[int], int], odd: array, codd: array,
                   ones: array, ext_crank: array, ext_ones: array,
                   odd_top: array) -> Iterable[int]:
    # srank/2, plus the extraction's crank, plus the type-B bit where the
    # extraction is empty.  stats.st_crank sets the bit on (3, 1) and on
    # each p with two ones or more whose largest part exceeds the next by 3
    # or more, or by 2 when odd.  So for a >= 3, q holds two ones or more
    # (one when a = 3, for (3, 1)), and q's largest part is at most a - 3
    # (a - 2 for odd a): the q from above(that) on.  Those keep q's
    # extraction, which is empty exactly when it has no ones and crank 0 (a
    # nonempty one without ones has its largest part as crank).
    half = map((2).__rfloordiv__, map(((a & 1) - a).__add__, map(operator.add, odd, codd)))
    values = map(operator.add, half, _extraction_step(a, above, ext_crank, ext_ones, odd_top)[0])
    if a < 3:
        return values
    start = above(a - 3 + (a & 1))
    empty = map(operator.not_, map(operator.or_, ext_crank[start:], ext_ones[start:]))
    bit = map(operator.mul, empty, map((1 + (a > 3)).__le__, ones[start:]))
    return map(operator.add, values, chain(repeat(0, start), bit))


_EXTRACTION = ("extraction-ag-crank", "extraction-one-parts", "largest-part-odd-multiplicity")

# Columns folded from the lower weights: name -> (the columns of q that it
# reads, fold).  The partitions of n with largest part a are a + q for the q
# of weight n - a with largest part <= a, a suffix of that weight's table.
# fold(a, above, *slices) gives the column over those a + q from the read
# columns over that suffix; above(b) is the number of q at the head of the
# suffix whose largest part exceeds b >= 0, so the first above(a - 1) have
# largest part a.  Each fold agrees with its stats kernel or its definition
# on every partition; the tests hold them to that.
FOLDS: dict[str, tuple[tuple[str, ...], Callable[..., Iterable[int]]]] = {
    "part-count": (("part-count",), lambda a, _, length: map((1).__add__, length)),
    "odd-parts": (("odd-parts",), lambda a, _, odd: map((a & 1).__add__, odd)),
    # columns 1..q_1 of q change parity and a - q_1 columns of length one
    # are added, so a + q has a minus q's odd columns
    "conjugate-odd-parts": (("conjugate-odd-parts",),
                            lambda a, _, codd: map(a.__sub__, codd)),
    "srank": (("odd-parts", "conjugate-odd-parts"), lambda a, _, odd, codd: map(
        ((a & 1) - a).__add__, map(operator.add, odd, codd))),
    "dyson-rank": (("part-count",), lambda a, _, length: map((a - 1).__sub__, length)),
    "has-repeated-even-part": (("has-repeated-even-part",), _repeated_even_fold),
    "one-parts": (("one-parts",), lambda a, _, ones: map(int(a == 1).__add__, ones)),
    "ag-crank": (("ag-crank", "one-parts"),
                 lambda a, _, crank, ones: _ag_crank_step(a, crank, ones)),
    # the t-core's n-vector and the t-quotient's part counts
    **{name: entry for t in range(2, 12) for name, entry in _core_family(t).items()},
    "five-core-crank": (_members("charge", 5), _five_core_crank_fold),
    # the part counts of the 2-quotient's components, 0 less 1
    "two-quotient-rank": ((*_members("charge", 2), *_members("quotient-parts", 2)),
                          lambda a, _, *q: map(operator.sub, *(
                              _core_step(2, "quotient-parts", a, _, *q, i=i) for i in (0, 1)))),
    "largest-part-odd-multiplicity": (("largest-part-odd-multiplicity",), _odd_top_fold),
    "extraction-ag-crank": (_EXTRACTION, lambda a, above, *q: _extraction_step(a, above, *q)[0]),
    "extraction-one-parts": (_EXTRACTION, lambda a, above, *q: _extraction_step(a, above, *q)[1]),
    "st-crank": (("odd-parts", "conjugate-odd-parts", "one-parts", *_EXTRACTION), _st_crank_fold),
}

# Statistics that are a member of a family: a read of the name reads the
# member's column, which is folded and stored once.
ALIASES = {"bg-rank": "charge:2:0"}


class WeightTable:
    """The partitions of one weight, packed, and statistic columns over them.

    The partitions are kept in reverse lexicographic order as one bytes
    object: the parts of each partition, one byte per part, with a zero byte
    between partitions.  Those of largest part a are a followed by the
    partitions of n - a whose largest part is at most a, a suffix of that
    weight's table, so `_pack` builds the bytes from the lower weights' with
    one `replace` per largest part, and records where each weight's "largest
    part <= b" suffix starts: `offsets[b]` in bytes and `firsts[b]` in
    partitions, for b = 0..n.  Every read replays the bytes, so no weight
    is enumerated.

    Entry k of every column belongs to the k-th partition, so a joint
    distribution is a Counter over zipped columns.  `_fill` packs the weight
    and fills every column, the first time a check reads it.  Every column
    is in FOLDS, folded from the same suffixes of the lower weights'
    columns, C-level maps with no Python step per partition; the fold visits
    the weights below from 0 up and fills each with the columns it reads,
    where they are missing.  So each finds its own lower weights already
    filled, and the recursion stays two calls deep; packing visits them the
    same way.  Every read checks the weight against the enumeration bound,
    so a table filled under a higher bound answers as a cold one would; the
    weights below are under the bound whenever the weight is.

    Every statistic is bounded by the weight n in absolute value, and so is
    every auxiliary column of a fold: a part count or odd-part count is at
    most n, the t-quotient and each of its components weigh at most n/t,
    which bounds their part counts, the even-pair extraction weighs at most
    n/4, which bounds its crank and its ones, a parity is 0 or 1, and each
    t-core charge c has |c|(t|c| - t + 1)/2 <= n, so |c| <= n: that bounds
    one term of the core's weight, the sum of t c_j^2/2 + (j - (t - 1)/2)
    c_j, whose terms are >= 0.  So a table holds weights up to 127, and
    signed bytes hold every column.
    """

    def __init__(self, n: int):
        self.n = n
        self.packed: bytes | None = None
        self.size = 0
        self.offsets: list[int] = []
        self.firsts: list[int] = []
        self.filled: dict[str, array] = {}

    def _fill(self, names: tuple[str, ...]) -> None:
        n = self.n
        check_enumeration_bound(n)
        if n > 127:
            raise ValueError(f"a weight table holds weights up to 127, not {n}")
        if "five-core-crank" in names and n % 5 != 4:
            raise ValueError(f"weight {n} is not 4 (mod 5)")
        if self.packed is None:
            self._pack()
        for name in names:
            if name in self.filled:
                continue
            sources, fold = FOLDS[name]
            values = [0] * (n == 0)  # every fold is 0 on ()
            for a in range(n, 0, -1):
                q = weight_table(n - a)
                if not q.filled.keys() >= set(sources):
                    q._fill(sources)
                first = q.firsts[min(a, n - a)]
                values += fold(a, lambda b: q.firsts[min(b, n - a)] - first,
                               *(q.filled[s][first:] for s in sources))
            self.filled[name] = array("b", values)

    def _pack(self) -> None:
        n = self.n
        blocks = []
        self.offsets = [0] * (n + 1)
        self.firsts = [0] * (n + 1)
        offset = first = 0
        for a in range(n, 0, -1):
            q = weight_table(n - a)
            if q.packed is None:
                q._fill(())
            b = min(a, n - a)
            head = bytes((a,))
            blocks.append(head + q.packed[q.offsets[b]:].replace(b"\0", b"\0" + head))
            self.offsets[a], self.firsts[a] = offset, first
            offset += len(blocks[-1]) + 1
            first += q.size - q.firsts[b]
        if n:  # no partition of n has largest part 0
            self.offsets[0], self.firsts[0] = offset, first
        self.size = first or 1  # the empty partition, at weight 0
        self.packed = b"\0".join(blocks)

    def total(self) -> int:
        """p(n), the number of partitions of the weight."""
        self._fill(())
        return self.size

    def rows(self) -> list[bytes]:
        """The partitions of the weight in reverse lexicographic order, each
        as the bytes of its parts, replayed."""
        self._fill(())
        return self.packed.split(b"\0")

    def partitions(self) -> Iterator[Partition]:
        """The partitions of the weight in reverse lexicographic order, replayed."""
        return map(Partition._trusted, self.rows())

    def columns(self, *names: str) -> tuple[array, ...]:
        """The named columns, any missing ones filled in one pass.  A name in
        ALIASES reads the column it names; a name that is neither raises
        ValueError."""
        names = tuple(ALIASES.get(name, name) for name in names)
        if unknown := [name for name in names if name not in FOLDS]:
            raise ValueError(f"no column named {unknown[0]!r}")
        self._fill(names)
        return tuple(self.filled[name] for name in names)

    def joint(self, *names: str) -> Counter:
        """Counts of the value tuples that the named columns take together."""
        return Counter(zip(*self.columns(*names)))


@lru_cache(maxsize=None)
def weight_table(n: int) -> WeightTable:
    """The process-wide table of weight n."""
    return WeightTable(n)


# ---------------------------------------------------------------------------
# classification tables


def freq_notation(parts: Sequence[int]) -> str:
    """Frequency form, ascending parts: (1^4,5^1); the empty partition is ().
    The parts may be any nonincreasing sequence, a list included."""
    p = Partition(parts)
    if not p:
        return "()"
    return "(" + ",".join(f"{part}^{f}" for part, f in p.frequencies().items()) + ")"


def table1_json(n: int = 9) -> dict:
    table = weight_table(n)
    cells: dict[tuple[int, int], list[list[int]]] = {
        (s, k): [] for s in (0, 2) for k in range(5)
    }
    for p, srank, crank in zip(table.partitions(), *table.columns("srank", "st-crank")):
        cells[(srank % 4, crank % 5)].append(list(p))
    return {
        "n": n,
        "total": table.total(),
        "rows": [{"srank_mod4": s, "st_crank_mod5": k, "members": sorted(members)}
                 for (s, k), members in cells.items()],
    }


def render_table1(n: int = 9) -> str:
    data = table1_json(n)
    lines = [
        f"Table 1: the {data['total']} partitions of {n} "
        "by srank mod 4 and St-crank mod 5"
    ]
    for row in data["rows"]:
        members = ", ".join(map(freq_notation, row["members"]))
        lines.append(f"srank={row['srank_mod4']} | St-crank={row['st_crank_mod5']} "
                     f"(mod 5): {members}")
    return "\n".join(lines) + "\n"


def _image(p: Partition) -> dict:
    # p's 5-core and 5-quotient; the slot is the quotient's one nonempty
    # component when the quotient weighs 1, which is then (1)
    cq = phi1(p, 5)
    quotient = [list(q) for q in cq.quotient]
    slot = quotient.index([1]) if cq.quotient_weight() == 1 else None
    return {"core": list(cq.core), "slot": slot, "quotient": quotient}


def table2_json(n: int = 9) -> dict:
    if n % 5 != 4:
        raise ValueError(f"weight {n} is not 4 (mod 5)")
    seen: set[Partition] = set()
    orbits = []
    table = weight_table(n)
    for p in table.partitions():
        if p in seen:
            continue
        members = orbit(p, shifted=True).members
        seen.update(members)
        images = [_image(m) for m in members]
        orbits.append({
            "srank_mod4": stats.srank(members[0]) % 4,
            "all_cores": not any(any(image["quotient"]) for image in images),
            "c5": list(range(5)),
            "members": [list(m) for m in members],
            "images": images,
        })
    # 5-core orbits first within each srank class, then lexicographic by the
    # crank-0 member
    orbits.sort(key=lambda ob: (ob["srank_mod4"], not ob["all_cores"], ob["members"][0]))
    return {"n": n, "total": table.total(), "orbits": orbits}


def _member_text(member: list[int], image: dict) -> str:
    text = freq_notation(member)
    if not any(image["quotient"]):
        return text
    core = freq_notation(image["core"])
    if image["slot"] is not None:
        return f"{text} -> ({core},{image['slot']})"
    return f"{text} -> ({core};{'|'.join(map(freq_notation, image['quotient']))})"


def render_table2(n: int = 9) -> str:
    data = table2_json(n)
    lines = [
        f"Table 2: the {data['total']} partitions of {n} in "
        f"{len(data['orbits'])} orbits of the shifted orbit map; "
        "columns are c5 = 0,1,2,3,4 (mod 5)"
    ]
    for idx, ob in enumerate(data["orbits"], start=1):
        members = ", ".join(map(_member_text, ob["members"], ob["images"]))
        lines.append(f"orbit {idx} | srank={ob['srank_mod4']}: {members}")
    return "\n".join(lines) + "\n"
