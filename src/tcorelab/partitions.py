"""Integer partitions and Young-diagram surgery.

A partition is an immutable, nonincreasing tuple of positive parts; the empty
partition is a first-class value of weight 0.  Cells use matrix coordinates
(row, col), both starting at 1.  Enumeration is reverse lexicographic on part
sequences so that any output derived from it is byte-stable.

Border strips (rim hooks) are handled through bead positions ("first-column
hook lengths" extended downward): the bead diagram of a partition is the
bi-infinite set {lambda_x - x : x >= 1}, which contains every integer below
-nu and finitely many exceptional values.  Removing a strip of length L is
exactly moving one bead down by L onto an empty position.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from operator import neg
from typing import Iterator, NamedTuple, Sequence

DEFAULT_MAX_ENUM_N = 60
ENV_MAX_N = "TCORELAB_MAX_N"


class BoundExceededError(ValueError):
    """Enumeration request above the configured weight bound."""


def max_enumeration_n() -> int:
    """Current enumeration bound (TCORELAB_MAX_N overrides the default)."""
    raw = os.environ.get(ENV_MAX_N)
    return DEFAULT_MAX_ENUM_N if raw is None else int(raw)


class Cell(NamedTuple):
    row: int
    col: int

    @property
    def content(self) -> int:
        """Diagonal index col - row (the residue label before reduction)."""
        return self.col - self.row


class Partition(tuple):
    """Nonincreasing tuple of positive integers.

    The constructor validates canonical form; use :meth:`from_parts` to
    canonicalize arbitrary input.
    """

    __slots__ = ()

    def __new__(cls, parts: Sequence[int] = ()):
        t = tuple(parts)
        prev = None
        for part in t:
            if part < 1:
                raise ValueError(f"parts must be positive integers, got {part}")
            if prev is not None and part > prev:
                raise ValueError(f"parts must be nonincreasing, got {t}")
            prev = part
        return tuple.__new__(cls, t)

    @classmethod
    def _trusted(cls, parts: Sequence[int]) -> "Partition":
        """Wrap parts already known to be positive and nonincreasing.

        Skips validation; only for producers that are canonical by
        construction (enumeration, conjugation, the bead split's readings
        and bead reassembly).
        """
        return tuple.__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self))})"

    @classmethod
    def from_parts(cls, raw: Sequence[int]) -> "Partition":
        """Canonicalize: drop zeros, sort nonincreasing."""
        parts = sorted((p for p in raw if p != 0), reverse=True)
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative")
        return cls(parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse a comma-separated list of parts; empty string is empty."""
        text = text.strip()
        if not text:
            return cls()
        return cls.from_parts([int(tok) for tok in text.split(",")])

    def to_json(self) -> dict:
        return {"parts": list(self), "weight": self.weight}

    # -- shape data --------------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def num_parts(self) -> int:
        return len(self)

    @property
    def largest(self) -> int:
        return self[0] if self else 0

    def part(self, row: int) -> int:
        """Part at 1-based `row`, 0 beyond the last row."""
        return self[row - 1] if 1 <= row <= len(self) else 0

    def frequencies(self) -> dict[int, int]:
        """Map part value -> multiplicity, ascending part order."""
        freq: dict[int, int] = {}
        for part in reversed(self):
            freq[part] = freq.get(part, 0) + 1
        return freq

    def cells(self) -> Iterator[Cell]:
        for row, part in enumerate(self, start=1):
            for col in range(1, part + 1):
                yield Cell(row, col)

    def contains(self, cell: Cell) -> bool:
        return 1 <= cell.row <= len(self) and 1 <= cell.col <= self[cell.row - 1]

    # -- elementary operations ----------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: lambda'_j = #{i : lambda_i >= j}.

        One step per run of equal parts, bottom run first: when the run of
        part a ends at row r and the rows below it have parts of at most
        `below`, columns below+1..a all have length r.  A partition of n has
        at most sqrt(2n) runs.  The start of a run of two or more rows is a
        bisection, which a run of one row skips.  Each run of equal column
        lengths is one list product, which costs less than
        `extend(repeat(...))` when the run is a few cells long.
        """
        if not self:
            return self
        cols: list[int] = []
        below = 0
        end = len(self)
        while end:
            part = self[end - 1]
            cols += [end] * (part - below)
            below = part
            end -= 1
            if end and self[end - 1] == part:
                # the rows above the run are those with a larger part
                end = bisect_left(self, -part, 0, end, key=neg)
        # column lengths are positive and nonincreasing by construction
        return Partition._trusted(cols)

    def odd_part_count(self) -> int:
        return sum(1 for part in self if part % 2)

    def durfee_size(self) -> int:
        """Side of the largest square fitting in the upper-left corner."""
        size = 0
        for row, part in enumerate(self, start=1):
            if part >= row:
                size = row
            else:
                break
        return size


class StripRemoval(NamedTuple):
    """One way of peeling a border strip off a partition.

    `head` is the extreme North-East cell of the removed strip inside the
    original diagram; attaching `length` cells tail-first back onto `result`
    reproduces the original partition.
    """

    result: Partition
    head: Cell
    length: int


def beta_contents(p: Partition) -> list[int]:
    """Exceptional bead positions lambda_x - x, x = 1..nu (strictly decreasing).

    Together with every integer <= -nu-1 these form the full bead diagram.
    """
    return [part - row for row, part in enumerate(p, start=1)]


def check_enumeration_bound(n: int) -> None:
    """Raise unless the partitions of n may be enumerated: ValueError for a
    negative n, BoundExceededError above the bound (see TCORELAB_MAX_N)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    bound = max_enumeration_n()
    if n > bound:
        raise BoundExceededError(
            f"enumeration of partitions of {n} exceeds the bound {bound}"
        )


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, reverse lexicographically.

    The first value is (n), the last (1^n).  Raises BoundExceededError when n
    exceeds the configured bound (see TCORELAB_MAX_N).
    """
    check_enumeration_bound(n)
    if n == 0:
        yield Partition()
        return
    parts = [n]
    while True:
        yield Partition._trusted(parts)
        # locate the rightmost part > 1, drop the tail of ones
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return
        new_val = parts[k] - 1
        remaining = parts[k] + (len(parts) - 1 - k)
        del parts[k:]
        while remaining > 0:
            chunk = min(new_val, remaining)
            parts.append(chunk)
            remaining -= chunk


def residue_counts(p: Partition, t: int) -> tuple[int, ...]:
    """Count diagram cells by content residue: r_s = #{(i,j): j-i = s (mod t)}."""
    if t < 2:
        raise ValueError("t must be at least 2")
    counts = [0] * t
    for row, part in enumerate(p, start=1):
        full, extra = divmod(part, t)
        if full:
            for s in range(t):
                counts[s] += full
        for col in range(t * full + 1, part + 1):
            counts[(col - row) % t] += 1
    return tuple(counts)


def add_cell(p: Partition, at: Cell) -> Partition:
    """Attach one cell at (row, col) to the rim; error if the spot is not addable."""
    row, col = at
    if row < 1 or col < 1:
        raise ValueError(f"cell coordinates start at 1, got {at!r}")
    nu = len(p)
    if row > nu + 1:
        raise ValueError(f"cell {tuple(at)} is not addable to {p!r}: row gap")
    current = p[row - 1] if row <= nu else 0
    if col != current + 1:
        raise ValueError(f"cell {tuple(at)} is not addable to {p!r}: not at row end")
    if row >= 2 and p[row - 2] < col:
        raise ValueError(f"cell {tuple(at)} is not addable to {p!r}: violates shape")
    parts = list(p)
    if row == nu + 1:
        parts.append(col)
    else:
        parts[row - 1] = col
    return Partition(parts)


def rim_hook_removals(p: Partition, length: int) -> list[StripRemoval]:
    """All removals of a border strip of `length` cells leaving a partition.

    Removals are listed by head cell from North-East to South-West along the
    rim.  A removal corresponds to one bead moving down by `length` onto an
    empty position.
    """
    if length < 1:
        raise ValueError("strip length must be positive")
    beta = beta_contents(p)
    occupied = set(beta)
    nu = len(beta)
    removals = []
    for row, b in enumerate(beta, start=1):
        target = b - length
        if target in occupied or target <= -nu - 1:
            continue
        new_beta = sorted((x if x != b else target for x in beta), reverse=True)
        parts = []
        for x, c in enumerate(new_beta, start=1):
            lam = c + x
            if lam <= 0:
                break
            parts.append(lam)
        removals.append(StripRemoval(Partition(parts), Cell(row, b + row), length))
    return removals


def strip_to_core(p: Partition, t: int) -> Partition:
    """Remove rim hooks of length t until none remain (the t-core)."""
    if t < 2:
        raise ValueError("t must be at least 2")
    while True:
        removals = rim_hook_removals(p, t)
        if not removals:
            return p
        p = removals[0].result


def is_t_core(p: Partition, t: int) -> bool:
    """True when no border strip of t cells can be removed.

    The bead test of :func:`rim_hook_removals` without building a removal:
    it stops at the first bead that can move down by t onto an empty
    position above the solid tail.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    beta = beta_contents(p)
    occupied = set(beta)
    tail_top = -len(beta) - 1
    return all(b - t in occupied or b - t <= tail_top for b in beta)
