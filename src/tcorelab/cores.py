"""t-core / t-quotient decomposition and n-vector coordinates.

The Littlewood decomposition phi1 splits the bead diagram of a partition by
content residue ("colour").  Each colour class is itself a bead diagram whose
charge c_i records how far its beads sit above the ground state; the charges
form the n-vector of the t-core, and the displaced beads of colour i encode
the quotient component.  The published quotient component is the conjugate of
the raw bead reading: growing component i by a part of size m corresponds to
one bead of colour i jumping up m rungs, i.e. attaching a border strip of
length t*m whose head has content n_i*t + i.

phi2 maps a t-core to its n-vector via residue-count differences
(r_0 - r_1, r_1 - r_2, ..., r_{t-1} - r_0); its inverse reassembles the bead
diagram from the charges alone.

For t = 5 the alpha change of variables trades a zero-sum n-vector with
n.(0,1,2,3,4) = 4 (mod 5) for an integer 5-tuple with sum 1; the quadratic
form Q(alpha) then gives the core weight as 5*Q(alpha) - 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import add, neg
from typing import Callable, Iterator, NamedTuple, Sequence

from .partitions import (
    Partition,
    beta_contents,
    is_t_core,
    residue_counts,
)


class CoreQuotient(NamedTuple):
    t: int
    core: Partition
    quotient: tuple[Partition, ...]

    def quotient_weight(self) -> int:
        return sum(q.weight for q in self.quotient)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "core": self.core.to_json(),
            "quotient": [q.to_json() for q in self.quotient],
        }


@dataclass(frozen=True)
class ColorWords:
    """Exposure words of the extended residue diagram.

    rows[i][k] is 'E' when colour i is exposed (a row of the extended diagram
    ends there) in region base_region + k, else 'N'.  Below the window every
    colour reads E, above it N.
    """

    t: int
    base_region: int
    rows: tuple[str, ...]

    def last_exposed_region(self, color: int) -> int:
        row = self.rows[color]
        for k in range(len(row) - 1, -1, -1):
            if row[k] == "E":
                return self.base_region + k
        return self.base_region - 1


def words(p: Partition, t: int) -> ColorWords:
    """Exposure pattern of each colour over all non-constant regions."""
    if t < 2:
        raise ValueError("t must be at least 2")
    nu = len(p)
    beta = set(beta_contents(p))
    tail_top = -nu - 1

    def exposed(content: int) -> bool:
        return content <= tail_top or content in beta

    r_lo = -(nu // t) - 1
    r_hi = p.largest // t + 1
    rows = []
    for i in range(t):
        letters = []
        for region in range(r_lo, r_hi + 1):
            letters.append("E" if exposed((region - 1) * t + i) else "N")
        rows.append("".join(letters))
    return ColorWords(t, r_lo, tuple(rows))


def _charges_and_bead_parts(
    p: Partition, t: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Split the bead diagram by colour.

    Returns (charges, bead_parts); bead_parts[i] is the raw bead reading of
    colour i (conjugate of the published quotient component), as a plain
    nonincreasing tuple.

    The beads are read bottom up.  The k-th bead of colour i above its tail
    (the beads below -len(p)) would sit at quotient q_i + k in the ground
    state, q_i being the top of the tail.  Its reading is how far above that
    it sits, a bead that reads 0 is left out, and q_i + k + 1 after the last
    bead is the charge.  A run of equal parts has consecutive contents, so
    each colour takes a block of consecutive quotients from it, all with one
    reading.  A run of 3t or more parts, where each block holds at least
    three beads, costs one step per colour, and its start is found by
    bisection, as in `Partition.conjugate`; a shorter run costs one step
    per part.  A t below 2 is a ValueError.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    end = len(p)
    run = 3 * t
    # ground[i]: the ground quotient of the next bead of colour i
    ground = [(-end - 1 - i) // t + 1 for i in range(t)]
    readings: list[list[int]] = [[] for _ in range(t)]
    while end:
        a = p[end - 1]
        if end >= run and p[end - run] == a:
            # rows start+1..end hold part a, contents a-end..a-start-1
            start = bisect_left(p, -a, 0, end - run, key=neg)
            top = a - start
            for b in range(a - end, a - end + t):
                i = b % t
                count = (top - 1 - b) // t + 1
                v = b // t - ground[i]
                ground[i] += count
                if v > 0:
                    readings[i] += [v] * count
            end = start
        else:
            b = a - end
            i = b % t
            v = b // t - ground[i]
            ground[i] += 1
            if v > 0:
                readings[i].append(v)
            end -= 1
    return tuple(ground), tuple([tuple(r[::-1]) for r in readings])


# a run of this many equal readings is laid down as one range; thresholds
# of 3 to 8 time alike, and 2 is slower on the readings of small partitions
_READING_RUN = 4

# a reassembly of this many parts or more lays each full band of levels
# down as one run of equal parts; over the reassemblies of the query-large
# benchmark (CPython 3.11.7, 2 vCPUs) the band route overtook the per-bead
# route between 384 and 512 parts
BAND_PARTS = 512


def _partition_from_colors(
    t: int, charges: Sequence[int], bead_parts: Sequence[Sequence[int]]
) -> Partition:
    """Reassemble a partition from per-colour charges and bead readings.

    bead_parts is empty (a t-core) or holds one reading per colour.  Each
    reading must be nonincreasing, which is not checked: a rising one lays
    two beads at one position and gives a non-canonical result.  Callers
    pass the split's own readings, possibly moved between colours, or
    conjugates of partitions.

    The x-th displaced bead of colour i sits at quotient v + c - x (v its
    reading, c the charge), and the rest fill every quotient from
    c - len(reading) - 1 down, so the lowest empty position of colour i is
    (c - len(reading)) * t + i.  The lowest of these, `gap`, is minus the
    number of parts: the beads above it are the beta contents, and part x
    is content x plus x, one C-level pass over the sorted contents.  A bead
    laid at the gap (a reading of 0 or less) is rejected with ValueError.
    A run of equal readings gives contents t apart, laid down as one range;
    so do the undisplaced beads of each colour.

    A reassembly of BAND_PARTS or more parts goes through `_parts_by_bands`,
    which lays each band of levels that every colour fills down as one run
    of equal parts and sorts and maps only the beads between bands.  It
    hands the inputs that the per-bead route rejects, or that lay a bead on
    or below the one before, back to the per-bead route, so both routes
    give the same partition or the same ValueError.
    """
    if len(charges) != t:
        raise ValueError(f"expected {t} charges, got {tuple(charges)}")
    if sum(charges) != 0:
        raise ValueError(f"charges must sum to zero, got {tuple(charges)}")
    if not bead_parts:
        bead_parts = [()] * t
    elif len(bead_parts) != t:
        raise ValueError(f"expected {t} bead readings, got {len(bead_parts)}")
    # min over a list costs less than over a generator at these lengths
    gap = min([(charges[i] - len(bead_parts[i])) * t + i for i in range(t)])
    parts = None
    if -gap >= BAND_PARTS:
        parts = _parts_by_bands(t, charges, bead_parts, gap)
    if parts is None:
        parts = _parts_by_beads(t, charges, bead_parts, gap)
    return Partition._trusted(parts)


def _parts_by_beads(
    t: int, charges: Sequence[int], bead_parts: Sequence[Sequence[int]], gap: int
) -> list[int]:
    """The parts of a reassembly, from the sorted contents of all its beads.

    The route for fewer than BAND_PARTS parts and for the inputs that
    `_parts_by_bands` hands back; raises ValueError when a bead lies at or
    below the gap.
    """
    contents: list[int] = []
    for i in range(t):
        c = charges[i]
        lam = bead_parts[i]
        n = len(lam)
        # bottom up, as the split reads them
        x = n
        while x:
            v = lam[x - 1]
            if x >= _READING_RUN and lam[x - _READING_RUN] == v:
                start = bisect_left(lam, -v, 0, x - _READING_RUN, key=neg)
                contents += range((v + c - start - 1) * t + i,
                                  (v + c - x - 1) * t + i, -t)
                x = start
            else:
                contents.append((v + c - x) * t + i)
                x -= 1
        # the undisplaced beads down to the gap; one bead is appended, as a
        # range costs more than one append
        top = (c - n - 1) * t + i
        if top >= gap + t:
            contents += range(top, gap - 1, -t)
        elif top >= gap:
            contents.append(top)
    contents.sort(reverse=True)
    # the count balances whenever the charges sum to zero, so the guard
    # that bites is the gap itself: only a reading of 0 or less lays a bead
    # there
    if len(contents) != -gap or gap and contents[-1] <= gap:
        raise ValueError(
            f"bead bookkeeping out of balance for t={t}, charges {tuple(charges)}"
        )
    # distinct contents give nonincreasing positive parts; they go through a
    # list, as a tuple grown from the map by reallocation raised the peak
    # memory of the registry checks by about 1.5 MiB
    return list(map(add, contents, range(1, 1 - gap)))


def _parts_by_bands(
    t: int, charges: Sequence[int], bead_parts: Sequence[Sequence[int]], gap: int
) -> list[int] | None:
    """The parts of a reassembly, one run of equal parts per full band of levels.

    The beads are found bottom up by the same steps as the per-bead route.
    Each run of equal readings that that route lays down as one range, and
    each colour's undisplaced beads above the gap, fill an interval of levels
    (quotients); the other beads are laid down one at a time.  A band of
    levels that intervals of every colour fill is a block of consecutive
    contents, so it gives one run of equal parts.  The beads outside the
    bands are sorted and turned into parts as in the per-bead route.

    Returns None when a bead lies at or below the one laid before it, or at
    the gap, so that the per-bead route gives its result or its ValueError.
    """
    contents: list[int] = []
    # per colour, its intervals bottom up, each as the level under its
    # bottom and its top level, so range(top, under, -1) walks its levels
    ends: list[list[int]] = []
    # (top, bottom) levels of the stretches between a colour's intervals
    empties: list[tuple[int, int]] = []
    for i in range(t):
        c = charges[i]
        lam = bead_parts[i]
        n = len(lam)
        top = c - n - 1
        # the lowest level whose content lies above the gap
        bottom = (gap - i) // t + 1
        mine = [bottom - 1, top] if top >= bottom else []
        below = max(top, bottom - 1)
        x = n
        while x:
            v = lam[x - 1]
            lo = v + c - x
            if lo <= below:
                return None
            if x >= _READING_RUN and lam[x - _READING_RUN] == v:
                x = bisect_left(lam, -v, 0, x - _READING_RUN, key=neg)
                if mine and lo - 1 > mine[-1]:
                    empties.append((lo - 1, mine[-1] + 1))
                below = v + c - x - 1
                mine += (lo - 1, below)
            else:
                contents.append(lo * t + i)
                below = lo
                x -= 1
        ends.append(mine)
    # sweep the empty stretches top down: between them, below the lowest
    # top and above the highest bottom of the colours' intervals, every
    # level is full; bands holds each band's top and the level below it,
    # top down
    bands: list[int] = []
    if all(ends):
        ceiling = min([mine[-1] for mine in ends])
        floor = max([mine[0] for mine in ends]) + 1
        empties.append((floor - 1, floor - 1))
        empties.sort(reverse=True)
        for hi, lo in empties:
            if hi < ceiling:
                bands += (ceiling, hi)
            if hi < floor:
                break
            ceiling = min(ceiling, lo - 1)
    # each band lies inside the levels that every colour's intervals fill,
    # so a colour's ends and the bands', sorted together, pair up into the
    # stretches of its intervals outside the bands
    for i in range(t):
        cuts = sorted(ends[i] + bands, reverse=True)
        pairs = iter(cuts)
        for hi, stop in zip(pairs, pairs):
            contents += range(hi * t + i, stop * t + i, -t)
    contents.sort(reverse=True)
    # the beads above each band come before its run of equal parts
    parts: list[int] = []
    row = 1
    done = 0
    pairs = iter(bands)
    for hi, stop in zip(pairs, pairs):
        edge = hi * t + t - 1
        above = bisect_left(contents, -edge, done, key=neg)
        parts += map(add, contents[done:above], range(row, row + above - done))
        row += above - done
        done = above
        size = (hi - stop) * t
        parts += repeat(edge + row, size)
        row += size
    parts += map(add, contents[done:], range(row, row + len(contents) - done))
    return parts


def phi1(p: Partition, t: int) -> CoreQuotient:
    """Littlewood decomposition of p into its t-core and t-quotient."""
    charges, bead_parts = _charges_and_bead_parts(p, t)
    core = _partition_from_colors(t, charges, ())
    # the split's readings are positive and nonincreasing
    quotient = tuple(Partition._trusted(bp).conjugate() for bp in bead_parts)
    return CoreQuotient(t, core, quotient)


def phi1_inv(cq: CoreQuotient) -> Partition:
    """Inverse of phi1; rejects a core that still carries a t-hook."""
    t, core, quotient = cq
    if len(quotient) != t:
        raise ValueError(f"quotient must have {t} components")
    # a t-core is a partition whose t-quotient is empty, and its charges
    # are its n-vector, so one reading of its beads (which rejects a t below
    # 2) tests it and gives both
    charges, core_beads = _charges_and_bead_parts(core, t)
    if any(core_beads):
        raise ValueError(f"{core!r} has a rim hook of length {t}")
    bead_parts = tuple(q.conjugate() for q in quotient)
    return _partition_from_colors(t, charges, bead_parts)


def phi2(core: Partition, t: int) -> tuple[int, ...]:
    """n-vector of a t-core: consecutive residue-count differences."""
    if t < 2:
        raise ValueError("t must be at least 2")
    if not is_t_core(core, t):
        raise ValueError(f"{core!r} is not a {t}-core")
    r = residue_counts(core, t)
    return tuple(r[i] - r[(i + 1) % t] for i in range(t))


def phi2_inv(nvec: Sequence[int]) -> Partition:
    """The unique t-core with the given zero-sum n-vector (t = len(nvec))."""
    t = len(nvec)
    if t < 2:
        raise ValueError("an n-vector needs at least 2 coordinates")
    if sum(nvec) != 0:
        raise ValueError(f"n-vector must sum to zero, got {tuple(nvec)}")
    return _partition_from_colors(t, tuple(nvec), ())


def core_weight_from_vector(nvec: Sequence[int]) -> int:
    """Weight of the t-core with this n-vector: (t/2)||n||^2 + (0,1,..,t-1).n"""
    if sum(nvec) != 0:
        raise ValueError(f"n-vector must sum to zero, got {tuple(nvec)}")
    t = len(nvec)
    twice = t * sum(x * x for x in nvec) + 2 * sum(i * x for i, x in enumerate(nvec))
    if twice % 2 or twice < 0:
        raise ValueError(f"n-vector {tuple(nvec)} gives no core weight")
    return twice // 2


# -- alpha coordinates for 5-cores ------------------------------------------


def n_from_alpha(alpha: Sequence[int]) -> tuple[int, ...]:
    """n-vector of an integer 5-tuple with sum 1."""
    if len(alpha) != 5:
        raise ValueError("alpha-vector must have 5 coordinates")
    if sum(alpha) != 1:
        raise ValueError(f"alpha-vector must sum to 1, got {tuple(alpha)}")
    a0, a1, a2, a3, a4 = alpha
    return (a0 + a4, -a0 + a1 + a4, -a1 + a2, -a2 + a3 - a4, -a3 - a4)


def alpha_from_n(nvec: Sequence[int]) -> tuple[int, ...]:
    """Invert :func:`n_from_alpha`.

    Solvable in integers exactly when 4*n0 + 3*n1 + 2*n2 + n3 = 1 (mod 5),
    i.e. n.(0,1,2,3,4) = 4 (mod 5).
    """
    if len(nvec) != 5:
        raise ValueError("n-vector must have 5 coordinates")
    if sum(nvec) != 0:
        raise ValueError(f"n-vector must sum to zero, got {tuple(nvec)}")
    n0, n1, n2, n3, _ = nvec
    s5 = 4 * n0 + 3 * n1 + 2 * n2 + n3 - 1
    if s5 % 5 != 0:
        raise ValueError(
            f"n-vector {tuple(nvec)} violates the residue condition "
            "n.(0,1,2,3,4) = 4 (mod 5)"
        )
    s = s5 // 5
    return (n0 - s, n0 + n1 - 2 * s, n0 + n1 + n2 - 2 * s, n0 + n1 + n2 + n3 - s, s)


def q_alpha(alpha: Sequence[int]) -> int:
    """Quadratic form ||alpha||^2 minus the cyclic product sum.

    Equals (core weight + 1)/5 for the 5-core attached to alpha.
    """
    if len(alpha) != 5 or sum(alpha) != 1:
        raise ValueError(f"invalid alpha-vector {tuple(alpha)}")
    sq = sum(a * a for a in alpha)
    cyc = sum(alpha[i] * alpha[(i + 1) % 5] for i in range(5))
    return sq - cyc


def q3(n1: int, n2: int) -> int:
    """Weight of the 3-core with n-vector (-n1-n2, n1, n2)."""
    return 3 * (n1 * n1 + n1 * n2 + n2 * n2) + n1 + 2 * n2


def capital_phi(p: Partition) -> tuple[tuple[int, ...], tuple[Partition, ...]]:
    """Combined decomposition of a partition of weight 4 (mod 5).

    Returns (alpha, quotient) with |p| = 5*Q(alpha) - 1 + 5*sum of quotient
    weights.
    """
    if p.weight % 5 != 4:
        raise ValueError(f"weight {p.weight} is not 4 (mod 5)")
    cq = phi1(p, 5)
    alpha = alpha_from_n(phi2(cq.core, 5))
    return alpha, cq.quotient


def five_core_beads(
    p: Partition,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Bead-space form of :func:`capital_phi`: (charges, bead readings) at t = 5.

    The charges are the 5-core's n-vector (``alpha_from_n`` gives alpha) and
    bead reading i is the conjugate of quotient component i, so neither the
    core nor the quotient is built.  Needs weight 4 (mod 5), which the
    charges give after the split: the weight is 5|quotient| plus the core's
    5||c||^2/2 + sum(i * c_i), and ||c||^2 is even as the charges sum to 0, so
    the weight is sum(i * c_i) (mod 5).  No pass over the parts sums it.
    """
    charges, beads = _charges_and_bead_parts(p, 5)
    if sum(i * c for i, c in enumerate(charges)) % 5 != 4:
        raise ValueError(f"weight {p.weight} is not 4 (mod 5)")
    return charges, beads


def capital_phi_inv(
    alpha: Sequence[int], quotient: Sequence[Partition]
) -> Partition:
    core = phi2_inv(n_from_alpha(alpha))
    return phi1_inv(CoreQuotient(5, core, tuple(quotient)))


# -- counting t-cores ---------------------------------------------------------


def iter_core_vectors(t: int, max_weight: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (n-vector, weight) for every t-core of weight <= max_weight.

    Depth-first over the zero-sum lattice with per-coordinate pruning on the
    doubled weight t*||n||^2 + 2*(0,1,..,t-1).n, walked with an explicit
    stack of coordinate ranges.  The last coordinate is fixed by the zero
    sum, so the doubled weight is a quadratic in the one before it, whose
    range is solved exactly.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if max_weight < 0:
        return
    limit2 = 2 * max_weight
    mins = [min(t * x * x + 2 * i * x for x in (-1, 0, 1)) for i in range(t)]
    suffix = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mins[i]

    def span(i: int, partial2: int) -> range:
        # coordinate contributions may be negative, so the budget may be too;
        # infeasibility shows up as a negative discriminant
        disc = i * i + t * (limit2 - partial2 - suffix[i + 1])
        if disc < 0:
            return range(0)
        root = isqrt(disc)
        return range(-((i + root) // t), (root - i) // t + 1)

    last = t - 1
    inner = t - 2
    vec = [0] * t
    # partial2[i], sigma[i]: doubled weight and sum of coordinates 0..i-1
    partial2 = [0] * t
    sigma = [0] * t
    ranges = [iter(span(0, 0))] + [None] * inner
    i = 0
    while i >= 0:
        if i == inner:
            # with vec[last] = -sg - x the doubled weight is 2t x^2 + b x + c,
            # never negative, so x runs over the roots of "<= limit2"
            sg = sigma[i]
            b = 2 * t * sg - 2
            c = partial2[i] + t * sg * sg - 2 * last * sg
            disc = b * b - 8 * t * (c - limit2)
            if disc >= 0:
                root = isqrt(disc)
                for x in range(-((b + root) // (4 * t)), (root - b) // (4 * t) + 1):
                    vec[i] = x
                    vec[last] = -sg - x
                    yield tuple(vec), (2 * t * x * x + b * x + c) // 2
            i -= 1
            continue
        x = next(ranges[i], None)
        if x is None:
            i -= 1
            continue
        vec[i] = x
        partial2[i + 1] = partial2[i] + t * x * x + 2 * i * x
        sigma[i + 1] = sigma[i] + x
        i += 1
        if i < inner:
            ranges[i] = iter(span(i, partial2[i]))


def core_vector_counts(t: int, max_weight: int,
                       *labels: tuple[Callable[[int, int], int], int | None]) -> Counter:
    """Counts of (weight, *values) over the n-vectors n of the t-cores of
    weight <= max_weight, one value per label.  A label is a pair (term,
    modulus), and its value is the sum of term(i, n_i) over the
    coordinates, mod the modulus, or exact when the modulus is None.

    The doubled weight is a sum of one cost t*x^2 + 2*i*x per coordinate, so
    the lattice is counted one coordinate at a time, as the constant term in
    z of prod_i sum_x z^x q^((t*x^2 + 2*i*x)/2); each label is a sum of one
    term per coordinate too.  After coordinates 0..i the state is one plane
    per (values, sigma), sigma the sum of those coordinates and values their
    label sums: a list of counts by partial doubled weight in steps of 2, as
    every such weight has the parity of t*sigma.  Each coordinate value adds
    a plane, shifted by its cost, onto another in one C-level map, and its
    label terms, found once per coordinate value, step the values.

    A plane's window runs from the least cost of coordinates 0..i summing to
    sigma up to the budget less the least cost of the remaining coordinates
    summing to -sigma.  Both tables are exact on every run of coordinates
    that a vector within the budget has, so no plane is built whose sigma
    cannot be cancelled within the budget.  `iter_core_vectors` is the
    oracle.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    counts: Counter = Counter()
    if max_weight < 0:
        return counts
    limit2 = 2 * max_weight
    last = t - 1
    # coordinate i costs at least min(0, t - 2i), so within the budget no
    # run of coordinates costs more than cap, and no coordinate lies outside
    # -reach..reach
    cap = limit2 + sum(max(0, 2 * i - t) for i in range(t))
    reach = (last + isqrt(last * last + t * cap)) // t
    xs = range(-reach, reach + 1)

    def least(before: dict[int, int], i: int) -> dict[int, int]:
        # least cost by sum, once coordinate i joins the coordinates before
        out: dict[int, int] = {}
        for s, c in before.items():
            for x in xs:
                v = c + t * x * x + 2 * i * x
                if v <= cap and v < out.get(s + x, v + 1):
                    out[s + x] = v
        return out

    def plus(values: tuple[int, ...], deltas: list[int]) -> tuple[int, ...]:
        return tuple(v + d if m is None else (v + d) % m
                     for v, d, (_, m) in zip(values, deltas, labels))

    # prefix[i]: least cost of coordinates 0..i by their sum; suffix[i]:
    # least cost of coordinates i+1..t-1 by their sum
    prefix = [least({0: 0}, 0)]
    for i in range(1, t):
        prefix.append(least(prefix[-1], i))
    suffix = [{0: 0}]
    for i in range(last, 0, -1):
        suffix.append(least(suffix[-1], i))
    suffix.reverse()

    lows, planes = {0: 0}, {(0,) * len(labels): {0: [1]}}
    for i in range(t):
        rest, pre = suffix[i], prefix[i]
        # the window of sum s runs from pre[s] up to tops[s]; a plane is
        # built only once a shift lands in it
        tops = {s: limit2 - rest[-s] for s in pre if -s in rest}
        # each value of the coordinate with its cost and its label terms
        moves = [(x, t * x * x + 2 * i * x, [term(i, x) for term, _ in labels]) for x in xs]
        grown: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for values, row in planes.items():
            for x, cost, deltas in moves:
                into = grown.setdefault(plus(values, deltas), {})
                for s, plane in row.items():
                    top = tops.get(s + x)
                    shift = lows[s] + cost
                    if top is None or shift > top:
                        continue
                    if (target := into.get(s + x)) is None:
                        target = into[s + x] = [0] * ((top - pre[s + x]) // 2 + 1)
                    # the slice ends at the window's top, and the map with it
                    j = (shift - pre[s + x]) // 2
                    k = j + len(plane)
                    target[j:k] = map(add, target[j:k], plane)
        lows, planes = pre, grown
    # the last window holds sum 0 alone, from doubled weight 0, so each
    # plane left counts by weight
    for values, row in planes.items():
        for plane in row.values():
            for w, c in enumerate(plane):
                if c:
                    counts[(w, *values)] = c
    return counts
