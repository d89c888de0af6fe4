"""Scalar partition statistics.

All statistics are total on canonical partitions except the 5-core crank,
which needs weight 4 (mod 5).  Conventions for the empty partition: every
statistic here evaluates to 0 on it (the crank of the empty partition is its
largest part, 0).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import neg
from typing import Iterator, Sequence

from . import cores
from .partitions import Partition


# A stretch of this many parts that starts and ends with the same part lies
# inside one run of equal parts, which the kernels below add up in closed
# form.  A partition of fewer parts is read one part at a time.
RUN = 64


def _stretches(p: Partition) -> Iterator[tuple[int, int, int]]:
    """Cut p, top down, into spans (start, stop, a) of p[start:stop].

    p is read in stretches of RUN parts.  A stretch whose first and last
    parts are equal lies inside one run: the run's end is bracketed by
    galloping on from the stretch with steps 1, 2, 4, ... and then bisected
    inside the last step, so a run of RUN + k parts takes about 2 log2(k)
    probes.  The run is one span with a > 0, every part of it equal to a,
    ending where the run ends.  The other stretches between two such runs
    make one span with a == 0, which the caller reads one part at a time.
    A partition of n has at most sqrt(2n) runs, so one made of long runs
    costs a few steps per run.
    """
    n = len(p)
    start = mixed = 0  # p[mixed:start] is read part by part
    while start + RUN <= n:
        a = p[start]
        stop = start + RUN
        if p[stop - 1] != a:
            start = stop
            continue
        step = 1
        while stop + step <= n and p[stop + step - 1] == a:
            stop += step
            step += step
        # the run ends in stop..stop + step - 1
        stop = bisect_right(p, -a, stop, min(stop + step - 1, n), key=neg)
        if mixed < start:
            yield mixed, start, 0
        yield start, stop, a
        start = mixed = stop
    if mixed < n:
        yield mixed, n, 0


def srank(p: Sequence[int]) -> int:
    """Odd parts of p minus odd parts of its conjugate.  Always even.  p may
    be a partition or any nonincreasing sequence of parts.

    Column j of p has an odd length exactly when lambda_{i+1} < j <= lambda_i
    for an odd row i, so the conjugate's odd-part count is the alternating
    sum lambda_1 - lambda_2 + lambda_3 - ... and needs no conjugate.
    """
    if len(p) < RUN:
        return sum(part & 1 for part in p) - sum(p[0::2]) + sum(p[1::2])
    odd = alt = 0
    for start, stop, a in _stretches(p):
        if a:
            odd += (stop - start) * (a & 1)
            # a run of odd length adds its part with the sign of its first row
            if (stop - start) & 1:
                alt += -a if start & 1 else a
        else:
            s = p[start:stop]
            odd += sum(part & 1 for part in s)
            d = sum(s[0::2]) - sum(s[1::2])
            alt += -d if start & 1 else d
    return odd - alt


def dyson_rank(p: Partition) -> int:
    """Largest part minus number of parts (0 on the empty partition)."""
    return p.largest - p.num_parts


def ag_crank(p: Sequence[int]) -> int:
    """Andrews-Garvan crank of p, or of any nonincreasing sequence of parts.

    Largest part when there are no ones; otherwise the number of parts larger
    than the number of ones, minus the number of ones.  Both counts are
    bisections, as the parts are nonincreasing.
    """
    if not p or p[-1] != 1:
        return p[0] if p else 0
    ones = len(p) - bisect_left(p, -1, key=neg)
    return bisect_left(p, -ones, key=neg) - ones


def has_repeated_even_part(p: Partition) -> bool:
    return any(part % 2 == 0 and f >= 2 for part, f in p.frequencies().items())


def bijection1(p: Partition) -> tuple[Partition, Partition]:
    """Extract the maximum even number of even parts.

    p splits into (p1, p2): each pair of even parts 2k becomes one part k of
    p1, and p2 keeps everything else, so it has no repeated even parts.
    Weight bookkeeping: |p| = 4|p1| + |p2|, and srank(p) = srank(p2).
    """
    p1: list[int] = []
    p2: list[int] = []
    for part, f in p.frequencies().items():
        if part % 2 == 0:
            p1.extend([part // 2] * (f // 2))
            if f % 2:
                p2.append(part)
        else:
            p2.extend([part] * f)
    return Partition.from_parts(p1), Partition.from_parts(p2)


def bijection1_inv(p1: Partition, p2: Partition) -> Partition:
    if has_repeated_even_part(p2):
        raise ValueError(f"{p2!r} has a repeated even part")
    parts = list(p2)
    for part, f in p1.frequencies().items():
        parts.extend([2 * part] * (2 * f))
    return Partition.from_parts(parts)


def is_type_a(p: Partition) -> bool:
    """True when the even-pair extraction of p is exactly ((1), p2)."""
    return bijection1(p)[0] == (1,)


def is_type_b(p: Partition) -> bool:
    """Distinguished no-repeated-even-part shapes, plus the exception (3,1).

    Requires weight != 4, a gap of at least 2 after the largest part, at
    least two ones, largest-part-minus-2 and second part not an identical
    even pair, and no repeated even parts.
    """
    if tuple(p) == (3, 1):
        return True
    if p.weight == 4:
        return False
    lam1 = p.largest
    lam2 = p.part(2)
    if lam1 - lam2 < 2:
        return False
    if p.count(1) < 2:  # conjugate gap: lambda'_1 - lambda'_2 = multiplicity of 1
        return False
    if lam1 % 2 == 0 and lam2 == lam1 - 2:
        return False
    if has_repeated_even_part(p):
        return False
    return True


def bijection2(pa: Partition) -> Partition:
    """Weight- and srank-preserving map from type A onto type B."""
    if not is_type_a(pa):
        raise ValueError(f"{pa!r} is not of type A")
    freq = pa.frequencies()
    m = pa.largest
    parts = []
    if m == 2:
        f2 = freq[2]
        if f2 == 3:
            parts = [1] * (freq.get(1, 0) + 2) + [4]
        else:  # f2 == 2
            parts = [1] * (freq.get(1, 0) + 1) + [3]
    else:
        freq = dict(freq)
        freq[1] = freq.get(1, 0) + 2
        freq[2] = freq[2] - 2
        freq[m] = freq[m] - 1
        freq[m + 2] = 1
        for part, f in freq.items():
            parts.extend([part] * f)
    return Partition.from_parts(parts)


def bijection2_inv(pb: Partition) -> Partition:
    if not is_type_b(pb):
        raise ValueError(f"{pb!r} is not of type B")
    freq = dict(pb.frequencies())
    big = pb.largest
    if big == 3:
        freq[1] = freq.get(1, 0) - 1
        freq[3] = freq[3] - 1
        freq[2] = 2
    elif big == 4:
        freq[1] = freq.get(1, 0) - 2
        freq[4] = freq[4] - 1
        freq[2] = 3
    else:
        m = big - 2
        freq[big] = freq[big] - 1
        freq[m] = freq.get(m, 0) + 1
        freq[2] = freq.get(2, 0) + 2
        freq[1] = freq.get(1, 0) - 2
    if freq.get(1, -1) < 0:
        raise ValueError(f"{pb!r} is not in the image of the type-A map")
    parts = []
    for part, f in freq.items():
        parts.extend([part] * f)
    return Partition.from_parts(parts)


def st_crank(p: Partition) -> int:
    """Crank of the even-pair extraction plus half the srank, plus 1 on type B.

    One pass over the parts gathers everything: the parts of
    ``bijection1(p)[0]`` (half of each completed pair of equal even parts),
    the odd-part count and the alternating sum that make up the srank.  With
    a repeated even part p is not of type B; without one the extraction is
    empty (crank 0) and the type-B conditions of :func:`is_type_b` reduce to
    a gap test on the two largest parts and at least two ones.  A run of
    equal parts (see :func:`_stretches`) adds its pairs, odd parts and
    alternating sum in closed form.
    """
    halves = []  # the extraction's parts, nonincreasing
    odd = alt = pending = 0
    if len(p) < RUN:
        sign = -1
        for part in p:
            alt += sign * part
            sign = -sign
            if part & 1:
                odd += 1
            elif part == pending:
                halves.append(part >> 1)
                pending = 0
            else:
                pending = part
    else:
        for start, stop, a in _stretches(p):
            if a:
                count = stop - start
                if count & 1:
                    alt += a if start & 1 else -a
                if a & 1:
                    odd += count
                else:
                    # an unpaired a just above the run pairs with its first
                    # part; no part below the run pairs with one in it
                    halves += [a >> 1] * ((count + (pending == a)) >> 1)
                continue
            sign = 1 if start & 1 else -1
            for part in p[start:stop]:
                alt += sign * part
                sign = -sign
                if part & 1:
                    odd += 1
                elif part == pending:
                    halves.append(part >> 1)
                    pending = 0
                else:
                    pending = part
    half_srank = (odd + alt) // 2
    if halves:
        return ag_crank(halves) + half_srank
    # two ones below a largest part at least 2 above the next (weight 4 then
    # cannot occur), or the exception (3, 1)
    if len(p) > 2 and p[-2] == 1:
        gap = p[0] - p[1]
        if gap > 2 or gap == 2 and p[0] & 1:
            return half_srank + 1
    elif p == (3, 1):
        return half_srank + 1
    return half_srank


def two_quotient_rank(p: Partition) -> int:
    """Part-count difference of the two components of the 2-quotient.

    A component's part count is the largest part of its colour's raw bead
    reading, the conjugate of the component :func:`cores.phi1` publishes.
    The colour's first displaced bead and its bead count give it: with beads
    b_x = lambda_x - x and charge c_i = floor((-nu-1-i)/2) + 1 + #{x : b_x =
    i (mod 2)}, it is max(0, floor(b/2) + 1 - c_i) for the first bead b of
    parity i.  A run of
    equal parts has consecutive beads, so its counts and first beads are
    read off its top bead.
    """
    counts = [0, 0]
    first = [0, 0]
    n = len(p)
    if n < RUN:
        for x, part in enumerate(p, start=1):
            b = part - x
            i = b & 1
            if not counts[i]:
                first[i] = b >> 1
            counts[i] += 1
    else:
        for start, stop, a in _stretches(p):
            if a:
                # beads b, b - 1, ..., one more of b's parity when odd in number
                b = a - start - 1
                for i, bead, count in ((b & 1, b, (stop - start + 1) >> 1),
                                       (~b & 1, b - 1, (stop - start) >> 1)):
                    if not counts[i]:
                        first[i] = bead >> 1
                    counts[i] += count
                continue
            for x, part in enumerate(p[start:stop], start=start + 1):
                b = part - x
                i = b & 1
                if not counts[i]:
                    first[i] = b >> 1
                counts[i] += 1
    top = -n - 1
    nu0 = first[0] - top // 2 - counts[0] if counts[0] else 0
    nu1 = first[1] - (top - 1) // 2 - counts[1] if counts[1] else 0
    return max(nu0, 0) - max(nu1, 0)


# The 5-core crank is 1 plus these multiples of the 5-core's n-vector
# coordinates, mod 5, as five_core_crank derives; the counts by crank read
# them, and five_core_crank stays the kernel the tests check them against.
FIVE_CORE_CRANK = (1, 1, 0, 3, 0)


def five_core_crank(p: Partition) -> int:
    """5-core crank: 1 + sum(i * alpha_i) mod 5; needs weight 4 (mod 5).

    Only the charges of the t = 5 bead diagram are read, c_i =
    floor((-nu-1-i)/5) + 1 + #{x : lambda_x - x = i (mod 5)}.  They are the
    5-core's n-vector, and the alpha coordinates of :func:`cores.alpha_from_n`
    (with its integer s) give sum(i * alpha_i) = 6c_0 + 6c_1 + 5c_2 + 3c_3
    - 5s, so the crank is 1 + c_0 + c_1 + 3c_3 mod 5.  A run of equal parts
    has consecutive beads, whose residues and weight are read off its top
    bead and length.
    """
    counts = [0] * 5
    n = len(p)
    if n < RUN:
        weight = p.weight
        x = 0
        for part in p:
            x += 1
            counts[(part - x) % 5] += 1
    else:
        weight = 0
        for start, stop, a in _stretches(p):
            if a:
                weight += a * (stop - start)
                # beads b, b - 1, ...: every residue full, then the top few
                b = a - start - 1
                full, extra = divmod(stop - start, 5)
                for k in range(5):
                    counts[(b - k) % 5] += full + (k < extra)
                continue
            s = p[start:stop]
            weight += sum(s)
            x = start
            for part in s:
                x += 1
                counts[(part - x) % 5] += 1
    if weight % 5 != 4:
        raise ValueError(f"weight {weight} is not 4 (mod 5)")
    top = -n - 1
    c0, c1, _, c3, _ = [(top - i) // 5 + 1 + counts[i] for i in range(5)]
    return (1 + c0 + c1 + 3 * c3) % 5


def five_core_crank_from_vector(nvec: Sequence[int]) -> int:
    """Same crank computed directly from a 5-core n-vector."""
    alpha = cores.alpha_from_n(nvec)
    return (1 + sum(i * a for i, a in enumerate(alpha))) % 5


def bg_rank(p: Partition) -> int:
    """Alternating sum of part parities (the BG-rank).

    Equals r_0 - r_1 of the 2-residue diagram, and the first coordinate of
    the 2-core's n-vector.  A run of equal parts adds its first row's sign
    when both its part and its length are odd, and 0 otherwise.
    """
    total = 0
    if len(p) < RUN:
        sign = 1
        for part in p:
            total += sign * (part % 2)
            sign = -sign
        return total
    for start, stop, a in _stretches(p):
        if a:
            if a & (stop - start) & 1:
                total += -1 if start & 1 else 1
            continue
        sign = -1 if start & 1 else 1
        for part in p[start:stop]:
            total += sign * (part % 2)
            sign = -sign
    return total


def srank_charge_contribution(t: int, n: int, i: int) -> int:
    """Exact value of the cubic controlling the srank of a t-core.

    For a colour i whose bead charge is n, the cells it contributes to the
    core change the srank by this amount mod 4.  Always an even integer;
    antisymmetric under (n, i) -> (-n, t-1-i).
    """
    if not 0 <= i <= t - 1:
        raise ValueError(f"colour {i} out of range for t={t}")
    six = (
        2 * t * t * n ** 3
        + (6 * t * i - 3 * t * (t - 1)) * n ** 2
        + (6 * i * i - 6 * i * (t - 1) + t * t - 3 * t) * n
    )
    if six % 6 != 0:
        raise ValueError(f"non-integral cubic value for (t,n,i)=({t},{n},{i})")
    return six // 6


def core_srank_term(t: int, i: int, x: int) -> int:
    """Coordinate i's term, at value x, of the srank mod 4 of a t-core, which
    is the sum of the terms over its n-vector, mod 4: a cube for odd t and a
    quadratic for even t, with a = 1 when t is 2 or 3 (mod 4), else 0."""
    a = t % 4 // 2
    if t % 2:
        return (x + (1 - 2 * a) * i + a) ** 3
    return a * x * x + (i * i + i) * x


def core_srank_mod4(t: int, nvec: Sequence[int]) -> int:
    """srank mod 4 of the t-core with this n-vector, in closed form."""
    if sum(nvec) != 0:
        raise ValueError("n-vector must sum to zero")
    return sum(map(core_srank_term, repeat(t), range(t), nvec)) % 4


def core_bg_term(t: int, i: int, x: int) -> int:
    """Coordinate i's term, at value x, of the BG-rank of a t-core, which is
    the sum of the terms over its n-vector.

    The BG-rank is the charge of the even positions of the bead diagram, and
    runner i holds bead levels 0..x-1 above the ground state (or lacks levels
    x..-1 when x < 0); level k sits at position k*t + i.  For odd t its
    parity is that of k + i, so the runner adds (x + 1)//2 even positions for
    even i and x//2 for odd i; for even t it is that of i: x for even i.
    """
    if t % 2:
        return (x + 1 - i % 2) // 2
    return 0 if i % 2 else x


def decomposition_srank_mod4(t: int, charges: Sequence[int], core_srank: int,
                             readings: Sequence[Sequence[int]]) -> int:
    """srank mod 4 of a partition from its t-core and t-quotient data alone.

    The data is what the bead split (`cores._charges_and_bead_parts`) reads
    at t: the charges, which are the core's n-vector, and reading i, the
    conjugate of quotient component i; with the core's srank.  So component
    i weighs sum(reading i), and its srank is -srank(reading i), as
    conjugation negates the srank.  Even t adds 2a times the quotient
    weight; odd t adds the component sranks and a cross term
    2*(n_i + i + a)*|component i|; a = 1 when t is 2 or 3 (mod 4), else 0.
    """
    a = t % 4 // 2
    if t % 2 == 0:
        return (core_srank + 2 * a * sum(map(sum, readings))) % 4
    total = core_srank
    for i, reading in enumerate(readings):
        if reading:
            total += 2 * (charges[i] + i + a) * sum(reading) - srank(reading)
    return total % 4


STATISTICS = {
    "srank": srank,
    "dyson-rank": dyson_rank,
    "ag-crank": ag_crank,
    "st-crank": st_crank,
    "two-quotient-rank": two_quotient_rank,
    "five-core-crank": five_core_crank,
    "bg-rank": bg_rank,
}
