"""Scalar partition statistics.

All statistics are total on canonical partitions except the 5-core crank,
which needs weight 4 (mod 5).  Conventions for the empty partition: every
statistic here evaluates to 0 on it (the crank of the empty partition is its
largest part, 0).
"""

from __future__ import annotations

from typing import Sequence

from . import cores
from .cores import CoreQuotient
from .partitions import Partition


def srank(p: Partition) -> int:
    """Odd parts of p minus odd parts of its conjugate.  Always even.

    Column j of p has an odd length exactly when lambda_{i+1} < j <= lambda_i
    for an odd row i, so the conjugate's odd-part count is the alternating
    sum lambda_1 - lambda_2 + lambda_3 - ... and needs no conjugate.
    """
    return sum(part & 1 for part in p) - sum(p[0::2]) + sum(p[1::2])


def dyson_rank(p: Partition) -> int:
    """Largest part minus number of parts (0 on the empty partition)."""
    return p.largest - p.num_parts


def ag_crank(p: Partition) -> int:
    """Andrews-Garvan crank.

    Largest part when there are no ones; otherwise the number of parts larger
    than the number of ones, minus the number of ones.
    """
    ones = p.count(1)
    if ones == 0:
        return p.largest
    return sum(1 for part in p if part > ones) - ones


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
    """Crank of the even-pair extraction plus half the srank, plus 1 on type B."""
    p1, _ = bijection1(p)
    return ag_crank(p1) + srank(p) // 2 + (1 if is_type_b(p) else 0)


def two_quotient_rank(p: Partition) -> int:
    """Part-count difference of the two components of the 2-quotient."""
    _, (nu0, nu1) = cores.quotient_profile(p, 2)
    return nu0 - nu1


def five_core_crank(p: Partition) -> int:
    """5-core crank: 1 + sum(i * alpha_i) mod 5; needs weight 4 (mod 5)."""
    charges, _ = cores.five_core_beads(p)
    return five_core_crank_from_vector(charges)


def five_core_crank_from_vector(nvec: Sequence[int]) -> int:
    """Same crank computed directly from a 5-core n-vector."""
    alpha = cores.alpha_from_n(nvec)
    return (1 + sum(i * a for i, a in enumerate(alpha))) % 5


def bg_rank(p: Partition) -> int:
    """Alternating sum of part parities (the BG-rank).

    Equals r_0 - r_1 of the 2-residue diagram, and the first coordinate of
    the 2-core's n-vector.
    """
    total = 0
    sign = 1
    for part in p:
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


def core_srank_mod4(t: int, nvec: Sequence[int]) -> int:
    """srank mod 4 of the t-core with this n-vector, in closed form.

    Two shapes depending on t mod 4: a cubic sum for odd t, a quadratic sum
    for even t.
    """
    if sum(nvec) != 0:
        raise ValueError("n-vector must sum to zero")
    if t % 2 == 1:
        a = 0 if t % 4 == 1 else 1
        return sum((n + (1 - 2 * a) * i + a) ** 3 for i, n in enumerate(nvec)) % 4
    a = 0 if t % 4 == 0 else 1
    return sum(a * n * n + (i * i + i) * n for i, n in enumerate(nvec)) % 4


def decomposition_srank_mod4(cq: CoreQuotient) -> int:
    """srank mod 4 of phi1_inv(cq) from the core and quotient data alone.

    Even t adds 2a times the quotient weight; odd t adds the quotient sranks
    and a cross term 2*(n_i + i + a)*|component i|.
    """
    t, core, quotient = cq
    base = srank(core)
    if t % 2 == 0:
        a = 0 if t % 4 == 0 else 1
        return (base + 2 * a * sum(q.weight for q in quotient)) % 4
    a = 0 if t % 4 == 1 else 1
    nvec = cores.phi2(core, t)
    total = base
    for i, q in enumerate(quotient):
        total += 2 * (nvec[i] + i + a) * q.weight + srank(q)
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
