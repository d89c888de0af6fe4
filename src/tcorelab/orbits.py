"""Orbit maps on partitions of weight 4 (mod 5), and two 5-core bijections.

The orbit map rotates the alpha-vector of the combined decomposition, which
steps the 5-core crank by one while fixing the weight; the shifted variant
also permutes the quotient slots so that srank mod 4 is preserved.  Iterating
either map five times is the identity, so the partitions of 5n+4 fall into
orbits of five members carrying each crank residue exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import stats
from .cores import (
    _partition_from_colors,
    alpha_from_n,
    five_core_beads,
    n_from_alpha,
    phi2,
    phi2_inv,
)
from .partitions import Partition

# (charges, bead readings) of a partition at t = 5
BeadKey = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def c1_shift(alpha: Sequence[int]) -> tuple[int, ...]:
    """One cyclic rotation of an alpha-vector; Q(alpha) is invariant."""
    if len(alpha) != 5 or sum(alpha) != 1:
        raise ValueError(f"invalid alpha-vector {tuple(alpha)}")
    return (alpha[4], alpha[0], alpha[1], alpha[2], alpha[3])


def c2_shift(q5: Sequence[Partition]) -> tuple[Partition, ...]:
    """Quotient-slot permutation used by the shifted orbit map.

    Also applies slot-wise to the raw bead readings of the quotient.
    """
    if len(q5) != 5:
        raise ValueError("expected a 5-tuple of quotient components")
    return (q5[4], q5[2], q5[3], q5[0], q5[1])


def orbit_step(key: BeadKey) -> tuple[BeadKey, BeadKey]:
    """One orbit step in bead space: the unshifted and the shifted image keys
    of key = (charges, bead readings), as five_core_beads gives it.  Both
    rotate the alpha-vector of the charges; the shifted one also permutes the
    reading slots.  Reassembled, they equal the capital_phi route."""
    charges, bead_parts = key
    rotated = n_from_alpha(c1_shift(alpha_from_n(charges)))
    return (rotated, bead_parts), (rotated, c2_shift(bead_parts))


def orbit_map(p: Partition) -> Partition:
    """Rotate the alpha-vector, keep the quotient: crank steps by 1 mod 5."""
    return _partition_from_colors(5, *orbit_step(five_core_beads(p))[0])


def orbit_map_s(p: Partition) -> Partition:
    """Shifted orbit map: also permutes quotient slots, preserving srank mod 4."""
    return _partition_from_colors(5, *orbit_step(five_core_beads(p))[1])


def theta_vector(nvec: Sequence[int]) -> tuple[int, ...]:
    """n-vector substitution sending 5-cores of n to crank-0 5-cores of 5n+4."""
    n0, n1, n2, n3, n4 = nvec
    return (
        n1 + 2 * n2 + 2 * n4 + 1,
        -n1 - n2 + n3 + n4 + 1,
        2 * n1 + n2 + 2 * n3,
        -2 * n2 - 2 * n3 - n4 - 1,
        -2 * n1 - n3 - 2 * n4 - 1,
    )


def theta(core5: Partition) -> Partition:
    """Bijection from 5-cores of n onto 5-cores of 5n+4 with crank 0 mod 5."""
    return phi2_inv(theta_vector(phi2(core5, 5)))


def quadruple_shift_vector(nvec: Sequence[int]) -> tuple[int, ...]:
    """n-vector substitution sending 5-cores of n to 5-cores of 4n+3."""
    n0, n1, n2, n3, n4 = nvec
    return (2 * n1, 1 + 2 * n4, 2 * n2, -1 + 2 * n0, 2 * n3)


def map_4n_plus_3(core5: Partition) -> Partition:
    """Bijection from 5-cores of n onto srank-0 (mod 4) 5-cores of 4n+3."""
    return phi2_inv(quadruple_shift_vector(phi2(core5, 5)))


@dataclass(frozen=True)
class Orbit:
    """Five iterates of an orbit map, canonicalized to start at crank 0."""

    members: tuple[Partition, ...]
    shifted: bool

    @property
    def weight(self) -> int:
        return self.members[0].weight


def orbit(p: Partition, shifted: bool = False) -> Orbit:
    """The orbit of p under the (shifted) orbit map."""
    step = orbit_map_s if shifted else orbit_map
    members = [p]
    for _ in range(4):
        members.append(step(members[-1]))
    if len(set(members)) != 5:
        raise ValueError(f"degenerate orbit through {p!r}")
    # rotate so that the crank-0 member leads
    cranks = [stats.five_core_crank(m) for m in members]
    start = cranks.index(0)
    members = members[start:] + members[:start]
    return Orbit(tuple(members), shifted)
