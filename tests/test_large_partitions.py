"""The bead-layer kernels on long partitions with few distinct part sizes.

`Partition.conjugate` takes one step per run of equal parts.  The bead
split reads a run of 3t or more equal parts as one block per colour, and
reassembly lays down a run of four or more equal readings, and each
colour's undisplaced beads, as one range, where the earlier kernels took
one step per cell, part and bead.  At weights up to about 20,000, with run
lengths drawn on both sides of those thresholds, these tests hold them to
independent routes: the cell-set transpose for the conjugate, the per-bead
loops that the kernels replaced (copied below as the reference route), and
the capital_phi route for the orbit step.  Every partition of n <= 20 is
also checked against the per-bead loops at each t = 2..9.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab.cores import (
    _charges_and_bead_parts,
    _partition_from_colors,
    capital_phi,
    capital_phi_inv,
    five_core_beads,
    phi1,
    phi1_inv,
)
from tcorelab.orbits import c1_shift, c2_shift, orbit_step
from tcorelab.partitions import Partition, beta_contents, enumerate_partitions

from strategies import long_partitions, long_partitions_4_mod_5, partitions
from test_partitions import conjugate_oracle

T_RANGE = range(2, 10)


def split_by_bead(p: Partition, t: int):
    """Reference route: the charges and bead readings, one bead at a time."""
    tail_top = -len(p) - 1
    displaced = [[] for _ in range(t)]
    for b in beta_contents(p):
        displaced[b % t].append(b // t)
    charges = []
    bead_parts = []
    for i in range(t):
        extras = displaced[i]
        c = (tail_top - i) // t + 1 + len(extras)
        lam = []
        for x, e in enumerate(extras, start=1):
            v = e + x - c
            if v <= 0:
                break
            lam.append(v)
        charges.append(c)
        bead_parts.append(tuple(lam))
    return tuple(charges), tuple(bead_parts)


def reassemble_by_bead(t: int, charges, bead_parts) -> tuple[int, ...]:
    """Reference route: reassembly laying down every bead one at a time."""
    if not bead_parts:
        bead_parts = [()] * t
    floor = min((charges[i] - len(bead_parts[i]) - 1) * t + i for i in range(t))
    contents = []
    for i in range(t):
        c = charges[i]
        lam = bead_parts[i]
        for x, v in enumerate(lam, start=1):
            contents.append((v + c - x) * t + i)
        q = c - len(lam) - 1
        while q * t + i > floor:
            contents.append(q * t + i)
            q -= 1
    contents.sort(reverse=True)
    parts = []
    for x, b in enumerate(contents, start=1):
        if b + x <= 0:
            break
        parts.append(b + x)
    return tuple(parts)


@settings(max_examples=60, deadline=None)
@given(p=long_partitions())
def test_conjugate_matches_transpose(p):
    conj = p.conjugate()
    assert conj == conjugate_oracle(p)
    assert conj.conjugate() == p


@settings(max_examples=40, deadline=None)
@given(p=long_partitions())
def test_phi1_round_trip(p):
    for t in T_RANGE:
        cq = phi1(p, t)
        assert cq.core.weight + t * cq.quotient_weight() == p.weight
        assert phi1_inv(cq) == p


@settings(max_examples=40, deadline=None)
@given(p=long_partitions())
def test_split_and_reassembly_match_per_bead_loops(p):
    for t in T_RANGE:
        charges, bead_parts = split_by_bead(p, t)
        assert _charges_and_bead_parts(p, t) == (charges, bead_parts)
        whole = _partition_from_colors(t, charges, bead_parts)
        assert whole == reassemble_by_bead(t, charges, bead_parts) == p
        core = _partition_from_colors(t, charges, ())
        assert core == reassemble_by_bead(t, charges, ())
        # a reading moved to another colour still reassembles the same way
        moved = bead_parts[1:] + bead_parts[:1]
        assert (_partition_from_colors(t, charges, moved)
                == reassemble_by_bead(t, charges, moved))


def test_split_and_reassembly_match_per_bead_loops_exhaustively():
    for n in range(21):
        for p in enumerate_partitions(n):
            for t in T_RANGE:
                charges, bead_parts = split_by_bead(p, t)
                assert _charges_and_bead_parts(p, t) == (charges, bead_parts)
                assert (_partition_from_colors(t, charges, bead_parts)
                        == reassemble_by_bead(t, charges, bead_parts) == p)
                assert (_partition_from_colors(t, charges, ())
                        == reassemble_by_bead(t, charges, ()))


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(partitions(), long_partitions()))
def test_reassembly_is_canonical(p):
    # reassembly wraps its parts without validation, so each result must
    # pass the validating constructor unchanged
    for t in T_RANGE:
        charges, bead_parts = _charges_and_bead_parts(p, t)
        moved = bead_parts[1:] + bead_parts[:1]
        for readings in (bead_parts, (), moved):
            r = _partition_from_colors(t, charges, readings)
            assert type(r) is Partition
            assert Partition(tuple(r)) == r


@settings(max_examples=40, deadline=None)
@given(p=long_partitions_4_mod_5())
def test_orbit_step_matches_capital_phi(p):
    alpha, quotient = capital_phi(p)
    keys = orbit_step(five_core_beads(p))
    images = tuple(_partition_from_colors(5, *key) for key in keys)
    assert images == (capital_phi_inv(c1_shift(alpha), quotient),
                      capital_phi_inv(c1_shift(alpha), c2_shift(quotient)))
    # the split of each image gives back its key
    assert tuple(map(five_core_beads, images)) == keys
