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

A reassembly of BAND_PARTS or more parts lays each band of levels that
every colour fills down as one run of equal parts.  It is held to the
per-bead loops on partitions of BAND_PARTS - 1, BAND_PARTS and
BAND_PARTS + 1 parts, on drawn charges and readings, and on the keys of
the orbit step; and to reassembly's own per-bead route, result for result
and error for error, on readings that fall to 0 or below or rise.

The statistics read a partition of RUN or more parts in stretches of RUN
parts and add up each run that fills a stretch in closed form.  Each
kernel is held to its definition route on the same long partitions and on
hand-built shapes around the stretch length.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab import stats
from tcorelab.cli import main
from tcorelab.cores import (
    BAND_PARTS,
    _charges_and_bead_parts,
    _partition_from_colors,
    _parts_by_beads,
    capital_phi,
    capital_phi_inv,
    five_core_beads,
    phi1,
    phi1_inv,
    phi2,
)
from tcorelab.orbits import c1_shift, c2_shift, orbit_step
from tcorelab.partitions import Partition, beta_contents, enumerate_partitions
from tcorelab.stats import RUN

from strategies import (
    bead_keys,
    long_partitions,
    long_partitions_4_mod_5,
    partitions,
    partitions_of_length,
)
from test_partitions import conjugate_oracle
from test_stats import (
    five_core_crank_by_definition,
    st_crank_by_definition,
    two_quotient_rank_by_definition,
)

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


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(partitions(), long_partitions()))
def test_conjugate_is_canonical(p):
    # conjugation wraps its columns without validation, so each result must
    # pass the validating constructor unchanged
    c = p.conjugate()
    assert type(c) is Partition
    assert Partition(tuple(c)) == c


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
    # the rotated charges, with the readings as they are and moved by
    # c2_shift, reassemble as the per-bead loops lay them down
    assert images == tuple(reassemble_by_bead(5, *key) for key in keys)
    # the split of each image gives back its key
    assert tuple(map(five_core_beads, images)) == keys


def test_five_core_beads_checks_the_weight_on_every_small_partition():
    for n in range(21):
        for p in enumerate_partitions(n):
            if n % 5 == 4:
                assert five_core_beads(p) == _charges_and_bead_parts(p, 5)
            else:
                with pytest.raises(ValueError, match=rf"^weight {n} is not 4 \(mod 5\)$"):
                    five_core_beads(p)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(partitions(), long_partitions()))
def test_five_core_beads_checks_the_weight_on_long_partitions(p):
    # the weight class is read off the charges, sum(i * c_i) (mod 5), after
    # the split; it accepts and rejects exactly what the weight does
    if p.weight % 5 == 4:
        assert five_core_beads(p) == _charges_and_bead_parts(p, 5)
    else:
        with pytest.raises(ValueError, match=rf"^weight {p.weight} is not 4 \(mod 5\)$"):
            five_core_beads(p)


def per_bead_route(t, charges, bead_parts):
    """The per-bead route of reassembly at any part count.

    Returns the parts, or the message of the ValueError it raises.
    """
    try:
        return tuple(_parts_by_beads(t, charges, bead_parts,
                                     -part_count(t, charges, bead_parts)))
    except ValueError as exc:
        return str(exc)


def part_count(t, charges, bead_parts):
    """Minus the gap: the number of parts the reassembly gives."""
    return -min((charges[i] - len(bead_parts[i])) * t + i for i in range(t))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_band_route_matches_per_bead_loops_around_the_threshold(data):
    for length in (BAND_PARTS - 1, BAND_PARTS, BAND_PARTS + 1):
        p = data.draw(partitions_of_length(length))
        for t in T_RANGE:
            charges, bead_parts = _charges_and_bead_parts(p, t)
            assert _partition_from_colors(t, charges, bead_parts) == p
            moved = bead_parts[1:] + bead_parts[:1]
            for readings in ((), moved):
                assert (_partition_from_colors(t, charges, readings)
                        == reassemble_by_bead(t, charges, readings))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_route_matches_per_bead_loops_on_drawn_keys(data):
    t = data.draw(st.sampled_from(T_RANGE))
    charges, readings = data.draw(bead_keys(t))
    r = _partition_from_colors(t, charges, readings)
    assert r == reassemble_by_bead(t, charges, readings)
    # positive nonincreasing readings give a canonical partition
    assert Partition(tuple(r)) == r


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_band_route_gives_the_per_bead_result_or_error(data):
    # readings of 0 or less lay a bead at the gap, or on another bead, and
    # rising ones lay beads out of order: whatever the per-bead route makes
    # of them, a partition or a ValueError, the band route makes too
    t = data.draw(st.sampled_from(T_RANGE))
    rising = data.draw(st.booleans())
    charges, readings = data.draw(bead_keys(t, lowest=-2, rising=rising))
    try:
        outcome = tuple(_partition_from_colors(t, charges, readings))
    except ValueError as exc:
        outcome = str(exc)
    assert outcome == per_bead_route(t, charges, readings)


@pytest.mark.parametrize("t, charges, readings", [
    (2, (0, 0), ((3,) * 300 + (0,), ())),
    (3, (0, 1, -1), ((), (), (2,) * 200 + (0,))),
])
def test_band_route_rejects_a_bead_at_the_gap(t, charges, readings):
    # a reading of 0 at the colour of the gap lays its bead there; these
    # keys give more than BAND_PARTS parts, so the band route reads them
    assert part_count(t, charges, readings) >= BAND_PARTS
    with pytest.raises(ValueError, match="bead bookkeeping out of balance"):
        _partition_from_colors(t, charges, readings)


def srank_by_conjugate(p):
    return p.odd_part_count() - p.conjugate().odd_part_count()


def bg_rank_by_two_core(p):
    """The first coordinate of the 2-core's n-vector."""
    return phi2(phi1(p, 2).core, 2)[0]


def ag_crank_by_definition(p):
    ones = p.count(1)
    return p.largest if not ones else sum(1 for part in p if part > ones) - ones


# (kernel, definition, strategy)
ROUTES = {
    "srank": (stats.srank, srank_by_conjugate, long_partitions),
    "bg-rank": (stats.bg_rank, bg_rank_by_two_core, long_partitions),
    "ag-crank": (stats.ag_crank, ag_crank_by_definition, long_partitions),
    "st-crank": (stats.st_crank, st_crank_by_definition, long_partitions),
    "two-quotient-rank": (stats.two_quotient_rank, two_quotient_rank_by_definition,
                          long_partitions),
    "five-core-crank": (stats.five_core_crank, five_core_crank_by_definition,
                        long_partitions_4_mod_5),
}


def _edge_shapes():
    """Shapes around the stretch length RUN."""
    # runs of each length from RUN - 1 to 2 RUN + 1, each starting a
    # stretch, so a run ends at every place a gallop's bracket can; every
    # pair of sixes counts toward the st-crank
    shapes = [[6] * length + [3] * length + [2] * 3 + [1] * length
              for length in range(RUN - 1, 2 * RUN + 2)]
    for length in (RUN - 1, RUN, RUN + 1, 2 * RUN - 1, 2 * RUN + 1):
        # one run alone, and runs that start inside a stretch
        shapes += [[7] * length,
                   [9, 8, 8, 5] + [4] * length + [2] * (length + 1) + [1] * length]
    for count in (RUN - 1, RUN, RUN + 1):
        # exactly this many parts: distinct, all equal, and two runs
        shapes += [list(range(count, 0, -1)), [2] * count,
                   [5] * (count // 2) + [2] * (count - count // 2)]
    # an even pair across the first stretch's edge: into a run of twos, whose
    # pairs are the extraction's ones, into a run of fours, and into parts
    # read one by one
    shapes += [[9] * (RUN - 1) + [2] * (RUN + 2),
               [9] * (RUN - 1) + [4] * (2 * RUN + 1) + [2] * 3,
               [9] * (RUN - 1) + [4, 4] + [3] * (RUN + 5) + [1, 1],
               [11] * (RUN - 2) + [6, 6, 6] + [1] * (RUN - 1)]
    # a staircase, and one with every part doubled
    shapes += [list(range(3 * RUN, 0, -1)),
               [part for part in range(2 * RUN, 0, -1) for _ in (0, 1)]]
    return shapes


EDGE_SHAPES = _edge_shapes()


@pytest.mark.parametrize("name", sorted(ROUTES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_statistics_match_definitions(name, data):
    kernel, definition, strategy = ROUTES[name]
    p = data.draw(strategy())
    assert kernel(p) == definition(p)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_statistics_match_definitions_around_the_stretch(name):
    kernel, definition, strategy = ROUTES[name]
    for parts in EDGE_SHAPES:
        if strategy is long_partitions_4_mod_5:
            parts = parts + [1] * ((4 - sum(parts)) % 5)
        p = Partition.from_parts(parts)
        assert kernel(p) == definition(p), parts


def test_five_core_crank_rejects_a_long_partition_of_the_wrong_weight(capsys):
    # the run route adds the weight up run by run and raises the same error
    # as the short route
    p = Partition([3] * RUN + [1] * 3)
    with pytest.raises(ValueError) as exc:
        stats.five_core_crank(p)
    assert str(exc.value) == f"weight {p.weight} is not 4 (mod 5)"
    assert main(["stat", "--stat", "five-core-crank", "--partition", ",".join(map(str, p))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: weight {p.weight} is not 4 (mod 5)\n"
