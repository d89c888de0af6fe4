"""Hypothesis strategies shared by the differential tests."""

from __future__ import annotations

from hypothesis import strategies as st

from tcorelab.partitions import Partition


def _partition_of(draw, weight: int) -> Partition:
    """Parts drawn below a drawn cap, so shapes run from one long part to all ones."""
    if not weight:
        return Partition()
    remaining = weight
    cap = draw(st.integers(1, remaining))
    parts = []
    while remaining:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        remaining -= part
    return Partition.from_parts(parts)


@st.composite
def partitions(draw, max_weight: int = 300) -> Partition:
    """A partition of any weight <= max_weight."""
    return _partition_of(draw, draw(st.integers(0, max_weight)))


@st.composite
def partitions_4_mod_5(draw, max_weight: int = 204) -> Partition:
    """A partition of weight 5k+4 <= max_weight."""
    return _partition_of(draw, 5 * draw(st.integers(0, (max_weight - 4) // 5)) + 4)


# Run lengths on either side of the block thresholds of the bead kernels,
# for t = 2..9: t, where a run first reaches every colour; 3t, from which
# the split reads a run as one block per colour; and 4t, from which a
# colour's block holds the four equal readings that reassembly lays down as
# one range.
BOUNDARY_RUNS = sorted({m * t + d for t in range(2, 10) for m in (1, 3, 4)
                        for d in (-1, 0, 1)})


def _long_parts(draw, max_weight: int) -> list[int]:
    """Up to eight distinct sizes, each repeated up to thousands of times."""
    # small sizes as often as large ones, so runs reach thousands of parts
    one_size = st.one_of(st.integers(1, 9), st.integers(10, 1000))
    sizes = draw(st.lists(one_size, min_size=1, max_size=8, unique=True))
    parts: list[int] = []
    budget = max_weight
    for size in sizes:
        if size <= budget:
            # BOUNDARY_RUNS holds 1, so no cap leaves the sample empty
            cap = min(5000, budget // size)
            copies = draw(st.one_of(
                st.sampled_from([r for r in BOUNDARY_RUNS if r <= cap]),
                st.integers(1, cap)))
            parts += [size] * copies
            budget -= size * copies
    return parts


# Run lengths t*k - 1, t*k and t*k + 1 for t = 2..9.  A run of equal parts
# has consecutive contents, so a run of t*k parts that starts at colour 0
# fills k levels of every colour, and reassembly lays each such band of
# levels down as one run of equal parts; these lengths put a run's ends on
# both sides of a band's edges.  Runs of equal readings take them too.
BAND_RUNS = sorted({k * t + d for t in range(2, 10) for k in (1, 2, 3, 8, 32)
                    for d in (-1, 0, 1)})


@st.composite
def partitions_of_length(draw, length: int) -> Partition:
    """A partition of exactly `length` parts, in up to ten runs of equal parts."""
    drawn = draw(st.lists(st.one_of(st.sampled_from(BAND_RUNS), st.integers(1, length)),
                          min_size=1, max_size=10))
    runs = []
    left = length
    for run in drawn:
        runs.append(min(run, left))
        left -= runs[-1]
        if not left:
            break
    else:
        runs.append(left)
    sizes = draw(st.lists(st.integers(1, 1000), min_size=len(runs), max_size=len(runs),
                          unique=True))
    sizes.sort(reverse=True)
    return Partition([size for size, run in zip(sizes, runs) for _ in range(run)])


@st.composite
def bead_keys(draw, t: int, lowest: int = 1, rising: bool = False):
    """(charges, readings) for t colours, as reassembly takes them.

    The charges sum to zero.  Each reading is up to four runs of equal
    values of at least `lowest`, nonincreasing unless `rising`, in which
    case the runs come in any order.
    """
    charges = draw(st.lists(st.integers(-40, 40), min_size=t - 1, max_size=t - 1))
    charges.append(-sum(charges))
    readings = []
    for _ in range(t):
        runs = draw(st.lists(st.one_of(st.sampled_from(BAND_RUNS), st.integers(1, 400)),
                             max_size=4))
        values = draw(st.lists(st.integers(lowest, 40), min_size=len(runs),
                               max_size=len(runs), unique=True))
        if not rising:
            values.sort(reverse=True)
        readings.append(tuple(v for v, run in zip(values, runs) for _ in range(run)))
    return tuple(charges), tuple(readings)


@st.composite
def long_partitions(draw, max_weight: int = 20_000) -> Partition:
    """A partition of weight <= max_weight made of a few long runs of equal parts."""
    return Partition.from_parts(_long_parts(draw, max_weight))


@st.composite
def long_partitions_4_mod_5(draw, max_weight: int = 20_000) -> Partition:
    """As long_partitions, padded with ones to a weight of 4 (mod 5)."""
    parts = _long_parts(draw, max_weight)
    return Partition.from_parts(parts + [1] * ((4 - sum(parts)) % 5))
