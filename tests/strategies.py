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
