"""Hypothesis strategies shared by the differential tests."""

from __future__ import annotations

from hypothesis import strategies as st

from tcorelab.partitions import Partition


@st.composite
def partitions_4_mod_5(draw, max_weight: int = 204) -> Partition:
    """A partition of weight 5k+4 <= max_weight, from one long part to all ones."""
    remaining = 5 * draw(st.integers(0, (max_weight - 4) // 5)) + 4
    cap = draw(st.integers(1, remaining))
    parts = []
    while remaining:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        remaining -= part
    return Partition.from_parts(parts)
