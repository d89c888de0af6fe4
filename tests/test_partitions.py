"""Partition representation, enumeration and diagram surgery.

Independent oracles used here: cell-set transposition for the conjugate,
Euler's pentagonal recurrence for p(n), a direct cell walk for residue
counts, and hook-length counting for the number of strip removals.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab.partitions import (
    BoundExceededError,
    Cell,
    Partition,
    add_cell,
    beta_contents,
    enumerate_partitions,
    is_t_core,
    residue_counts,
    rim_hook_removals,
    strip_to_core,
)

from strategies import partitions


@lru_cache(maxsize=None)
def pentagonal_p(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence (independent of the package)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (pentagonal_p(n - g1) + pentagonal_p(n - g2))
        k += 1
    return total


def conjugate_oracle(p: Partition) -> Partition:
    cells = {(c.row, c.col) for c in p.cells()}
    flipped = {(col, row) for row, col in cells}
    rows = {}
    for row, col in flipped:
        rows[row] = max(rows.get(row, 0), col)
    return Partition.from_parts([rows[r] for r in rows])


def hook_lengths(p: Partition) -> list[int]:
    conj = p.conjugate()
    out = []
    for i, part in enumerate(p, start=1):
        for j in range(1, part + 1):
            out.append(part - j + conj[j - 1] - i + 1)
    return out


class TestCanonicalForm:
    def test_from_parts(self):
        assert Partition.from_parts([1, 4, 0, 1]) == (4, 1, 1)
        assert Partition.from_parts([]) == ()
        assert Partition.from_parts([3, 3, 3]) == (3, 3, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match=r"^parts must be nonincreasing, got \(1, 2\)$"):
            Partition((1, 2))
        with pytest.raises(ValueError, match=r"^parts must be positive integers, got 0$"):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition.from_parts([3, -1])

    def test_public_constructors_still_validate(self):
        # enumeration and bead reassembly skip validation; the public
        # constructors keep it
        with pytest.raises(ValueError):
            Partition((0,))
        with pytest.raises(ValueError):
            Partition.from_text("a")

    def test_enumeration_is_canonical(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                assert type(p) is Partition
                assert Partition(tuple(p)) == p

    def test_text_round_trip(self):
        assert Partition.from_text("") == ()
        assert ",".join(map(str, Partition.from_text("5,4,1"))) == "5,4,1"
        assert Partition.from_text("1,4,1") == (4, 1, 1)

    def test_json(self):
        assert Partition((4, 1)).to_json() == {"parts": [4, 1], "weight": 5}


class TestElementaryOps:
    def test_conjugate_examples(self):
        assert Partition((3, 2, 1)).conjugate() == (3, 2, 1)
        assert Partition((4, 1)).conjugate() == (2, 1, 1, 1)
        assert Partition((5, 4, 3, 3, 1, 1)).conjugate() == (6, 4, 4, 2, 1)

    def test_conjugate_involution(self):
        for n in range(31):
            for p in enumerate_partitions(n):
                assert p.conjugate().conjugate() == p
                assert p.conjugate().weight == p.weight

    def test_conjugate_against_transpose_oracle(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                assert p.conjugate() == conjugate_oracle(p)

    def test_odd_part_count(self):
        assert Partition((5, 4, 3, 3, 1, 1)).odd_part_count() == 5
        assert Partition().odd_part_count() == 0
        assert Partition((2, 2)).odd_part_count() == 0

    def test_durfee(self):
        assert Partition((3, 3, 3)).durfee_size() == 3
        assert Partition().durfee_size() == 0
        assert Partition((4, 1)).durfee_size() == 1


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_partitions(9)) == 30
        assert list(enumerate_partitions(0)) == [Partition()]
        assert sum(1 for _ in enumerate_partitions(4)) == 5

    def test_reverse_lexicographic_order(self):
        for n in (5, 8, 11):
            seq = [tuple(p) for p in enumerate_partitions(n)]
            assert seq[0] == (n,)
            assert seq[-1] == (1,) * n
            assert seq == sorted(seq, reverse=True)
            assert len(set(seq)) == len(seq)

    def test_matches_pentagonal_recurrence(self):
        for n in range(41):
            assert sum(1 for _ in enumerate_partitions(n)) == pentagonal_p(n)

    def test_bound(self, monkeypatch):
        with pytest.raises(BoundExceededError):
            next(enumerate_partitions(61))
        monkeypatch.setenv("TCORELAB_MAX_N", "61")
        assert sum(1 for _ in enumerate_partitions(61)) == pentagonal_p(61)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TCORELAB_MAX_N", "10")
        with pytest.raises(BoundExceededError):
            next(enumerate_partitions(11))
        monkeypatch.setenv("TCORELAB_MAX_N", "70")
        next(enumerate_partitions(61))


class TestResidueCounts:
    def test_examples(self):
        assert residue_counts(Partition((2, 1)), 2) == (1, 2)
        assert residue_counts(Partition(), 5) == (0, 0, 0, 0, 0)
        assert residue_counts(Partition((3, 3, 3)), 3) == (3, 3, 3)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            residue_counts(Partition((2, 1)), 1)

    def test_against_cell_walk(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                for t in (2, 3, 5, 7):
                    walk = [0] * t
                    for c in p.cells():
                        walk[(c.col - c.row) % t] += 1
                    assert residue_counts(p, t) == tuple(walk)

    def test_total_is_weight(self):
        for n in range(26):
            for p in enumerate_partitions(n):
                for t in range(2, 10):
                    assert sum(residue_counts(p, t)) == n


class TestAddCell:
    def test_examples(self):
        assert add_cell(Partition((2, 1)), Cell(1, 3)) == (3, 1)
        assert add_cell(Partition(), Cell(1, 1)) == (1,)
        assert add_cell(Partition((2, 1)), Cell(3, 1)) == (2, 1, 1)

    def test_not_addable(self):
        with pytest.raises(ValueError):
            add_cell(Partition((2, 1)), Cell(2, 3))
        with pytest.raises(ValueError):
            add_cell(Partition((2, 1)), Cell(4, 1))
        with pytest.raises(ValueError):
            add_cell(Partition((2, 1)), Cell(0, 1))


class TestRimHooks:
    def test_single_row(self):
        removals = rim_hook_removals(Partition((5,)), 5)
        assert removals == [ (Partition(), Cell(1, 5), 5) ]

    def test_four_strip(self):
        removals = rim_hook_removals(Partition((3, 2)), 4)
        assert len(removals) == 1
        assert removals[0].result == (1,)
        assert removals[0].head == Cell(1, 3)

    def test_no_five_strip_in_3_2(self):
        # (3,2) contains a 2x2 block, so its whole diagram is not a border
        # strip; it is one of the two 5-cores of weight 5
        assert rim_hook_removals(Partition((3, 2)), 5) == []
        assert is_t_core(Partition((3, 2)), 5)

    @settings(max_examples=200, deadline=None)
    @given(p=partitions(), t=st.integers(2, 12))
    def test_is_t_core_matches_removals(self, p, t):
        # is_t_core stops at the first movable bead; rim_hook_removals
        # builds every removal
        assert is_t_core(p, t) == (not rim_hook_removals(p, t))

    def test_is_t_core_rejects_small_t(self):
        with pytest.raises(ValueError, match="t must be at least 2"):
            is_t_core(Partition((1,)), 1)

    def test_count_matches_hook_lengths(self):
        for n in range(17):
            for p in enumerate_partitions(n):
                hooks = hook_lengths(p)
                for length in range(1, n + 1):
                    assert len(rim_hook_removals(p, length)) == hooks.count(length)

    def test_heads_walk_southwest(self):
        for n in range(15):
            for p in enumerate_partitions(n):
                for length in (2, 3):
                    contents = [r.head.content for r in rim_hook_removals(p, length)]
                    assert contents == sorted(contents, reverse=True)

    def test_reconstruction_one_cell_at_a_time(self):
        # a border strip can always be re-attached cell by cell with every
        # intermediate shape a partition (greedy order)
        for n in range(15):
            for p in enumerate_partitions(n):
                for length in range(1, n + 1):
                    for removal in rim_hook_removals(p, length):
                        assert removal.result.weight == n - length
                        strip = set(p.cells()) - set(removal.result.cells())
                        assert len(strip) == length
                        assert max(strip, key=lambda c: c.content) == removal.head
                        contents = sorted(c.content for c in strip)
                        assert contents == list(
                            range(contents[0], contents[0] + length)
                        )
                        rebuilt = removal.result
                        while strip:
                            for cell in sorted(strip):
                                try:
                                    rebuilt = add_cell(rebuilt, cell)
                                except ValueError:
                                    continue
                                strip.remove(cell)
                                break
                            else:
                                raise AssertionError(
                                    f"stuck rebuilding {p} from {removal}"
                                )
                        assert rebuilt == p


class TestStripToCore:
    def test_examples(self):
        assert strip_to_core(Partition((5,)), 5) == ()
        assert strip_to_core(Partition((3, 2)), 5) == (3, 2)
        assert strip_to_core(Partition((2, 1)), 2) == (2, 1)

    def test_order_independence(self):
        def strip(p, t, pick_last):
            while True:
                removals = rim_hook_removals(p, t)
                if not removals:
                    return p
                p = removals[-1 if pick_last else 0].result

        for n in range(19):
            for p in enumerate_partitions(n):
                for t in (2, 3, 5):
                    assert strip(p, t, False) == strip(p, t, True)

    def test_weight_drops_by_multiples(self):
        for n in range(15):
            for p in enumerate_partitions(n):
                for t in (2, 3):
                    core = strip_to_core(p, t)
                    assert (n - core.weight) % t == 0
                    assert is_t_core(core, t)


def test_beta_contents_shape():
    assert beta_contents(Partition((5, 4, 1))) == [4, 2, -2]
    assert beta_contents(Partition()) == []
