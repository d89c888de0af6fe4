"""Core/quotient decomposition, n-vectors and alpha coordinates."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab.cores import (
    CoreQuotient,
    _charges_and_bead_parts,
    _partition_from_colors,
    alpha_from_n,
    capital_phi,
    capital_phi_inv,
    core_vector_counts,
    core_weight_from_vector,
    iter_core_vectors,
    n_from_alpha,
    phi1,
    phi1_inv,
    phi2,
    phi2_inv,
    q3,
    q_alpha,
    words,
)
from tcorelab.partitions import Partition, enumerate_partitions, is_t_core, strip_to_core


def count_t_cores_by_filter(n: int, t: int) -> int:
    """Oracle route: filter the full partition enumeration by the core test."""
    return sum(1 for p in enumerate_partitions(n) if is_t_core(p, t))


class TestWords:
    def test_empty(self):
        w = words(Partition(), 2)
        assert w.last_exposed_region(0) == 0
        assert w.last_exposed_region(1) == 0

    def test_two_core(self):
        w = words(Partition((2, 1)), 2)
        assert w.last_exposed_region(0) == -1
        assert w.last_exposed_region(1) == 1

    def test_core_words_are_clean(self):
        # on a t-core, each colour reads E..E then N..N with the break at
        # its n-vector entry
        for t in (2, 3, 5):
            for nvec, _ in iter_core_vectors(t, 20):
                core = phi2_inv(nvec)
                w = words(core, t)
                for i in range(t):
                    assert w.last_exposed_region(i) == nvec[i]
                    row = w.rows[i]
                    assert "NE" not in row  # no exposure after the break


class TestPhi1:
    def test_single_part_nine(self):
        cq = phi1(Partition((9,)), 5)
        assert cq.core == (4,)
        assert cq.quotient[3] == (1,)
        assert sum(q.weight for q in cq.quotient) == 1

    def test_core_fixed_point(self):
        for t in (2, 3, 5):
            for nvec, _ in iter_core_vectors(t, 15):
                core = phi2_inv(nvec)
                cq = phi1(core, t)
                assert cq.core == core
                assert all(q == () for q in cq.quotient)

    def test_round_trip(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                for t in (2, 3, 4, 5, 7):
                    cq = phi1(p, t)
                    assert phi1_inv(cq) == p
                    assert n == cq.core.weight + t * cq.quotient_weight()

    def test_core_agrees_with_hook_stripping(self):
        for n in range(19):
            for p in enumerate_partitions(n):
                for t in (2, 3, 5):
                    assert phi1(p, t).core == strip_to_core(p, t)

    def test_inverse_rejects_bad_core(self):
        # phi1_inv reads the core's beads once: a non-empty reading is a hook
        with pytest.raises(ValueError, match=r"^Partition\(2\) has a rim hook of length 2$"):
            phi1_inv(CoreQuotient(2, Partition((2,)), (Partition(), Partition())))
        with pytest.raises(ValueError, match=r"has a rim hook of length 5$"):
            phi1_inv(CoreQuotient(5, Partition((6, 1)), (Partition(),) * 5))
        with pytest.raises(ValueError, match="quotient must have 5 components"):
            phi1_inv(CoreQuotient(5, Partition(), (Partition(),) * 4))
        with pytest.raises(ValueError, match="t must be at least 2"):
            phi1_inv(CoreQuotient(1, Partition(), (Partition(),)))

    def test_core_beads_give_phi2(self):
        # phi1_inv reads a core's charges off its beads; phi2 counts residues
        for n in range(15):
            for p in enumerate_partitions(n):
                for t in range(2, 6):
                    core = phi1(p, t).core
                    assert _charges_and_bead_parts(core, t) == (phi2(core, t), ((),) * t)

    def test_reassembly_rejects_unbalanced_beads(self):
        # three charges for two colours, summing to zero: rejected for their
        # number before any bead is laid down
        with pytest.raises(ValueError):
            _partition_from_colors(2, (1, 0, -1), ())

    def test_reassembly_rejects_extra_charges(self):
        # the first two of these sum to zero too, so they once gave (1)
        with pytest.raises(ValueError, match="expected 2 charges"):
            _partition_from_colors(2, (1, -1, 0), ())

    def test_reassembly_rejects_missing_charges(self):
        with pytest.raises(ValueError, match="expected 3 charges"):
            _partition_from_colors(3, (1, -1), ())

    def test_reassembly_rejects_short_bead_parts(self):
        with pytest.raises(ValueError, match="expected 3 bead readings, got 2"):
            _partition_from_colors(3, (0, 0, 0), ((1,), ()))

    def test_reassembly_rejects_long_bead_parts(self):
        with pytest.raises(ValueError, match="expected 2 bead readings, got 3"):
            _partition_from_colors(2, (0, 0), ((1,), (), ()))

    def test_reassembly_rejects_charges_off_zero(self):
        with pytest.raises(ValueError, match="charges must sum to zero"):
            _partition_from_colors(2, (1, 0), ())

    def test_reassembly_counts_its_beads(self):
        # with t charges summing to zero the bead count always balances, so
        # the bookkeeping check bites on the gap: a reading of 0 at the
        # colour of the lowest gap lays a bead there
        assert _partition_from_colors(2, (0, 0), ((2, 1), ())) == Partition((3, 1, 1, 1))
        with pytest.raises(ValueError, match="bead bookkeeping out of balance"):
            _partition_from_colors(2, (0, 0), ((0,), ()))
        with pytest.raises(ValueError, match="bead bookkeeping out of balance"):
            _partition_from_colors(3, (0, 1, -1), ((), (), (2, 0)))


class TestPhi2:
    def test_examples(self):
        assert phi2(Partition((2, 1)), 2) == (-1, 1)
        assert phi2(Partition(), 3) == (0, 0, 0)
        assert phi2_inv((-1, 1)) == (2, 1)
        assert phi2_inv((0, 0, 0, 0, 0)) == ()

    def test_weight_of_example_vector(self):
        core = phi2_inv((1, 1, 0, -1, -1))
        assert core.weight == 4
        assert core_weight_from_vector((1, 1, 0, -1, -1)) == 4

    def test_weight_rejects_non_zero_sum(self):
        # the doubled weight of (1, 0, 0) is odd, and (0, -1) would give 0
        for nvec in ((1, 0, 0), (0, -1)):
            with pytest.raises(ValueError):
                core_weight_from_vector(nvec)

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            phi2(Partition((2,)), 2)
        with pytest.raises(ValueError):
            phi2_inv((1, 0))

    def test_round_trip_and_weight(self):
        for t in range(2, 8):
            for nvec, w in iter_core_vectors(t, 25):
                core = phi2_inv(nvec)
                assert core.weight == w
                assert phi2(core, t) == nvec

    def test_conjugate_reverses_and_negates(self):
        for t in range(2, 8):
            for nvec, _ in iter_core_vectors(t, 25):
                core = phi2_inv(nvec)
                assert phi2(core.conjugate(), t) == tuple(
                    -x for x in reversed(nvec)
                )

    def test_durfee_from_positive_charges(self):
        for t in (2, 3, 5):
            for nvec, _ in iter_core_vectors(t, 20):
                core = phi2_inv(nvec)
                assert core.durfee_size() == sum(x for x in nvec if x > 0)


class TestAlpha:
    def test_examples(self):
        assert n_from_alpha((1, 0, 0, 0, 0)) == (1, -1, 0, 0, 0)
        assert n_from_alpha((0, 0, 0, 0, 1)) == (1, 1, 0, -1, -1)
        assert q_alpha((1, 0, 0, 0, 0)) == 1
        assert q_alpha((1, 1, -1, 0, 0)) == 3

    def test_basis_vectors_give_weight_four(self):
        for k in range(5):
            alpha = tuple(1 if i == k else 0 for i in range(5))
            assert q_alpha(alpha) == 1
            assert core_weight_from_vector(n_from_alpha(alpha)) == 4

    def test_round_trip_box(self):
        count = 0
        for alpha in itertools.product(range(-2, 3), repeat=5):
            if sum(alpha) != 1:
                continue
            count += 1
            nvec = n_from_alpha(alpha)
            assert sum(nvec) == 0
            assert sum(i * x for i, x in enumerate(nvec)) % 5 == 4
            assert alpha_from_n(nvec) == alpha
            assert core_weight_from_vector(nvec) == 5 * q_alpha(alpha) - 1
        assert count > 100

    def test_congruence_violation(self):
        with pytest.raises(ValueError):
            alpha_from_n((1, 0, -1, 0, 0))  # weight 3, not 4 mod 5
        with pytest.raises(ValueError):
            n_from_alpha((1, 1, 0, 0, 0))  # sum 2, not 1
        with pytest.raises(ValueError):
            alpha_from_n((1, 0, 0, 0, 0))  # nonzero sum


class TestQ3:
    def test_examples(self):
        assert q3(0, 0) == 0
        assert q3(0, -1) == 1
        assert q3(1, 0) == 4

    def test_matches_core_weight(self):
        for n1 in range(-4, 5):
            for n2 in range(-4, 5):
                assert q3(n1, n2) == core_weight_from_vector((-n1 - n2, n1, n2))


class TestCapitalPhi:
    def test_five_core_input(self):
        alpha, quotient = capital_phi(Partition((4,)))
        assert all(q == () for q in quotient)
        assert phi2_inv(n_from_alpha(alpha)) == (4,)

    def test_nine(self):
        alpha, quotient = capital_phi(Partition((9,)))
        assert quotient[3] == (1,)
        assert phi2_inv(n_from_alpha(alpha)) == (4,)

    def test_weight_identity(self):
        for n in (9, 14, 19):
            for p in enumerate_partitions(n):
                alpha, quotient = capital_phi(p)
                assert n == 5 * q_alpha(alpha) - 1 + 5 * sum(q.weight for q in quotient)
                assert capital_phi_inv(alpha, quotient) == p

    def test_wrong_residue(self):
        with pytest.raises(ValueError):
            capital_phi(Partition((3,)))


def recursive_core_vectors(t: int, max_weight: int):
    """Reference walk: one recursive generator per coordinate, checking the
    doubled weight of every candidate last coordinate."""
    if max_weight < 0:
        return
    limit2 = 2 * max_weight
    mins = [min(t * x * x + 2 * i * x for x in (-1, 0, 1)) for i in range(t)]
    suffix = [sum(mins[i:]) for i in range(t + 1)]
    vec = [0] * t

    def rec(i, partial2, sigma):
        if i == t - 1:
            x = -sigma
            total2 = partial2 + t * x * x + 2 * i * x
            if 0 <= total2 <= limit2:
                vec[i] = x
                yield tuple(vec), total2 // 2
            return
        disc = i * i + t * (limit2 - partial2 - suffix[i + 1])
        if disc < 0:
            return
        root = math.isqrt(disc)
        for x in range(-((i + root) // t), (root - i) // t + 1):
            vec[i] = x
            yield from rec(i + 1, partial2 + t * x * x + 2 * i * x, sigma + x)

    yield from rec(0, 0, 0)


class TestCounting:
    @pytest.mark.parametrize("t", range(2, 10))
    def test_walk_matches_recursive_reference(self, t):
        top = {2: 60, 3: 50, 4: 40, 5: 35, 6: 30, 7: 25, 8: 20, 9: 18}[t]
        for max_weight in (-1, 0, 1, 2, 5, top):
            assert list(iter_core_vectors(t, max_weight)) == list(
                recursive_core_vectors(t, max_weight))

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(2, 9), max_weight=st.integers(-1, 45))
    def test_lattice_counts_match_the_walk(self, t, max_weight):
        walked = Counter(
            (w, (w - sum(i * x for i, x in enumerate(nvec))) % t)
            for nvec, w in iter_core_vectors(t, max_weight))
        counted = core_vector_counts(t, max_weight)
        assert set(counted) == set(walked)
        assert counted == walked

    def test_bad_t(self):
        with pytest.raises(ValueError):
            list(iter_core_vectors(1, 5))
        with pytest.raises(ValueError, match="^t must be at least 2$"):
            core_vector_counts(1, 5)

    def test_two_cores_are_staircases(self):
        triangulars = {k * (k + 1) // 2 for k in range(12)}
        tally = core_vector_counts(2, 40)
        for n in range(41):
            assert tally[(n, 0)] == (1 if n in triangulars else 0)
            assert count_t_cores_by_filter(n, 2) == (1 if n in triangulars else 0)

    def test_five_core_counts(self):
        tally = core_vector_counts(5, 9)
        assert (tally[(4, 0)], tally[(9, 0)], tally[(5, 0)]) == (5, 5, 2)
        assert [count_t_cores_by_filter(n, 5) for n in (4, 9, 5)] == [5, 5, 2]

    def test_triple_agreement_small(self):
        for t in range(2, 8):
            by_vector = [0] * 21
            for _, w in iter_core_vectors(t, 20):
                by_vector[w] += 1
            tally = core_vector_counts(t, 20)
            for n in range(21):
                assert by_vector[n] == tally[(n, 0)]
                assert by_vector[n] == count_t_cores_by_filter(n, t)

    def test_series_matches_vectors_to_high_order(self):
        from tcorelab.qseries import poch_product
        from tcorelab.rings import INT

        order = 300
        for t in range(2, 8):
            series = poch_product(INT, order, [(1, t, t, t), (1, 1, 1, -1)])
            by_vector = [0] * order
            for _, w in iter_core_vectors(t, order - 1):
                by_vector[w] += 1
            assert series.coeffs == by_vector
