"""Partition statistics and the closed srank formulas."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from tcorelab.cores import capital_phi, iter_core_vectors, phi1, phi2_inv
from tcorelab.partitions import Partition, enumerate_partitions, residue_counts
from tcorelab.stats import (
    ag_crank,
    bg_rank,
    bijection1,
    bijection1_inv,
    bijection2,
    bijection2_inv,
    core_srank_mod4,
    decomposition_srank_mod4,
    dyson_rank,
    five_core_crank,
    five_core_crank_from_vector,
    is_type_a,
    is_type_b,
    srank,
    srank_charge_contribution,
    st_crank,
    two_quotient_rank,
)

from strategies import partitions, partitions_4_mod_5

P = Partition


class TestSrank:
    def test_examples(self):
        assert srank(P((5, 4, 3, 3, 1, 1))) == 4
        assert srank(P((3, 3, 3))) == 0
        assert srank(P((5, 3, 1, 1))) == 2
        assert srank(P()) == 0

    def test_even_and_antisymmetric(self):
        for n in range(26):
            for p in enumerate_partitions(n):
                s = srank(p)
                assert s % 2 == 0
                assert srank(p.conjugate()) == -s

    def test_conjugate_route_exhaustive(self):
        for n in range(30):
            for p in enumerate_partitions(n):
                assert srank(p) == p.odd_part_count() - p.conjugate().odd_part_count()

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_conjugate_route_random(self, p):
        assert srank(p) == p.odd_part_count() - p.conjugate().odd_part_count()

    def test_quadratic_criterion(self):
        # srank = sum(part^2 + (1-2j) part) mod 4 over rows j
        for n in range(26):
            for p in enumerate_partitions(n):
                rhs = sum(
                    part * part + (1 - 2 * j) * part
                    for j, part in enumerate(p, start=1)
                )
                assert (srank(p) - rhs) % 4 == 0

    def test_two_core_defect(self):
        for n in range(26):
            for p in enumerate_partitions(n):
                cq = phi1(p, 2)
                assert (srank(p) - (n - cq.core.weight)) % 4 == 0
                assert (srank(p) - 2 * cq.quotient_weight()) % 4 == 0


class TestRankAndCrank:
    def test_dyson(self):
        assert dyson_rank(P((4, 1))) == 2
        assert dyson_rank(P((1, 1, 1, 1))) == -3
        assert dyson_rank(P((7,))) == 6
        assert dyson_rank(P()) == 0

    def test_crank(self):
        assert ag_crank(P((9,))) == 9
        assert ag_crank(P((1,))) == -1
        assert ag_crank(P((2, 1, 1))) == -2
        assert ag_crank(P()) == 0


class TestBijection1:
    def test_worked_example(self):
        p = P((6, 6, 5, 4, 3, 3, 2, 2, 2, 2, 1, 1))
        p1, p2 = bijection1(p)
        assert p1 == (3, 1, 1)
        assert p2 == (5, 4, 3, 3, 1, 1)

    def test_no_repeated_evens_fixed(self):
        p = P((5, 4, 3, 3, 1, 1))
        assert bijection1(p) == ((), p)

    def test_two_twos(self):
        assert bijection1(P((2, 2))) == ((1,), ())

    def test_round_trip_and_invariants(self):
        for n in range(26):
            for p in enumerate_partitions(n):
                p1, p2 = bijection1(p)
                assert n == 4 * p1.weight + p2.weight
                assert srank(p) == srank(p2)
                assert bijection1_inv(p1, p2) == p

    def test_inverse_rejects_repeated_evens(self):
        with pytest.raises(ValueError):
            bijection1_inv(P(), P((2, 2)))


class TestTypesAndBijection2:
    def test_examples(self):
        assert is_type_b(P((3, 1)))
        assert is_type_b(P((5, 3, 1, 1)))
        assert is_type_a(P((2, 2)))
        assert bijection2(P((2, 2))) == (3, 1)
        assert bijection2(P((3, 2, 2))) == (5, 1, 1)

    def test_not_type_a(self):
        with pytest.raises(ValueError):
            bijection2(P((3, 1)))

    def test_bijection_onto_type_b(self):
        for n in range(21):
            type_a = [p for p in enumerate_partitions(n) if is_type_a(p)]
            type_b = {p for p in enumerate_partitions(n) if is_type_b(p)}
            images = set()
            for pa in type_a:
                pb = bijection2(pa)
                assert pb.weight == pa.weight
                assert srank(pb) == srank(pa)
                assert bijection2_inv(pb) == pa
                images.add(pb)
            assert images == type_b
            assert len(images) == len(type_a)


class TestStCrank:
    def test_examples(self):
        assert st_crank(P((6, 6, 5, 4, 3, 3, 2, 2, 2, 2, 1, 1))) == 1
        assert st_crank(P((5, 3, 1, 1))) == 2
        assert st_crank(P((5, 4, 1))) == 0
        assert st_crank(P()) == 0

    def test_fixed_relations_on_types(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                if is_type_a(p):
                    assert st_crank(p) == -1 + srank(p) // 2
                if is_type_b(p):
                    assert st_crank(p) == 1 + srank(p) // 2


class TestTwoQuotientRank:
    def test_examples(self):
        assert two_quotient_rank(P((5, 4, 1))) == 1
        assert two_quotient_rank(P((2, 2))) == 0

    def test_staircases_vanish(self):
        for k in range(1, 7):
            stair = P(tuple(range(k, 0, -1)))
            assert two_quotient_rank(stair) == 0


class TestFiveCoreCrank:
    def test_table_values(self):
        assert five_core_crank(P((5, 1, 1, 1, 1))) == 0
        assert five_core_crank(P((3, 3, 1, 1, 1))) == 1
        assert five_core_crank(P((5, 2, 2))) == 4

    def test_wrong_residue(self):
        with pytest.raises(ValueError):
            five_core_crank(P((3,)))

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_capital_phi_route(self, p):
        assert five_core_crank(p) == five_core_crank_by_definition(p)

    def test_vector_route_agrees(self):
        for nvec, w in iter_core_vectors(5, 30):
            if w % 5 != 4:
                continue
            assert five_core_crank(phi2_inv(nvec)) == five_core_crank_from_vector(nvec)

    def test_alternate_expressions(self):
        # the three published expressions for the crank agree mod 5
        for nvec, w in iter_core_vectors(5, 40):
            if w % 5 != 4:
                continue
            c = five_core_crank_from_vector(nvec)
            n0, n1, n2, n3, _ = nvec
            assert c == 2 * (1 + n0 - n1 - n2 + n3) % 5
            r = residue_counts(phi2_inv(nvec), 5)
            assert c == (2 + sum(i * r[(2 - i) % 5] for i in range(-2, 3))) % 5


def st_crank_by_definition(p):
    """Crank of the even-pair extraction, half the srank, 1 on type B."""
    return ag_crank(bijection1(p)[0]) + srank(p) // 2 + is_type_b(p)


def two_quotient_rank_by_definition(p):
    """Part counts of the published 2-quotient components."""
    nu0, nu1 = phi1(p, 2).quotient
    return nu0.num_parts - nu1.num_parts


def five_core_crank_by_definition(p):
    """1 + sum(i * alpha_i) mod 5 through the combined decomposition."""
    alpha, _ = capital_phi(p)
    return (1 + sum(i * a for i, a in enumerate(alpha))) % 5


class TestDirectKernels:
    """The one-pass statistics against the routes they replaced."""

    @pytest.mark.parametrize("kernel, definition, weights", [
        (st_crank, st_crank_by_definition, range(31)),
        (two_quotient_rank, two_quotient_rank_by_definition, range(31)),
        (five_core_crank, five_core_crank_by_definition, range(4, 31, 5)),
    ], ids=["st-crank", "two-quotient-rank", "five-core-crank"])
    def test_exhaustive(self, kernel, definition, weights):
        for n in weights:
            for p in enumerate_partitions(n):
                assert kernel(p) == definition(p), p

    @settings(max_examples=300, deadline=None)
    @given(p=partitions())
    def test_st_crank_random(self, p):
        assert st_crank(p) == st_crank_by_definition(p)

    @settings(max_examples=300, deadline=None)
    @given(p=partitions())
    def test_two_quotient_rank_random(self, p):
        assert two_quotient_rank(p) == two_quotient_rank_by_definition(p)

    # five_core_crank at random weights: TestFiveCoreCrank.test_capital_phi_route


class TestBgRank:
    def test_examples(self):
        assert bg_rank(P((3, 2, 1))) == 2
        assert bg_rank(P((2,))) == 0
        assert bg_rank(P()) == 0

    def test_matches_residue_gap(self):
        for n in range(21):
            for p in enumerate_partitions(n):
                r = residue_counts(p, 2)
                assert bg_rank(p) == r[0] - r[1]


class TestChargeCubic:
    def test_vanishing(self):
        for t in range(2, 10):
            for i in range(t):
                assert srank_charge_contribution(t, 0, i) == 0
        assert srank_charge_contribution(5, 1, 0) == 0

    def test_antisymmetry_and_parity(self):
        for t in range(2, 10):
            for i in range(t):
                for n in range(-12, 13):
                    v = srank_charge_contribution(t, n, i)
                    assert v % 2 == 0
                    assert v + srank_charge_contribution(t, -n, t - 1 - i) == 0

    def test_bad_colour(self):
        with pytest.raises(ValueError):
            srank_charge_contribution(3, 1, 3)


class TestClosedForms:
    def test_zero_vector(self):
        assert core_srank_mod4(5, (0, 0, 0, 0, 0)) == 0
        assert core_srank_mod4(2, (-1, 1)) == srank(P((2, 1))) % 4

    def test_core_formula_small(self):
        for t in range(2, 10):
            for nvec, _ in iter_core_vectors(t, 16):
                assert core_srank_mod4(t, nvec) == srank(phi2_inv(nvec)) % 4

    def test_decomposition_formula_small(self):
        for n in range(15):
            for p in enumerate_partitions(n):
                for t in (2, 3, 4, 5):
                    assert decomposition_srank_mod4(phi1(p, t)) == srank(p) % 4

    def test_empty_quotient_reduces_to_core(self):
        for t in (2, 3, 5):
            for nvec, _ in iter_core_vectors(t, 12):
                core = phi2_inv(nvec)
                cq = phi1(core, t)
                assert decomposition_srank_mod4(cq) == srank(core) % 4
