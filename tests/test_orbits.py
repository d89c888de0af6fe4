"""Orbit maps, the theta bijection and the 4n+3 map."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from tcorelab.cores import (
    _partition_from_colors,
    capital_phi,
    capital_phi_inv,
    five_core_beads,
    iter_core_vectors,
    phi2,
    phi2_inv,
)
from tcorelab.orbits import (
    c1_shift,
    c2_shift,
    map_4n_plus_3,
    orbit,
    orbit_map,
    orbit_map_s,
    orbit_step,
    quadruple_shift_vector,
    theta,
    theta_vector,
)
from tcorelab.partitions import Partition, enumerate_partitions
from tcorelab.stats import core_srank_mod4, five_core_crank, srank
from tcorelab.cores import q_alpha

from strategies import partitions_4_mod_5

P = Partition


class TestShifts:
    def test_c1(self):
        assert c1_shift((1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0)
        alpha = (1, 0, 0, 0, 0)
        for _ in range(5):
            alpha = c1_shift(alpha)
        assert alpha == (1, 0, 0, 0, 0)

    def test_c1_preserves_form(self):
        import itertools

        for alpha in itertools.product(range(-2, 3), repeat=5):
            if sum(alpha) != 1:
                continue
            assert q_alpha(c1_shift(alpha)) == q_alpha(alpha)

    def test_c2(self):
        q5 = tuple(P((k,)) for k in range(1, 6))
        a, b, c, d, e = q5
        assert c2_shift(q5) == (e, c, d, a, b)
        out = q5
        for _ in range(5):
            out = c2_shift(out)
        assert out == q5
        empty = (P(),) * 5
        assert c2_shift(empty) == empty


class TestOrbitMaps:
    def test_first_table_row(self):
        assert orbit_map(P((5, 1, 1, 1, 1))) == (3, 3, 1, 1, 1)

    def test_shifted_second_row(self):
        ob = orbit(P((2, 2, 1, 1, 1, 1, 1)), shifted=True)
        assert [tuple(m) for m in ob.members] == [
            (2, 2, 1, 1, 1, 1, 1),
            (3, 2, 2, 2),
            (7, 1, 1),
            (5, 4),
            (4, 2, 1, 1, 1),
        ]
        assert tuple(map(five_core_crank, ob.members)) == (0, 1, 2, 3, 4)
        assert {srank(m) % 4 for m in ob.members} == {0}

    def test_order_five_on_nine(self):
        for p in enumerate_partitions(9):
            q = p
            r = p
            for _ in range(5):
                q = orbit_map(q)
                r = orbit_map_s(r)
            assert q == p
            assert r == p

    def test_weight_invariance_on_fourteen(self):
        for p in enumerate_partitions(14):
            assert orbit_map(p).weight == 14
            assert orbit_map_s(p).weight == 14

    def test_crank_steps(self):
        for p in enumerate_partitions(9):
            c = five_core_crank(p)
            assert five_core_crank(orbit_map(p)) == (c + 1) % 5
            assert five_core_crank(orbit_map_s(p)) == (c + 1) % 5

    def test_wrong_residue(self):
        with pytest.raises(ValueError):
            orbit_map(P((3,)))
        with pytest.raises(ValueError):
            orbit(P((5,)), shifted=True)


class TestBeadSpaceRoute:
    """The bead-space orbit maps against the capital_phi route."""

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_orbit_map_matches_capital_phi(self, p):
        alpha, quotient = capital_phi(p)
        assert orbit_map(p) == capital_phi_inv(c1_shift(alpha), quotient)

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_orbit_map_s_matches_capital_phi(self, p):
        alpha, quotient = capital_phi(p)
        assert orbit_map_s(p) == capital_phi_inv(c1_shift(alpha), c2_shift(quotient))

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_orbit_step_matches_capital_phi(self, p):
        alpha, quotient = capital_phi(p)
        images = tuple(_partition_from_colors(5, *key)
                       for key in orbit_step(five_core_beads(p)))
        assert images == (orbit_map(p), orbit_map_s(p))
        assert images == (capital_phi_inv(c1_shift(alpha), quotient),
                          capital_phi_inv(c1_shift(alpha), c2_shift(quotient)))

    @settings(max_examples=200, deadline=None)
    @given(p=partitions_4_mod_5())
    def test_orbit_step_has_order_five(self, p):
        key = five_core_beads(p)
        for shifted in (False, True):
            image = key
            for _ in range(5):
                image = orbit_step(image)[shifted]
            assert image == key

    def test_images_are_canonical(self):
        # reassembly skips validation, so rebuild each image through it; the
        # split of an image reassembled from a key gives back that key
        for n in (4, 9, 14, 19):
            for p in enumerate_partitions(n):
                for key in orbit_step(five_core_beads(p)):
                    q = _partition_from_colors(5, *key)
                    assert five_core_beads(q) == key
                    for r in (q, orbit_map(p), orbit_map_s(p)):
                        assert type(r) is P
                        assert P(tuple(r)) == r


class TestTheta:
    def test_empty(self):
        image = theta(P())
        assert phi2(image, 5) == (1, 1, 0, -1, -1)
        assert image.weight == 4
        assert five_core_crank(image) == 0

    def test_weight_and_crank(self):
        for nvec, w in iter_core_vectors(5, 20):
            image = theta(phi2_inv(nvec))
            assert image.weight == 5 * w + 4
            assert five_core_crank(image) == 0
            assert core_srank_mod4(5, theta_vector(nvec)) == core_srank_mod4(5, nvec)

    def test_rejects_non_core(self):
        with pytest.raises(ValueError, match=r"^Partition\(5\) is not a 5-core$"):
            theta(P((5,)))


class TestQuadrupleShift:
    def test_empty(self):
        image = map_4n_plus_3(P())
        assert phi2(image, 5) == (0, 1, 0, -1, 0)
        assert image.weight == 3

    def test_weight_parity_srank(self):
        for nvec, w in iter_core_vectors(5, 25):
            img_vec = quadruple_shift_vector(nvec)
            image = map_4n_plus_3(phi2_inv(nvec))
            assert image.weight == 4 * w + 3
            assert phi2(image, 5) == img_vec
            assert tuple(x % 2 for x in img_vec) == (0, 1, 0, 1, 0)
            assert core_srank_mod4(5, img_vec) == 0

    def test_rejects_non_core(self):
        with pytest.raises(ValueError, match=r"^Partition\(5\) is not a 5-core$"):
            map_4n_plus_3(P((5,)))


class TestOrbitObject:
    def test_canonical_start_and_partition_of_nine(self):
        seen = set()
        orbits = []
        for p in enumerate_partitions(9):
            if p in seen:
                continue
            ob = orbit(p, shifted=True)
            seen.update(ob.members)
            orbits.append(ob)
        assert len(orbits) == 6
        for ob in orbits:
            assert tuple(map(five_core_crank, ob.members)) == (0, 1, 2, 3, 4)
            assert len({srank(m) % 4 for m in ob.members}) == 1
        assert len(seen) == 30

    def test_unshifted_orbits_mix_srank(self):
        # the plain orbit map does not preserve srank in general; check it
        # still partitions the weight class into 5-cycles
        seen = set()
        for p in enumerate_partitions(14):
            if p in seen:
                continue
            ob = orbit(p, shifted=False)
            assert len(set(ob.members)) == 5
            seen.update(ob.members)
        assert len(seen) == 135
