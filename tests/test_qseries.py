"""Truncated series arithmetic against independent oracles.

The pentagonal-number expansion of (q;q)_infinity and a naive polynomial
multiplication serve as oracles for the product machinery; explicit factor
polynomials multiplied and inverted by ``Series`` arithmetic, and the
single-pass API (``mul_one_minus`` / ``div_one_minus``) folded over every
pass, are the oracles for the plane kernel of ``poch_product``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab import qseries
from tcorelab.partitions import enumerate_partitions
from tcorelab.qseries import (
    Series,
    partition_count_series,
    poch_product,
    theta_jtp,
    triangular_theta,
)
from tcorelab.rings import CYC5, INT, LaurentRing

X = LaurentRing(("x",))
XY = LaurentRing(("x", "y"))
XW = LaurentRing(("x", "w"), cyclic={"w": 4})
Y4 = LaurentRing(("y",), cyclic={"y": 4})
COEFFS = st.integers(min_value=-3, max_value=3)
POWERS = st.integers(min_value=-3, max_value=3)


def pentagonal_euler(order: int) -> list[int]:
    """(q;q)_infinity by the pentagonal number theorem."""
    coeffs = [0] * order
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= order and g2 >= order:
            break
        sign = -1 if k % 2 else 1
        for g in (g1, g2):
            if g < order:
                coeffs[g] += sign
        k += 1
    return coeffs


def naive_product(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        for j, bj in enumerate(b[: order - i]):
            out[i + j] += ai * bj
    return out


def factor_polynomial(ring, order: int, elem, d: int) -> Series:
    """1 - elem * q**d as an explicit series."""
    poly = Series.one(ring, order)
    if d < order:
        poly.coeffs[d] = poly.coeffs[d] - elem
    return poly


def oracle_product(ring, order: int, factors) -> Series:
    """poch_product through Series.__mul__ and Series.inverse only."""
    out = Series.one(ring, order)
    for elem, q_power, step, exponent in factors:
        for d in range(q_power, order, step):
            poly = factor_polynomial(ring, order, elem, d)
            if exponent < 0:
                poly = poly.inverse()
            for _ in range(abs(exponent)):
                out = out * poly
    return out


# every factor elem is a monomial c*g of the ring's group
RINGS = {
    "int": (INT, COEFFS),
    "cyc5": (CYC5, st.builds(lambda c, k: c * CYC5.xi(k), st.sampled_from([1, -1]) | COEFFS,
                             st.integers(min_value=0, max_value=4))),
    "y4": (Y4, st.builds(lambda c, e: Y4.monomial(c, y=e), COEFFS, POWERS)),
}


@st.composite
def factor_lists(draw, elems, order):
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        exponent = draw(st.integers(min_value=-3, max_value=3))
        q_power = draw(st.integers(min_value=0 if exponent >= 0 else 1, max_value=order))
        step = draw(st.integers(min_value=1, max_value=order))
        factors.append((draw(elems), q_power, step, exponent))
    return factors


class TestPassKernel:
    @given(data=st.data(), ring_name=st.sampled_from(sorted(RINGS)),
           order=st.integers(min_value=1, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_poch_product_against_explicit_factors(self, data, ring_name, order):
        ring, elems = RINGS[ring_name]
        factors = data.draw(factor_lists(elems, order))
        assert poch_product(ring, order, factors).coeffs == oracle_product(ring, order, factors).coeffs

    @given(data=st.data(), ring_name=st.sampled_from(sorted(RINGS)),
           order=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_unit_elements_written_as_ints(self, data, ring_name, order):
        # a factor elem of 1 or -1 is the plain int in every ring
        ring, elems = RINGS[ring_name]
        factors = data.draw(factor_lists(elems | st.sampled_from([1, -1]), order))
        in_ring = [(ring.from_int(elem) if isinstance(elem, int) else elem, *rest)
                   for elem, *rest in factors]
        got = poch_product(ring, order, factors).coeffs
        assert got == poch_product(ring, order, in_ring).coeffs
        assert got == oracle_product(ring, order, in_ring).coeffs

    @given(data=st.data(), ring_name=st.sampled_from(sorted(RINGS)),
           order=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_single_passes_copy(self, data, ring_name, order):
        ring, elems = RINGS[ring_name]
        s = Series(ring, order, data.draw(st.lists(elems, min_size=order, max_size=order)))
        before = list(s.coeffs)
        elem = data.draw(elems | st.sampled_from([ring.one, -ring.one]))
        d = data.draw(st.integers(min_value=0, max_value=order + 1))
        poly = factor_polynomial(ring, order, elem, d)
        assert s.mul_one_minus(elem, d).coeffs == (s * poly).coeffs
        assert s.coeffs == before
        if d >= 1:
            assert s.div_one_minus(elem, d).coeffs == (s * poly.inverse()).coeffs
            assert s.coeffs == before

    def test_blockwise_division_at_large_steps(self):
        # steps with step*step >= order divide block by block
        order = 50
        factors = [(2, 7, 9, -2), (-1, 8, 20, -1), (1, 30, 1, -3)]
        assert poch_product(INT, order, factors).coeffs == oracle_product(INT, order, factors).coeffs


class TestBasics:
    def test_euler_expansion(self):
        s = poch_product(INT, 6, [(1, 1, 1, 1)])
        assert s.coeffs == [1, -1, -1, 0, 0, 1]

    def test_euler_matches_pentagonal(self):
        s = poch_product(INT, 120, [(1, 1, 1, 1)])
        assert s.coeffs == pentagonal_euler(120)

    def test_empty_product_is_one(self):
        s = poch_product(INT, 10, [(1, 50, 1, 1)])
        assert s.coeffs == [1] + [0] * 9

    def test_partition_counts(self):
        s = partition_count_series(60)
        assert s.coeff(9) == 30
        counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(41)]
        assert s.coeffs[:41] == counts

    def test_inverse_round_trip(self):
        s = partition_count_series(40)
        assert (s * s.inverse()).coeffs == [1] + [0] * 39

    def test_inverse_needs_unit(self):
        s = Series(INT, 5, [2, 1, 1, 1, 1])
        with pytest.raises(ValueError):
            s.inverse()

    def test_non_invertible_factor(self):
        with pytest.raises(ValueError):
            poch_product(INT, 10, [(1, 0, 1, -1)])

    def test_five_core_count_series(self):
        s = poch_product(INT, 20, [(1, 5, 5, 5), (1, 1, 1, -1)])
        assert s.coeff(4) == 5

    def test_multiplication_against_naive(self):
        a = partition_count_series(30)
        b = poch_product(INT, 30, [(-1, 1, 2, 1)])
        assert (a * b).coeffs == naive_product(a.coeffs, b.coeffs, 30)

    def test_order_truncation(self):
        a = partition_count_series(30)
        b = partition_count_series(12)
        assert (a * b).order == 12
        assert (a + b).order == 12


class TestTheta:
    def test_z_one_specialization(self):
        s = theta_jtp(INT, 12)
        assert [s.coeff(k) for k in (0, 1, 4, 9)] == [1, 2, 2, 2]
        assert s.coeff(2) == 0

    def test_triple_product_identity(self):
        order = 60
        ring = LaurentRing(("z",))
        z = ring.monomial(z=1)
        zi = ring.monomial(z=-1)
        lhs = theta_jtp(ring, order, z, zi)
        rhs = poch_product(
            ring, order,
            [(ring.one, 2, 2, 1), (-z, 1, 2, 1), (-zi, 1, 2, 1)],
        )
        assert lhs.first_difference(rhs) is None

    def test_triangular_sum_identity(self):
        order = 100
        lhs = poch_product(INT, order, [(1, 4, 4, 1), (-1, 1, 2, 1)])
        assert lhs.first_difference(triangular_theta(INT, order)) is None

    def test_cyclotomic_triple_product(self):
        # triple product at z = xi^2, base q^2, against the divided theta form
        order = 60
        lhs = poch_product(
            CYC5, order,
            [(CYC5.xi(2), 2, 2, 1), (CYC5.xi(3), 2, 2, 1), (CYC5.one, 2, 2, 1)],
        )
        rhs = Series(CYC5, order)
        m = 0
        while m * (m + 1) < order:
            term = CYC5.xi(-2 * m) * CYC5.geometric_xi2(m)
            if m % 2:
                term = -term
            rhs.coeffs[m * (m + 1)] = rhs.coeffs[m * (m + 1)] + term
            m += 1
        assert lhs.first_difference(rhs) is None


class TestSift:
    def test_monomial(self):
        s = Series(INT, 10)
        s.coeffs[7] = 3
        sifted = s.sift(5, 2)
        assert sifted.coeffs == [0, 3]

    def test_ramanujan_residues(self):
        s = partition_count_series(210)
        sifted = s.sift(5, 4)
        assert all(c % 5 == 0 for c in sifted.coeffs[:40])

    def test_closed_product(self):
        order = 30
        lhs = partition_count_series(5 * order + 5).sift(5, 4)
        rhs = poch_product(INT, order, [(1, 5, 5, 5), (1, 1, 1, -6)]).scaled(5)
        assert lhs.first_difference(rhs, order) is None

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            partition_count_series(10).sift(5, 5)


def pass_fold(ring, order: int, factors) -> Series:
    """poch_product as one Series.mul_one_minus / div_one_minus per pass."""
    s = Series.one(ring, order)
    for elem, q_power, step, exponent in factors:
        for d in range(q_power, order, step):
            for _ in range(abs(exponent)):
                s = s.mul_one_minus(elem, d) if exponent > 0 else s.div_one_minus(elem, d)
    return s


MONOMIALS = {
    **RINGS,
    "x": (X, st.builds(lambda c, e: X.monomial(c, x=e), COEFFS, POWERS)),
    "xy": (XY, st.builds(lambda c, e, f: XY.monomial(c, x=e, y=f), COEFFS, POWERS, POWERS)),
    # w-only monomials have finite order, the others infinite
    "xw": (XW, st.builds(lambda c, e, f: XW.monomial(c, x=e, w=f), COEFFS, POWERS, POWERS)
           | st.builds(lambda c, f: XW.monomial(c, w=f), COEFFS, POWERS)),
}


class TestPlanes:
    @given(data=st.data(), ring_name=st.sampled_from(sorted(MONOMIALS)),
           order=st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_planes_equal_the_pass_fold(self, data, ring_name, order):
        ring, elems = MONOMIALS[ring_name]
        factors = data.draw(factor_lists(elems | st.sampled_from([1, -1]), order))
        assert poch_product(ring, order, factors).coeffs == pass_fold(ring, order, factors).coeffs

    @pytest.mark.parametrize("g", [3, -3])
    def test_chains_with_gaps(self, g):
        # 1 - x^6 q leaves the planes {0, 6}; dividing by x^(+-3) powers then
        # walks the chain 0, 3, 6 (or 6, 3, 0) across the missing plane 3
        order = 30
        factors = [(X.monomial(x=6), 1, order, 1), (X.monomial(2, x=g), 1, 1, -2)]
        assert poch_product(X, order, factors).coeffs == pass_fold(X, order, factors).coeffs


class TestErrors:
    BAD = [((1, 0, -1), "step must be positive"),
           ((0, 1, -1), "non-invertible leading factor"),
           ((-1, 1, 1), "negative q-power in factor")]

    @pytest.mark.parametrize("route", ["planes", "elements"])
    @pytest.mark.parametrize("bad, message", BAD)
    def test_factors_are_checked_before_the_first_pass(self, monkeypatch, route, bad, message):
        # a monomial list fails on its bad factor; a non-monomial elem (which
        # the planes cannot hold) fails on the first factor, by name
        elem = Y4.monomial(y=1) if route == "planes" else 2 + Y4.monomial(y=1)
        if route == "elements":
            message = r"^factor elem 2 \+ 1\*y\^1 is not a monomial of laurent\(y\)$"

        def trap(*args):
            raise AssertionError("a pass ran before every factor was checked")

        monkeypatch.setattr(qseries, "_plane_pass", trap)
        with pytest.raises(ValueError, match=message):
            poch_product(Y4, 10, [(elem, 1, 1, 1), (elem, *bad)])

    def test_single_pass_names_the_q_power(self):
        with pytest.raises(ValueError, match="negative q-power in factor"):
            Series.one(INT, 5).mul_one_minus(1, -1)

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("elem", [1, 2 + Y4.monomial(y=1)])
    def test_order_must_be_positive(self, order, elem):
        with pytest.raises(ValueError, match="order must be positive"):
            poch_product(Y4, order, [(elem, 1, 1, 1)])
