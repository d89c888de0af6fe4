"""Coefficient rings: exactness, reduction rules, zero tests.

The element arithmetic uses closed formulas (Cyclotomic5) and a monomial
shift (Laurent); the lift-and-convolve product and the generic double-loop
product below are their reference routes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab.rings import CYC5, INT, Cyclotomic5, LaurentRing

XY = LaurentRing(("x", "y"))
XW = LaurentRing(("x", "w"), cyclic={"w": 4})


def lift(a: Cyclotomic5) -> list[int]:
    return list(a.coords) + [0]


def convolve_cyc5(a: Cyclotomic5, b: Cyclotomic5) -> Cyclotomic5:
    """Reference product: lift both to five coordinates, convolve cyclically,
    reduce by the xi^4 coordinate."""
    out = [0] * 5
    for i, ai in enumerate(lift(a)):
        for j, bj in enumerate(lift(b)):
            out[(i + j) % 5] += ai * bj
    return Cyclotomic5.from_five(out)


def double_loop_laurent(a, b):
    """Reference product: every pair of terms, exponents added and normalized."""
    ring = a.ring
    total = ring.zero
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = ring._norm_exp(tuple(x + y for x, y in zip(e1, e2)))
            total = total + ring.monomial(c1 * c2, **dict(zip(ring.names, exps)))
    return total


def laurent_elems(ring):
    exps = st.integers(min_value=-3, max_value=3)
    term = st.tuples(st.tuples(*([exps] * len(ring.names))),
                     st.integers(min_value=-5, max_value=5))
    return st.lists(term, max_size=4).map(
        lambda terms: sum(
            (ring.monomial(c, **dict(zip(ring.names, e))) for e, c in terms),
            ring.zero,
        )
    )


cyc_elems = st.tuples(*([st.integers(min_value=-6, max_value=6)] * 4)).map(Cyclotomic5)


def monomials(ring):
    # a single term on either side takes the monomial-shift route
    exps = st.integers(min_value=-5, max_value=5)
    return st.builds(lambda c, e: ring.monomial(c, **dict(zip(ring.names, e))),
                     st.integers(min_value=-5, max_value=5),
                     st.tuples(*([exps] * len(ring.names))))


class TestLaurent:
    def test_basic_arithmetic(self):
        x = XY.monomial(x=1)
        y = XY.monomial(y=1)
        assert (x + y) * (x - y) == x * x - y * y
        assert x * XY.monomial(x=-1) == XY.one
        assert XY.from_int(0) == XY.zero

    def test_unit_inverse(self):
        # a unit monomial's inverse negates its exponents
        m = XY.monomial(-1, x=2, y=-1)
        assert m * XY.monomial(-1, x=-2, y=1) == XY.one

    def test_cyclic_exponents(self):
        ring = LaurentRing(("y",), cyclic={"y": 4})
        y = ring.monomial(y=1)
        assert y * y * y * y == ring.one
        assert ring.monomial(y=5) == y
        assert ring.monomial(y=-1) == ring.monomial(y=3)

    def test_int_comparison(self):
        assert XY.from_int(3) == 3
        assert XY.zero == 0

    @given(a=laurent_elems(XY), b=laurent_elems(XY), c=laurent_elems(XY))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + XY.zero == a
        assert a * XY.one == a

    @given(data=st.data(), ring=st.sampled_from([XY, XW]))
    @settings(max_examples=100, deadline=None)
    def test_product_against_double_loop(self, data, ring):
        elems = laurent_elems(ring) | monomials(ring)
        a = data.draw(elems)
        b = data.draw(elems | st.integers(min_value=-3, max_value=3).map(ring.from_int))
        assert (a * b).terms == double_loop_laurent(a, b).terms
        assert (b * a).terms == double_loop_laurent(a, b).terms
        assert (a * 3).terms == double_loop_laurent(a, ring.from_int(3)).terms

    @given(a=laurent_elems(XW), b=laurent_elems(XW))
    @settings(max_examples=60, deadline=None)
    def test_difference_is_sum_with_negation(self, a, b):
        assert (a - b).terms == (a + (-b)).terms
        assert (a - a).terms == {}
        assert (a - 2).terms == (a + XW.from_int(-2)).terms

    def test_hash_agrees_with_int_equality(self):
        for ring in (XY, XW):
            assert ring.one == 1 and len({ring.one, 1}) == 1
            assert ring.zero == 0 and len({ring.zero, 0}) == 1
            assert hash(ring.from_int(-7)) == hash(-7)

    @given(a=laurent_elems(XY))
    @settings(max_examples=60, deadline=None)
    def test_equal_elements_hash_alike(self, a):
        copy = XY.zero + a
        assert hash(copy) == hash(a)
        for k in range(-5, 6):
            if a == k:
                assert hash(a) == hash(k)


class TestCyclotomic5:
    def test_power_sum_vanishes(self):
        total = sum((CYC5.xi(k) for k in range(5)), CYC5.zero)
        assert total == CYC5.zero

    def test_xi_has_order_five(self):
        x = CYC5.xi(1)
        p = CYC5.one
        for _ in range(5):
            p = p * x
        assert p == CYC5.one

    def test_zero_means_all_coordinates_equal(self):
        assert Cyclotomic5.from_five((7, 7, 7, 7, 7)) == CYC5.zero
        assert Cyclotomic5.from_five((7, 7, 7, 7, 6)) != CYC5.zero

    def test_geometric_quotient(self):
        # (1 - xi^(4m+2)) equals (1 - xi^2) times the stored quotient
        for m in range(8):
            lhs = CYC5.one - CYC5.xi(4 * m + 2)
            rhs = (CYC5.one - CYC5.xi(2)) * CYC5.geometric_xi2(m)
            assert lhs == rhs

    @given(a=cyc_elems, b=cyc_elems, c=cyc_elems)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * CYC5.one == a

    @given(a=cyc_elems, b=cyc_elems)
    @settings(max_examples=100, deadline=None)
    def test_formulas_against_lifted_arithmetic(self, a, b):
        assert (a * b).coords == convolve_cyc5(a, b).coords
        lifted_sum = [x + y for x, y in zip(lift(a), lift(b))]
        lifted_diff = [x - y for x, y in zip(lift(a), lift(b))]
        assert (a + b).coords == Cyclotomic5.from_five(lifted_sum).coords
        assert (a - b).coords == Cyclotomic5.from_five(lifted_diff).coords
        assert (-a).coords == Cyclotomic5.from_five([-x for x in lift(a)]).coords
        assert (a * 3).coords == (3 * a).coords == convolve_cyc5(a, CYC5.from_int(3)).coords
        assert (2 - a).coords == (CYC5.from_int(2) - a).coords

    def test_public_constructor_validates(self):
        with pytest.raises(ValueError):
            Cyclotomic5((1, 2, 3))
        with pytest.raises(ValueError):
            Cyclotomic5((1, 2, 3, 4, 5))

    def test_hash_agrees_with_int_equality(self):
        assert CYC5.one == 1 and len({CYC5.one, 1}) == 1
        assert CYC5.zero == 0 and len({CYC5.zero, 0}) == 1
        assert hash(CYC5.from_int(-9)) == hash(-9)
        assert hash(Cyclotomic5.from_five((3, 1, 1, 1, 1))) == hash(2)

    @given(a=cyc_elems)
    @settings(max_examples=60, deadline=None)
    def test_equal_elements_hash_alike(self, a):
        for k in range(-6, 7):
            if a == k:
                assert hash(a) == hash(k)
        assert hash(a) == hash(Cyclotomic5(a.coords))


def test_integer_ring_protocol():
    assert INT.zero == 0
    assert INT.one == 1
    assert INT.from_int(-7) == -7


class TestSplitMonomial:
    def test_monomials_split_into_key_and_coefficient(self):
        assert INT.split_monomial(-3) == ((), -3)
        assert XW.split_monomial(XW.monomial(-2, x=-1, w=5)) == ((-1, 1), -2)
        assert XW.split_monomial(1) == ((0, 0), 1)
        assert XY.split_monomial(XY.zero) == ((0, 0), 0)
        assert [CYC5.split_monomial(-CYC5.xi(k)) for k in range(5)] == [
            ((k,), -1) for k in range(5)]
        assert CYC5.split_monomial(CYC5.zero) == ((0,), 0)

    def test_other_elements_do_not_split(self):
        assert XY.split_monomial(XY.monomial(x=1) + XY.one) is None
        assert XY.split_monomial(XW.monomial(x=1)) is None
        assert CYC5.split_monomial(CYC5.xi(1) + CYC5.xi(2)) is None
        assert CYC5.split_monomial(Cyclotomic5((1, 1, 1, 2))) is None

    def test_planes_assemble_to_ring_coefficients(self):
        # at q^2 all five planes are equal, which is 0 in Z[xi]
        planes = {(k,): [0, 0, 2] for k in range(1, 4)} | {(0,): [1, 0, 2], (4,): [0, 3, 2]}
        assert CYC5.from_planes(planes, 3) == [CYC5.one, 3 * CYC5.xi(4), CYC5.zero]
        assert XY.from_planes({(1, -1): [0, 2]}, 2) == [XY.zero, XY.monomial(2, x=1, y=-1)]
        assert XY.from_planes({}, 2) == [XY.zero] * 2
        assert INT.from_planes({}, 2) == [0, 0]
