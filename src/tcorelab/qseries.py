"""Truncated formal power series in q over a pluggable coefficient ring.

A series carries its truncation order explicitly; arithmetic never looks at
coefficients at or beyond it, and binary operations truncate to the smaller
order.  Infinite products are built factor by factor: each factor
(1 - elem*q**d) is one O(order) pass, so no convolutions are needed for
pochhammer-style series.

`poch_product` builds every product.  Each factor's elem is a monomial
c*g of the ring's group G, so the series is held as "planes", one int list
per element of G, and a pass maps whole lists: multiplying by g only
re-indexes the planes.  The planes are turned into ring coefficients once,
at the end.  `Series.mul_one_minus` / `div_one_minus` run one pass over ring
elements; they stay the single-pass API and the route tests compare the
planes with.
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain, count, islice, repeat, takewhile
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .rings import INT


class Series:
    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs: Sequence | None = None):
        if order < 1:
            raise ValueError("order must be positive")
        self.ring = ring
        self.order = order
        if coeffs is None:
            self.coeffs = [ring.zero] * order
        else:
            coeffs = list(coeffs)
            if len(coeffs) < order:
                coeffs.extend([ring.zero] * (order - len(coeffs)))
            del coeffs[order:]
            self.coeffs = coeffs

    @classmethod
    def one(cls, ring, order: int) -> "Series":
        s = cls(ring, order)
        s.coeffs[0] = ring.one
        return s

    @classmethod
    def from_terms(cls, ring, order: int, terms: Iterable[tuple[int, object]]) -> "Series":
        """Accumulate (q-power, coefficient) pairs; powers >= order are dropped."""
        s = cls(ring, order)
        for n, elem in terms:
            if 0 <= n < order:
                s.coeffs[n] = s.coeffs[n] + elem
        return s

    def coeff(self, n: int):
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other: "Series") -> "Series":
        order = min(self.order, other.order)
        return Series(
            self.ring, order,
            [a + b for a, b in zip(self.coeffs[:order], other.coeffs[:order])],
        )

    def __sub__(self, other: "Series") -> "Series":
        order = min(self.order, other.order)
        return Series(
            self.ring, order,
            [a - b for a, b in zip(self.coeffs[:order], other.coeffs[:order])],
        )

    def __neg__(self) -> "Series":
        return Series(self.ring, self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        ring = self.ring
        order = min(self.order, other.order)
        zero = ring.zero
        a = self.coeffs
        b = other.coeffs
        out = [zero] * order
        for i in range(order):
            ai = a[i]
            if ai == zero:
                continue
            for j in range(order - i):
                bj = b[j]
                if bj == zero:
                    continue
                out[i + j] = out[i + j] + ai * bj
        return Series(ring, order, out)

    def scaled(self, elem) -> "Series":
        return Series(self.ring, self.order, [elem * c for c in self.coeffs])

    def times_q(self, k: int) -> "Series":
        """Multiply by q**k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError("negative q-shift")
        return Series(self.ring, self.order, [self.ring.zero] * k + self.coeffs)

    def mul_one_minus(self, elem, d: int) -> "Series":
        """Multiply by (1 - elem * q**d)."""
        if d < 0:
            raise ValueError("negative q-power in factor")
        s = Series(self.ring, self.order, self.coeffs)
        _mul_pass(s.coeffs, elem, d)
        return s

    def div_one_minus(self, elem, d: int) -> "Series":
        """Divide by (1 - elem * q**d), d >= 1."""
        if d < 1:
            raise ValueError("division needs a positive q-power")
        s = Series(self.ring, self.order, self.coeffs)
        _div_pass(s.coeffs, elem, d)
        return s

    def inverse(self) -> "Series":
        ring = self.ring
        if self.coeffs[0] != ring.one:
            raise ValueError("inversion needs constant term 1")
        zero = ring.zero
        a = self.coeffs
        out = [zero] * self.order
        out[0] = ring.one
        for n in range(1, self.order):
            acc = zero
            for k in range(1, n + 1):
                ak = a[k]
                if ak == zero:
                    continue
                acc = acc + ak * out[n - k]
            out[n] = -acc
        return Series(ring, self.order, out)

    def sift(self, m: int, r: int) -> "Series":
        """Keep coefficients of q**(m*n + r), reindexed by n."""
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
        picked = self.coeffs[r :: m]
        if not picked:
            raise ValueError("sift leaves no coefficients below the order")
        return Series(self.ring, len(picked), picked)

    def first_difference(self, other: "Series", n: int | None = None) -> int | None:
        """Lowest q-power below n (default: both truncations) where the
        coefficients differ, or None when they agree."""
        limit = min(self.order, other.order)
        if n is not None:
            if n > limit:
                raise ValueError(f"comparison order {n} beyond truncation {limit}")
            limit = n
        return next((k for k in range(limit) if self.coeffs[k] != other.coeffs[k]), None)

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series[{self.ring.name}, O(q^{self.order})]({shown}{tail})"


def _mul_pass(c: list, elem, d: int) -> None:
    """c *= (1 - elem * q**d) in place, d >= 0."""
    if elem == 1:
        step = operator.sub
    elif elem == -1:
        step = operator.add
    else:
        def step(x, y):
            return x - elem * y
    # the right side reads c before the slice assignment writes it
    c[d:] = list(map(step, c[d:], c))


def _div_pass(c: list, elem, d: int) -> None:
    """c /= (1 - elem * q**d) in place, d >= 1: c[n] += elem * c[n - d]."""
    order = len(c)
    if elem == 1:
        step = operator.add
    elif elem == -1:
        def step(prev, x):
            return x - prev
    else:
        def step(prev, x):
            return x + elem * prev
    if d * d < order:
        # few long residue classes mod d: a running sum along each
        for r in range(d):
            c[r::d] = list(accumulate(c[r::d], step))
    else:
        # few short blocks: each length-d block adds the finished one before it
        for k in range(d, order, d):
            c[k : k + d] = list(map(step, c[k - d : k], c[k : k + d]))


def _add_shifted(target: list, source: list, a: int, s: int) -> None:
    """target += a * q**s * source in place, on int lists of one length."""
    if a == 1:
        step = operator.add
    elif a == -1:
        step = operator.sub
    else:
        def step(x, y):
            return x + a * y
    # map stops at the shorter list, so source is read below order - s only
    target[s:] = list(map(step, target[s:], source))


def _plane_pass(planes: dict, order: int, mods: tuple, g: tuple, c: int, d: int,
                divide: bool) -> None:
    """planes *= (1 - c*g*q**d), or /= when divide, in place.

    Keys are elements of G = Z^free x prod C_m; multiplying by the monomial g
    re-indexes planes, so every step is a map over whole int lists."""
    if any(mods):
        def times_g(k):
            return tuple((a + b) % m if m else a + b for a, b, m in zip(k, g, mods))
    else:
        def times_g(k):
            return tuple(map(operator.add, k, g))

    if not any(g):
        kernel = _div_pass if divide else _mul_pass
        for p in planes.values():
            kernel(p, c, d)
    elif not divide:
        # each new plane P_k - c q^d P_{k-g}, read from copies of the old ones
        for k, old in [(times_g(k), p[: order - d]) for k, p in planes.items()]:
            _add_shifted(planes.get(k) or planes.setdefault(k, [0] * order), old, -c, d)
    elif free := [(i, e) for i, (e, m) in enumerate(zip(g, mods)) if e and not m]:
        # g has infinite order: Q_k = P_k + c q^d Q_{k-g} along each chain
        # k0, k0 + g, ..., walked upward while the shifted plane is nonzero.
        # Chains may have gaps, so starts go in the order of g's free
        # coordinate: every plane below a start is finished before it
        i, e = free[0]
        done = set()
        for k in sorted(planes, key=lambda k: k[i] * e):
            below = planes[k]
            while k not in done and any(islice(below, order - d)):
                done.add(k)
                k = times_g(k)
                if (above := planes.get(k)) is None:
                    above = planes[k] = [0] * order
                _add_shifted(above, below, c, d)
                below = above
    else:
        # g has order L: Q_k = (sum_{j<L} c^j q^(jd) P_{k-jg}) / (1 - c^L q^(Ld))
        L = lcm(*(m // gcd(e, m) for e, m in zip(g, mods) if e))
        sums: dict = {}
        for k, p in planes.items():
            for j in range(min(L, (order - 1) // d + 1)):
                _add_shifted(sums.get(k) or sums.setdefault(k, [0] * order), p, c ** j, j * d)
                k = times_g(k)
        for p in sums.values():
            _div_pass(p, c ** L, L * d)
        planes.clear()
        planes.update(sums)
    for k in [k for k, p in planes.items() if not any(p)]:
        del planes[k]


def poch_product(ring, order: int, factors: Iterable[tuple[object, int, int, int]]) -> Series:
    """Product of pochhammer symbols given as (elem, q_power, step, exponent).

    Each factor is (a; q**step)_infinity ** exponent truncated, with
    a = elem * q**q_power.  Negative exponents need q_power >= 1 so every
    factor is invertible.  Each (1 - a*q**(k*step)) is one pass.
    An elem equal to 1 or -1 is written as the int in every ring.

    Every elem must be a monomial c*g of the ring's group (``split_monomial``);
    the product is built on planes, one int list per group element, and
    assembled once at the end.  Any other elem is a ValueError, raised with
    the other factor checks before the first pass.
    """
    s = Series.one(ring, order)
    monomials = []
    for elem, q_power, step, exponent in factors:
        if step < 1:
            raise ValueError("step must be positive")
        if exponent < 0 and q_power < 1:
            raise ValueError("non-invertible leading factor")
        if exponent > 0 and q_power < 0:
            raise ValueError("negative q-power in factor")
        if (monomial := ring.split_monomial(elem)) is None:
            raise ValueError(f"factor elem {elem!r} is not a monomial of {ring.name}")
        monomials.append((*monomial, q_power, step, exponent))
    planes = {(0,) * len(ring.mods): [1] + [0] * (order - 1)}
    for g, c, q_power, step, exponent in monomials:
        for d in range(q_power, order, step):
            for _ in range(abs(exponent)):
                _plane_pass(planes, order, ring.mods, g, c, d, exponent < 0)
    s.coeffs = ring.from_planes(planes, order)
    return s


def partition_count_series(order: int) -> Series:
    """1/(q;q)_infinity: the generating function of p(n)."""
    return poch_product(INT, order, [(1, 1, 1, -1)])


def t_core_series(t: int, order: int) -> Series:
    """(q^t;q^t)^t / (q;q): the generating function of the t-cores."""
    return poch_product(INT, order, [(1, t, t, t), (1, 1, 1, -1)])


def crank_factors(x, x_inv) -> list[tuple[object, int, int, int]]:
    """(q;q) / ((xq;q)(q/x;q)), the crank generating function, as factors."""
    return [(1, 1, 1, 1), (x, 1, 1, -1), (x_inv, 1, 1, -1)]


# (q^4;q^4)(-q;q^2), the product of the sum of q^(k(k+1)/2) and the head of
# the (St-crank, srank) product; plain int elements serve every ring
TRIANGULAR_FACTORS = ((1, 4, 4, 1), (-1, 1, 2, 1))


def rambest_series(order: int) -> Series:
    """5 (q^5;q^5)^5 / (q;q)^6, Ramanujan's sum of p(5n+4) q^n."""
    return poch_product(INT, order, [(1, 5, 5, 5), (1, 1, 1, -6)]).scaled(5)


def p02prod_series(order: int) -> Series:
    """(-q;q^2) / ((q^4;q^4)(-q^2;q^4)^2), the sum of (p0(n) - p2(n)) q^n."""
    return poch_product(INT, order, [(-1, 1, 2, 1), (1, 4, 4, -1), (-1, 2, 4, -2)])


def theta_jtp(ring, order: int, z=None, z_inv=None) -> Series:
    """Two-sided theta sum over n of z**n * q**(n*n).

    z defaults to 1; pass an invertible ring element together with its
    inverse for the general form.
    """
    if z is None:
        z = ring.one
        z_inv = ring.one
    if z_inv is None:
        raise ValueError("z_inv is required when z is given")
    squares = takewhile(order.__gt__, (n * n for n in count(1)))
    # z**n + z**-n for n = 1, 2, ...
    pairs = map(operator.add, accumulate(repeat(z), operator.mul),
                accumulate(repeat(z_inv), operator.mul))
    return Series.from_terms(ring, order, chain([(0, ring.one)], zip(squares, pairs)))


def triangular_theta(ring, order: int) -> Series:
    """Sum of q**(k*(k+1)/2) over k >= 0."""
    triangulars = takewhile(order.__gt__, (k * (k + 1) // 2 for k in count()))
    return Series.from_terms(ring, order, zip(triangulars, repeat(ring.one)))


def hexagonal_theta_sum(ring, order: int, term) -> Series:
    """Sum of term(n, m) over the shifted hexagonal quadratic form.

    Places term(n, m) at q**(n*n + n*m + m*m + n + m) for all integers n, m:
    the form on the lattice translated by (1/3, 1/3), up to the constant 1/3.
    """
    bound = isqrt(2 * order) + 3
    span = range(-bound, bound + 1)
    forms = ((n * n + n * m + m * m + n + m, n, m) for n in span for m in span)
    return Series.from_terms(ring, order, (
        (e, term(n, m)) for e, n, m in forms if 0 <= e < order))
