"""Exact coefficient rings for truncated series arithmetic.

Three flavours cover every identity checked by this package:

* plain arbitrary-precision integers (``INT``),
* sparse Laurent polynomials in named variables, optionally with cyclic
  exponents (a variable y with modulus 4 satisfies y**4 == 1),
* the cyclotomic integers of order 5, Z[xi]/(1 + xi + ... + xi^4), whose
  zero test is "all five coordinates equal after lifting".

Ring objects expose ``zero``, ``one`` and ``from_int``; elements implement
ordinary operator arithmetic and compare equal to plain integers where that
makes sense, and then hash like them.

Each ring is also a quotient of a group ring Z[G], G a product of cyclic and
free abelian factors, with ``mods`` naming each factor's order (None when
free).  ``split_monomial`` writes an element as c*g (a key for g, an int c),
or gives None when it is not a monomial; ``from_planes`` maps a series held
as one integer list per key of G ("planes") back to ring coefficients.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping, Sequence


class IntegerRing:
    name = "integer"
    zero = 0
    one = 1
    mods = ()

    @staticmethod
    def from_int(k: int) -> int:
        return k

    @staticmethod
    def split_monomial(elem: int) -> tuple[tuple[()], int]:
        return (), elem

    @staticmethod
    def from_planes(planes: dict, order: int) -> list[int]:
        return planes.get((), [0] * order)


INT = IntegerRing()


class Laurent:
    """Sparse Laurent polynomial over the integers."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "LaurentRing", terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, Laurent):
            if other.ring is not self.ring:
                raise ValueError("mixed Laurent rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return Laurent(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) - c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return Laurent(self.ring, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        ring = self.ring
        norm = ring._norm_exp
        if len(b) == 1:
            # times a monomial: shift every exponent (a bijection on the
            # normalized exponents, so no two terms collide)
            (e2, c2), = b.items()
            return Laurent(ring, {norm(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()})
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = norm(map(add, e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Laurent(ring, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        # an element equal to an int hashes like that int
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1:
            (exps, coeff), = terms.items()
            if not any(exps):
                return hash(coeff)
        return hash((self.ring.names, tuple(sorted(terms.items()))))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{n}^{e}" for n, e in zip(self.ring.names, exps) if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class LaurentRing:
    def __init__(self, names: Sequence[str], cyclic: Mapping[str, int] | None = None):
        self.names = tuple(names)
        cyclic = dict(cyclic or {})
        self.mods = tuple(cyclic.get(n) for n in self.names)
        # exponent tuples are reduced only in rings with a cyclic variable
        self._norm_exp = self._reduce_exp if any(self.mods) else tuple
        self.name = "laurent(" + ",".join(self.names) + ")"
        self.zero = Laurent(self, {})
        self.one = Laurent(self, {(0,) * len(self.names): 1})

    def _reduce_exp(self, exps: Iterable[int]) -> tuple[int, ...]:
        return tuple(
            e % m if m else e for e, m in zip(exps, self.mods)
        )

    def from_int(self, k: int) -> Laurent:
        if k == 0:
            return self.zero
        return Laurent(self, {(0,) * len(self.names): k})

    def monomial(self, coeff: int = 1, **exps: int) -> Laurent:
        if coeff == 0:
            return self.zero
        unknown = set(exps) - set(self.names)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        e = self._norm_exp(tuple(exps.get(n, 0) for n in self.names))
        return Laurent(self, {e: coeff})

    def split_monomial(self, elem) -> tuple[tuple[int, ...], int] | None:
        if isinstance(elem, int):
            return (0,) * len(self.names), elem
        if elem.ring is not self or len(elem.terms) > 1:
            return None
        return next(iter(elem.terms.items()), ((0,) * len(self.names), 0))

    def from_planes(self, planes: dict, order: int) -> list[Laurent]:
        if not planes:
            return [self.zero] * order
        keys = list(planes)
        return [Laurent(self, {k: c for k, c in zip(keys, column) if c})
                for column in zip(*planes.values())]


class Cyclotomic5:
    """Element of Z[xi] with 1 + xi + xi^2 + xi^3 + xi^4 == 0.

    Stored on the basis 1, xi, xi^2, xi^3.  A combination of all five powers
    is zero exactly when its five coordinates are equal, which the reduction
    turns into "all four stored coordinates are zero".
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[int]):
        self.coords = tuple(coords)
        if len(self.coords) != 4:
            raise ValueError("expected 4 reduced coordinates")

    @classmethod
    def from_five(cls, v: Sequence[int]) -> "Cyclotomic5":
        w = v[4]
        return _cyc5(v[0] - w, v[1] - w, v[2] - w, v[3] - w)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Cyclotomic5):
            return other
        if isinstance(other, int):
            return _cyc5(other, 0, 0, 0)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Cyclotomic5:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return _cyc5(a0 + b0, a1 + b1, a2 + b2, a3 + b3)

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.coords
        return _cyc5(-a0, -a1, -a2, -a3)

    def __sub__(self, other):
        if type(other) is not Cyclotomic5:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return _cyc5(a0 - b0, a1 - b1, a2 - b2, a3 - b3)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Cyclotomic5:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # the cyclic convolution of (a0..a3, 0) and (b0..b3, 0), reduced by
        # its xi^4 coordinate w
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        w = a1 * b3 + a2 * b2 + a3 * b1
        return _cyc5(
            a0 * b0 + a2 * b3 + a3 * b2 - w,
            a0 * b1 + a1 * b0 + a3 * b3 - w,
            a0 * b2 + a1 * b1 + a2 * b0 - w,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - w,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __bool__(self):
        return any(self.coords)

    def __hash__(self):
        # an element equal to an int hashes like that int
        a0, a1, a2, a3 = self.coords
        if not (a1 or a2 or a3):
            return hash(a0)
        return hash(self.coords)

    def __repr__(self):
        if not self:
            return "0"
        bits = []
        for k, c in enumerate(self.coords):
            if c:
                bits.append(f"{c}" + (f"*xi^{k}" if k else ""))
        return " + ".join(bits)


def _cyc5(a0: int, a1: int, a2: int, a3: int) -> Cyclotomic5:
    """Trusted constructor for internal results: four ints, no validation."""
    elem = object.__new__(Cyclotomic5)
    elem.coords = (a0, a1, a2, a3)
    return elem


class Cyclotomic5Ring:
    """Z[xi] as the image of Z[C5], xi^k the image of k mod 5."""

    name = "cyclotomic5"
    zero = Cyclotomic5((0, 0, 0, 0))
    one = Cyclotomic5((1, 0, 0, 0))
    mods = (5,)

    @staticmethod
    def from_int(k: int) -> Cyclotomic5:
        return Cyclotomic5((k, 0, 0, 0))

    @staticmethod
    def split_monomial(elem) -> tuple[tuple[int], int] | None:
        if isinstance(elem, int):
            return (0,), elem
        coords = elem.coords
        # c*xi^4 is stored as (-c, -c, -c, -c)
        if coords[0] and coords.count(coords[0]) == 4:
            return (4,), -coords[0]
        nonzero = [k for k, c in enumerate(coords) if c]
        if len(nonzero) > 1:
            return None
        return ((nonzero[0],), coords[nonzero[0]]) if nonzero else ((0,), 0)

    @staticmethod
    def from_planes(planes: dict, order: int) -> list[Cyclotomic5]:
        # Z[C5] -> Z[xi] is a ring map, so projecting the planes is exact
        zeros = [0] * order
        v = [planes.get((k,), zeros) for k in range(5)]
        return [_cyc5(a - w, b - w, c - w, d - w) for a, b, c, d, w in zip(*v)]

    @staticmethod
    def xi(k: int = 1) -> Cyclotomic5:
        v = [0] * 5
        v[k % 5] = 1
        return Cyclotomic5.from_five(v)

    @staticmethod
    def geometric_xi2(m: int) -> Cyclotomic5:
        """1 + xi^2 + xi^4 + ... + xi^(4m): the exact quotient
        (1 - xi^(4m+2)) / (1 - xi^2)."""
        v = [0] * 5
        for j in range(2 * m + 1):
            v[(2 * j) % 5] += 1
        return Cyclotomic5.from_five(v)


CYC5 = Cyclotomic5Ring()
