"""Check registry: every counting identity, congruence and closed form the
package implements, bound to an executable verification.

Each check is deterministic and idempotent; reports serialize stably.  Where
an identity admits several computation routes (enumeration, n-vector sums,
series coefficients) the check runs them all and any disagreement is a hard
failure carrying a witness.  CHK-AB5JR is a counterexample search: the suite
treats "counterexample-found" as the expected (passing) outcome, because the
claimed congruence family genuinely fails.
"""

from __future__ import annotations

import operator
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from math import isqrt
from typing import Callable, NoReturn

from . import cores, stats
from .cores import (
    CoreQuotient,
    _partition_from_colors,
    alpha_from_n,
    core_vector_counts,
    core_weight_from_vector,
    five_core_beads,
    iter_core_vectors,
    phi1,
    phi1_inv,
    phi2,
    phi2_inv,
    q3,
)
from .orbits import orbit_step, quadruple_shift_vector, theta_vector
from .partitions import (
    Partition,
    add_cell,
    is_t_core,
    residue_counts,
    rim_hook_removals,
)
from .qseries import (
    TRIANGULAR_FACTORS,
    Series,
    crank_factors,
    hexagonal_theta_sum,
    p02prod_series,
    partition_count_series,
    poch_product,
    rambest_series,
    t_core_series,
    theta_jtp,
    triangular_theta,
)
from .rings import CYC5, INT, LaurentRing
from .tables import core_tally, table2_json, weight_table

# ---------------------------------------------------------------------------
# reports and registry plumbing


@dataclass
class CheckReport:
    check_id: str
    params: dict
    # "pass" | "fail" | "counterexample-found" | "error" (the check raised
    # ValueError, e.g. an enumeration past TCORELAB_MAX_N; the message is
    # the witness)
    status: str
    witness: dict | None = None
    elapsed: float = field(default=0.0, compare=False)

    def ok(self) -> bool:
        if self.check_id in EXPECTED_COUNTEREXAMPLE:
            return self.status == "counterexample-found"
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "params": dict(sorted(self.params.items())),
            "status": self.status,
            "witness": self.witness,
        }


@dataclass
class CheckDef:
    func: Callable[[dict], tuple[str, dict | None]]
    defaults: dict
    summary: str


REGISTRY: dict[str, CheckDef] = {}
EXPECTED_COUNTEREXAMPLE = {"CHK-AB5JR"}


class Mismatch(Exception):
    """A check found its identity false; `witness` says where."""

    def __init__(self, witness: dict):
        super().__init__(witness)
        self.witness = witness


def fail(witness: dict) -> NoReturn:
    raise Mismatch(witness)


def expect_same(lhs: Series, rhs: Series, n: int | None = None, **where) -> None:
    """Fail at the lowest q-power below n (default: both truncations) where
    the two series differ."""
    if (k := lhs.first_difference(rhs, n)) is not None:
        fail({**where, "q_power": k})


def register(check_id: str, summary: str, **defaults):
    """Add a check body to the registry.  The body passes by returning None
    and reports a mismatch by raising it (`fail`); a counterexample search
    returns the witness it found.  The registered function returns the
    (status, witness) pair."""
    def wrap(body):
        def func(params: dict) -> tuple[str, dict | None]:
            try:
                found = body(params)
            except Mismatch as exc:
                return "fail", exc.witness
            return ("pass", None) if found is None else ("counterexample-found", found)

        REGISTRY[check_id] = CheckDef(func, defaults, summary)
        return body

    return wrap


def check_params(check_id: str, **overrides) -> dict:
    """The parameters a check runs with: its defaults, with the overrides
    that are not None.  An unknown id or parameter, or a negative value,
    raises ValueError."""
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    definition = REGISTRY[check_id]
    params = dict(definition.defaults)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise ValueError(f"check {check_id} takes no parameter {key!r}")
        params[key] = value
    # every bound is a weight, order or count: a negative one, or t bounds
    # the wrong way round, would make the check's ranges empty and pass it
    # vacuously
    for key, value in params.items():
        if value < 0:
            raise ValueError(f"check {check_id} needs {key} >= 0, got {value}")
    if params.get("t_min", 0) > params.get("t_max", 0):
        raise ValueError(f"check {check_id} needs t_min <= t_max, "
                         f"got {params['t_min']} > {params['t_max']}")
    return params


def run_check(check_id: str, **overrides) -> CheckReport:
    """Run one check.  Bad parameters raise ValueError (`check_params`)
    before the check runs; a ValueError raised inside the check becomes an
    "error" report."""
    params = check_params(check_id, **overrides)
    definition = REGISTRY[check_id]
    start = time.perf_counter()
    try:
        status, witness = definition.func(params)
    except ValueError as exc:
        status, witness = "error", {"error": str(exc)}
    return CheckReport(check_id, params, status, witness,
                       elapsed=time.perf_counter() - start)


def run_all(**overrides) -> list[CheckReport]:
    return [run_check(check_id, **overrides.get(check_id, {}))
            for check_id in REGISTRY]


# ---------------------------------------------------------------------------
# tally helpers


def _tally_series(ring, order: int, names: tuple[str, ...], term) -> Series:
    """The series whose q**n coefficient sums term(count, *values) over the
    joint tally of the named columns at weight n."""
    return Series(ring, order, [
        sum((term(c, *values) for values, c in weight_table(n).joint(*names).items()),
            ring.zero)
        for n in range(order)
    ])


def _weights(offset: int, top: int, step: int) -> range:
    """The weights step*k + offset <= top.  A bound below the first would
    leave the check no weight to test, and raises ValueError."""
    weights = range(offset, top + 1, step)
    if not weights:
        form = f" {step}n+{offset}" if step > 1 else " tested"
        raise ValueError(f"bound {top} is below {offset}, the first weight{form}")
    return weights


def _equal_split(counts: dict[int, int], modulus: int, **where) -> None:
    """Fail unless the residues mod `modulus` of the tallied values split
    the total into `modulus` equal shares."""
    total = sum(counts.values())
    if total % modulus:
        fail({**where, "total": total})
    share = total // modulus
    residues = Counter()
    for value, c in counts.items():
        residues[value % modulus] += c
    for k in range(modulus):
        if residues[k] != share:
            fail({**where, "class": k, "count": residues[k], "expected": share})


def _sum_down(tally: Counter, *positions: int) -> Counter:
    """The tally summed down to the key entries at `positions` (a single
    position keys by that entry alone)."""
    out: Counter = Counter()
    pick = operator.itemgetter(*positions)
    for key, c in tally.items():
        out[pick(key)] += c
    return out


def _alpha_form_counts(order: int) -> list[int]:
    """Number of integer 5-tuples with sum 1 and Q(alpha) = k, k < order.

    2Q is the cyclic sum of (a_i - a_{i+1})^2, so every square is below
    2*order: a1..a3 stay within that distance of the coordinate before, and
    a branch ends once its partial sum reaches 2*order.  a0 runs over the box
    |a0| <= isqrt(2*order) + 2, which holds every tuple with Q < order.
    """
    counts = [0] * order
    limit2 = 2 * order
    bound = isqrt(limit2) + 2
    for a0 in range(-bound, bound + 1):
        for a1 in _near(a0, limit2):
            s1 = (a0 - a1) ** 2
            for a2 in _near(a1, limit2 - s1):
                s2 = s1 + (a1 - a2) ** 2
                for a3 in _near(a2, limit2 - s2):
                    a4 = 1 - a0 - a1 - a2 - a3
                    twice_q = s2 + (a2 - a3) ** 2 + (a3 - a4) ** 2 + (a4 - a0) ** 2
                    if twice_q < limit2:
                        counts[twice_q // 2] += 1
    return counts


def _near(a: int, room: int) -> range:
    """The b with (a - b)^2 < room."""
    r = isqrt(room - 1) if room > 0 else -1
    return range(a - r, a + r + 1)


# ---------------------------------------------------------------------------
# Ramanujan congruences and classical cranks


def _progression_check(step: int, offset: int, max_n: int, modulus: int, order: int):
    weights = _weights(offset, max_n, step)
    if weights[-1] >= order:
        raise ValueError(f"max_n {max_n} reaches p({weights[-1]}), past the series order {order}")
    series = partition_count_series(order)
    for n in weights:
        total = weight_table(n).total()
        if total != series.coeff(n):
            fail({"n": n, "enumerated": total, "series": series.coeff(n)})
        if total % modulus:
            fail({"n": n, "count": total, "modulus": modulus})
    for n in range(offset, order, step):
        if series.coeff(n) % modulus:
            fail({"n": n, "series_coefficient": series.coeff(n)})


@register("CHK-RAM5", "p(5n+4) = 0 (mod 5): enumeration and series sift",
          max_n=49, order=200)
def _chk_ram5(params):
    _progression_check(5, 4, params["max_n"], 5, params["order"])


@register("CHK-RAM7", "p(7n+5) = 0 (mod 7): enumeration and series sift",
          max_n=47, order=200)
def _chk_ram7(params):
    _progression_check(7, 5, params["max_n"], 7, params["order"])


@register("CHK-RAM11", "p(11n+6) = 0 (mod 11): enumeration and series sift",
          max_n=50, order=200)
def _chk_ram11(params):
    _progression_check(11, 6, params["max_n"], 11, params["order"])


def _equal_classes(statistic: str, jobs):
    """The statistic mod m splits p(mn + offset) evenly, for each
    (m, offset, top) job and every mn + offset <= top."""
    for modulus, offset, top in jobs:
        for n in _weights(offset, top, modulus):
            _equal_split(Counter(weight_table(n).columns(statistic)[0]), modulus, n=n)


@register("CHK-DYSON", "rank mod 5 / mod 7 splits p(5n+4), p(7n+5) evenly",
          max_n5=49, max_n7=47)
def _chk_dyson(params):
    _equal_classes("dyson-rank", [(5, 4, params["max_n5"]), (7, 5, params["max_n7"])])


@register("CHK-AG", "crank splits all three progressions evenly",
          max_n5=49, max_n7=47, max_n11=50)
def _chk_ag(params):
    jobs = [(5, 4, params["max_n5"]), (7, 5, params["max_n7"]), (11, 6, params["max_n11"])]
    _equal_classes("ag-crank", jobs)


@register("CHK-CRANKGF", "crank generating function with the weight-1 anomaly",
          order=26)
def _chk_crankgf(params):
    order = params["order"]
    ring = LaurentRing(("x",))
    x = ring.monomial(x=1)
    xi = ring.monomial(x=-1)
    lhs = _tally_series(ring, order, ("ag-crank",), lambda c, m: ring.monomial(c, x=m))
    if order > 1:
        lhs.coeffs[1] = x + xi - ring.one
    expect_same(lhs, poch_product(ring, order, crank_factors(x, xi)))


@register("CHK-GREF5", "crank mod 10 refines crank mod 2 on 5n+4", max_n=49)
def _chk_gref5(params):
    for n in _weights(4, params["max_n"], 5):
        # crank = 2k + alpha (mod 10) exactly when crank // 2 = k (mod 5) and
        # crank % 2 = alpha
        halves = Counter(map(divmod, weight_table(n).columns("ag-crank")[0], repeat(2)))
        for alpha in (0, 1):
            _equal_split({k: c for (k, a), c in halves.items() if a == alpha}, 5,
                         n=n, alpha=alpha)


# ---------------------------------------------------------------------------
# srank generating functions


@register("CHK-RSGF", "trivariate odd-parts generating function", order=20)
def _chk_rsgf(params):
    order = params["order"]
    ring = LaurentRing(("z", "y"))
    lhs = _tally_series(ring, order, ("odd-parts", "conjugate-odd-parts"),
                        lambda c, z, y: ring.monomial(c, z=z, y=y))
    rhs = poch_product(
        ring, order,
        [
            (ring.monomial(-1, z=1, y=1), 1, 2, 1),
            (1, 4, 4, -1),
            (ring.monomial(z=2), 2, 4, -1),
            (ring.monomial(y=2), 2, 4, -1),
        ],
    )
    expect_same(lhs, rhs)


@register("CHK-P02PROD", "difference p0(n) - p2(n) has a product form", order=30)
def _chk_p02prod(params):
    order = params["order"]
    lhs = _tally_series(INT, order, ("srank",), lambda c, s: c if s % 4 == 0 else -c)
    rhs = p02prod_series(order)
    if (k := lhs.first_difference(rhs)) is not None:
        fail({"q_power": k, "lhs": lhs.coeffs[k], "rhs": rhs.coeffs[k]})


@register("CHK-ANDREWS", "p0(5n+4), p2(5n+4) = 0 (mod 5); p2 = 0 (mod 10)",
          max_n=49)
def _chk_andrews(params):
    for n in _weights(4, params["max_n"], 5):
        totals = Counter(s % 4 for s in weight_table(n).columns("srank")[0])
        p0, p2 = totals[0], totals[2]
        if p0 % 5 or p2 % 5 or p2 % 10:
            fail({"n": n, "p0": p0, "p2": p2})


@register("CHK-SRANKPROD", "srank generating function on no-repeated-even-parts",
          order=25)
def _chk_srankprod(params):
    order = params["order"]
    ring = LaurentRing(("y",))
    lhs = _tally_series(ring, order, ("srank", "has-repeated-even-part"),
                        lambda c, s, repeated: ring.zero if repeated else ring.monomial(c, y=s))
    rhs = poch_product(
        ring, order,
        [(-1, 1, 2, 1), (ring.monomial(y=2), 2, 4, -1), (ring.monomial(y=-2), 2, 4, -1)],
    )
    expect_same(lhs, rhs)


def _lemma1_product(ring, order, x, x_inv, y2, y2_inv):
    """(q^4;q^4)(-q;q^2) / ((q^4 x, q^4/x, q^2 y^2 x, q^2/(y^2 x); q^4))."""
    return poch_product(
        ring, order,
        [
            *TRIANGULAR_FACTORS,
            (x, 4, 4, -1),
            (x_inv, 4, 4, -1),
            (y2 * x, 2, 4, -1),
            (y2_inv * x_inv, 2, 4, -1),
        ],
    )


@register("CHK-LEMMA1", "bivariate (St-crank, srank) product identity", order=20)
def _chk_lemma1(params):
    order = params["order"]
    ring = LaurentRing(("x", "y"))
    lhs = _tally_series(ring, order, ("st-crank", "srank"),
                        lambda c, m, s: ring.monomial(c, x=m, y=s))
    rhs = _lemma1_product(ring, order, ring.monomial(x=1), ring.monomial(x=-1),
                          ring.monomial(y=2), ring.monomial(y=-2))
    expect_same(lhs, rhs)


def _g_at_xi(order: int, y_squared: int) -> Series:
    """The (St-crank, srank) product at x = xi, y^2 = +-1, over Z[xi]."""
    return _lemma1_product(CYC5, order, CYC5.xi(1), CYC5.xi(4), y_squared, y_squared)


def _xi_theta(order: int) -> Series:
    """Sum over m >= 0 of (-1)^m xi^(-2m) q^(m(m+1)) times the exact
    geometric quotient (1 - xi^(4m+2)) / (1 - xi^2), over Z[xi]."""
    return Series.from_terms(CYC5, order, (
        (m * (m + 1), (-1) ** m * CYC5.xi(-2 * m) * CYC5.geometric_xi2(m))
        for m in range(isqrt(order) + 1)
    ))


@register("CHK-COEFFZ", "coefficients of q^(5n+4) vanish at a fifth root of unity",
          order=60)
def _chk_coeffz(params):
    order = params["order"]
    products = {y_squared: _g_at_xi(order, y_squared) for y_squared in (1, -1)}
    for y_squared, series in products.items():
        for n in _weights(4, order - 1, 5):
            if series.coeffs[n] != CYC5.zero:
                fail({"y_squared": y_squared, "q_power": n,
                      "coefficient": repr(series.coeffs[n])})
    # composite route: g(xi,1,q) * (q^10;q^10) equals the double theta sum
    # over m(m+1) + k(k+1)/2, i.e. the xi-theta times the triangular theta
    lhs = products[1] * poch_product(CYC5, order, [(1, 10, 10, 1)])
    rhs = _xi_theta(order) * triangular_theta(CYC5, order)
    expect_same(lhs, rhs, route="composite")
    # triple-product specialization at xi^2, order-2 arguments
    jt_lhs = poch_product(
        CYC5, order,
        [(CYC5.xi(2), 2, 2, 1), (CYC5.xi(3), 2, 2, 1), (1, 2, 2, 1)],
    )
    expect_same(jt_lhs, _xi_theta(order), route="triple-product")


@register("CHK-THM1", "St-crank mod 5 splits p0(5n+4) and p2(5n+4) evenly",
          max_n=49)
def _chk_thm1(params):
    _srank_class_split(params["max_n"], "st-crank")


def _srank_class_split(max_n: int, name: str) -> None:
    """Fail unless the named statistic mod 5 splits each srank class of the
    partitions of 5n+4 <= max_n evenly."""
    for n in _weights(4, max_n, 5):
        classes = {0: Counter(), 2: Counter()}  # srank is even
        for (s, value), c in weight_table(n).joint("srank", name).items():
            classes[s % 4][value] += c
        for i, counts in classes.items():
            _equal_split(counts, 5, n=n, srank_class=i)


# ---------------------------------------------------------------------------
# t-core counting


@register("CHK-TCOREGF", "t-core counts: series, n-vector and enumeration agree",
          order=200, enum_n=30, t_min=2, t_max=7)
def _chk_tcoregf(params):
    order, enum_n = params["order"], params["enum_n"]
    top = max(order - 1, enum_n)
    for t in range(params["t_min"], params["t_max"] + 1):
        # the counter rejects t < 2 before the product builder sees it
        tally = core_vector_counts(t, top)
        series = t_core_series(t, order)
        if off := [w for w, residue in tally if residue]:
            fail({"t": t, "weight": min(off), "reason": "weight residue mismatch"})
        vec_counts = [tally[(n, 0)] for n in range(top + 1)]
        if (n := series.first_difference(Series(INT, order, vec_counts))) is not None:
            fail({"t": t, "n": n, "series": series.coeff(n), "vectors": vec_counts[n]})
        for n in range(enum_n + 1):
            filtered = sum(map(is_t_core, weight_table(n).partitions(), repeat(t)))
            if filtered != vec_counts[n]:
                fail({"t": t, "n": n, "filtered": filtered, "vectors": vec_counts[n]})
    # 2-cores are exactly the staircases: a_2(n) = 1 iff n is triangular
    if (n := t_core_series(2, order).first_difference(triangular_theta(INT, order))) is not None:
        fail({"t": 2, "n": n, "reason": "staircase criterion"})


@register("CHK-THM2", "2-quotient-rank matches the St-crank distribution",
          max_n=49, joint_n=30)
def _chk_thm2(params):
    # full joint distributions agree within each srank class
    for n in range(params["joint_n"] + 1):
        stc: Counter = Counter()
        tqr: Counter = Counter()
        joint = weight_table(n).joint("srank", "st-crank", "two-quotient-rank")
        for (s, a, b), c in joint.items():
            stc[(s % 4, a)] += c
            tqr[(s % 4, b)] += c
        if stc != tqr:
            bad = min(k for k in stc | tqr if stc[k] != tqr[k])
            fail({"n": n, "srank_class": bad[0], "value": bad[1],
                  "st_crank_count": stc[bad],
                  "two_quotient_rank_count": tqr[bad]})
    # residue classes of the 2-quotient-rank split p_i(5n+4) evenly
    _srank_class_split(params["max_n"], "two-quotient-rank")


@register("CHK-G2", "(2-quotient-rank, srank) product forms", order=25)
def _chk_g2(params):
    order = params["order"]
    # symbolic omega with omega^4 = 1
    ring = LaurentRing(("x", "w"), cyclic={"w": 4})
    names = ("two-quotient-rank", "srank")
    lhs = _tally_series(ring, order, names, lambda c, m, s: ring.monomial(c, x=m, w=s % 4))
    # (q^4;q^4)(-q;q^2) / prod over even d of (1 - x w^d q^d)(1 - w^d q^d / x)
    rhs = poch_product(ring, order, [
        *TRIANGULAR_FACTORS,
        (ring.monomial(x=1, w=2), 2, 4, -1), (ring.monomial(x=1), 4, 4, -1),
        (ring.monomial(x=-1, w=2), 2, 4, -1), (ring.monomial(x=-1), 4, 4, -1)])
    expect_same(lhs, rhs, route="symbolic")
    # specializations omega^2 = +-1 against the (St-crank, srank) product
    xring = LaurentRing(("x",))
    for sign in (1, -1):
        spec = _tally_series(xring, order, names,
                             lambda c, m, s: xring.monomial(c * sign ** ((s // 2) % 2), x=m))
        rhs2 = _lemma1_product(xring, order, xring.monomial(x=1), xring.monomial(x=-1),
                               sign, sign)
        expect_same(spec, rhs2, route=f"omega^2={sign}")


@register("CHK-G3", "3-quotient statistic reduces to the crank product",
          order=40, tally_order=50)
def _chk_g3(params):
    order = params["order"]
    ring = LaurentRing(("x",))
    x, xi = ring.monomial(x=1), ring.monomial(x=-1)

    # product identity for the shifted hexagonal theta (the displayed form
    # without the linear exponent has mismatched constant terms; the change
    # of variables produces n^2 + nm + m^2 + n + m)
    lhs = hexagonal_theta_sum(ring, order, lambda n, m: ring.monomial(x=n - m))
    # the (q^3;q^3) factors run first, while the coefficients are still sparse
    rhs = poch_product(
        ring, order,
        [(1, 3, 3, 1), (ring.monomial(x=3), 3, 3, 1), (ring.monomial(x=-3), 3, 3, 1),
         *crank_factors(x, xi)],
    ).scaled(x + 1 + xi)
    expect_same(lhs, rhs, route="hexagonal-theta")

    # n-vector sum over 3-cores: "numerator / quotient legs = crank shape",
    # multiplied through by the legs (q^3;q^3)(x^3q^3;q^3)(q^3/x^3;q^3)
    span = range(-isqrt(order) - 2, isqrt(order) + 3)
    numerator = Series.from_terms(ring, order, (
        (q3(n1, n2), ring.monomial(x=3 * n1) + ring.monomial(x=3 * n2 + 1)
         + ring.monomial(x=-3 * n2 - 1))
        for n1 in span for n2 in span
    ))
    expect_same(numerator, rhs, route="n-vector-sum")

    # direct tally over partitions: the 3-core charges n1, n2 and the part
    # counts k1, k2 of the 3-quotient components 1 and 2
    def term(c, n1, n2, k1, k2):
        shift = 3 * (k1 - k2)
        return (ring.monomial(c, x=3 * n1 + shift) + ring.monomial(c, x=3 * n2 + 1 + shift)
                + ring.monomial(c, x=-3 * n2 - 1 + shift))

    tally_order = params["tally_order"]
    names = ("charge:3:1", "charge:3:2", "quotient-parts:3:1", "quotient-parts:3:2")
    crank_shape = poch_product(ring, tally_order, crank_factors(x, xi)).scaled(x + 1 + xi)
    expect_same(_tally_series(ring, tally_order, names, term), crank_shape, route="tally")


# ---------------------------------------------------------------------------
# 5-cores, orbits and refinements


def _core_map_bijection(route: str, top: int, step, scale: int, shift: int,
                        count: Counter, classes: Counter, tests) -> None:
    """Fail unless, for each n <= top, `step` maps the count[n] 5-core
    n-vectors of weight n one-to-one onto the class-0 5-cores of weight
    scale*n + shift (the (weight, 0) entries of `classes`), every image
    passing each (name, test) in `tests`.  Witness routes are `route` +
    -weight, -name, -injective or -surjective."""
    by_weight: dict[int, list] = {}
    for vec, w in iter_core_vectors(5, top):
        by_weight.setdefault(w, []).append(vec)
    for n in range(top + 1):
        weight = scale * n + shift
        images = set()
        for vec in by_weight.get(n, ()):
            img = step(vec)
            if core_weight_from_vector(img) != weight:
                fail({"route": f"{route}-weight", "n": n, "vector": list(vec)})
            for name, holds in tests:
                if not holds(img):
                    fail({"route": f"{route}-{name}", "n": n, "vector": list(vec)})
            images.add(img)
        if len(images) != count[n]:
            fail({"route": f"{route}-injective", "n": n})
        if len(images) != classes[(weight, 0)]:
            fail({"route": f"{route}-surjective", "n": n})


@register("CHK-5CORE", "5-core counting relations and alpha-form sums",
          order=60, psift_order=40, rel_n=104)
def _chk_5core(params):
    order = params["order"]
    theta_n = 20  # the theta bijection is checked vector by vector up to here
    if order < 1:
        raise ValueError(f"CHK-5CORE needs order >= 1, got {order}")
    limit = 5 * max(order - 2, params["rel_n"], theta_n) + 4
    tally = core_tally(5, limit, "srank-mod-4", "five-core-crank")
    count, by_crank = _sum_down(tally, 0), _sum_down(tally, 0, 2)
    # alpha-form sum equals the sifted 5-core counts, both by direct
    # enumeration of alpha space and through the product series; the counts
    # below k do not depend on the bound, so one walk serves both orders
    po = params["psift_order"]
    alpha_counts = _alpha_form_counts(max(order, po))
    if alpha_counts[0] != 0:
        fail({"route": "alpha-form", "reason": "Q(alpha)=0 attained"})
    for k in range(1, order):
        a5 = count[5 * k - 1]
        if alpha_counts[k] != a5:
            fail({"route": "alpha-form", "Q": k, "alpha_count": alpha_counts[k], "a5": a5})
    sifted = t_core_series(5, 5 * order).sift(5, 4)
    for n in range(min(order - 1, sifted.order)):
        if sifted.coeff(n) != count[5 * n + 4]:
            fail({"route": "series-sift", "n": n})
    # p(5n+4) generating function through the alpha sum
    lhs = partition_count_series(5 * po).sift(5, 4).times_q(1)
    alpha_series = Series(INT, po, alpha_counts)
    rhs = poch_product(INT, po, [(1, 1, 1, -5)]) * alpha_series
    expect_same(lhs, rhs, po, route="p-sift")
    # a5(5n+4) = 5 a5(n); crank classes are equal fifths
    for n in range(params["rel_n"] + 1):
        if count[5 * n + 4] != 5 * count[n]:
            fail({"route": "5corerel", "n": n})
    for w in range(4, limit + 1, 5):
        crank = {j: by_crank[(w, j)] for j in range(5)}
        _equal_split(crank, 5, route="crank-classes", weight=w)
    # theta: explicit bijection onto crank-0 5-cores of 5n+4
    _core_map_bijection("theta", theta_n, theta_vector, 5, 4, count, by_crank,
                        [("crank", lambda v: stats.five_core_crank_from_vector(v) == 0)])
    for n in range(params["rel_n"] + 1):
        if count[n] != by_crank[(5 * n + 4, 0)]:
            fail({"route": "5corerel2", "n": n})


@register("CHK-ORBIT", "orbit maps are weight-preserving bijections of order 5",
          max_n=49)
def _chk_orbit(params):
    for n in _weights(4, params["max_n"], 5):
        table = weight_table(n)
        crank, srank = table.columns("five-core-crank", "srank")
        partitions = list(table.partitions())
        # partition -> enumeration position, the row of its table entries
        index = {p: k for k, p in enumerate(partitions)}
        # image positions under the unshifted and the shifted map, both from
        # one bead reading per partition; -1 marks an image outside the index
        images = (array("i"), array("i"))
        for p in partitions:
            for key, positions in zip(orbit_step(five_core_beads(p)), images):
                positions.append(index.get(_partition_from_colors(5, *key), -1))
        # one pass of tests per map, the unshifted map first; an image is
        # rebuilt only for a witness
        for shifted, step in zip((False, True), images):
            for k, j in enumerate(step):
                if j < 0:
                    p = partitions[k]
                    q = _partition_from_colors(5, *orbit_step(five_core_beads(p))[shifted])
                    fail({"n": n, "shifted": shifted, "partition": list(p), "image": list(q)})
                if (crank[j] - crank[k]) % 5 != 1:
                    fail({"n": n, "shifted": shifted, "reason": "crank step",
                          "partition": list(partitions[k])})
                if shifted and srank[j] % 4 != srank[k] % 4:
                    fail({"n": n, "reason": "srank not preserved",
                          "partition": list(partitions[k])})
            if len(set(step)) != len(step):
                fail({"n": n, "shifted": shifted, "reason": "not a bijection"})
            if len(step) % 5:
                fail({"n": n, "reason": "p(n) not divisible by 5"})
            # each step moves the crank by one, so the fifth power is the
            # identity unless the map has a cycle longer than five
            power = step
            for _ in range(4):
                power = array("i", map(step.__getitem__, power))
            for k, j in enumerate(power):
                if j != k:
                    fail({"n": n, "shifted": shifted, "reason": "order",
                          "partition": list(partitions[k])})


@register("CHK-THM3", "5-core crank mod 5 splits p0(5n+4) and p2(5n+4) evenly",
          max_n=49)
def _chk_thm3(params):
    _srank_class_split(params["max_n"], "five-core-crank")
    # structural facts behind the weight-9 orbit table
    data = table2_json(9)
    if len(data["orbits"]) != 6:
        fail({"reason": "orbit count at 9", "found": len(data["orbits"])})
    first = data["orbits"][0]
    if not first["all_cores"] or len(first["members"]) != 5:
        fail({"reason": "first orbit is not the 5-core orbit"})
    for ob in data["orbits"]:
        members = list(map(Partition, ob["members"]))
        cranks = [stats.five_core_crank(m) for m in members]
        if cranks != [0, 1, 2, 3, 4]:
            fail({"reason": "crank columns", "found": cranks})
        sranks = {stats.srank(m) % 4 for m in members}
        if len(sranks) != 1:
            fail({"reason": "orbit srank not constant"})


@register("CHK-ELEGANT", "closed srank formulas for 5-cores and 5-quotients",
          max_n=29)
def _chk_elegant(params):
    for n in range(params["max_n"] + 1):
        for p in weight_table(n).partitions():
            cq = phi1(p, 5)
            nvec = phi2(cq.core, 5)
            s_core = stats.srank(cq.core)
            if s_core % 4 != stats.core_srank_mod4(5, nvec):
                fail({"route": "core-cubic", "partition": list(p)})
            total = s_core + sum(stats.srank(q) for q in cq.quotient)
            total += 2 * sum(q.weight * (nvec[i] + i)
                             for i, q in enumerate(cq.quotient))
            if stats.srank(p) % 4 != total % 4:
                fail({"route": "quotient-expansion", "partition": list(p)})
            if n % 5 == 4:
                alpha = alpha_from_n(nvec)
                cyc = sum(
                    alpha[i] * alpha[(i + 1) % 5] * (alpha[i] - alpha[(i + 1) % 5])
                    for i in range(5)
                )
                if s_core % 4 != cyc % 4:
                    fail({"route": "alpha-core", "partition": list(p)})
                a = alpha
                cross = 2 * (
                    (a[0] + a[4]) * cq.quotient[0].weight
                    + (a[2] + a[3]) * cq.quotient[1].weight
                    + (a[1] + a[2]) * cq.quotient[2].weight
                    + (a[0] + a[1]) * cq.quotient[3].weight
                    + (a[3] + a[4]) * cq.quotient[4].weight
                )
                full = cyc + sum(stats.srank(q) for q in cq.quotient) + cross
                if stats.srank(p) % 4 != full % 4:
                    fail({"route": "alpha-expansion", "partition": list(p)})


@register("CHK-REFINE", "srank-refined 5-core counting relations",
          refine_n=100, theta_n=104, invar_n=25)
def _chk_refine(params):
    limit = 5 * max(params["refine_n"], params["theta_n"]) + 4
    tally = core_tally(5, limit, "srank-mod-4", "five-core-crank")
    by_srank = _sum_down(tally, 0, 1)
    for w in range(4, limit + 1, 5):
        for i in (0, 2):
            crank = {j: tally[(w, i, j)] for j in range(5)}
            _equal_split(crank, 5, route="refine", weight=w, srank_class=i)
    for n in range(params["theta_n"] + 1):
        for i in (0, 2):
            lhs = by_srank[(n, i)]
            rhs = tally[(5 * n + 4, i, 0)]
            if lhs != rhs:
                fail({"route": "refine2", "n": n, "srank_class": i, "lhs": lhs, "rhs": rhs})
    for n in range(params["refine_n"] + 1):
        for i in (0, 2):
            if by_srank[(5 * n + 4, i)] != 5 * by_srank[(n, i)]:
                fail({"route": "refine3", "n": n, "srank_class": i})
    # theta preserves srank mod 4; the cubic difference identity holds exactly
    for vec, w in iter_core_vectors(5, params["theta_n"]):
        img = theta_vector(vec)
        if stats.core_srank_mod4(5, img) != stats.core_srank_mod4(5, vec):
            fail({"route": "theta-srank", "vector": list(vec)})
    for vec, w in iter_core_vectors(5, params["invar_n"]):
        img = theta_vector(vec)
        diff = sum((vec[i] + i) ** 3 - (img[i] + i) ** 3 for i in range(5))
        n0, n1, n2, n3, n4 = vec
        middle = 2 * (
            n0 * n2 * (n0 + n2) + n1 * n3 * (n1 + n3) + n2 * n3 * (n2 + n3)
            + n1 * (n1 + 1) + n2 * (n2 + 1) + n3 * (n3 + 1)
        )
        if diff % 4 != middle % 4 or middle % 4 != 0:
            fail({"route": "cubic-difference", "vector": list(vec),
                  "diff_mod4": diff % 4, "middle_mod4": middle % 4})


@register("CHK-A50", "srank-0 5-core counts by weight residue mod 4",
          max_arg=520, form4_n=100, map_n=25)
def _chk_a50(params):
    top = params["max_arg"]
    tally = core_tally(5, max(top, 4 * max(params["form4_n"], params["map_n"]) + 3),
                       "srank-mod-4", "five-core-crank")
    count, by_srank = _sum_down(tally, 0), _sum_down(tally, 0, 1)
    for m in range(top + 1):
        a50 = by_srank[(m, 0)]
        if m % 4 in (0, 1):
            if a50 != count[m]:
                fail({"route": f"4n+{m % 4}", "weight": m})
        elif m % 4 == 2:
            if a50 != 0:
                fail({"route": "4n+2", "weight": m, "count": a50})
    for n in range(params["form4_n"] + 1):
        if by_srank[(4 * n + 3, 0)] != count[n]:
            fail({"route": "4n+3", "n": n})
    # the doubling map is an explicit bijection onto the srank-0 class
    _core_map_bijection("map", params["map_n"], quadruple_shift_vector, 4, 3, count,
                        by_srank,
                        [("parity", lambda v: tuple(x % 2 for x in v) == (0, 1, 0, 1, 0)),
                         ("srank", lambda v: stats.core_srank_mod4(5, v) == 0)])
    # parity criterion: srank-0 at weight 3 mod 4 means pattern (0,1,0,1,0)
    for vec, w in iter_core_vectors(5, top):
        if w % 4 != 3:
            continue
        pattern = tuple(x % 2 for x in vec)
        zero_class = stats.core_srank_mod4(5, vec) == 0
        if zero_class != (pattern == (0, 1, 0, 1, 0)):
            fail({"route": "parity-criterion", "vector": list(vec)})


# ---------------------------------------------------------------------------
# srank of t-cores, quotients and strips


@register("CHK-THM4", "closed form for the srank of a t-core",
          max_weight=30, t_min=2, t_max=9, g_range=20)
def _chk_thm4(params):
    for t in range(params["t_min"], params["t_max"] + 1):
        for vec, w in iter_core_vectors(t, params["max_weight"]):
            core = phi2_inv(vec)
            if phi2(core, t) != vec:
                fail({"t": t, "reason": "vector round trip", "vector": list(vec)})
            if stats.srank(core) % 4 != stats.core_srank_mod4(t, vec):
                fail({"t": t, "vector": list(vec), "core": list(core)})
        g = params["g_range"]
        for i in range(t):
            for n in range(-g, g + 1):
                v = stats.srank_charge_contribution(t, n, i)
                w = stats.srank_charge_contribution(t, -n, t - 1 - i)
                if v + w != 0 or v % 2 or (v - w) % 4:
                    fail({"t": t, "n": n, "i": i, "reason": "cubic identity"})


@register("CHK-SRTQ", "srank from the core and quotient data alone",
          max_n=24, t_min=2, t_max=9)
def _chk_srtq(params):
    for n in range(params["max_n"] + 1):
        for p in weight_table(n).partitions():
            s = stats.srank(p) % 4
            for t in range(params["t_min"], params["t_max"] + 1):
                if stats.decomposition_srank_mod4(phi1(p, t)) != s:
                    fail({"t": t, "partition": list(p)})


@register("CHK-STRIP", "srank increments under cell and border-strip attachment",
          max_n=18)
def _chk_strip(params):
    top = params["max_n"]
    for n in range(top + 1):
        for p in weight_table(n).partitions():
            s = stats.srank(p)
            # single cells at every addable corner
            for row in range(1, len(p) + 2):
                col = p.part(row) + 1
                if row > 1 and p.part(row - 1) < col:
                    continue
                grown = add_cell(p, (row, col))
                if (stats.srank(grown) - s - 2 * (row + col)) % 4:
                    fail({"route": "cell", "partition": list(p), "cell": [row, col]})
            # strips of every length
            for length in range(1, n + 1):
                for removal in rim_hook_removals(p, length):
                    x, y = removal.head
                    base = stats.srank(removal.result)
                    if (s - base - (2 * length * (x + y) + length * length - length)) % 4:
                        fail({"route": "strip", "partition": list(p),
                              "length": length, "head": [x, y]})
                    # reduced forms for strips of length divisible by t
                    for t in range(2, 10):
                        if length % t:
                            continue
                        lam = length // t
                        if t % 2 == 0:
                            a = 0 if t % 4 == 0 else 1
                            expected = 2 * a * lam
                        else:
                            a = 0 if t % 4 == 1 else 1
                            expected = 2 * lam * (x + y + a) + lam * lam - lam
                        if (s - base - expected) % 4:
                            fail({"route": "strip-reduced", "t": t,
                                  "partition": list(p), "length": length})
    # head parity when a strip grows one quotient component
    for t in (3, 5):
        for n in range(top + 1):
            for base in weight_table(n).partitions():
                cq = phi1(base, t)
                nvec = phi2(cq.core, t)
                for i in range(t):
                    if cq.quotient[i]:
                        continue
                    lam = 1
                    while n + t * lam <= top:
                        quotient = list(cq.quotient)
                        quotient[i] = Partition((lam,))
                        grown = phi1_inv(CoreQuotient(t, cq.core, tuple(quotient)))
                        hit = [r for r in rim_hook_removals(grown, t * lam)
                               if r.result == base]
                        if len(hit) != 1:
                            fail({"route": "word-strip", "t": t,
                                  "partition": list(base), "slot": i})
                        x, y = hit[0].head
                        if (x + y - nvec[i] - i) % 2:
                            fail({"route": "head-parity", "t": t,
                                  "partition": list(base), "slot": i,
                                  "head": [x, y]})
                        lam += 1


@register("CHK-BGRALT", "BG-rank equals the 2-core charge and the residue gap",
          max_n=25)
def _chk_bgralt(params):
    for n in range(params["max_n"] + 1):
        for p in weight_table(n).partitions():
            j = stats.bg_rank(p)
            r = residue_counts(p, 2)
            core2 = cores.phi1(p, 2).core
            n0 = phi2(core2, 2)[0]
            if j != r[0] - r[1] or j != n0:
                fail({"partition": list(p), "bg": j,
                      "residue_gap": r[0] - r[1], "charge": n0})
            if (stats.srank(p) - (n - j * (2 * j - 1))) % 4:
                fail({"route": "srank-from-bg", "partition": list(p)})


# ---------------------------------------------------------------------------
# BG-rank families


@register("CHK-FJ", "(BG-rank, 2-quotient-rank) product forms", order=25, xi_order=40)
def _chk_fj(params):
    order = params["order"]
    ring = LaurentRing(("x",))
    names = ("bg-rank", "two-quotient-rank")
    # built once, before the per-j loop, so order 0 is an error, not a vacuous pass
    product = poch_product(
        ring, order,
        [(ring.monomial(x=1), 2, 2, -1), (ring.monomial(x=-1), 2, 2, -1)],
    )
    attained = sorted({j for n in range(order) for (j, _) in weight_table(n).joint(*names)})
    for j in attained:
        shift = (2 * j - 1) * j
        if shift >= order:
            continue
        lhs = _tally_series(ring, order, names,
                            lambda c, jj, m: ring.monomial(c, x=m) if jj == j else ring.zero)
        expect_same(lhs, product.times_q(shift), j=j)
    # cyclotomic specialization: the product times (q^10;q^10) versus the
    # exact theta form
    xi_order = params["xi_order"]
    lhs = poch_product(
        CYC5, xi_order,
        [(CYC5.xi(1), 2, 2, -1), (CYC5.xi(4), 2, 2, -1), (1, 10, 10, 1)],
    )
    expect_same(lhs, _xi_theta(xi_order), route="cyclotomic")


_THM5_CASES = {
    0: lambda j: j % 5 in (1, 2),
    1: lambda j: j % 5 not in (1, 2),
    2: lambda j: j % 5 not in (0, 3),
    3: lambda j: j % 5 in (0, 3),
    4: lambda j: True,
}


@register("CHK-THM5", "BG-rank classes split by 2-quotient-rank mod 5", max_n=45)
def _chk_thm5(params):
    # no weight below 4 holds a BG-rank class that its case tests
    for n in _weights(4, params["max_n"], 1):
        case = _THM5_CASES[n % 5]
        by_bg: dict[int, Counter] = {}
        for (j, m), c in weight_table(n).joint("bg-rank", "two-quotient-rank").items():
            by_bg.setdefault(j, Counter())[m] += c
        for j, counts in by_bg.items():
            if case(j):
                _equal_split(counts, 5, n=n, j=j)


@register("CHK-COR5", "BG-rank refined congruences mod 5", max_n=45)
def _chk_cor5(params):
    # no weight below 4 holds a BG-rank class that its case tests
    for n in _weights(4, params["max_n"], 1):
        case = _THM5_CASES[n % 5]
        totals = Counter(weight_table(n).columns("bg-rank")[0])
        for j, total in totals.items():
            if case(j) and total % 5:
                fail({"n": n, "j": j, "count": total})


def _scan_bg_counterexample(max_weight: int):
    """The first (weight, BG-rank) class of 5-cores, weight 5n+r with r < 4,
    whose size is not divisible by 5.  The tallies run to bounds that double
    up to max_weight; the first that holds one stops the scan, since every
    larger tally holds the same weights below its bound."""
    bound = 4
    while True:
        bound = min(bound, max_weight)
        for (w, j), c in sorted(core_tally(5, bound, "bg-rank").items()):
            if w <= bound and w % 5 != 4 and c % 5:
                return {"n": w // 5, "r": w % 5, "j": j, "weight": w, "count": c}
        if bound == max_weight:
            return None
        bound *= 2


@register("CHK-AB5JR", "5-core BG-rank classes on 5n+r, r<4: congruence fails",
          max_weight=60)
def _chk_ab5jr(params):
    witness = _scan_bg_counterexample(params["max_weight"])
    if witness is None:
        fail({"searched_up_to": params["max_weight"], "reason": "no counterexample found"})
    return witness


@register("CHK-AB5J4", "5-core BG-rank classes on 5n+4 are 0 mod 5",
          max_weight=104)
def _chk_ab5j4(params):
    top = params["max_weight"]
    _weights(4, top, 5)  # a bound below 4 leaves no weight 5n+4 to test
    for (w, j), c in sorted(core_tally(5, top, "bg-rank").items()):
        if w <= top and w % 5 == 4 and c % 5:
            fail({"weight": w, "j": j, "count": c})


@register("CHK-JTPA", "triple-product specialization: sum of triangular powers",
          order=1000)
def _chk_jtpa(params):
    order = params["order"]
    lhs = poch_product(INT, order, TRIANGULAR_FACTORS)
    expect_same(lhs, triangular_theta(INT, order), route="triangular")
    mid = poch_product(INT, order, [(1, 4, 4, 1), (-1, 3, 4, 1), (-1, 1, 4, 1)])
    expect_same(lhs, mid, route="regrouped-product")


@register("CHK-RAMBEST", "closed product for the p(5n+4) generating function",
          order=30)
def _chk_rambest(params):
    order = params["order"]
    lhs = partition_count_series(5 * order + 5).sift(5, 4)
    rhs = rambest_series(order)
    if (k := lhs.first_difference(rhs, order)) is not None:
        fail({"q_power": k, "lhs": lhs.coeffs[k], "rhs": rhs.coeffs[k]})


@register("CHK-JTP", "Jacobi triple product at z = 1, -1 and symbolic z",
          order=100)
def _chk_jtp(params):
    order = params["order"]
    zring = LaurentRing(("z",))
    cases = [(INT, 1, 1, 1), (INT, -1, -1, -1),
             (zring, zring.monomial(z=1), zring.monomial(z=-1), "symbolic")]
    for ring, z, zi, label in cases:
        lhs = theta_jtp(ring, order, z, zi)
        rhs = poch_product(ring, order, [(1, 2, 2, 1), (-z, 1, 2, 1), (-zi, 1, 2, 1)])
        expect_same(lhs, rhs, z=label)


def search_counterexample(family: str, max_weight: int = 60) -> CheckReport:
    """Scan a claim family for its smallest violation."""
    if family != "ab5jr":
        raise ValueError(f"unknown counterexample family {family!r}")
    return run_check("CHK-AB5JR", max_weight=max_weight)
