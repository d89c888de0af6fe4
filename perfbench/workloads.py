"""Workload definitions: registry bounds and seeded query inputs.

Nothing here imports tcorelab.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

# Bounds for the 23 enumeration-bound checks.  CHK-ORBIT keeps weight 34,
# where per-partition cost dominates, and the shared srank tallies run to
# the same weight, so those two stay the largest costs, as in
# `verify --all` at the default bounds.
ENUM_CHECKS = {
    "CHK-RAM5": {"max_n": 34, "order": 200},
    "CHK-RAM7": {"max_n": 33, "order": 200},
    "CHK-RAM11": {"max_n": 28, "order": 200},
    "CHK-DYSON": {"max_n5": 34, "max_n7": 33},
    "CHK-AG": {"max_n5": 34, "max_n7": 33, "max_n11": 28},
    "CHK-CRANKGF": {"order": 26},
    "CHK-GREF5": {"max_n": 34},
    "CHK-RSGF": {"order": 20},
    "CHK-P02PROD": {"order": 30},
    "CHK-ANDREWS": {"max_n": 34},
    "CHK-SRANKPROD": {"order": 25},
    "CHK-LEMMA1": {"order": 20},
    "CHK-THM1": {"max_n": 34},
    "CHK-THM2": {"max_n": 34, "joint_n": 25},
    "CHK-G2": {"order": 25},
    "CHK-ORBIT": {"max_n": 34},
    "CHK-THM3": {"max_n": 34},
    "CHK-ELEGANT": {"max_n": 22},
    "CHK-SRTQ": {"max_n": 18, "t_min": 2, "t_max": 9},
    "CHK-STRIP": {"max_n": 14},
    "CHK-BGRALT": {"max_n": 22},
    "CHK-THM5": {"max_n": 30},
    "CHK-COR5": {"max_n": 30},
}

# Bounds for the other 13 checks: series orders in the hundreds and
# thousands, enumeration bounds (enum_n, tally_order, FJ's order) small.
# CHK-REFINE keeps theta_n <= 104 and CHK-A50 form4_n <= 130, because
# five_core_table() is fixed at weight 524 (see README.md).
SERIES_CHECKS = {
    "CHK-COEFFZ": {"order": 300},
    "CHK-JTPA": {"order": 4000},
    "CHK-JTP": {"order": 400},
    "CHK-FJ": {"order": 20, "xi_order": 300},
    "CHK-G3": {"order": 100, "tally_order": 12},
    "CHK-RAMBEST": {"order": 200},
    "CHK-TCOREGF": {"order": 200, "enum_n": 12, "t_min": 2, "t_max": 7},
    "CHK-5CORE": {"order": 60, "psift_order": 80, "rel_n": 104},
    "CHK-REFINE": {"refine_n": 100, "theta_n": 104, "invar_n": 25},
    "CHK-A50": {"max_arg": 520, "form4_n": 130, "map_n": 25},
    "CHK-THM4": {"max_weight": 35, "t_min": 2, "t_max": 9, "g_range": 20},
    "CHK-AB5JR": {"max_weight": 60},
    "CHK-AB5J4": {"max_weight": 200},
}

REGISTRY_WORKLOADS = {"registry-enum": ENUM_CHECKS, "registry-series": SERIES_CHECKS}

STAT_KINDS = (
    "srank", "dyson-rank", "ag-crank", "st-crank",
    "two-quotient-rank", "five-core-crank", "bg-rank",
)
QUERY_KINDS = STAT_KINDS + ("phi1", "phi1-inv", "orbit-map-s")

QUERY_LARGE_COUNT = 4000      # requests per query-large pass
QUERY_LARGE_WEIGHTS = (100, 100_000)
PROBE_COUNT = 10000           # small requests after each registry pass
PROBE_MAX_WEIGHT = 49


def registry_job(bounds: dict, seed: int) -> list:
    """[check id, params] pairs in a seed-shuffled order."""
    order = list(bounds)
    random.Random(seed).shuffle(order)
    return [[check_id, bounds[check_id]] for check_id in order]


def partition_spec(rng: random.Random, weight: int, parts: int) -> list:
    """A partition of `weight` with about `parts` parts, as [size, multiplicity]
    pairs with the largest size first.

    At most 8 distinct sizes keep the spec small even for 10^5 parts; any
    shortfall against `weight` goes into one copy of the largest part, so
    shapes run from one long part to many short ones.
    """
    distinct = rng.randint(1, min(8, parts))
    top = max(1, round(2 * weight / parts))
    sizes = sorted(rng.sample(range(1, top + 1), min(distinct, top)), reverse=True)
    cuts = sorted(rng.sample(range(1, parts), len(sizes) - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [parts])]
    total = sum(s * m for s, m in zip(sizes, mults))
    if total > weight:
        mults = [m * weight // total for m in mults]
    pairs = [[s, m] for s, m in zip(sizes, mults) if m]
    deficit = weight - sum(s * m for s, m in pairs)
    if not pairs:
        return [[weight, 1]]
    if deficit:
        # grow one copy of the largest part
        largest = pairs[0][0]
        pairs[0][1] -= 1
        if not pairs[0][1]:
            pairs.pop(0)
        pairs.insert(0, [largest + deficit, 1])
    return pairs


def _stratified(rng: random.Random, count: int) -> list[float]:
    """`count` points of [0, 1), one in each of `count` equal strata, shuffled.

    Stratifying keeps the mix of sizes and kinds nearly the same from seed
    to seed, so a run's totals do not swing with the draw.
    """
    points = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(points)
    return points


def query_job(seed: int, count: int, weights: str) -> list:
    """`count` [kind, t, spec] requests in a shuffled order.

    `weights` names a map from [0, 1) to weights in WEIGHTS.  Kinds take
    turns along the stratified weights, so each kind spans the whole weight
    range, and each kind's shapes (the part count is weight**shape) are
    stratified too.
    """
    rng = random.Random(seed)
    drawn = sorted(WEIGHTS[weights](u) for u in _stratified(rng, count))
    first = rng.randrange(len(QUERY_KINDS))
    kinds = [QUERY_KINDS[(first + i) % len(QUERY_KINDS)] for i in range(count)]
    shapes = {kind: _stratified(rng, kinds.count(kind)) for kind in QUERY_KINDS}
    requests = []
    for weight, kind in zip(drawn, kinds):
        parts = max(1, min(weight, round(weight ** shapes[kind].pop())))
        t = rng.randint(2, 9) if kind in ("phi1", "phi1-inv") else 0
        requests.append([kind, t, partition_spec(rng, weight, parts)])
    rng.shuffle(requests)
    return requests


def _four_mod_five(x: float) -> int:
    return 5 * max(0, round((x - 4) / 5)) + 4


def large_weight(u: float) -> int:
    """Log-uniform weight, 4 (mod 5), between about 10^2 and 10^5."""
    lo, hi = QUERY_LARGE_WEIGHTS
    return _four_mod_five(lo * (hi / lo) ** u)


def small_weight(u: float) -> int:
    """Uniform over the weights 4, 9, ..., 49 the registry enumerates."""
    return 4 + 5 * int(u * ((PROBE_MAX_WEIGHT + 1) // 5))


WEIGHTS = {"large": large_weight, "small": small_weight}
