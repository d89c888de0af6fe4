"""Registry behaviour, class counts and the command-line interface."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcorelab import cores, stats, tables, verify
from tcorelab.cli import main
from tcorelab.cores import core_weight_from_vector
from tcorelab.orbits import orbit_map, orbit_map_s
from tcorelab.partitions import BoundExceededError, Partition, enumerate_partitions, is_t_core
from tcorelab.qseries import Series
from tcorelab.rings import CYC5, INT

GOLDEN = Path(__file__).parent / "golden"

def direct_joint(n: int, names: tuple[str, ...]) -> Counter:
    """One loop over the partitions of n, as every check ran before the table."""
    fns = [stats.STATISTICS[name] for name in names]
    return Counter(tuple(fn(p) for fn in fns) for p in enumerate_partitions(n))


def _first_alike(q):
    """The first partition of q's weight with q's 5-core crank and srank class."""
    key = (stats.five_core_crank(q), stats.srank(q) % 4)
    return next(r for r in enumerate_partitions(q.weight)
                if (stats.five_core_crank(r), stats.srank(r) % 4) == key)


def _drop_an_orbit(orbits):
    del orbits[-1]


def _unmark_the_core_orbit(orbits):
    orbits[0]["all_cores"] = False


def _rotate_an_orbit(orbits):
    members = orbits[-1]["members"]
    members.append(members.pop(0))


def _swap_across_srank_classes(orbits):
    # the crank-1 members of the first srank-0 and the first srank-2 orbit
    zero, two = (next(ob for ob in orbits if ob["srank_mod4"] == s) for s in (0, 2))
    zero["members"][1], two["members"][1] = two["members"][1], zero["members"][1]


# A perturbation of the weight-9 orbit table, and the CHK-THM3 witness
THM3_FAULTS = {
    "orbit-dropped": (_drop_an_orbit, {"reason": "orbit count at 9", "found": 5}),
    "core-orbit-unmarked": (_unmark_the_core_orbit,
                            {"reason": "first orbit is not the 5-core orbit"}),
    "members-rotated": (_rotate_an_orbit, {"reason": "crank columns", "found": [1, 2, 3, 4, 0]}),
    "srank-classes-mixed": (_swap_across_srank_classes, {"reason": "orbit srank not constant"}),
}


def _merge_two_cycles(q):
    """Swap two crank-0 partitions of 9 in one srank class: the map stays a
    bijection with every crank step, but two 5-cycles become one 10-cycle."""
    if q.weight != 9:
        return q
    zeros = [r for r in enumerate_partitions(9) if stats.five_core_crank(r) == 0]
    r1 = zeros[0]
    r2 = next(r for r in zeros[1:] if stats.srank(r) % 4 == stats.srank(r1) % 4)
    return r2 if q == r1 else r1 if q == r2 else q


# A faulty pair of partition images, (unshifted, shifted), and the CHK-ORBIT
# witness at max_n = 14, recorded when the check still mapped every
# partition with orbit_map and then every partition with orbit_map_s.
# _key_level turns a pair into a replacement for orbit_step.
ORBIT_FAULTS = {
    "unshifted-identity": (
        lambda p: (p, orbit_map_s(p)),
        {"n": 4, "shifted": False, "reason": "crank step", "partition": [4]}),
    "shifted-identity": (
        lambda p: (orbit_map(p), p),
        {"n": 4, "shifted": True, "reason": "crank step", "partition": [4]}),
    "shifted-unshifted": (
        lambda p: (orbit_map(p), orbit_map(p)),
        {"n": 9, "reason": "srank not preserved", "partition": [8, 1]}),
    "shifted-off-weight": (
        lambda p: (orbit_map(p), Partition((*orbit_map_s(p), 1))),
        {"n": 4, "shifted": True, "partition": [4], "image": [2, 2, 1]}),
    "collapsed": (
        lambda p: (_first_alike(orbit_map(p)), orbit_map_s(p)),
        {"n": 9, "shifted": False, "reason": "not a bijection"}),
    "collapsed-shifted": (
        lambda p: (orbit_map(p), _first_alike(orbit_map_s(p))),
        {"n": 9, "shifted": True, "reason": "not a bijection"}),
    # an unshifted fault at the last partition of 4 is found before the
    # shifted fault at the first
    "late-unshifted": (
        lambda p: (p if p == (1, 1, 1, 1) else orbit_map(p), p),
        {"n": 4, "shifted": False, "reason": "crank step", "partition": [1, 1, 1, 1]}),
    "merged-cycles": (
        lambda p: (_merge_two_cycles(orbit_map(p)), orbit_map_s(p)),
        {"n": 9, "shifted": False, "reason": "order", "partition": [7, 2]}),
    "merged-cycles-shifted": (
        lambda p: (orbit_map(p), _merge_two_cycles(orbit_map_s(p))),
        {"n": 9, "shifted": True, "reason": "order", "partition": [7, 2]}),
}


def _key_level(images):
    """orbit_step with its images replaced by images(p).

    Each fake image's key is read back with the raw split, which, unlike
    five_core_beads, also takes an image off the weight class.
    """
    def step(key):
        p = cores._partition_from_colors(5, *key)
        return tuple(cores._charges_and_bead_parts(q, 5) for q in images(p))
    return step


def _srank_off_at(parts):
    """stats.srank, 2 too high on the one partition with these parts."""
    srank = stats.srank
    return lambda p: srank(p) + 2 * (tuple(p) == parts)


def _core_srank_off_at(vector):
    """stats.core_srank_mod4, 2 too high on the 5-core with this n-vector."""
    core_srank_mod4 = stats.core_srank_mod4
    return lambda t, nvec: (core_srank_mod4(t, nvec) + 2 * (tuple(nvec) == vector)) % 4


def _alpha_permuted(order):
    """alpha_from_n with its coordinates taken in this order."""
    alpha_from_n = cores.alpha_from_n
    return lambda nvec: tuple(map(alpha_from_n(nvec).__getitem__, order))


def _residue_gap_off_at(parts):
    """residue_counts with one more residue-0 cell on this partition at t = 2."""
    residue_counts = verify.residue_counts

    def counts(p, t):
        r = residue_counts(p, t)
        return (r[0] + 1, *r[1:]) if t == 2 and tuple(p) == parts else r
    return counts


def _strips_dropped_at(parts, length):
    """rim_hook_removals, with no strip of this length off this partition."""
    removals = verify.rim_hook_removals
    return lambda p, k: [] if (tuple(p), k) == (parts, length) else removals(p, k)


def _heads_moved_down(length):
    """rim_hook_removals with the head of every strip of this length one row
    lower.  For length 6 that moves x + y by 1 but 2 * length * (x + y) and,
    at t = 3, 2 * lam * (x + y) by 0 (mod 4), so only the head parity sees it."""
    removals = verify.rim_hook_removals

    def moved(p, k):
        found = removals(p, k)
        if k != length:
            return found
        return [r._replace(head=(r.head[0] + 1, r.head[1])) for r in found]
    return moved


# A patched function that both the core and quotient route and the bead
# route of the per-partition decomposition checks read, the bounds, and the
# witness, recorded when the checks built each core and quotient with phi1
DECOMPOSITION_FAULTS = {
    "srtq": ("CHK-SRTQ", {"max_n": 12}, stats, "srank", _srank_off_at((2,)),
             {"t": 2, "partition": [2]}),
    "elegant-core-cubic": (
        "CHK-ELEGANT", {"max_n": 14}, stats, "core_srank_mod4",
        _core_srank_off_at((1, 0, 0, 0, -1)),
        {"route": "core-cubic", "partition": [1]}),
    # (5) is no 5-core, so only the expansion reads its srank
    "elegant-quotient-expansion": (
        "CHK-ELEGANT", {"max_n": 14}, stats, "srank", _srank_off_at((5,)),
        {"route": "quotient-expansion", "partition": [5]}),
    "elegant-alpha-core": (
        "CHK-ELEGANT", {"max_n": 14}, verify, "alpha_from_n", _alpha_permuted((1, 0, 2, 3, 4)),
        {"route": "alpha-core", "partition": [6, 2, 1]}),
    # a rotation keeps the cyclic sum of the core term, and moves the cross term
    "elegant-alpha-expansion": (
        "CHK-ELEGANT", {"max_n": 14}, verify, "alpha_from_n", _alpha_permuted((1, 2, 3, 4, 0)),
        {"route": "alpha-expansion", "partition": [7, 2]}),
    "bgralt": ("CHK-BGRALT", {"max_n": 14}, verify, "residue_counts", _residue_gap_off_at((2, 1)),
               {"partition": [2, 1], "bg": -1, "residue_gap": 0, "charge": -1}),
    "bgralt-srank-from-bg": (
        "CHK-BGRALT", {"max_n": 14}, stats, "srank", _srank_off_at((2, 1)),
        {"route": "srank-from-bg", "partition": [2, 1]}),
    "strip-word-strip": (
        "CHK-STRIP", {"max_n": 10}, verify, "rim_hook_removals", _strips_dropped_at((3,), 3),
        {"route": "word-strip", "t": 3, "partition": [], "slot": 2}),
    "strip-head-parity": (
        "CHK-STRIP", {"max_n": 10}, verify, "rim_hook_removals", _heads_moved_down(6),
        {"route": "head-parity", "t": 3, "partition": [], "slot": 0, "head": [2, 1]}),
}


class TestClassCounts:
    def test_table1_counts(self):
        # Table 1: St-crank mod 5 splits the 30 partitions of 9 into cells of
        # 4 for srank 0 (mod 4) and of 2 for srank 2
        cells = Counter()
        for (s, crank), c in tables.weight_table(9).joint("srank", "st-crank").items():
            cells[s % 4, crank % 5] += c
        assert cells == {(s, k): 4 if s == 0 else 2 for s in (0, 2) for k in range(5)}

    def test_weight_zero(self):
        for statistic in ("srank", "dyson-rank", "ag-crank", "st-crank",
                          "two-quotient-rank", "bg-rank"):
            assert list(tables.weight_table(0).columns(statistic)[0]) == [0], statistic

    def test_five_core_filter(self):
        # the five 5-cores of 9 take the 5-core cranks 0..4 once each
        table = tables.weight_table(9)
        cranks = [crank for p, crank in zip(table.partitions(),
                                            table.columns("five-core-crank")[0])
                  if is_t_core(p, 5)]
        assert sorted(cranks) == [0, 1, 2, 3, 4]

    def test_equal_split_witnesses(self):
        # values are read mod the modulus: 7 falls in class 1
        assert verify._equal_split({0: 2, 7: 2}, 2) is None
        with pytest.raises(verify.Mismatch) as exc:
            verify._equal_split({0: 3, 1: 2}, 2, n=5)
        assert exc.value.witness == {"n": 5, "total": 5}
        with pytest.raises(verify.Mismatch) as exc:
            verify._equal_split({0: 3, 5: 0, 1: 1}, 2, n=4)
        assert exc.value.witness == {"n": 4, "class": 0, "count": 3, "expected": 2}

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 16),
        names=st.tuples(st.sampled_from(sorted(stats.STATISTICS)),
                        st.sampled_from(sorted(stats.STATISTICS))),
        fresh=st.booleans(),
    )
    def test_table_matches_direct_loop(self, n, names, fresh):
        assume(n % 5 == 4 or "five-core-crank" not in names)
        if fresh:
            tables.clear_memo()
        table = tables.weight_table(n)
        assert table.joint(*names) == direct_joint(n, names)
        assert table.total() == sum(1 for _ in enumerate_partitions(n))


# Every column a weight table can hold.
TABLE_COLUMNS = sorted({*stats.STATISTICS, *tables.FOLDS})


class TestWeightTable:
    def test_replay_matches_the_enumeration(self):
        for n in range(31):
            expected = list(enumerate_partitions(n))
            # first touched without columns, or by a column fill
            for first in ((), ("srank", "odd-parts")):
                table = tables.WeightTable(n)
                table.columns(*first)
                for _ in range(2):
                    replayed = list(table.partitions())
                    assert replayed == expected, n
                    assert all(type(p) is Partition for p in replayed), n
                    # the second round replays after a later column fill
                    table.columns("bg-rank")
                assert table.total() == len(expected)

    def test_weight_zero_packs_to_nothing(self):
        table = tables.WeightTable(0)
        assert list(table.partitions()) == [Partition()]
        assert table.packed == b""
        assert table.total() == 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 16), data=st.data())
    def test_late_columns_equal_first_touch_columns(self, n, data):
        names = [name for name in TABLE_COLUMNS
                 if n % 5 == 4 or name != "five-core-crank"]
        order = data.draw(st.permutations(names))
        first = data.draw(st.integers(0, len(order)))
        chosen = order[:data.draw(st.integers(first, len(order)))]
        at_first_touch = tables.WeightTable(n).columns(*chosen)
        table = tables.WeightTable(n)
        table.columns(*chosen[:first])
        for name in chosen[first:]:
            table.columns(name)
        assert table.columns(*chosen) == at_first_touch
        assert list(table.partitions()) == list(enumerate_partitions(n))

    def test_parts_must_fit_a_byte(self, monkeypatch):
        monkeypatch.setenv("TCORELAB_MAX_N", "300")
        with pytest.raises(ValueError, match="^a weight table holds weights up to 127, not 128$"):
            tables.WeightTable(128).total()
        # every column is a signed byte
        assert {column.typecode for column in tables.WeightTable(30).columns(
            "dyson-rank", "charge:11:0")} == {"b"}

    def test_every_read_checks_the_bound(self, monkeypatch):
        table = tables.WeightTable(24)
        table.columns("srank")
        monkeypatch.setenv("TCORELAB_MAX_N", "20")
        message = "enumeration of partitions of 24 exceeds the bound 20"
        for read in (table.total, table.partitions, lambda: table.columns("srank"),
                     lambda: table.joint("srank")):
            with pytest.raises(BoundExceededError, match=message):
                read()


def alpha_box_counts(order: int) -> list[int]:
    """Reference for verify._alpha_form_counts: every 5-tuple of the box
    |a_i| <= isqrt(2*order) + 2 with sum 1, no pruning."""
    counts = [0] * order
    bound = math.isqrt(2 * order) + 2
    box = range(-bound, bound + 1)
    for a0, a1, a2, a3 in itertools.product(box, repeat=4):
        a4 = 1 - a0 - a1 - a2 - a3
        if abs(a4) > bound:
            continue
        alpha = (a0, a1, a2, a3, a4)
        twice_q = sum((alpha[i] - alpha[(i + 1) % 5]) ** 2 for i in range(5))
        if twice_q % 2 == 0 and twice_q // 2 < order:
            counts[twice_q // 2] += 1
    return counts


def test_alpha_form_counts_match_the_box():
    for order in range(1, 41):
        assert verify._alpha_form_counts(order) == alpha_box_counts(order), order


@functools.cache
def filter_count(n: int, t: int) -> int:
    return sum(1 for p in enumerate_partitions(n) if is_t_core(p, t))


@functools.cache
def five_cores_by_enumeration(max_weight: int) -> list:
    return [p for n in range(max_weight + 1) for p in enumerate_partitions(n)
            if is_t_core(p, 5)]


# The labels of the checks' 5-core counts, and the statistics they count
# computed on the cores as partitions; the crank is defined on the weights
# 4 (mod 5) only.
CORE_LABELS = {
    "srank-mod-4": verify._SRANK_MOD4,
    "five-core-crank": verify._CRANK,
    "bg-rank": verify._BG_RANK,
}
PARTITION_CORE_COLUMNS = {
    "srank-mod-4": lambda p: stats.srank(p) % 4,
    "five-core-crank": lambda p: stats.five_core_crank(p) if p.weight % 5 == 4 else None,
    "bg-rank": stats.bg_rank,
}


class TestCoreTally:
    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 7), limit=st.integers(-1, 24))
    def test_weight_counts_match_the_partition_filter(self, t, limit):
        tally = cores.core_vector_counts(t, limit, (operator.mul, t))
        assert all((w - residue) % t == 0 for w, residue in tally)
        counts = verify._sum_down(tally, 0)
        # the lattice count stops at the limit
        assert max(counts, default=-1) <= limit
        for n in range(limit + 1):
            assert counts[n] == filter_count(n, t), (t, n)

    @settings(max_examples=30, deadline=None)
    @given(
        limit=st.integers(-1, 30),
        names=st.sampled_from([("srank-mod-4", "five-core-crank"), ("bg-rank",),
                               ("five-core-crank", "bg-rank", "srank-mod-4")]),
    )
    def test_five_core_columns_match_the_partition_route(self, limit, names):
        tally = cores.core_vector_counts(5, limit, *(CORE_LABELS[name] for name in names))
        counted = Counter()
        for (w, *values), c in tally.items():
            counted[(w, *(None if name == "five-core-crank" and w % 5 != 4 else v
                          for name, v in zip(names, values)))] += c
        expected = Counter(
            (p.weight, *(PARTITION_CORE_COLUMNS[name](p) for name in names))
            for p in five_cores_by_enumeration(30) if p.weight <= limit)
        assert counted == expected


class TestRegistry:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify.run_check("CHK-NOPE")

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            verify.run_check("CHK-RAMBEST", bogus=3)

    def test_reports_are_stable(self):
        a = verify.run_check("CHK-RAMBEST", order=12)
        tables.clear_memo()
        b = verify.run_check("CHK-RAMBEST", order=12)
        assert a.to_json() == b.to_json()

    def test_counterexample_search(self):
        report = verify.search_counterexample("ab5jr", 60)
        assert report.status == "counterexample-found"
        assert report.ok()
        # pinned regression value from the scan: the lone 5-core of weight 0
        assert report.witness == {"n": 0, "r": 0, "j": 0, "weight": 0, "count": 1}

    def test_search_doubles_its_bound(self, monkeypatch):
        # the scan counts to 4, 8, 16, ... and stops at the first count that
        # holds a class off 0 (mod 5) on a weight 5n+r, r < 4: the smallest,
        # as one scan to the full bound finds it
        classes = Counter({(w, 0): 5 for w in range(40)})
        classes.update({(9, 1): 1, (11, 2): 3, (11, 1): 4, (30, 0): 1})
        bounds = []

        def tally(t, limit, *labels):
            bounds.append(limit)
            return Counter({k: c for k, c in classes.items() if k[0] <= limit})

        monkeypatch.setattr(verify, "core_vector_counts", tally)
        witness = {"n": 2, "r": 1, "j": 1, "weight": 11, "count": 4}
        assert verify._scan_bg_counterexample(100000) == witness
        assert bounds == [4, 8, 16]
        bounds.clear()
        assert verify._scan_bg_counterexample(10) is None
        assert bounds == [4, 8, 10]

    def test_search_empty_bounds_fails_to_find(self):
        report = verify._scan_bg_counterexample(-1)
        assert report is None

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify.search_counterexample("nope", 10)

    def test_reports_do_not_depend_on_check_order(self):
        # the checks share per-weight tables; each order starts from empty ones
        bounds = {
            "CHK-ANDREWS": {"max_n": 19},
            "CHK-THM1": {"max_n": 19},
            "CHK-THM2": {"max_n": 19, "joint_n": 12},
            "CHK-THM3": {"max_n": 19},
            "CHK-G2": {"order": 14},
            "CHK-LEMMA1": {"order": 12},
            "CHK-THM5": {"max_n": 16},
            "CHK-COR5": {"max_n": 16},
            "CHK-FJ": {"order": 14, "xi_order": 30},
            # the 5-core count readers: 5CORE, REFINE and A50 count to
            # weights 104, 104 and 100, AB5JR stops at its first BG-rank
            # count, to 4, and AB5J4 counts to 24; none is kept
            "CHK-5CORE": {"order": 10, "psift_order": 10, "rel_n": 10},
            "CHK-A50": {"max_arg": 100, "form4_n": 20, "map_n": 10},
            "CHK-REFINE": {"refine_n": 20, "theta_n": 20, "invar_n": 10},
            "CHK-TCOREGF": {"order": 20, "enum_n": 12, "t_min": 2, "t_max": 5},
            "CHK-AB5JR": {"max_weight": 21},
            "CHK-AB5J4": {"max_weight": 24},
        }
        runs = []
        for order in (list(bounds), list(reversed(bounds))):
            tables.clear_memo()
            runs.append({cid: verify.run_check(cid, **bounds[cid]).to_json()
                         for cid in order})
        assert runs[0] == runs[1]
        expected = {cid: "counterexample-found" if cid in verify.EXPECTED_COUNTEREXAMPLE
                    else "pass" for cid in bounds}
        assert {cid: report["status"] for cid, report in runs[0].items()} == expected

    def test_clear_memo_empties_every_cache(self):
        verify.run_check("CHK-THM5", max_n=12)
        verify.run_check("CHK-AB5JR", max_weight=20)
        table = tables.weight_table(12)
        tables.clear_memo()
        caches = [
            (name, attr) for name, module in sys.modules.items()
            if name == "tcorelab" or name.startswith("tcorelab.")
            for attr, obj in vars(module).items()
            if callable(getattr(obj, "cache_info", None))
        ]
        assert caches
        for name, attr in caches:
            assert getattr(sys.modules[name], attr).cache_info().currsize == 0, (name, attr)
        assert tables.weight_table(12) is not table

    def test_five_core_checks_size_their_table(self):
        # both bounds read 5-core weights past 524, where the counts at the
        # checks' defaults stop; each count runs to its check's own bound
        assert verify.run_check("CHK-REFINE", theta_n=105).status == "pass"
        assert verify.run_check("CHK-A50", form4_n=131).status == "pass"

    def test_value_error_in_a_check_is_an_error_report(self, monkeypatch):
        tables.clear_memo()
        monkeypatch.setenv("TCORELAB_MAX_N", "20")
        report = verify.run_check("CHK-RAM5", max_n=30)
        assert report.to_json() == {
            "id": "CHK-RAM5", "params": {"max_n": 30, "order": 200}, "status": "error",
            "witness": {"error": "enumeration of partitions of 24 exceeds the bound 20"}}
        assert not report.ok()
        # the outcome depends on the bound, not only on the parameters
        monkeypatch.delenv("TCORELAB_MAX_N")
        assert verify.run_check("CHK-RAM5", max_n=30).status == "pass"
        tables.clear_memo()

    def test_each_weight_is_enumerated_once(self, monkeypatch):
        # the 23 enumeration checks and CHK-TCOREGF's filter route at weights
        # <= 14, in two orders: the first read of a weight packs it (from the
        # lower weights' tables), every later read replays it, and no check
        # reaches enumerate_partitions through any module
        bounds = {
            "CHK-RAM5": {"max_n": 14}, "CHK-RAM7": {"max_n": 12},
            "CHK-RAM11": {"max_n": 14},
            "CHK-DYSON": {"max_n5": 14, "max_n7": 12},
            "CHK-AG": {"max_n5": 14, "max_n7": 12, "max_n11": 14},
            "CHK-CRANKGF": {"order": 14}, "CHK-GREF5": {"max_n": 14},
            "CHK-RSGF": {"order": 14}, "CHK-P02PROD": {"order": 14},
            "CHK-ANDREWS": {"max_n": 14}, "CHK-SRANKPROD": {"order": 14},
            "CHK-LEMMA1": {"order": 14}, "CHK-THM1": {"max_n": 14},
            "CHK-THM2": {"max_n": 14, "joint_n": 14}, "CHK-G2": {"order": 14},
            "CHK-ORBIT": {"max_n": 14}, "CHK-THM3": {"max_n": 14},
            "CHK-ELEGANT": {"max_n": 14}, "CHK-SRTQ": {"max_n": 12},
            "CHK-STRIP": {"max_n": 10}, "CHK-BGRALT": {"max_n": 14},
            "CHK-THM5": {"max_n": 14}, "CHK-COR5": {"max_n": 14},
            "CHK-TCOREGF": {"order": 20, "enum_n": 12, "t_min": 2, "t_max": 7},
        }
        calls = Counter()
        pack = tables.WeightTable._pack

        def counting(table):
            calls[table.n] += 1
            return pack(table)

        def trap(n):
            raise AssertionError(f"enumerate_partitions({n}) called by a check")

        monkeypatch.setattr(tables.WeightTable, "_pack", counting)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tcorelab" and hasattr(module, "enumerate_partitions"):
                monkeypatch.setattr(module, "enumerate_partitions", trap)
        for order in (list(bounds), list(reversed(bounds))):
            tables.clear_memo()
            calls.clear()
            try:
                statuses = {cid: verify.run_check(cid, **bounds[cid]).status
                            for cid in order}
            finally:
                tables.clear_memo()
            assert statuses == dict.fromkeys(order, "pass")
            assert calls == Counter(range(15))

    def test_a_warm_table_keeps_the_bound(self, monkeypatch):
        # a check reads the same error whether the tables are cold or were
        # filled under a higher bound, by the same parameters or larger ones
        tables.clear_memo()
        monkeypatch.setenv("TCORELAB_MAX_N", "20")
        witness = {"error": "enumeration of partitions of 24 exceeds the bound 20"}
        warm = []
        try:
            cold = verify.run_check("CHK-ANDREWS", max_n=29)
            for unbounded_n in (29, 34):
                monkeypatch.delenv("TCORELAB_MAX_N")
                assert verify.run_check("CHK-ANDREWS", max_n=unbounded_n).status == "pass"
                monkeypatch.setenv("TCORELAB_MAX_N", "20")
                warm += [verify.run_check(cid, max_n=29) for cid in ("CHK-ANDREWS", "CHK-RAM5")]
        finally:
            tables.clear_memo()
        for report in (cold, *warm):
            assert (report.status, report.witness) == ("error", witness), report.check_id

    def test_orbit_reads_the_beads_once_per_partition(self, monkeypatch):
        # 19,110 partitions of 4, 9, ..., 34; the crank column reads charges only
        calls = Counter()
        reading = cores._charges_and_bead_parts

        def counting(p, t):
            calls[t] += 1
            return reading(p, t)

        tables.clear_memo()
        monkeypatch.setattr(cores, "_charges_and_bead_parts", counting)
        try:
            assert verify.run_check("CHK-ORBIT", max_n=34).status == "pass"
        finally:
            tables.clear_memo()
        assert calls == {5: 19110}

    @pytest.mark.parametrize("fault", ORBIT_FAULTS)
    def test_orbit_fault_witnesses(self, fault, monkeypatch):
        images, witness = ORBIT_FAULTS[fault]
        tables.clear_memo()
        monkeypatch.setattr(verify, "orbit_step", _key_level(images))
        try:
            report = verify.run_check("CHK-ORBIT", max_n=14)
        finally:
            tables.clear_memo()
        assert (report.status, report.witness) == ("fail", witness)

    @pytest.mark.parametrize("fault", DECOMPOSITION_FAULTS)
    def test_decomposition_fault_witnesses(self, fault, monkeypatch):
        check_id, bounds, module, name, fake, witness = DECOMPOSITION_FAULTS[fault]
        monkeypatch.setattr(module, name, fake)
        report = verify.run_check(check_id, **bounds)
        assert (report.status, report.witness) == ("fail", witness)

    @pytest.mark.parametrize("statistic", ["st-crank", "srank", "ag-crank", "two-quotient-rank"])
    def test_fault_injected_witnesses(self, statistic, monkeypatch):
        # reports with one statistic replaced by a constant, recorded before
        # the checks raised their witnesses instead of returning them; a
        # folded column calls no kernel, so the column is filled with the
        # constant at every weight the checks read
        expected = json.loads((GOLDEN / "fault_witnesses.json").read_text())[statistic]
        tables.clear_memo()
        monkeypatch.setitem(stats.STATISTICS, statistic, lambda p: 2)
        for n in range(18):
            table = tables.weight_table(n)
            table.filled[statistic] = array("b", [2] * table.total())
        try:
            reports = {cid: verify.run_check(cid, **report["params"]).to_json()
                       for cid, report in expected.items()}
        finally:
            tables.clear_memo()
        assert reports == expected

    def test_dyson_reads_the_rank_column(self):
        # the ranks of 4, 3+1, 2+2, 2+1+1 and 1+1+1+1 are 3, 1, 0, -1, -3, one
        # in each class mod 5; a first rank read as 0 doubles class 0
        tables.clear_memo()
        try:
            tables.weight_table(4).columns("dyson-rank")[0][0] = 0
            report = verify.run_check("CHK-DYSON", max_n5=9, max_n7=12)
        finally:
            tables.clear_memo()
        assert (report.status, report.witness) == (
            "fail", {"n": 4, "class": 0, "count": 2, "expected": 1})

    @pytest.mark.parametrize("check_id", ["CHK-TCOREGF", "CHK-THM4", "CHK-SRTQ"])
    def test_reversed_t_bounds_are_rejected(self, check_id):
        # an empty t range would pass the check vacuously
        with pytest.raises(ValueError, match=f"^check {check_id} needs t_min <= t_max, "
                                             "got 5 > 4$"):
            verify.run_check(check_id, t_min=5, t_max=4)

    @pytest.mark.parametrize("check_id, bounds, message", [
        ("CHK-RAM7", {"max_n": 4}, "bound 4 is below 5, the first weight 7n+5"),
        ("CHK-DYSON", {"max_n7": 4}, "bound 4 is below 5, the first weight 7n+5"),
        ("CHK-AG", {"max_n11": 5}, "bound 5 is below 6, the first weight 11n+6"),
        ("CHK-GREF5", {"max_n": 3}, "bound 3 is below 4, the first weight 5n+4"),
        ("CHK-ANDREWS", {"max_n": 3}, "bound 3 is below 4, the first weight 5n+4"),
        ("CHK-THM3", {"max_n": 0}, "bound 0 is below 4, the first weight 5n+4"),
        ("CHK-ORBIT", {"max_n": 2}, "bound 2 is below 4, the first weight 5n+4"),
        ("CHK-AB5J4", {"max_weight": 3}, "bound 3 is below 4, the first weight 5n+4"),
    ])
    def test_a_bound_below_the_first_weight_is_an_error(self, check_id, bounds, message):
        report = verify.run_check(check_id, **bounds)
        assert (report.status, report.witness) == ("error", {"error": message})

    def test_tcoregf_filter_fault_witness(self, monkeypatch):
        # the filter route misreads the 2-core (2, 1) as no core; the series
        # and n-vector routes still agree, so the filter count is the witness
        is_core = verify.is_t_core

        def misread(p, t):
            return is_core(p, t) and not (t == 2 and p == (2, 1))

        monkeypatch.setattr(verify, "is_t_core", misread)
        report = verify.run_check("CHK-TCOREGF", order=20, enum_n=12)
        assert (report.status, report.witness) == (
            "fail", {"t": 2, "n": 3, "filtered": 0, "vectors": 1})

    def test_tcoregf_series_fault_witness(self, monkeypatch):
        # a stray q^7 in the 3-core product; the n-vector count is the witness
        t_core_series = verify.t_core_series

        def stray(t, order):
            series = t_core_series(t, order)
            if t == 3:
                return series + Series(INT, order, [0] * 7 + [1])
            return series

        monkeypatch.setattr(verify, "t_core_series", stray)
        report = verify.run_check("CHK-TCOREGF", order=20, enum_n=12)
        assert (report.status, report.witness) == (
            "fail", {"t": 3, "n": 7, "series": 1, "vectors": 0})

    def test_tcoregf_residue_fault_witness(self, monkeypatch):
        # one 4-core of weight 6 counted under residue 3, not 6 mod 4
        counts = verify.core_vector_counts

        def off_residue(t, max_weight, *labels):
            tally = counts(t, max_weight, *labels)
            if t == 4:
                tally[(6, 2)] -= 1
                tally[(6, 3)] += 1
            return tally

        monkeypatch.setattr(verify, "core_vector_counts", off_residue)
        report = verify.run_check("CHK-TCOREGF", order=20, enum_n=12)
        assert (report.status, report.witness) == (
            "fail", {"t": 4, "weight": 6, "reason": "weight residue mismatch"})

    @pytest.mark.parametrize("check_id", ["CHK-TCOREGF", "CHK-THM4", "CHK-SRTQ"])
    @pytest.mark.parametrize("t_min", [0, 1])
    def test_t_below_two_is_an_error(self, check_id, t_min):
        report = verify.run_check(check_id, t_min=t_min, t_max=2)
        assert (report.status, report.witness) == (
            "error", {"error": "t must be at least 2"})

    @pytest.mark.parametrize("fault", THM3_FAULTS)
    def test_thm3_fault_witnesses(self, fault, monkeypatch):
        # each perturbed copy of the weight-9 orbit table breaks one of the
        # four structural facts that CHK-THM3 reads off it
        perturb, witness = THM3_FAULTS[fault]
        data = tables.table2_json(9)
        perturb(data["orbits"])
        monkeypatch.setattr(verify, "table2_json", lambda n: data)
        report = verify.run_check("CHK-THM3", max_n=9)
        assert (report.status, report.witness) == ("fail", witness)

    def test_cor5_fault_witness(self):
        # every partition of 4 has BG-rank 0; one read as 1 leaves a class
        # of one
        tables.clear_memo()
        try:
            tables.weight_table(4).columns("bg-rank")[0][0] = 1
            report = verify.run_check("CHK-COR5", max_n=9)
        finally:
            tables.clear_memo()
        assert (report.status, report.witness) == ("fail", {"n": 4, "j": 1, "count": 1})

    def test_ab5j4_fault_witness(self, monkeypatch):
        # the five 5-cores of weight 9 and BG-rank 1, counted as six
        counts = verify.core_vector_counts

        def off_by_one(t, limit, *labels):
            tally = counts(t, limit, *labels)
            tally[(9, 1)] += 1
            return tally

        monkeypatch.setattr(verify, "core_vector_counts", off_by_one)
        report = verify.run_check("CHK-AB5J4", max_weight=24)
        assert (report.status, report.witness) == ("fail", {"weight": 9, "j": 1, "count": 6})

    def test_g3_tally_reads_the_family_columns(self):
        # one 3-quotient part count off by one at weight 5, below the tally
        # order, shifts that partition's terms by x^3
        tables.clear_memo()
        try:
            tables.weight_table(5).columns("quotient-parts:3:1")[0][0] += 1
            report = verify.run_check("CHK-G3")
        finally:
            tables.clear_memo()
        assert (report.status, report.witness) == ("fail", {"route": "tally", "q_power": 5})

    def test_g3_n_vector_sum_reads_q3(self, monkeypatch):
        # the 3-core with n-vector (-1, 1, 0) moved from weight 4 to 5: the
        # n-vector sum no longer equals the crank product times the legs
        q3 = verify.q3
        monkeypatch.setattr(verify, "q3", lambda n1, n2: q3(n1, n2) + ((n1, n2) == (1, 0)))
        report = verify.run_check("CHK-G3")
        assert (report.status, report.witness) == (
            "fail", {"route": "n-vector-sum", "q_power": 4})

    def test_fj_cyclotomic_route_reads_the_theta_form(self, monkeypatch):
        # one stray xi q^6 in the theta form: the cyclotomic product times
        # (q^10;q^10) no longer matches it there
        xi_theta = verify._xi_theta

        def perturbed(order):
            return xi_theta(order) + Series.from_terms(CYC5, order, [(6, CYC5.xi(1))])

        monkeypatch.setattr(verify, "_xi_theta", perturbed)
        report = verify.run_check("CHK-FJ", order=10, xi_order=20)
        assert (report.status, report.witness) == ("fail", {"route": "cyclotomic", "q_power": 6})

    @pytest.mark.parametrize("check_id, name, bounds, route", [
        ("CHK-5CORE", "theta_vector", {"order": 10, "psift_order": 10, "rel_n": 10}, "theta"),
        ("CHK-A50", "quadruple_shift_vector", {"max_arg": 40, "form4_n": 10, "map_n": 10},
         "map"),
    ])
    def test_core_map_witnesses(self, check_id, name, bounds, route, monkeypatch):
        step = getattr(verify, name)
        first = {}

        def collapsed(vec):
            # the image of the first vector of the same weight: weight and
            # class are kept, injectivity is lost
            return step(first.setdefault(core_weight_from_vector(vec), vec))

        for fake, witness in (
            (lambda vec: vec, {"route": f"{route}-weight", "n": 0, "vector": [0, 0, 0, 0, 0]}),
            (collapsed, {"route": f"{route}-injective", "n": 2}),
        ):
            tables.clear_memo()
            monkeypatch.setattr(verify, name, fake)
            try:
                report = verify.run_check(check_id, **bounds)
            finally:
                tables.clear_memo()
            assert (report.status, report.witness) == ("fail", witness)
        monkeypatch.setattr(verify, name, step)
        assert verify.run_check(check_id, **bounds).status == "pass"

    def test_registry_ids_are_prefixed(self):
        assert all(cid.startswith("CHK-") for cid in verify.REGISTRY)
        assert len(verify.REGISTRY) >= 30


class TestCli:
    def test_stat(self, capsys):
        assert main(["stat", "--stat", "srank", "--partition", "5,3,1,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 2

    def test_stat_empty_partition(self, capsys):
        assert main(["stat", "--stat", "ag-crank", "--partition", ""]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0

    def test_decompose(self, capsys):
        assert main(["decompose", "--t", "5", "--partition", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["core"]["parts"] == [4]
        assert out["quotient"][3]["parts"] == [1]

    def test_table_text(self, capsys):
        assert main(["table", "--name", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table 1")
        assert "(3^3)" in out

    def test_table_json(self, capsys):
        assert main(["table", "--name", "table2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["orbits"]) == 6

    def test_verify_single(self, capsys):
        assert main(["verify", "--check", "CHK-RAMBEST", "--order", "12"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["status"] == "pass"
        assert "PASS CHK-RAMBEST" in captured.err

    def test_verify_tcoregf_at_an_order_below_enum_n(self, capsys):
        # enum_n = 30 reads n-vector counts past order - 1
        assert main(["verify", "--check", "CHK-TCOREGF", "--order", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"

    @pytest.mark.parametrize("check_id, order, message", [
        ("CHK-RAM5", 30, "max_n 49 reaches p(49), past the series order 30"),
        ("CHK-RAM7", 30, "max_n 47 reaches p(47), past the series order 30"),
        ("CHK-RAM11", 30, "max_n 50 reaches p(50), past the series order 30"),
        ("CHK-5CORE", 0, "CHK-5CORE needs order >= 1, got 0"),
        ("CHK-FJ", 0, "order must be positive"),
        # the q-powers 5n+4 below the order: none below 4
        ("CHK-COEFFZ", 4, "bound 3 is below 4, the first weight 5n+4"),
    ], ids=["CHK-RAM5", "CHK-RAM7", "CHK-RAM11", "CHK-5CORE", "CHK-FJ", "CHK-COEFFZ"])
    def test_verify_order_out_of_bounds_is_usage_error(self, check_id, order, message,
                                                        capsys):
        assert main(["verify", "--check", check_id, "--order", str(order)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["witness"] == {"error": message}
        assert captured.err == f"error: {check_id}: {message}\n"

    def test_verify_below_the_first_weight_is_usage_error(self, capsys):
        # 5n+4 <= 3 holds for no n, so the check would test no weight; nor
        # does a weight <= 3 hold a BG-rank class that CHK-THM5 or CHK-COR5
        # tests
        for check_id, message in [
            ("CHK-THM1", "bound 3 is below 4, the first weight 5n+4"),
            ("CHK-THM5", "bound 3 is below 4, the first weight tested"),
            ("CHK-COR5", "bound 3 is below 4, the first weight tested"),
        ]:
            assert main(["verify", "--check", check_id, "--max-n", "3"]) == 2
            captured = capsys.readouterr()
            assert json.loads(captured.out)["witness"] == {"error": message}
            assert captured.err == f"error: {check_id}: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--check", "CHK-RAM5", "--max-n", "-1"], "CHK-RAM5 needs max_n >= 0, got -1"),
        (["verify", "--check", "CHK-THM2", "--max-n", "-4"], "CHK-THM2 needs max_n >= 0, got -4"),
        (["search", "--family", "ab5jr", "--max-weight", "-5"],
         "CHK-AB5JR needs max_weight >= 0, got -5"),
    ], ids=["CHK-RAM5", "CHK-THM2", "search"])
    def test_negative_bound_is_usage_error(self, argv, message, capsys):
        # an empty range would pass the check vacuously
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: check {message}\n"

    @pytest.mark.parametrize("ids", [["CHK-RSGF", "CHK-STRIP"], ["CHK-STRIP", "CHK-RSGF"]],
                             ids=["bounded-last", "bounded-first"])
    def test_negative_bound_runs_nothing(self, ids, capsys):
        # CHK-RSGF takes no max_n; CHK-STRIP's bound fails before either runs
        argv = ["verify"] + [arg for check_id in ids for arg in ("--check", check_id)]
        assert main(argv + ["--max-n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check CHK-STRIP needs max_n >= 0, got -1\n"

    def test_verify_unknown_check(self, capsys):
        assert main(["verify", "--check", "CHK-NOPE"]) == 2

    @pytest.mark.parametrize("ids", [["CHK-RAM5", "CHK-NOPE"], ["CHK-NOPE", "CHK-RAM5"]],
                             ids=["known-first", "unknown-first"])
    def test_verify_unknown_check_runs_nothing(self, ids, capsys):
        # every id is checked before any check runs, whatever the order
        argv = ["verify"] + [arg for check_id in ids for arg in ("--check", check_id)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown check id 'CHK-NOPE'\n"

    def test_verify_reports_an_error_and_goes_on(self, capsys, monkeypatch):
        tables.clear_memo()
        monkeypatch.setenv("TCORELAB_MAX_N", "20")
        argv = ["verify", "--check", "CHK-RAMBEST", "--check", "CHK-RAM5",
                "--check", "CHK-JTP", "--max-n", "30"]
        try:
            assert main(argv) == 2
        finally:
            tables.clear_memo()
        captured = capsys.readouterr()
        reports = [json.loads(line) for line in captured.out.splitlines()]
        assert [(r["id"], r["status"]) for r in reports] == [
            ("CHK-RAMBEST", "pass"), ("CHK-RAM5", "error"), ("CHK-JTP", "pass")]
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: CHK-RAM5: enumeration of partitions of 24 exceeds the bound 20"]

    def test_verify_counterexample_counts_as_pass(self, capsys):
        assert main(["verify", "--check", "CHK-AB5JR"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "counterexample-found"

    def test_search(self, capsys):
        assert main(["search", "--family", "ab5jr", "--max-weight", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["witness"]["weight"] == 0

    def test_series_integer(self, capsys):
        assert main(["series", "--expr", "partition-gf", "--order", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["coefficients"] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_series_tcore(self, capsys):
        assert main(["series", "--expr", "tcore-gf:5", "--order", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["coefficients"][4] == 5

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_series_tcore_needs_t_at_least_one(self, t, capsys):
        assert main(["series", "--expr", f"tcore-gf:{t}", "--order", "5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: t must be at least 1\n")

    def test_series_tcore_one(self, capsys):
        # the only 1-core is the empty partition
        assert main(["series", "--expr", "tcore-gf:1", "--order", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["coefficients"] == [1, 0, 0, 0, 0]

    def test_series_laurent_json(self, capsys):
        assert main(["series", "--expr", "crank-gf", "--order", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        # q^1 coefficient of the crank product is x + 1/x - 1
        assert {"monomial": {"x": 1}, "coeff": 1} in out["coefficients"][1]
        assert {"monomial": {"x": -1}, "coeff": 1} in out["coefficients"][1]
        assert {"monomial": {}, "coeff": -1} in out["coefficients"][1]

    SERIES_GOLDEN = json.loads((GOLDEN / "series.json").read_text())

    @pytest.mark.parametrize("expr", sorted(SERIES_GOLDEN))
    def test_series_matches_golden(self, expr, capsys):
        # every named expression at order 30, byte for byte
        assert main(["series", "--expr", expr, "--order", "30"]) == 0
        assert capsys.readouterr().out == self.SERIES_GOLDEN[expr]

    def test_series_unknown(self, capsys):
        assert main(["series", "--expr", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["stat", "--stat", "five-core-crank", "--partition", "5"],
        ["stat", "--stat", "srank", "--partition", "a,b"],
        ["decompose", "--t", "1", "--partition", "3,1"],
        ["table", "--name", "table2", "--weight", "10"],
    ])
    def test_value_error_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "tcorelab", "stat", "--stat", "srank", "--partition", "3,1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["value"] == 0

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["table"])
        assert exc.value.code == 2
