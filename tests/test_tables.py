"""Weight tables against the enumeration, and table rendering against the
golden transcriptions.

A weight table packs its partitions and folds its statistic columns from
the lower weights' tables.  `enumerate_partitions` and the statistic kernels
or slower definitions stay the oracles: the packed bytes and the suffix
starts are held to the enumeration at every weight up to 30, and every
folded column to its kernel or definition over the replayed partitions,
whatever order the weights and columns are filled in.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcorelab import stats, tables
from tcorelab.cores import phi1, phi2
from tcorelab.partitions import BoundExceededError, Partition, enumerate_partitions

GOLDEN = Path(__file__).parent / "golden"


def family_oracles(t: int) -> dict:
    # the n-vector of the t-core, and the component part counts of the
    # t-quotient
    return {
        **{f"charge:{t}:{i}": lambda p, i=i: phi2(phi1(p, t).core, t)[i] for i in range(t)},
        **{f"quotient-parts:{t}:{i}": lambda p, i=i: len(phi1(p, t).quotient[i])
           for i in range(t)},
    }


FAMILY_ORACLES = {name: oracle for t in range(2, 12) for name, oracle in family_oracles(t).items()}

# The definition of every folded column.
FOLD_ORACLES = {
    "part-count": len,
    "odd-parts": lambda p: p.odd_part_count(),
    "conjugate-odd-parts": lambda p: p.conjugate().odd_part_count(),
    "srank": stats.srank,
    "dyson-rank": stats.dyson_rank,
    "has-repeated-even-part": stats.has_repeated_even_part,
    "one-parts": lambda p: p.count(1),
    "ag-crank": stats.ag_crank,
    **FAMILY_ORACLES,
    "five-core-crank": stats.five_core_crank,
    "two-quotient-rank": lambda p: len(phi1(p, 2).quotient[0]) - len(phi1(p, 2).quotient[1]),
    # the even-pair extraction bijection1(p)[0], and the type-B test
    "largest-part-odd-multiplicity": lambda p: p.count(p.largest) % 2,
    "extraction-ag-crank": lambda p: stats.ag_crank(stats.bijection1(p)[0]),
    "extraction-one-parts": lambda p: stats.bijection1(p)[0].count(1),
    "st-crank": lambda p: (stats.ag_crank(stats.bijection1(p)[0]) + stats.is_type_b(p)
                           + (p.odd_part_count() - p.conjugate().odd_part_count()) // 2),
}


def oracle_column(n: int, name: str) -> list[int]:
    return [int(FOLD_ORACLES[name](p)) for p in enumerate_partitions(n)]


def readable(n: int, name: str) -> bool:
    return n % 5 == 4 or name != "five-core-crank"


@pytest.fixture
def cold():
    tables.clear_memo()
    yield
    tables.clear_memo()


def test_every_fold_has_an_oracle():
    assert set(FOLD_ORACLES) == set(tables.FOLDS)


def test_packing_matches_the_enumeration(cold):
    for n in range(31):
        table = tables.weight_table(n)
        expected = list(enumerate_partitions(n))
        assert table.total() == len(expected)
        assert table.packed == b"\0".join(map(bytes, expected)), n
        # the partitions with largest part <= b start at firsts[b], offsets[b]
        for b in range(n + 1):
            first = sum(1 for p in expected if p and p[0] > b)
            assert table.firsts[b] == first, (n, b)
            assert table.offsets[b] == sum(len(p) + 1 for p in expected[:first]), (n, b)


def test_five_core_crank_fold_at_every_weight_4_mod_5(cold):
    for n in range(4, 35, 5):
        table = tables.weight_table(n)
        expected = list(map(stats.five_core_crank, table.partitions()))
        assert list(table.columns("five-core-crank")[0]) == expected, n


@pytest.mark.parametrize("weights", [range(19), range(18, -1, -1)], ids=["rising", "falling"])
def test_family_columns_match_the_decomposition(cold, weights):
    # every member for t = 2..11, filled weight by weight, up or down,
    # against one phi1 per partition and t
    for n in weights:
        partitions = list(enumerate_partitions(n))
        for t in range(2, 12):
            expected = [(*phi2(cq.core, t), *map(len, cq.quotient))
                        for cq in (phi1(p, t) for p in partitions)]
            columns = tables.weight_table(n).columns(*family_oracles(t))
            assert list(zip(*columns)) == expected, (n, t)


def test_bg_rank_reads_the_first_two_core_charge(cold):
    for n in range(26):
        table = tables.weight_table(n)
        bg, = table.columns("bg-rank")
        assert bg is table.columns("charge:2:0")[0]
        assert list(bg) == list(map(stats.bg_rank, table.partitions())), n
        assert "bg-rank" not in table.filled


def test_five_core_crank_needs_weight_4_mod_5(cold):
    for n in (0, 3, 10):
        with pytest.raises(ValueError, match=f"^weight {n} is not 4 \\(mod 5\\)$"):
            tables.weight_table(n).columns("srank", "five-core-crank")


def test_an_unknown_column_is_a_value_error(cold):
    # raised before the weight is packed, not a KeyError from FOLDS
    table = tables.weight_table(5)
    with pytest.raises(ValueError, match="^no column named 'no-such-stat'$"):
        table.columns("srank", "no-such-stat")
    assert table.packed is None
    assert table.filled == {}


@pytest.mark.parametrize("weights", [range(26), range(25, -1, -1)], ids=["rising", "falling"])
def test_folded_columns_match_their_definitions(cold, weights):
    # filled weight by weight, up or down, the columns in either order; the
    # family has its own test, one phi1 per partition and t
    names = sorted(tables.FOLDS.keys() - FAMILY_ORACLES.keys())
    for n in weights:
        for name in names if n % 2 else reversed(names):
            if readable(n, name):
                assert list(tables.weight_table(n).columns(name)[0]) == oracle_column(n, name)


@settings(max_examples=40, deadline=None)
@given(requests=st.lists(st.tuples(st.integers(0, 22), st.sampled_from(sorted(tables.FOLDS)),
                                   st.booleans()), min_size=1, max_size=6))
def test_folds_are_cold_warm_and_cleared_alike(requests):
    # each request reads one column of one weight, after clearing the
    # process-wide tables or not; a fresh table reads the same
    tables.clear_memo()
    try:
        for n, name, clear in requests:
            if clear:
                tables.clear_memo()
            if not readable(n, name):
                continue
            warm = tables.weight_table(n).columns(name)[0]
            assert list(warm) == oracle_column(n, name), (n, name)
            assert tables.WeightTable(n).columns(name)[0] == warm
    finally:
        tables.clear_memo()


def fold_closure(name: str) -> set[str]:
    """Every column that folding `name` reads at some lower weight."""
    found: set[str] = set()
    todo = list(tables.FOLDS[name][0])
    while todo:
        source = todo.pop()
        if source not in found:
            found.add(source)
            todo += tables.FOLDS[source][0]
    return found


@settings(max_examples=40, deadline=None)
@given(reads=st.lists(st.tuples(st.integers(0, 25), st.sampled_from(sorted(tables.FOLDS))),
                      min_size=1, max_size=6))
def test_folds_fill_only_their_sources_below(reads):
    # a cold read of a folded column at n fills it at n and the closure of
    # its sources at every weight below n, nothing more, in any read order
    tables.clear_memo()
    expected: dict[int, set[str]] = {}
    try:
        for n, name in reads:
            if not readable(n, name):
                continue
            tables.weight_table(n).columns(name)
            expected.setdefault(n, set()).add(name)
            for m in range(n):
                expected.setdefault(m, set()).update(fold_closure(name))
        for n in range(26):
            assert set(tables.weight_table(n).filled) == expected.get(n, set()), n
    finally:
        tables.clear_memo()


def test_a_cold_fold_recurses_a_few_frames_deep(cold):
    # the weights below are filled from 0 up, so a cold read of weight 40
    # fits under a recursion limit a few dozen frames above the caller's; a
    # recursion of one frame per weight would not
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        crank = tables.weight_table(40).columns("ag-crank")[0]
    finally:
        sys.setrecursionlimit(limit)
    assert list(crank) == oracle_column(40, "ag-crank")


def test_a_fold_over_warm_weights_keeps_the_bound(cold, monkeypatch):
    for n in range(21):
        tables.weight_table(n).columns(*tables.FOLDS.keys() - {"five-core-crank"})
    monkeypatch.setenv("TCORELAB_MAX_N", "20")
    for n in (21, 24):
        for names in ((), ("srank",), ("five-core-crank",), ("st-crank",)):
            with pytest.raises(BoundExceededError, match=f"partitions of {n} exceeds the bound 20"):
                tables.weight_table(n).columns(*names)
        assert tables.weight_table(n).packed is None
    assert tables.weight_table(20).columns("srank")[0] == tables.WeightTable(20).columns("srank")[0]


def test_table1_matches_golden():
    assert tables.render_table1(9) == (GOLDEN / "table1.txt").read_text()


def test_table2_matches_golden():
    assert tables.render_table2(9) == (GOLDEN / "table2.txt").read_text()


def test_tables_render_quickly():
    start = time.perf_counter()
    tables.render_table1(9)
    tables.render_table2(9)
    assert time.perf_counter() - start < 1.0


def test_freq_notation():
    assert tables.freq_notation(Partition((5, 1, 1, 1, 1))) == "(1^4,5^1)"
    assert tables.freq_notation(Partition()) == "()"


def test_freq_notation_reads_lists():
    assert tables.freq_notation([5, 1, 1, 1, 1]) == "(1^4,5^1)"
    assert tables.freq_notation([]) == "()"
    with pytest.raises(ValueError, match="nonincreasing"):
        tables.freq_notation([1, 5])


def test_table1_structure():
    data = tables.table1_json(9)
    assert data["total"] == 30
    cells = {(row["srank_mod4"], row["st_crank_mod5"]): row["members"] for row in data["rows"]}
    for k in range(5):
        assert len(cells[(0, k)]) == 4
        assert len(cells[(2, k)]) == 2
    assert [3, 3, 3] in cells[(0, 0)]


def test_table2_structure():
    data = tables.table2_json(9)
    assert len(data["orbits"]) == 6
    first = data["orbits"][0]
    assert first["all_cores"]
    assert len(first["members"]) == 5
    # the single-cell quotient image of (9) sits in slot 3
    by_member = {
        tuple(m): a
        for ob in data["orbits"]
        for m, a in zip(ob["members"], ob["images"])
    }
    assert tuple(by_member[(9,)]["core"]) == (4,)
    assert by_member[(9,)]["slot"] == 3


def test_table_json_shapes():
    t1 = tables.table1_json(9)
    assert t1["total"] == 30
    assert len(t1["rows"]) == 10
    t2 = tables.table2_json(9)
    assert len(t2["orbits"]) == 6
    assert all(ob["c5"] == [0, 1, 2, 3, 4] for ob in t2["orbits"])


def test_table2_other_weight():
    data = tables.table2_json(14)
    members = [tuple(m) for ob in data["orbits"] for m in ob["members"]]
    assert len(members) == 135
    assert len(set(members)) == 135


def test_table2_needs_weight_4_mod_5():
    with pytest.raises(ValueError, match="^weight 10 is not 4 \\(mod 5\\)$"):
        tables.table2_json(10)
