"""Source-level rules that hold across the package."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from tcorelab import stats, tables

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tcorelab").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert, so invariants must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_global_statements(path):
    # every process-wide cache is an lru_cache, which clear_memo empties and
    # test_clear_memo_empties_every_cache finds; a rebound module global
    # would escape both
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name} has global statements on lines {lines}"


def test_checks_raise_their_mismatches():
    # a check body passes by returning None and reports a mismatch through
    # verify.fail; only the register wrapper builds (status, witness) pairs
    path = next(path for path in SOURCES if path.name == "verify.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or not any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "register"
                for d in func.decorator_list):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                found += [f"{func.name}:{node.lineno}" for t in ast.walk(node.value)
                          if isinstance(t, ast.Tuple) and t.elts
                          and isinstance(t.elts[0], ast.Constant)
                          and isinstance(t.elts[0].value, str)]
    assert found == [], f"check bodies return status tuples at {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_stdlib_only(path):
    # the runtime is stdlib-only with exact integers: no numpy or other
    # third-party package, even where one is installed
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"{name}:{node.lineno}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports non-stdlib modules: {outside}"


def test_every_statistic_column_is_folded():
    # a statistic outside tables.FOLDS would quietly replay every partition
    # of each weight through its kernel; an alias reads a folded column
    assert {tables.ALIASES.get(name, name) for name in stats.STATISTICS} <= set(tables.FOLDS)
    assert set(tables.ALIASES) <= set(stats.STATISTICS) - set(tables.FOLDS)


def test_one_core_family_for_every_t():
    # the t-core charges and the t-quotient's part counts are one family of
    # folds keyed by t, with no fold of its own for one t
    for name in ("_charge_fold", "_quotient_weight_fold", "_two_quotient_step",
                 "_CHARGES", "_TWO_QUOTIENT"):
        assert not hasattr(tables, name), name
    member = re.compile(r"(charge|quotient-parts):(\d+):(\d+)")
    named = {key for key in tables.FOLDS if re.search("charge|quotient|core", key)}
    members = {key for key in named if member.fullmatch(key)}
    assert named - members == {"two-quotient-rank", "five-core-crank"}
    for key in members:
        _, t, i = member.fullmatch(key).groups()
        assert 2 <= int(t) <= 11 and int(i) < int(t), key
    assert len(members) == sum(2 * t for t in range(2, 12))


def test_one_way_to_count_a_weight():
    # a check counts a weight through the table's columns (`columns`,
    # `joint`); tables.py keeps no second tally with filters of its own, and
    # no table of columns replayed through a function
    for name in ("FILTERS", "class_counts", "COLUMNS"):
        assert not hasattr(tables, name), name


def test_one_form_per_classification_table():
    # each table is built once, as its JSON; the text renderings read it,
    # and no second function that builds Partition-valued cells stays beside it
    for name in ("table1_data", "table2_data", "_member_annotation"):
        assert not hasattr(tables, name), name
    tree = ast.parse(Path(tables.__file__).read_text())
    calls = {node.name: {getattr(call.func, "id", None) for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "table1_json" in calls["render_table1"]
    assert "table2_json" in calls["render_table2"]


def test_only_the_weight_table_enumerates():
    # the weight tables are the one route to a weight's partitions, and they
    # enumerate nothing: each WeightTable packs its weight from the lower
    # weights' tables, and every reader replays a table.  No module but
    # partitions.py (which defines it) and __init__.py (which re-exports it)
    # names enumerate_partitions at all, by name, attribute or import;
    # enumerate_partitions stays public as the tests' oracle
    found = []
    for path in SOURCES:
        if path.name in ("partitions.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "enumerate_partitions"
                  or isinstance(node, ast.Attribute) and node.attr == "enumerate_partitions"
                  or isinstance(node, ast.alias) and node.name == "enumerate_partitions"]
    assert found == [], f"enumerate_partitions named at {found}"


def _names(path, names):
    """file:line of each definition, name, attribute or import of one of
    the names in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.alias) and node.name in names
            or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names]


def test_one_way_to_count_core_classes():
    # the t-cores are counted by class on their n-vector lattice, one label
    # per statistic (cores.core_vector_counts); no walk-and-cache tally stays
    # beside it, and the weight tables do not walk the n-vectors at all.
    # iter_core_vectors stays for the readers that need each vector
    found = [where for path in SOURCES
             for where in _names(path, {"core_tally", "_core_tally", "CORE_COLUMNS"})]
    assert found == [], f"a second t-core tally at {found}"
    path = next(path for path in SOURCES if path.name == "tables.py")
    assert _names(path, {"iter_core_vectors"}) == []


def test_checks_read_the_bead_split():
    # the per-partition decomposition checks read the charges (the core's
    # n-vector) and the bead readings (the quotient conjugated) off one bead
    # split, so verify.py builds no CoreQuotient, and phi2 runs only in
    # CHK-THM4's round trip of the cores that phi2_inv builds from vectors
    path = next(path for path in SOURCES if path.name == "verify.py")
    assert _names(path, {"phi1", "phi1_inv", "CoreQuotient"}) == []
    assert _owners(path, _calls_named("phi2")) == ["verify._chk_thm4"]


def _poch_product_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "poch_product"]


def test_each_factor_list_is_written_once():
    # a product that a check verifies and another reader builds is defined
    # once, in qseries, so the copies cannot drift apart
    seen: dict[str, str] = {}
    repeated = []
    for path in SOURCES:
        for call in _poch_product_calls(path):
            factors = call.args[2] if len(call.args) > 2 else None
            if not isinstance(factors, (ast.List, ast.Tuple)):
                continue
            key = ast.dump(factors)
            where = f"{path.name}:{call.lineno}"
            if key in seen:
                repeated.append(f"{where} repeats {seen[key]}")
            seen.setdefault(key, where)
    assert seen, "no factor list found"
    assert repeated == [], repeated


def test_poch_product_builds_every_product():
    # every product in the package goes through poch_product, which runs its
    # factor passes on planes; the single-pass API (mul_one_minus /
    # div_one_minus) stays for the tests' reference route, and no module of
    # the package calls it
    builders = 0
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        builders += sum(isinstance(node, ast.FunctionDef) and node.name == "poch_product"
                        for node in ast.walk(tree))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("mul_one_minus", "div_one_minus")]
    assert builders == 1
    assert calls == [], f"single factor passes called at {calls}"


def test_benchmark_tracer_wraps_existing_methods():
    # perfbench/tracing.py wraps the methods in its METHODS table by name,
    # through vars(cls); a renamed or removed one makes a traced benchmark
    # pass (--trace 1) die with a KeyError.  The table is read from the file,
    # so the benchmark harness is not imported
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["METHODS"])
    assert methods
    missing = []
    for layer, classes in methods.items():
        module = importlib.import_module(f"tcorelab.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name, None)
            missing += [f"{layer}.{cls_name}.{name}" for name in names
                        if not isinstance(cls, type) or name not in vars(cls)]
    assert missing == [], f"traced methods not found: {missing}"


def _calls_named(*names):
    return lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) in names


def test_plane_kernels_serve_poch_product_only():
    # the plane form (one int list per group element) is private to
    # poch_product: its pass helper alone runs the shifted-add kernel, and
    # poch_product alone runs that helper
    path = next(path for path in SOURCES if path.name == "qseries.py")
    assert set(_owners(path, _calls_named("_add_shifted"))) == {"qseries._plane_pass"}
    assert _owners(path, _calls_named("_plane_pass")) == ["qseries.poch_product"]
    others = [where for other in SOURCES if other != path
              for where in _owners(other, lambda node: isinstance(node, ast.Name) and node.id
                                   in ("_add_shifted", "_plane_pass"))]
    assert others == []


def test_qseries_imports_nothing_new():
    # every module qseries imports is imported by another module of the
    # package too, so the series code adds nothing to `import tcorelab`
    def imported(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        return ({alias.name for node in tree.body if isinstance(node, ast.Import)
                 for alias in node.names}
                | {node.module for node in tree.body if isinstance(node, ast.ImportFrom)
                   and node.level == 0})

    path = next(path for path in SOURCES if path.name == "qseries.py")
    elsewhere = set().union(*(imported(other) for other in SOURCES if other != path))
    assert imported(path) <= elsewhere, imported(path) - elsewhere


def _owners(path, match):
    """module.Class.function, the innermost definition around each node of
    the file that match accepts (module for a node outside any)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}

    def claim(node, name):
        for child in ast.iter_child_nodes(node):
            inner = (f"{name}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else name)
            owner[id(child)] = inner
            claim(child, inner)

    claim(tree, path.stem)
    return [owner[id(node)] for node in ast.walk(tree) if match(node)]


def test_trusted_partitions_come_from_five_producers():
    # Partition._trusted skips validation, so it stays with the five
    # producers that are canonical by construction, and no other code
    # builds a Partition by tuple.__new__ around it
    callers = [where for path in SOURCES for where in _owners(
        path, lambda node: isinstance(node, ast.Attribute) and node.attr == "_trusted")]
    assert sorted(callers) == ["cores._partition_from_colors",
                               "cores.phi1",
                               "partitions.Partition.conjugate",
                               "partitions.enumerate_partitions",
                               "tables.WeightTable.partitions"]
    makers = [where for path in SOURCES for where in _owners(
        path, lambda node: isinstance(node, ast.Attribute) and node.attr == "__new__"
        and getattr(node.value, "id", None) == "tuple")]
    assert makers and all(where.startswith("partitions.Partition.") for where in makers), makers


def test_no_import_cycles():
    # module-level imports between the package's modules form no cycle, so
    # every module can be imported on its own without reading a half-made one
    modules = {path.stem: path for path in SOURCES if path.stem != "__init__"}
    edges = {}
    for name, path in modules.items():
        edges[name] = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges[name].update(t for t in targets if t in modules)
    try:
        TopologicalSorter(edges).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_at_module_level(path):
    # test_no_import_cycles reads the module-level imports only, so an
    # import inside a function would hide its edge from that test
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert lines == [], f"{path.name} imports inside functions on lines {lines}"


def test_one_orbit_step():
    # the alpha rotation and the slot permutation are applied in one place,
    # which both orbit maps and CHK-ORBIT go through
    callers = [where for path in SOURCES for where in _owners(
        path, lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("c1_shift", "c2_shift"))]
    assert callers == ["orbits.orbit_step"] * 2


def test_one_run_step():
    # the statistics find the end of a run in one helper; ag_crank's two
    # counts are the only other bisections
    path = next(path for path in SOURCES if path.name == "stats.py")
    callers = _owners(path, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", "")).startswith("bisect"))
    assert sorted(callers) == ["stats._stretches", "stats.ag_crank", "stats.ag_crank"]
