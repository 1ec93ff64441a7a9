import functools
import importlib
import itertools
import math
import random
import sys
from dataclasses import replace

import pytest

from monorders import (
    BudgetExceededError,
    CensusQuery,
    Family,
    InvalidInputError,
    LevelMatrix,
    bass_oracle,
    canonical_form,
    census,
    classify,
    classify_eichler,
    conjugate,
    gorenstein_via_dual,
    is_bass,
    is_hereditary,
    is_order,
    is_upper_triangular,
    load_families,
    match_family,
    order_violation,
    triangular_form,
)
from monorders.census import FILTERS, _census_box, _orbit_tables
from monorders.cli import main
from monorders.duality import _gorenstein_scan
from monorders.levelio import level_to_text
from monorders.levels import _orders_in_box, _unflatten

from conftest import (
    CENSUS_SIZES,
    ORBIT_SIZES,
    POSETS,
    PREORDERS,
    SEC52,
    M,
    _conjugates,
    bound_one_raw_orders,
    brute_canonical_form,
    brute_census_counts,
    brute_least_blocks,
    brute_match_family,
    brute_triangular_verdicts,
    overorder_box,
    product_orders,
    random_order,
    random_weyl,
    staircase,
    triangular_box,
)


class TestCensusQuery:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CensusQuery(0, 1)
        with pytest.raises(ValueError):
            CensusQuery(2, -1)
        with pytest.raises(ValueError):
            CensusQuery(2, 1, frozenset({"shiny"}))
        # a string is one name, not a collection of its letters
        with pytest.raises(InvalidInputError, match="^filters must be a collection of filter names, got 'bass'$"):
            CensusQuery(2, 1, "bass")
        # neither are bytes, a non-collection, or a collection of anything but names
        for filters in (b"bass", None, 3, ["x", 1], [[1]]):
            message = f"filters must be a collection of filter names, got {filters!r}"
            with pytest.raises(InvalidInputError) as info:
                CensusQuery(2, 1, filters)
            assert str(info.value) == message


BOXES = {
    **{f"census-{n}-{b}": _census_box(n, b) for n, b in CENSUS_SIZES},
    "triangular-4-3": triangular_box(4, 3),
    "overorders-sec52": overorder_box(SEC52.entries),
    "overorders-staircase4": overorder_box(staircase((1,) * 4, 1).entries),
    # the in-place last pair at both ends: n = 5 with negative lows, and n = 1, where it is the placeholder
    "overorders-5": overorder_box(((0, 0, 0, 0, 1),) * 3 + ((1, 1, 1, 0, 2), (0, 0, 0, 0, 0))),
    "overorders-1": overorder_box(((0,),)),
    # at n = 2 there is no third index, so the cells alone enforce m[0][1] + m[1][0] >= 0
    "overorders-2": overorder_box(((0, 2), (1, 0))),
    # a box whose diagonal is not zero, which the search ignores: every yield's diagonal is 0
    "diagonal-3": (((-1, 0, 0), (0, -2, 0), (0, 0, -3)), ((5, 1, 1), (1, 7, 1), (1, 1, 9))),
    **{
        f"overorders-random3-{seed}": overorder_box(random_order(random.Random(seed), 3, 3).entries)
        for seed in range(4)
    },
}


@pytest.fixture(scope="module")
def flat_product_orders():
    """product_orders(lo, hi) as flat row-major tuples, each box swept once per module."""
    return functools.cache(lambda lo, hi: [sum(rows, ()) for rows in product_orders(lo, hi)])


def pair_order_key(flat, n):
    """m[0][1], m[1][0], m[0][2], m[2][0], m[1][2], ...: the order in which the box search sets the cells."""
    return [flat[n * a + b] for j in range(1, n) for i in range(j) for a, b in ((i, j), (j, i))]


@pytest.mark.parametrize("name", sorted(BOXES))
def test_box_search_matches_product_filter(name, flat_product_orders):
    # without block tests the search yields every order of the box, as a flat row-major tuple,
    # in ascending pair order, the last pair's cells, yielded in place, included, and a zero diagonal
    lo, hi = BOXES[name]
    found = list(_orders_in_box(lo, hi))
    assert all(not any(flat[:: len(lo) + 1]) for flat in found)
    assert sorted(found) == flat_product_orders(lo, hi)
    assert found == sorted(found, key=lambda flat: pair_order_key(flat, len(lo)))


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_pruned_search_keeps_the_orders_whose_leading_blocks_are_least(n, bound, flat_product_orders):
    # with the census block tests the search yields exactly the orders of the box whose leading
    # k-blocks, 3 <= k < n, are pair-order-least among their conjugates by the permutations of
    # 1..k-1, in ascending pair order, so the first one it meets of a class is the class's
    # pair-order-least in-box member; from n = 4 on, a box with a nonzero entry loses some
    box = _census_box(n, bound)
    blocks = _orbit_tables(n)[5]
    assert sorted(blocks) == list(range(3, n))
    pruned = list(_orders_in_box(*box, blocks))
    orders = flat_product_orders(*box)
    assert sorted(pruned) == [flat for flat in orders if brute_least_blocks(_unflatten(n)(flat))]
    assert pruned == sorted(pruned, key=lambda flat: pair_order_key(flat, n))
    assert (len(pruned) < len(orders)) == (n >= 4 and bound >= 1)


@pytest.mark.parametrize("n,bound", [(5, 2), (6, 1)])
def test_a_block_test_passes_only_where_each_smaller_one_does(n, bound):
    # the k-block test keys the first k(k-1) pair-order cells by the first (k-1)! permutations
    # fixing 0, so each key of a j-block test, j < k, begins a key of the k-block test: on every
    # order of the box the verdicts by k read passes, then failures, and the largest test decides
    blocks = _orbit_tables(n)[5]
    for flat in _orders_in_box(*_census_box(n, bound)):
        passes = [blocks[k](flat) for k in sorted(blocks)]
        assert passes == sorted(passes, reverse=True), flat


def test_interleaved_box_searches_match_separate_runs():
    # searches alive at once keep their own state: every box of BOXES, and two census boxes with
    # their block tests, taken three at a time in order of size, so that most groups hold boxes of one
    # size, and advanced round-robin, one yield each per round; each yields what it yields alone
    searches = [BOXES[name] for name in sorted(BOXES)]
    searches += [(*_census_box(n, bound), _orbit_tables(n)[5]) for n, bound in [(4, 2), (5, 1)]]
    searches.sort(key=lambda args: len(args[0]))
    for start in range(0, len(searches), 3):
        group = searches[start:start + 3]
        alone = [list(_orders_in_box(*args)) for args in group]
        rounds = list(itertools.zip_longest(*(_orders_in_box(*args) for args in group)))
        together = [[yields[g] for yields in rounds if yields[g] is not None] for g in range(len(group))]
        assert together == alone


@pytest.mark.parametrize("n,bound", [(4, 2), (4, 3), (5, 1)])
def test_pending_holds_only_raw_orders_the_search_visits(n, bound, monkeypatch, census_result):
    # the census admits to pending only the in-box members whose leading blocks pass, which
    # the pruned search visits later and each visit removes: pending ends empty, where
    # admitting every in-box member leaves those the search drops. And it admits every such
    # member, so each class starts one orbit, where a member left out would start another
    expected = census_result(n, bound)
    census_module = importlib.import_module("monorders.census")
    normalize, *tables = _orbit_tables(n)
    left, starts = [], []

    def search(*args):
        yield from _orders_in_box(*args)
        # the frame that ran the search to its end is the census call's
        left.append(sys._getframe(1).f_locals["pending"])

    monkeypatch.setattr(census_module, "_orders_in_box", search)
    counted = lambda flat: starts.append(flat) or normalize(flat)  # one call per orbit built
    monkeypatch.setattr(census_module, "_orbit_tables", lambda size: (counted, *tables))
    assert census(CensusQuery(n, bound)) == expected
    assert left == [set()]
    assert len(starts) == len(set(starts)) == expected.totals["classes"]


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_orbit_marking_matches_canonical_fold(n, bound, census_result):
    # orbit marking gives the classes and counts of a fold through canonical_form, and each
    # class the least triangular member of its orbit: the form of the brute sweep and of the
    # search on an unmarked copy, whose report equals the class's field by field
    result = census_result(n, bound)
    counts = brute_census_counts(n, bound)
    assert {c.canonical: c.count for c in result.classes} == counts
    # raw_orders sums the class counts: every raw order of the box is counted in one class
    assert result.totals["raw_orders"] == sum(counts.values())
    triangular = 0
    for cls in result.classes:
        copy = LevelMatrix(cls.canonical.entries)
        form = brute_triangular_verdicts(cls.canonical)[0]
        assert cls.report.triangular == form == triangular_form(copy)
        assert vars(cls.report) == vars(classify(copy))
        triangular += form is not None
    assert result.totals["upper_triangular"] == triangular


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_class_levels_are_their_own_canonical_form(n, bound, census_result):
    # a class level is marked as its own canonical form, and canonical_form
    # returns it as is: the same level and witness as the search on an unmarked copy
    for cls in census_result(n, bound).classes:
        fast = canonical_form(cls.canonical)
        assert fast[0] is cls.canonical and cls.report.canonical is cls.canonical
        assert fast == canonical_form(LevelMatrix(cls.canonical.entries)) == brute_canonical_form(cls.canonical)


def test_preorder_and_poset_tables_match_a_brute_count():
    # every relation on k <= 4 points holding the diagonal, by its set of off-diagonal pairs
    for k in range(5):
        pairs = list(itertools.permutations(range(k), 2))
        preorders = posets = 0
        for bits in itertools.product((False, True), repeat=len(pairs)):
            related = {(i, i) for i in range(k)} | set(itertools.compress(pairs, bits))
            if all((i, l) in related for i, j in related for jj, l in related if j == jj):
                preorders += 1
                posets += all((j, i) not in related for i, j in related if i != j)
        assert (preorders, posets) == (PREORDERS[k], POSETS[k]), k


@pytest.mark.parametrize("n", sorted(n for n, bound in ORBIT_SIZES if bound == 1))
def test_bound_one_raw_orders_are_preorders(n, census_result):
    # the closed forms of conftest.bound_one_raw_orders, on every bound-1 box the suite sweeps;
    # twins are i != j with m[i][j] + m[j][i] = 0
    assert census_result(n, 1).totals["raw_orders"] == bound_one_raw_orders(n)
    twin_free = sum(
        all(flat[n * i + j] + flat[n * j + i] for j in range(1, n) for i in range(j))
        for flat in _orders_in_box(*_census_box(n, 1))
    )
    assert twin_free == POSETS[n - 1]


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_orbits_by_root_match_the_permutation_sweep(n, bound):
    # per root r, the normalizer's r-th n*n slice (shift by row r, move r to 0) and then the
    # table's permutations fixing 0 give the flattened conjugates of the brute sweep whose
    # sigma sends r to 0; they share the entries of the slice, so one max test per root
    # finds the in-box conjugates of the sweep. The triangle getter reads zeros exactly on
    # the upper triangular conjugates
    _orbit_tables.cache_clear()
    for flat in _orders_in_box(*_census_box(n, bound)):
        sweep = [(sum(level, ()), sigma) for level, sigma in _conjugates(_unflatten(n)(flat), n)]
        normalize, roots, gets, upper, zeros, _ = _orbit_tables(n)
        norms = normalize(flat)
        # a tuple at every n, n = 1 included: one slice per root, and two last entries past them
        assert isinstance(norms, tuple) and len(norms) == n ** 3 + 2
        by_root = [norms[r * n * n:(r + 1) * n * n] for r in range(n)]
        assert [norms[root] for root in roots] == by_root
        for r, norm in enumerate(by_root):
            members = {get(norm) for get in gets}
            assert members == {flat for flat, sigma in sweep if sigma[r] == 0}
            assert {tuple(sorted(m)) for m in members} == {tuple(sorted(norm))}
        in_box = {flat for flat, _ in sweep if max(flat) <= bound}
        assert {get(norm) for norm in by_root if max(norm) <= bound for get in gets} == in_box
        for flat, _ in sweep:
            strict_upper = [flat[n * i + j] for i in range(n) for j in range(i + 1, n)]
            assert (upper(flat) == zeros) == (not any(strict_upper))
    # one table per n, built once: (n-1)! getters, each taking n*n entries to n*n entries
    assert _orbit_tables.cache_info().misses == 1
    gets = _orbit_tables(n)[2]
    assert len(gets) == math.factorial(n - 1)
    flat = tuple(range(n * n))
    assert all(sorted(get(flat)) == list(flat) for get in gets)
    assert len({get(flat) for get in gets}) == len(gets)


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_zero_column_rule_matches_the_gorenstein_scans(n, bound, census_result):
    # row r has witness column j, m[r][k] + m[k][j] constant in k, iff column j of the level
    # normalized by row r is zero; column q of root r's slice is column order[q]. So a class is
    # Gorenstein iff every root's normalization has a zero column: on every class, by all n
    # roots, as the hashed scan, the dual-module route, the report and the census totals say
    normalize, roots = _orbit_tables(n)[:2]
    result = census_result(n, bound)
    gorenstein = 0
    for cls in result.classes:
        rows = cls.canonical.entries
        norms = normalize(sum(rows, ()))
        verdict = True
        for r, root in enumerate(roots):
            norm, order = norms[root], (r, *range(r), *range(r + 1, n))
            zero_columns = {order[q] for q in range(n) if not any(norm[q::n])}
            witnesses = {j for j in range(n) if len({rows[r][k] + rows[k][j] for k in range(n)}) == 1}
            assert zero_columns == witnesses, (rows, r)
            verdict = verdict and bool(zero_columns)
        assert verdict == (_gorenstein_scan(rows)[0] is not None) == gorenstein_via_dual(cls.canonical), rows
        assert verdict == cls.report.is_gorenstein
        gorenstein += verdict
    assert gorenstein == result.totals["gorenstein"]


def test_census_skips_a_root_its_orbit_already_holds(monkeypatch):
    # the (7, 0) box holds the zero level alone, which every root normalizes to itself: root 0
    # calls each of the (n-1)! getters once, and the 6 other roots call none (not n! = 5,040 calls)
    normalize, roots, gets, upper, zeros, blocks = _orbit_tables(7)
    calls = []

    def counted(get):
        def call(norm):
            calls.append(norm)
            return get(norm)

        return call

    tables = (normalize, roots, tuple(map(counted, gets)), upper, zeros, blocks)
    monkeypatch.setattr(importlib.import_module("monorders.census"), "_orbit_tables", lambda n: tables)
    result = census(CensusQuery(7, 0))
    assert len(calls) == math.factorial(6) == 720
    assert [(cls.canonical, cls.count) for cls in result.classes] == [(LevelMatrix.zero(7), 1)]


# each census filter read off a class report, as the report's own fields say it
REPORT_VERDICTS = {
    "gorenstein": lambda report: report.is_gorenstein,
    "eichler": lambda report: report.eichler is not None,
    "hereditary": lambda report: report.is_hereditary,
    "bass": lambda report: report.is_bass,
    "upper_triangular": lambda report: report.triangular is not None,
}


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_totals_and_selections_match_the_class_reports(n, bound, census_result):
    # every total counts the classes whose report holds, and a selection of any nonempty
    # set of filters keeps the classes whose report holds for all of them, with the
    # totals of the census without filters
    result = census_result(n, bound)
    verdicts = [{name for name, holds in REPORT_VERDICTS.items() if holds(c.report)} for c in result.classes]
    assert set(REPORT_VERDICTS) == set(FILTERS)
    for name in FILTERS:
        assert result.totals[name] == sum(name in passed for passed in verdicts)
    for size in range(1, len(FILTERS) + 1):
        for names in itertools.combinations(sorted(FILTERS), size):
            selected = census_result(n, bound, names)
            assert selected.totals == result.totals
            assert selected.classes == tuple(c for c, passed in zip(result.classes, verdicts) if passed >= set(names))


def test_census_classifies_only_the_classes_it_returns(monkeypatch):
    # the filters read verdicts computed in the orbit loop before any class level is built, so a
    # filtered census classifies the 21 Gorenstein classes of (3,10) and no other; unfiltered, all
    # 781. Each kernel runs once per class that needs it, in every module that binds it: one
    # Gorenstein scan per returned class, in its report, and one staircase shape per Gorenstein
    # class with a form, returned or not
    reports = [c.report for c in census(CensusQuery(3, 10)).classes]
    shaped = sum(report.is_gorenstein and report.triangular is not None for report in reports)
    census_module = importlib.import_module("monorders.census")
    calls = []
    monkeypatch.setattr(census_module, "classify", lambda level, cap: calls.append(level) or classify(level, cap))
    kernels = {"_gorenstein_scan": [], "_staircase_shape": []}
    for module in (census_module, *map(importlib.import_module, ("monorders.classify", "monorders.duality"))):
        for name, seen in kernels.items():
            if hasattr(module, name):
                kernel = getattr(module, name)
                counting = lambda *args, kernel=kernel, seen=seen: seen.append(args) or kernel(*args)
                monkeypatch.setattr(module, name, counting)
    for filters, returned in (({"gorenstein"}, 21), ((), 781)):
        calls.clear()
        for seen in kernels.values():
            seen.clear()
        result = census(CensusQuery(3, 10, filters))
        assert len(result.classes) == returned == len(calls)
        assert [c.canonical for c in result.classes] == calls
        assert len(kernels["_gorenstein_scan"]) == returned
        assert result.totals["classes"] == len(reports)
        assert len(kernels["_staircase_shape"]) == shaped > 0
    assert result.totals["gorenstein"] == 21


def test_census_makes_no_triangular_search(monkeypatch):
    # each class level carries the triangular form read off its orbit, classify
    # keeps it in the report, and the upper_triangular filter reads it there
    classify_module = importlib.import_module("monorders.classify")
    calls = []
    search = classify_module._triangular_rows

    def counting(rows, n):
        calls.append(rows)
        return search(rows, n)

    monkeypatch.setattr(classify_module, "_triangular_rows", counting)
    result = census(CensusQuery(4, 2))
    assert result.totals["classes"] > 0
    assert calls == []
    assert 0 < result.totals["upper_triangular"] < result.totals["classes"]
    upper = FILTERS["upper_triangular"]
    for cls in result.classes:
        assert triangular_form(cls.canonical) is cls.report.triangular
        assert upper(cls) == (cls.report.triangular is not None)
        flipped = replace(cls.report, triangular=cls.canonical if cls.report.triangular is None else None)
        assert upper(replace(cls, report=flipped)) != upper(cls)


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_class_levels_answer_verdict_queries_from_their_marks(n, bound, monkeypatch, census_result):
    # a class level's _triangular mark carries its form, and the form its _eichler mark, so
    # the three verdict queries equal the class report with no triangular search or staircase read
    result = census_result(n, bound)
    classify_module = importlib.import_module("monorders.classify")
    calls = []

    def counting(name):
        reader = getattr(classify_module, name)

        def call(rows, n):
            calls.append(name)
            return reader(rows, n)

        return call

    for name in ("_triangular_rows", "_staircase_shape"):
        monkeypatch.setattr(classify_module, name, counting(name))
    for cls in result.classes:
        report = cls.report
        assert classify_eichler(cls.canonical) == report.eichler
        assert is_hereditary(cls.canonical) == report.is_hereditary
        assert is_bass(cls.canonical) == (report.is_bass, report.bass_reason)
    assert calls == []


SCAN_LEVELS = {f"staircase{n}": staircase((1,) * n, 1).entries for n in (3, 4)} | {"sec52": SEC52.entries}

# each query, as the arguments of cli.main (a SCAN_LEVELS name stands for its
# file) or as a library function and a SCAN_LEVELS name, with its order scans:
# a level that passes the check is marked, and so is every value built from
# an order (conjugates, triangular forms, overorders, census classes, family
# instances), so each query scans the level it is given once and nothing else;
# the census builds its class levels as orders, so it makes no scan at all.
# The family table is loaded afresh in each query, and proves each of its 7
# patterns by scanning the pattern's two unit instances: 14 scans
ORDER_SCANS = {
    "check": (("check", "staircase3"), 1),
    "classify": (("classify", "staircase3"), 1),
    "dual": (("dual", "staircase3"), 1),
    "overorders": (("overorders", "staircase3"), 1),
    "census-4-2": (("census", "4", "--bound", "2"), 0),
    "classify-oracle-staircase3": (("classify", "staircase3", "--oracle"), 1),
    "classify-oracle-staircase4": (("classify", "staircase4", "--oracle"), 1),
    "classify-oracle-sec52": (("classify", "sec52", "--oracle"), 1),
    "projective": (("projective", "staircase3", "--type", "0,1,1"), 1),
    "census-4-3-families": (("census", "4", "--bound", "3", "--families"), 14),
    "bass_oracle-staircase4": ((bass_oracle, "staircase4"), 1),
    "gorenstein_via_dual-sec52": ((gorenstein_via_dual, "sec52"), 1),
}


@pytest.mark.parametrize("name", ORDER_SCANS)
def test_order_scans_per_query(name, monkeypatch, tmp_path, capsys):
    # a scan is one order_violation call, in every monorders namespace that binds it
    query, scans = ORDER_SCANS[name]
    original = importlib.import_module("monorders.levels").order_violation
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "monorders" and getattr(module, "order_violation", None) is original:
            monkeypatch.setattr(module, "order_violation", counting)
    load_families.cache_clear()
    head, *args = query
    if callable(head):
        head(LevelMatrix(SCAN_LEVELS[args[0]]))
    else:
        for level in set(query) & set(SCAN_LEVELS):
            (tmp_path / level).write_text(level_to_text(LevelMatrix(SCAN_LEVELS[level])))
        main([str(tmp_path / arg) if arg in SCAN_LEVELS else arg for arg in query])
    capsys.readouterr()
    assert len(calls) == scans


class TestCensus:
    def test_size_two_bound_two(self):
        result = census(CensusQuery(2, 2))
        assert [c.canonical for c in result.classes] == [
            M([[0, 0], [0, 0]]),
            M([[0, 0], [1, 0]]),
            M([[0, 0], [2, 0]]),
        ]
        assert result.totals["classes"] == 3
        assert result.totals["gorenstein"] == 3
        assert result.totals["eichler"] == 3

    def test_size_one(self):
        result = census(CensusQuery(1, 5))
        assert result.totals["classes"] == 1
        assert result.classes[0].canonical == M([[0]])

    def test_size_three_bound_one_gorenstein_classes_are_triangular(self):
        result = census(CensusQuery(3, 1, frozenset({"gorenstein"})))
        assert len(result.classes) == 3
        for cls in result.classes:
            assert is_upper_triangular(cls.canonical)
        assert result.totals == {
            "raw_orders": 7,
            "classes": 4,
            "gorenstein": 3,
            "eichler": 3,
            "hereditary": 3,
            "bass": 3,
            "upper_triangular": 4,
        }

    def test_filters_are_conjunctive_and_monotone(self):
        base = census(CensusQuery(3, 2))
        gorenstein = census(CensusQuery(3, 2, frozenset({"gorenstein"})))
        bass = census(CensusQuery(3, 2, frozenset({"bass"})))
        assert {c.canonical for c in bass.classes} <= {
            c.canonical for c in gorenstein.classes
        }
        assert len(base.classes) == base.totals["classes"]
        assert base.totals["bass"] == len(bass.classes)

    def test_class_counts_add_up(self):
        result = census(CensusQuery(3, 1))
        assert sum(c.count for c in result.classes) == result.totals["raw_orders"]

    def test_deterministic(self):
        a = census(CensusQuery(3, 2))
        b = census(CensusQuery(3, 2))
        assert a == b

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            census(CensusQuery(4, 2), budget=100)

    def test_classes_are_canonical_and_distinct(self):
        from monorders import canonical_form

        result = census(CensusQuery(3, 2))
        canonicals = [c.canonical for c in result.classes]
        assert len(set(canonicals)) == len(canonicals)
        for level in canonicals:
            assert canonical_form(level)[0] == level


class TestMatchFamily:
    def test_sixth_family_matches_its_own_instance(self):
        assert match_family(SEC52) == (load_families()[5], {"a": 1, "b": 1})

    def test_zero_matrix_matches_the_parameterless_family(self):
        assert match_family(LevelMatrix.zero(4)) == (load_families()[0], {})

    def test_dimension_mismatch_is_absent(self):
        assert match_family(M([[0, 0], [1, 0]])) is None

    def test_non_order_is_absent(self):
        assert match_family(M([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [5, 0, 0, 0]])) is None

    def test_each_gorenstein_class_matches_exactly_one_family(self):
        result = census(CensusQuery(4, 1, frozenset({"gorenstein"})))
        for cls in result.classes:
            hits = [(f, p) for f in load_families() if (p := brute_match_family(cls.canonical, f)) is not None]
            assert len(hits) == 1
            assert match_family(cls.canonical) == hits[0]


def test_match_family_matches_orbit_membership(census_result):
    # the first family of the table whose instance lies in the level's orbit
    rng = random.Random(0)
    levels = [c.canonical for c in census_result(4, 2).classes]
    levels += [conjugate(level, random_weyl(rng, 4)) for level in levels]
    levels += [M([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [5, 0, 0, 0]]), M([[0, 0], [1, 0]])]
    for level in levels:
        hits = [(f, p) for f in load_families() if (p := brute_match_family(level, f)) is not None]
        assert match_family(level) == (hits[0] if hits else None)


@pytest.mark.parametrize("bound, searches", [(1, 5), (2, 11), (3, 18)])
def test_match_family_searches_one_instance_per_gorenstein_class(bound, searches, census_result, monkeypatch):
    # the sorted pair sums are a conjugacy invariant that passes only the matching instance to the
    # canonical search: one search per Gorenstein class, where every candidate took 15, 42 and 79.
    # A class level is its own canonical form, so its side of the comparison makes no search
    levels_module = importlib.import_module("monorders.levels")
    gorenstein = [c.canonical for c in census_result(4, bound).classes if c.report.is_gorenstein]
    sigma = levels_module._canonical_sigma
    calls = []
    monkeypatch.setattr(levels_module, "_canonical_sigma", lambda rows, n: calls.append(rows) or sigma(rows, n))
    matches = [match_family(level) for level in gorenstein]
    assert len(calls) == len(gorenstein) == searches
    for level, match in zip(gorenstein, matches):
        hits = [(f, p) for f in load_families() if (p := brute_match_family(level, f)) is not None]
        assert match == hits[0], level


ENTRY_COEFFS = {"0": (0, 0), "a": (1, 0), "b": (0, 1), "a+b": (1, 1)}


def coefficient_loop_refusal(pattern):
    # the refusal text of the coefficient-by-coefficient check that Family made
    # before it scanned its unit instances, or None when that check passed
    n = len(pattern)
    coeffs = [[ENTRY_COEFFS[expr] for expr in row] for row in pattern]
    if any(coeffs[i][i] != (0, 0) for i in range(n)):
        return "family 0 has a nonzero diagonal entry"
    for i, j, k in itertools.product(range(n), repeat=3):
        if any(x > y + z for x, y, z in zip(coeffs[i][k], coeffs[i][j], coeffs[j][k])):
            return (
                f"family 0 has instances that are not orders: entry ({i + 1},{k + 1}) "
                f"exceeds ({i + 1},{j + 1}) plus ({j + 1},{k + 1})"
            )
    return None


def family_refusal(pattern):
    # Family's refusal text for the pattern with the params it uses, or None
    used = tuple(name for t, name in enumerate("ab") if any(ENTRY_COEFFS[e][t] for row in pattern for e in row))
    try:
        Family(0, used, pattern)
    except InvalidInputError as exc:
        return str(exc)
    return None


def unit_witness(pattern, t):
    # order_violation of the unit instance whose parameter t (0 for a, 1 for b) is 1
    return order_violation(LevelMatrix(tuple(tuple(ENTRY_COEFFS[e][t] for e in row) for row in pattern)))


# the b instance breaks at (1,3,2), before the a instance at (3,2,1)
B_BREAKS_FIRST = (("0", "b", "0"), ("0", "0", "0"), ("a", "0", "0"))
# a = b = 1 gives an order, but the b instance breaks at (1,2,3) and the a instance at (1,3,2)
SUM_INSTANCE_IS_AN_ORDER = (("0", "a", "b"), ("0", "0", "0"), ("0", "b", "0"))


def test_family_refusals_match_the_coefficient_loop():
    exprs = list(ENTRY_COEFFS)
    patterns = [B_BREAKS_FIRST, SUM_INSTANCE_IS_AN_ORDER]
    patterns += [(cells[:2], cells[2:]) for cells in itertools.product(exprs, repeat=4)]
    rng = random.Random("family patterns")
    for _ in range(3000):
        n = rng.choice((3, 4))
        zero_diagonal = rng.random() < 0.9
        patterns.append(tuple(
            tuple("0" if i == j and zero_diagonal else rng.choice(exprs) for j in range(n)) for i in range(n)
        ))
    outcomes = set()
    for pattern in patterns:
        expected = coefficient_loop_refusal(pattern)
        assert family_refusal(pattern) == expected, pattern
        outcomes.add((len(pattern), expected and ("diagonal" if "diagonal" in expected else "triangle")))
    # 3x3 and 4x4 patterns are accepted, refused for the diagonal and refused
    # for a triangle; with a zero diagonal, no 2x2 pattern breaks a triangle
    kinds = (None, "diagonal", "triangle")
    assert outcomes == {(2, None), (2, "diagonal")} | {(n, kind) for n in (3, 4) for kind in kinds}
    a_witness, b_witness = unit_witness(B_BREAKS_FIRST, 0), unit_witness(B_BREAKS_FIRST, 1)
    assert b_witness == (1, 3, 2) < a_witness == (3, 2, 1)
    assert [unit_witness(SUM_INSTANCE_IS_AN_ORDER, t) for t in (0, 1)] == [(1, 3, 2), (1, 2, 3)]
    sum_instance = tuple(tuple(sum(ENTRY_COEFFS[e]) for e in row) for row in SUM_INSTANCE_IS_AN_ORDER)
    assert is_order(LevelMatrix(sum_instance))


class TestFamilies:
    def test_table_shape(self):
        families = load_families()
        assert [f.index for f in families] == [1, 2, 3, 4, 5, 6, 7]
        assert [len(f.params) for f in families] == [0, 1, 1, 1, 1, 2, 2]

    def test_instantiate_validates_parameters(self):
        families = load_families()
        with pytest.raises(ValueError):
            families[1].instantiate()  # missing a
        with pytest.raises(ValueError):
            families[0].instantiate(a=1)  # takes none
        with pytest.raises(ValueError):
            families[5].instantiate(a=1)  # missing b
        with pytest.raises(InvalidInputError):
            families[1].instantiate(a=0)  # not positive
        for value in (True, 2.0, "3"):  # not a plain int
            with pytest.raises(InvalidInputError, match="family 2 needs a positive integer a"):
                families[1].instantiate(a=value)

    def test_table_instances_are_orders(self):
        # instances come marked as orders; order_violation scans regardless
        for family in load_families():
            for a in range(1, 5):
                for b in range(1, 5):
                    params = {name: value for name, value in (("a", a), ("b", b)) if name in family.params}
                    assert order_violation(family.instantiate(**params)) is None, (family.index, params)

    @pytest.mark.parametrize(
        "pattern, message",
        [
            # a = 1 gives m[1][2] = 1 > m[1][3] + m[3][2] = 0
            ((("0", "a", "0"), ("0", "0", "0"), ("0", "0", "0")), r"entry \(1,2\) exceeds \(1,3\) plus \(3,2\)"),
            ((("0", "0"), ("b", "a+b")), "nonzero diagonal entry"),
            ((("0", "c"), ("0", "0")), "square table of 0, a, b, a"),
            ((("0", 1), ("0", "0")), "square table of 0, a, b, a"),
            ((("0", "a"), ("0",)), "square table of 0, a, b, a"),
        ],
    )
    def test_a_pattern_with_non_order_instances_is_refused(self, pattern, message):
        # a hand-built family never hands out a non-order marked as an order
        with pytest.raises(InvalidInputError, match=message):
            Family(0, ("a", "b"), pattern)

    @pytest.mark.parametrize(
        "params, pattern, used",
        [
            # b is used but not named: instantiate(a=1) would set b = 0
            (("a",), (("0", "b"), ("0", "0")), r"\['b'\]"),
            # c is named but no call can set it
            (("c",), (("0", "a"), ("0", "0")), r"\['a'\]"),
            (("b", "a"), (("0", "a"), ("b", "0")), r"\['a', 'b'\]"),
            (("a",), (("0", "0"), ("0", "0")), r"\[\]"),
        ],
    )
    def test_params_other_than_the_pattern_uses_are_refused(self, params, pattern, used):
        with pytest.raises(InvalidInputError, match=f"family 0 params must be {used}, the parameters its pattern uses"):
            Family(0, params, pattern)

    def test_hand_built_family_instances_are_orders(self):
        family = Family(0, ("a", "b"), (("0", "a", "a+b"), ("0", "0", "b"), ("0", "0", "0")))
        instance = family.instantiate(a=2, b=3)
        assert instance == LevelMatrix.from_rows([[0, 2, 5], [0, 0, 3], [0, 0, 0]])
        assert order_violation(instance) is None and is_order(instance)

    def test_instances_are_gorenstein_orders(self):
        # the CLI matches families only against Gorenstein classes
        from monorders import is_gorenstein, is_order

        for family in load_families():
            for a in range(1, 5):
                for b in range(1, 5):
                    kwargs = {}
                    if "a" in family.params:
                        kwargs["a"] = a
                    if "b" in family.params:
                        kwargs["b"] = b
                    instance = family.instantiate(**kwargs)
                    assert is_order(instance)
                    assert is_gorenstein(instance)
