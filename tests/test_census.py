import importlib
import itertools
import random
import sys

import pytest

from monorders import (
    BudgetExceededError,
    CensusQuery,
    InvalidInputError,
    LevelMatrix,
    census,
    conjugate,
    is_order,
    is_upper_triangular,
    load_families,
    match_family,
)
from monorders.census import _census_box
from monorders.levels import _orders_in_box

from conftest import (
    brute_census_counts,
    brute_match_family,
    brute_triangular_form,
    random_weyl,
    triangular_box,
)


def M(rows):
    return LevelMatrix.from_rows(rows)


class TestCensusQuery:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CensusQuery(0, 1)
        with pytest.raises(ValueError):
            CensusQuery(2, -1)
        with pytest.raises(ValueError):
            CensusQuery(2, 1, frozenset({"shiny"}))


def product_orders(lo, hi):
    """Test oracle: every level of the box, filtered by is_order, in row-major lex order."""
    n = len(lo)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    ranges = [range(lo[i][j], hi[i][j] + 1) for i, j in cells]
    for combo in itertools.product(*ranges):
        rows = [[0] * n for _ in range(n)]
        for (i, j), value in zip(cells, combo):
            rows[i][j] = value
        level = LevelMatrix.from_rows(rows)
        if is_order(level):
            yield level.entries


SEC52_ROWS = ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (2, 1, 1, 0))

CENSUS_SIZES = [(n, b) for n in range(1, 5) for b in range(4)] + [(5, 1)]

BOXES = {
    **{f"census-{n}-{b}": _census_box(n, b) for n, b in CENSUS_SIZES},
    "triangular-4-3": triangular_box(4, 3),
    "overorders-sec52": (tuple(tuple(-row[i] for row in SEC52_ROWS) for i in range(4)), SEC52_ROWS),
}


@pytest.mark.parametrize("name", sorted(BOXES))
def test_box_search_matches_product_filter(name):
    lo, hi = BOXES[name]
    assert sorted(_orders_in_box(lo, hi)) == list(product_orders(lo, hi))


@pytest.mark.parametrize("n,bound", CENSUS_SIZES + [(3, 10), (6, 0), (7, 0)])
def test_orbit_marking_matches_canonical_fold(n, bound):
    result = census(CensusQuery(n, bound))
    assert {c.canonical: c.count for c in result.classes} == brute_census_counts(n, bound)
    triangular = sum(brute_triangular_form(c.canonical) is not None for c in result.classes)
    assert result.totals["upper_triangular"] == triangular


def test_one_triangular_search_per_class(monkeypatch):
    # classify keeps the triangular form, and the upper_triangular filter reads it
    classify_module = importlib.import_module("monorders.classify")
    calls = []
    search = classify_module._triangular_rows

    def counting(rows, n):
        calls.append(rows)
        return search(rows, n)

    monkeypatch.setattr(classify_module, "_triangular_rows", counting)
    result = census(CensusQuery(4, 2))
    assert result.totals["classes"] > 0
    assert len(calls) == result.totals["classes"]


def test_order_scans_per_class(monkeypatch):
    # classify scans in canonical_form and triangular_form, and classify_eichler
    # scans the triangular form again when there is one
    original = importlib.import_module("monorders.levels").order_violation
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "monorders" and getattr(module, "order_violation", None) is original:
            monkeypatch.setattr(module, "order_violation", counting)
    totals = census(CensusQuery(4, 2)).totals
    assert (totals["classes"], totals["upper_triangular"]) == (98, 60)
    assert len(calls) == 2 * 98 + 60


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
        level = M([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [2, 1, 1, 0]])
        families = load_families()
        assert match_family(level, families[5]) == {"a": 1, "b": 1}

    def test_zero_matrix_matches_the_parameterless_family(self):
        families = load_families()
        assert match_family(LevelMatrix.zero(4), families[0]) == {}
        assert match_family(LevelMatrix.zero(4), families[1]) is None

    def test_dimension_mismatch_is_absent(self):
        families = load_families()
        assert match_family(M([[0, 0], [1, 0]]), families[0]) is None

    def test_each_gorenstein_class_matches_exactly_one_family(self):
        families = load_families()
        result = census(CensusQuery(4, 1, frozenset({"gorenstein"})))
        for cls in result.classes:
            matches = [f.index for f in families if match_family(cls.canonical, f) is not None]
            assert len(matches) == 1


def test_match_family_matches_orbit_membership(census_result):
    rng = random.Random(0)
    levels = [c.canonical for c in census_result(4, 2).classes]
    levels += [conjugate(level, random_weyl(rng, 4)) for level in levels]
    levels += [M([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [5, 0, 0, 0]]), M([[0, 0], [1, 0]])]
    for family in load_families():
        for level in levels:
            assert match_family(level, family) == brute_match_family(level, family)


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
