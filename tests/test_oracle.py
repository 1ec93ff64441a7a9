import json
import random
from collections import deque

import pytest

from monorders import (
    BudgetExceededError,
    LevelMatrix,
    NotAnOrderError,
    bass_oracle,
    canonical_form,
    conjugate,
    is_gorenstein,
    is_order,
    load_families,
    order_violation,
    overorder_bound,
    overorders,
)
from monorders import cli, oracle as oracle_module
from monorders.cli import EXIT_INPUT, EXIT_OK, main
from conftest import (
    SEC52,
    SEC52_OVER,
    M,
    brute_bass_oracle,
    enumerate_orders,
    overorder_box,
    product_orders,
    random_order,
    random_weyl,
    staircase,
)


# a Gorenstein, non-Bass class of the (5, 2) census whose nearest non-Gorenstein
# overorder is at distance 2, past every cover
DISTANCE_TWO = M([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [2, 2, 0, 0, 0], [2, 2, 0, 0, 0], [2, 2, 2, 2, 0]])
DISTANCE_TWO_WITNESS = M([[0, 0, 0, 0, -1], [0, 0, 0, 0, -1], [2, 2, 0, 0, 0], [2, 2, 0, 0, 0], [2, 2, 2, 2, 0]])


class TestOverorders:
    def test_two_by_two_hereditary(self):
        result = overorders(M([[0, 0], [1, 0]]))
        expected = {
            M([[0, 0], [1, 0]]),
            M([[0, 0], [0, 0]]),
            M([[0, -1], [1, 0]]),
        }
        assert set(result.members) == expected
        assert len(result) == 3

    def test_zero_matrix_is_maximal(self):
        result = overorders(LevelMatrix.zero(3))
        assert result.members == (LevelMatrix.zero(3),)

    def test_contains_base_and_maximal(self):
        for m in enumerate_orders(3, 2):
            result = overorders(m)
            assert m in result
            assert LevelMatrix.zero(3) in result

    def test_members_are_orders_dominated_by_base(self):
        m = M([[0, 0, 0], [2, 0, 1], [2, 1, 0]])
        assert is_order(m)
        for member in overorders(m):
            # an unmarked copy, so that the order condition is scanned, not read off the mark
            assert order_violation(LevelMatrix(member.entries)) is None
            for i in range(3):
                for j in range(3):
                    assert member.entries[i][j] <= m.entries[i][j]

    def test_members_distinct_and_sorted(self):
        members = overorders(M([[0, 0], [3, 0]])).members
        assert len(set(members)) == len(members)
        assert list(members) == sorted(members, key=lambda m: m.entries)

    def test_completeness_against_box_filter(self):
        # brute-force the whole box without pruning and compare
        m = M([[0, 0, 0], [2, 0, 1], [1, 1, 0]])
        assert is_order(m)
        expected = {M(rows) for rows in product_orders(*overorder_box(m.entries))}
        assert set(overorders(m).members) == expected

    def test_sec52_contains_the_non_gorenstein_overorder(self):
        assert SEC52_OVER in overorders(SEC52)

    def test_budget_guard(self):
        m = M([[0, 0], [3, 0]])
        assert overorder_bound(m) == 4
        with pytest.raises(BudgetExceededError) as info:
            overorders(m, budget=3)
        assert info.value.bound == 4

    def test_requires_order(self):
        with pytest.raises(NotAnOrderError):
            overorders(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))

    def test_size_one(self):
        result = overorders(M([[0]]))
        assert result.members == (M([[0]]),)


class TestBassOracle:
    def test_period_two_is_bass(self):
        assert bass_oracle(M([[0, 0], [2, 0]])) == (True, None)

    def test_zero_matrix_is_bass(self):
        assert bass_oracle(LevelMatrix.zero(4)) == (True, None)

    def test_sec52_witness_is_the_expected_overorder(self):
        verdict, witness = bass_oracle(SEC52)
        assert verdict is False
        assert not is_gorenstein(witness)
        assert canonical_form(witness)[0] == canonical_form(SEC52_OVER)[0]

    def test_witness_is_always_a_non_gorenstein_overorder(self):
        for m in enumerate_orders(3, 2):
            verdict, witness = bass_oracle(m)
            if not verdict:
                assert witness in overorders(m)
                assert not is_gorenstein(witness)

    def test_refuses_a_non_order_before_the_budget(self):
        non_order = M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(NotAnOrderError):
            bass_oracle(non_order, budget=1)

    def test_refuses_over_budget_even_when_the_base_decides(self):
        m = M([[0, 0, 0], [1, 0, 0], [2, 2, 0]])
        assert not is_gorenstein(m)
        with pytest.raises(BudgetExceededError) as info:
            bass_oracle(m, budget=10)
        assert info.value.bound == overorder_bound(m)


def test_one_budget_check_per_query(monkeypatch, tmp_path, capsys):
    # the overorder budget is checked once per query: before bass_oracle
    # returns a non-Gorenstein base, and inside overorders for a Gorenstein
    # one; a non-order is still refused before the budget, and a Gorenstein
    # base over budget still with the size and the budget
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    calls = []
    guard = oracle_module._check_overorder_budget

    def counting(m, budget):
        calls.append(m)
        guard(m, budget)

    monkeypatch.setattr(oracle_module, "_check_overorder_budget", counting)
    non_gorenstein = M([[0, 0, 0], [1, 0, 0], [2, 2, 0]])
    for base in (SEC52, M([[0, 0], [2, 0]]), non_gorenstein):
        calls.clear()
        bass_oracle(base)
        assert calls == [base]
    assert is_gorenstein(SEC52) and not is_gorenstein(non_gorenstein)
    path = tmp_path / "sec52.json"
    path.write_text(json.dumps({"n": 4, "m": SEC52.to_lists()}))
    for fmt in ("text", "json"):
        calls.clear()
        assert main(["classify", str(path), "--oracle", "--format", fmt]) == EXIT_OK
        assert calls == [SEC52]
    capsys.readouterr()

    calls.clear()
    with pytest.raises(NotAnOrderError):
        bass_oracle(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]), budget=1)
    assert calls == []
    size = overorder_bound(SEC52)
    message = f"overorder search size {size} exceeds the budget {size - 1}"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        bass_oracle(SEC52, budget=size - 1)
    assert main(["classify", str(path), "--oracle", "--budget", str(size - 1)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bass_oracle_tests_each_overorder_once(monkeypatch):
    # the base is the one overorder at distance 0: tested first, and not again as a member
    calls = []

    def counting(m):
        calls.append(m)
        return is_gorenstein(m)

    monkeypatch.setattr(oracle_module, "is_gorenstein", counting)
    bass_orders = (M([[0, 0], [2, 0]]), LevelMatrix.zero(3), M([[0, 0, 0], [1, 0, 0], [1, 1, 0]]))
    for m in bass_orders + (staircase((2, 2), 3),):
        calls.clear()
        assert bass_oracle(m) == (True, None)
        members = overorders(m).members
        assert len(calls) == len(members)
        assert sorted(level.entries for level in calls) == [level.entries for level in members]


ORACLE_CASES = ["census-3-5", "census-4-2", "census-5-1", "gorenstein-4-3", "period-two", "sec52", "distance-two"]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_bass_oracle_matches_full_scan(name, census_result):
    kind, *size = name.split("-")
    if kind in ("census", "gorenstein"):
        classes = census_result(int(size[0]), int(size[1])).classes
        levels = [c.canonical for c in classes if kind == "census" or c.report.is_gorenstein]
    elif kind == "period":
        levels = [
            staircase((k, n - k), a) for n in range(2, 6) for k in range(1, n) for a in (1, 2, 3)
        ]
    elif kind == "distance":
        # a census class level (its own canonical form, entries <= 2) with its witness two steps down
        assert canonical_form(DISTANCE_TWO)[0] == DISTANCE_TWO and is_gorenstein(DISTANCE_TWO)
        assert bass_oracle(DISTANCE_TWO) == (False, DISTANCE_TWO_WITNESS)
        assert sum(map(sum, DISTANCE_TWO.entries)) - sum(map(sum, DISTANCE_TWO_WITNESS.entries)) == 2
        levels = [DISTANCE_TWO]
    else:
        levels = [SEC52, SEC52_OVER]
    rng = random.Random(name)
    for m in levels + [conjugate(m, random_weyl(rng, m.n)) for m in levels]:
        assert bass_oracle(m) == brute_bass_oracle(m), m


def cover_walk(rows):
    """Every overorder of the order ``rows``, by a breadth-first walk from it over the covers.

    The cover C_ij(m) of an order m, for i != j with m[i][j] + m[j][i] >= 1, is the min-plus
    closure of m - e_ij: entry (p, q) becomes min(m[p][q], m[p][i] + m[i][j] - 1 + m[j][q]),
    since a shortest path uses the lowered edge at most once (a cycle through it weighs at
    least m[i][j] - 1 + m[j][i] >= 0), so C_ij(m) is an order, and it is below m.
    The walk reaches every overorder m' of m, an order with m' <= m entrywise.  If m' != m,
    take (i, j) with m'[i][j] < m[i][j].  Then m[i][j] + m[j][i] >= m'[i][j] + 1 + m'[j][i] >= 1,
    so C_ij(m) exists; and m' <= m - e_ij, so every entry of m' is at most each path sum
    m'[p][i] + m'[i][j] + m'[j][q] <= m[p][i] + m[i][j] - 1 + m[j][q], that is m' <= C_ij(m).
    Each step lowers the entry sum by at least 1, so by induction on sum(m) - sum(m') the
    walk from C_ij(m) reaches m'.  Every node of the walk is an order below m: no more.
    """
    n = len(rows)
    seen = {rows}
    queue = deque(seen)
    while queue:
        m = queue.popleft()
        for i in range(n):
            for j in range(n):
                if i == j or m[i][j] + m[j][i] < 1:
                    continue
                cover = tuple(
                    tuple(min(m[p][q], m[p][i] + m[i][j] - 1 + m[j][q]) for q in range(n)) for p in range(n)
                )
                if cover not in seen:
                    seen.add(cover)
                    queue.append(cover)
    return seen


# (n, largest random entry, pair-range product window, count): orders drawn as the
# oracle-bass benchmark draws its own, with the tests' random_order
COVER_WALK_DRAWS = {"random-4": (4, 3, (512, 2048), 20), "random-5": (5, 2, (4096, 16384), 10)}


@pytest.fixture(scope="module")
def cover_walk_levels():
    """The levels of test_overorders_match_the_cover_walk by case, drawn once per module."""
    levels = {"family6-2-2": [next(f for f in load_families() if f.index == 6).instantiate(a=2, b=2)]}
    rng = random.Random("cover-walk")
    for name, (n, bound, (low, high), count) in COVER_WALK_DRAWS.items():
        levels[name] = []
        while len(levels[name]) < count:
            m = random_order(rng, n, bound)
            if low <= overorder_bound(m) < high:
                levels[name].append(m)
    return levels


@pytest.mark.parametrize("name", ["family6-2-2", *COVER_WALK_DRAWS])
def test_overorders_match_the_cover_walk(name, cover_walk_levels):
    # the box search against a walk that never reads a box: the same members, in entry order
    for m in cover_walk_levels[name]:
        assert [member.entries for member in overorders(m).members] == sorted(cover_walk(m.entries)), m
