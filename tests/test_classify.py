import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from monorders import (
    BASS_EICHLER_PERIOD_TWO,
    BASS_HEREDITARY,
    BASS_NOT,
    ClassificationReport,
    EichlerShape,
    InvalidInputError,
    LevelMatrix,
    NotAnOrderError,
    NotPositiveTypeError,
    NotTriangularError,
    WeylElement,
    classify,
    classify_eichler,
    conjugate,
    eichler_shape_of_triangular,
    is_bass,
    is_gorenstein,
    is_hereditary,
    is_order,
    is_upper_triangular,
    order_violation,
    triangular_form,
    truncate,
)
from monorders.classify import _staircase_shape, _triangular_rows
from conftest import (
    ORBIT_SIZES,
    SEC52,
    M,
    brute_staircase_shape,
    brute_triangular_verdicts,
    enumerate_orders,
    enumerate_triangular_orders,
    min_plus_closure,
    random_order,
    random_weyl,
    staircase,
)


class TestEichlerShape:
    def test_invariant_must_sum_to_blocks(self):
        with pytest.raises(ValueError):
            EichlerShape(2, (1, 1, 1), 1)
        with pytest.raises(InvalidInputError):
            EichlerShape(2, (2, 0), 1)

    def test_period_one_carries_no_a(self):
        with pytest.raises(ValueError):
            EichlerShape(1, (3,), 1)
        with pytest.raises(ValueError):
            EichlerShape(2, (1, 1), None)

    def test_size_is_the_sum_of_the_blocks(self):
        assert EichlerShape(2, (1, 3), 1).n == 4

    def test_canonical_rotation(self):
        shape = EichlerShape(3, (1, 2, 1), 2)
        assert shape.canonical().invariant == (1, 1, 2)
        assert shape.canonical().period == 3
        assert shape.canonical().a == 2


class TestShapeOfTriangular:
    def test_period_three_example(self):
        m = M([[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [2, 2, 2, 0]])
        shape = eichler_shape_of_triangular(m)
        assert shape == EichlerShape(3, (1, 2, 1), 2)

    def test_mixed_values_are_not_eichler(self):
        assert eichler_shape_of_triangular(M([[0, 0, 0], [1, 0, 0], [2, 1, 0]])) is None

    def test_zero_matrix_is_maximal(self):
        shape = eichler_shape_of_triangular(LevelMatrix.zero(4))
        assert shape == EichlerShape(1, (4,), None)

    def test_requires_triangular(self):
        with pytest.raises(NotTriangularError):
            eichler_shape_of_triangular(M([[0, 1], [0, 0]]))

    def test_requires_order(self):
        with pytest.raises(NotAnOrderError):
            eichler_shape_of_triangular(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))


class TestClassifyEichler:
    def test_needs_conjugation(self):
        shape = classify_eichler(M([[0, 1], [0, 0]]))
        assert shape == EichlerShape(2, (1, 1), 1)

    def test_sec52_is_not_eichler(self):
        assert classify_eichler(SEC52) is None

    def test_zero_matrix(self):
        assert classify_eichler(LevelMatrix.zero(3)) == EichlerShape(1, (3,), None)

    def test_invariant_is_cyclic_minimal(self):
        m = M([[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [2, 2, 2, 0]])
        assert classify_eichler(m) == EichlerShape(3, (1, 1, 2), 2)

    def test_all_triangular_forms_carry_the_same_shape(self):
        # the period, the value a and the cyclic class of the invariant are
        # conjugation invariants, so every triangular conjugate must agree
        import itertools

        for m in enumerate_triangular_orders(4, 2):
            shapes = set()
            for sigma in itertools.permutations(range(4)):
                rows = conjugate(m, WeylElement(m.entries[sigma.index(0)], sigma)).entries
                if is_upper_triangular(LevelMatrix(rows)):
                    # a triangular input is read as is, lex-min form or not
                    assert classify_eichler(LevelMatrix(rows)) == classify_eichler(m)
                    shape = _staircase_shape(rows, 4)
                    if shape is not None:
                        shapes.add(shape.canonical())
            if shapes:
                assert len(shapes) == 1

    def test_triangular_non_order_is_refused(self):
        # upper triangular, so read without a search, but still checked first
        with pytest.raises(NotAnOrderError):
            classify_eichler(M([[0, 0, 0], [2, 0, 0], [0, 1, 0]]))


class TestHereditaryAndBass:
    def test_hereditary_chain(self):
        assert is_hereditary(M([[0, 0, 0], [1, 0, 0], [1, 1, 0]]))

    def test_period_two_large_a_is_not_hereditary(self):
        assert not is_hereditary(M([[0, 0], [2, 0]]))

    def test_zero_matrix_is_hereditary(self):
        assert is_hereditary(LevelMatrix.zero(3))

    def test_bass_period_two(self):
        assert is_bass(M([[0, 0], [2, 0]])) == (True, BASS_EICHLER_PERIOD_TWO)

    def test_not_bass_period_three(self):
        assert is_bass(M([[0, 0, 0], [2, 0, 0], [2, 2, 0]])) == (False, BASS_NOT)

    def test_sec52_not_bass(self):
        assert is_bass(SEC52) == (False, BASS_NOT)

    def test_hereditary_reason_wins(self):
        assert is_bass(M([[0, 0], [1, 0]])) == (True, BASS_HEREDITARY)


class TestTriangularForm:
    def test_recovers_triangular_conjugate(self):
        form = triangular_form(M([[0, 1], [0, 0]]))
        assert form == M([[0, 0], [1, 0]])

    def test_absent_for_sec52(self):
        assert triangular_form(SEC52) is None


class TestTruncate:
    def test_clamps_to_zero_one(self):
        assert truncate(M([[0, 0], [2, 0]])) == M([[0, 0], [1, 0]])

    def test_zero_fixed_point(self):
        assert truncate(LevelMatrix.zero(3)) == LevelMatrix.zero(3)

    def test_sec52(self):
        expected = M([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 0]])
        assert truncate(SEC52) == expected

    def test_rejects_negative_entries(self):
        with pytest.raises(NotPositiveTypeError):
            truncate(M([[0, 1], [-1, 0]]))

    def test_preserves_order_on_sweep(self):
        # the result comes marked, so an unmarked copy is scanned
        for n in (2, 3):
            for m in enumerate_orders(n, 3):
                assert order_violation(LevelMatrix(truncate(m).entries)) is None

    def test_comes_back_marked_and_an_unmarked_copy_passes_the_scan(self):
        # truncate marks its result as an order on the strength of the clamp
        # argument; the scan of an unmarked copy checks that argument
        rng = random.Random("truncate")
        for _ in range(200):
            m = random_order(rng, rng.randint(2, 6), 4)
            clamped = truncate(m)
            assert getattr(clamped, "_checked", False)
            assert order_violation(LevelMatrix(clamped.entries)) is None, m


class TestClassify:
    def test_sec52_report(self):
        report = classify(SEC52)
        assert report.is_order
        assert report.is_gorenstein
        assert report.eichler is None
        assert not report.is_hereditary
        assert not report.is_bass
        assert report.bass_reason == BASS_NOT

    def test_hereditary_two_by_two(self):
        report = classify(M([[0, 0], [1, 0]]))
        assert report.is_order and report.is_gorenstein
        assert report.eichler == EichlerShape(2, (1, 1), 1)
        assert report.is_hereditary and report.is_bass
        assert report.bass_reason == BASS_HEREDITARY

    def test_non_order_report(self):
        report = classify(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
        assert not report.is_order
        assert report.order_violation == (3, 2, 1)
        assert report.canonical is None
        assert report.is_gorenstein is None
        assert report.is_bass is None

    def test_verdict_chain_on_sweep(self):
        for m in enumerate_orders(3, 2):
            report = classify(m)
            if report.is_hereditary:
                assert report.is_bass
            if report.is_bass:
                assert report.is_gorenstein
            if report.eichler is not None:
                assert report.is_gorenstein

    def test_canonical_in_report_is_idempotent(self):
        report = classify(SEC52)
        assert classify(report.canonical).canonical == report.canonical

    @pytest.mark.parametrize(
        "rows",
        [SEC52.entries, ((0, 0, 0), (1, 0, 0), (1, 1, 0)), ((0, 0, 0), (0, 0, 0), (1, 0, 0))],
        ids=["sec52", "staircase", "non-order"],
    )
    def test_one_level_shared_between_threads(self, rows):
        # the order mark is the one write to a level: four threads (more than
        # the cores of a small runner) that classify the same fresh level at
        # once, switching often, each get the single-thread report
        expected = classify(LevelMatrix(rows))
        shared = LevelMatrix(rows)
        start = threading.Barrier(4, timeout=10)

        def run():
            start.wait()
            return classify(shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run) for _ in range(4)]
                reports = [future.result(timeout=10) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [expected] * 4
        assert [report.to_dict() for report in reports] == [expected.to_dict()] * 4

    def test_report_holds_every_field_as_the_constructor_does(self, census_result):
        # classify writes an order's report in one update of a bare instance, not through __init__:
        # it must hold every field, and a copy through __init__ must equal, hash and print the same
        reports = [c.report for n, bound in ORBIT_SIZES for c in census_result(n, bound).classes]
        rng = random.Random(0)
        reports += [classify(random_order(rng, n, 4)) for n in range(1, 8) for _ in range(4)]
        reports.append(classify(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])))
        assert not reports[-1].is_order
        names = {field.name for field in dataclasses.fields(ClassificationReport)}
        for report in reports:
            assert set(vars(report)) == names, report
            copy = dataclasses.replace(report)
            assert copy == report and hash(copy) == hash(report) and repr(copy) == repr(report)

    def test_report_json_shape(self):
        payload = classify(M([[0, 0], [1, 0]])).to_dict()
        assert payload["is_order"] is True
        assert payload["canonical"] == [[0, 0], [1, 0]]
        assert payload["eichler"] == {"period": 2, "invariant": [1, 1], "a": 1}
        assert payload["bass_reason"] == BASS_HEREDITARY
        assert payload["witnesses"]["order_violation"] is None
        assert payload["witnesses"]["gorenstein"] == [[0, 2], [1, 1]]


class TestTheoremEichlerEqualsGorensteinTriangular:
    def test_small_exhaustive(self):
        # triangular orders: Gorenstein exactly when the Eichler pattern exists
        for n in (2, 3):
            for m in enumerate_triangular_orders(n, 3):
                assert is_gorenstein(m) == (eichler_shape_of_triangular(m) is not None)


class TestTriangularGorensteinIsPermutationTriangular:
    def test_zero_one_entries(self):
        # 0/1 Gorenstein orders always admit a triangular conjugate
        for n in (2, 3):
            for m in enumerate_orders(n, 1):
                if is_gorenstein(m):
                    assert triangular_form(m) is not None


def _disguised_eichler_order(rng, n):
    # the closure of a random 0/a lower triangular matrix is a staircase, so
    # Eichler; conjugating it hides that
    a = rng.randint(1, 3)
    rows = [[rng.choice((0, a)) if j < i else 0 for j in range(n)] for i in range(n)]
    level = LevelMatrix.from_rows(min_plus_closure(rows))
    return conjugate(level, random_weyl(rng, n))


def _random_cases(n, count):
    rng = random.Random(1000 + n)
    return [
        _disguised_eichler_order(rng, n) if k % 2 else random_order(rng, n, 3)
        for k in range(count)
    ]


VERDICT_CASES = {
    **{f"census-{n}-{b}": (n, b) for n, b in ((1, 3), (2, 6), (3, 5), (4, 3), (5, 1))},
    "random-6": (6, 20),
    "random-7": (7, 6),
    "random-8": (8, 2),
}


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_triangular_verdicts_match_permutation_sweep(name):
    n, k = VERDICT_CASES[name]
    if name.startswith("census"):
        # each census order, and a random conjugate of it (no longer of
        # positive type); the sweep's answer is the same for both, since a
        # conjugate has the same set of normalized permutation conjugates
        rng = random.Random(n * 100 + k)
        pairs = [(m, conjugate(m, random_weyl(rng, n))) for m in enumerate_orders(n, k)]
    else:
        pairs = [(m, m) for m in _random_cases(n, k)]
    for m, disguised in pairs:
        form, shape = brute_triangular_verdicts(m)
        for level in {m, disguised}:
            assert classify_eichler(level) == shape, level
            found = triangular_form(level)
            assert found == form, level
            assert form is None or found._eichler == shape, level
            report = classify(level)
            assert report.triangular == form, level
            assert report.eichler == shape, level


def _down_set_rows(rows, n):
    # _triangular_rows sorting each admissible root by the size of the down-set
    # of i (the count of k <= i in the root's preorder), and checking on every
    # such root that the row-sum order is the same and the candidate is upper
    # triangular, as the comment of _triangular_rows argues
    best = None
    for base in rows:
        norm = [[rows[i][j] + base[i] - base[j] for j in range(n)] for i in range(n)]
        if any(norm[i][j] and norm[j][i] for i in range(n) for j in range(i)):
            continue
        order = sorted(range(n), key=lambda i: sum(norm[k][i] == 0 for k in range(n)))
        assert sorted(range(n), key=lambda i: sum(norm[i])) == order, rows
        candidate = tuple(tuple(norm[i][j] for j in order) for i in order)
        assert is_upper_triangular(LevelMatrix(candidate)), rows
        if best is None or candidate < best:
            best = candidate
    return best


TRIANGULAR_CENSUS_BOXES = [VERDICT_CASES[name] for name in sorted(VERDICT_CASES) if name.startswith("census")]


@pytest.mark.parametrize("n,bound", TRIANGULAR_CENSUS_BOXES)
def test_row_sums_order_every_census_root_by_its_down_set(n, bound, census_result):
    levels = enumerate_orders(n, bound) + [c.canonical for c in census_result(n, bound).classes]
    rng = random.Random(n * 100 + bound)
    for m in levels + [conjugate(m, random_weyl(rng, n)) for m in levels[::7]]:
        assert _triangular_rows(m.entries, n) == _down_set_rows(m.entries, n), m


@pytest.mark.parametrize("n", range(2, 9))
def test_row_sums_order_every_closure_root_by_its_down_set(n):
    rng = random.Random(2000 + n)
    for k in range(60):
        m = _disguised_eichler_order(rng, n) if k % 2 else random_order(rng, n, 3)
        for level in (m, conjugate(m, random_weyl(rng, n))):
            assert _triangular_rows(level.entries, n) == _down_set_rows(level.entries, n), level


@pytest.mark.parametrize("n", range(1, 7))
def test_staircase_matches_prefix_oracle(n):
    for m in enumerate_triangular_orders(n, 2):
        assert _staircase_shape(m.entries, n) == brute_staircase_shape(m.entries, n)


def test_verdicts_run_past_the_search_cap():
    chain = staircase((1,) * 10, 1)
    level = conjugate(chain, random_weyl(random.Random(10), 10))
    assert classify_eichler(level) == EichlerShape(10, (1,) * 10, 1)
    assert triangular_form(level) == chain
    assert is_hereditary(level)
    assert is_bass(level) == (True, BASS_HEREDITARY)
