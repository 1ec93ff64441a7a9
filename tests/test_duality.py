import random
import re

import pytest

from monorders import (
    DimensionMismatch,
    InvalidInputError,
    LevelMatrix,
    NotALatticeError,
    NotAnOrderError,
    conjugate,
    dual_level,
    gorenstein_failing_row,
    gorenstein_via_dual,
    gorenstein_witnesses,
    is_gorenstein,
    is_lattice,
    is_projective,
    lattice_violation,
    normalize_positive,
    projective_witness,
)
from monorders.duality import _gorenstein_scan
from conftest import (
    ORBIT_SIZES,
    SEC52,
    SEC52_OVER,
    M,
    brute_gorenstein_scan,
    enumerate_orders,
    random_order,
    random_weyl,
)


class TestIsLattice:
    def test_column_of_the_order(self):
        assert is_lattice(M([[0, 0], [1, 0]]), (0, 1))

    def test_violation_witness(self):
        assert lattice_violation(LevelMatrix.zero(2), (0, 1)) == (2, 1)

    def test_constant_type_over_positive_level(self):
        m = M([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        for c in (-2, 0, 3):
            assert is_lattice(m, (c, c, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_lattice(M([[0, 0], [1, 0]]), (0, 1, 2))

    def test_requires_order(self):
        with pytest.raises(NotAnOrderError):
            is_lattice(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]), (0, 0, 0))

    @pytest.mark.parametrize(
        "func", [is_lattice, lattice_violation, projective_witness, is_projective], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("l", [(0, 0.5, 1), (0, 1.0, 1), (True, 1, 1)], ids=["half", "float", "bool"])
    def test_type_entries_must_be_plain_ints(self, func, l):
        # the hereditary chain: (0, 1, 1) is a lattice and column 1
        m = M([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'type entries must be integers, got {l!r}')}$"):
            func(m, l)


class TestIsProjective:
    def test_column_witness(self):
        assert projective_witness(M([[0, 0], [1, 0]]), (0, 1)) == (1, 0)

    def test_no_shift_matches(self):
        assert projective_witness(M([[0, 0], [2, 0]]), (0, 1)) is None
        # brute force over all plausible (j, c) pairs agrees
        m = M([[0, 0], [2, 0]])
        matches = [
            (j, c)
            for j in range(2)
            for c in range(-2, 3)
            if all((0, 1)[i] == m.entries[i][j] + c for i in range(2))
        ]
        assert matches == []

    def test_zero_type_over_upper_triangular(self):
        m = M([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        witness = projective_witness(m, (0, 0, 0))
        assert witness == (3, 0)
        assert is_projective(m, (0, 0, 0))

    def test_witness_soundness(self):
        m = SEC52
        l = (0, 1, 1, 2)  # first column
        j, c = projective_witness(m, l)
        assert all(l[i] - c == m.entries[i][j - 1] for i in range(4))

    def test_any_first_row(self):
        assert projective_witness(M([[0, 1], [0, 0]]), (0, 0)) == (1, 0)

    def test_matches_the_normalized_route(self):
        # shifting m by s = m[0] and l to l + s keeps the lattice verdict and
        # its witness, and moves a projectivity witness (j, c) to (j, c + s_j)
        rng = random.Random(13)
        for _ in range(400):
            n = rng.randint(2, 6)
            m = conjugate(random_order(rng, n, 4), random_weyl(rng, n))
            if not any(m.entries[0]):
                continue
            j = rng.randrange(n)
            if rng.random() < 0.5:
                # a shifted column of m, sometimes with a few entries moved
                c = rng.randint(-3, 3)
                l = tuple(e + c + rng.randint(-1, 1) * (rng.random() < 0.3) for e in m.column(j + 1))
            else:
                l = tuple(rng.randint(-4, 4) for _ in range(n))
            form = normalize_positive(m)
            adjusted = tuple(e + s for e, s in zip(l, form.applied.shifts))
            try:
                expected = projective_witness(form.level, adjusted)
            except NotALatticeError as exc:
                with pytest.raises(NotALatticeError) as info:
                    projective_witness(m, l)
                assert info.value.witness == exc.witness
                continue
            got = projective_witness(m, l)
            assert expected == (None if got is None else (got[0], got[1] + m.entries[0][got[0] - 1]))

    def test_requires_lattice(self):
        with pytest.raises(NotALatticeError):
            is_projective(LevelMatrix.zero(2), (0, 1))

    def test_requires_order(self):
        with pytest.raises(NotAnOrderError):
            is_projective(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]), (0, 0, 0))


class TestDualLevel:
    def test_hereditary_two_by_two(self):
        d = dual_level(M([[0, 0], [1, 0]]))
        assert d.raw == M([[0, -1], [0, 0]])
        assert d.normalized == M([[0, 0], [0, 1]])

    def test_zero_matrix_self_dual(self):
        d = dual_level(LevelMatrix.zero(3))
        assert d.raw == LevelMatrix.zero(3)
        assert d.normalized == LevelMatrix.zero(3)

    def test_generic_triangular_pattern(self):
        # the normalized dual of a triangular order repeats column j's head
        # value m[j][1] below the diagonal and m[j][1] - m[j][i] above it
        m = M([[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 0, 0], [3, 2, 1, 0]])
        expected = M([[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]])
        assert dual_level(m).normalized == expected

    def test_raw_dual_of_an_order_need_not_be_an_order(self):
        from monorders import is_order

        assert not is_order(dual_level(M([[0, 0], [1, 0]])).raw)

    def test_double_dual_identity(self):
        m = M([[0, 1, 2], [3, 0, 1], [2, 1, 0]])
        assert dual_level(dual_level(m).raw).raw == m

    def test_normalized_dual_of_positive_type_is_positive_type(self):
        for m in enumerate_orders(3, 2):
            normalized = dual_level(m).normalized
            assert all(normalized.entries[0][j] == 0 for j in range(3))
            assert all(e >= 0 for row in normalized.entries for e in row)


class TestGorenstein:
    def test_non_triangular_gorenstein_order(self):
        assert is_gorenstein(SEC52)
        assert gorenstein_witnesses(SEC52) == ((0, 4), (1, 3), (1, 2), (2, 1))

    def test_failing_row(self):
        assert not is_gorenstein(SEC52_OVER)
        assert gorenstein_failing_row(SEC52_OVER) == 2
        assert gorenstein_witnesses(SEC52_OVER) is None

    def test_zero_matrix(self):
        m = LevelMatrix.zero(3)
        assert is_gorenstein(m)
        assert all(c == 0 for c, _ in gorenstein_witnesses(m))

    def test_requires_order(self):
        with pytest.raises(NotAnOrderError):
            is_gorenstein(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))

    def test_witnesses_recover_rows_as_columns(self):
        # row i negated plus c equals column j, entrywise
        for i, (c, j) in enumerate(gorenstein_witnesses(SEC52)):
            assert tuple(-SEC52.entries[i][k] + c for k in range(4)) == SEC52.column(j)


@pytest.mark.parametrize("n,bound", ORBIT_SIZES)
def test_hashed_scan_matches_the_brute_scan_on_census_classes(n, bound, census_result):
    # the same least column, the same c and the same failing row as the O(n^3) scan, and
    # the same as the report that classify reads off the class level's scan mark
    for cls in census_result(n, bound).classes:
        expected = brute_gorenstein_scan(cls.canonical)
        assert _gorenstein_scan(cls.canonical.entries) == expected, cls.canonical
        assert (cls.report.gorenstein_witnesses, cls.report.gorenstein_failing_row) == expected


def test_hashed_scan_matches_the_brute_scan_on_random_orders():
    # random orders, half with a zero first row, and their Weyl conjugates, whose
    # entries can be negative; some of them are not Gorenstein
    rng = random.Random(2024)
    failing = 0
    for n in range(1, 9):
        for _ in range(60):
            m = random_order(rng, n, rng.randint(0, 4), zero_first_row=rng.random() < 0.5)
            for level in (m, conjugate(m, random_weyl(rng, n))):
                expected = brute_gorenstein_scan(level)
                assert _gorenstein_scan(level.entries) == expected, level
                failing += expected[0] is None
    assert failing > 0


class TestDualityCrossCheck:
    def test_agrees_on_fixtures(self):
        assert gorenstein_via_dual(SEC52) is True
        assert gorenstein_via_dual(SEC52_OVER) is False

    def test_agrees_on_small_sweep(self):
        for n in (2, 3):
            for m in enumerate_orders(n, 2):
                assert is_gorenstein(m) == gorenstein_via_dual(m)

    def test_agrees_on_conjugated_census_classes(self, census_result):
        # each (4,2) class under a conjugation, so the first row is rarely zero
        rng = random.Random(42)
        for cls in census_result(4, 2).classes:
            m = cls.canonical
            assert gorenstein_via_dual(conjugate(m, random_weyl(rng, 4))) == is_gorenstein(m)

    def test_gorenstein_positive_type_has_zero_column(self):
        for n in (2, 3, 4):
            for m in enumerate_orders(n, 1):
                if is_gorenstein(m):
                    assert any(
                        all(m.entries[i][j] == 0 for i in range(n)) for j in range(n)
                    )
