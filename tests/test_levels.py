import pytest

from monorders import (
    DimensionMismatch,
    InvalidInputError,
    LevelMatrix,
    NotAnOrderError,
    SearchTooLargeError,
    WeylElement,
    canonical_form,
    compose,
    conjugate,
    inverse,
    is_order,
    is_upper_triangular,
    normalize_positive,
    order_violation,
)


def M(rows):
    return LevelMatrix.from_rows(rows)


class TestLevelMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LevelMatrix(())

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            LevelMatrix(((0, 0), (0,)))
        with pytest.raises(InvalidInputError):
            LevelMatrix(((0, 0),))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            LevelMatrix(((0.5,),))

    def test_row_column_one_based(self):
        m = M([[0, 1], [2, 0]])
        assert m.row(1) == (0, 1)
        assert m.column(1) == (0, 2)

    def test_hashable_and_equal(self):
        assert M([[0, 1], [2, 0]]) == M([[0, 1], [2, 0]])
        assert len({M([[0]]), M([[0]])}) == 1


class TestIsOrder:
    def test_upper_triangular_is_order(self):
        assert is_order(M([[0, 0], [1, 0]]))

    def test_triangle_violation_witness(self):
        # m[3][1] = 1 > m[3][2] + m[2][1] = 0
        assert order_violation(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])) == (3, 2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_matrix_is_order(self, n):
        assert is_order(LevelMatrix.zero(n))

    def test_diagonal_witness(self):
        assert order_violation(M([[0, 0], [0, 2]])) == 2

    def test_negative_entries_allowed(self):
        assert is_order(M([[0, 1], [-1, 0]]))


class TestWeylElement:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            WeylElement((0, 0), (0, 0))
        with pytest.raises(InvalidInputError):
            WeylElement((0, 0), (1, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            WeylElement((0,), (0, 1))

    def test_compose_then_invert_is_identity(self):
        w1 = WeylElement((1, -2, 0), (2, 0, 1))
        w2 = WeylElement((0, 3, -1), (1, 2, 0))
        w = compose(w2, w1)
        assert compose(inverse(w), w) == WeylElement.identity(3)
        assert compose(w, inverse(w)) == WeylElement.identity(3)


class TestConjugate:
    def test_swap(self):
        w = WeylElement((0, 0), (1, 0))
        assert conjugate(M([[0, 0], [1, 0]]), w) == M([[0, 1], [0, 0]])

    def test_identity_action(self):
        m = M([[0, 2, 1], [0, 0, 0], [1, 3, 0]])
        assert conjugate(m, WeylElement.identity(3)) == m

    def test_shift(self):
        w = WeylElement((0, -1), (0, 1))
        assert conjugate(M([[0, 0], [1, 0]]), w) == M([[0, 1], [0, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conjugate(M([[0]]), WeylElement.identity(2))

    def test_preserves_order_condition_both_ways(self):
        m = M([[0, 0], [1, 0]])
        w = WeylElement((5, -3), (1, 0))
        assert is_order(conjugate(m, w))
        bad = M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        assert not is_order(conjugate(bad, WeylElement((1, 0, 2), (2, 1, 0))))


class TestNormalizePositive:
    def test_general_input(self):
        form = normalize_positive(M([[0, 3], [-1, 0]]))
        assert form.level == M([[0, 0], [2, 0]])
        assert form.applied == WeylElement((0, 3), (0, 1))

    def test_already_positive_is_fixed(self):
        m = M([[0, 0], [1, 0]])
        form = normalize_positive(m)
        assert form.level == m
        assert form.applied == WeylElement.identity(2)

    def test_conjugate_of_maximal_collapses_to_zero(self):
        form = normalize_positive(M([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]))
        assert form.level == LevelMatrix.zero(3)

    def test_round_trip(self):
        m = M([[0, 3], [-1, 0]])
        form = normalize_positive(m)
        assert conjugate(m, form.applied) == form.level

    def test_rejects_non_order(self):
        with pytest.raises(NotAnOrderError):
            normalize_positive(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))


class TestCanonicalForm:
    def test_two_by_two(self):
        m = M([[0, 1], [0, 0]])
        level, witness = canonical_form(m)
        assert level == M([[0, 0], [1, 0]])
        assert conjugate(m, witness) == level

    def test_zero_matrix_fixed_with_identity_witness(self):
        level, witness = canonical_form(LevelMatrix.zero(3))
        assert level == LevelMatrix.zero(3)
        assert witness == WeylElement.identity(3)

    def test_period_three_staircase(self):
        # blocks (1,2,1): the cyclic rotation (2,1,1) has two zero rows up
        # front and wins the row-major comparison
        m = M([[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [2, 2, 2, 0]])
        level, witness = canonical_form(m)
        assert level == M([[0, 0, 0, 0], [0, 0, 0, 0], [2, 2, 0, 0], [2, 2, 2, 0]])
        assert conjugate(m, witness) == level

    def test_idempotent(self):
        m = M([[0, 1, 2], [3, 0, 1], [2, 1, 0]])
        assert is_order(m)
        level, _ = canonical_form(m)
        assert canonical_form(level)[0] == level

    def test_rejects_non_order(self):
        with pytest.raises(NotAnOrderError):
            canonical_form(M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))

    def test_search_cap(self):
        with pytest.raises(SearchTooLargeError):
            canonical_form(LevelMatrix.zero(9))
        with pytest.raises(SearchTooLargeError):
            canonical_form(LevelMatrix.zero(3), search_cap=2)


class TestUpperTriangular:
    def test_strictly_lower_values(self):
        assert is_upper_triangular(M([[0, 0], [3, 0]]))

    def test_entry_above_diagonal(self):
        m = M([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [2, 1, 1, 0]])
        assert not is_upper_triangular(m)

    def test_zero_matrix(self):
        assert is_upper_triangular(LevelMatrix.zero(4))
