import random

import pytest

from monorders import (
    DimensionMismatch,
    InvalidInputError,
    LevelMatrix,
    NotAnOrderError,
    SearchTooLargeError,
    WeylElement,
    bass_oracle,
    canonical_form,
    classify_eichler,
    compose,
    conjugate,
    inverse,
    is_gorenstein,
    is_order,
    is_upper_triangular,
    normalize_positive,
    order_violation,
    overorders,
    triangular_form,
)

from conftest import brute_canonical_form, enumerate_orders, random_order, random_weyl


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


NON_ORDERS = {
    "triangle": (
        M([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
        "input level is not an order (m[3,1] > m[3,2] + m[2,1] at (i,j,k)=(3,2,1))",
    ),
    "diagonal": (M([[1, 0], [0, 0]]), "input level is not an order (diagonal entry m[1,1] is nonzero)"),
}


@pytest.mark.parametrize(
    "func",
    [canonical_form, triangular_form, classify_eichler, is_gorenstein, overorders, bass_oracle, normalize_positive],
    ids=lambda func: func.__name__,
)
@pytest.mark.parametrize("name", sorted(NON_ORDERS))
def test_one_non_order_refusal(name, func):
    # the command line prints the same message after "error: "
    m, message = NON_ORDERS[name]
    with pytest.raises(NotAnOrderError) as info:
        func(m)
    assert str(info.value) == message
    assert info.value.witness == order_violation(m)


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

    def test_matches_its_formula_entrywise(self):
        # canonical_form, the census orbits and the brute-force oracles all
        # build conjugates with one kernel, so no differential test sees it
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 8)
            m = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            w = random_weyl(rng, n)
            c = conjugate(m, w).entries
            for i in range(n):
                for j in range(n):
                    assert c[w.perm[i]][w.perm[j]] == m.entries[i][j] + w.shifts[i] - w.shifts[j]

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


def _staircase(blocks, a):
    # upper triangular, a below the diagonal blocks: Eichler with invariant `blocks`
    owner = [b for b, size in enumerate(blocks) for _ in range(size)]
    return M([[a if bj < bi else 0 for bj in owner] for bi in owner])


def _blow_up(level, sizes):
    # index i of `level` becomes sizes[i] twins (pair sum 0) with its row and column
    owner = [i for i, size in enumerate(sizes) for _ in range(size)]
    return M([[level.entries[i][j] for j in owner] for i in owner])


def _symmetric_levels(rng, n):
    # the inputs whose ties and transposition classes drive the pruning
    ones = M([[int(i != j) for j in range(n)] for i in range(n)])
    split = rng.randint(1, n - 1)
    levels = [
        LevelMatrix.zero(n),
        ones,
        _staircase((1,) * n, 1),
        _staircase((split, n - split), 2),
        _staircase((n // 2, n - n // 2), 1),
    ]
    if n >= 3:
        cuts = sorted(rng.sample(range(1, n), 2))
        sizes = (cuts[0], cuts[1] - cuts[0], n - cuts[1])
        levels.append(_blow_up(random_order(rng, 3, 3), sizes))
    return levels


CANONICAL_CASES = (
    [f"census-{n}-{b}" for n, b in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 1))]
    + [f"random-{n}" for n in (6, 7, 8)]
    + [f"symmetric-{n}" for n in range(2, 9)]
)


def _canonical_inputs(name):
    kind, n, *bound = name.split("-")
    n = int(n)
    rng = random.Random(name)
    if kind == "census":
        # every census order (of positive type) and a random conjugate of it
        orders = enumerate_orders(n, int(bound[0]))
        return orders + [conjugate(m, random_weyl(rng, n)) for m in orders]
    if kind == "random":
        count = {6: 6, 7: 3, 8: 1}[n]
        return [random_order(rng, n, b) for b in (0, 1, 2, 5) for _ in range(count)]
    return [conjugate(m, random_weyl(rng, n)) for m in _symmetric_levels(rng, n)]


@pytest.mark.parametrize("name", CANONICAL_CASES)
def test_canonical_form_matches_permutation_sweep(name):
    for m in _canonical_inputs(name):
        assert canonical_form(m) == brute_canonical_form(m), m


class TestUpperTriangular:
    def test_strictly_lower_values(self):
        assert is_upper_triangular(M([[0, 0], [3, 0]]))

    def test_entry_above_diagonal(self):
        m = M([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [2, 1, 1, 0]])
        assert not is_upper_triangular(m)

    def test_zero_matrix(self):
        assert is_upper_triangular(LevelMatrix.zero(4))
