import dataclasses
import enum
import importlib
import pkgutil
import random

import pytest

from monorders import (
    CensusQuery,
    DimensionMismatch,
    EichlerShape,
    Family,
    InvalidInputError,
    LevelMatrix,
    NotAnOrderError,
    SearchTooLargeError,
    WeylElement,
    bass_oracle,
    canonical_form,
    census,
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

from monorders.levels import _order, _unflatten

from conftest import (
    AUDITED,
    ORBIT_SIZES,
    SEC52,
    TRUSTED_BUILDERS,
    M,
    brute_canonical_form,
    enumerate_orders,
    random_order,
    random_weyl,
    staircase,
)


def _marked(m):
    # the private order mark, an attribute outside the dataclass fields
    return getattr(m, "_checked", False)


def _marked_canonical(m):
    # the census's private mark of a class level as its own canonical form
    return getattr(m, "_canonical", False)


def _census_class_level():
    # a class level as the census hands it out, with both marks
    return census(CensusQuery(3, 2)).classes[-1].canonical


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

    @pytest.mark.parametrize(
        "rows",
        [[[0, 2.7], [0, 0]], [[0, 0.5], [-0.5, 0]], [[0, "2"], [0, 0]], [[0, True], [0, 0]]],
        ids=["float", "float-pair", "string", "bool"],
    )
    def test_from_rows_rejects_non_integers(self, rows):
        # from_rows converts nothing: the constructor's check is the only entry check
        with pytest.raises(TypeError, match=f"^level entries must be integers, got {rows[0][1]!r}$"):
            M(rows)

    def test_from_rows_accepts_int_subclass_entries(self):
        # a row of entries not all of type int takes the per-entry check, which
        # accepts an int subclass such as an IntEnum member and refuses only bool
        class Level(enum.IntEnum):
            TWO = 2

        m = M([[0, Level.TWO], [0, 0]])
        assert m == M([[0, 2], [0, 0]]) and m.entries[0][1] is Level.TWO
        with pytest.raises(TypeError, match="^level entries must be integers, got True$"):
            M([[0, Level.TWO], [True, 0]])

    def test_row_column_one_based(self):
        m = M([[0, 1], [2, 0]])
        assert m.row(1) == (0, 1)
        assert m.column(1) == (0, 2)

    @pytest.mark.parametrize("index", [0, -1, 3, True, False, 1.0, "1"])
    def test_row_column_refuse_an_index_outside_one_to_n(self, index):
        # 0 and -1 would otherwise wrap around to the last rows and columns, and True read row 1
        m = M([[0, 1], [2, 0]])
        with pytest.raises(IndexError, match=rf"^index {index!r} is not an integer in 1\.\.2$"):
            m.row(index)
        with pytest.raises(IndexError, match=rf"^index {index!r} is not an integer in 1\.\.2$"):
            m.column(index)

    def test_hashable_and_equal(self):
        assert M([[0, 1], [2, 0]]) == M([[0, 1], [2, 0]])
        assert len({M([[0]]), M([[0]])}) == 1

    def test_order_mark_is_not_part_of_the_value(self):
        # a level that passed the order check carries a private mark; it
        # changes neither equality, nor the hash, nor the repr, nor the fields
        marked, fresh = M([[0, 1], [0, 0]]), M([[0, 1], [0, 0]])
        assert is_order(marked)
        assert _marked(marked) and not _marked(fresh)
        assert marked == fresh and hash(marked) == hash(fresh)
        assert len({marked, fresh}) == 1
        assert repr(marked) == repr(fresh) == "LevelMatrix(entries=((0, 1), (0, 0)))"
        assert [f.name for f in dataclasses.fields(LevelMatrix)] == ["entries"]
        assert dataclasses.asdict(marked) == dataclasses.asdict(fresh) == {"entries": ((0, 1), (0, 0))}
        assert dataclasses.astuple(marked) == dataclasses.astuple(fresh)
        # nor does the census's canonical mark
        canonical = _census_class_level()
        fresh = M(canonical.to_lists())
        assert _marked_canonical(canonical) and not _marked_canonical(fresh)
        assert canonical == fresh and hash(canonical) == hash(fresh)
        assert len({canonical, fresh}) == 1
        assert repr(canonical) == repr(fresh) == f"LevelMatrix(entries={canonical.entries!r})"
        assert dataclasses.asdict(canonical) == dataclasses.asdict(fresh) == {"entries": canonical.entries}
        assert dataclasses.astuple(canonical) == dataclasses.astuple(fresh)

    def test_a_level_built_as_an_order_is_the_validated_value(self):
        # _order skips the constructor's checks, and builds the value the constructor does
        rng = random.Random(22)
        for n in range(1, 7):
            rows = random_order(rng, n, 3).entries
            built, validated = _order(rows), LevelMatrix(rows)
            assert built == validated and hash(built) == hash(validated)
            assert repr(built) == repr(validated) and str(built) == str(validated)
            assert dataclasses.fields(built) == dataclasses.fields(validated)
            assert dataclasses.asdict(built) == dataclasses.asdict(validated) == {"entries": rows}
            assert vars(built) == {"entries": rows, "_checked": True}


def test_the_mark_audit_wraps_every_order_builder():
    # conftest checks each value _trusted builds, in every module of the package that binds
    # it; _order builds through levels' binding, so each level built as an order is re-proved
    audit = importlib.import_module("monorders.levels")._trusted
    assert audit.__module__ == "conftest"
    binders = set()
    for info in pkgutil.iter_modules(importlib.import_module("monorders").__path__):
        module = importlib.import_module(f"monorders.{info.name}")
        if hasattr(module, "_trusted"):
            assert module._trusted is audit, info.name
            binders.add(info.name)
    assert binders == set(TRUSTED_BUILDERS)
    before = dict(AUDITED)
    classes = census(CensusQuery(3, 1)).totals["classes"]
    assert AUDITED["class levels"] - before["class levels"] == classes
    assert AUDITED["levels"] - before["levels"] > classes  # the triangular forms too


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

    def test_a_refused_non_order_is_never_marked(self):
        bad = M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        for _ in range(2):
            assert not is_order(bad)
            with pytest.raises(NotAnOrderError) as info:
                is_gorenstein(bad)
            assert info.value.witness == (3, 2, 1)
        assert not _marked(bad)
        # a conjugate of a non-order is refused too, with its own witness
        moved = conjugate(bad, WeylElement((1, 0, -1), (2, 0, 1)))
        with pytest.raises(NotAnOrderError) as info:
            is_gorenstein(moved)
        assert info.value.witness == order_violation(moved) is not None

    def test_the_order_scan_marks_a_level_it_passes_and_no_other(self):
        # order_violation sets the mark and is_order only reads it, so a level
        # that is_order passes is marked only through the scan
        rng = random.Random(18)
        for n in range(1, 6):
            for _ in range(8):
                m = random_order(rng, n, 3)
                copy = M(m.entries)
                assert not _marked(m) and not _marked(copy)
                assert order_violation(m) is None and _marked(m)
                assert is_order(copy) and _marked(copy)
                rows = m.to_lists()
                rows[-1][-1] = 1
                non_orders = [M(rows)]
                if n > 1:
                    rows = m.to_lists()
                    rows[0][1] = -rows[1][0] - 1  # m[1][1] > m[1][2] + m[2][1]
                    non_orders.append(M(rows))
                for bad in non_orders:
                    for _ in range(2):
                        assert order_violation(bad) is not None and not is_order(bad)
                        with pytest.raises(NotAnOrderError):
                            normalize_positive(bad)
                    assert not _marked(bad)

    def test_values_built_from_an_order_are_marked(self):
        m = M([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert not _marked(conjugate(m, WeylElement((1, 0, 2), (1, 2, 0))))
        assert is_order(m)
        assert _marked(conjugate(m, WeylElement((1, 0, 2), (1, 2, 0))))
        assert _marked(canonical_form(m)[0]) and _marked(normalize_positive(m).level)
        assert _marked(triangular_form(m))
        assert all(_marked(member) for member in overorders(m))

    def test_values_built_from_a_canonical_level_are_not_marked_canonical(self):
        # only the census sets the canonical mark, on the class levels it builds
        canonical = _census_class_level()
        built = [
            conjugate(canonical, WeylElement((1, 0, 2), (1, 2, 0))),
            conjugate(canonical, WeylElement.identity(3)),
            normalize_positive(canonical).level,
            _order(canonical.entries),
        ]
        assert all(_marked(level) and not _marked_canonical(level) for level in built)
        # canonical_form returns a marked level as is, and computes the others
        assert canonical_form(canonical)[0] is canonical
        assert canonical_form(built[0]) == (canonical, brute_canonical_form(built[0])[1])


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

    def test_rejects_non_integer_shifts(self):
        with pytest.raises(TypeError, match="^shifts must be integers$"):
            WeylElement((0, 0.5), (0, 1))

    @pytest.mark.parametrize(
        "build",
        [lambda: WeylElement.identity(0), lambda: WeylElement.identity(-3), lambda: WeylElement((), ())],
        ids=["identity-0", "identity-negative", "empty"],
    )
    def test_rejects_size_zero(self, build):
        # every level has size at least 1, and so does every element acting on one
        with pytest.raises(InvalidInputError, match="^a Weyl element has size at least 1$"):
            build()

    def test_compose_refuses_different_sizes(self):
        with pytest.raises(DimensionMismatch, match="^cannot compose elements of different sizes$"):
            compose(WeylElement.identity(2), WeylElement.identity(3))

    def test_compose_then_invert_is_identity(self):
        w1 = WeylElement((1, -2, 0), (2, 0, 1))
        w2 = WeylElement((0, 3, -1), (1, 2, 0))
        w = compose(w2, w1)
        assert compose(inverse(w), w) == WeylElement.identity(3)
        assert compose(w, inverse(w)) == WeylElement.identity(3)


# a float or a bool where an int belongs, with the refusal each value type gives
NOT_PLAIN_INTS = {
    "weyl-float-perm": (lambda: WeylElement((0, 0), (1.0, 0.0)), r"perm must be a permutation of range\(2\)"),
    "weyl-bool-perm": (lambda: WeylElement((0, 0), (True, False)), r"perm must be a permutation of range\(2\)"),
    "census-float-bound": (lambda: CensusQuery(2, 1.5), "census bound must be nonnegative"),
    "census-bool-bound": (lambda: CensusQuery(2, True), "census bound must be nonnegative"),
    # a search cap or budget is a plain int too, refused by name before any search
    "canonical-bool-cap": (
        lambda: canonical_form(LevelMatrix.zero(3), True),
        "^search cap must be an integer, got True$",
    ),
    "census-none-cap": (lambda: census(CensusQuery(2, 1), 10**7, None), "^search cap must be an integer, got None$"),
    "overorders-bool-budget": (lambda: overorders(LevelMatrix.zero(3), True), "^budget must be an integer, got True$"),
    "overorders-float-budget": (
        lambda: overorders(LevelMatrix.zero(3), 2.5e9),
        r"^budget must be an integer, got 2500000000\.0$",
    ),
    "overorders-str-budget": (lambda: overorders(LevelMatrix.zero(3), "9"), "^budget must be an integer, got '9'$"),
    "bass-none-budget": (lambda: bass_oracle(LevelMatrix.zero(3), None), "^budget must be an integer, got None$"),
    "census-bool-size": (lambda: CensusQuery(True, 1), "census size must be positive"),
    "census-float-size": (lambda: CensusQuery(2.0, 1), "census size must be positive"),
    "eichler-bool-a": (lambda: EichlerShape(2, (1, 1), True), "a must be a positive integer"),
    "eichler-float-a": (lambda: EichlerShape(2, (1, 1), 1.0), "a must be a positive integer"),
    "eichler-float-blocks": (lambda: EichlerShape(2, (1.5, 0.5), 1), "block sizes must be positive integers"),
    "eichler-bool-blocks": (lambda: EichlerShape(1, (True,), None), "block sizes must be positive integers"),
    "eichler-bool-period": (lambda: EichlerShape(True, (2,), None), "period must equal the number of blocks"),
    "level-bool-size": (lambda: LevelMatrix.zero(True), "^size must be an integer, got True$"),
    "weyl-float-size": (lambda: WeylElement.identity(2.0), r"^size must be an integer, got 2\.0$"),
}


@pytest.mark.parametrize("name", sorted(NOT_PLAIN_INTS))
def test_value_types_refuse_non_plain_ints(name):
    build, message = NOT_PLAIN_INTS[name]
    with pytest.raises(InvalidInputError, match=message):
        build()


@pytest.mark.parametrize("n", range(1, 9))
def test_unflatten_slices_the_rows_of_a_flat_level(n):
    # equal to slicing row by row; n = 1 too, whose one row is the whole
    flat = tuple(range(n * n))
    assert _unflatten(n)(flat) == tuple([flat[i:i + n] for i in range(0, n * n, n)])


FAMILY_REFUSAL = "^family 0 pattern must be a square table of 0, a, b, a"
LISTS_FOR_TUPLES = [
    (lambda: LevelMatrix([(0, 1), (0, 0)]), "^level matrix entries must form a square tuple of tuples$"),
    (lambda: WeylElement([0, 0], [1, 0]), "^shifts and perm must be tuples$"),
    (lambda: WeylElement((0, 0), [1, 0]), "^shifts and perm must be tuples$"),
    (lambda: EichlerShape(2, [1, 1], 1), "^the invariant must be a tuple of block sizes$"),
    (lambda: Family(0, ("a",), [["0", "a"], ["0", "0"]]), FAMILY_REFUSAL),
    (lambda: Family(0, ("a",), (["0", "a"], ["0", "0"])), FAMILY_REFUSAL),
]


def test_value_types_refuse_lists_where_tuples_belong():
    # a value built on lists would compare unequal to its tuple twin and fail to hash
    for build, message in LISTS_FOR_TUPLES:
        with pytest.raises(InvalidInputError, match=message):
            build()
    assert LevelMatrix.from_rows([[0, 1], [0, 0]]) == LevelMatrix(((0, 1), (0, 0)))  # from_rows converts


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
        # canonical_form, the census orbits (one shift per root) and the brute-force
        # oracles all build conjugates with one kernel, so no differential test sees it
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
        staircase((1,) * n, 1),
        staircase((split, n - split), 2),
        staircase((n // 2, n - n // 2), 1),
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


@pytest.mark.parametrize("source", ["seeded", "census"])
def test_canonical_form_is_the_conjugate_by_its_witness(source, census_result):
    # canonical_form builds its level from the search's placement and its
    # witness without the constructor's checks: the pair must be exactly what
    # conjugating by a validated copy of the witness gives, the level marked
    # as an order.  The census class levels go in as unmarked copies, so each
    # takes the search instead of returning its own _canonical mark
    if source == "seeded":
        rng = random.Random("canonical-witness")
        inputs = [random_order(rng, n, b) for n in range(1, 10) for b in (0, 1, 3) for _ in range(3)]
        inputs += [conjugate(m, random_weyl(rng, m.n)) for m in inputs]
    else:
        inputs = [LevelMatrix(c.canonical.entries) for c in census_result(4, 2).classes]
        assert not any(map(_marked_canonical, inputs))
    for m in inputs:
        form, w = canonical_form(m, search_cap=9)
        assert (form, w) == (conjugate(m, w), w), m
        assert w == WeylElement(w.shifts, w.perm) and vars(w) == vars(WeylElement(w.shifts, w.perm)), m
        assert _marked(form) and not any(form.entries[0]), m


def _fives(n):
    # every off-diagonal entry 5: each index is interchangeable with every other
    return M([[5 * (i != j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", range(9, 17))
def test_canonical_form_is_a_class_invariant_past_the_sweep(n):
    # no n! sweep finishes here: seeded conjugates must share one form, and
    # each witness must carry its input onto it
    rng = random.Random(f"invariant-{n}")
    for m in _symmetric_levels(rng, n) + [_fives(n)]:
        forms = set()
        for level in [m] + [conjugate(m, random_weyl(rng, n)) for _ in range(3)]:
            form, witness = canonical_form(level, search_cap=n)
            assert conjugate(level, witness) == form, level
            forms.add(form)
        assert len(forms) == 1, m


def test_interchangeable_indices_test_their_classes_once(monkeypatch):
    # the 100x100 all-fives level needs no permutation: its form is its
    # first-row normalization, which is its own form with the identity
    # witness.  Its transposition classes are built before the first
    # position, one test per pair, and never again
    n = 100
    fives = _fives(n)
    normalized = normalize_positive(fives)
    assert canonical_form(fives, search_cap=200) == (normalized.level, normalized.applied)
    levels = importlib.import_module("monorders.levels")
    swappable = levels._swappable
    pairs = []
    monkeypatch.setattr(levels, "_swappable", lambda rows, n, x, y: pairs.append((x, y)) or swappable(rows, n, x, y))
    assert canonical_form(normalized.level, search_cap=200) == (normalized.level, WeylElement.identity(n))
    assert len(pairs) == n * (n - 1) // 2


def _counted_swaps(monkeypatch, rows, n):
    # (sigma, pairs tested, pairs accepted) of one canonical search on rows
    levels = importlib.import_module("monorders.levels")
    swappable = levels._swappable
    tested, accepted = [], []

    def counting(rows, n, x, y):
        tested.append((x, y))
        if swappable(rows, n, x, y):
            accepted.append((x, y))
            return True
        return False

    with monkeypatch.context() as patch:
        patch.setattr(levels, "_swappable", counting)
        return levels._canonical_sigma(rows, n)[0], tested, accepted


def test_shifted_interchangeable_indices_keep_their_class(monkeypatch):
    # a conjugate of the 6x6 all-fives level by distinct shifts: its row sums
    # all differ, by n times the shift differences, but its row-plus-column
    # sums agree, so every pair is tested and every pair fixes the level.  A
    # search that loses this class runs to n! leaves, and past the sweep sizes
    # to no end
    n = 6
    rng = random.Random("shifted-fives")
    perm = list(range(n))
    rng.shuffle(perm)
    rows = conjugate(_fives(n), WeylElement(tuple(rng.sample(range(-9, 10), n)), tuple(perm))).entries
    assert len({sum(row) for row in rows}) == n
    sigma, tested, accepted = _counted_swaps(monkeypatch, rows, n)
    assert sorted(tested) == sorted(accepted) == [(x, y) for x in range(n) for y in range(x)]
    assert sigma == brute_canonical_form(LevelMatrix(rows))[1].perm


@pytest.mark.parametrize("source", ["random", "census"])
def test_swap_classes_test_only_pairs_of_equal_sums(source, monkeypatch, census_result):
    # a transposition (x y) with shift d that fixes a zero-diagonal level makes
    # row x sum n*d more than row y and column x n*d less, so x and y have equal
    # row-plus-column sums: the search tests exactly those pairs, and no pair
    # of unequal sums fixes the level
    if source == "random":
        rng = random.Random("equal-sums")
        inputs = [random_order(rng, n, b).entries for n in range(1, 9) for b in (0, 1, 2, 5) for _ in range(3)]
    else:
        inputs = [c.canonical.entries for n, bound in ORBIT_SIZES for c in census_result(n, bound).classes]
    swappable = importlib.import_module("monorders.levels")._swappable
    for rows in inputs:
        n = len(rows)
        sums = [sum(row) + sum(column) for row, column in zip(rows, zip(*rows))]
        _, tested, _ = _counted_swaps(monkeypatch, rows, n)
        assert sorted(tested) == [(x, y) for x in range(n) for y in range(x) if sums[x] == sums[y]], rows
        assert all(sums[x] == sums[y] for x in range(n) for y in range(x) if swappable(rows, n, x, y)), rows


class TestUpperTriangular:
    def test_strictly_lower_values(self):
        assert is_upper_triangular(M([[0, 0], [3, 0]]))

    def test_entry_above_diagonal(self):
        assert not is_upper_triangular(SEC52)

    def test_zero_matrix(self):
        assert is_upper_triangular(LevelMatrix.zero(4))
