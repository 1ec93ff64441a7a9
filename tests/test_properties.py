"""Property-based checks of the algebraic laws behind every verdict."""

import hypothesis.strategies as st
from hypothesis import given, settings

from monorders import (
    LevelMatrix,
    WeylElement,
    canonical_form,
    classify,
    compose,
    conjugate,
    dual_level,
    gorenstein_via_dual,
    inverse,
    is_gorenstein,
    is_order,
    normalize_positive,
    order_violation,
    overorders,
    truncate,
)
from conftest import min_plus_closure

# the same examples on every run, as in test_fuzz.py
PROPERTY = settings(derandomize=True)


@st.composite
def orders(draw, max_n=5, max_entry=3, positive_only=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [
        [
            0 if i == j else draw(st.integers(min_value=0, max_value=max_entry))
            for j in range(n)
        ]
        for i in range(n)
    ]
    level = LevelMatrix.from_rows(min_plus_closure(rows))
    if positive_only:
        return level
    # optionally knock the level out of positive type with a random shift
    if draw(st.booleans()):
        shifts = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(n))
        level = conjugate(level, WeylElement(shifts, tuple(range(n))))
    return level


@st.composite
def weyl_elements(draw, n):
    perm = draw(st.permutations(tuple(range(n))))
    shifts = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(n))
    return WeylElement(shifts, tuple(perm))


@st.composite
def order_with_element(draw, **kwargs):
    m = draw(orders(**kwargs))
    return m, draw(weyl_elements(m.n))


@st.composite
def order_with_two_elements(draw, **kwargs):
    m = draw(orders(**kwargs))
    return m, draw(weyl_elements(m.n)), draw(weyl_elements(m.n))


@PROPERTY
@given(order_with_two_elements())
def test_group_action_composition(data):
    m, w1, w2 = data
    assert conjugate(conjugate(m, w1), w2) == conjugate(m, compose(w2, w1))


@PROPERTY
@given(order_with_element())
def test_conjugating_back_recovers_the_level(data):
    m, w = data
    assert conjugate(conjugate(m, w), inverse(w)) == m


@PROPERTY
@given(order_with_element())
def test_is_order_is_conjugation_invariant(data):
    m, w = data
    assert is_order(conjugate(m, w)) == is_order(m)


@PROPERTY
@given(orders())
def test_normalize_positive_invariants(m):
    form = normalize_positive(m)
    level = form.level
    assert all(level.entries[0][j] == 0 for j in range(m.n))
    assert all(e >= 0 for row in level.entries for e in row)
    assert conjugate(m, form.applied) == level


@PROPERTY
@given(orders())
def test_canonical_form_is_idempotent(m):
    level, witness = canonical_form(m)
    assert conjugate(m, witness) == level
    assert canonical_form(level)[0] == level


@PROPERTY
@given(order_with_element())
def test_canonical_form_is_a_class_invariant(data):
    m, w = data
    assert canonical_form(conjugate(m, w))[0] == canonical_form(m)[0]


@PROPERTY
@given(orders())
def test_double_dual_is_the_identity(m):
    assert dual_level(dual_level(m).raw).raw == m


@PROPERTY
@given(order_with_element())
def test_gorenstein_is_conjugation_invariant(data):
    m, w = data
    assert is_gorenstein(conjugate(m, w)) == is_gorenstein(m)


@settings(PROPERTY, max_examples=40)
@given(orders(max_n=4, max_entry=2))
def test_gorenstein_agrees_with_the_duality_route(m):
    assert is_gorenstein(m) == gorenstein_via_dual(m)


@settings(PROPERTY, max_examples=30)
@given(order_with_element(max_n=4, max_entry=2))
def test_classify_is_conjugation_invariant(data):
    m, w = data
    a = classify(m)
    b = classify(conjugate(m, w))
    assert a.is_gorenstein == b.is_gorenstein
    assert a.is_hereditary == b.is_hereditary
    assert a.is_bass == b.is_bass
    assert a.bass_reason == b.bass_reason
    assert a.eichler == b.eichler
    assert a.canonical == b.canonical


@PROPERTY
@given(orders(max_n=4, positive_only=True))
def test_truncate_preserves_the_order_condition(m):
    # the result comes marked, so an unmarked copy is scanned
    assert order_violation(LevelMatrix(truncate(m).entries)) is None


@settings(PROPERTY, max_examples=30)
@given(orders(max_n=3, max_entry=2, positive_only=True))
def test_overorder_members_contain_base_and_are_orders(m):
    result = overorders(m)
    assert m in result
    assert LevelMatrix.zero(m.n) in result
    for member in result:
        # an unmarked copy, so that the order condition is scanned, not read off the mark
        assert order_violation(LevelMatrix(member.entries)) is None
        assert all(
            member.entries[i][j] <= m.entries[i][j]
            for i in range(m.n)
            for j in range(m.n)
        )


@settings(PROPERTY, max_examples=25)
@given(order_with_element(max_n=3, max_entry=2))
def test_overorder_count_is_a_class_invariant(data):
    m, w = data
    assert len(overorders(m)) == len(overorders(conjugate(m, w)))
