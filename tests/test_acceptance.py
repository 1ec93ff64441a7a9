"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import random
import time
from contextlib import contextmanager

from monorders import (
    LevelMatrix,
    CensusQuery,
    bass_oracle,
    canonical_form,
    census,
    classify,
    compose,
    conjugate,
    dual_level,
    eichler_shape_of_triangular,
    gorenstein_via_dual,
    is_bass,
    is_gorenstein,
    is_order,
    load_families,
    match_family,
    order_violation,
    triangular_form,
    truncate,
)
from conftest import (
    SEC52,
    SEC52_OVER,
    brute_match_family,
    enumerate_orders,
    enumerate_triangular_orders,
    random_order,
    random_weyl,
)


@contextmanager
def criterion(index, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {index} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"acceptance {index} ({description}): FAIL (runtime {elapsed:.1f}s >= {limit}s)")
        raise AssertionError(f"criterion {index} exceeded its {limit}s budget")
    print(f"acceptance {index} ({description}): PASS ({elapsed:.2f}s)")


def test_criterion_1_family_table_reproduction():
    with criterion(1, "size-4 Gorenstein census matches the family table", limit=10.0):
        result = census(CensusQuery(4, 2, frozenset({"gorenstein"})))
        classes = [cls.canonical for cls in result.classes]

        families = load_families()
        in_bound = []
        for family in families:
            if not family.params:
                in_bound.append((family, {}))
            elif family.params == ("a",):
                in_bound.extend((family, {"a": a}) for a in (1, 2))
            else:
                in_bound.append((family, {"a": 1, "b": 1}))
        assert len(in_bound) == 11

        # every in-bound instantiation appears as a class, all distinct
        instantiated = {
            canonical_form(family.instantiate(**params))[0]
            for family, params in in_bound
        }
        assert len(instantiated) == len(in_bound)
        assert instantiated == set(classes)

        # every class matches exactly one family, with in-bound parameters
        for level in classes:
            matches = [
                (family, params)
                for family in families
                if (params := brute_match_family(level, family)) is not None
            ]
            assert len(matches) == 1
            assert match_family(level) == matches[0]
            _, params = matches[0]
            assert all(value in (1, 2) for value in params.values())
            if len(params) == 2:
                assert params == {"a": 1, "b": 1}


def test_criterion_2_triangular_gorenstein_is_eichler():
    with criterion(2, "triangular Gorenstein = Eichler pattern, n<=4 entries<=3", limit=5.0):
        checked = 0
        for n in (1, 2, 3, 4):
            for m in enumerate_triangular_orders(n, 3):
                assert is_gorenstein(m) == (eichler_shape_of_triangular(m) is not None)
                checked += 1
        # the 4^6 = 4096 size-4 candidates thin out to 119 orders; with the
        # smaller sizes the sweep covers 144 triangular orders in total
        assert checked == 144


def test_criterion_3_bass_oracle_agrees_with_classifier():
    with criterion(3, "Bass by definition = Bass by classification", limit=120.0):
        # exhaustive over conjugacy classes for n <= 3, entries <= 2
        for n in (1, 2, 3):
            for cls in census(CensusQuery(n, 2)).classes:
                assert bass_oracle(cls.canonical)[0] == is_bass(cls.canonical)[0]

        # 1000 seeded random size-4 orders, half of them knocked out of
        # positive type by a random conjugation
        rng = random.Random(20260810)
        for trial in range(1000):
            m = random_order(rng, 4, 2, zero_first_row=True)
            if trial % 2:
                m = conjugate(m, random_weyl(rng, 4))
            assert bass_oracle(m)[0] == is_bass(m)[0]


def test_criterion_4_counterexample_fixture():
    with criterion(4, "Gorenstein non-Bass fixture and its witness overorder"):
        report = classify(SEC52)
        assert report.is_order
        assert report.is_gorenstein is True
        assert report.is_bass is False

        verdict, witness = bass_oracle(SEC52)
        assert verdict is False
        assert canonical_form(witness)[0] == canonical_form(SEC52_OVER)[0]
        assert is_gorenstein(SEC52_OVER) is False


def test_criterion_5_zero_one_gorenstein_conjugates_triangular():
    with criterion(5, "0/1 Gorenstein orders admit triangular conjugates, n<=4"):
        checked = 0
        for n in (1, 2, 3, 4):
            for m in enumerate_orders(n, 1):
                if is_gorenstein(m):
                    assert triangular_form(m) is not None
                    checked += 1
        assert checked > 0


def test_criterion_6_truncation_preserves_order_and_bass():
    with criterion(6, "truncation keeps orders orders and Bass orders Bass"):
        cache = {}
        for n in (1, 2, 3, 4):
            for m in enumerate_orders(n, 3):
                t = truncate(m)
                assert order_violation(LevelMatrix(t.entries)) is None  # t comes marked: scan a copy
                if is_bass(m)[0]:
                    if t not in cache:
                        cache[t] = is_bass(t)[0]
                    assert cache[t]


def test_criterion_7_algebraic_invariants_randomized():
    with criterion(7, "algebraic laws on 10^4 randomized cases each, n<=5"):
        cases = 10_000

        rng = random.Random(1)
        for _ in range(cases):
            n = rng.randint(1, 5)
            m = random_order(rng, n, 3)
            w1, w2 = random_weyl(rng, n), random_weyl(rng, n)
            assert conjugate(conjugate(m, w1), w2) == conjugate(m, compose(w2, w1))

        rng = random.Random(2)
        for _ in range(cases):
            n = rng.randint(1, 5)
            m = random_order(rng, n, 3)
            w = random_weyl(rng, n)
            conj = conjugate(m, w)
            assert is_order(conj) == is_order(m)
            assert is_gorenstein(conj) == is_gorenstein(m)

        rng = random.Random(3)
        for _ in range(cases):
            n = rng.randint(1, 5)
            m = random_order(rng, n, 3)
            assert dual_level(dual_level(m).raw).raw == m

        rng = random.Random(4)
        for _ in range(cases):
            n = rng.randint(1, 5)
            m = random_order(rng, n, 3)
            level, witness = canonical_form(m)
            assert conjugate(m, witness) == level
            assert canonical_form(level)[0] == level

        # classify bundles every verdict; invariance of the full report
        rng = random.Random(5)
        for _ in range(cases):
            n = rng.randint(1, 5)
            m = random_order(rng, n, 2)
            w = random_weyl(rng, n)
            a = classify(m)
            b = classify(conjugate(m, w))
            assert (
                a.is_gorenstein,
                a.is_hereditary,
                a.is_bass,
                a.bass_reason,
                a.eichler,
                a.canonical,
            ) == (
                b.is_gorenstein,
                b.is_hereditary,
                b.is_bass,
                b.bass_reason,
                b.eichler,
                b.canonical,
            )


def test_criterion_8_gorenstein_duality_cross_check():
    with criterion(8, "Gorenstein criterion agrees with the duality route, n<=4 B<=2"):
        for n in (1, 2, 3, 4):
            for m in enumerate_orders(n, 2):
                assert is_gorenstein(m) == gorenstein_via_dual(m)
