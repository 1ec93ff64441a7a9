"""Shared helpers for the test suite."""

import itertools
import random

from monorders import EichlerShape, LevelMatrix, WeylElement
from monorders.census import _census_box
from monorders.levels import _is_upper_triangular_rows, _orders_in_box, _permuted_normalized


def min_plus_closure(rows):
    """Shortest-path closure of a nonnegative matrix with zero diagonal.

    The result always satisfies the order condition, which makes it a cheap
    generator of random orders.
    """
    n = len(rows)
    rows = [list(r) for r in rows]
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ri = rows[i]
            rik = ri[k]
            for j in range(n):
                v = rik + rk[j]
                if v < ri[j]:
                    ri[j] = v
    return rows


def random_order(rng: random.Random, n: int, bound: int, zero_first_row=False) -> LevelMatrix:
    rows = [
        [
            0 if i == j or (zero_first_row and i == 0) else rng.randint(0, bound)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LevelMatrix.from_rows(min_plus_closure(rows))


def random_weyl(rng: random.Random, n: int, shift_bound: int = 3) -> WeylElement:
    perm = list(range(n))
    rng.shuffle(perm)
    shifts = tuple(rng.randint(-shift_bound, shift_bound) for _ in range(n))
    return WeylElement(shifts, tuple(perm))


def triangular_box(n: int, bound: int):
    """(lo, hi) of the upper triangular levels with below-diagonal entries in [0, bound]."""
    hi = tuple(tuple(bound if j < i else 0 for j in range(n)) for i in range(n))
    return LevelMatrix.zero(n).entries, hi


def _sorted_orders(box):
    # sorted rows are the row-major lexicographic order of a product sweep
    return [LevelMatrix(rows) for rows in sorted(_orders_in_box(*box))]


def enumerate_orders(n: int, bound: int):
    """All orders with zero first row, zero diagonal and entries in [0, bound]."""
    return _sorted_orders(_census_box(n, bound))


def enumerate_triangular_orders(n: int, bound: int):
    """All upper triangular orders with below-diagonal entries in [0, bound]."""
    return _sorted_orders(triangular_box(n, bound))


def _brute_triangular_candidates(m: LevelMatrix):
    # every upper triangular normalized permutation conjugate, one per n! scan step
    for sigma in itertools.permutations(range(m.n)):
        candidate = _permuted_normalized(m.entries, m.n, sigma)
        if _is_upper_triangular_rows(candidate, m.n):
            yield candidate


def brute_staircase_shape(rows, n):
    """Definition-level shape of an upper triangular order: prefix rows, then blocks.

    Checks that every row is an a-prefix followed by zeros and that the
    prefixes form a block staircase, and fails loudly when they do not.
    """
    values = {rows[i][j] for i in range(n) for j in range(i) if rows[i][j] != 0}
    if not values:
        return EichlerShape(1, (n,), None)
    if len(values) > 1:
        return None
    a = values.pop()
    prefix = []
    for i in range(n):
        ri = rows[i]
        cnt = 0
        while cnt < i and ri[cnt] == a:
            cnt += 1
        assert all(ri[j] == 0 for j in range(cnt, i)), "0/a row is not a prefix"
        prefix.append(cnt)
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or prefix[i] != prefix[start]:
            assert prefix[start] == start, "0/a prefixes are not a block staircase"
            blocks.append(i - start)
            start = i
    return EichlerShape(len(blocks), tuple(blocks), a)


def brute_classify_eichler(m: LevelMatrix):
    """Eichler shape by the n! sweep: the shape of the lex-min staircase conjugate."""
    best_level = None
    best_shape = None
    for candidate in _brute_triangular_candidates(m):
        shape = brute_staircase_shape(candidate, m.n)
        if shape is not None and (best_level is None or candidate < best_level):
            best_level = candidate
            best_shape = shape
    return None if best_shape is None else best_shape.canonical()


def brute_triangular_form(m: LevelMatrix):
    """Lex-min upper triangular normalized permutation conjugate by the n! sweep."""
    best = min(_brute_triangular_candidates(m), default=None)
    return None if best is None else LevelMatrix(best)
