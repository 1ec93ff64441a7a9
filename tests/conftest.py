"""Shared helpers for the test suite."""

import random

from monorders import LevelMatrix, WeylElement
from monorders.census import _census_box
from monorders.levels import _orders_in_box


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
