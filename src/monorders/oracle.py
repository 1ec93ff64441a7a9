"""Definition-level oracles: overorder enumeration, Bass test.

Every order containing a monomial order is itself monomial, with an
entrywise smaller level bounded below by the negated transpose of the base
level.  That makes the set of overorders a finite box search, and "Bass"
(every overorder is Gorenstein) directly checkable, independently of the
structural classification theorems; ``bass_oracle`` tests the base, then
the overorders nearest-first, and stops at the first non-Gorenstein one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from .errors import BudgetExceededError, InvalidInputError
from .duality import is_gorenstein
from .levelio import _digit_limit
from .levels import LevelMatrix, _is_plain_int, _order, _orders_in_box, _require_order, _unflatten

DEFAULT_BUDGET = 10**7


@cache
def _printable_cap(digits):
    return 10**digits - 1  # once per digit limit (640 <= L <= 4,300), not per budget check


def _check_budget(what, powers, budget):
    """Raise BudgetExceededError when the product of base**exp over ``powers`` exceeds budget.

    Bases are at least 1, so the product stops once it is over the budget and
    too long to print; a power whose bit length alone shows that is not built.
    """
    if not _is_plain_int(budget):
        raise InvalidInputError(f"budget must be an integer, got {budget!r}")
    digits = _digit_limit()
    cap = max(budget, _printable_cap(digits))
    size = 1
    for base, exp in powers:
        size = size * base**exp if exp * (base.bit_length() - 1) <= cap.bit_length() else cap + 1
        if size > cap:
            raise BudgetExceededError(f"{what} of more than {digits} digits exceeds the budget {budget}")
    if size > budget:
        raise BudgetExceededError(f"{what} {size} exceeds the budget {budget}", size)


@dataclass(frozen=True)
class OverorderSet:
    """All orders containing ``base``, including base itself, sorted by entries."""

    base: LevelMatrix
    members: tuple[LevelMatrix, ...]

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _pair_ranges(m):
    rows = m.entries
    return (rows[i][j] + rows[j][i] + 1 for j in range(1, m.n) for i in range(j))


def overorder_bound(m: LevelMatrix) -> int:
    """Pair-range product used as the search-size guard."""
    return prod(_pair_ranges(m))


def _check_overorder_budget(m, budget):
    _check_budget("overorder search size", ((r, 1) for r in _pair_ranges(m)), budget)


def overorders(m: LevelMatrix, budget: int = DEFAULT_BUDGET) -> OverorderSet:
    """Exhaustively enumerate the levels of all orders containing m.

    Candidates have zero diagonal and -m[j][i] <= m'[i][j] <= m[i][j]: the
    box [-m^T, m], searched by the pruned pair-by-pair generator shared with
    the census.  Raises NotAnOrderError when m is not an order, then
    BudgetExceededError when the pair-range product exceeds ``budget``.
    """
    _require_order(m)
    _check_overorder_budget(m, budget)
    rows = m.entries
    lo = tuple(tuple(-row[i] for row in rows) for i in range(m.n))
    unflatten = _unflatten(m.n)  # the search's flat row-major tuples sort as their rows do
    return OverorderSet(m, tuple(_order(unflatten(flat)) for flat in sorted(_orders_in_box(lo, rows))))


def bass_oracle(m: LevelMatrix, budget: int = DEFAULT_BUDGET):
    """Bass by definition: every overorder Gorenstein.

    Returns (True, None) or (False, w) with w a non-Gorenstein overorder.
    Among the failures, w is the one closest to the base (smallest total
    entrywise difference, ties broken lexicographically), so the witness is
    a minimal perturbation of the input.  Candidates are tested in that
    order by ``is_gorenstein`` up to the first failure, the base once and first
    (the only one at distance 0, so a non-Gorenstein base needs no enumeration);
    the members come marked as orders, so only the base is scanned.  Refuses
    as ``overorders`` does: the order check of ``is_gorenstein``, then the budget.
    """
    if not is_gorenstein(m):
        _check_overorder_budget(m, budget)
        return False, m
    # nearest first: the largest entry sum, ties in entry order; the base, tested above, leads
    for member in sorted(overorders(m, budget), key=lambda level: -sum(map(sum, level.entries)))[1:]:
        if not is_gorenstein(member):
            return False, member
    return True, None
