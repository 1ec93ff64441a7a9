"""Definition-level brute-force oracles: overorder enumeration, Bass test.

Every order containing a monomial order is itself monomial, with an
entrywise smaller level bounded below by the negated transpose of the base
level.  That makes the set of overorders a finite box search, and "Bass"
(every overorder is Gorenstein) directly checkable, independently of the
structural classification theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import BudgetExceededError
from .duality import is_gorenstein
from .levels import LevelMatrix, _orders_in_box, _require_order

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class OverorderSet:
    """All orders containing ``base``, including base itself, sorted by entries."""

    base: LevelMatrix
    members: tuple[LevelMatrix, ...]

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, level):
        return level in self.members


def overorder_bound(m: LevelMatrix) -> int:
    """Pair-range product used as the search-size guard."""
    rows = m.entries
    n = m.n
    return prod(rows[i][j] + rows[j][i] + 1 for j in range(1, n) for i in range(j))


def overorders(m: LevelMatrix, budget: int = DEFAULT_BUDGET) -> OverorderSet:
    """Exhaustively enumerate the levels of all orders containing m.

    Candidates have zero diagonal and -m[j][i] <= m'[i][j] <= m[i][j]: the
    box [-m^T, m], searched by the pruned pair-by-pair generator shared with
    the census.  Raises BudgetExceededError when the pair-range product
    exceeds ``budget``.
    """
    _require_order(m)
    bound = overorder_bound(m)
    if bound > budget:
        raise BudgetExceededError(
            f"overorder search size {bound} exceeds the budget {budget}", bound
        )
    rows = m.entries
    lo = tuple(tuple(-row[i] for row in rows) for i in range(m.n))
    found = sorted(_orders_in_box(lo, rows))
    return OverorderSet(m, tuple(LevelMatrix(level) for level in found))


def bass_oracle(m: LevelMatrix, budget: int = DEFAULT_BUDGET):
    """Bass by definition: every overorder Gorenstein.

    Returns (True, None) or (False, w) with w a non-Gorenstein overorder.
    Among the failures, w is the one closest to the base (smallest total
    entrywise difference, ties broken lexicographically), so the witness is
    a minimal perturbation of the input.
    """
    rows = m.entries
    n = m.n
    best = None
    for member in overorders(m, budget).members:
        if is_gorenstein(member):
            continue
        distance = sum(
            rows[i][j] - member.entries[i][j] for i in range(n) for j in range(n)
        )
        key = (distance, member.entries)
        if best is None or key < best[0]:
            best = (key, member)
    if best is None:
        return True, None
    return False, best[1]
