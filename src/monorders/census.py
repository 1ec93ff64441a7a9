"""Census engine: enumerate, deduplicate and classify orders of a given size.

The raw orders are those with zero first row and zero diagonal whose other
entries lie in [0, bound].  They are produced by the pruned box search that
``overorders`` also uses: off-diagonal pairs are assigned one at a time and a
prefix is dropped as soon as a triangle constraint on it fails, so the
non-orders of the box are never built.  Every raw order is folded into its
conjugacy class via the canonical form, and one representative per class is
classified.  Fixing the first row up front is harmless (every class has such
a representative) and shrinks the box by (bound+1)**(n-1).

``match_family`` ties 4x4 census classes back to the parametric Gorenstein
family table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, InvalidInputError
from .classify import ClassificationReport, classify, triangular_form
from .families import Family
from .levels import DEFAULT_SEARCH_CAP, LevelMatrix, _orders_in_box, canonical_form, is_order

FILTERS = ("gorenstein", "eichler", "hereditary", "bass", "upper_triangular")

DEFAULT_CENSUS_BUDGET = 10**7


@dataclass(frozen=True)
class CensusQuery:
    n: int
    bound: int
    filters: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("census size must be positive")
        if self.bound < 0:
            raise InvalidInputError("census bound must be nonnegative")
        unknown = set(self.filters) - set(FILTERS)
        if unknown:
            raise InvalidInputError(f"unknown filters: {sorted(unknown)}")
        object.__setattr__(self, "filters", frozenset(self.filters))


@dataclass(frozen=True)
class CensusClass:
    canonical: LevelMatrix
    report: ClassificationReport
    count: int


@dataclass(frozen=True)
class CensusResult:
    """Classes passing all query filters, plus per-predicate class totals."""

    query: CensusQuery
    classes: tuple[CensusClass, ...]
    totals: dict


def _passes(name, cls):
    report = cls.report
    if name == "gorenstein":
        return bool(report.is_gorenstein)
    if name == "eichler":
        return report.eichler is not None
    if name == "hereditary":
        return bool(report.is_hereditary)
    if name == "bass":
        return bool(report.is_bass)
    if name == "upper_triangular":
        return triangular_form(cls.canonical) is not None
    raise ValueError(name)


def _census_box(n, bound):
    """(lo, hi) of the census: first row and diagonal zero, other entries in [0, bound]."""
    hi = tuple(tuple(0 if i in (0, j) else bound for j in range(n)) for i in range(n))
    return LevelMatrix.zero(n).entries, hi


def census(
    query: CensusQuery,
    budget: int = DEFAULT_CENSUS_BUDGET,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> CensusResult:
    """Run the census described by ``query``.

    Raw orders come from the pruned box search over the census box (see the
    module docstring).  The budget still bounds the raw box, not the search:
    BudgetExceededError is raised up front when (bound+1)**((n-1)**2)
    exceeds it.  Deterministic: classes are sorted by their canonical level.
    """
    n, bound = query.n, query.bound
    raw_space = (bound + 1) ** ((n - 1) ** 2)
    if raw_space > budget:
        raise BudgetExceededError(
            f"census raw space {raw_space} exceeds the budget {budget}", raw_space
        )

    counts: dict[LevelMatrix, int] = {}
    raw_orders = 0
    for rows in _orders_in_box(*_census_box(n, bound)):
        raw_orders += 1
        canonical, _ = canonical_form(LevelMatrix(rows), search_cap)
        counts[canonical] = counts.get(canonical, 0) + 1

    all_classes = []
    for canonical in sorted(counts, key=lambda c: c.entries):
        report = classify(canonical, search_cap)
        all_classes.append(CensusClass(canonical, report, counts[canonical]))

    totals = {"raw_orders": raw_orders, "classes": len(all_classes)}
    passing: dict[str, list[CensusClass]] = {}
    for name in FILTERS:
        passing[name] = [c for c in all_classes if _passes(name, c)]
        totals[name] = len(passing[name])

    selected = all_classes
    for name in sorted(query.filters):
        chosen = set(id(c) for c in passing[name])
        selected = [c for c in selected if id(c) in chosen]
    return CensusResult(query, tuple(selected), totals)


def match_family(level: LevelMatrix, family: Family, search_cap: int = DEFAULT_SEARCH_CAP):
    """Parameter assignment making the family conjugate to ``level``.

    Returns a dict with the family's parameters ({} for the parameterless
    family) or None when no assignment works.  Total: size mismatches and
    non-orders yield None.  The search is finite because the maximal
    off-diagonal pair sum m[i][j] + m[j][i] is a conjugacy invariant and
    every family pattern realizes it as a, or as a + b.
    """
    if level.n != family.n or not is_order(level):
        return None
    target = canonical_form(level, search_cap)[0]
    rows = level.entries
    n = level.n
    pair_max = max(
        (rows[i][j] + rows[j][i] for j in range(1, n) for i in range(j)), default=0
    )
    if not family.params:
        assignments = [{}]
    elif family.params == ("a",):
        assignments = [{"a": pair_max}] if pair_max >= 1 else []
    else:
        assignments = [{"a": a, "b": pair_max - a} for a in range(1, pair_max)]
    for params in assignments:
        instance = family.instantiate(**params)
        if not is_order(instance):
            continue
        if canonical_form(instance, search_cap)[0] == target:
            return params
    return None
