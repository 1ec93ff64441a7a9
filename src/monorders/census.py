"""Census engine: enumerate, deduplicate and classify orders of a given size.

The raw orders are those with zero first row and zero diagonal whose other
entries lie in [0, bound]: every class has such a representative, and fixing
the first row shrinks the box by (bound+1)**(n-1).  They come from the box
search that ``overorders`` also uses, which builds each pair's cells from the
intervals its triangles allow, so no non-order is built.  Raw orders are
folded into classes by orbit marking: the n! normalized conjugates of a
class's first raw order give its count, its canonical level (the least
conjugate) and its triangular form (the least one with a zero upper
triangle), and its other raw orders are skipped.  Per root one flat
comprehension normalizes the level and moves the root to 0, and one table of
(n-1)! index getters per n reads the conjugates fixing 0 off those n*n
entries.  Members stay flat; only the class level, the one classified, and
its triangular form are built, and the level carries both forms as marks.

``match_family`` ties 4x4 census classes back to the parametric Gorenstein
family table.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import InvalidInputError, NotAnOrderError
from .classify import ClassificationReport, classify
from .families import load_families
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    WeylElement,
    _check_search_cap,
    _is_plain_int,
    _order,
    _orbit_by_root,
    _orders_in_box,
    canonical_form,
)
from .oracle import DEFAULT_BUDGET, _check_budget

#: Each filter name and its test of a census class.
FILTERS = {
    "gorenstein": lambda cls: bool(cls.report.is_gorenstein),
    "eichler": lambda cls: cls.report.eichler is not None,
    "hereditary": lambda cls: bool(cls.report.is_hereditary),
    "bass": lambda cls: bool(cls.report.is_bass),
    "upper_triangular": lambda cls: cls.report.triangular is not None,
}


@dataclass(frozen=True)
class CensusQuery:
    n: int
    bound: int
    filters: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not _is_plain_int(self.n) or self.n < 1:
            raise InvalidInputError("census size must be positive")
        if not _is_plain_int(self.bound) or self.bound < 0:
            raise InvalidInputError("census bound must be nonnegative")
        if isinstance(self.filters, str) or not (
            isinstance(self.filters, Collection) and all(isinstance(name, str) for name in self.filters)
        ):
            raise InvalidInputError(f"filters must be a collection of filter names, got {self.filters!r}")
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


def _census_box(n, bound):
    """(lo, hi) of the census: first row and diagonal zero, other entries in [0, bound]."""
    hi = tuple(tuple(0 if i in (0, j) else bound for j in range(n)) for i in range(n))
    return LevelMatrix.zero(n).entries, hi


def _unflatten(flat, n):
    return tuple([flat[i:i + n] for i in range(0, n * n, n)])


def census(
    query: CensusQuery,
    budget: int = DEFAULT_BUDGET,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> CensusResult:
    """Run the census described by ``query``.

    Raw orders come from the pruned box search over the census box (see the
    module docstring).  The budget still bounds the raw box, not the search:
    BudgetExceededError is raised up front when (bound+1)**((n-1)**2)
    exceeds it, and then SearchTooLargeError when n exceeds ``search_cap``.
    Deterministic: classes are sorted by their canonical level.
    """
    n, bound = query.n, query.bound
    _check_budget("census raw space", [(bound + 1, (n - 1) ** 2)], budget)
    _check_search_cap(n, search_cap)

    # an orbit member, whose row 0 and diagonal are zero, is upper triangular iff its strict upper
    # triangle in rows 1..n-1 is zero; two copies of entry 0 keep the getter's value a tuple at every n
    upper = itemgetter(0, 0, *(n * i + j for i in range(1, n) for j in range(i + 1, n)))
    zeros = upper((0,) * (n * n))
    classes = {}  # flat least member of an orbit -> (class size, least upper triangular member)
    pending = set()  # flat raw orders of a class already counted, not yet enumerated
    raw_orders = 0
    for rows in _orders_in_box(*_census_box(n, bound)):
        raw_orders += 1
        flat = sum(rows, ())
        if flat in pending:
            pending.remove(flat)
            continue
        in_box = set()
        orbit = set()
        for norm, members in _orbit_by_root(rows, n):
            # normalized conjugates are nonnegative: in the box iff max <= bound, one test per root
            if max(norm) <= bound:
                in_box |= members
            orbit |= members
        upper_members = [member for member in orbit if upper(member) == zeros]
        classes[min(orbit)] = len(in_box), min(upper_members, default=None)
        pending |= in_box - {flat}

    identity = WeylElement.identity(n)  # the canonical_form witness of every class level
    all_classes = []
    for least in sorted(classes):  # flat order is row-major order
        count, upper_member = classes[least]
        triangular = None if upper_member is None else _order(_unflatten(upper_member, n))
        # classify reads the class level's canonical form and triangular form off its marks
        canonical = _order(_unflatten(least, n), _canonical=identity, _triangular=triangular)
        all_classes.append(CensusClass(canonical, classify(canonical, search_cap), count))

    totals = {"raw_orders": raw_orders, "classes": len(all_classes)}
    totals.update({name: sum(map(test, all_classes)) for name, test in FILTERS.items()})
    selected = tuple(c for c in all_classes if all(FILTERS[name](c) for name in query.filters))
    return CensusResult(query, selected, totals)


def match_family(level: LevelMatrix):
    """First family of the table with an instance conjugate to ``level``.

    Returns (family, params), params a dict of the family's parameters ({}
    for the parameterless family), or None.  Total: size mismatches and
    non-orders yield None.  The level's canonical form is found once and
    compared with that of each candidate instance, which comes marked as an
    order (``Family`` refuses a pattern with an instance that is not one).
    The search is finite because the maximal off-diagonal pair sum
    m[i][j] + m[j][i] is a conjugacy invariant and every family pattern
    realizes it as a, or as a + b.
    """
    families = [family for family in load_families() if family.n == level.n]
    if not families:
        return None
    try:
        target = canonical_form(level)[0]
    except NotAnOrderError:
        return None
    rows, n = level.entries, level.n
    pair_max = max((rows[i][j] + rows[j][i] for j in range(1, n) for i in range(j)), default=0)
    for family in families:
        if not family.params:
            assignments = [{}]
        elif family.params == ("a",):
            assignments = [{"a": pair_max}] if pair_max >= 1 else []
        else:
            assignments = [{"a": a, "b": pair_max - a} for a in range(1, pair_max)]
        for params in assignments:
            if canonical_form(family.instantiate(**params))[0] == target:
                return family, params
    return None
