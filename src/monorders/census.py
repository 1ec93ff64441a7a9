"""Census engine: enumerate, deduplicate and classify orders of a given size.

The raw orders, zero in the first row and on the diagonal and in [0, bound]
elsewhere, come as flat tuples from the box search that ``overorders`` also
uses.  Orbit marking folds them into classes: a class's first raw order,
normalized by each root and permuted by the permutations fixing 0, gives its
n! members, whose least is its canonical level and whose least with a zero
upper triangle is its triangular form.  Those permutations form a group, so a
root whose normalization the orbit already holds is skipped: the kept roots'
orbits are disjoint, and a class's count sums its in-box roots' orbit sizes.
The search drops a raw order whose leading k-block, 3 <= k < n, has a lesser
pair-order key under a permutation of 1..k-1, so it meets each class first at
its pair-order-least in-box member.  That test reads the first k(k-1) cells of
one pair-order list by the first (k-1)! of one colex list of those
permutations, so it extends each smaller block's test: a k-block passes only
if they do, and the largest test admits to ``pending``, root by root, exactly
the in-box members the search will still visit.

The loop reads every filter verdict.  Row r of an order m has a Gorenstein
witness column j, m[r][k] + m[k][j] = c for all k (so c = m[r][j]), iff
column j of m normalized by row r, m[k][j] + m[r][k] - m[r][j], is zero: a
class is Gorenstein iff each root's normalization has a zero column (a
skipped root's is an earlier one's conjugate by a permutation fixing 0).
Only a kept class is built as a level, marked and classified; ``classify``
runs its Gorenstein scan.

``match_family`` ties 4x4 census classes back to the parametric Gorenstein
family table, searching only instances with the class's sorted pair sums.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cache
from operator import add, itemgetter, sub

from .errors import InvalidInputError, NotAnOrderError
from .classify import ClassificationReport, _bass_verdict, _staircase_shape, classify
from .families import load_families
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    WeylElement,
    _check_search_cap,
    _is_plain_int,
    _order,
    _orders_in_box,
    _unflatten,
    canonical_form,
)
from .oracle import DEFAULT_BUDGET, _check_budget


@cache
def _passed(gorenstein, shape, triangular):
    # the filters that a class passes, by its Gorenstein verdict, Eichler shape and triangular verdict
    hereditary, bass, _ = _bass_verdict(shape)
    holds = (gorenstein, shape is not None, hereditary, bass, triangular)
    return frozenset(name for name, passed in zip(FILTERS, holds) if passed)


#: Each filter name and its test of a census class, read off the class report.
FILTERS = {
    name: lambda c, name=name: name in _passed(c.report.is_gorenstein, c.report.eichler, bool(c.report.triangular))
    for name in ("gorenstein", "eichler", "hereditary", "bass", "upper_triangular")
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


def _least_block(keys):
    # the leading-block test: no key getter reads a lesser key than the first one, the identity's
    own, *others = keys

    def test(flat):
        key = own(flat)
        for get in others:
            if get(flat) < key:
                return False
        return True

    return test


@cache
def _orbit_tables(n):
    """(normalize, roots, gets, upper, zeros, blocks): the census index tables of size n, built once and kept."""
    # from n*n*r on, the level normalized by row r, r moved to 0: m[a][b] + m[r][a] - m[r][b] for a, b in
    # (r, 0, .., r-1, r+1, ..).  Root 0's is the raw order; two last indices 0 keep each getter a tuple at n = 1
    orders = [(r, *range(r), *range(r + 1, n)) for r in range(1, n)]
    cells = [(order[0], a, b) for order in orders for a in order for b in order]
    pair = itemgetter(*[n * a + b for r, a, b in cells], 0, 0)
    row_a = itemgetter(*[n * r + a for r, a, b in cells], 0, 0)
    row_b = itemgetter(*[n * r + b for r, a, b in cells], 0, 0)
    normalize = lambda flat: flat + tuple(map(sub, map(add, pair(flat), row_a(flat)), row_b(flat)))
    roots = [slice(start, start + n * n) for start in range(0, n ** 3, n * n)]
    # one n*n index getter per permutation fixing 0; tuple for the identity (a 1-index itemgetter returns an entry)
    fixing_0 = [(0, *tail[::-1]) for tail in itertools.permutations(range(n - 1, 0, -1))]
    gets = (tuple, *(itemgetter(*(n * a + b for a in order for b in order)) for order in fixing_0[1:]))
    # an orbit member, whose row 0 and diagonal are zero, is upper triangular iff its strict upper
    # triangle in rows 1..n-1 is zero; two copies of entry 0 keep the getter's value a tuple at every n
    upper = itemgetter(0, 0, *(n * i + j for i in range(1, n) for j in range(i + 1, n)))
    # the k-block test, 3 <= k < n, keys the first k(k-1) cells of the search's pair order, m[a][b] then m[b][a]
    # for (a, b) = (0,1), (0,2), (1,2), .., by the permutations fixing k..n-1, which lead fixing_0 (colex order)
    pair_order = [cell for b in range(1, n) for a in range(b) for cell in ((a, b), (b, a))]
    key = lambda order, k: itemgetter(*(n * order[a] + order[b] for a, b in pair_order[: k * (k - 1)]))
    leading = lambda k: itertools.takewhile(lambda order: order[k:] == tuple(range(k, n)), fixing_0)
    blocks = {k: _least_block([key(order, k) for order in leading(k)]) for k in range(3, n)}
    return normalize, roots, gets, upper, upper((0,) * (n * n)), blocks


def census(query: CensusQuery, budget: int = DEFAULT_BUDGET, search_cap: int = DEFAULT_SEARCH_CAP) -> CensusResult:
    """Run the census described by ``query``.

    The budget bounds the raw box, not its pruned search: BudgetExceededError
    is raised up front when (bound+1)**((n-1)**2) exceeds it, and then
    SearchTooLargeError when n exceeds ``search_cap``.  Deterministic: classes
    are sorted by their canonical level; the totals count every class, and
    ``raw_orders`` sums the class counts.
    """
    n, bound = query.n, query.bound
    _check_budget("census raw space", [(bound + 1, (n - 1) ** 2)], budget)
    _check_search_cap(n, search_cap)

    normalize, roots, gets, upper, zeros, blocks = _orbit_tables(n)
    unflatten = _unflatten(n)
    columns = itemgetter(*(slice(j, n * n, n) for j in range(n)), slice(0, 0))  # a tuple of n columns at n = 1 too
    keeps_others = query.filters <= {"upper_triangular"}  # the other filters keep only Gorenstein classes
    totals = {"raw_orders": 0, "classes": 0, **dict.fromkeys(FILTERS, 0)}
    kept = {}  # flat least member of a kept class -> (class size, least upper triangular member, its shape)
    pending = set()  # flat raw orders of a class already counted that the search has yet to visit
    for flat in _orders_in_box(*_census_box(n, bound), blocks):
        if flat in pending:
            pending.remove(flat)
            continue
        norms = normalize(flat)
        count = 0
        orbit = set()
        gorenstein = True
        for root in roots:
            norm = norms[root]
            if norm not in orbit:  # else a permutation fixing 0 maps an earlier root's onto it: same members
                gorenstein = gorenstein and (0,) * n in columns(norm)  # the zero-column rule, until a root fails
                members = {get(norm) for get in gets}  # the conjugates sending this root to 0, a new orbit
                # normalized conjugates are nonnegative: in the box iff max <= bound, one test per root
                if max(norm) <= bound:
                    count += len(members)
                    pending.update(filter(blocks[n - 1], members) if blocks else members)
                orbit |= members
        if gorenstein or keeps_others:  # the least upper triangular member, in one pass
            form = min([member for member in orbit if upper(member) == zeros], default=None)
            shape = _staircase_shape(unflatten(form), n) if gorenstein and form is not None else None
            passed = _passed(gorenstein, shape, form is not None)
            if passed >= query.filters:
                kept[min(orbit)] = count, form, shape
        else:  # the filters drop the class, which has no shape to read: only whether it has a form counts
            passed = _passed(False, None, zeros in map(upper, orbit))
        for name in passed:
            totals[name] += 1
        totals["raw_orders"] += count  # every raw order is an in-box member of exactly one class
        totals["classes"] += 1
        pending.remove(flat)  # flat, the search's own visit, is an in-box member that passes every block test

    identity = WeylElement.identity(n)  # the canonical_form witness of every class level
    selected = []
    for least, (count, form, shape) in sorted(kept.items()):  # flat order is row-major order
        eichler = None if shape is None else shape.canonical()
        triangular = None if form is None else _order(unflatten(form), _eichler=eichler)
        canonical = _order(unflatten(least), _canonical=identity, _triangular=triangular)
        selected.append(CensusClass(canonical, classify(canonical, search_cap), count))
    return CensusResult(query, tuple(selected), totals)


def match_family(level: LevelMatrix):
    """First family of the table with an instance conjugate to ``level``.

    Returns (family, params), params a dict of the family's parameters ({}
    for the parameterless family), or None.  Total: size mismatches and
    non-orders yield None.  The level's canonical form is found once and
    compared with that of each candidate instance, which comes marked as an
    order (``Family`` refuses a pattern with an instance that is not one).
    The search is finite because the maximal off-diagonal pair sum
    m[i][j] + m[j][i] is a conjugacy invariant and every family pattern
    realizes it as a, or as a + b; the sorted list of all pair sums is one
    too, and an instance whose list differs from the level's is not searched.
    """
    families = [family for family in load_families() if family.n == level.n]
    if not families:
        return None
    try:
        target = canonical_form(level)[0]
    except NotAnOrderError:
        return None
    n = level.n
    pair_sums = lambda rows: sorted(rows[i][j] + rows[j][i] for j in range(1, n) for i in range(j))
    sums = pair_sums(level.entries)
    pair_max = max(sums, default=0)
    for family in families:
        if not family.params:
            assignments = [{}]
        elif family.params == ("a",):
            assignments = [{"a": pair_max}] if pair_max >= 1 else []
        else:
            assignments = [{"a": a, "b": pair_max - a} for a in range(1, pair_max)]
        for params in assignments:
            instance = family.instantiate(**params)
            if pair_sums(instance.entries) == sums and canonical_form(instance)[0] == target:
                return family, params
    return None
