"""Integer level matrices and the monomial conjugation action on them.

A level matrix records, for every position (i, j) of an n x n matrix ring
over a local division ring, the valuation exponent of the ideal sitting in
that entry.  The resulting additive module is a ring, and hence an order,
exactly when the diagonal exponents vanish and the triangle condition
m[i][k] <= m[i][j] + m[j][k] holds for all index triples; ``is_order``
decides this and ``order_violation`` reports the first broken constraint.
Every function that needs an order raises ``NotAnOrderError`` through
``_require_order``, worded as the command line prints it.

Monomial matrices (a diagonal of uniformizer powers composed with a
permutation) act on levels by conjugation.  The action is encoded by
:class:`WeylElement` and computed by one loop, ``_conjugate_rows``, behind
:func:`conjugate`, the canonical form and the orbit scans; the convention
used throughout is

    conjugate(m, (shifts, perm))[perm[i]][perm[j]] = m[i][j] + shifts[i] - shifts[j]

Every order is conjugate to a *positive type* level: first row zero and all
entries nonnegative (:func:`normalize_positive`).  The row-major lex-min
normalized permutation conjugate is a canonical representative per
conjugacy class (:func:`canonical_form`), found by a search that fills
positions one at a time rather than by scanning all n! permutations.

All values are immutable and all functions are pure, so everything here is
safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatch, InvalidInputError, NotAnOrderError, SearchTooLargeError

#: Largest n for which canonical forms and n! orbit scans run without an explicit opt-in.
DEFAULT_SEARCH_CAP = 8


@dataclass(frozen=True)
class LevelMatrix:
    """Square integer matrix of valuation exponents.

    Entries are stored as a tuple of row tuples and may be any integers;
    validity as an order is a separate query (`is_order`), so intermediate
    states such as enumeration candidates or duals are representable.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InvalidInputError("a level matrix has size at least 1")
        for row in self.entries:
            if not isinstance(row, tuple) or len(row) != n:
                raise InvalidInputError("level matrix entries must form a square tuple of tuples")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError(f"level entries must be integers, got {e!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LevelMatrix":
        return cls(tuple(tuple(int(e) for e in row) for row in rows))

    @classmethod
    def zero(cls, n: int) -> "LevelMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        """Row i, 1-based."""
        return self.entries[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, 1-based."""
        return tuple(row[j - 1] for row in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self):
        width = max(len(str(e)) for row in self.entries for e in row)
        return "\n".join(" ".join(str(e).rjust(width) for e in row) for row in self.entries)


@dataclass(frozen=True)
class WeylElement:
    """Element (shifts, perm) of Z^n semidirect S_n acting on levels.

    ``shifts`` are the exponents of the diagonal part; ``perm`` maps index i
    to perm[i] (0-based).  Composition follows the action:
    ``conjugate(conjugate(m, w1), w2) == conjugate(m, compose(w2, w1))``.
    """

    shifts: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.shifts)
        if len(self.perm) != n:
            raise InvalidInputError("shifts and perm must have the same length")
        if sorted(self.perm) != list(range(n)):
            raise InvalidInputError(f"perm must be a permutation of range({n})")
        for s in self.shifts:
            if not isinstance(s, int) or isinstance(s, bool):
                raise TypeError("shifts must be integers")

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls((0,) * n, tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.shifts)


def compose(outer: WeylElement, inner: WeylElement) -> WeylElement:
    """The element acting as `inner` first, then `outer`."""
    if outer.n != inner.n:
        raise DimensionMismatch("cannot compose elements of different sizes")
    perm = tuple(outer.perm[p] for p in inner.perm)
    shifts = tuple(inner.shifts[i] + outer.shifts[inner.perm[i]] for i in range(inner.n))
    return WeylElement(shifts, perm)


def inverse(w: WeylElement) -> WeylElement:
    n = w.n
    inv_perm = [0] * n
    for i, p in enumerate(w.perm):
        inv_perm[p] = i
    shifts = tuple(-w.shifts[inv_perm[j]] for j in range(n))
    return WeylElement(shifts, tuple(inv_perm))


@dataclass(frozen=True)
class PositiveTypeForm:
    """A positive-type level together with the element that produced it."""

    level: LevelMatrix
    applied: WeylElement


def order_violation(m: LevelMatrix):
    """First violated order constraint, or None.

    Returns a 1-based diagonal index i when m[i][i] != 0, else the first
    1-based triple (i, j, k) with m[i][k] > m[i][j] + m[j][k] in row-major
    scan order, else None.
    """
    rows = m.entries
    n = m.n
    for i in range(n):
        if rows[i][i] != 0:
            return i + 1
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            rj = rows[j]
            mij = ri[j]
            for k in range(n):
                if ri[k] > mij + rj[k]:
                    return (i + 1, j + 1, k + 1)
    return None


def is_order(m: LevelMatrix) -> bool:
    """True iff the diagonal vanishes and the triangle condition holds."""
    return order_violation(m) is None


def _orders_in_box(lo, hi):
    """Row tuples of every order m with lo[i][j] <= m[i][j] <= hi[i][j] off the diagonal.

    Pairs {i, j} are assigned one at a time, in the order (0,1), (0,2), (1,2),
    (0,3), ...; each pair's cell already enforces the two-cycle condition
    m[i][j] + m[j][i] >= 0, and every triangle constraint is checked as soon
    as its last pair is assigned, so only viable prefixes are extended.
    Diagonal entries of the box are ignored (they are zero).  Iterative, so
    a yield costs the same at any depth.
    """
    n = len(lo)
    if n == 1:
        yield ((0,),)
        return
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    cells = [
        [
            (x, y)
            for x in range(lo[i][j], hi[i][j] + 1)
            for y in range(max(lo[j][i], -x), hi[j][i] + 1)
        ]
        for i, j in pairs
    ]
    cur = [[0] * n for _ in range(n)]
    last = len(pairs) - 1
    stack = [iter(cells[0])]
    while stack:
        idx = len(stack) - 1
        i, j = pairs[idx]
        row_i = cur[i]
        row_j = cur[j]
        for x, y in stack[idx]:
            row_i[j] = x
            row_j[i] = y
            ok = True
            for k in range(i):
                row_k = cur[k]
                cki = row_k[i]
                cik = row_i[k]
                ckj = row_k[j]
                cjk = row_j[k]
                if (
                    x > cik + ckj
                    or y > cjk + cki
                    or cik > x + cjk
                    or cki > ckj + y
                    or ckj > cki + x
                    or cjk > y + cik
                ):
                    ok = False
                    break
            if not ok:
                continue
            if idx == last:
                yield tuple(tuple(r) for r in cur)
            else:
                stack.append(iter(cells[idx + 1]))
                break
        else:
            stack.pop()


def _violation_text(witness) -> str:
    if isinstance(witness, tuple):
        i, j, k = witness
        return f"m[{i},{k}] > m[{i},{j}] + m[{j},{k}] at (i,j,k)=({i},{j},{k})"
    return f"diagonal entry m[{witness},{witness}] is nonzero"


def _require_order(m):
    witness = order_violation(m)
    if witness is not None:
        raise NotAnOrderError(f"input level is not an order ({_violation_text(witness)})", witness)


def _conjugate_rows(rows, n, shifts, perm):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        target = out[perm[i]]
        si = shifts[i]
        ri = rows[i]
        for j in range(n):
            target[perm[j]] = ri[j] + si - shifts[j]
    return tuple(tuple(r) for r in out)


def conjugate(m: LevelMatrix, w: WeylElement) -> LevelMatrix:
    """Conjugate a level by a Weyl element.

    Entry (perm[i], perm[j]) of the result is m[i][j] + shifts[i] - shifts[j].
    The order condition is preserved in both directions.
    """
    if w.n != m.n:
        raise DimensionMismatch(f"level has size {m.n} but element has size {w.n}")
    return LevelMatrix(_conjugate_rows(m.entries, m.n, w.shifts, w.perm))


def normalize_positive(m: LevelMatrix) -> PositiveTypeForm:
    """Shift-conjugate an order so its first row is zero.

    Taking shifts[j] = m[1][j] kills the first row, and the triangle
    condition through row one then forces every entry of the result to be
    nonnegative.  The applied element is recorded for round-tripping.
    """
    _require_order(m)
    w = WeylElement(m.entries[0], tuple(range(m.n)))
    return PositiveTypeForm(conjugate(m, w), w)


def _check_search_cap(n, search_cap):
    if n > search_cap:
        raise SearchTooLargeError(f"canonical form of size {n} exceeds the cap {search_cap}")


def _conjugates(rows, n):
    # (normalized permutation conjugate, sigma) for every sigma, in
    # itertools.permutations order: whole orbits, for census orbit marking,
    # which checks the cap before it enumerates; the shifts m[sigma^{-1}(0)] zero the first row
    for sigma in itertools.permutations(range(n)):
        yield _conjugate_rows(rows, n, rows[sigma.index(0)], sigma), sigma


def _swappable(rows, n, x, y):
    # True when the transposition (x y), with the shifts d at x and -d at y,
    # fixes the level: then it permutes the optimal sigmas of canonical_form
    rx = rows[x]
    ry = rows[y]
    twice = rx[y] - ry[x]
    if twice % 2:
        return False
    d = twice // 2
    return all(rx[z] - ry[z] == d == rows[z][y] - rows[z][x] for z in range(n) if z != x and z != y)


def _respects_classes(prefix, lesser):
    # every placed index follows the smaller members of its transposition class
    placed = set()
    for a in prefix:
        if not lesser[a] <= placed:
            return False
        placed.add(a)
    return True


def _canonical_sigma(rows, n):
    """Least sigma whose normalized permutation conjugate of ``rows`` is row-major lex-min.

    Positions are filled one at a time.  With a_0..a_{k-1} placed and x put
    at position k, row k of the conjugate is fixed on the placed columns (the
    head) and reads m[x][z] + m[a_0][x] - m[a_0][z] at each unplaced z.  Rows
    1..k-1 already order the unplaced indices: z goes before z' when its
    column in those rows (its key) is smaller.  So the least row k a
    completion can reach puts the new values in key order and sorts them
    within equal keys, and only an index of least key can take position k.
    A node is (placed prefix, unplaced indices, their keys).  Every node of a
    depth has the same rows so far, so at each depth only the children with
    the least head, and among them the least sorted tail, are kept; the least
    sigma is then among the leaves.  Transpositions that fix the level (see
    ``_swappable``) form classes whose members can be placed in increasing
    order without losing that sigma, which cuts the zero level from n!
    leaves to one.  The classes are built only when a depth keeps more than
    one node.
    """
    if n == 1:
        return (0,)
    everyone = tuple(range(n))
    # one node per root a_0; with no keys yet every other index is a
    # candidate, and its head is its pair sum with a_0
    nodes = [((r,), everyone[:r] + everyone[r + 1:], ((),) * (n - 1)) for r in everyone]
    lesser = None
    while True:
        low = min(nodes[0][2])
        best = None
        candidates = []
        for prefix, rest, keys in nodes:
            base = rows[prefix[0]]
            for x, key in zip(rest, keys):
                if key != low:
                    continue
                rx = rows[x]
                bx = base[x]
                head = [rx[a] + bx - base[a] for a in prefix]
                if best is None or head < best:
                    best = head
                    candidates = [(prefix, rest, keys, x)]
                elif head == best:
                    candidates.append((prefix, rest, keys, x))
        best = None
        nodes = []
        for prefix, rest, keys, x in candidates:
            base = rows[prefix[0]]
            rx = rows[x]
            bx = base[x]
            i = rest.index(x)
            rest = rest[:i] + rest[i + 1:]
            keys = [key + (rx[z] + bx - base[z],) for key, z in zip(keys[:i] + keys[i + 1:], rest)]
            # every node of this depth has the same multiset of old keys, so
            # comparing the sorted new keys compares the sorted tails
            tail = sorted(keys)
            if best is None or tail < best:
                best = tail
                nodes = [(prefix + (x,), rest, keys)]
            elif tail == best:
                nodes.append((prefix + (x,), rest, keys))
        if len(nodes) > 1:
            if lesser is None:
                lesser = [frozenset(y for y in range(x) if _swappable(rows, n, x, y)) for x in everyone]
            nodes = [node for node in nodes if _respects_classes(node[0], lesser)]
        if not best or (len(nodes) == 1 and len(set(best)) == len(best)):
            break  # every node placed, or one node whose keys fix the rest
    # order[p] is the index at position p; sigma is its inverse
    orders = [prefix + tuple(z for _, z in sorted(zip(keys, rest))) for prefix, rest, keys in nodes]
    return min(tuple(sorted(everyone, key=order.__getitem__)) for order in orders)


def canonical_form(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> tuple[LevelMatrix, WeylElement]:
    """Distinguished conjugacy-class representative of an order.

    Among the normalized permutation conjugates (conjugate by a permutation,
    then shift the first row to zero), the row-major lexicographically
    smallest level.  Two orders are conjugate under the full action iff
    their canonical levels are equal.  Returns the level together with the
    achieving Weyl element of least permutation, found by the search of
    ``_canonical_sigma`` instead of an n! scan.  Sizes above ``search_cap``
    are refused.
    """
    _require_order(m)
    _check_search_cap(m.n, search_cap)
    sigma = _canonical_sigma(m.entries, m.n)
    w = WeylElement(m.entries[sigma.index(0)], sigma)
    return conjugate(m, w), w


def is_upper_triangular(m: LevelMatrix) -> bool:
    """True iff m[i][j] = 0 whenever i <= j (strict lower triangular values only)."""
    return _is_upper_triangular_rows(m.entries, m.n)


def _is_upper_triangular_rows(rows, n):
    for i in range(n):
        ri = rows[i]
        for j in range(i, n):
            if ri[j] != 0:
                return False
    return True
