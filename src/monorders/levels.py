"""Integer level matrices and the monomial conjugation action on them.

A level matrix records, for every position (i, j) of an n x n matrix ring
over a local division ring, the valuation exponent of the ideal sitting in
that entry.  The resulting additive module is a ring, and hence an order,
exactly when the diagonal exponents vanish and the triangle condition
m[i][k] <= m[i][j] + m[j][k] holds for all index triples; ``is_order``
decides this and ``order_violation`` reports the first broken constraint.
An order is checked where it enters: a public function that needs one raises
``NotAnOrderError`` through ``_require_order``, worded as the command line
prints it.  ``order_violation`` marks each level it passes; ``is_order`` and
``_require_order`` skip a marked level.  ``_order`` builds, already marked, a
level whose rows the program made from ints as an order, and skips the
constructor's validation of those rows.

Monomial matrices (a diagonal of uniformizer powers composed with a
permutation) act on levels by conjugation.  The action is encoded by
:class:`WeylElement` and computed by :func:`conjugate`.  The convention used is

    conjugate(m, (shifts, perm))[perm[i]][perm[j]] = m[i][j] + shifts[i] - shifts[j]

Every order is conjugate to a *positive type* level: first row zero and all
entries nonnegative (:func:`normalize_positive`).  The row-major lex-min
normalized permutation conjugate is a canonical representative per
conjugacy class (:func:`canonical_form`), found by a search that fills
positions one at a time rather than by scanning all n! permutations.

Values hold tuples, and compare, hash and print by their entries.  The order
mark is the one write to a shared level, set once, so a thread race at worst
repeats a scan; the census gives each class level its marks before handing it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Iterable

from .errors import DimensionMismatch, InvalidInputError, NotAnOrderError, SearchTooLargeError

#: Largest n for which canonical forms and n! orbit scans run without an explicit opt-in.
DEFAULT_SEARCH_CAP = 8


def _is_plain_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class LevelMatrix:
    """Square integer matrix of valuation exponents.

    Entries are stored as a tuple of row tuples and may be any integers;
    validity as an order is a separate query (`is_order`), so intermediate
    states such as enumeration candidates or duals are representable.  A
    level known to be an order carries the private mark ``_checked``; census class
    levels carry ``_canonical``, ``_triangular`` and ``_gorenstein``, every triangular
    form ``_eichler``, the values of their readers.  No mark is a dataclass field.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InvalidInputError("a level matrix has size at least 1")
        for row in self.entries:
            if not isinstance(row, tuple) or len(row) != n:
                raise InvalidInputError("level matrix entries must form a square tuple of tuples")
            if set(map(type, row)) != {int}:  # one C pass for the common row of plain ints
                for e in row:
                    if not _is_plain_int(e):
                        raise TypeError(f"level entries must be integers, got {e!r}")
        if not isinstance(self.entries, tuple):
            raise InvalidInputError("level matrix entries must form a square tuple of tuples")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LevelMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def zero(cls, n: int) -> "LevelMatrix":
        if not _is_plain_int(n):
            raise InvalidInputError(f"size must be an integer, got {n!r}")
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        """Row i, 1-based."""
        return self.entries[self._position(i)]

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, 1-based."""
        position = self._position(j)
        return tuple(row[position] for row in self.entries)

    def _position(self, index):
        # the 0-based position of a 1-based plain-int index; 0 and negatives would wrap around
        if not (_is_plain_int(index) and 1 <= index <= self.n):
            raise IndexError(f"index {index!r} is not an integer in 1..{self.n}")
        return index - 1

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
        if n == 0:
            raise InvalidInputError("a Weyl element has size at least 1")
        if len(self.perm) != n:
            raise InvalidInputError("shifts and perm must have the same length")
        if not all(map(_is_plain_int, self.perm)) or sorted(self.perm) != list(range(n)):
            raise InvalidInputError(f"perm must be a permutation of range({n})")
        if not all(map(_is_plain_int, self.shifts)):
            raise TypeError("shifts must be integers")
        if not isinstance(self.shifts, tuple) or not isinstance(self.perm, tuple):
            raise InvalidInputError("shifts and perm must be tuples")

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        if not _is_plain_int(n):
            raise InvalidInputError(f"size must be an integer, got {n!r}")
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
    inv_perm = tuple(sorted(range(w.n), key=w.perm.__getitem__))  # inv_perm[p] is the index perm sends to p
    return WeylElement(tuple(-w.shifts[i] for i in inv_perm), inv_perm)


@dataclass(frozen=True)
class PositiveTypeForm:
    """A positive-type level together with the element that produced it."""

    level: LevelMatrix
    applied: WeylElement


def order_violation(m: LevelMatrix):
    """First violated order constraint, or None.

    Returns a 1-based diagonal index i when m[i][i] != 0, else the first
    1-based triple (i, j, k) with m[i][k] > m[i][j] + m[j][k] in row-major
    scan order, else None, and then marks m as an order.
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
    object.__setattr__(m, "_checked", True)
    return None


def is_order(m: LevelMatrix) -> bool:
    """True iff the diagonal vanishes and the triangle condition holds."""
    return getattr(m, "_checked", False) or order_violation(m) is None


def _order(rows, **marks):
    # a level of int rows built as an order: not validated, marked so that it is not
    # checked again, and given the further private marks its builder proved
    m = object.__new__(LevelMatrix)
    m.__dict__.update(marks, entries=rows, _checked=True)  # where the frozen field and marks live
    return m


def _orders_in_box(lo, hi, blocks=None):
    """Row-major flat tuples of every order m with lo[i][j] <= m[i][j] <= hi[i][j] off the diagonal.

    Pairs (i, j), i < j, are set in the order (0,1), (0,2), (1,2), (0,3), ...
    A triangle through k < i, whose other pairs are set, bounds x = m[i][j] by
    m[i][k] - m[j][k] <= x, m[k][j] - m[k][i] <= x and x <= m[i][k] + m[k][j],
    and y = m[j][i] the same way with i and j swapped; also y >= -x.  Each
    triangle is met at its last pair, so a pair's cells, in order of x then y,
    are all viable prefixes, and the orders come in ascending pair-order key
    m[0][1], m[1][0], m[0][2], m[2][0], m[1][2], ...  A cell is set in the rows
    that the bounds read and in the flat list that is yielded.  The diagonal of
    the box is ignored.  Iterative.

    ``blocks`` maps k to a test of the flat list, run once the pair (k-2, k-1)
    completes the leading k-block; a node that fails is dropped.  The census
    tests keep a block that is pair-order-least among its conjugates by the
    permutations of 1..k-1, so each class keeps its pair-order-least in-box
    member M: a permutation that lessens M's k-block, extended by the identity
    on k..n-1, would map M to a member of its class and box with a lesser key.
    """
    n = len(lo)
    # pairs[0] is a placeholder on the diagonal whose one cell is (0, 0): the first
    # real pair's cells are then built like any other's, and n = 1 needs no case
    pairs = [(0, 0)] + [(i, j) for j in range(1, n) for i in range(j)]
    # tests[d] is the test of the leading block that pairs[d] completes, or None
    blocks = blocks or {}
    tests = [blocks.get(q + 1) if p == q - 1 else None for p, q in pairs]
    last = len(pairs) - 1
    cur = [[0] * n for _ in range(n)]
    flat = [0] * (n * n)
    stack = [iter([(0, 0)])]  # stack[d] iterates the cells of pairs[d] left to try
    while stack:
        depth = len(stack) - 1
        p, q = pairs[depth]
        pq = n * p + q
        qp = n * q + p
        if depth == last:
            for flat[pq], flat[qp] in stack.pop():
                yield tuple(flat)
            continue
        test = tests[depth]
        row_p = cur[p]
        row_q = cur[q]
        i, j = pairs[depth + 1]
        row_i = cur[i]
        row_j = cur[j]
        for x, y in stack[depth]:
            row_p[q] = flat[pq] = x
            row_q[p] = flat[qp] = y
            if test is not None and not test(flat):
                continue
            x_lo, x_hi, y_lo, y_hi = lo[i][j], hi[i][j], lo[j][i], hi[j][i]
            # comparisons, not max and min: this loop is the search's hot spot
            for row_k, cik, cjk in zip(cur, row_i, row_j[:i]):
                cki = row_k[i]
                ckj = row_k[j]
                if x_lo < cik - cjk:
                    x_lo = cik - cjk
                if x_lo < ckj - cki:
                    x_lo = ckj - cki
                if x_hi > cik + ckj:
                    x_hi = cik + ckj
                if y_lo < cki - ckj:
                    y_lo = cki - ckj
                if y_lo < cjk - cik:
                    y_lo = cjk - cik
                if y_hi > cjk + cki:
                    y_hi = cjk + cki
            stack.append(iter([(x, y) for x in range(x_lo, x_hi + 1) for y in range(max(y_lo, -x), y_hi + 1)]))
            break
        else:
            stack.pop()


@cache
def _unflatten(n):
    """The rows of a flat row-major n x n tuple, by one getter of row slices per n, built once and kept."""
    if n == 1:
        return lambda flat: (flat,)  # an itemgetter of one slice would return the slice itself
    return itemgetter(*(slice(start, start + n) for start in range(0, n * n, n)))


def _violation_text(witness) -> str:
    if isinstance(witness, tuple):
        i, j, k = witness
        return f"m[{i},{k}] > m[{i},{j}] + m[{j},{k}] at (i,j,k)=({i},{j},{k})"
    return f"diagonal entry m[{witness},{witness}] is nonzero"


def _require_order(m):
    if not getattr(m, "_checked", False):
        witness = order_violation(m)
        if witness is not None:
            raise NotAnOrderError(f"input level is not an order ({_violation_text(witness)})", witness)


def conjugate(m: LevelMatrix, w: WeylElement) -> LevelMatrix:
    """Conjugate a level by a Weyl element.

    Entry (perm[i], perm[j]) of the result is m[i][j] + shifts[i] - shifts[j].
    The order condition is preserved in both directions, and so is the mark
    of a level known to be an order.
    """
    if w.n != m.n:
        raise DimensionMismatch(f"level has size {m.n} but element has size {w.n}")
    entries, shifts = m.entries, w.shifts
    order = sorted(range(m.n), key=w.perm.__getitem__)  # order[p] is the index moved to p
    rows = tuple([tuple([entries[i][j] + shifts[i] - shifts[j] for j in order]) for i in order])
    return _order(rows) if getattr(m, "_checked", False) else LevelMatrix(rows)


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
    if not _is_plain_int(search_cap):
        raise InvalidInputError(f"search cap must be an integer, got {search_cap!r}")
    if n > search_cap:
        raise SearchTooLargeError(f"canonical form of size {n} exceeds the cap {search_cap}")


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
    ``_swappable``) split the indices into classes, built once before the
    first position.  A root, or a candidate at any later position, is taken
    only when the smaller members of its class are all placed.  No leaf's
    level is lost: a candidate x with an unplaced smaller member swaps with
    the least such y, the swap fixes the level, so the node that places y
    builds the same rows and follows the rule.  Nor is the least sigma: two
    members placed out of order swap to a smaller sigma.  The rule cuts the
    zero level from n! leaves to one, and a level whose indices are all
    interchangeable to one child per depth.
    """
    everyone = tuple(range(n))
    # lesser[x] holds the smaller members of x's class; x is placed only after them
    lesser = [frozenset(y for y in range(x) if _swappable(rows, n, x, y)) for x in everyone]
    # one node per root a_0 that is least in its class; with no keys yet every
    # other index is a candidate, and its head is its pair sum with a_0
    nodes = [((r,), everyone[:r] + everyone[r + 1:], ((),) * (n - 1)) for r in everyone if not lesser[r]]
    while nodes[0][1]:  # an index is left to place
        low = min(nodes[0][2])
        best = None
        candidates = []
        for prefix, rest, keys in nodes:
            base = rows[prefix[0]]
            for i, x in enumerate(rest):
                if keys[i] != low or not lesser[x].isdisjoint(rest):
                    continue
                rx = rows[x]
                bx = base[x]
                if best is not None and rx[prefix[0]] + bx > best[0]:
                    continue  # the pair sum is the head's first entry
                head = [rx[a] + bx - base[a] for a in prefix]
                if best is None or head < best:
                    best = head
                    candidates = [(prefix, rest, keys, i, base, rx, bx)]
                elif head == best:
                    candidates.append((prefix, rest, keys, i, base, rx, bx))
        best = None
        nodes = []
        for prefix, rest, keys, i, base, rx, bx in candidates:
            x = rest[i]
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
        if len(nodes) == 1 and len(set(best)) == len(best):
            break  # one node whose keys fix the rest
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
    are refused.  A census class level comes back as is, with its witness mark.
    """
    _require_order(m)
    _check_search_cap(m.n, search_cap)
    if hasattr(m, "_canonical"):
        return m, m._canonical
    sigma = _canonical_sigma(m.entries, m.n)
    w = WeylElement(m.entries[sigma.index(0)], sigma)
    return conjugate(m, w), w


def is_upper_triangular(m: LevelMatrix) -> bool:
    """True iff m[i][j] = 0 whenever i <= j (strict lower triangular values only)."""
    return not any(any(row[i:]) for i, row in enumerate(m.entries))
