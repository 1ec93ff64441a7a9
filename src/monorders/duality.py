"""Lattices, projectivity, dual levels and the Gorenstein criterion.

A column lattice in the n-dimensional column space is described by its type,
a plain tuple of n integer exponents.  Over an order of level m, a type l is
a lattice iff m[i][j] + l[j] >= l[i] for all i, j, and a lattice is
projective iff it is, up to a global shift c, a column of m (the witness is
the pair (j, c)).  Both tests work on any order: conjugating m by shifts s
and moving l to l + s turns a witness (j, c) into (j, c + s_j).

The dual of an order of level m is the module of level -transpose(m); it is
generally not an order itself.  An order is Gorenstein exactly when its dual
is projective as a one-sided module, which unwinds to a purely combinatorial
criterion: for every row i there are c and a column j with
m[i][k] + m[k][j] = c for all k.  ``is_gorenstein`` finds each row's least
such j in O(n^2) total, by hashing every column's differences from its
first entry (``_gorenstein_scan``).  ``gorenstein_via_dual`` re-derives the
verdict along the module route (raw dual columns tested for projectivity
over m) and serves as an independent cross-check of ``is_gorenstein``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InvalidInputError, NotALatticeError
from .levels import LevelMatrix, _is_plain_int, _require_order


def lattice_violation(m: LevelMatrix, l: Sequence[int]):
    """First 1-based pair (i, j) with m[i][j] + l[j] < l[i], or None."""
    _require_order(m)
    n = m.n
    if len(l) != n:
        raise DimensionMismatch(f"type has length {len(l)} but level has size {n}")
    if not all(map(_is_plain_int, l)):
        raise InvalidInputError(f"type entries must be integers, got {tuple(l)!r}")
    rows = m.entries
    for i in range(n):
        ri = rows[i]
        li = l[i]
        for j in range(n):
            if ri[j] + l[j] < li:
                return (i + 1, j + 1)
    return None


def is_lattice(m: LevelMatrix, l: Sequence[int]) -> bool:
    """True iff the column type l is a lattice over the order m."""
    return lattice_violation(m, l) is None


def projective_witness(m: LevelMatrix, l: Sequence[int]):
    """Witness (column j, shift c), 1-based j, with l[i] = m[i][j] + c for all i.

    Requires m to be an order and l to be a lattice over it.  Once j is
    fixed, c is forced by the first coordinate, so the scan is finite.
    Returns None when no column matches.
    """
    witness = lattice_violation(m, l)
    if witness is not None:
        raise NotALatticeError(f"type is not a lattice (violation at {witness})", witness)
    rows = m.entries
    for j in range(m.n):
        c = l[0] - rows[0][j]
        if all(l[i] == rows[i][j] + c for i in range(m.n)):
            return (j + 1, c)
    return None


def is_projective(m: LevelMatrix, l: Sequence[int]) -> bool:
    """True iff the lattice of type l is projective over the order m."""
    return projective_witness(m, l) is not None


@dataclass(frozen=True)
class DualLevel:
    """Level of the dual module: raw = -transpose, normalized = zero first row.

    ``normalized`` differs from ``raw`` by per-column shifts (a module
    isomorphism), so each column keeps its projectivity class; it is not a
    conjugate of ``raw``.  For a positive-type source the normalized dual is
    again positive type.
    """

    raw: LevelMatrix
    normalized: LevelMatrix


def dual_level(m: LevelMatrix) -> DualLevel:
    """Dual module level of a level m.

    raw[i][j] = -m[j][i]; normalized[i][j] = raw[i][j] - raw[0][j], forcing
    the first row to zero by column shifts.  Total on square integer input:
    the raw dual of an order is typically not an order itself, and the
    double dual satisfies dual_level(dual_level(m).raw).raw == m.
    """
    raw = tuple(tuple(-e for e in column) for column in zip(*m.entries))
    normalized = tuple(tuple(e - top for e, top in zip(row, raw[0])) for row in raw)
    return DualLevel(LevelMatrix(raw), LevelMatrix(normalized))


def _gorenstein_scan(rows):
    # per-row witnesses (c, least j) with m[i][k] + m[k][j] == c for all k, or the first failing row,
    # 1-based.  That holds iff m[k][j] - m[0][j] == m[i][0] - m[i][k] for all k, with c = m[i][0] + m[0][j]:
    # one lookup per row in a dict of column keys, O(n^2); a column whose first entry is 0 is its own key
    columns = {}
    for j, column in enumerate(zip(*rows)):
        columns.setdefault(column if column[0] == 0 else tuple([e - column[0] for e in column]), j)
    witnesses = []
    for i, ri in enumerate(rows):
        j = columns.get(tuple([ri[0] - e for e in ri]))
        if j is None:
            return None, i + 1
        witnesses.append((ri[0] + rows[0][j], j + 1))
    return tuple(witnesses), None


def gorenstein_witnesses(m: LevelMatrix):
    """Per-row witnesses (c(i), column j(i)) or None when some row has none.

    Row i admits a witness when m[i][k] + m[k][j] is constant in k, i.e. the
    negated row i equals column j up to the additive constant c(i).
    """
    _require_order(m)
    return _gorenstein_scan(m.entries)[0]


def gorenstein_failing_row(m: LevelMatrix):
    """First 1-based row without a witness, or None for Gorenstein orders."""
    _require_order(m)
    return _gorenstein_scan(m.entries)[1]


def is_gorenstein(m: LevelMatrix) -> bool:
    """True iff every negated row is, up to a constant, a column of m.

    The criterion is invariant under conjugation, so no prior normalization
    is needed.
    """
    return gorenstein_witnesses(m) is not None


def gorenstein_via_dual(m: LevelMatrix) -> bool:
    """Independent Gorenstein verdict along the dual-module route.

    Tests every column of the raw dual for projectivity over m itself; each
    column is a lattice by the triangle condition.  Used as a cross-check
    oracle against :func:`is_gorenstein`; the two must always agree.
    """
    _require_order(m)
    dual = dual_level(m).raw
    return all(projective_witness(m, dual.column(j)) is not None for j in range(1, m.n + 1))
