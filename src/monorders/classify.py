"""Structural classification: Eichler shapes, hereditary and Bass verdicts.

An order is Eichler when some conjugate is upper triangular with all
below-diagonal entries equal to a single positive value a arranged in a
block staircase; the block sizes (k_1, ..., k_t) are its invariant and t its
period.  Hereditary means Eichler with a = 1 (the maximal order being the
period-1 case), and Bass means hereditary or Eichler of period two.
``classify`` bundles every verdict, with witnesses, into one report.

The verdicts read one triangular conjugate, found in O(n^3) by sorting along
a shortest-path preorder, so they take no size cap; ``classify`` finds it
once and keeps it in its report.  Only its canonical form keeps a cap (a
pruned search over placements, see ``levels.canonical_form``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError, NotAnOrderError, NotPositiveTypeError, NotTriangularError
from .duality import _gorenstein_scan
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    _is_upper_triangular_rows,
    _require_order,
    canonical_form,
    is_upper_triangular,
)

BASS_HEREDITARY = "hereditary"
BASS_EICHLER_PERIOD_TWO = "eichler_period_two"
BASS_NOT = "not_bass_witness"


@dataclass(frozen=True)
class EichlerShape:
    """Block data (period, invariant, a) of an Eichler normal form.

    The invariant is kept in the scan order of the triangular form it was
    read from; it is well defined only up to cyclic rotation, and
    ``canonical()`` rotates it to the lexicographically smallest position
    for comparisons.  ``a`` is absent exactly for period one.
    """

    period: int
    invariant: tuple[int, ...]
    a: Optional[int]

    def __post_init__(self):
        if self.period != len(self.invariant):
            raise InvalidInputError("period must equal the number of blocks")
        if any(k < 1 for k in self.invariant):
            raise InvalidInputError("block sizes must be positive")
        if self.period == 1:
            if self.a is not None:
                raise InvalidInputError("period-one shapes carry no a")
        elif self.a is None or self.a < 1:
            raise InvalidInputError("a must be a positive integer when the period exceeds one")

    @property
    def n(self) -> int:
        return sum(self.invariant)

    def canonical(self) -> "EichlerShape":
        """Same shape with the invariant rotated to its lex-min cyclic rotation."""
        inv = self.invariant
        best = min(inv[i:] + inv[:i] for i in range(len(inv)))
        return EichlerShape(self.period, best, self.a)


def _staircase_shape(rows, n):
    # rows: upper triangular order; returns EichlerShape or None.
    # For j < k < i the triangle condition gives m[i][k] <= m[i][j] + m[j][k]
    # = m[i][j], so with values 0/a row i is an a-prefix of some length p_i;
    # m[i][j] <= m[i][i+1] + m[i+1][j] = m[i+1][j] gives p_i <= p_{i+1}.  If
    # 0 < p = p_i < i, then a = m[i][p-1] <= m[i][p] + m[p][p-1] = m[p][p-1],
    # so p_p = p and every row from p to i has prefix p.  Hence p_i = i exactly
    # when the subdiagonal entry m[i][i-1] is a, and p_i = p_{i-1} otherwise:
    # blocks start where the subdiagonal is nonzero.
    values = {rows[i][j] for i in range(n) for j in range(i) if rows[i][j] != 0}
    if not values:
        return EichlerShape(1, (n,), None)
    if len(values) > 1:
        return None
    cuts = [0] + [i for i in range(1, n) if rows[i][i - 1] != 0] + [n]
    blocks = tuple(hi - lo for lo, hi in zip(cuts, cuts[1:]))
    return EichlerShape(len(blocks), blocks, values.pop())


def eichler_shape_of_triangular(m: LevelMatrix) -> Optional[EichlerShape]:
    """Block shape of an upper triangular order, or None.

    Present iff all below-diagonal entries are 0 or one fixed a > 0; the
    zero matrix yields period 1 with invariant (n,).  The invariant is
    returned in scan order (top block first).
    """
    _require_order(m)
    if not is_upper_triangular(m):
        raise NotTriangularError("shape extraction requires an upper triangular level")
    return _staircase_shape(m.entries, m.n)


def _triangular_rows(rows, n):
    # Lex-min upper triangular normalized permutation conjugate, or None.
    # Rooted at r (r moved to index 0, first row normalized to zero), entry
    # (i, j) becomes m[i][j] + m[r][i] - m[r][j] >= 0, which is zero iff
    # i <= j in the preorder "m[r][i] + m[i][j] == m[r][j]" (transitive by the
    # triangle condition).  So a root admits a triangular conjugate iff that
    # preorder is total, and sorting by the count of k <= i produces it.  Tied
    # indices have equal normalized rows and columns, so each root yields one
    # candidate; O(n^3) over all roots.
    best = None
    for base in rows:
        norm = [[rows[i][j] + base[i] - base[j] for j in range(n)] for i in range(n)]
        order = sorted(range(n), key=lambda i: sum(norm[k][i] == 0 for k in range(n)))
        candidate = tuple(tuple(norm[i][j] for j in order) for i in order)
        if _is_upper_triangular_rows(candidate, n) and (best is None or candidate < best):
            best = candidate
    return best


def classify_eichler(m: LevelMatrix) -> Optional[EichlerShape]:
    """Eichler shape of an order, read off any triangular conjugate.

    The nonzero below-diagonal values of a triangular form are its nonzero
    pair sums m[i][j] + m[j][i], which are conjugation invariants, so any
    triangular form decides the shape, m itself when upper triangular; the
    invariant is in canonical (cyclic-min) rotation.  None when none matches.
    """
    _require_order(m)
    rows = m.entries if is_upper_triangular(m) else _triangular_rows(m.entries, m.n)
    shape = None if rows is None else _staircase_shape(rows, m.n)
    return None if shape is None else shape.canonical()


def triangular_form(m: LevelMatrix) -> Optional[LevelMatrix]:
    """Lex-min upper triangular normalized permutation conjugate, or None."""
    _require_order(m)
    rows = _triangular_rows(m.entries, m.n)
    return None if rows is None else LevelMatrix(rows)


def _bass_verdict(shape: Optional[EichlerShape]) -> tuple[bool, bool, str]:
    # (hereditary, bass, reason) read off the Eichler shape, or off None
    if shape is not None and (shape.period == 1 or shape.a == 1):
        return True, True, BASS_HEREDITARY
    if shape is not None and shape.period == 2:
        return False, True, BASS_EICHLER_PERIOD_TWO
    return False, False, BASS_NOT


def is_hereditary(m: LevelMatrix) -> bool:
    """True iff the order is Eichler with period 1 or a = 1."""
    return _bass_verdict(classify_eichler(m))[0]


def is_bass(m: LevelMatrix) -> tuple[bool, str]:
    """Bass verdict with its reason.

    An order is Bass iff it is hereditary or Eichler of period two; the
    second component is one of BASS_HEREDITARY, BASS_EICHLER_PERIOD_TWO or
    BASS_NOT.
    """
    return _bass_verdict(classify_eichler(m))[1:]


def truncate(m: LevelMatrix) -> LevelMatrix:
    """Clamp a positive-type order entrywise to {0, 1}.

    The clamp preserves the order condition, and the result of a Bass order
    is again Bass.  Negative entries are rejected: the clamp is only
    meaningful for positive type.
    """
    _require_order(m)
    if any(e < 0 for row in m.entries for e in row):
        raise NotPositiveTypeError("truncation requires nonnegative entries")
    # For a, b >= 0, c <= a + b implies min(c,1) <= min(a,1) + min(b,1).
    return LevelMatrix(tuple(tuple(min(e, 1) for e in row) for row in m.entries))


@dataclass(frozen=True)
class ClassificationReport:
    """All verdicts and witnesses for one level.

    For non-orders only ``is_order`` and ``order_violation`` are populated;
    ``classify`` reads the witness off the ``NotAnOrderError`` that
    ``canonical_form`` raises before it checks its cap.  The verdict chain
    hereditary => bass => gorenstein always holds, and an Eichler shape is
    present only for Gorenstein orders.  ``triangular``, the
    ``triangular_form`` that the shape is read from, is left out of ``to_dict``.
    """

    is_order: bool
    order_violation: object = None
    canonical: Optional[LevelMatrix] = None
    is_gorenstein: Optional[bool] = None
    gorenstein_witnesses: Optional[tuple[tuple[int, int], ...]] = None
    gorenstein_failing_row: Optional[int] = None
    eichler: Optional[EichlerShape] = None
    is_hereditary: Optional[bool] = None
    is_bass: Optional[bool] = None
    bass_reason: Optional[str] = None
    triangular: Optional[LevelMatrix] = None

    def to_dict(self) -> dict:
        """JSON-ready dictionary with stable field names."""
        eichler = None
        if self.eichler is not None:
            eichler = {
                "period": self.eichler.period,
                "invariant": list(self.eichler.invariant),
                "a": self.eichler.a,
            }
        violation = self.order_violation
        if isinstance(violation, tuple):
            violation = list(violation)
        return {
            "is_order": self.is_order,
            "canonical": None if self.canonical is None else self.canonical.to_lists(),
            "is_gorenstein": self.is_gorenstein,
            "eichler": eichler,
            "is_hereditary": self.is_hereditary,
            "is_bass": self.is_bass,
            "bass_reason": self.bass_reason,
            "witnesses": {
                "order_violation": violation,
                "gorenstein": None
                if self.gorenstein_witnesses is None
                else [list(w) for w in self.gorenstein_witnesses],
                "gorenstein_failing_row": self.gorenstein_failing_row,
            },
        }


def classify(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> ClassificationReport:
    """Full classification of a level; total (non-orders get a stub report)."""
    try:
        canonical, _ = canonical_form(m, search_cap)
    except NotAnOrderError as exc:
        return ClassificationReport(is_order=False, order_violation=exc.witness)
    gw, failing = _gorenstein_scan(m)
    triangular = triangular_form(m)
    shape = None if triangular is None else classify_eichler(triangular)
    hereditary, bass, reason = _bass_verdict(shape)
    return ClassificationReport(
        is_order=True,
        canonical=canonical,
        is_gorenstein=gw is not None,
        gorenstein_witnesses=gw,
        gorenstein_failing_row=failing,
        eichler=shape,
        is_hereditary=hereditary,
        is_bass=bass,
        bass_reason=reason,
        triangular=triangular,
    )
