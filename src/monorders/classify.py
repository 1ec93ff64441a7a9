"""Structural classification: Eichler shapes, hereditary and Bass verdicts.

An order is Eichler when some conjugate is upper triangular with all
below-diagonal entries equal to a single positive value a arranged in a
block staircase; the block sizes (k_1, ..., k_t) are its invariant and t its
period.  Hereditary means Eichler with a = 1 (the maximal order being the
period-1 case), and Bass means hereditary or Eichler of period two.
``classify`` bundles every verdict, with witnesses, into one report.

The verdicts read the shape that one triangular conjugate carries, found in
O(n^3) by sorting along a shortest-path preorder, so they take no size cap; a
census class level carries that form, and ``classify`` keeps it in its report
next to the Gorenstein scan of the level's rows.  Only its canonical form
keeps a cap (a pruned search over placements, see ``levels.canonical_form``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError, NotAnOrderError, NotPositiveTypeError, NotTriangularError
from .duality import _gorenstein_scan
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    _conjugated,
    _is_plain_int,
    _order,
    _require_order,
    _trusted,
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
        if not _is_plain_int(self.period) or self.period != len(self.invariant):
            raise InvalidInputError("period must equal the number of blocks")
        if not all(_is_plain_int(k) and k >= 1 for k in self.invariant):
            raise InvalidInputError("block sizes must be positive integers")
        if self.period == 1:
            if self.a is not None:
                raise InvalidInputError("period-one shapes carry no a")
        elif not _is_plain_int(self.a) or self.a < 1:
            raise InvalidInputError("a must be a positive integer when the period exceeds one")
        if not isinstance(self.invariant, tuple):
            raise InvalidInputError("the invariant must be a tuple of block sizes")

    @property
    def n(self) -> int:
        return sum(self.invariant)

    def canonical(self) -> "EichlerShape":
        """Same shape with the invariant rotated to its lex-min cyclic rotation."""
        inv = self.invariant
        best = min(inv[i:] + inv[:i] for i in range(len(inv)))
        return self if best == inv else EichlerShape(self.period, best, self.a)


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
    # (i, j) becomes norm[i][j] = m[i][j] + m[r][i] - m[r][j] >= 0, zero iff
    # i <= j in the preorder "m[r][i] + m[i][j] == m[r][j]" (transitive by the
    # triangle condition).  So a root admits a triangular conjugate iff that
    # preorder is total, which each pair tests on the input rows for all roots
    # left at once, and then sorting by row sum gives it: i < j strictly makes
    # norm[i][k] <= norm[i][j] + norm[j][k] = norm[j][k] for all k and
    # norm[i][i] = 0 < norm[j][i], so row i sums to less; sum(norm[i]) =
    # sum(m[i]) + n*m[r][i] - sum(m[r]), so the sort needs no norm and the row
    # sums are taken once.  Tied indices have equal rows and columns: one
    # candidate per passing root.
    roots = range(n)
    for i in range(n):
        for j in range(i):
            ends = (rows[i][j], -rows[j][i])  # m[r][j] - m[r][i] if i <= j, if j <= i
            roots = [r for r in roots if rows[r][j] - rows[r][i] in ends]
        if not roots:  # no later pair brings a root back
            return None
    sums = [sum(row) for row in rows]
    candidates = []
    for base in map(rows.__getitem__, roots):
        order = sorted(range(n), key=[s + n * b for s, b in zip(sums, base)].__getitem__)
        candidates.append(_conjugated(rows, base, order))
    return min(candidates, default=None)


def classify_eichler(m: LevelMatrix) -> Optional[EichlerShape]:
    """Eichler shape of an order: the ``_eichler`` mark of m when m is a
    triangular form, else that of ``triangular_form(m)``; None without one.

    A triangular form's nonzero below-diagonal values are its nonzero pair sums
    m[i][j] + m[j][i], conjugation invariants, so any one decides the shape.
    """
    _require_order(m)
    form = m if hasattr(m, "_eichler") else triangular_form(m)
    return None if form is None else form._eichler


def triangular_form(m: LevelMatrix) -> Optional[LevelMatrix]:
    """Lex-min upper triangular normalized permutation conjugate, or None; it carries the
    canonical (cyclic-min) rotation of its staircase shape, or None, as its mark ``_eichler``."""
    _require_order(m)
    if hasattr(m, "_triangular"):
        return m._triangular  # a census class level carries the one read off its orbit
    rows = _triangular_rows(m.entries, m.n)
    shape = None if rows is None else _staircase_shape(rows, m.n)
    eichler = None if shape is None else shape.canonical()
    return None if rows is None else _order(rows, _eichler=eichler)


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
    return _order(tuple(tuple(min(e, 1) for e in row) for row in m.entries))


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
    """Full classification of a level; total (non-orders get a stub report).

    An order's report is built by ``levels._trusted``, which writes its fields without the constructor."""
    try:
        canonical, _ = canonical_form(m, search_cap)
    except NotAnOrderError as exc:
        return ClassificationReport(is_order=False, order_violation=exc.witness)
    gw, failing = _gorenstein_scan(m.entries)
    triangular = triangular_form(m)
    shape = None if triangular is None else classify_eichler(triangular)
    hereditary, bass, reason = _bass_verdict(shape)
    return _trusted(ClassificationReport, {
        "is_order": True,
        "order_violation": None,
        "canonical": canonical,
        "is_gorenstein": gw is not None,
        "gorenstein_witnesses": gw,
        "gorenstein_failing_row": failing,
        "eichler": shape,
        "is_hereditary": hereditary,
        "is_bass": bass,
        "bass_reason": reason,
        "triangular": triangular,
    })
