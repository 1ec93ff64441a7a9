"""Structural classification: Eichler shapes, hereditary and Bass verdicts.

An order is Eichler when some conjugate is upper triangular with all
below-diagonal entries equal to a single positive value a arranged in a
block staircase; the block sizes (k_1, ..., k_t) are its invariant and t its
period.  Hereditary means Eichler with a = 1 (the maximal order being the
period-1 case), and Bass means hereditary or Eichler of period two.
``classify`` bundles every verdict, with witnesses, into one report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import NotPositiveTypeError, NotTriangularError, SearchTooLargeError
from .duality import _gorenstein_scan
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    WeylElement,
    _is_upper_triangular_rows,
    _permuted_normalized,
    _require_order,
    canonical_form,
    is_upper_triangular,
    order_violation,
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
            raise ValueError("period must equal the number of blocks")
        if any(k < 1 for k in self.invariant):
            raise ValueError("block sizes must be positive")
        if self.period == 1:
            if self.a is not None:
                raise ValueError("period-one shapes carry no a")
        elif self.a is None or self.a < 1:
            raise ValueError("a must be a positive integer when the period exceeds one")

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
    # The order condition forces any single-value 0/a pattern into a block
    # staircase, so a malformed pattern means corrupted input: fail hard.
    values = {rows[i][j] for i in range(n) for j in range(i) if rows[i][j] != 0}
    if not values:
        return EichlerShape(1, (n,), None)
    if len(values) > 1:
        return None
    a = values.pop()
    prefix = []
    for i in range(n):
        ri = rows[i]
        cnt = 0
        while cnt < i and ri[cnt] == a:
            cnt += 1
        for j in range(cnt, i):
            if ri[j] != 0:
                raise RuntimeError("0/a pattern of an order is not a row prefix; input is corrupt")
        prefix.append(cnt)
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or prefix[i] != prefix[start]:
            if prefix[start] != start:
                raise RuntimeError("0/a pattern of an order is not a block staircase; input is corrupt")
            blocks.append(i - start)
            start = i
    return EichlerShape(len(blocks), tuple(blocks), a)


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


def _search_normalized(m, search_cap, operation):
    _require_order(m)
    if m.n > search_cap:
        raise SearchTooLargeError(f"{operation} of size {m.n} exceeds the cap {search_cap}")
    return itertools.permutations(range(m.n))


def classify_eichler(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> Optional[EichlerShape]:
    """Eichler shape of an order, searching all permutation conjugates.

    Each conjugate is normalized to positive type and pattern-matched when
    upper triangular; the shape of the lex-min matching level is returned
    with its invariant in canonical (cyclic-min) rotation.  None when no
    conjugate matches.
    """
    n = m.n
    rows = m.entries
    best_level = None
    best_shape = None
    for sigma in _search_normalized(m, search_cap, "Eichler search"):
        candidate = _permuted_normalized(rows, n, sigma)
        if not _is_upper_triangular_rows(candidate, n):
            continue
        shape = _staircase_shape(candidate, n)
        if shape is not None and (best_level is None or candidate < best_level):
            best_level = candidate
            best_shape = shape
    return None if best_shape is None else best_shape.canonical()


def triangular_form(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> Optional[LevelMatrix]:
    """Lex-min upper triangular normalized permutation conjugate, or None."""
    n = m.n
    rows = m.entries
    best = None
    for sigma in _search_normalized(m, search_cap, "triangular search"):
        candidate = _permuted_normalized(rows, n, sigma)
        if _is_upper_triangular_rows(candidate, n) and (best is None or candidate < best):
            best = candidate
    return None if best is None else LevelMatrix(best)


def _bass_verdict(shape: Optional[EichlerShape]) -> tuple[bool, bool, str]:
    # (hereditary, bass, reason) read off the Eichler shape, or off None
    if shape is not None and (shape.period == 1 or shape.a == 1):
        return True, True, BASS_HEREDITARY
    if shape is not None and shape.period == 2:
        return False, True, BASS_EICHLER_PERIOD_TWO
    return False, False, BASS_NOT


def is_hereditary(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """True iff the order is Eichler with period 1 or a = 1."""
    return _bass_verdict(classify_eichler(m, search_cap))[0]


def is_bass(m: LevelMatrix, search_cap: int = DEFAULT_SEARCH_CAP) -> tuple[bool, str]:
    """Bass verdict with its reason.

    An order is Bass iff it is hereditary or Eichler of period two; the
    second component is one of BASS_HEREDITARY, BASS_EICHLER_PERIOD_TWO or
    BASS_NOT.
    """
    return _bass_verdict(classify_eichler(m, search_cap))[1:]


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

    For non-orders only ``is_order`` and ``order_violation`` are populated.
    The verdict chain hereditary => bass => gorenstein always holds, and an
    Eichler shape is present only for Gorenstein orders.
    """

    is_order: bool
    order_violation: object = None
    canonical: Optional[LevelMatrix] = None
    canonical_witness: Optional[WeylElement] = None
    is_gorenstein: Optional[bool] = None
    gorenstein_witnesses: Optional[tuple[tuple[int, int], ...]] = None
    gorenstein_failing_row: Optional[int] = None
    eichler: Optional[EichlerShape] = None
    is_hereditary: Optional[bool] = None
    is_bass: Optional[bool] = None
    bass_reason: Optional[str] = None

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
    violation = order_violation(m)
    if violation is not None:
        return ClassificationReport(is_order=False, order_violation=violation)
    canonical, witness = canonical_form(m, search_cap)
    gw, failing = _gorenstein_scan(m)
    shape = classify_eichler(m, search_cap)
    hereditary, bass, reason = _bass_verdict(shape)
    return ClassificationReport(
        is_order=True,
        canonical=canonical,
        canonical_witness=witness,
        is_gorenstein=gw is not None,
        gorenstein_witnesses=gw,
        gorenstein_failing_row=failing,
        eichler=shape,
        is_hereditary=hereditary,
        is_bass=bass,
        bass_reason=reason,
    )
