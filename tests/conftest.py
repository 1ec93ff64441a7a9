"""Shared helpers for the test suite."""

import functools
import importlib
import itertools
import random
import re
import sys

import pytest

from monorders import (
    CensusQuery,
    EichlerShape,
    LevelMatrix,
    ParseError,
    WeylElement,
    canonical_form,
    census,
    is_gorenstein,
    is_order,
    normalize_positive,
    order_violation,
    overorders,
)
from monorders.census import _census_box
from monorders.levels import _orders_in_box, _unflatten


def min_plus_closure(rows):
    """Shortest-path closure of a nonnegative matrix with zero diagonal.

    The result always satisfies the order condition, which makes it a cheap
    generator of random orders.
    """
    n = len(rows)
    rows = [list(r) for r in rows]
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ri = rows[i]
            rik = ri[k]
            for j in range(n):
                v = rik + rk[j]
                if v < ri[j]:
                    ri[j] = v
    return rows


def random_order(rng: random.Random, n: int, bound: int, zero_first_row=False) -> LevelMatrix:
    rows = [
        [
            0 if i == j or (zero_first_row and i == 0) else rng.randint(0, bound)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LevelMatrix.from_rows(min_plus_closure(rows))


def random_weyl(rng: random.Random, n: int, shift_bound: int = 3) -> WeylElement:
    perm = list(range(n))
    rng.shuffle(perm)
    shifts = tuple(rng.randint(-shift_bound, shift_bound) for _ in range(n))
    return WeylElement(shifts, tuple(perm))


def triangular_box(n: int, bound: int):
    """(lo, hi) of the upper triangular levels with below-diagonal entries in [0, bound]."""
    hi = tuple(tuple(bound if j < i else 0 for j in range(n)) for i in range(n))
    return LevelMatrix.zero(n).entries, hi


def _sorted_orders(box):
    # sorted flat tuples are the row-major lexicographic order of a product sweep
    unflatten = _unflatten(len(box[0]))
    return [LevelMatrix(unflatten(flat)) for flat in sorted(_orders_in_box(*box))]


def enumerate_orders(n: int, bound: int):
    """All orders with zero first row, zero diagonal and entries in [0, bound]."""
    return _sorted_orders(_census_box(n, bound))


CENSUS_SIZES = [(n, b) for n in range(1, 5) for b in range(4)] + [(5, 1)]
# the census sizes of the orbit tests: every class of these is compared with a brute fold
ORBIT_SIZES = CENSUS_SIZES + [(3, 10), (6, 0), (7, 0)]


@pytest.fixture(scope="session")
def census_result():
    """census(CensusQuery(n, bound, filters)), each query run once per test session."""
    return functools.cache(lambda n, bound, filters=(): census(CensusQuery(n, bound, filters)))


# the modules that bind levels._order; each is reached through importlib, since
# on the package monorders.census and monorders.classify are functions
ORDER_BUILDERS = ("levels", "census", "classify", "oracle", "families")
#: how many levels the mark audit re-proved this session, and how many were census class levels
AUDITED = {"levels": 0, "class levels": 0}


def _install_mark_audit():
    """Re-prove, in every test, each private mark that ``_order`` sets.

    ``_order`` builds a level without the constructor's validation, marks it
    an order and gives it the marks its builder passes: a census class level
    gets ``_canonical`` (the witness ``canonical_form`` returns, the level
    being its own form), ``_triangular`` (what ``triangular_form`` returns)
    and ``_gorenstein`` (what ``_gorenstein_scan`` returns on its rows), and
    every triangular form, the census's and each that ``triangular_form``
    builds, gets ``_eichler`` (what ``classify_eichler`` returns for it: the
    canonical rotation of its staircase shape, or None).  The wrapper
    asserts, on an unmarked copy of the rows, that the constructor accepts
    them and the order scan passes them, that a ``_canonical`` level has a
    zero first row, the identity as its least canonical sigma and the
    identity as its witness, that ``_triangular`` is the triangular search's
    answer, ``_gorenstein`` the scan's and ``_eichler`` the shape read off
    the level's own rows; then it builds the level as ``_order`` does.  The checks run through references taken here,
    so a test that patches or counts those functions sees no call of the audit.
    """
    levels = importlib.import_module("monorders.levels")
    classify = importlib.import_module("monorders.classify")
    build, canonical_sigma, identity = levels._order, levels._canonical_sigma, levels.WeylElement.identity
    triangular_rows, staircase_shape = classify._triangular_rows, classify._staircase_shape
    gorenstein_scan = importlib.import_module("monorders.duality")._gorenstein_scan

    def audited(rows, **marks):
        n = len(rows)
        assert order_violation(LevelMatrix(rows)) is None, rows
        assert set(marks) <= {"_canonical", "_triangular", "_gorenstein", "_eichler"}, marks
        if "_canonical" in marks:
            assert not any(rows[0]) and canonical_sigma(rows, n) == tuple(range(n)), rows
            assert marks["_canonical"] == identity(n), marks
            AUDITED["class levels"] += 1
        if "_triangular" in marks:
            form = marks["_triangular"]
            assert triangular_rows(rows, n) == (None if form is None else form.entries), rows
        if "_gorenstein" in marks:
            assert gorenstein_scan(rows) == marks["_gorenstein"], rows
        if "_eichler" in marks:
            # a triangular form's Eichler shape is its staircase shape, rotated
            assert not any(any(row[i:]) for i, row in enumerate(rows)), rows
            shape = staircase_shape(rows, n)
            assert marks["_eichler"] == (None if shape is None else shape.canonical()), rows
        AUDITED["levels"] += 1
        return build(rows, **marks)

    for name in ORDER_BUILDERS:
        module = importlib.import_module(f"monorders.{name}")
        assert module._order is build, name
        module._order = audited


_install_mark_audit()


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"mark audit: re-proved {AUDITED['levels']:,} levels built as orders, "
        f"{AUDITED['class levels']:,} of them census class levels"
    )


def enumerate_triangular_orders(n: int, bound: int):
    """All upper triangular orders with below-diagonal entries in [0, bound]."""
    return _sorted_orders(triangular_box(n, bound))


def _conjugates(rows, n):
    """(normalized permutation conjugate, sigma) for every sigma, in itertools.permutations order.

    The brute n! orbit: the shifts m[sigma^{-1}(0)] zero the first row.
    """
    for sigma in itertools.permutations(range(n)):
        order = sorted(range(n), key=sigma.__getitem__)  # order[p] is the index sigma sends to p
        base = rows[order[0]]
        yield tuple([tuple([rows[i][j] + base[i] - base[j] for j in order]) for i in order]), sigma


def _brute_triangular_candidates(m: LevelMatrix):
    # every upper triangular normalized permutation conjugate, in n! orbit order
    for candidate, _ in _conjugates(m.entries, m.n):
        if not any(any(row[i:]) for i, row in enumerate(candidate)):
            yield candidate


def brute_staircase_shape(rows, n):
    """Definition-level shape of an upper triangular order: prefix rows, then blocks.

    Checks that every row is an a-prefix followed by zeros and that the
    prefixes form a block staircase, and fails loudly when they do not.
    """
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
        assert all(ri[j] == 0 for j in range(cnt, i)), "0/a row is not a prefix"
        prefix.append(cnt)
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or prefix[i] != prefix[start]:
            assert prefix[start] == start, "0/a prefixes are not a block staircase"
            blocks.append(i - start)
            start = i
    return EichlerShape(len(blocks), tuple(blocks), a)


def brute_triangular_verdicts(m: LevelMatrix):
    """(triangular form, Eichler shape) of m from one n! sweep.

    The form is the lex-min upper triangular normalized permutation conjugate,
    the shape that of the lex-min staircase conjugate, in canonical rotation;
    either is None when there is none.  Every candidate goes through
    ``brute_staircase_shape``, so its assertions run on each.
    """
    form = staircase = shape = None
    for candidate in _brute_triangular_candidates(m):
        candidate_shape = brute_staircase_shape(candidate, m.n)
        if form is None or candidate < form:
            form = candidate
        if candidate_shape is not None and (staircase is None or candidate < staircase):
            staircase, shape = candidate, candidate_shape
    return (
        None if form is None else LevelMatrix(form),
        None if shape is None else shape.canonical(),
    )


def brute_canonical_form(m: LevelMatrix):
    """Canonical form by the n! sweep: the least (normalized conjugate, sigma) pair."""
    rows = m.entries
    best, sigma = min(_conjugates(rows, m.n))
    return LevelMatrix(best), WeylElement(rows[sigma.index(0)], sigma)


def brute_least_blocks(rows):
    """True when each leading k-block of a level, 3 <= k < n, is pair-order-least among its conjugates
    by the permutations of 1..k-1, the pair order reading m[0][1], m[1][0], m[0][2], m[2][0], m[1][2], ..."""
    n = len(rows)
    for k in range(3, n):

        def key(order):
            # the block of the conjugate that moves order[a] to a, read in the pair order
            return [rows[order[a]][order[b]] for j in range(1, k) for i in range(j) for a, b in ((i, j), (j, i))]

        own = key(range(k))
        if any(key((0, *tail)) < own for tail in itertools.permutations(range(1, k))):
            return False
    return True


def brute_census_counts(n: int, bound: int):
    """{canonical level: count} of a census, folding every raw order through canonical_form."""
    counts = {}
    unflatten = _unflatten(n)
    for flat in _orders_in_box(*_census_box(n, bound)):  # every raw order: the search without block tests
        canonical, _ = canonical_form(LevelMatrix(unflatten(flat)))
        counts[canonical] = counts.get(canonical, 0) + 1
    return counts


def brute_match_family(level: LevelMatrix, family):
    """match_family by orbit membership: an instance's first-row normalization among the level's conjugates."""
    if level.n != family.n or not is_order(level):
        return None
    rows = level.entries
    n = level.n
    orbit = {conjugate for conjugate, _ in _conjugates(rows, n)}
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
        if normalize_positive(instance).level.entries in orbit:
            return params
    return None


def brute_gorenstein_scan(m: LevelMatrix):
    """The O(n^3) Gorenstein scan: per row, the least column j that c = m[i][0] + m[0][j] fits.

    Returns (per-row witnesses (c, j) or None, first failing row or None), 1-based.
    """
    rows = m.entries
    n = m.n
    witnesses = []
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            c = ri[0] + rows[0][j]
            if all(ri[k] + rows[k][j] == c for k in range(n)):
                witnesses.append((c, j + 1))
                break
        else:
            return None, i + 1
    return tuple(witnesses), None


def brute_bass_oracle(m: LevelMatrix):
    """bass_oracle by the full scan: Gorenstein-test every overorder, keep the nearest failure."""
    rows = m.entries
    n = m.n
    best = None
    for member in overorders(m).members:
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


_BRUTE_TOKEN = re.compile(r"\S+")
_BRUTE_INT = re.compile(r"[+-]?\d+")


def brute_parse_level_text(text: str) -> LevelMatrix:
    """The text reader token by token: one pattern match and one length check per token.

    Self-contained, so that a change to the reader's patterns or its digit
    limit cannot reach the oracle: a token of L or more digits (L is the
    interpreter's int/str digit limit if set below 4,300, else 4,300) is refused.
    """
    limit = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)

    def integer(token, line, column):
        if len(token.lstrip("+-")) >= limit:
            raise ParseError("integer has too many digits", line=line, column=column)
        return int(token)

    significant = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            significant.append((lineno, body))
    if not significant:
        raise ParseError("empty level file")

    lineno, header = significant[0]
    tokens = list(_BRUTE_TOKEN.finditer(header))
    if len(tokens) != 1 or not _BRUTE_INT.fullmatch(tokens[0].group()):
        raise ParseError("expected a single integer n on the first line", line=lineno)
    n = integer(tokens[0].group(), lineno, tokens[0].start() + 1)
    if n < 1:
        raise ParseError(f"matrix size must be positive, got {n}", line=lineno)
    if len(significant) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(significant) - 1}", line=lineno)

    rows = []
    for lineno, body in significant[1:]:
        row = []
        for match in _BRUTE_TOKEN.finditer(body):
            token = match.group()
            if not _BRUTE_INT.fullmatch(token):
                raise ParseError(f"expected an integer, got {token!r}", line=lineno, column=match.start() + 1)
            row.append(integer(token, lineno, match.start() + 1))
        if len(row) != n:
            raise ParseError(f"expected {n} entries in this row, found {len(row)}", line=lineno)
        rows.append(row)
    return LevelMatrix.from_rows(rows)
