"""Reading and writing level files.

Text format: the first significant line holds n, the next n lines hold n
space-separated integers each, tokens that ``_INT`` matches in full (an optional
sign, then Unicode decimal digits, not "²"; ``projective --type`` reads the same).
Lines may carry ``#`` comments, and blank lines are skipped.  Each row is matched
whole by ``_ROW``; only a row it refuses, or one with a token of L or more
characters, is scanned token by token, so a refusal keeps its line and column.
The JSON alternative is {"n": int, "m": [[int, ...], ...]}; input starting with
``{`` is parsed as JSON.  Each grammar validates a level; ``levels._trusted`` builds it.
"""

from __future__ import annotations

import json
import re
import sys

from .errors import ParseError
from .levels import LevelMatrix, _is_plain_int, _trusted

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+")
_ROW = re.compile(r"\s*[+-]?\d+(?:\s+[+-]?\d+)*\s*")  # a line of _INT tokens, matched whole
_TOO_LONG = "integer has too many digits"


def parse_level_text(text: str) -> LevelMatrix:
    significant = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            significant.append((lineno, body))
    if not significant:
        raise ParseError("empty level file")

    lineno, header = significant[0]
    tokens = header.split()
    if len(tokens) != 1 or not _INT.fullmatch(tokens[0]):
        raise ParseError("expected a single integer n on the first line", line=lineno)
    n = _parse_int(tokens[0], lineno, header.index(tokens[0]) + 1)
    if n < 1:
        raise ParseError(f"matrix size must be positive, got {n}", line=lineno)
    if len(significant) - 1 != n:
        raise ParseError(
            f"expected {n} matrix rows, found {len(significant) - 1}", line=lineno
        )

    limit = _digit_limit()
    rows = []
    for lineno, body in significant[1:]:
        tokens = body.split()  # the tokens _TOKEN finds
        if not _ROW.fullmatch(body) or max(map(len, tokens)) >= limit:
            for match in _TOKEN.finditer(body):  # locate the fault, if there is one
                token, column = match.group(), match.start() + 1
                if not _INT.fullmatch(token):
                    raise ParseError(f"expected an integer, got {token!r}", line=lineno, column=column)
                _parse_int(token, lineno, column)
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries in this row, found {len(tokens)}", line=lineno)
        rows.append(tuple(map(int, tokens)))
    return _trusted(LevelMatrix, {"entries": tuple(rows)})


def parse_level_json(text: str) -> LevelMatrix:
    try:
        data = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except ParseError:
        raise ParseError(f"invalid JSON: {_TOO_LONG}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict) or "n" not in data or "m" not in data:
        raise ParseError('JSON level must be an object with keys "n" and "m"')
    n, m = data["n"], data["m"]
    if not _is_plain_int(n) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if (
        not isinstance(m, list)
        or len(m) != n
        or any(not isinstance(row, list) or len(row) != n for row in m)
    ):
        raise ParseError(f'"m" must be a {n}x{n} array of integers')
    for row in m:
        for e in row:
            if not _is_plain_int(e):
                raise ParseError(f"matrix entries must be integers, got {e!r}")
    return _trusted(LevelMatrix, {"entries": tuple(map(tuple, m))})


def parse_level(text: str) -> LevelMatrix:
    """Parse either format, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return parse_level_json(text)
    return parse_level_text(text)


def load_level(path) -> LevelMatrix:
    try:
        with open(path, "rb", buffering=0) as handle:  # one read of the whole file, no buffer
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return parse_level(text.replace("\r\n", "\n").replace("\r", "\n"))  # a text-mode read's newlines


def level_to_text(m: LevelMatrix) -> str:
    lines = [str(m.n)]
    lines.extend(" ".join(str(e) for e in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def level_to_json_obj(m: LevelMatrix) -> dict:
    return {"n": m.n, "m": m.to_lists()}


def _digit_limit() -> int:
    """L: the interpreter's int/str digit limit if set below 4,300, else 4,300."""
    return min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)


def _parse_int(token: str, line=None, column=None) -> int:
    # the token is a sign and digits (_INT or JSON's syntax); every printed value is a sum
    # of at most three input integers (a canonical entry is m[i][j] + m[r][i] - m[r][j]),
    # so refusing more than L - 1 digits keeps it within the L digits int() and str() allow
    if len(token.lstrip("+-")) >= _digit_limit():
        raise ParseError(_TOO_LONG, line=line, column=column)
    return int(token)
