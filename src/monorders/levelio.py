"""Reading and writing level files.

Text format: the first significant line holds n, the next n lines hold n
space-separated integers each.  Lines may carry ``#`` comments, and blank
lines are skipped.  The JSON alternative is {"n": int, "m": [[int, ...], ...]};
input starting with ``{`` is parsed as JSON.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .levels import LevelMatrix

_TOKEN = re.compile(r"\S+")
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
    tokens = list(_TOKEN.finditer(header))
    if len(tokens) != 1 or not _is_int(tokens[0].group()):
        raise ParseError("expected a single integer n on the first line", line=lineno)
    n = _to_int(tokens[0], lineno)
    if n < 1:
        raise ParseError(f"matrix size must be positive, got {n}", line=lineno)
    if len(significant) - 1 != n:
        raise ParseError(
            f"expected {n} matrix rows, found {len(significant) - 1}", line=lineno
        )

    rows = []
    for lineno, body in significant[1:]:
        row = []
        matches = list(_TOKEN.finditer(body))
        for match in matches:
            token = match.group()
            if not _is_int(token):
                raise ParseError(
                    f"expected an integer, got {token!r}",
                    line=lineno,
                    column=match.start() + 1,
                )
            row.append(_to_int(match, lineno))
        if len(row) != n:
            raise ParseError(
                f"expected {n} entries in this row, found {len(row)}", line=lineno
            )
        rows.append(row)
    return LevelMatrix.from_rows(rows)


def parse_level_json(text: str) -> LevelMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except ValueError:  # an integer beyond int()'s digit limit
        raise ParseError(f"invalid JSON: {_TOO_LONG}") from None
    if not isinstance(data, dict) or "n" not in data or "m" not in data:
        raise ParseError('JSON level must be an object with keys "n" and "m"')
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if (
        not isinstance(m, list)
        or len(m) != n
        or any(not isinstance(row, list) or len(row) != n for row in m)
    ):
        raise ParseError(f'"m" must be a {n}x{n} array of integers')
    for row in m:
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ParseError(f"matrix entries must be integers, got {e!r}")
    return LevelMatrix.from_rows(m)


def parse_level(text: str) -> LevelMatrix:
    """Parse either format, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return parse_level_json(text)
    return parse_level_text(text)


def load_level(path) -> LevelMatrix:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    return parse_level(text)


def level_to_text(m: LevelMatrix) -> str:
    lines = [str(m.n)]
    lines.extend(" ".join(str(e) for e in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def level_to_json_obj(m: LevelMatrix) -> dict:
    return {"n": m.n, "m": m.to_lists()}


def _is_int(token: str) -> bool:
    # isdecimal, not isdigit: superscripts such as "²" are digits int() rejects
    if token and token[0] in "+-":
        token = token[1:]
    return token.isdecimal()


def _to_int(match, lineno) -> int:
    try:
        return int(match.group())
    except ValueError:  # beyond int()'s digit limit
        raise ParseError(_TOO_LONG, line=lineno, column=match.start() + 1) from None
