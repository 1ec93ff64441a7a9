"""Table-driven access to the seven 4x4 Gorenstein level families.

The family patterns ship as data (data/gorenstein_families_n4.json); each
entry is one of the linear expressions 0, a, b, a+b in the positive integer
parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib.resources import files

from .errors import InvalidInputError
from .levels import LevelMatrix

_ENTRY_COEFFS = {"0": (0, 0), "a": (1, 0), "b": (0, 1), "a+b": (1, 1)}


@dataclass(frozen=True)
class Family:
    index: int
    params: tuple[str, ...]
    pattern: tuple[tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.pattern)

    def instantiate(self, a: int | None = None, b: int | None = None) -> LevelMatrix:
        """Level obtained by substituting the given parameter values."""
        given = {"a": a, "b": b}
        for name in self.params:
            value = given[name]
            if value is None or value < 1:
                raise InvalidInputError(f"family {self.index} needs a positive integer {name}")
        for name, value in given.items():
            if value is not None and name not in self.params:
                raise InvalidInputError(f"family {self.index} takes no parameter {name}")
        av = a or 0
        bv = b or 0
        rows = []
        for row in self.pattern:
            out = []
            for expr in row:
                ca, cb = _ENTRY_COEFFS[expr]
                out.append(ca * av + cb * bv)
            rows.append(tuple(out))
        return LevelMatrix(tuple(rows))


@cache
def load_families() -> tuple[Family, ...]:
    """The seven families, in table order."""
    text = files("monorders").joinpath("data/gorenstein_families_n4.json").read_text()
    raw = json.loads(text)
    out = []
    for item in raw["families"]:
        pattern = tuple(tuple(entry for entry in row) for row in item["pattern"])
        for row in pattern:
            for expr in row:
                if expr not in _ENTRY_COEFFS:
                    raise ValueError(f"unknown entry expression {expr!r} in family table")
        out.append(Family(item["index"], tuple(item["params"]), pattern))
    return tuple(out)
