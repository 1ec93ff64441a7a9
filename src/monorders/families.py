"""Table-driven access to the seven 4x4 Gorenstein level families.

The family patterns ship as data (data/gorenstein_families_n4.json); each
entry is one of the linear expressions 0, a, b, a+b in the positive integer
parameters.  Each entry is a*ca + b*cb with a, b >= 0, so every instance is an
order exactly when the unit instances a = 1, b = 0 and a = 0, b = 1 are.
``Family`` proves the pattern by the order scan on the unit instances and
refuses one that fails it, so its instances come marked as orders; it also
refuses ``params`` other than the parameters its pattern uses, in the order a, b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib.resources import files

from .errors import InvalidInputError, MonordersError
from .levels import LevelMatrix, _is_plain_int, _order, order_violation

_ENTRY_COEFFS = {"0": (0, 0), "a": (1, 0), "b": (0, 1), "a+b": (1, 1)}


@dataclass(frozen=True)
class Family:
    index: int
    params: tuple[str, ...]
    pattern: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # every instance is an order when the unit instances are, so that
        # instantiate hands it out marked as one
        n = len(self.pattern)
        square = isinstance(self.pattern, tuple) and all(
            isinstance(row, tuple) and len(row) == n for row in self.pattern
        )
        if not square or not all(isinstance(e, str) and e in _ENTRY_COEFFS for row in self.pattern for e in row):
            raise InvalidInputError(f"family {self.index} pattern must be a square table of 0, a, b, a+b")
        coeffs = [[_ENTRY_COEFFS[expr] for expr in row] for row in self.pattern]
        units = [LevelMatrix(tuple(tuple(c[t] for c in row) for row in coeffs)) for t in (0, 1)]
        witnesses = [w for w in map(order_violation, units) if w is not None]
        if any(isinstance(w, int) for w in witnesses):
            raise InvalidInputError(f"family {self.index} has a nonzero diagonal entry")
        if witnesses:
            i, j, k = min(witnesses)  # the first triple of the scan that breaks in a or in b
            raise InvalidInputError(
                f"family {self.index} has instances that are not orders: "
                f"entry ({i},{k}) exceeds ({i},{j}) plus ({j},{k})"
            )
        # params name exactly the parameters the pattern uses, a before b
        used = tuple(name for t, name in enumerate(("a", "b")) if any(c[t] for row in coeffs for c in row))
        if self.params != used:
            raise InvalidInputError(
                f"family {self.index} params must be {list(used)}, the parameters its pattern uses"
            )

    @property
    def n(self) -> int:
        return len(self.pattern)

    def instantiate(self, a: int | None = None, b: int | None = None) -> LevelMatrix:
        """Level obtained by substituting the given parameter values."""
        for name, value in (("a", a), ("b", b)):
            if name in self.params and not (_is_plain_int(value) and value >= 1):
                raise InvalidInputError(f"family {self.index} needs a positive integer {name}")
            if name not in self.params and value is not None:
                raise InvalidInputError(f"family {self.index} takes no parameter {name}")
        values = {expr: ca * (a or 0) + cb * (b or 0) for expr, (ca, cb) in _ENTRY_COEFFS.items()}
        return _order(tuple(tuple(values[expr] for expr in row) for row in self.pattern))


@cache
def load_families() -> tuple[Family, ...]:
    """The seven families, in table order."""
    try:
        text = files("monorders").joinpath("data/gorenstein_families_n4.json").read_text()
    except OSError as exc:
        raise MonordersError(f"cannot read the family table: {exc.strerror or exc}") from None
    return tuple(
        Family(item["index"], tuple(item["params"]), tuple(map(tuple, item["pattern"])))
        for item in json.loads(text)["families"]
    )
