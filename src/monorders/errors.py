"""Exception types shared across the package."""


class MonordersError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MonordersError, ValueError):
    """A parameter is out of range; also a ValueError for existing callers."""


class DimensionMismatch(MonordersError):
    """Objects that must share a size n do not."""


class _WitnessError(MonordersError):
    """An input fails a condition; ``witness`` is where it fails."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnOrderError(_WitnessError):
    """A level matrix violates the order condition where an order is required.

    The message reads ``input level is not an order (...)``; ``witness`` is ``order_violation(m)``.
    """


class NotALatticeError(_WitnessError):
    """A column type is not a lattice over the given order; ``witness`` is ``lattice_violation``."""


class NotPositiveTypeError(MonordersError):
    """An operation requires a level with nonnegative entries."""


class NotTriangularError(MonordersError):
    """An operation requires an upper triangular level."""


class SearchTooLargeError(MonordersError):
    """The matrix size exceeds the configured cap for a canonical form or an n! orbit scan."""


class BudgetExceededError(MonordersError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class ParseError(MonordersError):
    """A level file or an integer on the command line could not be parsed."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location += ": "
        super().__init__(location + message)
        self.line = line
        self.column = column
