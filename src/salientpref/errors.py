"""Exception hierarchy.

Everything raised on purpose by this package derives from ``SalientPrefError``
so callers can catch library failures with a single except clause.  Classes
that signal bad arguments also derive from ``ValueError`` for idiomatic use.
"""

from __future__ import annotations


class SalientPrefError(Exception):
    """Base class for all errors raised by salientpref."""


class DimensionError(SalientPrefError, ValueError):
    """Shapes, indices, or coordinate subsets do not match the feature space."""


class InvalidPairError(SalientPrefError, ValueError):
    """A pair of items is degenerate (i == j) or out of range."""


class NotSingleCoordinateError(SalientPrefError, ValueError):
    """A realized selection subset has cardinality != 1 where one is required."""


class PreconditionError(SalientPrefError, ValueError):
    """A documented precondition of an operation does not hold."""


class UndefinedMetricError(SalientPrefError, ValueError):
    """A metric has an empty denominator (no eligible pairs)."""


class NumericalFailureError(SalientPrefError, ArithmeticError):
    """A NaN or infinity appeared where a finite value is required."""


class ParseError(SalientPrefError, ValueError):
    """A data file is malformed; the message carries file and line context."""

    def __init__(self, path: str, line: int | None, message: str):
        loc = f"{path}:{line}" if line is not None else path
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


class UnknownItemError(SalientPrefError, KeyError):
    """An item identifier is absent from the feature matrix."""

    def __str__(self) -> str:
        # KeyError's str() is the repr of its argument; the message reads bare
        return BaseException.__str__(self)
