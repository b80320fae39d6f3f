"""Exception hierarchy shared across the package.

Two branches matter to callers: InputError covers malformed files,
registries and command-line values (CLI exit code 1); ComputationError
covers numerical and domain failures in otherwise valid requests
(CLI exit code 2).
"""

from __future__ import annotations


class TrendSigError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TrendSigError):
    """Malformed or inconsistent user input (files, registry, CLI values)."""


class ComputationError(TrendSigError):
    """Numerical or domain failure during an otherwise valid computation.

    ``row`` is the index of the offending row when a batched computation
    fails on one row of its input, and None otherwise.
    """

    def __init__(self, *args, row: int | None = None) -> None:
        super().__init__(*args)
        self.row = row


class ParseError(InputError):
    """A series or registry file could not be parsed; the message names the line."""


class DuplicateMonth(InputError):
    """The same calendar month appears more than once in a series."""


class MonthOutOfRange(InputError):
    """A month number outside 1..12."""


class UnknownDatasetId(InputError):
    """A comparison references a dataset id missing from the registry."""


class MissingEnsembleField(InputError):
    """A comparison lacks a required ensemble statistic, or it is not a number."""


class BadWindow(InputError):
    """A comparison window is missing, malformed, or has start after end."""


class BadSpec(InputError):
    """A registry entry violates the dataset or comparison schema."""


class TooFewPoints(ComputationError):
    """Fewer points than the operation can work with."""


class DegenerateDesign(ComputationError):
    """The regressor takes fewer than two distinct values."""


class NonFiniteInput(ComputationError):
    """NaN or infinity where a finite value is required."""


class EffectiveDfTooSmall(ComputationError):
    """The AR1 adjustment left no degrees of freedom for the residual variance."""


class ZeroDenominator(ComputationError):
    """Both spread terms of the test statistic are zero."""


class DomainError(ComputationError):
    """An argument lies outside the mathematical domain of the operation."""
