"""Monthly time series: representation, truncation, differencing.

A series is a named, strictly increasing sequence of calendar months with
one value (deg C anomaly) per month.  Missing months are simply absent;
nothing is interpolated, and a gap leaves a hole in the regression axis.
All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadWindow, DuplicateMonth, InputError, MonthOutOfRange

__all__ = [
    "MonthIndex",
    "MonthlySeries",
    "difference",
    "truncate",
]


@dataclass(frozen=True, order=True)
class MonthIndex:
    """A calendar month, totally ordered along the (year, month) axis."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise MonthOutOfRange(f"month must be in 1..12, got {self.month}")

    @property
    def ordinal(self) -> int:
        """Position on the consecutive calendar axis, 12 * year + month."""
        return 12 * self.year + self.month

    @classmethod
    def from_ordinal(cls, ordinal: int) -> MonthIndex:
        year, rem = divmod(int(ordinal) - 1, 12)
        return cls(year, rem + 1)

    @classmethod
    def parse(cls, text: str) -> MonthIndex:
        """Parse ``YYYY:MM`` (a ``-`` separator is also accepted)."""
        sep = ":" if ":" in text else "-"
        parts = text.strip().split(sep)
        try:
            if len(parts) != 2:
                raise ValueError
            return cls(int(parts[0]), int(parts[1]))
        except ValueError:
            raise InputError(
                f"cannot parse month {text!r}, expected YYYY:MM"
            ) from None

    def plus(self, months: int) -> MonthIndex:
        """The month ``months`` steps later (negative steps go back)."""
        return MonthIndex.from_ordinal(self.ordinal + months)

    def __str__(self) -> str:
        return f"{self.year}:{self.month:02d}"


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """A named sequence of monthly values on a strictly increasing month axis.

    ``months`` holds month ordinals (12 * year + month) as int64 and
    ``values`` the matching anomalies in deg C.  Both arrays are copied and
    made read-only at construction.  Gaps are permitted: an absent month is
    simply not present in ``months``.
    """

    name: str
    months: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        months = np.array(self.months, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        if months.ndim != 1 or values.ndim != 1:
            raise InputError("months and values must be one-dimensional")
        if months.size != values.size:
            raise InputError(
                f"months ({months.size}) and values ({values.size}) differ in length"
            )
        # Compare neighbours: the int64 difference of far-apart ordinals wraps.
        flat = np.flatnonzero(months[1:] == months[:-1])
        if flat.size:
            dup = MonthIndex.from_ordinal(int(months[flat[0]]))
            raise DuplicateMonth(f"month {dup} appears more than once")
        if np.any(months[1:] < months[:-1]):
            raise InputError("months must be strictly increasing")
        months.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_start(cls, name: str, start: MonthIndex, values) -> MonthlySeries:
        """Gap-free series beginning at ``start``."""
        values = np.asarray(values, dtype=np.float64)
        months = start.ordinal + np.arange(values.size, dtype=np.int64)
        return cls(name, months, values)

    def __len__(self) -> int:
        return int(self.months.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonthlySeries):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self.months, other.months)
            and np.array_equal(self.values, other.values)
        )

    @property
    def first(self) -> MonthIndex:
        if len(self) == 0:
            raise IndexError("empty series has no first month")
        return MonthIndex.from_ordinal(int(self.months[0]))

    @property
    def last(self) -> MonthIndex:
        if len(self) == 0:
            raise IndexError("empty series has no last month")
        return MonthIndex.from_ordinal(int(self.months[-1]))


def truncate(
    s: MonthlySeries, start: MonthIndex | None, end: MonthIndex | None
) -> MonthlySeries:
    """The points of ``s`` with start <= month <= end; the name is kept.

    ``None`` leaves that end of the window open.  An empty result is not an
    error.  Idempotent for a fixed window.
    """
    if start is not None and end is not None and start > end:
        raise BadWindow(f"window start {start} is after end {end}")
    lo = 0 if start is None else int(np.searchsorted(s.months, start.ordinal))
    hi = len(s) if end is None else int(np.searchsorted(s.months, end.ordinal, "right"))
    return MonthlySeries(s.name, s.months[lo:hi], s.values[lo:hi])


def difference(surface: MonthlySeries, troposphere: MonthlySeries) -> MonthlySeries:
    """Pointwise surface minus troposphere over the months both series share."""
    common, i, j = np.intersect1d(
        surface.months, troposphere.months, assume_unique=True, return_indices=True
    )
    return MonthlySeries(
        f"{surface.name}-minus-{troposphere.name}",
        common,
        surface.values[i] - troposphere.values[j],
    )
