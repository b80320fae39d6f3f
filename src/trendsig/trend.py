"""Ordinary least squares trend with an AR1-adjusted standard error.

The slope is fit on month ordinals, so a calendar gap leaves a hole in
the regressor instead of compressing the axis.  The lag-1 autocorrelation
of the residuals feeds the classic effective-sample-size correction

    n_eff = n * (1 - r1) / (1 + r1)

and n_eff replaces n both in the residual-variance divisor (n_eff - 2)
and in the degrees of freedom used for inference.  The design-matrix sum
of squares keeps all actual points:

    se_slope^2 = [sum(e^2) / (n_eff - 2)] / sum((x - xbar)^2)

with the slope and its standard error reported in deg C per decade
(120 months).

:func:`fit_batch` applies all of this row by row to a matrix of series on
one month axis and returns a :class:`TrendFit` of per-row arrays;
:func:`fit` is its one-row case, so a row of a batch gets exactly the
numbers a single fit of that row gets.  :func:`lag1_autocorr` and
:func:`effective_n` work the same way: a 1-D sequence or a scalar r1 gives
a float.  The batch fit calls ``effective_n`` on whole arrays and shares
``lag1_autocorr``'s kernel, centring the residuals in a scratch matrix it
already holds, so a chunk allocates only its residuals and that one
scratch matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DegenerateDesign,
    DomainError,
    EffectiveDfTooSmall,
    InputError,
    NonFiniteInput,
    TooFewPoints,
)
from .series import MonthlySeries

__all__ = [
    "TrendFit",
    "effective_n",
    "fit",
    "fit_batch",
    "lag1_autocorr",
]

MONTHS_PER_DECADE = 120

# An exactly linear series leaves only rounding noise in the residuals;
# below this fraction of the series variance the fit is treated as exact
# so that noise cannot masquerade as autocorrelation.
_EXACT_FIT_RATIO = 1e-24


@dataclass(frozen=True, eq=False)
class TrendFit:
    """OLS trend of a monthly series with AR1-adjusted uncertainty.

    :func:`fit` fills the float fields with Python floats.  From
    :func:`fit_batch` each float field is an array with one entry per input
    row, ``residuals`` has the input's ``(rows, n)`` shape and is
    read-only, and ``n`` is shared by all rows.

    Attributes
    ----------
    slope_per_month : float
        Fitted slope in deg C per month.
    slope_per_decade : float
        The same slope in deg C per decade (120 * slope_per_month).
    intercept : float
        Value of the fitted line at month ordinal zero, deg C.
    n : int
        Number of points used.
    residuals : np.ndarray
        Fit residuals in input order, deg C.
    r1 : float
        Lag-1 sample autocorrelation of the residuals.
    n_eff : float
        Effective sample size n * (1 - r1) / (1 + r1), clamped to n.
    se_slope : float
        AR1-adjusted standard error of the slope, deg C per decade.
    df : float
        Degrees of freedom for inference, n_eff - 2.
    """

    slope_per_month: float | np.ndarray
    slope_per_decade: float | np.ndarray
    intercept: float | np.ndarray
    n: int
    residuals: np.ndarray
    r1: float | np.ndarray
    n_eff: float | np.ndarray
    se_slope: float | np.ndarray
    df: float | np.ndarray


def lag1_autocorr(residuals) -> float | np.ndarray:
    """Lag-1 sample autocorrelation of residual sequences, along the last axis.

    Adjacent-in-sequence pairing: sum over e[t]*e[t+1] of mean-removed
    residuals divided by the full sum of squares.  Returns 0 when the
    residuals are constant (zero-variance convention).  A 1-D sequence
    gives a float; a ``(rows, n)`` matrix gives one value per row.
    """
    e = np.asarray(residuals, dtype=np.float64)
    n = e.shape[-1] if e.ndim else 1
    if n < 2:
        raise TooFewPoints(f"lag-1 autocorrelation needs at least 2 values, got {n}")
    r1 = _lag1(e, np.empty_like(e))
    return float(r1) if r1.ndim == 0 else r1


def _lag1(e, scratch):
    """The lag-1 autocorrelation kernel; ``e`` centred lands in ``scratch``."""
    c = np.subtract(e, e.sum(axis=-1, keepdims=True) / e.shape[-1], out=scratch)
    denom = np.vecdot(c, c)
    # A constant row has c == 0, so its numerator is 0 as well.
    return np.vecdot(c[..., :-1], c[..., 1:]) / np.where(denom == 0.0, 1.0, denom)


def effective_n(n: int, r1: float | np.ndarray) -> float | np.ndarray:
    """Effective sample size n * (1 - r1) / (1 + r1), clamped to at most n.

    Negative r1 would report more information than the sample holds; the
    clamp keeps n_eff <= n.  Elementwise over an array of r1; a scalar r1
    gives a float.
    """
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    r1 = np.asarray(r1)
    outside = ~((-1.0 < r1) & (r1 < 1.0))
    if outside.any():
        raise DomainError(f"r1 must lie in (-1, 1), got {r1[outside][0]}")
    n_eff = np.minimum((n * (1.0 - r1)) / (1.0 + r1), float(n))
    return float(n_eff) if n_eff.ndim == 0 else n_eff


def fit_batch(months, values) -> TrendFit:
    """Least-squares trends of many series that share one month axis.

    Parameters
    ----------
    months : array_like of int, shape (n,)
        Month ordinals in series order, at least 3 of them and not all
        equal; gaps leave holes in the regressor.
    values : array_like of float, shape (rows, n)
        One series per row; every value finite.

    Returns
    -------
    TrendFit
        One array entry per row.

    Raises
    ------
    InputError
        The shapes do not match.
    TooFewPoints, DegenerateDesign
        The month axis is too short or all in one month.
    NonFiniteInput, EffectiveDfTooSmall
        Raised for the first offending row, whose index is the error's
        ``row``.
    """
    x = np.asarray(months).astype(np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 2 or y.shape[1] != x.size:
        raise InputError(
            f"need months of shape (n,) and values of shape (rows, n), "
            f"got {x.shape} and {y.shape}"
        )
    n = x.size
    if n < 3:
        raise TooFewPoints(f"trend fit needs at least 3 points, got {n}")
    # Sums over n, not .mean(): the same arithmetic with less call overhead.
    # A finite row sum means a finite row, so the elements are looked at
    # only when a sum is not finite.  The checks raise before any numpy
    # warning, so finite values whose sum overflows are summed again after
    # them with warnings on.
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = y.sum(axis=1) / n
    sums_finite = np.isfinite(ybar).all()
    if not sums_finite and not np.isfinite(y).all():
        row = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise NonFiniteInput(f"row {row} contains non-finite values", row=row)
    xbar = float(x.sum() / n)
    xc = x - xbar
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateDesign("all points fall in the same month")
    if not sums_finite:
        ybar = y.sum(axis=1) / n
    yc = y - ybar[:, np.newaxis]
    slope = np.vecdot(yc, xc) / sxx
    intercept = ybar - slope * xbar
    # y - (intercept + slope * x) built in one buffer; addition commutes
    # exactly, so the bits are those of the textbook expression.
    residuals = np.multiply.outer(slope, x)
    residuals += intercept[:, np.newaxis]
    np.subtract(y, residuals, out=residuals)
    residuals.setflags(write=False)

    ss_res = np.vecdot(residuals, residuals)
    ss_tot = np.vecdot(yc, yc)
    # Rounding can push a near-perfect correlation onto the boundary;
    # nudge it back inside the open interval.  yc is spent, so the
    # centred residuals overwrite it.
    r1 = np.clip(_lag1(residuals, yc), -1.0 + 1e-15, 1.0 - 1e-15)
    # A constant row (ss_tot == 0) has zero residuals, so it counts as exact.
    r1[ss_res <= _EXACT_FIT_RATIO * ss_tot] = 0.0

    n_eff = effective_n(n, r1)
    df = n_eff - 2.0
    short = df <= 0.0
    if short.any():
        row = int(short.argmax())
        raise EffectiveDfTooSmall(
            f"effective sample size {n_eff[row]:.3f} leaves no degrees of freedom",
            row=row,
        )
    se_month = np.sqrt(ss_res / df / sxx)

    return TrendFit(
        slope_per_month=slope,
        slope_per_decade=MONTHS_PER_DECADE * slope,
        intercept=intercept,
        n=n,
        residuals=residuals,
        r1=r1,
        n_eff=n_eff,
        se_slope=MONTHS_PER_DECADE * se_month,
        df=df,
    )


def fit(s: MonthlySeries) -> TrendFit:
    """Least-squares trend of a monthly series with AR1-adjusted uncertainty.

    The one-row case of :func:`fit_batch`.

    Parameters
    ----------
    s : MonthlySeries
        At least 3 points on at least 2 distinct months; values finite.

    Returns
    -------
    TrendFit

    Raises
    ------
    TooFewPoints, DegenerateDesign, NonFiniteInput, EffectiveDfTooSmall
    """
    try:
        b = fit_batch(s.months, s.values.reshape(1, -1))
    except NonFiniteInput:
        raise NonFiniteInput(f"series {s.name!r} contains non-finite values") from None
    scalars = {
        f.name: float(getattr(b, f.name)[0])
        for f in fields(TrendFit)
        if f.name not in ("n", "residuals")
    }
    return replace(b, residuals=b.residuals[0], **scalars)
