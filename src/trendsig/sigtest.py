"""Trend-versus-ensemble significance testing.

The statistic compares an observed trend b0 (with standard error se0)
against a model-ensemble mean trend, pooling the observational variance
with the scaled inter-model spread:

    d1* = (ensemble_trend - b0) / sqrt(inter_model_sd^2 / n_models + se0^2)

It is referred to a Student-t distribution whose degrees of freedom come
from the observed series (n_eff - 2).  Results report the t-CDF
percentile and one- and two-sided p-values.  This module holds numerics
only: the significance marks of the result tables are a rendering of the
p-values, owned by :mod:`trendsig.report`.

:func:`d1_star`, :func:`p_values` and :func:`compare` work elementwise on
arrays, which is how the Monte Carlo study tests many replicates at once;
a single series is their one-element case, and :func:`t_cdf` is the
scalar CDF of :func:`p_values`.  ``scipy.special`` is imported only when
a CDF is first evaluated, so importing the package stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NonFiniteInput, ZeroDenominator
from .trend import TrendFit


@dataclass(frozen=True)
class EnsembleStats:
    """Reference ensemble trend and spread, treated as given constants.

    Attributes
    ----------
    trend : float
        Ensemble-mean trend, deg C per decade.
    inter_model_sd : float
        Standard deviation of per-model ensemble-mean trends, deg C/decade.
    n_models : int
        Number of models behind the spread.
    """

    trend: float
    inter_model_sd: float
    n_models: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trend) and math.isfinite(self.inter_model_sd)):
            raise InputError(
                f"ensemble trend and inter_model_sd must be finite, "
                f"got {self.trend} and {self.inter_model_sd}"
            )
        if self.inter_model_sd < 0:
            raise InputError(f"inter_model_sd must be >= 0, got {self.inter_model_sd}")
        if self.n_models < 1:
            raise InputError(f"n_models must be >= 1, got {self.n_models}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a trend comparison.

    :func:`compare` of a :class:`~trendsig.trend.TrendFit` from
    :func:`~trendsig.trend.fit` fills every field with a Python float.  Of
    a fit from :func:`~trendsig.trend.fit_batch`, each field is an array
    with one entry per row.

    ``percentile`` is 100 times the t-CDF at the signed statistic, so
    negative statistics land below 50.  ``p_one_sided`` is half of
    ``p_two_sided``; report rows copy both, and rendering turns them into
    marks with :func:`trendsig.report.significance_marks`.
    """

    d1_star: float | np.ndarray
    df: float | np.ndarray
    percentile: float | np.ndarray
    p_two_sided: float | np.ndarray
    p_one_sided: float | np.ndarray


def d1_star(
    ens: EnsembleStats, obs_trend: float | np.ndarray, obs_se: float | np.ndarray
) -> float | np.ndarray:
    """The modified t statistic for an observed trend against the ensemble.

    Either spread term may be zero, but not both.  Arrays of trends and
    standard errors give an array of statistics; scalars give a float.
    """
    denom2 = ens.inter_model_sd**2 / ens.n_models + obs_se**2
    if np.any(denom2 <= 0.0):
        raise ZeroDenominator("both the inter-model spread and the observed se are zero")
    d1 = (ens.trend - obs_trend) / np.sqrt(denom2)
    return float(d1) if np.ndim(d1) == 0 else d1


def p_values(
    d1: float | np.ndarray, df: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Student-t CDF and p-values of statistics ``d1`` under ``df`` degrees of freedom.

    Elementwise on arrays; returns ``(cdf, p_two_sided, p_one_sided)``.
    The CDF uses the regularized incomplete beta function: for x > 0,
    CDF = 1 - I_w(df/2, 1/2) / 2 with w = df / (df + x^2), and the
    mirror image for x < 0.  The two-sided p-value is 2 * min(CDF, 1 - CDF);
    the one-sided alternative is "trends differ in the direction observed",
    i.e. half the two-sided value.

    Raises
    ------
    NonFiniteInput
        A statistic is not finite; checked first.
    DomainError
        A ``df`` entry is not positive.
    """
    d1, df = np.asarray(d1, dtype=np.float64), np.asarray(df, dtype=np.float64)
    if not np.isfinite(d1).all():
        raise NonFiniteInput(f"x must be finite, got {d1[~np.isfinite(d1)][0]}")
    if not (df > 0).all():
        raise DomainError(f"degrees of freedom must be positive, got {df.min()}")
    from scipy.special import betainc

    w = df / (df + d1 * d1)
    half_tail = 0.5 * betainc(df / 2.0, 0.5, w)
    cdf = np.where(d1 > 0, 1.0 - half_tail, half_tail)
    p_two = 2.0 * np.minimum(cdf, 1.0 - cdf)
    return cdf, p_two, 0.5 * p_two


def t_cdf(x: float, df: float) -> float:
    """Student-t CDF with real-valued degrees of freedom.

    The scalar case of :func:`p_values`.  Absolute error is well inside
    1e-10 over df in [1, 1000], |x| <= 50.
    """
    return float(p_values(x, df)[0])


def compare(ens: EnsembleStats, obs: TrendFit) -> TestResult:
    """Full comparison of a fitted observed trend against the ensemble.

    Degrees of freedom come from the observed fit (n_eff - 2).  A fit of
    one series gives float fields; a batch fit gives one entry per row.
    """
    stat = d1_star(ens, obs.slope_per_decade, obs.se_slope)
    cdf, p_two, p_one = p_values(stat, obs.df)
    values = (stat, obs.df, 100.0 * cdf, p_two, p_one)
    if np.ndim(stat) == 0:
        values = map(float, values)
    return TestResult(*values)
