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
scalar CDF of :func:`p_values`.  The CDF needs numpy only: a Gauss-Legendre
integral of the t density where x^2 < df, and the power series of the
incomplete beta function where x^2 >= df.  Its absolute error is below
5e-15 for df from 0.05 to 1e12 and |x| <= 50.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NonFiniteInput, ZeroDenominator
from .trend import TrendFit

__all__ = [
    "EnsembleStats",
    "TestResult",
    "compare",
    "d1_star",
    "p_values",
    "t_cdf",
]


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
        if self.n_models > sys.float_info.max:
            raise InputError("n_models is too large to convert to a float")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a trend comparison.

    :func:`compare` of a :class:`~trendsig.trend.TrendFit` from
    :func:`~trendsig.trend.fit` fills every field with a Python float.  Of
    a fit from :func:`~trendsig.trend.fit_batch`, each field is an array
    with one entry per row.

    ``percentile`` is 100 times the t-CDF at the signed statistic, so
    negative statistics land below 50.  ``p_one_sided`` is half of
    ``p_two_sided``; a report row holds the result, and rendering turns both
    into marks with :func:`trendsig.report.significance_marks`.
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
    # hypot: the squares of a representable spread or se can overflow or underflow.
    denom = np.hypot(ens.inter_model_sd / math.sqrt(ens.n_models), obs_se)
    if np.any(denom == 0.0):
        raise ZeroDenominator("both the inter-model spread and the observed se are zero")
    d1 = (ens.trend - obs_trend) / denom
    return float(d1) if np.ndim(d1) == 0 else d1


# Gauss-Legendre rule with 20 nodes on [0, 1]: ``(x + 1) / 2`` and ``w / 2``
# of ``numpy.polynomial.legendre.leggauss(20)``, as literals so that importing
# the package does not load ``numpy.polynomial``.
_GL_NODES = np.array([
    0.003435700407452502, 0.018014036361043095, 0.04388278587433703,
    0.08044151408889061, 0.1268340467699246, 0.1819731596367425,
    0.24456649902458644, 0.3131469556422902, 0.38610707442917747,
    0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754136, 0.8180268403632576,
    0.8731659532300754, 0.9195584859111094, 0.956117214125663,
    0.981985963638957, 0.9965642995925474,
])
_GL_WEIGHTS = np.array([
    0.008807003569575447, 0.020300714900193223, 0.031336024167054395,
    0.04163837078835236, 0.05096505990862035, 0.0590972659807593,
    0.06584431922458844, 0.0710480546591912, 0.07458649323630212,
    0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
    0.0710480546591912, 0.06584431922458844, 0.0590972659807593,
    0.05096505990862035, 0.04163837078835236, 0.031336024167054395,
    0.020300714900193223, 0.008807003569575447,
])
# Stirling series ln[Gamma(z + 1/2) / Gamma(z)] - ln(z) / 2 = sum_k c_k z^(1 - 2k),
# c_k = (2^(1 - 2k) - 2) B_2k / (2k (2k - 1)); five terms are good to 2.2e-16 at z >= 16.
_STIRLING = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)
# One row per shift k, so that the product over k runs along the long axis.
_SHIFT = np.arange(16.0)[:, None]
_SQRT_PI = math.sqrt(math.pi)
# -u_k^2 for the nodes, and the weights over sqrt(pi), the constant of 1 / B(1/2, a).
_NEG_NODES_SQ = -(_GL_NODES**2)
_BODY_WEIGHTS = _GL_WEIGHTS / _SQRT_PI
# Tail series terms after the first: each is below w <= 1/2 times the last.
_TAIL_N = np.arange(47.0)


def _gamma_ratio(a: np.ndarray) -> np.ndarray:
    """Gamma(a + 1/2) / Gamma(a), elementwise: the series at a + 16, shifted down."""
    z = a + 16.0
    r = 1.0 / z
    y = r * r
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * y + c
    shifted = _SHIFT + a
    shift = np.multiply.reduce(shifted / (shifted + 0.5), axis=0)
    return np.sqrt(z) * np.exp(series * r) * shift


def _lower_tail(x: np.ndarray, df: np.ndarray) -> np.ndarray:
    """P(T <= -|x|) on 1-d arrays; each element depends only on its own inputs.

    With a = df / 2, s = |x| / sqrt(df + x^2) and ``ratio`` = Gamma(a + 1/2) /
    Gamma(a), so that 1 / B(1/2, a) = ratio / sqrt(pi):

    * x^2 < df: P(|T| < |x|) = 2 ratio / sqrt(pi) * int_0^s (1 - t^2)^(a - 1) dt,
      by the Gauss-Legendre rule.  s <= 1/sqrt(2), and the range stops at
      sqrt(34 / (a - 1)), past which the integrand is below e^-34 of its peak.
    * x^2 >= df: P(T <= -|x|) = I_w(a, 1/2) / 2 with w = df / (df + x^2) <= 1/2,
      by the series I_w = w^a s ratio / (a sqrt(pi)) * sum_n (a + 1/2)_n / (a + 1)_n w^n.
    """
    a = 0.5 * df
    root, size = np.sqrt(df), np.abs(x)
    hyp = np.hypot(size, root)  # sqrt(df + x^2) without overflow
    s = size / hyp
    ratio = _gamma_ratio(a)

    power = a - 1.0
    top = np.minimum(s, np.sqrt(34.0 / np.maximum(power, 1.0)))
    f = np.multiply.outer(top * top, _NEG_NODES_SQ)
    np.log1p(f, out=f)
    f *= power[:, None]
    np.exp(f, out=f)
    half = 0.5 - ratio * top * np.vecdot(f, _BODY_WEIGHTS)

    tail = size >= root
    if tail.any():
        at, sqrt_w = a[tail], root[tail] / hyp[tail]
        n = at[:, None] + _TAIL_N
        w = (sqrt_w * sqrt_w)[:, None]
        series = 1.0 + np.cumprod(w * (n + 0.5) / (n + 1.0), axis=1).sum(axis=1)
        # w^a as sqrt(w)^df: w itself underflows first when df is small and |x| huge.
        prefactor = sqrt_w ** df[tail] * s[tail] * ratio[tail] / (2.0 * _SQRT_PI * at)
        half[tail] = prefactor * series
    return np.maximum(half, 0.0)


def p_values(
    d1: float | np.ndarray, df: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Student-t CDF and p-values of statistics ``d1`` under ``df`` degrees of freedom.

    Elementwise on arrays; returns ``(cdf, p_two_sided, p_one_sided)``.
    Where x^2 < df the CDF is 1/2 plus or minus a 20-node Gauss-Legendre
    integral of the t density; where x^2 >= df it is I_w(df/2, 1/2) / 2,
    w = df / (df + x^2), or its complement, from a 48-term power series
    (see :func:`_lower_tail`).  Against 40-digit mpmath and scipy the
    absolute error is below 5e-15 for df from 0.05 to 1e12 and |x| <= 50;
    from df = 1e15 on it is within 4e-16 of the normal CDF.  The CDF lies
    in [0, 1], is exactly 0.5 at 0, and each element depends only on its own
    inputs.  The two-sided p-value is 2 * min(CDF, 1 - CDF);
    the one-sided alternative is "trends differ in the direction observed",
    i.e. half the two-sided value.

    Raises
    ------
    NonFiniteInput
        A statistic is not finite; checked first.
    DomainError
        A ``df`` entry is not finite and positive.
    """
    d1, df = np.asarray(d1, dtype=np.float64), np.asarray(df, dtype=np.float64)
    if not np.isfinite(d1).all():
        raise NonFiniteInput(f"x must be finite, got {d1[~np.isfinite(d1)][0]}")
    valid = (df > 0) & (df < math.inf)
    if not valid.all():
        raise DomainError(
            f"degrees of freedom must be finite and positive, got {df[~valid][0]}"
        )
    if d1.shape != df.shape:
        d1, df = np.broadcast_arrays(d1, df)
    half_tail = _lower_tail(d1.ravel(), df.ravel()).reshape(d1.shape)
    cdf = np.where(d1 > 0, 1.0 - half_tail, half_tail)
    p_two = 2.0 * np.minimum(cdf, 1.0 - cdf)
    return cdf, p_two, 0.5 * p_two


def t_cdf(x: float, df: float) -> float:
    """Student-t CDF with real-valued degrees of freedom.

    The scalar case of :func:`p_values`, and as accurate: absolute error
    below 5e-15 for df from 0.05 to 1e12 and |x| <= 50, using numpy only.
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
