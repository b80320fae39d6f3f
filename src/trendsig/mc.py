"""Synthetic AR(1) series and size/power estimation for the trend test.

Attaining nominal rejection rates on autocorrelated noise is the whole
point of the adjusted test, so this module generates series whose noise
follows ``e[t] = phi * e[t-1] + eps[t]`` with Gaussian innovations and a
stationary start (``e[0]`` drawn with variance ``sigma^2 / (1 - phi^2)``),
then runs the fit-and-compare pipeline over many replicates and counts
those whose two-sided p-value is at most ``alpha``.

Noise is drawn and filtered in chunks of ``CHUNK_ROWS`` replicates, and
:func:`size_power` fits each chunk once with :func:`~trendsig.trend.fit_batch`
and tests it at every true trend in one call each of the two kernels that
:func:`~trendsig.sigtest.compare` wraps, ``d1_star`` and ``p_values``.
Its working memory is therefore three ``CHUNK_ROWS x n`` float matrices
(about 3 MB each at n = 360), whatever the replicate count: the noise
chunk, and the residuals and one scratch matrix of ``fit_batch``.

Determinism contract: replicate ``k`` of a given spec consumes draws
``[k*n, (k+1)*n)`` of the seed's innovation stream, so any slice of
replicates is a pure function of ``(seed, k, n)`` and results cannot
depend on execution order or on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .series import MonthIndex, MonthlySeries
from .sigtest import EnsembleStats, d1_star, p_values

# ``fit`` is unused here, but perfbench's tracer and its tests patch
# trendsig.mc.fit, so the name must exist.
from .trend import MONTHS_PER_DECADE, fit, fit_batch  # noqa: F401

__all__ = [
    "Ar1Spec",
    "SizePower",
    "generate_batch",
    "size_power",
]


@dataclass(frozen=True)
class Ar1Spec:
    """Recipe for a linear trend plus AR(1) noise.

    Attributes
    ----------
    phi : float
        Lag-1 autoregression coefficient, ``|phi| < 1``.
    sigma_innov : float
        Innovation standard deviation (>= 0).
    trend_per_decade : float
        Deterministic trend added to the noise, in value units per decade.
    n : int
        Number of months (>= 3).
    seed : int
        Seed for the innovation stream (>= 0).
    start : MonthIndex
        First month of the generated series.
    """

    phi: float
    sigma_innov: float
    trend_per_decade: float
    n: int
    seed: int
    start: MonthIndex = MonthIndex(1979, 1)

    def __post_init__(self) -> None:
        if not abs(self.phi) < 1.0:
            raise InputError(f"phi must satisfy |phi| < 1, got {self.phi}")
        if not 0.0 <= self.sigma_innov < math.inf:
            raise InputError(
                f"sigma_innov must be finite and >= 0, got {self.sigma_innov}"
            )
        if not math.isfinite(self.trend_per_decade):
            raise InputError(
                f"trend_per_decade must be finite, got {self.trend_per_decade}"
            )
        if self.n < 3:
            raise InputError(f"need n >= 3 months, got {self.n}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


# Replicates generated and evaluated together: bounds size_power's memory.
CHUNK_ROWS = 1024


def _noise_chunks(spec: Ar1Spec, reps: int) -> Iterator[tuple[int, np.ndarray]]:
    """AR(1) noise for replicates ``0..reps-1`` as ``(first replicate, rows)``.

    Consecutive chunks read one generator, so the rows are the same as one
    ``(reps, n)`` draw would give.
    """
    rng = np.random.default_rng(spec.seed)
    scale = np.full(spec.n, spec.sigma_innov)
    # Stationary start: the first draw carries the marginal, not the
    # innovation, standard deviation.
    scale[0] = spec.sigma_innov / np.sqrt(1.0 - spec.phi**2)
    for first in range(0, reps, CHUNK_ROWS):
        y = rng.standard_normal((min(CHUNK_ROWS, reps - first), spec.n))
        y *= scale
        if spec.phi != 0.0:
            for t in range(1, spec.n):
                y[:, t] += spec.phi * y[:, t - 1]
        yield first, y


def generate_batch(spec: Ar1Spec, reps: int) -> list[MonthlySeries]:
    """Generate replicates ``0..reps-1`` of ``spec`` as contiguous series."""
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    ramp = (spec.trend_per_decade / MONTHS_PER_DECADE) * np.arange(spec.n)
    values = np.concatenate([y for _, y in _noise_chunks(spec, reps)]) + ramp
    return [
        MonthlySeries.from_start(f"ar1-seed{spec.seed}-rep{k}", spec.start, row)
        for k, row in enumerate(values)
    ]


class SizePower(NamedTuple):
    """Rejection rates under the null and under trend offsets."""

    size: float
    power_curve: list[tuple[float, float]]


def size_power(
    null_spec: Ar1Spec,
    ens: EnsembleStats,
    reps: int,
    alpha: float,
    trend_gaps: Sequence[float] = (),
) -> SizePower:
    """Estimate empirical size and power of the comparison test.

    Null replicates follow ``null_spec`` with the trend forced to
    ``ens.trend`` (true agreement with the ensemble).  Each entry of
    ``trend_gaps`` offsets the true trend by that many deg C/decade and
    contributes one ``(gap, rejection rate)`` pair to the power curve.
    Each noise chunk is fitted once and its slopes are shifted by every
    true trend, so a gap of 0 reproduces the size exactly.  A replicate
    is rejected when its two-sided p-value is at most ``alpha``.

    A replicate whose noise cannot be fitted (for example one whose
    residuals leave no effective degrees of freedom) aborts the study
    with the fit's :class:`~trendsig.errors.ComputationError`, naming
    the replicate index: its noise fails at every trend value alike.
    """
    if reps < 1000:
        raise InputError(f"need at least 1000 replicates for stable rates, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    if not all(math.isfinite(g) for g in trend_gaps):
        raise InputError(f"trend gaps must be finite, got {list(trend_gaps)}")

    months = null_spec.start.ordinal + np.arange(null_spec.n)
    per_month = (ens.trend + np.reshape([0.0, *trend_gaps], (-1, 1))) / MONTHS_PER_DECADE
    rejections = np.zeros(len(per_month), dtype=np.int64)
    for first, noise in _noise_chunks(null_spec, reps):
        try:
            f = fit_batch(months, noise)
        except ComputationError as exc:
            if exc.row is None:
                raise
            raise type(exc)(f"replicate {first + exc.row}: {exc}") from exc
        # Adding c * arange(n) moves the slope by exactly c (and the intercept,
        # which the test does not read); se and df are the noise's own.
        stat = d1_star(ens, MONTHS_PER_DECADE * (f.slope_per_month + per_month), f.se_slope)
        rejections += np.count_nonzero(p_values(stat, f.df)[1] <= alpha, axis=1)

    rates = [r / reps for r in rejections.tolist()]
    curve = [(float(g), rate) for g, rate in zip(trend_gaps, rates[1:])]
    return SizePower(size=rates[0], power_curve=curve)
