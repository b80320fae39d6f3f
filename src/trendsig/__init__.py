"""Significance testing of monthly-series trends against a model ensemble.

The pipeline: read ``year,month,value`` CSVs (:mod:`trendsig.ingest`),
fit least-squares trends with AR(1)-adjusted standard errors
(:mod:`trendsig.trend`), test them against ensemble statistics
(:mod:`trendsig.sigtest`), and render comparison tables
(:mod:`trendsig.report`).  :mod:`trendsig.mc` checks the test's actual
size and power on synthetic autocorrelated data.
"""

from .errors import (
    ComputationError,
    DomainError,
    InputError,
    TrendSigError,
)
from .ingest import (
    ComparisonSpec,
    DatasetEntry,
    read_registry,
    read_series,
    write_series,
)
from .mc import Ar1Spec, SizePower, generate, generate_batch, size_power
from .report import TableRow, comparison_row, render, run_comparison, run_comparisons
from .series import MonthIndex, MonthlySeries, align, difference, truncate
from .sigtest import (
    EnsembleStats,
    TestResult,
    compare,
    d1_star,
    p_values,
    significance_marks,
    t_cdf,
)
from .trend import TrendFit, effective_n, fit, fit_batch, lag1_autocorr

__version__ = "0.1.0"

__all__ = [
    "Ar1Spec",
    "ComparisonSpec",
    "ComputationError",
    "DatasetEntry",
    "DomainError",
    "EnsembleStats",
    "InputError",
    "MonthIndex",
    "MonthlySeries",
    "SizePower",
    "TableRow",
    "TestResult",
    "TrendFit",
    "TrendSigError",
    "align",
    "compare",
    "comparison_row",
    "d1_star",
    "difference",
    "effective_n",
    "fit",
    "fit_batch",
    "generate",
    "generate_batch",
    "lag1_autocorr",
    "p_values",
    "read_registry",
    "read_series",
    "render",
    "run_comparison",
    "run_comparisons",
    "significance_marks",
    "size_power",
    "t_cdf",
    "truncate",
    "write_series",
    "__version__",
]
