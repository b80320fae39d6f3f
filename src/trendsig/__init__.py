"""Significance testing of monthly-series trends against a model ensemble.

The pipeline: read ``year,month,value`` CSVs (:mod:`trendsig.ingest`),
fit least-squares trends with AR(1)-adjusted standard errors
(:mod:`trendsig.trend`), test them against ensemble statistics
(:mod:`trendsig.sigtest`), and render comparison tables
(:mod:`trendsig.report`).  :mod:`trendsig.mc` checks the test's actual
size and power on synthetic autocorrelated data.

Importing the package loads only :mod:`trendsig.errors`; every other name
and submodule is imported on first use, so ``trendsig --help``, usage
errors and unreadable input files are answered without numpy.
"""

import importlib

from .errors import (
    ComputationError,
    DomainError,
    InputError,
    TrendSigError,
)

# Every other public name, by the submodule that defines it; these names and
# the submodules load on first access, through __getattr__ (PEP 562).
_EXPORTS = {
    "ComparisonSpec": "ingest",
    "DatasetEntry": "ingest",
    "read_registry": "ingest",
    "read_series": "ingest",
    "write_series": "ingest",
    "Ar1Spec": "mc",
    "SizePower": "mc",
    "generate_batch": "mc",
    "size_power": "mc",
    "TableRow": "report",
    "comparison_row": "report",
    "render": "report",
    "run_comparison": "report",
    "run_comparisons": "report",
    "significance_marks": "report",
    "MonthIndex": "series",
    "MonthlySeries": "series",
    "difference": "series",
    "truncate": "series",
    "EnsembleStats": "sigtest",
    "TestResult": "sigtest",
    "compare": "sigtest",
    "d1_star": "sigtest",
    "p_values": "sigtest",
    "t_cdf": "sigtest",
    "TrendFit": "trend",
    "effective_n": "trend",
    "fit": "trend",
    "fit_batch": "trend",
    "lag1_autocorr": "trend",
}
_SUBMODULES = ("cli", "ingest", "mc", "report", "series", "sigtest", "textfile", "trend")


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
    "compare",
    "comparison_row",
    "d1_star",
    "difference",
    "effective_n",
    "fit",
    "fit_batch",
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
