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

from .errors import ComputationError, DomainError, InputError, TrendSigError

# Every other public name, under the submodule that defines it; these names
# and the submodules load on first access, through __getattr__ (PEP 562).
_EXPORTS = {
    "ingest": (
        "ComparisonSpec", "DatasetEntry", "read_registry", "read_series", "write_series",
    ),
    "mc": ("Ar1Spec", "SizePower", "generate_batch", "size_power"),
    "report": (
        "TableRow", "comparison_row", "render", "run_comparison", "run_comparisons",
        "significance_marks",
    ),
    "series": ("MonthIndex", "MonthlySeries", "difference", "truncate"),
    "sigtest": ("EnsembleStats", "TestResult", "compare", "d1_star", "p_values", "t_cdf"),
    "trend": ("TrendFit", "effective_n", "fit", "fit_batch", "lag1_autocorr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "textfile")


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ComputationError", "DomainError", "InputError", "TrendSigError",
    *_MODULE_OF,
    "__version__",
]
