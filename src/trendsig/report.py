"""Run comparisons end-to-end and render result tables.

A table row holds the ensemble, the fit and the test verdict it was
computed from; :func:`render` derives every displayed number and
significance mark from them.  Rows referencing datasets without version
notes are flagged best-effort, since provider series get revised over
time and a re-run on current data need not match archived numbers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import BadSpec, DomainError, TrendSigError, UnknownDatasetId
from .ingest import ComparisonSpec, DatasetEntry, read_series
from .series import MonthIndex, MonthlySeries, difference, truncate
from .sigtest import EnsembleStats, TestResult, compare
from .trend import TrendFit, fit

if TYPE_CHECKING:  # annotations only: compare and lapse need no Monte Carlo
    from .mc import Ar1Spec, SizePower

__all__ = [
    "TableRow",
    "comparison_row",
    "render",
    "run_comparison",
    "run_comparisons",
    "significance_marks",
    "size_power_csv",
]

# Datasets by id, or a sequence of them.
Registry = Mapping[str, DatasetEntry] | Iterable[DatasetEntry]

_LEGEND = (
    "Trends in deg C/decade. Significance marks: * p <= 0.10, ** p <= 0.05,\n"
    "*** p <= 0.01, - not significant; shown as two-sided (one-sided).\n"
)
_BEST_EFFORT_NOTE = (
    "[best-effort]: dataset lacks version notes; current provider data may\n"
    "differ from any archived snapshot.\n"
)


def significance_marks(p: float) -> str:
    """Asterisks for a p-value: *** at 1%, ** at 5%, * at 10%, inclusive."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p-value must lie in [0, 1], got {p}")
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return "-"


@dataclass(frozen=True, eq=False)
class TableRow:
    """One comparison: the ensemble, the fit and the verdict of ``compare``.

    ``surface`` is None for plain trend comparisons and names the surface
    dataset for difference-series (lapse) rows.  Display rounding and
    significance marks happen in :func:`render` only.
    """

    satellite: str
    ensemble: EnsembleStats
    fit: TrendFit
    test: TestResult
    surface: str | None = None
    best_effort: bool = False

    @property
    def label(self) -> str:
        if self.surface is not None:
            return f"{self.surface}-minus-{self.satellite}"
        return self.satellite


def comparison_row(
    satellite: MonthlySeries,
    ensemble: EnsembleStats,
    window: tuple[MonthIndex | None, MonthIndex | None],
    surface: MonthlySeries | None = None,
    best_effort: bool = False,
) -> TableRow:
    """Test the trend of ``satellite``, or of ``surface`` minus ``satellite``.

    The series is cut to ``window`` (``None`` leaves an end open), fitted and
    compared with ``ensemble``.  The row is labelled with the series names.
    """
    target = satellite if surface is None else difference(surface, satellite)
    trend_fit = fit(truncate(target, *window))
    return TableRow(
        satellite=satellite.name,
        ensemble=ensemble,
        fit=trend_fit,
        test=compare(ensemble, trend_fit),
        surface=None if surface is None else surface.name,
        best_effort=best_effort,
    )


def _entry_for(registry: Mapping[str, DatasetEntry], dataset_id: str) -> DatasetEntry:
    try:
        return registry[dataset_id]
    except KeyError:
        raise UnknownDatasetId(f"unknown dataset {dataset_id!r}") from None


def run_comparisons(
    specs: Iterable[ComparisonSpec], registry: Registry
) -> list[TableRow]:
    """Execute comparison specs against their registered datasets, in order.

    Each dataset file is read once per call, by the first spec that names
    it.  Errors are re-raised with the comparison id prefixed.
    """
    if not isinstance(registry, Mapping):
        registry = {d.id: d for d in registry}
    loaded: dict[str, MonthlySeries] = {}
    rows = []
    for spec in specs:
        try:
            entries = [_entry_for(registry, spec.satellite_id)]
            if spec.mode == "lapse":
                entries.append(_entry_for(registry, spec.surface_id))
            for entry in entries:
                if entry.id not in loaded:
                    loaded[entry.id] = read_series(entry.path, name=entry.id)
            satellite, *surface = (loaded[e.id] for e in entries)
            best_effort = any(not e.notes for e in entries)
            row = comparison_row(
                satellite, spec.ensemble, spec.window, *surface, best_effort=best_effort
            )
        except TrendSigError as exc:
            raise type(exc)(f"{spec.spec_id}: {exc}") from exc
        rows.append(row)
    return rows


# No package code calls this: perfbench's worker and test_perfbench.py do.
# It goes when ROADMAP item 1 moves them to run_comparisons.
def run_comparison(spec: ComparisonSpec, registry: Registry) -> TableRow:
    """Execute one comparison spec: the one-spec case of :func:`run_comparisons`."""
    return run_comparisons([spec], registry)[0]


# A number whose fixed-point form is longer than this prints in exponent
# notation, so a huge but valid d1* keeps the table's columns narrow.
_FIXED_WIDTH = 12


def _fmt(value: float, decimals: int) -> str:
    # round() first so a tiny negative like -0.0004 prints 0.000, not -0.000
    fixed = f"{round(value, decimals) + 0.0:.{decimals}f}"
    return fixed if len(fixed) <= _FIXED_WIDTH else f"{value:.{decimals}e}"


def _cells(row: TableRow) -> tuple[str, ...]:
    """Displayed values of a row: trends, d1*, percentile, two- and one-sided marks."""
    return (
        _fmt(row.ensemble.trend, 3),
        _fmt(row.fit.slope_per_decade, 3),
        _fmt(row.test.d1_star, 2),
        _fmt(row.test.percentile, 1),
        significance_marks(row.test.p_two_sided),
        significance_marks(row.test.p_one_sided),
    )


def _render_text(rows: Sequence[TableRow]) -> str:
    header = ("comparison", "ensemble", "observed", "d1*", "pctile", "significance")
    table = [header]
    for row in rows:
        *numbers, two_sided, one_sided = _cells(row)
        table.append((row.label, *numbers, f"{two_sided} ({one_sided})"))
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]

    lines = []
    for line, row in zip(table, [None, *rows]):
        cells = [line[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(line[1:-1], widths[1:-1])]
        cells.append(line[-1])
        flag = "  [best-effort]" if row is not None and row.best_effort else ""
        lines.append("  ".join(cells).rstrip() + flag)
    note = _BEST_EFFORT_NOTE if any(row.best_effort for row in rows) else ""
    return "\n".join(lines) + "\n\n" + _LEGEND + note


def _render_csv(rows: Sequence[TableRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow((
        "surface", "satellite", "ensemble_trend", "observed_trend",
        "d1", "percentile", "two_sided", "one_sided", "best_effort",
    ))
    for row in rows:
        flag = "1" if row.best_effort else "0"
        writer.writerow((row.surface or "", row.satellite, *_cells(row), flag))
    return out.getvalue()


def render(rows: Sequence[TableRow], style: str = "text") -> str:
    """Render rows as a column-aligned text table or as CSV.

    Output is a deterministic function of the rows.  The text style ends
    with the significance legend; the CSV style stays strictly tabular so
    it can be loaded without comment handling.
    """
    if style == "text":
        return _render_text(rows)
    if style == "csv":
        return _render_csv(rows)
    raise BadSpec(f"unknown render style {style!r}")


def size_power_csv(
    null_spec: Ar1Spec, alpha: float, reps: int, result: SizePower
) -> str:
    """Render a size/power result as CSV.

    Columns: ``phi,n,trend_gap,alpha,rejection_rate,reps,seed``.  The size
    appears as the ``trend_gap = 0`` row, followed by the power curve.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("phi", "n", "trend_gap", "alpha", "rejection_rate", "reps", "seed"))
    for gap, rate in [(0.0, result.size), *result.power_curve]:
        writer.writerow((null_spec.phi, null_spec.n, gap, alpha, rate, reps, null_spec.seed))
    return out.getvalue()
