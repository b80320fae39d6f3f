"""Run comparisons end-to-end and render result tables.

A table row pairs an ensemble trend with an observed trend and the test
verdict.  Rows referencing datasets without version notes are flagged
best-effort, since provider series get revised over time and a re-run on
current data need not match archived numbers.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BadSpec, TrendSigError, UnknownDatasetId
from .ingest import ComparisonSpec, DatasetEntry, read_series
from .mc import Ar1Spec, SizePower
from .series import MonthIndex, MonthlySeries, difference, truncate
from .sigtest import EnsembleStats, compare, significance_marks
from .trend import fit

__all__ = [
    "TableRow",
    "comparison_row",
    "render",
    "run_comparison",
    "run_comparisons",
    "size_power_csv",
]

# Datasets by id, or a sequence of them.
Registry = Mapping[str, DatasetEntry] | Iterable[DatasetEntry]

_MARK_RANK = {"-": 0, "*": 1, "**": 2, "***": 3}

_LEGEND = (
    "Trends in deg C/decade. Significance marks: * p <= 0.10, ** p <= 0.05,\n"
    "*** p <= 0.01, - not significant; shown as two-sided (one-sided).\n"
)
_BEST_EFFORT_NOTE = (
    "[best-effort]: dataset lacks version notes; current provider data may\n"
    "differ from any archived snapshot.\n"
)


@dataclass(frozen=True)
class TableRow:
    """One comparison outcome, stored at full precision.

    ``surface`` is None for plain trend comparisons and names the surface
    dataset for difference-series (lapse) rows.  Display rounding happens
    in :func:`render` only.
    """

    satellite: str
    ensemble_trend: float
    observed_trend: float
    d1: float
    percentile: float
    marks_two_sided: str
    marks_one_sided: str
    surface: str | None = None
    best_effort: bool = False

    def __post_init__(self) -> None:
        for mark in (self.marks_two_sided, self.marks_one_sided):
            if mark not in _MARK_RANK:
                raise BadSpec(f"invalid significance mark {mark!r}")
        # One-sided halves the p-value, so it can only be at least as
        # significant as two-sided.
        if _MARK_RANK[self.marks_one_sided] < _MARK_RANK[self.marks_two_sided]:
            raise BadSpec(
                f"one-sided mark {self.marks_one_sided!r} weaker than "
                f"two-sided {self.marks_two_sided!r}"
            )

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
    verdict = compare(ensemble, trend_fit)
    return TableRow(
        satellite=satellite.name,
        surface=None if surface is None else surface.name,
        ensemble_trend=ensemble.trend,
        observed_trend=trend_fit.slope_per_decade,
        d1=verdict.d1_star,
        percentile=verdict.percentile,
        marks_two_sided=significance_marks(verdict.p_two_sided),
        marks_one_sided=significance_marks(verdict.p_one_sided),
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


def run_comparison(spec: ComparisonSpec, registry: Registry) -> TableRow:
    """Execute one comparison spec: the one-spec case of :func:`run_comparisons`."""
    return run_comparisons([spec], registry)[0]


def _fmt(value: float, decimals: int) -> str:
    # round() first so a tiny negative like -0.0004 prints 0.000, not -0.000
    return f"{round(value, decimals) + 0.0:.{decimals}f}"


def _cells(row: TableRow) -> tuple[str, ...]:
    return (
        row.label,
        _fmt(row.ensemble_trend, 3),
        _fmt(row.observed_trend, 3),
        _fmt(row.d1, 2),
        _fmt(row.percentile, 1),
        f"{row.marks_two_sided} ({row.marks_one_sided})",
    )


def _render_text(rows: Sequence[TableRow]) -> str:
    header = ("comparison", "ensemble", "observed", "d1*", "pctile", "significance")
    table = [header] + [_cells(r) for r in rows]
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]

    out = io.StringIO()
    flagged = False
    for i, line in enumerate(table):
        cells = [line[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(line[1:-1], widths[1:-1])]
        cells.append(line[-1])
        text = "  ".join(cells).rstrip()
        if i > 0 and rows[i - 1].best_effort:
            text += "  [best-effort]"
            flagged = True
        out.write(text + "\n")
    out.write("\n")
    out.write(_LEGEND)
    if flagged:
        out.write(_BEST_EFFORT_NOTE)
    return out.getvalue()


def _render_csv(rows: Sequence[TableRow]) -> str:
    out = io.StringIO()
    out.write(
        "surface,satellite,ensemble_trend,observed_trend,"
        "d1,percentile,two_sided,one_sided,best_effort\n"
    )
    for row in rows:
        out.write(
            ",".join(
                (
                    row.surface or "",
                    row.satellite,
                    _fmt(row.ensemble_trend, 3),
                    _fmt(row.observed_trend, 3),
                    _fmt(row.d1, 2),
                    _fmt(row.percentile, 1),
                    row.marks_two_sided,
                    row.marks_one_sided,
                    "1" if row.best_effort else "0",
                )
            )
            + "\n"
        )
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
    buf = io.StringIO()
    buf.write("phi,n,trend_gap,alpha,rejection_rate,reps,seed\n")
    rows = [(0.0, result.size)] + list(result.power_curve)
    for gap, rate in rows:
        buf.write(
            f"{null_spec.phi!r},{null_spec.n},{gap!r},{alpha!r},"
            f"{rate!r},{reps},{null_spec.seed}\n"
        )
    return buf.getvalue()
