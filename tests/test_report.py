import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from trendsig import (
    ComparisonSpec,
    DatasetEntry,
    EnsembleStats,
    MonthIndex,
    TableRow,
    compare,
    difference,
    fit,
    p_values,
    read_registry,
    read_series,
    render,
    run_comparison,
    significance_marks,
    truncate,
)
from trendsig import report
from trendsig.cli import main
from trendsig.errors import (
    BadSpec,
    InputError,
    TooFewPoints,
    UnknownDatasetId,
)

GOLDEN = Path(__file__).parent / "data" / "golden_table.txt"

WINDOW = (MonthIndex(1979, 1), MonthIndex(2009, 6))


def golden_rows():
    """Four fixed rows exercising signs, lapse labels and the best-effort flag."""
    d1 = [2.42, 1.41, -2.34, -0.07]
    cdf, p_two, p_one = p_values(np.array(d1), np.array([198.0, 210.0, 180.0, 300.0]))
    cells = [
        dict(satellite="SAT_A", ensemble_trend=0.215, observed_trend=0.051),
        dict(satellite="SAT_B", ensemble_trend=0.199, observed_trend=0.1404),
        dict(
            satellite="SAT_A",
            surface="SURF_A",
            ensemble_trend=-0.069,
            observed_trend=0.0721,
            best_effort=True,
        ),
        dict(
            satellite="SAT_B", surface="SURF_B", ensemble_trend=-0.085, observed_trend=-0.0004
        ),
    ]
    return [
        TableRow(
            d1=d1[k],
            percentile=100.0 * float(cdf[k]),
            marks_two_sided=significance_marks(float(p_two[k])),
            marks_one_sided=significance_marks(float(p_one[k])),
            **cell,
        )
        for k, cell in enumerate(cells)
    ]


class TestTableRow:
    def test_label_with_and_without_surface(self):
        row = golden_rows()[0]
        assert row.label == "SAT_A"
        assert golden_rows()[2].label == "SURF_A-minus-SAT_A"

    def test_rejects_unknown_mark(self):
        with pytest.raises(BadSpec):
            TableRow(
                satellite="S",
                ensemble_trend=0.1,
                observed_trend=0.1,
                d1=0.0,
                percentile=50.0,
                marks_two_sided="x",
                marks_one_sided="-",
            )

    def test_rejects_one_sided_weaker_than_two_sided(self):
        with pytest.raises(BadSpec):
            TableRow(
                satellite="S",
                ensemble_trend=0.1,
                observed_trend=0.1,
                d1=2.0,
                percentile=97.0,
                marks_two_sided="**",
                marks_one_sided="-",
            )


class TestRunComparison:
    def test_trend_mode_matches_direct_pipeline(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "sat_trend")
        row = run_comparison(spec, datasets)

        series = read_series(fixture_dir / "sat_a.csv", name="SAT_A")
        f = fit(truncate(series, *WINDOW))
        verdict = compare(spec.ensemble, f)
        assert row.satellite == "SAT_A"
        assert row.surface is None
        assert row.observed_trend == f.slope_per_decade
        assert row.d1 == verdict.d1_star
        assert row.percentile == verdict.percentile
        assert (row.marks_two_sided, row.marks_one_sided) == (
            significance_marks(verdict.p_two_sided),
            significance_marks(verdict.p_one_sided),
        )
        assert not row.best_effort

    def test_lapse_mode_differences_then_fits(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "lapse_pair")
        row = run_comparison(spec, datasets)

        surf = read_series(fixture_dir / "surf_a.csv", name="SURF_A")
        sat = read_series(fixture_dir / "sat_a.csv", name="SAT_A")
        # gap-free shared axis: difference trend = trend difference
        expected = fit(surf).slope_per_decade - fit(sat).slope_per_decade
        assert row.observed_trend == pytest.approx(expected, abs=1e-10)
        assert row.surface == "SURF_A"
        assert row.label == "SURF_A-minus-SAT_A"

    def test_zero_noise_line_fixture(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "line_vs_ensemble")
        row = run_comparison(spec, datasets)
        assert row.observed_trend == pytest.approx(0.051, abs=1e-12)
        # se = 0, so the spread is purely the ensemble's: 0.2^2 / 19
        expected_d1 = (0.215 - row.observed_trend) / math.sqrt(0.2**2 / 19)
        assert row.d1 == pytest.approx(expected_d1, abs=1e-9)
        assert round(row.d1, 2) == 3.57
        assert row.marks_two_sided == "***"

    def test_engineered_agreement_gives_null_row(self, tmp_path, fixture_dir):
        # ensemble trend set to the line's own slope: d1 ~ 0, marks "- (-)"
        registry = {
            "LINE": DatasetEntry("LINE", "satellite", fixture_dir / "line051.csv")
        }
        spec = ComparisonSpec(
            spec_id="agree",
            satellite_id="LINE",
            ensemble=EnsembleStats(0.051, 0.2, 19),
            window=WINDOW,
            mode="trend",
        )
        row = run_comparison(spec, registry)
        assert abs(row.d1) < 1e-9
        assert row.percentile == pytest.approx(50.0, abs=1e-6)
        assert row.marks_two_sided == "-" and row.marks_one_sided == "-"

    def test_accepts_dataset_iterable(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        by_map = run_comparison(comparisons[0], {d.id: d for d in datasets})
        by_list = run_comparison(comparisons[0], datasets)
        assert by_map == by_list

    def test_best_effort_flag_follows_notes(self, fixture_dir):
        spec = ComparisonSpec(
            spec_id="noteless",
            satellite_id="LINE",
            ensemble=EnsembleStats(0.215, 0.2, 19),
            window=WINDOW,
            mode="trend",
        )
        no_notes = {
            "LINE": DatasetEntry("LINE", "satellite", fixture_dir / "line051.csv")
        }
        with_notes = {
            "LINE": DatasetEntry(
                "LINE", "satellite", fixture_dir / "line051.csv", notes="pinned v1"
            )
        }
        assert run_comparison(spec, no_notes).best_effort
        assert not run_comparison(spec, with_notes).best_effort

    def test_errors_name_the_spec(self, fixture_dir):
        spec = ComparisonSpec(
            spec_id="broken",
            satellite_id="NOPE",
            ensemble=EnsembleStats(0.215, 0.2, 19),
            window=WINDOW,
            mode="trend",
        )
        with pytest.raises(UnknownDatasetId, match="broken"):
            run_comparison(spec, {})

        unreadable = ComparisonSpec(
            spec_id="gone",
            satellite_id="LINE",
            ensemble=EnsembleStats(0.215, 0.2, 19),
            window=WINDOW,
            mode="trend",
        )
        registry = {"LINE": DatasetEntry("LINE", "satellite", fixture_dir / "no.csv")}
        with pytest.raises(InputError, match="gone"):
            run_comparison(unreadable, registry)

    def test_window_with_too_few_points_annotated(self, fixture_dir):
        spec = ComparisonSpec(
            spec_id="narrow",
            satellite_id="LINE",
            ensemble=EnsembleStats(0.215, 0.2, 19),
            window=(MonthIndex(1979, 1), MonthIndex(1979, 2)),
            mode="trend",
        )
        registry = {
            "LINE": DatasetEntry("LINE", "satellite", fixture_dir / "line051.csv")
        }
        with pytest.raises(TooFewPoints, match="narrow"):
            run_comparison(spec, registry)


class TestRunComparisons:
    def test_compare_reads_each_dataset_once(self, fixture_dir, monkeypatch):
        reads = []
        read_series = report.read_series

        def counting(path, **kwargs):
            reads.append(Path(path).name)
            return read_series(path, **kwargs)

        monkeypatch.setattr(report, "read_series", counting)
        assert main(["compare", "--registry", str(fixture_dir / "registry.ini")]) == 0
        # sat_a.csv is named by two of the three comparisons
        assert sorted(reads) == ["line051.csv", "sat_a.csv", "surf_a.csv"]

    def test_unreadable_dataset_reported_under_first_spec(self, fixture_dir):
        registry = {"LINE": DatasetEntry("LINE", "satellite", fixture_dir / "no.csv")}
        specs = [
            ComparisonSpec(
                spec_id=spec_id,
                satellite_id="LINE",
                ensemble=EnsembleStats(0.215, 0.2, 19),
                window=WINDOW,
                mode="trend",
            )
            for spec_id in ("first", "second")
        ]
        with pytest.raises(InputError, match="^first: cannot read series file"):
            report.run_comparisons(specs, registry)


class TestRender:
    def test_empty_rows_mean_header_and_legend_only(self):
        text = render([])
        lines = text.splitlines()
        assert lines[0].startswith("comparison")
        assert lines[1] == ""
        assert "Significance marks" in text
        assert "[best-effort]" not in text

    def test_single_row_is_stable(self):
        rows = golden_rows()[:1]
        assert render(rows) == render(rows)
        assert len([l for l in render(rows).splitlines() if l.startswith("SAT_A")]) == 1

    def test_golden_table_byte_identical(self):
        assert render(golden_rows()) == GOLDEN.read_text(encoding="utf-8")

    def test_negative_zero_never_printed(self):
        text = render(golden_rows())
        assert "-0.000" not in text  # row 4's -0.0004 must display as 0.000

    def test_best_effort_marker_and_note(self):
        text = render(golden_rows())
        flagged = [l for l in text.splitlines() if l.endswith("[best-effort]")]
        assert len(flagged) == 1 and flagged[0].startswith("SURF_A-minus-SAT_A")
        assert "version notes" in text

    def test_csv_is_strictly_tabular(self):
        out = render(golden_rows(), style="csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "surface",
            "satellite",
            "ensemble_trend",
            "observed_trend",
            "d1",
            "percentile",
            "two_sided",
            "one_sided",
            "best_effort",
        ]
        assert len(rows) == 5
        assert rows[1][0] == "" and rows[3][0] == "SURF_A"
        assert rows[3][8] == "1" and rows[1][8] == "0"
        assert rows[4][3] == "0.000"  # negative-zero normalization

    def test_unknown_style_rejected(self):
        with pytest.raises(InputError):
            render([], style="html")
