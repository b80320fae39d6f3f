import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendsig import (
    ComparisonSpec,
    DatasetEntry,
    EnsembleStats,
    MonthIndex,
    TableRow,
    TrendFit,
    compare,
    comparison_row,
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
from trendsig import report, sigtest
from trendsig.cli import main
from trendsig.errors import (
    InputError,
    TooFewPoints,
    UnknownDatasetId,
)

GOLDEN = Path(__file__).parent / "data" / "golden_table.txt"

WINDOW = (MonthIndex(1979, 1), MonthIndex(2009, 6))


def made_fit(slope_per_decade, df):
    """A fit of ``df + 2`` points whose slope is ``slope_per_decade``."""
    n = int(df) + 2
    return TrendFit(
        slope_per_month=slope_per_decade / 120.0,
        slope_per_decade=slope_per_decade,
        intercept=0.0,
        n=n,
        residuals=np.zeros(n),
        r1=0.0,
        n_eff=float(n),
        se_slope=0.05,
        df=df,
    )


def golden_rows():
    """Four fixed rows exercising signs, lapse labels and the best-effort flag."""
    d1 = [2.42, 1.41, -2.34, -0.07]
    df = [198.0, 210.0, 180.0, 300.0]
    cdf, p_two, p_one = p_values(np.array(d1), np.array(df))
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
            ensemble=EnsembleStats(cell.pop("ensemble_trend"), 0.1, 19),
            fit=made_fit(cell.pop("observed_trend"), df[k]),
            test=sigtest.TestResult(
                d1_star=d1[k],
                df=df[k],
                percentile=100.0 * float(cdf[k]),
                p_two_sided=float(p_two[k]),
                p_one_sided=float(p_one[k]),
            ),
            **cell,
        )
        for k, cell in enumerate(cells)
    ]


def assert_same_fields(got, want):
    """Field-for-field equality of two fits or two verdicts; arrays by bytes."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert (type(a), a) == (type(b), b), field.name


class TestTableRow:
    def test_label_with_and_without_surface(self):
        row = golden_rows()[0]
        assert row.label == "SAT_A"
        assert golden_rows()[2].label == "SURF_A-minus-SAT_A"


MARK_RANK = ["-", "*", "**", "***"]


class TestSignificanceCell:
    @settings(deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_one_sided_mark_never_weaker_and_cell_shows_both(self, p):
        two, one = significance_marks(p), significance_marks(p / 2.0)
        assert MARK_RANK.index(one) >= MARK_RANK.index(two)
        row = golden_rows()[0]
        test = dataclasses.replace(row.test, p_two_sided=p, p_one_sided=p / 2.0)
        row = dataclasses.replace(row, test=test)
        assert render([row]).splitlines()[1].endswith(f"  {two} ({one})")


class TestRunComparison:
    def test_trend_mode_matches_direct_pipeline(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "sat_trend")
        row = run_comparison(spec, datasets)

        series = read_series(fixture_dir / "sat_a.csv", name="SAT_A")
        f = fit(truncate(series, *WINDOW))
        assert row.satellite == "SAT_A"
        assert row.surface is None
        assert row.ensemble == spec.ensemble
        assert_same_fields(row.fit, f)
        assert_same_fields(row.test, compare(spec.ensemble, f))
        assert not row.best_effort

    def test_lapse_mode_differences_then_fits(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "lapse_pair")
        row = run_comparison(spec, datasets)

        surf = read_series(fixture_dir / "surf_a.csv", name="SURF_A")
        sat = read_series(fixture_dir / "sat_a.csv", name="SAT_A")
        # gap-free shared axis: difference trend = trend difference
        expected = fit(surf).slope_per_decade - fit(sat).slope_per_decade
        assert row.fit.slope_per_decade == pytest.approx(expected, abs=1e-10)
        assert row.surface == "SURF_A"
        assert row.label == "SURF_A-minus-SAT_A"

    def test_zero_noise_line_fixture(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "line_vs_ensemble")
        row = run_comparison(spec, datasets)
        assert row.fit.slope_per_decade == pytest.approx(0.051, abs=1e-12)
        # se = 0, so the spread is purely the ensemble's: 0.2^2 / 19
        expected_d1 = (0.215 - row.fit.slope_per_decade) / math.sqrt(0.2**2 / 19)
        assert row.test.d1_star == pytest.approx(expected_d1, abs=1e-9)
        assert round(row.test.d1_star, 2) == 3.57
        assert significance_marks(row.test.p_two_sided) == "***"

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
        assert abs(row.test.d1_star) < 1e-9
        assert row.test.percentile == pytest.approx(50.0, abs=1e-6)
        assert significance_marks(row.test.p_two_sided) == "-"
        assert significance_marks(row.test.p_one_sided) == "-"

    def test_accepts_dataset_iterable(self, fixture_dir):
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        by_map = run_comparison(comparisons[0], {d.id: d for d in datasets})
        by_list = run_comparison(comparisons[0], datasets)
        for style in ("text", "csv"):
            assert render([by_map], style) == render([by_list], style)
        assert_same_fields(by_map.fit, by_list.fit)
        assert_same_fields(by_map.test, by_list.test)

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

    def test_lapse_row_is_the_one_off_lapse_row(self, fixture_dir):
        """A registry lapse row and a row built straight from the two files
        come out of one pipeline: the same fit and the same verdict."""
        datasets, comparisons = read_registry(fixture_dir / "registry.ini")
        spec = next(c for c in comparisons if c.spec_id == "lapse_pair")
        (row,) = report.run_comparisons([spec], datasets)

        sat = read_series(fixture_dir / "sat_a.csv", name="SAT_A")
        surf = read_series(fixture_dir / "surf_a.csv", name="SURF_A")
        one_off = comparison_row(sat, spec.ensemble, spec.window, surf)
        assert (row.label, one_off.label) == ("SURF_A-minus-SAT_A",) * 2
        assert_same_fields(row.fit, one_off.fit)
        assert_same_fields(row.test, one_off.test)

    def test_unreadable_dataset_reported_under_first_spec(self, fixture_dir):
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
        for name in ("no.csv", "n\x00o.csv"):
            registry = {"LINE": DatasetEntry("LINE", "satellite", fixture_dir / name)}
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

    def test_csv_quotes_ids_with_commas_and_quotes(self):
        """Dataset ids and file stems may hold any character a CSV field can."""
        ids = [("UAH,T2LT", 'HAD"CRUT'), ("a,b", 'x"y,z'), (None, "plain")]
        rows = [
            dataclasses.replace(row, surface=surface, satellite=satellite)
            for row, (surface, satellite) in zip(golden_rows(), ids)
        ]
        parsed = list(csv.reader(io.StringIO(render(rows, style="csv"))))
        assert [len(r) for r in parsed] == [9] * 4
        assert [(r[0], r[1]) for r in parsed[1:]] == [(s or "", t) for s, t in ids]

    def test_unknown_style_rejected(self):
        with pytest.raises(InputError):
            render([], style="html")
