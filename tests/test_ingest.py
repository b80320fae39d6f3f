import numpy as np
import pytest

from trendsig import (
    ComparisonSpec,
    DatasetEntry,
    EnsembleStats,
    MonthIndex,
    MonthlySeries,
    read_registry,
    read_series,
    truncate,
    write_series,
)
from trendsig.errors import (
    BadSpec,
    BadWindow,
    DuplicateMonth,
    InputError,
    MissingEnsembleField,
    MonthOutOfRange,
    ParseError,
    UnknownDatasetId,
)

GOOD_REGISTRY = """\
[dataset:UAH_T2LT]
kind = satellite
path = data/uah.csv
notes = v5.2

[dataset:SURF]
kind = surface_landocean
path = {abs_surf}

[comparison:t2lt]
satellite = UAH_T2LT
ensemble_trend = 0.215
ensemble_sd = 0.1
n_models = 19
start = 1979:01
end = 2009:06
mode = trend

[comparison:lapse]
satellite = UAH_T2LT
surface = SURF
ensemble_trend = -0.069
ensemble_sd = 0.05
n_models = 19
start = 1979:01
end = 2009:04
mode = lapse
"""


def write(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestReadSeries:
    def test_two_plain_rows(self, tmp_path):
        s = read_series(write(tmp_path, "1979,1,0.12\n1979,2,-0.05\n"))
        assert len(s) == 2
        assert s.points == [
            (MonthIndex(1979, 1), 0.12),
            (MonthIndex(1979, 2), -0.05),
        ]

    def test_header_row_skipped(self, tmp_path):
        s = read_series(write(tmp_path, "year,month,value\n1979,1,0.12\n"))
        assert len(s) == 1

    def test_missing_values_dropped(self, tmp_path):
        text = "1979,1,0.12\n1979,2,NA\n1979,3,\n1979,4,0.3\n"
        s = read_series(write(tmp_path, text))
        assert [m.month for m, _ in s.points] == [1, 4]

    def test_blank_lines_tolerated(self, tmp_path):
        s = read_series(write(tmp_path, "\n1979,1,0.12\n\n1979,2,0.2\n"))
        assert len(s) == 2

    def test_name_defaults_to_stem(self, tmp_path):
        p = write(tmp_path, "1979,1,0.1\n", name="uah_t2lt.csv")
        assert read_series(p).name == "uah_t2lt"
        assert read_series(p, name="other").name == "other"

    def test_month_out_of_range_carries_line(self, tmp_path):
        with pytest.raises(MonthOutOfRange, match="line 1"):
            read_series(write(tmp_path, "1979,13,0.1\n"))

    def test_wrong_field_count_carries_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            read_series(write(tmp_path, "1979,1,0.1\n1979,2\n"))

    def test_bad_number_reported(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            read_series(write(tmp_path, "1979,one,0.1\n"))
        with pytest.raises(ParseError, match="oops"):
            read_series(write(tmp_path, "1979,1,oops\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="non-finite"):
            read_series(write(tmp_path, "1979,1,nan\n"))

    def test_out_of_order_months(self, tmp_path):
        with pytest.raises(ParseError, match="out of order"):
            read_series(write(tmp_path, "1979,3,0.1\n1979,2,0.1\n"))

    def test_duplicate_month(self, tmp_path):
        with pytest.raises(DuplicateMonth, match="1979:02"):
            read_series(write(tmp_path, "1979,2,0.1\n1979,2,0.2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_series(tmp_path / "absent.csv")

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        text = "\ufeff1979,1,0.1\n1979,2,0.2\n1979,3,0.3\n1979,4,0.4\n"
        s = read_series(write(tmp_path, text))
        assert [m.month for m, _ in s.points] == [1, 2, 3, 4]

    def test_numeric_first_row_is_data_not_header(self, tmp_path):
        text = "1979.0,1,0.1\n1979,2,0.2\n1979,3,0.3\n"
        with pytest.raises(ParseError, match="line 1: year and month must be integers"):
            read_series(write(tmp_path, text))

    def test_utf16_file_is_parse_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_bytes("year,month,value\n1979,1,0.1\n".encode("utf-16"))
        with pytest.raises(ParseError, match=r"wide\.csv, line 1: not UTF-8 text"):
            read_series(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"year,month,value\n1979,1,0.1\n1979,2,0.\xff2\n1979,3,0.3\n")
        with pytest.raises(ParseError, match=r"latin\.csv, line 3: not UTF-8 text"):
            read_series(path)

    def test_oversized_field_is_parse_error(self, tmp_path):
        text = "year,month,value\n1979,1,0.1\n1979,2," + "1" * 140_000 + "\n"
        with pytest.raises(ParseError, match="line 3: field larger than field limit"):
            read_series(write(tmp_path, text))

    def test_full_window_truncates_to_252(self, tmp_path):
        lines = []
        idx = MonthIndex(1979, 1)
        for k in range(366):
            m = idx.plus(k)
            lines.append(f"{m.year},{m.month},{0.01 * k}\n")
        s = read_series(write(tmp_path, "".join(lines)))
        assert len(s) == 366
        assert len(truncate(s, MonthIndex(1979, 1), MonthIndex(1999, 12))) == 252

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        original = MonthlySeries.from_points(
            "round_trip",
            [
                (MonthIndex(1979, 1), float(rng.standard_normal())),
                (MonthIndex(1979, 2), -0.125),
                (MonthIndex(1980, 7), 1e-17),  # gap before this point survives
            ],
        )
        path = tmp_path / "round_trip.csv"
        write_series(original, path)
        assert read_series(path) == original


class TestReadRegistry:
    def good_registry(self, tmp_path):
        surf = tmp_path / "surf.csv"
        return write(
            tmp_path,
            GOOD_REGISTRY.format(abs_surf=surf),
            name="registry.ini",
        )

    def test_parses_datasets_and_comparisons(self, tmp_path):
        datasets, comparisons = read_registry(self.good_registry(tmp_path))
        assert [d.id for d in datasets] == ["UAH_T2LT", "SURF"]
        assert datasets[0].kind == "satellite"
        assert datasets[0].notes == "v5.2"
        assert datasets[0].path == tmp_path / "data" / "uah.csv"  # resolved
        assert datasets[1].path == tmp_path / "surf.csv"  # absolute kept
        assert datasets[1].notes == ""

        assert [c.spec_id for c in comparisons] == ["t2lt", "lapse"]
        t2lt = comparisons[0]
        assert t2lt.satellite_id == "UAH_T2LT"
        assert t2lt.surface_id is None
        assert t2lt.ensemble == EnsembleStats(0.215, 0.1, 19)
        assert t2lt.window == (MonthIndex(1979, 1), MonthIndex(2009, 6))
        assert t2lt.mode == "trend"
        assert comparisons[1].surface_id == "SURF"
        assert comparisons[1].window[1] == MonthIndex(2009, 4)

    def test_loading_never_opens_dataset_files(self, tmp_path):
        # Neither referenced path exists; loading must still succeed.
        read_registry(self.good_registry(tmp_path))

    def test_missing_ensemble_field(self, tmp_path):
        bad = GOOD_REGISTRY.replace("ensemble_sd = 0.1\n", "")
        with pytest.raises(MissingEnsembleField, match="ensemble_sd"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_non_numeric_ensemble_field(self, tmp_path):
        bad = GOOD_REGISTRY.replace("n_models = 19", "n_models = nineteen")
        with pytest.raises(MissingEnsembleField, match="n_models"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_missing_window_field(self, tmp_path):
        bad = GOOD_REGISTRY.replace("end = 2009:06\n", "")
        with pytest.raises(BadWindow, match="end"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_unparseable_window_month(self, tmp_path):
        bad = GOOD_REGISTRY.replace("start = 1979:01", "start = January 1979")
        with pytest.raises(BadWindow):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_inverted_window(self, tmp_path):
        bad = GOOD_REGISTRY.replace("start = 1979:01", "start = 2019:01")
        with pytest.raises(BadWindow, match="after"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_lapse_without_surface(self, tmp_path):
        bad = GOOD_REGISTRY.replace("surface = SURF\n", "")
        with pytest.raises(BadSpec, match="lapse"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_trend_with_surface(self, tmp_path):
        bad = GOOD_REGISTRY.replace("mode = trend", "surface = SURF\nmode = trend")
        with pytest.raises(BadSpec, match="mode 'trend' takes no surface dataset"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_unknown_mode(self, tmp_path):
        bad = GOOD_REGISTRY.replace("mode = trend", "mode = anomaly")
        with pytest.raises(BadSpec, match="mode"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_unknown_dataset_kind(self, tmp_path):
        bad = GOOD_REGISTRY.replace("kind = satellite", "kind = balloon")
        with pytest.raises(BadSpec, match="kind"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_unresolved_dataset_reference(self, tmp_path):
        bad = GOOD_REGISTRY.replace("satellite = UAH_T2LT", "satellite = RSS_T2LT")
        with pytest.raises(UnknownDatasetId, match="RSS_T2LT"):
            read_registry(write(tmp_path, bad.format(abs_surf="s.csv"), name="r.ini"))

    def test_duplicate_section_rejected(self, tmp_path):
        dup = GOOD_REGISTRY + "\n[dataset:UAH_T2LT]\nkind = satellite\npath = x.csv\n"
        with pytest.raises(ParseError):
            read_registry(write(tmp_path, dup.format(abs_surf="s.csv"), name="r.ini"))

    def test_malformed_section_name(self, tmp_path):
        bad = "[dataset]\nkind = satellite\npath = x.csv\n"
        with pytest.raises(ParseError, match="dataset"):
            read_registry(write(tmp_path, bad, name="r.ini"))

    def test_unknown_section_kind(self, tmp_path):
        bad = "[window:w1]\nstart = 1979:01\n"
        with pytest.raises(ParseError, match="window"):
            read_registry(write(tmp_path, bad, name="r.ini"))

    def test_undecodable_registry_is_parse_error(self, tmp_path):
        raw = GOOD_REGISTRY.format(abs_surf="surf.csv").encode("utf-8")
        path = tmp_path / "r.ini"
        path.write_bytes(raw.replace(b"notes = v5.2", b"notes = v5.2 \xff"))
        with pytest.raises(ParseError, match=r"r\.ini, line 4: not UTF-8 text"):
            read_registry(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "\ufeff" + GOOD_REGISTRY.format(abs_surf="surf.csv")
        datasets, _ = read_registry(write(tmp_path, text, name="r.ini"))
        assert datasets[0].id == "UAH_T2LT"

    def test_missing_registry_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_registry(tmp_path / "absent.ini")


class TestDirectConstruction:
    def window(self):
        return (MonthIndex(1979, 1), MonthIndex(2009, 6))

    def test_dataset_entry_validates_kind(self):
        with pytest.raises(BadSpec):
            DatasetEntry("X", "weather-balloon", "x.csv")

    def test_comparison_spec_lapse_needs_surface(self):
        with pytest.raises(BadSpec):
            ComparisonSpec(
                spec_id="s",
                satellite_id="SAT",
                ensemble=EnsembleStats(0.1, 0.1, 3),
                window=self.window(),
                mode="lapse",
            )

    def test_comparison_spec_trend_takes_no_surface(self):
        with pytest.raises(BadSpec, match="takes no surface"):
            ComparisonSpec(
                spec_id="s",
                satellite_id="SAT",
                ensemble=EnsembleStats(0.1, 0.1, 3),
                window=self.window(),
                mode="trend",
                surface_id="SURF",
            )

    def test_comparison_spec_checks_window_order(self):
        with pytest.raises(BadWindow):
            ComparisonSpec(
                spec_id="s",
                satellite_id="SAT",
                ensemble=EnsembleStats(0.1, 0.1, 3),
                window=(MonthIndex(2009, 6), MonthIndex(1979, 1)),
                mode="trend",
            )

    def test_comparison_spec_checks_mode(self):
        with pytest.raises(BadSpec):
            ComparisonSpec(
                spec_id="s",
                satellite_id="SAT",
                ensemble=EnsembleStats(0.1, 0.1, 3),
                window=self.window(),
                mode="difference",
            )
