import csv
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
    MonthlySeries,
    read_registry,
    read_series,
    truncate,
    write_series,
)
from trendsig import ingest
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
        assert s.months.tolist() == [12 * 1979 + m for m in (1, 2)]
        assert s.values.tolist() == [0.12, -0.05]

    def test_header_row_skipped(self, tmp_path):
        s = read_series(write(tmp_path, "year,month,value\n1979,1,0.12\n"))
        assert len(s) == 1

    def test_missing_values_dropped(self, tmp_path):
        text = "1979,1,0.12\n1979,2,NA\n1979,3,\n1979,4,0.3\n"
        s = read_series(write(tmp_path, text))
        assert s.months.tolist() == [12 * 1979 + m for m in (1, 4)]

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
        for name in ("absent.csv", "a\x00b.csv"):
            with pytest.raises(InputError, match="cannot read") as info:
                read_series(tmp_path / name)
            assert "\x00" not in str(info.value)

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        text = "\ufeff1979,1,0.1\n1979,2,0.2\n1979,3,0.3\n1979,4,0.4\n"
        s = read_series(write(tmp_path, text))
        assert s.months.tolist() == [12 * 1979 + m for m in (1, 2, 3, 4)]

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
        original = MonthlySeries(
            "round_trip",
            [12 * 1979 + 1, 12 * 1979 + 2, 12 * 1980 + 7],  # a gap that survives
            [float(rng.standard_normal()), -0.125, 1e-17],
        )
        # negative and zero years, the int64 ends of the month axis, a
        # signed zero and a tiny value
        odd_months = [
            MonthIndex(-768614336404564651, 4),
            MonthIndex(-3, 1),
            MonthIndex(-2, 11),
            MonthIndex(0, 12),
            MonthIndex(2024, 5),
            MonthIndex(768614336404564650, 7),
        ]
        odd = MonthlySeries(
            "odd_years",
            [m.ordinal for m in odd_months],
            [0.5, -0.0, 1e-300, -2.5e17, 3.0, 0.25],
        )
        for series in (original, odd):
            path = tmp_path / f"{series.name}.csv"
            write_series(series, path)
            back = read_series(path)
            assert back == series
            assert np.array_equal(np.signbit(back.values), np.signbit(series.values))

    def test_long_round_trip_with_missing_rows_and_a_gap(self, tmp_path):
        path = tmp_path / "long.csv"
        original = write_long_file(path)
        assert read_series(path) == original

    def test_first_failing_line_wins_over_a_later_field_count(self, tmp_path):
        text = "1979,1,0.1\n1979,2,0.2\n1979,13,0.3\n1979,4,0.4\n1979,5\n"
        with pytest.raises(MonthOutOfRange, match="line 3: month must be in 1..12, got 13"):
            read_series(write(tmp_path, text))

    def test_missing_row_still_needs_a_valid_month(self, tmp_path):
        with pytest.raises(MonthOutOfRange, match="line 2"):
            read_series(write(tmp_path, "1979,1,0.1\n1979,13,NA\n1979,3,0.3\n"))

    def test_missing_rows_take_no_part_in_the_duplicate_check(self, tmp_path):
        s = read_series(write(tmp_path, "1979,2,0.1\n1979,3,NA\n1979,3,0.2\n"))
        assert s.months.tolist() == [12 * 1979 + m for m in (2, 3)]
        assert s.values.tolist() == [0.1, 0.2]

    def test_whitespace_fields_make_a_blank_row(self, tmp_path):
        s = read_series(write(tmp_path, "1979,1,0.1\n , , \n1979,2,0.2\n"))
        assert len(s) == 2

    def test_error_after_a_quoted_newline_names_the_physical_line(self, tmp_path):
        text = 'year,month,value\n1979,1,"0.1\n"\n1979,2,oops\n'
        with pytest.raises(ParseError, match="line 4: cannot parse value 'oops'"):
            read_series(write(tmp_path, text))

    @pytest.mark.parametrize(
        "year, month, value",
        [
            ("99999999999999999999", 2, "0.2"),
            ("99999999999999999999", 2, "NA"),
            ("768614336404564650", 8, "0.2"),  # 12 * year + 8 is 2**63
            ("-768614336404564651", 1, "0.2"),  # 12 * year + 1 is below -2**63
        ],
    )
    def test_year_beyond_the_month_axis_is_parse_error(self, tmp_path, year, month, value):
        text = f"1979,1,0.1\n{year},{month},{value}\n"
        with pytest.raises(ParseError, match=f"line 2: year {year} out of range"):
            read_series(write(tmp_path, text))

    def test_last_month_on_the_axis_is_read(self, tmp_path):
        s = read_series(write(tmp_path, "768614336404564650,7,0.5\n"))
        assert s.months.tolist() == [2**63 - 1]


def write_long_file(path):
    """Write 120k months from 1850 on as a series file with a header row,
    about 1 % ``NA`` rows and a 4.5-year gap; return the series it holds."""
    rng = np.random.default_rng(11)
    axis = MonthIndex(1850, 1).ordinal + np.arange(120_000)
    gap = (axis >= MonthIndex(1900, 1).ordinal) & (axis < MonthIndex(1904, 7).ordinal)
    na = (rng.random(axis.size) < 0.01) & ~gap
    keep = ~gap & ~na
    original = MonthlySeries("long", axis[keep], rng.standard_normal(keep.sum()))
    write_series(original, path)
    header, *body = path.read_text(encoding="utf-8").splitlines()
    na_months = [MonthIndex.from_ordinal(o) for o in axis[na].tolist()]
    na_rows = [(m.ordinal, f"{m.year},{m.month},NA") for m in na_months]
    rows = sorted([*zip(original.months.tolist(), body), *na_rows])
    path.write_text("\n".join([header, *(r for _, r in rows)]) + "\n", encoding="utf-8")
    assert len(rows) == 120_000 - gap.sum()
    return original


def row_reader(path, name=None):
    """A straightforward row-by-row series reader, the reference that ``read_series``
    must agree with on every file: same series or same error."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    months: list[int] = []
    values: list[float] = []
    last_ordinal: int | None = None
    first_row = True
    try:
        for row in reader:
            line = reader.line_num
            if not row or all(not f.strip() for f in row):
                continue
            if first_row:
                first_row = False
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
            if len(row) != 3:
                raise ParseError(
                    f"{path}, line {line}: expected 3 fields (year,month,value), "
                    f"got {len(row)}"
                )
            year_s, month_s, value_s = (f.strip() for f in row)
            try:
                year = int(year_s)
                month = int(month_s)
            except ValueError:
                raise ParseError(
                    f"{path}, line {line}: year and month must be integers"
                ) from None
            try:
                idx = MonthIndex(year, month)
            except MonthOutOfRange as exc:
                raise MonthOutOfRange(f"{path}, line {line}: {exc}") from None
            if not -(2**63) <= idx.ordinal < 2**63:
                raise ParseError(f"{path}, line {line}: year {year} out of range")
            if value_s in ("", "NA"):
                continue
            try:
                value = float(value_s)
            except ValueError:
                raise ParseError(
                    f"{path}, line {line}: cannot parse value {value_s!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}, line {line}: non-finite value {value_s!r}")
            ordinal = idx.ordinal
            if last_ordinal is not None:
                if ordinal == last_ordinal:
                    raise DuplicateMonth(f"{path}, line {line}: month {idx} repeated")
                if ordinal < last_ordinal:
                    raise ParseError(f"{path}, line {line}: months out of order")
            last_ordinal = ordinal
            months.append(ordinal)
            values.append(value)
    except csv.Error as exc:
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None

    return MonthlySeries(name if name is not None else path.stem, months, values)


TOKENS = (
    "1979", " 1981 ", "1_979", "+1980", "1979.0", "x", "", "0", "13",
    "NA", "nan", "inf", "oops",
    # years at and beyond the int64 ends of the month axis
    "99999999999999999999", "768614336404564650", "-768614336404564651",
)
YEARS = st.sampled_from(TOKENS)
MONTHS = st.sampled_from(TOKENS + ("1", " 2 ", "+3", "1_2", "\x1c4"))
VALUES = st.sampled_from(TOKENS + ("0.25", " -1.5 ", " NA ", "\x1c0.5"))


PLAIN_VALUES = st.sampled_from(["0.25", "-1.5", "3", "-0.0", "1e-300", " 0.5 ", "NA", ""])
SPOILERS = ("4 and 2 fields", "lone CR", "quoted field")


def spoil(how, row, next_row):
    """Two well-formed rows rewritten the way ``how`` names: the next row's
    year moved up a row (right comma total, wrong rows), a lone CR before
    the month (csv ends the row there), or the month in quotes.  Splitting
    on commas and newlines reads the first two as good rows, and a quote
    must send the file to csv."""
    year, month, value = row.split(",")
    if how == "4 and 2 fields":
        next_year, rest = next_row.split(",", 1)
        return [f"{row},{next_year}", rest]
    if how == "lone CR":
        return [f"{year},\r{month},{value}", next_row]
    return [f'{year},"{month}",{value}', next_row]


@st.composite
def series_files(draw):
    """CSV text mixing well-formed rows (months mostly increasing) with
    rows of awkward fields, blank rows, 2-field rows, quoted newlines and
    pairs of rows with one of the ``SPOILERS``."""
    rows = ["year,month,value"] if draw(st.booleans()) else []
    ordinal = MonthIndex(1979, 1).ordinal
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["month", "month", "fields", "blank", "short", "quoted", "spoiled"]
        ))
        if kind == "month":
            ordinal += draw(st.integers(-1, 3))
            m = MonthIndex.from_ordinal(ordinal)
            rows.append(f"{m.year},{m.month},{draw(VALUES)}")
        elif kind == "fields":
            rows.append(f"{draw(YEARS)},{draw(MONTHS)},{draw(VALUES)}")
        elif kind == "blank":
            rows.append(draw(st.sampled_from(["", " ", " , , ", ",,"])))
        elif kind == "short":
            rows.append(f"{draw(YEARS)},{draw(MONTHS)}")
        elif kind == "quoted":
            rows.append(f'{draw(YEARS)},"{draw(MONTHS)}\n",{draw(VALUES)}')
        else:
            pair = []
            for _ in range(2):
                ordinal += 1
                m = MonthIndex.from_ordinal(ordinal)
                pair.append(f"{m.year},{m.month},{draw(PLAIN_VALUES)}")
            rows += spoil(draw(st.sampled_from(SPOILERS)), *pair)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


@st.composite
def plain_files(draw):
    """Mostly plain CSV text: an optional header, increasing months with
    gaps, ``NA`` and empty values, and years written as ``int`` reads them.
    Some files carry a whitespace-only row, first or among the data, and
    some a pair of data rows with one of the ``SPOILERS``."""
    header = draw(st.booleans())
    rows = ["year,month,value"] if header else []
    # the fast path reads years up to 10**15
    first_year = draw(st.sampled_from([-2, 1979, 1979, 1979, 10**15 - 1, 10**15]))
    year_text = draw(st.sampled_from(["{}", " {} ", "{:+}", "{:_}"]))
    ordinal = MonthIndex(first_year, 1).ordinal
    for _ in range(draw(st.integers(0, 30))):
        ordinal += draw(st.sampled_from([1, 1, 1, 2, 25]))
        m = MonthIndex.from_ordinal(ordinal)
        rows.append(f"{year_text.format(m.year)},{m.month},{draw(PLAIN_VALUES)}")
    spoiler = draw(st.sampled_from([None] * 5 + list(SPOILERS)))
    if spoiler and len(rows) - header >= 2:
        k = draw(st.integers(int(header), len(rows) - 2))
        rows[k : k + 2] = spoil(spoiler, rows[k], rows[k + 1])
    if draw(st.integers(0, 4)) == 0:
        blank = draw(st.sampled_from(["", " ", " , , ", ",,"]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


def outcome(reader, path):
    try:
        s = reader(path)
    except InputError as exc:
        return type(exc), str(exc)
    return s.name, s.months.tolist(), s.values.tolist()


@pytest.fixture(scope="module")
def generated_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "series.csv"


@pytest.mark.parametrize("files", [series_files(), plain_files()], ids=["awkward", "plain"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_series_agrees_with_row_reader(generated_csv, files, data):
    text = data.draw(files, label="text")
    generated_csv.write_bytes(text.encode("utf-8"))
    assert outcome(read_series, generated_csv) == outcome(row_reader, generated_csv)
    try:
        plain = ingest._read_plain(text, "series")
    except (ValueError, OverflowError, csv.Error, InputError):
        return
    assert plain == ingest._read_rows(text, "series", generated_csv)


@pytest.mark.parametrize(
    "text",
    [
        "1979,1,5,1979\n2,0.3\n",
        "1979,1,\r0.5\n1979,2,0.2\n",
        '"1979",1,0.1\n1979,2,0.2\n',
        "ye\x00ar,month,value\n1979,1,0.1\n",
        "1979,1,0." + "0" * 131_070 + "1\n",
        "1979,1,0.1\n1979,2,0.2\n\n",
    ],
    ids=[
        "right-comma-total-wrong-rows",
        "lone-cr",
        "quoted-field",
        "nul-in-header",
        "field-over-csv-limit",
        "trailing-blank-line",
    ],
)
def test_files_the_plain_reader_refuses_agree_with_row_reader(tmp_path, text):
    """Files that splitting on commas and newlines would misread: csv ends
    a row at a lone CR, unquotes a field, rejects a NUL on Python 3.10 and
    a field over 131,072 characters, and skips a blank line."""
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_series, path) == outcome(row_reader, path)


def test_plain_files_never_fall_back_to_the_row_reader(monkeypatch, tmp_path, fixture_dir):
    """A file written by ``write_series``, with ``NA`` rows and a gap, stays
    on the fast path, with LF or CRLF line ends, as do the 366-month fixture
    files; a fast path that always gave up would pass every other test and
    only run slower."""
    long_path = tmp_path / "long.csv"
    expected = {long_path: write_long_file(long_path)}
    crlf_path = tmp_path / "crlf" / "long.csv"
    crlf_path.parent.mkdir()
    crlf_path.write_bytes(long_path.read_bytes().replace(b"\n", b"\r\n"))
    expected[crlf_path] = expected[long_path]
    expected |= {path: row_reader(path) for path in sorted(fixture_dir.glob("*.csv"))}
    assert len(expected) == 5

    def no_fallback(text, name, path):
        raise AssertionError(f"{path} fell back to the row reader")

    monkeypatch.setattr(ingest, "_read_rows", no_fallback)
    for path, series in expected.items():
        assert read_series(path) == series


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

    @pytest.mark.parametrize(
        "good, bad, kind",
        [
            ("n_models = 19", "n_models = 19.0", "an integer"),
            ("n_models = 19", "n_models = 1e3", "an integer"),
            ("ensemble_sd = 0.1", "ensemble_sd = wide", "a number"),
        ],
    )
    def test_unparseable_ensemble_field_names_the_kind(self, tmp_path, good, bad, kind):
        key, raw = bad.split(" = ")
        text = GOOD_REGISTRY.replace(good, bad, 1).format(abs_surf="s.csv")
        with pytest.raises(MissingEnsembleField) as info:
            read_registry(write(tmp_path, text, name="r.ini"))
        assert str(info.value).endswith(f"ensemble field {key!r} is not {kind}: {raw!r}")

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

    @pytest.mark.parametrize(
        "keys", ["", "mode = lapse\nsurface = SURF\n"], ids=["empty", "with-keys"]
    )
    def test_default_section_is_rejected(self, tmp_path, keys):
        """configparser would copy [DEFAULT]'s keys into every section."""
        text = f"[DEFAULT]\n{keys}" + GOOD_REGISTRY.format(abs_surf="surf.csv")
        with pytest.raises(ParseError, match=r"section \[DEFAULT\] is not \[dataset:<id>\]"):
            read_registry(write(tmp_path, text, name="r.ini"))

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
