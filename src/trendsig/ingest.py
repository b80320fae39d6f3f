"""Reading series files and the comparison registry.

Series format: UTF-8 CSV with columns ``year,month,value``; a leading
byte-order mark is ignored.  The first row is a header only if its first
field does not parse as a number, so ``1979.0,1,0.1`` is a parse error.
A value field of ``NA`` or an empty field marks a missing month and the
row is skipped.  Months must appear in increasing order with no repeats.
Numbers use Python ``int()``/``float()`` syntax, so whitespace around a
field and ``_`` digit separators are accepted.  A missing-value row still
needs a valid year and month: an integer year whose month number
``12 * year + month`` fits in int64, and a month in 1..12.  When several
rows are malformed, the error names the first failing line, and within
that line the first failing check.

Registry format: an INI-style text file (human-diffable) with one section
per dataset and per comparison::

    [dataset:UAH_T2LT]
    kind = satellite            # satellite | surface_landocean | surface_ocean | surface_land
    path = data/uah_t2lt.csv    # relative paths resolve against the registry file
    notes = v5.2                # optional free text

    [comparison:t2lt_uah]
    satellite = UAH_T2LT
    ensemble_trend = 0.215      # deg C/decade
    ensemble_sd = 0.10          # inter-model SD of ensemble-mean trends
    n_models = 19
    start = 1979:01
    end = 2009:06
    mode = trend                # trend | lapse (only lapse takes a surface = <id> line)

Loading is schema-only: dataset files are not opened, and windows are not
checked against data coverage until a comparison actually runs.

Both kinds of file are read as UTF-8 with an optional byte-order mark.
Bytes that do not decode, or a CSV field the ``csv`` module cannot read,
raise :class:`~trendsig.errors.ParseError` naming the file and line.
"""

from __future__ import annotations

import csv
import io
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadSpec,
    BadWindow,
    DuplicateMonth,
    InputError,
    MissingEnsembleField,
    MonthOutOfRange,
    ParseError,
    UnknownDatasetId,
)
from .series import MonthIndex, MonthlySeries
from .sigtest import EnsembleStats

DATASET_KINDS = frozenset(
    {"satellite", "surface_landocean", "surface_ocean", "surface_land"}
)
COMPARISON_MODES = ("trend", "lapse")

_MISSING_VALUES = ("", "NA")
_INT64 = np.iinfo(np.int64)
# For month m, the years _YEAR_LO[m].._YEAR_HI[m] have an ordinal
# 12 * year + m that fits in int64.
_YEAR_LO = np.array([-((m - _INT64.min) // 12) for m in range(13)])
_YEAR_HI = np.array([(_INT64.max - m) // 12 for m in range(13)])


@dataclass(frozen=True)
class DatasetEntry:
    """One registered dataset: an id, its kind, and where to find it."""

    id: str
    kind: str
    path: Path
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise BadSpec(
                f"dataset {self.id!r}: kind must be one of "
                f"{sorted(DATASET_KINDS)}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class ComparisonSpec:
    """One row of a report table: datasets, ensemble stats, window, mode."""

    spec_id: str
    satellite_id: str
    ensemble: EnsembleStats
    window: tuple[MonthIndex, MonthIndex]
    mode: str
    surface_id: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in COMPARISON_MODES:
            raise BadSpec(
                f"comparison {self.spec_id!r}: mode must be one of "
                f"{COMPARISON_MODES}, got {self.mode!r}"
            )
        if (self.mode == "lapse") != (self.surface_id is not None):
            need = "needs a" if self.mode == "lapse" else "takes no"
            raise BadSpec(
                f"comparison {self.spec_id!r}: mode {self.mode!r} {need} surface dataset"
            )
        start, end = self.window
        if start > end:
            raise BadWindow(
                f"comparison {self.spec_id!r}: window start {start} is after end {end}"
            )


def _read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None


def read_series(path, name: str | None = None) -> MonthlySeries:
    """Load a monthly series from a ``year,month,value`` CSV file.

    ``name`` defaults to the file stem.  Rows whose value field is ``NA``
    or empty are skipped.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path, "series"), newline=""))
    fields: list[str] = []
    widths: list[int] = []
    lines: list[int] = []
    error: InputError | None = None  # the failure of the earliest failing row
    try:
        for row in reader:
            fields += row
            widths.append(len(row))
            lines.append(reader.line_num)
    except csv.Error as exc:
        error = ParseError(f"{path}, line {reader.line_num}: {exc}")

    width = np.array(widths, dtype=np.intp)
    year_s, month_s, value_s = _columns(fields, width)
    years, year_bad = _parse(int, year_s, 0)
    months, month_bad = _parse(int, month_s, 0)
    values, value_bad = _parse(float, value_s, 0.0)

    # A blank row has no integer year; the first other row is a header if
    # its first field is not a number.
    skip = _blank_rows(fields, width, year_bad)
    data = np.flatnonzero(~skip)
    if data.size:
        try:
            float(year_s[data[0]])
        except ValueError:
            skip[data[0]] = True
    missing = np.zeros_like(value_bad)  # a missing value is never a number
    missing[value_bad] = [
        value_s[i].strip() in _MISSING_VALUES for i in np.flatnonzero(value_bad)
    ]

    year, month = _int64(years), _int64(months)
    value = np.array(values, dtype=np.float64)
    table_month = np.clip(month, 0, 12)  # a row with a bad month fails before
    # Each row's checks in the order they apply to it.  A check looks only
    # at rows before the earliest failure so far, so the first failing row
    # wins, and within that row the first failing check.
    checks = [
        (
            width != 3,
            lambda i: ParseError(
                f"{path}, line {lines[i]}: expected 3 fields (year,month,value), "
                f"got {widths[i]}"
            ),
        ),
        (
            year_bad | month_bad,
            lambda i: ParseError(
                f"{path}, line {lines[i]}: year and month must be integers"
            ),
        ),
        (
            (month < 1) | (month > 12),
            lambda i: MonthOutOfRange(
                f"{path}, line {lines[i]}: month must be in 1..12, got {months[i]}"
            ),
        ),
        (
            (year < _YEAR_LO[table_month]) | (year > _YEAR_HI[table_month]),
            lambda i: ParseError(f"{path}, line {lines[i]}: year {years[i]} out of range"),
        ),
        (
            value_bad & ~missing,
            lambda i: ParseError(
                f"{path}, line {lines[i]}: cannot parse value {value_s[i].strip()!r}"
            ),
        ),
        (
            ~np.isfinite(value),
            lambda i: ParseError(
                f"{path}, line {lines[i]}: non-finite value {value_s[i].strip()!r}"
            ),
        ),
    ]
    first = width.size
    for bad, failure in checks:
        hit = np.flatnonzero(bad[:first] & ~skip[:first])
        if hit.size:
            first = int(hit[0])
            error = failure(first)

    # Months must increase across the rows that carry a value.
    kept = np.flatnonzero(~(skip | missing)[:first])
    ordinal = 12 * year[kept] + month[kept]
    step = np.flatnonzero(ordinal[1:] <= ordinal[:-1])
    if step.size:
        i = int(kept[step[0] + 1])
        if ordinal[step[0] + 1] == ordinal[step[0]]:
            month_name = MonthIndex(years[i], months[i])
            error = DuplicateMonth(f"{path}, line {lines[i]}: month {month_name} repeated")
        else:
            error = ParseError(f"{path}, line {lines[i]}: months out of order")
    if error is not None:
        raise error
    return MonthlySeries(name if name is not None else path.stem, ordinal, value[kept])


def _columns(
    fields: list[str], width: np.ndarray
) -> tuple[list[str], list[str], list[str]]:
    """The first three of each row's ``width`` fields, ``""`` where it has fewer."""
    if (width == 3).all():
        return fields[0::3], fields[1::3], fields[2::3]
    cells = np.array([*fields, ""], dtype=object)
    start = np.cumsum(width) - width
    year, month, value = (
        cells[np.where(width > k, start + k, len(fields))].tolist() for k in range(3)
    )
    return year, month, value


def _parse(conv, texts: list[str], fill) -> tuple[list, np.ndarray]:
    """``conv(text.strip())`` of every text, or ``fill`` where that raises
    ValueError, and the mask of the texts where it did.

    ``int`` and ``float`` ignore the whitespace around a number except
    the separators U+001C..U+001F, which ``str.strip`` removes, so only a
    text that fails is stripped and converted again.
    """
    out: list = []
    failed: list[int] = []
    numbers = map(conv, texts)
    while len(out) < len(texts):
        try:
            out.extend(numbers)  # keeps the numbers before a failing text
        except ValueError:
            try:
                out.append(conv(texts[len(out)].strip()))
            except ValueError:
                failed.append(len(out))
                out.append(fill)
    bad = np.zeros(len(texts), dtype=bool)
    bad[failed] = True
    return out, bad


def _blank_rows(fields: list[str], width: np.ndarray, suspect: np.ndarray) -> np.ndarray:
    """The ``suspect`` rows whose fields are all whitespace."""
    field_index = np.flatnonzero(np.repeat(suspect, width))
    filled = np.array([bool(fields[j].strip()) for j in field_index], dtype=bool)
    blank = suspect.copy()
    row_end = np.cumsum(width)
    blank[np.searchsorted(row_end, field_index[filled], side="right")] = False
    return blank


def _int64(numbers: list[int]) -> np.ndarray:
    """``numbers`` as int64, any beyond its range clipped to its bounds."""
    try:
        return np.array(numbers, dtype=np.int64)
    except OverflowError:
        clipped = np.clip(np.array(numbers, dtype=object), _INT64.min, _INT64.max)
        return clipped.astype(np.int64)


def write_series(s: MonthlySeries, path) -> None:
    """Write a series as ``year,month,value`` CSV with a header row.

    Values use shortest round-trip float formatting, so a file written by
    this function reads back as an identical series.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", "month", "value"])
        # Not divmod(ordinal - 1, 12): the shift wraps at the int64 minimum.
        year, month = np.divmod(s.months, 12)
        year -= month == 0  # a multiple of 12 is December of the year before
        month[month == 0] = 12
        values = map(repr, s.values.tolist())
        writer.writerows(zip(year.tolist(), month.tolist(), values))


def read_registry(path) -> tuple[list[DatasetEntry], list[ComparisonSpec]]:
    """Load and validate a registry file.

    Returns the datasets and comparisons in file order.  Every comparison's
    dataset ids must resolve; dataset files themselves are not opened.
    """
    path = Path(path)
    text = _read_text(path, "registry")
    parser = ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(text, source=str(path))
    except ConfigParserError as exc:
        raise ParseError(f"registry {path}: {exc}") from exc

    datasets: list[DatasetEntry] = []
    comparisons: list[ComparisonSpec] = []
    for section in parser.sections():
        head, sep, ident = section.partition(":")
        if not sep or not ident:
            raise ParseError(
                f"registry {path}: section [{section}] is not "
                f"[dataset:<id>] or [comparison:<id>]"
            )
        if head == "dataset":
            datasets.append(_parse_dataset(parser, section, ident, path))
        elif head == "comparison":
            comparisons.append(_parse_comparison(parser, section, ident))
        else:
            raise ParseError(f"registry {path}: unknown section kind [{section}]")

    known = {d.id for d in datasets}
    for spec in comparisons:
        for ref in (spec.satellite_id, spec.surface_id):
            if ref is not None and ref not in known:
                raise UnknownDatasetId(
                    f"comparison {spec.spec_id!r} references unknown dataset {ref!r}"
                )
    return datasets, comparisons


def _require(parser: ConfigParser, section: str, key: str, exc_type, what: str) -> str:
    value = parser.get(section, key, fallback=None)
    if value is None or not value.strip():
        raise exc_type(f"[{section}] is missing {what} {key!r}")
    return value.strip()


def _parse_dataset(
    parser: ConfigParser, section: str, ident: str, registry_path: Path
) -> DatasetEntry:
    kind = _require(parser, section, "kind", BadSpec, "field")
    raw_path = Path(_require(parser, section, "path", BadSpec, "field"))
    if not raw_path.is_absolute():
        raw_path = registry_path.parent / raw_path
    notes = parser.get(section, "notes", fallback="").strip()
    return DatasetEntry(id=ident, kind=kind, path=raw_path, notes=notes)


def _parse_comparison(parser: ConfigParser, section: str, ident: str) -> ComparisonSpec:
    satellite = _require(parser, section, "satellite", BadSpec, "field")
    surface = parser.get(section, "surface", fallback="").strip() or None
    mode = _require(parser, section, "mode", BadSpec, "field")

    def ensemble_number(key: str, conv):
        raw = _require(parser, section, key, MissingEnsembleField, "ensemble field")
        try:
            return conv(raw)
        except ValueError:
            raise MissingEnsembleField(
                f"[{section}] ensemble field {key!r} is not a number: {raw!r}"
            ) from None

    trend = ensemble_number("ensemble_trend", float)
    inter_model_sd = ensemble_number("ensemble_sd", float)
    n_models = ensemble_number("n_models", int)
    try:
        ensemble = EnsembleStats(trend, inter_model_sd, n_models)
    except InputError as exc:
        raise BadSpec(f"[{section}] {exc}") from None

    def window_month(key: str) -> MonthIndex:
        raw = _require(parser, section, key, BadWindow, "window field")
        try:
            return MonthIndex.parse(raw)
        except InputError as exc:
            raise BadWindow(f"[{section}] {key}: {exc}") from None

    return ComparisonSpec(
        spec_id=ident,
        satellite_id=satellite,
        surface_id=surface,
        ensemble=ensemble,
        window=(window_month("start"), window_month("end")),
        mode=mode,
    )
