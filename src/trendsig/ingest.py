"""Reading series files and the comparison registry.

Series format: UTF-8 CSV with columns ``year,month,value``; a leading
byte-order mark is ignored.  The first row is a header only if its first
field does not parse as a number, so ``1979.0,1,0.1`` is a parse error.
A value field of ``NA`` or an empty field marks a missing month and the
row is skipped.  Months must appear in increasing order with no repeats.
Numbers use Python ``int()``/``float()`` syntax, so whitespace around a
field and ``_`` digit separators are accepted.  A missing-value row still
needs a valid year and month: an integer year whose month number
``12 * year + month`` fits in int64, and a month in 1..12.

Reading takes one of two paths.  A plain file (two commas on every line,
LF or CRLF line ends, no quote, lone CR, NUL or line longer than the
``csv`` field limit, exact ``NA`` markers, years well inside the month
axis; see ``_read_plain``) is read column-wise without a per-row loop.
Any other file is read again row by row by ``_read_rows``, which defines
what a valid file is: its error names the first failing line and, within
that line, the first failing check.

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
import math
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
from .textfile import read_text

__all__ = [
    "ComparisonSpec",
    "DatasetEntry",
    "parse_registry",
    "parse_series",
    "read_registry",
    "read_series",
    "write_series",
]

DATASET_KINDS = frozenset(
    {"satellite", "surface_landocean", "surface_ocean", "surface_land"}
)
COMPARISON_MODES = ("trend", "lapse")

_MISSING_VALUES = ("", "NA")
# Years the plain-file reader takes: 12 * year + month stays far inside int64.
_PLAIN_YEARS = 10**15


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


def read_series(path, name: str | None = None) -> MonthlySeries:
    """Load a monthly series from a ``year,month,value`` CSV file.

    ``name`` defaults to the file stem.  Rows whose value field is ``NA``
    or empty are skipped.
    """
    path = Path(path)
    return parse_series(read_text(path, "series"), path, name)


def parse_series(text: str, path: Path, name: str | None = None) -> MonthlySeries:
    """The series in ``text``, the contents of the series file ``path``.

    ``name`` defaults to the file stem; errors name ``path`` and the line.
    """
    name = name if name is not None else path.stem
    try:
        return _read_plain(text, name)
    except (ValueError, OverflowError, csv.Error, InputError):
        return _read_rows(text, name, path)


def _read_plain(text: str, name: str) -> MonthlySeries:
    """The series of a plain file, or an exception where the file is not plain.

    A plain file has lines ended by LF or CRLF (the last may lack one),
    exactly two commas on every line, and no quote, lone CR, NUL or line
    longer than ``csv.field_size_limit()``, so that splitting on commas and
    newlines gives the fields ``csv`` would.  It has a header only as its
    first row, years and months that ``int`` reads, months in 1..12 and
    |year| at most ``_PLAIN_YEARS``, and values that are exactly ``NA``,
    empty, or finite numbers ``float`` reads; repeated or out-of-order
    months make the :class:`MonthlySeries` constructor raise.
    :func:`_read_rows` reads every other file, blank lines included.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\x00" in text:
        raise ValueError("a quote, a lone carriage return or a NUL")
    if text and not text.endswith("\n"):
        text += "\n"
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    newlines = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    # With two commas per newline in all, line k holds exactly commas 2k and
    # 2k + 1 when newline k lies after comma 2k + 1 and before comma 2k + 2.
    if not (
        len(commas) == 2 * len(newlines)
        and np.all(commas[1::2] < newlines)
        and np.all(newlines[:-1] < commas[2::2])
    ):
        raise ValueError("not 3 fields")
    if np.any(np.diff(newlines, prepend=-1) - 1 > csv.field_size_limit()):
        raise ValueError("a line longer than the csv field limit")
    fields = text.replace("\n", ",").split(",")[:-1]
    cells = np.array(fields, dtype=object).reshape(-1, 3)
    try:
        float(fields[0] if fields else "0")
    except ValueError:
        cells = cells[1:]  # a header row
    year, month = cells[:, 0].astype(np.int64), cells[:, 1].astype(np.int64)
    if np.any((month < 1) | (month > 12) | (year < -_PLAIN_YEARS) | (year > _PLAIN_YEARS)):
        raise ValueError("month or year out of range")
    missing = np.isin(cells[:, 2], _MISSING_VALUES)
    value = np.where(missing, "nan", cells[:, 2]).astype(np.float64)
    keep = np.isfinite(value)
    if not np.array_equal(keep, ~missing):
        raise ValueError("non-finite value")
    return MonthlySeries(name, 12 * year[keep] + month[keep], value[keep])


def _read_rows(text: str, name: str, path: Path) -> MonthlySeries:
    """Read ``text`` row by row: the series, or the error of the first
    failing line, and within that line of its first failing check."""
    reader = csv.reader(io.StringIO(text, newline=""))

    def error(message, kind=ParseError) -> InputError:
        return kind(f"{path}, line {reader.line_num}: {message}")

    months: list[int] = []
    values: list[float] = []
    header_possible = True
    try:
        for row in reader:
            if all(not f.strip() for f in row):
                continue  # a blank row
            if header_possible:
                header_possible = False
                try:
                    float(row[0])
                except ValueError:
                    continue  # a header row
            if len(row) != 3:
                raise error(f"expected 3 fields (year,month,value), got {len(row)}")
            year_s, month_s, value_s = (f.strip() for f in row)
            try:
                year, month = int(year_s), int(month_s)
            except ValueError:
                raise error("year and month must be integers") from None
            if not 1 <= month <= 12:
                raise error(f"month must be in 1..12, got {month}", MonthOutOfRange)
            ordinal = 12 * year + month
            if not -(2**63) <= ordinal < 2**63:  # the int64 month axis
                raise error(f"year {year} out of range")
            if value_s in _MISSING_VALUES:
                continue
            try:
                value = float(value_s)
            except ValueError:
                raise error(f"cannot parse value {value_s!r}") from None
            if not math.isfinite(value):
                raise error(f"non-finite value {value_s!r}")
            if months and ordinal <= months[-1]:
                if ordinal == months[-1]:
                    raise error(f"month {MonthIndex(year, month)} repeated", DuplicateMonth)
                raise error("months out of order")
            months.append(ordinal)
            values.append(value)
    except csv.Error as exc:
        raise error(exc) from None
    return MonthlySeries(name, months, values)


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
    return parse_registry(read_text(path, "registry"), path)


def parse_registry(
    text: str, path: Path
) -> tuple[list[DatasetEntry], list[ComparisonSpec]]:
    """The datasets and comparisons in ``text``, the contents of the
    registry file ``path``; relative dataset paths resolve against it."""
    # No header can be empty, so [DEFAULT] is an ordinary section, which the
    # section check below rejects, not keys copied into every section.
    parser = ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    try:
        parser.read_string(text, source=str(path))
    except ConfigParserError as exc:
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ParseError(f"registry {path}: {message}") from exc

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

    def ensemble_number(key: str, conv, kind: str = "a number"):
        raw = _require(parser, section, key, MissingEnsembleField, "ensemble field")
        try:
            return conv(raw)
        except ValueError:
            raise MissingEnsembleField(
                f"[{section}] ensemble field {key!r} is not {kind}: {raw!r}"
            ) from None

    trend = ensemble_number("ensemble_trend", float)
    inter_model_sd = ensemble_number("ensemble_sd", float)
    n_models = ensemble_number("n_models", int, "an integer")
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
