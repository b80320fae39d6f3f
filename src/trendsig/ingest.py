"""Reading series files and the comparison registry.

Series format: UTF-8 CSV with columns ``year,month,value``; a leading
byte-order mark is ignored.  The first row is a header only if its first
field does not parse as a number, so ``1979.0,1,0.1`` is a parse error.
A value field of ``NA`` or an empty field marks a missing month and the
row is skipped.  Months must appear in increasing order with no repeats.

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
            if value_s in _MISSING_VALUES:
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


def write_series(s: MonthlySeries, path) -> None:
    """Write a series as ``year,month,value`` CSV with a header row.

    Values use shortest round-trip float formatting, so a file written by
    this function reads back as an identical series.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", "month", "value"])
        for idx, value in s.points:
            writer.writerow([idx.year, idx.month, repr(value)])


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
