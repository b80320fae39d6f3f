"""Deterministic benchmark inputs built from the workload seed.

Everything here uses numpy only, never trendsig: the checker in
``reference.py`` rebuilds the same records in memory from the same seed
and compares the program's outputs against them.

Months are ordinals ``12 * year + month``, as in ``trendsig.series``.  A
record is what its CSV file holds: every row the file lists, with NaN for a
row written as ``NA``.  Rows inside a multi-year gap are absent altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLI_MONTHS = 366  # 1979:01 .. 2009:06, the paper's satellite window

# size_power settings of the paper's regime; the two gaps give powers of
# about 0.35 and 0.70, strictly inside (0.2, 0.9).
MC = dict(
    phi=0.6,
    sigma=0.1,
    n=360,
    ens_trend=0.215,
    ens_sd=0.092,
    n_models=19,
    reps=1000,
    alpha=0.05,
    gaps=(0.045, 0.06),
)


def ordinal(year: int, month: int) -> int:
    return 12 * year + month


def month_text(o: int) -> str:
    year, rem = divmod(int(o) - 1, 12)
    return f"{year}:{rem + 1:02d}"


@dataclass(frozen=True)
class Record:
    """One series file: its stem, the month of every row, NaN for ``NA`` rows."""

    name: str
    months: np.ndarray
    values: np.ndarray

    def present(self) -> tuple[np.ndarray, np.ndarray]:
        """Months and values of the rows that carry a number."""
        keep = ~np.isnan(self.values)
        return self.months[keep], self.values[keep]

    def csv_text(self) -> str:
        lines = ["year,month,value"]
        for o, v in zip(self.months.tolist(), self.values.tolist()):
            year, rem = divmod(o - 1, 12)
            lines.append(f"{year},{rem + 1},{'NA' if v != v else repr(v)}")
        return "\n".join(lines) + "\n"


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) noise e[t] = phi * e[t-1] + eps[t]."""
    eps = rng.standard_normal(n) * sigma
    eps[0] /= np.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    acc = 0.0
    for t, e in enumerate(eps.tolist()):
        acc = phi * acc + e
        out[t] = acc
    return out


def ar1_record(
    rng: np.random.Generator,
    name: str,
    first: int,
    last: int,
    trend_per_decade: float,
    phi: float,
    sigma: float,
    na_frac: float = 0.0,
    gap: tuple[int, int] | None = None,
) -> Record:
    """Trend plus AR(1) noise on ``first..last``, values rounded to 3 decimals.

    ``na_frac`` of the rows are written as ``NA``; months in ``gap``
    (first, last inclusive) have no row at all.
    """
    months = np.arange(first, last + 1, dtype=np.int64)
    values = (trend_per_decade / 120.0) * (months - first) + _ar1(
        rng, months.size, phi, sigma
    )
    values = np.round(values, 3)
    values[rng.random(months.size) < na_frac] = np.nan
    if gap is not None:
        keep = (months < gap[0]) | (months > gap[1])
        months, values = months[keep], values[keep]
    return Record(name, months, values)


def line_record(name: str, slope_per_decade: float, first: int, n: int) -> Record:
    """Noise-free line on month ordinals, as ``make_line`` in tests/conftest.py."""
    months = first + np.arange(n, dtype=np.int64)
    return Record(name, months, (slope_per_decade / 120.0) * months + 0.2)


@dataclass(frozen=True)
class Dataset:
    id: str
    kind: str
    record: Record
    notes: str


@dataclass(frozen=True)
class Comparison:
    id: str
    satellite: str
    surface: str | None
    ens_trend: float
    ens_sd: float
    n_models: int
    start: int
    end: int

    @property
    def mode(self) -> str:
        return "trend" if self.surface is None else "lapse"


@dataclass(frozen=True)
class Registry:
    datasets: tuple[Dataset, ...]
    comparisons: tuple[Comparison, ...]

    def by_id(self) -> dict[str, Dataset]:
        return {d.id: d for d in self.datasets}

    def ini_text(self) -> str:
        parts = []
        for d in self.datasets:
            parts.append(
                f"[dataset:{d.id}]\nkind = {d.kind}\npath = {d.record.name}.csv\n"
                f"notes = {d.notes}\n"
            )
        for c in self.comparisons:
            surface = f"surface = {c.surface}\n" if c.surface else ""
            parts.append(
                f"[comparison:{c.id}]\nsatellite = {c.satellite}\n{surface}"
                f"mode = {c.mode}\nensemble_trend = {c.ens_trend!r}\n"
                f"ensemble_sd = {c.ens_sd!r}\nn_models = {c.n_models}\n"
                f"start = {month_text(c.start)}\nend = {month_text(c.end)}\n"
            )
        return "\n".join(parts)

    def write(self, directory: Path, stem: str) -> Path:
        for d in self.datasets:
            (directory / f"{d.record.name}.csv").write_text(
                d.record.csv_text(), encoding="utf-8"
            )
        path = directory / f"{stem}.ini"
        path.write_text(self.ini_text(), encoding="utf-8")
        return path


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------- cli_oneshot


@dataclass(frozen=True)
class CliInputs:
    fit_records: tuple[Record, ...]
    registry: Registry
    lapse_surface: Record
    lapse_troposphere: Record
    lapse_ensemble: tuple[float, float, int]


def cli_inputs(seed: int) -> CliInputs:
    rng = _rng(seed, 1)
    start = ordinal(1979, 1)
    last = start + CLI_MONTHS - 1

    def noisy(name: str) -> Record:
        return ar1_record(
            rng, name, start, last, rng.uniform(0.0, 0.3), 0.5, 0.1
        )

    fits = tuple(noisy(f"fit_{k}") for k in range(3))
    # Mirrors the registry of tests/conftest.py: a trend row, a lapse row
    # and a row on a noise-free line.
    sat, surf = noisy("sat_a"), noisy("surf_a")
    line = line_record("line051", 0.051, start, CLI_MONTHS)
    end = ordinal(2009, 6)
    registry = Registry(
        datasets=(
            Dataset("SAT_A", "satellite", sat, "synthetic"),
            Dataset("SURF_A", "surface_landocean", surf, "synthetic"),
            Dataset("LINE051", "satellite", line, "noise-free line"),
        ),
        comparisons=(
            Comparison("sat_trend", "SAT_A", None, 0.215, 0.092, 19, start, end),
            Comparison("lapse_pair", "SAT_A", "SURF_A", -0.069, 0.05, 19, start, end),
            Comparison("line_vs_ensemble", "LINE051", None, 0.215, 0.2, 19, start, end),
        ),
    )
    return CliInputs(
        fit_records=fits,
        registry=registry,
        lapse_surface=noisy("lapse_surface"),
        lapse_troposphere=noisy("lapse_troposphere"),
        lapse_ensemble=(-0.069, 0.051, 19),
    )


def write_cli_inputs(inputs: CliInputs, directory: Path) -> None:
    for rec in inputs.fit_records + (inputs.lapse_surface, inputs.lapse_troposphere):
        (directory / f"{rec.name}.csv").write_text(rec.csv_text(), encoding="utf-8")
    inputs.registry.write(directory, "registry")


def cli_commands(inputs: CliInputs, directory: Path, cycle: int):
    """The four commands of one cycle: (kind, argv, record(s) it reads)."""
    fit_rec = inputs.fit_records[cycle % len(inputs.fit_records)]
    ens_trend, ens_sd, n_models = inputs.lapse_ensemble
    d = str(directory)
    return [
        ("fit", ["fit", f"{d}/{fit_rec.name}.csv"], fit_rec),
        ("compare", ["compare", "--registry", f"{d}/registry.ini"], None),
        (
            "lapse",
            [
                "lapse",
                f"{d}/{inputs.lapse_surface.name}.csv",
                f"{d}/{inputs.lapse_troposphere.name}.csv",
                "--ensemble-trend", repr(ens_trend),
                "--ensemble-sd", repr(ens_sd),
                "--n-models", str(n_models),
            ],
            None,
        ),
        ("input_error", ["fit", f"{d}/absent.csv"], None),
    ]


# ---------------------------------------------------------- registry_archive


def archive_registry(seed: int) -> Registry:
    """About 24 comparisons over long surface records and satellite records.

    Surface records start in 1850 or 1880 and have scattered ``NA`` months
    plus one multi-year gap; satellite records cover 1979-2025.  Half the
    rows are lapse rows, and every window lies inside its data's coverage.
    """
    rng = _rng(seed, 2)
    end = ordinal(2025, 12)
    sat_start = ordinal(1979, 1)

    def surface(name: str, first_year: int) -> Record:
        gap_year = int(rng.integers(1890, 1940))
        gap_len = int(rng.integers(2, 5)) * 12
        g0 = ordinal(gap_year, int(rng.integers(1, 13)))
        return ar1_record(
            rng, name, ordinal(first_year, 1), end, rng.uniform(0.05, 0.09),
            0.6, 0.12, na_frac=0.01, gap=(g0, g0 + gap_len - 1),
        )

    def satellite(name: str) -> Record:
        return ar1_record(
            rng, name, sat_start, end, rng.uniform(0.1, 0.2), 0.6, 0.1, na_frac=0.005
        )

    datasets = (
        Dataset("SURF_H", "surface_landocean", surface("surf_h", 1850), "synthetic v1"),
        Dataset("SURF_G", "surface_landocean", surface("surf_g", 1880), "synthetic v1"),
        Dataset("SURF_O", "surface_ocean", surface("surf_o", 1850), ""),
        Dataset("SAT_U", "satellite", satellite("sat_u"), "synthetic v1"),
        Dataset("SAT_R", "satellite", satellite("sat_r"), "synthetic v1"),
        Dataset("SAT_S", "satellite", satellite("sat_s"), ""),
    )
    short_end = ordinal(2009, 6)
    comparisons = []

    def trend(sat: str, start: int, stop: int) -> None:
        comparisons.append(
            Comparison(
                f"trend_{len(comparisons)}", sat, None,
                round(rng.uniform(0.1, 0.3), 3), round(rng.uniform(0.05, 0.12), 3),
                int(rng.integers(15, 25)), start, stop,
            )
        )

    def lapse(surf: str, sat: str, start: int, stop: int) -> None:
        comparisons.append(
            Comparison(
                f"lapse_{len(comparisons)}", sat, surf,
                round(rng.uniform(-0.1, -0.03), 3), round(rng.uniform(0.03, 0.07), 3),
                int(rng.integers(15, 25)), start, stop,
            )
        )

    for sat in ("SAT_U", "SAT_R", "SAT_S"):
        trend(sat, sat_start, short_end)
        trend(sat, sat_start, end)
    for surf in ("SURF_H", "SURF_G", "SURF_O"):
        trend(surf, ordinal(1880, 1), end)
        trend(surf, ordinal(1900, 1), ordinal(1999, 12))
    for surf in ("SURF_H", "SURF_G", "SURF_O"):
        for sat in ("SAT_U", "SAT_R"):
            lapse(surf, sat, sat_start, short_end)
            lapse(surf, sat, sat_start, end)
    return Registry(datasets, tuple(comparisons))


# -------------------------------------------------------------- mc_size_power


def mc_spec_seed(seed: int, op: int) -> int:
    """Innovation-stream seed of operation ``op``: distinct for every op."""
    return int(np.random.SeedSequence([seed, 3, op]).generate_state(1)[0])
