"""Command-line entry points.

One executable, four subcommands:

* ``fit`` - trend, SE, and autocorrelation diagnostics for one series file
* ``compare`` - run registry comparisons and print the result table
* ``lapse`` - one-off surface-minus-troposphere test without a registry
* ``simulate`` - Monte Carlo size/power table for the test itself

Exit codes: 0 on success, 1 for input problems (unreadable files, bad
flags, malformed registries), 2 for numerical failures (degenerate fits,
domain errors).

Help, usage errors and unreadable input files are answered without
importing numpy: each command imports its numeric modules only once it
holds the text of its first input file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ComputationError, InputError
from .textfile import read_text

if TYPE_CHECKING:
    from .series import MonthIndex
    from .sigtest import EnsembleStats

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


def _window(args) -> tuple[MonthIndex | None, MonthIndex | None]:
    """The ``--start``/``--end`` months; an absent flag leaves that end open."""
    from .series import MonthIndex

    start = None if args.start is None else MonthIndex.parse(args.start)
    end = None if args.end is None else MonthIndex.parse(args.end)
    return start, end


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start", metavar="YYYY:MM", help="first month to keep")
    parser.add_argument("--end", metavar="YYYY:MM", help="last month to keep")


def _gap_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad trend-gap list {text!r}") from None


def _cmd_fit(args) -> None:
    path = Path(args.series)
    text = read_text(path, "series")
    from .ingest import parse_series
    from .series import truncate
    from .trend import fit

    series = truncate(parse_series(text, path), *_window(args))
    result = fit(series)
    print(f"series: {series.name}")
    print(f"window: {series.first} to {series.last}")
    print(f"n: {result.n}")
    print(f"trend_per_decade: {result.slope_per_decade:.6g}")
    print(f"se_per_decade: {result.se_slope:.6g}")
    print(f"r1: {result.r1:.6g}")
    print(f"n_eff: {result.n_eff:.6g}")
    print(f"df: {result.df:.6g}")


def _cmd_compare(args) -> None:
    path = Path(args.registry)
    text = read_text(path, "registry")
    from .ingest import parse_registry
    from .report import render, run_comparisons

    datasets, comparisons = parse_registry(text, path)
    if args.spec:
        by_id = {c.spec_id: c for c in comparisons}
        missing = [s for s in args.spec if s not in by_id]
        if missing:
            raise InputError(
                f"registry {args.registry} has no comparison(s) {missing}"
            )
        comparisons = [by_id[s] for s in args.spec]
    print(render(run_comparisons(comparisons, datasets), style=args.format), end="")


def _cmd_lapse(args) -> None:
    path = Path(args.surface)
    text = read_text(path, "series")
    from .ingest import parse_series, read_series
    from .report import comparison_row, render

    surface = parse_series(text, path)
    troposphere = read_series(args.troposphere)
    row = comparison_row(troposphere, _ensemble(args), _window(args), surface)
    print(render([row], style=args.format), end="")


def _cmd_simulate(args) -> None:
    from .mc import Ar1Spec, size_power
    from .report import size_power_csv

    spec = Ar1Spec(
        phi=args.phi,
        sigma_innov=args.sigma,
        trend_per_decade=args.ensemble_trend,
        n=args.n,
        seed=args.seed,
    )
    result = size_power(
        spec, _ensemble(args), args.reps, args.alpha, trend_gaps=args.trend_gaps
    )
    print(size_power_csv(spec, args.alpha, args.reps, result), end="")


def _add_ensemble_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--ensemble-trend",
        type=float,
        required=required,
        default=None if required else 0.0,
        help="ensemble-mean trend, deg C/decade",
    )
    parser.add_argument(
        "--ensemble-sd",
        type=float,
        required=required,
        default=None if required else 0.0,
        help="inter-model SD of ensemble trends",
    )
    parser.add_argument(
        "--n-models",
        type=int,
        required=required,
        default=None if required else 1,
        help="number of models in the ensemble",
    )


def _ensemble(args) -> EnsembleStats:
    from .sigtest import EnsembleStats

    return EnsembleStats(args.ensemble_trend, args.ensemble_sd, args.n_models)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trendsig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a trend to one monthly series")
    p_fit.add_argument("series", help="year,month,value CSV file")
    _add_window_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", help="run registered comparisons")
    p_cmp.add_argument("--registry", required=True, help="registry INI file")
    p_cmp.add_argument(
        "--spec",
        action="append",
        metavar="ID",
        help="comparison id to run (repeatable; default: all)",
    )
    p_cmp.add_argument("--format", choices=("text", "csv"), default="text")
    p_cmp.set_defaults(func=_cmd_compare)

    p_lapse = sub.add_parser(
        "lapse", help="test a surface-minus-troposphere difference trend"
    )
    p_lapse.add_argument("surface", help="surface series CSV")
    p_lapse.add_argument("troposphere", help="troposphere series CSV")
    _add_ensemble_flags(p_lapse, required=True)
    _add_window_flags(p_lapse)
    p_lapse.add_argument("--format", choices=("text", "csv"), default="text")
    p_lapse.set_defaults(func=_cmd_lapse)

    p_sim = sub.add_parser("simulate", help="estimate test size and power")
    p_sim.add_argument("--phi", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True, help="months per replicate")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument(
        "--trend-gaps",
        type=_gap_list,
        default=[],
        metavar="G1,G2,...",
        help="trend offsets (deg C/decade) for the power curve",
    )
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument(
        "--sigma", type=float, default=0.1, help="innovation SD (default 0.1)"
    )
    _add_ensemble_flags(p_sim, required=False)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
