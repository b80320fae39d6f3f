"""In-process harness: one fresh interpreter imports trendsig, builds a
workload's inputs, then runs the workload's operation in a closed loop.

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Set-up is ``import trendsig`` plus generating and writing the inputs.  When
it is done the worker prints one JSON line with its duration and the
calibration samples around it (``calib.py``), and with ``--setup-only``
exits there.  Otherwise it then prints one JSON line with every operation's
wall time and output; the parent (``run.py``) checks those outputs against
the reference.

Each operation is bracketed by a calibration sample (``calib.py``).  With
``--trace 1`` every second operation runs under the tracer, so the untraced
ones in between give the tracing overhead under the same load.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import calib


def _registry_workload(trendsig, inputs, seed: int, workdir: Path):
    path = inputs.archive_registry(seed).write(workdir, "archive")

    def run(_):
        datasets, comparisons = trendsig.ingest.read_registry(path)
        by_id = {d.id: d for d in datasets}
        rows = [trendsig.report.run_comparison(c, by_id) for c in comparisons]
        text = trendsig.report.render(rows, "text")
        return dict(text=text, csv=trendsig.report.render(rows, "csv"), units=len(rows))

    return (lambda i: None), run


def _mc_workload(trendsig, inputs, seed: int, workdir: Path):
    cfg = inputs.MC
    ens = trendsig.EnsembleStats(cfg["ens_trend"], cfg["ens_sd"], cfg["n_models"])

    def prepare(i):
        return trendsig.Ar1Spec(
            phi=cfg["phi"], sigma_innov=cfg["sigma"], trend_per_decade=cfg["ens_trend"],
            n=cfg["n"], seed=inputs.mc_spec_seed(seed, i),
        )

    def run(spec):
        res = trendsig.mc.size_power(
            spec, ens, reps=cfg["reps"], alpha=cfg["alpha"], trend_gaps=cfg["gaps"]
        )
        return dict(
            seed=spec.seed, size=res.size, power=[list(p) for p in res.power_curve],
            units=cfg["reps"] * (1 + len(res.power_curve)),
        )

    return prepare, run


def _cli_setup(trendsig, inputs, seed: int, workdir: Path):
    inputs.write_cli_inputs(inputs.cli_inputs(seed), workdir)
    return None, None


WORKLOADS = {
    "cli_oneshot": _cli_setup,
    "mc_size_power": _mc_workload,
    "registry_archive": _registry_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    before_ms = calib.sample_ms()
    t0 = perf_counter()
    import trendsig
    import inputs

    prepare, run = WORKLOADS[args.workload](trendsig, inputs, args.seed, args.workdir)
    setup_s = perf_counter() - t0
    kernel_ms = calib.sample_ms()
    print(json.dumps(dict(setup_s=setup_s, kernel_ms=(before_ms + kernel_ms) / 2)), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = []
    start = perf_counter()
    i = 0
    while True:
        arg = prepare(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            out, error = (tracer.span("op", run, arg) if traced else run(arg)), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if traced:
            tracer.remove()
            if args.workload == "mc_size_power":
                # computed from the noise matrix's shape, not measured
                tracer.count("mc.noise_bytes_computed", inputs.MC["reps"] * arg.n * 8)
        after_ms = calib.sample_ms()
        ops.append(dict(
            ms=1e3 * (t1 - t0), kernel_ms=(kernel_ms + after_ms) / 2,
            traced=traced, out=out, error=error,
        ))
        kernel_ms = after_ms
        i += 1
        if t1 - start >= args.seconds:
            break

    result = dict(ops=ops, rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.save(args.workdir / "spans.npz")
        result.update(spans=tracer.summary(), counters=tracer.counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
