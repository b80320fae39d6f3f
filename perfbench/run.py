"""Layered benchmark of trendsig: CLI cold start, Monte Carlo throughput and
registry runs, with a per-module traced split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
workload runs closed-loop with one client for ``S`` seconds on inputs made
from seed ``N``, every output is checked against an independent reference
(``reference.py``), and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones.  A record of the run, with the environment, goes to
``perfbench/out/results/``; see ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import inputs
import reference
from tracer import layer_metrics, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli_oneshot", "mc_size_power", "registry_archive")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CLI_KINDS = ("fit", "compare", "lapse", "input_error")


def child_env() -> dict[str, str]:
    """The caller's environment with ``src/`` first on the import path.

    BLAS threading variables are passed on as found, never set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@contextlib.contextmanager
def one_cpu():
    """Keep this process and the children it starts on one CPU meanwhile.

    The CPUs change speed independently, so a calibration sample taken
    here only tracks a child's speed if both run on the same CPU.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def median(values):
    return statistics.median(values) if values else 0.0


def p75(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


# ------------------------------------------------------------------ set-up


def start_worker(args, workdir: Path, setup_only: bool):
    """Start a worker and wait for its set-up sample: (seconds, kernel ms)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = json.loads(proc.stdout.readline())
    except json.JSONDecodeError:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} worker failed during set-up")
    return proc, (ready["setup_s"], ready["kernel_ms"])


def setup_probe(args, workdir: Path) -> tuple[float, float]:
    """One set-up in a fresh worker: (seconds, calibration kernel ms)."""
    proc, setup = start_worker(args, workdir, setup_only=True)
    proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit("perfbench: set-up probe failed")
    return setup


# ------------------------------------------------------------- import time


def parse_importtime(text: str) -> dict[str, float]:
    """``import.*`` metrics from ``python -X importtime`` output, in ms.

    A module's figure is the cumulative time on its own line: what loading
    it cost given the modules already loaded before it.  A module that is
    not imported reads 0.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        rows.append((int(self_us), int(cum_us), name.strip()))
    cum = {name: c for _, c, name in rows}
    own = sum(s for s, _, name in rows if name.split(".")[0] == "trendsig")
    return {
        "import.total_ms": cum.get("trendsig", 0) / 1e3,
        "import.numpy_ms": cum.get("numpy", 0) / 1e3,
        "import.scipy_special_ms": cum.get("scipy.special", 0) / 1e3,
        "import.scipy_signal_ms": cum.get("scipy.signal", 0) / 1e3,
        "import.trendsig_self_ms": own / 1e3,
    }


def import_sample() -> dict[str, float]:
    """Rescaled ``import.*`` metrics from one fresh interpreter."""
    before = calib.sample_ms()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import trendsig"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    kernel_ms = (before + calib.sample_ms()) / 2
    return {k: calib.rescale(v, kernel_ms) for k, v in parse_importtime(proc.stderr).items()}


def import_breakdown() -> dict[str, float]:
    """Median ``import.*`` metrics over fresh interpreters."""
    with one_cpu():
        samples = [import_sample() for _ in range(IMPORT_SAMPLES)]
    return {k: median([s[k] for s in samples]) for k in samples[0]}


# ------------------------------------------------------------- cli_oneshot


def invoke(cmd: list[str], workdir: Path):
    """Run one command to completion: (ms, exit code, stdout, stderr, max RSS KiB)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        ms = 1e3 * (perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        ms, proc.returncode, out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"), usage.ru_maxrss,
    )


def run_cli(args, workdir: Path):
    """Sequential one-shot CLI invocations, cycling through the four commands.

    Only whole cycles run, so every command has the same share of the
    samples; a cycle starts only if it is expected to end within the time.
    With tracing, each command runs once plain and once under the tracer.
    Each invocation is bracketed by calibration samples.
    """
    ci = inputs.cli_inputs(args.seed)
    compare_refs = reference.registry_rows(ci.registry)
    lapse_refs = [
        reference.lapse_row(ci.lapse_surface, ci.lapse_troposphere, ci.lapse_ensemble)
    ]
    rel = workdir.relative_to(ROOT)
    spans_dir = workdir / "cli_spans"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)

    def problems(kind, rec, code, out, err):
        if kind == "input_error":
            ok = code == 1 and out == "" and err.startswith("error: ") and "absent.csv" in err
            return [] if ok else [f"input error: exit {code}, stderr {err!r}"]
        if code != 0:
            return [f"{kind}: exit {code}, stderr {err!r}"]
        if kind == "fit":
            return reference.check_fit_stdout(out, rec)
        return reference.check_text_table(out, compare_refs if kind == "compare" else lapse_refs)

    ops = []
    kernel_ms = calib.sample_ms()
    start = perf_counter()
    cycle = 0
    while True:
        for kind, argv, rec in inputs.cli_commands(ci, rel, cycle):
            for traced in (False, True) if args.trace else (False,):
                if traced:
                    spans = spans_dir / f"{len(ops)}.json"
                    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
                else:
                    spans = None
                    cmd = [sys.executable, "-m", "trendsig", *argv]
                ms, code, out, err, rss = invoke(cmd, workdir)
                after_ms = calib.sample_ms()
                ops.append(dict(
                    kind=kind, ms=ms, kernel_ms=(kernel_ms + after_ms) / 2,
                    rss_kb=rss, traced=traced, spans=spans,
                    problems=problems(kind, rec, code, out, err),
                ))
                kernel_ms = after_ms
        cycle += 1
        elapsed = perf_counter() - start
        if elapsed * (cycle + 1) / cycle > args.seconds:
            return ops


# --------------------------------------------------------- in-process runs


def run_worker(args, workdir: Path):
    """Run the in-process workload in a worker and check every output.

    Returns the worker's result and its set-up sample (seconds, kernel ms).
    """
    proc, setup = start_worker(args, workdir, setup_only=False)
    text = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    result = json.loads(text.strip().splitlines()[-1])

    if args.workload == "registry_archive":
        refs = reference.registry_rows(inputs.archive_registry(args.seed))

        def check(out):
            return reference.check_text_table(out["text"], refs) + reference.check_csv_table(
                out["csv"], refs
            )
    else:
        check = reference.check_mc

    for op in result["ops"]:
        out = op.pop("out")
        op["problems"] = [op["error"]] if op["error"] else check(out)
        op["units"] = out["units"] if out and not op["problems"] else 0
    return result, setup


# ----------------------------------------------------------------- metrics


def rescaled_ms(ops) -> list[float]:
    return [calib.rescale(op["ms"], op["kernel_ms"]) for op in ops]


def end_to_end(ops, setups, rss_kb) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics (rescaled, see calib.py) and their raw values."""
    ms, raw_ms = rescaled_ms(ops), [op["ms"] for op in ops]
    units = sum(op["units"] for op in ops)
    metrics = {
        "op_p50_ms": median(ms),
        "op_p75_ms": p75(ms),
        "work_per_s": units / (sum(ms) / 1e3),
        "setup_s": median([calib.rescale(s, k) for s, k in setups]),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = {
        "op_p50_ms": median(raw_ms),
        "op_p75_ms": p75(raw_ms),
        "work_per_s": units / (sum(raw_ms) / 1e3),
        "setup_s": median([s for s, _ in setups]),
        "kernel_ms": median([op["kernel_ms"] for op in ops]),
    }
    return metrics, raw


def per_layer(ops, spans, counters) -> dict[str, float]:
    """Per-layer metrics; span times are rescaled by the traced operations'
    median calibration factor."""
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    metrics = import_breakdown()
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}_p50_ms"] = median(
            rescaled_ms([op for op in ops if op.get("kind") == kind])
        )
    factor = median([calib.REFERENCE_MS / op["kernel_ms"] for op in traced]) or 1.0
    layers = layer_metrics(spans, counters, max(len(traced), 1))
    metrics.update(
        {k: v * factor if k.endswith("_ms") or ".us_per_" in k else v for k, v in layers.items()}
    )
    metrics["trace.overhead_frac"] = (
        median(rescaled_ms(traced)) / median(rescaled_ms(plain)) - 1.0
        if traced and plain
        else 0.0
    )
    return metrics


def cli_spans(ops):
    """Merged span summaries and counters of the traced CLI invocations."""
    summaries, counters = [], {}
    for op in ops:
        if op["spans"] is not None and op["spans"].exists():
            data = json.loads(op["spans"].read_text(encoding="utf-8"))
            summaries.append(data["summary"])
            for key, value in data["counters"].items():
                counters[key] = counters.get(key, 0) + value
    return merge(summaries), counters


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return dict(
        seed=seed,
        commit=git_commit(),
        nproc=os.cpu_count(),
        cpu_affinity=len(os.sched_getaffinity(0)),
        cpu_model=cpu or platform.processor(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
    )


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trendsig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trendsig package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    # cli_oneshot set-up only writes the inputs; an in-process worker's own
    # set-up is one more sample.  A traced run reports no set-up time.
    cli = args.workload == "cli_oneshot"
    probes = (1 if cli else 0) if args.trace else SETUP_SAMPLES - (not cli)
    setups = []
    for _ in range(probes):
        setups.append(setup_probe(args, workdir))
    if cli:
        with one_cpu():
            ops = run_cli(args, workdir)
        rss_kb = max(op["rss_kb"] for op in ops)
        for op in ops:
            op["units"] = 0 if op["problems"] else 1
        spans, counters = cli_spans(ops) if args.trace else ({}, {})
    else:
        result, setup = run_worker(args, workdir)
        setups.append(setup)
        ops, rss_kb = result["ops"], result["rss_kb"]
        spans, counters = result.get("spans", {}), result.get("counters", {})

    if args.trace:
        metrics, raw = per_layer(ops, spans, counters), {}
    else:
        metrics, raw = end_to_end(ops, setups, rss_kb)
    failed = [op for op in ops if op["problems"]]
    env = environment(args.seed)
    record = dict(
        workload=args.workload, trace=args.trace, seconds=args.seconds, env=env,
        attempted=len(ops), failed=len(failed),
        failed_frac=len(failed) / len(ops), samples=len(ops),
        setup_samples=setups, metrics=metrics, raw=raw,
        calibration_reference_ms=calib.REFERENCE_MS,
        problems=[p for op in failed for p in op["problems"]][:20],
        op_samples=[[op["ms"], op["kernel_ms"]] for op in ops],
    )
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for problem in record["problems"]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(ops)} operations attempted, "
        f"{len(failed)} failed (failed_frac {record['failed_frac']:g}), "
        f"{len(setups)} set-ups"
    )
    print("env " + json.dumps(env))
    units = {m["name"]: m["unit"] for m in wanted}
    for name, unit in units.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}{extra}")
    print(json.dumps(dict(
        correct=not failed, attempted=len(ops), failed=len(failed),
        metrics={name: dict(value=metrics[name], unit=unit) for name, unit in units.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
