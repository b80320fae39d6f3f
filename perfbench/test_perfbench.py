"""Tests of the benchmark's own machinery: the output checker accepts the
package's real outputs and rejects planted wrong answers; the tracer's
self-time arithmetic and patching; the import-time parser.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import trendsig  # noqa: E402
import trendsig.cli  # noqa: E402
from tracer import Tracer, layer_metrics, summarize  # noqa: E402


def _table_outputs(tmp_path, seed=5):
    reg = inputs.archive_registry(seed)
    datasets, comparisons = trendsig.read_registry(reg.write(tmp_path, "archive"))
    rows = [trendsig.run_comparison(c, datasets) for c in comparisons]
    refs = reference.registry_rows(reg)
    return trendsig.render(rows, "text"), trendsig.render(rows, "csv"), refs


def _replace_cell(line: str, index: int, new: str) -> str:
    tokens = line.split()
    tokens[index] = new
    return "  ".join(tokens)


def test_registry_outputs_pass(tmp_path):
    text, csv_text, refs = _table_outputs(tmp_path)
    assert len(refs) == 24
    assert reference.check_text_table(text, refs) == []
    assert reference.check_csv_table(csv_text, refs) == []


@pytest.mark.parametrize(
    "plant",
    [
        lambda tok: (2, f"{float(tok[2]) + 0.002:.3f}"),  # observed trend
        lambda tok: (3, f"{float(tok[3]) - 0.02:.2f}"),  # d1*
        lambda tok: (4, f"{float(tok[4]) + 0.2:.1f}"),  # percentile
        lambda tok: (5, "***" if tok[5] != "***" else "-"),  # two-sided mark
    ],
)
def test_text_checker_rejects_planted_cell(tmp_path, plant):
    text, _, refs = _table_outputs(tmp_path)
    lines = text.split("\n")
    index, new = plant(lines[3].split())
    lines[3] = _replace_cell(lines[3], index, new)
    assert reference.check_text_table("\n".join(lines), refs)


def test_text_checker_rejects_lost_row_and_flag(tmp_path):
    text, _, refs = _table_outputs(tmp_path)
    lines = text.split("\n")
    assert reference.check_text_table("\n".join(lines[:2] + lines[3:]), refs)
    flagged = next(i for i, line in enumerate(lines) if line.endswith("[best-effort]"))
    lines[flagged] = lines[flagged].replace("[best-effort]", "")
    assert reference.check_text_table("\n".join(lines), refs)


def test_csv_checker_rejects_planted_cell(tmp_path):
    _, csv_text, refs = _table_outputs(tmp_path)
    lines = csv_text.split("\n")
    cells = lines[1].split(",")
    cells[3] = f"{float(cells[3]) + 0.001:.3f}"
    lines[1] = ",".join(cells)
    assert reference.check_csv_table("\n".join(lines), refs)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = trendsig.cli.main(argv)
    return code, buf.getvalue()


def test_cli_outputs_pass_and_planted_fit_fails(tmp_path):
    ci = inputs.cli_inputs(7)
    inputs.write_cli_inputs(ci, tmp_path)
    refs = reference.registry_rows(ci.registry)
    lapse = [reference.lapse_row(ci.lapse_surface, ci.lapse_troposphere, ci.lapse_ensemble)]
    expected = {"compare": refs, "lapse": lapse}
    for kind, argv, rec in inputs.cli_commands(ci, tmp_path, 0)[:3]:
        code, out = _cli(argv)
        assert code == 0
        if kind == "fit":
            assert reference.check_fit_stdout(out, rec) == []
            digits = out.split("trend_per_decade: ")[1].split("\n")[0]
            wrong = out.replace(digits, f"{float(digits) * 1.0001:.6g}")
            assert reference.check_fit_stdout(wrong, rec)
            assert reference.check_fit_stdout(out.replace("n: 366", "n: 365"), rec)
        else:
            assert reference.check_text_table(out, expected[kind]) == []


def test_mc_checker_accepts_real_result_and_rejects_planted_count():
    cfg = inputs.MC
    seed = inputs.mc_spec_seed(3, 0)
    spec = trendsig.Ar1Spec(cfg["phi"], cfg["sigma"], cfg["ens_trend"], cfg["n"], seed)
    ens = trendsig.EnsembleStats(cfg["ens_trend"], cfg["ens_sd"], cfg["n_models"])
    res = trendsig.size_power(spec, ens, cfg["reps"], cfg["alpha"], cfg["gaps"])
    assert all(0.2 < rate < 0.9 for _, rate in res.power_curve)
    result = dict(seed=seed, size=res.size, power=[list(p) for p in res.power_curve])
    assert reference.check_mc(result) == []
    result["power"][1][1] += 1 / cfg["reps"]
    assert reference.check_mc(result)


def test_reference_noise_follows_the_documented_contract():
    """Prefix determinism: replicate k depends only on (seed, k, n)."""
    small = reference.mc_noise(11, 3, 60, 0.4, 0.1)
    large = reference.mc_noise(11, 7, 60, 0.4, 0.1)
    assert np.array_equal(small, large[:3])


def test_inputs_depend_only_on_seed():
    a, b = inputs.archive_registry(9), inputs.archive_registry(9)
    assert a.ini_text() == b.ini_text()
    assert a.datasets[0].record.csv_text() == b.datasets[0].record.csv_text()
    assert inputs.archive_registry(10).ini_text() != a.ini_text()


def test_self_time_subtracts_direct_children():
    # op [0, 10] > fit [1, 4] > t_cdf [2, 3];  op > fit [5, 9]
    names = ["op", "trend.fit", "sigtest.t_cdf"]
    spans = dict(
        name=np.array([0, 1, 2, 1]),
        parent=np.array([-1, 0, 1, 0]),
        start=np.array([0.0, 1.0, 2.0, 5.0]),
        end=np.array([10.0, 4.0, 3.0, 9.0]),
    )
    summary = summarize(names, spans)
    assert summary["op"] == dict(calls=1, total_s=10.0, self_s=3.0)
    assert summary["trend.fit"] == dict(calls=2, total_s=7.0, self_s=6.0)
    assert summary["sigtest.t_cdf"]["self_s"] == 1.0
    metrics = layer_metrics(summary, {"trend.fit.points": 720}, ops=2)
    assert metrics["trend.fit.calls"] == 1.0
    assert metrics["trend.fit.self_ms"] == 3000.0
    assert metrics["trend.fit.points"] == 360.0
    assert metrics["ingest.read_series.us_per_row"] == 0.0


def test_tracer_wraps_lookups_and_restores_them(tmp_path):
    original = trendsig.mc.fit
    tracer = Tracer()
    tracer.install()
    try:
        assert trendsig.mc.fit is not original
        series = trendsig.MonthlySeries.from_start(
            "s", trendsig.MonthIndex(1979, 1), np.arange(12.0) ** 1.5
        )
        trendsig.mc.fit(series)
    finally:
        tracer.remove()
    assert trendsig.mc.fit is original
    summary = tracer.summary()
    assert summary["trend.fit"]["calls"] == 1
    assert summary["series.construct"]["calls"] == 1
    assert tracer.counters["trend.fit.points"] == 12
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert list(saved["names"]) == tracer.names


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2000 |      90000 |   numpy",
        "import time:      1000 |     300000 |     scipy.special",
        "import time:      4000 |     310000 |   trendsig.sigtest",
        "import time:       500 |     400000 | trendsig",
    ])
    got = run.parse_importtime(text)
    assert got == {
        "import.total_ms": 400.0,
        "import.numpy_ms": 90.0,
        "import.scipy_special_ms": 300.0,
        "import.scipy_signal_ms": 0.0,
        "import.trendsig_self_ms": 4.5,
    }
