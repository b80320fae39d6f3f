import csv
import io
import subprocess
import sys
from pathlib import Path

import pytest

from trendsig.cli import main

PINNED_DIR = Path(__file__).parent / "data" / "cli"
LAPSE_PAIR = ("--ensemble-trend", "-0.069", "--ensemble-sd", "0.05", "--n-models", "19")
SURF_SAT = ("{d}/surf_a.csv", "{d}/sat_a.csv")

# Full stdout of these runs on the conftest fixtures, by file name under
# PINNED_DIR, recorded before `compare` and `lapse` shared one pipeline.
# "{d}" stands for the fixture directory.
PINNED = {
    "compare.txt": ("compare", "--registry", "{d}/registry.ini"),
    "compare.csv": ("compare", "--registry", "{d}/registry.ini", "--format", "csv"),
    "compare_lapse_pair.csv": (
        "compare", "--registry", "{d}/registry.ini",
        "--spec", "lapse_pair", "--format", "csv",
    ),
    "lapse.txt": ("lapse", *SURF_SAT, *LAPSE_PAIR),
    "lapse_start.csv": (
        "lapse", *SURF_SAT, *LAPSE_PAIR, "--start", "1995:01", "--format", "csv"
    ),
    "lapse_end.csv": (
        "lapse", *SURF_SAT, *LAPSE_PAIR, "--end", "1999:12", "--format", "csv"
    ),
    "fit_window.txt": (
        "fit", "{d}/sat_a.csv", "--start", "1979:01", "--end", "1999:12"
    ),
}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "trendsig", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_fit_reports_trend_and_dof_fields(fixture_dir):
    result = run_cli(
        "fit", str(fixture_dir / "sat_a.csv"), "--start", "1979:01", "--end", "1999:12"
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "series: sat_a" in out
    assert "window: 1979:01 to 1999:12" in out
    assert "n: 252" in out
    for field in ("trend_per_decade:", "se_per_decade:", "r1:", "n_eff:", "df:"):
        assert field in out


def test_fit_on_noise_free_line(fixture_dir):
    result = run_cli("fit", str(fixture_dir / "line051.csv"))
    assert result.returncode == 0
    assert "trend_per_decade: 0.051" in result.stdout


def test_fit_missing_file_is_input_error(tmp_path):
    result = run_cli("fit", str(tmp_path / "absent.csv"))
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_fit_underdetermined_series_is_numerical_error(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1979,1,0.1\n1979,2,0.2\n", encoding="utf-8")
    result = run_cli("fit", str(short))
    assert result.returncode == 2
    assert "error:" in result.stderr


THREE_1979 = "1979,1,0.1\n1979,2,0.2\n1979,3,0.3\n"
THREE_1990 = "1990,1,0.1\n1990,2,0.2\n1990,3,0.3\n"


@pytest.mark.parametrize(
    "files, argv",
    [
        # a file with only a header row, cut at its end only
        (
            {"header_only.csv": "year,month,value\n"},
            ("fit", "{d}/header_only.csv", "--end", "2000:01"),
        ),
        # two series without common months, cut at the start only
        (
            {"a.csv": THREE_1979, "b.csv": THREE_1990},
            ("lapse", "{d}/a.csv", "{d}/b.csv", *LAPSE_PAIR, "--start", "1979:01"),
        ),
        # an open window that starts after the data ends
        ({"a.csv": THREE_1979}, ("fit", "{d}/a.csv", "--start", "2020:01")),
    ],
)
def test_empty_open_window_is_numerical_error(tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = run_cli(*(arg.format(d=tmp_path) for arg in argv))
    assert result.returncode == 2
    assert result.stderr == "error: trend fit needs at least 3 points, got 0\n"


def test_compare_renders_all_registry_rows(fixture_dir):
    result = run_cli("compare", "--registry", str(fixture_dir / "registry.ini"))
    assert result.returncode == 0, result.stderr
    assert "SAT_A" in result.stdout
    assert "SURF_A-minus-SAT_A" in result.stdout
    assert "Significance marks" in result.stdout


def test_compare_csv_parses_cleanly(fixture_dir):
    result = run_cli(
        "compare", "--registry", str(fixture_dir / "registry.ini"), "--format", "csv"
    )
    assert result.returncode == 0
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0][0] == "surface"
    assert len(rows) == 4  # header + three comparisons


def test_compare_spec_filter(fixture_dir):
    result = run_cli(
        "compare",
        "--registry",
        str(fixture_dir / "registry.ini"),
        "--spec",
        "line_vs_ensemble",
        "--format",
        "csv",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2
    assert "LINE051" in lines[1]


def test_compare_unknown_spec_id(fixture_dir):
    result = run_cli(
        "compare", "--registry", str(fixture_dir / "registry.ini"), "--spec", "nope"
    )
    assert result.returncode == 1
    assert "nope" in result.stderr


def test_lapse_one_off(fixture_dir):
    result = run_cli(
        "lapse",
        str(fixture_dir / "surf_a.csv"),
        str(fixture_dir / "sat_a.csv"),
        "--ensemble-trend",
        "-0.069",
        "--ensemble-sd",
        "0.05",
        "--n-models",
        "19",
    )
    assert result.returncode == 0, result.stderr
    assert "surf_a-minus-sat_a" in result.stdout


def test_simulate_emits_csv(tmp_path):
    result = run_cli(
        "simulate",
        "--phi",
        "0.3",
        "--n",
        "40",
        "--reps",
        "1000",
        "--alpha",
        "0.05",
        "--trend-gaps",
        "0.0,0.5",
        "--seed",
        "5",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "phi,n,trend_gap,alpha,rejection_rate,reps,seed"
    assert len(lines) == 4  # size + two gaps
    size_rate = float(lines[1].split(",")[4])
    gap0_rate = float(lines[2].split(",")[4])
    assert size_rate == gap0_rate


def test_simulate_rejects_thin_sampling(tmp_path):
    result = run_cli(
        "simulate",
        "--phi",
        "0.3",
        "--n",
        "40",
        "--reps",
        "200",
        "--alpha",
        "0.05",
        "--seed",
        "5",
    )
    assert result.returncode == 1
    assert "1000" in result.stderr


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("simulate", "--phi", "x").returncode == 1


def test_simulate_names_the_degenerate_replicate():
    result = run_cli(
        "simulate", "--phi", "0.95", "--n", "12", "--reps", "1000",
        "--alpha", "0.05", "--seed", "3",
    )
    assert result.returncode == 2
    assert "replicate 375:" in result.stderr
    assert "leaves no degrees of freedom" in result.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sigma", "nan", "sigma_innov must be finite and >= 0, got nan"),
        ("--sigma", "inf", "sigma_innov must be finite and >= 0, got inf"),
        ("--trend-gaps", "nan", "trend gaps must be finite, got [nan]"),
        ("--trend-gaps", "0.1,inf", "trend gaps must be finite, got [0.1, inf]"),
        ("--phi", "1.5", "phi must satisfy |phi| < 1, got 1.5"),
        ("--n", "2", "need n >= 3 months, got 2"),
    ],
    ids=["sigma-nan", "sigma-inf", "gaps-nan", "gaps-inf", "phi-1.5", "n-2"],
)
def test_simulate_rejects_non_finite_inputs_up_front(flag, value, message):
    result = run_cli(
        "simulate", "--phi", "0.5", "--n", "60", "--reps", "1000",
        "--alpha", "0.05", "--seed", "1", flag, value,
    )
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


def test_undecodable_files_are_input_errors(fixture_dir, tmp_path):
    series = tmp_path / "wide.csv"
    series.write_bytes((fixture_dir / "sat_a.csv").read_text().encode("utf-16"))
    registry = tmp_path / "registry.ini"
    registry.write_bytes(b"[dataset:X]\nkind = satellite\npath = x.csv\nnotes = \xff\n")
    for args in (("fit", str(series)), ("compare", "--registry", str(registry))):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "line" in result.stderr and "not UTF-8 text" in result.stderr


def test_compare_non_finite_ensemble_is_input_error(fixture_dir, tmp_path):
    registry = (fixture_dir / "registry.ini").read_text(encoding="utf-8")
    bad = tmp_path / "registry.ini"
    bad.write_text(
        registry.replace("path = ", f"path = {fixture_dir}/").replace(
            "ensemble_trend = 0.215", "ensemble_trend = nan", 1
        ),
        encoding="utf-8",
    )
    result = run_cli("compare", "--registry", str(bad))
    assert result.returncode == 1
    assert "[comparison:sat_trend]" in result.stderr
    assert "finite" in result.stderr


def test_import_and_fit_load_no_scipy(fixture_dir):
    probe = (
        "import sys\n"
        "import trendsig\n"
        "from trendsig.cli import main\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        f"assert main(['fit', {str(fixture_dir / 'sat_a.csv')!r}]) == 0\n"
        "assert main(['fit', 'no-such-file.csv']) == 1\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output(fixture_dir, capsys, name):
    assert main([arg.format(d=fixture_dir) for arg in PINNED[name]]) == 0
    assert capsys.readouterr().out == (PINNED_DIR / name).read_text(encoding="utf-8")


def test_lapse_matches_registry_lapse_row(fixture_dir, capsys):
    surf_sat = [arg.format(d=fixture_dir) for arg in SURF_SAT]
    window = ["--start", "1979:01", "--end", "2009:06"]
    assert main(["lapse", *surf_sat, *LAPSE_PAIR, *window, "--format", "csv"]) == 0
    lapse = capsys.readouterr().out.splitlines()[1].split(",")
    argv = [arg.format(d=fixture_dir) for arg in PINNED["compare_lapse_pair.csv"]]
    assert main(argv) == 0
    registry = capsys.readouterr().out.splitlines()[1].split(",")
    assert lapse[:2] == ["surf_a", "sat_a"]
    assert registry[:2] == ["SURF_A", "SAT_A"]
    # ensemble, observed, d1*, percentile, two- and one-sided marks
    assert lapse[2:8] == registry[2:8]
