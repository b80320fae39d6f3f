import csv
import io
import subprocess
import sys


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
    assert "replicate 375 at true trend 0.0:" in result.stderr
    assert "leaves no degrees of freedom" in result.stderr


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
