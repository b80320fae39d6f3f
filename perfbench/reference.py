"""Independent reference results and the checks of the program's outputs.

The reference follows the definitions, not the package's code: OLS by
``numpy.linalg.lstsq`` on ``[1, month]``, lag-1 autocorrelation of the
residuals, ``n_eff = n (1 - r1) / (1 + r1)`` capped at ``n``,
``df = n_eff - 2``, d1* against ``scipy.stats.t.cdf``.  The one rule taken
from the package's documentation is that a fit whose residual sum of
squares is below ``1e-24`` of the total counts as exact (r1 = 0).

Printed numbers are compared to the precision they were printed with;
significance marks must match unless the reference p-value lies within
``1e-9`` of a mark threshold.  Each check returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.stats import t as student_t

import inputs

EXACT_FIT_RATIO = 1e-24
P_SLACK = 1e-9
MARK_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))
TEXT_HEADER = ["comparison", "ensemble", "observed", "d1*", "pctile", "significance"]
CSV_HEADER = (
    "surface,satellite,ensemble_trend,observed_trend,"
    "d1,percentile,two_sided,one_sided,best_effort"
)


# ----------------------------------------------------------------- statistics


def fits(months: np.ndarray, Y: np.ndarray) -> dict[str, np.ndarray]:
    """OLS trend diagnostics for every column of ``Y`` on a shared month axis."""
    x = np.asarray(months, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64).reshape(x.size, -1)
    n = x.size
    X = np.column_stack([np.ones(n), x])
    beta = np.linalg.lstsq(X, Y, rcond=None)[0]
    resid = Y - X @ beta
    ss_res = (resid * resid).sum(axis=0)
    dev = Y - Y.mean(axis=0)
    ss_tot = (dev * dev).sum(axis=0)
    c = resid - resid.mean(axis=0)
    denom = (c * c).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r1 = np.where(denom > 0, (c[:-1] * c[1:]).sum(axis=0) / denom, 0.0)
    exact = (ss_tot == 0) | (ss_res <= EXACT_FIT_RATIO * ss_tot)
    r1 = np.where(exact, 0.0, np.clip(r1, -1 + 1e-15, 1 - 1e-15))
    n_eff = np.minimum(n * (1 - r1) / (1 + r1), n)
    df = n_eff - 2
    sxx = ((x - x.mean()) ** 2).sum()
    with np.errstate(invalid="ignore"):
        se = 120.0 * np.sqrt(ss_res / df / sxx)
    return dict(n=n, slope=120.0 * beta[1], se=se, r1=r1, n_eff=n_eff, df=df)


def p_two_sided(ens_trend, ens_sd, n_models, slope, se, df):
    """d1* and its two-sided p-value and t-CDF under Student-t(df)."""
    d1 = (ens_trend - slope) / np.sqrt(ens_sd**2 / n_models + se**2)
    cdf = student_t.cdf(d1, df)
    return d1, 2.0 * np.minimum(cdf, 1.0 - cdf), cdf


def marks(p: float) -> str:
    for level, mark in MARK_LEVELS:
        if p <= level:
            return mark
    return "-"


def marks_ok(printed: str, p: float) -> bool:
    return printed in {marks(p * (1 - P_SLACK)), marks(p * (1 + P_SLACK))}


# --------------------------------------------------------------- comparisons


def window(months, values, start: int, end: int):
    keep = (months >= start) & (months <= end)
    return months[keep], values[keep]


def difference(surface: inputs.Record, troposphere: inputs.Record):
    sm, sv = surface.present()
    tm, tv = troposphere.present()
    common, i, j = np.intersect1d(sm, tm, return_indices=True)
    return common, sv[i] - tv[j]


def row(label, surface, satellite, ens, months, values, best_effort=False) -> dict:
    """Reference table row for a fit of ``values`` tested against ``ens``."""
    ens_trend, ens_sd, n_models = ens
    f = fits(months, values)
    slope, se, df = f["slope"][0], f["se"][0], f["df"][0]
    if not df > 0:
        raise ValueError(f"{label}: reference fit has no degrees of freedom")
    d1, p2, cdf = p_two_sided(ens_trend, ens_sd, n_models, slope, se, df)
    return dict(
        label=label, surface=surface, satellite=satellite, ensemble=ens_trend,
        observed=slope, d1=float(d1), percentile=100.0 * float(cdf),
        p2=float(p2), best_effort=best_effort,
    )


def registry_rows(reg: inputs.Registry) -> list[dict]:
    by_id = reg.by_id()
    rows = []
    for c in reg.comparisons:
        sat = by_id[c.satellite]
        ens = (c.ens_trend, c.ens_sd, c.n_models)
        if c.surface is None:
            months, values = sat.record.present()
            label, surf_id, used = sat.id, None, [sat]
        else:
            surf = by_id[c.surface]
            months, values = difference(surf.record, sat.record)
            label, surf_id, used = f"{surf.id}-minus-{sat.id}", surf.id, [sat, surf]
        months, values = window(months, values, c.start, c.end)
        best_effort = any(not d.notes for d in used)
        rows.append(row(label, surf_id, sat.id, ens, months, values, best_effort))
    return rows


def lapse_row(surface: inputs.Record, troposphere: inputs.Record, ens) -> dict:
    months, values = difference(surface, troposphere)
    label = f"{surface.name}-minus-{troposphere.name}"
    return row(label, surface.name, troposphere.name, ens, months, values)


# ---------------------------------------------------------- printed numbers


def near_fixed(text: str, ref: float, decimals: int) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return abs(value - ref) <= 0.5 * 10.0**-decimals + 1e-9


def near_sig(text: str, ref: float, digits: int = 6) -> bool:
    """``text`` is ``ref`` printed with ``digits`` significant digits (%g)."""
    try:
        value = float(text)
    except ValueError:
        return False
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - digits + 1)
    return abs(value - ref) <= 0.5 * unit * (1 + 1e-9) + abs(ref) * 1e-12


def _row_problems(where: str, cells: dict, ref: dict) -> list[str]:
    problems = []
    for key, decimals in (("ensemble", 3), ("observed", 3), ("d1", 2), ("percentile", 1)):
        if not near_fixed(cells[key], ref[key], decimals):
            problems.append(f"{where}: {key} {cells[key]} != {ref[key]:.6f}")
    for key, p in (("two", ref["p2"]), ("one", 0.5 * ref["p2"])):
        if not marks_ok(cells[key], p):
            problems.append(f"{where}: {key}-sided mark {cells[key]!r} at p={p:.6g}")
    if cells["best_effort"] != ref["best_effort"]:
        problems.append(f"{where}: best-effort flag {cells['best_effort']}")
    return problems


def check_text_table(text: str, refs: list[dict]) -> list[str]:
    lines = text.split("\n")
    if lines[0].split() != TEXT_HEADER:
        return [f"text table header {lines[0]!r}"]
    body = lines[1 : 1 + len(refs)]
    if len(lines) < 3 + len(refs) or lines[1 + len(refs)] != "":
        return [f"text table has wrong row count for {len(refs)} comparisons"]
    problems = []
    for line, ref in zip(body, refs):
        tok = line.split()
        flagged = bool(tok) and tok[-1] == "[best-effort]"
        tok = tok[:-1] if flagged else tok
        if len(tok) != 7 or tok[0] != ref["label"] or not tok[6].startswith("("):
            problems.append(f"text row {line!r} for {ref['label']}")
            continue
        cells = dict(
            ensemble=tok[1], observed=tok[2], d1=tok[3], percentile=tok[4],
            two=tok[5], one=tok[6][1:-1], best_effort=flagged,
        )
        problems += _row_problems(f"text {ref['label']}", cells, ref)
    tail = "\n".join(lines[2 + len(refs) :])
    if "Significance marks" not in tail:
        problems.append("text table lacks the legend")
    if ("[best-effort]:" in tail) != any(r["best_effort"] for r in refs):
        problems.append("text table best-effort note does not match its rows")
    return problems


def check_csv_table(text: str, refs: list[dict]) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        return ["csv header"]
    if len(rows) != 1 + len(refs):
        return [f"csv has {len(rows) - 1} rows for {len(refs)} comparisons"]
    problems = []
    for r, ref in zip(rows[1:], refs):
        if len(r) != 9 or r[0] != (ref["surface"] or "") or r[1] != ref["satellite"]:
            problems.append(f"csv row {r} for {ref['label']}")
            continue
        cells = dict(
            ensemble=r[2], observed=r[3], d1=r[4], percentile=r[5],
            two=r[6], one=r[7], best_effort=r[8] == "1",
        )
        problems += _row_problems(f"csv {ref['label']}", cells, ref)
    return problems


def check_fit_stdout(text: str, rec: inputs.Record) -> list[str]:
    months, values = rec.present()
    f = fits(months, values)
    expected = [
        ("series", rec.name),
        ("window", f"{inputs.month_text(months[0])} to {inputs.month_text(months[-1])}"),
        ("n", str(f["n"])),
    ]
    numeric = [
        ("trend_per_decade", f["slope"][0]), ("se_per_decade", f["se"][0]),
        ("r1", f["r1"][0]), ("n_eff", f["n_eff"][0]), ("df", f["df"][0]),
    ]
    lines = text.rstrip("\n").split("\n")
    if len(lines) != len(expected) + len(numeric):
        return [f"fit printed {len(lines)} lines"]
    problems = []
    for line, (key, want) in zip(lines, expected + numeric):
        k, sep, v = line.partition(": ")
        ok = k == key and sep and (v == want if isinstance(want, str) else near_sig(v, want))
        if not ok:
            problems.append(f"fit {rec.name}: {line!r}, want {key} {want}")
    return problems


# -------------------------------------------------------------- Monte Carlo


def mc_noise(seed: int, reps: int, n: int, phi: float, sigma: float) -> np.ndarray:
    """The noise contract of trendsig.mc: row k is replicate k."""
    y = np.random.default_rng(seed).standard_normal((reps, n))
    scale = np.full(n, sigma)
    if phi != 0.0:
        scale[0] = sigma / math.sqrt(1.0 - phi * phi)
    y *= scale
    for t in range(1, n):
        y[:, t] += phi * y[:, t - 1]
    return y


def mc_rejections(seed: int) -> list[tuple[int, int]]:
    """(rejections, undecided) for the null and each gap of one size_power call.

    A replicate is undecided when its p-value lies within ``P_SLACK`` of
    alpha, where summation order alone could flip the verdict.
    """
    cfg = inputs.MC
    n, reps = cfg["n"], cfg["reps"]
    noise = mc_noise(seed, reps, n, cfg["phi"], cfg["sigma"])
    ramp = np.arange(n, dtype=np.float64)
    months = inputs.ordinal(1979, 1) + ramp
    out = []
    for gap in (0.0,) + tuple(cfg["gaps"]):
        true_trend = cfg["ens_trend"] + gap
        f = fits(months, (noise + (true_trend / 120.0) * ramp).T)
        if not np.all(f["df"] > 0):
            raise ValueError(f"seed {seed}: a replicate has no degrees of freedom")
        _, p2, _ = p_two_sided(
            cfg["ens_trend"], cfg["ens_sd"], cfg["n_models"], f["slope"], f["se"], f["df"]
        )
        undecided = int(np.count_nonzero(np.abs(p2 - cfg["alpha"]) <= P_SLACK))
        out.append((int(np.count_nonzero(p2 <= cfg["alpha"])), undecided))
    return out


def check_mc(result: dict) -> list[str]:
    """``result`` holds the op's ``seed``, ``size`` and ``power`` [(gap, rate)]."""
    reps = inputs.MC["reps"]
    gaps = [g for g, _ in result["power"]]
    if gaps != list(inputs.MC["gaps"]):
        return [f"seed {result['seed']}: power curve gaps {gaps}"]
    rates = [result["size"]] + [r for _, r in result["power"]]
    problems = []
    for gap, rate, (want, undecided) in zip(
        (0.0,) + tuple(gaps), rates, mc_rejections(result["seed"])
    ):
        got = rate * reps
        if abs(got - round(got)) > 1e-6 or abs(round(got) - want) > undecided:
            problems.append(
                f"seed {result['seed']} gap {gap}: {got:g} rejections, reference {want}"
            )
    return problems
