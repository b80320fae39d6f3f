import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import make_line
from hypothesis import given, settings
from hypothesis import strategies as st

from trendsig import MonthIndex, MonthlySeries, effective_n, fit, lag1_autocorr
from trendsig.errors import (
    DegenerateDesign,
    DomainError,
    EffectiveDfTooSmall,
    InputError,
    NonFiniteInput,
    TooFewPoints,
)
from trendsig.mc import Ar1Spec, generate_batch
from trendsig.trend import _EXACT_FIT_RATIO, MONTHS_PER_DECADE, TrendFit, fit_batch


# One slow cosine period over 24 months: residual r1 ~ 0.88, so n_eff ~ 1.5
# and the variance divisor would go nonpositive.
WAVE = np.cos(2 * np.pi * np.arange(24) / 24)


def ar1_series(phi, n, seed, sigma=0.1, trend=0.0):
    return generate_batch(Ar1Spec(phi, sigma, trend, n, seed=seed), 1)[0]


class TestFit:
    def test_exact_line_recovered(self):
        """value = 0.001*t + 0.2 over 1979:01-1999:12 fits back exactly."""
        months = MonthIndex(1979, 1).ordinal + np.arange(252)
        s = MonthlySeries("line", months, 0.001 * months + 0.2)
        f = fit(s)
        assert abs(f.slope_per_decade - 0.120) < 1e-12
        assert abs(f.intercept - 0.2) < 1e-9
        assert np.all(np.abs(f.residuals) < 1e-12)
        assert f.r1 == 0.0
        assert f.n_eff == 252.0
        assert f.se_slope < 1e-12

    def test_offset_changes_intercept_only(self):
        s = ar1_series(0.3, 240, seed=4)
        shifted = MonthlySeries(s.name, s.months, s.values + 5.0)
        f0, f1 = fit(s), fit(shifted)
        assert f1.slope_per_month == pytest.approx(f0.slope_per_month, rel=1e-12)
        assert f1.r1 == pytest.approx(f0.r1, rel=1e-12)
        assert f1.n_eff == pytest.approx(f0.n_eff, rel=1e-12)
        assert f1.se_slope == pytest.approx(f0.se_slope, rel=1e-12)
        assert f1.intercept == pytest.approx(f0.intercept + 5.0, abs=1e-9)

    def test_scaling_values_scales_slope_se_residuals(self):
        s = ar1_series(0.3, 240, seed=5)
        scaled = MonthlySeries(s.name, s.months, 3.0 * s.values)
        f0, f1 = fit(s), fit(scaled)
        assert f1.slope_per_decade == pytest.approx(3.0 * f0.slope_per_decade, rel=1e-12)
        assert f1.se_slope == pytest.approx(3.0 * f0.se_slope, rel=1e-12)
        assert np.allclose(f1.residuals, 3.0 * f0.residuals, rtol=1e-10, atol=1e-14)
        assert f1.r1 == pytest.approx(f0.r1, rel=1e-12)
        assert f1.n_eff == pytest.approx(f0.n_eff, rel=1e-12)

    def test_se_formula_wiring(self):
        """se^2 must equal [sum(e^2)/(n_eff-2)] / sum((x-xbar)^2) in decade units."""
        f = fit(ar1_series(0.5, 180, seed=6))
        s = ar1_series(0.5, 180, seed=6)
        x = s.months.astype(float)
        xc = x - x.mean()
        expected = 120.0 * np.sqrt(
            (f.residuals @ f.residuals) / (f.n_eff - 2.0) / (xc @ xc)
        )
        assert f.se_slope == pytest.approx(expected, rel=1e-12)

    def test_positive_r1_inflates_se_over_classical(self):
        f = fit(ar1_series(0.6, 366, seed=7))
        assert f.r1 > 0
        x = np.arange(366, dtype=float)
        xc = x - x.mean()
        classical = 120.0 * np.sqrt(
            (f.residuals @ f.residuals) / (f.n - 2.0) / (xc @ xc)
        )
        assert f.se_slope > classical

    def test_df_is_n_eff_minus_two(self):
        f = fit(ar1_series(0.4, 120, seed=8))
        assert f.df == f.n_eff - 2.0
        assert 0 < f.n_eff <= f.n

    def test_gap_leaves_hole_in_regressor(self):
        """Slope with a gap matches a plain least-squares solve on positions."""
        rng = np.random.default_rng(9)
        months = MonthIndex(1979, 1).ordinal + np.sort(
            rng.choice(48, size=30, replace=False)
        )
        values = 0.2 * months + rng.standard_normal(30)
        s = MonthlySeries("gappy", months, values)
        f = fit(s)
        slope, intercept = np.polyfit(months.astype(float), values, 1)
        assert f.slope_per_month == pytest.approx(slope, rel=1e-10)
        assert f.intercept == pytest.approx(intercept, rel=1e-10)

    def test_high_phi_residuals_estimate_their_autocorrelation(self):
        """phi = 0.5 at n = 5000: r1 near 0.5, n_eff near n/3 (tol 10%)."""
        f = fit(ar1_series(0.5, 5000, seed=10))
        assert f.r1 == pytest.approx(0.5, abs=0.05)
        assert f.n_eff == pytest.approx(5000 / 3, rel=0.10)

    def test_too_few_points(self):
        s = MonthlySeries.from_start("x", MonthIndex(1979, 1), [1.0, 2.0])
        with pytest.raises(TooFewPoints):
            fit(s)

    def test_non_finite_values(self):
        s = MonthlySeries.from_start("x", MonthIndex(1979, 1), [1.0, np.nan, 2.0])
        with pytest.raises(NonFiniteInput, match="series 'x'"):
            fit(s)

    def test_residuals_read_only(self):
        f = fit(ar1_series(0.3, 60, seed=3))
        assert f.residuals.shape == (60,)
        with pytest.raises(ValueError):
            f.residuals[0] = 1.0

    def test_runaway_autocorrelation_raises(self):
        s = MonthlySeries.from_start("wave", MonthIndex(1979, 1), WAVE)
        with pytest.raises(EffectiveDfTooSmall):
            fit(s)


class TestFitBatch:
    months = MonthIndex(1979, 1).ordinal + np.arange(24)

    def test_rows_are_scalar_fits(self):
        rng = np.random.default_rng(12)
        gapped = np.sort(rng.choice(40, size=24, replace=False)) + 23750
        rows = np.vstack([
            rng.standard_normal(24),
            0.003 * gapped + 0.5,  # exact line
            np.full(24, 0.1),  # constant
            0.01 * gapped + rng.standard_normal(24),
        ])
        batch = fit_batch(gapped, rows)
        assert type(batch) is TrendFit
        assert batch.n == 24
        assert batch.residuals.shape == rows.shape
        for k, row in enumerate(rows):
            one = fit(MonthlySeries("r", gapped, row))
            assert type(one.n) is int
            for field in ("slope_per_month", "slope_per_decade", "intercept",
                          "r1", "n_eff", "se_slope", "df"):
                assert type(getattr(one, field)) is float, field
                assert getattr(batch, field)[k] == getattr(one, field), field
            assert np.array_equal(batch.residuals[k], one.residuals)

    def test_residuals_read_only(self):
        batch = fit_batch(self.months, np.ones((2, 24)))
        with pytest.raises(ValueError):
            batch.residuals[0, 0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            fit_batch(self.months, np.zeros((2, 23)))
        with pytest.raises(InputError):
            fit_batch(self.months, np.zeros(24))

    def test_too_few_points_and_one_month(self):
        with pytest.raises(TooFewPoints):
            fit_batch(self.months[:2], np.zeros((3, 2)))
        with pytest.raises(DegenerateDesign):
            fit_batch(np.full(5, 23750), np.zeros((1, 5)))

    def test_non_finite_row_is_named(self):
        rows = np.zeros((4, 24))
        rows[2, 5] = np.inf
        rows[3, 0] = np.nan
        with pytest.raises(NonFiniteInput) as info:
            fit_batch(self.months, rows)
        assert info.value.row == 2

    def test_first_row_without_dof_is_named(self):
        rows = np.vstack([np.arange(24.0), WAVE, np.arange(24.0), WAVE])
        with pytest.raises(EffectiveDfTooSmall) as info:
            fit_batch(self.months, rows)
        assert info.value.row == 1
        assert "leaves no degrees of freedom" in str(info.value)

    def test_empty_batch(self):
        batch = fit_batch(self.months, np.zeros((0, 24)))
        assert batch.slope_per_decade.shape == (0,)

    @pytest.mark.parametrize(
        "phi, trend, seed, n, window",
        [(0.0, 0.0, 910, 360, 360), (0.3, 0.0, 911, 360, 360), (0.6, 0.0, 912, 360, 360),
         (0.0, 0.215, 550, 360, 360), (0.3, 0.215, 551, 360, 360),
         (0.6, 0.215, 552, 360, 360), (0.6, 0.04, 2026, 366, 366),
         (0.6, 0.04, 2026, 366, 252)],
    )
    def test_matches_scalar_on_acceptance_seeds(self, phi, trend, seed, n, window):
        """The specs of acceptance criteria 4, 5 and 8, the last also on its
        252-month window: batched and scalar fits agree per replicate."""
        series = generate_batch(Ar1Spec(phi, 0.1, trend, n, seed=seed), 1500)
        months = series[0].months[:window]
        batch = fit_batch(months, np.vstack([s.values[:window] for s in series]))
        for k, s in enumerate(series):
            one = fit(MonthlySeries(s.name, months, s.values[:window]))
            for field in ("slope_per_decade", "se_slope", "r1", "n_eff", "df"):
                got, want = getattr(batch, field)[k], getattr(one, field)
                assert abs(got - want) <= 1e-12 * abs(want), (k, field)


def reference_fit_batch(months, values):
    """``fit_batch`` as written with a fresh array for every step (the
    finite check, the centred values, slope * x, the fitted line, the
    residuals and the centred residuals), the reference whose outputs and
    errors the buffer-sharing version must match bit for bit."""
    x = np.asarray(months).astype(np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 2 or y.shape[1] != x.size:
        raise InputError(
            f"need months of shape (n,) and values of shape (rows, n), "
            f"got {x.shape} and {y.shape}"
        )
    n = x.size
    if n < 3:
        raise TooFewPoints(f"trend fit needs at least 3 points, got {n}")
    if not np.isfinite(y).all():
        row = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise NonFiniteInput(f"row {row} contains non-finite values", row=row)
    xbar = float(x.sum() / n)
    xc = x - xbar
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateDesign("all points fall in the same month")
    ybar = y.sum(axis=1) / n
    yc = y - ybar[:, np.newaxis]
    slope = np.vecdot(yc, xc) / sxx
    intercept = ybar - slope * xbar
    residuals = y - (intercept[:, np.newaxis] + slope[:, np.newaxis] * x)
    residuals.setflags(write=False)

    ss_res = np.vecdot(residuals, residuals)
    ss_tot = np.vecdot(yc, yc)
    c = residuals - residuals.sum(axis=-1, keepdims=True) / n
    denom = np.vecdot(c, c)
    r1 = np.vecdot(c[..., :-1], c[..., 1:]) / np.where(denom == 0.0, 1.0, denom)
    r1 = np.clip(r1, -1.0 + 1e-15, 1.0 - 1e-15)
    r1[ss_res <= _EXACT_FIT_RATIO * ss_tot] = 0.0

    n_eff = effective_n(n, r1)
    df = n_eff - 2.0
    short = df <= 0.0
    if short.any():
        row = int(short.argmax())
        raise EffectiveDfTooSmall(
            f"effective sample size {n_eff[row]:.3f} leaves no degrees of freedom",
            row=row,
        )
    se_month = np.sqrt(ss_res / df / sxx)
    return TrendFit(
        slope_per_month=slope,
        slope_per_decade=MONTHS_PER_DECADE * slope,
        intercept=intercept,
        n=n,
        residuals=residuals,
        r1=r1,
        n_eff=n_eff,
        se_slope=MONTHS_PER_DECADE * se_month,
        df=df,
    )


def bits_or_error(fitter, months, values):
    """Every field's dtype, shape and bytes, or the error's type, message
    and row; with warnings as errors, a numpy warning counts as an error."""
    try:
        f = fitter(months, values)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return [
        (a.dtype, a.shape, a.tobytes())
        for a in (np.asarray(getattr(f, field.name)) for field in dataclasses.fields(f))
    ]


@st.composite
def fit_inputs(draw):
    """A month axis (consecutive, gapped or one month) and a ``(rows, n)``
    matrix of noise, exact lines, constants and slow waves (too few
    degrees of freedom), with offsets up to 1e6, scales from 1e-200 to
    sums that overflow, and sometimes a planted NaN, inf, -inf or inf and
    -inf in one row."""
    n = draw(st.integers(3, 40))
    start = draw(st.integers(0, 30_000))
    axis = draw(st.sampled_from(["consecutive"] * 3 + ["gapped"] * 4 + ["one month"]))
    if axis == "consecutive":
        months = start + np.arange(n)
    elif axis == "gapped":
        steps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        months = start + np.concatenate([[0], np.cumsum(steps)])
    else:
        months = np.full(n, start)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, -3.5, 288.15, 1e6]))
    scale = draw(st.sampled_from([1e-200, 1e-6, 1.0, 1.0, 1.0, 1e300, 2.0**1021]))
    rows = []
    for _ in range(draw(st.sampled_from(range(6)))):
        kind = draw(st.sampled_from(["noise", "noise", "noise", "line", "constant", "wave"]))
        if kind == "line":
            rows.append(draw(st.floats(-0.01, 0.01)) * months + offset)
        elif kind == "constant":
            rows.append(np.full(n, offset + draw(st.floats(-5.0, 5.0))))
        elif kind == "wave":
            rows.append(offset + scale * np.cos(2 * np.pi * np.arange(n) / n))
        else:
            rows.append(offset + scale * rng.uniform(-0.5, 1.0, n))
    values = np.array(rows, dtype=np.float64).reshape(-1, n)
    plant = draw(st.sampled_from([None] * 8 + [np.nan, np.inf, -np.inf, "inf and -inf"]))
    if plant is not None and len(values):
        row = draw(st.integers(0, len(values) - 1))
        if plant == "inf and -inf":
            values[row, [0, -1]] = np.inf, -np.inf
        else:
            values[row, draw(st.integers(0, n - 1))] = plant
    return months, values


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
def test_fit_batch_matches_the_reference_bit_for_bit(inputs):
    months, values = inputs
    assert bits_or_error(fit_batch, months, values) == bits_or_error(
        reference_fit_batch, months, values
    )


def test_chunk_fit_allocates_its_residuals_and_one_scratch_matrix():
    """A Monte Carlo chunk fit holds the residuals it returns and one
    scratch matrix of the same size, not a fresh array per step."""
    months = MonthIndex(1979, 1).ordinal + np.arange(360)
    values = np.random.default_rng(13).standard_normal((1000, 360))
    fit_batch(months, values)
    tracemalloc.start()
    try:
        fit_batch(months, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * values.nbytes


class TestLag1Autocorr:
    def test_alternating_signs(self):
        e = np.tile([1.0, -1.0], 50)  # n = 100
        assert lag1_autocorr(e) == pytest.approx(-0.99, abs=1e-15)

    def test_hand_computed_case(self):
        # e = [1, 2, 4, 0]: numerator -3.5625, denominator 8.75
        assert lag1_autocorr([1.0, 2.0, 4.0, 0.0]) == pytest.approx(-57 / 140, abs=1e-15)

    def test_constant_residuals_use_zero_convention(self):
        assert lag1_autocorr(np.full(10, 3.25)) == 0.0

    def test_mean_removal(self):
        e = np.array([1.0, 2.0, 4.0, 0.0])
        assert lag1_autocorr(e + 100.0) == pytest.approx(lag1_autocorr(e), abs=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            lag1_autocorr([1.0])

    def test_batch_fit_r1_is_lag1_of_its_residuals(self):
        months = MonthIndex(1979, 1).ordinal + np.arange(120)
        values = np.random.default_rng(14).standard_normal((8, 120))
        batch = fit_batch(months, values)
        assert np.array_equal(batch.r1, lag1_autocorr(batch.residuals))
        assert batch.r1[0] == lag1_autocorr(batch.residuals[0])


class TestEffectiveN:
    def test_zero_r1_is_identity(self):
        for n in (1, 2, 3, 10, 100, 366, 5000):
            assert effective_n(n, 0.0) == float(n)

    def test_known_value_exact(self):
        assert effective_n(366, 0.5) == 122.0

    def test_negative_r1_clamped_to_n(self):
        # raw value would be 300
        assert effective_n(100, -0.5) == 100.0

    def test_strong_positive_r1_shrinks_hard(self):
        assert effective_n(1000, 0.9) == pytest.approx(1000 / 19, rel=1e-12)

    @pytest.mark.parametrize("r1", [-1.0, 1.0, 1.5])
    def test_r1_domain(self, r1):
        with pytest.raises(DomainError):
            effective_n(100, r1)

    def test_n_domain(self):
        with pytest.raises(DomainError):
            effective_n(0, 0.1)
