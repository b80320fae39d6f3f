"""Property-based checks of the batched kernel against the scalar path.

The batched fit and comparison are what the Monte Carlo study runs on,
and a single ``fit``/``compare`` is their one-row case, so every row must
agree with the scalar result.  The invariance properties
(shift and scale of the values) follow from the OLS algebra.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trendsig import (
    Ar1Spec,
    EnsembleStats,
    MonthlySeries,
    compare,
    fit,
    generate,
    generate_batch,
    mc,
)
from trendsig.errors import ComputationError
from trendsig.trend import fit_batch

FIELDS = ("slope_per_month", "slope_per_decade", "intercept", "r1", "n_eff", "se_slope", "df")

settings.register_profile("trendsig", deadline=None, max_examples=60)
settings.load_profile("trendsig")


@st.composite
def month_axes(draw, min_n=3, max_n=48):
    """Strictly increasing month ordinals, with gaps of up to two months."""
    steps = draw(st.lists(st.integers(1, 3), min_size=min_n - 1, max_size=max_n - 1))
    start = draw(st.integers(23_000, 24_500))
    return start + np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)


@st.composite
def value_rows(draw, months):
    """One row: arbitrary values, an exact line, or a constant."""
    n = months.size
    kind = draw(st.sampled_from(["values", "line", "constant"]))
    if kind == "line":
        slope = draw(st.floats(-0.01, 0.01))
        return slope * months + draw(st.floats(-5.0, 5.0))
    if kind == "constant":
        return np.full(n, draw(st.floats(-5.0, 5.0)))
    return draw(arrays(np.float64, n, elements=st.floats(-100.0, 100.0)))


@st.composite
def batches(draw):
    months = draw(month_axes())
    rows = draw(st.lists(value_rows(months), min_size=1, max_size=4))
    return months, np.vstack(rows)


def rel_close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


@given(batches())
def test_batch_rows_agree_with_scalar_fit(batch):
    months, values = batch
    scalar, first_error = [], None
    for k, row in enumerate(values):
        try:
            scalar.append(fit(MonthlySeries("row", months, row)))
        except ComputationError as exc:
            first_error = first_error or (k, type(exc))
    if first_error is not None:
        with pytest.raises(first_error[1]) as info:
            fit_batch(months, values)
        assert info.value.row == first_error[0]
        return
    got = fit_batch(months, values)
    for k, one in enumerate(scalar):
        for field in FIELDS:
            assert rel_close(getattr(got, field)[k], getattr(one, field)), field
        assert np.all(np.abs(got.residuals[k] - one.residuals) <= 1e-12 * np.abs(one.residuals))


@given(
    batches(),
    st.floats(-1.0, 1.0),
    st.floats(0.01, 1.0),
    st.integers(1, 40),
)
def test_batch_compare_agrees_with_scalar_compare(batch, trend, spread, n_models):
    months, values = batch
    ens = EnsembleStats(trend, spread, n_models)
    try:
        batch_result = compare(ens, fit_batch(months, values))
    except ComputationError:
        assume(False)
    for k, row in enumerate(values):
        one = compare(ens, fit(MonthlySeries("row", months, row)))
        for field in dataclasses.fields(one):
            assert getattr(batch_result, field.name)[k] == getattr(one, field.name), field


noisy_specs = st.builds(
    Ar1Spec,
    phi=st.floats(-0.5, 0.8),
    sigma_innov=st.just(0.1),
    trend_per_decade=st.floats(-1.0, 1.0),
    n=st.integers(12, 240),
    seed=st.integers(0, 2**32 - 1),
)


def fits_of(spec, *transforms):
    s = generate(spec)
    try:
        return fit_batch(s.months, np.vstack([f(s.values) for f in transforms]))
    except ComputationError:
        assume(False)


@given(noisy_specs, st.floats(-100.0, 100.0))
def test_shift_leaves_slope_se_and_r1(spec, shift):
    f = fits_of(spec, lambda y: y, lambda y: y + shift)
    assert f.slope_per_decade[1] == pytest.approx(f.slope_per_decade[0], rel=1e-9, abs=1e-12)
    assert f.se_slope[1] == pytest.approx(f.se_slope[0], rel=1e-9)
    assert f.r1[1] == pytest.approx(f.r1[0], abs=1e-9)


@given(
    noisy_specs,
    st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
)
def test_scale_scales_slope_and_se(spec, c):
    f = fits_of(spec, lambda y: y, lambda y: c * y)
    assert f.slope_per_decade[1] == pytest.approx(c * f.slope_per_decade[0], rel=1e-9)
    assert f.se_slope[1] == pytest.approx(abs(c) * f.se_slope[0], rel=1e-9)
    assert f.r1[1] == pytest.approx(f.r1[0], abs=1e-9)


@given(
    st.floats(-0.9, 0.9),
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.integers(1, 30),
    st.integers(0, 30),
)
def test_replicates_do_not_depend_on_chunking_or_count(phi, seed, chunk, reps, extra):
    spec = Ar1Spec(phi, 0.1, 0.0, 8, seed=seed)
    whole = np.vstack([s.values for s in generate_batch(spec, reps + extra)])
    with mock.patch.object(mc, "CHUNK_ROWS", chunk):
        chunked = np.vstack([s.values for s in generate_batch(spec, reps)])
    assert np.array_equal(chunked, whole[:reps])
