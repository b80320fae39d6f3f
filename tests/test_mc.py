import tracemalloc

import numpy as np
import pytest

from trendsig import (
    Ar1Spec,
    EnsembleStats,
    MonthIndex,
    compare,
    fit,
    generate_batch,
)
from trendsig import mc
from trendsig.errors import EffectiveDfTooSmall, InputError
from trendsig.mc import size_power
from trendsig.report import size_power_csv


def lfilter_noise(spec, reps):
    """The noise contract computed the way it used to be: one draw, then
    scipy's IIR filter along each row."""
    from scipy.signal import lfilter

    innov = np.random.default_rng(spec.seed).standard_normal((reps, spec.n))
    innov[:, 0] *= spec.sigma_innov / np.sqrt(1.0 - spec.phi**2)
    innov[:, 1:] *= spec.sigma_innov
    return lfilter([1.0], [1.0, -spec.phi], innov, axis=1)


def noise_rows(spec, reps):
    """Replicates of a zero-trend spec are its noise rows."""
    return np.vstack([s.values for s in generate_batch(spec, reps)])


class TestAr1Spec:
    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.2])
    def test_phi_domain(self, phi):
        with pytest.raises(InputError):
            Ar1Spec(phi, 0.1, 0.0, 100, seed=1)

    def test_sigma_domain(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InputError, match="sigma_innov"):
                Ar1Spec(0.5, sigma, 0.0, 100, seed=1)

    @pytest.mark.parametrize("trend", [float("nan"), float("inf"), float("-inf")])
    def test_trend_must_be_finite(self, trend):
        with pytest.raises(InputError, match="trend_per_decade"):
            Ar1Spec(0.5, 0.1, trend, 100, seed=1)

    def test_minimum_length(self):
        with pytest.raises(InputError):
            Ar1Spec(0.5, 0.1, 0.0, 2, seed=1)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            Ar1Spec(0.5, 0.1, 0.0, 100, seed=-1)
        assert Ar1Spec(0.5, 0.1, 0.0, 100, seed=0).seed == 0


class TestGenerate:
    def test_same_seed_same_series(self):
        spec = Ar1Spec(0.6, 0.1, 0.2, 240, seed=42)
        assert generate_batch(spec, 1)[0] == generate_batch(spec, 1)[0]

    def test_different_seed_differs(self):
        a = generate_batch(Ar1Spec(0.6, 0.1, 0.2, 240, seed=1), 1)[0]
        b = generate_batch(Ar1Spec(0.6, 0.1, 0.2, 240, seed=2), 1)[0]
        assert not np.array_equal(a.values, b.values)

    def test_start_month_honoured(self):
        spec = Ar1Spec(0.0, 0.1, 0.0, 12, seed=3, start=MonthIndex(2001, 7))
        s = generate_batch(spec, 1)[0]
        assert s.first == MonthIndex(2001, 7)
        assert len(s) == 12

    def test_batch_rep0_is_the_one_replicate_batch(self):
        spec = Ar1Spec(0.6, 0.1, 0.2, 120, seed=9)
        assert generate_batch(spec, 4)[0] == generate_batch(spec, 1)[0]

    def test_batch_is_a_pure_function_of_seed_and_rep(self):
        """Replicate k must not depend on how many replicates were asked for."""
        spec = Ar1Spec(0.4, 0.1, 0.0, 60, seed=11)
        small = generate_batch(spec, 3)
        large = generate_batch(spec, 7)
        for k in range(3):
            assert np.array_equal(small[k].values, large[k].values)

    def test_batch_needs_positive_reps(self):
        with pytest.raises(InputError):
            generate_batch(Ar1Spec(0.4, 0.1, 0.0, 60, seed=11), 0)

    def test_noiseless_spec_is_an_exact_line(self):
        s = generate_batch(Ar1Spec(0.0, 0.0, 0.12, 240, seed=5), 1)[0]
        f = fit(s)
        assert abs(f.slope_per_decade - 0.120) < 1e-12
        assert np.all(np.abs(f.residuals) < 1e-12)

    def test_white_noise_has_negligible_autocorrelation(self):
        f = fit(generate_batch(Ar1Spec(0.0, 0.1, 0.0, 5000, seed=6), 1)[0])
        assert abs(f.r1) < 0.05

    def test_fitted_r1_tracks_phi(self):
        """phi = 0.6, n = 360: mean fitted r1 sits near 0.6 (small-sample
        bias of order (1+3*phi)/n is well inside the tolerance)."""
        spec = Ar1Spec(0.6, 0.1, 0.0, 360, seed=7)
        r1s = [fit(s).r1 for s in generate_batch(spec, 2000)]
        assert np.mean(r1s) == pytest.approx(0.6, abs=0.05)

    @pytest.mark.parametrize("phi", [0.3, 0.6, -0.5, 0.95])
    @pytest.mark.parametrize("chunk", [64, mc.CHUNK_ROWS])
    def test_recursion_matches_lfilter_bit_for_bit(self, monkeypatch, phi, chunk):
        monkeypatch.setattr(mc, "CHUNK_ROWS", chunk)
        spec = Ar1Spec(phi, 0.1, 0.0, 60, seed=17)
        reps = chunk + chunk // 2 + 1  # a partial last chunk
        rows = noise_rows(spec, reps)
        assert np.array_equal(rows, lfilter_noise(spec, reps))
        # More replicates extend the batch and leave its first rows alone.
        assert np.array_equal(noise_rows(spec, reps + chunk)[:reps], rows)

    def test_stationary_marginal_variance(self):
        """Long-run noise variance approaches sigma^2 / (1 - phi^2)."""
        spec = Ar1Spec(0.6, 0.1, 0.0, 50_000, seed=8)
        sample_var = float(np.var(generate_batch(spec, 1)[0].values))
        target = 0.1**2 / (1.0 - 0.6**2)
        assert sample_var == pytest.approx(target, rel=0.05)


class TestSizePower:
    def null_spec(self, n=40, phi=0.0, seed=13):
        return Ar1Spec(phi, 0.1, 0.215, n, seed=seed)

    def ens(self):
        return EnsembleStats(0.215, 0.0, 19)

    def test_requires_enough_replicates(self):
        with pytest.raises(InputError):
            size_power(self.null_spec(), self.ens(), reps=500, alpha=0.05)

    def test_alpha_domain(self):
        with pytest.raises(InputError):
            size_power(self.null_spec(), self.ens(), reps=1000, alpha=1.5)

    @pytest.mark.parametrize("gaps", [[float("nan")], [0.1, float("inf")]])
    def test_gaps_must_be_finite(self, gaps):
        with pytest.raises(InputError, match="trend gaps must be finite"):
            size_power(
                self.null_spec(), self.ens(), reps=1000, alpha=0.05, trend_gaps=gaps
            )

    def test_gap_zero_reproduces_size_exactly(self):
        result = size_power(
            self.null_spec(), self.ens(), reps=1000, alpha=0.05, trend_gaps=[0.0, 0.5]
        )
        assert result.power_curve[0] == (0.0, result.size)

    def test_large_gap_rejects_more_often(self):
        result = size_power(
            self.null_spec(n=120), self.ens(), reps=1000, alpha=0.05, trend_gaps=[0.4]
        )
        assert result.power_curve[0][1] > result.size

    def test_white_noise_size_is_near_nominal(self):
        result = size_power(self.null_spec(n=120), self.ens(), reps=2000, alpha=0.05)
        assert 0.02 <= result.size <= 0.09

    def test_non_finite_ensemble_is_input_error(self):
        with pytest.raises(InputError):
            size_power(
                self.null_spec(), EnsembleStats(float("nan"), 0.0, 19),
                reps=1000, alpha=0.05,
            )

    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_counts_match_the_scalar_pipeline(self, sigma):
        """Each rate equals fit + compare run replicate by replicate.

        With sigma 0 every replicate is an exact line, which the scalar
        fit sees with its trend and size_power sees as zero noise.
        """
        spec = Ar1Spec(0.3, sigma, 0.215, 60, seed=13)
        ens = EnsembleStats(0.215, 0.05, 19)
        gaps = [0.2, -0.5]
        result = size_power(spec, ens, reps=1000, alpha=0.05, trend_gaps=gaps)
        for gap, rate in [(0.0, result.size)] + result.power_curve:
            shifted = Ar1Spec(spec.phi, spec.sigma_innov, ens.trend + gap, spec.n, spec.seed)
            hits = sum(
                compare(ens, fit(s)).p_two_sided <= 0.05
                for s in generate_batch(shifted, 1000)
            )
            assert rate == hits / 1000

    def test_rates_do_not_depend_on_chunk_size(self, monkeypatch):
        def run():
            return size_power(
                self.null_spec(n=48, phi=0.5), EnsembleStats(0.215, 0.05, 19),
                reps=1000, alpha=0.1, trend_gaps=[0.3, 0.6],
            )

        reference = run()
        for chunk in (7, 333):
            monkeypatch.setattr(mc, "CHUNK_ROWS", chunk)
            assert run() == reference

    def test_each_chunk_is_fitted_and_tested_once(self, monkeypatch):
        """Trend values share one noise fit and one test: calls do not grow with gaps."""
        calls = {"fit_batch": 0, "d1_star": 0, "p_values": 0}

        def counted(name):
            original = getattr(mc, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(mc, name, counted(name))
        size_power(
            self.null_spec(), self.ens(), reps=2 * mc.CHUNK_ROWS, alpha=0.05,
            trend_gaps=[0.1, 0.2, 0.3],
        )
        assert calls == {"fit_batch": 2, "d1_star": 2, "p_values": 2}

    def test_degenerate_replicate_is_named(self):
        spec = Ar1Spec(0.95, 0.1, 0.0, 12, seed=3)
        with pytest.raises(EffectiveDfTooSmall, match="replicate 375:"):
            size_power(spec, EnsembleStats(0.0, 0.0, 1), reps=1000, alpha=0.05)

    def test_memory_is_bounded_by_the_chunk(self):
        """20 000 x 360 noise would take 57.6 MB in one matrix."""
        spec = Ar1Spec(0.6, 0.1, 0.215, 360, seed=5)
        # A first run keeps one-time allocations out of the count.
        size_power(spec, self.ens(), reps=1000, alpha=0.05)
        tracemalloc.start()
        try:
            size_power(spec, self.ens(), reps=20_000, alpha=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 20_000 * 360 * 8

    def test_csv_layout(self):
        spec = self.null_spec()
        result = size_power(spec, self.ens(), reps=1000, alpha=0.05, trend_gaps=[0.5])
        text = size_power_csv(spec, 0.05, 1000, result)
        lines = text.strip().splitlines()
        assert lines[0] == "phi,n,trend_gap,alpha,rejection_rate,reps,seed"
        assert len(lines) == 3  # size row + one power row
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "40" and first[6] == "13"
        # numpy scalars print as the numbers they hold, not as their reprs
        np_spec = Ar1Spec(np.float64(0.0), 0.1, 0.215, np.int64(40), seed=np.int64(13))
        assert size_power_csv(np_spec, np.float64(0.05), 1000, result) == text
