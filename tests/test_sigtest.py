import math

import numpy as np
import pytest
from conftest import make_line

from trendsig import (
    EnsembleStats,
    MonthlySeries,
    compare,
    d1_star,
    fit,
    sigtest,
    significance_marks,
    t_cdf,
)
from trendsig.errors import (
    DomainError,
    InputError,
    NonFiniteInput,
    ZeroDenominator,
)
from trendsig.sigtest import p_values
from trendsig.trend import fit_batch

# Values computed before the implementation with a 50-digit quadrature of
# the t density (see test_acceptance.py for the generator).
T_CDF_SPOTS = [
    (2.42, 30.0, 0.98910613408890737),
    (0.0, 5.0, 0.5),
    (1.96, 1000.0, 0.97486340752212564),
    (-7.0, 88.6, 2.3573006212368592e-10),
    (2.42, 91.5, 0.99125158404542057),
]


class TestEnsembleStats:
    @pytest.mark.parametrize(
        "trend, spread",
        [(math.nan, 0.1), (0.2, math.nan), (math.inf, 0.1), (0.2, math.inf)],
    )
    def test_rejects_non_finite_trend_or_spread(self, trend, spread):
        with pytest.raises(InputError, match="finite"):
            EnsembleStats(trend, spread, 19)

    def test_rejects_negative_spread(self):
        with pytest.raises(InputError):
            EnsembleStats(0.2, -0.1, 19)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(InputError):
            EnsembleStats(0.2, 0.1, 0)

    def test_zero_spread_is_legal(self):
        assert EnsembleStats(0.2, 0.0, 1).inter_model_sd == 0.0

    def test_rejects_n_models_without_a_float_value(self):
        with pytest.raises(InputError, match="n_models is too large"):
            EnsembleStats(0.2, 0.1, 10**400)


class TestD1Star:
    def test_equal_trends_give_zero(self):
        ens = EnsembleStats(0.215, 0.123, 19)
        assert d1_star(ens, 0.215, 0.456) == 0.0

    def test_hand_evaluated_fixture(self):
        # (0.3 - 0.1) / sqrt(0.2^2 / 4 + 0) = 0.2 / 0.1
        assert d1_star(EnsembleStats(0.3, 0.2, 4), 0.1, 0.0) == pytest.approx(
            2.0, abs=1e-12
        )
        # Spreads and se whose squares overflow or underflow.
        for spread, se, d1 in [
            (2e300, 0.0, 2e-301), (0.0, 1e300, 2e-301), (2e-170, 0.0, 2e169), (0.0, 1e-170, 2e169)
        ]:
            assert d1_star(EnsembleStats(0.3, spread, 4), 0.1, se) == pytest.approx(d1)

    def test_both_spreads_zero_rejected(self):
        with pytest.raises(ZeroDenominator):
            d1_star(EnsembleStats(0.3, 0.0, 4), 0.1, 0.0)

    def test_antisymmetric_in_trend_roles(self):
        a = d1_star(EnsembleStats(0.3, 0.2, 4), 0.1, 0.05)
        b = d1_star(EnsembleStats(0.1, 0.2, 4), 0.3, 0.05)
        assert a == -b

    def test_monotone_in_each_trend(self):
        se = 0.05
        stats = [d1_star(EnsembleStats(t, 0.2, 4), 0.1, se) for t in (0.1, 0.2, 0.3)]
        assert stats[0] < stats[1] < stats[2]
        stats = [d1_star(EnsembleStats(0.3, 0.2, 4), b, se) for b in (0.0, 0.1, 0.2)]
        assert stats[0] > stats[1] > stats[2]

    def test_wider_spread_shrinks_magnitude(self):
        tight = d1_star(EnsembleStats(0.3, 0.1, 4), 0.1, 0.02)
        wide_model = d1_star(EnsembleStats(0.3, 0.3, 4), 0.1, 0.02)
        wide_obs = d1_star(EnsembleStats(0.3, 0.1, 4), 0.1, 0.08)
        assert abs(wide_model) < abs(tight)
        assert abs(wide_obs) < abs(tight)


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1.0, 2.5, 30.0, 364.0):
            assert t_cdf(0.0, df) == 0.5

    def test_symmetry(self):
        for x in (0.3, 1.08, 2.42, 7.0):
            for df in (1.0, 15.0, 366.0):
                assert t_cdf(x, df) + t_cdf(-x, df) == pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_x(self):
        xs = np.linspace(-6, 6, 25)
        vals = [t_cdf(x, 10.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x,df,expected", T_CDF_SPOTS)
    def test_spot_values(self, x, df, expected):
        assert t_cdf(x, df) == pytest.approx(expected, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            t_cdf(1.0, 0.0)
        with pytest.raises(NonFiniteInput):
            t_cdf(math.nan, 5.0)

    @pytest.mark.parametrize("df", [0.05, 0.5, 1.0, 3.5, 30.5, 91.5, 366.0, 1000.0, 1e4, 1e6])
    def test_matches_mpmath_on_both_branches(self, df):
        """x = sqrt(df) (1 -+ 1e-12) sits either side of the body/tail switch."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        root = math.sqrt(df)
        for x in (1e-7, 0.3, 1.96, root * (1 - 1e-12), root * (1 + 1e-12), 7.0, 50.0):
            w = df / (df + mpmath.mpf(x) ** 2)
            tail = mpmath.betainc(df / 2, 0.5, 0, w, regularized=True) / 2
            for sign, want in ((1.0, 1 - tail), (-1.0, tail)):
                assert abs(t_cdf(sign * x, df) - float(want)) <= 1e-12, (sign * x, df)

    def test_huge_df_gives_the_normal_limit(self):
        for df in (1e12, 1e300):
            for x in (-3.0, -1.0, 0.5, 1.0, 2.42):
                normal = 0.5 * math.erfc(-x / math.sqrt(2.0))
                assert t_cdf(x, df) == pytest.approx(normal, abs=1e-10)

    def test_huge_statistic_does_not_overflow(self):
        # x^2 overflows; P(T < -1e200) under df = 0.05 is still 4.5e-11 (mpmath).
        assert t_cdf(-1e200, 0.05) == pytest.approx(4.4856310480634823e-11, rel=1e-12)
        assert t_cdf(1e200, 5.0) == 1.0

    def test_gauss_legendre_literals(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert np.array_equal(sigtest._GL_NODES, (nodes + 1.0) / 2.0)
        assert np.array_equal(sigtest._GL_WEIGHTS, weights / 2.0)


class TestSignificanceMarks:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, "***"),
            (0.009, "***"),
            (0.01, "***"),  # thresholds are inclusive
            (0.011, "**"),
            (0.05, "**"),
            (0.050001, "*"),
            (0.10, "*"),
            (0.100001, "-"),
            (0.5, "-"),
            (1.0, "-"),
        ],
    )
    def test_thresholds(self, p, expected):
        assert significance_marks(p) == expected

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            significance_marks(p)


class TestClassify:
    """Reading a statistic against Student-t: ``p_values``, ``t_cdf``, ``compare``."""

    def test_zero_statistic(self):
        cdf, p_two, p_one = p_values(0.0, 10.0)
        assert 100.0 * cdf == 50.0
        assert p_two == 1.0
        assert p_one == 0.5
        assert significance_marks(p_two) == significance_marks(p_one) == "-"

    def test_internal_consistency(self):
        res = compare(EnsembleStats(0.215, 0.2, 19), fit(make_line("obs", 0.051)))
        cdf = t_cdf(res.d1_star, res.df)
        assert res.percentile == 100.0 * cdf
        assert res.p_two_sided == 2.0 * min(cdf, 1.0 - cdf)
        assert res.p_one_sided == 0.5 * res.p_two_sided

    def test_negative_statistic_lands_below_fifty(self):
        cdf, p_two, _ = p_values(-2.34, 300.0)
        assert cdf < 0.5
        # mirror-image p agrees up to the 1 - (1 - h) round trip on one side
        _, mirrored, _ = p_values(2.34, 300.0)
        assert p_two == pytest.approx(mirrored, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            p_values(1.0, 0.0)
        with pytest.raises(DomainError):
            p_values(np.array([1.0, 2.0]), np.array([5.0, 0.0]))
        with pytest.raises(DomainError):
            p_values(np.array([1.0, 2.0]), np.array([5.0, math.nan]))
        for df in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite and positive, got"):
                p_values(1.0, df)
        with pytest.raises(NonFiniteInput):
            p_values(np.array([1.0, math.nan]), 5.0)
        # A non-finite statistic is reported before a bad df, wherever each is.
        with pytest.raises(NonFiniteInput):
            p_values(math.inf, 0.0)
        with pytest.raises(NonFiniteInput):
            p_values(math.nan, math.inf)
        with pytest.raises(NonFiniteInput):
            p_values(np.array([1.0, math.nan]), np.array([0.0, 5.0]))


class TestCompare:
    def test_composes_d1_star_and_p_values(self):
        obs = fit(make_line("obs", 0.051))
        ens = EnsembleStats(0.215, 0.2, 19)
        got = compare(ens, obs)
        stat = d1_star(ens, obs.slope_per_decade, obs.se_slope)
        cdf, p_two, p_one = p_values(stat, obs.df)
        assert (got.d1_star, got.df, got.percentile) == (stat, obs.df, 100.0 * cdf)
        assert (got.p_two_sided, got.p_one_sided) == (p_two, p_one)
        assert all(type(v) is float for v in vars(got).values())

    def test_batch_fit_gives_one_entry_per_row(self):
        a, b = make_line("a", 0.051), make_line("b", 0.3)
        values = np.vstack([a.values, b.values]) + 0.05 * np.sin(np.arange(len(a)))
        got = compare(EnsembleStats(0.215, 0.2, 19), fit_batch(a.months, values))
        for value in vars(got).values():
            assert isinstance(value, np.ndarray) and value.shape == (2,)

    def test_matching_trend_is_unremarkable(self):
        obs = fit(make_line("obs", 0.051))
        ens = EnsembleStats(obs.slope_per_decade, 0.2, 19)
        res = compare(ens, obs)
        assert abs(res.d1_star) < 1e-9
        assert res.percentile == pytest.approx(50.0, abs=1e-6)
        assert significance_marks(res.p_two_sided) == "-"
        assert significance_marks(res.p_one_sided) == "-"

    def test_zero_observed_se_needs_model_spread(self):
        # An integer ramp fits with literally zero residual, so se == 0.0
        # and the only spread left is the ensemble's.
        months = np.arange(24000, 24060)
        obs = fit(MonthlySeries("ramp", months, months.astype(float)))
        assert obs.se_slope == 0.0
        with pytest.raises(ZeroDenominator):
            compare(EnsembleStats(0.215, 0.0, 19), obs)


class TestArrayForms:
    def test_p_values_match_scalar_calls_elementwise(self):
        d1 = np.array([-7.0, -2.34, -0.5, 0.0, 1.08, 2.42, 50.0])
        df = np.array([88.6, 300.0, 1.0, 5.0, 30.0, 91.5, 1000.0])
        cdf, p_two, p_one = p_values(d1, df)
        for k in range(d1.size):
            assert (cdf[k], p_two[k], p_one[k]) == p_values(float(d1[k]), float(df[k]))
            assert cdf[k] == t_cdf(float(d1[k]), float(df[k]))

    def test_d1_star_on_arrays_matches_scalar(self):
        ens = EnsembleStats(0.215, 0.092, 19)
        trends = np.array([0.0, 0.1, 0.215, 0.4])
        ses = np.array([0.05, 0.0, 0.1, 0.02])
        got = d1_star(ens, trends, ses)
        assert isinstance(d1_star(ens, 0.1, 0.05), float)
        for k in range(trends.size):
            assert got[k] == d1_star(ens, float(trends[k]), float(ses[k]))

    def test_d1_star_array_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            d1_star(EnsembleStats(0.2, 0.0, 19), np.array([0.1, 0.2]), np.array([0.1, 0.0]))
