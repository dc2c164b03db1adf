"""Branching-limit tests: extinction, Borel-Tanner, duration and maxima."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avalanche.branching import (agresti_duration_bounds, borel_tanner_pmf,
                                 duration_tail_r, duration_tail_s,
                                 extinction_prob, gw_extinct_by, gw_simulate,
                                 lindvall_max_bound, ruin_ratio)
from avalanche.rng import replicate_rng


class TestExtinctionProb:
    def test_known_value(self):
        # alpha_2 solves a = exp(-2(1-a)); standard reference root
        assert extinction_prob(2.0) == pytest.approx(0.2031878700, abs=1e-9)

    @given(mu=st.floats(1.0001, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_fixed_point_supercritical(self, mu):
        a = extinction_prob(mu)
        assert 0.0 < a < 1.0
        assert a == pytest.approx(math.exp(-(1.0 - a) * mu), abs=1e-12)

    @given(mu=st.floats(0.01, 0.9999))
    @settings(max_examples=80, deadline=None)
    def test_dual_root_subcritical(self, mu):
        a = extinction_prob(mu)
        assert a > 1.0
        assert a == pytest.approx(math.exp(-(1.0 - a) * mu), rel=1e-10)

    @pytest.mark.parametrize("mu", [1e-6, 0.003, 0.005, 0.01])
    def test_dual_root_small_mean(self, mu):
        # the dual root grows like log(1/mu)/mu, so its fixed-point
        # residual must be judged relative to it
        a = extinction_prob(mu)
        assert a > 1.0
        assert a == pytest.approx(math.exp(-(1.0 - a) * mu), rel=1e-10)

    @pytest.mark.parametrize(
        "mu", [1e-6, 0.5, 0.9999, 1.0001, 2.0, 150.0, 300.0, 700.0])
    def test_matches_lambert_w_reference(self, mu):
        # alpha = -W(-mu*exp(-mu))/mu on the branch not holding mu itself:
        # W_0 for mu > 1, W_-1 for mu < 1; 60 digits
        with mp.workdps(60):
            m = mp.mpf(mu)
            ref = -mp.lambertw(-m * mp.exp(-m), 0 if mu > 1 else -1).real / m
        assert extinction_prob(mu) == pytest.approx(float(ref),
                                                   rel=1e-13, abs=0.0)

    def test_monotone_in_mu(self):
        values = [extinction_prob(mu) for mu in (1.1, 1.5, 2.0, 3.0, 5.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_critical_and_nonpositive(self):
        with pytest.raises(ValueError):
            extinction_prob(1.0)
        with pytest.raises(ValueError):
            extinction_prob(0.0)


class TestRuinRatio:
    @pytest.mark.parametrize("a", [0.2, 1.02, 3.5])
    def test_matches_direct_formula(self, a):
        for i in (1, 2, 5):
            for j in (i + 1, 10, 40, 200, 500):
                if j * abs(math.log(a)) > 700:  # a**j overflows or underflows
                    continue
                direct = (1.0 - a ** i) / (1.0 - a ** j)
                assert ruin_ratio(a, i, j) == pytest.approx(
                    direct, rel=1e-13, abs=0.0)

    def test_array_levels_match_scalar_calls(self):
        j = np.arange(3, 900)
        for a in (0.2, 3.5):
            np.testing.assert_allclose(
                ruin_ratio(a, 2, j), [ruin_ratio(a, 2, int(k)) for k in j],
                rtol=1e-15, atol=0.0)

    def test_no_overflow_at_high_levels(self):
        r = ruin_ratio(3.5, 1, 2000)
        assert math.isfinite(r) and 0.0 <= r < 1e-300


class TestBorelTanner:
    def test_scalar_matches_direct_formula(self):
        lam, i0 = 0.7, 2
        for j in range(2, 30):
            direct = (i0 / j * (lam * j) ** (j - i0)
                      / math.factorial(j - i0) * math.exp(-lam * j))
            assert borel_tanner_pmf(lam, i0, j) == pytest.approx(
                direct, rel=1e-12)

    def test_zero_below_i0(self):
        assert borel_tanner_pmf(0.5, 3, 2) == 0.0
        np.testing.assert_array_equal(
            borel_tanner_pmf(0.5, 3, np.array([0, 1, 2])), np.zeros(3))

    def test_subcritical_total_mass_is_one(self):
        for lam in (0.3, 0.5, 0.8):
            for i0 in (1, 3):
                j = np.arange(i0, 200000)
                assert float(borel_tanner_pmf(lam, i0, j).sum()) \
                    == pytest.approx(1.0, abs=1e-9)

    def test_supercritical_mass_is_extinction_prob(self):
        lam, i0 = 1.5, 2
        j = np.arange(i0, 200000)
        assert float(borel_tanner_pmf(lam, i0, j).sum()) == pytest.approx(
            extinction_prob(lam) ** i0, abs=1e-9)

    def test_mean_subcritical(self):
        # E(S) = i0 / (1 - lam)
        lam, i0 = 0.6, 1
        j = np.arange(1, 200000)
        mean = float((j * borel_tanner_pmf(lam, i0, j)).sum())
        assert mean == pytest.approx(i0 / (1 - lam), rel=1e-8)

    def test_matches_monte_carlo(self):
        lam, i0 = 0.8, 1
        rng = replicate_rng(42, 0)
        sizes = np.array([gw_simulate(lam, i0, rng).size
                          for _ in range(20000)])
        grid = np.arange(1, 30)
        emp = np.array([(sizes == j).mean() for j in grid])
        ref = borel_tanner_pmf(lam, i0, grid)
        # half-L1 sampling noise over ~30 bins at 2e4 replicates is
        # about 0.01, so 0.025 leaves a comfortable margin
        assert np.abs(emp - ref).sum() * 0.5 < 0.025

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            borel_tanner_pmf(0.0, 1, 1)
        with pytest.raises(ValueError):
            borel_tanner_pmf(0.5, 0, 1)


class TestGwSimulation:
    def test_paths_absorb_or_escape(self):
        rng = replicate_rng(3, 0)
        for _ in range(100):
            path = gw_simulate(0.9, 2, rng)
            assert path.states[0] == 2
            assert path.extinct
            assert path.states[-1] == 0
            assert path.size >= 2

    def test_extinction_frequency(self):
        lam, i0 = 1.4, 1
        rng = replicate_rng(11, 0)
        ext = np.mean([gw_simulate(lam, i0, rng).extinct
                       for _ in range(20000)])
        ref = extinction_prob(lam) ** i0
        assert abs(ext - ref) < 4 * math.sqrt(ref * (1 - ref) / 20000)

    def test_escape_flag(self):
        path = gw_simulate(3.0, 100, replicate_rng(0, 0),
                           explosion_cap=1000)
        assert path.escaped
        assert not path.extinct

    def test_rejects_bad_parameters(self):
        rng = replicate_rng(0, 0)
        for lam, i0 in ((0.0, 1), (-0.5, 1), (0.8, 0), (0.8, -1)):
            with pytest.raises(ValueError):
                gw_simulate(lam, i0, rng)
        # refused before any draw
        assert rng.random() == replicate_rng(0, 0).random()


class TestGwExtinctBy:
    def test_iterated_generating_function(self):
        lam = 0.8
        s = 0.0
        for m in range(1, 6):
            s = math.exp(lam * (s - 1.0))
            assert gw_extinct_by(lam, 1, m) == pytest.approx(s)
            assert gw_extinct_by(lam, 3, m) == pytest.approx(s ** 3)

    def test_limits(self):
        assert gw_extinct_by(0.5, 1, 0) == 0.0
        assert gw_extinct_by(0.5, 1, 500) == pytest.approx(1.0, abs=1e-12)
        assert gw_extinct_by(1.5, 1, 500) == pytest.approx(
            extinction_prob(1.5), abs=1e-12)

    def test_matches_monte_carlo(self):
        lam, i0, m = 1.0, 1, 3
        rng = replicate_rng(8, 0)
        frac = np.mean([gw_simulate(lam, i0, rng, max_steps=m).extinct
                        for _ in range(20000)])
        ref = gw_extinct_by(lam, i0, m)
        assert abs(frac - ref) < 4 * math.sqrt(ref * (1 - ref) / 20000)


class TestAgrestiBounds:
    def test_tail_weights(self):
        assert duration_tail_s(1.0) == 1.0
        assert duration_tail_r(1.0) == 1.0
        assert duration_tail_s(0.5) == 3.0
        assert duration_tail_r(0.5) == pytest.approx(
            0.5 * math.exp(-0.5) / (math.exp(-0.5) - 0.5))

    def test_critical_closed_form(self):
        lo, hi = agresti_duration_bounds(1.0, 2, 5)
        assert lo == pytest.approx((5 / 7) ** 2)
        assert hi == pytest.approx((5 / (4 + math.e)) ** 2)

    @pytest.mark.parametrize("c", [0.5, 0.9, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("i0", [1, 3])
    def test_sandwich_contains_exact_value(self, c, i0):
        for m in range(1, 21):
            lo, hi = agresti_duration_bounds(c, i0, m)
            assert lo <= hi + 1e-15
            exact = gw_extinct_by(c, i0, m)
            assert lo - 1e-12 <= exact <= hi + 1e-12

    def test_upper_exact_at_horizon_one(self):
        # the geometric weighting is tight after a single generation
        for c in (0.5, 1.0, 2.0):
            _, hi = agresti_duration_bounds(c, 1, 1)
            assert hi == pytest.approx(gw_extinct_by(c, 1, 1), rel=1e-12)

    def test_bounds_converge_to_extinction_prob(self):
        lo, hi = agresti_duration_bounds(1.6, 1, 400)
        a = extinction_prob(1.6)
        assert lo == pytest.approx(a, abs=1e-10)
        assert hi == pytest.approx(a, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            agresti_duration_bounds(0.5, 1, 0)
        with pytest.raises(ValueError):
            agresti_duration_bounds(-1.0, 1, 1)


class TestLindvallMaxBound:
    def test_critical_and_subcritical_forms(self):
        assert lindvall_max_bound(1.0, 2, 10) == pytest.approx(0.2)
        a = extinction_prob(0.5)
        assert lindvall_max_bound(0.5, 1, 4) == pytest.approx(
            (a - 1.0) / (a ** 4 - 1.0))

    def test_finite_at_high_levels(self):
        # alpha_0.5**800 overflows a float; the ratio is about 3.5**-799
        v = lindvall_max_bound(0.5, 1, 800)
        assert math.isfinite(v) and 0.0 <= v < 1e-300

    def test_dominates_monte_carlo_reach(self):
        lam, i0, m = 0.8, 1, 6
        rng = replicate_rng(21, 0)
        frac = np.mean([gw_simulate(lam, i0, rng).max >= m
                        for _ in range(20000)])
        assert frac <= lindvall_max_bound(lam, i0, m) + 0.01

    def test_rejects_supercritical_and_bad_levels(self):
        with pytest.raises(ValueError):
            lindvall_max_bound(1.5, 1, 5)
        with pytest.raises(ValueError):
            lindvall_max_bound(0.5, 3, 3)
