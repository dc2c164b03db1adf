"""Tests for the analytical-bound catalog and the report records."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from avalanche import bounds as bc
from avalanche.branching import (agresti_duration_bounds, extinction_prob,
                                 gw_extinct_by)
from avalanche.exact import build_q_float, expected_size_float, q_powers
from avalanche.harness import kernel_power_mean, reach_probability_float
from avalanche.model import ModelParams


class TestBoundReport:
    def test_holds_inside(self):
        rep = bc.BoundReport("b", {}, lower=0.0, upper=1.0,
                             reference_value=0.5).judge()
        assert rep.satisfied == bc.HOLDS

    def test_violated_outside_error_bar(self):
        rep = bc.BoundReport("b", {}, upper=1.0, reference_value=1.2,
                             reference_error=0.1).judge()
        assert rep.satisfied == bc.VIOLATED

    def test_inconclusive_straddling_endpoint(self):
        rep = bc.BoundReport("b", {}, upper=1.0, reference_value=1.05,
                             reference_error=0.1).judge()
        assert rep.satisfied == bc.INCONCLUSIVE

    def test_exact_value_on_endpoint_holds(self):
        rep = bc.BoundReport("b", {}, lower=0.0, upper=1.0,
                             reference_value=1.0).judge()
        assert rep.satisfied == bc.HOLDS

    def test_missing_reference_is_inconclusive(self):
        rep = bc.BoundReport("b", {}, upper=1.0).judge()
        assert rep.satisfied == bc.INCONCLUSIVE

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            bc.BoundReport("b", {}, lower=1.0, upper=0.0)

    @pytest.mark.parametrize("ends", [{"upper": math.nan},
                                      {"lower": math.nan},
                                      {"lower": math.nan, "upper": 1.0}])
    def test_rejects_nan_bound(self, ends):
        with pytest.raises(ValueError, match="crossed or NaN"):
            bc.BoundReport("b", {}, reference_value=0.5, **ends)

    @pytest.mark.parametrize("value,error", [(math.nan, 0.0), (0.5, math.nan)])
    def test_nan_reference_or_error_is_inconclusive(self, value, error):
        rep = bc.BoundReport("b", {}, lower=0.0, upper=1.0,
                             reference_value=value, reference_error=error)
        assert rep.satisfied == bc.INCONCLUSIVE
        assert rep.judge().satisfied == bc.INCONCLUSIVE

    def test_judged_when_built_and_when_replaced(self):
        rep = bc.BoundReport("b", {}, upper=1.0, reference_value=1.2)
        assert rep.satisfied == bc.VIOLATED
        held = dataclasses.replace(rep, reference_value=0.5)
        assert held.satisfied == bc.HOLDS and rep.satisfied == bc.VIOLATED

    def test_to_dict_round_trip(self):
        rep = bc.BoundReport("b", {"n": 5}, upper=1.0, partial=True,
                             note="x")
        d = rep.to_dict()
        assert d["name"] == "b" and d["partial"] and d["note"] == "x"


class TestDecayAndSurvival:
    def test_mean_decay_dominates_exact_mean(self):
        params = ModelParams.from_intensity(60, 1.3)
        for i0 in (1, 3):
            eh0 = i0 * (60 - i0)
            for k in (1, 2, 4):
                exact = kernel_power_mean(params, i0, k)
                assert exact <= bc.mean_decay_bound(params, eh0, k) + 1e-9

    def test_survival_pair(self):
        params = ModelParams.from_intensity(50, 0.8)
        eh0 = 1 * 49
        naive, refined = bc.survival_bounds(params, eh0, 3)
        assert 0.0 < naive <= 1.0
        assert refined == bc.mean_decay_bound(params, eh0, 3)

    def test_rejects_k_zero(self):
        params = ModelParams.from_intensity(50, 0.8)
        with pytest.raises(ValueError):
            bc.mean_decay_bound(params, 49, 0)


class TestSizeBounds:
    def test_reference_example(self):
        # n=200, c=d=0.5, i0=1: lower = 2 - 3/25 = 1.88, upper = 2
        params = ModelParams.from_intensity(200, 0.5)
        lo, hi = bc.size_bounds_single(params, 1.0, 1.0, 0.5)
        assert lo == pytest.approx(1.88)
        assert hi == pytest.approx(2.0)

    def test_exact_size_inside(self):
        params = ModelParams.from_intensity(200, 0.5)
        lo, hi = bc.size_bounds_single(params, 1.0, 1.0, 0.5)
        es = expected_size_float(params)[0]
        assert lo <= es <= hi

    def test_rejects_supercritical(self):
        params = ModelParams.from_intensity(100, 1.2)
        with pytest.raises(ValueError):
            bc.size_bounds_single(params, 1.0, 1.0, 1.0)


class TestSizeLimit:
    def test_stated_closed_form(self):
        assert bc.size_limit_correction(0.5, 1) == pytest.approx(2.0)
        assert bc.size_limit_correction(0.5, 2) == pytest.approx(6.0)

    def test_vanishes_at_zero_intensity(self):
        assert bc.size_limit_correction(1e-9, 1) == pytest.approx(0.0,
                                                                  abs=1e-8)
        assert bc.size_limit_second_order(1e-9, 1) == pytest.approx(0.0,
                                                                    abs=1e-8)

    def test_second_order_values(self):
        assert bc.size_limit_second_order(0.5, 1) == pytest.approx(17 / 6)
        assert bc.size_limit_second_order(0.5, 2) == pytest.approx(9.0)

    @pytest.mark.parametrize("lam,i0", [(0.5, 1), (0.5, 2), (0.3, 1)])
    def test_exact_solves_converge_to_second_order_form(self, lam, i0):
        target = bc.size_limit_second_order(lam, i0)
        gaps = []
        for n in (50, 100, 200):
            es = expected_size_float(ModelParams.from_intensity(n, lam))
            gaps.append(abs(n * (i0 / (1 - lam) - es[i0 - 1]) - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * max(abs(target), 1.0)

    def test_rejects_critical(self):
        with pytest.raises(ValueError):
            bc.size_limit_correction(1.0, 1)
        with pytest.raises(ValueError):
            bc.size_limit_second_order(1.0, 1)


class TestReachBounds:
    def test_rho_limits(self):
        # rho decreases toward alpha_d as eps shrinks
        rhos = [bc.rho_epsilon(2.0, eps) for eps in (0.3, 0.2, 0.1, 0.01)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] == pytest.approx(extinction_prob(2.0), abs=2e-2)
        assert bc.rho_epsilon(2.0, 1e-4) == pytest.approx(
            extinction_prob(2.0), abs=3e-4)

    def test_rho_rejects_inadmissible_eps(self):
        with pytest.raises(ValueError):
            bc.rho_epsilon(1.05, 0.9)
        with pytest.raises(ValueError):
            bc.rho_epsilon(0.9, 0.1)

    def test_eps_gamma_formula(self):
        assert bc.eps_gamma(2.0, 0.25) == pytest.approx(
            (1 - math.exp(-0.5)) / 0.25)

    def test_sandwich_contains_exact_reach(self):
        params = ModelParams.from_intensity(200, 1.5)
        eps = 0.1
        level = int(200 * eps)
        h = reach_probability_float(params, level)
        for i in (1, 2, 3):
            lo, hi = bc.reach_bounds_single(params, 1.5, eps, i)
            assert lo - 1e-9 <= h[i - 1] <= hi + 1e-9

    def test_rejects_start_at_level(self):
        params = ModelParams.from_intensity(100, 1.5)
        with pytest.raises(ValueError):
            bc.reach_bounds_single(params, 1.5, 0.1, 10)


class TestDurationBounds:
    def test_regime_dispatch_names(self):
        sub = bc.duration_bounds_single(
            ModelParams.from_intensity(100, 0.5), 1, 3)
        crit = bc.duration_bounds_single(
            ModelParams.from_intensity(100, 1.0), 1, 3)
        sup = bc.duration_bounds_single(
            ModelParams.from_intensity(100, 1.5), 1, 3)
        assert sub.name == "duration_single_subcritical"
        assert crit.name == "duration_single_critical"
        assert sup.name == "duration_single_supercritical"

    def test_supercritical_partial_without_tail_pair(self):
        params = ModelParams.from_intensity(100, 1.5)
        rep = bc.duration_bounds_single(params, 1, 3, level=5.0)
        assert rep.partial
        full = bc.duration_bounds_single(params, 1, 3, level=5.0,
                                         theta=1.0, k_const=2.0)
        assert not full.partial
        assert full.upper > rep.upper - 1e-12  # tail term only adds

    @pytest.mark.parametrize("c", [1.5, 2.0, 5.0])
    def test_supercritical_term_at_every_horizon(self, c):
        # c**m overflows a float from m = 1024/log2(c) on (m = 441 at
        # c = 5); at the default level x*c**m = n-1
        n = 2000
        params = ModelParams.from_intensity(n, c)
        for m in range(1, n):
            rep = bc.duration_bounds_single(params, 1, m)
            with mp.workdps(30):
                x = (n - 1) / mp.mpf(params.c) ** m
                err = 1.5 * mp.mpf(params.c) ** (1.5 * (m + 1)) * m \
                    * x ** 1.5 / n
            assert rep.inputs["x"] == pytest.approx(float(x), rel=1e-15)
            assert rep.upper - agresti_duration_bounds(params.c, 1, m)[1] \
                == pytest.approx(float(err), rel=1e-14)

    def test_supercritical_level_beyond_float_range(self):
        params = ModelParams.from_intensity(2000, 2.0)
        level = 1999 / 2.0 ** 700   # x*c**m = 1999; c**(1.5m) overflows
        rep = bc.duration_bounds_single(params, 1, 700, level=level)
        assert rep.inputs["x"] == level
        assert math.isfinite(rep.upper)
        with pytest.raises(ValueError, match="x\\*c\\*\\*m"):
            bc.duration_bounds_single(params, 1, 1500, level=5e-324)

    def test_critical_error_term(self):
        params = ModelParams.from_intensity(1000, 1.0)
        rep = bc.duration_bounds_single(params, 1, 3)
        expected_err = 1.5 * (3.0 * 3 / 1000) ** (1 / 3)
        lo, hi = gw_extinct_by(1.0, 1, 3), None
        assert rep.lower == pytest.approx(3 / 5)  # (m/(m+2))**i0
        assert rep.upper == pytest.approx(
            (3 / (2 + math.e)) ** 1 + expected_err)

    def test_exact_cdf_inside_envelope(self):
        for c in (0.5, 1.0, 1.5):
            params = ModelParams.from_intensity(150, c)
            q = build_q_float(params)
            v = np.ones(149)
            for m in range(1, 6):
                v = q @ v
                cdf = 1.0 - v[0]  # P(T <= m | X_0 = 1)
                rep = bc.duration_bounds_single(params, 1, m)
                assert rep.lower - 1e-9 <= cdf <= rep.upper + 1e-9

    @pytest.mark.parametrize("n", [600, 1000])
    def test_subcritical_envelope_at_large_n(self, n):
        # the coupling-error search runs J up to n, past where
        # alpha_0.5**J overflows a float
        params = ModelParams.from_intensity(n, 0.5)
        surv = q_powers(build_q_float(params), np.ones(n - 1), 5)
        for i0 in (1, 2):
            for m in (1, 3, 5):
                rep = bc.duration_bounds_single(params, i0, m)
                cdf = 1.0 - surv[m][i0 - 1]  # P(T <= m | X_0 = i0)
                assert rep.lower - 1e-9 <= cdf <= rep.upper + 1e-9

    def test_subcritical_level_is_the_loop_minimizer(self):
        # reference: the error term over every J in a Python loop, with a
        # ratio whose denominator overflows counted as 0
        for c in (0.3, 0.5, 0.8):
            a = extinction_prob(c)
            for n in (50, 200, 500):
                params = ModelParams.from_intensity(n, c)
                for i0 in (1, 2):
                    for m in (1, 3, 5):
                        errs = []
                        for j in range(i0 + 1, n):
                            try:
                                ratio = (a ** i0 - 1.0) / (a ** j - 1.0)
                            except OverflowError:
                                ratio = 0.0
                            errs.append(1.5 * c * m * j * j / n + ratio)
                        rep = bc.duration_bounds_single(params, i0, m)
                        assert rep.inputs["J"] == i0 + 1 + int(
                            np.argmin(errs))

    def test_ensemble_limits_are_branching_bounds(self):
        from avalanche.branching import agresti_duration_bounds
        assert bc.duration_limits_ensemble(0.8, 2, 4) \
            == agresti_duration_bounds(0.8, 2, 4)


class TestScaling:
    def test_limit_values(self):
        assert bc.duration_scaling_limit(1.5, 2) == pytest.approx(
            1.0 - extinction_prob(1.5) ** 2)
        assert bc.duration_scaling_limit(0.5, 1) == pytest.approx(
            math.log(0.5))
        assert bc.duration_scaling_limit(1.0, 3) == 6.0

    def test_schedule_guard_supercritical(self):
        lam = 1.5
        cap = 2.0 / (3.0 * math.log(lam))
        good = {100: int(0.5 * cap * math.log(100)) or 1,
                1000: int(0.5 * cap * math.log(1000)) or 1}
        bc.check_scaling_schedule(lam, good)
        with pytest.raises(ValueError):
            bc.check_scaling_schedule(lam, {100: 100})

    def test_schedule_guard_critical(self):
        bc.check_scaling_schedule(1.0, {100: 3, 10000: 5})
        with pytest.raises(ValueError):
            bc.check_scaling_schedule(1.0, {100: 3, 200: 10})

    def test_schedule_guard_subcritical(self):
        bc.check_scaling_schedule(0.5, {100: 3, 10000: 5})
        with pytest.raises(ValueError):
            bc.check_scaling_schedule(0.5, {100: 3, 200: 10})

    def test_scaling_check_judges_gap(self):
        lam, i0 = 1.5, 1
        limit = bc.duration_scaling_limit(lam, i0)
        schedule = {100: 3, 10000: 5}
        survival = {100: limit + 0.03, 10000: limit + 0.01}
        rep = bc.duration_scaling_check(lam, i0, schedule, survival)
        assert rep.satisfied == bc.HOLDS
        bad = {100: limit + 0.01, 10000: limit + 0.2}
        rep = bc.duration_scaling_check(lam, i0, schedule, bad)
        assert rep.satisfied == bc.VIOLATED

    @pytest.mark.parametrize("lam,survival_of", [
        (0.5, lambda m, v: math.exp(m * v)),  # v = log(P(T > m)) / m
        (1.0, lambda m, v: v / m)])           # v = m * P(T > m)
    def test_scaling_check_judges_gap_below_and_at_one(self, lam,
                                                       survival_of):
        i0 = 1
        limit = bc.duration_scaling_limit(lam, i0)
        schedule = {100: 3, 10000: 5}
        for gaps, verdict in (((0.03, 0.01), bc.HOLDS),
                              ((0.01, 0.2), bc.VIOLATED)):
            survival = {n: survival_of(m, limit + g)
                        for (n, m), g in zip(schedule.items(), gaps)}
            rep = bc.duration_scaling_check(lam, i0, schedule, survival)
            assert rep.satisfied == verdict


class TestMaxima:
    def test_critical_is_partial_with_slack(self):
        params = ModelParams.from_intensity(100, 1.0)
        rep = bc.maxima_bounds(params, 1, 10, eps_slack=0.25)
        assert rep.partial
        assert rep.upper == pytest.approx(0.1 * 1.25)

    def test_subcritical_needs_constant(self):
        params = ModelParams.from_intensity(100, 0.8)
        rep = bc.maxima_bounds(params, 1, 10)
        assert rep.partial and rep.upper is None
        with_b = bc.maxima_bounds(params, 1, 10, b_const=2.0)
        assert with_b.upper is not None

    @pytest.mark.parametrize("m", [1500, 1900])
    def test_subcritical_order_factor_at_large_m(self, m):
        # alpha_0.8**1900 overflows a float; B/(m*alpha**m) does not
        params = ModelParams.from_intensity(2000, 0.8)
        rep = bc.maxima_bounds(params, 1, m, b_const=2.0)
        a = mp.mpf(extinction_prob(0.8))
        ref = 2.0 * 1.1 / (m * a ** m)
        assert rep.upper == pytest.approx(float(ref), rel=1e-12,
                                           abs=0.0)

    def test_rejects_supercritical(self):
        params = ModelParams.from_intensity(100, 1.5)
        with pytest.raises(ValueError):
            bc.maxima_bounds(params, 1, 10)

    def test_growth_envelope(self):
        assert bc.max_mean_growth_bound(10) == pytest.approx(
            math.log(10) * 1.2)
        with pytest.raises(ValueError):
            bc.max_mean_growth_bound(1)
