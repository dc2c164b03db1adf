"""Arbitrary-precision absorbing-chain analytics tests."""

import math

import mpmath as mp
import numpy as np
import pytest

from avalanche.exact import (MAX_EXACT_N, PrecisionConfig,
                             SubstochasticSystem, build_q_float,
                             duration_survival, expected_duration,
                             expected_duration_float, expected_size,
                             expected_size_float, max_distribution,
                             max_survival, reach_probability)
from avalanche.model import ModelParams, kernel_row


def small_system(n=20, c=0.9, digits=60):
    params = ModelParams.from_intensity(n, c)
    return SubstochasticSystem(params, PrecisionConfig(digits))


class TestPrecisionConfig:
    def test_default_tolerance(self):
        cfg = PrecisionConfig(100)
        assert cfg.tol() == mp.mpf(10) ** -50
        assert cfg.tol(200) == mp.mpf(10) ** -100

    def test_explicit_tolerance_wins(self):
        cfg = PrecisionConfig(100, residual_tol=1e-30)
        assert cfg.tol() == mp.mpf(1e-30)

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            PrecisionConfig(10)


class TestRows:
    def test_rows_match_float_kernel(self):
        system = small_system()
        params = system.params
        for i in range(1, 20):
            ref = kernel_row(params, i)
            row = system.row(i)
            assert len(row) == 20 - i + 1
            for j, v in enumerate(row):
                assert float(v) == pytest.approx(ref[j], rel=1e-11,
                                                 abs=1e-300)

    def test_rows_sum_to_one(self):
        system = small_system(n=30, c=1.4)
        with mp.workdps(70):
            for i in (1, 7, 29):
                total = mp.fsum(system.row(i))
                assert abs(total - 1) < mp.mpf(10) ** -55

    def test_row_caching(self):
        system = small_system()
        assert system.row(3) is system.row(3)

    def test_state_validation(self):
        system = small_system()
        with pytest.raises(ValueError):
            system.row(0)
        with pytest.raises(ValueError):
            system.row(20)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            SubstochasticSystem(ModelParams(MAX_EXACT_N + 1, 0.001))


class TestHandOracle:
    """n = 3, p = 1/2: the 2x2 transient system is solvable by hand.

    From state 1 the next count is Bin(2, 1/2), from state 2 it is
    Bin(1, 3/4), so Q = [[1/2, 1/4], [3/4, 0]] over states {1, 2}.
    (I-Q)x = e gives E(T|1) = E(T|2) = 4, and (I-Q)s = (1,2)' gives
    E(S|1) = 24/5, E(S|2) = 28/5.
    """

    def test_expected_duration(self):
        system = SubstochasticSystem(ModelParams(3, 0.5),
                                     PrecisionConfig(60))
        et = expected_duration(system)
        with mp.workdps(70):
            assert abs(et[0] - 4) < mp.mpf(10) ** -30
            assert abs(et[1] - 4) < mp.mpf(10) ** -30

    def test_expected_size(self):
        system = SubstochasticSystem(ModelParams(3, 0.5),
                                     PrecisionConfig(60))
        es = expected_size(system)
        with mp.workdps(70):
            assert abs(5 * es[0] - 24) < mp.mpf(10) ** -30
            assert abs(5 * es[1] - 28) < mp.mpf(10) ** -30


class TestSolves:
    def test_duration_agrees_with_float_solver(self):
        params = ModelParams.from_intensity(50, 1.2)
        system = SubstochasticSystem(params, PrecisionConfig(60))
        et = expected_duration(system)
        ref = expected_duration_float(params)
        np.testing.assert_allclose([float(v) for v in et], ref, rtol=1e-10)

    def test_size_agrees_with_float_solver(self):
        params = ModelParams.from_intensity(50, 0.7)
        system = SubstochasticSystem(params, PrecisionConfig(60))
        es = expected_size(system)
        ref = expected_size_float(params)
        np.testing.assert_allclose([float(v) for v in es], ref, rtol=1e-10)

    def test_frozen_regression_value(self):
        # frozen from an independent 400-digit run of the same system
        params = ModelParams.from_intensity(100, 0.9)
        system = SubstochasticSystem(params, PrecisionConfig(60))
        et = expected_duration(system)
        assert float(et[0]) == pytest.approx(3.63043253963, abs=1e-9)

    def test_size_at_least_duration_floor(self):
        system = small_system(n=25, c=1.1)
        es = expected_size(system)
        for i, v in enumerate(es, start=1):
            assert v >= i

    def test_duration_monotone_in_c(self):
        # at fixed small i0 a hotter chain lives longer
        values = []
        for c in (0.5, 0.9, 1.3):
            et = expected_duration(small_system(n=30, c=c))
            values.append(float(et[0]))
        assert values[0] < values[1] < values[2]


class TestSurvival:
    def test_m_zero_is_one(self):
        system = small_system()
        assert all(v == 1 for v in duration_survival(system, 0))

    def test_decreasing_in_m(self):
        system = small_system(n=15, c=1.0)
        prev = duration_survival(system, 0)
        for m in range(1, 6):
            cur = duration_survival(system, m)
            assert all(b <= a for a, b in zip(prev, cur))
            prev = cur

    def test_sums_to_expected_duration(self):
        # E(T) = sum_m P(T > m); the tail is geometric so 200 terms do
        system = small_system(n=10, c=0.6, digits=60)
        with mp.workdps(70):
            acc = [mp.mpf(0)] * 9
            for m in range(200):
                acc = [a + v
                       for a, v in zip(acc, duration_survival(system, m))]
            et = expected_duration(system)
            for a, e in zip(acc, et):
                # the truncated geometric tail caps the agreement
                assert abs(a - e) < mp.mpf(10) ** -40


class TestReachAndMax:
    def test_level_one_empty(self):
        assert reach_probability(small_system(), 1) == []

    def test_monotone_in_start(self):
        system = small_system(n=30, c=1.2)
        h = reach_probability(system, 12)
        assert all(0 <= v <= 1 for v in h)
        assert all(a <= b for a, b in zip(h, h[1:]))

    def test_max_survival_edges(self):
        system = small_system(n=15, c=1.0)
        vals = max_survival(system, 3, [1, 3, 16, 20])
        assert vals[0] == 1 and vals[1] == 1
        assert vals[2] == 0 and vals[3] == 0

    def test_max_distribution_is_pmf(self):
        system = small_system(n=15, c=1.0)
        pmf = max_distribution(system, 2)
        assert all(v >= 0 for v in pmf)
        assert all(v == 0 for v in pmf[:2])
        assert abs(mp.fsum(pmf) - 1) < 1e-30

    def test_max_distribution_sums_to_one_at_working_precision(self):
        system = small_system(n=10, c=1.0)
        pmf = max_distribution(system, 1)
        with mp.workdps(60):
            assert abs(mp.fsum(pmf) - 1) < mp.mpf(10) ** -30

    def test_reach_vs_brute_force_power(self):
        # P(max >= J) = lim_m P(hit [J, n] within m steps); iterate the
        # absorbing-at-J kernel as an independent comparator
        params = ModelParams.from_intensity(12, 1.1)
        system = SubstochasticSystem(params, PrecisionConfig(60))
        j_level = 6
        h = reach_probability(system, j_level)
        rows = [kernel_row(params, i) for i in range(1, j_level)]
        hit = np.array([r[j_level:].sum() for r in rows])
        q = np.array([r[1: j_level] for r in rows])
        acc = hit.copy()
        for _ in range(500):
            acc = hit + q @ acc
        np.testing.assert_allclose([float(v) for v in h], acc, rtol=1e-10)


class TestFloatShortcuts:
    def test_ill_conditioned_supercritical_solve_raises(self):
        # float64 returned E(T|1) = -7.7e13 here
        params = ModelParams.from_intensity(200, 2.0)
        for solve in (expected_duration_float, expected_size_float):
            with pytest.raises(ArithmeticError):
                solve(params)

    def test_q_matrix_shape_and_mass(self):
        params = ModelParams.from_intensity(40, 1.0)
        q = build_q_float(params)
        assert q.shape == (39, 39)
        assert (q.sum(axis=1) <= 1.0 + 1e-12).all()

    def test_duration_identity_one_step(self):
        # E(T|i) = 1 + sum_j Q(i,j) E(T|j)
        params = ModelParams.from_intensity(40, 0.9)
        q = build_q_float(params)
        et = expected_duration_float(params)
        np.testing.assert_allclose(et, 1.0 + q @ et, rtol=1e-9)

    def test_size_identity_one_step(self):
        params = ModelParams.from_intensity(40, 0.9)
        q = build_q_float(params)
        es = expected_size_float(params)
        i = np.arange(1.0, 40.0)
        np.testing.assert_allclose(es, i + q @ es, rtol=1e-9)
