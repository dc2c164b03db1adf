"""Kernel and simulator tests for the count- and set-level chains."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from avalanche.model import (ModelParams, Trajectory, conditional_moments,
                             excite_probability, kernel_pmf,
                             kernel_pmf_exact, kernel_row, run_block,
                             simulate_count, simulate_set, step_count)
from avalanche.model import _SCALAR_TAIL
from avalanche.rng import replicate_rng


class TestModelParams:
    def test_derived_quantities(self):
        params = ModelParams(100, 0.01)
        assert params.q == 0.99
        assert params.c == pytest.approx(1.0)
        assert params.alpha == pytest.approx(-100 * math.log(0.99))
        assert params.alpha > params.c

    def test_from_intensity_round_trip(self):
        params = ModelParams.from_intensity(250, 1.3)
        assert params.c == pytest.approx(1.3)
        assert params.n == 250

    @pytest.mark.parametrize("n,p", [(2, 0.5), (10, 0.0), (10, 1.0),
                                     (10, -0.1), (10, 1.5)])
    def test_rejects_bad_parameters(self, n, p):
        with pytest.raises(ValueError):
            ModelParams(n, p)


class TestExciteProbability:
    def test_matches_direct_formula(self):
        params = ModelParams(50, 0.3)
        for i in range(51):
            assert excite_probability(params, i) == pytest.approx(
                1.0 - 0.7 ** i, rel=1e-14)

    def test_accurate_for_tiny_p(self):
        # 1 - (1-p)**i loses digits in naive arithmetic when p*i is tiny
        params = ModelParams(10 ** 6, 1e-12)
        s = excite_probability(params, 3)
        assert s == pytest.approx(3e-12, rel=1e-9)

    def test_rejects_out_of_range_state(self):
        params = ModelParams(10, 0.1)
        with pytest.raises(ValueError):
            excite_probability(params, 11)


class TestKernel:
    @given(n=st.integers(3, 40), pnum=st.integers(1, 99),
           i=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_row_is_a_pmf(self, n, pnum, i):
        i = min(i, n)
        params = ModelParams(n, pnum / 100.0)
        row = kernel_row(params, i)
        assert row.shape == (n + 1,)
        assert np.all(row >= 0.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        # states above n - i are unreachable
        assert np.all(row[n - i + 1:] == 0.0)

    def test_pmf_matches_row(self):
        params = ModelParams(17, 0.23)
        for i in range(18):
            row = kernel_row(params, i)
            for j in range(18):
                assert kernel_pmf(params, i, j) == pytest.approx(
                    row[j], rel=1e-12, abs=1e-300)

    def test_matches_scipy_binomial(self):
        params = ModelParams(30, 0.07)
        for i in (1, 5, 15, 29):
            s = excite_probability(params, i)
            expected = binom.pmf(np.arange(31), 30 - i, s)
            np.testing.assert_allclose(kernel_row(params, i)[: 31 - i],
                                       expected[: 31 - i],
                                       rtol=1e-10, atol=1e-300)

    def test_rational_oracle(self):
        # the Fraction evaluation uses the exact binary value of p, so
        # the float kernel must agree to near machine precision
        params = ModelParams(12, 0.3)
        for i in range(1, 12):
            for j in range(13):
                exact = kernel_pmf_exact(params, i, j)
                assert kernel_pmf(params, i, j) == pytest.approx(
                    float(exact), rel=1e-12, abs=1e-300)

    def test_rational_rows_sum_to_one_exactly(self):
        params = ModelParams(9, 0.125)
        for i in range(10):
            total = sum(kernel_pmf_exact(params, i, j) for j in range(10))
            assert total == Fraction(1)

    def test_rational_mode_capped(self):
        with pytest.raises(ValueError):
            kernel_pmf_exact(ModelParams(65, 0.1), 1, 0)

    def test_absorbing_state(self):
        params = ModelParams(8, 0.4)
        row = kernel_row(params, 0)
        assert row[0] == 1.0
        assert row.sum() == 1.0

    def test_no_underflow_for_large_n(self):
        params = ModelParams.from_intensity(1500, 0.9)
        row = kernel_row(params, 750)
        assert np.isfinite(row).all()
        assert row.sum() == pytest.approx(1.0, abs=1e-10)


class TestConditionalMoments:
    def test_matches_kernel_row(self):
        params = ModelParams(25, 0.11)
        j = np.arange(26, dtype=float)
        for i in range(26):
            row = kernel_row(params, i)
            mean, second = conditional_moments(params, i)
            assert mean == pytest.approx(float(row @ j), abs=1e-10)
            assert second == pytest.approx(float(row @ j ** 2), abs=1e-8)

    def test_supermartingale_direction(self):
        # E(X_{k+1} | X_k = i) <= c*i since 1 - q**i <= p*i
        params = ModelParams.from_intensity(80, 1.7)
        for i in range(1, 80):
            mean, _ = conditional_moments(params, i)
            assert mean <= params.c * i + 1e-9


class TestSimulation:
    def test_count_chain_absorbs(self):
        params = ModelParams.from_intensity(60, 0.8)
        rng = replicate_rng(7, 0)
        for _ in range(50):
            t = simulate_count(params, 3, rng)
            assert not t.truncated
            assert t.states[0] == 3
            assert t.states[-1] == 0
            assert np.all(t.states[:-1] > 0)
            assert t.duration == len(t.states) - 1
            assert t.size == int(t.states.sum())
            assert t.max == int(t.states.max())

    def test_reproducible_given_stream(self):
        params = ModelParams.from_intensity(100, 1.2)
        a = simulate_count(params, 2, replicate_rng(123, 5))
        b = simulate_count(params, 2, replicate_rng(123, 5))
        np.testing.assert_array_equal(a.states, b.states)

    def test_truncation_flag(self):
        params = ModelParams.from_intensity(100, 5.0)
        t = simulate_count(params, 50, replicate_rng(1, 0), max_steps=1)
        # one step cannot absorb a half-full strongly supercritical chain
        assert t.truncated or t.states[-1] == 0

    @pytest.mark.parametrize("n,c,i0,max_steps", [(60, 1.2, 2, 10 ** 6),
                                                  (100, 5.0, 50, 3)])
    def test_scalar_block_replays_simulate_count(self, n, c, i0, max_steps):
        # a block no larger than the scalar tail steps each replicate in
        # turn, with the same draws simulate_count makes
        params = ModelParams.from_intensity(n, c)
        rows = run_block(params, i0, _SCALAR_TAIL, replicate_rng(3, 0),
                         max_steps)
        rng = replicate_rng(3, 0)
        for row in rows:
            t = simulate_count(params, i0, rng, max_steps)
            assert tuple(row) == (t.duration, t.size, t.max,
                                  int(t.truncated))

    def test_run_block_rejects_absorbed_or_full_start(self):
        params = ModelParams(10, 0.1)
        for i0 in (0, 10):
            with pytest.raises(ValueError):
                run_block(params, i0, 5, replicate_rng(0, 0))

    def test_step_count_edges(self):
        params = ModelParams(10, 0.5)
        rng = replicate_rng(0, 0)
        assert step_count(params, 0, rng) == 0
        assert step_count(params, 10, rng) == 0

    def test_heterogeneity(self):
        t = Trajectory(np.array([2, 5, 0]))
        np.testing.assert_array_equal(t.heterogeneity(10),
                                      np.array([16, 25, 0]))

    def test_set_chain_cardinality_is_count_chain(self):
        params = ModelParams(20, 0.08)
        rng = replicate_rng(99, 0)
        path = simulate_set(params, frozenset({1, 5, 9}), rng)
        sizes = [len(a) for a in path]
        assert sizes[0] == 3
        assert sizes[-1] == 0 or len(path) > 10 ** 6
        for a in path:
            assert all(1 <= v <= 20 for v in a)
        # no state after extinction
        assert all(s > 0 for s in sizes[:-1])

    def test_set_chain_mean_matches_kernel(self):
        # cardinality one-step mean must match the count kernel mean
        params = ModelParams(15, 0.1)
        rng = replicate_rng(5, 0)
        i = 4
        draws = [len(simulate_set(params, frozenset(range(1, i + 1)),
                                  rng, max_steps=1)[1])
                 for _ in range(4000)]
        mean, second = conditional_moments(params, i)
        var = second - mean ** 2
        stderr = math.sqrt(var / len(draws))
        assert abs(np.mean(draws) - mean) < 4 * stderr + 1e-9

    def test_set_chain_rejects_bad_input(self):
        params = ModelParams(10, 0.2)
        rng = replicate_rng(0, 0)
        with pytest.raises(ValueError):
            simulate_set(params, frozenset(), rng)
        with pytest.raises(ValueError):
            simulate_set(params, frozenset({0, 1}), rng)
        with pytest.raises(ValueError):
            simulate_set(params, frozenset(range(1, 11)), rng)
