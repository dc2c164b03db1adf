"""Kernel and simulator tests for the count- and set-level chains."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from avalanche import exact, model
from avalanche.exact import (PrecisionConfig, SubstochasticSystem,
                             build_q_float, duration_survival,
                             expected_duration, expected_size,
                             reach_probability)
from avalanche.model import (ModelParams, excite_probability,
                             kernel_pmf_exact, kernel_row, kernel_rows,
                             lumped_rows, run_block, run_occupation,
                             simulate_count, simulate_set, step_count)
from avalanche.model import _POOL_CAP, _POOL_FIRST, _SCALAR_TAIL
from avalanche.rng import replicate_rng


class TestModelParams:
    def test_derived_quantities(self):
        params = ModelParams(100, 0.01)
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
                assert kernel_row(params, i)[j] == pytest.approx(
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


def _row_reference(params, i):
    """One kernel row by itself: the per-row formula the grid replaced."""
    n = params.n
    row = np.zeros(n + 1)
    if i == 0:
        row[0] = 1.0
        return row
    m = n - i
    s = excite_probability(params, i)
    j = np.arange(m + 1)
    logq_i = i * math.log1p(-params.p)
    with np.errstate(divide="ignore"):
        logp = (gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
                + j * np.log(s) + (m - j) * logq_i)
    row[: m + 1] = np.where(logp < -745.0, 0.0, np.exp(logp))
    return row


class TestKernelGrid:
    """Every float kernel row and Q is bit for bit the per-row formula;
    the refinement's float Q is the image of its own fixed-point rows."""

    GRID = [(n, c) for n in (3, 10, 30, 100, 257, 1000)
            for c in (0.3, 1.0, 2.5, 10.0) if c < n]

    @pytest.mark.parametrize("n,c", GRID)
    def test_rows_and_q_equal_the_row_formula(self, n, c):
        params = ModelParams.from_intensity(n, c)
        ref = np.array([_row_reference(params, i) for i in range(n + 1)])
        assert np.array_equal(kernel_rows(params, range(n + 1)), ref)
        assert all(np.array_equal(kernel_row(params, i), ref[i])
                   for i in range(n + 1))
        assert np.array_equal(build_q_float(params), ref[1:n, 1:n])
        assert np.array_equal(build_q_float(params, n // 2),
                              ref[1:n // 2 + 1, 1:n])
        # a column cap evaluates log(t!) only on the grid's window of t
        k = n // 3 + 1
        assert np.array_equal(kernel_rows(params, range(1, k), k),
                              ref[1:k, :k])

    @pytest.mark.parametrize("n,c", [(800, 0.5), (2000, 1.3)])
    def test_rows_with_the_most_cut_entries_equal_the_row_formula(self, n,
                                                                   c):
        # about half of these grids lies below the cut or off the support
        # and is never exponentiated
        params = ModelParams.from_intensity(n, c)
        rows = kernel_rows(params, range(n + 1))
        assert (rows == 0).mean() > 0.5
        assert np.array_equal(
            rows, np.array([_row_reference(params, i) for i in range(n + 1)]))

    @pytest.mark.parametrize("extra", [-1, 0, 1, model._GRID_ROWS + 7])
    def test_rows_in_any_order_over_blocks_equal_the_row_formula(self,
                                                                 extra):
        # n + 1 rows fill several blocks, the last one short or of one
        # row; each block's columns stop at its least state's support
        n = 2 * model._GRID_ROWS + extra
        params = ModelParams.from_intensity(n, 1.2)
        ref = np.array([_row_reference(params, i) for i in range(n + 1)])
        shuffled = np.random.default_rng(n).permutation(n + 1)
        assert np.array_equal(kernel_rows(params, shuffled), ref[shuffled])
        for ends in ([0, n], [n, 0], [n]):
            assert np.array_equal(kernel_rows(params, ends), ref[ends])
        # caps below the support of the first block's rows, which they
        # cut, and past the width of later blocks
        for width in (n // 3, n - model._GRID_ROWS + 2, n + 3):
            want = np.zeros((n + 1, width))
            want[:, :min(width, n + 1)] = ref[:, :width]
            assert np.array_equal(kernel_rows(params, range(n + 1), width),
                                  want)
            assert np.array_equal(kernel_rows(params, shuffled, width),
                                  want[shuffled])

    def test_q_build_peaks_below_twice_q(self):
        # the blocks are written into the result and Q is a view of it:
        # no full-size temporary or copy
        params = ModelParams.from_intensity(2000, 1.3)
        build_q_float(ModelParams(10, 0.1))   # scipy imported
        tracemalloc.start()
        try:
            q = build_q_float(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.shape == (1999, 1999)
        assert peak <= 2 * q.nbytes

    @pytest.mark.parametrize("states", [[-1], [0, 11], [3, 12]])
    def test_refuses_state_outside_range(self, states):
        with pytest.raises(ValueError, match=r"outside \[0, 10\]"):
            kernel_rows(ModelParams(10, 0.1), states)

    def test_refinement_q_is_the_fixed_point_rows(self, monkeypatch):
        # the inverse behind every correction is eliminated from the
        # fixed-point rows over 2**P, correctly rounded and flushed below
        # _TINY, with exit rates q**(i(n-i)) to 1 ulp, 1e-44 at n=200,
        # c=2 included; no solve reads build_q_float
        images = []
        gth = exact._gth_inverse
        monkeypatch.setattr(exact, "_gth_inverse",
                            lambda q, a: images.append((q, a)) or gth(q, a))
        monkeypatch.setattr(exact, "build_q_float", None)
        system = SubstochasticSystem(ModelParams.from_intensity(40, 1.1),
                                     PrecisionConfig(60))
        expected_duration(system)
        expected_size(system)
        assert not system._factors
        supercritical = SubstochasticSystem(
            ModelParams.from_intensity(200, 2.0), PrecisionConfig(60))
        supercritical.fixed_point_q()
        for (q, a), system in zip(images, [system, supercritical],
                                  strict=True):
            n = system.n
            scale, rows, _ = system.fixed_point_q()
            want = np.zeros((n - 1, n - 1))
            for i, row in enumerate(rows):
                want[i, :len(row)] = [float(Fraction(f, 2 ** scale))
                                      for f in row]
            assert np.array_equal(q, np.where(want < exact._TINY, 0.0, want))
            with mp.workprec(200):
                fail = 1 - mp.mpf(system.params.p)
                rates = [float(fail ** (i * (n - i))) for i in range(1, n)]
            np.testing.assert_allclose(a, rates, rtol=2 ** -52)
        assert min(a) < 1e-43


class TestConditionalMoments:
    def test_supermartingale_direction(self):
        # E(X_{k+1} | X_k = i) <= c*i since 1 - q**i <= p*i
        params = ModelParams.from_intensity(80, 1.7)
        j = np.arange(81, dtype=float)
        for i in range(1, 80):
            mean = float(kernel_row(params, i) @ j)
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

    @pytest.mark.parametrize("n,c,i0,max_steps,capped", [
        (60, 1.2, 2, 10 ** 6, True), (100, 5.0, 50, 3, False),
        (12, 2.0, 1, 10 ** 6, True)])
    def test_tail_block_draws_from_state_pools(self, n, c, i0, max_steps,
                                               capped):
        # a block no larger than the tail steps each replicate in turn;
        # state x's pool holds Binomial(n - x, 1 - q**x) draws, refilled
        # when empty by _POOL_FIRST draws, then twice the last fill up to
        # _POOL_CAP, and each step takes its next unused draw
        params = ModelParams.from_intensity(n, c)
        rows = run_block(params, i0, _SCALAR_TAIL, replicate_rng(3, 0),
                         max_steps)
        rng = replicate_rng(3, 0)
        pools, fills = {}, {}
        for row in rows:
            x, t, size, peak = i0, 0, i0, i0
            while x and t < max_steps:
                if not pools.get(x):
                    fills[x] = min(2 * fills.get(x, _POOL_FIRST // 2),
                                   _POOL_CAP)
                    pools[x] = rng.binomial(n - x, excite_probability(
                        params, x), fills[x]).tolist()
                x = pools[x].pop(0)
                t, size, peak = t + 1, size + x, max(peak, x)
            assert tuple(row) == (t, size, peak, int(x > 0))
        assert (max(fills.values()) == _POOL_CAP) == capped

    def test_tail_blocks_follow_the_exact_laws(self):
        # n = 12 has 11 transient states, so about 92% of the tail steps
        # come from refilled pools; the law of T and the mean of S must
        # not depend on how the draws are made
        params = ModelParams.from_intensity(12, 1.5)
        rows = np.concatenate([
            run_block(params, 1, _SCALAR_TAIL, replicate_rng(seed, 0),
                      10 ** 6) for seed in range(50000 // _SCALAR_TAIL)])
        system = SubstochasticSystem(params, PrecisionConfig(50))
        t = rows[:, 0]
        for m in range(1, 31):
            ref = float(duration_survival(system, m)[0])
            se = math.sqrt(ref * (1 - ref) / len(t))
            assert abs(np.mean(t > m) - ref) < 5 * se, m
        s = rows[:, 1]
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - float(expected_size(system)[0])) < 5 * se

    @pytest.mark.parametrize("n,c,i0,level,max_steps",
                             [(60, 1.2, 2, 10, 2000), (100, 1.5, 3, 10, 5)])
    def test_one_replicate_block_stops_at_the_level(self, n, c, i0, level,
                                                    max_steps):
        # reached, absorbed and (at the cap of 5) live replicates alike:
        # the one count sits where simulate_count's path from the same
        # generator state first enters {0} or [level, n]
        params = ModelParams.from_intensity(n, c)
        for seed in range(200):
            counts = run_occupation(params, i0, 1, replicate_rng(seed, 0),
                                    max_steps, level)
            states = simulate_count(params, i0, replicate_rng(seed, 0),
                                    max_steps).states
            stops = np.flatnonzero((states == 0) | (states >= level))
            last = states[stops[0]] if len(stops) else states[-1]
            assert np.flatnonzero(counts).tolist() == [min(last, level)]
            assert counts.sum() == 1

    def test_start_at_the_level_stops_without_a_draw(self, monkeypatch):
        # a table of 4 * 6 entries fits 40 replicates, but is not built
        def no_table(*args):
            raise AssertionError("a start at the level builds no table")

        monkeypatch.setattr(model, "lumped_rows", no_table)
        params = ModelParams.from_intensity(100, 1.5)
        for i0 in (5, 7):  # at and above the level
            rng = replicate_rng(0, 0)
            counts = run_occupation(params, i0, 40, rng, 10 ** 6, 5)
            assert counts.tolist() == [0, 0, 0, 0, 0, 40]
            assert rng.random() == replicate_rng(0, 0).random()

    def test_run_block_rejects_absorbed_or_full_start(self):
        params = ModelParams(10, 0.1)
        for i0 in (0, 10):
            with pytest.raises(ValueError):
                run_block(params, i0, 5, replicate_rng(0, 0), 10 ** 6)

    def test_step_count_edges(self):
        params = ModelParams(10, 0.5)
        rng = replicate_rng(0, 0)
        assert step_count(params, 0, rng) == 0
        assert step_count(params, 10, rng) == 0

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
        row, j = kernel_row(params, i), np.arange(16.0)
        mean = float(row @ j)
        var = float(row @ j ** 2) - mean ** 2
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


class _CountingRng:
    """A generator that counts the calls made to each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


class TestOccupation:
    """``run_occupation``: replicates as counts per state below a level."""

    def test_rejects_absorbed_or_full_start(self):
        params = ModelParams(10, 0.1)
        for i0 in (0, 10):
            with pytest.raises(ValueError):
                run_occupation(params, i0, 5, replicate_rng(0, 0), 10, 5)

    # (n, c, i0, level, replicates): 10**5 replicates against a table of
    # (level-1)(level+1) <= 399 entries take the multinomial mode; fewer
    # replicates than the table's entries take the per-replicate mode
    # throughout
    @pytest.mark.parametrize("n,c,i0,level,reps,multinomial", [
        (30, 1.2, 1, 10, 10 ** 5, True),
        (100, 0.8, 3, 8, 10 ** 5, True),
        (50, 2.0, 2, 20, 10 ** 5, True),
        (50, 2.0, 2, 20, 300, False),
        (200, 1.5, 2, 40, 10 ** 3, False),
        (200, 1.5, 2, 60, 10 ** 3, False)])
    def test_reached_share_is_the_exact_reach(self, n, c, i0, level, reps,
                                              multinomial):
        params = ModelParams.from_intensity(n, c)
        rng = _CountingRng(replicate_rng(17, 0))
        counts = run_occupation(params, i0, reps, rng, 10 ** 4, level)
        assert counts[1:level].sum() == 0
        assert ("multinomial" in rng.calls) == multinomial
        h = float(reach_probability(
            SubstochasticSystem(params, PrecisionConfig(60)), level)[i0 - 1])
        se = math.sqrt(h * (1 - h) / reps)
        assert abs(counts[level] / reps - h) < 5 * se

    @pytest.mark.parametrize("level,reps", [(10, 10 ** 4), (40, 10 ** 3)])
    def test_every_step_conserves_the_replicates(self, level, reps):
        # the run capped at t steps is the first t steps of the full run
        params = ModelParams.from_intensity(200, 1.5)
        before = np.zeros(level + 1, dtype=np.int64)
        for t in range(200):
            counts = run_occupation(params, 2, reps, replicate_rng(5, 0), t,
                                    level)
            assert counts.sum() == reps
            assert (counts >= 0).all()
            # absorbed and reached only grow
            assert counts[0] >= before[0] and counts[-1] >= before[-1]
            before = counts
            if not counts[1:level].any():
                break
        assert t > 3 and not counts[1:level].any()

    def test_lumped_rows_are_a_stochastic_table(self):
        # full rows at n=10**5, c=1.5 sum to 1 within 2.8e-10, past the
        # 1e-12 that Generator.multinomial allows
        params = ModelParams.from_intensity(10 ** 5, 1.5)
        table = lumped_rows(params, 100)
        assert table.shape == (99, 101)
        assert (table >= 0).all()
        assert (table[:, :-1].sum(axis=1) <= 1 + 1e-12).all()
        assert np.allclose(table.sum(axis=1), 1, rtol=0, atol=1e-9)
        rng = replicate_rng(0, 0)
        assert rng.multinomial(np.full(99, 10 ** 4), table).sum() == 99 * 10 ** 4

    @pytest.mark.parametrize("excess,raises", [(5e-9, False), (2e-8, True)])
    def test_lumped_rows_refuse_a_row_mass_past_1(self, excess, raises,
                                                  monkeypatch):
        grid = model.kernel_rows

        def inflated(*args):
            return grid(*args) * (1 + excess)

        monkeypatch.setattr(model, "kernel_rows", inflated)
        params = ModelParams.from_intensity(50, 0.5)
        if raises:
            with pytest.raises(ArithmeticError, match="row mass"):
                lumped_rows(params, 10)
        else:   # the heads past 1 are scaled to 1 and lose their tail
            table = lumped_rows(params, 10)
            over = inflated(params, range(1, 10), 10).sum(axis=1) > 1
            assert over.any()
            assert (table[:, :-1].sum(axis=1) <= 1 + 1e-12).all()
            assert (table[over, -1] == 0).all()
