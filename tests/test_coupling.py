"""Monotone and maximal coupling tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import binom, poisson

from avalanche import coupling
from avalanche.coupling import (CoupledPath, check_coupling_constant,
                                coupled_step_monotone, _maximal_tables,
                                _pad_pair, _poisson_pmf_truncated,
                                simulate_coupled,
                                step_coupled_maximal, step_divergence_bound,
                                tv_binomial_poisson, tv_exact,
                                tv_poisson_poisson)
from avalanche.model import ModelParams, excite_probability, kernel_row
from avalanche.rng import replicate_rng


class TestCouplingConstant:
    def test_accepts_matching_intensity(self):
        params = ModelParams.from_intensity(100, 1.2)
        # -log(1-p) <= c/(n-1) holds with the chain's own intensity
        # only if p is small enough; the standard choice passes here
        check_coupling_constant(params, 1.2 * 100 / 99 * 1.001)

    def test_rejects_too_small_constant(self):
        params = ModelParams.from_intensity(100, 1.2)
        with pytest.raises(ValueError):
            check_coupling_constant(params, 1.0)


class TestMonotoneCoupling:
    def test_pathwise_dominance(self):
        params = ModelParams.from_intensity(60, 0.9)
        c = params.alpha * (params.n - 1) / params.n  # safely admissible
        c = max(c, params.c) * 1.01
        rng = replicate_rng(17, 0)
        for r in range(300):
            path = simulate_coupled(params, c, 2, rng)
            assert path.dominated
            assert path.x_seq[0] == path.z_seq[0] == 2

    def test_stepwise_dominance_random_states(self):
        params = ModelParams.from_intensity(80, 1.1)
        c = params.c * 1.05
        rng = replicate_rng(29, 0)
        for _ in range(2000):
            x = int(rng.integers(0, 40))
            z = x + int(rng.integers(0, 10))
            xn, qn, zn = coupled_step_monotone(params, c, x, z, rng)
            assert xn <= qn <= zn

    def test_marginal_mean_of_x(self):
        # the x-marginal must be the avalanche kernel: check its mean
        params = ModelParams.from_intensity(50, 0.8)
        c = params.c * 1.05
        rng = replicate_rng(31, 0)
        i = 5
        draws = np.array([coupled_step_monotone(params, c, i, i, rng)[0]
                          for _ in range(20000)])
        j = np.arange(params.n + 1)
        ref = float(kernel_row(params, i) @ j)
        var = float(kernel_row(params, i) @ j ** 2) - ref ** 2
        assert abs(draws.mean() - ref) < 4 * math.sqrt(var / len(draws))

    def test_marginal_mean_of_z(self):
        # the z-marginal is Poisson(c*z)
        params = ModelParams.from_intensity(50, 0.8)
        c = params.c * 1.05
        rng = replicate_rng(37, 0)
        z0 = 7
        draws = np.array([coupled_step_monotone(params, c, 3, z0, rng)[2]
                          for _ in range(20000)])
        assert abs(draws.mean() - c * z0) < 4 * math.sqrt(
            c * z0 / len(draws))

    @pytest.mark.parametrize("x, z", [(2, 2), (2, 3), (0, 2)])
    def test_joint_law_is_the_per_node_construction(self, x, z):
        # exact pmf of (X', Q', Z' - Q') under the per-node construction,
        # by a dynamic program over the n-x resting nodes: each node draws
        # Y1 ~ Poisson(c*x/(n-x)) and Y2 ~ Poisson(c*(z-x)/(n-x)), and
        # fires iff Y1 > 0 and a Bernoulli(p_u) succeeds
        params = ModelParams.from_intensity(6, 1.2)
        c = params.alpha * 1.001
        m, top = params.n - x, 30
        k = np.arange(top + 1)
        p_u = excite_probability(params, x) / -math.expm1(-c * x / m) \
            if x else 0.0
        fire = np.where(k > 0, p_u, 0.0)
        y1, y2 = poisson.pmf(k, c * x / m), poisson.pmf(k, c * (z - x) / m)
        node = np.stack([np.outer(y1 * (1 - fire), y2),
                         np.outer(y1 * fire, y2)])
        ref = np.zeros((m + 1, top + 1, top + 1))
        ref[0, 0, 0] = 1.0
        for _ in range(m):
            new = np.zeros_like(ref)
            for e, a, b in zip(*np.nonzero(node > 1e-18)):
                new[e:, a:, b:] += node[e, a, b] \
                    * ref[: m + 1 - e, : top + 1 - a, : top + 1 - b]
            ref = new
        assert ref.sum() == pytest.approx(1.0, abs=1e-12)
        draws = 10 ** 5
        rng = replicate_rng(59, 10 * x + z)
        counts = np.zeros_like(ref)
        for _ in range(draws):
            xn, qn, zn = coupled_step_monotone(params, c, x, z, rng)
            counts[xn, qn, zn - qn] += 1
        cells = ref >= 1e-4
        se = np.sqrt(ref * (1 - ref) / draws)
        assert (np.abs(counts / draws - ref)[cells] < 5 * se[cells]).all()

    def test_rejects_inverted_states(self):
        params = ModelParams.from_intensity(50, 0.8)
        with pytest.raises(ValueError):
            coupled_step_monotone(params, 1.0, 5, 3, replicate_rng(0, 0))

    def test_dominated_property(self):
        good = CoupledPath(np.array([1, 0]), np.array([1, 1]),
                           np.array([1, 2]))
        bad = CoupledPath(np.array([1, 3]), np.array([1, 1]),
                          np.array([1, 2]))
        assert good.dominated
        assert not bad.dominated


class TestTvBounds:
    def test_exact_tv_properties(self):
        p1 = np.array([0.5, 0.5])
        p2 = np.array([0.25, 0.25, 0.5])
        assert tv_exact(p1, p1) == 0.0
        assert tv_exact(p1, p2) == pytest.approx(0.5)
        assert tv_exact(p1, p2) == pytest.approx(tv_exact(p2, p1))

    def test_binomial_poisson_bound_dominates(self):
        # the (p/2)*min(1, np) envelope applies in the moderate-np
        # regime the couplings operate in (np of order 1 and above)
        for m, p in [(200, 0.01), (100, 0.02), (400, 0.005), (300, 0.02)]:
            grid = np.arange(m + 1)
            true_tv = tv_exact(binom.pmf(grid, m, p),
                               poisson.pmf(np.arange(m + 1), m * p))
            assert true_tv <= tv_binomial_poisson(m, p) + 1e-12

    def test_poisson_poisson_bound_dominates(self):
        for mu, c in [(0.5, 0.6), (1.0, 1.3), (2.0, 2.5)]:
            grid = np.arange(100)
            true_tv = tv_exact(poisson.pmf(grid, mu), poisson.pmf(grid, c))
            assert true_tv <= tv_poisson_poisson(mu, c) + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tv_binomial_poisson(-1, 0.5)
        with pytest.raises(ValueError):
            tv_poisson_poisson(2.0, 1.0)

    def test_truncated_poisson_pmf(self):
        pmf = _poisson_pmf_truncated(3.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert _poisson_pmf_truncated(0.0).tolist() == [1.0]
        # cut and values as scipy.stats.poisson gives them
        for mean in np.geomspace(1e-6, 5000, 300):
            pmf = _poisson_pmf_truncated(mean)
            hi = int(poisson.isf(1e-12, mean)) + 1
            assert len(pmf) == hi + 1
            np.testing.assert_allclose(
                pmf, poisson.pmf(np.arange(hi + 1), mean), rtol=1e-13, atol=0)


class TestMaximalCoupling:
    def test_divergence_rate_equals_tv(self):
        params = ModelParams.from_intensity(60, 1.1)
        i = 4
        tv = tv_exact(kernel_row(params, i),
                      _poisson_pmf_truncated(params.c * i))
        rng = replicate_rng(43, 0)
        probes = 20000
        diverged = sum(step_coupled_maximal(params, i, rng)[2]
                       for _ in range(probes))
        rate = diverged / probes
        stderr = math.sqrt(tv * (1 - tv) / probes)
        assert abs(rate - tv) < 4 * stderr

    def test_glued_when_not_diverged(self):
        params = ModelParams.from_intensity(40, 0.9)
        rng = replicate_rng(47, 0)
        for _ in range(500):
            x, z, dv = step_coupled_maximal(params, 3, rng)
            if not dv:
                assert x == z
            else:
                assert x != z

    def test_marginal_of_x_is_kernel(self):
        params = ModelParams.from_intensity(40, 0.9)
        i = 3
        rng = replicate_rng(53, 0)
        draws = np.array([step_coupled_maximal(params, i, rng)[0]
                          for _ in range(20000)])
        row = kernel_row(params, i)
        j = np.arange(len(row))
        ref = float(row @ j)
        var = float(row @ j ** 2) - ref ** 2
        assert abs(draws.mean() - ref) < 4 * math.sqrt(var / len(draws))

    def test_zero_state_fixed(self):
        params = ModelParams.from_intensity(40, 0.9)
        assert step_coupled_maximal(params, 0, replicate_rng(0, 0)) \
            == (0, 0, False)

    def test_tv_below_divergence_envelope(self):
        for n, c, i in [(200, 0.8, 3), (200, 1.0, 4), (400, 1.5, 5)]:
            params = ModelParams.from_intensity(n, c)
            tv = tv_exact(kernel_row(params, i),
                          _poisson_pmf_truncated(c * i))
            assert tv <= step_divergence_bound(c, i, n) + 1e-12

    def test_envelope_formulas(self):
        assert step_divergence_bound(0.5, 2, 100) == pytest.approx(
            1.5 * 0.5 * 4 / 100)
        assert step_divergence_bound(2.0, 2, 100) == pytest.approx(
            1.5 * 2 ** 1.5 * 2 ** 1.5 / 100)


@pytest.fixture
def fresh_tables():
    _maximal_tables.cache_clear()
    yield
    _maximal_tables.cache_clear()


@pytest.mark.usefixtures("fresh_tables")
class TestMaximalTables:
    @pytest.mark.parametrize("n, c, i", [(100, 0.8, 2), (100, 1.2, 4),
                                         (60, 1.1, 4), (100, 50, 90),
                                         (2000, 0.5, 1)])
    def test_draws_are_the_per_call_choice_draws(self, n, c, i):
        # the construction the tables replace: pad, min, and rng.choice
        # on the overlap or on both residuals, from the same generator
        params = ModelParams.from_intensity(n, c)
        a, b = _pad_pair(kernel_row(params, i),
                         _poisson_pmf_truncated(params.c * i))
        overlap = np.minimum(a, b)
        omega = float(overlap.sum())
        res_a = np.clip(a - b, 0.0, None)
        res_b = np.clip(b - a, 0.0, None)

        def choice_probe(rng):
            if rng.random() < omega:
                v = int(rng.choice(len(a), p=overlap / omega))
                return v, v, False
            return (int(rng.choice(len(a), p=res_a / res_a.sum())),
                    int(rng.choice(len(a), p=res_b / res_b.sum())), True)

        probes = 20000
        ref_rng, rng = replicate_rng(61, n + i), replicate_rng(61, n + i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = [choice_probe(ref_rng) for _ in range(probes)]
            got = [step_coupled_maximal(params, i, rng)
                   for _ in range(probes)]
        assert got == ref
        if omega == 0.0:  # (100, 50, 90): the chains always come apart
            assert all(dv for _, _, dv in got)

    def test_tables_built_once_per_state(self, monkeypatch):
        calls = {"kernel_row": 0, "_poisson_pmf_truncated": 0}
        for name in calls:
            original = getattr(coupling, name)

            def counted(*args, _name=name, _fn=original):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(coupling, name, counted)
        params = ModelParams.from_intensity(100, 0.8)
        rng = replicate_rng(67, 0)
        for _ in range(1000):
            step_coupled_maximal(params, 2, rng)
        assert calls == {"kernel_row": 1, "_poisson_pmf_truncated": 1}

    def test_cache_stays_at_its_bound(self):
        bound = _maximal_tables.cache_info().maxsize
        params = ModelParams.from_intensity(100, 0.8)
        rng = replicate_rng(71, 0)
        for i in range(1, bound + 6):
            step_coupled_maximal(params, i, rng)
        assert _maximal_tables.cache_info().currsize == bound

    def test_state_outside_range_raises_every_call(self):
        params = ModelParams.from_intensity(40, 0.9)
        for i in (-1, 41, -1, 41):
            with pytest.raises(ValueError, match="outside"):
                step_coupled_maximal(params, i, replicate_rng(0, 0))
        info = _maximal_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 0, 0)

    def test_zero_overlap_stores_no_overlap_table(self):
        omega, glued, res_x, res_z = _maximal_tables(
            ModelParams.from_intensity(100, 50), 90)
        assert omega == 0.0 and glued is None
        assert res_x[-1] == res_z[-1] == 1.0

    def test_tiny_overlap_is_drawable(self):
        omega, glued, _, _ = _maximal_tables(
            ModelParams.from_intensity(20, 19), 10)
        assert 0.0 < omega < 1e-60
        assert glued[-1] == 1.0 and np.all(np.diff(glued) >= 0)

    def test_reachable_empty_residual_raises(self, monkeypatch):
        # a kernel row equal to the truncated Poisson pmf leaves both
        # residuals empty while the overlap mass stays below 1
        monkeypatch.setattr(coupling, "kernel_row",
                            lambda params, i: _poisson_pmf_truncated(
                                params.c * i))
        params = ModelParams.from_intensity(40, 0.9)
        assert _poisson_pmf_truncated(params.c * 3).sum() < 1.0
        for _ in range(2):
            with pytest.raises(ValueError, match="no mass"):
                step_coupled_maximal(params, 3, replicate_rng(0, 0))

    def test_tables_are_read_only_and_trimmed(self):
        omega, *tables = _maximal_tables(
            ModelParams.from_intensity(2000, 0.5), 1)
        for cdf in tables:
            assert not cdf.flags.writeable
            assert len(cdf) < 30
            assert cdf[-1] == 1.0 and (cdf[:-1] < 1.0).all()
            with pytest.raises(ValueError):
                cdf[0] = 0.5
