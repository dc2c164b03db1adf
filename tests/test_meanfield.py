"""Mean-field map, fluctuation model, and concentration machinery tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from avalanche import meanfield as mf
from avalanche.rng import replicate_rng


class TestMap:
    @given(alpha=st.floats(0.1, 6.0), x=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_range_and_slope(self, alpha, x):
        val = float(mf.g(alpha, x))
        assert 0.0 <= val <= 1.0
        assert val <= min(1.0 - x, alpha * x) + 1e-12
        assert float(mf.dg(alpha, x)) > -1.0

    def test_derivative_matches_finite_difference(self):
        for alpha in (0.5, 1.5, 3.0):
            for x in (0.05, 0.3, 0.7):
                h = 1e-7
                fd = (mf.g(alpha, x + h) - mf.g(alpha, x - h)) / (2 * h)
                assert float(mf.dg(alpha, x)) == pytest.approx(float(fd),
                                                               abs=1e-6)

    def test_fixed_point(self):
        for alpha in (1.2, 2.0, 4.0):
            z = mf.fixed_point_zeta(alpha)
            assert 0.0 < z < 0.5
            assert float(mf.g(alpha, z)) == pytest.approx(z, abs=1e-12)

    def test_no_fixed_point_at_or_below_one(self):
        with pytest.raises(ValueError):
            mf.fixed_point_zeta(1.0)

    def test_argmax(self):
        for alpha in (0.8, 2.0, 3.5):
            nu, chi = mf.argmax_nu(alpha)
            assert float(mf.dg(alpha, nu)) == pytest.approx(0.0, abs=1e-10)
            assert chi == pytest.approx(float(mf.g(alpha, nu)))
            grid = np.linspace(1e-6, 1 - 1e-6, 1001)
            assert chi >= float(np.max(mf.g(alpha, grid))) - 1e-8

    def test_transitional_value(self):
        a_tr = mf.transitional_alpha()
        assert a_tr == pytest.approx(2.46742, abs=1e-3)
        nu, _ = mf.argmax_nu(a_tr)
        assert nu == pytest.approx(mf.fixed_point_zeta(a_tr), abs=1e-9)

    def test_map_params(self):
        # alpha < 1 has no fixed point: the monotone limit is the argmax
        assert mf.mean_field_upper_bounds(100, 0.005, 0.05, 10)["psi"] \
            is not None
        cold_high = mf.mean_field_upper_bounds(100, 0.005, 0.9, 10)
        assert cold_high["psi"] is None
        assert cold_high["psi_reason"] == ("phi0=0.9 above the monotone "
                                           "range limit 0.470009")
        assert mf.argmax_nu(cold_high["alpha"])[0] == pytest.approx(
            0.470009, abs=1e-6)
        # alpha > 1 has one, and it caps the range below the argmax
        zeta = mf.fixed_point_zeta(2.0)
        assert 0.0 < zeta < mf.argmax_nu(2.0)[0]


class TestIteration:
    def test_path_shapes_and_envelope(self):
        path = mf.iterate_mean_field(2.0, 0.05, steps=40)
        assert len(path.psi) == len(path.phi) == 41
        # 1 - exp(-a*x) >= (1-x)(1 - exp(-a*x)) pointwise
        assert np.all(path.psi <= path.phi + 1e-12)

    def test_converges_to_limit(self):
        for alpha, psi0 in [(0.7, 0.3), (2.0, 0.1), (3.0, 0.4)]:
            path = mf.iterate_mean_field(alpha, psi0)
            limit = mf.mean_field_limit(alpha, psi0)
            assert abs(path.psi[-1] - limit) < 1e-10

    def test_degenerate_starts(self):
        assert mf.mean_field_limit(2.0, 0.0) == 0.0
        assert mf.mean_field_limit(2.0, 1.0) == 0.0
        path = mf.iterate_mean_field(2.0, 0.0, steps=5)
        assert np.all(path.psi == 0.0)
        assert np.all(path.branching_factor == 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_refuses_non_positive_intensity(self, alpha):
        # at alpha = -1 the path would alternate in sign from psi_1 on
        with pytest.raises(ValueError, match="intensity must be positive"):
            mf.iterate_mean_field(alpha, 0.1)

    def test_branching_factor_near_alpha_at_zero(self):
        path = mf.iterate_mean_field(0.5, 1e-8, steps=3)
        assert path.branching_factor[0] == pytest.approx(0.5, abs=1e-6)

    def test_upper_bound_grants(self):
        granted = mf.mean_field_upper_bounds(100, 0.02, 0.05, 10)
        assert granted["psi"] is not None
        hot = mf.mean_field_upper_bounds(100, 0.04, 0.05, 10)
        assert hot["psi"] is None and "transitional" in hot["psi_reason"]
        high_start = mf.mean_field_upper_bounds(100, 0.02, 0.9, 10)
        assert high_start["psi"] is None
        assert "monotone" in high_start["psi_reason"]

    def test_uniform_cap(self):
        out = mf.mean_field_upper_bounds(100, 0.02, 0.05, 30)
        assert out["psi"] is not None
        assert np.all(out["psi"] <= out["cap"] + 1e-12)
        assert out["cap"] >= mf.argmax_nu(out["alpha"])[1] - 1e-12


class TestFluctuations:
    def test_innovation_variance_formula(self):
        assert float(mf.innovation_variance(2.0, 0.25)) == pytest.approx(
            float(mf.g(2.0, 0.25)) * math.exp(-0.5))

    def test_ar1_sample_variance_matches_recursion(self):
        model = mf.FluctuationModel.from_initial(2.0, 0.1, steps=12)
        rng = replicate_rng(1234, 0)
        y, y_het = mf.simulate_ar1(model, rng, replicates=40000)
        closed = mf.ar1_variance(model)
        for k in (3, 8, 12):
            sample = y[:, k].var(ddof=1)
            stderr = closed[k] * math.sqrt(2.0 / (len(y) - 1))
            assert abs(sample - closed[k]) < 4 * stderr
        np.testing.assert_allclose(
            y_het[:, 5], 0.5 * (1 - 2 * model.psi[5]) * y[:, 5])

    def test_ar1_zero_start(self):
        model = mf.FluctuationModel.from_initial(0.8, 0.2, steps=5)
        y, _ = mf.simulate_ar1(model, replicate_rng(0, 0), replicates=10)
        assert np.all(y[:, 0] == 0.0)


class TestStabilityInterval:
    @pytest.mark.parametrize("lam", [1.3, 2.0, 3.0, 4.0])
    def test_invariants(self, lam):
        si = mf.stability_interval(lam)
        zeta = mf.fixed_point_zeta(lam)
        nu, _ = mf.argmax_nu(lam)
        gb = float(mf.g(lam, si.b))
        assert si.a < min(nu, zeta, gb) <= max(nu, zeta) < si.b
        assert si.a < zeta < si.b
        assert 0.0 < si.rho < 1.0
        assert si.eps > 0.0
        assert si.gamma > 0.0
        # g maps (a, b) into (a + eps, b - eps)
        grid = np.linspace(si.a, si.b, 2001)
        vals = mf.g(lam, grid)
        assert np.all(vals > si.a + si.eps - 1e-12)
        assert np.all(vals < si.b - si.eps + 1e-12)
        # the slope is contractive on (a, 1)
        grid = np.linspace(si.a, 1.0, 2001)
        assert np.all(np.abs(mf.dg(lam, grid)) < si.rho + 1e-12)

    @pytest.mark.parametrize("lam, expected", [
        (1.01, (0.004947442129412621, 0.7211684951172472,
                1.2350311210528216e-05, 0.995009240352202,
                5597.299387927943)),
        (1.5, (0.147870663674126, 0.7091176531944685,
               0.021642777085415343, 0.8249946039332945, 4.748806679422935)),
        (2.0, (0.18862917733219003, 0.6980149921076693,
               0.03859101536771359, 0.8646647167633873, 8.24391138433286)),
        (3.0, (0.21953972714614167, 0.7081430187534987,
               0.037440001255067634, 0.950212931632136, 58.87175490835389)),
    ])
    def test_values_kept(self, lam, expected):
        # (a, b, eps, rho, gamma) as computed with rho formed first and
        # 1 - rho taken from it, where that still works
        si = mf.stability_interval(lam)
        assert (si.a, si.b, si.eps, si.rho, si.gamma) == pytest.approx(
            expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam", [40.0, 100.0])
    def test_large_intensity(self, lam):
        # rho = 1 - exp(-lam) rounds to 1 and zeta to 1/2 here; gamma
        # comes from 1 - rho = exp(-lam) itself
        si = mf.stability_interval(lam)
        assert si.gamma == pytest.approx(
            (1.0 - si.b) / (2.0 * math.exp(-2.0 * lam)), rel=1e-12, abs=0.0)
        assert math.isfinite(si.gamma)
        assert 0.0 < si.a < mf.fixed_point_zeta(lam) <= 0.5 < si.b < 1.0

    def test_rejects_subcritical(self):
        with pytest.raises(ValueError):
            mf.stability_interval(0.9)

    @pytest.mark.parametrize("lam", [400.0, 1000.0])
    def test_refuses_lambda_whose_gamma_overflows(self, lam):
        # gamma overflowed from lam of about 356, divided by zero from
        # about 373 and found rho = 1 at 1000
        with pytest.raises(ValueError, match="requires lam <= 355.931077"):
            mf.stability_interval(lam)

    def test_largest_admitted_lambda_has_finite_gamma(self):
        # the bound the refusal names, and the constant it rounds
        for lam in (355.931077, mf.MAX_STABILITY_LAM):
            gamma = mf.stability_interval(lam).gamma
            assert 1.79e308 < gamma < math.inf


class TestDecayParameters:
    def test_subcritical_rho(self):
        assert mf.decay_rho(0.8, 0.2, 0.05) == pytest.approx(
            max(0.8, abs(float(mf.dg(0.8, 0.2)))))

    def test_critical_rho_uses_minimal_root(self):
        lam, delta = 1.0, 0.05
        rho = mf.decay_rho(lam, 0.3, delta)
        nu, chi = mf.argmax_nu(lam)
        assert delta < chi
        assert 0.0 < rho < 1.0

    def test_gamma_formula(self):
        rho = mf.decay_rho(0.8, 0.2, 0.05)
        assert mf.decay_gamma(0.8, 0.2, 0.05) == pytest.approx(
            (1 - 0.2) / (2 * (1 - rho) ** 2))

    def test_exit_horizon(self):
        assert mf.exit_horizon_m0(0.4, 0.05) == \
            math.floor(math.log(0.4 / 0.05)) + 1
        with pytest.raises(ValueError):
            mf.exit_horizon_m0(0.05, 0.4)

    def test_concentration_envelope(self):
        prod, linear = mf.concentration_envelope(5.0, 0.1, 1000, 10)
        assert 0.0 <= prod <= 1.0
        assert linear <= prod + 1e-12  # the union bound is cruder
        # more steps can only lower the guarantee
        prod2, _ = mf.concentration_envelope(5.0, 0.1, 1000, 20)
        assert prod2 <= prod


class TestBrentPort:
    """``mf.brentq`` against ``scipy.optimize.brentq``: the same float
    on every bracket the package solves, the same exception elsewhere."""

    def test_every_call_site_bracket_matches_scipy(self, monkeypatch):
        from avalanche import branching
        port, solves = mf.brentq, []

        def both(f, a, b, **tol):
            ours = port(f, a, b, **tol)
            theirs = scipy_brentq(f, a, b, **tol)
            solves.append((ours, theirs, a, b))
            return ours

        monkeypatch.setattr(mf, "brentq", both)
        monkeypatch.setattr(branching, "brentq", both)
        # zeta, nu and x_star
        for lam in np.geomspace(1.0 + 1e-6, mf.MAX_STABILITY_LAM, 5000):
            mf.stability_interval(float(lam))
        for mu in np.geomspace(1e-3, 700.0, 5000):
            if mu != 1.0:
                branching.extinction_prob.__wrapped__(float(mu))
        chi = mf.argmax_nu(1.0)[1]
        for delta in np.linspace(0.0, chi, 502)[1:-1]:
            mf.decay_rho(1.0, 0.3, float(delta))
        for alpha in np.geomspace(1e-3, 1.0, 500):
            mf.argmax_nu(float(alpha))
        mf.transitional_alpha()
        assert len(solves) > 20_000
        differ = [s for s in solves if s[0] != s[1]]
        assert not differ, differ[:5]
        assert all(type(ours) is float for ours, *_ in solves)

    @pytest.mark.parametrize("f, a, b, tol", [
        # a NaN inside the bracket, met by the first interpolated step
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {}),
        # no sign change, also where the product f(a)*f(b) underflows
        (lambda x: x * x + 1.0, 0.0, 1.0, {}),
        (lambda x: 1e-200, 0.0, 1.0, {}),
        # a step at 1e-250 from a bracket of 2e300: bisection needs
        # about 2000 halvings, far past the 100 iterations allowed
        (lambda x: -1.0 if x < 1e-250 else 2.0, -1e300, 1e300,
         {"xtol": 1e-300}),
    ], ids=["nan", "same-sign", "same-sign-underflow", "no-convergence"])
    def test_failures_raise_as_scipy(self, f, a, b, tol):
        tol = {"xtol": 2e-12, **tol}
        with pytest.raises((ValueError, RuntimeError)) as theirs:
            scipy_brentq(f, a, b, **tol)
        with pytest.raises(theirs.type):
            mf.brentq(f, a, b, **tol)

    @pytest.mark.parametrize("scale", [1.0, 1e-110, 1e-160])
    def test_piecewise_constant_matches_scipy(self, scale):
        # a staircase repeats each value along a step, where both take
        # the bisection; at 1e-110 and below, steps across the root make
        # the extrapolation's denominator underflow to 0, where C divides
        # by zero (and bisects) and Python raises ZeroDivisionError
        def f(x):
            return scale * (math.floor(7.0 * x) - 2.5)
        for a, b in [(0.0, 1.0), (0.01, 0.99), (-0.3, 0.8), (0.2, 3.0)]:
            for xtol in (1e-300, 2e-12, 1e-3):
                assert (mf.brentq(f, a, b, xtol=xtol)
                        == scipy_brentq(f, a, b, xtol=xtol))

    def test_zero_at_an_end_is_returned(self):
        assert mf.brentq(lambda x: x - 0.25, 0.25, 1.0, xtol=1e-12) == 0.25
        assert mf.brentq(lambda x: x - 1.0, 0.25, 1.0, xtol=1e-12) == 1.0
