"""Arbitrary-precision absorbing-chain analytics tests."""

import mpmath as mp
import numpy as np
import pytest

from avalanche import exact
from avalanche.exact import (MAX_EXACT_N, PrecisionConfig,
                             SubstochasticSystem, build_q_float,
                             duration_survival, expected_duration,
                             expected_duration_float, expected_size,
                             expected_size_float, kernel_power_mean,
                             max_distribution, max_survival, q_powers,
                             reach_probability, reach_probability_float)
from avalanche.model import ModelParams, kernel_row


def small_system(n=20, c=0.9, digits=60):
    params = ModelParams.from_intensity(n, c)
    return SubstochasticSystem(params, PrecisionConfig(digits))


class TestPrecisionConfig:
    def test_default_tolerance(self):
        cfg = PrecisionConfig(100)
        assert cfg.tol() == mp.mpf(10) ** -50
        assert cfg.tol(200) == mp.mpf(10) ** -100

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


class TestIntegerRows:
    """Rows built once in integers with floating mantissas, against the
    binomial pmf at twice the digits; their tail keeps its relative
    accuracy far below the fixed-point scale 2**-P."""

    @pytest.mark.parametrize("n, digits", [(12, 400), (100, 60)])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_within_2_to_the_minus_prec_plus_8_of_twice_the_digits(
            self, n, c, digits):
        system = small_system(n, c, digits)
        prec = mp.libmp.dps_to_prec(digits + exact._GUARD_DIGITS)
        with mp.workdps(2 * digits + 20):
            q = 1 - mp.mpf(system.params.p)
            for i in range(1, n):
                fail, m = q ** i, n - i
                for j, (man, e) in enumerate(system.int_row(i)):
                    want = (mp.binomial(m, j) * fail ** (m - j)
                            * (1 - fail) ** j)
                    assert abs(mp.ldexp(man, e) - want) \
                        <= mp.ldexp(want, -(prec + 8))

    def test_refined_solves_build_no_mpf_rows(self):
        system = small_system(n=30, c=1.1)
        expected_duration(system)
        expected_size(system)
        assert not system._rows and not system._factors
        assert set(system._int_rows) == {(i, 60) for i in range(1, 30)}

    def test_row_rounds_the_integer_row(self):
        system = small_system(n=30, c=1.3)
        with mp.workdps(70):
            assert system.row(4) == [mp.mpf(t) for t in system.int_row(4)]

    def test_reach_keeps_the_tail_mass(self):
        # at n=100, c=3 all of h(1) = 1.57e-76 for level 95 flows through
        # row entries of at most 1.8e-81, where 2**-P is 1.2e-66 at 50
        # digits: rows in fixed point at 2**-P would give h(1) = 0
        params = ModelParams.from_intensity(100, 3.0)
        got = reach_probability(
            SubstochasticSystem(params, PrecisionConfig(50)), 95)[0]
        want = reach_probability(
            SubstochasticSystem(params, PrecisionConfig(100)), 95)[0]
        assert 1e-77 < want < 1e-75
        assert abs(got - want) < 1e-30 * want


def _reach_20(system):
    return reach_probability(system, 20)


class TestResidualGate:
    """The integer residual gate bounds the residual from above and
    refuses a solution that is off by more than the tolerance."""

    @staticmethod
    def mpf_residual(system, digits, x, b):
        """max_i |x(i) - (Qx)(i) - b(i)| on rows at twice the digits."""
        xs = x + [1] * (system.n - 1 - len(x))
        with mp.workdps(2 * digits + 10):
            return max(abs(xi - bi - mp.fdot(system.row(i, 2 * digits)[1:],
                                             xs))
                       for i, (xi, bi) in enumerate(zip(x, b), start=1))

    def test_bounds_the_mpf_residual_at_twice_the_digits(self):
        # E(T) near 1e26 here, so the gate's scale reaches max|x|'s bits
        system = small_system(n=100, c=3.0, digits=60)
        tol = system.precision.tol()
        cases = [(expected_duration(system), [1] * 99),
                 (reach_probability(system, 50), [0] * 49)]
        assert 1e25 < cases[0][0][-1] < 1e27
        for x, b in cases:
            with mp.workdps(70):
                gate = exact._residual_inf(system, 60, x, b)
            assert self.mpf_residual(system, 60, x, b) <= gate < tol

    @pytest.mark.parametrize("solve, b", [(expected_duration, [1] * 39),
                                          (_reach_20, [0] * 19)])
    def test_flags_a_perturbation_of_ten_tolerances(self, solve, b):
        system = small_system(n=40, c=1.0)
        x = solve(system)
        tol = system.precision.tol()
        with mp.workdps(70):
            assert exact._residual_inf(system, 60, x, b) < tol
            for k in (0, len(x) // 2, len(x) - 1):
                moved = list(x)
                moved[k] += 10 * tol
                assert exact._residual_inf(system, 60, moved, b) >= tol


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
        system = small_system()
        assert reach_probability(system, 1) == []
        assert reach_probability_float(system.params, 1).shape == (0,)

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


class TestFactorization:
    """One cached LU of I-Q per digit count serves every reach level; one
    cached fixed-point Q both expectations."""

    @pytest.mark.parametrize("c", [0.9, 1.3])
    def test_all_levels_match_per_level_solves(self, c):
        # max_survival reads every level off the 23-state block; a fresh
        # system factors only the block below each level
        n, digits = 24, 60
        tol = mp.mpf(10) ** (-digits // 2)
        system = small_system(n, c, digits)
        tails = {i0: max_survival(system, i0, range(1, n + 2))
                 for i0 in (1, 3)}
        assert [len(lu) for lu in system._factors.values()] == [n - 1]
        for j_level in range(2, n + 1):
            h = reach_probability(small_system(n, c, digits), j_level)
            assert abs(tails[1][j_level - 1] - h[0]) < tol
            if j_level > 3:
                assert abs(tails[3][j_level - 1] - h[2]) < tol

    def test_reach_matches_mpmath_lu_solve(self):
        n, digits, j_level = 24, 60, 10
        system = small_system(n, 1.3, digits)
        max_survival(system, 1, [n])   # caches the full block
        h = reach_probability(system, j_level)
        with mp.workdps(digits + 10):
            a = mp.matrix(j_level - 1)
            b = mp.matrix(j_level - 1, 1)
            for i in range(1, j_level):
                row = system.row(i)
                for j in range(1, j_level):
                    a[i - 1, j - 1] = (i == j) - (row[j] if j < len(row)
                                                  else 0)
                b[i - 1] = mp.fsum(row[j_level:])
            ref = mp.lu_solve(a, b)
            assert max(abs(x - ref[k]) for k, x in enumerate(h)) \
                < mp.mpf(10) ** (-digits // 2)

    def test_size_reuses_duration_factors(self):
        # E(S) refines on the fixed-point and float Q built for E(T):
        # it builds no rows, no Q and no factorization
        system = small_system(n=30, c=1.1)
        expected_duration(system)
        fixed, rows = system._fixed[60], dict(system._rows)
        expected_size(system)
        assert list(system._fixed) == [60]
        assert system._fixed[60] is fixed
        assert system._rows.keys() == rows.keys()
        assert all(system._rows[key] is row for key, row in rows.items())
        assert not system._factors

    def test_reach_factors_only_the_block_below_the_level(self):
        system = small_system(n=400, c=1.0)
        assert len(reach_probability(system, 40)) == 39
        assert [len(lu) for lu in system._factors.values()] == [39]
        assert {i for i, _ in system._rows} == set(range(1, 40))

    def test_larger_level_refactors_at_least_twice_as_large(self):
        system = small_system(n=40, c=1.0)
        reach_probability(system, 6)
        reach_probability(system, 8)
        assert len(system._factors[60]) == 10


def _reach_12(system):
    return reach_probability(system, 12)


def _max_12(system):
    return max_survival(system, 1, range(1, 14))


class TestPrecisionRetry:
    """A solve whose residual gate fails, or whose elimination meets a
    pivot that is not positive, is solved once more at twice the digits,
    refined or factored as at the first try, and returns that answer; a
    second failure raises."""

    @pytest.fixture
    def gate(self, monkeypatch):
        """Fail the residual gate at the digit counts put in `failing`;
        record each factorization and fixed-point Q built as (digits, it).
        """
        failing, built = set(), []
        residual = exact._residual_inf
        factors = SubstochasticSystem.factors
        fixed_point_q = SubstochasticSystem.fixed_point_q

        def fake_residual(system, digits, x, b):
            if digits in failing:
                return mp.mpf(1)
            return residual(system, digits, x, b)

        def record(system, digits, out):
            if all(out is not seen for _, seen in built):
                built.append((digits or system.precision.decimal_digits, out))
            return out

        monkeypatch.setattr(exact, "_residual_inf", fake_residual)
        monkeypatch.setattr(
            SubstochasticSystem, "factors", lambda system, k, digits=None:
            record(system, digits, factors(system, k, digits)))
        monkeypatch.setattr(
            SubstochasticSystem, "fixed_point_q", lambda system, digits=None:
            record(system, digits, fixed_point_q(system, digits)))
        return failing, built

    @pytest.mark.parametrize("solve", [expected_duration, _reach_12,
                                       _max_12])
    def test_one_refactorization_at_twice_the_digits(self, solve, gate):
        failing, built = gate
        want = solve(small_system(n=20, c=1.1, digits=120))
        built.clear()
        failing.add(60)
        system = small_system(n=20, c=1.1, digits=60)
        got = solve(system)
        assert [d for d, _ in built] == [60, 120]
        # the expectations refine both times and never factor
        refined = solve is expected_duration
        assert list(system._fixed if refined else system._factors) \
            == [60, 120]
        assert not (system._factors if refined else system._fixed)
        assert got == want
        # the retry built its rows at twice the digits
        assert max(d for _, d in system._int_rows) == 120

    @pytest.mark.parametrize("solve", [expected_duration, _reach_12,
                                       _max_12])
    def test_second_failure_raises(self, solve, gate):
        failing, _ = gate
        failing.update({60, 120})
        with pytest.raises(ArithmeticError, match="raising precision to 120"):
            solve(small_system(n=20, c=1.1, digits=60))

    def test_a_pivot_that_is_not_positive_fails_one_try(self):
        # pivot 35 is not positive at 50 digits; at 100 the elimination
        # goes through and the residual gate refuses
        system = small_system(n=40, c=16, digits=50)
        with pytest.raises(ArithmeticError, match="to 100 digits"):
            expected_duration(system)
        assert list(system._factors) == [100]

    def test_an_arithmetic_error_subclass_is_not_retried(self):
        # ZeroDivisionError and its kin signal bugs, not refusals
        tries = []

        def solve(digits):
            tries.append(digits)
            raise ZeroDivisionError("a bug")

        with pytest.raises(ZeroDivisionError):
            exact._checked_solve(small_system(), solve, [1])
        assert tries == [60]


class TestRefinement:
    """The expectations refine from float64 corrections to the
    elimination's answer, and hand over to the elimination where the
    float kernel refuses or the residual stalls."""

    @staticmethod
    def eliminated(monkeypatch, system, solve):
        with monkeypatch.context() as m:
            m.setattr(exact, "_refine", lambda *args: None)
            return solve(system)

    @pytest.mark.parametrize("n, c, digits", [
        (3, 0.3, 60), (5, 2.5, 60), (8, 1.0, 60), (13, 0.7, 60),
        (17, 1.7, 60), (21, 2.0, 60), (30, 0.3, 60), (30, 2.5, 60),
        (12, 1.0, 400), (30, 1.3, 400)])
    def test_matches_elimination(self, n, c, digits, monkeypatch):
        system = small_system(n, c, digits)
        got = [expected_duration(system), expected_size(system)]
        assert not system._factors
        want = [self.eliminated(monkeypatch, small_system(n, c, digits),
                                solve)
                for solve in (expected_duration, expected_size)]
        with mp.workdps(digits + 10):
            worst = max(abs(a - b) / b for g, w in zip(got, want)
                        for a, b in zip(g, w))
        assert worst < mp.mpf(10) ** (10 - digits)

    def test_falls_back_where_float_kernel_refuses(self, monkeypatch):
        # I-Q is too ill-conditioned at c = 3 for the float64 correction
        refine, results = exact._refine, []

        def recorded(*args):
            results.append(refine(*args))
            return results[-1]

        monkeypatch.setattr(exact, "_refine", recorded)
        system = small_system(n=100, c=3.0, digits=60)
        got = expected_duration(system)
        assert results == [None]
        assert [len(lu) for lu in system._factors.values()] == [99]
        assert got == self.eliminated(monkeypatch, system, expected_duration)

    def test_falls_back_when_residual_stalls(self, monkeypatch):
        # half of each correction cuts the residual by 2, not 2**8
        solve, calls = exact._checked_float_solve, []

        def half(*args):
            calls.append(1)
            return 0.5 * solve(*args)

        monkeypatch.setattr(exact, "_checked_float_solve", half)
        system = small_system(n=12, c=1.0, digits=60)
        got = expected_duration(system)
        assert len(calls) == 2   # two passes running that stalled
        assert 60 in system._factors
        assert got == self.eliminated(monkeypatch, small_system(12, 1.0, 60),
                                      expected_duration)


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


class TestFloatTwinRefusals:
    """Each float twin refuses what its mpf twin refuses (n = 10)."""

    params = ModelParams(10, 0.1)

    @pytest.mark.parametrize("level", [15, -3])
    def test_reach_refuses_level_outside_range(self, level):
        system = SubstochasticSystem(self.params, PrecisionConfig(50))
        with pytest.raises(ValueError) as mpf_exc:
            reach_probability(system, level)
        with pytest.raises(ValueError) as float_exc:
            reach_probability_float(self.params, level)
        assert str(float_exc.value) == str(mpf_exc.value) \
            == f"level must lie in [1, 10], got {level}"

    def test_q_powers_refuses_negative_horizon(self):
        system = SubstochasticSystem(self.params, PrecisionConfig(50))
        with pytest.raises(ValueError) as mpf_exc:
            duration_survival(system, -1)
        with pytest.raises(ValueError) as float_exc:
            q_powers(build_q_float(self.params), np.ones(9), -1)
        assert str(float_exc.value) == str(mpf_exc.value)

    def test_kernel_power_mean_refuses_negative_start(self):
        # used to wrap round to E(X_2 | X_0 = 8)
        with pytest.raises(ValueError, match="got i0=-1, k=2"):
            kernel_power_mean(self.params, -1, 2)

    def test_kernel_power_mean_refuses_start_above_n(self):
        with pytest.raises(ValueError, match="got i0=12, k=2"):
            kernel_power_mean(self.params, 12, 2)

    def test_kernel_power_mean_refuses_negative_steps(self):
        with pytest.raises(ValueError, match="got i0=3, k=-1"):
            kernel_power_mean(self.params, 3, -1)


class TestSubnormalFreeSolve:
    """LAPACK never sees an entry whose products could be subnormal, and
    the flush changes no answer."""

    GRID = [(n, c) for n in (200, 400, 800) for c in (0.5, 0.9)]

    def test_lapack_gets_no_entry_below_tiny(self, monkeypatch):
        params = ModelParams.from_intensity(800, 0.5)
        q = build_q_float(params)
        assert ((q > 0) & (q < exact._TINY)).any()   # there is a tail to flush
        seen, solve = [], np.linalg.solve

        def spy(a, b):
            seen.append(a.copy())
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", spy)
        expected_duration_float(params)
        (a,) = seen
        assert not ((a != 0) & (np.abs(a) < exact._TINY)).any()

    @pytest.mark.parametrize("n,c", GRID)
    def test_float_twins_equal_the_unflushed_solve(self, n, c):
        params = ModelParams.from_intensity(n, c)
        q = build_q_float(params)
        i_minus_q = np.eye(n - 1) - q
        for solve, rhs in ((expected_duration_float, np.ones(n - 1)),
                           (expected_size_float, np.arange(1.0, n))):
            assert np.array_equal(solve(params),
                                  np.linalg.solve(i_minus_q, rhs))
        lev = n // 2 - 1   # the states below level n // 2
        h = np.linalg.solve(np.eye(lev) - q[:lev, :lev],
                            q[:lev, lev:].sum(axis=1))
        assert np.array_equal(reach_probability_float(params, n // 2),
                              np.clip(h, 0.0, 1.0))

    @pytest.mark.parametrize("n,c", [(200, 2.0), (400, 3.0)])
    def test_supercritical_solves_still_raise(self, n, c):
        params = ModelParams.from_intensity(n, c)
        for solve in (expected_duration_float, expected_size_float):
            with pytest.raises(ArithmeticError):
                solve(params)
