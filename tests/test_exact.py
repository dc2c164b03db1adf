"""Arbitrary-precision absorbing-chain analytics tests."""

from fractions import Fraction
from functools import cache, partial
import hashlib
import operator
import random
import re

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
from avalanche.model import (ModelParams, kernel_pmf_exact, kernel_row,
                             kernel_rows)


def small_system(n=20, c=0.9, digits=60):
    params = ModelParams.from_intensity(n, c)
    return SubstochasticSystem(params, PrecisionConfig(digits))


def mpf_row(system, i, digits=None):
    """The elimination's row as mpf, exact at its working precision or
    above (a (man, exp) pair converts at the caller's)."""
    return [mp.mpf(t) for t in system.row(i, digits)]


class TestPrecisionConfig:
    def test_default_tolerance(self):
        cfg = PrecisionConfig(100)
        assert cfg.tol() == mp.mpf(10) ** -50
        assert cfg.tol(200) == mp.mpf(10) ** -100

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            PrecisionConfig(10)

    @pytest.mark.parametrize("digits", [50, 60, 101, 400])
    def test_cached_tolerance_is_a_fresh_one_at_each_precision(self,
                                                               digits):
        # a solve reads it inside workdps(digits + guard), at d and 2d
        # digits, the clamps at mpmath's default 53 bits: each reads the
        # value computed at its own precision, cached or not
        cfg = PrecisionConfig(digits)
        seen = set()
        for dps in (None, digits + exact._GUARD_DIGITS,
                    2 * digits + exact._GUARD_DIGITS):
            with mp.workdps(dps) if dps else mp.workprec(53):
                for d, tol in ((digits, cfg.tol),
                               (2 * digits, partial(cfg.tol, 2 * digits))):
                    fresh = mp.mpf(10) ** (-d // 2)
                    # the first call may compute it, the second reads it
                    assert tol()._mpf_ == tol()._mpf_ == fresh._mpf_
                    seen.add(fresh._mpf_)
        # 10**-25 and beyond are not binary fractions: the key needs the
        # precision
        assert len(seen) == 6


class TestRows:
    def test_rows_match_float_kernel(self):
        system = small_system()
        params = system.params
        for i in range(1, 20):
            ref = kernel_row(params, i)
            row = mpf_row(system, i)
            assert len(row) == 20 - i + 1
            for j, v in enumerate(row):
                assert float(v) == pytest.approx(ref[j], rel=1e-11,
                                                 abs=1e-300)

    def test_rows_sum_to_one(self):
        system = small_system(n=30, c=1.4)
        with mp.workdps(70):
            for i in (1, 7, 29):
                total = mp.fsum(mpf_row(system, i))
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

    @staticmethod
    def reference_row(system, i):
        """The row by its recurrence, the head in mpf under workprec: each
        term t_j = t_{j-1} R (m-j+1) // j, cut to w bits."""
        n, digits = system.n, system.precision.decimal_digits
        m = n - i
        w = exact._scale(digits) + m.bit_length() + 8
        num, den = system.params.p.as_integer_ratio()
        fail, den = (den - num) ** i, den ** i
        with mp.workprec(w + m.bit_length() + 4):
            ratio, r_exp = (mp.mpf(den - fail) / fail).man_exp
            man, exp = (mp.mpf((fail, 1 - den.bit_length())) ** m).man_exp
        out = [(man, exp)]
        for j in range(1, m + 1):
            man = man * ratio * (m - j + 1) // j
            s = max(man.bit_length() - w, 0)
            man, exp = man >> s, exp + r_exp + s
            out.append((man, exp))
        return out

    @pytest.mark.parametrize("n, c, digits", [
        *((12, c, d) for c in (0.5, 1.3, 4.0) for d in (60, 400)),
        (100, 1.0, 400), (100, 3.0, 60), (200, 1.5, 60)])
    def test_rows_equal_the_mpf_headed_recurrence(self, n, c, digits):
        system = small_system(n, c, digits)
        for i in range(1, n):
            assert system.int_row(i) == self.reference_row(system, i), i

    def test_dyadic_rows_equal_the_mpf_headed_recurrence(self):
        # p = 1/2: R = 1, a one-bit mantissa
        system = SubstochasticSystem(ModelParams(3, 0.5))
        for i in (1, 2):
            assert system.int_row(i) == self.reference_row(system, i)
        assert system.int_row(1) == [(1, -2), (2, -2), (1, -2)]
        assert system.int_row(2) == [(1, -2), (3, -2)]

    def test_refined_solves_build_no_mpf_rows(self):
        system = small_system(n=30, c=1.1)
        expected_duration(system)
        expected_size(system)
        assert not system._rows and not system._factors
        assert set(system._int_rows) == {(i, 60) for i in range(1, 30)}

    def test_row_rounds_the_integer_row(self):
        system = small_system(n=30, c=1.3)
        with mp.workdps(70):
            assert mpf_row(system, 4) == [mp.mpf(t)
                                          for t in system.int_row(4)]

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


class TestIntegerArithmetic:
    """The elimination's pairs round as mpf does."""

    @pytest.mark.parametrize("prec", [53, 236, 1365])
    def test_round_and_divide_are_mpfs_to_nearest(self, prec):
        # random mantissas of up to 3 prec bits, a third cut to a tie or
        # one past it; the pairs are exactly prec bits long
        rng = random.Random(prec)
        libmp = mp.libmp
        with mp.workprec(4 * prec):
            for _ in range(300):
                bits = rng.randrange(1, 3 * prec)
                man, exp = rng.getrandbits(bits) | 1 << (bits - 1), \
                    rng.randrange(-3000, 3000)
                if bits > prec + 1 and rng.random() < 0.3:
                    s = bits - prec
                    man = man >> s << s | 1 << (s - 1) | rng.randrange(2)
                den = (rng.getrandbits(prec) | 1 << (prec - 1),
                       rng.randrange(-300, 300))
                for got, want in (
                        (exact._round(man, exp, prec),
                         libmp.from_man_exp(man, exp, prec, "n")),
                        (exact._div((man, exp), den, prec), libmp.mpf_div(
                            libmp.from_man_exp(man, exp),
                            libmp.from_man_exp(*den), prec, "n"))):
                    assert got[0].bit_length() == prec
                    assert mp.mpf(got) == mp.mpf(want)


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
            return max(abs(xi - bi - mp.fdot(
                mpf_row(system, i, 2 * digits)[1:], xs))
                       for i, (xi, bi) in enumerate(zip(x, b), start=1))

    @staticmethod
    def gate(system, digits, x, b):
        """The gate's bound on the (man, exp) pairs of x, exactly as mpf;
        read at the working precision of a solve at ``digits``."""
        with mp.workdps(digits + exact._GUARD_DIGITS):
            man, exp = exact._residual_inf(system, digits,
                                           [v.man_exp for v in x], b)
        return mp.mpf((man, exp), prec=man.bit_length())

    def test_bounds_the_mpf_residual_at_twice_the_digits(self):
        # E(T) near 1e26 here, so the gate's scale reaches max|x|'s bits
        system = small_system(n=100, c=3.0, digits=60)
        tol = system.precision.tol()
        cases = [(expected_duration(system), [1] * 99),
                 (reach_probability(system, 50), [0] * 49)]
        assert 1e25 < cases[0][0][-1] < 1e27
        for x, b in cases:
            assert self.mpf_residual(system, 60, x, b) \
                <= self.gate(system, 60, x, b) < tol

    @pytest.mark.parametrize("pair", [
        lambda p: (2 ** p - 1, -p),        # 1 + x rounds up to 2
        lambda p: (2 ** p - 1, 2 - p),     # 1 + x rounds to 5
        lambda p: (3 << p - 2, 2 - p),     # x = 3, 1 + x = 4
        lambda p: (0, 0),
        lambda p: (1 << p - 1, -p - 300)], ids=["near 1", "near 4", "3",
                                                 "0", "tiny"])
    def test_scale_reads_one_plus_max_x_as_mpf_adds_it(self, pair):
        # g counts the bits of 1 + max|x| rounded to the working
        # precision, read from the pairs without mpf, and 5 for n=20
        x = [pair(exact._prec(60))]
        system = small_system(n=20, c=0.9, digits=60)
        with mp.workdps(70):
            g = mp.mag(1 + mp.mpf(x[0])) + 5 + 16 \
                - mp.mag(system.precision.tol(60))
        assert exact._residual_inf(system, 60, x, [0])[1] == -2 * g

    @pytest.mark.parametrize("solve, b", [(expected_duration, [1] * 39),
                                          (_reach_20, [0] * 19)])
    def test_flags_a_perturbation_of_ten_tolerances(self, solve, b):
        system = small_system(n=40, c=1.0)
        x = solve(system)
        tol = system.precision.tol()
        assert self.gate(system, 60, x, b) < tol
        for k in (0, len(x) // 2, len(x) - 1):
            moved = list(x)
            with mp.workdps(70):
                moved[k] += 10 * tol
            assert self.gate(system, 60, moved, b) >= tol


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


@cache
def _rational_rows(n, c):
    """The exact kernel's rows over j = 0..n at states 1..n-1."""
    params = ModelParams.from_intensity(n, c)
    return [[kernel_pmf_exact(params, i, j) for j in range(n + 1)]
            for i in range(1, n)]


@cache
def _rational_survival(n, c, m_max):
    """Q^m 1 for m = 0..m_max in Fractions on the exact kernel."""
    q = [row[1:n] for row in _rational_rows(n, c)]
    out = [[Fraction(1)] * (n - 1)]
    for _ in range(m_max):
        out.append([sum(map(operator.mul, row, out[-1])) for row in q])
    return out


@cache
def _rational_reach(n, c):
    """P(max >= J | X_0 = 1) for J = 1..n+1 in Fractions on the exact
    kernel: per level, GTH state reduction of the states below it, from
    the highest down to state 1, each pivot the eliminated state's mass
    to 0, to the level or above and to the states left."""
    rows, out = _rational_rows(n, c), [Fraction(1)]
    for level in range(2, n + 1):
        m = level - 1
        q = [row[1:level] for row in rows[:m]]
        hit = [sum(row[level:]) for row in rows[:m]]
        miss = [row[0] for row in rows[:m]]
        for k in range(m - 1, 0, -1):
            pivot = hit[k] + miss[k] + sum(q[k][:k])
            for i in range(k):
                w = q[i][k] / pivot
                hit[i] += w * hit[k]
                miss[i] += w * miss[k]
                for j in range(k):
                    q[i][j] += w * q[k][j]
        out.append(hit[0] / (hit[0] + miss[0]))
    return out + [Fraction(0)]


class TestRationalReach:
    """Reach from the elimination against GTH in exact arithmetic."""

    @pytest.mark.parametrize("digits", [60, 400])
    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("c", [0.5, 1.3, 4.0])
    def test_within_ten_digits_of_working_precision(self, c, n, digits):
        # max_survival reads every level off the full block, whose tail
        # is 0; a fresh system per level factors the block below it, tail
        # column included
        def exact_value(v):
            man, exp = v.man_exp
            return Fraction(man) * Fraction(2) ** exp

        want, tol = _rational_reach(n, c), Fraction(10) ** (10 - digits)
        levels = max_survival(small_system(n, c, digits), 1, range(1, n + 2))
        fresh = [reach_probability(small_system(n, c, digits), level)[0]
                 for level in range(2, n + 1)]
        for got, oracle in ((levels, want), (fresh, want[1:n])):
            assert len(got) == len(oracle)
            assert all(abs(exact_value(a) - b) <= tol * b
                       for a, b in zip(got, oracle))


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

    @pytest.mark.parametrize("digits", [60, 400])
    def test_within_m_n_plus_1_units_of_the_rational_oracle(self, digits):
        # Q^m 1 in Fractions on the exact kernel: each product loses at
        # most 2**-P per row entry and 2**-P in its shift
        unit = Fraction(1, 2 ** exact._scale(digits))
        for n, c in [(5, 0.5), (12, 0.7), (12, 1.0), (12, 2.0), (12, 4.0)]:
            system = small_system(n, c, digits)
            for m, want in enumerate(_rational_survival(n, c, 10)):
                got = [Fraction(2) ** exp * man for man, exp in (
                    v.man_exp for v in duration_survival(system, m))]
                assert max(abs(a - b) for a, b in zip(got, want)) \
                    <= m * (n + 1) * unit, (n, c, m)

    @pytest.mark.parametrize("c", [1.0, 4.0])
    def test_in_unit_interval_and_nonincreasing_over_calls(self, c):
        # F 1 <= 2**P and each product keeps order, so every call's values
        # are at most the last call's, to the bit
        system = small_system(n=15, c=c)
        prev = duration_survival(system, 0)
        assert all(v == 1 for v in prev)
        for m in range(1, 41):
            cur = duration_survival(system, m)
            assert all(0 <= b <= a <= 1 for a, b in zip(prev, cur)), m
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

    @pytest.mark.parametrize("n, m, digest", [
        (100, 6, "f9ba8e9817bea916"), (40, 8, "189e5a98aea1de0a")])
    def test_values_are_pinned(self, n, m, digest):
        # the (man, exp) pairs of the integer products F v >> P, recorded
        # on the Python-int product: any other product path gives them
        # bit for bit
        pairs = [v.man_exp for v in duration_survival(
            small_system(n, 1.0, 400), m)]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] \
            == digest


def _int_products(rows, v):
    return [sum(map(operator.mul, row, v)) for row in rows]


class TestLimbProducts:
    """The float64 limb GEMM against Python-int products."""

    @pytest.mark.parametrize("digits", [60, 400, 800])
    @pytest.mark.parametrize("width", [1, 2, 7, 99, MAX_EXACT_N - 1])
    def test_worst_case_limbs_are_exact(self, width, digits):
        # F = 2**P - 1, every limb below bit P 0xffff, times the largest
        # v, 2**P, and times v = F: with 0xffff limbs on both sides each
        # GEMM entry sums width K products of (2**16 - 1)**2, the largest
        # it can, so a BLAS that rounded would show here, and at width
        # 1999 the limb sums reach the top 16-bit slice
        scale = exact._scale(digits)
        rows = [[(1 << scale) - 1] * width]
        product = exact._limb_products(rows, scale + 1)
        for v in ([1 << scale] * width, rows[0]):
            assert product(v) == _int_products(rows, v)

    @pytest.mark.parametrize("bits", [1, 16, 17, 253, 1382])
    def test_ragged_rows_are_exact(self, bits):
        # rows of any length up to v's, empty ones included, over more
        # than one block of rows, each entry of its own length
        rng = random.Random(bits)
        rows = [[rng.getrandbits(rng.randint(1, bits))
                 for _ in range(rng.randint(0, 45))] for _ in range(75)]
        v = [rng.getrandbits(bits) for _ in range(45)]
        product = exact._limb_products(rows, bits)
        assert product(v) == _int_products(rows, v)
        v = v[::-1]   # one limb copy serves every v
        assert product(v) == _int_products(rows, v)

    def test_empty_rows_and_blocks(self):
        # a block of empty rows has width 0; no rows give no sums
        rows = [[5, 1 << 99]] + [[]] * exact._LIMB_ROWS
        v = [7, (1 << 100) - 1]
        assert exact._limb_products(rows, 100)(v) == _int_products(rows, v)
        assert exact._limb_products([], 100)(v) == []


class TestReachAndMax:
    def test_max_distribution_refuses_a_negative_j_max(self):
        system = small_system(n=10, c=1.0)
        with pytest.raises(ValueError, match="j_max=-1"):
            max_distribution(system, 5, -1)
        assert not system._int_rows   # refused before any solve
        assert max_distribution(system, 5, 0) == [0]

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

    @pytest.mark.parametrize("n, c, digits", [(20, 16, 50), (30, 16, 50),
                                              (30, 16, 60)])
    def test_reach_overshooting_one_by_a_rounding_is_one(self, n, c,
                                                         digits):
        # P(max >= 2 | 1) is 1 - 2.5e-64 at (30, 16); its solve passes the
        # residual gate a rounding unit above 1
        tails = max_survival(small_system(n, c, digits), 1, range(1, n + 2))
        assert all(0 <= v <= 1 for v in tails)

    def test_reach_refuses_an_overshoot_past_the_tolerance(self,
                                                           monkeypatch):
        system = small_system(n=10, c=1.0, digits=50)
        tol = system.precision.tol()
        with mp.workdps(60):
            near, far = 1 + tol / 2, 1 + 2 * tol
        monkeypatch.setattr(exact, "_checked_solve", lambda *args: [near])
        assert reach_probability(system, 2) == [1]
        monkeypatch.setattr(exact, "_checked_solve", lambda *args: [far])
        with pytest.raises(ArithmeticError, match="escaped"):
            reach_probability(system, 2)

    @pytest.mark.parametrize("n, c", [(25, 15), (30, 15), (35, 14), (35, 15),
                                      (40, 13), (40, 14)])
    def test_max_distribution_near_one_is_a_pmf(self, n, c):
        # tails within 2.2e-9 of 1 invert by a rounding (7.8e-62) where
        # the pmf's entries lie near 1e-69..1e-85
        pmf = max_distribution(small_system(n, c, 50), 1)
        assert all(v >= 0 for v in pmf)
        with mp.workdps(60):
            assert abs(mp.fsum(pmf) - 1) < mp.mpf(10) ** -25

    def test_max_distribution_refuses_tails_out_of_order(self, monkeypatch):
        system = small_system(n=5, c=1.0, digits=50)
        tol, zero = system.precision.tol(), [mp.mpf(0)] * 3
        with mp.workdps(60):
            near, far = [1, 1 - tol, 1 - tol / 2], [1, 1 - 2 * tol, 1]
        # a pmf entry tail(2) - tail(3) of -tol / 2, then of -2 tol
        monkeypatch.setattr(exact, "max_survival",
                            lambda *args: near + zero)
        assert max_distribution(system, 1)[2] == 0
        monkeypatch.setattr(exact, "max_survival", lambda *args: far + zero)
        with pytest.raises(ArithmeticError, match="negative"):
            max_distribution(system, 1)

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
        assert [len(lu) for lu, _ in system._factors.values()] == [n - 1]
        for j_level in range(2, n + 1):
            h = reach_probability(small_system(n, c, digits), j_level)
            assert abs(tails[1][j_level - 1] - h[0]) < tol
            if j_level > 3:
                assert abs(tails[3][j_level - 1] - h[2]) < tol

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("digits", [60, 400])
    def test_max_survival_is_the_top_down_reach_in_any_order(self, n,
                                                              digits):
        # whatever the order of the levels, level 1 and levels past n
        # included, max_survival gives bit for bit what reach_probability
        # gives on a fresh system asked from the highest level down; a
        # fresh system per level factors only the block below it, whose
        # tail column rounds apart, so it agrees to the tolerance (above)
        levels = list(range(1, n + 3))
        orders = [levels, levels[::-1],
                  random.Random(n).sample(levels, len(levels))]
        fresh = small_system(n, 1.3, digits)
        reach = {j: reach_probability(fresh, j) for j in range(n, 0, -1)}
        assert [len(lu) for lu, _ in fresh._factors.values()] == [n - 1]
        for order in orders:
            for i0 in (1, 3):
                got = max_survival(small_system(n, 1.3, digits), i0, order)
                assert got == [reach[j][i0 - 1] if i0 < j <= n
                               else mp.mpf(j <= i0) for j in order]

    def test_reach_matches_mpmath_lu_solve(self):
        n, digits, j_level = 24, 60, 10
        system = small_system(n, 1.3, digits)
        max_survival(system, 1, [n])   # caches the full block
        h = reach_probability(system, j_level)
        with mp.workdps(digits + 10):
            a = mp.matrix(j_level - 1)
            b = mp.matrix(j_level - 1, 1)
            for i in range(1, j_level):
                row = mpf_row(system, i)
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

    def test_reach_is_accurate_to_working_precision(self):
        # the Doolittle pivots lost 2.8e-56 relative here, at level 37
        n, c = 40, 4.0
        system, ref = small_system(n, c, 60), small_system(n, c, 240)
        with mp.workdps(250):
            for j_level in range(2, n):
                worst = max(abs(a - b) / b for a, b in zip(
                    reach_probability(system, j_level),
                    reach_probability(ref, j_level)))
                assert worst < 1e-65, j_level

    def test_reach_factors_only_the_block_below_the_level(self):
        system = small_system(n=400, c=1.0)
        assert len(reach_probability(system, 40)) == 39
        assert [len(lu) for lu, _ in system._factors.values()] == [39]
        assert {i for i, _ in system._rows} == set(range(1, 40))

    def test_larger_level_refactors_at_least_twice_as_large(self):
        system = small_system(n=40, c=1.0)
        reach_probability(system, 6)
        reach_probability(system, 8)
        assert len(system._factors[60][0]) == 10


def _reach_12(system):
    return reach_probability(system, 12)


def _max_12(system):
    return max_survival(system, 1, range(1, 14))


def _recorded_gate(monkeypatch):
    """Record each x the residual gate is handed, then gate it as set."""
    seen, gate = [], exact._residual_inf

    def record(system, digits, x, b):
        seen.append(x)
        return gate(system, digits, x, b)

    monkeypatch.setattr(exact, "_residual_inf", record)
    return seen


def _exactly(pairs):
    """The values of (man, exp) pairs as unrounded mpf tuples."""
    return [mp.libmp.from_man_exp(*t) for t in pairs]


class TestPrecisionRetry:
    """A solve whose residual gate fails is solved once more at twice the
    digits, refined or factored as at the first try, and returns that
    answer; a second failure raises."""

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
                return 1, 0
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

    def test_the_retry_returns_the_pairs_its_gate_read(self, gate,
                                                       monkeypatch):
        failing, _ = gate
        failing.add(60)
        seen = _recorded_gate(monkeypatch)
        got = expected_duration(small_system(n=20, c=1.1, digits=60))
        assert [len(x) for x in seen] == [19, 19]
        assert [v._mpf_ for v in got] == _exactly(seen[1]) \
            != _exactly(seen[0])

    @pytest.mark.parametrize("solve", [expected_duration, _reach_12,
                                       _max_12])
    def test_second_failure_raises(self, solve, gate):
        failing, _ = gate
        failing.update({60, 120})
        with pytest.raises(ArithmeticError, match="raising precision to 120"):
            solve(small_system(n=20, c=1.1, digits=60))

    def test_every_pivot_is_at_least_its_reduced_exit_rate(self):
        # a Doolittle pivot 1 - Q(r, r) - sum L U was not positive at
        # state 35 here; e = L^-1 a, a(r) = Q(r, 0), bounds each from
        # below.  The residual gate still refuses E(T), at both tries.
        system = small_system(n=40, c=16, digits=50)
        lu, _ = system.factors(39)
        with mp.workdps(60):
            e = []
            for r, pairs in enumerate(lu):
                # the factors hold magnitudes: L(r, :r) <= 0
                row, exit_rate = [mp.mpf(t) for t in pairs], mpf_row(
                    system, r + 1)[0]
                e.append(exit_rate - mp.fdot([-v for v in row[:r]], e))
                assert row[r] >= e[r] >= exit_rate > 0
        with pytest.raises(ArithmeticError, match="residual above tolerance "
                           "even after raising precision to 100 digits"):
            expected_duration(small_system(n=40, c=16, digits=50))

    def test_max_survival_solves_at_the_first_digits(self, monkeypatch):
        # the 50-digit factorization needs no retry, and every level
        # matches the 100-digit answer to the tolerance
        rows = []
        row = SubstochasticSystem.row
        monkeypatch.setattr(SubstochasticSystem, "row",
                            lambda system, i, digits=None:
                            rows.append(digits) or row(system, i, digits))
        levels = range(1, 42)
        got = max_survival(small_system(n=40, c=16, digits=50), 1, levels)
        assert set(rows) == {50}
        want = max_survival(small_system(n=40, c=16, digits=100), 1, levels)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-25

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
    fixed-point rows have no float inverse or the residual stalls."""

    @staticmethod
    def eliminated(monkeypatch, system, solve):
        with monkeypatch.context() as m:
            m.setattr(exact, "_refine", lambda *args: None)
            return solve(system)

    @pytest.mark.parametrize("n, c, digits", [
        (3, 0.3, 60), (5, 2.5, 60), (8, 1.0, 60), (13, 0.7, 60),
        (17, 1.7, 60), (21, 2.0, 60), (30, 0.3, 60), (30, 2.5, 60),
        (100, 2.0, 60), (12, 1.0, 400), (30, 1.3, 400)])
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
        # at c = 3 the residual grows from pass to pass, though the
        # inverse's row sums hold E(T) to 1e-15 (below)
        refine, results = exact._refine, []

        def recorded(*args):
            results.append(refine(*args))
            return results[-1]

        monkeypatch.setattr(exact, "_refine", recorded)
        system = small_system(n=100, c=3.0, digits=60)
        got = expected_duration(system)
        assert results == [None]
        assert [len(lu) for lu, _ in system._factors.values()] == [99]
        assert got == self.eliminated(monkeypatch, system, expected_duration)
        # the elimination is accurate to the working precision
        want = expected_duration(small_system(n=100, c=3.0, digits=120))
        with mp.workdps(130):
            assert max(abs(a - b) / b for a, b in zip(got, want)) < 1e-65

    def test_falls_back_when_residual_stalls(self, monkeypatch):
        # half of each correction cuts the residual by 2, not 2**8
        system = small_system(n=12, c=1.0, digits=60)
        scale, rows, inverse = system.fixed_point_q()
        calls = []

        class Half:
            def __matmul__(self, v):
                calls.append(1)
                return 0.5 * (inverse @ v)

        system._inverse[60] = Half()
        got = expected_duration(system)
        assert len(calls) == 2   # two passes running that stalled
        assert 60 in system._factors
        assert got == self.eliminated(monkeypatch, small_system(12, 1.0, 60),
                                      expected_duration)

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_inverse_row_sums_are_the_expected_duration(self, c):
        # (I-Q)^-1 1 = E(T); a float64 LU of I - build_q_float misses it
        # here by 5e-3 (c = 2) and by 100% (c = 3)
        system = small_system(n=100, c=c, digits=60)
        inverse = system.fixed_point_q()[2]
        want = [float(v) for v in expected_duration(system)]
        np.testing.assert_allclose(inverse.sum(axis=1), want, rtol=1e-13)

    def test_underflowing_exit_rate_hands_over_to_elimination(self):
        # at q = 2**-53 the exit rates q**(i(n-i)) of states 3..7 lie
        # below 2**-1074: the float image has no inverse to refine on
        system = SubstochasticSystem(ModelParams(10, 1 - 2 ** -53),
                                     PrecisionConfig(400))
        assert system.fixed_point_q()[2] is None
        expected_duration(system)
        assert 400 in system._factors


def _expectations(system):
    return expected_duration(system) + expected_size(system)


def _all_levels(system):
    return max_survival(system, 1, range(1, system.n + 2))


class TestCheckedSolveValues:
    """Every checked solve returns the pairs its residual gate read."""

    @pytest.mark.parametrize("solve, n, c, digits, digest", [
        (_expectations, 40, 1.3, 400, "9cbee9e6aec8cc90"),   # refined
        (_expectations, 100, 3.0, 60, "f7db3991f3bda371"),   # eliminated
        (_all_levels, 24, 1.3, 60, "c0e32cd6031e41fb"),
        (_all_levels, 24, 1.3, 400, "03d4136d9a96d0ea"),
        (_reach_12, 24, 1.3, 60, "22db47a5b6070611")])
    def test_values_are_pinned(self, solve, n, c, digits, digest):
        # the (man, exp) pairs of the returned mpf, recorded where the
        # solves turned their pairs into mpf inside each closure
        pairs = [v.man_exp for v in solve(small_system(n, c, digits))]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] \
            == digest

    @pytest.mark.parametrize("solve, refined", [
        (expected_duration, True), (expected_duration, False),
        (_reach_12, False)])
    def test_returns_the_pairs_its_gate_read(self, solve, refined,
                                             monkeypatch):
        seen = _recorded_gate(monkeypatch)
        system = small_system(24, 1.3, 60)
        got = (solve(system) if refined
               else TestRefinement.eliminated(monkeypatch, system, solve))
        assert bool(system._factors) != refined
        assert len(seen) == 1
        assert [v._mpf_ for v in got] == _exactly(seen[0])


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


def _dense_float_solve(q, k, rhs, where):
    """The float solve as it was before it formed I - Q over the reached
    columns only: the whole flushed I - Q over states 1..k, and the gate
    on the unflushed I - Q times x."""
    a = np.eye(k) - q[:k, :k]
    flushed = np.where(np.abs(a) < exact._TINY, 0.0, a)
    reached = exact._reached(flushed)
    x = np.linalg.solve(flushed[:reached, :reached], rhs[:reached])
    if reached < k:
        x = np.concatenate([x, (rhs[reached:] - flushed[reached:, :reached]
                                @ x) / np.diagonal(flushed)[reached:]])
    if not np.isfinite(x).all():
        raise ArithmeticError(f"{where} is not finite")
    residual = float(np.abs(a @ x - rhs).max(initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        raise ArithmeticError(f"{where} has residual {residual:.3g}; "
                              "use the mpf solver")
    return x


class TestSupportOnlySolve:
    """Formed over the reached columns only, the float solve returns the
    dense solve's answers to the bit and refuses what it refuses."""

    @pytest.mark.parametrize("n, c, level, expectations", [
        (40, 1.0, 20, True), (200, 1.2, 100, True), (800, 0.5, 400, True),
        (1000, 1.5, 100, False)])
    def test_answers_equal_the_dense_solve(self, n, c, level, expectations,
                                           monkeypatch):
        params = ModelParams.from_intensity(n, c)
        solves = [partial(reach_probability_float, params, level)]
        if expectations:   # E(T) and E(S) at n=1000, c=1.5 are refused
            solves += [partial(expected_duration_float, params),
                       partial(expected_size_float, params)]
        got = [solve() for solve in solves]
        monkeypatch.setattr(exact, "_checked_float_solve", _dense_float_solve)
        for x, solve in zip(got, solves, strict=True):
            assert np.array_equal(x, solve())
        if n == 800:   # the rows above K were finished from the block
            assert flushed_reach(build_q_float(params), n - 1) == 354

    @pytest.mark.parametrize("n, c", [(40, 1.0), (200, 1.2), (800, 0.5),
                                      (1000, 1.5)])
    def test_q_is_contiguous_and_the_kernel_rows_past_column_0(self, n, c):
        params = ModelParams.from_intensity(n, c)
        full = kernel_rows(params, range(1, n), n)
        for rows in (n - 1, n // 2):
            q = build_q_float(params, rows)
            assert q.flags.c_contiguous
            assert np.array_equal(q, full[:rows, 1:])

    def test_rows_above_k_read_the_flushed_q(self):
        # state 3 sends 1e-160 < _TINY to state 1 and is entered by no
        # transition: K = 2, and its row, whose right-hand side is as
        # small, reads that entry as 0, as the dense solve does
        q = np.array([[0.2, 0.3, 0.0],
                      [0.1, 0.4, 0.0],
                      [1e-160, 0.0, 0.5]])
        rhs = np.array([1.0, 2.0, 1e-170])
        x = exact._checked_float_solve(q, 3, rhs, "hand-built")
        assert np.array_equal(x, _dense_float_solve(q, 3, rhs, "hand-built"))
        assert x[2] == 1e-170 / 0.5

    @pytest.mark.parametrize("n, c", [(100, 2.0), (100, 3.0), (200, 2.0)])
    def test_refuses_what_the_dense_solve_refuses(self, n, c, monkeypatch):
        # the same refusal; a residual's value may differ in its last bits
        params = ModelParams.from_intensity(n, c)

        def refusals():
            out = []
            for solve in (expected_duration_float, expected_size_float):
                with pytest.raises(ArithmeticError) as exc:
                    solve(params)
                out.append(re.sub(r"residual [^;]*;", "residual;",
                                  str(exc.value)))
            return out
        got = refusals()
        monkeypatch.setattr(exact, "_checked_float_solve", _dense_float_solve)
        assert got == refusals()


def flushed_reach(q, k):
    """K of I - Q over states 1..k, flushed below _TINY as the solve is."""
    a = np.eye(k) - q[:k, :k]
    return exact._reached(np.where(np.abs(a) < exact._TINY, 0.0, a))


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
        # over the reached states 1..K the answer is LAPACK's on the
        # unflushed block, bit for bit; the rows above K, finished from
        # it, stay within 4e-15 of a full-size solve
        params = ModelParams.from_intensity(n, c)
        q = build_q_float(params)
        lev = n // 2 - 1   # the states below level n // 2
        cases = [(expected_duration_float(params), n - 1, np.ones(n - 1)),
                 (expected_size_float(params), n - 1, np.arange(1.0, n)),
                 (reach_probability_float(params, n // 2), lev,
                  q[:lev, lev:].sum(axis=1))]
        for x, k, rhs in cases:
            reached = flushed_reach(q, k)
            block = np.linalg.solve(np.eye(reached) - q[:reached, :reached],
                                    rhs[:reached])
            full = np.linalg.solve(np.eye(k) - q[:k, :k], rhs)
            if k == lev:   # the reach twin clips to [0, 1]
                block, full = np.clip(block, 0.0, 1.0), np.clip(full, 0.0,
                                                                1.0)
            assert np.array_equal(x[:reached], block)
            np.testing.assert_allclose(x, full, rtol=4e-15, atol=0)
        if n == 200:
            # as far from 60-digit mpf as the full solve, to 1%: the worst
            # state lies in the block, where LAPACK's rounding on K rows
            # differs from its rounding on all (E(T) at c = 0.5: 1.3779e-13
            # against 1.3762e-13)
            system = SubstochasticSystem(params, PrecisionConfig(60))
            for (x, k, rhs), solve in zip(cases[:2], (expected_duration,
                                                      expected_size)):
                want = np.array([float(v) for v in solve(system)])
                full = np.linalg.solve(np.eye(k) - q, rhs)
                assert (np.abs(x - want) / want).max() \
                    <= 1.01 * (np.abs(full - want) / want).max()

    @pytest.mark.parametrize("n,c", [(200, 2.0), (400, 3.0), (100, 2.0),
                                     (100, 3.0), (300, 1.5)])
    def test_supercritical_solves_still_raise(self, n, c):
        params = ModelParams.from_intensity(n, c)
        for solve in (expected_duration_float, expected_size_float):
            with pytest.raises(ArithmeticError):
                solve(params)


class TestReachedBlock:
    """The float solve and the GTH inverse work on the states 1..K that
    a transition can enter, and finish the rows above K from them."""

    def test_level_one_reaches_nothing(self):
        # a reach of level 1 has no state below it: K = k = 0
        assert exact._reached(np.zeros((0, 0))) == 0
        params = ModelParams.from_intensity(50, 0.5)
        assert reach_probability_float(params, 1).shape == (0,)

    def test_split_of_a_hand_built_kernel(self):
        # states 3 and 4 are entered only from themselves: K = 2, and the
        # rows above it divide by their own diagonals 0.75 and 0.5
        q = np.array([[0.2, 0.3, 0.0, 0.0],
                      [0.1, 0.4, 0.0, 0.0],
                      [0.3, 0.2, 0.25, 0.0],
                      [0.05, 0.1, 0.0, 0.5]])
        assert exact._reached(q) == 2
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            exact._checked_float_solve(q, 4, rhs, "hand-built"),
            np.linalg.solve(np.eye(4) - q, rhs), rtol=1e-15)
        np.testing.assert_allclose(
            exact._gth_inverse(q, 1.0 - q.sum(axis=1)),
            np.linalg.inv(np.eye(4) - q), rtol=1e-15)

    def test_rows_above_k_hold_their_equations(self):
        n = 800
        params = ModelParams.from_intensity(n, 0.5)
        q = build_q_float(params)
        i_minus_q = np.eye(n - 1) - q
        k = flushed_reach(q, n - 1)
        assert k == 354
        # no transition enters a state above K: off the diagonal, the
        # columns above K hold only entries the flush removes
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        assert (off[:, k:] < exact._TINY).all()
        for solve, rhs in ((expected_duration_float, np.ones(n - 1)),
                           (expected_size_float, np.arange(1.0, n))):
            x = solve(params)
            # x(r) (I-Q)(r, r) - Q(r, :K) x_K = rhs(r), to an ulp of x(r)
            residual = (i_minus_q @ x - rhs)[k:]
            assert (np.abs(residual) <= 2 * np.spacing(x[k:])).all()

    def test_split_inverse_is_non_negative_with_e_t_row_sums(
            self, monkeypatch):
        images = []
        gth = exact._gth_inverse
        monkeypatch.setattr(exact, "_gth_inverse",
                            lambda q, a: images.append(q) or gth(q, a))
        system = small_system(n=200, c=1.2, digits=400)
        inverse = system.fixed_point_q()[2]
        assert exact._reached(images[0]) == 176 < 199
        assert (inverse >= 0).all()
        want = [float(v) for v in expected_duration(system)]
        np.testing.assert_allclose(inverse.sum(axis=1), want, rtol=1e-13)

    @pytest.mark.parametrize("n, c, digits", [
        (100, 0.8, 400), (200, 1.2, 60), (300, 1.5, 400), (100, 2.0, 60)])
    def test_refined_values_equal_the_unsplit_elimination(
            self, n, c, digits, monkeypatch):
        images = []
        gth = exact._gth_inverse
        monkeypatch.setattr(exact, "_gth_inverse",
                            lambda q, a: images.append(q) or gth(q, a))
        got = [[v._mpf_ for v in solve(small_system(n, c, digits))]
               for solve in (expected_duration, expected_size)]
        assert exact._reached(images[0]) < n - 1   # the inverse was split
        monkeypatch.setattr(exact, "_reached", len)   # K = k: no split
        system = small_system(n, c, digits)
        assert system.fixed_point_q()[2] is not None
        want = [[v._mpf_ for v in solve(system)]
                for solve in (expected_duration, expected_size)]
        assert got == want
