"""Exact absorbing-chain analytics, in mpf and in float64.

The transient part of the avalanche kernel is the (n-1)x(n-1)
substochastic matrix Q(i,j), i,j in 1..n-1.  Expected duration solves
(I-Q)x = e, expected total size solves (I-Q)s = (1,...,n-1)', survival
probabilities are iterated products Q^m e, and reach probabilities
restrict the system to the states below the target level.

The mpf tier runs in arbitrary precision (default 400 decimal digits)
on integer kernel rows, each solve with an integer residual gate.  The
expectations are refined from float64 corrections on an exact
fixed-point residual; where that does not converge they, and every
reach level, run on one cached LU of I-Q per chain, without pivoting.
The float64 twins, for large n where cubic cost at high precision is
prohibitive, share one checked solve and refuse what the mpf twins
refuse; the Q-taking forms let one float Q serve many.  That solve
hands LAPACK I-Q with its entries below _TINY (1.5e-154) flushed to 0,
as subnormal fill made it 2.5-3x slower at n >= 400; its residual gate
reads the unflushed I-Q.
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
import math
import operator

import mpmath as mp
import numpy as np

from .model import ModelParams, kernel_rows

MAX_EXACT_N = 2000
MIN_DIGITS = 50
_GUARD_DIGITS = 10
_TINY = np.sqrt(np.finfo(float).tiny)   # products of kept entries are normal


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision; a solve at d digits is accepted when its
    residual is below 10**(-d/2)."""

    decimal_digits: int = 400

    def __post_init__(self):
        if self.decimal_digits < MIN_DIGITS:
            raise ValueError(f"need at least {MIN_DIGITS} digits, "
                             f"got {self.decimal_digits}")

    def tol(self, digits: int | None = None) -> mp.mpf:
        return mp.mpf(10) ** (-(digits or self.decimal_digits) // 2)


class SubstochasticSystem:
    """Transient kernel Q of one parameterized avalanche chain.

    Rows are built lazily (and cached) because some solves, notably
    reach probabilities, touch only the states below a threshold.

    Every row comes from `int_row`, which the residual gate reads.  The
    expectations refine on its fixed-point rows, with each correction
    solved on the float64 Q of `build_q_float`, the one float kernel
    formula (`fixed_point_q` holds both).  The reach solves, and
    the expectations where refinement fails, run on one cached
    factorization per digit count: the LU of I-Q over states 1..K plus
    a tail column, minus each row's mass above K.  Row i's
    diagonal exceeds its off-diagonal magnitudes by Q(i,0) plus that
    mass, > 0 for p < 1; this strict row dominance holds in every Schur
    complement, so no pivoting is needed (Higham, Accuracy and Stability
    of Numerical Algorithms, section 9.5), and leading blocks share
    their factors: the K = n-1 factors serve both expectations, and one
    block every reach level up to K+1.
    """

    def __init__(self, params: ModelParams,
                 precision: PrecisionConfig | None = None):
        if params.n > MAX_EXACT_N:
            raise ValueError(
                f"exact solves are capped at n={MAX_EXACT_N}, got {params.n}")
        self.params = params
        self.precision = precision or PrecisionConfig()
        self._int_rows: dict[tuple[int, int], list] = {}
        self._rows: dict[tuple[int, int], list] = {}
        self._sums: dict[int, list[list]] = {}
        self._factors: dict[int, list[list]] = {}
        self._fixed: dict[int, tuple[int, list[list[int]], np.ndarray]] = {}

    @property
    def n(self) -> int:
        return self.params.n

    def int_row(self, i: int, digits: int | None = None) -> list:
        """Full kernel pmf row at state i over j = 0..n-i as (mantissa,
        exponent) pairs, within 2**-(P+5) relative, P the working bits
        plus 16: from (q**i)**m, m = n-i, term j is t_{j-1} * R * (m-j+1)
        / j, R = (1 - q**i) / q**i, cut to w = P + bitlen(m) + 8 bits, with
        q = 1 - p exact.  Floating mantissas keep a row's far tail accurate
        where a fixed scale 2**-P would cut it to 0."""
        digits = digits or self.precision.decimal_digits
        key = (i, digits)
        if key in self._int_rows:
            return self._int_rows[key]
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"transient state i={i} outside [1, {self.n - 1}]")
        m = self.n - i
        w = _scale(digits) + m.bit_length() + 8
        num, den = self.params.p.as_integer_ratio()
        fail, den = (den - num) ** i, den ** i    # q**i = fail / den
        with mp.workprec(w + m.bit_length() + 4):
            ratio, r_exp = (mp.mpf(den - fail) / fail).man_exp
            man, exp = (mp.mpf((fail, 1 - den.bit_length())) ** m).man_exp
        out = [(man, exp)]
        for j in range(1, m + 1):
            man = man * ratio * (m - j + 1) // j
            s = max(man.bit_length() - w, 0)
            man, exp = man >> s, exp + r_exp + s
            out.append((man, exp))
        self._int_rows[key] = out
        return out

    def row(self, i: int, digits: int | None = None) -> list:
        """Full kernel pmf row at state i as mpf values over j = 0..n-i:
        the integer row's terms rounded to the working precision, for the
        elimination and ``duration_survival``."""
        digits = digits or self.precision.decimal_digits
        key = (i, digits)
        if key not in self._rows:
            with mp.workdps(digits + _GUARD_DIGITS):
                self._rows[key] = [mp.mpf(t) for t in self.int_row(i, digits)]
        return self._rows[key]

    def factors(self, k: int, digits: int | None = None) -> list[list]:
        """LU of [I-Q | tail] over states 1..K, some K >= k: row r holds
        L(r, :r), U(r, r:K) and the reduced tail.  A smaller cached block
        is refactored at least twice as large, so growing level by level
        stays O(n^3); a block at a new digit count is at least as large
        as any cached one, so a retry serves the levels its first try
        served."""
        digits = digits or self.precision.decimal_digits
        lu = self._factors.get(digits, [])
        if len(lu) >= k:
            return lu
        k = max(k, min(2 * len(lu), self.n - 1),
                *(len(f) for f in self._factors.values()))
        lu = []
        with mp.workdps(digits + _GUARD_DIGITS):
            for r in range(k):
                full = self.row(r + 1, digits)
                a = [-v for v in full[1:k + 1]]
                a += [mp.mpf(0)] * (k - len(a)) + [-mp.fsum(full[k + 1:])]
                a[r] += 1
                out = []   # Doolittle: L(r, j) for j < r, then U(r, j)
                for j in range(k + 1):
                    v = a[j] - mp.fdot(out[:r], (u[j] for u in lu))
                    out.append(v / lu[j][j] if j < r else v)
                if out[r] <= 0:
                    raise ArithmeticError(f"pivot {r + 1} is not positive at "
                                          f"{digits} digits")
                lu.append(out)
            # row r summed from each column j > r on, tail included:
            # exact sums rounded once, as mp.fsum rounds them
            self._sums[digits] = [[+v for v in accumulate(reversed(
                row[r + 1:]), partial(mp.fadd, exact=True))][::-1]
                for r, row in enumerate(lu)]
        self._factors[digits] = lu
        return lu

    def fixed_point_q(self, digits: int | None = None
                      ) -> tuple[int, list[list[int]], np.ndarray]:
        """(P, rows, q): P the working bits plus 16, row i-1 the integers
        Q(i, j) * 2**P truncated from the integer row, j = 1..n-i, and q
        the float64 Q of ``build_q_float``; cached per digit count.
        """
        digits = digits or self.precision.decimal_digits
        if digits not in self._fixed:
            scale = _scale(digits)
            self._fixed[digits] = scale, [
                _scaled(self.int_row(i, digits)[1:], scale)
                for i in range(1, self.n)], build_q_float(self.params)
        return self._fixed[digits]


def _scale(digits: int) -> int:
    """P: the working bits at ``digits`` digits plus 16."""
    return mp.libmp.dps_to_prec(digits + _GUARD_DIGITS) + 16


def _scaled(terms: list, s: int) -> list[int]:
    """floor(t * 2**s) for each term (man, exp) below 1, so exp < 0."""
    return [(man << s) >> -exp for man, exp in terms]


def _residual_inf(system: SubstochasticSystem, digits: int, x: list,
                  b: list[int]) -> mp.mpf:
    """An upper bound on max_i |x(i) - (Qx)(i) - b(i)| over states
    1..len(x), x being 1 above its last state (a reach level's boundary),
    exact in integers at 2**-g: g sums the bits of the tolerance, max|x|
    and n, plus 16, up to P; (2 + (n+1) max|x|) 2**-g covers truncating
    x and the integer rows to 2**-g, and the rows' own error."""
    n = system.n
    mag = mp.mag(1 + max(map(abs, x), default=0))   # max|x| < 2**mag
    g = min(mag - mp.mag(system.precision.tol(digits)) + n.bit_length()
            + 16, _scale(digits))
    xs = [int(mp.ldexp(v, g)) for v in x] + [1 << g] * (n - 1 - len(x))
    worst = max((abs((xi << g) - (bi << 2 * g) - sum(map(
        operator.mul, _scaled(system.int_row(i, digits)[1:], g), xs)))
        for i, (xi, bi) in enumerate(zip(xs, b), start=1)), default=0)
    return mp.mpf((worst + ((2 + (n + 1 << mag)) << g), -2 * g))


def _checked_solve(system: SubstochasticSystem, solve, b: list) -> list:
    """Accept x = solve(digits) on states 1..len(b) when its residual
    against b is below 10**(-d/2), else solve once more at twice the
    digits; an elimination pivot that is not positive fails a try too.
    The refusal names the digits of the last try."""
    digits = system.precision.decimal_digits
    for _ in range(2):
        with mp.workdps(digits + _GUARD_DIGITS):
            try:
                x = solve(digits)
            except ArithmeticError as exc:
                if type(exc) is not ArithmeticError:   # subclasses are bugs
                    raise
                refusal = exc
            else:
                if (_residual_inf(system, digits, x, b)
                        < system.precision.tol(digits)):
                    return x
                refusal = None
        digits *= 2
    raise refusal or ArithmeticError(
        f"residual above tolerance even after raising precision to "
        f"{digits // 2} digits (n={system.n}, p={system.params.p})")


def _back(lu: list[list], x: list) -> list:
    """Back substitution U x = y in place on the leading len(x) states."""
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - mp.fdot(lu[i][i + 1:len(x)], x[i + 1:])) / lu[i][i]
    return x


# a refinement pass must cut the residual by this many bits; two
# passes running that do not hand the solve to the elimination
_SHRINK_BITS = 8


def _refine(system: SubstochasticSystem, b: list[int],
            digits: int) -> list | None:
    """(I-Q)^-1 b over states 1..n-1 by iterative refinement, or None
    where it does not converge: the float kernel refuses a correction,
    or the residual fails twice running to shrink by 2**_SHRINK_BITS.

    x is kept in integers at scale 2**P and the residual b - (I-Q)x
    exactly at scale 2**2P, on the fixed-point Q (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12; Carson and Higham, SIAM
    J. Sci. Comput. 40(2), 2018).  Each pass solves for the correction
    in float64, rounds it to 53-bit integers m times one power of two,
    adds it to x and takes it off the residual by P-bit by 53-bit
    products.  It stops once a correction is below 2**-(P-16), the
    working precision: x >= b >= 1, so that is relative too.
    """
    scale, fixed, q = system.fixed_point_q(digits)
    where = f"refinement at n={system.n}, p={system.params.p}"
    x = [0] * len(b)
    r = [v << 2 * scale for v in b]
    size, stalls = max(r), 0
    while True:
        shift = max(size.bit_length() - 53, 0)
        try:
            y = _checked_float_solve(q, len(b), np.array(
                [float(v >> shift) for v in r]), where)
        except ArithmeticError:
            return None
        # the correction is y * 2**(shift - P) in units of x's last bit
        t = 53 - math.frexp(float(np.abs(y).max()))[1]
        m = np.rint(np.ldexp(y, t)).astype(np.int64).tolist()
        s = shift - scale - t
        if s < 0:   # below x's last bit: round to it
            m, s = [(v + (1 << (-s - 1))) >> -s for v in m], 0
        x = [xi + (v << s) for xi, v in zip(x, m)]
        if max(map(abs, m)) << s < 1 << 16:
            break
        r = [ri + ((sum(map(operator.mul, row, m)) - (v << scale)) << s)
             for ri, row, v in zip(r, fixed, m)]
        last, size = size, max(map(abs, r))
        stalls = stalls + 1 if size << _SHRINK_BITS > last else 0
        if stalls == 2:
            return None
    return [mp.mpf((v, -scale)) for v in x]


def _expectation(system: SubstochasticSystem, b: list[int],
                 what: str) -> list:
    """(I-Q)^-1 b over states 1..n-1, refined or else by forward and back
    substitution; at least b, as the chain starts in i."""
    def solve(digits):
        x = _refine(system, b, digits)
        if x is not None:
            return x
        lu, y = system.factors(system.n - 1, digits), []
        for row, bi in zip(lu, b):
            y.append(bi - mp.fdot(row, y))
        return _back(lu, y)

    x = _checked_solve(system, solve, b)
    if any(v < bi for v, bi in zip(x, b)):
        raise ArithmeticError(f"{what} below its floor; solve is broken")
    return x


def expected_duration(system: SubstochasticSystem) -> list:
    """E(T | X_0 = i) for i = 1..n-1 as mpf values, from (I-Q)x = e."""
    return _expectation(system, [1] * (system.n - 1), "expected duration")


def expected_size(system: SubstochasticSystem) -> list:
    """E(S | X_0 = i) for i = 1..n-1, from (I-Q)s = (1, ..., n-1)'."""
    return _expectation(system, list(range(1, system.n)), "expected size")


def duration_survival(system: SubstochasticSystem, m: int) -> list:
    """P(T > m | X_0 = i) for i = 1..n-1, by m matrix-vector products."""
    if m < 0:
        raise ValueError(f"horizon must be >= 0, got {m}")
    digits = system.precision.decimal_digits
    n = system.n
    with mp.workdps(digits + _GUARD_DIGITS):
        v = [mp.mpf(1)] * (n - 1)
        rows = [system.row(i, digits)[1:] for i in range(1, n)]
        for _ in range(m):
            v = [mp.fdot(row, v) for row in rows]
    return v


def _states_below(n: int, j_level: int) -> int:
    """The count of transient states below a reach level in [1, n]."""
    if not 1 <= j_level <= n:
        raise ValueError(f"level must lie in [1, {n}], got {j_level}")
    return j_level - 1


def reach_probability(system: SubstochasticSystem, j_level: int) -> list:
    """h(i) = P(max_k X_k >= j_level | X_0 = i) for i = 1..j_level-1.

    Restricts the linear system to the transient states below the
    level; for i >= j_level the probability is 1 by definition.  The
    reduced right-hand side is minus the U rows' sums over columns >=
    j_level and the tail, all <= 0 as I-Q is an M-matrix: no cancellation.
    """
    m = _states_below(system.n, j_level)
    # factors fills _sums before they are read; factors(0) leaves it unset
    h = _checked_solve(system, lambda digits: _back(
        system.factors(m, digits), [-s[m - i - 1] for i, s in enumerate(
            system._sums.get(digits, [])[:m])]), [0] * m)
    if any(v < 0 or v > 1 for v in h):
        raise ArithmeticError("reach probability escaped [0, 1]")
    return h


def max_survival(system: SubstochasticSystem, i0: int,
                 levels) -> list:
    """P(max_k X_k >= J | X_0 = i0) for each J in ``levels``, all from
    one factorization at the highest level solved."""
    if not 1 <= i0 <= system.n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got {i0}")
    levels = list(levels)
    system.factors(max((j for j in levels if i0 < j <= system.n),
                       default=1) - 1)
    out = []
    for j_level in levels:
        if i0 < j_level <= system.n:
            out.append(reach_probability(system, j_level)[i0 - 1])
        else:
            out.append(mp.mpf(j_level <= i0))
    return out


def max_distribution(system: SubstochasticSystem, i0: int,
                     j_max: int | None = None) -> list:
    """pmf of max_k X_k over J = 0..j_max (entries below i0 are zero)."""
    j_max = system.n if j_max is None else j_max
    tail = max_survival(system, i0, range(i0, j_max + 2))
    # the tails carry the working precision; so must their differences
    with mp.workdps(system.precision.decimal_digits + _GUARD_DIGITS):
        pmf = [mp.mpf(0)] * i0 + [a - b for a, b in zip(tail, tail[1:])]
    return pmf[:j_max + 1]


def build_q_float(params: ModelParams, rows: int | None = None) -> np.ndarray:
    """Transient kernel Q as a float64 matrix over states 1..n-1, or its
    first ``rows`` rows (states 1..rows)."""
    n = params.n
    q = kernel_rows(params, range(1, n if rows is None else rows + 1))
    return np.ascontiguousarray(q[:, 1:n])


def _checked_float_solve(q: np.ndarray, k: int, rhs: np.ndarray,
                         where: str) -> np.ndarray:
    """Solve (I-Q) x = rhs over states 1..k in float64; raise unless x is
    finite and the residual on the unflushed I - Q is below 1e-8 * max(1,
    |rhs|_inf).  LAPACK gets I - Q with its entries below _TINY flushed to
    0, as their subnormal fill in the LU made it 2.5-3x slower at n >= 400;
    that moves no row of this row-dominant M-matrix by a resolvable amount
    (Higham, section 9.5).  Near and above the transition I - Q can be too
    ill-conditioned for float64: the solve then returns garbage, negative
    values included.  Callers check their own invariants on top."""
    a = np.eye(k) - q[:k, :k]   # k = 0 (a reach of level 1) is empty
    x = np.linalg.solve(np.where(np.abs(a) < _TINY, 0.0, a), rhs)
    if not np.isfinite(x).all():
        raise ArithmeticError(f"{where} is not finite")
    residual = float(np.abs(a @ x - rhs).max(initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        raise ArithmeticError(f"{where} has residual {residual:.3g}; "
                              "use the mpf solver")
    return x


def float_expectation(params: ModelParams, q: np.ndarray, rhs: np.ndarray,
                      what: str) -> np.ndarray:
    """Checked (I-Q)^-1 rhs from the float Q of ``params``, at least rhs
    as the chain starts in i."""
    where = f"float64 {what} at n={params.n}, p={params.p}"
    x = _checked_float_solve(q, params.n - 1, rhs, where)
    if (x < rhs).any():
        raise ArithmeticError(f"{where} falls below its floor "
                              f"(min {float(np.min(x - rhs)):.3g} off)")
    return x


def expected_duration_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_duration for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return float_expectation(params, build_q_float(params),
                             np.ones(params.n - 1), "expected duration")


def expected_size_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_size for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return float_expectation(params, build_q_float(params),
                             np.arange(1.0, params.n), "expected size")


def reach_float(params: ModelParams, q: np.ndarray,
                j_level: int) -> np.ndarray:
    """float64 reach_probability from the rows of a float Q of ``params``
    below the level (at least j_level - 1 of them)."""
    lev = _states_below(params.n, j_level)
    where = f"float64 reach of level {j_level} at n={params.n}, p={params.p}"
    h = _checked_float_solve(q, lev, q[:lev, lev:].sum(axis=1), where)
    # rounding may carry a probability a few ulps past [0, 1]; more is a
    # failed solve
    if not ((h >= -1e-8) & (h <= 1 + 1e-8)).all():
        raise ArithmeticError(f"{where} escaped [0, 1]")
    return np.clip(h, 0.0, 1.0)


def reach_probability_float(params: ModelParams, j_level: int) -> np.ndarray:
    """float64 version of reach_probability, from the rows of Q below
    the level."""
    return reach_float(
        params, build_q_float(params, _states_below(params.n, j_level)),
        j_level)


def q_powers(q: np.ndarray, v: np.ndarray, m_max: int) -> np.ndarray:
    """Q^m v for m = 0..m_max in float64: P(T > m | X_0 = i) for v = 1,
    and E(X_m | X_0 = i) for v = (1, ..., n-1), as Q puts no mass on n."""
    if m_max < 0:
        raise ValueError(f"horizon must be >= 0, got {m_max}")
    out = [v]
    for _ in range(m_max):
        out.append(q @ out[-1])
    return np.array(out)


def kernel_power_mean(params: ModelParams, i0: int, k: int) -> float:
    """E(X_k | X_0 = i0) for 0 <= i0 <= n, from k float64 products of Q
    with (1, ..., n-1)."""
    n = params.n
    if not 0 <= i0 <= n or k < 0:
        raise ValueError(f"need 0 <= i0 <= {n} and k >= 0, "
                         f"got i0={i0}, k={k}")
    if i0 in (0, n):
        return float(i0) if k == 0 else 0.0
    means = q_powers(build_q_float(params), np.arange(1.0, n), k)
    return float(means[k][i0 - 1])
