"""Exact absorbing-chain analytics, in mpf and in float64.

The transient part of the avalanche kernel is the (n-1)x(n-1)
substochastic matrix Q(i,j), i,j in 1..n-1.  Expected duration solves
(I-Q)x = e, expected total size solves (I-Q)s = (1,...,n-1)', survival
probabilities are iterated products Q^m e, and reach probabilities
restrict the system to the states below the target level.

The mpf tier runs in arbitrary precision (default 400 decimal digits)
on one cached LU of I-Q per chain, without pivoting, each solve with a
residual check.  Its float64 twins, for large n where cubic cost at high
precision is prohibitive, share one checked solve and refuse what the
mpf twins refuse; the Q-taking forms let one float Q serve many.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .model import ModelParams, kernel_row

MAX_EXACT_N = 2000
MIN_DIGITS = 50
_GUARD_DIGITS = 10


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

    Every solve runs on one cached factorization per digit count: the
    LU of I-Q over states 1..K plus a tail column, minus each row's mass
    above K.  Row i's diagonal exceeds its off-diagonal magnitudes by
    Q(i,0) plus that mass, > 0 for p < 1; this strict row dominance
    holds in every Schur complement, so no pivoting is needed (Higham,
    Accuracy and Stability of Numerical Algorithms, section 9.5), and
    leading blocks share their factors: the K = n-1 factors serve both
    expectations, and one block every reach level up to K+1.
    """

    def __init__(self, params: ModelParams,
                 precision: PrecisionConfig | None = None):
        if params.n > MAX_EXACT_N:
            raise ValueError(
                f"exact solves are capped at n={MAX_EXACT_N}, got {params.n}")
        self.params = params
        self.precision = precision or PrecisionConfig()
        self._rows: dict[tuple[int, int], list] = {}
        self._factors: dict[int, list[list]] = {}

    @property
    def n(self) -> int:
        return self.params.n

    def row(self, i: int, digits: int | None = None) -> list:
        """Full kernel pmf row at state i as mpf values over j = 0..n-i.

        The binomial terms are generated by the ratio recurrence
        directly in mpf arithmetic; mpf exponents never underflow, so
        no log-space detour is needed.
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"transient state i={i} outside [1, {self.n - 1}]")
        digits = digits or self.precision.decimal_digits
        key = (i, digits)
        if key in self._rows:
            return self._rows[key]
        with mp.workdps(digits + _GUARD_DIGITS):
            q = 1 - mp.mpf(self.params.p)
            fail = q ** i          # per-node miss probability q**i
            s = 1 - fail
            m = self.n - i
            term = fail ** m
            out = [term]
            ratio = s / fail
            for j in range(1, m + 1):
                term = term * ratio * (m - j + 1) / j
                out.append(term)
        self._rows[key] = out
        return out

    def factors(self, k: int, digits: int | None = None) -> list[list]:
        """LU of [I-Q | tail] over states 1..K, some K >= k: row r holds
        L(r, :r), U(r, r:K) and the reduced tail.  A smaller cached block
        is refactored at least twice as large, so growing level by level
        stays O(n^3)."""
        digits = digits or self.precision.decimal_digits
        lu = self._factors.get(digits, [])
        if len(lu) >= k:
            return lu
        k = max(k, min(2 * len(lu), self.n - 1))
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
                    raise ArithmeticError(f"pivot {r + 1} is not positive")
                lu.append(out)
        self._factors[digits] = lu
        return lu


def _residual_inf(system: SubstochasticSystem, digits: int, x: list,
                  b: list) -> mp.mpf:
    """max_i |x(i) - (Qx)(i) - b(i)| over states 1..len(x), from the
    rows; x is 1 above its last state, as at a reach level's boundary."""
    xs = x + [mp.mpf(1)] * (system.n - 1 - len(x))
    return max((abs(xi - bi - mp.fdot(system.row(i, digits)[1:], xs))
                for i, (xi, bi) in enumerate(zip(x, b), start=1)), default=0)


def _checked_solve(system: SubstochasticSystem, k: int, reduce,
                   b: list) -> list:
    """Solve U x = reduce(factors of states 1..k) on states 1..len(b);
    accept x when its residual against b is below 10**(-d/2), else
    refactor the same block once at twice the digits."""
    digits = system.precision.decimal_digits
    for _ in range(2):
        with mp.workdps(digits + _GUARD_DIGITS):
            lu = system.factors(k, digits)
            x = reduce(lu)
            for i in range(len(x) - 1, -1, -1):
                x[i] = ((x[i] - mp.fdot(lu[i][i + 1:len(x)], x[i + 1:]))
                        / lu[i][i])
            if (_residual_inf(system, digits, x, b)
                    < system.precision.tol(digits)):
                return x
        k, digits = len(lu), 2 * digits
    raise ArithmeticError(
        f"residual above tolerance even after raising precision to "
        f"{digits // 2} digits (n={system.n}, p={system.params.p})")


def _expectation(system: SubstochasticSystem, b: list, what: str) -> list:
    """(I-Q)^-1 b over states 1..n-1 by forward and back substitution;
    at least b, as the chain starts in i."""
    def forward(lu):
        y = []
        for row, bi in zip(lu, b):
            y.append(bi - mp.fdot(row, y))
        return y
    x = _checked_solve(system, system.n - 1, forward, b)
    if any(v < bi for v, bi in zip(x, b)):
        raise ArithmeticError(f"{what} below its floor; solve is broken")
    return x


def expected_duration(system: SubstochasticSystem) -> list:
    """E(T | X_0 = i) for i = 1..n-1 as mpf values, from (I-Q)x = e."""
    return _expectation(system, [mp.mpf(1)] * (system.n - 1),
                        "expected duration")


def expected_size(system: SubstochasticSystem) -> list:
    """E(S | X_0 = i) for i = 1..n-1, from (I-Q)s = (1, ..., n-1)'."""
    return _expectation(system, [mp.mpf(i) for i in range(1, system.n)],
                        "expected size")


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
    h = _checked_solve(system, m, lambda lu: [-mp.fsum(lu[i][m:])
                                              for i in range(m)], [0] * m)
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
    rows = n - 1 if rows is None else rows
    q = np.empty((rows, n - 1))
    for i in range(1, rows + 1):
        q[i - 1] = kernel_row(params, i)[1:n]
    return q


def _checked_float_solve(q: np.ndarray, k: int, rhs: np.ndarray,
                         where: str) -> np.ndarray:
    """Solve (I-Q) x = rhs over states 1..k in float64; raise unless x is
    finite and the residual is below 1e-8 * max(1, |rhs|_inf).

    Near and above the transition I - Q can be too ill-conditioned for
    float64: the solve then returns garbage, negative values included.
    Callers check their own invariants on top."""
    a = np.eye(k) - q[:k, :k]   # k = 0 (a reach of level 1) is empty
    x = np.linalg.solve(a, rhs)
    if not np.isfinite(x).all():
        raise ArithmeticError(f"{where} is not finite")
    residual = float(np.max(np.abs(a @ x - rhs), initial=0.0))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(rhs), initial=0.0))):
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
