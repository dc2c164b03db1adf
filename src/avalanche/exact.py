"""Exact absorbing-chain analytics at arbitrary precision.

The transient part of the avalanche kernel is the (n-1)x(n-1)
substochastic matrix Q(i,j), i,j in 1..n-1.  Expected duration solves
(I-Q)x = e, expected total size solves (I-Q)s = (1,...,n-1)', survival
probabilities are iterated products Q^m e, and reach probabilities
restrict the system to the states below the target level.

All solves run in mpmath arbitrary precision (default 400 decimal
digits) with partial pivoting and a post-solve residual check; float64
shortcuts are provided for large n where cubic cost at high precision
is prohibitive.
"""

from dataclasses import dataclass
import math

import mpmath as mp
import numpy as np

from .model import ModelParams, kernel_row

MAX_EXACT_N = 2000
_GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision and the residual acceptance threshold.

    residual_tol defaults to 10**(-decimal_digits/2).
    """

    decimal_digits: int = 400
    residual_tol: float | None = None

    def __post_init__(self):
        if self.decimal_digits < 50:
            raise ValueError(
                f"need at least 50 digits, got {self.decimal_digits}")

    def tol(self, digits: int | None = None) -> mp.mpf:
        if self.residual_tol is not None:
            return mp.mpf(self.residual_tol)
        d = self.decimal_digits if digits is None else digits
        return mp.mpf(10) ** (-d // 2)


class SubstochasticSystem:
    """Transient kernel Q of one parameterized avalanche chain.

    Rows are built lazily (and cached) because some solves, notably
    reach probabilities, touch only the states below a threshold.
    """

    def __init__(self, params: ModelParams,
                 precision: PrecisionConfig | None = None):
        if params.n > MAX_EXACT_N:
            raise ValueError(
                f"exact solves are capped at n={MAX_EXACT_N}, got {params.n}")
        self.params = params
        self.precision = precision or PrecisionConfig()
        self._rows: dict[tuple[int, int], list] = {}

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


def _solve_dense(a_rows: list[list], b: list) -> list:
    """Gaussian elimination with partial pivoting; a_rows is consumed."""
    n = len(b)
    a = [row[:] for row in a_rows]
    x = b[:]
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            raise ArithmeticError("singular system in elimination")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            x[k], x[piv] = x[piv], x[k]
        arow, xk = a[k], x[k]
        inv_piv = 1 / arow[k]
        for r in range(k + 1, n):
            f = a[r][k] * inv_piv
            if f == 0:
                continue
            row = a[r]
            for col in range(k, n):
                row[col] -= f * arow[col]
            x[r] -= f * xk
    for k in range(n - 1, -1, -1):
        acc = x[k]
        row = a[k]
        for col in range(k + 1, n):
            acc -= row[col] * x[col]
        x[k] = acc / row[k]
    return x


def _residual_inf(a_rows: list[list], x: list, b: list) -> mp.mpf:
    worst = mp.mpf(0)
    for row, bi in zip(a_rows, b):
        r = mp.fsum(aij * xj for aij, xj in zip(row, x)) - bi
        worst = max(worst, abs(r))
    return worst


def _system_matrix(system: SubstochasticSystem, digits: int,
                   states: range) -> list[list]:
    """(I - Q) restricted to ``states`` (1-based transient labels)."""
    idx = {i: k for k, i in enumerate(states)}
    out = []
    for i in states:
        full = system.row(i, digits)
        row = [-full[j] if j < len(full) else mp.mpf(0) for j in states]
        row[idx[i]] += 1
        out.append(row)
    return out


def _checked_solve(system: SubstochasticSystem, states: range,
                   rhs_of_digits) -> list:
    """Solve (I-Q)x = b with a residual gate and one precision retry."""
    digits = system.precision.decimal_digits
    for attempt in range(2):
        with mp.workdps(digits + _GUARD_DIGITS):
            a = _system_matrix(system, digits, states)
            b = rhs_of_digits(digits)
            x = _solve_dense(a, b)
            if _residual_inf(a, x, b) < system.precision.tol(digits):
                return x
        digits *= 2
    raise ArithmeticError(
        f"residual above tolerance even after raising precision to "
        f"{digits // 2} digits (n={system.n}, p={system.params.p})")


def expected_duration(system: SubstochasticSystem) -> list:
    """E(T | X_0 = i) for i = 1..n-1 as mpf values, from (I-Q)x = e."""
    states = range(1, system.n)
    x = _checked_solve(system, states,
                       lambda d: [mp.mpf(1)] * (system.n - 1))
    if any(v < 1 for v in x):
        raise ArithmeticError("expected duration below 1; solve is broken")
    return x


def expected_size(system: SubstochasticSystem) -> list:
    """E(S | X_0 = i) for i = 1..n-1, from (I-Q)s = (1, ..., n-1)'."""
    states = range(1, system.n)
    s = _checked_solve(system, states,
                       lambda d: [mp.mpf(i) for i in states])
    if any(v < i for v, i in zip(s, states)):
        raise ArithmeticError("expected size below the initial count")
    return s


def duration_survival(system: SubstochasticSystem, m: int) -> list:
    """P(T > m | X_0 = i) for i = 1..n-1, by m matrix-vector products."""
    if m < 0:
        raise ValueError(f"horizon must be >= 0, got {m}")
    digits = system.precision.decimal_digits
    n = system.n
    with mp.workdps(digits + _GUARD_DIGITS):
        v = [mp.mpf(1)] * (n - 1)
        rows = [system.row(i, digits) for i in range(1, n)]
        for _ in range(m):
            v = [mp.fsum(row[j] * v[j - 1]
                         for j in range(1, min(len(row), n)))
                 for row in rows]
    return v


def reach_probability(system: SubstochasticSystem, j_level: int) -> list:
    """h(i) = P(max_k X_k >= j_level | X_0 = i) for i = 1..j_level-1.

    Restricts the linear system to the transient states below the
    level; for i >= j_level the probability is 1 by definition.
    """
    n = system.n
    if not 1 <= j_level <= n:
        raise ValueError(f"level must lie in [1, {n}], got {j_level}")
    if j_level == 1:
        return []
    states = range(1, j_level)

    def rhs(digits):
        out = []
        for i in states:
            row = system.row(i, digits)
            out.append(mp.fsum(row[j_level:]) if j_level < len(row)
                       else mp.mpf(0))
        return out

    h = _checked_solve(system, states, rhs)
    if any(v < 0 or v > 1 for v in h):
        raise ArithmeticError("reach probability escaped [0, 1]")
    return h


def max_survival(system: SubstochasticSystem, i0: int,
                 levels) -> list:
    """P(max_k X_k >= J | X_0 = i0) for each J in ``levels``."""
    if not 1 <= i0 <= system.n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got {i0}")
    out = []
    for j_level in levels:
        if j_level <= i0:
            out.append(mp.mpf(1))
        elif j_level > system.n:
            out.append(mp.mpf(0))
        else:
            out.append(reach_probability(system, j_level)[i0 - 1])
    return out


def max_distribution(system: SubstochasticSystem, i0: int,
                     j_max: int | None = None) -> list:
    """pmf of max_k X_k over J = 0..j_max (entries below i0 are zero)."""
    n = system.n
    j_max = n if j_max is None else j_max
    tail = max_survival(system, i0, range(i0, j_max + 2))
    pmf = [mp.mpf(0)] * (j_max + 1)
    # the tails carry the working precision; so must their differences
    with mp.workdps(system.precision.decimal_digits + _GUARD_DIGITS):
        for j in range(i0, j_max + 1):
            pmf[j] = tail[j - i0] - tail[j - i0 + 1]
    return pmf


def build_q_float(params: ModelParams) -> np.ndarray:
    """Transient kernel Q as a float64 matrix (rows/cols are 1..n-1)."""
    n = params.n
    q = np.empty((n - 1, n - 1))
    for i in range(1, n):
        q[i - 1] = kernel_row(params, i)[1:n]
    return q


def _checked_float_solve(params: ModelParams, rhs: np.ndarray,
                         what: str) -> np.ndarray:
    """Solve (I-Q)x = rhs in float64; raise unless x >= rhs and the
    residual is below 1e-8 * max(1, |rhs|_inf).

    Both expected duration and size satisfy x >= rhs, since the chain
    spends at least the first step (and that step's count) in i.  Near
    and above the transition I - Q can be too ill-conditioned for
    float64, and the solve then returns garbage, negative values
    included.
    """
    a = np.eye(params.n - 1) - build_q_float(params)
    x = np.linalg.solve(a, rhs)
    where = f"float64 {what} at n={params.n}, p={params.p}"
    if not np.isfinite(x).all():
        raise ArithmeticError(f"{where} is not finite")
    if (x < rhs).any():
        raise ArithmeticError(f"{where} falls below its floor "
                              f"(min {float(np.min(x - rhs)):.3g} off)")
    residual = float(np.max(np.abs(a @ x - rhs)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise ArithmeticError(f"{where} has residual {residual:.3g}; "
                              "use the mpf solver")
    return x


def expected_duration_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_duration for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return _checked_float_solve(params, np.ones(params.n - 1),
                                "expected duration")


def expected_size_float(params: ModelParams) -> np.ndarray:
    """float64 version of expected_size for large n; raises
    ArithmeticError where float64 cannot be trusted."""
    return _checked_float_solve(params, np.arange(1, params.n, dtype=float),
                                "expected size")
