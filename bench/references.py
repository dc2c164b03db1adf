"""Reference values computed apart from the program under test.

Nothing here imports `avalanche`: the kernel comes from `scipy.stats`,
float solves from `numpy`, and the high-precision solve from `mpmath`
built directly on `mp.binomial`.
"""

import math

import mpmath as mp
import numpy as np
from scipy.stats import binom, poisson


def _excite(n: int, c: float, states: np.ndarray) -> np.ndarray:
    """1 - q**i for each state i, with q = 1 - c/n."""
    return -np.expm1(states * math.log1p(-c / n))


def transient_q(n: int, c: float, top: int) -> np.ndarray:
    """Kernel block P(X' = j | X = i) for i, j in 1..top."""
    states = np.arange(1, top + 1)
    s = _excite(n, c, states)
    return binom.pmf(states[None, :], (n - states)[:, None], s[:, None])


def duration_and_size(n: int, c: float, top: int | None = None):
    """(E(T | i), E(S | i)) for i = 1..top from a float64 solve.

    With ``top < n - 1`` the chain is cut at ``top``; that is exact to
    float precision whenever the chance of climbing past ``top`` is
    negligible, as for subcritical c and top in the hundreds.
    """
    top = n - 1 if top is None else top
    a = np.eye(top) - transient_q(n, c, top)
    return (np.linalg.solve(a, np.ones(top)),
            np.linalg.solve(a, np.arange(1.0, top + 1)))


def reach(n: int, c: float, level: int) -> np.ndarray:
    """P(max X >= level | X_0 = i) for i = 1..level-1."""
    states = np.arange(1, level)
    s = _excite(n, c, states)
    b = binom.sf(level - 1, n - states, s)
    return np.linalg.solve(np.eye(level - 1) - transient_q(n, c, level - 1), b)


def survival(n: int, c: float, m: int) -> np.ndarray:
    """P(T > m | X_0 = i) for i = 1..n-1 by m products with Q."""
    q = transient_q(n, c, n - 1)
    v = np.ones(n - 1)
    for _ in range(m):
        v = q @ v
    return v


def borel_tanner_pmf(lam: float, i0: int, j_max: int) -> np.ndarray:
    """Borel-Tanner total-progeny pmf over j = 0..j_max."""
    out = np.zeros(j_max + 1)
    for j in range(i0, j_max + 1):
        out[j] = math.exp(math.log(i0 / j) + (j - i0) * math.log(lam * j)
                          - math.lgamma(j - i0 + 1) - lam * j)
    return out


def extinction(c: float) -> float:
    """Smallest root of a = exp(-c (1 - a)), by fixed-point iteration."""
    a = 0.0
    for _ in range(10 ** 5):
        nxt = math.exp(-c * (1.0 - a))
        if abs(nxt - a) < 1e-15:
            return nxt
        a = nxt
    raise ArithmeticError(f"extinction fixed point did not settle at c={c}")


def tv_binomial_poisson(n: int, c: float, i: int) -> float:
    """Exact TV between the kernel row at i and Poisson(c i)."""
    j = np.arange(n + 1)
    a = binom.pmf(j, n - i, _excite(n, c, np.array([i]))[0])
    b = poisson.pmf(j, c * i)
    return 0.5 * (float(np.abs(a - b).sum()) + float(poisson.sf(n, c * i)))


def mean_field_path(alpha: float, x0: float, steps: int) -> np.ndarray:
    """x_0, ..., x_steps of g(x) = (1 - x)(1 - exp(-alpha x))."""
    out = [x0]
    for _ in range(steps):
        x = out[-1]
        out.append((1.0 - x) * -math.expm1(-alpha * x))
    return np.array(out)


def mp_duration_and_size(n: int, p: float, digits: int):
    """E(T | i), E(S | i) for i = 1..n-1 by mpmath.lu_solve at ``digits``."""
    with mp.workdps(digits):
        q = 1 - mp.mpf(p)
        a = mp.matrix(n - 1, n - 1)
        for i in range(1, n):
            s = 1 - q ** i
            for j in range(1, n - i + 1):
                a[i - 1, j - 1] = -mp.binomial(n - i, j) * s ** j \
                    * (1 - s) ** (n - i - j)
            a[i - 1, i - 1] += 1
        et = mp.lu_solve(a, mp.matrix([1] * (n - 1)))
        es = mp.lu_solve(a, mp.matrix(list(range(1, n))))
        return list(et), list(es)
