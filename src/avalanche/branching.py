"""Poisson Galton-Watson limit of the avalanche chain.

Covers simulation, the extinction-probability fixed point
a = exp(-(1-a)*mu), the Borel-Tanner law of the total progeny, exact
generation-wise extinction via generating-function iteration, and the
classical Agresti / Lindvall bounds used to sandwich duration and
maxima.
"""

import functools
import math

import numpy as np

from .meanfield import brentq
from .model import DEFAULT_MAX_STEPS, Trajectory

FIXED_POINT_TOL = 1e-12


@functools.lru_cache
def extinction_prob(mu: float) -> float:
    """Root alpha != 1 of alpha = exp(-(1-alpha)*mu).

    Lies in (0,1) for mu > 1 (the extinction probability) and in
    (1,oo) for mu < 1 (its dual).  mu = 1 has no non-unit root.

    One bracketed solve for v = log(alpha), the root v != 0 of
    v = mu*expm1(v).  The slope 1 - mu*e**v of the difference changes
    sign only at v = -log(mu), and the root lies beyond it, away from
    v = 0: in [-mu, -log(mu)] for mu > 1 and in
    [-log(mu), log(2*(mu - log(mu))/mu)] for mu < 1.  Full double
    precision for mu <= 708; past that alpha leaves the normal floats.
    Memoized: a campaign asks for a few means many times.
    """
    if mu <= 0:
        raise ValueError(f"mean must be positive, got {mu}")
    if mu == 1.0:
        raise ValueError("mu = 1: the fixed point equation only has root 1")
    turn = -math.log(mu)
    lo, hi = ((-mu, turn) if mu > 1.0
              else (turn, math.log(2.0 * (mu + turn) / mu)))
    v = brentq(lambda v: v - mu * math.expm1(v), lo, hi,
               xtol=1e-300, rtol=9e-16)
    alpha = math.exp(v)
    if abs(alpha - math.exp(-(1.0 - alpha) * mu)) >= FIXED_POINT_TOL * alpha:
        raise ArithmeticError(f"fixed point solve failed to converge at mu={mu}")
    return alpha


def ruin_ratio(a: float, i, j):
    """(1 - a**i)/(1 - a**j) for a > 0, a != 1; ``j`` may be an array.

    The chance that the martingale a**Z_k, started at i, reaches level j
    before 0.  Formed with expm1, and with a**j divided out when a > 1,
    so it neither cancels near a = 1 nor overflows at large j.
    """
    log_a = math.log(a)
    j = np.asarray(j, dtype=float)
    if a < 1.0:
        return np.expm1(i * log_a) / np.expm1(j * log_a)
    return (np.exp((i - j) * log_a) * np.expm1(-i * log_a)
            / np.expm1(-j * log_a))


def borel_tanner_pmf(lam: float, i0: int, j) -> np.ndarray | float:
    """Borel-Tanner pmf of the total progeny at j (scalar or array).

    P(S = j) = (i0/j) * (lam*j)**(j-i0) / (j-i0)! * exp(-lam*j) for
    j >= i0, zero below.  For lam > 1 this is a subdistribution with
    total mass alpha_lam**i0.
    """
    if lam <= 0:
        raise ValueError(f"offspring mean must be positive, got {lam}")
    if i0 < 1:
        raise ValueError(f"initial population must be >= 1, got {i0}")
    from scipy.special import gammaln
    jj = np.asarray(j, dtype=float)
    scalar = jj.ndim == 0
    jj = np.atleast_1d(jj)
    out = np.zeros_like(jj)
    ok = jj >= i0
    jo = jj[ok]
    logp = (math.log(i0) - np.log(jo) + (jo - i0) * np.log(lam * jo)
            - gammaln(jo - i0 + 1) - lam * jo)
    # (lam*j)**0 with j == i0 is 1 even when the log form hits log(0)*0
    logp = np.where(jo == i0, math.log(i0) - np.log(jo) - lam * jo, logp)
    out[ok] = np.exp(logp)
    return float(out[0]) if scalar else out


EXPLOSION_CAP = 10 ** 9


def gw_simulate(lam: float, i0: int, rng: np.random.Generator,
                max_steps: int = DEFAULT_MAX_STEPS,
                explosion_cap: int = EXPLOSION_CAP) -> Trajectory:
    """Simulate generation sizes Z_0 = i0, Z_{k+1} ~ Poisson(lam * Z_k).

    A population above ``explosion_cap``, or one still alive after
    ``max_steps`` generations, stops the run and marks it truncated
    (counted as survival in extinction statistics).
    """
    if lam <= 0:
        raise ValueError(f"offspring mean must be positive, got {lam}")
    if i0 < 1:
        raise ValueError(f"initial population must be >= 1, got {i0}")
    z = i0
    states = [z]
    for _ in range(max_steps):
        z = int(rng.poisson(lam * z))
        states.append(z)
        if z == 0:
            return Trajectory(np.array(states))
        if z > explosion_cap:
            break
    return Trajectory(np.array(states), truncated=True)


def gw_extinct_by(lam: float, i0: int, m: int) -> float:
    """Exact P(extinct within m generations) = F^m(0)**i0.

    F(s) = exp(lam*(s-1)) is the Poisson offspring generating function.
    """
    if m < 0:
        raise ValueError(f"horizon must be >= 0, got {m}")
    s = 0.0
    for _ in range(m):
        s = math.exp(lam * (s - 1.0))
    return s ** i0


def duration_tail_s(c: float) -> float:
    """s(c) = (2 - c)/c from the Agresti lower bound."""
    return (2.0 - c) / c


def duration_tail_r(c: float) -> float:
    """r(c) = c*exp(-c) / (exp(-c) - (1 - c)) from the Agresti upper bound."""
    if c == 1.0:
        return 1.0
    return c * math.exp(-c) / (math.exp(-c) - (1.0 - c))


def agresti_duration_bounds(c: float, i0: int, m: int) -> tuple[float, float]:
    """(lower, upper) sandwich for P(extinction time <= m), Poisson offspring.

    Critical case: (m/(m+2))**i0 <= P <= (m/(m+e-1))**i0.  Off-critical
    cases use the s/r weights; the supercritical branch weighs them at
    alpha_c * c.
    """
    if c <= 0:
        raise ValueError(f"offspring mean must be positive, got {c}")
    if m < 1:
        raise ValueError(f"horizon must be >= 1, got {m}")
    if c == 1.0:
        return (m / (m + 2.0)) ** i0, (m / (m + math.e - 1.0)) ** i0
    if c > 1.0:
        alpha = extinction_prob(c)
        b = (c * alpha) ** m
        s1 = duration_tail_s(alpha * c)
        r1 = duration_tail_r(alpha * c)
        lower = (alpha * s1 * (1.0 - b) / (s1 - b)) ** i0
        upper = (alpha * r1 * (1.0 - b) / (r1 - b)) ** i0
        return lower, upper
    b = c ** m
    s2 = duration_tail_s(c)
    r2 = duration_tail_r(c)
    lower = (s2 * (1.0 - b) / (s2 - b)) ** i0
    upper = (r2 * (1.0 - b) / (r2 - b)) ** i0
    return lower, upper


def lindvall_max_bound(lam: float, i0: int, m: int) -> float:
    """Upper bound on P(max generation >= m) for lam <= 1.

    Critical: i0/m.  Subcritical: ruin_ratio(alpha, i0, m) with
    alpha = alpha_lam > 1.  No such bound is available for lam > 1.
    """
    if lam > 1.0:
        raise ValueError("the maxima bound only applies for lam <= 1")
    if not m > i0 >= 1:
        raise ValueError(f"need m > i0 >= 1, got m={m}, i0={i0}")
    if lam == 1.0:
        return i0 / m
    return ruin_ratio(extinction_prob(lam), i0, m)
