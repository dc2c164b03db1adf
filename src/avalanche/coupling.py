"""Couplings between the avalanche chain and its Poisson branching limit.

Two constructions:

* a monotone triple (X, Q, Z), X <= Q <= Z pathwise, X distributed as
  the avalanche chain and Z as the Galton-Watson chain with mean c: each
  step drops Q' ~ Poisson(c*x) balls on the n-x resting nodes, counts the
  occupied nodes from one uniform label per ball (none for a single
  ball), thins them to X', and adds Poisson(c*(z-x)) balls to make Z';
* a maximal coupling that keeps the avalanche and branching chains glued
  together until they diverge with exactly the total-variation
  probability of the two one-step laws.
"""

import bisect
from dataclasses import dataclass
import functools
import math

import numpy as np

from .model import (DEFAULT_MAX_STEPS, ModelParams, excite_probability,
                    kernel_row)


@dataclass(frozen=True)
class CoupledPath:
    """Aligned sample paths of the monotone triple."""

    x_seq: np.ndarray
    q_seq: np.ndarray
    z_seq: np.ndarray
    truncated: bool = False

    @property
    def dominated(self) -> bool:
        return bool(np.all(self.x_seq <= self.q_seq)
                    and np.all(self.q_seq <= self.z_seq))


def check_coupling_constant(params: ModelParams, c: float) -> None:
    """Verify -log(q) <= c/(n-1), the condition the coupling needs."""
    if params.c > c:
        raise ValueError(f"coupling constant c={c} is below n*p={params.c}")
    if -math.log1p(-params.p) > c / (params.n - 1):
        raise ValueError(
            f"-log(1-p)={-math.log1p(-params.p):.6g} exceeds "
            f"c/(n-1)={c / (params.n - 1):.6g}")


def coupled_step_monotone(params: ModelParams, c: float, x: int, z: int,
                          rng: np.random.Generator) -> tuple[int, int, int]:
    """One step of the monotone triple from (x, ., z).

    Q' ~ Poisson(c*x) balls land uniformly on the m = n-x resting nodes;
    by Poisson splitting the node counts are independent
    Poisson(c*x/m), the per-node construction.  Ball j lands on node
    floor(u_j*m), u_j = ``rng.random()``; u_j <= 1 - 2**-53 keeps the
    label below m for every m < 2**53, and the labels are uniform to
    that resolution.  K, the number of distinct labels, is counted on
    the sorted labels; a single ball takes no draw (K = 1).  Each of the
    K occupied nodes is excited with probability
    p_u = (1 - q**x) / (1 - exp(-c*x/m)), so X' ~ Bin(K, p_u) is the
    avalanche step, and Z' = Q' + Poisson(c*(z-x)) is Poisson(c*z).  A
    Poisson(0) draw (Q' at x = 0, the top-up at z = x) is skipped; numpy
    takes no draw for it, so the stream is the same either way.
    X' <= K <= Q' <= Z' by construction.
    """
    if not 0 <= x <= params.n - 1:
        raise ValueError(f"state x={x} outside [0, {params.n - 1}]")
    if x > z:
        raise ValueError(f"monotonicity broken on entry: x={x} > z={z}")
    if x == 0:  # Poisson(0) takes no draw, and p_u below is 0/0
        return 0, 0, int(rng.poisson(c * z))
    q_next = int(rng.poisson(c * x))
    z_next = q_next + int(rng.poisson(c * (z - x))) if z > x else q_next
    if q_next == 0:
        return 0, 0, z_next
    m = params.n - x
    p_u = excite_probability(params, x) / -math.expm1(-c * x / m)
    if p_u > 1.0 + 1e-12:
        raise ValueError(
            f"thinning probability {p_u} > 1; coupling constant too small")
    occupied = 1
    if q_next > 1:
        labels = (rng.random(q_next) * m).astype(np.intp)
        labels.sort()
        occupied += int(np.count_nonzero(labels[1:] != labels[:-1]))
    return int(rng.binomial(occupied, min(p_u, 1.0))), q_next, z_next


def simulate_coupled(params: ModelParams, c: float, i0: int,
                     rng: np.random.Generator,
                     z_cap: int = 10 ** 9) -> CoupledPath:
    """Run the monotone triple from x = q = z = i0 until both chains die.

    Truncated after ``DEFAULT_MAX_STEPS`` steps or once z passes z_cap.
    """
    if not 1 <= i0 <= params.n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got i0={i0}")
    check_coupling_constant(params, c)
    xs, qs, zs = [i0], [i0], [i0]
    x, z = i0, i0
    truncated = False
    for _ in range(DEFAULT_MAX_STEPS):
        if x == 0 and z == 0:
            break
        x, q, z = coupled_step_monotone(params, c, x, z, rng)
        xs.append(x)
        qs.append(q)
        zs.append(z)
        if z > z_cap:
            truncated = True
            break
    else:
        truncated = True
    return CoupledPath(np.array(xs), np.array(qs), np.array(zs), truncated)


def _pad_pair(pmf1: np.ndarray,
              pmf2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pmf1 and pmf2, zero-padded to the longer one's support."""
    k = max(len(pmf1), len(pmf2))
    a, b = np.zeros(k), np.zeros(k)
    a[: len(pmf1)], b[: len(pmf2)] = pmf1, pmf2
    return a, b


def tv_exact(pmf1: np.ndarray, pmf2: np.ndarray) -> float:
    """Exact TV distance 0.5*sum|p1 - p2| over a common support grid."""
    a, b = _pad_pair(pmf1, pmf2)
    return 0.5 * float(np.abs(a - b).sum())


def _poisson_pmf_truncated(mean: float) -> np.ndarray:
    """Poisson pmf out to cumulative mass 1 - 1e-12.

    The cut is one past the smallest k with P(K > k) <= 1e-12; the
    search window below holds it for any tolerance >= 1e-70."""
    if mean == 0.0:
        return np.array([1.0])
    from scipy.special import gammaln, pdtrc, xlogy
    k = np.arange(int(mean + 20 * math.sqrt(mean)) + 40)
    hi = int(np.argmax(pdtrc(k, mean) <= 1e-12)) + 1
    k = np.arange(hi + 1)
    return np.exp(xlogy(k, mean) - gammaln(k + 1) - mean)


def step_divergence_tv(params: ModelParams, i: int) -> float:
    """Exact TV distance between the kernel row at i and Poisson(c*i):
    the one-step divergence probability of the maximal coupling."""
    return tv_exact(kernel_row(params, i),
                    _poisson_pmf_truncated(params.c * i))


def step_divergence_bound(c: float, i: int, n: int) -> float:
    """Per-step envelope for the maximal-coupling divergence probability.

    3*c**1.5*i**1.5/(2n) in the supercritical case, 3*c*i**2/(2n) at or
    below criticality.
    """
    if c > 1.0:
        return 1.5 * c ** 1.5 * i ** 1.5 / n
    return 1.5 * c * i * i / n


def _cdf(w: np.ndarray) -> tuple[float, ...]:
    """CDF of the weights w as an immutable tuple, formed as
    ``Generator.choice`` forms it: normalize, cumsum, divide by the last
    entry.  So ``bisect.bisect_right(cdf, rng.random())`` is the draw
    ``rng.choice(len(w), p=w / w.sum())`` makes from the same generator
    state, the index ``searchsorted(side="right")`` gives.  The trailing
    plateau of 1.0 is cut, as no u < 1 lands on it."""
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf[: int(cdf.searchsorted(1.0)) + 1].tolist())


@functools.lru_cache(maxsize=32)
def _maximal_tables(params: ModelParams, i: int):
    """(omega, overlap CDF, avalanche residual CDF, branching residual CDF).

    omega is the overlap mass sum(min(p1, p2)) between the kernel row at
    i and Poisson(c*i); a table is None where its branch cannot be
    taken (the overlap when omega = 0, the residuals when omega >= 1).
    """
    a, b = _pad_pair(kernel_row(params, i),
                     _poisson_pmf_truncated(params.c * i))
    overlap = np.minimum(a, b)
    omega = float(overlap.sum())
    glued = _cdf(overlap) if omega > 0.0 else None
    if omega >= 1.0:
        return omega, glued, None, None
    residuals = np.clip(a - b, 0.0, None), np.clip(b - a, 0.0, None)
    if not all(r.sum() > 0.0 for r in residuals):
        raise ValueError(f"a residual of the maximal coupling at i={i} has "
                         f"no mass, but the overlap is only {omega!r}")
    return (omega, glued, *map(_cdf, residuals))


def step_coupled_maximal(params: ModelParams, i: int,
                         rng: np.random.Generator) -> tuple[int, int, bool]:
    """Maximally coupled one-step draw of (avalanche, branching) from i.

    Samples the pair so that P(x' != z') equals the exact TV distance
    between the kernel row at i and Poisson(c*i): draw from the overlap
    min(p1, p2) with probability 1 - TV, otherwise from the two
    normalized residuals (whose supports are disjoint).  The tables are
    built once per (params, i); each draw is one ``rng.random()``.
    """
    if i == 0:
        return 0, 0, False
    omega, glued, res_x, res_z = _maximal_tables(params, i)
    if rng.random() < omega:
        v = bisect.bisect_right(glued, rng.random())
        return v, v, False
    return (bisect.bisect_right(res_x, rng.random()),
            bisect.bisect_right(res_z, rng.random()), True)
