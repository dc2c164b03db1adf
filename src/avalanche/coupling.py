"""Couplings between the avalanche chain and its Poisson branching limit.

Two constructions:

* a monotone triple (X, Q, Z), X <= Q <= Z pathwise, X distributed as
  the avalanche chain and Z as the Galton-Watson chain with mean c: each
  step drops Q' ~ Poisson(c*x) balls on the n-x resting nodes, thins the
  occupied nodes to X', and adds Poisson(c*(z-x)) balls to make Z';
* a maximal coupling that keeps the avalanche and branching chains glued
  together until they diverge with exactly the total-variation
  probability of the two one-step laws.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .model import ModelParams, excite_probability, kernel_row


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

    Q' ~ Poisson(c*x) balls land uniformly on the n-x resting nodes; by
    Poisson splitting the node counts are independent Poisson(c*x/(n-x)),
    the per-node construction.  Each of the K occupied nodes is excited
    with probability p_u = (1 - q**x) / (1 - exp(-c*x/(n-x))), so
    X' ~ Bin(K, p_u) is the avalanche step, and Z' = Q' + Poisson(c*(z-x))
    is Poisson(c*z).  X' <= K <= Q' <= Z' by construction.
    """
    if x > z:
        raise ValueError(f"monotonicity broken on entry: x={x} > z={z}")
    q_next = int(rng.poisson(c * x))
    z_next = q_next + int(rng.poisson(c * (z - x)))
    if q_next == 0:  # covers x = 0, where p_u below is 0/0
        return 0, 0, z_next
    m = params.n - x
    p_u = excite_probability(params, x) / -math.expm1(-c * x / m)
    if p_u > 1.0 + 1e-12:
        raise ValueError(
            f"thinning probability {p_u} > 1; coupling constant too small")
    occupied = len(set(rng.integers(0, m, size=q_next).tolist()))
    return int(rng.binomial(occupied, min(p_u, 1.0))), q_next, z_next


def simulate_coupled(params: ModelParams, c: float, i0: int,
                     rng: np.random.Generator,
                     max_steps: int = 10 ** 6,
                     z_cap: int = 10 ** 9) -> CoupledPath:
    """Run the monotone triple from x = q = z = i0 until both chains die."""
    if i0 < 1:
        raise ValueError(f"need i0 >= 1, got {i0}")
    check_coupling_constant(params, c)
    xs, qs, zs = [i0], [i0], [i0]
    x, z = i0, i0
    truncated = False
    for _ in range(max_steps):
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


def tv_binomial_poisson(n_trials: int, p: float) -> float:
    """TV bound (p/2)*min(1, n*p) between Bin(n,p) and Poisson(n*p)."""
    if n_trials < 0:
        raise ValueError(f"trial count must be >= 0, got {n_trials}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    return 0.5 * p * min(1.0, n_trials * p)


def tv_poisson_poisson(mu: float, c: float) -> float:
    """TV bound min(1, 1/sqrt(c)) * (c - mu) between Poisson(mu), Poisson(c)."""
    if not 0.0 < mu < c:
        raise ValueError(f"need 0 < mu < c, got mu={mu}, c={c}")
    return min(1.0, 1.0 / math.sqrt(c)) * (c - mu)


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


def _poisson_pmf_truncated(mean: float, tail_tol: float = 1e-12) -> np.ndarray:
    """Poisson pmf out to cumulative mass 1 - tail_tol.

    The cut is one past the smallest k with P(K > k) <= tail_tol; the
    search window below holds it for any tail_tol >= 1e-70."""
    if mean == 0.0:
        return np.array([1.0])
    k = np.arange(int(mean + 20 * math.sqrt(mean)) + 40)
    hi = int(np.argmax(pdtrc(k, mean) <= tail_tol)) + 1
    k = np.arange(hi + 1)
    return np.exp(xlogy(k, mean) - gammaln(k + 1) - mean)


def step_divergence_bound(c: float, i: int, n: int) -> float:
    """Per-step envelope for the maximal-coupling divergence probability.

    3*c**1.5*i**1.5/(2n) in the supercritical case, 3*c*i**2/(2n) at or
    below criticality.
    """
    if c > 1.0:
        return 1.5 * c ** 1.5 * i ** 1.5 / n
    return 1.5 * c * i * i / n


def step_coupled_maximal(params: ModelParams, i: int,
                         rng: np.random.Generator) -> tuple[int, int, bool]:
    """Maximally coupled one-step draw of (avalanche, branching) from i.

    Samples the pair so that P(x' != z') equals the exact TV distance
    between the kernel row at i and Poisson(c*i): draw from the overlap
    min(p1, p2) with probability 1 - TV, otherwise from the two
    normalized residuals (whose supports are disjoint).
    """
    if i == 0:
        return 0, 0, False
    a, b = _pad_pair(kernel_row(params, i),
                     _poisson_pmf_truncated(params.c * i))
    overlap = np.minimum(a, b)
    omega = float(overlap.sum())
    if rng.random() < omega:
        v = int(rng.choice(len(a), p=overlap / omega))
        return v, v, False
    res_a = np.clip(a - b, 0.0, None)
    res_b = np.clip(b - a, 0.0, None)
    x_next = int(rng.choice(len(a), p=res_a / res_a.sum()))
    z_next = int(rng.choice(len(a), p=res_b / res_b.sum()))
    return x_next, z_next, True
