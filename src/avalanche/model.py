"""Chain-binomial avalanche Markov chain on n nodes.

Count-level kernel: given X_k = i excited nodes, each of the n - i
resting nodes becomes excited independently with probability 1 - q**i
(q = 1 - p), so X_{k+1} ~ Binomial(n - i, 1 - q**i).  Zero is the unique
absorbing state.  The set-level process tracks which nodes are excited;
its cardinality process has exactly the count-level kernel.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class ModelParams:
    """Single-network parameters (node count n, excitation probability p)."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need 0 < p < 1, got p={self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def c(self) -> float:
        """Intensity factor n*p."""
        return self.n * self.p

    @property
    def alpha(self) -> float:
        """Mean-field intensity -n*log(1 - p); always exceeds c."""
        return -self.n * math.log1p(-self.p)

    @classmethod
    def from_intensity(cls, n: int, c: float) -> "ModelParams":
        """Build params from the intensity c = n*p."""
        return cls(n, c / n)


@dataclass(frozen=True)
class Trajectory:
    """One realized avalanche path.

    ``states`` is x_0, ..., x_T (last entry 0) unless ``truncated``, in
    which case duration and size are lower bounds.
    """

    states: np.ndarray
    truncated: bool = False

    @property
    def duration(self) -> int:
        return len(self.states) - 1

    @property
    def size(self) -> int:
        return int(self.states.sum())

    @property
    def max(self) -> int:
        return int(self.states.max())

    def heterogeneity(self, n: int) -> np.ndarray:
        """H_k = x_k * (n - x_k) along the path."""
        return self.states * (n - self.states)


def excite_probability(params: ModelParams, i: int) -> float:
    """1 - q**i, the per-node excitation probability given i excited nodes."""
    if not 0 <= i <= params.n:
        raise ValueError(f"state i={i} outside [0, {params.n}]")
    # -expm1(i*log1p(-p)) keeps full relative accuracy for small p*i
    return -math.expm1(i * math.log1p(-params.p))


def kernel_pmf(params: ModelParams, i: int, j: int) -> float:
    """Transition probability P(X_{k+1} = j | X_k = i).

    Equals C(n-i, j) * s**j * (1-s)**(n-i-j) with s = 1 - q**i, and 0
    for j > n - i.  Evaluated in log space.
    """
    n = params.n
    if not 0 <= i <= n:
        raise ValueError(f"state i={i} outside [0, {n}]")
    if j < 0 or j > n - i:
        return 0.0
    m = n - i
    if i == 0:
        return 1.0 if j == 0 else 0.0
    s = excite_probability(params, i)
    if s == 0.0:
        return 1.0 if j == 0 else 0.0
    if s == 1.0:
        return 1.0 if j == m else 0.0
    logp = (gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
            + j * math.log(s) + (m - j) * (i * math.log1p(-params.p)))
    if logp < -745.0:
        return 0.0
    return float(math.exp(logp))


def kernel_row(params: ModelParams, i: int) -> np.ndarray:
    """Full pmf row P(X_{k+1} = . | X_k = i) over j = 0..n (length n+1)."""
    n = params.n
    if not 0 <= i <= n:
        raise ValueError(f"state i={i} outside [0, {n}]")
    row = np.zeros(n + 1)
    if i == 0:
        row[0] = 1.0
        return row
    m = n - i
    s = excite_probability(params, i)
    j = np.arange(m + 1)
    logq_i = i * math.log1p(-params.p)  # log(q**i) = log(1 - s)
    with np.errstate(divide="ignore"):
        logp = (gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
                + j * np.log(s) + (m - j) * logq_i)
    row[: m + 1] = np.where(logp < -745.0, 0.0, np.exp(logp))
    return row


def kernel_pmf_exact(params: ModelParams, i: int, j: int) -> Fraction:
    """Rational-arithmetic kernel entry; exact for n <= 64.

    Uses the exact binary value of p, so row sums are identically 1.
    """
    n = params.n
    if n > 64:
        raise ValueError("rational mode is limited to n <= 64")
    if not 0 <= i <= n:
        raise ValueError(f"state i={i} outside [0, {n}]")
    if j < 0 or j > n - i:
        return Fraction(0)
    q = 1 - Fraction(params.p)
    s = 1 - q ** i
    m = n - i
    return math.comb(m, j) * s ** j * (1 - s) ** (m - j)


def conditional_moments(params: ModelParams, i: int) -> tuple[float, float]:
    """(E[X_{k+1} | X_k=i], E[X_{k+1}**2 | X_k=i]) in closed form."""
    n = params.n
    if not 0 <= i <= n:
        raise ValueError(f"state i={i} outside [0, {n}]")
    s = excite_probability(params, i)
    m = n - i
    mean = m * s
    second = m * s * (1.0 - s) + (m * s) ** 2
    return mean, second


def step_count(params: ModelParams, i: int, rng: np.random.Generator) -> int:
    """One exact transition draw from state i."""
    if not 0 <= i <= params.n:
        raise ValueError(f"state i={i} outside [0, {params.n}]")
    if i == 0 or i == params.n:
        return 0
    return int(rng.binomial(params.n - i, excite_probability(params, i)))


DEFAULT_MAX_STEPS = 10 ** 6


def simulate_count(params: ModelParams, i0: int, rng: np.random.Generator,
                   max_steps: int = DEFAULT_MAX_STEPS) -> Trajectory:
    """Run the count chain from i0 until absorption (or the safety cap).

    The path-returning scalar reference for ``run_block``.
    """
    if not 1 <= i0 <= params.n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got i0={i0}")
    states = [i0]
    x = i0
    for _ in range(max_steps):
        x = step_count(params, x, rng)
        states.append(x)
        if x == 0:
            return Trajectory(np.array(states))
    return Trajectory(np.array(states), truncated=True)


# Below this many live replicates a vectorized step costs more than
# stepping the survivors one by one: an array binomial draw carries about
# 15 us of fixed overhead (argument checks), a scalar one about 1 us.
_SCALAR_TAIL = 16


def binomial_step(n: int, logq: float, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One transition of every count in ``x``; ``logq`` is log(1 - p).

    The draws are ``Binomial(n - x, 1 - q**x)`` elementwise, taken from
    ``rng`` in array order.
    """
    return rng.binomial(n - x, -np.expm1(x * logq))


def run_block(params: ModelParams, i0: int, size: int,
              rng: np.random.Generator,
              max_steps: int = DEFAULT_MAX_STEPS) -> np.ndarray:
    """Run ``size`` replicates from i0 in lockstep; (T, S, max, truncated) rows.

    Every step draws the live replicates with one ``binomial_step`` and
    drops those absorbed.  Once at most ``_SCALAR_TAIL`` are left, each
    survivor in turn, in row order, finishes with scalar draws from the
    same generator.  A replicate alive after ``max_steps`` steps has
    T = max_steps, truncated = 1, and S and max over x_0..x_max_steps,
    as in ``simulate_count``.
    """
    n = params.n
    if not 1 <= i0 <= n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got i0={i0}")
    logq = math.log1p(-params.p)
    out = np.zeros((size, 4), dtype=np.int64)
    rows = np.arange(size)
    x = np.full(size, i0, dtype=np.int64)
    total = x.copy()
    peak = x.copy()
    t = 0
    while len(rows) > _SCALAR_TAIL and t < max_steps:
        x = binomial_step(n, logq, x, rng)
        t += 1
        total += x
        np.maximum(peak, x, out=peak)
        if not x.all():
            dead = x == 0
            gone = rows[dead]
            out[gone, 0] = t
            out[gone, 1] = total[dead]
            out[gone, 2] = peak[dead]
            live = ~dead
            rows, x, total, peak = rows[live], x[live], total[live], peak[live]
    for r, xi, si, mi in zip(rows.tolist(), x.tolist(), total.tolist(),
                             peak.tolist()):
        ti = t
        while xi and ti < max_steps:
            xi = int(rng.binomial(n - xi, -math.expm1(xi * logq)))
            ti += 1
            si += xi
            if xi > mi:
                mi = xi
        out[r] = (ti, si, mi, xi != 0)
    return out


def simulate_set(params: ModelParams, a0: frozenset, rng: np.random.Generator,
                 max_steps: int = DEFAULT_MAX_STEPS) -> list[frozenset]:
    """Run the set-level chain from the excited set a0 (labels 1..n).

    Returns the sequence A_0, A_1, ..., ending with the empty set unless
    the cap is hit.  The excited set is kept as a boolean array over the
    nodes internally.
    """
    n = params.n
    if not a0 or len(a0) >= n:
        raise ValueError("initial set must be neither empty nor all nodes")
    if not all(1 <= v <= n for v in a0):
        raise ValueError("node labels must lie in 1..n")
    excited = np.zeros(n, dtype=bool)
    excited[[v - 1 for v in a0]] = True
    labels = np.arange(1, n + 1)
    path = [frozenset(a0)]
    for _ in range(max_steps):
        s = excite_probability(params, int(excited.sum()))
        excited = ~excited & (rng.random(n) < s)
        path.append(frozenset(labels[excited].tolist()))
        if not excited.any():
            break
    return path
