"""Chain-binomial avalanche Markov chain on n nodes.

Count-level kernel: given X_k = i excited nodes, each of the n - i
resting nodes becomes excited independently with probability 1 - q**i
(q = 1 - p), so X_{k+1} ~ Binomial(n - i, 1 - q**i).  Zero is the unique
absorbing state.  The set-level process tracks which nodes are excited;
its cardinality process has exactly the count-level kernel.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np


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
    """One realized path of a count process absorbed at 0: the avalanche
    chain, or its branching limit (``branching.gw_simulate``).

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


def excite_probability(params: ModelParams, i: int) -> float:
    """1 - q**i, the per-node excitation probability given i excited nodes."""
    if not 0 <= i <= params.n:
        raise ValueError(f"state i={i} outside [0, {params.n}]")
    # -expm1(i*log1p(-p)) keeps full relative accuracy for small p*i
    return -math.expm1(i * math.log1p(-params.p))


def kernel_rows(params: ModelParams, states, width: int | None = None
                ) -> np.ndarray:
    """Pmf rows P(X_{k+1} = j | X_k = i) over j = 0..width-1 (by default
    all of 0..n), one per state i: the binomial log-pmf on one (state, j)
    grid, cut to 0 below -745."""
    from scipy.special import gammaln
    n = params.n
    states = np.asarray(states, dtype=np.int64)
    s = np.array([excite_probability(params, i) for i in states.tolist()])
    j = np.arange(n + 1 if width is None else width)
    k = (n - states)[:, None] - j       # n - i - j, negative off the support
    # lg[t] = log(t!) at every t the grid reads: t < width, and t >= lo,
    # the least n - i - j >= 0
    lo = max(0, n - int(states.max(initial=0)) - len(j) + 1)
    lg = np.zeros(n + 1)
    lg[:min(lo, len(j))] = gammaln(j[:lo] + 1.0)
    lg[lo:] = gammaln(np.arange(lo, n + 1) + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = lg[n - states][:, None] - lg[:len(j)]  # the log-pmf, summed
        rows -= lg.take(k, mode="clip")               # in place
        rows += j * np.log(s)[:, None]
        rows += k * (states * math.log1p(-params.p))[:, None]  # log(q**i)
        cut = (rows < -745.0) | (k < 0)
        np.exp(rows, out=rows, where=~cut)   # only the kept entries
    np.copyto(rows, 0.0, where=cut)
    rows[states == 0] = j == 0          # absorbing; its log(s) is -inf
    return rows


def kernel_row(params: ModelParams, i: int) -> np.ndarray:
    """Full pmf row P(X_{k+1} = . | X_k = i) over j = 0..n (length n+1)."""
    return kernel_rows(params, [i])[0]


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
# stepping the survivors one by one from state pools (``run_block``).  On
# a 2-core x86_64 host a vectorized step took 18-22 us plus 0.07-0.24 us
# per live replicate (an array binomial draw redoes its set-up for each
# element); a pooled step took 0.16-0.38 us in long-lived runs (n <= 100,
# c >= 1.4) and 0.7-1.5 us in blocks of fresh subcritical replicates.
# That puts the break-even at 150-260 live replicates in the first and
# near 35 in the second; whole blocks at seven inputs, n=20, c=2.5 to
# n=1000, c=0.9, ran fastest with the tail entered between 128 and 256,
# as the replicates left by then are the long-lived ones.
_SCALAR_TAIL = 128
# a state's pool is refilled by _POOL_FIRST draws, then each time by twice
# its last fill up to _POOL_CAP: 16 draws cost 2.9 us, 256 cost 18 us, and
# past that the cost per draw falls little (0.07 to 0.05 us) while the
# unused draws a block throws away grow
_POOL_FIRST, _POOL_CAP = 16, 256


def binomial_step(n: int, logq: float, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One transition of every count in ``x``; ``logq`` is log(1 - p).

    The draws are ``Binomial(n - x, 1 - q**x)`` elementwise, taken from
    ``rng`` in array order.
    """
    return rng.binomial(n - x, -np.expm1(x * logq))


def run_block(params: ModelParams, i0: int, size: int,
              rng: np.random.Generator, max_steps: int) -> np.ndarray:
    """Run ``size`` replicates from i0 in lockstep; (T, S, max, truncated) rows.

    A replicate stops at 0 or after ``max_steps`` steps; S and max run
    over x_0..x_T, as in ``simulate_count``, and truncated is 1 for a
    replicate still alive at the cap.

    Every step draws the live replicates with one ``binomial_step`` and
    drops those absorbed.  Once at most ``_SCALAR_TAIL`` are left, each
    survivor in turn, in row order, finishes from per-state pools of
    draws that the survivors share: state x's pool holds
    Binomial(n - x, 1 - q**x) draws, a step from x takes its next unused
    one, and an empty pool is refilled by one sized draw from the
    generator, ``_POOL_FIRST`` values at its first fill and twice its
    last fill, up to ``_POOL_CAP``, after that.  The law is that of
    fresh draws: a refill takes new values from the stream, and when a
    pool is refilled depends only on how many of its values were used,
    never on the unused ones, so given the path so far each value taken
    is a fresh Binomial(n - x, 1 - q**x) draw.  The rows are a function
    of ``rng``'s stream alone.
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
        live = x != 0
        if not live.all():
            done = ~live
            gone = rows[done]
            out[gone, 0] = t
            out[gone, 1] = total[done]
            out[gone, 2] = peak[done]
            rows, x, total, peak = rows[live], x[live], total[live], peak[live]
    pools, fills = {}, {}   # per state: its unused draws, its last fill
    for r, xi, si, mi in zip(rows.tolist(), x.tolist(), total.tolist(),
                             peak.tolist()):
        ti = t
        while xi and ti < max_steps:
            try:
                xi = pools[xi].pop()
            except (KeyError, IndexError):   # a first visit, or used up
                k = fills[xi] = min(2 * fills.get(xi, _POOL_FIRST // 2),
                                    _POOL_CAP)
                # reversed, so that pop() takes the draws in order
                pools[xi] = rng.binomial(
                    n - xi, -math.expm1(xi * logq), k)[::-1].tolist()
                xi = pools[xi].pop()
            ti += 1
            si += xi
            if xi > mi:
                mi = xi
        out[r] = (ti, si, mi, xi > 0)
    return out


def lumped_rows(params: ModelParams, level: int) -> np.ndarray:
    """Kernel rows of states 1..level-1 over j = 0..level-1, with one last
    column for every j >= level: a (level-1) x (level+1) table.

    The float rows' mass misses 1 by rounding (by up to 2.8e-10 at
    n=10**5, c=1.5).  A head summing past 1 is scaled down by its sum,
    as ``Generator.multinomial`` refuses one past 1 + 1e-12; past 1 + 1e-8
    it is a fault and raises.  The last column is what is left of 1.
    """
    head = kernel_rows(params, np.arange(1, level), level)
    mass = head.sum(axis=1)
    if (mass > 1.0 + 1e-8).any():
        raise ArithmeticError(f"kernel row mass {mass.max()!r} exceeds 1 at "
                              f"n={params.n}, p={params.p}")
    over = mass > 1.0
    head[over] /= mass[over, None]
    return np.column_stack([head, np.maximum(0.0, 1.0 - mass)])


def run_occupation(params: ModelParams, i0: int, size: int,
                   rng: np.random.Generator, max_steps: int,
                   level: int) -> np.ndarray:
    """Run ``size`` replicates from i0 until each hits 0 or [level, n];
    returns their occupation counts over 0..level.

    Entry 0 counts the replicates absorbed, entry ``level`` those that
    reached the level (all of them, with no draw, if i0 >= level), and
    entry i in 1..level-1 those still in state i after ``max_steps``
    steps.

    Each step advances the count of every live state in one of two
    exact ways, whichever touches fewer entries.  If the
    ``lumped_rows`` table has no more entries than there are replicates,
    and the live states' rows have fewer than the live replicates, one
    ``Generator.multinomial`` call draws every live state's split over
    its row.  Otherwise one ``binomial_step`` draws every live replicate,
    sorted by state so that numpy keeps its binomial set-up between
    equal draws, and a ``bincount`` of the draws cut at the level gives
    the new counts.
    """
    n = params.n
    if not 1 <= i0 <= n - 1:
        raise ValueError(f"need 1 <= i0 <= n-1, got i0={i0}")
    logq = math.log1p(-params.p)
    counts = np.zeros(level + 1, dtype=np.int64)
    counts[min(i0, level)] = size
    table = (lumped_rows(params, level)
             if i0 < level and (level - 1) * (level + 1) <= size else None)
    for _ in range(max_steps):
        states = np.flatnonzero(counts[1:level]) + 1
        if not len(states):
            break
        live = counts[states]
        counts[states] = 0
        if table is not None and len(states) * (level + 1) < live.sum():
            counts += rng.multinomial(live, table[states - 1]).sum(axis=0)
        else:
            x = binomial_step(n, logq, np.repeat(states, live), rng)
            counts += np.bincount(np.minimum(x, level), minlength=level + 1)
    return counts


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
