"""A fixed reference computation that measures how fast the host runs now.

Shared machines slow a process by a factor that drifts over seconds
to minutes: on the 2-core sandbox the same call took from 1x to 2x its
quiet time, in episodes of tens of seconds, with thread CPU time
moving with wall time (contention for the core, not preemption), and
the speed also swung with a period of about 0.4 s.  The benchmark
times this reference between the operation kinds of every round and
between the calls of some kinds, and scales each timing by
`NOMINAL_S` over the mean of the readings around it (see
`Workload.samples`), so each figure reads as seconds at one fixed host
speed.  Kinds of work slow by different factors under the same
contention, so some metrics are scaled by the one part of the
reference that does their kind of work: `lockstep_s` by the vectorized
part, the exact metrics by the `mpf` part.  The reference is the
benchmark's own code and never calls the program: a change to the
program cannot move it.

The mix imitates the program's four kinds of work: pure-Python
400-digit `mpf` arithmetic, scalar draws from freshly built Philox
generators, vectorized binomial draws over 2e4-element arrays, and
interpreter-bound dictionary and float loops.
"""

import time

import mpmath as mp
import numpy as np

# the reference's times on the quiet sandbox: all of it, its vectorized
# part alone, which tracks the vectorized lockstep routines, and its mpf
# part alone, which tracks the exact solves
NOMINAL_S = {"all": 0.021, "array": 0.004, "mpf": 0.0063}


def _mpf_work():
    with mp.workdps(410):
        a, b, s = mp.mpf(1) / 3, mp.mpf(2) / 7, mp.mpf(0)
        for _ in range(500):
            s = s + a * b
            a = a * b + s


def _rng_work():
    for k in range(150):
        g = np.random.Generator(np.random.Philox(
            key=np.array([k, 7], dtype=np.uint64)))
        x = 5
        for _ in range(20):
            x = int(g.binomial(100, 0.01 * (x % 50 + 1)))


def _array_work():
    g = np.random.Generator(np.random.Philox(key=np.array([1, 2],
                                                          dtype=np.uint64)))
    x = np.full(2 * 10 ** 4, 50)
    for _ in range(2):
        x = g.binomial(1000 - x, -np.expm1(x * np.log1p(-0.002)))


def _interpreter_work():
    d, s = {}, 0.0
    for i in range(30000):
        d[i % 97] = d.get(i % 97, 0) + i
        s += i * 0.5


def slowdown() -> dict:
    """How many times slower than nominal the host runs the reference now,
    as a whole (`all`), in its vectorized part (`array`) and in its mpf
    part (`mpf`)."""
    t0 = time.perf_counter()
    _mpf_work()
    t1 = time.perf_counter()
    _rng_work()
    t2 = time.perf_counter()
    _array_work()
    t3 = time.perf_counter()
    _interpreter_work()
    t4 = time.perf_counter()
    return {"all": (t4 - t0) / NOMINAL_S["all"],
            "array": (t3 - t2) / NOMINAL_S["array"],
            "mpf": (t1 - t0) / NOMINAL_S["mpf"]}
