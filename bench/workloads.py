"""The four workloads, built from timed operations on the program.

An operation is one timed unit: a `run_trajectories` call, a batch of
coupled paths or maximal probes, one lockstep call, one exact or float
solve, one verify campaign.  A workload is a list of operation kinds;
each round runs every kind the same number of times, in order, so every
run attempts whole rounds.  Every end-to-end metric is reported on every
workload: a workload's own operations feed the metrics it exists to
measure, and a small fixed probe (`_probes`), run twice a round, feeds
each other metric.

Each operation checks the invariants of every output it gets (a
breach counts the operation as failed) and, in `problems`, compares
what it gathered with the references in `references.py`.
"""

import bisect
import gc
import statistics
import sys
import time
import traceback
from typing import Callable

import mpmath as mp
import numpy as np

from avalanche import coupling, exact, harness, model, rng
import references as ref

N_SE = 5            # Monte Carlo estimates must lie within 5 standard errors
FLOAT_RTOL = 1e-8   # against a float64 reference; absolute below 1
GAP_MEAN_FIELD = 1e-3
DIGITS = 400


def derive(*keys) -> int:
    """A 32-bit master seed for the program, derived from the run seed."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def jitter(seed: int, key: int, centre: float, half_width: float) -> float:
    u = np.random.default_rng(np.random.SeedSequence([seed, key])).random()
    return centre + half_width * (2.0 * u - 1.0)


def _within(est: float, target: float, tol: float, what: str) -> list[str]:
    if abs(est - target) <= tol:
        return []
    return [f"{what}: {est:.6g} vs {target:.6g}, tolerance {tol:.3g}"]


def _rel_close(got, want, what: str) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    return [] if err <= FLOAT_RTOL else [f"{what}: relative error {err:.3g}"]


def _system(n: int, c: float) -> exact.SubstochasticSystem:
    """A fresh 400-digit system, so no call finds another's cached rows."""
    return exact.SubstochasticSystem(model.ModelParams.from_intensity(n, c),
                                     exact.PrecisionConfig(DIGITS))


class Op:
    """One operation kind: samples per metric, attempted and failed counts.

    Each sample is kept as measured, with the interval from the start
    of the first call it covers to the end of the last, so that the
    workload can scale it by the readings of the host's speed taken
    around that interval.  With `read` set, the host's speed is read
    after every call.
    """

    expected_fault = False
    read_each_call = False  # read after each call when a probe, too

    def __init__(self, metrics):
        self.samples = {m: [] for m in metrics}   # (value, start, end)
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self._seen = set()
        self.read = None
        self.start = None       # start of the first call the next sample covers
        self._end = None        # end of the last call
        self._sampled = False   # a sample was taken since the last call

    def call(self, fn, *args, **kwargs):
        """Time one call; an exception counts the operation as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the benchmark keeps running and reports it
            self.fail(traceback.format_exc())
            return None, 0.0
        dt = time.perf_counter() - t0
        if self.start is None or self._sampled:
            self.start, self._sampled = t0, False
        self._end = t0 + dt
        if self.read is not None:
            self.read()
        return out, dt

    def fail(self, why: str) -> None:
        self.failed += 1
        if not self.expected_fault:
            self.unexpected.append(why)
        if not self.expected_fault or self.failed <= 1:
            print(f"{type(self).__name__} failed: {why}", file=sys.stderr)

    def first_time(self, key) -> bool:
        """False when these inputs ran before (the traced repeat of a
        round), so that checks count each outcome once."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def sample(self, metric: str, value: float) -> None:
        """A sample over the calls since the last sample."""
        self._sampled = True
        if metric in self.samples:
            self.samples[metric].append((value, self.start, self._end))

    def problems(self) -> list[str]:
        return [f"{type(self).__name__}: unexpected failure: {why}"
                for why in self.unexpected[:3]]


class Trajectories(Op):
    """`run_trajectories` calls; rows are (T, S, max, truncated)."""

    J = 200  # size pmf bins; larger sizes share one tail bin

    def __init__(self, metrics, n, c, i0, reps, calls):
        super().__init__(metrics)
        self.params = model.ModelParams.from_intensity(n, c)
        self.n, self.c, self.i0, self.reps, self.calls = n, c, i0, reps, calls
        self.moments = np.zeros((3, 2))   # count, sum, sum of squares of T, S
        self.hist = np.zeros(self.J + 2)
        self.truncated = 0

    def round(self, keyed, r):
        for k in range(self.calls):
            master = keyed(k)
            rows, dt = self.call(harness.run_trajectories, self.params,
                                 self.i0, self.reps, master)
            if rows is None:
                continue
            t, s, mx, tr = rows.T
            if ((t < 1) | (s < self.i0) | (mx < self.i0)
                    | (mx > np.minimum(s, self.n))).any():
                self.fail("a replicate breaks T>=1, S>=i0, i0<=max<=min(S,n)")
                continue
            self.sample("mc_replicates_per_s", self.reps / dt)
            self.sample("mc_steps_per_s", float(t.sum()) / dt)
            if not self.first_time(master):
                continue
            self.truncated += int(tr.sum())
            ts = np.stack([t, s]).astype(float)
            self.moments += [[len(t)] * 2, ts.sum(axis=1), (ts ** 2).sum(axis=1)]
            self.hist += np.bincount(np.minimum(s, self.J + 1),
                                     minlength=self.J + 2)

    def problems(self):
        out = super().problems()
        count, total, squares = self.moments
        if count[0] < 2:
            return out + ["Trajectories: no successful call"]
        if self.truncated:
            out.append(f"Trajectories: {self.truncated} capped replicates")
        (mean_t, mean_s) = total / count
        se_t, se_s = np.sqrt((squares / count - (total / count) ** 2)
                             / (count - 1))
        top = min(self.n - 1, 300)
        et, es = ref.duration_and_size(self.n, self.c, top)
        out += _within(mean_t, et[self.i0 - 1], N_SE * se_t, "mean T")
        out += _within(mean_s, es[self.i0 - 1], N_SE * se_s, "mean S")
        if self.c < 1.0 and self.n >= 1000:
            bt_mean = self.i0 / (1.0 - self.c)
            out += _within(mean_s, bt_mean,
                           N_SE * se_s + abs(es[self.i0 - 1] - bt_mean),
                           "mean S against Borel-Tanner")
            pmf = ref.borel_tanner_pmf(self.c, self.i0, self.J)
            pmf = np.append(pmf, max(0.0, 1.0 - pmf.sum()))
            total = self.hist.sum()
            tv = 0.5 * float(np.abs(self.hist / total - pmf).sum())
            # twice the expected sampling TV bound plus a finite-n allowance
            tol = 0.005 + float(np.sqrt(pmf * (1 - pmf) / total).sum())
            out += _within(tv, 0.0, tol, "size pmf TV from Borel-Tanner")
        return out


class Coupled(Op):
    """Batches of monotone-coupled paths, as the `couple` campaign runs them."""

    def __init__(self, metrics, n, c, i0, paths, calls):
        super().__init__(metrics)
        self.params = model.ModelParams.from_intensity(n, c)
        self.n, self.c, self.i0, self.paths, self.calls = n, c, i0, paths, calls
        self.sx, self.sz = [], []
        self.truncated = 0

    def _batch(self, master):
        return [coupling.simulate_coupled(self.params, self.params.c, self.i0,
                                          rng.replicate_rng(master, p))
                for p in range(self.paths)]

    def round(self, keyed, r):
        for k in range(self.calls):
            master = keyed(k)
            paths, dt = self.call(self._batch, master)
            if paths is None:
                continue
            if not all(p.dominated for p in paths):
                self.fail("a coupled path breaks x <= q <= z")
                continue
            steps = sum(len(p.x_seq) - 1 for p in paths)
            self.sample("coupled_steps_per_s", steps / dt)
            if not self.first_time(master):
                continue
            for p in paths:
                if p.truncated:
                    self.truncated += 1
                else:
                    self.sx.append(int(p.x_seq.sum()))
                    self.sz.append(int(p.z_seq.sum()))

    def problems(self):
        out = super().problems()
        if len(self.sx) < 2:
            return out + ["Coupled: too few paths"]
        if self.truncated:
            out.append(f"Coupled: {self.truncated} truncated paths")
        sx, sz = np.array(self.sx, float), np.array(self.sz, float)
        _, es = ref.duration_and_size(self.n, self.c)
        out += _within(sx.mean(), es[self.i0 - 1],
                       N_SE * sx.std(ddof=1) / np.sqrt(len(sx)), "mean S_x")
        out += _within(sz.mean(), self.i0 / (1.0 - self.c),
                       N_SE * sz.std(ddof=1) / np.sqrt(len(sz)), "mean S_z")
        return out


class Maximal(Op):
    """Batches of `step_coupled_maximal` probes at one state.

    Under contention a batch runs up to 15% faster or slower than the
    reference says, from one batch to the next, so the batches are read
    one by one wherever they run: in one 400-probe batch per pass, the
    probe metric spread by 9-14% over ten seeds.
    """

    read_each_call = True

    def __init__(self, metrics, n, c, i, probes, calls):
        super().__init__(metrics)
        self.params = model.ModelParams.from_intensity(n, c)
        self.n, self.c, self.i, self.probes, self.calls = n, c, i, probes, calls
        self.draws = 0
        self.diverged = 0

    def _batch(self, master):
        g = rng.replicate_rng(master, 0)
        return [coupling.step_coupled_maximal(self.params, self.i, g)
                for _ in range(self.probes)]

    def round(self, keyed, r):
        for k in range(self.calls):
            master = keyed(k)
            draws, dt = self.call(self._batch, master)
            if draws is None:
                continue
            if any(dv == (x == z) for x, z, dv in draws):
                self.fail("a maximal probe's divergence flag disagrees "
                          "with its pair")
                continue
            self.sample("maximal_probes_per_s", self.probes / dt)
            if not self.first_time(master):
                continue
            self.draws += len(draws)
            self.diverged += sum(dv for _, _, dv in draws)

    def problems(self):
        out = super().problems()
        if not self.draws:
            return out + ["Maximal: no probes"]
        tv = ref.tv_binomial_poisson(self.n, self.c, self.i)
        se = np.sqrt(tv * (1 - tv) / self.draws)
        return out + _within(self.diverged / self.draws, tv, N_SE * se,
                             "maximal divergence rate against exact TV")


class Lockstep(Op):
    """`first_passage_fraction` then `simulate_scaled_chain`, timed together."""

    def __init__(self, metrics, reps_fp, reps_sc):
        super().__init__(metrics)
        self.n, self.c_fp, self.i0, self.level = 10 ** 5, 1.5, 2, 100
        self.c_sc, self.x0, self.steps = 2.0, 5000, 50
        self.fp_params = model.ModelParams.from_intensity(self.n, self.c_fp)
        self.sc_params = model.ModelParams.from_intensity(self.n, self.c_sc)
        self.reps_fp, self.reps_sc = reps_fp, reps_sc
        self.reached = 0
        self.tried = 0
        self.path_sum = np.zeros(self.steps + 1)
        self.paths = 0

    def round(self, keyed, r):
        master = keyed(0)
        est, dt1 = self.call(harness.first_passage_fraction, self.fp_params,
                             self.i0, self.level, self.reps_fp, master)
        path, dt2 = self.call(harness.simulate_scaled_chain, self.sc_params,
                              self.x0, self.steps, self.reps_sc, keyed(1))
        if est is not None and not 0.0 <= est.point <= 1.0:
            self.fail(f"first-passage fraction {est.point} outside [0,1]")
            est = None
        if path is not None and not ((path >= 0) & (path <= 1)).all():
            self.fail("scaled-chain path outside [0,1]")
            path = None
        if est is None or path is None:
            return
        self.sample("lockstep_s", dt1 + dt2)
        if self.first_time(master):
            self.reached += round(est.point * est.replicates)
            self.tried += est.replicates
            self.path_sum += path.sum(axis=0)
            self.paths += len(path)

    def problems(self):
        out = super().problems()
        if not self.tried or not self.paths:
            return out + ["Lockstep: no successful round"]
        frac = self.reached / self.tried
        target = 1.0 - ref.extinction(self.c_fp) ** self.i0
        exact_h = ref.reach(self.n, self.c_fp, self.level)[self.i0 - 1]
        se = np.sqrt(target * (1 - target) / self.tried)
        out += _within(frac, target, N_SE * se + abs(exact_h - target),
                       "first-passage fraction against 1 - alpha^i0")
        alpha = -self.n * np.log1p(-self.c_sc / self.n)
        g = ref.mean_field_path(alpha, self.x0 / self.n, self.steps)
        gap = float(np.max(np.abs(self.path_sum / self.paths - g)))
        out += _within(gap, 0.0, GAP_MEAN_FIELD,
                       "scaled-chain mean path against g_a")
        return out


class ExactSolve(Op):
    """`expected_duration` and `expected_size` on a fresh system, so the
    rows are built once per pair of solves.  Round r solves at
    intensity cs[r mod len(cs)].

    The solves are scaled by the reference's 6 ms `mpf` part, so each is
    read apart: read once per pass, eight 5 ms probe solves spread by up
    to 13% over ten seeds.
    """

    read_each_call = True

    def __init__(self, metrics, n, cs):
        super().__init__(metrics)
        self.n, self.cs = n, cs
        self.results = {}

    def round(self, keyed, r):
        c = self.cs[r % len(self.cs)]
        system = _system(self.n, c)
        et = self._checked(exact.expected_duration, system, 0, "E(T) < 1")
        es = self._checked(exact.expected_size, system, 1, "E(S) < i")
        if et is not None and es is not None:
            self.results.setdefault(c, ([float(v) for v in et],
                                        [float(v) for v in es]))

    def _checked(self, solve, system, offset, what):
        """One solve; each E(.|i) must be at least 1 + offset * (i - 1)."""
        vals, dt = self.call(solve, system)
        if vals is None:
            return None
        if any(v < 1 + offset * i for i, v in enumerate(vals)):
            self.fail(f"{what} at n={self.n}, c={system.params.c}")
            return None
        self.sample("exact_solve_s", dt)
        return vals

    def problems(self):
        out = super().problems()
        for c, (et, es) in self.results.items():
            ret, res = ref.duration_and_size(self.n, c)
            out += _rel_close(et, ret, f"E(T) at n={self.n}, c={c:.4f}")
            out += _rel_close(es, res, f"E(S) at n={self.n}, c={c:.4f}")
        return out + ([] if self.results else ["ExactSolve: no result"])


class ExactReach(Op):
    """P(max >= J | X_0 = 1) for every level J = 1..n+1, by `max_survival`.

    These are the reach solves `max_distribution` is made of, returned
    at full precision; `MaxPmfSum` runs `max_distribution` itself.
    """

    def __init__(self, metrics, n, c, calls):
        super().__init__(metrics)
        self.n, self.c, self.calls = n, c, calls
        self.tail = None

    def round(self, keyed, r):
        for _ in range(self.calls):
            system = _system(self.n, self.c)
            tail, dt = self.call(exact.max_survival, system, 1,
                                 range(1, self.n + 2))
            if tail is None:
                continue
            if (tail[0] != 1 or tail[-1] != 0
                    or any(b > a for a, b in zip(tail, tail[1:]))):
                self.fail("P(max >= J) is not 1 at J=1, 0 past n, "
                          "nonincreasing between")
                continue
            self.sample("exact_reach_s", dt)
            self.tail = tail

    def problems(self):
        out = super().problems()
        if self.tail is None:
            return out + ["ExactReach: no result"]
        level = self.n // 2
        return out + _rel_close([float(self.tail[level - 1])],
                                [ref.reach(self.n, self.c, level)[0]],
                                f"P(max >= {level}) at n={self.n}")


class MaxPmfSum(Op):
    """`max_distribution` at n=10, c=1, i0=1, where its pmf misses 1.

    The reach solves run at 400 digits, but the pmf is their difference
    taken at the caller's precision (53 bits by default), so the sum is
    off by about 3e-17, far above the 1e-200 of the solves.  The input
    does not depend on the seed and every call fails the same way.
    """

    expected_fault = True

    def round(self, keyed, r):
        system = _system(10, 1.0)
        pmf, _ = self.call(exact.max_distribution, system, 1)
        if pmf is None:
            return
        with mp.workdps(DIGITS):
            miss = abs(mp.fsum(pmf) - 1)
            if any(v < 0 for v in pmf) or miss > mp.mpf(10) ** (-DIGITS // 2):
                self.fail(f"max pmf sum misses 1 by {mp.nstr(miss, 5)}")


class ExactSurvival(Op):
    """`duration_survival` at horizon m, fresh system per call."""

    def __init__(self, metrics, n, c, m, calls):
        super().__init__(metrics)
        self.n, self.c, self.m, self.calls = n, c, m, calls
        self.values = None

    def round(self, keyed, r):
        for _ in range(self.calls):
            v, dt = self.call(exact.duration_survival, _system(self.n, self.c),
                              self.m)
            if v is None:
                continue
            if any(x < 0 or x > 1 for x in v):
                self.fail("survival probability outside [0, 1]")
                continue
            self.sample("exact_survival_s", dt)
            self.values = [float(x) for x in v]

    def problems(self):
        out = super().problems()
        if self.values is None:
            return out + ["ExactSurvival: no result"]
        out += _rel_close(self.values, ref.survival(self.n, self.c, self.m),
                          f"P(T > {self.m}) at n={self.n}")
        earlier = exact.duration_survival(_system(self.n, self.c), self.m // 2)
        if any(float(a) > b for a, b in zip(self.values, earlier)):
            out.append("survival increases in m")
        return out


class VerifyCampaign(Op):
    """One `verify_campaign` per round; no bound may be violated."""

    STATES = ("holds", "violated", "inconclusive")

    def __init__(self, metrics, **grid):
        super().__init__(metrics)
        self.grid = grid
        self.counts = None

    def round(self, keyed, r):
        reports, dt = self.call(harness.verify_campaign, **self.grid)
        if reports is None:
            return
        if not reports or any(rep.satisfied not in self.STATES
                              for rep in reports):
            self.fail("a report carries no valid state")
            return
        self.sample("verify_s", dt)
        self.counts = {s: sum(rep.satisfied == s for rep in reports)
                       for s in self.STATES}

    def problems(self):
        out = super().problems()
        if self.counts is None:
            return out + ["VerifyCampaign: no result"]
        if self.counts["violated"]:
            out.append(f"{self.counts['violated']} bounds violated")
        return out


class FloatShortcuts(Op):
    """The `expected_size_float` sweep plus one `reach_probability_float`."""

    def __init__(self, metrics, c, ns, reach_at):
        super().__init__(metrics)
        self.c, self.ns, self.reach_at = c, ns, reach_at
        self.sizes = {}
        self.reach = None

    def round(self, keyed, r):
        total, ok = 0.0, True
        for n in self.ns:
            es, dt = self.call(exact.expected_size_float,
                               model.ModelParams.from_intensity(n, self.c))
            if es is None or (es < np.arange(1, n)).any():
                if es is not None:
                    self.fail(f"E(S) < i at n={n}")
                ok = False
                continue
            total += dt
            self.sizes[n] = es
        n, c, level = self.reach_at
        h, dt = self.call(harness.reach_probability_float,
                          model.ModelParams.from_intensity(n, c), level)
        # float64 solves may overshoot 1 by rounding; the reference does too
        if h is None or ((h < -FLOAT_RTOL) | (h > 1 + FLOAT_RTOL)).any():
            if h is not None:
                self.fail("reach probability outside [0, 1]")
            ok = False
        else:
            total += dt
            self.reach = h
        if ok:
            self.sample("float_solve_s", total)

    def problems(self):
        out = super().problems()
        if len(self.sizes) < len(self.ns) or self.reach is None:
            return out + ["FloatShortcuts: missing results"]
        for n, es in self.sizes.items():
            out += _rel_close(es, ref.duration_and_size(n, self.c)[1],
                              f"expected_size_float at n={n}")
        n, c, level = self.reach_at
        return out + _rel_close(self.reach, ref.reach(n, c, level),
                                f"reach_probability_float at n={n}")


class SupercriticalDurationFloat(Op):
    """`expected_duration_float` where it is known to go wrong.

    At (n=200, c=2) and (n=400, c=3) I - Q is too ill-conditioned for
    float64 and E(T | 1) comes out near -7e13; the E(T) >= 1 check
    counts each such call as failed.  The points do not depend on the
    seed, so the failed share is the same in every run.
    """

    expected_fault = True
    POINTS = ((200, 2.0), (400, 3.0))

    def round(self, keyed, r):
        for n, c in self.POINTS:
            et, _ = self.call(exact.expected_duration_float,
                              model.ModelParams.from_intensity(n, c))
            if et is not None and not (np.isfinite(et).all()
                                       and (et >= 1).all()):
                self.fail(f"E(T|1) = {et[0]:.4g} at n={n}, c={c}")


def _probes(seed):
    """Reduced-size operations that keep every metric defined everywhere."""
    cs = _intensities(seed)
    return [
        (("mc_replicates_per_s", "mc_steps_per_s"),
         lambda m: Trajectories(m, 10 ** 4, 0.8, 1, 1500, 1)),
        (("coupled_steps_per_s",), lambda m: Coupled(m, 100, 0.8, 2, 200, 1)),
        (("maximal_probes_per_s",), lambda m: Maximal(m, 100, 0.8, 2, 100, 4)),
        (("lockstep_s",), lambda m: Lockstep(m, 5 * 10 ** 4, 5000)),
        (("exact_solve_s",), lambda m: ExactSolve(m, 12, cs)),
        (("exact_reach_s",), lambda m: ExactReach(m, 15, cs[1], 1)),
        (("exact_survival_s",), lambda m: ExactSurvival(m, 40, cs[1], 8, 1)),
        (("verify_s",), lambda m: VerifyCampaign(
            m, n_grid=(50,), c_grid=(0.5, 1.0, 1.5))),
        (("float_solve_s",), lambda m: FloatShortcuts(
            m, _sweep_intensity(seed), (50, 100, 200, 400), (200, 1.5, 20))),
    ]


def _intensities(seed):
    """The exact workload's intensities, each moved by at most 0.005."""
    return [jitter(seed, k, c, 0.005) for k, c in enumerate((0.9, 1.0, 1.1, 1.3))]


def _sweep_intensity(seed):
    return jitter(seed, 9, 0.5, 0.005)


def _own(name, seed):
    cs = _intensities(seed)
    if name == "mc_short":
        return [Trajectories(("mc_replicates_per_s", "mc_steps_per_s"),
                             10 ** 4, 0.8, 1, 2000, 8),
                Coupled(("coupled_steps_per_s",), 100, 0.8, 2, 100, 3),
                Maximal(("maximal_probes_per_s",), 100, 0.8, 2, 200, 6)]
    if name == "mc_long":
        return [Trajectories(("mc_steps_per_s",), 30, 2.0, 1, 25, 2),
                Lockstep(("lockstep_s",), 10 ** 5, 10 ** 4)]
    if name == "exact":
        # one intensity, one reach sweep and one survival call a round:
        # short rounds, so a run ends close to its --seconds
        return [ExactSolve(("exact_solve_s",), 40, cs),
                ExactReach(("exact_reach_s",), 24, cs[1], 1),
                ExactSurvival(("exact_survival_s",), 100, cs[1], 6, 1),
                MaxPmfSum(())]
    if name == "verify":
        return [VerifyCampaign(("verify_s",)),
                FloatShortcuts(("float_solve_s",), _sweep_intensity(seed),
                               (50, 100, 200, 400, 800), (1000, 1.5, 100)),
                SupercriticalDurationFloat(())]
    raise KeyError(name)


# the part of the reference each metric is scaled by, where it is not the
# whole (`all`): the part that does the same kind of work and slows by
# the same factor (`calibration.py`)
REFERENCE_PART = {"lockstep_s": "array", "exact_solve_s": "mpf",
                  "exact_reach_s": "mpf", "exact_survival_s": "mpf"}

# the CLI invocation each workload stands for, parsed in the set-up probe
CLI_ARGS = {
    "mc_short": ["simulate", "--n", "10000", "--c", "0.8", "--i0", "1"],
    "mc_long": ["simulate", "--n", "30", "--c", "2.0", "--i0", "1"],
    "exact": ["exact", "--n", "40", "--c", "1.0", "--digits", "400"],
    "verify": ["verify"],
}


class Workload:
    """A workload's operation kinds, its rounds, counts and checks.

    A round runs the probes, then the workload's own kinds, then the
    probes again: two windows a round for each probe metric, apart in
    time.  The host's speed is read before the first kind, after each
    kind and, in the workload's own kinds and the `read_each_call`
    probes, after each call.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        own = _own(name, seed)
        owned = {m for op in own for m in op.samples}
        probes = [make(missing) for metrics, make in _probes(seed)
                  if (missing := tuple(m for m in metrics if m not in owned))]
        self.ops = own + probes
        self.schedule = probes + own + probes
        for op in self.ops:
            if op.samples and (op in own or op.read_each_call):
                op.read = self._read
        self.readings = []    # (time, slowdowns by part of the reference)
        self.slowdowns = []   # the mean slowdown of each round
        self._slowdown_now = None

    def _read(self) -> None:
        t0 = time.perf_counter()
        slowdown = self._slowdown_now()
        self.readings.append(((t0 + time.perf_counter()) / 2, slowdown))

    def round(self, r: int, slowdown_now: Callable[[], dict]) -> None:
        """Run round r, reading the host's speed between kinds and calls.

        `slowdown_now()` says how many times slower than nominal the host
        runs (see `calibration.py`).
        """
        self._slowdown_now = slowdown_now
        gc.collect()
        first = len(self.readings)
        self._read()
        for k, op in enumerate(self.schedule):
            op.start = None
            op.round(lambda *keys, k=k: derive(self.seed, k, r, 0, *keys), r)
            # one kind's garbage is not charged to the next kind's calls
            gc.collect()
            if op.read is None:   # otherwise its last call was just read
                self._read()
        self.slowdowns.append(statistics.fmean(
            s["all"] for _, s in self.readings[first:]))

    def samples(self) -> dict:
        """Every sample scaled to the nominal host speed.

        A sample of length L, taken from start to end, is divided (a rate
        `*_per_s` multiplied) by the mean slowdown of the readings taken
        within L/2 of it, and always the last one before it and the first
        one after.  The host's speed swings with a period of about 0.4 s
        here, so a long call is scaled by readings over a whole swing
        and a short one by the two readings next to it.
        """
        times = [t for t, _ in self.readings]
        out = {}
        for op in self.ops:
            for m, entries in op.samples.items():
                part = REFERENCE_PART.get(m, "all")
                out[m] = []
                for value, start, end in entries:
                    half = (end - start) / 2
                    lo = bisect.bisect_left(times, start - half)
                    hi = bisect.bisect_right(times, end + half)
                    lo = min(lo, bisect.bisect_left(times, start) - 1)
                    hi = max(hi, bisect.bisect_right(times, end) + 1)
                    slowdown = statistics.fmean(
                        s[part] for _, s in self.readings[max(lo, 0):hi])
                    out[m].append(value * slowdown if m.endswith("_per_s")
                                  else value / slowdown)
        return out

    def raw(self) -> dict:
        """Every sample as measured."""
        return {m: [v for v, _, _ in entries]
                for op in self.ops for m, entries in op.samples.items()}

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    def prechecks(self) -> list[str]:
        """Checks run once, outside the timed rounds."""
        if self.name == "mc_short":
            return self._workers_identical()
        if self.name == "exact":
            return self._exact_references()
        return []

    def _workers_identical(self):
        params = model.ModelParams.from_intensity(10 ** 4, 0.8)
        master = derive(self.seed, 999)
        one = harness.run_trajectories(params, 1, 400, master, workers=1)
        two = harness.run_trajectories(params, 1, 400, master, workers=2)
        return [] if np.array_equal(one, two) else \
            ["run_trajectories rows differ between workers=1 and workers=2"]

    def _exact_references(self):
        out = []
        system = exact.SubstochasticSystem(model.ModelParams(3, 0.5))
        et = [float(v) for v in exact.expected_duration(system)]
        es = [float(v) for v in exact.expected_size(system)]
        if et != [4.0, 4.0] or es != [4.8, 5.6]:
            out.append(f"n=3, p=0.5 gives E(T)={et}, E(S)={es}")
        n = 8
        tol = mp.mpf(10) ** (-DIGITS // 2)
        for c in _intensities(self.seed):
            system = _system(n, c)
            got = (exact.expected_duration(system), exact.expected_size(system))
            want = ref.mp_duration_and_size(n, system.params.p, DIGITS)
            with mp.workdps(DIGITS):
                err = max(abs(a - b) for g, w in zip(got, want)
                          for a, b in zip(g, w))
            if err > tol:
                out.append(f"n={n}, c={c:.4f}: differs from mpmath.lu_solve "
                           f"by {mp.nstr(err, 5)}")
        return out

    def problems(self) -> list[str]:
        return [p for op in self.ops for p in op.problems()]

    def details(self) -> dict:
        ops = {}
        for op in self.ops:
            entry = ops.setdefault(type(op).__name__,
                                   {"attempted": 0, "failed": 0})
            entry["attempted"] += op.attempted
            entry["failed"] += op.failed
            if isinstance(op, VerifyCampaign) and op.counts:
                entry["reports"] = op.counts
        return ops
