"""Experiment harness: configuration, Monte Carlo with block-keyed
streams, bound-verification campaigns, and figure-data regeneration.

``run_trajectories`` cuts its replicates into blocks of BLOCK_SIZE and
runs block b with ``run_block`` on the stream keyed (master_seed, b),
with no more worker processes than blocks;
``first_passage_fraction`` (on occupation counts, ``run_occupation``) and
``simulate_scaled_chain`` run all theirs on the stream (master_seed, 0),
and the coupling campaign keys path r by (master_seed, r).  Either way
the estimates are bit-identical for any worker count and any scheduling
order.  Every exact reference, mpf or float64, comes from ``exact``;
each ``BoundReport`` judges itself against its reference when built.
"""

import concurrent.futures
import configparser
import csv
import functools
import json
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from . import bounds as bc
from . import meanfield as mf
from .branching import (agresti_duration_bounds, gw_extinct_by,
                        lindvall_max_bound)
from .coupling import (check_coupling_constant, simulate_coupled,
                       step_divergence_bound, step_divergence_tv)
from .exact import (PrecisionConfig, SubstochasticSystem, build_q_float,
                    expected_duration, expected_size, float_expectation,
                    q_powers, reach_float)
from .exact import kernel_power_mean, reach_probability_float  # re-exported
from .model import (DEFAULT_MAX_STEPS, ModelParams, binomial_step, run_block,
                    run_occupation)
from .rng import replicate_rng

SCHEMA_VERSION = 1


# Every setting once: ExperimentConfig field -> (command line flag, or None
# for a file-only key; type; flag help).  A config file key is the field
# name.
SETTINGS = {
    "n": ("--n", int, "node count"),
    "p": ("--p", float, "excitation probability"),
    "c": ("--c", float, "intensity c = n*p (excludes --p)"),
    "i0": ("--i0", int, "initial excited count"),
    "lam": ("--lambda", float, "ensemble offspring mean"),
    "replicates": ("--reps", int, "Monte Carlo replicates"),
    "master_seed": ("--seed", int, "master seed"),
    "workers": ("--workers", int, "parallel workers"),
    "digits": ("--digits", int, "exact-solver precision"),
    "out": ("--out", str, "output file (CSV, or JSON for verify)"),
    "max_steps": (None, int, None),
    "c_list": (None, lambda text: tuple(map(float, text.split(","))), None),
    "i0_max": (None, int, None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated command parameters plus seed and output location."""

    n: int = 100
    p: float | None = None
    c: float | None = None
    i0: int = 1
    lam: float = 1.0
    replicates: int = 10 ** 4
    master_seed: int = 20260823
    workers: int = 1
    digits: int = 400
    out: str | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    c_list: tuple = (0.9, 1.0, 1.1, 1.3)
    i0_max: int = 50

    def __post_init__(self):
        if self.p is not None and self.c is not None:
            raise ValueError("give either p or c = n*p, not both")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.max_steps < 1:
            raise ValueError(f"need max_steps >= 1, got {self.max_steps}")
        PrecisionConfig(self.digits)  # refuses too few digits

    def model(self) -> ModelParams:
        if self.p is not None:
            return ModelParams(self.n, self.p)
        if self.c is not None:
            return ModelParams.from_intensity(self.n, self.c)
        raise ValueError("one of p or c must be set")

    @classmethod
    def from_file(cls, path: str, *, keys=tuple(SETTINGS),
                  **overrides) -> "ExperimentConfig":
        """Load a key-value config file; keyword overrides win.

        Raises ValueError on a section other than [experiment] and on a
        key outside ``keys``, the settings the caller reads (by default
        every setting)."""
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        sections = parser.sections()
        if sections not in ([], ["experiment"]):
            raise ValueError(f"{path}: sections {sections}; the keys go in "
                             "one [experiment] section")
        sec = parser[sections[0] if sections else parser.default_section]
        kwargs = {}
        for key, text in sec.items():
            if key not in keys:
                raise ValueError(f"{path}: key {key!r} is not accepted here; "
                                 f"accepted keys: {', '.join(keys)}")
            try:
                kwargs[key] = SETTINGS[key][1](text)
            except ValueError as exc:
                raise ValueError(f"{path}: key {key!r}: {exc}") from None
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with its standard error."""

    point: float
    stderr: float
    replicates: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Estimate | None":
        """Mean and standard error of the sample; None if it is empty."""
        x = np.asarray(samples, dtype=float)
        k = len(x)
        if k == 0:
            return None
        sd = x.std(ddof=1) if k > 1 else 0.0
        return cls(float(x.mean()), float(sd / math.sqrt(k)), k)


# Replicates per block: block b of every experiment draws from the stream
# keyed (master_seed, b), so it must not depend on workers or replicates.
BLOCK_SIZE = 4096


def run_trajectories(params: ModelParams, i0: int, replicates: int,
                     master_seed: int, workers: int = 1,
                     max_steps: int = DEFAULT_MAX_STEPS) -> np.ndarray:
    """Simulate; returns an array of (T, S, max, truncated) rows.

    Rows b*BLOCK_SIZE .. (b+1)*BLOCK_SIZE - 1 form block b, run in
    lockstep by ``run_block`` on the stream keyed (master_seed, b).  A
    full block's rows are therefore the same for any worker count and
    any total number of replicates; a final partial block is a smaller
    run of its own on the same stream.  A pool starts at most one
    process per block, and none for a single block.  Fewer than one
    replicate, worker or step is refused before any stream is built.
    """
    if replicates < 1:
        raise ValueError(f"need replicates >= 1, got replicates={replicates}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got workers={workers}")
    if max_steps < 1:
        raise ValueError(f"need max_steps >= 1, got max_steps={max_steps}")
    sizes = [min(BLOCK_SIZE, replicates - lo)
             for lo in range(0, replicates, BLOCK_SIZE)]
    rngs = (replicate_rng(master_seed, b) for b in range(len(sizes)))
    block = functools.partial(run_block, params, i0, max_steps=max_steps)
    workers = min(workers, len(sizes))
    if workers <= 1:
        blocks = list(map(block, sizes, rngs))
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            blocks = list(pool.map(block, sizes, rngs))
    return np.concatenate(blocks)


def mc_size_pmf(stats: np.ndarray, j_max: int) -> np.ndarray:
    """Empirical pmf of the total size over 0..j_max (non-truncated rows)."""
    if j_max < 0:
        raise ValueError(f"need j_max >= 0, got j_max={j_max}")
    ok = stats[:, 3] == 0
    if not ok.any():
        raise ValueError("no finished replicate: every row is truncated")
    sizes = stats[ok, 1]
    return np.bincount(np.clip(sizes, 0, j_max), minlength=j_max + 1) \
        / ok.sum()


def first_passage_fraction(params: ModelParams, i0: int, j_level: int,
                           replicates: int,
                           master_seed: int) -> Estimate:
    """Monte Carlo estimate of P(hit [j_level, n] before 0 | X_0 = i0).

    One ``run_occupation`` on the stream keyed (master_seed, 0): the
    replicates are kept as counts per state below j_level, and each
    stops at 0 or on first reaching j_level.  Unlike full-absorption
    simulation this stays cheap in the supercritical regime, where
    surviving paths settle into a quasi-equilibrium and would otherwise
    run for an astronomical number of steps.  Raises if any replicate is
    still undecided at the cap of 1000 steps (hovering strictly between
    0 and the level).  A level outside [1, n] or fewer than one replicate
    is refused before any generator is built.
    """
    if not 1 <= j_level <= params.n:
        raise ValueError(f"level must lie in [1, {params.n}], got {j_level}")
    if replicates < 1:
        raise ValueError(f"need replicates >= 1, got replicates={replicates}")
    max_steps = 1000
    counts = run_occupation(params, i0, replicates,
                            replicate_rng(master_seed, 0), max_steps, j_level)
    undecided = int(counts[1:j_level].sum())
    if undecided:
        raise ArithmeticError(
            f"{undecided} replicates undecided after {max_steps} steps")
    return Estimate.from_samples(np.arange(replicates) < counts[-1])


def simulate_scaled_chain(params: ModelParams, x0_count: int, steps: int,
                          replicates: int, master_seed: int) -> np.ndarray:
    """Replicated paths of X_k/n; shape (replicates, steps + 1).

    All replicates advance in lockstep from one auxiliary stream keyed
    to the experiment; suited to the distribution-level checks where
    only the ensemble law matters.  A start outside [0, n], a negative
    step count or fewer than one replicate is refused before any
    generator is built.
    """
    if not 0 <= x0_count <= params.n:
        raise ValueError(f"need 0 <= x0_count <= n={params.n}, "
                         f"got x0_count={x0_count}")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got steps={steps}")
    if replicates < 1:
        raise ValueError(f"need replicates >= 1, got replicates={replicates}")
    rng = replicate_rng(master_seed, 0)
    x = np.full(replicates, x0_count, dtype=np.int64)
    path = np.empty((replicates, steps + 1))
    path[:, 0] = x / params.n
    logq = math.log1p(-params.p)
    for k in range(steps):
        x = binomial_step(params.n, logq, x, rng)
        path[:, k + 1] = x / params.n
    return path


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(config: ExperimentConfig) -> dict:
    """Trajectory statistics CSV plus a summary with standard errors."""
    params = config.model()
    stats = run_trajectories(params, config.i0, config.replicates,
                             config.master_seed, config.workers,
                             config.max_steps)
    ok = stats[:, 3] == 0
    names = ("duration", "size", "max")
    summary = {name: Estimate.from_samples(stats[ok, k])
               for k, name in enumerate(names)}
    summary["truncated"] = int((~ok).sum())
    if config.out:
        rows = np.column_stack([np.arange(len(stats)), stats]).tolist()
        for name in names:
            est = summary[name]
            rows.append([f"summary_{name}",
                         *((est.point, est.stderr, est.replicates) if est
                           else ("", "", 0)), ""])
        rows.append(["summary_truncated", summary["truncated"], "", "", ""])
        write_csv(config.out, ["replicate", "T", "S", "max", "truncated"],
                  rows)
    return summary


def cmd_exact(config: ExperimentConfig) -> dict:
    """Expected duration and size vectors at the configured precision."""
    params = config.model()
    system = SubstochasticSystem(params, PrecisionConfig(config.digits))
    et = expected_duration(system)
    es = expected_size(system)
    if config.out:
        rows = [[i + 1, mp.nstr(et[i], config.digits),
                 mp.nstr(es[i], config.digits)]
                for i in range(params.n - 1)]
        write_csv(config.out, ["i", "expected_duration", "expected_size"],
                  rows)
    return {"expected_duration": et, "expected_size": es,
            "digits": config.digits}


def figure_curves(n: int, c_list, i0_max: int, digits: int) -> dict:
    """E(T | X_0 = i0) curves, one per intensity, i0 = 1..i0_max."""
    curves = {}
    i0_max = min(i0_max, n - 1)
    for c in c_list:
        params = ModelParams.from_intensity(n, c)
        system = SubstochasticSystem(params, PrecisionConfig(digits))
        et = expected_duration(system)
        curves[c] = [float(et[i0 - 1]) for i0 in range(1, i0_max + 1)]
    return curves


def check_figure_shape(curves: dict) -> list[str]:
    """Shape assertions on the duration curves; returns failure messages.

    The subcritical curve must grow in i0, and at larger intensities
    the curve must flatten: the relative spread over i0 >= 2 must
    shrink as c grows through the transition.
    """
    problems = []
    cs = sorted(curves)
    lowest = curves[cs[0]]
    # growth check stops at half range: for very large i0 the avalanche
    # burns through the network quickly and the curve bends down again
    half = lowest[: max(2, len(lowest) // 2)]
    if any(b < a for a, b in zip(half, half[1:])):
        problems.append(f"curve c={cs[0]} is not nondecreasing in i0")

    def spread(vals):
        tail = vals[1:]
        return (max(tail) - min(tail)) / max(tail)

    if spread(curves[cs[-1]]) >= spread(curves[cs[0]]):
        problems.append(
            f"flattening failed: spread at c={cs[-1]} is not below c={cs[0]}")
    return problems


def cmd_figure(config: ExperimentConfig) -> dict:
    """Regenerate the duration-vs-seed-size figure data."""
    curves = figure_curves(config.n, config.c_list, config.i0_max,
                           config.digits)
    problems = check_figure_shape(curves)
    if config.out:
        rows = [[c, i0, val]
                for c in config.c_list
                for i0, val in enumerate(curves[c], start=1)]
        write_csv(config.out, ["c", "i0", "expected_duration"], rows)
    if problems:
        raise AssertionError("; ".join(problems))
    return curves


def _drift_reports(params: ModelParams, q: np.ndarray) -> list:
    """Exact one-step supermartingale and heterogeneity drift checks.

    Q @ f is E(f(X_1) | X_0 = i) for f(j) = j and j(n - j): a row i >= 1
    puts no mass on n, and f(0) = 0."""
    n, c = params.n, params.c
    i = np.arange(1.0, n)
    worst_mean = float(np.max(q @ i - c * i))
    worst_het = float(np.max(q @ (i * (n - i)) - c * i * (n - i)))
    return [
        bc.BoundReport("supermartingale_drift", {"n": n, "p": params.p},
                       upper=0.0, reference_value=worst_mean,
                       reference_error=1e-9 * n * c),
        bc.BoundReport("heterogeneity_drift", {"n": n, "p": params.p},
                       upper=0.0, reference_value=worst_het,
                       reference_error=1e-9 * n * n * c),
    ]


def verify_campaign(n_grid=(50, 100, 200), c_grid=(0.5, 1.0, 1.5, 2.0),
                    i0_grid=(1, 2)) -> list[bc.BoundReport]:
    """Run every applicable bound against exact comparators on a grid;
    the finite-n references all come from one float64 Q per (n, c),
    with one reach solve per level."""
    reports = []
    for c in c_grid:
        for i0 in i0_grid:
            for m in (1, 3, 5, 10):
                lo, hi = agresti_duration_bounds(c, i0, m)
                reports.append(bc.BoundReport(
                    "agresti_sandwich", {"c": c, "i0": i0, "m": m},
                    lower=lo, upper=hi,
                    reference_value=gw_extinct_by(c, i0, m),
                    reference_error=1e-12))
    for n in n_grid:
        for c in c_grid:
            params = ModelParams.from_intensity(n, c)
            q = build_q_float(params)
            reports.extend(_drift_reports(params, q))
            surv = q_powers(q, np.ones(n - 1), 5)
            means = q_powers(q, np.arange(1.0, n), 5)
            es = float_expectation(params, q, np.arange(1.0, n),
                                   "expected size") if c < 1.0 else None
            tails = {}   # reach of level m + 1, solved once per (n, c)
            for i0 in i0_grid:
                eh0 = i0 * (n - i0)
                for k in (1, 3, 5):
                    reports.append(bc.BoundReport(
                        "mean_decay", {"n": n, "c": c, "i0": i0, "k": k},
                        upper=bc.mean_decay_bound(params, eh0, k),
                        reference_value=float(means[k][i0 - 1]),
                        reference_error=1e-9))
                    naive, refined = bc.survival_bounds(params, eh0, k)
                    reports.append(bc.BoundReport(
                        "survival_naive", {"n": n, "c": c, "i0": i0, "k": k},
                        upper=naive, reference_value=float(surv[k][i0 - 1]),
                        reference_error=1e-9))
                    if refined <= 1.0:
                        reports.append(bc.BoundReport(
                            "survival_refined",
                            {"n": n, "c": c, "i0": i0, "k": k},
                            upper=refined,
                            reference_value=float(surv[k][i0 - 1]),
                            reference_error=1e-9))
                if c < 1.0:
                    lo, hi = bc.size_bounds_single(
                        params, float(i0), float(i0 * i0), c)
                    reports.append(bc.BoundReport(
                        "size_sandwich", {"n": n, "c": c, "i0": i0},
                        lower=lo, upper=hi,
                        reference_value=float(es[i0 - 1]),
                        reference_error=1e-8))
                for m in (1, 3, 5):
                    reports.append(replace(
                        bc.duration_bounds_single(params, i0, m),
                        reference_value=1.0 - float(surv[m][i0 - 1]),
                        reference_error=1e-8))
                if c <= 1.0:
                    for m in (max(5, i0 + 1), 10, 15):
                        if m not in tails:
                            tails[m] = reach_float(params, q, m + 1)
                        ref = float(tails[m][i0 - 1]) if i0 <= m else 1.0
                        if c == 1.0:
                            reports.append(replace(
                                bc.maxima_bounds(params, i0, m),
                                reference_value=ref, reference_error=1e-8))
                        else:
                            reports.append(bc.BoundReport(
                                "lindvall_max",
                                {"n": n, "c": c, "i0": i0, "m": m},
                                upper=lindvall_max_bound(c, i0, m + 1),
                                reference_value=ref,
                                reference_error=1e-8,
                                note="asymptotic bound checked at finite n"))
    return reports


def cmd_verify(config: ExperimentConfig) -> dict:
    """Bound-verification campaign; nonzero exit iff a report is violated."""
    reports = verify_campaign()
    counts = {bc.HOLDS: 0, bc.VIOLATED: 0, bc.INCONCLUSIVE: 0}
    for rep in reports:
        counts[rep.satisfied] += 1
    bundle = {"schema_version": SCHEMA_VERSION,
              "counts": counts,
              "reports": [r.to_dict() for r in reports]}
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(bundle, fh, indent=1)
    return bundle


def cmd_deterministic(config: ExperimentConfig) -> dict:
    """Mean-field tables and (for lam > 1) the contraction parameters."""
    lam = config.lam
    psi0 = config.i0 / config.n
    path = mf.iterate_mean_field(lam, psi0)
    cols = [a.tolist() for a in (path.psi, path.phi, path.branching_factor,
                                 mf.innovation_variance(lam, path.psi))]
    rows = list(zip(range(len(path.psi)), *cols))
    out = {"limit": mf.mean_field_limit(lam, psi0), "rows": rows}
    if lam > 1.0:
        si = mf.stability_interval(lam)
        out["stability"] = {"a": si.a, "b": si.b, "eps": si.eps,
                            "rho": si.rho, "gamma": si.gamma}
    if config.out:
        write_csv(config.out, ["k", "psi", "phi", "branching_factor",
                               "innovation_variance"], rows)
    return out


def cmd_couple(config: ExperimentConfig) -> dict:
    """Monotone-coupling campaign: dominance, sizes, exact step divergence.

    ``size_x`` and ``size_z`` average only the paths that ended before
    the cap on Z (``truncated`` counts the rest), so above criticality
    they estimate E(S | Z died out), not E(S | X_0 = i0).
    """
    params = config.model()
    c, i = params.c, config.i0
    try:  # the coupling constant is n*p if admissible, else -n*log(1-p)
        check_coupling_constant(params, c)
        coupling_c = c
    except ValueError:
        coupling_c = params.alpha
    viol = 0
    sx, sz = [], []
    for r in range(config.replicates):
        path = simulate_coupled(params, coupling_c, i,
                                replicate_rng(config.master_seed, r))
        viol += not path.dominated
        if not path.truncated:
            sx.append(int(path.x_seq.sum()))
            sz.append(int(path.z_seq.sum()))
    return {
        "coupling_c": coupling_c,
        "dominance_violations": viol,
        "truncated": config.replicates - len(sx),
        "size_x": Estimate.from_samples(np.array(sx)),
        "size_z": Estimate.from_samples(np.array(sz)),
        "divergence_tv": step_divergence_tv(params, i),
        "divergence_envelope": step_divergence_bound(c, i, params.n),
    }
