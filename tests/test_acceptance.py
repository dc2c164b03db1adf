"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints exactly one ``CRITERION k: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output) and then asserts.  Criterion 4
is expected to fail: the closed-form constant it pins cannot be
reconciled with the exact solver, which converges to the re-derived
value in bounds.size_limit_second_order instead (17/6 instead of 2.0 at
lam = 0.5, i0 = 1).  The test reports both numbers rather than passing
against the wrong target.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import kstest

from avalanche import bounds as bc
from avalanche import harness
from avalanche import meanfield as mf
from avalanche.branching import (agresti_duration_bounds, borel_tanner_pmf,
                                 extinction_prob, gw_extinct_by)
from avalanche.coupling import (_poisson_pmf_truncated, simulate_coupled,
                                step_coupled_maximal, step_divergence_bound,
                                tv_exact)
from avalanche.exact import (PrecisionConfig, SubstochasticSystem,
                             build_q_float, expected_duration, expected_size,
                             expected_size_float, q_powers)
from avalanche.model import ModelParams, kernel_row
from avalanche.rng import replicate_rng

SEED = 20260823


def report(k: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_exact_baseline():
    t0 = time.perf_counter()
    system = SubstochasticSystem(ModelParams(3, 0.5), PrecisionConfig(80))
    et = expected_duration(system)
    es = expected_size(system)
    with mp.workdps(90):
        errs = [abs(et[0] - 4), abs(et[1] - 4),
                abs(5 * es[0] - 24) / 5, abs(5 * es[1] - 28) / 5]
        worst = max(errs)
        ok = worst < mp.mpf(10) ** -30
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"n=3 p=0.5 E(T)=(4,4), E(S)=(4.8,5.6); worst error "
                  f"{mp.nstr(worst, 3)}, runtime {elapsed:.3f}s")
    assert ok


def test_criterion_02_figure_reproduction():
    config = harness.ExperimentConfig(n=100, digits=400,
                                      c_list=(0.9, 1.0, 1.1, 1.3),
                                      i0_max=50)
    t0 = time.perf_counter()
    curves = harness.cmd_figure(config)  # raises if shape checks fail
    elapsed = time.perf_counter() - t0
    ok = set(curves) == {0.9, 1.0, 1.1, 1.3} \
        and all(len(v) == 50 for v in curves.values())
    report(2, ok, f"duration curves regenerated at 400 digits for "
                  f"c=0.9..1.3; shape checks passed in {elapsed:.1f}s")
    assert ok


def test_criterion_03_borel_tanner_limit():
    n, c, i0, reps = 10 ** 4, 0.8, 1, 10 ** 6
    params = ModelParams.from_intensity(n, c)
    stats = harness.run_trajectories(params, i0, reps, SEED)
    j_max = 400
    emp = harness.mc_size_pmf(stats, j_max)
    grid = np.arange(j_max + 1)
    ref = borel_tanner_pmf(c, i0, grid)
    # lump everything beyond j_max into one tail bin on both sides
    tv = 0.5 * (np.abs(emp[:-1] - ref[:-1]).sum()
                + abs(emp[-1:].sum() - (1.0 - ref[:-1].sum())))
    ok = tv < 0.02
    report(3, ok, f"TV(MC size at n=1e4, Borel-Tanner) = {tv:.4f} "
                  f"over {reps} replicates (tolerance 0.02)")
    assert ok


def test_criterion_04_size_limit_and_correction():
    lam, i0 = 0.5, 1
    ns = (50, 100, 200, 400, 800)
    es = {n: float(expected_size_float(
        ModelParams.from_intensity(n, lam))[i0 - 1]) for n in ns}
    limit = i0 / (1.0 - lam)
    gaps = [abs(es[n] - limit) for n in ns]
    trend_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    stated = bc.size_limit_correction(lam, i0)        # 2.0
    rederived = bc.size_limit_second_order(lam, i0)   # 17/6
    scaled = ns[-1] * (limit - es[ns[-1]])
    stated_ok = abs(scaled - stated) <= 0.15 * stated
    rederived_gap = abs(scaled - rederived) / rederived
    ok = trend_ok and stated_ok
    report(4, ok,
           f"|E(S_n) - 2| decreasing: {trend_ok}; n*(2 - E(S_n)) at n=800 "
           f"= {scaled:.4f} vs stated closed form {stated:.4f} "
           f"(needs +/-15%: {stated_ok}) vs re-derived second-order value "
           f"{rederived:.4f} (off by {100 * rederived_gap:.1f}%)")
    if not stated_ok:
        pytest.fail(
            "the stated closed-form constant cannot be met: exact solves "
            f"converge to {rederived:.4f} (the sign-corrected second-order "
            f"value, matched to {100 * rederived_gap:.1f}%), not to "
            f"{stated:.4f}; see size_limit_second_order for the derivation")
    assert ok


def test_criterion_05_agresti_sandwich():
    violations = []
    for c in (0.5, 1.0, 2.0):
        for i0 in (1, 3):
            for m in range(1, 21):
                lo, hi = agresti_duration_bounds(c, i0, m)
                exact = gw_extinct_by(c, i0, m)
                if not lo - 1e-12 <= exact <= hi + 1e-12:
                    violations.append(("ensemble", c, i0, m))
    n = 200
    for c in (0.5, 1.0, 2.0):
        params = ModelParams.from_intensity(n, c)
        surv = q_powers(build_q_float(params), np.ones(n - 1), 20)
        for i0 in (1, 3):
            for m in range(1, 21):
                rep = bc.duration_bounds_single(params, i0, m)
                rep.reference_value = 1.0 - float(surv[m][i0 - 1])
                rep.reference_error = 1e-9
                if rep.judge().satisfied == bc.VIOLATED:
                    violations.append(("single", c, i0, m))
    ok = not violations
    report(5, ok, f"120 ensemble + 120 finite-n sandwich points checked; "
                  f"violations: {violations if violations else 'none'}")
    assert ok


def test_criterion_06_reach_sandwich():
    c = d = 1.5
    eps = 0.1
    params = ModelParams.from_intensity(1000, c)
    h = harness.reach_probability_float(params, int(1000 * eps))
    exact_ok = True
    for i in range(1, 6):
        lo, hi = bc.reach_bounds_single(params, d, eps, i)
        if not lo - 1e-9 <= h[i - 1] <= hi + 1e-9:
            exact_ok = False
    alpha = extinction_prob(c)
    big = ModelParams.from_intensity(4000, c)
    worst = 0.0
    for i in range(1, 6):
        est = harness.first_passage_fraction(big, i, int(4000 * eps),
                                             10 ** 4, SEED + i)
        worst = max(worst, abs(est.point - (1.0 - alpha ** i)))
    mc_ok = worst < 0.03
    ok = exact_ok and mc_ok
    report(6, ok, f"exact n=1000 reach inside sandwich: {exact_ok}; "
                  f"worst MC gap to 1 - alpha**i at n=4000: {worst:.4f} "
                  f"(tolerance 0.03)")
    assert ok


def test_criterion_07_coupling_properties():
    params = ModelParams.from_intensity(100, 1.2)
    c = params.alpha * 1.001  # admissible: -log(q) <= c/(n-1)
    rng = replicate_rng(SEED, 0)
    steps = 0
    ordered = True
    while steps < 10 ** 6:
        path = simulate_coupled(params, c, 3, rng, z_cap=10 ** 6)
        ordered = ordered and path.dominated
        steps += len(path.x_seq) - 1
    i = 4
    tv = tv_exact(kernel_row(params, i),
                  _poisson_pmf_truncated(params.c * i))
    probes = 5 * 10 ** 4
    rng2 = replicate_rng(SEED, 1)
    diverged = sum(step_coupled_maximal(params, i, rng2)[2]
                   for _ in range(probes))
    rate = diverged / probes
    stderr = math.sqrt(max(tv * (1.0 - tv), 1e-12) / probes)
    tv_ok = abs(rate - tv) <= 3 * stderr
    env_ok = tv <= step_divergence_bound(params.c, i, params.n) + 1e-12
    ok = ordered and tv_ok and env_ok
    report(7, ok, f"dominance on {steps} coupled steps: {ordered}; "
                  f"divergence rate {rate:.5f} vs TV {tv:.5f} "
                  f"(3*stderr = {3 * stderr:.5f}): {tv_ok}; "
                  f"TV below per-step envelope: {env_ok}")
    assert ok


def test_criterion_08_drift_identities():
    bad = []
    for n in (10, 25, 50, 100, 200):
        for c in (0.5, 1.0, 1.5, 2.0):
            params = ModelParams.from_intensity(n, c)
            for rep in harness._drift_reports(params, build_q_float(params)):
                if rep.satisfied == bc.VIOLATED:
                    bad.append((rep.name, n, c))
    ok = not bad
    report(8, ok, f"one-step drift inequalities exact over all states, "
                  f"n up to 200, c up to 2; violations: "
                  f"{bad if bad else 'none'}")
    assert ok


def test_criterion_09_deterministic_layer():
    details = []
    a_tr = mf.transitional_alpha()
    tr_ok = abs(a_tr - 2.46742) < 1e-3
    details.append(f"alpha_tr={a_tr:.6f} ({'ok' if tr_ok else 'BAD'})")

    limit_ok = True
    for alpha, psi0 in [(0.7, 0.3), (1.8, 0.05), (2.4, 0.4)]:
        path = mf.iterate_mean_field(alpha, psi0)
        if abs(path.psi[-1] - mf.mean_field_limit(alpha, psi0)) > 1e-10:
            limit_ok = False
    # at alpha = 1 the approach to 0 is polynomial, psi_k ~ (2/3)/k
    # (from g_1(x) = x - 1.5 x**2 + O(x**3)), so the geometric 1e-10
    # target is unreachable by iteration; check the 1/k law instead
    crit = mf.iterate_mean_field(1.0, 0.2)
    k = len(crit.psi) - 1
    limit_ok = limit_ok and abs(k * crit.psi[-1] - 2.0 / 3.0) < 1e-3
    details.append(f"iteration limits ({'ok' if limit_ok else 'BAD'})")

    n, reps, steps = 10 ** 5, 10 ** 4, 10
    params = ModelParams.from_intensity(n, 2.0)
    psi0 = 0.1
    path = harness.simulate_scaled_chain(params, int(n * psi0), steps,
                                         reps, SEED)
    model = mf.FluctuationModel.from_initial(params.alpha, psi0, steps)
    var = mf.ar1_variance(model)
    lln_gap = float(np.max(np.abs(path - model.psi[None, :])))
    lln_ok = lln_gap < 0.02
    ks_ok = True
    for k, tol in ((3, 0.02), (8, 0.03)):
        y = math.sqrt(n) * (path[:, k] - model.psi[k])
        stat = kstest(y / math.sqrt(var[k]), "norm").statistic
        ks_ok = ks_ok and stat < tol
        details.append(f"KS(k={k})={stat:.4f} (tol {tol})")
    details.append(f"LLN sup gap {lln_gap:.4f} ({'ok' if lln_ok else 'BAD'})")

    si = mf.stability_interval(2.0)
    n8, reps8, m8 = 5000, 4000, 20
    p8 = ModelParams.from_intensity(n8, 2.0)
    start = int(n8 * mf.fixed_point_zeta(p8.alpha))
    path8 = harness.simulate_scaled_chain(p8, start, m8, reps8, SEED + 1)
    inside = np.all((path8 > si.a) & (path8 < si.b), axis=1)
    frac8 = float(inside.mean())
    env8 = (1.0 - 2.0 * math.exp(-si.gamma * si.eps ** 2 * n8)) ** m8
    se8 = math.sqrt(max(frac8 * (1 - frac8), 1e-12) / reps8) + 1e-6
    conc8_ok = frac8 >= env8 - 3 * se8
    details.append(f"supercritical stay-in fraction {frac8:.4f} vs "
                   f"envelope {env8:.4f}")

    lam9, psi09, delta9 = 0.8, 0.2, 0.05
    gamma9 = mf.decay_gamma(lam9, psi09, delta9)
    m0 = mf.exit_horizon_m0(psi09, delta9)
    n9, reps9 = 10 ** 5, 2000
    p9 = ModelParams.from_intensity(n9, lam9)
    psi9 = mf.iterate_mean_field(p9.alpha, psi09, steps=m0).psi
    path9 = harness.simulate_scaled_chain(p9, int(n9 * psi09), m0,
                                          reps9, SEED + 2)
    inside9 = np.all(np.abs(path9 - psi9[None, :]) <= delta9, axis=1)
    frac9 = float(inside9.mean())
    env9, _ = mf.concentration_envelope(gamma9, delta9, n9, m0)
    se9 = math.sqrt(max(frac9 * (1 - frac9), 1e-12) / reps9) + 1e-6
    conc9_ok = frac9 >= env9 - 3 * se9
    details.append(f"subcritical stay-in fraction {frac9:.4f} vs "
                   f"envelope {env9:.4f}")

    ok = (tr_ok and limit_ok and lln_ok and ks_ok and conc8_ok
          and conc9_ok)
    report(9, ok, "; ".join(details))
    assert ok


def test_criterion_10_partial_flags():
    sup = bc.duration_bounds_single(ModelParams.from_intensity(100, 1.5),
                                    1, 3)
    crit_max = bc.maxima_bounds(ModelParams.from_intensity(100, 1.0), 1, 10)
    sub_max = bc.maxima_bounds(ModelParams.from_intensity(100, 0.8), 1, 10)
    flagged = [sup, crit_max, sub_max]
    flags_ok = all(r.partial and r.note for r in flagged)
    dict_ok = all(r.to_dict()["partial"] for r in flagged)
    # a partial report with no reference stays inconclusive, never passes
    silent_ok = all(r.satisfied != bc.HOLDS for r in flagged)
    # the constructive part still judges correctly when a reference exists
    params = ModelParams.from_intensity(150, 1.5)
    surv = q_powers(build_q_float(params), np.ones(149), 3)
    sup2 = bc.duration_bounds_single(params, 1, 3)
    sup2.reference_value = 1.0 - float(surv[3][0])
    sup2.reference_error = 1e-9
    constructive_ok = sup2.judge().satisfied != bc.VIOLATED \
        and sup2.partial
    ok = flags_ok and dict_ok and silent_ok and constructive_ok
    report(10, ok, f"non-constructive bounds flagged partial with notes: "
                   f"{flags_ok}; serialized flags: {dict_ok}; never "
                   f"silently passed: {silent_ok}; constructive part "
                   f"judged: {constructive_ok}")
    assert ok
