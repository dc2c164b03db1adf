"""Catalog of analytical bounds for the avalanche chain.

Each bound is a pure function; grid campaigns wrap the values in
BoundReport records with a tri-state verdict.  Bounds whose constants
are non-constructive (the exponential-tail pair (theta, K) in the
supercritical duration estimate, the vanishing sequence eps_m and the
constant B in the maxima estimates) accept the missing pieces as
explicit user-supplied slack and mark the report as partial.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np

from .branching import agresti_duration_bounds, extinction_prob, ruin_ratio

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
SCALING_TOL = 0.05  # largest final gap duration_scaling_check accepts


@dataclass
class BoundReport:
    """One named bound evaluated at one parameter point.

    ``satisfied`` is "holds", "violated", or "inconclusive"; the latter
    covers vacuous bounds, a missing or NaN reference, a NaN error bar
    and one straddling an endpoint.  A report with a reference is judged
    when built (by ``dataclasses.replace`` too); a NaN bound is refused.
    ``partial`` marks bounds whose non-constructive part was omitted or
    replaced by configured slack.
    """

    name: str
    inputs: dict
    lower: float | None = None
    upper: float | None = None
    reference_value: float | None = None
    reference_error: float = 0.0
    satisfied: str = field(default=INCONCLUSIVE, init=False)
    partial: bool = False
    note: str = ""

    def __post_init__(self):
        lo = -math.inf if self.lower is None else self.lower
        hi = math.inf if self.upper is None else self.upper
        if not lo <= hi:   # also true when either is NaN
            raise ValueError(f"{self.name}: bounds {self.lower}, "
                             f"{self.upper} are crossed or NaN")
        if self.reference_value is not None:  # else the default verdict
            self.judge()

    def judge(self) -> "BoundReport":
        """Set the verdict from the reference value and its error bar; a
        NaN in either fails every comparison, so it is inconclusive."""
        v, e = self.reference_value, self.reference_error
        if v is None:
            self.satisfied = INCONCLUSIVE
        elif ((self.lower is not None and v < self.lower - e)
              or (self.upper is not None and v > self.upper + e)):
            self.satisfied = VIOLATED
        elif ((self.lower is None or v >= self.lower + e)
              and (self.upper is None or v <= self.upper - e)):
            self.satisfied = HOLDS
        else:   # inside the envelope but within one error bar of an end
            self.satisfied = INCONCLUSIVE
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "lower": self.lower,
            "upper": self.upper,
            "reference": self.reference_value,
            "reference_error": self.reference_error,
            "satisfied": self.satisfied,
            "partial": self.partial,
            "note": self.note,
        }


def mean_decay_bound(params, eh0: float, k: int) -> float:
    """c**k * E(H_0) / n, an upper bound on E(X_k)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return params.c ** k * eh0 / params.n


def survival_bounds(params, eh0: float, k: int) -> tuple[float, float]:
    """(naive, refined) upper bounds on P(T > k).

    naive: (1 - q**(n**2/4))**k.  refined: c**k * E(H_0) / n, the one
    used downstream in the subcritical regime.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    naive = (-math.expm1(params.n ** 2 / 4.0
                         * math.log1p(-params.p))) ** k
    refined = mean_decay_bound(params, eh0, k)
    return naive, refined


def size_bounds_single(params, ex0: float, ex0sq: float,
                       d: float) -> tuple[float, float]:
    """Sandwich for E(S) in the strictly subcritical single network.

    lower = E(X_0)/(1-d) - 3*E(X_0**2)/(n*(1-c)**3), upper = E(X_0)/(1-c).
    """
    c = params.c
    if c >= 1.0:
        raise ValueError(f"requires c < 1, got c={c}")
    if not 0.0 < d <= c:
        raise ValueError(f"need 0 < d <= c, got d={d}")
    lower = ex0 / (1.0 - d) - 3.0 * ex0sq / (params.n * (1.0 - c) ** 3)
    upper = ex0 / (1.0 - c)
    return lower, upper


def size_limit_correction(lam: float, i0: int) -> float:
    """Limit of n * (i0/(1-lam) - E(S_n)) in the subcritical ensemble."""
    if lam >= 1.0:
        raise ValueError(f"requires lam < 1, got {lam}")
    denom = 2.0 * (1.0 - lam) ** 2 * (1.0 + lam)
    return (3.0 * i0 * lam ** 2 + i0 ** 2 * (2.0 * lam - lam ** 2)) / denom


def size_limit_second_order(lam: float, i0: int) -> float:
    """Limit of n * (i0/(1-lam) - E(S_n)) from the step recursion.

    Expanding 1 - q**i to second order in p, summing the mean recursion
    over all generations, and passing to the branching limit gives

        M2 * (2*lam + lam**2) / (2*(1-lam)) - i0*lam**2 / (2*(1-lam)**2)

    with M2 = E[sum_k Z_k**2] = lam*i0/((1-lam)*(1-lam**2)) + i0**2/(1-lam**2)
    the summed second moment of the limiting branching process.  The
    quadratic Taylor term of 1 - q**i enters the recursion with a minus
    sign, which flips two signs relative to the closed form implemented
    in size_limit_correction; exact solves at growing n converge to the
    value returned here (e.g. 17/6 for lam=0.5, i0=1, against 2.0 from
    the other form).
    """
    if lam >= 1.0:
        raise ValueError(f"requires lam < 1, got {lam}")
    m2 = lam * i0 / ((1.0 - lam) * (1.0 - lam ** 2)) \
        + i0 ** 2 / (1.0 - lam ** 2)
    return m2 * (2.0 * lam + lam ** 2) / (2.0 * (1.0 - lam)) \
        - i0 * lam ** 2 / (2.0 * (1.0 - lam) ** 2)


def eps_gamma(d: float, eps: float) -> float:
    """gamma(eps) = (1 - exp(-d*eps)) / eps."""
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    return -math.expm1(-d * eps) / eps


def rho_epsilon(d: float, eps: float) -> float:
    """rho = alpha_mu with mu = gamma(eps)*(1 - eps), for d > 1.

    Requires the admissibility condition gamma(eps)*(1 - eps) > 1; the
    value lies strictly between alpha_d and 1 and tends to alpha_d as
    eps tends to 0.
    """
    if d <= 1.0:
        raise ValueError(f"requires d > 1, got {d}")
    mu = eps_gamma(d, eps) * (1.0 - eps)
    if mu <= 1.0:
        raise ValueError(
            f"eps={eps} is inadmissible for d={d}: (1-e**(-d*eps))/eps"
            f"*(1-eps) = {mu} <= 1")
    return extinction_prob(mu)


def reach_bounds_single(params, d: float, eps: float,
                        i: int) -> tuple[float, float]:
    """Sandwich for the probability of ever reaching level n*eps from i.

    lower = ruin_ratio(rho, i, n), upper = ruin_ratio(a, i, n*eps) with
    a = alpha_c and rho = rho_epsilon(d, eps).
    """
    n, c = params.n, params.c
    if i < 1 or i >= n * eps:
        raise ValueError(f"need 1 <= i < n*eps, got i={i}, n*eps={n * eps}")
    return (ruin_ratio(rho_epsilon(d, eps), i, n),
            ruin_ratio(extinction_prob(c), i, n * eps))


def _best_level_subcritical(c: float, i0: int, m: int, n: int) -> int:
    """Level J minimizing the subcritical coupling-error term."""
    j = np.arange(i0 + 1, n)
    if not j.size:
        raise ValueError(f"no level J with i0 < J < n for i0={i0}, n={n}")
    err = 1.5 * c * m * j * j / n + ruin_ratio(extinction_prob(c), i0, j)
    return int(j[np.argmin(err)])


def duration_bounds_single(params, i0: int, m: int,
                           level: float | None = None,
                           theta: float | None = None,
                           k_const: float | None = None) -> BoundReport:
    """Finite-n sandwich for P(T <= m) on a single network.

    The lower bound is the branching-process estimate; the upper bound
    adds the coupling-error term of the matching regime.  ``level`` is
    the free constant x (supercritical) or the integer cutoff J
    (subcritical); at criticality it is fixed to (n*i0**2/(3m))**(1/3).
    The supercritical exponential tail K**i0 * exp(-theta*x) needs the
    non-constructive pair (theta, K); without it the term is omitted
    and the report flagged partial.
    """
    n, c = params.n, params.c
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    inputs = {"n": n, "p": params.p, "i0": i0, "m": m}
    lower, upper = agresti_duration_bounds(c, i0, m)
    if c > 1.0:
        # x*c**m exactly (c = num/den): c**m overflows a float for large m
        num, den = c.as_integer_ratio()
        xc = n - 1 if level is None else Fraction(level) * num ** m / den ** m
        if not 0 < xc < n:
            raise ValueError(f"need 0 < x*c**m < n, got x={level}")
        x = level if level is not None else (n - 1) * den ** m / num ** m
        err = 1.5 * m * (c * float(xc)) ** 1.5 / n
        partial = theta is None or k_const is None
        if not partial:
            err += k_const ** i0 * math.exp(-theta * x)
        note = "" if not partial else (
            "exponential tail term omitted: (theta, K) are "
            "non-constructive and were not supplied")
        return BoundReport("duration_single_supercritical",
                           {**inputs, "x": x}, lower, upper + err,
                           partial=partial, note=note)
    if c < 1.0:
        j = int(level) if level is not None else _best_level_subcritical(
            c, i0, m, n)
        if not i0 < j < n:
            raise ValueError(f"need i0 < J < n, got J={j}")
        err = 1.5 * c * m * j * j / n + ruin_ratio(extinction_prob(c), i0, j)
        return BoundReport("duration_single_subcritical",
                           {**inputs, "J": j}, lower, upper + err)
    err = 1.5 * (3.0 * m * i0 ** 2 / n) ** (1.0 / 3.0)
    return BoundReport("duration_single_critical", inputs, lower, upper + err)


def duration_scaling_limit(lam: float, i0: int) -> float:
    """Predicted limit for the survival probability on the right scale.

    lam > 1: P(T_n > m_n) -> 1 - alpha**i0.  lam < 1: (1/m) log
    P(T_n > m_n) -> log(lam).  lam = 1: m * P(T_n > m_n) -> 2*i0.
    """
    if lam > 1.0:
        return 1.0 - extinction_prob(lam) ** i0
    if lam < 1.0:
        return math.log(lam)
    return 2.0 * i0


def check_scaling_schedule(lam: float, schedule) -> None:
    """Reject m_n schedules violating the growth conditions.

    lam > 1: m_n = beta_n log n with limsup beta_n < 2/(3 log lam).
    lam < 1: m_n (log n)**2 / n -> 0 (so beta_n (log n)**3/n -> 0).
    lam = 1: m_n**4 / n -> 0 and m_n -> infinity.
    """
    ns = sorted(schedule)
    ms = [schedule[n] for n in ns]
    if lam > 1.0:
        cap = 2.0 / (3.0 * math.log(lam))
        for n, m in zip(ns, ms):
            if m / math.log(n) >= cap:
                raise ValueError(
                    f"m_n={m} at n={n} exceeds the {cap:.3g}*log(n) cap")
    elif lam == 1.0:
        if any(m ** 4 / n > ms[0] ** 4 / ns[0] for n, m in zip(ns, ms)):
            raise ValueError("m_n**4/n must shrink along the schedule")
    else:
        if any(m * math.log(n) ** 2 / n
               > ms[0] * math.log(ns[0]) ** 2 / ns[0] * (1 + 1e-9)
               for n, m in zip(ns, ms)):
            raise ValueError("m_n*(log n)**2/n must shrink along the schedule")


def duration_scaling_check(lam: float, i0: int, schedule: dict,
                           survival: dict) -> BoundReport:
    """Compare survival probabilities along an m_n schedule to the limit.

    ``schedule`` maps n to m_n; ``survival`` maps n to P(T_n > m_n)
    (exact or Monte Carlo).  The transformed sequence must approach the
    predicted limit: the gap at the largest n must be the smallest and
    fall below ``SCALING_TOL``.
    """
    check_scaling_schedule(lam, schedule)
    limit = duration_scaling_limit(lam, i0)
    gaps = []
    for n in sorted(schedule):
        m, surv = schedule[n], survival[n]
        if lam > 1.0:
            value = surv
        elif lam < 1.0:
            value = math.log(surv) / m
        else:
            value = m * surv
        gaps.append(abs(value - limit))
    final = gaps[-1]
    report = BoundReport(
        "duration_scaling",
        {"lam": lam, "i0": i0, "schedule": dict(schedule)},
        lower=limit - SCALING_TOL, upper=limit + SCALING_TOL,
        reference_value=limit - final,
        note=f"gap sequence {['%.4g' % g for g in gaps]}")
    report.satisfied = HOLDS if (final <= SCALING_TOL
                                 and final <= min(gaps) + 1e-12) else VIOLATED
    return report


def maxima_bounds(params, i0: int, m: int,
                  eps_slack: float = 0.1,
                  b_const: float | None = None) -> BoundReport:
    """Envelope for P(max_k X_k > m) at or below criticality.

    np = 1: i0/m * (1 + eps_slack).  np < 1: B/(m * alpha_c**m) with a
    user-supplied constant B (non-constructive in the source estimate);
    without B the report carries only the order factor and is partial.
    """
    n, c = params.n, params.c
    if not i0 < m < n:
        raise ValueError(f"need i0 < m < n, got m={m}")
    inputs = {"n": n, "p": params.p, "i0": i0, "m": m}
    if c == 1.0:
        return BoundReport("maxima_critical", inputs,
                           upper=i0 / m * (1.0 + eps_slack), partial=True,
                           note=f"eps_m replaced by slack {eps_slack}")
    if c < 1.0:
        order = extinction_prob(c) ** -m / m
        if b_const is None:
            return BoundReport(
                "maxima_subcritical", inputs, upper=None, partial=True,
                note=f"order factor 1/(m*alpha**m) = {order:.6g}; "
                     "constant B not supplied")
        return BoundReport("maxima_subcritical", inputs,
                           upper=b_const * order * (1.0 + eps_slack),
                           partial=True,
                           note=f"B={b_const}, eps_m slack {eps_slack}")
    raise ValueError(f"maxima bounds require np <= 1, got c={c}")


def max_mean_growth_bound(k: int, eps_slack: float = 0.2) -> float:
    """log(k)*(1 + eps_slack) envelope for E(max of the first k states), np=1."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return math.log(k) * (1.0 + eps_slack)
