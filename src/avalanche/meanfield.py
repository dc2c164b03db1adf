"""Mean-field map of the scaled avalanche and its fluctuation theory.

The one-step map is g_a(x) = (1-x)(1-exp(-a*x)).  This module locates
its fixed point zeta (a > 1), argmax nu and maximum chi, the
transitional intensity where nu = zeta, iterates the psi/phi envelope
recursions, builds the Gaussian AR(1) fluctuation model around the psi
path, and constructs the contraction intervals and Hoeffding exponents
behind the concentration envelopes for the scaled chain.
"""

from dataclasses import dataclass
import math
import sys

import numpy as np
from scipy.optimize import brentq

FIXED_POINT_TOL = 1e-12
_ITER_TOL = 1e-14
_ITER_CAP = 10 ** 5
# once zeta rounds to 1/2 (lam of about 71.7 on) b = 3/4 and 1 - rho =
# exp(-lam), so gamma = exp(2*lam)/8: it fits in float64 up to here
MAX_STABILITY_LAM = 0.5 * (math.log(sys.float_info.max) + math.log(8.0))


def g(alpha: float, x: float):
    """Mean-field map value (1 - x)(1 - exp(-alpha*x)); vectorizes in x."""
    return (1.0 - x) * -np.expm1(-alpha * x)


def dg(alpha: float, x: float):
    """Derivative -1 + (1 + alpha - alpha*x)*exp(-alpha*x); always > -1."""
    return -1.0 + (1.0 + alpha - alpha * x) * np.exp(-alpha * x)


def fixed_point_zeta(alpha: float) -> float:
    """Unique positive fixed point of g_alpha, defined for alpha > 1.

    Lies in (0, 1/2], reaching 1/2 only by rounding (from alpha of
    about 71.7 on); the map has no positive fixed point at or below the
    critical intensity.
    """
    if alpha <= 1.0:
        raise ValueError(f"no positive fixed point for alpha={alpha} <= 1")
    z = brentq(lambda x: g(alpha, x) - x, 1e-300, 1.0 - 1e-12,
               xtol=1e-300, rtol=9e-16)
    if abs(g(alpha, z) - z) >= FIXED_POINT_TOL:
        raise ArithmeticError(f"fixed point residual too large at alpha={alpha}")
    if not 0.0 < z <= 0.5:
        raise ArithmeticError(f"fixed point {z} outside (0, 1/2]")
    return z


def argmax_nu(alpha: float) -> tuple[float, float]:
    """(nu, chi): location and value of the maximum of g_alpha on (0,1).

    g_alpha is unimodal (increasing then decreasing), so nu is the
    unique zero of the derivative.
    """
    if alpha <= 0.0:
        raise ValueError(f"intensity must be positive, got {alpha}")
    nu = brentq(lambda x: dg(alpha, x), 1e-300, 1.0 - 1e-12,
                xtol=1e-300, rtol=9e-16)
    return nu, float(g(alpha, nu))


def transitional_alpha() -> float:
    """Intensity where nu equals zeta, separating the monotone and
    oscillatory approach to the fixed point; approximately 2.46742."""
    return brentq(lambda a: argmax_nu(a)[0] - fixed_point_zeta(a), 1.5, 5.0,
                  xtol=1e-12)


@dataclass(frozen=True)
class MeanFieldPath:
    """psi iteration, the cruder phi envelope, and the branching factor."""

    psi: np.ndarray
    phi: np.ndarray
    branching_factor: np.ndarray


def iterate_mean_field(alpha: float, psi0: float,
                       steps: int | None = None) -> MeanFieldPath:
    """Iterate psi_{k+1} = g(psi_k) and phi_{k+1} = 1 - exp(-alpha*phi_k).

    With ``steps`` None, runs until successive psi values differ by
    less than 1e-14 (or a 1e5-step cap).  The branching factor is
    g(psi_k)/psi_k, set to 0 once the path hits 0 exactly.
    """
    if alpha <= 0.0:
        raise ValueError(f"intensity must be positive, got {alpha}")
    if not 0.0 <= psi0 <= 1.0:
        raise ValueError(f"need psi0 in [0,1], got {psi0}")
    psi, phi = [psi0], [psi0]
    cap = steps if steps is not None else _ITER_CAP
    for _ in range(cap):
        nxt = float(g(alpha, psi[-1]))
        phi.append(float(-np.expm1(-alpha * phi[-1])))
        psi.append(nxt)
        if steps is None and abs(psi[-1] - psi[-2]) < _ITER_TOL:
            break
    psi = np.array(psi)
    with np.errstate(invalid="ignore", divide="ignore"):
        bf = np.where(psi > 0.0, g(alpha, psi) / np.where(psi > 0, psi, 1.0),
                      0.0)
    return MeanFieldPath(psi, np.array(phi), bf)


def mean_field_limit(alpha: float, psi0: float) -> float:
    """Limit of the psi iteration: 0 when alpha <= 1, else zeta_alpha."""
    if not 0.0 <= psi0 <= 1.0:
        raise ValueError(f"need psi0 in [0,1], got {psi0}")
    if alpha <= 1.0 or psi0 in (0.0, 1.0):
        return 0.0
    return fixed_point_zeta(alpha)


def mean_field_upper_bounds(n: int, p: float, phi0: float,
                            k_max: int) -> dict:
    """Envelopes dominating E(X_k)/n for a single network.

    Returns the phi envelope (always valid), the tighter psi envelope
    (valid only when alpha <= alpha_tr and phi0 <= zeta_alpha, else
    None with a reason), and the uniform cap max{phi0, chi_alpha}.
    """
    alpha = -n * math.log1p(-p)
    path = iterate_mean_field(alpha, phi0, steps=k_max)
    nu, chi = argmax_nu(alpha)
    # the psi induction needs g increasing up to the starting level:
    # up to zeta when it exists, otherwise up to the argmax
    mono_cap = fixed_point_zeta(alpha) if alpha > 1.0 else nu
    out = {"alpha": alpha, "phi": path.phi,
           "cap": max(phi0, chi), "psi": None, "psi_reason": ""}
    a_tr = transitional_alpha()
    if alpha > a_tr:
        out["psi_reason"] = (f"alpha={alpha:.6g} exceeds the transitional "
                             f"value {a_tr:.6g}")
    elif phi0 > mono_cap:
        out["psi_reason"] = (f"phi0={phi0} above the monotone range "
                             f"limit {mono_cap:.6g}")
    else:
        out["psi"] = path.psi
    return out


def innovation_variance(lam: float, x):
    """v(x) = g_lam(x) * exp(-lam*x), the AR(1) innovation variance."""
    return g(lam, x) * np.exp(-lam * x)


def heterogeneity_r(x):
    """r(x) = x(1-x)/2, the limit of the normalized heterogeneity."""
    return 0.5 * x * (1.0 - x)


@dataclass(frozen=True)
class FluctuationModel:
    """Slopes and innovation variances of the AR(1) limit along psi."""

    lam: float
    psi: np.ndarray
    slopes: np.ndarray
    variances: np.ndarray

    @classmethod
    def from_initial(cls, lam: float, psi0: float,
                     steps: int) -> "FluctuationModel":
        psi = iterate_mean_field(lam, psi0, steps=steps).psi
        return cls(lam, psi, np.asarray(dg(lam, psi)),
                   np.asarray(innovation_variance(lam, psi)))


def simulate_ar1(model: FluctuationModel, rng: np.random.Generator,
                 replicates: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample AR(1) paths Y_{k+1} = g'(psi_k) Y_k + e_k, e_k ~ N(0, v(psi_k)),
    from Y_0 = 0.

    Returns (y, y_het) arrays of shape (replicates, len(psi)); the
    heterogeneity companion is (1 - 2*psi_k)/2 * Y_k.
    """
    k_max = len(model.psi)
    y = np.zeros((replicates, k_max))
    for k in range(k_max - 1):
        e = rng.normal(0.0, math.sqrt(max(model.variances[k], 0.0)),
                       size=replicates)
        y[:, k + 1] = model.slopes[k] * y[:, k] + e
    y_het = 0.5 * (1.0 - 2.0 * model.psi) * y
    return y, y_het


def ar1_variance(model: FluctuationModel) -> np.ndarray:
    """Closed-form variance recursion Var_{k+1} = slope**2 Var_k + v_k,
    from Var_0 = 0."""
    out = np.zeros(len(model.psi))
    for k in range(len(model.psi) - 1):
        out[k + 1] = model.slopes[k] ** 2 * out[k] + model.variances[k]
    return out


@dataclass(frozen=True)
class StabilityInterval:
    """Contraction data (a, b, eps, rho, gamma) for the supercritical chain.

    The interval (a, b) contains zeta, g maps it into
    (a + eps, b - eps), |g'| < rho < 1 on (a, 1), and gamma is the
    Hoeffding exponent (1 - b)/(2*(1 - rho)**2).
    """

    lam: float
    a: float
    b: float
    eps: float
    rho: float
    gamma: float


def stability_interval(lam: float) -> StabilityInterval:
    """Construct (a, b, eps, rho, gamma) for lam > 1.

    b is the midpoint of max{nu, zeta} and 1, where g(b) must clear the
    point where g' = 1; a is then placed between that point and
    min{nu, zeta, g(b)}, which keeps |g'| < 1 on (a, 1) while
    preserving the sandwich a < min{nu, zeta, g(b)} <= max{nu, zeta} < b.
    1 - rho is formed directly as min{1 - g'(a), exp(-lam)}: rho itself
    rounds to 1 from lam of about 37 on, and gamma overflows float64
    above MAX_STABILITY_LAM.
    """
    if lam <= 1.0:
        raise ValueError(f"requires lam > 1, got {lam}")
    if lam > MAX_STABILITY_LAM:
        raise ValueError(f"requires lam <= {MAX_STABILITY_LAM:.6f}, the "
                         f"largest whose gamma fits in float64, got {lam}")
    zeta = fixed_point_zeta(lam)
    nu, chi = argmax_nu(lam)
    # the slope exceeds 1 left of x_star (g'(0) = lam > 1, g' decreasing)
    x_star = brentq(lambda x: dg(lam, x) - 1.0, 1e-300, nu, xtol=1e-300,
                    rtol=9e-16)
    b = 0.5 * (max(nu, zeta) + 1.0)
    if not min(nu, zeta, g(lam, b)) > x_star:
        raise ArithmeticError(f"failed to place b for lam={lam}")
    a = 0.5 * (x_star + min(nu, zeta, float(g(lam, b))))
    h = min(float(g(lam, a)), float(g(lam, b)))
    eps = min(b - zeta, h - a, (b - a) / 2.0)
    if eps <= 0.0:
        raise ArithmeticError(f"degenerate margin for lam={lam}")
    gap = min(1.0 - float(dg(lam, a)), math.exp(-lam))  # 1 - rho
    if not 0.0 < gap < 1.0:
        raise ArithmeticError(f"contraction rate {1.0 - gap} outside (0,1)")
    gamma = (1.0 - b) / 2.0 / gap / gap   # gap**2 would underflow first
    return StabilityInterval(lam, a, b, eps, 1.0 - gap, gamma)


def decay_rho(lam: float, psi0: float, delta: float) -> float:
    """Contraction rate for the sub/critical concentration bound.

    lam < 1: max{lam, |g'(psi0)|}.  lam = 1: max{g'(a), |g'(psi0)|}
    where a is the minimal root of g(a) = delta.
    """
    if lam > 1.0:
        raise ValueError(f"requires lam <= 1, got {lam}")
    if not 0.0 < psi0 < 1.0:
        raise ValueError(f"need psi0 in (0,1), got {psi0}")
    slope0 = abs(float(dg(lam, psi0)))
    if lam < 1.0:
        return max(lam, slope0)
    nu, chi = argmax_nu(lam)
    if not 0.0 < delta < chi:
        raise ValueError(f"need 0 < delta < {chi}, got {delta}")
    a = brentq(lambda x: g(lam, x) - delta, 1e-300, nu, xtol=1e-300,
               rtol=9e-16)
    return max(float(dg(lam, a)), slope0)


def decay_gamma(lam: float, psi0: float, delta: float) -> float:
    """Hoeffding exponent (1 - psi0)/(2*(1 - rho)**2) for lam <= 1."""
    rho = decay_rho(lam, psi0, delta)
    return (1.0 - psi0) / (2.0 * (1.0 - rho) ** 2)


def exit_horizon_m0(psi0: float, delta: float) -> int:
    """m0 = floor(log(psi0/delta)) + 1, the guaranteed-stay horizon."""
    if not 0.0 < delta < psi0:
        raise ValueError(f"need 0 < delta < psi0, got delta={delta}")
    return int(math.floor(math.log(psi0 / delta))) + 1


def concentration_envelope(gamma: float, delta: float, n: int,
                           m: int) -> tuple[float, float]:
    """((1 - 2e^{-gamma delta^2 n})^m, 1 - 2m e^{-gamma delta^2 n})."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    t = 2.0 * math.exp(-gamma * delta * delta * n)
    product = (1.0 - t) ** m if t < 1.0 else 0.0
    return product, 1.0 - m * t
