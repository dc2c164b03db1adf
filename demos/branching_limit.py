"""The Poisson branching limit: extinction, total progeny, duration bounds.

Shows the extinction fixed point across the critical intensity, matches
the simulated total progeny against the Borel-Tanner law, and prints the
generation-wise extinction sandwich next to the exact iterated value.
"""

import numpy as np

from avalanche.branching import (agresti_duration_bounds, borel_tanner_pmf,
                                 extinction_prob, gw_extinct_by, gw_simulate)
from avalanche.rng import replicate_rng


def main():
    print("extinction probability alpha_mu:")
    for mu in (1.2, 1.5, 2.0, 3.0):
        print(f"  mu = {mu}: alpha = {extinction_prob(mu):.6f}")

    lam, i0 = 0.8, 1
    rng = replicate_rng(101, 0)
    sizes = np.array([gw_simulate(lam, i0, rng).size
                      for _ in range(30000)])
    print(f"\ntotal progeny at lam = {lam}, i0 = {i0} "
          f"(30000 runs vs Borel-Tanner):")
    for j in (1, 2, 3, 5, 10):
        emp = np.mean(sizes == j)
        ref = borel_tanner_pmf(lam, i0, j)
        print(f"  P(S = {j:2d}): MC {emp:.4f}  exact {ref:.4f}")
    print(f"  E(S): MC {sizes.mean():.3f}  limit {i0 / (1 - lam):.3f}")

    print("\nduration sandwich P(T <= m), exact value in between:")
    for c in (0.8, 1.0, 1.5):
        print(f"  c = {c}:")
        for m in (1, 3, 10):
            lo, hi = agresti_duration_bounds(c, i0, m)
            exact = gw_extinct_by(c, i0, m)
            print(f"    m = {m:2d}: {lo:.4f} <= {exact:.4f} <= {hi:.4f}")


if __name__ == "__main__":
    main()
