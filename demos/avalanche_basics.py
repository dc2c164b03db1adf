"""Simulate avalanche trajectories and compare against exact expectations.

Runs the count-level chain at a few intensities, prints Monte Carlo
summaries with standard errors, and checks them against the
arbitrary-precision absorbing-chain solves.
"""

import numpy as np

from avalanche.exact import (PrecisionConfig, SubstochasticSystem,
                             expected_duration, expected_size)
from avalanche.harness import Estimate, run_trajectories
from avalanche.model import ModelParams

N = 80
I0 = 2
REPLICATES = 20000
SEED = 7


def main():
    for c in (0.6, 1.0, 1.3):
        params = ModelParams.from_intensity(N, c)
        stats = run_trajectories(params, I0, REPLICATES, SEED)
        ok = stats[:, 3] == 0
        duration = Estimate.from_samples(stats[ok, 0])
        size = Estimate.from_samples(stats[ok, 1])

        system = SubstochasticSystem(params, PrecisionConfig(60))
        et = float(expected_duration(system)[I0 - 1])
        es = float(expected_size(system)[I0 - 1])

        print(f"c = {c}")
        print(f"  E(T): MC {duration.point:.3f} +/- {duration.stderr:.3f}"
              f"  exact {et:.3f}")
        print(f"  E(S): MC {size.point:.3f} +/- {size.stderr:.3f}"
              f"  exact {es:.3f}")
        print(f"  max excited (MC mean): {stats[ok, 2].mean():.2f},"
              f"  truncated runs: {int((~ok).sum())}")

    # empirical duration distribution at criticality
    params = ModelParams.from_intensity(N, 1.0)
    stats = run_trajectories(params, 1, REPLICATES, SEED + 1)
    t = stats[:, 0]
    print("\ncritical duration tail, i0 = 1:")
    for m in (1, 2, 5, 10, 20):
        print(f"  P(T > {m:2d}) = {np.mean(t > m):.4f}")


if __name__ == "__main__":
    main()
