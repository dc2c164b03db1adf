"""Couplings between the avalanche chain and its branching limit.

Runs the monotone triple X <= Q <= Z and reports the pathwise ordering
and the size gap it certifies, then measures the maximal-coupling
divergence frequency against the exact one-step total variation
distance and its analytical envelope.
"""

import numpy as np

from avalanche.coupling import (simulate_coupled, step_coupled_maximal,
                                step_divergence_bound, step_divergence_tv)
from avalanche.model import ModelParams
from avalanche.rng import replicate_rng

N = 100
C = 1.1
I0 = 2
SEED = 55


def main():
    params = ModelParams.from_intensity(N, C)
    c_couple = params.alpha * 1.001  # admissible coupling constant
    rng = replicate_rng(SEED, 0)

    runs, ordered, gap_x, gap_z = 2000, 0, [], []
    for _ in range(runs):
        path = simulate_coupled(params, c_couple, I0, rng, z_cap=10 ** 6)
        ordered += path.dominated
        if not path.truncated:
            gap_x.append(path.x_seq.sum())
            gap_z.append(path.z_seq.sum())
    print(f"monotone triple over {runs} paths: ordered in {ordered}")
    print(f"  mean total size: avalanche {np.mean(gap_x):.3f}"
          f"  <=  branching {np.mean(gap_z):.3f}")

    i = 4
    tv = step_divergence_tv(params, i)
    probes = 20000
    rng2 = replicate_rng(SEED, 1)
    diverged = sum(step_coupled_maximal(params, i, rng2)[2]
                   for _ in range(probes))
    print(f"\nmaximal coupling at state {i}:")
    print(f"  divergence frequency {diverged / probes:.5f}")
    print(f"  exact TV distance    {tv:.5f}")
    print(f"  per-step envelope    "
          f"{step_divergence_bound(params.c, i, N):.5f}")


if __name__ == "__main__":
    main()
