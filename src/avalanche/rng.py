"""Reproducible counter-based random streams for parallel Monte Carlo.

Streams are Philox generators keyed by ``(master_seed, index)``.
``harness.run_trajectories`` keys one stream per fixed-size block of
replicates, ``(master_seed, block_index)``; the coupling campaign keys
one per path.  Work is handed to workers in whole streams, so estimates
are bit-identical no matter how it is scheduled.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Return the generator for one block, path or replicate of an experiment.

    The Philox key is the pair (master_seed, replicate_index), both
    reduced mod 2**64.  Streams for distinct pairs are independent.
    """
    key = np.array([master_seed & _MASK64, replicate_index & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
