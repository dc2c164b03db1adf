"""Reproducible counter-based random streams for parallel Monte Carlo.

Streams are Philox generators keyed by ``(master_seed, index)``.
``harness.run_trajectories`` keys one stream per fixed-size block of
replicates, ``(master_seed, block_index)``; the coupling campaign keys
one per path, ``(master_seed, path_index)``; the other ensemble runs use
index 0.  Work is handed to workers in whole streams, so estimates
are bit-identical no matter how it is scheduled.  A stream is its key
and nothing else: Philox reads the key from a seed sequence that holds
only the key, so building one reads no OS entropy.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _Key(ISeedSequence):
    """A seed sequence that is one Philox key and gives nothing else.

    ``np.random.Philox(key=...)`` first seeds an entropy-drawn
    ``SeedSequence()`` and then overwrites its key; handed this object
    as its seed, Philox asks it for exactly the 2 x uint64 key.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 x uint64, not {n_words} x "
                             f"{np.dtype(dtype)}")
        return self.key.copy()


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Return the generator for one block, path or replicate of an experiment.

    The Philox key is the pair (master_seed, replicate_index), both
    reduced mod 2**64, and the counter starts at 0: the stream of
    ``Philox(key=[master_seed, replicate_index])``.  Streams for
    distinct pairs are independent.
    """
    key = np.array([master_seed & _MASK64, replicate_index & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))
