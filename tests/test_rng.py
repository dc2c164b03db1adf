"""Counter-based replicate streams: the key and nothing else."""

import pickle

import numpy as np
import pytest

from avalanche.rng import replicate_rng

MOD = 1 << 64


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (-1, 2 ** 64 + 3),
                                         (2 ** 70 + 5, -7)])
def test_stream_is_philox_keyed_by_the_pair(seed, index):
    # the 128-bit integer key holds the pair as its two 64-bit words
    ref = np.random.Generator(np.random.Philox(
        key=(seed % MOD) | (index % MOD) << 64))
    rng = replicate_rng(seed, index)
    assert rng.bit_generator.state["state"]["key"].tolist() == [
        seed % MOD, index % MOD]
    np.testing.assert_array_equal(rng.random(1000), ref.random(1000))
    np.testing.assert_array_equal(rng.poisson(3.0, 100),
                                  ref.poisson(3.0, 100))


def test_seed_sequence_holds_only_the_key():
    seq = replicate_rng(-1, 2 ** 64 + 3).bit_generator.seed_seq
    assert not isinstance(seq, np.random.SeedSequence)
    assert not hasattr(seq, "entropy")
    assert seq.generate_state(2, np.uint64).tolist() == [MOD - 1, 3]
    for words, dtype in ((4, np.uint32), (3, np.uint64), (2, np.uint32)):
        with pytest.raises(ValueError, match="2 x uint64"):
            seq.generate_state(words, dtype)


def test_pickled_mid_stream_continues_identically():
    # the path run_trajectories --workers 2 sends streams to its pool by
    rng = replicate_rng(12, 34)
    rng.random(17)
    rng.binomial(50, 0.3, 9)
    copy = pickle.loads(pickle.dumps(rng))
    np.testing.assert_array_equal(copy.random(500), rng.random(500))
    assert copy.integers(0, 10 ** 9) == rng.integers(0, 10 ** 9)
