"""trial_rngs against numpy's own SeedSequence construction in trial_rng."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from seqmeas import trial_rng, trial_rngs
from seqmeas.rng import _CHUNK

# more than 4 entropy words last: the words past the pool mix after the cross-mix
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130 + 7]
# one spawn word up to 2^32 - 1, two from 2^32 on
INDICES = [0, 1, 999, 1000, 2**32 - 1, 2**32, 2**40 + 3]


def _assert_same_streams(seed, indices):
    built = list(trial_rngs(seed, indices))
    assert len(built) == len(indices)
    for index, rng in zip(indices, built):
        assert rng.bit_generator.state == trial_rng(seed, index).bit_generator.state, (seed, index)


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_trial_rng(seed):
    _assert_same_streams(seed, INDICES)


@pytest.mark.parametrize("seed", [0, 2**130 + 7])
def test_run_across_a_chunk_boundary(seed):
    """A run longer than one chunk, whose indices pass from one spawn word to
    two inside the second chunk."""
    start = 2**32 - _CHUNK - 5
    _assert_same_streams(seed, range(start, start + _CHUNK + 11))


def test_mixed_word_counts_in_one_chunk():
    _assert_same_streams(3, [2**32 + 1, 0, 2**63, 7, 2**64 - 1, 2**32 - 1])


def test_accepts_numpy_integers():
    _assert_same_streams(np.uint64(5), [np.int64(3), np.uint32(9)])


@pytest.mark.parametrize("index", [-1, 2**64, 2**70])
def test_index_out_of_range(index):
    streams = trial_rngs(0, [0, index])
    with pytest.raises(ValueError, match=f"stream index must be in \\[0, 2\\*\\*64\\), got {index}"):
        next(streams)


def test_negative_seed_raises_at_the_call():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        trial_rngs(-1, range(3))


def test_fractional_index_or_seed_is_refused():
    """int() would truncate 1.5 and run stream 1 silently."""
    with pytest.raises(TypeError):
        trial_rngs(1.5, range(3))
    with pytest.raises(TypeError):
        next(trial_rngs(0, [1.5]))
    with pytest.raises(TypeError):
        trial_rng(1.5, 0)
    with pytest.raises(TypeError):
        trial_rng(0, 1.5)


def test_lazy_over_an_endless_run():
    """Only the first chunk is read and hashed before the first stream."""
    start = time.perf_counter()
    rng = next(trial_rngs(0, itertools.count(1000)))
    assert time.perf_counter() - start < 1.0
    assert rng.bit_generator.state == trial_rng(0, 1000).bit_generator.state


def test_empty_run():
    assert list(trial_rngs(0, [])) == []


def test_import_leaves_numpy_random_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, seqmeas; assert 'numpy.random' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
