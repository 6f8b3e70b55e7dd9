"""trial_rngs and trial_blocks against numpy's own SeedSequence and PCG64
construction in trial_rng."""

import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import StreamBlock, trial_blocks, trial_rng, trial_rngs
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


@pytest.mark.parametrize("seed", [True, False], ids=repr)
def test_bool_seed_is_refused(seed):
    """operator.index(True) is 1, so a bool seed silently ran seed 1 (or 0)."""
    with pytest.raises(TypeError, match="seed must be an integer, not a bool"):
        trial_rng(seed, 0)
    with pytest.raises(TypeError, match="seed must be an integer, not a bool"):
        trial_rngs(seed, range(3))
    with pytest.raises(TypeError, match="seed must be an integer, not a bool"):
        trial_blocks(seed, range(3))


def test_numpy_integer_seed_runs_the_int_seed():
    (block,) = trial_blocks(np.int64(3), [5])
    assert block.random()[0] == trial_rng(np.int64(3), 5).random() == trial_rng(3, 5).random()


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


# -- stream blocks: PCG64 on arrays ------------------------------------------------


def _reference_draws(seed, indices, n):
    return np.array([trial_rng(seed, i).random(n) for i in indices]).reshape(len(indices), n)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_matches_trial_rng(seed):
    """Every row's draws are its generator's, bit for bit, for one-word and
    two-word indices alike (2^32 and 2^64 - 1 included)."""
    indices = INDICES + [2**64 - 1]
    (block,) = trial_blocks(seed, indices)
    got = np.column_stack([block.random() for _ in range(20)])
    assert np.array_equal(got, _reference_draws(seed, indices, 20))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**140)),
    indices=st.lists(
        st.one_of(st.integers(0, 2**32 + 5), st.sampled_from([2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    data=st.data(),
)
def test_ragged_draws_match_trial_rng(seed, indices, data):
    """Draws on ragged live subsets: a row advances only when it is drawn,
    so its k-th value is its generator's k-th, whatever the other rows did."""
    (block,) = trial_blocks(seed, indices)
    rngs = [trial_rng(seed, i) for i in indices]
    for _ in range(data.draw(st.integers(1, 8))):
        rows = data.draw(st.lists(st.integers(0, len(indices) - 1), unique=True))
        got = block.random(np.array(rows, dtype=np.intp))
        assert np.array_equal(got, [rngs[r].random() for r in rows])
    assert np.array_equal(block.random(), [rng.random() for rng in rngs])


@pytest.mark.parametrize("seed", [0, 2**130 + 7])
def test_blocks_across_a_chunk_boundary(seed):
    """Consecutive blocks continue the run where the last chunk ended, also
    where the indices pass from one spawn word to two inside a block."""
    start = 2**32 - _CHUNK - 5
    indices = range(start, start + _CHUNK + 11)
    blocks = list(trial_blocks(seed, indices))
    assert [b.size for b in blocks] == [_CHUNK, 11]
    got = np.concatenate([np.column_stack([b.random() for _ in range(3)]) for b in blocks])
    assert np.array_equal(got, _reference_draws(seed, indices, 3))


def test_block_from_seed_words_matches_pcg64():
    """Seeded from any four words as numpy's PCG64 seeds itself from a seed
    sequence's words: all-ones words make every 128-bit addition carry."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    words = np.array([[2**64 - 1] * 4, [0, 0, 0, 0], [1, 2**63, 2**64 - 1, 5]], dtype=np.uint64)
    block = StreamBlock(words)
    got = np.column_stack([block.random() for _ in range(6)])
    for row, w in zip(got, words):
        assert np.array_equal(row, np.random.Generator(np.random.PCG64(Words(w))).random(6))


def test_block_is_checked_as_trial_rngs():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        trial_blocks(-1, range(3))
    with pytest.raises(ValueError, match="stream index must be in"):
        next(trial_blocks(0, [0, 2**64]))
    with pytest.raises(TypeError):
        next(trial_blocks(0, [1.5]))
    assert list(trial_blocks(0, [])) == []
    assert next(trial_blocks(0, itertools.count(1000))).size == _CHUNK


@pytest.mark.parametrize("probs", [[1.0], [0.5, 0.5], [0.1, 0.0, 0.35, 0.55], [0.0, 1.0, 0.0], [1e-12, 1 - 1e-12]])
def test_ensemble_index_rule_matches_choice(probs):
    """The samplers' mixed-input index, cdf.searchsorted(u, side="right") on
    the normalised cumulative sum, is Generator.choice(n, p=p) on the same
    stream."""
    p = np.array(probs) / np.sum(probs)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    (block,) = trial_blocks(4, range(500))
    got = cdf.searchsorted(block.random(), side="right")
    assert np.array_equal(got, [trial_rng(4, t).choice(p.size, p=p) for t in range(500)])


STREAM_INDEX_CALLS = {
    "trial_rng": lambda index: trial_rng(0, index),
    "trial_rngs": lambda index: next(iter(trial_rngs(0, [index]))),
    "trial_blocks": lambda index: next(trial_blocks(0, [index])),
}


@pytest.mark.parametrize("index", [True, np.True_], ids=repr)
@pytest.mark.parametrize("entry", sorted(STREAM_INDEX_CALLS))
def test_bool_stream_index_is_refused(entry, index):
    """operator.index(True) is 1, so trial_rng(0, True) silently read
    stream 1; trial_blocks(0, [np.True_]) failed with numpy's "cannot be
    interpreted as an integer"."""
    with pytest.raises(TypeError, match=re.escape(f"stream index must be an integer, not a bool ({index!r})")):
        STREAM_INDEX_CALLS[entry](index)
