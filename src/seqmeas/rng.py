"""Deterministic per-trial random streams.

A master seed expands to independent streams via the counter scheme
stream(i) = default_rng(SeedSequence(entropy=seed, spawn_key=(i,))), so the
stream consumed by trial i never depends on how many other trials ran or in
what order.  The experiments batch their sampled trials on shared survivor
paths (``quantum_or.sample_blocks``, ``measurement.reject_path``) while
each trial still draws only from its own stream, and the test suite checks
that every batched trial equals a single run on that stream.

:func:`trial_rng` builds one stream with numpy's own ``SeedSequence``.
:func:`trial_rngs` builds a run of them, the same streams at a fraction of
the cost, by computing ``SeedSequence``'s hash itself.  The hash mixes the
entropy words (the seed's 32-bit words, padded with zeros to the pool size
of 4 when a spawn key is given) and then the spawn key's words into a pool
of four 32-bit words, and draws the PCG64 seed from the pool; its hash
constants advance by fixed multipliers whatever the data.  So every step
before the spawn key depends on the seed alone and runs once per call, in
Python ints.  Each index's one or two spawn words are then mixed into a copy
of that pool, and the eight output words drawn, with ``uint32`` array
operations over a fixed-size chunk of indices.  Each row of the result
seeds PCG64 through an ``ISeedSequence`` that returns it, so the bit
generator's state equals the one ``trial_rng`` gives (``tests/test_rng.py``
checks this against numpy).

:func:`trial_blocks` gives the same streams without a ``Generator`` per
trial: each chunk of indices is one :class:`StreamBlock`, numpy's PCG64 run
on arrays with one row per stream.  A row is seeded from its four seed
words as numpy's ``pcg64_set_seed`` does (state w0 2^64 + w1, increment
2 (w2 2^64 + w3) + 1, then srandom's two LCG steps); each draw is one
128-bit LCG step in two uint64 limbs, the XSL-RR output and
(x >> 11) 2^-53, as ``Generator.random`` computes it.  A draw advances
only the rows it is asked for, so row t's i-th value is the i-th
``trial_rng(seed, index_t).random()``, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

import numpy as np

# numpy SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# indices hashed per array pass: memory stays flat for any number of streams
_CHUNK = 1024

# numpy PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), as
# 64-bit limbs and the low limb's 32-bit halves.  Array operands only: numpy
# warns on a uint64 scalar overflow, but wraps array arithmetic silently.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO0, _MULT_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32)
_LOW32 = np.uint64(_MASK32)
_ONE, _SHIFT11, _SHIFT32, _SHIFT58, _SHIFT63 = (np.uint64(n) for n in (1, 11, 32, 58, 63))
_ROTATE_MASK = np.uint64(63)
_DOUBLE_UNIT = 2.0**-53


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator for stream `index` derived from the master seed (both
    integers; a float raises TypeError rather than running another stream)."""
    seq = np.random.SeedSequence(entropy=operator.index(seed), spawn_key=(operator.index(index),))
    return np.random.default_rng(seq)


def trial_rngs(seed: int, indices):
    """The generators trial_rng(seed, i) for each i of `indices`, in order.

    Each generator is built when it is reached, and `indices` is read one
    chunk at a time, so an endless iterable is fine.  The seed and the
    indices must be integers (``operator.index``; a float raises TypeError).
    A negative seed raises ValueError at the call; an index outside
    [0, 2^64) raises ValueError when its chunk is reached.
    """
    return _streams(_word_chunks(seed, indices))


def trial_blocks(seed: int, indices) -> Iterator[StreamBlock]:
    """The streams trial_rng(seed, i) for each i of `indices`, as one
    :class:`StreamBlock` per chunk of up to ``_CHUNK`` indices, in order.

    Read lazily and checked as :func:`trial_rngs` reads and checks them.
    """
    return map(StreamBlock, _word_chunks(seed, indices))


class StreamBlock:
    """PCG64 streams on arrays, one row per stream, seeded from rows of four
    uint64 seed words (``SeedSequence.generate_state(4, uint64)``).

    :meth:`random` draws what ``Generator.random`` would draw from each
    row's own generator, so a block built by :func:`trial_blocks` replays
    ``trial_rng`` stream for stream, however its draws are spread over rows.
    """

    __slots__ = ("_hi", "_lo", "_inc_hi", "_inc_lo")

    def __init__(self, words: np.ndarray):
        w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).reshape(-1, _POOL_SIZE).T
        # pcg_setseq_128_srandom_r: inc = 2 (w2 2^64 + w3) + 1, state = 0;
        # step; state += w0 2^64 + w1; step
        self._inc_hi = (w2 << _ONE) | (w3 >> _SHIFT63)
        self._inc_lo = (w3 << _ONE) | _ONE
        lo = self._inc_lo + w1
        hi = self._inc_hi + w0 + (lo < w1)
        self._hi, self._lo = self._step(hi, lo, self._inc_hi, self._inc_lo)

    @property
    def size(self) -> int:
        return self._lo.size

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """state * multiplier + inc modulo 2^128, on (high, low) limb arrays."""
        # the low limb times the multiplier's low limb, 64 x 64 -> 128 bits
        # from 32-bit halves, each partial product below 2^64
        a0, a1 = lo & _LOW32, lo >> _SHIFT32
        p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
        mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
        low = (p00 & _LOW32) | (mid << _SHIFT32)
        high = a1 * _MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
        high += hi * _MULT_LO + lo * _MULT_HI
        low += inc_lo
        high += inc_hi + (low < inc_lo)
        return high, low

    def random(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The next ``Generator.random()`` of each row in `rows` (distinct
        row indices; every row when None), in that order.  Only those rows
        advance."""
        if rows is None:
            hi, lo = self._hi, self._lo = self._step(self._hi, self._lo, self._inc_hi, self._inc_lo)
        else:
            hi, lo = self._step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
            self._hi[rows], self._lo[rows] = hi, lo
        # XSL-RR: the two limbs xored, rotated right by the state's top 6 bits
        x, rot = hi ^ lo, hi >> _SHIFT58
        x = (x >> rot) | (x << ((-rot) & _ROTATE_MASK))
        return (x >> _SHIFT11).astype(np.float64) * _DOUBLE_UNIT


@functools.cache
def _state_type():
    """An ISeedSequence whose PCG64 seed words are already computed.

    Made on first use, so importing seqmeas does not import numpy.random:
    importing it there raised the benchmark's peak RSS by about 0.3 MiB on
    every workload, even those that build no stream.
    """
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("only PCG64's four uint64 seed words are precomputed")
            return self._words

    return State


# The hash step and the mix take Python ints (the seed's part) or uint32
# arrays (one row per index), so both parts run the same arithmetic.


def _hashmix(value, xor: int, mult: int):
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mix_word(pool: list, word, constants) -> list:
    """`pool` with one entropy word hashed into each of its words."""
    return [_mix(column, _hashmix(word, *pair)) for column, pair in zip(pool, constants)]


def _hash_constants(hash_const: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constant pairs of n successive hash steps."""
    pairs = []
    for _ in range(n):
        following = hash_const * mult & _MASK32
        pairs.append((hash_const, following))
        hash_const = following
    return pairs


_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_pool(seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """SeedSequence's pool after the seed's entropy words, and the hash
    constants of the spawn-key words (four per word, up to two words)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    # one hash step per word up to the pool size, 12 in the cross-mix and
    # four per word past the pool: 4 * len(words) in all
    constants = iter(_hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 2 * _POOL_SIZE))
    pool = [_hashmix(word, *next(constants)) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    for word in words[_POOL_SIZE:]:
        pool = _mix_word(pool, word, itertools.islice(constants, _POOL_SIZE))
    return pool, list(constants)


def _seed_words(pool: list[int], spawn_constants, indices: list[int]) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(seed, spawn_key=(i,)) for
    each i, one row per index."""
    index = np.array(indices, dtype=np.uint64)
    low = (index & np.uint64(_MASK32)).astype(np.uint32)
    start = [np.full(index.size, word, dtype=np.uint32) for word in pool]
    final = _mix_word(start, low, spawn_constants[:_POOL_SIZE])
    if max(indices) >> 32:
        # an index of 2^32 or more is two spawn words, low then high
        high = (index >> np.uint64(32)).astype(np.uint32)
        two_words = _mix_word(final, high, spawn_constants[_POOL_SIZE:])
        final = [np.where(high != 0, b, a) for a, b in zip(final, two_words)]
    out = np.empty((index.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for i, pair in enumerate(_OUTPUT_CONSTANTS):
        out[:, i] = _hashmix(final[i % _POOL_SIZE], *pair)
    # word pairs read as little-endian uint64, as numpy does (no copy on a
    # little-endian machine)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _word_chunks(seed: int, indices) -> Iterator[np.ndarray]:
    """The seed-word rows of each chunk of `indices`.  The seed is checked at
    the call; `indices` is read and checked one chunk at a time."""
    pool, spawn_constants = _seed_pool(seed)
    return _chunk_words(pool, spawn_constants, iter(indices))


def _chunk_words(pool: list[int], spawn_constants, indices) -> Iterator[np.ndarray]:
    while chunk := [operator.index(i) for i in itertools.islice(indices, _CHUNK)]:
        low, high = min(chunk), max(chunk)
        if low < 0 or high >= 1 << 64:
            raise ValueError(f"stream index must be in [0, 2**64), got {low if low < 0 else high}")
        yield _seed_words(pool, spawn_constants, chunk)


def _streams(chunks: Iterator[np.ndarray]):
    for chunk in chunks:
        state, pcg64, generator = _state_type(), np.random.PCG64, np.random.Generator
        for words in chunk:
            yield generator(pcg64(state(words)))
