"""Deterministic per-trial random streams.

A master seed expands to independent streams via the counter scheme
stream(i) = default_rng(SeedSequence(entropy=seed, spawn_key=(i,))), so the
stream consumed by trial i never depends on how many other trials ran or in
what order.  The experiments batch their sampled trials on shared survivor
paths (``quantum_or.sample_trials``, ``measurement.reject_path``) while
each trial still draws only from its own stream, and the test suite checks
that every batched trial equals a single run on that stream.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The generator for stream `index` derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))
