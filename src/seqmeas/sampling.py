"""Seeded random instance generators shared by the test suite and experiments.

Each generator builds a value that is valid by construction, so it takes
the trusted construction path of :mod:`states`.
"""

from __future__ import annotations

import numpy as np

from .states import DensityOperator, HermitianOperator, PureState, RegisterShape, _trusted


def random_pure_state(rng: np.random.Generator, shape: RegisterShape) -> PureState:
    d = shape.total_dim
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return _trusted(PureState, shape, v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density_operator(
    rng: np.random.Generator, shape: RegisterShape, rank: int | None = None
) -> DensityOperator:
    d = shape.total_dim
    rank = d if rank is None else max(1, min(rank, d))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return _trusted(DensityOperator, shape, rho)


def random_projector(rng: np.random.Generator, shape: RegisterShape, rank: int) -> HermitianOperator:
    d = shape.total_dim
    if not 0 <= rank <= d:
        raise ValueError("projector rank out of range")
    if rank == 0:
        return _trusted(HermitianOperator, shape, np.zeros((d, d)))
    u = random_unitary(rng, d)
    cols = u[:, :rank]
    return _trusted(HermitianOperator, shape, cols @ cols.conj().T)


def random_povm_contraction(rng: np.random.Generator, shape: RegisterShape) -> HermitianOperator:
    """Random operator with 0 <= L <= I and top eigenvalue uniform in (0, 1]."""
    d = shape.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g @ g.conj().T
    h /= np.linalg.eigvalsh(h).max()
    h *= rng.uniform(0.05, 1.0)
    h = 0.5 * (h + h.conj().T)
    return _trusted(HermitianOperator, shape, h)
