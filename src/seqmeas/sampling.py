"""Seeded random instance generators shared by the test suite and experiments.

Each generator builds a value that is valid by construction, so it takes
the trusted construction path of :mod:`states`.  The arithmetic that turns a
Ginibre draw into a density operator, a contraction or a Haar unitary lives
in :func:`density_from_ginibre`, :func:`contraction_from_ginibre` and
:func:`unitary_from_ginibre`, which work on ``(..., d, d)`` stacks: a sweep
draws each trial's matrices from its own stream and runs that arithmetic once
on the stack, with the same result, bit for bit, as one generator call per
trial.
"""

from __future__ import annotations

import numpy as np

from .states import DensityOperator, HermitianOperator, PureState, RegisterShape, _trusted, check_integer


def ginibre(rng: np.random.Generator, size) -> np.ndarray:
    """Complex Gaussian array: the real part is drawn first, then the imaginary."""
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def density_from_ginibre(g: np.ndarray) -> np.ndarray:
    """g g^dagger / tr, symmetrised, for each (d, r) matrix of a (..., d, r) stack."""
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def contraction_from_ginibre(g: np.ndarray, top) -> np.ndarray:
    """g g^dagger scaled to top eigenvalue ``top``, symmetrised, for each
    (d, d) matrix of a (..., d, d) stack; ``top`` has the stack's batch shape."""
    h = g @ g.conj().swapaxes(-1, -2)
    h /= np.linalg.eigvalsh(h).max(axis=-1)[..., None, None]
    h *= np.asarray(top)[..., None, None]
    return 0.5 * (h + h.conj().swapaxes(-1, -2))


def unitary_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Haar unitary Q diag(r_ii/|r_ii|) of g = QR, for each (d, d)
    matrix of a (..., d, d) stack."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_pure_state(rng: np.random.Generator, shape: RegisterShape) -> PureState:
    d = shape.total_dim
    v = ginibre(rng, d)
    return _trusted(PureState, shape, v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    return unitary_from_ginibre(ginibre(rng, (dim, dim)))


def random_density_operator(
    rng: np.random.Generator, shape: RegisterShape, rank: int | None = None
) -> DensityOperator:
    d = shape.total_dim
    rank = d if rank is None else check_integer(rank, "rank")
    if not 1 <= rank <= d:
        raise ValueError("density rank out of range")
    return _trusted(DensityOperator, shape, density_from_ginibre(ginibre(rng, (d, rank))))


def random_projector(rng: np.random.Generator, shape: RegisterShape, rank: int) -> HermitianOperator:
    d = shape.total_dim
    if not 0 <= check_integer(rank, "rank") <= d:
        raise ValueError("projector rank out of range")
    if rank == 0:
        return _trusted(HermitianOperator, shape, np.zeros((d, d)))
    u = random_unitary(rng, d)
    cols = u[:, :rank]
    return _trusted(HermitianOperator, shape, cols @ cols.conj().T)


def random_povm_contraction(rng: np.random.Generator, shape: RegisterShape) -> HermitianOperator:
    """Random operator with 0 <= L <= I and top eigenvalue uniform in [0.05, 1)."""
    d = shape.total_dim
    g = ginibre(rng, (d, d))
    return _trusted(HermitianOperator, shape, contraction_from_ginibre(g, rng.uniform(0.05, 1.0)))
