"""Dense complex linear algebra over structured multi-register systems.

Provides the value types shared by every other module (pure states, density
operators, Hermitian operators, eigendecompositions) together with the basic
metric and reduction operations: pure-state trace distance, partial trace and
subsystem purity.  All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Construction tolerances.  States and operators are validated to 1e-10;
# decompositions (accumulated arithmetic) to 1e-8.
STATE_ATOL = 1e-10
DECOMP_ATOL = 1e-8


def _complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RegisterShape:
    """Ordered list of subsystem dimensions; the tensor structure of a system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("a register shape needs at least one register")
        if any(d < 2 for d in dims):
            raise ValueError(f"every register dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    def check_register(self, index: int) -> int:
        if not 0 <= index < len(self.dims):
            raise ValueError(f"register index {index} out of range for {self.dims}")
        return index

    def subset_dim(self, registers: Iterable[int]) -> int:
        return math.prod(self.dims[self.check_register(r)] for r in registers)


def qubit_shape(n: int) -> RegisterShape:
    return RegisterShape((2,) * n)


@dataclass(frozen=True)
class PureState:
    """Normalised complex amplitude vector over a :class:`RegisterShape`."""

    shape: RegisterShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _complex_array(self.amplitudes, ndim=1)
        if amps.size != self.shape.total_dim:
            raise ValueError(
                f"amplitude vector length {amps.size} does not match shape "
                f"{self.shape.dims} (total dim {self.shape.total_dim})"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_ATOL:
            raise ValueError(f"state is not normalised: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes viewed as a tensor with one axis per register."""
        return self.amplitudes.reshape(self.shape.dims)

    def overlap(self, other: "PureState") -> complex:
        if other.shape != self.shape:
            raise ValueError("overlap requires matching register shapes")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        return DensityOperator(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))

    def projector(self) -> "HermitianOperator":
        return HermitianOperator(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix together with the register structure it acts on."""

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_array(self.matrix, ndim=2)
        d = self.shape.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match total dim {d}")
        if np.abs(mat - mat.conj().T).max() > STATE_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, shape: RegisterShape) -> "HermitianOperator":
        return cls(shape, np.eye(shape.total_dim))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix (a mixed state)."""

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_array(self.matrix, ndim=2)
        d = self.shape.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match total dim {d}")
        if np.abs(mat - mat.conj().T).max() > STATE_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > STATE_ATOL or abs(np.trace(mat).imag) > STATE_ATOL:
            raise ValueError(f"density matrix trace is {np.trace(mat)!r}, expected 1")
        if np.linalg.eigvalsh(mat).min() < -STATE_ATOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def pure(cls, psi: PureState) -> "DensityOperator":
        return psi.density()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _canonical_phase(column: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first significant entry is real positive."""
    idx = np.flatnonzero(np.abs(column) > 1e-8)
    if idx.size == 0:
        return column
    pivot = column[idx[0]]
    return column * (abs(pivot) / pivot)


def eigendecompose(op: HermitianOperator | np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues sorted descending.

    Ties are broken deterministically by the lexicographic order of the
    phase-canonicalised eigenvectors, so repeated calls on the same input give
    identical output.
    """
    mat = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > STATE_ATOL:
        raise ValueError("cannot eigendecompose: matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(mat)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for j in range(v.shape[1]):
        v[:, j] = _canonical_phase(v[:, j])

    def _tie_key(j: int):
        col = v[:, j]
        return tuple(np.round(np.column_stack([col.real, col.imag]).ravel(), 9))

    order = sorted(range(w.size), key=lambda j: (-round(float(w[j]), 12), _tie_key(j)))
    w = w[order]
    v = v[:, order]
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(w, v)


def trace_distance_pure(a: PureState, b: PureState) -> float:
    """Trace distance between two pure states, sqrt(1 - |<a|b>|^2).

    The overlap is normalised by the (within-tolerance) state norms so that
    identical inputs give exactly 0.
    """
    fid = abs(a.overlap(b)) ** 2
    norms = float(np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real)
    return math.sqrt(max(0.0, 1.0 - fid / norms))


def trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between Hermitian matrices: half the sum of |eigenvalues| of a - b."""
    diff = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _split_registers(psi: PureState, keep: Sequence[int]) -> np.ndarray:
    """Amplitudes as a (dim_keep, dim_rest) matrix with `keep` registers first."""
    keep = [psi.shape.check_register(r) for r in keep]
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate register indices in subset")
    rest = [r for r in range(psi.shape.num_registers) if r not in keep]
    tensor = psi.tensor().transpose(keep + rest)
    d_keep = psi.shape.subset_dim(keep)
    return tensor.reshape(d_keep, -1)


def reduced_density(psi: PureState, registers: Iterable[int]) -> DensityOperator:
    """Partial trace of |psi><psi| down to the given registers."""
    keep = sorted(set(registers))
    if not keep or len(keep) >= psi.shape.num_registers:
        raise ValueError("subset must be proper and nonempty")
    m = _split_registers(psi, keep)
    rho = m @ m.conj().T
    sub_shape = RegisterShape(tuple(psi.shape.dims[r] for r in keep))
    return DensityOperator(sub_shape, rho)


def subsystem_purity(psi: PureState, registers: Iterable[int]) -> float:
    """tr(rho_S^2) for the reduced state on the given registers."""
    keep = sorted(set(registers))
    if not keep or len(keep) >= psi.shape.num_registers:
        raise ValueError("subset must be proper and nonempty")
    m = _split_registers(psi, keep)
    gram = m @ m.conj().T
    return float(np.sum(gram * gram.conj()).real)


# -- common state constructors ------------------------------------------------


def basis_state(shape: RegisterShape, labels: Sequence[int]) -> PureState:
    """Computational basis state |labels[0], labels[1], ...> on `shape`."""
    if len(labels) != shape.num_registers:
        raise ValueError("need one basis label per register")
    for r, v in enumerate(labels):
        if not 0 <= v < shape.dims[r]:
            raise ValueError(f"label {v} out of range for register {r}")
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    amps[int(np.ravel_multi_index(tuple(labels), shape.dims))] = 1.0
    return PureState(shape, amps)


def product_state(parts: Sequence[PureState]) -> PureState:
    """Tensor product of pure states, registers concatenated in order."""
    dims: list[int] = []
    amps = np.array([1.0], dtype=np.complex128)
    for p in parts:
        dims.extend(p.shape.dims)
        amps = np.kron(amps, p.amplitudes)
    return PureState(RegisterShape(tuple(dims)), amps)


def plus_state() -> PureState:
    return PureState(RegisterShape((2,)), np.array([1.0, 1.0]) / math.sqrt(2))


def bell_pair() -> PureState:
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1.0 / math.sqrt(2)
    return PureState(RegisterShape((2, 2)), amps)


def ghz_state(n_parts: int, dim: int = 2) -> PureState:
    if n_parts < 2:
        raise ValueError("GHZ state needs at least two parts")
    shape = RegisterShape((dim,) * n_parts)
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    for v in range(dim):
        amps[int(np.ravel_multi_index((v,) * n_parts, shape.dims))] = 1.0 / math.sqrt(dim)
    return PureState(shape, amps)
