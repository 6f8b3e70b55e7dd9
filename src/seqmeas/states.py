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

# Construction tolerance: states and operators are validated to 1e-10.
STATE_ATOL = 1e-10


def _complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def is_hermitian(mat: np.ndarray) -> bool:
    """Whether mat equals its conjugate transpose to STATE_ATOL (a non-finite entry fails)."""
    return bool(np.abs(mat - mat.conj().T).max() <= STATE_ATOL)


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
        if not abs(norm - 1.0) <= STATE_ATOL:
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


def _hermitian_matrix(shape: RegisterShape, values) -> np.ndarray:
    """A read-only complex copy of `values`, checked (d, d) for the shape and Hermitian."""
    mat = _complex_array(values, ndim=2)
    d = shape.total_dim
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match total dim {d}")
    if not is_hermitian(mat):
        raise ValueError("matrix is not Hermitian within tolerance")
    return mat


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix together with the register structure it acts on."""

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _hermitian_matrix(self.shape, self.matrix))

    @classmethod
    def identity(cls, shape: RegisterShape) -> "HermitianOperator":
        return cls(shape, np.eye(shape.total_dim))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix (a mixed state)."""

    shape: RegisterShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = _hermitian_matrix(self.shape, self.matrix)
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


def eigendecompose(op: HermitianOperator | DensityOperator | np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues sorted descending.

    Each eigenvector's first entry of modulus above 1e-8 is real positive.
    Columns whose eigenvalues agree rounded to 12 decimals are sorted stably
    by their entries rounded to 9 decimals as interleaved (re, im) pairs,
    compared lexicographically.  A HermitianOperator or DensityOperator is
    trusted; any other input must be square and Hermitian to STATE_ATOL.
    """
    if isinstance(op, (HermitianOperator, DensityOperator)):
        mat = op.matrix
    else:
        mat = np.asarray(op, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not is_hermitian(mat):
            raise ValueError("cannot eigendecompose: matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(mat)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # |p|/p is divided as a scalar: the array ufunc differs in the last bit.
    pivots = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(w.size)]
    v *= np.array([abs(p) / p for p in pivots])
    # eigh sorts its eigenvalues, so each degenerate cluster is a contiguous run.
    rounded = np.array([round(x, 12) for x in w.tolist()])
    edges = [0, *(np.flatnonzero(np.diff(rounded)) + 1).tolist(), w.size]
    order = np.arange(w.size)
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start > 1:
            cluster = v[:, start:stop]
            pairs = np.stack([cluster.real, cluster.imag], axis=1).reshape(-1, stop - start)
            order[start:stop] = start + np.lexsort(np.round(pairs, 9)[::-1])
    # Always index: the copy's layout sets the summation order of later einsums.
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


def _split_registers(psi: PureState, registers: Iterable[int]) -> tuple[list[int], np.ndarray]:
    """The sorted proper subset `keep`, and the amplitudes as a (dim_keep, dim_rest) matrix."""
    keep = sorted(set(psi.shape.check_register(r) for r in registers))
    if not keep or len(keep) >= psi.shape.num_registers:
        raise ValueError("subset must be proper and nonempty")
    rest = [r for r in range(psi.shape.num_registers) if r not in keep]
    tensor = psi.tensor().transpose(keep + rest)
    return keep, tensor.reshape(psi.shape.subset_dim(keep), -1)


def reduced_density(psi: PureState, registers: Iterable[int]) -> DensityOperator:
    """Partial trace of |psi><psi| down to the given registers."""
    keep, m = _split_registers(psi, registers)
    rho = m @ m.conj().T
    sub_shape = RegisterShape(tuple(psi.shape.dims[r] for r in keep))
    return DensityOperator(sub_shape, rho)


def subsystem_purity(psi: PureState, registers: Iterable[int]) -> float:
    """tr(rho_S^2) for the reduced state on the given registers."""
    _, m = _split_registers(psi, registers)
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
