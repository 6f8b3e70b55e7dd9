"""Dense complex linear algebra over structured multi-register systems.

Provides the value types shared by every other module (pure states, density
operators, Hermitian operators, eigendecompositions) together with the basic
metric and reduction operations: pure-state trace distance, partial trace and
subsystem purity.  All values are immutable after construction and all
operations are pure functions.  The array checks (:func:`hermitian_stack`,
:func:`state_stack`) and the scalar ones (:func:`check_integer` for counts,
sizes, indices and labels, :func:`check_interval` for epsilon and eta) of
every module live here too.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# Construction tolerance: states and operators are validated to 1e-10.
STATE_ATOL = 1e-10


def _complex_array(values, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only complex128 copy of `values`, checked to have `shape`."""
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"array shape {arr.shape} does not match the register shape's {shape}")
    arr.setflags(write=False)
    return arr


def is_hermitian(mat: np.ndarray) -> bool | np.ndarray:
    """Whether mat equals its conjugate transpose to STATE_ATOL (a non-finite
    entry fails); for a stack of matrices, one bool per slice."""
    ok = np.abs(mat - np.swapaxes(mat.conj(), -1, -2)).max(axis=(-2, -1)) <= STATE_ATOL
    return bool(ok) if mat.ndim == 2 else ok


def check_slices(ok: np.ndarray, name: str, problem: str) -> None:
    """Raise ValueError "<name> [i of the stack ]is <problem>" for the first
    slice i of a stack where `ok` is False (the index is left out for a
    stack of one)."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        which = name if ok.size == 1 else f"{name} {bad[0]} of the stack"
        raise ValueError(f"{which} is {problem}")


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int (what ``operator.index`` takes), at least `minimum` if
    given; a bool, a numpy bool, a float (integral too) or a string fails."""
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def real_fraction(x) -> Fraction | None:
    """x as an exact fraction (a float by its exact binary value), or None
    for a bool, a value that is not a real number and a non-finite float."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        return None
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(x) if math.isfinite(x := float(x)) else None


def check_interval(value, name: str, low, high, *, open_low: bool = False) -> Fraction:
    """`value` as an exact fraction in [low, high], or (low, high] if `open_low`."""
    frac = real_fraction(value)
    if frac is None or not (low < frac if open_low else low <= frac) or frac > high:
        raise ValueError(f"{name} must lie in {'(' if open_low else '['}{low}, {high}], got {value!r}")
    return frac


@dataclass(frozen=True)
class RegisterShape:
    """Ordered list of subsystem dimensions; the tensor structure of a system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(check_integer(d, "register dimension") for d in self.dims)
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
        index = check_integer(index, "register index")
        if not 0 <= index < len(self.dims):
            raise ValueError(f"register index {index} out of range for {self.dims}")
        return index

    def subset_dim(self, registers: Iterable[int]) -> int:
        return math.prod(self.dims[self.check_register(r)] for r in registers)


@dataclass(frozen=True)
class PureState:
    """Normalised complex amplitude vector over a :class:`RegisterShape`."""

    shape: RegisterShape
    amplitudes: np.ndarray

    def _store(self):
        object.__setattr__(self, "amplitudes", _complex_array(self.amplitudes, (self.shape.total_dim,)))

    def __post_init__(self):
        self._store()
        state_stack(self.amplitudes[None])

    def tensor(self) -> np.ndarray:
        """Amplitudes viewed as a tensor with one axis per register."""
        return self.amplitudes.reshape(self.shape.dims)

    def overlap(self, other: "PureState") -> complex:
        if other.shape != self.shape:
            raise ValueError("overlap requires matching register shapes")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        return _trusted(DensityOperator, self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))

    def projector(self) -> "HermitianOperator":
        return _trusted(HermitianOperator, self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix together with the register structure it acts on."""

    shape: RegisterShape
    matrix: np.ndarray

    def _store(self):
        object.__setattr__(self, "matrix", _complex_array(self.matrix, (self.shape.total_dim,) * 2))

    def __post_init__(self):
        self._store()
        hermitian_stack(self.matrix[None])

    @classmethod
    def identity(cls, shape: RegisterShape) -> "HermitianOperator":
        return _trusted(cls, shape, np.eye(shape.total_dim))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix (a mixed state)."""

    shape: RegisterShape
    matrix: np.ndarray

    _store = HermitianOperator._store

    def __post_init__(self):
        self._store()
        state_stack(self.matrix[None])


def _trusted(cls, *values):
    """The value type `cls` from all its field values, in order, for data the
    package built from checked data (valid by construction): ``cls._store``
    keeps the storage invariants, the checks of ``__post_init__`` are skipped."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    obj._store()
    return obj


def check_state(value, name: str, *kinds: type) -> None:
    """The type check of every entry point that takes a state: ValueError,
    naming `name` and its type, unless `value` is one of `kinds` (default: any state)."""
    kinds = kinds or (PureState, DensityOperator)
    if not isinstance(value, kinds):
        raise ValueError(f"{name} must be a {' or '.join(k.__name__ for k in kinds)}, got {type(value).__name__}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    A stack carries a leading batch axis: eigenvalues (b, d), eigenvectors
    (b, d, d), one decomposition per row.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def hermitian_stack(values, name: str = "matrix") -> np.ndarray:
    """`values` as a complex (b, d, d) stack, b, d >= 1, every slice Hermitian
    to STATE_ATOL; a non-finite entry fails."""
    mats = np.asarray(values, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or 0 in mats.shape:
        plural = "matrices" if name == "matrix" else f"{name}s"
        raise ValueError(f"expected a (b, d, d) stack of {plural}, got shape {mats.shape}")
    check_slices(is_hermitian(mats), name, "not Hermitian within tolerance")
    return mats


def state_stack(values) -> np.ndarray:
    """`values` as a complex stack of states: (b, d) unit vectors (pure) or
    (b, d, d) density matrices (Hermitian, unit trace, no eigenvalue below
    -STATE_ATOL), with b, d >= 1."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim == 2 and 0 not in arr.shape:
        norm_ok = np.abs(np.linalg.norm(arr, axis=1) - 1.0) <= STATE_ATOL
        check_slices(norm_ok, "state", "not normalised")
        return arr
    if arr.ndim != 3:
        raise ValueError(f"expected a (b, d) or (b, d, d) stack of states, got shape {arr.shape}")
    arr = hermitian_stack(arr, "state")
    trace_ok = np.abs(np.trace(arr, axis1=1, axis2=2) - 1.0) <= STATE_ATOL
    check_slices(trace_ok, "state", "not of unit trace")
    check_slices(np.linalg.eigvalsh(arr).min(axis=1) >= -STATE_ATOL, "state", "not positive semidefinite")
    return arr


def _canonical_eigh(mats: np.ndarray) -> EigenDecomposition:
    """The canonical decomposition of each slice of a trusted Hermitian
    (b, d, d) stack: one ``eigh`` on the stack, then the per-matrix
    conventions of :func:`eigendecompose`."""
    w, v = np.linalg.eigh(mats)
    w = w[:, ::-1].copy()
    v = v[:, :, ::-1].copy()
    b, d = w.shape
    rows = np.arange(b)[:, None]
    pivots = v[rows, np.argmax(np.abs(v) > 1e-8, axis=1), np.arange(d)]
    # |p|/p is divided as a scalar: the array ufunc differs in the last bit.
    v *= np.array([abs(p) / p for p in pivots.ravel()]).reshape(b, 1, d)
    # eigh sorts its eigenvalues, so each degenerate cluster is a contiguous
    # run; values equal rounded to 12 decimals differ by less than 1e-11.
    order = np.tile(np.arange(d), (b, 1))
    for r in np.flatnonzero((np.diff(w, axis=1) > -1e-11).any(axis=1)):
        rounded = np.array([round(x, 12) for x in w[r].tolist()])
        edges = [0, *(np.flatnonzero(np.diff(rounded)) + 1).tolist(), d]
        for start, stop in zip(edges[:-1], edges[1:]):
            if stop - start > 1:
                cluster = v[r, :, start:stop]
                pairs = np.stack([cluster.real, cluster.imag], axis=1).reshape(-1, stop - start)
                order[r, start:stop] = start + np.lexsort(np.round(pairs, 9)[::-1])
    # Always copy, each slice's columns contiguous (Fortran order): the layout
    # sets the summation order of later einsums.
    w = w[rows, order]
    v = np.swapaxes(np.swapaxes(v, 1, 2)[rows, order], 1, 2)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(w, v)


def eigendecompose_stack(mats) -> EigenDecomposition:
    """Eigendecompose each slice of a (b, d, d) stack of Hermitian matrices.

    One ``eigh`` call on the whole stack, then per slice the conventions of
    :func:`eigendecompose`; row i of the result equals ``eigendecompose``
    of slice i bit for bit.  Every slice must be Hermitian to STATE_ATOL.
    """
    return _canonical_eigh(hermitian_stack(mats))


def eigendecompose(op: HermitianOperator | DensityOperator | np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues sorted descending.

    Each eigenvector's first entry of modulus above 1e-8 is real positive.
    Columns whose eigenvalues agree rounded to 12 decimals are sorted stably
    by their entries rounded to 9 decimals as interleaved (re, im) pairs,
    compared lexicographically.  A HermitianOperator or DensityOperator is
    trusted; any other input must be square and Hermitian to STATE_ATOL.
    The single matrix is a stack of one for :func:`eigendecompose_stack`'s
    core.
    """
    if isinstance(op, (HermitianOperator, DensityOperator)):
        mats = op.matrix[None]
    else:
        mats = hermitian_stack(np.asarray(op)[None])
    dec = _canonical_eigh(mats)
    return EigenDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])


def trace_distance_pure(a: PureState, b: PureState) -> float:
    """Trace distance between two pure states, sqrt(1 - |<a|b>|^2).

    The overlap is normalised by the (within-tolerance) state norms so that
    identical inputs give exactly 0.
    """
    fid = abs(a.overlap(b)) ** 2
    norms = float(np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real)
    return math.sqrt(max(0.0, 1.0 - fid / norms))


def trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Trace distance between Hermitian matrices: half the sum of |eigenvalues|
    of a - b; for stacks of matrices, one distance per slice."""
    diff = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return float(dist) if diff.ndim == 2 else dist


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
    return _trusted(DensityOperator, sub_shape, rho)


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
    labels = tuple(check_integer(v, "basis label") for v in labels)
    for r, v in enumerate(labels):
        if not 0 <= v < shape.dims[r]:
            raise ValueError(f"label {v} out of range for register {r}")
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    amps[int(np.ravel_multi_index(labels, shape.dims))] = 1.0
    return _trusted(PureState, shape, amps)


def product_state(parts: Sequence[PureState]) -> PureState:
    """Tensor product of pure states, registers concatenated in order."""
    dims: list[int] = []
    amps = np.array([1.0], dtype=np.complex128)
    for p in parts:
        dims.extend(p.shape.dims)
        amps = np.multiply.outer(amps, p.amplitudes).reshape(-1)
    return _trusted(PureState, RegisterShape(tuple(dims)), amps)


def plus_state() -> PureState:
    return _trusted(PureState, RegisterShape((2,)), np.array([1.0, 1.0]) / math.sqrt(2))


def bell_pair() -> PureState:
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1.0 / math.sqrt(2)
    return _trusted(PureState, RegisterShape((2, 2)), amps)


def ghz_state(n_parts: int, dim: int = 2) -> PureState:
    if check_integer(n_parts, "n_parts") < 2:
        raise ValueError("GHZ state needs at least two parts")
    shape = RegisterShape((dim,) * n_parts)
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    for v in range(dim):
        amps[int(np.ravel_multi_index((v,) * n_parts, shape.dims))] = 1.0 / math.sqrt(dim)
    return _trusted(PureState, shape, amps)
