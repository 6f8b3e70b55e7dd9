"""Structured unitary application on multi-register pure states.

Gates are applied by striding over the amplitude tensor (transpose, reshape,
one matmul on the target axes) instead of building the full operator, which
keeps ~20-qubit tester circuits cheap.  Dense operators never appear unless a
caller explicitly asks for one via :func:`dense_gate_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import PureState, RegisterShape, _trusted

UNITARY_ATOL = 1e-10


def is_unitary(mat: np.ndarray) -> bool:
    """Whether U @ U^dagger = I to UNITARY_ATOL (a non-finite entry fails)."""
    return bool(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max() <= UNITARY_ATOL)


@dataclass(frozen=True)
class GateSpec:
    """A unitary on some target registers, optionally controlled.

    Controls are (register, value) pairs: the unitary acts only on the
    amplitude slice where every control register holds its control value.
    """

    targets: tuple[int, ...]
    matrix: np.ndarray
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        controls = tuple((int(r), int(v)) for r, v in self.controls)
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {mat.shape}")
        if not is_unitary(mat):
            raise ValueError("gate matrix is not unitary within tolerance")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target registers")
        ctrl_regs = [r for r, _ in controls]
        if len(set(ctrl_regs)) != len(ctrl_regs):
            raise ValueError("duplicate control registers")
        if set(targets) & set(ctrl_regs):
            raise ValueError("targets and controls must be disjoint")
        mat.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "controls", controls)

    def inverse(self) -> "GateSpec":
        return GateSpec(self.targets, self.matrix.conj().T, self.controls)


def _apply_gate_array(amps: np.ndarray, dims: Sequence[int], gate: GateSpec) -> np.ndarray:
    """Apply `gate` to a raw amplitude array (no normalisation checks)."""
    n = len(dims)
    for t in gate.targets:
        if not 0 <= t < n:
            raise ValueError(f"target register {t} out of range")
    for r, v in gate.controls:
        if not 0 <= r < n:
            raise ValueError(f"control register {r} out of range")
        if not 0 <= v < dims[r]:
            raise ValueError(f"control value {v} out of range for register {r}")
    tdim = math.prod(dims[t] for t in gate.targets)
    if gate.matrix.shape != (tdim, tdim):
        raise ValueError(
            f"gate matrix dim {gate.matrix.shape[0]} does not match target dims "
            f"{[dims[t] for t in gate.targets]}"
        )
    arr = amps.reshape(tuple(dims)).copy()
    ctrl_axes = tuple(r for r, _ in gate.controls)
    rest = tuple(a for a in range(n) if a not in ctrl_axes and a not in gate.targets)
    view = arr.transpose(ctrl_axes + rest + gate.targets)
    sel = view[tuple(v for _, v in gate.controls)]
    sel_shape = sel.shape
    sel[...] = (sel.reshape(-1, tdim) @ gate.matrix.T).reshape(sel_shape)
    return arr.reshape(-1)


def apply_gate(state: PureState, gate: GateSpec) -> PureState:
    return _trusted(PureState, state.shape, _apply_gate_array(state.amplitudes, state.shape.dims, gate))


def apply_gates(state: PureState, gates: Iterable[GateSpec]) -> PureState:
    amps = state.amplitudes
    for g in gates:
        amps = _apply_gate_array(amps, state.shape.dims, g)
    return _trusted(PureState, state.shape, amps)


def dense_gate_matrix(gate: GateSpec, shape: RegisterShape) -> np.ndarray:
    """The full operator a gate realises on `shape`.  Test/diagnostic use only."""
    d = shape.total_dim
    out = np.zeros((d, d), dtype=np.complex128)
    basis = np.eye(d, dtype=np.complex128)
    for j in range(d):
        out[:, j] = _apply_gate_array(basis[:, j], shape.dims, gate)
    return out


# -- standard gate constructors ----------------------------------------------

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def qft_matrix(n: int) -> np.ndarray:
    """Quantum Fourier transform over Z_n: Q|j> = n^{-1/2} sum_k exp(2 pi i jk/n)|k>."""
    if n < 1:
        raise ValueError("QFT dimension must be >= 1")
    j = np.arange(n)
    return np.exp(2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def qft_zn(state: PureState, register: int, inverse: bool = False) -> PureState:
    """Apply the Z_n Fourier transform (or its inverse) to one register."""
    register = state.shape.check_register(register)
    q = qft_matrix(state.shape.dims[register])
    if inverse:
        q = q.conj().T
    return apply_gate(state, GateSpec((register,), q))


@dataclass(frozen=True)
class PermutationAction:
    """A bijection on basis labels {0, ..., n-1}, stored as its image list."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(x) for x in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a bijection on 0..{len(mapping) - 1}: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def size(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, n: int) -> "PermutationAction":
        return cls(tuple(range(n)))

    def inverse(self) -> "PermutationAction":
        inv = [0] * len(self.mapping)
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return PermutationAction(tuple(inv))

    def compose(self, other: "PermutationAction") -> "PermutationAction":
        """self after other: x -> self(other(x))."""
        if other.size != self.size:
            raise ValueError("permutation sizes differ")
        return PermutationAction(tuple(self.mapping[other.mapping[x]] for x in range(self.size)))


def permutation_matrix(sigma: PermutationAction) -> np.ndarray:
    """The unitary |x> -> |sigma(x)>, for every basis permutation of the testers."""
    n = sigma.size
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[sigma.mapping, np.arange(n)] = 1.0
    return mat


def permutation_unitary(sigma: PermutationAction, register: int) -> GateSpec:
    """Gate mapping basis state |x> of one register to |sigma(x)>."""
    return GateSpec((register,), permutation_matrix(sigma))
