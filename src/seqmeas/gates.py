"""Unitaries of the procedures, and a strided gate kernel for circuit checks.

The procedures take the unitarity predicate, basis permutations
(:class:`PermutationAction`, :func:`permutation_matrix`) and the Z_n Fourier
matrix from here.  :class:`GateSpec` and :func:`_apply_gate_array` apply a
(controlled) gate by striding over the amplitude tensor (transpose, reshape,
one matmul on the target axes) instead of building the full operator; no
procedure calls them, and the tests use them as the gate-circuit reference
of the interference test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import check_integer

UNITARY_ATOL = 1e-10


def is_unitary(mat: np.ndarray) -> bool | np.ndarray:
    """Whether U @ U^dagger = I to UNITARY_ATOL (a non-finite entry fails);
    for a stack of matrices, one bool per slice."""
    ok = np.abs(mat @ np.swapaxes(mat.conj(), -1, -2) - np.eye(mat.shape[-1])).max(axis=(-2, -1)) <= UNITARY_ATOL
    return bool(ok) if mat.ndim == 2 else ok


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
        targets = tuple(check_integer(t, "target register") for t in self.targets)
        controls = tuple(
            (check_integer(r, "control register"), check_integer(v, "control value")) for r, v in self.controls
        )
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


# -- standard gate constructors ----------------------------------------------

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def qft_matrix(n: int) -> np.ndarray:
    """Quantum Fourier transform over Z_n: Q|j> = n^{-1/2} sum_k exp(2 pi i jk/n)|k>."""
    if check_integer(n, "QFT dimension") < 1:
        raise ValueError("QFT dimension must be >= 1")
    j = np.arange(n)
    return np.exp(2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


@dataclass(frozen=True)
class PermutationAction:
    """A bijection on basis labels {0, ..., n-1}, stored as its image list."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(check_integer(x, "permutation image") for x in self.mapping)
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

