"""Strided gate kernel, QFT, permutation unitaries."""

import math

import numpy as np
import pytest

from seqmeas import GateSpec, PermutationAction, RegisterShape, basis_state, qft_matrix
from seqmeas.gates import HADAMARD, PAULI_X, _apply_gate_array, permutation_matrix
from seqmeas.sampling import random_pure_state, random_unitary


def _apply(psi, gate):
    """The kernel on a state's amplitudes."""
    return _apply_gate_array(psi.amplitudes, psi.shape.dims, gate)


def dense_gate_reference(gate: GateSpec, dims) -> np.ndarray:
    """The full operator a gate realises on registers `dims`, column by
    column from index arithmetic: basis state j is moved only where every
    control register holds its value, and then only on the target digits."""
    d = math.prod(dims)
    tdims = [dims[t] for t in gate.targets]
    out = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        digits = list(np.unravel_index(j, dims))
        if any(digits[r] != v for r, v in gate.controls):
            out[j, j] = 1.0
            continue
        col = np.ravel_multi_index([digits[t] for t in gate.targets], tdims)
        for row, values in enumerate(np.ndindex(*tdims)):
            for t, value in zip(gate.targets, values):
                digits[t] = value
            out[np.ravel_multi_index(digits, dims), j] = gate.matrix[row, col]
    return out


class TestGateSpecValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            GateSpec((0,), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_overlapping_target_control(self):
        with pytest.raises(ValueError):
            GateSpec((0,), PAULI_X, controls=((0, 1),))

    def test_rejects_bad_index_at_apply(self):
        psi = basis_state(RegisterShape((2,)), (0,))
        with pytest.raises(ValueError):
            _apply(psi, GateSpec((3,), PAULI_X))

    def test_rejects_bad_control_value(self):
        psi = basis_state(RegisterShape((2, 2)), (0, 0))
        with pytest.raises(ValueError):
            _apply(psi, GateSpec((0,), PAULI_X, controls=((1, 5),)))


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = _apply(basis_state(RegisterShape((2,)), (0,)), GateSpec((0,), HADAMARD))
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_controlled_x_control_not_satisfied(self):
        psi = basis_state(RegisterShape((2, 2)), (0, 1))
        out = _apply(psi, GateSpec((1,), PAULI_X, controls=((0, 1),)))
        np.testing.assert_allclose(out, psi.amplitudes)

    def test_controlled_x_control_satisfied(self):
        psi = basis_state(RegisterShape((2, 2)), (1, 0))
        out = _apply(psi, GateSpec((1,), PAULI_X, controls=((0, 1),)))
        np.testing.assert_allclose(out, basis_state(psi.shape, (1, 1)).amplitudes)

    def test_round_trip_identity_random_cases(self):
        shape = RegisterShape((2, 3, 2))
        for t in range(1000):
            rng = np.random.default_rng(t)
            psi = random_pure_state(rng, shape)
            target = int(rng.integers(3))
            gate = GateSpec((target,), random_unitary(rng, shape.dims[target]))
            out = _apply_gate_array(_apply(psi, gate), shape.dims, gate.inverse())
            assert np.abs(out - psi.amplitudes).max() <= 1e-10

    def test_norm_preservation(self):
        shape = RegisterShape((2, 2, 3))
        for t in range(100):
            rng = np.random.default_rng(5000 + t)
            psi = random_pure_state(rng, shape)
            gate = GateSpec((0, 2), random_unitary(rng, 6), controls=((1, 1),))
            assert abs(np.linalg.norm(_apply(psi, gate)) - 1.0) <= 1e-10

    def test_dense_path_equivalence(self):
        """Strided application equals the explicit dense operator, dims <= 64."""
        shape = RegisterShape((2, 2, 2, 2, 2, 2))
        for t in range(25):
            rng = np.random.default_rng(300 + t)
            psi = random_pure_state(rng, shape)
            targets = tuple(rng.choice(6, size=2, replace=False))
            free = [r for r in range(6) if r not in targets]
            ctrl = (int(rng.choice(free)), int(rng.integers(2)))
            gate = GateSpec(targets, random_unitary(rng, 4), controls=(ctrl,))
            expected = dense_gate_reference(gate, shape.dims) @ psi.amplitudes
            assert np.abs(_apply(psi, gate) - expected).max() <= 1e-10

    def test_multi_register_gate(self):
        shape = RegisterShape((2, 2))
        swap = np.eye(4)[[0, 2, 1, 3]]
        out = _apply(basis_state(shape, (0, 1)), GateSpec((0, 1), swap))
        np.testing.assert_allclose(out, basis_state(shape, (1, 0)).amplitudes)


class TestQft:
    def test_z2_is_hadamard(self):
        np.testing.assert_allclose(qft_matrix(2), HADAMARD, atol=1e-12)
        out = qft_matrix(2) @ basis_state(RegisterShape((2,)), (0,)).amplitudes
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_inverse_round_trip(self):
        psi = random_pure_state(np.random.default_rng(0), RegisterShape((5,)))
        q = qft_matrix(5)
        out = q.conj().T @ (q @ psi.amplitudes)
        assert np.abs(out - psi.amplitudes).max() <= 1e-10

    def test_z3_column_zero(self):
        out = qft_matrix(3) @ basis_state(RegisterShape((3,)), (0,)).amplitudes
        np.testing.assert_allclose(out, np.ones(3) / math.sqrt(3), atol=1e-12)

    def test_unitarity(self):
        for n in (2, 3, 5, 8):
            q = qft_matrix(n)
            np.testing.assert_allclose(q @ q.conj().T, np.eye(n), atol=1e-12)


class TestPermutationUnitary:
    def test_identity(self):
        np.testing.assert_allclose(permutation_matrix(PermutationAction.identity(3)), np.eye(3))

    def test_transposition_is_pauli_x(self):
        np.testing.assert_allclose(permutation_matrix(PermutationAction((1, 0))), PAULI_X)

    def test_bit_swap_on_four_labels(self):
        # labels of {0,1}^2 with bit swap: 01 (=1) -> 10 (=2)
        sigma = PermutationAction((0, 2, 1, 3))
        out = permutation_matrix(sigma) @ basis_state(RegisterShape((4,)), (1,)).amplitudes
        np.testing.assert_allclose(out, basis_state(RegisterShape((4,)), (2,)).amplitudes)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermutationAction((0, 0, 1))

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sigma = PermutationAction(tuple(rng.permutation(5)))
            tau = PermutationAction(tuple(rng.permutation(5)))
            composed = permutation_matrix(sigma.compose(tau))
            shape = RegisterShape((5,))
            for x in range(5):
                basis = basis_state(shape, (x,)).amplitudes
                via_product = permutation_matrix(sigma) @ (permutation_matrix(tau) @ basis)
                np.testing.assert_allclose(via_product, composed @ basis, atol=1e-12)
