"""Core state/operator types, eigendecomposition, distances, reductions."""

import math
from functools import reduce

import numpy as np
import pytest

from seqmeas import (
    DensityOperator,
    HermitianOperator,
    PureState,
    RegisterShape,
    basis_state,
    bell_pair,
    eigendecompose,
    ghz_state,
    plus_state,
    product_state,
    reduced_density,
    subsystem_purity,
    trace_distance_pure,
)
from seqmeas.gates import GateSpec
from seqmeas.measurement import NaimarkForm
from seqmeas.sampling import random_density_operator, random_projector, random_pure_state
from seqmeas.states import STATE_ATOL
from seqmeas.testers import UnitarySet, choi_state


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def _canonical_phase(column):
    idx = np.flatnonzero(np.abs(column) > 1e-8)
    if idx.size == 0:
        return column
    pivot = column[idx[0]]
    return column * (abs(pivot) / pivot)


def reference_eigendecompose(op):
    """The per-column loop eigendecompose that the vectorised one replaced."""
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
    return w[order], v[:, order]


def _reference_inputs():
    rng = np.random.default_rng(20)
    cases = []
    for d in (2, 3, 4, 8, 16, 32):
        cases += [pytest.param(random_hermitian(rng, d), id=f"hermitian-{d}-{i}") for i in range(4)]
    for d in range(2, 9):
        shape = RegisterShape((d,))
        for rank in range(d + 1):
            proj = random_projector(rng, shape, rank).matrix
            cases.append(pytest.param(proj, id=f"projector-{d}-rank{rank}"))
    phases = np.diag(np.exp(1j * np.arange(5)))
    cases += [
        pytest.param(np.eye(6), id="identity-6"),
        pytest.param(np.diag([0.5, 0.2, 0.5, 0.0, 0.2, 0.5, 0.0]), id="repeated-diagonal"),
        pytest.param(phases @ np.diag([2.0, 1.0, 2.0, 1.0, 3.0]) @ phases.conj().T, id="phases"),
    ]
    return cases


REFERENCE_INPUTS = _reference_inputs()


class TestRegisterShape:
    def test_total_dim(self):
        assert RegisterShape((2, 3, 4)).total_dim == 24

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            RegisterShape((2, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegisterShape(())


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(RegisterShape((2,)), np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            PureState(RegisterShape((2, 2)), np.array([1.0, 0.0]))

    def test_immutable(self):
        psi = plus_state()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityOperator:
    def test_pure_projector_valid(self):
        rho = bell_pair().density()
        assert rho.shape.total_dim == 4

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(RegisterShape((2,)), np.eye(2))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DensityOperator(RegisterShape((2,)), np.diag([1.5, -0.5]))


class TestEigendecompose:
    def test_identity_dim2(self):
        dec = eigendecompose(HermitianOperator.identity(RegisterShape((2,))))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_case(self):
        op = HermitianOperator(RegisterShape((2,)), np.diag([0.7, 0.3]))
        dec = eigendecompose(op)
        np.testing.assert_allclose(dec.eigenvalues, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        dec = eigendecompose(random_hermitian(rng, 6))
        assert (np.diff(dec.eigenvalues) <= 1e-12).all()

    def test_reconstruction_random_8x8(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 8)
        dec = eigendecompose(h)
        err = np.linalg.norm(dec.reconstruct() - h) / np.linalg.norm(h)
        assert err <= 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        dec = eigendecompose(random_hermitian(rng, 8))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        a, b = eigendecompose(h), eigendecompose(h)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("mat", REFERENCE_INPUTS)
    def test_matches_loop_reference_bit_for_bit(self, mat):
        # The phase |p|/p is divided per column as a scalar, as in the loop, so
        # eigenvectors are required bit-identical, not merely close.
        w_ref, v_ref = reference_eigendecompose(mat)
        dec = eigendecompose(mat)
        np.testing.assert_array_equal(dec.eigenvalues, w_ref)
        np.testing.assert_array_equal(dec.eigenvectors, v_ref)
        # The memory layout sets the summation order of later einsum calls.
        assert dec.eigenvectors.flags.f_contiguous == v_ref.flags.f_contiguous

    @pytest.mark.parametrize("mat", REFERENCE_INPUTS)
    def test_phase_and_tie_contract(self, mat):
        dec = eigendecompose(mat)
        v = dec.eigenvectors
        for j in range(v.shape[1]):
            pivot = v[np.flatnonzero(np.abs(v[:, j]) > 1e-8)[0], j]
            # p * (|p|/p) is real up to the rounding of one complex product.
            assert pivot.real > 0.0 and abs(pivot.imag) <= 4 * np.finfo(float).eps * abs(pivot)
        rounded = [round(float(x), 12) for x in dec.eigenvalues]
        assert all(a >= b for a, b in zip(rounded, rounded[1:]))
        keys = [tuple(np.round(np.column_stack([c.real, c.imag]).ravel(), 9)) for c in v.T]
        for j in range(v.shape[1] - 1):
            if rounded[j] == rounded[j + 1]:
                assert keys[j] <= keys[j + 1]

    def test_validated_operators_match_raw_arrays(self):
        rng = np.random.default_rng(4)
        shape = RegisterShape((6,))
        ops = [
            HermitianOperator(shape, random_hermitian(rng, 6)),
            random_density_operator(rng, shape, rank=3),
        ]
        for op in ops:
            a, b = eigendecompose(op), eigendecompose(np.array(op.matrix))
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


QUBIT = RegisterShape((2,))


def _entry_points(bad):
    """Each library entry point that validates a matrix or vector, fed one bad entry."""
    return {
        "PureState": lambda: PureState(QUBIT, np.array([1.0, bad])),
        "HermitianOperator": lambda: HermitianOperator(QUBIT, np.diag([bad, 0.0])),
        "DensityOperator": lambda: DensityOperator(QUBIT, np.array([[0.5, bad], [bad, 0.5]])),
        "eigendecompose": lambda: eigendecompose(np.array([[0.0, bad], [bad, 0.0]])),
        "NaimarkForm": lambda: NaimarkForm(QUBIT, (), np.diag([bad, 0.0])),
        "GateSpec": lambda: GateSpec((0,), np.diag([bad, 1.0])),
        "UnitarySet": lambda: UnitarySet((np.diag([1.0, bad]),)),
        "choi_state": lambda: choi_state(np.diag([bad, 1.0])),
    }


# PureState has always rejected an infinite entry through its norm, so only
# NaN is tested there.
NON_FINITE_CASES = [("nan", name) for name in _entry_points(np.nan)] + [
    (label, name)
    for label in ("+inf", "-inf")
    for name in _entry_points(np.inf)
    if name != "PureState"
]


@pytest.mark.parametrize("label,entry", NON_FINITE_CASES)
def test_non_finite_input_rejected(label, entry):
    bad = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[label]
    # inf - inf inside a check is NaN by design; numpy's warning about it is
    # silenced so that the ValueError is what the test sees.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        _entry_points(bad)[entry]()


class TestTraceDistance:
    def test_identical_states(self):
        psi = plus_state()
        assert trace_distance_pure(psi, psi) == 0.0

    def test_orthogonal_states(self):
        shape = RegisterShape((2,))
        assert trace_distance_pure(basis_state(shape, (0,)), basis_state(shape, (1,))) == 1.0

    def test_zero_vs_plus(self):
        shape = RegisterShape((2,))
        d = trace_distance_pure(basis_state(shape, (0,)), plus_state())
        assert abs(d - math.sqrt(0.5)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance_pure(plus_state(), bell_pair())

    def test_symmetry_and_triangle(self):
        shape = RegisterShape((2, 3))
        for t in range(50):
            rng = np.random.default_rng(100 + t)
            a, b, c = (random_pure_state(rng, shape) for _ in range(3))
            assert abs(trace_distance_pure(a, b) - trace_distance_pure(b, a)) <= 1e-9
            assert trace_distance_pure(a, c) <= (
                trace_distance_pure(a, b) + trace_distance_pure(b, c) + 1e-9
            )


class TestProductState:
    def test_matches_kron_fold_bit_for_bit(self):
        """The outer-product build equals the np.kron fold it replaced, to
        the bit, on real-amplitude parts (plus, basis, Bell, GHZ), complex
        random parts and multi-register shapes."""
        rng = np.random.default_rng(310)
        cases = [
            [plus_state(), random_pure_state(rng, RegisterShape((2, 3)))] * 3
            + [basis_state(RegisterShape((2,)), (0,))],
            [random_pure_state(rng, RegisterShape((3,))), bell_pair(), plus_state(), ghz_state(3)],
            [basis_state(RegisterShape((2, 2)), (1, 0)), random_pure_state(rng, RegisterShape((2, 2, 2)))],
            [random_pure_state(rng, RegisterShape((4,)))],
        ]
        for parts in cases:
            psi = product_state(parts)
            expected = reduce(np.kron, [p.amplitudes for p in parts], np.array([1.0], dtype=np.complex128))
            assert psi.shape.dims == sum((p.shape.dims for p in parts), ())
            assert psi.amplitudes.dtype == expected.dtype
            assert psi.amplitudes.tobytes() == expected.tobytes()


class TestSubsystemPurity:
    def test_product_state(self):
        psi = product_state([basis_state(RegisterShape((2,)), (0,)), plus_state()])
        assert abs(subsystem_purity(psi, {0}) - 1.0) <= 1e-10

    def test_bell_state(self):
        assert abs(subsystem_purity(bell_pair(), {0}) - 0.5) <= 1e-12

    def test_ghz(self):
        assert abs(subsystem_purity(ghz_state(3), {0}) - 0.5) <= 1e-12

    def test_complement_agreement(self):
        shape = RegisterShape((2, 3, 2))
        for t in range(30):
            psi = random_pure_state(np.random.default_rng(t), shape)
            assert abs(subsystem_purity(psi, {0, 2}) - subsystem_purity(psi, {1})) <= 1e-10

    def test_constructed_products_have_purity_one(self):
        for t in range(20):
            rng = np.random.default_rng(200 + t)
            a = random_pure_state(rng, RegisterShape((2, 2)))
            b = random_pure_state(rng, RegisterShape((3,)))
            psi = product_state([a, b])
            assert abs(subsystem_purity(psi, {0, 1}) - 1.0) <= 1e-10

    def test_rejects_empty_and_full(self):
        psi = bell_pair()
        with pytest.raises(ValueError):
            subsystem_purity(psi, set())
        with pytest.raises(ValueError):
            subsystem_purity(psi, {0, 1})


class TestReducedDensity:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = reduced_density(bell_pair(), {0})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        psi = random_pure_state(np.random.default_rng(5), RegisterShape((2, 2, 3)))
        rho = reduced_density(psi, {1, 2})
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
