"""Collapse semantics, gentle measurement, union bound, Naimark forms, anti-Zeno."""

import math

import numpy as np
import pytest

from seqmeas import (
    HermitianOperator,
    NaimarkForm,
    RegisterShape,
    TwoOutcomeMeasurement,
    accept_probability,
    anti_zeno_accept_ever,
    anti_zeno_sequence,
    anti_zeno_state,
    basis_state,
    build_averaged_naimark,
    eigendecompose,
    gentle_measurement_gap,
    measure_collapse,
    measure_register_collapse,
    one_ancilla_dilation,
    plus_state,
    trivial_naimark,
    union_bound_bruteforce,
)
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
)

QUBIT = RegisterShape((2,))


def proj(vec: np.ndarray, shape=QUBIT) -> HermitianOperator:
    return HermitianOperator(shape, np.outer(vec, vec.conj()))


class TestAcceptProbability:
    def test_eigenstate(self):
        m = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])), is_projector=True)
        assert accept_probability(m, basis_state(QUBIT, (0,))) == 1.0

    def test_born_rule_half(self):
        m = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])), is_projector=True)
        assert abs(accept_probability(m, plus_state()) - 0.5) <= 1e-12

    def test_anti_zeno_step(self):
        n = 16
        seq = anti_zeno_sequence(n)
        for k in range(n):
            p = accept_probability(seq[k], anti_zeno_state(n, k))
            assert abs(p - (1.0 - math.cos(math.pi / (2 * n)) ** 2)) <= 1e-12

    def test_povm_range_validated(self):
        with pytest.raises(ValueError):
            TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([1.5, 0.0])))

    def test_projector_flag_validated(self):
        with pytest.raises(ValueError):
            TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])), is_projector=True)


class TestMeasureCollapse:
    def test_certain_branch(self):
        p = proj(np.array([1.0, 0.0]))
        outcome, prob, residual = measure_collapse(
            TwoOutcomeMeasurement.projector(p), basis_state(QUBIT, (0,)), branch=1
        )
        assert outcome == 1 and prob == 1.0
        np.testing.assert_allclose(residual.amplitudes, [1.0, 0.0])

    def test_collapse_to_complement(self):
        p = proj(np.array([1.0, 0.0]))
        outcome, prob, residual = measure_collapse(
            TwoOutcomeMeasurement.projector(p), plus_state(), branch=0
        )
        assert outcome == 0 and abs(prob - 0.5) <= 1e-12
        np.testing.assert_allclose(residual.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_anti_zeno_reject_residual(self):
        # rejecting measurement M_{k+1} = seq[k] on |psi_k> leaves |psi_{k+1}>
        n = 32
        seq = anti_zeno_sequence(n)
        state = anti_zeno_state(n, 3)
        _, _, residual = measure_collapse(seq[3], state, branch=0)
        target = anti_zeno_state(n, 4)
        assert abs(abs(residual.overlap(target)) - 1.0) <= 1e-10

    def test_branch_probabilities_sum(self):
        rng = np.random.default_rng(0)
        shape = RegisterShape((4,))
        psi = random_pure_state(rng, shape)
        p = random_projector(rng, shape, rank=2)
        _, p1, _ = measure_collapse(TwoOutcomeMeasurement.projector(p), psi, branch=1)
        _, p0, _ = measure_collapse(TwoOutcomeMeasurement.projector(p), psi, branch=0)
        assert abs(p0 + p1 - 1.0) <= 1e-12

    def test_residuals_orthogonal(self):
        rng = np.random.default_rng(1)
        shape = RegisterShape((4,))
        psi = random_pure_state(rng, shape)
        p = random_projector(rng, shape, rank=2)
        _, _, r1 = measure_collapse(TwoOutcomeMeasurement.projector(p), psi, branch=1)
        _, _, r0 = measure_collapse(TwoOutcomeMeasurement.projector(p), psi, branch=0)
        assert abs(r1.overlap(r0)) <= 1e-10

    def test_zero_branch_rejected(self):
        p = proj(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            measure_collapse(
                TwoOutcomeMeasurement.projector(p), basis_state(QUBIT, (0,)), branch=0
            )

    def test_requires_projector(self):
        with pytest.raises(ValueError):
            measure_collapse(HermitianOperator(QUBIT, np.diag([0.5, 0.0])), plus_state(), branch=1)

    def test_requires_projector_flag(self):
        # The operator is a projector, but only the flag says it was checked.
        unflagged = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])))
        with pytest.raises(ValueError):
            measure_collapse(unflagged, plus_state(), branch=1)

    def test_register_collapse_matches_dense(self):
        shape = RegisterShape((2, 3))
        rng = np.random.default_rng(2)
        psi = random_pure_state(rng, shape)
        dense = HermitianOperator(shape, np.kron(np.eye(2), np.diag([0.0, 1.0, 0.0])))
        for_dense = measure_collapse(TwoOutcomeMeasurement.projector(dense), psi, branch=1)
        structured = measure_register_collapse(psi, 1, branch=1)
        assert abs(for_dense[1] - structured[1]) <= 1e-12
        np.testing.assert_allclose(
            structured[2].amplitudes, for_dense[2].amplitudes, atol=1e-12
        )


class TestGentleMeasurement:
    def test_undisturbed(self):
        rho = basis_state(QUBIT, (0,)).density()
        lhs, rhs = gentle_measurement_gap(rho, proj(np.array([1.0, 0.0])))
        assert lhs <= 1e-10 and rhs <= 1e-10

    def test_equality_case(self):
        lhs, rhs = gentle_measurement_gap(plus_state().density(), proj(np.array([1.0, 0.0])))
        assert abs(lhs - 1 / math.sqrt(2)) <= 1e-10
        assert abs(rhs - 1 / math.sqrt(2)) <= 1e-10

    def test_randomized_inequality_sweep(self):
        for t in range(1000):
            rng = np.random.default_rng(t)
            dim = int(rng.integers(2, 9))
            shape = RegisterShape((dim,))
            rho = random_density_operator(rng, shape)
            lam = random_povm_contraction(rng, shape)
            try:
                lhs, rhs = gentle_measurement_gap(rho, lam)
            except ValueError:
                continue  # tr(L rho) numerically zero
            assert lhs <= rhs + 1e-10

    def test_zero_acceptance_rejected(self):
        rho = basis_state(QUBIT, (1,)).density()
        with pytest.raises(ValueError):
            gentle_measurement_gap(rho, proj(np.array([1.0, 0.0])))


class TestUnionBound:
    def test_single_measurement(self):
        rng = np.random.default_rng(3)
        shape = RegisterShape((4,))
        psi = random_pure_state(rng, shape)
        p = random_projector(rng, shape, rank=1)
        m = TwoOutcomeMeasurement(p, is_projector=True)
        eps = accept_probability(m, psi)
        res = union_bound_bruteforce([m], psi)
        assert abs(res.p_any_one - eps) <= 1e-12
        assert res.p_any_one <= res.bound

    def test_zero_operators(self):
        zero = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.zeros((2, 2))), is_projector=True)
        res = union_bound_bruteforce([zero] * 4, plus_state())
        assert res.p_any_one == 0.0

    def test_anti_zeno_closed_form(self):
        n = 8
        res = union_bound_bruteforce(
            anti_zeno_sequence(n), basis_state(QUBIT, (0,)), epsilon=math.sin(math.pi / 16) ** 2
        )
        assert abs(res.p_any_one - anti_zeno_accept_ever(n)) <= 1e-10
        assert abs(res.p_any_one - 0.2669) <= 1e-3
        assert res.p_any_one <= res.bound

    def test_trajectory_probabilities_sum_to_one(self):
        for t in range(25):
            rng = np.random.default_rng(400 + t)
            dim = int(rng.integers(2, 9))
            shape = RegisterShape((dim,))
            t_steps = int(rng.integers(1, 7))
            ms = [
                TwoOutcomeMeasurement(
                    random_projector(rng, shape, rank=int(rng.integers(1, dim))),
                    is_projector=True,
                )
                for _ in range(t_steps)
            ]
            rho = random_density_operator(rng, shape)
            res = union_bound_bruteforce(ms, rho)
            assert abs(sum(r.probability for r in res.trajectories) - 1.0) <= 1e-9
            assert res.p_any_one <= res.bound + 1e-9

    def test_enumeration_cap(self):
        zero = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.zeros((2, 2))), is_projector=True)
        with pytest.raises(ValueError):
            union_bound_bruteforce([zero] * 13, plus_state())

    def test_rejects_povm_sequences(self):
        soft = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError):
            union_bound_bruteforce([soft], plus_state())


class TestNaimarkForms:
    @pytest.mark.parametrize(
        "ancilla_dims,pi,match",
        [
            pytest.param((), np.array([[0.0, 1.0], [0.0, 0.0]]), "Hermitian", id="non-hermitian"),
            pytest.param((), np.diag([0.5, 0.0]), "projector", id="non-idempotent"),
            pytest.param((), np.eye(3), "shape", id="wrong-shape"),
            pytest.param((2,), np.eye(2), "shape", id="wrong-shape-with-ancilla"),
            # idempotent to PROJECTOR_ATOL, yet its induced L exceeds 1 + POVM_RANGE_ATOL
            pytest.param((), np.diag([1.0 + 5e-9, 0.0]), "induced", id="induced-above-one"),
        ],
    )
    def test_rejects_bad_pi(self, ancilla_dims, pi, match):
        with pytest.raises(ValueError, match=match):
            NaimarkForm(QUBIT, ancilla_dims, pi)

    def test_single_measurement_padding(self):
        p = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])), is_projector=True)
        nf = build_averaged_naimark([p])
        assert nf.ancilla_dims == (2,)
        zero = np.zeros((2, 2))
        zero[0, 0] = 1.0
        np.testing.assert_allclose(
            nf.delta @ nf.pi @ nf.delta, np.kron(p.accept_op.matrix, zero), atol=1e-12
        )

    def test_two_orthogonal_projectors_average(self):
        m0 = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])), is_projector=True)
        m1 = TwoOutcomeMeasurement(proj(np.array([0.0, 1.0])), is_projector=True)
        nf = build_averaged_naimark([m0, m1])
        np.testing.assert_allclose(nf.induced_operator().matrix, np.eye(2) / 2, atol=1e-8)

    def test_identical_measurements_average_to_themselves(self):
        p = TwoOutcomeMeasurement(proj(np.array([1.0, 0.0])), is_projector=True)
        nf = build_averaged_naimark([p, p])
        np.testing.assert_allclose(nf.induced_operator().matrix, p.accept_op.matrix, atol=1e-8)

    def test_projector_invariants(self):
        rng = np.random.default_rng(7)
        shape = RegisterShape((4,))
        ms = [
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=2), is_projector=True)
            for _ in range(3)
        ]
        nf = build_averaged_naimark(ms)
        np.testing.assert_allclose(nf.pi @ nf.pi, nf.pi, atol=1e-8)
        np.testing.assert_allclose(nf.delta @ nf.delta, nf.delta, atol=1e-12)

    def test_induced_spectrum_matches_average(self):
        rng = np.random.default_rng(8)
        shape = RegisterShape((4,))
        ms = [
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=2), is_projector=True)
            for _ in range(4)
        ]
        nf = build_averaged_naimark(ms)
        avg = sum(m.accept_op.matrix for m in ms) / 4
        got = eigendecompose(nf.induced_operator()).eigenvalues
        expected = eigendecompose(avg).eigenvalues
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_rejects_non_projector(self):
        soft = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError):
            build_averaged_naimark([soft])

    def test_one_ancilla_dilation(self):
        rng = np.random.default_rng(9)
        shape = RegisterShape((3,))
        lam = random_povm_contraction(rng, shape)
        nf = one_ancilla_dilation(lam)
        assert nf.m == 1
        np.testing.assert_allclose(nf.pi @ nf.pi, nf.pi, atol=1e-8)
        zero = np.zeros((2, 2))
        zero[0, 0] = 1.0
        np.testing.assert_allclose(
            nf.delta @ nf.pi @ nf.delta, np.kron(lam.matrix, zero), atol=1e-8
        )

    def test_trivial_form(self):
        p = TwoOutcomeMeasurement(proj(np.array([0.0, 1.0])), is_projector=True)
        nf = trivial_naimark(p)
        assert nf.m == 0 and nf.extended_dim == 2
        np.testing.assert_allclose(nf.induced_operator().matrix, p.accept_op.matrix)


class TestAntiZeno:
    def test_n1_accept_operator(self):
        (m,) = anti_zeno_sequence(1)
        np.testing.assert_allclose(m.accept_op.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert accept_probability(m, basis_state(QUBIT, (0,))) == 1.0

    def test_n64_survival(self):
        n = 64
        survival = math.cos(math.pi / 128) ** 128
        assert abs(survival - 0.9622) <= 1e-4
        assert abs(anti_zeno_accept_ever(n) - (1 - survival)) <= 1e-15

    def test_final_state_after_all_rejections(self):
        n = 64
        seq = anti_zeno_sequence(n)
        state = basis_state(QUBIT, (0,))
        for m in seq:
            _, _, state = measure_collapse(m, state, branch=0)
        assert abs(abs(state.overlap(basis_state(QUBIT, (1,)))) ** 2 - 1.0) <= 1e-10

    def test_accept_ever_order_one_over_n(self):
        for n in (8, 16, 64, 256):
            assert n * anti_zeno_accept_ever(n) <= math.pi**2 / 4 * 1.1
