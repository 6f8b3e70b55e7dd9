"""Collapse semantics, gentle measurement, union bound, Naimark forms, anti-Zeno."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import (
    DensityOperator,
    HermitianOperator,
    NaimarkForm,
    PureState,
    RegisterShape,
    TrajectoryRecord,
    TwoOutcomeMeasurement,
    UnionBoundResult,
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
    reject_path,
    trivial_naimark,
    union_bound_bruteforce,
)
from seqmeas.experiments import _random_projective
from seqmeas.measurement import ZERO_BRANCH_ATOL
from seqmeas.rng import trial_rngs
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
)
from seqmeas.states import _trusted

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

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, 2.0], ids=["negative", "nan", "above-one"])
    def test_rejects_epsilon_outside_unit_interval(self, epsilon):
        one = TwoOutcomeMeasurement.projector(proj(np.array([1.0, 0.0])))
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            union_bound_bruteforce([one] * 3, plus_state(), epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [True, np.True_, "x"], ids=["bool", "numpy-bool", "string"])
    def test_rejects_bool_and_non_real_epsilon(self, epsilon):
        """epsilon=True once ran as epsilon = 1 (bound 12.0 at T = 3), and a
        string raised a bare TypeError from the comparison."""
        with pytest.raises(ValueError, match=re.escape(f"epsilon must lie in [0, 1], got {epsilon!r}")):
            union_bound_bruteforce(anti_zeno_sequence(3), basis_state(QUBIT, (0,)), epsilon=epsilon)


def _reference_union_bound(measurements, rho, epsilon=None) -> UnionBoundResult:
    """The depth-first recursion union_bound_bruteforce replaced, kept as the
    reference: one call per tree node, accept child first, a branch of trace
    below 1e-15 recorded truncated in place."""
    rho_op = rho.density() if isinstance(rho, PureState) else rho
    if epsilon is None:
        epsilon = max(accept_probability(m, rho_op) for m in measurements)
    trajectories = []
    p_any = 0.0

    def descend(tau, outcomes):
        nonlocal p_any
        depth = len(outcomes)
        if depth == len(measurements):
            prob = float(np.trace(tau).real)
            final = None
            if prob > ZERO_BRANCH_ATOL:
                final = _trusted(DensityOperator, rho_op.shape, 0.5 * (tau + tau.conj().T) / np.trace(tau).real)
            rec = TrajectoryRecord(outcomes, max(prob, 0.0), final)
            trajectories.append(rec)
            if any(outcomes):
                p_any += rec.probability
            return
        lam = measurements[depth].accept_op.matrix
        hit = lam @ tau @ lam
        miss = tau - lam @ tau - tau @ lam + hit
        for outcome, branch_tau in ((1, hit), (0, miss)):
            if np.trace(branch_tau).real < 1e-15:
                trajectories.append(TrajectoryRecord(outcomes + (outcome,), 0.0, None))
                continue
            descend(branch_tau, outcomes + (outcome,))

    descend(rho_op.matrix.copy(), ())
    return UnionBoundResult(min(1.0, p_any), 4.0 * len(measurements) * epsilon, float(epsilon), tuple(trajectories))


def _assert_same_result(got: UnionBoundResult, ref: UnionBoundResult):
    assert (got.p_any_one, got.bound, got.epsilon) == (ref.p_any_one, ref.bound, ref.epsilon)
    assert [r.outcomes for r in got.trajectories] == [r.outcomes for r in ref.trajectories]
    for g, r in zip(got.trajectories, ref.trajectories):
        assert g.probability == r.probability
        if r.final_state is None:
            assert g.final_state is None
        else:
            assert g.final_state.shape == r.final_state.shape
            assert np.array_equal(g.final_state.matrix, r.final_state.matrix)


def _cli_tables(seed: int, pure: bool):
    """The union-bound experiment's 30 random sequences at `seed`, each with
    its mixed input or, drawn after it, a pure one."""
    cases = []
    for rng in trial_rngs(seed, range(30)):
        shape = RegisterShape((int(rng.integers(2, 9)),))
        measurements = [_random_projective(rng, shape) for _ in range(int(rng.integers(1, 7)))]
        rho = random_density_operator(rng, shape)
        cases.append((measurements, random_pure_state(rng, shape) if pure else rho))
    return cases


class TestUnionBoundAgainstRecursion:
    """The depth-by-depth pass gives the recursion's records, in its order:
    outcome tuples, probability bits, final-state matrices, p_any_one and
    the bound."""

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    @pytest.mark.parametrize("seed", range(6))
    def test_cli_tables(self, seed, pure):
        for measurements, rho in _cli_tables(seed, pure):
            _assert_same_result(union_bound_bruteforce(measurements, rho), _reference_union_bound(measurements, rho))

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_anti_zeno(self, n):
        seq, zero, eps = anti_zeno_sequence(n), basis_state(QUBIT, (0,)), math.sin(math.pi / (2 * n)) ** 2
        res = union_bound_bruteforce(seq, zero, epsilon=eps)
        assert sum(2 ** (n - len(r.outcomes)) for r in res.trajectories) == 2**n
        _assert_same_result(res, _reference_union_bound(seq, zero, eps))

    def test_pruned_tree(self):
        """Four |0><0| on |+>: after the first step every accept branch stays
        in |0> and every reject branch in |1>, so all mixed-outcome branches
        are truncated."""
        zero = TwoOutcomeMeasurement.projector(proj(np.array([1.0, 0.0])))
        res = union_bound_bruteforce([zero] * 4, plus_state())
        assert [r.outcomes for r in res.trajectories] == [
            (1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0), (1, 0), (0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)
        ]
        _assert_same_result(res, _reference_union_bound([zero] * 4, plus_state()))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_input(self, rank):
        rng = np.random.default_rng(50 + rank)
        shape = RegisterShape((4,))
        ms = [TwoOutcomeMeasurement.projector(random_projector(rng, shape, rank=2)) for _ in range(5)]
        rho = random_density_operator(rng, shape, rank=rank)
        _assert_same_result(union_bound_bruteforce(ms, rho), _reference_union_bound(ms, rho))

    def test_member_never_accepting_on_the_input(self):
        rng = np.random.default_rng(60)
        shape = RegisterShape((3,))
        null = TwoOutcomeMeasurement.projector(HermitianOperator(shape, np.zeros((3, 3))))
        ms = [null] + [TwoOutcomeMeasurement.projector(random_projector(rng, shape, rank=1)) for _ in range(3)] + [null]
        rho = random_density_operator(rng, shape)
        res = union_bound_bruteforce(ms, rho)
        assert all(r.outcomes[0] == 0 for r in res.trajectories[1:])
        _assert_same_result(res, _reference_union_bound(ms, rho))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.integers(2, 4), t_steps=st.integers(1, 6))
def test_union_bound_properties(seed, d, t_steps):
    """On random projective sequences (ranks 0..d) the records conserve
    probability and tile the 2^T tree, truncated ones carry nothing, and the
    bound holds."""
    rng = np.random.default_rng(seed)
    shape = RegisterShape((d,))
    ranks = rng.integers(0, d + 1, size=t_steps)
    ms = [TwoOutcomeMeasurement.projector(random_projector(rng, shape, rank=int(r))) for r in ranks]
    res = union_bound_bruteforce(ms, random_density_operator(rng, shape, rank=int(rng.integers(1, d + 1))))
    assert abs(sum(r.probability for r in res.trajectories) - 1.0) <= 1e-9
    assert res.p_any_one <= res.bound
    assert sum(2 ** (t_steps - len(r.outcomes)) for r in res.trajectories) == 2**t_steps
    for r in res.trajectories:
        if len(r.outcomes) < t_steps:
            assert r.probability == 0.0 and r.final_state is None


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

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_refuses_fewer_than_one_measurement(self, n):
        """anti_zeno_accept_ever(-3) once returned -1.37, and n = 0 divided
        by zero: like anti_zeno_sequence, every entry point refuses n < 1."""
        for call in (anti_zeno_accept_ever, anti_zeno_sequence, lambda n: anti_zeno_state(n, 0)):
            with pytest.raises(ValueError, match="need n >= 1"):
                call(n)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_state_refuses_step_outside_zero_to_n(self, k):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            anti_zeno_state(4, k)

    def test_state_endpoints(self):
        np.testing.assert_allclose(anti_zeno_state(4, 0).amplitudes, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(anti_zeno_state(4, 4).amplitudes, [0.0, 1.0], atol=1e-15)


class _FixedUniform:
    """A generator stand-in whose every uniform is `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def _random_sequence(seed: int, dim: int, n: int):
    rng = np.random.default_rng(seed)
    shape = RegisterShape((dim,))
    seq = [
        TwoOutcomeMeasurement(random_projector(rng, shape, rank=int(rng.integers(1, dim))), is_projector=True)
        for _ in range(n)
    ]
    return seq, random_pure_state(rng, shape)


class TestRejectPath:
    @pytest.mark.parametrize(
        "seq, psi",
        [
            (anti_zeno_sequence(64), anti_zeno_state(64, 0)),
            _random_sequence(1, 3, 6),
            _random_sequence(2, 5, 9),
        ],
    )
    def test_matches_branch_zero_chain_bit_for_bit(self, seq, psi):
        """Each step's probability is the threshold measure_collapse compares
        its uniform against: a uniform equal to it rejects and the next float
        below it accepts.  The chain's rejection probabilities and final
        state agree exactly."""
        probs, final = reject_path(seq, psi)
        assert probs.shape == (len(seq),)
        state = psi
        for m, p in zip(seq, probs):
            assert measure_collapse(m, state, rng=_FixedUniform(p))[0] == 0
            if p > 0.0:
                assert measure_collapse(m, state, rng=_FixedUniform(np.nextafter(p, 0.0)))[0] == 1
            _, prob, state = measure_collapse(m, state, branch=0)
            assert prob == 1.0 - p
        assert np.array_equal(final.amplitudes, state.amplitudes)

    def test_stops_at_certain_accept_without_raising(self):
        seq = [
            TwoOutcomeMeasurement.projector(proj(np.array([0.0, 1.0]))),  # never accepts |0>
            TwoOutcomeMeasurement.projector(proj(np.array([1.0, 0.0]))),  # always accepts it
            TwoOutcomeMeasurement.projector(proj(np.array([0.0, 1.0]))),
        ]
        probs, final = reject_path(seq, basis_state(QUBIT, (0,)))
        assert probs.tolist() == [0.0, 1.0] and final is None
        with pytest.raises(ValueError):
            measure_collapse(seq[1], basis_state(QUBIT, (0,)), branch=0)
        probs, final = reject_path(anti_zeno_sequence(1), anti_zeno_state(1, 0))
        assert probs.tolist() == [1.0] and final is None

    def test_empty_sequence_returns_input(self):
        probs, final = reject_path([], plus_state())
        assert probs.size == 0
        assert np.array_equal(final.amplitudes, plus_state().amplitudes)

    def test_rejects_non_projective_or_mismatched(self):
        soft = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError, match="is_projector"):
            reject_path([soft], plus_state())
        qutrit = TwoOutcomeMeasurement.projector(proj(np.array([1.0, 0.0, 0.0]), RegisterShape((3,))))
        with pytest.raises(ValueError, match="shapes differ"):
            reject_path([qutrit], plus_state())
