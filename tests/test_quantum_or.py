"""Amplification procedure: oracles, bounds, sampled runs, OR and de-Merlinization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqmeas import (
    HermitianOperator,
    PureState,
    RegisterShape,
    TwoOutcomeMeasurement,
    anti_zeno_sequence,
    basis_state,
    build_averaged_naimark,
    demerlinize_accept_exact,
    demerlinize_instance,
    demerlinize_round_count,
    demerlinize_test,
    eigen_instance,
    merlin_best_witness_accept,
    merlin_slice_operators,
    mw_accept_exact,
    mw_accept_polynomial,
    mw_accept_survival,
    mw_bounds,
    mw_halting_law,
    one_ancilla_dilation,
    or_round_count,
    or_test,
    or_test_accept_exact,
    plus_state,
    product_state,
    run_averaged_or_sampled,
    run_mw_sampled,
    run_mw_sampled_batch,
    sample_blocks,
    trial_blocks,
    trial_rng,
)
from seqmeas.quantum_or import (
    AveragedInstance,
    TensorPowerInstance,
    _amplify,
    _averaged_operator,
    _mean_applier,
    _survivors,
    _tensor_power_applier,
)
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
    random_unitary,
)
from test_trial_batches import _averaged_pi, _form_instance

QUBIT = RegisterShape((2,))


def _random_instance(seed: int, max_dim=8, max_rounds=16):
    rng = trial_rng(77, seed)
    dim = int(rng.integers(2, max_dim + 1))
    shape = RegisterShape((dim,))
    lam = random_povm_contraction(rng, shape)
    rho = random_density_operator(rng, shape)
    n_rounds = int(rng.integers(1, max_rounds + 1))
    return lam, rho, n_rounds


class TestExactOracle:
    def test_eigenvalue_one(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        assert mw_accept_exact(lam, basis_state(QUBIT, (0,)), 5) == 1.0

    def test_projector_half_overlap(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        assert abs(mw_accept_exact(lam, plus_state(), 1) - 0.5) <= 1e-12

    def test_soft_operator_two_rounds(self):
        lam = HermitianOperator(QUBIT, np.diag([0.5, 0.0]))
        assert abs(mw_accept_exact(lam, plus_state(), 2) - 0.46875) <= 1e-12

    def test_rejects_out_of_range_operator(self):
        with pytest.raises(ValueError):
            mw_accept_exact(HermitianOperator(QUBIT, np.diag([1.5, 0.0])), plus_state(), 1)

    def test_survival_agreement_random_sweep(self):
        for t in range(200):
            lam, rho, n_rounds = _random_instance(t)
            exact = mw_accept_exact(lam, rho, n_rounds)
            survival = mw_accept_survival(one_ancilla_dilation(lam), rho, n_rounds)
            assert abs(survival - exact) <= 1e-9

    def test_mixed_input_degenerate_spectrum(self):
        """Rank-deficient rho and an L with a repeated eigenvalue: the
        spectral oracle on rho matches the survival oracle and the convex
        combination of its pure-input values over rho's eigen-ensemble."""
        rng = trial_rng(78, 0)
        shape = RegisterShape((4,))
        u = random_unitary(rng, 4)
        lam = HermitianOperator(shape, u @ np.diag([0.3, 0.3, 0.8, 0.0]) @ u.conj().T)
        rho = random_density_operator(rng, shape, rank=2)
        probs, vecs = np.linalg.eigh(rho.matrix)
        assert np.sum(probs > 1e-12) == 2
        for n_rounds in (1, 3, 7):
            exact = mw_accept_exact(lam, rho, n_rounds)
            survival = mw_accept_survival(one_ancilla_dilation(lam), rho, n_rounds)
            convex = sum(
                max(p, 0.0) * mw_accept_exact(lam, PureState(shape, v), n_rounds)
                for p, v in zip(probs, vecs.T)
            )
            assert abs(exact - survival) <= 1e-10
            assert abs(exact - convex) <= 1e-10

    def test_polynomial_form_random_sweep(self):
        """1 - ||(I - L)^N psi||^2 by N matvecs against the spectral oracle,
        on the operators and round counts of the random sweep above."""
        for t in range(200):
            lam, _, n_rounds = _random_instance(t)
            psi = random_pure_state(trial_rng(79, t), lam.shape)
            poly = mw_accept_polynomial(lambda x, m=lam.matrix: m @ x, psi.amplitudes, n_rounds)
            assert abs(poly - mw_accept_exact(lam, psi, n_rounds)) <= 1e-12

    def test_polynomial_form_edges(self):
        proj = np.diag([1.0, 0.0])
        apply_proj = lambda x: proj @ x  # noqa: E731
        assert mw_accept_polynomial(apply_proj, basis_state(QUBIT, (0,)).amplitudes, 5) == 1.0
        assert mw_accept_polynomial(apply_proj, basis_state(QUBIT, (1,)).amplitudes, 5) == 0.0
        soft = np.diag([0.5, 0.0])
        assert abs(mw_accept_polynomial(lambda x: soft @ x, plus_state().amplitudes, 2) - 0.46875) <= 1e-12
        with pytest.raises(ValueError):
            mw_accept_polynomial(apply_proj, plus_state().amplitudes, 0)

    def test_survival_kernel_state(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        m = TwoOutcomeMeasurement(lam, is_projector=True)
        assert mw_accept_survival(build_averaged_naimark([m]), basis_state(QUBIT, (1,)), 4) <= 1e-12

    def test_round_count_positive(self):
        form = one_ancilla_dilation(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError, match="round count must be >= 1"):
            mw_accept_survival(form, plus_state(), 0)
        with pytest.raises(ValueError, match="round count must be >= 1"):
            _form_instance(form, plus_state(), 0)

    def test_survival_input_on_system_space(self):
        """The input lives on the form's pre-ancilla system space: a state on
        the extended space, or on another system, is refused."""
        form = one_ancilla_dilation(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        for initial in (basis_state(RegisterShape((2, 2)), (0, 0)), basis_state(RegisterShape((3,)), (0,))):
            with pytest.raises(ValueError, match="pre-ancilla system space"):
                mw_accept_survival(form, initial, 2)

    def test_monotone_in_rounds(self):
        for t in range(50):
            lam, rho, n_rounds = _random_instance(1000 + t)
            a = mw_accept_exact(lam, rho, n_rounds)
            b = mw_accept_exact(lam, rho, n_rounds + 1)
            assert b >= a - 1e-12


class TestBounds:
    def test_certain_instance(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        lower, upper = mw_bounds(lam, basis_state(QUBIT, (0,)), 1)
        assert abs(lower - (1 - math.exp(-1))) <= 1e-12
        assert upper == 1.0

    def test_zero_operator(self):
        lam = HermitianOperator(QUBIT, np.zeros((2, 2)))
        lower, upper = mw_bounds(lam, plus_state(), 4)
        assert lower == 0.0 and upper == 0.0
        assert mw_accept_exact(lam, plus_state(), 4) == 0.0

    def test_sandwich_random_sweep(self):
        for t in range(200):
            lam, rho, n_rounds = _random_instance(2000 + t)
            exact = mw_accept_exact(lam, rho, n_rounds)
            lower, upper = mw_bounds(lam, rho, n_rounds)
            assert lower <= exact + 1e-9
            assert exact <= upper + 1e-9


class TestSampledRuns:
    def test_eigenvalue_one_always_accepts(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        m = TwoOutcomeMeasurement(lam, is_projector=True)
        inst, _ = _form_instance(build_averaged_naimark([m]), basis_state(QUBIT, (0,)), 1)
        rng = trial_rng(0, 0)
        for _ in range(50):
            res = run_mw_sampled(inst, rng)
            assert res.accepted and res.halting_step == "pi"

    def test_zero_operator_never_accepts(self):
        zero = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.zeros((2, 2))), is_projector=True)
        inst, _ = _form_instance(build_averaged_naimark([zero]), plus_state(), 4)
        rng = trial_rng(0, 1)
        for _ in range(50):
            res = run_mw_sampled(inst, rng)
            assert not res.accepted and res.rounds_used == 4

    def test_single_run_statistics(self):
        lam = HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
        m = TwoOutcomeMeasurement(lam, is_projector=True)
        inst, _ = _form_instance(build_averaged_naimark([m]), plus_state(), 1)
        exact = mw_accept_exact(lam, plus_state(), 1)
        rng = trial_rng(0, 2)
        trials = 10_000
        count = sum(run_mw_sampled(inst, rng).accepted for _ in range(trials))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma

    def test_batch_matches_exact_on_random_instances(self):
        trials = 10_000
        for t in range(5):
            lam, rho, _ = _random_instance(3000 + t, max_dim=6, max_rounds=6)
            n_rounds = 3
            exact = mw_accept_exact(lam, rho, n_rounds)
            inst, _ = _form_instance(one_ancilla_dilation(lam), rho, n_rounds)
            count = run_mw_sampled_batch(inst, trial_rng(1, t), trials)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(count / trials - exact) <= 4 * sigma + 1e-9


def _halting_law(evals, weights, n_rounds):
    """Exact probability of each (rounds_used, halting_step) cell."""
    lam = np.clip(evals, 0.0, 1.0)
    law = {}
    for r in range(1, n_rounds + 1):
        law[(r, "pi")] = float(np.sum(weights * (1 - lam) ** (2 * r - 2) * lam))
        law[(r, "delta")] = float(np.sum(weights * (1 - lam) ** (2 * r - 1) * lam))
    law[(n_rounds, None)] = float(np.sum(weights * (1 - lam) ** (2 * n_rounds)))
    return law


def _spectral_measure(accept_op: HermitianOperator, rho):
    """Eigenvalues l_i of L and weights w_i = <v_i|rho|v_i>."""
    mat = rho.density().matrix if isinstance(rho, PureState) else rho.matrix
    evals, vecs = np.linalg.eigh(accept_op.matrix)
    weights = np.einsum("ji,jk,ki->i", vecs.conj(), mat, vecs).real
    return evals, np.clip(weights, 0.0, None)


def _assert_histogram(results, law):
    trials = len(results)
    counts = {}
    for res in results:
        key = (res.rounds_used, res.halting_step)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    for key, p in law.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(key, 0) / trials - p) <= 4 * sigma + 1e-9, key


class TestHaltingLaw:
    """P(halt at Pi in round r) = sum_i w_i (1 - l_i)^{2r-2} l_i and
    P(halt at Delta in round r) = sum_i w_i (1 - l_i)^{2r-1} l_i over the
    spectral measure (l_i, w_i) of L seen from the input."""

    def test_dilated_form_mixed_input(self):
        rng = trial_rng(79, 0)
        shape = RegisterShape((4,))
        u = random_unitary(rng, 4)
        lam = HermitianOperator(shape, u @ np.diag([0.15, 0.4, 0.7, 0.0]) @ u.conj().T)
        rho = random_density_operator(rng, shape, rank=3)
        n_rounds = 3
        inst, _ = _form_instance(one_ancilla_dilation(lam), rho, n_rounds)
        runs = [run_mw_sampled(inst, rng) for _ in range(6000)]
        _assert_histogram(runs, _halting_law(*_spectral_measure(lam, rho), n_rounds))

    def test_averaged_family(self):
        rng = trial_rng(79, 1)
        shape = RegisterShape((3,))
        ms = [
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=r), is_projector=True)
            for r in (1, 2, 1)
        ]
        psi = random_pure_state(rng, shape)
        n_rounds = or_round_count(len(ms), 0)
        appliers = [(lambda v, m=m.accept_op.matrix: m @ v) for m in ms]
        runs = [run_averaged_or_sampled(appliers, psi, n_rounds, rng) for _ in range(6000)]
        law = _halting_law(*_spectral_measure(_averaged_operator(ms), psi), n_rounds)
        _assert_histogram(runs, law)


    def test_library_law_matches_cells(self):
        """``mw_halting_law`` step s is cell (s // 2 + 1, pi or delta) of the
        law above, and its last entry the rejection cell."""
        for seed in range(4):
            lam, rho, n_rounds = _random_instance(4000 + seed, max_dim=6, max_rounds=5)
            evals, weights = _spectral_measure(lam, rho)
            cells = _halting_law(evals, weights, n_rounds)
            keys = [(s // 2 + 1, ("pi", "delta")[s % 2]) for s in range(2 * n_rounds)] + [(n_rounds, None)]
            law = mw_halting_law(evals, weights, n_rounds)
            np.testing.assert_allclose(law, [cells[k] for k in keys], rtol=1e-12, atol=1e-15)


class TestApplierChecks:
    """A sampled run refuses appliers whose mean is no operator in [0, I] on
    the path, or that do not map the input's vectors to vectors of the same
    shape, naming the round, through every draw source."""

    @staticmethod
    def _sources(inst):
        return {
            "single": lambda: run_mw_sampled(inst, trial_rng(0, 0)),
            "shared": lambda: run_mw_sampled_batch(inst, trial_rng(0, 0), 50),
            "blocks": lambda: list(sample_blocks(inst, trial_blocks(0, range(50)))),
        }

    @pytest.mark.parametrize(
        "applier,initial,message",
        [
            (lambda v: np.diag([1.5, 0.0]) @ v, basis_state(QUBIT, (0,)), r"round 1: Pi accept probability 1\.5"),
            (lambda v: -0.5 * v, plus_state(), r"round 1: Pi accept probability -0\.5"),
            (lambda v: np.eye(3) @ v, plus_state(), r"round 1: the L-applier failed on a vector of shape \(2,\)"),
            (lambda v: 0.5 * v[:, None], plus_state(), r"round 1: the L-applier returned shape \(2, 1\)"),
            # <v|L|v> = 0.7 passes, but ||(I - L) v||^2 = 0.34 > 1 - 0.7
            (lambda v: np.diag([0.2, 1.2]) @ v, plus_state(), r"round 1: \|\|\(I - L\) v\|\|\^2 = 0\.34"),
        ],
        ids=["diag-1.5", "negative", "3x3-on-qubit", "column", "kept-mass"],
    )
    def test_refused_in_round_one(self, applier, initial, message):
        inst = AveragedInstance((applier,), initial, 3)
        for source in self._sources(inst).values():
            with pytest.raises(ValueError, match=message):
                source()

    def test_names_a_later_round(self):
        """A family whose mean turns negative in round 2."""
        calls = []

        def turning(v):
            calls.append(1)
            return 0.2 * v if len(calls) == 1 else -0.9 * v

        inst = AveragedInstance((turning, lambda v: 0.2 * v), plus_state(), 3)
        with pytest.raises(ValueError, match=r"round 2: Pi accept probability -0\.35 "):
            list(sample_blocks(inst, trial_blocks(0, range(500))))

    def test_tolerance_admits_rounding(self):
        """A Pi probability one rounding past 1 (an eigenvalue-1 input whose
        L carries a 1e-12 excess) still runs, and halts every trial."""
        lam = np.diag([1.0 + 1e-12, 0.0])
        inst = AveragedInstance((lambda v: lam @ v,), basis_state(QUBIT, (0,)), 2)
        steps = np.concatenate(list(sample_blocks(inst, trial_blocks(0, range(50)))))
        assert not steps.any()


class TestAveragedOrRun:
    def test_structured_pi_matches_dense(self):
        rng = trial_rng(5, 0)
        shape = RegisterShape((4,))
        ms = [
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=2), is_projector=True)
            for _ in range(3)
        ]
        nf = build_averaged_naimark(ms)
        vec = rng.normal(size=nf.extended_dim) + 1j * rng.normal(size=nf.extended_dim)
        vec /= np.linalg.norm(vec)
        # structured application of Pi on the (system, ancilla) matrix layout
        from seqmeas.gates import qft_matrix

        n = len(ms)
        cols = vec.reshape(-1, n)
        a = cols @ qft_matrix(n).conj()
        b = np.stack([ms[i].accept_op.matrix @ a[:, i] for i in range(n)], axis=1)
        structured = (b @ qft_matrix(n)).reshape(-1)
        np.testing.assert_allclose(structured, nf.pi @ vec, atol=1e-10)
        # the sampler's batched applier, on a block of two trials
        block = np.stack([vec, vec[::-1]])
        appliers = [(lambda v, m=m.accept_op.matrix: m @ v) for m in ms]
        np.testing.assert_allclose(_averaged_pi(appliers)(block), block @ nf.pi.T, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_batched_pi_matches_naimark(self, n, rows):
        """The batched applier against the dense Naimark projector, on a
        contiguous block and on a strided slice of a larger array."""
        rng = trial_rng(7, 10 * n + rows)
        shape = RegisterShape((3,))
        ms = [
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=1 + i % 2), is_projector=True)
            for i in range(n)
        ]
        pi = build_averaged_naimark(ms).pi
        if n == 1:  # the one-measurement form carries a two-level ancilla
            pi = pi[::2, ::2]
        dim = pi.shape[0]
        big = rng.normal(size=(2 * rows, 2 * dim)) + 1j * rng.normal(size=(2 * rows, 2 * dim))
        appliers = [(lambda v, m=m.accept_op.matrix: m @ v) for m in ms]
        apply_pi = _averaged_pi(appliers)
        for block in (np.ascontiguousarray(big[:rows, :dim]), big[::2, 1::2]):
            np.testing.assert_allclose(apply_pi(block), block @ pi.T, rtol=0, atol=1e-12)

    def test_structured_run_statistics(self):
        n = 8
        seq = anti_zeno_sequence(n)
        zero = basis_state(QUBIT, (0,))
        exact = or_test_accept_exact(seq, zero, 0)
        trials = 10_000
        rng = trial_rng(6, 0)
        appliers = [(lambda v, m=m.accept_op.matrix: m @ v) for m in seq]
        count = sum(
            run_averaged_or_sampled(appliers, zero, or_round_count(n, 0), rng).accepted
            for _ in range(trials)
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma


class TestOrTest:
    def test_round_count_exact_arithmetic(self):
        assert or_round_count(8, 0) == 8
        assert or_round_count(8, 0.5) == 16
        assert or_round_count(3, Fraction(1, 3)) == 5  # ceil(4.5)
        assert or_round_count(5, 0.25) == 7  # ceil(20/3)

    def test_epsilon_cap(self):
        with pytest.raises(ValueError):
            or_round_count(4, 0.6)

    def test_anti_zeno_case1(self):
        seq = anti_zeno_sequence(8)
        zero = basis_state(QUBIT, (0,))
        exact = or_test_accept_exact(seq, zero, 0)
        assert exact >= 1.0 / 7.0

    def test_all_zero_measurements(self):
        zero_m = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.zeros((2, 2))), is_projector=True)
        assert or_test_accept_exact([zero_m] * 4, plus_state(), 0) == 0.0

    def test_case2_bound(self):
        n, delta = 4, 0.001
        rng = trial_rng(7, 0)
        shape = RegisterShape((4,))
        psi = random_pure_state(rng, shape)
        ms = []
        for _ in range(n):
            w = random_pure_state(rng, shape).amplitudes
            w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
            w /= np.linalg.norm(w)
            v = math.sqrt(delta) * psi.amplitudes + math.sqrt(1 - delta) * w
            ms.append(
                TwoOutcomeMeasurement(HermitianOperator(shape, np.outer(v, v.conj())), is_projector=True)
            )
        exact = or_test_accept_exact(ms, psi, 0)
        assert exact <= 4 * delta * n
        assert exact <= 0.016

    def test_case_separation(self):
        """Case 1 with tr(L_1 rho) = 1 - eps lands above (1-eps)^2/7 while a
        delta <= 1/(64n) case-2 instance stays below 1/16."""
        n, eps = 4, 0.25
        shape = RegisterShape((4,))
        rng = trial_rng(8, 0)
        psi = random_pure_state(rng, shape)
        w = random_pure_state(rng, shape).amplitudes
        w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
        w /= np.linalg.norm(w)
        v = math.sqrt(1 - eps) * psi.amplitudes + math.sqrt(eps) * w
        strong = TwoOutcomeMeasurement(HermitianOperator(shape, np.outer(v, v.conj())), is_projector=True)
        zero_m = TwoOutcomeMeasurement(HermitianOperator(shape, np.zeros((4, 4))), is_projector=True)
        case1 = or_test_accept_exact([strong] + [zero_m] * (n - 1), psi, eps)
        assert case1 >= (1 - eps) ** 2 / 7

        delta = 1.0 / (64 * n)
        ms = []
        for _ in range(n):
            w = random_pure_state(rng, shape).amplitudes
            w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
            w /= np.linalg.norm(w)
            u = math.sqrt(delta) * psi.amplitudes + math.sqrt(1 - delta) * w
            ms.append(
                TwoOutcomeMeasurement(HermitianOperator(shape, np.outer(u, u.conj())), is_projector=True)
            )
        case2 = or_test_accept_exact(ms, psi, eps)
        assert case2 <= 4 * delta * n <= 1.0 / 16.0

    def test_sampled_or_statistics(self):
        seq = anti_zeno_sequence(4)
        zero = basis_state(QUBIT, (0,))
        exact = or_test_accept_exact(seq, zero, 0)
        trials = 10_000
        rng = trial_rng(9, 0)
        count = sum(or_test(seq, zero, 0, rng) for _ in range(trials))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma

    def test_requires_projectors(self):
        soft = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError):
            or_test([soft], plus_state(), 0, trial_rng(0, 0))


class TestDemerlinize:
    def _case1(self):
        shape = RegisterShape((4, 2))
        psi = basis_state(RegisterShape((4,)), (0,))
        p_a = np.diag([1.0, 0.0, 0.0, 0.0])
        gamma = HermitianOperator(shape, np.kron(p_a, np.diag([1.0, 0.0])))
        return gamma, psi

    def test_slice_operators(self):
        gamma, _ = self._case1()
        slices = merlin_slice_operators(gamma)
        assert len(slices) == 2
        np.testing.assert_allclose(slices[0].matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(slices[1].matrix, np.zeros((4, 4)))

    def test_round_count(self):
        assert demerlinize_round_count(2, Fraction(2, 3)) == 3
        assert demerlinize_round_count(2, 0.5) == 4

    def test_case1_accept(self):
        gamma, psi = self._case1()
        eta = Fraction(2, 3)
        assert merlin_best_witness_accept(gamma, psi) >= float(eta)
        exact = demerlinize_accept_exact(gamma, psi, eta)
        assert exact >= float(eta) ** 2 / 7

    def test_zero_gamma(self):
        shape = RegisterShape((4, 2))
        gamma = HermitianOperator(shape, np.zeros((8, 8)))
        psi = basis_state(RegisterShape((4,)), (0,))
        assert demerlinize_accept_exact(gamma, psi, 0.5) == 0.0

    def test_case2_bound(self):
        zeta = 0.01
        shape = RegisterShape((4, 2))
        gamma = HermitianOperator(shape, zeta * np.eye(8))
        psi = basis_state(RegisterShape((4,)), (0,))
        assert abs(merlin_best_witness_accept(gamma, psi) - zeta) <= 1e-12
        exact = demerlinize_accept_exact(gamma, psi, 0.5)
        assert exact <= 2 * zeta * demerlinize_round_count(2, 0.5)
        assert exact <= 0.08

    def test_gamma_range_validated(self):
        shape = RegisterShape((4, 2))
        gamma = HermitianOperator(shape, 1.5 * np.eye(8))
        psi = basis_state(RegisterShape((4,)), (0,))
        with pytest.raises(ValueError):
            demerlinize_test(gamma, psi, 0.5, trial_rng(0, 0))

    def test_sampled_statistics(self):
        gamma, psi = self._case1()
        eta = Fraction(2, 3)
        exact = demerlinize_accept_exact(gamma, psi, eta)
        trials = 5000
        rng = trial_rng(10, 0)
        count = sum(demerlinize_test(gamma, psi, eta, rng) for _ in range(trials))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    @staticmethod
    def _random_case(message_dims, witness):
        """Seeded random Gamma in [0, I] on message (x) witness, and a message state."""
        rng = trial_rng(98, witness)
        gamma = random_povm_contraction(rng, RegisterShape((*message_dims, witness)))
        return gamma, random_pure_state(rng, RegisterShape(message_dims))

    @pytest.mark.parametrize("message_dims,witness", [((2, 2), 3), ((3,), 2)])
    def test_random_gamma_sampled_statistics(self, message_dims, witness):
        gamma, psi = self._random_case(message_dims, witness)
        exact = demerlinize_accept_exact(gamma, psi, 0.5)
        trials = 4000
        inst = demerlinize_instance(gamma, psi, 0.5)
        blocks = sample_blocks(inst, trial_blocks(99, range(trials)))
        count = sum(int(np.count_nonzero(steps < 2 * inst.n_rounds)) for steps in blocks)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    @pytest.mark.parametrize("case", ["desk", ((2, 2), 3), ((3,), 2)], ids=["desk", "2x2-3", "3-2"])
    def test_instance_walks_the_oracle_operator(self, case):
        """The sampler's L-applier, the mean of the instance's per-slice
        matvecs, has the oracle's L = (1/d) sum_j Gamma_j as its matrix bit
        for bit (read column by column on the basis vectors), and the oracle
        decomposes that same L.  On a general vector the two products sum
        in different orders, so they agree to rounding only."""
        gamma, psi = self._case1() if case == "desk" else self._random_case(*case)
        witness = gamma.shape.dims[-1]
        slices = merlin_slice_operators(gamma)
        lam = sum(s.matrix for s in slices) / witness
        inst = demerlinize_instance(gamma, psi, 0.5)
        assert (len(inst.appliers), inst.n_rounds) == (witness, demerlinize_round_count(witness, 0.5))
        apply_l = _mean_applier(inst.appliers)
        eye = np.eye(lam.shape[0], dtype=np.complex128)
        assert np.array_equal(np.stack([apply_l(e) for e in eye], axis=1), lam)
        np.testing.assert_allclose(apply_l(psi.amplitudes), lam @ psi.amplitudes, rtol=0, atol=1e-15)
        exact = mw_accept_exact(HermitianOperator(psi.shape, lam), psi, inst.n_rounds)
        assert demerlinize_accept_exact(gamma, psi, 0.5) == exact


def test_averaged_operator_helper():
    seq = anti_zeno_sequence(3)
    avg = _averaged_operator(seq)
    expected = sum(m.accept_op.matrix for m in seq) / 3
    np.testing.assert_allclose(avg.matrix, expected)


def test_mean_applier_accumulates_in_a_copy():
    """L = (1/n) sum_i A_i v built in place: an identity applier (which
    returns its input) and an applier that returns one cached array keep
    their arrays, and the result equals sum(...)/n on every nonzero entry
    (only the sign of an exact zero may differ)."""
    rng = trial_rng(90, 0)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v[[2, 7]] = 0.0
    cached = rng.normal(size=12) + 1j * rng.normal(size=12)
    mat = random_unitary(rng, 12)
    appliers = [lambda x: x, lambda x: cached, lambda x: mat @ x, lambda x: -x]
    v_before, cached_before = v.copy(), cached.copy()
    out = _mean_applier(appliers)(v)
    assert np.array_equal(v, v_before) and np.array_equal(cached, cached_before)
    expected = sum(a(v) for a in appliers) / len(appliers)
    assert out.dtype == np.complex128 and out is not v
    nonzero = expected != 0
    assert np.array_equal(out[nonzero], expected[nonzero])
    assert np.count_nonzero(out[~nonzero]) == 0
    # one identity applier alone: a copy of the input, which stays as it was
    alone = _mean_applier([lambda x: x])(v)
    assert alone is not v and np.array_equal(alone, v) and np.array_equal(v, v_before)


def out_of_place_amplify(apply_l, vector, n_rounds):
    """The survivor path with a new array per update (the form ``_amplify``
    had before it updated its vector in place), all 2 n_rounds boundaries."""
    live, out = vector, []
    for _ in range(n_rounds):
        hit = apply_l(live)
        p_pi = np.vdot(live, hit).real
        out.append(p_pi)
        live = live - hit
        p_rest = np.vdot(live, live).real
        out.append(p_rest / (1.0 - p_pi))
        live = live / math.sqrt(p_rest)
    return out


class TestAmplifyInPlace:
    """``_amplify`` updates its survivor vector in place: its boundaries equal
    the out-of-place walk bit for bit, and neither the input vector nor an
    array an applier returns is written to."""

    @staticmethod
    def appliers(rng, d):
        """A fresh matvec, a cached array handed out on every call and the
        cached array of a second fixed matvec: valid or not as an L, each
        keeps every boundary finite."""
        lam = _averaged_operator([random_projector(rng, RegisterShape((d,)), 1 + i % (d - 1)) for i in range(3)])
        other = random_unitary(rng, d)
        cached = 0.3 * (other @ random_pure_state(rng, RegisterShape((d,))).amplitudes)
        return [lambda v, m=lam.matrix: m @ v, lambda v: cached], cached

    def test_boundaries_match_out_of_place_walk(self):
        rng = trial_rng(96, 0)
        for d in (2, 3, 7):
            (fresh, cached_applier), cached = self.appliers(rng, d)
            cached_before = cached.copy()
            for apply_l in (fresh, cached_applier, _mean_applier([fresh, cached_applier])):
                vector = random_pure_state(rng, RegisterShape((d,))).amplitudes.copy()
                vector_before = vector.copy()
                got = list(_amplify(apply_l, vector, 6))
                assert np.array_equal(got, out_of_place_amplify(apply_l, vector_before, 6))
                assert np.array_equal(vector, vector_before)
                assert np.array_equal(cached, cached_before)

    def test_survivor_paths_match_out_of_place_walk(self):
        """Through ``_survivors``: an averaged instance through
        ``_mean_applier`` (one applier is its own mean), and an eigen
        family past the word rule through its tensor-power applier on a
        complex tester state."""
        rng = trial_rng(96, 1)
        (fresh, cached_applier), cached = self.appliers(rng, 4)
        cached_before = cached.copy()
        psi = random_pure_state(rng, RegisterShape((4,)))
        eigen = eigen_instance([random_unitary(rng, 2) for _ in range(3)], random_pure_state(rng, QUBIT), 0.5, 2)
        instances = [
            AveragedInstance([fresh], psi, 4),
            AveragedInstance([cached_applier], psi, 4),
            AveragedInstance([fresh, cached_applier, fresh], psi, 4),
            eigen,
        ]
        for inst in instances:
            survivors = _survivors(inst)
            got = [survivors.boundary(0, step) for step in range(2 * inst.n_rounds)]
            if isinstance(inst, TensorPowerInstance):
                apply_l = _tensor_power_applier(inst.frames, inst.copies_k)
                vector = product_state([inst.factor] * inst.copies_k).amplitudes
            else:
                apply_l, vector = _mean_applier(inst.appliers), inst.initial.amplitudes
            assert np.array_equal(got, out_of_place_amplify(apply_l, vector, inst.n_rounds))
        assert np.array_equal(cached, cached_before)

    def test_tensor_power_instance_picks_the_vector_walk(self):
        """Six rank-one qubit members at k = 2, N = 6 have 23437 reduced
        words, whose Gram matrix would take about 8.8 GB; the instance
        walks its vector applier on the 4 amplitudes of factor^(x)2 instead,
        with the boundaries of the out-of-place walk bit for bit."""
        rng = trial_rng(96, 2)
        frames = np.stack([random_pure_state(rng, QUBIT).amplitudes for _ in range(6)])[:, :, None]
        factor = random_pure_state(rng, QUBIT)
        inst = TensorPowerInstance(frames, factor, 2, 6)
        walk, start = inst._walk()
        assert walk != inst._word_walk and start.shape.dims == (2, 2)
        survivors = _survivors(inst)
        got = [survivors.boundary(0, step) for step in range(12)]
        vector = product_state([factor, factor]).amplitudes
        expected = out_of_place_amplify(_tensor_power_applier(inst.frames, 2), vector, 6)
        assert np.array_equal(got, expected)
        assert 0.0 < got[0] < 1.0
