"""The control-qubit sequential test: exact recursion, bounds, sampled runs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqmeas import (
    DensityOperator,
    HermitianOperator,
    RegisterShape,
    SequentialInstance,
    TwoOutcomeMeasurement,
    basis_state,
    exact_sequential_accept,
    run_sequential_sampled,
    run_sequential_sampled_batch,
    sequential_iteration_count,
    completeness_bound_sweep,
    trial_rng,
)
from seqmeas.disturbance import anti_zeno_sequential_instance, certain_member_instance
from seqmeas.sampling import random_density_operator, random_projector

QUBIT = RegisterShape((2,))


def _zero_measurement(shape=QUBIT):
    d = shape.total_dim
    return TwoOutcomeMeasurement(HermitianOperator(shape, np.zeros((d, d))), is_projector=True)


class TestIterationCount:
    def test_exact_rational_ceiling(self):
        assert sequential_iteration_count(1, 1) == 10
        assert sequential_iteration_count(4, 0.5) == 60  # 40 + 20
        assert sequential_iteration_count(3, Fraction(1, 3)) == 90  # 45 + 45

    def test_eta_range(self):
        with pytest.raises(ValueError):
            sequential_iteration_count(3, 0.0)
        with pytest.raises(ValueError):
            sequential_iteration_count(3, 1.5)


class TestExactRecursion:
    def test_zero_measurements_never_accept(self):
        """With nothing to fire, the undisturbed control makes the rare check
        reject with certainty, so the total accept mass is zero."""
        rho = basis_state(QUBIT, (0,)).density()
        inst = SequentialInstance((_zero_measurement(),), rho, eta=1.0)
        res = exact_sequential_accept(inst)
        assert res.total_accept <= 1e-12
        assert res.measurement_accept == 0.0
        assert abs(res.reject - 1.0) <= 1e-9

    def test_check_branch_halting_mass(self):
        """The check fires with probability q each iteration; with zero
        measurements all its mass lands in reject, leaving (1-q)^k alive."""
        rho = basis_state(QUBIT, (0,)).density()
        inst = SequentialInstance((_zero_measurement(),) * 2, rho, eta=1.0)
        res = exact_sequential_accept(inst)
        q = inst.check_probability
        survived = (1 - q) ** inst.k
        assert abs(res.reject - 1.0) <= 1e-9
        assert abs((res.reject - survived) - (1 - survived)) <= 1e-9

    def test_probability_conservation(self):
        for t in range(20):
            rng = trial_rng(11, t)
            dim = int(rng.integers(2, 9))
            shape = RegisterShape((dim,))
            n = int(rng.integers(1, 5))
            ms = tuple(
                TwoOutcomeMeasurement(
                    random_projector(rng, shape, rank=int(rng.integers(1, dim))),
                    is_projector=True,
                )
                for _ in range(n)
            )
            inst = SequentialInstance(ms, random_density_operator(rng, shape), eta=0.5)
            res = exact_sequential_accept(inst)
            assert res.max_conservation_error <= 1e-9
            assert abs(res.total_accept + res.reject - 1.0) <= 1e-9

    def test_case2_soundness_bound(self):
        for t in range(20):
            rng = trial_rng(12, t)
            dim = int(rng.integers(2, 9))
            shape = RegisterShape((dim,))
            n = int(rng.integers(1, 5))
            ms = tuple(
                TwoOutcomeMeasurement(
                    random_projector(rng, shape, rank=int(rng.integers(1, dim))),
                    is_projector=True,
                )
                for _ in range(n)
            )
            inst = SequentialInstance(ms, random_density_operator(rng, shape), eta=0.5)
            res = exact_sequential_accept(inst)
            bound = 2.0 * inst.k * inst.zeta()
            assert res.measurement_accept <= bound + 1e-9
            assert res.total_accept <= bound + 1e-9

    def test_zeta_zero_means_no_measurement_accepts(self):
        rho = basis_state(QUBIT, (1,)).density()
        proj0 = TwoOutcomeMeasurement(
            HermitianOperator(QUBIT, np.diag([1.0, 0.0])), is_projector=True
        )
        inst = SequentialInstance((proj0,), rho, eta=0.5)
        assert inst.zeta() == 0.0
        res = exact_sequential_accept(inst)
        assert res.measurement_accept <= 1e-12

    def test_dimension_cap(self):
        shape = RegisterShape((65,))
        m = TwoOutcomeMeasurement(HermitianOperator(shape, np.zeros((65, 65))), is_projector=True)
        rho = DensityOperator(shape, np.eye(65) / 65)
        with pytest.raises(ValueError):
            exact_sequential_accept(SequentialInstance((m,), rho, eta=1.0))


class TestCaseOneFamilies:
    def test_single_certain_measurement(self):
        inst = certain_member_instance(1, eta=1.0)
        res = exact_sequential_accept(inst)
        assert res.total_accept >= 1.0 / 7.0 - 1.0  # threshold trivial at n = 1
        assert res.total_accept > 0.3  # recorded regression floor

    def test_anti_zeno_sweep(self):
        rows = completeness_bound_sweep(anti_zeno_sequential_instance, (4, 8, 16))
        for row in rows:
            assert row.accept_exact >= row.threshold - 1e-9

    def test_certain_member_sweep_nontrivial_threshold(self):
        rows = completeness_bound_sweep(certain_member_instance, (8, 16, 32))
        for row in rows:
            assert row.accept_exact >= row.threshold - 1e-9
        # the n = 32 threshold is strictly positive, so the check has teeth
        assert rows[-1].threshold > 0


class TestSampledRuns:
    def test_single_run_statistics(self):
        inst = certain_member_instance(2, eta=1.0)
        exact = exact_sequential_accept(inst).total_accept
        trials = 10_000
        rng = trial_rng(13, 0)
        count = sum(run_sequential_sampled(inst, rng) for _ in range(trials))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma

    def test_return_types(self):
        inst = certain_member_instance(2, eta=1.0)
        assert type(run_sequential_sampled(inst, trial_rng(13, 1))) is bool
        assert type(run_sequential_sampled_batch(inst, trial_rng(13, 2), 5)) is int

    def test_batch_statistics_random_instances(self):
        trials = 10_000
        for t in range(20):
            rng = trial_rng(14, t)
            dim = int(rng.integers(2, 5))
            shape = RegisterShape((dim,))
            n = int(rng.integers(1, 4))
            ms = tuple(
                TwoOutcomeMeasurement(
                    random_projector(rng, shape, rank=int(rng.integers(1, dim))),
                    is_projector=True,
                )
                for _ in range(n)
            )
            inst = SequentialInstance(ms, random_density_operator(rng, shape, rank=1), eta=1.0)
            exact = exact_sequential_accept(inst).total_accept
            count = run_sequential_sampled_batch(inst, trial_rng(15, t), trials)
            sigma = math.sqrt(max(exact * (1 - exact), 0.0) / trials)
            assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    def test_mixed_initial_state(self):
        rng = trial_rng(16, 0)
        shape = RegisterShape((3,))
        ms = (
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=1), is_projector=True),
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=2), is_projector=True),
        )
        rho = random_density_operator(rng, shape)
        inst = SequentialInstance(ms, rho, eta=0.5)
        exact = exact_sequential_accept(inst).total_accept
        trials = 10_000
        count = run_sequential_sampled_batch(inst, trial_rng(16, 1), trials)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma


class TestValidation:
    def test_requires_projectors(self):
        soft = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
        with pytest.raises(ValueError):
            SequentialInstance((soft,), basis_state(QUBIT, (0,)).density(), eta=0.5)

    def test_shape_mismatch(self):
        rho = random_density_operator(trial_rng(17, 0), RegisterShape((3,)))
        with pytest.raises(ValueError):
            SequentialInstance((_zero_measurement(),), rho, eta=0.5)
