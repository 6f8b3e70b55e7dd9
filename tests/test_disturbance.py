"""The control-qubit sequential test: exact recursion, bounds, sampled runs.

``_reference_sequential_accept`` below is the block recursion the exact
oracle used before it became one stacked Kraus step; the oracle is held to it
on random, multi-register, rank-deficient and degenerate-family instances.
``_per_member_sequential_accept`` is the Kraus step with one product per
member; the oracle, which multiplies each distinct member once, is held to
it bit for bit.
``_reference_sequential_runs`` is the sampler loop that split the live trials
by member; the one-step sampler is held to it flag for flag and draw for draw.
Each row of ``sample_blocks`` is held to a single run on its own stream, and
the halting cells the core draws to the law of the oracle's recursion,
``_sequential_law``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqmeas import (
    DensityOperator,
    HermitianOperator,
    PureState,
    RegisterShape,
    SequentialInstance,
    TwoOutcomeMeasurement,
    basis_state,
    exact_sequential_accept,
    plus_state,
    run_sequential_sampled,
    run_sequential_sampled_batch,
    sequential_iteration_count,
    completeness_bound_sweep,
    trial_blocks,
    trial_rng,
)
from seqmeas.disturbance import (
    SequentialExactResult,
    _sequential_law,
    _sequential_runs,
    anti_zeno_sequential_instance,
    certain_member_instance,
    sample_blocks,
)
from seqmeas.gates import HADAMARD
from seqmeas.rng import _CHUNK
from seqmeas.sampling import random_density_operator, random_projector, random_pure_state, random_unitary
from test_trial_batches import _choice_rows, _merged_cells

QUBIT = RegisterShape((2,))
RESULT_FIELDS = ("total_accept", "check_accept", "measurement_accept", "reject")


def _reference_sequential_accept(inst):
    """The block recursion, frozen: per iteration, conjugate tau by H (x) I for
    the check, and update the control-1 block and the off-diagonal blocks of
    the surviving operator one by one."""
    d = inst.initial.shape.total_dim
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    tau = np.kron(np.outer(plus, plus), inst.initial.matrix)
    h_ext = np.kron(HADAMARD, np.eye(d))
    mats = np.stack([m.accept_op.matrix for m in inst.measurements])
    mean_mat = mats.mean(axis=0)
    q = inst.check_probability
    check_acc = meas_acc = reject = worst = 0.0
    for _ in range(inst.k):
        before = float(np.trace(tau).real)
        rotated = h_ext @ tau @ h_ext
        p_check_one = float(np.trace(rotated[d:, d:]).real)
        check_acc += q * p_check_one
        reject += q * (before - p_check_one)
        block = tau[d:, d:]
        hit_mass = float(np.trace(mean_mat @ block).real)
        meas_acc += (1.0 - q) * hit_mass
        sandwich = np.einsum("jab,bc,jcd->ad", mats, block, mats) / inst.n
        new_tau = tau.copy()
        new_tau[d:, d:] = block - mean_mat @ block - block @ mean_mat + sandwich
        new_tau[:d, d:] = tau[:d, d:] - tau[:d, d:] @ mean_mat
        new_tau[d:, :d] = tau[d:, :d] - mean_mat @ tau[d:, :d]
        tau = (1.0 - q) * new_tau
        after = float(np.trace(tau).real)
        worst = max(worst, abs(before - q * before - (1.0 - q) * hit_mass - after))
    reject += float(np.trace(tau).real)
    total = check_acc + meas_acc
    return SequentialExactResult(min(1.0, total), check_acc, meas_acc, min(1.0, reject), worst)


def _random_instance(rng, shape, n, eta=0.5, rank=None):
    """n random projective measurements of rank 1..d-1 and a random state of the given rank."""
    d = shape.total_dim
    ms = tuple(
        TwoOutcomeMeasurement(random_projector(rng, shape, rank=int(rng.integers(1, d))), is_projector=True)
        for _ in range(n)
    )
    return SequentialInstance(ms, random_density_operator(rng, shape, rank=rank), eta=eta)


def _table_instance(seed, t):
    """Trial t of the seed-11 and seed-12 tables below."""
    rng = trial_rng(seed, t)
    dim = int(rng.integers(2, 9))
    return _random_instance(rng, RegisterShape((dim,)), int(rng.integers(1, 5)))


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
            res = exact_sequential_accept(_table_instance(11, t))
            assert res.max_conservation_error <= 1e-9
            assert abs(res.total_accept + res.reject - 1.0) <= 1e-9

    def test_case2_soundness_bound(self):
        for t in range(20):
            inst = _table_instance(12, t)
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


def _identity_measurement(shape):
    return TwoOutcomeMeasurement(HermitianOperator.identity(shape), is_projector=True)


def _assert_matches_reference(inst):
    res, ref = exact_sequential_accept(inst), _reference_sequential_accept(inst)
    for name in RESULT_FIELDS:
        assert abs(getattr(res, name) - getattr(ref, name)) <= 1e-12, name
    assert res.max_conservation_error <= 1e-9


class TestAgainstBlockRecursion:
    """The stacked Kraus step against the frozen block recursion, to 1e-12 on
    every result field."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_tables(self, seed):
        for t in range(20):
            _assert_matches_reference(_table_instance(seed, t))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_multi_register_shapes(self, dims):
        rng = trial_rng(18, len(dims) * 10 + dims[-1])
        _assert_matches_reference(_random_instance(rng, RegisterShape(dims), 3))

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_rank_deficient_states(self, rank):
        rng = trial_rng(19, rank)
        _assert_matches_reference(_random_instance(rng, RegisterShape((5,)), 2, rank=rank))

    def test_pure_state_input(self):
        rng = trial_rng(19, 10)
        shape = RegisterShape((3, 2))
        inst = _random_instance(rng, shape, 2)
        pure = SequentialInstance(inst.measurements, random_pure_state(rng, shape).density(), eta=0.5)
        _assert_matches_reference(pure)

    @pytest.mark.parametrize("kind", ["zero", "identity", "repeated"])
    def test_degenerate_families(self, kind):
        rng = trial_rng(20, ["zero", "identity", "repeated"].index(kind))
        shape = RegisterShape((4,))
        ms = _random_instance(rng, shape, 2).measurements
        extra = {
            "zero": (_zero_measurement(shape),),
            "identity": (_identity_measurement(shape),),
            "repeated": ms * 2,
        }[kind]
        inst = SequentialInstance(ms + extra, random_density_operator(rng, shape), eta=0.5)
        _assert_matches_reference(inst)

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.1])
    def test_eta_values(self, eta):
        rng = trial_rng(21, int(10 * eta))
        _assert_matches_reference(_random_instance(rng, RegisterShape((3,)), 3, eta=eta))

    def test_dimension_sixteen(self):
        rng = trial_rng(22, 0)
        _assert_matches_reference(_random_instance(rng, RegisterShape((16,)), 2, eta=1.0))

    def test_case_one_families(self):
        for inst in (anti_zeno_sequential_instance(8), certain_member_instance(16)):
            _assert_matches_reference(inst)


def _per_member_sequential_accept(inst):
    """The stacked Kraus step with one K_j tau K_j per member, frozen: the
    oracle before it multiplied each distinct member once."""
    d = inst.initial.shape.total_dim
    rho = inst.initial.density() if isinstance(inst.initial, PureState) else inst.initial
    tau = np.kron(plus_state().density().matrix, rho.matrix)
    mats = inst.accept_ops
    kraus = np.broadcast_to(np.eye(2 * d), (inst.n, 2 * d, 2 * d)).astype(mats.dtype)
    kraus[:, d:, d:] -= mats
    minus = np.kron(np.array([[0.5, -0.5], [-0.5, 0.5]]), np.eye(d))
    hit = np.zeros((2 * d, 2 * d), dtype=mats.dtype)
    hit[d:, d:] = mats.mean(axis=0)
    functionals = np.stack([np.eye(2 * d), minus.T, hit.T]).reshape(3, -1)
    q = inst.check_probability
    masses = np.empty((inst.k + 1, 3))
    for i in range(inst.k):
        masses[i] = (functionals @ tau.reshape(-1)).real
        tau = (1.0 - q) / inst.n * (kraus @ tau @ kraus).sum(axis=0)
    masses[inst.k] = (functionals @ tau.reshape(-1)).real
    before, check_one, hit_mass = masses[:-1].T
    after = masses[1:, 0]
    drift = np.abs(before - q * before - (1.0 - q) * hit_mass - after)
    check_acc = q * check_one.sum()
    meas_acc = (1.0 - q) * hit_mass.sum()
    reject = q * (before - check_one).sum() + masses[inst.k, 0]
    total = check_acc + meas_acc
    return SequentialExactResult(
        float(min(1.0, total)), float(check_acc), float(meas_acc), float(min(1.0, reject)), float(drift.max())
    )


def _interleaved_instance():
    """Members A, B, A, B: two distinct Kraus operators, each used twice,
    not adjacent."""
    rng = trial_rng(23, 0)
    shape = RegisterShape((3,))
    a, b = (TwoOutcomeMeasurement(random_projector(rng, shape, rank=1), is_projector=True) for _ in range(2))
    return SequentialInstance((a, b, a, b), random_density_operator(rng, shape), eta=0.5)


DISTINCT_MEMBER_CASES = {
    **{f"certain-member-{n}": (lambda n=n: certain_member_instance(n)) for n in (8, 16, 32)},
    **{f"anti-zeno-{n}": (lambda n=n: anti_zeno_sequential_instance(n)) for n in (4, 8, 16)},
    "interleaved-abab": _interleaved_instance,
    **{f"case2-{t}": (lambda t=t: _table_instance(12, t)) for t in range(6)},
}


@pytest.mark.parametrize("case", list(DISTINCT_MEMBER_CASES))
def test_distinct_members_bit_identical_to_per_member_step(case):
    """One K tau K per distinct member, summed back in member order, gives
    every result field bit for bit."""
    inst = DISTINCT_MEMBER_CASES[case]()
    assert exact_sequential_accept(inst) == _per_member_sequential_accept(inst)


def _reference_sequential_runs(inst, rng, trials):
    """The per-member sampler loop, frozen: the check rows are scored
    together, the measurement rows member by member, and the survivors
    written back through hand-kept index lists.  The member of a row is
    min(floor(u n), n - 1) of its member uniform u."""
    def row_dot(a, b):
        return np.einsum("ij,ij->i", a.real, b.real) + np.einsum("ij,ij->i", a.imag, b.imag)

    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    states = np.kron(plus, _choice_rows(inst.initial, rng, trials))
    d = inst.initial.shape.total_dim
    q = inst.check_probability
    mats = [m.accept_op.matrix for m in inst.measurements]
    alive = np.ones(trials, dtype=bool)
    accepted = np.zeros(trials, dtype=bool)
    for _ in range(inst.k):
        idx_alive = np.flatnonzero(alive)
        if idx_alive.size == 0:
            break
        u_branch = rng.random(idx_alive.size)
        js = np.minimum(np.floor(rng.random(idx_alive.size) * inst.n).astype(int), inst.n - 1)
        u_out = rng.random(idx_alive.size)
        live = states[idx_alive]
        check_mask = u_branch < q
        diff = (live[check_mask, :d] - live[check_mask, d:]) / math.sqrt(2)
        p_one = np.clip(row_dot(diff, diff), 0.0, 1.0)
        accepted[idx_alive[check_mask]] = u_out[check_mask] < p_one
        meas_rows = np.flatnonzero(~check_mask)
        still_alive_rows = []
        for j in range(inst.n):
            rows = meas_rows[js[meas_rows] == j]
            if rows.size == 0:
                continue
            bottom = live[rows, d:]
            hit = bottom @ mats[j].T
            p_acc = np.clip(row_dot(hit, hit), 0.0, 1.0)
            acc = u_out[rows] < p_acc
            accepted[idx_alive[rows[acc]]] = True
            keep = rows[~acc]
            new = live[keep].copy()
            new[:, d:] -= hit[~acc]
            new /= np.linalg.norm(new, axis=1)[:, None]
            states[idx_alive[keep]] = new
            still_alive_rows.append(keep)
        new_alive = np.zeros(trials, dtype=bool)
        if still_alive_rows:
            new_alive[idx_alive[np.concatenate(still_alive_rows)]] = True
        alive = new_alive
    return accepted


SAMPLER_CASES = [
    "single-member", "repeated-members", "zero-and-identity", "identity-only", "pure",
    "rank-deficient", "full-rank", "eta-1", "eta-1/2", "eta-1/10", "cli-certain-member",
    "degenerate-rank-deficient", "pure-state",
]


def _sampler_case(name):
    """The instances the one-step sampler is held to the frozen loop on.  An
    L = 0 member, and an L = I member once it has missed (the miss zeroes the
    control-1 block), put the hit probability exactly at 0."""
    rng = trial_rng(23, SAMPLER_CASES.index(name))
    shape = RegisterShape((4,))
    if name == "single-member":
        return _random_instance(rng, RegisterShape((3,)), 1)
    if name == "repeated-members":
        ms = _random_instance(rng, shape, 2).measurements
        return SequentialInstance(ms * 2, random_density_operator(rng, shape), eta=0.5)
    if name == "zero-and-identity":
        ms = (_zero_measurement(shape), _identity_measurement(shape))
        return SequentialInstance(ms, random_density_operator(rng, shape), eta=0.5)
    if name == "identity-only":
        return SequentialInstance((_identity_measurement(shape),), random_pure_state(rng, shape).density(), eta=1.0)
    if name == "pure":
        inst = _random_instance(rng, RegisterShape((3, 2)), 2)
        return SequentialInstance(inst.measurements, random_pure_state(rng, inst.initial.shape).density(), eta=0.5)
    if name == "rank-deficient":
        return _random_instance(rng, RegisterShape((5,)), 3, rank=2)
    if name == "full-rank":
        return _random_instance(rng, RegisterShape((5,)), 3, rank=5)
    if name.startswith("eta-"):
        return _random_instance(rng, RegisterShape((3,)), 3, eta=float(Fraction(name[4:])))
    if name == "degenerate-rank-deficient":
        # spectrum (1/2, 1/2, 0, 0): a plateau in the ensemble cdf
        v = random_unitary(rng, 4)[:, :2]
        ms = _random_instance(rng, shape, 3).measurements
        return SequentialInstance(ms, DensityOperator(shape, v @ v.conj().T / 2), eta=0.5)
    if name == "pure-state":
        ms = _random_instance(rng, shape, 3).measurements
        return SequentialInstance(ms, random_pure_state(rng, shape), eta=0.5)
    assert name == "cli-certain-member"
    return certain_member_instance(4, eta=1.0)


def _assert_sampler_matches_reference(inst, seed, trials):
    rng, ref_rng = trial_rng(seed, trials), trial_rng(seed, trials)
    cells = _sequential_runs(inst, lambda live: rng.random(live.size), trials)
    assert np.array_equal(cells % 3 != 0, _reference_sequential_runs(inst, ref_rng, trials))
    assert rng.random() == ref_rng.random()


class TestSamplerAgainstMemberLoop:
    """The one-step sampler against the frozen per-member loop: the same
    accept flag for every trial, and the generator left at the same draw."""

    @pytest.mark.parametrize("trials", [1, 400])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_tables(self, seed, trials):
        for t in range(20):
            _assert_sampler_matches_reference(_table_instance(seed, t), 100 * seed + t, trials)

    @pytest.mark.parametrize("trials", [1, 400])
    @pytest.mark.parametrize("name", SAMPLER_CASES)
    def test_cases(self, name, trials):
        _assert_sampler_matches_reference(_sampler_case(name), 24, trials)


def _block_cells(inst, seed, indices):
    """Trial t's halting cell on row t of the stream blocks of `indices`."""
    return np.concatenate(list(sample_blocks(inst, trial_blocks(seed, indices))))


def _commuting_table():
    """Three projectors diagonal in one random basis of C^4, each onto a
    random nonempty proper subset of it, and a random mixed input."""
    rng = trial_rng(26, 0)
    shape = RegisterShape((4,))
    basis = random_unitary(rng, 4)
    ms = []
    for _ in range(3):
        bits = np.zeros(4)
        bits[rng.permutation(4)[: int(rng.integers(1, 4))]] = 1.0
        proj = HermitianOperator(shape, basis @ np.diag(bits) @ basis.conj().T)
        ms.append(TwoOutcomeMeasurement(proj, is_projector=True))
    return SequentialInstance(tuple(ms), random_density_operator(rng, shape), eta=0.5)


STREAM_CASES = {
    "cli-certain-member": lambda: certain_member_instance(4, eta=1.0),
    "anti-zeno-4": lambda: anti_zeno_sequential_instance(4),
    "random-table-d3": lambda: _random_instance(trial_rng(25, 0), RegisterShape((3,)), 3),
    "pure-state": lambda: _sampler_case("pure-state"),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_stream_block_rows_match_single_runs(case):
    """Row t of ``sample_blocks`` is a single run on the t-th stream: the
    same halting cell as the core on that stream's generator, and the same
    verdict as ``run_sequential_sampled``.  The indices start at 1000, as
    the CLI's do."""
    inst = STREAM_CASES[case]()
    indices = range(1000, 1300)
    cells = _block_cells(inst, 7, indices)
    single = [
        _sequential_runs(inst, lambda live, rng=trial_rng(7, i): rng.random(live.size), 1)[0] for i in indices
    ]
    assert cells.tolist() == single
    assert (cells % 3 != 0).tolist() == [run_sequential_sampled(inst, trial_rng(7, i)) for i in indices]


def test_stream_blocks_across_chunk_boundaries():
    """Past one chunk of ``trial_blocks``, every row still equals the core on
    its own stream."""
    inst = anti_zeno_sequential_instance(4)
    indices = range(500, 500 + 2 * _CHUNK + 7)
    single = [_sequential_runs(inst, lambda live, rng=trial_rng(8, i): rng.random(live.size), 1)[0] for i in indices]
    assert _block_cells(inst, 8, indices).tolist() == single


def _halting_law(inst):
    """The law of the halting cell from the oracle's recursion: cell 3i + c
    has mass (q, q, 1 - q)[c] times column c of row i, and cell 3k the mass
    that survives all k iterations."""
    masses, survived, _ = _sequential_law(inst)
    q = inst.check_probability
    return np.append((masses * [q, q, 1.0 - q]).reshape(-1), survived)


LAW_CASES = {
    "cli-certain-member": lambda: certain_member_instance(4, eta=1.0),
    "anti-zeno-4": lambda: anti_zeno_sequential_instance(4),
    "commuting-table": _commuting_table,
}


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_halting_cells_follow_the_law(case):
    """The core's halting-cell counts over stream blocks, merged cell by
    cell, within 4 sigma of the law of ``_sequential_law``."""
    inst = LAW_CASES[case]()
    law = _halting_law(inst)
    trials = 20000
    counts = np.bincount(_block_cells(inst, 21, range(trials)), minlength=law.size)
    assert counts.size == law.size
    cells = _merged_cells(counts, trials * law)
    assert len(cells) >= 3
    for obs, exp in cells:
        p = exp / trials
        assert abs(obs - exp) <= 4.0 * math.sqrt(trials * p * (1.0 - p)) + 1e-9, (obs, exp)


@pytest.mark.parametrize("case", sorted(LAW_CASES) + sorted(DISTINCT_MEMBER_CASES))
def test_oracle_is_the_sum_of_the_law(case):
    """The law's cells total 1 to 1e-12, and every field of
    ``exact_sequential_accept`` is its branch's masses summed over the
    iterations and scaled once by the branch probability, bit for bit; the
    scaled cells add up to the same fields to rounding."""
    inst = {**LAW_CASES, **DISTINCT_MEMBER_CASES}[case]()
    masses, survived, drift = _sequential_law(inst)
    law = _halting_law(inst)
    assert law.shape == (3 * inst.k + 1,) and law.min() >= -1e-15
    assert abs(math.fsum(law) - 1.0) <= 1e-12
    q = inst.check_probability
    res = exact_sequential_accept(inst)
    assert res.check_accept == q * masses[:, 1].sum()
    assert res.measurement_accept == (1.0 - q) * masses[:, 2].sum()
    assert res.reject == min(1.0, q * masses[:, 0].sum() + survived)
    assert res.total_accept == min(1.0, res.check_accept + res.measurement_accept)
    assert res.max_conservation_error == drift.max()
    for cell, field in ((1, res.check_accept), (2, res.measurement_accept)):
        assert abs(math.fsum(law[cell:-1:3]) - field) <= 1e-15
    assert abs(math.fsum(law[0:-1:3]) + survived - res.reject) <= 1e-15


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
        assert run_sequential_sampled_batch(inst, trial_rng(13, 2), 0) == 0

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

    def test_pure_initial_state(self):
        """A PureState input: the oracle propagates its density operator, bit
        for bit, and the sampler (which draws no ensemble index for it)
        agrees at 4 sigma."""
        rng = trial_rng(16, 2)
        shape = RegisterShape((3,))
        ms = (
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=1), is_projector=True),
            TwoOutcomeMeasurement(random_projector(rng, shape, rank=2), is_projector=True),
        )
        psi = random_pure_state(rng, shape)
        inst = SequentialInstance(ms, psi, eta=0.5)
        res = exact_sequential_accept(inst)
        assert res == exact_sequential_accept(SequentialInstance(ms, psi.density(), eta=0.5))
        exact = res.total_accept
        trials = 10_000
        count = run_sequential_sampled_batch(inst, trial_rng(16, 3), trials)
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
