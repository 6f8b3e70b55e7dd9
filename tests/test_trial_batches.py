"""Batched trials on shared survivor paths against per-trial runs.

``sample_blocks`` walks each instance's survivor path once and decides every
trial's halting step from that trial's own stream-block row, walking the
path on the system space with the accept operator L alone.  These tests hold
it, and the single-run and shared-generator samplers built on the same
paths, to a frozen copy of the row-block sampler they replaced
(``_reference_*`` below), which walks the ancilla-extended space with Pi
itself (for an averaged family of non-projectors, such as de-Merlinization's
witness slices, the Pi of the one-ancilla dilation of its mean): trial for
trial on the same generators, count for count on a shared one, and with no
more applier calls per single run.  Every draw source of the one halting
core is held to them: single runs, a shared generator and ``sample_blocks``
(one stream-block row per trial, read a block at a time).  A Naimark form's
run is the single-applier instance of its induced L, and the reference
receives the form alongside it and walks the form's Pi.  The cases include
Naimark forms of one L that differ off the ancilla-0 block, so the two walks
agree only because Delta Pi Delta = L (x) |0><0| for every form.  The
anti-Zeno count taken from one all-reject walk, over stream blocks, is held
to the per-trial ``measure_collapse`` loop it replaced.  Last, the halting
steps the core draws are held to the exact halting law ``mw_halting_law``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from seqmeas import (
    AveragedInstance,
    FunctionTable,
    HermitianOperator,
    NaimarkForm,
    PermutationAction,
    PureState,
    RegisterShape,
    TwoOutcomeMeasurement,
    UnitarySet,
    anti_zeno_sequence,
    anti_zeno_state,
    basis_state,
    bell_pair,
    build_averaged_naimark,
    demerlinize_accept_exact,
    demerlinize_instance,
    demerlinize_test,
    eigen_instance,
    eigen_test,
    g_iso_accept_exact,
    g_iso_instance,
    g_iso_test,
    genuine_ent_accept_exact,
    genuine_ent_instance,
    genuine_ent_test,
    measure_collapse,
    membership_accept_exact,
    membership_instance,
    merlin_slice_operators,
    mw_accept_from_spectrum,
    mw_halting_law,
    one_ancilla_dilation,
    or_round_count,
    or_test,
    or_test_accept_exact,
    or_test_instance,
    plus_state,
    product_state,
    qft_matrix,
    reject_path,
    run_averaged_or_sampled,
    run_mw_sampled,
    run_mw_sampled_batch,
    sample_blocks,
    spectral_measures,
    state_membership_test,
    trial_blocks,
    trial_rng,
    unitary_s_iso_accept_exact,
    unitary_s_iso_instance,
    unitary_s_iso_test,
)
from seqmeas.experiments import _accept_ever_count, _demerlinize_case1, _desk_giso_instance
from seqmeas.gates import PAULI_X
from seqmeas.measurement import is_idempotent
from seqmeas.disturbance import _row_dot
from seqmeas.quantum_or import _averaged_operator, _draw_rows, _ensemble, _mean_applier, _single_measure, _survivors
from seqmeas.rng import _CHUNK
from seqmeas.states import DensityOperator, eigendecompose
from seqmeas.testers import _eigen_measure, _g_iso_parts, _genuine_measure, _membership_law, _u_iso_parts
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
    random_unitary,
)
from test_testers import assert_law_matches_reference

QUBIT = RegisterShape((2,))
_STEPS = (None, "pi", "delta")


# -- the reference: one row per trial, vectorised across the live ones -----------


def _embed(rows: np.ndarray, d_anc: int) -> np.ndarray:
    """Each row tensored with the ancilla state |0...0> (ancilla index fastest)."""
    out = np.zeros((rows.shape[0], rows.shape[1] * d_anc), dtype=np.complex128)
    out[:, ::d_anc] = rows
    return out


def _averaged_pi(appliers):
    """Pi = sum_i L_{i+1} (x) Q|i><i|Q^{-1} on a block of extended vectors.

    Applied structurally: Fourier transform each trial's ancilla index, move
    it ahead of the system index with one transpose so that ancilla value i
    of trial t is the contiguous row ``a[t, i]``, apply the i-th projector to
    that row in place, and transpose and transform back.
    """
    n = len(appliers)
    q = qft_matrix(n)  # symmetric, so Q.T = Q and (Q^{-1}).T = conj(Q)
    q_inv_t = q.conj()

    def apply(block: np.ndarray) -> np.ndarray:
        trials = block.shape[0]
        a = (block.reshape(-1, n) @ q_inv_t).reshape(trials, -1, n).transpose(0, 2, 1).copy()
        for t in range(trials):
            for i in range(n):
                a[t, i] = appliers[i](a[t, i])
        return (a.transpose(0, 2, 1).reshape(-1, n) @ q).reshape(block.shape)

    return apply


def _reference_amplify(apply_pi, rows, d_anc, n_rounds, rng):
    """Per trial, the round it halted in (``n_rounds`` if it rejected) and
    its halting step as an index into ``_STEPS``."""
    trials, d_sys = rows.shape
    rounds = np.full(trials, n_rounds)
    steps = np.zeros(trials, dtype=np.int8)
    idx = np.arange(trials)
    live = _embed(rows, d_anc)
    for r in range(1, n_rounds + 1):
        hit = apply_pi(live)
        halt = rng.random(idx.size) < _row_dot(live, hit)
        if np.count_nonzero(halt):
            rounds[idx[halt]] = r
            steps[idx[halt]] = 1
            live, hit, idx = live[~halt], hit[~halt], idx[~halt]
        live = live - hit
        live /= np.sqrt(_row_dot(live, live))[:, None]
        kept = live.reshape(idx.size, d_sys, d_anc)[:, :, 0]
        p_delta = _row_dot(kept, kept)
        halt = rng.random(idx.size) >= p_delta
        if np.count_nonzero(halt):
            rounds[idx[halt]] = r
            steps[idx[halt]] = 2
            kept, p_delta, idx = kept[~halt], p_delta[~halt], idx[~halt]
        if idx.size == 0:
            break
        live = _embed(kept / np.sqrt(p_delta)[:, None], d_anc)
    return rounds, steps


def _reference_form(inst, form=None):
    """(apply_pi, d_anc) of an instance, built as the reference built them.

    A Naimark form given with the instance is walked with its own Pi.
    Otherwise ``_averaged_pi`` dilates a family of projectors only; any
    other averaged family (de-Merlinization's witness slices) walks the
    one-ancilla dilation of its mean, read off the appliers column by column.
    """
    if form is not None:
        pi_t = form.pi.T
        return (lambda x: x @ pi_t), form.ancilla_dim
    eye = np.eye(inst.initial.shape.total_dim, dtype=np.complex128)
    mats = [np.stack([a(e) for e in eye], axis=1) for a in inst.appliers]
    if all(is_idempotent(m) for m in mats):
        return _averaged_pi(inst.appliers), len(inst.appliers)
    lam = HermitianOperator(inst.initial.shape, sum(mats) / len(mats))
    return _reference_form(inst, one_ancilla_dilation(lam))


def _choice_rows(initial, rng, size):
    """One input vector per trial, as numpy draws from an ensemble: no draw
    for a pure input, one ``rng.choice`` over the eigen-ensemble for a
    mixed one."""
    if isinstance(initial, PureState):
        return np.repeat(initial.amplitudes[None, :], size, axis=0)
    dec = eigendecompose(initial)
    weights = np.clip(dec.eigenvalues, 0.0, None)
    return dec.eigenvectors.T[rng.choice(weights.size, p=weights / weights.sum(), size=size)]


def _reference_run(inst, rng, form=None):
    apply_pi, d_anc = _reference_form(inst, form)
    rows = _choice_rows(inst.initial, rng, 1)
    rounds, steps = _reference_amplify(apply_pi, rows, d_anc, inst.n_rounds, rng)
    return int(rounds[0]), _STEPS[steps[0]]


def _reference_shared(inst, rng, trials, form=None):
    """Each trial's (round, halting step) when `trials` trials share `rng`."""
    apply_pi, d_anc = _reference_form(inst, form)
    rows = _choice_rows(inst.initial, rng, trials)
    rounds, steps = _reference_amplify(apply_pi, rows, d_anc, inst.n_rounds, rng)
    return [(int(r), _STEPS[s]) for r, s in zip(rounds, steps)]


def _reference_count(inst, rng, trials, form=None):
    return sum(step is not None for _, step in _reference_shared(inst, rng, trials, form))


def _outcome(result):
    return result.rounds_used, result.halting_step


def _step_outcomes(steps, n_rounds):
    """The core's halting steps (2N for a rejection) as (round, halting step)."""
    return [
        (int(s) // 2 + 1, _STEPS[int(s) % 2 + 1]) if s < 2 * n_rounds else (n_rounds, None) for s in steps
    ]


def _block_outcomes(inst, seed, indices):
    """Trial t's outcome on row t of the stream blocks of `indices`."""
    steps = np.concatenate(list(sample_blocks(inst, trial_blocks(seed, indices))))
    return _step_outcomes(steps, inst.n_rounds)


# -- instances -----------------------------------------------------------------


def _form_instance(form, initial, n_rounds):
    """A Naimark form's run, (instance, form): the single applier of its
    induced operator L, with the form kept for the reference's walk on Pi."""
    lam = form.induced_operator().matrix
    return AveragedInstance((lambda v: lam @ v,), initial, n_rounds), form


def _projectors(seed, dim, n):
    rng = trial_rng(91, seed)
    shape = RegisterShape((dim,))
    return [
        TwoOutcomeMeasurement(random_projector(rng, shape, rank=1 + i % (dim - 1)), is_projector=True)
        for i in range(n)
    ]


def _appliers(measurements):
    return [(lambda v, m=m.accept_op.matrix: m @ v) for m in measurements]


def _dilated(seed, mixed, n_rounds=4):
    rng = trial_rng(92, seed)
    shape = RegisterShape((int(rng.integers(2, 6)),))
    lam = random_povm_contraction(rng, shape)
    initial = random_density_operator(rng, shape) if mixed else random_pure_state(rng, shape)
    return _form_instance(one_ancilla_dilation(lam), initial, n_rounds)


def _averaged(seed, mixed, n_rounds=None):
    ms = _projectors(seed, 4, 3)
    rng = trial_rng(93, seed)
    shape = ms[0].shape
    initial = random_density_operator(rng, shape, rank=2) if mixed else random_pure_state(rng, shape)
    return AveragedInstance(_appliers(ms), initial, n_rounds or or_round_count(len(ms), 0))


def _degenerate(seed, n_rounds=4):
    """A random L on a rank-deficient input with the degenerate spectrum
    (1/2, 1/2, 0, 0): its ensemble cdf has a plateau at the zero eigenvalue."""
    rng = trial_rng(97, seed)
    shape = RegisterShape((4,))
    v = random_unitary(rng, 4)[:, :2]
    initial = DensityOperator(shape, v @ v.conj().T / 2)
    return _form_instance(one_ancilla_dilation(random_povm_contraction(rng, shape)), initial, n_rounds)


def _reformed(case, isometry):
    """The same L through Pi' = (I (x) V) Pi (I (x) V^dagger), V an isometry
    from the form's ancilla that fixes |0>: Pi' differs from Pi off the
    ancilla-0 block, while Delta Pi' Delta = Delta Pi Delta = L (x) |0><0|."""
    inst, form = case
    big = np.kron(np.eye(form.system_shape.total_dim), isometry)
    pi = big @ form.pi @ big.conj().T
    return _form_instance(
        NaimarkForm(form.system_shape, (isometry.shape[0],), pi), inst.initial, inst.n_rounds
    )


_ANCILLA_PHASE = np.diag([1.0, np.exp(0.7j)])  # a phase on ancilla value 1
_QUTRIT_ANCILLA = np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8j]])  # |1> -> 0.6|1> + 0.8i|2>


def _certain_instance():
    """Input an eigenvector of L at eigenvalue 1: Pi halts every trial in round 1."""
    proj = TwoOutcomeMeasurement.projector(HermitianOperator(QUBIT, np.diag([1.0, 0.0])))
    return _form_instance(build_averaged_naimark([proj]), basis_state(QUBIT, (0,)), 3)


def _zero_instance():
    """The zero operator: no trial ever halts."""
    zero = TwoOutcomeMeasurement.projector(HermitianOperator(QUBIT, np.zeros((2, 2))))
    return _form_instance(build_averaged_naimark([zero]), plus_state(), 4)


def _least_kept_instance():
    """L with eigenvalue 1 - 2^-20 on the input: after a Pi rejection the
    Delta keep probability is 2^-20, the least a rejection allows (it is at
    least 1 - p_Pi, so it reaches 0 only where Pi halts every trial)."""
    lam = HermitianOperator(QUBIT, np.diag([1.0 - 2.0**-20, 0.0]))
    return _form_instance(one_ancilla_dilation(lam), basis_state(QUBIT, (0,)), 3)


def _always_kept_instance():
    """A projector family with a one-level ancilla: Delta keeps every trial."""
    ms = _projectors(7, 3, 1)
    inst = AveragedInstance(_appliers(ms), random_pure_state(trial_rng(94, 0), ms[0].shape), 5)
    return inst, None


def _demerlinize_desk():
    """The CLI's de-Merlinization instance: Gamma = P_a (x) |0><0|, psi = |0>."""
    gamma = HermitianOperator(RegisterShape((4, 2)), np.kron(np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([1.0, 0.0])))
    return gamma, basis_state(RegisterShape((4,)), (0,)), 2.0 / 3.0


def _demerlinize_random(message_dims=(2, 2), witness=3):
    """Seeded random Gamma in [0, I]: witness slices that are not projectors."""
    rng = trial_rng(96, witness)
    gamma = random_povm_contraction(rng, RegisterShape((*message_dims, witness)))
    return gamma, random_pure_state(rng, RegisterShape(message_dims)), 0.5


CASES = {
    "dense-pure": lambda: _dilated(0, mixed=False),
    "dense-mixed": lambda: _dilated(1, mixed=True),
    "ancilla-phase-pure": lambda: _reformed(_dilated(0, mixed=False), _ANCILLA_PHASE),
    "ancilla-phase-mixed": lambda: _reformed(_dilated(1, mixed=True), _ANCILLA_PHASE),
    "qutrit-ancilla-pure": lambda: _reformed(_dilated(0, mixed=False), _QUTRIT_ANCILLA),
    "qutrit-ancilla-mixed": lambda: _reformed(_dilated(1, mixed=True), _QUTRIT_ANCILLA),
    "averaged-pure": lambda: (_averaged(2, mixed=False), None),
    "averaged-mixed": lambda: (_averaged(3, mixed=True), None),
    "degenerate-mixed": lambda: _degenerate(0),
    "one-round-dense": lambda: _dilated(4, mixed=True, n_rounds=1),
    "one-round-averaged": lambda: (_averaged(5, mixed=False, n_rounds=1), None),
    "eigenvalue-one": _certain_instance,
    "zero-operator": _zero_instance,
    "least-delta-keep": _least_kept_instance,
    "delta-always-keeps": _always_kept_instance,
    "demerlinize-desk": lambda: (demerlinize_instance(*_demerlinize_desk()), None),
    "demerlinize-random": lambda: (demerlinize_instance(*_demerlinize_random()), None),
}


def _streams(seed, trials):
    return (trial_rng(seed, t) for t in range(trials))


@pytest.mark.parametrize("case", ["dense-pure", "dense-mixed", "averaged-mixed", "degenerate-mixed"])
def test_draw_rows_is_numpy_choice(case):
    """The one ensemble rule, ``_draw_rows`` on ``_ensemble``'s cdf, draws
    what numpy's ``rng.choice`` draws, index for index, and leaves the
    generator where it leaves it (a pure input draws nothing).  A zero
    eigenvalue, a plateau of the cdf, is never drawn."""
    initial = CASES[case]()[0].initial
    vectors, cdf = _ensemble(initial)
    for size in (1, 7, 2000):
        rng, ref = trial_rng(31, size), trial_rng(31, size)
        rows = _draw_rows(cdf, lambda live: rng.random(live.size), np.arange(size))
        assert np.array_equal(vectors[rows], _choice_rows(initial, ref, size))
        assert rng.random() == ref.random()
        if cdf is not None:
            assert np.all(np.diff(cdf, prepend=0.0)[rows] > 0.0)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("trials", [1, 300])
def test_trial_streams_match_single_runs(case, trials):
    """Trial t of the batch equals a single run, through either entry point,
    the reference and row t of the stream blocks, on the t-th stream: the
    same round and the same halting step."""
    inst, form = CASES[case]()
    expected = [_reference_run(inst, rng, form) for rng in _streams(11, trials)]
    assert [_outcome(run_mw_sampled(inst, rng)) for rng in _streams(11, trials)] == expected
    fields = inst.appliers, inst.initial, inst.n_rounds
    assert [_outcome(run_averaged_or_sampled(*fields, rng)) for rng in _streams(11, trials)] == expected
    assert _block_outcomes(inst, 11, range(trials)) == expected


@pytest.mark.parametrize("case", ["dense-mixed", "averaged-pure", "demerlinize-random"])
def test_chunked_sources_across_chunk_boundaries(case):
    """Past one chunk: ``trial_blocks`` reads its indices ``_CHUNK`` at a
    time, and every trial still equals the reference on its own stream.
    The run's indices start at 500, not 0: blocks are cut by position in
    the run, not by index."""
    inst, form = CASES[case]()
    indices = range(500, 500 + 2 * _CHUNK + 7)
    expected = [_reference_run(inst, trial_rng(19, i), form) for i in indices]
    assert _block_outcomes(inst, 19, indices) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_generator_trials_match_reference(case):
    """Trials sharing one generator, trial for trial against the reference
    on the same generator, and ``run_mw_sampled_batch``'s count of them."""
    inst, form = CASES[case]()
    for t in range(2):
        steps = _survivors(inst).shared_steps(trial_rng(20, t), 300)
        expected = _reference_shared(inst, trial_rng(20, t), 300, form)
        assert _step_outcomes(steps, inst.n_rounds) == expected
        count = run_mw_sampled_batch(inst, trial_rng(20, t), 300)
        assert count == sum(step is not None for _, step in expected)


def test_sample_blocks_reads_an_endless_run_lazily():
    """One block of an endless run of streams is read before the first
    result, whose first row equals a single run on the first stream."""
    inst, _ = CASES["dense-mixed"]()
    start = time.perf_counter()
    first = next(sample_blocks(inst, trial_blocks(0, itertools.count())))
    assert time.perf_counter() - start < 1.0
    assert first.size == _CHUNK
    assert _step_outcomes(first[:1], inst.n_rounds) == [_outcome(run_mw_sampled(inst, trial_rng(0, 0)))]


def test_demerlinize_desk_matches_dilated_reference():
    """The desk slices are projectors, so ``CASES`` holds them to
    ``_averaged_pi``; here their runs are held, trial for trial, to the
    walk on the one-ancilla dilation of the slice mean as well, the
    reference every non-projective family takes."""
    gamma, psi, eta = _demerlinize_desk()
    inst = demerlinize_instance(gamma, psi, eta)
    slices = merlin_slice_operators(gamma)
    lam = HermitianOperator(psi.shape, sum(s.matrix for s in slices) / len(slices))
    dilation = one_ancilla_dilation(lam)
    batch = _block_outcomes(inst, 18, range(300))
    assert batch == [_reference_run(inst, rng, dilation) for rng in _streams(18, 300)]
    assert 0 < sum(step is not None for _, step in batch) < 300


def _source_outcomes(inst, trials):
    """Each draw source's outcomes on one instance: stream blocks and one
    shared generator."""
    return {
        "blocks": _block_outcomes(inst, 12, range(trials)),
        "shared": _step_outcomes(_survivors(inst).shared_steps(trial_rng(12, 0), trials), inst.n_rounds),
    }


def test_edge_cases_halt_where_expected():
    """Boundaries of exactly 1 (Pi on an eigenvalue-1 input), 0 (the zero
    operator) and a Delta keep of exactly 1 (a one-level ancilla), through
    every draw source."""
    for outcomes in _source_outcomes(_certain_instance()[0], 50).values():
        assert outcomes == [(1, "pi")] * 50
    for outcomes in _source_outcomes(_zero_instance()[0], 50).values():
        assert outcomes == [(4, None)] * 50
    for outcomes in _source_outcomes(_always_kept_instance()[0], 200).values():
        assert all(step != "delta" for _, step in outcomes)
        assert 0 < sum(step == "pi" for _, step in outcomes) < 200


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_run_consumes_one_uniform_per_step(case):
    """After a single run the generator is exactly where the reference left it."""
    inst, form = CASES[case]()
    for t in range(40):
        new, ref = trial_rng(13, t), trial_rng(13, t)
        run_mw_sampled(inst, new)
        _reference_run(inst, ref, form)
        assert new.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_shared_generator_counts_match_reference(seed, mixed):
    for t in range(3):
        inst, form = _dilated(10 * seed + t, mixed=mixed, n_rounds=1 + t)
        count = run_mw_sampled_batch(inst, trial_rng(seed, t), 400)
        assert count == _reference_count(inst, trial_rng(seed, t), 400, form)


def _spied(appliers, calls):
    def spy(a):
        def apply(v):
            calls[0] += 1
            return a(v)

        return apply

    return [spy(a) for a in appliers]


@pytest.mark.parametrize("mixed", [False, True])
def test_single_runs_make_no_more_applier_calls(mixed):
    inst = _averaged(20, mixed=mixed)
    new_calls, ref_calls = [0], [0]
    new = AveragedInstance(_spied(inst.appliers, new_calls), inst.initial, inst.n_rounds)
    ref = AveragedInstance(_spied(inst.appliers, ref_calls), inst.initial, inst.n_rounds)
    for t in range(200):
        run_averaged_or_sampled(new.appliers, new.initial, new.n_rounds, trial_rng(14, t))
        _reference_run(ref, trial_rng(14, t))
    assert 0 < new_calls[0] <= ref_calls[0]


def test_batch_shares_one_path():
    """A pure input's batch enters each round once, however many trials reach it."""
    inst = _averaged(21, mixed=False)
    calls = [0]
    spied = AveragedInstance(_spied(inst.appliers, calls), inst.initial, inst.n_rounds)
    runs = _block_outcomes(spied, 15, range(500))
    assert calls[0] == len(inst.appliers) * max(rounds for rounds, _ in runs)


def _tester_pairs():
    """(instance built once, single-run tester on one generator) per sampled tester."""
    zero = basis_state(QUBIT, (0,))
    seq = anti_zeno_sequence(4)
    gamma = HermitianOperator(RegisterShape((2, 2)), np.diag([0.9, 0.0, 0.2, 0.4]))
    psi = random_pure_state(trial_rng(95, 0), QUBIT)
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    candidates = [zero, basis_state(QUBIT, (1,))]
    s_set = UnitarySet((np.eye(2), x))
    v = random_unitary(trial_rng(95, 1), 2)
    partly = product_state([zero, bell_pair()])
    random_case = _demerlinize_random((3,), 2)
    return {
        "or-test": (or_test_instance(seq, zero, 0), lambda r: or_test(seq, zero, 0, r)),
        "demerlinize": (
            demerlinize_instance(gamma, zero, 0.5),
            lambda r: demerlinize_test(gamma, zero, 0.5, r),
        ),
        "demerlinize-random": (
            demerlinize_instance(*random_case),
            lambda r: demerlinize_test(*random_case, r),
        ),
        "eigen": (eigen_instance([z, x], psi, 0.5, 2), lambda r: eigen_test([z, x], psi, 0.5, r, 2)),
        "membership": (
            membership_instance(candidates, psi, 0.5, 2),
            lambda r: state_membership_test(candidates, psi, 0.5, r, 2),
        ),
        "uiso": (
            unitary_s_iso_instance(s_set, v, v, 1.0, 2),
            lambda r: unitary_s_iso_test(s_set, v, v, 1.0, r, 2),
        ),
        "genuine-ent": (
            genuine_ent_instance(partly, 3, 0.5, 2),
            lambda r: genuine_ent_test(partly, 3, 0.5, r, 2),
        ),
    }


@pytest.mark.parametrize(
    "name", ["or-test", "demerlinize", "demerlinize-random", "eigen", "membership", "uiso", "genuine-ent"]
)
def test_tester_instances_match_single_testers(name):
    inst, single = _tester_pairs()[name]
    batch = [step is not None for _, step in _block_outcomes(inst, 16, range(200))]
    assert batch == [single(rng) for rng in _streams(16, 200)]
    assert 0 < sum(batch) < 200


def test_g_iso_instance_matches_single_tests():
    f = FunctionTable(4, 2, (0, 1, 0, 1))
    group = (PermutationAction.identity(4), PermutationAction((0, 2, 1, 3)))
    g = FunctionTable(4, 2, (1, 1, 0, 0))
    inst = g_iso_instance(f, g, group, 0.5, copies_k=2)
    batch = _block_outcomes(inst, 17, range(100))
    singles = [g_iso_test(f, g, group, 0.5, rng, copies_k=2) for rng in _streams(17, 100)]
    assert [step is not None for _, step in batch] == [r.accepted for r in singles]
    assert {(r.copies_used, r.queries_f, r.queries_g) for r in singles} == {(2, 2, 2)}


# -- the anti-Zeno count from one all-reject walk ------------------------------------


def _reference_accept_ever(n, seed, trials):
    """The per-trial loop: collapse step by step until a measurement fires."""
    seq = anti_zeno_sequence(n)
    count = 0
    for t in range(trials):
        rng = trial_rng(seed, 1000 + t)
        s = anti_zeno_state(n, 0)
        for m in seq:
            outcome, _, s = measure_collapse(m, s, rng=rng)
            if outcome == 1:
                count += 1
                break
    return count


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_antizeno_count_matches_per_trial_loop(n, seed):
    probs, _ = reject_path(anti_zeno_sequence(n), anti_zeno_state(n, 0))
    blocks = trial_blocks(seed, range(1000, 1300))
    assert _accept_ever_count(probs, blocks) == _reference_accept_ever(n, seed, 300)


def test_antizeno_count_across_chunk_boundaries():
    probs, _ = reject_path(anti_zeno_sequence(4), anti_zeno_state(4, 0))
    trials = 2 * _CHUNK + 9
    blocks = trial_blocks(2, range(1000, 1000 + trials))
    assert _accept_ever_count(probs, blocks) == _reference_accept_ever(4, 2, trials)


# -- the halting steps against the exact halting law ---------------------------------


def _law_instances():
    """(name, instance) for the CLI's OR-test and membership instances and a
    random d = 6 instance on a mixed input."""
    zero = basis_state(QUBIT, (0,))
    candidates = [zero, basis_state(QUBIT, (1,))]
    far = random_pure_state(trial_rng(97, 0), QUBIT)
    rng = trial_rng(97, 1)
    shape = RegisterShape((6,))
    lam = random_povm_contraction(rng, shape).matrix
    mixed = random_density_operator(rng, shape)
    return {
        "or-test": or_test_instance(anti_zeno_sequence(8), zero, 0),
        "membership": membership_instance(candidates, far, 0.5, 3),
        "random-d6": AveragedInstance((lambda v: lam @ v,), mixed, 3),
    }


def _spectral_measure(inst):
    """L's spectral measure seen from the input, L read off the appliers'
    mean column by column."""
    apply_l = _mean_applier(inst.appliers)
    eye = np.eye(inst.initial.shape.total_dim, dtype=np.complex128)
    lam = np.stack([apply_l(e) for e in eye], axis=1)
    state = getattr(inst.initial, "amplitudes", None)
    state = inst.initial.matrix if state is None else state
    evals, weights = spectral_measures(lam[None], state[None])
    return evals[0], weights[0]


@pytest.mark.parametrize("name", ["or-test", "membership", "random-d6"])
def test_halting_law_totals_the_accept_probability(name):
    inst = _law_instances()[name]
    evals, weights = _spectral_measure(inst)
    law = mw_halting_law(evals, weights, inst.n_rounds)
    assert law.shape == (2 * inst.n_rounds + 1,) and law.min() >= 0.0
    accept = mw_accept_from_spectrum(evals, weights, inst.n_rounds)
    assert abs(math.fsum(law[:-1]) - accept) <= 1e-15
    assert abs(math.fsum(law) - 1.0) <= 1e-14


def test_halting_law_stacks_rows():
    """A stack with one round count per row: each row is its single law,
    zero-padded past its 2N + 1 entries."""
    lam, w = _spectral_measure(_law_instances()["random-d6"])
    evals, weights = np.stack([lam, lam[::-1]]), np.stack([w, w])
    stacked = mw_halting_law(evals, weights, [2, 5])
    assert stacked.shape == (2, 11)
    assert np.array_equal(stacked[0, :5], mw_halting_law(evals[0], weights[0], 2))
    assert not stacked[0, 5:].any()
    assert np.allclose(stacked[1], mw_halting_law(evals[1], weights[1], 5), rtol=0, atol=1e-16)


def _merged_cells(observed, expected, least=5.0):
    """Adjacent cells merged left to right until each expects at least
    `least` counts; a short tail joins the last cell."""
    cells, obs, exp = [], 0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= least:
            cells.append([obs, exp])
            obs, exp = 0, 0.0
    if cells:
        cells[-1][0] += obs
        cells[-1][1] += exp
    else:
        cells.append([obs, exp])
    return cells


def _oracle_cases():
    """(instance, halting law, acceptance, exact oracle's acceptance) for
    every amplification check of the CLI, at its small k, the law and the
    acceptance read off what the oracle itself reads: for the OR test and
    de-Merlinization case 1 at eta = 2/3 (the averaged operator's measure),
    the desk isomorphic giso pair and the uiso conjugate pair at k = 2
    (joint route) and the partly-product state at k = 4 (span ranks), its
    measure function through ``mw_halting_law`` and
    ``mw_accept_from_spectrum``; for membership at k = 3, the Gram-space
    walk's law and the fsum of its halting entries."""
    seq, zero = anti_zeno_sequence(8), basis_state(QUBIT, (0,))
    candidates = [zero, basis_state(QUBIT, (1,))]
    group, iso_pair, _ = _desk_giso_instance()
    s_set = UnitarySet((np.eye(2), PAULI_X))
    v = random_unitary(trial_rng(0, 5000), 2)
    partly = product_state([basis_state(QUBIT, (0,)), bell_pair()])
    gamma, psi, eta = _demerlinize_case1(2.0 / 3.0)
    membership_law = _membership_law(candidates, zero, 3)
    return {
        "or-test": _measure_case(
            or_test_instance(seq, zero, 0),
            _single_row(_averaged_operator(seq), zero),
            or_test_accept_exact(seq, zero, 0),
        ),
        "membership": (
            membership_instance(candidates, zero, 0.5, copies_k=3),
            membership_law,
            min(math.fsum(membership_law[:-1]), 1.0),
            membership_accept_exact(candidates, zero, 3),
        ),
        "giso": _measure_case(
            g_iso_instance(*iso_pair, group, 1.0, copies_k=2),
            _eigen_measure(*_g_iso_parts(*iso_pair, group, 1.0, 2)),
            g_iso_accept_exact(*iso_pair, group, 1.0, copies_k=2),
        ),
        "uiso": _measure_case(
            unitary_s_iso_instance(s_set, v, v, 1.0, copies_k=2),
            _eigen_measure(*_u_iso_parts(s_set, v, v, 1.0, 2)),
            unitary_s_iso_accept_exact(s_set, v, v, 1.0, copies_k=2),
        ),
        "genuine-ent": _measure_case(
            genuine_ent_instance(partly, 3, 0.5, copies_k=4),
            _genuine_measure(partly, 3, 4),
            genuine_ent_accept_exact(partly, 3, 4),
        ),
        "demerlinize": _measure_case(
            demerlinize_instance(gamma, psi, eta),
            _single_row(_averaged_operator(merlin_slice_operators(gamma)), psi),
            demerlinize_accept_exact(gamma, psi, eta),
        ),
    }


def _measure_case(inst, measure, exact):
    """An oracle case of a measure function: the law and the acceptance of
    the measure at the instance's round count."""
    return inst, mw_halting_law(*measure, inst.n_rounds), mw_accept_from_spectrum(*measure, inst.n_rounds), exact


def _single_row(accept_op, rho):
    """The measure ``_single_measure`` gives the quantum_or oracles, unstacked."""
    evals, weights = _single_measure(accept_op, rho)
    return evals[0], weights[0]


@pytest.mark.parametrize("name", ["or-test", "membership", "giso", "uiso", "genuine-ent", "demerlinize"])
def test_oracle_measures_give_the_law_and_the_oracle(name):
    """Each oracle's law has halting entries that total the acceptance read
    off the same measure or walk, which is the oracle's acceptance bit for
    bit (the oracle reads the same function)."""
    _, law, accept, exact = _oracle_cases()[name]
    assert abs(math.fsum(law[:-1]) - accept) <= 1e-15
    assert accept == exact


def test_membership_oracle_law_is_the_gram_measure_law():
    """The membership walk's law against the eigh Gram measure it
    replaced, entry by entry and partial sum by partial sum within 1e-12."""
    _, law, _, _ = _oracle_cases()["membership"]
    zero, one = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
    assert np.array_equal(assert_law_matches_reference([zero, one], zero, 3), law)


def _assert_steps_follow(inst, law):
    """The core's halting-step counts over stream blocks, cell by cell within
    4 sigma of the law."""
    trials = 20000
    steps = np.concatenate(list(sample_blocks(inst, trial_blocks(21, range(trials)))))
    counts = np.bincount(steps, minlength=law.size)
    assert counts.size == law.size
    cells = _merged_cells(counts, trials * law)
    assert len(cells) >= 3
    for obs, exp in cells:
        p = exp / trials
        assert abs(obs - exp) <= 4.0 * math.sqrt(trials * p * (1.0 - p)) + 1e-9, (obs, exp)


@pytest.mark.parametrize("name", ["or-test", "membership", "random-d6"])
def test_halting_steps_follow_the_law(name):
    """The core's halting-step counts over stream blocks, cell by cell within
    4 sigma of the exact law."""
    inst = _law_instances()[name]
    _assert_steps_follow(inst, mw_halting_law(*_spectral_measure(inst), inst.n_rounds))


@pytest.mark.parametrize("name", ["or-test", "membership", "giso", "uiso", "genuine-ent", "demerlinize"])
def test_halting_steps_follow_the_oracle_law(name):
    """The same, on every amplification check of the CLI, with the law
    from what each exact oracle reads (the membership walk's own law)."""
    inst, law, _, _ = _oracle_cases()[name]
    _assert_steps_follow(inst, law)
