"""Stacked exact oracles against single calls and against the per-trial code
they replaced.

``mw-bounds`` and ``gentle`` draw each trial's instance from its own stream
and then evaluate their oracles once per dimension on stacked cores
(``eigendecompose_stack``, ``spectral_measures``, ``mw_accept_from_spectrum``,
``mw_bounds_from_spectrum``, ``one_ancilla_dilation_stack``,
``mw_accept_survival_stack``, ``gentle_measurement_gap_stack``).  These tests
hold the cores to the single-instance calls bit for bit on the hard cases
(degenerate spectra, eigenvalues exactly 0 and 1, rank-deficient and pure
inputs, N = 1, mixed round counts), hold both experiments to a frozen copy of
the per-trial loops and oracles they replaced (``_reference_*`` below),
document for document, and check that every stacked entry point rejects bad
input loudly.  ``gentle`` also builds its instances on the stack
(``density_from_ginibre``, ``contraction_from_ginibre``), and ``uiso`` its
unitaries (``unitary_from_ginibre``); those helpers are held to one call per
slice, bit for bit.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import (
    DensityOperator,
    ExperimentConfig,
    ExperimentRecord,
    HermitianOperator,
    PureState,
    RegisterShape,
    eigendecompose,
    eigendecompose_stack,
    gentle_measurement_gap,
    gentle_measurement_gap_stack,
    mw_accept_exact,
    mw_accept_from_spectrum,
    mw_accept_survival,
    mw_accept_survival_stack,
    mw_bounds,
    mw_bounds_from_spectrum,
    one_ancilla_dilation,
    one_ancilla_dilation_stack,
    run_experiment,
    spectral_measures,
    trial_rng,
)
from seqmeas import cli, experiments
from seqmeas.experiments import _Recorder
from seqmeas.sampling import (
    contraction_from_ginibre,
    density_from_ginibre,
    ginibre,
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
    random_unitary,
    unitary_from_ginibre,
)

# -- the reference: the per-trial oracles and sweeps, frozen --------------------


def _reference_eigendecompose(mat):
    """(eigenvalues, eigenvectors) as the single-matrix eigendecompose gave them."""
    w, v = np.linalg.eigh(mat)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    pivots = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(w.size)]
    v *= np.array([abs(p) / p for p in pivots])
    rounded = np.array([round(x, 12) for x in w.tolist()])
    edges = [0, *(np.flatnonzero(np.diff(rounded)) + 1).tolist(), w.size]
    order = np.arange(w.size)
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start > 1:
            cluster = v[:, start:stop]
            pairs = np.stack([cluster.real, cluster.imag], axis=1).reshape(-1, stop - start)
            order[start:stop] = start + np.lexsort(np.round(pairs, 9)[::-1])
    return w[order], v[:, order]


def _reference_measure(mat, state):
    evals, vecs = _reference_eigendecompose(mat)
    if state.ndim == 1:
        weights = np.abs(vecs.conj().T @ state) ** 2
    else:
        weights = np.einsum("ij,jk,ki->i", vecs.conj().T, state, vecs).real
    return evals, np.clip(weights, 0.0, None)


def _reference_from_spectrum(evals, weights, n_rounds):
    total = 0.0
    for lam, w in zip(evals, weights):
        if w < 1e-14:
            continue
        lam = min(1.0, max(0.0, float(lam)))
        total += float(w) * (1.0 - (1.0 - lam) ** (2 * n_rounds))
    return float(min(1.0, max(0.0, total)))


def _reference_bounds(evals, weights, n_rounds):
    threshold = 1.0 / (2.0 * n_rounds)
    mass = float(weights[evals >= threshold].sum())
    mean = float(np.dot(np.clip(evals, 0.0, 1.0), weights))
    return (1.0 - math.exp(-1.0)) * mass, min(1.0, 2.0 * n_rounds * mean)


def _reference_dilation(mat):
    evals, vecs = _reference_eigendecompose(mat)
    evals = np.clip(evals, 0.0, 1.0)
    d = mat.shape[0]
    pi = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for lam, vec in zip(evals, vecs.T):
        w = np.array([math.sqrt(lam), math.sqrt(1.0 - lam)])
        pi += np.kron(np.outer(vec, vec.conj()), np.outer(w, w))
    return pi


def _reference_survival(pi, state, n_rounds):
    """The survival oracle on a one-qubit dilation (ancilla index fastest)."""
    delta = np.kron(np.eye(pi.shape[0] // 2), np.diag([1.0, 0.0]))
    kraus = delta @ (np.eye(pi.shape[0]) - pi)
    if state.ndim == 1:
        vec = np.zeros(pi.shape[0], dtype=np.complex128)
        vec[::2] = state
        for _ in range(n_rounds):
            vec = kraus @ vec
        survival = float(np.vdot(vec, vec).real)
    else:
        tau = np.kron(state, np.diag([1.0, 0.0]))
        for _ in range(n_rounds):
            tau = kraus @ tau @ kraus.conj().T
        survival = float(np.trace(tau).real)
    return float(min(1.0, max(0.0, 1.0 - survival)))


def _reference_gentle(rho, lam):
    """(lhs, rhs), or None where tr(L rho) is numerically zero."""
    evals, vecs = _reference_eigendecompose(lam)
    if not (evals.min() >= -1e-10 and evals.max() <= 1.0 + 1e-10):
        raise ValueError("accept operator is not in [0, I]")
    p = float(np.trace(lam @ rho).real)
    if p <= 1e-12:
        return None
    sqrt_l = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    post = sqrt_l @ rho @ sqrt_l / p
    lhs = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - post)).sum())
    return lhs, math.sqrt(max(0.0, 1.0 - p))


def _reference_mw_bounds(config, rec, trials):
    sandwich_ok = survival_ok = monotone_ok = 0
    for t in range(trials):
        rng = trial_rng(config.seed, t)
        dim = int(rng.integers(2, 17))
        shape = RegisterShape((dim,))
        lam = random_povm_contraction(rng, shape).matrix
        rho = random_density_operator(rng, shape).matrix
        n_rounds = int(rng.integers(1, 33))
        evals, weights = _reference_measure(lam, rho)
        exact = _reference_from_spectrum(evals, weights, n_rounds)
        lower, upper = _reference_bounds(evals, weights, n_rounds)
        sandwich_ok += lower <= exact + 1e-9 and exact <= upper + 1e-9
        survival = _reference_survival(_reference_dilation(lam), rho, n_rounds)
        survival_ok += abs(survival - exact) <= 1e-9
        monotone_ok += _reference_from_spectrum(evals, weights, n_rounds + 1) >= exact - 1e-12
        rec.csv_rows.append(
            {
                "trial": t,
                "dim": dim,
                "n_rounds": n_rounds,
                "lower": lower,
                "exact": exact,
                "survival": survival,
                "upper": upper,
            }
        )
    rec.value("sandwich_passes", sandwich_ok)
    rec.value("survival_agreements", survival_ok)
    rec.value("monotone_passes", monotone_ok)
    rec.check("sandwich_all", sandwich_ok == trials, sandwich_ok, trials)
    rec.check("oracle_agreement_all", survival_ok == trials, survival_ok, trials)
    rec.check("monotone_all", monotone_ok == trials, monotone_ok, trials)


def _reference_gentle_sweep(config, rec, trials):
    ok = 0
    for t in range(trials):
        rng = trial_rng(config.seed, t)
        dim = int(rng.integers(2, 9))
        shape = RegisterShape((dim,))
        rho = random_density_operator(rng, shape).matrix
        lam = random_povm_contraction(rng, shape).matrix
        try:
            gap = _reference_gentle(rho, lam)
        except ValueError:
            ok += 1  # the replaced loop counted every ValueError as a pass
            continue
        ok += gap is None or gap[0] <= gap[1] + 1e-10
    rec.value("sweep_passes", ok)
    rec.check("sweep_all", ok == trials, ok, trials)

    plus = np.full((2, 2), 0.5)
    lhs, rhs = _reference_gentle(plus, np.diag([1.0, 0.0]))
    rec.value("equality_case_lhs", lhs)
    rec.value("equality_case_rhs", rhs)
    rec.check_close("equality_case_lhs_value", lhs, 1.0 / math.sqrt(2), 1e-10)
    rec.check_close("equality_case_rhs_value", rhs, 1.0 / math.sqrt(2), 1e-10)


_REFERENCE_SWEEPS = {"mw-bounds": (_reference_mw_bounds, 200), "gentle": (_reference_gentle_sweep, 1000)}


def _csv_text(rows):
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return out.getvalue()


def _reference_record(name, seed, trials):
    runner, default_trials = _REFERENCE_SWEEPS[name]
    trials = default_trials if trials is None else trials
    rec = _Recorder()
    runner(ExperimentConfig(name, seed=seed), rec, trials)
    record = ExperimentRecord(name, seed, trials, {}, rec.values, rec.assertions, rec.all_passed)
    return record.to_document(), _csv_text(rec.csv_rows)


# -- the batched experiments against the reference --------------------------------


@pytest.mark.parametrize("trials", [1, 2, 17, None], ids=["t1", "t2", "t17", "default"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["mw-bounds", "gentle"])
def test_batched_sweep_documents_byte_identical(name, seed, trials):
    record = run_experiment(ExperimentConfig(name, seed=seed, trials=trials))
    document, csv_text = _reference_record(name, seed, trials)
    assert record.all_passed
    assert record.to_document() == document
    assert _csv_text(record.csv_rows) == csv_text


def _beyond_identity(d):
    return np.diag([1.5] + [0.5] * (d - 1))


# gentle builds its accept operators as one stack per dimension, mw-bounds one per trial
_BEYOND_IDENTITY = {
    "gentle": (
        "contraction_from_ginibre",
        lambda g, top: np.broadcast_to(_beyond_identity(g.shape[-1]), g.shape).astype(np.complex128),
    ),
    "mw-bounds": (
        "random_povm_contraction",
        lambda rng, shape: HermitianOperator(shape, _beyond_identity(shape.total_dim)),
    ),
}


@pytest.mark.parametrize("name", ["gentle", "mw-bounds"])
def test_out_of_range_accept_operator_fails_the_sweep(monkeypatch, capsys, name):
    """An accept operator with eigenvalue 1.5 is an error, not a skipped trial."""
    monkeypatch.setattr(experiments, *_BEYOND_IDENTITY[name])
    with pytest.raises(ValueError, match=r"accept operator .*not in \[0, I\]"):
        run_experiment(ExperimentConfig(name, seed=0, trials=5))
    assert cli.main([name, "--trials", "5"]) == 2
    assert "not in [0, I]" in capsys.readouterr().err


@pytest.mark.parametrize("d", range(2, 17))
def test_stacked_generation_matches_per_slice_calls(d):
    """Both generation helpers on a (b, d, d) Ginibre stack equal one call per
    slice, bit for bit."""
    rng = trial_rng(23, d)
    g, top = ginibre(rng, (5, d, d)), rng.uniform(0.05, 1.0, size=5)
    rho, lam = density_from_ginibre(g), contraction_from_ginibre(g, top)
    for i in range(5):
        assert np.array_equal(rho[i], density_from_ginibre(g[i]))
        assert np.array_equal(lam[i], contraction_from_ginibre(g[i], top[i]))


@pytest.mark.parametrize("d", range(2, 17))
def test_stacked_unitaries_match_per_slice_calls(d):
    """unitary_from_ginibre on a (5, d, d) stack equals one call per slice,
    and random_unitary is unitary_from_ginibre of the same Ginibre draw, bit
    for bit."""
    g = ginibre(trial_rng(25, d), (5, d, d))
    u = unitary_from_ginibre(g)
    for i in range(5):
        assert np.array_equal(u[i], unitary_from_ginibre(g[i]))
    for i in range(3):
        g = ginibre(trial_rng(26, i), (d, d))
        assert np.array_equal(random_unitary(trial_rng(26, i), d), unitary_from_ginibre(g))


def test_non_unitary_stack_fails_the_uiso_sweep(monkeypatch, capsys):
    """uiso checks each dimension's stacked U and V: a stack that is not
    unitary is an error, not a skipped identity check."""
    monkeypatch.setattr(
        experiments, "unitary_from_ginibre", lambda g: 1.5 * np.broadcast_to(np.eye(g.shape[-1]), g.shape)
    )
    with pytest.raises(ValueError, match="not unitary within tolerance"):
        run_experiment(ExperimentConfig("uiso", seed=0, trials=5))
    assert cli.main(["uiso", "--trials", "5"]) == 2
    assert "not unitary within tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [0, -1, 4])
def test_density_rank_out_of_range_rejected(rank):
    with pytest.raises(ValueError, match="density rank out of range"):
        random_density_operator(trial_rng(24, 0), RegisterShape((3,)), rank=rank)


def test_zero_branch_trial_is_skipped_not_fatal():
    """tr(L rho) = 0 in one slice masks that slice; the others keep their values."""
    rng = trial_rng(7, 0)
    shape = RegisterShape((2,))
    rhos = [np.diag([0.0, 1.0]), random_density_operator(rng, shape).matrix]
    lams = [np.diag([1.0, 0.0]), random_povm_contraction(rng, shape).matrix]
    lhs, rhs, defined = gentle_measurement_gap_stack(np.stack(rhos), np.stack(lams))
    assert defined.tolist() == [False, True]
    assert math.isnan(lhs[0])
    assert (lhs[1], rhs[1]) == _reference_gentle(rhos[1], lams[1])
    with pytest.raises(ValueError, match="numerically"):
        gentle_measurement_gap(DensityOperator(shape, rhos[0]), HermitianOperator(shape, lams[0]))


# -- hard cases: the stacked cores against single calls ----------------------------


def _hard_operators(d, rng):
    """Accept operators with degenerate spectra and eigenvalues exactly 0 and 1."""
    shape = RegisterShape((d,))
    ops = [np.zeros((d, d)), np.eye(d), 0.5 * np.eye(d)]
    ops += [random_projector(rng, shape, rank).matrix for rank in (1, d - 1)]
    ops.append(np.diag([0.3] * (d - 1) + [1.0]))
    ops += [random_povm_contraction(rng, shape).matrix for _ in range(3)]
    return [np.asarray(op, dtype=np.complex128) for op in ops]


def _hard_inputs(d, rng, count):
    """Full-rank, rank-one and rank-deficient density matrices, cycled."""
    shape = RegisterShape((d,))
    makers = [
        lambda: random_density_operator(rng, shape).matrix,
        lambda: random_pure_state(rng, shape).density().matrix,
        lambda: random_density_operator(rng, shape, rank=max(1, d - 1)).matrix,
        lambda: np.eye(d) / d,
    ]
    return np.stack([makers[i % len(makers)]() for i in range(count)])


def _pure_inputs(d, rng, count):
    return np.stack([random_pure_state(rng, RegisterShape((d,))).amplitudes for _ in range(count)])


DIMS = [2, 3, 5, 8]


@pytest.mark.parametrize("d", DIMS)
def test_eigendecompose_stack_matches_single(d):
    ops = np.stack(_hard_operators(d, trial_rng(31, d)))
    dec = eigendecompose_stack(ops)
    for i, op in enumerate(ops):
        single = eigendecompose(op)
        ref_w, ref_v = _reference_eigendecompose(op)
        assert np.array_equal(dec.eigenvalues[i], single.eigenvalues)
        assert np.array_equal(dec.eigenvectors[i], single.eigenvectors)
        assert np.array_equal(single.eigenvalues, ref_w)
        assert np.array_equal(single.eigenvectors, ref_v)
        assert single.eigenvectors.strides == ref_v.strides
    assert np.abs(dec.reconstruct() - ops).max() <= 1e-12


def test_cluster_in_one_matrix_of_the_stack():
    """Only the degenerate slice is reordered; the others keep eigh's order."""
    rng = trial_rng(32, 0)
    shape = RegisterShape((4,))
    ops = [random_povm_contraction(rng, shape).matrix for _ in range(3)]
    ops.insert(1, random_projector(rng, shape, 2).matrix)
    dec = eigendecompose_stack(np.stack(ops))
    for i, op in enumerate(ops):
        ref_w, ref_v = _reference_eigendecompose(op)
        assert np.array_equal(dec.eigenvalues[i], ref_w)
        assert np.array_equal(dec.eigenvectors[i], ref_v)


@pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
@pytest.mark.parametrize("d", DIMS)
def test_spectral_oracles_stack_matches_single(d, pure):
    rng = trial_rng(33, d)
    ops = np.stack(_hard_operators(d, rng))
    b = len(ops)
    inputs = _pure_inputs(d, rng, b) if pure else _hard_inputs(d, rng, b)
    rounds = np.array([1, 2, 7, 1, 32, 3, 1, 16, 5][:b])
    evals, weights = spectral_measures(ops, inputs)
    exact = mw_accept_from_spectrum(evals, weights, rounds)
    following = mw_accept_from_spectrum(evals, weights, rounds + 1)
    lower, upper = mw_bounds_from_spectrum(evals, weights, rounds)
    shape = RegisterShape((d,))
    for i in range(b):
        n = int(rounds[i])
        state = PureState(shape, inputs[i]) if pure else DensityOperator(shape, inputs[i])
        op = HermitianOperator(shape, ops[i])
        ref_evals, ref_weights = _reference_measure(ops[i], inputs[i])
        assert np.array_equal(weights[i], ref_weights)
        assert exact[i] == mw_accept_exact(op, state, n) == _reference_from_spectrum(
            ref_evals, ref_weights, n
        )
        assert following[i] == mw_accept_exact(op, state, n + 1)
        assert (lower[i], upper[i]) == mw_bounds(op, state, n) == _reference_bounds(
            ref_evals, ref_weights, n
        )


def test_spectrum_rows_match_single_measures():
    """A row of a stacked call equals the call on that row alone."""
    rng = trial_rng(34, 0)
    evals = rng.uniform(size=(5, 6))
    evals[0] = [1.0, 1.0, 0.5, 0.0, 0.0, 0.0]
    weights = rng.dirichlet(np.ones(6), size=5)
    weights[1, 2] = 1e-16  # below WEIGHT_ATOL: skipped
    rounds = np.array([1, 4, 9, 1, 30])
    exact = mw_accept_from_spectrum(evals, weights, rounds)
    lower, upper = mw_bounds_from_spectrum(evals, weights, rounds)
    for i in range(5):
        n = int(rounds[i])
        assert exact[i] == mw_accept_from_spectrum(evals[i], weights[i], n)
        assert exact[i] == _reference_from_spectrum(evals[i], weights[i], n)
        assert (lower[i], upper[i]) == mw_bounds_from_spectrum(evals[i], weights[i], n)
    assert mw_accept_from_spectrum([], [], 3) == 0.0


@pytest.mark.parametrize("d", DIMS)
def test_dilation_stack_matches_single(d):
    ops = np.stack(_hard_operators(d, trial_rng(35, d)))
    pis = one_ancilla_dilation_stack(ops)
    assert np.array_equal(pis, one_ancilla_dilation_stack(eigendecompose_stack(ops)))
    for i, op in enumerate(ops):
        single = one_ancilla_dilation(HermitianOperator(RegisterShape((d,)), op)).pi
        assert np.array_equal(pis[i], single)
        assert np.array_equal(pis[i], _reference_dilation(op))


@pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
@pytest.mark.parametrize("d", DIMS)
def test_survival_stack_matches_single(d, pure):
    rng = trial_rng(36, d)
    ops = np.stack(_hard_operators(d, rng))
    b = len(ops)
    inputs = _pure_inputs(d, rng, b) if pure else _hard_inputs(d, rng, b)
    rounds = np.array([3, 1, 12, 1, 5, 12, 2, 1, 8][:b])
    pis = one_ancilla_dilation_stack(ops)
    survival = mw_accept_survival_stack(pis, 2, inputs, rounds)
    shape = RegisterShape((d,))
    for i in range(b):
        state = PureState(shape, inputs[i]) if pure else DensityOperator(shape, inputs[i])
        naimark = one_ancilla_dilation(HermitianOperator(shape, ops[i]))
        single = mw_accept_survival(naimark, state, int(rounds[i]))
        assert survival[i] == single == _reference_survival(pis[i], inputs[i], int(rounds[i]))


@pytest.mark.parametrize("d", DIMS)
def test_gentle_stack_matches_single(d):
    rng = trial_rng(37, d)
    ops = np.stack(_hard_operators(d, rng)[1:])  # L = 0 has no accept branch
    rhos = _hard_inputs(d, rng, len(ops))
    lhs, rhs, defined = gentle_measurement_gap_stack(rhos, ops)
    assert defined.all()
    shape = RegisterShape((d,))
    for i in range(len(ops)):
        single = gentle_measurement_gap(DensityOperator(shape, rhos[i]), HermitianOperator(shape, ops[i]))
        assert (lhs[i], rhs[i]) == single == _reference_gentle(rhos[i], ops[i])


# -- properties on random stacks ----------------------------------------------------


def _random_stack(seed, d, b):
    """Accept operators (contractions, projectors, scaled identities) and
    inputs (full rank, rank-deficient, pure) chosen per slice."""
    rng = trial_rng(38, seed)
    shape = RegisterShape((d,))
    ops, rhos = [], []
    for _ in range(b):
        kind = int(rng.integers(3))
        if kind == 0:
            ops.append(random_povm_contraction(rng, shape).matrix)
        elif kind == 1:
            ops.append(random_projector(rng, shape, int(rng.integers(0, d + 1))).matrix)
        else:
            ops.append(rng.uniform() * np.eye(d))
        rank = int(rng.integers(1, d + 1))
        rhos.append(random_density_operator(rng, shape, rank=rank).matrix)
    return np.stack(ops).astype(np.complex128), np.stack(rhos), rng.integers(1, 25, size=b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.integers(2, 6), b=st.integers(1, 6))
def test_stacked_oracles_agree_and_bound(seed, d, b):
    ops, rhos, rounds = _random_stack(seed, d, b)
    dec = eigendecompose_stack(ops)
    evals, weights = spectral_measures(dec, rhos)
    exact = mw_accept_from_spectrum(evals, weights, rounds)
    survival = mw_accept_survival_stack(one_ancilla_dilation_stack(dec), 2, rhos, rounds)
    assert np.abs(exact - survival).max() <= 1e-9
    assert (mw_accept_from_spectrum(evals, weights, rounds + 1) >= exact - 1e-12).all()
    lower, upper = mw_bounds_from_spectrum(evals, weights, rounds)
    assert (lower <= exact + 1e-9).all() and (exact <= upper + 1e-9).all()


# -- loud rejection at the stacked entry points ---------------------------------------


def _pair(d=3):
    rng = trial_rng(39, d)
    shape = RegisterShape((d,))
    ops = np.stack([random_povm_contraction(rng, shape).matrix for _ in range(3)])
    rhos = np.stack([random_density_operator(rng, shape).matrix for _ in range(3)])
    return ops, rhos


def _out_of_range(ops):
    bad = ops.copy()
    bad[2] = np.diag([1.5, 0.5, 0.5])
    return bad


def _non_hermitian(mats):
    bad = mats.copy()
    bad[1, 0, 1] += 0.1
    return bad


def test_eigendecompose_stack_rejects_non_hermitian_slice():
    ops, _ = _pair()
    with pytest.raises(ValueError, match="matrix 1 of the stack is not Hermitian"):
        eigendecompose_stack(_non_hermitian(ops))
    with pytest.raises(ValueError, match=r"\(b, d, d\) stack"):
        eigendecompose_stack(ops[0])


def test_spectral_measures_reject_bad_stacks():
    ops, rhos = _pair()
    with pytest.raises(ValueError, match=r"accept operator 2 of the stack is not in \[0, I\]"):
        spectral_measures(_out_of_range(ops), rhos)
    with pytest.raises(ValueError, match="accept operator 1 of the stack is not Hermitian"):
        spectral_measures(_non_hermitian(ops), rhos)
    with pytest.raises(ValueError, match="state 1 of the stack is not Hermitian"):
        spectral_measures(ops, _non_hermitian(rhos))
    with pytest.raises(ValueError, match="differ in shape"):
        spectral_measures(ops, rhos[:2])
    with pytest.raises(ValueError, match="differ in shape"):
        spectral_measures(ops, _pair(4)[1])
    vectors = _pure_inputs(3, trial_rng(39, 0), 3)
    vectors[1] *= 1.1
    with pytest.raises(ValueError, match="state 1 of the stack is not normalised"):
        spectral_measures(ops, vectors)


def test_spectrum_oracles_reject_round_counts_below_one():
    ops, rhos = _pair()
    evals, weights = spectral_measures(ops, rhos)
    for oracle in (mw_accept_from_spectrum, mw_bounds_from_spectrum):
        with pytest.raises(ValueError, match="round count must be >= 1"):
            oracle(evals, weights, np.array([3, 0, 2]))
        with pytest.raises(ValueError, match="integer"):
            oracle(evals, weights, np.array([3.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="round count must be >= 1"):
        mw_bounds(HermitianOperator(RegisterShape((3,)), ops[0]), DensityOperator(RegisterShape((3,)), rhos[0]), 0)


def test_dilation_stack_rejects_bad_operators():
    ops, _ = _pair()
    with pytest.raises(ValueError, match=r"accept operator 2 of the stack is not in \[0, I\]"):
        one_ancilla_dilation_stack(_out_of_range(ops))
    with pytest.raises(ValueError, match="accept operator 1 of the stack is not Hermitian"):
        one_ancilla_dilation_stack(_non_hermitian(ops))


def test_survival_stack_rejects_bad_stacks():
    ops, rhos = _pair()
    pis = one_ancilla_dilation_stack(ops)
    with pytest.raises(ValueError, match="round count must be >= 1"):
        mw_accept_survival_stack(pis, 2, rhos, np.array([1, 0, 4]))
    with pytest.raises(ValueError, match="differ in shape"):
        mw_accept_survival_stack(pis, 2, rhos[:2], 3)
    with pytest.raises(ValueError, match="Pi 1 of the stack is not Hermitian"):
        mw_accept_survival_stack(_non_hermitian(pis), 2, rhos, 3)
    not_projector = pis.copy()
    not_projector[1] *= 0.5
    with pytest.raises(ValueError, match="Pi 1 of the stack is not a projector"):
        mw_accept_survival_stack(not_projector, 2, rhos, 3)
    with pytest.raises(ValueError, match="does not divide"):
        mw_accept_survival_stack(pis, 4, rhos, 3)
    # Idempotent within PROJECTOR_ATOL, but L = I is pushed past 1 by 5e-9.
    stretched = one_ancilla_dilation_stack(np.stack([ops[0], np.eye(3), ops[2]]))
    stretched[1] *= 1.0 + 5e-9
    with pytest.raises(ValueError, match=r"induced operator 1 of the stack is not in \[0, I\]"):
        mw_accept_survival_stack(stretched, 2, rhos, 3)


def test_gentle_stack_rejects_bad_stacks():
    ops, rhos = _pair()
    with pytest.raises(ValueError, match=r"accept operator 2 of the stack is not in \[0, I\]"):
        gentle_measurement_gap_stack(rhos, _out_of_range(ops))
    with pytest.raises(ValueError, match="accept operator 1 of the stack is not Hermitian"):
        gentle_measurement_gap_stack(rhos, _non_hermitian(ops))
    with pytest.raises(ValueError, match="state 1 of the stack is not Hermitian"):
        gentle_measurement_gap_stack(_non_hermitian(rhos), ops)
    with pytest.raises(ValueError, match="shapes differ"):
        gentle_measurement_gap_stack(rhos[:2], ops)
    unnormalised = rhos.copy()
    unnormalised[0] *= 2.0
    with pytest.raises(ValueError, match="state 0 of the stack is not of unit trace"):
        gentle_measurement_gap_stack(unnormalised, ops)
    negative = rhos.copy()
    negative[2] = np.diag([1.5, -0.5, 0.0])
    with pytest.raises(ValueError, match="state 2 of the stack is not positive semidefinite"):
        gentle_measurement_gap_stack(negative, ops)
