"""Gap-amplified OR measurement: alternate-projector amplification, exact
acceptance oracles and the two high-level wrappers (sequential-measurement
property test and witness-register de-Merlinization).

The amplification procedure, given a Naimark form (Pi, Delta) of an accept
operator L and a state rho:

1. prepare rho (x) |0><0|^m,
2. up to N times: measure {Pi, I - Pi} and accept on the first outcome, then
   measure {Delta, I - Delta} and accept on the second outcome,
3. otherwise reject.

Its acceptance probability has the closed form
sum_i |alpha_i|^2 [1 - (1 - lambda_i)^{2N}] over the spectrum of L, which the
exact oracles below evaluate by eigendecomposition or, for a pure input, as
1 - ||(I - L)^N psi||^2 by N applications of L; an independent second
oracle propagates the residual operator (Delta (I - Pi))^N directly.

Every sampler is a wrapper over one batched core, ``_amplify``, which runs
independent trials side by side given a Pi-applier on a block of extended
vectors: ``x @ pi.T`` for a dense Naimark form, the QFT-column form for an
averaged projector family.  A single run is a batch of one.  Draw order: a
mixed input first draws every trial's eigen-ensemble index in one call; then
per round one uniform per live trial for the Pi measurement, then one per
surviving trial for Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .gates import qft_matrix
from .measurement import (
    NaimarkForm,
    TwoOutcomeMeasurement,
    ancilla_zero,
    in_unit_interval,
    is_idempotent,
    naimark_form,
)
from .states import DensityOperator, HermitianOperator, PureState, RegisterShape, eigendecompose

WEIGHT_ATOL = 1e-14


@dataclass(frozen=True)
class MWInstance:
    """One amplification run: a Naimark form, an input state and a round count."""

    naimark: NaimarkForm
    initial: PureState | DensityOperator
    n_rounds: int

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("round count must be >= 1")
        if self.initial.shape != self.naimark.system_shape:
            raise ValueError("initial state must live on the pre-ancilla system space")


@dataclass(frozen=True)
class MWResult:
    accepted: bool
    rounds_used: int
    halting_step: str | None  # "pi", "delta", or None when rejected


_HALTING_STEPS = (None, "pi", "delta")  # per-trial step codes of the core


def _ensemble_rows(
    initial: PureState | DensityOperator, rng: np.random.Generator, size: int
) -> np.ndarray:
    """One input vector per trial, as the rows of a (size, d) array.

    A pure input is broadcast without copying.  A mixed input draws each
    row from its eigen-ensemble (eigenvector i with probability lambda_i) in
    a single ``rng.choice`` call.
    """
    if isinstance(initial, PureState):
        return np.broadcast_to(initial.amplitudes, (size, initial.amplitudes.size))
    dec = eigendecompose(initial)
    weights = np.clip(dec.eigenvalues, 0.0, None)
    idx = rng.choice(weights.size, p=weights / weights.sum(), size=size)
    return dec.eigenvectors[:, idx].T


def _embed(rows: np.ndarray, d_anc: int) -> np.ndarray:
    """Each row tensored with the ancilla state |0...0> (ancilla index fastest)."""
    out = np.zeros((rows.shape[0], rows.shape[1] * d_anc), dtype=np.complex128)
    out[:, ::d_anc] = rows
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a_i, b_i> for each row i, from the real and imaginary views of
    the two blocks (no conjugated copy is allocated)."""
    return np.einsum("ij,ij->i", a.real, b.real) + np.einsum("ij,ij->i", a.imag, b.imag)


def _amplify(
    apply_pi: Callable[[np.ndarray], np.ndarray],
    rows: np.ndarray,
    d_anc: int,
    n_rounds: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent amplification trials, vectorised across the live ones.

    ``rows`` holds each trial's system vector; ``apply_pi`` maps a block of
    live extended vectors, shape (live, d_sys * d_anc), to its image under
    Pi.  Returns per trial the round it halted in (``n_rounds`` if it
    rejected) and its halting step as an index into ``_HALTING_STEPS``.
    """
    trials, d_sys = rows.shape
    rounds = np.full(trials, n_rounds)
    steps = np.zeros(trials, dtype=np.int8)
    idx = np.arange(trials)
    live = _embed(rows, d_anc)
    # Uniforms lie in [0, 1), so the outcome probabilities need no clipping.
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


def _amplify_instance(
    inst: MWInstance, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    pi_t = inst.naimark.pi.T
    rows = _ensemble_rows(inst.initial, rng, trials)
    return _amplify(lambda x: x @ pi_t, rows, inst.naimark.ancilla_dim, inst.n_rounds, rng)


def _single_result(rounds: np.ndarray, steps: np.ndarray) -> MWResult:
    step = _HALTING_STEPS[steps[0]]
    return MWResult(step is not None, int(rounds[0]), step)


def run_mw_sampled(inst: MWInstance, rng: np.random.Generator) -> MWResult:
    """Simulate one run of the amplification procedure on a Naimark form."""
    return _single_result(*_amplify_instance(inst, rng, 1))


def run_mw_sampled_batch(inst: MWInstance, rng: np.random.Generator, trials: int) -> int:
    """Accept count over independent trials of :func:`run_mw_sampled`."""
    _, steps = _amplify_instance(inst, rng, trials)
    return int(np.count_nonzero(steps))


# -- exact oracles ---------------------------------------------------------------


def mw_accept_from_spectrum(
    eigenvalues: Sequence[float], weights: Sequence[float], n_rounds: int
) -> float:
    """sum_i w_i [1 - (1 - lambda_i)^{2N}] for a spectral measure of L."""
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    total = 0.0
    for lam, w in zip(eigenvalues, weights):
        if w < WEIGHT_ATOL:
            continue
        lam = min(1.0, max(0.0, float(lam)))
        total += float(w) * (1.0 - (1.0 - lam) ** (2 * n_rounds))
    return float(min(1.0, max(0.0, total)))


def _spectral_weights(
    accept_op: HermitianOperator | np.ndarray, rho: PureState | DensityOperator
) -> tuple[np.ndarray, np.ndarray]:
    dec = eigendecompose(accept_op)
    if not in_unit_interval(dec.eigenvalues):
        raise ValueError("accept operator eigenvalues outside [0, 1]")
    if isinstance(rho, PureState):
        weights = np.abs(dec.eigenvectors.conj().T @ rho.amplitudes) ** 2
    else:
        weights = np.einsum(
            "ij,jk,ki->i", dec.eigenvectors.conj().T, rho.matrix, dec.eigenvectors
        ).real
    return dec.eigenvalues, np.clip(weights, 0.0, None)


def mw_accept_exact(
    accept_op: HermitianOperator | np.ndarray,
    rho: PureState | DensityOperator,
    n_rounds: int,
) -> float:
    """Exact acceptance probability via the spectral decomposition of L.

    A mixed input enters through its weights <v_i|rho|v_i> on the
    eigenvectors v_i of L: the formula is linear in the input state.
    """
    evals, weights = _spectral_weights(accept_op, rho)
    return mw_accept_from_spectrum(evals, weights, n_rounds)


def mw_accept_polynomial(
    apply_l: Callable[[np.ndarray], np.ndarray], vector: np.ndarray, n_rounds: int
) -> float:
    """Exact acceptance on a unit vector v as 1 - ||(I - L)^N v||^2.

    Equals :func:`mw_accept_from_spectrum` on L's spectral measure seen from
    v, since sum_i w_i (1 - lambda_i)^{2N} = <v|(I - L)^{2N}|v>, but needs
    only N applications of L: no eigendecomposition and no dense operator.
    """
    if n_rounds < 1:
        raise ValueError("round count must be >= 1")
    residual = vector
    for _ in range(n_rounds):
        residual = residual - apply_l(residual)
    return float(min(1.0, max(0.0, 1.0 - np.vdot(residual, residual).real)))


def mw_accept_survival(inst: MWInstance) -> float:
    """Second oracle: 1 - |(Delta (I - Pi))^N |psi, 0^m>|^2 on the extended space.

    Independent of :func:`mw_accept_exact` (no spectral decomposition of L);
    mixed inputs propagate the extended density operator instead.
    """
    pi = inst.naimark.pi
    delta = inst.naimark.delta
    kraus = delta @ (np.eye(pi.shape[0]) - pi)
    d_anc = inst.naimark.ancilla_dim
    if isinstance(inst.initial, PureState):
        vec = np.zeros(inst.naimark.extended_dim, dtype=np.complex128)
        vec[::d_anc] = inst.initial.amplitudes
        for _ in range(inst.n_rounds):
            vec = kraus @ vec
        survival = float(np.vdot(vec, vec).real)
    else:
        tau = np.kron(inst.initial.matrix, ancilla_zero(d_anc))
        for _ in range(inst.n_rounds):
            tau = kraus @ tau @ kraus.conj().T
        survival = float(np.trace(tau).real)
    return float(min(1.0, max(0.0, 1.0 - survival)))


def mw_bounds(
    accept_op: HermitianOperator | np.ndarray,
    rho: PureState | DensityOperator,
    n_rounds: int,
) -> tuple[float, float]:
    """The sandwich (1 - 1/e) tr(P_{>=1/2N} rho) <= p_acc <= 2N tr(L rho)."""
    evals, weights = _spectral_weights(accept_op, rho)
    threshold = 1.0 / (2.0 * n_rounds)
    mass = float(weights[evals >= threshold].sum())
    lower = (1.0 - math.exp(-1.0)) * mass
    mean = float(np.dot(np.clip(evals, 0.0, 1.0), weights))
    upper = min(1.0, 2.0 * n_rounds * mean)
    return lower, upper


# -- sequential-measurement property test (the OR wrapper) -------------------------


def _exact_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # exact binary value of the float


def or_round_count(n: int, epsilon) -> int:
    """N = ceil(n / (1 - eps)), evaluated in exact rational arithmetic."""
    eps = _exact_fraction(epsilon)
    if not 0 <= eps <= Fraction(1, 2):
        raise ValueError("epsilon must lie in [0, 1/2]")
    return math.ceil(Fraction(n) / (1 - eps))


def _averaged_operator(measurements: Sequence[TwoOutcomeMeasurement]) -> HermitianOperator:
    shape = measurements[0].shape
    mean = sum(m.accept_op.matrix for m in measurements) / len(measurements)
    return HermitianOperator(shape, mean)


def _averaged_pi(
    appliers: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
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


def run_averaged_or_sampled(
    appliers: Sequence[Callable[[np.ndarray], np.ndarray]],
    initial: PureState | DensityOperator,
    n_rounds: int,
    rng: np.random.Generator,
) -> MWResult:
    """Amplification run for an averaged projector family, matrix-free.

    Only per-projector matvecs are needed, so instances are limited by
    state-vector size rather than dense-operator size.
    """
    if len(appliers) == 0:
        raise ValueError("need at least one measurement")
    rows = _ensemble_rows(initial, rng, 1)
    return _single_result(*_amplify(_averaged_pi(appliers), rows, len(appliers), n_rounds, rng))


def or_test(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: PureState | DensityOperator,
    epsilon,
    rng: np.random.Generator,
) -> bool:
    """One amplification run on the averaged projector family, N = ceil(n/(1-eps)).

    Guarantees (verified through the exact oracle, not per run): an input
    accepted by some measurement with probability >= 1 - eps accepts with
    probability >= (1-eps)^2/7; an input with mean acceptance <= delta accepts
    with probability <= 4 delta n.
    """
    for m in measurements:
        if not m.is_projector:
            raise ValueError("or_test requires projective measurements")
    n_rounds = or_round_count(len(measurements), epsilon)
    appliers = [
        (lambda v, mat=m.accept_op.matrix: mat @ v) for m in measurements
    ]
    result = run_averaged_or_sampled(appliers, rho, n_rounds, rng)
    return result.accepted


def or_test_accept_exact(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: PureState | DensityOperator,
    epsilon,
) -> float:
    """Exact acceptance probability of :func:`or_test` on this instance."""
    n_rounds = or_round_count(len(measurements), epsilon)
    return mw_accept_exact(_averaged_operator(measurements), rho, n_rounds)


# -- de-Merlinization --------------------------------------------------------------


def merlin_slice_operators(gamma: HermitianOperator) -> list[HermitianOperator]:
    """The operators on the message space induced by fixing each witness basis state.

    The last register of gamma's shape is the witness register; slice j is
    (I (x) <j|) Gamma (I (x) |j>).
    """
    dims = gamma.shape.dims
    if len(dims) < 2:
        raise ValueError("gamma must act on a message (x) witness system")
    d = dims[-1]
    sys_shape = RegisterShape(dims[:-1])
    return [HermitianOperator(sys_shape, gamma.matrix[j::d, j::d].copy()) for j in range(d)]


def merlin_best_witness_accept(gamma: HermitianOperator, psi: PureState) -> float:
    """max over witness states sigma of tr Gamma (psi (x) sigma).

    Equals the top eigenvalue of the witness-side operator obtained by
    contracting Gamma with |psi><psi| on the message side.
    """
    dims = gamma.shape.dims
    d = dims[-1]
    d_sys = gamma.shape.total_dim // d
    if psi.shape.total_dim != d_sys:
        raise ValueError("psi must live on the message space")
    g = gamma.matrix.reshape(d_sys, d, d_sys, d)
    t = np.einsum("a,abcd,c->bd", psi.amplitudes.conj(), g, psi.amplitudes)
    return float(np.linalg.eigvalsh(0.5 * (t + t.conj().T)).max())


def demerlinize_round_count(d: int, eta) -> int:
    """N = ceil(d / eta) in exact rational arithmetic."""
    eta_f = _exact_fraction(eta)
    if not 0 < eta_f <= 1:
        raise ValueError("eta must lie in (0, 1]")
    return math.ceil(Fraction(d) / eta_f)


def demerlinize_operator(gamma: HermitianOperator) -> HermitianOperator:
    """The averaged accept operator (1/d) sum_j Gamma_j on the message space."""
    slices = merlin_slice_operators(gamma)
    mean = sum(s.matrix for s in slices) / len(slices)
    return HermitianOperator(slices[0].shape, mean)


def demerlinize_instance(gamma: HermitianOperator, psi: PureState, eta) -> MWInstance:
    """The amplification run of :func:`demerlinize_test`: the averaged slice
    operator's Naimark form, the message state and N = ceil(d/eta) rounds."""
    if not in_unit_interval(np.linalg.eigvalsh(gamma.matrix)):
        raise ValueError("gamma is not in [0, I]")
    lam = demerlinize_operator(gamma)
    n_rounds = demerlinize_round_count(gamma.shape.dims[-1], eta)
    measurement = TwoOutcomeMeasurement(lam, is_projector=is_idempotent(lam.matrix))
    return MWInstance(naimark_form(measurement), psi, n_rounds)


def demerlinize_test(
    gamma: HermitianOperator, psi: PureState, eta, rng: np.random.Generator
) -> bool:
    """Search the witness register by amplification instead of trusting it.

    Runs the amplification procedure once on the averaged slice operator with
    N = ceil(d/eta).  A gamma that accepts psi with some witness at
    probability >= eta leads to acceptance with probability >= eta^2/7; if no
    witness reaches zeta the acceptance probability is at most
    2 zeta ceil(d/eta).
    """
    return run_mw_sampled(demerlinize_instance(gamma, psi, eta), rng).accepted


def demerlinize_accept_exact(gamma: HermitianOperator, psi: PureState, eta) -> float:
    """Exact acceptance probability of :func:`demerlinize_test`."""
    lam = demerlinize_operator(gamma)
    d = gamma.shape.dims[-1]
    return mw_accept_exact(lam, psi, demerlinize_round_count(d, eta))
