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
oracle propagates the residual operator (Delta (I - Pi))^N directly.  The
spectral and survival oracles run on stacks of instances with a leading
batch axis (:func:`spectral_measures`, :func:`mw_accept_from_spectrum`,
:func:`mw_bounds_from_spectrum`, :func:`mw_accept_survival_stack`); the
single-instance oracles are the same cores on a stack of one.

Every sampler reads one core, ``_amplify``.  On a pure input every trial
sees the same not-yet-halted state, and randomness only decides where it
halts, so the state path belongs to the instance: ``_amplify`` walks it
once per distinct input vector (one for a pure input, one per
eigen-ensemble index drawn for a mixed one) on the system space, given an
L-applier (the path depends on Pi only through L; Pi itself is exercised by
the survival oracle).  Each path is grown lazily, only as far as the
furthest step some trial reaches, and a trial halts at the first step whose
halting region holds its uniform.  Every run is an
:class:`AveragedInstance`, L the mean of its appliers: the OR test and
de-Merlinization give one matvec per member, and their exact oracles
decompose the same mean; a Naimark form's run is the single applier
``lambda v: L @ v`` of its induced operator.

Draw order.  Every sampler is one halting core
(``_Survivors.halting_steps``) fed by one of three draw sources.  A single
run (:func:`run_mw_sampled`, or :func:`run_averaged_or_sampled` on the
instance's fields) draws a mixed input's ensemble index from one uniform,
by ``Generator.choice``'s rule (``cdf.searchsorted(u, side="right")`` on
the normalised cumulative sum), then one uniform per step taken: the Pi
measurement, then Delta, round after round.  :func:`sample_blocks` gives
trial t its own row of a stream block (:func:`rng.trial_blocks`) and draws
from it in exactly that order, with no ``Generator`` per trial, so each of
its outcomes equals a single run on that trial's stream, however many
trials share the paths.  :func:`run_mw_sampled_batch` shares one
generator: every trial's ensemble index in one call, then per step one
uniform per trial still running, in trial order.  The core checks
the path it reads: a Pi accept probability outside [0, 1], a kept mass
||(I - L) v||^2 above 1 - <v|L|v>, or an applier that does not map the
input's vectors to vectors of the same shape raises ValueError naming the
round, so appliers whose mean is no operator in [0, I] are not sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .measurement import (
    NaimarkForm,
    TwoOutcomeMeasurement,
    _check_projective,
    accept_spectra,
    in_unit_interval,
    naimark_checks,
)
from .rng import StreamBlock
from .states import (
    STATE_ATOL,
    DensityOperator,
    EigenDecomposition,
    HermitianOperator,
    PureState,
    RegisterShape,
    _canonical_eigh,
    _trusted,
    check_slices,
    eigendecompose,
    hermitian_stack,
    state_stack,
)

WEIGHT_ATOL = 1e-14


@dataclass(frozen=True)
class AveragedInstance:
    """One matrix-free amplification run on L = (1/n) sum_i A_i, the uniform
    average of n operators A_i in [0, I]: appliers (system vector -> vector)
    whose mean is L, an input state and the round count N.

    Usually there is one applier per operator; a single applier may already
    be a whole family's mean (the interference test's, see
    ``testers._copy_reflection_applier``), in which case n_rounds still
    carries the N of that family.  Only matvecs are needed, so instances are
    limited by state-vector size rather than dense-operator size.
    """

    appliers: tuple[Callable[[np.ndarray], np.ndarray], ...]
    initial: PureState | DensityOperator
    n_rounds: int

    def __post_init__(self):
        appliers = tuple(self.appliers)
        if not appliers:
            raise ValueError("need at least one measurement")
        _round_counts(self.n_rounds, 1)
        object.__setattr__(self, "appliers", appliers)


@dataclass(frozen=True)
class MWResult:
    accepted: bool
    rounds_used: int
    halting_step: str | None  # "pi", "delta", or None when rejected


_HALTING_STEPS = ("pi", "delta")  # step s is measurement s % 2 of round s // 2 + 1


def _ensemble(initial: PureState | DensityOperator) -> tuple[np.ndarray, np.ndarray | None]:
    """The input's distinct vectors as rows, with their probabilities: the
    amplitudes alone (None) for a pure input, the eigenvectors with their
    eigenvalues for a mixed one."""
    if isinstance(initial, PureState):
        return initial.amplitudes[None, :], None
    dec = eigendecompose(initial)
    weights = np.clip(dec.eigenvalues, 0.0, None)
    return dec.eigenvectors.T, weights / weights.sum()


def _draw_rows(probs: np.ndarray | None, rng: np.random.Generator, size: int) -> np.ndarray:
    """Each trial's ensemble index: no draw for a pure input (``probs`` None),
    one ``rng.choice`` over all `size` trials for a mixed one."""
    if probs is None:
        return np.zeros(size, dtype=np.intp)
    return rng.choice(probs.size, p=probs, size=size)


def _ensemble_rows(
    initial: PureState | DensityOperator, rng: np.random.Generator, size: int
) -> np.ndarray:
    """One input vector per trial, as the rows of a (size, d) array."""
    vectors, probs = _ensemble(initial)
    return vectors[_draw_rows(probs, rng, size)]


def _amplify(
    apply_l: Callable[[np.ndarray], np.ndarray], vector: np.ndarray, n_rounds: int
) -> Iterator[float]:
    """The survivor path of one input vector: the run's state while no
    measurement has halted it, walked on the system space.

    Every Naimark form has Delta Pi Delta = L (x) |0><0|, so from |v, 0> the
    Pi measurement accepts with <v|L|v>, Delta keeps a rejection with
    ||(I - L) v||^2 / (1 - <v|L|v>), and the next round starts from
    (I - L) v, normalised: the path depends on Pi only through L.

    Yields, step by step, where the halting region of that step begins: the
    Pi accept probability (a trial halts if its uniform lies below it), then
    the Delta keep probability (it halts if its uniform lies at or above
    it), round after round.  As a generator it computes a step only when the
    step is read; ``apply_l`` is called once per round entered.  Uniforms
    lie in [0, 1), so the probabilities need no clipping, and a Delta step
    is read only after a Pi accept probability below 1.

    The first round's difference is a new array, which later rounds update
    in place; neither `vector` nor any array ``apply_l`` returns is written.
    An applier that fails on the vector, or returns another shape, raises
    ValueError naming the round.
    """
    live = vector
    for r in range(1, n_rounds + 1):
        try:
            hit = apply_l(live)
        except ValueError as err:
            raise ValueError(f"round {r}: the L-applier failed on a vector of shape {live.shape}: {err}") from err
        if np.shape(hit) != live.shape:
            raise ValueError(
                f"round {r}: the L-applier returned shape {np.shape(hit)} for a vector of shape {live.shape}"
            )
        p_pi = np.vdot(live, hit).real
        yield p_pi
        live = np.subtract(live, hit, out=None if live is vector else live)
        p_rest = np.vdot(live, live).real
        yield p_rest / (1.0 - p_pi)
        np.divide(live, math.sqrt(p_rest), out=live)


class _Survivors:
    """The survivor paths of one instance, shared by all of its trials.

    A pure input has one path; a mixed input has one per eigen-ensemble
    index some trial drew.  Each path is read from its ``_amplify``
    generator only as far as the furthest step a trial reached, and a trial
    halts at the first step whose halting region holds its uniform.
    """

    def __init__(
        self,
        apply_l: Callable[[np.ndarray], np.ndarray],
        initial: PureState | DensityOperator,
        n_rounds: int,
    ):
        self._apply_l, self.n_rounds = apply_l, n_rounds
        self._vectors, self._probs = _ensemble(initial)
        self._paths: dict[int, tuple[Iterator[float], list[float]]] = {}
        if self._probs is not None:
            # Generator.choice's rule: the index of a uniform in the cdf
            self._cdf = self._probs.cumsum()
            self._cdf /= self._cdf[-1]

    def boundary(self, row: int, step: int) -> float:
        """Where the halting region of `step` begins on the path of `row`."""
        if row not in self._paths:
            self._paths[row] = (_amplify(self._apply_l, self._vectors[row], self.n_rounds), [])
        path, read = self._paths[row]
        while len(read) <= step:
            read.append(next(path))
        return read[step]

    def _checked_boundary(self, row: int, step: int) -> float:
        """:meth:`boundary`, after the check that L lies in [0, I] on the
        path: a Pi accept probability p in [0, 1] and, at a Delta step,
        ||(I - L) v||^2 <= 1 - p (for 0 <= L <= I, <L^2> <= <L>), both to
        STATE_ATOL.  The second is checked on the kept mass, not on the keep
        ratio, which is ill-conditioned as p nears 1."""
        boundary, r = self.boundary(row, step), step // 2 + 1
        if step % 2 == 0:
            if not -STATE_ATOL <= boundary <= 1.0 + STATE_ATOL:
                raise ValueError(f"round {r}: Pi accept probability {boundary:.6g} is outside [0, 1]: L is not in [0, I]")
        else:
            rest = 1.0 - self.boundary(row, step - 1)
            if not boundary * rest <= rest + STATE_ATOL:
                raise ValueError(
                    f"round {r}: ||(I - L) v||^2 = {boundary * rest:.6g} exceeds 1 - <v|L|v> = {rest:.6g}: "
                    "L is not in [0, I]"
                )
        return boundary

    def halting_steps(self, draw: Callable[[np.ndarray], np.ndarray], trials: int) -> np.ndarray:
        """The halting core: each of `trials` trials' halting step, 2N for a
        rejection (step s is measurement s % 2 of round s // 2 + 1).

        ``draw(live)`` returns one uniform for each trial in the index array
        `live`, in that order.  A mixed input first draws every trial's
        ensemble index from one uniform each, by ``Generator.choice``'s
        rule; then each step reads its boundaries, draws one uniform per
        trial still running and drops the trials that halted.
        """
        n_steps = 2 * self.n_rounds
        live = np.arange(trials)
        halted = np.empty(trials, dtype=np.intp)
        if self._probs is not None:
            rows = self._cdf.searchsorted(draw(live), side="right")
            boundaries = np.zeros(len(self._vectors))
        for step in range(n_steps):
            if live.size == 0:
                break
            if self._probs is None:
                limit = self._checked_boundary(0, step)
            else:
                live_rows = rows[live]
                for row in np.flatnonzero(np.bincount(live_rows)).tolist():
                    boundaries[row] = self._checked_boundary(row, step)
                limit = boundaries[live_rows]
            u = draw(live)
            halt = (u < limit) if step % 2 == 0 else (u >= limit)
            halted[live[halt]] = step
            live = live[~halt]
        halted[live] = n_steps
        return halted

    def results(self, steps: np.ndarray) -> list[MWResult]:
        """One :class:`MWResult` per halting step."""
        n = self.n_rounds
        return [
            MWResult(True, s // 2 + 1, _HALTING_STEPS[s % 2]) if s < 2 * n else MWResult(False, n, None)
            for s in steps.tolist()
        ]

    def shared_steps(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """The halting steps of `trials` trials sharing `rng`: every ensemble
        index from one call, then per step one uniform per trial still
        running, in trial order.  One trial draws as a single run does."""
        return self.halting_steps(lambda live: rng.random(live.size), trials)

    def run(self, rng: np.random.Generator) -> MWResult:
        """One trial: its ensemble index, then one uniform per step taken."""
        return self.results(self.shared_steps(rng, 1))[0]

    def count(self, rng: np.random.Generator, trials: int) -> int:
        """Accepts among `trials` trials sharing `rng`."""
        return int(np.count_nonzero(self.shared_steps(rng, trials) < 2 * self.n_rounds))


def _survivors(inst: AveragedInstance) -> _Survivors:
    """The instance's survivor paths, walked with L: the mean of its
    appliers, or its single applier, which is L itself (it may already be a
    whole family's mean)."""
    apply_l = inst.appliers[0] if len(inst.appliers) == 1 else _mean_applier(inst.appliers)
    return _Survivors(apply_l, inst.initial, inst.n_rounds)


def _mean_applier(appliers: Sequence[Callable]) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (1/n) sum_i A_i v added left to right: an averaged family's L.

    The sum accumulates in place in an owned copy of the first output, so an
    applier that returns its input (or a cached array) is never written to."""
    first, rest = appliers[0], appliers[1:]

    def apply(v: np.ndarray) -> np.ndarray:
        total = np.array(first(v), dtype=np.complex128)
        for a in rest:
            total += a(v)
        total /= len(appliers)
        return total

    return apply


def run_mw_sampled(inst: AveragedInstance, rng: np.random.Generator) -> MWResult:
    """Simulate one run of the amplification procedure."""
    return _survivors(inst).run(rng)


def run_mw_sampled_batch(inst: AveragedInstance, rng: np.random.Generator, trials: int) -> int:
    """Accept count over independent trials of :func:`run_mw_sampled` that
    share one generator."""
    return _survivors(inst).count(rng, trials)


def run_averaged_or_sampled(
    appliers: Sequence[Callable[[np.ndarray], np.ndarray]],
    initial: PureState | DensityOperator,
    n_rounds: int,
    rng: np.random.Generator,
) -> MWResult:
    """One amplification run for an averaged family, matrix-free (see
    :class:`AveragedInstance`)."""
    return _survivors(AveragedInstance(appliers, initial, n_rounds)).run(rng)


def _run_once(inst: AveragedInstance, rng: np.random.Generator) -> bool:
    """Whether one run of an averaged instance accepts (every single-run wrapper)."""
    return run_averaged_or_sampled(inst.appliers, inst.initial, inst.n_rounds, rng).accepted


def sample_blocks(inst: AveragedInstance, blocks: Iterable[StreamBlock]) -> Iterator[np.ndarray]:
    """Independent runs of one instance, one per row of each stream block
    (:func:`rng.trial_blocks`), on shared survivor paths: per block, each
    row's halting step, 2N for a rejection (see ``_Survivors.halting_steps``).

    Row t draws only from its own stream, in a single run's order, so its
    outcome equals :func:`run_mw_sampled` on that stream's generator.
    """
    survivors = _survivors(inst)
    for block in blocks:
        yield survivors.halting_steps(block.random, block.size)


# -- exact oracles ---------------------------------------------------------------


def _round_counts(n_rounds, rows: int) -> np.ndarray:
    """One integer round count >= 1 per row, from an int or a length-`rows`
    array: the round-count check of every amplification entry point."""
    counts = np.asarray(n_rounds)
    if counts.ndim > 1 or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"round counts must be an integer or a 1-d integer array, got {n_rounds!r}")
    if counts.size and counts.min() < 1:
        raise ValueError("round count must be >= 1")
    return np.broadcast_to(counts, (rows,))


def _spectrum_rows(eigenvalues, weights) -> tuple[np.ndarray, np.ndarray, bool]:
    """A spectral measure or a (b, d) stack of them as two float (b, d)
    arrays, and whether the input was a single measure."""
    evals = np.asarray(eigenvalues, dtype=float)
    single = evals.ndim == 1
    evals = evals.reshape(1, -1) if single else evals
    weights = np.asarray(weights, dtype=float).reshape(evals.shape)
    if evals.ndim != 2:
        raise ValueError(f"expected a spectrum or a (b, d) stack of them, got shape {evals.shape}")
    return evals, weights, single


def mw_accept_from_spectrum(eigenvalues, weights, n_rounds):
    """sum_i w_i [1 - (1 - lambda_i)^{2N}] for a spectral measure of L.

    Also takes a (b, d) stack of measures with one round count per row (an
    int or a length-b array) and returns an array.  Terms are added left to
    right and weights below WEIGHT_ATOL skipped, and each power is a Python
    float power (the C library's pow; numpy's vectorised power may round
    differently), so a row's value is that of the scalar loop in any stack.
    """
    evals, weights, single = _spectrum_rows(eigenvalues, weights)
    rounds = _round_counts(n_rounds, len(evals))
    bases = (1.0 - np.clip(evals, 0.0, 1.0)).tolist()
    decay = np.array(
        [[x ** (2 * n) for x in row] for row, n in zip(bases, rounds.tolist())]
    ).reshape(evals.shape)
    terms = np.where(weights < WEIGHT_ATOL, 0.0, weights * (1.0 - decay))
    # From 0.0, strictly left to right (add.accumulate), as a scalar loop adds.
    total = np.add.accumulate(np.column_stack([np.zeros(len(terms)), terms]), axis=1)[:, -1]
    total = np.clip(total, 0.0, 1.0)
    return float(total[0]) if single else total


def mw_halting_law(eigenvalues, weights, n_rounds):
    """The law of a run's halting step from a spectral measure of L: entry s
    < 2N is the probability sum_i w_i lambda_i (1 - lambda_i)^s that step s
    halts it, entry 2N the rejection probability sum_i w_i (1 - lambda_i)^{2N}.

    Every step halts an eigenvector's run with probability lambda: Pi
    accepts with <v|L|v> and Delta halts with 1 - ||(I - L) v||^2 / (1 -
    <v|L|v>), both lambda.  The halting entries add up to
    :func:`mw_accept_from_spectrum`, which clips and skips as this does.
    Also takes a (b, d) stack with one round count per row and returns a
    (b, 2 max(N) + 1) array, row i's law in its first 2 N_i + 1 entries and
    zeros after.
    """
    evals, weights, single = _spectrum_rows(eigenvalues, weights)
    rounds = _round_counts(n_rounds, len(evals))
    lam = np.clip(evals, 0.0, 1.0)
    weights = np.where(weights < WEIGHT_ATOL, 0.0, weights)
    n_steps = 2 * int(rounds.max())
    decay = (1.0 - lam)[:, :, None] ** np.arange(n_steps + 1)  # (b, d, steps)
    law = np.einsum("bi,bis->bs", weights * lam, decay)
    for row, n in enumerate(rounds.tolist()):
        law[row, 2 * n] = weights[row] @ decay[row, :, 2 * n]
        law[row, 2 * n + 1 :] = 0.0
    return law[0] if single else law


def mw_bounds_from_spectrum(eigenvalues, weights, n_rounds):
    """The sandwich (1 - 1/e) tr(P_{>=1/2N} rho) <= p_acc <= 2N tr(L rho) from
    a spectral measure of L, as (lower, upper); a (b, d) stack with one round
    count per row gives two arrays.  Each row's mass and mean are the
    single-measure numpy expressions, so a row's bounds are the same in any
    stack."""
    evals, weights, single = _spectrum_rows(eigenvalues, weights)
    rounds = _round_counts(n_rounds, len(evals)).tolist()
    clipped = np.clip(evals, 0.0, 1.0)
    lower, upper = [], []
    for lam, w, cl, n in zip(evals, weights, clipped, rounds):
        mass = float(w[lam >= 1.0 / (2.0 * n)].sum())
        lower.append((1.0 - math.exp(-1.0)) * mass)
        upper.append(min(1.0, 2.0 * n * float(np.dot(cl, w))))
    if single:
        return lower[0], upper[0]
    return np.array(lower), np.array(upper)


def _spectral(dec: EigenDecomposition, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The core of :func:`spectral_measures` on a trusted decomposition stack
    and input stack."""
    check_slices(in_unit_interval(dec.eigenvalues), "accept operator", "not in [0, I]")
    vh = np.swapaxes(dec.eigenvectors.conj(), 1, 2)
    if inputs.ndim == 2:
        weights = np.abs((vh @ inputs[:, :, None])[:, :, 0]) ** 2
    else:
        weights = np.einsum("bij,bjk,bki->bi", vh, inputs, dec.eigenvectors).real
    return dec.eigenvalues, np.clip(weights, 0.0, None)


def spectral_measures(accept_ops, inputs) -> tuple[np.ndarray, np.ndarray]:
    """The spectral measure of each accept operator seen from its input.

    `accept_ops` is a (b, d, d) stack, each slice Hermitian and in [0, I],
    or the decomposition stack of one (:func:`states.eigendecompose_stack`);
    `inputs` is a (b, d) stack of unit vectors or a (b, d, d) stack of
    density matrices.  Returns the eigenvalues of each L, descending, and
    the weights <v_i|rho|v_i> on its eigenvectors (clipped at 0), both
    (b, d).  Row i equals the measure of a stack holding slice i alone, bit
    for bit.
    """
    dec = accept_spectra(accept_ops)
    inputs = state_stack(inputs)
    if inputs.shape[:2] != dec.eigenvalues.shape:
        raise ValueError(
            f"accept operator and input stacks differ in shape: "
            f"{dec.eigenvectors.shape} and {inputs.shape}"
        )
    return _spectral(dec, inputs)


def _single_measure(
    accept_op: HermitianOperator | np.ndarray, rho: PureState | DensityOperator
) -> tuple[np.ndarray, np.ndarray]:
    """The spectral measure of one operator and input, as a stack of one."""
    if isinstance(accept_op, HermitianOperator):
        ops = accept_op.matrix[None]
    else:
        ops = hermitian_stack(np.asarray(accept_op)[None], "accept operator")
    state = rho.amplitudes if isinstance(rho, PureState) else rho.matrix
    if state.shape[0] != ops.shape[1]:
        raise ValueError("accept operator and input state dimensions differ")
    return _spectral(_canonical_eigh(ops), state[None])


def mw_accept_exact(
    accept_op: HermitianOperator | np.ndarray,
    rho: PureState | DensityOperator,
    n_rounds: int,
) -> float:
    """Exact acceptance probability via the spectral decomposition of L.

    A mixed input enters through its weights <v_i|rho|v_i> on the
    eigenvectors v_i of L: the formula is linear in the input state.  A
    stack of one for the cores of :func:`spectral_measures` and
    :func:`mw_accept_from_spectrum`, which evaluate many instances at once.
    """
    evals, weights = _single_measure(accept_op, rho)
    return mw_accept_from_spectrum(evals[0], weights[0], n_rounds)


def mw_accept_polynomial(
    apply_l: Callable[[np.ndarray], np.ndarray], vector: np.ndarray, n_rounds: int
) -> float:
    """Exact acceptance on a unit vector v as 1 - ||(I - L)^N v||^2.

    Equals :func:`mw_accept_from_spectrum` on L's spectral measure seen from
    v, since sum_i w_i (1 - lambda_i)^{2N} = <v|(I - L)^{2N}|v>, but needs
    only N applications of L: no eigendecomposition and no dense operator.
    v must have unit norm to STATE_ATOL (:func:`states.state_stack`).
    """
    _round_counts(n_rounds, 1)
    state_stack(np.asarray(vector)[None])
    residual = vector
    for _ in range(n_rounds):
        residual = residual - apply_l(residual)
    return float(min(1.0, max(0.0, 1.0 - np.vdot(residual, residual).real)))


def _survival(pis: np.ndarray, d_anc: int, inputs: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """The core of :func:`mw_accept_survival_stack` on trusted stacks.

    The trials run longest first, so the ones still propagating are always
    a leading block of the stack; each is read at its own round count.
    """
    b, dim = pis.shape[:2]
    order = np.argsort(-rounds, kind="stable")
    rounds = rounds[order]
    # Delta (I - Pi): the rows of I - Pi on a nonzero ancilla value cleared.
    kraus = np.eye(dim) - pis[order]
    kraus.reshape(b, -1, d_anc, dim)[:, :, 1:] = 0.0
    if inputs.ndim == 2:
        state = np.zeros((b, dim), dtype=np.complex128)
        state[:, ::d_anc] = inputs[order]
    else:
        kraus_h = np.swapaxes(kraus.conj(), 1, 2)
        state = np.zeros((b, dim, dim), dtype=np.complex128)
        state[:, ::d_anc, ::d_anc] = inputs[order]
        half = np.empty_like(state)
    survival = np.empty(b)
    for n in range(1, int(rounds[0]) + 1):
        live = int(np.count_nonzero(rounds >= n))
        if inputs.ndim == 2:
            state = (kraus[:live] @ state[:live, :, None])[:, :, 0]
        else:
            np.matmul(kraus[:live], state[:live], out=half[:live])
            np.matmul(half[:live], kraus_h[:live], out=state[:live])
        for i in np.flatnonzero(rounds[:live] == n):
            s = state[i]
            survival[order[i]] = np.vdot(s, s).real if inputs.ndim == 2 else np.trace(s).real
    return np.clip(1.0 - survival, 0.0, 1.0)


def mw_accept_survival_stack(pis, ancilla_dim: int, inputs, n_rounds) -> np.ndarray:
    """Second oracle on a stack: 1 - |(Delta (I - Pi))^N |psi, 0>|^2 per slice.

    `pis` is a (b, D, D) stack of Naimark projectors whose ancilla index
    (dimension `ancilla_dim`) runs fastest, checked as :class:`NaimarkForm`
    checks one; `inputs` is a (b, D / ancilla_dim) stack of unit vectors or
    a (b, d, d) stack of density matrices; `n_rounds` an int or one count
    >= 1 per slice.  The stack propagates up to its largest N and each
    slice is read at its own; each value equals the single oracle's bit for
    bit.  No spectral decomposition of L is used.
    """
    pis = hermitian_stack(pis, "Pi")
    b, dim = pis.shape[:2]
    if ancilla_dim < 1 or dim % ancilla_dim:
        raise ValueError(f"ancilla dimension {ancilla_dim} does not divide {dim}")
    naimark_checks(pis, ancilla_dim)
    inputs = state_stack(inputs)
    if inputs.shape[:2] != (b, dim // ancilla_dim):
        raise ValueError(
            f"Naimark and input stacks differ in shape: {pis.shape} and {inputs.shape}"
        )
    return _survival(pis, ancilla_dim, inputs, _round_counts(n_rounds, b))


def mw_accept_survival(
    naimark: NaimarkForm, initial: PureState | DensityOperator, n_rounds: int
) -> float:
    """Second oracle: 1 - |(Delta (I - Pi))^N |psi, 0^m>|^2 on the extended space.

    Independent of :func:`mw_accept_exact` (no spectral decomposition of L);
    mixed inputs propagate the extended density operator instead.  The input
    lives on the form's pre-ancilla system space.  A stack of one for
    :func:`mw_accept_survival_stack`'s core.
    """
    rounds = _round_counts(n_rounds, 1)
    if initial.shape != naimark.system_shape:
        raise ValueError("initial state must live on the pre-ancilla system space")
    state = initial.amplitudes if isinstance(initial, PureState) else initial.matrix
    return float(_survival(naimark.pi[None], naimark.ancilla_dim, state[None], rounds)[0])


def mw_bounds(
    accept_op: HermitianOperator | np.ndarray,
    rho: PureState | DensityOperator,
    n_rounds: int,
) -> tuple[float, float]:
    """The sandwich (1 - 1/e) tr(P_{>=1/2N} rho) <= p_acc <= 2N tr(L rho): a
    stack of one for the cores of :func:`spectral_measures` and
    :func:`mw_bounds_from_spectrum`."""
    evals, weights = _single_measure(accept_op, rho)
    return mw_bounds_from_spectrum(evals[0], weights[0], n_rounds)


# -- sequential-measurement property test (the OR wrapper) -------------------------


def _exact_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # exact binary value of the float


def _check_eta(eta) -> Fraction:
    """eta as an exact fraction, after the check 0 < eta <= 1 (NaN fails)."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    return _exact_fraction(eta)


def or_round_count(n: int, epsilon) -> int:
    """N = ceil(n / (1 - eps)), evaluated in exact rational arithmetic, for
    an integer n >= 1."""
    _round_counts(n, 1)
    eps = _exact_fraction(epsilon)
    if not 0 <= eps <= Fraction(1, 2):
        raise ValueError("epsilon must lie in [0, 1/2]")
    return math.ceil(Fraction(n) / (1 - eps))


def _averaged_operator(family) -> HermitianOperator:
    """The exact oracles' L = (1/n) sum_i A_i over a family of measurements
    or of operators A_i, added left to right."""
    ops = [getattr(m, "accept_op", m) for m in family]
    return _trusted(HermitianOperator, ops[0].shape, sum(op.matrix for op in ops) / len(ops))


def _family_instance(family, rho: PureState | DensityOperator, n_rounds: int) -> AveragedInstance:
    """The samplers' run on the same family: one matvec applier per A_i."""
    mats = [getattr(m, "accept_op", m).matrix for m in family]
    return AveragedInstance([(lambda v, mat=mat: mat @ v) for mat in mats], rho, n_rounds)


def or_test_instance(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: PureState | DensityOperator,
    epsilon,
) -> AveragedInstance:
    """The amplification run of :func:`or_test`: the averaged projector
    family applied matrix-free, the input and N = ceil(n/(1-eps)) rounds."""
    _check_projective(measurements, rho.shape)
    return _family_instance(measurements, rho, or_round_count(len(measurements), epsilon))


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
    return _run_once(or_test_instance(measurements, rho, epsilon), rng)


def or_test_accept_exact(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: PureState | DensityOperator,
    epsilon,
) -> float:
    """Exact acceptance probability of :func:`or_test` on this instance."""
    _check_projective(measurements, rho.shape)
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
    return [_trusted(HermitianOperator, sys_shape, gamma.matrix[j::d, j::d]) for j in range(d)]


def _check_gamma(gamma: HermitianOperator, psi: PureState) -> None:
    """The instance check of :func:`demerlinize_instance`,
    :func:`demerlinize_accept_exact` and :func:`merlin_best_witness_accept`:
    Gamma in [0, I] on message (x) witness, psi on the message registers."""
    if psi.shape.dims != gamma.shape.dims[:-1]:
        raise ValueError("psi must live on the message registers of gamma's message (x) witness system")
    if not in_unit_interval(np.linalg.eigvalsh(gamma.matrix)):
        raise ValueError("gamma is not in [0, I]")


def merlin_best_witness_accept(gamma: HermitianOperator, psi: PureState) -> float:
    """max over witness states sigma of tr Gamma (psi (x) sigma).

    Equals the top eigenvalue of the witness-side operator obtained by
    contracting Gamma with |psi><psi| on the message side.
    """
    _check_gamma(gamma, psi)
    d_sys, d = psi.shape.total_dim, gamma.shape.dims[-1]
    g = gamma.matrix.reshape(d_sys, d, d_sys, d)
    t = np.einsum("a,abcd,c->bd", psi.amplitudes.conj(), g, psi.amplitudes)
    return float(np.linalg.eigvalsh(0.5 * (t + t.conj().T)).max())


def demerlinize_round_count(d: int, eta) -> int:
    """N = ceil(d / eta) in exact rational arithmetic, for an integer d >= 1."""
    _round_counts(d, 1)
    return math.ceil(Fraction(d) / _check_eta(eta))


def demerlinize_instance(gamma: HermitianOperator, psi: PureState, eta) -> AveragedInstance:
    """The amplification run of :func:`demerlinize_test`: the averaged family
    of witness slices applied matrix-free, the message state and
    N = ceil(d/eta) rounds."""
    _check_gamma(gamma, psi)
    n_rounds = demerlinize_round_count(gamma.shape.dims[-1], eta)
    return _family_instance(merlin_slice_operators(gamma), psi, n_rounds)


def demerlinize_test(
    gamma: HermitianOperator, psi: PureState, eta, rng: np.random.Generator
) -> bool:
    """Search the witness register by amplification instead of trusting it.

    Runs the amplification procedure once on the averaged slice family
    (1/d) sum_j Gamma_j with N = ceil(d/eta).  A gamma that accepts psi with
    some witness at probability >= eta leads to acceptance with probability
    >= eta^2/7; if no witness reaches zeta the acceptance probability is at
    most 2 zeta ceil(d/eta).
    """
    return _run_once(demerlinize_instance(gamma, psi, eta), rng)


def demerlinize_accept_exact(gamma: HermitianOperator, psi: PureState, eta) -> float:
    """Exact acceptance probability of :func:`demerlinize_test`."""
    _check_gamma(gamma, psi)
    lam = _averaged_operator(merlin_slice_operators(gamma))
    return mw_accept_exact(lam, psi, demerlinize_round_count(gamma.shape.dims[-1], eta))
