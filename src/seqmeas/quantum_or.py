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

On a pure input every trial sees the same not-yet-halted state, and
randomness only decides where it halts, so the state path belongs to the
instance: it is walked once per distinct input vector (one for a pure
input, one per eigen-ensemble index drawn for a mixed one), grown lazily,
only as far as the furthest step some trial reaches, and a trial halts at
the first step whose halting region holds its uniform.  A run is one of two
instances, each with its ``_walk``.  An :class:`AveragedInstance` is walked by
``_amplify`` on the system space with L, the mean of its appliers (the
path depends on Pi only through L; Pi itself is exercised by the survival
oracle): the OR test, de-Merlinization and genuine entanglement give one
matvec per member, and a Naimark form's run is the single applier
``lambda v: L @ v`` of its induced operator.  A :class:`TensorPowerInstance`,
L the mean of k-th tensor powers of projectors V_i V_i^dag on factor^(x)k,
picks its own walk from its sizes: the Gram space of reduced words, with no
k-copy vector, or ``_amplify`` on its ``_vector_path`` (the pair the
interference matvec oracle reads); both yield the same sequence.

Draw order.  Every sampler is one halting core
(``_Survivors.halting_steps``) fed by one of three draw sources.  A single
run, :func:`run_mw_sampled`, which every single-run entry point returns,
draws a mixed input's ensemble index from one uniform by ``_draw_rows``:
``Generator.choice``'s rule on its cdf (a pure input is one row and draws
no index); then one uniform per step taken: the Pi measurement, then
Delta, round after round.  :func:`sample_blocks` gives trial t its own row
of a stream block (:func:`rng.trial_blocks`) and draws from it in exactly
that order, with no ``Generator`` per trial, so each of its outcomes
equals a single run on that trial's stream, however many trials share the
paths.  :func:`run_mw_sampled_batch` shares one generator: every trial's
ensemble index in one call, then per step one uniform per trial still
running, in trial order.  The core checks the path it reads: a Pi accept
probability outside [0, 1], a kept mass ||(I - L) v||^2 above
1 - <v|L|v>, or an applier that does not map the input's vectors to
vectors of the same shape raises ValueError naming the round, so appliers
whose mean is no operator in [0, I] are not sampled.
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
    check_integer,
    check_interval,
    check_slices,
    check_state,
    eigendecompose,
    hermitian_stack,
    product_state,
    state_stack,
)

WEIGHT_ATOL = 1e-14
MAX_VECTOR_DIM = 1 << 20


@dataclass(frozen=True)
class AveragedInstance:
    """One matrix-free amplification run on L = (1/n) sum_i A_i, the uniform
    average of n operators A_i in [0, I]: appliers (system vector -> vector)
    whose mean is L, an input state and the round count N.  Only matvecs
    are needed, so instances are limited by state-vector size rather than
    dense-operator size.
    """

    appliers: tuple[Callable[[np.ndarray], np.ndarray], ...]
    initial: PureState | DensityOperator
    n_rounds: int

    def __post_init__(self):
        appliers = tuple(self.appliers)
        if not appliers:
            raise ValueError("need at least one measurement")
        check_state(self.initial, "initial")
        _round_counts(self.n_rounds, 1)
        object.__setattr__(self, "appliers", appliers)

    def _walk(self) -> tuple[Callable[[np.ndarray], Iterator[float]], PureState | DensityOperator]:
        """The survivor walk and its input: ``_amplify`` with the appliers'
        mean on the system space, from the initial state."""
        apply_l = _mean_applier(self.appliers)
        return (lambda v: _amplify(apply_l, v, self.n_rounds)), self.initial


def _copies_dim(per_copy: int, copies_k: int, tail_dim: int = 1) -> int:
    """per_copy^k * tail_dim, the dimension of a k-copy state, after checking
    it against the vector cap (k is checked by the caller; every register
    has dim >= 2, so a k past the cap's bit length fails before any power is
    taken)."""
    if copies_k > MAX_VECTOR_DIM.bit_length() or per_copy**copies_k * tail_dim > MAX_VECTOR_DIM:
        raise ValueError(f"k-copy state dim {per_copy}^{copies_k} * {tail_dim} exceeds the vector cap {MAX_VECTOR_DIM}")
    return per_copy**copies_k * tail_dim


@dataclass(frozen=True, eq=False)
class TensorPowerInstance:
    """One amplification run on L = (1/n) sum_i P_i^{(x)k}, the mean of the
    k-th tensor powers of n projectors P_i = V_i V_i^dag on a D-dimensional
    factor space, from factor^{(x)k}, with N rounds: the interference
    testers' run (V_i = [I; U_i^dag]/sqrt2) and membership's (V_i a
    candidate).  `frames` is stored as a read-only complex (n, D, r) stack
    of orthonormal columns; every construction path holds D^k to the vector
    cap first.  The run picks its walk (:meth:`_walk`): ``_word_walk`` takes
    O(W^2 D) time once and O(W^2) per step for W reduced words, independent
    of k but for the log k squarings of the Gram power, and W grows as
    (n - 1)^N, so past W^2 = D^k (n >= 5 always) the vector walk runs.
    """

    frames: np.ndarray
    factor: PureState
    copies_k: int
    n_rounds: int

    def _store(self):
        _copies_dim(np.shape(self.frames)[1], self.copies_k)
        frames = np.array(self.frames, dtype=np.complex128)
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 3 or 0 in frames.shape:
            raise ValueError(f"expected an (n, D, r) stack of frames, got shape {frames.shape}")
        check_state(self.factor, "factor", PureState)
        if frames.shape[1] != (dim := self.factor.shape.total_dim):
            raise ValueError(f"frames of dimension {frames.shape[1]} on a factor of dimension {dim}")
        gram = np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(frames.shape[2])
        check_slices(np.abs(gram).max(axis=(1, 2)) <= STATE_ATOL, "frame", "not orthonormal (V^dag V != I)")
        _check_copies(self.copies_k)
        _round_counts(self.n_rounds, 1)
        self._store()

    def _walk(self) -> tuple[Callable[[np.ndarray], Iterator[float]], PureState]:
        """The survivor walk and its input: ``_word_walk`` on the factor when
        the W reduced words have W^2 <= D^k (a Gram matrix no larger than one
        k-copy vector), else ``_amplify`` with the vector applier on factor^{(x)k}."""
        n, dim, _ = self.frames.shape
        if _word_count(n, self.n_rounds, math.isqrt(dim**self.copies_k)) is not None:
            return self._word_walk, self.factor
        apply_l, vector = self._vector_path()
        return (lambda v: _amplify(apply_l, v, self.n_rounds)), vector

    def _vector_path(self) -> tuple[Callable[[np.ndarray], np.ndarray], PureState]:
        """The vector walk's L (:func:`_tensor_power_applier`) and input factor^{(x)k}."""
        return _tensor_power_applier(self.frames, self.copies_k), product_state([self.factor] * self.copies_k)

    def _word_walk(self, vector: np.ndarray) -> Iterator[float]:
        """The survivor path of vector^{(x)k} in the Gram space of reduced
        words: the sequence ``_amplify`` yields on the k-copy vector, step
        by step and as lazily, in the span of the (P_w vector)^{(x)k} over the
        reduced words w of length <= N (no letter twice, as P_i^2 = P_i).

        The rows x_w = P_w vector (x_empty = vector, x_{iw} = V_i (V_i^dag
        x_w)) give the Gram power G = (X^* X^T)^{o k}, G_vw =
        <x_v^{(x)k}|x_w^{(x)k}>.  On coefficients c the path vector is
        sum_w c_w x_w^{(x)k}, and L maps x_w^{(x)k} to the mean over i of
        x_{iw}^{(x)k}, where i = w_0 gives w itself: so L is the matrix M
        below, which sends w to iw (i != w_0) and to w, each with weight
        1/n.  Round by round, the Pi accept probability is c^dag G (M c) and
        the Delta keep probability ||(I - L) v||^2 / (1 - <v|L|v>) with
        ||(I - L) v||^2 = d^dag G d for d = c - M c, clipped at 0 as
        ``testers._membership_law`` clips: rounding can take the quadratic
        form a few ulps below 0 near a vector that every P_i fixes.
        """
        n = len(self.frames)
        parents, blocks = _reduced_words(n, self.n_rounds)
        x = np.empty((parents.size, vector.size), dtype=np.complex128)
        x[0] = vector
        for lo, hi, i in blocks:
            x[lo:hi] = (x[parents[lo:hi]] @ self.frames[i].conj()) @ self.frames[i].T
        gram = _elementwise_power(x.conj() @ x.T, self.copies_k)
        live = np.zeros(parents.size, dtype=np.complex128)
        live[0] = 1.0
        hit = np.zeros_like(live)
        for _ in range(self.n_rounds):
            np.add(live[parents[1:]], live[1:], out=hit[1:])
            hit /= n
            p_pi = np.vdot(live, gram @ hit).real
            yield p_pi
            live -= hit
            p_rest = max(np.vdot(live, gram @ live).real, 0.0)
            yield p_rest / (1.0 - p_pi)
            live /= math.sqrt(p_rest)


def _tensor_power_applier(frames: np.ndarray, copies_k: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> L x, L = (1/n) sum_i P_i^{(x)k} on k contiguous D-dimensional
    axes, P_i = V_i V_i^dag for the (D, r) slices V_i of `frames`.

    Every step is one matmul that contracts the leading axis and moves it
    last: k down steps by V_i^dag, each scaling the size by r/D; one
    transpose puts any trailing axes (the cycle's flag) back behind the k
    system axes; k up steps by V_i.  A trailing axis of the input thus
    leads in the output: (b_1, ..., b_k, f) -> (f, b_1, ..., b_k).

    Each member's (k - 1)-th up step writes into its row of an (n, size r/D)
    stack (at k = 1 the transposed vector is copied there); the n last up
    steps and the 1/n are one matmul, ``stack.reshape(n r, -1).T @
    vstack(V_i^T)/n``, on the stack's transpose, which is that operand
    with no copy.  A stack holds at most MAX_VECTOR_DIM amplitudes (or one
    member), so a larger family goes a group at a time and the memory one
    application takes does not grow with n.
    """
    n, dim, rank = frames.shape
    downs = frames.conj()  # (V_i^dag)^T
    ups = np.ascontiguousarray(np.swapaxes(frames, 1, 2))  # V_i^T
    last = ups.reshape(n * rank, dim) / n
    system = rank**copies_k

    def apply(vec: np.ndarray) -> np.ndarray:
        part = vec.size // dim * rank
        group = max(1, MAX_VECTOR_DIM // part)  # members per stack
        stack = np.empty((min(group, n), part), dtype=np.complex128)
        for lo in range(0, n, group):
            rows = stack[: n - lo]
            for row, down, up in zip(rows, downs[lo:], ups[lo:]):
                t = vec
                for _ in range(copies_k):
                    t = t.reshape(dim, -1).T @ down
                t = t.reshape(-1, system).T
                if copies_k == 1:
                    row.reshape(t.shape)[...] = t
                    continue
                for _ in range(copies_k - 2):
                    t = t.reshape(rank, -1).T @ up
                np.matmul(t.reshape(rank, -1).T, up, out=row.reshape(-1, dim))
            total = rows.reshape(len(rows) * rank, -1).T @ last[lo * rank : (lo + len(rows)) * rank]
            if lo == 0:
                out = total
            else:
                out += total
        return out.reshape(-1)

    return apply


def _reduced_words(n: int, n_rounds: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The reduced words over n letters of length <= N, shortest first, the
    empty word at index 0: each word's parent (iw's is w; entry 0 is unused)
    and the blocks (lo, hi, i) of the words iw at indices lo..hi - 1, every
    block after the blocks holding its parents."""
    parents, blocks, size = [np.zeros(1, dtype=np.intp)], [], 1
    level, level_first = np.zeros(1, dtype=np.intp), np.full(1, -1)
    for _ in range(n_rounds):
        tails = [level[level_first != i] for i in range(n)]
        for i, t in enumerate(tails):
            if t.size:
                blocks.append((size, size + t.size, i))
                size += t.size
        if size == level[-1] + 1:
            break  # one letter: no word is longer than 1
        parents += tails
        level = np.arange(level[-1] + 1, size)
        level_first = np.repeat(np.arange(n), [t.size for t in tails])
    return np.concatenate(parents), blocks


def _word_count(n: int, n_rounds: int, cap: int) -> int | None:
    """The number of reduced words over n letters of length <= N, or None
    once it passes `cap` (the count grows as (n - 1)^N, so it is never
    formed past the cap)."""
    total = level = 1
    for j in range(n_rounds):
        level *= n if j == 0 else n - 1
        total += level
        if total > cap:
            return None
        if not level:
            break
    return total


@dataclass(frozen=True)
class MWResult:
    accepted: bool
    rounds_used: int
    halting_step: str | None  # "pi", "delta", or None when rejected


_HALTING_STEPS = ("pi", "delta")  # step s is measurement s % 2 of round s // 2 + 1


def _ensemble(initial: PureState | DensityOperator) -> tuple[np.ndarray, np.ndarray | None]:
    """The input's distinct vectors as rows, with the cdf of their
    probabilities: None for a pure input, else the normalised eigenvalues'
    cumulative sum over its last entry, as ``Generator.choice`` forms it."""
    if isinstance(initial, PureState):
        return initial.amplitudes[None, :], None
    dec = eigendecompose(initial)
    weights = np.clip(dec.eigenvalues, 0.0, None)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return dec.eigenvectors.T, cdf


def _draw_rows(cdf: np.ndarray | None, draw: Callable, live: np.ndarray) -> np.ndarray:
    """The ensemble index of each trial in the index array `live`: 0 and no
    draw for a pure input, else ``Generator.choice``'s rule on the uniforms
    ``draw(live)``, so ``rng.random`` draws what ``rng.choice`` would."""
    if cdf is None:
        return np.zeros(live.size, dtype=np.intp)
    return cdf.searchsorted(draw(live), side="right")


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
    index some trial drew.  Each path is read from the generator that
    ``walk`` returns for its input vector (``_amplify`` or ``_word_walk``)
    only as far as the furthest step a trial reached, and a trial halts at
    the first step whose halting region holds its uniform.
    """

    def __init__(
        self,
        walk: Callable[[np.ndarray], Iterator[float]],
        initial: PureState | DensityOperator,
        n_rounds: int,
    ):
        self._walk, self.n_rounds = walk, n_rounds
        self._vectors, self._cdf = _ensemble(initial)
        self._paths: dict[int, tuple[Iterator[float], list[float]]] = {}

    def boundary(self, row: int, step: int) -> float:
        """Where the halting region of `step` begins on the path of `row`."""
        if row not in self._paths:
            self._paths[row] = (self._walk(self._vectors[row]), [])
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
        ensemble index (``_draw_rows``); then each step reads the boundaries
        of the rows still running, draws one uniform per trial still running
        and drops the trials that halted.  A pure input is the one row 0.
        """
        n_steps = 2 * self.n_rounds
        live = np.arange(trials)
        halted = np.empty(trials, dtype=np.intp)
        rows = _draw_rows(self._cdf, draw, live)
        boundaries = np.zeros(len(self._vectors))
        for step in range(n_steps):
            if live.size == 0:
                break
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


def _survivors(inst: AveragedInstance | TensorPowerInstance) -> _Survivors:
    """The instance's survivor paths, on the walk the instance gives."""
    return _Survivors(*inst._walk(), inst.n_rounds)


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


def run_mw_sampled(inst: AveragedInstance | TensorPowerInstance, rng: np.random.Generator) -> MWResult:
    """One run of the amplification procedure: the halting core on one trial."""
    (step,) = _survivors(inst).halting_steps(lambda live: rng.random(live.size), 1).tolist()
    n = inst.n_rounds
    return MWResult(True, step // 2 + 1, _HALTING_STEPS[step % 2]) if step < 2 * n else MWResult(False, n, None)


def run_mw_sampled_batch(inst: AveragedInstance | TensorPowerInstance, rng: np.random.Generator, trials: int) -> int:
    """Accept count over independent trials of :func:`run_mw_sampled` that
    share one generator."""
    check_integer(trials, "trials", 0)
    steps = _survivors(inst).halting_steps(lambda live: rng.random(live.size), trials)
    return int(np.count_nonzero(steps < 2 * inst.n_rounds))


def run_averaged_or_sampled(
    appliers: Sequence[Callable[[np.ndarray], np.ndarray]],
    initial: PureState | DensityOperator,
    n_rounds: int,
    rng: np.random.Generator,
) -> MWResult:
    """One amplification run for an averaged family, matrix-free:
    :func:`run_mw_sampled` on its :class:`AveragedInstance`."""
    return run_mw_sampled(AveragedInstance(appliers, initial, n_rounds), rng)


def sample_blocks(inst: AveragedInstance | TensorPowerInstance, blocks: Iterable[StreamBlock]) -> Iterator[np.ndarray]:
    """Independent runs of one instance, one per row of each stream block
    (:func:`rng.trial_blocks`), on shared survivor paths: per block, each
    row's halting step, 2N for a rejection (see ``_Survivors.halting_steps``).

    Row t draws only from its own stream, in a single run's order, so its
    outcome equals :func:`run_mw_sampled` on that stream's generator.
    """
    survivors = _survivors(inst)
    for block in blocks:
        yield survivors.halting_steps(block.random, block.size)


def _elementwise_power(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k entrywise for an integer k >= 0, by repeated squaring (numpy's
    complex ``**`` takes the general power routine, far slower at large k),
    in two owned buffers: x itself is never written."""
    result = np.ones_like(x)
    square = np.array(x)
    while k:
        if k & 1:
            np.multiply(result, square, out=result)
        k >>= 1
        if k:
            np.multiply(square, square, out=square)
    return result


# -- exact oracles ---------------------------------------------------------------


def _round_counts(n_rounds, rows: int) -> np.ndarray:
    """One integer round count >= 1 per row, from an int or a length-`rows`
    array: the round-count check of every amplification entry point."""
    counts = np.asarray(n_rounds)
    # numpy holds Python ints past int64 as uint64 or as objects
    wide = counts.reshape(-1).tolist() if counts.dtype.kind in "Ou" else []
    top = max([c for c in wide if isinstance(c, int)], default=0)
    if top > 2**63 - 1:
        raise ValueError(f"round count must be at most the int64 cap 2**63 - 1, got a {top.bit_length()}-bit integer")
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
    check_state(rho, "rho")
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
    ancilla_dim = check_integer(ancilla_dim, "ancilla dimension")
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
    check_state(initial, "initial")
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


def _check_eta(eta) -> Fraction:
    """eta as an exact fraction in (0, 1]."""
    return check_interval(eta, "eta", 0, 1, open_low=True)


def _check_copies(copies_k: int, name: str = "copy count k", unit: str = "copy") -> None:
    """The copy-count check of every k-copy tester, and the family-size check
    of every round or copy rule: an integer >= 1."""
    if check_integer(copies_k, name) < 1:
        raise ValueError(f"need at least one {unit}")


def or_round_count(n: int, epsilon) -> int:
    """N = ceil(n / (1 - eps)), evaluated in exact rational arithmetic, for
    an integer n >= 1 and a real eps in [0, 1/2]; n and N must lie within
    the int64 cap."""
    _check_copies(n, "family size", "member")
    _round_counts(n, 1)
    eps = check_interval(epsilon, "epsilon", 0, Fraction(1, 2))
    n_rounds = math.ceil(Fraction(n) / (1 - eps))
    _round_counts(n_rounds, 1)
    return n_rounds


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
    check_state(rho, "rho")
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
    return run_mw_sampled(or_test_instance(measurements, rho, epsilon), rng).accepted


def or_test_accept_exact(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: PureState | DensityOperator,
    epsilon,
) -> float:
    """Exact acceptance probability of :func:`or_test` on this instance."""
    check_state(rho, "rho")
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
    check_state(psi, "psi", PureState)
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
    """N = ceil(d / eta) in exact rational arithmetic, for an integer d >= 1;
    d and N must lie within the int64 cap."""
    _check_copies(d, "witness dimension", "witness basis state")
    _round_counts(d, 1)
    n_rounds = math.ceil(Fraction(d) / _check_eta(eta))
    _round_counts(n_rounds, 1)
    return n_rounds


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
    return run_mw_sampled(demerlinize_instance(gamma, psi, eta), rng).accepted


def demerlinize_accept_exact(gamma: HermitianOperator, psi: PureState, eta) -> float:
    """Exact acceptance probability of :func:`demerlinize_test`."""
    _check_gamma(gamma, psi)
    lam = _averaged_operator(merlin_slice_operators(gamma))
    return mw_accept_exact(lam, psi, demerlinize_round_count(gamma.shape.dims[-1], eta))
