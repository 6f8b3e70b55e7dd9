"""Two-outcome measurements: collapse semantics, Naimark forms, and the
gentle-measurement and quantum-union bounds checked by brute force.

A measurement is specified by its accept operator L with 0 <= L <= I; the
measurement itself is {L, I - L} with the first outcome read as "accept".
Non-projective elements enter Algorithm-style procedures through an explicit
Naimark form Delta Pi Delta = L (x) |0><0|^m on an ancilla-extended space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gates import qft_matrix
from .states import (
    DensityOperator,
    EigenDecomposition,
    HermitianOperator,
    PureState,
    RegisterShape,
    _canonical_eigh,
    _complex_array,
    _trusted,
    check_integer,
    check_interval,
    check_slices,
    check_state,
    hermitian_stack,
    state_stack,
    trace_distance_matrix,
)

# Requesting a branch below this probability deterministically is a logic
# error rather than a meaningful collapse.
ZERO_BRANCH_ATOL = 1e-12

POVM_RANGE_ATOL = 1e-10
PROJECTOR_ATOL = 1e-8

MAX_ENUMERATION_STEPS = 12
# anti-Zeno sequence length cap: each measurement costs about 80 us and 1 KiB
MAX_SEQUENCE_STEPS = 10**4


def in_unit_interval(evals: np.ndarray) -> bool | np.ndarray:
    """Whether a spectrum lies in [0, 1] to POVM_RANGE_ATOL (NaN fails); for
    a (b, d) stack of spectra, one bool per row."""
    ok = (evals.min(axis=-1) >= -POVM_RANGE_ATOL) & (evals.max(axis=-1) <= 1.0 + POVM_RANGE_ATOL)
    return bool(ok) if evals.ndim == 1 else ok


def is_idempotent(mat: np.ndarray) -> bool | np.ndarray:
    """Whether P @ P = P to PROJECTOR_ATOL; with P Hermitian, P is a projector.
    For a stack of matrices, one bool per slice."""
    ok = np.abs(mat @ mat - mat).max(axis=(-2, -1)) <= PROJECTOR_ATOL
    return bool(ok) if mat.ndim == 2 else ok


def ancilla_zero(d_anc: int) -> np.ndarray:
    """The ancilla projector |0><0| on a d_anc-dimensional ancilla."""
    zero = np.zeros((d_anc, d_anc))
    zero[0, 0] = 1.0
    return zero


@dataclass(frozen=True)
class TwoOutcomeMeasurement:
    """POVM element L (the accept operator) of the measurement {L, I - L}."""

    accept_op: HermitianOperator
    is_projector: bool = False

    def _store(self):
        object.__setattr__(self, "is_projector", bool(self.is_projector))

    def __post_init__(self):
        self._store()
        mat = self.accept_op.matrix
        if not in_unit_interval(np.linalg.eigvalsh(mat)):
            raise ValueError("accept operator is not in [0, I]")
        if self.is_projector and not is_idempotent(mat):
            raise ValueError("operator flagged as projector is not idempotent within tolerance")

    @property
    def shape(self) -> RegisterShape:
        return self.accept_op.shape

    @classmethod
    def projector(cls, op: HermitianOperator) -> "TwoOutcomeMeasurement":
        return cls(op, is_projector=True)


def accept_probability(m: TwoOutcomeMeasurement, rho: DensityOperator | PureState) -> float:
    """tr(L rho) clipped to [0, 1]."""
    check_state(rho, "rho")
    if rho.shape != m.shape:
        raise ValueError("measurement and state shapes differ")
    if isinstance(rho, PureState):
        p = np.vdot(rho.amplitudes, m.accept_op.matrix @ rho.amplitudes).real
    else:
        p = np.trace(m.accept_op.matrix @ rho.matrix).real
    return float(min(1.0, max(0.0, p)))


def _check_projective(measurements: Sequence[TwoOutcomeMeasurement], shape: RegisterShape | None = None):
    """The check of every procedure on projective measurements: at least one,
    each a TwoOutcomeMeasurement flagged is_projector, on `shape` (or on the
    first one's)."""
    if not measurements:
        raise ValueError("need at least one measurement")
    shape = measurements[0].shape if shape is None else shape
    for m in measurements:
        if not (isinstance(m, TwoOutcomeMeasurement) and m.is_projector):
            raise ValueError("the procedure needs TwoOutcomeMeasurements flagged is_projector")
        if m.shape != shape:
            raise ValueError(f"shapes differ: a measurement on {m.shape.dims}, expected {shape.dims}")


def _accept_split(p_mat: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, float]:
    """P psi and the accept probability <psi|P|psi>, clipped to [0, 1]."""
    hit = p_mat @ amps
    return hit, float(min(1.0, max(0.0, np.vdot(amps, hit).real)))


def measure_collapse(
    measurement: TwoOutcomeMeasurement,
    psi: PureState,
    *,
    branch: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, PureState]:
    """Projectively measure {P, I - P} on a pure state.

    `measurement` must be a :class:`TwoOutcomeMeasurement` flagged
    `is_projector`, such as ``TwoOutcomeMeasurement.projector(op)``; its P was
    checked idempotent at construction.  Returns (outcome, probability of that
    outcome, residual state), where outcome 1 means the P branch.  Pass
    `branch` to force an outcome deterministically, or `rng` to sample it.
    """
    if (branch is None) == (rng is None):
        raise ValueError("pass exactly one of branch= or rng=")
    check_state(psi, "psi", PureState)
    _check_projective([measurement], psi.shape)
    hit, p1 = _accept_split(measurement.accept_op.matrix, psi.amplitudes)
    if branch is None:
        branch = 1 if rng.random() < p1 else 0
    branch = check_integer(branch, "branch")
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    prob = p1 if branch == 1 else 1.0 - p1
    if prob < ZERO_BRANCH_ATOL:
        raise ValueError(f"requested branch {branch} has probability {prob!r} (below threshold)")
    residual = hit if branch == 1 else psi.amplitudes - hit
    residual = residual / np.linalg.norm(residual)
    return branch, prob, _trusted(PureState, psi.shape, residual)


def reject_path(
    measurements: Sequence[TwoOutcomeMeasurement], psi: PureState
) -> tuple[np.ndarray, PureState | None]:
    """The all-reject branch of a sequence of projective measurements on psi.

    Returns the accept probability of each step along that branch, the same
    values :func:`measure_collapse` compares its uniform against on the
    branch-0 chain, and the state the last rejection leaves.  A run of the
    sequence fires at the first step k whose uniform u_k < p_k, so one
    walk serves every trial.  A step whose rejection has probability below
    ZERO_BRANCH_ATOL ends the walk without raising: its accept probability
    is the last entry and the final state is None.
    """
    check_state(psi, "psi", PureState)
    if not measurements:
        return np.array([]), psi
    _check_projective(measurements, psi.shape)
    amps = psi.amplitudes
    probs = []
    for m in measurements:
        hit, p1 = _accept_split(m.accept_op.matrix, amps)
        probs.append(p1)
        if 1.0 - p1 < ZERO_BRANCH_ATOL:
            return np.array(probs), None
        residual = amps - hit
        amps = residual / np.linalg.norm(residual)
    return np.array(probs), _trusted(PureState, psi.shape, amps)


def _register_branch(
    weights: np.ndarray, branch: int | None, rng: np.random.Generator | None
) -> tuple[int, float]:
    """(outcome, probability) of a measurement whose outcome j has
    probability weights[j]: `branch` if given, else one ``rng.choice`` draw."""
    if (branch is None) == (rng is None):
        raise ValueError("pass exactly one of branch= or rng=")
    probs = np.clip(weights, 0.0, 1.0)
    if branch is None:
        branch = int(rng.choice(len(probs), p=probs / probs.sum()))
    branch = check_integer(branch, "branch")
    if not 0 <= branch < len(probs):
        raise ValueError("branch value out of range for register")
    prob = float(probs[branch])
    if prob < ZERO_BRANCH_ATOL:
        raise ValueError(f"requested branch {branch} has probability {prob!r} (below threshold)")
    return branch, prob


def measure_register_collapse(
    psi: PureState,
    register: int,
    *,
    branch: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, PureState]:
    """Computational-basis measurement of one register, done by striding.

    Same contract as :func:`measure_collapse` but never materialises a dense
    projector, so it scales to large register systems.
    """
    register = psi.shape.check_register(register)
    dims = psi.shape.dims
    tensor = np.moveaxis(psi.amplitudes.reshape(dims), register, -1)
    flat = tensor.reshape(-1, dims[register])
    branch, prob = _register_branch((np.abs(flat) ** 2).sum(axis=0), branch, rng)
    collapsed = np.zeros_like(flat)
    collapsed[:, branch] = flat[:, branch]
    collapsed /= math.sqrt(prob)
    out = np.moveaxis(collapsed.reshape(tensor.shape), -1, register).reshape(-1)
    return branch, prob, _trusted(PureState, psi.shape, out)


# -- gentle measurement ---------------------------------------------------------


def _gentle_gaps(
    rhos: np.ndarray, accept_ops: np.ndarray, dec: EigenDecomposition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The core of :func:`gentle_measurement_gap_stack` on trusted stacks,
    `dec` being the decomposition stack of `accept_ops`."""
    evals = dec.eigenvalues
    check_slices(in_unit_interval(evals), "accept operator", "not in [0, I]")
    p = np.trace(accept_ops @ rhos, axis1=1, axis2=2).real
    defined = p > ZERO_BRANCH_ATOL
    v = dec.eigenvectors
    sqrt_l = (v * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)
    post = sqrt_l @ rhos @ sqrt_l / np.where(defined, p, 1.0)[:, None, None]
    lhs = trace_distance_matrix(rhos, post)
    lhs[~defined] = np.nan
    rhs = np.sqrt(np.maximum(0.0, 1.0 - p))
    return lhs, rhs, defined


def gentle_measurement_gap_stack(
    rhos, accept_ops
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the almost-as-good-as-new bound for each slice of a
    (b, d, d) stack of density matrices and the matching accept operators.

    Returns (lhs, rhs, defined), arrays of length b.  Where defined, lhs is
    the trace distance between rho and its post-acceptance state
    sqrt(L) rho sqrt(L) / tr(L rho), and rhs = sqrt(tr((I - L) rho));
    callers assert lhs <= rhs.  A slice with tr(L rho) <= ZERO_BRANCH_ATOL
    has no post-acceptance state: its `defined` entry is False and its lhs
    NaN, and the rest of the stack is unaffected.  Each slice's values equal
    those of a stack holding it alone.  Raises ValueError if the stacks
    differ in shape, a state is not a density matrix, or an operator is not
    Hermitian or not in [0, I].
    """
    rhos = state_stack(rhos)
    accept_ops = hermitian_stack(accept_ops, "accept operator")
    if rhos.shape != accept_ops.shape:
        raise ValueError(f"state and operator shapes differ: {rhos.shape} and {accept_ops.shape}")
    return _gentle_gaps(rhos, accept_ops, _canonical_eigh(accept_ops))


def gentle_measurement_gap(rho: DensityOperator, accept_op: HermitianOperator) -> tuple[float, float]:
    """Both sides of the almost-as-good-as-new bound, (lhs, rhs): a stack of
    one for :func:`gentle_measurement_gap_stack`'s core.  Raises ValueError
    when tr(L rho) is numerically zero, as the post-acceptance state is then
    undefined."""
    check_state(rho, "rho", DensityOperator)
    if rho.shape != accept_op.shape:
        raise ValueError("state and operator shapes differ")
    ops = accept_op.matrix[None]
    lhs, rhs, defined = _gentle_gaps(rho.matrix[None], ops, _canonical_eigh(ops))
    if not defined[0]:
        raise ValueError("tr(L rho) is (numerically) zero; post-measurement state undefined")
    return float(lhs[0]), float(rhs[0])


# -- brute-force quantum union bound --------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    """One outcome sequence of a sequential measurement run."""

    outcomes: tuple[int, ...]
    probability: float
    final_state: DensityOperator | None


@dataclass(frozen=True)
class UnionBoundResult:
    p_any_one: float
    bound: float
    epsilon: float
    trajectories: tuple[TrajectoryRecord, ...]


def union_bound_bruteforce(
    measurements: Sequence[TwoOutcomeMeasurement],
    rho: DensityOperator | PureState,
    epsilon: float | None = None,
) -> UnionBoundResult:
    """Exact probability that a sequential run ever accepts, versus 4*T*eps.

    Enumerates the 2^T trajectory tree (T <= 12) depth by depth, on a stack
    of the live branches' unnormalised post-measurement operators: each row
    splits into its accept and reject child, side by side, so the rows keep
    depth-first order.  A branch of trace below 1e-15 leaves the stack as a
    truncated zero-probability record.  `epsilon`, in [0, 1], defaults to
    the largest single-measurement accept probability on the initial state,
    which is the premise quantity of the union bound.
    """
    check_state(rho, "rho")
    _check_projective(measurements, rho.shape)
    t_steps = len(measurements)
    if t_steps > MAX_ENUMERATION_STEPS:
        raise ValueError(f"T = {t_steps} too large for exhaustive enumeration")
    rho_op = rho.density() if isinstance(rho, PureState) else rho
    if epsilon is None:
        epsilon = max(accept_probability(m, rho_op) for m in measurements)
    else:
        check_interval(epsilon, "epsilon", 0, 1)
    shape = rho_op.shape
    d = shape.total_dim
    taus = rho_op.matrix[None]
    outcomes: list[tuple[int, ...]] = [()]
    trajectories: list[TrajectoryRecord] = []
    for m in measurements:
        lam = m.accept_op.matrix
        hit = lam @ taus @ lam
        miss = taus - lam @ taus - taus @ lam + hit
        taus = np.stack([hit, miss], axis=1).reshape(-1, d, d)
        outcomes = [o + (outcome,) for o in outcomes for outcome in (1, 0)]
        live = np.trace(taus, axis1=1, axis2=2).real >= 1e-15
        trajectories += [TrajectoryRecord(o, 0.0, None) for o, ok in zip(outcomes, live) if not ok]
        taus, outcomes = taus[live], [o for o, ok in zip(outcomes, live) if ok]
    probs = np.trace(taus, axis1=1, axis2=2).real
    finals = 0.5 * (taus + taus.conj().transpose(0, 2, 1)) / probs[:, None, None]
    p_any = 0.0
    for o, prob, final in zip(outcomes, probs.tolist(), finals):
        final = _trusted(DensityOperator, shape, final) if prob > ZERO_BRANCH_ATOL else None
        trajectories.append(TrajectoryRecord(o, prob, final))
        if any(o):
            p_any += prob
    trajectories.sort(key=lambda rec: rec.outcomes, reverse=True)
    return UnionBoundResult(
        p_any_one=min(1.0, p_any),
        bound=4.0 * t_steps * epsilon,
        epsilon=float(epsilon),
        trajectories=tuple(trajectories),
    )


# -- Naimark forms ---------------------------------------------------------------


def naimark_checks(pis: np.ndarray, d_anc: int) -> None:
    """Check that each Pi of a Hermitian (b, D, D) stack of Naimark projectors,
    ancilla index (dimension d_anc) fastest, is idempotent and induces an
    operator in [0, I].

    Delta Pi Delta = L (x) |0><0| for every Pi, as Delta is a 0/1 diagonal,
    so L is the submatrix of Pi on ancilla value 0.  Errors name the first
    bad slice.
    """
    check_slices(is_idempotent(pis), "Pi", "not a projector within tolerance")
    induced = pis[:, ::d_anc, ::d_anc]
    check_slices(in_unit_interval(np.linalg.eigvalsh(induced)), "induced operator", "not in [0, I]")


@dataclass(frozen=True)
class NaimarkForm:
    """Projector Pi on an ancilla-extended space realising an accept operator.

    With Delta = I (x) |0...0><0...0| over the ancilla registers, the form
    satisfies Delta Pi Delta = L (x) |0...0><0...0| for the induced operator L.
    An empty `ancilla_dims` is the trivial form of a projector (Pi = L).
    """

    system_shape: RegisterShape
    ancilla_dims: tuple[int, ...]
    pi: np.ndarray

    def _store(self):
        ancilla_dims = tuple(check_integer(d, "ancilla dimension") for d in self.ancilla_dims)
        dim = RegisterShape(self.system_shape.dims + ancilla_dims).total_dim
        object.__setattr__(self, "ancilla_dims", ancilla_dims)
        object.__setattr__(self, "pi", _complex_array(self.pi, (dim, dim)))

    def __post_init__(self):
        self._store()
        naimark_checks(hermitian_stack(self.pi[None], "Pi"), self.ancilla_dim)

    @property
    def m(self) -> int:
        """Ancilla register count."""
        return len(self.ancilla_dims)

    @property
    def ancilla_dim(self) -> int:
        return math.prod(self.ancilla_dims) if self.ancilla_dims else 1

    @property
    def extended_dim(self) -> int:
        return self.system_shape.total_dim * self.ancilla_dim

    @property
    def delta(self) -> np.ndarray:
        return np.kron(np.eye(self.system_shape.total_dim), ancilla_zero(self.ancilla_dim))

    def induced_operator(self) -> HermitianOperator:
        """The accept operator L this form realises."""
        d_anc = self.ancilla_dim
        return _trusted(HermitianOperator, self.system_shape, self.pi[::d_anc, ::d_anc])


def trivial_naimark(measurement: TwoOutcomeMeasurement) -> NaimarkForm:
    """The m = 0 form of a projector: Pi = L, Delta = I."""
    if not measurement.is_projector:
        raise ValueError("the trivial Naimark form needs a projector")
    return _trusted(NaimarkForm, measurement.shape, (), measurement.accept_op.matrix)


def accept_spectra(accept_ops) -> EigenDecomposition:
    """The decomposition stack of a (b, d, d) stack of accept operators, each
    checked Hermitian; a decomposition stack is passed through as it is."""
    if isinstance(accept_ops, EigenDecomposition):
        return accept_ops
    return _canonical_eigh(hermitian_stack(accept_ops, "accept operator"))


def _dilation_pis(dec: EigenDecomposition) -> np.ndarray:
    """Pi = sum_k (v_k v_k^dagger) (x) (w_k w_k^T), w_k = (sqrt(l_k), sqrt(1 - l_k)),
    for each row of a decomposition stack, summed in eigenvector order."""
    check_slices(in_unit_interval(dec.eigenvalues), "accept operator", "not in [0, I]")
    evals = np.clip(dec.eigenvalues, 0.0, 1.0)
    b, d = evals.shape
    amps = np.stack([np.sqrt(evals), np.sqrt(1.0 - evals)], axis=2)
    anc = amps[:, :, :, None] * amps[:, :, None, :]  # (b, d, 2, 2): w_k w_k^T per row
    columns = np.swapaxes(dec.eigenvectors, 1, 2)  # row k of slice i: its k-th eigenvector
    pi = np.zeros((b, d, 2, d, 2), dtype=np.complex128)
    for k in range(d):
        vec = columns[:, k]
        outer = vec[:, :, None] * vec.conj()[:, None, :]
        pi += outer[:, :, None, :, None] * anc[:, k, None, :, None, :]
    return pi.reshape(b, 2 * d, 2 * d)


def one_ancilla_dilation_stack(accept_ops) -> np.ndarray:
    """The Pi of :func:`one_ancilla_dilation` for each slice of a (b, d, d)
    stack of accept operators, or of the decomposition stack of one
    (:func:`states.eigendecompose_stack`), as a (b, 2d, 2d) array, ancilla
    index fastest, equal to the single construction's bit for bit.  Only the
    spectra are checked (in [0, I]); each Pi is a projector by construction.
    """
    return _dilation_pis(accept_spectra(accept_ops))


def one_ancilla_dilation(accept_op: HermitianOperator) -> NaimarkForm:
    """Standard one-qubit dilation built from the spectral decomposition of L:
    a stack of one for the construction of :func:`one_ancilla_dilation_stack`."""
    pi = _dilation_pis(_canonical_eigh(accept_op.matrix[None]))[0]
    return _trusted(NaimarkForm, accept_op.shape, (2,), pi)


def naimark_form(measurement: TwoOutcomeMeasurement) -> NaimarkForm:
    """Trivial form for projectors, one-ancilla dilation otherwise."""
    if measurement.is_projector:
        return trivial_naimark(measurement)
    return one_ancilla_dilation(measurement.accept_op)


def build_averaged_naimark(measurements: Sequence[TwoOutcomeMeasurement]) -> NaimarkForm:
    """Naimark form of the uniform average of n projectors.

    Appends one dimension-n ancilla register and returns the projector
    Pi = sum_i L_{i+1} (x) Q|i><i|Q^{-1} with Q the Z_n Fourier transform, so
    that Delta Pi Delta = (mean of the L_j) (x) |0><0|.  A single measurement
    uses a dimension-2 ancilla with Pi = L (x) |0><0| (register dimensions
    below 2 are not representable).
    """
    _check_projective(measurements)
    shape = measurements[0].shape
    n = len(measurements)
    if n == 1:
        return _trusted(NaimarkForm, shape, (2,), np.kron(measurements[0].accept_op.matrix, ancilla_zero(2)))
    q = qft_matrix(n)
    d = shape.total_dim
    pi = np.zeros((d * n, d * n), dtype=np.complex128)
    for i, m in enumerate(measurements):
        anc = np.outer(q[:, i], q[:, i].conj())
        pi += np.kron(m.accept_op.matrix, anc)
    return _trusted(NaimarkForm, shape, (n,), pi)


# -- the anti-Zeno example sequence ----------------------------------------------


def anti_zeno_state(n: int, k: int) -> PureState:
    """|psi_k> = cos(pi k / 2n)|0> + sin(pi k / 2n)|1>, for n >= 1 and
    0 <= k <= n."""
    if check_integer(n, "n") < 1:
        raise ValueError("need n >= 1")
    if not 0 <= check_integer(k, "k") <= n:
        raise ValueError(f"need 0 <= k <= n, got k = {k} for n = {n}")
    theta = math.pi * k / (2 * n)
    return _trusted(PureState, RegisterShape((2,)), np.array([math.cos(theta), math.sin(theta)]))


def anti_zeno_sequence(n: int) -> list[TwoOutcomeMeasurement]:
    """The n rarely-accepting measurements that still rotate |0> to |1>.

    Measurement k (1-based) accepts on I - |psi_k><psi_k|; rejection leaves
    |psi_k> behind, so performing all n in order walks the state to |1> while
    the chance of ever accepting stays O(1/n).
    """
    if check_integer(n, "n") < 1:
        raise ValueError("need n >= 1")
    if n > MAX_SEQUENCE_STEPS:
        raise ValueError(f"anti-Zeno sequence capped at n = {MAX_SEQUENCE_STEPS} (MAX_SEQUENCE_STEPS), got {n}")
    shape = RegisterShape((2,))
    out = []
    for k in range(1, n + 1):
        psi_k = anti_zeno_state(n, k)
        lam = np.eye(2) - np.outer(psi_k.amplitudes, psi_k.amplitudes.conj())
        out.append(_trusted(TwoOutcomeMeasurement, _trusted(HermitianOperator, shape, lam), True))
    return out


def anti_zeno_accept_ever(n: int) -> float:
    """Closed form 1 - cos(pi/2n)^{2n} for the sequential accept-ever
    probability, n >= 1."""
    if check_integer(n, "n") < 1:
        raise ValueError("need n >= 1")
    return 1.0 - math.cos(math.pi / (2 * n)) ** (2 * n)
