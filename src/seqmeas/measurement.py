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
    HermitianOperator,
    PureState,
    RegisterShape,
    _hermitian_matrix,
    eigendecompose,
    trace_distance_matrix,
)

# Requesting a branch below this probability deterministically is a logic
# error rather than a meaningful collapse.
ZERO_BRANCH_ATOL = 1e-12

POVM_RANGE_ATOL = 1e-10
PROJECTOR_ATOL = 1e-8

MAX_ENUMERATION_STEPS = 12


def in_unit_interval(evals: np.ndarray) -> bool:
    """Whether a spectrum lies in [0, 1] to POVM_RANGE_ATOL (NaN fails)."""
    return bool(evals.min() >= -POVM_RANGE_ATOL and evals.max() <= 1.0 + POVM_RANGE_ATOL)


def is_idempotent(mat: np.ndarray) -> bool:
    """Whether P @ P = P to PROJECTOR_ATOL; with P Hermitian, P is a projector."""
    return bool(np.abs(mat @ mat - mat).max() <= PROJECTOR_ATOL)


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

    def __post_init__(self):
        mat = self.accept_op.matrix
        evals = np.linalg.eigvalsh(mat)
        if not in_unit_interval(evals):
            raise ValueError(
                f"accept operator eigenvalues outside [0, 1]: [{evals.min()}, {evals.max()}]"
            )
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
    if rho.shape != m.shape:
        raise ValueError("measurement and state shapes differ")
    if isinstance(rho, PureState):
        p = np.vdot(rho.amplitudes, m.accept_op.matrix @ rho.amplitudes).real
    else:
        p = np.trace(m.accept_op.matrix @ rho.matrix).real
    return float(min(1.0, max(0.0, p)))


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
    if not (isinstance(measurement, TwoOutcomeMeasurement) and measurement.is_projector):
        raise ValueError("measure_collapse requires a TwoOutcomeMeasurement flagged is_projector")
    if psi.shape != measurement.shape:
        raise ValueError("projector and state shapes differ")
    p_mat = measurement.accept_op.matrix
    hit = p_mat @ psi.amplitudes
    p1 = float(min(1.0, max(0.0, np.vdot(psi.amplitudes, hit).real)))
    if branch is None:
        branch = 1 if rng.random() < p1 else 0
    branch = int(branch)
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    prob = p1 if branch == 1 else 1.0 - p1
    if prob < ZERO_BRANCH_ATOL:
        raise ValueError(f"requested branch {branch} has probability {prob!r} (below threshold)")
    residual = hit if branch == 1 else psi.amplitudes - hit
    residual = residual / np.linalg.norm(residual)
    return branch, prob, PureState(psi.shape, residual)


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
    if (branch is None) == (rng is None):
        raise ValueError("pass exactly one of branch= or rng=")
    register = psi.shape.check_register(register)
    dims = psi.shape.dims
    tensor = np.moveaxis(psi.amplitudes.reshape(dims), register, -1)
    flat = tensor.reshape(-1, dims[register])
    probs = np.clip((np.abs(flat) ** 2).sum(axis=0), 0.0, 1.0)
    if branch is None:
        branch = int(rng.choice(dims[register], p=probs / probs.sum()))
    branch = int(branch)
    if not 0 <= branch < dims[register]:
        raise ValueError("branch value out of range for register")
    prob = float(probs[branch])
    if prob < ZERO_BRANCH_ATOL:
        raise ValueError(f"requested branch {branch} has probability {prob!r} (below threshold)")
    collapsed = np.zeros_like(flat)
    collapsed[:, branch] = flat[:, branch]
    collapsed /= math.sqrt(prob)
    out = np.moveaxis(collapsed.reshape(tensor.shape), -1, register).reshape(-1)
    return branch, prob, PureState(psi.shape, out)


# -- gentle measurement ---------------------------------------------------------


def gentle_measurement_gap(rho: DensityOperator, accept_op: HermitianOperator) -> tuple[float, float]:
    """Both sides of the almost-as-good-as-new bound.

    Returns (lhs, rhs) with lhs the trace distance between rho and its
    post-acceptance state sqrt(L) rho sqrt(L) / tr(L rho), and
    rhs = sqrt(tr((I - L) rho)).  Callers assert lhs <= rhs.
    """
    if rho.shape != accept_op.shape:
        raise ValueError("state and operator shapes differ")
    dec = eigendecompose(accept_op)
    evals = dec.eigenvalues
    if not in_unit_interval(evals):
        raise ValueError("accept operator is not in [0, I]")
    p = float(np.trace(accept_op.matrix @ rho.matrix).real)
    if p <= ZERO_BRANCH_ATOL:
        raise ValueError("tr(L rho) is (numerically) zero; post-measurement state undefined")
    sqrt_l = (dec.eigenvectors * np.sqrt(np.clip(evals, 0.0, None))) @ dec.eigenvectors.conj().T
    post = sqrt_l @ rho.matrix @ sqrt_l / p
    lhs = trace_distance_matrix(rho.matrix, post)
    rhs = math.sqrt(max(0.0, 1.0 - p))
    return lhs, rhs


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

    Enumerates the full 2^T trajectory tree (T <= 12), propagating the
    unnormalised post-measurement operator down every branch.  `epsilon`
    defaults to the largest single-measurement accept probability on the
    initial state, which is the premise quantity of the union bound.
    """
    t_steps = len(measurements)
    if t_steps == 0:
        raise ValueError("need at least one measurement")
    if t_steps > MAX_ENUMERATION_STEPS:
        raise ValueError(f"T = {t_steps} too large for exhaustive enumeration")
    for m in measurements:
        if not m.is_projector:
            raise ValueError("the union bound check covers projective sequences only")
    rho_op = rho.density() if isinstance(rho, PureState) else rho
    if epsilon is None:
        epsilon = max(accept_probability(m, rho_op) for m in measurements)
    shape = rho_op.shape
    trajectories: list[TrajectoryRecord] = []
    p_any = 0.0

    def descend(tau: np.ndarray, outcomes: tuple[int, ...]):
        nonlocal p_any
        depth = len(outcomes)
        if depth == t_steps:
            prob = float(np.trace(tau).real)
            final = None
            if prob > ZERO_BRANCH_ATOL:
                final = DensityOperator(shape, 0.5 * (tau + tau.conj().T) / np.trace(tau).real)
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
                # Pruned subtree: zero probability, recorded truncated.
                trajectories.append(TrajectoryRecord(outcomes + (outcome,), 0.0, None))
                continue
            descend(branch_tau, outcomes + (outcome,))

    descend(rho_op.matrix.copy(), ())
    return UnionBoundResult(
        p_any_one=min(1.0, p_any),
        bound=4.0 * t_steps * epsilon,
        epsilon=float(epsilon),
        trajectories=tuple(trajectories),
    )


# -- Naimark forms ---------------------------------------------------------------


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

    def __post_init__(self):
        ancilla_dims = tuple(int(d) for d in self.ancilla_dims)
        pi = _hermitian_matrix(RegisterShape(self.system_shape.dims + ancilla_dims), self.pi)
        if not is_idempotent(pi):
            raise ValueError("Pi is not a projector within tolerance")
        # Delta Pi Delta = L (x) |0><0| for every Pi, as Delta is a 0/1 diagonal.
        d_anc = math.prod(ancilla_dims)
        induced = pi[::d_anc, ::d_anc].copy()
        if not in_unit_interval(np.linalg.eigvalsh(induced)):
            raise ValueError("induced operator is not in [0, I]")
        induced.setflags(write=False)
        object.__setattr__(self, "ancilla_dims", ancilla_dims)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_induced", induced)

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
        return HermitianOperator(self.system_shape, self._induced)


def trivial_naimark(measurement: TwoOutcomeMeasurement) -> NaimarkForm:
    """The m = 0 form of a projector: Pi = L, Delta = I."""
    if not measurement.is_projector:
        raise ValueError("the trivial Naimark form needs a projector")
    return NaimarkForm(measurement.shape, (), measurement.accept_op.matrix)


def one_ancilla_dilation(accept_op: HermitianOperator) -> NaimarkForm:
    """Standard one-qubit dilation built from the spectral decomposition of L."""
    dec = eigendecompose(accept_op)
    if not in_unit_interval(dec.eigenvalues):
        raise ValueError("operator is not in [0, I]")
    evals = np.clip(dec.eigenvalues, 0.0, 1.0)
    d = accept_op.shape.total_dim
    pi = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for lam, vec in zip(evals, dec.eigenvectors.T):
        w = np.array([math.sqrt(lam), math.sqrt(1.0 - lam)])
        pi += np.kron(np.outer(vec, vec.conj()), np.outer(w, w))
    return NaimarkForm(accept_op.shape, (2,), pi)


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
    if not measurements:
        raise ValueError("need at least one measurement")
    shape = measurements[0].shape
    for m in measurements:
        if m.shape != shape:
            raise ValueError("all measurements must share one register shape")
        if not m.is_projector:
            raise ValueError("the averaged construction needs projectors")
    n = len(measurements)
    if n == 1:
        return NaimarkForm(shape, (2,), np.kron(measurements[0].accept_op.matrix, ancilla_zero(2)))
    q = qft_matrix(n)
    d = shape.total_dim
    pi = np.zeros((d * n, d * n), dtype=np.complex128)
    for i, m in enumerate(measurements):
        anc = np.outer(q[:, i], q[:, i].conj())
        pi += np.kron(m.accept_op.matrix, anc)
    return NaimarkForm(shape, (n,), pi)


# -- the anti-Zeno example sequence ----------------------------------------------


def anti_zeno_state(n: int, k: int) -> PureState:
    """|psi_k> = cos(pi k / 2n)|0> + sin(pi k / 2n)|1>."""
    theta = math.pi * k / (2 * n)
    return PureState(RegisterShape((2,)), np.array([math.cos(theta), math.sin(theta)]))


def anti_zeno_sequence(n: int) -> list[TwoOutcomeMeasurement]:
    """The n rarely-accepting measurements that still rotate |0> to |1>.

    Measurement k (1-based) accepts on I - |psi_k><psi_k|; rejection leaves
    |psi_k> behind, so performing all n in order walks the state to |1> while
    the chance of ever accepting stays O(1/n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    shape = RegisterShape((2,))
    out = []
    for k in range(1, n + 1):
        psi_k = anti_zeno_state(n, k)
        lam = np.eye(2) - np.outer(psi_k.amplitudes, psi_k.amplitudes.conj())
        out.append(TwoOutcomeMeasurement(HermitianOperator(shape, lam), is_projector=True))
    return out


def anti_zeno_accept_ever(n: int) -> float:
    """Closed form 1 - cos(pi/2n)^{2n} for the sequential accept-ever probability."""
    return 1.0 - math.cos(math.pi / (2 * n)) ** (2 * n)
