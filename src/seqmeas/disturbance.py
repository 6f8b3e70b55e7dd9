"""Control-qubit sequential measurement test with a rare disturbance check.

The procedure holds the input rho alongside a |+> control qubit and loops
k = ceil(5n/eta + 5/eta^2) times.  Each iteration either (with probability
1/(eta*n + 1)) Hadamards the control and measures it -- outcome 0 rejects,
outcome 1 accepts -- or picks a uniformly random j and measures
{|1><1| (x) L_j, I - ...}, accepting on the first outcome and keeping the
residual otherwise.  After k iterations it rejects.

On the undisturbed starting state the control check yields outcome 0 with
certainty (H maps |+> back to |0>), so the check only ever accepts once the
measurements have actually disturbed the joint state; that disturbance is
exactly the signal the procedure feeds on.

Both samplers wrap one core, ``_sequential_runs``, which runs independent
trials side by side; a single run is a batch of one.  Draw order: the
input's eigen-ensemble index for every trial in one call; then per
iteration, for every live trial, a branch uniform, a measurement index and
an outcome uniform, each drawn as one array in that order (the check branch
leaves its index unused).

The exact oracle propagates the unnormalised not-yet-halted density operator
through the k iterations, splitting accept mass into the check-driven and
measurement-driven parts so the soundness bound 2*k*zeta can be checked
against either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .gates import HADAMARD
from .measurement import TwoOutcomeMeasurement, _check_projective, accept_probability, anti_zeno_sequence
from .quantum_or import _check_eta, _ensemble_rows
from .states import DensityOperator, PureState, RegisterShape, _trusted

MAX_ORACLE_DIM = 64
_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)  # the control qubit's |+>


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a_i, b_i> for each row i, from the real and imaginary views of
    the two blocks (no conjugated copy is allocated)."""
    return np.einsum("ij,ij->i", a.real, b.real) + np.einsum("ij,ij->i", a.imag, b.imag)


def sequential_iteration_count(n: int, eta) -> int:
    """k = ceil(5n/eta + 5/eta^2) in exact rational arithmetic."""
    eta_f = _check_eta(eta)
    return math.ceil(Fraction(5 * n) / eta_f + Fraction(5) / eta_f**2)


@dataclass(frozen=True)
class SequentialInstance:
    """Measurements, input state and eta; k is derived from n and eta once,
    at construction, which is also where eta is checked."""

    measurements: tuple[TwoOutcomeMeasurement, ...]
    initial: DensityOperator
    eta: float
    k: int = field(init=False)

    def __post_init__(self):
        measurements = tuple(self.measurements)
        _check_projective(measurements, self.initial.shape)
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "k", sequential_iteration_count(len(measurements), self.eta))

    @property
    def n(self) -> int:
        return len(self.measurements)

    @property
    def check_probability(self) -> float:
        return 1.0 / (self.eta * self.n + 1.0)

    def zeta(self) -> float:
        """max_j tr(L_j rho), the quantity the soundness case constrains."""
        return max(accept_probability(m, self.initial) for m in self.measurements)


def _sequential_runs(inst: SequentialInstance, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Per-trial accept flags of independent runs, vectorised across live trials."""
    states = np.kron(_PLUS, _ensemble_rows(inst.initial, rng, trials))
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
        js = rng.integers(inst.n, size=idx_alive.size)
        u_out = rng.random(idx_alive.size)
        live = states[idx_alive]
        check_mask = u_branch < q
        # check branch: p(outcome 1) = ||(top - bottom)/sqrt(2)||^2
        diff = (live[check_mask, :d] - live[check_mask, d:]) / math.sqrt(2)
        p_one = np.clip(_row_dot(diff, diff), 0.0, 1.0)
        accepted[idx_alive[check_mask]] = u_out[check_mask] < p_one
        # measurement branch, grouped by the sampled j
        meas_rows = np.flatnonzero(~check_mask)
        still_alive_rows = []
        for j in range(inst.n):
            rows = meas_rows[js[meas_rows] == j]
            if rows.size == 0:
                continue
            bottom = live[rows, d:]
            hit = bottom @ mats[j].T
            p_acc = np.clip(_row_dot(hit, hit), 0.0, 1.0)
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


def run_sequential_sampled(inst: SequentialInstance, rng: np.random.Generator) -> bool:
    """One sampled run: a batch of one."""
    return bool(_sequential_runs(inst, rng, 1)[0])


def run_sequential_sampled_batch(
    inst: SequentialInstance, rng: np.random.Generator, trials: int
) -> int:
    """Accept count over independent trials of :func:`run_sequential_sampled`."""
    return int(np.count_nonzero(_sequential_runs(inst, rng, trials)))


@dataclass(frozen=True)
class SequentialExactResult:
    """Exact acceptance decomposition of the sequential test."""

    total_accept: float
    check_accept: float
    measurement_accept: float
    reject: float
    max_conservation_error: float


def exact_sequential_accept(inst: SequentialInstance) -> SequentialExactResult:
    """Propagate the unnormalised not-yet-halted operator through all k iterations.

    Per iteration the check branch (probability q) splits its mass into
    accept/reject and halts; the measurement branch accepts with the averaged
    hit mass and continues with the averaged miss channel.  Probability is
    conserved exactly; the worst per-iteration drift is reported.
    """
    d = inst.initial.shape.total_dim
    if d > MAX_ORACLE_DIM:
        raise ValueError(f"oracle recursion capped at dim {MAX_ORACLE_DIM}, got {d}")
    tau = np.kron(np.outer(_PLUS, _PLUS), inst.initial.matrix)
    h_ext = np.kron(HADAMARD, np.eye(d))
    mats = np.stack([m.accept_op.matrix for m in inst.measurements])
    mean_mat = mats.mean(axis=0)
    q = inst.check_probability
    check_acc = 0.0
    meas_acc = 0.0
    reject = 0.0
    worst = 0.0
    for _ in range(inst.k):
        before = float(np.trace(tau).real)
        rotated = h_ext @ tau @ h_ext
        p_check_one = float(np.trace(rotated[d:, d:]).real)
        check_acc += q * p_check_one
        reject += q * (before - p_check_one)
        # measurement branch: only the control-1 block is touched
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
        # conservation: before = halted check mass + measurement accepts + surviving trace
        drift = abs(before - q * before - (1.0 - q) * hit_mass - after)
        worst = max(worst, drift)
    reject += float(np.trace(tau).real)
    total = check_acc + meas_acc
    return SequentialExactResult(
        total_accept=float(min(1.0, total)),
        check_accept=float(check_acc),
        measurement_accept=float(meas_acc),
        reject=float(min(1.0, reject)),
        max_conservation_error=worst,
    )


# -- instance families for the bound sweeps ------------------------------------


def anti_zeno_sequential_instance(n: int, eta: float = 0.5) -> SequentialInstance:
    """Anti-Zeno measurements on |0>; satisfies the completeness premise at eta = 1/2.

    The mean acceptance on |0> is 1/2 + 1/(2n), so every state within eta of
    |0> has mean acceptance >= 1/2 + 1/(2n) - eta >= eta/n when eta <= 1/2.
    """
    shape = RegisterShape((2,))
    zero = PureState(shape, np.array([1.0, 0.0]))
    return SequentialInstance(tuple(anti_zeno_sequence(n)), zero.density(), eta)


def certain_member_instance(n: int, eta: float = 0.5, dim: int = 2) -> SequentialInstance:
    """n copies of the rank-one projector onto the input state itself.

    Every state within eta of the input has mean acceptance >= 1 - eta^2,
    which dominates eta/n for eta <= 1/2; the bound eta^2/7 - 1/n is
    nontrivial once n > 7/eta^2.
    """
    shape = RegisterShape((dim,))
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0
    psi = _trusted(PureState, shape, amps)
    proj = _trusted(TwoOutcomeMeasurement, psi.projector(), True)
    return SequentialInstance((proj,) * n, psi.density(), eta)


@dataclass(frozen=True)
class SweepRow:
    n: int
    eta: float
    accept_exact: float
    threshold: float  # eta^2/7 - 1/n


def completeness_bound_sweep(
    family: Callable[[int], SequentialInstance], n_values: Sequence[int]
) -> list[SweepRow]:
    """Exact completeness-case acceptance against eta^2/7 - 1/n across sizes."""
    rows = []
    for n in n_values:
        inst = family(n)
        res = exact_sequential_accept(inst)
        rows.append(
            SweepRow(n=n, eta=inst.eta, accept_exact=res.total_accept, threshold=inst.eta**2 / 7.0 - 1.0 / n)
        )
    return rows
