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

Every sampler is one halting core, ``_sequential_runs``, fed by uniforms,
as the OR's samplers are.  Draw order: a mixed input's eigen-ensemble index
for every trial by ``quantum_or._draw_rows`` (what ``rng.choice`` draws; a
pure input draws none); then per iteration, for every live trial, a branch,
a member and an outcome uniform, each drawn as one array in that order (the
check branch leaves its member unused).  A single run and the trials of
:func:`run_sequential_sampled_batch` share one generator;
:func:`sample_blocks` gives trial t its own stream-block row, so each of
its outcomes equals a single run on that trial's stream.

Each iteration is one step over all live trials.  Every row gets the
probability of the branch it drew -- the check's outcome-1 mass
||(top - bottom)/sqrt(2)||^2 or the hit mass ||L_j bottom||^2 of its member
-- and accepts when its outcome uniform falls below it.  The rows that
neither ran the check nor accepted keep their residual, renormalised, and
the live trials shrink to them.

The exact oracle propagates the unnormalised not-yet-halted density operator
tau on control (x) system through the k iterations, in ``_sequential_law``,
the recursion that also gives the law of the sampler's halting cell.  The
measurement branch is one Kraus channel on all of tau,
tau <- (1 - q)/n sum_j K_j tau K_j with K_j = I (+) (I - L_j) (the identity
on the control-0 block, the miss operator on the control-1 block), applied
as one stacked ``K @ tau @ K``.  What halts in an iteration is read off tau
by three linear functionals -- its trace, the check's outcome-1 mass and the
measurement hit mass -- so the accept mass splits into its check-driven and
measurement-driven parts and the soundness bound 2*k*zeta can be checked
against either.  Sampler and oracle read the L_j from the instance's
``accept_ops`` stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .measurement import TwoOutcomeMeasurement, _check_projective, accept_probability, anti_zeno_sequence
from .quantum_or import _ceil_count, _check_eta, _draw_rows, _ensemble
from .rng import StreamBlock
from .states import DensityOperator, PureState, RegisterShape, _trusted, check_integer, check_state, plus_state

MAX_ORACLE_DIM = 64


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a_i, b_i> for each row i, from the real and imaginary views of
    the two blocks (no conjugated copy is allocated)."""
    return np.einsum("ij,ij->i", a.real, b.real) + np.einsum("ij,ij->i", a.imag, b.imag)


def sequential_iteration_count(n: int, eta) -> int:
    """k = ceil(5n/eta + 5/eta^2) in exact rational arithmetic, for an
    integer n >= 1; n and k must lie within the int64 cap."""
    return _ceil_count(n, "family size", "member", lambda n: 5 * n / (e := _check_eta(eta)) + 5 / e**2)


@dataclass(frozen=True)
class SequentialInstance:
    """Measurements, input state (pure or mixed) and eta; k is derived from n
    and eta once, at construction, which is also where eta is checked.
    ``accept_ops`` is the read-only (n, d, d) stack of the checked accept
    operators L_j, built once for the sampler and the oracle."""

    measurements: tuple[TwoOutcomeMeasurement, ...]
    initial: PureState | DensityOperator
    eta: float
    k: int = field(init=False)
    accept_ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        measurements = tuple(self.measurements)
        check_state(self.initial, "initial")
        _check_projective(measurements, self.initial.shape)
        accept_ops = np.stack([m.accept_op.matrix for m in measurements])
        accept_ops.setflags(write=False)
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "k", sequential_iteration_count(len(measurements), self.eta))
        object.__setattr__(self, "accept_ops", accept_ops)

    @property
    def n(self) -> int:
        return len(self.measurements)

    @property
    def check_probability(self) -> float:
        return 1.0 / (self.eta * self.n + 1.0)

    def zeta(self) -> float:
        """max_j tr(L_j rho), the quantity the soundness case constrains."""
        return max(accept_probability(m, self.initial) for m in self.measurements)


def _sequential_runs(inst: SequentialInstance, draw: Callable[[np.ndarray], np.ndarray], trials: int) -> np.ndarray:
    """The halting core: each of `trials` independent runs' halting cell.

    ``draw(live)`` returns one uniform for each trial in the index array
    `live`, in that order; the member uniform u gives j = min(floor(u n),
    n - 1).  Cell 3i is a check reject at iteration i, 3i + 1 a check
    accept, 3i + 2 a measurement accept and 3k the rejection after all k
    iterations, so a run accepts exactly when its cell is not a multiple
    of 3.
    """
    d, n = inst.initial.shape.total_dim, inst.n
    q = inst.check_probability
    live = np.arange(trials)  # the trial of each row of `states`
    vectors, cdf = _ensemble(inst.initial)
    states = np.kron(plus_state().amplitudes, vectors[_draw_rows(cdf, draw, live)])
    cells = np.full(trials, 3 * inst.k, dtype=np.intp)
    for i in range(inst.k):
        if live.size == 0:
            break
        check = draw(live) < q
        js = np.minimum((draw(live) * n).astype(np.intp), n - 1)
        u_out = draw(live)
        top, bottom = states[:, :d], states[:, d:]
        hit = (inst.accept_ops[js] @ bottom[..., None])[..., 0]
        # check branch: p(outcome 1) = ||(top - bottom)/sqrt(2)||^2; measurement: ||L_j bottom||^2
        diff = (top - bottom) / math.sqrt(2)
        acc = u_out < np.clip(np.where(check, _row_dot(diff, diff), _row_dot(hit, hit)), 0.0, 1.0)
        halt = check | acc
        cells[live[halt]] = 3 * i + np.where(check, acc, 2)[halt]
        keep = ~halt
        live, states = live[keep], states[keep]
        states[:, d:] -= hit[keep]
        states /= np.linalg.norm(states, axis=1)[:, None]
    return cells


def run_sequential_sampled(inst: SequentialInstance, rng: np.random.Generator) -> bool:
    """One sampled run: a batch of one."""
    return bool(_sequential_runs(inst, lambda live: rng.random(live.size), 1)[0] % 3)


def run_sequential_sampled_batch(
    inst: SequentialInstance, rng: np.random.Generator, trials: int
) -> int:
    """Accept count over independent trials of :func:`run_sequential_sampled`
    that share one generator."""
    check_integer(trials, "trials", 0)
    return int(np.count_nonzero(_sequential_runs(inst, lambda live: rng.random(live.size), trials) % 3))


def sample_blocks(inst: SequentialInstance, blocks: Iterable[StreamBlock]) -> Iterator[np.ndarray]:
    """Independent runs of one instance, one per row of each stream block
    (:func:`rng.trial_blocks`): per block, each row's halting cell (see
    ``_sequential_runs``; a run accepts when its cell is not a multiple of 3).

    Row t draws only from its own stream, in a single run's order, so its
    outcome equals :func:`run_sequential_sampled` on that stream's generator.
    """
    for block in blocks:
        yield _sequential_runs(inst, block.random, block.size)


@dataclass(frozen=True)
class SequentialExactResult:
    """Exact acceptance decomposition of the sequential test."""

    total_accept: float
    check_accept: float
    measurement_accept: float
    reject: float
    max_conservation_error: float


def _sequential_law(inst: SequentialInstance) -> tuple[np.ndarray, float, np.ndarray]:
    """The recursion behind the exact oracle and the halting-cell law.

    With tau's control blocks A, B, B^dagger, D, iteration i runs the check
    with probability q, whose outcome 1 has mass m_i = 1/2 tr(A - B -
    B^dagger + D), and the measurement branch, whose hit mass is
    h_i = tr(Mbar D), Mbar the mean of the L_j; the rest goes on as
    tau <- (1 - q)/n sum_j K_j tau K_j, K_j = I (+) (I - L_j), one stacked
    Kraus step of (2d)^3 products per distinct member, summed over all n
    members in their order.  One (3, 4d^2) matvec reads tr tau_i, m_i and
    h_i off each iterate.

    Returns the (k, 3) array with rows (tr tau_i - m_i, m_i, h_i): cell
    3i + c of ``_sequential_runs`` has mass (q, q, 1 - q)[c] times entry
    (i, c), and cell 3k mass tr tau_k, also returned; then each iteration's
    drift |tr tau_i - q tr tau_i - (1 - q) h_i - tr tau_{i+1}|, zero in
    exact arithmetic.
    """
    d = inst.initial.shape.total_dim
    if d > MAX_ORACLE_DIM:
        raise ValueError(f"oracle recursion capped at dim {MAX_ORACLE_DIM}, got {d}")
    rho = inst.initial.density() if isinstance(inst.initial, PureState) else inst.initial
    tau = np.kron(plus_state().density().matrix, rho.matrix)
    mats = inst.accept_ops
    # each distinct L_j, keyed by its bytes in order of first occurrence, and
    # each member's index among them
    slot: dict[bytes, tuple[int, np.ndarray]] = {}
    member = [slot.setdefault(m.tobytes(), (len(slot), m))[0] for m in mats]
    kraus = np.broadcast_to(np.eye(2 * d), (len(slot), 2 * d, 2 * d)).astype(mats.dtype)
    kraus[:, d:, d:] -= np.stack([m for _, m in slot.values()])
    minus = np.kron(np.array([[0.5, -0.5], [-0.5, 0.5]]), np.eye(d))  # |-><-| (x) I
    hit = np.zeros((2 * d, 2 * d), dtype=mats.dtype)
    hit[d:, d:] = mats.mean(axis=0)
    # tr(X tau) = <vec X^T, vec tau>: rows for tr tau, the check's outcome-1
    # mass and the hit mass
    functionals = np.stack([np.eye(2 * d), minus.T, hit.T]).reshape(3, -1)
    q = inst.check_probability
    masses = np.empty((inst.k + 1, 3))
    # K_j tau K_j once per distinct member, summed back in member order
    for i in range(inst.k):
        masses[i] = (functionals @ tau.reshape(-1)).real
        tau = (1.0 - q) / inst.n * (kraus @ tau @ kraus)[member].sum(axis=0)
    masses[inst.k] = (functionals @ tau.reshape(-1)).real
    before, check_one, hit_mass = masses[:-1].T
    drift = np.abs(before - q * before - (1.0 - q) * hit_mass - masses[1:, 0])
    return np.column_stack([before - check_one, check_one, hit_mass]), float(masses[inst.k, 0]), drift


def exact_sequential_accept(inst: SequentialInstance) -> SequentialExactResult:
    """The exact acceptance decomposition, from :func:`_sequential_law`: each
    branch's masses summed over the k iterations, then scaled by the
    branch probability once; the worst drift is reported."""
    masses, survived, drift = _sequential_law(inst)
    q = inst.check_probability
    check_acc = q * masses[:, 1].sum()
    meas_acc = (1.0 - q) * masses[:, 2].sum()
    reject = q * masses[:, 0].sum() + survived
    total = check_acc + meas_acc
    return SequentialExactResult(
        total_accept=float(min(1.0, total)),
        check_accept=float(check_acc),
        measurement_accept=float(meas_acc),
        reject=float(min(1.0, reject)),
        max_conservation_error=float(drift.max()),
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
