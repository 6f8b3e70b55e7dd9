"""Seeded, reproducible experiments over every procedure in the package.

Each experiment builds its instances from deterministic per-stream
generators, evaluates the exact oracles and bounds, optionally samples runs
for statistical consistency, and emits an :class:`ExperimentRecord`.  The
serialised record has a fixed field order and reals rounded to 12
significant digits, so a rerun with the same configuration is byte-identical
(wall-clock time is reported on the console, never in the document).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import disturbance as dist
from . import measurement as meas
from . import quantum_or as qor
from . import testers
from .gates import PAULI_X, PAULI_Z, PermutationAction
from .rng import trial_blocks, trial_rng, trial_rngs
from .sampling import (
    contraction_from_ginibre,
    density_from_ginibre,
    ginibre,
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
    random_unitary,
)
from .states import (
    HermitianOperator,
    PureState,
    RegisterShape,
    _trusted,
    bell_pair,
    basis_state,
    eigendecompose_stack,
    ghz_state,
    plus_state,
    product_state,
    trace_distance_pure,
)

@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int = 0
    trials: int | None = None
    params: dict = field(default_factory=dict)
    function_f: testers.FunctionTable | None = None
    function_g: testers.FunctionTable | None = None
    group: tuple[PermutationAction, ...] | None = None


@dataclass
class ExperimentRecord:
    experiment: str
    seed: int
    trials: int
    params: dict
    values: dict
    assertions: list[dict]
    all_passed: bool
    wall_clock_seconds: float = 0.0  # console-only; excluded from the document
    csv_rows: list[dict] = field(default_factory=list)

    def to_document(self) -> str:
        body = {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "params": _round_sig(self.params),
            "values": _round_sig(self.values),
            "assertions": _round_sig(self.assertions),
            "all_passed": self.all_passed,
        }
        return json.dumps(body, indent=2) + "\n"


def _round_sig(obj, digits: int = 12):
    """Round every float to `digits` significant digits, recursively."""
    if isinstance(obj, float):
        if obj == 0.0 or not math.isfinite(obj):
            return obj
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_sig(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v, digits) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj), digits)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


class _Recorder:
    """Accumulates ordered values and pass/fail assertions for one experiment."""

    def __init__(self):
        self.values: dict = {}
        self.assertions: list[dict] = []
        self.csv_rows: list[dict] = []

    def value(self, name: str, v):
        self.values[name] = v

    def check(self, name: str, passed: bool, observed, bound):
        self.assertions.append(
            {"name": name, "passed": bool(passed), "observed": observed, "bound": bound}
        )

    def check_le(self, name: str, observed: float, bound: float, slack: float = 0.0):
        self.check(name, observed <= bound + slack, observed, bound)

    def check_ge(self, name: str, observed: float, bound: float, slack: float = 0.0):
        self.check(name, observed >= bound - slack, observed, bound)

    def check_close(self, name: str, observed: float, expected: float, atol: float):
        self.check(name, abs(observed - expected) <= atol, observed, expected)

    def check_sampled(self, name: str, count: int, trials: int, p_exact: float):
        """Empirical rate within 4 binomial standard deviations of the oracle."""
        sigma = math.sqrt(max(p_exact * (1.0 - p_exact), 0.0) / trials)
        rate = count / trials
        self.check(name, abs(rate - p_exact) <= 4.0 * sigma + 1e-9, rate, p_exact)

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)


def _int_param(config: ExperimentConfig, key: str, default: int, minimum: int | None = None) -> int:
    raw = config.params.get(key, default)
    if isinstance(raw, bool):
        raise ValueError(f"parameter {key!r} must be an integer, got {raw!r}")
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"parameter {key!r} must be an integer, got {raw!r}")
    if isinstance(raw, float) and value != raw:
        raise ValueError(f"parameter {key!r} must be an integer, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"parameter {key!r} must be >= {minimum}, got {value}")
    return value


def _float_param(
    config: ExperimentConfig,
    key: str,
    default: float,
    low: float | None = None,
    high: float | None = None,
    high_reason: str | None = None,
) -> float:
    """The parameter as a finite float in (low, high]; `high_reason`, if
    given, says in the error what the upper limit is."""
    raw = config.params.get(key, default)
    if isinstance(raw, bool):
        raise ValueError(f"parameter {key!r} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"parameter {key!r} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"parameter {key!r} must be finite, got {value}")
    if low is not None and value <= low:
        raise ValueError(f"parameter {key!r} must be > {low}, got {value}")
    if high is not None and value > high:
        why = f" ({high_reason})" if high_reason else ""
        raise ValueError(f"parameter {key!r} must be <= {high}{why}, got {value}")
    return value


_FIRST_TRIAL_INDEX = 1000  # trial t samples from stream trial_rng(seed, 1000 + t)


def _trial_blocks(config: ExperimentConfig, trials: int):
    """Trial t's stream trial_rng(seed, 1000 + t), as lazy stream blocks, one
    per chunk of trials (:func:`rng.trial_blocks`); no generator is built."""
    return trial_blocks(config.seed, range(_FIRST_TRIAL_INDEX, _FIRST_TRIAL_INDEX + trials))


def _sampled_accepts(inst, config: ExperimentConfig, trials: int) -> int:
    """Accepts among `trials` runs of one amplification instance, trial t
    drawing from its own stream, decided a block of trials at a time."""
    n_steps = 2 * inst.n_rounds
    blocks = qor.sample_blocks(inst, _trial_blocks(config, trials))
    return sum(int(np.count_nonzero(steps < n_steps)) for steps in blocks)


def _accept_ever_count(accept_probs: np.ndarray, blocks) -> int:
    """Runs of a measurement sequence, one per stream-block row, that ever
    accept.

    A run accepts at the first step whose uniform falls below that step's
    accept probability on the all-reject path (:func:`measurement.reject_path`).
    Every row draws one uniform per step, as one ``rng.random(n)`` call
    draws them; a row that has accepted keeps drawing, but its later
    uniforms cannot change the count.
    """
    count = 0
    for block in blocks:
        accepted = np.zeros(block.size, dtype=bool)
        for p in accept_probs:
            accepted |= block.random() < p
        count += int(np.count_nonzero(accepted))
    return count


# -- individual experiments -------------------------------------------------------


def _exp_antizeno(config: ExperimentConfig, rec: _Recorder, trials: int):
    n = _int_param(config, "n", 64, minimum=1)
    seq = meas.anti_zeno_sequence(n)
    states = [meas.anti_zeno_state(n, k) for k in range(n + 1)]
    step_target = math.cos(math.pi / (2 * n)) ** 2
    worst = max(
        abs((1.0 - meas.accept_probability(seq[k], states[k])) - step_target) for k in range(n)
    )
    rec.value("per_step_rejection", step_target)
    rec.check_le("per_step_rejection_error", worst, 1e-12)

    accept_ever = meas.anti_zeno_accept_ever(n)
    rec.value("accept_ever_exact", accept_ever)
    # independent product-of-steps route
    product = 1.0
    for k in range(n):
        product *= 1.0 - meas.accept_probability(seq[k], states[k])
    rec.check_close("accept_ever_product_route", 1.0 - product, accept_ever, 1e-10)

    accept_probs, final = meas.reject_path(seq, states[0])
    if final is None:
        raise ValueError(f"the all-reject path of the n = {n} sequence has probability zero")
    fid = abs(final.overlap(basis_state(final.shape, (1,)))) ** 2
    rec.value("all_reject_final_fidelity", fid)
    rec.check_ge("final_state_is_one", fid, 1.0 - 1e-10)

    for m in (16, 64, 256):
        rec.check_le(
            f"n_times_accept_ever_n{m}",
            m * meas.anti_zeno_accept_ever(m),
            math.pi**2 / 4 * 1.1,
        )

    count = _accept_ever_count(accept_probs, _trial_blocks(config, trials))
    rec.check_sampled("sampled_accept_ever", count, trials, accept_ever)
    rec.value("sampled_accepts", count)


def _exp_mw_bounds(config: ExperimentConfig, rec: _Recorder, trials: int):
    """Trial t's instance (L, rho, N) comes from its own stream
    trial_rng(seed, t), as when each trial ran alone; the oracles then run
    once per dimension on the stacked instances, every L decomposed once for
    both round counts, the bounds and the dilation.  Dimensions run in
    increasing order, each group's instances dropped once stacked."""
    groups: dict[int, list] = {}
    dims, rounds = np.empty(trials, dtype=int), np.empty(trials, dtype=int)
    for t, rng in enumerate(trial_rngs(config.seed, range(trials))):
        dims[t] = dim = int(rng.integers(2, 17))
        shape = RegisterShape((dim,))
        lam = random_povm_contraction(rng, shape).matrix
        rho = random_density_operator(rng, shape).matrix
        rounds[t] = int(rng.integers(1, 33))
        groups.setdefault(dim, []).append((t, lam, rho))
    lower, exact, survival, upper, following = (np.empty(trials) for _ in range(5))
    for dim in sorted(groups):
        idx, lams, rhos = zip(*groups.pop(dim))
        idx, rho, n_rounds = list(idx), np.stack(rhos), rounds[list(idx)]
        dec = eigendecompose_stack(np.stack(lams))
        evals, weights = qor.spectral_measures(dec, rho)
        exact[idx] = qor.mw_accept_from_spectrum(evals, weights, n_rounds)
        following[idx] = qor.mw_accept_from_spectrum(evals, weights, n_rounds + 1)
        lower[idx], upper[idx] = qor.mw_bounds_from_spectrum(evals, weights, n_rounds)
        # Pi is a projector stack by construction and spectral_measures checked rho.
        survival[idx] = qor._survival(meas.one_ancilla_dilation_stack(dec), 2, rho, n_rounds)
    sandwich_ok = int(np.count_nonzero((lower <= exact + 1e-9) & (exact <= upper + 1e-9)))
    survival_ok = int(np.count_nonzero(np.abs(survival - exact) <= 1e-9))
    monotone_ok = int(np.count_nonzero(following >= exact - 1e-12))
    keys = ("trial", "dim", "n_rounds", "lower", "exact", "survival", "upper")
    columns = (dims.tolist(), rounds.tolist(), lower.tolist(), exact.tolist(), survival.tolist(), upper.tolist())
    rec.csv_rows = [dict(zip(keys, (t, *row))) for t, row in enumerate(zip(*columns))]
    rec.value("sandwich_passes", sandwich_ok)
    rec.value("survival_agreements", survival_ok)
    rec.value("monotone_passes", monotone_ok)
    rec.check("sandwich_all", sandwich_ok == trials, sandwich_ok, trials)
    rec.check("oracle_agreement_all", survival_ok == trials, survival_ok, trials)
    rec.check("monotone_all", monotone_ok == trials, monotone_ok, trials)


def _case2_or_instance(rng, n: int, dim: int, delta: float):
    """n rank-one projectors |v><v| each accepting a fixed state with probability delta."""
    shape = RegisterShape((dim,))
    psi = random_pure_state(rng, shape)
    measurements = []
    for _ in range(n):
        w = random_pure_state(rng, shape).amplitudes
        w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
        w /= np.linalg.norm(w)
        v = math.sqrt(delta) * psi.amplitudes + math.sqrt(1.0 - delta) * w
        projector = _trusted(HermitianOperator, shape, np.outer(v, v.conj()))
        measurements.append(_trusted(meas.TwoOutcomeMeasurement, projector, True))
    return psi, measurements


def _exp_or_test(config: ExperimentConfig, rec: _Recorder, trials: int):
    n = _int_param(config, "n", 8, minimum=1)
    zero = basis_state(RegisterShape((2,)), (0,))
    seq = meas.anti_zeno_sequence(n)
    exact1 = qor.or_test_accept_exact(seq, zero, 0)
    rec.value("antizeno_case1_exact", exact1)
    rec.check_ge("case1_at_least_one_seventh", exact1, 1.0 / 7.0, slack=1e-9)

    delta = _float_param(config, "delta", 1.0 / 1024.0, low=0.0, high=0.5)
    rng = trial_rng(config.seed, 0)
    psi2, case2 = _case2_or_instance(rng, n, 4, delta)
    exact2 = qor.or_test_accept_exact(case2, psi2, 0)
    rec.value("case2_exact", exact2)
    rec.value("case2_bound", 4.0 * delta * n)
    rec.check_le("case2_at_most_4_delta_n", exact2, 4.0 * delta * n, slack=1e-9)

    count = _sampled_accepts(qor.or_test_instance(seq, zero, 0), config, trials)
    rec.check_sampled("sampled_vs_exact", count, trials, exact1)
    rec.value("sampled_accepts", count)


def _random_projective(rng, shape: RegisterShape) -> meas.TwoOutcomeMeasurement:
    """A projective measurement of random rank in [1, d): the rank is drawn
    first, then the projector.  The projector is built as one, so the
    measurement takes the trusted path."""
    rank = int(rng.integers(1, shape.total_dim))
    return _trusted(meas.TwoOutcomeMeasurement, random_projector(rng, shape, rank=rank), True)


def _exp_disturbance(config: ExperimentConfig, rec: _Recorder, trials: int):
    rows = dist.completeness_bound_sweep(dist.anti_zeno_sequential_instance, (4, 8, 16))
    rows += dist.completeness_bound_sweep(dist.certain_member_instance, (8, 16, 32))
    for row in rows:
        rec.check_ge(f"case1_n{row.n}_eta{row.eta}", row.accept_exact, row.threshold, slack=1e-9)
    rec.value("case1_sweep", [dataclasses.asdict(row) for row in rows])

    worst_conservation = 0.0
    case2_ok = 0
    n_case2 = _int_param(config, "case2_instances", 10, minimum=1)
    for rng in trial_rngs(config.seed, range(100, 100 + n_case2)):
        dim = int(rng.integers(2, 9))
        shape = RegisterShape((dim,))
        n = int(rng.integers(1, 5))
        measurements = tuple(_random_projective(rng, shape) for _ in range(n))
        rho = random_density_operator(rng, shape)
        inst = dist.SequentialInstance(measurements, rho, eta=0.5)
        res = dist.exact_sequential_accept(inst)
        worst_conservation = max(worst_conservation, res.max_conservation_error)
        bound = 2.0 * inst.k * inst.zeta()
        case2_ok += res.total_accept <= bound + 1e-9
    rec.value("case2_passes", case2_ok)
    rec.check("case2_bound_all", case2_ok == n_case2, case2_ok, n_case2)
    rec.check_le("probability_conservation", worst_conservation, 1e-9)

    inst = dist.certain_member_instance(4, eta=1.0)
    exact = dist.exact_sequential_accept(inst).total_accept
    count = dist.run_sequential_sampled_batch(inst, trial_rng(config.seed, 999), trials)
    rec.value("sampled_instance_exact", exact)
    rec.check_sampled("sampled_vs_exact", count, trials, exact)


def _exp_union_bound(config: ExperimentConfig, rec: _Recorder, trials: int):
    ok = 0
    worst_sum = 0.0
    for t, rng in enumerate(trial_rngs(config.seed, range(trials))):
        dim = int(rng.integers(2, 9))
        shape = RegisterShape((dim,))
        t_steps = int(rng.integers(1, 7))
        measurements = [_random_projective(rng, shape) for _ in range(t_steps)]
        rho = random_density_operator(rng, shape)
        res = meas.union_bound_bruteforce(measurements, rho)
        ok += res.p_any_one <= res.bound + 1e-9
        worst_sum = max(
            worst_sum, abs(sum(r.probability for r in res.trajectories) - 1.0)
        )
        rec.csv_rows.append(
            {"trial": t, "T": t_steps, "dim": dim, "p_any_one": res.p_any_one, "bound": res.bound}
        )
    rec.value("suite_passes", ok)
    rec.check("suite_bound_all", ok == trials, ok, trials)
    rec.check_le("trajectory_probability_sum_error", worst_sum, 1e-9)

    n = 8
    zero = basis_state(RegisterShape((2,)), (0,))
    res = meas.union_bound_bruteforce(
        meas.anti_zeno_sequence(n), zero, epsilon=math.sin(math.pi / (2 * n)) ** 2
    )
    closed = meas.anti_zeno_accept_ever(n)
    rec.value("antizeno_p_any_one", res.p_any_one)
    rec.check_close("antizeno_matches_closed_form", res.p_any_one, closed, 1e-10)
    rec.check_le("antizeno_under_bound", res.p_any_one, res.bound, slack=1e-9)


def _exp_gentle(config: ExperimentConfig, rec: _Recorder, trials: int):
    """Trial t draws from its own stream trial_rng(seed, t), in the order of
    one ``random_density_operator`` and one ``random_povm_contraction`` call:
    the dimension, rho's Ginibre matrix, L's, then L's top eigenvalue.  Per
    dimension the draws are then stacked: ``density_from_ginibre`` and
    ``contraction_from_ginibre`` build every (rho, L) of the group at once,
    bit for bit as the per-trial calls would, and the gap is evaluated once
    on the stack."""
    groups: dict[int, list] = {}
    for rng in trial_rngs(config.seed, range(trials)):
        dim = int(rng.integers(2, 9))
        g_rho, g_lam = ginibre(rng, (dim, dim)), ginibre(rng, (dim, dim))
        groups.setdefault(dim, []).append((g_rho, g_lam, rng.uniform(0.05, 1.0)))
    ok = 0
    for dim in sorted(groups):
        g_rhos, g_lams, tops = zip(*groups.pop(dim))
        rho = density_from_ginibre(np.stack(g_rhos))
        lam = contraction_from_ginibre(np.stack(g_lams), np.array(tops))
        lhs, rhs, defined = meas.gentle_measurement_gap_stack(rho, lam)
        # tr(L rho) numerically zero: the bound is trivial and the trial skipped
        ok += int(np.count_nonzero(~defined | (lhs <= rhs + 1e-10)))
    rec.value("sweep_passes", ok)
    rec.check("sweep_all", ok == trials, ok, trials)

    zero_proj = HermitianOperator(RegisterShape((2,)), np.diag([1.0, 0.0]))
    lhs, rhs = meas.gentle_measurement_gap(plus_state().density(), zero_proj)
    rec.value("equality_case_lhs", lhs)
    rec.value("equality_case_rhs", rhs)
    rec.check_close("equality_case_lhs_value", lhs, 1.0 / math.sqrt(2), 1e-10)
    rec.check_close("equality_case_rhs_value", rhs, 1.0 / math.sqrt(2), 1e-10)


def _desk_giso_instance():
    """|X| = 4, Y = {0,1}, group {identity, bit swap}; one isomorphic and one
    half-distance pair."""
    swap = PermutationAction((0, 2, 1, 3))
    group = (PermutationAction.identity(4), swap)
    f_iso = testers.FunctionTable(4, 2, (0, 1, 0, 1))
    g_iso = f_iso.compose(swap)
    f_far = testers.FunctionTable(4, 2, (0, 0, 1, 1))
    g_far = testers.FunctionTable(4, 2, (0, 1, 1, 0))
    return group, (f_iso, g_iso), (f_far, g_far)


def _group_distance(f: testers.FunctionTable, g: testers.FunctionTable, group) -> float:
    """d_G(f, g) = min over sigma in the group of d(f o sigma, g)."""
    return min(f.compose(sigma).distance(g) for sigma in group)


def _exp_giso(config: ExperimentConfig, rec: _Recorder, trials: int):
    """Each pair is scored by its distance d_G to G-isomorphism under the
    group in use: at least 1/7 when d_G = 0, at most 1/8 when d_G >= epsilon,
    and no bound in between.  The desk far pair is scored only when the
    group acts on its 4 points, and then caps epsilon at its d_G."""
    group, iso_pair, far_pair = _desk_giso_instance()
    if config.function_f is not None:
        iso_pair = (config.function_f, config.function_g)
    if config.group is not None:
        group = config.group
    pairs = {"isomorphic": iso_pair}
    if group[0].size == far_pair[0].domain_size:
        pairs["far"] = far_pair
    distances = {label: _group_distance(*pair, group) for label, pair in pairs.items()}

    # overlap identity, exhaustive at |X| = 4, |Y| = 2
    sigmas = [PermutationAction(p) for p in itertools.permutations(range(4))]
    worst = _giso_overlap_identity_error(4, 2, sigmas)
    rec.check_le("overlap_identity_error", worst, 1e-10)

    epsilon = _float_param(
        config, "epsilon", 0.5, low=0.0, high=distances.get("far", 1.0),
        high_reason="the desk far pair's distance to G-isomorphism" if "far" in distances else None,
    )
    k_rule = testers.eigen_copies(len(group), epsilon)
    rec.value("copies_rule_k", k_rule)
    for label, pair in pairs.items():
        exact, distance = testers.g_iso_accept_exact(*pair, group, epsilon), distances[label]
        rec.value(f"{label}_exact_accept", exact)
        if distance == 0.0:
            rec.check_ge(f"{label}_at_least_one_seventh", exact, 1.0 / 7.0, slack=1e-9)
        elif distance >= epsilon:
            rec.check_le(f"{label}_at_most_one_eighth", exact, testers.CASE2_BUDGET, slack=1e-9)
        else:
            rec.value(f"{label}_group_distance", distance)

    k_small = 2
    exact_small = testers.g_iso_accept_exact(*iso_pair, group, epsilon, copies_k=k_small)
    count = _sampled_accepts(testers.g_iso_instance(*iso_pair, group, epsilon, copies_k=k_small), config, trials)
    rec.check_sampled("sampled_vs_exact_smallk", count, trials, exact_small)
    run = testers.g_iso_test(
        *iso_pair, group, epsilon, trial_rng(config.seed, _FIRST_TRIAL_INDEX), copies_k=k_small
    )
    queries = [run.queries_f, run.queries_g]
    rec.check("one_query_per_copy", queries == [k_small, k_small], queries, k_small)


def _giso_overlap_identity_error(nx: int, ny: int, sigmas) -> float:
    """max over all (f, g, sigma) of |<psi|U'|psi> - (1 - d(f o sigma, g))|."""
    tables = [
        testers.FunctionTable(nx, ny, values)
        for values in itertools.product(range(ny), repeat=nx)
    ]
    states = np.stack([testers.function_state(f).amplitudes for f in tables])
    # psi = (|0>|f> + |1>|g>)/sqrt2 for every pair, row f * n + g
    n = len(tables)
    pairs = np.hstack([np.repeat(states, n, axis=0), np.tile(states, (n, 1))]) / math.sqrt(2)
    worst = 0.0
    for sigma in sigmas:
        u = testers.pair_swap_unitary(sigma, ny)
        composed = np.stack(
            [testers.function_state(f.compose(sigma)).amplitudes for f in tables]
        )
        vals = np.einsum("ij,ij->i", pairs.conj(), pairs @ u.T)  # <psi|U'|psi>
        expected = composed.conj() @ states.T  # <f o sigma | g>, row f
        worst = max(worst, np.abs(vals - expected.real.reshape(-1)).max())
    return float(worst)


def _exp_membership(config: ExperimentConfig, rec: _Recorder, trials: int):
    """The far state (sqrt(1 - eps^2), eps) lies at trace distance eps from
    |0> and sqrt(1 - eps^2) from |1>, so it is eps-far from both candidates
    while eps <= 1/sqrt(2)."""
    epsilon = _float_param(
        config, "epsilon", 0.5, low=0.0, high=math.sqrt(0.5),
        high_reason="1/sqrt(2): past it the far state is nearer |1> than epsilon",
    )
    shape = RegisterShape((2,))
    phi0 = basis_state(shape, (0,))
    phi1 = basis_state(shape, (1,))
    candidates = [phi0, phi1]
    k = testers.membership_copies(len(candidates), epsilon)
    rec.value("copies_rule_k", k)

    member_exact = testers.membership_accept_exact(candidates, phi0, k)
    rec.value("member_exact_accept", member_exact)
    rec.check_ge("member_at_least_one_seventh", member_exact, 1.0 / 7.0, slack=1e-9)

    far = PureState(shape, np.array([math.sqrt(1.0 - epsilon**2), epsilon]))
    d0 = trace_distance_pure(far, phi0)
    rec.value("far_state_distance_to_phi0", d0)
    per = testers.per_candidate_accept(phi0, far, k)
    rec.check_close("per_measurement_far_probability", per, (1 - epsilon**2) ** k, 1e-10)
    far_exact = testers.membership_accept_exact(candidates, far, k)
    rec.value("far_exact_accept", far_exact)
    rec.check_le("far_at_most_one_eighth", far_exact, testers.CASE2_BUDGET, slack=1e-9)

    k_small = 3
    exact_small = testers.membership_accept_exact(candidates, phi0, k_small)
    inst = testers.membership_instance(candidates, phi0, epsilon, copies_k=k_small)
    count = _sampled_accepts(inst, config, trials)
    rec.check_sampled("sampled_vs_exact_smallk", count, trials, exact_small)


def _exp_uiso(config: ExperimentConfig, rec: _Recorder, trials: int):
    n_random = _int_param(config, "identity_checks", 100, minimum=1)
    worst_inner = worst_ab = 0.0
    for rng in trial_rngs(config.seed, range(n_random)):
        d = int(rng.integers(2, 5))
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        su, sv = testers.choi_state(u), testers.choi_state(v)
        worst_inner = max(worst_inner, abs(su.overlap(sv) - testers.hs_inner(u, v)))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = np.kron(a, b) @ testers.choi_vector(v)
        rhs = testers.choi_vector(a @ v @ b.T)
        worst_ab = max(worst_ab, np.abs(lhs - rhs).max())
    rec.check_le("channel_state_inner_product_identity", worst_inner, 1e-10)
    rec.check_le("channel_state_local_action_identity", worst_ab, 1e-10)

    rec.value("distance_identity_zero", testers.hs_distance(np.eye(2), np.eye(2)))
    rec.value("distance_identity_pauli_z", testers.hs_distance(np.eye(2), PAULI_Z))

    s_set = testers.UnitarySet((np.eye(2), PAULI_X))
    epsilon = _float_param(config, "epsilon", 1.0, low=0.0, high=1.0)
    rng = trial_rng(config.seed, 5000)
    v = random_unitary(rng, 2)
    k_rule = testers.eigen_copies(len(s_set), epsilon**2)
    rec.value("copies_rule_k", k_rule)
    iso_exact = testers.unitary_s_iso_accept_exact(s_set, v, v, epsilon)
    rec.value("conjugate_exact_accept", iso_exact)
    rec.check_ge("conjugate_at_least_one_seventh", iso_exact, 1.0 / 7.0, slack=1e-9)
    far_exact = testers.unitary_s_iso_accept_exact(s_set, np.eye(2), PAULI_Z, epsilon)
    rec.value("far_exact_accept", far_exact)
    rec.check_le("far_at_most_one_eighth", far_exact, testers.CASE2_BUDGET, slack=1e-9)

    k_small = 2
    exact_small = testers.unitary_s_iso_accept_exact(s_set, v, v, epsilon, copies_k=k_small)
    inst = testers.unitary_s_iso_instance(s_set, v, v, epsilon, copies_k=k_small)
    count = _sampled_accepts(inst, config, trials)
    rec.check_sampled("sampled_vs_exact_smallk", count, trials, exact_small)


def _exp_genuine_ent(config: ExperimentConfig, rec: _Recorder, trials: int):
    ghz = ghz_state(3)
    cuts = testers.proper_cuts(3)
    worst = 0.0
    cut_values = {}
    for cut in cuts:
        via_swap = 0.5 * (1.0 + testers.swap_overlap_two_copies(ghz, cut))
        via_purity = testers.cut_product_accept(ghz, cut)
        worst = max(worst, abs(via_swap - via_purity))
        cut_values["cut_" + "".join(map(str, cut))] = via_purity
    rec.value("ghz_cut_accepts", cut_values)
    rec.check_le("cut_accept_identity_error", worst, 1e-10)

    partly_product = product_state([basis_state(RegisterShape((2,)), (0,)), bell_pair()])
    epsilon = _float_param(
        config, "epsilon", math.sqrt(0.5), low=0.0, high=math.sqrt(0.5),
        high_reason="sqrt(1/2), the trace distance of GHZ-3 to the biseparable states",
    )
    k_rule = testers.genuine_ent_copies(len(cuts), epsilon)
    rec.value("copies_rule_k", k_rule)
    case1 = testers.genuine_ent_accept_exact(partly_product, 3, k_rule)
    rec.value("product_across_cut_exact_accept", case1)
    rec.check_ge("product_case_at_least_one_seventh", case1, 1.0 / 7.0, slack=1e-9)
    case2 = testers.genuine_ent_accept_exact(ghz, 3, k_rule)
    rec.value("ghz_exact_accept", case2)
    rec.check_le("ghz_at_most_one_eighth", case2, testers.CASE2_BUDGET, slack=1e-9)

    k_small = 4
    exact_small = testers.genuine_ent_accept_exact(partly_product, 3, k_small)
    inst = testers.genuine_ent_instance(partly_product, 3, epsilon, copies_k=k_small)
    count = _sampled_accepts(inst, config, trials)
    rec.check_sampled("sampled_vs_exact_smallk", count, trials, exact_small)


def _demerlinize_case1(eta: float):
    shape = RegisterShape((4, 2))
    psi = basis_state(RegisterShape((4,)), (0,))
    p_a = np.diag([1.0, 0.0, 0.0, 0.0])
    gamma = HermitianOperator(shape, np.kron(p_a, np.diag([1.0, 0.0])))
    return gamma, psi, eta


def _exp_demerlinize(config: ExperimentConfig, rec: _Recorder, trials: int):
    eta1 = _float_param(config, "eta", 2.0 / 3.0, low=0.0, high=1.0)
    gamma, psi, eta1 = _demerlinize_case1(eta1)
    best = qor.merlin_best_witness_accept(gamma, psi)
    rec.value("case1_best_witness_accept", best)
    exact1 = qor.demerlinize_accept_exact(gamma, psi, eta1)
    rec.value("case1_exact_accept", exact1)
    rec.check_ge("case1_at_least_eta2_over_7", exact1, eta1**2 / 7.0, slack=1e-9)

    zeta = _float_param(config, "zeta", 0.01, low=0.0, high=0.25)
    eta2 = 0.5
    shape = RegisterShape((4, 2))
    gamma2 = HermitianOperator(shape, zeta * np.eye(8))
    psi2 = basis_state(RegisterShape((4,)), (0,))
    exact2 = qor.demerlinize_accept_exact(gamma2, psi2, eta2)
    bound2 = 2.0 * zeta * qor.demerlinize_round_count(2, eta2)
    rec.value("case2_exact_accept", exact2)
    rec.value("case2_bound", bound2)
    rec.check_le("case2_at_most_2_zeta_ceil", exact2, bound2, slack=1e-9)

    count = _sampled_accepts(qor.demerlinize_instance(gamma, psi, eta1), config, trials)
    rec.check_sampled("sampled_vs_exact", count, trials, exact1)


# name -> (runner, default trial count, accepted --param keys), in CLI listing order
_EXPERIMENTS: dict[
    str, tuple[Callable[[ExperimentConfig, _Recorder, int], None], int, tuple[str, ...]]
] = {
    "antizeno": (_exp_antizeno, 2000, ("n",)),
    "mw-bounds": (_exp_mw_bounds, 200, ()),
    "or-test": (_exp_or_test, 2000, ("n", "delta")),
    "disturbance": (_exp_disturbance, 3000, ("case2_instances",)),
    "union-bound": (_exp_union_bound, 30, ()),
    "gentle": (_exp_gentle, 1000, ()),
    "giso": (_exp_giso, 200, ("epsilon",)),
    "membership": (_exp_membership, 2000, ("epsilon",)),
    "uiso": (_exp_uiso, 200, ("identity_checks", "epsilon")),
    "genuine-ent": (_exp_genuine_ent, 200, ("epsilon",)),
    "demerlinize": (_exp_demerlinize, 2000, ("eta", "zeta")),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)
# the inputs only giso reads, each with the CLI flag that supplies it
_GISO_INPUTS = {"function_f": "--fn-f", "function_g": "--fn-g", "group": "--group"}


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Execute one named experiment and return its record."""
    if config.name not in _EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.name!r}; known: {', '.join(EXPERIMENT_NAMES)}"
        )
    runner, default_trials, keys = _EXPERIMENTS[config.name]
    unknown = sorted(set(config.params) - set(keys))
    if unknown:
        raise ValueError(
            f"unknown parameter {', '.join(map(repr, unknown))} for {config.name}; "
            f"accepted: {', '.join(keys) if keys else 'none'}"
        )
    # the streams read the seed as an integer: 1.5 or True would run another seed's streams
    if isinstance(config.seed, bool) or not isinstance(config.seed, int) or config.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {config.seed!r}")
    trials = config.trials if config.trials is not None else default_trials
    # the document records trials as given, and True would run as one trial
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    given = [f"{name} ({flag})" for name, flag in _GISO_INPUTS.items() if getattr(config, name) is not None]
    if given and config.name != "giso":
        raise ValueError(f"{config.name} takes no giso input; got {', '.join(given)}")
    if (config.function_f is None) != (config.function_g is None):
        raise ValueError("function_f (--fn-f) and function_g (--fn-g) must be given together")
    rec = _Recorder()
    start = time.perf_counter()
    runner(config, rec, trials)
    elapsed = time.perf_counter() - start
    return ExperimentRecord(
        experiment=config.name,
        seed=config.seed,
        trials=trials,
        params={k: config.params[k] for k in sorted(config.params)},
        values=rec.values,
        assertions=rec.assertions,
        all_passed=rec.all_passed,
        wall_clock_seconds=elapsed,
        csv_rows=rec.csv_rows,
    )
