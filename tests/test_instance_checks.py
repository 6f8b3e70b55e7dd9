"""Validate once: one instance check per procedure, shared by its sampler-side
builder and its exact oracle, and one trusted construction path for values
the package builds from already checked data.

The table below feeds each procedure's builder and exact oracle the same bad
input; both must reject it with ValueError.  The procedure parameters (epsilon,
eta, the copy count k) are held to one check each, on every entry point that
takes them; a table of those entries is kept complete by a signature walk.
The trusted-path tests make the value types' checks fail loudly and show
that the package's own constructions never reach them, while still storing
read-only complex128 arrays.
"""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from seqmeas import (
    AveragedInstance,
    DensityOperator,
    ExperimentConfig,
    FunctionTable,
    HermitianOperator,
    NaimarkForm,
    PermutationAction,
    PureState,
    RegisterShape,
    SequentialInstance,
    TwoOutcomeMeasurement,
    UnitarySet,
    analytic_eigen_accept,
    anti_zeno_accept_ever,
    anti_zeno_sequence,
    anti_zeno_state,
    basis_state,
    build_averaged_naimark,
    demerlinize_accept_exact,
    demerlinize_instance,
    demerlinize_round_count,
    eigen_instance,
    eigen_measurement_cycle,
    eigen_or_accept_exact,
    eigen_test,
    eigen_tester_state,
    g_iso_accept_exact,
    g_iso_instance,
    g_iso_test,
    genuine_ent_accept_exact,
    genuine_ent_instance,
    genuine_ent_test,
    ghz_state,
    measure_collapse,
    measure_register_collapse,
    membership_accept_exact,
    membership_instance,
    merlin_best_witness_accept,
    one_ancilla_dilation,
    or_round_count,
    or_test_accept_exact,
    or_test_instance,
    plus_state,
    product_state,
    proper_cuts,
    qft_matrix,
    reject_path,
    run_experiment,
    run_mw_sampled_batch,
    run_sequential_sampled_batch,
    sequential_iteration_count,
    state_membership_test,
    trial_blocks,
    trial_rng,
    trial_rngs,
    trivial_naimark,
    union_bound_bruteforce,
    unitary_s_iso_accept_exact,
    unitary_s_iso_instance,
    unitary_s_iso_test,
    unitary_set_test,
)
from seqmeas import testers as testers_module
from seqmeas.disturbance import certain_member_instance
from seqmeas.experiments import _case2_or_instance
from seqmeas.gates import HADAMARD, PAULI_X, GateSpec, _apply_gate_array, permutation_matrix
from seqmeas.measurement import is_idempotent
from seqmeas.quantum_or import mw_accept_polynomial, mw_accept_survival_stack
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
)
from seqmeas.states import STATE_ATOL, _trusted

QUBIT = RegisterShape((2,))
TWO_QUBITS = RegisterShape((2, 2))
ZERO = basis_state(QUBIT, (0,))


def _projector(shape, vector):
    v = np.asarray(vector, dtype=np.complex128)
    return TwoOutcomeMeasurement.projector(HermitianOperator(shape, np.outer(v, v.conj())))


SOFT = TwoOutcomeMeasurement(HermitianOperator(QUBIT, np.diag([0.5, 0.0])))
P_QUBIT = _projector(QUBIT, [1.0, 0.0])
P_TWO_QUBITS = _projector(TWO_QUBITS, [1.0, 0.0, 0.0, 0.0])
FLAT_4 = basis_state(RegisterShape((4,)), (0,))
GAMMA_BEYOND_I = HermitianOperator(TWO_QUBITS, np.diag([1.5, 0.5, 0.5, 0.5]))
GAMMA_OK = HermitianOperator(TWO_QUBITS, np.diag([1.0, 0.0, 0.5, 0.5]))
F_TABLE = FunctionTable(4, 2, (0, 1, 0, 1))
GROUP = (PermutationAction.identity(4),)
CANDIDATES = [ZERO, plus_state()]
S_SET = UnitarySet((np.eye(2),))

# case id -> (the sampler-side calls, the exact-oracle calls), each fed the
# same bad input.
BAD_INSTANCES = {
    "or-empty-family": (
        [lambda: or_test_instance([], ZERO, 0)],
        [lambda: or_test_accept_exact([], ZERO, 0)],
    ),
    "or-non-projective": (
        [lambda: or_test_instance([SOFT], ZERO, 0)],
        [lambda: or_test_accept_exact([SOFT], ZERO, 0)],
    ),
    "or-mixed-shapes": (
        [lambda: or_test_instance([P_QUBIT, P_TWO_QUBITS], ZERO, 0)],
        [lambda: or_test_accept_exact([P_QUBIT, P_TWO_QUBITS], ZERO, 0)],
    ),
    "or-state-on-other-registers": (
        [lambda: or_test_instance([P_TWO_QUBITS], FLAT_4, 0)],
        [lambda: or_test_accept_exact([P_TWO_QUBITS], FLAT_4, 0)],
    ),
    "demerlinize-gamma-beyond-identity": (
        [lambda: demerlinize_instance(GAMMA_BEYOND_I, ZERO, 0.5)],
        [
            lambda: demerlinize_accept_exact(GAMMA_BEYOND_I, ZERO, 0.5),
            lambda: merlin_best_witness_accept(GAMMA_BEYOND_I, ZERO),
        ],
    ),
    "demerlinize-psi-off-message-space": (
        [lambda: demerlinize_instance(GAMMA_OK, FLAT_4, 0.5)],
        [
            lambda: demerlinize_accept_exact(GAMMA_OK, FLAT_4, 0.5),
            lambda: merlin_best_witness_accept(GAMMA_OK, FLAT_4),
        ],
    ),
    "eigen-zero-copies": (
        [lambda: eigen_instance([PAULI_X], ZERO, 0.5, copies_k=0)],
        [lambda: eigen_or_accept_exact([PAULI_X], ZERO, 0)],
    ),
    "g-iso-zero-copies": (
        [
            lambda: g_iso_instance(F_TABLE, F_TABLE, GROUP, 0.5, copies_k=0),
            lambda: g_iso_test(F_TABLE, F_TABLE, GROUP, 0.5, trial_rng(0, 0), copies_k=0),
        ],
        [lambda: g_iso_accept_exact(F_TABLE, F_TABLE, GROUP, 0.5, copies_k=0)],
    ),
    "u-iso-zero-copies": (
        [lambda: unitary_s_iso_instance(S_SET, PAULI_X, PAULI_X, 0.5, copies_k=0)],
        [lambda: unitary_s_iso_accept_exact(S_SET, PAULI_X, PAULI_X, 0.5, copies_k=0)],
    ),
    "membership-zero-copies": (
        [lambda: membership_instance(CANDIDATES, ZERO, 0.5, copies_k=0)],
        [lambda: membership_accept_exact(CANDIDATES, ZERO, 0)],
    ),
    "membership-empty-candidates": (
        [lambda: membership_instance([], ZERO, 0.5)],
        [lambda: membership_accept_exact([], ZERO, 2)],
    ),
    "membership-candidate-shape": (
        [lambda: membership_instance([FLAT_4], ZERO, 0.5, copies_k=2)],
        [lambda: membership_accept_exact([FLAT_4], ZERO, 2)],
    ),
    "genuine-zero-copies": (
        [lambda: genuine_ent_instance(ghz_state(3), 3, 0.5, copies_k=0)],
        [lambda: genuine_ent_accept_exact(ghz_state(3), 3, 0)],
    ),
    "genuine-odd-copies": (
        [lambda: genuine_ent_instance(ghz_state(3), 3, 0.5, copies_k=3)],
        [lambda: genuine_ent_accept_exact(ghz_state(3), 3, 3)],
    ),
    "genuine-part-count": (
        [lambda: genuine_ent_instance(ghz_state(3), 4, 0.5, copies_k=2)],
        [lambda: genuine_ent_accept_exact(ghz_state(3), 4, 2)],
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_builder_and_oracle_reject_the_same_inputs(case):
    builders, oracles = BAD_INSTANCES[case]
    for call in builders + oracles:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("copies_k", [-1, -2])
def test_negative_copy_counts_rejected(copies_k):
    """A negative k once sent the repeated squaring of the membership oracle
    into an endless loop (k >>= 1 keeps -1)."""
    with pytest.raises(ValueError, match="at least one copy"):
        membership_accept_exact(CANDIDATES, ZERO, copies_k)
    with pytest.raises(ValueError, match="at least one copy"):
        eigen_or_accept_exact([PAULI_X], ZERO, copies_k)
    with pytest.raises(ValueError, match="at least one copy"):
        genuine_ent_accept_exact(ghz_state(3), 3, copies_k)
    with pytest.raises(ValueError, match="at least one copy"):
        eigen_tester_state(ZERO, copies_k)


# entries fed an input that is not a PureState -> (the call, the message)
NOT_PURE_CALLS = {
    "membership_accept_exact": (
        lambda: membership_accept_exact([ZERO], ZERO.density(), 2),
        "psi must be a PureState, got DensityOperator",
    ),
    "membership_instance": (
        lambda: membership_instance([ZERO], ZERO.density(), 0.5, copies_k=2),
        "psi must be a PureState, got DensityOperator",
    ),
    "state_membership_test": (
        lambda: state_membership_test([ZERO], ZERO.density(), 0.5, trial_rng(0, 0), copies_k=2),
        "psi must be a PureState, got DensityOperator",
    ),
    "membership_accept_exact-ndarray-candidate": (
        lambda: membership_accept_exact([ZERO, ZERO.amplitudes], ZERO, 2),
        "candidates[1] must be a PureState, got ndarray",
    ),
    "eigen_or_accept_exact": (
        lambda: eigen_or_accept_exact([np.diag([1.0, -1.0])], ZERO.density(), 2),
        "psi must be a PureState, got DensityOperator",
    ),
    "genuine_ent_accept_exact": (
        lambda: genuine_ent_accept_exact(ghz_state(3).density(), 3, 4),
        "psi must be a PureState, got DensityOperator",
    ),
}


@pytest.mark.parametrize("entry", sorted(NOT_PURE_CALLS))
def test_non_pure_inputs_rejected(entry):
    """Each once raised AttributeError from deep inside (a bare ndarray
    candidate read "candidates and input state must share a shape"); the
    instance checks now name the argument that is not a PureState."""
    call, message = NOT_PURE_CALLS[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# every k-copy entry point, as a function of k
COPY_COUNT_CALLS = {
    "analytic_eigen_accept": lambda k: analytic_eigen_accept(PAULI_X, ZERO, k),
    "eigen_tester_state": lambda k: eigen_tester_state(ZERO, k),
    "eigen_measurement_cycle": lambda k: eigen_measurement_cycle(
        eigen_tester_state(ZERO, 2), PAULI_X, QUBIT, k, branch=1
    ),
    "eigen_instance": lambda k: eigen_instance([PAULI_X], ZERO, 0.5, copies_k=k),
    "eigen_test": lambda k: eigen_test([PAULI_X], ZERO, 0.5, trial_rng(0, 0), copies_k=k),
    "eigen_or_accept_exact": lambda k: eigen_or_accept_exact([PAULI_X], ZERO, k),
    "g_iso_test": lambda k: g_iso_test(F_TABLE, F_TABLE, GROUP, 0.5, trial_rng(0, 0), copies_k=k),
    "g_iso_instance": lambda k: g_iso_instance(F_TABLE, F_TABLE, GROUP, 0.5, copies_k=k),
    "g_iso_accept_exact": lambda k: g_iso_accept_exact(F_TABLE, F_TABLE, GROUP, 0.5, copies_k=k),
    "membership_instance": lambda k: membership_instance(CANDIDATES, ZERO, 0.5, copies_k=k),
    "state_membership_test": lambda k: state_membership_test(CANDIDATES, ZERO, 0.5, trial_rng(0, 0), copies_k=k),
    "membership_accept_exact": lambda k: membership_accept_exact(CANDIDATES, ZERO, k),
    "per_candidate_accept": lambda k: testers_module.per_candidate_accept(ZERO, plus_state(), k),
    "unitary_set_test": lambda k: unitary_set_test(S_SET, np.eye(2), 0.5, trial_rng(0, 0), copies_k=k),
    "unitary_s_iso_instance": lambda k: unitary_s_iso_instance(S_SET, PAULI_X, PAULI_X, 0.5, copies_k=k),
    "unitary_s_iso_test": lambda k: unitary_s_iso_test(S_SET, PAULI_X, PAULI_X, 0.5, trial_rng(0, 0), copies_k=k),
    "unitary_s_iso_accept_exact": lambda k: unitary_s_iso_accept_exact(S_SET, PAULI_X, PAULI_X, 0.5, copies_k=k),
    "genuine_ent_instance": lambda k: genuine_ent_instance(ghz_state(3), 3, 0.5, copies_k=k),
    "genuine_ent_test": lambda k: genuine_ent_test(ghz_state(3), 3, 0.5, trial_rng(0, 0), copies_k=k),
    "genuine_ent_accept_exact": lambda k: genuine_ent_accept_exact(ghz_state(3), 3, k),
}


@pytest.mark.parametrize("copies_k", [True, 2.0, 2.5, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("entry", sorted(COPY_COUNT_CALLS))
def test_non_integer_copy_counts_rejected(entry, copies_k):
    """A bool once ran as k = 1, a fractional k gave a number (the closed
    forms took a real power) and an integral float failed later with an
    unrelated TypeError: each is refused up front, naming k."""
    with pytest.raises(ValueError, match=re.escape(f"copy count k must be an integer, got {copies_k!r}")):
        COPY_COUNT_CALLS[entry](copies_k)


@pytest.mark.parametrize("entry", sorted(COPY_COUNT_CALLS))
def test_numpy_integer_copy_count_accepted(entry):
    """np.int64(2) runs as k = 2: the exact values equal those at int 2."""
    value = COPY_COUNT_CALLS[entry](np.int64(2))
    if isinstance(value, float):
        assert value == COPY_COUNT_CALLS[entry](2)


# every public (epsilon, copies_k) entry point, as a function of epsilon at k = 2
EPSILON_CALLS = {
    "eigen_instance": lambda eps: eigen_instance([PAULI_X], ZERO, eps, copies_k=2),
    "eigen_test": lambda eps: eigen_test([PAULI_X], ZERO, eps, trial_rng(0, 0), copies_k=2),
    "g_iso_instance": lambda eps: g_iso_instance(F_TABLE, F_TABLE, GROUP, eps, copies_k=2),
    "g_iso_test": lambda eps: g_iso_test(F_TABLE, F_TABLE, GROUP, eps, trial_rng(0, 0), copies_k=2),
    "g_iso_accept_exact": lambda eps: g_iso_accept_exact(F_TABLE, F_TABLE, GROUP, eps, copies_k=2),
    "membership_instance": lambda eps: membership_instance(CANDIDATES, ZERO, eps, copies_k=2),
    "state_membership_test": lambda eps: state_membership_test(CANDIDATES, ZERO, eps, trial_rng(0, 0), copies_k=2),
    "unitary_set_test": lambda eps: unitary_set_test(S_SET, np.eye(2), eps, trial_rng(0, 0), copies_k=2),
    "unitary_s_iso_instance": lambda eps: unitary_s_iso_instance(S_SET, PAULI_X, PAULI_X, eps, copies_k=2),
    "unitary_s_iso_test": lambda eps: unitary_s_iso_test(S_SET, PAULI_X, PAULI_X, eps, trial_rng(0, 0), copies_k=2),
    "unitary_s_iso_accept_exact": lambda eps: unitary_s_iso_accept_exact(S_SET, PAULI_X, PAULI_X, eps, copies_k=2),
    "genuine_ent_instance": lambda eps: genuine_ent_instance(ghz_state(3), 3, eps, copies_k=2),
    "genuine_ent_test": lambda eps: genuine_ent_test(ghz_state(3), 3, eps, trial_rng(0, 0), copies_k=2),
}
BAD_EPSILONS = [1.5, -1.0, 0.0, math.nan, math.inf, True]


@pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=repr)
@pytest.mark.parametrize("entry", sorted(EPSILON_CALLS))
def test_epsilon_checked_at_a_given_copy_count(entry, epsilon):
    """With copies_k given, every entry once ran at any epsilon: only the
    copy rule checked it.  ``testers._copy_count`` checks it on both paths."""
    with pytest.raises(ValueError, match=re.escape(f"epsilon must lie in (0, 1], got {epsilon!r}")):
        EPSILON_CALLS[entry](epsilon)


@pytest.mark.parametrize("entry", sorted(EPSILON_CALLS))
def test_tiny_epsilon_runs_at_a_given_copy_count(entry):
    """1e-300 is a valid epsilon, and at a given k it changes nothing: no
    builder squares it on the way (1e-300**2 underflows to 0.0)."""
    value, reference = EPSILON_CALLS[entry](1e-300), EPSILON_CALLS[entry](0.5)
    if isinstance(value, AveragedInstance):
        assert value.n_rounds == reference.n_rounds and len(value.appliers) == len(reference.appliers)
        assert np.array_equal(value.initial.amplitudes, reference.initial.amplitudes)
    else:
        assert value == reference


def test_epsilon_table_lists_every_copy_count_entry():
    """Every public callable of ``testers`` that takes both epsilon and
    copies_k is in EPSILON_CALLS, so a new one is held to the epsilon check."""
    takes_both = set()
    for name, obj in vars(testers_module).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if {"epsilon", "copies_k"} <= params.keys():
            takes_both.add(name)
    assert takes_both == set(EPSILON_CALLS)


def test_copy_count_decision_is_written_once():
    """"The rule's k, or the given copies_k" is decided in
    ``testers._copy_count`` alone: a new k-copy tester reuses it."""
    package = Path(testers_module.__file__).parent
    hits = [
        (path.name, line.strip())
        for path in sorted(package.rglob("*.py"))
        for line in path.read_text().splitlines()
        if "if copies_k is None else" in line
    ]
    assert len(hits) <= 1, hits


# every count rule, as a function of its count n (measurements, or witness
# dimension for de-Merlinization)
COUNT_RULES = {
    "or_round_count": lambda n: or_round_count(n, 0),
    "demerlinize_round_count": lambda n: demerlinize_round_count(n, 0.5),
    "sequential_iteration_count": lambda n: sequential_iteration_count(n, 0.5),
}
# what each rule's errors call its n, and the unit of an empty count
COUNT_NAMES = {
    "or_round_count": ("family size", "member"),
    "demerlinize_round_count": ("witness dimension", "witness basis state"),
    "sequential_iteration_count": ("family size", "member"),
}


@pytest.mark.parametrize("n", [-2, -1, 0, 2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("rule", sorted(COUNT_RULES))
def test_count_rules_refuse_counts_that_are_not_integers_at_least_one(rule, n):
    """or_round_count(-1, 0) once returned -1, (0, 0) returned 0 and
    (2.5, 0) returned 3; demerlinize_round_count(0, 0.5) and
    sequential_iteration_count(-2, 0.5) returned 0.  Each n goes through
    the copy rules' family-size check, so the error names n, not a round
    count (it once read "round count must be >= 1" for n = 0 and "round
    counts must be an integer or a 1-d integer array" for n = 2.0)."""
    name, unit = COUNT_NAMES[rule]
    if isinstance(n, int) and not isinstance(n, bool):
        message = f"need at least one {unit}"
    else:
        message = f"{name} must be an integer, got {n!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        COUNT_RULES[rule](n)


@pytest.mark.parametrize("rule", sorted(COUNT_RULES))
def test_count_rules_take_integer_counts(rule):
    assert COUNT_RULES[rule](np.int64(3)) == COUNT_RULES[rule](3) >= 3
    assert COUNT_RULES[rule](1) >= 1


@pytest.mark.parametrize("rule", sorted(COUNT_RULES))
def test_count_rules_name_the_int64_cap(rule):
    """A count past int64 was reported as "must be an integer or a 1-d
    integer array"; the error now names the cap and the count's size."""
    with pytest.raises(ValueError, match=re.escape("int64 cap 2**63 - 1, got a 71-bit integer")):
        COUNT_RULES[rule](2**70)


@pytest.mark.parametrize("epsilon", [False, True, "0.1", math.inf, -math.inf, math.nan, -0.5, 0.75], ids=repr)
def test_or_round_count_refuses_epsilon_outside_the_interval(epsilon):
    """or_round_count(2, False) returned 2 and (2, "0.1") 3; inf raised
    OverflowError and NaN Fraction's "cannot convert NaN to integer ratio"."""
    with pytest.raises(ValueError, match=re.escape(f"epsilon must lie in [0, 1/2], got {epsilon!r}")):
        or_round_count(2, epsilon)


# every entry that takes eta, as a function of eta
ETA_CALLS = {
    "demerlinize_round_count": lambda eta: demerlinize_round_count(2, eta),
    "sequential_iteration_count": lambda eta: sequential_iteration_count(2, eta),
    "SequentialInstance": lambda eta: SequentialInstance([P_QUBIT], ZERO, eta),
    "demerlinize_instance": lambda eta: demerlinize_instance(GAMMA_OK, ZERO, eta),
}


@pytest.mark.parametrize("eta", [True, np.True_, "0.5", math.nan, math.inf, 0.0, 1.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(ETA_CALLS))
def test_eta_refused_outside_the_interval(entry, eta):
    """A bool once ran as eta = 1, and a string raised TypeError."""
    with pytest.raises(ValueError, match=re.escape(f"eta must lie in (0, 1], got {eta!r}")):
        ETA_CALLS[entry](eta)


def test_round_counts_up_to_the_int64_cap_pass_the_check():
    assert or_round_count(2**63 - 1, 0) == 2**63 - 1
    with pytest.raises(ValueError, match=re.escape("int64 cap 2**63 - 1, got a 64-bit integer")):
        or_round_count(2**63, 0)


# a count within the int64 cap whose rule gives an N past it, and the bit
# length of that N
COUNTS_PAST_THE_CAP = {
    "or_round_count": (lambda: or_round_count(2**62 + 1, 0.5), 64),
    "demerlinize_round_count": (lambda: demerlinize_round_count(2**62, 0.5), 64),
    "sequential_iteration_count": (lambda: sequential_iteration_count(2**62, 0.5), 66),
}


@pytest.mark.parametrize("rule", sorted(COUNTS_PAST_THE_CAP))
def test_count_rules_refuse_an_n_past_the_int64_cap(rule):
    """or_round_count(2**62 + 1, 0.5) returned 2**63 + 2 and
    demerlinize_round_count(2**62, 0.5) 2**63; sequential_iteration_count(2**62,
    0.5) returned a 66-bit k, for which exact_sequential_accept then tried to
    allocate a (k + 1, 3) array."""
    call, bits = COUNTS_PAST_THE_CAP[rule]
    with pytest.raises(ValueError, match=re.escape(f"int64 cap 2**63 - 1, got a {bits}-bit integer")):
        call()


# every shared-generator batch sampler, as a function of its trial count
BATCH_SAMPLERS = {
    "run_mw_sampled_batch": lambda trials: run_mw_sampled_batch(
        or_test_instance([P_QUBIT], ZERO, 0), trial_rng(0, 0), trials
    ),
    "run_sequential_sampled_batch": lambda trials: run_sequential_sampled_batch(
        certain_member_instance(2, eta=1.0), trial_rng(0, 0), trials
    ),
}


@pytest.mark.parametrize("trials", [True, np.True_, 2.0, 2.5, np.float64(3.0), "3"], ids=repr)
@pytest.mark.parametrize("sampler", sorted(BATCH_SAMPLERS))
def test_batch_samplers_refuse_non_integer_trials(sampler, trials):
    """True and 2.0 failed inside numpy with TypeError ("expected a sequence
    of integers")."""
    with pytest.raises(ValueError, match=re.escape(f"trials must be an integer, got {trials!r}")):
        BATCH_SAMPLERS[sampler](trials)


@pytest.mark.parametrize("sampler", sorted(BATCH_SAMPLERS))
def test_batch_samplers_refuse_negative_trials(sampler):
    """-1 failed inside numpy ("negative dimensions are not allowed")."""
    with pytest.raises(ValueError, match=re.escape("trials must be >= 0, got -1")):
        BATCH_SAMPLERS[sampler](-1)


@pytest.mark.parametrize("sampler", sorted(BATCH_SAMPLERS))
def test_batch_samplers_take_zero_and_numpy_integer_trials(sampler):
    """No trials accept 0 times; np.int64(50) runs as 50 trials."""
    assert BATCH_SAMPLERS[sampler](0) == 0
    assert BATCH_SAMPLERS[sampler](np.int64(50)) == BATCH_SAMPLERS[sampler](50) > 0


# every copy rule, as a function of its family size
COPY_RULES = {
    "eigen_copies": testers_module.eigen_copies,
    "membership_copies": testers_module.membership_copies,
    "genuine_ent_copies": testers_module.genuine_ent_copies,
    "unitary_s_iso_copies": testers_module.unitary_s_iso_copies,
}


@pytest.mark.parametrize("n", [0, -2], ids=repr)
@pytest.mark.parametrize("rule", sorted(COPY_RULES))
def test_copy_rules_refuse_empty_families(rule, n):
    """eigen_copies(0, .5) returned 1, membership_copies(-2, .5) 1 and
    genuine_ent_copies(0, .5) 2: a rule for no measurement at all."""
    with pytest.raises(ValueError, match="need at least one member"):
        COPY_RULES[rule](n, 0.5)


@pytest.mark.parametrize("n", [True, 2.0, 2.5, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("rule", sorted(COPY_RULES))
def test_copy_rules_refuse_non_integer_family_sizes(rule, n):
    """eigen_copies(True, .5) returned 13, the rule at n = 1."""
    with pytest.raises(ValueError, match=re.escape(f"family size must be an integer, got {n!r}")):
        COPY_RULES[rule](n, 0.5)


@pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=repr)
@pytest.mark.parametrize("rule", sorted(COPY_RULES))
def test_copy_rules_refuse_epsilon_outside_the_interval(rule, epsilon):
    """eigen_copies(2, True) returned 6, the rule at epsilon = 1."""
    with pytest.raises(ValueError, match=re.escape(f"epsilon must lie in (0, 1], got {epsilon!r}")):
        COPY_RULES[rule](2, epsilon)


@pytest.mark.parametrize("rule", sorted(COPY_RULES))
def test_copy_rules_take_numpy_integer_family_sizes(rule):
    assert COPY_RULES[rule](np.int64(3), 0.5) == COPY_RULES[rule](3, 0.5)


UISO_CALLS = {
    "unitary_s_iso_copies": lambda eps: testers_module.unitary_s_iso_copies(2, eps),
    "unitary_s_iso_instance": lambda eps: unitary_s_iso_instance(S_SET, PAULI_X, PAULI_X, eps),
    "unitary_s_iso_test": lambda eps: unitary_s_iso_test(S_SET, PAULI_X, PAULI_X, eps, trial_rng(0, 0)),
    "unitary_s_iso_accept_exact": lambda eps: unitary_s_iso_accept_exact(S_SET, PAULI_X, PAULI_X, eps),
}


@pytest.mark.parametrize("epsilon", [1e-300, 1e-10], ids=repr)
@pytest.mark.parametrize("entry", sorted(UISO_CALLS))
def test_uiso_copy_rule_errors_quote_the_given_epsilon(entry, epsilon):
    """The rule ran at eps^2, so 1e-300 read "epsilon must lie in (0, 1]"
    and 1e-10 read "epsilon 1.0000000000000001e-20 is too small"."""
    with pytest.raises(ValueError, match=re.escape(f"epsilon {epsilon!r} is too small")):
        UISO_CALLS[entry](epsilon)


def test_uiso_copy_rule_is_the_eigen_rule_at_the_squared_gap():
    for eps in (1.0, 0.5, 0.3, 0.01, 1e-3):
        assert testers_module.unitary_s_iso_copies(2, eps) == testers_module.eigen_copies(2, eps**2)


def test_polynomial_oracle_rejects_non_unit_vectors():
    half = lambda x: 0.5 * x  # noqa: E731
    with pytest.raises(ValueError, match="not normalised"):
        mw_accept_polynomial(half, np.array([2.0, 0.0]), 1)
    with pytest.raises(ValueError, match="not normalised"):
        mw_accept_polynomial(half, np.array([np.nan, 0.0]), 1)
    within = np.array([1.0 + 0.5 * STATE_ATOL, 0.0])
    assert abs(mw_accept_polynomial(half, within, 1) - 0.75) <= 1e-9


# -- the trusted construction path ---------------------------------------------


def test_trusted_values_keep_their_storage_invariants():
    source = np.array([1.0, 0.0])
    psi = _trusted(PureState, QUBIT, source)
    rho = _trusted(DensityOperator, QUBIT, np.diag([1.0, 0.0]))
    for arr in (psi.amplitudes, rho.matrix):
        assert arr.dtype == np.complex128 and not arr.flags.writeable
    source[0] = 0.0  # a copy was stored
    assert psi.amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="shape"):
        _trusted(PureState, QUBIT, np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError, match="shape"):
        _trusted(HermitianOperator, QUBIT, np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        _trusted(NaimarkForm, QUBIT, (2,), np.eye(2))


def test_library_built_values_skip_the_checks(monkeypatch):
    """The package's own constructions never run a value type's checks."""
    rng = trial_rng(90, 0)
    psi = random_pure_state(rng, TWO_QUBITS)
    lam = random_povm_contraction(rng, QUBIT)
    ms = [TwoOutcomeMeasurement.projector(random_projector(rng, QUBIT, 1)) for _ in range(3)]
    phi = eigen_tester_state(ZERO, 2)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} re-checked")

    for cls in (PureState, HermitianOperator, DensityOperator, TwoOutcomeMeasurement, NaimarkForm):
        monkeypatch.setattr(cls, "__post_init__", refuse)

    measure_collapse(ms[0], plus_state(), branch=1)
    reject_path(anti_zeno_sequence(4), ZERO)
    measure_register_collapse(psi, 1, branch=0)
    _apply_gate_array(psi.amplitudes, psi.shape.dims, GateSpec((0,), HADAMARD))
    qft_matrix(3)
    permutation_matrix(PermutationAction((1, 0)))
    eigen_measurement_cycle(phi, PAULI_X, QUBIT, 2, rng=trial_rng(90, 1))
    product_state([psi, plus_state()]).density()
    random_density_operator(rng, TWO_QUBITS)
    random_povm_contraction(rng, TWO_QUBITS)
    res = union_bound_bruteforce(ms, random_pure_state(rng, QUBIT))
    assert any(r.final_state is not None for r in res.trajectories)
    trivial_naimark(ms[0]).induced_operator()
    one_ancilla_dilation(lam)
    build_averaged_naimark(ms)
    demerlinize_instance(GAMMA_OK, ZERO, 0.5)


def test_library_built_unitary_families_skip_the_check(monkeypatch):
    """The swap unitaries of g-isomorphism and the conjugation unitaries of
    S-isomorphism are built from checked data and skip ``UnitarySet``'s
    check; a family from outside the package is checked once, as a plain
    list of raw matrices too."""
    checked = []
    original = UnitarySet.__post_init__

    def spy(self):
        checked.append(len(self.matrices))
        original(self)

    monkeypatch.setattr(UnitarySet, "__post_init__", spy)
    f, g = FunctionTable(4, 2, (0, 1, 0, 1)), FunctionTable(4, 2, (1, 1, 0, 0))
    group = (PermutationAction.identity(4), PermutationAction((0, 2, 1, 3)))
    g_iso_accept_exact(f, g, group, 0.5, copies_k=2)
    g_iso_instance(f, g, group, 0.5, copies_k=2)
    g_iso_test(f, g, group, 0.5, trial_rng(90, 2), copies_k=2)
    assert checked == []
    s_set = UnitarySet((np.eye(2), PAULI_X))
    unitary_s_iso_accept_exact(s_set, PAULI_X, PAULI_X, 0.5, copies_k=2)
    unitary_s_iso_instance(s_set, PAULI_X, PAULI_X, 0.5, copies_k=2)
    eigen_or_accept_exact([PAULI_X], ZERO, 2)
    assert checked == [2, 1]
    with pytest.raises(ValueError, match="not unitary"):
        unitary_s_iso_accept_exact([np.eye(2), 2.0 * PAULI_X], PAULI_X, PAULI_X, 0.5, copies_k=2)


def test_unitary_set_test_checks_each_unitary_once(monkeypatch):
    """A pre-built set's candidates are not re-checked when their channel
    states are built; only the unknown unitary is."""
    candidates = UnitarySet((np.eye(2), PAULI_X))
    calls = []
    original = testers_module.is_unitary

    def spy(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(testers_module, "is_unitary", spy)
    unitary_set_test(candidates, PAULI_X, 0.5, trial_rng(91, 0), copies_k=2)
    assert calls == [(2, 2)]
    with pytest.raises(ValueError, match="not unitary"):
        unitary_set_test([np.eye(2), 2.0 * PAULI_X], PAULI_X, 0.5, trial_rng(91, 1), copies_k=2)


def test_by_construction_projectors_skip_the_checks(monkeypatch):
    """The or-test case-2 family and the certain-member instance are rank-one
    projectors of unit vectors, built without a value check."""
    rng = trial_rng(92, 0)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} re-checked")

    for cls in (PureState, HermitianOperator, TwoOutcomeMeasurement):
        monkeypatch.setattr(cls, "__post_init__", refuse)

    psi, family = _case2_or_instance(rng, 8, 4, 1.0 / 1024.0)
    assert all(m.is_projector and is_idempotent(m.accept_op.matrix) for m in family)
    inst = certain_member_instance(4, eta=1.0, dim=3)
    assert all(is_idempotent(m.accept_op.matrix) for m in inst.measurements)


# every entry point that takes an integer scalar, as a function of that
# scalar, and what its error calls it; None marks the stream indices, which
# keep rng's own rule (TypeError)
INTEGER_INPUTS = {
    "RegisterShape": (lambda v: RegisterShape((v, 3)), "register dimension"),
    "RegisterShape.check_register": (lambda v: TWO_QUBITS.check_register(v), "register index"),
    "basis_state": (lambda v: basis_state(QUBIT, (v,)), "basis label"),
    "ghz_state": (lambda v: ghz_state(v), "n_parts"),
    "GateSpec targets": (lambda v: GateSpec((v,), np.eye(2)), "target register"),
    "GateSpec control register": (lambda v: GateSpec((0,), PAULI_X, ((v, 1),)), "control register"),
    "GateSpec control value": (lambda v: GateSpec((0,), PAULI_X, ((1, v),)), "control value"),
    "PermutationAction": (lambda v: PermutationAction((0, v)), "permutation image"),
    "qft_matrix": (lambda v: qft_matrix(v), "QFT dimension"),
    "measure_collapse": (lambda v: measure_collapse(P_QUBIT, plus_state(), branch=v), "branch"),
    "measure_register_collapse branch": (
        lambda v: measure_register_collapse(plus_state(), 0, branch=v),
        "branch",
    ),
    "measure_register_collapse register": (
        lambda v: measure_register_collapse(product_state([plus_state(), plus_state()]), v, branch=0),
        "register index",
    ),
    "eigen_measurement_cycle": (
        lambda v: eigen_measurement_cycle(eigen_tester_state(plus_state(), 1), PAULI_X, QUBIT, 1, branch=v),
        "branch",
    ),
    "NaimarkForm": (lambda v: NaimarkForm(QUBIT, (v,), np.eye(4)), "ancilla dimension"),
    "mw_accept_survival_stack": (
        lambda v: mw_accept_survival_stack(np.eye(4)[None], v, np.array([[1.0, 0.0]]), 1),
        "ancilla dimension",
    ),
    "anti_zeno_state n": (lambda v: anti_zeno_state(v, 1), "n"),
    "anti_zeno_state k": (lambda v: anti_zeno_state(2, v), "k"),
    "anti_zeno_sequence": (lambda v: anti_zeno_sequence(v), "n"),
    "anti_zeno_accept_ever": (lambda v: anti_zeno_accept_ever(v), "n"),
    "FunctionTable values": (lambda v: FunctionTable(2, 3, (0, v)), "function value"),
    "FunctionTable domain size": (lambda v: FunctionTable(v, 3, (0, 1)), "domain size"),
    "FunctionTable codomain size": (lambda v: FunctionTable(2, v, (0, 1)), "codomain size"),
    "proper_cuts": (lambda v: proper_cuts(v), "n_parts"),
    "genuine_ent_accept_exact": (lambda v: genuine_ent_accept_exact(ghz_state(3), v, 2), "n_parts"),
    "genuine_ent_instance": (lambda v: genuine_ent_instance(ghz_state(3), v, 0.5, copies_k=2), "n_parts"),
    "random_density_operator": (
        lambda v: random_density_operator(trial_rng(0, 0), TWO_QUBITS, rank=v),
        "rank",
    ),
    "random_projector": (lambda v: random_projector(trial_rng(0, 0), TWO_QUBITS, v), "rank"),
    "run_experiment trials": (lambda v: run_experiment(ExperimentConfig(name="gentle", trials=v)), "trials"),
    "--param n (antizeno)": (
        lambda v: run_experiment(ExperimentConfig(name="antizeno", trials=1, params={"n": v})),
        "parameter 'n'",
    ),
    "--param n (or-test)": (
        lambda v: run_experiment(ExperimentConfig(name="or-test", trials=1, params={"n": v})),
        "parameter 'n'",
    ),
    "--param case2_instances": (
        lambda v: run_experiment(ExperimentConfig(name="disturbance", trials=1, params={"case2_instances": v})),
        "parameter 'case2_instances'",
    ),
    "--param identity_checks": (
        lambda v: run_experiment(ExperimentConfig(name="uiso", trials=1, params={"identity_checks": v})),
        "parameter 'identity_checks'",
    ),
    "trial_rng": (lambda v: trial_rng(0, v), None),
    "trial_rngs": (lambda v: next(iter(trial_rngs(0, [v]))), None),
    "trial_blocks": (lambda v: next(trial_blocks(0, [v])), None),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.True_, "2"], ids=repr)
@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
def test_integer_inputs_refuse_what_is_not_an_integer(entry, value):
    """Each was truncated (RegisterShape((2.7, 3)) had dims (2, 3)), cast
    (True ran as 1, "8" as 8), taken as is (qft_matrix(2.5) was a 3 x 3
    matrix) or failed with a bare TypeError (ghz_state(2.0))."""
    call, name = INTEGER_INPUTS[entry]
    if name is None:
        with pytest.raises(TypeError):
            call(value)
    else:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(value)


@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
def test_integer_inputs_take_numpy_integers(entry):
    """What ``operator.index`` takes passes the check: np.int64(2) is 2."""
    call, _ = INTEGER_INPUTS[entry]
    try:
        call(np.int64(2))
    except ValueError as exc:
        assert "must be an integer" not in str(exc)


# every entry point that takes a real scalar, as a function of it, and the
# start of its error
REAL_INPUTS = {
    **{f"{rule} epsilon": (lambda v, rule=rule: COPY_RULES[rule](2, v), "epsilon must lie in (0, 1]") for rule in COPY_RULES},
    "eigen_instance epsilon": (
        lambda v: eigen_instance([PAULI_X], ZERO, v, copies_k=2),
        "epsilon must lie in (0, 1]",
    ),
    "or_round_count epsilon": (lambda v: or_round_count(2, v), "epsilon must lie in [0, 1/2]"),
    "or_test_instance epsilon": (lambda v: or_test_instance([P_QUBIT], ZERO, v), "epsilon must lie in [0, 1/2]"),
    "demerlinize_round_count eta": (lambda v: demerlinize_round_count(2, v), "eta must lie in (0, 1]"),
    "SequentialInstance eta": (lambda v: SequentialInstance([P_QUBIT], ZERO, v), "eta must lie in (0, 1]"),
    "union_bound_bruteforce epsilon": (
        lambda v: union_bound_bruteforce([P_QUBIT], ZERO, v),
        "epsilon must lie in [0, 1]",
    ),
    **{
        f"--param {key} ({name})": (
            lambda v, name=name, key=key: run_experiment(ExperimentConfig(name=name, trials=1, params={key: v})),
            f"parameter {key!r} must be a number",
        )
        for name, key in [
            ("or-test", "delta"),
            ("giso", "epsilon"),
            ("membership", "epsilon"),
            ("uiso", "epsilon"),
            ("genuine-ent", "epsilon"),
            ("demerlinize", "eta"),
            ("demerlinize", "zeta"),
        ]
    },
}


@pytest.mark.parametrize("value", [True, np.True_, "0.5", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(REAL_INPUTS))
def test_real_inputs_refuse_what_is_not_a_finite_real(entry, value):
    """A bool is no distance, "0.5" no number (the union bound refused it,
    the testers raised TypeError), and a NaN or infinite value no point of
    an interval."""
    call, message = REAL_INPUTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {value!r}")):
        call(value)


def test_scalar_rules_live_in_states_alone():
    """The integer and real-number type tests are written in ``states``
    (and rng's own TypeError rule); every other module calls them."""
    package = Path(testers_module.__file__).parent
    pattern = re.compile(r"numbers\.|operator\.index|isinstance\(.*\bbool")
    hits = [
        (path.name, line.strip())
        for path in sorted(package.rglob("*.py"))
        if path.name not in ("states.py", "rng.py")
        for line in path.read_text().splitlines()
        if pattern.search(line)
    ]
    assert hits == []
