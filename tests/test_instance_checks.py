"""Validate once: one instance check per procedure, shared by its sampler-side
builder and its exact oracle, and one trusted construction path for values
the package builds from already checked data.

The table below feeds each procedure's builder and exact oracle the same bad
input; both must reject it with ValueError.  The trusted-path tests make the
value types' checks fail loudly and show that the package's own constructions
never reach them, while still storing read-only complex128 arrays.
"""

import re

import numpy as np
import pytest

from seqmeas import (
    DensityOperator,
    FunctionTable,
    HermitianOperator,
    NaimarkForm,
    PermutationAction,
    PureState,
    RegisterShape,
    TwoOutcomeMeasurement,
    UnitarySet,
    analytic_eigen_accept,
    anti_zeno_sequence,
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
    qft_matrix,
    reject_path,
    sequential_iteration_count,
    state_membership_test,
    trial_rng,
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
from seqmeas.quantum_or import mw_accept_polynomial
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


# every count rule, as a function of its count n (measurements, or witness
# dimension for de-Merlinization)
COUNT_RULES = {
    "or_round_count": lambda n: or_round_count(n, 0),
    "demerlinize_round_count": lambda n: demerlinize_round_count(n, 0.5),
    "sequential_iteration_count": lambda n: sequential_iteration_count(n, 0.5),
}


@pytest.mark.parametrize("n", [-2, -1, 0, 2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("rule", sorted(COUNT_RULES))
def test_count_rules_refuse_counts_that_are_not_integers_at_least_one(rule, n):
    """or_round_count(-1, 0) once returned -1, (0, 0) returned 0 and
    (2.5, 0) returned 3; demerlinize_round_count(0, 0.5) and
    sequential_iteration_count(-2, 0.5) returned 0.  Each count goes through
    the amplification round-count check."""
    with pytest.raises(ValueError, match="round count"):
        COUNT_RULES[rule](n)


@pytest.mark.parametrize("rule", sorted(COUNT_RULES))
def test_count_rules_take_integer_counts(rule):
    assert COUNT_RULES[rule](np.int64(3)) == COUNT_RULES[rule](3) >= 3
    assert COUNT_RULES[rule](1) >= 1


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
