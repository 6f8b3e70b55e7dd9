"""Application testers: function isomorphism, eigenvector circuits, membership,
channel-state tests, productness and genuine entanglement."""

import dataclasses
import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqmeas import (
    AveragedInstance,
    FunctionTable,
    PermutationAction,
    PureState,
    RegisterShape,
    TensorPowerInstance,
    UnitarySet,
    analytic_eigen_accept,
    basis_state,
    bell_pair,
    choi_state,
    choi_vector,
    cut_product_accept,
    cut_product_test,
    eigendecompose,
    eigen_copies,
    eigen_instance,
    eigen_measurement_cycle,
    eigen_or_accept_exact,
    eigen_test,
    eigen_tester_state,
    function_state,
    g_iso_accept_exact,
    g_iso_test,
    genuine_ent_accept_exact,
    genuine_ent_copies,
    genuine_ent_instance,
    genuine_ent_test,
    ghz_state,
    hs_distance,
    hs_inner,
    membership_accept_exact,
    membership_copies,
    membership_instance,
    mw_accept_exact,
    pair_state,
    plus_state,
    product_state,
    proper_cuts,
    sample_blocks,
    state_membership_test,
    subsystem_purity,
    trial_blocks,
    trial_rng,
    unitary_s_iso_accept_exact,
    unitary_s_iso_test,
    unitary_set_test,
)
from seqmeas import testers as testers_module
from seqmeas import gates as gates_module
from seqmeas import quantum_or as quantum_or_module
from seqmeas.gates import HADAMARD, PAULI_X, PAULI_Z, GateSpec, _apply_gate_array
from seqmeas.measurement import measure_register_collapse
from seqmeas.quantum_or import (
    _path_accept,
    _tensor_power_applier,
    mw_accept_from_spectrum,
    mw_accept_polynomial,
    mw_halting_law,
    or_round_count,
)
from seqmeas.testers import (
    CASE2_BUDGET,
    MAX_DENSE_DIM,
    MAX_GENUINE_DRAWS,
    MAX_GENUINE_PARTIES,
    MAX_VECTOR_DIM,
    PATTERN_ATOL,
    _copies_state,
    _eigen_builder,
    _eigen_measure,
    _elementwise_power,
    _eigen_layout,
    _genuine_measure,
    _interference_frames,
    _joint_bits,
    _least_copies,
    _membership_law,
    _noncommuting_pair,
    _pair_swap_projectors,
    _sign_pattern_weights,
    and_power_distribution,
    averaged_and_measure,
    block_reflection,
    conjugation_unitary,
    joint_projector_bits,
    pair_swap_unitary,
    per_candidate_accept,
    swap_overlap_two_copies,
)
from seqmeas.gates import permutation_matrix
from seqmeas.sampling import random_pure_state, random_unitary
from seqmeas.states import _trusted
from test_gates import dense_gate_reference

QUBIT = RegisterShape((2,))


def interference_applier(unitaries, copies_k):
    """The interference family's vector applier: the tensor-power applier
    on the frames [I; U_i^dag]/sqrt2."""
    return _tensor_power_applier(_interference_frames(unitaries), copies_k)


def matvec_accept(unitaries, psi, copies_k, n_rounds):
    """``_path_accept`` on the family's sampler instance, read at
    `n_rounds` rounds."""
    inst = _eigen_builder(UnitarySet(unitaries), psi, copies_k)
    return _path_accept(dataclasses.replace(inst, n_rounds=n_rounds))


def loop_accept(unitaries, psi, copies_k):
    """The independent reference of the non-commuting oracle: the (I - L)^N
    loop ``mw_accept_polynomial`` on the family applier and factor^{(x)k},
    N the family size."""
    inst = _eigen_builder(UnitarySet(unitaries), psi, copies_k)
    vector = product_state([inst.factor] * copies_k).amplitudes
    return mw_accept_polynomial(_tensor_power_applier(inst.frames, copies_k), vector, inst.n_rounds)


BIT_SWAP = PermutationAction((0, 2, 1, 3))
DESK_GROUP = (PermutationAction.identity(4), BIT_SWAP)
F_ISO = FunctionTable(4, 2, (0, 1, 0, 1))
G_ISO = F_ISO.compose(BIT_SWAP)
F_FAR = FunctionTable(4, 2, (0, 0, 1, 1))
G_FAR = FunctionTable(4, 2, (0, 1, 1, 0))


# Pinned least k of the three copy rules: (n, eps) -> (eigen, membership, genuine-ent).
COPY_RULE_GRID = {
    (1, 0.1): (68, 345, 1384),
    (1, 0.5): (13, 13, 52),
    (1, 1.0): (5, 1, 10),
    (3, 0.1): (89, 455, 1822),
    (3, 0.5): (16, 16, 70),
    (3, 1.0): (7, 1, 14),
    (7, 0.1): (106, 539, 2160),
    (7, 0.5): (19, 19, 82),
    (7, 1.0): (8, 1, 16),
}


def w_state(n):
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << q for q in range(n)]] = 1.0 / math.sqrt(n)
    return PureState(RegisterShape((2,) * n), amps)


def genuine_ent_cases():
    """Random states on mixed shapes, GHZ, W, product across a cut and fully product."""
    rng = trial_rng(47, 0)
    shapes = ((2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2))
    cases = [random_pure_state(rng, RegisterShape(dims)) for dims in shapes]
    cases += [ghz_state(n) for n in (2, 3, 4)] + [w_state(3), w_state(4)]
    cases.append(  # product across {0} | {1, 2}
        product_state([random_pure_state(rng, QUBIT), random_pure_state(rng, RegisterShape((3, 2)))])
    )
    cases.append(  # product across {0, 1} | {2, 3}
        product_state(
            [random_pure_state(rng, RegisterShape((3, 2))), random_pure_state(rng, RegisterShape((2, 2)))]
        )
    )
    cases.append(product_state([random_pure_state(rng, RegisterShape((d,))) for d in (3, 2, 2, 2)]))
    return cases


def dense_genuine_ent_accept(psi, copies):
    """The dense route: per-cut two-copy swap projectors, their joint
    eigenbasis bits and the AND distribution over the k/2 pairs."""
    cuts = proper_cuts(psi.shape.num_registers)
    pair = np.kron(psi.amplitudes, psi.amplitudes)
    atoms = joint_projector_bits(_pair_swap_projectors(psi, cuts), pair)
    out = []
    for k in copies:
        evals, weights = averaged_and_measure(atoms, len(cuts), k // 2)
        out.append(mw_accept_from_spectrum(evals, weights, or_round_count(len(cuts), 0)))
    return out


def _eigen_forward_gates(psi_shape, unitary, copies_k):
    """The interference circuit V = C W as gates: controlled-U and a
    Hadamard on each (control, psi) copy, then a flag flip controlled on
    every control register being 0."""
    r = psi_shape.num_registers
    _, flag, controls = _eigen_layout(psi_shape, copies_k)
    gates = []
    for b in range(copies_k):
        targets = tuple(range(b * (r + 1) + 1, b * (r + 1) + 1 + r))
        gates.append(GateSpec(targets, unitary, controls=((controls[b], 1),)))
    for c in controls:
        gates.append(GateSpec((c,), HADAMARD))
    gates.append(GateSpec((flag,), PAULI_X, controls=tuple((c, 0) for c in controls)))
    return gates


def gate_route_cycle(state, unitary, psi_shape, copies_k, *, branch=None, rng=None):
    """The measurement cycle through the gate circuit: V gate by gate, the
    flag register collapsed, then V^dag: the reference for the factored
    eigen_measurement_cycle."""
    dims, flag, _ = _eigen_layout(psi_shape, copies_k)
    gates = _eigen_forward_gates(psi_shape, unitary, copies_k)
    amps = state.amplitudes
    for g in gates:
        amps = _apply_gate_array(amps, dims, g)
    outcome, prob, collapsed = measure_register_collapse(
        PureState(state.shape, amps), flag, branch=branch, rng=rng
    )
    amps = collapsed.amplitudes
    for g in reversed(gates):
        amps = _apply_gate_array(amps, dims, g.inverse())
    return outcome, prob, PureState(state.shape, amps)


def gate_route_applier(psi_shape, unitary, copies_k):
    """The accept projector V^dag (flag=1) V applied through the gate circuit,
    gate by gate: the reference for the factored applier of eigen_test."""
    dims, flag, _ = _eigen_layout(psi_shape, copies_k)
    gates = _eigen_forward_gates(psi_shape, unitary, copies_k)

    def apply(vec):
        out = vec
        for g in gates:
            out = _apply_gate_array(out, dims, g)
        t = np.moveaxis(out.reshape(dims), flag, -1).copy()
        t[..., 0] = 0.0
        out = np.moveaxis(t, -1, flag).reshape(-1)
        for g in reversed(gates):
            out = _apply_gate_array(out, dims, g.inverse())
        return out

    return apply


def eigen_measurement_projector(unitary, psi_shape, copies_k):
    """Dense accept projector of the interference measurement (small sizes only)."""
    r = block_reflection(unitary)
    b = reduce(np.kron, [r] * copies_k)
    dim = b.shape[0] * 2
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense projector dim {dim} exceeds cap {MAX_DENSE_DIM}")
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    return np.kron(b, p0) + np.kron(np.eye(b.shape[0]) - b, p1)


def pair_swap_gates(sigma):
    """pair_swap_unitary as a flag flip plus two controlled label permutations."""
    u_sigma = permutation_matrix(sigma)
    u_sigma_inv = permutation_matrix(sigma.inverse())
    return [
        GateSpec((0,), PAULI_X),
        GateSpec((1,), u_sigma_inv, controls=((0, 1),)),
        GateSpec((1,), u_sigma, controls=((0, 0),)),
    ]


def dense_eigen_spectrum(mats, psi, copies_k):
    """The dense route of eigen_or_accept_exact before the polynomial form:
    the flag-0 block's averaged operator as a mean of Kronecker powers of
    the block reflections, and its spectral measure seen from the tester
    state, for mw_accept_from_spectrum."""
    reflections = [block_reflection(u) for u in mats]
    base = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), psi.amplitudes)
    assert base.size**copies_k <= MAX_DENSE_DIM
    lam = sum(reduce(np.kron, [r] * copies_k) for r in reflections) / len(mats)
    vec = reduce(np.kron, [base] * copies_k)
    dec = eigendecompose(lam)
    weights = np.abs(dec.eigenvectors.conj().T @ vec) ** 2
    return dec.eigenvalues, weights


def dense_eigen_or_accept(mats, psi, copies_k, n_rounds):
    return mw_accept_from_spectrum(*dense_eigen_spectrum(mats, psi, copies_k), n_rounds)


def z_string(bits, n_qubits):
    """The Pauli-Z string with Z on the qubits set in `bits` (first qubit = top bit)."""
    return np.diag([(-1.0) ** bin(bits & x).count("1") for x in range(1 << n_qubits)])


def noncommuting_family(rng, dim, size=3):
    mats = [random_unitary(rng, dim) for _ in range(size)]
    assert _noncommuting_pair([block_reflection(u) for u in mats]) is not None
    return mats


def _reference_joint_bits(projectors, vector):
    """The earlier joint-bit route, kept as a reference: refine an orthonormal
    basis one projector at a time, one ``eigh`` per block, and weigh each
    final block by the squared norm of the vector's projection onto it."""
    d = vector.size
    blocks = [(np.eye(d, dtype=np.complex128), 0)]
    for idx, proj in enumerate(projectors):
        refined = []
        for basis, mask in blocks:
            m = basis.conj().T @ proj @ basis
            w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
            if ((w > 1e-6) & (w < 1 - 1e-6)).any():
                raise ValueError("non-idempotent restriction; input is not a projector family")
            ones = w > 0.5
            if (~ones).any():
                refined.append((basis @ v[:, ~ones], mask))
            if ones.any():
                refined.append((basis @ v[:, ones], mask | (1 << idx)))
        blocks = refined
    weights = {}
    for basis, mask in blocks:
        w = float(np.linalg.norm(basis.conj().T @ vector) ** 2)
        if w > PATTERN_ATOL:
            weights[mask] = weights.get(mask, 0.0) + w
    return sorted(weights.items())


def rotated_projector_family(rng, dim, n_bits):
    """n_bits commuting projectors V diag(bit i of mask_j) V^dag over a random
    unitary V and random masks: a family with no axis-aligned basis."""
    v = random_unitary(rng, dim)
    masks = rng.integers(0, 1 << n_bits, size=dim)
    return [(v * (masks >> i & 1)) @ v.conj().T for i in range(n_bits)]


def check_copy_rule(rule, column):
    for (n, eps), ks in COPY_RULE_GRID.items():
        assert rule(n, eps) == ks[column], (n, eps)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            rule(2, eps)


def reference_least_copies(n_measurements, base):
    """The copy rule as a step-by-step search for the least k."""
    k = 1
    while 4 * n_measurements * base**k > CASE2_BUDGET:
        k += 1
    return k


# Base 1/2 with n a power of two, and base 1/4 with n = 2, 8, 32, put
# 4 n base^k exactly on the budget at some k; the rest are generic, up to
# about 18000 copies.
COPY_RULE_BASES = (0.0, 0.25, 0.5, 0.75, 1 - 0.1 / 2, 1 - 0.1**2, 1 - 0.1**2 / 2, 0.999, 1 - 2.0**-10)


@pytest.mark.parametrize("base", COPY_RULE_BASES)
def test_copy_rule_closed_form_matches_search(base):
    for n in (1, 2, 3, 4, 7, 8, 16, 31, 32, 1000, 1 << 20):
        assert _least_copies(n, 0.5, base) == reference_least_copies(n, base), (n, base)
    with pytest.raises(ValueError, match="need at least one member"):
        _least_copies(0, 0.5, base)


def test_copy_rule_past_a_million_steps():
    """Rules far past the old step limit are finite and sit on the
    budget's edge: k fits, k - 1 does not."""
    for n, eps in ((2, 0.001), (3, 1e-4), (7, 1e-6)):
        base = 1 - eps**2
        k = membership_copies(n, eps)
        assert k > 10**6
        assert 4 * n * base**k <= CASE2_BUDGET < 4 * n * base ** (k - 1)
    with pytest.raises(ValueError, match="too small"):
        membership_copies(2, 1e-9)


def test_copy_rule_past_float_exact_counts():
    """Where the rule's k passes 2^53, floats cannot tell k from k + 1, so
    the rule refuses epsilon as too small; just under it, k still fits."""
    for eps in (1.05e-8, 1.5e-8, 2e-8):
        with pytest.raises(ValueError, match="too small"):
            membership_copies(2, eps)
    k = membership_copies(2, 3e-8)
    assert k < 1 << 53
    assert 4 * 2 * (1 - 3e-8**2) ** k <= CASE2_BUDGET


def test_copy_rules_evaluate_a_fraction_epsilon_as_its_float(monkeypatch):
    """An exact Fraction epsilon gives each rule's k at float(epsilon), the
    value the CLI passes, with no rational power: eigen_copies(3,
    Fraction(1, 10^5)) once took 12 s in rational arithmetic, and 1/10^7
    would have built integers of about 7 * 10^8 digits.  A too-small
    epsilon is still quoted as the caller gave it."""
    rng = np.random.default_rng(2033)
    denominators = rng.integers(1, 10**9, size=300)
    epsilons = [Fraction(1, 10**5), Fraction(1, 10**7), Fraction(1, 10**9)] + [
        Fraction(int(rng.integers(1, q + 1)), int(q)) for q in denominators
    ]
    rules = (eigen_copies, membership_copies, testers_module.unitary_s_iso_copies, genuine_ent_copies)
    expected = {}
    for rule in rules:
        for n in (1, 3):
            for eps in epsilons:
                try:
                    expected[rule, n, eps] = rule(n, float(eps))
                except ValueError:
                    expected[rule, n, eps] = None

    def no_rational_power(*args):
        raise AssertionError("a copy rule took a rational power")

    monkeypatch.setattr(Fraction, "__pow__", no_rational_power)
    assert eigen_copies(3, Fraction(1, 10**5)) == eigen_copies(3, 1e-5) == 912868
    for (rule, n, eps), k in expected.items():
        if k is None:
            with pytest.raises(ValueError, match=re.escape(f"epsilon {eps} is too small")):
                rule(n, eps)
        else:
            assert rule(n, eps) == k, (rule.__name__, n, eps)
    assert None in expected.values()


def test_rule_copy_counts_hit_the_vector_cap_at_once():
    """A tester run at the rule's k, billions of copies at small epsilon,
    fails on the vector cap before any power of that size is taken."""
    import time

    phi0, phi1 = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
    runs = (
        lambda: state_membership_test([phi0, phi1], phi0, 1e-5, trial_rng(0, 0)),
        lambda: genuine_ent_test(ghz_state(3), 3, 1e-3, trial_rng(0, 0)),
        lambda: genuine_ent_test(ghz_state(3), 3, 1e-5, trial_rng(0, 0)),
        lambda: eigen_test([np.eye(2)], phi0, 1e-5, trial_rng(0, 0)),
    )
    for run in runs:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the vector cap"):
            run()
        assert time.perf_counter() - start < 1.0


class ReachedSentinel(Exception):
    pass


def _sentinel(*args, **kwargs):
    raise ReachedSentinel


@pytest.mark.parametrize("codomain,refused", [(256, False), (257, True)])
def test_giso_pair_state_dense_cap(monkeypatch, codomain, refused):
    """The block reflections of the pair space are 4 |X| |Y| wide: 4112 >
    MAX_DENSE_DIM is refused before the pair state or any swap unitary is
    built (a codomain of 10^9 once asked for 59.6 GiB); 4096 itself goes on
    to build them."""
    monkeypatch.setattr(testers_module, "pair_state", _sentinel)
    f = FunctionTable(4, codomain, (0, 1, 0, codomain - 1))
    group = (PermutationAction.identity(4),)
    for call in (
        lambda: g_iso_accept_exact(f, f, group, 0.5, copies_k=2),
        lambda: g_iso_test(f, f, group, 0.5, trial_rng(0, 0), copies_k=2),
    ):
        if refused:
            message = (
                f"pair state dim 2 * 4 * {codomain} needs block reflections of dim 2 * {8 * codomain}, "
                f"past the dense cap {MAX_DENSE_DIM}"
            )
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        else:
            with pytest.raises(ReachedSentinel):
                call()


@pytest.mark.parametrize("dim,refused", [(6, False), (7, True)])
def test_uiso_conjugation_dense_cap(monkeypatch, dim, refused):
    """The block reflections of the conjugation unitaries are 2 d^4 wide:
    4802 > MAX_DENSE_DIM at d = 7 is refused before |V>|W> or any
    conjugation unitary is built; d = 6, 2592, goes on to build them."""
    monkeypatch.setattr(testers_module, "conjugation_unitary", _sentinel)
    monkeypatch.setattr(testers_module, "choi_state", _sentinel)
    u = random_unitary(trial_rng(0, dim), dim)
    s_set = UnitarySet((u,))
    for call in (
        lambda: unitary_s_iso_accept_exact(s_set, u, u, 0.5, copies_k=2),
        lambda: unitary_s_iso_test(s_set, u, u, 0.5, trial_rng(0, 0), copies_k=2),
    ):
        if refused:
            message = f"conjugation unitary dim 7^4 needs block reflections of dim 2 * 2401, past the dense cap {MAX_DENSE_DIM}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        else:
            with pytest.raises(ReachedSentinel):
                call()


@pytest.mark.parametrize("dim,refused", [(MAX_DENSE_DIM // 2, False), (MAX_DENSE_DIM // 2 + 1, True)])
def test_eigen_family_dense_cap(monkeypatch, dim, refused):
    """A caller's own family of d x d unitaries has 2d x 2d block
    reflections: d = 2049 is refused by ``eigen_or_accept_exact``, the
    sampler's builder and ``eigen_measurement_cycle`` before the family is
    even checked as unitary, let alone a reflection or frame built; d =
    2048 goes on to the unitarity check."""
    monkeypatch.setattr(testers_module, "is_unitary", _sentinel)
    monkeypatch.setattr(testers_module, "block_reflection", _sentinel)
    monkeypatch.setattr(testers_module, "_interference_frames", _sentinel)
    psi = basis_state(RegisterShape((dim,)), (0,))
    family = [np.eye(dim)]
    for call in (
        lambda: eigen_or_accept_exact(family, psi, 1),
        lambda: eigen_or_accept_exact(family, psi, 1, method="joint"),
        lambda: eigen_instance(family, psi, 0.5, copies_k=1),
        lambda: eigen_test(family, psi, 0.5, trial_rng(0, 0), copies_k=1),
        lambda: eigen_measurement_cycle(psi, family[0], psi.shape, 1, branch=1),
    ):
        if refused:
            with pytest.raises(ValueError, match=re.escape(f"dim 2 * {dim}, past the dense cap {MAX_DENSE_DIM}")):
                call()
        else:
            with pytest.raises(ReachedSentinel):
                call()


# Loop-built references for the basis permutations that the testers take
# from gates.permutation_matrix; the entries must agree exactly.


def reference_pair_swap(sigma, n_y):
    n_x = sigma.size
    mat = np.zeros((2 * n_x * n_y,) * 2)
    for x in range(n_x):
        for y in range(n_y):
            mat[(n_x + sigma.inverse()(x)) * n_y + y, x * n_y + y] = 1.0
            mat[sigma(x) * n_y + y, (n_x + x) * n_y + y] = 1.0
    return mat


def reference_channel_swap(d):
    dd = d * d
    mat = np.zeros((dd * dd,) * 2)
    for a in range(dd):
        for b in range(dd):
            mat[b * dd + a, a * dd + b] = 1.0
    return mat


def reference_cut_swap(dims, cut):
    d = math.prod(dims)
    mat = np.zeros((d * d,) * 2)
    for a in range(d):
        for b in range(d):
            la, lb = list(np.unravel_index(a, dims)), list(np.unravel_index(b, dims))
            for c in cut:
                la[c], lb[c] = lb[c], la[c]
            mat[np.ravel_multi_index(la, dims) * d + np.ravel_multi_index(lb, dims), a * d + b] = 1.0
    return mat


def test_permutation_builders_match_loop_references():
    rng = trial_rng(53, 0)
    for n_x, n_y in ((2, 2), (3, 2), (4, 3)):
        sigma = PermutationAction(tuple(rng.permutation(n_x)))
        assert np.array_equal(pair_swap_unitary(sigma, n_y), reference_pair_swap(sigma, n_y))
    for d in (2, 3):
        u = random_unitary(rng, d)
        local = np.kron(np.kron(u, u.conj()), np.kron(u.conj().T, u.T))
        assert np.array_equal(conjugation_unitary(u), reference_channel_swap(d) @ local)
    for dims in ((2, 2), (2, 3, 2), (2, 2, 2, 2)):
        psi = random_pure_state(rng, RegisterShape(dims))
        cuts = proper_cuts(len(dims))
        for cut, proj in zip(cuts, _pair_swap_projectors(psi, cuts)):
            assert np.array_equal(proj, 0.5 * (np.eye(proj.shape[0]) + reference_cut_swap(dims, cut)))


def test_pair_swap_projectors_stay_real():
    """The dense swap projectors hold real entries, at half a complex
    matrix's memory."""
    psi = ghz_state(3)
    assert all(proj.dtype == np.float64 for proj in _pair_swap_projectors(psi, proper_cuts(3)))


class TestFunctionStates:
    def test_equal_functions(self):
        f = FunctionTable(4, 2, (0, 1, 1, 0))
        assert abs(function_state(f).overlap(function_state(f)) - 1.0) <= 1e-12

    def test_one_point_difference(self):
        f = FunctionTable(4, 2, (0, 1, 1, 0))
        g = FunctionTable(4, 2, (0, 1, 1, 1))
        assert abs(function_state(f).overlap(function_state(g)) - 0.75) <= 1e-12

    def test_disjoint_functions(self):
        f = FunctionTable(4, 2, (0, 0, 0, 0))
        g = FunctionTable(4, 2, (1, 1, 1, 1))
        assert abs(function_state(f).overlap(function_state(g))) <= 1e-12

    def test_overlap_equals_one_minus_distance_exhaustive(self):
        """<f|g> = 1 - d(f, g) over every pair with |X| <= 6, |Y| <= 3."""
        for nx, ny in ((2, 2), (3, 3), (4, 2), (6, 3)):
            tables = [
                FunctionTable(nx, ny, values)
                for values in itertools.product(range(ny), repeat=nx)
            ]
            states = np.stack([function_state(f).amplitudes for f in tables])
            overlaps = (states.conj() @ states.T).real
            values = np.array([f.values for f in tables])
            distances = (values[:, None, :] != values[None, :, :]).mean(axis=2)
            assert np.abs(overlaps - (1.0 - distances)).max() <= 1e-10

    def test_from_lines_round_trip(self):
        f = FunctionTable.from_lines(["0 1", "1 0", "2 1", "3 1"])
        assert f.values == (1, 0, 1, 1)
        assert f.codomain_size == 2

    def test_from_lines_rejects_gaps(self):
        with pytest.raises(ValueError):
            FunctionTable.from_lines(["0 1", "2 0"])


class TestPairSwapUnitary:
    def test_gate_decomposition_matches_dense(self):
        shape = RegisterShape((2, 4, 2))
        for sigma in (BIT_SWAP, PermutationAction((1, 2, 3, 0))):
            dense = pair_swap_unitary(sigma, 2)
            composed = np.eye(16, dtype=complex)
            for gate in pair_swap_gates(sigma):
                composed = dense_gate_reference(gate, shape.dims) @ composed
            np.testing.assert_allclose(composed, dense, atol=1e-12)

    def test_overlap_identity_exhaustive(self):
        """<psi|U'|psi> = 1 - d(f o sigma, g) over all (f, g, sigma), |X|=4, |Y|=2."""
        nx, ny = 4, 2
        tables = [FunctionTable(nx, ny, v) for v in itertools.product(range(ny), repeat=nx)]
        states = np.stack([function_state(f).amplitudes for f in tables])
        dim = states.shape[1]
        worst = 0.0
        for perm in itertools.permutations(range(nx)):
            sigma = PermutationAction(perm)
            u = pair_swap_unitary(sigma, ny)
            composed = np.stack(
                [function_state(f.compose(sigma)).amplitudes for f in tables]
            )
            for i in range(len(tables)):
                psi = np.zeros((len(tables), 2 * dim), dtype=np.complex128)
                psi[:, :dim] = states[i]
                psi[:, dim:] = states
                psi /= math.sqrt(2)
                vals = np.einsum("ij,ij->i", psi.conj(), psi @ u.T).real
                expected = (composed[i].conj() @ states.T).real
                worst = max(worst, np.abs(vals - expected).max())
        assert worst <= 1e-10

    def test_isomorphic_pair_is_fixed_point(self):
        psi = pair_state(F_ISO, G_ISO)
        u = pair_swap_unitary(BIT_SWAP, 2)
        np.testing.assert_allclose(u @ psi.amplitudes, psi.amplitudes, atol=1e-12)


class TestEigenCircuit:
    def test_identity_unitary_accepts_certainly(self):
        psi = random_pure_state(trial_rng(20, 0), QUBIT)
        phi = eigen_tester_state(psi, 3)
        _, prob, _ = eigen_measurement_cycle(phi, np.eye(2), psi.shape, 3, branch=1)
        assert abs(prob - 1.0) <= 1e-10

    def test_pauli_z_on_plus_two_copies(self):
        plus = PureState(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(analytic_eigen_accept(PAULI_Z, plus, 2) - 0.25) <= 1e-12

    def test_pauli_x_on_plus(self):
        plus = PureState(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(analytic_eigen_accept(PAULI_X, plus, 3) - 1.0) <= 1e-12

    def test_circuit_matches_analytic(self):
        for k in range(1, 7):
            rng = trial_rng(21, k)
            psi = random_pure_state(rng, QUBIT)
            u = random_unitary(rng, 2)
            phi = eigen_tester_state(psi, k)
            _, prob, _ = eigen_measurement_cycle(phi, u, psi.shape, k, branch=1)
            assert abs(prob - analytic_eigen_accept(u, psi, k)) <= 1e-9

    def test_far_case_decay(self):
        """Acceptance <= (1 - eps/2)^k when |<psi|U|psi>| <= 1 - eps."""
        rng = trial_rng(22, 0)
        psi = random_pure_state(rng, QUBIT)
        for k in range(1, 9):
            u = random_unitary(rng, 2)
            overlap = abs(np.vdot(psi.amplitudes, u @ psi.amplitudes))
            eps = 1.0 - overlap
            if eps <= 0:
                continue
            acc = analytic_eigen_accept(u, psi, k)
            assert acc <= (1 - eps / 2) ** k + 1e-12

    def test_dense_projector_matches_circuit(self):
        rng = trial_rng(23, 0)
        psi = random_pure_state(rng, QUBIT)
        u = random_unitary(rng, 2)
        k = 2
        p = eigen_measurement_projector(u, psi.shape, k)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        phi = eigen_tester_state(psi, k)
        dense_prob = np.vdot(phi.amplitudes, p @ phi.amplitudes).real
        _, circuit_prob, _ = eigen_measurement_cycle(phi, u, psi.shape, k, branch=1)
        assert abs(dense_prob - circuit_prob) <= 1e-10

    def test_measurement_cycle_restores_layout(self):
        """After inversion the residual lives back in the original layout:
        accepting twice in a row on an eigenstate keeps probability 1."""
        psi = basis_state(QUBIT, (0,))
        phi = eigen_tester_state(psi, 2)
        u = np.diag([1.0, -1.0])  # psi is a +1 eigenvector
        _, p1, state = eigen_measurement_cycle(phi, u, psi.shape, 2, branch=1)
        _, p2, _ = eigen_measurement_cycle(state, u, psi.shape, 2, branch=1)
        assert abs(p1 - 1.0) <= 1e-10 and abs(p2 - 1.0) <= 1e-10

    def test_copy_rule(self):
        assert eigen_copies(2, 0.5) == 15  # least k with 8 (3/4)^k <= 1/8
        assert 4 * 2 * 0.75**15 <= 1 / 8
        assert 4 * 2 * 0.75**14 > 1 / 8
        check_copy_rule(eigen_copies, 0)


class TestFactoredMeasurementCycle:
    """eigen_measurement_cycle on the factored projector against the gate
    circuit with its flag register collapsed (``gate_route_cycle``)."""

    @staticmethod
    def layout_states(psi, copies_k, rng):
        """The tester state and random layout vectors weighted on both flag blocks."""
        layout = RegisterShape(_eigen_layout(psi.shape, copies_k)[0])
        states = [eigen_tester_state(psi, copies_k)]
        for _ in range(2):
            v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
            v /= np.linalg.norm(v)
            assert min(np.linalg.norm(v[0::2]), np.linalg.norm(v[1::2])) > 0.3
            states.append(PureState(layout, v))
        return states

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_matches_gate_route(self, dims, copies_k, branch):
        rng = trial_rng(55, 10 * len(dims) + copies_k + 100 * dims[-1])
        shape = RegisterShape(dims)
        psi = random_pure_state(rng, shape)
        u = random_unitary(rng, shape.total_dim)
        for state in self.layout_states(psi, copies_k, rng):
            outcome, prob, residual = eigen_measurement_cycle(state, u, shape, copies_k, branch=branch)
            ref_outcome, ref_prob, ref_residual = gate_route_cycle(state, u, shape, copies_k, branch=branch)
            assert outcome == ref_outcome == branch
            assert abs(prob - ref_prob) <= 1e-12
            assert residual.shape == state.shape
            np.testing.assert_allclose(residual.amplitudes, ref_residual.amplitudes, rtol=0, atol=1e-12)

    def test_rng_outcomes_match_gate_route(self):
        """A given generator draws the same outcome on both routes."""
        rng = trial_rng(56, 0)
        shape = RegisterShape((2, 2))
        psi = random_pure_state(rng, shape)
        u = random_unitary(rng, 4)
        assert 0.2 < analytic_eigen_accept(u, psi, 2) < 0.8
        phi = eigen_tester_state(psi, 2)
        outcomes = []
        for seed in range(1, 61):
            outcome, prob, _ = eigen_measurement_cycle(phi, u, shape, 2, rng=trial_rng(56, seed))
            ref_outcome, ref_prob, _ = gate_route_cycle(phi, u, shape, 2, rng=trial_rng(56, seed))
            assert outcome == ref_outcome and abs(prob - ref_prob) <= 1e-12
            outcomes.append(outcome)
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("dims, copies_k", [((2,), 1), ((3,), 2), ((2, 2), 2)])
    def test_residual_matches_stacked_rows(self, dims, copies_k):
        """Both branches' residuals, written row by row into one array, are
        bit-identical to interleaving the two flag rows with np.stack and
        dividing by the branch amplitude."""
        rng = trial_rng(91, 10 * len(dims) + copies_k + dims[0])
        shape = RegisterShape(dims)
        psi = random_pure_state(rng, shape)
        u = random_unitary(rng, shape.total_dim)
        full = rng.normal(size=2 * (2 * shape.total_dim) ** copies_k) * (1 + 0.5j)
        state = PureState(eigen_tester_state(psi, copies_k).shape, full / np.linalg.norm(full))
        x = state.amplitudes.reshape(-1, 2).T
        rx = interference_applier((u,), copies_k)(state.amplitudes).reshape(2, -1)
        branches = ((x[0] - rx[0], rx[1]), (rx[0], x[1] - rx[1]))
        for branch in (0, 1):
            _, prob, residual = eigen_measurement_cycle(state, u, shape, copies_k, branch=branch)
            stacked = np.stack(branches[branch], axis=1).reshape(-1) / math.sqrt(prob)
            assert np.array_equal(residual.amplitudes, stacked)

    @staticmethod
    def two_qubit_case():
        psi = random_pure_state(trial_rng(57, 0), RegisterShape((2, 2)))
        return psi, eigen_tester_state(psi, 1), random_unitary(trial_rng(57, 1), 4)

    def test_rejects_non_unitary(self):
        psi, phi, _ = self.two_qubit_case()
        with pytest.raises(ValueError, match="unitary"):
            eigen_measurement_cycle(phi, np.diag([1.0, 2.0, 1.0, 1.0]), psi.shape, 1, branch=1)

    def test_rejects_unitary_whose_size_divides_the_state(self):
        """A 2x2 U on a (2, 2) psi would reshape silently in the applier."""
        psi, phi, _ = self.two_qubit_case()
        with pytest.raises(ValueError, match="dimension"):
            eigen_measurement_cycle(phi, PAULI_X, psi.shape, 1, branch=1)

    def test_rejects_wrong_layout(self):
        psi, phi, u = self.two_qubit_case()
        same_size = PureState(RegisterShape((4, 4)), phi.amplitudes)
        for state, k in ((same_size, 1), (phi, 2)):
            with pytest.raises(ValueError, match="layout"):
                eigen_measurement_cycle(state, u, psi.shape, k, branch=1)

    def test_branch_or_rng_exactly_one(self):
        psi, phi, u = self.two_qubit_case()
        with pytest.raises(ValueError, match="exactly one"):
            eigen_measurement_cycle(phi, u, psi.shape, 1)
        with pytest.raises(ValueError, match="exactly one"):
            eigen_measurement_cycle(phi, u, psi.shape, 1, branch=1, rng=trial_rng(57, 2))

    def test_rejects_branch_out_of_range(self):
        psi, phi, u = self.two_qubit_case()
        with pytest.raises(ValueError, match="out of range"):
            eigen_measurement_cycle(phi, u, psi.shape, 1, branch=2)

    def test_rejects_zero_probability_branch(self):
        """The identity fixes every psi, so the reject branch is empty."""
        psi, phi, _ = self.two_qubit_case()
        with pytest.raises(ValueError, match="probability"):
            eigen_measurement_cycle(phi, np.eye(4), psi.shape, 1, branch=0)

    def test_tester_state_vector_cap(self, monkeypatch):
        """2 (2d)^k amplitudes past the cap fail before any state is built."""

        def no_state(*args, **kwargs):
            raise AssertionError("product_state reached")

        monkeypatch.setattr(testers_module, "product_state", no_state)
        qubit = basis_state(QUBIT, (0,))
        with pytest.raises(ValueError, match="vector cap"):
            eigen_tester_state(qubit, 10)  # 2 * 4^10 = 2^21 amplitudes
        with pytest.raises(ValueError, match="vector cap"):
            eigen_tester_state(basis_state(RegisterShape((16,)), (0,)), 5)
        with pytest.raises(AssertionError, match="reached"):
            eigen_tester_state(qubit, 9)  # 2^19 amplitudes, under the cap


class TestFactoredEigenApplier:
    """The flag-free applier of eigen_test against the gate circuit, whose
    flag qubit is the fastest index of the tester space."""

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    def test_matches_gate_route(self, dims, copies_k):
        """On vectors with weight on both flag blocks, the gate route's
        flag-0 output is the applier applied to the flag-0 input."""
        rng = trial_rng(48, 10 * len(dims) + copies_k)
        shape = RegisterShape(dims)
        u = random_unitary(rng, shape.total_dim)
        factored = interference_applier((u,), copies_k)
        reference = gate_route_applier(shape, u, copies_k)
        dim = (2 * shape.total_dim) ** copies_k
        full = rng.normal(size=(3, 2 * dim)) + 1j * rng.normal(size=(3, 2 * dim))
        full /= np.linalg.norm(full, axis=1)[:, None]
        for v in full:
            assert min(np.linalg.norm(v[0::2]), np.linalg.norm(v[1::2])) > 0.3
            np.testing.assert_allclose(factored(v[0::2]), reference(v)[0::2], rtol=0, atol=1e-12)
        xs = [v[0::2] / np.linalg.norm(v[0::2]) for v in full]
        for x in xs:
            lx = factored(x)
            np.testing.assert_allclose(factored(lx), lx, rtol=0, atol=1e-12)
            for y in xs:
                assert abs(np.vdot(x, factored(y)) - np.vdot(lx, y)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    def test_gate_route_keeps_flag_zero_input_in_its_block(self, dims, copies_k):
        """The flag-1 output of the gate route is exactly 0 on flag-0 input:
        the projector is block-diagonal in the flag, which is what lets the
        sampler drop the flag qubit."""
        rng = trial_rng(53, 10 * len(dims) + copies_k)
        shape = RegisterShape(dims)
        reference = gate_route_applier(shape, random_unitary(rng, shape.total_dim), copies_k)
        dim = (2 * shape.total_dim) ** copies_k
        for _ in range(3):
            full = np.zeros(2 * dim, dtype=np.complex128)
            full[0::2] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            out = reference(full)
            assert np.count_nonzero(out[1::2]) == 0
            assert np.linalg.norm(out[0::2]) > 1e-3


def _members_param(name, values, members):
    """`name` crossed with a family size n, for parametrize: n = 1 keeps the
    bare id of `name`'s value, a larger n appends ``-n<size>``."""
    cases = [(v, n) for n in members for v in values]
    ids = [f"{v}" if n == 1 else f"{v}-n{n}" for v, n in cases]
    return pytest.mark.parametrize(f"{name}, n_members", cases, ids=ids)


def dense_family_mean_apply(unitaries, copies_k, columns):
    """(1/n) sum_i B_i @ columns, B_i the dense k-fold kron of
    block_reflection(U_i), each B_i built, applied and dropped in turn."""
    total = sum(reduce(np.kron, [block_reflection(u)] * copies_k) @ columns for u in unitaries)
    return total / len(unitaries)


class TestRankFactorApplier:
    """The family applier against the mean of the dense k-fold krons of
    block_reflection, on inputs with trailing axes (the cycle's flag is one
    of size 2)."""

    @_members_param("d", [2, 3, 4], [1, 3])
    @pytest.mark.parametrize("copies_k", [1, 2, 3, 4])
    @pytest.mark.parametrize("trailing", [1, 2, 3])
    def test_matches_dense_kron(self, d, n_members, copies_k, trailing):
        """Axes (b_1, ..., b_k, f) in, (f, b_1, ..., b_k) out: the trailing
        axis leads, each of its slices mapped by (1/n) sum_i (x)_b R_i."""
        rng = trial_rng(92, 100 * d + 10 * copies_k + trailing)
        mats = [random_unitary(rng, d) for _ in range(n_members)]
        dim = (2 * d) ** copies_k
        vec = rng.normal(size=dim * trailing) + 1j * rng.normal(size=dim * trailing)
        out = interference_applier(mats, copies_k)(vec)
        expected = dense_family_mean_apply(mats, copies_k, vec.reshape(dim, trailing)).T.reshape(-1)
        assert out.shape == vec.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @_members_param("copies_k", [1, 3], [1, 3])
    def test_strided_input_left_untouched(self, copies_k, n_members):
        """A strided view (every other entry of a longer vector) is read
        correctly, and neither it nor its base is written to."""
        rng = trial_rng(93, copies_k)
        mats = [random_unitary(rng, 3) for _ in range(n_members)]
        dim = 6**copies_k
        base = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        before = base.copy()
        view = base[0::2]
        out = interference_applier(mats, copies_k)(view)
        expected = dense_family_mean_apply(mats, copies_k, before[0::2])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert np.array_equal(base, before)
        contiguous = before[0::2].copy()
        interference_applier(mats, copies_k)(contiguous)
        assert np.array_equal(contiguous, before[0::2])


def single_reflection_applier(unitary, copies_k):
    """The applier of one unitary as it was before the family applier, kept
    as the reference: x -> ((x)_b R) x, k down steps by 1/2 W^dag, one
    transpose, k up steps by W."""
    d = unitary.shape[0]
    eye = np.eye(d)
    down = 0.5 * np.vstack([eye, unitary.T])
    up = np.hstack([eye, unitary.conj()])
    system = d**copies_k

    def apply(vec):
        t = vec
        for _ in range(copies_k):
            t = t.reshape(2 * d, -1).T @ down
        t = t.reshape(-1, system).T
        for _ in range(copies_k):
            t = t.reshape(d, -1).T @ up
        return t.reshape(-1)

    return apply


class TestFamilyApplier:
    """The family applier against the mean of the single-unitary reference
    appliers under ``quantum_or._mean_applier``."""

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    @pytest.mark.parametrize("n_members", [1, 2, 3, 5])
    def test_matches_mean_of_members(self, dims, copies_k, n_members):
        """Trailing axes 1..3, each input a strided view that is read
        correctly and left unwritten, as is its base."""
        rng = trial_rng(95, 100 * n_members + 10 * copies_k + len(dims) + dims[-1])
        d = RegisterShape(dims).total_dim
        mats = [random_unitary(rng, d) for _ in range(n_members)]
        family = interference_applier(mats, copies_k)
        reference = quantum_or_module._mean_applier([single_reflection_applier(u, copies_k) for u in mats])
        for trailing in (1, 2, 3):
            size = (2 * d) ** copies_k * trailing
            base = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
            before = base.copy()
            out = family(base[0::2])
            assert out.shape == (size,)
            np.testing.assert_allclose(out, reference(before[0::2]), rtol=0, atol=1e-12)
            assert np.array_equal(base, before)

    @pytest.mark.parametrize("trailing", [1, 2])
    def test_members_grouped_under_the_vector_cap(self, monkeypatch, trailing):
        """Past MAX_VECTOR_DIM amplitudes of stack the members go a group at
        a time (two per stack at trailing 1, one at trailing 2): the result
        still matches the mean, and the memory one application allocates
        stops growing with n once there are three groups."""
        monkeypatch.setattr(quantum_or_module, "MAX_VECTOR_DIM", 1024)
        rng = trial_rng(97, trailing)
        size = 8**3 * 2 * trailing
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        peaks = {}
        for n_members in (1, 2, 3, 5, 12):
            mats = [random_unitary(rng, 4) for _ in range(n_members)]
            family = interference_applier(mats, 3)
            reference = quantum_or_module._mean_applier([single_reflection_applier(u, 3) for u in mats])
            np.testing.assert_allclose(family(vec), reference(vec), rtol=0, atol=1e-12)
            tracemalloc.start()
            family(vec)
            peaks[n_members] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[12] <= peaks[5] + vec.nbytes // 8, peaks


class TestClosedFormChecks:
    """The single-measurement closed forms refuse what their testers refuse."""

    @pytest.mark.parametrize("copies_k", [0, -1])
    def test_copy_count(self, copies_k):
        plus = plus_state()
        with pytest.raises(ValueError, match="at least one copy"):
            analytic_eigen_accept(PAULI_X, plus, copies_k)
        with pytest.raises(ValueError, match="at least one copy"):
            per_candidate_accept(plus, plus, copies_k)

    def test_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            analytic_eigen_accept(2 * PAULI_X, plus_state(), 1)

    def test_wrong_dimension(self):
        plus = plus_state()
        with pytest.raises(ValueError, match="dimension does not match"):
            analytic_eigen_accept(np.eye(3), plus, 1)
        with pytest.raises(ValueError, match="dimension does not match"):
            analytic_eigen_accept(PAULI_X, product_state([plus, plus]), 1)
        with pytest.raises(ValueError, match="register shapes"):
            per_candidate_accept(plus, product_state([plus, plus]), 1)


# (d, n, k) on both sides of the walk rule W^2 <= (2d)^k, each side also
# past MAX_DENSE_DIM: (4, 3, 6) and (4, 4, 5) walk words, (2, 5, 7) the vector
LOOP_CASES = [(2, 3, 5), (3, 3, 4), (4, 3, 6), (4, 4, 5), (2, 3, 3), (4, 3, 2), (3, 4, 3), (2, 5, 7)]


class TestMatvecOracle:
    """The non-commuting route of eigen_or_accept_exact, the mass the
    sampler's own walk halts, against the dense spectral reference, the
    (I - L)^N loop and, past the dense cap, the joint route."""

    def test_loop_cases_cover_both_walks(self):
        sides = {(_rule_holds(d, n, k), (2 * d) ** k > MAX_DENSE_DIM) for d, n, k in LOOP_CASES}
        assert sides == {(True, False), (True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("kind", ["random", "repeated", "fixed"])
    @pytest.mark.parametrize("dim,size,copies_k", LOOP_CASES)
    def test_matches_the_loop(self, dim, size, copies_k, kind):
        """Random families, one with a repeated member, and one whose first
        member fixes psi."""
        rng = trial_rng(60, 100 * dim + 10 * size + copies_k)
        psi = random_pure_state(rng, RegisterShape((dim,)))
        mats = noncommuting_family(rng, dim, size)
        if kind == "repeated":
            mats[-1] = mats[0]
        elif kind == "fixed":
            (mats[0],), fixed = _fixing_family(rng, dim, 1)
            psi = PureState(RegisterShape((dim,)), fixed)
            assert np.allclose(mats[0] @ fixed, fixed, rtol=0, atol=1e-12)
        assert _noncommuting_pair([block_reflection(u) for u in mats]) is not None
        exact = eigen_or_accept_exact(mats, psi, copies_k)
        assert abs(exact - loop_accept(mats, psi, copies_k)) <= 1e-12

    def test_word_route_builds_no_vector(self, monkeypatch):
        """At d = 4, n = 3, k = 6 the oracle walks the 22 reduced words: with
        the family applier and the k-copy state made to raise, it still
        returns the loop's value."""
        rng = trial_rng(61, 0)
        psi = random_pure_state(rng, RegisterShape((4,)))
        mats = noncommuting_family(rng, 4)
        assert _rule_holds(4, 3, 6)
        expected = loop_accept(mats, psi, 6)

        def no_vector(*args, **kwargs):
            raise AssertionError("the word route built a k-copy vector")

        monkeypatch.setattr(quantum_or_module, "_tensor_power_applier", no_vector)
        monkeypatch.setattr(quantum_or_module, "product_state", no_vector)
        assert abs(eigen_or_accept_exact(mats, psi, 6) - expected) <= 1e-12

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3)])
    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    def test_matches_dense_reference(self, dims, copies_k):
        rng = trial_rng(54, 10 * len(dims) + copies_k + 100 * dims[-1])
        shape = RegisterShape(dims)
        psi = random_pure_state(rng, shape)
        mats = noncommuting_family(rng, shape.total_dim)
        spectrum = dense_eigen_spectrum(mats, psi, copies_k)
        for rounds in (3, 7):
            dense = mw_accept_from_spectrum(*spectrum, rounds)
            assert abs(matvec_accept(mats, psi, copies_k, rounds) - dense) <= 1e-12
        dense = mw_accept_from_spectrum(*spectrum, len(mats))  # the default N = family size
        assert abs(eigen_or_accept_exact(mats, psi, copies_k) - dense) <= 1e-12

    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    def test_degenerate_family(self, copies_k):
        """A repeated member plus the identity: a repeated eigenvalue of the
        averaged operator and two equal appliers."""
        rng = trial_rng(55, copies_k)
        psi = random_pure_state(rng, RegisterShape((3,)))
        u = random_unitary(rng, 3)
        mats = [u, u, np.eye(3)]
        assert _noncommuting_pair([block_reflection(m) for m in mats]) is not None
        dense = dense_eigen_or_accept(mats, psi, copies_k, 3)
        assert abs(eigen_or_accept_exact(mats, psi, copies_k) - dense) <= 1e-12

    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    def test_common_fixed_vector_accepts_with_certainty(self, copies_k):
        """psi = V|0> is fixed by every V (1 (+) A_i) V^dag while the A_i do
        not commute, so the non-commuting route must give acceptance 1."""
        rng = trial_rng(56, copies_k)
        v = random_unitary(rng, 3)
        mats = []
        for _ in range(3):
            inner = np.eye(3, dtype=np.complex128)
            inner[1:, 1:] = random_unitary(rng, 2)
            mats.append(v @ inner @ v.conj().T)
        assert _noncommuting_pair([block_reflection(m) for m in mats]) is not None
        psi = PureState(RegisterShape((3,)), v[:, 0])
        exact = eigen_or_accept_exact(mats, psi, copies_k)
        assert abs(exact - 1.0) <= 1e-12
        assert abs(exact - dense_eigen_or_accept(mats, psi, copies_k, 3)) <= 1e-12

    def test_past_dense_cap_matches_joint_route(self):
        """{ZII, IZZ, ZZI} commute, so the joint route is exact; at k = 5 the
        flag-0 block has (2 * 8)^5 = 2^20 amplitudes, the vector cap itself."""
        mats = [z_string(bits, 3) for bits in (0b100, 0b011, 0b110)]
        psi = random_pure_state(trial_rng(57, 0), RegisterShape((2, 2, 2)))
        assert 16**5 == MAX_VECTOR_DIM > MAX_DENSE_DIM
        joint = eigen_or_accept_exact(mats, psi, 5, method="joint")
        assert 0.01 < joint < 0.99
        assert abs(matvec_accept(mats, psi, 5, 3) - joint) <= 1e-12

    def test_family_past_the_mask_space(self):
        """21 members have 2^21 masks, past the joint route's mask space:
        ``auto`` goes straight to the matvec route (before, it raised on the
        mask cap), while ``joint`` still refuses."""
        rng = trial_rng(58, 2)
        n = MAX_VECTOR_DIM.bit_length()
        assert n == 21
        mats = noncommuting_family(rng, 2, size=n)
        psi = random_pure_state(rng, QUBIT)
        auto = eigen_or_accept_exact(mats, psi, 2)
        assert 0.0 < auto <= 1.0
        assert auto == matvec_accept(mats, psi, 2, or_round_count(n, 0))
        with pytest.raises(ValueError, match=f"2\\^21 bitmasks exceed the vector cap {MAX_VECTOR_DIM}"):
            eigen_or_accept_exact(mats, psi, 2, method="joint")

    def test_over_cap_raises_before_any_vector(self, monkeypatch):
        rng = trial_rng(58, 0)
        psi = random_pure_state(rng, QUBIT)
        mats = noncommuting_family(rng, 2)
        copies_k = 11  # 4^11 = 2^22 amplitudes

        def no_vector(*args, **kwargs):
            raise AssertionError("a k-copy vector was built past the cap")

        monkeypatch.setattr(testers_module, "product_state", no_vector)
        monkeypatch.setattr(quantum_or_module, "product_state", no_vector)
        monkeypatch.setattr(testers_module, "_tensor_power_applier", no_vector)
        with pytest.raises(ValueError, match=f"vector cap {MAX_VECTOR_DIM}"):
            eigen_or_accept_exact(mats, psi, copies_k)
        with pytest.raises(ValueError, match=f"vector cap {MAX_VECTOR_DIM}"):
            eigen_test(mats, psi, 0.5, trial_rng(58, 1), copies_k=copies_k)

    def test_rejects_bad_family(self):
        rng = trial_rng(59, 0)
        qubit = random_pure_state(rng, QUBIT)
        two_qubits = random_pure_state(rng, RegisterShape((2, 2)))
        with pytest.raises(ValueError, match="unitary"):
            eigen_or_accept_exact([np.diag([1.0, 2.0]), PAULI_X], qubit, 2)
        with pytest.raises(ValueError, match="dimension"):
            eigen_or_accept_exact([np.eye(3)], qubit, 2)
        # a qubit family on a two-qubit state: the sizes divide, so the
        # factored appliers alone would reshape without complaint
        with pytest.raises(ValueError, match="dimension"):
            eigen_or_accept_exact(noncommuting_family(rng, 2), two_qubits, 2)
        with pytest.raises(ValueError, match="dimension"):
            eigen_or_accept_exact([PAULI_Z, np.eye(2)], two_qubits, 2, method="joint")
        with pytest.raises(ValueError, match="method"):
            eigen_or_accept_exact([PAULI_Z], qubit, 2, method="dense")


class TestJointBitOracle:
    def test_joint_bits_simple(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([1.0, 1.0])
        vec = np.array([1.0, 1.0]) / math.sqrt(2)
        atoms = dict(joint_projector_bits([p0, p1], vec))
        assert abs(atoms[0b11] - 0.5) <= 1e-12  # |0>: both accept
        assert abs(atoms[0b10] - 0.5) <= 1e-12  # |1>: only the identity accepts

    def test_noncommuting_rejected(self):
        p0 = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            joint_projector_bits([p0, plus], np.array([1.0, 0.0]))

    def test_and_distribution_two_factors(self):
        atoms = [(0b11, 0.5), (0b10, 0.5)]
        dist = and_power_distribution(atoms, 2, 2)
        # bit 1 always set; bit 0 set iff both factors chose 0b11
        assert abs(dist[0b11] - 0.25) <= 1e-12
        assert abs(dist[0b10] - 0.75) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n_bits=st.integers(0, 4), factors=st.integers(1, 3))
    def test_and_distribution_matches_enumeration(self, data, n_bits, factors):
        """The butterfly transform against the sum over all factor tuples,
        with atoms that always include mask 0 and the all-ones mask."""
        full = (1 << n_bits) - 1
        masks = data.draw(st.lists(st.integers(0, full), max_size=5)) + [0, full]
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
        atoms = [(m, w / sum(raw)) for m, w in zip(masks, raw)]
        brute = [0.0] * (full + 1)
        for combo in itertools.product(atoms, repeat=factors):
            brute[reduce(lambda a, b: a & b, (m for m, _ in combo), full)] += math.prod(
                w for _, w in combo
            )
        dist = and_power_distribution(atoms, n_bits, factors)
        assert set(dist) <= set(range(full + 1))
        for m in range(full + 1):
            assert abs(dist.get(m, 0.0) - brute[m]) <= 1e-12, m

    def test_oracle_matches_dense_on_commuting_instance(self):
        mats = [pair_swap_unitary(s, 2) for s in DESK_GROUP]
        psi = pair_state(F_FAR, G_FAR)
        for k in (1, 2):
            joint = eigen_or_accept_exact(mats, psi, k, method="joint")
            matvec = matvec_accept(mats, psi, k, len(mats))
            assert abs(joint - matvec) <= 1e-10

    def test_zero_sector_reduction_matches_full_space(self):
        """The flag-0 block reduction agrees with the dense oracle run on the
        complete tester space including the flag qubit."""
        rng = trial_rng(24, 0)
        psi = random_pure_state(rng, QUBIT)
        mats = [random_unitary(rng, 2) for _ in range(2)]
        k = 2
        reduced = matvec_accept(mats, psi, k, len(mats))
        lam = sum(eigen_measurement_projector(u, psi.shape, k) for u in mats) / 2
        phi = eigen_tester_state(psi, k)
        full = mw_accept_exact(lam, phi, 2)
        assert abs(reduced - full) <= 1e-10


def assert_matches_reference(projectors, vector):
    got = joint_projector_bits(projectors, vector)
    ref = _reference_joint_bits(projectors, vector)
    assert [m for m, _ in got] == [m for m, _ in ref]
    assert all(isinstance(m, int) and isinstance(w, float) for m, w in got)
    assert max(abs(a - b) for (_, a), (_, b) in zip(got, ref)) <= 1e-12


def flag_base(psi):
    """The flag-0 block vector of the interference oracle, |+> (x) psi."""
    return np.kron(np.array([1.0, 1.0]) / math.sqrt(2), psi.amplitudes)


class TestJointBitCertificate:
    """The one-``eigh`` joint-bit route (spectrum of sum 2^i P_i, certified by
    its eigenbasis) against the per-projector refinement it replaced."""

    def test_desk_tables_match_reference(self):
        reflections = [block_reflection(pair_swap_unitary(s, 2)) for s in DESK_GROUP]
        for pair in ((F_ISO, G_ISO), (F_FAR, G_FAR)):
            assert_matches_reference(reflections, flag_base(pair_state(*pair)))
        z_family = [block_reflection(z_string(bits, 3)) for bits in (0b100, 0b011, 0b110)]
        assert_matches_reference(z_family, flag_base(random_pure_state(trial_rng(57, 0), RegisterShape((2, 2, 2)))))

    def test_genuine_cut_projectors_match_reference(self):
        for psi in genuine_ent_cases():
            cuts = proper_cuts(psi.shape.num_registers)
            assert_matches_reference(_pair_swap_projectors(psi, cuts), np.kron(psi.amplitudes, psi.amplitudes))

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_and_identity_members(self, seed):
        """Repeated members and identity members leave some masks empty and
        make others carry several eigenvectors."""
        rng = trial_rng(60, seed)
        z = [z_string(int(b), 3) for b in rng.integers(1, 8, size=3)]
        family = [z[0], z[0], np.eye(8), z[1], z[2], np.eye(8), z[1]]
        psi = random_pure_state(rng, RegisterShape((2, 2, 2)))
        assert_matches_reference([block_reflection(u) for u in family], flag_base(psi))
        assert_matches_reference([0.5 * (np.eye(8) + u) for u in family], psi.amplitudes)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_z_strings_match_reference(self, seed):
        rng = trial_rng(61, seed)
        strings = [z_string(int(b), 5) for b in rng.integers(0, 32, size=12)]
        psi = random_pure_state(rng, RegisterShape((2,) * 5))
        assert_matches_reference([0.5 * (np.eye(32) + u) for u in strings], psi.amplitudes)
        psi4 = random_pure_state(rng, RegisterShape((2,) * 4))
        strings4 = [z_string(int(b), 4) for b in rng.integers(0, 16, size=12)]
        assert_matches_reference([block_reflection(u) for u in strings4], flag_base(psi4))

    def test_rotated_family_at_the_mask_cap(self):
        rng = trial_rng(62, 0)
        n_bits = MAX_VECTOR_DIM.bit_length() - 1
        family = rotated_projector_family(rng, 48, n_bits)
        assert_matches_reference(family, random_pure_state(rng, RegisterShape((48,))).amplitudes)

    @pytest.mark.parametrize(
        "family,message",
        [
            ([np.diag([2.0, -1.0]), np.eye(2)], "not a projector family"),
            ([np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2)], "not Hermitian"),
            ([np.array([[np.nan, 0.0], [0.0, 1.0]])], "not Hermitian"),
            ([np.diag([1e30, 0.0])], "not a projector family"),  # its mask is no int64
        ],
        ids=["not-idempotent", "not-hermitian", "nan", "huge"],
    )
    def test_non_projector_input_raises(self, family, message, monkeypatch):
        """Input the earlier route accepted with made-up atoms; the raw stack
        is refused before any ``eigh``, the non-projector by the certificate."""
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        with pytest.raises(ValueError, match=message):
            joint_projector_bits(family, np.array([1.0, 0.0]))
        assert len(calls) == (message == "not a projector family")

    def test_noncommuting_pair_named(self):
        p0 = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="projectors 0 and 2 do not commute"):
            joint_projector_bits([p0, np.eye(2), plus], np.array([1.0, 0.0]))
        assert _joint_bits([p0, np.eye(2), plus], np.array([1.0, 0.0])) is None

    def test_one_eigh_and_no_pair_search_on_success(self, monkeypatch):
        rng = trial_rng(63, 0)
        psi = random_pure_state(rng, RegisterShape((2, 2)))
        commuting = [z_string(b, 2) for b in (0b10, 0b01, 0b11)]
        noncommuting = noncommuting_family(rng, 4)
        reflections = [block_reflection(u) for u in commuting]
        eigh = np.linalg.eigh
        calls, pairs = [], []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        real_pair = testers_module._noncommuting_pair
        monkeypatch.setattr(testers_module, "_noncommuting_pair", lambda m: pairs.append(m) or real_pair(m))
        for route in (_joint_bits, joint_projector_bits):
            calls.clear()
            route(reflections, flag_base(psi))
            assert len(calls) == 1
        eigen_or_accept_exact(commuting, psi, 3)
        eigen_or_accept_exact(commuting, psi, 3, method="joint")
        eigen_or_accept_exact(noncommuting, psi, 2)
        assert pairs == []
        with pytest.raises(ValueError, match="do not commute"):
            eigen_or_accept_exact(noncommuting, psi, 2, method="joint")
        assert len(pairs) == 1

    def test_mask_cap_refused_before_allocation(self, monkeypatch):
        n_bits = MAX_VECTOR_DIM.bit_length()
        message = f"2\\^{n_bits} bitmasks exceed the vector cap {MAX_VECTOR_DIM}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                and_power_distribution([(0, 1.0)], n_bits, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 2^21 float mask array alone is 16 MiB

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran past the mask cap")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(ValueError, match=message):
            joint_projector_bits([np.eye(2)] * n_bits, np.array([1.0, 0.0]))

    def test_mask_space_at_the_cap_runs(self):
        n_bits = MAX_VECTOR_DIM.bit_length() - 1
        full = (1 << n_bits) - 1
        dist = and_power_distribution([(0, 0.25), (full, 0.75)], n_bits, 2)
        assert dist.keys() == {0, full}
        assert abs(dist[full] - 0.5625) <= 1e-12 and abs(dist[0] - 0.4375) <= 1e-12


def joint_route_reference(unitaries, psi, copies_k):
    """The joint route of ``eigen_or_accept_exact(..., method="joint")`` as it
    ran before it skipped ``hermitian_stack``: the block reflections of the
    checked family through :func:`joint_projector_bits`."""
    mats = UnitarySet(tuple(unitaries))
    base = np.kron(plus_state().amplitudes, psi.amplitudes)
    atoms = joint_projector_bits([block_reflection(u) for u in mats], base)
    measure = averaged_and_measure(atoms, len(mats), copies_k)
    return mw_accept_from_spectrum(*measure, or_round_count(len(mats), 0))


def commuting_tables():
    """(family, input) for the commuting families of this file: the desk
    swap group on the isomorphic and far pairs, {ZII, IZZ, ZZI} on a random
    three-qubit state, and the conjugations of {I, X} on |V>|V>."""
    rng = trial_rng(64, 0)
    swaps = [pair_swap_unitary(s, 2) for s in DESK_GROUP]
    v = random_unitary(rng, 2)
    return {
        "desk-iso": (swaps, pair_state(F_ISO, G_ISO)),
        "desk-far": (swaps, pair_state(F_FAR, G_FAR)),
        "z-strings": (
            [z_string(b, 3) for b in (0b100, 0b011, 0b110)],
            random_pure_state(rng, RegisterShape((2, 2, 2))),
        ),
        "conjugations": (
            [conjugation_unitary(u) for u in (np.eye(2), PAULI_X)],
            product_state([choi_state(v), choi_state(v)]),
        ),
    }


class TestJointRoute:
    """``method="joint"`` certifies the reflections it builds from a checked
    family without passing them through ``hermitian_stack`` again."""

    @pytest.mark.parametrize("copies_k", [1, 2, 3])
    @pytest.mark.parametrize("table", sorted(commuting_tables()))
    def test_matches_the_checked_route_bit_for_bit(self, table, copies_k, monkeypatch):
        mats, psi = commuting_tables()[table]
        expected = joint_route_reference(mats, psi, copies_k)
        calls = []
        real_stack = testers_module.hermitian_stack
        monkeypatch.setattr(testers_module, "hermitian_stack", lambda *a: calls.append(a) or real_stack(*a))
        assert eigen_or_accept_exact(mats, psi, copies_k, method="joint") == expected
        assert calls == []

    def test_keeps_both_errors(self):
        with pytest.raises(ValueError, match="projectors 0 and 1 do not commute"):
            eigen_or_accept_exact([PAULI_Z, PAULI_X], plus_state(), 2, method="joint")
        # 2I passed as trusted: its reflection 1/2 [[I, 2I], [2I, I]] is no projector
        not_unitary = _trusted(UnitarySet, (2.0 * np.eye(2),))
        with pytest.raises(ValueError, match="not a projector family"):
            eigen_or_accept_exact(not_unitary, plus_state(), 2, method="joint")


def _commuting_unitaries(rng, dim, size):
    """`size` unitaries V diag(+-1) V^dag sharing one random V: their block
    reflections commute (U_i U_j^dag is Hermitian), and their +1
    eigenspaces overlap at random."""
    v = random_unitary(rng, dim)
    return [(v * rng.choice([-1.0, 1.0], size=dim)) @ v.conj().T for _ in range(size)]


def assert_measure(measure, accept, n_rounds):
    evals, weights = (np.asarray(x) for x in measure)
    assert evals.shape == weights.shape
    assert np.all((evals >= 0.0) & (evals <= 1.0))
    assert np.all(weights >= 0.0) and math.fsum(weights) <= 1.0 + 1e-12
    assert accept == mw_accept_from_spectrum(*measure, n_rounds)


def _reference_membership_measure(candidates, psi, copies_k):
    """The Gram route the membership oracle once took: the spectral measure
    of L seen from psi^k, from the eigenpairs of the k-th-power Gram matrix
    over |P| (eigenvalues at most 1e-14 dropped, one rounded past 1
    clipped).  It leaves out the kernel of L, so its weights add up to the
    mass of psi^k in the span of the candidates' k-th powers."""
    n = len(candidates)
    amps = np.array([c.amplitudes for c in candidates])
    gram = _elementwise_power(amps.conj() @ amps.T, copies_k)
    t = _elementwise_power(amps.conj() @ psi.amplitudes, copies_k)
    dec = eigendecompose(gram / n)
    evals, weights = [], []
    for mu, coef in zip(dec.eigenvalues, dec.eigenvectors.T):
        if mu <= 1e-14:
            continue
        amp = np.dot(coef.conj(), t) / math.sqrt(n * mu)
        evals.append(min(float(mu), 1.0))
        weights.append(float(abs(amp) ** 2))
    return evals, weights


def assert_law_matches_reference(candidates, psi, copies_k):
    """The Gram-space walk's law against the reference measure, returned.

    Every halting entry lies within 1e-12 of ``mw_halting_law`` on the
    measure, and every partial sum up to N' <= N within 1e-12 of
    ``mw_accept_from_spectrum`` at N'.  The entries are >= 0 and add up to
    1 within 1e-12, the halting mass's excess past 1 from rounding in the
    inputs' norms (raised to the k-th power), which the rejection entry,
    clipped at 0, cannot take back.  The measure leaves out L's kernel, so
    its own last entry lacks the mass of psi^k outside the candidates' span.
    """
    law = _membership_law(candidates, psi, copies_k)
    measure = _reference_membership_measure(candidates, psi, copies_k)
    n_rounds = or_round_count(len(candidates), 0)
    assert law.shape == (2 * n_rounds + 1,)
    np.testing.assert_allclose(law[:-1], mw_halting_law(*measure, n_rounds)[:-1], rtol=0, atol=1e-12)
    for rounds in range(1, n_rounds + 1):
        assert abs(math.fsum(law[: 2 * rounds]) - mw_accept_from_spectrum(*measure, rounds)) <= 1e-12
    assert law.min() >= 0.0
    assert abs(math.fsum(law) - 1.0) <= 1e-12
    return law


class TestMeasureFunctions:
    """Each structured oracle is its measure function fed to
    ``mw_accept_from_spectrum``; the measures are sub-probability measures
    on [0, 1]."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 4), size=st.integers(1, 4), copies_k=st.integers(1, 3))
    def test_eigen_measure(self, seed, dim, size, copies_k):
        rng = trial_rng(seed, 0)
        mats = UnitarySet(tuple(_commuting_unitaries(rng, dim, size)))
        psi = random_pure_state(rng, RegisterShape((dim,)))
        measure = _eigen_measure(mats, psi, copies_k)
        assert measure is not None
        assert_measure(measure, eigen_or_accept_exact(mats, psi, copies_k), or_round_count(size, 0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 4), size=st.integers(1, 4), copies_k=st.integers(1, 4))
    def test_membership_measure(self, seed, dim, size, copies_k):
        """The membership oracle reads a law, not a measure: it is the fsum
        of that law's halting entries, and the law is the Gram measure's."""
        rng = trial_rng(seed, 0)
        shape = RegisterShape((dim,))
        candidates = [random_pure_state(rng, shape) for _ in range(size)]
        for psi in (random_pure_state(rng, shape), candidates[-1]):
            law = assert_law_matches_reference(candidates, psi, copies_k)
            exact = membership_accept_exact(candidates, psi, copies_k)
            assert exact == min(math.fsum(law[:-1]), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n_parts=st.integers(2, 4), pairs=st.integers(1, 3))
    def test_genuine_measure(self, seed, n_parts, pairs):
        rng = trial_rng(seed, 0)
        rest = random_pure_state(rng, RegisterShape((2,) * (n_parts - 1)))
        for psi in (random_pure_state(rng, RegisterShape((2,) * n_parts)), product_state([plus_state(), rest])):
            measure = _genuine_measure(psi, n_parts, 2 * pairs)
            exact = genuine_ent_accept_exact(psi, n_parts, 2 * pairs)
            assert_measure(measure, exact, or_round_count((1 << (n_parts - 1)) - 1, 0))


class TestGIso:
    def test_desk_distances(self):
        assert F_FAR.distance(G_FAR) == 0.5
        assert F_FAR.compose(BIT_SWAP).distance(G_FAR) == 0.5
        assert F_ISO.compose(BIT_SWAP).distance(G_ISO) == 0.0

    def test_isomorphic_accepts(self):
        exact = g_iso_accept_exact(F_ISO, G_ISO, DESK_GROUP, 0.5)
        assert exact >= 1.0 / 7.0

    def test_far_pair_rejected_at_rule_k(self):
        exact = g_iso_accept_exact(F_FAR, G_FAR, DESK_GROUP, 0.5)
        assert exact <= 1.0 / 8.0

    def test_identity_group_equal_functions(self):
        group = (PermutationAction.identity(4),)
        run = g_iso_test(F_ISO, F_ISO, group, 0.5, trial_rng(25, 0), copies_k=2)
        assert run.accepted

    def test_query_accounting(self):
        run = g_iso_test(F_ISO, G_ISO, DESK_GROUP, 0.5, trial_rng(26, 0), copies_k=3)
        assert run.copies_used == 3
        assert run.queries_f == 3 and run.queries_g == 3

    def test_sampled_statistics_small_k(self):
        k = 2
        exact = g_iso_accept_exact(F_ISO, G_ISO, DESK_GROUP, 0.5, copies_k=k)
        trials = 2000
        count = sum(
            g_iso_test(F_ISO, G_ISO, DESK_GROUP, 0.5, trial_rng(27, t), copies_k=k).accepted
            for t in range(trials)
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9


class TestMembership:
    def test_copy_rule(self):
        assert membership_copies(2, 0.5) == 15
        check_copy_rule(membership_copies, 1)

    def test_member_accepts(self):
        phi0, phi1 = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
        k = membership_copies(2, 0.5)
        assert membership_accept_exact([phi0, phi1], phi0, k) >= 1.0 / 7.0

    def test_member_sampled(self):
        phi0, phi1 = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
        assert state_membership_test([phi0, phi1], phi0, 0.5, trial_rng(28, 0), copies_k=4) in (
            True,
            False,
        )

    def test_far_state_rejected_at_rule_k(self):
        phi0, phi1 = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
        far = PureState(QUBIT, np.array([math.sqrt(3) / 2, 0.5]))
        k = membership_copies(2, 0.5)
        per = per_candidate_accept(phi0, far, k)
        assert abs(per - 0.75**k) <= 1e-10
        exact = membership_accept_exact([phi0, phi1], far, k)
        assert exact <= 4 * 2 * 0.75**k
        assert exact <= 1.0 / 8.0

    def test_gram_matches_dense_small_k(self):
        rng = trial_rng(29, 0)
        candidates = [random_pure_state(rng, QUBIT) for _ in range(3)]
        psi = random_pure_state(rng, QUBIT)
        k = 2
        lam = sum(
            np.outer(np.kron(c.amplitudes, c.amplitudes), np.kron(c.amplitudes, c.amplitudes).conj())
            for c in candidates
        ) / 3
        big = product_state([psi] * k)
        dense = mw_accept_exact(lam, big, 3)
        gram = membership_accept_exact(candidates, psi, k)
        assert abs(gram - dense) <= 1e-10

    def test_elementwise_power_matches_numpy(self):
        """Repeated squaring against numpy's complex power, on entries near
        the unit circle (as Gram entries are) so large k stays representable."""
        rng = trial_rng(60, 0)
        x = (1 - 1e-4 * rng.random((4, 5))) * np.exp(2j * math.pi * rng.random((4, 5)))
        for k in [*range(40), 1000, 99999, 100000]:
            np.testing.assert_allclose(_elementwise_power(x, k), x**k, rtol=1e-9, atol=0)

    def test_sampled_statistics(self):
        phi0, phi1 = basis_state(QUBIT, (0,)), basis_state(QUBIT, (1,))
        k = 3
        exact = membership_accept_exact([phi0, phi1], phi0, k)
        trials = 2000
        count = sum(
            state_membership_test([phi0, phi1], phi0, 0.5, trial_rng(30, t), copies_k=k)
            for t in range(trials)
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    def test_exact_rejects_shape_mismatch(self):
        rng = trial_rng(49, 0)
        psi = random_pure_state(rng, QUBIT)
        other = random_pure_state(rng, RegisterShape((3,)))
        with pytest.raises(ValueError):
            membership_accept_exact([psi, other], psi, 2)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            state_membership_test([], plus_state_local(), 0.5, trial_rng(0, 0))


def plus_state_local():
    return PureState(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))


def _fraction_law(candidates, psi, copies_k):
    """The walk of ``_membership_law`` in exact rationals, on real amplitude
    lists of Fractions."""
    n = len(candidates)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    m = [[dot(a, b) ** copies_k / n for b in candidates] for a in candidates]
    y = [dot(a, psi) ** copies_k for a in candidates]
    law = []
    for _ in range(n):
        z = [dot(row, y) for row in m]
        norm = dot(y, y)
        law += [norm / n, (norm - dot(y, z)) / n]
        y = [a - b for a, b in zip(y, z)]
    return law + [1 - sum(law)]


RATIONAL_PAIR = (Fraction(3, 5), Fraction(4, 5))
RATIONAL_TRIPLE = (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))


class TestMembershipLaw:
    """The oracle's Gram-space walk where its Gram matrix or its input is
    degenerate, at a large k, and against the same walk in rationals."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), case=st.sampled_from(["rank-deficient", "repeated", "single"]))
    def test_degenerate_gram(self, seed, case):
        rng = trial_rng(seed, 0)
        a, b = random_pure_state(rng, QUBIT), random_pure_state(rng, QUBIT)
        candidates, copies_k = {
            "rank-deficient": ([random_pure_state(rng, QUBIT) for _ in range(5)], 1),  # Gram rank 2
            "repeated": ([a, b, a], 2),
            "single": ([a], 3),
        }[case]
        for psi in (random_pure_state(rng, QUBIT), a):
            assert_law_matches_reference(candidates, psi, copies_k)

    def test_member_input(self):
        candidates = [random_pure_state(trial_rng(61, t), RegisterShape((3,))) for t in range(4)]
        k = membership_copies(4, 0.5)
        assert_law_matches_reference(candidates, candidates[1], k)
        assert membership_accept_exact(candidates, candidates[1], k) >= 1.0 / 7.0

    def test_orthogonal_input(self):
        shape = RegisterShape((3,))
        candidates = [basis_state(shape, (0,)), basis_state(shape, (1,))]
        psi = basis_state(shape, (2,))
        law = assert_law_matches_reference(candidates, psi, 2)
        assert law[-1] == 1.0
        assert membership_accept_exact(candidates, psi, 2) == 0.0

    def test_many_close_candidates_at_large_k(self):
        """320 candidates about 1/sqrt(k) from the input at k = 10^5, so the
        k-th-power Gram matrix is far from the identity."""
        rng, k, shape = trial_rng(62, 0), 10**5, RegisterShape((4,))
        base = random_pure_state(rng, shape).amplitudes
        steps = (rng.normal(size=(319, 4)) + 1j * rng.normal(size=(319, 4))) / math.sqrt(k)
        vectors = np.vstack([base, base + steps])
        candidates = [PureState(shape, v / np.linalg.norm(v)) for v in vectors]
        assert_law_matches_reference(candidates, candidates[0], k)
        assert membership_accept_exact(candidates, candidates[0], k) >= 1.0 / 7.0

    @pytest.mark.parametrize(
        "psi, indices",
        [
            (RATIONAL_PAIR, (0, 1)),
            (RATIONAL_PAIR, (1,)),
            (RATIONAL_PAIR, (0, 1, 0)),
            (RATIONAL_TRIPLE, (0, 1, 2)),
            (RATIONAL_TRIPLE, (2, 0)),
        ],
    )
    @pytest.mark.parametrize("copies_k", [1, 2, 5])
    def test_exact_rational_walk(self, psi, indices, copies_k):
        """Computational-basis candidates and a rational psi make M and t
        rational, so the float law is held to the exact walk."""
        d = len(psi)
        exact = _fraction_law([[Fraction(int(i == j)) for j in range(d)] for i in indices], psi, copies_k)
        shape = RegisterShape((d,))
        candidates = [basis_state(shape, (i,)) for i in indices]
        law = _membership_law(candidates, PureState(shape, np.array([float(x) for x in psi])), copies_k)
        assert len(law) == len(exact)
        for got, want in zip(law.tolist(), exact):
            assert abs(got - float(want)) <= 1e-15


class TestChoi:
    def test_distance_to_self(self):
        u = random_unitary(trial_rng(31, 0), 3)
        assert hs_distance(u, u) <= 1e-12

    def test_identity_vs_pauli_z(self):
        assert abs(hs_distance(np.eye(2), PAULI_Z) - 1.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)], ids=repr)
    def test_choi_vector_refuses_non_square_input(self, shape):
        """A 2 x 3 matrix once gave 6 amplitudes divided by sqrt(2)."""
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            choi_vector(np.ones(shape))

    @pytest.mark.parametrize("zero_side", ["a", "b"])
    def test_hs_distance_names_a_zero_norm_input(self, zero_side):
        """A zero matrix once raised ZeroDivisionError."""
        a, b = (np.zeros((2, 2)), np.eye(2)) if zero_side == "a" else (np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"hs_distance: {zero_side} has zero norm"):
            hs_distance(a, b)

    def test_inner_product_identity_random(self):
        for t in range(100):
            rng = trial_rng(32, t)
            d = int(rng.integers(2, 5))
            u, v = random_unitary(rng, d), random_unitary(rng, d)
            assert abs(choi_state(u).overlap(choi_state(v)) - hs_inner(u, v)) <= 1e-10

    def test_local_action_identity_random(self):
        for t in range(100):
            rng = trial_rng(33, t)
            d = int(rng.integers(2, 5))
            v = random_unitary(rng, d)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            lhs = np.kron(a, b) @ choi_vector(v)
            rhs = choi_vector(a @ v @ b.T)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_distance_equals_state_trace_distance(self):
        from seqmeas import trace_distance_pure

        rng = trial_rng(34, 0)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        assert abs(
            hs_distance(u, v) - trace_distance_pure(choi_state(u), choi_state(v))
        ) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            choi_state(np.diag([1.0, 2.0]))


class TestUnitarySetMembership:
    def test_member_accepts(self):
        s = UnitarySet((np.eye(2), PAULI_X))
        run = unitary_set_test(s, PAULI_X, 0.5, trial_rng(35, 0), copies_k=4)
        assert run.copies_used == 4 and run.oracle_uses == 4

    def test_far_unitary(self):
        assert hs_distance(np.eye(2), PAULI_Z) >= 1.0  # far case premise
        s = UnitarySet((np.eye(2),))
        k = membership_copies(1, 1.0)
        exact = membership_accept_exact([choi_state(np.eye(2))], choi_state(PAULI_Z), k)
        assert exact <= 1.0 / 8.0


class TestUnitarySIso:
    def test_conjugation_identity(self):
        rng = trial_rng(36, 0)
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        w = u @ v @ u.conj().T
        psi = product_state([choi_state(v), choi_state(w)])
        up = conjugation_unitary(u)
        overlap = np.vdot(psi.amplitudes, up @ psi.amplitudes)
        assert abs(overlap - 1.0) <= 1e-10

    def test_overlap_is_squared_hs_inner(self):
        rng = trial_rng(37, 0)
        u, v, w = (random_unitary(rng, 2) for _ in range(3))
        psi = product_state([choi_state(v), choi_state(w)])
        overlap = np.vdot(psi.amplitudes, conjugation_unitary(u) @ psi.amplitudes)
        expected = abs(hs_inner(u @ v @ u.conj().T, w)) ** 2
        assert abs(overlap - expected) <= 1e-10

    def test_conjugate_pair_accepts(self):
        s = UnitarySet((np.eye(2), PAULI_X))
        v = random_unitary(trial_rng(38, 0), 2)
        exact = unitary_s_iso_accept_exact(s, v, v, 1.0)
        assert exact >= 1.0 / 7.0

    def test_far_pair_rejected(self):
        s = UnitarySet((np.eye(2), PAULI_X))
        exact = unitary_s_iso_accept_exact(s, np.eye(2), PAULI_Z, 1.0)
        assert exact <= 1.0 / 8.0

    def test_equal_unitaries_with_identity_set(self):
        s = UnitarySet((np.eye(2),))
        v = random_unitary(trial_rng(39, 0), 2)
        assert unitary_s_iso_test(s, v, v, 1.0, trial_rng(39, 1), copies_k=2)


class TestCutProduct:
    def test_product_state_certain(self):
        psi = product_state([plus_state_local(), bell_pair()])
        assert abs(cut_product_accept(psi, (0,)) - 1.0) <= 1e-10
        assert cut_product_test(psi, (0,), trial_rng(40, 0))

    def test_bell_pair_three_quarters(self):
        assert abs(cut_product_accept(bell_pair(), (0,)) - 0.75) <= 1e-12

    def test_ghz_single_cuts(self):
        ghz = ghz_state(3)
        for cut in ((0,), (1,), (2,)):
            assert abs(cut_product_accept(ghz, cut) - 0.75) <= 1e-12

    def test_acceptance_equals_purity_form(self):
        for t in range(20):
            psi = random_pure_state(trial_rng(41, t), RegisterShape((2, 2, 2)))
            for cut in proper_cuts(3):
                via_swap = 0.5 * (1.0 + swap_overlap_two_copies(psi, cut))
                via_purity = 0.5 * (1.0 + subsystem_purity(psi, cut))
                assert abs(via_swap - via_purity) <= 1e-10

    def test_invalid_cut(self):
        with pytest.raises(ValueError):
            cut_product_test(bell_pair(), (0, 1), trial_rng(0, 0))


class TestGenuineEntanglement:
    def test_cut_enumeration(self):
        assert proper_cuts(3) == [(0,), (0, 1), (0, 2)]
        assert len(proper_cuts(4)) == 7

    def test_fully_product_accepts(self):
        psi = basis_state(RegisterShape((2, 2, 2)), (0, 0, 0))
        assert genuine_ent_test(psi, 3, math.sqrt(0.5), trial_rng(42, 0), copies_k=4)

    def test_product_across_one_cut_case1(self):
        psi = product_state([basis_state(QUBIT, (0,)), bell_pair()])
        k = genuine_ent_copies(3, math.sqrt(0.5))
        exact = genuine_ent_accept_exact(psi, 3, k)
        assert exact >= 1.0 / 7.0

    def test_copy_rule(self):
        assert genuine_ent_copies(3, math.sqrt(0.5)) == 32
        check_copy_rule(genuine_ent_copies, 2)

    def test_ghz_rejected_at_rule_k(self):
        k = genuine_ent_copies(3, math.sqrt(0.5))
        assert k == 32
        exact = genuine_ent_accept_exact(ghz_state(3), 3, k)
        per_cut = 0.75 ** (k // 2)
        assert exact <= 4 * 3 * per_cut + 1e-12
        assert exact <= 1.0 / 8.0

    def test_oracle_matches_dense_small_k(self):
        psi = random_pure_state(trial_rng(43, 0), RegisterShape((2, 2)))
        k = 2
        exact = genuine_ent_accept_exact(psi, 2, k)
        # dense route: single cut {0}; measurement = symmetriser on the pair
        d = psi.shape.total_dim
        swap = np.zeros((d * d, d * d))
        for a in range(d):
            for b in range(d):
                la, lb = divmod(a, 2), divmod(b, 2)
                a2 = lb[0] * 2 + la[1]
                b2 = la[0] * 2 + lb[1]
                swap[a2 * d + b2, a * d + b] = 1.0
        lam = 0.5 * (np.eye(d * d) + swap)
        big = product_state([psi] * k)
        dense = mw_accept_exact(lam, big, 1)
        assert abs(exact - dense) <= 1e-10

    def test_sampled_statistics_small_k(self):
        psi = product_state([basis_state(QUBIT, (0,)), bell_pair()])
        k = 4
        exact = genuine_ent_accept_exact(psi, 3, k)
        trials = 2000
        count = sum(
            genuine_ent_test(psi, 3, math.sqrt(0.5), trial_rng(44, t), copies_k=k)
            for t in range(trials)
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    def test_odd_copy_count_rejected(self):
        with pytest.raises(ValueError):
            genuine_ent_test(ghz_state(3), 3, 0.5, trial_rng(0, 0), copies_k=3)

    def test_span_oracle_matches_dense_route(self):
        copies = (2, 4, 8, 32)
        for psi in genuine_ent_cases():
            n = psi.shape.num_registers
            dense = dense_genuine_ent_accept(psi, copies)
            for k, expected in zip(copies, dense):
                exact = genuine_ent_accept_exact(psi, n, k)
                assert abs(exact - expected) <= 1e-12, (psi.shape.dims, k)

    def test_sign_pattern_weights(self):
        for psi in genuine_ent_cases():
            w = _sign_pattern_weights(psi)
            odd = [s for s in range(w.size) if bin(s).count("1") % 2]
            assert w.min() >= -1e-12, psi.shape.dims
            assert abs(w.sum() - 1.0) <= 1e-12, psi.shape.dims
            assert np.abs(w[odd]).sum() <= 1e-12, psi.shape.dims

    def test_sign_pattern_weights_ghz(self):
        """GHZ-n has tr rho_T^2 = 1/2 on every proper cut: w_0 = 1/2 + 2^-n and
        2^-n on every other even pattern."""
        n = 4
        w = _sign_pattern_weights(ghz_state(n))
        expected = [0.0 if bin(s).count("1") % 2 else 2.0**-n for s in range(1 << n)]
        expected[0] += 0.5
        assert np.abs(w - expected).max() <= 1e-14

    @pytest.mark.parametrize("n", (5, 6))
    def test_rule_k_five_and_six_parties(self, n):
        k = genuine_ent_copies(2 ** (n - 1) - 1, math.sqrt(0.5))
        rng = trial_rng(48, n)
        across = product_state(
            [random_pure_state(rng, RegisterShape((2, 2))), random_pure_state(rng, RegisterShape((2,) * (n - 2)))]
        )
        fully = product_state([random_pure_state(rng, QUBIT) for _ in range(n)])
        assert genuine_ent_accept_exact(across, n, k) >= 1.0 / 7.0
        assert abs(genuine_ent_accept_exact(fully, n, k) - 1.0) <= 1e-12
        assert genuine_ent_accept_exact(ghz_state(n), n, k) <= 1.0 / 8.0

    def test_party_cap(self, monkeypatch):
        at_cap = basis_state(RegisterShape((2,) * MAX_GENUINE_PARTIES), (0,) * MAX_GENUINE_PARTIES)
        assert abs(genuine_ent_accept_exact(at_cap, MAX_GENUINE_PARTIES, 2) - 1.0) <= 1e-12

        def no_work(*args, **kwargs):
            raise AssertionError("the oracle started work past its party cap")

        monkeypatch.setattr(testers_module, "subsystem_purity", no_work)
        monkeypatch.setattr(testers_module, "_span_rank_distribution", no_work)
        n = MAX_GENUINE_PARTIES + 1
        psi = basis_state(RegisterShape((2,) * n), (0,) * n)
        with pytest.raises(ValueError, match="cap"):
            genuine_ent_accept_exact(psi, n, 2)

    def test_draw_cap(self, monkeypatch):
        """k/2 copy pairs are one DP step each; past MAX_GENUINE_DRAWS the
        oracle fails before any work, with an error naming the cap."""
        draws = []

        def record(patterns, weights, n_draws):
            draws.append(n_draws)
            return {0: 1.0}

        monkeypatch.setattr(testers_module, "_span_rank_distribution", record)
        genuine_ent_accept_exact(ghz_state(3), 3, 2 * MAX_GENUINE_DRAWS)
        assert draws == [MAX_GENUINE_DRAWS]

        def no_work(*args, **kwargs):
            raise AssertionError("the oracle started work past its draw cap")

        monkeypatch.setattr(testers_module, "subsystem_purity", no_work)
        monkeypatch.setattr(testers_module, "_span_rank_distribution", no_work)
        with pytest.raises(ValueError, match="draw cap MAX_GENUINE_DRAWS"):
            genuine_ent_accept_exact(ghz_state(3), 3, 2 * MAX_GENUINE_DRAWS + 2)

    def test_caps_checked_before_listing_cuts(self, monkeypatch):
        """GHZ-12 has 2^11 - 1 cuts; the party cap, the copy rule and the
        vector cap are all checked from that count, before any cut is listed."""

        def no_cuts(n_parts):
            raise AssertionError("the cuts were listed before the caps were checked")

        monkeypatch.setattr(testers_module, "proper_cuts", no_cuts)
        psi = ghz_state(12)
        with pytest.raises(ValueError, match="12 parties exceed the exact oracle's cap"):
            genuine_ent_accept_exact(psi, 12, 2)
        for copies_k in (None, 2):
            with pytest.raises(ValueError, match="exceeds the vector cap"):
                genuine_ent_instance(psi, 12, 0.5, copies_k)


def path_law(boundary, n_rounds):
    """The halting law (``mw_halting_law``'s layout) a survivor path implies,
    `boundary(step)` its boundaries: step s halts the mass still running
    with its Pi accept probability, or with 1 minus its Delta keep
    probability.  As the halting core reads a path, a step is read only
    while some mass still runs, so an exact 0 or 1 is never divided by."""
    law = np.zeros(2 * n_rounds + 1)
    alive = 1.0
    for step in range(2 * n_rounds):
        b = boundary(step)
        halt = b if step % 2 == 0 else 1.0 - b
        law[step] = alive * halt
        alive *= 1.0 - halt
        if alive <= 0.0:
            return law
    law[-1] = alive
    return law


def _route_laws(mats, psi, copies_k):
    """The word-route instance's law from its word walk, and the law of
    ``_amplify`` on the family applier and the k-copy vector."""
    inst = _eigen_builder(mats, psi, copies_k)
    assert isinstance(inst, TensorPowerInstance)
    n = inst.n_rounds
    walk = inst._word_walk(inst.factor.amplitudes)
    word = path_law(lambda step: next(walk), n)
    vector = _copies_state([plus_state(), psi], copies_k).amplitudes
    amplify = quantum_or_module._amplify(interference_applier(mats, copies_k), vector, n)
    return word, path_law(lambda step: next(amplify), n)


def _rule_holds(dim, size, copies_k):
    """W^2 <= (2d)^k, W the number of reduced words of length <= n over n letters."""
    words = 1 + sum(size * (size - 1) ** (j - 1) for j in range(1, size + 1))
    return words**2 <= (2 * dim) ** copies_k


# (d, n, k) with d 2-4, n 1-4 and k 1-4 where the word route's rule holds,
# and the first n = 4 case, at d = 4, k = 5
WORD_CASES = [
    c for c in itertools.product((2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4, 5)) if _rule_holds(*c) and (c[2] < 5 or c[1] == 4)
]


def _fixing_family(rng, dim, size):
    """`size` random unitaries that all fix one random unit vector f, and f."""
    q = random_unitary(rng, dim)
    mats = []
    for _ in range(size):
        block = np.eye(dim, dtype=np.complex128)
        block[1:, 1:] = random_unitary(rng, dim - 1)
        mats.append(q @ block @ q.conj().T)
    return mats, q[:, 0]


class TestWordRoute:
    """The word-Gram walk of ``TensorPowerInstance`` against ``_amplify`` on
    the family applier: the halting laws the two paths imply agree cell by
    cell within 1e-12.  Laws, not boundaries: near certain acceptance both
    routes' Delta keep ratios are ill-conditioned, at steps the run reaches
    with probability near 0."""

    def test_cases_cover_the_rule(self):
        assert len(WORD_CASES) >= 20 and {n for _, n, _ in WORD_CASES} == {1, 2, 3, 4}

    @pytest.mark.parametrize("dim,size,copies_k", WORD_CASES)
    def test_random_families(self, dim, size, copies_k):
        for seed in range(2):
            rng = trial_rng(400 + 10 * dim + size, 10 * copies_k + seed)
            mats = [random_unitary(rng, dim) for _ in range(size)]
            word, vector = _route_laws(mats, random_pure_state(rng, RegisterShape((dim,))), copies_k)
            np.testing.assert_allclose(word, vector, rtol=0, atol=1e-12)

    def test_commuting_z_strings(self):
        """The benchmark's family {ZII, IZZ, ZZI} at k = 4: 22 words, 2^16 amplitudes."""
        mats = [z_string(bits, 3) for bits in (0b100, 0b011, 0b110)]
        psi = random_pure_state(trial_rng(410, 0), RegisterShape((2, 2, 2)))
        word, vector = _route_laws(mats, psi, 4)
        np.testing.assert_allclose(word, vector, rtol=0, atol=1e-12)
        np.testing.assert_allclose(word, mw_halting_law(*_eigen_measure(UnitarySet(mats), psi, 4), 3), rtol=0, atol=1e-12)

    def test_repeated_member(self):
        """A repeated member makes words equal as vectors (R_1 R_2 chi = R_1
        chi): the Gram matrix is singular, which the walk never inverts."""
        rng = trial_rng(411, 0)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        word, vector = _route_laws([u, u, v], random_pure_state(rng, RegisterShape((3,))), 4)
        np.testing.assert_allclose(word, vector, rtol=0, atol=1e-12)

    def test_eigenvector_of_one_member(self):
        rng = trial_rng(412, 0)
        (fixer,), f = _fixing_family(rng, 3, 1)
        psi = PureState(RegisterShape((3,)), f)
        word, vector = _route_laws([fixer, random_unitary(rng, 3)], psi, 3)
        np.testing.assert_allclose(word, vector, rtol=0, atol=1e-12)
        assert word[0] > 0.5

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-8])
    def test_near_a_vector_every_member_fixes(self, delta):
        """psi within delta of a common fixed vector: the kept mass nears 0,
        where the unclipped quadratic form could turn negative."""
        rng = trial_rng(413, 0)
        mats, f = _fixing_family(rng, 3, 3)
        g = random_pure_state(rng, RegisterShape((3,))).amplitudes
        v = f + delta * g
        word, vector = _route_laws(mats, PureState(RegisterShape((3,)), v / np.linalg.norm(v)), 4)
        np.testing.assert_allclose(word, vector, rtol=0, atol=1e-12)
        assert word[0] > 1.0 - 10 * delta

    def test_kept_mass_clipped_at_a_fixed_vector(self):
        """psi a vector every member fixes, to rounding: d^dag G d, the kept
        mass after a Pi rejection, rounds below 0 on many draws (unclipped,
        a keep probability near -0.1 follows a Pi accept probability of
        1 - 1e-15).  Clipped, every Delta boundary the walk yields is >= 0;
        it is read only after a Pi accept probability below 1, as the
        halting core reads it."""
        for seed in range(20):
            mats, f = _fixing_family(trial_rng(417, seed), 3, 3)
            inst = _eigen_builder(mats, PureState(RegisterShape((3,)), f), 4)
            walk = inst._word_walk(inst.factor.amplitudes)
            p_pi = next(walk)
            assert abs(p_pi - 1.0) <= 1e-12
            if p_pi < 1.0:
                assert next(walk) >= 0.0

    @pytest.mark.parametrize(
        "dim,size,copies_k,walk",
        [
            (2, 1, 1, "word"),  # W^2 = 4 = 4^1: the rule's equality side
            (2, 2, 2, "vector"),  # 25 > 16
            (2, 2, 3, "word"),  # 25 <= 64
            (2, 3, 2, "vector"),  # 484 > 16: the survivor-path test's route
            (3, 3, 3, "vector"),  # 484 > 216
            (3, 3, 4, "word"),  # 484 <= 1296
        ],
    )
    def test_route_rule(self, dim, size, copies_k, walk):
        """Every eigen family is one TensorPowerInstance, which walks its
        words on the factor or its vector applier on the k-copy state."""
        rng = trial_rng(414, dim)
        psi = random_pure_state(rng, RegisterShape((dim,)))
        inst = eigen_instance([random_unitary(rng, dim) for _ in range(size)], psi, 0.5, copies_k)
        assert type(inst) is TensorPowerInstance and inst.n_rounds == size
        assert inst.copies_k == copies_k and inst.factor.shape.dims == (2, dim)
        assert inst.frames.shape == (size, 2 * dim, dim) and not inst.frames.flags.writeable
        walker, start = inst._walk()
        assert (walker == inst._word_walk) == (walk == "word")
        assert start.shape.dims == ((2, dim) if walk == "word" else (2, dim) * copies_k)

    @pytest.mark.parametrize("copies_k,word", [(3, False), (6, True)], ids=["vector-route", "word-route"])
    def test_membership_on_both_sides_of_the_rule(self, copies_k, word):
        """Two qubit candidates have W = 5 words: 25 > 2^3 walks the vector
        applier, 25 <= 2^6 the words.  Either path's law is the Gram
        oracle's law cell by cell."""
        rng = trial_rng(418, 0)
        candidates = [random_pure_state(rng, QUBIT) for _ in range(2)]
        psi = random_pure_state(rng, QUBIT)
        inst = membership_instance(candidates, psi, 0.5, copies_k)
        assert isinstance(inst, TensorPowerInstance) and inst.frames.shape == (2, 2, 1)
        walk, start = inst._walk()
        assert (walk == inst._word_walk) == word and start.shape.dims == (2,) * (1 if word else copies_k)
        survivors = quantum_or_module._survivors(inst)
        law = path_law(lambda s: survivors.boundary(0, s), inst.n_rounds)
        expected = _membership_law(candidates, psi, copies_k)
        assert 0.05 < expected[:-1].sum() < 0.95
        np.testing.assert_allclose(law, expected, rtol=0, atol=1e-12)

    def test_five_members_never_fit(self):
        """From n = 5 on, W^2 passes the vector cap itself, so the vector
        route is the only one under the cap."""
        root = math.isqrt(MAX_VECTOR_DIM)
        assert quantum_or_module._word_count(4, 4, root) == 161
        assert quantum_or_module._word_count(5, 5, root) is None

    @pytest.mark.parametrize("copies_k", [2, 3], ids=["vector-route", "word-route"])
    def test_input_every_member_fixes(self, copies_k):
        """Z and I fix |0>: Pi accepts every trial at step 0, the law is
        [1, 0, ...] to rounding in the norm of |+> (x) |0> and no step
        divides by a kept mass of 0."""
        mats, zero = [PAULI_Z, np.eye(2)], basis_state(QUBIT, (0,))
        inst = eigen_instance(mats, zero, 0.5, copies_k)
        assert isinstance(inst, TensorPowerInstance) and (inst._walk()[0] == inst._word_walk) == (copies_k == 3)
        steps = np.concatenate(list(sample_blocks(inst, trial_blocks(415, range(300)))))
        assert not steps.any()
        survivors = quantum_or_module._survivors(inst)
        expected = np.eye(1, 5).ravel()
        np.testing.assert_allclose(path_law(lambda s: survivors.boundary(0, s), 2), expected, rtol=0, atol=1e-12)
        assert abs(eigen_or_accept_exact(mats, zero, copies_k) - 1.0) <= 1e-12

    @pytest.mark.parametrize("copies_k", [2, 3], ids=["vector-route", "word-route"])
    def test_input_every_member_negates(self, copies_k):
        """Z and -I map |1> to -|1>: every R_i chi is exactly 0, so every Pi
        accept probability and the acceptance are exactly 0, each Delta
        keeps all but rounding in the norm of |+> (x) |1>, and every trial
        rejects."""
        mats, one = [PAULI_Z, -np.eye(2)], basis_state(QUBIT, (1,))
        inst = eigen_instance(mats, one, 0.5, copies_k)
        assert isinstance(inst, TensorPowerInstance) and (inst._walk()[0] == inst._word_walk) == (copies_k == 3)
        steps = np.concatenate(list(sample_blocks(inst, trial_blocks(416, range(300)))))
        assert np.all(steps == 4)
        survivors = quantum_or_module._survivors(inst)
        law = path_law(lambda s: survivors.boundary(0, s), 2)
        assert not law[0:4:2].any()
        np.testing.assert_allclose(law, np.eye(1, 5, 4).ravel(), rtol=0, atol=1e-12)
        assert eigen_or_accept_exact(mats, one, copies_k) == 0.0

    def test_instance_checks(self):
        frames = _interference_frames([PAULI_Z])
        factor = product_state([plus_state(), basis_state(QUBIT, (0,))])
        with pytest.raises(ValueError, match="not orthonormal"):
            TensorPowerInstance(2 * frames, factor, 2, 1)
        with pytest.raises(ValueError, match=re.escape("frame 1 of the stack is not orthonormal")):
            TensorPowerInstance(np.stack([frames[0], frames[0] + np.triu(np.ones((4, 2)), 1)]), factor, 2, 1)
        with pytest.raises(ValueError, match="factor must be a PureState, got DensityOperator"):
            TensorPowerInstance(frames, factor.density(), 2, 1)
        with pytest.raises(ValueError, match="dimension 4 on a factor of dimension 2"):
            TensorPowerInstance(frames, plus_state(), 2, 1)
        for shape in [(4, 2), (0, 4, 2), (1, 4, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"(n, D, r) stack of frames, got shape {shape}")):
                TensorPowerInstance(np.zeros(shape), factor, 2, 1)
        with pytest.raises(ValueError, match="need at least one copy"):
            TensorPowerInstance(frames, factor, 0, 1)
        with pytest.raises(ValueError, match="round count must be >= 1"):
            TensorPowerInstance(frames, factor, 2, 0)
        with pytest.raises(ValueError, match=f"k-copy state dim 4\\^11 \\* 1 exceeds the vector cap {MAX_VECTOR_DIM}"):
            TensorPowerInstance(frames, factor, 11, 1)
        inst = TensorPowerInstance(frames, factor, 2, 1)
        assert not inst.frames.flags.writeable and inst.frames.dtype == np.complex128

class TestEigenTestEndToEnd:
    def test_eigenvector_present_sampled(self):
        psi = basis_state(QUBIT, (0,))
        mats = [np.diag([1.0, -1.0]), PAULI_X]  # psi is fixed by the first
        exact = eigen_or_accept_exact(mats, psi, 3)
        trials = 2000
        count = sum(
            eigen_test(mats, psi, 0.5, trial_rng(45, t), copies_k=3) for t in range(trials)
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma + 1e-9

    def test_noncommuting_family_sampled(self):
        """Acceptance of the factored sampler at 4 sigma against the dense
        oracle, on a non-commuting family at k = 2."""
        rng = trial_rng(49, 0)
        psi = random_pure_state(rng, RegisterShape((3,)))
        mats = [random_unitary(rng, 3) for _ in range(3)]
        assert _noncommuting_pair([block_reflection(u) for u in mats]) is not None
        exact = matvec_accept(mats, psi, 2, len(mats))
        assert 0.05 < exact < 0.95
        trials = 3000
        count = sum(eigen_test(mats, psi, 0.5, trial_rng(49, t + 1), copies_k=2) for t in range(trials))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma

    def test_sampler_applies_no_gates(self, monkeypatch):
        """eigen_test and eigen_measurement_cycle run on the factored
        projector alone: with every binding of the strided gate kernel made
        to raise they still run, while a gate application fails."""

        def no_gates(*args, **kwargs):
            raise AssertionError("strided gate kernel called")

        original = gates_module._apply_gate_array
        for name, module in list(sys.modules.items()):
            if name == "seqmeas" or name.startswith("seqmeas."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, no_gates)
        rng = trial_rng(50, 0)
        psi = random_pure_state(rng, RegisterShape((2, 2)))
        mats = [random_unitary(rng, 4) for _ in range(2)]
        for t in range(5):
            eigen_test(mats, psi, 0.5, trial_rng(50, t + 1), copies_k=2)
        phi = eigen_tester_state(psi, 2)
        for branch in (0, 1):
            eigen_measurement_cycle(phi, mats[0], psi.shape, 2, branch=branch)
        eigen_measurement_cycle(phi, mats[1], psi.shape, 2, rng=trial_rng(50, 6))
        with pytest.raises(AssertionError, match="gate kernel"):
            gates_module._apply_gate_array(phi.amplitudes, phi.shape.dims, GateSpec((0,), PAULI_X))

    def test_runs_on_flag_zero_block(self, monkeypatch):
        """The run receives the factor (|0>+|1>)/sqrt2 (x) psi, 2d amplitudes
        on two registers for a one-register psi, and k copies of it: no
        flag qubit.  Two members on d = 3 at k = 3 have 5 reduced words and
        25 <= 6^3, so the run is a word-route TensorPowerInstance."""
        seen = []
        original = quantum_or_module._survivors

        def spy(inst):
            seen.append((type(inst), inst.factor.shape.dims, inst.copies_k))
            return original(inst)

        monkeypatch.setattr(quantum_or_module, "_survivors", spy)
        rng = trial_rng(52, 0)
        psi = random_pure_state(rng, RegisterShape((3,)))
        eigen_test([random_unitary(rng, 3) for _ in range(2)], psi, 0.5, trial_rng(52, 1), copies_k=3)
        assert seen == [(TensorPowerInstance, (2, 3), 3)]

    def test_rejects_mismatched_or_non_unitary_family(self):
        psi = random_pure_state(trial_rng(51, 0), QUBIT)
        with pytest.raises(ValueError, match="dimension"):
            eigen_test([np.eye(3)], psi, 0.5, trial_rng(51, 1), copies_k=2)
        two_qubits = random_pure_state(trial_rng(51, 3), RegisterShape((2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            eigen_test([PAULI_X], two_qubits, 0.5, trial_rng(51, 4), copies_k=2)
        with pytest.raises(ValueError, match="unitary"):
            eigen_test([np.diag([1.0, 2.0])], psi, 0.5, trial_rng(51, 2), copies_k=2)

    def test_dimension_guard(self):
        psi = random_pure_state(trial_rng(46, 0), RegisterShape((16,)))
        with pytest.raises(ValueError):
            eigen_test([np.eye(16)], psi, 0.5, trial_rng(46, 1), copies_k=6)
