"""Acceptance suite: one test per criterion, each printing a PASS line.

Every quantitative inequality is checked exactly (through the oracles) at the
stated tolerance; sampled paths are checked statistically at 4 binomial
standard deviations.  Timed criteria assert their wall-clock budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

import seqmeas as sm
from seqmeas import trial_rng
from seqmeas.disturbance import anti_zeno_sequential_instance, certain_member_instance
from seqmeas.gates import PAULI_X, PAULI_Z
from seqmeas.sampling import (
    random_density_operator,
    random_povm_contraction,
    random_projector,
    random_pure_state,
    random_unitary,
)
from seqmeas.testers import (
    pair_swap_unitary,
    per_candidate_accept,
    swap_overlap_two_copies,
)

QUBIT = sm.RegisterShape((2,))
SEED = 20260811


def report(label: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def mw_instances():
    """The 200 seeded instances shared by criteria 1 and 2."""
    instances = []
    for t in range(200):
        rng = trial_rng(SEED, t)
        dim = int(rng.integers(2, 17))
        shape = sm.RegisterShape((dim,))
        lam = random_povm_contraction(rng, shape)
        rho = random_density_operator(rng, shape)
        n_rounds = int(rng.integers(1, 33))
        instances.append((lam, rho, n_rounds))
    return instances


def test_criterion_01_amplification_sandwich(mw_instances):
    start = time.perf_counter()
    worst_low = worst_high = -1.0
    for lam, rho, n_rounds in mw_instances:
        exact = sm.mw_accept_exact(lam, rho, n_rounds)
        lower, upper = sm.mw_bounds(lam, rho, n_rounds)
        worst_low = max(worst_low, lower - exact)
        worst_high = max(worst_high, exact - upper)
    elapsed = time.perf_counter() - start
    ok = worst_low <= 1e-9 and worst_high <= 1e-9 and elapsed < 10.0
    report(
        "criterion-01 amplification sandwich",
        ok,
        f"200 instances, worst lower slack {worst_low:.2e}, worst upper slack "
        f"{worst_high:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_oracle_agreement(mw_instances):
    worst = 0.0
    for lam, rho, n_rounds in mw_instances:
        exact = sm.mw_accept_exact(lam, rho, n_rounds)
        survival = sm.mw_accept_survival(sm.one_ancilla_dilation(lam), rho, n_rounds)
        worst = max(worst, abs(survival - exact))
    report(
        "criterion-02 oracle agreement",
        worst <= 1e-9,
        f"max |exact - survival| = {worst:.2e} over 200 instances",
    )


def test_criterion_03_monte_carlo_consistency():
    start = time.perf_counter()
    trials = 10_000
    checked = 0
    for t in range(40):
        rng = trial_rng(SEED, 300 + t)
        dim = int(rng.integers(2, 9))
        shape = sm.RegisterShape((dim,))
        lam = random_povm_contraction(rng, shape)
        rho = random_density_operator(rng, shape)
        n_rounds = int(rng.integers(1, 5))
        exact = sm.mw_accept_exact(lam, rho, n_rounds)
        if not 0.05 <= exact <= 0.95:
            continue  # keep binomial sigma informative
        induced = sm.one_ancilla_dilation(lam).induced_operator().matrix
        inst = sm.AveragedInstance((lambda v, m=induced: m @ v,), rho, n_rounds)
        if checked < 3:  # exercise the single-run path on a few instances
            gen = trial_rng(SEED, 600 + t)
            count = sum(sm.run_mw_sampled(inst, gen).accepted for _ in range(trials))
        else:
            count = sm.run_mw_sampled_batch(inst, trial_rng(SEED, 600 + t), trials)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= 4 * sigma, f"instance {t}"
        checked += 1
        if checked == 20:
            break
    elapsed = time.perf_counter() - start
    ok = checked == 20 and elapsed < 60.0
    report(
        "criterion-03 monte-carlo consistency",
        ok,
        f"{checked} instances x {trials} trials within 4 sigma, {elapsed:.1f} s",
    )


def test_criterion_04_anti_zeno():
    n = 64
    seq = sm.anti_zeno_sequence(n)
    states = [sm.anti_zeno_state(n, k) for k in range(n + 1)]
    step = math.cos(math.pi / 128) ** 2
    worst_step = max(
        abs((1 - sm.accept_probability(seq[k], states[k])) - step) for k in range(n)
    )
    accept_ever = sm.anti_zeno_accept_ever(n)
    closed = 1 - math.cos(math.pi / 128) ** 128
    state = states[0]
    for m in seq:
        _, _, state = sm.measure_collapse(m, state, branch=0)
    fid = abs(state.overlap(sm.basis_state(QUBIT, (1,)))) ** 2
    tail = all(
        m * sm.anti_zeno_accept_ever(m) <= math.pi**2 / 4 * 1.1 for m in (16, 64, 256)
    )
    ok = (
        worst_step <= 1e-12
        and abs(accept_ever - closed) <= 1e-10
        and abs(accept_ever - 0.0378) <= 1e-3
        and fid >= 1 - 1e-10
        and tail
    )
    report(
        "criterion-04 anti-Zeno",
        ok,
        f"step err {worst_step:.1e}, accept-ever {accept_ever:.6f}, fidelity "
        f"{fid:.12f}, O(1/n) tail holds: {tail}",
    )


def test_criterion_05_or_wrapper():
    seq = sm.anti_zeno_sequence(8)
    zero = sm.basis_state(QUBIT, (0,))
    case1 = sm.or_test_accept_exact(seq, zero, 0)

    n, delta = 8, 1.0 / 1024.0
    rng = trial_rng(SEED, 700)
    shape = sm.RegisterShape((4,))
    psi = random_pure_state(rng, shape)
    measurements = []
    for _ in range(n):
        w = random_pure_state(rng, shape).amplitudes
        w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
        w /= np.linalg.norm(w)
        v = math.sqrt(delta) * psi.amplitudes + math.sqrt(1 - delta) * w
        measurements.append(
            sm.TwoOutcomeMeasurement(
                sm.HermitianOperator(shape, np.outer(v, v.conj())), is_projector=True
            )
        )
    case2 = sm.or_test_accept_exact(measurements, psi, 0)
    ok = case1 >= 1 / 7 - 1e-9 and case2 <= 4 * delta * n + 1e-9
    report(
        "criterion-05 sequential-measurement OR",
        ok,
        f"case-1 exact {case1:.4f} >= 1/7; case-2 exact {case2:.6f} <= {4 * delta * n:.6f}",
    )


def test_criterion_06_gentle_measurement():
    worst = -1.0
    skipped = 0
    for t in range(1000):
        rng = trial_rng(SEED, 1000 + t)
        dim = int(rng.integers(2, 9))
        shape = sm.RegisterShape((dim,))
        rho = random_density_operator(rng, shape)
        lam = random_povm_contraction(rng, shape)
        try:
            lhs, rhs = sm.gentle_measurement_gap(rho, lam)
        except ValueError:
            skipped += 1
            continue
        worst = max(worst, lhs - rhs)
    plus = sm.plus_state()
    zero_proj = sm.HermitianOperator(QUBIT, np.diag([1.0, 0.0]))
    lhs_eq, rhs_eq = sm.gentle_measurement_gap(plus.density(), zero_proj)
    eq_ok = abs(lhs_eq - 1 / math.sqrt(2)) <= 1e-10 and abs(rhs_eq - 1 / math.sqrt(2)) <= 1e-10
    ok = worst <= 1e-10 and eq_ok
    report(
        "criterion-06 gentle measurement",
        ok,
        f"{1000 - skipped} instances, worst lhs-rhs = {worst:.2e}; equality case "
        f"lhs = rhs = {lhs_eq:.12f}",
    )


def test_criterion_07_quantum_union_bound():
    start = time.perf_counter()
    worst_gap = -1.0
    worst_sum = 0.0
    for t in range(40):
        rng = trial_rng(SEED, 2000 + t)
        dim = int(rng.integers(2, 9))
        shape = sm.RegisterShape((dim,))
        t_steps = int(rng.integers(1, 7))
        ms = [
            sm.TwoOutcomeMeasurement(
                random_projector(rng, shape, rank=int(rng.integers(1, dim))), is_projector=True
            )
            for _ in range(t_steps)
        ]
        rho = random_density_operator(rng, shape)
        res = sm.union_bound_bruteforce(ms, rho)
        worst_gap = max(worst_gap, res.p_any_one - res.bound)
        worst_sum = max(worst_sum, abs(sum(r.probability for r in res.trajectories) - 1))
    res_az = sm.union_bound_bruteforce(
        sm.anti_zeno_sequence(8), sm.basis_state(QUBIT, (0,)), epsilon=math.sin(math.pi / 16) ** 2
    )
    az_ok = (
        abs(res_az.p_any_one - sm.anti_zeno_accept_ever(8)) <= 1e-10
        and res_az.p_any_one <= res_az.bound
    )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and worst_sum <= 1e-9 and az_ok and elapsed < 30.0
    report(
        "criterion-07 quantum union bound",
        ok,
        f"40 suites + anti-Zeno, worst p-bound gap {worst_gap:.2e}, trajectory sum "
        f"err {worst_sum:.2e}, {elapsed:.1f} s",
    )


def test_criterion_08_sequential_test():
    worst_cons = 0.0
    worst_case2 = -1.0
    for t in range(20):
        rng = trial_rng(SEED, 3000 + t)
        dim = int(rng.integers(2, 9))
        shape = sm.RegisterShape((dim,))
        n = int(rng.integers(1, 5))
        ms = tuple(
            sm.TwoOutcomeMeasurement(
                random_projector(rng, shape, rank=int(rng.integers(1, dim))), is_projector=True
            )
            for _ in range(n)
        )
        inst = sm.SequentialInstance(ms, random_density_operator(rng, shape), eta=0.5)
        res = sm.exact_sequential_accept(inst)
        worst_cons = max(worst_cons, res.max_conservation_error)
        bound = 2 * inst.k * inst.zeta()
        worst_case2 = max(worst_case2, res.measurement_accept - bound)

    rows = sm.completeness_bound_sweep(anti_zeno_sequential_instance, (4, 8, 16))
    rows += sm.completeness_bound_sweep(certain_member_instance, (8, 16, 32))
    case1_ok = all(r.accept_exact >= r.threshold - 1e-9 for r in rows)

    inst = certain_member_instance(4, eta=1.0)
    exact = sm.exact_sequential_accept(inst).total_accept
    trials = 10_000
    count = sm.run_sequential_sampled_batch(inst, trial_rng(SEED, 3500), trials)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    sampled_ok = abs(count / trials - exact) <= 4 * sigma

    ok = worst_cons <= 1e-9 and worst_case2 <= 1e-9 and case1_ok and sampled_ok
    report(
        "criterion-08 sequential test",
        ok,
        f"conservation err {worst_cons:.2e}; case-2 slack {worst_case2:.2e}; "
        f"case-1 sweep ok: {case1_ok}; sampled rate {count / trials:.4f} vs exact {exact:.4f}",
    )


def test_criterion_09_g_isomorphism():
    swap = sm.PermutationAction((0, 2, 1, 3))
    group = (sm.PermutationAction.identity(4), swap)
    f_iso = sm.FunctionTable(4, 2, (0, 1, 0, 1))
    g_iso = f_iso.compose(swap)
    f_far = sm.FunctionTable(4, 2, (0, 0, 1, 1))
    g_far = sm.FunctionTable(4, 2, (0, 1, 1, 0))
    assert f_far.distance(g_far) == 0.5 and f_far.compose(swap).distance(g_far) == 0.5

    iso_exact = sm.g_iso_accept_exact(f_iso, g_iso, group, 0.5)
    far_exact = sm.g_iso_accept_exact(f_far, g_far, group, 0.5)

    # exhaustive overlap identity sweep at |X| = 4, |Y| = 2
    tables = [sm.FunctionTable(4, 2, v) for v in itertools.product(range(2), repeat=4)]
    states = np.stack([sm.function_state(f).amplitudes for f in tables])
    dim = states.shape[1]
    worst = 0.0
    for perm in itertools.permutations(range(4)):
        sigma = sm.PermutationAction(perm)
        u = pair_swap_unitary(sigma, 2)
        composed = np.stack([sm.function_state(f.compose(sigma)).amplitudes for f in tables])
        for i in range(len(tables)):
            psi = np.zeros((len(tables), 2 * dim), dtype=np.complex128)
            psi[:, :dim] = states[i]
            psi[:, dim:] = states
            psi /= math.sqrt(2)
            vals = np.einsum("ij,ij->i", psi.conj(), psi @ u.T).real
            expected = (composed[i].conj() @ states.T).real
            worst = max(worst, np.abs(vals - expected).max())

    ok = iso_exact >= 1 / 7 - 1e-9 and far_exact <= 1 / 8 + 1e-9 and worst <= 1e-10
    report(
        "criterion-09 G-isomorphism",
        ok,
        f"iso exact {iso_exact:.4f} >= 1/7; far exact {far_exact:.6f} <= 1/8 "
        f"(k = {sm.eigen_copies(2, 0.5)}); overlap identity err {worst:.2e}",
    )


def test_criterion_10_state_membership():
    phi0, phi1 = sm.basis_state(QUBIT, (0,)), sm.basis_state(QUBIT, (1,))
    eps = 0.5
    k = sm.membership_copies(2, eps)
    member = sm.membership_accept_exact([phi0, phi1], phi0, k)
    far = sm.PureState(QUBIT, np.array([math.sqrt(3) / 2, 0.5]))
    assert sm.trace_distance_pure(far, phi0) >= eps - 1e-12
    assert sm.trace_distance_pure(far, phi1) >= eps - 1e-12
    per = per_candidate_accept(phi0, far, k)
    far_exact = sm.membership_accept_exact([phi0, phi1], far, k)
    ok = (
        member >= 1 / 7 - 1e-9
        and far_exact <= 1 / 8 + 1e-9
        and abs(per - (1 - eps**2) ** k) <= 1e-10
    )
    report(
        "criterion-10 state membership",
        ok,
        f"k = {k}; member exact {member:.4f} >= 1/7; far exact {far_exact:.6f} <= 1/8; "
        f"per-measurement {per:.3e} = (1-eps^2)^k",
    )


def test_criterion_11_channel_states_and_conjugation():
    worst_inner = worst_local = 0.0
    for t in range(100):
        rng = trial_rng(SEED, 4000 + t)
        d = int(rng.integers(2, 5))
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        worst_inner = max(
            worst_inner, abs(sm.choi_state(u).overlap(sm.choi_state(v)) - sm.hs_inner(u, v))
        )
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        worst_local = max(
            worst_local,
            np.abs(np.kron(a, b) @ sm.choi_vector(v) - sm.choi_vector(a @ v @ b.T)).max(),
        )

    s_set = sm.UnitarySet((np.eye(2), PAULI_X))
    v = random_unitary(trial_rng(SEED, 4200), 2)
    iso_exact = sm.unitary_s_iso_accept_exact(s_set, v, v, 1.0)
    far_exact = sm.unitary_s_iso_accept_exact(s_set, np.eye(2), PAULI_Z, 1.0)
    ok = (
        worst_inner <= 1e-10
        and worst_local <= 1e-10
        and iso_exact >= 1 / 7 - 1e-9
        and far_exact <= 1 / 8 + 1e-9
    )
    report(
        "criterion-11 channel-state identities and unitary conjugation",
        ok,
        f"identity errs {worst_inner:.1e}/{worst_local:.1e}; conjugate exact "
        f"{iso_exact:.4f} >= 1/7; far exact {far_exact:.6f} <= 1/8",
    )


def test_criterion_12_genuine_entanglement():
    ghz = sm.ghz_state(3)
    worst = max(
        abs(0.5 * (1 + swap_overlap_two_copies(ghz, cut)) - sm.cut_product_accept(ghz, cut))
        for cut in sm.proper_cuts(3)
    )
    cut_vals_ok = all(
        abs(sm.cut_product_accept(ghz, cut) - 0.75) <= 1e-10 for cut in sm.proper_cuts(3)
    )
    partly = sm.product_state([sm.basis_state(QUBIT, (0,)), sm.bell_pair()])
    k = sm.genuine_ent_copies(3, math.sqrt(0.5))
    case1 = sm.genuine_ent_accept_exact(partly, 3, k)
    case2 = sm.genuine_ent_accept_exact(ghz, 3, k)
    ok = worst <= 1e-10 and cut_vals_ok and case1 >= 1 / 7 - 1e-9 and case2 <= 1 / 8 + 1e-9
    report(
        "criterion-12 genuine entanglement",
        ok,
        f"k = {k}; product-across-cut exact {case1:.4f} >= 1/7; GHZ exact "
        f"{case2:.6f} <= 1/8; cut accept identity err {worst:.1e}",
    )


def test_criterion_13_demerlinize():
    shape = sm.RegisterShape((4, 2))
    psi = sm.basis_state(sm.RegisterShape((4,)), (0,))
    gamma1 = sm.HermitianOperator(
        shape, np.kron(np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([1.0, 0.0]))
    )
    eta1 = 2.0 / 3.0
    case1 = sm.demerlinize_accept_exact(gamma1, psi, eta1)

    zeta, eta2 = 0.01, 0.5
    gamma2 = sm.HermitianOperator(shape, zeta * np.eye(8))
    case2 = sm.demerlinize_accept_exact(gamma2, psi, eta2)
    bound2 = 2 * zeta * sm.demerlinize_round_count(2, eta2)
    ok = case1 >= eta1**2 / 7 - 1e-9 and case2 <= bound2 + 1e-9
    report(
        "criterion-13 de-Merlinization",
        ok,
        f"case-1 exact {case1:.4f} >= eta^2/7 = {eta1**2 / 7:.4f}; case-2 exact "
        f"{case2:.6f} <= {bound2:.4f}",
    )


def test_criterion_14_performance():
    rng = trial_rng(SEED, 5000)
    psi = random_pure_state(rng, sm.RegisterShape((2, 2, 2)))
    u = random_unitary(rng, 8)
    phi = sm.eigen_tester_state(psi, 4)  # 4 x (1 + 3) qubits + flag = 17 qubits
    assert phi.shape.num_registers == 17
    start = time.perf_counter()
    outcome, prob, _ = sm.eigen_measurement_cycle(phi, u, psi.shape, 4, rng=trial_rng(SEED, 5001))
    elapsed = time.perf_counter() - start
    analytic_ok = abs(prob - (sm.analytic_eigen_accept(u, psi, 4) if outcome == 1 else 1 - sm.analytic_eigen_accept(u, psi, 4))) <= 1e-9
    ok = elapsed < 1.0 and analytic_ok
    report(
        "criterion-14 performance",
        ok,
        f"17-qubit measurement cycle in {elapsed * 1000:.0f} ms (< 1 s); outcome "
        f"probability matches the closed form",
    )


def test_criterion_15_reproducibility(tmp_path):
    from seqmeas.cli import main as cli_main

    ok = True
    details = []
    for name, trials in (("antizeno", 100), ("mw-bounds", 50), ("genuine-ent", 40)):
        out1, out2 = tmp_path / f"{name}-1.json", tmp_path / f"{name}-2.json"
        cli_main([name, "--seed", "42", "--trials", str(trials), "--out", str(out1)])
        cli_main([name, "--seed", "42", "--trials", str(trials), "--out", str(out2)])
        same = out1.read_bytes() == out2.read_bytes()
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    report("criterion-15 reproducibility", ok, "; ".join(details))
