"""Application testers built on the OR measurement.

Covers: eigenvector testing against a set of unitaries (the controlled-U
interference circuit), isomorphism of function tables under a permutation
set, membership of a state in a finite candidate set, the analogous tests
for unitaries through their channel states, and product/genuine-entanglement
tests via subsystem swap tests.

Three kinds of exact acceptance oracle back the sampled testers:

* a Gram-matrix route for averaged rank-one projector families (state
  membership), exact at any copy count;
* a joint-eigenbasis route for commuting projector families applied per
  tensor factor (interference measurements with commuting unitaries), which
  reduces the averaged-operator spectrum to a distribution of bit-vector
  ANDs and is likewise exact at any copy count;
* a sign-pattern/span route for the genuine-entanglement test: the weights
  of the joint eigenspaces of the per-register swaps come from subsystem
  purities, and the averaged eigenvalue depends only on the dimension of
  the span of the patterns drawn by the copy pairs, so neither swap
  projectors nor the 2^cuts mask space are ever built.

All three are cross-validated against the dense spectral oracle (or the
dense joint-eigenbasis route) at small sizes in the test suite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .gates import (
    GateSpec,
    HADAMARD,
    PAULI_X,
    PermutationAction,
    _apply_gate_array,
    is_unitary,
    permutation_matrix,
)
from .measurement import measure_register_collapse
from .quantum_or import mw_accept_from_spectrum, or_round_count, run_averaged_or_sampled
from .states import (
    PureState,
    RegisterShape,
    eigendecompose,
    product_state,
    plus_state,
    subsystem_purity,
)

MAX_VECTOR_DIM = 1 << 20
MAX_DENSE_DIM = 1 << 12
CASE2_BUDGET = 1.0 / 8.0
COMMUTATOR_ATOL = 1e-9
PATTERN_ATOL = 1e-15
MAX_GENUINE_PARTIES = 8


# -- classical function tables --------------------------------------------------


@dataclass(frozen=True)
class FunctionTable:
    """A function {0..|X|-1} -> {0..|Y|-1} stored as its value list."""

    domain_size: int
    codomain_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if len(values) != self.domain_size:
            raise ValueError("value list length must equal the domain size")
        if self.domain_size < 1 or self.codomain_size < 1:
            raise ValueError("domain and codomain must be nonempty")
        if any(not 0 <= v < self.codomain_size for v in values):
            raise ValueError("function value out of codomain range")
        object.__setattr__(self, "values", values)

    def compose(self, sigma: PermutationAction) -> "FunctionTable":
        """The table of x -> f(sigma(x))."""
        if sigma.size != self.domain_size:
            raise ValueError("permutation size does not match the domain")
        return FunctionTable(
            self.domain_size, self.codomain_size, tuple(self.values[sigma(x)] for x in range(self.domain_size))
        )

    def distance(self, other: "FunctionTable") -> float:
        """Fraction of inputs where the two tables disagree."""
        if other.domain_size != self.domain_size:
            raise ValueError("domains differ")
        return sum(a != b for a, b in zip(self.values, other.values)) / self.domain_size

    @classmethod
    def from_lines(cls, lines: Iterable[str], codomain_size: int | None = None) -> "FunctionTable":
        """Parse `x y` pairs (decimal, one per line; blank lines ignored)."""
        pairs = {}
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'x y' on each line, got {line!r}")
            x, y = int(parts[0]), int(parts[1])
            if x in pairs:
                raise ValueError(f"duplicate domain point {x}")
            pairs[x] = y
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError("domain points must cover 0..|X|-1 exactly")
        values = tuple(pairs[x] for x in range(len(pairs)))
        cod = codomain_size if codomain_size is not None else max(values) + 1
        return cls(len(values), cod, values)


def function_state(f: FunctionTable) -> PureState:
    """|f> = |X|^{-1/2} sum_x |x>|f(x)> on registers (domain, codomain)."""
    if f.domain_size < 2 or f.codomain_size < 2:
        raise ValueError("state construction needs |X| >= 2 and |Y| >= 2")
    shape = RegisterShape((f.domain_size, f.codomain_size))
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    for x, y in enumerate(f.values):
        amps[x * f.codomain_size + y] = 1.0
    return PureState(shape, amps / math.sqrt(f.domain_size))


def pair_state(f: FunctionTable, g: FunctionTable) -> PureState:
    """(|0>|f> + |1>|g>)/sqrt(2) on registers (flag, domain, codomain)."""
    if (f.domain_size, f.codomain_size) != (g.domain_size, g.codomain_size):
        raise ValueError("f and g must share domain and codomain")
    fs, gs = function_state(f), function_state(g)
    amps = np.concatenate([fs.amplitudes, gs.amplitudes]) / math.sqrt(2)
    return PureState(RegisterShape((2, f.domain_size, f.codomain_size)), amps)


def pair_swap_unitary(sigma: PermutationAction, codomain_size: int) -> np.ndarray:
    """The unitary sending (|0>|f>+|1>|g>)/sqrt2 to (|0>|g o sigma^-1>+|1>|f o sigma>)/sqrt2.

    A pure permutation of the (flag, domain, codomain) basis:
    (0, x, y) -> (1, sigma^-1(x), y) and (1, x, y) -> (0, sigma(x), y).
    """
    n_x, n_y = sigma.size, codomain_size
    dim = 2 * n_x * n_y
    mat = np.zeros((dim, dim), dtype=np.complex128)
    inv = sigma.inverse()
    for x in range(n_x):
        for y in range(n_y):
            mat[(1 * n_x + inv(x)) * n_y + y, (0 * n_x + x) * n_y + y] = 1.0
            mat[(0 * n_x + sigma(x)) * n_y + y, (1 * n_x + x) * n_y + y] = 1.0
    return mat


def pair_swap_gates(sigma: PermutationAction) -> list[GateSpec]:
    """The same unitary as a flag flip plus two controlled label permutations."""
    u_sigma = permutation_matrix(sigma)
    u_sigma_inv = permutation_matrix(sigma.inverse())
    return [
        GateSpec((0,), PAULI_X),
        GateSpec((1,), u_sigma_inv, controls=((0, 1),)),
        GateSpec((1,), u_sigma, controls=((0, 0),)),
    ]


# -- the interference (eigenvector) tester ---------------------------------------


@dataclass(frozen=True)
class UnitarySet:
    """A finite list of unitaries on a common dimension."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.array(m, dtype=np.complex128) for m in self.matrices)
        if not mats:
            raise ValueError("need at least one unitary")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all unitaries must share one dimension")
            if not is_unitary(m):
                raise ValueError("matrix is not unitary within tolerance")
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _least_copies(n_measurements: int, epsilon: float, base: float) -> int:
    """Least k >= 1 with 4 n base^k below the 1/8 wrong-accept budget."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    k = 1
    while 4 * n_measurements * base**k > CASE2_BUDGET:
        k += 1
        if k > 10**6:
            raise ValueError("copy rule did not converge")
    return k


def eigen_copies(n_measurements: int, epsilon: float) -> int:
    """Least k with 4 n (1 - eps/2)^k below the 1/8 wrong-accept budget."""
    return _least_copies(n_measurements, epsilon, 1 - epsilon / 2)


def eigen_tester_state(psi: PureState, copies_k: int) -> PureState:
    """((|0>+|1>)/sqrt2 (x) |psi>)^k (x) |0>: k control-tagged copies plus a flag qubit."""
    if copies_k < 1:
        raise ValueError("need at least one copy")
    zero = PureState(RegisterShape((2,)), np.array([1.0, 0.0]))
    return product_state([plus_state(), psi] * copies_k + [zero])


def _eigen_layout(psi_shape: RegisterShape, copies_k: int) -> tuple[tuple[int, ...], int, list[int]]:
    """dims of the tester space, the flag register index, and control indices."""
    r = psi_shape.num_registers
    dims = (2, *psi_shape.dims) * copies_k + (2,)
    controls = [b * (r + 1) for b in range(copies_k)]
    return dims, len(dims) - 1, controls


def _eigen_forward_gates(psi_shape: RegisterShape, unitary: np.ndarray, copies_k: int) -> list[GateSpec]:
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


def eigen_measurement_cycle(
    state: PureState,
    unitary: np.ndarray,
    psi_shape: RegisterShape,
    copies_k: int,
    *,
    branch: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, PureState]:
    """One full projective measurement for one unitary: apply the controlled
    interference circuit, measure the flag qubit (1 accepts), then invert the
    circuit.  Returns (outcome, outcome probability, residual state)."""
    dims, flag, _ = _eigen_layout(psi_shape, copies_k)
    if state.shape.dims != dims:
        raise ValueError("state does not have the tester layout for this psi shape and k")
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


def _eigen_lambda_applier(
    dims: tuple[int, ...], flag: int, gates: list[GateSpec]
) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free action of the accept projector V^dag (flag=1) V."""

    def apply(vec: np.ndarray) -> np.ndarray:
        out = vec
        for g in gates:
            out = _apply_gate_array(out, dims, g)
        t = np.moveaxis(out.reshape(dims), flag, -1)
        t = t.copy()
        t[..., 0] = 0.0
        out = np.moveaxis(t, -1, flag).reshape(-1)
        for g in reversed(gates):
            out = _apply_gate_array(out, dims, g.inverse())
        return out

    return apply


def block_reflection(unitary: np.ndarray) -> np.ndarray:
    """Per-copy accept projector 0.5 [[I, U], [U^dag, I]] on control (x) system."""
    d = unitary.shape[0]
    top = np.hstack([np.eye(d), unitary])
    bottom = np.hstack([unitary.conj().T, np.eye(d)])
    return 0.5 * np.vstack([top, bottom])


def eigen_measurement_projector(unitary: np.ndarray, psi_shape: RegisterShape, copies_k: int) -> np.ndarray:
    """Dense accept projector of the interference measurement (small sizes only)."""
    r = block_reflection(unitary)
    b = reduce(np.kron, [r] * copies_k)
    dim = b.shape[0] * 2
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense projector dim {dim} exceeds cap {MAX_DENSE_DIM}")
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    return np.kron(b, p0) + np.kron(np.eye(b.shape[0]) - b, p1)


def analytic_eigen_accept(unitary: np.ndarray, psi: PureState, copies_k: int) -> float:
    """Closed-form single-measurement acceptance (1/2 + Re<psi|U|psi>/2)^k."""
    overlap = np.vdot(psi.amplitudes, unitary @ psi.amplitudes)
    return float((0.5 + 0.5 * overlap.real) ** copies_k)


def eigen_test(
    unitaries: UnitarySet | Sequence[np.ndarray],
    psi: PureState,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> bool:
    """Decide whether some unitary in the set fixes |psi>.

    Builds the k-copy interference state, realises one projective measurement
    per unitary through the controlled circuit, and feeds the family to the
    averaged OR run with N equal to the number of unitaries (the exact
    eigenvector in the positive case means no slack is needed).
    """
    mats = list(unitaries)
    n = len(mats)
    k = eigen_copies(n, epsilon) if copies_k is None else copies_k
    dims, flag, _ = _eigen_layout(psi.shape, k)
    total = 2 * math.prod(dims[:-1])
    if total > MAX_VECTOR_DIM:
        raise ValueError(
            f"tester state dim {total} exceeds the vector cap; use the exact oracle instead"
        )
    phi = eigen_tester_state(psi, k)
    appliers = [
        _eigen_lambda_applier(dims, flag, _eigen_forward_gates(psi.shape, u, k)) for u in mats
    ]
    result = run_averaged_or_sampled(appliers, phi, or_round_count(n, 0), rng)
    return result.accepted


# -- commuting-family exact oracle -------------------------------------------------


def joint_projector_bits(
    projectors: Sequence[np.ndarray], vector: np.ndarray
) -> list[tuple[int, float]]:
    """Joint eigenbasis weights of a commuting projector family seen from a vector.

    Returns (bitmask, weight) pairs where bit i is the eigenvalue of the i-th
    projector on that joint eigenspace and weight is the squared projection of
    `vector` onto it.  Raises if the family does not commute.
    """
    n = len(projectors)
    d = vector.size
    for i in range(n):
        for j in range(i + 1, n):
            comm = projectors[i] @ projectors[j] - projectors[j] @ projectors[i]
            if np.abs(comm).max() > COMMUTATOR_ATOL:
                raise ValueError(f"projectors {i} and {j} do not commute")
    blocks: list[tuple[np.ndarray, int]] = [(np.eye(d, dtype=np.complex128), 0)]
    for idx, proj in enumerate(projectors):
        refined: list[tuple[np.ndarray, int]] = []
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
    weights: dict[int, float] = {}
    for basis, mask in blocks:
        w = float(np.linalg.norm(basis.conj().T @ vector) ** 2)
        if w > 1e-15:
            weights[mask] = weights.get(mask, 0.0) + w
    return sorted(weights.items())


def _bit_pairs(values: np.ndarray):
    """Yield, for each bit of the index, views of the entries of a length-2^m
    array whose index has that bit clear and set, aligned pairwise."""
    h = 1
    while h < values.size:
        v = values.reshape(-1, 2, h)
        yield v[:, 0], v[:, 1]
        h *= 2


def and_power_distribution(
    atoms: Sequence[tuple[int, float]], n_bits: int, factors: int
) -> dict[int, float]:
    """Distribution of the bitwise AND of `factors` iid bit-vectors.

    `atoms` gives the single-factor distribution as (mask, probability)
    pairs.  Uses P(AND superset of m) = P(single superset of m)^factors: a
    superset zeta butterfly, the power, and the superset Moebius butterfly,
    O(n_bits 2^n_bits) in all; exact for any factor count.
    """
    q = np.zeros(1 << n_bits)
    np.add.at(q, np.array([m for m, _ in atoms], dtype=np.int64), [w for _, w in atoms])
    for lo, hi in _bit_pairs(q):
        lo += hi
    dist = q**factors
    for lo, hi in _bit_pairs(dist):
        lo -= hi
    return {int(m): float(dist[m]) for m in np.flatnonzero(dist > 1e-15)}


def averaged_and_measure(
    atoms: Sequence[tuple[int, float]], n_bits: int, factors: int
) -> tuple[list[float], list[float]]:
    """Spectral measure of the averaged AND-projector family: eigenvalue
    popcount(mask)/n with the AND-distribution probability as weight."""
    dist = and_power_distribution(atoms, n_bits, factors)
    evals = [bin(m).count("1") / n_bits for m in dist]
    weights = [p for p in dist.values()]
    return evals, weights


def eigen_or_accept_exact(
    unitaries: UnitarySet | Sequence[np.ndarray],
    psi: PureState,
    copies_k: int,
    n_rounds: int | None = None,
    method: str = "auto",
) -> float:
    """Exact acceptance probability of the OR run over interference measurements.

    The averaged accept operator is block-diagonal in the flag qubit and the
    tester state lives in the flag-0 block, where measurement i acts as the
    k-fold tensor power of its per-copy projector.  For commuting unitaries
    the joint-eigenbasis route is exact at any k; otherwise a dense spectrum
    of the flag-0 block is taken (small k only).
    """
    mats = list(unitaries)
    n = len(mats)
    rounds = or_round_count(n, 0) if n_rounds is None else n_rounds
    reflections = [block_reflection(u) for u in mats]
    base = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), psi.amplitudes)
    if method not in ("auto", "joint", "dense"):
        raise ValueError("method must be 'auto', 'joint' or 'dense'")
    use_joint = method == "joint"
    if method == "auto":
        use_joint = all(
            np.abs(reflections[i] @ reflections[j] - reflections[j] @ reflections[i]).max()
            <= COMMUTATOR_ATOL
            for i in range(n)
            for j in range(i + 1, n)
        )
    if use_joint:
        atoms = joint_projector_bits(reflections, base)
        evals, weights = averaged_and_measure(atoms, n, copies_k)
        return mw_accept_from_spectrum(evals, weights, rounds)
    dim = base.size**copies_k
    if dim > MAX_DENSE_DIM:
        raise ValueError("non-commuting family too large for the dense oracle at this k")
    lam = sum(reduce(np.kron, [r] * copies_k) for r in reflections) / n
    vec = reduce(np.kron, [base] * copies_k)
    dec = eigendecompose(lam)
    weights = np.abs(dec.eigenvectors.conj().T @ vec) ** 2
    return mw_accept_from_spectrum(dec.eigenvalues, weights, rounds)


# -- function isomorphism under a permutation set ----------------------------------


@dataclass(frozen=True)
class GIsoRun:
    accepted: bool
    copies_used: int
    queries_f: int
    queries_g: int


def _giso_unitaries(
    f: FunctionTable, g: FunctionTable, group: Sequence[PermutationAction]
) -> list[np.ndarray]:
    if not group:
        raise ValueError("need at least one permutation")
    for sigma in group:
        if sigma.size != f.domain_size:
            raise ValueError("permutation size does not match the function domain")
    return [pair_swap_unitary(sigma, f.codomain_size) for sigma in group]


def g_iso_test(
    f: FunctionTable,
    g: FunctionTable,
    group: Sequence[PermutationAction],
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> GIsoRun:
    """Decide whether g = f o sigma for some sigma in the set.

    Builds the two-function superposition state and the per-permutation swap
    unitaries, then runs the eigenvector test; each copy of the state costs
    one query to f and one to g, which is the reported query count.
    """
    psi = pair_state(f, g)
    mats = _giso_unitaries(f, g, group)
    k = eigen_copies(len(mats), epsilon) if copies_k is None else copies_k
    accepted = eigen_test(mats, psi, epsilon, rng, copies_k=k)
    return GIsoRun(accepted=accepted, copies_used=k, queries_f=k, queries_g=k)


def g_iso_accept_exact(
    f: FunctionTable,
    g: FunctionTable,
    group: Sequence[PermutationAction],
    epsilon: float,
    copies_k: int | None = None,
) -> float:
    """Exact acceptance probability of :func:`g_iso_test` on this instance."""
    psi = pair_state(f, g)
    mats = _giso_unitaries(f, g, group)
    k = eigen_copies(len(mats), epsilon) if copies_k is None else copies_k
    return eigen_or_accept_exact(mats, psi, k)


# -- membership of a state in a finite set -----------------------------------------


def membership_copies(n_candidates: int, epsilon: float) -> int:
    """Least k with 4 |P| (1 - eps^2)^k below the 1/8 wrong-accept budget."""
    return _least_copies(n_candidates, epsilon, 1 - epsilon**2)


def state_membership_test(
    candidates: Sequence[PureState],
    psi: PureState,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> bool:
    """Decide whether psi is one of the candidate states.

    Measures |phi><phi|^k for each candidate phi on psi^k through the
    averaged OR run with N = |P| rounds.
    """
    if not candidates:
        raise ValueError("candidate set is empty")
    for c in candidates:
        if c.shape != psi.shape:
            raise ValueError("candidates and input state must share a shape")
    n = len(candidates)
    k = membership_copies(n, epsilon) if copies_k is None else copies_k
    if psi.shape.total_dim**k > MAX_VECTOR_DIM:
        raise ValueError("k-copy state exceeds the vector cap; use the exact oracle instead")
    big = product_state([psi] * k)
    powers = [reduce(np.kron, [c.amplitudes] * k) for c in candidates]
    appliers = [(lambda v, p=p: p * np.vdot(p, v)) for p in powers]
    result = run_averaged_or_sampled(appliers, big, or_round_count(n, 0), rng)
    return result.accepted


def membership_accept_exact(
    candidates: Sequence[PureState],
    psi: PureState,
    copies_k: int,
    n_rounds: int | None = None,
) -> float:
    """Exact acceptance of the membership test at any copy count.

    The averaged operator has rank at most |P|; its nonzero spectrum is that
    of the k-th-power Gram matrix of the candidates divided by |P|, and the
    initial-state weights follow from the candidate overlaps, so no k-copy
    space is ever built.
    """
    n = len(candidates)
    rounds = or_round_count(n, 0) if n_rounds is None else n_rounds
    if any(c.shape != psi.shape for c in candidates):
        raise ValueError("candidates and input state must share a shape")
    amps = np.array([c.amplitudes for c in candidates])
    gram = (amps.conj() @ amps.T) ** copies_k
    t = (amps.conj() @ psi.amplitudes) ** copies_k
    dec = eigendecompose(gram / n)
    evals, weights = [], []
    for mu, coef in zip(dec.eigenvalues, dec.eigenvectors.T):
        if mu <= 1e-14:
            continue
        amp = np.dot(coef.conj(), t) / math.sqrt(n * mu)
        evals.append(float(mu))
        weights.append(float(abs(amp) ** 2))
    return mw_accept_from_spectrum(evals, weights, rounds)


def per_candidate_accept(candidate: PureState, psi: PureState, copies_k: int) -> float:
    """|<phi|psi>|^{2k}: the single-measurement acceptance on psi^k."""
    return float(abs(candidate.overlap(psi)) ** (2 * copies_k))


# -- channel states and unitary properties -----------------------------------------


def choi_vector(matrix: np.ndarray) -> np.ndarray:
    """(M (x) I)|Phi> as a raw vector: amplitudes M[i, j]/sqrt(d)."""
    m = np.asarray(matrix, dtype=np.complex128)
    d = m.shape[0]
    return m.reshape(-1) / math.sqrt(d)


def choi_state(unitary: np.ndarray) -> PureState:
    """The channel state of a unitary, on registers (d, d)."""
    u = np.asarray(unitary, dtype=np.complex128)
    d = u.shape[0]
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return PureState(RegisterShape((d, d)), choi_vector(u))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Normalised Hilbert-Schmidt inner product tr(a^dag b)/d."""
    a = np.asarray(a)
    return complex(np.trace(a.conj().T @ b) / a.shape[0])


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1 - |tr(a^dag b)/d|^2); equals the trace distance of the channel states.

    The inner product is normalised by tr(a^dag a) tr(b^dag b)/d^2 (both 1 for
    unitaries up to rounding) so identical inputs give exactly 0.
    """
    norms = hs_inner(a, a).real * hs_inner(b, b).real
    return math.sqrt(max(0.0, 1.0 - abs(hs_inner(a, b)) ** 2 / norms))


@dataclass(frozen=True)
class UnitarySetRun:
    accepted: bool
    copies_used: int
    oracle_uses: int


def unitary_set_test(
    candidates: UnitarySet,
    oracle_unitary: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> UnitarySetRun:
    """Membership of an unknown unitary in a finite set, via channel states.

    Each copy of the channel state costs one use of the unknown unitary, so
    the reported oracle-use count equals the copy count.
    """
    target = choi_state(oracle_unitary)
    cand_states = [choi_state(u) for u in candidates]
    k = membership_copies(len(cand_states), epsilon) if copies_k is None else copies_k
    accepted = state_membership_test(cand_states, target, epsilon, rng, copies_k=k)
    return UnitarySetRun(accepted=accepted, copies_used=k, oracle_uses=k)


def conjugation_unitary(u: np.ndarray) -> np.ndarray:
    """The two-channel-state operator whose fixed points witness U V U^dag = W.

    Acts on |V>|W> as (U (x) U*) on the first channel state, (U^dag (x) U^T)
    on the second, followed by swapping the two channel registers, sending
    |V>|W> to |U^dag W U>|U V U^dag>.
    """
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    local = np.kron(np.kron(u, u.conj()), np.kron(u.conj().T, u.T))
    dd = d * d
    swap = np.zeros((dd * dd, dd * dd))
    for a in range(dd):
        for b in range(dd):
            swap[b * dd + a, a * dd + b] = 1.0
    return swap @ local


def unitary_s_iso_test(
    s_set: UnitarySet,
    v_unitary: np.ndarray,
    w_unitary: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> bool:
    """Decide whether U V U^dag = W for some U in the set.

    The overlap of |V>|W> with its image is |<U V U^dag, W>|^2, so a distance
    of eps in the normalised Hilbert-Schmidt metric becomes an eigenvector
    gap of eps^2; the conversion is applied explicitly here.
    """
    psi = product_state([choi_state(v_unitary), choi_state(w_unitary)])
    mats = [conjugation_unitary(u) for u in s_set]
    gap = epsilon**2
    k = eigen_copies(len(mats), gap) if copies_k is None else copies_k
    return eigen_test(mats, psi, gap, rng, copies_k=k)


def unitary_s_iso_accept_exact(
    s_set: UnitarySet,
    v_unitary: np.ndarray,
    w_unitary: np.ndarray,
    epsilon: float,
    copies_k: int | None = None,
) -> float:
    psi = product_state([choi_state(v_unitary), choi_state(w_unitary)])
    mats = [conjugation_unitary(u) for u in s_set]
    gap = epsilon**2
    k = eigen_copies(len(mats), gap) if copies_k is None else copies_k
    return eigen_or_accept_exact(mats, psi, k)


# -- productness across cuts and genuine multipartite entanglement ------------------


def proper_cuts(n_parts: int) -> list[tuple[int, ...]]:
    """The 2^{n-1} - 1 bipartitions, each as the side containing part 0."""
    if n_parts < 2:
        raise ValueError("need at least two parts")
    cuts = []
    for mask in range(1 << (n_parts - 1)):
        cut = (0,) + tuple(i + 1 for i in range(n_parts - 1) if mask >> i & 1)
        if len(cut) < n_parts:
            cuts.append(cut)
    return cuts


def swap_overlap_two_copies(psi: PureState, cut: Sequence[int]) -> float:
    """<psi(x)psi| SWAP_S |psi(x)psi>, computed on the explicit two-copy state."""
    n = psi.shape.num_registers
    cut = sorted(set(psi.shape.check_register(c) for c in cut))
    if not cut or len(cut) >= n:
        raise ValueError("cut must be a proper nonempty subset of the parts")
    two = np.kron(psi.amplitudes, psi.amplitudes).reshape(psi.shape.dims * 2)
    perm = list(range(2 * n))
    for c in cut:
        perm[c], perm[n + c] = perm[n + c], perm[c]
    swapped = two.transpose(perm)
    return float(np.vdot(two.reshape(-1), swapped.reshape(-1)).real)


def cut_product_accept(psi: PureState, cut: Sequence[int]) -> float:
    """(1 + tr rho_S^2)/2: the two-copy swap test's exact acceptance."""
    return 0.5 * (1.0 + subsystem_purity(psi, cut))


def cut_product_test(psi: PureState, cut: Sequence[int], rng: np.random.Generator) -> bool:
    """Two-copy swap test across one cut; accepts with certainty iff product."""
    p = 0.5 * (1.0 + swap_overlap_two_copies(psi, cut))
    return bool(rng.random() < p)


def genuine_ent_copies(n_cuts: int, epsilon: float) -> int:
    """Least even k with 4 n_cuts (1 - eps^2/2)^{k/2} below the 1/8 budget."""
    return 2 * _least_copies(n_cuts, epsilon, 1 - epsilon**2 / 2)


def _cut_and_applier(
    dims: tuple[int, ...], n_parts: int, copies_k: int, cut: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Product over disjoint copy pairs of (I + SWAP_S)/2, applied by axis swaps."""

    def apply(vec: np.ndarray) -> np.ndarray:
        t = vec.reshape(dims)
        for p in range(copies_k // 2):
            perm = list(range(len(dims)))
            a, b = 2 * p * n_parts, (2 * p + 1) * n_parts
            for c in cut:
                perm[a + c], perm[b + c] = perm[b + c], perm[a + c]
            t = 0.5 * (t + t.transpose(perm))
        return t.reshape(-1)

    return apply


def genuine_ent_test(
    psi: PureState,
    n_parts: int,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> bool:
    """Accept when the state is product across some cut; reject genuinely
    entangled states.

    Per cut, the measurement is "k/2 disjoint two-copy swap tests across the
    cut all accept" on psi^k; the cuts' measurements feed the averaged OR run
    with one round per cut.
    """
    if n_parts != psi.shape.num_registers:
        raise ValueError("n_parts must match the state's register count")
    cuts = proper_cuts(n_parts)
    k = genuine_ent_copies(len(cuts), epsilon) if copies_k is None else copies_k
    if k % 2 != 0 or k < 2:
        raise ValueError("the copy count must be even (copies are consumed in pairs)")
    if psi.shape.total_dim**k > MAX_VECTOR_DIM:
        raise ValueError("k-copy state exceeds the vector cap; use the exact oracle instead")
    big = product_state([psi] * k)
    dims = psi.shape.dims * k
    appliers = [_cut_and_applier(dims, n_parts, k, cut) for cut in cuts]
    result = run_averaged_or_sampled(appliers, big, or_round_count(len(cuts), 0), rng)
    return result.accepted


def _pair_swap_projectors(psi: PureState, cuts: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Dense (I + SWAP_S)/2 for each cut on the two-copy space of psi.

    With :func:`joint_projector_bits` and :func:`averaged_and_measure` this
    is the dense reference route for :func:`genuine_ent_accept_exact`.
    """
    d = psi.shape.total_dim
    if d * d > MAX_DENSE_DIM:
        raise ValueError("two-copy space too large for the dense swap projectors")
    dims = psi.shape.dims
    n = len(dims)
    out = []
    for cut in cuts:
        cut = set(cut)
        perm = np.zeros((d * d, d * d))
        for a in range(d):
            for b in range(d):
                la = list(np.unravel_index(a, dims))
                lb = list(np.unravel_index(b, dims))
                for c in cut:
                    la[c], lb[c] = lb[c], la[c]
                a2 = int(np.ravel_multi_index(tuple(la), dims))
                b2 = int(np.ravel_multi_index(tuple(lb), dims))
                perm[a2 * d + b2, a * d + b] = 1.0
        out.append(0.5 * (np.eye(d * d) + perm))
    return out


def _sign_pattern_weights(psi: PureState) -> np.ndarray:
    """Weight of psi (x) psi on each joint eigenspace of the per-register swaps.

    Entry s (bit i set: SWAP_i acts as -1) is the Walsh-Hadamard transform
    of the subsystem purities, w_s = 2^-n sum_T (-1)^|s & T| tr rho_T^2,
    with tr rho_T^2 = 1 for T empty and for T = all registers.
    """
    n = psi.shape.num_registers
    full = (1 << n) - 1
    w = np.ones(1 << n)
    for t in range(1, full):
        w[t] = subsystem_purity(psi, [i for i in range(n) if t >> i & 1])
    for lo, hi in _bit_pairs(w):
        lo[:], hi[:] = lo + hi, lo - hi
    return w / (1 << n)


def _span_moves(
    basis: tuple[int, ...], patterns: Sequence[int], weights: Sequence[float]
) -> list[tuple[tuple[int, ...], float]]:
    """One more draw from span(basis): (new span, probability) per coset.

    A span is keyed by its reduced row-echelon basis (pivot = top bit,
    sorted), which is canonical.  Reducing a pattern against the basis gives
    its coset's representative c; c = 0 keeps the span, and otherwise c is
    the new basis vector, cleared from the others at its pivot.
    """
    pivots = [1 << (b.bit_length() - 1) for b in basis]
    cosets: dict[int, float] = defaultdict(float)
    for s, w in zip(patterns, weights):
        for b, top in zip(basis, pivots):
            if s & top:
                s ^= b
        cosets[s] += w
    moves = []
    for c, w in cosets.items():
        if c:
            top = 1 << (c.bit_length() - 1)
            moves.append((tuple(sorted([b ^ c if b & top else b for b in basis] + [c])), w))
        else:
            moves.append((basis, w))
    return moves


def _span_rank_distribution(
    patterns: Sequence[int], weights: Sequence[float], draws: int
) -> dict[int, float]:
    """Distribution of dim span(s_1..s_draws) over GF(2) for iid draws of
    the patterns with the given weights: a DP over subspaces whose every
    probability is a sum of positive terms.  Each span's moves are computed
    once and reused at later draws."""
    spans: dict[tuple[int, ...], float] = {(): 1.0}
    moves: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]] = {}
    for _ in range(draws):
        nxt: dict[tuple[int, ...], float] = defaultdict(float)
        for basis, p in spans.items():
            if basis not in moves:
                moves[basis] = _span_moves(basis, patterns, weights)
            for key, w in moves[basis]:
                nxt[key] += p * w
        spans = nxt
    ranks: dict[int, float] = defaultdict(float)
    for basis, p in spans.items():
        ranks[len(basis)] += p
    return dict(ranks)


def genuine_ent_accept_exact(psi: PureState, n_parts: int, copies_k: int) -> float:
    """Exact acceptance of the genuine-entanglement test at any even copy count.

    The per-register swaps SWAP_i on psi (x) psi commute, so each copy pair
    lands in a joint eigenspace indexed by a sign pattern s in GF(2)^n with
    weight w_s = 2^-n sum_{T subset [n]} (-1)^|s & T| tr rho_T^2
    (:func:`_sign_pattern_weights`).  psi (x) psi is fixed by the full swap,
    so odd-weight patterns carry zero weight; they and patterns with weight
    at most PATTERN_ATOL are dropped.  The swap test across cut S passes on
    pattern s iff |s & S| is even, so all k/2 pairs pass S iff 1_S is
    orthogonal to V, the span of the drawn patterns.  V lies in the
    even-weight space, and the fraction of the 2^{n-1} - 1 cuts orthogonal
    to it is

        lambda_r = (2^{n-1-r} - 1) / (2^{n-1} - 1),   r = dim V,

    so the averaged measurement's spectral measure is the distribution of r,
    found by a DP over subspaces (:func:`_span_rank_distribution`).  The DP
    visits every subspace of GF(2)^{n-1} in the worst case, which bounds
    the party count at MAX_GENUINE_PARTIES.
    """
    if n_parts != psi.shape.num_registers:
        raise ValueError("n_parts must match the state's register count")
    if copies_k % 2 != 0 or copies_k < 2:
        raise ValueError("the copy count must be even")
    if n_parts > MAX_GENUINE_PARTIES:
        raise ValueError(f"{n_parts} parties exceed the exact oracle's cap of {MAX_GENUINE_PARTIES}")
    n_cuts = len(proper_cuts(n_parts))
    w = _sign_pattern_weights(psi)
    patterns = [s for s in range(w.size) if bin(s).count("1") % 2 == 0 and w[s] > PATTERN_ATOL]
    ranks = _span_rank_distribution(patterns, w[patterns].tolist(), copies_k // 2)
    evals = [((1 << (n_parts - 1 - r)) - 1) / n_cuts for r in ranks]
    return mw_accept_from_spectrum(evals, list(ranks.values()), or_round_count(n_cuts, 0))
