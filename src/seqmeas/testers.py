"""Application testers built on the OR measurement.

Covers: eigenvector testing against a set of unitaries (the controlled-U
interference circuit), isomorphism of function tables under a permutation
set, membership of a state in a finite candidate set, the analogous tests
for unitaries through their channel states, and product/genuine-entanglement
tests via subsystem swap tests.

Each exact oracle is one private function that the halting-law tests
read too.  Two return the spectral measure (eigenvalues, weights) of the
tester's L seen from its input, fed to
``quantum_or.mw_accept_from_spectrum``:

* ``_eigen_measure``: commuting interference measurements, whose joint
  bitmasks one ``eigh`` of sum_i 2^i P_i gives and certifies, and whose
  averaged spectrum is a distribution of bit-vector ANDs;
* ``_genuine_measure``: the rank of the span of the per-register swap sign
  patterns the copy pairs draw, weighted from subsystem purities.

The third, ``_membership_law``, returns the run's halting law itself, by a
walk in the Gram space of the candidates' k-th powers: N = |P| matvecs on
a |P| x |P| matrix, O(|P|^3) time and O(|P|^2) memory, with k entering
only through the log k squarings of the Gram power.  The oracle is the sum
of its halting entries, and the acceptance at any N' <= N a partial sum.
All three are exact at any copy count.

The one exception is interference with non-commuting unitaries, whose
acceptance is the mass that the sampler's own survivor path halts
(``quantum_or._path_accept``), on whichever walk the sampler takes.

All routes are cross-validated against dense spectral references at small
sizes in the test suite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .gates import PermutationAction, is_unitary, permutation_matrix
from .measurement import _register_branch
from .quantum_or import (
    MAX_VECTOR_DIM,
    AveragedInstance,
    TensorPowerInstance,
    _check_copies,
    _copies_dim,
    _elementwise_power,
    _path_accept,
    _tensor_power_applier,
    mw_accept_from_spectrum,
    or_round_count,
    run_mw_sampled,
)
from .states import (
    PureState,
    RegisterShape,
    _split_registers,
    _trusted,
    basis_state,
    check_integer,
    check_interval,
    check_state,
    hermitian_stack,
    product_state,
    plus_state,
    subsystem_purity,
)

MAX_DENSE_DIM = 1 << 12
CASE2_BUDGET = 1.0 / 8.0
COMMUTATOR_ATOL = 1e-9
PATTERN_ATOL = 1e-15  # weight floor of the joint-eigenspace and pattern distributions
MAX_GENUINE_PARTIES = 8
MAX_GENUINE_DRAWS = 10**6  # copy pairs k/2 the genuine oracle's span DP walks


# -- classical function tables --------------------------------------------------


@dataclass(frozen=True)
class FunctionTable:
    """A function {0..|X|-1} -> {0..|Y|-1} stored as its value list."""

    domain_size: int
    codomain_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(check_integer(v, "function value") for v in self.values)
        if len(values) != check_integer(self.domain_size, "domain size"):
            raise ValueError("value list length must equal the domain size")
        if self.domain_size < 1 or check_integer(self.codomain_size, "codomain size") < 1:
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
    def from_lines(cls, lines: Iterable[str]) -> "FunctionTable":
        """Parse `x y` pairs (decimal, one per line; blank lines ignored).  The
        codomain is inferred as max(y) + 1, at least 1, so a negative value is
        refused as out of range."""
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
        if not pairs:
            raise ValueError("no 'x y' pairs found")
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError("domain points must cover 0..|X|-1 exactly")
        values = tuple(pairs[x] for x in range(len(pairs)))
        return cls(len(values), max(max(values) + 1, 1), values)


def function_state(f: FunctionTable) -> PureState:
    """|f> = |X|^{-1/2} sum_x |x>|f(x)> on registers (domain, codomain)."""
    if f.domain_size < 2 or f.codomain_size < 2:
        raise ValueError("state construction needs |X| >= 2 and |Y| >= 2")
    shape = RegisterShape((f.domain_size, f.codomain_size))
    amps = np.zeros(shape.total_dim, dtype=np.complex128)
    for x, y in enumerate(f.values):
        amps[x * f.codomain_size + y] = 1.0
    return _trusted(PureState, shape, amps / math.sqrt(f.domain_size))


def pair_state(f: FunctionTable, g: FunctionTable) -> PureState:
    """(|0>|f> + |1>|g>)/sqrt(2) on registers (flag, domain, codomain)."""
    if (f.domain_size, f.codomain_size) != (g.domain_size, g.codomain_size):
        raise ValueError("f and g must share domain and codomain")
    fs, gs = function_state(f), function_state(g)
    amps = np.concatenate([fs.amplitudes, gs.amplitudes]) / math.sqrt(2)
    return _trusted(PureState, RegisterShape((2, f.domain_size, f.codomain_size)), amps)


def pair_swap_unitary(sigma: PermutationAction, codomain_size: int) -> np.ndarray:
    """The unitary sending (|0>|f>+|1>|g>)/sqrt2 to (|0>|g o sigma^-1>+|1>|f o sigma>)/sqrt2.

    A pure permutation of the (flag, domain, codomain) basis:
    (0, x, y) -> (1, sigma^-1(x), y) and (1, x, y) -> (0, sigma(x), y).
    """
    check_integer(codomain_size, "codomain size", 1)
    labels = np.arange(2 * sigma.size * codomain_size).reshape(2, sigma.size, codomain_size)
    image = np.stack([labels[1][list(sigma.inverse().mapping)], labels[0][list(sigma.mapping)]])
    return permutation_matrix(PermutationAction(image.reshape(-1)))


# -- the interference (eigenvector) tester ---------------------------------------


@dataclass(frozen=True)
class UnitarySet:
    """A finite list of unitaries on a common dimension."""

    matrices: tuple[np.ndarray, ...]

    def _store(self):
        mats = tuple(np.array(m, dtype=np.complex128) for m in self.matrices)
        if not mats:
            raise ValueError("need at least one unitary")
        for m in mats:
            if m.shape != (mats[0].shape[0],) * 2:
                raise ValueError("all unitaries must share one dimension")
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __post_init__(self):
        self._store()
        if not all(is_unitary(m) for m in self.matrices):
            raise ValueError("matrix is not unitary within tolerance")

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _least_copies(n_measurements: int, epsilon, base: float) -> int:
    """Least k >= 1 with 4 n base^k below the 1/8 wrong-accept budget: k from
    the logarithm, confirmed among k - 1, k and k + 1 on that predicate
    itself.  Past 2^53 floats cannot tell k from k + 1: epsilon is too small."""
    _check_copies(n_measurements, "family size", "member")
    if 4 * n_measurements * base <= CASE2_BUDGET:
        return 1
    if base < 1.0 and (k := math.ceil(math.log(CASE2_BUDGET / (4 * n_measurements)) / math.log(base))) <= 1 << 53:
        for j in (k - 1, k, k + 1):
            if 4 * n_measurements * base**j <= CASE2_BUDGET:
                return j
    raise ValueError(f"epsilon {epsilon} is too small: the copy rule's k is not a float-exact count")


def eigen_copies(n_measurements: int, epsilon: float) -> int:
    """Least k with 4 n (1 - eps/2)^k below the 1/8 wrong-accept budget."""
    return _least_copies(n_measurements, epsilon, 1 - _check_epsilon(epsilon) / 2)


def _check_epsilon(epsilon) -> float:
    """The distance check of every k-copy tester and copy rule: epsilon in
    (0, 1], as the float the rules evaluate (no power of a Fraction)."""
    return float(check_interval(epsilon, "epsilon", 0, 1, open_low=True))


def _copy_count(rule: Callable[[int, float], int], n: int, epsilon: float, copies_k: int | None) -> int:
    """The copy count of a k-copy tester on a family of n, after the epsilon
    check: the rule's k at epsilon if copies_k is None, else copies_k."""
    _check_epsilon(epsilon)
    k = rule(n, epsilon) if copies_k is None else copies_k
    _check_copies(k)
    return k


def eigen_tester_state(psi: PureState, copies_k: int) -> PureState:
    """((|0>+|1>)/sqrt2 (x) |psi>)^k (x) |0>: k control-tagged copies plus a
    flag qubit, after checking its size against the vector cap."""
    check_state(psi, "psi", PureState)
    _check_copies(copies_k)
    return _copies_state([plus_state(), psi], copies_k, [basis_state(RegisterShape((2,)), (0,))])


def _eigen_layout(psi_shape: RegisterShape, copies_k: int) -> tuple[tuple[int, ...], int, list[int]]:
    """dims of the tester space, the flag register index, and control indices."""
    r = psi_shape.num_registers
    dims = (2, *psi_shape.dims) * copies_k + (2,)
    controls = [b * (r + 1) for b in range(copies_k)]
    return dims, len(dims) - 1, controls


def eigen_measurement_cycle(
    state: PureState,
    unitary: np.ndarray,
    psi_shape: RegisterShape,
    copies_k: int,
    *,
    branch: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, PureState]:
    """One projective measurement for one unitary on the tester layout,
    through the factored accept projector shared with the sampler and the
    oracle (``quantum_or._tensor_power_applier``).  Returns (outcome, outcome
    probability, residual state), outcome 1 accepting; the gate-circuit
    reference lives in the tests."""
    check_state(state, "state", PureState)
    _check_block(psi_shape.total_dim, "the unitary on psi")
    (unitary,) = _eigen_check((unitary,), psi_shape, copies_k)
    dims, _, _ = _eigen_layout(psi_shape, copies_k)
    if state.shape.dims != dims:
        raise ValueError("state does not have the tester layout for this psi shape and k")
    x = state.amplitudes.reshape(-1, 2).T  # rows: flag 0, flag 1
    # after the k block steps the flag axis leads: rows (x)R x_0, (x)R x_1
    rx = _tensor_power_applier(_interference_frames((unitary,)), copies_k)(state.amplitudes).reshape(2, -1)
    dx = x - rx
    branches = ((dx[0], rx[1]), (rx[0], dx[1]))  # (flag-0, flag-1) parts of reject, accept
    weights = np.array([sum(np.vdot(v, v).real for v in b) for b in branches])
    branch, prob = _register_branch(weights, branch, rng)
    residual = np.empty((x.shape[1], 2), dtype=np.complex128)  # columns: flag 0, flag 1
    for col, part in enumerate(branches[branch]):
        np.divide(part, math.sqrt(prob), out=residual[:, col])
    return branch, prob, _trusted(PureState, state.shape, residual.reshape(-1))


def _check_block(dim: int, label: str) -> None:
    """Refuse unitaries of dimension `dim` whose 2 dim wide block reflections
    and frames, built by every interference route, pass MAX_DENSE_DIM."""
    if 2 * dim > MAX_DENSE_DIM:
        raise ValueError(f"{label} needs block reflections of dim 2 * {dim}, past the dense cap {MAX_DENSE_DIM}")


def _interference_frames(unitaries: Iterable[np.ndarray]) -> np.ndarray:
    """The (n, 2d, d) frames V_i = [I; U_i^dag]/sqrt2: V_i V_i^dag =
    block_reflection(U_i), the accept projector of one (control, psi) copy
    on the flag-0 block, where the tester state starts and stays."""
    mats = tuple(unitaries)
    eye = np.eye(mats[0].shape[0])
    return np.stack([np.vstack([eye, u.conj().T]) for u in mats]) / math.sqrt(2)


def _interference_factor(psi: PureState) -> PureState:
    """|+> (x) psi: one (control, psi) copy of the tester state's flag-0 block."""
    return _trusted(PureState, RegisterShape((2, *psi.shape.dims)), np.kron(plus_state().amplitudes, psi.amplitudes))


def block_reflection(unitary: np.ndarray) -> np.ndarray:
    """Per-copy accept projector 0.5 [[I, U], [U^dag, I]] on control (x) system."""
    d = unitary.shape[0]
    top = np.hstack([np.eye(d), unitary])
    bottom = np.hstack([unitary.conj().T, np.eye(d)])
    return 0.5 * np.vstack([top, bottom])


def analytic_eigen_accept(unitary: np.ndarray, psi: PureState, copies_k: int) -> float:
    """Closed-form single-measurement acceptance (1/2 + Re<psi|U|psi>/2)^k,
    after the instance check of the interference test (k >= 1, a unitary of
    psi's dimension)."""
    check_state(psi, "psi", PureState)
    (unitary,) = _eigen_check((unitary,), psi.shape, copies_k)
    overlap = np.vdot(psi.amplitudes, unitary @ psi.amplitudes)
    return float((0.5 + 0.5 * overlap.real) ** copies_k)


def _unitary_set(unitaries: UnitarySet | Sequence[np.ndarray]) -> UnitarySet:
    """A :class:`UnitarySet` as it is, a plain list checked into one."""
    return unitaries if isinstance(unitaries, UnitarySet) else UnitarySet(tuple(unitaries))


def _eigen_check(unitaries: UnitarySet | Sequence[np.ndarray], psi_shape: RegisterShape, copies_k: int):
    """The family as a :class:`UnitarySet` on psi's space, after the instance
    check of :func:`eigen_instance`, :func:`eigen_or_accept_exact`,
    :func:`eigen_measurement_cycle` and :func:`analytic_eigen_accept`: k >= 1, and unitaries of psi's dimension
    (the factored applier only reshapes, so others could pass silently)."""
    _check_copies(copies_k)
    mats = _unitary_set(unitaries)
    if mats.dim != psi_shape.total_dim:
        raise ValueError("unitary dimension does not match the state dimension")
    return mats


def _copies_state(parts: list[PureState], copies_k: int, tail: Sequence[PureState] = ()) -> PureState:
    """(parts)^{(x)k} (x) tail, the state of every k-copy tester, after the
    cap check of :func:`_copies_dim`."""
    per_copy, tail_dim = (math.prod(p.shape.total_dim for p in ps) for ps in (parts, tail))
    _copies_dim(per_copy, copies_k, tail_dim)
    return product_state(parts * copies_k + list(tail))


def eigen_instance(
    unitaries: UnitarySet | Sequence[np.ndarray],
    psi: PureState,
    epsilon: float,
    copies_k: int | None = None,
) -> TensorPowerInstance:
    """The amplification run of :func:`eigen_test` at the k of
    :func:`_copy_count`."""
    return _eigen_builder(unitaries, psi, _copy_count(eigen_copies, len(unitaries), epsilon, copies_k))


def _eigen_builder(
    unitaries: UnitarySet | Sequence[np.ndarray], psi: PureState, copies_k: int
) -> TensorPowerInstance:
    """The eigenvector test's run at a resolved k, for every eigen-family
    builder: the frames of the family on the factor |+> (x) psi, with
    N = number of unitaries."""
    check_state(psi, "psi", PureState)
    _check_block(psi.shape.total_dim, "the family on psi")
    mats = _eigen_check(unitaries, psi.shape, copies_k)
    factor = _interference_factor(psi)
    return _trusted(TensorPowerInstance, _interference_frames(mats), factor, copies_k, or_round_count(len(mats), 0))


def eigen_test(
    unitaries: UnitarySet | Sequence[np.ndarray],
    psi: PureState,
    epsilon: float,
    rng: np.random.Generator,
    copies_k: int | None = None,
) -> bool:
    """Decide whether some unitary in the set fixes |psi>.

    Feeds one projective measurement per unitary on the k-copy
    interference state to the averaged OR run, with N equal to the number
    of unitaries (the exact eigenvector in the positive case means no slack
    is needed).  The run stays in the flag-0 block, where each measurement
    is the k-fold power of the block reflection R = V V^dag, and is a
    :class:`quantum_or.TensorPowerInstance`, which picks its own walk;
    :func:`eigen_or_accept_exact` reads that walk, :func:`eigen_measurement_cycle`
    its vector applier.  The gate-circuit reference lives in the tests.
    """
    return run_mw_sampled(eigen_instance(unitaries, psi, epsilon, copies_k), rng).accepted


# -- commuting-family exact oracle -------------------------------------------------


def joint_projector_bits(
    projectors: Sequence[np.ndarray], vector: np.ndarray
) -> list[tuple[int, float]]:
    """Joint eigenbasis weights of a commuting projector family seen from a vector.

    Returns (bitmask, weight) pairs sorted by mask, where bit i is the
    eigenvalue of the i-th projector on that joint eigenspace and weight is
    the squared projection of `vector` onto it.  The stack must be finite and
    Hermitian; a family that fails the certificate of :func:`_joint_bits`
    raises, naming a non-commuting pair if there is one.
    """
    return _certified_bits(hermitian_stack(projectors, "projector"), vector)


def _certified_bits(projectors: Sequence[np.ndarray], vector: np.ndarray) -> list[tuple[int, float]]:
    """:func:`_joint_bits`, raising :func:`joint_projector_bits`'s errors where it returns None."""
    atoms = _joint_bits(projectors, vector)
    if atoms is None:
        pair = _noncommuting_pair(projectors)
        if pair is None:
            raise ValueError("not a projector family")
        raise ValueError(f"projectors {pair[0]} and {pair[1]} do not commute")
    return atoms


def _noncommuting_pair(projectors: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """The first pair (i, j) whose commutator exceeds COMMUTATOR_ATOL (a
    non-finite entry counts as exceeding), or None if the family commutes."""
    n = len(projectors)
    for i in range(n):
        for j in range(i + 1, n):
            comm = projectors[i] @ projectors[j] - projectors[j] @ projectors[i]
            if not np.abs(comm).max() <= COMMUTATOR_ATOL:
                return i, j
    return None


def _check_mask_space(n_bits: int) -> None:
    """Refuse a negative n_bits, and 2^n_bits masks past MAX_VECTOR_DIM (which
    also keeps the norm of sum_i 2^i P_i below 2^20, where rounding its
    spectrum is exact)."""
    if check_integer(n_bits, "n_bits", 0) >= MAX_VECTOR_DIM.bit_length():
        raise ValueError(f"2^{n_bits} bitmasks exceed the vector cap {MAX_VECTOR_DIM}")


def _joint_bits(projectors: Sequence[np.ndarray], vector: np.ndarray) -> list[tuple[int, float]] | None:
    """:func:`joint_projector_bits` on finite Hermitian matrices, or None if
    they are not commuting projectors.

    H = sum_i 2^i P_i is its bitmask on each joint eigenspace, so one ``eigh``
    of H gives every mask (its rounded spectrum) and weight (|V^dag vector|^2
    summed per mask).  Its eigenbasis V certifies the family:
    P_i V = V diag(bit i of each mask) to COMMUTATOR_ATOL for every i holds
    exactly when the P_i are commuting Hermitian projectors.
    """
    n = len(projectors)
    _check_mask_space(n)
    w, v = np.linalg.eigh(sum(2.0**i * p for i, p in enumerate(projectors)))
    # clipped so that any spectrum casts; an out-of-range mask fails the certificate
    masks = np.clip(np.rint(w), 0, (1 << n) - 1).astype(np.int64)
    bits = (masks >> np.arange(n)[:, None]) & 1
    if not all(np.abs(p @ v - v * b).max() <= COMMUTATOR_ATOL for p, b in zip(projectors, bits)):
        return None
    weights: dict[int, float] = {}
    for mask, weight in zip(masks.tolist(), (np.abs(v.conj().T @ vector) ** 2).tolist()):
        weights[mask] = weights.get(mask, 0.0) + weight
    return sorted((m, w) for m, w in weights.items() if w > PATTERN_ATOL)


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
    O(n_bits 2^n_bits) in all, 2^n_bits <= MAX_VECTOR_DIM; exact for any
    factor count.  Each mask must lie in [0, 2^n_bits) and each probability
    be finite and >= 0.
    """
    _check_mask_space(n_bits)
    masks = np.asarray([m for m, _ in atoms])
    if masks.dtype.kind not in "iu":  # a float or bool mask, or one past int64; no atoms read as float
        for m, _ in atoms:
            check_integer(m, "mask")
    bad = masks[(masks < 0) | (masks >= 1 << n_bits)]
    if bad.size:
        raise ValueError(f"mask {bad[0]} lies outside [0, 2^{n_bits})")
    probs = np.array([w for _, w in atoms], dtype=float)
    bad = probs[~(np.isfinite(probs) & (probs >= 0.0))]
    if bad.size:
        raise ValueError(f"atom probabilities must be finite and >= 0, got {bad[0]}")
    q = np.zeros(1 << n_bits)
    np.add.at(q, masks.astype(np.int64), probs)
    for lo, hi in _bit_pairs(q):
        lo += hi
    dist = q**factors
    for lo, hi in _bit_pairs(dist):
        lo -= hi
    return {int(m): float(dist[m]) for m in np.flatnonzero(dist > PATTERN_ATOL)}


def averaged_and_measure(
    atoms: Sequence[tuple[int, float]], n_bits: int, factors: int
) -> tuple[list[float], list[float]]:
    """Spectral measure of the averaged AND-projector family: eigenvalue
    popcount(mask)/n with the AND-distribution probability as weight; a
    family of n >= 1 projectors."""
    dist = and_power_distribution(atoms, check_integer(n_bits, "n_bits", 1), factors)
    evals = [bin(m).count("1") / n_bits for m in dist]
    weights = [p for p in dist.values()]
    return evals, weights


def eigen_or_accept_exact(
    unitaries: UnitarySet | Sequence[np.ndarray],
    psi: PureState,
    copies_k: int,
    method: str = "auto",
) -> float:
    """Exact acceptance probability of the OR run over interference measurements.

    The averaged accept operator is block-diagonal in the flag qubit and the
    tester state lives in the flag-0 block, where measurement i acts as
    (x)_b R_i, the k-fold tensor power of its block reflection.  The
    joint-eigenbasis route (:func:`_eigen_measure`, 2^n <= MAX_VECTOR_DIM) is
    exact at any k when its certificate shows the R_i commute
    (``method="joint"`` requires that; ``"auto"`` takes it whenever it holds
    and the 2^n masks fit).  Otherwise it is the mass that the sampler's own
    walk halts (``quantum_or._path_accept``), so the flag-0 block must fit
    under MAX_VECTOR_DIM.
    """
    if method not in ("auto", "joint"):
        raise ValueError("method must be 'auto' or 'joint'")
    check_state(psi, "psi", PureState)
    _check_block(psi.shape.total_dim, "the family on psi")
    mats = _eigen_check(unitaries, psi.shape, copies_k)
    measure = _eigen_measure(mats, psi, copies_k, method)
    if measure is None:
        return _path_accept(_eigen_builder(mats, psi, copies_k))
    return mw_accept_from_spectrum(*measure, or_round_count(len(mats), 0))


def _eigen_measure(mats: UnitarySet, psi: PureState, copies_k: int, method: str = "auto") -> tuple[list, list] | None:
    """The joint route's measure of :func:`eigen_or_accept_exact`; under
    ``"auto"`` None if the certificate fails or the 2^n masks do not fit."""
    reflections = [block_reflection(u) for u in mats]
    base = _interference_factor(psi).amplitudes
    if method == "joint":
        atoms = _certified_bits(reflections, base)
    else:
        atoms = _joint_bits(reflections, base) if len(mats) < MAX_VECTOR_DIM.bit_length() else None
        if atoms is None:
            return None
    return averaged_and_measure(atoms, len(mats), copies_k)


# -- function isomorphism under a permutation set ----------------------------------


@dataclass(frozen=True)
class GIsoRun:
    accepted: bool
    copies_used: int
    queries_f: int
    queries_g: int


def _g_iso_parts(f: FunctionTable, g: FunctionTable, group, epsilon: float, copies_k: int | None):
    """The swap unitaries (permutations: trusted), the superposition state and
    k: the eigenvector test's inputs, shared by its sampler and exact oracle."""
    if not group:
        raise ValueError("need at least one permutation")
    for sigma in group:
        if sigma.size != f.domain_size:
            raise ValueError("permutation size does not match the function domain")
    _check_block(2 * f.domain_size * f.codomain_size, f"pair state dim 2 * {f.domain_size} * {f.codomain_size}")
    psi = pair_state(f, g)
    mats = _trusted(UnitarySet, tuple(pair_swap_unitary(sigma, f.codomain_size) for sigma in group))
    return mats, psi, _copy_count(eigen_copies, len(mats), epsilon, copies_k)


def g_iso_instance(
    f: FunctionTable,
    g: FunctionTable,
    group: Sequence[PermutationAction],
    epsilon: float,
    copies_k: int | None = None,
) -> TensorPowerInstance:
    """The amplification run of :func:`g_iso_test`: the eigenvector test on
    the two-function superposition state with one swap unitary per
    permutation."""
    return _eigen_builder(*_g_iso_parts(f, g, group, epsilon, copies_k))


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
    mats, psi, k = _g_iso_parts(f, g, group, epsilon, copies_k)
    return GIsoRun(run_mw_sampled(_eigen_builder(mats, psi, k), rng).accepted, k, k, k)


def g_iso_accept_exact(
    f: FunctionTable,
    g: FunctionTable,
    group: Sequence[PermutationAction],
    epsilon: float,
    copies_k: int | None = None,
) -> float:
    """Exact acceptance probability of :func:`g_iso_test` on this instance."""
    return eigen_or_accept_exact(*_g_iso_parts(f, g, group, epsilon, copies_k))


# -- membership of a state in a finite set -----------------------------------------


def membership_copies(n_candidates: int, epsilon: float) -> int:
    """Least k with 4 |P| (1 - eps^2)^k below the 1/8 wrong-accept budget."""
    return _least_copies(n_candidates, epsilon, 1 - _check_epsilon(epsilon) ** 2)


def membership_instance(
    candidates: Sequence[PureState],
    psi: PureState,
    epsilon: float,
    copies_k: int | None = None,
) -> TensorPowerInstance:
    """The amplification run of :func:`state_membership_test`: the rank-one
    frames phi of the candidates on the factor psi, k copies and
    N = |P| rounds."""
    n = len(candidates)
    k = _copy_count(membership_copies, n, epsilon, copies_k)
    _membership_check(candidates, psi, k)
    frames = np.stack([c.amplitudes for c in candidates])[:, :, None]
    return _trusted(TensorPowerInstance, frames, psi, k, or_round_count(n, 0))


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
    return run_mw_sampled(membership_instance(candidates, psi, epsilon, copies_k), rng).accepted


def _membership_check(candidates: Sequence[PureState], psi: PureState, copies_k: int) -> None:
    """The instance check of :func:`membership_instance` and
    :func:`membership_accept_exact`: pure candidates on pure psi's shape, k >= 1."""
    check_state(psi, "psi", PureState)
    if not candidates:
        raise ValueError("candidate set is empty")
    for i, c in enumerate(candidates):
        check_state(c, f"candidates[{i}]", PureState)
    if any(c.shape != psi.shape for c in candidates):
        raise ValueError("candidates and input state must share a shape")
    _check_copies(copies_k)


def membership_accept_exact(
    candidates: Sequence[PureState],
    psi: PureState,
    copies_k: int,
) -> float:
    """Exact acceptance of the membership test at any copy count, with
    N = |P| rounds as in its sampler: the sum of the halting entries of
    :func:`_membership_law`, clipped at 1 as
    :func:`quantum_or.mw_accept_from_spectrum` clips.  No k-copy space is
    ever built."""
    _membership_check(candidates, psi, copies_k)
    return min(math.fsum(_membership_law(candidates, psi, copies_k)[:-1]), 1.0)


def _membership_law(candidates: Sequence[PureState], psi: PureState, copies_k: int) -> np.ndarray:
    """The halting law of the membership run (as
    :func:`quantum_or.mw_halting_law` lays it out) by a walk in Gram space.

    With Phi the candidates' k-th powers as columns, L = Phi Phi^dag / n and
    Phi^dag L = M Phi^dag for M = G/n, G the k-th-power Gram matrix.  So
    entry s, <v|L (I - L)^s|v> on v = psi^k, is t^dag (I - M)^s t / n with
    t_i = <phi_i|psi>^k: round m holds y = (I - M)^m t and writes
    ||y||^2/n and (||y||^2 - y^dag M y)/n, both in [0, ||y||^2/n].  N = n
    rounds are n matvecs on an n x n matrix, O(n^3) time and O(n^2)
    memory; k enters only through the log k squarings of the Gram power.
    The last entry is the rejection, 1 minus the halting entries, and the
    acceptance at any N' <= N is the sum of the first 2 N' entries.

    Rounding in the inputs' norms, raised to the k-th power, can put M a
    few k ulps past I and the halting mass as far past 1; the odd entries
    and the rejection are then clipped at 0, as readers of a measure clip
    its eigenvalues and acceptance into [0, 1].
    """
    n = len(candidates)
    amps = np.array([c.amplitudes for c in candidates])
    m = _elementwise_power(amps.conj() @ amps.T, copies_k)
    m /= n
    y = _elementwise_power(amps.conj() @ psi.amplitudes, copies_k)
    rounds = or_round_count(n, 0)
    law = np.empty(2 * rounds + 1)
    for r in range(rounds):
        z = m @ y
        norm = np.vdot(y, y).real
        law[2 * r] = norm / n
        law[2 * r + 1] = max(norm - np.vdot(y, z).real, 0.0) / n
        y -= z
    law[-1] = max(1.0 - math.fsum(law[:-1]), 0.0)
    return law


def per_candidate_accept(candidate: PureState, psi: PureState, copies_k: int) -> float:
    """|<phi|psi>|^{2k}: the single-measurement acceptance on psi^k (k >= 1;
    the two states must share one register shape)."""
    check_state(candidate, "candidate", PureState)
    check_state(psi, "psi", PureState)
    _check_copies(copies_k)
    return float(abs(candidate.overlap(psi)) ** (2 * copies_k))


# -- channel states and unitary properties -----------------------------------------


def choi_vector(matrix: np.ndarray) -> np.ndarray:
    """(M (x) I)|Phi> as a raw vector: amplitudes M[i, j]/sqrt(d), for a
    nonempty square M; a (..., d, d) stack gives a (..., d^2) stack."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not m.size:
        raise ValueError(f"choi_vector needs a nonempty square matrix, got shape {m.shape}")
    return m.reshape(*m.shape[:-2], -1) / math.sqrt(m.shape[-1])


def choi_state(unitary: np.ndarray) -> PureState:
    """The channel state of a unitary, on registers (d, d)."""
    u = np.asarray(unitary, dtype=np.complex128)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return _choi_state(u)


def _choi_state(u: np.ndarray) -> PureState:
    """The channel state of a unitary already checked as one."""
    return _trusted(PureState, RegisterShape((u.shape[0],) * 2), choi_vector(u))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """Normalised Hilbert-Schmidt inner product tr(a^dag b)/d: a complex for
    one pair of d x d matrices, an array for (..., d, d) stacks of one shape."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"the two matrices must be square and of one shape, got {a.shape} and {b.shape}")
    inner = np.trace(a.conj().swapaxes(-1, -2) @ b, axis1=-2, axis2=-1) / a.shape[-1]
    return complex(inner) if inner.ndim == 0 else inner


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1 - |tr(a^dag b)/d|^2); equals the trace distance of the channel states.

    The inner product is normalised by tr(a^dag a) tr(b^dag b)/d^2 (both 1 for
    unitaries up to rounding) so identical inputs give exactly 0; an input of
    zero norm has no distance and is refused.
    """
    norms = hs_inner(a, a).real, hs_inner(b, b).real
    for name, norm in zip("ab", norms):
        if not norm > 0:
            raise ValueError(f"hs_distance: {name} has zero norm, tr({name}^dag {name})/d = {norm!r}")
    return math.sqrt(max(0.0, 1.0 - abs(hs_inner(a, b)) ** 2 / (norms[0] * norms[1])))


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
    the reported oracle-use count equals the copy count.  The candidates are
    checked once, as a :class:`UnitarySet`, and their channel states built
    unchecked.
    """
    target = choi_state(oracle_unitary)
    cand_states = [_choi_state(u) for u in _unitary_set(candidates)]
    k = _copy_count(membership_copies, len(cand_states), epsilon, copies_k)
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
    swap = np.arange(d**4).reshape(d * d, d * d).T
    return permutation_matrix(PermutationAction(swap.reshape(-1))) @ local


def unitary_s_iso_copies(n_unitaries: int, epsilon: float) -> int:
    """Least k with 4 |S| (1 - eps^2/2)^k below the 1/8 wrong-accept budget:
    :func:`eigen_copies` at the gap eps^2, with errors that quote eps."""
    return _least_copies(n_unitaries, epsilon, 1 - _check_epsilon(epsilon) ** 2 / 2)


def _u_iso_parts(s_set: UnitarySet, v_unitary, w_unitary, epsilon: float, copies_k: int | None):
    """The conjugation unitaries (of checked unitaries: trusted), |V>|W> and k
    at gap eps^2: the eigenvector test's inputs, shared by its sampler and
    exact oracle."""
    s_set = _unitary_set(s_set)
    _check_block(s_set.dim**4, f"conjugation unitary dim {s_set.dim}^4")
    psi = product_state([choi_state(v_unitary), choi_state(w_unitary)])
    mats = _trusted(UnitarySet, tuple(conjugation_unitary(u) for u in s_set))
    return mats, psi, _copy_count(unitary_s_iso_copies, len(mats), epsilon, copies_k)


def unitary_s_iso_instance(
    s_set: UnitarySet,
    v_unitary: np.ndarray,
    w_unitary: np.ndarray,
    epsilon: float,
    copies_k: int | None = None,
) -> TensorPowerInstance:
    """The amplification run of :func:`unitary_s_iso_test`: the eigenvector
    test on |V>|W> with one conjugation unitary per U and gap eps^2."""
    return _eigen_builder(*_u_iso_parts(s_set, v_unitary, w_unitary, epsilon, copies_k))


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
    return run_mw_sampled(unitary_s_iso_instance(s_set, v_unitary, w_unitary, epsilon, copies_k), rng).accepted


def unitary_s_iso_accept_exact(
    s_set: UnitarySet,
    v_unitary: np.ndarray,
    w_unitary: np.ndarray,
    epsilon: float,
    copies_k: int | None = None,
) -> float:
    """Exact acceptance probability of :func:`unitary_s_iso_test` on this instance."""
    return eigen_or_accept_exact(*_u_iso_parts(s_set, v_unitary, w_unitary, epsilon, copies_k))


# -- productness across cuts and genuine multipartite entanglement ------------------


def proper_cuts(n_parts: int) -> list[tuple[int, ...]]:
    """The 2^{n-1} - 1 bipartitions, each as the side containing part 0."""
    if check_integer(n_parts, "n_parts") < 2:
        raise ValueError("need at least two parts")
    cuts = []
    for mask in range(1 << (n_parts - 1)):
        cut = (0,) + tuple(i + 1 for i in range(n_parts - 1) if mask >> i & 1)
        if len(cut) < n_parts:
            cuts.append(cut)
    return cuts


def _cut_swap_order(n_axes: int, first: int, n_parts: int, cut: Iterable[int]) -> list[int]:
    """The transpose of an `n_axes`-axis tensor that is SWAP_S across two
    adjacent copies of an `n_parts`-register state, the first at axis `first`."""
    order = list(range(n_axes))
    for c in cut:
        a, b = first + c, first + n_parts + c
        order[a], order[b] = order[b], order[a]
    return order


def swap_overlap_two_copies(psi: PureState, cut: Sequence[int]) -> float:
    """<psi(x)psi| SWAP_S |psi(x)psi>, computed on the explicit two-copy state."""
    check_state(psi, "psi", PureState)
    n = psi.shape.num_registers
    cut, _ = _split_registers(psi, cut)
    two = np.kron(psi.amplitudes, psi.amplitudes).reshape(psi.shape.dims * 2)
    swapped = two.transpose(_cut_swap_order(2 * n, 0, n, cut))
    return float(np.vdot(two.reshape(-1), swapped.reshape(-1)).real)


def cut_product_accept(psi: PureState, cut: Sequence[int]) -> float:
    """(1 + tr rho_S^2)/2: the two-copy swap test's exact acceptance."""
    check_state(psi, "psi", PureState)
    return 0.5 * (1.0 + subsystem_purity(psi, cut))


def cut_product_test(psi: PureState, cut: Sequence[int], rng: np.random.Generator) -> bool:
    """Two-copy swap test across one cut; accepts with certainty iff product."""
    p = 0.5 * (1.0 + swap_overlap_two_copies(psi, cut))
    return bool(rng.random() < p)


def genuine_ent_copies(n_cuts: int, epsilon: float) -> int:
    """Least even k with 4 n_cuts (1 - eps^2/2)^{k/2} below the 1/8 budget."""
    return 2 * _least_copies(n_cuts, epsilon, 1 - _check_epsilon(epsilon) ** 2 / 2)


def _cut_and_applier(
    dims: tuple[int, ...], n_parts: int, copies_k: int, cut: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Product over disjoint copy pairs of (I + SWAP_S)/2, applied by axis swaps."""
    orders = [_cut_swap_order(len(dims), 2 * p * n_parts, n_parts, cut) for p in range(copies_k // 2)]

    def apply(vec: np.ndarray) -> np.ndarray:
        t = vec.reshape(dims)
        for order in orders:
            t = 0.5 * (t + t.transpose(order))
        return t.reshape(-1)

    return apply


def _genuine_check(psi: PureState, n_parts: int) -> int:
    """The cut count 2^{n-1} - 1 (no cut is listed, so the callers' caps come
    first), after the part check of :func:`genuine_ent_instance` and
    :func:`genuine_ent_accept_exact`: a pure psi, one part per register of
    it and at least two parts.  Their copy check is :func:`_check_pairs`."""
    check_state(psi, "psi", PureState)
    if check_integer(n_parts, "n_parts") != psi.shape.num_registers:
        raise ValueError("n_parts must match the state's register count")
    if n_parts < 2:
        raise ValueError("need at least two parts")
    return (1 << (n_parts - 1)) - 1


def _check_pairs(copies_k: int) -> int:
    """k after the copy check of the genuine-entanglement test: an even k >= 2."""
    _check_copies(copies_k)
    if copies_k % 2 != 0:
        raise ValueError("the copy count must be even (copies are consumed in pairs)")
    return copies_k


def genuine_ent_instance(
    psi: PureState,
    n_parts: int,
    epsilon: float,
    copies_k: int | None = None,
) -> AveragedInstance:
    """The amplification run of :func:`genuine_ent_test`: psi^k, one
    pairwise swap-test applier per cut and one round per cut."""
    n_cuts = _genuine_check(psi, n_parts)
    k = _check_pairs(_copy_count(genuine_ent_copies, n_cuts, epsilon, copies_k))
    big = _copies_state([psi], k)
    dims = psi.shape.dims * k
    appliers = [_cut_and_applier(dims, n_parts, k, cut) for cut in proper_cuts(n_parts)]
    return AveragedInstance(appliers, big, or_round_count(n_cuts, 0))


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
    return run_mw_sampled(genuine_ent_instance(psi, n_parts, epsilon, copies_k), rng).accepted


def _pair_swap_projectors(psi: PureState, cuts: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Dense (I + SWAP_S)/2 for each cut on the two-copy space of psi.

    With :func:`joint_projector_bits` and :func:`averaged_and_measure` this
    is the dense reference route for :func:`genuine_ent_accept_exact`.
    """
    d = psi.shape.total_dim
    if d * d > MAX_DENSE_DIM:
        raise ValueError("two-copy space too large for the dense swap projectors")
    n = psi.shape.num_registers
    labels = np.arange(d * d).reshape(psi.shape.dims * 2)
    swaps = [labels.transpose(_cut_swap_order(2 * n, 0, n, cut)).reshape(-1) for cut in cuts]
    return [0.5 * (np.eye(d * d) + permutation_matrix(PermutationAction(s)).real) for s in swaps]


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
    the party count at MAX_GENUINE_PARTIES, and takes one step per copy
    pair, which bounds k/2 at MAX_GENUINE_DRAWS; both are checked first.
    """
    n_cuts = _genuine_check(psi, n_parts)
    _check_pairs(copies_k)
    if n_parts > MAX_GENUINE_PARTIES:
        raise ValueError(f"{n_parts} parties exceed the exact oracle's cap of {MAX_GENUINE_PARTIES}")
    if copies_k // 2 > MAX_GENUINE_DRAWS:
        raise ValueError(f"{copies_k // 2} copy pairs exceed the draw cap MAX_GENUINE_DRAWS = {MAX_GENUINE_DRAWS}")
    return mw_accept_from_spectrum(*_genuine_measure(psi, n_parts, copies_k), or_round_count(n_cuts, 0))


def _genuine_measure(psi: PureState, n_parts: int, copies_k: int) -> tuple[list, list]:
    """The span route's measure of :func:`genuine_ent_accept_exact` (after its caps)."""
    w = _sign_pattern_weights(psi)
    patterns = [s for s in range(w.size) if bin(s).count("1") % 2 == 0 and w[s] > PATTERN_ATOL]
    ranks = _span_rank_distribution(patterns, w[patterns].tolist(), copies_k // 2)
    n_cuts = (1 << (n_parts - 1)) - 1
    return [((1 << (n_parts - 1 - r)) - 1) / n_cuts for r in ranks], list(ranks.values())
