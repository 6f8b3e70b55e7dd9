"""The benchmark's workloads: their jobs, generated inputs and checks.

A job has three steps.  ``prepare`` (untimed) clears its output files,
``call`` (timed) makes the calls into seqmeas, and ``collect`` (untimed)
turns what the calls returned into an :class:`Outcome`: the exact-oracle
values to compare with the recorded references, the failures of the job's
own assertions, and, for CLI jobs, the result document.

Inputs come from the workload seed.  The seed selects one of
``INSTANCE_SETS`` instance sets (``seed % INSTANCE_SETS``), because exact
references were recorded for those sets only; ``exact`` also runs the next
set.  CLI jobs pass the set index as ``--seed``; library jobs draw their states from numpy generators keyed
by the set index and never from seqmeas's own samplers, so the program
receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

import seqmeas
from seqmeas import cli, testers
from seqmeas.states import PureState, RegisterShape

INSTANCE_SETS = 16
WORKLOADS = ("sampled", "exact", "circuits", "multipartite")
SCALES = ("full", "tiny")

SAMPLED_EXPERIMENTS = ("antizeno", "or-test", "demerlinize", "membership", "giso", "uiso", "genuine-ent")
EXACT_EXPERIMENTS = ("mw-bounds", "disturbance", "union-bound", "gentle")

# Trial counts at the tiny scale; the full scale uses each experiment's default.
TINY_TRIALS = {
    "antizeno": 40,
    "or-test": 40,
    "demerlinize": 40,
    "membership": 40,
    "giso": 4,
    "uiso": 4,
    "genuine-ent": 4,
    "mw-bounds": 4,
    "disturbance": 40,
    "union-bound": 3,
    "gentle": 20,
}

# circuits: copies k of the criterion-14 layout (k = 4 gives 17 qubits),
# measurement cycles and sampled eigen_test trials per pass.
CIRCUITS = {
    "full": {"copies": 4, "cycles": 40, "trials": 20},
    "tiny": {"copies": 2, "cycles": 3, "trials": 3},
}

# multipartite: GHZ party counts, W-state parties, membership candidates and
# copies, and the Z-string family size and copies for the joint-bit oracle.
MULTIPARTITE = {
    "full": {"ghz": (3, 4, 5), "w": 4, "candidates": 320, "member_k": 100_000, "strings": 12, "string_k": 64},
    "tiny": {"ghz": (3,), "w": 3, "candidates": 12, "member_k": 1_000, "strings": 4, "string_k": 8},
}
GENUINE_K = 8

PAULI_Z = np.diag([1.0, -1.0])


@dataclass
class Outcome:
    observables: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    document: bytes | None = None


class Job:
    """One unit of work; subclasses define ``call`` and ``collect``."""

    name: str
    set_index: int | None  # the instance set, or None when the instance is fixed

    def prepare(self) -> None:
        pass

    def call(self):
        raise NotImplementedError

    def collect(self, raw) -> Outcome:
        raise NotImplementedError


def instance_set(seed: int) -> int:
    return int(seed) % INSTANCE_SETS


def _generator(set_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([set_index, stream]))


def _random_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _z_string(bits: int, n_qubits: int) -> np.ndarray:
    """Tensor product with Z on the qubits whose bit is set (qubit 0 is the top bit)."""
    factors = [PAULI_Z if bits >> (n_qubits - 1 - q) & 1 else np.eye(2) for q in range(n_qubits)]
    return reduce(np.kron, factors)


def _sigma_check(name: str, count: int, trials: int, p_exact: float) -> list[str]:
    """The experiments' own 4-sigma rule for a sampled count against its oracle."""
    sigma = math.sqrt(max(p_exact * (1.0 - p_exact), 0.0) / trials)
    rate = count / trials
    if abs(rate - p_exact) <= 4.0 * sigma + 1e-9:
        return []
    return [f"{name}: sampled rate {rate} is more than 4 sigma from exact {p_exact}"]


# -- CLI jobs -------------------------------------------------------------------


def document_observables(document: dict, csv_rows: list[dict]) -> dict[str, float]:
    """Every numeric value of a result document and its CSV that is not sampled.

    Sampled counts (``values.sampled_accepts`` and the observed rate of the
    ``sampled_*`` assertions) are left out: they move whenever the RNG draw
    order changes, and each is already checked by its own 4-sigma assertion.
    """
    out: dict[str, float] = {}

    def walk(path: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)

    for key, value in document["values"].items():
        if key != "sampled_accepts":
            walk(f"values.{key}", value)
    for assertion in document["assertions"]:
        name = assertion["name"]
        walk(f"assert.{name}.bound", assertion["bound"])
        if not name.startswith("sampled_"):
            walk(f"assert.{name}.observed", assertion["observed"])
    for i, row in enumerate(csv_rows):
        for column, raw in row.items():
            try:
                out[f"csv[{i}].{column}"] = float(raw)
            except ValueError:
                pass
    return out


class CliJob(Job):
    """``seqmeas.cli.main`` on one experiment, run in the workload process."""

    def __init__(self, experiment: str, set_index: int, trials: int | None, out_dir: Path):
        self.name = experiment
        self.set_index = set_index
        self.doc_path = out_dir / f"{experiment}-{set_index}.json"
        self.csv_path = out_dir / f"{experiment}-{set_index}.csv"
        self.argv = [experiment, "--seed", str(set_index), "--out", str(self.doc_path), "--csv", str(self.csv_path)]
        if trials is not None:
            self.argv += ["--trials", str(trials)]
        self.console = io.StringIO()

    def prepare(self) -> None:
        for path in (self.doc_path, self.csv_path):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
        self.console = io.StringIO()

    def call(self):
        with contextlib.redirect_stderr(self.console):
            try:
                return cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code if isinstance(exc.code, int) else 2

    def collect(self, exit_code) -> Outcome:
        outcome = Outcome()
        if exit_code != 0:
            failed = [line for line in self.console.getvalue().splitlines() if not line.startswith("PASS")]
            outcome.problems.append(f"exit code {exit_code}: {' | '.join(failed)[:500]}")
        if not self.doc_path.exists():
            outcome.problems.append("no result document written")
            return outcome
        outcome.document = self.doc_path.read_bytes()
        rows = []
        if self.csv_path.exists():
            with open(self.csv_path, newline="") as handle:
                rows = list(csv.DictReader(handle))
        outcome.observables = document_observables(json.loads(outcome.document), rows)
        return outcome


# -- circuits: the 17-qubit interference circuit --------------------------------


class CycleJob(Job):
    """Repeated ``eigen_measurement_cycle`` on the criterion-14 layout.

    Each cycle's outcome probability must match ``analytic_eigen_accept``.
    """

    name = "cycles"

    def __init__(self, set_index: int, copies: int, cycles: int):
        self.set_index = set_index
        gen = _generator(set_index, 14)
        self.psi_vec = _random_vector(gen, 8)
        self.unitary = _random_unitary(gen, 8)
        self.copies = copies
        self.seeds = [np.random.SeedSequence([set_index, 1401, c]) for c in range(cycles)]

    def call(self):
        psi = PureState(RegisterShape((2, 2, 2)), self.psi_vec)
        phi = seqmeas.eigen_tester_state(psi, self.copies)
        analytic = seqmeas.analytic_eigen_accept(self.unitary, psi, self.copies)
        results = []
        for seq in self.seeds:
            outcome, prob, _ = seqmeas.eigen_measurement_cycle(
                phi, self.unitary, psi.shape, self.copies, rng=np.random.default_rng(seq)
            )
            results.append((outcome, prob))
        return analytic, results

    def collect(self, raw) -> Outcome:
        analytic, results = raw
        outcome = Outcome(observables={"analytic_accept": float(analytic)})
        for i, (bit, prob) in enumerate(results):
            expected = analytic if bit == 1 else 1.0 - analytic
            if abs(prob - expected) > 1e-9:
                outcome.problems.append(f"cycle {i}: outcome probability {prob} != closed form {expected}")
        return outcome


class EigenTestJob(Job):
    """Sampled ``eigen_test`` trials on a commuting Z-string family, checked
    at 4 sigma against the joint-route ``eigen_or_accept_exact``.

    The strings are diagonal, so the acceptance law depends only on the
    input's amplitude magnitudes.  Those are fixed (weight 0.3 on |101>,
    which every string maps to minus itself, the rest spread evenly; exact
    acceptance 0.066) and the seed draws the phases, so every seed has the
    same expected work per pass.
    """

    name = "eigen_test"
    FAMILY = (0b100, 0b011, 0b110)  # ZII, IZZ, ZZI
    WEIGHTS = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.3, 0.1, 0.1])

    def __init__(self, set_index: int, copies: int, trials: int):
        self.set_index = set_index
        phases = _generator(set_index, 15).uniform(0.0, 2.0 * math.pi, size=8)
        self.psi_vec = np.sqrt(self.WEIGHTS) * np.exp(1j * phases)
        self.family = [_z_string(bits, 3) for bits in self.FAMILY]
        self.copies = copies
        self.seeds = [np.random.SeedSequence([set_index, 1501, t]) for t in range(trials)]

    def call(self):
        psi = PureState(RegisterShape((2, 2, 2)), self.psi_vec)
        exact = testers.eigen_or_accept_exact(self.family, psi, self.copies, method="joint")
        count = 0
        for seq in self.seeds:
            count += seqmeas.eigen_test(self.family, psi, 0.5, np.random.default_rng(seq), copies_k=self.copies)
        return exact, count

    def collect(self, raw) -> Outcome:
        exact, count = raw
        return Outcome(
            observables={"exact_accept": float(exact)},
            problems=_sigma_check(self.name, count, len(self.seeds), exact),
        )


# -- multipartite: structured oracles past the CLI sizes -------------------------


class GenuineEntJob(Job):
    """``genuine_ent_accept_exact`` at k = 8 on one multipartite state."""

    def __init__(self, name: str, make_state, n_parts: int, set_index: int | None, product_across_cut: bool):
        self.name = name
        self.make_state = make_state
        self.n_parts = n_parts
        self.set_index = set_index
        self.product_across_cut = product_across_cut

    def call(self):
        return testers.genuine_ent_accept_exact(self.make_state(), self.n_parts, GENUINE_K)

    def collect(self, accept) -> Outcome:
        outcome = Outcome(observables={"accept": float(accept)})
        if not 0.0 <= accept <= 1.0:
            outcome.problems.append(f"acceptance {accept} outside [0, 1]")
        # A state that is product across a cut passes that cut's test with
        # certainty, so the OR run accepts with probability at least 1/7.
        if self.product_across_cut and accept < 1.0 / 7.0 - 1e-9:
            outcome.problems.append(f"product state accepted with {accept} < 1/7")
        return outcome


def _w_state(n: int) -> PureState:
    amps = np.zeros(1 << n, dtype=np.complex128)
    for q in range(n):
        amps[1 << q] = 1.0 / math.sqrt(n)
    return PureState(RegisterShape((2,) * n), amps)


class MembershipJob(Job):
    """``membership_accept_exact`` with many close candidates at a very large k.

    Candidates sit about 1/sqrt(k) from the input so the k-th-power Gram
    matrix stays far from the identity; the input is itself a candidate,
    so the acceptance is at least 1/7.
    """

    name = "membership"

    def __init__(self, set_index: int, candidates: int, copies: int):
        self.set_index = set_index
        gen = _generator(set_index, 16)
        base = _random_vector(gen, 4)
        scale = 1.0 / math.sqrt(copies)
        vectors = [base]
        for _ in range(candidates - 1):
            v = base + scale * (gen.normal(size=4) + 1j * gen.normal(size=4))
            vectors.append(v / np.linalg.norm(v))
        self.vectors = vectors
        self.copies = copies

    def call(self):
        shape = RegisterShape((4,))
        candidates = [PureState(shape, v) for v in self.vectors]
        return testers.membership_accept_exact(candidates, candidates[0], self.copies)

    def collect(self, accept) -> Outcome:
        outcome = Outcome(observables={"accept": float(accept)})
        if not 1.0 / 7.0 - 1e-9 <= accept <= 1.0:
            outcome.problems.append(f"member accepted with {accept}, outside [1/7, 1]")
        return outcome


class ZStringOrJob(Job):
    """Joint-bit ``eigen_or_accept_exact`` over a commuting Z-string family.

    The input is |0> on the first qubit, so the Z-on-qubit-0 string fixes it
    and the acceptance is at least 1/7.
    """

    name = "z_string_or"

    def __init__(self, set_index: int, strings: int, copies: int):
        self.set_index = set_index
        gen = _generator(set_index, 17)
        self.psi_vec = np.kron(np.array([1.0, 0.0]), _random_vector(gen, 8))
        others = [b for b in range(1, 16) if b != 0b1000]
        chosen = gen.choice(len(others), size=strings - 1, replace=False)
        self.family = [_z_string(0b1000, 4)] + [_z_string(others[i], 4) for i in sorted(chosen)]
        self.copies = copies

    def call(self):
        psi = PureState(RegisterShape((2, 2, 2, 2)), self.psi_vec)
        return testers.eigen_or_accept_exact(self.family, psi, self.copies, method="joint")

    def collect(self, accept) -> Outcome:
        outcome = Outcome(observables={"accept": float(accept)})
        if not 1.0 / 7.0 - 1e-9 <= accept <= 1.0:
            outcome.problems.append(f"fixed input accepted with {accept}, outside [1/7, 1]")
        return outcome


def _product_across_cut(set_index: int, n_parts: int):
    gen = _generator(set_index, 18)
    left = _random_vector(gen, 4)
    right = _random_vector(gen, 1 << (n_parts - 2))
    vec = np.kron(left, right)
    return lambda: PureState(RegisterShape((2,) * n_parts), vec)


def build_jobs(workload: str, seed: int, scale: str, out_dir: Path) -> list[Job]:
    """The jobs of one pass of a workload, with inputs generated from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    s = instance_set(seed)
    if workload in ("sampled", "exact"):
        out_dir.mkdir(parents=True, exist_ok=True)
        if workload == "sampled":
            names, sets = SAMPLED_EXPERIMENTS, (s,)
        else:
            # mw-bounds draws its instance sizes at random, so one set's work
            # varies by about 9% between sets; two adjacent sets halve that.
            names, sets = EXACT_EXPERIMENTS, (s, (s + 1) % INSTANCE_SETS)
        return [CliJob(n, i, TINY_TRIALS[n] if scale == "tiny" else None, out_dir) for i in sets for n in names]
    if workload == "circuits":
        p = CIRCUITS[scale]
        return [CycleJob(s, p["copies"], p["cycles"]), EigenTestJob(s, p["copies"], p["trials"])]
    p = MULTIPARTITE[scale]
    jobs: list[Job] = [
        GenuineEntJob(f"ghz{n}", lambda n=n: seqmeas.ghz_state(n), n, None, False) for n in p["ghz"]
    ]
    w = p["w"]
    jobs.append(GenuineEntJob(f"product{w}", _product_across_cut(s, w), w, s, True))
    jobs.append(GenuineEntJob(f"w{w}", lambda: _w_state(w), w, None, False))
    jobs.append(MembershipJob(s, p["candidates"], p["member_k"]))
    jobs.append(ZStringOrJob(s, p["strings"], p["string_k"]))
    return jobs


def reference_key(workload: str, scale: str, job: Job) -> str:
    return f"{workload}/{scale}/{job.name}/{'any' if job.set_index is None else job.set_index}"

