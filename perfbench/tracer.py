"""Span recorder that wraps seqmeas's public functions from outside.

Each wrapped call records one span (name, start, end, parent span, job id)
into flat in-memory arrays; nothing is written until the run ends.  A
function is replaced in every seqmeas module namespace that binds it, so
calls between modules (``quantum_or.eigendecompose``,
``testers._apply_gate_array``) are captured as well as calls from the
benchmark.  Self time is a span's duration minus the time covered by its
child spans.  Layer metrics are grouped by module, as listed in ``LAYERS``.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = (
    "states",
    "gates",
    "measurement",
    "quantum_or",
    "disturbance",
    "testers",
    "experiments",
    "cli",
    "sampling",
    "rng",
)

# layer -> (module, attribute) pairs; "Class.method" wraps a method on the class.
LAYERS = {
    "states.validate": [
        ("states", "PureState.__post_init__"),
        ("states", "HermitianOperator.__post_init__"),
        ("states", "DensityOperator.__post_init__"),
    ],
    "states.eigendecompose": [("states", "eigendecompose")],
    "gates.apply": [("gates", "_apply_gate_array")],
    "gates.gatespec": [("gates", "GateSpec.__post_init__")],
    "measurement.collapse": [("measurement", "measure_collapse"), ("measurement", "measure_register_collapse")],
    "measurement.validate": [
        ("measurement", "TwoOutcomeMeasurement.__post_init__"),
        ("measurement", "NaimarkForm.__post_init__"),
    ],
    "measurement.naimark": [
        ("measurement", "naimark_form"),
        ("measurement", "trivial_naimark"),
        ("measurement", "one_ancilla_dilation"),
        ("measurement", "build_averaged_naimark"),
    ],
    "measurement.union_bound": [("measurement", "union_bound_bruteforce")],
    "quantum_or.sample": [
        ("quantum_or", "run_mw_sampled"),
        ("quantum_or", "run_mw_sampled_batch"),
        ("quantum_or", "run_averaged_or_sampled"),
    ],
    "quantum_or.exact": [
        ("quantum_or", "mw_accept_exact"),
        ("quantum_or", "mw_accept_from_spectrum"),
        ("quantum_or", "mw_bounds"),
        ("quantum_or", "or_test_accept_exact"),
        ("quantum_or", "demerlinize_accept_exact"),
    ],
    "quantum_or.survival": [("quantum_or", "mw_accept_survival")],
    "disturbance.exact": [("disturbance", "exact_sequential_accept")],
    "disturbance.sample": [
        ("disturbance", "run_sequential_sampled"),
        ("disturbance", "run_sequential_sampled_batch"),
    ],
    "testers.exact": [
        ("testers", "eigen_or_accept_exact"),
        ("testers", "g_iso_accept_exact"),
        ("testers", "membership_accept_exact"),
        ("testers", "unitary_s_iso_accept_exact"),
        ("testers", "genuine_ent_accept_exact"),
    ],
    "testers.joint_bits": [("testers", "joint_projector_bits")],
    "testers.and_power": [("testers", "and_power_distribution")],
    "testers.swap_projectors": [("testers", "_pair_swap_projectors")],
    "testers.sampled": [
        ("testers", "eigen_measurement_cycle"),
        ("testers", "eigen_test"),
        ("testers", "g_iso_test"),
        ("testers", "state_membership_test"),
        ("testers", "unitary_set_test"),
        ("testers", "unitary_s_iso_test"),
        ("testers", "cut_product_test"),
        ("testers", "genuine_ent_test"),
    ],
    "experiments.run": [("experiments", "run_experiment")],
    "cli.main": [("cli", "main")],
    "sampling": [
        ("sampling", "random_pure_state"),
        ("sampling", "random_unitary"),
        ("sampling", "random_density_operator"),
        ("sampling", "random_projector"),
        ("sampling", "random_povm_contraction"),
    ],
    "rng.trial_rng": [("rng", "trial_rng")],
}

APPLIER = "quantum_or.applier"
EIGH = "numpy.linalg.eigh"
# Fixed here rather than read from seqmeas, so the declared metric set does
# not change when the program gains an experiment.
EXPERIMENT_NAMES = (
    "antizeno",
    "mw-bounds",
    "or-test",
    "disturbance",
    "union-bound",
    "gentle",
    "giso",
    "membership",
    "uiso",
    "genuine-ent",
    "demerlinize",
)


def _gate_traffic(counters, args, kwargs, result) -> None:
    """Computed bytes and flops of one strided gate application.

    Bytes: the amplitude copy (read and write n complex128 values), the
    controlled slice updated in place (read and write), and the gate matrix.
    Flops: 8 real flops per complex multiply-add of the slice matmul.
    """
    amps, dims, gate = args[:3]
    n = amps.size
    selected = n // math.prod(dims[r] for r, _ in gate.controls)
    tdim = gate.matrix.shape[0]
    counters["gates.apply.bytes_computed"] += 16 * (2 * n + 2 * selected + tdim * tdim)
    counters["gates.apply.flops"] += 8 * selected * tdim


def _sample_trials(counters, args, kwargs, result) -> None:
    if isinstance(result, int):  # run_mw_sampled_batch returns an accept count
        counters["quantum_or.sample.trials"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)
        return
    counters["quantum_or.sample.trials"] += 1
    counters["quantum_or.sample.rounded_trials"] += 1
    counters["quantum_or.sample.rounds"] += result.rounds_used


def _sequential_trials(counters, args, kwargs, result) -> None:
    if isinstance(result, bool):
        counters["disturbance.sample.trials"] += 1
    else:
        counters["disturbance.sample.trials"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)


def _iterations(counters, args, kwargs, result) -> None:
    counters["disturbance.exact.iterations"] += args[0].k


def _commutator_checks(counters, args, kwargs, result) -> None:
    n = len(args[0])
    counters["testers.joint_bits.commutator_checks"] += n * (n - 1) // 2


def _masks(counters, args, kwargs, result) -> None:
    counters["testers.and_power.masks"] += 1 << int(kwargs.get("n_bits", args[1]))


def _trajectories(counters, args, kwargs, result) -> None:
    counters["measurement.union_bound.trajectories"] += len(result.trajectories)


COUNT_HOOKS = {
    "gates._apply_gate_array": _gate_traffic,
    "quantum_or.run_mw_sampled": _sample_trials,
    "quantum_or.run_mw_sampled_batch": _sample_trials,
    "quantum_or.run_averaged_or_sampled": _sample_trials,
    "disturbance.run_sequential_sampled": _sequential_trials,
    "disturbance.run_sequential_sampled_batch": _sequential_trials,
    "disturbance.exact_sequential_accept": _iterations,
    "testers.joint_projector_bits": _commutator_checks,
    "testers.and_power_distribution": _masks,
    "measurement.union_bound_bruteforce": _trajectories,
}


class Tracer:
    """Flat span arrays plus named counters; one instance per workload process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, span: str, raised_key: str | None, hook=None, label=None, rewrite=None):
        base_id = self.intern(span)
        start, end, parent, name, job, stack = self.start, self.end, self.parent, self.name, self.job, self.stack
        counters = self.counters
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if rewrite is not None:
                args = rewrite(args)
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            name.append(base_id if label is None else self.intern(f"{span}:{label(args, kwargs)}"))
            job.append(self.job_id)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if raised_key is not None:
                    counters[raised_key] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Wrap every listed function in every seqmeas namespace that binds it."""
        namespaces = [m for n, m in sys.modules.items() if n == "seqmeas" or n.startswith("seqmeas.")]
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                span = f"{module}.{attr}"
                self.layer_of[span] = layer
                raised = f"{module}.raised"
                mod = sys.modules[f"seqmeas.{module}"]
                extra = {}
                if span == "experiments.run_experiment":
                    extra["label"] = lambda args, kwargs: args[0].name
                if span == "quantum_or.run_averaged_or_sampled":
                    extra["rewrite"] = self._wrap_appliers
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, method, self.wrap(cls.__dict__[method], span, raised, COUNT_HOOKS.get(span)))
                    continue
                original = getattr(mod, attr)
                wrapped = self.wrap(original, span, raised, COUNT_HOOKS.get(span), **extra)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)
        self.layer_of[APPLIER] = APPLIER
        np.linalg.eigh = self.wrap(np.linalg.eigh, EIGH, None)

    def _wrap_appliers(self, args):
        appliers = [self.wrap(a, APPLIER, "quantum_or.raised") for a in args[0]]
        return (appliers,) + tuple(args[1:])

    def mark(self) -> int:
        return len(self.start)

    def layer_metrics(self, begin: int, end: int, counters: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics over the spans recorded in [begin, end)."""
        n = end - begin
        # Copies, so no numpy view pins the growing span arrays.
        starts = np.array(self.start[begin:end], dtype=np.float64)
        ends = np.array(self.end[begin:end], dtype=np.float64)
        parents = np.array(self.parent[begin:end], dtype=np.int64)
        names = np.array(self.name[begin:end], dtype=np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent] - begin, weights=dur[has_parent], minlength=n)
        self_time = dur - covered

        # A layer's calls are its entries: spans whose parent lies in another layer.
        layers = sorted(set(self.layer_of.values()))
        layer_index = {layer: i for i, layer in enumerate(layers)}
        layer_of_name = np.array(
            [layer_index.get(self.layer_of.get(full.partition(":")[0]), -1) for full in self.names] or [-1]
        )
        span_layer = layer_of_name[names]
        parent_layer = np.where(has_parent, span_layer[np.where(has_parent, parents - begin, 0)], -2)
        entries = np.bincount(names[span_layer != parent_layer], minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        dur_by_name = np.bincount(names, weights=dur, minlength=len(self.names))

        layer_calls: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        experiment_s: dict[str, float] = defaultdict(float)
        for nid, full in enumerate(self.names):
            span, _, label = full.partition(":")
            layer = self.layer_of.get(span)
            if layer is None:
                continue
            layer_calls[layer] += int(entries[nid])
            layer_self[layer] += float(self_by_name[nid])
            if label:
                experiment_s[label] += float(dur_by_name[nid])

        m: dict[str, float] = {}
        for layer in ("states.validate", "states.eigendecompose", "gates.apply", "gates.gatespec",
                      "measurement.collapse", "measurement.validate", "measurement.naimark",
                      "quantum_or.sample", "quantum_or.exact", "quantum_or.survival",
                      "disturbance.exact", "testers.exact", "testers.sampled", "cli.main"):
            m[f"{layer}.calls"] = layer_calls[layer]
        for layer in list(LAYERS) + [APPLIER]:
            if layer != "rng.trial_rng":
                m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{APPLIER}.calls"] = layer_calls[APPLIER]

        eig_ids = [self.name_ids[s] for s in ("states.eigendecompose",) if s in self.name_ids]
        eigh_id = self.name_ids.get(EIGH, -1)
        eig_mask = np.isin(names, eig_ids)
        eig_total = float(dur[eig_mask].sum())
        eigh_mask = (names == eigh_id) & has_parent
        eigh_in_eig = eigh_mask.copy()
        eigh_in_eig[eigh_mask] = eig_mask[parents[eigh_mask] - begin]
        m["states.eigendecompose.lapack_share"] = float(dur[eigh_in_eig].sum()) / eig_total if eig_total else 0.0

        # eigendecompose calls made (at any depth) inside mw_accept_exact.
        exact_id = self.name_ids.get("quantum_or.mw_accept_exact", -1)
        exact_calls = int((names == exact_id).sum())
        nested = 0
        for i in np.flatnonzero(eig_mask):
            p = parents[i]
            while p >= 0:
                if names[p - begin] == exact_id:
                    nested += 1
                    break
                p = parents[p - begin]
        m["quantum_or.exact.eig_per_call"] = nested / exact_calls if exact_calls else 0.0

        bytes_computed = counters.get("gates.apply.bytes_computed", 0.0)
        m["gates.apply.bytes_computed"] = bytes_computed
        m["gates.apply.flops_per_byte_computed"] = (
            counters.get("gates.apply.flops", 0.0) / bytes_computed if bytes_computed else 0.0
        )
        m["measurement.union_bound.trajectories"] = counters.get("measurement.union_bound.trajectories", 0.0)
        m["quantum_or.sample.trials"] = counters.get("quantum_or.sample.trials", 0.0)
        rounded = counters.get("quantum_or.sample.rounded_trials", 0.0)
        m["quantum_or.sample.rounds_per_trial"] = (
            counters.get("quantum_or.sample.rounds", 0.0) / rounded if rounded else 0.0
        )
        m["disturbance.exact.iterations"] = counters.get("disturbance.exact.iterations", 0.0)
        m["disturbance.sample.trials"] = counters.get("disturbance.sample.trials", 0.0)
        m["testers.joint_bits.commutator_checks"] = counters.get("testers.joint_bits.commutator_checks", 0.0)
        m["testers.and_power.masks"] = counters.get("testers.and_power.masks", 0.0)
        for name in EXPERIMENT_NAMES:
            m[f"experiments.{name}.s"] = experiment_s[name]
        m["rng.trial_rng.calls"] = layer_calls["rng.trial_rng"]
        for module in MODULES:
            m[f"{module}.raised"] = counters.get(f"{module}.raised", 0.0)
        return m

    def save(self, path, pass_bounds: list[tuple[int, int]]) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            pass_bounds=np.array(pass_bounds, dtype=np.int64).reshape(-1, 2),
        )
