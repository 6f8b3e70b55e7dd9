"""The benchmark's span recorder wraps seqmeas functions by name; every name
it lists must still resolve, or tracing a run fails at install time.

``perfbench/tracer.py`` is read as text and its ``LAYERS`` table evaluated as
a literal, so nothing from the benchmark is imported or executed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


LAYERS = _literal("LAYERS")
TARGETS = sorted({target for targets in LAYERS.values() for target in targets})


def test_modules_resolve():
    for module in _literal("MODULES"):
        importlib.import_module(f"seqmeas.{module}")


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_layer_target_resolves(module, attr):
    mod = importlib.import_module(f"seqmeas.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(mod, cls_name)), f"{attr} is not defined on the class"
    else:
        assert callable(getattr(mod, attr))


def test_averaged_sampler_takes_appliers_first():
    """The recorder wraps each applier by rewriting the first positional argument."""
    from seqmeas.quantum_or import run_averaged_or_sampled

    assert next(iter(inspect.signature(run_averaged_or_sampled).parameters)) == "appliers"


def test_exact_eigen_oracle_takes_joint_method():
    """The benchmark's exact interference jobs pass ``method="joint"``."""
    import numpy as np

    from seqmeas import PureState, RegisterShape
    from seqmeas.testers import eigen_or_accept_exact

    psi = PureState(RegisterShape((2,)), np.array([1.0, 0.0]))  # fixed by Z and by I
    family = [np.diag([1.0, -1.0]), np.eye(2)]
    assert abs(eigen_or_accept_exact(family, psi, 3, method="joint") - 1.0) <= 1e-12


# The library call shapes of ``perfbench/workloads.py``, as (module, function,
# positional arguments, keyword arguments); only the names are bound.
WORKLOAD_CALLS = [
    ("testers", "eigen_or_accept_exact", ("family", "psi", "k"), {"method": "joint"}),
    ("testers", "membership_accept_exact", ("candidates", "psi", "k"), {}),
    ("testers", "genuine_ent_accept_exact", ("psi", "n", "k"), {}),
    ("testers", "eigen_tester_state", ("psi", "k"), {}),
    ("testers", "analytic_eigen_accept", ("u", "psi", "k"), {}),
    ("testers", "eigen_measurement_cycle", ("phi", "u", "shape", "k"), {"rng": "rng"}),
    ("testers", "eigen_test", ("family", "psi", "eps", "rng"), {"copies_k": "k"}),
    ("states", "ghz_state", ("n",), {}),
]


@pytest.mark.parametrize("module,name,args,kwargs", WORKLOAD_CALLS, ids=[c[1] for c in WORKLOAD_CALLS])
def test_workload_call_shapes_bind(module, name, args, kwargs):
    """A signature change that breaks a benchmark call fails here, not in the benchmark run."""
    import seqmeas

    fn = getattr(importlib.import_module(f"seqmeas.{module}"), name)
    assert getattr(seqmeas, name) is fn
    inspect.signature(fn).bind(*args, **kwargs)


# The arguments the count hooks of ``perfbench/tracer.py`` read, as (module,
# function, positional arguments, keyword arguments, parameter): the hook reads
# the value passed for `parameter` from exactly that position or keyword
# (``joint_projector_bits``: the projector list, first positional;
# ``and_power_distribution``: ``n_bits``, keyword or second positional;
# ``exact_sequential_accept``: the instance, first positional;
# ``run_sequential_sampled_batch``: ``trials``, keyword or third positional).
HOOK_CALLS = [
    ("testers", "joint_projector_bits", ("projectors", "vector"), {}, "projectors"),
    ("testers", "and_power_distribution", ("atoms", "n_bits", "factors"), {}, "n_bits"),
    ("testers", "and_power_distribution", ("atoms",), {"n_bits": "n_bits", "factors": "factors"}, "n_bits"),
    ("disturbance", "exact_sequential_accept", ("inst",), {}, "inst"),
    ("disturbance", "run_sequential_sampled_batch", ("inst", "rng", "trials"), {}, "trials"),
    ("disturbance", "run_sequential_sampled_batch", ("inst", "rng"), {"trials": "trials"}, "trials"),
]


@pytest.mark.parametrize(
    "module,name,args,kwargs,parameter",
    HOOK_CALLS,
    ids=[f"{c[1]}-{len(c[2])}-positional" for c in HOOK_CALLS],
)
def test_count_hook_arguments_bind(module, name, args, kwargs, parameter):
    """A signature change that moves an argument a count hook reads fails here,
    not in a ``--trace 1`` run."""
    fn = getattr(importlib.import_module(f"seqmeas.{module}"), name)
    assert inspect.signature(fn).bind(*args, **kwargs).arguments[parameter] == parameter
