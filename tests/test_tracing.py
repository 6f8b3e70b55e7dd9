"""The benchmark's span recorder wraps seqmeas functions by name; every name
it lists must still resolve, or tracing a run fails at install time.

``perfbench/tracer.py`` is read as text and its ``LAYERS`` table evaluated as
a literal, and the library calls of ``perfbench/workloads.py`` are read from
its syntax tree, so nothing from the benchmark is imported or executed.
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


WORKLOADS = TRACER.parent / "workloads.py"


def _workload_calls():
    """Every call shape of ``perfbench/workloads.py`` into seqmeas, read
    from its syntax tree, as sorted distinct (callee, positional count,
    keyword names).

    A callee is reached through a seqmeas module the file imports (``seqmeas``
    itself, ``from seqmeas import testers``) or a name it imports from one
    (``from seqmeas.states import PureState``), and is given as that path
    (``seqmeas.eigen_test``, ``testers.membership_accept_exact``,
    ``PureState``)."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "seqmeas":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seqmeas":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                except ImportError:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = full
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            callee = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            callee = f"{func.value.id}.{func.attr}"
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), f"line {node.lineno}: starred argument"
        assert all(k.arg is not None for k in node.keywords), f"line {node.lineno}: ** argument"
        calls.add((callee, len(node.args), tuple(sorted(k.arg for k in node.keywords))))
    return modules, names, sorted(calls)


WORKLOAD_MODULES, WORKLOAD_NAMES, WORKLOAD_CALLS = _workload_calls()


def _resolve(callee):
    """The library object a workload callee names."""
    head, _, attr = callee.partition(".")
    if not attr:
        module, name = WORKLOAD_NAMES[head]
        return getattr(importlib.import_module(module), name)
    return getattr(importlib.import_module(WORKLOAD_MODULES[head]), attr)


@pytest.mark.parametrize(
    "callee,positional,keywords", WORKLOAD_CALLS, ids=["-".join([c[0], str(c[1]), *c[2]]) for c in WORKLOAD_CALLS]
)
def test_workload_call_shapes_bind(callee, positional, keywords):
    """A rename, or a signature change that breaks a benchmark call, fails
    here, not in the benchmark run.  The callee must be the very object its
    defining seqmeas module binds: the recorder rebinds only names whose
    value *is* the function it wraps, so a re-export that became a copy
    would leave the benchmark's calls through it untraced."""
    fn = _resolve(callee)
    assert fn.__module__.split(".")[0] == "seqmeas", f"{callee} is defined in {fn.__module__}"
    assert fn is getattr(importlib.import_module(fn.__module__), fn.__name__)
    args = [f"arg{i}" for i in range(positional)]
    inspect.signature(fn).bind(*args, **{k: k for k in keywords})


def test_workload_calls_cover_the_benchmark():
    """The parse finds every library call shape the benchmark makes, so a
    parser that found none could not pass vacuously."""
    assert {
        ("testers.eigen_or_accept_exact", 3, ("method",)),
        ("testers.membership_accept_exact", 3, ()),
        ("testers.genuine_ent_accept_exact", 3, ()),
        ("seqmeas.eigen_tester_state", 2, ()),
        ("seqmeas.analytic_eigen_accept", 3, ()),
        ("seqmeas.eigen_measurement_cycle", 4, ("rng",)),
        ("seqmeas.eigen_test", 4, ("copies_k",)),
        ("seqmeas.ghz_state", 1, ()),
        ("cli.main", 1, ()),
    } <= set(WORKLOAD_CALLS)


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
