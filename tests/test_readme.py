"""The README's library example runs as printed, and its references into
the package name objects that exist."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import seqmeas

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    exact, single, rate = capsys.readouterr().out.split()
    assert abs(float(exact) - 0.983) < 5e-4
    assert single in ("True", "False")
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / 2000)
    assert abs(float(rate) - float(exact)) <= 4 * sigma


def _package_references() -> list[str]:
    """Every backticked `module.name` in the README (a call's argument list
    dropped) whose head is a seqmeas module, with or without the package
    prefix; file names such as `quantum_or.py` are skipped."""
    modules = {m.name for m in pkgutil.iter_modules(seqmeas.__path__)}
    refs = re.findall(r"`(?:seqmeas\.)?([A-Za-z_]\w*(?:\.\w+)+)(?:\(.*?\))?`", README.read_text())
    return sorted({ref for ref in refs if ref.split(".")[0] in modules and not ref.endswith(".py")})


def _resolves(ref: str) -> bool:
    head, *names = ref.split(".")
    target = importlib.import_module(f"seqmeas.{head}")
    for name in names:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def test_package_references_resolve():
    refs = _package_references()
    assert len(refs) >= 50 and "quantum_or._Survivors.halting_steps" in refs
    assert [ref for ref in refs if not _resolves(ref)] == []
