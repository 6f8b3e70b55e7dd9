"""The library's only declared dependency is numpy: every module of
``src/seqmeas`` imports from the standard library, numpy and seqmeas alone.
Other packages (scipy among them) may be installed where the suite runs, so
a stray import would pass here and fail on a clean install."""

import ast
import sys
from pathlib import Path

import pytest

import seqmeas

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqmeas"}
MODULES = sorted(Path(seqmeas.__file__).parent.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "quantum_or.py", "testers.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_seqmeas(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots <= ALLOWED, sorted(roots - ALLOWED)


def test_the_check_catches_a_stray_import():
    source = "import numpy as np\nfrom scipy import linalg\nimport matplotlib.pyplot\nfrom . import states\n"
    assert imported_roots(ast.parse(source)) - ALLOWED == {"scipy", "matplotlib"}
