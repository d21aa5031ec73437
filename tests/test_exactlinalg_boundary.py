"""Only ``algebra`` imports the dense Scalar matrix layer.

Every identity is decided on the integer kernel ``_zpoly``; the Gram
matrices of the outputs are read off its rows by ``_zpoly.to_matrix``.
``exactlinalg`` stays behind ``algebra``'s Scalar views (the metric, its
LDL factors, ``sigma`` and ``h``), and this test keeps every other module
of ``coneforge`` off it.
"""

import ast
import os

import coneforge

PACKAGE = os.path.dirname(os.path.abspath(coneforge.__file__))
ALLOWED = {"algebra.py"}


def exactlinalg_imports(source: str) -> list[int]:
    """Lines of the imports of exactlinalg in source, relative or absolute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        if any(name.split(".")[-1] == "exactlinalg" for name in names):
            lines.append(node.lineno)
    return lines


def test_only_algebra_imports_exactlinalg():
    importers = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py") and filename != "exactlinalg.py":
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
                lines = exactlinalg_imports(handle.read())
            if lines:
                importers[filename] = lines
    assert set(importers) == ALLOWED, importers


def test_the_guard_sees_each_kind_of_import():
    source = (
        "from . import exactlinalg as xl\n"
        "from .exactlinalg import rref\n"
        "import coneforge.exactlinalg\n"
        "from coneforge import exactlinalg\n"
        "from coneforge.exactlinalg import identity\n"
        "from . import _zpoly\n"
        "from .algebra import Algebra\n"
    )
    assert exactlinalg_imports(source) == [1, 2, 3, 4, 5]
