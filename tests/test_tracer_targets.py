"""The benchmark wraps and calls coneforge names by attribute lookup.

`perfbench/tests` runs outside this suite, so a renamed or deleted name
would pass here and break only a benchmark run.  These tests keep in
place every name the tracer wraps, and every coneforge name that the
benchmark's input builder and output check use.
"""

import ast
import importlib
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from coneforge.catalog import construct  # noqa: E402
from perfbench import tracer  # noqa: E402


def test_every_traced_name_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.TARGETS
        if not hasattr(owner, attr)
    ]
    assert missing == []


def benchmark_uses(path):
    """(module, name) for each coneforge name the file imports or reads
    off an imported coneforge module, and the attributes it reads off
    `alg`."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = {}  # local name -> imported coneforge module
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "coneforge":
            for alias in node.names:
                uses.add((node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "coneforge":
                    modules[alias.asname or alias.name] = alias.name
    alg_attrs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                uses.add((modules[node.value.id], node.attr))
            elif node.value.id == "alg":
                alg_attrs.add(node.attr)
    return uses, alg_attrs


def test_every_name_the_benchmark_calls_exists():
    uses, alg_attrs = set(), set()
    for name in ("check.py", "inputs.py"):
        file_uses, file_attrs = benchmark_uses(os.path.join(ROOT, "perfbench", name))
        uses |= file_uses
        alg_attrs |= file_attrs
    # the walk sees the calls it is meant to guard
    assert {("coneforge.catalog", "construct"), ("coneforge.cubic", "algebra_from_cubic")} <= uses
    assert {"multiply", "h", "metric", "involution"} <= alg_attrs
    missing = sorted(f"{module}.{name}" for module, name in uses if not hasattr(importlib.import_module(module), name))
    alg = construct("H")  # an Algebra with an involution, so every attribute is set
    missing += sorted(f"alg.{name}" for name in alg_attrs if not hasattr(alg, name))
    assert missing == []
