"""No exact command imports numpy.

Only the float spectral layer, ``numeric``, needs floats.  The package
root resolves its six names on first access (PEP 562), and ``analysis``
imports ``numeric`` only when the exact Peirce route finds no small-support
idempotent and the float search decides.  So ``import coneforge``, every
exact command, ``table``, and ``report --peirce`` on a catalog member
whose walk finds one, such as triple(C), run without numpy; a rotated copy
of triple(C), where the walk misses, loads it.  Each case runs in a fresh interpreter, because a
module once imported stays in ``sys.modules`` for the rest of a process.
"""

import json
import os
import subprocess
import sys

import pytest

import coneforge
from coneforge import construct, dump_algebra
from oracles import isometric_copy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NUMERIC_NAMES = ["MutationReport", "PeirceData", "find_idempotent", "jordan_mutation", "nilpotent_search", "peirce"]

PRELUDE = """
import contextlib, io, json, sys
import coneforge, coneforge.cli
from coneforge import cli
seen = {"import coneforge, coneforge.cli": [None, "numpy" in sys.modules]}

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    seen[" ".join(argv)] = [code, "numpy" in sys.modules]

run("construct", "triple(C)", "-o", "tc.json")
"""

# each exact command, with the exit code that shows it ran its check
EXACT_COMMANDS = {
    "construct C -o c.json": 0,
    "construct clifford(1,2) -o cl.json": 0,
    "construct from-cubic --cubic 1*x1^2*x2 -o fc.json": 0,
    "verify hsiang tc.json": 0,
    "verify quasicomposition c.json": 0,
    "verify quasicomposition tc.json": 1,
    "verify polar cl.json --zero-block 2,3": 0,
    "verify eikonal fc.json": 1,
    "verify eikonal tc.json": 1,
    "report tc.json": 0,
    "report fc.json --json": 0,
    "report tc.json --peirce": 0,
    "table": 0,
}


def run_python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_exact_command_imports_numpy(tmp_path):
    calls = "".join(f"run(*{command.split()!r})\n" for command in EXACT_COMMANDS)
    seen = run_python(PRELUDE + calls + "print(json.dumps(seen))", tmp_path)
    expected = {"import coneforge, coneforge.cli": [None, False], "construct triple(C) -o tc.json": [0, False]}
    expected.update((command, [code, False]) for command, code in EXACT_COMMANDS.items())
    assert seen == expected


def test_report_peirce_loads_numpy(tmp_path):
    # triple(C) rotated in the plane of e_0 and e_1: the small-support walk
    # misses, so the float search decides and numpy is loaded
    n = construct("triple(C)").dim
    dump_algebra(isometric_copy(construct("triple(C)"), range(n), [1] * n, (0, 1)), str(tmp_path / "rot.json"))
    code = 'run("report", "tc.json", "--peirce")\nrun("report", "rot.json", "--peirce")\nprint(json.dumps(seen))'
    seen = run_python(PRELUDE + code, tmp_path)
    assert seen["construct triple(C) -o tc.json"] == [0, False]
    assert seen["report tc.json --peirce"] == [0, False]
    assert seen["report rot.json --peirce"] == [0, True]


def test_the_spectral_names_resolve_to_numeric_on_first_use(tmp_path):
    code = """
import json, sys
import coneforge
before = "numpy" in sys.modules
same = coneforge.peirce is coneforge.numeric.peirce
print(json.dumps([before, "numpy" in sys.modules, same, "peirce" in vars(coneforge)]))
"""
    # numeric is imported on first access, and its attribute is not bound
    # into the package, so a wrapped numeric.peirce is what callers see
    assert run_python(code, tmp_path) == [False, True, True, False]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coneforge import *", namespace)
    assert set(coneforge.__all__) <= set(namespace)
    for name in NUMERIC_NAMES:
        assert namespace[name] is getattr(coneforge.numeric, name)


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'coneforge' has no attribute 'nope'"):
        coneforge.nope
