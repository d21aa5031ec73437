"""Smoke test of ``tools/command_cost.py`` on a small document.

The tool runs one coneforge command in fresh child processes and prints
its best wall time, the peak resident set of its children and the exit
code of each run.  It runs here as a script, as it is meant to be run.
"""

import os
import subprocess
import sys

from coneforge import cli
from coneforge.catalog import construct
from coneforge.document import dump_algebra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "command_cost.py")


def run_tool(*args):
    proc = subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True, timeout=120)
    fields = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    return proc.returncode, fields, proc.stderr


def test_a_passing_and_a_failing_command(tmp_path):
    path = str(tmp_path / "triple_C.json")
    dump_algebra(construct("triple(C)"), path)
    assert cli.main(["verify", "hsiang", path]) == 0
    code, fields, _ = run_tool("--runs", "2", "--", "verify", "hsiang", path)
    assert code == 0
    assert fields["command"] == f"coneforge verify hsiang {path}"
    assert fields["exit"] == "0 0"
    assert 0 < float(fields["best_s"]) < 60
    assert float(fields["peak_rss_mb"]) > 1
    # a failing verdict is an exit code to report, not a failure of the tool
    code, fields, _ = run_tool("--runs", "1", "verify", "quasicomposition", path)
    assert code == 0 and fields["exit"] == "1"


def test_a_missing_document_and_no_command(tmp_path):
    code, fields, _ = run_tool("--runs", "1", "verify", "hsiang", str(tmp_path / "missing.json"))
    assert code == 0 and fields["exit"] == "2"
    code, _, err = run_tool()
    assert code == 2 and "no coneforge command" in err
