"""Smoke test over pass 0 of the benchmark's workloads at seed 1.

``perfbench/inputs.py`` builds the documents and the job lists, and is
only read here, as ``tools/pass0_outputs.py`` reads it.  Every certify,
refute and report job and ``coneforge table`` run through ``cli.main``
in this process: none may raise or meet an internal inconsistency (exit
3), and every certify job passes.  ``tools/pass0_outputs.py`` itself must
print a digest line for each of its ``construct`` cases, then one for
each of its float-route reports and one per seed for each of its float
searches, before the ``table`` line, and exit 1 when a job raised or
exited 3.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys

import pytest

from coneforge import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "perfbench", "inputs.py")
TOOL = os.path.join(ROOT, "tools", "pass0_outputs.py")


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("workload", ["certify", "refute", "report"])
def test_pass0_jobs_exit_cleanly(inputs, workload, tmp_path):
    jobs = inputs.build(workload, 1, str(tmp_path), 0)
    assert jobs
    codes = [run(job.argv) for job in jobs]
    assert all(code in (0, 1) for code in codes), codes
    if workload == "certify":
        assert set(codes) == {0}, codes


def test_table_matches_every_row():
    assert run(["table"]) == 0


@pytest.mark.parametrize("failure, status", [(None, 0), ("raise", 1), (3, 1), (2, 0)])
def test_pass0_outputs_exits_1_after_a_crash_or_an_inconsistency(monkeypatch, capsys, failure, status):
    # the tool prints every line first; a job that raised or exited 3 makes
    # its exit status 1, so a crash shared by two checkouts cannot pass
    spec = importlib.util.spec_from_file_location("pass0_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src and perfbench
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")

    real_main = cli.main

    def fake_main(argv):
        # the tool's own cases run for real; its reports put the options first
        if argv[0] == "construct" or argv[:3] == ["report", "--peirce", "--json"]:
            return real_main(argv)
        if argv[0] == "table" and failure is not None:
            if failure == "raise":
                raise RuntimeError("shared crash")
            return failure
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    assert tool.main(["--seeds", "1"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("table ") and len(lines) > 3
    # the construct cases and the float-route reports run for real: each
    # prints a document or a report and exits 0
    cases = [["construct", *case] for case in tool.CONSTRUCT_CASES]
    cases += [["report", "--peirce", "--json", name] for name in tool.FLOAT_REPORTS]
    # then a digest of the float searches on each member, at the one seed
    searches = [["search", name, "1"] for name in tool.SEARCHES]
    assert len(cases) == 38 and len(searches) == 4
    empty = hashlib.sha256(b"").hexdigest()
    printed = lines[-1 - len(cases) - len(searches):-1]
    for case, line in zip(cases + searches, printed):
        assert line.startswith(" ".join([*case, "0"]) + " ")
        assert len(line.split()[-1]) == 64 and not line.endswith(empty)
    if failure == "raise":
        assert "RuntimeError: shared crash" in lines[-1]
