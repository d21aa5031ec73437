"""Smoke test over pass 0 of the benchmark's workloads at seed 1.

``perfbench/inputs.py`` builds the documents and the job lists, and is
only read here, as ``tools/pass0_outputs.py`` reads it.  Every certify,
refute and report job and ``coneforge table`` run through ``cli.main``
in this process: none may raise or meet an internal inconsistency (exit
3), and every certify job passes.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from coneforge import cli

INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py")


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
