"""Tests of the benchmark's own parts: generator, output check and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import check  # noqa: E402
import inputs  # noqa: E402
from coneforge import analysis, cli, cubic  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _copy(tmp_path, name, seed=5):
    """Path of one signed-permutation copy of a catalog member."""
    writer = inputs._Writer(str(tmp_path), random.Random(seed))
    return writer.copy(writer.member(name))[0]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = inputs.build(workload, 3, str(tmp_path / "a"))
    again = inputs.build(workload, 3, str(tmp_path / "b"))
    assert inputs.digest(first) == inputs.digest(again)
    for x, y in zip(first, again):
        with open(x.doc, "rb") as fx, open(y.doc, "rb") as fy:
            assert fx.read() == fy.read()
    other_seed = inputs.build(workload, 4, str(tmp_path / "c"))
    other_pass = inputs.build(workload, 3, str(tmp_path / "d"), pass_index=1)
    assert inputs.digest(other_seed) != inputs.digest(first)  # the program's --seed at least
    # report documents are as construct writes them, the same in every pass
    assert (inputs.digest(other_pass) != inputs.digest(first)) == (workload != "report")


def test_permuted_copies_are_distinct_documents_in_every_pass(tmp_path):
    contents = set()
    count = 0
    for pass_index in range(2):
        jobs = inputs.build("certify", 1, str(tmp_path / str(pass_index)), pass_index)
        for job in jobs:
            with open(job.doc, "rb") as handle:
                contents.add(handle.read())
        count += len(jobs)
    assert len(contents) == count


def test_check_accepts_true_verdicts_and_rejects_a_flipped_theta(tmp_path):
    path = _copy(tmp_path, "triple(C)")
    job = inputs.Job(["verify", "hsiang", path, "--json"], path, {"pass": True, "family": "triple", "source": "C"})
    code, out = _run(job.argv)
    assert check.check(job, code, out) is None
    flipped = out.replace('"theta": "4/3"', '"theta": "3/4"')
    assert flipped != out
    assert check.check(job, code, flipped) is not None


def test_check_rejects_a_perturbed_witness(tmp_path):
    path = _copy(tmp_path, "triple(C)")
    job = inputs.Job(["verify", "quasicomposition", path, "--json"], path, {"pass": False})
    code, out = _run(job.argv)
    assert code == 1 and check.check(job, code, out) is None
    verdict = json.loads(out)
    x, y = verdict["witness"]
    verdict["witness"] = [["0"] * len(x), y]  # the identity holds at x = 0
    assert check.check(job, code, json.dumps(verdict)) is not None


def test_check_rejects_a_hsiang_witness_out_of_range(tmp_path):
    path = _copy(tmp_path, "triple(RxR)")
    job = inputs.Job(["verify", "hsiang", path, "--json"], path, {"pass": False})
    code, out = _run(job.argv)
    assert code == 1 and check.check(job, code, out) is None
    verdict = json.loads(out)
    verdict["witness"] = [99] * len(verdict["witness"])
    assert check.check(job, code, json.dumps(verdict)) is not None


def test_check_rejects_a_wrong_exit_code(tmp_path):
    path = _copy(tmp_path, "triple(C)")
    job = inputs.Job(["verify", "quasicomposition", path, "--json"], path, {"pass": False})
    code, out = _run(job.argv)
    assert check.check(job, code, out) is None
    assert check.check(job, 0, out) is not None
    assert check.check(job, 2, out) is not None


def test_tracer_sees_poly_product_spans_inside_a_hsiang_job(tmp_path):
    path = _copy(tmp_path, "triple(C)")
    original = cubic.poly_product
    tracer = Tracer()
    tracer.install()
    try:
        assert analysis.poly_product is not original  # the name analysis bound is wrapped too
        tracer.job = 7
        code, _ = _run(["verify", "hsiang", path, "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cubic.poly_product is original and analysis.poly_product is original
    by_id = {span[0]: span for span in tracer.spans}
    products = [span for span in tracer.spans if span[1] == "cubic.poly_product"]
    assert products
    for span in products:
        assert span[5] == 7
        ancestors = []
        parent = span[4]
        while parent is not None:
            ancestors.append(by_id[parent][1])
            parent = by_id[parent][4]
        assert "analysis.radial" in ancestors and ancestors[-1] == "cli.main"
    metrics = tracer.metrics()
    assert metrics["cubic.poly_product_calls"] == len(products)
    assert metrics["numeric.einsum_calls"] == 0
