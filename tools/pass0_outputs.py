"""Exit codes and stdout digests of pass 0 of each benchmark workload.

    PYTHONHASHSEED=0 python3 tools/pass0_outputs.py [--seeds 1 2 3] > outputs.txt

For each seed this builds pass 0 of the certify, refute and report
workloads with ``perfbench.inputs.build`` (which it only reads), runs
every job in this process through ``coneforge.cli.main``, and prints one
line per job: workload, seed, job number, exit code (or the exception a
job raised) and the sha256 of its stdout.  Then one line per argv of
``PARSER_CASES`` (help, version, and argv that the parser refuses) gives
the argv, its exit code (a ``SystemExit``'s code) and the sha256 of its
stdout and of its stderr.  Then one line per
``coneforge construct`` case of ``CONSTRUCT_CASES`` (the catalog members
written to stdout, the README's ``from-cubic`` example and three more
cubics given as text) gives its arguments, exit code and stdout digest,
one line per member of ``FLOAT_REPORTS`` does the same for
``coneforge report --peirce --json`` on its document, one line per cubic
of ``NONRADIAL_CUBICS`` for ``coneforge verify nonradial`` (text, which
prints the Gram matrix b) on its ``construct from-cubic`` document, one line per seed
and member of ``SEARCHES`` gives the sha256 of the ``float.hex()`` of
every point and residual that ``numeric.find_idempotent`` (20 restarts)
and every point that ``numeric.nilpotent_search`` returns at that seed,
and a last line for ``coneforge table``.  The documents go to a temporary
directory, whose path is blanked out of the output before hashing, so two
checkouts print the same lines exactly when every job gives the same exit
code and byte-identical stdout (and stderr, for a parser case), and every
search the same floats bit for bit; compare the two printouts with
``diff``.  The script exits 1, after printing every line, when a job or a
search raised or a job exited 3 (an internal inconsistency), so that a
crash two checkouts share cannot pass as an identical output.

BLAS and OpenMP get one thread, as in the benchmark's child interpreter,
so the spectral floats of the report workload do not depend on the box,
and argparse wraps help and usage at 80 columns whatever the terminal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the sources of the table's triples, in its row order
TABLE_SOURCES = ("R", "C", "H", "O", "paraC", "paraH(2)", "cross3", "cross7", "color")
# argv that stop in the parser; <doc> stands for a triple(C) document
PARSER_CASES = (
    ["-h"],
    ["--version"],
    [],
    ["ver", "hsiang"],
    ["verify", "-h"],
    ["report", "-h"],
    ["verify", "hsiang"],
    ["verify", "nonsense", "<doc>"],
    ["verify", "hsiang", "<doc>", "--bogus"],
    ["verify", "hsiang", "<doc>", "--version"],
    ["report", "<doc>", "--seed=x"],
    ["construct", "-o"],
)
# each construct case is the argv after "construct"
CONSTRUCT_CASES = (
    *([name] for name in (*TABLE_SOURCES, "paraH(4)", "paraH(8)")),
    *([f"cartan({d})"] for d in (0, 1, 2, 4, 8)),
    *([f"clifford({p},{q})"] for p, q in ((1, 1), (1, 2), (2, 3), (4, 5), (8, 9), (16, 10))),
    # an odd factor of p (3, 48), and families that recurse four steps down (32, 64)
    *([f"clifford({p},{q})"] for p, q in ((3, 2), (48, 10), (32, 11), (64, 13))),
    *([f"triple({name})"] for name in TABLE_SOURCES),
    ["from-cubic", "--cubic", "1*x1^2*x2"],
    # polynomial text at the CLI boundary: a leading '-' after '=', a
    # Q(sqrt 3) coefficient, and a separate value with spaces
    ["from-cubic", "--cubic=-1*x1^3"],
    ["from-cubic", "--cubic=-1/2+1r3*x1^2*x2+x2^3"],
    ["from-cubic", "--cubic", "x1^3 - 3*x1*x2^2"],
)
# the catalog members whose report --peirce takes numeric.peirce's float
# route, which no benchmark job reaches
FLOAT_REPORTS = ("clifford(2,1)", "clifford(4,1)", "clifford(16,1)")
# cubics whose verify nonradial text prints b off-diagonal, b diagonal with
# a negative entry, and a radial theta
NONRADIAL_CUBICS = ("1*x1^2*x2+1*x1*x2*x3", "1*x1^2*x3+1*x2^2*x3", "1*x1*x2*x3")
# the catalog members whose float searches get a digest line per seed
SEARCHES = ("triple(O)", "cartan(8)", "clifford(8,9)", "clifford(16,1)")


def run(cli, argv: list[str], directory: str) -> tuple[str, str, str]:
    """(exit code or exception, sha256 of stdout, sha256 of stderr) of one
    CLI command; a SystemExit, as the parser raises, gives its code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(cli.main(argv))
    except SystemExit as exc:
        code = str(exc.code)
    except Exception as exc:  # a crashing job is reported, not fatal
        code = f"{type(exc).__name__}: {exc}"
    texts = (out.getvalue(), err.getvalue())
    return code, *(hashlib.sha256(t.replace(directory, "<dir>").encode()).hexdigest() for t in texts)


def search_digest(name: str, seed: int) -> tuple[str, str]:
    """(0 or the exception raised, sha256 of the float.hex() of every point
    and residual of find_idempotent at 20 restarts and every point of
    nilpotent_search) on the catalog member name."""
    from coneforge import numeric
    from coneforge.catalog import construct

    try:
        alg = construct(name)
        pairs = numeric.find_idempotent(alg, restarts=20, seed=seed)
        values = [v for c, residual in pairs for v in (*c, residual)]
        values += [v for x in numeric.nilpotent_search(alg, seed=seed) for v in x]
    except Exception as exc:  # a crashing search is reported, not fatal
        return f"{type(exc).__name__}: {exc}", hashlib.sha256(b"").hexdigest()
    return "0", hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    # before numpy is first imported
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    os.environ["COLUMNS"] = "80"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs  # perfbench/inputs.py
    from coneforge import cli

    codes = []
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            for workload in inputs.WORKLOADS:
                directory = os.path.join(work, f"{workload}-{seed}")
                for number, job in enumerate(inputs.build(workload, seed, directory, 0)):
                    code, digest, _ = run(cli, job.argv, directory)
                    codes.append(code)
                    print(workload, seed, number, code, digest)
        doc = os.path.join(work, "parser-case.json")
        run(cli, ["construct", "triple(C)", "-o", doc], work)
        for case in PARSER_CASES:
            code, out, err = run(cli, [doc if t == "<doc>" else t for t in case], work)
            codes.append(code)
            print("parser", *case, code, out, err)
        for case in CONSTRUCT_CASES:
            code, digest, _ = run(cli, ["construct", *case], work)
            codes.append(code)
            print("construct", " ".join(case), code, digest)
        for name in FLOAT_REPORTS:
            path = os.path.join(work, f"{name}.json")
            run(cli, ["construct", name, "-o", path], work)
            code, digest, _ = run(cli, ["report", "--peirce", "--json", path], work)
            codes.append(code)
            print("report --peirce --json", name, code, digest)
        for number, cubic in enumerate(NONRADIAL_CUBICS):
            path = os.path.join(work, f"cubic-{number}.json")
            run(cli, ["construct", "from-cubic", "--cubic", cubic, "-o", path], work)
            code, digest, _ = run(cli, ["verify", "nonradial", path], work)
            codes.append(code)
            print("verify nonradial", cubic, code, digest)
        for name in SEARCHES:
            for seed in args.seeds:
                code, digest = search_digest(name, seed)
                codes.append(code)
                print("search", name, seed, code, digest)
        code, digest, _ = run(cli, ["table"], work)
        codes.append(code)
        print("table", code, digest)
    # an exit code is a digit string; an exception is printed in its place
    return 1 if any(not code.isdigit() or code == "3" for code in codes) else 0


if __name__ == "__main__":
    sys.exit(main())
