"""Golden outputs of the exact verdicts, replayed through the command line.

``tests/data/exact_outputs.json`` holds the stdout and exit code of every
``verify`` check (``--json``, and text mode for ``polar`` and ``killing``,
whose lines carry the kappa ratio) and of ``report --json`` on each
catalog member of dimension at most 24, on the polar algebras with a
wrong zero block, on two seeded random cubics over Q(sqrt 3), on two
seeded random tables that are not metrized and on the README's
``construct from-cubic`` example.  Together they pin the
witness triples, lhs/rhs values, kappa ratios, defects and omega strings
of the exact layer.

Regenerate the file, only when an output is meant to change, with

    python tests/test_exact_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coneforge import catalog, cli  # noqa: E402
from coneforge.algebra import Algebra  # noqa: E402
from coneforge.cubic import algebra_from_cubic  # noqa: E402
from coneforge.document import dump_algebra  # noqa: E402
from coneforge.polynomials import Polynomial, parse_polynomial  # noqa: E402
from coneforge.scalars import Scalar  # noqa: E402

DATA = os.path.join(HERE, "data", "exact_outputs.json")

MEMBERS = (
    "R", "C", "H", "O", "paraC", "paraH(2)", "paraH(4)", "paraH(8)",
    "cross3", "cross7", "color",
    "clifford(1,2)", "clifford(2,3)", "clifford(4,5)",
    "cartan(0)", "cartan(1)", "cartan(2)", "cartan(4)",
    "triple(R)", "triple(C)", "triple(H)", "triple(O)", "triple(paraC)",
    "triple(paraH(2))", "triple(cross3)", "triple(cross7)", "triple(color)",
)
# (label, seed, number of variables)
RANDOM_CUBICS = (("cubic-a", 11, 6), ("cubic-b", 12, 8))
# (label, seed, dimension) of random tables with an involution and an
# indefinite metric, which are not metrized
RANDOM_TABLES = (("table-a", 21, 4), ("table-b", 22, 5))
FROM_CUBIC = "1*x1^2*x2"
CHECKS = ("metrized", "hsiang", "nonradial", "quasicomposition", "killing", "eikonal", "cartan-munzner")
TEXT_CHECKS = ("killing",)


def random_cubic(seed: int, n: int) -> Polynomial:
    """Cubic in n variables with about 3n/2 terms, coefficients with
    denominators up to 3 and sqrt 3 parts."""
    rng = random.Random(seed)
    terms: dict[tuple, Scalar] = {}
    while len(terms) < n + n // 2:
        exps = [0] * n
        for _ in range(3):
            exps[rng.randrange(n)] += 1
        a = Scalar(rng.choice((-3, -2, -1, 1, 2, 3))) / Scalar(rng.choice((1, 2, 3)))
        terms[tuple(exps)] = a + Scalar(0, rng.choice((-1, 0, 1, 2)))
    return Polynomial(n, terms)


def random_table(seed: int, n: int, label: str) -> Algebra:
    """Sparse noncommutative table with denominators up to 4 and sqrt 3
    parts, metric diag(1, -1, 2, ...) and a diagonal involution."""
    rng = random.Random(seed)
    entries = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n),
         Scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))), rng.choice((-1, 0, 0, 1))))
        for _ in range(2 * n)
    ]
    metric = [[Scalar((1, -1, 2)[i % 3]) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    involution = [[Scalar(rng.choice((1, -1))) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    return Algebra(n, entries, metric=metric, involution=involution, name=label)


def documents():
    """(label, algebra) for every document the golden file covers."""
    for name in MEMBERS:
        yield name, lambda name=name: catalog.construct(name)
    for label, seed, n in RANDOM_CUBICS:
        yield label, lambda label=label, seed=seed, n=n: algebra_from_cubic(random_cubic(seed, n), name=label)
    for label, seed, n in RANDOM_TABLES:
        yield label, lambda label=label, seed=seed, n=n: random_table(seed, n, label)
    yield "from-cubic", lambda: algebra_from_cubic(parse_polynomial(FROM_CUBIC), name="from-cubic")


def commands(label: str, alg) -> list[list[str]]:
    """argv lists for one document, with DOC standing for its path."""
    out = [["verify", check, "DOC", "--json"] for check in CHECKS]
    out += [["verify", check, "DOC"] for check in TEXT_CHECKS]
    if label.startswith("clifford("):
        block = catalog.polar_zero_block(alg)
        right = ",".join(map(str, block))
        out += [
            ["verify", "polar", "DOC", "--zero-block", right, "--json"],
            ["verify", "polar", "DOC", "--zero-block", right],
            # a vector of the y-block squares into the z-block, never to zero
            ["verify", "polar", "DOC", "--zero-block", "0", "--json"],
            ["verify", "polar", "DOC", "--zero-block", "0"],
            ["verify", "polar", "DOC", "--zero-block", ",".join(map(str, block[:1])), "--json"],
        ]
    out.append(["report", "DOC", "--json"])
    return out


def run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


def replay(label: str, make, directory: str) -> list[dict]:
    alg = make()
    path = os.path.join(directory, "doc.json")
    dump_algebra(alg, path)
    results = []
    for argv in commands(label, alg):
        stdout, code = run([path if a == "DOC" else a for a in argv])
        results.append({"argv": argv, "stdout": stdout, "exit": code})
    return results


def _golden() -> dict:
    with open(DATA) as handle:
        return json.load(handle)


@pytest.mark.parametrize("label, make", list(documents()), ids=[label for label, _ in documents()])
def test_outputs_match_golden(label, make, tmp_path):
    assert replay(label, make, str(tmp_path)) == _golden()[label]


def test_golden_covers_every_document():
    assert sorted(_golden()) == sorted(label for label, _ in documents())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        golden = {label: replay(label, make, directory) for label, make in documents()}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, golden.values()))} outputs for {len(golden)} documents to {DATA}")
