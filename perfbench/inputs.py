"""Seeded inputs for the three workloads.

``build(workload, seed, directory, pass_index)`` writes the documents of
one pass into ``directory`` and returns the workload's fixed job list.
Each pass draws from its own random stream, keyed by the seed and the pass
index: the same pair gives byte-identical documents and the same argument
lists, and two passes of one run get different documents wherever the
workload permutes them.  ``digest`` hashes documents and arguments,
without the directory, so two runs can be shown to use the same data.

* certify: one signed-permutation copy of a catalog member per job, with a
  neutral name, so no two jobs, and no two passes, read the same document.
* refute: seeded random cubic forms over Q(sqrt 3) plus permuted copies of
  the catalog negative controls.
* report: catalog documents exactly as ``coneforge construct`` writes them,
  plus the README's ``construct from-cubic`` example; these are the same
  in every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass

# Program functions are called through their modules, so that a traced
# build goes through the tracer's wrappers.
from coneforge import catalog, cli, cubic, document
from coneforge.algebra import Algebra
from coneforge.polynomials import Polynomial
from coneforge.scalars import Scalar

WORKLOADS = ("certify", "refute", "report")

# The largest members (triple(O), triple(cross7), cartan(8), clifford(8,9))
# take 3-16 s per verdict, and a pass must repeat several times inside one
# run, so the passes stop at the mid-size members.  The smallest (R,
# cartan(0)) take milliseconds and would only crowd the median, so certify
# leaves them out.  Every job list has an odd length: the median job time is
# then one job's time, not the mean of two neighbours of different size.
CERTIFY = (
    ("hsiang", (
        "triple(C)", "triple(H)", "triple(paraC)", "triple(paraH(2))", "triple(cross3)",
        "triple(color)", "clifford(1,2)", "clifford(2,3)", "clifford(4,5)",
        "cartan(1)", "cartan(2)", "cartan(4)",
    )),
    ("quasicomposition", ("H", "O", "cross3", "cross7", "color")),
    ("polar", ("clifford(1,2)", "clifford(2,3)", "clifford(4,5)")),
    ("killing", ("triple(C)", "triple(H)", "triple(cross3)", "triple(color)")),
    ("eikonal", ("paraC", "cartan(1)", "cartan(2)", "cartan(4)")),
    ("cartan-munzner", ("cartan(1)", "cartan(2)", "cartan(4)")),
)
# checks whose text output, not --json, carries the values to check
TEXT_CHECKS = ("polar", "killing")

# (dimension, checks) of the random cubics: nonradial only where the
# output check can afford its exact refutation
REFUTE_CUBICS = (
    (6, ("hsiang", "nonradial", "quasicomposition", "eikonal", "killing")),
    (7, ("hsiang", "nonradial", "quasicomposition", "eikonal", "killing")),
    (8, ("hsiang", "nonradial", "quasicomposition", "eikonal", "killing")),
    (9, ("hsiang", "quasicomposition", "eikonal", "killing")),
    (10, ("hsiang", "quasicomposition", "eikonal", "killing")),
    (11, ("hsiang", "eikonal", "killing")),
    (12, ("hsiang", "quasicomposition", "eikonal", "killing")),
    (13, ("hsiang", "eikonal", "killing")),
    (14, ("hsiang", "eikonal", "killing")),
    (16, ("hsiang", "eikonal", "killing")),
)
REFUTE_QC_TRIPLES = (
    "triple(R)", "triple(C)", "triple(H)", "triple(paraC)", "triple(paraH(2))",
    "triple(cross3)", "triple(color)",
)
REFUTE_POLAR = ("clifford(1,2)", "clifford(2,3)", "clifford(4,5)")

REPORT_DOCS = (
    "triple(R)", "triple(C)", "triple(H)", "triple(paraC)", "triple(cross3)",
    "triple(color)", "cartan(0)", "cartan(1)", "cartan(2)",
    "clifford(1,2)", "clifford(2,3)", "clifford(4,5)",
    "paraC", "cross7", "color", "O",
)
FROM_CUBIC = "1*x1^2*x2"


@dataclass
class Job:
    """One CLI command and what the output check needs to know about it."""

    argv: list[str]
    doc: str
    expect: dict


def componentwise_plane() -> Algebra:
    """R x R with the componentwise product: radial, but its triple is not."""
    return Algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)], commutative=True, name="RxR")


def signed_permutation(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(n)]


def permuted(alg: Algebra, perm: list[int], signs: list[int], name: str) -> Algebra:
    """Image of alg under e_i -> signs[i] e'_perm[i], an isometry of every metric."""
    entries = [
        (perm[i], perm[j], perm[k], c * (signs[i] * signs[j] * signs[k]))
        for i, j, k, c in alg.structure_entries()
    ]

    def matrix(m):
        out = [[Scalar(0)] * alg.dim for _ in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                out[perm[i]][perm[j]] = m[i][j] * (signs[i] * signs[j])
        return out

    involution = matrix(alg.involution) if alg.involution is not None else None
    return Algebra(
        alg.dim,
        entries,
        metric=matrix(alg.metric),
        involution=involution,
        commutative=alg.commutative,
        name=name,
    )


def random_cubic(rng: random.Random, n: int) -> Polynomial:
    """Sparse cubic in n variables with 3n/2 terms, most with a sqrt 3 part.

    Which monomials occur is fixed for each n, because it sets what a
    verdict costs; the seed picks the coefficients and a relabelling of
    the variables.
    """
    shape = random.Random(n)
    supports: set[tuple[int, ...]] = set()
    while len(supports) < n + n // 2:
        supports.add(tuple(sorted(shape.randrange(n) for _ in range(3))))
    perm = list(range(n))
    rng.shuffle(perm)
    terms: dict[tuple, Scalar] = {}
    for support in sorted(supports):
        exps = [0] * n
        for i in support:
            exps[perm[i]] += 1
        b = rng.choice((-2, -1, 1, 2)) if rng.random() < 0.8 else 0
        terms[tuple(exps)] = Scalar(rng.choice((-3, -2, -1, 1, 2, 3)), b)
    return Polynomial(n, terms)


class _Writer:
    """Numbers the documents of one build and writes them."""

    def __init__(self, directory: str, rng: random.Random):
        self.directory = directory
        self.rng = rng
        self.count = 0
        self.cache: dict[str, Algebra] = {}

    def member(self, name: str) -> Algebra:
        if name not in self.cache:
            if name == "triple(RxR)":
                self.cache[name] = catalog.triple(componentwise_plane())
            else:
                self.cache[name] = catalog.construct(name)
        return self.cache[name]

    def path(self) -> str:
        self.count += 1
        return os.path.join(self.directory, f"doc{self.count:03d}.json")

    def copy(self, alg: Algebra) -> tuple[str, list[int]]:
        """Write a permuted copy; returns its path and the index map."""
        path = self.path()
        perm, signs = signed_permutation(self.rng, alg.dim)
        document.dump_algebra(permuted(alg, perm, signs, os.path.basename(path)[:-5]), path)
        return path, perm


def _verify(check: str, path: str, seed: int, json_out: bool = True, extra=()) -> list[str]:
    argv = ["verify", check, path, "--seed", str(seed), *extra]
    return argv + ["--json"] if json_out else argv


def _family(name: str) -> dict:
    if name.startswith("triple("):
        return {"family": "triple", "source": name[len("triple(") : -1]}
    head, _, rest = name.partition("(")
    if head == "cartan":
        return {"family": "cartan", "d": int(rest[:-1])}
    if head == "clifford":
        p, q = rest[:-1].split(",")
        return {"family": "clifford", "p": int(p), "q": int(q)}
    return {"family": "source", "source": name}


def _certify(w: _Writer, seed: int) -> list[Job]:
    jobs = []
    for check, names in CERTIFY:
        for name in names:
            alg = w.member(name)
            path, perm = w.copy(alg)
            extra = ()
            if check == "polar":
                extra = ("--zero-block", ",".join(str(perm[i]) for i in catalog.polar_zero_block(alg)))
            argv = _verify(check, path, seed, json_out=check not in TEXT_CHECKS, extra=extra)
            jobs.append(Job(argv, path, {"pass": True, **_family(name)}))
    return jobs


def _refute(w: _Writer, seed: int) -> list[Job]:
    jobs = []
    for n, checks in REFUTE_CUBICS:
        path = w.path()
        u = random_cubic(w.rng, n)
        document.dump_algebra(cubic.algebra_from_cubic(u, name=os.path.basename(path)[:-5]), path)
        jobs.extend(Job(_verify(check, path, seed), path, {"pass": False}) for check in checks)
    for name in REFUTE_QC_TRIPLES:
        path, _ = w.copy(w.member(name))
        jobs.append(Job(_verify("quasicomposition", path, seed), path, {"pass": False}))
    path, _ = w.copy(w.member("triple(RxR)"))
    jobs.append(Job(_verify("hsiang", path, seed), path, {"pass": False}))
    path, _ = w.copy(w.member("paraH(4)"))
    jobs.append(Job(_verify("quasicomposition", path, seed), path, {"pass": False}))
    for name in REFUTE_POLAR:
        alg = w.member(name)
        path, perm = w.copy(alg)
        # one vector of the y-block: it squares into the z-block, never to zero
        wrong = str(perm[w.rng.randrange(min(catalog.polar_zero_block(alg)))])
        argv = _verify("polar", path, seed, extra=("--zero-block", wrong))
        jobs.append(Job(argv, path, {"pass": False, "zero_block": [int(wrong)]}))
    return jobs


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"coneforge {' '.join(argv)} failed")


def _report(w: _Writer, seed: int) -> list[Job]:
    jobs = []
    for name in REPORT_DOCS:
        path = w.path()
        _cli(["construct", name, "-o", path])
        argv = ["report", path, "--peirce", "--json", "--seed", str(seed)]
        jobs.append(Job(argv, path, {"name": name, **_family(name)}))
    path = w.path()
    _cli(["construct", "from-cubic", "--cubic", FROM_CUBIC, "-o", path])
    argv = ["report", path, "--peirce", "--json", "--seed", str(seed)]
    jobs.append(Job(argv, path, {"family": "from-cubic"}))
    return jobs


def build(workload: str, seed: int, directory: str, pass_index: int = 0) -> list[Job]:
    """Write one pass's documents for this seed and return the job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    # a str seeds random.Random through sha512, independent of PYTHONHASHSEED
    writer = _Writer(directory, random.Random(f"{workload}/{seed}/{pass_index}"))
    make = {"certify": _certify, "refute": _refute, "report": _report}[workload]
    return make(writer, seed % 1000)  # the --seed the program sees


def digest(jobs: list[Job]) -> str:
    """sha256 of every document and argument list, with directories left out."""
    h = hashlib.sha256()
    for job in jobs:
        with open(job.doc, "rb") as handle:
            h.update(handle.read())
        h.update(repr([os.path.basename(a) for a in job.argv]).encode())
    return h.hexdigest()
