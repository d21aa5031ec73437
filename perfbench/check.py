"""Independent check of each job's exit code and output.

Expected catalog values live in this file's own tables, copied from the
README's acceptance list, not imported from the program.  Failures are
re-established from scratch: witnesses are re-evaluated with
``Algebra.multiply`` and ``Algebra.h``, and a failed identity is shown to
fail at exact integer points.  ``check`` returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from coneforge.document import load_algebra
from coneforge.scalars import Scalar, scalar_format, scalar_parse

EXIT_PASS, EXIT_FAIL = 0, 1

# README acceptance list: radial constants, the defect table, the killing
# ratio 2 (dim - delta) on triples, Peirce data (n1, n2, d) of triples and
# Cartan cubics, the Cartan-Munzner constant 9, eikonal theta' values.
THETA = {"triple": "4/3", "clifford": "4/3", "cartan": "36"}
SOURCE_DIM = {"R": 1, "C": 2, "H": 4, "O": 8, "paraC": 2, "paraH(2)": 2, "cross3": 3, "cross7": 7, "color": 6}
DEFECT = {"R": 0, "C": 0, "H": 0, "O": 0, "paraC": 0, "paraH(2)": 0, "cross3": 1, "cross7": 1, "color": 2}
TRIPLE_PEIRCE = {
    "R": (0, 2, 0), "C": (1, 2, 0), "H": (3, 2, 0), "O": (7, 2, 0), "paraC": (1, 2, 0),
    "paraH(2)": (1, 2, 0), "cross3": (0, 5, 1), "cross7": (4, 5, 1), "color": (1, 8, 2),
}
CARTAN_N1 = {0: 1, 1: 2, 2: 3, 4: 5, 8: 9}
CARTAN_MUNZNER = Scalar(9)
EIKONAL_THETA = {"paraC": "1", "cartan": "36"}

ZERO = Scalar(0)


def _points(n: int, count: int, seed: int = 7, span: int = 3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = [Scalar(rng.randint(-span, span)) for _ in range(n)]
        if any(x):
            out.append(x)
    return out


def _trace_l(alg, x) -> Scalar:
    total = ZERO
    for j in range(alg.dim):
        total = total + alg.multiply(x, alg.basis_vector(j))[j]
    return total


def _e_c(alg, x) -> tuple[Scalar, Scalar]:
    """E(x) = h(x^2, x^3) - h(x^2, x^2) tr L(x) and C(x) = h(x, x^2)."""
    x2 = alg.multiply(x, x)
    x3 = alg.multiply(x2, x)
    return alg.h(x2, x3) - alg.h(x2, x2) * _trace_l(alg, x), alg.h(x, x2)


def _not_radial(alg) -> str | None:
    """Two exact points whose ratios E/W, W = h(x,x) C, differ (or W = 0 with E != 0)."""
    ratio = None
    for x in _points(alg.dim, 24):
        e, c = _e_c(alg, x)
        w = alg.h(x, x) * c
        if not w:
            if e:
                return None
            continue
        if ratio is None:
            ratio = e / w
        elif e / w != ratio:
            return None
    return "no two points with different E/W ratios"


def _not_nonradial(alg) -> str | None:
    """E/C is not a quadratic form: the parallelogram law fails at exact points."""

    def q(x):
        e, c = _e_c(alg, x)
        return e / c if c else None

    pts = _points(alg.dim, 16, seed=11)
    for x, y in zip(pts[::2], pts[1::2]):
        plus = [a + b for a, b in zip(x, y)]
        minus = [a - b for a, b in zip(x, y)]
        values = [q(v) for v in (plus, minus, x, y)]
        if None in values:
            continue
        if values[0] + values[1] != (values[2] + values[3]) * 2:
            return None
    return "E/C obeyed the parallelogram law at every sample"


def _composition_fails(alg, x, y) -> bool:
    xy = alg.multiply(x, y)
    lhs = alg.multiply(x, alg.multiply(alg.sigma(x), xy))
    hxx = alg.h(x, x)
    return any(a != hxx * b for a, b in zip(lhs, xy))


def _not_metrized(alg) -> bool:
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    sig = [alg.sigma(e) for e in basis]
    if any(alg.h(sig[i], sig[j]) != alg.h(basis[i], basis[j]) for i in range(alg.dim) for j in range(alg.dim)):
        return True
    return any(
        alg.h(alg.multiply(ei, basis[j]), ek) != alg.h(ei, alg.multiply(ek, sig[j]))
        for ei in basis
        for j in range(alg.dim)
        for ek in basis
    )


def _kappa(alg, u, v) -> Scalar:
    """tr L(u) L(v), column by column."""
    total = ZERO
    for m in range(alg.dim):
        total = total + alg.multiply(u, alg.multiply(v, alg.basis_vector(m)))[m]
    return total


def _scaling(alg, x) -> Scalar | None:
    """theta' with x^3 = theta' h(x,x) x at x, or None when x^3 is not on that line."""
    x3 = alg.multiply(alg.multiply(x, x), x)
    hxx = alg.h(x, x)
    if not hxx:
        return None
    k = next(i for i, v in enumerate(x) if v)
    theta = x3[k] / (hxx * x[k])
    return theta if all(a == theta * hxx * b for a, b in zip(x3, x)) else None


def _eikonal_constant(alg) -> Scalar | None:
    values = {_scaling(alg, x) for x in _points(alg.dim, 4)}
    return values.pop() if len(values) == 1 else None


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _vector(entries) -> list[Scalar]:
    return [scalar_parse(v) for v in entries]


def check(job, code, stdout: str, load=load_algebra) -> str | None:
    """None when the job's exit code and output are right, else why not.

    ``load`` reads the job's document; a caller that checks several jobs on
    one document can pass a cached reader.
    """
    if job.argv[0] == "report":
        return _check_report(job, code, stdout)
    expect = job.expect
    want = EXIT_PASS if expect["pass"] else EXIT_FAIL
    if code != want:
        return f"exit code {code}, expected {want}"
    kind = job.argv[1]
    if "--json" not in job.argv:
        return _check_text(job, kind, stdout)
    out = _parse(stdout)
    if not isinstance(out, dict) or out.get("check") != kind or out.get("pass") is not expect["pass"]:
        return f"verdict {stdout.strip()[:80]!r} does not match exit code"
    alg = load(job.doc)
    if expect["pass"]:
        return _check_pass(alg, kind, expect, out)
    return _check_fail(alg, kind, expect, out)


def _check_pass(alg, kind, expect, out) -> str | None:
    family = expect["family"]
    if kind == "hsiang":
        if out["theta"] != THETA[family]:
            return f"theta {out['theta']} != {THETA[family]}"
    elif kind == "quasicomposition":
        if out["delta"] != DEFECT[expect["source"]]:
            return f"delta {out['delta']} != {DEFECT[expect['source']]}"
    elif kind == "eikonal":
        constant = _eikonal_constant(alg)
        if constant is None or scalar_format(constant) != out["theta"]:
            return f"theta' {out['theta']} not confirmed at sample points"
        tabled = EIKONAL_THETA.get(family if family == "cartan" else expect.get("source"))
        if tabled is not None and out["theta"] != tabled:
            return f"theta' {out['theta']} != {tabled}"
    elif kind == "cartan-munzner":
        for x in _points(alg.dim, 3):
            x2 = alg.multiply(x, x)
            grad = [sum((g * v for g, v in zip(row, x2)), ZERO) / 2 for row in alg.metric]
            norm2 = sum((x_i * x_i for x_i in x), ZERO)
            if sum((g * g for g in grad), ZERO) != CARTAN_MUNZNER * norm2 * norm2:
                return "|grad u|^2 != 9 |x|^4 at a sample point"
    else:
        return f"no pass check for {kind}"
    return None


def _check_fail(alg, kind, expect, out) -> str | None:
    witness = out.get("witness")
    if kind == "hsiang":
        if not _index_tuple(witness, alg.dim, (4, 5)):
            return f"bad witness {witness!r}"
        return _not_radial(alg)
    if kind == "nonradial":
        if not _index_tuple(witness, alg.dim, (5,)):
            return f"bad witness {witness!r}"
        return _not_radial(alg) or _not_nonradial(alg)
    if kind == "quasicomposition":
        if witness is None:
            return None if _not_metrized(alg) else "no witness, yet the algebra is metrized"
        x, y = _vector(witness[0]), _vector(witness[1])
        return None if _composition_fails(alg, x, y) else "composition holds at the witness"
    if kind == "killing":
        if not (isinstance(witness, list) and len(witness) == 3):
            return f"bad witness {witness!r}"
        i, j, k = witness
        e = alg.basis_vector
        lhs = _kappa(alg, alg.multiply(e(i), e(j)), e(k))
        rhs = _kappa(alg, e(i), alg.multiply(e(k), alg.sigma(e(j))))
        return None if lhs != rhs else "kappa is invariant at the witness"
    if kind == "eikonal":
        return None if _eikonal_constant(alg) is None else "x^3 = theta' h(x,x) x held at every sample"
    if kind == "polar":
        if not (isinstance(witness, list) and witness[0] == "zero-block-square"):
            return f"unexpected polar witness {witness!r}"
        block = expect["zero_block"]
        square = alg.multiply(alg.basis_vector(block[witness[1]]), alg.basis_vector(block[witness[2]]))
        return None if any(square) else "the zero block does square to zero"
    return f"no failure check for {kind}"


def _index_tuple(witness, dim: int, lengths) -> bool:
    return (
        isinstance(witness, list)
        and len(witness) in lengths
        and all(isinstance(i, int) and 0 <= i < dim for i in witness)
    )


def _check_text(job, kind, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != f"[pass] {kind}":
        return f"first line {lines[:1]!r}"
    expect = job.expect
    if kind == "polar":
        want = f"dim A0 = {expect['q']}, dim A1 = {2 * expect['p']}"
    elif kind == "killing":
        source = expect["source"]
        want = f"kappa = {2 * (SOURCE_DIM[source] - DEFECT[source])} h"
    else:
        return f"no text check for {kind}"
    return None if want in lines else f"missing line {want!r}"


def _check_report(job, code, stdout: str) -> str | None:
    if code != EXIT_PASS:
        return f"exit code {code}, expected {EXIT_PASS}"
    out = _parse(stdout)
    if not isinstance(out, dict):
        return "report is not a JSON object"
    expect = job.expect
    family = expect["family"]
    if not out["metrized"]["pass"]:
        return "metrized check failed"
    if family == "from-cubic":
        return None if out["dim"] == 2 else f"dim {out['dim']} != 2"
    if out["name"] != expect["name"]:
        return f"name {out['name']!r} != {expect['name']!r}"
    if family == "source":
        qc = out["quasicomposition"]
        if not qc["pass"] or qc["defect"] != DEFECT[expect["source"]]:
            return f"quasicomposition {qc}"
        return None
    if out["hsiang"]["radial"] != THETA[family]:
        return f"theta {out['hsiang']['radial']} != {THETA[family]}"
    spectral = out.get("spectral")
    if not spectral:
        return "no spectral block"
    if family == "triple":
        source = expect["source"]
        ratio = str(2 * (SOURCE_DIM[source] - DEFECT[source]))
        if not out["killing"]["pass"] or out["killing"]["details"]["ratio"] != ratio:
            return f"killing {out['killing']['details']} != ratio {ratio}"
        n1, n2, d = TRIPLE_PEIRCE[source]
        if (spectral["n1"], spectral["n2"], spectral["d"]) != (n1, n2, d):
            return f"peirce {spectral['n1'], spectral['n2'], spectral['d']} != {(n1, n2, d)}"
        if spectral.get("source_defect") != DEFECT[source] or not spectral.get("defect_matches_d"):
            return "source defect does not match d"
        if out["quasicomposition"]["pass"]:
            return "a triple reported as quasicomposition"
    elif family == "cartan":
        n1 = CARTAN_N1[expect["d"]]
        if (spectral["n1"], spectral["n2"]) != (n1, 0):
            return f"peirce {spectral['n1'], spectral['n2']} != {(n1, 0)}"
        pseudo = out.get("pseudocomposition") or {}
        if pseudo.get("theta_prime") != EIKONAL_THETA["cartan"] or not pseudo.get("eikonal"):
            return f"pseudocomposition {pseudo}"
    elif family == "clifford":
        if out["killing"]["pass"]:
            return "killing passed on a polar algebra"
    n1, n2 = spectral["n1"], spectral["n2"]

    def multiplicity(value):
        return sum(count for v, count in spectral["multiplicities"] if abs(v - value) <= 1e-6)

    if (multiplicity(1.0), multiplicity(-1.0), multiplicity(-0.5)) != (1, n1, n2):
        return f"multiplicities {spectral['multiplicities']} disagree with (n1, n2)"
    if family != "clifford" and multiplicity(0.5) != 2 * n1 + n2 - 2:
        return f"multiplicity of 1/2 is not 2 n1 + n2 - 2 in {spectral['multiplicities']}"
    if spectral["residual"] > 1e-10 or abs(spectral["idempotent_norm"] - 1 / float(Fraction(THETA[family]))) > 1e-8:
        return f"idempotent breaks |c|^2 = 1/theta: {spectral['idempotent_norm']}, residual {spectral['residual']}"
    return None
