"""Exact structure checks for metrized algebras.

The checks here decide algebraic identities over Q(sqrt 3), never
floating point.  Each identity has one route: a pass is a symbolic
certificate, the identity expanded in a polynomial ring and compared
with zero coefficient by coefficient, at every size.  The expansions
run in the integer kernel ``_zpoly``, over Z[sqrt 3] with one common
denominator D per algebra; its polynomials carry known powers of D,
noted beside each one, and D comes back only in the values read off a
certificate.  Exact evaluation at points only refutes or cross-checks;
it never passes an identity.  It runs on the same integer table, at
integer candidate points (each e_i, sums e_i + e_j, then points seeded
with coordinates in [-7, 7]), where D L(x) is read off as sparse
integer columns; only verify_polar lifts a Subspace block's basis to
Z[sqrt 3], each vector by its own denominator, which changes no axiom
since each is homogeneous.  Verdicts carry witnesses: a violating pair of
vectors for the composition identity, a monomial (written as a tuple
of basis indices) for the quintic identities.  The radial identity is
certified by one scalar quintic, E - theta W, on every algebra, taken one
x_0-degree block at a time, so that a failure stops at its first nonzero
block; on an exact algebra its quartic gradient form, which vanishes
exactly when the quintic does, is expanded only to name the witness of a
failure.  The one float route is the spectral block: spectral_summary
certifies the Peirce data of L(c) at an exact idempotent c when a walk
over small-support integer points finds one, and hands the rest to the
float search of ``numeric``, saying which route decided.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from . import _zpoly
from ._zpoly import ZPoly
from .algebra import (
    Algebra,
    Report,
    Subspace,
    _jsonable,
    _killing_witness,
    _peirce_d,
    _require_commutative_metrized,
    _require_spectral,
    check_metrized,
    find_unit,
    is_exact,
)
from .scalars import Scalar, ZERO, scalar_format

__all__ = [
    "DefectReport",
    "HsiangReport",
    "quasicomposition_check",
    "radial_hsiang_check",
    "nonradial_hsiang_check",
    "degeneracy_check",
    "verify_polar",
    "killing_metrized_check",
    "pseudocomposition_check",
    "normalize_theta",
    "spectral_summary",
    "full_report",
]

MAX_DEFINITE_QC_DIM = 24


def _seeded_points(dim: int, count: int, seed: int) -> list[dict[int, _zpoly.Coeff]]:
    """count nonzero integer points with coordinates drawn from [-7, 7] by
    random.Random(seed), as sparse vectors."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        coords = [rng.randint(-7, 7) for _ in range(dim)]
        if any(coords):
            points.append({i: (v, 0) for i, v in enumerate(coords) if v})
    return points


def _integer_candidates(n: int, seed: int):
    """The candidate points, in order: each e_i, the first 60 pairs
    e_i + e_j with i < j, then 16 seeded points."""
    for i in range(n):
        yield {i: (1, 0)}
    for i, j in itertools.islice(itertools.combinations(range(n), 2), 60):
        yield {i: (1, 0), j: (1, 0)}
    yield from _seeded_points(n, 16, seed)


def _monomial_indices(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def _monomial_witness(ring: _zpoly.Ring, mono: int) -> tuple[int, ...]:
    return _monomial_indices(ring.unpack(mono))


def _leading_witness(poly: ZPoly) -> tuple[int, ...]:
    return _monomial_witness(poly.ring, poly.leading())


# -- composition identity ----------------------------------------------------


@dataclass
class DefectReport:
    """Verdict on the identity x (sigma(x) (x y)) = h(x,x) (x y).

    defect is the integer making the sigma-twisted trace form equal
    (dim - defect) times the metric; kernel_dim_samples are the kernel
    dimensions of L(sigma(x)) L(x) at the cross-check points.
    """

    is_quasicomposition: bool
    defect: int | None = None
    witness: tuple | None = None
    kernel_dim_samples: list[int] = field(default_factory=list)
    reason: str | None = None


def _composition_holds_symbolic(alg: Algebra) -> bool:
    """x (sigma(x) (x y)) = h(x,x) (x y), expanded in 2 dim variables."""
    forms = alg._integer_forms
    n = alg.dim
    ring = _zpoly.Ring(2 * n)
    x = ring.variables(0, n)
    y = ring.variables(n, n)
    xy = forms.left_product(x, y)  # D
    twisted = forms.involution_rows is not None
    power = 4 if twisted else 3
    lhs = forms.left_product(x, forms.left_product(x, xy, sigma=twisted))  # D^power
    hxx = forms.pairing(x, x).scaled((forms.denominator ** (power - 2), 0))  # D^(power - 1)
    return all(l == hxx * c for l, c in zip(lhs, xy))


def _point_operators(alg: Algebra, p: dict) -> tuple[dict, dict, int]:
    """D L(x) and the operator of sigma(x) at the integer point p, with the
    power of D that x (sigma(x) (x y)) carries when read off them: D^2
    L(sigma x) and D^4 with an involution, D L(x) itself and D^3 without."""
    forms = alg._integer_forms
    lx = forms.operator(p)
    if forms.involution_rows is None:
        return lx, lx, 3
    return lx, forms.operator(forms.sigma_at(p)), 4  # D^2 L(sigma x)


def _composition_point_check(alg: Algebra, p: dict) -> int | None:
    """Index of a basis vector y = e_j violating the identity at the
    integer point p, if any."""
    forms = alg._integer_forms
    lx, lsx, power = _point_operators(alg, p)
    # D^power h(x,x) (x y), against x (sigma(x) (x y)) at D^power
    hxx = _zpoly.mul_coeff(forms.pairing_at(p, p), (forms.denominator ** (power - 2), 0))
    for j in sorted(lx):
        xy = lx[j]
        lhs = _zpoly.apply(lx, _zpoly.apply(lsx, xy))
        rhs = {k: _zpoly.mul_coeff(hxx, v) for k, v in xy.items()} if hxx != (0, 0) else {}
        if lhs != rhs:
            return j
    return None


def _kernel_dim(alg: Algebra, p: dict) -> int:
    """dim ker L(sigma(x)) L(x) at the integer point p, from the columns of
    the product taken as rows: the transpose has the same rank, and so
    has every multiple of the product by D."""
    lx, lsx, _ = _point_operators(alg, p)
    return alg.dim - _zpoly.rank([_zpoly.apply(lsx, column) for column in lx.values()])


def _composition_witness(alg: Algebra, seed: int) -> tuple | None:
    """(x, e_j) as Scalar tuples, for the first candidate x and basis
    vector e_j violating the identity, or None."""
    for p in _integer_candidates(alg.dim, seed):
        j = _composition_point_check(alg, p)
        if j is not None:
            x = tuple(_zpoly.to_scalar(p[i]) if i in p else ZERO for i in range(alg.dim))
            return x, tuple(alg.basis_vector(j))
    return None


def quasicomposition_check(alg: Algebra, seed: int = 0) -> DefectReport:
    """Decide the composition identity and measure its defect.

    A non-metrized input is reported as not quasicomposition rather
    than rejected.  The identity is first evaluated at a seeded point
    that the witness search also tries: a failure there is refuted
    with the first failing candidate of that search, and only a pass
    pays for the symbolic expansion in 2 dim variables, which then
    certifies the identity or sends the search for its witness.  On
    success the defect delta is read off the twisted trace form,
    which the theory forces to be (dim - delta) h, and is
    cross-checked against the kernel dimension of L(sigma(x)) L(x) at
    three generic integer points; disagreement raises RuntimeError
    since it indicates an internal inconsistency, not a property of
    the input.
    """
    metrized = check_metrized(alg)
    if not metrized.passed:
        return DefectReport(
            False,
            reason=f"not metrized (witness {metrized.witness})",
        )

    # the seeded point is one of _composition_witness's candidates
    probe = _seeded_points(alg.dim, 1, seed)[0]
    if _composition_point_check(alg, probe) is not None or not _composition_holds_symbolic(alg):
        witness = _composition_witness(alg, seed)
        if witness is None:
            raise RuntimeError("identity fails symbolically but no witness point found")
        return DefectReport(False, witness=witness)

    forms = alg._integer_forms
    twisted, scale = forms.twisted_trace()
    ratio = _zpoly.proportion_rows(twisted, forms.metric_rows)
    if ratio is not None:
        # s (scale T) = r (D G), so T = r D / (s scale) h
        ratio = _zpoly.quotient(*ratio, scale // forms.denominator)
    if ratio is None or ratio.b != 0 or ratio.a.denominator != 1:
        raise RuntimeError(
            "twisted trace form is not an integer multiple of the metric "
            "although the composition identity holds"
        )
    defect = alg.dim - int(ratio.a)
    if defect < 0:
        raise RuntimeError(f"negative defect {defect} from trace form")

    samples = [_kernel_dim(alg, p) for p in _seeded_points(alg.dim, 3, seed + 1)]
    if any(s != defect for s in samples):
        raise RuntimeError(
            f"kernel dimensions {samples} disagree with trace-form defect {defect}"
        )

    if alg.dim > MAX_DEFINITE_QC_DIM and alg.metric_is_definite():
        raise RuntimeError(
            "composition identity verified on a definite metric above dimension "
            f"{MAX_DEFINITE_QC_DIM}; this contradicts the classification"
        )
    return DefectReport(True, defect=defect, kernel_dim_samples=samples)


# -- quintic identities ------------------------------------------------------


@dataclass
class HsiangReport:
    """Verdict on the quintic trace identity of a commutative algebra.

    radial holds the proportionality constant theta when the identity
    is satisfied with b = theta h; nonradial_b holds the Gram matrix of
    the general quadratic form b when only the weaker identity holds.
    The witness is a tuple of basis indices naming a monomial on which
    the identity fails: four indices from the quartic gradient form
    when the algebra is exact, five from the quintic scalar form
    otherwise or from the stuck division of a nonradial verdict.
    degenerate is meaningful only
    alongside a radial verdict, which also carries the degeneracy
    report it was read from.
    """

    radial: Scalar | None = None
    nonradial_b: list[list[Scalar]] | None = None
    exact: bool = True
    degenerate: bool = False
    witness: tuple[int, ...] | None = None
    degeneracy: Report | None = None


def _gradient_witness(alg: Algebra, theta: Scalar) -> tuple[int, ...] | None:
    """Monomial witness of the first nonzero component of the quartic
    gradient form 4 x^3 x + x^2 x^2 - 3 theta h(x,x) x^2 - 2 theta
    h(x^2,x) x, or None when every component vanishes."""
    forms = alg._integer_forms
    ring, d = forms.ring, forms.denominator
    (ta, tb), den = _zpoly.split(theta)
    # D^3 den times the gradient form, one component at a time
    x2, steps = forms.squares[1], forms.steps
    x3 = [_zpoly.merge(ring, (forms.cube_block(s)[k] for s in range(4))) for k in range(alg.dim)]  # D^2 x^3
    hxx = forms.norm  # D h(x, x)
    hx2x = forms.cubic  # D^2 h(x^2, x)
    three = (-3 * d * ta, -3 * d * tb)
    two = (-2 * d * ta, -2 * d * tb)
    for k in range(alg.dim):
        component = _zpoly.combine(
            ring,
            [
                ((4 * den, 0), forms.left_product_at(x3, k)),  # D^3 x x^3 = D^3 x^3 x
                ((den, 0), forms.product_at(x2, x2, k)),  # D^3 x^2 x^2
                (three, hxx * x2[k]),
                (two, _zpoly.shifted(hx2x, steps[k])),
            ],
        )
        if component:
            return _leading_witness(component)
    return None


def _symbolic_radial_defect(alg: Algebra, theta: Scalar) -> tuple[int, ...] | None:
    """Monomial witness of E != theta W, or None when the identity holds.

    The certificate is the scalar quintic Q = E - theta W, taken one
    x_0-degree block at a time from the x_0^5 block down
    (``IntegerForms.radial_blocks``): the identity holds exactly when all
    six blocks vanish, and the first nonzero block ends the check, so a
    failure never expands the rest of Q or of x^3.  Its witness is the
    leading monomial of that block, which is the leading monomial of Q,
    or on an exact algebra the leading monomial of the first nonzero
    component of the quartic gradient form G, computed only to name a
    failure.  alg must be commutative and metrized, as
    radial_hsiang_check ensures.  Without an involution h(xy, z) = h(x, yz)
    is symmetric, and when the table's own traces vanish,
    dQ(x)[v] = h(G(x), v) and Euler's identity gives 5 Q = h(x, G(x)), so
    Q = 0 exactly when G = 0 (h is nondegenerate).  On an exact algebra
    with an involution G alone decides: the involution breaks that
    symmetry.
    """
    forms = alg._integer_forms
    exact = is_exact(alg)
    if exact and forms.involution_rows is not None:
        return _gradient_witness(alg, theta)
    failing = next(filter(None, forms.radial_blocks(theta)), None)
    if failing is None:
        return None
    if not exact:
        return _leading_witness(failing)
    witness = _gradient_witness(alg, theta)
    if witness is None:
        raise RuntimeError("the radial quintic E - theta W fails but its gradient form vanishes")
    return witness


def _point_e(forms: _zpoly.IntegerForms, lx: dict, p: dict, square: dict) -> _zpoly.Coeff:
    """D^4 E(x) at the integer point p, given D L(x) and D x^2."""
    cube = _zpoly.apply(lx, square)  # D^2 x^3
    e = forms.pairing_at(square, cube)
    trace = _zpoly.dot(dict(enumerate(forms.traces)), p)  # D tr L(x)
    if trace != (0, 0):
        ea, eb = _zpoly.mul_coeff(forms.pairing_at(square, square), trace)
        e = (e[0] - ea, e[1] - eb)
    return e


def _cubic_at(forms: _zpoly.IntegerForms, p: dict) -> _zpoly.Coeff:
    """D^2 h(x^2, x) at the integer point p, as the sum of D^2 h(e_i e_j,
    e_k) p_i p_j p_k over the ordered triples of its support; for the
    points of at most two nonzero coordinates, where that is at most
    eight terms of the cached trilinear form."""
    form = forms.metric_form
    a = b = 0
    for (i, pi), (j, pj), (k, pk) in itertools.product(p.items(), repeat=3):
        value = form.get((i, j, k))
        if value:
            ta, tb = _zpoly.mul_coeff(_zpoly.mul_coeff(pi, pj), _zpoly.mul_coeff(pk, value))
            a, b = a + ta, b + tb
    return a, b


def _radial_probe(alg: Algebra, seed: int) -> Scalar | None:
    """theta = E(x) / W(x) at the first candidate x with W(x) = h(x,x)
    h(x,x^2) nonzero, or None when W vanishes at every candidate.

    E and W are evaluated at the integer candidate points, and theta
    becomes a Scalar once.  Most candidates are units and pairs of units,
    where W often vanishes; on a point of at most two nonzero coordinates
    h(x, x^2) is read off the trilinear form, and D L(x) is built only
    when it is nonzero.
    """
    forms = alg._integer_forms
    for p in _integer_candidates(alg.dim, seed):
        hxx = forms.pairing_at(p, p)  # D h(x,x)
        if hxx == (0, 0):
            continue
        if len(p) <= 2 and _cubic_at(forms, p) == (0, 0):
            continue  # h(x, x^2) = 0, read without building D L(x)
        lx = forms.operator(p)
        square = _zpoly.apply(lx, p)  # D x^2
        w = _zpoly.mul_coeff(hxx, forms.pairing_at(p, square))  # D^3 W
        if w != (0, 0):
            e = _point_e(forms, lx, p, square)  # D^4 E
            return _zpoly.to_scalar(e) / _zpoly.to_scalar(_zpoly.mul_coeff(w, (forms.denominator, 0)))
    return None


def radial_hsiang_check(alg: Algebra, seed: int = 0) -> HsiangReport:
    """Test E(x) = theta h(x,x) h(x,x^2) for a single constant theta.

    theta is probed as E/W at the first point where W is nonzero, with
    E = h(x^2, x^3) - h(x^2, x^2) tr L(x); when W vanishes at every
    candidate but not identically, it is the ratio of the coefficients of
    E and W at the leading monomial of W, read off the expanded quintic.
    Either way the identity is certified symbolically through the one
    scalar quintic E - theta W, block by block in the degree of x_0 and
    stopping at the first nonzero block, so the seed picks the probe,
    never the route.  When it fails on an exact algebra, the quartic
    gradient form of that quintic names the witness, four basis indices;
    otherwise the leading monomial of the first nonzero block, which is
    that of the quintic, five.  The degeneracy vote runs only on a
    confirmed radial verdict, where a definite metric makes its three
    conditions equivalent.
    """
    _require_commutative_metrized(alg)
    exact = is_exact(alg)

    def confirmed(theta: Scalar) -> HsiangReport:
        degeneracy = degeneracy_check(alg)
        return HsiangReport(
            radial=theta,
            exact=exact,
            degenerate=degeneracy.details["degenerate"],
            degeneracy=degeneracy,
        )

    theta = _radial_probe(alg, seed)
    if theta is None:
        # every probe missed W != 0; E = theta W fixes theta at the leading
        # monomial of W, and the quintic certifies it as it does a probed one
        forms = alg._integer_forms
        e, c = forms.quintic, forms.cubic
        if not c:
            if not e:
                return confirmed(ZERO)
            return HsiangReport(exact=exact, witness=_leading_witness(e))
        w = forms.norm * c  # D^3 W
        lead = w.leading()
        theta = _zpoly.quotient(e.coefficient(lead), w.coefficient(lead), forms.denominator)

    witness = _symbolic_radial_defect(alg, theta)
    if witness is None:
        return confirmed(theta)
    return HsiangReport(exact=exact, witness=witness)


def _gram_from_quadratic(q: ZPoly, den: int) -> list[list[Scalar]]:
    """The Gram matrix of the quadratic form q / den."""
    ring = q.ring
    rows: list[dict[int, _zpoly.Coeff]] = [{} for _ in range(ring.nvars)]
    for mono in q.monomials():
        i, j = _monomial_witness(ring, mono)  # x_i x_j, an off-diagonal pair when i < j
        a, b = q.coefficient(mono)
        rows[i][j] = rows[j][i] = (2 * a, 2 * b) if i == j else (a, b)
    return _zpoly.to_matrix(rows, 2 * den)


def nonradial_hsiang_check(alg: Algebra, seed: int = 0) -> HsiangReport:
    """Test E(x) = b(x,x) h(x,x^2) for some symmetric bilinear b.

    Tries the radial identity first (then b = theta h); otherwise
    divides E by h(x,x^2) in the polynomial ring.  The quotient, when
    division is exact, is a quadratic form whose Gram matrix is
    returned; a stuck division yields the blocking monomial as witness.
    """
    radial = radial_hsiang_check(alg, seed=seed)
    forms = alg._integer_forms
    if radial.radial is not None:
        t, den = _zpoly.split(radial.radial)
        theta_gram = [{j: _zpoly.mul_coeff(t, g) for j, g in row.items()} for row in forms.metric_rows]  # D den theta G
        return HsiangReport(
            radial=radial.radial,
            nonradial_b=_zpoly.to_matrix(theta_gram, den * forms.denominator),
            exact=radial.exact,
            degenerate=radial.degenerate,
            degeneracy=radial.degeneracy,
        )
    if not forms.cubic:
        return HsiangReport(exact=radial.exact, degenerate=True)
    quotient, scale, stuck = _zpoly.divide(forms.quintic, forms.cubic)  # D^2 E / C
    if quotient is None:
        return HsiangReport(
            exact=radial.exact,
            degenerate=radial.degenerate,
            witness=_monomial_witness(forms.ring, stuck),
        )
    return HsiangReport(
        nonradial_b=_gram_from_quadratic(quotient, scale * forms.denominator**2),
        exact=radial.exact,
        degenerate=radial.degenerate,
    )


# -- degeneracy --------------------------------------------------------------


def _last_nonpositive(f, bound: int) -> int:
    """The largest integer t < bound with f(t) <= 0, by bisection, for a
    function with f(-bound) <= 0 < f(bound)."""
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if f(mid) <= 0 else (lo, mid)
    return lo


def _cube_root(value: Scalar) -> Scalar | None:
    """w in Q(sqrt 3) with w^3 = value, or None when there is none.

    With value = (a + b sqrt 3) / den^3 for integers a, b, w = r / den for
    a cube root r = p + q sqrt 3 of a + b sqrt 3, which is integral and so
    lies in Z[sqrt 3].  Its norm m = p^2 - 3 q^2 cubes to a^2 - 3 b^2, and
    p is where 4 t^3 - 3 m t - a changes sign: for q != 0 that cubic has
    no other real root, for q = 0 only a double root -p/2.  q^2 is
    (p^2 - m) / 3, with the sign of b.  Bisection finds m and p, and the
    candidate stands only if it cubes back.
    """
    (a, b), den = _zpoly.split(value)
    a, b = a * den * den, b * den * den
    norm = a * a - 3 * b * b
    m = _last_nonpositive(lambda t: t**3 - norm, abs(norm) + 1)
    p = _last_nonpositive(lambda t: 4 * t**3 - 3 * m * t - a, abs(a) + 3 * abs(m) + 1)
    q = math.isqrt(max(p * p - m, 0) // 3)
    root = (p, q if b >= 0 else -q)
    if _zpoly.mul_coeff(_zpoly.mul_coeff(root, root), root) != (a, b):
        return None
    return _zpoly.to_scalar(root, den)


def degeneracy_check(alg: Algebra) -> Report:
    """Decide degeneracy of an algebra satisfying the radial identity.

    Three conditions are computed independently: a nonzero trace form
    (the algebra is not exact), a product landing in a single line (the
    rank of the table's columns), and a cubic that is the cube of a
    linear form omega, whose only candidate line the cubic's leading
    coefficients name; omega is reported when its scale lies in
    Q(sqrt 3).  degenerate means not exact.  For a radial algebra with
    a definite metric and no involution the three are equivalent, so
    there a disagreement raises RuntimeError, which signals either a bug
    or an input outside the radial class.  The equivalence needs a
    definite metric and h(x y, z) symmetric in all three slots, which an
    involution breaks; otherwise the three can legitimately differ, and
    each is reported as computed: x1 x2^2 + x2^2 x3 with metric
    diag(1, 1, -1) (theta = 0) and C with its conjugation (theta = -1)
    are both radial, not exact, of product rank 2 and not a cube.  The
    zero cubic is trivially degenerate and exempt from the vote.
    """
    _require_commutative_metrized(alg)
    exact = is_exact(alg)
    forms = alg._integer_forms
    # the table is commutative, so the columns c_ii and c_ij + c_ji = 2 c_ij
    # of the square span what all the slots span, each off-diagonal one once
    product_rank = _zpoly.rank([dict(column) for _, _, column in forms.square_slots])

    cubic = forms.cubic  # 6 D^2 u
    if not cubic:
        return Report(
            "degeneracy",
            True,
            {
                "exact": exact,
                "product_rank": product_rank,
                "cube": True,
                "degenerate": True,
                "omega": [scalar_format(ZERO)] * alg.dim,
            },
        )

    cube = False
    omega = None
    # a cube (sum a_i x_i)^3 leads with x_k^3 for the least k with a_k != 0,
    # and its x_k^2 x_i coefficient is 3 a_k^2 a_i, so lin below is 3 a_k^2
    # times its root; packed monomials multiply by adding
    xs = forms.ring.variables(0, alg.dim)
    lead = cubic.leading()
    k = next((k for k, x in enumerate(xs) if 3 * x.leading() == lead), None)
    if k is not None:
        coefficients = [cubic.coefficient(2 * xs[k].leading() + x.leading()) for x in xs]
        coefficients[k] = _zpoly.mul_coeff(coefficients[k], (3, 0))
        lin = _zpoly.combine(forms.ring, zip(coefficients, xs))
        ratio = _zpoly.proportion(cubic, lin * lin * lin)
        if ratio is not None:
            cube = True
            # s C = r lin^3 and C = 6 D^2 u, so u = r / (6 D^2 s) lin^3
            scale = _cube_root(_zpoly.quotient(*ratio, 6 * forms.denominator**2))
            if scale is not None:
                omega = [scale * _zpoly.to_scalar(c) for c in coefficients]

    votes = (not exact, product_rank <= 1, cube)
    if len(set(votes)) != 1 and alg.metric_is_definite() and alg.involution is None:
        raise RuntimeError(
            "degeneracy conditions disagree: "
            f"not-exact={votes[0]}, single-line-product={votes[1]}, cube={votes[2]}"
        )
    details = {
        "exact": exact,
        "product_rank": product_rank,
        "cube": cube,
        "degenerate": votes[0],
        "omega": [scalar_format(c) for c in omega] if omega is not None else None,
    }
    return Report("degeneracy", True, details)


# -- polar axioms ------------------------------------------------------------


def verify_polar(alg: Algebra, zero_block: Subspace | list[int]) -> Report:
    """Check the polar axioms against a designated square-zero block.

    The domain is a commutative metrized algebra without an involution;
    anything else raises ValueError.  The block A0 may be given as a
    Subspace or as a list of int basis indices spanning it; A1 is its
    h-orthogonal complement.  Five axioms are decided, in this order: h
    is nondegenerate on A0, A0 A0 = 0, trace L(z) = 0 on A0 when A0 is a
    line, A1 A1 in A0, and the polarized square identity
    z (z' y) + z' (z y) = 2 h(z,z') y.  On this domain h(ab, c) is
    symmetric in a, b, c, so these imply the other two: A1 A0 in A1, and
    the trace identity tr L(x)^2 = 2 dim(A0) h(x1,x1) + dim(A1) h(x0,x0).
    Everything runs on the integer table, with the integer
    left-multiplication operators of the basis vectors.  An index block
    builds no Subspace, and A1, of dim n - dim A0 as h is nondegenerate,
    is built once A0 passes its own axioms, by one fraction-free
    elimination (``_zpoly.complement``) that gives positive multiples of
    the reduced echelon basis the witnesses index.  A passing report
    records whether the split has mutant shape, dim A1 = 2 dim A0.
    """
    _require_commutative_metrized(alg)
    if alg.involution is not None:
        raise ValueError("the polar axioms need an algebra without an involution")
    n = alg.dim
    if isinstance(zero_block, Subspace):
        if zero_block.ambient_dim != n:
            raise ValueError("zero_block ambient dimension does not match the algebra")
        zeros = [_zpoly.lift_point(z) for z in zero_block.basis]
    else:
        indices = list(zero_block)
        if any(type(i) is not int for i in indices):
            raise ValueError("zero_block indices must be ints")
        if not indices:
            raise ValueError("zero_block is empty")
        if sorted(set(indices)) != sorted(indices):
            raise ValueError("zero_block must list distinct basis indices")
        if any(not 0 <= i < n for i in indices):
            raise ValueError("zero_block index out of range")
        zeros = [{i: (1, 0)} for i in indices]
    dim0 = len(zeros)
    if not 0 < dim0 < n:
        raise ValueError("zero_block must span a proper nonzero subspace")
    dim1 = n - dim0

    # every product below is D L(u) v at integer points u = s z or s y
    # of the bases, a multiple that changes no axiom
    forms = alg._integer_forms
    lowered_zeros = [forms.lower(z) for z in zeros]  # D G z
    # M = D Z^T G Z is singular exactly when h degenerates on A0; when it
    # is not, A0 and A1 split the space, and a product lies in A0 when it
    # is orthogonal to A1
    gram = [{j: _zpoly.dot(z, w) for j, w in enumerate(lowered_zeros)} for z in zeros]
    if _zpoly.rank(gram) < dim0:
        return Report("polar", False, {"reason": "metric degenerates on the zero block"})

    def fail(tag, *indices):
        return Report(
            "polar",
            False,
            {"axiom": tag, "dim_zero_block": dim0, "dim_complement": dim1},
            witness=(tag, *indices),
        )

    zero_ops = [forms.operator(z) for z in zeros]
    for i, lz in enumerate(zero_ops):
        for j, zp in enumerate(zeros):
            if _zpoly.apply(lz, zp):
                return fail("zero-block-square", i, j)
    if dim0 == 1 and _zpoly.dot(dict(enumerate(forms.traces)), zeros[0]) != (0, 0):
        return fail("zero-block-trace", 0)
    # y_i y_j lies in A0 when h(y_i y_j, y_k) = 0 for every k; this is
    # symmetric in i, j, k, so the first failing (i, j) of the full scan
    # has i <= j and fails at some k >= j, every earlier pair vanishing
    comps = _zpoly.complement(lowered_zeros, n)
    lowered_comps = [forms.lower(y) for y in comps]
    for i, y in enumerate(comps):
        ly = forms.operator(y)
        for j in range(i, dim1):
            product = _zpoly.apply(ly, comps[j])
            if any(_zpoly.dot(product, w) != (0, 0) for w in lowered_comps[j:]):
                return fail("complement-product", i, j)

    # Clifford relation z (z' y) + z' (z y) = 2 h(z,z') y, whose left
    # side carries D^2 and the pairing D; it is symmetric in (z, z'), so
    # j >= i finds the first failing (i, j, k) in the order of the full
    # double loop
    two_d = (2 * forms.denominator, 0)
    two_h = [[_zpoly.mul_coeff(forms.pairing_at(z, zp), two_d) for zp in zeros] for z in zeros]
    for k, y in enumerate(comps):
        zy = [_zpoly.apply(lz, y) for lz in zero_ops]
        for i, lz in enumerate(zero_ops):
            for j in range(i, dim0):
                lhs = _zpoly.add(_zpoly.apply(lz, zy[j]), _zpoly.apply(zero_ops[j], zy[i]))
                h = two_h[i][j]
                rhs = {m: _zpoly.mul_coeff(h, c) for m, c in y.items()} if h != (0, 0) else {}
                if lhs != rhs:
                    return fail("clifford-relation", i, j, k)

    return Report(
        "polar",
        True,
        {
            "dim_zero_block": dim0,
            "dim_complement": dim1,
            "pairs": (dim1 // 2, dim0) if dim1 % 2 == 0 else None,
            "mutant": dim1 == 2 * dim0,
        },
    )


# -- killing form ------------------------------------------------------------


def killing_metrized_check(alg: Algebra) -> Report:
    """Is the trace form kappa(x,y) = tr L(x)L(y) an invariant metric?"""
    forms = alg._integer_forms
    kappa = forms.kappa  # D^2 kappa
    witness = _killing_witness(forms)
    invariant = witness is None
    nondegenerate = _zpoly.rank(kappa) == alg.dim
    ratio = _zpoly.proportion_rows(kappa, forms.metric_rows)
    if ratio is not None:
        # s D^2 kappa = r D G, so kappa = r / (D s) h
        ratio = _zpoly.quotient(*ratio, forms.denominator)
    passed = invariant and nondegenerate
    details = {
        "invariant": invariant,
        "nondegenerate": nondegenerate,
        "ratio": scalar_format(ratio) if ratio is not None else None,
    }
    return Report("killing", passed, details, witness=witness)


# -- pseudocomposition -------------------------------------------------------


def _pseudocomposition_holds_at(alg: Algebra, theta_prime: Scalar, p: dict) -> bool:
    """h(x^3, x^2) = theta' h(x,x) h(x,x^2) at the integer point p."""
    forms = alg._integer_forms
    lx = forms.operator(p)
    square = _zpoly.apply(lx, p)  # D x^2
    cube = _zpoly.apply(lx, square)  # D^2 x^3
    lhs = forms.pairing_at(cube, square)  # D^4 h(x^3, x^2)
    weight = _zpoly.mul_coeff(forms.pairing_at(p, p), forms.pairing_at(p, square))  # D^3 W
    # theta' = t / e, so the identity reads e lhs = t D weight
    t, e = _zpoly.split(theta_prime)
    rhs = _zpoly.mul_coeff(t, _zpoly.mul_coeff(weight, (forms.denominator, 0)))
    return _zpoly.mul_coeff(lhs, (e, 0)) == rhs


def pseudocomposition_check(alg: Algebra, seed: int = 0) -> tuple[Scalar, bool] | None:
    """Detect x^3 = theta' h(x,x) x; returns (theta', eikonal) or None.

    The symbolic cube must be r / s times h(x,x) x, (r, s) being the two
    coefficients at the leading monomial of h(x,x) x_0.  They are compared
    one x_0-degree block at a time from block 0, over all components, and
    the first mismatch returns None, so a failure builds no later block of
    x^3.  The eikonal flag records whether the induced cubic satisfies a
    genuine gradient equation, i.e. theta' is positive and the metric is
    definite.  The result is confirmed by evaluating h(x^3,x^2) = theta'
    h(x,x) h(x,x^2) at three integer points; a mismatch would be an
    internal error and raises.
    """
    _require_commutative_metrized(alg)
    n = alg.dim
    forms = alg._integer_forms
    steps = forms.steps  # the monomials x_k
    # D h(x, x) by blocks, with a zero block 3 that is also block -1
    norm = _zpoly.blocks(forms.norm, 2) + [ZPoly(forms.ring)]
    first = next(t for t, block in enumerate(norm) if block)  # h is nondegenerate
    lead = norm[first].leading()
    r, s = (0, 0), norm[first].coefficient(lead)  # r is read in block first; no right side lies below it
    for t in range(4):
        cube = forms.cube_block(t)  # D^2 x^3
        if t == first:
            r = cube[0].coefficient(lead + steps[0])
        # s D^2 x^3 = r D h(x,x) x; x_0 lies in block 0 and every other x_k in
        # block 1, so block t of h(x,x) x_k is block t - [k > 0] of h(x,x) times x_k;
        # when both sides are empty the equality holds trivially
        head, tail = norm[t].scaled(r), norm[t - 1].scaled(r)
        for k in range(n):
            right = tail if k else head
            if (cube[k] or right) and cube[k].scaled(s) != _zpoly.shifted(right, steps[k]):
                return None
    theta_prime = _zpoly.quotient(r, s, forms.denominator)
    if not all(_pseudocomposition_holds_at(alg, theta_prime, p) for p in _seeded_points(n, 3, seed)):
        raise RuntimeError("pseudocomposition confirmation failed at a sample point")
    eikonal = theta_prime > ZERO and alg.metric_is_definite()
    return theta_prime, eikonal


# -- normalization -----------------------------------------------------------


def normalize_theta(alg: Algebra, theta: Scalar | None = None) -> Algebra:
    """Rescale the product so the radial constant becomes 4/3.

    Scaling the product by lambda multiplies theta by lambda^2, so
    lambda = sqrt(4 / (3 theta)) must exist in Q(sqrt 3); otherwise a
    ValueError explains which square root is missing.
    """
    if theta is None:
        report = radial_hsiang_check(alg)
        if report.radial is None:
            raise ValueError("algebra does not satisfy the radial identity")
        theta = report.radial
    if not theta > ZERO:
        raise ValueError(f"positive theta required, got {scalar_format(theta)}")
    squared = Scalar(4) / (Scalar(3) * theta)
    factor = squared.sqrt()
    if factor is None:
        raise ValueError(
            f"rescale factor sqrt({scalar_format(squared)}) is not representable"
        )
    return alg.rescaled(factor, name=f"normalized({alg.name})")


# -- spectral data -----------------------------------------------------------


def _idempotent_candidates(forms: _zpoly.IntegerForms):
    """The points tried for an exact idempotent, in order: each e_i, then
    e_i + s e_j + t e_k with s, t = +-1 for each table slot (i, j) -> k with
    i < j and k not in {i, j}.  A slot whose {i, j, k} came before is
    skipped: its four points are those tried then, up to a sign, and -x
    gives the idempotent that x gives."""
    for i in range(forms.dim):
        yield {i: (1, 0)}
    seen = set()
    for i, j, column in forms.slots:
        for k, _ in column if i < j else ():
            key = frozenset((i, j, k))
            if len(key) == 3 and key not in seen:
                seen.add(key)
                for s, t in itertools.product((1, -1), repeat=2):
                    yield {i: (1, 0), j: (s, 0), k: (t, 0)}


def _exact_peirce(alg: Algebra) -> dict | None:
    """The spectral block at the first candidate x with D x x = rho x, rho != 0,
    whose idempotent c = D x / rho has L(c) diagonalizable with eigenvalues in
    {-1, -1/2, 1/2, 1}, or None when no candidate is such a point.

    L(c) - mu = (D L(x) - mu rho) / rho, so the multiplicity of mu is the
    nullity of 2 D L(x) - 2 mu rho I, which is integral; when the four
    nullities sum to n their eigenspaces span the space, which certifies
    the spectrum.  h(c, c) = D^2 h(x, x) / rho^2 is exact too.
    """
    forms = alg._integer_forms
    n = alg.dim
    for x in _idempotent_candidates(forms):
        square = forms.square_at(x)  # D x x
        # every entry of x is +-1, so rho is read off any one of them
        i = next(iter(x))
        rho = _zpoly.mul_coeff(square.get(i, (0, 0)), x[i])
        if rho == (0, 0) or square != {k: _zpoly.mul_coeff(rho, v) for k, v in x.items()}:
            continue
        op = forms.operator(x)  # D L(x), by columns
        doubled = [{k: (2 * a, 2 * b) for k, (a, b) in op.get(j, {}).items()} for j in range(n)]
        counts = []
        for twice_mu in (-2, -1, 1, 2):
            sa, sb = _zpoly.mul_coeff((twice_mu, 0), rho)
            # the columns of 2 D L(x) - 2 mu rho I; a rank is that of the transpose
            columns = []
            for j, column in enumerate(doubled):
                a, b = column.get(j, (0, 0))
                columns.append({**column, j: (a - sa, b - sb)})
            counts.append(n - _zpoly.rank(columns))
        if sum(counts) != n:
            continue
        n1, n2 = counts[0], counts[1]
        norm = _zpoly.quotient(
            _zpoly.mul_coeff(forms.pairing_at(x, x), (forms.denominator, 0)), _zpoly.mul_coeff(rho, rho)
        )
        return {
            "n1": n1,
            "n2": n2,
            "d": _peirce_d(n2),
            "idempotent_norm": float(norm),
            "residual": 0.0,
            "scaled": False,
            "multiplicities": [[v, m] for v, m in zip((-1.0, -0.5, 0.5, 1.0), counts) if m],
            "method": "exact-idempotent",
        }
    return None


def spectral_summary(alg: Algebra, seed: int = 0) -> dict:
    """The Peirce data of L(c) at one idempotent c, as the report's
    spectral block: n1, n2, d, h(c, c), the residual |c c - c|, the
    multiplicities and the method that decided them.

    The exact route walks small-support integer points for an idempotent
    and certifies its spectrum by kernel ranks over Z[sqrt 3] (method
    "exact-idempotent", residual 0).  It may find none, so when it does
    not, numeric.peirce's float search decides (method "float").  Both
    routes share numeric's domain: a commutative metrized algebra with a
    positive definite metric and no involution, else ValueError, which is
    also raised when the float search finds no idempotent.
    """
    _require_spectral(alg)
    exact = _exact_peirce(alg)
    if exact is not None:
        return exact
    from . import numeric

    data = numeric.peirce(alg, seed=seed)
    return {
        "n1": data.n1,
        "n2": data.n2,
        "d": data.d,
        "idempotent_norm": data.idempotent_norm,
        "residual": data.residual,
        "scaled": data.scaled,
        "multiplicities": [[value, count] for value, count in data.eigenvalues],
        "method": "float",
    }


# -- orchestration -----------------------------------------------------------


def _scalar_or_none(value):
    return scalar_format(value) if value is not None else None


def full_report(alg: Algebra, seed: int = 0, spectral: bool = True) -> dict:
    """One dictionary summarizing every applicable check.

    Exact verdicts always run; the spectral block (spectral_summary:
    idempotent, eigenvalue multiplicities, method) runs when `spectral`
    is true on a radial verdict with a definite metric, the Hsiang class
    where (n1, n2) and the multiplicity law mean something.  For a tripled
    algebra whose source is known, the source defect is compared with
    the d extracted from the eigenvalue count n2 = 3d + 2; a document
    named triple(<name>) counts only when it is that triple.  A
    negative seed is a ValueError, raised before any check runs.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    out: dict = {
        "name": alg.name or None,
        "dim": alg.dim,
        "field": alg.field_tag,
        "commutative": alg.commutative,
        "unital": find_unit(alg) is not None,
        "exact": is_exact(alg),
    }
    metrized = check_metrized(alg)
    out["metrized"] = metrized.to_dict()
    killing = killing_metrized_check(alg)
    out["killing"] = killing.to_dict()

    if metrized.passed:
        qc = quasicomposition_check(alg, seed=seed)
        out["quasicomposition"] = {
            "pass": qc.is_quasicomposition,
            "defect": qc.defect,
            "witness": _jsonable(qc.witness),
            "reason": qc.reason,
        }

    if alg.commutative and metrized.passed:
        hsiang = nonradial_hsiang_check(alg, seed=seed)
        out["hsiang"] = {
            "radial": _scalar_or_none(hsiang.radial),
            "nonradial": hsiang.nonradial_b is not None,
            "exact": hsiang.exact,
            "degenerate": hsiang.degenerate,
            "witness": hsiang.witness,
        }
        pseudo = pseudocomposition_check(alg, seed=seed)
        out["pseudocomposition"] = (
            {"theta_prime": _scalar_or_none(pseudo[0]), "eikonal": pseudo[1]}
            if pseudo is not None
            else None
        )
        if hsiang.degeneracy is not None:
            out["degeneracy"] = hsiang.degeneracy.details

        if spectral and hsiang.radial is not None and alg.metric_is_definite():
            try:
                data = spectral_summary(alg, seed=seed)
            except ValueError:
                out["spectral"] = None
            else:
                out["spectral"] = data
                if killing.passed:
                    # a metrized Killing form with multiplicity n2 = 2 marks a
                    # mutant, any other n2 an exceptional algebra
                    out["killing"]["classification"] = "mutant" if data["n2"] == 2 else "exceptional"
                source = getattr(alg, "source", None)
                if source is None and alg.name.startswith("triple(") and alg.name.endswith(")"):
                    # documents carry only the name; recover catalog sources,
                    # but only when their triple is this very algebra
                    from .catalog import construct

                    try:
                        built = construct(alg.name)  # the triple, with its .source
                        source = built.source if built == alg else None
                    except ValueError:  # unknown name, or a source triple() rejects
                        source = None
                if source is not None:
                    src_qc = quasicomposition_check(source, seed=seed)
                    if src_qc.is_quasicomposition:
                        out["spectral"]["source_defect"] = src_qc.defect
                        out["spectral"]["defect_matches_d"] = src_qc.defect == data["d"]
    return out
