"""The integer kernel against the Polynomial route it replaced.

Every symbolic certificate runs in ``_zpoly`` over Z[sqrt 3] with one
denominator per algebra.  The references below are test-local copies of
the former certificates, built on the Scalar-polynomial names
``poly_product``, ``poly_pairing`` and ``divide_exact``, and on
``generic_vector`` and ``trace_polynomial`` from ``oracles``.  They
must agree on verdicts, theta, theta', Gram matrices, witness monomials
and division quotients: on drawn cubics over Q and Q(sqrt 3) with
diagonal metrics of entries 1, 2 and -1, exact (square-free monomials)
and not, on perturbed catalog tables, and on the theta = 1 and
wrong-theta negative controls.  The constants that the radial fallback and
the pseudocomposition check read off leading coefficients are compared with
the integer divisions they replaced, kept in ``oracles``, on the same draws
and on cubics that vanish at every candidate point of the theta probe.  The
radial certificate, which takes E - theta W one x_0-degree block at a time,
is compared with the whole-quintic route it replaced (``oracles``) on cubics
drawn as the refute workload draws them, on perturbed, harmonic and
probe-blind tables, and on catalog members at a drawn theta.  The eikonal
check, which compares x^3 with h(x,x) x block by block, is compared with
the per-coordinate divisions, on metrics with h(e_0, e_0) = 0 too.  The
oracles build x^3 and E whole, never from the blocks.  The fraction-free
solve and kernel basis (``complement``) are compared with the Scalar
eliminations they replaced.  The generic forms read off the table (x^2,
h(x,x), h(x,x^2)) and the products by the generic vector taken as
monomial shifts (xy, sigma(x)(xy), x(.), h(x,x) x_k, x x^2) are compared
with the products and pairings they replaced, on drawn tables over Q and
Q(sqrt 3), commutative or not, with no involution, a signed permutation or
a dense reflection; and the verdicts on dense Cayley copies of catalog
members with those on the members.
"""

import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, analysis
from coneforge.algebra import Algebra
from coneforge.analysis import (
    _composition_holds_symbolic,
    _monomial_indices,
    _symbolic_radial_defect,
    nonradial_hsiang_check,
    pseudocomposition_check,
    radial_hsiang_check,
)
from coneforge.catalog import construct
from coneforge.cubic import (
    algebra_from_cubic,
    cartan_munzner_check,
    cubic_from_algebra,
    poly_pairing,
    poly_product,
)
from coneforge.polynomials import CubicForm, Polynomial, divide_exact, parse_polynomial
from coneforge.scalars import Scalar, ZERO
from oracles import (
    candidate_vectors,
    cayley,
    cayley_copy,
    complement_basis,
    degeneracy_walk,
    dense_algebra_from_cubic,
    dense_gram_from_quadratic,
    dense_theta_gram,
    generic_forms,
    generic_vector,
    gradient_witness,
    hsiang_terms,
    nullspace,
    partial,
    product,
    pseudocomposition_division,
    radial_division,
    radial_quintic_defect,
    sigma,
    solve,
    trace_polynomial,
    trace_values,
    whole_cube,
    zeros,
)

# -- the Polynomial references -------------------------------------------------


def reference_e(alg):
    x = generic_vector(alg)
    x2 = poly_product(alg, x, x)
    x3 = poly_product(alg, x2, x)
    e = poly_pairing(alg, x2, x3)
    tr = trace_polynomial(alg)
    if tr:
        e = e - poly_pairing(alg, x2, x2) * tr
    return e, poly_pairing(alg, x, x2), poly_pairing(alg, x, x)


def leading_indices(poly):
    return _monomial_indices(poly.leading()[0])


def reference_defect(alg, theta, exact):
    if exact:
        x = generic_vector(alg)
        x2 = poly_product(alg, x, x)
        x3 = poly_product(alg, x2, x)
        x3x = poly_product(alg, x3, x)
        x2x2 = poly_product(alg, x2, x2)
        hxx = poly_pairing(alg, x, x)
        hx2x = poly_pairing(alg, x2, x)
        for k in range(alg.dim):
            component = (
                x3x[k] * 4 + x2x2[k] - hxx * x2[k] * (Scalar(3) * theta) - hx2x * x[k] * (Scalar(2) * theta)
            )
            if component:
                return leading_indices(component)
        return None
    e, c, norm = reference_e(alg)
    residual = e - norm * c * theta
    return leading_indices(residual) if residual else None


def reference_radial(alg, seed=0):
    """(theta, witness, exact) by the former probe and certificate."""
    traces = trace_values(alg)
    exact = not any(traces)
    for x in candidate_vectors(alg, seed):
        m, square = hsiang_terms(alg, x, traces)
        w = alg.h(x, x) * alg.h(x, square)
        if w:
            theta = Scalar(-4) * m / w
            witness = reference_defect(alg, theta, exact)
            return (theta if witness is None else None), witness, exact
    e, c, norm = reference_e(alg)
    if not c:
        return (ZERO, None, exact) if not e else (None, leading_indices(e), exact)
    quotient, stuck = divide_exact(e, c * norm)
    if stuck is not None:
        return None, _monomial_indices(stuck), exact
    if quotient and quotient.degree() > 0:
        return None, leading_indices(e), exact
    return (quotient.coefficient((0,) * alg.dim) if quotient else ZERO), None, exact


def reference_nonradial_division(alg):
    """(Gram matrix, witness) of the division E / h(x, x^2)."""
    e, c, _ = reference_e(alg)
    if not c:
        return None, None
    quotient, stuck = divide_exact(e, c)
    if quotient is None:
        return None, _monomial_indices(stuck)
    return reference_gram(quotient, alg.dim), None


def reference_gram(poly, dim):
    """The Gram matrix of a quadratic Polynomial."""
    half = Scalar(1) / Scalar(2)
    gram = zeros(dim, dim)
    for exps, coeff in poly.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            gram[i][i] = coeff
        else:
            i, j = support
            gram[i][j] = coeff * half
            gram[j][i] = coeff * half
    return gram


def reference_pseudocomposition(alg):
    x = generic_vector(alg)
    x3 = poly_product(alg, poly_product(alg, x, x), x)
    common = None
    for k in range(alg.dim):
        quotient, stuck = divide_exact(x3[k], x[k])
        if stuck is not None:
            return None
        if common is None:
            common = quotient
        elif quotient != common:
            return None
    scale, stuck = divide_exact(common, poly_pairing(alg, x, x))
    if stuck is not None or scale.degree() > 0:
        return None
    return scale.coefficient((0,) * alg.dim) if scale else ZERO


def reference_composition(alg):
    n = alg.dim
    x = generic_vector(alg, offset=0, nvars=2 * n)
    y = generic_vector(alg, offset=n, nvars=2 * n)
    sx = x
    if alg.involution is not None:
        sx = [sum((x[j] * s for j, s in enumerate(row) if s), Polynomial(2 * n)) for row in alg.involution]
    xy = poly_product(alg, x, y)
    lhs = poly_product(alg, x, poly_product(alg, sx, xy))
    hxx = poly_pairing(alg, x, x)
    return all(l == hxx * c for l, c in zip(lhs, xy))


def reference_cartan_munzner(u, constant):
    n = u.nvars
    residual = Polynomial(n)
    for i in range(n):
        p = partial(u, i)
        residual = residual + p * p
    radius2 = Polynomial(n, {tuple(2 * (k == i) for k in range(n)): Scalar(1) for i in range(n)})
    residual = residual - constant * (radius2 * radius2)
    witness = None if residual.is_zero else residual.leading()[0]
    return residual.is_zero, str(residual), witness


# -- drawn inputs -------------------------------------------------------------

SCALARS = {
    "Q": st.builds(Scalar, st.fractions(-3, 3, max_denominator=3)),
    "Qr3": st.builds(Scalar, st.integers(-3, 3), st.fractions(-2, 2, max_denominator=2)),
}


@st.composite
def cubic_algebras(draw, exact=None):
    """dense_algebra_from_cubic of a drawn cubic and diagonal metric (1, 2, -1)."""
    exact = draw(st.booleans()) if exact is None else exact
    n = draw(st.integers(3 if exact else 2, 5), label="dim")
    if exact:
        # square-free monomials are harmonic for every diagonal metric
        monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    else:
        monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3)
    monomial = monomial.map(lambda idx: tuple(idx.count(i) for i in range(n)))
    field = draw(st.sampled_from(sorted(SCALARS)), label="field")
    terms = draw(st.dictionaries(monomial, SCALARS[field].filter(bool), min_size=1, max_size=6), label="u")
    weights = draw(st.lists(st.sampled_from([1, 2, -1]), min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
    return dense_algebra_from_cubic(CubicForm(n, terms), metric=metric)


PERTURBED_SOURCES = ["triple(R)", "triple(C)", "triple(paraC)", "cartan(0)", "cartan(1)"]


@st.composite
def perturbed_catalog(draw):
    """A catalog table with one more cubic term, so it stays metrized."""
    base = construct(draw(st.sampled_from(PERTURBED_SOURCES), label="source"))
    n = base.dim
    idx = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), label="monomial")
    exps = tuple(idx.count(i) for i in range(n))
    coeff = draw(SCALARS["Qr3"].filter(bool), label="coefficient")
    u = cubic_from_algebra(base) + Polynomial(n, {exps: coeff})
    assume(u)
    return dense_algebra_from_cubic(u, metric=base.metric)


def radial_outcome(alg):
    report = radial_hsiang_check(alg)
    return report.radial, report.witness, report.exact


def block_witness(alg, theta):
    """The leading monomial of the first nonzero block of E - theta W, as
    indices, or None when every block vanishes: the witness of the quintic
    itself, which an algebra that is not exact reports."""
    failing = next(filter(None, alg._integer_forms.radial_blocks(theta)), None)
    return None if failing is None else analysis._leading_witness(failing)


# -- radial, nonradial, pseudocomposition ------------------------------------

CATALOG_COMMUTATIVE = [
    "triple(R)", "triple(C)", "triple(H)", "triple(paraC)", "triple(cross3)",
    "cartan(0)", "cartan(1)", "cartan(2)", "clifford(1,2)", "clifford(2,3)", "paraC", "paraH(2)",
]


def _from_cubic(text, weights):
    n = len(weights)
    metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
    return dense_algebra_from_cubic(parse_polynomial(text, n), metric=metric)


# radial verdicts with a denominator D > 1 or through the quintic form E - theta W
SPECIAL_CASES = {
    "triple(C)/2": lambda: construct("triple(C)").rescaled(Scalar(Fraction(1, 2))),
    "cartan(1)*(1/3+r3/2)": lambda: construct("cartan(1)").rescaled(Scalar(Fraction(1, 3), Fraction(1, 2))),
    "cube": lambda: _from_cubic("1/2*x1^3+3/2*x1^2*x2+3/2*x1*x2^2+1/2*x2^3", [2, 1]),
    "cube over Q(r3)": lambda: _from_cubic("1r3*x1^3", [1, 2]),
    "nonradial": lambda: _from_cubic("1*x1^2*x2+1*x1*x2^2+1*x1*x2*x3", [1, 2, 1]),
    # radial with theta = 0 on an indefinite metric, where the degeneracy
    # conditions disagree
    "indefinite radial": lambda: _from_cubic("1*x1*x2^2+1*x2^2*x3", [1, 1, -1]),
}


@pytest.mark.parametrize("name", CATALOG_COMMUTATIVE + sorted(SPECIAL_CASES))
def test_catalog_radial_and_pseudocomposition_match(name):
    alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    assert radial_outcome(alg) == reference_radial(alg)
    report = nonradial_hsiang_check(alg)
    if report.radial is None:
        assert (report.nonradial_b, report.witness) == reference_nonradial_division(alg)
    else:
        assert report.nonradial_b == dense_theta_gram(alg, report.radial)
    result = pseudocomposition_check(alg)
    assert (result[0] if result else None) == reference_pseudocomposition(alg)


@given(alg=cubic_algebras())
@settings(max_examples=40, deadline=None)
def test_drawn_cubics_match(alg):
    assert radial_outcome(alg) == reference_radial(alg)
    result = pseudocomposition_check(alg)
    assert (result[0] if result else None) == reference_pseudocomposition(alg)
    assert _composition_holds_symbolic(alg) == reference_composition(alg)


@given(alg=cubic_algebras())
@settings(max_examples=30, deadline=None)
def test_drawn_nonradial_division_matches(alg):
    report = nonradial_hsiang_check(alg)
    if report.radial is not None:
        assert report.nonradial_b == dense_theta_gram(alg, report.radial)
        return
    gram, witness = reference_nonradial_division(alg)
    assert (report.nonradial_b, report.witness) == (gram, witness)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_quotients_give_the_dense_gram(data):
    # the Gram matrix read off integer rows against the dense fill it replaced
    n = data.draw(st.integers(1, 5), label="nvars")
    monomial = st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(
        lambda idx: tuple(idx.count(i) for i in range(n))
    )
    terms = data.draw(st.dictionaries(monomial, SCALARS["Qr3"].filter(bool), max_size=8), label="quotient")
    q, den = _zpoly.from_polynomial(Polynomial(n, terms), _zpoly.Ring(n))
    den *= data.draw(st.integers(1, 6), label="scale")
    assert analysis._gram_from_quadratic(q, den) == dense_gram_from_quadratic(q, den)


# radial members beyond CATALOG_COMMUTATIVE, whose test checks theta G too
@pytest.mark.parametrize("name", ["triple(O)", "triple(color)", "clifford(4,5)"])
def test_radial_gram_matches_the_dense_scale(name):
    alg = construct(name)
    report = nonradial_hsiang_check(alg)
    assert report.radial is not None
    assert report.nonradial_b == dense_theta_gram(alg, report.radial)


@given(alg=perturbed_catalog())
@settings(max_examples=25, deadline=None)
def test_perturbed_catalog_tables_match(alg):
    assert radial_outcome(alg) == reference_radial(alg)
    result = pseudocomposition_check(alg)
    assert (result[0] if result else None) == reference_pseudocomposition(alg)


@pytest.mark.parametrize("name", ["triple(R)", "triple(C)", "triple(cross3)", "cartan(1)", "clifford(1,2)"])
@pytest.mark.parametrize("theta", [Scalar(1), Scalar(Fraction(4, 3)) + Scalar(0, 1), Scalar(35), Scalar(0)])
def test_wrong_theta_controls_fail_alike(name, theta):
    alg = construct(name)
    exact = not any(trace_values(alg))
    witness = _symbolic_radial_defect(alg, theta)
    assert witness is not None
    assert witness == reference_defect(alg, theta, exact)
    assert block_witness(alg, theta) == reference_defect(alg, theta, False)


@pytest.mark.parametrize("name", ["triple(C)/2", "cartan(1)*(1/3+r3/2)", "triple(cross3)", "cartan(2)"])
def test_true_theta_passes_both_forms(name):
    # on an exact radial algebra the quintic E - theta W vanishes as well
    # as the gradient form, which pins every power of D in both
    alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    theta = radial_hsiang_check(alg).radial
    assert theta
    assert _symbolic_radial_defect(alg, theta) is None
    assert analysis._gradient_witness(alg, theta) is None
    assert block_witness(alg, theta) is None
    assert reference_defect(alg, theta, False) is None


@given(alg=cubic_algebras(), theta=SCALARS["Qr3"])
@settings(max_examples=25, deadline=None)
def test_drawn_theta_defects_match(alg, theta):
    exact = analysis.is_exact(alg)
    assert _symbolic_radial_defect(alg, theta) == reference_defect(alg, theta, exact)
    # each form on its own, whichever the verdict reads
    assert analysis._gradient_witness(alg, theta) == reference_defect(alg, theta, True)
    assert block_witness(alg, theta) == reference_defect(alg, theta, False)


# -- the radial quintic on exact algebras ------------------------------------------
#
# On an exact algebra without involution the radial check certifies the one
# scalar quintic E - theta W and builds the quartic gradient form only to
# name a failure; reference_radial decides every exact algebra through the
# gradient form, as the check did before.

HARMONIC_SOURCES = ["cartan(1)", "clifford(1,2)", "triple(R)", "triple(C)", "triple(paraC)"]


@st.composite
def harmonic_perturbations(draw):
    """An exact catalog member with one more cubic term on three distinct
    indices: harmonic for the diagonal metric, so the table stays exact."""
    base = construct(draw(st.sampled_from(HARMONIC_SOURCES), label="source"))
    n = base.dim
    idx = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True), label="monomial")
    coeff = draw(SCALARS["Qr3"].filter(bool), label="coefficient")
    u = cubic_from_algebra(base) + Polynomial(n, {tuple(idx.count(i) for i in range(n)): coeff})
    assume(u)
    return dense_algebra_from_cubic(u, metric=base.metric)


@given(alg=st.one_of(harmonic_perturbations(), cubic_algebras(exact=True)), seed=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_exact_algebras_match_the_gradient_route(alg, seed):
    report = radial_hsiang_check(alg, seed=seed)
    assert report.exact
    assert (report.radial, report.witness, report.exact) == reference_radial(alg, seed)
    if report.witness is not None:
        assert len(report.witness) == 4  # named by the gradient form


def _count_convolutions(monkeypatch):
    """One entry per polynomial product (a ``_zpoly._convolve`` call)."""
    calls = []
    convolve = _zpoly._convolve

    def counted(*args):
        calls.append(1)
        return convolve(*args)

    monkeypatch.setattr(_zpoly, "_convolve", counted)
    return calls


def _count_squares(monkeypatch):
    """One entry per build of IntegerForms.squares (x and D x^2): the
    number of polynomial products that build made."""
    builds = []
    convolutions = _count_convolutions(monkeypatch)
    build = _zpoly.IntegerForms.squares.func

    def counted(self):
        before = len(convolutions)
        value = build(self)
        builds.append(len(convolutions) - before)
        return value

    squares = functools.cached_property(counted)
    squares.__set_name__(_zpoly.IntegerForms, "squares")
    monkeypatch.setattr(_zpoly.IntegerForms, "squares", squares)
    return builds


def _count_cube_blocks(monkeypatch):
    built = []
    build = _zpoly.IntegerForms._build_cube_block

    def counted(self, s):
        built.append(s)
        return build(self, s)

    monkeypatch.setattr(_zpoly.IntegerForms, "_build_cube_block", counted)
    return built


def test_a_passing_exact_radial_check_makes_one_product_and_each_cube_block_once(monkeypatch):
    # D x^2 is built once, read off the table by no product, and D^2 x^3
    # is built once, block by block; the cubic of the degeneracy check is
    # the C of the quintic, and the gradient form's x^3 x and x^2 x^2 are
    # never built
    alg = construct("triple(C)")
    squares = _count_squares(monkeypatch)
    built = _count_cube_blocks(monkeypatch)
    report = radial_hsiang_check(alg)
    analysis.degeneracy_check(alg)
    assert report.radial == Scalar(4) / Scalar(3) and report.exact
    assert squares == [0] and built == [0, 1, 2, 3]
    assert "quintic" not in vars(alg._integer_forms)


def test_the_cubic_needs_only_the_square(monkeypatch):
    # the cubic is read off the trilinear form: it builds neither x^2 nor
    # a block of x^3, and makes no polynomial product
    alg = construct("triple(H)")
    squares = _count_squares(monkeypatch)
    built = _count_cube_blocks(monkeypatch)
    convolutions = _count_convolutions(monkeypatch)
    cubic_from_algebra(alg)
    assert squares == [] and built == [] and convolutions == []
    # the square, built once by no product, is shared with the cube a
    # passing radial check builds later, from its blocks
    x2 = alg._integer_forms.squares[1]
    assert squares == [0]
    assert radial_hsiang_check(alg).radial is not None
    assert alg._integer_forms.squares[1] is x2 and squares == [0] and built == [0, 1, 2, 3]


def test_a_failing_quintic_with_a_vanishing_gradient_is_an_inconsistency(monkeypatch):
    alg = construct("cartan(1)")
    assert analysis.is_exact(alg) and block_witness(alg, Scalar(1)) is not None
    monkeypatch.setattr(analysis, "_gradient_witness", lambda alg, theta: None)
    with pytest.raises(RuntimeError):
        _symbolic_radial_defect(alg, Scalar(1))


@pytest.mark.parametrize("name", ["cube", "indefinite radial", "R"])
def test_exact_set_on_a_traced_algebra_keeps_the_gradient_route(name):
    # radial but not exact: E - theta W vanishes while the gradient form of
    # the trace-free case does not, so the route must follow the table's
    # own traces and certify by the quintic
    alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    theta = radial_hsiang_check(alg).radial
    assert theta is not None and not analysis.is_exact(alg)
    assert _symbolic_radial_defect(alg, theta) is None and block_witness(alg, theta) is None
    witness = analysis._gradient_witness(alg, theta)
    assert witness is not None and witness == reference_defect(alg, theta, True)


def test_an_involution_keeps_the_gradient_route(monkeypatch):
    # exact and metrized, but sigma breaks the symmetry of h(x y, z) that
    # makes the quintic and its gradient vanish together
    alg = Algebra(
        2,
        [(0, 0, 0, -2), (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 1)],
        metric=[[2, 0], [0, -1]],
        involution=[[1, 0], [0, -1]],
        commutative=True,
    )
    assert analysis.is_exact(alg) and analysis.check_metrized(alg).passed
    expected = reference_defect(alg, Scalar(2), True)
    expanded = property(lambda self: pytest.fail("the quintic is expanded"))
    monkeypatch.setattr(_zpoly.IntegerForms, "quintic", expanded)
    assert _symbolic_radial_defect(alg, Scalar(2)) == expected == (0, 0, 1, 1)


@functools.cache
def probe_blind_cubics(n, used):
    """A basis of the cubics in the variables 0 .. used - 1 that vanish at
    every integer candidate of dimension n at seed 0: on their algebras
    C = h(x,x^2) = 6u, and with it W = h(x,x) C, vanishes at every probe
    although C is not zero."""
    supports = sorted(itertools.combinations_with_replacement(range(used), 3), reverse=True)
    points = list(candidate_vectors(Algebra(n, []), 0))
    kernel = nullspace([[x[a] * x[b] * x[c] for a, b, c in supports] for x in points])
    monomials = [tuple(support.count(i) for i in range(n)) for support in supports]
    return [Polynomial(n, {m: c for m, c in zip(monomials, v) if c}) for v in kernel]


def test_radial_theta_from_leading_coefficients_when_every_probe_misses():
    # dimension 6 has 37 integer candidates (6 units, 15 pairs and 16
    # seeded points), so the cubics u vanishing at all of them form a
    # 19-dimensional space; theta is then read off the leading monomial of W
    # and certified by the quintic
    n = 6
    kernel = probe_blind_cubics(n, n)
    assert len(list(candidate_vectors(Algebra(n, []), 0))) == 37 and len(kernel) == 19
    alg = algebra_from_cubic(kernel[0])
    assert analysis._radial_probe(alg, 0) is None
    e, c, norm = reference_e(alg)
    assert c
    quotient, stuck = divide_exact(e, c * norm)
    if stuck is not None:
        expected = _monomial_indices(stuck)
    else:
        assert quotient.degree() > 0
        expected = leading_indices(e)
    report = radial_hsiang_check(alg, seed=0)
    assert report.radial is None
    assert report.witness == expected == (1, 1, 1, 1, 2)
    assert (report.radial, report.witness) == radial_division(alg)


@st.composite
def probe_blind_algebras(draw):
    """algebra_from_cubic of a drawn combination of probe_blind_cubics: on 6
    variables with the identity or a drawn +-1 diagonal metric, or on 6 of 7
    variables with the involution that flips the idle seventh, which keeps
    h(x y, z) = h(x, z sigma(y))."""
    case = draw(st.sampled_from(["identity", "signs", "involution"]), label="case")
    n = 7 if case == "involution" else 6
    kernel = probe_blind_cubics(n, 6)
    picks = draw(st.dictionaries(st.integers(0, len(kernel) - 1), st.integers(-2, 2).filter(bool), min_size=1, max_size=3))
    u = Polynomial(n)
    for index, c in picks.items():
        u = u + kernel[index] * Scalar(c)
    assume(u)
    signs = [1] * n if case == "identity" else draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    metric = [[s if i == j else 0 for j in range(n)] for i, s in enumerate(signs)]
    alg = dense_algebra_from_cubic(u, metric=metric)
    if case == "involution":
        flip = [[(-1 if i == n - 1 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
        entries = list(alg.structure_entries())
        alg = Algebra(n, entries, metric=metric, involution=flip, commutative=True)
        assert alg.involution is not None and analysis.check_metrized(alg).passed
    return alg


@given(alg=probe_blind_algebras())
@settings(max_examples=30, deadline=None)
def test_probe_blind_cubics_match_the_radial_division(alg):
    assert analysis._radial_probe(alg, 0) is None
    report = radial_hsiang_check(alg, seed=0)
    theta, witness = radial_division(alg)
    assert report.radial == theta
    if not report.exact:
        assert report.witness == witness


def assert_forced_fallback_matches_the_division(alg):
    # with every probe taken to miss, theta comes from the leading monomial
    # of W; on an exact algebra the gradient form names a failure, where the
    # division named its stuck monomial
    with mock.patch.object(analysis, "_radial_probe", lambda alg, seed: None):
        report = radial_hsiang_check(alg)
    theta, witness = radial_division(alg)
    assert report.radial == theta
    if not report.exact:
        assert report.witness == witness


@pytest.mark.parametrize("name", CATALOG_COMMUTATIVE + sorted(SPECIAL_CASES) + ["C", "flip"])
def test_catalog_forced_fallback_matches_the_division(name):
    if name == "flip":
        alg = Algebra(
            2,
            [(0, 0, 0, -2), (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 1)],
            metric=[[2, 0], [0, -1]],
            involution=[[1, 0], [0, -1]],
            commutative=True,
        )
    else:
        alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    assert_forced_fallback_matches_the_division(alg)


@given(alg=st.one_of(cubic_algebras(), perturbed_catalog(), harmonic_perturbations()))
@settings(max_examples=40, deadline=None)
def test_drawn_forced_fallback_matches_the_division(alg):
    assert_forced_fallback_matches_the_division(alg)


def pseudocomposition_theta(alg):
    result = pseudocomposition_check(alg)
    return result[0] if result is not None else None


@pytest.mark.parametrize("name", CATALOG_COMMUTATIVE + sorted(SPECIAL_CASES) + ["C"])
def test_catalog_pseudocomposition_matches_the_division(name):
    alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    for factor in (Scalar(1), Scalar(Fraction(2, 3)), Scalar(Fraction(1, 2), Fraction(1, 2))):
        scaled = alg.rescaled(factor)
        assert pseudocomposition_theta(scaled) == pseudocomposition_division(scaled)


@given(
    alg=st.one_of(cubic_algebras(), perturbed_catalog(), harmonic_perturbations()),
    factor=st.sampled_from([Scalar(1), Scalar(Fraction(2, 3)), Scalar(Fraction(1, 2), Fraction(1, 2))]),
)
@settings(max_examples=40, deadline=None)
def test_drawn_pseudocomposition_matches_the_division(alg, factor):
    alg = alg.rescaled(factor)
    assert pseudocomposition_theta(alg) == pseudocomposition_division(alg)


# The eikonal check compares s D^2 x^3 with r D h(x,x) x one x_0-degree
# block at a time; with h(e_0, e_0) = 0, h(x,x) has no block 0 and r is
# read in a later block.

NULL_METRIC = [[0, 1], [1, 0]]  # h(e_0, e_0) = 0

EIKONAL_CASES = {
    "zero": lambda: Algebra(3, [], metric=[[1, 0, 0], [0, 2, 0], [0, 0, -1]], commutative=True),
    "zero, null e_0": lambda: Algebra(2, [], metric=NULL_METRIC, commutative=True),
    "x1^3-2x2^3, null e_0": lambda: dense_algebra_from_cubic(parse_polynomial("1*x1^3-2*x2^3", 2), metric=NULL_METRIC),
    "x1^3+x1^2x2, null e_0": lambda: dense_algebra_from_cubic(parse_polynomial("1*x1^3+1*x1^2*x2", 2), metric=NULL_METRIC),
    "x1^3+x1^2x2": lambda: algebra_from_cubic(parse_polynomial("1*x1^3+1*x1^2*x2", 2)),
    "cartan(0)": lambda: construct("cartan(0)"),
    "paraC": lambda: construct("paraC"),
    "paraH(2)": lambda: construct("paraH(2)"),
}


@pytest.mark.parametrize("name", sorted(EIKONAL_CASES))
@pytest.mark.parametrize("factor", [Scalar(1), Scalar(Fraction(1, 7)), Scalar(Fraction(2, 7), Fraction(1, 5))])
def test_eikonal_cases_match_the_division(name, factor):
    alg = EIKONAL_CASES[name]().rescaled(factor)
    if factor != Scalar(1) and not name.startswith("zero"):
        assert alg._integer_forms.denominator > 1
    expected = pseudocomposition_division(fresh(alg))
    assert pseudocomposition_theta(alg) == expected == reference_pseudocomposition(alg)
    assert (expected is not None) == ("+" not in name)


@pytest.mark.parametrize("name", ["zero", "zero, null e_0"])
def test_a_zero_cube_is_eikonal_with_theta_prime_zero(name):
    # x^3 = 0 = 0 h(x,x) x, and theta' = 0 is not positive
    alg = EIKONAL_CASES[name]()
    assert pseudocomposition_check(alg) == (ZERO, False)
    assert pseudocomposition_division(alg) == ZERO


def test_a_failing_eikonal_check_builds_only_the_block_it_stops_at(monkeypatch):
    # h(e_0, e_0) != 0 puts r in block 0, and x_0 (x_0 x_0) is not a multiple
    # of e_0, so block 0 refutes: no other block of x^3 is built, and no product
    alg = EIKONAL_CASES["x1^3+x1^2x2"]()
    e0 = alg.basis_vector(0)
    cube = alg.multiply(e0, alg.multiply(e0, e0))
    assert alg.h(e0, e0) and cube[1]
    alg._integer_forms.squares  # D x^2, which the blocks are built from
    squares = _count_squares(monkeypatch)
    built = _count_cube_blocks(monkeypatch)
    convolutions = _count_convolutions(monkeypatch)
    assert pseudocomposition_check(alg) is None
    assert built == [0] and squares == [] and convolutions == []


@pytest.mark.parametrize("name", ["cartan(1)", "clifford(2,3)"])
def test_the_eikonal_check_skips_pairs_with_both_sides_empty(monkeypatch, name):
    # on a diagonal metric h(x,x) has no block 1, so block 0 of h(x,x) x_k
    # (k > 0) and block 2 of h(x,x) x_0 are empty; where block t of x^3_k is
    # empty too, the pair (t, k) makes no copy and no shift
    alg = construct(name)
    forms = alg._integer_forms
    n = alg.dim
    norm = _zpoly.blocks(forms.norm, 2) + [_zpoly.ZPoly(forms.ring)]
    cube = [forms.cube_block(t) for t in range(4)]
    assert norm[0] and not norm[1] and norm[2]
    compared = [(t, k) for t in range(4) for k in range(n) if cube[t][k] or norm[t - (k > 0)]]
    assert len(compared) < 4 * n
    blocks = {id(cube[t][k]): (t, k) for t in range(4) for k in range(n)}
    copied, copies, shifts = [], [], []
    shifted, scaled = _zpoly.shifted, _zpoly.ZPoly.scaled

    def counted_shifted(p, step):
        shifts.append(step)
        return shifted(p, step)

    def counted_scaled(self, c):
        (copied if id(self) in blocks else copies).append(blocks.get(id(self)))
        return scaled(self, c)

    monkeypatch.setattr(_zpoly, "shifted", counted_shifted)
    monkeypatch.setattr(_zpoly.ZPoly, "scaled", counted_scaled)
    convolutions = _count_convolutions(monkeypatch)
    result = pseudocomposition_check(alg)
    monkeypatch.undo()
    assert (result[0] if result else None) == pseudocomposition_division(fresh(alg))
    # the pairs compared are those with a side, in order, up to the first
    # mismatch, each with one copy of x^3_k and one shift of h(x,x), and
    # no polynomial product at all
    assert copied == compared[: len(copied)] and len(shifts) == len(copied) and convolutions == []
    assert result is None or copied == compared
    # and a head and a tail of h(x,x) per block reached
    assert len(copies) == 2 * (copied[-1][0] + 1)


@given(alg=st.one_of(harmonic_perturbations(), cubic_algebras(exact=True)))
@settings(max_examples=30, deadline=None)
def test_exact_tables_match_the_hessian_walk(alg):
    details = analysis.degeneracy_check(alg).details
    assert all(details == degeneracy_walk(alg, seed) for seed in range(4))


def _forbid_division(monkeypatch):
    monkeypatch.setattr(_zpoly, "divide", lambda *args: pytest.fail("a polynomial division"))


@pytest.mark.parametrize("name", ["triple(C)", "cartan(1)", "clifford(1,2)", "paraC", "probe-blind"])
def test_radial_verdicts_never_divide(monkeypatch, name):
    alg = algebra_from_cubic(probe_blind_cubics(6, 6)[0]) if name == "probe-blind" else construct(name)
    theta, _ = radial_division(alg)
    _forbid_division(monkeypatch)
    assert radial_hsiang_check(alg).radial == theta


@pytest.mark.parametrize("name", ["triple(C)", "cartan(0)", "paraC", "triple(R)"])
def test_pseudocomposition_never_divides(monkeypatch, name):
    alg = construct(name)
    expected = pseudocomposition_division(alg)
    _forbid_division(monkeypatch)
    assert pseudocomposition_theta(alg) == expected


def test_one_nonradial_check_expands_the_quintic_once(monkeypatch):
    # the radial check fails on the first nonzero block of E - theta W; the
    # nonradial division then expands E once, as all six blocks at
    # theta = 0, and both read each block of x^3 built once
    alg = algebra_from_cubic(parse_polynomial("x1^3 + 2*x1*x2*x3 - x2^2*x3 + x3^3", 3))
    drawn = []  # the blocks each radial_blocks call yields
    radial_blocks = _zpoly.IntegerForms.radial_blocks

    def counted(self, theta):
        drawn.append(0)
        for block in radial_blocks(self, theta):
            drawn[-1] += 1
            yield block

    monkeypatch.setattr(_zpoly.IntegerForms, "radial_blocks", counted)
    built = _count_cube_blocks(monkeypatch)
    report = nonradial_hsiang_check(alg)
    assert report.radial is None and report.witness is not None
    assert len(drawn) == 2 and drawn[0] < 6 and drawn[1] == 6
    assert built == [0, 1, 2, 3]
    # E is kept: a second check repeats only the radial certificate
    assert nonradial_hsiang_check(alg).witness == report.witness and drawn[2:] == drawn[:1]


# -- the radial quintic by x_0-degree blocks ------------------------------------
#
# The radial certificate takes E - theta W one x_0-degree block at a time
# and stops at the first nonzero block; radial_quintic_defect (oracles)
# expands the whole quintic at once, from a cube of its own, as the
# certificate did before.  The witness (or None) must agree with it, both
# the quintic's own and the verdict's, which on an exact algebra the
# gradient form names.


@functools.cache
def refute_supports(n):
    """The supports of the refute workload's cubics in n variables: fixed
    for each n, 3n/2 sorted index triples drawn by random.Random(n)."""
    shape = random.Random(n)
    supports = set()
    while len(supports) < n + n // 2:
        supports.add(tuple(sorted(shape.randrange(n) for _ in range(3))))
    return sorted(supports)


@st.composite
def refute_cubics(draw):
    """algebra_from_cubic of a cubic in 6 to 16 variables on the supports of
    the refute workload, with drawn coefficients over Q(sqrt 3) and a drawn
    relabelling of the variables, as that workload draws them."""
    n = draw(st.integers(6, 16), label="dim")
    perm = draw(st.permutations(range(n)), label="relabelling")
    coefficient = st.builds(Scalar, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([-2, -1, 0, 0, 1, 2]))
    terms = {}
    for support in refute_supports(n):
        exps = [0] * n
        for i in support:
            exps[perm[i]] += 1
        terms[tuple(exps)] = draw(coefficient, label="coefficient")
    return algebra_from_cubic(Polynomial(n, terms))


def fresh(alg):
    """A copy of alg with nothing cached."""
    entries = list(alg.structure_entries())
    return Algebra(alg.dim, entries, metric=alg.metric, involution=alg.involution, commutative=alg.commutative)


def whole_quintic_defect(alg, theta):
    return radial_quintic_defect(alg, theta, analysis.is_exact(alg))


def assert_blocks_match_the_quintic(alg, theta):
    assert block_witness(fresh(alg), theta) == radial_quintic_defect(fresh(alg), theta, False)
    assert _symbolic_radial_defect(fresh(alg), theta) == whole_quintic_defect(fresh(alg), theta)
    # and the whole verdict, at the probed theta or the fallback's
    with mock.patch.object(analysis, "_symbolic_radial_defect", whole_quintic_defect):
        expected = radial_outcome(fresh(alg))
    assert radial_outcome(fresh(alg)) == expected


@given(alg=refute_cubics(), theta=SCALARS["Qr3"])
@settings(max_examples=30, deadline=None)
def test_refute_cubics_match_the_whole_quintic(alg, theta):
    probed = analysis._radial_probe(alg, 0)
    assert_blocks_match_the_quintic(alg, probed if probed is not None else theta)


@given(alg=st.one_of(harmonic_perturbations(), perturbed_catalog(), probe_blind_algebras()), theta=SCALARS["Qr3"])
@settings(max_examples=60, deadline=None)
def test_drawn_tables_match_the_whole_quintic(alg, theta):
    probed = analysis._radial_probe(alg, 0)
    assert_blocks_match_the_quintic(alg, probed if probed is not None else theta)
    assert_blocks_match_the_quintic(alg, theta)


@given(name=st.sampled_from(CATALOG_COMMUTATIVE + sorted(SPECIAL_CASES) + ["C"]), theta=SCALARS["Qr3"])
@settings(max_examples=40, deadline=None)
def test_catalog_at_a_drawn_theta_matches_the_whole_quintic(name, theta):
    alg = SPECIAL_CASES[name]() if name in SPECIAL_CASES else construct(name)
    assert_blocks_match_the_quintic(alg, theta)


@given(alg=st.one_of(refute_cubics(), harmonic_perturbations(), perturbed_catalog(), cubic_algebras()))
@settings(max_examples=30, deadline=None)
def test_cube_blocks_merge_into_the_product(alg):
    # the blocks are those of the product D x^2 x, and merged they are it
    forms = alg._integer_forms
    expected = whole_cube(forms)
    parts = [forms.cube_block(s) for s in range(4)]
    for k in range(alg.dim):
        assert all(_zpoly.blocks(expected[k], 3)[s] == parts[s][k] for s in range(4))
        assert _zpoly.merge(forms.ring, (part[k] for part in parts)) == expected[k]
    # kept, not rebuilt
    assert all(forms.cube_block(s) is parts[s] for s in range(4))


@given(
    alg=st.one_of(refute_cubics(), harmonic_perturbations(), perturbed_catalog(), cubic_algebras()),
    theta=SCALARS["Qr3"],
)
@settings(max_examples=40, deadline=None)
def test_the_gradient_witness_stops_at_the_first_nonzero_component(alg, theta):
    # the same witness as the whole gradient form (oracles), with the
    # components of x^3 x (shifts) and x^2 x^2 (a product) built in order,
    # up to the first nonzero component of the form and no further
    expected = gradient_witness(fresh(alg), theta)
    built = []
    product_at, left_product_at = _zpoly.IntegerForms.product_at, _zpoly.IntegerForms.left_product_at

    def counted(self, p, q, k):
        built.append(k)
        return product_at(self, p, q, k)

    def counted_left(self, q, k):
        built.append(k)
        return left_product_at(self, q, k)

    with mock.patch.object(_zpoly.IntegerForms, "product_at", counted), mock.patch.object(
        _zpoly.IntegerForms, "left_product_at", counted_left
    ):
        assert analysis._gradient_witness(fresh(alg), theta) == expected
    last = alg.dim - 1 if expected is None else built[-1]
    assert built == [k for k in range(last + 1) for _ in range(2)]


@st.composite
def kernel_rows(draw):
    """(rows, n): sparse rows over Z[sqrt 3] in n columns, with sqrt 3 parts,
    empty and zero rows, and a combination of two rows that makes them
    rank-deficient."""
    n = draw(st.integers(1, 6), label="n")
    coeff = st.tuples(st.integers(-4, 4), st.sampled_from([0, 0, -1, 1, 2]))
    count = draw(st.integers(0, 6), label="rows")
    rows = [draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n), label="row") for _ in range(count)]
    if rows and draw(st.booleans(), label="combination"):
        f = draw(coeff, label="factor")
        rows.append(_zpoly.add(rows[0], {k: _zpoly.mul_coeff(f, v) for k, v in rows[-1].items()}))
    return rows, n


def assert_complement_matches(rows, n):
    # the same length and order as the Scalar kernel basis, each vector a
    # positive multiple of the reduced echelon row at its index
    basis = _zpoly.complement(rows, n)
    expected = complement_basis(rows, n)
    assert len(basis) == len(expected)
    for v, row in zip(basis, expected):
        v = [_zpoly.to_scalar(v.get(j, (0, 0))) for j in range(n)]
        pivot = next(j for j, x in enumerate(row) if x)
        assert v[pivot] > ZERO and v == [v[pivot] * x for x in row]
    assert all(_zpoly.dot(row, v) == (0, 0) for row in rows for v in basis)


@given(system=kernel_rows())
@settings(max_examples=200, deadline=None)
def test_the_fraction_free_complement_matches_the_scalar_kernel(system):
    assert_complement_matches(*system)


def test_the_fraction_free_complement_on_fixed_rows():
    # zero rows leave the identity basis, full rank leaves nothing
    for rows, n, expected in [
        ([{}, {1: (0, 0)}], 3, [{0: (1, 0)}, {1: (1, 0)}, {2: (1, 0)}]),
        ([], 1, [{0: (1, 0)}]),
        ([{0: (0, 2)}], 1, []),
        ([{0: (1, 1), 1: (2, 0)}, {1: (0, 1)}], 2, []),
    ]:
        assert _zpoly.complement(rows, n) == expected
        assert_complement_matches(rows, n)
    # (1 + sqrt 3) (x0 + x1) = 0: the kernel is e_0 - e_1, scaled by
    # |N(1 + sqrt 3)| = 2
    assert _zpoly.complement([{0: (1, 1), 1: (1, 1)}], 2) == [{0: (2, 0), 1: (-2, 0)}]


@st.composite
def linear_systems(draw):
    """Sparse rows over Z[sqrt 3], wide, tall or square, with zero and
    repeated rows, and a right-hand side: in the column space of the rows
    or drawn freely, so systems with free variables and inconsistent ones
    both occur."""
    rows_count = draw(st.integers(0, 6), label="rows")
    cols = draw(st.integers(1, 5), label="cols")
    coeff = st.tuples(st.integers(-4, 4), st.sampled_from([0, 0, -1, 1, 2]))
    rows = [draw(st.dictionaries(st.integers(0, cols - 1), coeff, max_size=cols), label="row") for _ in range(rows_count)]
    if rows and draw(st.booleans(), label="repeat"):
        rows.append(dict(rows[0]))
    if draw(st.booleans(), label="consistent"):
        x = draw(st.dictionaries(st.integers(0, cols - 1), coeff, max_size=cols), label="x")
        rhs = [_zpoly.dot(row, x) for row in rows]
    else:
        rhs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)), label="rhs")
    return rows, rhs, cols


@given(system=linear_systems())
@settings(max_examples=150, deadline=None)
def test_the_fraction_free_solve_matches_the_scalar_solve(system):
    # the same pivots as the Scalar rref, so the same solution, with the
    # free variables 0, or None on the same systems
    rows, rhs, cols = system
    x = _zpoly.solve([{**row, cols: b} for row, b in zip(rows, rhs)], cols)
    scalar_rows = [{j: _zpoly.to_scalar(c) for j, c in row.items()} for row in rows]
    assert x == solve(scalar_rows, [_zpoly.to_scalar(b) for b in rhs], cols)
    if x is not None:
        assert all(isinstance(v, Scalar) for v in x) and len(x) == cols
        assert [_zpoly.to_scalar(b) for b in rhs] == [
            sum((c * x[j] for j, c in row.items()), ZERO) for row in scalar_rows
        ]


def test_the_fraction_free_solve_on_fixed_systems():
    assert _zpoly.solve([], 2) == [ZERO] * 2
    assert _zpoly.solve([{3: (1, 0)}], 3) is None
    # x0 + x1 = 4 leaves x1 free, set to 0
    assert _zpoly.solve([{0: (1, 0), 1: (1, 0), 2: (4, 0)}], 2) == [Scalar(4), Scalar(0)]
    # (1 + sqrt 3) x = 2 gives x = sqrt 3 - 1; a zero entry is no entry
    assert _zpoly.solve([{0: (1, 1), 1: (2, 0)}, {0: (0, 0)}], 1) == [Scalar(-1, 1)]


def test_a_failing_verdict_on_the_x0_fifth_block_builds_one_cube_block(monkeypatch):
    # W vanishes at e_0 and E does not, so the probe moves on and Q has an
    # x_0^5 term: the first block refutes, and neither x^3 nor the quintic
    # is expanded
    alg = algebra_from_cubic(parse_polynomial("x1^2*x2 + x1*x3^2", 3))
    forms = alg._integer_forms
    built = _count_cube_blocks(monkeypatch)
    degrees = []
    pairing = _zpoly.IntegerForms.pairing

    def counted(self, p, q):
        degrees.append((max(v.degree() for v in p), max(v.degree() for v in q)))
        return pairing(self, p, q)

    monkeypatch.setattr(_zpoly.IntegerForms, "pairing", counted)
    report = radial_hsiang_check(alg)
    assert report.radial is None and not report.exact
    assert report.witness == (0, 0, 0, 0, 0) == reference_radial(alg)[1]
    assert built == [0]
    assert (2, 3) not in degrees and (3, 2) not in degrees
    assert "quintic" not in vars(forms)


def test_the_cube_is_built_once_for_the_radial_and_eikonal_checks(monkeypatch):
    # the radial certificate builds every block of x^3, and the
    # pseudocomposition check reads the same blocks, without a product
    alg = construct("cartan(1)")
    squares = _count_squares(monkeypatch)
    built = _count_cube_blocks(monkeypatch)
    assert radial_hsiang_check(alg).radial is not None
    blocks = list(alg._integer_forms._cube_blocks)
    assert built == [0, 1, 2, 3]
    convolutions = _count_convolutions(monkeypatch)
    assert pseudocomposition_check(alg) is not None
    assert built == [0, 1, 2, 3] and squares == [0] and convolutions == []
    assert all(a is b for a, b in zip(alg._integer_forms._cube_blocks, blocks, strict=True))


def test_the_radial_certificate_never_reads_the_quintic(monkeypatch):
    monkeypatch.setattr(_zpoly.IntegerForms, "quintic", property(lambda self: pytest.fail("the quintic is read")))
    for name in ["triple(C)", "cartan(2)", "clifford(2,3)", "triple(cross3)"]:
        alg = construct(name)
        assert radial_hsiang_check(alg).radial is not None
        for theta in (Scalar(1), Scalar(0, 1)):
            assert _symbolic_radial_defect(alg, theta) is not None


# -- composition in 2n variables -----------------------------------------------

COMPOSITION_SOURCES = ["R", "C", "H", "paraC", "paraH(2)", "cross3", "paraH(4)", "cartan(1)", "triple(R)"]


@pytest.mark.parametrize("name", COMPOSITION_SOURCES)
def test_catalog_composition_matches(name):
    alg = construct(name)
    assert _composition_holds_symbolic(alg) == reference_composition(alg)


@pytest.mark.parametrize("name", ["R", "paraC", "H", "cross3"])
@pytest.mark.parametrize("factor", [Scalar(Fraction(1, 2)), Scalar(Fraction(2, 3), Fraction(1, 3))])
def test_composition_holds_over_a_denominator(name, factor):
    # product times s and metric times s^2 keep the identity and give D > 1
    base = construct(name)
    alg = Algebra(
        base.dim,
        [(i, j, k, factor * c) for i, j, k, c in base.structure_entries()],
        metric=[[factor * factor * g for g in row] for row in base.metric],
        involution=base.involution,
        commutative=base.commutative,
    )
    assert alg._integer_forms.denominator > 1
    assert _composition_holds_symbolic(alg) == reference_composition(alg) == _composition_holds_symbolic(base)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_perturbed_composition_tables_match(data):
    # one structure constant moved, involution kept: metrized or not
    base = construct(data.draw(st.sampled_from(["C", "H", "paraC", "cross3", "paraH(2)"])))
    n = base.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    entries = [(a, b, c, v) for a, b, c, v in base.structure_entries()]
    entries.append((i, j, k, data.draw(SCALARS["Qr3"].filter(bool))))
    alg = Algebra(n, entries, metric=base.metric, involution=base.involution)
    assert _composition_holds_symbolic(alg) == reference_composition(alg)


# -- Cartan-Munzner -------------------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("constant", [Scalar(9), Scalar(1), Scalar(Fraction(9, 2), 1)])
def test_cartan_munzner_matches(d, constant):
    u = cubic_from_algebra(construct(f"cartan({d})"))
    report = cartan_munzner_check(u, constant)
    assert (report.passed, report.details["residual"], report.witness) == reference_cartan_munzner(u, constant)


@given(alg=cubic_algebras(), constant=SCALARS["Qr3"])
@settings(max_examples=25, deadline=None)
def test_drawn_cartan_munzner_matches(alg, constant):
    u = cubic_from_algebra(alg)
    report = cartan_munzner_check(u, constant)
    assert (report.passed, report.details["residual"], report.witness) == reference_cartan_munzner(u, constant)


# -- division --------------------------------------------------------------------


@st.composite
def polynomials(draw, n, max_degree, field="Qr3", min_size=0):
    exps = st.lists(st.integers(0, max_degree), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(exps, SCALARS[field].filter(bool), min_size=min_size, max_size=5))
    return Polynomial(n, terms)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_division_matches_divide_exact(data):
    n = data.draw(st.integers(1, 3))
    divisor = data.draw(polynomials(n, 2, min_size=1))
    quotient = data.draw(polynomials(n, 2))
    noise = data.draw(st.one_of(st.just(Polynomial(n)), polynomials(n, 3)))
    dividend = divisor * quotient + noise
    ring = _zpoly.Ring(n)
    p, p_den = _zpoly.from_polynomial(dividend, ring)
    q, q_den = _zpoly.from_polynomial(divisor, ring)
    got, scale, stuck = _zpoly.divide(p, q)
    expected, expected_stuck = divide_exact(dividend, divisor)
    if expected is None:
        assert got is None and ring.unpack(stuck) == expected_stuck
    else:
        # dividend / divisor = (got / scale) (q_den / p_den)
        assert stuck is None
        assert _zpoly.to_polynomial(got, scale * p_den) * Scalar(q_den) == expected


# -- guards and counts -------------------------------------------------------------


def test_degree_above_the_field_width_raises():
    ring = _zpoly.Ring(2)
    with pytest.raises(RuntimeError):
        ring.pack((16, 0))
    high = _zpoly.from_polynomial(parse_polynomial("1*x1^8", 2), ring)[0]
    with pytest.raises(RuntimeError):
        high * high
    # x1^9 has a partial x1^8, whose square would carry into the next field
    with pytest.raises(RuntimeError):
        cartan_munzner_check(parse_polynomial("1*x1^9+1*x2^3", 2), 1)


def test_full_fields_do_not_wrap():
    ring = _zpoly.Ring(3)
    p = _zpoly.from_polynomial(parse_polynomial("1*x1^15*x2^7+1*x3^15", 3), ring)[0]
    q = _zpoly.from_polynomial(parse_polynomial("1*x2^8", 3), ring)[0]
    product = _zpoly.to_polynomial(p * q)
    assert product == parse_polynomial("1*x1^15*x2^15+1*x2^8*x3^15", 3)
    # graded lexicographic order survives the packing
    assert ring.unpack((p * q).leading()) == (15, 15, 0)


def test_radial_probe_needs_one_hsiang_term_and_no_polynomial_product(monkeypatch):
    # the probe values E = -4 M on integers, once, at the first W != 0
    counts = {"mul": 0, "terms": 0}
    mul, terms = Polynomial.__mul__, analysis._point_e

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_terms(*args):
        counts["terms"] += 1
        return terms(*args)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counting_mul)
    monkeypatch.setattr(analysis, "_point_e", counting_terms)
    report = radial_hsiang_check(construct("triple(cross3)"))
    assert report.radial == Scalar(4) / Scalar(3)
    assert counts == {"mul": 0, "terms": 1}


def test_powers_are_built_once_per_algebra(monkeypatch):
    # x^2 is read off the table once, by no product, and shared; x^3 is
    # its four blocks, each built once and never by a product, whichever
    # check reads it first
    alg = construct("triple(C)")
    builds = _count_squares(monkeypatch)
    built = _count_cube_blocks(monkeypatch)
    radial_hsiang_check(alg)
    x, x2 = squares = alg._integer_forms.squares
    pseudocomposition_check(alg)
    nonradial_hsiang_check(alg)
    products, shifted = [], []
    product_at, left_product_at = _zpoly.IntegerForms.product_at, _zpoly.IntegerForms.left_product_at

    def counted(self, p, q, k):
        products.append((p, q))
        return product_at(self, p, q, k)

    def counted_left(self, q, k):
        shifted.append(q)
        return left_product_at(self, q, k)

    monkeypatch.setattr(_zpoly.IntegerForms, "product_at", counted)
    monkeypatch.setattr(_zpoly.IntegerForms, "left_product_at", counted_left)
    assert analysis._gradient_witness(alg, Scalar(1)) is not None  # it reads x^3 too
    assert alg._integer_forms.squares is squares and builds == [0] and built == [0, 1, 2, 3]
    # the gradient form builds x x^3 (by shifts) and x^2 x^2 (a product)
    # one component at a time; never x^2 x
    assert products and all(p is x2 and q is x2 for p, q in products)
    assert len(shifted) == len(products) and not any(q is x2 for q in shifted)


# -- the generic forms read off the table ----------------------------------------


def _signed_permutation(draw, n):
    """An involutive signed permutation: pairs swapped with one sign each,
    the other coordinates kept or negated."""
    order = draw(st.permutations(range(n)), label="order")
    swaps = draw(st.integers(0, n // 2), label="swaps")
    sigma = [[ZERO] * n for _ in range(n)]
    for t in range(swaps):
        i, j = order[2 * t], order[2 * t + 1]
        sign = Scalar(draw(st.sampled_from([1, -1]), label="sign"))
        sigma[i][j] = sigma[j][i] = sign
    for i in order[2 * swaps :]:
        sigma[i][i] = Scalar(draw(st.sampled_from([1, -1]), label="sign"))
    return sigma


def _reflection(draw, n):
    """I - 2 v v^T / v^T v for a v with no zero entry: a dense rational involution."""
    v = draw(st.lists(st.sampled_from([1, -1, 2, -3]), min_size=n, max_size=n), label="normal")
    norm = sum(a * a for a in v)
    return [[Scalar(int(i == j)) - Scalar(Fraction(2 * v[i] * v[j], norm)) for j in range(n)] for i in range(n)]


@st.composite
def generic_tables(draw):
    """A table on 2-4 basis vectors over Q or Q(sqrt 3), with entries of
    denominators up to 3 (so D > 1 as a rule), commutative or not, a
    diagonal metric, and no involution, a signed permutation or a dense
    rational reflection."""
    n = draw(st.integers(2, 4), label="dim")
    coefficients = SCALARS[draw(st.sampled_from(["Q", "Qr3"]), label="field")].filter(bool)
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, coefficients), min_size=1, max_size=12), label="table")
    commutative = draw(st.booleans(), label="commutative")
    if commutative:
        entries += [(j, i, k, c) for i, j, k, c in entries if i != j]
    weights = draw(st.lists(coefficients, min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights)]
    kind = draw(st.sampled_from(["none", "signed", "dense"]), label="involution")
    involution = {"none": None, "signed": _signed_permutation, "dense": _reflection}[kind]
    return Algebra(n, entries, metric=metric, involution=involution and involution(draw, n), commutative=commutative)


def assert_read_offs_match(forms):
    """x, D x^2, D h(x, x) and D^2 h(x, x^2) read off the table, against
    the products and pairings they replaced."""
    x, x2, norm, cubic = generic_forms(forms)
    assert forms.squares == (x, x2) and forms.norm == norm and forms.cubic == cubic


@given(alg=generic_tables())
@settings(max_examples=80, deadline=None)
def test_the_generic_forms_read_off_the_table_match_the_products(alg):
    forms = alg._integer_forms
    assert_read_offs_match(forms)
    # square_slots: the slots (i, j) and (j, i) merged, as sparse columns
    merged = {}
    for i, j, column in forms.slots:
        key = (min(i, j), max(i, j))
        merged[key] = _zpoly.add(merged.get(key, {}), dict(column))
    assert forms.square_slots == [(i, j, sorted(merged[i, j].items())) for i, j in sorted(merged)]
    # h(x,x) x_k, the right side of the eikonal check, and x x^2 by component
    x, x2 = forms.squares
    for k in range(alg.dim):
        assert _zpoly.shifted(forms.norm, forms.steps[k]) == forms.norm * x[k]
    assert [forms.left_product_at(x2, k) for k in range(alg.dim)] == product(forms, x, x2)
    # the three products of the composition identity, in 2n variables
    n = alg.dim
    ring = _zpoly.Ring(2 * n)
    x, y = ring.variables(0, n), ring.variables(n, n)
    xy = forms.left_product(x, y)
    assert xy == product(forms, x, y)
    if forms.involution_rows is None:
        inner = product(forms, x, xy)
        assert forms.left_product(x, xy) == inner
    else:
        inner = product(forms, sigma(forms, x), xy)
        assert forms.left_product(x, xy, sigma=True) == inner
    assert forms.left_product(x, inner) == product(forms, x, inner)


CAYLEY_SOURCES = ["triple(C)", "triple(cross3)", "cartan(2)", "H", "C", "cross3"]


def basis_free_verdicts(alg):
    """The parts of full_report that a change of basis keeps: the
    quasicomposition verdict and defect, theta and the Hsiang verdicts,
    theta' and the eikonal flag, and whether a witness is present."""
    report = analysis.full_report(alg, spectral=False)
    qc, hsiang = report.get("quasicomposition"), report.get("hsiang")
    return (
        report["metrized"]["pass"],
        qc and (qc["pass"], qc["defect"], qc["witness"] is not None),
        hsiang and (hsiang["radial"], hsiang["nonradial"], hsiang["degenerate"], hsiang["witness"] is not None),
        report.get("pseudocomposition"),
    )


@pytest.mark.parametrize("name", CAYLEY_SOURCES)
def test_dense_cayley_copies_keep_every_verdict(name):
    # the copies have a dense Q, so dense sigma(x) rows and dense x^2
    # columns, which no catalog member has
    base = construct(name)
    expected = basis_free_verdicts(base)
    for seed in range(3):
        assert all(all(row) for row in cayley(base.dim, seed))
        copy = cayley_copy(base, seed)
        assert basis_free_verdicts(copy) == expected
        assert_read_offs_match(copy._integer_forms)
