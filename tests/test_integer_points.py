"""Point evaluation on the integer table against the Scalar route it replaced.

The composition point check, the witness walk, the kernel dimensions of
L(sigma x) L(x), the theta probe of the radial check and the
pseudocomposition confirmation evaluate at an integer point on
``Algebra._integer_forms``: a drawn Scalar point is lifted to Z[sqrt 3]
by its own denominator (``_zpoly.lift_point``) and every product and
pairing carries a known power of the table's denominator D.  The
references below are test-local copies of the former routes, on the
dense operators of ``oracles.dense_operator`` (the former
``Algebra.mult_operator``), on ``multiply`` and ``h``, on the Scalar ``rank`` of ``oracles`` and on
the Scalar candidates and Hsiang terms of ``oracles``.  They must agree
on tables with entries of denominators 2, 3 and 4 and sqrt 3 parts (so D > 1),
with and without sqrt 3 involutions, at rational, sqrt 3 and isotropic
points, on rescaled composition algebras where the identity holds, and
on tables where W vanishes at every candidate.  The integer rank must
agree with that Scalar ``rank`` on drawn Z[sqrt 3] matrices.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, analysis
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra
from coneforge.analysis import radial_hsiang_check
from coneforge.catalog import construct
from coneforge.polynomials import CubicForm
from coneforge.scalars import ONE, Scalar, ZERO
from oracles import (
    candidate_vectors,
    dense_algebra_from_cubic,
    dense_operator,
    hsiang_terms,
    mat_scale,
    rank,
    seeded_points,
    trace_values,
)

# -- the Scalar references ---------------------------------------------------


def scalar_point_check(alg, x):
    lx = dense_operator(alg, x)
    lsx = lx if alg.involution is None else dense_operator(alg, alg.sigma(x))
    hxx = alg.h(x, x)
    for j, xy in enumerate(xl.transpose(lx)):
        lhs = xl.mat_vec(lx, xl.mat_vec(lsx, xy))
        if lhs != [hxx * v for v in xy]:
            return j
    return None


def scalar_kernel_dim(alg, x):
    lx = dense_operator(alg, x)
    lsx = lx if alg.involution is None else dense_operator(alg, alg.sigma(x))
    return alg.dim - rank([xl.mat_vec(lsx, column) for column in xl.transpose(lx)])


def scalar_witness(alg, seed):
    for x in candidate_vectors(alg, seed):
        j = scalar_point_check(alg, x)
        if j is not None:
            return tuple(x), tuple(alg.basis_vector(j))
    return None


def scalar_weight(alg, x):
    """W(x) = h(x,x) h(x,x^2) over Scalar."""
    hxx = alg.h(x, x)
    if not hxx:
        return ZERO
    return hxx * alg.h(x, alg.multiply(x, x))


def scalar_theta(alg, seed):
    traces = trace_values(alg)
    for x in candidate_vectors(alg, seed):
        w = scalar_weight(alg, x)
        if w:
            return Scalar(-4) * hsiang_terms(alg, x, traces)[0] / w
    return None


def scalar_pseudocomposition_holds(alg, theta_prime, x):
    p2 = alg.multiply(x, x)
    p3 = alg.multiply(p2, x)
    return alg.h(p3, p2) == theta_prime * alg.h(x, x) * alg.h(x, p2)


# -- drawn inputs --------------------------------------------------------------

R3 = Scalar(0, 1)
# rationals of denominators 1-4, some with a sqrt 3 part
ENTRIES = st.builds(
    Scalar,
    st.fractions(-2, 2, max_denominator=4),
    st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3)]),
).filter(bool)
POINT_ENTRIES = st.one_of(
    st.integers(-3, 3).map(Scalar),
    st.builds(Scalar, st.fractions(-2, 2, max_denominator=6)),
    st.builds(Scalar, st.integers(-2, 2), st.fractions(-1, 1, max_denominator=3)),
)
# sqrt 3 involutions of the plane spanned by e_0 and e_1, and two without sqrt 3
PLANE_INVOLUTIONS = [
    [[2, R3], [-R3, -2]],
    [[Fraction(1, 2), R3 / 2], [R3 / 2, Fraction(-1, 2)]],
    [[0, 1], [1, 0]],
    [[1, 0], [0, -1]],
]
METRIC_ENTRIES = [ONE, Scalar(2), -ONE, Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 3)), Scalar(1, 1)]


def involution(n, plane, flips):
    sigma = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    sigma[0][:2], sigma[1][:2] = plane
    for k, flip in enumerate(flips, start=2):
        if flip:
            sigma[k][k] = -ONE
    return sigma


@st.composite
def tables(draw, commutative=None, isotropic=False):
    """A table on 2-4 basis vectors with fractional and sqrt 3 entries, a
    diagonal metric and, sometimes, an involution; isotropic puts g and
    -g on e_0 and e_1, so (t, t, 0, ...) has h(x,x) = 0."""
    n = draw(st.integers(2, 4), label="dim")
    commutative = draw(st.booleans()) if commutative is None else commutative
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, ENTRIES), min_size=1, max_size=10), label="table")
    if commutative:
        entries += [(j, i, k, c) for i, j, k, c in entries if i != j]
    weights = draw(st.lists(st.sampled_from(METRIC_ENTRIES), min_size=n, max_size=n), label="metric")
    if isotropic:
        weights[1] = -weights[0]
    metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights)]
    sigma = None
    if draw(st.booleans(), label="involution"):
        plane = draw(st.sampled_from(PLANE_INVOLUTIONS), label="plane")
        sigma = involution(n, plane, draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2)))
    return Algebra(n, entries, metric=metric, involution=sigma, commutative=commutative)


def points(n):
    return st.lists(POINT_ENTRIES, min_size=n, max_size=n).filter(any)


def isotropic_points(n):
    return POINT_ENTRIES.filter(bool).map(lambda t: [t, t] + [ZERO] * (n - 2))


COMPOSITION_BASES = ["C", "H", "O", "paraC", "cross3", "color"]
SCALES = [Scalar(Fraction(1, 2)), Scalar(Fraction(2, 3)), Scalar(Fraction(-3, 4)), R3, R3 / 2, Scalar(1, 1)]


@st.composite
def scaled_compositions(draw):
    """A composition algebra with product lambda c and metric lambda^2 h:
    the identity still holds, and D > 1 for every drawn lambda."""
    base = construct(draw(st.sampled_from(COMPOSITION_BASES), label="base"))
    lam = draw(st.sampled_from(SCALES), label="lambda")
    entries = [(i, j, k, lam * c) for i, j, k, c in base.structure_entries()]
    metric = mat_scale(lam * lam, base.metric)
    return Algebra(base.dim, entries, metric=metric, involution=base.involution)


# -- the composition point check and the kernel dimensions ----------------------


def assert_points_agree(alg, xs):
    for x in xs:
        p = _zpoly.lift_point(x)
        assert analysis._composition_point_check(alg, p) == scalar_point_check(alg, x)
        assert analysis._kernel_dim(alg, p) == scalar_kernel_dim(alg, x)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_drawn_tables_at_drawn_points(data):
    alg = data.draw(tables())
    xs = [data.draw(points(alg.dim), label="point") for _ in range(3)]
    assert_points_agree(alg, xs + list(candidate_vectors(alg, 0))[: alg.dim + 2])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_isotropic_points(data):
    alg = data.draw(tables(isotropic=True))
    x = data.draw(isotropic_points(alg.dim), label="point")
    assert not alg.h(x, x)
    assert_points_agree(alg, [x])


def test_a_rational_point_is_lifted_by_its_own_denominator():
    # on diag(1, -1) the identity holds at x = (a, a), where h(x,x) = 0
    # and x(x(x y)) = 0, and fails at (1/2, 1/3), whose numerators are (1, 1)
    alg = Algebra(2, [(0, 0, 1, 1)], metric=[[1, 0], [0, -1]], commutative=True)
    half, third = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3))
    check = analysis._composition_point_check
    assert _zpoly.lift_point([half, third]) == {0: (3, 0), 1: (2, 0)}
    assert check(alg, _zpoly.lift_point([half, half])) is None
    assert check(alg, _zpoly.lift_point([half, third])) == scalar_point_check(alg, [half, third]) == 0


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rescaled_compositions_hold_at_every_point(data):
    alg = data.draw(scaled_compositions())
    assert alg._integer_forms.denominator > 1 or alg.field_tag == "Qr3"
    xs = [data.draw(points(alg.dim), label="point") for _ in range(2)]
    for x in xs:
        assert analysis._composition_point_check(alg, _zpoly.lift_point(x)) is None
    assert_points_agree(alg, xs)
    assert analysis._composition_witness(alg, data.draw(st.integers(0, 3))) is None


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_tables_witness_walk(data):
    alg = data.draw(tables())
    seed = data.draw(st.integers(0, 5), label="seed")
    assert analysis._composition_witness(alg, seed) == scalar_witness(alg, seed)


@pytest.mark.parametrize("name", ["H", "O", "cross3", "cross7", "color", "triple(C)", "clifford(2,3)"])
def test_catalog_witness_walk_and_kernels(name):
    alg = construct(name)
    assert analysis._composition_witness(alg, 1) == scalar_witness(alg, 1)
    for p, x in zip(analysis._seeded_points(alg.dim, 3, 1), seeded_points(alg.dim, 3, 1), strict=True):
        assert analysis._kernel_dim(alg, p) == scalar_kernel_dim(alg, x)


# -- the theta probe -------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_theta_probe_on_commutative_tables(data):
    alg = data.draw(tables(commutative=True))
    seed = data.draw(st.integers(0, 3), label="seed")
    assert analysis._radial_probe(alg, seed) == scalar_theta(alg, seed)


@st.composite
def vanishing_weight_tables(draw):
    """Commutative tables with h(x, x^2) = 0 identically but a nonzero
    product: each block puts a on e_i e_i -> e_j and -a g_j / (2 g_i) on
    e_i e_j -> e_i, so its cubic coefficient on x_i^2 x_j cancels."""
    n = draw(st.integers(2, 4), label="dim")
    weights = draw(st.lists(st.sampled_from(METRIC_ENTRIES), min_size=n, max_size=n), label="metric")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    entries = []
    for (i, j), a in draw(st.lists(st.tuples(pairs, ENTRIES), min_size=1, max_size=4), label="blocks"):
        entries.append((i, i, j, a))
        c = -a * weights[j] / (Scalar(2) * weights[i])
        entries += [(i, j, i, c), (j, i, i, c)]
    metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights)]
    alg = Algebra(n, entries, metric=metric, commutative=True)
    assume(alg.table)
    return alg


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_theta_probe_misses_when_the_weight_vanishes(data):
    alg = data.draw(vanishing_weight_tables())
    seed = data.draw(st.integers(0, 3), label="seed")
    assert scalar_theta(alg, seed) is None
    assert analysis._radial_probe(alg, seed) is None


@given(
    n=st.integers(1, 4),
    weights=st.lists(st.sampled_from(METRIC_ENTRIES), min_size=4, max_size=4),
    seed=st.integers(0, 3),
)
@settings(max_examples=15, deadline=None)
def test_zero_product_falls_back_to_the_symbolic_ratio(n, weights, seed):
    metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights[:n])]
    alg = Algebra(n, [], metric=metric, commutative=True)
    assert analysis._radial_probe(alg, seed) is None
    assert radial_hsiang_check(alg, seed).radial == ZERO


@pytest.mark.parametrize("n", [1, 2, 5, 12, 13])
@pytest.mark.parametrize("seed", [0, 3])
def test_integer_candidates_are_the_lifted_candidates(n, seed):
    alg = Algebra(n, [], metric=[[ONE if i == j else ZERO for j in range(n)] for i in range(n)], commutative=True)
    expected = [_zpoly.lift_point(x) for x in candidate_vectors(alg, seed)]
    assert list(analysis._integer_candidates(n, seed)) == expected
    assert len(expected) == n + min(60, n * (n - 1) // 2) + 16
    assert analysis._seeded_points(n, 5, seed) == [_zpoly.lift_point(x) for x in seeded_points(n, 5, seed)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_small_support_cubic_matches_the_operator(data):
    # D^2 h(x^2, x) read off the trilinear form, against D h(x, D x x)
    alg = data.draw(tables())
    support = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=1, max_size=2, unique=True), label="support")
    x = [ZERO] * alg.dim
    for i in support:
        x[i] = data.draw(POINT_ENTRIES.filter(bool), label="coordinate")
    forms = alg._integer_forms
    p = _zpoly.lift_point(x)
    assert analysis._cubic_at(forms, p) == forms.pairing_at(p, _zpoly.apply(forms.operator(p), p))


@st.composite
def small_cubics(draw):
    """dense_algebra_from_cubic in one or two variables; with vanish set, u has
    no x_i^3 terms and u(1, 1) = 0, so h(x, x^2) is zero at e_0, e_1 and
    e_0 + e_1 and the probe goes on to the seeded points."""
    n = draw(st.integers(1, 2), label="dim")
    vanish = draw(st.booleans(), label="vanish")
    coeff = ENTRIES | st.just(ZERO)
    if n == 1:
        terms = {} if vanish else {(3,): draw(ENTRIES, label="u")}
    elif vanish:
        a = draw(coeff, label="u")
        terms = {(2, 1): a, (1, 2): -a}
    else:
        exps = [(3, 0), (2, 1), (1, 2), (0, 3)]
        terms = {e: draw(coeff, label="u") for e in exps}
    terms = {e: c for e, c in terms.items() if c}
    if n == 2 and draw(st.booleans(), label="hyperbolic"):
        metric = [[ZERO, ONE], [ONE, ZERO]]
    else:
        weights = draw(st.lists(st.sampled_from(METRIC_ENTRIES), min_size=n, max_size=n), label="metric")
        metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights)]
    return dense_algebra_from_cubic(CubicForm(n, terms), metric=metric), vanish


@given(drawn=small_cubics(), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_theta_probe_reaches_the_seeded_points_through_the_shortcut(drawn, seed):
    alg, vanish = drawn
    seen = []
    cubic_at = analysis._cubic_at

    def recording(forms, p):
        seen.append(p)
        return cubic_at(forms, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_cubic_at", recording)
        theta = analysis._radial_probe(alg, seed)
    assert theta == scalar_theta(alg, seed)
    if vanish:
        # the seeded points carry coordinates other than 1 into the shortcut
        assert any(c not in ((1, 0), (-1, 0)) for p in seen for c in p.values())


@pytest.mark.parametrize("name", ["triple(C)", "triple(cross3)", "cartan(1)", "clifford(1,2)", "triple(color)"])
def test_catalog_theta(name):
    alg = construct(name)
    assert analysis._radial_probe(alg, 0) == scalar_theta(alg, 0)


# -- the pseudocomposition confirmation ------------------------------------------


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pseudocomposition_confirmation(data):
    alg = data.draw(tables(commutative=True))
    x = data.draw(points(alg.dim), label="point")
    p2 = alg.multiply(x, x)
    weight = alg.h(x, x) * alg.h(x, p2)
    # the ratio at x makes the identity hold there; one more does not
    theta = alg.h(alg.multiply(p2, x), p2) / weight if weight else data.draw(ENTRIES, label="theta")
    p = _zpoly.lift_point(x)
    for candidate in (theta, theta + ONE, theta * Scalar(2)):
        assert analysis._pseudocomposition_holds_at(alg, candidate, p) == scalar_pseudocomposition_holds(
            alg, candidate, x
        )


@pytest.mark.parametrize("name", ["paraC", "cartan(1)", "cartan(2)", "cartan(4)"])
@pytest.mark.parametrize("factor", [ONE, Scalar(Fraction(2, 3)), R3 / 4])
def test_catalog_pseudocomposition_confirmation(name, factor):
    alg = construct(name).rescaled(factor)
    theta_prime, _ = analysis.pseudocomposition_check(alg)
    for p in analysis._seeded_points(alg.dim, 3, 4):
        assert analysis._pseudocomposition_holds_at(alg, theta_prime, p)
        assert not analysis._pseudocomposition_holds_at(alg, theta_prime + ONE, p)


# -- the fraction-free rank --------------------------------------------------------

COEFFS = st.tuples(st.integers(-4, 4), st.sampled_from([0, 0, 0, 1, -2]))


@st.composite
def integer_matrices(draw):
    """Rows over Z[sqrt 3] in wide and tall shapes, with zero rows and
    duplicate and scaled rows mixed in."""
    rows_n = draw(st.integers(0, 7), label="rows")
    cols = draw(st.integers(1, 7), label="cols")
    entry = st.one_of(st.just((0, 0)), COEFFS)
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols), label="row") for _ in range(rows_n)]
    if rows:
        for _ in range(draw(st.integers(0, 3), label="copies")):
            source = draw(st.sampled_from(rows), label="copied")
            f = draw(COEFFS.filter(lambda c: c != (0, 0)), label="factor")
            rows.insert(draw(st.integers(0, len(rows))), [_zpoly.mul_coeff(f, c) for c in source])
    rows += [[(0, 0)] * cols for _ in range(draw(st.integers(0, 2), label="zero rows"))]
    return rows


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_rank_matches_xl_rank(rows):
    sparse = [{k: c for k, c in enumerate(row)} for row in rows]
    scalars = [[Scalar(a, b) for a, b in row] for row in rows]
    assert _zpoly.rank(sparse) == rank(scalars)


# -- no Scalar arithmetic once the integer table is built ----------------------------


@pytest.fixture
def scalar_products(monkeypatch):
    counts = {"mul": 0}
    mul = Scalar.__mul__

    def counting(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    return counts


@pytest.mark.parametrize("name", ["H", "cross7", "triple(H)", "clifford(4,5)"])
def test_witness_walk_and_kernels_make_no_scalar_products(name, scalar_products):
    alg = construct(name)
    alg._integer_forms  # built once per algebra, outside the count
    scalar_products["mul"] = 0
    analysis._composition_witness(alg, 0)
    for p in analysis._seeded_points(alg.dim, 3, 1):
        analysis._kernel_dim(alg, p)
    assert scalar_products["mul"] == 0


def test_theta_probe_makes_a_fixed_number_of_scalar_products(scalar_products):
    counts = {}
    for name in ["triple(C)", "triple(H)", "triple(cross3)", "clifford(4,5)", "triple(O)"]:
        alg = construct(name)
        alg._integer_forms
        scalar_products["mul"] = 0
        assert analysis._radial_probe(alg, 0) is not None
        counts[alg.dim] = scalar_products["mul"]
    assert len(counts) == 5 and len(set(counts.values())) == 1 and max(counts.values()) <= 2
