import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, check_metrized
from coneforge.catalog import cartan_cubic
from coneforge.cubic import (
    algebra_from_cubic,
    cartan_munzner_check,
    cubic_from_algebra,
    poly_pairing,
    poly_product,
)
from coneforge.document import dump_algebra, to_document
from coneforge.polynomials import Polynomial, parse_polynomial
from coneforge.scalars import ONE, Scalar, ZERO
from oracles import (
    dense_algebra_from_cubic,
    generic_vector,
    gradient_hessian,
    hsiang_operator,
    is_symmetric,
    trace_polynomial,
)


def S(a, b=0):
    return Scalar(Fraction(a), Fraction(b))


def componentwise_r2():
    return Algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)], commutative=True, name="R2-componentwise")


# u = x2^3 - 3 x1^2 x2 solves the eikonal condition |Du|^2 = 9 |x|^4
HARMONIC_CUBIC = "1*x2^3-3*x1^2*x2"


class TestCubicFromAlgebra:
    def test_componentwise(self):
        u = cubic_from_algebra(componentwise_r2())
        assert u == parse_polynomial("1/6*x1^3+1/6*x2^3", 2)

    def test_weighted_metric_scales_terms(self):
        alg = Algebra(
            2,
            [(0, 0, 0, 1), (1, 1, 1, 1)],
            metric=[[S(1), S(0)], [S(0), S(2)]],
            commutative=True,
        )
        u = cubic_from_algebra(alg)
        assert u == parse_polynomial("1/6*x1^3+1/3*x2^3", 2)

    def test_rejects_noncommutative(self):
        alg = Algebra(2, [(0, 1, 0, 1)], name="skew")
        with pytest.raises(ValueError, match="commutative"):
            cubic_from_algebra(alg)

    def test_rejects_non_metrized(self):
        alg = Algebra(
            2,
            [(0, 0, 0, 1), (1, 1, 1, 1)],
            metric=[[S(1), S(1)], [S(1), S(2)]],
            commutative=True,
        )
        with pytest.raises(ValueError, match="not metrized"):
            cubic_from_algebra(alg)


class TestAlgebraFromCubic:
    def test_harmonic_cubic_table(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        # e1*e1 = -6 e2, e1*e2 = -6 e1, e2*e2 = 6 e2
        assert alg.multiply(alg.basis_vector(0), alg.basis_vector(0)) == [ZERO, S(-6)]
        assert alg.multiply(alg.basis_vector(0), alg.basis_vector(1)) == [S(-6), ZERO]
        assert alg.multiply(alg.basis_vector(1), alg.basis_vector(1)) == [ZERO, S(6)]
        assert check_metrized(alg).passed

    def test_round_trip_structure(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        assert cubic_from_algebra(alg) == u

    def test_round_trip_with_metric(self):
        u = parse_polynomial("1*x1^3+1*x1*x2^2", 2)
        g = [[S(2), S(0)], [S(0), S(3)]]
        alg = algebra_from_cubic(u, metric=g)
        assert cubic_from_algebra(alg) == u
        assert check_metrized(alg).passed

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="degree 3"):
            algebra_from_cubic(parse_polynomial("1*x1^3+1*x1", 2))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2).map(lambda i: (3 - i, i)),
                st.integers(-5, 5),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=40)
    def test_round_trip_random_cubics(self, raw):
        terms = {}
        for exps, c in raw:
            if c:
                terms[exps] = terms.get(exps, ZERO) + S(c)
        u = Polynomial(2, terms)
        alg = algebra_from_cubic(u)
        assert cubic_from_algebra(alg) == u


# entries of drawn cubics and metrics: rationals, and Q(sqrt 3) values
ENTRIES = st.one_of(
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=2)),
    st.builds(Scalar, st.integers(-2, 2), st.sampled_from([Fraction(1), Fraction(-1, 2)])),
)


@st.composite
def drawn_cubics(draw):
    """A cubic form in 1-4 variables with 1-6 terms."""
    n = draw(st.integers(1, 4), label="nvars")
    monomials = [e for e in itertools.product(range(4), repeat=n) if sum(e) == 3]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True), label="monomials")
    terms = {}
    for exps in chosen:
        c = draw(ENTRIES, label="coefficient")
        if c:
            terms[exps] = c
    return Polynomial(n, terms)


@st.composite
def drawn_metrics(draw, n):
    """None, the identity, or L diag(d) L^T with L unit lower triangular
    and d nonzero of either sign, their entries rational or in Q(sqrt 3)."""
    kind = draw(st.sampled_from(["none", "identity", "ldl"]), label="metric kind")
    if kind == "none":
        return None
    if kind == "identity":
        return xl.identity(n)
    lower = xl.identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = draw(ENTRIES, label="L entry")
    d = [draw(ENTRIES.filter(bool), label="d entry") for _ in range(n)]
    scaled = [[lower[i][j] * d[j] for j in range(n)] for i in range(n)]
    return xl.mat_mul(scaled, xl.transpose(lower))


class TestSparseColumns:
    """algebra_from_cubic groups the nonzero third partials into sparse
    columns t(i, j, .) and applies G^-1 to each, or takes t itself for the
    identity metric; the dense route it replaced is
    ``oracles.dense_algebra_from_cubic``."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_cubics_and_metrics_match_the_dense_route(self, data):
        u = data.draw(drawn_cubics(), label="cubic")
        metric = data.draw(drawn_metrics(u.nvars), label="metric")
        sparse = algebra_from_cubic(u, metric=metric, name="drawn")
        dense = dense_algebra_from_cubic(u, metric=metric, name="drawn")
        # the same columns, in the same order, each in ascending k
        assert [(key, list(c.items())) for key, c in sparse.table.items()] == [
            (key, list(c.items())) for key, c in dense.table.items()
        ]
        assert to_document(sparse) == to_document(dense)
        assert cubic_from_algebra(sparse) == u

    @pytest.mark.parametrize("d", [0, 1, 2, 4, 8])
    def test_cartan_documents_are_byte_identical(self, d):
        cubic, alg = cartan_cubic(d)
        assert dump_algebra(alg) == dump_algebra(dense_algebra_from_cubic(cubic, name=f"cartan({d})"))

    def test_the_readme_example_is_byte_identical(self):
        u = parse_polynomial("1*x1^2*x2")
        sparse = algebra_from_cubic(u, name="from-cubic")
        assert dump_algebra(sparse) == dump_algebra(dense_algebra_from_cubic(u, name="from-cubic"))

    def test_a_singular_metric_is_refused_on_both_routes(self):
        u = parse_polynomial("1*x1^2*x2", 2)
        singular = [[S(1), S(1)], [S(1), S(1)]]
        with pytest.raises(ValueError, match="singular"):
            algebra_from_cubic(u, metric=singular)
        with pytest.raises(ValueError, match="singular"):
            dense_algebra_from_cubic(u, metric=singular)


class TestGradientHessian:
    def test_euler_identity(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        for x in ([S(1), S(2)], [S(-3), S(5)], [S(0), S(1)]):
            grad, _ = gradient_hessian(alg, x)
            assert xl.dot(grad, x) == 3 * u.evaluate(x)

    def test_partials_match_polynomial_derivatives(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        x = [S(2), S(-1)]
        grad, hess = gradient_hessian(alg, x)
        for i in range(2):
            assert grad[i] == u.partial(i).evaluate(x)
            for j in range(2):
                assert hess[i][j] == u.partial(i).partial(j).evaluate(x)

    def test_hessian_symmetric(self):
        alg = componentwise_r2()
        _, hess = gradient_hessian(alg, [S(3), S(4)])
        assert is_symmetric(hess)


class TestHsiangOperator:
    def test_componentwise_values(self):
        alg = componentwise_r2()
        assert hsiang_operator(alg, [S(1), S(0)]) == ZERO
        assert hsiang_operator(alg, [S(1), S(1)]) == S(Fraction(1, 2))

    def test_degree_five_homogeneity(self):
        alg = componentwise_r2()
        for x in ([S(1), S(2)], [S(-1), S(3)]):
            doubled = [S(2) * v for v in x]
            assert hsiang_operator(alg, doubled) == S(32) * hsiang_operator(alg, x)

    def test_harmonic_cubic_is_radial_with_theta_36(self):
        # M(u) + (3/2) 36 h(x,x) u = 0 for the eikonal cubic
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        for x in ([S(1), S(0)], [S(1), S(2)], [S(-2), S(3)], [S(1), S(1)]):
            m = hsiang_operator(alg, x)
            hxx = alg.h(x, x)
            assert m + S(Fraction(3, 2)) * S(36) * hxx * u.evaluate(x) == ZERO


class TestCartanMunzner:
    def test_harmonic_cubic_passes_with_9(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        report = cartan_munzner_check(u, 9)
        assert report.passed
        assert report.details["residual"] == "0"

    def test_wrong_constant_reports_residual(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        report = cartan_munzner_check(u, 1)
        assert not report.passed
        assert report.witness is not None

    def test_non_solution(self):
        u = parse_polynomial("1*x1^3", 2)
        report = cartan_munzner_check(u, 9)
        assert not report.passed


class TestSymbolicHelpers:
    def test_generic_square_componentwise(self):
        alg = componentwise_r2()
        x = generic_vector(alg)
        sq = poly_product(alg, x, x)
        assert sq[0] == parse_polynomial("1*x1^2", 2)
        assert sq[1] == parse_polynomial("1*x2^2", 2)

    def test_pairing_expands_norm(self):
        alg = componentwise_r2()
        x = generic_vector(alg)
        assert poly_pairing(alg, x, x) == parse_polynomial("1*x1^2+1*x2^2", 2)

    def test_trace_polynomial(self):
        alg = componentwise_r2()
        assert trace_polynomial(alg) == parse_polynomial("1*x1+1*x2", 2)

    def test_offset_variables(self):
        alg = componentwise_r2()
        x = generic_vector(alg, offset=2, nvars=4)
        sq = poly_product(alg, x, x)
        assert sq[0] == parse_polynomial("1*x3^2", 4)

    def test_symbolic_matches_pointwise(self):
        u = parse_polynomial(HARMONIC_CUBIC, 2)
        alg = algebra_from_cubic(u)
        x = generic_vector(alg)
        sq = poly_product(alg, x, x)
        cube = poly_product(alg, sq, x)
        pt = [S(2), S(-3)]
        assert [p.evaluate(pt) for p in sq] == alg.multiply(pt, pt)
        assert [p.evaluate(pt) for p in cube] == alg.multiply(alg.multiply(pt, pt), pt)
