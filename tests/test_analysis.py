"""Exact verdicts: composition defect, quintic identities, polar axioms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import analysis, cli
from coneforge import exactlinalg as xl
from coneforge._zpoly import IntegerForms
from coneforge.algebra import (
    Algebra,
    Report,
    Subspace,
    check_metrized,
    killing_form,
    multilinearize,
)
from coneforge.analysis import (
    DefectReport,
    degeneracy_check,
    full_report,
    killing_metrized_check,
    nonradial_hsiang_check,
    normalize_theta,
    pseudocomposition_check,
    quasicomposition_check,
    radial_hsiang_check,
    verify_polar,
)
from coneforge.catalog import (
    cartan_cubic,
    clifford_system,
    construct,
    polar_from_clifford,
    polar_zero_block,
    triple,
)
from coneforge.cubic import algebra_from_cubic, cubic_from_algebra
from coneforge.document import dump_algebra
from coneforge.polynomials import CubicForm, parse_polynomial
from coneforge.scalars import Scalar, scalar_format
from oracles import (
    contains,
    dense_algebra_from_cubic,
    dense_operator,
    isometric_copy,
    mat_scale,
    orthogonal_complement,
    polar_implied_axioms,
    rank,
    reference_trace_form_twisted,
    seeded_points,
    trace_values,
)

FOUR_THIRDS = Scalar(4) / Scalar(3)


def componentwise_plane() -> Algebra:
    return Algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)], commutative=True, name="RxR")


def e_and_w(alg, x):
    """Trace-adjusted quintic and its radial companion, from first principles."""
    x = [Scalar(c) for c in x]
    x2 = alg.multiply(x, x)
    x3 = alg.multiply(x2, x)
    trace = sum((t * c for t, c in zip(trace_values(alg), x)), Scalar(0))
    e = alg.h(x2, x3) - alg.h(x2, x2) * trace
    return e, alg.h(x, x) * alg.h(x, x2)


def proportional_ratio(a, b):
    """r with a = r b, from the first nonzero entry of b, or None."""
    i, j = next((i, j) for i, row in enumerate(b) for j, v in enumerate(row) if v)
    r = a[i][j] / b[i][j]
    return r if a == mat_scale(r, b) else None


def reference_quasicomposition(alg, seed):
    """The composition verdict in its former order: the symbolic
    expansion first, then the witness search when it fails."""
    metrized = check_metrized(alg)
    if not metrized.passed:
        return DefectReport(False, reason=f"not metrized (witness {metrized.witness})")
    if not analysis._composition_holds_symbolic(alg):
        return DefectReport(False, witness=analysis._composition_witness(alg, seed))
    ratio = proportional_ratio(reference_trace_form_twisted(alg), alg.metric)
    samples = []
    for x in seeded_points(alg.dim, 3, seed + 1):
        product = xl.mat_mul(dense_operator(alg, alg.sigma(x)), dense_operator(alg, x))
        samples.append(alg.dim - rank(product))
    return DefectReport(True, defect=alg.dim - int(ratio.a), kernel_dim_samples=samples)


# catalog sources and triples up to dimension 12
REFUTE_FIRST_NAMES = [
    "R", "C", "H", "O", "paraC", "paraH(2)", "paraH(4)", "paraH(8)", "cross3", "cross7",
    "color", "cartan(0)", "cartan(1)", "cartan(2)", "clifford(1,1)", "clifford(1,2)",
    "clifford(2,3)", "triple(R)", "triple(C)", "triple(H)", "triple(paraC)",
    "triple(paraH(2))", "triple(cross3)", "triple(cartan(0))",
]


class TestQuasicomposition:
    @pytest.mark.parametrize(
        "name, defect",
        [
            ("R", 0),
            ("C", 0),
            ("H", 0),
            ("O", 0),
            ("paraC", 0),
            ("paraH(2)", 0),
            ("cross3", 1),
            ("cross7", 1),
            ("color", 2),
        ],
    )
    def test_defect_table(self, name, defect):
        report = quasicomposition_check(construct(name))
        assert report.is_quasicomposition
        assert report.defect == defect
        assert report.kernel_dim_samples == [defect] * 3

    @pytest.mark.parametrize("d", [4, 8])
    def test_para_hurwitz_large_is_not_metrized(self, d):
        report = quasicomposition_check(construct(f"paraH({d})"))
        assert not report.is_quasicomposition
        assert report.defect is None
        assert "not metrized" in report.reason

    def test_failure_carries_a_checkable_witness(self):
        alg = construct("triple(R)")
        report = quasicomposition_check(alg)
        assert not report.is_quasicomposition
        x, y = report.witness
        xy = alg.multiply(x, y)
        lhs = alg.multiply(x, alg.multiply(alg.sigma(x), xy))
        rhs = [alg.h(x, x) * c for c in xy]
        assert lhs != rhs

    def test_refute_first_on_large_cubic(self, monkeypatch):
        # the identity fails at the seeded probe point of this dim 26
        # algebra, so the refutation skips the symbolic expansion and
        # returns the first failing candidate of the witness search
        alg = cartan_cubic(8)[1]

        def forbidden(alg):
            raise AssertionError("a failure at the probe point needs no expansion")

        monkeypatch.setattr(analysis, "_composition_holds_symbolic", forbidden)
        report = quasicomposition_check(alg)
        assert not report.is_quasicomposition
        assert report.witness == analysis._composition_witness(alg, 0)

    def test_witness_walk_builds_one_operator_per_candidate(self, monkeypatch):
        # without an involution L(sigma x) = L(x) is the operator already held
        counts = {"operators": 0}
        build = IntegerForms.operator

        def counting(self, *args, **kwargs):
            counts["operators"] += 1
            return build(self, *args, **kwargs)

        monkeypatch.setattr(IntegerForms, "operator", counting)
        alg = construct("triple(H)")
        assert analysis._composition_witness(alg, 0) is not None
        assert counts["operators"] == 73

    @pytest.mark.parametrize("name", REFUTE_FIRST_NAMES)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_catalog_matches_the_symbolic_first_order(self, name, seed):
        alg = construct(name)
        assert quasicomposition_check(alg, seed=seed) == reference_quasicomposition(alg, seed)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_cubics_match_the_symbolic_first_order(self, data):
        n = data.draw(st.integers(2, 6), label="dim")
        monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3).map(
            lambda idx: tuple(idx.count(i) for i in range(n))
        )
        coefficient = st.builds(Scalar, st.integers(-3, 3), st.integers(-1, 1)).filter(bool)
        terms = data.draw(st.dictionaries(monomial, coefficient, min_size=1, max_size=6), label="u")
        weights = data.draw(st.lists(st.sampled_from([1, 2, -1]), min_size=n, max_size=n))
        metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
        alg = dense_algebra_from_cubic(CubicForm(n, terms), metric=metric)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        assert quasicomposition_check(alg, seed=seed) == reference_quasicomposition(alg, seed)


class TestRadial:
    @pytest.mark.parametrize(
        "source",
        ["R", "C", "H", "O", "paraC", "paraH(2)", "cross3", "cross7", "color"],
    )
    def test_tripled_catalog_sources_give_four_thirds(self, source):
        report = radial_hsiang_check(construct(f"triple({source})"))
        assert report.radial == FOUR_THIRDS
        assert report.exact and not report.degenerate

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_cartan_cubics_give_thirty_six(self, d):
        report = radial_hsiang_check(cartan_cubic(d)[1])
        assert report.radial == Scalar(36)

    def test_componentwise_triple_is_not_radial(self):
        tri = triple(componentwise_plane())
        report = radial_hsiang_check(tri)
        assert report.radial is None
        # leading monomial of the first nonvanishing gradient component
        assert report.witness is not None and len(report.witness) == 4
        assert all(0 <= i < tri.dim for i in report.witness)

    def test_componentwise_ratios_disagree_at_two_points(self):
        # one point confined to the first summand gives E/W = 4/3, the
        # diagonal point gives 2/3, so no single constant can work
        tri = triple(componentwise_plane())
        e1, w1 = e_and_w(tri, [1, 0, 1, 0, 1, 0])
        e2, w2 = e_and_w(tri, [1, 1, 1, 1, 1, 1])
        assert (e1, w1) == (Scalar(24), Scalar(18))
        assert (e2, w2) == (Scalar(48), Scalar(72))
        assert e1 * w2 != e2 * w1

    def test_zero_product_reports_degenerate_zero(self):
        alg = Algebra(2, [(0, 0, 0, 0)], commutative=True)
        report = radial_hsiang_check(alg)
        assert report.radial == Scalar(0)
        assert report.degenerate

    def test_noncommutative_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            radial_hsiang_check(construct("H"))

    @given(st.fractions(min_value=Fraction(1, 4), max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_product_rescaling_scales_theta_quadratically(self, s):
        base = construct("triple(R)")
        report = radial_hsiang_check(base.rescaled(Scalar(s)))
        assert report.radial == FOUR_THIRDS * Scalar(s) * Scalar(s)


class TestNonradial:
    def test_radial_shortcut_returns_theta_times_metric(self):
        alg = construct("triple(C)")
        report = nonradial_hsiang_check(alg)
        assert report.radial == FOUR_THIRDS
        for i in range(alg.dim):
            for j in range(alg.dim):
                expected = FOUR_THIRDS * alg.metric[i][j]
                assert report.nonradial_b[i][j] == expected

    def test_genuinely_nonradial_cubic(self):
        u = parse_polynomial("1*x1^2*x2+1*x1*x2^2+1*x1*x2*x3", 3)
        alg = algebra_from_cubic(u)
        report = nonradial_hsiang_check(alg)
        assert report.radial is None
        b = report.nonradial_b
        assert b is not None
        for i in range(3):
            for j in range(3):
                assert b[i][j] == b[j][i]
        # the claimed identity E = b(x,x) h(x,x^2), re-evaluated directly
        for point in ([1, 2, 3], [2, -1, 5], [-3, 1, 1]):
            x = [Scalar(c) for c in point]
            e, _ = e_and_w(alg, point)
            bxx = sum(
                (b[i][j] * x[i] * x[j] for i in range(3) for j in range(3)),
                Scalar(0),
            )
            assert e == bxx * alg.h(x, alg.multiply(x, x))

    def test_componentwise_triple_fails_with_blocking_monomial(self):
        # mixing terms |x_a|^2 (b-triple) obstruct the division; the
        # graded-lex leading one is x0^2 x1 x3 x5
        tri = triple(componentwise_plane())
        report = nonradial_hsiang_check(tri)
        assert report.radial is None and report.nonradial_b is None
        assert report.witness == (0, 0, 1, 3, 5)


class TestDegeneracy:
    def test_nondegenerate_triple(self):
        details = degeneracy_check(construct("triple(R)")).details
        assert details == {
            "exact": True,
            "product_rank": 3,
            "cube": False,
            "degenerate": False,
            "omega": None,
        }

    @pytest.mark.parametrize(
        "text, omega",
        [
            ("1*x1^3", ["1", "0"]),
            ("8*x1^3", ["2", "0"]),
            ("1*x1^3+3*x1^2*x2+3*x1*x2^2+1*x2^3", ["1", "1"]),
            # a cube root far beyond float precision
            (f"{(10**20 + 1) ** 3}/8*x1^3", ["100000000000000000001/2", "0"]),
            # cube roots with a sqrt 3 part: (1 + sqrt 3)^3 = 10 + 6 sqrt 3
            ("10+6r3*x1^3", ["1+1r3", "0"]),
            ("-10+6r3*x1^3", ["-1+1r3", "0"]),
            ("10/27-2/9r3*x1^3", ["1/3-1/3r3", "0"]),
        ],
    )
    def test_perfect_cubes_recover_the_linear_form(self, text, omega):
        details = degeneracy_check(algebra_from_cubic(parse_polynomial(text, 2))).details
        assert details["cube"] and details["degenerate"]
        assert details["omega"] == omega

    @given(
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(1, 12),
        st.sampled_from([(1, 0), (2, 0), (0, 1), (3, 1), (-8, 0)]),
    )
    def test_cube_root_in_q_sqrt3(self, p, q, den, factor):
        root = Scalar(Fraction(p, den), Fraction(q, den))
        value = root * root * root * Scalar(*factor)
        found = analysis._cube_root(value)
        # 2, sqrt 3 and 3 + sqrt 3 (of norm 6) are not cubes in Q(sqrt 3)
        if factor in ((1, 0), (-8, 0)) or not root:
            assert found is not None and found * found * found == value
        else:
            assert found is None

    def test_cube_with_irrational_scale_has_no_omega(self):
        details = degeneracy_check(algebra_from_cubic(parse_polynomial("2*x1^3", 2))).details
        assert details["cube"]
        assert details["omega"] is None

    def test_harmonic_cubic_agrees_on_all_three_conditions(self):
        details = degeneracy_check(cartan_cubic(0)[1]).details
        assert details["exact"]
        assert details["product_rank"] == 2
        assert not details["cube"] and not details["degenerate"]

    def test_disagreeing_conditions_raise(self):
        # x1^2 x2 is not radial: it has a nonzero trace form yet is
        # neither a cube nor single-line, so the equivalence breaks
        alg = algebra_from_cubic(parse_polynomial("1*x1^2*x2", 2))
        with pytest.raises(RuntimeError, match="disagree"):
            degeneracy_check(alg)

    def test_indefinite_radial_reports_the_conditions_as_computed(self):
        # radial with theta = 0, but with an indefinite metric the three
        # conditions are not equivalent: not exact, product rank 2, no cube
        metric = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        alg = dense_algebra_from_cubic(parse_polynomial("1*x1*x2^2+1*x2^2*x3", 3), metric=metric)
        report = radial_hsiang_check(alg)
        assert report.radial == Scalar(0) and report.witness is None
        assert report.degenerate
        assert report.degeneracy.details == {
            "exact": False,
            "product_rank": 2,
            "cube": False,
            "degenerate": True,
            "omega": None,
        }

    def test_involution_radial_reports_the_conditions_as_computed(self):
        # C with its conjugation is radial with theta = -1 on a definite
        # metric, but sigma != id breaks the symmetry of h(x y, z) that
        # the equivalence needs: not exact, product rank 2, no cube
        report = radial_hsiang_check(construct("C"))
        assert report.radial == Scalar(-1) and report.witness is None
        assert report.degeneracy.details == {
            "exact": False,
            "product_rank": 2,
            "cube": False,
            "degenerate": True,
            "omega": None,
        }

    def test_zero_cubic_is_trivially_degenerate(self):
        details = degeneracy_check(Algebra(2, [(0, 0, 0, 0)], commutative=True)).details
        assert details["degenerate"] and details["cube"]
        assert details["omega"] == ["0", "0"]


def reference_polar(alg, indices):
    """The polar axioms by polarized closures and entrywise projections.

    An independent route to verify_polar's verdict: the Clifford
    relation as the polarization of z -> z(zy) - h(z,z)y, the trace
    identity one entry at a time through projector columns.
    """
    n = alg.dim
    if isinstance(indices, Subspace):
        a0 = indices
        zero_basis = [list(v) for v in a0.basis]
    else:
        zero_basis = [alg.basis_vector(i) for i in indices]
        a0 = Subspace(n, zero_basis)
    if not 0 < a0.dim < n:
        raise ValueError("zero_block must span a proper nonzero subspace")
    if rank([[alg.h(z, zp) for zp in zero_basis] for z in zero_basis]) < a0.dim:
        return Report("polar", False, {"reason": "metric degenerates on the zero block"})
    a1 = orthogonal_complement(a0, alg.metric)
    comp_basis = a1.basis

    def fail(tag, *where):
        details = {"axiom": tag, "dim_zero_block": a0.dim, "dim_complement": a1.dim}
        return Report("polar", False, details, witness=(tag, *where))

    for i, z in enumerate(zero_basis):
        for j, zp in enumerate(zero_basis):
            if any(alg.multiply(z, zp)):
                return fail("zero-block-square", i, j)
    if a0.dim == 1:
        trace = sum((t * c for t, c in zip(trace_values(alg), zero_basis[0])), Scalar(0))
        if trace:
            return fail("zero-block-trace", 0)
    for i, y in enumerate(comp_basis):
        for j, yp in enumerate(comp_basis):
            if not contains(a0, alg.multiply(y, yp)):
                return fail("complement-product", i, j)
    for i, y in enumerate(comp_basis):
        for j, z in enumerate(zero_basis):
            if not contains(a1, alg.multiply(y, z)):
                return fail("mixed-product", i, j)
    for k, y in enumerate(comp_basis):

        def square_action(z, y=y):
            zzy = alg.multiply(z, alg.multiply(z, y))
            return [a - alg.h(z, z) * b for a, b in zip(zzy, y)]

        for i, z in enumerate(zero_basis):
            for j, zp in enumerate(zero_basis):
                if any(multilinearize(square_action, [z, zp])):
                    return fail("clifford-relation", i, j, k)

    basis_matrix = xl.transpose(zero_basis + comp_basis)
    inverse = xl.inverse(basis_matrix)

    def project(col, first, last):
        return [
            sum((basis_matrix[r][t] * inverse[t][col] for t in range(first, last)), Scalar(0))
            for r in range(n)
        ]

    kappa = killing_form(alg)[0]
    for i in range(n):
        for j in range(n):
            expected = Scalar(2 * a0.dim) * alg.h(project(i, a0.dim, n), project(j, a0.dim, n))
            expected = expected + Scalar(a1.dim) * alg.h(project(i, 0, a0.dim), project(j, 0, a0.dim))
            if kappa[i][j] != expected:
                return fail("trace-identity", i, j)
    return Report("polar", True, {"dim_zero_block": a0.dim, "dim_complement": a1.dim})


def polar_outcome(check, alg, block):
    try:
        report = check(alg, block)
    except ValueError as err:
        return "ValueError", str(err)
    details = dict(report.details)
    if report.passed:
        details = {key: details[key] for key in ("dim_zero_block", "dim_complement")}
    return report.passed, details, report.witness


def rotated_scaled_copy(alg, lam, a, b):
    """(copy, R): alg with product lam c and metric lam^2 h, which keep
    every polar axiom, in the basis e'_i = R e_i for the rotation R by
    (3/5, 4/5) in the plane of coordinates a and b."""
    n = alg.dim
    rotation = xl.identity(n)
    rotation[a][a], rotation[a][b] = Scalar(Fraction(3, 5)), Scalar(Fraction(-4, 5))
    rotation[b][a], rotation[b][b] = Scalar(Fraction(4, 5)), Scalar(Fraction(3, 5))
    back = xl.transpose(rotation)
    columns = back  # columns[i] = R e_i
    entries = [
        (i, j, k, lam * v)
        for i in range(n)
        for j in range(n)
        for k, v in enumerate(xl.mat_vec(back, alg.multiply(columns[i], columns[j])))
        if v
    ]
    metric = mat_scale(lam * lam, xl.mat_mul(back, xl.mat_mul(alg.metric, rotation)))
    return Algebra(n, entries, metric=metric, commutative=True), rotation


POLARS = {
    (p, q, factor): polar_from_clifford(clifford_system(p, q)).rescaled(Scalar(factor))
    for p, q in [(1, 2), (2, 3)]
    for factor in (1, 2)
}


class TestVerifyPolar:
    @pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (4, 5)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_catalog_polars_match_the_reference(self, p, q, factor):
        alg = polar_from_clifford(clifford_system(p, q)).rescaled(Scalar(factor))
        block = polar_zero_block(alg)
        assert polar_outcome(verify_polar, alg, block) == polar_outcome(
            reference_polar, alg, block
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_blocks_match_the_reference(self, data):
        alg = POLARS[data.draw(st.sampled_from(sorted(POLARS)))]
        kind = data.draw(st.sampled_from(["indices", "vectors", "inside"]))
        if kind == "indices":
            block = data.draw(
                st.lists(st.integers(0, alg.dim - 1), min_size=1, max_size=alg.dim - 1, unique=True)
            )
        else:
            # "inside" spans combinations of the true square-zero block
            support = polar_zero_block(alg) if kind == "inside" else range(alg.dim)
            coefficients = st.lists(st.integers(-1, 1), min_size=len(support), max_size=len(support))
            vectors = []
            for row in data.draw(st.lists(coefficients, min_size=1, max_size=alg.dim - 1)):
                vector = [0] * alg.dim
                for index, c in zip(support, row):
                    vector[index] = c
                vectors.append(vector)
            block = Subspace(alg.dim, vectors)
        assert polar_outcome(verify_polar, alg, block) == polar_outcome(
            reference_polar, alg, block
        )

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_trace_identity_on_the_integer_basis(self, data):
        # a rotated, rescaled polar algebra, whose zero block has no
        # coordinate basis, so its lifted columns are not units; it passes
        # as the reference does, and the trace identity and the mixed
        # products, which the check leaves to the other axioms, hold
        p, q = data.draw(st.sampled_from([(1, 2), (2, 3)]), label="system")
        lam = data.draw(st.sampled_from([Scalar(1), Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 2))]))
        base = polar_from_clifford(clifford_system(p, q))
        zero = polar_zero_block(base)
        a = data.draw(st.sampled_from(zero), label="rotated zero coordinate")
        b = data.draw(st.sampled_from([i for i in range(base.dim) if i not in zero]), label="partner")
        alg, rotation = rotated_scaled_copy(base, lam, a, b)
        block = Subspace(alg.dim, [xl.mat_vec(xl.transpose(rotation), base.basis_vector(i)) for i in zero])
        assert any(c.a.denominator > 1 for v in block.basis for c in v)
        outcome = polar_outcome(verify_polar, alg, block)
        assert outcome == polar_outcome(reference_polar, alg, block)
        assert outcome[0]
        assert polar_implied_axioms(alg, block) == (True, True)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_indefinite_metrics_match_the_reference(self, data):
        # the cubic of a catalog polar algebra read through a drawn metric:
        # 1 on the zero block and +-1 on its complement keep every polar
        # axiom, while +-1, +-2 diagonals with off-diagonal entries mostly
        # break them, and can make the metric degenerate on a block
        p, q = data.draw(st.sampled_from([(1, 2), (2, 3)]), label="system")
        base = polar_from_clifford(clifford_system(p, q))
        n, zero = base.dim, polar_zero_block(base)
        if data.draw(st.booleans(), label="polar signature"):
            sign = data.draw(st.sampled_from([1, -1]), label="complement sign")
            metric = [[(1 if i in zero else sign) if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            weights = st.sampled_from([1, -1, 2, -2])
            diagonal = data.draw(st.lists(weights, min_size=n, max_size=n), label="diagonal")
            metric = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
            pairs = st.integers(0, n - 2).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
            for i, j in data.draw(st.lists(pairs, min_size=1, max_size=3), label="off-diagonal"):
                metric[i][j] = metric[j][i] = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
            assume(rank([[Scalar(g) for g in row] for row in metric]) == n)
        alg = dense_algebra_from_cubic(cubic_from_algebra(base), metric=metric)
        kinds = ["zero", "index", "inside", "inside", "vectors", "vectors"]
        kind = data.draw(st.sampled_from(kinds), label="block kind")
        if kind == "zero":
            block = zero
        elif kind == "index":
            block = [data.draw(st.integers(0, n - 1), label="index")]
        else:
            # "inside" spans combinations of the square-zero block
            support = zero if kind == "inside" else range(n)
            coefficients = st.lists(st.integers(-1, 1), min_size=len(support), max_size=len(support))
            vectors = []
            for row in data.draw(st.lists(coefficients, min_size=1, max_size=n - 1), label="vectors"):
                vector = [0] * n
                for index, c in zip(support, row):
                    vector[index] = c
                vectors.append(vector)
            block = Subspace(n, vectors)
            assume(0 < block.dim < n)
        outcome = polar_outcome(verify_polar, alg, block)
        assert outcome == polar_outcome(reference_polar, alg, block)
        if outcome[0]:
            assert polar_implied_axioms(alg, block) == (True, True)

    def test_degenerate_block_is_reported_not_checked(self):
        # A1 = span(e0 - e1) lies inside A0 = span(e0, e1): h(e0 - e1, .)
        # vanishes on A0, so the Gram matrix of h on A0 is singular
        alg = Algebra(3, [], metric=[[1, 1, 0], [1, 1, 1], [0, 1, 0]], commutative=True)
        report = verify_polar(alg, [0, 1])
        assert not report.passed and report.witness is None
        assert report.details == {"reason": "metric degenerates on the zero block"}
        assert polar_outcome(reference_polar, alg, [0, 1]) == (False, report.details, None)

    def test_rescaled_polar_breaks_the_clifford_relation(self, monkeypatch):
        # doubling the product keeps every inclusion but quadruples z(zy)
        alg = polar_from_clifford(clifford_system(2, 3)).rescaled(Scalar(2))

        def forbidden(*args, **kwargs):
            raise AssertionError("the polar axioms are checked through operators")

        monkeypatch.setattr(Algebra, "multiply", forbidden)
        report = verify_polar(alg, polar_zero_block(alg))
        assert not report.passed
        assert report.witness == ("clifford-relation", 0, 0, 0)
        assert report.details == {
            "axiom": "clifford-relation",
            "dim_zero_block": 3,
            "dim_complement": 4,
        }

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 3)])
    def test_catalog_polars_pass(self, p, q):
        alg = polar_from_clifford(clifford_system(p, q))
        report = verify_polar(alg, polar_zero_block(alg))
        assert report.passed
        assert report.details["dim_zero_block"] == q
        assert report.details["dim_complement"] == 2 * p
        assert report.details["pairs"] == (p, q)
        assert report.details["mutant"] == (p == q)

    def test_subspace_argument_matches_indices(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        indices = polar_zero_block(alg)
        block = Subspace(alg.dim, [alg.basis_vector(i) for i in indices])
        assert verify_polar(alg, block).passed

    def test_line_block_checks_the_trace_condition(self):
        alg = polar_from_clifford(clifford_system(1, 1))
        report = verify_polar(alg, polar_zero_block(alg))
        assert report.passed
        assert report.details["dim_zero_block"] == 1
        assert report.details["mutant"]

    def test_full_block_rejected_as_improper(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        with pytest.raises(ValueError, match="proper"):
            verify_polar(alg, list(range(alg.dim)))

    @pytest.mark.parametrize("third", [0, 1, 2])
    def test_each_component_of_a_hurwitz_triple_is_a_mutant_block(self, third):
        # the three square-zero summands give three distinct splittings
        alg = construct("triple(H)")
        report = verify_polar(alg, list(range(4 * third, 4 * third + 4)))
        assert report.passed
        assert report.details["mutant"]

    def test_wrong_block_fails_on_squares(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        report = verify_polar(alg, [0, 1])
        assert not report.passed
        assert report.witness[0] == "zero-block-square"

    def test_partial_block_fails_on_complement_products(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        report = verify_polar(alg, [2])
        assert not report.passed
        assert report.witness[0] == "complement-product"

    def test_index_validation(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        with pytest.raises(ValueError, match="out of range"):
            verify_polar(alg, [2, 9])
        with pytest.raises(ValueError, match="distinct"):
            verify_polar(alg, [2, 2])
        # a float or a bool is not an index, whatever its value
        for block in ([2.5, 3], [2.0, 3], [True, 3], [2, None]):
            with pytest.raises(ValueError, match="must be ints"):
                verify_polar(alg, block)

    def test_empty_block_is_named_empty(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        for block in ([], ()):
            with pytest.raises(ValueError, match="zero_block is empty"):
                verify_polar(alg, block)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_only_int_indices_are_read(self, data):
        # a float such as 2.0 or 2.5, a bool, a str or None among valid
        # indices is refused before any index is read, so no float reaches
        # the exact layer
        alg = polar_from_clifford(clifford_system(1, 2))
        indices = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True), label="ints")
        assert isinstance(verify_polar(alg, indices), Report)
        bad = st.one_of(st.floats(allow_nan=True), st.booleans(), st.text(max_size=2), st.none())
        for value in data.draw(st.lists(bad, min_size=1, max_size=2), label="not ints"):
            indices.insert(data.draw(st.integers(0, len(indices)), label="position"), value)
        with pytest.raises(ValueError, match="must be ints"):
            verify_polar(alg, indices)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_drawn_involutions_are_outside_the_domain(self, data):
        # isometric copies of C and of an exact algebra with the involution
        # diag(1, -1), rescaled, with a drawn index or vector block
        flip = Algebra(
            2,
            [(0, 0, 0, -2), (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 1)],
            metric=[[2, 0], [0, -1]],
            involution=[[1, 0], [0, -1]],
            commutative=True,
        )
        base = data.draw(st.sampled_from([construct("C"), flip]), label="base")
        order = data.draw(st.permutations(range(2)), label="order")
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2), label="signs")
        pair = data.draw(st.sampled_from([(0, 0), (0, 1)]), label="pair")
        factor = data.draw(st.sampled_from([Scalar(1), Scalar(-2), Scalar(Fraction(1, 3), 1)]), label="factor")
        alg = isometric_copy(base, order, signs, pair).rescaled(factor)
        assert alg.commutative and alg.involution is not None and check_metrized(alg).passed
        if data.draw(st.booleans(), label="index block"):
            block = [data.draw(st.integers(0, 1), label="index")]
        else:
            block = Subspace(2, [data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2).filter(any))])
        with pytest.raises(ValueError, match="involution"):
            verify_polar(alg, block)

    def test_involution_is_outside_the_domain(self, tmp_path, capsys):
        # C is commutative and metrized, but h(xy, z) = h(y, sigma(x) z)
        # is not symmetric, so the axioms do not imply each other
        alg = construct("C")
        assert check_metrized(alg).passed
        with pytest.raises(ValueError, match="involution"):
            verify_polar(alg, [1])
        path = str(tmp_path / "c.json")
        dump_algebra(alg, path)
        assert cli.main(["verify", "polar", path, "--zero-block", "1"]) == 2
        assert "involution" in capsys.readouterr().err


class TestKilling:
    def test_polar_killing_is_not_invariant(self):
        report = killing_metrized_check(polar_from_clifford(clifford_system(1, 2)))
        assert not report.passed
        assert report.details == {
            "invariant": False,
            "nondegenerate": True,
            "ratio": None,
        }
        assert report.witness is not None

    @pytest.mark.parametrize(
        "source, source_dim, defect",
        [("cross3", 3, 1), ("cross7", 7, 1), ("color", 6, 2), ("O", 8, 0)],
    )
    def test_tripled_sources_match_the_trace_constant(self, source, source_dim, defect):
        report = killing_metrized_check(construct(f"triple({source})"))
        assert report.passed
        assert report.details["ratio"] == scalar_format(Scalar(2 * (source_dim - defect)))

    @pytest.mark.parametrize(
        "name, label", [("triple(cross3)", "exceptional"), ("triple(R)", "mutant")]
    )
    def test_peirce_data_annotates_the_verdict(self, name, label):
        # the report reads the label off the Peirce multiplicity n2
        report = full_report(construct(name))
        assert report["killing"]["pass"]
        assert report["killing"]["classification"] == label
        assert "classification" not in killing_metrized_check(construct(name)).details


class TestPseudocomposition:
    def test_para_complex(self):
        theta, eikonal = pseudocomposition_check(construct("paraC"))
        assert theta == Scalar(1) and eikonal

    def test_harmonic_cubic(self):
        theta, eikonal = pseudocomposition_check(cartan_cubic(0)[1])
        assert theta == Scalar(36) and eikonal

    def test_triple_has_no_common_quotient(self):
        assert pseudocomposition_check(construct("triple(R)")) is None

    @staticmethod
    def remetrized_para_complex(diagonal: Scalar) -> Algebra:
        base = construct("paraC")
        entries = [
            (i, j, k, c)
            for (i, j), col in base.table.items()
            if i <= j
            for k, c in col.items()
        ]
        metric = [[diagonal, Scalar(0)], [Scalar(0), diagonal]]
        return Algebra(2, entries, metric=metric, commutative=True)

    def test_indefinite_metric_is_not_eikonal(self):
        theta, eikonal = pseudocomposition_check(self.remetrized_para_complex(Scalar(-1)))
        assert theta == Scalar(-1)
        assert not eikonal

    @given(st.fractions(min_value=Fraction(1, 3), max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_metric_rescaling_inverts_theta_prime(self, lam):
        theta, _ = pseudocomposition_check(self.remetrized_para_complex(Scalar(lam)))
        assert theta == Scalar(1) / Scalar(lam)


class TestNormalize:
    def test_harmonic_cubic_lands_on_four_thirds(self):
        rescaled = normalize_theta(cartan_cubic(0)[1])
        assert rescaled.name == "normalized(cartan(0))"
        assert radial_hsiang_check(rescaled).radial == FOUR_THIRDS

    def test_already_normalized_is_fixed(self):
        alg = construct("triple(R)")
        assert radial_hsiang_check(normalize_theta(alg)).radial == FOUR_THIRDS

    @given(st.fractions(min_value=Fraction(1, 3), max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_any_quadratic_rescale_normalizes_back(self, s):
        alg = construct("triple(R)").rescaled(Scalar(s))
        report = radial_hsiang_check(normalize_theta(alg))
        assert report.radial == FOUR_THIRDS

    def test_unrepresentable_square_root_is_explained(self):
        with pytest.raises(ValueError, match="not representable"):
            normalize_theta(construct("triple(R)"), theta=Scalar(2))

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError, match="positive theta"):
            normalize_theta(construct("triple(R)"), theta=Scalar(Fraction(-4, 3)))

    def test_nonradial_input_rejected(self):
        with pytest.raises(ValueError, match="radial"):
            normalize_theta(triple(componentwise_plane()))


class TestFullReport:
    def test_tripled_cross3_summary(self):
        report = full_report(construct("triple(cross3)"))
        assert report["dim"] == 9 and report["exact"]
        assert report["metrized"]["pass"] and report["killing"]["pass"]
        assert not report["quasicomposition"]["pass"]
        assert report["hsiang"]["radial"] == "4/3"
        assert report["pseudocomposition"] is None
        spectral = report["spectral"]
        assert (spectral["n1"], spectral["n2"], spectral["d"]) == (0, 5, 1)
        assert spectral["source_defect"] == 1
        assert spectral["defect_matches_d"]
        assert report["killing"]["classification"] == "exceptional"

    def test_octonions_skip_commutative_sections(self):
        report = full_report(construct("O"))
        assert report["quasicomposition"]["pass"]
        assert report["quasicomposition"]["defect"] == 0
        assert "hsiang" not in report
        assert "spectral" not in report

    def test_metric_and_tensor_are_built_once(self, monkeypatch):
        counts = {"ldl": 0, "tensor": 0}
        ldl, einsum = xl.ldl, np.einsum

        def counting_ldl(g):
            counts["ldl"] += 1
            return ldl(g)

        def counting_einsum(subscripts, *operands, **kwargs):
            # the subscripts of the frame change in structure_tensor
            counts["tensor"] += subscripts == "ia,jb,ijk,mk->abm"
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(xl, "ldl", counting_ldl)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        # the exact route decides the catalog member and builds no tensor
        report = full_report(construct("triple(cross3)"))
        assert report["spectral"]["n2"] == 5 and report["spectral"]["method"] == "exact-idempotent"
        assert counts == {"ldl": 1, "tensor": 0}
        # the rotated copy falls back to the float search, which builds one
        rotated, _ = rotated_scaled_copy(construct("triple(C)"), Scalar(1), 0, 1)
        counts.update(ldl=0)
        report = full_report(rotated)
        assert report["spectral"]["n2"] == 2 and report["spectral"]["method"] == "float"
        assert counts == {"ldl": 1, "tensor": 1}

    def test_spectral_can_be_disabled(self):
        report = full_report(construct("triple(R)"), spectral=False)
        assert "spectral" not in report

    def test_negative_seed_is_rejected_before_any_check(self, monkeypatch):
        # numpy's generator rejects it with a ValueError, which the spectral
        # block would read as "no idempotent found"
        monkeypatch.setattr(analysis, "find_unit", lambda alg: pytest.fail("a check ran"))
        with pytest.raises(ValueError, match="seed"):
            full_report(construct("triple(C)"), seed=-1)
