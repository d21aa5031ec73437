"""Catalog constructions: division algebras, cross products, Clifford
systems, isoparametric cubics, tripling, and the name grammar."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import cubic as cubic_module
from coneforge import exactlinalg as xl
from coneforge.algebra import (
    Algebra,
    check_metrized,
    find_unit,
    is_exact,
    killing_form,
)
from coneforge.catalog import (
    CARTAN_DIMS,
    CatalogNameError,
    CliffordSystem,
    cartan_cubic,
    catalog_names,
    clifford_system,
    construct,
    cross_product,
    hurwitz,
    para_complex,
    polar_from_clifford,
    polar_zero_block,
    rho,
    triple,
    vector_color,
)
from coneforge.catalog import _complex_structure_family, _left_mult_tables
from coneforge.cubic import algebra_from_cubic, cartan_munzner_check, cubic_from_algebra
from coneforge.document import dump_algebra
from coneforge.polynomials import CubicForm, Polynomial, format_polynomial, parse_polynomial
from coneforge.scalars import ONE, Scalar, ZERO
from oracles import (
    cartan_cubic_by_products,
    dense_algebra_from_cubic,
    dense_clifford_matrices,
    is_symmetric,
    isometric_copy,
    mat_add,
    mat_eq,
    mat_scale,
    reference_trace_form_twisted,
    two_product_clifford_check,
    zeros,
)


def basis(alg, i):
    return alg.basis_vector(i)


def prod(alg, i, j):
    return alg.multiply(basis(alg, i), basis(alg, j))


def as_ints(vec):
    return [int(x.a) if x.b == 0 else x for x in vec]


class TestHurwitz:
    def test_real_line(self):
        r = hurwitz(1)
        assert r.dim == 1 and r.commutative
        assert prod(r, 0, 0) == [ONE]
        assert r.name == "R"

    def test_complex_is_commutative_division(self):
        c = hurwitz(2)
        assert c.commutative
        assert as_ints(prod(c, 1, 1)) == [-1, 0]
        assert as_ints(prod(c, 0, 1)) == [0, 1]

    def test_quaternion_products(self):
        h = hurwitz(4)
        assert not h.commutative
        # i j = k and cyclic, i^2 = -1
        assert as_ints(prod(h, 1, 2)) == [0, 0, 0, 1]
        assert as_ints(prod(h, 2, 3)) == [0, 1, 0, 0]
        assert as_ints(prod(h, 3, 1)) == [0, 0, 1, 0]
        assert as_ints(prod(h, 2, 1)) == [0, 0, 0, -1]
        for i in range(1, 4):
            assert as_ints(prod(h, i, i)) == [-1 if k == 0 else 0 for k in range(4)]

    def test_quaternions_associate(self):
        h = hurwitz(4)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    left = h.multiply(prod(h, i, j), basis(h, k))
                    right = h.multiply(basis(h, i), prod(h, j, k))
                    assert left == right

    def test_octonions_alternative_not_associative(self):
        o = hurwitz(8)
        x = [Scalar(v) for v in (2, -1, 3, 0, 1, -2, 0, 5)]
        y = [Scalar(v) for v in (1, 1, 0, -3, 2, 0, 4, -1)]
        xx = o.multiply(x, x)
        assert o.multiply(x, o.multiply(x, y)) == o.multiply(xx, y)
        witnesses = [
            (i, j, k)
            for i in range(8)
            for j in range(8)
            for k in range(8)
            if o.multiply(prod(o, i, j), basis(o, k))
            != o.multiply(basis(o, i), prod(o, j, k))
        ]
        assert witnesses

    def test_norm_composition(self):
        o = hurwitz(8)
        x = [Scalar(v) for v in (1, 2, 0, -1, 3, 1, -2, 0)]
        y = [Scalar(v) for v in (0, 1, -1, 2, 0, -3, 1, 4)]
        xy = o.multiply(x, y)
        assert o.h(xy, xy) == o.h(x, x) * o.h(y, y)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_unit_and_conjugation(self, d):
        alg = hurwitz(d)
        assert find_unit(alg) == basis(alg, 0)
        sigma_e1 = alg.sigma(basis(alg, min(1, d - 1)))
        if d > 1:
            assert sigma_e1 == [-x for x in basis(alg, 1)]

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_metrized_with_conjugation(self, d):
        assert check_metrized(hurwitz(d)).passed

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_twisted_trace_form_is_d_times_gram(self, d):
        alg = hurwitz(d)
        expected = mat_scale(Scalar(d), xl.identity(d))
        assert mat_eq(reference_trace_form_twisted(alg), expected)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_not_exact(self, d):
        assert not is_exact(hurwitz(d))

    def test_bad_dimension(self):
        with pytest.raises(CatalogNameError):
            hurwitz(3)


class TestPara:
    def test_para_complex_table(self):
        p = para_complex()
        assert as_ints(prod(p, 0, 0)) == [1, 0]
        assert as_ints(prod(p, 0, 1)) == [0, -1]
        assert as_ints(prod(p, 1, 1)) == [-1, 0]

    def test_para_complex_matches_doubling(self):
        assert para_complex().table == hurwitz(2, para=True).table
        assert hurwitz(2, para=True).involution is None

    def test_para_twist_conjugates_both_factors(self):
        h = hurwitz(4)
        ph = hurwitz(4, para=True)
        x = [Scalar(v) for v in (1, -2, 0, 3)]
        y = [Scalar(v) for v in (2, 1, -1, 0)]
        assert ph.multiply(x, y) == h.multiply(h.sigma(x), h.sigma(y))

    @pytest.mark.parametrize("d,expected", [(1, False), (2, True), (4, False), (8, False)])
    def test_exactness(self, d, expected):
        # trace of y -> conj(e0) conj(y) is 2 - d, so only d = 2 is traceless
        assert is_exact(hurwitz(d, para=True)) is expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_low_dimensions_metrized(self, d):
        assert check_metrized(hurwitz(d, para=True)).passed

    @pytest.mark.parametrize("d", [4, 8])
    def test_high_dimensions_not_metrized(self, d):
        # conjugating both factors of a noncommutative product breaks the
        # pairing identity once the identity map is the only involution left
        report = check_metrized(hurwitz(d, para=True))
        assert not report.passed
        assert report.witness is not None

    def test_para_real_is_real(self):
        assert hurwitz(1, para=True).table == hurwitz(1).table


class TestCrossProducts:
    def test_levi_civita(self):
        c = cross_product(3)
        assert as_ints(prod(c, 0, 1)) == [0, 0, 1]
        assert as_ints(prod(c, 1, 2)) == [1, 0, 0]
        assert as_ints(prod(c, 2, 0)) == [0, 1, 0]
        assert as_ints(prod(c, 1, 0)) == [0, 0, -1]

    @pytest.mark.parametrize("dim", [3, 7])
    def test_anticommutative_and_exact(self, dim):
        c = cross_product(dim)
        for i in range(dim):
            for j in range(dim):
                lhs = prod(c, i, j)
                rhs = [-x for x in prod(c, j, i)]
                assert lhs == rhs
        assert is_exact(c)

    @pytest.mark.parametrize("dim", [3, 7])
    def test_metrized_with_minus_identity(self, dim):
        c = cross_product(dim)
        assert c.involution is not None
        assert check_metrized(c).passed

    @pytest.mark.parametrize("dim", [3, 7])
    def test_orthogonality_and_length(self, dim):
        c = cross_product(dim)
        x = [Scalar(v % 5 - 2) for v in range(dim)]
        y = [Scalar((3 * v + 1) % 7 - 3) for v in range(dim)]
        xy = c.multiply(x, y)
        assert c.h(xy, x) == ZERO and c.h(xy, y) == ZERO
        gram = c.h(x, x) * c.h(y, y) - c.h(x, y) ** 2
        assert c.h(xy, xy) == gram

    def test_jacobi_holds_only_in_dimension_three(self):
        def jacobiator(c, i, j, k):
            total = [ZERO] * c.dim
            for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                term = c.multiply(prod(c, a, b), basis(c, cc))
                total = [s + t for s, t in zip(total, term)]
            return total

        c3 = cross_product(3)
        assert all(
            not any(jacobiator(c3, i, j, k))
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        c7 = cross_product(7)
        assert any(
            any(jacobiator(c7, i, j, k))
            for i in range(7)
            for j in range(7)
            for k in range(7)
        )

    def test_no_cross_product_in_dimension_five(self):
        with pytest.raises(CatalogNameError):
            cross_product(5)


class TestVectorColor:
    def test_block_products(self):
        v = vector_color()
        assert as_ints(prod(v, 0, 1)) == [0, 0, 1, 0, 0, 0]
        assert as_ints(prod(v, 3, 4)) == [0, 0, -1, 0, 0, 0]
        assert as_ints(prod(v, 0, 4)) == [0, 0, 0, 0, 0, -1]
        assert as_ints(prod(v, 3, 1)) == [0, 0, 0, 0, 0, -1]

    def test_anticommutative_exact_metrized(self):
        v = vector_color()
        for i in range(6):
            assert not any(prod(v, i, i))
        assert is_exact(v)
        assert check_metrized(v).passed


class TestRho:
    @pytest.mark.parametrize(
        "m,expected",
        [(1, 1), (2, 2), (3, 1), (4, 4), (6, 2), (8, 8), (9, 1), (12, 4),
         (16, 9), (32, 10), (64, 12), (128, 16), (256, 17)],
    )
    def test_values(self, m, expected):
        assert rho(m) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rho(0)


class TestCliffordSystems:
    def test_minimal_system(self):
        sys = clifford_system(1, 2)
        a1, a2 = sys.matrices
        assert [[int(x.a) for x in row] for row in a1] == [[1, 0], [0, -1]]
        assert [[int(x.a) for x in row] for row in a2] == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 5), (8, 9)])
    def test_admissible_pairs(self, p, q):
        sys = clifford_system(p, q)
        assert len(sys.matrices) == q
        assert all(len(a) == 2 * p for a in sys.matrices)

    def test_inadmissible_pair_names_the_bound(self):
        with pytest.raises(CatalogNameError, match=r"rho\(1\)=1"):
            clifford_system(1, 3)

    def test_validation_catches_broken_anticommutation(self):
        good = clifford_system(1, 2)
        with pytest.raises(ValueError, match="anticommutation"):
            CliffordSystem(1, 2, [good.matrices[0], good.matrices[0]])

    def test_validation_accepts_rational_and_sqrt3_systems(self):
        # reflections [[c, s], [s, -c]] anticommute when their angles differ by 90 degrees
        rational = [[[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]], [[F(-4, 5), F(3, 5)], [F(3, 5), F(4, 5)]]]
        half, r3 = Scalar(F(1, 2)), Scalar(0, F(1, 2))
        sqrt3 = [[[half, r3], [r3, -half]], [[-r3, half], [half, r3]]]
        for mats in (rational, sqrt3):
            system = CliffordSystem(1, 2, mats)
            assert all(isinstance(x, Scalar) for m in system.matrices for row in m for x in row)

    def test_validation_names_the_first_failing_pair(self):
        half, r3 = Scalar(F(1, 2)), Scalar(0, F(1, 2))
        with pytest.raises(ValueError, match=r"anticommutation fails for pair \(1, 2\)$"):
            CliffordSystem(1, 2, [[[half, r3], [r3, -half]], [[r3, half], [half, -r3]]])
        a1, a2, a3 = clifford_system(2, 3).matrices
        with pytest.raises(ValueError, match=r"anticommutation fails for pair \(1, 3\)$"):
            CliffordSystem(2, 3, [a1, a2, a1])
        with pytest.raises(ValueError, match=r"anticommutation fails for pair \(2, 2\)$"):
            CliffordSystem(2, 3, [a1, mat_scale(Scalar(2), a2), a3])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_validation_matches_the_dense_products(self, data):
        # int-entry systems, as clifford_system feeds the constructor, and
        # Scalar ones; a drawn entry may break symmetry or anticommutation
        p = data.draw(st.integers(1, 2), label="p")
        base = clifford_system(p, p + 1).matrices
        if data.draw(st.booleans(), label="int entries"):
            base = [[[int(x.a) for x in row] for row in a] for a in base]
            entries = st.sampled_from([0, 1, -1, 2])
        else:
            entries = st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(F(1, 2)), Scalar(0, 1)])
        mats = []
        for a in data.draw(st.lists(st.sampled_from(base), min_size=1, max_size=p + 1), label="picks"):
            m = [list(row) for row in a]
            if data.draw(st.booleans(), label="perturb"):
                r, c = data.draw(st.integers(0, 2 * p - 1)), data.draw(st.integers(0, 2 * p - 1))
                m[r][c] = data.draw(entries)
                if data.draw(st.booleans(), label="mirror"):
                    m[c][r] = m[r][c]
            mats.append(m)
        dense = [[[Scalar(x) if type(x) is int else x for x in row] for row in m] for m in mats]
        expected = None
        if not all(is_symmetric(m) for m in dense):
            expected = "system matrices must be symmetric"
        for i in range(len(mats)):
            for j in range(i, len(mats)):
                anti = mat_add(xl.mat_mul(dense[i], dense[j]), xl.mat_mul(dense[j], dense[i]))
                target = mat_scale(Scalar(2), xl.identity(2 * p)) if i == j else zeros(2 * p, 2 * p)
                if expected is None and anti != target:
                    expected = f"anticommutation fails for pair ({i + 1}, {j + 1})"
        if expected is None:
            system = CliffordSystem(p, len(mats), mats)
            assert system.matrices == dense
            assert all(type(x) is Scalar for m in system.matrices for row in m for x in row)
        else:
            with pytest.raises(ValueError) as err:
                CliffordSystem(p, len(mats), mats)
            assert str(err.value) == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_validation_matches_the_two_product_check(self, data):
        # the constructor reads A_j A_i as the transpose of A_i A_j; the
        # former check took both products
        p = data.draw(st.sampled_from([1, 2, 3, 4, 8]), label="p")
        q = data.draw(st.integers(1, rho(p) + 1), label="q")
        mats = clifford_system(p, q).matrices
        if data.draw(st.booleans(), label="int entries"):
            mats = [[[int(x.a) for x in row] for row in a] for a in mats]
        i = data.draw(st.integers(0, q - 1), label="i")
        change = data.draw(st.sampled_from(["none", "negate", "scale", "swap", "repeat"]), label="change")
        if change == "negate":
            mats[i] = [[-x for x in row] for row in mats[i]]
        elif change == "scale":
            factor = data.draw(st.sampled_from([Scalar(2), Scalar(F(1, 2)), Scalar(0, 1)]), label="factor")
            mats[i] = [[factor * x for x in row] for row in mats[i]]
        elif change == "swap":
            j = data.draw(st.integers(0, q - 1), label="j")
            mats[i], mats[j] = mats[j], mats[i]
        elif change == "repeat":
            mats.insert(data.draw(st.integers(0, q), label="at"), mats[i])
        try:
            expected = two_product_clifford_check(p, len(mats), mats)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                CliffordSystem(p, len(mats), mats)
            assert str(raised.value) == str(err)
        else:
            assert CliffordSystem(p, len(mats), mats).matrices == expected

    def test_validation_catches_asymmetric_matrix(self):
        skew = [[0, -1], [1, 0]]
        with pytest.raises(ValueError, match="symmetric"):
            CliffordSystem(1, 1, [skew])

    def test_validation_enforces_radon_bound(self):
        with pytest.raises(ValueError, match="rho"):
            CliffordSystem(1, 3, [xl.identity(2)] * 3)

    def test_large_family_recursion(self):
        # on the signed-permutation rows (c, s) the family is built in: each
        # J is skew and squares to -1, and distinct members anticommute, up
        # to m = 8, where the m >= 4 branch recurses twice
        def compose(a, b):
            return [(b[c][0], s * b[c][1]) for c, s in a]

        for m in range(9):
            fam = _complex_structure_family(m)
            assert len(fam) == rho(2**m) - 1
            n = 2**m
            for idx, j in enumerate(fam):
                assert sorted(c for c, _ in j) == list(range(n))
                assert all(j[c] == (r, -s) for r, (c, s) in enumerate(j))
                assert compose(j, j) == [(r, -1) for r in range(n)]
                for other in fam[idx + 1 :]:
                    assert [(c, -s) for c, s in compose(j, other)] == compose(other, j)

    def test_matrices_match_the_dense_builder(self):
        # the pairs with p <= 32 reach every branch of the family, odd
        # factors of p, and one step of its recursion (p = 32); (48, 10) puts
        # an odd factor on the 16 x 16 blocks, (64, 13) recurses to m = 2
        pairs = [(p, q) for p in range(1, 33) for q in range(1, rho(p) + 2)]
        for p, q in pairs + [(48, 10), (64, 13)]:
            assert clifford_system(p, q).matrices == dense_clifford_matrices(p, q), (p, q)


class TestPolarAlgebras:
    def test_minimal_polar_table(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        assert alg.dim == 4 and alg.commutative
        assert as_ints(prod(alg, 0, 0)) == [0, 0, 1, 0]
        assert as_ints(prod(alg, 1, 1)) == [0, 0, -1, 0]
        assert as_ints(prod(alg, 0, 1)) == [0, 0, 0, 1]
        assert as_ints(prod(alg, 0, 2)) == [1, 0, 0, 0]
        assert as_ints(prod(alg, 1, 2)) == [0, -1, 0, 0]
        assert as_ints(prod(alg, 0, 3)) == [0, 1, 0, 0]
        assert not any(prod(alg, 2, 3))
        assert not any(prod(alg, 2, 2))

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
    def test_metrized_and_cubic_round_trip(self, p, q):
        alg = polar_from_clifford(clifford_system(p, q))
        assert check_metrized(alg).passed
        rebuilt = algebra_from_cubic(cubic_from_algebra(alg))
        assert rebuilt.table == alg.table

    def test_killing_form_distinguishes_blocks(self):
        alg = polar_from_clifford(clifford_system(1, 2))
        kappa, invariant, nondegenerate = killing_form(alg)
        expected = [[Scalar(v) if i == j else ZERO for j, v in enumerate((4, 4, 2, 2))]
                    for i, _ in enumerate((4, 4, 2, 2))]
        assert mat_eq(kappa, expected)
        assert nondegenerate
        assert not invariant

    def test_zero_block_indices(self):
        assert polar_zero_block(clifford_system(1, 2)) == [2, 3]
        alg = polar_from_clifford(clifford_system(4, 5))
        assert polar_zero_block(alg) == list(range(8, 13))
        with pytest.raises(ValueError):
            polar_zero_block(hurwitz(2))


class TestCartanCubics:
    def test_smallest_case_table(self):
        cubic, alg = cartan_cubic(0)
        assert cubic == parse_polynomial("1*x2^3-3*x1^2*x2", 2)
        assert as_ints(prod(alg, 0, 0)) == [0, -6]
        assert as_ints(prod(alg, 0, 1)) == [-6, 0]
        assert as_ints(prod(alg, 1, 1)) == [0, 6]

    @pytest.mark.parametrize("d", [0, 1, 2, 4, 8])
    def test_eikonal_equation(self, d):
        cubic, alg = cartan_cubic(d)
        assert alg.dim == 3 * d + 2
        report = cartan_munzner_check(cubic, Scalar(9))
        assert report.passed, report.details

    @pytest.mark.parametrize("d", [0, 1, 2, 4, 8])
    def test_algebra_is_metrized_commutative(self, d):
        _, alg = cartan_cubic(d)
        assert alg.commutative
        assert check_metrized(alg).passed
        assert alg.name == f"cartan({d})"

    def test_field_tags(self):
        assert cartan_cubic(0)[1].field_tag == "Q"
        assert cartan_cubic(1)[1].field_tag == "Qr3"

    def test_rejects_other_dimensions(self):
        with pytest.raises(CatalogNameError):
            cartan_cubic(3)

    @pytest.mark.parametrize("d", CARTAN_DIMS)
    def test_construct_makes_no_polynomial_product(self, monkeypatch, d):
        def forbidden(*args):
            raise AssertionError("the Cartan cubic is read off the Cayley-Dickson table")

        monkeypatch.setattr(cubic_module, "poly_product", forbidden)
        monkeypatch.setattr(Polynomial, "__mul__", forbidden)
        monkeypatch.setattr(Polynomial, "__rmul__", forbidden)
        assert construct(f"cartan({d})").dim == 3 * d + 2

    @pytest.mark.parametrize("d", CARTAN_DIMS)
    def test_terms_match_the_polynomial_sums_in_order(self, d):
        # the term read off the Cayley-Dickson table against the former
        # poly_product route: the terms and their order, so algebra_from_cubic
        # fills the same table, and the same document
        cubic, alg = cartan_cubic(d)
        former = cartan_cubic_by_products(d)
        assert isinstance(cubic, CubicForm) and cubic == former
        assert list(cubic.terms.items()) == list(former.terms.items())
        assert dump_algebra(alg) == dump_algebra(dense_algebra_from_cubic(former, name=f"cartan({d})"))


@pytest.mark.parametrize("d", [4, 8])
def test_left_mult_tables_are_the_hurwitz_operators(d):
    # row k of L(e_i) is (j, s) exactly when e_i e_j = s e_k
    table = hurwitz(d).table
    tables = _left_mult_tables(d)
    assert len(tables) == d - 1
    for i, rows in enumerate(tables, start=1):
        assert sorted(j for j, _ in rows) == list(range(d))
        for k, (j, s) in enumerate(rows):
            assert table[i, j] == {k: s}


def format_str(poly):
    return format_polynomial(poly)


class TestTriple:
    def test_smallest_triple(self):
        t = triple(hurwitz(1))
        assert t.dim == 3 and t.commutative and t.name == "triple(R)"
        assert as_ints(prod(t, 0, 1)) == [0, 0, 1]
        assert as_ints(prod(t, 1, 2)) == [1, 0, 0]
        assert as_ints(prod(t, 2, 0)) == [0, 1, 0]
        for i in range(3):
            assert not any(prod(t, i, i))
        assert format_str(cubic_from_algebra(t)) == "1*x1*x2*x3"

    def test_twist_uses_source_involution(self):
        t = triple(hurwitz(2))
        # sigma(e2) * sigma(e2) = (-e2)(-e2) = -e1, landing two blocks on
        assert as_ints(prod(t, 1, 3)) == [0, 0, 0, 0, -1, 0]
        tc = triple(cross_product(3))
        assert as_ints(prod(tc, 0, 4)) == [0, 0, 0, 0, 0, 0, 0, 0, -1]

    def test_product_order_reversed_between_blocks(self):
        t = triple(hurwitz(4))
        h = hurwitz(4)
        # block 0 e_i times block 1 e_j lands in block 2 as sigma(e_j) sigma(e_i)
        expected = h.multiply(h.sigma(basis(h, 2)), h.sigma(basis(h, 1)))
        assert prod(t, 1, 6)[8:] == expected

    @pytest.mark.parametrize(
        "name", ["R", "C", "H", "O", "paraC", "cross3", "cross7", "color"]
    )
    def test_triples_are_metrized_commutative_exact(self, name):
        t = triple(construct(name))
        assert t.commutative
        assert is_exact(t)
        assert check_metrized(t).passed

    def test_requires_metrized_source(self):
        bad = hurwitz(4, para=True)
        with pytest.raises(ValueError, match="metrized"):
            triple(bad)

    def test_source_attribute_and_metric(self):
        src = cross_product(3)
        t = triple(src)
        assert t.source is src
        assert mat_eq(t.metric, xl.identity(9))


def dense_triple(alg):
    """triple() through n^2 dense products sigma(e_j) sigma(e_i): the
    route the sparse table read replaced, kept as its oracle."""
    n = alg.dim
    sigma_basis = [alg.sigma(alg.basis_vector(i)) for i in range(n)]
    entries = []
    for beta in range(3):
        src, dst, other = beta * n, ((beta + 2) % 3) * n, ((beta + 1) % 3) * n
        for i in range(n):
            for j in range(n):
                column = alg.multiply(sigma_basis[j], sigma_basis[i])
                entries += [(src + i, other + j, dst + k, v) for k, v in enumerate(column) if v]
    metric = zeros(3 * n, 3 * n)
    for beta in range(3):
        for i in range(n):
            for j in range(n):
                metric[beta * n + i][beta * n + j] = alg.metric[i][j]
    return Algebra(3 * n, entries, metric=metric, commutative=True)


TRIPLE_SOURCES = (
    "R", "C", "H", "O", "paraC", "paraH(2)", "cross3", "cross7", "color",
    "cartan(1)", "clifford(1,2)", "clifford(2,3)",
)


class TestSparseTriple:
    @pytest.mark.parametrize("name", TRIPLE_SOURCES)
    def test_catalog_sources(self, name):
        alg = construct(name)
        assert triple(alg) == dense_triple(alg)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_isometric_copies(self, data):
        alg = construct(data.draw(st.sampled_from(TRIPLE_SOURCES), label="source"))
        n = alg.dim
        order = data.draw(st.permutations(range(n)), label="order")
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), label="signs")
        pair = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
        copy = isometric_copy(alg, order, signs, pair)
        assert check_metrized(copy).passed
        assert triple(copy) == dense_triple(copy)


class TestConstructGrammar:
    @pytest.mark.parametrize(
        "name,dim",
        [
            ("R", 1), ("C", 2), ("H", 4), ("O", 8), ("paraC", 2),
            ("paraH(2)", 2), ("paraH(8)", 8), ("cross3", 3), ("cross7", 7),
            ("color", 6), ("clifford(1,2)", 4), ("cartan(4)", 14),
            ("triple(O)", 24), ("triple(triple(R))", 9),
        ],
    )
    def test_names_and_dimensions(self, name, dim):
        alg = construct(name)
        assert alg.dim == dim
        assert alg.name == name.replace(" ", "")

    def test_whitespace_tolerated(self):
        assert construct(" triple( H ) ").dim == 12

    def test_para_h_matches_para_complex(self):
        assert construct("paraH(2)").table == para_complex().table

    @pytest.mark.parametrize(
        "bad",
        ["X", "R(2)", "clifford(1)", "clifford(1,2,3)", "cartan(x)",
         "cartan(3)", "paraH(3)", "triple", "cliff ord(1,2)", ""],
    )
    def test_rejects_malformed_names(self, bad):
        with pytest.raises(CatalogNameError):
            construct(bad)

    def test_inadmissible_clifford_pair(self):
        with pytest.raises(CatalogNameError, match="rho"):
            construct("clifford(1,3)")

    def test_catalog_names_listing(self):
        names = catalog_names()
        assert "R" in names and "triple(<name>)" in names
