import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import _zpoly
from coneforge import exactlinalg as xl
from coneforge.catalog import construct
from coneforge.document import dump_algebra, load_algebra
from coneforge.algebra import (
    Algebra,
    Report,
    Subspace,
    check_metrized,
    find_unit,
    is_exact,
    killing_form,
    multilinearize,
)
from coneforge.scalars import ONE, Scalar, ZERO


def S(a, b=0):
    return Scalar(Fraction(a), Fraction(b))


def componentwise_r2(metric=None):
    return Algebra(
        2,
        [(0, 0, 0, 1), (1, 1, 1, 1)],
        metric=metric,
        commutative=True,
        name="R2-componentwise",
    )


# Basis 1, i, j, k with the usual products; conjugation negates the
# imaginary part.
QUATERNION_TABLE = [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (1, 1, 0, -1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, -1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, -1),
]


def quaternions():
    conj = [[S(1 if i == j == 0 else (-1 if i == j else 0)) for j in range(4)] for i in range(4)]
    return Algebra(4, QUATERNION_TABLE, involution=conj, name="H-inline")


def anti_diagonal_two_dim():
    # e1*e1 = e1, e1*e2 = -e2, e2*e2 = -e1: commutative, trace free, no unit
    return Algebra(
        2,
        [(0, 0, 0, 1), (0, 1, 1, -1), (1, 0, 1, -1), (1, 1, 0, -1)],
        commutative=True,
        name="two-dim-exact",
    )


class TestConstruction:
    def test_degenerate_metric_rejected(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            componentwise_r2(metric=[[S(1), S(1)], [S(1), S(1)]])

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            componentwise_r2(metric=[[S(1), S(1)], [S(0), S(1)]])

    def test_involution_must_square_to_identity(self):
        with pytest.raises(ValueError, match="square"):
            Algebra(2, [(0, 0, 0, 1)], involution=[[S(0), S(1)], [S(0), S(0)]])

    def test_commutative_mirror_fills_missing_entries(self):
        alg = Algebra(2, [(0, 1, 0, 1)], commutative=True)
        assert alg.multiply([ZERO, ONE], [ONE, ZERO]) == [ONE, ZERO]

    def test_commutative_contradiction_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            Algebra(2, [(0, 1, 0, 1), (1, 0, 0, 2)], commutative=True)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Algebra(2, [(0, 0, 5, 1)])

    def test_zero_coefficients_dropped(self):
        alg = Algebra(2, [(0, 0, 0, 0), (0, 0, 1, 1)])
        assert (0, 0) in alg.table and alg.table[(0, 0)] == {1: ONE}

    def test_field_tag(self):
        assert componentwise_r2().field_tag == "Q"
        alg = Algebra(1, [(0, 0, 0, Scalar(0, 1))])
        assert alg.field_tag == "Qr3"


ENTRIES = st.builds(
    Scalar,
    st.fractions(-3, 3, max_denominator=4),
    st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]),
)


@st.composite
def symmetric_metrics(draw):
    """Symmetric n x n metrics over Q(sqrt 3); with combined set, the last
    row is c^T of the rows above it, so the rank is at most n - 1."""
    n = draw(st.integers(1, 5), label="dim")
    combined = n > 1 and draw(st.booleans(), label="combined")
    m = n - 1 if combined else n
    metric = [[ZERO] * n for _ in range(n)]
    for i in range(m):
        for j in range(i, m):
            metric[i][j] = metric[j][i] = draw(ENTRIES, label="entry")
    if combined:
        c = draw(st.lists(ENTRIES, min_size=m, max_size=m), label="c")
        # G = [[G0, G0 c], [c^T G0, c^T G0 c]]
        row = [sum((c[i] * metric[i][j] for i in range(m)), ZERO) for j in range(m)]
        corner = sum((r * ci for r, ci in zip(row, c)), ZERO)
        for j in range(m):
            metric[m][j] = metric[j][m] = row[j]
        metric[m][m] = corner
    return metric


class TestNondegeneracy:
    @given(metric=symmetric_metrics())
    @settings(max_examples=150, deadline=None)
    def test_rejected_exactly_when_the_scalar_rank_is_short(self, metric):
        n = len(metric)
        try:
            Algebra(n, [], metric=metric)
        except ValueError as err:
            assert str(err) == "metric must be nondegenerate"
            assert xl.rank(metric) < n
        else:
            assert xl.rank(metric) == n

    def test_repeated_slots_add_and_cancel(self):
        assert Algebra(2, [(0, 0, 1, 1), (0, 0, 1, S(1, 2))]).table == {(0, 0): {1: S(2, 2)}}
        assert Algebra(2, [(0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, -1)]).table == {(0, 1): {0: ONE}}


@pytest.fixture
def counts(monkeypatch):
    """Calls of xl.rref and Scalar.__add__ while the fixture is live."""
    calls = {"rref": 0, "add": 0}
    rref, add = xl.rref, Scalar.__add__

    def counting_rref(*args, **kwargs):
        calls["rref"] += 1
        return rref(*args, **kwargs)

    def counting_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(xl, "rref", counting_rref)
    monkeypatch.setattr(Scalar, "__add__", counting_add)
    return calls


@pytest.mark.parametrize("name", ["triple(C)", "triple(cross3)", "cartan(2)", "clifford(2,3)", "paraH(4)"])
def test_loading_a_document_makes_no_scalar_elimination_or_sums(name, counts, tmp_path):
    path = os.path.join(tmp_path, "alg.json")
    dump_algebra(construct(name), path)
    counts.update(rref=0, add=0)
    alg = load_algebra(path)
    assert alg.involution is None and alg.dim > 1
    assert counts == {"rref": 0, "add": 0}


class TestProduct:
    def test_multiply_componentwise(self):
        alg = componentwise_r2()
        assert alg.multiply([S(2), S(3)], [S(5), S(7)]) == [S(10), S(21)]

    def test_sigma_default_identity(self):
        alg = componentwise_r2()
        assert alg.sigma([S(5), S(7)]) == [S(5), S(7)]

    def test_sigma_quaternion_conjugation(self):
        alg = quaternions()
        assert alg.sigma([S(1), S(2), S(3), S(4)]) == [S(1), S(-2), S(-3), S(-4)]


class TestCheckMetrized:
    def test_componentwise_identity_metric(self):
        assert check_metrized(componentwise_r2()).passed

    def test_componentwise_any_diagonal_metric(self):
        # diagonal weights keep h(x*y, z) fully symmetric for a
        # componentwise product
        alg = componentwise_r2(metric=[[S(1), S(0)], [S(0), S(2)]])
        assert check_metrized(alg).passed

    def test_componentwise_offdiagonal_metric_fails(self):
        alg = componentwise_r2(metric=[[S(1), S(1)], [S(1), S(2)]])
        report = check_metrized(alg)
        assert not report.passed
        assert report.witness == (0, 0, 1)
        # h(e1*e1, e2) = 1 while h(e1, e2*e1) = 0
        assert report.details["lhs"] == ONE
        assert report.details["rhs"] == ZERO

    def test_quaternions_with_conjugation(self):
        assert check_metrized(quaternions()).passed

    def test_quaternions_with_identity_involution_fail(self):
        alg = Algebra(4, QUATERNION_TABLE, name="H-untwisted")
        report = check_metrized(alg)
        assert not report.passed

    def test_report_caching(self):
        alg = componentwise_r2()
        assert check_metrized(alg) is check_metrized(alg)


class TestKillingAndTraceForms:
    def test_quaternion_killing_matrix(self):
        kappa, invariant, nondegenerate = killing_form(quaternions())
        expect = [[S(4 if i == 0 else -4) if i == j else ZERO for j in range(4)] for i in range(4)]
        assert kappa == expect
        # kappa(i*i, 1) = -4 but kappa(i, 1*sigma(i)) = +4
        assert not invariant
        assert nondegenerate

    def test_componentwise_killing(self):
        kappa, invariant, nondegenerate = killing_form(componentwise_r2())
        assert kappa == xl.identity(2)
        assert invariant and nondegenerate


class TestMultilinearize:
    def test_quadratic_polarization_recovers_product(self):
        alg = quaternions()
        square = lambda x: alg.multiply(x, x)
        a, b = alg.basis_vector(0), alg.basis_vector(1)
        # (1/2)(F(a+b) - F(a) - F(b)) = (ab + ba)/2
        assert multilinearize(square, [a, b]) == alg.basis_vector(1)
        i, j = alg.basis_vector(1), alg.basis_vector(2)
        assert multilinearize(square, [i, j]) == [ZERO] * 4

    def test_diagonal_recovers_original(self):
        alg = componentwise_r2()
        square = lambda x: alg.multiply(x, x)
        x = [S(3), S(-5)]
        assert multilinearize(square, [x, x]) == alg.multiply(x, x)

    def test_cubic_scalar_polarization(self):
        alg = componentwise_r2()
        cubic = lambda x: alg.h(alg.multiply(x, x), x)
        # u = x1^3 + x2^3, polarization T(a,b,c) with T(e1,e1,e1) = 1
        e1, e2 = alg.basis_vector(0), alg.basis_vector(1)
        assert multilinearize(cubic, [e1, e1, e1]) == ONE
        assert multilinearize(cubic, [e1, e1, e2]) == ZERO

    def test_permutation_invariance(self):
        alg = quaternions()
        cubic = lambda x: alg.h(alg.multiply(x, x), x)
        pts = [[S(1), S(2), S(0), S(-1)], [S(0), S(1), S(1), S(1)], [S(2), S(0), S(-3), S(1)]]
        base = multilinearize(cubic, pts)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert multilinearize(cubic, [pts[p] for p in perm]) == base


class TestUnitAndExactness:
    def test_quaternion_unit(self):
        assert find_unit(quaternions()) == [ONE, ZERO, ZERO, ZERO]

    def test_componentwise_unit(self):
        assert find_unit(componentwise_r2()) == [ONE, ONE]

    def test_no_unit(self):
        assert find_unit(anti_diagonal_two_dim()) is None

    def test_exactness(self):
        assert is_exact(anti_diagonal_two_dim())
        assert not is_exact(componentwise_r2())
        assert not is_exact(quaternions())


class TestSubspace:
    def test_echelon_dedup(self):
        sub = Subspace(3, [[S(1), S(1), S(0)], [S(2), S(2), S(0)], [S(0), S(0), S(1)]])
        assert sub.dim == 2

    def test_contains(self):
        # a vector lies in the span when it adds no dimension
        sub = Subspace(3, [[S(1), S(1), S(0)]])
        assert sub.basis == [[ONE, ONE, ZERO]]
        assert Subspace(3, sub.basis + [[S(3), S(3), S(0)]]).dim == 1
        assert Subspace(3, sub.basis + [[S(1), S(0), S(0)]]).dim == 2
        assert Subspace(3, sub.basis + [[S(1), S(1), S(5)]]).dim == 2

    # the complement of a block is the kernel of its lowered rows D G z,
    # which verify_polar takes with _zpoly.complement
    def test_orthogonal_complement_identity_metric(self):
        assert _zpoly.complement([{0: (1, 0)}], 3) == [{1: (1, 0)}, {2: (1, 0)}]

    def test_orthogonal_complement_weighted_metric(self):
        # G = [[1, 1], [1, 2]] lowers e_0 to (1, 1): h(e_0, w) = w_0 + w_1 = 0
        alg = Algebra(2, [], metric=[[1, 1], [1, 2]], commutative=True)
        forms = alg._integer_forms
        (w,) = _zpoly.complement([forms.lower({0: (1, 0)})], 2)
        assert [_zpoly.to_scalar(w.get(j, (0, 0))) for j in range(2)] == [ONE, -ONE]


class TestReport:
    def test_to_dict_stringifies_scalars(self):
        report = Report("demo", False, {"lhs": S(Fraction(1, 2), 1)}, witness=(0, 1, 2))
        data = report.to_dict()
        assert data == {
            "check": "demo",
            "pass": False,
            "details": {"lhs": "1/2+1r3"},
            "witness": [0, 1, 2],
        }

    def test_str(self):
        assert "FAIL" in str(Report("demo", False))
        assert "pass" in str(Report("demo", True))
