from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra
from coneforge.scalars import ONE, SQRT3, Scalar, ZERO
from oracles import nullspace, solve


def S(a, b=0):
    return Scalar(Fraction(a), Fraction(b))


def M(rows):
    return [[S(x) if not isinstance(x, Scalar) else x for x in row] for row in rows]


class TestDeterminant:
    def test_2x2(self):
        assert xl.determinant(M([[1, 2], [3, 4]])) == S(-2)

    def test_singular(self):
        assert xl.determinant(M([[1, 2], [2, 4]])) == ZERO

    def test_requires_pivot_swap(self):
        a = M([[0, 1], [1, 0]])
        assert xl.determinant(a) == S(-1)

    def test_irrational_entries(self):
        # det [[1, r3], [r3, 1]] = 1 - 3
        a = [[ONE, SQRT3], [SQRT3, ONE]]
        assert xl.determinant(a) == S(-2)

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_matches_cofactor_expansion(self, rows):
        a = M(rows)
        expand = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert xl.determinant(a) == expand


class TestSolveAndKernel:
    def test_unique_solution(self):
        a = M([[2, 1], [1, 3]])
        x = solve(a, [S(5), S(5)])
        assert xl.mat_vec(a, x) == [S(5), S(5)]

    def test_inconsistent_returns_none(self):
        a = M([[1, 1], [2, 2]])
        assert solve(a, [S(1), S(3)]) is None

    def test_underdetermined_picks_particular(self):
        a = M([[1, 1]])
        x = solve(a, [S(4)])
        assert x is not None and x[0] + x[1] == S(4)

    def test_nullspace_of_rank_one(self):
        a = M([[1, 2], [2, 4]])
        basis = nullspace(a)
        assert len(basis) == 1
        v = basis[0]
        assert xl.mat_vec(a, v) == [ZERO, ZERO]
        assert any(v)

    def test_rank(self):
        assert xl.rank(M([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == 2

    def test_inverse_roundtrip(self):
        a = M([[1, 2], [3, 5]])
        inv = xl.inverse(a)
        assert xl.mat_mul(a, inv) == xl.identity(2)

    def test_inverse_singular_raises(self):
        with pytest.raises(ValueError):
            xl.inverse(M([[1, 1], [1, 1]]))


def definite(metric):
    """Algebra.metric_is_definite, read off the cached LDL pivots of the metric."""
    return Algebra(len(metric), [], metric=metric).metric_is_definite()


class TestDefiniteness:
    def test_identity_is_pd(self):
        assert definite(xl.identity(3))

    def test_indefinite(self):
        assert not definite(M([[1, 0], [0, -1]]))

    def test_degenerate(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            Algebra(2, [], metric=M([[1, 1], [1, 1]]))
        # nondegenerate, but the LDL stops at a zero leading minor
        assert not definite(M([[0, 1], [1, 0]]))

    def test_pd_with_coupling(self):
        assert definite(M([[2, 1], [1, 2]]))

    def test_ldl_reconstructs(self):
        g = M([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        lower, diag = xl.ldl(g)
        d = [[diag[i] if i == j else ZERO for j in range(3)] for i in range(3)]
        assert xl.mat_mul(xl.mat_mul(lower, d), xl.transpose(lower)) == g
