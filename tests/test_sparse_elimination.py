"""The sparse elimination against the dense routines it replaced.

``xl.rref`` eliminates on rows held as ``{column: value}`` and touches only
nonzero entries, and so do ``solve`` and ``nullspace`` (``tests/oracles.py``,
the former ``xl.solve`` and ``xl.nullspace``) on top of it; ``xl.ldl`` skips zero multipliers and zero
entries of the pivot row.  The references below are test-local copies of
the former dense ``rref``, ``solve``, ``nullspace``, ``inverse`` and
``ldl``, and of the line-dedupe rank that ``degeneracy_check`` took of
the table columns.  The reduced row echelon form is unique, so every
output must agree exactly: on drawn Q(sqrt 3) matrices with zero rows,
duplicate rows and empty columns, wide and tall, with rows given dense
and as dicts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, analysis
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra
from coneforge.analysis import degeneracy_check
from coneforge.catalog import construct
from coneforge.cubic import algebra_from_cubic
from coneforge.polynomials import Polynomial
from coneforge.scalars import ONE, Scalar, ZERO
from oracles import dense_operator, nullspace, solve

# -- the dense references ----------------------------------------------------


def dense_rref(a):
    """The former rref: scales and eliminates whole dense rows."""
    if not a:
        return [], []
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def dense_solve(a, b):
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = dense_rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return x


def dense_nullspace(a):
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = dense_rref(a)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def dense_inverse(a):
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def dense_ldl(g):
    n = len(g)
    m = [list(row) for row in g]
    lower = xl.identity(n)
    d = []
    for k in range(n):
        p = m[k][k]
        if not p:
            return None
        d.append(p)
        for i in range(k + 1, n):
            f = m[i][k] / p
            lower[i][k] = f
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return lower, d


def line_dedupe_rank(alg):
    """The former product rank: one dense column per line through 0."""
    lines = set()
    for column in alg.table.values():
        scale = column[min(column)].inverse()
        line = [ZERO] * alg.dim
        for k, coeff in column.items():
            line[k] = coeff * scale
        lines.add(tuple(line))
    return len(dense_rref(list(lines))[1])


def densify(rows, cols):
    return [[row.get(c, ZERO) for c in range(cols)] for row in rows]


# -- strategies --------------------------------------------------------------

nonzero = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(1, 3),
).filter(bool)
# mostly zeros, so that the sparse paths see empty columns and short rows
scalars = st.one_of(st.just(ZERO), st.just(ZERO), nonzero)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Dense matrices, wide or tall, with zero rows, duplicate rows and
    empty columns mixed in."""
    rows = draw(st.integers(1, 7)) if rows is None else rows
    cols = draw(st.integers(1, 7)) if cols is None else cols
    m = [[draw(scalars) for _ in range(cols)] for _ in range(rows)]
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[c] = ZERO
    for _ in range(draw(st.integers(0, 2))):
        copy = [ZERO] * cols if draw(st.booleans()) else list(m[draw(st.integers(0, len(m) - 1))])
        m.insert(draw(st.integers(0, len(m))), copy)
    return m


@st.composite
def mixed(draw, m):
    """The same rows, each given dense or as {column: value}; a dict may
    hold zero values, as a sparse product does where terms cancel."""
    out = []
    for row in m:
        form = draw(st.sampled_from(["dense", "nonzero", "all"]))
        if form == "dense":
            out.append(list(row))
        else:
            out.append({c: v for c, v in enumerate(row) if v or form == "all"})
    return out


@st.composite
def symmetric(draw):
    n = draw(st.integers(1, 7))
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(scalars)
    return g


# -- rref and the routines on it ---------------------------------------------


class TestAgainstDense:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rref_rows_and_pivots(self, data):
        m = data.draw(matrices())
        cols = len(m[0])
        reduced, pivots = xl.rref(data.draw(mixed(m)))
        assert all(value for row in reduced for value in row.values())
        assert (densify(reduced, cols), pivots) == dense_rref(m)
        assert xl.rank(m) == len(pivots)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, data):
        m = data.draw(matrices())
        cols = len(m[0])
        b = [data.draw(scalars) for _ in m]
        expected = dense_solve(m, b)
        assert solve(m, b) == expected
        assert solve(data.draw(mixed(m)), b, cols) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_consistent_systems(self, data):
        # a right-hand side in the column space, so a solution exists
        m = data.draw(matrices())
        x = [data.draw(scalars) for _ in m[0]]
        b = xl.mat_vec(m, x)
        solution = solve(data.draw(mixed(m)), b, len(x))
        assert solution == dense_solve(m, b)
        assert xl.mat_vec(m, solution) == b

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_nullspace(self, m):
        assert nullspace(m) == dense_nullspace(m)

    @given(st.integers(1, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, m):
        m = m[: len(m[0])]  # square again after inserted rows
        try:
            expected = dense_inverse(m)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                xl.inverse(m)
        else:
            assert xl.inverse(m) == expected

    @given(symmetric())
    @settings(max_examples=200, deadline=None)
    def test_ldl(self, g):
        assert xl.ldl(g) == dense_ldl(g)

    def test_empty_inputs(self):
        assert xl.rref([]) == ([], [])
        assert xl.rank([{}, {}]) == 0
        assert solve([], []) == []
        assert solve([{}], [ZERO], 3) == [ZERO] * 3
        assert solve([{}], [ONE], 3) is None
        assert xl.inverse([]) == []


# -- product rank -----------------------------------------------------------

CATALOG_RADIAL = [
    "triple(R)", "triple(C)", "triple(H)", "triple(cross3)", "triple(color)", "triple(O)",
    "cartan(1)", "cartan(2)", "clifford(4,5)", "clifford(8,9)",
]


@pytest.mark.parametrize("name", CATALOG_RADIAL)
def test_product_rank_matches_line_dedupe_on_catalog(name):
    alg = construct(name)
    assert degeneracy_check(alg).details["product_rank"] == line_dedupe_rank(alg)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_product_rank_matches_line_dedupe_on_drawn_tables(data):
    # an indefinite metric, so that degeneracy_check reports the
    # conditions as computed on any cubic
    n = data.draw(st.integers(2, 4))
    monomials = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
    chosen = data.draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True))
    terms = {}
    for i, j, k in chosen:
        exponent = [0] * n
        for v in (i, j, k):
            exponent[v] += 1
        terms[tuple(exponent)] = data.draw(nonzero)
    metric = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    metric[-1][-1] = -ONE
    alg = algebra_from_cubic(Polynomial(n, terms), metric=metric)
    assert degeneracy_check(alg).details["product_rank"] == line_dedupe_rank(alg)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_square_columns_span_the_slots_of_drawn_commutative_tables(data):
    # the identity product_rank rests on, on commutative tables that need
    # not be metrized; slots i <= j, which the constructor mirrors
    n = data.draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    slot = st.tuples(index, index, index, nonzero).map(lambda s: (min(s[:2]), max(s[:2]), *s[2:]))
    alg = Algebra(n, data.draw(st.lists(slot, max_size=10)), commutative=True)
    forms = alg._integer_forms
    ranks = [_zpoly.rank([dict(column) for _, _, column in slots]) for slots in (forms.square_slots, forms.slots)]
    assert ranks[0] == ranks[1]


@pytest.mark.parametrize("name", ["O", "H", "triple(H)", "clifford(4,5)"])
def test_kernel_dim_matches_dense_columns(name):
    alg = construct(name)
    for x in [alg.basis_vector(0), [Scalar(i % 3 - 1) for i in range(alg.dim)]]:
        lx, lsx = dense_operator(alg, x), dense_operator(alg, alg.sigma(x))
        dense = [xl.mat_vec(lsx, column) for column in xl.transpose(lx)]
        assert analysis._kernel_dim(alg, _zpoly.lift_point(x)) == alg.dim - len(dense_rref(dense)[1])


# -- only nonzero entries are multiplied -------------------------------------


@pytest.fixture
def count_products(monkeypatch):
    """Count Scalar.__mul__ calls; division goes through it as well."""
    calls = []
    plain = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    return calls


def test_rank_of_a_diagonal_multiplies_at_most_once_per_entry(count_products):
    n = 24
    diagonal = [[Scalar(i + 1, i % 2) if i == j else ZERO for j in range(n)] for i in range(n)]
    assert xl.rank(diagonal) == n
    assert len(count_products) <= n


def test_ldl_of_a_diagonal_metric_multiplies_at_most_once_per_entry(count_products):
    metric = construct("triple(O)").metric
    nonzero = sum(1 for row in metric for v in row if v)
    del count_products[:]
    lower, d = xl.ldl(metric)
    assert d == [metric[i][i] for i in range(len(metric))]
    assert len(count_products) <= nonzero


def test_scaling_and_comparing_a_diagonal_metric_multiply_once_per_entry(count_products):
    metric = construct("triple(O)").metric
    nonzero = sum(1 for row in metric for v in row if v)
    del count_products[:]
    scaled = xl.mat_scale(Scalar(3, 1), metric)
    assert len(count_products) == nonzero
    assert scaled == [[Scalar(3, 1) * v for v in row] for row in metric]
    # the comparison runs on integer rows, with no Scalar product at all
    lifted_scaled, lifted_metric = ([_zpoly.lift_point(row) for row in m] for m in (scaled, metric))
    del count_products[:]
    assert _zpoly.proportion_rows(lifted_scaled, lifted_metric) == ((3, 1), (1, 0))
    assert count_products == []
