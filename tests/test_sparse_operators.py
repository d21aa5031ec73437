"""The sparse operator L(x) against the dense routes it replaced.

``Algebra.mult_operator`` returns a ``LinearMap`` held as sparse columns
read off the structure table, and every exact point evaluation goes
through it.  The references below are test-local copies of the former
dense routes: operator rows multiplied with ``xl.mat_mul`` or applied
with ``xl.mat_vec``, and the streaming row solver behind ``find_unit``.
They must agree on the failing index of the composition point check, the
witness walk, the kernel dimensions, the Hessian, the polar verdict and
witness, and the unit: on drawn 3-5 dimensional tables with and without
involutions, commutative and not, with metrics of entries 1, 2 and -1,
and on perturbed catalog tables.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import algebra, analysis, cli, cubic
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, LinearMap, Subspace, check_metrized, find_unit
from coneforge.catalog import construct, polar_zero_block
from coneforge.cubic import algebra_from_cubic, cubic_from_algebra, gradient_hessian
from coneforge.document import dump_algebra
from coneforge.polynomials import CubicForm, Polynomial
from coneforge.scalars import ONE, Scalar, ZERO

# -- the dense references ----------------------------------------------------


def dense_operator(alg, x, side="left"):
    """The former mult_operator: dense rows, entry (k, j) of L(x) or R(x)."""
    x = [Scalar(v) if not isinstance(v, Scalar) else v for v in x]
    rows = [[ZERO] * alg.dim for _ in range(alg.dim)]
    for (i, j), column in alg.table.items():
        f, target = (x[i], j) if side == "left" else (x[j], i)
        if f:
            for k, coeff in column.items():
                rows[k][target] = rows[k][target] + f * coeff
    return rows


def dense_point_check(alg, x):
    lx = dense_operator(alg, x)
    lsx = dense_operator(alg, alg.sigma(x))
    lhs = xl.mat_mul(lx, xl.mat_mul(lsx, lx))
    rhs = xl.mat_scale(alg.h(x, x), lx)
    n = alg.dim
    for j in range(n):
        if any(lhs[k][j] != rhs[k][j] for k in range(n)):
            return j
    return None


def dense_witness(alg, seed):
    for x in analysis._candidate_vectors(alg, seed):
        j = dense_point_check(alg, x)
        if j is not None:
            return tuple(x), tuple(alg.basis_vector(j))
    return None


def dense_kernel_dim(alg, x):
    product = xl.mat_mul(dense_operator(alg, alg.sigma(x)), dense_operator(alg, x))
    return alg.dim - xl.rank(product)


def dense_hessian(alg, x):
    return xl.mat_mul(alg.metric, dense_operator(alg, x))


class DenseMap:
    """Stand-in for LinearMap that applies dense rows with xl.mat_vec."""

    def __init__(self, rows):
        self.rows = rows

    def apply(self, v):
        return xl.mat_vec(self.rows, v)


@contextmanager
def dense_operators():
    """Route Algebra.mult_operator through the dense rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algebra, "mult_operator", lambda alg, x, side="left": DenseMap(dense_operator(alg, x, side)))
        yield


class RowSolver:
    """The former streaming solver: rows reduced on arrival, raising on
    the first inconsistent one."""

    def __init__(self, n):
        self.n = n
        self.rows = {}

    def add_row(self, coeffs, rhs):
        row = list(coeffs)
        for c in sorted(self.rows):
            if row[c]:
                f = row[c]
                prow, prhs = self.rows[c]
                row = [x - f * y for x, y in zip(row, prow)]
                rhs = rhs - f * prhs
        lead = next((j for j in range(self.n) if row[j]), None)
        if lead is None:
            if rhs:
                raise ValueError("inconsistent")
            return
        inv = row[lead].inverse()
        row = [x * inv for x in row]
        rhs = rhs * inv
        for c, (prow, prhs) in list(self.rows.items()):
            if prow[lead]:
                f = prow[lead]
                self.rows[c] = ([x - f * y for x, y in zip(prow, row)], prhs - f * rhs)
        self.rows[lead] = (row, rhs)

    def solution(self):
        x = [ZERO] * self.n
        for c, (_, rhs) in self.rows.items():
            x[c] = rhs
        return x


def dense_find_unit(alg):
    n = alg.dim
    solver = RowSolver(n)
    sides = ("left",) if alg.commutative else ("left", "right")
    try:
        for side in sides:
            for j in range(n):
                for k in range(n):
                    row = [ZERO] * n
                    for i in range(n):
                        column = alg.table.get((i, j) if side == "left" else (j, i))
                        if column and column.get(k):
                            row[i] = row[i] + column[k]
                    solver.add_row(row, ONE if j == k else ZERO)
    except ValueError:
        return None
    e = solver.solution()
    for side in sides:
        if dense_operator(alg, e, side) != xl.identity(n):
            return None
    return e


# -- drawn inputs ------------------------------------------------------------

VALUES = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
NONZERO = VALUES.filter(bool)


def _involutions(n):
    """sigma^2 = 1: none, a sign flip, a swap, a non-symmetric shear."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    flip = [row[:] for row in eye]
    flip[n - 1][n - 1] = -1
    swap = [row[:] for row in eye]
    swap[0][0] = swap[1][1] = 0
    swap[0][1] = swap[1][0] = 1
    shear = [row[:] for row in eye]
    shear[1][0], shear[1][1] = 1, -1
    return [None, flip, swap, shear]


@st.composite
def drawn_tables(draw):
    """A 3-5 dimensional table, commutative or not, perhaps with e_0 as a
    left, right or two-sided unit, a metric of entries 1, 2, -1 and an
    involution."""
    n = draw(st.integers(3, 5), label="dim")
    commutative = draw(st.booleans(), label="commutative")
    unit = draw(st.sampled_from(["none", "left", "right", "two-sided"]), label="unit")
    low = 0 if unit == "none" else 1
    slot = st.tuples(st.integers(low, n - 1), st.integers(low, n - 1), st.integers(0, n - 1))
    entries = {}
    for (i, j, k), c in draw(st.lists(st.tuples(slot, NONZERO), min_size=1, max_size=3 * n), label="entries"):
        if commutative:
            i, j = min(i, j), max(i, j)
        entries[(i, j, k)] = c
    for j in range(n):
        if unit in ("left", "two-sided"):
            entries[(0, j, j)] = ONE
        if unit in ("right", "two-sided") and not commutative:
            entries[(j, 0, j)] = ONE
    weights = draw(st.lists(st.sampled_from([1, 2, -1]), min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
    involution = draw(st.sampled_from(_involutions(n)), label="involution")
    return Algebra(n, entries, metric=metric, involution=involution, commutative=commutative)


@st.composite
def points(draw, n):
    return [Scalar(draw(VALUES)) for _ in range(n)]


@st.composite
def cubic_algebras(draw):
    """algebra_from_cubic of a drawn 3-5 variable cubic, metric entries 1, 2, -1."""
    n = draw(st.integers(3, 5), label="dim")
    monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(n))
    )
    terms = draw(st.dictionaries(monomial, NONZERO.map(Scalar), min_size=1, max_size=6), label="u")
    weights = draw(st.lists(st.sampled_from([1, 2, -1]), min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
    return algebra_from_cubic(CubicForm(n, terms), metric=metric)


def perturbed(base, draw):
    """The catalog cubic plus one drawn term, so the table stays metrized."""
    n = base.dim
    idx = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), label="monomial")
    coeff = Scalar(draw(NONZERO), draw(st.sampled_from([0, 0, 1])))
    u = cubic_from_algebra(base) + Polynomial(n, {tuple(idx.count(i) for i in range(n)): coeff})
    assume(u)
    return algebra_from_cubic(u, metric=base.metric)


PERTURBED_SOURCES = ["triple(R)", "triple(C)", "triple(paraC)", "cartan(1)", "clifford(1,2)"]


@st.composite
def perturbed_catalog(draw):
    return perturbed(construct(draw(st.sampled_from(PERTURBED_SOURCES), label="source")), draw)


# -- composition point checks and kernel dimensions ----------------------------


def assert_point_checks_agree(alg, extra):
    candidates = list(analysis._candidate_vectors(alg, 0))
    for x in candidates[: alg.dim + 4] + [x for x in extra if any(x)]:
        assert analysis._composition_point_check(alg, x) == dense_point_check(alg, x)
        assert analysis._kernel_dim(alg, x) == dense_kernel_dim(alg, x)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_tables_point_checks(data):
    alg = data.draw(drawn_tables())
    assert_point_checks_agree(alg, [data.draw(points(alg.dim)) for _ in range(2)])


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_drawn_tables_witness_walk(data):
    alg = data.draw(drawn_tables())
    seed = data.draw(st.integers(0, 5))
    assert analysis._composition_witness(alg, seed) == dense_witness(alg, seed)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_perturbed_catalog_point_checks(data):
    alg = data.draw(perturbed_catalog())
    assert_point_checks_agree(alg, [data.draw(points(alg.dim))])


@pytest.mark.parametrize(
    "name", ["C", "H", "O", "paraC", "paraH(2)", "cross3", "color", "triple(C)", "triple(H)", "clifford(2,3)"]
)
def test_catalog_witness_walk_and_kernels(name):
    alg = construct(name)
    assert analysis._composition_witness(alg, 0) == dense_witness(alg, 0)
    for x in analysis._seeded_points(alg.dim, 3, 1):
        assert analysis._kernel_dim(alg, x) == dense_kernel_dim(alg, x)


def test_isotropic_point_is_checked_against_zero():
    # at x = e_0 + e_1 on diag(1, -1), h(x,x) = 0 and x(x(x y)) = 0 for
    # every y, so the identity holds there although x y is nonzero
    alg = Algebra(2, [(0, 0, 1, 1)], metric=[[1, 0], [0, -1]], commutative=True)
    x = [ONE, ONE]
    assert not alg.h(x, x) and any(alg.multiply(x, alg.basis_vector(0)))
    assert analysis._composition_point_check(alg, x) is None
    assert dense_point_check(alg, x) is None


# -- Hessian -----------------------------------------------------------------


def assert_hessians_agree(alg, extra):
    for x in list(analysis._candidate_vectors(alg, 0))[: alg.dim + 2] + extra:
        hessian = gradient_hessian(alg, x)[1]
        assert isinstance(hessian, LinearMap)
        assert hessian.matrix == dense_hessian(alg, x)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_drawn_cubic_hessians(data):
    alg = data.draw(cubic_algebras())
    assert_hessians_agree(alg, [data.draw(points(alg.dim))])


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_perturbed_catalog_hessians(data):
    alg = data.draw(perturbed_catalog())
    assert_hessians_agree(alg, [data.draw(points(alg.dim))])


# -- polar axioms --------------------------------------------------------------


def polar_outcome(alg, block):
    report = analysis.verify_polar(alg, block)
    return report.passed, report.details, report.witness


def assert_polar_agrees(alg, block):
    live = polar_outcome(alg, block)
    with dense_operators():
        assert polar_outcome(alg, block) == live


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_drawn_cubic_polar(data):
    alg = data.draw(cubic_algebras())
    n = alg.dim
    if data.draw(st.booleans(), label="index block"):
        block = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    else:
        vectors = data.draw(st.lists(points(n), min_size=1, max_size=n - 1))
        block = Subspace(n, vectors)
        assume(0 < block.dim < n)
    assert_polar_agrees(alg, block)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_perturbed_polar(data):
    base = construct(data.draw(st.sampled_from(["clifford(1,2)", "clifford(2,3)"])))
    assert_polar_agrees(perturbed(base, data.draw), polar_zero_block(base))


@pytest.mark.parametrize("name", ["clifford(1,2)", "clifford(2,3)", "clifford(4,5)"])
def test_catalog_polar(name):
    alg = construct(name)
    assert_polar_agrees(alg, polar_zero_block(alg))
    assert_polar_agrees(alg.rescaled(Scalar(2)), polar_zero_block(alg))


def test_polar_with_an_idle_zero_block_vector():
    # without the last z in the cubic, L(z) L(z) y = 0 while 2 h(z,z) y != 0
    base = construct("clifford(2,3)")
    u = cubic_from_algebra(base)
    last = base.dim - 1
    kept = Polynomial(base.dim, {exps: c for exps, c in u.terms.items() if not exps[last]})
    alg = algebra_from_cubic(kept, metric=base.metric)
    block = polar_zero_block(base)
    assert polar_outcome(alg, block)[2] == ("clifford-relation", 2, 2, 0)
    assert_polar_agrees(alg, block)


# -- unit ----------------------------------------------------------------------


@given(alg=drawn_tables())
@settings(max_examples=60, deadline=None)
def test_drawn_tables_unit(alg):
    assert find_unit(alg) == dense_find_unit(alg)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_perturbed_catalog_unit(data):
    alg = data.draw(perturbed_catalog())
    assert find_unit(alg) == dense_find_unit(alg)


@pytest.mark.parametrize("name", ["R", "C", "H", "O", "paraH(4)", "cross3", "triple(C)", "cartan(1)"])
def test_catalog_unit(name):
    alg = construct(name)
    assert find_unit(alg) == dense_find_unit(alg)


def test_fixed_unit_systems():
    # e0 e0 = e0 forces e = e0, but then e e1 = 0 and not e1
    inconsistent = Algebra(2, [(0, 0, 0, 1), (1, 1, 0, 1)], commutative=True)
    # e1 annihilates everything, so entry (1, 1) of L(e) = I reads 0 = 1
    annihilated = Algebra(2, [(0, 0, 0, 1)], commutative=True)
    # e0 is a right unit only (e0 e1 = 0), or a left unit only (e1 e0 = 0)
    right_only = Algebra(2, [(0, 0, 0, 1), (1, 0, 1, 1)])
    left_only = Algebra(2, [(0, 0, 0, 1), (0, 1, 1, 1)])
    for alg in (inconsistent, annihilated, right_only, left_only):
        assert find_unit(alg) is None
        assert dense_find_unit(alg) is None
    unital = Algebra(3, [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 1, 2, Scalar(0, 1))], commutative=True)
    assert find_unit(unital) == dense_find_unit(unital) == [ONE, ZERO, ZERO]


# -- counting ----------------------------------------------------------------


def _count(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name, passes", [("O", True), ("triple(H)", False)])
def test_composition_and_unit_need_no_mat_mul(monkeypatch, name, passes):
    alg = construct(name)
    # the metric check squares the involution densely; it is cached per algebra
    check_metrized(alg)
    calls = []
    _count(monkeypatch, xl, "mat_mul", calls)
    assert analysis.quasicomposition_check(alg).is_quasicomposition == passes
    find_unit(alg)
    assert calls == []


def test_polar_uses_mat_mul_only_for_the_trace_identity(monkeypatch):
    alg = construct("clifford(2,3)")
    check_metrized(alg)
    calls = []
    _count(monkeypatch, xl, "mat_mul", calls)
    _count(monkeypatch, xl, "inverse", calls)  # the trace identity starts here
    assert analysis.verify_polar(alg, polar_zero_block(alg)).passed
    assert calls[0] == "inverse" and calls.count("mat_mul") == 5
    calls.clear()
    # a wrong block fails on an operator axiom, before the trace identity
    assert not analysis.verify_polar(alg, [0]).passed
    assert calls == []


def test_one_verify_hsiang_builds_the_metric_form_once(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "t.json")
    dump_algebra(construct("triple(cross3)"), path)
    calls = []
    for module in (algebra, analysis, cubic):  # every binding of the name
        if hasattr(module, "_trilinear_form"):
            _count(monkeypatch, module, "_trilinear_form", calls)
    assert cli.main(["verify", "hsiang", path]) == 0
    assert "theta = 4/3" in capsys.readouterr().out
    assert calls == ["_trilinear_form"]
