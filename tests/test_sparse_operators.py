"""The operators L(x) of the exact layer against the Scalar routes they replaced.

Every exact point evaluation, the polar axioms, the degeneracy ranks and
the unit test read D L(x) off the integer table of
``Algebra._integer_forms``; ``oracles.dense_operator``, the former
``Algebra.mult_operator``, returns dense rows, and
``oracles.gradient_hessian`` builds the Hessian G L(x) from them.  The
references below are test-local copies of the former Scalar routes: operator rows
multiplied with ``xl.mat_mul`` or applied with ``xl.mat_vec``, the
orthogonal complement and containment of the former ``Subspace`` methods
(``oracles``), and the streaming row solver behind
``find_unit``.  They must agree on the failing index of the composition
point check, the witness walk, the kernel dimensions, the Hessian, the
product and Hessian ranks and omega of the degeneracy check, the polar
verdict and witness for index and ``Subspace`` blocks (on isometric copies
of the catalog polars too; on a pass, the two axioms that the other five
imply hold as well, by ``oracles.polar_implied_axioms``), and the unit:
on drawn 3-5 dimensional tables with and without involutions,
commutative and not, with metrics of
entries 1, 2 and -1, on drawn cubics with fractional and sqrt 3
coefficients, and on perturbed catalog tables.  The
degeneracy check, which reads its cube off the cubic's leading
coefficients, is also compared with the integer Hessian-rank walk over
the candidate points that it replaced (``oracles.degeneracy_walk``), and
the unit, found on integer rows, with the solver that deduplicated Scalar
rows (``oracles.find_unit_scalar_rows``).
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, analysis, cli
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, Subspace, check_metrized, find_unit, is_exact
from coneforge.catalog import construct, polar_zero_block
from coneforge.cubic import algebra_from_cubic, cubic_from_algebra
from coneforge.document import dump_algebra
from coneforge.polynomials import CubicForm, Polynomial
from coneforge.scalars import ONE, Scalar, ZERO, scalar_format
from oracles import (
    candidate_vectors,
    contains,
    degeneracy_walk,
    dense_operator,
    find_unit_scalar_rows,
    gradient_hessian,
    isometric_copy,
    isometry,
    mat_add,
    mat_sub,
    orthogonal_complement,
    polar_implied_axioms,
    seeded_points,
    trace_values,
)

# -- the dense references ----------------------------------------------------


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
    for x in candidate_vectors(alg, seed):
        j = dense_point_check(alg, x)
        if j is not None:
            return tuple(x), tuple(alg.basis_vector(j))
    return None


def dense_kernel_dim(alg, x):
    product = xl.mat_mul(dense_operator(alg, alg.sigma(x)), dense_operator(alg, x))
    return alg.dim - xl.rank(product)


def dense_hessian(alg, x):
    return xl.mat_mul(alg.metric, dense_operator(alg, x))


def dense_kappa(alg):
    """kappa[i][j] = tr L(e_i) L(e_j) from the dense operators."""
    ops = [dense_operator(alg, alg.basis_vector(i)) for i in range(alg.dim)]
    return [[sum((a * b for row, col in zip(oi, zip(*oj)) for a, b in zip(row, col) if a and b), ZERO)
             for oj in ops] for oi in ops]


def scalar_verify_polar(alg, zero_block):
    """The former verify_polar as (passed, details, witness): products
    with dense Scalar operators and containment in a Subspace."""
    n = alg.dim
    if isinstance(zero_block, Subspace):
        a0 = zero_block
        zero_basis = [list(v) for v in a0.basis]
    else:
        zero_basis = [alg.basis_vector(i) for i in zero_block]
        a0 = Subspace(n, zero_basis)
    if xl.rank([[alg.h(z, zp) for zp in zero_basis] for z in zero_basis]) < a0.dim:
        return False, {"reason": "metric degenerates on the zero block"}, None
    a1 = orthogonal_complement(a0, alg.metric)
    comp_basis = a1.basis

    def fail(tag, *indices):
        return False, {"axiom": tag, "dim_zero_block": a0.dim, "dim_complement": a1.dim}, (tag, *indices)

    zero_ops = [dense_operator(alg, z) for z in zero_basis]
    for i, lz in enumerate(zero_ops):
        for j, zp in enumerate(zero_basis):
            if any(xl.mat_vec(lz, zp)):
                return fail("zero-block-square", i, j)
    if a0.dim == 1 and xl.dot(trace_values(alg), zero_basis[0]):
        return fail("zero-block-trace", 0)
    comp_ops = [dense_operator(alg, y) for y in comp_basis]
    for i, ly in enumerate(comp_ops):
        for j, yp in enumerate(comp_basis):
            if not contains(a0, xl.mat_vec(ly, yp)):
                return fail("complement-product", i, j)
    for i, ly in enumerate(comp_ops):
        for j, z in enumerate(zero_basis):
            if not contains(a1, xl.mat_vec(ly, z)):
                return fail("mixed-product", i, j)
    for k, y in enumerate(comp_basis):
        for i, lz in enumerate(zero_ops):
            for j in range(i, a0.dim):
                lhs = xl.mat_vec(lz, xl.mat_vec(zero_ops[j], y))
                rhs = xl.mat_vec(zero_ops[j], xl.mat_vec(lz, y))
                two_h = Scalar(2) * alg.h(zero_basis[i], zero_basis[j])
                if [l + r for l, r in zip(lhs, rhs)] != [two_h * c for c in y]:
                    return fail("clifford-relation", i, j, k)
    basis_matrix = xl.transpose(zero_basis + comp_basis)
    inverse = xl.inverse(basis_matrix)
    p0 = xl.mat_mul([row[: a0.dim] for row in basis_matrix], inverse[: a0.dim])
    p1 = mat_sub(xl.identity(n), p0)

    def gram(p):
        return xl.mat_mul(xl.transpose(p), xl.mat_mul(alg.metric, p))

    expected = mat_add(xl.mat_scale(Scalar(2 * a0.dim), gram(p1)), xl.mat_scale(Scalar(a1.dim), gram(p0)))
    kappa = dense_kappa(alg)
    for i in range(n):
        for j in range(n):
            if kappa[i][j] != expected[i][j]:
                return fail("trace-identity", i, j)
    details = {
        "dim_zero_block": a0.dim,
        "dim_complement": a1.dim,
        "pairs": (a1.dim // 2, a0.dim) if a1.dim % 2 == 0 else None,
        "mutant": a1.dim == 2 * a0.dim,
    }
    return True, details, None


def scalar_degeneracy(alg, seed=0):
    """The former degeneracy details: Scalar ranks of the table and of the
    dense Hessians G L(x), and omega from the first nonzero Hessian row."""
    exact = is_exact(alg)
    product_rank = xl.rank(list(alg.table.values()))
    u = cubic_from_algebra(alg)
    if not u:
        omega = [scalar_format(ZERO)] * alg.dim
        return {"exact": exact, "product_rank": product_rank, "cube": True, "degenerate": True, "omega": omega}
    cube, omega, probe = False, None, None
    for x in candidate_vectors(alg, seed):
        hessian = dense_hessian(alg, x)
        rank = xl.rank(hessian)
        if rank >= 2:
            probe = None
            break
        if rank == 1 and probe is None:
            probe = (x, hessian)
    if probe is not None:
        x0, hessian = probe
        direction = next(row for row in hessian if any(row))
        pairing = xl.dot(direction, x0)
        n = alg.dim
        lin = Polynomial(n, {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(direction)})
        if pairing:
            scale = u.evaluate(x0) / pairing**3
            if u == lin * lin * lin * scale:
                cube = True
                root = analysis._cube_root(scale)
                if root is not None:
                    omega = [scalar_format(root * c) for c in direction]
    return {"exact": exact, "product_rank": product_rank, "cube": cube, "degenerate": not exact, "omega": omega}


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
    """A 3-5 dimensional table, commutative or not, with entries of
    denominators up to 4 and some sqrt 3 parts, perhaps with e_0 as a
    left, right or two-sided unit, a metric of entries 1, 2, -1 and an
    involution."""
    n = draw(st.integers(3, 5), label="dim")
    commutative = draw(st.booleans(), label="commutative")
    unit = draw(st.sampled_from(["none", "left", "right", "two-sided"]), label="unit")
    low = 0 if unit == "none" else 1
    slot = st.tuples(st.integers(low, n - 1), st.integers(low, n - 1), st.integers(0, n - 1))
    entries = {}
    sqrt3 = st.sampled_from([0, 0, 0, 1, Fraction(-1, 2)])
    for (i, j, k), a, b in draw(st.lists(st.tuples(slot, NONZERO, sqrt3), min_size=1, max_size=3 * n), label="entries"):
        if commutative:
            i, j = min(i, j), max(i, j)
        entries[(i, j, k)] = Scalar(a, b)
    for j in range(n):
        if unit in ("left", "two-sided"):
            entries[(0, j, j)] = ONE
        if unit in ("right", "two-sided") and not commutative:
            entries[(j, 0, j)] = ONE
    weights = draw(st.lists(st.sampled_from([1, 2, -1]), min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else 0 for j in range(n)] for i, w in enumerate(weights)]
    involution = draw(st.sampled_from(_involutions(n)), label="involution")
    entries = [(i, j, k, c) for (i, j, k), c in entries.items()]
    return Algebra(n, entries, metric=metric, involution=involution, commutative=commutative)


@st.composite
def points(draw, n):
    return [Scalar(draw(VALUES)) for _ in range(n)]


@st.composite
def cubic_algebras(draw):
    """algebra_from_cubic of a drawn 3-5 variable cubic with coefficients of
    denominators up to 4, some with a sqrt 3 part, metric entries 1, 2, -1."""
    n = draw(st.integers(3, 5), label="dim")
    monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(n))
    )
    coefficients = st.builds(Scalar, NONZERO, st.sampled_from([0, 0, 0, 1, Fraction(-1, 2)]))
    terms = draw(st.dictionaries(monomial, coefficients, min_size=1, max_size=6), label="u")
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
    candidates = list(candidate_vectors(alg, 0))
    for x in candidates[: alg.dim + 4] + [x for x in extra if any(x)]:
        p = _zpoly.lift_point(x)
        assert analysis._composition_point_check(alg, p) == dense_point_check(alg, x)
        assert analysis._kernel_dim(alg, p) == dense_kernel_dim(alg, x)


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
    for p, x in zip(analysis._seeded_points(alg.dim, 3, 1), seeded_points(alg.dim, 3, 1), strict=True):
        assert analysis._kernel_dim(alg, p) == dense_kernel_dim(alg, x)


def test_isotropic_point_is_checked_against_zero():
    # at x = e_0 + e_1 on diag(1, -1), h(x,x) = 0 and x(x(x y)) = 0 for
    # every y, so the identity holds there although x y is nonzero
    alg = Algebra(2, [(0, 0, 1, 1)], metric=[[1, 0], [0, -1]], commutative=True)
    x = [ONE, ONE]
    assert not alg.h(x, x) and any(alg.multiply(x, alg.basis_vector(0)))
    assert analysis._composition_point_check(alg, _zpoly.lift_point(x)) is None
    assert dense_point_check(alg, x) is None


# -- Hessian -----------------------------------------------------------------


def assert_hessians_agree(alg, extra):
    for x in list(candidate_vectors(alg, 0))[: alg.dim + 2] + extra:
        assert gradient_hessian(alg, x)[1] == dense_hessian(alg, x)


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


# -- degeneracy ------------------------------------------------------------------


def assert_degeneracy_agrees(alg, seed=0):
    expected = scalar_degeneracy(alg, seed)
    try:
        details = analysis.degeneracy_check(alg).details
    except RuntimeError:
        # the conditions disagree, which only a definite metric forbids
        votes = (not expected["exact"], expected["product_rank"] <= 1, expected["cube"])
        assert len(set(votes)) > 1 and alg.metric_is_definite() and alg.involution is None
    else:
        assert details == expected


@st.composite
def cube_algebras(draw):
    """algebra_from_cubic of c lin^3 for a drawn linear form with fractional
    and sqrt 3 coefficients, plus sometimes one more term, so that the
    Hessian has rank one at most candidates and omega is read off it."""
    n = draw(st.integers(2, 4), label="dim")
    coefficient = st.builds(Scalar, VALUES, st.sampled_from([0, 0, 1, Fraction(1, 2)]))
    weights = draw(st.lists(coefficient, min_size=n, max_size=n).filter(any), label="lin")
    lin = Polynomial(n, {tuple(int(k == i) for k in range(n)): w for i, w in enumerate(weights)})
    c = draw(st.sampled_from([ONE, Scalar(8), Scalar(Fraction(-1, 27)), Scalar(2), Scalar(0, 1)]), label="c")
    u = lin * lin * lin * c
    if draw(st.booleans(), label="extra term"):
        u = u + Polynomial(n, {tuple(3 * int(k == n - 1) for k in range(n)): ONE})
    assume(u)
    metric = [[Scalar(draw(st.sampled_from([1, 2, -1]), label="g")) if i == j else ZERO for j in range(n)] for i in range(n)]
    return algebra_from_cubic(CubicForm.from_polynomial(u), metric=metric)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_cubic_degeneracy(data):
    alg = data.draw(cubic_algebras())
    assert_degeneracy_agrees(alg, data.draw(st.integers(0, 3), label="seed"))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_cube_degeneracy(data):
    alg = data.draw(cube_algebras())
    assert_degeneracy_agrees(alg, data.draw(st.integers(0, 3), label="seed"))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_perturbed_catalog_degeneracy(data):
    assert_degeneracy_agrees(data.draw(perturbed_catalog()))


@pytest.mark.parametrize("name", ["R", "paraC", "triple(R)", "triple(C)", "cartan(0)", "cartan(1)", "clifford(1,2)"])
def test_catalog_degeneracy(name):
    alg = construct(name)
    assert_degeneracy_agrees(alg)
    assert_degeneracy_agrees(alg.rescaled(Scalar(Fraction(2, 3))))


def test_degeneracy_reads_omega_off_a_sqrt3_cube():
    # u = (2 x0 + sqrt 3 x1)^3 = omega(x)^3
    lin = Polynomial(2, {(1, 0): Scalar(2), (0, 1): Scalar(0, 1)})
    alg = algebra_from_cubic(CubicForm.from_polynomial(lin * lin * lin), metric=[[1, 0], [0, -1]])
    details = analysis.degeneracy_check(alg).details
    assert details["cube"] and details["omega"] == ["2", "1r3"]
    assert details == scalar_degeneracy(alg)


# the cube read off the leading coefficients, against the Hessian-rank walk
# over the integer candidates that it replaced, at every seed the walk took


def assert_degeneracy_matches_the_walk(alg):
    try:
        details = analysis.degeneracy_check(alg).details
    except RuntimeError:
        details = None
    for seed in range(4):
        walk = degeneracy_walk(alg, seed)
        if details is None:
            votes = (not walk["exact"], walk["product_rank"] <= 1, walk["cube"])
            assert len(set(votes)) > 1 and alg.metric_is_definite() and alg.involution is None
        else:
            assert details == walk, seed


FACTORS = [ONE, Scalar(Fraction(2, 3)), Scalar(Fraction(1, 2), Fraction(1, 2))]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_degeneracy_matches_the_hessian_walk(data):
    alg = data.draw(st.one_of(cubic_algebras(), cube_algebras(), perturbed_catalog()))
    factor = data.draw(st.sampled_from(FACTORS), label="product scale")
    assert_degeneracy_matches_the_walk(alg.rescaled(factor))


def _flip_involution_algebra():
    # exact and metrized, with an involution that breaks the symmetry of h(x y, z)
    return Algebra(
        2,
        [(0, 0, 0, -2), (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 1)],
        metric=[[2, 0], [0, -1]],
        involution=[[1, 0], [0, -1]],
        commutative=True,
    )


@pytest.mark.parametrize(
    "name", ["R", "C", "paraC", "triple(R)", "triple(C)", "cartan(0)", "cartan(1)", "clifford(1,2)", "flip"]
)
def test_catalog_degeneracy_matches_the_hessian_walk(name):
    alg = _flip_involution_algebra() if name == "flip" else construct(name)
    for factor in FACTORS:
        assert_degeneracy_matches_the_walk(alg.rescaled(factor))


def test_degeneracy_ranks_only_the_product(monkeypatch):
    algebras = [construct("triple(C)"), construct("cartan(1)"), _flip_involution_algebra()]
    lin = Polynomial(3, {(1, 0, 0): Scalar(2), (0, 1, 0): Scalar(0, 1), (0, 0, 1): -ONE})
    algebras.append(algebra_from_cubic(CubicForm.from_polynomial(lin * lin * lin)))
    calls = []
    rank = _zpoly.rank

    def counted(rows):
        calls.append(1)
        return rank(rows)

    monkeypatch.setattr(_zpoly, "rank", counted)
    monkeypatch.setattr(_zpoly.IntegerForms, "operator", lambda self, x: pytest.fail("an operator is built"))
    for alg in algebras:
        del calls[:]
        details = analysis.degeneracy_check(alg).details
        assert len(calls) == 1
    assert details["cube"] and details["omega"] is not None


def test_no_route_takes_a_seed_or_a_side():
    # the seed picked the Hessian walk's candidates, and only find_unit asked
    # for a right operator
    assert "seed" not in inspect.signature(analysis.degeneracy_check).parameters
    assert "side" not in inspect.signature(_zpoly.IntegerForms.operator).parameters


# -- polar axioms --------------------------------------------------------------


def polar_outcome(alg, block):
    report = analysis.verify_polar(alg, block)
    return report.passed, report.details, report.witness


def assert_polar_agrees(alg, block):
    outcome = polar_outcome(alg, block)
    assert outcome == scalar_verify_polar(alg, block)
    if outcome[0]:
        assert polar_implied_axioms(alg, block) == (True, True)


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


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_isometric_polar_subspace_blocks(data):
    # a catalog polar in a basis moved by a signed permutation and a
    # rotation, where the zero block is a Subspace with fractional entries:
    # its image passes, and a part of it, the image with one vector moved
    # off it, or the image in the algebra with the product doubled, fails
    # on both routes with the same witness
    base = construct(data.draw(st.sampled_from(["clifford(1,1)", "clifford(1,2)", "clifford(2,3)"]), label="base"))
    n = base.dim
    order = data.draw(st.permutations(range(n)), label="order")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), label="signs")
    pair = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
    alg = isometric_copy(base, order, signs, pair)
    q = isometry(n, order, signs, pair)
    vectors = [q[z] for z in polar_zero_block(base)]
    kind = data.draw(st.sampled_from(["image", "part", "moved", "doubled"]), label="kind")
    if kind == "doubled":
        alg = alg.rescaled(Scalar(2))
    elif kind == "part":
        vectors = vectors[: data.draw(st.integers(1, len(vectors)), label="kept")]
    elif kind == "moved":
        vectors[-1] = [v + w for v, w in zip(vectors[-1], data.draw(points(n), label="shift"))]
    block = Subspace(n, vectors)
    assume(0 < block.dim < n)
    if kind == "image":
        assert polar_outcome(alg, block)[0]
    assert_polar_agrees(alg, block)


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


def _distinct_left_rows(alg):
    """The number of distinct (row, right-hand side) pairs of L(e) = I."""
    entries = {(j, j): {} for j in range(alg.dim)}
    for (i, j), column in alg.table.items():
        for k, c in column.items():
            entries.setdefault((j, k), {})[i] = c
    return len({(tuple(sorted(row.items())), j == k) for (j, k), row in entries.items()})


# members with a diagonal row of L(e) = I that no table entry reaches
UNTOUCHED_DIAGONAL = {"triple(C)", "cross3", "triple(H)", "triple(color)", "clifford(4,5)", "color", "cross7"}


@pytest.mark.parametrize(
    "name, unital",
    [("H", True), ("C", True), ("triple(C)", False), ("cross3", False), ("cartan(1)", False), ("paraC", False),
     ("triple(H)", False), ("triple(color)", False), ("clifford(4,5)", False), ("color", False), ("cross7", False)],
)
def test_unit_is_one_system_without_an_operator(monkeypatch, name, unital):
    # R(e) = I joins L(e) = I in one system; on a commutative table its rows
    # are those of L(e) = I, so the system does not grow.  An untouched
    # diagonal row reads 0 = D and refutes a unit before any solve;
    # cartan(1) and paraC reach every diagonal row.
    alg = construct(name)
    untouched = name in UNTOUCHED_DIAGONAL
    sizes = []
    solve = _zpoly.solve

    def recorded(rows, cols):
        sizes.append(len(rows))
        return solve(rows, cols)

    monkeypatch.setattr(_zpoly, "solve", recorded)
    monkeypatch.setattr(_zpoly.IntegerForms, "operator", lambda *args: pytest.fail("an operator is built"))
    assert (find_unit(alg) is not None) == unital
    assert len(sizes) == (0 if untouched else 1)
    if alg.commutative and not untouched:
        assert sizes == [_distinct_left_rows(alg)]


UNIT_CATALOG = ["R", "C", "H", "O", "paraC", "paraH(2)", "paraH(4)", "cross3", "cross7", "color",
                "triple(C)", "triple(color)", "cartan(1)", "cartan(2)", "clifford(2,3)"]


@pytest.mark.parametrize("name", UNIT_CATALOG)
def test_catalog_unit_matches_the_scalar_rows(name):
    for alg in (construct(name), construct(name).rescaled(Scalar(Fraction(2, 3), Fraction(1, 3)))):
        assert find_unit(alg) == find_unit_scalar_rows(alg)


@given(alg=st.one_of(drawn_tables(), perturbed_catalog()))
@settings(max_examples=60, deadline=None)
def test_drawn_tables_unit_matches_the_scalar_rows(alg):
    assert find_unit(alg) == find_unit_scalar_rows(alg)


@given(
    alg=drawn_tables(),
    factor=st.tuples(NONZERO, st.sampled_from([0, 0, 1, Fraction(-1, 3)])).map(lambda ab: Scalar(*ab)),
)
@settings(max_examples=80, deadline=None)
def test_drawn_tables_unit_is_solved_over_the_integers(alg, factor):
    # find_unit solves its rows fraction-free over Z[sqrt 3], the oracle
    # over Scalar: tables with and without a unit (left, right or two-sided
    # e_0), commutative or not, and the product rescaled by a factor with a
    # sqrt 3 part, whose unit is the unit over the factor
    unit = find_unit(alg)
    assert unit == find_unit_scalar_rows(alg)
    rescaled = alg.rescaled(factor)
    assert find_unit(rescaled) == find_unit_scalar_rows(rescaled)
    assert find_unit(rescaled) == (None if unit is None else [c / factor for c in unit])


@pytest.mark.parametrize("name", ["H", "O", "triple(color)", "cartan(2)"])
def test_unit_hashes_no_scalar(monkeypatch, name):
    # the rows are deduplicated on the integer table, not as Scalar tuples
    alg = construct(name)
    monkeypatch.setattr(Scalar, "__hash__", lambda self: pytest.fail("a Scalar is hashed"))
    assert (find_unit(alg) is not None) == (name in ("H", "O"))


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


def test_polar_makes_no_mat_mul_and_nothing_n_by_n(monkeypatch):
    # the mixed products and the trace identity follow from the other
    # axioms, so a passing check builds no Killing form and inverts nothing
    algebras = [construct("clifford(2,3)"), construct("clifford(4,5)")]
    for alg in algebras:
        check_metrized(alg)
    calls = []
    _count(monkeypatch, xl, "mat_mul", calls)
    _count(monkeypatch, xl, "inverse", calls)
    monkeypatch.setattr(_zpoly.IntegerForms, "kappa", property(lambda forms: pytest.fail("kappa is read")))
    for alg in algebras:
        assert analysis.verify_polar(alg, polar_zero_block(alg)).passed
        assert not analysis.verify_polar(alg, [0]).passed
    assert calls == []
    assert not hasattr(_zpoly, "inverse")


def test_one_verify_hsiang_builds_the_metric_form_once(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "t.json")
    dump_algebra(construct("triple(cross3)"), path)
    calls = []
    _count(monkeypatch, _zpoly.IntegerForms, "trilinear", calls)
    assert cli.main(["verify", "hsiang", path]) == 0
    assert "theta = 4/3" in capsys.readouterr().out
    assert calls == ["trilinear"]


@pytest.fixture
def scalar_products(monkeypatch):
    calls = []
    mul = Scalar.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    return calls


def test_polar_product_axioms_make_no_scalar_products(scalar_products, monkeypatch):
    # this table passes every product axiom and fails the Clifford relation
    base = construct("clifford(2,3)")
    u = cubic_from_algebra(base)
    last = base.dim - 1
    alg = algebra_from_cubic(
        Polynomial(base.dim, {exps: c for exps, c in u.terms.items() if not exps[last]}), metric=base.metric
    )
    block = polar_zero_block(base)
    for a in (alg, base):
        check_metrized(a)
        a._integer_forms
    # an index block builds no Subspace, and the complement comes from one
    # fraction-free elimination: no Scalar arithmetic, no exactlinalg call
    calls = []
    for name in ("__init__", "__add__", "__sub__", "__truediv__"):
        _count(monkeypatch, Scalar, name, calls)
    for name, value in vars(xl).items():
        if inspect.isfunction(value) and value.__module__ == xl.__name__:
            _count(monkeypatch, xl, name, calls)
    del scalar_products[:]
    assert analysis.verify_polar(alg, block).witness == ("clifford-relation", 2, 2, 0)
    assert analysis.verify_polar(base, block).passed
    assert scalar_products == [] and calls == []
