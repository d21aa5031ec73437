"""The exact forms read off the sparse structure table.

The trilinear form, the invariance witness, the Killing matrix, the
twisted trace form and the cubic u are compared with test-local copies
of the dense operator algorithms they replaced: on catalog members with
and without an involution, on the non-metrized paraH(4), and on
hypothesis-drawn perturbations of one structure constant or of the
metric, and on drawn tables with non-symmetric involutions.  There
several triples differ, and the (j, i, k) witness order decides which
one is reported.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import algebra, analysis, document
from coneforge import exactlinalg as xl
from coneforge.algebra import (
    Algebra,
    _invariance_witness,
    _killing_matrix,
    _trilinear_form,
    check_metrized,
    killing_form,
    trace_form_twisted,
)
from coneforge.catalog import construct, polar_zero_block
from coneforge.cubic import algebra_from_cubic, cubic_from_algebra
from coneforge.polynomials import CubicForm
from coneforge.scalars import ONE, Scalar, ZERO

# -- the dense references ----------------------------------------------------


def _basis_operator(alg, i, side):
    return alg.mult_operator(alg.basis_vector(i), side).matrix


def reference_invariance_witness(alg, gram):
    n = alg.dim
    for j in range(n):
        lhs = xl.mat_mul(xl.transpose(_basis_operator(alg, j, "right")), gram)
        twisted = alg.mult_operator(alg.sigma(alg.basis_vector(j)), "right").matrix
        rhs = xl.mat_mul(gram, twisted)
        if lhs == rhs:
            continue
        for i in range(n):
            for k in range(n):
                if lhs[i][k] != rhs[i][k]:
                    return (i, j, k), lhs[i][k], rhs[i][k]
    return None, None, None


def reference_trace_of_product(a, b):
    total = ZERO
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i][j] and b[j][i]:
                total = total + a[i][j] * b[j][i]
    return total


def reference_killing_matrix(alg):
    n = alg.dim
    ops = [_basis_operator(alg, i, "left") for i in range(n)]
    return [[reference_trace_of_product(ops[i], ops[j]) for j in range(n)] for i in range(n)]


def reference_trace_form_twisted(alg):
    n = alg.dim
    ops = [_basis_operator(alg, i, "left") for i in range(n)]
    sig_ops = [alg.mult_operator(alg.sigma(alg.basis_vector(j))).matrix for j in range(n)]
    half = ONE / Scalar(2)
    return [
        [
            (reference_trace_of_product(ops[i], sig_ops[j]) + reference_trace_of_product(ops[j], sig_ops[i])) * half
            for j in range(n)
        ]
        for i in range(n)
    ]


def reference_cubic(alg):
    n = alg.dim
    out = {}
    for i, j, k, coeff in alg.structure_entries():
        for l in range(n):
            g = alg.metric[k][l]
            if g:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                exps[l] += 1
                key = tuple(exps)
                out[key] = out.get(key, ZERO) + coeff * g / Scalar(6)
    return CubicForm(n, out)


def assert_forms_agree(alg):
    kappa = _killing_matrix(alg)
    assert kappa == reference_killing_matrix(alg)
    assert trace_form_twisted(alg) == reference_trace_form_twisted(alg)
    for gram in (alg.metric, kappa):
        assert _invariance_witness(alg, _trilinear_form(alg, gram)) == reference_invariance_witness(alg, gram)


# -- catalog members ---------------------------------------------------------

INVOLUTION_NAMES = ["C", "H", "O", "cross3", "cross7", "color"]
SPLIT_NAMES = ["paraC", "paraH(2)"]
FORM_NAMES = INVOLUTION_NAMES + SPLIT_NAMES + ["paraH(4)", "clifford(2,3)", "triple(cross3)", "cartan(1)"]


@pytest.mark.parametrize("name", FORM_NAMES)
def test_forms_match_dense_reference(name):
    assert_forms_agree(construct(name))


def test_non_metrized_witness_matches_dense_reference():
    alg = construct("paraH(4)")
    triple, lhs, rhs = _invariance_witness(alg, _trilinear_form(alg, alg.metric))
    assert triple is not None and lhs != rhs
    assert check_metrized(alg).witness == triple


@pytest.mark.parametrize("name", ["triple(cross3)", "clifford(2,3)", "cartan(1)", "triple(C)"])
def test_cubic_matches_dense_reference(name):
    alg = construct(name)
    assert cubic_from_algebra(alg) == reference_cubic(alg)


def test_trilinear_form_is_sparse():
    alg = construct("triple(H)")
    form = _trilinear_form(alg, alg.metric)
    # identity metric: one value per nonzero structure constant
    assert len(form) == sum(len(column) for column in alg.table.values())


# -- perturbations -----------------------------------------------------------

PERTURB_NAMES = ["H", "cross3", "color", "paraC", "triple(C)"]
DELTAS = st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(bool)


def _rebuild(alg, entries=None, metric=None):
    return Algebra(
        alg.dim,
        list(alg.structure_entries()) if entries is None else entries,
        metric=alg.metric if metric is None else metric,
        involution=alg.involution,
        name=alg.name,
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_perturbed_structure_constant(data):
    alg = construct(data.draw(st.sampled_from(PERTURB_NAMES)))
    n = alg.dim
    slot = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    delta = Scalar(data.draw(DELTAS), data.draw(st.sampled_from([0, 0, 1])))
    perturbed = _rebuild(alg, list(alg.structure_entries()) + [(*slot, delta)])
    assert_forms_agree(perturbed)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_perturbed_metric(data):
    alg = construct(data.draw(st.sampled_from(PERTURB_NAMES)))
    n = alg.dim
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    metric = [list(row) for row in alg.metric]
    delta = Scalar(data.draw(DELTAS))
    metric[a][b] = metric[a][b] + delta
    if a != b:
        metric[b][a] = metric[b][a] + delta
    assume(xl.determinant(metric))
    assert_forms_agree(_rebuild(alg, metric=metric))


# sigma^2 = 1: diagonal, a non-symmetric shear, a swap
INVOLUTIONS = [
    None,
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [[1, 0, 0], [1, -1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
]
METRICS = [None, [[2, 1, 0], [1, 1, 0], [0, 0, -1]]]


def test_dense_killing_matrix_with_a_shear():
    # every entry of kappa is nonzero, so (kappa sigma)[i][0] sums two terms
    entries = [(i, j, k, (i + 2 * j + k) % 3 + 1) for i in range(3) for j in range(3) for k in range(3)]
    assert_forms_agree(Algebra(3, entries, involution=INVOLUTIONS[2]))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_tables_with_involutions(data):
    slots = st.tuples(*[st.integers(0, 2)] * 3)
    entries = [(*data.draw(slots), data.draw(DELTAS)) for _ in range(data.draw(st.integers(1, 8)))]
    alg = Algebra(
        3,
        entries,
        metric=data.draw(st.sampled_from(METRICS)),
        involution=data.draw(st.sampled_from(INVOLUTIONS)),
    )
    assert_forms_agree(alg)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cubic_of_drawn_forms(data):
    n = data.draw(st.integers(2, 4))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        exps = [0] * n
        for _ in range(3):
            exps[data.draw(st.integers(0, n - 1))] += 1
        terms[tuple(exps)] = Scalar(data.draw(DELTAS), data.draw(st.sampled_from([0, 1])))
    metric = [[Scalar(data.draw(st.sampled_from([1, 2, -1]))) if i == j else ZERO for j in range(n)] for i in range(n)]
    u = CubicForm(n, terms)
    alg = algebra_from_cubic(u, metric)
    assert cubic_from_algebra(alg) == reference_cubic(alg) == u


# -- counting ----------------------------------------------------------------


def _forbid(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"exactlinalg.{name} called")

    monkeypatch.setattr(xl, name, refuse)


@pytest.mark.parametrize("name", ["triple(cross3)", "clifford(2,3)", "paraH(4)"])
def test_metrized_and_killing_checks_need_no_mat_mul(monkeypatch, name):
    alg = construct(name)
    _forbid(monkeypatch, "mat_mul")
    check_metrized(alg)
    analysis.killing_metrized_check(alg)
    killing_form(alg)
    trace_form_twisted(alg)
    if alg.commutative:
        cubic_from_algebra(alg)


def test_loading_a_document_needs_no_determinant(monkeypatch, tmp_path):
    path = str(tmp_path / "t.json")
    document.dump_algebra(construct("triple(cross3)"), path)
    _forbid(monkeypatch, "determinant")
    alg = document.load_algebra(path)
    assert alg.dim == 9
    assert killing_form(alg)[2]



@pytest.mark.parametrize("name", ["triple(C)", "clifford(1,2)", "H"])
def test_kappa_is_built_once_and_never_handed_out(monkeypatch, name):
    calls = []
    build = algebra._killing_matrix
    monkeypatch.setattr(algebra, "_killing_matrix", lambda alg: calls.append(alg) or build(alg))
    alg = construct(name)
    expected = reference_killing_matrix(alg)
    analysis.killing_metrized_check(alg)
    trace_form_twisted(alg)
    analysis.quasicomposition_check(alg)
    if name == "clifford(1,2)":
        assert analysis.verify_polar(alg, polar_zero_block(alg)).passed
    assert len(calls) == 1
    # the public forms are the caller's to modify
    for matrix in (killing_form(alg)[0], trace_form_twisted(alg)):
        matrix[0][0] = matrix[0][0] + ONE
    assert alg._kappa == expected
