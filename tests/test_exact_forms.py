"""The exact forms read off the integer table against their Scalar routes.

The trilinear form, the invariance witness of the metric and of the
Killing form kappa, kappa with its rank and its ratio to h, the twisted
trace form, the defect and the cubic u are computed on
``Algebra._integer_forms``, over Z[sqrt 3] with one common denominator.
They are compared with test-local Scalar copies of the routes they
replaced (``scalar_trilinear_form``, ``scalar_invariance_witness``,
``scalar_killing_matrix``, ``proportional_ratio``) and with dense
operator references: on catalog members with and without an
involution, on the non-metrized paraH(4), on hypothesis-drawn
perturbations of one structure constant or of the metric, on drawn
tables with non-symmetric involutions, and on drawn tables with
denominators 2, 3 and 4, sqrt 3 parts, sqrt 3 involutions and
indefinite metrics.  There several triples differ, and the (j, i, k)
witness order decides which one is reported.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, analysis, document
from coneforge import exactlinalg as xl
from coneforge._zpoly import IntegerForms
from coneforge.algebra import (
    Algebra,
    check_metrized,
    killing_form,
)
from coneforge.catalog import construct, polar_zero_block
from coneforge.cubic import cubic_from_algebra
from coneforge.polynomials import CubicForm
from coneforge.scalars import ONE, Scalar, ZERO, scalar_format
from oracles import (
    dense_algebra_from_cubic,
    dense_operator,
    mat_scale,
    rank,
    reference_trace_form_twisted,
    reference_trace_of_product,
)

# -- the Scalar routes -------------------------------------------------------


def scalar_trilinear_form(alg, gram):
    """Sparse {(i, j, k): gram(e_i * e_j, e_k)}, read off the structure table."""
    rows = [{k: g for k, g in enumerate(row) if g} for row in gram]
    form = {}
    for (i, j), column in alg.table.items():
        for m, coeff in column.items():
            for k, g in rows[m].items():
                form[(i, j, k)] = form.get((i, j, k), ZERO) + coeff * g
    return form


def scalar_invariance_witness(alg, form):
    """Least (i, j, k) in (j, i, k) order violating
    gram(e_i * e_j, e_k) = gram(e_i, e_k * sigma(e_j)), with both sides."""
    if alg.involution is None:
        twisted = {(i, j, k): value for (k, j, i), value in form.items()}
    else:
        sigma_rows = [{j: s for j, s in enumerate(row) if s} for row in alg.involution]
        twisted = {}
        for (k, m, i), value in form.items():
            for j, s in sigma_rows[m].items():
                twisted[(i, j, k)] = twisted.get((i, j, k), ZERO) + s * value
    bad = [t for t in form.keys() | twisted.keys() if form.get(t, ZERO) != twisted.get(t, ZERO)]
    if not bad:
        return None, None, None
    triple = min(bad, key=lambda t: (t[1], t[0], t[2]))
    return triple, form.get(triple, ZERO), twisted.get(triple, ZERO)


def scalar_killing_matrix(alg):
    """kappa[i][j] = sum over k, m of c[i][m][k] c[j][k][m], from the table."""
    n = alg.dim
    slots = {}
    for (i, m), column in alg.table.items():
        for k, coeff in column.items():
            slots.setdefault((m, k), []).append((i, coeff))
    kappa = [[ZERO] * n for _ in range(n)]
    for (m, k), left in slots.items():
        for i, c in left:
            for j, d in slots.get((k, m), ()):
                kappa[i][j] = kappa[i][j] + c * d
    return kappa


def proportional_ratio(a, b):
    """r with a = r b, from the first nonzero entry of b, zeros of b
    needing zeros of a."""
    r = None
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if not vb:
                if va:
                    return None
            elif r is None:
                r = va / vb
            elif va != r * vb:
                return None
    return r


# -- the dense references ----------------------------------------------------


def _basis_operator(alg, i, side):
    return dense_operator(alg, alg.basis_vector(i), side)


def reference_invariance_witness(alg, gram):
    n = alg.dim
    for j in range(n):
        lhs = xl.mat_mul(xl.transpose(_basis_operator(alg, j, "right")), gram)
        rhs = xl.mat_mul(gram, dense_operator(alg, alg.sigma(alg.basis_vector(j)), "right"))
        if lhs == rhs:
            continue
        for i in range(n):
            for k in range(n):
                if lhs[i][k] != rhs[i][k]:
                    return (i, j, k), lhs[i][k], rhs[i][k]
    return None, None, None


def reference_killing_matrix(alg):
    n = alg.dim
    ops = [_basis_operator(alg, i, "left") for i in range(n)]
    return [[reference_trace_of_product(ops[i], ops[j]) for j in range(n)] for i in range(n)]


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


def reference_metrized(alg):
    """(passed, witness, lhs, rhs) of the former check_metrized."""
    if alg.involution is not None:
        sig = alg.involution
        pulled = xl.mat_mul(xl.transpose(sig), xl.mat_mul(alg.metric, sig))
        for i in range(alg.dim):
            for j in range(alg.dim):
                if pulled[i][j] != alg.metric[i][j]:
                    return False, (i, j), pulled[i][j], alg.metric[i][j]
    triple, lhs, rhs = scalar_invariance_witness(alg, scalar_trilinear_form(alg, alg.metric))
    return triple is None, triple, lhs, rhs


def assert_forms_agree(alg):
    forms = alg._integer_forms
    d = forms.denominator
    kappa, invariant, nondegenerate = killing_form(alg)
    assert kappa == scalar_killing_matrix(alg) == reference_killing_matrix(alg)
    assert _zpoly.to_matrix(*forms.twisted_trace()) == reference_trace_form_twisted(alg)
    # the integer witnesses with their values, for the metric and for kappa
    for gram, form, scale in ((alg.metric, forms.metric_form, d * d), (kappa, forms.trilinear(forms.kappa), d**3)):
        expected = scalar_invariance_witness(alg, scalar_trilinear_form(alg, gram))
        assert forms.invariance_witness(form, scale) == expected == reference_invariance_witness(alg, gram)
    kappa_witness = scalar_invariance_witness(alg, scalar_trilinear_form(alg, kappa))[0]
    assert invariant == (kappa_witness is None)
    assert nondegenerate == (rank(kappa) == alg.dim)
    report = analysis.killing_metrized_check(alg)
    ratio = proportional_ratio(kappa, alg.metric)
    assert report.witness == kappa_witness
    assert report.details["ratio"] == (scalar_format(ratio) if ratio is not None else None)
    metrized = check_metrized(alg)
    passed, witness, lhs, rhs = reference_metrized(alg)
    assert (metrized.passed, metrized.witness) == (passed, witness)
    if not passed:
        assert (metrized.details["lhs"], metrized.details["rhs"]) == (lhs, rhs)


# -- catalog members ---------------------------------------------------------

INVOLUTION_NAMES = ["C", "H", "O", "cross3", "cross7", "color"]
SPLIT_NAMES = ["paraC", "paraH(2)"]
FORM_NAMES = INVOLUTION_NAMES + SPLIT_NAMES + ["paraH(4)", "clifford(2,3)", "triple(cross3)", "cartan(1)"]


@pytest.mark.parametrize("name", FORM_NAMES)
def test_forms_match_dense_reference(name):
    assert_forms_agree(construct(name))


def test_non_metrized_witness_matches_dense_reference():
    alg = construct("paraH(4)")
    triple, lhs, rhs = scalar_invariance_witness(alg, scalar_trilinear_form(alg, alg.metric))
    assert triple is not None and lhs != rhs
    report = check_metrized(alg)
    assert (report.witness, report.details["lhs"], report.details["rhs"]) == (triple, lhs, rhs)


@pytest.mark.parametrize("name", ["triple(cross3)", "clifford(2,3)", "cartan(1)", "triple(C)"])
def test_cubic_matches_dense_reference(name):
    alg = construct(name)
    assert cubic_from_algebra(alg) == reference_cubic(alg)


def test_trilinear_form_is_sparse():
    alg = construct("triple(H)")
    form = alg._integer_forms.metric_form
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
    alg = dense_algebra_from_cubic(u, metric)
    assert cubic_from_algebra(alg) == reference_cubic(alg) == u


# -- denominators 2, 3 and 4, sqrt 3 parts, indefinite metrics -----------------

R3 = Scalar(0, 1)
ENTRIES = st.builds(
    Scalar,
    st.fractions(-2, 2, max_denominator=4),
    st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3)]),
).filter(bool)
METRIC_ENTRIES = [ONE, Scalar(2), -ONE, Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 3)), Scalar(1, 1)]
# involutions of the plane of e_0 and e_1, two of them with sqrt 3 entries
PLANE_INVOLUTIONS = [
    [[2, R3], [-R3, -2]],
    [[Fraction(1, 2), R3 / 2], [R3 / 2, Fraction(-1, 2)]],
    [[0, 1], [1, 0]],
    [[1, 0], [0, -1]],
]


@st.composite
def fractional_tables(draw, commutative=None):
    """A 2-4 dimensional table with entries of denominators up to 4 and
    sqrt 3 parts, a diagonal metric of mixed signs (with an off-diagonal
    pair sometimes) and, sometimes, an involution of the first plane."""
    n = draw(st.integers(2, 4), label="dim")
    commutative = draw(st.booleans(), label="commutative") if commutative is None else commutative
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, ENTRIES), min_size=1, max_size=10), label="table")
    if commutative:
        entries += [(j, i, k, c) for i, j, k, c in entries if i != j]
    weights = draw(st.lists(st.sampled_from(METRIC_ENTRIES), min_size=n, max_size=n), label="metric")
    metric = [[w if i == j else ZERO for j in range(n)] for i, w in enumerate(weights)]
    if draw(st.booleans(), label="off-diagonal"):
        c = Scalar(Fraction(1, 3))
        metric[0][n - 1] = metric[n - 1][0] = c
        assume(xl.determinant(metric))
    sigma = None
    if draw(st.booleans(), label="involution"):
        sigma = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        sigma[0][:2], sigma[1][:2] = [[Scalar(v) if not isinstance(v, Scalar) else v for v in row]
                                      for row in draw(st.sampled_from(PLANE_INVOLUTIONS), label="plane")]
    return Algebra(n, entries, metric=metric, involution=sigma, commutative=commutative)


@given(alg=fractional_tables())
@settings(max_examples=80, deadline=None)
def test_fractional_tables(alg):
    assert_forms_agree(alg)


@given(alg=fractional_tables(commutative=True))
@settings(max_examples=40, deadline=None)
def test_cubic_of_fractional_tables(alg):
    if check_metrized(alg).passed:
        assert cubic_from_algebra(alg) == reference_cubic(alg)


COMPOSITION_BASES = ["C", "H", "O", "paraC", "paraH(2)", "cross3", "cross7", "color"]
SCALES = [Scalar(Fraction(1, 2)), Scalar(Fraction(2, 3)), Scalar(Fraction(-3, 4)), R3, R3 / 2, Scalar(1, 1)]


@pytest.mark.parametrize("name", COMPOSITION_BASES)
@pytest.mark.parametrize("lam", SCALES, ids=scalar_format)
def test_defect_of_rescaled_compositions(name, lam):
    """Product lambda c and metric lambda^2 h: the identity still holds and
    the defect is that of the base, now over a table with D > 1."""
    base = construct(name)
    entries = [(i, j, k, lam * c) for i, j, k, c in base.structure_entries()]
    alg = Algebra(base.dim, entries, metric=mat_scale(lam * lam, base.metric), involution=base.involution)
    ratio = proportional_ratio(reference_trace_form_twisted(alg), alg.metric)
    report = analysis.quasicomposition_check(alg)
    assert report.is_quasicomposition
    assert report.defect == alg.dim - int(ratio.a) == analysis.quasicomposition_check(base).defect
    assert_forms_agree(alg)


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
    alg._integer_forms.twisted_trace()
    if alg.commutative:
        cubic_from_algebra(alg)


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


@pytest.mark.parametrize("name", ["O", "color", "paraH(4)", "triple(cross3)", "clifford(2,3)", "cartan(2)"])
def test_metrized_and_killing_checks_make_no_scalar_products(name, scalar_products):
    alg = construct(name)
    alg._integer_forms  # built once per algebra, outside the count
    del scalar_products[:]
    check_metrized(alg)
    analysis.killing_metrized_check(alg)
    assert scalar_products == []


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
    build = IntegerForms.kappa.func

    def counted(forms):
        calls.append(forms)
        return build(forms)

    counting = type(IntegerForms.kappa)(counted)
    counting.__set_name__(IntegerForms, "kappa")
    monkeypatch.setattr(IntegerForms, "kappa", counting)
    alg = construct(name)
    expected = reference_killing_matrix(alg)
    analysis.killing_metrized_check(alg)
    alg._integer_forms.twisted_trace()
    analysis.quasicomposition_check(alg)
    if name == "clifford(1,2)":
        assert analysis.verify_polar(alg, polar_zero_block(alg)).passed
    assert len(calls) == 1
    # the public form is the caller's to modify
    matrix = killing_form(alg)[0]
    matrix[0][0] = matrix[0][0] + ONE
    assert _zpoly.to_matrix(alg._integer_forms.kappa, alg._integer_forms.denominator**2) == expected
