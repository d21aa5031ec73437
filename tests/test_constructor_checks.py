"""The constructor's checks of the metric and the involution.

``Algebra.__init__`` lifts its exact data to Z[sqrt 3] once, as
``_integer_forms``, and asks every question of that lift: the metric's
symmetry and rank, sigma^2 = D^2 I, whether sigma is the identity, and
the field tag.  These tests compare it with the dense Scalar checks it
replaced (``tests/oracles.py``) on drawn metrics and involutions, and
count that one lift is built per algebra, with no dense Scalar check.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import _zpoly, algebra
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, check_metrized, is_exact, killing_form
from coneforge.analysis import quasicomposition_check, radial_hsiang_check
from coneforge.catalog import construct
from coneforge.scalars import Scalar, ZERO

from oracles import checked_metric_and_involution, field_tag

SMALL = st.sampled_from([1, -1, 2, -2])
ENTRIES = {
    "symmetric": st.integers(-2, 2).map(Scalar),
    "asymmetric": st.integers(-2, 2).map(Scalar),
    "halves": st.integers(-4, 4).map(lambda k: Scalar(Fraction(k, 2))),
    "sqrt3": st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(lambda ab: Scalar(*ab)),
}


@st.composite
def metrics(draw, n):
    """Diagonal +-1/+-2 metrics, filled in by symmetric or asymmetric
    integer, half-integer or sqrt 3 entries, or turned by a (3/5, 4/5)
    rotation in one coordinate plane."""
    kind = draw(st.sampled_from(["diagonal", "rotation", *ENTRIES]), label="metric kind")
    metric = [[Scalar(draw(SMALL)) if i == j else ZERO for j in range(n)] for i in range(n)]
    if kind == "rotation" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="plane")
        turn = xl.identity(n)
        turn[i][i] = turn[j][j] = Scalar(Fraction(3, 5))
        turn[i][j], turn[j][i] = Scalar(Fraction(-4, 5)), Scalar(Fraction(4, 5))
        return xl.mat_mul(xl.transpose(turn), xl.mat_mul(metric, turn))
    if kind in ENTRIES:
        entry = ENTRIES[kind]
        for i in range(n):
            for j in range(i, n):
                if i == j and kind in ("symmetric", "asymmetric"):
                    continue
                metric[i][j] = draw(entry, label="entry")
                metric[j][i] = draw(entry, label="entry") if kind == "asymmetric" else metric[i][j]
    return metric


@st.composite
def involutions(draw, n):
    """None, the identity, signed permutations, swaps of coordinates with
    reciprocal factors (involutions that are not isometries), or matrices
    drawn entry by entry, which are almost never involutive."""
    kind = draw(st.sampled_from(["none", "identity", "signed", "swaps", "drawn"]), label="involution kind")
    if kind == "none":
        return None
    sigma = xl.identity(n)
    if kind == "signed":
        perm = draw(st.permutations(range(n)), label="permutation")
        signs = draw(st.lists(SMALL.map(lambda s: 1 if s > 0 else -1), min_size=n, max_size=n), label="signs")
        sigma = [[Scalar(signs[j]) if perm[j] == i else ZERO for j in range(n)] for i in range(n)]
    elif kind == "swaps":
        order = draw(st.permutations(range(n)), label="pairing")
        for i, j in zip(order[::2], order[1::2]):
            a = draw(st.sampled_from([Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(1, 1)]))
            sigma[i][i] = sigma[j][j] = ZERO
            sigma[i][j], sigma[j][i] = a, Scalar(1) / a
    elif kind == "drawn":
        entry = st.sampled_from([ZERO, ZERO, Scalar(1), Scalar(-1), Scalar(Fraction(1, 2)), Scalar(0, 1)])
        sigma = [[draw(entry, label="entry") for _ in range(n)] for _ in range(n)]
    return sigma


@st.composite
def inputs(draw):
    n = draw(st.integers(1, 4), label="dim")
    coefficient = st.sampled_from([Scalar(1), Scalar(-2), Scalar(Fraction(1, 3)), Scalar(0, 1)])
    index = st.integers(0, n - 1)
    structure = draw(st.lists(st.tuples(index, index, index, coefficient), max_size=4), label="structure")
    return n, structure, draw(metrics(n)), draw(involutions(n))


@given(case=inputs())
@settings(max_examples=400, deadline=None)
def test_the_integer_checks_agree_with_the_scalar_checks(case):
    n, structure, metric, involution = case
    message, kept = checked_metric_and_involution(metric, involution)
    try:
        alg = Algebra(n, structure, metric=metric, involution=involution)
    except ValueError as err:
        assert str(err) == message
        return
    assert message is None
    assert alg.involution == kept
    assert (alg._integer_forms.involution_rows is None) == (kept is None)
    assert alg.field_tag == field_tag(alg)


def test_an_identity_involution_is_dropped_and_keeps_the_denominator():
    half = Scalar(Fraction(1, 2))
    metric = [[half, ZERO], [ZERO, Scalar(1)]]
    plain = Algebra(2, [(0, 0, 1, Scalar(0, 1))], metric=metric)
    same = Algebra(2, [(0, 0, 1, Scalar(0, 1))], metric=metric, involution=xl.identity(2))
    assert same.involution is None and same._integer_forms.involution_rows is None
    assert same._integer_forms.denominator == plain._integer_forms.denominator == 2
    assert same.field_tag == plain.field_tag == "Qr3"


def test_a_sqrt3_part_only_in_the_involution_sets_the_field_tag():
    # sigma = [[0, 2 + r3], [2 - r3, 0]] squares to (4 - 3) I
    sigma = [[ZERO, Scalar(2, 1)], [Scalar(2, -1), ZERO]]
    alg = Algebra(2, [(0, 0, 0, 1)], involution=sigma)
    assert alg.field_tag == field_tag(alg) == "Qr3"


def test_an_involution_of_the_wrong_shape_is_named_before_the_metric():
    # both inputs are at fault; the involution's shape is checked first
    with pytest.raises(ValueError) as caught:
        Algebra(2, [], metric=[[1, 1], [0, 1]], involution=[[1, 0]])
    assert str(caught.value) == "involution must be a square matrix of the algebra dimension"


def test_one_lift_per_algebra_and_no_dense_checks(monkeypatch):
    members = [construct(name) for name in ("H", "cross3", "triple(cross3)", "cartan(1)", "clifford(2,3)")]
    cases = [(a.dim, list(a.structure_entries()), a.metric, a.involution, a.commutative) for a in members]
    cases.append((2, [(0, 0, 1, 1)], [[Scalar(Fraction(1, 2)), ZERO], [ZERO, Scalar(1)]], xl.identity(2), False))

    lifted = []

    class CountingForms(algebra.IntegerForms):
        def __init__(self, dim, table, metric, sigma):
            lifted.append(table)
            super().__init__(dim, table, metric, sigma)

    monkeypatch.setattr(algebra, "IntegerForms", CountingForms)
    dense = []
    for module, name in ((xl, "mat_mul"), (_zpoly, "lift_point")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            dense.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)

    built = [Algebra(n, entries, metric=g, involution=s, commutative=c) for n, entries, g, s, c in cases]
    # one lift per algebra, of the table it keeps
    assert list(map(id, lifted)) == [id(alg.table) for alg in built] and dense == []
    assert all(type(alg._integer_forms) is CountingForms for alg in built)

    # the verdicts and the field tag read that lift; none builds another
    for alg in built:
        alg.field_tag
        check_metrized(alg)
        killing_form(alg)
        is_exact(alg)
        quasicomposition_check(alg)
    radial_hsiang_check(built[2])
    assert len(lifted) == len(built)
