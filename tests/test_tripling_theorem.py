"""The tripling theorem at c = 1, in both directions.

A metrized algebra A is quasicomposition when x (sigma(x) (x y)) =
h(x, x) (x y); the constant on the right is c = 1.  The theorem: A is
quasicomposition exactly when its triple is radial Hsiang with theta =
4/3, and then the triple's Peirce numbers satisfy n2 = 3 delta + 2, delta
the defect of A.  Rescaling the product of A by lambda rescales that of
the triple, which sends theta to lambda^2 theta, so theta(triple(lambda
A)) = 4 lambda^2 / 3 while lambda A is not quasicomposition for lambda
!= +-1.  Sources whose triple is not radial at all close the converse.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import Algebra, construct, triple
from coneforge.analysis import quasicomposition_check, radial_hsiang_check, spectral_summary
from coneforge.scalars import Scalar
from oracles import isometric_copy

# the sources of coneforge table's rows, with their defects
TABLE_SOURCES = {
    "R": 0, "C": 0, "H": 0, "O": 0, "paraC": 0, "paraH(2)": 0, "cross3": 1, "cross7": 1, "color": 2,
}


def theta(lam) -> Scalar:
    return Scalar(4) * Scalar(lam) * Scalar(lam) / Scalar(3)


def componentwise_plane() -> Algebra:
    return Algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)], commutative=True, name="RxR")


@pytest.mark.parametrize("name", TABLE_SOURCES)
def test_table_sources_are_quasicomposition_with_a_four_thirds_triple(name):
    source = construct(name)
    report = quasicomposition_check(source)
    assert report.is_quasicomposition and report.defect == TABLE_SOURCES[name]
    assert radial_hsiang_check(triple(source)).radial == theta(1)


def test_cartan0_over_six_is_quasicomposition_with_a_four_thirds_triple():
    source = construct("cartan(0)").rescaled(Scalar(Fraction(1, 6)))
    report = quasicomposition_check(source)
    assert report.is_quasicomposition and report.defect == 0
    assert radial_hsiang_check(triple(source)).radial == theta(1)


@pytest.mark.parametrize(
    "name, lam, expect",
    [("cartan(0)", 1, 6), ("O", 2, 2), ("cross3", 2, 2), ("C", 3, 3)],
)
def test_rescaled_sources_are_not_quasicomposition_and_scale_theta(name, lam, expect):
    # cartan(0) is six times a composition algebra: its triple has theta 48
    source = construct(name).rescaled(Scalar(lam))
    assert not quasicomposition_check(source).is_quasicomposition
    assert radial_hsiang_check(triple(source)).radial == theta(expect)


@pytest.mark.parametrize(
    "name", ["cartan(1)", "cartan(2)", "clifford(1,2)", "clifford(2,3)", "triple(cross3)", "RxR"]
)
def test_triples_outside_the_theorem_are_not_radial(name):
    source = componentwise_plane() if name == "RxR" else construct(name)
    assert radial_hsiang_check(triple(source)).radial is None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_quasicomposition_iff_four_thirds_on_isometric_rescaled_copies(data):
    name = data.draw(st.sampled_from(sorted(TABLE_SOURCES)), label="source")
    source = construct(name)
    order = data.draw(st.permutations(range(source.dim)), label="order")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=source.dim, max_size=source.dim), label="signs")
    copy = isometric_copy(source, order, signs, (0, 0))
    lam = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)]), label="lambda")
    scaled = copy.rescaled(Scalar(lam))
    tripled = triple(scaled)

    report = quasicomposition_check(scaled)
    radial = radial_hsiang_check(tripled).radial
    assert report.is_quasicomposition == (radial == theta(1)) == (lam == 1)
    assert radial == theta(lam)
    # rescaling leaves the spectrum of L(c) alone, so n2 is the source's
    delta = quasicomposition_check(copy).defect
    assert delta == TABLE_SOURCES[name]
    summary = spectral_summary(tripled)
    assert summary["method"] == "exact-idempotent"
    assert summary["n2"] == 3 * delta + 2
