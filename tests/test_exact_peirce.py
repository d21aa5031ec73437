"""The exact Peirce route against the float search and the trace identity.

``spectral_summary`` first walks small-support integer points for an
idempotent c and certifies the spectrum of L(c) by kernel ranks over
Z[sqrt 3]; only when no candidate passes does ``numeric.peirce`` decide.
The float search is the oracle here: on the catalog members in the
spectral domain where the walk finds an idempotent, on signed-permutation
copies (where c keeps its small support), and under rescaling of the
product by lambda and the metric by mu (which leave the spectrum of L(c)
alone and send h(c, c) to mu h(c, c) / lambda^2), the exact block must
carry the float search's (n1, n2, d), multiplicities and idempotent norm.
The rest of the catalog in that domain, clifford(p,1) and the triples that
are not radial, is pinned to the float route, and so is a rational
rotation of triple(C), which hides every small-support idempotent; the
block says which route decided.

The trace identity: on an algebra that is radial with theta != 0, exact,
Killing-metrized (kappa = rho h) and without an involution, the Peirce
theorem of Nadirashvili, Tkachev and Vladut (Nonlinear Elliptic Equations
and Nonassociative Algebras, AMS 2014) gives n2 = n + 2 - 2 rho / theta
and n1 = (2 rho / theta - 1 - n2) / 3.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import Algebra, construct, full_report, numeric
from coneforge.algebra import is_exact
from coneforge.analysis import (
    _exact_peirce,
    killing_metrized_check,
    radial_hsiang_check,
    spectral_summary,
)
from coneforge.scalars import Scalar, scalar_parse
from oracles import isometric_copy, mat_scale

# catalog members in the spectral domain (commutative, metrized, a positive
# definite metric and no involution) where the walk finds an idempotent
EXACT = (
    "R", "paraC", "paraH(1)", "paraH(2)",
    "triple(R)", "triple(C)", "triple(H)", "triple(O)", "triple(paraC)", "triple(paraH(1))",
    "triple(paraH(2))", "triple(cross3)", "triple(cross7)", "triple(color)", "triple(cartan(0))",
    "cartan(0)", "cartan(1)", "cartan(2)", "cartan(4)", "cartan(8)",
    "clifford(1,2)", "clifford(2,2)", "clifford(2,3)", "clifford(4,2)", "clifford(4,4)", "clifford(4,5)",
    "clifford(8,2)", "clifford(8,9)",
)
# and those where it finds none: the idempotents of clifford(p,1) have
# coordinates in sqrt 2, such as (1/sqrt 2, 0, 1/2) on clifford(1,1), and the
# triples of Clifford and Cartan members are not radial, with spectra
# outside the four values
FALLBACK = (
    "clifford(1,1)", "clifford(2,1)", "clifford(4,1)", "clifford(8,1)",
    "triple(clifford(1,1))", "triple(clifford(1,2))", "triple(cartan(1))",
)
DEFINITE = EXACT + FALLBACK
SMALL = tuple(name for name in EXACT if construct(name).dim <= 14)
TRIPLE_PEIRCE = {"triple(O)": (7, 2), "triple(cross3)": (0, 5), "triple(color)": (1, 8)}


def float_block(alg) -> tuple:
    """(n1, n2, d, h(c, c), multiplicities) of the float search, rounded."""
    data = numeric.peirce(alg, seed=0)
    assert not data.scaled and data.residual <= 1e-10
    pairs = [(round(value, 6), count) for value, count in data.eigenvalues]
    return data.n1, data.n2, data.d, round(data.idempotent_norm, 9), pairs


def exact_block(summary: dict) -> tuple:
    assert summary["method"] == "exact-idempotent"
    assert summary["residual"] == 0.0 and summary["scaled"] is False
    pairs = [(value, count) for value, count in summary["multiplicities"]]
    assert all(value in (-1.0, -0.5, 0.5, 1.0) and count > 0 for value, count in pairs)
    assert pairs == sorted(pairs)
    return summary["n1"], summary["n2"], summary["d"], round(summary["idempotent_norm"], 9), pairs


def scaled_copy(alg, lam: Scalar, mu: Scalar):
    """alg with the product scaled by lam and the metric by mu."""
    return Algebra(
        alg.dim,
        [(i, j, k, lam * c) for i, j, k, c in alg.structure_entries()],
        metric=mat_scale(mu, alg.metric),
        commutative=True,
    )


def draw_signed_permutation(data, n):
    order = data.draw(st.permutations(range(n)), label="order")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), label="signs")
    return order, signs


@pytest.mark.parametrize("name", EXACT)
def test_exact_matches_the_float_search_on_the_catalog(name):
    alg = construct(name)
    summary = spectral_summary(alg)
    assert exact_block(summary) == float_block(alg)
    assert sum(count for _, count in summary["multiplicities"]) == alg.dim


@pytest.mark.parametrize("name", FALLBACK)
def test_the_float_search_decides_the_rest_of_the_catalog(name):
    alg = construct(name)
    assert _exact_peirce(alg) is None
    summary = spectral_summary(alg)
    data = numeric.peirce(alg, seed=0)
    assert summary["method"] == "float"
    assert (summary["n1"], summary["n2"], summary["d"], summary["scaled"]) == (data.n1, data.n2, data.d, data.scaled)
    # the radial ones have a spectrum in the four values all the same
    assert summary["scaled"] == (radial_hsiang_check(alg).radial is None)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_signed_permutation_copies_keep_the_exact_route(data):
    alg = construct(data.draw(st.sampled_from(EXACT), label="member"))
    order, signs = draw_signed_permutation(data, alg.dim)
    copy = isometric_copy(alg, order, signs, (0, 0))
    assert exact_block(spectral_summary(copy)) == exact_block(spectral_summary(alg)) == float_block(copy)


NONZERO = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)).filter(lambda t: t[0] or t[1])


@given(
    name=st.sampled_from(SMALL),
    lam=NONZERO,
    mu=st.fractions(min_value=Fraction(1, 4), max_value=4).filter(bool),
)
@settings(max_examples=30, deadline=None)
def test_rescaling_leaves_the_spectrum_and_moves_the_norm(name, lam, mu):
    a, b, den = lam
    lam, mu = Scalar(Fraction(a, den), Fraction(b, den)), Scalar(mu)
    alg = construct(name)
    copy = scaled_copy(alg, lam, mu)
    before, after = spectral_summary(alg), spectral_summary(copy)
    assert after["method"] == "exact-idempotent"
    for key in ("n1", "n2", "d", "multiplicities"):
        assert after[key] == before[key]
    # c' = c / lam, so h'(c', c') = mu h(c, c) / lam^2
    expected = float(mu / (lam * lam)) * before["idempotent_norm"]
    assert after["idempotent_norm"] == pytest.approx(expected, rel=1e-12)
    n1, n2, d, norm, pairs = float_block(copy)
    assert (n1, n2, d, pairs) == (after["n1"], after["n2"], after["d"], exact_block(after)[4])
    assert norm == pytest.approx(after["idempotent_norm"], abs=1e-9)  # float_block rounds it


def test_a_rotation_of_triple_c_falls_back_to_the_float_search():
    alg = construct("triple(C)")
    n = alg.dim
    rotated = isometric_copy(alg, range(n), [1] * n, (0, 1))
    assert _exact_peirce(rotated) is None
    report = full_report(rotated)
    spectral = report["spectral"]
    assert spectral["method"] == "float"
    assert (spectral["n1"], spectral["n2"], spectral["d"]) == (1, 2, 0)
    assert 0.0 <= spectral["residual"] <= 1e-10
    assert spectral["idempotent_norm"] == pytest.approx(0.75, rel=1e-9)
    assert full_report(alg)["spectral"]["method"] == "exact-idempotent"


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rotated_copies_say_which_route_decided(data):
    alg = construct(data.draw(st.sampled_from(SMALL), label="member"))
    n = alg.dim
    order, signs = draw_signed_permutation(data, n)
    pair = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
    copy = isometric_copy(alg, order, signs, pair)
    summary = spectral_summary(copy)
    assert summary["method"] == ("float" if _exact_peirce(copy) is None else "exact-idempotent")
    reference = spectral_summary(alg)
    for key in ("n1", "n2", "d"):
        assert summary[key] == reference[key]
    assert summary["idempotent_norm"] == pytest.approx(reference["idempotent_norm"], rel=1e-9)


def test_a_spectrum_outside_the_four_values_is_left_to_the_float_search():
    # triple(clifford(1,2)) is not radial; its idempotents have eigenvalues
    # +-1/4, so no candidate's four kernels fill the space
    alg = construct("triple(clifford(1,2))")
    assert _exact_peirce(alg) is None
    summary = spectral_summary(alg)
    assert summary["method"] == "float" and summary["scaled"]


@pytest.mark.parametrize("name", ["C", "H", "clifford(1,2)"])
def test_the_domain_is_the_float_search_domain(name):
    alg = construct(name)
    if name == "clifford(1,2)":
        alg = Algebra(alg.dim, alg.structure_entries(), metric=mat_scale(Scalar(-1), alg.metric), commutative=True)
    with pytest.raises(ValueError) as exact_error:
        spectral_summary(alg)
    with pytest.raises(ValueError) as float_error:
        numeric.peirce(alg)
    assert str(exact_error.value) == str(float_error.value)


def trace_identity(alg) -> tuple | None:
    """(n1, n2) by the trace identity, or None where it does not apply."""
    theta = radial_hsiang_check(alg).radial
    killing = killing_metrized_check(alg)
    if theta is None or not theta or not is_exact(alg) or not killing.passed or alg.involution is not None:
        return None
    ratio = Scalar(2) * scalar_parse(killing.details["ratio"]) / theta
    n2 = Scalar(alg.dim + 2) - ratio
    return (ratio - Scalar(1) - n2) / Scalar(3), n2


@pytest.mark.parametrize("name,expected", sorted(TRIPLE_PEIRCE.items()))
def test_trace_identity_on_the_table_columns(name, expected):
    alg = construct(name)
    summary = spectral_summary(alg)
    assert trace_identity(alg) == tuple(Scalar(v) for v in expected)
    assert (summary["n1"], summary["n2"]) == expected


@pytest.mark.parametrize("name", DEFINITE)
def test_trace_identity_on_the_catalog(name):
    # on both routes: clifford(1,1) is decided by the float search
    alg = construct(name)
    predicted = trace_identity(alg)
    if predicted is not None:
        summary = spectral_summary(alg)
        assert predicted == (Scalar(summary["n1"]), Scalar(summary["n2"]))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_trace_identity_agrees_with_the_spectral_block(data):
    alg = construct(data.draw(st.sampled_from(DEFINITE), label="member"))
    if data.draw(st.booleans(), label="permute"):
        alg = isometric_copy(alg, *draw_signed_permutation(data, alg.dim), (0, 0))
    lam = data.draw(st.sampled_from([1, 2, -3, Fraction(1, 2)]), label="lambda")
    mu = data.draw(st.sampled_from([1, 3, Fraction(2, 5)]), label="mu")
    alg = scaled_copy(alg, Scalar(lam), Scalar(mu))
    summary = spectral_summary(alg)
    predicted = trace_identity(alg)
    if predicted is not None:
        assert predicted == (Scalar(summary["n1"]), Scalar(summary["n2"]))
