from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coneforge.polynomials import (
    CubicForm,
    Polynomial,
    PolynomialParseError,
    divide_exact,
    format_polynomial,
    parse_polynomial,
)
from coneforge.scalars import ONE, Scalar


def S(a, b=0):
    return Scalar(Fraction(a), Fraction(b))


def P(text, nvars=None):
    return parse_polynomial(text, nvars)


class TestRingOps:
    def test_add_cancels(self):
        p = P("2*x1+1*x2", 2) + P("-2*x1+1*x2", 2)
        assert p == P("2*x2", 2)

    def test_mul_expands_binomial(self):
        square = P("1*x1+1*x2", 2) * P("1*x1+1*x2", 2)
        assert square == P("1*x1^2+2*x1*x2+1*x2^2", 2)

    def test_scalar_mul(self):
        assert 3 * P("1*x1", 1) == P("3*x1", 1)
        assert S(0, 1) * P("1*x1", 1) == P("1r3*x1", 1)

    def test_fraction_mul_both_ways(self):
        # Scalar is built from Fraction, so a Fraction scales like an int
        half = Fraction(1, 2)
        assert P("1*x1") * half == P("1/2*x1")
        assert half * P("1*x1") == P("1/2*x1")
        assert P("2*x1", 1) * Fraction(0) == Polynomial(1)

    def test_pow(self):
        cube = P("1*x1+1*x2", 2) ** 3
        assert cube.coefficient((2, 1)) == S(3)
        assert cube.coefficient((3, 0)) == ONE

    def test_partial(self):
        p = P("1*x1^3+3*x1*x2^2", 2)
        assert p.partial(0) == P("3*x1^2+3*x2^2", 2)
        assert p.partial(1) == P("6*x1*x2", 2)

    def test_evaluate(self):
        p = P("1*x1^2*x2-2*x2", 2)
        assert p.evaluate([S(3), S(2)]) == S(14)

    def test_degree_and_homogeneity(self):
        assert P("1*x1^2*x2", 2).degree() == 3
        assert P("1*x1^2*x2", 2).is_homogeneous(3)
        assert not P("1*x1^2*x2+1*x1", 2).is_homogeneous(3)
        assert Polynomial.zero(2).degree() == -1


class TestCubicForm:
    def test_accepts_homogeneous_cubic(self):
        CubicForm.from_polynomial(P("1*x1^3+1*x1*x2^2", 2))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            CubicForm.from_polynomial(P("1*x1^3+1*x1", 2))

    def test_zero_is_allowed(self):
        CubicForm(3)


class TestDivision:
    def test_exact_quotient(self):
        f = P("1*x1^2+2*x1*x2+1*x2^2", 2)
        g = P("1*x1+1*x2", 2)
        q, witness = divide_exact(f, g)
        assert witness is None
        assert q == g

    def test_non_divisible_reports_witness(self):
        f = P("1*x1^2+1*x2", 2)
        g = P("1*x1", 2)
        q, witness = divide_exact(f, g)
        assert q is None
        assert witness == (0, 1)

    def test_quintic_by_cubic(self):
        b = P("4/3*x1^2+4/3*x2^2", 2)
        c = P("1*x1^3+1*x1*x2^2", 2)
        q, witness = divide_exact(b * c, c)
        assert witness is None and q == b

    @given(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    )
    @settings(max_examples=40)
    def test_product_always_divides(self, a, b, c, d):
        f = Polynomial(2, {(1, 0): S(a), (0, 1): S(b)})
        g = Polynomial(2, {(2, 0): S(c), (0, 2): S(d), (1, 1): ONE})
        q, witness = divide_exact(f * g, g)
        assert witness is None and q == f


class TestTextRoundTrip:
    @pytest.mark.parametrize(
        "text,nvars,expect",
        [
            ("3*x1^2*x2", 2, Polynomial(2, {(2, 1): S(3)})),
            ("1*x1-1*x2", 2, Polynomial(2, {(1, 0): ONE, (0, 1): S(-1)})),
            ("1r3*x1+1/2", 1, Polynomial(1, {(0,): S(Fraction(1, 2)), (1,): S(0, 1)})),
            ("1/2+1r3*x1", 1, Polynomial(1, {(1,): S(Fraction(1, 2), 1)})),
            ("3/2-1r3*x1^2", 1, Polynomial(1, {(2,): S(Fraction(3, 2), -1)})),
            ("-x1*x2", 2, Polynomial(2, {(1, 1): S(-1)})),
            ("0", 3, Polynomial.zero(3)),
            ("5", 0, Polynomial(0, {(): S(5)})),
        ],
    )
    def test_parse(self, text, nvars, expect):
        assert parse_polynomial(text, nvars) == expect

    def test_format_orders_by_degree_then_lex(self):
        p = Polynomial(2, {(0, 1): ONE, (2, 0): S(2), (1, 1): S(-1)})
        assert format_polynomial(p) == "2*x1^2-1*x1*x2+1*x2"

    def test_format_zero(self):
        assert format_polynomial(Polynomial.zero(4)) == "0"

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1*", "*x1", "x0", "1**x1", "2 x1", "1*x1^x2", "1*x1^", "1..2*x1", "x1 x2",
            # a term has at most one sign
            "--x1", "2--2", "1 - - 2", "-+2", "x1+-x2", "x1 - -2", "+-1r3*x1",
            # a coefficient is the longest text that could be a scalar
            "2r3+1r3",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(bad, 2)
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "text, position, found",
        [
            ("x1 x2", 3, "'x'"),
            ("1*x1^", 4, "'^'"),
            ("2--2", 1, "'-'"),
            ("  *x1", 2, "'*'"),
            ("x1 + ", 3, "'+'"),
            (" ", 1, "the end of the text"),
        ],
    )
    def test_error_names_where_no_term_matches(self, text, position, found):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(text, 2)
        assert err.value.position == position
        assert str(err.value).startswith(f"no term matches {found} at position {position}:")

    @pytest.mark.parametrize(
        "text, expect",
        [
            # a leading '+' may open any term, the first included
            ("+x1", "1*x1"),
            ("+ 2", "2"),
            ("+1r3*x1 -x2", "1r3*x1-1*x2"),
            # whitespace between a sign and a Q(sqrt 3) coefficient: the
            # sign is still the leading sign of the coefficient's text
            ("- 2+1r3*x1", "-2+1r3*x1"),
            ("x2 -\t1/2-3r3*x1", "x2-1/2-3r3*x1"),
            # a coefficient is one token: a space ends it
            ("2 +1r3*x1", "1r3*x1+2"),
            ("2+1r3*x1", "2+1r3*x1"),
            ("2r3 +1r3", "3r3"),
        ],
    )
    def test_signs_and_whitespace(self, text, expect):
        assert parse_polynomial(text, 2) == parse_polynomial(expect, 2)

    def test_variable_beyond_declared_count(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("1*x5", 2)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.builds(
                S,
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
                st.fractions(min_value=-9, max_value=9, max_denominator=7),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=80)
    def test_roundtrip(self, terms):
        p = Polynomial(3, terms)
        assert parse_polynomial(format_polynomial(p), 3) == p


# -- the documented grammar, drawn piece by piece -------------------------

SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def unsigned_rational(draw):
    """(text, value): digits, or digits/digits with a nonzero denominator."""
    numerator = draw(st.integers(0, 40))
    if draw(st.booleans()):
        denominator = draw(st.integers(1, 9))
        return f"{numerator}/{denominator}", Fraction(numerator, denominator)
    return str(numerator), Fraction(numerator)


@st.composite
def coefficient(draw, sign):
    """(text, value) of an unsigned coefficient whose leading part takes
    the term's sign: a rational, a multiple of r3, or a rational with a
    signed r3 part."""
    head, a = draw(unsigned_rational())
    a = -a if sign == "-" else a
    form = draw(st.sampled_from(["rational", "r3", "tail"]))
    if form == "rational":
        return head, S(a)
    if form == "r3":
        return f"{head}r3", S(0, a)
    tail_sign = draw(st.sampled_from("+-"))
    tail, b = draw(unsigned_rational())
    return f"{head}{tail_sign}{tail}r3", S(a, b if tail_sign == "+" else -b)


@st.composite
def term(draw, first):
    """(text, Polynomial in 3 variables) of one term; every term but the
    first carries a sign, and an omitted coefficient needs a factor.  A
    term of a coefficient alone ends with a space, since a coefficient is
    the longest text that could be a scalar: ``2+1r3*x1`` is one term."""
    sign = draw(st.sampled_from(["", "+", "-"] if first else ["+", "-"]))
    factors = draw(st.lists(st.tuples(st.integers(1, 3), st.none() | st.integers(0, 3)), max_size=3))
    if factors and draw(st.booleans()):
        pieces, value = [], S(-1 if sign == "-" else 1)
    else:
        text, value = draw(coefficient(sign))
        pieces = [text]
    expect = Polynomial.constant(3, value)
    for index, exponent in factors:
        power = "" if exponent is None else f"{draw(SPACE)}^{exponent}"
        pieces.append(f"x{index}{power}")
        expect = expect * Polynomial.variable(3, index - 1) ** (1 if exponent is None else exponent)
    text = "".join(pieces[:1] + [f"{draw(SPACE)}*{draw(SPACE)}{piece}" for piece in pieces[1:]])
    end = draw(SPACE) if factors else draw(SPACE.filter(bool))
    return f"{sign}{draw(SPACE)}{text}{end}", expect


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_grammar_text_parses_term_by_term(data):
    drawn = [data.draw(term(first=True))]
    drawn += data.draw(st.lists(term(first=False), max_size=4))
    text = data.draw(SPACE) + "".join(piece for piece, _ in drawn)
    expect = Polynomial.zero(3)
    for _, value in drawn:
        expect = expect + value
    assert parse_polynomial(text, 3) == expect
