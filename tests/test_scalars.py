from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coneforge.algebra import Algebra, Subspace
from coneforge.scalars import (
    ONE,
    SQRT3,
    Scalar,
    ScalarParseError,
    rational_sqrt,
    scalar_format,
    scalar_parse,
)
from oracles import general_product


def S(a, b=0):
    return Scalar(Fraction(a), Fraction(b))


class TestArithmetic:
    def test_addition_mixes_components(self):
        x = S(1, 2)
        y = S(Fraction(1, 2), -1)
        assert x + y == S(Fraction(3, 2), 1)

    def test_product_uses_sqrt3_squared_is_3(self):
        assert (ONE + SQRT3) * (ONE - SQRT3) == S(-2)
        assert SQRT3 * SQRT3 == S(3)

    def test_inverse_of_one_plus_sqrt3(self):
        x = ONE + SQRT3
        assert x.inverse() == S(Fraction(-1, 2), Fraction(1, 2))
        assert x * x.inverse() == ONE

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE / S(0)
        with pytest.raises(ZeroDivisionError):
            S(0).inverse()

    def test_integer_coercion(self):
        assert 2 * SQRT3 == S(0, 2)
        assert (1 + SQRT3) - 1 == SQRT3
        assert 1 / (ONE + SQRT3) == S(Fraction(-1, 2), Fraction(1, 2))

    def test_pow(self):
        assert (ONE + SQRT3) ** 2 == S(4, 2)
        assert (ONE + SQRT3) ** 0 == ONE
        assert (ONE + SQRT3) ** -1 == (ONE + SQRT3).inverse()


class TestOrder:
    def test_signs_on_mixed_components(self):
        # 2 - sqrt(3) > 0 since 4 > 3, while 1 - sqrt(3) < 0
        assert S(2, -1).sign() == 1
        assert S(1, -1).sign() == -1
        assert S(-2, 1).sign() == -1
        assert S(-1, 1).sign() == 1
        assert S(0).sign() == 0

    def test_comparisons(self):
        assert S(0, 1) > S(Fraction(3, 2))  # sqrt(3) > 3/2
        assert S(0, 1) < S(Fraction(7, 4))  # sqrt(3) < 7/4
        assert S(2, -1) < S(1) < S(5, -2) < S(0, 1) < S(2)

    @given(
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.integers(1, 9),
    )
    def test_sign_matches_float(self, a, b, den):
        x = S(Fraction(a, den), Fraction(b, den))
        value = float(x)
        if abs(value) > 1e-9:
            assert x.sign() == (1 if value > 0 else -1)


scalars = st.builds(
    S,
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)


class TestFieldAxioms:
    @given(scalars, scalars, scalars)
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(scalars, scalars, scalars)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(scalars, scalars)
    def test_commutative(self, x, y):
        assert x * y == y * x
        assert x + y == y + x

    @given(scalars)
    def test_inverse_roundtrip(self, x):
        if x:
            assert x * x.inverse() == ONE
            assert (ONE / x) * x == ONE


# the operands of the product's fast paths: ints, bools, Fractions, and
# rational and irrational Scalars, zeros included
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
operands = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    fractions,
    st.builds(S, fractions),
    st.builds(S, fractions, fractions),
)


class TestProductFastPaths:
    @given(scalar=st.one_of(st.builds(S, fractions), scalars), other=operands)
    def test_matches_the_general_formula_in_both_orders(self, scalar, other):
        expected = general_product(scalar, other)
        for product in (scalar * other, other * scalar):
            assert isinstance(product, Scalar)
            assert product == expected and hash(product) == hash(expected)
            assert type(product.a) is Fraction is type(product.b)

    def test_zero_times_an_int_is_zero(self):
        zero = S(0)
        for product in (zero * 3, -2 * zero, zero * True):
            assert product == 0 and hash(product) == hash(0)
            assert type(product.a) is Fraction is type(product.b)


class TestRationalComponents:
    # Fraction(0.1) would be exact in binary, 3602879701896397/2^55, and
    # Fraction("1/3") would parse text: neither belongs in the exact layer
    @given(value=st.floats() | st.decimals(allow_nan=False) | st.text(max_size=8), slot=st.booleans())
    def test_floats_decimals_and_strings_are_refused(self, value, slot):
        with pytest.raises(TypeError, match="rational"):
            Scalar(1, value) if slot else Scalar(value)

    def test_a_float_entry_of_a_table_or_subspace_is_refused(self):
        with pytest.raises(TypeError, match="rational"):
            Algebra(1, [(0, 0, 0, 0.1)], commutative=True)
        with pytest.raises(TypeError, match="rational"):
            Subspace(2, [[0.5, 1]])

    @given(a=fractions, b=st.integers(-50, 50) | fractions)
    def test_ints_and_fractions_are_kept_exactly(self, a, b):
        x = Scalar(a, b)
        assert (x.a, x.b) == (a, b) and type(x.a) is Fraction is type(x.b)
        assert Scalar(True) == ONE


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("3/2+1r3", S(Fraction(3, 2), 1)),
            ("-1/27", S(Fraction(-1, 27))),
            ("0-1/2r3", S(0, Fraction(-1, 2))),
            ("1r3", S(0, 1)),
            ("-1r3", S(0, -1)),
            ("+2", S(2)),
            ("0", S(0)),
            ("7/3-2/5r3", S(Fraction(7, 3), Fraction(-2, 5))),
            ("0/5", S(0)),
            ("1-0/2r3", S(1)),
        ],
    )
    def test_parse_examples(self, text, expect):
        assert scalar_parse(text) == expect

    @pytest.mark.parametrize(
        "x,text",
        [
            (S(Fraction(3, 2), 1), "3/2+1r3"),
            (S(Fraction(-1, 27)), "-1/27"),
            (S(0, Fraction(-1, 2)), "-1/2r3"),
            (S(0), "0"),
            (S(-1, Fraction(1, 2)), "-1+1/2r3"),
            (S(2, -3), "2-3r3"),
        ],
    )
    def test_format_examples(self, x, text):
        assert scalar_format(x) == text

    @pytest.mark.parametrize(
        "bad", ["", "r3", "1//2", "1/-2", "1.5", "3/2+", "1r3+1r3", "x", "1 + 1r3", "--1"]
    )
    def test_malformed_rejected_with_position(self, bad):
        with pytest.raises(ScalarParseError) as err:
            scalar_parse(bad)
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "bad, position",
        [("1/0", 2), ("2+1/0r3", 4), ("1/0r3", 2), ("-1/0r3", 3), (" -3/00 ", 3), ("1/2-5/0r3", 6)],
    )
    def test_zero_denominator_rejected_at_its_position(self, bad, position):
        with pytest.raises(ScalarParseError, match="zero denominator") as err:
            scalar_parse(bad)
        assert err.value.position == position

    @given(scalars)
    def test_roundtrip(self, x):
        assert scalar_parse(scalar_format(x)) == x


class TestSqrt:
    def test_rational_square(self):
        assert S(Fraction(9, 4)).sqrt() == S(Fraction(3, 2))

    def test_three_times_square(self):
        # sqrt(27) = 3 r3 and sqrt(1/27) = (1/9) r3
        assert S(27).sqrt() == S(0, 3)
        assert S(Fraction(1, 27)).sqrt() == S(0, Fraction(1, 9))

    def test_mixed_component_square(self):
        # (1/2 + r3)^2 = 13/4 + 1 r3
        x = S(Fraction(13, 4), 1)
        root = x.sqrt()
        assert root == S(Fraction(1, 2), 1)
        assert root * root == x

    def test_no_root_cases(self):
        assert S(2).sqrt() is None  # sqrt(2) not in the field
        assert S(-1).sqrt() is None
        assert S(0, 1).sqrt() is None  # sqrt(sqrt(3)) not in the field

    def test_zero(self):
        assert S(0).sqrt() == S(0)

    @given(scalars)
    def test_square_then_sqrt(self, x):
        sq = x * x
        root = sq.sqrt()
        assert root is not None
        assert root * root == sq
        assert root.sign() >= 0

    def test_rational_sqrt_function(self):
        assert rational_sqrt(Fraction(49, 9)) == Fraction(7, 3)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-4)) is None
