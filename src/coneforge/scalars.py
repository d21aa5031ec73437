"""Exact arithmetic in the real quadratic field Q(sqrt 3).

Every quantity the exact layer touches is a ``Scalar``: a pair of
rationals (a, b) standing for a + b*sqrt(3).  The field is closed under
the four arithmetic operations and is totally ordered, with the order
decided exactly by sign analysis (no floating point).

Text form
---------
``scalar_format`` emits, and ``scalar_parse`` accepts, the grammar

    scalar  :=  rat | rat sign urat "r3" | sign? urat "r3"
    rat     :=  sign? digits ("/" digits)?
    urat    :=  digits ("/" digits)?

so ``3/2+1r3`` is 3/2 + sqrt(3), ``-1/27`` is rational, and ``0-1/2r3``
is -(1/2)*sqrt(3).  Denominators are written positive, and a zero
denominator is malformed text; fractions are kept reduced by
``fractions.Fraction``.  ``scalar_parse(scalar_format(x))``
returns ``x`` for every ``x``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational
from typing import Union

__all__ = [
    "Scalar",
    "ScalarParseError",
    "SQRT3",
    "ZERO",
    "ONE",
    "scalar_parse",
    "scalar_format",
    "rational_sqrt",
]

RationalLike = Union[int, Fraction]


class ScalarParseError(ValueError):
    """Malformed scalar text; ``position`` is the offset of the defect."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


def _rational(x) -> Fraction:
    """Fraction(x) for an int or another numbers.Rational.  A float, a
    Decimal or a str, which Fraction would round or parse, is refused."""
    if type(x) is int or isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"Scalar components must be rational, not {type(x).__name__}")


class Scalar:
    """Element a + b*sqrt(3) with exact rational components."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = a if type(a) is Fraction else _rational(a)
        self.b = b if type(b) is Fraction else _rational(b)

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        # an int factor or a rational product skips the sqrt 3 terms
        a, b = self.a, self.b
        if isinstance(other, int):
            return Scalar(a * other, b * other if b else b) if a or b else self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not b and not o.b:
            return Scalar(a * o.a, b)
        return Scalar(a * o.a + 3 * b * o.b, a * o.b + b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Scalar":
        # 1/(a + b r3) = (a - b r3)/(a^2 - 3 b^2); the norm vanishes
        # only at zero because 3 is not a rational square.
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.a / norm, -self.b / norm)

    # -- predicates and order ------------------------------------------

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(3): one of -1, 0, 1."""
        a, b = self.a, self.b
        if not b:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 3 b^2, the larger magnitude wins
        if a > 0:  # b < 0
            return 1 if a * a > 3 * b * b else -1
        return 1 if 3 * b * b > a * a else -1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(3.0)

    def sqrt(self) -> "Scalar | None":
        """Exact nonnegative square root within the field, or None.

        Solves (p + q r3)^2 = a + b r3 over the rationals: with b = 0
        the root is rational or a pure r3 multiple; with b != 0 the
        component q satisfies 6 q^2 = a -+ sqrt(a^2 - 3 b^2), which
        requires the inner discriminant to be a rational square.
        """
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if not b:
            r = rational_sqrt(a)
            if r is not None:
                return Scalar(r)
            r = rational_sqrt(a / 3)
            if r is not None:
                return Scalar(0, r)
            return None
        disc = rational_sqrt(a * a - 3 * b * b)
        if disc is None:
            return None
        for inner in (a - disc, a + disc):
            q = rational_sqrt(inner / 6)
            if q is not None and q != 0:
                root = Scalar(b / (2 * q), q)
                if root.sign() < 0:
                    root = -root
                if root * root == self:
                    return root
        return None

    # -- text ----------------------------------------------------------

    def __str__(self):
        return scalar_format(self)

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})"


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when irrational."""
    value = Fraction(value)
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


SQRT3 = Scalar(0, 1)
ZERO = Scalar(0)
ONE = Scalar(1)

# Anchored forms of the grammar: "rat" optionally followed by "+/- urat r3",
# and the pure "sign? urat r3" alternative.
_FORM_RAT_TAIL = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)r3)?$")
_FORM_PURE_R3 = re.compile(r"^([+-]?)(\d+(?:/\d+)?)r3$")

# Longest prefix that could be a scalar: scalar_parse locates its errors
# by it, and a polynomial term reads its coefficient text by it.
SCALAR_TOKEN = r"[+-]?\d+(?:/\d+)?(?:r3)?(?:[+-]\d+(?:/\d+)?r3)?"


def _parse_rat(match: re.Match, group: int) -> Fraction:
    """The rational of one group of a grammar match, shaped sign? digits
    (/ digits)?; a zero denominator is malformed input, reported at its
    position in the matched text."""
    numerator, slash, denominator = match.group(group).partition("/")
    if not slash:
        return Fraction(int(numerator))
    if not int(denominator):
        raise ScalarParseError("zero denominator", match.string, match.start(group) + len(numerator) + 1)
    return Fraction(int(numerator), int(denominator))


def scalar_parse(text: str) -> Scalar:
    """Parse the scalar grammar; raise ScalarParseError on malformed input."""
    if not isinstance(text, str):
        raise ScalarParseError("scalar text must be a string", repr(text), 0)
    stripped = text.strip()
    if not stripped:
        raise ScalarParseError("empty scalar", text, 0)
    m = _FORM_RAT_TAIL.match(stripped)
    if m:
        a = _parse_rat(m, 1)
        if m.group(2) is None:
            return Scalar(a)
        b = _parse_rat(m, 3)
        if m.group(2) == "-":
            b = -b
        return Scalar(a, b)
    m = _FORM_PURE_R3.match(stripped)
    if m:
        value = _parse_rat(m, 2)
        if m.group(1) == "-":
            value = -value
        return Scalar(0, value)
    # locate the first offending character for the error message
    probe = re.match(SCALAR_TOKEN, stripped)
    position = probe.end() if probe else 0
    raise ScalarParseError("not a scalar", stripped, position)


def _format_rat(value: Fraction) -> str:
    return str(value)


def scalar_format(x: Scalar) -> str:
    """Canonical text for a scalar; inverse of scalar_parse."""
    if not x.b:
        return _format_rat(x.a)
    if not x.a:
        head = "-" if x.b < 0 else ""
        return f"{head}{_format_rat(abs(x.b))}r3"
    sign = "-" if x.b < 0 else "+"
    return f"{_format_rat(x.a)}{sign}{_format_rat(abs(x.b))}r3"
