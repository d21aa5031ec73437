"""Sparse exact polynomials over Q(sqrt 3).

A polynomial keeps a dict from exponent tuples (one slot per variable)
to nonzero Scalar coefficients.  Variables are 0-indexed internally and
rendered 1-based in text, so the tuple (2, 0, 1) with coefficient 3 is
the term ``3*x1^2*x3``.

Text form: a term is an optional sign, then a Q(sqrt 3) coefficient and
'*'-joined factors ``x<i>[^<e>]``, or the factors alone; every term after
the first starts with its sign, which is the leading sign of its
coefficient's text.  Whitespace between tokens never changes the value.
A coefficient is the longest text that could be a scalar, so ``2+1r3*x1``
is (2 + sqrt 3)*x1, while ``2 +1r3*x1`` is 2 + sqrt(3)*x1.
``format_polynomial`` writes each coefficient and joins the terms with
'+' where a coefficient has no leading '-', e.g. ``3*x1^2*x2-1/2r3*x2^3``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import ONE, SCALAR_TOKEN, Scalar, ScalarParseError, ZERO, scalar_format, scalar_parse

__all__ = [
    "Polynomial",
    "CubicForm",
    "PolynomialParseError",
    "parse_polynomial",
    "format_polynomial",
    "divide_exact",
]


class PolynomialParseError(ValueError):
    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple, Scalar] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exps)] = coeff

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        value = value if isinstance(value, Scalar) else Scalar(value)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): ONE})

    def copy(self) -> "Polynomial":
        p = Polynomial(self.nvars)
        p.terms = dict(self.terms)
        return p

    # -- ring operations --------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        p = Polynomial(self.nvars)
        p.terms = out
        return p

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        p = Polynomial(self.nvars)
        p.terms = {exps: -coeff for exps, coeff in self.terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = other if isinstance(other, Scalar) else Scalar(other)
            if not other:
                return Polynomial(self.nvars)
            p = Polynomial(self.nvars)
            p.terms = {exps: coeff * other for exps, coeff in self.terms.items()}
            return p
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[tuple, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(exps)
                if acc is None:
                    out[exps] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[exps] = acc
                    else:
                        del out[exps]
        p = Polynomial(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus and queries ---------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        out: dict[tuple, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                lowered = list(exps)
                lowered[index] = e - 1
                out[tuple(lowered)] = coeff * e
        p = Polynomial(self.nvars)
        p.terms = out
        return p

    def evaluate(self, point: Sequence) -> Scalar:
        total = ZERO
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    x = x if isinstance(x, Scalar) else Scalar(x)
                    value = value * x**e
            total = total + value
        return total

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(exps) == d for exps in self.terms)

    def coefficient(self, exps: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(exps), ZERO)

    def leading(self) -> tuple[tuple, Scalar]:
        """Leading term under the graded lexicographic order."""
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


class CubicForm(Polynomial):
    """Polynomial constrained to be homogeneous of degree three."""

    def __init__(self, nvars: int, terms: dict[tuple, Scalar] | None = None):
        super().__init__(nvars, terms)
        if not self.is_homogeneous(3):
            bad = next(e for e in self.terms if sum(e) != 3)
            raise ValueError(f"term of degree {sum(bad)} in a cubic form: {bad}")

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "CubicForm":
        return cls(p.nvars, p.terms)


def divide_exact(dividend: Polynomial, divisor: Polynomial):
    """Exact division test: returns (quotient, None) when divisor divides
    dividend, else (None, exps) with a witness monomial of the remainder.

    Long division under the graded lexicographic order; for an exact
    multiple the leading term of every partial remainder is divisible by
    the leading term of the divisor, so the first failure certifies a
    nonzero remainder.
    """
    if dividend.nvars != divisor.nvars:
        raise ValueError("mixed variable counts")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_exps, lead_coeff = divisor.leading()
    remainder = dividend.copy()
    quotient = Polynomial(dividend.nvars)
    while remainder.terms:
        r_exps, r_coeff = remainder.leading()
        q_exps = tuple(a - b for a, b in zip(r_exps, lead_exps))
        if any(e < 0 for e in q_exps):
            return None, r_exps
        q_coeff = r_coeff / lead_coeff
        quotient.terms[q_exps] = quotient.terms.get(q_exps, ZERO) + q_coeff
        piece = Polynomial(dividend.nvars, {q_exps: q_coeff})
        remainder = remainder - piece * divisor
    quotient.terms = {e: c for e, c in quotient.terms.items() if c}
    return quotient, None


# -- text form ------------------------------------------------------------

_FACTOR = re.compile(r"x(\d+)(?:\s*\^(\d+))?")
# a term of the text form; its coefficient is a SCALAR_TOKEN whose sign is the term's
_TERM = re.compile(
    rf"(?P<sign>[+-]?)\s*(?P<body>(?:(?P<coeff>(?![+-]){SCALAR_TOKEN})|{_FACTOR.pattern})"
    rf"(?:\s*\*\s*{_FACTOR.pattern})*)\s*"
)


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = scalar_format(p.terms[exps])
        factors = [coeff]
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        text = "*".join(factors)
        if pieces and not text.startswith("-"):
            pieces.append("+")
        pieces.append(text)
    return "".join(pieces)


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse the text form; a PolynomialParseError names the position
    where no term matches and the character found there."""
    terms: list[tuple[dict[int, int], Scalar]] = []
    first = pos = len(text) - len(text.lstrip())
    while pos < len(text) or pos == first:  # an empty text is one empty term
        m = _TERM.match(text, pos)
        if m is None or (pos > first and not m["sign"]):
            found = repr(text[pos]) if pos < len(text) else "the end of the text"
            raise PolynomialParseError(f"no term matches {found}", text, pos)
        try:
            coeff = scalar_parse(m["sign"] + (m["coeff"] or "1"))
        except ScalarParseError as err:
            raise PolynomialParseError(f"bad coefficient ({err})", text, m.start("coeff")) from None
        exps: dict[int, int] = {}
        for factor in _FACTOR.finditer(m["body"]):
            index = int(factor[1]) - 1
            if index < 0:
                raise PolynomialParseError("variable indices start at x1", text, m.start("body") + factor.start())
            exps[index] = exps.get(index, 0) + int(factor[2] or 1)
        terms.append((exps, coeff))
        pos = m.end()

    max_var = max((i + 1 for exps, _ in terms for i in exps), default=0)
    nvars = max_var if nvars is None else nvars
    if max_var > nvars:
        raise PolynomialParseError(f"variable x{max_var} exceeds declared count {nvars}", text, len(text))
    sums: dict[tuple, Scalar] = {}
    for exps, coeff in terms:
        key = tuple(exps.get(i, 0) for i in range(nvars))
        sums[key] = sums.get(key, ZERO) + coeff
    return Polynomial(nvars, sums)  # which drops the terms that cancel
