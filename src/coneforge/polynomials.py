"""Sparse exact polynomials over Q(sqrt 3).

A polynomial keeps a dict from exponent tuples (one slot per variable)
to nonzero Scalar coefficients.  Variables are 0-indexed internally and
rendered 1-based in text, so the tuple (2, 0, 1) with coefficient 3 is
the term ``3*x1^2*x3``.

Text form: terms are joined with '+', except that a term whose
coefficient renders with a leading '-' is concatenated directly, e.g.
``3*x1^2*x2-1/2r3*x2^3``.  ``parse_polynomial`` also accepts a few
relaxed spellings (bare variables, omitted coefficient) but
``format_polynomial`` always writes the canonical form above.
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

_TOKEN = re.compile(
    rf"(?P<scalar>{SCALAR_TOKEN})|(?P<var>x(?P<vidx>\d+))|\^(?P<power>\d+)|(?P<star>\*)|(?P<plus>\+)|(?P<minus>-)"
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
    """Parse polynomial text; raises PolynomialParseError with a position."""
    terms: list[tuple[dict[int, int], Scalar]] = []
    coeff: Scalar | None = None
    exps: dict[int, int] | None = None
    sign = 1
    state = "term_start"  # term_start | after_coeff | after_star | after_var
    last_var: int | None = None
    max_var = 0
    pos = 0
    n = len(text)

    def fail(message: str, at: int):
        raise PolynomialParseError(message, text, at)

    def flush(at: int):
        nonlocal coeff, exps, sign
        if coeff is None and exps is None:
            fail("empty term", at)
        c = coeff if coeff is not None else ONE
        if sign < 0:
            c = -c
        terms.append((exps or {}, c))
        coeff, exps, sign = None, None, 1

    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            fail("unexpected character", pos)
        kind = m.lastgroup
        if m.group("scalar"):
            piece = m.group("scalar")
            if state in ("after_coeff", "after_var"):
                # a signed coefficient starts the next term
                if piece[0] not in "+-":
                    fail("missing operator before term", pos)
                flush(pos)
                state = "term_start"
            if state == "after_star":
                fail("coefficient may only open a term", pos)
            try:
                coeff = scalar_parse(piece)
            except ScalarParseError as err:
                fail(f"bad coefficient ({err})", pos)
            state = "after_coeff"
        elif kind == "vidx" or m.group("var"):
            index = int(m.group("vidx"))
            if index < 1:
                fail("variable indices start at x1", pos)
            if state == "after_coeff" and m.start() == pos:
                fail("missing '*' between coefficient and variable", pos)
            if state in ("after_coeff", "after_var"):
                # canonical text never reaches here without an operator
                fail("missing operator before variable", pos)
            if exps is None:
                exps = {}
            exps[index - 1] = exps.get(index - 1, 0) + 1
            last_var = index - 1
            max_var = max(max_var, index)
            state = "after_var"
        elif m.group("power"):
            if state != "after_var" or last_var is None:
                fail("exponent without a variable", pos)
            e = int(m.group("power"))
            exps[last_var] += e - 1
            if exps[last_var] == 0:
                del exps[last_var]
            last_var = None
            state = "after_var"
        elif m.group("star"):
            if state not in ("after_coeff", "after_var"):
                fail("misplaced '*'", pos)
            state = "after_star"
        elif m.group("plus"):
            if state not in ("after_coeff", "after_var"):
                fail("misplaced '+'", pos)
            flush(pos)
            state = "term_start"
        elif m.group("minus"):
            if state in ("after_coeff", "after_var"):
                flush(pos)
                sign = -sign
                state = "term_start"
            elif state == "term_start":
                sign = -sign
            else:
                fail("misplaced '-'", pos)
        pos = m.end()

    if state == "after_star":
        fail("dangling '*'", n)
    if state == "term_start" and (coeff is not None or exps is not None or sign < 0):
        fail("dangling sign", n)
    flush(n)

    if nvars is None:
        nvars = max_var
    elif max_var > nvars:
        fail(f"variable x{max_var} exceeds declared count {nvars}", n)
    out = Polynomial(nvars)
    for exp_map, c in terms:
        key = tuple(exp_map.get(i, 0) for i in range(nvars))
        acc = out.terms.get(key)
        total = c if acc is None else acc + c
        if total:
            out.terms[key] = total
        elif acc is not None:
            del out.terms[key]
    return out
