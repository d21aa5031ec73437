"""Dictionary between metrized commutative algebras and cubic forms.

A metrized commutative algebra determines the cubic u(x) = h(x*x, x)/6,
and conversely a cubic form determines, under the identity metric, the
structure constants c(i, j, k) = third partials of u.

The quintic identities on u (the radial and nonradial Hsiang checks)
live in the analysis module, on the integer table.  No symbolic
differentiation happens here; everything is structure-constant
arithmetic.  ``poly_product`` and ``poly_pairing`` are the product and
the metric pairing of vectors of Scalar polynomials.
"""

from __future__ import annotations

from . import _zpoly
from .algebra import (
    Algebra,
    Report,
    _require_commutative_metrized,
    _scalarize,
)
from .polynomials import CubicForm, Polynomial
from .scalars import Scalar, ZERO

__all__ = [
    "algebra_from_cubic",
    "cubic_from_algebra",
    "cartan_munzner_check",
    "poly_product",
    "poly_pairing",
]


def cubic_from_algebra(alg: Algebra) -> CubicForm:
    """Cubic form u(x) = h(x*x, x)/6 of a commutative metrized algebra,
    expanded on the integer table."""
    _require_commutative_metrized(alg)
    forms = alg._integer_forms
    return CubicForm.from_polynomial(_zpoly.to_polynomial(forms.cubic, 6 * forms.denominator**2))


def algebra_from_cubic(u: Polynomial, name: str = "") -> Algebra:
    """Commutative algebra whose cubic form is u, relative to the identity metric.

    Structure constants are the third partials, c(i, j, k) = d_i d_j d_k u,
    so h(e_i * e_j, e_k) = d_i d_j d_k u and the result round-trips
    through cubic_from_algebra.
    """
    if not u.is_homogeneous(3):
        raise ValueError("cubic form must be homogeneous of degree 3")
    n = u.nvars
    if n < 1:
        raise ValueError("cubic form needs at least one variable")
    # c(i, j, .) as {k: third partial of u} for each sorted pair i <= j
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    for exps, coeff in u.terms.items():
        indices = []
        factorial = 1
        for var, e in enumerate(exps):
            indices.extend([var] * e)
            for m in range(2, e + 1):
                factorial *= m
        p, q, r = indices
        value = coeff * factorial
        for i, j, k in {(p, q, r), (p, r, q), (q, r, p)}:
            c.setdefault((i, j), {})[k] = value
    entries = [(i, j, k, column[k]) for (i, j), column in sorted(c.items()) for k in sorted(column)]
    return Algebra(n, entries, commutative=True, name=name)


def cartan_munzner_check(u: Polynomial, constant) -> Report:
    """Does |Du|^2 equal constant * (sum x_i^2)^2 identically?

    The residual polynomial is reported; a nonzero residual yields its
    leading monomial as witness.  The expansion runs in the integer
    kernel, so a per-variable degree above 15 raises RuntimeError.
    """
    constant = _scalarize(constant)
    ring = _zpoly.Ring(u.nvars)
    p, den = _zpoly.from_polynomial(u, ring)  # u = p / den
    (ca, cb), c_den = _zpoly.split(constant)
    x = ring.variables(0, u.nvars)
    grad2 = _zpoly.combine(ring, [((1, 0), q * q) for q in (_zpoly.partial(p, i) for i in range(u.nvars))])
    radius2 = _zpoly.combine(ring, [((1, 0), xi * xi) for xi in x])
    # c_den den^2 (|Du|^2 - constant |x|^4)
    scale = den * den
    residual = _zpoly.combine(ring, [((c_den, 0), grad2), ((-scale * ca, -scale * cb), radius2 * radius2)])
    passed = not residual
    details = {"constant": constant, "residual": str(_zpoly.to_polynomial(residual, c_den * scale))}
    witness = None if passed else ring.unpack(residual.leading())
    return Report("cartan-munzner", passed, details, witness)


# -- vectors of Scalar polynomials -------------------------------------------


def poly_product(alg: Algebra, p: list[Polynomial], q: list[Polynomial]) -> list[Polynomial]:
    """Product vector with polynomial entries, via the structure table."""
    nvars = p[0].nvars
    out: list[dict[tuple, Scalar]] = [{} for _ in range(alg.dim)]
    for (i, j), column in alg.table.items():
        pi, qj = p[i], q[j]
        if pi.is_zero or qj.is_zero:
            continue
        prod = pi * qj
        for k, coeff in column.items():
            acc = out[k]
            for exps, value in prod.terms.items():
                total = acc.get(exps, ZERO) + value * coeff
                if total:
                    acc[exps] = total
                else:
                    del acc[exps]
    result = []
    for acc in out:
        poly = Polynomial(nvars)
        poly.terms = acc
        result.append(poly)
    return result


def poly_pairing(alg: Algebra, p: list[Polynomial], q: list[Polynomial]) -> Polynomial:
    """Metric pairing h(p, q) with polynomial entries."""
    nvars = p[0].nvars
    total = Polynomial(nvars)
    n = alg.dim
    for k in range(n):
        if p[k].is_zero:
            continue
        combined = Polynomial(nvars)
        for l in range(n):
            g = alg.metric[k][l]
            if g and not q[l].is_zero:
                combined = combined + q[l] * g
        if not combined.is_zero:
            total = total + p[k] * combined
    return total
