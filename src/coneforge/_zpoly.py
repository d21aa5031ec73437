"""Integer kernel for the symbolic certificates and the point checks.

The certificates in ``analysis`` expand an identity in a polynomial ring
and compare it with zero coefficient by coefficient.  They run here,
over Z[sqrt 3], rather than through ``Polynomial`` over ``Scalar``,
whose arithmetic goes through ``fractions.Fraction``.  So do the checks
at a point (the composition witness walk, the kernel ranks, the theta
probe and the pseudocomposition confirmation): they run at integer
points, D L(x) is read off the integer table as sparse columns, and
ranks are fraction-free.

Representation.  A ``ZPoly`` is a pair of dicts ``a`` and ``b`` from
packed monomials to nonzero ints, standing for a + sqrt(3) b, so a
rational algebra never touches ``b``.  A monomial of a ``Ring`` in n
variables is one int: the total degree in the top field, then the
exponents of variables 0 .. n-1 in 4-bit fields, variable 0 most
significant.  A monomial product is an int addition, and int order is
the graded lexicographic order of ``Polynomial.leading``, so a leading
monomial is a ``max`` and witness monomials match the ``Polynomial``
route.  A per-variable degree above 15 would carry into the next
field; packing or multiplying into one raises RuntimeError instead.

Denominators.  ``IntegerForms`` clears one common denominator D from
the structure table, the metric and the involution of an algebra, so
x*x is D times an integer polynomial vector and every product or
pairing carries a known power of D, which the callers track.  D comes
back only in the outputs read off a certificate.  Division is
fraction-free in the manner of Bareiss: the remainder is scaled by an
integer only when the next quotient term would not be integral, so it
stays a multiple of the remainder over the field and stops at the same
stuck monomial, and the rank cross-multiplies rows and divides each by
its integer content.  The packed monomials and the in-place division follow
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors" (CASC 2007).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property

from .polynomials import Polynomial
from .scalars import Scalar

FIELD_BITS = 4
MAX_EXPONENT = (1 << FIELD_BITS) - 1

Coeff = tuple[int, int]  # (a, b) for a + b sqrt 3


class Ring:
    """Packing of exponent tuples in n variables into ints."""

    __slots__ = ("nvars", "top", "_shifts", "_boundary")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.top = FIELD_BITS * nvars
        self._shifts = [FIELD_BITS * (nvars - 1 - i) for i in range(nvars)]
        # lowest bit of every field above variable n-1: a borrow across a
        # field boundary shows up there when one monomial does not divide another
        self._boundary = sum(1 << (FIELD_BITS * i) for i in range(1, nvars + 1))

    def pack(self, exps) -> int:
        if any(e > MAX_EXPONENT for e in exps):
            raise RuntimeError(f"exponent above {MAX_EXPONENT} in the integer kernel: {tuple(exps)}")
        mono = sum(exps) << self.top
        for shift, e in zip(self._shifts, exps):
            mono |= e << shift
        return mono

    def unpack(self, mono: int) -> tuple[int, ...]:
        return tuple((mono >> shift) & MAX_EXPONENT for shift in self._shifts)

    def variables(self, start: int, count: int) -> list["ZPoly"]:
        """The variables start .. start + count - 1 as polynomials."""
        degree_one = 1 << self.top
        return [ZPoly(self, {degree_one | (1 << shift): 1}) for shift in self._shifts[start : start + count]]

    def degree(self, mono: int) -> int:
        return mono >> self.top

    def divides(self, lead: int, mono: int) -> bool:
        return mono >= lead and not ((mono ^ lead ^ (mono - lead)) & self._boundary)

    def _check_product(self, p: "ZPoly", q: "ZPoly") -> None:
        for shift in self._shifts:
            top_p = max(m >> shift & MAX_EXPONENT for m in p.monomials())
            top_q = max(m >> shift & MAX_EXPONENT for m in q.monomials())
            if top_p + top_q > MAX_EXPONENT:
                raise RuntimeError(
                    f"per-variable degree {top_p + top_q} above {MAX_EXPONENT} in the integer kernel"
                )


class ZPoly:
    """Polynomial a + sqrt(3) b over Z[sqrt 3] on packed monomials."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: Ring, a: dict[int, int] | None = None, b: dict[int, int] | None = None):
        self.ring = ring
        self.a = a if a is not None else {}
        self.b = b if b is not None else {}

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def monomials(self):
        return self.a.keys() | self.b.keys()

    def leading(self) -> int:
        """Leading monomial under the graded lexicographic order."""
        return max(self.a.keys() | self.b.keys()) if self.b else max(self.a)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self.ring.degree(self.leading()) if self else -1

    def coefficient(self, mono: int) -> Coeff:
        return self.a.get(mono, 0), self.b.get(mono, 0)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return combine(self.ring, [((1, 0), self), ((-1, 0), other)])

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        acc = ({}, {})
        _mul_into(acc, self, other)
        return _finish(self.ring, acc)

    def scaled(self, c: Coeff) -> "ZPoly":
        return combine(self.ring, [(c, self)])


def _axpy(dst: dict, src: dict, factor: int) -> None:
    get = dst.get
    for m, v in src.items():
        dst[m] = get(m, 0) + factor * v


def _add_scaled(acc: tuple[dict, dict], p: ZPoly, c: Coeff) -> None:
    """acc += c p."""
    ca, cb = c
    if ca:
        _axpy(acc[0], p.a, ca)
        _axpy(acc[1], p.b, ca)
    if cb:
        _axpy(acc[0], p.b, 3 * cb)
        _axpy(acc[1], p.a, cb)


def _convolve(dst: dict, p: dict, q: dict, factor: int) -> None:
    get = dst.get
    for m1, c1 in p.items():
        c1 *= factor
        for m2, c2 in q.items():
            m = m1 + m2
            dst[m] = get(m, 0) + c1 * c2


def _mul_into(acc: tuple[dict, dict], p: ZPoly, q: ZPoly) -> None:
    """acc += p q, refusing a per-variable degree above the field width."""
    if not p or not q:
        return
    ring = p.ring
    if ring.degree(p.leading()) + ring.degree(q.leading()) > MAX_EXPONENT:
        ring._check_product(p, q)
    _convolve(acc[0], p.a, q.a, 1)
    if p.b and q.b:
        _convolve(acc[0], p.b, q.b, 3)
    if q.b:
        _convolve(acc[1], p.a, q.b, 1)
    if p.b:
        _convolve(acc[1], p.b, q.a, 1)


def _dot_into(acc: tuple[dict, dict], p: list[ZPoly], q: list[ZPoly]) -> None:
    """acc += the sum over k of p[k] q[k]."""
    for pk, qk in zip(p, q):
        if (pk.a or pk.b) and (qk.a or qk.b):
            _mul_into(acc, pk, qk)


def _cauchy(s: int, p: list, q: list) -> Iterator[tuple]:
    """The pairs (p[a], q[s - a]) of blocks of two forms whose products
    make block s of their product."""
    return ((p[a], q[s - a]) for a in range(max(0, s - len(q) + 1), min(s, len(p) - 1) + 1))


def _finish(ring: Ring, acc: tuple[dict, dict]) -> ZPoly:
    return ZPoly(ring, {m: v for m, v in acc[0].items() if v}, {m: v for m, v in acc[1].items() if v})


def combine(ring: Ring, terms) -> ZPoly:
    """sum of c p over the (c, p) pairs in terms."""
    acc = ({}, {})
    for c, p in terms:
        _add_scaled(acc, p, c)
    return _finish(ring, acc)


def merge(ring: Ring, parts) -> ZPoly:
    """The sum of forms that share no monomial, such as blocks of one form."""
    a, b = {}, {}
    for p in parts:
        a.update(p.a)
        b.update(p.b)
    return ZPoly(ring, a, b)


# -- exact scalars at the boundary ------------------------------------------


def common_denominator(values) -> int:
    return math.lcm(1, *(q.denominator for c in values for q in (c.a, c.b)))


def _lift(c: Scalar, den: int) -> Coeff:
    """den c in Z[sqrt 3]; den must clear the denominators of c."""
    return c.a.numerator * (den // c.a.denominator), c.b.numerator * (den // c.b.denominator)


def lift_rows(rows: list[dict[int, Scalar]], den: int) -> list[dict[int, Coeff]]:
    """den times a matrix of sparse Scalar rows; den must clear them."""
    return [{j: _lift(c, den) for j, c in row.items()} for row in rows]


def split(value: Scalar) -> tuple[Coeff, int]:
    """(numerator in Z[sqrt 3], positive denominator) of a scalar."""
    den = common_denominator([value])
    return _lift(value, den), den


def to_scalar(c: Coeff, den: int = 1) -> Scalar:
    return Scalar(Fraction(c[0], den), Fraction(c[1], den))


def from_polynomial(poly: Polynomial, ring: Ring) -> tuple[ZPoly, int]:
    """(P, den) with poly = P / den."""
    den = common_denominator(poly.terms.values())
    a, b = {}, {}
    for exps, c in poly.terms.items():
        mono = ring.pack(exps)
        a[mono], b[mono] = _lift(c, den)
    return _finish(ring, (a, b)), den


def quotient(r: Coeff, s: Coeff, den: int = 1) -> Scalar:
    """r / (den s) for nonzero s, as r conj(s) / (den N(s)) with the norm
    N(s) = s conj(s), an integer."""
    (ra, rb), (sa, sb) = r, s
    return to_scalar((ra * sa - 3 * rb * sb, rb * sa - ra * sb), den * (sa * sa - 3 * sb * sb))


def to_matrix(rows: list[dict[int, Coeff]], den: int = 1) -> list[list[Scalar]]:
    """The dense square Scalar matrix rows / den, for outputs."""
    zero = Scalar(0)
    return [[to_scalar(row[j], den) if j in row else zero for j in range(len(rows))] for row in rows]


def to_polynomial(p: ZPoly, den: int = 1) -> Polynomial:
    """The Polynomial p / den, for outputs."""
    ring = p.ring
    return Polynomial(ring.nvars, {ring.unpack(m): to_scalar(p.coefficient(m), den) for m in p.monomials()})


def partial(p: ZPoly, index: int) -> ZPoly:
    ring = p.ring
    shift = ring._shifts[index]
    step = (1 << ring.top) | (1 << shift)
    out = ({}, {})
    for src, dst in zip((p.a, p.b), out):
        for m, v in src.items():
            e = m >> shift & MAX_EXPONENT
            if e:
                dst[m - step] = v * e
    return ZPoly(ring, *out)


def blocks(p: ZPoly, degree: int) -> list[ZPoly]:
    """The blocks p_0 .. p_degree of a form p of the given degree: p_s
    holds the terms of degree s in x_1 .. x_{n-1}, so of degree
    degree - s in x_0.  Variable 0 is the most significant field, so the
    leading monomial of a form lies in its nonzero block of least s."""
    ring = p.ring
    shift = ring._shifts[0]
    out = [({}, {}) for _ in range(degree + 1)]
    for half, src in enumerate((p.a, p.b)):
        for m, v in src.items():
            out[degree - (m >> shift & MAX_EXPONENT)][half][m] = v
    return [ZPoly(ring, a, b) for a, b in out]


def vector_blocks(p: list[ZPoly], degree: int) -> list[list[ZPoly]]:
    """The blocks of a vector of forms of the given degree, each a vector."""
    return [list(column) for column in zip(*(blocks(pk, degree) for pk in p))]


def proportion(p: ZPoly, q: ZPoly) -> tuple[Coeff, Coeff] | None:
    """(r, s) with s p = r q, so p = (r / s) q, or None; q must be nonzero."""
    lead = q.leading()
    r, s = p.coefficient(lead), q.coefficient(lead)
    return (r, s) if q.scaled(r) == p.scaled(s) else None


# -- integer vectors at a point ------------------------------------------------
#
# A point, its images and the columns of an operator are sparse vectors
# {index: (a, b)} over Z[sqrt 3] with no zero entries; an operator is
# {column: vector}, a missing column being zero.


def lift_point(x) -> dict[int, Coeff]:
    """s x as a sparse integer vector, for the least integer s > 0
    clearing the denominators of the Scalar point x."""
    den = common_denominator(x)
    return {i: _lift(c, den) for i, c in enumerate(x) if c}


def mul_coeff(c: Coeff, d: Coeff) -> Coeff:
    return c[0] * d[0] + 3 * c[1] * d[1], c[0] * d[1] + c[1] * d[0]


def _axpy_vector(acc: dict[int, Coeff], column: dict[int, Coeff], f: Coeff) -> None:
    """acc += f column; the caller drops the entries that cancel."""
    fa, fb = f
    get = acc.get
    if fb:
        for k, (ca, cb) in column.items():
            a, b = get(k, (0, 0))
            acc[k] = (a + fa * ca + 3 * fb * cb, b + fa * cb + fb * ca)
    else:
        for k, (ca, cb) in column.items():
            a, b = get(k, (0, 0))
            acc[k] = (a + fa * ca, b + fa * cb)


def _nonzero(acc: dict[int, Coeff]) -> dict[int, Coeff]:
    return {k: c for k, c in acc.items() if c[0] or c[1]}


def apply(op: dict[int, dict[int, Coeff]], v: dict[int, Coeff]) -> dict[int, Coeff]:
    """The image of the sparse vector v under the operator op."""
    acc: dict[int, Coeff] = {}
    for j, f in v.items():
        column = op.get(j)
        if column:
            _axpy_vector(acc, column, f)
    return _nonzero(acc)


def add(u: dict[int, Coeff], v: dict[int, Coeff]) -> dict[int, Coeff]:
    """u + v for sparse vectors, without the entries that cancel."""
    acc = dict(u)
    _axpy_vector(acc, v, (1, 0))
    return _nonzero(acc)


def matmul(a: list[dict[int, Coeff]], b: list[dict[int, Coeff]]) -> list[dict[int, Coeff]]:
    """A B for matrices given by sparse rows: row i is the sum over m of
    A[i][m] times row m of B."""
    out = []
    for row in a:
        acc: dict[int, Coeff] = {}
        for m, f in row.items():
            _axpy_vector(acc, b[m], f)
        out.append(_nonzero(acc))
    return out


def transpose(rows: list[dict[int, Coeff]]) -> list[dict[int, Coeff]]:
    """The transpose of a square matrix given by sparse rows."""
    out: list[dict[int, Coeff]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def dot(u: dict[int, Coeff], v: dict[int, Coeff]) -> Coeff:
    a = b = 0
    for k, (ua, ub) in u.items():
        w = v.get(k)
        if w:
            a += ua * w[0] + 3 * ub * w[1]
            b += ua * w[1] + ub * w[0]
    return a, b


def proportion_rows(a: list[dict[int, Coeff]], b: list[dict[int, Coeff]]) -> tuple[Coeff, Coeff] | None:
    """(r, s) with s a = r b for sparse matrices given by rows, or None;
    r / s is read off the first nonzero entry of b, which must exist."""
    i, row = next((i, row) for i, row in enumerate(b) if row)
    j = min(row)
    r, s = a[i].get(j, (0, 0)), row[j]
    for row_a, row_b in zip(a, b):
        if _nonzero({k: mul_coeff(s, v) for k, v in row_a.items()}) != _nonzero(
            {k: mul_coeff(r, v) for k, v in row_b.items()}
        ):
            return None
    return r, s


def _eliminate(row: dict[int, Coeff], pivot: dict[int, Coeff], c: int) -> dict[int, Coeff]:
    """p row - q pivot, for the entries p and q in column c, which clears it,
    divided by its content (the gcd of its integers), as in Bareiss."""
    qa, qb = row[c]
    acc = {k: mul_coeff(pivot[c], v) for k, v in row.items()}
    _axpy_vector(acc, pivot, (-qa, -qb))
    acc = _nonzero(acc)
    g = math.gcd(*(x for pair in acc.values() for x in pair))
    return {k: (a // g, b // g) for k, (a, b) in acc.items()} if g > 1 else acc


def rank(rows: list[dict[int, Coeff]]) -> int:
    """Rank over Q(sqrt 3) of sparse rows over Z[sqrt 3], fraction-free: each
    step clears a pivot row's first column from the others and sets it aside."""
    rows = [row for row in map(_nonzero, rows) if row]
    count = 0
    while rows:
        pivot = min(rows, key=len)  # the sparsest row fills the others least
        rows.remove(pivot)
        count += 1
        c = next(iter(pivot))
        reduced = []
        for row in rows:
            if c in row:
                row = _eliminate(row, pivot, c)
            if row:
                reduced.append(row)
        rows = reduced
    return count


def _gauss_jordan(work: list[dict[int, Coeff]], columns) -> dict[int, dict[int, Coeff]]:
    """The pivot rows by column of a fraction-free Gauss-Jordan by ``_eliminate``:
    the columns in order, each pivoting on its sparsest row, cleared from the others."""
    reduced: dict[int, dict[int, Coeff]] = {}
    for c in columns:
        pivot = min((row for row in work if c in row), key=len, default=None)
        if pivot is not None:
            work = [_eliminate(row, pivot, c) if c in row else row for row in work if row is not pivot]
            reduced = {p: _eliminate(row, pivot, c) if c in row else row for p, row in reduced.items()}
            reduced[c] = pivot
    return reduced


def complement(rows: list[dict[int, Coeff]], n: int) -> list[dict[int, Coeff]]:
    """The right kernel of sparse rows in n columns over Z[sqrt 3]: Gauss-Jordan
    from the last column to the first leaves pivot rows d_c e_c + (free
    columns), and each free column f, ascending, gives s e_f - sum_c
    (s r_cf / d_c) e_c for s = lcm |N(d_c)|.  Those f are the pivots of the
    kernel's reduced echelon basis (matroid duality): s times its rows."""
    reduced = _gauss_jordan([_nonzero(row) for row in rows], range(n - 1, -1, -1))
    pivots = {c: row[c] for c, row in reduced.items()}
    norms = {c: a * a - 3 * b * b for c, (a, b) in pivots.items()}
    s = math.lcm(*map(abs, norms.values()))
    # -s / d_c = -(s / N(d_c)) conj(d_c)
    factors = {c: (-(s // norms[c]) * a, s // norms[c] * b) for c, (a, b) in pivots.items()}
    out = []
    for f in range(n):
        if f not in reduced:
            v = {c: mul_coeff(factors[c], row[f]) for c, row in reduced.items() if f in row}
            v[f] = (s, 0)
            out.append(v)
    return out


def solve(rows: list[dict[int, Coeff]], cols: int) -> list[Scalar] | None:
    """A solution over Q(sqrt 3) of A x = b in cols unknowns, for the sparse
    rows of [A | b] over Z[sqrt 3] (b in column cols), or None when a row
    reduces to 0 = b_i != 0; a row given so (a unit equation that no table
    entry touches) ends it at once.  Gauss-Jordan from the left leaves each
    pivot row as d e_c + (free columns) | r, and x_c = r / d, free ones 0."""
    work = [_nonzero(row) for row in rows]
    if {cols} in (row.keys() for row in work):
        return None
    reduced = _gauss_jordan(work, range(cols + 1))
    if cols in reduced:
        return None
    x = {c: quotient(row.get(cols, (0, 0)), row[c]) for c, row in reduced.items()}
    return [x.get(c, Scalar(0)) for c in range(cols)]


# -- division -----------------------------------------------------------------


def divide(dividend: ZPoly, divisor: ZPoly) -> tuple[ZPoly | None, int, int | None]:
    """Fraction-free exact division: (Q, s, None) with dividend = (Q / s)
    divisor for an integer s > 0, or (None, 0, m) with the stuck monomial
    m of long division under the graded lexicographic order.

    The remainder lives in place, its monomials on a heap; it is scaled
    by an integer only when the next quotient term would not be integral,
    so each partial remainder is a positive multiple of the one exact
    division over the field would hold, with the same leading monomial.
    """
    ring = divisor.ring
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = divisor.leading()
    la, lb = divisor.coefficient(lead)
    norm = la * la - 3 * lb * lb  # nonzero: 3 is not a rational square
    tail = [(m, *divisor.coefficient(m)) for m in divisor.monomials() if m != lead]
    ra, rb = dict(dividend.a), dict(dividend.b)
    heap = [-m for m in ra.keys() | rb.keys()]
    heapq.heapify(heap)
    qa: dict[int, int] = {}
    qb: dict[int, int] = {}
    scale = 1
    while heap:
        m = -heapq.heappop(heap)
        ca, cb = ra.pop(m, 0), rb.pop(m, 0)
        if not (ca or cb):
            continue  # cancelled since it was pushed
        if not ring.divides(lead, m):
            return None, 0, m
        # c / lc = c conj(lc) / norm
        na, nb = ca * la - 3 * cb * lb, cb * la - ca * lb
        if na % norm or nb % norm:
            g = abs(norm) // math.gcd(norm, na, nb)
            for d in (ra, rb, qa, qb):
                for key in d:
                    d[key] *= g
            scale *= g
            na, nb = na * g, nb * g
        ta, tb = na // norm, nb // norm
        shift = m - lead
        if ta:
            qa[shift] = ta
        if tb:
            qb[shift] = tb
        for mono, da, db in tail:
            key = shift + mono
            present = key in ra or key in rb
            va = ra.get(key, 0) - (ta * da + 3 * tb * db)
            vb = rb.get(key, 0) - (ta * db + tb * da)
            if va:
                ra[key] = va
            else:
                ra.pop(key, None)
            if vb:
                rb[key] = vb
            else:
                rb.pop(key, None)
            if not present and (va or vb):
                heapq.heappush(heap, -key)
    return ZPoly(ring, qa, qb), scale, None


# -- the integer forms of an algebra ------------------------------------------


class IntegerForms:
    """Structure table, metric and involution of an algebra over one
    common denominator D, with the generic powers x, x^2, x^3.

    ``product`` returns D (p q) and ``pairing`` D h(p, q); ``sigma`` is
    D sigma(p) when the algebra has an involution.  Every ``Algebra``
    lifts its data in its constructor, so the rest is built on first use:
    ``square_slots``, ``traces`` and the generic powers in the n variables
    of ``ring``.  ``squares`` holds x and D x^2, which is all ``cubic``
    needs; D^2 x^3 exists only as its four x_0-degree blocks
    (``cube_block``), each built once, which every reader of x^3 takes.
    E exists only as the blocks of ``radial_blocks``: the radial
    certificate reads E - theta W off them block by block, and
    ``quintic``, which only the nonradial division and the radial fallback
    expand, merges them at theta = 0.  ``cubic``, ``norm`` and ``quintic``
    are each built once.
    """

    def __init__(self, dim: int, table, metric: list[dict[int, Scalar]], sigma: list[dict[int, Scalar]] | None):
        """Lift the table {(i, j): {k: c}} and the nonzero entries of the
        metric and the involution (None without one), row by row."""
        # each distinct coefficient object once, keyed by id (table and rows
        # hold every one, so no id is reused); a loaded document shares one
        # Scalar per distinct string.  A zero has denominator 1, so D is that
        # of these values
        values = {id(c): c for column in table.values() for c in column.values()}
        for row in metric + (sigma or []):
            values.update((id(c), c) for c in row.values())
        self.denominator = den = common_denominator(values.values())
        lifted = {key: _lift(c, den) for key, c in values.items()}
        self.rational = not any(b for _, b in lifted.values())
        self.dim = dim
        self.ring = Ring(dim)

        self.slots = [
            (i, j, [(k, lifted[id(c)]) for k, c in sorted(column.items())])
            for (i, j), column in sorted(table.items())
        ]
        self.metric_rows = [{j: lifted[id(c)] for j, c in row.items()} for row in metric]
        self.involution_rows = None if sigma is None else [{j: lifted[id(c)] for j, c in row.items()} for row in sigma]
        self._cube_blocks: list[list[ZPoly]] = []  # see cube_block

    @cached_property
    def square_slots(self) -> list[tuple[int, int, list[tuple[int, Coeff]]]]:
        """The slots of a square: p_i p_j = p_j p_i, so only i <= j, with
        the column D (c_ij + c_ji)."""
        merged: dict[tuple[int, int], dict[int, Coeff]] = {}
        for i, j, column in self.slots:
            _axpy_vector(merged.setdefault((min(i, j), max(i, j)), {}), dict(column), (1, 0))
        return [(i, j, sorted(_nonzero(merged[i, j]).items())) for i, j in sorted(merged)]

    @cached_property
    def traces(self) -> list[Coeff]:
        """D tr L(e_i), the sum over j of D c[i][j][j], for each i."""
        traces: dict[int, Coeff] = {}
        for i, j, column in self.slots:
            _axpy_vector(traces, {i: c for k, c in column if k == j}, (1, 0))
        return [traces.get(i, (0, 0)) for i in range(self.dim)]

    def operator(self, x: dict[int, Coeff]) -> dict[int, dict[int, Coeff]]:
        """D L(x) as sparse columns, for a sparse integer point x."""
        columns: dict[int, dict[int, Coeff]] = {}
        for i, f in x.items():
            for j, column in self._left.get(i, {}).items():
                _axpy_vector(columns.setdefault(j, {}), column, f)
        return {j: out for j, out in ((j, _nonzero(c)) for j, c in columns.items()) if out}

    def square_at(self, x: dict[int, Coeff]) -> dict[int, Coeff]:
        """D x x for a sparse integer point x, off the slots within its
        support, without building D L(x)."""
        acc: dict[int, Coeff] = {}
        for i, f in x.items():
            row = self._left.get(i, {})
            for j, g in x.items():
                column = row.get(j)
                if column:
                    _axpy_vector(acc, column, mul_coeff(f, g))
        return _nonzero(acc)

    def lower(self, y: dict[int, Coeff]) -> dict[int, Coeff]:
        """D G y for a sparse integer point y, so that D h(x, y) is the dot
        product of x with it; G is symmetric, so its rows are its columns."""
        return apply(self._metric_op, y)

    def pairing_at(self, x: dict[int, Coeff], y: dict[int, Coeff]) -> Coeff:
        """D h(x, y) for sparse integer points."""
        return dot(x, self.lower(y))

    def sigma_at(self, x: dict[int, Coeff]) -> dict[int, Coeff]:
        """D sigma(x) for a sparse integer point; only with an involution."""
        return apply(self._involution_op, x)

    @cached_property
    def _left(self) -> dict[int, dict[int, dict[int, Coeff]]]:
        """D c[i][j][.] as sparse vectors, grouped by the left index i."""
        left: dict[int, dict[int, dict[int, Coeff]]] = {}
        for i, j, column in self.slots:
            left.setdefault(i, {})[j] = dict(column)
        return left

    @cached_property
    def _metric_op(self) -> dict[int, dict[int, Coeff]]:
        return dict(enumerate(self.metric_rows))

    @cached_property
    def _involution_op(self) -> dict[int, dict[int, Coeff]]:
        return dict(enumerate(transpose(self.involution_rows)))

    # -- the forms read off the table ----------------------------------------

    def trilinear(self, gram: list[dict[int, Coeff]]) -> dict[tuple[int, int, int], Coeff]:
        """D g(e_i e_j, e_k) as {(i, j, k): value}, for an integer Gram
        matrix g given by sparse rows."""
        form: dict[tuple[int, int, int], Coeff] = {}
        for i, j, column in self.slots:
            acc: dict[int, Coeff] = {}
            for m, c in column:
                _axpy_vector(acc, gram[m], c)
            form.update(((i, j, k), v) for k, v in _nonzero(acc).items())
        return form

    @cached_property
    def metric_form(self) -> dict[tuple[int, int, int], Coeff]:
        """D^2 h(e_i e_j, e_k), built once.  Shared, so never modified."""
        return self.trilinear(self.metric_rows)

    @cached_property
    def kappa(self) -> list[dict[int, Coeff]]:
        """D^2 kappa as sparse rows, kappa[i][j] = tr L(e_i) L(e_j) = sum
        over k, m of c[i][m][k] c[j][k][m].  Shared, so never modified."""
        slots: dict[tuple[int, int], dict[int, Coeff]] = {}
        for i, m, column in self.slots:
            for k, c in column:
                slots.setdefault((m, k), {})[i] = c
        rows: list[dict[int, Coeff]] = [{} for _ in range(self.dim)]
        for (m, k), left in slots.items():
            right = slots.get((k, m))
            if right:
                for i, c in left.items():
                    _axpy_vector(rows[i], right, c)
        return [_nonzero(row) for row in rows]

    def twisted_trace(self) -> tuple[list[dict[int, Coeff]], int]:
        """(rows, s): s times the symmetric part of kappa sigma, the Gram
        matrix of (x, y) -> tr L(x) L(sigma y) symmetrized, as sparse rows.
        Without an involution that is kappa itself."""
        d = self.denominator
        if self.involution_rows is None:
            return self.kappa, d * d
        product = matmul(self.kappa, self.involution_rows)  # D^3 kappa sigma
        return [add(row, column) for row, column in zip(product, transpose(product))], 2 * d**3

    @cached_property
    def cubic(self) -> ZPoly:
        """6 D^2 u = D h(x, D x x) = D^2 h(x, x^2) in the n variables of
        ring.  Shared, so never modified."""
        x, x2 = self.squares
        return self.pairing(x, x2)

    def invariance_witness(self, form: dict[tuple[int, int, int], Coeff], scale: int):
        """Least (i, j, k) in (j, i, k) order violating
        g(e_i e_j, e_k) = g(e_i, e_k sigma(e_j)), with the two sides as
        Scalars, or (None, None, None) when the compatibility holds.

        form is scale times the trilinear form of a symmetric g, so the
        right side is sum over m of sigma[m][j] g(e_k e_m, e_i).
        """
        if self.involution_rows is None:
            lhs = form
            rhs = {(i, j, k): value for (k, j, i), value in form.items()}
        else:
            d = self.denominator
            scale *= d
            lhs = {t: (a * d, b * d) for t, (a, b) in form.items()}
            rhs: dict[tuple[int, int, int], Coeff] = {}
            for (k, m, i), (va, vb) in form.items():
                for j, (sa, sb) in self.involution_rows[m].items():
                    a, b = rhs.get((i, j, k), (0, 0))
                    rhs[(i, j, k)] = (a + sa * va + 3 * sb * vb, b + sa * vb + sb * va)
        zero = (0, 0)
        bad = [t for t in lhs.keys() | rhs.keys() if lhs.get(t, zero) != rhs.get(t, zero)]
        if not bad:
            return None, None, None
        triple = min(bad, key=lambda t: (t[1], t[0], t[2]))
        return triple, to_scalar(lhs.get(triple, zero), scale), to_scalar(rhs.get(triple, zero), scale)

    # -- polynomial vectors --------------------------------------------------

    def product(self, p: list[ZPoly], q: list[ZPoly]) -> list[ZPoly]:
        """D (p q) componentwise, through the structure table."""
        acc = [({}, {}) for _ in range(self.dim)]
        for i, j, column in self.square_slots if p is q else self.slots:
            if not p[i] or not q[j]:
                continue
            prod = p[i] * q[j]
            for k, c in column:
                _add_scaled(acc[k], prod, c)
        ring = p[0].ring
        return [_finish(ring, a) for a in acc]

    def product_at(self, p: list[ZPoly], q: list[ZPoly], k: int) -> ZPoly:
        """Component k of ``product(p, q)``, built alone."""
        acc = ({}, {})
        for i, j, c in self._into[k]:
            if p[i] and q[j]:
                _add_scaled(acc, p[i] * q[j], c)
        return _finish(self.ring, acc)

    @cached_property
    def _into(self) -> list[list[tuple[int, int, Coeff]]]:
        """The (i, j, D c_ij^k) of the slots, grouped by k."""
        into: list[list[tuple[int, int, Coeff]]] = [[] for _ in range(self.dim)]
        for i, j, column in self.slots:
            for k, c in column:
                into[k].append((i, j, c))
        return into

    def pairing(self, p: list[ZPoly], q: list[ZPoly]) -> ZPoly:
        """D h(p, q)."""
        acc = ({}, {})
        _dot_into(acc, p, self.lowered(q))
        return _finish(p[0].ring, acc)

    def lowered(self, q: list[ZPoly], factor: Coeff = (1, 0)) -> list[ZPoly]:
        """factor D G q, so that D h(p, q) is the dot product of p with D G q."""
        ring = q[0].ring
        return [combine(ring, [(mul_coeff(g, factor), q[l]) for l, g in row.items()]) for row in self.metric_rows]

    def sigma(self, p: list[ZPoly]) -> list[ZPoly]:
        """D sigma(p); only for an algebra with an involution."""
        ring = p[0].ring
        return [combine(ring, [(s, p[l]) for l, s in row.items()]) for row in self.involution_rows]

    def trace(self, x: list[ZPoly]) -> ZPoly:
        """D tr L(x)."""
        return combine(x[0].ring, [(t, xi) for t, xi in zip(self.traces, x) if t != (0, 0)])

    @cached_property
    def norm(self) -> ZPoly:
        """D h(x, x) in the n variables of ring.  Shared, so never modified."""
        x = self.squares[0]
        return self.pairing(x, x)

    @cached_property
    def quintic(self) -> ZPoly:
        """D^4 E for E = h(x^2, x^3) - h(x^2, x^2) tr L(x), the quintic of
        the Hsiang identities, in the n variables of ring: the blocks of
        ``radial_blocks`` at theta = 0, merged one at a time as they come.
        Only the nonradial division and the radial fallback, when every
        probe misses, expand it.  Shared, so never modified."""
        return merge(self.ring, self.radial_blocks(Scalar(0)))

    def radial_blocks(self, theta: Scalar) -> Iterator[ZPoly]:
        """The blocks Q_0 .. Q_5 of Q = D^4 den (E - theta W), where
        theta = t / den, W = h(x, x) h(x, x^2) and E is the quintic of
        ``quintic``: Q_s holds the terms of Q of degree s in x_1 .. x_{n-1},
        so of degree 5 - s in x_0, and its leading monomial, when it is the
        first nonzero block, is that of Q.  A block of a product is the sum
        of the products of the blocks whose degrees add up to it, so Q_s
        needs the blocks of x^3 only up to s: a caller that stops at the
        first nonzero block builds no more of x^3 than that, and Q is never
        expanded whole.  Only W, a product of two small forms, is expanded
        once and split, and not at all when theta = 0."""
        (ta, tb), den = split(theta)
        ring, d = self.ring, self.denominator
        x, x2 = self.squares
        squares = self._square_blocks  # D x^2
        lowered = vector_blocks(self.lowered(x2, (den, 0)), 2)  # den D^2 G x^2, as h is symmetric
        weight = blocks(self.norm * self.cubic, 5) if ta or tb else [ZPoly(ring)] * 6  # D^3 W
        traces = blocks(self.trace(x).scaled((-1, 0)), 1)  # -D tr L(x)
        traced = any(traces)
        cubes: list[list[ZPoly]] = []  # the blocks of D^2 x^3 built so far
        quartic: list[ZPoly] = []  # the blocks of D^3 den h(x^2, x^2) built so far
        for s in range(6):
            if s <= 3:
                cubes.append(self.cube_block(s))
            acc = ({}, {})
            _add_scaled(acc, weight[s], (-d * ta, -d * tb))
            for p, q in _cauchy(s, lowered, cubes):
                _dot_into(acc, p, q)  # D^4 den h(x^2, x^3)
            if traced:
                if s <= 4:
                    block = ({}, {})
                    for p, q in _cauchy(s, squares, lowered):
                        _dot_into(block, p, q)
                    quartic.append(_finish(ring, block))
                for p, q in _cauchy(s, quartic, traces):
                    _mul_into(acc, p, q)
            yield _finish(ring, acc)

    @cached_property
    def squares(self) -> tuple[list[ZPoly], list[ZPoly]]:
        """(x, D x^2) for the generic vector x: all the cubic needs."""
        x = self.ring.variables(0, self.dim)
        return x, self.product(x, x)

    @cached_property
    def _square_blocks(self) -> list[list[ZPoly]]:
        """The blocks 0, 1 and 2 of D x^2, each a vector."""
        return vector_blocks(self.squares[1], 2)

    @cached_property
    def _cube_slots(self) -> tuple[list, list]:
        """The slots (i, j, column) with j = 0, then those with j > 0, each
        with the monomial x_j as an int to shift by."""
        steps = [x.leading() for x in self.squares[0]]
        head, tail = [], []
        for i, j, column in self.slots:
            (tail if j else head).append((i, steps[j], column))
        return head, tail

    def cube_block(self, s: int) -> list[ZPoly]:
        """The block s of D^2 x^3 for s = 0 .. 3, a vector.  x_0 lies in
        block 0 and every other x_j in block 1, so it is the sum over the
        slots (i, j) of the block s - [j > 0] of D x^2_i times x_j, a shift
        of its monomials.  The blocks are the only copy of x^3, each built
        once, after those before it, when first asked for."""
        built = self._cube_blocks
        while len(built) <= s:
            built.append(self._build_cube_block(len(built)))
        return built[s]

    def _build_cube_block(self, s: int) -> list[ZPoly]:
        """Block s of D^2 x^3 (see ``cube_block``), with the Z[sqrt 3] axpy
        written out, which runs faster than a call of ``_add_scaled``."""
        acc = [({}, {}) for _ in range(self.dim)]
        # x^2 has degree 2, so x_j times it overflows no field
        for slots, a in zip(self._cube_slots, (s, s - 1)):
            if not 0 <= a <= 2:
                continue
            squares = self._square_blocks[a]
            for i, step, column in slots:
                part = squares[i]
                if not part:
                    continue
                pa = {m + step: v for m, v in part.a.items()}
                pb = {m + step: v for m, v in part.b.items()} if part.b else None
                for k, (ca, cb) in column:  # acc[k] += (ca + cb sqrt 3)(pa + pb sqrt 3)
                    da, db = acc[k]
                    if ca:
                        _axpy(da, pa, ca)
                        if pb:
                            _axpy(db, pb, ca)
                    if cb:
                        _axpy(db, pa, cb)
                        if pb:
                            _axpy(da, pb, 3 * cb)
        return [_finish(self.ring, a) for a in acc]
