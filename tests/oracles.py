"""Scalar references for the integer routes of the exact layer.

Every verdict computes on the Z[sqrt 3] table of ``Algebra._integer_forms``,
at integer points.  The Scalar routes those replaced live on here, each
defined once, for the tests to compare against: the constructor's checks
of the metric and the involution and its field tag, the candidate points
of the point checks, the traces tr L(e_i), the degree-5 Hsiang operator M,
and the generic vector and trace of the polynomial certificates.  The
integer routes that reading constants off leading coefficients replaced
live here too: the Hessian-rank walk of the degeneracy check, the division
fallback of the radial check and the per-coordinate divisions of the
pseudocomposition check.  So do the radial certificate that expanded the
whole quintic E - theta W at once, which the x_0-degree blocks replaced,
and the unit solver that deduplicated its rows as Scalars, which the
integer rows replaced.  The gradient witness that built x^3 x and
x^2 x^2 whole before reading a component, the general Q(sqrt 3) product
behind the Scalar fast paths, and the dense Scalar matrix helpers that no
route calls (``is_symmetric``, ``mat_add``, ``mat_sub``, ``mat_eq``, ``solve``, which
the fraction-free ``_zpoly.solve`` of the unit replaced, and
``gradient_hessian``, the last caller of ``xl.mat_mul``) live here too.  x^3 and E
are expanded here whole, from one product of x^2 with x, never read off
the x_0-degree blocks of the integer forms, so that each comparison is
one of two routes.  The
constructor from a cubic form that multiplied dense columns of third
partials by the dense G^-1, which the sparse columns replaced, lives here
too, and never calls ``algebra_from_cubic``.  So do the constructor's
table of summed entries and its lift of every table, metric and
involution entry on its own, which lifting each distinct value once
replaced, and the nilpotent search that took each norm with
``np.linalg.norm``, which ``numeric._norm``'s sqrt(x . x) replaced.  So do the
Scalar subspace routes of the polar check, which one fraction-free
elimination (``_zpoly.complement``) replaced: ``nullspace`` (the former
``exactlinalg.nullspace``), ``orthogonal_complement`` and ``contains``
(the former ``Subspace`` methods) and ``complement_basis``, the Scalar
kernel basis that the integer one is compared with; and
``polar_implied_axioms``, the two polar axioms that the polar check no
longer scans, as the others imply them; and the Cartan cubic
whose Re((z1 z2) z3) term came from ``poly_product`` over the Hurwitz
algebra, which reading the Cayley-Dickson table replaced.  So do the dense
Scalar operator views that every verdict reads off the integer table
instead: ``dense_operator`` (the former ``Algebra.mult_operator``) and
``reference_trace_form_twisted``, the twisted trace form built from those
operators and ``sigma``, in place of the former
``algebra.trace_form_twisted``.  So does the dense int builder of the
Clifford systems (``dense_clifford_matrices`` with its Kronecker product,
identity, product and family), which signed permutations replaced in
``catalog.clifford_system``, and the Clifford validation that took both
products A_i A_j and A_j A_i of each pair
(``two_product_clifford_check``), which one product and its transpose
replaced.  So do the ``Polynomial`` calculus (``partial``, ``evaluate``),
which no route calls, and the dense Gram matrices of a nonradial b and of
a radial theta G (``dense_gram_from_quadratic``, ``dense_theta_gram``),
which reading them off integer rows replaced.  So do the general product
of polynomial vectors (``product``, the former ``IntegerForms.product``)
and ``sigma`` of a polynomial vector, which reading the generic forms off
the table and shifting monomials by the generic vector replaced, with
``generic_forms``, the forms they built; and ``zeros``, ``mat_scale``
and ``rank``, the former ``exactlinalg`` helpers that only tests called.
Beside the references lives ``isometric_copy``, the same algebra in a
basis moved by a signed permutation and a rational rotation, which the
tests of the sparse triple and of the Peirce routes draw their inputs
from, and ``cayley_copy``, the same algebra in the basis of a dense
rational orthogonal matrix, whose table, metric and involution are dense.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from coneforge import _zpoly, analysis, numeric
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, Subspace, _require_commutative_metrized, _scalarize, is_exact, killing_form
from coneforge.catalog import hurwitz, rho
from coneforge.cubic import poly_product
from coneforge.polynomials import CubicForm, Polynomial
from coneforge.scalars import ONE, Scalar, ZERO, scalar_format


# -- the Scalar matrix helpers that no route in coneforge calls -----------------


def is_symmetric(a):
    """The former ``exactlinalg.is_symmetric``: a dense Scalar comparison
    of every pair of entries."""
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def zeros(rows, cols):
    """The former ``exactlinalg.zeros``."""
    return [[ZERO] * cols for _ in range(rows)]


def mat_scale(c, a):
    """The former ``exactlinalg.mat_scale``: c a, multiplying only the
    nonzero entries."""
    return [[c * x if x else ZERO for x in row] for row in a]


def rank(a):
    """The former ``exactlinalg.rank``: the rank of a list of rows, dense
    or sparse {column: value}, by the Scalar ``rref``."""
    return len(xl.rref(a)[1])


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def solve(a, b, cols=None):
    """The former ``exactlinalg.solve``: one exact solution of A x = b by
    the Scalar ``rref`` of [A | b], or None when inconsistent.

    Sparse rows need cols, the number of unknowns; dense rows give it
    by their length.  Free variables are set to zero.
    """
    if cols is None:
        cols = len(a[0]) if a else 0
    reduced, pivots = xl.rref([{**xl._nonzero(row), cols: rhs} for row, rhs in zip(a, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row.get(cols, ZERO)
    return x


def nullspace(a):
    """The former ``exactlinalg.nullspace``: the basis of the right kernel
    that the Scalar ``rref`` leaves, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = xl.rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for row, c in zip(reduced, pivots):
            v[c] = -row.get(free, ZERO)
        basis.append(v)
    return basis


# -- the Scalar subspace routes of the polar check ------------------------------


def orthogonal_complement(sub, metric):
    """The former ``Subspace.orthogonal_complement``: all w with h(b, w) = 0
    for every basis vector b, by a dense ``mat_vec`` and ``nullspace``, as
    a new Subspace."""
    n = sub.ambient_dim
    if not sub.basis:
        return Subspace(n, xl.identity(n))
    transposed = xl.transpose(metric)
    return Subspace(n, nullspace([xl.mat_vec(transposed, b) for b in sub.basis]))


def complement_basis(rows, n):
    """The reduced echelon basis of the right kernel of sparse rows over
    Z[sqrt 3] in n columns by the Scalar route, ``Subspace(n,
    nullspace(rows)).basis``; no rows leave the identity."""
    if not rows:
        return xl.identity(n)
    dense = [[_zpoly.to_scalar(row.get(j, (0, 0))) for j in range(n)] for row in rows]
    return Subspace(n, nullspace(dense)).basis


def contains(sub, v):
    """The former ``Subspace.contains``: v reduces to zero against the
    reduced echelon basis, each basis row eliminated at its pivot."""
    w = [_scalarize(x) for x in v]
    for row in sub.basis:
        f = w[next(c for c, x in enumerate(row) if x)]
        if f:
            w = [x - f * y for x, y in zip(w, row)]
    return not any(w)


def polar_implied_axioms(alg, block):
    """(mixed, trace) for the two polar axioms that ``verify_polar`` leaves
    to the other five, decided from first principles for a zero block A0
    given as a Subspace or by basis indices: mixed, every product y z of
    the complement A1 with A0 lies in A1; trace, the Killing form
    ``killing_form`` equals 2 dim(A0) P1^T G P1 + dim(A1) P0^T G P0 for the
    projectors P0 = B[:, :a0] B^-1[:a0, :] and P1 = I - P0 of the basis B
    of A0 followed by A1."""
    n = alg.dim
    a0 = block if isinstance(block, Subspace) else Subspace(n, [alg.basis_vector(i) for i in block])
    a1 = orthogonal_complement(a0, alg.metric)
    mixed = all(contains(a1, alg.multiply(y, z)) for y in a1.basis for z in a0.basis)
    basis = xl.transpose(a0.basis + a1.basis)
    p0 = xl.mat_mul([row[: a0.dim] for row in basis], xl.inverse(basis)[: a0.dim])
    p1 = mat_sub(xl.identity(n), p0)

    def gram(p):
        return xl.mat_mul(xl.transpose(p), xl.mat_mul(alg.metric, p))

    expected = mat_add(mat_scale(Scalar(2 * a0.dim), gram(p1)), mat_scale(Scalar(a1.dim), gram(p0)))
    return mixed, killing_form(alg)[0] == expected


def gradient_hessian(alg, x):
    """The former ``cubic.gradient_hessian``: the partials D u(x) = G (x*x)/2
    and the Hessian G L(x) at a Scalar point, as dense rows."""
    _require_commutative_metrized(alg)
    grad = [v / Scalar(2) for v in xl.mat_vec(alg.metric, alg.multiply(x, x))]
    return grad, xl.mat_mul(alg.metric, dense_operator(alg, x))


# -- the Scalar operator views that the integer table replaced ------------------


def dense_operator(alg, x, side="left"):
    """The former ``Algebra.mult_operator``: dense rows, entry (k, j) of L(x) or R(x)."""
    x = [Scalar(v) if not isinstance(v, Scalar) else v for v in x]
    rows = [[ZERO] * alg.dim for _ in range(alg.dim)]
    for (i, j), column in alg.table.items():
        f, target = (x[i], j) if side == "left" else (x[j], i)
        if f:
            for k, coeff in column.items():
                rows[k][target] = rows[k][target] + f * coeff
    return rows


def reference_trace_of_product(a, b):
    """trace(a b) of two dense square matrices."""
    total = ZERO
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i][j] and b[j][i]:
                total = total + a[i][j] * b[j][i]
    return total


def reference_trace_form_twisted(alg):
    """The symmetrized Gram matrix of (x, y) -> trace L(x) L(sigma y), from
    the dense operators of the basis vectors and of their images under
    sigma; it stands in for the former ``algebra.trace_form_twisted``."""
    n = alg.dim
    ops = [dense_operator(alg, alg.basis_vector(i)) for i in range(n)]
    sig_ops = [dense_operator(alg, alg.sigma(alg.basis_vector(j))) for j in range(n)]
    half = ONE / Scalar(2)
    return [
        [
            (reference_trace_of_product(ops[i], sig_ops[j]) + reference_trace_of_product(ops[j], sig_ops[i])) * half
            for j in range(n)
        ]
        for i in range(n)
    ]


def general_product(x, y):
    """x y by the general Q(sqrt 3) formula, (a + b r3)(c + d r3) =
    (ac + 3bd) + (ad + bc) r3, with each operand first made a Scalar."""
    x, y = _scalarize(x), _scalarize(y)
    return Scalar(x.a * y.a + 3 * x.b * y.b, x.a * y.b + x.b * y.a)


def checked_metric_and_involution(metric, sigma):
    """The dense Scalar checks the constructor made of a square Scalar
    metric and involution sigma (or None): (message, involution), with the
    message of the ValueError it raised (None when both pass) and the
    involution it kept, None for the identity."""
    n = len(metric)
    if not is_symmetric(metric):
        return "metric must be symmetric", None
    if rank(metric) < n:
        return "metric must be nondegenerate", None
    if sigma is None:
        return None, None
    if not mat_eq(xl.mat_mul(sigma, sigma), xl.identity(n)):
        return "involution must square to the identity", None
    return None, None if mat_eq(sigma, xl.identity(n)) else sigma


def field_tag(alg):
    """"Qr3" when a structure constant, metric entry or kept involution
    entry has a sqrt 3 part, else "Q"."""
    values = [c for column in alg.table.values() for c in column.values()]
    values += [c for row in alg.metric + (alg.involution or []) for c in row]
    return "Qr3" if any(c.b for c in values) else "Q"


def seeded_points(dim, count, seed):
    """count nonzero Scalar points with coordinates drawn from [-7, 7] by
    random.Random(seed)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        vec = [Scalar(rng.randint(-7, 7)) for _ in range(dim)]
        if any(vec):
            points.append(vec)
    return points


def candidate_vectors(alg, seed):
    """The candidate points as Scalar lists: each e_i, the first 60 pairs
    e_i + e_j with i < j, then 16 seeded points."""
    n = alg.dim
    pairs = itertools.islice(itertools.combinations(range(n), 2), 60)
    for support in itertools.chain(((i,) for i in range(n)), pairs):
        v = [ZERO] * n
        for i in support:
            v[i] = ONE
        yield v
    yield from seeded_points(n, 16, seed)


def trace_of_left(alg, i):
    """tr L(e_i), the sum over j of c[i][j][j] in the Scalar table."""
    total = ZERO
    for j in range(alg.dim):
        column = alg.table.get((i, j))
        if column:
            total = total + column.get(j, ZERO)
    return total


def trace_values(alg):
    return [trace_of_left(alg, i) for i in range(alg.dim)]


def hsiang_terms(alg, x, traces):
    """M(x) and x*x, given the traces tr L(e_i) read once by the caller."""
    square = alg.multiply(x, x)
    cube = alg.multiply(square, x)
    trace = sum((t * v for t, v in zip(traces, x) if t and v), ZERO)
    return (alg.h(square, square) * trace - alg.h(square, cube)) / Scalar(4), square


def hsiang_operator(alg, x):
    """M(x) = (h(x*x, x*x) tr L(x) - h(x*x, x*x*x)) / 4 at the point x,
    so that E = -4 M."""
    _require_commutative_metrized(alg)
    x = [v if isinstance(v, Scalar) else Scalar(v) for v in x]
    return hsiang_terms(alg, x, trace_values(alg))[0]


def generic_vector(alg, offset=0, nvars=None):
    """Vector of variables x_{offset+1} .. x_{offset+dim} as polynomials."""
    total = alg.dim + offset if nvars is None else nvars
    return [Polynomial.variable(total, offset + i) for i in range(alg.dim)]


def trace_polynomial(alg, offset=0, nvars=None):
    """The linear polynomial tr L(x) in the generic coordinates."""
    total = alg.dim + offset if nvars is None else nvars
    out = Polynomial(total)
    for i, value in enumerate(trace_values(alg)):
        if value:
            exps = [0] * total
            exps[offset + i] = 1
            out = out + Polynomial(total, {tuple(exps): value})
    return out


# -- the integer routes replaced by leading coefficients ----------------------


def degeneracy_walk(alg, seed):
    """The former degeneracy details, without the vote: the rank of the
    Hessian D^2 G L(x) at each integer candidate, and the cube test on the
    first nonzero row of the first Hessian of rank one, when no candidate
    has rank two or more."""
    forms = alg._integer_forms
    exact = is_exact(alg)
    product_rank = _zpoly.rank([dict(column) for _, _, column in forms.slots])
    cubic = forms.cubic
    if not cubic:
        omega = [scalar_format(ZERO)] * alg.dim
        return {"exact": exact, "product_rank": product_rank, "cube": True, "degenerate": True, "omega": omega}
    cube, omega, probe, rank_small = False, None, None, True
    for p in analysis._integer_candidates(alg.dim, seed):
        hessian = {j: forms.lower(column) for j, column in forms.operator(p).items()}
        rank = _zpoly.rank(list(hessian.values()))
        if rank >= 2:
            rank_small = False
            break
        if rank == 1 and probe is None:
            probe = (p, hessian)
    if rank_small and probe is not None:
        p, hessian = probe
        k = min(k for column in hessian.values() for k in column)
        direction = {j: column[k] for j, column in hessian.items() if k in column}
        pairing = _zpoly.dot(direction, p)
        xs = forms.ring.variables(0, alg.dim)
        lin = _zpoly.combine(forms.ring, [(c, xs[j]) for j, c in direction.items()])
        if pairing != (0, 0) and _zpoly.proportion(cubic, lin * lin * lin) is not None:
            cube = True
            u_at = forms.pairing_at(_zpoly.apply(forms.operator(p), p), p)
            cubed = _zpoly.mul_coeff(pairing, _zpoly.mul_coeff(pairing, pairing))
            scale = analysis._cube_root(_zpoly.quotient(u_at, cubed, 6 * forms.denominator**2))
            if scale is not None:
                omega = [scalar_format(scale * _zpoly.to_scalar(direction.get(j, (0, 0)))) for j in range(alg.dim)]
    return {"exact": exact, "product_rank": product_rank, "cube": cube, "degenerate": not exact, "omega": omega}


def product(forms, p, q):
    """D (p q) componentwise, by the former ``IntegerForms.product``: each
    slot's product p_i q_j is convolved and added into its column.  It
    runs over every slot, also when p is q, so that it leans neither on
    the shifts nor on the merged ``square_slots`` it is compared with."""
    acc = [({}, {}) for _ in range(forms.dim)]
    for i, j, column in forms.slots:
        if not p[i] or not q[j]:
            continue
        prod = p[i] * q[j]
        for k, c in column:
            _zpoly._add_scaled(acc[k], prod, c)
    return [_zpoly._finish(p[0].ring, a) for a in acc]


def sigma(forms, p):
    """D sigma(p), by the former ``IntegerForms.sigma``; only with an involution."""
    return [_zpoly.combine(p[0].ring, [(s, p[l]) for l, s in row.items()]) for row in forms.involution_rows]


def generic_forms(forms):
    """(x, D x^2, D h(x, x), D^2 h(x, x^2)) by the former products and
    pairings, for the read-offs of ``IntegerForms`` to be compared with."""
    x = forms.ring.variables(0, forms.dim)
    x2 = product(forms, x, x)
    return x, x2, forms.pairing(x, x), forms.pairing(x, x2)


def whole_cube(forms):
    """D^2 x^3 as one product of D x^2 with x, not by x_0-degree blocks."""
    x, x2 = forms.squares
    return product(forms, x2, x)


def whole_quintic(forms):
    """D^4 E for E = h(x^2, x^3) - h(x^2, x^2) tr L(x), expanded whole
    from whole_cube rather than merged from x_0-degree blocks."""
    x, x2 = forms.squares
    e = forms.pairing(x2, whole_cube(forms))
    tr = forms.trace(x)
    if tr:
        e = e - forms.pairing(x2, x2) * tr
    return e


def radial_division(alg):
    """(theta, witness) of the former fallback of the radial check, for
    when W vanishes at every candidate: E divided by C |x|^2."""
    forms = alg._integer_forms
    e, c = whole_quintic(forms), forms.cubic
    if not c:
        return (ZERO, None) if not e else (None, analysis._leading_witness(e))
    quotient, scale, stuck = _zpoly.divide(e, c * forms.norm)  # D E / (C |x|^2)
    if stuck is not None:
        return None, analysis._monomial_witness(forms.ring, stuck)
    if quotient.degree() > 0:
        return None, analysis._leading_witness(e)
    return _zpoly.to_scalar(quotient.coefficient(0), scale * forms.denominator), None


def pseudocomposition_division(alg):
    """theta' of x^3 = theta' h(x,x) x by the former divisions of each
    component of D^2 x^3 by its coordinate, or None."""
    forms = alg._integer_forms
    x, x3 = forms.squares[0], whole_cube(forms)
    common = None
    for k in range(alg.dim):
        quotient, _, stuck = _zpoly.divide(x3[k], x[k])
        if stuck is not None or (common is not None and quotient != common):
            return None
        common = quotient
    ratio = _zpoly.proportion(common, forms.norm)
    if ratio is None:
        return None
    return _zpoly.to_scalar(ratio[0]) / (_zpoly.to_scalar(ratio[1]) * Scalar(forms.denominator))


# -- the routes replaced by blocks and integer rows ---------------------------


def gradient_witness(alg, theta):
    """The former witness of the quartic gradient form 4 x^3 x + x^2 x^2 -
    3 theta h(x,x) x^2 - 2 theta h(x^2,x) x: every component of x^3 x and
    x^2 x^2 built by whole products first, x^3 from whole_cube."""
    forms = alg._integer_forms
    ring, d = forms.ring, forms.denominator
    (ta, tb), den = _zpoly.split(theta)
    x, x2 = forms.squares
    x3x = product(forms, whole_cube(forms), x)
    x2x2 = product(forms, x2, x2)
    for k in range(alg.dim):
        component = _zpoly.combine(
            ring,
            [
                ((4 * den, 0), x3x[k]),
                ((den, 0), x2x2[k]),
                ((-3 * d * ta, -3 * d * tb), forms.norm * x2[k]),
                ((-2 * d * ta, -2 * d * tb), forms.cubic * x[k]),
            ],
        )
        if component:
            return analysis._leading_witness(component)
    return None


def radial_quintic_defect(alg, theta, exact):
    """The former radial certificate: monomial witness of E != theta W, or
    None, from the whole quintic D^4 den (E - theta W) expanded at once;
    with exact set, the gradient form names a failure (and alone decides
    with an involution or a traced table)."""
    forms = alg._integer_forms
    euler = forms.involution_rows is None and is_exact(alg)
    if exact and not euler:
        return gradient_witness(alg, theta)
    (ta, tb), den = _zpoly.split(theta)
    d = forms.denominator
    w = forms.norm * forms.cubic
    residual = _zpoly.combine(forms.ring, [((den, 0), whole_quintic(forms)), ((-d * ta, -d * tb), w)])
    if not residual:
        return None
    if not exact:
        return analysis._leading_witness(residual)
    witness = gradient_witness(alg, theta)
    if witness is None:
        raise RuntimeError("the radial quintic E - theta W fails but its gradient form vanishes")
    return witness


def find_unit_scalar_rows(alg):
    """The former find_unit: the rows of L(e) = I and R(e) = I read off the
    Scalar table and deduplicated as Scalar tuples."""
    n = alg.dim
    tables = [alg.table.items()]
    if not alg.commutative:
        tables.append(((j, i), column) for (i, j), column in alg.table.items())
    entries = {}
    for t, table in enumerate(tables):
        entries.update(((t, j, j), {}) for j in range(n))
        for (i, j), column in table:
            for k, c in column.items():
                entries.setdefault((t, j, k), {})[i] = c
    system = dict.fromkeys((tuple(sorted(row.items())), j == k) for (_, j, k), row in entries.items())
    return solve([dict(row) for row, _ in system], [ONE if diagonal else ZERO for _, diagonal in system], n)


def dense_algebra_from_cubic(u, metric=None, name=""):
    """The former algebra_from_cubic: each column t(i, j, .) of third
    partials, dense over every k, times the dense G^-1 by mat_vec."""
    n = u.nvars
    if metric is None:
        metric = xl.identity(n)
    t = {}
    for exps, coeff in u.terms.items():
        indices = []
        factorial = 1
        for var, e in enumerate(exps):
            indices.extend([var] * e)
            for m in range(2, e + 1):
                factorial *= m
        t[tuple(indices)] = coeff * factorial
    ginv = None
    entries = []
    for i in range(n):
        for j in range(i, n):
            column = [t.get(tuple(sorted((i, j, k))), ZERO) for k in range(n)]
            if not any(column):
                continue
            if ginv is None:
                ginv = xl.inverse([[_scalarize(x) for x in row] for row in metric])
            c = xl.mat_vec(ginv, column)
            for k, value in enumerate(c):
                if value:
                    entries.append((i, j, k, value))
    return Algebra(n, entries, metric=metric, commutative=True, name=name)


# -- the constructor's former table and lift ------------------------------------


def summed_table(dim, entries):
    """The table of entries (i, j, k, c): repeated slots added up, zeros
    dropped, each coefficient a Scalar; an index out of range raises."""
    table = {}
    for i, j, k, coeff in entries:
        coeff = _scalarize(coeff)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"structure index out of range: {(i, j, k)}")
        column = table.setdefault((i, j), {})
        column[k] = column.get(k, ZERO) + coeff
    table = {key: {k: c for k, c in column.items() if c} for key, column in table.items()}
    return {key: column for key, column in table.items() if column}


def lift_per_entry(alg):
    """The former lift of ``IntegerForms``: (D, slots, metric rows,
    involution rows), D the common denominator of every nonzero entry of
    the table and of the dense metric and kept involution, and each entry
    lifted on its own."""
    metric = [{j: c for j, c in enumerate(row) if c} for row in alg.metric]
    sigma = None if alg.involution is None else [{j: c for j, c in enumerate(row) if c} for row in alg.involution]
    entries = [c for column in alg.table.values() for c in column.values()]
    entries += [c for row in metric + (sigma or []) for c in row.values()]
    den = _zpoly.common_denominator(entries)
    slots = [
        (i, j, [(k, _zpoly._lift(c, den)) for k, c in sorted(column.items())])
        for (i, j), column in sorted(alg.table.items())
    ]
    return den, slots, _zpoly.lift_rows(metric, den), None if sigma is None else _zpoly.lift_rows(sigma, den)


# -- the nilpotent search with a norm per distance --------------------------------


def _polish_nilpotent_by_norms(tensor, x):
    for _ in range(40):
        lx = numeric._operator(tensor, x)
        square = x @ lx
        if np.linalg.norm(square) <= numeric.NILPOTENT_TOL * 0.1:
            break
        delta = np.linalg.lstsq(2.0 * lx, -square, rcond=1e-8)[0]
        delta -= np.dot(delta, x) * x
        if np.linalg.norm(delta) > 1.0:
            delta /= np.linalg.norm(delta)
        moved = x + delta
        moved /= np.linalg.norm(moved)
        if np.linalg.norm(numeric._mul(tensor, moved, moved)) >= np.linalg.norm(square):
            break
        x = moved
    return x


def nilpotent_search_by_norms(alg, restarts=20, seed=0):
    """The former ``numeric.nilpotent_search``: each end point polished with
    ``np.linalg.norm`` and deduplicated up to sign against the kept points
    one at a time, two norms each."""
    frame, tensor = numeric._setup(alg)
    starts = np.random.default_rng(seed).standard_normal((max(restarts, 0), alg.dim))
    found = []
    for start in starts:
        x = _polish_nilpotent_by_norms(tensor, numeric._descend(tensor, start))
        if np.linalg.norm(numeric._mul(tensor, x, x)) <= numeric.NILPOTENT_TOL:
            if x[np.argmax(np.abs(x))] < 0:
                x = -x
            if all(min(np.linalg.norm(x - other), np.linalg.norm(x + other)) > 1e-6 for other in found):
                found.append(x)
    return [frame @ x for x in found]


# -- isometric copies ---------------------------------------------------------


def isometry(n, order, signs, pair):
    """Q, a signed permutation followed by the rotation (3/5, 4/5) in the
    plane of the coordinates in pair, as dense rows; Q^T = Q^-1, so row z
    of Q holds the coordinates of e_z in the basis Q e_i."""
    q = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        q[order[i]][i] = Scalar(signs[i])
    if pair[0] != pair[1]:
        a, b = pair
        rotation = xl.identity(n)
        rotation[a][a], rotation[a][b] = Scalar(Fraction(3, 5)), Scalar(Fraction(-4, 5))
        rotation[b][a], rotation[b][b] = Scalar(Fraction(4, 5)), Scalar(Fraction(3, 5))
        q = xl.mat_mul(rotation, q)
    return q


def isometric_copy(alg, order, signs, pair):
    """alg in the basis e'_i = Q e_i for Q = ``isometry(...)``: the same
    algebra, with a metric Q^T G Q and an involution Q^T sigma Q that need
    not be diagonal."""
    return basis_copy(alg, isometry(alg.dim, order, signs, pair))


def cayley(n, seed):
    """Q = (I - S)(I + S)^-1, the Cayley transform of the skew S with
    S_ij = -S_ji = +-1/2 for i < j, signs drawn from seed: rational and
    orthogonal (I + S is invertible, as S is skew).  Entries +-1 would
    make Q a signed permutation at n = 2 and 3, and often at n = 4; +-1/2
    makes it dense."""
    rng = random.Random(seed)
    s = zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = Scalar(Fraction(rng.choice((1, -1)), 2))
            s[j][i] = -s[i][j]
    identity = xl.identity(n)
    return xl.mat_mul(mat_sub(identity, s), xl.inverse(mat_add(identity, s)))


def cayley_copy(alg, seed):
    """alg in the basis Q e_i for Q = ``cayley(alg.dim, seed)``: the same
    algebra, with a dense table, metric and involution."""
    return basis_copy(alg, cayley(alg.dim, seed))


def basis_copy(alg, q):
    """alg in the basis e'_i = Q e_i for a rational orthogonal Q given by
    dense rows, so that Q^-1 = Q^T."""
    n = alg.dim
    qt = xl.transpose(q)
    columns = xl.transpose(q)  # columns[i] = Q e_i
    entries = [
        (i, j, k, v)
        for i in range(n)
        for j in range(n)
        for k, v in enumerate(xl.mat_vec(qt, alg.multiply(columns[i], columns[j])))
    ]
    metric = xl.mat_mul(qt, xl.mat_mul(alg.metric, q))
    sigma = None if alg.involution is None else xl.mat_mul(qt, xl.mat_mul(alg.involution, q))
    return Algebra(n, entries, metric=metric, involution=sigma, commutative=alg.commutative)


# -- the former Cartan cubic ------------------------------------------------------


def cartan_cubic_by_products(d):
    """The cubic of the former ``catalog.cartan_cubic``: the 3 sqrt 3
    Re((z1 z2) z3) term from ``poly_product`` over the Hurwitz algebra
    hurwitz(d) and ``Polynomial`` arithmetic."""
    n = 3 * d + 2
    iw, it = 3 * d, 3 * d + 1
    half3 = Scalar(0, 3) / Scalar(2)  # (3/2) sqrt 3
    terms = {}

    def mono(coeff, *pairs):
        exps = [0] * n
        for idx, e in pairs:
            exps[idx] += e
        key = tuple(exps)
        terms[key] = terms[key] + coeff if key in terms else coeff

    mono(ONE, (it, 3))
    for b, sign in ((0, 1), (1, 1), (2, -2)):
        for i in range(d):
            mono(Scalar(sign) * Scalar(3) / Scalar(2), (it, 1), (b * d + i, 2))
    mono(Scalar(-3), (it, 1), (iw, 2))
    for i in range(d):
        mono(half3, (iw, 1), (d + i, 2))
        mono(-half3, (iw, 1), (i, 2))
    u = Polynomial(n, terms)
    if d:
        base = hurwitz(d)
        z1 = [Polynomial.variable(n, i) for i in range(d)]
        z2 = [Polynomial.variable(n, d + i) for i in range(d)]
        z3 = [Polynomial.variable(n, 2 * d + i) for i in range(d)]
        w12 = poly_product(base, z1, z2)
        real_part = Polynomial(n)
        for k in range(d):
            for l in range(d):
                column = base.table.get((k, l))
                if column:
                    c0 = column.get(0)
                    if c0:
                        real_part = real_part + w12[k] * z3[l] * c0
        u = u + Scalar(0, 3) * real_part
    return CubicForm.from_polynomial(u)


# -- the dense Clifford builder ------------------------------------------------


def int_kron(a, b):
    """The former ``catalog._int_kron``: the Kronecker product of dense int
    matrices, entry by entry."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            if a[i][j]:
                for k in range(rb):
                    for l in range(cb):
                        if b[k][l]:
                            out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a, b):
    n, m, c = len(a), len(b[0]), len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for k in range(c):
            if a[i][k]:
                f = a[i][k]
                for j in range(m):
                    if b[k][j]:
                        out[i][j] += f * b[k][j]
    return out


def dense_left_mult_tables(d):
    """Dense int matrices of left multiplication by the imaginary units of
    hurwitz(d): entry (k, j) of L(e_i) is the sign s of e_i e_j = s e_k."""
    table = hurwitz(d).table
    mats = []
    for i in range(1, d):
        op = [[0] * d for _ in range(d)]
        for j in range(d):
            for k, c in table.get((i, j), {}).items():
                op[k][j] = int(c.a)
        mats.append(op)
    return mats


def dense_complex_structure_family(m):
    """The former ``catalog._complex_structure_family`` on dense int
    matrices: rho(2^m)-1 pairwise anticommuting skew matrices squaring to
    -1 on R^(2^m)."""
    if m == 0:
        return []
    if m == 1:
        return [[[0, -1], [1, 0]]]
    if m == 2:
        return dense_left_mult_tables(4)
    if m == 3:
        return dense_left_mult_tables(8)
    b_mats = dense_left_mult_tables(8)
    eights = []
    for b in b_mats:
        top = [row + [0] * 8 for row in b]
        bottom = [[0] * 8 + [-x for x in row] for row in b]
        eights.append(top + bottom)
    swap = [[0] * 16 for _ in range(16)]
    for i in range(8):
        swap[i][8 + i] = 1
        swap[8 + i][i] = -1
    eights.append(swap)
    omega = int_identity(16)
    for e in eights:
        omega = int_mat_mul(omega, e)
    rest = dense_complex_structure_family(m - 4)
    k = 2 ** (m - 4)
    family = [int_kron(e, int_identity(k)) for e in eights]
    family.extend(int_kron(omega, j) for j in rest)
    return family


def dense_clifford_matrices(p, q):
    """The int matrices that the former ``catalog.clifford_system`` handed
    to ``CliffordSystem``, each block filled entry by entry."""
    twos = 0
    m = p
    while m % 2 == 0:
        twos += 1
        m //= 2
    odd = m
    family = dense_complex_structure_family(twos)[: max(q - 2, 0)]
    js = [int_kron(j, int_identity(odd)) for j in family]
    mats = []
    a1 = [[0] * (2 * p) for _ in range(2 * p)]
    for i in range(p):
        a1[i][i] = 1
        a1[p + i][p + i] = -1
    mats.append(a1)
    a2 = [[0] * (2 * p) for _ in range(2 * p)]
    for i in range(p):
        a2[i][p + i] = 1
        a2[p + i][i] = 1
    mats.append(a2)
    for j in js:
        a = [[0] * (2 * p) for _ in range(2 * p)]
        for r in range(p):
            for c in range(p):
                if j[r][c]:
                    a[r][p + c] = j[r][c]
                    a[p + r][c] = -j[r][c]
        mats.append(a)
    return mats[:q]


def two_product_clifford_check(p, q, matrices):
    """The former ``CliffordSystem`` validation, which took both products
    A_i A_j and A_j A_i of every pair: the dense Scalar matrices of an
    accepted system, or the ValueError the constructor raises."""
    n = 2 * p
    if len(matrices) != q:
        raise ValueError(f"expected {q} matrices, got {len(matrices)}")
    if q - 1 > rho(p):
        raise ValueError(f"q-1 <= rho(p) violated: rho({p})={rho(p)}, q={q}")
    shared = {1: ONE, -1: -ONE}
    sparse, mats = [], []
    for a in matrices:
        if len(a) != n or any(len(r) != n for r in a):
            raise ValueError(f"matrices must be {n}x{n}")
        rows = [{c: shared.get(v) or _scalarize(v) for c, v in enumerate(row) if v} for row in a]
        if _zpoly.transpose(rows) != rows:
            raise ValueError("system matrices must be symmetric")
        sparse.append(rows)
        mats.append([[row.get(c, ZERO) for c in range(n)] for row in rows])
    d = _zpoly.common_denominator(v for rows in sparse for row in rows for v in row.values())
    lifted = [_zpoly.lift_rows(rows, d) for rows in sparse]
    for i in range(q):
        for j in range(i, q):
            anti = map(_zpoly.add, _zpoly.matmul(lifted[i], lifted[j]), _zpoly.matmul(lifted[j], lifted[i]))
            if list(anti) != [{r: (2 * d * d, 0)} if i == j else {} for r in range(n)]:
                raise ValueError(f"anticommutation fails for pair ({i + 1}, {j + 1})")
    return mats


# -- the former Polynomial calculus and dense Gram assembly ---------------------


def partial(p, index):
    """The former ``Polynomial.partial``: d p / d x_index."""
    out = {}
    for exps, coeff in p.terms.items():
        e = exps[index]
        if e:
            lowered = list(exps)
            lowered[index] = e - 1
            out[tuple(lowered)] = coeff * e
    return Polynomial(p.nvars, out)


def evaluate(p, point):
    """The former ``Polynomial.evaluate``: p at a point of Scalars or ints."""
    total = ZERO
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value = value * _scalarize(x) ** e
        total = total + value
    return total


def dense_gram_from_quadratic(q, den):
    """The former ``analysis._gram_from_quadratic``: the Gram matrix of the
    quadratic form q / den, filled into ``zeros`` entry by entry."""
    ring = q.ring
    gram = zeros(ring.nvars, ring.nvars)
    for mono in q.monomials():
        i, j = analysis._monomial_witness(ring, mono)
        gram[i][j] = gram[j][i] = _zpoly.to_scalar(q.coefficient(mono), den if i == j else 2 * den)
    return gram


def dense_theta_gram(alg, theta):
    """The former Gram matrix of a radial verdict: theta G by ``mat_scale``."""
    return mat_scale(theta, alg.metric)
