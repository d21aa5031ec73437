"""Built-in algebra constructions.

Everything here is assembled from integer (occasionally sqrt-3) data:
the four real division algebras by Cayley-Dickson doubling, their
para twists, cross products in dimensions 3 and 7, the six-dimensional
two-fold cross product algebra, symmetric Clifford systems and their
polar algebras, the isoparametric cubics with their associated
commutative algebras, and the tripling construction that turns a
metrized algebra with involution into a commutative one three times
the size.

Catalog name grammar (see ``construct``):

    R | C | H | O | paraC | paraH(d) | cross3 | cross7 | color
      | clifford(p,q) | cartan(d) | triple(<name>)

Names compose, e.g. ``triple(cross7)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import _zpoly
from . import exactlinalg as xl
from .algebra import Algebra, _scalarize, check_metrized
from .cubic import algebra_from_cubic
from .polynomials import CubicForm
from .scalars import ONE, Scalar, ZERO

__all__ = [
    "CatalogNameError",
    "CliffordSystem",
    "hurwitz",
    "para_complex",
    "cross_product",
    "vector_color",
    "rho",
    "clifford_system",
    "polar_from_clifford",
    "cartan_cubic",
    "triple",
    "construct",
    "catalog_names",
]

HURWITZ_DIMS = (1, 2, 4, 8)
CARTAN_DIMS = (0, 1, 2, 4, 8)


class CatalogNameError(ValueError):
    """Unknown or inadmissible catalog construction."""


# -- Cayley-Dickson tables -------------------------------------------------


def _cd_product(i: int, j: int, d: int) -> tuple[int, int]:
    """Basis product e_i e_j = sign * e_k in the dimension-d doubling tower."""
    if d == 1:
        return 0, 1
    m = d // 2
    if i < m and j < m:
        return _cd_product(i, j, m)
    if i < m and j >= m:
        # (a,0)(0,d) = (0, d a)
        k, s = _cd_product(j - m, i, m)
        return k + m, s
    if i >= m and j < m:
        # (0,b)(c,0) = (0, b conj(c))
        k, s = _cd_product(i - m, j, m)
        return k + m, s * _conj_sign(j)
    # (0,b)(0,d) = (-conj(d) b, 0)
    k, s = _cd_product(j - m, i - m, m)
    return k, -s * _conj_sign(j - m)


def _conj_sign(i: int) -> int:
    return 1 if i == 0 else -1


def _table_is_symmetric(entries) -> bool:
    seen = {}
    for i, j, k, c in entries:
        seen[(i, j, k)] = seen.get((i, j, k), ZERO) + c
    return all(value == seen.get((j, i, k), ZERO) for (i, j, k), value in seen.items())


def hurwitz(d: int, para: bool = False) -> Algebra:
    """Real division algebra of dimension d in {1,2,4,8}, or its para twist.

    The plain algebras carry the conjugation involution and the identity
    Gram matrix, so h(x,x) is the norm form.  The para twist multiplies
    conjugates (x, y) -> conj(x) conj(y) and carries the identity
    involution; for d >= 4 that combination is *not* metrized, which the
    checks in the analysis module detect rather than forbid here.
    """
    if d not in HURWITZ_DIMS:
        raise CatalogNameError(f"hurwitz dimension must be one of {HURWITZ_DIMS}, got {d}")
    entries = []
    for i in range(d):
        for j in range(d):
            k, s = _cd_product(i, j, d)
            if para:
                s *= _conj_sign(i) * _conj_sign(j)
            entries.append((i, j, k, s))
    if para:
        involution = None
        name = f"paraH({d})"
    else:
        involution = [
            [Scalar(_conj_sign(i)) if i == j else ZERO for j in range(d)] for i in range(d)
        ]
        name = {1: "R", 2: "C", 4: "H", 8: "O"}[d]
    return Algebra(
        d,
        entries,
        involution=involution,
        commutative=_table_is_symmetric(entries),
        name=name,
    )


def para_complex() -> Algebra:
    """Two-dimensional algebra e1*e1 = e1, e1*e2 = -e2, e2*e2 = -e1."""
    entries = [(0, 0, 0, 1), (0, 1, 1, -1), (1, 0, 1, -1), (1, 1, 0, -1)]
    return Algebra(2, entries, commutative=True, name="paraC")


def cross_product(dim: int) -> Algebra:
    """Anticommutative cross product on R^3 or R^7, with sigma = -id."""
    if dim == 3:
        entries = [
            (0, 1, 2, 1), (1, 0, 2, -1),
            (1, 2, 0, 1), (2, 1, 0, -1),
            (2, 0, 1, 1), (0, 2, 1, -1),
        ]
        name = "cross3"
    elif dim == 7:
        entries = []
        for i in range(1, 8):
            for j in range(1, 8):
                if i == j:
                    continue
                k, s = _cd_product(i, j, 8)
                # distinct imaginary units multiply into imaginary units
                entries.append((i - 1, j - 1, k - 1, s))
        name = "cross7"
    else:
        raise CatalogNameError(f"cross product exists in dimensions 3 and 7, got {dim}")
    minus = [[Scalar(-1) if i == j else ZERO for j in range(dim)] for i in range(dim)]
    return Algebra(dim, entries, involution=minus, name=name)


def vector_color() -> Algebra:
    """Six-dimensional doubling of the 3-dimensional cross product.

    (x', x'') * (y', y'') = (x' x y' - x'' x y'', -x' x y'' - x'' x y')
    with sigma = -id.
    """
    base = [
        (0, 1, 2, 1), (1, 0, 2, -1),
        (1, 2, 0, 1), (2, 1, 0, -1),
        (2, 0, 1, 1), (0, 2, 1, -1),
    ]
    entries = []
    for i, j, k, s in base:
        entries.append((i, j, k, s))
        entries.append((i + 3, j + 3, k, -s))
        entries.append((i, j + 3, k + 3, -s))
        entries.append((i + 3, j, k + 3, -s))
    minus = [[Scalar(-1) if i == j else ZERO for j in range(6)] for i in range(6)]
    return Algebra(6, entries, involution=minus, name="color")


# -- Clifford systems ------------------------------------------------------


def rho(m: int) -> int:
    """Hurwitz-Radon function: rho(2^(4a+b) odd) = 8a + 2^b."""
    if m < 1:
        raise ValueError("rho is defined for positive integers")
    twos = 0
    while m % 2 == 0:
        twos += 1
        m //= 2
    a, b = divmod(twos, 4)
    return 8 * a + 2**b


@dataclass
class CliffordSystem:
    """Symmetric matrices A_1..A_q on R^(2p) with A_i A_j + A_j A_i = 2 delta_ij."""

    p: int
    q: int
    matrices: list = field(repr=False)

    def __post_init__(self):
        n = 2 * self.p
        if len(self.matrices) != self.q:
            raise ValueError(f"expected {self.q} matrices, got {len(self.matrices)}")
        if self.q - 1 > rho(self.p):
            raise ValueError(
                f"q-1 <= rho(p) violated: rho({self.p})={rho(self.p)}, q={self.q}"
            )
        # each matrix is read once into sparse Scalar rows; the checks run
        # on the nonzero entries only, the products on their Z[sqrt 3] lift
        shared = {1: ONE, -1: -ONE}
        self._rows, mats = [], []
        for a in self.matrices:
            if len(a) != n or any(len(r) != n for r in a):
                raise ValueError(f"matrices must be {n}x{n}")
            rows = [{c: shared.get(v) or _scalarize(v) for c, v in enumerate(row) if v} for row in a]
            if _zpoly.transpose(rows) != rows:
                raise ValueError("system matrices must be symmetric")
            self._rows.append(rows)
            mats.append([[row.get(c, ZERO) for c in range(n)] for row in rows])
        self.matrices = mats
        d = _zpoly.common_denominator(v for rows in self._rows for row in rows for v in row.values())
        lifted = [_zpoly.lift_rows(rows, d) for rows in self._rows]
        for i in range(self.q):
            for j in range(i, self.q):
                anti = map(_zpoly.add, _zpoly.matmul(lifted[i], lifted[j]), _zpoly.matmul(lifted[j], lifted[i]))
                if list(anti) != [{r: (2 * d * d, 0)} if i == j else {} for r in range(n)]:
                    raise ValueError(f"anticommutation fails for pair ({i + 1}, {j + 1})")


def _int_kron(a: list, b: list) -> list:
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


def _int_identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_mat_mul(a: list, b: list) -> list:
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


def _left_mult_tables(d: int) -> list:
    """Integer matrices of left multiplication by the imaginary units of
    the Cayley-Dickson algebra of dimension d."""
    mats = []
    for i in range(1, d):
        # entry (k, j) of L(e_i) is the sign s of e_i e_j = s e_k
        op = [[0] * d for _ in range(d)]
        for j in range(d):
            k, s = _cd_product(i, j, d)
            op[k][j] = s
        mats.append(op)
    return mats


def _complex_structure_family(m: int) -> list:
    """rho(2^m)-1 pairwise anticommuting skew matrices squaring to -1 on R^(2^m)."""
    if m == 0:
        return []
    if m == 1:
        return [[[0, -1], [1, 0]]]
    if m == 2:
        return _left_mult_tables(4)
    if m == 3:
        return _left_mult_tables(8)
    # dimension 16 block: diag(B_i, -B_i) for the seven octonion units,
    # the symplectic swap, then the volume element tensored with the
    # family four steps down
    b_mats = _left_mult_tables(8)
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
    omega = _int_identity(16)
    for e in eights:
        omega = _int_mat_mul(omega, e)
    rest = _complex_structure_family(m - 4)
    k = 2 ** (m - 4)
    family = [_int_kron(e, _int_identity(k)) for e in eights]
    family.extend(_int_kron(omega, j) for j in rest)
    return family


def clifford_system(p: int, q: int) -> CliffordSystem:
    """Standard symmetric Clifford system with entries in {-1, 0, 1}.

    Exists exactly when q - 1 <= rho(p).
    """
    if p < 1 or q < 1:
        raise CatalogNameError("clifford_system needs p >= 1 and q >= 1")
    if q - 1 > rho(p):
        raise CatalogNameError(f"q-1 <= rho(p) violated: rho({p})={rho(p)}")
    twos = 0
    m = p
    while m % 2 == 0:
        twos += 1
        m //= 2
    odd = m
    family = _complex_structure_family(twos)[: max(q - 2, 0)]
    js = [_int_kron(j, _int_identity(odd)) for j in family]
    mats = []
    ident = _int_identity(p)
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
    return CliffordSystem(p, q, mats[:q])


def polar_from_clifford(system: CliffordSystem) -> Algebra:
    """Commutative algebra of the cubic u = (1/2) sum_k z_k <A_k y, y>.

    Coordinates: y in R^(2p) first, then z in R^q.  Products: y-vectors
    multiply into the z-block through the forms <A_k ., .>, a y-vector
    times a z-vector is A(z) y, and the z-block squares to zero.
    """
    p, q = system.p, system.q
    n2p = 2 * p
    dim = n2p + q
    entries = []
    for k, rows in enumerate(system._rows):
        zk = n2p + k
        for i, row in enumerate(rows):
            for j, v in row.items():
                if i <= j:
                    entries.append((i, j, zk, v))
                entries.append((i, zk, j, v))
    return Algebra(dim, entries, commutative=True, name=f"clifford({p},{q})")


def polar_zero_block(system_or_alg) -> list[int]:
    """Indices of the square-zero block of a catalog polar algebra."""
    if isinstance(system_or_alg, CliffordSystem):
        p, q = system_or_alg.p, system_or_alg.q
        return list(range(2 * p, 2 * p + q))
    m = re.fullmatch(r"clifford\((\d+),(\d+)\)", system_or_alg.name)
    if not m:
        raise ValueError("not a catalog polar algebra")
    p, q = int(m.group(1)), int(m.group(2))
    return list(range(2 * p, 2 * p + q))


# -- isoparametric cubics --------------------------------------------------


def cartan_cubic(d: int) -> tuple[CubicForm, Algebra]:
    """Isoparametric cubic in dimension 3d + 2 and its algebra (d in {0,1,2,4,8}).

    Coordinates: three blocks z1, z2, z3 of size d, then two reals
    (w = x_{3d+1}, t = x_{3d+2}).  The Gram matrix is the identity and
    the cubic solves |Du|^2 = 9 |x|^4.
    """
    if d not in CARTAN_DIMS:
        raise CatalogNameError(f"cartan dimension parameter must be one of {CARTAN_DIMS}")
    n = 3 * d + 2
    iw, it = 3 * d, 3 * d + 1
    half3 = Scalar(0, 3) / Scalar(2)  # (3/2) sqrt 3
    terms: dict[tuple, Scalar] = {}

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
    # 3 sqrt 3 Re((z1 z2) z3), term by term in k: e_i e_j = s e_k for
    # k = i xor j, and the real part of e_k e_k is conj_sign(k)
    for k in range(d):
        for i in range(d):
            s = _cd_product(i, i ^ k, d)[1]
            mono(Scalar(0, 3 * s * _conj_sign(k)), (i, 1), (d + (i ^ k), 1), (2 * d + k, 1))
    cubic = CubicForm(n, terms)
    return cubic, algebra_from_cubic(cubic, name=f"cartan({d})")


# -- tripling ----------------------------------------------------------------


def triple(alg: Algebra) -> Algebra:
    """Commutative algebra on three copies of a metrized algebra.

    Block products are the sigma-twisted originals placed cyclically:
    an element of block beta times one of block beta+1 lands in block
    beta+2, same-block products vanish.  The Gram matrix is the block
    diagonal of the source metric and the involution is the identity.
    """
    report = check_metrized(alg)
    if not report.passed:
        raise ValueError(
            f"tripling needs a metrized source (witness {report.witness})"
        )
    n = alg.dim
    sigma = alg.involution
    # sigma(e_j) is column j of the involution, kept sparse
    sigma_basis = [
        {j: ONE} if sigma is None else {a: sigma[a][j] for a in range(n) if sigma[a][j]}
        for j in range(n)
    ]
    twisted = {}
    for i in range(n):
        for j in range(n):
            # sigma(e_j) sigma(e_i) = sum_ab sigma[a][j] sigma[b][i] c_ab, off the table
            column: dict[int, Scalar] = {}
            for a, sa in sigma_basis[j].items():
                for b, sb in sigma_basis[i].items():
                    for k, coeff in alg.table.get((a, b), {}).items():
                        column[k] = column.get(k, ZERO) + sa * sb * coeff
            twisted[(j, i)] = [(k, column[k]) for k in sorted(column) if column[k]]
    entries = []
    for beta in range(3):
        src = beta * n
        dst_block = ((beta + 2) % 3) * n
        other = ((beta + 1) % 3) * n
        for i in range(n):
            for j in range(n):
                for k, value in twisted[(j, i)]:
                    entries.append((src + i, other + j, dst_block + k, value))
    metric = xl.zeros(3 * n, 3 * n)
    for beta in range(3):
        for i in range(n):
            for j in range(n):
                metric[beta * n + i][beta * n + j] = alg.metric[i][j]
    result = Algebra(
        3 * n,
        entries,
        metric=metric,
        commutative=True,
        name=f"triple({alg.name})",
    )
    result.source = alg
    return result


# -- name grammar ------------------------------------------------------------

_LEAVES = {
    "R": lambda: hurwitz(1),
    "C": lambda: hurwitz(2),
    "H": lambda: hurwitz(4),
    "O": lambda: hurwitz(8),
    "paraC": para_complex,
    "cross3": lambda: cross_product(3),
    "cross7": lambda: cross_product(7),
    "color": vector_color,
}


def catalog_names() -> list[str]:
    return sorted(_LEAVES) + ["paraH(d)", "clifford(p,q)", "cartan(d)", "triple(<name>)"]


def construct(name: str) -> Algebra:
    """Build a catalog algebra from its grammar name.

    Raises CatalogNameError for unknown heads, malformed argument lists,
    or inadmissible parameters.
    """
    text = name.strip()
    m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)\s*(?:\((.*)\))?", text, re.DOTALL)
    if not m:
        raise CatalogNameError(f"not a catalog name: {name!r}")
    head, inner = m.group(1), m.group(2)
    if inner is None:
        maker = _LEAVES.get(head)
        if maker is None:
            raise CatalogNameError(
                f"unknown catalog name {head!r}; known: {', '.join(catalog_names())}"
            )
        return maker()
    if head in _LEAVES:
        raise CatalogNameError(f"{head} takes no arguments")
    if head == "triple":
        return triple(construct(inner))
    args = [a.strip() for a in _split_top_level(inner)]
    if head == "paraH":
        return hurwitz(_int_arg(head, args, 1)[0], para=True)
    if head == "cartan":
        return cartan_cubic(_int_arg(head, args, 1)[0])[1]
    if head == "clifford":
        p, q = _int_arg(head, args, 2)
        return polar_from_clifford(clifford_system(p, q))
    raise CatalogNameError(
        f"unknown catalog name {head!r}; known: {', '.join(catalog_names())}"
    )


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    parts.append(text[start:])
    return parts


def _integer(text: str) -> int | None:
    """text, stripped of surrounding spaces, as an int if it is -?[0-9]+ in ASCII; else None."""
    text = text.strip()
    return int(text) if re.fullmatch(r"-?[0-9]+", text) else None


def _int_arg(head: str, args: list[str], count: int) -> list[int]:
    values = [_integer(a) for a in args]
    if len(values) != count or None in values:
        raise CatalogNameError(f"{head} expects {count} integer argument(s), got {args}")
    return values
