"""Exact linear algebra over Q(sqrt 3).

Matrices are plain lists of lists of Scalar, vectors are lists of
Scalar.  Everything here is exact: elimination uses field division
(always exact for Scalar) and the determinant uses the fraction-free
Bareiss scheme so intermediate entries stay in the subring generated
by the input.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

Matrix = list
Vector = list


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[_dot(row, col) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [_dot(row, v) for row in a]


def _dot(u: Vector, v: Vector) -> Scalar:
    total = ZERO
    for x, y in zip(u, v):
        if x and y:
            total = total + x * y
    return total


def dot(u: Vector, v: Vector) -> Scalar:
    return _dot(u, v)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def determinant(a: Matrix) -> Scalar:
    """Bareiss fraction-free determinant with row pivoting."""
    n = len(a)
    if n == 0:
        return ONE
    m = [list(row) for row in a]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot_row is None:
                return ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = m[k][k]
    value = m[n - 1][n - 1]
    return value if sign > 0 else -value


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns."""
    if not a:
        return [], []
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return []
    cols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return x


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel."""
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def ldl(g: Matrix) -> tuple[Matrix, list[Scalar]] | None:
    """Unit lower triangular L and diagonal d with g = L diag(d) L^T.

    Requires all leading principal minors nonzero; returns None otherwise.
    """
    n = len(g)
    m = [list(row) for row in g]
    lower = identity(n)
    d: list[Scalar] = []
    for k in range(n):
        p = m[k][k]
        if not p:
            return None
        d.append(p)
        for i in range(k + 1, n):
            f = m[i][k] / p
            lower[i][k] = f
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - f * m[k][j]
    return lower, d
