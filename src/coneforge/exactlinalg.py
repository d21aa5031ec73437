"""Exact linear algebra over Q(sqrt 3).

Matrices are plain lists of lists of Scalar, vectors are lists of
Scalar.  Everything here is exact.  Elimination (``rref``, behind
``inverse``, and ``ldl``) uses field division, always exact for Scalar,
and touches only nonzero entries; its rows may be dense or sparse as ``{column: value}``.  Only
``determinant`` uses the dense fraction-free Bareiss scheme.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

Matrix = list
Vector = list


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [dot(row, v) for row in a]


def dot(u: Vector, v: Vector) -> Scalar:
    total = ZERO
    for x, y in zip(u, v):
        if x and y:
            total = total + x * y
    return total


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


def _nonzero(row) -> dict:
    """The nonzero entries of a dense row or of a {column: value} row."""
    return {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}


def rref(a) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form and pivot columns, by sparse Gauss-Jordan.

    Rows are dense sequences or sparse {column: value}.  Only nonzero
    entries are scaled and eliminated.  The reduced rows come back
    sparse, one per pivot, in pivot order.
    """
    m = [_nonzero(row) for row in a]
    pivots: list[int] = []
    # elimination never fills a column that no row touches
    for c in sorted(set().union(*m)):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r].pop(c).inverse()
        row = {k: v * inv for k, v in m[r].items()}
        for i, target in enumerate(m):
            if i != r and c in target:
                f = target.pop(c)
                for k, v in row.items():
                    value = target.pop(k, ZERO) - f * v
                    if value:
                        target[k] = value
        row[c] = ONE
        m[r] = row
        pivots.append(c)
    return m[: len(pivots)], pivots


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    reduced, pivots = rref([{**_nonzero(row), n + i: ONE} for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, ZERO) for j in range(n)] for row in reduced]


def ldl(g: Matrix) -> tuple[Matrix, list[Scalar]] | None:
    """Unit lower triangular L and diagonal d with g = L diag(d) L^T.

    Requires all leading principal minors nonzero; returns None otherwise.
    Zero multipliers and zero entries of the pivot row are skipped.
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
        tail = [(j, m[k][j]) for j in range(k + 1, n) if m[k][j]]
        for i in range(k + 1, n):
            if not m[i][k]:
                continue
            f = m[i][k] / p
            lower[i][k] = f
            for j, v in tail:
                m[i][j] = m[i][j] - f * v
    return lower, d
