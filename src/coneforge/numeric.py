"""Floating-point spectral analysis of commutative metrized algebras.

The exact layer answers identity questions; this module answers
spectral ones: locating idempotents, reading off eigenvalue
multiplicities of their multiplication operators, building the
mutation product on the small eigenspaces, and hunting square-zero
elements.  Everything runs in coordinates that are orthonormal for
the metric, so multiplication operators are honest symmetric matrices
and numpy.linalg.eigh applies.  Requires a positive definite metric
and no involution.  Each L(x) is one matrix-vector product with the
cached structure tensor, and every product, Jacobian and Peirce
operator is read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, _require_commutative_metrized

__all__ = [
    "PeirceData",
    "MutationReport",
    "orthonormal_frame",
    "structure_tensor",
    "find_idempotent",
    "peirce",
    "jordan_mutation",
    "nilpotent_search",
]

CANONICAL_EIGENVALUES = (-1.0, -0.5, 0.5, 1.0)
IDEMPOTENT_TOL = 1e-10  # Newton polishes an idempotent to |c c - c| <= this
NILPOTENT_TOL = 1e-8  # a nilpotent direction has |x x| <= this


def _require_spectral(alg: Algebra):
    _require_commutative_metrized(alg)
    if not alg.metric_is_definite():
        raise ValueError("spectral analysis needs a positive definite metric")
    if alg.involution is not None:
        # h(xy, z) = h(y, sigma(x) z): L(x) is not self-adjoint for h
        raise ValueError("spectral analysis needs an algebra without an involution")


def orthonormal_frame(alg: Algebra) -> np.ndarray:
    """Columns form a basis orthonormal for the metric (frame F, F^T G F = I).

    Computed from the algebra's exact LDL factorization so the only
    rounding is the final square root of the positive pivots.  Built
    once per algebra and returned as a read-only array.
    """
    if alg._frame is None:
        factored = alg.metric_ldl
        if factored is None:
            raise ValueError("spectral analysis needs a positive definite metric")
        lower, pivots = factored
        lf = np.array([[float(x) for x in row] for row in lower])
        df = np.array([float(x) for x in pivots])
        if np.any(df <= 0):
            raise ValueError("spectral analysis needs a positive definite metric")
        frame = np.linalg.solve(lf.T, np.diag(1.0 / np.sqrt(df)))
        frame.setflags(write=False)
        alg._frame = frame
    return alg._frame


def structure_tensor(alg: Algebra) -> np.ndarray:
    """Fully symmetric array T with (x * y)_k = sum_ij T[i, j, k] x_i y_j
    in orthonormal coordinates, built once per algebra (read-only)."""
    _require_spectral(alg)
    if alg._tensor is None:
        n = alg.dim
        raw = np.zeros((n, n, n))
        for (i, j), column in alg.table.items():
            for k, coeff in column.items():
                raw[i, j, k] = float(coeff)
        frame = orthonormal_frame(alg)
        inv = np.linalg.inv(frame)
        # optimize picks a pairwise contraction order: n^4 work, not one n^6 loop
        tensor = np.einsum("ia,jb,ijk,mk->abm", frame, frame, raw, inv, optimize=True)
        # C-contiguous, so the (n, n^2) view in _operator is free
        tensor = np.ascontiguousarray(tensor)
        tensor.setflags(write=False)
        alg._tensor = tensor
    return alg._tensor


def _setup(alg: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Frame and tensor of a spectral input, shared by the entry points."""
    tensor = structure_tensor(alg)
    return orthonormal_frame(alg), tensor


def _operator(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(x)[j, k] = sum_i tensor[i, j, k] x_i, off the (n, n^2) view."""
    n = len(x)
    return (x @ tensor.reshape(n, n * n)).reshape(n, n)


def _mul(tensor: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y @ _operator(tensor, x)


# The batched searches run every row through the same BLAS calls as one
# vector alone would (np.matmul on a stack of (1, n) rows calls gemv, or dot,
# per row), so a row's arithmetic, and every accept/reject decision, does
# not depend on how many other rows share the batch.


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row k of the result is np.dot(a[k], b[k])."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rownorm(a: np.ndarray) -> np.ndarray:
    """Row k of the result is np.linalg.norm(a[k])."""
    return np.sqrt(_rowdot(a, a))


def _apply_rows(ys: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Row k of the result is ys[k] @ matrices (or matrices[k], on a stack)."""
    return np.matmul(ys[:, None, :], matrices)[:, 0]


def _operators(tensor: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """L(y) of every row of ys, each read off the (n, n^2) view."""
    r, n = ys.shape
    return _apply_rows(ys, tensor.reshape(n, n * n)).reshape(r, n, n)


# Rows per batch.  A batch holds (rows, n, n) stacks of L(y), so blocks of
# at most _BLOCK rows keep them within _BLOCK n^2 entries whatever the
# restart count: no more than the n^3 of the tensor itself once n >= _BLOCK.
_BLOCK = 256


def _blockwise(search, tensor: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """search(tensor, block) over consecutive blocks of at most _BLOCK rows,
    stacked.  Rows never interact, so the result is that of one batch."""
    blocks = range(0, max(len(starts), 1), _BLOCK)
    return np.concatenate([search(tensor, starts[i : i + _BLOCK]) for i in blocks])


def _cubes(tensor: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row k of the result is <y y, y> for y = ys[k]."""
    return _rowdot(_apply_rows(ys, _operators(tensor, ys)), ys)


def _ascend_all(tensor: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Projected gradient ascent of the cubic form on the unit sphere, one
    row per start, all rows in one array.

    Each row keeps its own step: halved on a rejected move, grown by 1.2
    up to 1.0 on an accepted one.  A row stops when its tangent norm is
    below 1e-10, when it has gone 20 steps without a new smallest tangent
    norm (it has stalled), or when its step is below 1e-12; the others run
    on, up to 400 steps each.  Returns the end points, row for row.

    Rows that converge set a new smallest tangent norm every few steps
    (at most 12 apart on the catalog), so the stall stop never ends them.
    It ends the rows that cannot reach 1e-10: on the Cartan isoparametric
    members the idempotents are small (|c|^2 = 1/36 against 3/4 on the
    triples), the maximum on the sphere is that much steeper, and steps
    near the 1.0 cap overshoot along the -1 eigendirection.  Once the gain
    of a step is below the 1e-15 acceptance slack those moves are accepted,
    and the tangent norm levels off near 1e-7 from about step 20.  The
    Newton polish finishes such rows as it finishes the converged ones.
    """
    ends = starts / _rownorm(starts)[:, None]
    if not len(ends):
        return ends
    y, rows = ends.copy(), np.arange(len(ends))  # the row of ends each live row writes
    squares = _apply_rows(y, _operators(tensor, y))
    values = _rowdot(squares, y) / 6.0
    steps = np.full(len(y), 0.5)
    best = np.full(len(y), np.inf)  # smallest tangent norm so far
    last = np.full(len(y), -1)  # the round that set it
    for r in range(400):
        grad = 0.5 * squares
        tangent = grad - _rowdot(grad, y)[:, None] * y
        norms = _rownorm(tangent)
        lower = norms < best
        best, last = np.where(lower, norms, best), np.where(lower, r, last)
        # a step below 1e-12 stops its row here, a round late, at the same point
        moving = (norms >= 1e-10) & (last > r - 20) & (steps >= 1e-12)
        if not moving.all():
            ends[rows[~moving]] = y[~moving]
            state = rows, y, squares, values, steps, best, last, tangent
            rows, y, squares, values, steps, best, last, tangent = (a[moving] for a in state)
            if not len(rows):
                return ends
        candidate = y + steps[:, None] * tangent
        candidate /= _rownorm(candidate)[:, None]
        candidate_square = _apply_rows(candidate, _operators(tensor, candidate))
        new_value = _rowdot(candidate_square, candidate) / 6.0
        rejected = new_value <= values - 1e-15
        y = np.where(rejected[:, None], y, candidate)
        squares = np.where(rejected[:, None], squares, candidate_square)
        values = np.where(rejected, values, new_value)
        steps = np.minimum(steps * np.where(rejected, 0.5, 1.2), 1.0)  # a halved step is below 1.0
    ends[rows] = y
    return ends


def _newton_idempotent(tensor: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    eye = np.eye(len(c))
    for _ in range(60):
        lc = _operator(tensor, c)
        residual = c @ lc - c
        if math.sqrt(residual.dot(residual)) <= IDEMPOTENT_TOL:
            return c
        # the Jacobian 2 L(c) - I is singular on the half eigenspace, so
        # take the least-squares step instead of solving; singular values
        # below 1e-8 of the largest count as zero, since inverting the
        # near-null ones (about 1e-10) would amplify the rounding of c
        delta = np.linalg.lstsq(2.0 * lc - eye, -residual, rcond=1e-8)[0]
        if not np.all(np.isfinite(delta)):
            return None
        c = c + delta
        if math.sqrt(c.dot(c)) > 1e6:
            return None
    residual = _mul(tensor, c, c) - c
    return c if math.sqrt(residual.dot(residual)) <= IDEMPOTENT_TOL else None


def find_idempotent(
    alg: Algebra,
    restarts: int = 20,
    seed: int = 0,
) -> list[tuple[np.ndarray, float]]:
    """Pairs (c, residual) of nonzero idempotents c * c = c.

    The restarts are random directions, drawn as one (restarts, n)
    array, and all of them climb the cubic on the unit sphere together,
    as one batched gradient ascent with a step size per row.  A row stops
    at a critical point, or once it has stalled (see _ascend_all: the rows
    of the Cartan members level off short of the 1e-10 tangent stop).
    Each end point z is rescaled to z / <z z, z> and polished, one at a
    time, with Newton to residual <= IDEMPOTENT_TOL.  Results are
    deduplicated to 1e-6, each against the stack of those kept before it
    (other - c has the norm of c - other), and sorted deterministically;
    c is reported in original coordinates, the residual |c * c - c| in
    orthonormal ones.  Norms are np.linalg.norm's sqrt(x . x), here and in
    the polish.  An algebra whose cubic vanishes has no nonzero idempotent
    and yields the empty list.
    """
    frame, tensor = _setup(alg)
    starts = np.random.default_rng(seed).standard_normal((max(restarts, 0), alg.dim))
    ends = _blockwise(_ascend_all, tensor, starts[_rownorm(starts) >= 1e-12])
    if not len(ends):
        return []
    mus = _blockwise(_cubes, tensor, ends)
    found: list[np.ndarray] = []
    for z, mu in zip(ends, mus):
        if abs(mu) < 1e-8:
            continue
        polished = _newton_idempotent(tensor, z / mu)
        if polished is None or math.sqrt(polished.dot(polished)) < 1e-8:
            continue
        if not found or np.all(_rownorm(np.array(found) - polished) > 1e-6):
            found.append(polished)
    found.sort(key=lambda c: (round(np.sqrt(c.dot(c)), 9), tuple(np.round(c, 9))))
    residuals = ((c, _mul(tensor, c, c) - c) for c in found)
    return [(frame @ c, math.sqrt(r.dot(r))) for c, r in residuals]


@dataclass
class PeirceData:
    """Spectral summary of one idempotent's multiplication operator."""

    idempotent: np.ndarray
    residual: float
    eigenvalues: list[tuple[float, int]]
    n1: int
    n2: int
    d: int | None
    idempotent_norm: float
    scaled: bool = False

    def multiplicity(self, value: float, tol: float = 1e-6) -> int:
        return sum(m for v, m in self.eigenvalues if abs(v - value) <= tol)


def _cluster(values: np.ndarray, tol: float = 1e-6) -> list[tuple[float, int]]:
    clusters: list[tuple[float, int]] = []
    for v in np.sort(values):
        if clusters and abs(v - clusters[-1][0]) <= tol:
            center, count = clusters[-1]
            clusters[-1] = ((center * count + v) / (count + 1), count + 1)
        else:
            clusters.append((float(v), 1))
    return [(float(c), m) for c, m in clusters]


def peirce(
    alg: Algebra,
    idempotent: np.ndarray | None = None,
    seed: int = 0,
) -> PeirceData:
    """Eigenvalue decomposition of L(c) for an idempotent c.

    When no idempotent is supplied the first one found by
    find_idempotent, at its default restarts, is used.  Eigenvalues are clustered to 1e-6; a
    spectrum whose clusters sit away from {-1, -1/2, 1/2, 1} is
    reported with scaled=True rather than rejected.  n1 and n2 count
    the -1 and -1/2 multiplicities; d = (n2 - 2) / 3 when that is a
    nonnegative integer.
    """
    frame, tensor = _setup(alg)
    if idempotent is None:
        candidates = find_idempotent(alg, seed=seed)
        if not candidates:
            raise ValueError("no idempotent found")
        idempotent = candidates[0][0]
    c = np.linalg.solve(frame, np.asarray(idempotent, dtype=float))
    residual = float(np.linalg.norm(_mul(tensor, c, c) - c))
    operator = _operator(tensor, c)
    values = np.linalg.eigvalsh(operator)
    clusters = _cluster(values)
    scaled = any(
        min(abs(center - t) for t in CANONICAL_EIGENVALUES) > 1e-6 and abs(center) > 1e-10
        for center, _ in clusters
    )
    n1 = sum(m for v, m in clusters if abs(v + 1.0) <= 1e-6)
    n2 = sum(m for v, m in clusters if abs(v + 0.5) <= 1e-6)
    d = (n2 - 2) // 3 if n2 >= 2 and (n2 - 2) % 3 == 0 else None
    norm = float(np.dot(c, c))
    return PeirceData(
        idempotent=np.asarray(idempotent, dtype=float),
        residual=residual,
        eigenvalues=clusters,
        n1=n1,
        n2=n2,
        d=d,
        idempotent_norm=norm,
        scaled=scaled,
    )


@dataclass
class MutationReport:
    """Outcome of building the mutation product on A(1) + A(-1/2)."""

    dim: int
    basis: np.ndarray = field(repr=False)
    tensor: np.ndarray = field(repr=False)
    closure_residual: float
    jordan_residual: float
    trace_form_rank: int

    @property
    def closed(self) -> bool:
        return self.closure_residual <= 1e-8

    @property
    def jordan(self) -> bool:
        return self.jordan_residual <= 1e-7

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _mul(self.tensor, x, y)


def jordan_mutation(
    alg: Algebra,
    idempotent: np.ndarray | None = None,
    seed: int = 0,
    samples: int = 20,
) -> MutationReport:
    """Mutation x * y = x y / 2 + <x,c> y + <y,c> x - 2 <x y, c> c on the
    span of the eigenvalue-1 and eigenvalue-(-1/2) eigenspaces of L(c).

    Reports how far basis products leave the span, the worst Jordan
    identity residual over random sample pairs, and the rank of the
    trace form of the restricted product.
    """
    frame, tensor = _setup(alg)
    if idempotent is None:
        candidates = find_idempotent(alg, restarts=max(20, samples), seed=seed)
        if not candidates:
            raise ValueError("no idempotent found")
        idempotent = candidates[0][0]
    c = np.linalg.solve(frame, np.asarray(idempotent, dtype=float))
    operator = _operator(tensor, c)
    values, vectors = np.linalg.eigh(operator)
    keep = [k for k, v in enumerate(values) if abs(v - 1.0) <= 1e-6 or abs(v + 0.5) <= 1e-6]
    basis = vectors[:, keep]
    m = basis.shape[1]

    def mutate(x, y):
        xy = _mul(tensor, x, y)
        return 0.5 * xy + np.dot(x, c) * y + np.dot(y, c) * x - 2.0 * np.dot(xy, c) * c

    closure = 0.0
    mut = np.zeros((m, m, m))
    projector = basis @ basis.T
    for a in range(m):
        for b in range(a, m):
            product = mutate(basis[:, a], basis[:, b])
            inside = basis.T @ product
            closure = max(closure, float(np.linalg.norm(product - projector @ product)))
            mut[a, b, :] = inside
            mut[b, a, :] = inside

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        xx = _mul(mut, x, x)
        xy = _mul(mut, x, y)
        lhs = _mul(mut, xx, xy)
        rhs = _mul(mut, _mul(mut, xx, y), x)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))

    trace_gram = np.einsum("iak,jka->ij", mut, mut)
    rank = int(np.linalg.matrix_rank(trace_gram, tol=1e-8))
    return MutationReport(
        dim=m,
        basis=frame @ basis,
        tensor=mut,
        closure_residual=closure,
        jordan_residual=worst,
        trace_form_rank=rank,
    )


def _descend_all(tensor: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Projected descent of |x * x|^2 on the unit sphere, one row per
    start, all rows in one array.

    Each row keeps its own step: halved on a rejected move, grown by 1.2
    up to 0.5 on an accepted one.  A row stops when its tangent norm is
    below 1e-12 or its step below 1e-13; the others run on, up to
    400 steps each.  Returns the end points, row for row.
    """
    xs = starts / _rownorm(starts)[:, None]
    operators = _operators(tensor, xs)
    squares = _apply_rows(xs, operators)
    values = _rownorm(squares) ** 2
    steps = np.full(len(xs), 0.25)
    live = np.arange(len(xs))
    for _ in range(400):
        x = xs[live]
        # the gradient of |x x|^2 is 4 L(x) (x x), L(x) being symmetric
        grad = 4.0 * np.matmul(operators[live], squares[live][:, :, None])[:, :, 0]
        tangent = grad - _rowdot(grad, x)[:, None] * x
        moving = _rownorm(tangent) >= 1e-12
        live, x, tangent = live[moving], x[moving], tangent[moving]
        if not len(live):
            break
        candidate = x - steps[live][:, None] * tangent
        candidate /= _rownorm(candidate)[:, None]
        candidate_operators = _operators(tensor, candidate)
        candidate_square = _apply_rows(candidate, candidate_operators)
        new_value = _rownorm(candidate_square) ** 2
        rejected = new_value >= values[live]
        steps[live[rejected]] *= 0.5
        up, keep = live[~rejected], ~rejected
        xs[up], operators[up] = candidate[keep], candidate_operators[keep]
        squares[up], values[up] = candidate_square[keep], new_value[keep]
        steps[up] = np.minimum(steps[up] * 1.2, 0.5)
        live = live[steps[live] >= 1e-13]
    return xs


def _polish_nilpotent(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gauss-Newton steps on x * x = 0 along the sphere, while they help."""
    for _ in range(40):
        lx = _operator(tensor, x)
        square = x @ lx
        size = math.sqrt(square.dot(square))
        if size <= NILPOTENT_TOL * 0.1:
            break
        delta = np.linalg.lstsq(2.0 * lx, -square, rcond=1e-8)[0]  # as in _newton_idempotent
        delta -= np.dot(delta, x) * x
        step = math.sqrt(delta.dot(delta))
        if step > 1.0:
            delta /= step
        moved = x + delta
        moved /= math.sqrt(moved.dot(moved))
        moved_square = _mul(tensor, moved, moved)
        if math.sqrt(moved_square.dot(moved_square)) >= size:
            break
        x = moved
    return x


def nilpotent_search(
    alg: Algebra,
    restarts: int = 20,
    seed: int = 0,
) -> list[np.ndarray]:
    """Unit vectors with x * x numerically zero, up to sign.

    The restarts are random directions, drawn as one (restarts, n)
    array, and all of them descend |x * x|^2 on the unit sphere together,
    as one batched projected descent with a step size per row.  Each end
    point then gets a Gauss-Newton polish of its own; points whose square
    has norm <= NILPOTENT_TOL are kept, signed so the largest entry is
    positive and deduplicated to 1e-6 up to sign, against the stack of
    those kept before it and their negatives: when two entries tie for the
    largest, rounding picks the sign, so x and -x are one point.
    """
    frame, tensor = _setup(alg)
    starts = np.random.default_rng(seed).standard_normal((max(restarts, 0), alg.dim))
    found: list[np.ndarray] = []  # each point kept, then its negative
    for x in _blockwise(_descend_all, tensor, starts):
        x = _polish_nilpotent(tensor, x)
        square = _mul(tensor, x, x)
        if math.sqrt(square.dot(square)) <= NILPOTENT_TOL:
            if x[np.argmax(np.abs(x))] < 0:
                x = -x
            if not found or np.all(_rownorm(np.array(found) - x) > 1e-6):
                found += [x, -x]
    return [frame @ x for x in found[::2]]
