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

from .algebra import Algebra, _peirce_d, _require_spectral

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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a vector, without its wrapper."""
    return math.sqrt(v.dot(v))


def _ascend(tensor: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Projected gradient ascent of the cubic form on the unit sphere from
    one start; returns the end point.

    The step is halved on a rejected move and grown by 1.2 up to 1.0 on an
    accepted one.  The ascent stops when the tangent norm is below 1e-10,
    when the step is below 1e-12, after 400 steps, or once it has gone 20
    steps without a new smallest tangent norm.  That stall stop never ends
    a converging ascent, which sets a new smallest norm every few steps (at
    most 12 apart on the catalog).  It ends those on the Cartan
    isoparametric members, whose small idempotents (|c|^2 = 1/36) make the
    sphere maximum so steep that moves near the 1.0 step cap overshoot
    along the -1 eigendirection: once a step gains less than the 1e-15
    acceptance slack, such moves are accepted and the tangent norm levels
    off near 1e-7.  The Newton polish finishes these end points.
    """
    y = start / _norm(start)
    square = _mul(tensor, y, y)
    value = square.dot(y) / 6.0
    step, best, since = 0.5, math.inf, 0
    for _ in range(400):
        grad = 0.5 * square
        tangent = grad - grad.dot(y) * y
        norm = _norm(tangent)
        if norm < best:
            best, since = norm, 0
        else:
            since += 1
        if norm < 1e-10 or since >= 20:
            break
        candidate = y + step * tangent
        candidate /= _norm(candidate)
        candidate_square = _mul(tensor, candidate, candidate)
        new_value = candidate_square.dot(candidate) / 6.0
        if new_value <= value - 1e-15:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        y, square, value = candidate, candidate_square, new_value
        step = min(step * 1.2, 1.0)
    return y


def _newton_idempotent(tensor: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    eye = np.eye(len(c))
    for _ in range(60):
        lc = _operator(tensor, c)
        residual = c @ lc - c
        if _norm(residual) <= IDEMPOTENT_TOL:
            return c
        # the Jacobian 2 L(c) - I is singular on the half eigenspace, so
        # take the least-squares step instead of solving; singular values
        # below 1e-8 of the largest count as zero, since inverting the
        # near-null ones (about 1e-10) would amplify the rounding of c
        delta = np.linalg.lstsq(2.0 * lc - eye, -residual, rcond=1e-8)[0]
        if not np.all(np.isfinite(delta)):
            return None
        c = c + delta
        if _norm(c) > 1e6:
            return None
    return c if _norm(_mul(tensor, c, c) - c) <= IDEMPOTENT_TOL else None


def find_idempotent(
    alg: Algebra,
    restarts: int = 20,
    seed: int = 0,
) -> list[tuple[np.ndarray, float]]:
    """Pairs (c, residual) of nonzero idempotents c * c = c.

    The restarts are random directions, drawn as one (restarts, n) array;
    each start of norm at least 1e-12 climbs the cubic on the unit sphere
    (_ascend), and its end point z is rescaled to z / <z z, z> and polished
    with Newton to residual <= IDEMPOTENT_TOL.  Results are deduplicated to
    1e-6 against those kept before them and sorted deterministically; c is
    reported in original coordinates, the residual |c * c - c| in
    orthonormal ones.  Norms are np.linalg.norm's sqrt(x . x) throughout.
    An algebra whose cubic vanishes has no nonzero idempotent and yields
    the empty list.
    """
    frame, tensor = _setup(alg)
    starts = np.random.default_rng(seed).standard_normal((max(restarts, 0), alg.dim))
    found: list[np.ndarray] = []
    for start in starts:
        if _norm(start) < 1e-12:
            continue
        z = _ascend(tensor, start)
        mu = _mul(tensor, z, z).dot(z)
        if abs(mu) < 1e-8:
            continue
        polished = _newton_idempotent(tensor, z / mu)
        if polished is None or _norm(polished) < 1e-8:
            continue
        if all(_norm(polished - other) > 1e-6 for other in found):
            found.append(polished)
    found.sort(key=lambda c: (round(np.sqrt(c.dot(c)), 9), tuple(np.round(c, 9))))
    return [(frame @ c, _norm(_mul(tensor, c, c) - c)) for c in found]


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

    This is the library route to the float spectrum at any idempotent,
    and the fallback of analysis.spectral_summary, which decides the
    report's and the table's Peirce data exactly when its small-support
    walk finds an idempotent and calls this only when it does not.
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
    norm = float(np.dot(c, c))
    return PeirceData(
        idempotent=np.asarray(idempotent, dtype=float),
        residual=residual,
        eigenvalues=clusters,
        n1=n1,
        n2=n2,
        d=_peirce_d(n2),
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


def _descend(tensor: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Projected descent of |x * x|^2 on the unit sphere from one start;
    returns the end point.

    The step is halved on a rejected move and grown by 1.2 up to 0.5 on an
    accepted one.  The descent stops when the tangent norm is below 1e-12,
    when the step is below 1e-13, or after 400 steps.
    """
    x = start / _norm(start)
    lx = _operator(tensor, x)
    square = x @ lx
    value = _norm(square) ** 2
    step = 0.25
    for _ in range(400):
        # the gradient of |x x|^2 is 4 L(x) (x x), L(x) being symmetric
        grad = 4.0 * (lx @ square)
        tangent = grad - grad.dot(x) * x
        if _norm(tangent) < 1e-12:
            break
        candidate = x - step * tangent
        candidate /= _norm(candidate)
        candidate_lx = _operator(tensor, candidate)
        candidate_square = candidate @ candidate_lx
        new_value = _norm(candidate_square) ** 2
        if new_value >= value:
            step *= 0.5
            if step < 1e-13:
                break
            continue
        x, lx, square, value = candidate, candidate_lx, candidate_square, new_value
        step = min(step * 1.2, 0.5)
    return x


def _polish_nilpotent(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gauss-Newton steps on x * x = 0 along the sphere, while they help."""
    for _ in range(40):
        lx = _operator(tensor, x)
        square = x @ lx
        size = _norm(square)
        if size <= NILPOTENT_TOL * 0.1:
            break
        delta = np.linalg.lstsq(2.0 * lx, -square, rcond=1e-8)[0]  # as in _newton_idempotent
        delta -= np.dot(delta, x) * x
        step = _norm(delta)
        if step > 1.0:
            delta /= step
        moved = x + delta
        moved /= _norm(moved)
        if _norm(_mul(tensor, moved, moved)) >= size:
            break
        x = moved
    return x


def nilpotent_search(
    alg: Algebra,
    restarts: int = 20,
    seed: int = 0,
) -> list[np.ndarray]:
    """Unit vectors with x * x numerically zero, up to sign.

    The restarts are random directions, drawn as one (restarts, n) array;
    each one descends |x * x|^2 on the unit sphere in turn (see _descend)
    and gets a Gauss-Newton polish.  Points whose square has norm <=
    NILPOTENT_TOL are kept, signed so the largest entry is positive and
    deduplicated to 1e-6 up to sign against those kept before them: when
    two entries tie for the largest, rounding picks the sign, so x and -x
    are one point.
    """
    frame, tensor = _setup(alg)
    starts = np.random.default_rng(seed).standard_normal((max(restarts, 0), alg.dim))
    found: list[np.ndarray] = []
    for start in starts:
        x = _polish_nilpotent(tensor, _descend(tensor, start))
        if _norm(_mul(tensor, x, x)) <= NILPOTENT_TOL:
            if x[np.argmax(np.abs(x))] < 0:
                x = -x
            if all(_norm(x - other) > 1e-6 and _norm(x + other) > 1e-6 for other in found):
                found.append(x)
    return [frame @ x for x in found]
