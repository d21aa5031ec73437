"""Finite-dimensional algebras with an invariant metric and involution.

An ``Algebra`` is a bilinear product on Q(sqrt 3)^n given by sparse
structure constants c[i][j][k] (so e_i * e_j = sum_k c[i][j][k] e_k),
together with a symmetric nondegenerate Gram matrix h and a linear
involution sigma (sigma^2 = id, identity when omitted).

The compatibility under test throughout this package is

    h(x * y, z) = h(x, z * sigma(y))    for all x, y, z,

which for identity sigma and a commutative product says the trilinear
form h(x * y, z) is symmetric in all three slots.

The exact forms (the trilinear form gram(e_i * e_j, e_k) behind the
invariance checks and the cubic, and the Killing form) are read off
the sparse table, not through dense operator matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import exactlinalg as xl
from ._zpoly import IntegerForms
from .scalars import ONE, Scalar, ZERO, scalar_format

__all__ = [
    "Algebra",
    "LinearMap",
    "Subspace",
    "Report",
    "check_metrized",
    "killing_form",
    "trace_form_twisted",
    "multilinearize",
    "find_unit",
    "is_exact",
]


def _scalarize(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


@dataclass
class Report:
    """Outcome of a single verification pass."""

    check: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "details": _jsonable(self.details),
            "witness": _jsonable(self.witness),
        }

    def __str__(self):
        head = "pass" if self.passed else "FAIL"
        tail = f" witness={self.witness}" if self.witness is not None else ""
        return f"[{head}] {self.check}{tail}"


def _jsonable(value):
    if isinstance(value, Scalar):
        return scalar_format(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _accumulate(acc: dict[int, Scalar], column: dict[int, Scalar], f: Scalar) -> None:
    """acc += f * column, for sparse vectors held as {index: value}."""
    for k, value in column.items():
        term = f * value
        acc[k] = acc[k] + term if k in acc else term


def _transpose_map(matrix: xl.Matrix) -> "LinearMap":
    """The transpose of a square matrix as a LinearMap: column m is row m."""
    return LinearMap(len(matrix), {m: {k: v for k, v in enumerate(row) if v} for m, row in enumerate(matrix)})


class LinearMap:
    """Square operator on Q(sqrt 3)^n held as sparse columns.

    columns[j] maps k to the nonzero entry in row k of column j, so the
    image of e_j is sum over k of columns[j][k] e_k; a missing j is a
    zero column.
    """

    __slots__ = ("dim", "columns")

    def __init__(self, dim: int, columns: dict[int, dict[int, Scalar]]):
        self.dim = dim
        self.columns = columns

    def apply(self, v):
        """The image of v, skipping the zero entries of v.

        v is a dense sequence, and then so is the image, or a sparse
        {index: value}, and then the image is one too; it may hold zero
        values where terms cancel.
        """
        sparse = isinstance(v, dict)
        acc: dict[int, Scalar] = {}
        for j, f in v.items() if sparse else enumerate(v):
            column = self.columns.get(j)
            if column and f:
                _accumulate(acc, column, f)
        if sparse:
            return acc
        out = [ZERO] * self.dim
        for k, value in acc.items():
            out[k] = value
        return out

    @property
    def matrix(self) -> xl.Matrix:
        """Dense rows; a rank takes the columns as rows instead."""
        rows = xl.zeros(self.dim, self.dim)
        for j, column in self.columns.items():
            for k, value in column.items():
                rows[k][j] = value
        return rows

    def __repr__(self):
        return f"LinearMap({self.dim}, {self.columns!r})"


class Subspace:
    """Subspace of Q(sqrt 3)^n held as a reduced echelon basis."""

    __slots__ = ("ambient_dim", "basis", "_reduced")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]):
        self.ambient_dim = ambient_dim
        rows = [[_scalarize(x) for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = xl.rref(rows)
        self.basis = [[row.get(c, ZERO) for c in range(ambient_dim)] for row in reduced]
        self._reduced = list(zip(reduced, pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def reduce(self, v: Sequence[Scalar]) -> list[Scalar]:
        """Residue of v after eliminating the basis directions."""
        w = [_scalarize(x) for x in v]
        for row, c in self._reduced:
            f = w[c]
            if f:
                for k, y in row.items():
                    w[k] = w[k] - f * y
        return w

    def orthogonal_complement(self, metric: xl.Matrix) -> "Subspace":
        """All w with h(b, w) = 0 for every basis vector b."""
        if not self.basis:
            return Subspace(self.ambient_dim, xl.identity(self.ambient_dim))
        rows = [xl.mat_vec(xl.transpose(metric), b) for b in self.basis]
        return Subspace(self.ambient_dim, xl.nullspace(rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Algebra:
    """Bilinear product with Gram matrix and involution on Q(sqrt 3)^n."""

    def __init__(
        self,
        dim: int,
        structure,
        metric: Sequence[Sequence] | None = None,
        involution: Sequence[Sequence] | None = None,
        commutative: bool = False,
        name: str = "",
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        self.commutative = commutative
        self.name = name
        self.table: dict[tuple[int, int], dict[int, Scalar]] = {}
        entries = structure.items() if isinstance(structure, dict) else structure
        for entry in entries:
            if isinstance(structure, dict):
                (i, j, k), coeff = entry
            else:
                i, j, k, coeff = entry
            coeff = _scalarize(coeff)
            if not coeff:
                continue
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure index out of range: {(i, j, k)}")
            column = self.table.setdefault((i, j), {})
            column[k] = column.get(k, ZERO) + coeff
        for key, column in list(self.table.items()):
            clean = {k: c for k, c in column.items() if c}
            if clean:
                self.table[key] = clean
            else:
                del self.table[key]

        if commutative:
            self._mirror_commutative()

        if metric is None:
            metric = xl.identity(dim)
        self.metric = [[_scalarize(x) for x in row] for row in metric]
        if len(self.metric) != dim or any(len(r) != dim for r in self.metric):
            raise ValueError("metric must be a square matrix of the algebra dimension")
        if not xl.is_symmetric(self.metric):
            raise ValueError("metric must be symmetric")
        if xl.rank(self.metric) < dim:
            raise ValueError("metric must be nondegenerate")

        if involution is None:
            self.involution = None
        else:
            sigma = [[_scalarize(x) for x in row] for row in involution]
            if len(sigma) != dim or any(len(r) != dim for r in sigma):
                raise ValueError("involution must be a square matrix of the algebra dimension")
            if not xl.mat_eq(xl.mat_mul(sigma, sigma), xl.identity(dim)):
                raise ValueError("involution must square to the identity")
            self.involution = None if xl.mat_eq(sigma, xl.identity(dim)) else sigma

        self._metrized_report: Report | None = None
        # read-only numpy arrays, filled by the numeric module on first use
        self._frame = None
        self._tensor = None

    def _mirror_commutative(self):
        for (i, j), column in list(self.table.items()):
            mirror = self.table.get((j, i))
            if mirror is None:
                if i != j:
                    self.table[(j, i)] = dict(column)
            elif mirror != column:
                raise ValueError(f"commutative flag but c[{i}][{j}] != c[{j}][{i}]")

    # -- basic queries ---------------------------------------------------

    def basis_vector(self, i: int) -> list[Scalar]:
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def structure_entries(self):
        for (i, j), column in sorted(self.table.items()):
            for k in sorted(column):
                yield i, j, k, column[k]

    @property
    def field_tag(self) -> str:
        for _, _, _, c in self.structure_entries():
            if c.b:
                return "Qr3"
        for row in self.metric:
            for c in row:
                if c.b:
                    return "Qr3"
        if self.involution:
            for row in self.involution:
                for c in row:
                    if c.b:
                        return "Qr3"
        return "Q"

    @property
    def has_involution(self) -> bool:
        return self.involution is not None

    @cached_property
    def metric_ldl(self) -> tuple[xl.Matrix, list[Scalar]] | None:
        """exactlinalg.ldl of the metric, factored once per algebra."""
        return xl.ldl(self.metric)

    @cached_property
    def _metric_map(self) -> LinearMap:
        """The metric as a sparse operator, built once per algebra (it is
        symmetric, so it is its own transpose)."""
        return _transpose_map(self.metric)

    @cached_property
    def _metric_form(self) -> dict[tuple[int, int, int], Scalar]:
        """The trilinear form h(e_i * e_j, e_k), built once per algebra.
        Shared by its readers, so never modified."""
        return _trilinear_form(self, self.metric)

    @cached_property
    def _kappa(self) -> xl.Matrix:
        """The Killing form tr L(x) L(y) as a Gram matrix, built once per
        algebra.  Shared by its readers, so never modified."""
        return _killing_matrix(self)

    @cached_property
    def _integer_forms(self) -> IntegerForms:
        """Table, metric and involution over one common denominator, with
        the generic powers x, x^2, x^3: the integer kernel's view of the
        algebra, built on first use."""
        return IntegerForms(self)

    def metric_is_definite(self) -> bool:
        """Is the metric positive definite?  Read off the cached LDL pivots."""
        factored = self.metric_ldl
        return factored is not None and all(p > ZERO for p in factored[1])

    # -- product and operators ---------------------------------------------

    def multiply(self, x: Sequence, y: Sequence) -> list[Scalar]:
        x = [_scalarize(v) for v in x]
        y = [_scalarize(v) for v in y]
        out = [ZERO] * self.dim
        for (i, j), column in self.table.items():
            f = x[i] * y[j]
            if not f:
                continue
            for k, coeff in column.items():
                out[k] = out[k] + f * coeff
        return out

    def mult_operator(self, x: Sequence, side: str = "left") -> LinearMap:
        """L(x) (y -> x y) or R(x) (y -> y x), read off the table on the
        support of x."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        columns: dict[int, dict[int, Scalar]] = {}
        for i, f in enumerate(x):
            f = _scalarize(f)
            if not f:
                continue
            for j in range(self.dim):
                column = self.table.get((i, j) if side == "left" else (j, i))
                if column:
                    _accumulate(columns.setdefault(j, {}), column, f)
        clean = ({k: c for k, c in out.items() if c} for out in columns.values())
        return LinearMap(self.dim, {j: out for j, out in zip(columns, clean) if out})

    def sigma(self, x: Sequence) -> list[Scalar]:
        x = [_scalarize(v) for v in x]
        if self.involution is None:
            return list(x)
        return xl.mat_vec(self.involution, x)

    def h(self, x: Sequence, y: Sequence) -> Scalar:
        x = [_scalarize(v) for v in x]
        y = [_scalarize(v) for v in y]
        return xl.dot(x, self._metric_map.apply(y))

    def square_norm(self, x: Sequence) -> Scalar:
        return self.h(x, x)

    def trace_of_left(self, i: int) -> Scalar:
        total = ZERO
        for j in range(self.dim):
            col = self.table.get((i, j))
            if col:
                total = total + col.get(j, ZERO)
        return total

    def rescaled(self, factor: Scalar, name: str | None = None) -> "Algebra":
        """Same metric and involution, product scaled by factor."""
        entries = [(i, j, k, factor * c) for i, j, k, c in self.structure_entries()]
        return Algebra(
            self.dim,
            entries,
            metric=self.metric,
            involution=self.involution,
            commutative=self.commutative,
            name=name if name is not None else self.name,
        )

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.table == other.table
            and self.metric == other.metric
            and (self.involution or None) == (other.involution or None)
            and self.commutative == other.commutative
        )

    def __repr__(self):
        tag = self.name or "?"
        return f"Algebra({tag}, dim={self.dim})"


# -- verification --------------------------------------------------------


def _trilinear_form(alg: Algebra, gram: xl.Matrix) -> dict[tuple[int, int, int], Scalar]:
    """Sparse {(i, j, k): gram(e_i * e_j, e_k)}, read off the structure table."""
    rows = [{k: g for k, g in enumerate(row) if g} for row in gram]
    form: dict[tuple[int, int, int], Scalar] = {}
    for (i, j), column in alg.table.items():
        for m, coeff in column.items():
            for k, g in rows[m].items():
                form[(i, j, k)] = form.get((i, j, k), ZERO) + coeff * g
    return form


def _invariance_witness(alg: Algebra, form: dict[tuple[int, int, int], Scalar]):
    """Least (i, j, k) in (j, i, k) order violating
    gram(e_i * e_j, e_k) = gram(e_i, e_k * sigma(e_j)).

    form is _trilinear_form(alg, gram) for a symmetric gram: the right
    side is then sum over m of sigma[m][j] gram(e_k * e_m, e_i).
    Returns None when the compatibility holds, together with the pair of
    exact values when it does not.
    """
    if alg.involution is None:
        twisted = {(i, j, k): value for (k, j, i), value in form.items()}
    else:
        sigma_rows = [{j: s for j, s in enumerate(row) if s} for row in alg.involution]
        twisted = {}
        for (k, m, i), value in form.items():
            for j, s in sigma_rows[m].items():
                twisted[(i, j, k)] = twisted.get((i, j, k), ZERO) + s * value
    bad = [t for t in form.keys() | twisted.keys() if form.get(t, ZERO) != twisted.get(t, ZERO)]
    if not bad:
        return None, None, None
    triple = min(bad, key=lambda t: (t[1], t[0], t[2]))
    return triple, form.get(triple, ZERO), twisted.get(triple, ZERO)


def check_metrized(alg: Algebra) -> Report:
    """Compatibility of metric, product, and involution.

    Checks that sigma is an isometry of the metric and that the product
    satisfies h(x*y, z) = h(x, z*sigma(y)) on all basis triples.  For
    identity sigma on a commutative algebra this is full symmetry of the
    cubic form h(x*y, z).
    """
    if alg._metrized_report is not None:
        return alg._metrized_report
    details: dict = {}
    witness = None
    passed = True
    if alg.involution is not None:
        sig = alg.involution
        pulled = xl.mat_mul(xl.transpose(sig), xl.mat_mul(alg.metric, sig))
        if not xl.mat_eq(pulled, alg.metric):
            bad = next(
                (i, j)
                for i in range(alg.dim)
                for j in range(alg.dim)
                if pulled[i][j] != alg.metric[i][j]
            )
            report = Report(
                "metrized",
                False,
                {
                    "condition": "involution must be an isometry",
                    "lhs": pulled[bad[0]][bad[1]],
                    "rhs": alg.metric[bad[0]][bad[1]],
                },
                witness=bad,
            )
            alg._metrized_report = report
            return report
    triple, lhs, rhs = _invariance_witness(alg, alg._metric_form)
    if triple is not None:
        passed = False
        witness = triple
        details = {
            "condition": "h(x*y, z) = h(x, z*sigma(y))",
            "lhs": lhs,
            "rhs": rhs,
        }
    report = Report("metrized", passed, details, witness)
    alg._metrized_report = report
    return report


def _require_commutative_metrized(alg: Algebra):
    """Reject input outside the commutative metrized class with ValueError."""
    if not alg.commutative:
        raise ValueError("algebra must be commutative")
    report = check_metrized(alg)
    if not report.passed:
        raise ValueError(f"algebra is not metrized (witness {report.witness})")


def killing_form(alg: Algebra) -> tuple[xl.Matrix, bool, bool]:
    """Gram matrix of kappa(x, y) = trace L(x) L(y), with flags.

    Returns (matrix, invariant, nondegenerate) where invariance means
    kappa satisfies the same compatibility as the metric in
    check_metrized (sigma-twisted when an involution is present).
    """
    kappa = [list(row) for row in alg._kappa]
    triple, _, _ = _invariance_witness(alg, _trilinear_form(alg, kappa))
    return kappa, triple is None, xl.rank(kappa) == alg.dim


def _killing_matrix(alg: Algebra) -> xl.Matrix:
    """kappa[i][j] = sum over k, m of c[i][m][k] c[j][k][m], from the table."""
    n = alg.dim
    slots: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for (i, m), column in alg.table.items():
        for k, coeff in column.items():
            slots.setdefault((m, k), []).append((i, coeff))
    kappa = [[ZERO] * n for _ in range(n)]
    for (m, k), left in slots.items():
        right = slots.get((k, m))
        if right:
            for i, c in left:
                row = kappa[i]
                for j, d in right:
                    row[j] = row[j] + c * d
    return kappa


def trace_form_twisted(alg: Algebra) -> xl.Matrix:
    """Symmetrized Gram matrix of (x, y) -> trace L(x) L(sigma(y)).

    That is the symmetric part of kappa sigma, and kappa itself when
    there is no involution.
    """
    kappa = alg._kappa
    if alg.involution is None:
        return [list(row) for row in kappa]
    # row i of kappa sigma is sigma^T applied to row i of kappa
    sigma_t = _transpose_map(alg.involution)
    product = [sigma_t.apply(row) for row in kappa]
    half = ONE / Scalar(2)
    return [[(a + b) * half for a, b in zip(row, col)] for row, col in zip(product, zip(*product))]


def multilinearize(func: Callable, args: Sequence[Sequence[Scalar]]):
    """Full polarization of a homogeneous degree-m map at m arguments.

    T(x_1, ..., x_m) = (1/m!) sum over nonempty S of (-1)^(m-|S|) F(sum_S x_i).
    Works for scalar-valued and vector-valued F.
    """
    m = len(args)
    if m == 0:
        raise ValueError("at least one argument required")
    n = len(args[0])
    factorial = 1
    for i in range(2, m + 1):
        factorial *= i
    scale = ONE / Scalar(factorial)
    total = None
    for mask in range(1, 1 << m):
        point = [ZERO] * n
        bits = 0
        for t in range(m):
            if mask >> t & 1:
                bits += 1
                point = [p + _scalarize(a) for p, a in zip(point, args[t])]
        value = func(point)
        sign = 1 if (m - bits) % 2 == 0 else -1
        if isinstance(value, (list, tuple)):
            value = [scale * _scalarize(v) for v in value]
            if sign < 0:
                value = [-v for v in value]
            if total is None:
                total = value
            else:
                total = [a + b for a, b in zip(total, value)]
        else:
            value = scale * _scalarize(value)
            if sign < 0:
                value = -value
            total = value if total is None else total + value
    return total


def find_unit(alg: Algebra) -> list[Scalar] | None:
    """Two-sided unit element, or None.

    L(e) = I is a linear system in e with one row per entry; its
    distinct rows are solved at once.  A two-sided unit u is the only
    left unit (e = e u = u), so the solution is u exactly when R(e) = I.
    """
    n = alg.dim
    # (j, k) -> {i: c[i][j][k]}, the row of entry (k, j) of L(e) = I
    entries: dict[tuple[int, int], dict[int, Scalar]] = {(j, j): {} for j in range(n)}
    for (i, j), column in alg.table.items():
        for k, c in column.items():
            entries.setdefault((j, k), {})[i] = c
    # distinct (row, right-hand side) pairs, keyed by the sparse row
    system = dict.fromkeys((tuple(sorted(row.items())), j == k) for (j, k), row in entries.items())
    e = xl.solve([dict(row) for row, _ in system], [ONE if diagonal else ZERO for _, diagonal in system], n)
    if e is None or alg.mult_operator(e, "right").columns != {j: {j: ONE} for j in range(n)}:
        return None
    return e


def is_exact(alg: Algebra) -> bool:
    """True when every left multiplication is trace free."""
    return all(not alg.trace_of_left(i) for i in range(alg.dim))
