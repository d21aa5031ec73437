"""Finite-dimensional algebras with an invariant metric and involution.

An ``Algebra`` is a bilinear product on Q(sqrt 3)^n given by sparse
structure constants c[i][j][k] (so e_i * e_j = sum_k c[i][j][k] e_k),
passed as entries (i, j, k, c) whose repeated slots add up, together
with a symmetric nondegenerate Gram matrix h and a linear involution
sigma (sigma^2 = id, identity when omitted).

The compatibility under test throughout this package is

    h(x * y, z) = h(x, z * sigma(y))    for all x, y, z,

which for identity sigma and a commutative product says the trilinear
form h(x * y, z) is symmetric in all three slots.

The exact forms (the trilinear form gram(e_i * e_j, e_k) behind the
invariance checks and the cubic, the Killing form and the twisted trace
form) are computed on the integer view of the table, ``_integer_forms``:
the table, metric and involution over Z[sqrt 3] with one common
denominator D.  The constructor builds it once and validates the metric
and the involution on it.  A value becomes a Scalar again only where it
is output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import _zpoly
from . import exactlinalg as xl
from ._zpoly import IntegerForms
from .scalars import ONE, Scalar, ZERO, scalar_format

__all__ = [
    "Algebra",
    "Subspace",
    "Report",
    "check_metrized",
    "killing_form",
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


class Subspace:
    """Subspace of Q(sqrt 3)^n held as a reduced echelon basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]):
        self.ambient_dim = ambient_dim
        rows = [[_scalarize(x) for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        self.basis = [[row.get(c, ZERO) for c in range(ambient_dim)] for row in xl.rref(rows)[0]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Algebra:
    """Bilinear product with Gram matrix and involution on Q(sqrt 3)^n."""

    def __init__(
        self,
        dim: int,
        structure: Iterable[tuple[int, int, int, object]],
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
        # one read of the entries; a column can hold a zero only where a
        # repeated slot was summed, so only then is the table cleaned
        self.table = table = {}  # (i, j) -> {k: c}
        summed = False
        for i, j, k, coeff in structure:
            if not isinstance(coeff, Scalar):
                coeff = Scalar(coeff)
            if not coeff:
                continue
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure index out of range: {(i, j, k)}")
            column = table.get((i, j))
            if column is None:
                table[i, j] = {k: coeff}
            elif k in column:
                column[k] += coeff
                summed = True
            else:
                column[k] = coeff
        if summed:
            for key, column in list(table.items()):
                clean = {k: c for k, c in column.items() if c}
                if clean:
                    table[key] = clean
                else:
                    del table[key]

        if commutative:
            self._mirror_commutative()

        self.metric, metric_rows = self._read_square(xl.identity(dim) if metric is None else metric, "metric")
        self.involution, sigma_rows = (None, None) if involution is None else self._read_square(involution, "involution")

        # the one lift; an identity sigma has denominator 1, so D is as without it
        forms = self._integer_forms = IntegerForms(dim, table, metric_rows, sigma_rows)
        if forms.metric_rows != _zpoly.transpose(forms.metric_rows):
            raise ValueError("metric must be symmetric")
        # a diagonal metric (its entries are nonzero) is nondegenerate without elimination
        if any(len(row) != 1 or i not in row for i, row in enumerate(forms.metric_rows)) and _zpoly.rank(forms.metric_rows) < dim:
            raise ValueError("metric must be nondegenerate")
        sigma = forms.involution_rows
        if sigma is not None:
            d = forms.denominator
            if _zpoly.matmul(sigma, sigma) != [{i: (d * d, 0)} for i in range(dim)]:
                raise ValueError("involution must square to the identity")
            if sigma == [{i: (d, 0)} for i in range(dim)]:
                self.involution = forms.involution_rows = None

        self._metrized_report: Report | None = None
        # read-only numpy arrays, filled by the numeric module on first use
        self._frame = None
        self._tensor = None

    def _read_square(self, matrix, what: str) -> tuple[xl.Matrix, list[dict[int, Scalar]]]:
        """The dense Scalar rows of a dim x dim matrix and their nonzero
        entries, read in one pass.  Documents and xl.identity share ZERO,
        so most zeros are skipped by identity."""
        dense, nonzero = [], []
        for row in matrix:
            row = [x if isinstance(x, Scalar) else Scalar(x) for x in row]
            dense.append(row)
            nonzero.append({j: c for j, c in enumerate(row) if c is not ZERO and c})
        if len(dense) != self.dim or any(len(row) != self.dim for row in dense):
            raise ValueError(f"{what} must be a square matrix of the algebra dimension")
        return dense, nonzero

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
        return "Q" if self._integer_forms.rational else "Qr3"

    @cached_property
    def metric_ldl(self) -> tuple[xl.Matrix, list[Scalar]] | None:
        """exactlinalg.ldl of the metric, factored once per algebra."""
        return xl.ldl(self.metric)

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

    def sigma(self, x: Sequence) -> list[Scalar]:
        x = [_scalarize(v) for v in x]
        if self.involution is None:
            return list(x)
        return xl.mat_vec(self.involution, x)

    def h(self, x: Sequence, y: Sequence) -> Scalar:
        x = [_scalarize(v) for v in x]
        y = [_scalarize(v) for v in y]
        return sum((xi * xl.dot(row, y) for xi, row in zip(x, self.metric) if xi), ZERO)

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


def check_metrized(alg: Algebra) -> Report:
    """Compatibility of metric, product, and involution.

    Checks that sigma is an isometry of the metric and that the product
    satisfies h(x*y, z) = h(x, z*sigma(y)) on all basis triples.  For
    identity sigma on a commutative algebra this is full symmetry of the
    cubic form h(x*y, z).
    """
    if alg._metrized_report is not None:
        return alg._metrized_report
    forms = alg._integer_forms
    d = forms.denominator
    bad = None
    if forms.involution_rows is not None:
        # D^3 sigma^T G sigma against D^3 G
        sigma = forms.involution_rows
        pulled = _zpoly.matmul(_zpoly.transpose(sigma), _zpoly.matmul(forms.metric_rows, sigma))
        for i, (row, metric_row) in enumerate(zip(pulled, forms.metric_rows)):
            scaled = {l: (a * d * d, b * d * d) for l, (a, b) in metric_row.items()}
            if row != scaled:
                bad = i, min(j for j in row.keys() | scaled.keys() if row.get(j) != scaled.get(j))
                break
    if bad is not None:
        i, j = bad
        lhs = _zpoly.to_scalar(pulled[i].get(j, (0, 0)), d**3)
        details = {"condition": "involution must be an isometry", "lhs": lhs, "rhs": alg.metric[i][j]}
        report = Report("metrized", False, details, witness=bad)
    else:
        triple, lhs, rhs = forms.invariance_witness(forms.metric_form, d * d)
        details = {"condition": "h(x*y, z) = h(x, z*sigma(y))", "lhs": lhs, "rhs": rhs} if triple else {}
        report = Report("metrized", triple is None, details, triple)
    alg._metrized_report = report
    return report


def _require_commutative_metrized(alg: Algebra):
    """Reject input outside the commutative metrized class with ValueError."""
    if not alg.commutative:
        raise ValueError("algebra must be commutative")
    report = check_metrized(alg)
    if not report.passed:
        raise ValueError(f"algebra is not metrized (witness {report.witness})")


def _require_spectral(alg: Algebra):
    """Reject input outside the domain of the spectral layer with ValueError."""
    _require_commutative_metrized(alg)
    if not alg.metric_is_definite():
        raise ValueError("spectral analysis needs a positive definite metric")
    if alg.involution is not None:
        # h(xy, z) = h(y, sigma(x) z): L(x) is not self-adjoint for h
        raise ValueError("spectral analysis needs an algebra without an involution")


def _peirce_d(n2: int) -> int | None:
    """d when the -1/2 multiplicity is n2 = 3d + 2 (as on triples), else None."""
    return (n2 - 2) // 3 if n2 >= 2 and (n2 - 2) % 3 == 0 else None


def _killing_witness(forms: IntegerForms) -> tuple[int, int, int] | None:
    """Least triple violating the invariance of kappa, or None."""
    return forms.invariance_witness(forms.trilinear(forms.kappa), forms.denominator**3)[0]


def killing_form(alg: Algebra) -> tuple[xl.Matrix, bool, bool]:
    """Gram matrix of kappa(x, y) = trace L(x) L(y), with flags.

    Returns (matrix, invariant, nondegenerate) where invariance means
    kappa satisfies the same compatibility as the metric in
    check_metrized (sigma-twisted when an involution is present).
    """
    forms = alg._integer_forms
    kappa = forms.kappa
    matrix = _zpoly.to_matrix(kappa, forms.denominator**2)
    return matrix, _killing_witness(forms) is None, _zpoly.rank(kappa) == alg.dim


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

    L(e) = I and R(e) = I together are a linear system in e with one row
    per entry of each; its distinct rows are solved at once.  A two-sided
    unit is unique, so a solution is the unit.  R(e) is L(e) of the
    transposed table, so a commutative table needs the rows of L(e) = I
    only.  The rows are those of the integer table D c of
    ``_integer_forms``, deduplicated, with D on the right of the diagonal
    rows: D times the Scalar system, solved fraction-free over Z[sqrt 3].
    A diagonal row that no entry reaches reads 0 = D, so it refutes a unit
    before any row is deduplicated.
    """
    n = alg.dim
    forms = alg._integer_forms
    slots = [forms.slots]
    if not alg.commutative:
        slots.append([(j, i, column) for i, j, column in forms.slots])
    # (table, j, k) -> {i: D c[i][j][k]}, row (k, j) of [L(e) | I], D at column n
    entries: dict[tuple[int, int, int], dict[int, tuple[int, int]]] = {}
    for t, table in enumerate(slots):
        entries.update(((t, j, j), {n: (forms.denominator, 0)}) for j in range(n))
        for i, j, column in table:
            for k, c in column:
                entries.setdefault((t, j, k), {})[i] = c
        if any(len(entries[t, j, j]) == 1 for j in range(n)):
            return None
    return _zpoly.solve(list({tuple(sorted(row.items())): row for row in entries.values()}.values()), n)


def is_exact(alg: Algebra) -> bool:
    """True when every left multiplication is trace free."""
    return all(t == (0, 0) for t in alg._integer_forms.traces)
