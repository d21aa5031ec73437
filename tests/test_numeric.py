"""Spectral layer: idempotent location, Peirce multiplicities, mutation,
square-zero search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge.algebra import Algebra
from coneforge.catalog import cartan_cubic, construct, hurwitz, triple
from coneforge.cubic import algebra_from_cubic
from coneforge.polynomials import CubicForm, parse_polynomial
from coneforge import numeric
from coneforge.numeric import (
    _ascend,
    _descend,
    _mul,
    _newton_idempotent,
    _operator,
    _polish_nilpotent,
    find_idempotent,
    jordan_mutation,
    nilpotent_search,
    orthonormal_frame,
    peirce,
    structure_tensor,
)
from coneforge.scalars import Scalar
from oracles import dense_algebra_from_cubic, nilpotent_search_by_norms


def closest(points, target):
    target = np.asarray(target, dtype=float)
    return min(np.linalg.norm(p - target) for p in points)


@pytest.fixture(scope="module")
def triple_r():
    return triple(hurwitz(1))


@pytest.fixture(scope="module")
def harmonic():
    return cartan_cubic(0)[1]


class TestFrame:
    def test_identity_metric(self, triple_r):
        assert np.allclose(orthonormal_frame(triple_r), np.eye(3))

    def test_weighted_metric(self):
        alg = Algebra(
            2,
            [(0, 0, 0, 1), (1, 1, 1, 4)],
            metric=[[1, 0], [0, 4]],
            commutative=True,
        )
        frame = orthonormal_frame(alg)
        assert np.allclose(frame, np.diag([1.0, 0.5]))
        gram = frame.T @ np.array([[1.0, 0.0], [0.0, 4.0]]) @ frame
        assert np.allclose(gram, np.eye(2))

    def test_coupled_metric_orthonormalizes(self):
        alg = Algebra(2, [(0, 0, 0, 1)], metric=[[2, 1], [1, 1]], commutative=True)
        frame = orthonormal_frame(alg)
        gram = frame.T @ np.array([[2.0, 1.0], [1.0, 1.0]]) @ frame
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_indefinite_metric_rejected(self):
        alg = Algebra(
            2,
            [(0, 0, 0, 1), (1, 1, 1, -1)],
            metric=[[1, 0], [0, -1]],
            commutative=True,
        )
        with pytest.raises(ValueError, match="positive definite"):
            structure_tensor(alg)

    def test_noncommutative_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            structure_tensor(hurwitz(4))

    def test_involution_rejected(self):
        # C is commutative and metrized, but h(xy, z) = h(y, sigma(x) z)
        # leaves L(x) non-symmetric in any orthonormal frame
        alg = construct("C")
        for search in (structure_tensor, find_idempotent, peirce, nilpotent_search, jordan_mutation):
            with pytest.raises(ValueError, match="involution"):
                search(alg)


class TestStructureTensor:
    def test_fully_symmetric(self):
        tensor = structure_tensor(triple(hurwitz(2)))
        assert np.allclose(tensor, tensor.transpose(1, 0, 2))
        assert np.allclose(tensor, tensor.transpose(2, 1, 0))
        assert np.allclose(tensor, tensor.transpose(0, 2, 1))

    def test_built_once_per_algebra_and_read_only(self):
        alg = triple(hurwitz(2))
        frame, tensor = orthonormal_frame(alg), structure_tensor(alg)
        assert orthonormal_frame(alg) is frame and structure_tensor(alg) is tensor
        assert not frame.flags.writeable and not tensor.flags.writeable
        # an equal algebra is a new object with its own arrays
        assert structure_tensor(triple(hurwitz(2))) is not tensor

    def test_matches_table_for_identity_metric(self, triple_r):
        tensor = structure_tensor(triple_r)
        assert tensor[0, 1, 2] == pytest.approx(1.0)
        assert tensor[0, 0, 0] == pytest.approx(0.0)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_unordered_contraction(self, data):
        # a drawn cubic is a drawn symmetric tensor; a drawn metric
        # L diag(d) L^T, with unit lower L, gives a drawn frame
        n = data.draw(st.integers(1, 6), label="dim")
        monomial = st.lists(st.integers(0, n - 1), min_size=3, max_size=3).map(
            lambda idx: tuple(idx.count(i) for i in range(n))
        )
        coefficient = st.fractions(-5, 5, max_denominator=4).filter(bool).map(Scalar)
        terms = data.draw(st.dictionaries(monomial, coefficient, min_size=1, max_size=8), label="u")
        lower = np.eye(n, dtype=int)
        for i in range(n):
            for j in range(i):
                lower[i, j] = data.draw(st.integers(-2, 2))
        pivots = np.diag(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
        metric = (lower @ pivots @ lower.T).tolist()
        alg = dense_algebra_from_cubic(CubicForm(n, terms), metric=metric)
        raw = np.zeros((n, n, n))
        for (i, j), column in alg.table.items():
            for k, coeff in column.items():
                raw[i, j, k] = float(coeff)
        frame = orthonormal_frame(alg)
        old = np.einsum("ia,jb,ijk,mk->abm", frame, frame, raw, np.linalg.inv(frame))
        tensor = structure_tensor(alg)
        assert np.allclose(tensor, old, rtol=1e-12, atol=1e-12 * np.abs(old).max())


class TestOperator:
    @given(data=st.data(), symmetric=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_einsum_forms(self, data, symmetric):
        n = data.draw(st.integers(1, 7), label="dim")
        entry = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
        vector = st.lists(entry, min_size=n, max_size=n).map(np.array)
        entries = data.draw(st.lists(entry, min_size=n**3, max_size=n**3), label="tensor")
        tensor = np.array(entries).reshape(n, n, n)
        if symmetric:
            orders = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
            tensor = sum(tensor.transpose(order) for order in orders)
        x, y = data.draw(vector, label="x"), data.draw(vector, label="y")
        # 1e-12 relative to the sum of the absolute values of the terms
        product = np.einsum("ijk,i,j->k", tensor, x, y)
        scale = np.einsum("ijk,i,j->k", np.abs(tensor), np.abs(x), np.abs(y))
        assert np.all(np.abs(_mul(tensor, x, y) - product) <= 1e-12 * scale)
        operator = np.einsum("ijk,i->jk", tensor, x)
        scale = np.einsum("ijk,i->jk", np.abs(tensor), np.abs(x))
        assert np.all(np.abs(_operator(tensor, x) - operator) <= 1e-12 * scale)

    def test_spectral_routes_call_no_einsum_once_the_tensor_is_built(self, monkeypatch):
        alg = triple(construct("cross3"))
        structure_tensor(alg)
        calls = []
        einsum = np.einsum

        def counting(subscripts, *operands, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        assert find_idempotent(alg) and peirce(alg).n2 == 5
        nilpotent_search(alg)
        assert calls == []


# (n1, n2, d) of peirce(alg, seed=0) under the unordered
# tensor contraction, for every commutative catalog member with a definite
# metric and no involution
PEIRCE_TABLE = {
    "R": (0, 0, None), "paraC": (1, 0, None),
    "triple(R)": (0, 2, 0), "triple(C)": (1, 2, 0), "triple(H)": (3, 2, 0),
    "triple(O)": (7, 2, 0), "triple(paraC)": (1, 2, 0), "triple(paraH(2))": (1, 2, 0),
    "triple(cross3)": (0, 5, 1), "triple(cross7)": (4, 5, 1), "triple(color)": (1, 8, 2),
    "cartan(0)": (1, 0, None), "cartan(1)": (2, 0, None), "cartan(2)": (3, 0, None),
    "cartan(4)": (5, 0, None), "cartan(8)": (9, 0, None),
    "clifford(1,2)": (1, 1, None), "clifford(2,3)": (2, 1, None), "clifford(4,5)": (4, 1, None),
    "clifford(8,9)": (8, 1, None), "clifford(16,10)": (9, 8, 2),
}


@pytest.mark.parametrize("name", sorted(PEIRCE_TABLE))
def test_peirce_table_is_unchanged(name):
    data = peirce(construct(name), seed=0)
    assert (data.n1, data.n2, data.d) == PEIRCE_TABLE[name]


class TestFindIdempotent:
    def test_triple_r_idempotents(self, triple_r):
        pairs = find_idempotent(triple_r, restarts=30, seed=1)
        assert pairs
        for c, _ in pairs:
            assert np.dot(c, c) == pytest.approx(0.75, abs=1e-9)
        assert closest([c for c, _ in pairs], [0.5, 0.5, 0.5]) < 1e-8

    def test_harmonic_idempotents(self, harmonic):
        pairs = find_idempotent(harmonic, restarts=30, seed=2)
        assert pairs
        points = [c for c, _ in pairs]
        for c in points:
            assert np.dot(c, c) == pytest.approx(1.0 / 36.0, abs=1e-9)
        assert closest(points, [0.0, 1.0 / 6.0]) < 1e-8
        w = 1.0 / (4.0 * np.sqrt(3.0))
        assert closest(points, [w, -1.0 / 12.0]) < 1e-8

    def test_residuals_meet_tolerance(self, triple_r):
        frame = orthonormal_frame(triple_r)
        tensor = structure_tensor(triple_r)
        for c, reported in find_idempotent(triple_r, seed=3):
            y = np.linalg.solve(frame, c)
            residual = np.einsum("ijk,i,j->k", tensor, y, y) - y
            assert np.linalg.norm(residual) <= 1e-10
            assert reported == pytest.approx(np.linalg.norm(residual), abs=1e-12)

    def test_zero_product_algebra_has_none(self):
        # single structure entry forced to zero leaves the zero product
        alg = Algebra(2, [(0, 0, 0, 0)], commutative=True)
        assert find_idempotent(alg, restarts=5) == []

    def test_deterministic(self, harmonic):
        a = find_idempotent(harmonic, restarts=10, seed=7)
        b = find_idempotent(harmonic, restarts=10, seed=7)
        assert len(a) == len(b)
        for (x, rx), (y, ry) in zip(a, b):
            assert np.allclose(x, y) and rx == ry


class TestNewtonPolish:
    # members with families of idempotents, where 2 L(c) - I has
    # near-null singular values next to the exact null space of the family
    @pytest.mark.parametrize(
        "name",
        ["triple(H)", "triple(O)", "triple(cross3)", "triple(cross7)", "clifford(2,3)", "cartan(1)"],
    )
    def test_polish_does_not_amplify_the_last_bits_of_an_end_point(self, name):
        tensor = structure_tensor(construct(name))
        rng = np.random.default_rng(0)
        starts = rng.standard_normal((20, len(tensor)))
        polished = 0
        for z in (_ascend(tensor, start) for start in starts):
            nudge = rng.standard_normal(len(z))
            moved = z + 1e-12 * nudge / np.linalg.norm(nudge)
            c = _newton_idempotent(tensor, z / float(_mul(tensor, z, z) @ z))
            c_moved = _newton_idempotent(tensor, moved / float(_mul(tensor, moved, moved) @ moved))
            assert (c is None) == (c_moved is None)
            if c is not None:
                polished += 1
                assert np.abs(c - c_moved).max() <= 1e-9
        assert polished == len(starts)

    def test_nilpotent_polish_does_not_amplify_the_last_bits_of_a_point(self):
        # the polish stops once |x x| <= 1e-9, so its points are held to 1e-6;
        # without the 1e-8 cutoff 9 of these 100 seeded cubics moved by more
        for k in range(100):
            rng = np.random.default_rng(k)
            n = int(rng.integers(2, 9))
            terms = {}
            for _ in range(int(rng.integers(1, 2 * n + 1))):
                index = rng.integers(0, n, 3)
                numerator = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
                terms[tuple(int((index == i).sum()) for i in range(n))] = Scalar(
                    Fraction(numerator, int(rng.integers(1, 5)))
                )
            tensor = structure_tensor(algebra_from_cubic(CubicForm(n, terms)))
            for x in (_descend(tensor, start) for start in rng.standard_normal((20, n))):
                nudge = rng.standard_normal(n)
                moved = x + 1e-12 * nudge / np.linalg.norm(nudge)
                moved /= np.linalg.norm(moved)
                a, b = _polish_nilpotent(tensor, x), _polish_nilpotent(tensor, moved)
                assert np.abs(a - b).max() <= 1e-6, k


class TestPeirce:
    def test_triple_r(self, triple_r):
        data = peirce(triple_r, idempotent=np.array([0.5, 0.5, 0.5]))
        assert data.residual <= 1e-10
        assert data.n1 == 0 and data.n2 == 2 and data.d == 0
        assert data.idempotent_norm == pytest.approx(0.75, abs=1e-9)
        assert not data.scaled
        assert [(round(v, 6), m) for v, m in data.eigenvalues] == [(-0.5, 2), (1.0, 1)]

    def test_harmonic(self, harmonic):
        data = peirce(harmonic)
        assert data.n1 == 1 and data.n2 == 0 and data.d is None
        assert data.idempotent_norm == pytest.approx(1.0 / 36.0, abs=1e-9)
        assert data.multiplicity(1.0) == 1

    def test_triple_complex_dimensions(self):
        data = peirce(triple(hurwitz(2)), seed=5)
        assert (data.n1, data.n2) == (1, 2)
        assert data.d == 0
        assert data.multiplicity(0.5) == 2

    def test_scaled_spectrum_flagged_not_rejected(self):
        # u = x1^3/6 + (3/10) x1 x2^2 gives L(e1) eigenvalues {1, 3/10}
        alg = Algebra(
            2,
            [
                (0, 0, 0, Scalar(1)),
                (0, 1, 1, Scalar(3, 0) / Scalar(10)),
                (1, 1, 0, Scalar(3, 0) / Scalar(10)),
            ],
            commutative=True,
        )
        data = peirce(alg, idempotent=np.array([1.0, 0.0]))
        assert data.scaled
        assert data.residual <= 1e-10

    def test_explicit_idempotent_roundtrip(self, harmonic):
        data = peirce(harmonic, idempotent=np.array([0.0, 1.0 / 6.0]))
        assert data.n1 == 1
        assert np.allclose(data.idempotent, [0.0, 1.0 / 6.0])


class TestJordanMutation:
    def test_triple_r_full_space(self, triple_r):
        report = jordan_mutation(triple_r, idempotent=np.array([0.5, 0.5, 0.5]))
        assert report.dim == 3
        assert report.closed and report.jordan
        assert report.basis.shape == (3, 3)

    def test_small_eigenspace_dimension_matches_peirce(self):
        alg = triple(construct("cross3"))
        data = peirce(alg, seed=4)
        report = jordan_mutation(alg, idempotent=data.idempotent, seed=4)
        assert report.dim == data.n2 + 1
        assert report.closed and report.jordan

    def test_trivial_mutation_for_harmonic(self, harmonic):
        report = jordan_mutation(harmonic, idempotent=np.array([0.0, 1.0 / 6.0]))
        assert report.dim == 1
        assert report.closed and report.jordan
        assert report.trace_form_rank <= 1

    def test_multiply_stays_in_span(self, triple_r):
        report = jordan_mutation(triple_r, idempotent=np.array([0.5, 0.5, 0.5]))
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert report.multiply(x, y).shape == (3,)


class TestNilpotentSearch:
    def test_triple_r_axes(self, triple_r):
        points = nilpotent_search(triple_r, restarts=25, seed=0)
        assert points
        tensor = structure_tensor(triple_r)
        for x in points:
            assert np.linalg.norm(np.einsum("ijk,i,j->k", tensor, x, x)) <= 1e-8

    def test_harmonic_has_no_nilpotents(self, harmonic):
        assert nilpotent_search(harmonic, restarts=25, seed=0) == []

    @pytest.mark.parametrize("seed, count", [(1, 2), (2, 3)])
    def test_a_direction_is_found_once_up_to_sign(self, seed, count):
        # two entries of (1, 0, -1, 0) / sqrt 2 tie for the largest, so the
        # sign rule alone follows rounding and kept x beside -x
        u = parse_polynomial("1*x1^2*x4+1*x1*x3*x4+1*x2^2*x3+2*x2*x3*x4+1*x3*x4^2")
        points = nilpotent_search(algebra_from_cubic(u), restarts=20, seed=seed)
        assert len(points) == count
        for i, j in itertools.combinations(range(len(points)), 2):
            assert np.linalg.norm(points[i] + points[j]) > 1e-6

    @pytest.mark.parametrize("name", ["triple(R)", "triple(H)", "paraC", "cartan(1)", "clifford(1,2)", "clifford(4,5)"])
    def test_stacked_distances_keep_the_points_of_the_norm_per_pair(self, name):
        alg = construct(name)
        for seed in range(3):
            points, former = nilpotent_search(alg, seed=seed), nilpotent_search_by_norms(alg, seed=seed)
            assert len(points) == len(former)
            assert all(np.array_equal(x, y) for x, y in zip(points, former))

    def test_polar_zero_block_found(self):
        alg = construct("clifford(1,2)")
        points = nilpotent_search(alg, restarts=25, seed=1)
        assert points
        block = min(points, key=lambda x: abs(x[0]) + abs(x[1]))
        assert abs(block[0]) < 1e-6 and abs(block[1]) < 1e-6


class TestEdgeCases:
    def test_no_restarts_find_nothing(self, triple_r):
        assert find_idempotent(triple_r, restarts=0) == []
        assert nilpotent_search(triple_r, restarts=0) == []

    def test_no_restarts_build_no_operator(self, monkeypatch):
        alg = construct("triple(H)")
        structure_tensor(alg)
        monkeypatch.setattr(numeric, "_operator", lambda *args: pytest.fail("an operator is built"))
        assert find_idempotent(alg, restarts=0) == []
        assert nilpotent_search(alg, restarts=0) == []

    def test_one_restart(self, triple_r):
        pairs = find_idempotent(triple_r, restarts=1, seed=1)
        assert len(pairs) == 1 and pairs[0][1] <= 1e-10
        (point,) = nilpotent_search(triple_r, restarts=1, seed=0)
        assert np.linalg.norm(point) == pytest.approx(1.0)

    def test_zero_product_algebra_keeps_every_start_as_a_nilpotent(self):
        alg = Algebra(3, [(0, 0, 0, 0)], commutative=True)
        assert find_idempotent(alg, restarts=5) == []
        # every unit vector squares to zero, so no start moves
        assert len(nilpotent_search(alg, restarts=5)) == 5

    def test_jordan_mutation_draws_its_samples_as_restarts(self, monkeypatch):
        starts = []
        ascend = numeric._ascend

        def recording(tensor, start):
            starts.append(start)
            return ascend(tensor, start)

        monkeypatch.setattr(numeric, "_ascend", recording)
        report = jordan_mutation(triple(construct("cross3")), seed=0, samples=30)
        assert len(starts) == 30 and report.closed
