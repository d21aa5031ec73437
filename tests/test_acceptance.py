"""Acceptance gate: one test per advertised guarantee of the package.

Each test certifies one end-to-end property, from the composition
defect table through the Jordan mutation, with the published time
budgets asserted where a guarantee carries one.  Everything upstream
of the spectral layer is exact arithmetic over Q(sqrt 3); spectral
assertions pin the residual and clustering tolerances they rely on.
"""

import time

import numpy as np
import pytest

from coneforge.algebra import killing_form
from coneforge.analysis import (
    killing_metrized_check,
    nonradial_hsiang_check,
    normalize_theta,
    pseudocomposition_check,
    quasicomposition_check,
    radial_hsiang_check,
    verify_polar,
)
from coneforge.catalog import (
    cartan_cubic,
    clifford_system,
    construct,
    polar_from_clifford,
    polar_zero_block,
    triple,
)
from coneforge.cubic import cartan_munzner_check, cubic_from_algebra
from coneforge.exactlinalg import identity, mat_mul, mat_scale, zeros
from coneforge.numeric import (
    find_idempotent,
    jordan_mutation,
    nilpotent_search,
    peirce,
)
from coneforge.polynomials import parse_polynomial
from coneforge.scalars import Scalar
from oracles import mat_add, mat_eq, reference_trace_form_twisted

FOUR_THIRDS = Scalar(4) / Scalar(3)

# every quasicomposition algebra the catalog offers, with its defect
QC_SOURCES = [
    ("R", 0),
    ("C", 0),
    ("H", 0),
    ("O", 0),
    ("paraC", 0),
    ("paraH(2)", 0),
    ("cross3", 1),
    ("cross7", 1),
    ("color", 2),
]

CARTAN_DIMS = (0, 1, 2, 4, 8)

CLIFFORD_PAIRS = ((1, 2), (2, 3), (4, 5), (8, 9))


def componentwise_plane():
    from coneforge.algebra import Algebra

    return Algebra(2, [(0, 0, 0, 1), (1, 1, 1, 1)], commutative=True, name="RxR")


def float_gram(alg) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in alg.metric])


def assert_budget(started: float, limit: float):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"took {elapsed:.1f}s against a {limit:.0f}s budget"


def test_criterion_01_hurwitz_composition_and_twisted_trace():
    started = time.perf_counter()
    for name, d in (("R", 1), ("C", 2), ("H", 4), ("O", 8)):
        alg = construct(name)
        # the verdict reads the twisted trace form off the integer table,
        # the oracle off the dense Scalar operators: both give d h
        report = quasicomposition_check(alg)
        assert report.is_quasicomposition and report.defect == 0
        expected = mat_scale(Scalar(d), alg.metric)
        assert mat_eq(reference_trace_form_twisted(alg), expected)
    assert_budget(started, 1.0)


def test_criterion_02_defect_table_with_kernel_cross_checks():
    started = time.perf_counter()
    for name, defect in (
        ("cross3", 1),
        ("cross7", 1),
        ("color", 2),
        ("paraC", 0),
        ("paraH(2)", 0),
    ):
        report = quasicomposition_check(construct(name))
        assert report.is_quasicomposition
        assert report.defect == defect
        assert report.kernel_dim_samples == [defect] * 3
    # the noncommutative para products admit no compatible pairing at
    # all, so they are outside the quasicomposition class entirely
    for d in (4, 8):
        report = quasicomposition_check(construct(f"paraH({d})"))
        assert not report.is_quasicomposition
        assert "not metrized" in report.reason
    assert_budget(started, 2.0)


def test_criterion_03_tripled_catalog_sources_are_radial_four_thirds():
    started = time.perf_counter()
    for name, _ in QC_SOURCES:
        report = radial_hsiang_check(construct(f"triple({name})"))
        assert report.radial == FOUR_THIRDS, name
        assert report.exact and report.witness is None
    assert_budget(started, 90.0)


def test_criterion_04_componentwise_plane_triple_is_a_negative_control():
    started = time.perf_counter()
    tri = triple(componentwise_plane())
    radial = radial_hsiang_check(tri)
    assert radial.radial is None
    assert isinstance(radial.witness, tuple) and len(radial.witness) == 4
    assert all(0 <= i < tri.dim for i in radial.witness)
    general = nonradial_hsiang_check(tri)
    assert general.radial is None and general.nonradial_b is None
    assert general.witness == (0, 0, 1, 3, 5)
    assert_budget(started, 5.0)


def test_criterion_05_peirce_table_reproduction():
    started = time.perf_counter()
    table = [
        ("triple(cross3)", 9, 0, 5),
        ("triple(cross7)", 21, 4, 5),
        ("triple(color)", 18, 1, 8),
        ("triple(R)", 3, 0, 2),
        ("triple(C)", 6, 1, 2),
        ("triple(H)", 12, 3, 2),
        ("triple(O)", 24, 7, 2),
    ]
    for name, dim, n1, n2 in table:
        alg = construct(name)
        assert alg.dim == dim
        data = peirce(alg)
        assert data.residual <= 1e-10
        assert (data.n1, data.n2) == (n1, n2), name
        assert data.multiplicity(1.0) == 1
        assert data.multiplicity(0.5) == 2 * n1 + n2 - 2
    for d, dim, n1 in zip(CARTAN_DIMS, (2, 5, 8, 14, 26), (1, 2, 3, 5, 9)):
        alg = cartan_cubic(d)[1]
        assert alg.dim == dim
        data = peirce(alg)
        assert data.residual <= 1e-10
        assert (data.n1, data.n2) == (n1, 0), d
    assert_budget(started, 60.0)


def test_criterion_06_source_defect_equals_triple_hurwitz_dimension():
    for name, defect in QC_SOURCES:
        source_defect = quasicomposition_check(construct(name)).defect
        assert source_defect == defect
        data = peirce(construct(f"triple({name})"))
        assert data.d == source_defect, name


def test_criterion_07_cartan_munzner_identity():
    started = time.perf_counter()
    for d in CARTAN_DIMS:
        u = cubic_from_algebra(cartan_cubic(d)[1])
        report = cartan_munzner_check(u, Scalar(9))
        assert report.passed and report.witness is None, d
    assert_budget(started, 10.0)


def test_criterion_08_idempotent_length_law():
    algebras = [construct(f"triple({name})") for name, _ in QC_SOURCES]
    algebras += [cartan_cubic(d)[1] for d in CARTAN_DIMS]
    algebras += [
        polar_from_clifford(clifford_system(p, q)) for p, q in CLIFFORD_PAIRS
    ]
    algebras += [construct("paraC"), construct("paraH(2)")]
    for alg in algebras:
        report = radial_hsiang_check(alg)
        assert report.radial is not None and report.radial > Scalar(0), alg.name
        theta = float(report.radial.a) + float(report.radial.b) * np.sqrt(3.0)
        gram = float_gram(alg)
        pairs = find_idempotent(alg, restarts=20, seed=0)
        assert pairs, alg.name
        for c, _ in pairs:
            assert abs(c @ gram @ c - 1.0 / theta) <= 1e-8, alg.name
        normalized = normalize_theta(alg, theta=report.radial)
        for c, _ in find_idempotent(normalized, restarts=20, seed=0):
            assert abs(c @ gram @ c - 0.75) <= 1e-8, alg.name


def test_criterion_09_killing_dichotomy():
    for p, q in ((1, 2), (2, 3)):
        report = killing_metrized_check(polar_from_clifford(clifford_system(p, q)))
        assert not report.passed
        assert not report.details["invariant"]
    for name, defect in QC_SOURCES:
        source = construct(name)
        tripled = construct(f"triple({name})")
        assert killing_metrized_check(tripled).passed
        kappa = killing_form(tripled)[0]
        expected = mat_scale(Scalar(2 * (source.dim - defect)), tripled.metric)
        assert mat_eq(kappa, expected), name


def test_criterion_10_clifford_polar_families():
    for p, q in CLIFFORD_PAIRS:
        system = clifford_system(p, q)
        n = 2 * p
        doubled = mat_scale(Scalar(2), identity(n))
        for i in range(q):
            for j in range(i, q):
                anti = mat_add(
                    mat_mul(system.matrices[i], system.matrices[j]),
                    mat_mul(system.matrices[j], system.matrices[i]),
                )
                assert mat_eq(anti, doubled if i == j else zeros(n, n))
        alg = polar_from_clifford(system)
        assert verify_polar(alg, polar_zero_block(alg)).passed, (p, q)
        assert radial_hsiang_check(alg).radial == FOUR_THIRDS, (p, q)


def test_criterion_11_eikonal_suite_and_nilpotents():
    assert pseudocomposition_check(construct("paraC")) == (Scalar(1), True)
    assert pseudocomposition_check(cartan_cubic(0)[1]) == (Scalar(36), True)
    for d in CARTAN_DIMS:
        assert nilpotent_search(cartan_cubic(d)[1], restarts=20, seed=0) == []
    for name, _ in QC_SOURCES:
        alg = construct(f"triple({name})")
        found = nilpotent_search(alg, restarts=20, seed=0)
        assert found, name
        tensor = np.zeros((alg.dim, alg.dim, alg.dim))
        for (i, j), column in alg.table.items():
            for k, coeff in column.items():
                tensor[i, j, k] = float(coeff)
        for x in found:
            assert np.linalg.norm(np.einsum("ijk,i,j->k", tensor, x, x)) <= 1e-6


def test_criterion_12_jordan_mutation_on_exceptional_triples():
    for name in ("cross7", "color", "O"):
        alg = construct(f"triple({name})")
        data = peirce(alg)
        report = jordan_mutation(alg, seed=0, samples=20)
        assert report.closed
        assert report.jordan_residual <= 1e-7
        assert report.dim == data.n2 + 1, name
