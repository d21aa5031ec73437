"""coneforge: exact workbench for metrized algebras and cubic minimal cones."""

from .algebra import (
    Algebra,
    Report,
    Subspace,
    check_metrized,
    find_unit,
    is_exact,
    killing_form,
    multilinearize,
    trace_form_twisted,
)
from .analysis import (
    DefectReport,
    HsiangReport,
    degeneracy_check,
    full_report,
    killing_metrized_check,
    nonradial_hsiang_check,
    normalize_theta,
    pseudocomposition_check,
    quasicomposition_check,
    radial_hsiang_check,
    spectral_summary,
    verify_polar,
)
from .catalog import (
    CatalogNameError,
    CliffordSystem,
    cartan_cubic,
    catalog_names,
    clifford_system,
    construct,
    cross_product,
    hurwitz,
    para_complex,
    polar_from_clifford,
    polar_zero_block,
    rho,
    triple,
    vector_color,
)
from .cubic import (
    algebra_from_cubic,
    cartan_munzner_check,
    cubic_from_algebra,
)
from .document import DocumentError, dump_algebra, from_document, load_algebra, to_document
from .polynomials import CubicForm, Polynomial, format_polynomial, parse_polynomial
from .scalars import Scalar, ScalarParseError, scalar_format, scalar_parse

__version__ = "0.1.0"

# the spectral layer needs numpy; it is imported on first use of one of its names
_NUMERIC = {"MutationReport", "PeirceData", "find_idempotent", "jordan_mutation", "nilpotent_search", "peirce"}


def __getattr__(name):
    if name in _NUMERIC:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Algebra",
    "CatalogNameError",
    "CliffordSystem",
    "CubicForm",
    "DefectReport",
    "DocumentError",
    "HsiangReport",
    "MutationReport",
    "PeirceData",
    "Polynomial",
    "Report",
    "Scalar",
    "ScalarParseError",
    "Subspace",
    "algebra_from_cubic",
    "cartan_cubic",
    "cartan_munzner_check",
    "catalog_names",
    "check_metrized",
    "clifford_system",
    "construct",
    "cross_product",
    "cubic_from_algebra",
    "degeneracy_check",
    "dump_algebra",
    "find_idempotent",
    "find_unit",
    "format_polynomial",
    "from_document",
    "full_report",
    "hurwitz",
    "is_exact",
    "jordan_mutation",
    "killing_form",
    "killing_metrized_check",
    "load_algebra",
    "multilinearize",
    "nilpotent_search",
    "nonradial_hsiang_check",
    "normalize_theta",
    "para_complex",
    "parse_polynomial",
    "peirce",
    "polar_from_clifford",
    "polar_zero_block",
    "pseudocomposition_check",
    "quasicomposition_check",
    "radial_hsiang_check",
    "rho",
    "scalar_format",
    "scalar_parse",
    "spectral_summary",
    "to_document",
    "trace_form_twisted",
    "triple",
    "vector_color",
    "verify_polar",
    "__version__",
]
