"""Exact toolkit for polarized torus actions: invariant endomorphism
algebras, product structure of invariant ample cones, and rational
polyhedral fundamental domains with verifiable certificates."""

from ._kernels import BACKEND
from .cone import (
    ConeStructure,
    NSLattice,
    compute_ns,
    cone_structure,
    invariant_ns,
    is_ample,
    is_nef,
)
from .endo import EndoAlgebra, compute_end, invariant_subalgebra, rosati
from .errors import (
    ClosureError,
    ConecrafterError,
    DeskScaleError,
    InternalInvariantError,
    ParseError,
    SearchExhausted,
    ValidationError,
)
from .matrices import Matrix
from .reduction import (
    GroupWord,
    PolyhedralCone,
    ReductionProblem,
    binary_quadratic_problem,
    find_eta,
    find_interior_overlap,
    gauss_reduce,
    hyperbolic_domain,
    pell_fundamental_unit,
    pell_positive_unit,
    pushdown_domain,
    verify_tiling,
)
from .torus import (
    AffineAuto,
    GroupAction,
    PolarizedTorus,
    close_group,
    invariant_polarization,
    normalize_polarization,
    validate_torus,
)
from .wedderburn import WedderburnDecomposition, decompose, lookup_kind

__version__ = "0.1.0"

__all__ = [
    "AffineAuto",
    "BACKEND",
    "ClosureError",
    "ConeStructure",
    "ConecrafterError",
    "DeskScaleError",
    "EndoAlgebra",
    "GroupAction",
    "GroupWord",
    "InternalInvariantError",
    "Matrix",
    "NSLattice",
    "ParseError",
    "PolarizedTorus",
    "PolyhedralCone",
    "ReductionProblem",
    "SearchExhausted",
    "ValidationError",
    "WedderburnDecomposition",
    "binary_quadratic_problem",
    "close_group",
    "compute_end",
    "compute_ns",
    "cone_structure",
    "decompose",
    "find_eta",
    "find_interior_overlap",
    "gauss_reduce",
    "hyperbolic_domain",
    "invariant_ns",
    "invariant_polarization",
    "invariant_subalgebra",
    "is_ample",
    "is_nef",
    "lookup_kind",
    "normalize_polarization",
    "pell_fundamental_unit",
    "pell_positive_unit",
    "pushdown_domain",
    "rosati",
    "validate_torus",
    "verify_tiling",
]
