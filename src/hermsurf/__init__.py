"""Exact geometry of Hermitian surfaces in PG(3, q^2).

Point counts, line and plane classification, intersection statistics of
degree-d surfaces with the Hermitian surface, upper-bound verification,
extremal constructions, and the associated evaluation codes.
"""

from hermsurf.finite_field import Field, FieldError, build_field
from hermsurf.proj_geometry import Geometry, GeometryError, Line, geometry_for, normalize
from hermsurf.hermitian import (
    HermitianError,
    HermitianSurface,
    LineKind,
    canonical_surface,
    canonicalize,
)
from hermsurf.forms import (
    Form,
    FormError,
    IntersectionReport,
    hermitian_divides,
    incidence_double_count,
    intersection_stats,
    linear_form,
    surface_form,
)
from hermsurf.theorems import (
    BoundReport,
    BudgetExceededError,
    FalsificationError,
    SearchResult,
    build_extremal_pencil,
    build_grid_example,
    check_theorems,
    evaluate_bounds,
    exhaustive_search,
    random_search,
    sorensen_bound,
)
from hermsurf.codes import EvaluationCode, build_code, min_distance_enumerate, min_distance_geometric

__all__ = [
    "Field",
    "FieldError",
    "build_field",
    "Geometry",
    "GeometryError",
    "Line",
    "geometry_for",
    "normalize",
    "HermitianError",
    "HermitianSurface",
    "LineKind",
    "canonical_surface",
    "canonicalize",
    "Form",
    "FormError",
    "IntersectionReport",
    "hermitian_divides",
    "incidence_double_count",
    "intersection_stats",
    "linear_form",
    "surface_form",
    "BoundReport",
    "BudgetExceededError",
    "FalsificationError",
    "SearchResult",
    "build_extremal_pencil",
    "build_grid_example",
    "check_theorems",
    "evaluate_bounds",
    "exhaustive_search",
    "random_search",
    "sorensen_bound",
    "EvaluationCode",
    "build_code",
    "min_distance_enumerate",
    "min_distance_geometric",
]

__version__ = "0.1.0"
