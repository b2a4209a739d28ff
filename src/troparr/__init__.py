"""troparr: exact combinatorics of max-plus hyperplane arrangements.

Computes point types, genericity, the type-collection axioms, dual
subdivisions of products of simplices, normalized volumes, refining
triangulations and GKZ vectors, all in exact rational arithmetic.
"""

from .core import (
    DEFAULT_BUDGET,
    Arrangement,
    CellGraph,
    OrderedPartition,
    ProjectivePoint,
    Rational,
    ResourceLimitError,
    TypeVector,
    enumerate_ordered_partitions,
    parse_rational,
)
from .geometry import (
    GenericityReport,
    RealizationResult,
    TiedMinor,
    enumerate_realizations,
    is_generic,
    realizable,
    type_of_point,
)
from .axioms import (
    AxiomReport,
    CheckResult,
    check_boundary,
    check_comparability,
    check_elimination,
    check_local_refinement,
    check_surrounding,
    is_tropical_oriented_matroid,
)
from .duality import (
    CorrespondenceVerdict,
    Subdivision,
    arrangement_heights,
    cell_dim,
    check_correspondence,
    dual_subdivision,
    is_spanning_tree,
    is_triangulation,
    normalized_volume,
    regular_subdivision,
)
from .secondary import (
    GKZVector,
    SecondaryFaceVerdict,
    gkz_vector,
    refines,
    refining_triangulations,
    secondary_face_check,
)

__all__ = [
    "DEFAULT_BUDGET",
    "Arrangement",
    "AxiomReport",
    "CellGraph",
    "CheckResult",
    "CorrespondenceVerdict",
    "GKZVector",
    "GenericityReport",
    "OrderedPartition",
    "ProjectivePoint",
    "Rational",
    "RealizationResult",
    "ResourceLimitError",
    "Subdivision",
    "SecondaryFaceVerdict",
    "TiedMinor",
    "TypeVector",
    "arrangement_heights",
    "cell_dim",
    "check_boundary",
    "check_comparability",
    "check_correspondence",
    "check_elimination",
    "check_local_refinement",
    "check_surrounding",
    "dual_subdivision",
    "enumerate_ordered_partitions",
    "enumerate_realizations",
    "gkz_vector",
    "is_generic",
    "is_spanning_tree",
    "is_triangulation",
    "is_tropical_oriented_matroid",
    "normalized_volume",
    "parse_rational",
    "realizable",
    "refines",
    "refining_triangulations",
    "regular_subdivision",
    "secondary_face_check",
    "type_of_point",
]
