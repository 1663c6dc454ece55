"""Pointed triangulations of convex polytopes and their figurate sequences.

The package constructs face lattices of rational convex polytopes, pointed
triangulations induced by one strict ranking of the vertices, visibility partitions
from a generic interior point, the f/h/k/e vectors those partitions count,
and the polytope number sequences generated by several provably-equal
methods. Everything is exact: rationals for geometry, arbitrary-precision
integers for counts.
"""
from .geometry import (
    Point,
    rational,
    rational_str,
)
from .lattice import (
    FaceLattice,
    Polytope,
    build_face_lattice,
    builtin,
    enumerate_facets,
    parse_builtin,
    polytope_from_json,
    polytope_from_vertices,
    polytope_to_json,
)
from .triangulation import (
    GenericityError,
    PointedTriangulation,
    assign_apexes,
    build_pointed_triangulation,
    link,
    verify_pointed,
    vertex_order,
)
from .partitions import (
    GenericPoint,
    Interval,
    Partition,
    e_vector,
    euler_characteristic,
    f_vector,
    generic_point,
    h_from_f,
    lower_histogram,
    verify_partition,
    visibility_partitions,
)
from .sequences import (
    SequenceResult,
    polytope_number_from_h,
    polytope_number_recursive,
    polytope_number_simplex_sum,
)
from .pipeline import Analysis, run_pipeline

__version__ = "0.1.0"
