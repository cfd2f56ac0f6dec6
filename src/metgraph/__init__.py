"""Exact potential theory on metrized graphs.

Admissible Green functions, tau constants, effective resistances and
epsilon invariants over rational edge lengths, all in exact arithmetic.
"""

from . import analysis, cli, graph, green, invariants, linalg, oracle, potential
from .analysis import Network, network
from .errors import (
    BadDegree,
    GraphDisconnected,
    GraphFormatError,
    MetgraphError,
    NonpositiveLength,
    NotAdequate,
    PointOutOfRange,
    SingularShift,
)
from .graph import (
    ConnectivityMatrix,
    Divisor,
    Edge,
    GraphPoint,
    MetrizedGraph,
    bridges,
    canonical_divisor,
    connectivity_matrix,
    make_adequate,
    point_of_vertex,
    validate_adequate,
    validate_point,
    vertex_at,
)
from .green import EdgePairFunction, ValueMatrix, evaluate_green, value_matrix
from .invariants import (
    CheckReport,
    check_representation_independence,
    check_vertex_formula,
    epsilon_via_green,
    epsilon_via_resistance,
)
from .linalg import (
    RationalMatrix,
    laplacian,
    pinv,
    pseudo_inverse,
    resistance_at_vertices,
)
from .oracle import (
    SubdividedGraph,
    oracle_green,
    oracle_resistance,
    subdivide_at_points,
)
from .potential import (
    EdgeFunction,
    c_mu,
    r_D_on_edge,
    resistance_point,
    resistance_to_divisor,
    tau_constant,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every cached analysis; mainly useful for timing fresh runs."""
    network.cache_clear()
