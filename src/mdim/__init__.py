"""Resolving sets and metric dimension of hypercubes.

Vertices of Q^n are plain ints used as bit sets (bit i-1 <-> element i of
{1,...,n}).  The package verifies resolving sets by meet in the middle
(a failing set's witness comes from the same kernel vectors), generates
the named constructions, searches exhaustively for minimum sets with
translation-symmetry reduction, and cross-checks everything against a
BFS oracle on explicit graphs.
"""

from .core import (
    DIMENSION_CAP,
    PHI,
    Landmarks,
    Vertex,
    all_ones,
    enumerate_level,
    format_set,
    format_vertex,
    hamming_distance,
    level,
    parse_landmarks,
    parse_vertex,
    singleton,
    translate,
    translate_set,
)
from .construct import (
    basis_minimal_set,
    best_construction,
    er_q5_set,
    erdos_renyi_set,
    level_set_landmarks,
    product_chain_set,
    product_lift,
    reduced_erdos_renyi_set,
    small_minimum_set,
)
from .graphs import (
    UNREACHABLE,
    Graph,
    bfs_distances,
    build_hypercube,
    cartesian_product_k2,
    distance_matrix,
    graph_from_edges,
    is_resolving_general,
    load_graph,
    parse_graph,
)
from .resolve import (
    VerificationReport,
    distance_vector,
    is_minimal,
    is_resolving,
)
from .search import (
    SearchReport,
    find_all_min_sets,
    min_resolving_size,
    verify_no_smaller,
)

__all__ = [
    "DIMENSION_CAP",
    "PHI",
    "Landmarks",
    "Vertex",
    "all_ones",
    "enumerate_level",
    "format_set",
    "format_vertex",
    "hamming_distance",
    "level",
    "parse_landmarks",
    "parse_vertex",
    "singleton",
    "translate",
    "translate_set",
    "basis_minimal_set",
    "best_construction",
    "er_q5_set",
    "erdos_renyi_set",
    "level_set_landmarks",
    "product_chain_set",
    "product_lift",
    "reduced_erdos_renyi_set",
    "small_minimum_set",
    "UNREACHABLE",
    "Graph",
    "bfs_distances",
    "build_hypercube",
    "cartesian_product_k2",
    "distance_matrix",
    "graph_from_edges",
    "is_resolving_general",
    "load_graph",
    "parse_graph",
    "VerificationReport",
    "distance_vector",
    "is_minimal",
    "is_resolving",
    "SearchReport",
    "find_all_min_sets",
    "min_resolving_size",
    "verify_no_smaller",
]

__version__ = "0.1.0"
