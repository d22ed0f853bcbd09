"""Resolving sets and metric dimension of hypercubes.

Vertices of Q^n are plain ints used as bit sets (bit i-1 <-> element i of
{1,...,n}).  The package verifies resolving sets from the kernel of
their sign matrix: by the rank path, one elimination over F_p, where it
costs less, and by meet in the middle otherwise (a failing set's witness
comes from the same kernel vectors).  It decides minimality by one such
elimination for the set and all its members, or one verdict per member, generates the named constructions,
searches exhaustively for minimum sets over column sets (translation and
coordinate-permutation symmetry reduced), and cross-checks everything
against a BFS oracle on explicit graphs.

The names below load lazily (PEP 562): ``import mdim`` imports no
submodule, and the first access to a name imports only the module that
defines it, so numpy loads with ``resolve`` or ``search`` and not before.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "core": (
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
        "VerificationReport",
    ),
    "construct": (
        "basis_minimal_set",
        "best_construction",
        "er_q5_set",
        "erdos_renyi_set",
        "level_set_landmarks",
        "product_chain_set",
        "product_lift",
        "reduced_erdos_renyi_set",
        "small_minimum_set",
    ),
    "graphs": (
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
    ),
    "resolve": (
        "distance_vector",
        "is_minimal",
        "is_resolving",
    ),
    "search": (
        "SearchReport",
        "find_all_min_sets",
        "min_resolving_size",
        "verify_no_smaller",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
