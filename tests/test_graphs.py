import ast
import tracemalloc
from random import Random

import pytest

import mdim.graphs
from helpers import greedy_resolving_set, random_connected_graph, random_landmarks
from mdim.core import VerificationReport, hamming_distance, level, parse_vertex
from mdim.graphs import (
    UNREACHABLE,
    bfs_distances,
    build_hypercube,
    cartesian_product_k2,
    distance_matrix,
    graph_from_edges,
    is_connected,
    is_resolving_general,
    parse_graph,
)
from mdim.resolve import is_resolving


def test_oracle_shares_no_module_with_the_verifier():
    # the oracle's worth is its independence: it may import core, never resolve, search or numpy
    with open(mdim.graphs.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    modules = {part for name in imported for part in name.split(".")}
    assert not modules & {"resolve", "search", "numpy"}, imported
    assert mdim.graphs.VerificationReport is VerificationReport


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_build_hypercube_counts():
    g = build_hypercube(3)
    assert g.vertex_count == 8
    assert sum(len(ns) for ns in g.adjacency) // 2 == 12
    assert all(len(ns) == 3 for ns in g.adjacency)
    assert build_hypercube(1).adjacency == ((1,), (0,))
    with pytest.raises(ValueError):
        build_hypercube(17)


def test_bfs_matches_hamming_on_worked_example():
    g = build_hypercube(5)
    x = parse_vertex("11001", 5)
    y = parse_vertex("10100", 5)
    assert bfs_distances(g, x)[y] == 3 == hamming_distance(x, y)


def test_bfs_from_phi_gives_levels():
    g = build_hypercube(4)
    dist = bfs_distances(g, 0)
    assert dist == [level(v) for v in range(16)]


def test_bfs_matches_hamming_exhaustively():
    for n in range(1, 7):
        g = build_hypercube(n)
        for u in range(g.vertex_count):
            dist = bfs_distances(g, u)
            for v in range(g.vertex_count):
                assert dist[v] == hamming_distance(u, v)


def test_bfs_path_and_unreachable():
    g = path_graph(3)
    assert bfs_distances(g, 0) == [0, 1, 2]
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    assert bfs_distances(disconnected, 0)[2] == UNREACHABLE
    assert not is_connected(disconnected)
    with pytest.raises(ValueError):
        bfs_distances(g, 5)


def test_distance_matrix_marks_unreachable_pairs():
    m = distance_matrix(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert m[0][2] == UNREACHABLE and m[2][0] == UNREACHABLE
    assert m[0][1] == 1 and m[2][3] == 1


def test_distance_matrix_invariants():
    rng = Random(5)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 20))
        m = distance_matrix(g)
        size = g.vertex_count
        for u in range(size):
            assert m[u][u] == 0
            for v in range(size):
                assert m[u][v] == m[v][u]
                for w in range(size):
                    assert m[u][w] <= m[u][v] + m[v][w]


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        graph_from_edges(0, [])


def test_is_resolving_general_examples():
    assert is_resolving_general(path_graph(3), [0]).resolving
    report = is_resolving_general(cycle_graph(4), [0])
    assert not report.resolving
    assert report.witness == (1, 3)  # the two neighbours of the landmark
    g = build_hypercube(4)
    assert is_resolving_general(g, [0, 2, 4, 8]).resolving


def test_is_resolving_general_errors():
    g = path_graph(3)
    with pytest.raises(ValueError):
        is_resolving_general(g, [])
    with pytest.raises(ValueError):
        is_resolving_general(g, [0, 0])
    with pytest.raises(ValueError):
        is_resolving_general(g, [7])
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        is_resolving_general(disconnected, [0])


@pytest.mark.parametrize("vertex", [True, False, 1.0, "1", None])
def test_oracle_takes_int_vertices_only(vertex):
    # as core.check_vertex: True once read as vertex 1, and {True, 2, 4} was
    # reported to resolve Q^3; 1.0 raised TypeError
    g = build_hypercube(3)
    with pytest.raises(ValueError, match="not an int vertex index"):
        is_resolving_general(g, [vertex, 2, 4])
    with pytest.raises(ValueError, match="not an int vertex index"):
        bfs_distances(g, vertex)


def test_oracle_equivalence_with_bit_parallel_path():
    rng = Random(2024)
    for _ in range(150):
        n = rng.randint(1, 7)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 2)))
        bit = is_resolving(S)
        bfs = is_resolving_general(build_hypercube(n), list(S.members))
        assert bit.resolving == bfs.resolving
        assert bit.witness == bfs.witness


def test_product_of_cube_is_next_cube():
    for n in (1, 2, 3):
        assert cartesian_product_k2(build_hypercube(n)) == build_hypercube(n + 1)


def test_k2_times_k2_is_four_cycle():
    got = cartesian_product_k2(build_hypercube(1))
    assert got.vertex_count == 4
    assert sum(len(ns) for ns in got.adjacency) // 2 == 4
    assert all(len(ns) == 2 for ns in got.adjacency)


def test_product_lift_rule_on_random_graphs():
    # a resolving set of H, plus the twin of its first landmark, resolves H x K2
    rng = Random(90210)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 24))
        W = greedy_resolving_set(g)
        assert is_resolving_general(g, W).resolving
        product = cartesian_product_k2(g)
        lifted = W + [W[0] + g.vertex_count]
        assert is_resolving_general(product, lifted).resolving


def test_parse_graph_round_trip():
    text = """# a path on three vertices
p 3
0 1
1 2
"""
    g = parse_graph(text)
    assert g == path_graph(3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n", "line 1"),
        ("p 3\n0\n", "line 2"),
        ("p 3\n0 x\n", "line 2"),
        ("p 3\n0 7\n", "line 2"),
        ("p 3\n1 1\n", "self-loop"),
        ("p 3\n0 1\n1 0\n", "line 3"),
        ("# only comments\n", "missing"),
        ("p 0\n", "line 1"),
        # ASCII digits only: int() would read these as 10, 1 and 1, and the
        # superscript passes str.isdigit but not int()
        ("p 11\n0 1_0\n", "line 2: endpoints"),
        ("p 3\n0 +1\n", "line 2: endpoints"),
        ("p 3\n0 \u0661\n", "line 2: endpoints"),
        ("p \u00b2\n", "line 1: expected"),
        ("p 65537\n", "line 1"),
        # int() refuses more than 4,300 digits
        ("p " + "9" * 5000 + "\n", "line 1"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_graph(text)


def test_parse_graph_caps_the_vertex_count_before_allocating():
    # one adjacency list per declared vertex came before any edge was read
    g = parse_graph("p 65536\n0 1\n")
    assert g.vertex_count == 65536 and g.adjacency[:2] == ((1,), (0,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line 1: vertex count must be at most 65536, got 65537"):
            parse_graph("p 65537\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
