import ast
import tracemalloc
from random import Random

import pytest

import mdim.graphs
from helpers import greedy_resolving_set, random_connected_graph, random_landmarks, reference_parse_graph
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


def error_case(text, fragment, message):
    # the fragment only keeps each case's recorded test id, from when the test matched
    # it instead of the full message; plain tuples would rename all fourteen cases
    return pytest.param(text, message, id=f"{text}-{fragment}")


@pytest.mark.parametrize(
    "text,message",
    [
        error_case("0 1\n", "line 1", "line 1: expected 'p <vertex_count>', got '0 1'"),
        error_case("p 3\n0\n", "line 2", "line 2: expected 'u v', got '0'"),
        error_case("p 3\n0 x\n", "line 2", "line 2: endpoints must be ASCII-digit vertex indices, got '0 x'"),
        error_case("p 3\n0 7\n", "line 2", "line 2: edge (0,7) out of range 0..2"),
        error_case("p 3\n1 1\n", "self-loop", "line 2: self-loop at vertex 1"),
        error_case("p 3\n0 1\n1 0\n", "line 3", "line 3: duplicate edge (1,0)"),
        error_case("# only comments\n", "missing", "missing 'p <vertex_count>' line"),
        error_case("p 0\n", "line 1", "line 1: graph needs at least one vertex, got 0"),
        # ASCII digits only: int() would read these as 10, 1 and 1, and the
        # superscript passes str.isdigit but not int()
        error_case("p 11\n0 1_0\n", "line 2: endpoints",
                   "line 2: endpoints must be ASCII-digit vertex indices, got '0 1_0'"),
        error_case("p 3\n0 +1\n", "line 2: endpoints",
                   "line 2: endpoints must be ASCII-digit vertex indices, got '0 +1'"),
        error_case("p 3\n0 \u0661\n", "line 2: endpoints",
                   "line 2: endpoints must be ASCII-digit vertex indices, got '0 \u0661'"),
        error_case("p \u00b2\n", "line 1: expected", "line 1: expected 'p <vertex_count>', got 'p \u00b2'"),
        error_case("p 65537\n", "line 1", "line 1: vertex count must be at most 65536, got 65537"),
        # int() refuses more than 4,300 digits
        error_case("p " + "9" * 5000 + "\n", "line 1",
                   "line 1: Exceeds the limit (4300 digits) for integer string conversion: "
                   "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ],
)
def test_parse_graph_errors(text, message):
    with pytest.raises(ValueError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


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


BAD_TOKENS = ("x", "1_0", "+1", "-1", "1.0", "\u0661", "\u00b2", "\uff11", "9" * 5000)
BAD_HEADERS = ("p " + "9" * 5000, "p", "p 0", "p 3 1", "q 3", "p -1", "p \uff13", "p 65537")


def bad_edge_line(rng: Random, count: int, u: int, v: int) -> str:
    return rng.choice((
        f"{u} {rng.choice(BAD_TOKENS)}",
        f"{rng.choice(BAD_TOKENS)} {v}",
        f"{u}",  # one field
        f"{u} {v} {v}",
        f"{u} {count + rng.randrange(3)}",  # out of range
        f"{v} {v}",  # self-loop
        f"{u} {v}",  # a duplicate of an edge, or a new edge where there is none
        f"{v} {u}",  # reversed
    ))


def random_graph_file(rng: Random) -> str:
    """A small edge-list file with no, one or two bad lines, half in the plain form and half with comments,
    blank lines, tabs, CRLF or another line break, or no final newline."""
    count = rng.randint(1, 9)
    pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
    lines = [f"p {count}"] + [f"{u} {v}" for u, v in edges]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if rng.random() < 0.15:
            lines[0] = rng.choice(BAD_HEADERS)
        else:
            u, v = rng.choice(edges) if edges else (0, 1)
            lines.insert(rng.randint(1, len(lines)), bad_edge_line(rng, count, u, v))
    # str.splitlines ends a line at each of these breaks, so a comment that holds one ends before it
    odd = rng.choice(("# a random\rp 2", "# a random\x85graph", "#\u20290 1", "# a\x1dgraph"))
    lines.insert(0, odd if rng.random() < 0.2 else "# a random graph")
    if rng.random() < 0.5:
        return "\n".join(lines) + "\n"
    for _ in range(rng.randint(1, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "  ", "\t", "# comment", "  # p 3")))
    lines = [rng.choice(("", " ", "\t")) + line.replace(" ", rng.choice((" ", "\t", "  ", " \t")))
             + rng.choice(("", " ", "\t", " # note", "#")) for line in lines]
    ending = rng.choice(("\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"))
    return ending.join(lines) + rng.choice((ending, ending, ""))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_graph_matches_the_line_walk_on_random_files():
    # the bulk path must give the walk's Graph, and the walk's message wherever a check fails
    rng = Random(3303)
    bulk = refused = 0
    for _ in range(500):
        text = random_graph_file(rng)
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text), text
        taken = mdim.graphs._parse_bulk(text) is not None
        bulk += taken
        refused += not taken and mdim.graphs._BULK_FILE.fullmatch(text) is not None
    # files the bulk path built, and files its pattern took but a check sent to the walk
    assert bulk >= 75 and refused >= 25, (bulk, refused)
