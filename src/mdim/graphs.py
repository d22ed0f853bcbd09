"""General-graph resolving-set oracle.

Distances come from plain breadth-first search on adjacency lists, with no
shared machinery with the meet-in-the-middle hypercube verifier; that
independence is what makes this module usable as a cross-check oracle.  It
also carries the K2 cartesian product used to lift resolving sets one
dimension up, and the edge-list file format.

Graph files are checked and converted in bulk: one pattern over the file,
one split and int conversion of its endpoints, builtin max for the range
check, and one check of the sorted adjacency for self-loops and duplicate
edges.  Only a file that fails a check, or one in a form the
pattern does not cover, is walked line by line, and the walk raises the
error that names the first bad line.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import VerificationReport, check_dimension

UNREACHABLE = -1

# Adjacency for Q^n has n * 2^(n-1) edges; 16 keeps materialization sane.
# A graph file may declare at most the 2^16 vertices of that Q^16: each
# declared vertex costs one adjacency list before any edge is read.
HYPERCUBE_CAP = 16


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as sorted adjacency lists."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build and validate a Graph from an edge list.

    Rejects self-loops, duplicate edges and out-of-range endpoints.
    """
    if vertex_count < 1:
        raise ValueError(f"graph needs at least one vertex, got {vertex_count}")
    seen: set[tuple[int, int]] = set()
    neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range 0..{vertex_count - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        neighbours[u].append(v)
        neighbours[v].append(u)
    return Graph(vertex_count, tuple(tuple(sorted(ns)) for ns in neighbours))


def build_hypercube(n: int) -> Graph:
    """Q^n as an explicit graph: vertex v adjacent to v XOR 2^i for each i."""
    check_dimension(n)
    if n > HYPERCUBE_CAP:
        raise ValueError(f"explicit hypercube adjacency is capped at n={HYPERCUBE_CAP}")
    size = 1 << n
    return Graph(size, tuple(tuple(sorted(v ^ (1 << i) for i in range(n))) for v in range(size)))


def _check_index(g: Graph, v: int, role: str) -> None:
    # an int alone, as core.check_vertex takes: True would pass as vertex 1
    if type(v) is not int:
        raise ValueError(f"{role} {v!r} is not an int vertex index")
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"{role} {v} out of range 0..{g.vertex_count - 1}")


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from source to every vertex; UNREACHABLE where disconnected."""
    _check_index(g, source, "source")
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return UNREACHABLE not in bfs_distances(g, 0)


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs hop counts via one BFS per vertex (test-oracle use).

    Row u holds the distances from u; UNREACHABLE marks disconnected pairs.
    """
    return tuple(tuple(bfs_distances(g, v)) for v in range(g.vertex_count))


def is_resolving_general(g: Graph, landmarks: Sequence[int]) -> VerificationReport:
    """BFS-based resolving check; same report contract as resolve.is_resolving."""
    t0 = time.perf_counter()
    if not landmarks:
        raise ValueError("empty landmark set cannot be verified")
    for s in landmarks:
        _check_index(g, s, "landmark")
    if len(set(landmarks)) != len(landmarks):
        raise ValueError("landmarks must be pairwise distinct")
    if not is_connected(g):
        raise ValueError("resolving sets are only defined here for connected graphs")
    dists = [bfs_distances(g, s) for s in landmarks]
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(tuple(d[v] for d in dists), []).append(v)
    witness: tuple[int, int] | None = None
    for members in groups.values():
        if len(members) >= 2:
            pair = (members[0], members[1])  # ascending: vertices were scanned in order
            if witness is None or pair < witness:
                witness = pair
    return VerificationReport(
        resolving=witness is None,
        witness=witness,
        vertices_checked=g.vertex_count,
        elapsed=time.perf_counter() - t0,
    )


def cartesian_product_k2(g: Graph) -> Graph:
    """Two copies of g plus a perfect matching between corresponding vertices.

    Copy-0 vertex v keeps index v; copy-1 vertex v becomes v + vertex_count.
    With that map, the product of Q^n with an edge is exactly Q^{n+1}.
    """
    size = g.vertex_count
    copy0 = tuple(ns + (v + size,) for v, ns in enumerate(g.adjacency))
    copy1 = tuple((v,) + tuple(u + size for u in g.adjacency[v]) for v in range(size))
    return Graph(2 * size, copy0 + copy1)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: '#' comments, then 'p <count>', then 'u v' lines.

    A count above 2^HYPERCUBE_CAP is refused before anything is allocated
    for it.  A file whose edge section is only 'u v' lines, ASCII digits
    around one space and each line ended by a newline, is checked and
    converted in bulk.  Any other file (tabs, CRLF or other line breaks,
    blank or comment lines among the edges, no final newline), and any
    file that fails a check, is walked line by line by _parse_lines, so
    that each error names the line that raised it.
    """
    graph = _parse_bulk(text)
    return graph if graph is not None else _parse_lines(text)


# Line breaks of str.splitlines other than '\n': a comment may not hold one.
_COMMENT = r"(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?"
_BULK_FILE = re.compile(
    rf"(?:[ \t]*{_COMMENT}\n)*[ \t]*p[ \t]+([0-9]+)[ \t]*{_COMMENT}\n"
    r"((?:[0-9]+ [0-9]+\n)*)"
)


def _parse_bulk(text: str) -> Graph | None:
    """The Graph of a file _BULK_FILE matches, or None where _parse_lines must decide."""
    match = _BULK_FILE.fullmatch(text)
    if match is None:
        return None
    count, section = match.groups()
    try:
        vertex_count = int(count)
        if not 1 <= vertex_count <= 1 << HYPERCUBE_CAP:
            return None
        endpoints = list(map(int, section.split()))
    except ValueError:  # int() refuses more than 4,300 digits
        return None
    # the pattern admits no sign, so only the top of the range needs a check
    if endpoints and max(endpoints) >= vertex_count:
        return None
    neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in zip(endpoints[0::2], endpoints[1::2]):
        neighbours[u].append(v)
        neighbours[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbours)
    # a self-loop lists its vertex twice, and a repeated edge both endpoints
    if sum(map(len, map(set, adjacency))) != len(endpoints):
        return None
    return Graph(vertex_count, adjacency)


def _parse_lines(text: str) -> Graph:
    """parse_graph one line at a time, raising at the first bad line."""
    lines = (
        (lineno, raw, raw.split("#", 1)[0].split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    lines = ((lineno, raw, fields) for lineno, raw, fields in lines if fields)
    header = next(lines, None)
    if header is None:
        raise ValueError("missing 'p <vertex_count>' line")
    lineno, raw, fields = header
    if fields[0] != "p" or len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
        raise ValueError(f"line {lineno}: expected 'p <vertex_count>', got {raw!r}")

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal lineno
        for lineno, raw, fields in lines:
            if len(fields) != 2:
                raise ValueError(f"expected 'u v', got {raw!r}")
            if not all(f.isascii() and f.isdigit() for f in fields):
                raise ValueError(f"endpoints must be ASCII-digit vertex indices, got {raw!r}")
            yield int(fields[0]), int(fields[1])

    try:
        vertex_count = int(fields[1])
        if vertex_count > 1 << HYPERCUBE_CAP:
            raise ValueError(f"vertex count must be at most {1 << HYPERCUBE_CAP}, got {vertex_count}")
        return graph_from_edges(vertex_count, edges())
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
