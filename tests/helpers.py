"""Independent brute-force oracles used to check the fast paths.

Everything here is deliberately dumb pure Python: distance vectors as
tuples in a dict, subsets via itertools.  No numpy, no keys, no sorting,
so agreement with the library is meaningful.
"""

from __future__ import annotations

import itertools
from random import Random

from mdim.core import Landmarks


def naive_vector(v: int, members: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((v ^ s).bit_count() for s in members)


def naive_is_resolving(n: int, members: tuple[int, ...]) -> tuple[bool, tuple[int, int] | None]:
    """Dict-of-vectors check returning the canonical smallest witness pair."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(1 << n):
        groups.setdefault(naive_vector(v, members), []).append(v)
    witness = None
    for vertices in groups.values():
        if len(vertices) >= 2:
            pair = (vertices[0], vertices[1])
            if witness is None or pair < witness:
                witness = pair
    return witness is None, witness


def naive_min_size(n: int, require_phi: bool) -> int:
    """Smallest resolving-set size by plain enumeration (tiny n only)."""
    vertices = range(1 << n)
    for k in itertools.count(1):
        if require_phi:
            candidates = ((0,) + rest for rest in itertools.combinations(range(1, 1 << n), k - 1))
        else:
            candidates = itertools.combinations(vertices, k)
        if any(naive_is_resolving(n, members)[0] for members in candidates):
            return k
    raise AssertionError("unreachable")


def naive_all_resolving(n: int, k: int, require_phi: bool) -> list[tuple[int, ...]]:
    if require_phi:
        candidates = ((0,) + rest for rest in itertools.combinations(range(1, 1 << n), k - 1))
    else:
        candidates = itertools.combinations(range(1 << n), k)
    return [members for members in candidates if naive_is_resolving(n, members)[0]]


def permute_vertex(v: int, perm: tuple[int, ...]) -> int:
    """Apply a coordinate permutation: new coordinate i reads old coordinate perm[i-1]."""
    out = 0
    for i, src in enumerate(perm):
        if v >> (src - 1) & 1:
            out |= 1 << i
    return out


def random_landmarks(rng: Random, n: int, size: int) -> Landmarks:
    return Landmarks(n, tuple(rng.sample(range(1 << n), size)))


def random_resolving_landmarks(rng: Random, n: int, max_tries: int = 200) -> Landmarks:
    """Rejection-sample a resolving set (sizes near n resolve frequently)."""
    from mdim.resolve import is_resolving

    for _ in range(max_tries):
        size = rng.randint(max(2, n - 1), n + 1)
        S = random_landmarks(rng, n, size)
        if is_resolving(S).resolving:
            return S
    raise AssertionError(f"could not sample a resolving set for n={n}")


def random_connected_graph(rng: Random, size: int):
    """Random spanning tree plus noise edges; retried until connected."""
    from mdim.graphs import graph_from_edges, is_connected

    while True:
        edges = set()
        for v in range(1, size):
            u = rng.randrange(v)
            edges.add((u, v))
        for _ in range(size):
            u, v = rng.sample(range(size), 2)
            edges.add((min(u, v), max(u, v)))
        g = graph_from_edges(size, sorted(edges))
        if is_connected(g):
            return g


def greedy_resolving_set(g) -> list[int]:
    """Grow landmarks by separating the current witness pair.

    Any witness (u,v) admits a separator (w=u works), and every separator
    is new (existing landmarks see u and v at equal distances), so this
    stops after at most vertex_count steps.
    """
    from mdim.graphs import bfs_distances, is_resolving_general

    landmarks = [0]
    while True:
        report = is_resolving_general(g, landmarks)
        if report.resolving:
            return landmarks
        u, v = report.witness
        du = bfs_distances(g, u)
        dv = bfs_distances(g, v)
        separator = next(w for w in range(g.vertex_count) if du[w] != dv[w])
        landmarks.append(separator)


def reference_parse_graph(text: str):
    """The edge-list format read one line at a time, as parse_graph read it before it parsed in bulk.

    Returns the Graph, or raises ValueError with the message parse_graph gives.
    """
    from mdim.graphs import Graph

    lines = [(lineno, raw, raw.split("#", 1)[0].split()) for lineno, raw in enumerate(text.splitlines(), start=1)]
    lines = [line for line in lines if line[2]]
    if not lines:
        raise ValueError("missing 'p <vertex_count>' line")
    lineno, raw, fields = lines[0]
    if fields[0] != "p" or len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
        raise ValueError(f"line {lineno}: expected 'p <vertex_count>', got {raw!r}")

    def fail(message: str):
        raise ValueError(f"line {lineno}: {message}")

    try:
        count = int(fields[1])
    except ValueError as exc:  # more than 4,300 digits
        fail(str(exc))
    if count > 1 << 16:
        fail(f"vertex count must be at most {1 << 16}, got {count}")
    if count < 1:
        fail(f"graph needs at least one vertex, got {count}")
    neighbours: list[list[int]] = [[] for _ in range(count)]
    seen = set()
    for lineno, raw, fields in lines[1:]:
        if len(fields) != 2:
            fail(f"expected 'u v', got {raw!r}")
        if not all(f.isascii() and f.isdigit() for f in fields):
            fail(f"endpoints must be ASCII-digit vertex indices, got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            fail(str(exc))
        if not (u < count and v < count):
            fail(f"edge ({u},{v}) out of range 0..{count - 1}")
        if u == v:
            fail(f"self-loop at vertex {u}")
        if (min(u, v), max(u, v)) in seen:
            fail(f"duplicate edge ({u},{v})")
        seen.add((min(u, v), max(u, v)))
        neighbours[u].append(v)
        neighbours[v].append(u)
    return Graph(count, tuple(tuple(sorted(ns)) for ns in neighbours))
