"""Reference answers for the benchmark's correctness gate.

None of this shares code with mdim.  A reported witness is confirmed with
``int.bit_count`` in plain Python.  The verdict and search references key
each vertex or candidate in base n+1 along its row, where mdim packs bit
fields down columns.  Everything here runs outside the timed region.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

_ROWS = 1 << 14  # candidates keyed per block by the search reference


def distance_vector(v: int, members) -> tuple[int, ...]:
    return tuple((v ^ s).bit_count() for s in members)


def witness_error(n: int, members, witness) -> str | None:
    """Confirm a reported witness by computing both distance vectors directly."""
    if witness is None:
        return None
    u, v = witness
    if not (0 <= u < v < 1 << n):
        return f"witness {witness} is not an ordered pair of vertices of Q^{n}"
    if distance_vector(u, members) != distance_vector(v, members):
        return f"witness {witness} has different distance vectors"
    return None


def witness(n: int, members) -> tuple[int, int] | None:
    """Smallest colliding pair (smallest u, then smallest v), or None if the set resolves Q^n.

    Each vertex's distance vector is read along its row as base-(n+1)
    digits, as many landmarks per 64-bit word as fit; a stable sort of the
    words puts equal vectors next to each other, in vertex order.
    """
    verts = np.arange(1 << n, dtype=np.uint32)
    per_word = next(p for p in itertools.count(1) if (n + 1) ** (p + 1) > 1 << 63)
    words = []
    for lo in range(0, len(members), per_word):
        word = np.zeros(1 << n, dtype=np.int64)
        for s in members[lo:lo + per_word]:
            word *= n + 1
            word += np.bitwise_count(verts ^ np.uint32(s))
        words.append(word)
    order = np.lexsort(words[::-1])
    same = np.ones(len(order) - 1, dtype=bool)
    for word in words:
        ranked = word[order]
        same &= ranked[1:] == ranked[:-1]
    # where a group of equal vectors begins; its first two vertices are the group's smallest
    starts = np.flatnonzero(same & ~np.concatenate(([False], same[:-1])))
    if not starts.size:
        return None
    best = starts[np.argmin(order[starts])]
    return int(order[best]), int(order[best + 1])


def removable(n: int, members) -> tuple[int, ...]:
    """Members whose deletion leaves a resolving set."""
    return tuple(s for i, s in enumerate(members) if witness(n, members[:i] + members[i + 1:]) is None)


def er_q5_chain(n: int) -> tuple[int, ...]:
    """Members of product_chain_set(n) for n >= 5, from the lift rule in closed form."""
    return (0b11111, 0b00111, 0b01010, 0b10110) + tuple(0b11111 | 1 << m for m in range(5, n))


def family(name: str, n: int) -> tuple[int, ...]:
    """Members of a named construction, in document order, from its definition."""
    ones = (1 << n) - 1
    if name == "basis-minimal":
        return tuple(1 << i for i in range(1, n))
    if name == "er-reduced":
        return tuple(ones ^ 1 << i for i in range(n - 1))
    if name == "erdos-renyi":
        return (ones,) + family("er-reduced", n)
    if name == "product-chain":
        return er_q5_chain(n)
    raise ValueError(f"no reference for family {name!r}")


class SearchReference:
    """Exhaustive phi-normalised scan over one cube, keyed row-major in base n+1."""

    def __init__(self, n: int) -> None:
        self.n = n
        verts = np.arange(1 << n)
        weights = np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int64)
        self.dist = weights[verts[:, None] ^ verts[None, :]]

    def hits(self, k: int, stop_at_first: bool = False) -> list[tuple[int, ...]]:
        """Resolving k-sets containing phi, in lexicographic order of sorted members."""
        found: list[tuple[int, ...]] = []
        combos = itertools.combinations(range(1, 1 << self.n), k - 1)
        while True:
            rows = list(itertools.islice(combos, _ROWS))
            if not rows:
                return found
            block = np.array(rows, dtype=np.int64).reshape(len(rows), k - 1)
            keys = np.broadcast_to(self.dist[0], (len(block), 1 << self.n)).copy()
            base = self.n + 1
            for j in range(k - 1):
                keys += self.dist[block[:, j]] * base ** (j + 1)
            keys.sort(axis=1)
            ok = ~np.any(keys[:, 1:] == keys[:, :-1], axis=1)
            for row in np.flatnonzero(ok):
                found.append((0,) + tuple(int(x) for x in block[row]))
                if stop_at_first:
                    return found

    def min_search(self, max_k: int) -> tuple[int, bool, tuple[int, ...], int]:
        """(min_size, exhaustive, example, subsets_examined) as min_resolving_size reports them."""
        pool = (1 << self.n) - 1
        examined = 0
        for k in range(1, max_k + 1):
            first = self.hits(k, stop_at_first=True)
            if first:
                rank = _lex_rank(first[0][1:], pool)
                return k, True, first[0], examined + rank + 1
            examined += comb(pool, k - 1)
        fallback = family("er-reduced", self.n)
        return len(fallback), False, fallback, examined


def _lex_rank(combo: tuple[int, ...], pool: int) -> int:
    """Position of a sorted combination of range(1, pool + 1) in lexicographic order."""
    rank = 0
    r = len(combo)
    prev = 0
    for i, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            rank += comb(pool - skipped, r - i - 1)
        prev = c
    return rank
