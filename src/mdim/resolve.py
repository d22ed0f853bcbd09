"""Resolving-set verification for the hypercube.

A landmark set S resolves Q^n when the 2^n distance vectors d(v,S) are
pairwise distinct.  The verifier gives every vertex one 64-bit key,
sum_j d(v,s_j) * w_j mod 2^64 with fixed odd weights w_j, computed with
vectorized XOR + popcount.  Equal vectors always give equal keys, so when
the sorted keys have no equal neighbours the set resolves.  Otherwise the
repeated keys are confirmed exactly, vertex by vertex in increasing order,
against the true distance vectors; a repeat whose vectors differ is a
hash collision and is skipped.

Reports are deterministic: when the set fails, the witness is the
numerically smallest colliding pair, regardless of thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Landmarks, Vertex, check_dimension, hamming_distance

DistanceVector = tuple[int, ...]

# Vertices keyed per packing task; the thread pool is used only from two blocks on.
_BLOCK = 1 << 16
# Vertices looked up in the first block of the confirm scan; later blocks double.
_SCAN_START = 1 << 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one resolving-set check.

    ``witness`` is None exactly when ``resolving`` is True; otherwise it is
    the smallest pair (u, v) with u < v sharing a distance vector
    (minimal u, then minimal v).
    """

    resolving: bool
    witness: tuple[Vertex, Vertex] | None
    vertices_checked: int
    elapsed: float


def distance_vector(v: Vertex, S: Landmarks) -> DistanceVector:
    """Distances from v to each landmark, in landmark order."""
    if not S.members:
        raise ValueError("empty landmark set has no distance vector")
    return tuple(hamming_distance(v, s) for s in S.members)


def _multipliers(k: int) -> np.ndarray:
    """k fixed odd 64-bit weights: splitmix64 of 1..k, lowest bit forced on."""
    z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


def _keys(n: int, members: np.ndarray, threads: int) -> np.ndarray:
    """One key per vertex: sum_j popcount(v ^ s_j) * w_j, wrapping mod 2^64."""
    N = 1 << n
    weights = _multipliers(len(members))
    keys = np.zeros(N, dtype=np.uint64)

    def pack(lo: int) -> None:
        hi = min(lo + _BLOCK, N)
        verts = np.arange(lo, hi, dtype=np.uint32)
        out = keys[lo:hi]
        term = np.empty(hi - lo, dtype=np.uint64)
        for s, w in zip(members, weights):
            np.multiply(np.bitwise_count(verts ^ s), w, out=term)
            out += term

    starts = range(0, N, _BLOCK)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(pack, starts))
    else:
        for lo in starts:
            pack(lo)
    return keys


def _first_collision(keys: np.ndarray, repeated: np.ndarray, members: np.ndarray) -> tuple[int, int] | None:
    """Smallest (u, v), u < v, with equal distance vectors.

    ``repeated`` holds, sorted, every key that occurs more than once.
    Vertices are scanned in increasing order; one whose key is repeated is
    compared exactly with its later key-mates, and its first true mate is
    the witness.
    """
    N = len(keys)
    lo, step = 0, _SCAN_START
    while lo < N:
        block = keys[lo:lo + step]
        found = repeated[np.minimum(np.searchsorted(repeated, block), len(repeated) - 1)] == block
        for u in (lo + np.flatnonzero(found)).tolist():
            mates = u + 1 + np.flatnonzero(keys[u + 1:] == keys[u])
            same = (np.bitwise_count(mates[:, None] ^ members) == np.bitwise_count(u ^ members)).all(axis=1)
            if same.any():
                return u, int(mates[np.argmax(same)])
        lo += len(block)
        step *= 2
    return None


def is_resolving(S: Landmarks, *, threads: int = 1) -> VerificationReport:
    """Check all 2^n distance vectors for pairwise distinctness."""
    check_dimension(S.n)
    if not S.members:
        raise ValueError("empty landmark set cannot be verified")
    t0 = time.perf_counter()
    members = np.array(S.members, dtype=np.uint32)
    keys = _keys(S.n, members, threads)
    ranked = np.sort(keys)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    witness = _first_collision(keys, repeated, members) if repeated.size else None
    return VerificationReport(
        resolving=witness is None,
        witness=witness,
        vertices_checked=len(keys),
        elapsed=time.perf_counter() - t0,
    )


# Public name kept for existing callers; the same verifier.
is_resolving_fast = is_resolving


def is_minimal(S: Landmarks, *, threads: int = 1) -> tuple[bool, list[Vertex]]:
    """Which members can be deleted with the rest still resolving?

    Returns (minimal, removable).  Single-deletion checks suffice: any
    resolving proper subset extends to some S minus one member, which a
    superset of a resolving set is again resolving.
    """
    if not is_resolving(S, threads=threads).resolving:
        raise ValueError("minimality is only defined for resolving sets")
    removable: list[Vertex] = []
    if len(S.members) == 1:
        return True, removable  # the empty set never resolves (n >= 1)
    for i, s in enumerate(S.members):
        rest = Landmarks(S.n, S.members[:i] + S.members[i + 1:])
        if is_resolving(rest, threads=threads).resolving:
            removable.append(s)
    return not removable, removable
