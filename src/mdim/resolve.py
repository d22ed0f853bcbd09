"""Resolving-set verification for the hypercube.

A landmark set S resolves Q^n when the 2^n distance vectors d(v,S) are
pairwise distinct.  For every landmark s, d(u,s) - d(v,s) = b_s . (u - v)
with b_s = 1 - 2s, a +-1 vector; and every x in {-1,0,1}^n is u - v for
some pair (u = the ones of x, v = its minus ones).  So S resolves exactly
when no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s in S (the
detecting-matrix view of Lindstrom and of Sebo-Tannier).

The verdict decides that by meet in the middle (Horowitz-Sahni): with
fixed odd weights w_j, coordinate i gets the 64-bit key
c_i = sum_j w_j b_{j,i} mod 2^64, and x gets the key c . x.  The keys of
the 3^(n/2) sign vectors of each half of the coordinates are built and
sorted together, and a left key equal to a negated right key marks a
candidate x.  Every kernel vector is a candidate; every candidate is
confirmed exactly against the sign matrix, so a key collision never
changes a verdict.  The set resolves when x = 0 is the only confirmed one.

A failing set's witness, the smallest colliding pair (u, v) with u < v,
comes from the same confirmed candidates.  It has u & v = 0, since
dropping the ones two colliding vertices share keeps them colliding and
lowers u; so it is the least (pos x, neg x) over the nonzero kernel
vectors x, where pos x and neg x are the vertices of x's ones and minus
ones.  _kernel_witness finds that least pair in one pass over the
candidates, without pairing any left half with any right half, so a
large kernel costs no more than its candidates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Landmarks, Vertex, check_dimension, hamming_distance

DistanceVector = tuple[int, ...]


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


def _half_keys(coeffs: np.ndarray) -> np.ndarray:
    """Keys coeffs . x of all 3^len(coeffs) sign vectors x, wrapping mod 2^64.

    Entry sum_t d_t 3^t belongs to the x with x_t = 0, +1, -1 for d_t = 0, 1, 2.
    """
    keys = np.zeros(1, dtype=np.uint64)
    for c in coeffs:
        keys = np.concatenate([keys, keys + c, keys - c])
    return keys


def _sign_vectors(index: np.ndarray, length: int) -> np.ndarray:
    """Rows x for the _half_keys entries ``index`` of a half of that length."""
    digits = index[:, None] // 3 ** np.arange(length) % 3
    return np.where(digits == 2, -1, digits).astype(np.int8)


def _ranks(x: np.ndarray, shift: int, n: int) -> np.ndarray:
    """pos << n | neg for each row of x, whose first column is coordinate shift + 1.

    pos and neg are the vertices of the row's ones and of its minus ones.
    The two halves' parts of one x rank in disjoint bits: or-ing them ranks x.
    A rank fits in an int64 while n <= 31.
    """
    place = np.left_shift(1, np.arange(shift, shift + x.shape[1]), dtype=np.int64)
    return ((x == 1) @ place) << n | (x == -1) @ place


def _kernel_witness(signs: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[int, int] | None:
    """Smallest (pos x, neg x) over nonzero x = (y, z) with signs . x = 0 exactly.

    The smallest has pos x < neg x, since -x would give (neg x, pos x).
    ``signs`` is the n x k matrix of b_{j,i}; ``left`` and ``right`` index
    candidate sign vectors y of the first half of the coordinates and z of
    the second.  Candidates with equal exact rows b . y = -b . z form a
    group, and every (y, z) of a group is a kernel vector.  y and z are
    chosen independently and z holds the higher coordinates, so the best x
    with z != 0 joins a group's smallest-ranked nonzero z with its
    smallest-ranked y; the best x with z = 0 is the smallest-ranked nonzero
    y in the group of z = 0.
    """
    n, h = len(signs), len(signs) // 2
    y, z = _sign_vectors(left, h), _sign_vectors(right, n - h)
    rows = np.concatenate([y @ signs[:h], -(z @ signs[h:])])
    # one opaque value per row: np.unique(axis=0) groups the same rows several times slower
    _, group = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), return_inverse=True)
    in_left, in_right = group[:left.size], group[left.size:]
    y_rank, z_rank = _ranks(y, 0, n), _ranks(z, h, n)
    unset = np.iinfo(np.int64).max
    best_y = np.full(len(rows), unset)
    np.minimum.at(best_y, in_left, y_rank)
    best_z = np.full(len(rows), unset)
    np.minimum.at(best_z, in_right[z_rank > 0], z_rank[z_rank > 0])
    both = (best_y < unset) & (best_z < unset)
    # right index 0 is z = 0, whose key always matches: it is the first right candidate
    found = np.concatenate([best_y[both] | best_z[both], y_rank[(y_rank > 0) & (in_left == in_right[0])]])
    if not found.size:
        return None
    rank = int(found.min())
    return rank >> n, rank & ((1 << n) - 1)


def _witness(n: int, members) -> tuple[int, int] | None:
    """The smallest colliding pair (u, v), u < v, or None when the members resolve Q^n.

    Keys are doubled so that the lowest bit can tag the right half's keys:
    after one sort of both halves, a left key followed by itself plus one
    is a candidate match.  x = 0 always matches.  When it is the only
    candidate the set resolves; otherwise the candidates are confirmed
    exactly and the witness taken from the kernel vectors among them.
    """
    bits = np.array(members, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32) & 1
    signs = 1 - 2 * bits.T.astype(np.int8)
    weights = _multipliers(len(members))
    coeffs = np.where(bits.T == 1, -weights, weights).sum(axis=1, dtype=np.uint64) << np.uint64(1)
    h = n // 2
    left = _half_keys(coeffs[:h])
    right = _half_keys(-coeffs[h:])  # the negated keys: a match is left == right
    merged = np.concatenate([left, right])
    merged[left.size:] |= np.uint64(1)
    merged.sort()
    step = np.flatnonzero(np.diff(merged) == 1)
    matched = merged[step[(merged[step] & np.uint64(1)) == 0]]
    if matched.size == 1 and merged[1] == 1 and merged[2] != 1:
        return None  # a single left key 0, a single right key 0 and no other match

    def in_matched(keys: np.ndarray) -> np.ndarray:
        # Positions of the keys found in matched.  np.isin's rule picks the
        # method (a compare per matched key while matched is small, else a
        # binary search), minus np.isin's set-up, which dominated small
        # failing sets; the search alone was 3-4x slower than one compare
        # when matched held a single key at n = 20-23.  matched is sorted
        # and never empty (it holds key 0 of x = 0).
        if matched.size < 10 * keys.size ** 0.145:
            hit = keys == matched[0]
            for key in matched[1:]:
                hit |= keys == key
        else:
            hit = matched[np.minimum(np.searchsorted(matched, keys), matched.size - 1)] == keys
        return np.flatnonzero(hit)

    return _kernel_witness(signs, in_matched(left), in_matched(right))


def _check(S: Landmarks) -> None:
    check_dimension(S.n)
    if not S.members:
        raise ValueError("empty landmark set cannot be verified")


def is_resolving(S: Landmarks, *, threads: int = 1) -> VerificationReport:
    """Check all 2^n distance vectors for pairwise distinctness.

    ``threads`` is accepted for compatibility and ignored.
    """
    _check(S)
    t0 = time.perf_counter()
    witness = _witness(S.n, S.members)
    return VerificationReport(
        resolving=witness is None,
        witness=witness,
        vertices_checked=1 << S.n,
        elapsed=time.perf_counter() - t0,
    )


def is_minimal(S: Landmarks, *, threads: int = 1) -> tuple[bool, list[Vertex]]:
    """Which members can be deleted with the rest still resolving?

    Returns (minimal, removable).  Single-deletion checks suffice: a
    resolving proper subset of S lies inside some S minus one member, and
    every superset of a resolving set resolves too.  ``threads`` is
    accepted for compatibility and ignored.
    """
    _check(S)
    if _witness(S.n, S.members) is not None:
        raise ValueError("minimality is only defined for resolving sets")
    removable: list[Vertex] = []
    if len(S.members) == 1:
        return True, removable  # the empty set never resolves (n >= 1)
    for i, s in enumerate(S.members):
        if _witness(S.n, S.members[:i] + S.members[i + 1:]) is None:
            removable.append(s)
    return not removable, removable
