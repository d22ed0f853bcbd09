"""Resolving-set verification for the hypercube.

A landmark set S resolves Q^n when the 2^n distance vectors d(v,S) are
pairwise distinct.  For every landmark s, d(u,s) - d(v,s) = b_s . (u - v)
with b_s = 1 - 2s, a +-1 vector; and every x in {-1,0,1}^n is u - v for
some pair (u = the ones of x, v = its minus ones).  So S resolves exactly
when no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s in S (the
detecting-matrix view of Lindstrom and of Sebo-Tannier).

The verdict decides that by meet in the middle (Horowitz-Sahni): with
fixed odd weights w_j, coordinate i gets the 64-bit coefficient
c_i = sum_j w_j b_{j,i} mod 2^64, and x gets the hash c . x.  Write
x = (y, z) for its halves of the coordinates; a left hash c . y equal to a
negated right hash -c . z marks a candidate x.  x and -x are kernel
vectors together and have negated hashes, so the verdict keys all 3^(n/2)
y but only the (3^(n/2) + 1)/2 z that are 0 or whose highest nonzero
entry is +1, in one buffer sorted once; the matches of the other z are
the negatives of those found.  Each key carries its sign vector's index
in its low bits, so that sort also locates the candidates.  Every kernel
vector is a candidate or the negative of one; every candidate is
confirmed exactly against the sign matrix, so a hash collision never
changes a verdict.  The set resolves when x = 0 is the only candidate.

A failing set's witness, the smallest colliding pair (u, v) with u < v,
comes from the confirmed candidates.  It has u & v = 0, since
dropping the ones two colliding vertices share keeps them colliding and
lowers u; so it is the least (pos x, neg x) over the nonzero kernel
vectors x, where pos x and neg x are the vertices of x's ones and minus
ones, and (neg x, pos x) is the pair of -x.  _kernel_witness finds that
least pair in one pass over the candidates, without pairing any left half
with any right half, so a large kernel costs no more than its candidates.
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


def _steps(coeffs: np.ndarray) -> zip:
    """(c + 3^t, 2 3^t - c) mod 2^64 for each coefficient c = coeffs[t], as uint64 scalars.

    They are what x_t = +1 and x_t = -1 add to a key: the powers of 3
    write digit t, 1 or 2, into the index carried in the key's low bits.
    """
    power = np.uint64(3) ** np.arange(len(coeffs), dtype=np.uint64)
    return zip(coeffs + power, 2 * power - coeffs)


def _spread(keys: np.ndarray, size: int, plus: np.uint64, minus: np.uint64) -> None:
    """Extend the first size keys in place to 3 size: themselves, then plus plus, then plus minus."""
    np.add(keys[:size], plus, out=keys[size:2 * size])
    np.add(keys[:size], minus, out=keys[2 * size:3 * size])


def _verdict_keys(left: np.ndarray, right: np.ndarray, side: int) -> np.ndarray:
    """The keys of one verdict in one buffer: all left keys, then half the right keys.

    ``left`` and ``right`` are the halves' coefficients, shifted clear of
    the tags.  The left part holds left . y + i for every sign vector y, in
    index order; the right part holds right . z + side + i at z = 0 and
    then at each z whose highest nonzero entry is +1, in index order:
    (3^m + 1)/2 keys for m = len(right).  Index i = sum_t d_t 3^t belongs
    to the x with x_t = 0, +1, -1 for d_t = 0, 1, 2.  The keys of the z
    whose highest nonzero entry is entry t are those of all sign vectors of
    the entries below t, plus right[t] + 3^t.  Those 3^t keys, plus side,
    are spread as scratch in the left part, which holds them while
    m <= len(left) + 1, before the left keys overwrite it.
    """
    h, m = len(left), len(right)
    keys = np.empty(3**h + (3**m + 1) // 2, dtype=np.uint64)
    tagged = keys[3**h:]
    keys[0] = tagged[0] = side
    for t, (plus, minus) in enumerate(_steps(right)):
        size = 3**t
        np.add(keys[:size], plus, out=tagged[(size + 1) // 2:(3 * size + 1) // 2])
        if t + 1 < m:
            _spread(keys, size, plus, minus)
    keys[0] = 0
    for t, steps in enumerate(_steps(left)):
        _spread(keys, 3**t, *steps)
    return keys


_DIGITS = 7
# row d: the sign vector of index d of a half of _DIGITS coordinates
_SIGN_ROWS = np.array([0, 1, -1], dtype=np.int8)[np.indices((3,) * _DIGITS, dtype=np.int8).T.reshape(-1, _DIGITS)]


def _sign_vectors(index: np.ndarray, length: int) -> np.ndarray:
    """Rows x for the indices sum_t d_t 3^t of a half of that length: x_t = 0, +1, -1 for d_t = 0, 1, 2.

    The digits are peeled _DIGITS at a time and looked up in _SIGN_ROWS.
    """
    x = np.empty((index.size, length), dtype=np.int8)
    for t in range(0, length, _DIGITS):
        index, low = np.divmod(index, 3**_DIGITS)
        x[:, t:t + _DIGITS] = _SIGN_ROWS[low, :length - t]
    return x


def _ranks(x: np.ndarray, shift: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """pos << n | neg and neg << n | pos for each row of x, whose first column is coordinate shift + 1.

    pos and neg are the vertices of the row's ones and of its minus ones,
    so the second rank is the first of -x.  The two halves' parts of one x
    rank in disjoint bits: or-ing them ranks x.  A rank fits in an int64
    while n <= 31.
    """
    place = np.left_shift(1, np.arange(shift, shift + x.shape[1]), dtype=np.int64)
    pos, neg = (x == 1) @ place, (x == -1) @ place
    return pos << n | neg, neg << n | pos


def _kernel_witness(signs: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[int, int] | None:
    """Smallest (pos x, neg x) over nonzero x = +-(y, z) with signs . x = 0 exactly.

    The smallest has pos x < neg x, since -x would give (neg x, pos x).
    ``signs`` is the n x k matrix of b_{j,i}; ``left`` and ``right`` index
    candidate sign vectors y of the first half of the coordinates and z of
    the second, z = 0 first.  Candidates with equal exact rows
    b . y = -b . z form a group, and every (y, z) of a group is a kernel
    vector, and so is its negative, which needs no z of its own.  y and z
    are chosen independently and z holds the higher coordinates, so the
    best x with z != 0 joins a group's smallest-ranked nonzero z with its
    smallest-ranked y, under the ranks of (y, z) or of its negative; the
    best x with z = 0 is the smallest-ranked nonzero y in the group of z = 0.
    """
    n, h = len(signs), len(signs) // 2
    y, z = _sign_vectors(left, h), _sign_vectors(right, n - h)
    rows = np.concatenate([y @ signs[:h], -(z @ signs[h:])])
    # one opaque value per row: np.unique(axis=0) groups the same rows several times slower
    _, group = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), return_inverse=True)
    in_left, in_right = group[:left.size], group[left.size:]
    y_ranks, z_ranks = _ranks(y, 0, n), _ranks(z, h, n)
    nonzero = right > 0
    unset = np.iinfo(np.int64).max
    found = [y_ranks[0][(left > 0) & (in_left == in_right[0])]]
    for y_rank, z_rank in zip(y_ranks, z_ranks):
        best_y = np.full(len(rows), unset)
        np.minimum.at(best_y, in_left, y_rank)
        best_z = np.full(len(rows), unset)
        np.minimum.at(best_z, in_right[nonzero], z_rank[nonzero])
        both = (best_y < unset) & (best_z < unset)
        found.append(best_y[both] | best_z[both])
    found = np.concatenate(found)
    if not found.size:
        return None
    rank = int(found.min())
    return rank >> n, rank & ((1 << n) - 1)


def _witness(n: int, members) -> tuple[int, int] | None:
    """The smallest colliding pair (u, v), u < v, or None when the members resolve Q^n.

    Each key carries the index of its sign vector in its low b bits, below
    the coefficients, and a right key carries the bit side above the index;
    the right half is keyed negated, so a match is a left and a right key
    of one hash.  Those sort next to each other, left keys first within a
    hash, so one sort of _verdict_keys decides the verdict and locates the
    candidates: neighbours whose XOR lies in [side, 2 side) mark a hash with
    a left and a right key.  x = 0 always gives one, at hash 0 (keys 0 and
    side), and the set resolves when it is the only one and no third key
    has hash 0.  Otherwise the runs of the marked hashes are read back,
    their tags decoded and confirmed exactly by _kernel_witness.  A hash of
    left keys only is skipped: coordinates no member tells apart tie many
    left keys without any kernel vector among them.
    """
    bits = np.array(members, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32) & 1
    signs = 1 - 2 * bits.T.astype(np.int8)
    weights = _multipliers(len(members))
    h = n // 2
    side = 1 << (3 ** (n - h) - 1).bit_length()
    b = side.bit_length()
    coeffs = np.where(bits.T == 1, -weights, weights).sum(axis=1, dtype=np.uint64) << np.uint64(b)
    keys = _verdict_keys(coeffs[:h], -coeffs[h:], side)
    keys.sort()
    gaps = keys[1:] ^ keys[:-1]
    gaps >>= np.uint64(b - 1)  # 1 exactly where a left key meets a right key of its hash
    marked = np.flatnonzero(gaps == 1)
    if marked.size == 1 and keys[2] >= 2 * side:
        return None
    tag = np.uint64(2 * side - 1)
    hashes = keys[marked] & ~tag
    lo = np.searchsorted(keys, hashes)
    sizes = np.searchsorted(keys, hashes | tag, side="right") - lo
    # the positions lo[r], ..., lo[r] + sizes[r] - 1 of every run r, in order
    starts = np.cumsum(sizes) - sizes
    tags = (keys[np.repeat(lo - starts, sizes) + np.arange(sizes.sum())] & tag).astype(np.int64)
    is_right = tags >= side
    return _kernel_witness(signs, tags[~is_right], tags[is_right] - side)


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
