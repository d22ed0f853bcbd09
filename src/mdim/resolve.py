"""Resolving-set verification for the hypercube.

A landmark set S resolves Q^n when the 2^n distance vectors d(v,S) are
pairwise distinct.  For every landmark s, d(u,s) - d(v,s) = b_s . (u - v)
with b_s = 1 - 2s, a +-1 vector; and every x in {-1,0,1}^n is u - v for
some pair (u = the ones of x, v = its minus ones).  So S resolves exactly
when no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s in S (the
detecting-matrix view of Lindstrom and of Sebo-Tannier).

Write B for the k x n matrix of the b_s.  The rank path decides a set of
k <= n members from B's kernel.  _echelon reduces B over F_p,
p = 2^31 - 1, to its rank r, its pivot columns and its d = n - r free
columns; d = 0 resolves at once.  Otherwise _rank_witness enumerates the
(3^d - 1)/2 free sign vectors whose highest nonzero entry is +1, keeps
those whose pivot entries come out as the residues 0, 1 or p - 1, lifts
them to sign vectors x and confirms B x = 0 exactly in integers.  That is
exact for three reasons: every integer kernel vector of B is also one over
F_p; over F_p a kernel vector is fixed by its free entries; and since
p > 3, a residue lifts to -1, 0 or 1 in at most one way.  So every kernel
vector in {-1,0,1}^n, or its negative, is a confirmed candidate, and the
confirm rejects the kernel vectors of F_p alone.  The paper's sets of n - 1
members have d = 1: their kernel is the line through (3 - n, 1, ..., 1),
which holds no sign vector from n = 5 on.

The rank path runs when it costs fewer keys than meet in the middle
sorts (_rank_pays): k pivot steps at _PIVOT_KEYS keys each, plus one key
per residue of its candidates, against 3^h + (3^m + 1)/2 keys for halves
of h = n // 2 and m = n - h coordinates.  d >= n - k prices it before the
elimination, the rank after it.  Every set on at most 15 coordinates,
where the pivot steps cost more than the whole sort, stays on meet in the
middle; from n = 16 on, the rank path takes the sets of about n/2 + 2 to
n members whose rank is close to k.  Sets of more than n members always
go to meet in the middle.

Meet in the middle (MITM, Horowitz-Sahni) decides the rest: with
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
comes from the confirmed candidates of either path.  It has u & v = 0,
since dropping the ones two colliding vertices share keeps them colliding
and lowers u; so it is the least (pos x, neg x) over the nonzero kernel
vectors x, where pos x and neg x are the vertices of x's ones and minus
ones, and (neg x, pos x) is the pair of -x.  The rank path takes the
least (min, max) of the two over its confirmed candidates.  For MITM,
_kernel_witness finds that least pair in one pass over the candidates,
without pairing any left half with any right half, so a large kernel
costs no more than its candidates.

A candidate is decoded from its base-3 index by table lookup.  For each
group of 7 coordinates of a half, _tables fills, with the _spread that
also builds the keys, the table whose row d sums what the digits of d add;
_lookup sums the rows an index's digits pick.  That one pair gives the
exact rows B y and -B z, the ranks (pos x, neg x) and plain sign vectors.

Minimality asks, for each member j of a resolving S, whether S - j still
resolves.  Write B_G for the rows of B of a group G of members.  j in G
is needed (S - j fails) exactly when some nonzero x with B_{S-G} x = 0
has B_G x nonzero at j alone: such an x is a kernel vector of S - j, and
every kernel vector of S - j is one (it is no kernel vector of S, so B x
is nonzero at j).  One verdict of S - G therefore decides every member
of G, from the left-right key pairs of its matched runs: those are its
kernel vectors up to sign, and B_G x and B_G (-x) have one support.
Each pair is confirmed exactly against B before it counts.  is_minimal
runs the verdict of S and one per half of its members, splitting a half
again only when its pairs, counted from the run sizes before any is
formed, outnumber that verdict's keys.  A group of one member j goes
through is_resolving's own witness routine on S - j.

The keys go into a buffer that each thread keeps between verdicts (numpy
releases the interpreter lock while it sorts, so threads cannot share
one), grown to the largest verdict the thread has run: 3.4 MiB at n = 23
and 54.7 MiB at n = 28.  The left-right meetings are marked in blocks of
the sorted keys, so a verdict's other arrays are sized by its candidates,
and a warm verdict takes no page faults.  On a 2 vCPU Xeon, in a fresh
process, is_resolving(basis_minimal_set(28)) takes the rank path in about
1.1 ms at 29.4 MiB peak RSS (0.15-0.19 s at 84.6 MiB by MITM), and
is_minimal of it 0.42-0.50 s at 105 MiB, nearly all in the MITM verdicts
of its two groups.
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache

import numpy as np

from .core import DIMENSION_CAP, Landmarks, VerificationReport, Vertex, check_dimension, check_vertex, hamming_distance

DistanceVector = tuple[int, ...]


def distance_vector(v: Vertex, S: Landmarks) -> DistanceVector:
    """Distances from v to each landmark, in landmark order."""
    if not S.members:
        raise ValueError("empty landmark set has no distance vector")
    check_vertex(v, S.n)
    return tuple(hamming_distance(v, s) for s in S.members)


def _multipliers(k: int) -> np.ndarray:
    """k fixed odd 64-bit weights: splitmix64 of 1..k, lowest bit forced on."""
    z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


# 3^t for every coordinate t of a half, up to the larger half of DIMENSION_CAP
_POWERS = np.uint64(3) ** np.arange(DIMENSION_CAP - DIMENSION_CAP // 2, dtype=np.uint64)


def _steps(coeffs: np.ndarray) -> zip:
    """(c + 3^t, 2 3^t - c) mod 2^64 for each coefficient c = coeffs[t], as uint64 scalars.

    They are what x_t = +1 and x_t = -1 add to a key: the powers of 3
    write digit t, 1 or 2, into the index carried in the key's low bits.
    """
    power = _POWERS[:len(coeffs)]
    return zip(coeffs + power, 2 * power - coeffs)


def _spread(keys: np.ndarray, size: int, plus, minus) -> None:
    """Extend the first size rows in place to 3 size: themselves, then plus plus, then plus minus."""
    np.add(keys[:size], plus, out=keys[size:2 * size])
    np.add(keys[:size], minus, out=keys[2 * size:3 * size])


_buffers = threading.local()


def _key_buffer(size: int) -> np.ndarray:
    """The first size words of this thread's key buffer, grown to the largest size it has been asked for.

    It is kept between verdicts, so a warm verdict writes its keys into
    pages it already has.  Each thread has its own: numpy releases the
    interpreter lock while it sorts.  Nothing a verdict returns may be a
    view of it.
    """
    buffer = getattr(_buffers, "keys", None)
    if buffer is None or buffer.size < size:
        buffer = _buffers.keys = np.empty(size, dtype=np.uint64)
    return buffer[:size]


def _key_count(h: int, m: int) -> int:
    """The keys of one verdict over halves of h and m coordinates: 3^h left keys and (3^m + 1)/2 right keys."""
    return 3**h + (3**m + 1) // 2


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
    keys = _key_buffer(_key_count(h, m))
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


def _tables(plus: np.ndarray, minus: np.ndarray) -> list[np.ndarray]:
    """Per _DIGITS entries t, the table whose row d sums plus[t] or minus[t] where digit t of d is 1 or 2.

    Entry t of ``plus`` and ``minus`` is what x_t = +1 and x_t = -1 add, a
    row of any shape; digit t counts from the first entry of its table.
    An empty half gets one table holding one zero row.
    """
    tables = []
    for start in range(0, max(len(plus), 1), _DIGITS):
        stop = min(start + _DIGITS, len(plus))
        table = np.zeros((3 ** (stop - start), *plus.shape[1:]), dtype=plus.dtype)
        for t in range(start, stop):
            _spread(table, 3 ** (t - start), plus[t], minus[t])
        tables.append(table)
    return tables


def _lookup(index: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """For each index sum_t d_t 3^t, the sum of the rows its digits pick, _DIGITS at a time, from _tables."""
    rows = np.zeros((index.size, *tables[0].shape[1:]), dtype=tables[0].dtype)
    for table in tables:
        index, low = np.divmod(index, 3**_DIGITS)
        rows += table.take(low, axis=0)
    return rows


def _sign_vectors(index: np.ndarray, length: int) -> np.ndarray:
    """Rows x for the indices sum_t d_t 3^t of a half of that length: x_t = 0, +1, -1 for d_t = 0, 1, 2."""
    unit = np.eye(length, dtype=np.int8)
    return _lookup(index, _tables(unit, -unit))


@lru_cache(maxsize=None)
def _rank_tables(n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The _tables of (pos << n | neg, neg << n | pos) over each half of the coordinates of Q^n.

    pos and neg are the vertices of a sign vector's ones and of its minus
    ones, so the second rank is the first of -x.  The two halves' parts of
    one x rank in disjoint bits: or-ing them ranks x.  A rank fits in an
    int64 while n <= 31.
    """
    plus = np.left_shift(1, np.arange(n)[:, None] + [n, 0], dtype=np.int64)
    h = n // 2
    return _tables(plus[:h], plus[:h, ::-1]), _tables(plus[h:], plus[h:, ::-1])


def _row_tables(signs: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The _tables of the exact rows B y over the first half of the coordinates and -B z over the second.

    ``signs`` is the n x k matrix of b_{j,i}, B transposed.
    """
    h = len(signs) // 2
    return _tables(signs[:h], -signs[:h]), _tables(-signs[h:], signs[h:])


def _kernel_witness(signs: np.ndarray, left: np.ndarray, right: np.ndarray) -> int | None:
    """Smallest rank pos x << n | neg x over nonzero x = +-(y, z) with B x = 0 exactly.

    The smallest has pos x < neg x, since -x would give (neg x, pos x).
    ``signs`` is the n x k matrix of _signs; ``left`` and ``right`` index
    candidate sign vectors y of the first half of the coordinates and z of
    the second, z = 0 first, decoded by the _row_tables of ``signs`` and the
    _rank_tables of n.  Candidates with equal exact rows B y = -B z form a
    group, and every (y, z) of a group is a kernel vector, and so is its
    negative, which needs no z of its own.
    y and z are chosen independently and z holds the higher coordinates, so
    the best x with z != 0 joins a group's smallest-ranked nonzero z with
    its smallest-ranked y, under the ranks of (y, z) or of its negative; the
    best x with z = 0 is the smallest-ranked nonzero y in the group of z = 0.
    """
    row_tables, rank_tables = _row_tables(signs), _rank_tables(len(signs))
    rows = np.concatenate([_lookup(left, row_tables[0]), _lookup(right, row_tables[1])])
    # one opaque value per row: np.unique(axis=0) groups the same rows several times slower
    _, group = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(), return_inverse=True)
    in_left, in_right = group[:left.size], group[left.size:]
    y_ranks, z_ranks = _lookup(left, rank_tables[0]), _lookup(right, rank_tables[1])
    nonzero = right > 0
    unset = np.iinfo(np.int64).max
    found = [y_ranks[(left > 0) & (in_left == in_right[0]), 0]]
    for y_rank, z_rank in zip(y_ranks.T, z_ranks.T):
        best_y = np.full(len(rows), unset)
        np.minimum.at(best_y, in_left, y_rank)
        best_z = np.full(len(rows), unset)
        np.minimum.at(best_z, in_right[nonzero], z_rank[nonzero])
        both = (best_y < unset) & (best_z < unset)
        found.append(best_y[both] | best_z[both])
    found = np.concatenate(found)
    return int(found.min()) if found.size else None


def _signs(n: int, members) -> np.ndarray:
    """The n x k matrix of b_{j,i} = 1 - 2 s_{j,i} for the members s_j, as int8."""
    bits = np.array(members, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32) & 1
    return 1 - 2 * bits.T.astype(np.int8)


# Words per block of the neighbour scan and of the group check's pairs:
# 64 KiB of uint64, below glibc's 128 KiB mmap threshold, so a block's
# scratch reuses heap pages rather than faulting in fresh ones.  The keys
# are kept, so no large free raises that threshold.
_PAIR_BLOCK = 1 << 13


def _marked(keys: np.ndarray, b: int) -> np.ndarray:
    """The positions i of the sorted keys whose XOR with key i + 1 lies in [side, 2 side), side = 1 << (b - 1).

    They are found _PAIR_BLOCK neighbours at a time in one scratch of
    that many words, so no array as large as the keys is made.
    """
    size = keys.size - 1
    gaps = np.empty(min(_PAIR_BLOCK, size), dtype=np.uint64)
    hits = np.empty(gaps.size, dtype=bool)
    shift = np.uint64(b - 1)
    marked = []
    for start in range(0, size, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, size)
        gap = np.bitwise_xor(keys[start + 1:stop + 1], keys[start:stop], out=gaps[:stop - start])
        gap >>= shift  # 1 exactly where a left key meets a right key of its hash
        found = np.equal(gap, 1, out=hits[:stop - start]).nonzero()[0]
        if found.size:
            marked.append(found + start)
    return np.concatenate(marked)  # x = 0 always meets, at hash 0


def _matched_runs(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The sign-vector indices of one verdict's candidates, by runs of hashes holding a left and a right key.

    Returns (left, right, lefts, rights), or None when the members resolve:
    run r holds the next lefts[r] indices y of ``left`` and the next
    rights[r] indices z of ``right``, each increasing, and every (y, z) of
    one run is a candidate.

    Each key carries the index of its sign vector in its low b
    bits, below the coefficients, and a right key carries the bit side
    above the index; the right half is keyed negated, so a match is a left
    and a right key of one hash.  Those sort next to each other, left keys
    first within a hash, so one sort of _verdict_keys decides the verdict
    and locates the candidates: neighbours whose XOR lies in [side, 2 side)
    mark a hash with a left and a right key.  x = 0 always gives one, at
    hash 0 (keys 0 and side), and the set resolves when it is the only one
    and no third key has hash 0.  A hash of left keys only is skipped:
    coordinates no member tells apart tie many left keys without any
    kernel vector among them.
    """
    n = len(signs)
    weights = _multipliers(signs.shape[1])
    h = n // 2
    side = 1 << (3 ** (n - h) - 1).bit_length()
    b = side.bit_length()
    coeffs = np.where(signs < 0, -weights, weights).sum(axis=1, dtype=np.uint64) << np.uint64(b)
    keys = _verdict_keys(coeffs[:h], -coeffs[h:], side)
    keys.sort()
    marked = _marked(keys, b)
    if marked.size == 1 and keys[2] >= 2 * side:
        return None
    tag = np.uint64(2 * side - 1)
    hashes = keys[marked] & ~tag
    lo = np.searchsorted(keys, hashes)
    hi = np.searchsorted(keys, hashes | tag, side="right")
    sizes = hi - lo
    # the positions lo[r], ..., hi[r] - 1 of every run r, in order
    starts = np.cumsum(sizes) - sizes
    index = np.repeat(lo - starts, sizes)
    index += np.arange(index.size)
    index = keys[index].view(np.int64)
    index &= 2 * side - 1
    is_right = index >= side
    return index[~is_right], index[is_right] - side, marked + 1 - lo, hi - marked - 1


# The rank path's field: a prime above 3 (so a residue lifts to -1, 0 or 1 in at most one way)
# whose residues' products fit an int64.
_PRIME = 2**31 - 1

# One pivot step of _echelon, priced in MITM keys: 6-14 us a step against 11-17 ns a key
# (n = 16-24 on a 2 vCPU Xeon).
_PIVOT_KEYS = 512


def _rank_pays(n: int, k: int, d: int) -> bool:
    """Whether the rank path costs fewer keys than MITM's: k pivot steps, then (3^d - 1)/2 candidates of n - d residues.

    A residue costs about what a key does (16-20 ns against 11-17 ns).
    """
    return k * _PIVOT_KEYS + (3**d - 1) // 2 * (n - d) <= _key_count(n // 2, n - n // 2)


def _echelon(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B reduced over F_p, p = _PRIME: (rows, pivots), the nonzero rows and their pivot columns.

    Gauss-Jordan without division: each member's row q, once the pivots
    before it are cleared from it, pivots on its largest residue a = q_c,
    and every other row r becomes a r - r_c q.  A row that clears to zero
    depends on those before it.  So pivot column pivots[i] is zero in
    every row but row i, and x is a kernel vector of B over F_p exactly
    when rows[i] . x = 0 for every i: its free entries fix the others.
    """
    p = _PRIME
    rows = signs.T.astype(np.int64)
    rows %= p
    update = np.empty_like(rows)
    kept, pivots = [], []
    for i, row in enumerate(rows):
        c = row.argmax()
        a = int(row[c])
        if not a:
            continue
        np.multiply(rows[:, c, None], row, out=update)
        update[i] = 0
        rows *= a  # a r - r_c q stays inside an int64: both terms are below p^2 < 2^62
        rows -= update
        rows %= p
        kept.append(i)
        pivots.append(c)
    return rows[kept], np.array(pivots, dtype=np.intp)


def _rank_witness(signs: np.ndarray, rows: np.ndarray, pivots: np.ndarray) -> tuple[int, int] | None:
    """_witness from the _echelon (rows, pivots) of the n x k matrix of _signs, by enumerating its free entries.

    A candidate assigns the d free entries a sign vector whose highest
    nonzero entry is +1, (3^d - 1)/2 of them, decoded from the indices
    [3^t, 2 3^t) by the _tables of the free columns.  Pivot i then needs
    a x_pivot = -s, a = rows[i, pivots[i]] and s the sum of the rest of
    row i, so x_pivot is 0, +1 or -1 when s is 0, p - a or a, and
    otherwise the candidate lifts to no sign vector.  A lifted x is confirmed with B x = 0
    exactly, which rejects the kernel vectors of F_p alone.  Every integer
    kernel vector is a kernel vector over F_p, fixed by its free entries,
    so it or its negative is a lifted candidate.
    """
    p = _PRIME
    n = len(signs)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    d = n - pivots.size
    if not d:
        return None
    index = np.concatenate([np.arange(3**t, 2 * 3**t) for t in range(d)])
    coeffs = rows[:, free].T
    sums = _lookup(index, _tables(coeffs, p - coeffs))
    sums %= p
    scale = rows[np.arange(pivots.size), pivots]
    plus, minus = sums == p - scale, sums == scale
    lifts = (plus | minus | (sums == 0)).all(axis=1)
    if not lifts.any():
        return None
    x = np.zeros((int(lifts.sum()), n), dtype=np.int8)
    x[:, free] = _sign_vectors(index[lifts], d)
    x[:, pivots] = plus[lifts]
    x[:, pivots] -= minus[lifts]
    x = x[~(x @ signs).any(axis=1)]
    if not len(x):
        return None
    weights = np.left_shift(1, np.arange(n, dtype=np.int64))
    pos, neg = (x == 1) @ weights, (x == -1) @ weights
    rank = (np.minimum(pos, neg) << n | np.maximum(pos, neg)).min()
    return divmod(int(rank), 1 << n)


def _mitm_witness(signs: np.ndarray) -> tuple[int, int] | None:
    """_witness by meet in the middle: the confirmed candidates of one sorted set of keys."""
    runs = _matched_runs(signs)
    if runs is None:
        return None
    rank = _kernel_witness(signs, *runs[:2])
    return None if rank is None else divmod(rank, 1 << len(signs))


def _witness(signs: np.ndarray) -> tuple[int, int] | None:
    """The smallest colliding pair (u, v), u < v, or None when the members of the n x k matrix of _signs resolve Q^n.

    The rank path decides sets of at most n members whose _echelon makes
    it cost fewer keys than MITM's (_rank_pays); d >= n - k decides that
    before the elimination, the rank after it.
    """
    n, k = signs.shape
    if k <= n and _rank_pays(n, k, n - k):
        rows, pivots = _echelon(signs)
        if _rank_pays(n, k, n - pivots.size):
            return _rank_witness(signs, rows, pivots)
    return _mitm_witness(signs)


def _check(S: Landmarks) -> None:
    check_dimension(S.n)
    if not S.members:
        raise ValueError("empty landmark set cannot be verified")


def is_resolving(S: Landmarks, *, threads: int = 1) -> VerificationReport:
    """Decide whether S resolves Q^n, and find the smallest colliding pair when it does not.

    The verdict and the witness come from the sign vectors of the module
    docstring, not from the 2^n distance vectors: one verdict, by the rank
    path for a set of at most n members that it prices below meet in the
    middle, by meet in the middle otherwise.  ``vertices_checked`` is 2^n
    by definition, the vertices the verdict covers.  ``threads`` is
    ignored; it stays because the benchmark's workloads still pass it.
    """
    _check(S)
    t0 = time.perf_counter()
    witness = _witness(_signs(S.n, S.members))
    return VerificationReport(
        resolving=witness is None,
        witness=witness,
        vertices_checked=1 << S.n,
        elapsed=time.perf_counter() - t0,
    )


def _pairs(lefts: np.ndarray, rights: np.ndarray, block: int):
    """Every (left, right) position pair within one run of _matched_runs, in blocks of that many pairs."""
    ends = np.cumsum(lefts * rights)
    total = int(ends[-1])
    left_starts, right_starts = np.cumsum(lefts) - lefts, np.cumsum(rights) - rights
    for start in range(0, total, block):
        p = np.arange(start, min(start + block, total))
        r = np.searchsorted(ends, p, side="right")
        q = p - ends[r] + lefts[r] * rights[r]
        yield left_starts[r] + q // rights[r], right_starts[r] + q % rights[r]


def _needed(columns: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The members j of the group (a mask) for which some column's only nonzero entry is entry j.

    Column i is B x for a candidate x of the verdict of the members
    outside the group; one with a nonzero entry outside the group is no
    kernel vector of theirs, and counts for nothing.
    """
    nonzero = columns != 0
    single = nonzero[:, nonzero.sum(axis=0) == 1]
    return single.any(axis=1) & group


def _needed_in(signs: np.ndarray, rows: tuple, members: np.ndarray) -> np.ndarray:
    """Which of the members at these indices are needed, as a mask over all k members.

    One member j is needed when _witness finds S - j fails; a larger group
    G takes one verdict of S - G, or one per half of G when that verdict's
    pairs outnumber its keys.  ``rows`` holds the _row_tables of ``signs``.
    """
    group = np.zeros(signs.shape[1], dtype=bool)
    group[members] = True
    if members.size == 1:
        return group & (_witness(signs[:, ~group]) is not None)
    runs = _matched_runs(signs[:, ~group])
    if runs is None:
        return np.zeros_like(group)  # S - G resolves: every member of G can go
    left, right, lefts, rights = runs
    n = len(signs)
    if int((lefts * rights).sum()) > _key_count(n // 2, n - n // 2):
        return np.logical_or.reduce([_needed_in(signs, rows, half) for half in np.array_split(members, 2)])
    needed = np.zeros_like(group)
    # at most _PAIR_BLOCK pairs, whose (pairs, k) int8 rows also fit in _PAIR_BLOCK words
    block = max(_PAIR_BLOCK * 8 // max(len(group), 8), 1)
    for y, z in _pairs(lefts, rights, block):
        columns = _lookup(left[y], rows[0])
        columns -= _lookup(right[z], rows[1])
        needed |= _needed(columns.T, group)
        if needed[group].all():
            break
    return needed


def _minimality(signs: np.ndarray, members: tuple[Vertex, ...]) -> tuple[bool, list[Vertex]]:
    """is_minimal's answer for the members of a resolving set, given their n x k matrix of _signs.

    The caller has run the verdict of the whole set; this runs only the
    verdicts of its groups.
    """
    k = len(members)
    if k == 1:
        return True, []  # the empty set never resolves (n >= 1)
    rows = _row_tables(signs)
    needed = np.logical_or.reduce([_needed_in(signs, rows, half) for half in np.array_split(np.arange(k), 2)])
    removable = [s for s, keep in zip(members, needed) if not keep]
    return not removable, removable


def is_minimal(S: Landmarks, *, threads: int = 1) -> tuple[bool, list[Vertex]]:
    """Which members can be deleted with the rest still resolving?

    Returns (minimal, removable), removable in member order.  Single
    deletions suffice: a resolving proper subset of S lies inside some S
    minus one member, and every superset of a resolving set resolves too.
    They are decided a group of members at a time (see the module
    docstring): a member j of a group G is needed exactly when some kernel
    vector x of S - G has B_G x nonzero at j alone.  The members start as
    two halves, so a set usually costs three verdicts: S itself, which
    raises ValueError when S does not resolve, and one of S - G per half
    G.  The verdict of S, and that of S - j for a group of one member j,
    is is_resolving's own, by the rank path where it is priced below meet
    in the middle; the verdicts of larger groups are always meet in the
    middle, since they read its key pairs.  A group whose pairs outnumber
    its verdict's keys is split in two.  ``threads`` is ignored; it stays
    because the benchmark's workloads still pass it.
    """
    _check(S)
    signs = _signs(S.n, S.members)
    if _witness(signs) is not None:
        raise ValueError("minimality is only defined for resolving sets")
    return _minimality(signs, S.members)
