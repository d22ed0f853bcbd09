"""Resolving-set verification for the hypercube.

A landmark set S resolves Q^n when the 2^n distance vectors d(v,S) are
pairwise distinct.  For every landmark s, d(u,s) - d(v,s) = b_s . (u - v)
with b_s = 1 - 2s, a +-1 vector; and every x in {-1,0,1}^n is u - v for
some pair (u = the ones of x, v = its minus ones).  So S resolves exactly
when no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s in S (the
detecting-matrix view of Lindstrom and of Sebo-Tannier).

Write B for the k x n matrix of the b_s.  The rank path decides a set
from B's kernel.  _echelon reduces B over F_p, p = 2^31 - 1, to its rank
r, its pivot columns and its d = n - r free columns; d = 0 resolves at
once.  Otherwise _rank_kernel enumerates the
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
of h = n // 2 and m = n - h coordinates.  d >= max(n - k, 0) prices it
before the elimination, the rank after it.  Every set on at most 15
coordinates, where the pivot steps cost more than the whole sort, stays
on meet in the middle; from n = 16 on, the rank path takes the sets of
about n/2 + 2 members or more whose rank is close to k, while their
pivot steps alone stay within the keys: up to 19 members at n = 16 and
172 at n = 20.

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
resolves: j is needed (S - j fails) exactly when some nonzero x has B x
nonzero at j alone, since such an x is a kernel vector of S - j, and
every kernel vector of S - j is one (it is no kernel vector of S).
_echelon_with_transform reduces B once and carries the transform E with
E B = [rows; 0] over F_p.  B x = lambda e_j gives E B x = lambda E e_j, so
column j of E turns S's echelon form into that of S - j: the same free
columns when b_j depends on the other rows mod p, otherwise one more,
with every other pivot kept.  Only pivot rows are added to others, so the
elimination carries E's columns of the pivot rows, min(n, k) of them, not
all k.  _rank_kernel takes S as a member whose column of E is cleared,
enumerates the (3^d - 1)/2 candidates of S and the (3^(d+1) - 1)/2 of
every member in one array, S's first, and lifts each by the rank path's
rule.  A lifted x, with B x computed exactly in integers, is a kernel
vector of S when B x = 0 and x != 0, and marks a member needed when B x
is nonzero at it alone.  So S's witness and every member's verdict come
from the same lifted rows; the pass may stop early only once S's own
candidates are done.  The paper's sets, with d = 1, take 1 candidate for
S and 4 per member.

That pass runs when its residues cost fewer keys than the k + 1 verdicts
it replaces, that of S and one of each S - j (_members_pay); its pivot
steps are paid once, against those verdicts' fixed costs, and go
unpriced.  d >= max(n - k, 0) prices it before the elimination, the rank
after it.  It takes every set whose rank is close to its size: on 22
coordinates, every set with d <= 8.  A set it prices out takes _witness
for S and then for each S - j; the empty set never resolves, so a lone
member is needed without a verdict.

The keys go into a buffer that each thread keeps between verdicts (numpy
releases the interpreter lock while it sorts, so threads cannot share
one), grown to the largest verdict the thread has run: 3.4 MiB at n = 23
and 54.7 MiB at n = 28.  The left-right meetings are marked in blocks of
the sorted keys, so a verdict's other arrays are sized by its candidates,
and a warm verdict takes no page faults.  On a 2 vCPU Xeon, in a fresh
process, is_resolving(basis_minimal_set(28)) takes the rank path in about
1.1 ms at 29.4 MiB peak RSS (0.15-0.19 s at 84.6 MiB by MITM), and
is_minimal of it, or of reduced_erdos_renyi_set(28), one elimination in
1.1-2.1 ms, 1.0 MiB above the process before the call.
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


# Words per block of the neighbour scan and of the rank path's residues:
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


def _matched_runs(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The sign-vector indices of one verdict's candidates, from the runs of hashes holding a left and a right key.

    Returns (left, right), or None when the members resolve: the indices
    y and z of the left and the right keys in those runs, in key order, so
    z = 0 comes first in ``right``.  Every (y, z) of one run is a candidate.

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
    return index[~is_right], index[is_right] - side


# The rank path's field: a prime above 3 (so a residue lifts to -1, 0 or 1 in at most one way)
# whose residues' products fit an int64.
_PRIME = 2**31 - 1

# One pivot step of _echelon, priced in MITM keys: 6-14 us a step against 11-17 ns a key
# (n = 16-24 on a 2 vCPU Xeon).
_PIVOT_KEYS = 512


def _rank_cost(n: int, k: int, d: int, members: int = 0) -> int:
    """The rank path's price in MITM keys: k pivot steps, then the candidates of S and of that many members.

    S has (3^d - 1)/2 candidates and a member (3^(d+1) - 1)/2, each of
    n - d residues.  A residue costs about what a key does (16-20 ns
    against 11-17 ns).
    """
    return k * _PIVOT_KEYS + ((3**d - 1) // 2 + members * (3 ** (d + 1) - 1) // 2) * (n - d)


def _rank_pays(n: int, k: int, d: int) -> bool:
    """Whether the rank path decides S for fewer keys than MITM's verdict."""
    return _rank_cost(n, k, d) <= _key_count(n // 2, n - n // 2)


def _reduce(rows: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan over F_p, p = _PRIME, in place on int64 residue rows, pivoting in their first n columns.

    Returns (kept, pivots): the rows that pivot, in order, and their pivot
    columns.  Without division: each row q, once the pivots before it are
    cleared from it, pivots on the largest residue a = q_c of its first n
    columns, and every other row r becomes a r - r_c q, across all its
    columns.  A row whose first n columns clear to zero depends on those
    before it; once n rows pivot, every later one does.

    Columns past the first n, zero on entry, record the transform: as row
    i becomes the s-th to pivot, its column n + s takes the product of the
    earlier pivots' residues a.  Column i of an identity appended to the
    rows would hold just that then, and the same steps keep the two equal.
    """
    p = _PRIME
    update = np.empty_like(rows)
    kept, pivots = [], []
    scale = 1
    for i, row in enumerate(rows):
        if len(kept) == n:
            break
        c = row[:n].argmax()
        a = int(row[c])
        if not a:
            continue
        if len(row) > n:
            row[n + len(kept)] = scale
            scale = scale * a % p
        np.multiply(rows[:, c, None], row, out=update)
        update[i] = 0
        rows *= a  # a r - r_c q stays inside an int64: both terms are below p^2 < 2^62
        rows -= update
        rows %= p
        kept.append(i)
        pivots.append(c)
    return kept, np.array(pivots, dtype=np.intp)


def _echelon(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B reduced over F_p by _reduce: (rows, pivots), the nonzero rows and their pivot columns.

    Pivot column pivots[i] is zero in every row but row i, and x is a
    kernel vector of B over F_p exactly when rows[i] . x = 0 for every i:
    its free entries fix the others.
    """
    rows = signs.T.astype(np.int64)
    rows %= _PRIME
    kept, pivots = _reduce(rows, len(signs))
    return rows[kept], pivots


def _echelon_with_transform(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_echelon's (rows, pivots), and what _rank_kernel reads of a k x k transform E with E B = [rows; 0] over F_p.

    That is E's r pivot rows, in order, then one row that is nonzero in
    exactly the columns where some other row of E is.  Reducing B with I_k
    appended would make E of the appended part: each row becomes a
    combination of members, and every step of _reduce is invertible, so E
    is too.  Only pivot rows are added to others, so E is zero outside the
    pivot rows' columns but on its diagonal, which is nonzero; _reduce
    carries those min(n, k) columns alone, not all k.
    """
    n, k = signs.shape
    rows = np.zeros((k, n + min(n, k)), dtype=np.int64)
    rows[:, :n] = signs.T
    rows %= _PRIME
    kept, pivots = _reduce(rows, n)
    r = len(kept)
    cleared = np.ones(k, dtype=bool)
    cleared[kept] = False
    transform = np.zeros((r + 1, k), dtype=np.int64)
    transform[:r, kept] = rows[kept, n:n + r]
    transform[r] = cleared
    transform[r, kept] = rows[cleared, n:n + r].any(axis=0)
    return rows[kept, :n], pivots, transform


def _rank_kernel(
    signs: np.ndarray, rows: np.ndarray, pivots: np.ndarray, transform: np.ndarray | None = None
) -> tuple[tuple[int, int] | None, np.ndarray | None]:
    """(witness, needed) from the _echelon (rows, pivots) of the n x k matrix of _signs, by enumerating free entries.

    witness is S's _witness.  needed, given what _echelon_with_transform
    returns of the transform E, masks the members j for which S - j fails,
    read only when S resolves; it is None without E.

    A candidate of S assigns the d free entries a sign vector whose highest
    nonzero entry is +1, (3^d - 1)/2 of them, decoded from the indices
    [3^t, 2 3^t) by the _tables of the free columns, with sums s of the
    rows over them.  Pivot i then needs a_i x_c_i = -s_i for its column
    c_i and a_i = rows[i, c_i], so x_c_i is 0, +1 or -1 when s_i is 0,
    p - a_i or a_i, and otherwise the candidate lifts to no sign vector.

    B_{S-j} x = 0 exactly when B x = lambda e_j for some lambda, that is
    when E B x = lambda E e_j.  Column j of E decides how the kernel of
    S - j over F_p looks:
    - nonzero on a row that cleared: lambda = 0, and the kernel is S's own,
      with the same free columns;
    - otherwise, with u its part on the pivot rows and a row i* where
      u_i* != 0: x is a kernel vector exactly when
      u_i* rows[i] . x = u_i rows[i*] . x for every i.  That is again in
      Gauss-Jordan form: c_i* becomes free, and every other pivot keeps its
      column, with scale u_i* a_i.
    A candidate of member j puts t = 0 or 1 on c_i*: S's candidates with
    t = 0 come first, then every free sign vector with t = 1,
    (3^(d+1) - 1)/2 in all.  Pivot c_i then needs
    u_i* a_i x_c_i = -(u_i* s_i - u_i (s_i* + a_i* t)), lifted by the same
    rule; for i = i* that gives x_c_i* = t.  A cleared column of E takes
    u_i* = 1 and u = 0, and so does S, which enters as column 0: its
    residues are the sums s.  t then goes nowhere, so past S's candidates a
    cleared column would only give x = 0 and repeats up to sign; there it
    gets p, which lifts nothing.  All columns' residues come from one array
    of shape (candidates, 1 + k, rank), in blocks of at most _PAIR_BLOCK
    residues; without E, S's alone are (candidates, rank).

    Each lifted x is checked exactly in integers, which rejects the kernel
    vectors of F_p alone: B x = 0 makes x a kernel vector of S (x = 0 is
    never lifted), and B x nonzero at one member alone marks that member
    (_needed).  Every integer kernel vector of S, or of S - j, is a kernel
    vector over F_p, fixed by its free entries, so it or its negative is a
    lifted candidate of S, or of j.  So once S's candidates are done, the
    pass stops when S fails or every member is needed.
    """
    p = _PRIME
    n, k = signs.shape
    r = pivots.size
    d = n - r
    settled = (3**d - 1) // 2
    index = [np.arange(3**i, 2 * 3**i) for i in range(d)]
    if transform is not None:
        index.append(np.arange(3**d))
    if not index:
        return None, None
    index = np.concatenate(index)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    scale = rows[np.arange(r), pivots]
    coeffs = rows[:, free].T
    sums = _lookup(index, _tables(coeffs, p - coeffs))
    sums %= p
    needed, scales = None, scale
    if transform is not None:
        # S first, as a column of E that is zero on the pivot rows and cleared
        u = np.concatenate([np.zeros((r, 1), dtype=np.int64), transform[:r]], axis=1)
        cleared = np.concatenate([[True], transform[r:].any(axis=0)])
        star = (u != 0).argmax(axis=0)
        alpha = np.where(cleared, 1, u[star, np.arange(k + 1)])
        beta = np.where(cleared, 0, u).T  # (1 + k, rank)
        scales = alpha[:, None] * scale % p
        t = (np.arange(index.size) >= settled).astype(np.int64)
        needed = np.zeros(k, dtype=bool)
    unset = 1 << 2 * n  # above every rank
    best = unset
    block = max(_PAIR_BLOCK // scales.size, 1)
    for start in range(0, index.size, block):
        c = slice(start, start + block)
        if needed is None:
            residues = sums[c]
        else:
            star_sums = sums[c][:, star] + scale[star] * t[c, None]
            star_sums %= p
            residues = alpha[:, None] * sums[c, None, :]  # (candidates, 1 + k, rank)
            residues -= beta * star_sums[:, :, None]
            residues -= residues // p * p  # mod p: numpy divides by a scalar several times faster than it takes remainders
            residues[max(settled - start, 0):, cleared] = p  # p is no residue: these lift nothing
        plus, minus = residues == p - scales, residues == scales
        lifts = (plus | minus | (residues == 0)).all(axis=-1)
        if lifts.any():
            at = lifts.nonzero()[0]
            x = np.zeros((at.size, n), dtype=np.int8)
            x[:, free] = _sign_vectors(index[c][at], d)
            x[:, pivots] = plus[lifts]
            x[:, pivots] -= minus[lifts]
            products = x @ signs
            if start < settled:  # every kernel vector of S, or its negative, is among S's own candidates
                kernel = x[~products.any(axis=1)]
                if len(kernel):
                    weights = np.left_shift(1, np.arange(n, dtype=np.int64))
                    pos, neg = (kernel == 1) @ weights, (kernel == -1) @ weights
                    best = min(best, int((np.minimum(pos, neg) << n | np.maximum(pos, neg)).min()))
            if needed is not None:
                needed |= _needed(products.T)
        if needed is not None and start + block >= settled and (best < unset or needed.all()):
            break
    return None if best == unset else divmod(best, 1 << n), needed


def _mitm_witness(signs: np.ndarray) -> tuple[int, int] | None:
    """_witness by meet in the middle: the confirmed candidates of one sorted set of keys."""
    runs = _matched_runs(signs)
    if runs is None:
        return None
    rank = _kernel_witness(signs, *runs)
    return None if rank is None else divmod(rank, 1 << len(signs))


def _witness(signs: np.ndarray) -> tuple[int, int] | None:
    """The smallest colliding pair (u, v), u < v, or None when the members of the n x k matrix of _signs resolve Q^n.

    The rank path decides sets whose _echelon makes it cost fewer keys
    than MITM's (_rank_pays); d >= max(n - k, 0) decides that before the
    elimination, the rank after it.
    """
    n, k = signs.shape
    if _rank_pays(n, k, max(n - k, 0)):
        rows, pivots = _echelon(signs)
        if _rank_pays(n, k, n - pivots.size):
            return _rank_kernel(signs, rows, pivots)[0]
    return _mitm_witness(signs)


def _check(S: Landmarks) -> None:
    check_dimension(S.n)
    if not S.members:
        raise ValueError("empty landmark set cannot be verified")


def is_resolving(S: Landmarks, *, threads: int = 1) -> VerificationReport:
    """Decide whether S resolves Q^n, and find the smallest colliding pair when it does not.

    The verdict and the witness come from the sign vectors of the module
    docstring, not from the 2^n distance vectors: one verdict, by the rank
    path for a set that it prices below meet in the middle, by meet in the
    middle otherwise.  ``vertices_checked`` is 2^n by definition, the
    vertices the verdict covers.  ``threads`` is ignored; it stays because
    the benchmark's workloads still pass it.
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


def _needed(columns: np.ndarray) -> np.ndarray:
    """The members j for which some column's only nonzero entry is entry j.

    Column i is B x for a lifted candidate x; j is needed when B x is
    nonzero at j alone, since x is then a kernel vector of S - j.
    """
    nonzero = columns != 0
    return nonzero[:, nonzero.sum(axis=0) == 1].any(axis=1)


def _members_pay(n: int, k: int, d: int) -> bool:
    """Whether one pass over S and its members lifts fewer residues than the keys of the k + 1 verdicts it replaces.

    Its k pivot steps are paid once, against the fixed costs of those
    k + 1 verdicts, so they are left unpriced.
    """
    return _rank_cost(n, 0, d, k) <= (k + 1) * _key_count(n // 2, n - n // 2)


def _verdicts_needed(signs: np.ndarray) -> np.ndarray:
    """Which members of a resolving set are needed, as a mask: one _witness of S - j per member j.

    The empty set never resolves (n >= 1), so a lone member is needed without a verdict.
    """
    k = signs.shape[1]
    return np.array([k == 1 or _witness(np.delete(signs, j, axis=1)) is not None for j in range(k)])


def _removable(members: tuple[Vertex, ...], needed: np.ndarray) -> list[Vertex]:
    return [s for s, keep in zip(members, needed) if not keep]


def _minimality(S: Landmarks) -> tuple[tuple[int, int] | None, list[Vertex] | None]:
    """(witness, removable): S's _witness, and when S resolves, its members that can go, in member order.

    A set that _members_pay prices below the verdicts it replaces is
    decided by one _echelon_with_transform and one pass of _rank_kernel
    over S and every member; d >= max(n - k, 0) decides that before the
    elimination, the rank after it.  Otherwise S takes _witness and its
    members _verdicts_needed.
    """
    _check(S)
    signs = _signs(S.n, S.members)
    n, k = signs.shape
    if _members_pay(n, k, max(n - k, 0)):
        rows, pivots, transform = _echelon_with_transform(signs)
        if _members_pay(n, k, n - pivots.size):
            witness, needed = _rank_kernel(signs, rows, pivots, transform)
            return witness, None if witness else _removable(S.members, needed)
    witness = _witness(signs)
    return witness, None if witness else _removable(S.members, _verdicts_needed(signs))


def is_minimal(S: Landmarks, *, threads: int = 1) -> tuple[bool, list[Vertex]]:
    """Which members can be deleted with the rest still resolving?

    Returns (minimal, removable), removable in member order; raises
    ValueError when S does not resolve.  Single deletions suffice: a
    resolving proper subset of S lies inside some S minus one member, and
    every superset of a resolving set resolves too.  ``threads`` is
    ignored; it stays because the benchmark's workloads still pass it.
    """
    witness, removable = _minimality(S)
    if witness is not None:
        raise ValueError("minimality is only defined for resolving sets")
    return not removable, removable
