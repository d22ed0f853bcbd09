"""Exact minimum-resolving-set search on Q^n.

Translation invariance lets every resolving set be normalized to contain
phi.  The column lemma then shrinks each stratum: read the n coordinates
of {phi, s_1, ..., s_r} as columns, coordinate i giving the r-bit vector
of bits i of s_1..s_r.  If two coordinates i, i' had equal columns, the
unit vectors e_i and e_i' would share a distance vector (both are at
distance 1 from phi and at |s| + 1 - 2 s_i from every s), so in a
resolving set the columns are pairwise distinct.  Permuting coordinates
fixes phi and permutes the columns, so up to that symmetry a size-k
candidate is an n-subset of {0,1}^(k-1), and none resolves when
n > 2^(k-1): C(2^(k-1), n) column sets in place of C(2^n - 1, k - 1)
vertex sets.

_extends asks the same of a sorted prefix (0, p_1, ..., p_t): the
coordinates whose prefix columns are equal form a cell, and the
completion's rows give each cell distinct columns.  A stratum is decided
by the prefix (0,); strata below the counting and column-lemma bounds
are excluded without one.  The report's example, the lexicographically
first phi-normalized hit, is found by greedy prefix extension until the
prefix's completions fit in one block, and the plain scan of that block
finishes it (C(57, 2) = 1,596 completions of (0, 1, 6) at n = 6; the
whole stratum for n <= 5).  subsets_examined is the example's 1-based
position in the plain enumeration (smaller strata in full, then
lexicographic order), computed by arithmetic.  The plain scan over every
phi-containing k-subset also serves find_all_min_sets, which lists every
hit, and is the reference the tests compare against.

Both scans grow their candidates by one technique, _children: depth
first, children ascending after their parent, each block of a level
finished before the next is cut.  The plain scan appends one member a
step, so each level holds one block (all C(62, 3) = 37,820 prefixes of
the (6, 5) listing would hold 75,640 words of running AND) and nothing
is unranked.  The column scan appends one coordinate's column a step,
but a cell's last j columns, as many as a cached table of at most 256
increasing j-tuples holds, come in one step over its tuples, and cells
taken whole share one step while their product fits in 256: the cell of
6 coordinates over the 8 columns of {0,1}^3 is one step of C(8, 6) = 28
tuples, not six, and the cells of 1, 1 and 4 coordinates over 4 columns
one step of 16.  Its leaf blocks start at 256 candidates and double, so
_extends(6, 5, (0,)), whose first hit is its 86th candidate, tests 251
of them, not a first block of 5,966.

The kernel decides a candidate without its 2^n distance vectors, by the
detecting-matrix criterion the verifier uses: with phi in the set, it
fails iff some nonzero sum-zero x in {-1,0,1}^n also sums to 0 on the
ones of every other member.  A cached table holds one bit per such x up
to sign for every vertex, (A002426(n) - 1) / 2 bits (70 at n = 6, 1,569
at n = 9, 36,894 at n = 12), so a candidate costs a few uint64 words per
member past the first, and a plain-scan child one row ANDed into its
parent's.  Every verdict is an existence question and every listing
keeps enumeration order, so no report depends on the block size.

Minimum sizes for n >= 6 are not literature claims; they are values this
search computes and certifies exhaustively within its guards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count, repeat, takewhile
from math import comb
from typing import Iterator

import numpy as np

from .construct import best_construction
from .core import Landmarks, check_dimension, hamming_distance
from .resolve import _sign_vectors

# Default cost guard; --force overrides it up to FORCED_CAP.  `dimension
# --n 8` takes 0.15-0.28 s of process wall time at 31.6 MiB peak RSS, of
# which min_resolving_size(8) is 0.030-0.056 s, and `dimension --n 9
# --force` 6.9-9.0 s at 32.6 MiB.  A stratum with no hit scans all of its
# C(2^(k-1), n) column sets (C(32, 9) = 28 M at n = 9, k = 6, in 5,439
# blocks of ~5,160, each 0.1-0.25 ms to grow and 0.4-1.0 ms in the kernel);
# the kernel takes 19-22 ms a block of _CHUNK at n = 12, k = 7 (54 MiB,
# 18.5 of it the table), on a 2 vCPU Xeon.
EXHAUSTIVE_CAP = 8
FORCED_CAP = 12

_CHUNK = 8192
# Table words per kernel tile: one n = 12 block of _CHUNK random candidates
# took 32-36 ms in tiles of 2^14-2^16 words, 55-70 ms at 2^12 or 2^18.  Sign
# vectors per step of the table build: the n = 12 build peaked at 51 MiB RSS
# in steps of 2^8, 83 MiB in steps of 2^12 (on a 2 vCPU Xeon).
_TILE_WORDS = 1 << 16
_TABLE_COLUMNS = 1 << 8


@dataclass(frozen=True)
class SearchReport:
    """Result of a minimum-size search.

    ``exhaustive`` True means every phi-containing subset of size below
    ``min_size`` was ruled out, either scanned (its column set, up to
    coordinate permutation, failed) or excluded by a lower bound (see
    _lower_bound), which by translation invariance rules out all smaller
    resolving sets.
    """

    n: int
    min_size: int
    example: Landmarks
    subsets_examined: int
    elapsed: float
    exhaustive: bool


@lru_cache(maxsize=None)
def _zero_masks(n: int) -> np.ndarray:
    """Row s, bit j: the sign vector x_j sums to 0 on the ones of s.

    The x_j are the nonzero sum-zero x in {-1,0,1}^n whose highest nonzero
    entry is +1.  Their sums over every s are built by doubling, one
    coordinate at a time, _TABLE_COLUMNS vectors at once; each row is
    packed into uint64 words, bit j in word j // 64, padding bits clear.
    """
    index = np.concatenate([np.arange(3**t, 2 * 3**t, dtype=np.int64) for t in range(n)])
    x = _sign_vectors(index, n)
    x = x[x.sum(axis=1) == 0]
    table = np.zeros((1 << n, -(-len(x) // 64) * 8), dtype=np.uint8)
    sums = np.zeros((1 << n, _TABLE_COLUMNS), dtype=np.int8)
    for lo in range(0, len(x), _TABLE_COLUMNS):
        part = x[lo:lo + _TABLE_COLUMNS]
        rows = sums[:, :len(part)]
        for i in range(n):
            np.add(rows[:1 << i], part[:, i], out=rows[1 << i:2 << i])
        table[:, lo // 8:(lo + len(part) + 7) // 8] = np.packbits(rows == 0, axis=1, bitorder="little")
    table = table.view(np.uint64)
    table.setflags(write=False)
    return table


def _resolving_mask(n: int, rows: np.ndarray) -> np.ndarray:
    """Which candidates (columns of the member-major rows, row 0 phi) resolve Q^n.

    S resolves iff no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s
    in S, b_s = 1 - 2s (Lindstrom; Sebo-Tannier).  With phi in S,
    b_phi . x = sum x, and a sum-zero x has b_s . x = 0 iff it sums to 0 on
    the ones of s: S fails iff the AND of its members' _zero_masks rows is
    nonzero.  Phi's row holds every x_j, so the AND starts from row 1, or
    from phi's row for a one-member block: on Q^1, with no x_j, that
    resolves.  Tiles hold ~_TILE_WORDS words.
    """
    table = _zero_masks(n)
    tile = max(1, _TILE_WORDS // max(table.shape[1], 1))
    resolves = np.empty(rows.shape[1], dtype=bool)
    for lo in range(0, rows.shape[1], tile):
        members = rows[:, lo:lo + tile]
        zero = table.take(members[min(1, len(members) - 1)], axis=0)
        for row in members[2:]:
            zero &= table.take(row, axis=0)
        # an OR over each row's words: np.any reduces short rows slower
        np.equal(np.bitwise_or.reduce(zero, axis=1), 0, out=resolves[lo:lo + members.shape[1]])
    return resolves


def _children(
    low: np.ndarray, counts: np.ndarray, budget: int | Iterator[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (parent, v) blocks: parent i once for each v in range(low[i], low[i] + counts[i]).

    Parents come whole and in order, each with its children ascending, as
    many as fit in budget children, or one parent alone if it exceeds it.
    An iterator budget gives each block its own, in turn.
    """
    budgets = repeat(budget) if isinstance(budget, int) else budget
    ends = counts.cumsum()
    starts = ends - counts
    lo = 0
    while lo < len(counts):
        hi = max(int(ends.searchsorted(starts[lo] + next(budgets), side="right")), lo + 1)
        parent = np.arange(lo, hi).repeat(counts[lo:hi])
        v = (low[lo:hi] - starts[lo:hi]).repeat(counts[lo:hi])
        v += np.arange(starts[lo], ends[hi - 1])
        yield parent, v
        lo = hi


def _appended(rows: np.ndarray, parent: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows parent with v appended, in rows' dtype."""
    grown = np.empty((len(parent), rows.shape[1] + 1), dtype=rows.dtype)
    grown[:, :-1] = rows.take(parent, axis=0)
    grown[:, -1] = v
    return grown


def _completions(words: np.ndarray, rows: np.ndarray, zero: np.ndarray, size: int, top: int) -> Iterator[np.ndarray]:
    """Yield the resolving size-subsets of range(top) extending rows, as uint32 hit blocks.

    Depth first: each row gets every v above its last member that leaves
    room for the members still to come, in blocks of parents whose
    children's running ANDs fill about _CHUNK words, each completed before
    the next is built.  A child's AND is its parent's and the _zero_masks
    row of v translated by the row's first member (words and zero are
    word-major); children ascend after their parent, so rows stay in
    lexicographic order.
    """
    # _CHUNK words is 64 KiB, under glibc's default 128 KiB mmap threshold: blocks
    # of _CHUNK children at n = 6 (128 KiB) raised the bench search peak RSS by 0.4 MiB
    budget = _CHUNK // max(len(words), 1)
    t = rows.shape[1]
    last = rows[:, -1].astype(np.intp)
    for parent, v in _children(last + 1, top - size + t - last, budget):
        grown = zero.take(parent, axis=1)
        grown &= words.take(v ^ rows[:, 0].take(parent), axis=1)
        if t + 1 < size:
            yield from _completions(words, _appended(rows, parent, v), grown, size, top)
        else:
            hits = np.flatnonzero(np.bitwise_or.reduce(grown, axis=0) == 0)
            if hits.size:
                yield _appended(rows, parent[hits], v[hits]).astype(np.uint32)


def _plain_hits(n: int, rows: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Yield the resolving size-subsets of range(2^n) whose first members are a sorted row of rows, as uint32 hit blocks.

    The table goes word-major, and a row's running AND starts as the AND of
    its members' _zero_masks rows translated by its first member, which
    thereby becomes phi.
    """
    words = np.ascontiguousarray(_zero_masks(n).T)
    first = rows[:, 0]
    zero = words.take(first ^ first, axis=1)
    for column in rows.T[1:]:
        zero &= words.take(column ^ first, axis=1)
    yield from _completions(words, rows, zero, size, 1 << n)


def _scan_hits(n: int, size: int, normalize: bool) -> Iterator[np.ndarray]:
    """Yield every resolving size-subset of range(2^n), holding 0 if normalize, as uint32 hit blocks."""
    top = 1 << n
    # a first member leaves room for the size - 1 members above it
    roots = np.arange(max(top - size + 1, 0), dtype=np.min_scalar_type(top - 1))[:, None]
    if normalize:
        roots = roots[:1]
    if size > 1:
        yield from _plain_hits(n, roots, size)
    elif n == 1:
        # a lone member translates to phi, whose row holds every x_j; Q^1 has none
        yield roots.astype(np.uint32)


def _columns(n: int, prefix: tuple[int, ...]) -> list[int]:
    """Coordinate i's column: bit j is bit i of prefix[j]."""
    return [sum((p >> i & 1) << j for j, p in enumerate(prefix)) for i in range(n)]


@lru_cache(maxsize=None)
def _increasing(j: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The increasing j-tuples of range(size) in lexicographic order, as bit planes, and where each first entry starts.

    planes[p, b, t] is bit b of entry p of the t-th tuple, for b below
    (size - 1).bit_length(); first[v], for v in range(size + 1), is the
    first tuple whose first entry is >= v (the tuple count if none is).
    """
    tuples = np.array(list(combinations(range(size), j)), dtype=np.intp).reshape(-1, j)
    planes = (tuples.T[:, None, :] >> np.arange((size - 1).bit_length())[:, None] & 1).astype(np.uint32)
    first = tuples[:, 0].searchsorted(np.arange(size + 1))
    planes.setflags(write=False)
    first.setflags(write=False)
    return planes, first


def _grow_columns(
    steps: list[tuple[np.ndarray, int, np.ndarray]], rows: np.ndarray, start: np.ndarray, leaves: Iterator[int]
) -> Iterator[np.ndarray]:
    """Yield the member-major rows completed by steps, in blocks of at most _CHUNK.

    Step (block, stop, then) gives parent i one child for each table row
    t in range(start[i], stop), which ORs in block[:, t] and starts the
    next step at row then[t].  Leaf blocks take their budgets from leaves.
    """
    (block, stop, then), rest = steps[0], steps[1:]
    # quarter blocks above the leaves: n full blocks alive at once raised the
    # forced n = 9 peak RSS from 33 to 37 MiB, and saved no time
    for parent, t in _children(start, stop - start, _CHUNK // 4 if rest else leaves):
        grown = rows.take(parent, axis=1)
        grown |= block.take(t, axis=1)
        if rest:
            yield from _grow_columns(rest, grown, then.take(t), leaves)
        else:
            yield grown


def _column_rows(n: int, k: int, prefix: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Yield the completions of the sorted prefix (0, p_1, ..., p_t) to k members, as member-major uint32 blocks.

    Coordinates whose prefix columns are equal form a cell; permuting a
    cell fixes every prefix member.  The column lemma makes the completion's
    r = k - len(prefix) rows give each cell distinct r-bit columns, so up to
    those permutations a completion is one m-subset of {0,1}^r per cell of
    size m, assigned to the cell's coordinates in increasing order.  They
    grow cell by cell, in lexicographic order of their columns: the cell's
    first m - j columns one at a time, each leaving room for the columns to
    come, and its last j in one step over the tuples of _increasing(j, 2^r);
    a run of cells taken whole in one step each becomes one step over the
    product of their tuples.  Block rows are members: the prefix, then the
    completion, whose row len(prefix) + b has bit i where coordinate i's
    column has bit b.

    Leaf blocks hold at most min(256, _CHUNK) completions, then twice as
    many, and so on up to _CHUNK, so that a scan with an early hit tests
    few.  j is the largest count <= m whose table has at most that first
    budget of tuples, and a product step stays within it too: while 2^r is
    within it, no parent's children overflow a leaf block's budget.
    """
    r = k - len(prefix)
    size = 1 << r
    cells: dict[int, list[int]] = {}
    for i, column in enumerate(_columns(n, prefix)):
        cells.setdefault(column, []).append(i)
    if max(map(len, cells.values())) > size:
        return
    first_leaves = min(256, _CHUNK)
    steps, whole = [], False
    for cell in cells.values():
        m = len(cell)
        j = max((j for j in range(1, m + 1) if comb(size, j) <= first_leaves), default=1)
        tables = [_increasing(1 if q < m - j else j, size) for q in range(m - j + 1)]
        coordinates = np.array(cell, dtype=np.uint32)[:, None, None]
        for q, (planes, _) in enumerate(tables):
            # completion row b of a child gets bit b of each column, at its coordinate
            block = np.zeros((k, planes.shape[2]), dtype=np.uint32)
            np.bitwise_or.reduce(planes << coordinates[q:q + len(planes)], axis=0, out=block[len(prefix):])
            if q < m - j:
                # a single column v leaves room for the m - q - 1 columns to come, and
                # the next step starts at the first tuple above v
                steps.append((block, size - (m - q - 1), tables[q + 1][1][1:]))
                whole = False
            elif q == 0 and whole and steps[-1][1] * block.shape[1] <= first_leaves:
                # whole cells in a row: one step over the product of their tables
                block = (steps[-1][0][:, :, None] | block[:, None, :]).reshape(k, -1)
                steps[-1] = (block, block.shape[1], np.zeros(block.shape[1], dtype=np.intp))
            else:
                steps.append((block, block.shape[1], np.zeros(block.shape[1], dtype=np.intp)))
                whole = q == 0
    # the prefix is the first step's lone parent, which _children would give all
    # its children, one per tuple, in one block: they are taken directly
    (block, stop, then), rest = steps[0], steps[1:]
    rows = block[:, :stop] | np.array(prefix + (0,) * r, dtype=np.uint32)[:, None]
    if rest:
        leaves = chain(takewhile(_CHUNK.__gt__, (first_leaves << e for e in count())), repeat(_CHUNK))
        yield from _grow_columns(rest, rows, then[:stop], leaves)
    else:
        yield rows


def _extends(n: int, k: int, prefix: tuple[int, ...]) -> bool:
    """Is the sorted prefix (0, p_1, ..., p_t) contained in some resolving k-set?

    Up to coordinate permutations fixing the prefix, the sets containing it
    are its _column_rows.  A completion with zero, repeated or prefix rows
    gets its distinct members' verdict (ANDing a row twice, or phi's
    all-ones row, changes nothing), and a resolving set has resolving
    supersets of every size up to 2^n.
    """
    return k <= 1 << n and any(_resolving_mask(n, rows).any() for rows in _column_rows(n, k, prefix))


def _first_hit(n: int, k: int) -> tuple[int, ...]:
    """The lexicographically first phi-normalized resolving k-set; one must exist.

    Greedy prefix extension: append the least v > p_t with which the
    prefix still extends.  Let H be the first hit and the prefix its first
    t + 1 members; H shows that v = H_(t+1) extends.  A resolving k-set S
    containing the prefix and some v < H_(t+1) has at least t + 2 members
    <= v, so at the first index j <= t + 1 where S and H differ,
    S_j < H_j: S sorts before H, which cannot be.  So the unconstrained
    "contained in" test of _extends picks H_(t+1), as a test restricted to
    sets whose first t + 2 members are the prefix and v would.

    Within one step a candidate prefix is skipped, without a scan, when its
    sorted columns equal those of one already ruled out.  Equal column
    multisets mean some coordinate permutation maps one prefix onto the
    other member by member, and being contained in a resolving k-set is
    invariant under coordinate permutations.

    Once the prefix's completions, its C(2^n - 1 - p_t, k - t - 1) sets of
    members above p_t, fit in one block of _CHUNK, the plain scan finishes
    the search, and the first row of its first hit block is H.  The prefix
    is H's start and extends, so H is among those completions; the plain
    scan lists them in lexicographic order, and a resolving one listed
    before H would be a phi-normalized hit sorting before H.
    """
    prefix, columns = (0,), [0] * n
    while len(prefix) < k:
        if comb((1 << n) - 1 - prefix[-1], k - len(prefix)) <= _CHUNK:
            return tuple(next(_plain_hits(n, np.array([prefix]), k))[0].tolist())
        ruled_out: set[tuple[int, ...]] = set()
        for v in range(prefix[-1] + 1, 1 << n):
            # v appended at index t = len(prefix): bit t of column i is bit i of v
            grown = [c | (v >> i & 1) << len(prefix) for i, c in enumerate(columns)]
            shape = tuple(sorted(grown))
            if shape in ruled_out:
                continue
            if _extends(n, k, prefix + (v,)):
                break
            ruled_out.add(shape)
        else:
            raise AssertionError(f"no resolving {k}-set contains {prefix}")
        prefix, columns = prefix + (v,), grown
    return prefix


def _lower_bound(n: int) -> int:
    """The least size that neither counting nor the column lemma excludes.

    Counting: a vertex's distances to k members lie in 0..n, so resolving
    the 2^n vertices takes (n + 1)^k >= 2^n.  The column lemma: the n
    columns of a phi-containing k-set are distinct (k - 1)-bit vectors, so
    n <= 2^(k - 1), that is k >= 1 + ceil(log2 n).
    """
    counting = next(k for k in count(1) if (n + 1) ** k >= 1 << n)
    return max(counting, 1 + (n - 1).bit_length())


def _lex_rank(combo: tuple[int, ...], pool: int) -> int:
    """Index of a sorted combination of range(1, pool + 1) in lexicographic order.

    Before combo come, for each position i, the combinations that agree on
    positions < i and hold some s with prev < s < combo[i] at i:
    sum_s C(pool - s, rest - 1) = C(pool - prev, rest) - C(pool - combo[i] + 1, rest).
    """
    rank, prev = 0, 0
    for i, c in enumerate(combo):
        rest = len(combo) - i
        rank += comb(pool - prev, rest) - comb(pool - c + 1, rest)
        prev = c
    return rank


def min_resolving_size(
    n: int,
    max_k: int | None = None,
    *,
    force: bool = False,
    threads: int = 1,
) -> SearchReport:
    """Exhaustive phi-normalized search for the metric dimension of Q^n.

    Tries sizes k = 1, 2, ... and returns at the first size admitting a
    resolving set.  Sizes below _lower_bound(n) are excluded without a
    scan; each size from there on is decided by _extends(n, k, (0,)).  The
    example is the lexicographically first hit, found by _first_hit: greedy
    prefix extension through column scans, finished by one plain-scan
    block, and checked with plain distances before it is returned.
    subsets_examined is the example's 1-based position in the plain
    enumeration of every phi-containing set by size, then
    lexicographically, so an excluded size counts in full.  When max_k
    is exhausted without a hit the report falls back to the best known
    construction with exhaustive=False.  ``threads`` is ignored; it stays
    because the benchmark's workloads still pass it.
    """
    check_dimension(n)
    if max_k is None:
        max_k = n
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if n > EXHAUSTIVE_CAP and not force:
        raise ValueError(
            f"exhaustive search above n={EXHAUSTIVE_CAP} must be forced explicitly (n={n})"
        )
    if n > FORCED_CAP:
        raise ValueError(f"exhaustive search is not supported above n={FORCED_CAP}")
    t0 = time.perf_counter()
    pool = (1 << n) - 1
    examined = 0
    low = _lower_bound(n)
    for k in range(1, max_k + 1):
        if k >= low and _extends(n, k, (0,)):
            example, exhaustive = Landmarks(n, _first_hit(n, k)), True
            # a plain-distance self-check that python -O keeps: the 2^n distance vectors are distinct
            if len({tuple(hamming_distance(v, s) for s in example.members) for v in range(1 << n)}) < 1 << n:
                raise AssertionError(f"the search's example does not resolve Q^{n}: {example.members}")
            examined += _lex_rank(example.members[1:], pool) + 1
            break
        # no hit at size k, scanned or excluded: the whole stratum counts as examined
        examined += comb(pool, k - 1)
    else:
        example, exhaustive = best_construction(n), False
    return SearchReport(
        n=n,
        min_size=len(example),
        example=example,
        subsets_examined=examined,
        elapsed=time.perf_counter() - t0,
        exhaustive=exhaustive,
    )


def find_all_min_sets(n: int, k: int, normalize: bool = True, *, threads: int = 1) -> Iterator[Landmarks]:
    """Every size-k resolving set, in lexicographic order of sorted members.

    normalize=True restricts to sets containing phi (sufficient up to
    translation); normalize=False enumerates all subsets and is only
    allowed at n <= 5.  Each block of hits is checked once in place of
    Landmarks.__post_init__.  ``threads`` is ignored; it stays because the
    benchmark's workloads still pass it.
    """
    check_dimension(n)
    if n > 6:
        raise ValueError(f"find_all_min_sets is limited to n <= 6, got {n}")
    if k > 5:
        raise ValueError(f"find_all_min_sets is limited to k <= 5, got {k}")
    if k < 1:
        raise ValueError(f"set size must be >= 1, got {k}")
    if not normalize and n > 5:
        raise ValueError("unrestricted enumeration is limited to n <= 5")
    new = object.__new__
    # the slots' own descriptors: a frozen Landmarks refuses plain assignment
    set_n, set_members = Landmarks.n.__set__, Landmarks.members.__set__
    for found in _scan_hits(n, k, normalize=normalize):
        # Landmarks' own checks, once per block: members below 2^n, and
        # strictly increasing rows, so pairwise distinct
        if found.size and (found.max() >> n or not (found[:, 1:] > found[:, :-1]).all()):
            raise ValueError(f"search produced an invalid landmark set for n={n}")
        # column by column: one list per member position, zipped into tuples
        for members in zip(*found.T.tolist()):
            S = new(Landmarks)
            set_n(S, n)
            set_members(S, members)
            yield S


def verify_no_smaller(n: int, k: int) -> bool:
    """True iff no size-k resolving set containing phi exists.

    By translation invariance this certifies that no resolving set of size
    k exists at all.  For n <= k <= 2^n one exists: {phi, e_1, ..., e_(n-1)}
    and its supersets resolve, since d(v, e_i) - d(v, phi) = 1 - 2 v_i.
    Below _lower_bound(n) none exists, and no scan is run.
    """
    check_dimension(n)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"verify_no_smaller is limited to n <= {EXHAUSTIVE_CAP}, got {n}")
    if k < 1:
        raise ValueError(f"set size must be >= 1, got {k}")
    if k >= n:
        return k > 1 << n
    return k < _lower_bound(n) or not _extends(n, k, (0,))
