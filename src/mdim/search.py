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
by the prefix (0,).  The report's example, the lexicographically first
phi-normalized hit, is found by greedy prefix extension, and
subsets_examined is that example's 1-based position in the plain
enumeration (smaller strata in full, then lexicographic order), computed
by arithmetic.  The plain scan over every phi-containing k-subset stays
for find_all_min_sets, which lists every hit, and as the reference the
tests compare against.

Candidates are built in numpy, in lexicographic order, as blocks of at
most _CHUNK rows made as they are consumed: _combination_blocks for the
plain scan and _column_choice_blocks for the column scan.  The kernel lays a
block out one row per candidate and packs a candidate's distances into one
key per vertex, in the narrowest of uint16, uint32 and uint64 that holds
them.  A distance splits over the low and high halves of the coordinates,
so each half's keys are one gather from small cached tables and a row of
2^n keys is their outer sum; each row is then sorted.  Every verdict is an
existence question and every listing keeps enumeration order, so no report
depends on the block size.

Minimum sizes for n >= 6 are not literature claims; they are values this
search computes and certifies exhaustively within its guards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator

import numpy as np

from .construct import best_construction
from .core import Landmarks, check_dimension
from .resolve import is_resolving

# Default cost guard; --force overrides it up to FORCED_CAP.  Under the
# default, `dimension --n 8` takes 0.4-0.5 s at 34 MiB peak RSS.  Above it
# time bounds the search: a stratum with no hit scans all of its
# C(2^(k-1), n) column sets (C(32, 9) = 28 M at n = 9, k = 6), and the kernel
# took 15-22 ms for one block of _CHUNK candidates at n = 9, k = 6 and
# 0.15-0.20 s at n = 12, k = 7, with one block in flight;
# `dimension --n 9 --force` took 111-114 s at 37 MiB peak RSS (measured on a
# 2 vCPU Xeon).
EXHAUSTIVE_CAP = 8
FORCED_CAP = 12

_CHUNK = 8192
# Keys per kernel tile: small enough for a tile's buffers to stay in cache.
# On a 2 vCPU Xeon one n = 8 block of _CHUNK candidates took 8-10 ms in
# tiles of 2^16 keys against 15-19 ms untiled.
_TILE_KEYS = 1 << 16


@dataclass(frozen=True)
class SearchReport:
    """Result of a minimum-size search.

    ``exhaustive`` True means every phi-containing subset of size below
    ``min_size`` was ruled out (its column set, up to coordinate
    permutation, was scanned and failed), which by translation invariance
    rules out all smaller resolving sets.
    """

    n: int
    min_size: int
    example: Landmarks
    subsets_examined: int
    elapsed: float
    exhaustive: bool


@lru_cache(maxsize=None)
def _half_tables(bits: int, b: int, r: int, key_dtype: type) -> np.ndarray:
    """Row j * 2^bits + s holds popcount(s ^ v) << (b * j) for every bits-bit v."""
    half = np.arange(1 << bits, dtype=np.uint8)
    distance = np.bitwise_count(half[:, None] ^ half).astype(key_dtype)
    tables = np.concatenate([distance << (b * j) for j in range(r)])
    tables.setflags(write=False)
    return tables


def _resolving_mask(n: int, combos: np.ndarray) -> np.ndarray:
    """Which candidates (rows of combos) have all-distinct distance vectors.

    Entry j of every candidate's vector is d(v, combos[:, j]) over all
    vertices v.  The entries are packed b bits each into one key per
    candidate and vertex, in the narrowest unsigned dtype that holds r * b
    bits, laid out one row per candidate and sorted along the rows: a
    candidate resolves iff its sorted row has no equal neighbours.

    Split every vertex into its low h = ceil(n/2) bits and its high n - h:
    d(v, s) = d(v_lo, s_lo) + d(v_hi, s_hi).  Each half's packed keys are
    one gather from the cached _half_tables and a sum over the r members,
    and a row of 2^n keys is the outer sum of the high and low keys.  No
    field carries, since every entry is at most n < 2^b.  Rows go through
    in tiles of about _TILE_KEYS keys.
    """
    m, r = combos.shape
    b = n.bit_length()
    if r * b > 62:
        raise ValueError("candidate too large to pack for the batch engine")
    key_dtype = np.uint16 if r * b <= 16 else np.uint32 if r * b <= 32 else np.uint64
    h = (n + 1) // 2
    low_tables = _half_tables(h, b, r, key_dtype)
    high_tables = _half_tables(n - h, b, r, key_dtype)
    lanes = np.arange(r, dtype=np.intp)[:, None]
    low_lanes, high_lanes = lanes << h, lanes << (n - h)
    tile = max(1, _TILE_KEYS >> n)
    collides = np.empty(m, dtype=bool)
    for lo in range(0, m, tile):
        part = combos[lo:lo + tile].T
        low = low_tables.take((part & ((1 << h) - 1)) + low_lanes, axis=0).sum(axis=0, dtype=key_dtype)
        high = high_tables.take((part >> h) + high_lanes, axis=0).sum(axis=0, dtype=key_dtype)
        # the outer sum high[:, :, None] + low[:, None, :], as two repeats and one
        # contiguous add: a broadcast add loops 2^h keys at a time
        key = np.repeat(high[:, :, None], 1 << h, axis=2)
        key += np.repeat(low[:, None, :], 1 << (n - h), axis=1)
        key = key.reshape(len(key), -1)
        key.sort(axis=1)
        np.any(key[:, 1:] == key[:, :-1], axis=1, out=collides[lo:lo + len(key)])
    return ~collides


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts as one array; a lone part is passed on uncopied, since most blocks are one run of _subtrees."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _packed(parts: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Join consecutive blocks of at most _CHUNK rows, in order, into blocks of at most _CHUNK rows."""
    pending: list[np.ndarray] = []
    rows = 0
    for part in parts:
        if rows + len(part) > _CHUNK:
            yield _joined(pending)
            pending, rows = [], 0
        if len(part):
            pending.append(part)
            rows += len(part)
    if pending:
        yield _joined(pending)


def _all_combinations(lo: int, hi: int, k: int, first_stop: int) -> np.ndarray:
    """Every sorted k-subset of range(lo, hi) with first element below first_stop, as one uint32 array.

    Rows come in lexicographic order.  They are grown one position at a
    time: each row is repeated once per value that can follow its last
    element and still leave room for the rest.  Every partial row has a
    completion, so no intermediate has more rows than the result.
    """
    rows = np.zeros((1, 0), dtype=np.uint32)
    for j in range(k):
        first = rows[:, -1].astype(np.int64) + 1 if j else np.full(1, lo, dtype=np.int64)
        stop = hi - (k - 1 - j) if j else min(hi - (k - 1), first_stop)
        counts = np.maximum(stop - first, 0)
        offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        column = (np.repeat(first, counts) + offsets).astype(np.uint32)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), column])
    return rows


def _headed(head: tuple[int, ...], tail: np.ndarray) -> np.ndarray:
    """tail's rows, each prefixed by head."""
    return np.column_stack([np.broadcast_to(np.array(head, dtype=np.uint32), (len(tail), len(head))), tail])


def _subtrees(lo: int, hi: int, k: int, head: tuple[int, ...]) -> Iterator[np.ndarray]:
    """head followed by every sorted k-subset of range(lo, hi), in runs of sibling subtrees.

    A first element whose subtree holds more than _CHUNK subsets is fixed
    in Python and its subtree recursed into.  Subtrees shrink as the first
    element grows, so the rest are built in numpy, consecutive siblings
    together, at most _CHUNK rows per run.
    """
    if comb(max(hi - lo, 0), k) <= _CHUNK:
        yield _headed(head, _all_combinations(lo, hi, k, hi))
        return
    first = lo
    while comb(hi - first - 1, k - 1) > _CHUNK:
        yield from _subtrees(first + 1, hi, k - 1, head + (first,))
        first += 1
    while first <= hi - k:
        stop, rows = first, 0
        while stop <= hi - k and rows + comb(hi - stop - 1, k - 1) <= _CHUNK:
            rows += comb(hi - stop - 1, k - 1)
            stop += 1
        yield _headed(head, _all_combinations(first, hi, k, stop))
        first = stop


def _combination_blocks(lo: int, hi: int, k: int) -> Iterator[np.ndarray]:
    """The sorted k-subsets of range(lo, hi) in lexicographic order, as uint32 blocks of at most _CHUNK rows.

    No more than _CHUNK rows are built at once, so C(32, 8) = 10.5 M rows
    at n = 8 never are.
    """
    return _packed(_subtrees(lo, hi, k, ()))


def _scan_hits(n: int, size: int, normalize: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (combo block, hit indices) over all candidates of one size."""
    if normalize:
        blocks = (
            np.column_stack([np.zeros(len(rest), dtype=np.uint32), rest])
            for rest in _combination_blocks(1, 1 << n, size - 1)
        )
    else:
        blocks = _combination_blocks(0, 1 << n, size)
    for combos in blocks:
        yield combos, np.flatnonzero(_resolving_mask(n, combos))


def _column_choice_blocks(sizes: list[int], r: int) -> Iterator[np.ndarray]:
    """Every choice of sizes[c] distinct r-bit columns for each cell c, concatenated.

    Rows come in lexicographic order as uint32 blocks of at most _CHUNK
    rows: each block of the first cell's combinations times the choices
    for the other cells.  Those are built once when they fit in one block,
    and again for every row of the first cell when they do not.  Every
    size must be at most 2^r.
    """
    if not sizes:
        yield np.zeros((1, 0), dtype=np.uint32)
        return
    rest = sizes[1:]
    heads = _combination_blocks(0, 1 << r, sizes[0])
    if prod(comb(1 << r, m) for m in rest) <= _CHUNK:
        (tail,) = _column_choice_blocks(rest, r)
        step = _CHUNK // len(tail)
        parts = (
            np.column_stack([np.repeat(part, len(tail), axis=0), np.tile(tail, (len(part), 1))])
            for head in heads
            for part in np.split(head, range(step, len(head), step))
        )
    else:
        parts = (
            np.column_stack([np.broadcast_to(row, (len(tail), row.size)), tail])
            for head in heads
            for row in head
            for tail in _column_choice_blocks(rest, r)
        )
    yield from _packed(parts)


def _columns(n: int, prefix: tuple[int, ...]) -> list[int]:
    """Coordinate i's column: bit j is bit i of prefix[j]."""
    return [sum((p >> i & 1) << j for j, p in enumerate(prefix)) for i in range(n)]


def _extends(n: int, k: int, prefix: tuple[int, ...]) -> bool:
    """Is the sorted prefix (0, p_1, ..., p_t) contained in some resolving k-set?

    Coordinates whose prefix columns are equal form a cell; permuting a
    cell fixes every prefix member.  The column lemma makes the completion's
    r = k - len(prefix) rows give each cell distinct r-bit columns, so up to
    those permutations a completion is one m-subset of {0,1}^r per cell of
    size m, assigned to the cell's coordinates in increasing order.  A
    choice whose rows are zero, repeated or already in the prefix gives
    fewer than k members; every k-set has a choice without such rows, so
    those are dropped untested and the rest are tested in blocks.
    """
    if k > 1 << n:
        return False
    r = k - len(prefix)
    cells: dict[int, list[int]] = {}
    for i, column in enumerate(_columns(n, prefix)):
        cells.setdefault(column, []).append(i)
    sizes = [len(cell) for cell in cells.values()]
    if max(sizes) > 1 << r:
        return False
    coordinates = np.array([i for cell in cells.values() for i in cell], dtype=np.uint32)
    taken = np.array(prefix, dtype=np.uint32)
    lanes = np.arange(r, dtype=np.uint32)
    for columns in _column_choice_blocks(sizes, r):
        # row j of a choice has bit i set where coordinate i's column has bit j set
        rows = ((columns[:, :, None] >> lanes & 1) << coordinates[:, None]).sum(axis=1, dtype=np.uint32)
        ordered = np.sort(rows, axis=1)
        keep = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
        keep &= ~np.any(rows[:, :, None] == taken, axis=(1, 2))  # taken holds phi: no zero rows
        combos = np.concatenate([np.broadcast_to(taken, (int(keep.sum()), taken.size)), rows[keep]], axis=1)
        if combos.size and _resolving_mask(n, combos).any():
            return True
    return False


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
    """
    prefix = (0,)
    while len(prefix) < k:
        ruled_out: set[tuple[int, ...]] = set()
        for v in range(prefix[-1] + 1, 1 << n):
            shape = tuple(sorted(_columns(n, prefix + (v,))))
            if shape in ruled_out:
                continue
            if _extends(n, k, prefix + (v,)):
                break
            ruled_out.add(shape)
        else:
            raise AssertionError(f"no resolving {k}-set contains {prefix}")
        prefix += (v,)
    return prefix


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
    resolving set; the example is the lexicographically first hit and
    subsets_examined its 1-based position in the plain enumeration of
    every phi-containing set by size, then lexicographically.  When max_k
    is exhausted without a hit the report falls back to the best known
    construction with exhaustive=False.  ``threads`` is accepted for
    compatibility and ignored.
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
    for k in range(1, max_k + 1):
        if _extends(n, k, (0,)):
            example = Landmarks(n, _first_hit(n, k))
            assert is_resolving(example).resolving
            return SearchReport(
                n=n,
                min_size=k,
                example=example,
                subsets_examined=examined + _lex_rank(example.members[1:], pool) + 1,
                elapsed=time.perf_counter() - t0,
                exhaustive=True,
            )
        # no hit at size k: the whole stratum counts as examined
        examined += comb(pool, k - 1)
    fallback = best_construction(n)
    return SearchReport(
        n=n,
        min_size=len(fallback),
        example=fallback,
        subsets_examined=examined,
        elapsed=time.perf_counter() - t0,
        exhaustive=False,
    )


def find_all_min_sets(n: int, k: int, normalize: bool = True, *, threads: int = 1) -> Iterator[Landmarks]:
    """Every size-k resolving set, in lexicographic order of sorted members.

    normalize=True restricts to sets containing phi (sufficient up to
    translation); normalize=False enumerates all subsets and is only
    allowed at n <= 5.  ``threads`` is accepted for compatibility and
    ignored.
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
    for combos, hits in _scan_hits(n, k, normalize=normalize):
        found = combos[hits]
        # Landmarks' own checks, once per block: members below 2^n, and
        # strictly increasing rows, so pairwise distinct
        if found.size and (found.max() >> n or not (found[:, 1:] > found[:, :-1]).all()):
            raise ValueError(f"search produced an invalid landmark set for n={n}")
        for members in found.tolist():
            S = object.__new__(Landmarks)
            S.__dict__.update(n=n, members=tuple(members))
            yield S


def verify_no_smaller(n: int, k: int) -> bool:
    """True iff no size-k resolving set containing phi exists.

    By translation invariance this certifies that no resolving set of size
    k exists at all.
    """
    check_dimension(n)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"verify_no_smaller is limited to n <= {EXHAUSTIVE_CAP}, got {n}")
    if k < 1:
        raise ValueError(f"set size must be >= 1, got {k}")
    return not _extends(n, k, (0,))
