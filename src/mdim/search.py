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
most _CHUNK rows made as they are consumed: _choice_blocks decodes each
block from a run of consecutive ranks, with one cell for the plain scan
and one per cell of equal prefix columns for the column scan.  The kernel
decides a candidate without its 2^n distance vectors, by the
detecting-matrix criterion the verifier uses: with phi in the set, it
fails iff some nonzero sum-zero x in {-1,0,1}^n also sums to 0 on the
ones of every other member.  A cached table holds one bit per such x up to
sign for every vertex, (A002426(n) - 1) / 2 bits (70 at n = 6, 1,569 at
n = 9, 36,894 at n = 12), so a candidate costs r ANDs of a few uint64
words.  Every verdict is an existence question and every listing keeps
enumeration order, so no report depends on the block size.

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
from .resolve import _sign_vectors, is_resolving

# Default cost guard; --force overrides it up to FORCED_CAP.  Under the
# default, `dimension --n 8` takes 0.43-0.48 s at 34 MiB peak RSS.  Above it
# time bounds the search: a stratum with no hit scans all of its
# C(2^(k-1), n) column sets (C(32, 9) = 28 M at n = 9, k = 6).  The kernel
# took 1.2-1.4 ms for one block of _CHUNK candidates at n = 9, k = 6 (34 MiB
# peak RSS) and 19-22 ms at n = 12, k = 7 (54 MiB, 18.5 of it the table);
# `dimension --n 9 --force` took 45-47 s at 36 MiB (on a 2 vCPU Xeon).
EXHAUSTIVE_CAP = 8
FORCED_CAP = 12

_CHUNK = 8192
# Table words per kernel tile: one n = 12 block of _CHUNK random candidates
# took 32-36 ms in tiles of 2^14-2^16 words, 55-70 ms at 2^12 or 2^18.  Sign
# vectors per step of the table build: the n = 12 build peaked at 51 MiB RSS
# in steps of 2^8, 83 MiB in steps of 2^12 (on a 2 vCPU Xeon).
_TILE_WORDS = 1 << 16
_TABLE_COLUMNS = 1 << 8
_INT64_MAX = np.iinfo(np.int64).max


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


def _resolving_mask(n: int, combos: np.ndarray) -> np.ndarray:
    """Which candidates (rows of combos) resolve Q^n.

    S resolves iff no nonzero x in {-1,0,1}^n has b_s . x = 0 for every s
    in S, b_s = 1 - 2s (Lindstrom; Sebo-Tannier).  With phi in S,
    b_phi . x = sum x, and a sum-zero x has b_s . x = 0 iff it sums to 0 on
    the ones of s: S fails iff the AND of its members' _zero_masks rows is
    nonzero.  Translating a candidate by its first member, an automorphism,
    makes that member phi, whose row holds every x_j; the AND starts there,
    so a Q^1 candidate, with no x_j, resolves.  Tiles hold ~_TILE_WORDS words.
    """
    table = _zero_masks(n)
    tile = max(1, _TILE_WORDS // max(table.shape[1], 1))
    resolves = np.empty(len(combos), dtype=bool)
    for lo in range(0, len(combos), tile):
        members = (combos[lo:lo + tile] ^ combos[lo:lo + tile, :1]).T.astype(np.intp)
        zero = table.take(members[0], axis=0)
        for row in members[1:]:
            zero &= table.take(row, axis=0)
        # an OR over each row's words: np.any reduces short rows slower
        np.equal(np.bitwise_or.reduce(zero, axis=1), 0, out=resolves[lo:lo + members.shape[1]])
    return resolves


def _choice_blocks(lo: int, hi: int, sizes: list[int]) -> Iterator[np.ndarray]:
    """Every choice of sizes[c] distinct values of range(lo, hi) for each cell c, concatenated.

    Rows come in lexicographic order as uint32 blocks of at most _CHUNK
    rows, each block a run of consecutive ranks decoded directly (the
    combinatorial number system, Knuth TAOCP 4A 7.2.1.3).  A rank's cells
    are its mixed-radix digits, the first cell most significant.  A cell's
    lexicographic rank t among the m-subsets of range(size) is the colex
    rank count - 1 - t of the mirrored subset (c -> size - 1 - c), decoded
    largest member first: its j-th smallest is the largest y with C(y, j)
    at most the rank left.  Raises ValueError when the choices outnumber
    int64 ranks.
    """
    size = max(hi - lo, 0)
    counts = [comb(size, m) for m in sizes]
    total = prod(counts)
    if total > _INT64_MAX:
        raise ValueError(f"{total} choices do not fit an int64 rank")
    # row j holds C(y, j) for y < size; every rank is below _INT64_MAX, so clipping keeps the order
    binomials = np.array(
        [[min(comb(y, j), _INT64_MAX) for y in range(size)] for j in range(max(sizes, default=0) + 1)],
        dtype=np.int64,
    )
    for start in range(0, total, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        block = np.empty((len(rest), sum(sizes)), dtype=np.uint32)
        end = block.shape[1]
        for m, count in zip(reversed(sizes), reversed(counts)):
            rest, colex = np.divmod(rest, count)
            colex = count - 1 - colex
            for j in range(m, 0, -1):
                y = np.searchsorted(binomials[j], colex, side="right") - 1
                colex -= binomials[j].take(y)
                block[:, end - j] = lo + size - 1 - y
            end -= m
        yield block


def _scan_hits(n: int, size: int, normalize: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (combo block, hit indices) over all candidates of one size."""
    if normalize:
        blocks = (
            np.column_stack([np.zeros(len(rest), dtype=np.uint32), rest])
            for rest in _choice_blocks(1, 1 << n, [size - 1])
        )
    else:
        blocks = _choice_blocks(0, 1 << n, [size])
    for combos in blocks:
        yield combos, np.flatnonzero(_resolving_mask(n, combos))


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
    for columns in _choice_blocks(0, 1 << r, sizes):
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
