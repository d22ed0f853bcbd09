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

Candidates are tested in vectorized blocks, each distance computed as
popcount(v ^ s).  Every verdict is an existence question and every
listing keeps enumeration order, so no report depends on the block size
or the worker count.

Minimum sizes for n >= 6 are not literature claims; they are values this
search computes and certifies exhaustively within its guards.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .construct import best_construction
from .core import Landmarks, check_dimension
from .resolve import is_resolving

# Default cost guard; --force overrides it up to FORCED_CAP.  Under the
# default, `dimension --n 8` takes 6-8 s at 76 MiB peak RSS on one thread.
# Above it time bounds the search: a stratum with no hit scans all of its
# C(2^(k-1), n) column sets (C(32, 9) = 28 M at n = 9, k = 6), and one block
# of _CHUNK candidates took 0.4 s and 119 MiB peak RSS at n = 9, 4.0 s and
# 579 MiB at n = 12, with up to 2 x threads blocks in flight (measured on a
# 2 vCPU Xeon).
EXHAUSTIVE_CAP = 8
FORCED_CAP = 12

_CHUNK = 8192


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


def _combo_chunks(candidates: Iterator[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Blocks of up to _CHUNK candidate tuples as uint32 rows."""
    for block in iter(lambda: list(itertools.islice(candidates, _CHUNK)), []):
        yield np.array(block, dtype=np.uint32)


def _resolving_mask(n: int, combos: np.ndarray) -> np.ndarray:
    """Which candidates (rows of combos) have all-distinct distance vectors.

    Entry j of every candidate's vector is popcount(v ^ combos[:, j]) over
    all vertices v.  The entries are packed into a single int64 key per
    vertex and candidate (b bits each) and sorted vertex-wise: a candidate
    resolves iff no equal neighbours appear.
    """
    verts = np.arange(1 << n, dtype=np.uint32)[:, None]
    b = n.bit_length()
    m, r = combos.shape
    if r * b > 62:
        raise ValueError("candidate too large to pack for the batch engine")
    keys = np.zeros((1 << n, m), dtype=np.int64)
    for j in range(r):
        keys += np.bitwise_count(verts ^ combos[:, j]).astype(np.int64) << (b * j)
    keys.sort(axis=0)
    return ~np.any(keys[1:] == keys[:-1], axis=0)


def _ordered_parallel(fn, items: Iterator, threads: int) -> Iterator:
    """Map fn over items with a bounded worker pool, preserving order."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= threads * 2:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _scan_hits(n: int, size: int, normalize: bool, threads: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (combo block, hit indices) over all candidates of one size."""
    if normalize:
        candidates = ((0, *rest) for rest in itertools.combinations(range(1, 1 << n), size - 1))
    else:
        candidates = itertools.combinations(range(1 << n), size)

    def job(combos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return combos, np.flatnonzero(_resolving_mask(n, combos))

    yield from _ordered_parallel(job, _combo_chunks(candidates), threads)


def _column_choices(sizes: list[int], r: int) -> Iterator[tuple[int, ...]]:
    """Every choice of sizes[c] distinct r-bit columns for each cell c, concatenated.

    Lazy on purpose: itertools.product would first build each cell's whole
    list of combinations, C(32, 8) = 10.5 M tuples for one cell at n = 8.
    """
    if not sizes:
        yield ()
        return
    for head in itertools.combinations(range(1 << r), sizes[0]):
        for tail in _column_choices(sizes[1:], r):
            yield head + tail


def _extends(n: int, k: int, prefix: tuple[int, ...], threads: int = 1) -> bool:
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
    for i in range(n):
        column = sum((p >> i & 1) << j for j, p in enumerate(prefix))
        cells.setdefault(column, []).append(i)
    sizes = [len(cell) for cell in cells.values()]
    if max(sizes) > 1 << r:
        return False
    coordinates = np.array([i for cell in cells.values() for i in cell], dtype=np.uint32)
    taken = np.array(prefix, dtype=np.uint32)
    lanes = np.arange(r, dtype=np.uint32)

    def job(columns: np.ndarray) -> bool:
        # row j of a choice has bit i set where coordinate i's column has bit j set
        rows = ((columns[:, :, None] >> lanes & 1) << coordinates[:, None]).sum(axis=1, dtype=np.uint32)
        ordered = np.sort(rows, axis=1)
        keep = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
        keep &= ~np.any(rows[:, :, None] == taken, axis=(1, 2))  # taken holds phi: no zero rows
        combos = np.concatenate([np.broadcast_to(taken, (int(keep.sum()), taken.size)), rows[keep]], axis=1)
        return bool(combos.size) and bool(_resolving_mask(n, combos).any())

    return any(_ordered_parallel(job, _combo_chunks(_column_choices(sizes, r)), threads))


def _first_hit(n: int, k: int, threads: int) -> tuple[int, ...]:
    """The lexicographically first phi-normalized resolving k-set; one must exist.

    Greedy prefix extension: append the least v > p_t with which the
    prefix still extends.  Let H be the first hit and the prefix its first
    t + 1 members; H shows that v = H_(t+1) extends.  A resolving k-set S
    containing the prefix and some v < H_(t+1) has at least t + 2 members
    <= v, so at the first index j <= t + 1 where S and H differ,
    S_j < H_j: S sorts before H, which cannot be.  So the unconstrained
    "contained in" test of _extends picks H_(t+1), as a test restricted to
    sets whose first t + 2 members are the prefix and v would.
    """
    prefix = (0,)
    while len(prefix) < k:
        v = next(v for v in range(prefix[-1] + 1, 1 << n) if _extends(n, k, prefix + (v,), threads))
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
    construction with exhaustive=False.
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
        if _extends(n, k, (0,), threads):
            example = Landmarks(n, _first_hit(n, k, threads))
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
    allowed at n <= 5.
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
    for combos, hits in _scan_hits(n, k, normalize=normalize, threads=threads):
        for local in hits:
            yield Landmarks(n, tuple(combos[int(local)].tolist()))


def verify_no_smaller(n: int, k: int, *, threads: int = 1) -> bool:
    """True iff no size-k resolving set containing phi exists.

    By translation invariance this certifies that no resolving set of size
    k exists at all.
    """
    check_dimension(n)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"verify_no_smaller is limited to n <= {EXHAUSTIVE_CAP}, got {n}")
    if k < 1:
        raise ValueError(f"set size must be >= 1, got {k}")
    return not _extends(n, k, (0,), threads)
