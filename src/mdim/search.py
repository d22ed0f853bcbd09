"""Exact minimum-resolving-set search on Q^n.

Translation invariance lets every resolving set be normalized to contain
phi, so the search only enumerates k-subsets {phi} + (k-1 nonzero vertices)
in lexicographic order.  Candidates are tested in vectorized batches
against a precomputed all-pairs distance table; the first hit in
enumeration order wins, which makes every report independent of chunking
and worker count.

Minimum sizes for n >= 6 are not literature claims; they are values this
search computes and certifies exhaustively within its guards.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

from .construct import best_construction
from .core import Landmarks, check_dimension
from .resolve import is_resolving

# Default cost guard; --force overrides it up to the table cap, beyond
# which the 2^n x 2^n distance table alone is unreasonable.
EXHAUSTIVE_CAP = 8
FORCED_CAP = 12

_CHUNK = 8192


@dataclass(frozen=True)
class SearchReport:
    """Result of a minimum-size search.

    ``exhaustive`` True means every phi-containing subset of size below
    ``min_size`` was enumerated and failed, which by translation invariance
    rules out all smaller resolving sets.
    """

    n: int
    min_size: int
    example: Landmarks
    subsets_examined: int
    elapsed: float
    exhaustive: bool


@lru_cache(maxsize=4)
def _distance_table(n: int) -> np.ndarray:
    verts = np.arange(1 << n, dtype=np.uint32)
    return np.bitwise_count(verts[None, :] ^ verts[:, None])


@lru_cache(maxsize=4)
def _level_column(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


def _combo_chunks(pool_size: int, first: int, r: int) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks of combinations(range(first, pool_size), r) with their start offsets."""
    it = itertools.combinations(range(first, pool_size), r)
    offset = 0
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield offset, np.array(block, dtype=np.int64).reshape(len(block), r)
        offset += len(block)


def _resolving_mask(n: int, combos: np.ndarray, with_phi: bool) -> np.ndarray:
    """Which candidate columns have all-distinct distance vectors.

    Packs each candidate's per-vertex distance entries into a single int64
    key (b bits per entry, plus the implicit phi entry when normalized) and
    sorts vertex-wise: a candidate resolves iff no equal neighbours appear.
    """
    D = _distance_table(n)
    b = n.bit_length()
    m, r = combos.shape
    entries = r + (1 if with_phi else 0)
    if entries * b > 62:
        raise ValueError("candidate too large to pack for the batch engine")
    if with_phi:
        keys = np.repeat(_level_column(n)[:, None], m, axis=1)
        shift0 = 1
    else:
        keys = np.zeros((1 << n, m), dtype=np.int64)
        shift0 = 0
    for j in range(r):
        keys += D[:, combos[:, j]].astype(np.int64) << (b * (j + shift0))
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


def _scan_hits(n: int, size: int, normalize: bool, threads: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (offset, combo block, hit indices) over all candidates of one size."""
    if normalize:
        chunks = _combo_chunks(1 << n, 1, size - 1)
    else:
        chunks = _combo_chunks(1 << n, 0, size)

    def job(item: tuple[int, np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
        offset, combos = item
        mask = _resolving_mask(n, combos, with_phi=normalize)
        return offset, combos, np.flatnonzero(mask)

    yield from _ordered_parallel(job, chunks, threads)


def _candidate_members(combo: np.ndarray, normalize: bool) -> tuple[int, ...]:
    members = tuple(int(c) for c in combo)
    return (0,) + members if normalize else members


def min_resolving_size(
    n: int,
    max_k: int | None = None,
    *,
    force: bool = False,
    threads: int = 1,
) -> SearchReport:
    """Exhaustive phi-normalized search for the metric dimension of Q^n.

    Tries sizes k = 1, 2, ... and returns at the first size admitting a
    resolving set; the example is the lexicographically first hit.  When
    max_k is exhausted without a hit the report falls back to the best
    known construction with exhaustive=False.
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
    examined = 0
    for k in range(1, max_k + 1):
        for offset, combos, hits in _scan_hits(n, k, normalize=True, threads=threads):
            if hits.size:
                local = int(hits[0])
                examined += offset + local + 1
                example = Landmarks(n, _candidate_members(combos[local], normalize=True))
                assert is_resolving(example).resolving
                return SearchReport(
                    n=n,
                    min_size=k,
                    example=example,
                    subsets_examined=examined,
                    elapsed=time.perf_counter() - t0,
                    exhaustive=True,
                )
        # no hit at size k: the whole stratum was examined
        examined += comb((1 << n) - 1, k - 1)
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
    for _, combos, hits in _scan_hits(n, k, normalize=normalize, threads=threads):
        for local in hits:
            yield Landmarks(n, _candidate_members(combos[int(local)], normalize))


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
    for _, _, hits in _scan_hits(n, k, normalize=True, threads=threads):
        if hits.size:
            return False
    return True
