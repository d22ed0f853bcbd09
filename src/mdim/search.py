"""Exact minimum-resolving-set search on Q^n.

Translation invariance lets every resolving set be normalized to contain
phi, so the search only enumerates k-subsets {phi} + (k-1 nonzero vertices)
in lexicographic order.  Candidates are tested in vectorized batches, each
distance computed as popcount(v ^ s) as in the verifier; the first hit in
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
from math import comb
from typing import Iterator

import numpy as np

from .construct import best_construction
from .core import Landmarks, check_dimension
from .resolve import is_resolving

# Default cost guard; --force overrides it up to FORCED_CAP.  Memory is what
# bounds the forced range: at n = 12 one batch of 4,095 candidates
# (min_resolving_size(12, max_k=2, force=True)) peaked at 302 MiB RSS, of
# which the int64 keys alone are 2^12 x 4,095 x 8 B = 128 MiB; a batch's
# cost doubles with each further dimension (measured on a 2 vCPU Xeon).
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


def _combo_chunks(candidates: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks of candidate member tuples as uint32 rows, with their start offsets."""
    offset = 0
    for block in iter(lambda: list(itertools.islice(candidates, _CHUNK)), []):
        yield offset, np.array(block, dtype=np.uint32)
        offset += len(block)


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


def _scan_hits(n: int, size: int, normalize: bool, threads: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (offset, combo block, hit indices) over all candidates of one size."""
    if normalize:
        candidates = ((0, *rest) for rest in itertools.combinations(range(1, 1 << n), size - 1))
    else:
        candidates = itertools.combinations(range(1 << n), size)

    def job(item: tuple[int, np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
        offset, combos = item
        return offset, combos, np.flatnonzero(_resolving_mask(n, combos))

    yield from _ordered_parallel(job, _combo_chunks(candidates), threads)


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
                example = Landmarks(n, tuple(combos[local].tolist()))
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
    for _, _, hits in _scan_hits(n, k, normalize=True, threads=threads):
        if hits.size:
            return False
    return True
