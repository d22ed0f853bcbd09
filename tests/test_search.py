import dataclasses
import hashlib
import itertools
import tracemalloc
from math import comb, prod

import numpy as np
import pytest

import mdim.search
from helpers import naive_all_resolving, naive_is_resolving, naive_min_size
from mdim.construct import best_construction
from mdim.core import Landmarks
from mdim.graphs import build_hypercube, is_resolving_general
from mdim.resolve import is_minimal, is_resolving
from mdim.search import find_all_min_sets, min_resolving_size, verify_no_smaller


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 4)])
def test_min_sizes(n, expected):
    report = min_resolving_size(n)
    assert report.min_size == expected
    assert report.exhaustive
    assert len(report.example) == expected
    assert is_resolving(report.example).resolving


def test_min_size_matches_unrestricted_bruteforce():
    # translation normalization is sound: fixing phi loses nothing
    for n in (1, 2, 3, 4):
        assert min_resolving_size(n).min_size == naive_min_size(n, require_phi=False)


def test_first_hit_is_lexicographically_first():
    # the report's example must be the first phi-normalized hit in order
    for n in (3, 4, 5):
        report = min_resolving_size(n)
        k = report.min_size
        expected = next(
            (0,) + rest
            for rest in itertools.combinations(range(1, 1 << n), k - 1)
            if naive_is_resolving(n, (0,) + rest)[0]
        )
        assert report.example.members == expected


def test_examined_count_is_deterministic():
    # strata below the hit are fully counted, plus the hit's 1-based index
    report = min_resolving_size(3)
    assert report.subsets_examined == 9  # 1 + 7 + 1: {phi,e1,e2} is the first size-3 try
    assert report.example.members == (0, 1, 2)
    report = min_resolving_size(4)
    assert report.example.members == (0, 1, 2, 4)
    assert report.subsets_examined == 1 + 15 + 105 + 2


def test_chunk_size_does_not_change_report(monkeypatch):
    # blocks of 97 candidates split every stratum and column scan into many
    # blocks; verdicts, examples, counts and the listing must not notice
    default = {n: min_resolving_size(n) for n in (5, 6)}
    stream = list(find_all_min_sets(5, 4))
    assert default[6].subsets_examined == 48_865
    monkeypatch.setattr(mdim.search, "_CHUNK", 97)
    for n, report in default.items():
        small = min_resolving_size(n)
        assert (small.example, small.subsets_examined) == (report.example, report.subsets_examined)
    assert list(find_all_min_sets(5, 4)) == stream


def test_thread_count_does_not_change_report():
    # everything runs on one thread, but the public entry points keep an
    # ignored threads= because the benchmark's workloads and the acceptance
    # criteria pass it
    S = best_construction(7)
    verdict = is_resolving(S)
    search = min_resolving_size(6)
    for threads in (2, 4):
        report = is_resolving(S, threads=threads)
        assert (report.resolving, report.witness) == (verdict.resolving, verdict.witness)
        assert is_minimal(S, threads=threads) == is_minimal(S)
        report = min_resolving_size(6, threads=threads)
        assert (report.min_size, report.example, report.subsets_examined, report.exhaustive) == (
            search.min_size,
            search.example,
            search.subsets_examined,
            search.exhaustive,
        )
        assert list(find_all_min_sets(5, 4, threads=threads)) == list(find_all_min_sets(5, 4))


@pytest.mark.parametrize("n,k", [(5, 4), (6, 5)])
def test_thread_count_does_not_change_listing(n, k):
    assert list(find_all_min_sets(n, k, threads=2)) == list(find_all_min_sets(n, k, threads=1))


def test_max_k_fallback_is_marked_non_exhaustive():
    report = min_resolving_size(5, max_k=2)
    assert not report.exhaustive
    assert report.example == best_construction(5)
    assert report.min_size == len(best_construction(5))
    assert report.subsets_examined == 1 + 31


def test_example_strips_to_minimal():
    for n in (3, 4, 5, 6):
        S = min_resolving_size(n).example
        minimal, removable = is_minimal(S)
        while removable:
            members = tuple(v for v in S.members if v != removable[0])
            S = Landmarks(n, members)
            minimal, removable = is_minimal(S)
        assert minimal


def test_guards():
    with pytest.raises(ValueError):
        min_resolving_size(9)
    with pytest.raises(ValueError):
        min_resolving_size(4, max_k=0)
    with pytest.raises(ValueError):
        min_resolving_size(13, force=True)
    with pytest.raises(ValueError):
        verify_no_smaller(9, 3)
    with pytest.raises(ValueError):
        list(find_all_min_sets(7, 3))
    with pytest.raises(ValueError):
        list(find_all_min_sets(5, 6))
    with pytest.raises(ValueError):
        list(find_all_min_sets(6, 3, normalize=False))


def test_find_all_min_sets_matches_bruteforce():
    got = [S.members for S in find_all_min_sets(3, 3)]
    assert got == naive_all_resolving(3, 3, require_phi=True)
    assert (0, 1, 2) in got
    assert list(find_all_min_sets(3, 2)) == []
    assert list(find_all_min_sets(4, 3)) == []
    for (n, k), hits in {(4, 3): 0, (4, 4): 232, (5, 3): 0, (5, 4): 160}.items():
        got = [S.members for S in find_all_min_sets(n, k)]
        assert got == naive_all_resolving(n, k, require_phi=True)
        assert len(got) == hits


def test_find_all_min_sets_unrestricted():
    got = [S.members for S in find_all_min_sets(3, 3, normalize=False)]
    assert got == naive_all_resolving(3, 3, require_phi=False)
    # sanity: strictly more sets than the phi-normalized stream
    assert len(got) > len(naive_all_resolving(3, 3, require_phi=True))
    for (n, k), hits in {(4, 3): 0, (4, 4): 928, (5, 3): 0, (5, 4): 1280}.items():
        got = [S.members for S in find_all_min_sets(n, k, normalize=False)]
        assert got == naive_all_resolving(n, k, require_phi=False)
        assert len(got) == hits


@pytest.mark.parametrize("n,k,normalize,count,first,last,digest", [
    (6, 5, True, 58_080, (0, 1, 6, 10, 18), (0, 47, 54, 58, 60),
     "7c4de202a49bd2e3812b0ce56ee5e138cbe6650542c72d45900a3d1beee726b3"),
    (5, 4, False, 1_280, (0, 3, 5, 9), (23, 27, 29, 30),
     "76a1ecb68163ccc3d74348639191cd1a80c05b8acc058c1c17b0a5615c425939"),
])
def test_listing_is_pinned(n, k, normalize, count, first, last, digest):
    # the whole member stream, recorded before the table-gather kernel replaced
    # XOR + popcount: one line of space-separated members per set
    stream = [S.members for S in find_all_min_sets(n, k, normalize=normalize)]
    assert (len(stream), stream[0], stream[-1]) == (count, first, last)
    text = "\n".join(" ".join(map(str, members)) for members in stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_listing_yields_real_landmarks():
    # the objects skip Landmarks' per-member checks but must behave as if built by it
    for n, k, normalize in [(5, 4, True), (4, 4, False)]:
        for S in find_all_min_sets(n, k, normalize=normalize):
            built = Landmarks(n, S.members)
            assert S == built and hash(S) == hash(built)
            assert type(S.members) is tuple and all(type(v) is int for v in S.members)
            with pytest.raises(dataclasses.FrozenInstanceError):
                S.members = ()


@pytest.mark.parametrize("bad", [[0, 1, 2, 32], [0, 1, 1, 2]])
def test_listing_checks_each_hit_block(monkeypatch, bad):
    # a member >= 2^n, or a repeated member, in a hit block is refused: the
    # once-per-block check stands in for Landmarks' own
    def scan(n, size, normalize):
        yield np.array([[0, 1, 2, 3], bad], dtype=np.uint32), np.array([0, 1])

    monkeypatch.setattr(mdim.search, "_scan_hits", scan)
    with pytest.raises(ValueError):
        list(find_all_min_sets(5, 4))


def test_verify_no_smaller():
    assert verify_no_smaller(3, 2)
    assert not verify_no_smaller(4, 4)
    assert verify_no_smaller(5, 3)
    assert not verify_no_smaller(5, 4)
    assert verify_no_smaller(2, 5)  # more members than vertices
    # from k = n on the answer needs no scan (the scan's ranks would overflow int64)
    for n, k in [(8, 12), (6, 20), (5, 30), (5, 32), (6, 6)]:
        assert not verify_no_smaller(n, k), (n, k)
    for n, k in [(5, 33), (3, 9)]:
        assert verify_no_smaller(n, k), (n, k)


def test_min_size_monotone_over_computed_range():
    sizes = [min_resolving_size(n).min_size for n in range(1, 7)]
    assert sizes == sorted(sizes)


def test_min_size_never_beats_best_construction():
    for n in range(1, 7):
        assert min_resolving_size(n).min_size <= len(best_construction(n))


def test_q6_size_4_failures_spot_check():
    # the k=4 stratum of the n=6 search is empty; spot-check some candidates
    # against the full verifier
    import random

    rng = random.Random(606)
    for _ in range(20):
        members = (0,) + tuple(sorted(rng.sample(range(1, 64), 3)))
        assert not is_resolving(Landmarks(6, members)).resolving


@pytest.mark.parametrize("chunk", [97, mdim.search._CHUNK])
def test_choice_blocks_match_itertools(monkeypatch, chunk):
    monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
    cases = [(0, 5, 0), (3, 3, 0), (0, 5, 1), (1, 64, 1), (3, 3, 2), (5, 3, 2), (0, 4, 5), (0, 10, 10),
             (1, 64, 4), (0, 16, 8)]
    for lo, hi, k in cases:
        blocks = list(mdim.search._choice_blocks(lo, hi, [k]))
        assert all(0 < len(block) <= chunk and block.shape[1] == k for block in blocks), (lo, hi, k)
        got = [tuple(row) for block in blocks for row in block.tolist()]
        assert got == list(itertools.combinations(range(lo, hi), k)), (lo, hi, k)


@pytest.mark.parametrize("chunk", [97, mdim.search._CHUNK])
def test_choice_blocks_bound_rows_and_memory(monkeypatch, chunk):
    # every block holds at most _CHUNK rows, and streaming never holds much
    # more than one: C(32, 8) is the n = 8 stratum, 336 MB if built at once,
    # and at 97 rows, where it would take 108 K blocks, C(20, 8) stands in for it
    monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
    cases = [(0, 5, 0), (3, 3, 0), (0, 5, 1), (1, 64, 1), (3, 3, 2), (5, 3, 2), (0, 4, 5), (0, 10, 10),
             (1, 64, 4), (0, 16, 8), (0, 20, 8) if chunk == 97 else (0, 32, 8)]
    for lo, hi, k in cases:
        rows = []
        tracemalloc.start()
        try:
            for block in mdim.search._choice_blocks(lo, hi, [k]):
                rows.append(len(block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(rows, default=0) <= chunk, (lo, hi, k)
        assert sum(rows) == comb(max(hi - lo, 0), k), (lo, hi, k)
        assert peak <= 2 << 20, (lo, hi, k, peak)


def test_choice_blocks_stream_c32_8():
    # the n = 8 stratum's 10.5 M column sets, too many to compare as tuples:
    # C(32, 8) increasing rows below 32 whose base-32 values increase are
    # exactly the 8-subsets of range(32) in lexicographic order
    rows, last = 0, -1
    for block in mdim.search._choice_blocks(0, 32, [8]):
        assert len(block) <= mdim.search._CHUNK
        assert (block[:, 1:] > block[:, :-1]).all() and (block[:, -1] < 32).all()
        keys = block.astype(np.int64) @ (32 ** np.arange(7, -1, -1, dtype=np.int64))
        assert keys[0] > last and (keys[1:] > keys[:-1]).all()
        rows, last = rows + len(block), keys[-1]
    assert rows == comb(32, 8)


def test_column_choices_are_distinct_within_each_cell(monkeypatch):
    # a cell of size m takes an m-subset of the r-bit columns, in increasing
    # order, and the choices come in the order of the product of the cells'
    # combinations
    for chunk in (97, mdim.search._CHUNK):
        monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
        for sizes, r in [([3], 2), ([1, 2], 2), ([2, 1, 1], 2), ([4], 2), ([1], 0), ([2, 3], 3), ([1, 1, 1, 1], 3)]:
            blocks = list(mdim.search._choice_blocks(0, 1 << r, sizes))
            assert all(len(block) <= chunk for block in blocks)
            choices = [tuple(row) for block in blocks for row in block.tolist()]
            assert len(choices) == prod(comb(1 << r, m) for m in sizes)
            assert len(set(choices)) == len(choices)
            assert choices == sorted(choices)
            for choice in choices:
                start = 0
                for m in sizes:
                    cell = choice[start:start + m]
                    assert all(a < b for a, b in zip(cell, cell[1:]))
                    assert all(0 <= c < 1 << r for c in cell)
                    start += m
            cells = [itertools.combinations(range(1 << r), m) for m in sizes]
            assert choices == [sum(parts, ()) for parts in itertools.product(*cells)]


@pytest.mark.parametrize("pool,k", [(63, 4), (31, 5), (20, 3), (7, 7), (15, 0)])
def test_lex_rank_inverts_choice_blocks(pool, k):
    # _lex_rank, which subsets_examined uses, is the inverse of the producer's unranking
    rows = [tuple(row) for block in mdim.search._choice_blocks(1, pool + 1, [k]) for row in block.tolist()]
    assert len(rows) == comb(pool, k)
    assert all(mdim.search._lex_rank(row, pool) == i for i, row in enumerate(rows))


def test_choice_blocks_refuse_ranks_past_int64():
    # C(2048, 12) choices would wrap an int64 rank
    with pytest.raises(ValueError):
        next(mdim.search._choice_blocks(0, 1 << 11, [12]))


@pytest.mark.parametrize("n", range(1, 13))
def test_resolving_mask_matches_naive(monkeypatch, n):
    # the kernel against the dict-of-vectors oracle, which shares none of its
    # machinery; sizes cover r = 1 and r = n, and r from 62 // b + 1 on, which
    # a kernel packing b-bit distances into one int64 key could not hold; blocks
    # have one row or repeated rows, and tiles of 5 rows reuse their buffers
    rng = np.random.default_rng(1000 + n)
    b = n.bit_length()
    words = mdim.search._zero_masks(n).shape[1]
    for r in sorted({1, 2, n, 62 // b, 62 // b + 1, 62 // b + 4}):
        for m in (1, 24):
            combos = rng.integers(0, 1 << n, size=(m, r), dtype=np.uint32)
            combos[m // 2:] = combos[:m - m // 2]
            expected = [naive_is_resolving(n, tuple(row))[0] for row in combos.tolist()]
            assert mdim.search._resolving_mask(n, combos).tolist() == expected, (n, r, m)
            with monkeypatch.context() as patch:
                patch.setattr(mdim.search, "_TILE_WORDS", 5 * words)
                assert mdim.search._resolving_mask(n, combos).tolist() == expected, (n, r, m, "tiles of 5")


def test_zero_masks_hold_the_sum_zero_sign_vectors():
    # one bit per nonzero sum-zero x in {-1,0,1}^n up to sign: (A002426(n) - 1) / 2
    # of them, A002426 the central trinomial coefficients; phi's row holds them all,
    # and the padding bits past them are clear in every row
    counts = []
    for n in range(1, 13):
        table = mdim.search._zero_masks(n)
        trinomial = sum(comb(n, 2 * i) * comb(2 * i, i) for i in range(n // 2 + 1))
        count = (trinomial - 1) // 2
        bits = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")
        assert table.shape == (1 << n, -(-count // 64)) and table.dtype == np.uint64, n
        assert bits[0, :count].all() and not bits[:, count:].any(), n
        counts.append(int(bits[0].sum()))
    assert counts == [0, 1, 3, 9, 25, 70, 196, 553, 1569, 4476, 12826, 36894]
    # row s counts the x (up to sign) that also sum to 0 on the ones of s
    for n in range(1, 6):
        table = mdim.search._zero_masks(n)
        vectors = [x for x in itertools.product((-1, 0, 1), repeat=n) if any(x) and sum(x) == 0]
        for s in range(1 << n):
            zero = sum(1 for x in vectors if sum(x[i] for i in range(n) if s >> i & 1) == 0)
            assert int(np.bitwise_count(table[s]).sum()) == zero // 2, (n, s)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_vertex_rows_resolve_only_q1(n):
    # phi, or any vertex, repeated: one distinct member, which resolves Q^n only at
    # n = 1; an accumulator started from all-ones would refuse it there
    combos = np.zeros((3, 4), dtype=np.uint32)
    combos[1] = (1 << n) - 1
    combos[2] = 1 << (n - 1)
    for r in (1, 2, 4):
        assert mdim.search._resolving_mask(n, combos[:, :r]).tolist() == [n == 1] * 3, (n, r)


def test_resolving_mask_at_the_q8_boundary(monkeypatch):
    # the block of rows in which _extends(8, 6, (0,)) finds its first hit, where
    # both verdicts occur (random rows at large n nearly all resolve), against the
    # verifier row by row and against the BFS oracle on a sample; a row with zero
    # or repeated members gets the verdict of its distinct members
    seen = []
    kernel = mdim.search._resolving_mask

    def spy(n, combos):
        mask = kernel(n, combos)
        seen.append((combos.copy(), mask))
        return mask

    monkeypatch.setattr(mdim.search, "_resolving_mask", spy)
    assert mdim.search._extends(8, 6, (0,))
    combos, mask = seen[-1]
    assert len(seen) > 1 and 0 < mask.sum() < len(mask)
    rows = [sorted(set(row)) for row in combos.tolist()]
    assert min(map(len, rows)) < 6
    assert mask.tolist() == [is_resolving(Landmarks(8, row)).resolving for row in rows]
    g = build_hypercube(8)
    rng = np.random.default_rng(8)
    sample = np.concatenate([rng.choice(np.flatnonzero(mask), 20), rng.choice(np.flatnonzero(~mask), 20)])
    for i in sample.tolist():
        assert is_resolving_general(g, rows[i]).resolving == mask[i], rows[i]


def test_first_hit_skips_prefixes_equal_up_to_permutation(monkeypatch):
    calls = []
    extends = mdim.search._extends

    def spy(n, k, prefix):
        calls.append(prefix)
        return extends(n, k, prefix)

    expected = next(find_all_min_sets(6, 5)).members
    monkeypatch.setattr(mdim.search, "_extends", spy)
    assert mdim.search._first_hit(6, 5) == expected
    for t in range(2, 6):
        shapes = [tuple(sorted(mdim.search._columns(6, prefix))) for prefix in calls if len(prefix) == t]
        assert len(shapes) == len(set(shapes)), t
    # (0, 1, 4) and (0, 1, 5) are (0, 1, 2) and (0, 1, 3) with coordinates 2 and 3 swapped
    assert [prefix for prefix in calls if len(prefix) == 3] == [(0, 1, 2), (0, 1, 3), (0, 1, 6)]


def test_column_scan_matches_plain_scan():
    # every stratum: the column-set verdict has a hit exactly when the plain
    # scan does, and the prefix search returns the plain scan's first hit
    for n in range(1, 7):
        for k in range(1, 6):
            first = next(find_all_min_sets(n, k), None)
            assert verify_no_smaller(n, k) == (first is None), (n, k)
            if first is not None:
                assert mdim.search._first_hit(n, k) == first.members, (n, k)
        report = min_resolving_size(n)
        assert report.example == next(find_all_min_sets(n, report.min_size))


def test_extends_up_to_the_whole_cube():
    # near k = 2^n most completions repeat rows; past it no k-set exists
    for n in range(1, 4):
        for k in range(1, (1 << n) + 2):
            expected = any(
                naive_is_resolving(n, (0,) + rest)[0] for rest in itertools.combinations(range(1, 1 << n), k - 1)
            )
            assert mdim.search._extends(n, k, (0,)) == expected, (n, k)


def test_extends_matches_plain_scan_on_longer_prefixes():
    # prefixes with several cells: "contained in a resolving k-set" by the
    # column scan against the plain stream of resolving k-sets
    for n, k in [(3, 3), (3, 4), (4, 4), (4, 5), (5, 4), (5, 5)]:
        hits = [set(S.members) for S in find_all_min_sets(n, k)]
        for t in range(1, k) if n < 5 else (1, 2):
            for rest in itertools.combinations(range(1, 1 << n), t):
                prefix = (0,) + rest
                expected = any(set(prefix) <= hit for hit in hits)
                assert mdim.search._extends(n, k, prefix) == expected, (n, k, prefix)


def test_pinned_search_records():
    # n = 7: the values the plain scan gave before the column-set search
    report = min_resolving_size(7)
    assert (report.min_size, report.example.members, report.subsets_examined, report.exhaustive) == (
        6, (0, 1, 2, 12, 20, 36), 10_741_212, True,
    )
    report = min_resolving_size(7, max_k=4)
    assert (report.example, report.subsets_examined, report.exhaustive) == (best_construction(7), 341_504, False)
    # n = 8: example and count come from the prefix search itself, not from an
    # independent scan (the plain scan does not reach the first hit)
    report = min_resolving_size(8)
    assert (report.min_size, report.exhaustive) == (6, True)
    assert report.example.members == (0, 3, 5, 24, 41, 78)
    assert report.subsets_examined == 514_009_519
    assert naive_is_resolving(8, report.example.members) == (True, None)
