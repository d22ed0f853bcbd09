import ast
import copy
import dataclasses
import hashlib
import itertools
import os
import pickle
import subprocess
import sys
import tracemalloc
from math import comb, prod
from pathlib import Path

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


def spy_on_extends(monkeypatch):
    extends = mdim.search._extends
    calls = []
    monkeypatch.setattr(mdim.search, "_extends", lambda *args: calls.append(args) or extends(*args))
    return calls


def test_chunk_size_does_not_change_report(monkeypatch):
    # blocks of 97 candidates split every stratum and column scan into many
    # blocks, and leave the greedy search to pick the last member of n = 7;
    # blocks of 2^20 let one plain-scan block find the whole example for
    # n <= 6.  Verdicts, examples, counts and the listing must not notice
    default = {n: min_resolving_size(n) for n in range(3, 8)}
    stream = list(find_all_min_sets(5, 4))
    assert default[6].subsets_examined == 48_865
    for chunk in (97, 1 << 20):
        monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
        calls = spy_on_extends(monkeypatch)
        for n, report in default.items():
            other = min_resolving_size(n)
            assert (other.example, other.subsets_examined) == (report.example, report.subsets_examined), (n, chunk)
        greedy = {n for n, k, prefix in calls if len(prefix) > 1}
        assert greedy == ({4, 5, 6, 7} if chunk == 97 else {7}), chunk
        assert list(find_all_min_sets(5, 4)) == stream
        monkeypatch.undo()


def test_min_size_six_runs_six_column_scans(monkeypatch):
    # sizes 1-3 fall to the column lemma, size 4 is ruled out, size 5 hits, and
    # the greedy search stops at (0, 1, 6), whose 1,596 completions fit in one
    # plain-scan block
    calls = spy_on_extends(monkeypatch)
    assert min_resolving_size(6).example.members == (0, 1, 6, 10, 18)
    assert calls == [(6, 4, (0,)), (6, 5, (0,)), (6, 5, (0, 1)), (6, 5, (0, 1, 2)), (6, 5, (0, 1, 3)),
                     (6, 5, (0, 1, 6))]


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
            assert type(S) is Landmarks and not hasattr(S, "__dict__")
            assert type(S.n) is int and type(S.members) is tuple and all(type(v) is int for v in S.members)
            with pytest.raises(dataclasses.FrozenInstanceError):
                S.members = ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                S.n = n + 1
    S = next(find_all_min_sets(6, 5))
    for copied in (pickle.loads(pickle.dumps(S)), copy.copy(S), copy.deepcopy(S), dataclasses.replace(S)):
        assert copied == S and hash(copied) == hash(S) and not hasattr(copied, "__dict__")


def test_unrestricted_q5_listing_is_pinned():
    # recorded from the plain rank-decoding scan, before candidates grew one member at a time
    test_listing_is_pinned(5, 5, False, 98_816, (0, 1, 2, 4, 8), (23, 27, 29, 30, 31),
                           "2704c4bd35b280942595edda2bed50bc9f1888a9750230d957d9c77351b1cb57")


def _kernel(n, combos):
    # the kernel on candidate rows: translated by their first member, which
    # becomes phi, and transposed to the member-major blocks it takes
    return mdim.search._resolving_mask(n, (combos ^ combos[:, :1]).T)


def _listing_reference(n, k, normalize):
    # the kernel on itertools rows in blocks: no enumeration code shared with the scan
    rows = (((0,) + rest for rest in itertools.combinations(range(1, 1 << n), k - 1)) if normalize
            else itertools.combinations(range(1 << n), k))
    while block := list(itertools.islice(rows, 4096)):
        combos = np.array(block, dtype=np.uint32)
        yield from map(tuple, combos[_kernel(n, combos)].tolist())


@pytest.mark.parametrize("n,k,normalize", [
    (n, k, normalize) for normalize, top in [(True, 6), (False, 5)] for n in range(1, top + 1) for k in range(1, 6)
])
def test_listing_matches_kernel_on_itertools_rows(monkeypatch, n, k, normalize):
    expected = list(_listing_reference(n, k, normalize))
    assert [S.members for S in find_all_min_sets(n, k, normalize=normalize)] == expected
    monkeypatch.setattr(mdim.search, "_CHUNK", 97)
    assert [S.members for S in find_all_min_sets(n, k, normalize=normalize)] == expected


@pytest.mark.parametrize("n,k,normalize", [(6, 5, True), (5, 5, False)])
def test_scan_holds_one_block_per_level(n, k, normalize):
    # depth first, so the scan never holds a whole level: all 37,820 prefixes
    # (0, a, b, c) of the n = 6 stream with their running ANDs peaked at 2.1 MiB
    tracemalloc.start()
    try:
        hits = sum(len(block) for block in mdim.search._scan_hits(n, k, normalize))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == {6: 58_080, 5: 98_816}[n]
    assert peak <= 3 << 19, peak


@pytest.mark.parametrize("bad", [[0, 1, 2, 32], [0, 1, 1, 2]])
def test_listing_checks_each_hit_block(monkeypatch, bad):
    # a member >= 2^n, or a repeated member, in a hit block is refused: the
    # once-per-block check stands in for Landmarks' own
    def scan(n, size, normalize):
        yield np.array([[0, 1, 2, 3], bad], dtype=np.uint32)

    monkeypatch.setattr(mdim.search, "_scan_hits", scan)
    with pytest.raises(ValueError):
        list(find_all_min_sets(5, 4))


def test_verify_no_smaller():
    assert verify_no_smaller(3, 2)
    assert not verify_no_smaller(4, 4)
    assert verify_no_smaller(5, 3)
    assert not verify_no_smaller(5, 4)
    assert verify_no_smaller(2, 5)  # more members than vertices
    # from k = n on the answer needs no scan: {phi, e_1, ..., e_(n-1)} resolves
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


def test_children_yield_each_child_once_in_order():
    # (parent, v) for every parent i and v in range(low[i], low[i] + counts[i]),
    # whole parents per block, within the budget unless one parent alone exceeds it
    rng = np.random.default_rng(20)
    cases = [([0, 5, 2], [3, 0, 4], 2), ([7], [0], 1), ([], [], 4), ([1, 1, 1, 1], [2, 9, 0, 2], 4),
             ([0, 3], [0, 0], 3)]
    cases += [(rng.integers(0, 50, m), rng.integers(0, 6, m), budget) for m, budget in [(40, 7), (300, 64), (25, 1)]]
    for low, counts, budget in cases:
        low, counts = np.array(low, dtype=np.intp), np.array(counts, dtype=np.intp)
        blocks = list(mdim.search._children(low, counts, budget))
        got = [(p, v) for parent, v in blocks for p, v in zip(parent.tolist(), v.tolist())]
        expected = [(i, v) for i in range(len(low)) for v in range(low[i], low[i] + counts[i])]
        assert got == expected, (low, counts, budget)
        for parent, v in blocks:
            assert len(parent) == len(v) and (len(parent) <= budget or len(set(parent.tolist())) == 1)
        owners = [set(parent.tolist()) for parent, _ in blocks]
        assert all(not a & b for a, b in itertools.combinations(owners, 2))


def _cell_prefix(sizes):
    # phi and one member per bit of the cell index: coordinates of cell c get column 2c
    cells = [c for c, m in enumerate(sizes) for _ in range(m)]
    return (0,) + tuple(sum(1 << i for i, c in enumerate(cells) if c >> j & 1)
                        for j in range(max(len(sizes) - 1, 0).bit_length()))


def spy_on_tails(monkeypatch):
    # the shape of each one-cell scan's last step: its tail takes all m columns at
    # once, the last j of them for some 2 <= j < m, or a single column
    increasing = mdim.search._increasing
    counts = []
    monkeypatch.setattr(mdim.search, "_increasing", lambda j, size: counts.append(j) or increasing(j, size))

    def shape(sizes):
        tail = counts[-1] if counts and len(sizes) == 1 else None
        counts.clear()
        return tail and ("whole" if tail == sizes[0] else "split" if tail > 1 else "single")

    return shape


# under _CHUNK = 97 a tail table holds at most 97 rows, and C(2^r, j) <= 97 for
# some 2 <= j < 2^r only at 2^r <= 8, where every j fits: no split tail occurs
TAIL_SHAPES = {97: {"whole", "single"}, mdim.search._CHUNK: {"whole", "split", "single"}}


@pytest.mark.parametrize("chunk", [97, mdim.search._CHUNK])
def test_choice_blocks_bound_rows_and_memory(monkeypatch, chunk):
    # every block of completions holds at most _CHUNK of them, and streaming
    # never holds much more than one block: C(32, 8) is the n = 8, k = 6
    # stratum, 336 MB if built at once, and at 97 per block, where it would
    # take 108 K blocks, C(16, 8) stands in for it; the cells of 6 over 8
    # columns and of 4 and 5 over 16 take their last columns in one step
    monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
    shape = spy_on_tails(monkeypatch)
    cases = [([3], 2), ([1, 2], 2), ([2, 1, 1], 2), ([4], 2), ([1], 0), ([2, 3], 3), ([3, 5], 2), ([6], 5),
             ([8], 4) if chunk == 97 else ([8], 5), ([6], 3), ([4], 4), ([1, 5], 4)]
    shapes = set()
    for sizes, r in cases:
        prefix = _cell_prefix(sizes)
        widths = []
        tracemalloc.start()
        try:
            for block in mdim.search._column_rows(sum(sizes), len(prefix) + r, prefix):
                widths.append(block.shape[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shapes.add(shape(sizes))
        assert max(widths, default=0) <= chunk, (sizes, r)
        assert sum(widths) == prod(comb(1 << r, m) for m in sizes), (sizes, r)
        assert peak <= 2 << 20, (sizes, r, peak)
    assert shapes - {None} == TAIL_SHAPES[chunk]


def test_choice_blocks_stream_c32_8():
    # the n = 8, k = 6 stratum: one cell of 8 coordinates over the 32 columns of
    # {0,1}^5, C(32, 8) = 10.5 M completions, 336 MB if built at once; they come
    # in increasing base-32 order of their columns (traced peak 2.55 MiB, decoding
    # included)
    keys = 32 ** np.arange(7, -1, -1, dtype=np.int64)
    coordinates = np.arange(8, dtype=np.uint32)[:, None]
    rows, last = 0, -1
    tracemalloc.start()
    try:
        for block in mdim.search._column_rows(8, 6, (0,)):
            assert block.shape[0] == 6 and block.shape[1] <= mdim.search._CHUNK and not block[0].any()
            columns = sum((block[1 + j] >> coordinates & 1) << j for j in range(5))
            key = keys @ columns.astype(np.int64)
            assert key[0] > last and (key[1:] > key[:-1]).all()
            rows, last = rows + block.shape[1], key[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == comb(32, 8)
    assert peak <= 11 << 18, peak


def test_column_choices_are_distinct_within_each_cell(monkeypatch):
    # a cell of size m takes an m-subset of the r-bit columns, in increasing
    # order, and the completions come in the order of the product of the
    # cells' combinations, with the prefix rows untouched
    for chunk in (97, mdim.search._CHUNK):
        monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
        shape = spy_on_tails(monkeypatch)
        shapes = set()
        for sizes, r in [([3], 2), ([1, 2], 2), ([2, 1, 1], 2), ([4], 2), ([1], 0), ([2, 3], 3), ([1, 1, 1, 1], 3),
                         ([3, 5], 2), ([6], 3), ([4], 4), ([3], 4), ([1, 3], 4), ([2], 5)]:
            prefix = _cell_prefix(sizes)
            n, t = sum(sizes), len(prefix)
            choices = []
            for block in mdim.search._column_rows(n, t + r, prefix):
                assert block.shape[0] == t + r and block.shape[1] <= chunk
                assert block.dtype == np.uint32 and (block[:t].T == prefix).all()
                for row in block[t:].T.tolist():
                    choices.append(tuple(sum((s >> i & 1) << j for j, s in enumerate(row)) for i in range(n)))
            shapes.add(shape(sizes))
            cells = [itertools.combinations(range(1 << r), m) for m in sizes]
            assert choices == [sum(parts, ()) for parts in itertools.product(*cells)], (sizes, r)
        assert shapes - {None} == TAIL_SHAPES[chunk], chunk
        monkeypatch.undo()


def test_column_steps_leave_every_parent_a_child(monkeypatch):
    # the room rule: a single column v of a cell of m, taken at its q-th step, leaves room for
    # the m - q - 1 columns to come, so every parent gets at least one child at the next step.
    # _grow_columns is spied on at each step: a parent whose start is at or past the step's
    # stop would get none.  The last step's leaves are not built.  At every n <= 7, phi with
    # r <= 5 rows to come and phi and each one more member with r <= 4: cells of 2 or more
    # columns over the 32 of r = 5, and of 3 or more over the 16 of r = 4, take single-column
    # steps before their last ones (r = 5 after two members would build 2 billion parents).
    grow = mdim.search._grow_columns
    seen = {"parents": 0, "childless": 0, "steps": 0}

    def spy(steps, rows, start, leaves):
        seen["parents"] += start.size
        seen["childless"] += int((start >= steps[0][1]).sum())
        seen["steps"] = max(seen["steps"], len(steps))
        if len(steps) > 1:
            yield from grow(steps, rows, start, leaves)

    monkeypatch.setattr(mdim.search, "_grow_columns", spy)
    for n in range(1, 8):
        for prefix, top in [((0,), 5)] + [((0, v), 4) for v in range(1, 1 << n)]:
            for r in range(1, top + 1):
                for _ in mdim.search._column_rows(n, len(prefix) + r, prefix):
                    pass
    assert seen["childless"] == 0, seen
    assert seen["steps"] >= 6 and seen["parents"] > 5_000_000, seen


def test_increasing_lists_every_tuple_in_order():
    # the bit planes spell itertools' combinations in their lexicographic order,
    # and first[v] is the first tuple whose first entry is >= v (the tuple count
    # when none is)
    cases = [(j, size) for size in range(1, 33) for j in range(1, 5)] + [(size, size) for size in range(5, 33)]
    for j, size in cases:
        planes, first = mdim.search._increasing(j, size)
        expected = list(itertools.combinations(range(size), j))
        bits = (size - 1).bit_length()
        assert planes.shape == (j, bits, len(expected)) and planes.dtype == np.uint32, (j, size)
        assert not (planes >> 1).any(), (j, size)
        tuples = (planes.astype(np.int64) << np.arange(bits)[:, None]).sum(axis=1).T
        assert list(map(tuple, tuples.tolist())) == expected, (j, size)
        starts = {}
        for t, row in enumerate(expected):
            starts.setdefault(row[0], t)
        offsets = [min((t for a, t in starts.items() if a >= v), default=len(expected)) for v in range(size + 1)]
        assert first.tolist() == offsets, (j, size)
        assert not planes.flags.writeable and not first.flags.writeable
        assert mdim.search._increasing(j, size)[0] is planes


def test_leaf_blocks_start_small_and_double(monkeypatch):
    # _extends(6, 5, (0,)) hits at its 86th completion: it tests at most 256 of
    # them, where one first block of _CHUNK would hold 5,966; the n = 8, k = 5
    # stratum has no hit, and its blocks double up to _CHUNK
    kernel = mdim.search._resolving_mask
    widths = []
    monkeypatch.setattr(mdim.search, "_resolving_mask", lambda n, rows: widths.append(rows.shape[1]) or kernel(n, rows))
    for chunk in (mdim.search._CHUNK, 97):
        monkeypatch.setattr(mdim.search, "_CHUNK", chunk)
        assert mdim.search._extends(6, 5, (0,))
        assert sum(widths) <= 256 and max(widths) <= chunk, (chunk, widths)
        widths.clear()
        assert not mdim.search._extends(8, 5, (0,))
        assert sum(widths) == comb(16, 8)
        assert all(width <= min(256 << e, chunk) for e, width in enumerate(widths)), (chunk, widths)
        assert len(widths) > 5
        widths.clear()


@pytest.mark.parametrize("pool,k", [(63, 4), (31, 5), (20, 3), (7, 7), (15, 0)])
def test_lex_rank_inverts_choice_blocks(pool, k):
    # _lex_rank, which subsets_examined uses, ranks the combinations of range(1, pool + 1) in order
    rows = itertools.combinations(range(1, pool + 1), k)
    assert all(mdim.search._lex_rank(row, pool) == i for i, row in enumerate(rows))


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
            assert _kernel(n, combos).tolist() == expected, (n, r, m)
            with monkeypatch.context() as patch:
                patch.setattr(mdim.search, "_TILE_WORDS", 5 * words)
                assert _kernel(n, combos).tolist() == expected, (n, r, m, "tiles of 5")


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
        assert _kernel(n, combos[:, :r]).tolist() == [n == 1] * 3, (n, r)


def test_resolving_mask_at_the_q8_boundary(monkeypatch):
    # the block of rows in which _extends(8, 6, (0,)) finds its first hit, where
    # both verdicts occur (random rows at large n nearly all resolve), against the
    # verifier row by row and against the BFS oracle on a sample; a row with zero
    # or repeated members gets the verdict of its distinct members
    seen = []
    kernel = mdim.search._resolving_mask

    def spy(n, rows):
        mask = kernel(n, rows)
        seen.append((rows.T.copy(), mask))
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
    # blocks of 97 leave the fourth member to the greedy search as well
    expected = next(find_all_min_sets(6, 5)).members
    monkeypatch.setattr(mdim.search, "_CHUNK", 97)
    spied = spy_on_extends(monkeypatch)
    assert mdim.search._first_hit(6, 5) == expected
    calls = [prefix for _, _, prefix in spied]
    assert max(map(len, calls)) == 4
    for t in range(2, 6):
        shapes = [tuple(sorted(mdim.search._columns(6, prefix))) for prefix in calls if len(prefix) == t]
        assert len(shapes) == len(set(shapes)), t
    # (0, 1, 4) and (0, 1, 5) are (0, 1, 2) and (0, 1, 3) with coordinates 2 and 3 swapped
    assert [prefix for prefix in calls if len(prefix) == 3] == [(0, 1, 2), (0, 1, 3), (0, 1, 6)]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, n + 2)] + [(7, 6)])
def test_first_hit_matches_kernel_on_itertools_rows(monkeypatch, n, k):
    # the first resolving phi-containing k-set in itertools order, decided by the
    # kernel alone, against the greedy search and its plain finish, in blocks of
    # _CHUNK and of 97
    expected = next(_listing_reference(n, k, normalize=True), None)
    assert (expected is None) == verify_no_smaller(n, k), (n, k)
    if expected is None:
        return
    assert mdim.search._first_hit(n, k) == expected
    monkeypatch.setattr(mdim.search, "_CHUNK", 97)
    assert mdim.search._first_hit(n, k) == expected


def test_lower_bound_counts_and_reads_columns():
    # the least k with (n + 1)^k >= 2^n and n <= 2^(k - 1), never above the
    # metric dimension the search certifies
    for n in range(1, 29):
        k = mdim.search._lower_bound(n)
        assert (n + 1) ** k >= 1 << n and n <= 1 << (k - 1), n
        assert (n + 1) ** (k - 1) < 1 << n or n > 1 << (k - 2), n
    assert [mdim.search._lower_bound(n) for n in range(1, 13)] == [1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5]
    for n, size in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 4), (6, 5), (7, 6), (8, 6)]:
        assert mdim.search._lower_bound(n) <= size == min_resolving_size(n).min_size, n


def test_sizes_below_the_bound_are_not_scanned(monkeypatch):
    # a max_k below the bound falls back to the construction, and
    # verify_no_smaller answers below it, with no column scan; the strata
    # still count in full
    calls = spy_on_extends(monkeypatch)
    report = min_resolving_size(7, max_k=3)
    assert (report.example, report.exhaustive) == (best_construction(7), False)
    assert report.subsets_examined == 1 + 127 + comb(127, 2)
    assert all(verify_no_smaller(n, k) for n in range(2, 9) for k in range(1, mdim.search._lower_bound(n)))
    assert calls == []


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


def test_min_size_checks_its_example_under_python_o():
    # the example's self-check is a plain-distance comparison that raises, not an assert
    # statement, so python -O keeps it: {phi, e_1, ..., e_4} does not tell e_5 from e_6
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, mdim.search as search\n"
        "print(sys.flags.optimize)\n"
        "search._first_hit = lambda n, k: (0, 1, 2, 4, 8)\n"
        "try:\n"
        "    search.min_resolving_size(6)\n"
        "except AssertionError as error:\n"
        "    print(error)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout == "1\nthe search's example does not resolve Q^6: (0, 1, 2, 4, 8)\n", result


def test_search_takes_only_the_sign_vector_decoder_from_the_verifier():
    # the search decides candidates with its own kernel; from mdim.resolve it takes only the
    # decoder that builds its table, and it checks its example with plain distances
    with open(mdim.search.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[-1] == "resolve" for alias in node.names), ast.dump(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "resolve":
            taken.update(alias.name for alias in node.names)
    assert taken == {"_sign_vectors"}, taken
