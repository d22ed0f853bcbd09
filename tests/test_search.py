import itertools

import pytest

import mdim.search
from helpers import naive_all_resolving, naive_is_resolving, naive_min_size
from mdim.construct import best_construction
from mdim.core import Landmarks
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
    # the first hits lie past the first block of 97 candidates, so each block's offset counts
    default = {n: min_resolving_size(n) for n in (5, 6)}
    stream = list(find_all_min_sets(5, 4))
    assert default[6].subsets_examined == 48_865
    monkeypatch.setattr(mdim.search, "_CHUNK", 97)
    for n, report in default.items():
        small = min_resolving_size(n)
        assert (small.example, small.subsets_examined) == (report.example, report.subsets_examined)
    assert list(find_all_min_sets(5, 4)) == stream


def test_thread_count_does_not_change_report():
    a = min_resolving_size(6, threads=1)
    b = min_resolving_size(6, threads=4)
    assert (a.min_size, a.example, a.subsets_examined, a.exhaustive) == (
        b.min_size,
        b.example,
        b.subsets_examined,
        b.exhaustive,
    )


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


def test_verify_no_smaller():
    assert verify_no_smaller(3, 2)
    assert not verify_no_smaller(4, 4)
    assert verify_no_smaller(5, 3)
    assert not verify_no_smaller(5, 4)


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
