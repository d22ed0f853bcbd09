import itertools
from random import Random

import numpy as np
import pytest

import mdim.resolve
from helpers import naive_is_resolving, permute_vertex, random_landmarks
from mdim.construct import basis_minimal_set, reduced_erdos_renyi_set
from mdim.core import Landmarks, all_ones, singleton, translate_set
from mdim.graphs import build_hypercube, is_resolving_general
from mdim.resolve import (
    distance_vector,
    is_minimal,
    is_resolving,
    is_resolving_fast,
)


def basis(n):
    return Landmarks(n, tuple(singleton(i) for i in range(2, n + 1)))


def test_distance_vector_to_basis_from_phi():
    S = basis(6)
    assert distance_vector(0, S) == (1,) * 5


def test_distance_vector_translated_singleton_family():
    # e1 against {phi,{2,3},{2,4},{2,5}}: distance 3 to every 2-set containing 2
    S = Landmarks(5, (0, 0b00110, 0b01010, 0b10010))
    assert distance_vector(1, S) == (1, 3, 3, 3)


def test_distance_vector_zero_at_own_landmark():
    S = Landmarks(5, (6, 9, 21))
    for j, s in enumerate(S.members):
        assert distance_vector(s, S)[j] == 0


def test_distance_vector_rejects_empty():
    with pytest.raises(ValueError):
        distance_vector(0, Landmarks(5, ()))


def bfs_oracle(S):
    return is_resolving_general(build_hypercube(S.n), list(S.members))


@pytest.mark.parametrize("check", [is_resolving, bfs_oracle], ids=["is_resolving", "bfs_oracle"])
class TestVerifierExamples:
    def test_q3_minimum_set(self, check):
        assert check(Landmarks(3, (0, 1, 2))).resolving

    def test_basis_resolves(self, check):
        assert check(basis(5)).resolving
        assert check(basis(6)).resolving

    def test_basis_minus_one_fails_with_unit_witness(self, check):
        report = check(Landmarks(5, (4, 8, 16)))  # e3,e4,e5
        assert not report.resolving
        assert report.witness == (1, 2)  # e1 and e2 collide

    def test_er_q5(self, check):
        assert check(Landmarks(5, (31, 7, 10, 22))).resolving

    def test_single_landmark(self, check):
        assert check(Landmarks(1, (0,))).resolving
        assert not check(Landmarks(2, (0,))).resolving

    def test_report_shape(self, check):
        report = check(Landmarks(4, (0, 1, 2, 4)))
        assert report.vertices_checked == 16
        assert report.elapsed >= 0
        assert (report.witness is None) == report.resolving

    def test_rejects_empty(self, check):
        with pytest.raises(ValueError):
            check(Landmarks(4, ()))


def test_matches_bruteforce_exhaustively_tiny():
    # every nonempty landmark set of Q^1..Q^3, flag and witness
    for n in (1, 2, 3):
        vertices = range(1 << n)
        for size in range(1, (1 << n) + 1):
            for members in itertools.combinations(vertices, size):
                expected = naive_is_resolving(n, members)
                S = Landmarks(n, members)
                got = is_resolving(S)
                assert (got.resolving, got.witness) == expected, members


def test_matches_bruteforce_randomized():
    rng = Random(97)
    for _ in range(300):
        n = rng.randint(2, 8)
        size = rng.randint(1, n + 2)
        S = random_landmarks(rng, n, size)
        expected = naive_is_resolving(n, S.members)
        got = is_resolving(S)
        assert (got.resolving, got.witness) == expected, S


def test_fast_is_an_alias():
    assert is_resolving_fast is is_resolving


def test_matches_bruteforce_on_random_sets_up_to_n9():
    rng = Random(1801)
    for _ in range(300):
        n = rng.randint(2, 9)
        S = random_landmarks(rng, n, rng.randint(1, n + 2))
        got = is_resolving(S)
        assert (got.resolving, got.witness) == naive_is_resolving(n, S.members), S


def test_wide_vector_path_against_bruteforce():
    # sets of 33 to 51 members, far wider than n: each key sums that many weighted terms
    rng = Random(33)
    for n, low in ((7, 43), (8, 33)):
        for _ in range(5):
            S = random_landmarks(rng, n, rng.randint(low, low + 8))
            expected = naive_is_resolving(n, S.members)
            got = is_resolving(S)
            assert (got.resolving, got.witness) == expected


def test_resolves_matches_bruteforce():
    # n = 1 and n = 2 give the verdict a left half of no coordinates or one; every
    # fourth set may reach n = 12, where the brute force costs most
    rng = Random(6006)
    for i in range(3000):
        n = rng.randint(1, 12 if i % 4 == 0 else 9)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 3)))
        assert mdim.resolve._resolves(n, S.members) == naive_is_resolving(n, S.members)[0], S


def test_resolves_matches_bfs_oracle():
    rng = Random(8008)
    cubes = {n: build_hypercube(n) for n in range(1, 9)}
    for _ in range(300):
        n = rng.randint(1, 8)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 3)))
        expected = is_resolving_general(cubes[n], list(S.members)).resolving
        assert mdim.resolve._resolves(n, S.members) == expected, S


def test_paper_sets_beyond_the_vertex_key_reach():
    # 2^26 vertex keys would take about 1.1 GiB; the verdict keys 3^13 sign vectors per half
    for build in (basis_minimal_set, reduced_erdos_renyi_set):
        report = is_resolving(build(26))
        assert (report.resolving, report.witness, report.vertices_checked) == (True, None, 1 << 26)
        assert is_minimal(build(22)) == (True, [])


@pytest.fixture(params=[1, 0], ids=["all-one-weights", "all-zero-weights"])
def colliding_weights(request, monkeypatch):
    # Weights that make nearly every key repeat, so the exact confirms decide every verdict.
    # Holds (candidate pairs, exact pairs) for every verdict reached while it is active.
    monkeypatch.setattr(mdim.resolve, "_multipliers", lambda k: np.full(k, request.param, dtype=np.uint64))
    confirm = mdim.resolve._kernel_pairs
    verdicts = []

    def spy(signs, left, right):
        pairs = confirm(signs, left, right)
        verdicts.append((left.size * right.size, pairs))
        return pairs

    monkeypatch.setattr(mdim.resolve, "_kernel_pairs", spy)
    return verdicts


def overruled(verdicts):
    """Resolving verdicts whose key matches went beyond x = 0: only the exact count got them right."""
    return sum(pairs == 1 < candidates for candidates, pairs in verdicts)


def test_resolves_confirms_key_matches_exactly(colliding_weights):
    # _resolves is called directly, so the exact vertex-key path cannot mend a wrong verdict
    rng = Random(1212)
    for _ in range(300):
        n = rng.randint(1, 10)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 3)))
        assert mdim.resolve._resolves(n, S.members) == naive_is_resolving(n, S.members)[0], S
    assert overruled(colliding_weights) >= 50


def test_confirm_path_matches_bruteforce(colliding_weights):
    rng = Random(2718)
    for _ in range(60):
        n = rng.randint(2, 8)
        S = random_landmarks(rng, n, rng.randint(1, n + 2))
        got = is_resolving(S)
        assert (got.resolving, got.witness) == naive_is_resolving(n, S.members), S
    for n in (7, 8):
        for _ in range(3):
            S = random_landmarks(rng, n, rng.randint(25, 40))
            got = is_resolving(S)
            assert (got.resolving, got.witness) == naive_is_resolving(n, S.members), S
    assert overruled(colliding_weights)


def test_confirm_path_is_minimal_matches_bruteforce(colliding_weights):
    rng = Random(3141)
    checked = 0
    while checked < 30:
        n = rng.randint(3, 8)
        size = rng.randint(25, 30) if n >= 7 and checked % 5 == 0 else rng.randint(n - 1, n + 2)
        S = random_landmarks(rng, n, size)
        if not naive_is_resolving(n, S.members)[0]:
            continue
        expected = [
            s for i, s in enumerate(S.members) if naive_is_resolving(n, S.members[:i] + S.members[i + 1:])[0]
        ]
        assert is_minimal(S) == (not expected, expected), S
        checked += 1
    assert overruled(colliding_weights)


@pytest.mark.parametrize("weights", ["splitmix", "all-one", "all-zero"])
def test_confirm_path_two_blocks_witness_independent_of_threads(weights, monkeypatch):
    if weights != "splitmix":
        fill = 1 if weights == "all-one" else 0
        monkeypatch.setattr(mdim.resolve, "_multipliers", lambda k: np.full(k, fill, dtype=np.uint64))
    # No member uses coordinates 1 and 2, so {1} and {2} collide.  Coordinate 17 is in
    # half the members, so under all-one weights phi shares its key with {17}, in the
    # second 2^16-vertex block, without sharing its vector; all-zero weights give every
    # vertex phi's key.  Only an exact confirm skips phi.
    top = 1 << 16
    S = Landmarks(17, tuple(1 << i | top for i in range(2, 9)) + tuple(1 << i for i in range(9, 16)))
    for threads in (1, 2):
        report = is_resolving(S, threads=threads)
        assert (report.resolving, report.witness) == (False, (1, 2)), threads


def test_full_vertex_set_resolves():
    # every vertex's vector has a zero exactly at its own position
    for n in range(1, 9):
        S = Landmarks(n, tuple(range(1 << n)))
        assert is_resolving(S).resolving


def test_translation_invariance_randomized():
    rng = Random(40424)
    for _ in range(200):
        n = rng.randint(3, 8)
        S = random_landmarks(rng, n, rng.randint(2, n))
        x = rng.getrandbits(n)
        assert is_resolving(S).resolving == is_resolving(translate_set(S, x)).resolving


def test_superset_monotonicity():
    rng = Random(7)
    for _ in range(100):
        n = rng.randint(3, 7)
        S = random_landmarks(rng, n, rng.randint(2, n + 1))
        if not is_resolving(S).resolving:
            continue
        extra = rng.randrange(1 << n)
        if extra in S.members:
            continue
        assert is_resolving(Landmarks(n, S.members + (extra,))).resolving


def test_coordinate_permutation_invariance():
    rng = Random(11)
    for _ in range(100):
        n = rng.randint(3, 7)
        S = random_landmarks(rng, n, rng.randint(2, n + 1))
        perm = tuple(rng.sample(range(1, n + 1), n))
        permuted = Landmarks(n, tuple(permute_vertex(v, perm) for v in S.members))
        assert is_resolving(S).resolving == is_resolving(permuted).resolving


def test_member_order_does_not_change_flag():
    rng = Random(13)
    for _ in range(50):
        n = rng.randint(3, 7)
        S = random_landmarks(rng, n, rng.randint(2, n + 1))
        shuffled = list(S.members)
        rng.shuffle(shuffled)
        assert is_resolving(S).resolving == is_resolving(Landmarks(n, tuple(shuffled))).resolving


def test_threads_do_not_change_report():
    S = basis(16)
    base = is_resolving(S, threads=1)
    for t in (2, 4):
        other = is_resolving(S, threads=t)
        assert (other.resolving, other.witness, other.vertices_checked) == (
            base.resolving,
            base.witness,
            base.vertices_checked,
        )
    bad = Landmarks(16, tuple(singleton(i) for i in range(3, 17)))
    base = is_resolving(bad, threads=1)
    other = is_resolving(bad, threads=4)
    assert not base.resolving
    assert base.witness == other.witness


def test_is_minimal_basis():
    minimal, removable = is_minimal(basis(5))
    assert minimal and removable == []


def test_is_minimal_er_size_n():
    ones = all_ones(5)
    er = Landmarks(5, (ones,) + tuple(ones ^ singleton(i) for i in range(1, 5)))
    minimal, removable = is_minimal(er)
    assert not minimal
    assert ones in removable


def test_is_minimal_superset_flags_extra():
    S = Landmarks(5, basis(5).members + (all_ones(5),))
    minimal, removable = is_minimal(S)
    assert not minimal
    assert removable  # at least the padding vertex can go


def test_is_minimal_rejects_non_resolving():
    with pytest.raises(ValueError):
        is_minimal(Landmarks(5, (4, 8, 16)))


def test_is_minimal_singleton():
    assert is_minimal(Landmarks(1, (0,))) == (True, [])
