import hashlib
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

    def test_witness_from_either_half_or_both(self, check):
        # the verifier splits coordinates 1..n//2 from the rest; x is the kernel vector u - v
        assert check(Landmarks(4, (1, 6))).witness == (0, 3)  # x = -{1}-{2}, low half only
        assert check(Landmarks(4, (4, 8))).witness == (0, 12)  # x = -{3}-{4} beats x = {1}-{2}
        assert check(Landmarks(7, (80, 62))).witness == (0, 17)  # x = -{1}-{5} beats x inside the low half

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
        assert mdim.resolve._witness(n, S.members) == naive_is_resolving(n, S.members)[1], S


def test_resolves_matches_bfs_oracle():
    rng = Random(8008)
    cubes = {n: build_hypercube(n) for n in range(1, 9)}
    for _ in range(300):
        n = rng.randint(1, 8)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 3)))
        expected = is_resolving_general(cubes[n], list(S.members))
        got = is_resolving(S)
        assert (got.resolving, got.witness) == (expected.resolving, expected.witness), S


def test_paper_sets_beyond_the_vertex_key_reach():
    # a key per vertex would take 0.5-2 GiB here; the verifier sorts 3^13 + (3^13 + 1)/2 sign-vector keys
    for build in (basis_minimal_set, reduced_erdos_renyi_set):
        report = is_resolving(build(26))
        assert (report.resolving, report.witness, report.vertices_checked) == (True, None, 1 << 26)
        assert is_minimal(build(22)) == (True, [])
    for j in (5, 28):
        # {2}, ..., {28} without {j}: no member tells {1} from {j}
        S = Landmarks(28, tuple(singleton(i) for i in range(2, 29) if i != j))
        assert is_resolving(S).witness == (1, 1 << (j - 1))


@pytest.fixture(params=[1, 0], ids=["all-one-weights", "all-zero-weights"])
def colliding_weights(request, monkeypatch):
    # Weights that make nearly every key repeat, so the exact confirms decide every verdict.
    # Holds (candidate pairs, witness) for every confirm reached while it is active.
    monkeypatch.setattr(mdim.resolve, "_multipliers", lambda k: np.full(k, request.param, dtype=np.uint64))
    confirm = mdim.resolve._kernel_witness
    verdicts = []

    def spy(signs, left, right):
        witness = confirm(signs, left, right)
        verdicts.append((left.size * right.size, witness))
        return witness

    monkeypatch.setattr(mdim.resolve, "_kernel_witness", spy)
    return verdicts


def overruled(verdicts):
    """Resolving verdicts whose key matches went beyond x = 0: only the exact confirm got them right."""
    return sum(witness is None and candidates > 1 for candidates, witness in verdicts)


def test_resolves_confirms_key_matches_exactly(colliding_weights):
    rng = Random(1212)
    for _ in range(300):
        n = rng.randint(1, 10)
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 3)))
        assert mdim.resolve._witness(n, S.members) == naive_is_resolving(n, S.members)[1], S
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
    # half the members, so under all-one weights x = {17} has key 0 without being a
    # kernel vector, and would give the smaller pair (phi, {17}); all-zero weights give
    # every x key 0.  Only an exact confirm rejects them.
    top = 1 << 16
    S = Landmarks(17, tuple(1 << i | top for i in range(2, 9)) + tuple(1 << i for i in range(9, 16)))
    for threads in (1, 2):
        report = is_resolving(S, threads=threads)
        assert (report.resolving, report.witness) == (False, (1, 2)), threads


def tagged_keys(coeffs, tag, indices):
    """Python-int keys sum_t x_t c_t mod 2^64 + tag + d of the sign vectors x of the indices d."""
    keys = []
    for d in indices:
        total, rest = 0, d
        for c in coeffs:
            rest, digit = divmod(rest, 3)
            total += (0, 1, -1)[digit] * c
        keys.append(total % 2**64 + tag + d)
    return np.array(keys, dtype=np.uint64)


def test_verdict_keys_hold_the_left_keys_then_half_the_right_keys():
    rng = Random(37)
    for m in range(8):
        for h in {max(m - 1, 0), m}:
            side = 1 << (3**m - 1).bit_length()
            b = side.bit_length()
            left, right = ([rng.getrandbits(64 - b) << b for _ in range(size)] for size in (h, m))
            keys = mdim.resolve._verdict_keys(np.array(left, dtype=np.uint64), np.array(right, dtype=np.uint64), side)
            assert keys.size == 3**h + (3**m + 1) // 2, (h, m)
            assert np.array_equal(keys[:3**h], tagged_keys(left, 0, range(3**h))), (h, m)
            # z = 0, then every z whose highest nonzero digit is 1 (+1), in index order
            kept = [d for d in range(3**m) if d == 0 or d // 3 ** (len(np.base_repr(d, 3)) - 1) == 1]
            assert np.array_equal(keys[3**h:], tagged_keys(right, side, kept)), (h, m)


def test_left_key_ties_stay_out_of_the_exact_confirm(monkeypatch):
    # No member uses coordinates 1 and 5, so each left key ties with those of y +- ({1} - {5}).
    # Only the hash of x = 0 also holds a right key, so the confirm gets y = 0, +-({1} - {5})
    # and z = 0, not the 45,927 tied left keys.
    confirm = mdim.resolve._kernel_witness
    rows = []

    def spy(signs, left, right):
        rows.append(left.size + right.size)
        return confirm(signs, left, right)

    monkeypatch.setattr(mdim.resolve, "_kernel_witness", spy)
    S = Landmarks(20, tuple(singleton(i) for i in range(2, 21) if i != 5))
    assert is_resolving(S).witness == (1, 16)
    assert len(rows) == 1 and rows[0] <= 8, rows


def test_results_above_the_bruteforce_range_are_pinned():
    # (resolving, witness) of 2,000 seeded sets with 13 <= n <= 22 (887 fail), beyond the
    # brute force; the digest was taken from the verifier that keyed a failing set's halves twice
    rng = Random(1322)
    digest = hashlib.sha256()
    for _ in range(2000):
        n = rng.randint(13, 22)
        report = is_resolving(random_landmarks(rng, n, rng.randint(n // 2, n + 2)))
        digest.update(repr((report.resolving, report.witness)).encode())
    assert digest.hexdigest() == "9f263f61e17554a0b88a219838360f66d57222892e1a9c89660419126a7ea14f"


def test_sign_vectors_match_the_digit_formula():
    def formula(index, length):
        digits = index[:, None] // 3 ** np.arange(length) % 3
        return np.where(digits == 2, -1, digits).astype(np.int8)

    for length in range(9):
        index = np.arange(3**length)
        got = mdim.resolve._sign_vectors(index, length)
        assert got.dtype == np.int8 and np.array_equal(got, formula(index, length)), length
    index = np.random.default_rng(14).integers(0, 3**14, 50_000)
    assert np.array_equal(mdim.resolve._sign_vectors(index, 14), formula(index, 14))


def sign_edge_sets(rng, n):
    """Failing sets whose kernel is exactly 0 and +-x, with x supported on coordinates i and j.

    phi and every singleton but {i} and {j} leave x = {i} - {j}; extra
    members with equal bits i and j keep it, and a translation flips its
    signs.  i, j both in the low half give z = 0, both in the high half
    y = 0, and one in each a kernel spanning both halves.
    """
    h = n // 2
    pairs = {}
    if h >= 2:
        pairs["z = 0"] = [(1, 2)] + [tuple(rng.sample(range(1, h + 1), 2)) for _ in range(3)]
    if n - h >= 2:
        pairs["y = 0"] = [(n - 1, n)] + [tuple(rng.sample(range(h + 1, n + 1), 2)) for _ in range(3)]
    pairs["both"] = [(h, h + 1)] + [(rng.randint(1, h), rng.randint(h + 1, n)) for _ in range(3)]
    for kind, choices in pairs.items():
        for first, (i, j) in enumerate(choices):
            members = {0} | {singleton(c) for c in range(1, n + 1) if c not in (i, j)}
            t = 0
            if first:  # the first pair is kept plain: the top two coordinates unused for y = 0
                for _ in range(rng.randint(0, 3)):
                    v = rng.getrandbits(n)
                    if (v >> (i - 1) ^ v >> (j - 1)) & 1 == 0:
                        members.add(v)
                t = rng.getrandbits(n)
            yield kind, (i, j), tuple(sorted(s ^ t for s in members))


def check_sign_edge_sets(seed):
    rng = Random(seed)
    kinds = set()
    for n in range(2, 13):
        for kind, (i, j), members in sign_edge_sets(rng, n):
            expected = naive_is_resolving(n, members)
            u, v = expected[1]
            assert u | v == singleton(i) | singleton(j), (n, kind, members)  # x is supported on i and j
            assert mdim.resolve._witness(n, members) == expected[1], (n, kind, members)
            got = is_resolving(Landmarks(n, members))
            assert (got.resolving, got.witness) == expected, (n, kind, members)
            kinds.add((kind, n % 2))
    assert len(kinds) == 6  # each kind at odd and at even n


def test_sign_edge_cases_match_bruteforce():
    check_sign_edge_sets(4242)


def test_sign_edge_cases_match_bruteforce_with_colliding_weights(colliding_weights):
    check_sign_edge_sets(2424)
    assert len(colliding_weights) > 100


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
