import hashlib
import itertools
import sys
import threading
import time
import tracemalloc
from random import Random

import numpy as np
import pytest

import mdim.resolve
from helpers import naive_is_resolving, permute_vertex, random_landmarks, random_resolving_landmarks
from mdim.construct import basis_minimal_set, erdos_renyi_set, reduced_erdos_renyi_set
from mdim.core import DIMENSION_CAP, Landmarks, all_ones, singleton, translate_set
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


def test_distance_vector_rejects_vertices_outside_the_cube():
    S = basis_minimal_set(5)
    for v in (-1, 1 << 5):
        with pytest.raises(ValueError):
            distance_vector(v, S)


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
        assert mdim.resolve._witness(mdim.resolve._signs(n, S.members)) == naive_is_resolving(n, S.members)[1], S


def rank_path(signs):
    """The rank path's witness, whatever its cost against meet in the middle."""
    return mdim.resolve._rank_witness(signs, *mdim.resolve._echelon(signs))


def test_rank_and_mitm_paths_match_bruteforce():
    # both paths called directly; every fourth set may reach n = 12, where the brute force costs most
    rng = Random(2727)
    for i in range(3000):
        n = rng.randint(1, 12 if i % 4 == 0 else 9)
        S = random_landmarks(rng, n, rng.randint(1, n))
        signs = mdim.resolve._signs(n, S.members)
        expected = naive_is_resolving(n, S.members)[1]
        assert rank_path(signs) == expected, S
        assert mdim.resolve._mitm_witness(signs) == expected, S
    for _ in range(60):
        n = rng.randint(13, 24)
        S = random_landmarks(rng, n, rng.randint(n - 8, n))
        signs = mdim.resolve._signs(n, S.members)
        assert rank_path(signs) == mdim.resolve._mitm_witness(signs), S


@pytest.mark.parametrize("prime", [3, 5])
def test_rank_path_confirms_its_lifts_exactly_at_small_primes(prime, monkeypatch, verdicts):
    # over F_3 and F_5 a sign matrix often loses rank, and sign vectors that are kernel
    # vectors over F_p alone lift: only the exact confirm B x = 0 keeps them out.  With no
    # price on pivot steps, is_resolving and is_minimal take the rank path at these n too,
    # wherever the candidates are few enough; is_minimal's groups still sort keys.
    monkeypatch.setattr(mdim.resolve, "_PRIME", prime)
    monkeypatch.setattr(mdim.resolve, "_PIVOT_KEYS", 0)
    rng = Random(35 + prime)
    spurious = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        S = random_landmarks(rng, n, rng.randint(1, n))
        signs = mdim.resolve._signs(n, S.members)
        products = np.array(list(itertools.product((-1, 0, 1), repeat=n))) @ signs
        spurious += bool(((products % prime == 0).all(axis=1) & products.any(axis=1)).any())
        expected = naive_is_resolving(n, S.members)
        assert rank_path(signs) == expected[1], S
        got = is_resolving(S)
        assert (got.resolving, got.witness) == expected, S
        if expected[0]:
            removable = naive_removable(n, S.members)
            assert is_minimal(S) == (not removable, removable), S
    assert spurious >= 40, spurious  # 177 of the 400 sets at p = 3, 54 at p = 5
    assert {"rank", "mitm"} <= set(verdicts)


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
    # a key per vertex would take 0.5-2 GiB here; the rank path reduces a 25 x 26 sign matrix
    for build in (basis_minimal_set, reduced_erdos_renyi_set):
        report = is_resolving(build(26))
        assert (report.resolving, report.witness, report.vertices_checked) == (True, None, 1 << 26)
        assert is_minimal(build(22)) == (True, [])
    for j in (5, 28):
        # {2}, ..., {28} without {j}: no member tells {1} from {j}
        S = Landmarks(28, tuple(singleton(i) for i in range(2, 29) if i != j))
        assert is_resolving(S).witness == (1, 1 << (j - 1))


def test_paper_kernel_lines():
    # the n - 1 members of either family leave B of rank n - 1, so its kernel is the line
    # through one integer vector; from n = 5 on that vector has the entry 3 - n, no sign
    for n in range(5, DIMENSION_CAP + 1):
        line = np.array([3 - n] + [1] * (n - 1))
        for S, x in ((basis_minimal_set(n), line), (reduced_erdos_renyi_set(n), line[::-1])):
            signs = mdim.resolve._signs(n, S.members)
            rows, pivots = mdim.resolve._echelon(signs)
            assert pivots.size == n - 1 and not (x @ signs).any(), (n, S)
            assert mdim.resolve._rank_witness(signs, rows, pivots) is None
            assert is_resolving(S).resolving
    # at n = 4 the line is a sign vector, and gives the witness (pos x, neg x) up to sign
    for members, witness in (((2, 4, 8), (1, 14)), ((14, 13, 11), (7, 8))):
        S = Landmarks(4, members)
        assert rank_path(mdim.resolve._signs(4, members)) == witness
        assert is_resolving(S).witness == witness == naive_is_resolving(4, members)[1]


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
        assert mdim.resolve._mitm_witness(mdim.resolve._signs(n, S.members)) == naive_is_resolving(n, S.members)[1], S
    assert overruled(colliding_weights) >= 50


def test_confirm_path_matches_bruteforce(colliding_weights, mitm_only):
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


def test_confirm_path_is_minimal_matches_bruteforce(colliding_weights, mitm_only):
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
def test_confirm_path_two_blocks_witness_independent_of_threads(weights, monkeypatch, mitm_only):
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


def test_left_key_ties_stay_out_of_the_exact_confirm(monkeypatch, mitm_only):
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


def without_five(n):
    """{2}, ..., {n} without {5}: no member tells {1} from {5}, so the witness is (1, 16)."""
    return Landmarks(n, tuple(singleton(i) for i in range(2, n + 1) if i != 5))


@pytest.fixture(scope="module")
def bruteforce_cases():
    """Seeded sets with n <= 12, their brute-force (resolving, witness) and, for resolving sets,
    the is_minimal result (None for the others)."""
    rng = Random(2112)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 12)
        S = random_landmarks(rng, n, rng.randint(max(1, n - 3), min(1 << n, n + 2)))
        resolving, witness = naive_is_resolving(n, S.members)
        removable = naive_removable(n, S.members) if resolving else None
        cases.append((S, resolving, witness, None if removable is None else (not removable, removable)))
    assert 10 <= sum(resolving for _, resolving, *_ in cases) <= 30
    return cases


def check_marking_blocks(block, cases, monkeypatch):
    def results():
        out = []
        for S, _, _, minimal in cases:
            report = is_resolving(S)
            out.append((S, report.resolving, report.witness, None if minimal is None else is_minimal(S)))
        return out

    assert results() == cases
    monkeypatch.setattr(mdim.resolve, "_PAIR_BLOCK", block)
    assert results() == cases


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_marking_blocks_change_no_result(block, bruteforce_cases, monkeypatch):
    check_marking_blocks(block, bruteforce_cases, monkeypatch)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_marking_blocks_change_no_result_with_colliding_weights(block, bruteforce_cases, colliding_weights, monkeypatch):
    # nearly every key repeats, so runs of one hash straddle the edges of small blocks
    check_marking_blocks(block, bruteforce_cases, monkeypatch)
    assert overruled(colliding_weights)


def test_threads_keep_their_own_key_buffers():
    # numpy releases the interpreter lock while it sorts, so threads writing one shared key
    # buffer would corrupt each other's verdicts; three threads, each running the calls in
    # its own order, must get the serial reports.  These is_resolving calls take the rank
    # path; each is_minimal call sorts the keys of its two groups.
    calls = []
    for n in (20, 23):
        calls += [
            (is_resolving, basis_minimal_set(n)),
            (is_resolving, without_five(n)),
            (is_minimal, reduced_erdos_renyi_set(n)),
            (is_minimal, basis_minimal_set(n)),
        ]

    def run(j):
        check, S = calls[j]
        got = check(S)
        return got if check is is_minimal else (got.resolving, got.witness, got.vertices_checked)

    serial = [run(j) for j in range(len(calls))]
    assert serial[1][:2] == serial[5][:2] == (False, (1, 16))
    rng = Random(21)
    orders = [rng.choices(range(len(calls)), k=24) for _ in range(3)]
    got = [None] * len(orders)

    def work(i):
        got[i] = [run(j) for j in orders[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 90  # past the 60 s after which pytest dumps every stack
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, order in enumerate(orders):
        assert got[i] == [serial[j] for j in order], i


def test_warm_verdict_allocates_nothing_key_sized(mitm_only):
    # the n = 23 keys take 3.4 MiB; a warm verdict writes them into its thread's kept buffer
    # and marks the runs in blocks, so it allocates only small arrays
    S = basis_minimal_set(23)
    assert is_resolving(S).resolving
    tracemalloc.start()
    try:
        assert is_resolving(S).resolving
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_matched_runs_share_no_memory_with_the_key_buffer(mitm_only):
    # a verdict's runs are arrays of their own: a later verdict rewrites the thread's key
    # buffer and leaves them as they were
    is_resolving(basis_minimal_set(23))
    runs = mdim.resolve._matched_runs(mdim.resolve._signs(20, without_five(20).members))
    kept = [array.copy() for array in runs]
    assert is_resolving(without_five(23)).witness == (1, 16)
    buffer = mdim.resolve._buffers.keys
    for array, copy in zip(runs, kept):
        assert not np.shares_memory(array, buffer)
        assert np.array_equal(array, copy)


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


def decoder_indices():
    """(length, indices): every index of the half-lengths 0-8, then 50,000 random ones of length 14."""
    for length in range(9):
        yield length, np.arange(3**length)
    yield 14, np.random.default_rng(28).integers(0, 3**14, 50_000)


def test_row_tables_give_the_exact_rows_of_the_digit_formula():
    rng = np.random.default_rng(5)
    for length, index in decoder_indices():
        digits = index[:, None] // 3 ** np.arange(length) % 3
        x = np.where(digits == 2, -1, digits)
        for k in range(1, 29):
            # both halves of 2 length coordinates, the second one negated
            signs = (1 - 2 * rng.integers(0, 2, (2 * length, k))).astype(np.int8)
            y_rows, z_rows = mdim.resolve._row_tables(signs)
            for tables, expected in ((y_rows, x @ signs[:length]), (z_rows, -(x @ signs[length:]))):
                got = mdim.resolve._lookup(index, tables)
                assert got.dtype == np.int8 and np.array_equal(got, expected), (length, k)


def bit_loop_ranks(d, length, shift, n):
    """(pos << n | neg, neg << n | pos) of the sign vector x of index d; x_0 is coordinate shift + 1."""
    pos = neg = 0
    for t in range(shift, shift + length):
        d, digit = divmod(d, 3)
        if digit == 1:
            pos |= 1 << t
        elif digit == 2:
            neg |= 1 << t
    return pos << n | neg, neg << n | pos


def test_rank_tables_match_a_bit_loop():
    for length, index in decoder_indices():
        n = 2 * length
        for shift, tables in zip((0, length), mdim.resolve._rank_tables(n)):
            got = mdim.resolve._lookup(index, tables)
            expected = [list(bit_loop_ranks(d, length, shift, n)) for d in index.tolist()]
            assert got.dtype == np.int64 and got.tolist() == expected, (length, shift)


def test_ranks_fit_an_int64_at_the_dimension_cap():
    # a rank sums one row of every table of both halves, so the tables' largest entries bound
    # every rank: all +1, (2^n - 1) << n, which overflows an int64 from n = 32 on
    n = DIMENSION_CAP
    tables = [table for half in mdim.resolve._rank_tables(n) for table in half]
    assert min(int(table.min()) for table in tables) == 0
    largest = sum(int(table.max()) for table in tables)
    assert largest == ((1 << n) - 1) << n and largest < 2**63


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
            assert mdim.resolve._witness(mdim.resolve._signs(n, members)) == expected[1], (n, kind, members)
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


def naive_removable(n, members):
    return [s for i, s in enumerate(members) if naive_is_resolving(n, members[:i] + members[i + 1:])[0]]


def test_is_minimal_results_above_the_bruteforce_range_are_pinned():
    # (minimal, removable) of 80 seeded resolving sets with 13 <= n <= 22 and of three families
    # for 5 <= n <= 22; the digest was taken from the is_minimal that ran one verdict per member
    rng = Random(1622)
    digest = hashlib.sha256()
    checked = 0
    while checked < 80:
        n = rng.randint(13, 22)
        S = random_landmarks(rng, n, rng.randint(n // 2 + 1, n - 2))
        if is_resolving(S).resolving:
            digest.update(repr(is_minimal(S)).encode())
            checked += 1
    for build in (basis_minimal_set, reduced_erdos_renyi_set, erdos_renyi_set):
        for n in range(5, 23):
            digest.update(repr(is_minimal(build(n))).encode())
    assert digest.hexdigest() == "e34dde5a0afb4b14211eabb0ade57e523f305c0425ec1f026e57ef2d596b27a2"


def spy_on_needed(monkeypatch):
    """Count the candidate pairs that the group check saw, and those it rejected as no kernel vector."""
    check = mdim.resolve._needed
    seen = {"pairs": 0, "rejected": 0}

    def spy(columns, group):
        seen["pairs"] += columns.shape[1]
        seen["rejected"] += int(((columns != 0) & ~group[:, None]).any(axis=0).sum())
        return check(columns, group)

    monkeypatch.setattr(mdim.resolve, "_needed", spy)
    return seen


def test_is_minimal_confirms_group_pairs_exactly(monkeypatch):
    # weights 1..k tie many keys of sign vectors that are no kernel vector, while the pairs
    # of most groups still fit within their verdict's keys
    monkeypatch.setattr(mdim.resolve, "_multipliers", lambda k: np.arange(1, k + 1, dtype=np.uint64))
    seen = spy_on_needed(monkeypatch)
    rng = Random(99)
    checked = 0
    while checked < 150:
        n = rng.randint(3, 9)
        S = random_landmarks(rng, n, rng.randint(n - 1, min(1 << n, n + 3)))
        if naive_is_resolving(n, S.members)[0]:
            expected = naive_removable(n, S.members)
            assert is_minimal(S) == (not expected, expected), S
            checked += 1
    assert seen["rejected"] >= 1000 and seen["pairs"] > seen["rejected"], seen


def test_is_minimal_splits_groups_whose_pairs_outnumber_the_keys(monkeypatch, verdicts):
    # all-zero weights give every key hash 0: a group's pairs 3^h (3^m + 1)/2 outnumber its
    # verdict's 3^h + (3^m + 1)/2 keys, so groups split down to single members
    monkeypatch.setattr(mdim.resolve, "_multipliers", lambda k: np.zeros(k, dtype=np.uint64))
    seen = spy_on_needed(monkeypatch)
    rng = Random(4)
    for n in range(2, 9):
        for S in (random_resolving_landmarks(rng, n) for _ in range(3)):
            verdicts.clear()
            expected = naive_removable(n, S.members)
            assert is_minimal(S) == (not expected, expected), S
            # S itself, then a binary tree of groups with one leaf per member, without its root
            assert len(verdicts) == 1 + 2 * len(S.members) - 2, S
    assert seen["pairs"] == 0


def test_is_minimal_runs_three_verdicts(verdicts):
    # S itself, by the rank path, and one set of keys per half of its members; k + 1 verdicts
    # without the group check
    assert is_minimal(basis_minimal_set(20)) == (True, [])
    assert verdicts == ["rank", "mitm", "mitm"]


@pytest.mark.parametrize(
    "n, members, removable, single",
    [
        (5, (27, 13, 21, 7, 24), [7, 24], True),
        (5, (14, 5, 2, 8, 23), [8, 23], True),
        (7, (122, 100, 103, 84, 82, 45, 22), [82, 45], False),
        (9, (265, 404, 211, 48, 369, 204, 390), [], False),
        (11, (648, 1282, 1262, 171, 959, 0, 17, 543, 1599), [], False),
    ],
)
def test_is_minimal_splits_groups_under_the_splitmix_weights(monkeypatch, verdicts, n, members, removable, single):
    # sets found by sampling whose halves' pairs outnumber their keys under the real weights:
    # S itself, two halves and two groups split from one of them make five verdicts
    witness = mdim.resolve._witness
    widths = []
    monkeypatch.setattr(mdim.resolve, "_witness", lambda signs: widths.append(signs.shape[1]) or witness(signs))
    assert is_minimal(Landmarks(n, members)) == (not removable, removable)
    assert removable == naive_removable(n, members)
    assert len(verdicts) == 5
    # the first _witness is S itself; a later one on k - 1 members is a one-member group's
    assert widths[0] == len(members) and (len(members) - 1 in widths[1:]) == single
