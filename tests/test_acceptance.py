"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 9 asserts that every interior level set X^(k), 2 <= k <= n-2,
resolves Q^n for n = 5..10, with zero failures.  That claim is false for
the middle level k = n/2 of an even cube: complementation maps distance d
to n - d, so phi and the all-ones vertex always collide there.  The test
asserts the claim in full and fails honestly; its failure detail names
the exact (n, k) triples, on which all three independent checkers (bit
engine, brute force, BFS oracle) agree.
"""

import json
import time
from random import Random

from helpers import (
    greedy_resolving_set,
    naive_is_resolving,
    random_connected_graph,
    random_landmarks,
    random_resolving_landmarks,
)
from mdim.cli import main
from mdim.construct import (
    basis_minimal_set,
    er_q5_set,
    erdos_renyi_set,
    level_set_landmarks,
    product_lift,
    reduced_erdos_renyi_set,
)
from mdim.core import Landmarks, all_ones, singleton, translate_set
from mdim.graphs import build_hypercube, cartesian_product_k2, is_resolving_general
from mdim.resolve import distance_vector, is_minimal, is_resolving
from mdim.search import find_all_min_sets, min_resolving_size


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _coordinate_shift_perm(n: int) -> tuple[int, ...]:
    # new coordinate i reads old coordinate i+1 (and n wraps to 1): e_j -> e_{j-1}
    return tuple(range(2, n + 1)) + (1,)


def _permute(v: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, src in enumerate(perm):
        if v >> (src - 1) & 1:
            out |= 1 << i
    return out


def test_criterion_01_basis_family():
    t0 = time.perf_counter()
    for n in range(5, 13):
        S = basis_minimal_set(n)
        assert is_resolving(S).resolving, n
        assert is_minimal(S) == (True, []), n
    for n in range(13, 21):
        assert is_resolving(basis_minimal_set(n), threads=2).resolving, n
    # the costly top-end minimality check: 19 sub-verifications over 2^20 vertices
    assert is_minimal(basis_minimal_set(20), threads=2) == (True, [])
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 60.0,
        f"singleton family resolving for n=5..20, minimal for n=5..12 and n=20, "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_reduced_er_family():
    for n in range(5, 13):
        S = reduced_erdos_renyi_set(n)
        assert is_resolving(S).resolving, n
        assert is_minimal(S) == (True, []), n
        perm = _coordinate_shift_perm(n)
        permuted = Landmarks(n, tuple(_permute(v, perm) for v in basis_minimal_set(n).members))
        assert permuted.members == tuple(singleton(i) for i in range(1, n))
        assert S == translate_set(permuted, all_ones(n)), n
    _report(
        2,
        True,
        "reduced ER family resolving+minimal for n=5..12 and structurally equal to the "
        "translated, coordinate-shifted singleton family",
    )


def test_criterion_03_er_family():
    for n in range(2, 21):
        assert is_resolving(erdos_renyi_set(n), threads=2).resolving, n
    for n in range(5, 13):
        minimal, removable = is_minimal(erdos_renyi_set(n))
        assert not minimal and all_ones(n) in removable, n
    _report(
        3,
        True,
        "size-n ER family resolving for n=2..20; all-ones removable (non-minimal) for n=5..12",
    )


def test_criterion_04_er_q5_direct():
    t0 = time.perf_counter()
    S = er_q5_set()
    vectors = [distance_vector(v, S) for v in range(32)]
    distinct = len(set(vectors)) == 32
    elapsed = time.perf_counter() - t0
    _report(4, distinct and elapsed < 1.0, f"32 distance vectors pairwise distinct in {elapsed * 1000:.1f}ms")


def test_criterion_05_exact_minima():
    t0 = time.perf_counter()
    expected = {3: 3, 4: 4, 5: 4, 6: 5}  # n=6 value pinned after an exhaustive run
    for n, want in expected.items():
        report = min_resolving_size(n, threads=2)
        assert report.exhaustive, n
        assert report.min_size == want, (n, report.min_size)
        assert is_resolving(report.example).resolving
    elapsed = time.perf_counter() - t0
    _report(5, elapsed < 300.0, f"minimum sizes 3,4,4,5 for n=3..6, all exhaustive, in {elapsed:.1f}s (< 5min)")


def test_criterion_06_translation_invariance():
    rng = Random(60660)
    for n in range(5, 11):
        for _ in range(1000):
            S = random_landmarks(rng, n, rng.randint(2, n))
            x = rng.getrandbits(n)
            assert (
                is_resolving(S).resolving
                == is_resolving(translate_set(S, x)).resolving
            ), (S, x)
    checked = 0
    for n in range(1, 5):
        size = 1 << n
        singles = [(v,) for v in range(size)]
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        for members in singles + pairs:
            S = Landmarks(n, members)
            flag = is_resolving(S).resolving
            for x in range(size):
                assert is_resolving(translate_set(S, x)).resolving == flag
                checked += 1
    _report(
        6,
        True,
        f"resolving flag translation-invariant: 1000 random (S,x) per n=5..10 and "
        f"{checked} exhaustive size<=2 cases for n<=4, zero failures",
    )


def test_criterion_07_oracle_equivalence():
    rng = Random(70770)
    for n in range(4, 11):
        for _ in range(500):
            S = random_landmarks(rng, n, rng.randint(1, n + 2))
            a = is_resolving(S)
            assert (a.resolving, a.witness) == naive_is_resolving(n, S.members), S
    graphs = {n: build_hypercube(n) for n in range(2, 9)}
    for i in range(500):
        n = 2 + i % 7
        S = random_landmarks(rng, n, rng.randint(1, min(1 << n, n + 2)))
        a = is_resolving(S)
        c = is_resolving_general(graphs[n], list(S.members))
        assert a.resolving == c.resolving and a.witness == c.witness, S
    _report(
        7,
        True,
        "brute force == meet-in-the-middle verifier on flag and witness (500 sets per n=4..10); "
        "BFS oracle == meet-in-the-middle verifier on flag and witness (500 sets, n<=8); zero discrepancies",
    )


def test_criterion_08_product_lift():
    rng = Random(80880)
    for i in range(200):
        n = 3 + i % 9  # n in 3..11
        W = random_resolving_landmarks(rng, n)
        lifted = product_lift(W)
        assert lifted.n == n + 1 and len(lifted) == len(W) + 1
        assert is_resolving(lifted).resolving, W
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 64))
        W = greedy_resolving_set(g)
        product = cartesian_product_k2(g)
        lifted_idx = W + [W[0] + g.vertex_count]
        assert is_resolving_general(product, lifted_idx).resolving, (g.vertex_count, W)
    _report(
        8,
        True,
        "K2-product lift keeps sets resolving: 200 random hypercube sets (n=3..11) and "
        "200 random connected graphs (<=64 vertices), zero failures",
    )


def test_criterion_09_level_sets():
    failures = []
    for n in range(5, 11):
        for k in range(2, n - 1):
            report = is_resolving(level_set_landmarks(n, k))
            if not report.resolving:
                failures.append((n, k, report.witness))
    ok = not failures
    detail = (
        "every level set X^(k), 2<=k<=n-2, resolves for n=5..10"
        if ok
        else (
            "level sets fail exactly at the middle level of even cubes: "
            + ", ".join(f"(n={n},k={k}) witness {w}" for n, k, w in failures)
            + " -- phi and all-ones are both at distance n/2 from every middle-level vertex "
            "(complementation maps d to n-d), so the stated claim is disproved by computation; "
            "BFS oracle and brute force concur"
        )
    )
    _report(9, ok, detail)


def test_criterion_10_thread_determinism(tmp_path, capsys):
    q4 = tmp_path / "q4.txt"
    lines = ["p 16"]
    seen = set()
    for v in range(16):
        for i in range(4):
            u = v ^ (1 << i)
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                lines.append(f"{v} {u}")
    q4.write_text("\n".join(lines) + "\n")

    basis6 = basis_minimal_set(6).to_text()
    commands = [
        ["verify", "--n", "6", "--set", basis6],
        ["verify", "--n", "6", "--set", "001000,000100,000010,000001"],
        ["minimal", "--n", "5", "--set", "11111,01111,10111,11011,11101"],
        ["construct", "--name", "er-reduced", "--n", "8"],
        ["construct", "--list"],
        ["dimension", "--n", "5"],
        ["graph-verify", "--graph", str(q4), "--landmarks", "0,2,4,8"],
    ]
    for argv in commands:
        payloads = set()
        for _ in range(3):
            main(argv)
            record = json.loads(capsys.readouterr().out.strip())
            del record["elapsed_ms"]
            payloads.add(json.dumps(record, sort_keys=False))
        assert len(payloads) == 1, argv

    # the library entry points still take threads=, and no answer depends on it
    failing = Landmarks(6, (0b001000, 0b000100, 0b000010, 0b000001))
    answers = []
    for t in (1, 4, 8):
        verdicts = [is_resolving(S, threads=t) for S in (basis_minimal_set(6), failing)]
        search = min_resolving_size(5, threads=t)
        answers.append((
            tuple((r.resolving, r.witness, r.vertices_checked) for r in verdicts),
            is_minimal(erdos_renyi_set(5), threads=t),
            (search.min_size, search.example, search.subsets_examined, search.exhaustive),
            tuple(find_all_min_sets(4, 4, threads=t)),
        ))
    assert answers[0] == answers[1] == answers[2]
    _report(
        10,
        True,
        f"{len(commands)} commands x 3 runs: byte-identical payloads excluding elapsed_ms; "
        "is_resolving, is_minimal, min_resolving_size, find_all_min_sets x threads {1,4,8}: equal answers",
    )
