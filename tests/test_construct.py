import pytest

import mdim.construct
from helpers import naive_is_resolving
from mdim.construct import (
    CATALOG,
    basis_minimal_set,
    best_construction,
    catalog_rows,
    er_q5_set,
    erdos_renyi_set,
    level_set_landmarks,
    product_chain_set,
    product_lift,
    reduced_erdos_renyi_set,
    small_minimum_set,
)
from mdim.core import DIMENSION_CAP, Landmarks, all_ones, format_vertex, singleton, translate_set
from mdim.graphs import build_hypercube, is_resolving_general
from mdim.resolve import is_minimal, is_resolving


def fmt(S):
    return [format_vertex(v, S.n) for v in S.members]


def test_basis_minimal_set_golden():
    assert fmt(basis_minimal_set(5)) == ["01000", "00100", "00010", "00001"]
    S = basis_minimal_set(6)
    assert len(S) == 5
    assert S.members == tuple(singleton(i) for i in range(2, 7))


def test_basis_minimal_set_claims():
    for n in (5, 6, 7):
        S = basis_minimal_set(n)
        assert is_resolving(S).resolving
        assert is_minimal(S) == (True, [])


def test_basis_minimal_set_rejects_small_n():
    for n in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            basis_minimal_set(n)


def test_reduced_er_golden():
    assert fmt(reduced_erdos_renyi_set(5)) == ["01111", "10111", "11011", "11101"]


def test_reduced_er_claims():
    for n in (5, 6, 7):
        S = reduced_erdos_renyi_set(n)
        assert is_resolving(S).resolving
        assert is_minimal(S) == (True, [])


def test_reduced_er_is_translated_basis():
    # the family equals {e_1,...,e_{n-1}} translated by the all-ones vertex
    for n in (5, 6, 8):
        hat = Landmarks(n, tuple(singleton(i) for i in range(1, n)))
        assert reduced_erdos_renyi_set(n) == translate_set(hat, all_ones(n))
        assert translate_set(reduced_erdos_renyi_set(n), all_ones(n)) == hat


def test_erdos_renyi_golden():
    assert fmt(erdos_renyi_set(5)) == ["11111", "01111", "10111", "11011", "11101"]
    assert erdos_renyi_set(2).members == (3, 2)


def test_erdos_renyi_claims():
    for n in range(2, 9):
        S = erdos_renyi_set(n)
        assert len(S) == n
        assert is_resolving(S).resolving
    for n in (5, 6, 7):
        minimal, removable = is_minimal(erdos_renyi_set(n))
        assert not minimal
        assert all_ones(n) in removable


def test_er_q5_golden():
    S = er_q5_set()
    assert fmt(S) == ["11111", "11100", "01010", "01101"]
    assert naive_is_resolving(5, S.members)[0]
    assert len(S) == 4


def test_small_minimum_sets():
    assert fmt(small_minimum_set(3)) == ["000", "100", "010"]
    assert fmt(small_minimum_set(4)) == ["0000", "0100", "0010", "0001"]
    for n in (1, 2, 3, 4):
        S = small_minimum_set(n)
        assert len(S) == n
        assert is_resolving(S).resolving
    with pytest.raises(ValueError):
        small_minimum_set(5)


def test_product_lift_golden():
    W = Landmarks(3, (0, 1, 2))
    lifted = product_lift(W)
    assert lifted.n == 4
    assert fmt(lifted) == ["0000", "1000", "0100", "0001"]
    assert is_resolving(lifted).resolving


def test_product_lift_er_q5_chain():
    lifted = product_lift(er_q5_set())
    assert lifted.n == 6 and len(lifted) == 5
    assert is_resolving(lifted).resolving
    assert naive_is_resolving(6, lifted.members)[0]


def test_product_lift_runs_one_verdict(verdicts):
    assert product_lift(er_q5_set()) == product_chain_set(6)
    assert len(verdicts) == 1


def test_product_lift_rejects_non_resolving():
    with pytest.raises(ValueError):
        product_lift(Landmarks(5, (4, 8, 16)))


def test_product_chain_refuses_n_above_the_cap_before_it_verifies(monkeypatch):
    calls = []
    verify = mdim.construct.is_resolving
    monkeypatch.setattr(mdim.construct, "is_resolving", lambda S: calls.append(S.n) or verify(S))
    with pytest.raises(ValueError, match=f"dimension must be an int in 1..{DIMENSION_CAP}, got {DIMENSION_CAP + 1}"):
        product_chain_set(DIMENSION_CAP + 1)
    with pytest.raises(ValueError, match=f"got {DIMENSION_CAP + 1}"):
        product_lift(Landmarks(DIMENSION_CAP, tuple(singleton(i) for i in range(2, DIMENSION_CAP + 1))))
    assert calls == []


@pytest.mark.parametrize("n", range(2, DIMENSION_CAP + 1))
def test_product_chain_closed_form_matches_the_lift_chain(n):
    # the closed form against product_lift applied from the same base, each lift verified
    W = er_q5_set() if n >= 5 else Landmarks(2, (0, singleton(2)))
    while W.n < n:
        W = product_lift(W)
    S = product_chain_set(n)
    assert S == W
    assert is_resolving(S).resolving
    if n <= 10:
        assert is_resolving_general(build_hypercube(n), list(S.members)).resolving
    if n <= 12:
        assert naive_is_resolving(n, S.members) == (True, None)


def test_product_chain_runs_no_verdict(verdicts):
    assert len(product_chain_set(DIMENSION_CAP)) == DIMENSION_CAP - 1
    assert verdicts == []


def test_product_chain_small_matches_basis_with_phi():
    # chaining from {phi, e2} yields {phi, e2, ..., en}
    for n in (2, 3, 4):
        S = product_chain_set(n)
        assert S.members == (0,) + tuple(singleton(i) for i in range(2, n + 1))
        assert is_resolving(S).resolving


def test_product_chain_large_has_size_n_minus_1():
    assert product_chain_set(5) == er_q5_set()
    for n in (6, 7, 8, 9):
        S = product_chain_set(n)
        assert len(S) == n - 1
        assert is_resolving(S).resolving


def test_level_set_landmarks():
    S = level_set_landmarks(5, 2)
    assert len(S) == 10
    assert is_resolving(S).resolving
    assert level_set_landmarks(5, 1).members == (1, 2, 4, 8, 16)
    for bad in (0, 5):
        with pytest.raises(ValueError):
            level_set_landmarks(5, bad)
    with pytest.raises(ValueError, match="level_set_landmarks needs n >= 2, got 1"):
        level_set_landmarks(1, 1)


def test_level_sets_resolve_except_even_middle():
    # computed truth: the middle level of an even cube never resolves
    # (complementation maps distance d to n-d, so phi and all-ones collide)
    for n in range(4, 9):
        for k in range(1, n):
            S = level_set_landmarks(n, k)
            assert len(S) == len(list(S.members))
            report = is_resolving(S)
            if n % 2 == 0 and k == n // 2:
                assert not report.resolving
                assert report.witness == (0, all_ones(n))
            else:
                assert report.resolving, (n, k)


def test_even_middle_level_failure_is_cross_checked():
    S = level_set_landmarks(6, 3)
    assert len(S) == 20
    assert naive_is_resolving(6, S.members) == (False, (0, 63))


def test_best_construction():
    for n in range(1, 5):
        assert best_construction(n) == small_minimum_set(n)
        assert len(best_construction(n)) == n
    assert len(best_construction(5)) == 4
    for n in (5, 10):
        S = best_construction(n)
        assert len(S) == n - 1
        assert is_resolving(S).resolving


def test_catalog_is_complete_and_buildable():
    assert set(CATALOG) == {
        "basis-minimal",
        "er-reduced",
        "erdos-renyi",
        "er-q5",
        "small-min",
        "product-chain",
        "level",
    }
    rows = catalog_rows()
    assert [r["name"] for r in rows] == list(CATALOG)
    assert all(r["params"] and r["size"] and r["description"] for r in rows)
    assert CATALOG["er-q5"].build(None, None) == er_q5_set()
    assert CATALOG["basis-minimal"].build(6, None) == basis_minimal_set(6)
    assert CATALOG["level"].build(5, 2) == level_set_landmarks(5, 2)
    with pytest.raises(ValueError):
        CATALOG["basis-minimal"].build(None, None)
    with pytest.raises(ValueError):
        CATALOG["basis-minimal"].build(6, 2)
    with pytest.raises(ValueError):
        CATALOG["er-q5"].build(4, None)
    with pytest.raises(ValueError):
        CATALOG["level"].build(5, None)
