import copy
import dataclasses
import itertools
import pickle
from math import comb
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdim.core import (
    DIMENSION_CAP,
    Landmarks,
    all_ones,
    check_vertex,
    enumerate_level,
    format_set,
    format_vertex,
    hamming_distance,
    level,
    parse_landmarks,
    parse_vertex,
    singleton,
    split_vertex_list,
    translate,
    translate_set,
)
from mdim.search import min_resolving_size

# (text, n, expected int): the binary string's leftmost digit is coordinate 1
PARSE_CASES = [
    ("11001", 5, 0b10011),
    ("10100", 5, 0b00101),
    ("01000", 5, 2),
    ("00000", 5, 0),
    ("{1,2,5}", 5, 0b10011),
    ("{2}", 5, 2),
    ("{}", 5, 0),
]


@pytest.mark.parametrize("text,n,expected", PARSE_CASES)
def test_parse_vertex(text, n, expected):
    assert parse_vertex(text, n) == expected


def test_hamming_distance_worked_example():
    # 11001 vs 10100: symmetric difference 01101 = {2,3,5}, size 3
    x = parse_vertex("11001", 5)
    y = parse_vertex("10100", 5)
    assert hamming_distance(x, y) == 3
    assert format_vertex(translate(x, y), 5) == "01101"
    assert level(translate(x, y)) == 3


def test_hamming_distance_edges():
    assert hamming_distance(19, 19) == 0
    assert hamming_distance(0, all_ones(5)) == 5


def test_singleton_encoding():
    assert format_vertex(singleton(2), 5) == "01000"
    assert format_set(singleton(2), 5) == "{2}"
    assert singleton(1) == 1


def test_translate_examples():
    assert translate(singleton(2), singleton(2)) == 0
    assert translate(0, 0b10110) == 0b10110


def test_translate_set_shifts_basis_onto_phi():
    S = Landmarks(5, tuple(singleton(i) for i in range(2, 6)))
    shifted = translate_set(S, singleton(2))
    assert shifted.members == (0, 0b00110, 0b01010, 0b10010)  # phi,{2,3},{2,4},{2,5}
    assert translate_set(shifted, singleton(2)) == S
    assert translate_set(S, 0) == S


def test_level_cases():
    assert level(0) == 0
    assert level(all_ones(7)) == 7
    assert level(parse_vertex("11001", 5)) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_level_matches_combinations(n):
    for k in range(n + 1):
        got = list(enumerate_level(n, k))
        expected = sorted(
            sum(1 << (i - 1) for i in combo)
            for combo in itertools.combinations(range(1, n + 1), k)
        )
        assert got == expected
        assert len(got) == comb(n, k)
        assert got == sorted(set(got))


def test_enumerate_level_examples():
    assert list(enumerate_level(3, 1)) == [1, 2, 4]
    assert list(enumerate_level(5, 0)) == [0]
    assert len(list(enumerate_level(5, 2))) == 10


def test_enumerate_level_rejects_bad_k():
    with pytest.raises(ValueError):
        list(enumerate_level(5, 6))
    with pytest.raises(ValueError):
        list(enumerate_level(5, -1))


def test_landmarks_validation():
    with pytest.raises(ValueError):
        Landmarks(3, (1, 1))
    with pytest.raises(ValueError):
        Landmarks(3, (8,))
    with pytest.raises(ValueError):
        Landmarks(0, (0,))
    with pytest.raises(ValueError):
        Landmarks(DIMENSION_CAP + 1, (0,))
    with pytest.raises(ValueError):
        check_vertex(-1, 4)


def test_bool_is_neither_a_dimension_nor_a_vertex():
    # bool subclasses int: True was taken as Q^1 and kept as a member, and
    # min_resolving_size(True) failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="dimension must be an int"):
        Landmarks(True, (0,))
    with pytest.raises(ValueError, match="vertex True"):
        Landmarks(3, (True, 2))
    with pytest.raises(ValueError, match="dimension must be an int"):
        min_resolving_size(True)
    # numpy integers were never accepted, and still are not
    with pytest.raises(ValueError):
        Landmarks(np.int64(3), (0,))
    with pytest.raises(ValueError):
        Landmarks(3, (np.int64(1),))


def test_landmarks_are_slotted_frozen_values():
    # slots, not a per-instance __dict__; still frozen, and every copy and
    # replace gives an equal value with the same hash
    S = Landmarks(5, (0, 3, 5, 9))
    assert not hasattr(S, "__dict__") and Landmarks.__slots__ == ("n", "members")
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.n = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.members = (0,)
    # a name that is no field has no slot; CPython 3.11's frozen __setattr__
    # then raises TypeError rather than FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError, AttributeError)):
        S.extra = 1
    assert not hasattr(S, "extra")
    for copied in (pickle.loads(pickle.dumps(S)), copy.copy(S), copy.deepcopy(S), dataclasses.replace(S)):
        assert type(copied) is Landmarks and copied == S and hash(copied) == hash(S)
        assert (copied.n, copied.members) == (5, (0, 3, 5, 9))
    assert dataclasses.replace(S, members=[0, 3]) == Landmarks(5, (0, 3))
    with pytest.raises(ValueError):
        dataclasses.replace(S, members=(0, 32))
    assert S != Landmarks(6, S.members) and hash(S) == hash((5, (0, 3, 5, 9)))


def test_landmark_order_is_significant():
    a = Landmarks(3, (1, 2))
    b = Landmarks(3, (2, 1))
    assert a != b
    assert list(a) == [1, 2]
    assert len(a) == 2


@pytest.mark.parametrize(
    "bad",
    ["0100", "010000", "01a00", "", "{0}", "{6}", "{2,2}", "{1,2", "{x}"],
)
def test_parse_vertex_rejects(bad):
    with pytest.raises(ValueError):
        parse_vertex(bad, 5)


@pytest.mark.parametrize("bad", ["{1,\u0663}", "{\u00b2}"])
def test_parse_vertex_takes_ascii_digits_only(bad):
    # str.isdigit accepts any Unicode digit: int() reads the Arabic-Indic
    # three as 3 and fails on the superscript two
    with pytest.raises(ValueError, match="bad element"):
        parse_vertex(bad, 5)


def test_split_vertex_list_respects_braces():
    assert split_vertex_list("{1,2,3},{2,4},01000") == ["{1,2,3}", "{2,4}", "01000"]
    with pytest.raises(ValueError):
        split_vertex_list("{1,2")


def test_parse_landmarks_reports_position():
    with pytest.raises(ValueError, match="landmark 2"):
        parse_landmarks("01000,0100", 5)
    S = parse_landmarks("{1,2,3,4,5},{1,2,3},{2,4},{2,3,5}", 5)
    assert S.members == (31, 7, 10, 22)


@given(st.integers(1, 12), st.data())
def test_format_parse_round_trip(n, data):
    v = data.draw(st.integers(0, (1 << n) - 1))
    assert parse_vertex(format_vertex(v, n), n) == v
    assert parse_vertex(format_set(v, n), n) == v


@given(st.integers(1, 12), st.data())
def test_translate_is_involution(n, data):
    v = data.draw(st.integers(0, (1 << n) - 1))
    x = data.draw(st.integers(0, (1 << n) - 1))
    assert translate(translate(v, x), x) == v


def test_distance_equals_level_of_difference_exhaustive():
    for n in range(1, 9):
        for u in range(1 << n):
            for v in range(1 << n):
                assert hamming_distance(u, v) == level(translate(u, v))


def test_translation_preserves_distance_exhaustive_small():
    for n in (1, 2, 3, 4, 5, 6):
        size = 1 << n
        for u in range(size):
            for v in range(size):
                d = hamming_distance(u, v)
                for x in range(size):
                    assert hamming_distance(u ^ x, v ^ x) == d


def test_translation_preserves_distance_randomized():
    rng = Random(20817)
    for _ in range(2000):
        n = rng.randint(1, DIMENSION_CAP)
        u, v, x = (rng.getrandbits(n) for _ in range(3))
        assert hamming_distance(u ^ x, v ^ x) == hamming_distance(u, v)


def test_triangle_inequality_randomized():
    rng = Random(5521)
    for _ in range(2000):
        n = rng.randint(1, DIMENSION_CAP)
        u, v, w = (rng.getrandbits(n) for _ in range(3))
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)
