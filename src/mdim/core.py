"""Bit-level hypercube arithmetic.

A vertex of the n-cube Q^n is a plain int used as a bit set: bit (i-1) is
set exactly when element i of {1,...,n} belongs to the subset the vertex
represents.  The all-zero int is the empty set phi.  With that encoding the
graph distance between two vertices is ``(x ^ y).bit_count()`` and
translating by a fixed vertex is a single XOR.

Text forms accepted everywhere: a binary string of exactly n digits with
the leftmost digit being coordinate 1 (so "01000" at n=5 is {2}), or set
notation like "{2,3}" / "{}".  The binary string is the canonical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# The figures that bound the cap are meet in the middle's (MITM's), the
# verifier of sets whose kernel or size the rank path prices above it.  MITM sorts 3^h + (3^(n-h) + 1)/2 keys of sign
# vectors, h = n // 2, in a buffer each thread keeps for its largest
# verdict: 3.4 MiB at n = 23 and 54.7 MiB at n = 28.  Its ru_maxrss rise on
# one thread (2 vCPU Xeon) measured 7, 19 and 56 MiB at n = 24, 26 and 28,
# both for basis_minimal_set and for the failing set {2..n} without {5}.
# Its exact confirm grows with the candidates a set's kernel gives: two
# random members at n = 28 (7.1 M candidates) took 1.7-2.1 s and 501 MiB
# peak RSS, about half of it in np.unique's argsort.  The rank path
# decides basis_minimal_set(28) and {2..28} without {5} in about 1 ms at
# 29.1-29.6 MiB peak RSS in a fresh process, within 1 MiB of the process
# before the call.  A random 28-set takes 0.44-0.69 ms by the rank path
# (0.2-0.3 MiB), or 0.02-0.05 ms and no memory when its parity matrix has
# rank 28, as erdos_renyi_set(28)'s has.  is_minimal of basis_minimal_set(28) or
# reduced_erdos_renyi_set(28) takes one elimination of the same kind, in
# 1.1-2.1 ms at 1.0 MiB above the process before the call.  is_minimal of
# a set that the rule prices out of that elimination runs one verdict of
# S and one of each S - j, each by the rank path or by MITM.
# Vertices also stay inside a uint32.
DIMENSION_CAP = 28

Vertex = int

PHI: Vertex = 0


def check_dimension(n: int) -> None:
    # bool is an int subclass, but True is no dimension and no vertex
    if type(n) is not int or not 1 <= n <= DIMENSION_CAP:
        raise ValueError(f"dimension must be an int in 1..{DIMENSION_CAP}, got {n!r}")


def check_vertex(v: Vertex, n: int) -> None:
    if type(v) is not int or v < 0 or v >> n:
        raise ValueError(f"vertex {v!r} does not fit in coordinates 1..{n}")


def singleton(i: int) -> Vertex:
    """The vertex {i}: a single one in coordinate i."""
    if i < 1:
        raise ValueError(f"coordinate must be >= 1, got {i}")
    return 1 << (i - 1)


def all_ones(n: int) -> Vertex:
    """The vertex {1,...,n}."""
    check_dimension(n)
    return (1 << n) - 1


def hamming_distance(x: Vertex, y: Vertex) -> int:
    """Number of coordinates where x and y differ (= graph distance in Q^n)."""
    return (x ^ y).bit_count()


def translate(v: Vertex, x: Vertex) -> Vertex:
    """Symmetric difference of v and x.  Self-inverse: translate(translate(v,x),x) == v."""
    return v ^ x


def level(v: Vertex) -> int:
    """Size of the subset v, i.e. its number of ones."""
    return v.bit_count()


@dataclass(frozen=True)
class Landmarks:
    """An ordered candidate resolving set for Q^n.

    Order is significant: distance vectors list one entry per member, in
    member order.  Members must be pairwise distinct and valid for n.
    """

    # Slots written here rather than by slots=True: that copies the class, and on
    # CPython 3.11 the frozen __setattr__ of the copy fails with TypeError for a
    # name that is no field.  Frozen slots take no pickled state, hence __reduce__.
    __slots__ = ("n", "members")

    n: int
    members: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        check_dimension(self.n)
        object.__setattr__(self, "members", tuple(self.members))
        for v in self.members:
            check_vertex(v, self.n)
        if len(set(self.members)) != len(self.members):
            raise ValueError("landmarks must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.members)

    def to_text(self) -> str:
        return ",".join(format_vertex(v, self.n) for v in self.members)

    def __reduce__(self):
        return Landmarks, (self.n, self.members)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one resolving-set check.

    ``witness`` is None exactly when ``resolving`` is True; otherwise it is
    the smallest pair (u, v) with u < v sharing a distance vector
    (minimal u, then minimal v).
    """

    resolving: bool
    witness: tuple[Vertex, Vertex] | None
    vertices_checked: int
    elapsed: float


def translate_set(S: Landmarks, x: Vertex) -> Landmarks:
    """Translate every member by x, preserving order.

    Translation is a bijection on vertices, so members stay distinct.
    """
    check_vertex(x, S.n)
    return Landmarks(S.n, tuple(v ^ x for v in S.members))


def enumerate_level(n: int, k: int) -> Iterator[Vertex]:
    """All C(n,k) vertices with exactly k ones, in increasing numeric order."""
    check_dimension(n)
    if not 0 <= k <= n:
        raise ValueError(f"level must be in 0..{n}, got {k}")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield v
        # Gosper's hack: next larger int with the same popcount
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def format_vertex(v: Vertex, n: int) -> str:
    """Canonical text form: n binary digits, leftmost digit = coordinate 1."""
    check_vertex(v, n)
    return "".join("1" if v >> i & 1 else "0" for i in range(n))


def format_set(v: Vertex, n: int) -> str:
    """Set-notation text form, e.g. "{2,3}" or "{}"."""
    check_vertex(v, n)
    return "{" + ",".join(str(i + 1) for i in range(n) if v >> i & 1) + "}"


def parse_vertex(text: str, n: int) -> Vertex:
    """Parse either text form of a vertex of Q^n.

    Raises ValueError naming the offending token on malformed input.
    """
    check_dimension(n)
    t = text.strip()
    if not t:
        raise ValueError("empty vertex token")
    if t.startswith("{"):
        if not t.endswith("}"):
            raise ValueError(f"unclosed set notation in {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return 0
        v = 0
        for part in inner.split(","):
            p = part.strip()
            if not (p.isascii() and p.isdigit()):
                raise ValueError(f"bad element {part.strip()!r} in {text!r}")
            i = int(p)
            if not 1 <= i <= n:
                raise ValueError(f"element {i} out of range 1..{n} in {text!r}")
            bit = 1 << (i - 1)
            if v & bit:
                raise ValueError(f"duplicate element {i} in {text!r}")
            v |= bit
        return v
    if len(t) != n:
        raise ValueError(f"binary form needs exactly {n} digits, got {len(t)} in {text!r}")
    v = 0
    for j, ch in enumerate(t):
        if ch == "1":
            v |= 1 << j
        elif ch != "0":
            raise ValueError(f"bad digit {ch!r} at position {j + 1} in {text!r}")
    return v


def split_vertex_list(text: str) -> list[str]:
    """Split a comma-separated vertex list at top level (commas inside {} don't split)."""
    tokens: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced '}}' in {text!r}")
        if ch == "," and depth == 0:
            tokens.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced '{{' in {text!r}")
    tokens.append("".join(current))
    return tokens


def parse_landmarks(text: str, n: int) -> Landmarks:
    """Parse a comma-separated list of vertex texts into a Landmarks value."""
    check_dimension(n)
    members = []
    for idx, token in enumerate(split_vertex_list(text), start=1):
        try:
            members.append(parse_vertex(token, n))
        except ValueError as exc:
            raise ValueError(f"landmark {idx}: {exc}") from None
    return Landmarks(n, tuple(members))
