"""Named landmark-set constructions for the hypercube.

Each generator returns a Landmarks value in a fixed document order so that
golden tests stay byte-stable.  The families:

* basis_minimal_set      -- the singletons {2},...,{n}; minimal, size n-1 (n >= 5)
* reduced_erdos_renyi_set -- all-ones strings with a single zero; minimal, size n-1 (n >= 5)
* erdos_renyi_set        -- the classical size-n set: all-ones plus the reduced family (n >= 2)
* er_q5_set              -- the classical 4-vertex set resolving Q^5
* small_minimum_set      -- minimum resolving sets for n <= 4
* product_lift           -- lift a resolving set of Q^n to one of Q^{n+1}
* product_chain_set      -- product_lift chained from a small base set, in closed form
* level_set_landmarks    -- every vertex of one level
* best_construction      -- smallest family available at a given n
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Landmarks, all_ones, check_dimension, enumerate_level, singleton


def basis_minimal_set(n: int) -> Landmarks:
    """The singletons {2},...,{n}: a minimal resolving set of size n-1 for n >= 5.

    Smaller n fall outside the family's guarantee; rejected rather than
    silently returning a non-minimal set (use small_minimum_set there).
    """
    if n < 5:
        raise ValueError(f"basis_minimal_set needs n >= 5, got {n} (use small_minimum_set)")
    return Landmarks(n, tuple(singleton(i) for i in range(2, n + 1)))


def reduced_erdos_renyi_set(n: int) -> Landmarks:
    """All-ones with one zero, the zero in coordinate i for i = 1..n-1.

    Equals translate_set({e_1,...,e_{n-1}}, all-ones); minimal resolving
    for n >= 5 and one vertex smaller than the classical size-n set.
    """
    if n < 5:
        raise ValueError(f"reduced_erdos_renyi_set needs n >= 5, got {n}")
    ones = all_ones(n)
    return Landmarks(n, tuple(ones ^ singleton(i) for i in range(1, n)))


def erdos_renyi_set(n: int) -> Landmarks:
    """The classical size-n resolving set: all-ones, then all-ones minus one coordinate."""
    if n < 2:
        raise ValueError(f"erdos_renyi_set needs n >= 2, got {n}")
    ones = all_ones(n)
    return Landmarks(n, (ones,) + tuple(ones ^ singleton(i) for i in range(1, n)))


def er_q5_set() -> Landmarks:
    """The classical 4-vertex resolving set for Q^5: {1,2,3,4,5},{1,2,3},{2,4},{2,3,5}."""
    return Landmarks(5, (0b11111, 0b00111, 0b01010, 0b10110))


def small_minimum_set(n: int) -> Landmarks:
    """A minimum resolving set for Q^n, n <= 4 (sizes 1, 2, 3, 4)."""
    if not 1 <= n <= 4:
        raise ValueError(f"small_minimum_set covers 1 <= n <= 4, got {n} (use basis_minimal_set)")
    members = {
        1: (0,),
        2: (0, singleton(2)),
        3: (0, singleton(1), singleton(2)),
        4: (0, singleton(2), singleton(3), singleton(4)),
    }[n]
    return Landmarks(n, members)


def product_lift(W: Landmarks) -> Landmarks:
    """Lift a resolving set of Q^n to one of Q^{n+1} via the K2-product rule.

    Every member keeps the new coordinate n+1 at 0 and the first member is
    repeated with coordinate n+1 set (its copy in the second layer, at
    distance 1).  Output size is len(W) + 1.
    """
    from .resolve import is_resolving  # here, not at the top: importing construct loads no numpy

    check_dimension(W.n + 1)
    if not is_resolving(W).resolving:
        raise ValueError("product_lift needs a resolving input set")
    new_bit = 1 << W.n
    return Landmarks(W.n + 1, W.members + (W.members[0] | new_bit,))


def product_chain_set(n: int) -> Landmarks:
    """The base set of Q^b, then m0 | e_i for i = b+1..n, where m0 is the base's first member.

    The base is the 4-vertex Q^5 set for n >= 5 (giving size n-1) and
    {phi, e_2} for 2 <= n <= 4 (giving size n).  This is what chaining
    product_lift from the base up to dimension n returns, built without
    its verdicts, since the K2-product lift lemma (Caceres et al., On the
    metric dimension of Cartesian products of graphs, SIAM J. Discrete
    Math. 2007) already settles them: d(v, m0) - d(v, m0 | e_i) = 2 v_i - 1
    reads coordinate i of v, and the base members, zero above b, resolve
    the first b coordinates once the rest are known.
    """
    if n < 2:
        raise ValueError(f"product_chain_set needs n >= 2, got {n}")
    check_dimension(n)
    base = er_q5_set() if n >= 5 else Landmarks(2, (0, singleton(2)))
    m0 = base.members[0]
    return Landmarks(n, base.members + tuple(m0 | 1 << i for i in range(base.n, n)))


def level_set_landmarks(n: int, k: int) -> Landmarks:
    """All C(n,k) vertices of level k, in increasing numeric order.

    Accepted for n >= 2 and 1 <= k <= n-1.  At desk scale every such set
    resolves except the middle level k = n/2 of an even cube, which never
    can: complementation flips distances (d(~u, s) = n - d(u, s)), so the
    empty and the full set share the all-(n/2) distance vector there.
    Whether the interior levels contain *minimal* resolving subsets is not
    settled and nothing beyond the computed is_minimal result is claimed.
    """
    if n < 2:
        raise ValueError(f"level_set_landmarks needs n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"level must be in 1..{n - 1}, got {k}")
    return Landmarks(n, tuple(enumerate_level(n, k)))


def best_construction(n: int) -> Landmarks:
    """Smallest named construction available at n: exact minimum for n <= 4, size n-1 after."""
    if n <= 4:
        return small_minimum_set(n)
    return reduced_erdos_renyi_set(n)


@dataclass(frozen=True)
class CatalogEntry:
    """One CLI-visible construction: how to build it and what it promises."""

    name: str
    build: Callable[[int, int | None], Landmarks]
    params: str
    size: str
    description: str


def _needs_n(fn: Callable[[int], Landmarks]) -> Callable[[int, int | None], Landmarks]:
    def build(n: int | None, k: int | None) -> Landmarks:
        if n is None:
            raise ValueError("this construction needs --n")
        if k is not None:
            raise ValueError("this construction takes no --k")
        return fn(n)

    return build


def _build_er_q5(n: int | None, k: int | None) -> Landmarks:
    if k is not None:
        raise ValueError("er-q5 takes no --k")
    if n not in (None, 5):
        raise ValueError("er-q5 is fixed at n=5")
    return er_q5_set()


def _build_level(n: int | None, k: int | None) -> Landmarks:
    if n is None or k is None:
        raise ValueError("level needs both --n and --k")
    return level_set_landmarks(n, k)


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            "basis-minimal",
            _needs_n(basis_minimal_set),
            "n >= 5",
            "n-1",
            "singletons {2},...,{n}; minimal resolving set",
        ),
        CatalogEntry(
            "er-reduced",
            _needs_n(reduced_erdos_renyi_set),
            "n >= 5",
            "n-1",
            "all-ones with one zero in coordinate i, i=1..n-1; minimal resolving set",
        ),
        CatalogEntry(
            "erdos-renyi",
            _needs_n(erdos_renyi_set),
            "n >= 2",
            "n",
            "Erdos-Renyi size-n resolving set: all-ones plus er-reduced; not minimal for n >= 5",
        ),
        CatalogEntry(
            "er-q5",
            _build_er_q5,
            "n = 5",
            "4",
            "Erdos-Renyi 4-vertex resolving set for Q^5",
        ),
        CatalogEntry(
            "small-min",
            _needs_n(small_minimum_set),
            "1 <= n <= 4",
            "n",
            "minimum resolving sets for the smallest cubes",
        ),
        CatalogEntry(
            "product-chain",
            _needs_n(product_chain_set),
            "n >= 2",
            "n-1 for n >= 5, else n",
            "K2-product lift chained from a small base set",
        ),
        CatalogEntry(
            "level",
            _build_level,
            "n >= 2, 1 <= k <= n-1",
            "C(n,k)",
            "every vertex with exactly k ones",
        ),
    )
}


def catalog_rows() -> list[dict[str, str]]:
    """Stable listing of the construction catalog for the CLI."""
    return [
        {
            "name": e.name,
            "params": e.params,
            "size": e.size,
            "description": e.description,
        }
        for e in CATALOG.values()
    ]

