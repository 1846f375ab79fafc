"""Constructors for the named graph families studied by the workbench.

Each family has a fixed vertex labeling so that constructions are
reproducible byte-for-byte; tests pin several of the resulting edge lists.
All constructors validate their parameter domain and raise ValueError
outside it, including any order above G6_MAX_ORDER: graph6 cannot encode
such a graph, so it is rejected before anything is built.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .graphs import G6_MAX_ORDER, Graph, build_graph


def _check_order(n: int) -> None:
    if n > G6_MAX_ORDER:
        raise ValueError(
            f"order {n} exceeds {G6_MAX_ORDER}, the largest graph6 encodes")


def _ring(vertices: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of the cycle that visits ``vertices`` in order."""
    return list(zip(vertices, [*vertices[1:], vertices[0]]))


# ---------------------------------------------------------------------------
# elementary families


def cycle(n: int) -> Graph:
    """The cycle C_n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _check_order(n)
    return build_graph(n, _ring(range(n)))


def path(n: int) -> Graph:
    """The path on n vertices (n >= 1)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    _check_order(n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    """The complete graph K_n (n >= 1)."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    _check_order(n)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cocktail_party(n: int) -> Graph:
    """K_n minus a perfect matching (even n >= 4); matching edges (2i, 2i+1)."""
    if n < 4 or n % 2:
        raise ValueError("cocktail-party graph needs even n >= 4")
    _check_order(n)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (j == i + 1 and i % 2 == 0)
    ]
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# two cycles glued at a vertex / along an edge


def vertex_glued_cycles(n: int, a: int) -> Graph:
    """Cycles of lengths a and n+1-a sharing exactly one vertex.

    Vertex 0 is the shared (cut) vertex; the first cycle runs on 0..a-1 and
    the second on 0, a, ..., n-1.  Requires 3 <= a <= n-2 so that both
    cycles are genuine.
    """
    if not 3 <= a <= n - 2:
        raise ValueError(f"need 3 <= a <= n-2, got a={a}, n={n}")
    _check_order(n)
    return build_graph(n, _ring(range(a)) + _ring([0, *range(a, n)]))


def edge_glued_cycles(n: int, a: int) -> Graph:
    """Cycles of lengths a and n+2-a sharing exactly one edge.

    The shared edge is (0, 1); the first cycle runs on 0..a-1 and the second
    on 0, 1, a, ..., n-1.  Requires 4 <= a <= n-2 so that both cycles are
    genuine and the union is not a single cycle.
    """
    if not 4 <= a <= n - 2:
        raise ValueError(f"need 4 <= a <= n-2, got a={a}, n={n}")
    _check_order(n)
    return build_graph(n, _ring(range(a)) + _ring([0, 1, *range(a, n)]))


# ---------------------------------------------------------------------------
# chains of cycles sharing cut vertices


def cycle_chain(lengths: Sequence[int]) -> Graph:
    """Chain of cycles glued at single shared vertices.

    Block i is a cycle of length ``lengths[i]``; consecutive blocks share one
    vertex, and within each block the two shared vertices (entry and exit)
    sit at distance floor(length/2) — opposite each other when the length is
    even.  Labels grow along the chain: the entry of the first block is 0 and
    each block's fresh vertices take the next free labels in breadth-first
    order from its entry, exit last.
    """
    if not lengths:
        raise ValueError("need at least one cycle length")
    if any(l < 3 for l in lengths):
        raise ValueError("every cycle length must be at least 3")
    edges: list[tuple[int, int]] = []
    entry = 0
    nxt = 1
    for length in lengths:
        s = length // 2
        fresh = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        exit_v = fresh[-1]
        short_arm = [entry] + fresh[0 : 2 * (s - 1) : 2] + [exit_v]
        long_arm = [entry] + fresh[1 : 2 * (s - 1) : 2]
        if length % 2:
            long_arm.append(fresh[-2] if length > 3 else fresh[0])
        long_arm.append(exit_v)
        edges += _ring(short_arm + long_arm[-2:0:-1])
        entry = exit_v
    return build_graph(nxt, edges)


# ---------------------------------------------------------------------------
# sparse diameter-2 families


def friendship(k: int) -> Graph:
    """k triangles sharing one hub vertex (n = 2k+1, m = 3k), k >= 1."""
    if k < 1:
        raise ValueError("friendship graph needs k >= 1")
    _check_order(2 * k + 1)
    return build_graph(
        2 * k + 1, [e for i in range(k) for e in _ring((0, 2 * i + 1, 2 * i + 2))])


def sparse_diameter_two(n: int) -> Graph:
    """Minimum-size diameter-2 graph with all degrees even.

    Odd n >= 3: the friendship graph, with 3(n-1)/2 edges.  Even n >= 10: a
    triangle {0,1,2}, a star center 3 joined to every outer vertex 4..n-1,
    and each outer vertex joined to one triangle vertex (two outer vertices
    to 0, two to 1, the rest to 2), with 2n-5 edges.  Other n are outside
    the proved range and rejected.
    """
    _check_order(n)
    if n >= 3 and n % 2 == 1:
        return friendship((n - 1) // 2)
    if n >= 10 and n % 2 == 0:
        edges = [(0, 1), (0, 2), (1, 2)]
        for leaf in range(4, n):
            edges.append((3, leaf))
        edges += [(0, 4), (0, 5), (1, 6), (1, 7)]
        edges += [(2, leaf) for leaf in range(8, n)]
        return build_graph(n, edges)
    raise ValueError(f"no supported construction at n={n}")


# ---------------------------------------------------------------------------
# runner-up catalog

#: cycle-length profiles of the chains that beat (or tie) the one-point
#: union of a triangle and an (n-2)-cycle for second-largest Wiener index
RUNNER_UP_CHAINS: dict[int, tuple[tuple[int, ...], ...]] = {
    7: ((4, 4),),
    8: ((3, 4, 3),),
    9: ((4, 4, 3),),
    10: ((4, 4, 4),),
    11: ((3, 4, 4, 3),),
    13: ((4, 4, 4, 4),),
}

RUNNER_UP_ORDERS: tuple[int, ...] = tuple(sorted(RUNNER_UP_CHAINS))


def runner_up_catalog(n: int) -> tuple[Graph, ...]:
    """Exceptional second-place graphs at order n.

    These are the orders where a chain of small cycles achieves the
    second-largest Wiener index among order-n graphs that are connected with
    all degrees even, rather than the vertex-glued triangle-plus-cycle.
    Raises ValueError for orders with no exceptional graph.
    """
    try:
        profiles = RUNNER_UP_CHAINS[n]
    except KeyError:
        raise ValueError(f"no exceptional second-place graphs at n={n}") from None
    return tuple(cycle_chain(p) for p in profiles)


# ---------------------------------------------------------------------------
# registry for the command line

FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., object]]] = {
    "cycle": (("n",), cycle),
    "path": (("n",), path),
    "complete": (("n",), complete),
    "cocktail-party": (("n",), cocktail_party),
    "vertex-glued-cycles": (("n", "a"), vertex_glued_cycles),
    "edge-glued-cycles": (("n", "a"), edge_glued_cycles),
    "friendship": (("n",), friendship),  # --n is k, the number of triangles
    "sparse-diameter-two": (("n",), sparse_diameter_two),
    "runner-up": (("n",), runner_up_catalog),
}
