"""Core graph type and exact distance computations.

Small simple undirected graphs on vertex set {0, ..., n-1}, stored as an
immutable tuple of int adjacency bitmasks, one row per vertex: the form the
enumerator and the canonical labeler work on, so no conversion sits between
them and the graphs they emit.  All quantities (distances, Wiener index,
remoteness sums) are exact integers; nothing here touches floating point.
W, the diameter and the census columns of verify read one all-sources kernel
that grows the distance ball of every vertex by one radius per level;
bfs_distances, sigma_* and is_connected read one frontier BFS from a vertex
set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]

G6_HEADER = ">>graph6<<"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``rows[v]`` is the adjacency bitmask of vertex ``v``: bit ``u`` is set
    iff u ~ v.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(int.bit_count, self.rows)) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[Edge]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and (self.rows[u] >> v) & 1 == 1


def build_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Construct a Graph, validating the edge list.

    Repeated edges collapse silently; out-of-range endpoints and loops are
    rejected with a ValueError.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def from_adjacency_masks(n: int, rows: Sequence[int]) -> Graph:
    """The Graph whose first n adjacency rows are ``rows``."""
    return Graph(n, tuple(rows[:n]))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under the vertex relabeling ``v -> perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    rows = [0] * g.n
    for u, row in enumerate(g.rows):
        rows[perm[u]] = sum(1 << perm[v] for v in _bits(row))
    return Graph(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# distances


def _layers(rows: Sequence[int], sources: int) -> Iterator[int]:
    """Frontiers of one BFS on bitmask rows: the vertex set ``sources`` first,
    then each set of vertices first reached one step further."""
    seen = frontier = sources
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier


def _distance_sum(g: Graph, sources: int, what: str) -> int:
    """Sum over all vertices of the distance to the vertex set ``sources``;
    ValueError, naming ``what``, when some vertex cannot reach it."""
    total = reached = 0
    for d, layer in enumerate(_layers(g.rows, sources)):
        size = layer.bit_count()
        total += d * size
        reached += size
    if reached != g.n:
        raise ValueError(f"{what} undefined: graph is disconnected")
    return total


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Distances from ``source``; None marks unreachable vertices."""
    dist: list[Optional[int]] = [None] * g.n
    for d, layer in enumerate(_layers(g.rows, 1 << source)):
        for v in _bits(layer):
            dist[v] = d
    return dist


def _balls(g: Graph) -> Iterator[list[int]]:
    """Levels of the ball kernel, each a new list: B_0[s] = 1 << s, B_{d+1}[s] =
    B_d[s] | OR of B_d[v] over v ~ s; sigma(s) = sum over d of n - |B_d[s]|.  Full
    balls are not grown again.  A connected graph yields diameter + 1 levels,
    the last one full; on a disconnected one the last level repeats the one before."""
    full = (1 << g.n) - 1
    nbrs = [list(_bits(row)) for row in g.rows]
    balls = [1 << s for s in range(g.n)]
    growing = [s for s in range(g.n) if balls[s] != full]
    yield balls
    while growing:
        prev, balls = balls, balls[:]
        for s in growing:
            b = prev[s]
            for v in nbrs[s]:
                b |= prev[v]
            balls[s] = b
        yield balls
        growing = [s for s in growing if prev[s] != balls[s] != full]


def diameter(g: Graph) -> Optional[int]:
    """Largest eccentricity, or None when the graph is empty or disconnected."""
    if g.n == 0:
        return None
    for d, balls in enumerate(_balls(g)):
        pass
    return d if balls.count((1 << g.n) - 1) == g.n else None


def is_connected(g: Graph) -> bool:
    return g.n > 0 and None not in bfs_distances(g, 0)


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs; ValueError if empty or disconnected."""
    if g.n == 0:
        raise ValueError("wiener index undefined: graph is empty")
    total = missing = 0
    for balls in _balls(g):
        missing = g.n * g.n - sum(map(int.bit_count, balls))
        total += missing
    if missing:  # the last level is full unless some vertex is unreachable
        raise ValueError("wiener index undefined: graph is disconnected")
    return total // 2


def sigma_vertex(g: Graph, v: int) -> int:
    """Total distance from ``v`` to all other vertices (transmission of v)."""
    return _distance_sum(g, 1 << v, "total distance")


def sigma_set(g: Graph, vertices: Iterable[int]) -> int:
    """Sum over y outside the set of the distance from y to the set.

    The distance from y to a vertex set A is min over a in A of d(y, a),
    computed here by one multi-source BFS.  Raises ValueError if the set is
    empty or some outside vertex cannot reach it.
    """
    a = set(vertices)
    if not a:
        raise ValueError("vertex set must be nonempty")
    if not a <= set(range(g.n)):
        raise ValueError("vertex set out of range")
    return _distance_sum(g, sum(1 << v for v in a), "distance to set")


# ---------------------------------------------------------------------------
# structure: parity, bridges, cut vertices, blocks


def is_even_graph(g: Graph) -> bool:
    """True when every vertex has even degree (connectivity not required)."""
    return not any(row.bit_count() & 1 for row in g.rows)


def is_eulerian(g: Graph) -> bool:
    """Connected with all degrees even (admits a closed Euler tour)."""
    return is_connected(g) and is_even_graph(g)


def _dfs_lowpoints(g: Graph) -> tuple[list[int], list[Edge], list[frozenset[int]]]:
    """Iterative DFS computing cut vertices, bridges, and blocks.

    Returns (cut_vertices, bridges, blocks).  Blocks are the vertex sets of
    the biconnected components; an isolated vertex forms its own block.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cuts: set[int] = set()
    bridges: list[Edge] = []
    blocks: list[frozenset[int]] = []
    estack: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        if not g.rows[root]:
            blocks.append(frozenset({root}))
            disc[root] = timer
            timer += 1
            continue
        root_children = 0
        stack: list[tuple[int, Iterator[int]]] = [(root, _bits(g.rows[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent[u]:
                    continue
                if disc[v] == -1:
                    parent[v] = u
                    estack.append((u, v))
                    if u == root:
                        root_children += 1
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, _bits(g.rows[v])))
                    advanced = True
                    break
                elif disc[v] < disc[u]:
                    # back edge
                    estack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    # p separates u's subtree: pop one block off the edge stack
                    members: set[int] = set()
                    while estack:
                        a, b = estack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (p, u):
                            break
                    blocks.append(frozenset(members))
                    if len(members) == 2:
                        bridges.append((min(members), max(members)))
                    if p != root:
                        cuts.add(p)
        if root_children > 1:
            cuts.add(root)
    return (sorted(cuts), sorted(bridges), blocks)


def cut_vertices(g: Graph) -> frozenset[int]:
    return frozenset(_dfs_lowpoints(g)[0])


def bridges(g: Graph) -> list[Edge]:
    return _dfs_lowpoints(g)[1]


def is_two_edge_connected(g: Graph) -> bool:
    """Connected and bridgeless.  K_1 counts as 2-edge-connected."""
    if g.n == 1:
        return True
    return is_connected(g) and not _dfs_lowpoints(g)[1]


def is_two_connected(g: Graph) -> bool:
    """At least 3 vertices, connected, and free of cut vertices."""
    if g.n < 3:
        return False
    cuts, _, _ = _dfs_lowpoints(g)
    return is_connected(g) and not cuts


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected pieces, plus bridges) with cut vertices.

    ``endblock_flags[i]`` is True when ``blocks[i]`` contains exactly one cut
    vertex; a connected graph on >= 3 vertices that is not 2-connected has at
    least two such blocks.
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    endblock_flags: tuple[bool, ...]

    @property
    def end_blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(
            b for b, f in zip(self.blocks, self.endblock_flags) if f
        )


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected decomposition of a connected graph; raises otherwise."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    cuts, _, blocks = _dfs_lowpoints(g)
    ordered = tuple(sorted(blocks, key=lambda b: sorted(b)))
    cutset = frozenset(cuts)
    flags = tuple(len(b & cutset) == 1 for b in ordered)
    return BlockDecomposition(ordered, cutset, flags)


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_size_bytes(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    raise ValueError("vertex count too large for this codec")


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 format (printable ASCII, no trailing newline)."""
    # bit i of acc is bit i of the upper triangle, column by column: the
    # entries u < v of row v, lowest u first
    acc = nbits = 0
    for v in range(1, g.n):
        acc |= (g.rows[v] & (1 << v) - 1) << nbits
        nbits += v
    # a sentinel bit above the top keeps the leading zeros through format
    bits = format(acc | 1 << nbits, "b")[:0:-1] + "0" * (-nbits % 6)
    body = bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return (_g6_size_bytes(g.n) + body).decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with the format header)."""
    s = text.strip()
    if s.startswith(G6_HEADER):
        s = s[len(G6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported graph6 size prefix")
        size, body = data[1:4], data[4:]
    else:
        size, body = data[:1], data[1:]
    n = 0
    for ch in size:
        if not 63 <= ch <= 126:
            raise ValueError(f"bad graph6 size byte {ch}")
        n = (n << 6) | (ch - 63)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    for ch in body:
        if not 63 <= ch <= 126:
            raise ValueError(f"graph6 byte {ch} out of range")
    bits = "".join(format(ch - 63, "06b") for ch in body)
    rows = [0] * n
    for v in range(1, n):
        below = int(bits[v * (v - 1) // 2 : v * (v + 1) // 2][::-1], 2)
        rows[v] |= below
        for u in _bits(below):
            rows[u] |= 1 << v
    return Graph(n, tuple(rows))
