"""Core graph type and exact distance computations.

Small simple undirected graphs on vertex set {0, ..., n-1}, stored as an
immutable tuple of neighbor sets.  All quantities (distances, Wiener index,
remoteness sums) are exact integers; nothing here touches floating point.
W, the diameter and the census columns of verify read one all-sources kernel
on int bitmasks, which grows the distance ball of every vertex by one radius
per level; bfs_distances and sigma_* serve single sources and vertex sets.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]

G6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``adj[v]`` is the frozenset of neighbors of vertex ``v``.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[Edge]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def adjacency_masks(self) -> list[int]:
        """Adjacency rows as bitmasks (bit v of row u set iff u~v)."""
        rows = []
        for u in range(self.n):
            row = 0
            for v in self.adj[u]:
                row |= 1 << v
            rows.append(row)
        return rows


def build_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Construct a Graph, validating the edge list.

    Repeated edges collapse silently; out-of-range endpoints and loops are
    rejected with a ValueError.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(a) for a in adj))


def from_adjacency_masks(n: int, rows: Sequence[int]) -> Graph:
    """Inverse of :meth:`Graph.adjacency_masks`."""
    adj = []
    for u in range(n):
        row = rows[u]
        nbrs = set()
        while row:
            b = row & -row
            nbrs.add(b.bit_length() - 1)
            row ^= b
        adj.append(frozenset(nbrs))
    return Graph(n, tuple(adj))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under the vertex relabeling ``v -> perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u in range(g.n):
        for v in g.adj[u]:
            adj[perm[u]].add(perm[v])
    return Graph(g.n, tuple(frozenset(a) for a in adj))


# ---------------------------------------------------------------------------
# distances


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Distances from ``source``; None marks unreachable vertices."""
    dist: list[Optional[int]] = [None] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in g.adj[u]:
            if dist[v] is None:
                dist[v] = du + 1  # type: ignore[operator]
                q.append(v)
    return dist


def _balls(g: Graph) -> Iterator[list[int]]:
    """Levels of the ball kernel, each a new list: B_0[s] = 1 << s, B_{d+1}[s] =
    B_d[s] | OR of B_d[v] over v ~ s; sigma(s) = sum over d of n - |B_d[s]|.  Full
    balls are not grown again.  A connected graph yields diameter + 1 levels,
    the last one full; on a disconnected one the last level repeats the one before."""
    full = (1 << g.n) - 1
    balls = [1 << s for s in range(g.n)]
    growing = [s for s in range(g.n) if balls[s] != full]
    yield balls
    while growing:
        prev, balls = balls, balls[:]
        for s in growing:
            b = prev[s]
            for v in g.adj[s]:
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
    if g.n == 0:
        return False
    return sum(1 for d in bfs_distances(g, 0) if d is not None) == g.n


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
    row = bfs_distances(g, v)
    if any(d is None for d in row):
        raise ValueError("total distance undefined: graph is disconnected")
    return sum(row)  # type: ignore[arg-type]


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
    dist: list[Optional[int]] = [None] * g.n
    q = deque()
    for v in a:
        dist[v] = 0
        q.append(v)
    while q:
        u = q.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if dist[w] is None:
                dist[w] = du + 1  # type: ignore[operator]
                q.append(w)
    total = 0
    for y in range(g.n):
        if y in a:
            continue
        d = dist[y]
        if d is None:
            raise ValueError("distance to set undefined: graph is disconnected")
        total += d
    return total


# ---------------------------------------------------------------------------
# structure: parity, bridges, cut vertices, blocks


def is_even_graph(g: Graph) -> bool:
    """True when every vertex has even degree (connectivity not required)."""
    return all(len(a) % 2 == 0 for a in g.adj)


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
        if not g.adj[root]:
            blocks.append(frozenset({root}))
            disc[root] = timer
            timer += 1
            continue
        root_children = 0
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(g.adj[root])))]
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
                    stack.append((v, iter(sorted(g.adj[v]))))
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
    bits: list[int] = []
    for v in range(1, g.n):
        av = g.adj[v]
        for u in range(v):
            bits.append(1 if u in av else 0)
    while len(bits) % 6:
        bits.append(0)
    out = bytearray(_g6_size_bytes(g.n))
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        out.append(word + 63)
    return out.decode("ascii")


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
    bits: list[int] = []
    for ch in body:
        w = ch - 63
        if not 0 <= w < 64:
            raise ValueError(f"graph6 byte {ch} out of range")
        bits.extend((w >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return build_graph(n, edges)
