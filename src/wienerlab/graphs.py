"""Core graph type and exact distance computations.

Small simple undirected graphs on vertex set {0, ..., n-1}, stored as an
immutable tuple of int adjacency bitmasks, one row per vertex: the form the
enumerator and the canonical labeler work on, so no conversion sits between
them and the graphs they emit.  All quantities (distances, Wiener index,
remoteness sums) are exact integers; nothing here touches floating point.
W, the diameter and the census columns of verify read one all-sources kernel
that packs the distance balls of all vertices into one int and grows them all
by one radius per level with a few shifts per edge offset, and W reads the
binary digits of all distances from a few XOR planes of those levels;
bfs_distances, sigma_* and is_connected read one frontier BFS from a vertex
set.  Cut vertices, bridges and blocks, and the enumerator's key test, read
one split of G - v, _parts, at one bitmask reachability (_reach) per part.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]

G6_HEADER = ">>graph6<<"
G6_MAX_ORDER = 258047  # the largest order a graph6 size prefix encodes


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

    def edges(self) -> list[Edge]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]


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
    return Graph(g.n, tuple(_moved_rows(g.rows, perm)))


def _moved_rows(rows: Sequence[int], perm: Sequence[int]) -> list[int]:
    """The adjacency rows after the relabeling ``v -> perm[v]``."""
    image = [1 << p for p in perm]
    moved = [0] * len(rows)
    for u, row in enumerate(rows):
        mapped = 0
        while row:
            b = row & -row
            row ^= b
            mapped |= image[b.bit_length() - 1]
        moved[perm[u]] = mapped
    return moved


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
    if not 0 <= source < g.n:
        raise ValueError(f"vertex {source} out of range")
    dist: list[Optional[int]] = [None] * g.n
    for d, layer in enumerate(_layers(g.rows, 1 << source)):
        for v in _bits(layer):
            dist[v] = d
    return dist


@lru_cache(maxsize=1)
def _grid(n: int) -> tuple[int, int]:
    """The n*n-bit ints with bits p*n (the block starts) and p*(n + 1) (the
    diagonal) set for every p < n, built by doubling in O(n*n) bits.  Cached
    for the last order asked, since a census asks for one order many times."""
    starts = diagonal = have = 1
    while have < n:
        starts |= starts << have * n
        diagonal |= diagonal << have * (n + 1)
        have *= 2
    full = (1 << n * n) - 1
    return starts & full, diagonal & full


def _uppers(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """ups[p], row p shifted down by p, whose bit k says that p ~ p + k; and
    the running ORs of ups from the last position down, so that entry i is
    the set of offsets of the edges whose lower end is at least n - 1 - i."""
    ups = [row >> p for p, row in enumerate(rows)]
    return ups, list(accumulate(reversed(ups), or_))


def _offset_masks(ups: list[int], tails: list[int]) -> list[tuple[int, int]]:
    """(k*n, M_k) for each edge offset k, where M_k fills the n-bit blocks lo
    of the edges that join positions lo and lo + k.  The rows ups are merged
    pairwise into ever wider packs, blocks[0] holding the first ``span`` rows
    at bits p*n .. p*n + n - 1, O(n*n) bits per round.  An offset is read as
    soon as that pack holds all its lower ends: shifted down by k and cut to
    the block starts, the pack gives the blocks lo, and (at << n) - at fills
    them.  So each M_k takes a few operations on fewer than 2*(hi + 1)*n
    bits, hi its highest lower end, and no step works per edge."""
    n = len(ups)
    starts = _grid(n)[0]
    shifts = []
    offsets, blocks, span = tails[-1], ups, 1
    while True:
        later = tails[n - 1 - span] if span < n else 0
        for k in _bits(offsets & ~later):
            at = blocks[0] >> k & starts
            shifts.append((k * n, (at << n) - at))
        offsets &= later
        if not offsets:
            return shifts
        pairs = iter(blocks)
        blocks = [lo | hi << span * n for lo, hi in zip_longest(pairs, pairs, fillvalue=0)]
        span *= 2


def _dfs_positions(rows: Sequence[int]) -> list[int]:
    """Each vertex's index in a DFS preorder that takes the lowest unseen
    neighbour first and enters each component at its lowest vertex."""
    unseen = (1 << len(rows)) - 1
    pos = [0] * len(rows)
    path: list[int] = []
    while unseen:
        nxt = rows[path[-1]] & unseen if path else unseen
        if not nxt:
            path.pop()
            continue
        b = nxt & -nxt
        unseen ^= b
        v = b.bit_length() - 1
        pos[v] = len(rows) - unseen.bit_count() - 1
        path.append(v)
    return pos


def _balls(g: Graph) -> Iterator[int]:
    """Levels of the all-sources ball kernel, each packed into one int: bits
    p*n .. p*n + n - 1 of level d hold B_d of the vertex at position p, the set
    of positions within distance d of it.  Level 0 is the diagonal, and
    B_{d+1}[s] = B_d[s] | OR of B_d[v] over v ~ s, so one step moves whole
    blocks: for each distinct edge offset k, block lo takes in block lo + k and
    block lo + k takes in block lo, where M_k marks the blocks lo of the edges
    that join lo and lo + k.  Positions are the labels, unless the labels give
    more offsets than the cycle rank plus one (m - n + 2); then they are a DFS
    preorder, where a tree edge has offset 1 unless the search backtracked
    before it.  The set-up counts the offsets on n-bit rows, moves the rows to
    the DFS positions when it takes them (no Graph is built), builds each M_k
    once and the diagonal by doubling.  A step costs n*n bits of work per
    offset, so the kernel is fast only on graphs with few offsets, such as
    glued cycles; a hub graph has about n under any positions.  The stream
    stops at the first full level, or, on a disconnected graph, at the first
    level that does not grow, so it ends full iff g is connected, after
    diameter + 1 levels."""
    n = g.n
    ups, tails = _uppers(g.rows)
    if tails[-1].bit_count() > g.m - n + 2:
        ups, tails = _uppers(_moved_rows(g.rows, _dfs_positions(g.rows)))
    shifts = _offset_masks(ups, tails)
    full = (1 << n * n) - 1
    level = _grid(n)[1]
    yield level
    while level != full:
        grown = level
        for shift, mask in shifts:
            grown |= level >> shift & mask | (level & mask) << shift
        if grown == level:
            return
        level = grown
        yield level


def diameter(g: Graph) -> Optional[int]:
    """Largest eccentricity, or None when the graph is empty or disconnected."""
    if g.n == 0:
        return None
    for d, level in enumerate(_balls(g)):
        pass
    return d if level == (1 << g.n * g.n) - 1 else None


def is_connected(g: Graph) -> bool:
    return g.n > 0 and None not in bfs_distances(g, 0)


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs; ValueError if empty or
    disconnected.  Number the L levels of _balls from d = 1.  A pair at
    distance t is missing from levels 1 .. t, and floor(t / 2**i) of those
    are multiples of 2**i, so bit i of t is the parity of that count.  Plane
    i, the XOR of the levels d with 2**i | d, complemented when
    floor(L / 2**i) is odd, therefore holds bit i of every distance, and
    2W = sum of popcount(plane i) << i.  Level d is XORed into the planes
    0 .. tz(d), two on average, so the sum takes floor(log2 L) + 1 popcounts
    and keeps as many n*n-bit planes."""
    if g.n == 0:
        raise ValueError("wiener index undefined: graph is empty")
    planes = [0]
    for d, level in enumerate(_balls(g), 1):
        planes[0] ^= level
        i = 0
        while not d >> i & 1:  # 2**(i + 1) divides d
            i += 1
            if i == len(planes):
                planes.append(0)
            planes[i] ^= level
    full = (1 << g.n * g.n) - 1
    if level != full:  # the last level is full unless some vertex is unreachable
        raise ValueError("wiener index undefined: graph is disconnected")
    return sum((plane ^ full if d >> i & 1 else plane).bit_count() << i
               for i, plane in enumerate(planes)) // 2


def sigma_vertex(g: Graph, v: int) -> int:
    """Total distance from ``v`` to all other vertices (transmission of v)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
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
# structure: parity; cut vertices, bridges and blocks by bitmask reachability


def is_even_graph(g: Graph) -> bool:
    """True when every vertex has even degree (connectivity not required)."""
    return not any(row.bit_count() & 1 for row in g.rows)


def is_eulerian(g: Graph) -> bool:
    """Connected with all degrees even (admits a closed Euler tour)."""
    return is_connected(g) and is_even_graph(g)


def _reach(rows: Sequence[int], seed: int, allowed: int) -> int:
    """Vertices reachable from the vertex set ``seed & allowed`` by paths that
    stay inside the vertex set ``allowed``, as a bitmask."""
    seen = frontier = seed & allowed
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            reach |= rows[b.bit_length() - 1]
            frontier ^= b
        frontier = reach & allowed & ~seen
        seen |= frontier
    return seen


def _parts(rows: Sequence[int], v: int) -> list[int]:
    """The components of G - v that hold a neighbour of v, one _reach each,
    seeded at the lowest neighbour that no part holds yet.  v is a cut vertex
    iff it has two or more parts; vw is a bridge iff the part that holds w
    holds no other neighbour of v."""
    parts = []
    left = rows[v]
    while left:
        part = _reach(rows, left & -left, ~(1 << v))
        parts.append(part)
        left &= ~part
    return parts


def _is_cut(v: int, rows: Sequence[int]) -> bool:
    """True when v is a cut vertex: the first of its _parts misses a neighbour."""
    row = rows[v]
    return row & ~_reach(rows, row & -row, ~(1 << v)) != 0


def _cut_mask(rows: Sequence[int]) -> int:
    """Bitmask of the cut vertices."""
    return sum(1 << v for v in range(len(rows)) if _is_cut(v, rows))


def _bridges(rows: Sequence[int]) -> list[Edge]:
    """Sorted bridges uw, u < w: w is the only neighbour of u in its part of
    G - u.  Parts come in the order of their lowest neighbours, so the list
    comes out sorted."""
    return [(u, hold.bit_length() - 1) for u, row in enumerate(rows)
            for hold in (part & row for part in _parts(rows, u))
            if hold.bit_count() == 1 and hold > 1 << u]


def cut_vertices(g: Graph) -> frozenset[int]:
    return frozenset(_bits(_cut_mask(g.rows)))


def bridges(g: Graph) -> list[Edge]:
    return _bridges(g.rows)


def is_two_edge_connected(g: Graph) -> bool:
    """Connected and bridgeless, so K_1 counts as 2-edge-connected."""
    return is_connected(g) and not bridges(g)


def is_two_connected(g: Graph) -> bool:
    """At least 3 vertices, connected, and free of cut vertices."""
    return g.n >= 3 and is_connected(g) and not _cut_mask(g.rows)


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
    """Biconnected decomposition of a connected graph; raises otherwise.

    The block of an edge uv is the intersection, over the cut vertices c, of
    {c} and the part of G - c that meets {u, v} - {c}.  A block minus one
    vertex stays connected, so it lies in every such part; by the fan lemma
    a vertex outside it is cut off from it by one of its cut vertices.
    """
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    rows, full = g.rows, (1 << g.n) - 1
    cuts = {c: parts for c in range(g.n) if len(parts := _parts(rows, c)) > 1}
    blocks = [] if g.m else [full]  # K_1 is its own block
    for u, v in g.edges():
        uv = 1 << u | 1 << v
        if any(b & uv == uv for b in blocks):
            continue
        block = full
        for c, parts in cuts.items():
            block &= next(p for p in parts if p & uv) | 1 << c
        blocks.append(block)
    ordered = tuple(sorted((frozenset(_bits(b)) for b in blocks), key=sorted))
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
    if n <= G6_MAX_ORDER:
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
