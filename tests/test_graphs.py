"""Core graph type: construction, distances, predicates, blocks, graph6."""
import itertools
import math
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from wienerlab.families import (
    complete,
    cycle,
    edge_glued_cycles,
    path,
    runner_up_catalog,
    vertex_glued_cycles,
)
from wienerlab import graphs
from wienerlab.formulas import wiener_cycle
from wienerlab.graphs import (
    bfs_distances,
    block_decomposition,
    bridges,
    build_graph,
    cut_vertices,
    diameter,
    from_adjacency_masks,
    G6_HEADER,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_eulerian,
    is_even_graph,
    is_two_connected,
    is_two_edge_connected,
    relabel,
    sigma_set,
    sigma_vertex,
    wiener,
)
from wienerlab.verify import census_columns, connected_census


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def graphs_st(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# construction


def test_build_graph_collapses_duplicate_edges():
    g = build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.m == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_build_graph_rejects_loops_and_bad_indices():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])


def test_edge_order_is_normalized():
    g = build_graph(3, [(2, 0), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2)]
    assert g.rows == (0b110, 0b001, 0b001)


def test_graph_repr_hash_and_fields_are_fixed():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert repr(g) == "Graph(n=3, rows=(6, 5, 3))"
    assert hash(g) == hash((3, (6, 5, 3)))
    assert g == build_graph(3, [(2, 1), (0, 2), (1, 0)])
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        g.rows = (0, 0, 0)


def test_rows_over_several_limbs_against_networkx():
    """Order 150: the rows are ints well past 64 bits."""
    rng = random.Random(5)
    g = random_connected(rng, 150, 40)
    h = to_nx(g)
    assert max(r.bit_length() for r in g.rows) == 150
    assert g.m == h.number_of_edges()
    assert is_connected(g) and wiener(g) == nx.wiener_index(h)
    split = build_graph(150, [e for e in g.edges() if 149 not in e])
    assert not is_connected(split) and not nx.is_connected(to_nx(split))
    text = graph6_encode(g)
    assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
    assert graph6_decode(text) == g
    perm = list(range(150))
    rng.shuffle(perm)
    moved = nx.relabel_nodes(h, dict(enumerate(perm)))
    assert relabel(g, perm).edges() == sorted(tuple(sorted(e)) for e in moved.edges())


@given(graphs_st(max_n=12).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.n)))))
def test_relabel_matches_the_per_edge_sum(graph):
    """The row table of relabel against the former formula: row perm[u] is
    the sum of 1 << perm[v] over the neighbours v of u."""
    g, perm = graph
    rows = [0] * g.n
    for u, row in enumerate(g.rows):
        rows[perm[u]] = sum(1 << perm[v] for v in range(g.n) if row >> v & 1)
    assert relabel(g, perm).rows == tuple(rows)


def test_relabel_rejects_a_non_permutation():
    g = cycle(4)
    for perm in ([0, 1, 2], [0, 1, 2, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="perm is not a permutation of the vertex set"):
            relabel(g, perm)


def test_relabel_roundtrip():
    g = vertex_glued_cycles(8, 3)
    perm = [3, 1, 4, 0, 5, 2, 7, 6]
    inv = [perm.index(i) for i in range(8)]
    assert relabel(relabel(g, perm), inv) == g


def test_adjacency_masks_match_edges():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    rows = g.rows
    assert from_adjacency_masks(5, list(rows)) == g
    assert rows[1] == (1 << 0) | (1 << 2)


# ---------------------------------------------------------------------------
# distances


def test_wiener_values_against_networkx():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = build_graph(n, edges)
        if not is_connected(g):
            continue
        assert float(wiener(g)) == nx.wiener_index(to_nx(g))


def test_wiener_raises_on_disconnected():
    with pytest.raises(ValueError):
        wiener(build_graph(3, [(0, 1)]))


def test_diameter_values():
    assert diameter(cycle(8)) == 4
    assert diameter(complete(5)) == 1
    assert diameter(build_graph(1, [])) == 0
    assert diameter(build_graph(2, [])) is None


def random_connected(rng, n, extra):
    """A random spanning tree on n vertices plus `extra` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    edges.update(rng.sample(pairs, min(extra, len(pairs))))
    return build_graph(n, edges)


def kernel_cases():
    rng = random.Random(11)
    for n in (3, 5, 17, 60, 61):
        yield path(n)
        yield cycle(n)
    for _ in range(60):
        n = rng.randint(2, 60)
        yield random_connected(rng, n, rng.choice([0, 0, 1, 2, n // 4, n]))


def test_wiener_and_diameter_match_networkx_on_sparse_connected_graphs():
    for g in kernel_cases():
        h = to_nx(g)
        assert wiener(g) == nx.wiener_index(h)
        assert diameter(g) == nx.diameter(h)


@pytest.mark.parametrize("n,edges,w,d", [
    (1, [], 0, 0),
    (2, [(0, 1)], 1, 1),
])
def test_wiener_and_diameter_on_orders_one_and_two(n, edges, w, d):
    g = build_graph(n, edges)
    assert (wiener(g), diameter(g)) == (w, d)


def test_wiener_and_diameter_on_empty_graph():
    g = build_graph(0, [])
    with pytest.raises(ValueError, match="graph is empty"):
        wiener(g)
    assert diameter(g) is None


@pytest.mark.parametrize("n,edges", [
    (2, []),
    (3, [(0, 1)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    (61, [(v, v + 1) for v in range(59)]),  # a long path and an isolated vertex
])
def test_wiener_and_diameter_on_disconnected_graphs(n, edges):
    g = build_graph(n, edges)
    with pytest.raises(ValueError, match="graph is disconnected"):
        wiener(g)
    assert diameter(g) is None


def shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@pytest.fixture
def dfs_runs(monkeypatch):
    """Records each call of graphs._dfs_positions, which the ball kernel makes
    when it drops the labels for a DFS preorder."""
    runs = []
    dfs_positions = graphs._dfs_positions

    def spy(rows):
        runs.append(len(rows))
        return dfs_positions(rows)

    monkeypatch.setattr(graphs, "_dfs_positions", spy)
    return runs


def relabeling_cases():
    rng = random.Random(23)
    for n in (60, 300):
        yield cycle(n)
        yield path(n)
        yield vertex_glued_cycles(n, n // 3)
        yield edge_glued_cycles(n, n // 4)
    for _ in range(6):
        n = rng.randint(2, 60)
        yield random_connected(rng, n, rng.choice([0, 2, n // 4, n]))


def test_wiener_and_diameter_do_not_depend_on_the_labels(dfs_runs):
    """The ball kernel's positions are the labels or a DFS preorder; a
    shuffled copy of a family graph must give the same values, and both must
    match networkx.  C_60 keeps its labels and a shuffled C_60 does not."""
    wiener(cycle(60))
    assert dfs_runs == []
    wiener(shuffled(cycle(60), 0))
    assert dfs_runs == [60]
    for seed, g in enumerate(relabeling_cases()):
        dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        w = sum(map(sum, (row.values() for row in dist.values()))) // 2
        d = max(max(row.values()) for row in dist.values())
        for h in (g, shuffled(g, seed)):
            assert (wiener(h), diameter(h)) == (w, d), (g.n, g.m, seed)


@pytest.mark.parametrize("g", [
    shuffled(build_graph(60, [(v, (v + 1) % 30 + v // 30 * 30) for v in range(60)]), 1),
    shuffled(build_graph(61, [(v, v + 1) for v in range(59)]), 2),
])
def test_shuffled_disconnected_graphs_are_disconnected(g, dfs_runs):
    with pytest.raises(ValueError, match="graph is disconnected"):
        wiener(g)
    assert diameter(g) is None
    assert dfs_runs == [g.n, g.n]


def test_shuffled_long_cycles_stay_fast():
    """Budget 1.5 s: W and the diameter of a shuffled C_600 and a shuffled
    vertex-glued pair of 300- and 301-cycles took 0.11 s in all, and 6.3 s
    with the labels as positions (about 600 edge offsets per level step)."""
    graphs = [shuffled(cycle(600), 3), shuffled(vertex_glued_cycles(600, 300), 4)]
    t0 = time.perf_counter()
    values = [(wiener(g), diameter(g)) for g in graphs]
    elapsed = time.perf_counter() - t0
    assert values == [(27_000_000, 300), (20_306_175, 300)]
    assert elapsed < 1.5, f"took {elapsed:.2f} s"


def test_wiener_planes_across_powers_of_two():
    """W reads bit i of each distance from the XOR of the levels d (from 1)
    with 2**i | d, complemented when floor(L / 2**i) is odd.  P_n streams n
    levels and C_n floor(n / 2) + 1, so these counts cross every power of two
    up to 64, where a plane is added and the parities of floor(L / 2**i)
    change."""
    for n in range(1, 71):
        assert (wiener(path(n)), diameter(path(n))) == (math.comb(n + 1, 3), n - 1)
    for n in range(3, 71):
        assert (wiener(cycle(n)), diameter(cycle(n))) == (wiener_cycle(n), n // 2)


@pytest.mark.parametrize("k", range(7))
def test_disconnected_graph_with_a_power_of_two_levels(k):
    """A path on 2**k vertices and an isolated vertex: the stream yields the
    path's 2**k levels and stops at the first that does not grow, just as
    the last plane opens; W must still see the level that is not full."""
    a = 2 ** k
    g = build_graph(a + 1, [(v, v + 1) for v in range(a - 1)])
    assert sum(1 for _ in graphs._balls(g)) == a
    with pytest.raises(ValueError, match="graph is disconnected"):
        wiener(g)
    assert diameter(g) is None


def packed_balls(g):
    """The kernel's levels built from per-source BFS with the labels as
    positions: bit p*n + q of level d is set iff d(p, q) <= d.  The list ends
    at the largest finite distance, as the kernel's stream does."""
    n = g.n
    rows = [bfs_distances(g, p) for p in range(n)]
    top = max(d for row in rows for d in row if d is not None)
    return [sum(1 << p * n + q for p, row in enumerate(rows)
                for q, t in enumerate(row) if t is not None and t <= d)
            for d in range(top + 1)]


def test_ball_levels_match_bfs_when_positions_are_labels():
    """Every level of _balls against packed_balls, which shares no code with
    the kernel's set-up, on graphs whose labels are their own DFS preorder, so
    the kernel's positions are the labels whichever rule it takes: cycles and
    paths labeled in order, two disjoint cycles, and glued cycle pairs
    relabeled by their DFS preorder (a vertex-glued pair's labels give 4
    offsets, more than m - n + 2 = 3)."""
    cases = [cycle(n) for n in (3, 4, 7, 16, 33, 60)]
    cases += [path(n) for n in (1, 2, 5, 32, 61)]
    cases.append(build_graph(60, [(v, (v + 1) % 30 + v // 30 * 30) for v in range(60)]))
    for n, a in ((7, 4), (12, 4), (40, 13), (61, 30)):
        for g in (vertex_glued_cycles(n, a), edge_glued_cycles(n, a)):
            cases.append(relabel(g, graphs._dfs_positions(g.rows)))
    for g in cases:
        assert graphs._dfs_positions(g.rows) == list(range(g.n))
        assert list(graphs._balls(g)) == packed_balls(g), (g.n, g.m)


def test_the_kernel_builds_no_relabeled_graph(dfs_runs, monkeypatch):
    """With DFS positions the kernel moves the rows itself: wiener and
    diameter of a shuffled C_60 take the DFS path and never call relabel."""
    g = shuffled(cycle(60), 0)
    relabels = []
    monkeypatch.setattr(graphs, "relabel", lambda *args: relabels.append(args) or relabel(*args))
    assert (wiener(g), diameter(g)) == (wiener_cycle(60), 30)
    assert dfs_runs == [60, 60]
    assert relabels == []


@pytest.mark.parametrize("n", range(1, 8))
def test_census_columns_match_bfs_rows_and_sigma_set(n):
    """Every column of the census pass against per-source BFS and sigma_set,
    with the connectivity flags from networkx."""
    census, cols = connected_census(n), census_columns(n)
    for i, g6 in enumerate(census):
        g = graph6_decode(g6)
        h = to_nx(g)
        rows = [bfs_distances(g, v) for v in range(n)]
        sums = [sum(row) for row in rows]
        biconnected = n >= 3 and nx.is_biconnected(h)
        pair = max(sigma_set(g, a) for a in itertools.combinations(range(n), 2)) \
            if biconnected else 0
        expected = (g.m, sum(sums) // 2, max(map(max, rows)), max(sums), pair,
                    biconnected, not nx.has_bridges(h))
        assert tuple(col[i] for col in cols) == expected, g6


@given(graphs_st(max_n=9), st.data())
def test_bfs_distances_match_networkx(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    theirs = nx.single_source_shortest_path_length(to_nx(g), source)
    assert bfs_distances(g, source) == [theirs.get(v) for v in range(g.n)]


@given(graphs_st(max_n=9), st.data())
def test_sigma_set_matches_brute_force_on_any_graph(g, data):
    """Multi-vertex sources; ValueError when some vertex cannot reach the set."""
    a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    near = [min((dist[y][v] for v in a if v in dist[y]), default=None) for y in range(g.n)]
    if None in near:
        with pytest.raises(ValueError, match="disconnected"):
            sigma_set(g, a)
    else:
        assert sigma_set(g, a) == sum(near)


@given(graphs_st())
def test_metric_axioms(g):
    """BFS distances form a metric on each connected component."""
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for u in range(g.n):
        assert dist[u][u] == 0
        for v in range(g.n):
            assert dist[u][v] == dist[v][u]
            if dist[u][v] is not None:
                for w in range(g.n):
                    if dist[u][w] is not None and dist[w][v] is not None:
                        assert dist[u][v] <= dist[u][w] + dist[w][v]


# ---------------------------------------------------------------------------
# distance sums over sets


def test_sigma_set_cycle6_pairs():
    c6 = cycle(6)
    assert sigma_set(c6, {0, 1}) == 6
    assert sigma_set(c6, {0, 3}) == 4  # antipodal pair covers the cycle fastest
    assert sigma_set(c6, {0}) == sigma_vertex(c6, 0) == 9


def test_sigma_set_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, [e for e in pairs if rng.random() < 0.6])
        if not is_connected(g):
            continue
        dist = [bfs_distances(g, v) for v in range(n)]
        for size in (1, 2, 3):
            if size > n:
                continue
            vs = set(rng.sample(range(n), size))
            expected = sum(
                min(dist[v][y] for v in vs) for y in range(n) if y not in vs
            )
            assert sigma_set(g, vs) == expected


def test_sigma_set_errors():
    g = cycle(5)
    with pytest.raises(ValueError):
        sigma_set(g, set())
    with pytest.raises(ValueError):
        sigma_set(g, {0, 5})
    with pytest.raises(ValueError):
        sigma_set(build_graph(3, [(0, 1)]), {0})


@pytest.mark.parametrize("f", [sigma_vertex, bfs_distances])
@pytest.mark.parametrize("v", [5, -1])
def test_a_vertex_outside_the_graph_is_a_value_error(f, v):
    """As sigma_set rejects a set with a vertex outside the graph (it was an
    IndexError for v = n and a negative shift count for v = -1)."""
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        f(cycle(5), v)


# ---------------------------------------------------------------------------
# predicates


def test_predicates_against_networkx():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, [e for e in pairs if rng.random() < 0.4])
        h = to_nx(g)
        assert is_connected(g) == nx.is_connected(h)
        assert is_even_graph(g) == all(d % 2 == 0 for _, d in h.degree())
        if n >= 3:
            assert is_two_connected(g) == nx.is_biconnected(h)
        if is_connected(g) and n >= 2:
            assert is_two_edge_connected(g) == (nx.edge_connectivity(h) >= 2)


def test_two_connectivity_small_order_conventions():
    assert not is_two_connected(build_graph(1, []))
    assert not is_two_connected(build_graph(2, [(0, 1)]))
    assert is_two_edge_connected(build_graph(1, []))
    assert not is_two_edge_connected(build_graph(2, [(0, 1)]))


@pytest.mark.parametrize("n", range(4))
def test_two_edge_connected_complete_graphs_up_to_order_three(n):
    """K_0 is not connected and K_1 is connected without a bridge.  The
    networkx null graph has no connectivity answer, so n > 0 stands in."""
    g = build_graph(n, itertools.combinations(range(n), 2))
    h = to_nx(g)
    assert is_two_edge_connected(g) == (
        n > 0 and nx.is_connected(h) and not nx.has_bridges(h))


def test_eulerian_means_connected_and_even():
    assert is_eulerian(cycle(5))
    assert not is_eulerian(path(4))
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_even_graph(two_triangles) and not is_eulerian(two_triangles)


# ---------------------------------------------------------------------------
# blocks, cut vertices, bridges


def test_block_decomposition_glued_cycles():
    d = block_decomposition(vertex_glued_cycles(8, 3))
    assert d.blocks == (frozenset({0, 1, 2}), frozenset({0, 3, 4, 5, 6, 7}))
    assert d.cut_vertices == frozenset({0})
    assert d.endblock_flags == (True, True)
    assert len(d.end_blocks) == 2


def test_block_decomposition_cycle_and_chain():
    d = block_decomposition(cycle(9))
    assert len(d.blocks) == 1 and d.cut_vertices == frozenset()
    assert d.endblock_flags == (False,)
    chain = runner_up_catalog(13)[0]
    d = block_decomposition(chain)
    assert len(d.blocks) == 4
    assert len(d.cut_vertices) == 3
    assert sum(d.endblock_flags) == 2


def test_block_decomposition_requires_connected():
    with pytest.raises(ValueError):
        block_decomposition(build_graph(3, [(0, 1)]))


def test_blocks_and_cuts_against_networkx():
    """Cut vertices and bridges on connected and disconnected graphs of orders
    1..12, blocks on the connected ones."""
    rng = random.Random(37)
    connected = split_cuts = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.45))
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, [e for e in pairs if rng.random() < p])
        h = to_nx(g)
        assert cut_vertices(g) == set(nx.articulation_points(h))
        assert bridges(g) == sorted(tuple(sorted(e)) for e in nx.bridges(h))
        if not is_connected(g):
            split_cuts += bool(cut_vertices(g))
            continue
        mine = sorted(tuple(sorted(b)) for b in block_decomposition(g).blocks)
        if n == 1:  # networkx gives K_1 no block
            assert mine == [(0,)]
            continue
        connected += 1
        assert mine == sorted(tuple(sorted(b)) for b in nx.biconnected_components(h))
    assert connected >= 40 and split_cuts >= 40


def test_parts_split_each_component_at_its_vertex():
    """The _parts of v are disjoint, each holds a neighbour of v, together
    they are v's component minus v, and there are two or more exactly at the
    cut vertices.  Graphs of orders 1..12, connected or not, some with
    isolated vertices or K_2 components appended."""
    rng = random.Random(41)
    seen = {"connected": 0, "disconnected": 0, "isolated": 0, "k2": 0, "cut": 0}
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.choice((0.15, 0.3, 0.6))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        extra = rng.choice(("", "isolated", "k2"))
        if extra == "isolated":
            n += rng.randint(1, 2)
        elif extra == "k2":
            edges.append((n, n + 1))
            n += 2
        g = build_graph(n, edges)
        h = to_nx(g)
        cuts = set(nx.articulation_points(h))
        seen["connected" if nx.is_connected(h) else "disconnected"] += 1
        seen["isolated"] += any(d == 0 for _, d in h.degree())
        seen["k2"] += extra == "k2"
        seen["cut"] += bool(cuts)
        for v in range(n):
            parts = graphs._parts(g.rows, v)
            union = 0
            for part in parts:
                assert part & union == 0
                assert part & g.rows[v]
                union |= part
            assert union == sum(1 << u for u in nx.node_connected_component(h, v) - {v})
            assert (len(parts) >= 2) == (v in cuts)
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_encodings():
    assert graph6_encode(build_graph(1, [])) == "@"
    assert graph6_encode(build_graph(2, [(0, 1)])) == "A_"
    assert graph6_decode("A_").edges() == [(0, 1)]
    assert graph6_decode(">>graph6<<A_").m == 1


def test_graph6_matches_networkx_codec():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, [e for e in pairs if rng.random() < 0.5])
        mine = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine.encode())
        assert sorted(back.edges()) == list(g.edges())


def test_graph6_large_order_prefix():
    g = cycle(70)
    text = graph6_encode(g)
    assert text.startswith(chr(126))
    assert graph6_decode(text) == g


@given(graphs_st())
def test_graph6_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_rejects_malformed():
    for bad in ("", "A", "A_?", "\x1f", "~~"):
        with pytest.raises(ValueError):
            graph6_decode(bad)


@pytest.mark.parametrize("text", ["\x7f" + "?" * 336, "~??\x7f" + "?" * 336],
                         ids=["short-form", "long-form"])
def test_graph6_rejects_size_byte_127(text):
    with pytest.raises(ValueError, match="range"):
        nx.from_graph6_bytes(text.encode())
    with pytest.raises(ValueError, match="size byte"):
        graph6_decode(text)


_g6_bytes = st.text(st.characters(min_codepoint=58, max_codepoint=130), max_size=12)
_g6_like = st.one_of(
    st.builds(str.__add__, st.sampled_from([chr(c) for c in range(58, 131)]), _g6_bytes),
    st.builds(str.__add__, st.just("~"), _g6_bytes),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(),
    _g6_like,
    st.builds(str.__add__, st.just(G6_HEADER), st.one_of(st.text(), _g6_like)),
))
def test_graph6_decode_fuzz_raises_only_value_error(text):
    """Random text, the header, wrong body lengths and 4-byte sizes either
    decode to the graph networkx reads or raise ValueError."""
    try:
        g = graph6_decode(text)
    except ValueError:
        return
    theirs = nx.from_graph6_bytes(text.strip().encode())
    assert g.n == theirs.number_of_nodes()
    assert g.edges() == sorted(tuple(sorted(e)) for e in theirs.edges())
