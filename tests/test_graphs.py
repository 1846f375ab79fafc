"""Core graph type: construction, distances, predicates, blocks, graph6."""
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from wienerlab.families import cycle, complete, path, runner_up_catalog, vertex_glued_cycles
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
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 2)


def test_has_edge_outside_the_vertex_set_is_false():
    g = cycle(5)
    assert g.has_edge(0, 4)
    assert not g.has_edge(0, 5) and not g.has_edge(0, 99) and not g.has_edge(0, -1)


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
    1..12 (each vertex is tested inside its own component), blocks on the
    connected ones."""
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
