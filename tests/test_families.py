"""Constructed graph families: shapes, invariants, and frozen catalogs."""
import networkx as nx
import pytest

from wienerlab.canon import canonical_form
from wienerlab.families import (
    FAMILIES,
    RUNNER_UP_ORDERS,
    cocktail_party,
    complete,
    cycle,
    cycle_chain,
    edge_glued_cycles,
    friendship,
    path,
    runner_up_catalog,
    sparse_diameter_two,
    vertex_glued_cycles,
)
from wienerlab.formulas import min_size_diameter_two
from wienerlab.graphs import (
    G6_MAX_ORDER,
    block_decomposition,
    cut_vertices,
    diameter,
    is_eulerian,
    is_two_connected,
    wiener,
)


def _as_nx(g):
    if isinstance(g, nx.Graph):
        return g
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def iso(g, h):
    return nx.is_isomorphic(_as_nx(g), _as_nx(h))


def test_basic_families_match_networkx_generators():
    assert iso(cycle(8), nx.cycle_graph(8))
    assert iso(path(6), nx.path_graph(6))
    assert iso(complete(5), nx.complete_graph(5))
    assert iso(friendship(3), nx.windmill_graph(3, 3))


def test_family_preconditions():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        cocktail_party(5)
    with pytest.raises(ValueError):
        cocktail_party(2)
    with pytest.raises(ValueError):
        vertex_glued_cycles(7, 2)
    with pytest.raises(ValueError):
        vertex_glued_cycles(7, 6)
    with pytest.raises(ValueError):
        edge_glued_cycles(7, 3)  # edge-glued split starts at 4
    with pytest.raises(ValueError):
        edge_glued_cycles(7, 6)
    with pytest.raises(ValueError):
        sparse_diameter_two(8)  # even orders start at 10
    with pytest.raises(ValueError):
        runner_up_catalog(12)


def test_families_reject_orders_graph6_cannot_encode():
    """Each registered family raises at once for an order above
    G6_MAX_ORDER; friendship(n) has order 2n + 1, and the runner-up catalog
    has no entry that large."""
    too_big = G6_MAX_ORDER + 1
    values = {"n": too_big, "a": 4}
    for name, (params, fn) in FAMILIES.items():
        with pytest.raises(ValueError, match="graph6|no exceptional"):
            fn(*(values[p] for p in params))


def test_cocktail_party_small_cases():
    assert iso(cocktail_party(4), cycle(4))
    assert wiener(cocktail_party(6)) == 18
    assert wiener(cocktail_party(8)) == 32
    g = cocktail_party(10)
    assert all(row.bit_count() == 8 for row in g.rows)
    assert is_eulerian(g)


@pytest.mark.parametrize("n", range(5, 41))
def test_vertex_glued_postconditions(n):
    for a in range(3, n - 1):
        g = vertex_glued_cycles(n, a)
        assert g.n == n and g.m == n + 1
        assert is_eulerian(g)
        cuts = cut_vertices(g)
        assert len(cuts) == 1
        (c,) = cuts
        assert g.rows[c].bit_count() == 4
        blocks = block_decomposition(g).blocks
        assert sorted(len(b) for b in blocks) == sorted([a, n + 1 - a])


@pytest.mark.parametrize("n", range(6, 41))
def test_edge_glued_postconditions(n):
    for a in range(4, n - 1):
        g = edge_glued_cycles(n, a)
        assert g.n == n and g.m == n + 1
        assert is_two_connected(g)
        degs = sorted(row.bit_count() for row in g.rows)
        assert degs == [2] * (n - 2) + [3, 3]
        assert not is_eulerian(g)


def test_glued_family_symmetries():
    for n in (9, 12, 15):
        for a in range(3, n - 1):
            assert canonical_form(vertex_glued_cycles(n, a)) == canonical_form(
                vertex_glued_cycles(n, n + 1 - a)
            )
        for a in range(4, n - 1):
            assert canonical_form(edge_glued_cycles(n, a)) == canonical_form(
                edge_glued_cycles(n, n + 2 - a)
            )


# Frozen edge lists for the exceptional second-place graphs: chains of small
# cycles glued at cut vertices, entered and left at antipodal ring positions.
CATALOG_EDGES = {
    7: [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
    8: [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (5, 7),
        (6, 7)],
    9: [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7),
        (6, 8), (7, 8)],
    10: [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7),
         (6, 8), (7, 9), (8, 9)],
    11: [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (5, 7),
         (6, 8), (7, 8), (8, 9), (8, 10), (9, 10)],
    13: [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7),
         (6, 8), (7, 9), (8, 9), (9, 10), (9, 11), (10, 12), (11, 12)],
}

CATALOG_WIENER = {7: 40, 8: 58, 9: 83, 10: 114, 11: 150, 13: 248}

CATALOG_BLOCKS = {7: 2, 8: 3, 9: 3, 10: 3, 11: 4, 13: 4}


def test_runner_up_orders():
    assert RUNNER_UP_ORDERS == (7, 8, 9, 10, 11, 13)


@pytest.mark.parametrize("n", sorted(CATALOG_EDGES))
def test_runner_up_catalog_frozen(n):
    catalog = runner_up_catalog(n)
    assert len(catalog) == 1
    g = catalog[0]
    assert g.edges() == CATALOG_EDGES[n]
    assert wiener(g) == CATALOG_WIENER[n]
    assert is_eulerian(g)
    d = block_decomposition(g)
    assert len(d.blocks) == CATALOG_BLOCKS[n]
    assert sum(d.endblock_flags) == 2
    assert not iso(g, cycle(n))
    assert not iso(g, vertex_glued_cycles(n, 3))


def test_catalog_seven_is_two_glued_four_cycles():
    assert canonical_form(runner_up_catalog(7)[0]) == canonical_form(
        vertex_glued_cycles(7, 4)
    )


def test_cycle_chain_entry_exit_antipodal():
    """Each ring contributes floor(len/2) to the distance across the chain."""
    for lengths in [(4, 4), (3, 4, 3), (4, 4, 4), (5, 6, 3), (3, 3, 3, 3)]:
        g = cycle_chain(lengths)
        expected_span = sum(L // 2 for L in lengths)
        assert diameter(g) >= expected_span
        d = block_decomposition(g)
        assert sorted(len(b) for b in d.blocks) == sorted(lengths)
        assert len(d.cut_vertices) == len(lengths) - 1


def test_cycle_chain_degenerate_cases():
    assert canonical_form(cycle_chain((5,))) == canonical_form(cycle(5))
    with pytest.raises(ValueError):
        cycle_chain(())
    with pytest.raises(ValueError):
        cycle_chain((2, 4))


def test_sparse_diameter_two_odd_orders():
    for n in range(3, 22, 2):
        g = sparse_diameter_two(n)
        assert g.n == n
        assert is_eulerian(g)
        assert diameter(g) <= 2
        assert canonical_form(g) == canonical_form(friendship((n - 1) // 2))
        if n >= 9:
            assert g.m == min_size_diameter_two(n) == 3 * (n - 1) // 2


def test_sparse_diameter_two_even_orders():
    for n in range(10, 21, 2):
        g = sparse_diameter_two(n)
        assert g.n == n
        assert is_eulerian(g)
        assert diameter(g) == 2
        assert g.m == min_size_diameter_two(n) == 2 * n - 5


def test_complete_minus_matching_is_cocktail_party():
    g = cocktail_party(8)
    assert g.m == 8 * 7 // 2 - 4
    for v in range(8):
        assert not g.rows[v] >> (v ^ 1) & 1
