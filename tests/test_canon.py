"""Canonical forms, automorphism groups, and orbit computations."""
import itertools
import math
import random

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from wienerlab.canon import (
    _orbit_roots,
    automorphism_generators,
    automorphism_group_order,
    canonical_form,
    canonical_graph,
    canonical_permutation,
)
from wienerlab.families import (
    cocktail_party,
    complete,
    cycle,
    path,
    vertex_glued_cycles,
)
from wienerlab.graphs import build_graph, graph6_decode, relabel


def random_graph(rng, n):
    pairs = list(itertools.combinations(range(n), 2))
    return build_graph(n, [e for e in pairs if rng.random() < 0.5])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        base = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == base


def test_canonical_graph_is_a_relabeling_fixture():
    g = vertex_glued_cycles(9, 4)
    cg = canonical_graph(g)
    assert canonical_form(cg) == canonical_form(g)
    perm = canonical_permutation(g)
    assert relabel(g, perm) == cg


def test_canonical_separation_on_atlas():
    """Pairwise non-isomorphic graphs (atlas) get pairwise distinct forms."""
    forms = {}
    for h in graph_atlas_g()[1:]:
        if h.number_of_nodes() > 6:
            break
        relabeled = nx.convert_node_labels_to_integers(h)
        g = build_graph(relabeled.number_of_nodes(), list(relabeled.edges()))
        form = canonical_form(g)
        assert form not in forms, (form, forms.get(form))
        forms[form] = g
    assert len(forms) == 208  # graphs on 1..6 vertices


def test_canonical_form_decodes_to_isomorphic_graph():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        back = graph6_decode(canonical_form(g))
        assert nx.is_isomorphic(
            nx.Graph(g.edges()) if g.m else nx.empty_graph(g.n),
            nx.Graph(back.edges()) if back.m else nx.empty_graph(back.n),
        )


@pytest.mark.parametrize(
    "graph,order",
    [
        (cycle(6), 12),
        (cycle(9), 18),
        (complete(4), 24),
        (complete(6), 720),
        (path(5), 2),
        (cocktail_party(6), 48),
        (petersen(), 120),
        (build_graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                         (2, 3), (2, 4), (2, 5)]), 72),  # K_{3,3}
        (build_graph(1, []), 1),
        (vertex_glued_cycles(7, 4), 8),
    ],
)
def test_automorphism_group_orders(graph, order):
    assert automorphism_group_order(graph) == order


def test_automorphism_group_order_brute_force():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 5)
        g = random_graph(rng, n)
        count = sum(
            1
            for perm in itertools.permutations(range(n))
            if relabel(g, list(perm)) == g
        )
        assert automorphism_group_order(g) == count


def test_generators_are_automorphisms():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        for gen in automorphism_generators(g):
            assert relabel(g, list(gen)) == g


def automorphism_orbits(g):
    """Vertex orbits sorted by minimum, read from the orbit roots of the
    generators, as the enumerator's acceptance test reads them."""
    roots = _orbit_roots(g.n, automorphism_generators(g))
    return sorted((frozenset(v for v in range(g.n) if roots[v] == r)
                   for r in set(roots)), key=min)


def test_orbits_of_symmetric_graphs():
    assert automorphism_orbits(cycle(7)) == [frozenset(range(7))]
    assert automorphism_orbits(petersen()) == [frozenset(range(10))]
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert automorphism_orbits(star) == [frozenset({0}), frozenset({1, 2, 3, 4})]


def test_orbit_sizes_divide_group_order():
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        size = automorphism_group_order(g)
        for orbit in automorphism_orbits(g):
            assert size % len(orbit) == 0


def test_group_order_times_classes_counts_labelings():
    """Orbit-stabilizer: labeled copies of g number n!/|Aut(g)|."""
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        labeled = {relabel(g, list(p)) for p in itertools.permutations(range(n))}
        assert len(labeled) == math.factorial(n) // automorphism_group_order(g)
