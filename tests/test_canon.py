"""Canonical forms, automorphism groups, and orbit computations."""
import hashlib
import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from wienerlab import canon
from wienerlab.canon import _orbit_roots, canon_rows, canonical_form
from wienerlab.families import (
    cocktail_party,
    complete,
    cycle,
    path,
    vertex_glued_cycles,
)
from wienerlab.generate import EnumFilter, enumerate_graphs
from wienerlab.graphs import build_graph, graph6_decode, graph6_encode, relabel


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
    """Placing g by canon_rows' order gives the graph canonical_form encodes;
    relabeling it by that order gives g back, and placing it again is a
    no-op."""
    g = vertex_glued_cycles(9, 4)
    pos = canon_rows(g.n, g.rows)[0]
    cg = canon._placed(g, pos)
    assert graph6_encode(cg) == canonical_form(g) == canonical_form(cg)
    assert relabel(cg, pos) == g
    assert canon._placed(cg, canon_rows(cg.n, cg.rows)[0]) == cg


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
def test_automorphism_group_orders(graph, order, group_order):
    assert group_order(graph) == order


def test_automorphism_group_order_brute_force(group_order):
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 5)
        g = random_graph(rng, n)
        count = sum(
            1
            for perm in itertools.permutations(range(n))
            if relabel(g, list(perm)) == g
        )
        assert group_order(g) == count


def test_generators_are_automorphisms():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        for gen in canon_rows(g.n, g.rows)[1]:
            assert relabel(g, list(gen)) == g


def automorphism_orbits(g):
    """Vertex orbits sorted by minimum, read from the orbit roots of the
    generators, as the enumerator's acceptance test reads them."""
    roots = _orbit_roots(g.n, canon_rows(g.n, g.rows)[1])
    return sorted((frozenset(v for v in range(g.n) if roots[v] == r)
                   for r in set(roots)), key=min)


def test_orbits_of_symmetric_graphs():
    assert automorphism_orbits(cycle(7)) == [frozenset(range(7))]
    assert automorphism_orbits(petersen()) == [frozenset(range(10))]
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert automorphism_orbits(star) == [frozenset({0}), frozenset({1, 2, 3, 4})]


def test_orbit_sizes_divide_group_order(group_order):
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        size = group_order(g)
        for orbit in automorphism_orbits(g):
            assert size % len(orbit) == 0


def test_group_order_times_classes_counts_labelings(group_order):
    """Orbit-stabilizer: labeled copies of g number n!/|Aut(g)|."""
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        labeled = {relabel(g, list(p)) for p in itertools.permutations(range(n))}
        assert len(labeled) == math.factorial(n) // group_order(g)


def full_vector_refine(rows, cells):
    """Reference refinement, the labeler's former body: every pass splits
    each cell by its vertices' tuple of counts into all current cells and
    orders the fragments by that tuple."""
    while True:
        masks = [0] * len(cells)
        for i, c in enumerate(cells):
            m = 0
            for v in c:
                m |= 1 << v
            masks[i] = m
        out = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                rv = rows[v]
                sig = tuple((rv & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not changed:
            return out
        cells = out


@st.composite
def block_graphs(draw, lo=1, hi=12):
    """Rows of a graph whose vertices fall into a few blocks, each block and
    each pair of blocks complete, empty or random of some density, plus a
    few stray edges: large, nearly equitable cells with counts up to the
    order."""
    n = draw(st.integers(lo, hi))
    nblocks = draw(st.integers(1, min(n, 4)))
    block = [draw(st.integers(0, nblocks - 1)) for _ in range(n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = {(a, b): rng.choice([0.0, 1.0, rng.random()])
               for a in range(nblocks) for b in range(a, nblocks)}
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        p = density[min(block[u], block[v]), max(block[u], block[v])]
        if rng.random() < p or rng.random() < 0.02:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def individualizations(cells):
    """Every partition head + [[v], rest] + tail of ``cells``, with v."""
    for i, cell in enumerate(cells):
        if len(cell) > 1:
            for v in cell:
                rest = [w for w in cell if w != v]
                yield v, cells[:i] + [[v], rest] + cells[i + 1:]


@settings(max_examples=150, deadline=None)
@given(block_graphs())
def test_refine_matches_full_vector_reference_from_the_unit_partition(rows):
    unit = [list(range(len(rows)))]
    assert canon._refine(rows, unit) == full_vector_refine(rows, unit)


@settings(max_examples=150, deadline=None)
@given(block_graphs())
def test_refine_of_an_individualization_matches_full_vector_reference(rows):
    """Fresh cell [[v]] after splitting v off a cell of an equitable
    partition, two levels of individualization deep."""
    equitable = full_vector_refine(rows, [list(range(len(rows)))])
    for v, cells in individualizations(equitable):
        refined = full_vector_refine(rows, cells)
        assert canon._refine(rows, cells, [[v]]) == refined
        for w, deeper in itertools.islice(individualizations(refined), 4):
            assert canon._refine(rows, deeper, [[w]]) == full_vector_refine(rows, deeper)


@settings(max_examples=60, deadline=None)
@given(block_graphs(17, 40), st.data())
def test_refine_matches_reference_with_counts_above_fifteen(rows, data):
    """Orders 17..40, where counts into a cell need more than four bits: the
    unit partition, an individualization of its refinement, and an arbitrary
    ordered partition refined against all of its cells."""
    n = len(rows)
    unit = [list(range(n))]
    equitable = full_vector_refine(rows, unit)
    assert canon._refine(rows, unit) == equitable
    splits = list(individualizations(equitable))
    if splits:
        v, cells = data.draw(st.sampled_from(splits))
        assert canon._refine(rows, cells, [[v]]) == full_vector_refine(rows, cells)
    k = data.draw(st.integers(1, 4))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    cells = [c for c in ([v for v in range(n) if labels[v] == i] for i in range(k)) if c]
    assert canon._refine(rows, cells) == full_vector_refine(rows, cells)


def test_refine_orders_counts_wider_than_four_bits():
    """x meets cells A, B in 18, 17 vertices and y in 19, 0, so x's fragment
    comes first; packed four bits per count, x's key would read 305 and
    y's 304."""
    a, b = list(range(19)), list(range(19, 36))
    x, y = 36, 37
    rows = [0] * 38
    for u, nbrs in ((x, a[:18] + b), (y, a)):
        for v in nbrs:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    cells = [a, b, [x, y]]
    refined = canon._refine(rows, cells)
    assert refined == full_vector_refine(rows, cells)
    assert refined.index([x]) < refined.index([y])


# sha256 over the census, in sorted graph6 order, of the canon_rows
# positions of each class, one space-separated line per class; "reversed"
# first relabels each class v -> n - 1 - v
POSITIONS_SHA256 = {
    (False, 7, "canonical"): "af6a77a486f9bc7bb572b8673a9d4b155646b94fe5b54cedc22e4fbbc34b1851",
    (False, 7, "reversed"): "aa9ba2406f2f1681e2cd8cb6e03c1ef4450a66317460c82e53c2ad0c510e6dd2",
    (True, 8, "canonical"): "8d26fe01bb6265324c51fa2bfc987e53ab274da73f6638d02f2fb9c4c75b56fa",
    (True, 8, "reversed"): "77f7d49f705108dfaa97d12abf0a6ba8e9045b82350ec342c8a321df5d0c2b74",
}


@pytest.mark.parametrize("even,n,labels", sorted(POSITIONS_SHA256))
def test_canon_rows_positions_are_pinned(even, n, labels):
    """The positions, not only the canonical graph, pick the enumerator's
    deletion vertex and so which shard each class lands in."""
    census = sorted(graph6_encode(g) for g in enumerate_graphs(
        EnumFilter(order=n, require_even_degrees=even)))
    h = hashlib.sha256()
    for g6 in census:
        g = graph6_decode(g6)
        if labels == "reversed":
            g = relabel(g, list(range(n))[::-1])
        h.update((" ".join(map(str, canon_rows(g.n, g.rows)[0])) + "\n").encode())
    assert h.hexdigest() == POSITIONS_SHA256[even, n, labels]
