"""Canonical forms, automorphism groups, and orbit computations."""
import hashlib
import inspect
import itertools
import math
import random
import sys

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
    friendship,
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


def connected_labeled_counts(top, all_count):
    """c_1..c_top from the counts e_n of all labeled graphs of a kind closed
    under disjoint union, by the exponential recurrence
    c_n = e_n − Σ_{k<n} C(n−1, k−1) c_k e_{n−k} (the component of vertex 1
    has k vertices)."""
    c = [0]
    for n in range(1, top + 1):
        c.append(all_count(n) - sum(math.comb(n - 1, k - 1) * c[k] * all_count(n - k)
                                    for k in range(1, n)))
    return c


@pytest.mark.parametrize("even, orders, expected", [
    # labeled even graphs: 2^C(n−1, 2) (Read 1962); c_n is OEIS A033678
    (True, range(3, 10), [1, 3, 38, 720, 26_614, 1_858_122, 250_586_792]),
    # labeled graphs: 2^C(n, 2); c_n is OEIS A001187
    (False, range(1, 9), [1, 1, 4, 38, 728, 26_704, 1_866_256, 251_548_592]),
])
def test_classes_times_their_labelings_count_the_labeled_graphs(
        even, orders, expected, group_order):
    """Orbit counting: the classes of an order, each weighted by
    n!/|Aut G| from the generators canon_rows returns, sum to the number of
    labeled graphs of that kind.  A missing generator raises the sum, and
    one that is not an automorphism lowers it."""
    edges = (lambda n: math.comb(n - 1, 2)) if even else (lambda n: math.comb(n, 2))
    labeled = connected_labeled_counts(max(orders), lambda n: 2 ** edges(n))
    sums = [sum(math.factorial(n) // group_order(g)
                for g in enumerate_graphs(EnumFilter(order=n, require_even_degrees=even)))
            for n in orders]
    assert sums == [labeled[n] for n in orders] == expected


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


def masks(cells):
    """List cells as the labeler's bitmask cells."""
    return [sum(1 << v for v in c) for c in cells]


def mask_refine(rows, cells, fresh=None):
    """canon._refine on list cells: converts to bitmask cells and back."""
    refined = canon._refine(rows, masks(cells), None if fresh is None else masks(fresh))
    return [[v for v in range(len(rows)) if c >> v & 1] for c in refined]


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
    assert mask_refine(rows, unit) == full_vector_refine(rows, unit)


@settings(max_examples=150, deadline=None)
@given(block_graphs())
def test_refine_of_an_individualization_matches_full_vector_reference(rows):
    """Fresh cell [[v]] after splitting v off a cell of an equitable
    partition, two levels of individualization deep."""
    equitable = full_vector_refine(rows, [list(range(len(rows)))])
    for v, cells in individualizations(equitable):
        refined = full_vector_refine(rows, cells)
        assert mask_refine(rows, cells, [[v]]) == refined
        for w, deeper in itertools.islice(individualizations(refined), 4):
            assert mask_refine(rows, deeper, [[w]]) == full_vector_refine(rows, deeper)


@settings(max_examples=60, deadline=None)
@given(block_graphs(17, 40), st.data())
def test_refine_matches_reference_with_counts_above_fifteen(rows, data):
    """Orders 17..40, where counts into a cell need more than four bits: the
    unit partition, an individualization of its refinement, and an arbitrary
    ordered partition refined against all of its cells."""
    n = len(rows)
    unit = [list(range(n))]
    equitable = full_vector_refine(rows, unit)
    assert mask_refine(rows, unit) == equitable
    splits = list(individualizations(equitable))
    if splits:
        v, cells = data.draw(st.sampled_from(splits))
        assert mask_refine(rows, cells, [[v]]) == full_vector_refine(rows, cells)
    k = data.draw(st.integers(1, 4))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    cells = [c for c in ([v for v in range(n) if labels[v] == i] for i in range(k)) if c]
    assert mask_refine(rows, cells) == full_vector_refine(rows, cells)


def test_refine_orders_counts_wider_than_four_bits():
    """x meets cells A, B in 18, 17 vertices and y in 19, 0, so x's fragment
    comes first; counts of five bits and more (packed four bits per count,
    x's key would read 305 and y's 304)."""
    a, b = list(range(19)), list(range(19, 36))
    x, y = 36, 37
    rows = [0] * 38
    for u, nbrs in ((x, a[:18] + b), (y, a)):
        for v in nbrs:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    cells = [a, b, [x, y]]
    refined = mask_refine(rows, cells)
    assert refined == full_vector_refine(rows, cells)
    assert refined.index([x]) < refined.index([y])


def reference_leaf_bits(n, rows, pos):
    """The labeler's former leaf bitstring: the upper triangle read pair by
    pair, (0,1) first and most significant."""
    bits = 0
    for i in range(n):
        ri = rows[pos[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | ((ri >> pos[j]) & 1)
    return bits


def reference_orbits(n, perms):
    """Vertex orbits of the group generated by ``perms``, sorted by minimum."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for p in perms:
            for a in range(n):
                low = min(label[a], label[p[a]])
                if label[a] != low or label[p[a]] != low:
                    label[a] = label[p[a]] = low
                    changed = True
    return sorted((frozenset(v for v in range(n) if label[v] == r)
                   for r in set(label)), key=min)


def reference_search(n, rows):
    """The labeler's former search, as the oracle of the current one: list
    cells refined by the full-vector reference, every leaf compared with the
    first and the best leaf, no backjumping, and the stabilizer's orbits
    rebuilt for every sibling.  Returns (positions, generators)."""
    best_bits = best_pos = first_bits = first_pos = None
    gens = []

    def note_automorphism(p, q):
        gamma = [0] * n
        for i in range(n):
            gamma[p[i]] = q[i]
        t = tuple(gamma)
        if t != tuple(range(n)) and t not in gens:
            gens.append(t)

    def rec(cells, fixed):
        nonlocal best_bits, best_pos, first_bits, first_pos
        target, tsize = -1, n + 1
        for idx, c in enumerate(cells):
            if 1 < len(c) < tsize:
                target, tsize = idx, len(c)
        if target < 0:
            pos = [c[0] for c in cells]
            bits = reference_leaf_bits(n, rows, pos)
            if first_bits is None:
                first_bits, first_pos = bits, pos
            elif bits == first_bits:
                note_automorphism(pos, first_pos)
            if best_bits is None or bits < best_bits:
                best_bits, best_pos = bits, pos
            elif bits == best_bits and pos != best_pos:
                note_automorphism(pos, best_pos)
            return
        tcell = cells[target]
        tried = []
        for v in tcell:
            stab = [g for g in gens if all(g[x] == x for x in fixed)]
            orbits = reference_orbits(n, stab)
            if any(v in o and w in o for o in orbits for w in tried):
                continue
            tried.append(v)
            rest = [w for w in tcell if w != v]
            rec(full_vector_refine(rows, cells[:target] + [[v], rest] + cells[target + 1:]),
                fixed + [v])

    if n:
        rec(full_vector_refine(rows, [list(range(n))]), [])
        return tuple(best_pos), gens
    return (), []


def group_size(n, gens):
    """Order of the group generated by ``gens``, by closing it."""
    elems = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(e[x] for x in s) for e in frontier for s in gens} - elems
        elems = elems | frontier
    return len(elems)


def hypercube(d):
    return build_graph(1 << d, [(u, u | 1 << i) for u in range(1 << d)
                                for i in range(d) if not u >> i & 1])


def circulant(n, jumps):
    return build_graph(n, {(min(u, (u + j) % n), max(u, (u + j) % n))
                           for u in range(n) for j in jumps})


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


SYMMETRIC = [cycle(n) for n in range(3, 11)] + [complete(n) for n in range(1, 9)] + [
    complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 6)
] + [hypercube(3), hypercube(4), petersen(), cocktail_party(8)] + [
    circulant(n, jumps) for n, jumps in
    ((8, (1, 3)), (9, (1, 3)), (10, (1, 4)), (10, (2, 5)), (12, (1, 5)), (13, (1, 5)))
]


def check_against_reference(g, group_order):
    pos, gens = canon_rows(g.n, g.rows)
    want_pos, want_gens = reference_search(g.n, g.rows)
    assert pos == want_pos
    for gen in gens:
        assert relabel(g, list(gen)) == g
    assert reference_orbits(g.n, gens) == reference_orbits(g.n, want_gens)
    if g.n <= 8:
        assert group_order(g) == group_size(g.n, want_gens)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))))
def test_canon_rows_matches_the_reference_search_on_random_graphs(group_order, graph):
    """Positions, orbit partition and group order agree with the former
    search on random graphs of order up to 10."""
    n, coins = graph
    pairs = itertools.combinations(range(n), 2)
    check_against_reference(
        build_graph(n, [e for e, on in zip(pairs, coins) if on]), group_order)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SYMMETRIC).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.n)))))
def test_canon_rows_matches_the_reference_search_on_relabeled_symmetric_graphs(
        group_order, graph):
    """Cycles, complete and complete bipartite graphs, Q_3, Q_4, Petersen,
    a cocktail party graph and circulants, each under a random relabeling:
    the graphs where automorphism pruning and backjumping do the most."""
    g, perm = graph
    check_against_reference(relabel(g, perm), group_order)


def star(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def rigid_random_graphs(count, seed=53):
    """Random graphs of order 6..10 whose refined unit partition is discrete."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = random_graph(rng, rng.randint(6, 10))
        if len(canon._refine(g.rows, [(1 << g.n) - 1])) == g.n:
            found.append(g)
    return found


# (graph, whether its refined unit partition is discrete or holds only twins)
ROOT_DECIDED = (
    [(complete(n), True) for n in range(1, 8)]
    + [(complete_bipartite(a, b), a != b or a == 1)
       for a in range(1, 5) for b in range(a, 6)]
    + [(star(k), True) for k in range(1, 8)]
    + [(cocktail_party(n), False) for n in (4, 6, 8)]
    + [(g, True) for g in rigid_random_graphs(12)]
)


@pytest.mark.parametrize("index", range(len(ROOT_DECIDED)))
def test_root_partition_fast_paths_match_the_reference_search(
        monkeypatch, group_order, index):
    """A discrete or twins-only root partition returns before the search,
    under a random relabeling too, with the reference search's positions,
    orbits and group order.  K_{a,a} for a >= 2 and cocktail party graphs
    have one cell that is not all twins, so they go to the search."""
    g, decided = ROOT_DECIDED[index]
    cells = canon._refine(g.rows, [(1 << g.n) - 1])
    assert canon._all_twins(g.rows, cells) == decided
    if decided:
        def no_search(*args):
            raise AssertionError("the root partition decides; no search")
        monkeypatch.setattr(canon, "_search", no_search)
    perm = list(range(g.n))
    random.Random(index).shuffle(perm)
    for h in (g, relabel(g, perm)):
        check_against_reference(h, group_order)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """The first path of friendship(40) individualizes about 40 vertices.
    With the recursion limit 25 frames above the current stack, the search
    still returns the positions it finds at the normal limit."""
    g = friendship(40)
    want = canon_rows(g.n, g.rows)[0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        got = canon_rows(g.n, g.rows)[0]
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


@pytest.mark.parametrize("graph,most", [
    (petersen(), 4), (hypercube(4), 4), (cycle(9), 2), (cocktail_party(8), 7),
] + [(complete(n), n - 1) for n in (2, 5, 8)])
def test_pruning_keeps_the_generator_list_short(graph, most):
    """Backjumping and cells of twins: the former search found 10
    generators for Petersen and for Q_4, 3 for C_9, 10 for CP(8) and
    n(n - 1)/2 for K_n."""
    assert len(canon_rows(graph.n, graph.rows)[1]) <= most


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
