"""Isomorph-free enumeration: counts, dedup, filters, shards, ranking."""
import hashlib
import math
from itertools import combinations

import pytest

from wienerlab import generate
from wienerlab.canon import automorphism_group_order, canonical_form
from wienerlab.families import cocktail_party, cycle, vertex_glued_cycles
from wienerlab.generate import (
    EnumFilter,
    EnumPartition,
    MAX_ORDER,
    count_graphs,
    enumerate_graphs,
    extremal_scan,
)
from wienerlab.graphs import (
    build_graph,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_even_graph,
    wiener,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
EULERIAN_COUNTS = {3: 1, 4: 1, 5: 4, 6: 8, 7: 37, 8: 184}

# sha256 of the newline-joined sorted graph6 lines of a whole census
CENSUS_SHA256 = {
    ("eulerian", 8): "f95766176dd0f4bac5757ff0ae5a0437b7d73a7d4e39ef228b33d2c679f0c0b5",
    ("eulerian", 9): "9894624bdc5a668cc96d4a70a1b488be7fdee9265179374933c7a3db62dcbc7d",
    ("eulerian", 10): "ad2b6532c4ffed827258e59e5557befec4cdbd874fa28cc7277a9b16cdcffc5e",
    ("connected", 7): "d8d2dc06ce96c6a4d2e4a53d8d1f975b269b0f11122ad7cf58df39ea3d146431",
}


def labeled_even_classes(n):
    """Oracle: canonical forms of every even graph on labeled vertex set [n].

    Even subgraphs of K_n form the cycle space; spanning it by the triangles
    {0i, 0j, ij} walks all 2^C(n-1,2) labeled even graphs exactly once.
    """
    base = []
    for i in range(1, n):
        for j in range(i + 1, n):
            base.append(frozenset([(0, i), (0, j), (i, j)]))
    forms = set()
    for mask in range(1 << len(base)):
        edges = set()
        rest, idx = mask, 0
        while rest:
            if rest & 1:
                edges ^= base[idx]
            rest >>= 1
            idx += 1
        forms.add(canonical_form(build_graph(n, sorted(edges))))
    return forms


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    assert count_graphs(EnumFilter(order=n, require_even_degrees=False)) == count


@pytest.mark.parametrize("n,count", sorted(EULERIAN_COUNTS.items()))
def test_eulerian_counts(n, count):
    assert count_graphs(EnumFilter(order=n)) == count


def test_emitted_graphs_are_canonical_and_distinct():
    for n in range(1, 8):
        for even in (False, True):
            if even and n < 3:
                continue
            graphs = list(enumerate_graphs(EnumFilter(order=n, require_even_degrees=even)))
            forms = [graph6_encode(g) for g in graphs]
            assert len(set(forms)) == len(forms)
            for g in graphs:
                assert is_connected(g)
                if even:
                    assert is_even_graph(g)
                assert canonical_form(g) == graph6_encode(g)


def test_labeled_count_identity():
    """Orbit counting: the classes must account for every labeled graph."""
    labeled_connected = {4: 38, 5: 728, 6: 26704}
    for n, want in labeled_connected.items():
        total = sum(
            math.factorial(n) // automorphism_group_order(g)
            for g in enumerate_graphs(EnumFilter(order=n, require_even_degrees=False))
        )
        assert total == want


@pytest.mark.parametrize("n", range(4, 7))
def test_even_classes_match_cycle_space_oracle(n):
    mine = {graph6_encode(g) for g in enumerate_graphs(EnumFilter(order=n))}
    oracle = {f for f in labeled_even_classes(n) if is_connected(graph6_decode(f))}
    assert mine == oracle


def test_shard_union_equals_full_run():
    for n in (6, 7):
        full = sorted(
            graph6_encode(g) for g in enumerate_graphs(EnumFilter(order=n))
        )
        for total in (3, 8):
            merged = []
            for index in range(total):
                part = EnumPartition(total_shards=total, shard_index=index)
                merged.extend(
                    graph6_encode(g)
                    for g in enumerate_graphs(EnumFilter(order=n), part)
                )
            assert sorted(merged) == full


def test_shards_are_disjoint():
    seen = set()
    for index in range(4):
        part = EnumPartition(total_shards=4, shard_index=index)
        for g in enumerate_graphs(EnumFilter(order=7), part):
            form = graph6_encode(g)
            assert form not in seen
            seen.add(form)


def test_every_shard_count_partitions_the_run():
    """For K = 1..9 the K shards are disjoint and their union is the
    unsharded run, also when K exceeds the split-level nodes and some
    shards come out empty."""
    empty = 0
    for even, orders in ((True, range(1, 9)), (False, range(1, 8))):
        for n in orders:
            filt = EnumFilter(order=n, require_even_degrees=even)
            full = sorted(graph6_encode(g) for g in enumerate_graphs(filt))
            for total in range(1, 10):
                merged = []
                for index in range(total):
                    part = EnumPartition(total_shards=total, shard_index=index)
                    lines = [graph6_encode(g) for g in enumerate_graphs(filt, part)]
                    empty += not lines
                    merged.extend(lines)
                assert len(merged) == len(set(merged)), (even, n, total)
                assert sorted(merged) == full, (even, n, total)
    assert empty > 0


def digest(lines):
    return len(lines), hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def census_digest(filt, partitions=(None,)):
    return digest([
        graph6_encode(g) for part in partitions for g in enumerate_graphs(filt, part)
    ])


@pytest.fixture
def canon_calls(monkeypatch):
    """Counts the generator's calls of canon_rows."""
    calls = [0]
    original = generate.canon_rows

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(generate, "canon_rows", counting)
    return calls


def shards(total):
    return [EnumPartition(total_shards=total, shard_index=i) for i in range(total)]


@pytest.mark.parametrize("kind,n,count", [
    ("eulerian", 8, 184),
    ("connected", 7, 853),
])
def test_census_contents_are_pinned(kind, n, count):
    filt = EnumFilter(order=n, require_even_degrees=kind == "eulerian")
    assert census_digest(filt) == (count, CENSUS_SHA256[kind, n])
    assert census_digest(filt, shards(8)) == (count, CENSUS_SHA256[kind, n])


def test_order_eight_canon_calls_unsharded_and_over_shards(canon_calls):
    """Pre-canon rejection keeps the labeler off most children, and shards
    do not each rebuild the whole tree."""
    census_digest(EnumFilter(order=8))
    unsharded = canon_calls[0]
    assert unsharded <= 700
    canon_calls[0] = 0
    census_digest(EnumFilter(order=8), shards(8))
    assert canon_calls[0] <= 2 * unsharded


def test_order_nine_census_contents_and_canon_calls(canon_calls):
    assert census_digest(EnumFilter(order=9)) == (1782, CENSUS_SHA256["eulerian", 9])
    assert canon_calls[0] <= 7000


def test_order_eight_key_tests_are_not_repeated_for_the_forced_child(monkeypatch):
    """The forced child is key-tested once, by the lookahead that builds it,
    and canonized at that level: 3,423 key tests at order 8, where testing
    it again one level down made 3,647."""
    calls = [0]
    original = generate._key_rivals

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(generate, "_key_rivals", counting)
    assert census_digest(EnumFilter(order=8)) == (184, CENSUS_SHA256["eulerian", 8])
    assert calls[0] <= 3_423


def test_order_two_has_no_even_class():
    assert list(enumerate_graphs(EnumFilter(order=2))) == []
    assert [graph6_encode(g) for g in enumerate_graphs(
        EnumFilter(order=2, require_even_degrees=False))] == ["A_"]


def test_order_ten_census_contents(census10):
    assert digest([g6 for _, _, g6 in census10]) == (31026, CENSUS_SHA256["eulerian", 10])


@pytest.fixture(scope="module")
def order_eight_by_size():
    by_size = {}
    for g in enumerate_graphs(EnumFilter(order=8)):
        by_size.setdefault(g.m, []).append(graph6_encode(g))
    return by_size


@pytest.mark.parametrize("m", range(8, 29))
def test_size_filter_selects_exactly_the_census_of_that_size(order_eight_by_size, m):
    """The size ceiling and the forced-child lookahead prune the same levels;
    together they must keep every class of size m, unsharded and sharded."""
    filt = EnumFilter(order=8, size_range=(m, m))
    want = sorted(order_eight_by_size.get(m, []))
    assert sorted(graph6_encode(g) for g in enumerate_graphs(filt)) == want
    assert sorted(
        graph6_encode(g) for part in shards(8) for g in enumerate_graphs(filt, part)
    ) == want


@pytest.mark.parametrize("m,count,calls", [(10, 3, 92), (12, 32, 456), (14, 87, 1177)])
def test_order_nine_size_filter_prunes_forced_children_above_the_ceiling(
        census9, canon_calls, m, count, calls):
    """The forced-child lookahead drops a node whose forced child already has
    more than m edges, before it is labeled."""
    filt = EnumFilter(order=9, size_range=(m, m))
    got = sorted(graph6_encode(g) for g in enumerate_graphs(filt))
    assert got == sorted(g6 for _, size, g6 in census9 if size == m)
    assert len(got) == count
    assert canon_calls[0] <= calls


def test_size_filter():
    filt = EnumFilter(order=7, size_range=(8, 9))
    graphs = list(enumerate_graphs(filt))
    assert graphs and all(8 <= g.m <= 9 for g in graphs)
    unfiltered = [
        g for g in enumerate_graphs(EnumFilter(order=7)) if 8 <= g.m <= 9
    ]
    assert len(graphs) == len(unfiltered)


def test_determinism():
    first = [graph6_encode(g) for g in enumerate_graphs(EnumFilter(order=7))]
    second = [graph6_encode(g) for g in enumerate_graphs(EnumFilter(order=7))]
    assert first == second


def test_filter_validation():
    with pytest.raises(ValueError):
        EnumFilter(order=0).validate()
    with pytest.raises(ValueError):
        EnumFilter(order=MAX_ORDER + 1).validate()
    with pytest.raises(ValueError):
        EnumFilter(order=5, size_range=(4, 20)).validate()
    with pytest.raises(ValueError):
        EnumFilter(order=5, size_range=(6, 5)).validate()
    with pytest.raises(ValueError):
        EnumPartition(total_shards=4, shard_index=4).validate()
    with pytest.raises(ValueError):
        next(enumerate_graphs(EnumFilter(order=13)))


def test_extremal_scan_max():
    values = extremal_scan(EnumFilter(order=8), "max_wiener", 2)
    assert values[0] == (64, canonical_form(cycle(8)))
    ties = [g6 for w, g6 in values if w == 58]
    assert len(ties) == 2
    assert canonical_form(vertex_glued_cycles(8, 3)) in ties
    assert ties == sorted(ties)


def test_extremal_scan_min():
    assert extremal_scan(EnumFilter(order=8), "min_wiener", 1) == [
        (32, canonical_form(cocktail_party(8)))
    ]


def test_extremal_scan_keeps_all_attaining_graphs():
    entries = extremal_scan(EnumFilter(order=7), "max_wiener", 4)
    by_value = {}
    for w, g6 in entries:
        by_value.setdefault(w, []).append(g6)
    brute = {}
    for g in enumerate_graphs(EnumFilter(order=7)):
        brute.setdefault(wiener(g), []).append(graph6_encode(g))
    top4 = sorted(brute, reverse=True)[:4]
    assert sorted(by_value) == sorted(top4)
    for w in top4:
        assert sorted(brute[w]) == by_value[w]


def test_extremal_scan_argument_validation():
    with pytest.raises(ValueError):
        extremal_scan(EnumFilter(order=5), "median_wiener", 1)
    with pytest.raises(ValueError):
        extremal_scan(EnumFilter(order=5), "max_wiener", 0)
