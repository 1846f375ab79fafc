"""Isomorph-free enumeration: counts, dedup, filters, shards, ranking."""
import functools
import hashlib
import multiprocessing
import os
import pickle
import random
import signal
import time
from collections import Counter
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from wienerlab import generate
from wienerlab.canon import _orbit_roots, canon_rows, canonical_form
from wienerlab.families import cocktail_party, cycle, vertex_glued_cycles
from wienerlab.generate import (
    EnumFilter,
    EnumPartition,
    MAX_ORDER,
    SHARDS,
    WorkerError,
    count_graphs,
    enumerate_graphs,
    extremal_scan,
    map_shards,
)
from wienerlab.graphs import (
    build_graph,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_even_graph,
    relabel,
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
    ("connected", 8): "55c41935f8ce378ecfe7676485bf0e9e7744f60c5bba9e1e1fa9a3ac0d87f4cf",
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


# per-shard class counts over 8 shards, and the sha256 of the lines
# "<shard> <graph6>\n" in shard order and, within a shard, in emission order
SHARD_EMISSION = {
    (True, 7, None): ((5, 5, 1, 5, 4, 5, 3, 9),
        "65b0fd43af1a25bd02cf09ef3e554bbd0d23886b00fa02ea63ad3ad65d3f1941"),
    (True, 8, None): ((21, 18, 3, 3, 1, 46, 5, 87),
        "e4dcb0f7d87f4310aab832e4631b4d85f78ab193d3f89937b1df3075325b2385"),
    (True, 9, None): ((67, 171, 113, 399, 159, 167, 285, 421),
        "dd5f5e82ebf52a3b98489e8feb5f1b3eedfb8fa2b5054c61904d259b101b12bb"),
    (False, 7, None): ((109, 108, 15, 43, 20, 212, 33, 313),
        "acd2170da6621174f4a04283ead393fcc966385782534bb7153311f0098bc2ce"),
    (False, 8, None): ((812, 603, 33, 260, 83, 2773, 189, 6364),
        "56bb261c300b93af0f1d721ab38533365b227c26d6f9479a33254921b5109143"),
    (True, 9, (10, 10)): ((0, 0, 0, 0, 0, 0, 3, 0),
        "0df07aa05d64c7cc21e8632a3e9b7a050e000b033238da67b881170a6fad008f"),
    (True, 9, (12, 12)): ((0, 2, 2, 16, 1, 1, 4, 6),
        "9a0a90050d5051576c612b0afed8649ee54436369eca57abfe89f988b048c493"),
    (True, 9, (14, 14)): ((43, 0, 0, 15, 26, 2, 0, 1),
        "1310da0b81852cbc280fc83cec5ed48483d2e70e51b1d829dbb4dbaf428dd105"),
    (False, 7, (9, 10)): ((21, 7, 0, 0, 0, 84, 5, 122),
        "c0dba1ea3046297fae6f85cd641aaf337559d590a06b247712e6f72750f322e5"),
}


@pytest.mark.parametrize("even,n,size_range", sorted(SHARD_EMISSION, key=str))
def test_each_shard_emits_its_pinned_classes_in_pinned_order(even, n, size_range):
    """Which shard emits a class, and in what order, follows from the tree
    walk alone; the sorted union tests above would not see it move."""
    filt = EnumFilter(order=n, require_even_degrees=even, size_range=size_range)
    counts, h = [], hashlib.sha256()
    for i, part in enumerate(shards(8)):
        lines = [graph6_encode(g) for g in enumerate_graphs(filt, part)]
        counts.append(len(lines))
        h.update("".join(f"{i} {g6}\n" for g6 in lines).encode())
    assert (tuple(counts), h.hexdigest()) == SHARD_EMISSION[even, n, size_range]


def test_order_eight_canon_calls_unsharded_and_over_shards(canon_calls):
    """Pre-canon rejection keeps the labeler off most children, a node of
    order n - 1 is not labeled when it has no rival or the root partition
    settles its orbit test, and shards do not each rebuild the whole
    tree."""
    census_digest(EnumFilter(order=8))
    unsharded = canon_calls[0]
    assert unsharded <= 456
    canon_calls[0] = 0
    census_digest(EnumFilter(order=8), shards(8))
    assert canon_calls[0] <= 2 * unsharded


def test_order_nine_census_contents_and_canon_calls(canon_calls):
    assert census_digest(EnumFilter(order=9)) == (1782, CENSUS_SHA256["eulerian", 9])
    assert canon_calls[0] <= 3712


def test_connected_order_eight_census_contents_and_canon_calls(canon_calls):
    """Without parity pruning every accepted child is labeled, except where
    the root partition rejects it first."""
    filt = EnumFilter(order=8, require_even_degrees=False)
    assert census_digest(filt) == (11117, CENSUS_SHA256["connected", 8])
    assert canon_calls[0] <= 12137


@pytest.fixture
def call_counts(monkeypatch):
    """Counts the generator's calls of _key_rivals and _is_min_in_orbit."""
    calls = {}
    for name in ("_key_rivals", "_is_min_in_orbit"):
        calls[name] = 0

        def counting(*args, _name=name, _original=getattr(generate, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(generate, name, counting)
    return calls


def test_order_eight_key_tests_are_not_repeated_for_the_forced_child(call_counts):
    """The forced child is key-tested once, by the lookahead that builds it
    (testing it again one level down made 3,647 key tests at order 8), and
    the degree prefilter skips most losers of the key test before their
    orbit test and before they are built (3,423 key tests and 5,524 orbit
    tests without it)."""
    assert census_digest(EnumFilter(order=8)) == (184, CENSUS_SHA256["eulerian", 8])
    assert call_counts["_key_rivals"] <= 1_277
    assert call_counts["_is_min_in_orbit"] <= 1_441


@st.composite
def connected_rows(draw, max_order=8):
    """Adjacency rows of a random connected graph: a random spanning tree
    plus random extra edges."""
    n = draw(st.integers(1, max_order))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.floats(0, 1))
    rows = [0] * n
    for v in range(1, n):
        tree_parent = rng.randrange(v)
        for u in range(v):
            if u == tree_parent or rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


@settings(max_examples=300, deadline=None)
@given(connected_rows())
def test_degree_prefilter_rejects_only_key_test_losers(rows):
    """The candidate loop skips S when a non-cut parent vertex outside S has
    degree > |S|, or (|S| >= 2) one inside S has degree >= |S|; every such
    child must fail the key test.  Checked for every S, |S| = 1 included."""
    k = len(rows)
    above = generate._noncut_above(rows)
    for s in range(1, 1 << k):
        t = s.bit_count()
        if above[t] & ~s or t > 1 and above[t - 1] & s:
            assert generate._key_rivals(generate._attach(rows, s)) is None


def labeler_orbit_test(child, rivals):
    """The orbit test read off a full labeling: the deletion vertex is the
    rival or new vertex with the largest canonical position, and the child
    passes when that vertex shares an orbit with the new vertex."""
    n = len(child)
    pos, gens = canon_rows(n, child)
    rivals |= 1 << n - 1
    d_vertex = next(v for v in reversed(pos) if rivals >> v & 1)
    roots = _orbit_roots(n, gens)
    return roots[d_vertex] == roots[n - 1]


def settled_orbit_test(child, rivals):
    """_accept's answer for an unlabeled node and whether it needed the
    labeler: (passed, labeled)."""
    calls = []

    def counting(*args):
        calls.append(args)
        return canon_rows(*args)

    with patch.object(generate, "canon_rows", counting):
        got = generate._accept(child, rivals, False)
    return got is not None, bool(calls)


def rival_children(rows):
    """Every child of ``rows`` that passes the key test with a rival, and
    its rivals."""
    k = len(rows)
    for s in range(1, 1 << k):
        child = generate._attach(rows, s)
        rivals = generate._key_rivals(child)
        if rivals:
            yield child, rivals


@functools.cache
def connected_classes():
    return [g for k in range(3, 8)
            for g in enumerate_graphs(EnumFilter(order=k, require_even_degrees=False))]


@st.composite
def relabeled_classes(draw):
    """Rows of a random connected graph of order 3..7, drawn uniformly over
    the isomorphism classes and relabeled at random.  Drawn edge by edge,
    almost no graph has a child whose new vertex shares a root cell with a
    rival outside its orbit."""
    g = draw(st.sampled_from(connected_classes()))
    return list(relabel(g, draw(st.permutations(range(g.n)))).rows)


@settings(max_examples=200, deadline=None)
@given(st.deferred(relabeled_classes))
def test_root_partition_settles_orbit_tests_as_the_labeler_does(rows):
    """Whenever the root partition rejects or accepts a child without a
    search, a full labeling and its orbit partition give the same answer;
    a labeled answer carries canon_rows' own positions."""
    for child, rivals in rival_children(rows):
        passed, _ = settled_orbit_test(child, rivals)
        assert passed == labeler_orbit_test(child, rivals)
        labeled = generate._accept(child, rivals)
        assert (labeled is not None) == passed
        if passed:
            assert labeled[0] == canon_rows(len(child), child)[0]


def test_root_partition_rejects_accepts_and_defers_over_all_small_parents():
    """Over the children of every connected graph of order 3..6 the root
    partition rejects some children and accepts some outright, and leaves
    the rest to the labeler; every answer agrees with the labeler's."""
    outcomes = Counter()
    for k in range(3, 7):
        for g in enumerate_graphs(EnumFilter(order=k, require_even_degrees=False)):
            for child, rivals in rival_children(list(g.rows)):
                passed, labeled = settled_orbit_test(child, rivals)
                assert passed == labeler_orbit_test(child, rivals)
                outcomes[passed, labeled] += 1
    assert set(outcomes) == {(False, False), (True, False), (False, True), (True, True)}


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


@pytest.mark.parametrize("m,calls", [(10, 144), (12, 871), (14, 2_537)])
def test_order_nine_size_filter_drops_oversized_forced_children_before_the_key_test(
        call_counts, m, calls):
    """The forced child's size depends on the candidate subset alone, so a
    node whose forced child has more than m edges is dropped before it is
    built and key-tested (301, 1,934 and 5,575 key tests when the size was
    tested after the key test)."""
    list(enumerate_graphs(EnumFilter(order=9, size_range=(m, m))))
    assert call_counts["_key_rivals"] <= calls


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
    """An invalid filter or partition cannot be built."""
    with pytest.raises(ValueError):
        EnumFilter(order=0)
    with pytest.raises(ValueError, match="outside the supported range"):
        EnumFilter(order=MAX_ORDER + 1)
    with pytest.raises(ValueError):
        EnumFilter(order=5, size_range=(4, 20))
    with pytest.raises(ValueError, match=r"bad size_range \(6, 5\)"):
        EnumFilter(order=5, size_range=(6, 5))
    with pytest.raises(ValueError, match="outside 0..3"):
        EnumPartition(total_shards=4, shard_index=4)
    for total in (0, -2):
        with pytest.raises(ValueError, match="shard count must be positive"):
            EnumPartition(total_shards=total, shard_index=0)


def test_filter_and_partition_are_immutable_and_pickle():
    """Pool shards receive them pickled."""
    filt = EnumFilter(order=8, size_range=(8, 12))
    part = EnumPartition(total_shards=8, shard_index=3)
    for value in (filt, part):
        copy = pickle.loads(pickle.dumps(value))
        assert (type(copy), copy) == (type(value), value)
    assert repr(filt) == "EnumFilter(order=8, require_even_degrees=True, size_range=(8, 12))"
    assert repr(part) == "EnumPartition(total_shards=8, shard_index=3)"
    with pytest.raises(AttributeError):
        filt.order = 9
    with pytest.raises(AttributeError):
        part.shard_index = 0


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


def fail_in_shard_three(args):
    """Shard worker that raises in shard 3, returns [index] elsewhere; it is
    module level because the pool pickles it."""
    _, _, index = args
    if index == 3:
        raise ArithmeticError("shard 3\nbroke")
    return [index]


def test_map_shards_reports_a_failed_worker_on_one_line():
    with pytest.raises(WorkerError) as info:
        map_shards(fail_in_shard_three, None, 2, 9)
    assert str(info.value) == "shard worker failed: ArithmeticError: shard 3 broke"


def fail_at_once_in_shard_zero(args):
    """Shard worker that first writes a start marker named by its shard into
    the directory ``args``, then raises at once in shard 0 and sleeps 3 s in
    every other shard; module level, since the pool pickles it."""
    marks, _, index = args
    open(os.path.join(marks, str(index)), "w").close()
    if index == 0:
        raise ArithmeticError("shard 0 broke")
    time.sleep(3)
    return [index]


def test_map_shards_raises_without_waiting_for_the_slow_shards(alarm, tmp_path):
    """The error does not wait for the shards already handed to the two
    workers, and no shard is handed out after it: besides shard 0, at most
    one shard per worker ever starts.  Handing out all eight shards at once
    started three to five more, and the process exit waited 6 to 9 s."""
    t0 = time.perf_counter()
    with pytest.raises(WorkerError) as info:
        map_shards(fail_at_once_in_shard_zero, str(tmp_path), 2, 9)
    elapsed = time.perf_counter() - t0
    assert str(info.value) == "shard worker failed: ArithmeticError: shard 0 broke"
    assert elapsed < 4.5, f"the error took {elapsed:.2f} s"
    while multiprocessing.active_children():  # the workers finish what they hold
        time.sleep(0.1)
    started = sorted(int(p.name) for p in tmp_path.iterdir())
    assert started[0] == 0 and len(started) - 1 <= 2, started


def finish_in_reverse(args):
    """Shard worker whose later shards finish first; module level."""
    _, _, index = args
    time.sleep((SHARDS - index) * 0.05)
    return [index, index]


def test_map_shards_keeps_shard_order_when_shards_finish_out_of_order(alarm):
    assert map_shards(finish_in_reverse, None, 3, 9) == [
        i for i in range(SHARDS) for _ in range(2)]


def kill_in_shard_three(args):
    """Shard worker whose process SIGKILLs itself in shard 3; it never kills
    the test process, should the shard run there (a pool worker has a
    parent process, the test process has none)."""
    _, _, index = args
    if index == 3 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return [index]


def test_map_shards_reports_a_killed_worker_instead_of_hanging(alarm):
    with pytest.raises(WorkerError) as info:
        map_shards(kill_in_shard_three, None, 2, 9)
    assert str(info.value).startswith("shard worker failed: BrokenProcessPool: ")
    assert "\n" not in str(info.value)
