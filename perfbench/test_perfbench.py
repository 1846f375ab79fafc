"""Tests of the benchmark's own helpers: oracles and span arithmetic.

    python3 -m pytest perfbench -q
"""
import os
import random
import sys

import networkx as nx
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from tracing import Tracer, covered, layer_metrics, outermost, self_times  # noqa: E402


# -- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(5, 31))
def test_one_point_union_identity_matches_networkx(n):
    for a in range(3, n - 1):
        g = nx.cycle_graph(a)
        nx.add_cycle(g, [0] + list(range(a, n)))
        assert oracles.one_point_union_wiener(n, a) == nx.wiener_index(g)


def test_cycle_wiener_matches_networkx():
    for k in range(3, 40):
        assert oracles.cycle_wiener(k) == nx.wiener_index(nx.cycle_graph(k))


def test_bfs_wiener_matches_networkx_on_random_connected_graphs():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 25)
        g = nx.connected_watts_strogatz_graph(n, 2, 0.5, seed=rng.randint(0, 10**6)) \
            if n > 3 else nx.path_graph(n)
        assert oracles.bfs_wiener(n, g.edges()) == nx.wiener_index(g)
    with pytest.raises(ValueError):
        oracles.bfs_wiener(3, [(0, 1)])


def test_constructions_match_their_definitions():
    for n, a in [(26, 4), (30, 9), (40, 38)]:
        g = nx.Graph(oracles.edge_glued_edges(n, a))
        assert g.number_of_nodes() == n and g.number_of_edges() == n + 1
        assert sorted(len(c) for c in nx.cycle_basis(g)) == sorted([a, n + 2 - a])
    g = nx.Graph(oracles.chord_triangle_edges(12, 3, 7))
    assert g.number_of_edges() == 15 and nx.cycle_graph(12).edges <= g.edges


@pytest.mark.parametrize("lengths, w", [((4, 4), 40), ((3, 4, 3), 58), ((4, 4, 3), 83),
                                        ((4, 4, 4), 114), ((3, 4, 4, 3), 150),
                                        ((4, 4, 4, 4), 248)])
def test_chain_graph_wiener_values(lengths, w):
    g = oracles.chain_graph(lengths)
    assert g.number_of_nodes() == sum(lengths) - len(lengths) + 1
    assert nx.wiener_index(g) == w


def test_oeis_lookups():
    assert oracles.oeis(oracles.A003049, 9) == 1782
    assert oracles.oeis(oracles.A003049, 10) == 31026
    assert oracles.oeis(oracles.A001349, 8) == 11117
    assert oracles.oeis(oracles.A002218, 8) == 7123
    assert oracles.oeis(oracles.A007146, 8) == 7403
    for bad in (0, 11):
        with pytest.raises(KeyError):
            oracles.oeis(oracles.A003049, bad)


def test_oeis_tables_match_the_graph_atlas_through_order_seven():
    counts = {}
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if not nx.is_connected(g):
            continue
        c = counts.setdefault(n, [0, 0, 0, 0])
        c[0] += 1
        c[1] += all(d % 2 == 0 for _, d in g.degree())
        c[2] += n >= 3 and nx.is_biconnected(g) or n <= 2
        c[3] += not nx.has_bridges(g)
    for n in range(1, 8):
        assert counts[n] == [oracles.oeis(t, n) for t in (
            oracles.A001349, oracles.A003049, oracles.A002218, oracles.A007146)], n


def test_census_check_flags_isomorphic_rows_and_bad_weights():
    def g6(edges):
        g = nx.empty_graph(4)
        g.add_edges_from(edges)
        return nx.to_graph6_bytes(g, header=False).decode().strip()

    c4 = g6([(0, 1), (1, 2), (2, 3), (3, 0)])
    other = g6([(0, 2), (2, 1), (1, 3), (3, 0)])
    assert c4 != other
    census = oracles.Census([c4, other], 4, even=True, weights=[8, 9])
    assert any("isomorphic" in p for p in census.problems)
    assert any("W = 9" in p for p in census.problems)
    assert oracles.Census([c4], 4, even=True, weights=[8]).problems == []


def test_partition_check():
    assert oracles.check_partition([["a", "b"], ["c"]], ["c", "b", "a"]) == []
    assert oracles.check_partition([["a", "b"], ["b", "c"]], ["a", "b", "c"])
    assert oracles.check_partition([["a"], ["c"]], ["a", "b", "c"])


# -- span arithmetic -----------------------------------------------------------


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_of_nested_spans():
    #  0: [0, 10] root; 1: [1, 4] child; 2: [2, 3] grandchild; 3: [5, 7] child
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 7], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5, 2, 1, 2]


def test_self_time_of_overlapping_children():
    # children overlap each other and one sticks out of the parent's interval
    starts, ends, parents = [0, 1, 3, 8], [10, 5, 6, 12], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 10 - (5 + 2)


def test_outermost_counts_nested_calls_of_a_layer_once():
    names = ["v", "f.a", "f.b", "g.x", "f.b"]
    parents = [-1, 0, 1, 2, 0]
    assert outermost(names, parents, {"f.a", "f.b"}) == [1, 4]


# -- the tracer on the program -------------------------------------------------


def test_tracer_rebinds_every_import_path_and_restores_them():
    import wienerlab
    from wienerlab import generate, graphs, verify

    original = graphs.wiener
    with Tracer() as tr:
        assert verify.wiener is graphs.wiener is wienerlab.wiener is not original
        report = verify.verify_claim("FIG1", n=13)
        filt = generate.EnumFilter(order=6)
        g6s = [graphs.graph6_encode(g) for g in generate.enumerate_graphs(filt)]
    assert verify.wiener is graphs.wiener is wienerlab.wiener is original
    assert report.status == "verified" and len(g6s) == oracles.oeis(oracles.A003049, 6)
    m = layer_metrics(tr)
    assert m["families.build_s"] > 0 and m["formulas.calls"] >= 1
    assert m["canon.calls"] > 0 and m["graphs.bfs_calls"] > 0
    assert m["generate.classes_per_canon_call"] > 0
    assert tr.yields == len(g6s)
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    assert all(s >= -1e-9 for s in selfs)


# -- operation counting ----------------------------------------------------------


def test_claims_are_unchecked_when_the_census_fails_its_oracle():
    claims = ["T1", "T2", "P1", "P3", "Q1", "FIG1"]
    report = {"status": "verified", "witnesses": [], "notes": ""}
    bad = [{"name": "census", "value": [[8, 4, "Ch"]]}] + \
        [{"name": c, "value": report} for c in claims]
    verdict = oracles.check_eulerian9(bad, random.Random(0))
    assert verdict["census"] and all(verdict[c] for c in claims)
    raised = [{"name": "census", "error": "ValueError: boom"}] + \
        [{"name": c, "value": report} for c in claims]
    verdict = oracles.check_connected8(raised, random.Random(0))
    assert all(verdict[c] for c in claims)


def test_checker_judges_identical_outputs_once_and_counts_unjudged_ops():
    import run

    calls = []

    def check():
        calls.append(1)
        return {"a": [], "b": ["wrong"]}

    checker = run.Checker()
    for _ in range(3):
        checker.submit(["a", "b", "c"], {}, ["same output"], check)
    checker.submit(["a"], {"a": "exit 1"}, ["other output"], lambda: {})
    checker.submit(["a"], {}, ["unreadable output"], lambda: 1 / 0)
    checker.finish()
    assert len(calls) == 1
    assert checker.attempted == 11
    # b and c in each of three rounds, a's error, a unjudged
    assert checker.failed == 8
    assert checker.correct is False

    ok = run.Checker()
    ok.submit(["a"], {"a": "ValueError"}, ["x"], lambda: {"a": []})
    ok.finish()
    assert (ok.attempted, ok.failed, ok.correct) == (1, 1, True)
