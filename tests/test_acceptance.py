"""Acceptance gate: one test per deliverable criterion, budgets included.

Run with -v to get one pass/fail line per criterion.  Two criteria pin
refutations of claimed value ties: at order 10 the true second place is the
three-ring chain alone at W = 114, one above the triangle-glued cycle at 113
(criterion 05), and at order 11 the cataloged chain has W = 150 against the
glued cycle's 149 (criterion 06).  Their assertions are exact values, so a
program that reported either claimed tie would fail them.
"""
import random
import re
import time

from click.testing import CliRunner

from wienerlab.canon import canonical_form
from wienerlab.cli import _shard_rank, main as cli_main
from wienerlab.families import (
    cycle,
    edge_glued_cycles,
    runner_up_catalog,
    vertex_glued_cycles,
)
from wienerlab.formulas import (
    min_size_diameter_two,
    wiener_cycle,
    wiener_edge_glued,
    wiener_vertex_glued_triangle,
)
from wienerlab.generate import (
    EnumFilter,
    EnumPartition,
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
    wiener,
)
from wienerlab.verify import (
    VERIFIED,
    VIOLATED,
    min_wiener_table,
    verify_FIG1,
    verify_GAP,
    verify_L3,
    verify_P1,
    verify_P2,
    verify_P3,
    verify_T2,
    verify_T3a,
    verify_T3b,
    verify_T3c,
)


def test_criterion_01_closed_forms_match_distance_oracle():
    """Every closed form agrees with BFS on its whole small-order domain."""
    t0 = time.perf_counter()
    for n in range(3, 61):
        assert wiener_cycle(n) == wiener(cycle(n)), f"cycle order {n}"
    for n in range(5, 61):
        assert wiener_vertex_glued_triangle(n) == wiener(
            vertex_glued_cycles(n, 3)
        ), f"glued triangle order {n}"
    for n in range(6, 41):
        for a in range(4, n - 1):
            assert wiener_edge_glued(n, a) == wiener(
                edge_glued_cycles(n, a)
            ), f"edge-glued ({n}, {a})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_spot_values():
    """Hand-checkable Wiener values, each by BFS and closed form."""
    checks = [
        (cycle(5), 15, wiener_cycle(5)),
        (cycle(8), 64, wiener_cycle(8)),
        (vertex_glued_cycles(5, 3), 14, wiener_vertex_glued_triangle(5)),
        (vertex_glued_cycles(8, 3), 58, wiener_vertex_glued_triangle(8)),
        (vertex_glued_cycles(7, 4), 40, None),
        (edge_glued_cycles(6, 4), 25, wiener_edge_glued(6, 4)),
        (vertex_glued_cycles(26, 3), 2065, wiener_vertex_glued_triangle(26)),
    ]
    for g, want, closed in checks:
        assert wiener(g) == want
        if closed is not None:
            assert closed == want


def _labeled_connected_even_classes(n):
    """Independent oracle: span the cycle space of K_n over all labelings,
    keep the connected graphs, bucket by canonical form."""
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
        g = build_graph(n, sorted(edges))
        if is_connected(g):
            forms.add(canonical_form(g))
    return forms


def test_criterion_03_class_counts_match_labeled_oracle():
    """Isomorph-free counts agree with brute force over all labeled graphs."""
    t0 = time.perf_counter()
    expected = {3: 1, 4: 1, 5: 4}
    for n in range(3, 8):
        oracle = _labeled_connected_even_classes(n)
        mine = count_graphs(EnumFilter(order=n))
        assert mine == len(oracle), f"order {n}: {mine} vs oracle {len(oracle)}"
        if n in expected:
            assert mine == expected[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_cycle_uniquely_maximizes_through_order_nine():
    """The cycle is the unique Wiener maximizer at each order up to 9; the
    order-9 scan itself finishes within the 8-shard budget."""
    for n in range(3, 9):
        assert extremal_scan(EnumFilter(order=n), "max_wiener", 1) == [
            (wiener_cycle(n), canonical_form(cycle(n)))
        ], f"order {n}"
    t0 = time.perf_counter()
    kw = {"order": 9, "require_even_degrees": True}
    entries = map_shards(_shard_rank, (kw, "max_wiener", 1), jobs=8)
    best = max(w for w, _ in entries)
    attainers = sorted({g6 for w, g6 in entries if w == best})
    elapsed = time.perf_counter() - t0
    assert (best, attainers) == (wiener_cycle(9), [canonical_form(cycle(9))])
    assert elapsed < 240.0, f"order-9 scan took {elapsed:.1f}s"


def test_criterion_05_runner_up_sets_through_order_ten(census9, census10):
    """Second-place sets: glued cycle alone at 5 and 6, the chain alone at 7
    and 9, a two-way tie at 8.  The claimed two-way tie at order 10 is
    refuted by the census: the chain [4,4,4] stands alone at W = 114, one
    above the triangle-glued cycle at 113, so T2 reports it as the single
    witness of a violation."""
    problems = []
    for n in range(5, 10):
        report = verify_T2(n)
        if report.status != VERIFIED:
            problems.append(f"n={n} {report.status}: {report.notes}")
    assert not problems, " | ".join(problems)

    chain = canonical_form(runner_up_catalog(10)[0])
    glued = canonical_form(vertex_glued_cycles(10, 3))
    report = verify_T2(10)
    assert (report.status, report.witnesses, report.notes) == (
        VIOLATED,
        (chain,),
        f"runner-up set at W = 114 is {[chain]} but expected a two-way tie "
        f"of the triangle-glued cycle and the chain ({sorted([chain, glued])}); "
        f"triangle-glued cycle has W = 113",
    )


def test_criterion_06_catalog_ties_at_orders_eleven_and_thirteen():
    """The FIG1 reports on the claimed tie between the cataloged chain and
    the glued cycle at orders 11 and 13, both computed by direct BFS.  The
    tie holds at order 13 (248 = 248) and is refuted at order 11, where the
    chain [3,4,4,3] has W = 150 against the glued cycle's 149; each report
    names the cataloged chain as its single witness."""
    t0 = time.perf_counter()
    reports = {n: verify_FIG1(n) for n in (11, 13)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    chain = {n: (canonical_form(runner_up_catalog(n)[0]),) for n in (11, 13)}
    got = {n: (r.status, r.witnesses, r.notes) for n, r in reports.items()}
    assert got == {
        11: (VIOLATED, chain[11], "claimed tie fails: W(catalog) = [150] but "
             "the triangle-glued cycle has W = 149"),
        13: (VERIFIED, chain[13], "W(catalog) = 248 = W(triangle-glued cycle), "
             "as claimed"),
    }


def test_criterion_07_edge_glued_never_beats_triangle_glued():
    """Edge-glued pairs stay at or below the triangle-glued cycle on orders
    26..500, equal exactly at the two extreme splits."""
    t0 = time.perf_counter()
    report = verify_L3(26, 500)
    elapsed = time.perf_counter() - t0
    assert report.status == VERIFIED, report.notes
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_08_gap_polynomial_positive():
    """The second-place gap numerator is positive and nondecreasing on orders
    26..500, and matches the quoted quadratic at the triangle split."""
    t0 = time.perf_counter()
    report = verify_GAP(26, 500)
    elapsed = time.perf_counter() - t0
    assert report.status == VERIFIED, report.notes
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_09_distance_bound_suite():
    """Connectivity bounds over every enumerated graph up to order 8:
    cycle-cap on W, vertex distance-sum caps, equality cases exact."""
    for n in range(3, 9):
        for check in (verify_T3a, verify_T3b, verify_T3c):
            report = check(n)
            assert report.status == VERIFIED, \
                f"{report.claim_id} n={n}: {report.notes}"


def test_criterion_10_minimum_side_suite(census9, census10, census_timings):
    """Minimum W attainers to order 8, the size-adjusted floor to order 7,
    and the sparsest diameter-2 sizes 12 and 15 at orders 9 and 10."""
    for n in range(3, 9):
        report = verify_P1(n)
        assert report.status == VERIFIED, f"P1 n={n}: {report.notes}"
    for n in range(1, 8):
        report = verify_P2(n)
        assert report.status == VERIFIED, f"P2 n={n}: {report.notes}"
    for n, size in ((9, 12), (10, 15)):
        report = verify_P3(n)
        assert report.status == VERIFIED, f"P3 n={n}: {report.notes}"
        assert min_size_diameter_two(n) == size
        assert str(size) in report.notes
    assert census_timings["census10"] < 1800.0, \
        f"order-10 census took {census_timings['census10']:.0f}s"


def test_criterion_11_minimum_table_witnesses_revalidate(census9, census10):
    """Sparse-regime minimum tables at orders 9 and 10 complete, and every
    witness decodes to an Eulerian graph with the recorded n, m and W."""
    for n in (9, 10):
        table = min_wiener_table(n)
        assert table, f"empty table at order {n}"
        for row in table:
            if row.min_wiener is None:
                assert row.witnesses == ()
                continue
            assert row.witnesses, f"no witnesses at n={n}, m={row.m}"
            for g6 in row.witnesses:
                g = graph6_decode(g6)
                assert (g.n, g.m) == (row.n, row.m)
                assert is_even_graph(g) and is_connected(g)
                assert wiener(g) == row.min_wiener


def test_criterion_12_infrastructure_properties():
    """Canonical forms are relabeling-invariant, graph6 round-trips, shards
    partition the search tree, and reports are byte-stable across reruns."""
    rng = random.Random(20260823)
    pool = [
        g
        for n in range(1, 7)
        for g in enumerate_graphs(EnumFilter(order=n, require_even_degrees=False))
    ]
    assert len(pool) == 143
    for g in pool:
        base = canonical_form(g)
        assert graph6_decode(graph6_encode(g)).edges() == g.edges()
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            scrambled = build_graph(
                g.n, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            assert canonical_form(scrambled) == base

    for n in (6, 7):
        full = sorted(
            graph6_encode(g) for g in enumerate_graphs(EnumFilter(order=n))
        )
        merged = sorted(
            graph6_encode(g)
            for i in range(8)
            for g in enumerate_graphs(
                EnumFilter(order=n), EnumPartition(total_shards=8, shard_index=i)
            )
        )
        assert merged == full

    runner = CliRunner()
    for args in (
        ["verify", "--claim", "T2", "--n", "8"],
        ["verify", "--claim", "L2", "--n", "40"],
    ):
        outs = []
        for _ in range(2):
            result = runner.invoke(cli_main, args)
            outs.append(
                re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": _', result.stdout)
            )
        assert outs[0] == outs[1] != ""
