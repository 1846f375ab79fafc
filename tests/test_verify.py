"""Claim harness: censuses, per-claim verdicts, the minimum-Wiener table."""
import hashlib
from itertools import combinations

import networkx as nx
import pytest

from wienerlab import verify
from wienerlab.canon import canonical_form
from wienerlab.families import (
    cocktail_party,
    complete,
    cycle,
    runner_up_catalog,
    sparse_diameter_two,
    vertex_glued_cycles,
)
from wienerlab.formulas import min_wiener_eulerian, wiener_cycle
from wienerlab.graphs import (
    bfs_distances,
    build_graph,
    diameter,
    graph6_decode,
    is_eulerian,
    is_even_graph,
    is_two_connected,
    is_two_edge_connected,
    sigma_set,
    sigma_vertex,
    wiener,
)
from wienerlab.verify import (
    CLAIM_IDS,
    EULERIAN_ENVELOPE,
    GENERAL_ENVELOPE,
    SKIPPED,
    VERIFIED,
    VIOLATED,
    census_columns,
    connected_census,
    eulerian_census,
    min_wiener_table,
    verify_claim,
    verify_C1,
    verify_C2,
    verify_FIG1,
    verify_GAP,
    verify_L2,
    verify_L3,
    verify_P1,
    verify_P2,
    verify_P3,
    verify_Q1,
    verify_T1,
    verify_T2,
    verify_T3a,
    verify_T3b,
    verify_T3c,
)


def test_eulerian_census_rows():
    rows = eulerian_census(7)
    assert len(rows) == 37
    assert list(rows) == sorted(rows, key=lambda r: (-r[0], r[1], r[2]))
    assert rows[0] == (wiener_cycle(7), 7, canonical_form(cycle(7)))
    for w, m, g6 in rows:
        g = graph6_decode(g6)
        assert (g.n, g.m) == (7, m)
        assert is_eulerian(g)
        assert wiener(g) == w
    assert len(eulerian_census(8)) == 184


def test_census_domain_errors():
    with pytest.raises(ValueError):
        eulerian_census(2)
    with pytest.raises(ValueError):
        eulerian_census(EULERIAN_ENVELOPE + 1)
    with pytest.raises(ValueError):
        connected_census(0)
    with pytest.raises(ValueError):
        connected_census(GENERAL_ENVELOPE + 1)
    assert len(connected_census(5)) == 21


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cycle_is_unique_maximizer(n):
    report = verify_T1(n)
    assert report.status == VERIFIED
    assert report.witnesses == (canonical_form(cycle(n)),)
    assert report.param_dict() == {"n": n}
    assert report.elapsed >= 0.0


def test_maximizer_claim_envelope_and_domain():
    assert verify_T1(EULERIAN_ENVELOPE + 1).status == SKIPPED
    assert verify_T1(EULERIAN_ENVELOPE + 1).witnesses == ()
    with pytest.raises(ValueError):
        verify_T1(2)


@pytest.mark.parametrize("n", [5, 6])
def test_runner_up_is_glued_cycle_at_plain_orders(n):
    report = verify_T2(n)
    assert report.status == VERIFIED
    assert report.witnesses == (canonical_form(vertex_glued_cycles(n, 3)),)


def test_runner_up_at_exceptional_orders():
    r7 = verify_T2(7)
    assert r7.status == VERIFIED
    assert r7.witnesses == tuple(
        sorted(canonical_form(g) for g in runner_up_catalog(7))
    )
    assert "40" in r7.notes

    r8 = verify_T2(8)
    assert r8.status == VERIFIED
    assert len(r8.witnesses) == 2
    assert canonical_form(vertex_glued_cycles(8, 3)) in r8.witnesses
    assert "58" in r8.notes


def test_runner_up_order_nine(census9):
    report = verify_T2(9)
    assert report.status == VERIFIED
    assert report.witnesses == tuple(
        sorted(canonical_form(g) for g in runner_up_catalog(9))
    )
    assert "83" in report.notes


def test_runner_up_envelope_and_domain():
    assert verify_T2(EULERIAN_ENVELOPE + 1).status == SKIPPED
    with pytest.raises(ValueError):
        verify_T2(4)


@pytest.mark.parametrize("n", [7, 8])
def test_catalog_matches_enumerated_runner_up(n):
    report = verify_FIG1(n)
    assert report.status == VERIFIED
    assert report.witnesses == tuple(
        sorted(canonical_form(g) for g in runner_up_catalog(n))
    )


def test_catalog_order_nine(census9):
    assert verify_FIG1(9).status == VERIFIED


def test_catalog_tie_holds_at_thirteen():
    report = verify_FIG1(13)
    assert report.status == VERIFIED
    assert "248" in report.notes


def test_catalog_tie_fails_at_eleven():
    """The claimed value tie at order 11 is off by one; the check must say so."""
    report = verify_FIG1(11)
    assert report.status == VIOLATED
    assert len(report.witnesses) >= 1
    assert "150" in report.notes and "149" in report.notes


def test_catalog_unsupported_order():
    with pytest.raises(ValueError):
        verify_FIG1(12)


@pytest.mark.parametrize("n", range(6, 41))
def test_glued_cycle_ordering(n):
    assert verify_L2(n).status == VERIFIED


def test_glued_cycle_ordering_envelope_and_domain():
    assert verify_L2(301).status == SKIPPED
    with pytest.raises(ValueError):
        verify_L2(5)


def test_glued_cycle_ordering_report_at_the_envelope():
    """The whole L2 report at n = 300.  The notes carry W of every split,
    each checked here against the cut-vertex gluing identity
    W = W(C_a) + W(C_b) + (a - 1) sigma_b + (b - 1) sigma_a, b = n + 1 - a,
    with sigma_k = floor(k^2 / 4) the transmission of a vertex of C_k."""
    n = 300

    def glued(a):
        b = n + 1 - a
        return (wiener_cycle(a) + wiener_cycle(b)
                + (a - 1) * (b * b // 4) + (b - 1) * (a * a // 4))

    chain = " > ".join(f"{glued(a)}(a={a})" for a in range(3, 151))
    report = verify_L2(n)
    assert (report.status, report.witnesses, report.notes) \
        == (VERIFIED, (), f"chain holds: {chain}")


def test_edge_glued_dominated():
    report = verify_L3(26, 60)
    assert report.status == VERIFIED
    assert report.param_dict() == {"n_lo": 26, "n_hi": 60}
    for bad in [(25, 30), (30, 29), (26, 5001)]:
        with pytest.raises(ValueError):
            verify_L3(*bad)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pair_distance_sum_bound(n):
    assert verify_C1(n).status == VERIFIED


def test_pair_distance_sum_envelope():
    assert verify_C1(GENERAL_ENVELOPE + 1).status == SKIPPED
    with pytest.raises(ValueError):
        verify_C1(2)


def test_triangle_placements_below_cap():
    assert "vacuous" in verify_C2(5).notes
    for n in (6, 7, 10, 13):
        assert verify_C2(n).status == VERIFIED
    assert verify_C2(65).status == SKIPPED


def test_triangle_placements_report_at_the_envelope():
    report = verify_C2(64)
    assert (report.status, report.witnesses, report.notes) == (
        VERIFIED, (), "all 1770 triangle placements (up to rotation) stay "
        "below W = 31838")


@pytest.mark.parametrize("n, offset, expected", [
    (8, 10, (VIOLATED, ("G?LTMK",),
             "triangle at positions (0,2,4) gives W = 50, not below 48")),
    (13, 40, (VIOLATED, ("L???GSSIA_S@oB",),
              "triangle at positions (0,2,4) gives W = 229, not below 208")),
    (20, 53, (VIOLATED, ("S????????@_I?g@O@O?g?I?@O?D??M??K",),
              "triangle at positions (0,2,4) gives W = 875, not below 875")),
    (20, 40, (VERIFIED, (),
              "all 120 triangle placements (up to rotation) stay below W = 888")),
])
def test_triangle_placements_violation_path(monkeypatch, n, offset, expected):
    """A cap lowered by offset: the first placement at or above it is
    reported with its canonical witness; equality is a violation."""
    cap = verify.wiener_vertex_glued_triangle
    monkeypatch.setattr(verify, "wiener_vertex_glued_triangle",
                        lambda m: cap(m) - offset)
    report = verify_C2(n)
    assert (report.status, report.witnesses, report.notes) == expected


def _triangle_on_ring(n, corners):
    a, b, c = corners
    ring = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, ring + [(a, b), (b, c), (a, c)])


def test_triangle_placement_w_is_invariant_under_ring_symmetries():
    """Every rotation and reflection of a placement (0, j, k) has its W, and
    placements with the same sorted arcs (j, k - j, n - k), the key
    verify_C2 runs one BFS for, share one W."""
    for n in range(6, 21):
        by_arcs = {}
        for j in range(2, n - 3):
            for k in range(j + 2, n - 1):
                w = wiener(_triangle_on_ring(n, (0, j, k)))
                for r in range(n):
                    for sign in (1, -1):
                        image = [(sign * v + r) % n for v in (0, j, k)]
                        assert wiener(_triangle_on_ring(n, image)) == w
                by_arcs.setdefault(tuple(sorted((j, k - j, n - k))), set()).add(w)
        assert all(len(ws) == 1 for ws in by_arcs.values()), n


def test_triangle_placements_run_one_bfs_per_arc_class(monkeypatch):
    """C2(64) visits 1,770 placements but computes W for only their 310
    classes of sorted arc triples."""
    calls = []
    monkeypatch.setattr(verify, "wiener", lambda g: calls.append(g) or wiener(g))
    report = verify_C2(64)
    assert report.notes.startswith("all 1770 triangle placements")
    assert len(calls) == 310


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_two_edge_connected_maximum(n):
    report = verify_T3a(n)
    assert report.status == VERIFIED
    assert report.witnesses == (canonical_form(cycle(n)),)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_vertex_distance_sum_caps(n):
    assert verify_T3b(n).status == VERIFIED
    assert verify_T3c(n).status == VERIFIED


def test_distance_sum_claims_envelope():
    for fn in (verify_T3a, verify_T3b, verify_T3c):
        assert fn(GENERAL_ENVELOPE + 1).status == SKIPPED


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_minimum_wiener_attainer(n):
    report = verify_P1(n)
    assert report.status == VERIFIED
    extremal = complete(n) if n % 2 else cocktail_party(n)
    assert report.witnesses == (canonical_form(extremal),)
    assert str(min_wiener_eulerian(n)) in report.notes


def test_minimum_wiener_order_nine(census9):
    report = verify_P1(9)
    assert report.status == VERIFIED
    assert report.witnesses == (canonical_form(complete(9)),)


@pytest.mark.parametrize("n", range(1, 9))
def test_size_adjusted_floor(n):
    assert verify_P2(n).status == VERIFIED


def test_size_adjusted_floor_envelope():
    assert verify_P2(GENERAL_ENVELOPE + 1).status == SKIPPED
    with pytest.raises(ValueError):
        verify_P2(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_census_columns_match_direct_computation(n):
    census, cols = connected_census(n), census_columns(n)
    assert [len(col) for col in cols] == [len(census)] * len(cols)
    for i, g6 in enumerate(census):
        g = graph6_decode(g6)
        rows = [bfs_distances(g, v) for v in range(n)]
        pair_sums = []
        for u, w in combinations(range(n), 2):
            s = sigma_set(g, {u, w})
            assert sum(map(min, rows[u], rows[w])) == s
            pair_sums.append(s)
        biconnected = is_two_connected(g)
        expected = (g.m, wiener(g), diameter(g),
                    max(sigma_vertex(g, v) for v in range(n)),
                    max(pair_sums) if biconnected else 0,
                    biconnected, is_two_edge_connected(g))
        assert tuple(col[i] for col in cols) == expected, g6
        if n <= 6:
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            assert (cols.wiener[i], cols.diameter[i], cols.bridgeless[i]) \
                == (nx.wiener_index(h), nx.diameter(h), not nx.has_bridges(h))
            assert cols.biconnected[i] == (n >= 3 and nx.is_biconnected(h))


# Whole reports of the five distance-sum claims over the order-8 census.
ORDER_EIGHT_REPORTS = {
    "C1": (VERIFIED, (), "all pairs in 7123 two-connected graphs stay at or "
           "below the cycle's adjacent-pair value 12"),
    "T3a": (VERIFIED, ("G?LTE?",), "7403 two-edge-connected graphs; W <= 64 "
            "with the cycle the sole equality case"),
    "T3b": (VERIFIED, (), "all vertices of 7123 two-connected graphs stay at "
            "or below 16; the cycle attains it"),
    "T3c": (VERIFIED, (), "all vertices of 7403 two-edge-connected graphs stay "
            "at or below 18"),
    "P2": (VERIFIED, (), "bound and equality characterization hold on all "
           "11117 connected graphs"),
}


@pytest.mark.parametrize("claim", sorted(ORDER_EIGHT_REPORTS))
def test_distance_sum_reports_at_order_eight(claim):
    report = verify_claim(claim, n=8)
    assert (report.status, report.witnesses, report.notes) == ORDER_EIGHT_REPORTS[claim]


def _shift(monkeypatch, name, delta, key=None):
    """Offset what verify.<name> returns (or its entry ``key``) by delta."""
    original = getattr(verify, name)

    def shifted(*args):
        value = original(*args)
        if key is None:
            return value + delta
        return {**value, key: value[key] + delta}

    monkeypatch.setattr(verify, name, shifted)


def _shift_on_cycle(monkeypatch, name, delta):
    """Offset verify.<name>(g, ...) by delta only when g is a graph that
    verify.cycle built, so census graphs keep their true values."""
    built = []

    def tracked_cycle(n):
        g = cycle(n)
        built.append(g)
        return g

    original = getattr(verify, name)
    monkeypatch.setattr(verify, "cycle", tracked_cycle)
    monkeypatch.setattr(verify, name, lambda g, arg: original(g, arg) + (
        delta if any(g is c for c in built) else 0))


_CAPS = {"T3a": "max_wiener_two_edge_connected",
         "T3b": "max_sigma_two_connected",
         "T3c": "max_sigma_two_edge_connected"}

# (claim, patch, report) at order 6; each report is what the per-claim
# loops of the earlier implementation gave under the same patch.
VIOLATIONS_AT_SIX = [
    ("C1", lambda mp: _shift_on_cycle(mp, "sigma_set", -1),
     ("E?~o",), "pair (0,1) has distance sum 6 > 5"),
    ("T3a", lambda mp: _shift(mp, "connectivity_bounds", -1, _CAPS["T3a"]),
     ("EBj?",), "W = 27 exceeds the cap 26"),
    ("T3a", lambda mp: _shift(mp, "connectivity_bounds", +1, _CAPS["T3a"]),
     ("EBj?",), "graphs attaining W = 28: [], expected the cycle alone"),
    ("T3b", lambda mp: _shift(mp, "connectivity_bounds", -1, _CAPS["T3b"]),
     ("EBj?",), "cycle vertex distance sum 9 misses the cap 8"),
    ("T3b", lambda mp: (_shift(mp, "connectivity_bounds", -1, _CAPS["T3b"]),
                        _shift_on_cycle(mp, "sigma_vertex", -1)),
     ("EBj?",), "vertex 0 has distance sum 9 > 8"),
    ("T3c", lambda mp: _shift(mp, "connectivity_bounds", -1, _CAPS["T3c"]),
     ("E@ro",), "vertex 4 has distance sum 10 > 9"),
    ("P2", lambda mp: _shift(mp, "wiener_lower_bound", -1),
     ("E?Bw",), "equality/diameter mismatch: W = 25, floor = 24, diameter = 2"),
    ("P2", lambda mp: _shift(mp, "wiener_lower_bound", +1),
     ("E?Bw",), "W = 25 below the floor 26"),
]


@pytest.mark.parametrize("claim,patch,witnesses,notes", VIOLATIONS_AT_SIX)
def test_distance_sum_violations_name_the_first_witness(
        monkeypatch, claim, patch, witnesses, notes):
    patch(monkeypatch)
    report = verify_claim(claim, n=6)
    assert (report.status, report.witnesses, report.notes) == (
        VIOLATED, witnesses, notes)


@pytest.mark.parametrize("census,cache,n", [
    (eulerian_census, "_eulerian_cache", 7),
    (connected_census, "_connected_cache", 6),
    (census_columns, "_connected_cache", 6),
])
def test_census_missing_a_class_raises_and_caches_nothing(monkeypatch, census, cache, n):
    original = verify.enumerate_graphs

    def dropping_first(filt, partition=None):
        stream = original(filt, partition)
        next(stream)
        yield from stream

    monkeypatch.setattr(verify, cache, {})
    monkeypatch.setattr(verify, "enumerate_graphs", dropping_first)
    with pytest.raises(RuntimeError, match="OEIS"):
        census(n)
    assert getattr(verify, cache) == {}


@pytest.mark.parametrize("n", range(1, 8))
def test_cold_columns_equal_the_columns_of_a_cold_census(monkeypatch, n):
    """census_columns(n) built cold, and built by a cold connected_census(n),
    give equal columns and the same census."""
    monkeypatch.setattr(verify, "_connected_cache", {})
    cold = census_columns(n)
    census = connected_census(n)
    monkeypatch.setattr(verify, "_connected_cache", {})
    assert connected_census(n) == census
    assert verify._connected_cache[n] == (census, cold)
    assert census_columns(n) == cold


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sparse_diameter_two_below_claim_threshold(n):
    report = verify_P3(n)
    assert report.status == VERIFIED
    assert "new data" in report.notes


def test_sparse_diameter_two_order_nine(census9):
    report = verify_P3(9)
    assert report.status == VERIFIED
    assert canonical_form(sparse_diameter_two(9)) in report.witnesses
    assert "12" in report.notes


def test_min_wiener_table_order_nine(census9):
    table = min_wiener_table(9)
    assert [(r.n, r.m, r.min_wiener, r.witnesses) for r in table] == [
        (9, 8, None, ()),
        (9, 9, 90, ("H?CidB?",)),
        (9, 10, 78, ("H?CaKRo",)),
        (9, 11, 67, ("H?CaC^o",)),
    ]
    for row in table:
        for g6 in row.witnesses:
            g = graph6_decode(g6)
            assert (g.n, g.m) == (row.n, row.m)
            assert is_even_graph(g)
            assert wiener(g) == row.min_wiener


def test_min_wiener_table_consistent_with_census():
    rows = eulerian_census(8)
    table = min_wiener_table(8)
    assert [r.m for r in table] == [7, 8, 9, 10]
    for row in table:
        group = [(w, g6) for w, m, g6 in rows if m == row.m]
        if not group:
            assert row.min_wiener is None and row.witnesses == ()
            continue
        w_min = min(w for w, _ in group)
        assert row.min_wiener == w_min
        assert row.witnesses == tuple(sorted(g6 for w, g6 in group if w == w_min))


def test_min_wiener_table_domain_errors():
    with pytest.raises(ValueError):
        min_wiener_table(EULERIAN_ENVELOPE + 1)
    with pytest.raises(ValueError):
        min_wiener_table(9, m_max=12)
    with pytest.raises(ValueError):
        min_wiener_table(9, m_max=7)


def test_min_wiener_table_default_range_may_be_empty():
    """Order 4's diameter-2 threshold is 3 = n - 1 edges, so the default
    range holds no size; an explicit m_max there is still an error.  Every
    other order in the envelope starts at the tree size n - 1."""
    assert min_wiener_table(4) == ()
    for m_max in (2, 3):
        with pytest.raises(ValueError, match=r"m_max must lie in \[3, 2\]"):
            min_wiener_table(4, m_max=m_max)
    for n in (3, 5, 6, 7, 8):
        assert min_wiener_table(n)[0].m == n - 1


def test_claim_report_is_immutable():
    report = verify_T1(6)
    assert report.param_dict() == {"n": 6}
    with pytest.raises(AttributeError):
        report.status = VIOLATED


def test_verify_claim_takes_one_kind_of_order():
    with pytest.raises(ValueError, match="^claim GAP takes a range of orders, not an order$"):
        verify_claim("GAP", n=30)
    with pytest.raises(ValueError, match="^claim L3 takes a range of orders, not an order$"):
        verify_claim("L3", n=30, n_range=(26, 30))
    with pytest.raises(ValueError, match="^claim L3 requires a range of orders$"):
        verify_claim("L3", n=26)
    with pytest.raises(ValueError, match="^claim T1 takes an order, not a range$"):
        verify_claim("T1", n=5, n_range=(26, 30))
    with pytest.raises(ValueError, match="^claim T1 requires an order$"):
        verify_claim("T1", n_range=(26, 30))


def test_open_question_data_consistency(census9):
    report = verify_Q1(9)
    assert report.status == VERIFIED
    assert "m=9: min W = 90" in report.notes
    with pytest.raises(ValueError):
        verify_Q1(8)
    assert verify_Q1(EULERIAN_ENVELOPE + 1).status == SKIPPED


def test_gap_polynomial():
    report = verify_GAP()
    assert report.status == VERIFIED
    assert report.param_dict() == {"n_lo": 26, "n_hi": 500}
    assert verify_GAP(26, 26).status == VERIFIED
    with pytest.raises(ValueError, match="within"):
        verify_GAP(25, 30)
    with pytest.raises(ValueError, match="empty range 30:29"):
        verify_GAP(30, 29)


# In-envelope arguments of every claim, as verify_claim takes them.
DISPATCH_ARGS = {claim: dict(n=6) for claim in CLAIM_IDS}
DISPATCH_ARGS.update(L2=dict(n=9), C2=dict(n=9), Q1=dict(n=9), FIG1=dict(n=8),
                     L3=dict(n_range=(26, 30)), GAP=dict(n_range=(26, 30)))


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_dispatch_matches_direct_calls(claim, census9):
    """verify_claim reaches verify_<claim> with the same arguments: the
    order for an order claim, the range for L3 and GAP."""
    kwargs = DISPATCH_ARGS[claim]
    args = kwargs.get("n_range") or (kwargs["n"],)
    direct = getattr(verify, f"verify_{claim}")(*args)
    routed = verify_claim(claim, **kwargs)
    assert direct.status == VERIFIED
    assert (routed.claim_id, routed.params, routed.status,
            routed.witnesses, routed.notes) == (
        direct.claim_id, direct.params, direct.status,
        direct.witnesses, direct.notes,
    )


def test_dispatch_argument_rules():
    with pytest.raises(ValueError):
        verify_claim("bogus", n=6)
    with pytest.raises(ValueError):
        verify_claim("T1")
    with pytest.raises(ValueError):
        verify_claim("L3")
    assert verify_claim("L3", n_range=(26, 30)).status == VERIFIED
    gap = verify_claim("GAP")
    assert gap.status == VERIFIED
    assert gap.param_dict() == {"n_lo": 26, "n_hi": 500}


def test_reports_are_deterministic_up_to_elapsed():
    a = verify_T2(7)
    b = verify_T2(7)
    assert (a.claim_id, a.params, a.status, a.witnesses, a.notes) == (
        b.claim_id, b.params, b.status, b.witnesses, b.notes,
    )


# Every report (claim id, params, status, witnesses, notes), or the
# ValueError text, of verify_claim over a fixed case list: each order claim
# below its floor, above its envelope and at in-envelope orders, plus the
# range and dispatch cases.  The sha256 of each claim's cases is pinned, so
# a refactor of the harness that changes any byte of a report fails here.
PINNED_CASES = {
    "T1": [dict(n=n) for n in (2, 11, 3, 5, 7, 9)],
    "T2": [dict(n=n) for n in (4, 11, 5, 6, 8, 9)],
    "L2": [dict(n=n) for n in (5, 301, 6, 7, 40)],
    "L3": [dict(n_range=r) for r in ((26, 40), (25, 30))] + [dict(n=26)],
    "C1": [dict(n=n) for n in (2, 9, 3, 5, 7)],
    "C2": [dict(n=n) for n in (2, 65, 5, 6, 13, 20)],
    "T3a": [dict(n=n) for n in (2, 9, 3, 5, 7)],
    "T3b": [dict(n=n) for n in (2, 9, 3, 5, 7)],
    "T3c": [dict(n=n) for n in (2, 9, 3, 5, 7)],
    "P1": [dict(n=n) for n in (2, 11, 3, 6, 9)],
    "P2": [dict(n=n) for n in (0, 9, 1, 4, 7)],
    "P3": [dict(n=n) for n in (2, 11, 3, 8, 9)],
    "Q1": [dict(n=n) for n in (8, 11, 9)] + [{}],
    "FIG1": [dict(n=n) for n in (6, 12, 7, 8, 9, 11, 13)],
    "GAP": [{}, dict(n_range=(26, 30)), dict(n_range=(25, 30))],
}

PINNED_DIGESTS = {
    "T1": "eb5f52568bb886e02e7328b75b066ec6e1dc6cd2b9c046bc7142bf327f470438",
    "T2": "0a49b0a8ebc96e7317876c950dbbb8f87208484a5c5f1adfa248c7a8919b5aa6",
    "L2": "d58a9791854a100f888b9ea73a820ead8c5e36c15036e09f9788660a6d02a093",
    "L3": "a3d9ef16a2669fbf16ad5de58eca0d237a9c8312099609630657d2a6237a42b8",
    "C1": "01405bb390786adf9e504e6882c01cec4d8d81346f5cadc2782e3144d326ef1a",
    "C2": "61636026b0cc2ea6a3dac6c27d71ab160a1463d931eace3ed94b0a7647d4c317",
    "T3a": "b674b3b2ef3d6490a7a97c29a4810d3aeb06dba27bb6908877908058762ecbb9",
    "T3b": "af3b7a21970f064c939890be1ff40e102214452cfe680d5c8725f45d5edb8d3a",
    "T3c": "0ac30684971f3cb1a6dd54f6918981647717792fb9c4caf1c69d7da06baefb72",
    "P1": "479a65a07bb90832aaadf8cd63103362fe9da92035ad664d75cee94d81c7b70a",
    "P2": "e5ff0975e4bb41994bdc29ba99b51ba91a9837188b6bd3a1dbb464dd2199badd",
    "P3": "df271a5b2fc39417b42b4a38d2dcfe8d3f3b6a117cfd454fec85b0b2bba93b04",
    "Q1": "129b50e573171cf13501ff6c661832d0bdb23bc2a1dac8a34565a1df52237a26",
    "FIG1": "5f12ad55ad9fa54e3383a95ee68933832a25d8af87fdd57c0fcaaa0cd48dc80d",
    "GAP": "c69b569eb39c15a18d563ef9534accddafaf6c974512d3474ceae6ab555086ef",
}


# sha256 of the order-8 census columns, each array's bytes in census order,
# and of the whole order-8 report of each distance-sum claim, as
# _pinned_outcome gives it; computed before the census and its columns were
# built in one pass
ORDER_EIGHT_COLUMNS_SHA256 = "6ac2721a42e7e2e98c381caa7e1454624cc364bf86db730114cc3b56cebe468f"
ORDER_EIGHT_DIGESTS = {
    "C1": "f8efff46d371c125929571e503eb1cfca85bb150ef448902a227a3a476d2cb60",
    "T3a": "49a1a40e42abd87455489da78b45bca22e5d04c85f43a8156c911c0217a2cceb",
    "T3b": "2adb54accc4e366fd9266493f51204eca47a936c5be5671398058948712fcf77",
    "T3c": "0d12f37a640040ce817d075a04faccf3765aa7fbccab66e254ec0a64d36f739a",
    "P2": "b8947819d6265caf6090761212fa2791b69c7c496c94572d4ff9b64a920ccaca",
}


def test_order_eight_columns_and_reports_match_their_pinned_digests():
    h = hashlib.sha256()
    for col in census_columns(8):
        h.update(col.tobytes())
    assert h.hexdigest() == ORDER_EIGHT_COLUMNS_SHA256
    digests = {claim: hashlib.sha256(repr(_pinned_outcome(claim, {"n": 8})).encode())
               .hexdigest() for claim in ORDER_EIGHT_DIGESTS}
    assert digests == ORDER_EIGHT_DIGESTS


def _pinned_outcome(claim, kwargs):
    try:
        r = verify_claim(claim, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (r.claim_id, r.params, r.status, r.witnesses, r.notes)


def test_claim_reports_match_their_pinned_digests(census9):
    digests = {
        claim: hashlib.sha256(repr(
            [_pinned_outcome(claim, kw) for kw in cases]).encode()).hexdigest()
        for claim, cases in PINNED_CASES.items()
    }
    assert digests == PINNED_DIGESTS
