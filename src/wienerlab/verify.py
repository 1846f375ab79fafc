"""Claim-by-claim verification harness.

Each check answers one question about Wiener indices of small Eulerian (or
2-connected / 2-edge-connected) graphs and returns a ClaimReport with a
machine-readable verdict.  Claim ids are short protocol codes shared with the
command line; CLAIM_IDS is the registry's key order (T1, T2, L2, L3, C1, C2,
T3a, T3b, T3c, P1, P2, P3, Q1, FIG1, GAP).

One registry holds what the claims share.  Each claim is a body under a
``_claim`` decorator (one order n) or a ``_range_claim`` decorator (the
orders n_lo..n_hi of L3 and GAP), and the body returns only (status,
witnesses, notes).  The decorator line is the one place for a claim's order
floor and too-small message, its envelope and its skip note.  The verifier
it registers in CLAIM_VERIFIERS, which verify_claim dispatches on, raises
ValueError below the floor, reports skipped_out_of_envelope above the
envelope rather than truncating silently, times the body and builds the
report.  The envelopes: full Eulerian enumeration up to order 10,
unrestricted enumeration up to order 8, glued-cycle BFS up to order 300,
triangle placements up to order 64.  C1, T3a-c and P2 scan
census_columns(n), built in one cached pass with the connected census from
the rows the enumerator yields; only a class that fails is decoded.
"""
from __future__ import annotations

import functools
import time
from array import array
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .canon import canonical_form
from .families import (
    RUNNER_UP_ORDERS,
    complete,
    cocktail_party,
    cycle,
    edge_glued_cycles,
    runner_up_catalog,
    sparse_diameter_two,
    vertex_glued_cycles,
)
from .formulas import (
    connectivity_bounds,
    min_size_diameter_two,
    min_wiener_eulerian,
    second_place_gap_numerator,
    wiener_cycle,
    wiener_edge_glued,
    wiener_lower_bound,
    wiener_vertex_glued_triangle,
)
from .generate import EnumFilter, EnumPartition, enumerate_graphs, map_shards
from .graphs import (
    Graph,
    _balls,
    _parts,
    build_graph,
    diameter,
    graph6_decode,
    graph6_encode,
    is_eulerian,
    is_even_graph,
    sigma_set,
    sigma_vertex,
    wiener,
)

VERIFIED = "verified"
VIOLATED = "violated"
SKIPPED = "skipped_out_of_envelope"

EULERIAN_ENVELOPE = 10   # full census of connected even-degree graphs
GENERAL_ENVELOPE = 8     # full census of all connected graphs
CHAIN_ENVELOPE = 300     # per-graph BFS on glued-cycle families
TRIANGLE_ENVELOPE = 64   # all triangle placements on a cycle, up to rotation


class ClaimReport(NamedTuple):
    claim_id: str
    params: tuple[tuple[str, object], ...]
    status: str
    witnesses: tuple[str, ...]
    elapsed: float
    notes: str

    def param_dict(self) -> dict:
        return dict(self.params)


# ---------------------------------------------------------------------------
# Claim registry


Outcome = tuple[str, Sequence[str], str]  # what a claim body returns: status, witnesses, notes

CLAIM_VERIFIERS: dict[str, Callable[..., ClaimReport]] = {}
_RANGE_DEFAULTS: dict[str, Optional[tuple[int, int]]] = {}  # range claim -> range run without one


def _timed(claim_id: str, params: dict, run: Callable[[], Outcome]) -> ClaimReport:
    """Time run() and wrap the (status, witnesses, notes) it returns."""
    t0 = time.perf_counter()
    status, witnesses, notes = run()
    return ClaimReport(claim_id, tuple(sorted(params.items())), status,
                       tuple(witnesses), time.perf_counter() - t0, notes)


def _claim(claim_id: str, floor: Optional[int] = 3, too_small: str = "",
           envelope: Optional[int] = None,
           skip_note: str = "exhaustive check requires n <= {}"):
    """Register body(n, jobs) -> Outcome as the verifier of one order n.

    The verifier ``(n, jobs=None) -> ClaimReport`` raises ValueError with
    too_small (default "order must be at least <floor>") for n < floor, and
    reports skipped_out_of_envelope with skip_note (formatted with the
    envelope) for n > envelope.  A floor or envelope of None is no bound.
    """
    def register(body: Callable[[int, Optional[int]], Outcome]) -> Callable[..., ClaimReport]:
        @functools.wraps(body)
        def verifier(n: int, jobs: Optional[int] = None) -> ClaimReport:
            if floor is not None and n < floor:
                raise ValueError(too_small or f"order must be at least {floor}")
            if envelope is not None and n > envelope:
                return _timed(claim_id, {"n": n},
                              lambda: (SKIPPED, (), skip_note.format(envelope)))
            return _timed(claim_id, {"n": n}, lambda: body(n, jobs))
        CLAIM_VERIFIERS[claim_id] = verifier
        return verifier
    return register


def _range_claim(claim_id: str, default: Optional[tuple[int, int]] = None):
    """Register body(n_lo, n_hi) -> Outcome as the verifier of the orders
    n_lo..n_hi, which must lie within [26, 5000].  default is the range
    swept when none is given; without one the claim requires a range."""
    def register(body: Callable[[int, int], Outcome]) -> Callable[..., ClaimReport]:
        @functools.wraps(body)
        def verifier(n_lo: int, n_hi: int) -> ClaimReport:
            if n_lo > n_hi:
                raise ValueError(f"empty range {n_lo}:{n_hi}, need A <= B")
            if n_lo < 26 or n_hi > 5000:
                raise ValueError("range must lie within [26, 5000]")
            return _timed(claim_id, {"n_lo": n_lo, "n_hi": n_hi},
                          lambda: body(n_lo, n_hi))
        verifier.__defaults__ = default
        CLAIM_VERIFIERS[claim_id] = verifier
        _RANGE_DEFAULTS[claim_id] = default
        return verifier
    return register


# ---------------------------------------------------------------------------
# Cached censuses


_eulerian_cache: dict[int, tuple[tuple[int, int, str], ...]] = {}
_connected_cache: dict[int, tuple[tuple[str, ...], CensusColumns]] = {}

# class counts by order: OEIS A003049 (connected Eulerian), A001349 (connected)
A003049 = {3: 1, 4: 1, 5: 4, 6: 8, 7: 37, 8: 184, 9: 1782, 10: 31026}
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _check_count(name: str, table: dict[int, int], n: int, found: int) -> None:
    """Raise before caching a census whose class count disagrees with OEIS."""
    if found != table[n]:
        raise RuntimeError(
            f"{found} classes in the order-{n} census, OEIS {name} gives {table[n]}"
        )


def _eulerian_shard(args: tuple[int, int, int]) -> list[tuple[int, int, str]]:
    n, total, index = args
    filt = EnumFilter(order=n, require_even_degrees=True)
    part = EnumPartition(total_shards=total, shard_index=index)
    return [(wiener(g), g.m, graph6_encode(g)) for g in enumerate_graphs(filt, part)]


def eulerian_census(n: int, jobs: Optional[int] = None) -> tuple[tuple[int, int, str], ...]:
    """All connected even-degree graphs of order n as (W, m, graph6) rows.

    Rows are canonically encoded and sorted by descending W, then size, then
    encoding.  Results are cached per order; jobs > 1 splits the generation
    tree across worker processes when map_shards starts a pool, from
    generate.POOL_MIN_ORDER on.
    """
    if n in _eulerian_cache:
        return _eulerian_cache[n]
    if not 3 <= n <= EULERIAN_ENVELOPE:
        raise ValueError(f"census supported for 3 <= n <= {EULERIAN_ENVELOPE}")
    rows = map_shards(_eulerian_shard, n, jobs, n)
    _check_count("A003049", A003049, n, len(rows))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    frozen = tuple(rows)
    _eulerian_cache[n] = frozen
    return frozen


def connected_census(n: int) -> tuple[str, ...]:
    """Sorted canonical graph6 of every connected graph of order n."""
    return _connected_pass(n)[0]


class CensusColumns(NamedTuple):
    """Invariants of the classes of connected_census(n), in census order."""

    size: array
    wiener: array
    diameter: array
    max_sigma: array      # largest vertex distance sum
    max_pair: array       # largest pair distance sum; 0 unless 2-connected
    biconnected: array    # 2-connected
    bridgeless: array     # 2-edge-connected


def census_columns(n: int) -> CensusColumns:
    """The columns of connected_census(n), built by the census pass."""
    return _connected_pass(n)[1]


def _invariants(g: Graph) -> tuple[int, ...]:
    """The CensusColumns values of one class, from the _parts of each vertex
    and one run of the all-sources ball kernel.  Its levels are stacked into
    one int, level d at bit d*n*n, and ``sel`` marks the first block of each
    level, so with L levels sigma(s) = n*L - |(stack >> s*n) & sel| and
    sigma({u, w}) = n*L - |(stack >> u*n | stack >> w*n) & sel|.  The vertices
    are the kernel's positions; every column is a sum or a maximum, so their
    order does not matter.  The pair sum is at most min(sigma(u), sigma(w)) - 1,
    since u adds d(u, w) to sigma(w) only; pairs are visited by that bound
    until it cannot beat the best."""
    n = g.n
    stack = sel = 0
    for d, level in enumerate(_balls(g)):
        stack |= level << d * n * n
        sel |= ((1 << n) - 1) << d * n * n
    full = n * (d + 1)
    tails = [stack >> s * n for s in range(n)]
    sums = [full - (tail & sel).bit_count() for tail in tails]
    # the rule of _parts: two or more make a cut vertex, a lone neighbour a bridge
    splits = [(row, _parts(g.rows, v)) for v, row in enumerate(g.rows)]
    biconnected = n >= 3 and all(len(parts) < 2 for _, parts in splits)
    bridgeless = all((p & row).bit_count() > 1 for row, parts in splits for p in parts)
    pair = 0
    if biconnected:
        by_sum = sorted(range(n), key=sums.__getitem__, reverse=True)
        for j, w in enumerate(by_sum):
            if sums[w] - 1 <= pair:
                break
            for u in by_sum[:j]:
                pair = max(pair, full - ((tails[u] | tails[w]) & sel).bit_count())
    return (g.m, sum(sums) // 2, d, max(sums), pair, biconnected,
            bridgeless)


def _connected_pass(n: int) -> tuple[tuple[str, ...], CensusColumns]:
    """The census of order n and its columns, from one enumeration cached as
    _connected_cache[n]: the columns are filled in emission order and
    permuted once into the sorted-graph6 order of the census.  Nothing is
    cached when the class count disagrees with OEIS."""
    if n in _connected_cache:
        return _connected_cache[n]
    if not 1 <= n <= GENERAL_ENVELOPE:
        raise ValueError(f"census supported for 1 <= n <= {GENERAL_ENVELOPE}")
    codes: list[str] = []
    cols = CensusColumns(*(array("H") for _ in CensusColumns._fields))
    for g in enumerate_graphs(EnumFilter(order=n, require_even_degrees=False)):
        codes.append(graph6_encode(g))
        for col, value in zip(cols, _invariants(g)):
            col.append(value)
    _check_count("A001349", A001349, n, len(codes))
    order = sorted(range(len(codes)), key=codes.__getitem__)
    _connected_cache[n] = (
        tuple(map(codes.__getitem__, order)),
        CensusColumns(*(array("H", map(col.__getitem__, order)) for col in cols)))
    return _connected_cache[n]


def _first_above(col: array, cap: int, flags: array) -> Optional[int]:
    """Census index of the first flagged class whose value exceeds cap."""
    return next((i for i, (f, v) in enumerate(zip(flags, col)) if f and v > cap), None)


def _sum_violation(n: int, col: array, flags: array, size: int,
                   cap: int) -> Optional[Outcome]:
    """Report on the first flagged class above cap, naming its first vertex
    (size 1) or pair (size 2) with distance sum above cap; else None."""
    i = _first_above(col, cap, flags)
    if i is None:
        return None
    g6 = connected_census(n)[i]
    g = graph6_decode(g6)
    a, s = next((a, s) for a in combinations(range(g.n), size)
                for s in [sigma_set(g, a)] if s > cap)
    where = f"vertex {a[0]}" if size == 1 else f"pair ({a[0]},{a[1]})"
    return VIOLATED, (g6,), f"{where} has distance sum {s} > {cap}"


def _second_place(n: int, jobs: Optional[int]) -> tuple[int, tuple[str, ...]]:
    """Largest Wiener value among non-cycle Eulerian classes, with its graphs."""
    cyc = canonical_form(cycle(n))
    rows = [r for r in eulerian_census(n, jobs) if r[2] != cyc]  # by descending W
    best = rows[0][0]
    return best, tuple(sorted(g6 for w, _, g6 in rows if w == best))


# ---------------------------------------------------------------------------
# Extremal claims


@_claim("T1", envelope=EULERIAN_ENVELOPE)
def verify_T1(n: int, jobs: Optional[int]) -> Outcome:
    """The cycle uniquely maximizes W among connected even-degree graphs."""
    rows = eulerian_census(n, jobs)
    w_max = rows[0][0]
    top = tuple(sorted(g6 for w, _, g6 in rows if w == w_max))
    expected = (canonical_form(cycle(n)),)
    if top == expected and w_max == wiener_cycle(n):
        return VERIFIED, expected, (
            f"max W = {w_max} over {len(rows)} classes; unique maximizer is the cycle")
    return VIOLATED, top, (
        f"maximizers at W = {w_max} are {list(top)}, expected the cycle alone "
        f"at {wiener_cycle(n)}")


@_claim("T2", floor=5, envelope=EULERIAN_ENVELOPE,
        skip_note="exhaustive check requires n <= {}; "
                  "see FIG1, L3 and GAP for the large-n evidence trail")
def verify_T2(n: int, jobs: Optional[int]) -> Outcome:
    """Second-largest W among connected even-degree graphs.

    Away from the sporadic orders the runner-up should be exactly the
    triangle-glued cycle; at orders 7 and 9 the cataloged cycle chain should
    stand alone above it; at orders 8 and 10 the claim is a two-way tie
    between the triangle-glued cycle and the cataloged chain.  The census
    refutes the tie at order 10: the chain [4,4,4] stands alone at W = 114,
    one above the triangle-glued cycle at 113, so the report there is
    ``violated`` with the chain as its single witness.
    """
    second, actual = _second_place(n, jobs)
    glued = canonical_form(vertex_glued_cycles(n, 3))
    if n in RUNNER_UP_ORDERS:
        chain = tuple(sorted(canonical_form(g) for g in runner_up_catalog(n)))
        if n in (7, 9):
            expected = chain
            description = "the cataloged chain alone, above the triangle-glued cycle"
        else:
            expected = tuple(sorted(chain + (glued,)))
            description = "a two-way tie of the triangle-glued cycle and the chain"
    else:
        expected = (glued,)
        description = "the triangle-glued cycle alone"
    if actual == expected:
        return VERIFIED, expected, (
            f"second-largest W = {second}; runner-up set is {description}")
    w_glued = wiener_vertex_glued_triangle(n)
    return VIOLATED, actual, (
        f"runner-up set at W = {second} is {list(actual)} but expected "
        f"{description} ({list(expected)}); triangle-glued cycle has W = {w_glued}")


def _chain_order(n: int) -> list[int]:
    """Claimed strictly-decreasing order of W over glued-cycle split sizes."""
    amax = (n + 1) // 2
    if n % 2 == 0:
        return list(range(3, amax + 1))
    if n == 7:
        return [4, 3]
    if n == 9:
        return [4, 3, 5]
    k = n // 4
    if n % 4 == 3:
        return list(range(3, 2 * k + 1)) + [2 * k + 2, 2 * k + 1]
    return list(range(3, 2 * k - 1)) + [2 * k, 2 * k - 1, 2 * k + 1]


@_claim("L2", floor=6, envelope=CHAIN_ENVELOPE,
        skip_note="BFS sweep supported for n <= {}")
def verify_L2(n: int, jobs: Optional[int]) -> Outcome:
    """Strict ordering of W over the one-cutvertex glued-cycle family."""
    order = _chain_order(n)
    values = {a: wiener(vertex_glued_cycles(n, a)) for a in order}
    for a, b in zip(order, order[1:]):
        if not values[a] > values[b]:
            witnesses = tuple(sorted(
                canonical_form(vertex_glued_cycles(n, x)) for x in (a, b)
            ))
            return VIOLATED, witnesses, (
                f"expected W at split {a} to exceed split {b}, got "
                f"{values[a]} vs {values[b]}")
    chain = " > ".join(f"{values[a]}(a={a})" for a in order)
    return VERIFIED, (), f"chain holds: {chain}"


@_range_claim("L3")
def verify_L3(n_lo: int, n_hi: int) -> Outcome:
    """Edge-glued pairs never beat the triangle-glued cycle; equality at {4, n-2}."""
    for n in range(n_lo, n_hi + 1):
        cap = wiener_vertex_glued_triangle(n)
        equal = []
        for a in range(4, n - 1):
            w = wiener_edge_glued(n, a)
            if w > cap:
                witness = canonical_form(edge_glued_cycles(n, a))
                return VIOLATED, (witness,), (
                    f"W = {w} at (n={n}, a={a}) exceeds the cap {cap}")
            if w == cap:
                equal.append(a)
        if equal != [4, n - 2]:
            witnesses = tuple(sorted(
                canonical_form(edge_glued_cycles(n, a)) for a in equal
            )) or (canonical_form(edge_glued_cycles(n, 4)),)
            return VIOLATED, witnesses, (
                f"equality set at n={n} is {equal}, expected [4, {n - 2}]")
    return VERIFIED, (), (
        f"swept n in [{n_lo}, {n_hi}], all splits in [4, n-2]; "
        "equality exactly at the two extreme splits")


# ---------------------------------------------------------------------------
# Distance-sum bounds over enumerated graphs


@_claim("C1", envelope=GENERAL_ENVELOPE)
def verify_C1(n: int, jobs: Optional[int]) -> Outcome:
    """Pair distance sums in 2-connected graphs never beat the cycle's adjacent pair."""
    bound = sigma_set(cycle(n), {0, 1})
    cols = census_columns(n)
    return _sum_violation(n, cols.max_pair, cols.biconnected, 2, bound) or (
        VERIFIED, (),
        f"all pairs in {sum(cols.biconnected)} two-connected graphs stay at or "
        f"below the cycle's adjacent-pair value {bound}")


@_claim("C2", envelope=TRIANGLE_ENVELOPE,
        skip_note="placement sweep supported for n <= {}")
def verify_C2(n: int, jobs: Optional[int]) -> Outcome:
    """Adding any off-cycle triangle of chords to C_n lands strictly below
    the triangle-glued cycle's Wiener value.

    W is computed once per rotation/reflection class of the arc triple
    (j, k - j, n - k) of a placement (0, j, k).  Rotating or reflecting the
    ring permutes the three arcs, every permutation of three arcs is one of
    these, and each is an isomorphism: placements with the same sorted arcs
    have the same W.  A later placement of a class therefore stays below
    the cap exactly when the first one did, and the loop, its first
    violation and that violation's witness are those of a BFS per placement.
    """
    if n < 6:
        return VERIFIED, (), "no off-cycle triangle placement exists; vacuously true"
    ring = [(i, (i + 1) % n) for i in range(n)]
    cap = wiener_vertex_glued_triangle(n)
    placements = 0
    checked: set[tuple[int, ...]] = set()  # sorted arc triples already run
    for j in range(2, n - 3):
        for k in range(j + 2, n - 1):
            placements += 1
            arcs = tuple(sorted((j, k - j, n - k)))
            if arcs in checked:
                continue
            checked.add(arcs)
            g = build_graph(n, ring + [(0, j), (j, k), (0, k)])
            w = wiener(g)
            if not w < cap:
                return VIOLATED, (canonical_form(g),), (
                    f"triangle at positions (0,{j},{k}) gives W = {w}, "
                    f"not below {cap}")
    return VERIFIED, (), (
        f"all {placements} triangle placements (up to rotation) stay below "
        f"W = {cap}")


@_claim("T3a", envelope=GENERAL_ENVELOPE)
def verify_T3a(n: int, jobs: Optional[int]) -> Outcome:
    """2-edge-connected graphs: W at most the cycle's, equality only for the cycle."""
    cap = connectivity_bounds(n)["max_wiener_two_edge_connected"]
    cyc = canonical_form(cycle(n))
    census, cols = connected_census(n), census_columns(n)
    i = _first_above(cols.wiener, cap, cols.bridgeless)
    if i is not None:
        return VIOLATED, (census[i],), f"W = {cols.wiener[i]} exceeds the cap {cap}"
    attainers = [g6 for g6, f, w in zip(census, cols.bridgeless,
                                        cols.wiener) if f and w == cap]
    if attainers != [cyc]:
        return VIOLATED, tuple(sorted(attainers)) or (cyc,), (
            f"graphs attaining W = {cap}: {attainers}, expected the cycle alone")
    return VERIFIED, (cyc,), (
        f"{sum(cols.bridgeless)} two-edge-connected graphs; W <= {cap} "
        "with the cycle the sole equality case")


@_claim("T3b", envelope=GENERAL_ENVELOPE)
def verify_T3b(n: int, jobs: Optional[int]) -> Outcome:
    """2-connected graphs: every vertex distance sum at most floor(n^2/4)."""
    cap = connectivity_bounds(n)["max_sigma_two_connected"]
    cycle_sigma = sigma_vertex(cycle(n), 0)
    if cycle_sigma != cap:
        return VIOLATED, (canonical_form(cycle(n)),), (
            f"cycle vertex distance sum {cycle_sigma} misses the cap {cap}")
    cols = census_columns(n)
    return _sum_violation(n, cols.max_sigma, cols.biconnected, 1, cap) or (
        VERIFIED, (),
        f"all vertices of {sum(cols.biconnected)} two-connected graphs stay "
        f"at or below {cap}; the cycle attains it")


@_claim("T3c", envelope=GENERAL_ENVELOPE)
def verify_T3c(n: int, jobs: Optional[int]) -> Outcome:
    """2-edge-connected graphs: every vertex distance sum at most n(n-1)/3."""
    cap = connectivity_bounds(n)["max_sigma_two_edge_connected"]
    cols = census_columns(n)
    return _sum_violation(n, cols.max_sigma, cols.bridgeless, 1, cap) or (
        VERIFIED, (),
        f"all vertices of {sum(cols.bridgeless)} two-edge-connected "
        f"graphs stay at or below {cap}")


# ---------------------------------------------------------------------------
# Minimum-side claims


@_claim("P1", envelope=EULERIAN_ENVELOPE)
def verify_P1(n: int, jobs: Optional[int]) -> Outcome:
    """Minimum W among connected even-degree graphs, with its unique attainer."""
    rows = eulerian_census(n, jobs)
    w_min = min(w for w, _, _ in rows)
    argmin = tuple(sorted(g6 for w, _, g6 in rows if w == w_min))
    extremal = complete(n) if n % 2 else cocktail_party(n)
    expected = (canonical_form(extremal),)
    name = "the complete graph" if n % 2 else "the complete graph minus a perfect matching"
    if w_min == min_wiener_eulerian(n) and argmin == expected:
        return VERIFIED, expected, (
            f"min W = {w_min} over {len(rows)} classes; unique minimizer is {name}")
    return VIOLATED, argmin, (
        f"min W = {w_min} attained by {list(argmin)}, expected "
        f"{min_wiener_eulerian(n)} uniquely at {name}")


@_claim("P2", floor=1, too_small="order must be positive", envelope=GENERAL_ENVELOPE)
def verify_P2(n: int, jobs: Optional[int]) -> Outcome:
    """W >= n(n-1) - m for connected graphs, equality exactly at diameter <= 2."""
    census, cols = connected_census(n), census_columns(n)
    for g6, m, w, d in zip(census, cols.size, cols.wiener, cols.diameter):
        floor = wiener_lower_bound(n, m)
        if w < floor:
            return VIOLATED, (g6,), f"W = {w} below the floor {floor}"
        if (w == floor) != (d <= 2):
            return VIOLATED, (g6,), ("equality/diameter mismatch: "
                                     f"W = {w}, floor = {floor}, diameter = {d}")
    return VERIFIED, (), (
        f"bound and equality characterization hold on all {len(census)} "
        "connected graphs")


@_claim("P3", envelope=EULERIAN_ENVELOPE)
def verify_P3(n: int, jobs: Optional[int]) -> Outcome:
    """Minimum size of diameter-2 connected even-degree graphs.

    The sharpness claim starts at order 9; below that the observed minimum
    is reported as data with no claim attached.
    """
    rows = sorted(eulerian_census(n, jobs), key=lambda r: (r[1], r[2]))
    best_m: Optional[int] = None
    attainers: list[str] = []
    for _, m, g6 in rows:
        if best_m is not None and m > best_m:
            break
        d = diameter(graph6_decode(g6))
        if d is not None and d <= 2:
            best_m = m
            attainers.append(g6)
    if best_m is None:
        return VIOLATED, (), "no diameter-2 class found at this order"
    if n < 9:
        return VERIFIED, tuple(sorted(attainers)), (
            f"no sharpness claim at this order; observed minimum size {best_m} "
            f"with {len(attainers)} attaining class(es) — new data")
    target = min_size_diameter_two(n)
    built = sparse_diameter_two(n)
    built_form = canonical_form(built)
    if best_m == target and built.m == target and built_form in attainers:
        return VERIFIED, tuple(sorted(attainers)), (
            f"minimum size is {target}, attained by {len(attainers)} class(es) "
            "including the stated construction")
    return VIOLATED, tuple(sorted(attainers)) or (built_form,), (
        f"observed minimum size {best_m} vs formula {target}; construction "
        f"size {built.m}, present: {built_form in attainers}")


# ---------------------------------------------------------------------------
# Minimum-Wiener table (open-question data) and its consistency check


class MinTableRow(NamedTuple):
    n: int
    m: int
    min_wiener: Optional[int]
    witnesses: tuple[str, ...]


def min_wiener_table(
    n: int, m_max: Optional[int] = None, jobs: Optional[int] = None
) -> tuple[MinTableRow, ...]:
    """Minimum W over connected even-degree graphs of order n, per size.

    Sizes run from n-1 up to m_max, default one below the diameter-2 size
    threshold (the regime the open question asks about); at n = 4 that
    leaves no size, and the table is empty.  Sizes with no graph get an
    empty row.
    """
    if not 3 <= n <= EULERIAN_ENVELOPE:
        raise ValueError(f"table supported for 3 <= n <= {EULERIAN_ENVELOPE}")
    threshold = 3 * (n - 1) // 2 if n % 2 else 2 * n - 5
    if m_max is None:
        m_max = threshold - 1
    elif not n - 1 <= m_max < threshold:
        raise ValueError(
            f"m_max must lie in [{n - 1}, {threshold - 1}] "
            "(strictly below the diameter-2 size threshold)"
        )
    rows = eulerian_census(n, jobs)
    out: list[MinTableRow] = []
    for m in range(n - 1, m_max + 1):
        group = [(w, g6) for w, mm, g6 in rows if mm == m]
        if not group:
            out.append(MinTableRow(n, m, None, ()))
            continue
        w_min = min(w for w, _ in group)
        wits = tuple(sorted(g6 for w, g6 in group if w == w_min))
        out.append(MinTableRow(n, m, w_min, wits))
    return tuple(out)


@_claim("Q1", floor=9, too_small="the question concerns orders 9 and up",
        envelope=EULERIAN_ENVELOPE)
def verify_Q1(n: int, jobs: Optional[int]) -> Outcome:
    """Open-question data: per-size minimum W below the diameter-2 threshold.

    Consistency requirements: witnesses re-validate, and every minimum sits
    strictly above the diameter-2 floor n(n-1) - m (no diameter-2 graph
    exists at these sizes).
    """
    summaries = []
    for row in min_wiener_table(n, jobs=jobs):
        if row.min_wiener is None:
            if row.m >= n:
                return VIOLATED, (canonical_form(cycle(n)),), (
                    f"no graph recorded at size {row.m}")
            summaries.append(f"m={row.m}: none")
            continue
        floor = wiener_lower_bound(n, row.m)
        if row.min_wiener <= floor:
            return VIOLATED, row.witnesses, (
                f"minimum {row.min_wiener} at size {row.m} does not exceed "
                f"the diameter-2 floor {floor}")
        for g6 in row.witnesses:
            g = graph6_decode(g6)
            if (g.n, g.m) != (n, row.m) or not is_even_graph(g) \
                    or wiener(g) != row.min_wiener:
                return VIOLATED, (g6,), f"witness fails re-validation at size {row.m}"
        summaries.append(
            f"m={row.m}: min W = {row.min_wiener} ({len(row.witnesses)} witness(es))"
        )
    return VERIFIED, (), (
        "table consistent, minima strictly above the diameter-2 floor; "
        + "; ".join(summaries))


# ---------------------------------------------------------------------------
# Runner-up catalog and gap polynomial


@_claim("FIG1", floor=None)  # runner_up_catalog raises for unsupported orders
def verify_FIG1(n: int, jobs: Optional[int]) -> Outcome:
    """Cataloged runner-up graphs: structure, and their claimed Wiener values.

    Within the enumeration envelope the catalog must sit inside the true
    runner-up set; at orders 11 and 13 the check is the claimed equality
    W(chain) = W(triangle-glued cycle) by direct computation.  The equality
    holds at order 13 (248 = 248) and is refuted at order 11, where the
    chain [3,4,4,3] has W = 150 against 149, so the report there is
    ``violated``.
    """
    catalog = runner_up_catalog(n)
    cyc = canonical_form(cycle(n))
    forms = [canonical_form(g) for g in catalog]
    witnesses = tuple(sorted(forms))
    problems: list[str] = []
    for g, form in zip(catalog, forms):
        if g.n != n:
            problems.append(f"catalog graph has order {g.n}")
        if not is_eulerian(g):
            problems.append(f"{form} is not Eulerian")
        if form == cyc:
            problems.append("catalog graph is the cycle")
    if len(set(forms)) != len(forms):
        problems.append("catalog contains isomorphic duplicates")
    if problems:
        return VIOLATED, witnesses, "; ".join(problems)
    if n <= EULERIAN_ENVELOPE:
        second, actual = _second_place(n, jobs)
        missing = [f for f in forms if f not in actual]
        values = [wiener(g) for g in catalog]
        if missing or any(v != second for v in values):
            return VIOLATED, witnesses, (
                f"catalog values {values} vs enumerated second place {second}; "
                f"absent from runner-up set: {missing}")
        glued_w = wiener_vertex_glued_triangle(n)
        tie = "ties" if glued_w == second else "strictly exceeds"
        return VERIFIED, witnesses, (
            f"catalog realizes the enumerated second place W = {second}; "
            f"it {tie} the triangle-glued cycle at {glued_w}")
    claimed = wiener_vertex_glued_triangle(n)
    values = [wiener(g) for g in catalog]
    if all(v == claimed for v in values):
        return VERIFIED, witnesses, (
            f"W(catalog) = {claimed} = W(triangle-glued cycle), as claimed")
    return VIOLATED, witnesses, (
        f"claimed tie fails: W(catalog) = {values} but the triangle-glued "
        f"cycle has W = {claimed}")


@_range_claim("GAP", default=(26, 500))
def verify_GAP(n_lo: int, n_hi: int) -> Outcome:
    """Second-place gap polynomial: positive, nondecreasing in the split,
    and matching the quoted quadratic at the triangle split."""
    for n in range(n_lo, n_hi + 1):
        prev: Optional[int] = None
        for a in range(3, (n + 1) // 2 + 1):
            v = second_place_gap_numerator(n, a)
            if v <= 0:
                return VIOLATED, (canonical_form(vertex_glued_cycles(n, a)),), (
                    f"gap numerator {v} at (n={n}, a={a}) is not positive")
            if prev is not None and v < prev:
                return VIOLATED, (canonical_form(vertex_glued_cycles(n, a)),), (
                    f"gap numerator decreases at (n={n}, a={a}): {prev} -> {v}")
            prev = v
    for i in range(100):
        n = n_lo + i
        want = 2 * n * n - 37 * n + 99
        got = second_place_gap_numerator(n, 3)
        if got != want:
            return VIOLATED, (canonical_form(vertex_glued_cycles(n, 3)),), (
                f"triangle-split numerator {got} != {want} at n={n}")
    return VERIFIED, (), (
        f"positive and nondecreasing on n in [{n_lo}, {n_hi}]; quadratic "
        "identity confirmed at 100 points")


# ---------------------------------------------------------------------------
# Dispatch


CLAIM_IDS = tuple(CLAIM_VERIFIERS)  # the order in which the claims above register


def verify_claim(
    claim_id: str,
    n: Optional[int] = None,
    n_range: Optional[tuple[int, int]] = None,
    jobs: Optional[int] = None,
) -> ClaimReport:
    """Run one claim check by protocol id: a range claim gets n_range (or its
    default range) and no n, every other claim gets n and jobs and no
    n_range."""
    if claim_id not in CLAIM_VERIFIERS:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    fn = CLAIM_VERIFIERS[claim_id]
    if claim_id in _RANGE_DEFAULTS:
        n_range = n_range or _RANGE_DEFAULTS[claim_id]
        if n_range is None:
            raise ValueError(f"claim {claim_id} requires a range of orders")
        if n is not None:
            raise ValueError(f"claim {claim_id} takes a range of orders, not an order")
        return fn(*n_range)
    if n is None:
        raise ValueError(f"claim {claim_id} requires an order")
    if n_range is not None:
        raise ValueError(f"claim {claim_id} takes an order, not a range")
    return fn(n, jobs=jobs)
