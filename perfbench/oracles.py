"""Checks of wienerlab's outputs that do not use wienerlab.

Every expected value here comes from OEIS, from networkx, from the
benchmark's own breadth-first search, or from a closed form derived below,
never from a stored copy of the program's output.  Each ``check_*`` function
returns ``{operation name: [problems]}``; an empty list means the operation
agreed with its oracle.
"""
from __future__ import annotations

import random
import re
import warnings
from collections import deque
from itertools import combinations
from typing import Iterable, Optional, Sequence

import networkx as nx

# OEIS, indexed by order n >= 1
A003049 = (1, 0, 1, 1, 4, 8, 37, 184, 1782, 31026)   # connected Eulerian graphs
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)           # connected graphs
A002218 = (1, 1, 1, 3, 10, 56, 468, 7123)             # 2-connected graphs
A007146 = (1, 0, 1, 3, 11, 60, 502, 7403)             # 2-edge-connected graphs


def oeis(table: Sequence[int], n: int) -> int:
    if not 1 <= n <= len(table):
        raise KeyError(f"order {n} is outside the table")
    return table[n - 1]


# ---------------------------------------------------------------------------
# closed forms and the benchmark's own BFS


def cycle_wiener(k: int) -> int:
    """W(C_k): each of the k vertices has transmission floor(k^2/4)."""
    return k * (k * k // 4) // 2


def one_point_union_wiener(n: int, a: int) -> int:
    """W of cycles C_a and C_b sharing one vertex, b = n + 1 - a.

    A pair split by the shared vertex c has distance d(x, c) + d(c, y), so
    the cross pairs add (b-1) sigma_a(c) + (a-1) sigma_b(c), where
    sigma_k(c) = floor(k^2/4) is a vertex's transmission in C_k.
    """
    b = n + 1 - a
    return (cycle_wiener(a) + cycle_wiener(b)
            + (a - 1) * (b * b // 4) + (b - 1) * (a * a // 4))


def bfs_wiener(n: int, edges: Iterable[tuple[int, int]]) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        if min(dist) < 0:
            raise ValueError("disconnected")
        total += sum(dist)
    return total // 2


def ring(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def chord_triangle_edges(n: int, j: int, k: int) -> list[tuple[int, int]]:
    """C_n plus the chords of the triangle on positions 0, j, k."""
    return ring(n) + [(0, j), (j, k), (0, k)]


def edge_glued_edges(n: int, a: int) -> list[tuple[int, int]]:
    """Cycles of lengths a and n + 2 - a sharing the edge 0-1."""
    first = [(i, i + 1) for i in range(a - 1)] + [(a - 1, 0)]
    second_path = [1] + list(range(a, n)) + [0]
    return first + list(zip(second_path, second_path[1:]))


def chain_graph(lengths: Sequence[int]) -> nx.Graph:
    """Cycles glued in a row at single vertices; in each cycle the vertex
    it shares with the previous cycle and the one it shares with the next
    sit floor(length/2) apart."""
    g = nx.Graph()
    entry, nxt = 0, 1
    g.add_node(0)
    for length in lengths:
        ids = [entry] + list(range(nxt, nxt + length - 1))
        nxt += length - 1
        nx.add_cycle(g, ids)
        entry = ids[length // 2]
    return g


def vertex_glued_graph(n: int, a: int) -> nx.Graph:
    g = nx.cycle_graph(a)
    nx.add_cycle(g, [0] + list(range(a, n)))
    return g


# ---------------------------------------------------------------------------
# census rows against networkx


class Census:
    """Graph6 rows parsed by networkx, with each graph's distances."""

    def __init__(self, lines: Sequence[str], order: int, even: bool,
                 weights: Optional[Sequence[int]] = None) -> None:
        self.lines = list(lines)
        self.order = order
        self.problems: list[str] = []
        self.graphs = [nx.from_graph6_bytes(s.encode()) for s in self.lines]
        self.dist = [dict(nx.all_pairs_shortest_path_length(g)) for g in self.graphs]
        self.wiener = []
        for i, (s, g) in enumerate(zip(self.lines, self.graphs)):
            if g.number_of_nodes() != order or not nx.is_connected(g):
                self.problems.append(f"{s}: not a connected graph of order {order}")
                self.wiener.append(None)
                continue
            if even and any(d % 2 for _, d in g.degree()):
                self.problems.append(f"{s}: a vertex has odd degree")
            w = nx.wiener_index(g)
            self.wiener.append(int(w))
            if weights is not None and weights[i] != w:
                self.problems.append(f"{s}: W = {weights[i]}, networkx gives {w}")
        if len(set(self.lines)) != len(self.lines):
            self.problems.append("duplicate rows")
        self.problems += self._isomorphic_pairs()

    def _isomorphic_pairs(self) -> list[str]:
        buckets: dict[tuple, list[int]] = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # hash-version notice of networkx 3.5+
            for i, (g, d) in enumerate(zip(self.graphs, self.dist)):
                deg = dict(g.degree())
                key = (nx.weisfeiler_lehman_graph_hash(g), tuple(sorted(
                    (deg[v], tuple(sorted((d[v][u], deg[u]) for u in d[v])))
                    for v in g)))
                buckets.setdefault(key, []).append(i)
        out = []
        for members in buckets.values():
            for i, j in combinations(members, 2):
                if nx.is_isomorphic(self.graphs[i], self.graphs[j]):
                    out.append(f"{self.lines[i]} and {self.lines[j]} are isomorphic")
        return out

    def count_problem(self, table: Sequence[int], label: str) -> list[str]:
        want = oeis(table, self.order)
        if len(self.lines) != want:
            return [f"{len(self.lines)} {label} classes, OEIS gives {want}"]
        return []

    def diameter(self, i: int) -> int:
        return nx.diameter(self.graphs[i], e=nx.eccentricity(self.graphs[i], sp=self.dist[i]))

    def find(self, graph: nx.Graph) -> list[str]:
        return [s for s, g in zip(self.lines, self.graphs) if nx.is_isomorphic(g, graph)]


def _claim(ops: dict, name: str, problems: list[str],
           witnesses: Optional[Iterable[str]] = None,
           notes: Sequence[str] = ()) -> list[str]:
    """Compare a verified claim report with what the oracle derived."""
    report = ops.get(name)
    if report is None:
        return problems
    if report["status"] != "verified":
        problems.append(f"{name}: status {report['status']}, oracle says verified: "
                        f"{report['notes']}")
    if witnesses is not None and sorted(report["witnesses"]) != sorted(witnesses):
        problems.append(f"{name}: witnesses {report['witnesses']}, oracle gives "
                        f"{sorted(witnesses)}")
    for fragment in notes:
        if fragment not in report["notes"]:
            problems.append(f"{name}: notes lack {fragment!r}: {report['notes']}")
    return problems


def _values(ops: list) -> dict:
    return {op["name"]: op["value"] for op in ops if "value" in op}


def _unchecked(ops: list, out: dict[str, list[str]]) -> dict[str, list[str]]:
    """The claims are judged from the checked census, so when the census is
    missing or wrong every claim is left unjudged, which counts as a problem."""
    for op in ops:
        out.setdefault(op["name"], ["unchecked: the census failed or disagreed with "
                                    "its oracle"])
    return out


# ---------------------------------------------------------------------------
# workloads


def check_eulerian9(ops: list, rng: random.Random) -> dict[str, list[str]]:
    n = 9
    vals = _values(ops)
    out: dict[str, list[str]] = {}
    rows = vals.get("census")
    if rows is None:
        return _unchecked(ops, out)
    census = Census([r[2] for r in rows], n, even=True, weights=[r[0] for r in rows])
    problems = census.problems + census.count_problem(A003049, "Eulerian")
    for r, g in zip(rows, census.graphs):
        if r[1] != g.number_of_edges():
            problems.append(f"{r[2]}: m = {r[1]}, networkx gives {g.number_of_edges()}")
    if rows != sorted(rows, key=lambda r: (-r[0], r[1], r[2])):
        problems.append("rows are not sorted by descending W, then m, then graph6")
    out["census"] = problems
    if problems:
        return _unchecked(ops, out)
    w = census.wiener
    by_w = sorted(set(w), reverse=True)
    top = [s for s, x in zip(census.lines, w) if x == by_w[0]]
    second = [s for s, x in zip(census.lines, w) if x == by_w[1]]
    least = [s for s, x in zip(census.lines, w) if x == by_w[-1]]
    cyc, chain, kn = census.find(nx.cycle_graph(n)), census.find(chain_graph((4, 4, 3))), \
        census.find(nx.complete_graph(n))

    t1 = [] if top == cyc and by_w[0] == cycle_wiener(n) else [f"T1: maximizers {top}"]
    out["T1"] = _claim(vals, "T1", t1, witnesses=cyc)
    t2 = [] if second == chain and by_w[1] > one_point_union_wiener(n, 3) \
        else [f"T2: runner-up set {second} is not the [4,4,3] chain alone"]
    out["T2"] = _claim(vals, "T2", t2, witnesses=second)
    p1 = [] if least == kn and by_w[-1] == n * (n - 1) // 2 else [f"P1: minimizers {least}"]
    out["P1"] = _claim(vals, "P1", p1, witnesses=kn)

    diam2 = [i for i in range(len(rows)) if census.diameter(i) <= 2]
    m_min = min(rows[i][1] for i in diam2)
    attainers = [rows[i][2] for i in diam2 if rows[i][1] == m_min]
    friendship = census.find(nx.windmill_graph((n - 1) // 2, 3))
    p3 = [] if m_min == 3 * (n - 1) // 2 and friendship[0] in attainers \
        else [f"P3: smallest diameter-2 size {m_min}, attainers {attainers}"]
    out["P3"] = _claim(vals, "P3", p3, witnesses=attainers)

    q1, fragments = [], []
    for m in range(n - 1, 3 * (n - 1) // 2):
        group = [(x, s) for x, (_, mm, s) in zip(w, rows) if mm == m]
        if not group:
            fragments.append(f"m={m}: none")
            continue
        low = min(x for x, _ in group)
        if low <= n * (n - 1) - m:
            q1.append(f"Q1: minimum {low} at m={m} is on the diameter-2 floor")
        k = sum(1 for x, _ in group if x == low)
        fragments.append(f"m={m}: min W = {low} ({k} witness(es))")
    out["Q1"] = _claim(vals, "Q1", q1, notes=fragments)
    fig = [] if chain and chain == second else ["FIG1: the [4,4,3] chain is not in second place"]
    out["FIG1"] = _claim(vals, "FIG1", fig, witnesses=chain,
                         notes=[f"second place W = {by_w[1]}"])
    return out


def check_connected8(ops: list, rng: random.Random) -> dict[str, list[str]]:
    n = 8
    vals = _values(ops)
    out: dict[str, list[str]] = {}
    lines = vals.get("census")
    if lines is None:
        return _unchecked(ops, out)
    census = Census(lines, n, even=False)
    problems = census.problems + census.count_problem(A001349, "connected")
    if lines != sorted(lines):
        problems.append("rows are not sorted")
    biconnected = [i for i, g in enumerate(census.graphs) if nx.is_biconnected(g)]
    bridgeless = [i for i, g in enumerate(census.graphs) if not nx.has_bridges(g)]
    if len(biconnected) != oeis(A002218, n):
        problems.append(f"{len(biconnected)} 2-connected classes, OEIS A002218 gives "
                        f"{oeis(A002218, n)}")
    if len(bridgeless) != oeis(A007146, n):
        problems.append(f"{len(bridgeless)} 2-edge-connected classes, OEIS A007146 gives "
                        f"{oeis(A007146, n)}")
    out["census"] = problems
    if problems:
        return _unchecked(ops, out)
    d = census.dist

    def transmissions(i: int) -> list[int]:
        return [sum(d[i][v].values()) for v in range(n)]

    pair_cap = sum(min(y - 1, n - y) for y in range(2, n))   # C_n, pair {0, 1}
    worst_pair = max(
        sum(min(d[i][y][u], d[i][y][v]) for y in range(n) if y not in (u, v))
        for i in biconnected for u, v in combinations(range(n), 2))
    c1 = [] if worst_pair <= pair_cap else [f"C1: a pair reaches {worst_pair} > {pair_cap}"]
    out["C1"] = _claim(vals, "C1", c1, notes=[
        f"in {len(biconnected)} two-connected graphs", f"value {pair_cap}"])

    cap = cycle_wiener(n)
    attain = [lines[i] for i in bridgeless if census.wiener[i] >= cap]
    cyc = census.find(nx.cycle_graph(n))
    t3a = [] if attain == cyc else [f"T3a: W >= {cap} at {attain}"]
    out["T3a"] = _claim(vals, "T3a", t3a, witnesses=cyc, notes=[
        f"{len(bridgeless)} two-edge-connected graphs; W <= {cap}"])

    top_b = max(max(transmissions(i)) for i in biconnected)
    t3b = [] if top_b == n * n // 4 else [f"T3b: largest transmission {top_b}"]
    out["T3b"] = _claim(vals, "T3b", t3b, notes=[
        f"of {len(biconnected)} two-connected graphs stay at or below {n * n // 4}"])
    top_e = max(max(transmissions(i)) for i in bridgeless)
    t3c = [] if top_e <= n * (n - 1) // 3 else [f"T3c: largest transmission {top_e}"]
    out["T3c"] = _claim(vals, "T3c", t3c, notes=[
        f"of {len(bridgeless)} two-edge-connected graphs stay at or below {n * (n - 1) // 3}"])

    p2 = []
    for i, g in enumerate(census.graphs):
        floor = n * (n - 1) - g.number_of_edges()
        diam = nx.diameter(g)
        if census.wiener[i] < floor or (census.wiener[i] == floor) != (diam <= 2):
            p2.append(f"P2: {lines[i]} has W {census.wiener[i]}, floor {floor}, "
                      f"diameter {diam}")
    out["P2"] = _claim(vals, "P2", p2, notes=[f"on all {len(lines)} connected graphs"])
    return out


def check_sweeps(ops: list, rng: random.Random) -> dict[str, list[str]]:
    vals = _values(ops)
    out: dict[str, list[str]] = {}

    if "L2" in vals:
        n = 300
        chain = [(int(w), int(a)) for w, a in
                 re.findall(r"(\d+)\(a=(\d+)\)", vals["L2"]["notes"])]
        l2 = []
        if sorted(a for _, a in chain) != list(range(3, (n + 1) // 2 + 1)):
            l2.append(f"L2: splits {[a for _, a in chain]} do not cover 3..{(n + 1) // 2}")
        l2 += [f"L2: W = {w} at a={a}, the one-point-union identity gives "
               f"{one_point_union_wiener(n, a)}"
               for w, a in chain if w != one_point_union_wiener(n, a)]
        if any(x <= y for (x, _), (y, _) in zip(chain, chain[1:])):
            l2.append("L2: printed chain is not strictly decreasing")
        out["L2"] = _claim(vals, "L2", l2)

    if "C2" in vals:
        n = 64
        cap = one_point_union_wiener(n, 3)
        places = [(j, k) for j in range(2, n - 3) for k in range(j + 2, n - 1)]
        c2 = []
        for j, k in rng.sample(places, 40):
            w = bfs_wiener(n, chord_triangle_edges(n, j, k))
            if w >= cap:
                c2.append(f"C2: triangle (0,{j},{k}) gives W = {w}, not below {cap}")
        out["C2"] = _claim(vals, "C2", c2, notes=[
            f"all {len(places)} triangle placements", f"below W = {cap}"])

    if "L3" in vals:
        l3 = []
        for _ in range(16):
            n = rng.randint(26, 500)
            a = rng.choice([4, n - 2, rng.randint(5, n - 3)])
            w, cap = bfs_wiener(n, edge_glued_edges(n, a)), one_point_union_wiener(n, 3)
            if w > cap or (w == cap) != (a in (4, n - 2)):
                l3.append(f"L3: edge-glued (n={n}, a={a}) has W = {w} against cap {cap}")
        out["L3"] = _claim(vals, "L3", l3)

    if "GAP" in vals:
        out["GAP"] = _claim(vals, "GAP", [], notes=["on n in [26, 500]"])

    if "FIG1" in vals:
        chain = chain_graph((4, 4, 4, 4))
        w_chain = nx.wiener_index(chain)
        w_glued = nx.wiener_index(vertex_glued_graph(13, 3))
        fig = [] if w_chain == w_glued == 248 == one_point_union_wiener(13, 3) \
            else [f"FIG1: chain W = {w_chain}, C(13,3) W = {w_glued}"]
        wit = vals["FIG1"]["witnesses"]
        if len(wit) != 1 or not nx.is_isomorphic(nx.from_graph6_bytes(wit[0].encode()), chain):
            fig.append(f"FIG1: witnesses {wit} are not the [4,4,4,4] chain")
        out["FIG1"] = _claim(vals, "FIG1", fig, notes=["W(catalog) = 248"])
    return out


def check_pool_lines(enum_lines: list[str], order: int) -> list[str]:
    """The merged output of the CLI's shards: every class exactly once."""
    census = Census(enum_lines, order, even=True)
    return census.problems + census.count_problem(A003049, "Eulerian")


def check_wiener_stage(fed: list[str], out_lines: list[str]) -> list[str]:
    if len(out_lines) != len(fed):
        return [f"wiener printed {len(out_lines)} lines for {len(fed)} inputs"]
    problems = []
    for s, line in zip(fed, out_lines):
        g6, _, w = line.partition(" ")
        if g6 != s:
            problems.append(f"wiener line {line!r} does not echo its input {s}")
        elif w != str(int(nx.wiener_index(nx.from_graph6_bytes(s.encode())))):
            problems.append(f"wiener line {line!r}: networkx disagrees")
    return problems


def check_partition(shards: list[list[str]], unsharded: list[str]) -> list[str]:
    seen: set[str] = set()
    problems = []
    for i, part in enumerate(shards):
        overlap = seen.intersection(part)
        if overlap:
            problems.append(f"shard {i} repeats {sorted(overlap)[:3]}")
        seen.update(part)
    if seen != set(unsharded) or sum(map(len, shards)) != len(unsharded):
        problems.append("the shard union differs from the unsharded enumeration")
    return problems


CHECKS = {
    "eulerian9": check_eulerian9,
    "connected8": check_connected8,
    "sweeps": check_sweeps,
}
