"""Canonical forms, canonical labelings, and automorphism generators.

Equitable-partition refinement with individualization and backtracking.
A leaf of the search tree is a discrete ordered partition, read off as a
relabeling; the leaf whose relabeled upper-triangle adjacency bitstring is
lexicographically smallest defines the canonical form.  A leaf reproducing
the bitstring of an earlier leaf certifies an automorphism, and discovered
automorphisms prune sibling branches: two target-cell vertices in one orbit
of the stabilizer of the individualized prefix head isomorphic subtrees, so
only the first is explored.

The low-level entry point :func:`canon_rows` works on bitmask adjacency rows
and is what the isomorph-free generator calls in its hot loop; the wrappers
below operate on :class:`~wienerlab.graphs.Graph` values.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, graph6_encode, relabel

Perm = tuple[int, ...]


def _refine(rows: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable ordered partition refining ``cells``.

    Splits every cell by the vector of neighbor counts into the current
    cells, orders fragments by that vector, and repeats until stable.  The
    fragment ordering depends only on isomorphism-invariant data, so two
    isomorphic graphs refine along corresponding partitions.
    """
    while True:
        masks = [0] * len(cells)
        for i, c in enumerate(cells):
            m = 0
            for v in c:
                m |= 1 << v
            masks[i] = m
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
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


def _leaf_bits(n: int, rows: Sequence[int], pos: Sequence[int]) -> int:
    """Upper-triangle adjacency bitstring of the relabeled graph, packed into
    an int with the (0,1) entry most significant."""
    bits = 0
    for i in range(n):
        ri = rows[pos[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | ((ri >> pos[j]) & 1)
    return bits


def _orbit_roots(n: int, perms: Sequence[Perm]) -> list[int]:
    """Union-find roots of the orbit partition generated by ``perms``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for a in range(n):
            ra, rb = find(a), find(p[a])
            if ra != rb:
                parent[ra] = rb
    return [find(x) for x in range(n)]


def _search(
    n: int, rows: Sequence[int], cells0: list[list[int]]
) -> tuple[list[int], list[Perm]]:
    """Backtracking core.  Returns (canonical position list, generators).

    The position list maps canonical position -> original vertex.
    """
    best_bits: Optional[int] = None
    best_pos: Optional[list[int]] = None
    first_bits: Optional[int] = None
    first_pos: Optional[list[int]] = None
    gens: list[Perm] = []
    gen_seen: set[Perm] = set()

    identity = tuple(range(n))

    def note_automorphism(p: Sequence[int], q: Sequence[int]) -> None:
        gamma = [0] * n
        for i in range(n):
            gamma[p[i]] = q[i]
        t = tuple(gamma)
        if t != identity and t not in gen_seen:
            gen_seen.add(t)
            gens.append(t)

    def rec(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal best_bits, best_pos, first_bits, first_pos
        target = -1
        tsize = n + 1
        for idx, c in enumerate(cells):
            lc = len(c)
            if 1 < lc < tsize:
                target = idx
                tsize = lc
        if target < 0:
            pos = [c[0] for c in cells]
            bits = _leaf_bits(n, rows, pos)
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
        head = cells[:target]
        tail = cells[target + 1 :]
        tried: list[int] = []
        for v in tcell:
            if tried:
                stab = [g for g in gens if all(g[x] == x for x in fixed)]
                if stab:
                    roots = _orbit_roots(n, stab)
                    rv = roots[v]
                    if any(roots[w] == rv for w in tried):
                        continue
            tried.append(v)
            rest = [w for w in tcell if w != v]
            fixed.append(v)
            rec(_refine(rows, head + [[v], rest] + tail), fixed)
            fixed.pop()

    rec(cells0, [])
    assert best_pos is not None
    return best_pos, gens


def canon_rows(n: int, rows: Sequence[int]) -> tuple[Perm, list[Perm]]:
    """Canonicalize a bitmask-adjacency graph.

    Returns ``(order, generators)`` where ``order[i]`` is the original vertex
    placed at canonical position ``i``, and the generators generate the
    automorphism group.
    """
    if n == 0:
        return (), []
    pos, gens = _search(n, rows, _refine(rows, [list(range(n))]))
    return tuple(pos), gens


def canonical_permutation(g: Graph) -> Perm:
    """Relabeling ``v -> perm[v]`` sending ``g`` to its canonical form."""
    pos, _ = canon_rows(g.n, g.rows)
    perm = [0] * g.n
    for i, v in enumerate(pos):
        perm[v] = i
    return tuple(perm)


def canonical_graph(g: Graph) -> Graph:
    return relabel(g, canonical_permutation(g))


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal exactly for
    isomorphic graphs."""
    return graph6_encode(canonical_graph(g))


def automorphism_generators(g: Graph) -> list[Perm]:
    """Generators of the automorphism group (possibly empty, never identity)."""
    return canon_rows(g.n, g.rows)[1]


def automorphism_group_order(g: Graph, limit: int = 10**6) -> int:
    """Order of the automorphism group by explicit closure of the generators.

    Intended for small graphs; raises ValueError if the group exceeds
    ``limit`` elements.
    """
    gens = automorphism_generators(g)
    if not gens:
        return 1
    n = g.n
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                c = tuple(e[s[v]] for v in range(n))
                if c not in elems:
                    if len(elems) >= limit:
                        raise ValueError("automorphism group larger than limit")
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(elems)
