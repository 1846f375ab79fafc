"""Canonical forms and canonical labelings.

Equitable-partition refinement with individualization and backtracking.
Cells are bitmasks of vertices.  Refinement splits cells only against the
cells that just split (the fresh fragments of McKay & Piperno, "Practical
Graph Isomorphism II", 2014), counting neighbors bit-sliced, a whole cell at
a time; it yields the same ordered partitions as splitting against every
cell, see :func:`_refine`.  The search is one loop over an explicit stack
with one frame per node of the current path, so its depth is not bounded by
Python's recursion limit.  A leaf of the search tree is a discrete ordered
partition, read off as a relabeling; the leaf whose relabeled upper-triangle
adjacency bitstring is lexicographically smallest defines the canonical
form.  A leaf reproducing the bitstring of the first or the best leaf
certifies an automorphism.  Discovered automorphisms prune twice: the stack
is cut back to the frame of the deepest common ancestor of the two leaves
(backjumping), and two target-cell vertices in one orbit of the stabilizer
of the individualized prefix head isomorphic subtrees, so only the first is
explored.  A node
whose cells each hold twins is not searched at all: its first leaf stands
for every leaf below it, and a root partition that is discrete or holds
only twins returns that leaf before the search is set up.

The low-level entry point :func:`canon_rows` works on bitmask adjacency rows
and is what the isomorph-free generator calls in its hot loop;
:func:`canonical_form` names a :class:`~wienerlab.graphs.Graph` by the
graph6 string of its canonical relabeling.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, _bits, graph6_encode, relabel

Perm = tuple[int, ...]


def _refine(
    rows: Sequence[int], cells: list[int], fresh: Optional[list[int]] = None
) -> list[int]:
    """Coarsest equitable ordered partition refining ``cells``.

    A cell is the bitmask of its vertices.  Splits every cell by the vector
    of neighbor counts into the current cells, orders fragments by that
    vector, and repeats until stable.  The fragment ordering depends only on
    isomorphism-invariant data, so two isomorphic graphs refine along
    corresponding partitions.

    The vector is taken over the cells of ``fresh`` only (all cells when
    None), in partition order; after a pass the fresh cells are the
    fragments it made, minus the last fragment of each split cell.  That
    gives the same ordered partition, pass by pass, as the full vector.
    All vertices of a cell have the same count into each cell of the pass
    before.  So a cell that did not split adds a constant entry, and the last
    fragment of a split cell adds the parent's count minus the counts into
    its earlier siblings, which come before it in the vector; neither can
    split a cell or decide the order of two fragments.  A caller that
    splits one vertex v off a cell of an equitable partition passes
    ``[1 << v]`` for the same reason.

    The counts into a fresh cell are held bit-sliced: mask ``layers[i]``
    holds the vertices whose count has bit i set, so the counts of all
    vertices are summed at once, one adjacency row at a time.  A cell is
    then split by each layer, highest first, each part into the vertices
    without and with that bit: its fragments come out in ascending count
    order, with no per-vertex loop and no bound on the count.  Splitting by
    the fresh cells one after another orders the fragments by the count
    vector lexicographically.  A single-vertex fresh cell {w}, as in the
    first pass after an individualization, is the one layer ``rows[w]``.
    """
    if fresh is None:
        fresh = cells
    while fresh:
        split_by: list[int] = []
        for f in fresh:
            if not f & (f - 1):
                split_by.append(rows[f.bit_length() - 1])
                continue
            layers: list[int] = []
            while f:
                b = f & -f
                f ^= b
                carry = rows[b.bit_length() - 1]
                for i, layer in enumerate(layers):
                    layers[i] = layer ^ carry
                    carry &= layer
                    if not carry:
                        break
                else:
                    if carry:
                        layers.append(carry)
            split_by += reversed(layers)
        out: list[int] = []
        split_off: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts = [cell]
            for layer in split_by:
                halves = []
                for part in parts:
                    hit = part & layer
                    if hit != part:
                        halves.append(part ^ hit)
                    if hit:
                        halves.append(hit)
                parts = halves
            out += parts
            split_off += parts[:-1]
        cells = out
        fresh = split_off
    return cells


def _leaf_bits(n: int, rows: Sequence[int], pos: Sequence[int]) -> int:
    """Upper-triangle adjacency bitstring of the relabeled graph, packed into
    an int with the (0,1) entry most significant.

    Row i of the relabeled graph is built with the vertex at position j on
    bit n - 1 - j, so its entries right of the diagonal are its low
    n - 1 - i bits, position i + 1 highest.
    """
    bit = [0] * n
    high = 1 << n
    for v in pos:
        high >>= 1
        bit[v] = high
    bits = 0
    width = n
    for v in pos:
        width -= 1
        row = 0
        rest = rows[v]
        while rest:
            b = rest & -rest
            rest ^= b
            row |= bit[b.bit_length() - 1]
        bits = (bits << width) | (row & ((1 << width) - 1))
    return bits


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], perm: Perm) -> None:
    """Merges the orbits that ``perm`` joins; each root stays the smallest
    vertex of its orbit."""
    for a, b in enumerate(perm):
        if a == b:
            continue
        ra, rb = _find(parent, a), _find(parent, b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb


def _orbit_roots(n: int, perms: Sequence[Perm]) -> list[int]:
    """Orbit partition generated by ``perms``: the smallest vertex of each
    vertex's orbit."""
    parent = list(range(n))
    for p in perms:
        _union(parent, p)
    return [_find(parent, x) for x in range(n)]


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    i = 0
    for x, y in zip(a, b):
        if x != y:
            break
        i += 1
    return i


def _all_twins(rows: Sequence[int], cells: list[int]) -> bool:
    """True when every cell holds twins: vertices whose neighborhoods agree
    outside the pair of them.  A discrete partition has no cell to test."""
    for c in cells:
        if c & (c - 1):
            low = c & -c
            r = rows[low.bit_length() - 1]
            rest = c ^ low
            while rest:
                b = rest & -rest
                rest ^= b
                if (rows[b.bit_length() - 1] ^ r) & ~(b | low):
                    return False
    return True


def _twin_leaf(n: int, cells: list[int]) -> tuple[list[int], list[Perm]]:
    """The first leaf below a partition whose cells each hold twins, each
    cell in ascending order, and the adjacent transpositions of each cell,
    which generate the automorphisms that permute the cells' twins."""
    pos = [v for c in cells for v in _bits(c)]
    swaps: list[Perm] = []
    for c in cells:
        if c & (c - 1):
            members = list(_bits(c))
            for a, b in zip(members, members[1:]):
                swap = list(range(n))
                swap[a], swap[b] = b, a
                swaps.append(tuple(swap))
    return pos, swaps


def _search(
    n: int, rows: Sequence[int], cells: list[int]
) -> tuple[list[int], list[Perm]]:
    """Backtracking core.  Returns (canonical position list, generators).

    The position list maps canonical position -> original vertex.  A node
    of the search tree is named by its individualized vertices, ``path``,
    and each node on it has one frame on the stack: the cells beside its
    target cell, the target cell and its vertices not yet tried, and its
    orbit partition with the number of generators folded in.  The root
    partition ``cells`` is neither discrete nor twins-only; :func:`canon_rows`
    has tested it.

    A leaf that reproduces the bitstring of the first leaf or of the best
    leaf certifies an automorphism that fixes the common prefix of the two
    paths and maps the other path's subtree below it onto the current one.
    The rest of the current subtree below that common ancestor is then the
    image of a subtree already searched, so the stack is cut back to the
    frame of that ancestor (backjumping).  No smaller leaf is lost, and the
    leaf kept is the first smallest one in the order of the full tree.

    Each node skips a target-cell vertex that is not the smallest vertex of
    its orbit under the generators found so far that fix ``path``; the
    orbits of the cell lie in the cell.  The frame builds that orbit
    partition once, on first need, and folds in each generator found
    afterwards.

    A node whose every cell holds twins (:func:`_all_twins`) is not
    searched: permuting a cell of twins is an automorphism, so all leaves
    below it share one bitstring.  Its first leaf is visited and the
    transpositions of :func:`_twin_leaf` are added as generators.  In an
    equitable partition a cell that is a pair and has only single-vertex
    cells beside it always holds twins; a discrete partition, a leaf, is
    the case with no pair at all.
    """
    gens: list[Perm] = []
    gen_seen: set[Perm] = set()
    first = best = None  # (bits, pos, path) of the first and the best leaf
    frames: list[list] = []  # [head, tail, target cell, untried, orbits, folded]
    path: list[int] = []
    while True:
        if not frames or not _all_twins(rows, cells):
            sizes = [c.bit_count() if c & (c - 1) else n + 1 for c in cells]
            target = sizes.index(min(sizes))  # the first smallest nonsingleton
            tcell = cells[target]
            frames.append([cells[:target], cells[target + 1 :], tcell, tcell, None, 0])
        else:
            pos, swaps = _twin_leaf(n, cells)
            bits = _leaf_bits(n, rows, pos)
            resume = len(path)
            found = []
            for known in (first, best):
                if known is not None and bits == known[0]:
                    gamma = [0] * n
                    for p, q in zip(pos, known[1]):
                        gamma[p] = q
                    found.append(tuple(gamma))
                    resume = min(resume, _common_prefix(path, known[2]))
            leaf = (bits, pos, path[:])
            first = first or leaf
            if best is None or bits < best[0]:
                best = leaf
            if resume == len(path):  # no backjump: the twins' swaps are automorphisms
                found += swaps
            for t in found:
                if t not in gen_seen:
                    gen_seen.add(t)
                    gens.append(t)
            del frames[resume + 1 :]
        while frames:  # the next child of the deepest node with one left
            frame = frames[-1]
            head, tail, tcell, rest, orbits, folded = frame
            del path[len(frames) - 1 :]
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if folded < len(gens):
                    if orbits is None:
                        orbits = list(range(n))
                    for g in gens[folded:]:
                        if all(g[x] == x for x in path):
                            _union(orbits, g)
                    folded = len(gens)
                if orbits is None or _find(orbits, v) == v:
                    break
            else:
                frames.pop()
                continue
            frame[3:] = rest, orbits, folded
            path.append(v)
            cells = _refine(rows, head + [b, tcell ^ b] + tail, [b])
            break
        else:
            return best[1], gens


def canon_rows(
    n: int, rows: Sequence[int], cells: Optional[list[int]] = None
) -> tuple[Perm, list[Perm]]:
    """Canonicalize a bitmask-adjacency graph.

    Returns ``(order, generators)`` where ``order[i]`` is the original vertex
    placed at canonical position ``i``, and the generators generate the
    automorphism group.  ``cells`` is the refined unit partition,
    ``_refine(rows, [(1 << n) - 1])``, when the caller already has it.  When
    that partition is discrete or holds only twins, its one leaf and the
    twins' transpositions are returned without setting up the search.
    """
    if n == 0:
        return (), []
    if cells is None:
        cells = _refine(rows, [(1 << n) - 1])
    # a discrete or twins-only root partition is the search's only leaf
    pos, gens = (_twin_leaf(n, cells) if _all_twins(rows, cells)
                 else _search(n, rows, cells))
    return tuple(pos), gens


def _placed(g: Graph, pos: Sequence[int]) -> Graph:
    """``g`` relabeled so that vertex ``pos[i]`` moves to position ``i``."""
    perm = [0] * g.n
    for i, v in enumerate(pos):
        perm[v] = i
    return relabel(g, perm)


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonical relabeling; equal exactly for
    isomorphic graphs."""
    return graph6_encode(_placed(g, canon_rows(g.n, g.rows)[0]))
