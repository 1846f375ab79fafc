"""Isomorph-free exhaustive generation of small simple graphs.

Canonical augmentation over vertex addition (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): a graph of order k+1 is
reached from its parent of order k by attaching one new vertex to a nonempty
subset of the old vertices.  Candidate neighborhoods are deduplicated per
parent up to the parent's automorphisms.  A constructed child is accepted
only when the new vertex lies in the automorphism orbit of the child's
deletion vertex, so every isomorphism class is emitted exactly once.

The deletion vertex is chosen by a cheap invariant first.  The key of a
vertex is its degree, then the sorted degrees of its neighbors; the deletion
vertex is the non-cut vertex with the largest key, and among several such
vertices the one with the largest canonical position.  The new vertex is
never a cut vertex (removing it leaves the connected parent) and orbits
preserve keys, so a child in which some non-cut vertex outranks the new
vertex is rejected before it is canonically labeled.  Degrees are compared
first, neighbor degrees only on a degree tie, and cut vertices are tested
(by the bitmask reachability of graphs._is_cut) only for vertices of at
least the new vertex's degree.  Surviving children are canonized, since
emission needs their canonical order and the next level's orbit dedup their
automorphisms; the orbit test itself runs only when another non-cut vertex
ties the new vertex's key.

The search tree ranges over connected graphs.  When all degrees must end
up even, the last vertex's neighborhood is forced to be exactly the set of
odd-degree vertices, and a size ceiling prunes subtrees whose edge budget is
already exhausted; the size filter itself is the only test at emission.

A node of order n - 1 then has one possible child, so it is worth labeling
only when that child survives the key test.  Two checks at the level that
builds these nodes drop the others before they are canonized; both read
only invariants of the forced child.  The vertex u added at that level is
never a cut vertex of the forced child: an odd set has even size, so the
forced vertex keeps a neighbor in the connected parent when u is removed.
A candidate neighborhood S is therefore skipped, before its orbit test,
when u's final degree |S| + (|S| mod 2) exceeds the forced vertex's
|odd(parent) ^ S| + (|S| mod 2).  A child that passes its own key test is
then looked ahead: its forced child is built, and the node is dropped when
no degree is odd, or the forced child exceeds the size ceiling or fails the key test.
A node that is kept has no level of its own: its forced child, already built
and key-tested, is canonized and emitted right there.

Shards split the tree round-robin over the nodes of order max(2, n - 2)
below n = 8 and min(n - 3, 6) from n = 8 on; every shard rebuilds the levels
above that split, which stay small next to the pruned levels below it.
Which classes land in which shard depends on the split and the deletion
rule; only the union of the shards is guaranteed.
:func:`map_shards` runs the SHARDS shards of one task on a process pool.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .canon import Perm, _orbit_roots, canon_rows
from .graphs import Graph, _bits, _is_cut, from_adjacency_masks, relabel

MAX_ORDER = 12
SHARDS = 8   # the split of every --jobs run, whatever the worker count


@dataclass(frozen=True)
class EnumFilter:
    """What to generate: connected graphs of one order, optionally with all
    degrees even; size_range bounds the edge count inclusively."""

    order: int
    require_even_degrees: bool = True
    size_range: Optional[tuple[int, int]] = None

    def validate(self) -> None:
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(
                f"order {self.order} outside the supported range 1..{MAX_ORDER}"
            )
        if self.size_range is not None:
            lo, hi = self.size_range
            if not 0 <= lo <= hi <= self.order * (self.order - 1) // 2:
                raise ValueError(f"bad size_range {self.size_range}")


@dataclass(frozen=True)
class EnumPartition:
    """Deterministic split of the generation tree into disjoint shards."""

    total_shards: int = 1
    shard_index: int = 0

    def validate(self) -> None:
        if not 0 <= self.shard_index < self.total_shards:
            raise ValueError(
                f"shard {self.shard_index} outside 0..{self.total_shards - 1}"
            )


def _odd_mask(rows: Sequence[int]) -> int:
    mask = 0
    for v, row in enumerate(rows):
        if row.bit_count() & 1:
            mask |= 1 << v
    return mask


def _attach(rows: Sequence[int], s: int) -> list[int]:
    """``rows`` plus a new last vertex joined to the vertices of bitmask s."""
    k = len(rows)
    child = [row | (1 << k) if (s >> i) & 1 else row for i, row in enumerate(rows)]
    child.append(s)
    return child


def _neighbor_degrees(row: int, deg: Sequence[int]) -> list[int]:
    return sorted(deg[v] for v in _bits(row))


def _key_rivals(n: int, rows: Sequence[int]) -> Optional[int]:
    """Pre-canon test of the new vertex n - 1 of a connected child.

    The key of a vertex is its degree, then the sorted degrees of its
    neighbors.  Returns None when some non-cut vertex has a larger key than
    the new vertex, which then cannot share an orbit with the deletion
    vertex; otherwise the bitmask of the other non-cut vertices whose key
    equals the new vertex's.  The new vertex itself is never a cut vertex:
    removing it leaves the connected parent.
    """
    k = n - 1
    deg = [r.bit_count() for r in rows]
    dk = deg[k]
    full = (1 << n) - 1
    level = []
    for v in range(k):
        d = deg[v]
        if d > dk:
            if not _is_cut(v, rows, full):
                return None
        elif d == dk:
            level.append(v)
    rivals = 0
    key = None
    for v in level:
        if _is_cut(v, rows, full):
            continue
        if key is None:
            key = _neighbor_degrees(rows[k], deg)
        other = _neighbor_degrees(rows[v], deg)
        if other > key:
            return None
        if other == key:
            rivals |= 1 << v
    return rivals


def _is_min_in_orbit(s: int, perms: Sequence[Perm]) -> bool:
    """True when subset-bitmask s is the smallest member of its orbit."""
    seen = {s}
    stack = [s]
    while stack:
        t = stack.pop()
        for p in perms:
            img = 0
            rest = t
            while rest:
                b = rest & -rest
                img |= 1 << p[b.bit_length() - 1]
                rest ^= b
            if img < s:
                return False
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return True


def _emit(n: int, rows: list[int], pos: Perm, filt: EnumFilter) -> Optional[Graph]:
    """Apply the size filter; return the canonically relabeled graph or None."""
    if filt.size_range is not None:
        m = sum(r.bit_count() for r in rows) // 2
        if not filt.size_range[0] <= m <= filt.size_range[1]:
            return None
    cperm = [0] * n
    for i, v in enumerate(pos):
        cperm[v] = i
    return relabel(from_adjacency_masks(n, rows), cperm)


def _accept(rows: list[int], rivals: int) -> Optional[tuple[Perm, list[Perm]]]:
    """Canonize a child that passed ``_key_rivals``: its canonical order and
    automorphism generators, or None when its new (last) vertex is not in the
    orbit of the deletion vertex."""
    k = len(rows) - 1
    pos, gens = canon_rows(k + 1, rows)
    if rivals:
        rivals |= 1 << k
        d_vertex = next(v for v in reversed(pos) if (rivals >> v) & 1)
        if d_vertex != k:
            roots = _orbit_roots(k + 1, gens)
            if roots[k] != roots[d_vertex]:
                return None
    return pos, gens


def _connected_stream(filt: EnumFilter, part: EnumPartition) -> Iterator[Graph]:
    n = filt.order
    even = filt.require_even_degrees
    m_hi = filt.size_range[1] if filt.size_range is not None else None

    if n == 1:
        if part.shard_index == 0:
            g = _emit(1, [0], (0,), filt)
            if g is not None:
                yield g
        return
    if n == 2 and even:
        return

    split = max(2, n - 2) if n < 8 else min(n - 3, 6)
    counter = 0

    def rec(rows: list[int], k: int, m: int, parent_gens: list[Perm]) -> Iterator[Graph]:
        nonlocal counter
        last = k + 1 == n
        # each child of this node has exactly one (forced) child
        penult = even and k + 2 == n
        odd_q = _odd_mask(rows) if penult else 0
        remaining = n - k - 1
        future_min = 0 if remaining == 0 else remaining + (1 if even else 0)
        for s in range(1, 1 << k):
            if m_hi is not None and m + s.bit_count() + future_min > m_hi:
                continue
            # the new vertex k ends with degree |s| rounded up to even, the
            # forced vertex with |odd(rows) ^ s| plus that same rounding
            if penult and s.bit_count() > (odd_q ^ s).bit_count():
                continue
            if parent_gens and not _is_min_in_orbit(s, parent_gens):
                continue
            child = _attach(rows, s)
            rivals = _key_rivals(k + 1, child)
            if rivals is None:
                continue
            if penult:
                odd = _odd_mask(child)
                if not odd or m_hi is not None and m + s.bit_count() + odd.bit_count() > m_hi:
                    continue
                forced = _attach(child, odd)
                forced_rivals = _key_rivals(n, forced)
                if forced_rivals is None:
                    continue
            accepted = _accept(child, rivals)
            if accepted is None:
                continue
            if k + 1 == split:
                mine = counter % part.total_shards == part.shard_index
                counter += 1
                if not mine:
                    continue
            if penult:  # the forced child is the only child: emit it from here
                child, accepted = forced, _accept(forced, forced_rivals)
                if accepted is None:
                    continue
            if last or penult:
                g = _emit(n, child, accepted[0], filt)
                if g is not None:
                    yield g
            else:
                yield from rec(child, k + 1, m + s.bit_count(), accepted[1])

    yield from rec([0], 1, 0, [])


def enumerate_graphs(
    filt: EnumFilter, partition: Optional[EnumPartition] = None
) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class.

    Deterministic for a fixed (filter, partition); shards of a partition are
    disjoint and their union equals the unpartitioned run.
    """
    filt.validate()
    part = partition or EnumPartition()
    part.validate()
    yield from _connected_stream(filt, part)


def count_graphs(
    filt: EnumFilter, partition: Optional[EnumPartition] = None
) -> int:
    return sum(1 for _ in enumerate_graphs(filt, partition))


def map_shards(worker: Callable[[tuple], list], args: object, jobs: int) -> list:
    """Run ``worker((args, SHARDS, i))`` for every shard i on min(jobs, SHARDS)
    processes and concatenate the results in shard order.  ``worker`` must be
    a module-level function so that the pool can pickle it."""
    # imported here, not at the top: commands that never fan out stay smaller
    from multiprocessing import Pool

    with Pool(min(jobs, SHARDS)) as pool:
        parts = pool.map(worker, [(args, SHARDS, i) for i in range(SHARDS)])
    return [item for part in parts for item in part]


def extremal_scan(
    filt: EnumFilter,
    objective: str = "max_wiener",
    k: int = 1,
    partition: Optional[EnumPartition] = None,
) -> list[tuple[int, str]]:
    """Top-k (or bottom-k) Wiener values with every attaining graph.

    Returns (wiener, graph6) pairs grouped by value in objective order, ties
    sorted by canonical graph6 bytes.
    """
    from .graphs import graph6_encode, wiener

    if objective not in ("max_wiener", "min_wiener"):
        raise ValueError(f"unknown objective {objective!r}")
    if k < 1:
        raise ValueError("k must be positive")
    sign = -1 if objective == "max_wiener" else 1
    kept: dict[int, list[str]] = {}
    for g in enumerate_graphs(filt, partition):
        w = wiener(g)
        if w not in kept:
            if len(kept) == k:
                worst = max(kept, key=lambda v: sign * v)
                if sign * w >= sign * worst:
                    continue
                del kept[worst]
            kept[w] = []
        kept[w].append(graph6_encode(g))
    return [(w, g6) for w in sorted(kept, key=lambda v: sign * v)
            for g6 in sorted(kept[w])]
