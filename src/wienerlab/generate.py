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
(by graphs._is_cut, one reachability in G - v) only for vertices of at
least the new vertex's degree.  Surviving children are canonized, since
emission needs their canonical order and the next level's orbit dedup their
automorphisms; the orbit test itself runs only when another non-cut vertex
(a rival) ties the new vertex's key.  It reads the refined unit partition
first: canonical positions respect its cells and orbits lie inside them, so
the deletion vertex lies in the last cell that holds a rival or the new
vertex.  The child is rejected when the new vertex is not in that cell and
accepted when it is the only one there; only a cell shared with a rival
leaves the test to the labeling.

Most children that fail the key test fail it for a reason their parent
already decides, so they are skipped before their orbit test and before
they are built.  A non-cut vertex v of the parent stays non-cut in the child
whenever S holds a vertex other than v (the new vertex then keeps a neighbor
in the connected parent minus v), and its child degree is deg(v) + [v in S]
against |S| for the new vertex.  Per parent, _noncut_above reads one
_cut_mask, one _is_cut per vertex, into above[t], the non-cut vertices of
degree > t, and S is skipped when above[|S|] has a vertex outside S or,
for |S| >= 2, above[|S| - 1] has one inside S.  Each skipped child would
fail the key test, so the accepted set is unchanged.

The search tree ranges over connected graphs.  Each node passes its edge
count m and its odd-degree bitmask odd down: the child that joins the new
vertex k to S has m + |S| edges and the odd mask odd ^ S, plus k when |S|
is odd.  When all degrees must end up even, the last vertex's neighborhood
is forced to be exactly that mask.  One ceiling per node caps |S| at what
the filter's upper bound leaves after the fewest edges the vertices still
to come can add, so emission tests only the lower bound.

A node of order n - 1 then has one possible child, so it is worth labeling
only when that child survives the key test.  Two checks at the level that
builds these nodes drop the others before they are canonized; both read
only invariants of the forced child.  The vertex u added at that level is
never a cut vertex of the forced child: an odd set has even size, so the
forced vertex keeps a neighbor in the connected parent when u is removed.
A candidate neighborhood S is therefore skipped, before its orbit test,
when u's final degree |S| + (|S| mod 2) exceeds the forced vertex's
|odd ^ S| + (|S| mod 2); a child that passes this test has an odd vertex.
A child that passes its own key test is then looked ahead: its forced child
is built, and the node is dropped when the forced child has more edges than
the filter allows or fails the key test.
A node that is kept has no level of its own: its forced child, already built
and key-tested, is canonized and emitted right there.  The node's own
labeling then serves only its orbit test, so a node is not canonized at
all when u has no rival or when the root partition settles the test.  At
order 9, 3,712 of the 82,233 candidate children reach the labeler.

Shards split the tree round-robin over the nodes of order max(2, n - 2)
below n = 8 and min(n - 3, 6) from n = 8 on; every shard rebuilds the levels
above that split, which stay small next to the pruned levels below it.
Which classes land in which shard depends on the split and the deletion
rule; only the union of the shards is guaranteed.
:func:`map_shards` runs the SHARDS shards of one task on a process pool
from order POOL_MIN_ORDER on, and the whole task in this process below it,
where starting the pool costs more than the work it shares.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .canon import Perm, _orbit_roots, _placed, _refine, canon_rows
from .graphs import (
    Graph, _bits, _cut_mask, _is_cut, from_adjacency_masks, graph6_encode, wiener,
)

MAX_ORDER = 12
SHARDS = 8   # the split of every --jobs run, whatever the worker count
POOL_MIN_ORDER = 9   # below it a --jobs run stays in this process

_T = TypeVar("_T")


@dataclass(frozen=True)
class EnumFilter:
    """What to generate: connected graphs of one order, optionally with all
    degrees even; size_range bounds the edge count inclusively."""

    order: int
    require_even_degrees: bool = True
    size_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
        if self.total_shards < 1:
            raise ValueError(
                f"shard count must be positive, got {self.total_shards}")
        if not 0 <= self.shard_index < self.total_shards:
            raise ValueError(
                f"shard {self.shard_index} outside 0..{self.total_shards - 1}"
            )


def _attach(rows: Sequence[int], s: int) -> list[int]:
    """``rows`` plus a new last vertex joined to the vertices of bitmask s."""
    k = len(rows)
    child = [row | (1 << k) if (s >> i) & 1 else row for i, row in enumerate(rows)]
    child.append(s)
    return child


def _noncut_above(rows: Sequence[int]) -> list[int]:
    """above[t] is the bitmask of the non-cut vertices of degree > t, for
    t = 0..len(rows): what the key-test prefilter of a parent reads."""
    cuts = _cut_mask(rows)
    above = [0] * (len(rows) + 1)
    for v, row in enumerate(rows):
        if not cuts >> v & 1:
            for t in range(row.bit_count()):
                above[t] |= 1 << v
    return above


def _neighbor_degrees(row: int, deg: Sequence[int]) -> list[int]:
    return sorted(deg[v] for v in _bits(row))


def _key_rivals(rows: Sequence[int]) -> Optional[int]:
    """Pre-canon test of the new (last) vertex of a connected child.

    The key of a vertex is its degree, then the sorted degrees of its
    neighbors.  Returns None when some non-cut vertex has a larger key than
    the new vertex, which then cannot share an orbit with the deletion
    vertex; otherwise the bitmask of the other non-cut vertices whose key
    equals the new vertex's.  The new vertex itself is never a cut vertex:
    removing it leaves the connected parent.
    """
    n = len(rows)
    k = n - 1
    deg = [r.bit_count() for r in rows]
    dk = deg[k]
    level = []
    for v in range(k):
        d = deg[v]
        if d > dk:
            if not _is_cut(v, rows):
                return None
        elif d == dk:
            level.append(v)
    rivals = 0
    key = None
    for v in level:
        if _is_cut(v, rows):
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


def _accept(
    rows: list[int], rivals: int, label: bool = True
) -> Optional[tuple[Perm, list[Perm]] | tuple[()]]:
    """Orbit test of a child that passed ``_key_rivals``: None when its new
    (last) vertex is not in the orbit of the deletion vertex, else its
    canonical order and automorphism generators, or ``()`` when ``label`` is
    False.

    Canonical positions respect the cells of the refined unit partition,
    and orbits lie inside cells, so the deletion vertex lies in the last
    cell that holds a rival or the new vertex.  The test is settled there
    unless the new vertex shares that cell with a rival; only then does it
    need the labeling.
    """
    n = len(rows)
    k = n - 1
    cells = None
    if rivals:
        cells = _refine(rows, [(1 << n) - 1])
        rivals |= 1 << k
        last = next(c for c in reversed(cells) if c & rivals)
        if not last >> k & 1:
            return None
        if last & rivals != 1 << k:
            pos, gens = canon_rows(n, rows, cells)
            d_vertex = next(v for v in reversed(pos) if (rivals >> v) & 1)
            if d_vertex != k:
                roots = _orbit_roots(n, gens)
                if roots[k] != roots[d_vertex]:
                    return None
            return pos, gens
    return canon_rows(n, rows, cells) if label else ()


def enumerate_graphs(
    filt: EnumFilter, partition: Optional[EnumPartition] = None
) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class.

    Deterministic for a fixed (filter, partition); shards of a partition are
    disjoint and their union equals the unpartitioned run.
    """
    part = partition or EnumPartition()
    n = filt.order
    even = filt.require_even_degrees

    if n == 1:  # its size range can only be (0, 0)
        if part.shard_index == 0:
            yield Graph(1, (0,))
        return
    if n == 2 and even:
        return

    m_lo, m_hi = filt.size_range or (0, n * (n - 1) // 2)
    split = max(2, n - 2) if n < 8 else min(n - 3, 6)
    counter = 0

    def rec(rows: list[int], k: int, m: int, odd: int,
            parent_gens: list[Perm]) -> Iterator[Graph]:
        """The subtree below a node of order k, size m and odd mask odd."""
        nonlocal counter
        last = k + 1 == n
        # each child of this node has exactly one (forced) child
        penult = even and k + 2 == n
        # the most edges s can add: each vertex still to come adds at least
        # one edge, and the last one two when degrees end even
        ceiling = m_hi - m - (0 if last else n - k - 1 + even)
        above = _noncut_above(rows)
        for s in range(1, 1 << k):
            t = s.bit_count()
            if t > ceiling:
                continue
            if penult:
                # the new vertex k ends with degree |s| rounded up to even,
                # the forced vertex with |odd ^ s| plus that same rounding;
                # the forced child's size is m + |s| plus the forced degree
                u = (odd ^ s).bit_count()
                if t > u or m + t + u + (t & 1) > m_hi:
                    continue
            # a non-cut vertex of the parent that outranks the new vertex by
            # degree alone: the key test would reject this child
            if above[t] & ~s or t > 1 and above[t - 1] & s:
                continue
            if parent_gens and not _is_min_in_orbit(s, parent_gens):
                continue
            child = _attach(rows, s)
            rivals = _key_rivals(child)
            if rivals is None:
                continue
            child_odd = odd ^ s | (t & 1) << k
            size = m + t
            if penult:  # the popcount test left child_odd nonempty
                size += child_odd.bit_count()
                forced = _attach(child, child_odd)
                forced_rivals = _key_rivals(forced)
                if forced_rivals is None:
                    continue
            # nothing reads the labeling of a penultimate node: its forced
            # child is labeled on its own
            accepted = _accept(child, rivals, not penult)
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
                if size >= m_lo:  # the size tests above kept size <= m_hi
                    yield _placed(from_adjacency_masks(n, child), accepted[0])
            else:
                yield from rec(child, k + 1, size, child_odd, accepted[1])

    yield from rec([0], 1, 0, 0, [])


def count_graphs(
    filt: EnumFilter, partition: Optional[EnumPartition] = None
) -> int:
    return sum(1 for _ in enumerate_graphs(filt, partition))


class WorkerError(RuntimeError):
    """A shard worker of :func:`map_shards` raised or died."""


def map_shards(worker: Callable[[tuple], list], args: object,
               jobs: Optional[int], order: int) -> list:
    """Run ``worker((args, SHARDS, i))`` for every shard i on min(jobs, SHARDS)
    processes and concatenate the results in shard order.  ``worker`` must be
    a module-level function so that the pool can pickle it.

    This is the one place that decides between pool and inline.  With jobs
    None or below 2, or ``order`` below POOL_MIN_ORDER, no pool starts: the
    result is ``worker((args, 1, 0))``, run here, unsharded, and its
    exceptions pass through unwrapped.  On 2 cores, ``enumerate --n 8``
    took about 0.225 s of wall time with the pool and 0.155 s without.

    In the pool, at most min(jobs, SHARDS) shards are submitted at a time,
    and the next shard is submitted as one finishes.  The first shard that
    raises, or a worker process that dies (BrokenProcessPool), ends the
    wait: no further shard is submitted, and a :class:`WorkerError` with a
    one-line message is raised at once for the lowest failed shard among
    those that finished together.  No partial result is returned.  Running
    workers cannot be stopped: they still finish the shards already
    submitted, at most one per worker, and the interpreter waits for those
    at exit.  Workers start from a forkserver: a child forked from here
    could inherit a lock held by a live thread of an earlier pool, and wait
    on it forever.
    """
    if not jobs or jobs < 2 or order < POOL_MIN_ORDER:
        return worker((args, 1, 0))
    # imported here, not at the top: commands that never fan out stay smaller
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(min(jobs, SHARDS), mp_context=get_context("forkserver"))
    parts: list = [None] * SHARDS
    todo = iter(range(SHARDS))
    try:
        running = {pool.submit(worker, (args, SHARDS, i)): i
                   for i in islice(todo, min(jobs, SHARDS))}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for f in sorted(done, key=running.__getitem__):
                parts[running.pop(f)] = f.result()  # the lowest failed shard raises
                for i in islice(todo, 1):  # the next shard, if any is left
                    running[pool.submit(worker, (args, SHARDS, i))] = i
    except Exception as exc:
        detail = " ".join(str(exc).split())
        raise WorkerError(
            f"shard worker failed: {type(exc).__name__}: {detail}"
        ) from exc
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return [item for part in parts for item in part]


def _top_k(pairs: Iterable[tuple[int, _T]], objective: str, k: int,
           label: Callable[[_T], str] = str) -> list[tuple[int, str]]:
    """The ranking rule of :func:`extremal_scan` over (value, item) pairs:
    the k best distinct values by ``objective``, each with every item that
    attains it.  Only kept items are labeled; ties sort by label bytes."""
    if objective not in ("max_wiener", "min_wiener"):
        raise ValueError(f"unknown objective {objective!r}")
    if k < 1:
        raise ValueError("k must be positive")
    sign = -1 if objective == "max_wiener" else 1
    kept: dict[int, list[_T]] = {}
    for w, item in pairs:
        if w not in kept:
            if len(kept) == k:
                worst = max(kept, key=lambda v: sign * v)
                if sign * w >= sign * worst:
                    continue
                del kept[worst]
            kept[w] = []
        kept[w].append(item)
    return [(w, text) for w in sorted(kept, key=lambda v: sign * v)
            for text in sorted(map(label, kept[w]))]


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
    return _top_k(((wiener(g), g) for g in enumerate_graphs(filt, partition)),
                  objective, k, graph6_encode)
