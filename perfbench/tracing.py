"""In-memory span tracer that wraps wienerlab's public functions from outside.

A :class:`Tracer` rebinds module attributes: every ``wienerlab`` module that
holds a reference to a traced function (``wienerlab.generate.canon_rows`` as
well as ``wienerlab.canon.canon_rows``) gets the wrapper, so calls made
through any import path are seen.  The program itself is never edited.

Each call becomes a span with a name, a start, an end and the index of the
span that was open when it began (its parent).  A generator function is
traced per resumption: each stretch between two ``next`` calls is one span,
so the consumer's work between yields is never charged to the generator.

Self time is a span's duration minus the part of its interval covered by its
children; :func:`self_times` takes the union of the child intervals, so the
arithmetic also holds for children that overlap each other.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Iterable, Sequence

# (layer, module, public functions) — the modules are the layers
TRACED: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("canon", "wienerlab.canon", ("canon_rows",)),
    ("generate", "wienerlab.generate", ("enumerate_graphs",)),
    ("graphs", "wienerlab.graphs", (
        "bfs_distances", "wiener", "diameter", "sigma_vertex", "sigma_set",
        "is_two_connected", "is_two_edge_connected", "cut_vertices", "bridges",
        "block_decomposition", "graph6_decode", "graph6_encode", "build_graph",
        "from_adjacency_masks", "relabel",
    )),
    ("families", "wienerlab.families", (
        "cycle", "path", "complete", "cocktail_party", "vertex_glued_cycles",
        "edge_glued_cycles", "cycle_chain", "friendship", "sparse_diameter_two",
        "runner_up_catalog",
    )),
    ("formulas", "wienerlab.formulas", (
        "wiener_cycle", "wiener_vertex_glued_triangle", "wiener_edge_glued",
        "max_wiener_connected", "connectivity_bounds", "min_wiener_eulerian",
        "wiener_lower_bound", "min_size_diameter_two",
        "second_place_gap_numerator", "second_place_gap",
    )),
    ("verify", "wienerlab.verify", (
        "verify_claim", "eulerian_census", "connected_census", "min_wiener_table",
    )),
)

GENERATORS = {"generate.enumerate_graphs"}


class Tracer:
    """Collects spans in parallel lists; install() rebinds, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.yields = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = len(names)
                names.append(name)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                tracer.yields += 1
                yield item

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "wienerlab" or key.startswith("wienerlab.")]
        for layer, modname, funcs in TRACED:
            home = sys.modules[modname]
            for fname in funcs:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = (self.wrap_generator if name in GENERATORS else self.wrap)(
                    name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line: id, parent, name,
        start and end in microseconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, (name, s, e, p) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i}\t{p}\t{name}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        if kids:
            clipped = [(max(a, s), min(b, e)) for a, b in kids if min(b, e) > max(a, s)]
            out.append(e - s - covered(clipped))
        else:
            out.append(e - s)
    return out


def outermost(names: Sequence[str], parents: Sequence[int], members: set[str]) -> list[int]:
    """Indices of spans named in ``members`` with no ancestor named in it, so
    summing their durations counts nested calls of one layer once."""
    out = []
    for i, name in enumerate(names):
        if name not in members:
            continue
        p = parents[i]
        while p >= 0 and names[p] not in members:
            p = parents[p]
        if p < 0:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _names(layer: str, *funcs: str) -> set[str]:
    return {f"{layer}.{f}" for f in funcs}


LOWPOINT = _names("graphs", "is_two_connected", "is_two_edge_connected",
                  "cut_vertices", "bridges", "block_decomposition")
BUILD = _names("graphs", "build_graph", "from_adjacency_masks", "relabel")
SIGMA = _names("graphs", "sigma_vertex", "sigma_set")
CENSUS = _names("verify", "eulerian_census", "connected_census")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from one tracer's spans."""
    names, starts, ends, parents = tr.names, tr.starts, tr.ends, tr.parents
    selfs = self_times(starts, ends, parents)
    count: dict[str, int] = {}
    self_sum: dict[str, float] = {}
    for name, st in zip(names, selfs):
        count[name] = count.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + st

    def dur(members: set[str]) -> float:
        return sum((ends[i] - starts[i] for i in outermost(names, parents, members)), 0.0)

    def layer(prefix: str) -> set[str]:
        return {n for n in count if n.startswith(prefix + ".")}

    canon_calls = count.get("canon.canon_rows", 0)
    canon_self = self_sum.get("canon.canon_rows", 0.0)
    gen = "generate.enumerate_graphs"
    emit = sum((ends[i] - starts[i] for i, n in enumerate(names)
                if n in BUILD and parents[i] >= 0 and names[parents[i]] == gen), 0.0)
    gen_canon = sum(1 for i, n in enumerate(names)
                    if n == "canon.canon_rows" and parents[i] >= 0 and names[parents[i]] == gen)
    wiener_n = count.get("graphs.wiener", 0)
    formulas = layer("formulas")
    verify = layer("verify")
    return {
        "canon.calls": canon_calls,
        "canon.self_s": canon_self,
        "canon.us_per_call": canon_self / canon_calls * 1e6 if canon_calls else 0.0,
        "generate.self_s": self_sum.get(gen, 0.0),
        "generate.emit_s": emit,
        "generate.classes_per_canon_call": tr.yields / gen_canon if gen_canon else 0.0,
        "graphs.bfs_calls": count.get("graphs.bfs_distances", 0),
        "graphs.bfs_self_s": self_sum.get("graphs.bfs_distances", 0.0),
        "graphs.wiener_us_per_graph":
            dur({"graphs.wiener"}) / wiener_n * 1e6 if wiener_n else 0.0,
        "graphs.diameter_s": dur({"graphs.diameter"}),
        "graphs.sigma_s": dur(SIGMA),
        "graphs.lowpoint_s": dur(LOWPOINT),
        "graphs.g6_decode_s": dur({"graphs.graph6_decode"}),
        "graphs.g6_encode_s": dur({"graphs.graph6_encode"}),
        "graphs.build_s": dur(BUILD),
        "families.build_s": dur(layer("families")),
        "formulas.calls": sum(count[n] for n in formulas),
        "formulas.self_s": sum((self_sum[n] for n in formulas), 0.0),
        "verify.census_s": dur(CENSUS),
        "verify.self_s": sum((self_sum[n] for n in verify), 0.0),
    }

