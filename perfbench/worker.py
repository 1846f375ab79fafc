"""One round of a workload in a fresh interpreter; prints a JSON result.

    python3 perfbench/worker.py <workload> [--seed N] [--trace] --order N [--spans FILE]

run.py starts this with ``src`` on PYTHONPATH, once per round, so every
census is built cold.  The result holds the round's wall and CPU time, the
process's peak RSS and each operation's output for the oracles in run.py.
With --trace the calls into wienerlab are traced and the result also holds
the per-layer metrics; the spans go to FILE.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from typing import Callable

from wienerlab import generate, graphs, verify   # the package imports every layer

from tracing import Tracer, layer_metrics

CLAIMS = {
    "eulerian9": ("eulerian_census", 9, [("T1", 9), ("T2", 9), ("P1", 9), ("P3", 9),
                                         ("Q1", 9), ("FIG1", 9)]),
    "connected8": ("connected_census", 8, [("C1", 8), ("T3a", 8), ("T3b", 8),
                                           ("T3c", 8), ("P2", 8)]),
    "sweeps": (None, None, [("L2", 300), ("C2", 64), ("L3", (26, 500)),
                            ("GAP", (26, 500)), ("FIG1", 13)]),
}


def _op(ops: list, name: str, fn: Callable[[], object]) -> object:
    """Run one operation; record its output, or the exception it raised."""
    try:
        value = fn()
    except Exception as exc:  # an operation that raises is a failed operation
        ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
        return None
    ops.append({"name": name, "value": value})
    return value


def _claim(claim: str, arg) -> dict:
    if isinstance(arg, tuple):
        report = verify.verify_claim(claim, n_range=arg)
    else:
        report = verify.verify_claim(claim, n=arg)
    return {"status": report.status, "witnesses": list(report.witnesses),
            "notes": report.notes}


def census_round(workload: str) -> list:
    census, order, claims = CLAIMS[workload]
    ops: list = []
    if census == "eulerian_census":
        _op(ops, "census", lambda: [list(r) for r in verify.eulerian_census(order)])
    elif census == "connected_census":
        _op(ops, "census", lambda: list(verify.connected_census(order)))
    for claim, arg in claims:
        _op(ops, claim, lambda: _claim(claim, arg))
    return ops


def _unsharded(cli, order: int) -> list[str]:
    """The CLI's single-process enumeration, through the module attributes so
    that a tracer's rebinding is seen."""
    filt = cli._build_filter(order, None)
    return [graphs.graph6_encode(g) for g in generate.enumerate_graphs(filt)]


def pool_trace_round(order: int, seed: int, spans_path: str | None) -> dict:
    """The traced half of cli-pool8: the CLI's internal shards one after
    another in this process through the CLI's own shard function, the
    unsharded enumeration they are compared with, and the wiener stage run
    in-process through the click entry point, fed the shard union in the
    seed's order."""
    from click.testing import CliRunner

    from wienerlab import cli

    ops: list = []
    t0 = time.perf_counter()
    _op(ops, "unsharded", lambda: _unsharded(cli, order))
    plain_s = time.perf_counter() - t0

    with Tracer() as aux:
        t0 = time.perf_counter()
        _op(ops, "unsharded-traced", lambda: _unsharded(cli, order))
        traced_s = time.perf_counter() - t0
    unsharded_calls = aux.names.count("canon.canon_rows")
    del aux

    # the filter keywords cmd_enumerate hands to its pool for --jobs > 1
    filt = cli._build_filter(order, None)
    kw = {"order": filt.order, "require_even_degrees": True, "size_range": filt.size_range}
    total = cli._INTERNAL_SHARDS
    shards = []
    with Tracer() as tr:
        for i in range(total):
            before = len(tr)
            t0 = time.perf_counter()
            lines = _op(ops, f"shard{i}", lambda: cli._shard_g6((kw, total, i)))
            wall = time.perf_counter() - t0
            calls = tr.names[before:].count("canon.canon_rows")
            shards.append({"wall_s": wall, "canon_calls": calls,
                           "classes": len(lines or ())})
        union = [line for op in ops if op["name"].startswith("shard")
                 for line in op.get("value") or ()]
        random.Random(seed).shuffle(union)
        result = CliRunner().invoke(cli.main, ["wiener"], input="\n".join(union) + "\n")
        ops.append({"name": "wiener-inprocess", "exit_code": result.exit_code,
                    "value": result.output.splitlines(), "input": union})
    layers = layer_metrics(tr)
    if spans_path:
        tr.dump(spans_path)
    walls = [s["wall_s"] for s in shards]
    layers.update({
        "generate.shard_canon_ratio":
            sum(s["canon_calls"] for s in shards) / unsharded_calls if unsharded_calls else 0.0,
        "generate.shard_max_s": max(walls),
        "generate.shard_imbalance": max(walls) / (sum(walls) / len(walls)),
        "trace.overhead_s": traced_s - plain_s,
    })
    return {"ops": ops, "layers": layers, "shards": shards}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--order", type=int, required=True, help="order of the pooled enumeration")
    args = ap.parse_args()

    if args.workload == "cli-pool8":
        out = pool_trace_round(args.order, args.seed, args.spans)
    else:
        tr = Tracer().install() if args.trace else None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            ops = census_round(args.workload)
        finally:
            wall = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if tr is not None:
                tr.uninstall()
        out = {"ops": ops, "wall_s": wall,
               "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)}
        if tr is not None:
            out["layers"] = layer_metrics(tr)
            if args.spans:
                tr.dump(args.spans)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
