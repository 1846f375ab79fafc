"""The names the benchmark under perfbench/ looks up in wienerlab.

perfbench/tracing.py rebinds every function its TRACED table names, and the
traced pool run calls the CLI's own shard function once per internal shard;
a missing name crashes those runs instead of failing a test.
"""
import importlib
import importlib.util
from pathlib import Path

from wienerlab import cli
from wienerlab.generate import enumerate_graphs
from wienerlab.graphs import graph6_encode

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [
        f"{modname}.{fname}"
        for _, modname, funcs in load_tracing().TRACED
        for fname in funcs
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


def test_cli_internal_shards_cover_the_run():
    assert cli._INTERNAL_SHARDS == 8
    filt = cli._build_filter(7, None)
    kw = {"order": filt.order, "require_even_degrees": True,
          "size_range": filt.size_range}
    merged = [line for i in range(8) for line in cli._shard_g6((kw, 8, i))]
    full = [graph6_encode(g) for g in enumerate_graphs(filt)]
    assert len(merged) == len(set(merged)) == 37
    assert sorted(merged) == sorted(full)
