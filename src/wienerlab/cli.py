"""Command-line entry point.

Subcommands:

  wiener      read graph6 lines on stdin, write "<graph6> <W>" per line
  construct   emit a named family member as graph6
  formula     evaluate a named closed form
  enumerate   stream one canonical graph6 per isomorphism class
  rank        top-K Wiener values with all attaining graphs
  verify      run one claim check, JSON report on stdout
  min-table   per-size minimum Wiener table (CSV)

Exit codes: 0 success, 1 violated claim, bad input data or a failed
worker, 2 usage or envelope errors.  All outputs are deterministic; timing
lives only in the elapsed_ms field of verify reports.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

import click

from .canon import canonical_form
from .families import FAMILIES
from .formulas import FORMULAS
from .generate import (
    POOL_MIN_ORDER,
    SHARDS as _INTERNAL_SHARDS,  # read by perfbench's traced pool run
    EnumFilter,
    EnumPartition,
    WorkerError,
    _top_k,
    enumerate_graphs,
    extremal_scan,
    map_shards,
)
from .graphs import Graph, graph6_decode, graph6_encode, wiener
from .verify import (CLAIM_IDS, SKIPPED, VIOLATED, ClaimReport, min_wiener_table,
                     verify_claim)


def _jobs_option(extra: str = ""):
    return click.option(
        "--jobs", type=click.IntRange(min=1), default=1, show_default=True,
        help=f"worker processes; below order {POOL_MIN_ORDER} the run stays "
             f"in this process{extra}")


@contextmanager
def _exit_codes() -> Iterator[None]:
    """One error line and no traceback: a ValueError (usage, domain or
    envelope) exits 2, a failed shard worker (WorkerError) exits 1."""
    try:
        yield
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except WorkerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}, expected A:B") from None


def _echo_csv(header: list[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV table, header first, to stdout; None is an empty field."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    click.echo(buf.getvalue().rstrip("\n"))


@click.group()
def main() -> None:
    """Exact workbench for Wiener indices of small Eulerian graphs."""


# ---------------------------------------------------------------------------


@main.command("wiener")
def cmd_wiener() -> None:
    """Read graph6 lines from stdin; print "<graph6> <W>" (INF if disconnected)."""
    bad = 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            g = graph6_decode(line)
        except ValueError as exc:
            click.echo(f"error: {line}: {exc}", err=True)
            bad += 1
            continue
        try:
            click.echo(f"{line} {wiener(g)}")
        except ValueError:  # empty or disconnected
            click.echo(f"{line} INF")
    if bad:
        sys.exit(1)


# ---------------------------------------------------------------------------


def _registry_args(names: tuple[str, ...], given: dict[str, Optional[int]],
                   what: str) -> list[int]:
    """The option values for a registry entry's parameter names, in order; a
    given option the entry does not take is a usage error, not dropped."""
    for name in names:
        if given.get(name) is None:
            raise ValueError(f"{what} needs --{name}")
    unused = [f"--{flag}" for flag, value in given.items()
              if value is not None and flag not in names]
    if unused:
        raise ValueError(f"{what} does not take {', '.join(unused)}")
    return [given[name] for name in names]


@main.command("construct")
@click.argument("family", type=click.Choice(sorted(FAMILIES)))
@click.option("--n", type=int, default=None, help="order (or size parameter)")
@click.option("--a", type=int, default=None, help="split parameter, when applicable")
@click.option("--format", "fmt", type=click.Choice(["g6", "text", "json"]),
              default="g6", show_default=True)
def cmd_construct(family: str, n: Optional[int], a: Optional[int], fmt: str) -> None:
    """Emit one family member (or catalog) as canonical graph6, one per line."""
    names, fn = FAMILIES[family]
    with _exit_codes():
        result = fn(*_registry_args(names, {"n": n, "a": a}, "this family"))
    graphs = [result] if isinstance(result, Graph) else list(result)
    lines = [canonical_form(g) for g in graphs]
    if fmt == "json":
        click.echo(json.dumps(lines))
    else:
        for line in lines:
            click.echo(line)


@main.command("formula")
@click.argument("name", type=click.Choice(sorted(FORMULAS)))
@click.option("--n", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def cmd_formula(name: str, n: Optional[int], a: Optional[int],
                m: Optional[int], fmt: str) -> None:
    """Evaluate a closed form; exact integers (gaps print as N/24)."""
    names, fn = FORMULAS[name]
    with _exit_codes():
        result = fn(*_registry_args(names, {"n": n, "a": a, "m": m}, f"formula {name}"))
    if fmt == "json":
        if isinstance(result, dict):
            click.echo(json.dumps(result, sort_keys=True))
        else:
            click.echo(json.dumps({"name": name, "value": str(result)}))
    elif isinstance(result, dict):
        for key in sorted(result):
            click.echo(f"{key} {result[key]}")
    else:
        click.echo(str(result))


# ---------------------------------------------------------------------------


def _shard_g6(args: tuple[dict, int, int]) -> list[str]:
    filt_kw, total, index = args
    filt = EnumFilter(**filt_kw)
    part = EnumPartition(total_shards=total, shard_index=index)
    return [graph6_encode(g) for g in enumerate_graphs(filt, part)]


def _shard_rank(args: tuple[tuple[dict, str, int], int, int]) -> list[tuple[int, str]]:
    (filt_kw, objective, top), total, index = args
    filt = EnumFilter(**filt_kw)
    part = EnumPartition(total_shards=total, shard_index=index)
    return extremal_scan(filt, objective, top, part)


def _build_filter(n: int, m: Optional[int]) -> EnumFilter:
    size_range = (m, m) if m is not None else None
    return EnumFilter(order=n, require_even_degrees=True, size_range=size_range)


@main.command("enumerate")
@click.option("--n", type=int, required=True, help="order")
@click.option("--m", type=int, default=None, help="restrict to exactly m edges")
@click.option("--count", is_flag=True, help="print only the class count")
@click.option("--shards", type=int, default=None, help="total shards")
@click.option("--shard", type=int, default=None, help="this shard's index")
@_jobs_option("; ignored when --shards/--shard are given")
@click.option("--format", "fmt", type=click.Choice(["g6", "text", "json"]),
              default="g6", show_default=True)
def cmd_enumerate(n: int, m: Optional[int], count: bool, shards: Optional[int],
                  shard: Optional[int], jobs: int, fmt: str) -> None:
    """Connected even-degree graphs of order N, one canonical graph6 each,
    in sorted order."""
    with _exit_codes():
        if (shards is None) != (shard is None):
            raise ValueError("--shards and --shard must be given together")
        kw = _build_filter(n, m)._asdict()
        lines = (map_shards(_shard_g6, kw, jobs, n) if shards is None
                 else _shard_g6((kw, shards, shard)))
    lines.sort()
    if count:
        click.echo(str(len(lines)))
    elif fmt == "json":
        click.echo(json.dumps(lines))
    else:
        for line in lines:
            click.echo(line)


@main.command("rank")
@click.option("--n", type=int, required=True, help="order")
@click.option("--top", type=int, default=3, show_default=True,
              help="number of distinct Wiener values to keep")
@click.option("--objective", type=click.Choice(["max", "min"]), default="max",
              show_default=True)
@_jobs_option()
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json", "g6"]),
              default="text", show_default=True)
def cmd_rank(n: int, top: int, objective: str, jobs: int, fmt: str) -> None:
    """Extreme Wiener values over connected even-degree graphs of order N."""
    obj = "max_wiener" if objective == "max" else "min_wiener"
    with _exit_codes():
        kw = _build_filter(n, None)._asdict()
        if top < 1:  # here, not in the workers: every --jobs value gives one error
            raise ValueError("k must be positive")
        entries = _top_k(map_shards(_shard_rank, (kw, obj, top), jobs, n), obj, top)
    if fmt == "json":
        click.echo(json.dumps([{"wiener": w, "graph6": g6} for w, g6 in entries]))
    elif fmt == "csv":
        _echo_csv(["wiener", "graph6"], entries)
    elif fmt == "g6":
        for _, g6 in entries:
            click.echo(g6)
    else:
        for w, g6 in entries:
            click.echo(f"{w} {g6}")


# ---------------------------------------------------------------------------


def _report_payload(report: ClaimReport) -> dict:
    return {
        "claim": report.claim_id,
        "params": report.param_dict(),
        "status": report.status,
        "witnesses": list(report.witnesses),
        "elapsed_ms": int(report.elapsed * 1000),
        "notes": report.notes,
    }


@main.command("verify")
@click.option("--claim", "claim_id", type=click.Choice(list(CLAIM_IDS)),
              required=True)
@click.option("--n", type=int, default=None)
@click.option("--n-range", "n_range", type=str, default=None,
              metavar="A:B", help="order range for L3/GAP")
@_jobs_option()
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def cmd_verify(claim_id: str, n: Optional[int], n_range: Optional[str],
               jobs: int, fmt: str) -> None:
    """Run one claim check; exit 0 verified, 1 violated, 2 out of envelope."""
    with _exit_codes():
        rng = _parse_range(n_range) if n_range is not None else None
        report = verify_claim(claim_id, n=n, n_range=rng, jobs=jobs)
    if fmt == "text":
        click.echo(f"{report.claim_id} {report.param_dict()} {report.status}: "
                   f"{report.notes}")
        for g6 in report.witnesses:
            click.echo(f"  witness {g6}")
    else:
        click.echo(json.dumps(_report_payload(report), sort_keys=True))
    if report.status == VIOLATED:
        sys.exit(1)
    if report.status == SKIPPED:
        sys.exit(2)


@main.command("min-table")
@click.option("--n", type=int, required=True)
@click.option("--m", "m_max", type=int, default=None,
              help="largest size row (default: one below the diameter-2 threshold)")
@_jobs_option()
@click.option("--format", "fmt", type=click.Choice(["csv", "text", "json"]),
              default="csv", show_default=True)
def cmd_min_table(n: int, m_max: Optional[int], jobs: int, fmt: str) -> None:
    """Per-size minimum Wiener values over connected even-degree graphs."""
    with _exit_codes():
        rows = min_wiener_table(n, m_max, jobs=jobs)
    if fmt == "json":
        click.echo(json.dumps([r._asdict() for r in rows]))
    elif fmt == "text":
        for r in rows:
            value = "-" if r.min_wiener is None else str(r.min_wiener)
            wits = " ".join(r.witnesses) or "-"
            click.echo(f"n={r.n} m={r.m} min_wiener={value} witnesses={wits}")
    else:
        _echo_csv(["n", "m", "min_wiener", "witness_count", "witnesses"],
                  [(r.n, r.m, r.min_wiener, len(r.witnesses), " ".join(r.witnesses))
                   for r in rows])


if __name__ == "__main__":
    main()
