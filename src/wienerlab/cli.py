"""Command-line entry point.

Subcommands:

  wiener      read graph6 lines on stdin, write "<graph6> <W>" per line
  construct   emit a named family member as graph6
  formula     evaluate a named closed form
  enumerate   stream one canonical graph6 per isomorphism class
  rank        top-K Wiener values with all attaining graphs
  verify      run one claim check, JSON report on stdout
  min-table   per-size minimum Wiener table (CSV)

Exit codes: 0 success, 1 violated claim or bad input data, 2 usage or
envelope errors.  All outputs are deterministic; timing lives only in the
elapsed_ms field of verify reports.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from typing import Optional

import click

from .canon import canonical_form
from .families import FAMILIES
from .formulas import FORMULAS, second_place_gap_numerator
from .generate import (
    SHARDS as _INTERNAL_SHARDS,  # read by perfbench's traced pool run
    EnumFilter,
    EnumPartition,
    enumerate_graphs,
    extremal_scan,
    map_shards,
)
from .graphs import Graph, graph6_decode, graph6_encode, wiener
from .verify import ClaimReport, CLAIM_IDS, min_wiener_table, verify_claim


def _fail_usage(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        _fail_usage(f"bad range {text!r}, expected A:B")
        raise AssertionError  # unreachable


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


def _family_args(names: tuple[str, ...], n: Optional[int], a: Optional[int]) -> list:
    values = []
    for name in names:
        if name in ("n", "k"):
            if n is None:
                _fail_usage("this family needs --n")
            values.append(n)
        elif name == "a":
            if a is None:
                _fail_usage("this family needs --a")
            values.append(a)
    return values


@main.command("construct")
@click.argument("family", type=click.Choice(sorted(FAMILIES)))
@click.option("--n", type=int, default=None, help="order (or size parameter)")
@click.option("--a", type=int, default=None, help="split parameter, when applicable")
@click.option("--format", "fmt", type=click.Choice(["g6", "text", "json"]),
              default="g6", show_default=True)
def cmd_construct(family: str, n: Optional[int], a: Optional[int], fmt: str) -> None:
    """Emit one family member (or catalog) as canonical graph6, one per line."""
    names, fn = FAMILIES[family]
    try:
        result = fn(*_family_args(names, n, a))
    except ValueError as exc:
        _fail_usage(str(exc))
        return
    graphs = list(result) if isinstance(result, tuple) else [result]
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
    values = []
    for pname in names:
        given = {"n": n, "a": a, "m": m}.get(pname)
        if given is None:
            _fail_usage(f"formula {name} needs --{pname}")
        values.append(given)
    try:
        result = fn(*values)
    except ValueError as exc:
        _fail_usage(str(exc))
        return
    if name == "second-place-gap":
        # keep the /24 denominator visible rather than auto-reducing
        result = f"{second_place_gap_numerator(*values)}/24"
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
@click.option("--jobs", type=int, default=1, show_default=True,
              help="worker processes; ignored when --shards/--shard are given")
@click.option("--format", "fmt", type=click.Choice(["g6", "text", "json"]),
              default="g6", show_default=True)
def cmd_enumerate(n: int, m: Optional[int], count: bool, shards: Optional[int],
                  shard: Optional[int], jobs: int, fmt: str) -> None:
    """Connected even-degree graphs of order N, one canonical graph6 each,
    in sorted order."""
    if (shards is None) != (shard is None):
        _fail_usage("--shards and --shard must be given together")
    try:
        filt = _build_filter(n, m)
        filt.validate()
        kw = {"order": filt.order, "require_even_degrees": True,
              "size_range": filt.size_range}
        if jobs > 1 and shards is None:
            lines = map_shards(_shard_g6, kw, jobs)
        else:
            part = (1, 0) if shards is None else (shards, shard)
            lines = _shard_g6((kw, *part))
    except ValueError as exc:
        _fail_usage(str(exc))
        return
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
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json", "g6"]),
              default="text", show_default=True)
def cmd_rank(n: int, top: int, objective: str, jobs: int, fmt: str) -> None:
    """Extreme Wiener values over connected even-degree graphs of order N."""
    obj = "max_wiener" if objective == "max" else "min_wiener"
    try:
        filt = _build_filter(n, None)
        filt.validate()
        args = ({"order": filt.order, "require_even_degrees": True}, obj, top)
        found: dict[int, set[str]] = {}
        for w, g6 in (map_shards(_shard_rank, args, jobs) if jobs > 1
                      else _shard_rank((args, 1, 0))):
            found.setdefault(w, set()).add(g6)
        sign = -1 if obj == "max_wiener" else 1
        keep = sorted(found, key=lambda w: sign * w)[:top]
        entries = [(w, g6) for w in keep for g6 in sorted(found[w])]
    except ValueError as exc:
        _fail_usage(str(exc))
        return
    if fmt == "json":
        click.echo(json.dumps([{"wiener": w, "graph6": g6} for w, g6 in entries]))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["wiener", "graph6"])
        writer.writerows(entries)
        click.echo(buf.getvalue().rstrip("\n"))
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
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def cmd_verify(claim_id: str, n: Optional[int], n_range: Optional[str],
               jobs: int, fmt: str) -> None:
    """Run one claim check; exit 0 verified, 1 violated, 2 out of envelope."""
    rng = _parse_range(n_range) if n_range is not None else None
    try:
        report = verify_claim(claim_id, n=n, n_range=rng, jobs=jobs)
    except ValueError as exc:
        _fail_usage(str(exc))
        return
    if fmt == "text":
        click.echo(f"{report.claim_id} {report.param_dict()} {report.status}: "
                   f"{report.notes}")
        for g6 in report.witnesses:
            click.echo(f"  witness {g6}")
    else:
        click.echo(json.dumps(_report_payload(report), sort_keys=True))
    if report.status == "violated":
        sys.exit(1)
    if report.status == "skipped_out_of_envelope":
        sys.exit(2)


@main.command("min-table")
@click.option("--n", type=int, required=True)
@click.option("--m", "m_max", type=int, default=None,
              help="largest size row (default: one below the diameter-2 threshold)")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "text", "json"]),
              default="csv", show_default=True)
def cmd_min_table(n: int, m_max: Optional[int], jobs: int, fmt: str) -> None:
    """Per-size minimum Wiener values over connected even-degree graphs."""
    try:
        rows = min_wiener_table(n, m_max, jobs=jobs)
    except ValueError as exc:
        _fail_usage(str(exc))
        return
    if fmt == "json":
        click.echo(json.dumps([
            {"n": r.n, "m": r.m, "min_wiener": r.min_wiener,
             "witnesses": list(r.witnesses)}
            for r in rows
        ]))
    elif fmt == "text":
        for r in rows:
            value = "-" if r.min_wiener is None else str(r.min_wiener)
            wits = " ".join(r.witnesses) or "-"
            click.echo(f"n={r.n} m={r.m} min_wiener={value} witnesses={wits}")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "m", "min_wiener", "witness_count", "witnesses"])
        for r in rows:
            writer.writerow([
                r.n, r.m,
                "" if r.min_wiener is None else r.min_wiener,
                len(r.witnesses),
                " ".join(r.witnesses),
            ])
        click.echo(buf.getvalue().rstrip("\n"))


if __name__ == "__main__":
    main()
