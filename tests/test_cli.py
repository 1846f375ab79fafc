"""Command-line surface: formats, exit codes, determinism."""
import concurrent.futures
import json
import multiprocessing
import os
import re
import signal

import pytest
from click.testing import CliRunner

from wienerlab import cli, verify
from wienerlab.canon import canonical_form
from wienerlab.cli import main
from wienerlab.families import cocktail_party, cycle, vertex_glued_cycles
from wienerlab.formulas import connectivity_bounds
from wienerlab.verify import min_wiener_table

C8 = "G?LTE?"          # canonical 8-cycle
GLUED_83 = "G@@KV_"    # triangle glued to a hexagon at one vertex
TWO_TRIANGLES = "EwCW"  # disconnected: 2 disjoint triangles


@pytest.fixture()
def runner():
    return CliRunner()


def test_wiener_reads_stdin(runner):
    result = runner.invoke(main, ["wiener"], input=f"{C8}\n\n{TWO_TRIANGLES}\n")
    assert result.exit_code == 0
    assert result.stdout == f"{C8} 64\n{TWO_TRIANGLES} INF\n"
    assert result.stderr == ""


def test_wiener_small_and_disconnected_orders(runner):
    """n = 0 and disconnected graphs print INF, K_1 prints 0."""
    lines = ["?", "@", "A?", "A_", TWO_TRIANGLES, C8]
    result = runner.invoke(main, ["wiener"], input="\n".join(lines) + "\n")
    assert result.exit_code == 0
    assert result.stdout == (f"? INF\n@ 0\nA? INF\nA_ 1\n{TWO_TRIANGLES} INF\n"
                             f"{C8} 64\n")
    assert result.stderr == ""


def test_wiener_empty_stdin(runner):
    result = runner.invoke(main, ["wiener"], input="")
    assert result.exit_code == 0
    assert result.stdout == ""


def test_wiener_malformed_line(runner):
    result = runner.invoke(main, ["wiener"], input=f"{C8}\nnot-a-graph\x01\n")
    assert result.exit_code == 1
    assert result.stdout == f"{C8} 64\n"
    assert result.stderr.startswith("error: not-a-graph")


def test_construct_then_wiener_pipeline(runner):
    built = runner.invoke(main, ["construct", "vertex-glued-cycles",
                                 "--n", "8", "--a", "3"])
    assert built.exit_code == 0
    assert built.stdout == f"{GLUED_83}\n"
    piped = runner.invoke(main, ["wiener"], input=built.stdout)
    assert piped.exit_code == 0
    assert piped.stdout == f"{GLUED_83} 58\n"


def test_construct_formats(runner):
    text = runner.invoke(main, ["construct", "cycle", "--n", "8"])
    assert text.stdout == f"{C8}\n"
    as_json = runner.invoke(main, ["construct", "cycle", "--n", "8",
                                   "--format", "json"])
    assert json.loads(as_json.stdout) == [C8]
    catalog = runner.invoke(main, ["construct", "runner-up", "--n", "8"])
    assert catalog.exit_code == 0
    assert len(catalog.stdout.splitlines()) >= 1


def test_construct_prints_one_graph_or_the_whole_catalog(runner, monkeypatch):
    """A Graph is a tuple of its fields, so construct must tell one graph
    from a catalog by type, not by tuple-ness."""
    one = runner.invoke(main, ["construct", "cycle", "--n", "6"])
    assert (one.exit_code, one.stdout) == (0, "EBj?\n")
    catalog = runner.invoke(main, ["construct", "runner-up", "--n", "9"])
    assert (catalog.exit_code, catalog.stdout) == (0, "H??HeZo\n")
    monkeypatch.setitem(cli.FAMILIES, "runner-up",
                        (("n",), lambda n: (cycle(n), vertex_glued_cycles(n, 3))))
    two = runner.invoke(main, ["construct", "runner-up", "--n", "8"])
    assert (two.exit_code, two.stdout) == (0, f"{C8}\n{GLUED_83}\n")


def test_construct_usage_errors(runner):
    missing = runner.invoke(main, ["construct", "vertex-glued-cycles", "--n", "8"])
    assert missing.exit_code == 2
    assert missing.stderr.startswith("error:")
    domain = runner.invoke(main, ["construct", "cycle", "--n", "2"])
    assert domain.exit_code == 2
    unknown = runner.invoke(main, ["construct", "moebius", "--n", "8"])
    assert unknown.exit_code == 2
    # every family refuses an order graph6 cannot encode before building it
    for args in (["cycle", "--n", "100000000000"],
                 ["path", "--n", "258048"],
                 ["complete", "--n", "300000"],
                 ["cocktail-party", "--n", "300000"],
                 ["vertex-glued-cycles", "--n", "300000", "--a", "3"],
                 ["edge-glued-cycles", "--n", "300000", "--a", "4"],
                 ["friendship", "--n", "129024"],
                 ["sparse-diameter-two", "--n", "300000"],
                 ["runner-up", "--n", "300000"]):
        huge = runner.invoke(main, ["construct", *args])
        assert huge.exit_code == 2, args
        assert huge.stdout == ""
        assert huge.stderr.startswith("error:")
        assert len(huge.stderr.splitlines()) == 1


def test_formula_values(runner):
    tri = runner.invoke(main, ["formula", "wiener-vertex-glued-triangle",
                               "--n", "26"])
    assert tri.exit_code == 0
    assert tri.stdout == "2065\n"
    gap = runner.invoke(main, ["formula", "second-place-gap",
                               "--n", "26", "--a", "3"])
    assert gap.stdout == "489/24\n"


def test_formula_dict_output(runner):
    text = runner.invoke(main, ["formula", "connectivity-bounds", "--n", "6"])
    assert text.exit_code == 0
    bounds = connectivity_bounds(6)
    assert text.stdout.splitlines() == [
        f"{key} {bounds[key]}" for key in sorted(bounds)
    ]
    as_json = runner.invoke(main, ["formula", "connectivity-bounds", "--n", "6",
                                   "--format", "json"])
    assert json.loads(as_json.stdout) == bounds


def test_formula_usage_errors(runner):
    missing = runner.invoke(main, ["formula", "wiener-edge-glued", "--n", "8"])
    assert missing.exit_code == 2
    assert "--a" in missing.stderr
    domain = runner.invoke(main, ["formula", "wiener-cycle", "--n", "2"])
    assert domain.exit_code == 2
    for n, a in (("20", "3"), ("30", "20")):
        gap = runner.invoke(main, ["formula", "second-place-gap", "--n", n, "--a", a])
        assert gap.exit_code == 2 and gap.stdout == ""
        assert gap.stderr.startswith("error:") and len(gap.stderr.splitlines()) == 1


def test_an_option_the_registry_entry_does_not_take_is_a_usage_error(runner):
    for args, unused in (
        (["formula", "wiener-cycle", "--n", "10", "--a", "3", "--m", "7"], "--a, --m"),
        (["construct", "cycle", "--n", "6", "--a", "3"], "--a"),
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1
        assert result.stderr.rstrip().endswith(f"does not take {unused}")
    # friendship's k is read from --n, which is therefore used
    assert runner.invoke(main, ["construct", "friendship", "--n", "3"]).exit_code == 0


def test_enumerate_count_and_listing(runner):
    count = runner.invoke(main, ["enumerate", "--n", "6", "--count"])
    assert count.exit_code == 0
    assert count.stdout == "8\n"
    listing = runner.invoke(main, ["enumerate", "--n", "6"])
    lines = listing.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 8
    assert canonical_form(cycle(6)) in lines
    again = runner.invoke(main, ["enumerate", "--n", "6"])
    assert again.stdout == listing.stdout


def test_enumerate_size_restriction(runner):
    result = runner.invoke(main, ["enumerate", "--n", "7", "--m", "8", "--count"])
    assert result.stdout == "2\n"


def test_enumerate_shards_partition_the_run(runner):
    full = set(runner.invoke(main, ["enumerate", "--n", "7"]).stdout.splitlines())
    merged = []
    for index in range(3):
        part = runner.invoke(main, ["enumerate", "--n", "7",
                                    "--shards", "3", "--shard", str(index)])
        assert part.exit_code == 0
        merged.extend(part.stdout.splitlines())
    assert len(merged) == len(full)
    assert set(merged) == full


def test_enumerate_output_is_sorted_for_any_jobs(runner):
    serial = runner.invoke(main, ["enumerate", "--n", "7"])
    pooled = runner.invoke(main, ["enumerate", "--n", "7", "--jobs", "2"])
    assert serial.exit_code == pooled.exit_code == 0
    assert pooled.stdout == serial.stdout
    lines = serial.stdout.splitlines()
    assert len(lines) == 37 and lines == sorted(lines)
    shard = runner.invoke(main, ["enumerate", "--n", "7",
                                 "--shards", "3", "--shard", "1"])
    shard_lines = shard.stdout.splitlines()
    assert shard_lines == sorted(shard_lines)


def test_pooled_runs_match_the_census(runner, census9):
    """From order 9 on --jobs 2 starts the pool; its stdout is what the
    order-9 census gives."""
    pooled = runner.invoke(main, ["enumerate", "--n", "9", "--jobs", "2"])
    assert pooled.exit_code == 0
    assert pooled.stdout.splitlines() == sorted(g6 for _, _, g6 in census9)
    ranked = runner.invoke(main, ["rank", "--n", "9", "--top", "3", "--jobs", "2"])
    assert ranked.exit_code == 0
    top = sorted({w for w, _, _ in census9}, reverse=True)[:3]
    assert ranked.stdout.splitlines() == [
        f"{w} {g6}" for w in top for g6 in sorted(g for v, _, g in census9 if v == w)]


def test_no_pool_starts_below_order_nine(runner, monkeypatch):
    """Below the floor --jobs 2 runs in this process, with the same bytes."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for command in (["enumerate", "--n", "8"], ["rank", "--n", "5"]):
        serial = runner.invoke(main, command + ["--jobs", "1"])
        pooled = runner.invoke(main, command + ["--jobs", "2"])
        assert serial.exit_code == pooled.exit_code == 0
        assert pooled.stdout == serial.stdout
        assert serial.stdout


def test_enumerate_jobs_is_ignored_with_shards(runner):
    plain = runner.invoke(main, ["enumerate", "--n", "6",
                                 "--shards", "3", "--shard", "0"])
    pooled = runner.invoke(main, ["enumerate", "--n", "6", "--jobs", "2",
                                  "--shards", "3", "--shard", "0"])
    assert plain.exit_code == pooled.exit_code == 0
    assert pooled.stdout == plain.stdout
    assert 0 < len(plain.stdout.splitlines()) < 8


def test_enumerate_usage_errors(runner):
    half = runner.invoke(main, ["enumerate", "--n", "7", "--shards", "3"])
    assert half.exit_code == 2
    too_big = runner.invoke(main, ["enumerate", "--n", "13"])
    assert too_big.exit_code == 2
    assert too_big.stderr.startswith("error:")
    for total in ("0", "-2"):
        no_shards = runner.invoke(main, ["enumerate", "--n", "7",
                                         "--shards", total, "--shard", "0"])
        assert no_shards.exit_code == 2
        assert no_shards.stderr == (
            f"error: shard count must be positive, got {total}\n")
    outside = runner.invoke(main, ["enumerate", "--n", "7",
                                   "--shards", "3", "--shard", "3"])
    assert outside.exit_code == 2
    assert outside.stderr == "error: shard 3 outside 0..2\n"


def test_rank_text_and_csv(runner):
    text = runner.invoke(main, ["rank", "--n", "8", "--top", "2"])
    assert text.exit_code == 0
    lines = text.stdout.splitlines()
    assert lines[0] == f"64 {C8}"
    assert sorted(lines[1:]) == lines[1:]
    assert len(lines) == 3 and all(l.startswith("58 ") for l in lines[1:])
    assert f"58 {GLUED_83}" in lines

    as_csv = runner.invoke(main, ["rank", "--n", "8", "--top", "2",
                                  "--format", "csv"])
    rows = as_csv.stdout.splitlines()
    assert rows[0] == "wiener,graph6"
    assert rows[1:] == [l.replace(" ", ",") for l in lines]


def test_rank_json_and_g6(runner):
    as_json = runner.invoke(main, ["rank", "--n", "8", "--top", "1",
                                   "--format", "json"])
    assert json.loads(as_json.stdout) == [{"wiener": 64, "graph6": C8}]
    as_g6 = runner.invoke(main, ["rank", "--n", "8", "--top", "1",
                                 "--format", "g6"])
    assert as_g6.stdout == f"{C8}\n"


def test_rank_min_objective(runner):
    result = runner.invoke(main, ["rank", "--n", "8", "--objective", "min",
                                  "--top", "1"])
    assert result.stdout == f"32 {canonical_form(cocktail_party(8))}\n"


def test_rank_parallel_agrees_with_serial(runner):
    serial = runner.invoke(main, ["rank", "--n", "7", "--top", "3"])
    parallel = runner.invoke(main, ["rank", "--n", "7", "--top", "3",
                                    "--jobs", "2"])
    assert parallel.exit_code == 0
    assert parallel.stdout == serial.stdout


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_rank_top_below_one_is_a_usage_error_for_any_jobs(runner, monkeypatch, jobs):
    """--top is checked before the fan-out: no worker starts, and both
    paths exit 2 with the same single line."""
    def no_pool(*args):
        raise AssertionError("a shard pool was started")

    monkeypatch.setattr(cli, "map_shards", no_pool)
    result = runner.invoke(main, ["rank", "--n", "7", "--top", "0", "--jobs", jobs])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: k must be positive\n"


@pytest.mark.parametrize("objective", ["min", "max"])
@pytest.mark.parametrize("top", ["1", "4"])
def test_pooled_rank_merge_matches_one_process(runner, alarm, objective, top):
    """At order 9 --jobs 2 merges the top lists of eight pooled shards; the
    merge gives the bytes of the unsharded run for both objectives."""
    command = ["rank", "--n", "9", "--objective", objective, "--top", top]
    serial = runner.invoke(main, command + ["--jobs", "1"])
    pooled = runner.invoke(main, command + ["--jobs", "2"])
    assert serial.exit_code == pooled.exit_code == 0
    assert pooled.stdout == serial.stdout
    assert len(serial.stdout.splitlines()) >= int(top)


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["enumerate", "--n", "9", "--count"],
    ["rank", "--n", "9"],
    ["verify", "--claim", "T1", "--n", "9"],
    ["min-table", "--n", "9"],
])
def test_jobs_below_one_is_a_usage_error(runner, command, jobs):
    result = runner.invoke(main, command + ["--jobs", jobs])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "'--jobs'" in result.stderr and f"{jobs} is not in the range" in result.stderr


def fail_in_shard_three(args):
    """Shard worker that raises in shard 3; module level, since the pool
    pickles it."""
    _, _, index = args
    if index == 3:
        raise MemoryError("shard 3 ran out")
    return []


@pytest.mark.parametrize("command,module,worker", [
    (["enumerate", "--n", "9", "--jobs", "2"], cli, "_shard_g6"),
    (["rank", "--n", "9", "--jobs", "2"], cli, "_shard_rank"),
    (["verify", "--claim", "T1", "--n", "9", "--jobs", "2"], verify,
     "_eulerian_shard"),
])
def test_failed_worker_exits_one_with_one_error_line(
        runner, monkeypatch, command, module, worker):
    """No traceback, no output, and no census cached from the other shards."""
    monkeypatch.setattr(verify, "_eulerian_cache", {})
    monkeypatch.setattr(module, worker, fail_in_shard_three)
    result = runner.invoke(main, command)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: shard worker failed: MemoryError: shard 3 ran out\n")
    assert verify._eulerian_cache == {}


def kill_in_shard_three(args):
    """Shard worker whose process SIGKILLs itself in shard 3; it never kills
    the test process, should the shard run there (a pool worker has a
    parent process, the test process has none)."""
    _, _, index = args
    if index == 3 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return []


def test_killed_worker_exits_one_with_one_error_line(runner, monkeypatch, alarm):
    """A worker that dies ends the command instead of hanging it, and the
    census of the other shards is not cached."""
    monkeypatch.setattr(verify, "_eulerian_cache", {})
    monkeypatch.setattr(verify, "_eulerian_shard", kill_in_shard_three)
    result = runner.invoke(main, ["verify", "--claim", "T1", "--n", "9", "--jobs", "2"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: shard worker failed: BrokenProcessPool: ")
    assert result.stderr.count("\n") == 1
    assert verify._eulerian_cache == {}


def test_verify_json_report(runner):
    result = runner.invoke(main, ["verify", "--claim", "T1", "--n", "6"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert sorted(payload) == [
        "claim", "elapsed_ms", "notes", "params", "status", "witnesses",
    ]
    assert payload["claim"] == "T1"
    assert payload["params"] == {"n": 6}
    assert payload["status"] == "verified"
    assert payload["witnesses"] == [canonical_form(cycle(6))]
    assert isinstance(payload["elapsed_ms"], int)


def test_verify_exit_codes(runner):
    violated = runner.invoke(main, ["verify", "--claim", "FIG1", "--n", "11"])
    assert violated.exit_code == 1
    assert json.loads(violated.stdout)["status"] == "violated"
    assert json.loads(violated.stdout)["witnesses"]

    skipped = runner.invoke(main, ["verify", "--claim", "T1", "--n", "11"])
    assert skipped.exit_code == 2
    assert json.loads(skipped.stdout)["status"] == "skipped_out_of_envelope"


def test_verify_range_claims(runner):
    ranged = runner.invoke(main, ["verify", "--claim", "L3",
                                  "--n-range", "26:30"])
    assert ranged.exit_code == 0
    assert json.loads(ranged.stdout)["params"] == {"n_lo": 26, "n_hi": 30}
    defaulted = runner.invoke(main, ["verify", "--claim", "GAP"])
    assert defaulted.exit_code == 0


def test_verify_usage_errors(runner):
    no_order = runner.invoke(main, ["verify", "--claim", "T2"])
    assert no_order.exit_code == 2
    assert no_order.stderr.startswith("error:")
    bad_range = runner.invoke(main, ["verify", "--claim", "L3",
                                     "--n-range", "26-30"])
    assert bad_range.exit_code == 2
    assert "bad range" in bad_range.stderr
    reversed_range = runner.invoke(main, ["verify", "--claim", "L3",
                                          "--n-range", "40:30"])
    assert reversed_range.exit_code == 2
    assert reversed_range.stderr == "error: empty range 40:30, need A <= B\n"
    outside = runner.invoke(main, ["verify", "--claim", "L3",
                                   "--n-range", "20:30"])
    assert outside.exit_code == 2
    assert outside.stderr == "error: range must lie within [26, 5000]\n"
    unknown = runner.invoke(main, ["verify", "--claim", "T9", "--n", "6"])
    assert unknown.exit_code == 2


@pytest.mark.parametrize("command,error", [
    (["--claim", "GAP", "--n", "30"],
     "claim GAP takes a range of orders, not an order"),
    (["--claim", "GAP", "--n", "30", "--n-range", "26:30"],
     "claim GAP takes a range of orders, not an order"),
    (["--claim", "L3", "--n", "30", "--n-range", "26:30"],
     "claim L3 takes a range of orders, not an order"),
    (["--claim", "T1", "--n", "5", "--n-range", "26:30"],
     "claim T1 takes an order, not a range"),
    (["--claim", "Q1", "--n", "9", "--n-range", "26:30", "--jobs", "2"],
     "claim Q1 takes an order, not a range"),
])
def test_verify_rejects_the_wrong_kind_of_order(runner, command, error):
    """A range claim given --n, or an order claim given --n-range, exits 2
    before any work, instead of running without the argument."""
    result = runner.invoke(main, ["verify", *command])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {error}\n"


def test_verify_text_format(runner):
    result = runner.invoke(main, ["verify", "--claim", "T1", "--n", "6",
                                  "--format", "text"])
    assert result.exit_code == 0
    assert result.stdout.startswith("T1 {'n': 6} verified:")
    assert f"  witness {canonical_form(cycle(6))}" in result.stdout


def test_verify_reruns_identical_modulo_elapsed(runner):
    outs = []
    for _ in range(2):
        result = runner.invoke(main, ["verify", "--claim", "T2", "--n", "7"])
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": X',
                           result.stdout))
    assert outs[0] == outs[1]


def test_verify_and_min_table_json_are_pinned(runner, census9):
    """The JSON bytes of a claim report (apart from elapsed_ms) and of the
    table rows, field order included."""
    report = runner.invoke(main, ["verify", "--claim", "T2", "--n", "9"])
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": X', report.stdout) == (
        '{"claim": "T2", "elapsed_ms": X, "notes": "second-largest W = 83; '
        'runner-up set is the cataloged chain alone, above the triangle-glued '
        'cycle", "params": {"n": 9}, "status": "verified", '
        '"witnesses": ["H??HeZo"]}\n')
    table = runner.invoke(main, ["min-table", "--n", "9", "--format", "json"])
    assert table.stdout == (
        '[{"n": 9, "m": 8, "min_wiener": null, "witnesses": []}, '
        '{"n": 9, "m": 9, "min_wiener": 90, "witnesses": ["H?CidB?"]}, '
        '{"n": 9, "m": 10, "min_wiener": 78, "witnesses": ["H?CaKRo"]}, '
        '{"n": 9, "m": 11, "min_wiener": 67, "witnesses": ["H?CaC^o"]}]\n')


def test_min_table_csv(runner):
    result = runner.invoke(main, ["min-table", "--n", "8"])
    assert result.exit_code == 0
    rows = result.stdout.splitlines()
    assert rows[0] == "n,m,min_wiener,witness_count,witnesses"
    table = min_wiener_table(8)
    assert len(rows) == 1 + len(table)
    for line, entry in zip(rows[1:], table):
        value = "" if entry.min_wiener is None else str(entry.min_wiener)
        assert line == (f"{entry.n},{entry.m},{value},"
                        f"{len(entry.witnesses)},{' '.join(entry.witnesses)}")


def test_min_table_text_marks_empty_rows(runner):
    result = runner.invoke(main, ["min-table", "--n", "8", "--format", "text"])
    assert result.stdout.splitlines()[0] == "n=8 m=7 min_wiener=- witnesses=-"


def test_min_table_json(runner):
    result = runner.invoke(main, ["min-table", "--n", "8", "--format", "json"])
    payload = json.loads(result.stdout)
    assert [row["m"] for row in payload] == [7, 8, 9, 10]


def test_min_table_usage_errors(runner):
    assert runner.invoke(main, ["min-table", "--n", "11"]).exit_code == 2
    assert runner.invoke(main, ["min-table", "--n", "9", "--m", "12"]).exit_code == 2


@pytest.mark.parametrize("fmt,stdout", [
    ("csv", "n,m,min_wiener,witness_count,witnesses\n"),
    ("json", "[]\n"),
    ("text", ""),
])
def test_min_table_order_four_is_empty(runner, fmt, stdout):
    """At order 4 no size lies below the diameter-2 threshold (3 edges):
    the default range is empty and the table has no rows."""
    result = runner.invoke(main, ["min-table", "--n", "4", "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert result.stderr == ""


@pytest.mark.parametrize("m", ["2", "3"])
def test_min_table_order_four_rejects_an_explicit_size(runner, m):
    result = runner.invoke(main, ["min-table", "--n", "4", "--m", m])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: m_max must lie in [3, 2] "
                             "(strictly below the diameter-2 size threshold)\n")


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("wiener", "construct", "formula", "enumerate",
                    "rank", "verify", "min-table"):
        assert command in result.stdout
