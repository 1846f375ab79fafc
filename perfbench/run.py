"""wienerlab benchmark: one workload, timed, checked against oracles.

    python3 perfbench/run.py --workload eulerian9 --seed 1 --seconds 10 --trace 0

Run from the root of a wienerlab checkout (the program is imported from
``src``).  With --trace 0 it repeats whole rounds of the workload, each in a
fresh process, stops at the round boundary nearest to --seconds, and reports
the end-to-end metrics as medians over the rounds.  With --trace 1 it runs
one untraced and one traced round and reports the per-layer metrics.  After
the rounds, each operation's output is checked against the oracles in
oracles.py.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("eulerian9", "connected8", "sweeps", "cli-pool8")
POOL_ORDER = 8
SETUP_SPAWNS = 3
CLI_START_SPAWNS = 5
WIENER_STAGE_SPAWNS = 3
OUT_DIR = ".perfbench"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "canon.calls": "count", "canon.self_s": "s", "canon.us_per_call": "us",
    "generate.self_s": "s", "generate.emit_s": "s",
    "generate.classes_per_canon_call": "ratio",
    "generate.shard_canon_ratio": "ratio", "generate.shard_max_s": "s",
    "generate.shard_imbalance": "ratio",
    "graphs.bfs_calls": "count", "graphs.bfs_self_s": "s",
    "graphs.wiener_us_per_graph": "us", "graphs.diameter_s": "s", "graphs.sigma_s": "s",
    "graphs.lowpoint_s": "s", "graphs.g6_decode_s": "s", "graphs.g6_encode_s": "s",
    "graphs.build_s": "s",
    "families.build_s": "s", "formulas.calls": "count", "formulas.self_s": "s",
    "verify.census_s": "s", "verify.self_s": "s",
    "cli.start_s": "s", "cli.wiener_stage_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    """A finished child process with the resources it and its children used."""
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    maxrss_kb: int


def run_proc(cmd: list[str], env: dict, stdin_text: str = "") -> Proc:
    """Run cmd to completion through launch.py, which measures it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as fin, \
            tempfile.TemporaryFile(dir=OUT_DIR) as fout, \
            tempfile.TemporaryFile(dir=OUT_DIR) as ferr, \
            tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json") as fres:
        fin.write(stdin_text.encode())
        fin.seek(0)
        launcher = [sys.executable, os.path.join(HERE, "launch.py"), fres.name]
        p = subprocess.Popen(launcher + cmd, stdin=fin, stdout=fout, stderr=ferr, env=env)
        try:
            p.wait()
        except BaseException:
            p.kill()
            p.wait()
            raise
        fout.seek(0)
        ferr.seek(0)
        out, err = fout.read().decode(), ferr.read().decode()
        if p.returncode != 0:
            raise RuntimeError(f"launcher exited {p.returncode}:\n{err[-2000:]}")
        res = json.load(fres)
        return Proc(res["code"], out, err, res["wall"], res["cpu"], res["maxrss_kb"])


def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_rev() -> str:
    """The commit named by .git/HEAD when the checkout has one, else 'none'."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()[:12]
        return head[:12]
    except OSError:
        return "none"


def source_digest() -> str:
    """sha256 over the program's source files, for runs outside git."""
    h = hashlib.sha256()
    root = os.path.join("src", "wienerlab")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


class Checker:
    """Counts operations, failures and oracle disagreements.

    Outputs are collected while the rounds run and judged after the timed
    loop, so oracle time never decides how many rounds a run gets.  Rounds
    that produce identical outputs share one verdict.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._pending: list[tuple[list[str], dict[str, str], str]] = []
        self._checks: dict[str, Callable[[], dict[str, list[str]]]] = {}

    def submit(self, names: list[str], errors: dict[str, str], output: object,
               check: Callable[[], dict[str, list[str]]]) -> None:
        """Queue one round's operations; ``check`` judges ``output``."""
        key = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
        self._checks.setdefault(key, check)
        self._pending.append((names, errors, key))

    def finish(self) -> None:
        verdicts = {key: self._judge(check) for key, check in self._checks.items()}
        for names, errors, key in self._pending:
            self.record(names, errors, verdicts[key])
        self._pending.clear()
        self._checks.clear()

    @staticmethod
    def _judge(check: Callable[[], dict[str, list[str]]]) -> dict[str, list[str]]:
        """An oracle that cannot read an output judges none of its operations."""
        try:
            return check()
        except Exception as exc:
            print(f"# oracle raised {type(exc).__name__}: {exc}")
            return {}

    def record(self, names: list[str], errors: dict[str, str],
               verdict: dict[str, list[str]]) -> None:
        for name in names:
            self.attempted += 1
            problems = verdict.get(name, ["unchecked: no oracle judged this output"])
            if name in errors:
                self.failed += 1
                print(f"# FAILED {name}: {errors[name]}")
            elif problems:
                self.failed += 1
                self.correct = False
                for p in problems[:5]:
                    print(f"# WRONG {name}: {p}")


def worker(workload: str, env: dict, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, "--seed", str(seed),
           "--order", str(POOL_ORDER)]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT_DIR, f"spans-{workload}.tsv")]
    proc = run_proc(cmd, env)
    if proc.code != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.code}:\n{proc.err[-2000:]}")
    return json.loads(proc.out)


def census_round(workload: str, env: dict, seed: int, trace: bool,
                 checker: Checker) -> dict:
    import oracles

    res = worker(workload, env, seed, trace)
    ops = res["ops"]
    errors = {op["name"]: op["error"] for op in ops if "error" in op}
    outputs = [(op["name"], op.get("value"), op.get("error")) for op in ops]
    checker.submit([op["name"] for op in ops], errors, [workload, outputs],
                   lambda: oracles.CHECKS[workload](ops, random.Random(seed)))
    return res


def pool_round(env: dict, seed: int, checker: Checker) -> dict:
    """enumerate --n 8 --jobs 2, its lines put in the seed's order, then wiener."""
    import oracles

    cli = [sys.executable, "-m", "wienerlab.cli"]
    enum = run_proc(cli + ["enumerate", "--n", str(POOL_ORDER), "--jobs", "2"], env)
    lines = enum.out.splitlines()
    fed = lines[:]
    random.Random(seed).shuffle(fed)
    stage = run_proc(cli + ["wiener"], env, "\n".join(fed) + "\n")
    errors = {}
    if enum.code != 0:
        errors["enumerate"] = f"exit {enum.code}: {enum.err[-500:]}"
    if stage.code != 0:
        errors["wiener"] = f"exit {stage.code}: {stage.err[-500:]}"
    out_lines = stage.out.splitlines()
    checker.submit(["enumerate", "wiener"], errors, ["cli-pool8", fed, out_lines],
                   lambda: {"enumerate": oracles.check_pool_lines(lines, POOL_ORDER),
                            "wiener": oracles.check_wiener_stage(fed, out_lines)})
    return {"wall_s": enum.wall + stage.wall, "cpu_s": enum.cpu + stage.cpu,
            "maxrss_kb": max(enum.maxrss_kb, stage.maxrss_kb)}


def spawn_setup(workload: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports the program."""
    module = "wienerlab.cli" if workload == "cli-pool8" else "wienerlab"
    p = run_proc([sys.executable, "-c", f"import {module}"], env)
    if p.code != 0:
        raise RuntimeError(f"import {module} failed:\n{p.err[-2000:]}")
    return p.wall


def untraced(workload: str, env: dict, seed: int, seconds: float,
             checker: Checker) -> dict:
    """Whole rounds, at least one, stopping at the round boundary nearest to
    ``seconds``; set-up is timed in fresh processes before every round, so
    that its median, like the rounds', samples the whole run."""
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups += [spawn_setup(workload, env) for _ in range(SETUP_SPAWNS)]
        if workload == "cli-pool8":
            rounds.append(pool_round(env, seed, checker))
        else:
            rounds.append(census_round(workload, env, seed, False, checker))
        now = time.perf_counter()
        if (now - start) + (now - t0) / 2 >= seconds:
            break
    print(f"# rounds={len(rounds)} walls={[round(r['wall_s'], 4) for r in rounds]} "
          f"cpus={[round(r['cpu_s'], 4) for r in rounds]}")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
    }


def traced(workload: str, env: dict, seed: int, checker: Checker) -> dict:
    import oracles

    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if workload != "cli-pool8":
        plain = census_round(workload, env, seed, False, checker)
        res = census_round(workload, env, seed, True, checker)
        layers.update(res["layers"])
        layers["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
        return layers

    cli = [sys.executable, "-m", "wienerlab.cli"]
    want = str(oracles.cycle_wiener(26))
    starts = []
    for _ in range(CLI_START_SPAWNS):
        p = run_proc(cli + ["formula", "wiener-cycle", "--n", "26"], env)
        printed = p.out.strip()
        checker.submit(["cli-start"], {"cli-start": f"exit {p.code}"} if p.code else {},
                       ["cli-start", printed],
                       lambda printed=printed: {"cli-start": [] if printed == want else [
                           f"formula printed {printed!r}, the closed form gives {want}"]})
        starts.append(p.wall)

    res = worker(workload, env, seed, True)
    layers.update(res["layers"])
    ops = {op["name"]: op for op in res["ops"]}
    names = [op["name"] for op in res["ops"]]
    errors = {name: op["error"] for name, op in ops.items() if "error" in op}
    stage_op = ops["wiener-inprocess"]
    if stage_op["exit_code"] != 0:
        errors["wiener-inprocess"] = f"exit {stage_op['exit_code']}"
    value = {name: op.get("value") or [] for name, op in ops.items()}
    shards = [value[f"shard{i}"] for i in range(len(res["shards"]))]

    def judge() -> dict[str, list[str]]:
        partition = oracles.check_partition(shards, value["unsharded"])
        verdict = {f"shard{i}": partition for i in range(len(shards))}
        verdict.update({
            "unsharded": oracles.check_pool_lines(value["unsharded"], POOL_ORDER),
            "unsharded-traced": [] if value["unsharded-traced"] == value["unsharded"]
            else ["traced enumeration differs from the untraced one"],
            "wiener-inprocess": oracles.check_wiener_stage(
                stage_op["input"], value["wiener-inprocess"]),
        })
        return verdict

    checker.submit(names, errors, ["traced", value, stage_op["input"]], judge)

    fed = stage_op["input"]
    stages = []
    for _ in range(WIENER_STAGE_SPAWNS):
        p = run_proc(cli + ["wiener"], env, "\n".join(fed) + "\n")
        out_lines = p.out.splitlines()
        checker.submit(["wiener"], {"wiener": f"exit {p.code}"} if p.code else {},
                       ["wiener", fed, out_lines],
                       lambda out_lines=out_lines: {"wiener": oracles.check_wiener_stage(
                           fed, out_lines)})
        stages.append(p.wall)
    layers["cli.start_s"] = statistics.median(starts)
    layers["cli.wiener_stage_s"] = statistics.median(stages)
    for i, s in enumerate(res["shards"]):
        print(f"# shard {i}: {s['wall_s']:.3f} s, {s['classes']} classes, "
              f"{s['canon_calls']} canon_rows calls")
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "wienerlab", "__init__.py")):
        print("error: run from the root of a wienerlab checkout (src/wienerlab is missing)",
              file=sys.stderr)
        return 2
    print(f"# wienerlab perfbench rev={source_rev()} src={source_digest()} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} workload={args.workload} trace={args.trace} "
          f"seconds={args.seconds:g}")
    env = program_env()
    checker = Checker()
    if args.trace:
        values = traced(args.workload, env, args.seed, checker)
        units = PER_LAYER_UNITS
    else:
        values = untraced(args.workload, env, args.seed, args.seconds, checker)
        units = END_TO_END
    checker.finish()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
