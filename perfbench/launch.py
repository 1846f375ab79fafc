"""Run a command and write its wall time, CPU time and peak RSS as JSON.

    python3 perfbench/launch.py RESULT.json COMMAND [ARGS...]

The command inherits stdin, stdout and stderr.  CPU time and peak RSS come
from wait4, so they cover the command and every process it waited for.
Linux carries the spawning process's peak RSS over into a child across
exec; starting the command from this small process keeps the benchmark's
own memory out of the child's figure.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd)
    try:
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    with open(out_path, "w") as fh:
        json.dump({"code": code, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                   "maxrss_kb": ru.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
