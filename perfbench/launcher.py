"""Starts the benchmark's commands one at a time and times them.

Run as `python perfbench/launcher.py`; run.py starts it once and talks
to it over stdin and stdout, one JSON line per command each way:

  in:  {"argv": [...], "stdout": path, "stdin": path or null,
        "env": {...}, "cwd": path, "timeout": seconds}
  out: {"wall": seconds, "rc": exit code, "maxrss": peak RSS in KiB}

A child's ru_maxrss also counts the memory of the process it was forked
from, up to its exec.  Forking the commands from this small process,
which imports nothing heavy, keeps the benchmark's own memory (numpy,
the reference tables) out of the peak RSS it reports.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def run(job: dict) -> dict:
    stdout_path = job["stdout"]
    stdin_path = job["stdin"]
    with open(stdout_path, "wb") as out, \
            open(os.path.splitext(stdout_path)[0] + ".err", "wb") as err, \
            open(stdin_path or os.devnull, "rb") as stdin:
        t0 = perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, stdin=stdin,
                                env=job["env"], cwd=job["cwd"], start_new_session=True)
        # the probe forks children of its own: on timeout kill the whole group
        watchdog = threading.Timer(job["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "maxrss": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
