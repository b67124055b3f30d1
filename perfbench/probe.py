"""In-process measurements, each in its own forked process.

Run as `python perfbench/probe.py` with `src` on PYTHONPATH and a JSON
job list on stdin.  The probe imports zetagenus once and calls nothing;
each job runs in a child forked from it, so module import is paid once
while every lru_cache starts empty, as in a fresh `zetagenus` process.
Jobs:

  {"kind": "fixed", "name": <key of layers.FIXED>}
  {"kind": "cli", "argv": [...], "stdout": path, "spans": path or null}

A cli job replays one command through the zetagenus.cli entry point,
with stdout sent to a file.  With a spans path it first installs the
tracer, then writes every span there and reports self time per layer.
The results are printed as one JSON list on the last line of stdout.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import traceback
from time import perf_counter

import click

import zetagenus.cli

import layers
import spans

JOB_TIMEOUT_S = 150


def _replay(argv: list[str], stdout_path: str, spans_path: str | None) -> dict:
    tracer = None
    if spans_path is not None:
        tracer = spans.Tracer()
        spans.install(tracer)
    old = sys.stdout
    with open(stdout_path, "w", encoding="utf-8") as fh:
        sys.stdout = fh
        try:
            root = tracer.open(f"cli.{argv[0]}") if tracer else -1
            t0 = perf_counter()
            try:
                rv = zetagenus.cli.cli.main(args=argv, prog_name="zetagenus",
                                            auto_envvar_prefix="ZETAGENUS", standalone_mode=False)
                rc = rv if isinstance(rv, int) else 0
            except click.ClickException as exc:
                rc = exc.exit_code
            wall = perf_counter() - t0
            if tracer:
                tracer.close(root)
        finally:
            sys.stdout = old
    result = {"rc": rc, "wall": wall}
    if tracer:
        result.update(tracer.summary())
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "calls": tracer.calls, "spans": tracer.spans}, fh)
    return result


def _run(job: dict) -> dict:
    if job["kind"] == "fixed":
        return {"seconds": layers.FIXED[job["name"]]()}
    return _replay(job["argv"], job["stdout"], job.get("spans"))


def _in_child(job: dict) -> dict:
    """Fork, run the job in the child, and return what it sent back."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            result = _run(job)
        except Exception:
            result = {"error": traceback.format_exc()}
        with os.fdopen(write_fd, "w") as fh:
            json.dump(result, fh)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"job ended with status {status} and no result"}
    return json.loads(data)


def main() -> None:
    jobs = json.load(sys.stdin)
    print(json.dumps([_in_child(job) for job in jobs]))


if __name__ == "__main__":
    main()
