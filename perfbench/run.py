"""Benchmark of the zetagenus CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is taken from its `src`.
With --trace 0 the workload's command round is run as subprocesses,
one command at a time, until --seconds have passed and at least
MIN_ROUNDS whole rounds are done; every output is checked.  Each
command's wall time is scaled to a reference speed (reference_pass),
and the end-to-end metrics are sums of each command's median over
rounds.  With --trace 1 the benchmark instead measures the per-layer
metrics: fixed-input timings, and an in-process replay of every
workload's round, traced and untraced (see README.md); the set of
metrics does not depend on --workload.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  `--workload all`
runs every workload untraced, then the traced run, and prints every
result.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy

import checks
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
COMMAND_TIMEOUT_S = 150
SETUP_LAUNCHES = 9
MIN_ROUNDS = 3
IMPORT_LAUNCHES = 3
# Nominal time of one reference pass: end-to-end times are reported as if
# every command had run while a pass took this long (see reference_pass).
REFERENCE_S = 0.08
_REFERENCE_ARRAY = numpy.linspace(1.0, 2.0, 100_000)

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import zetagenus.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


def child_env(**extra: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


class Launcher:
    """The launcher.py process, which starts and times every command."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_launcher: Launcher | None = None


def stop_launcher() -> None:
    global _launcher
    if _launcher is not None:
        _launcher.stop()
        _launcher = None


def launch(args: list[str], stdout_path: Path, timeout: float = COMMAND_TIMEOUT_S,
           stdin_path: Path | None = None, env: dict | None = None) -> tuple[float, int, int]:
    """Run one process to completion: (wall seconds, exit code, peak RSS in KiB)."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(stop_launcher)
    res = _launcher.run({"argv": args, "stdout": str(stdout_path),
                         "stdin": str(stdin_path) if stdin_path is not None else None,
                         "env": env or child_env(), "cwd": str(ROOT), "timeout": timeout})
    return res["wall"], res["rc"], res["maxrss"]


def reference_pass() -> float:
    """Seconds taken by a fixed piece of work, the host's speed gauge.

    The host's speed swings by a third in phases of seconds to minutes,
    and every command swings with it.  So each command is timed between
    passes of this work, about half exact-fraction and dict work as in
    the exact layers and half numpy and fsum work as in the series layer,
    and its time is scaled by REFERENCE_S over the mean of the nearest passes.
    The garbage collector is off during a pass: its cost grows with what
    the output checks have left in this process, not with the host.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction((-1) ** i, i * i)
        counts: dict = {}
        for i in range(120_000):
            counts[i % 1009] = counts.get(i % 1009, 0) + i * i % 7
        for _ in range(5):
            math.fsum(numpy.cumsum(1.0 / _REFERENCE_ARRAY ** 3).tolist())
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled_launches(argvs: list[list[str]], outs: list[Path]) -> list[tuple[float, int, int]]:
    """launch() each command in turn, with reference passes between them;
    each wall time is scaled to the reference speed, gauged by the mean of
    the two passes on either side of the command (one at a round's ends)."""
    refs = [reference_pass()]
    results = []
    for argv, out in zip(argvs, outs):
        results.append(launch(argv, out))
        refs.append(reference_pass())
    return [(wall * REFERENCE_S / statistics.mean(refs[max(0, i - 1):i + 3]), rc, rss)
            for i, (wall, rc, rss) in enumerate(results)]


def zetagenus_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "zetagenus", *argv]


class Tally:
    """Operations attempted and failed, and whether any output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, ok: bool, wrong_output: bool = False, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {why}", file=sys.stderr)
        if wrong_output:
            self.correct = False


def check_op(op: workloads.Op, work: Path, rc: int, stdout: bytes, seed: int, tally: Tally) -> int:
    """Check one command's output; returns the coefficients or CHECK lines it accepted."""
    if rc != 0:
        tally.record(False, why=f"{' '.join(op.argv)}: exit {rc}")
        return 0
    rng = random.Random(seed)
    try:
        count = op.check(workloads.Outputs(work, stdout, rng))
    except (checks.CheckError, ValueError, KeyError, IndexError, OSError) as exc:
        tally.record(False, wrong_output=True, why=f"{' '.join(op.argv)}: {exc}")
        return 0
    tally.record(True)
    return count


def measure_setup(scratch: Path, tally: Tally) -> float:
    """Median scaled launch time of `zetagenus --help`, after one untimed launch."""
    launch(zetagenus_argv(["--help"]), scratch / "help-warmup.txt")
    outs = [scratch / f"help-{i}.txt" for i in range(SETUP_LAUNCHES)]
    results = scaled_launches([zetagenus_argv(["--help"])] * SETUP_LAUNCHES, outs)
    for out, (_, rc, _) in zip(outs, results):
        ok = rc == 0 and out.read_bytes().startswith(b"Usage:")
        tally.record(ok, wrong_output=rc == 0 and not ok, why=f"--help exit {rc}")
    return statistics.median(wall for wall, _, _ in results)


def run_round(ops: list[workloads.Op], work: Path, seed: int, tally: Tally) -> list[tuple]:
    """One round of the workload: (scaled seconds, accepted count, peak RSS KiB) per command."""
    work.mkdir(parents=True)
    outs = [work / f"stdout-{i:02d}.txt" for i in range(len(ops))]
    results = scaled_launches([zetagenus_argv(op.resolved(work)) for op in ops], outs)
    return [(seconds, check_op(op, work, rc, out.read_bytes(), seed + i, tally), rss)
            for i, (op, out, (seconds, rc, rss)) in enumerate(zip(ops, outs, results))]


UNITS = {"setup_s": "s", "wall_s": "s", "table_s": "s", "verify_s": "s",
         "coeffs_per_s": "1/s", "checks_per_s": "1/s", "peak_rss_mb": "MB"}


def end_to_end(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    ops = workloads.WORKLOADS[workload](seed)
    tally = Tally()
    for _ in range(3):
        reference_pass()  # warm-up
    setup = measure_setup(scratch, tally)
    rounds = []
    t0 = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - t0 < seconds:
        rounds.append(run_round(ops, scratch / f"round-{len(rounds)}", seed, tally))
    # each command's median over rounds, so that a slow spell in one round
    # of one command does not move the sums
    per_op = [[statistics.median(col) for col in zip(*runs)] for runs in zip(*rounds)]
    sums = {"table": 0.0, "verify": 0.0}
    counts = {"table": 0, "verify": 0}
    for op, (op_s, count, _) in zip(ops, per_op):
        sums[op.kind] += op_s
        counts[op.kind] += count
    metrics = {
        "setup_s": setup,
        "wall_s": sums["table"] + sums["verify"],
        "table_s": sums["table"],
        "verify_s": sums["verify"],
        "coeffs_per_s": counts["table"] / sums["table"],
        "checks_per_s": counts["verify"] / sums["verify"],
        "peak_rss_mb": statistics.median(max(rss for _, _, rss in r) for r in rounds) / 1024.0,
    }
    return result(tally, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()})


def result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# --- per-layer metrics ------------------------------------------------------------

def import_times(scratch: Path, tally: Tally) -> dict:
    numpy_s, cli_s = [], []
    for i in range(IMPORT_LAUNCHES):
        out = scratch / f"import-{i}.txt"
        _, rc, _ = launch([sys.executable, "-c", IMPORT_PROBE], out)
        tally.record(rc == 0, why=f"import probe exit {rc}")
        if rc == 0:
            a, b = out.read_text().split()
            numpy_s.append(float(a))
            cli_s.append(float(b))
    return {"cli.import_s": statistics.median(cli_s), "cli.numpy_import_s": statistics.median(numpy_s)}


def probe(jobs: list[dict], scratch: Path) -> list[dict]:
    out = scratch / "probe.json"
    env = child_env(PERFBENCH_WORK=str(scratch), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    jobs_path = scratch / "probe-jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    _, rc, _ = launch([sys.executable, str(BENCH / "probe.py")], out, timeout=170,
                      stdin_path=jobs_path, env=env)
    if rc != 0:
        raise RuntimeError(f"probe exited with {rc}")
    return json.loads(out.read_text().strip().split("\n")[-1])


def traced(seed: int, scratch: Path) -> dict:
    ops = {name: build(seed) for name, build in workloads.WORKLOADS.items()}
    fixed = list(layers.FIXED)
    jobs = [{"kind": "fixed", "name": name} for name in fixed]
    replays = []  # (workload, traced, op index, work dir)
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    for name in workloads.WORKLOADS:
        # each command also runs untraced, right after its traced replay,
        # so that drift in machine speed cancels in the overhead
        for with_spans in (True, False):
            (scratch / f"{name}-{with_spans}").mkdir()
        for i, op in enumerate(ops[name]):
            for with_spans in (True, False):
                work = scratch / f"{name}-{with_spans}"
                jobs.append({
                    "kind": "cli",
                    "argv": op.resolved(work),
                    "stdout": str(work / f"stdout-{i:02d}.txt"),
                    "spans": str(trace_dir / f"{name}-{i:02d}.json") if with_spans else None,
                })
                replays.append((name, with_spans, i, work))
    tally = Tally()
    metrics = import_times(scratch, tally)
    results = probe(jobs, scratch)
    for name, res in zip(fixed, results):
        tally.record("error" not in res, why=f"{name}: {res.get('error')}")
        if "error" not in res:
            metrics[name] = res["seconds"]
    if all(name in metrics for name in fixed):
        metrics.update(layers.derived(metrics))
    totals: dict = {}
    for (name, with_spans, i, work), res in zip(replays, results[len(fixed):]):
        op = ops[name][i]
        if "error" in res:
            tally.record(False, why=f"{' '.join(op.argv)}: {res['error']}")
            continue
        stdout = (work / f"stdout-{i:02d}.txt").read_bytes()
        count = check_op(op, work, res["rc"], stdout, seed + i, tally)
        key = (name, with_spans)
        agg = totals.setdefault(key, {"wall": 0.0, "checks": 0, "self_s": {}, "suites": {},
                                      "kernel_calls": 0, "sym_kernel_calls": 0, "sym_distinct": 0})
        agg["wall"] += res["wall"]
        if not with_spans:
            continue
        if op.kind == "verify":
            agg["checks"] += count
            agg["suites"][op.argv[1]] = agg["suites"].get(op.argv[1], 0.0) + res["suite_s"]
        for layer, s in res["self_s"].items():
            agg["self_s"][layer] = agg["self_s"].get(layer, 0.0) + s
        for field in ("kernel_calls", "sym_kernel_calls", "sym_distinct"):
            agg[field] += res[field]
    for name in workloads.WORKLOADS:
        agg = totals.get((name, True))
        if agg is None:
            continue
        for layer in spans.LAYERS:
            if layer in TOUCHED[name]:
                metrics[f"{name}.{layer}.self_s"] = agg["self_s"].get(layer, 0.0)
        for suite, s in agg["suites"].items():
            metrics[f"{name}.verify.suite_s.{suite}"] = s
        metrics[f"{name}.verify.checks"] = agg["checks"]
        if "series" in TOUCHED[name]:
            metrics[f"{name}.series.kernel_calls"] = agg["kernel_calls"]
            metrics[f"{name}.series.calls_per_distinct_ordering"] = (
                agg["sym_kernel_calls"] / agg["sym_distinct"] if agg["sym_distinct"] else 1.0)
        if (name, False) in totals:
            metrics[f"{name}.trace.overhead_s"] = agg["wall"] - totals[(name, False)]["wall"]
    return result(tally, {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()})


# Layers each workload's commands reach; a layer a workload never calls has
# no self time there, so it gets no metric.
TOUCHED = {
    "exact-tables": ("cli", "exact", "partitions", "genus", "formal", "verify", "render"),
    "deep-sums": ("cli", "exact", "partitions", "genus", "series", "verify", "render"),
    "sampled-identities": ("cli", "exact", "partitions", "genus", "series", "verify"),
}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("checks", "kernel_calls")):
        return "count"
    if name.endswith("calls_per_distinct_ordering"):
        return "ratio"
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetagenus" / "__init__.py").is_file():
        print(f"no zetagenus sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.workload == "all":
            for name in workloads.WORKLOADS:
                sub = scratch / name
                sub.mkdir()
                print(name, json.dumps(end_to_end(name, args.seed, args.seconds, sub)))
        if args.workload == "all" or args.trace:
            out = traced(args.seed, scratch)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
