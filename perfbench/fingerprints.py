"""sha256 fingerprints of every output of every workload's commands.

    python3 perfbench/fingerprints.py --seed 1 > fingerprints.txt

Runs one round of each workload (no timing) from the root of a checkout
and prints one line per output: its sha256, the workload, and the
command with the output's name.  Two commits whose lines are equal for
the same seed print byte-identical outputs.  This is a reference for
comparing commits, not a gate: nothing here decides pass or fail.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if not (run.SRC / "zetagenus" / "__init__.py").is_file():
        print(f"no zetagenus sources under {run.SRC}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="fingerprints-", dir=run.WORK))
    try:
        for name, build in workloads.WORKLOADS.items():
            work = scratch / name
            work.mkdir()
            for i, op in enumerate(build(args.seed)):
                stdout = work / f"stdout-{i:02d}.txt"
                run.launch(run.zetagenus_argv(op.resolved(work)), stdout)
                outputs = [("stdout", stdout)]
                for flag in ("--out", "--cache"):
                    if flag in op.argv:
                        target = op.argv[op.argv.index(flag) + 1].replace("{work}/", "")
                        outputs.append((target, work / target))
                for label, path in outputs:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}  {' '.join(op.argv)}  [{label}]")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
