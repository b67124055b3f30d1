"""The benchmark's workloads: seeded command sequences and their checks.

A workload is one round of CLI commands, run one at a time (closed
loop, one client).  Each Op carries the arguments after `zetagenus`,
whether its time counts as table time or verify time, and a check that
reads the command's output and returns how many coefficients or CHECK
lines it accepted.  File arguments are written as `{work}/name` and
resolved to a fresh directory for every round, so the first `--cache`
use in a round is always cold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import reference


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # "table" (coeff, poly, table) or "verify"
    check: Callable[["Outputs"], int]

    def resolved(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]


class Outputs:
    """What one command left behind: its stdout and the files of its round."""

    def __init__(self, work: Path, stdout: bytes, rng: random.Random):
        self.work = work
        self.stdout = stdout
        self.rng = rng

    def text(self) -> str:
        return self.stdout.decode("utf-8")

    def file(self, name: str) -> bytes:
        return (self.work / name).read_bytes()


def _table(genus: str, max_k: int, fmt: str, name: str, cache: str, same_as: str | None = None,
           agrees_with: str | None = None) -> Op:
    """A `table` export; optionally byte-identical to, or agreeing with, an earlier one."""

    def check(out: Outputs) -> int:
        checks.check_cache(genus, max_k, out.file(cache).decode())
        data = out.file(name)
        if same_as is not None:
            checks.check_identical(out.file(same_as), data, f"{name} vs {same_as}")
        if agrees_with is not None:
            csv_name, json_name = (name, agrees_with) if fmt == "csv" else (agrees_with, name)
            checks.check_same_table(out.file(csv_name).decode(), out.file(json_name).decode())
        if fmt == "csv":
            return checks.check_table_csv(genus, max_k, data.decode(), out.rng)
        return checks.check_table_json(genus, max_k, data.decode(), out.rng)

    argv = ("table", "--genus", genus, "--max-k", str(max_k), "--format", fmt,
            "--cache", "{work}/" + cache, "--out", "{work}/" + name)
    return Op(argv, "table", check)


def _poly(genus: str, k: int, fmt: str) -> Op:
    return Op(("poly", "--genus", genus, "--k", str(k), "--format", fmt), "table",
              lambda out: checks.check_poly(genus, k, fmt, out.text(), out.rng))


def _coeff(genus: str, parts: tuple[int, ...]) -> Op:
    return Op(("coeff", "--genus", genus, "--partition", ",".join(map(str, parts))), "table",
              lambda out: checks.check_coeff(genus, parts, out.text()))


def _verify(suite: str, **opts: int) -> Op:
    argv = ["verify", suite]
    for key, value in opts.items():
        argv += ["--" + key, str(value)]
    return Op(tuple(argv), "verify", lambda out: checks.check_report(suite, opts, out.text()))


def _partition_with_parts(rng: random.Random, r: int, max_k: int) -> tuple[int, ...]:
    """A uniformly drawn partition with exactly r parts and weight r..max_k."""
    choices = [p for k in range(r, max_k + 1) for p in reference.partitions(k) if len(p) == r]
    return rng.choice(choices)


def exact_tables(seed: int) -> list[Op]:
    rng = random.Random(seed)
    poly_genus = rng.choice(reference.GENERA)
    coeffs = [(rng.choice(reference.GENERA), _partition_with_parts(rng, r, 12)) for r in (4, 6, 8)]
    return [
        _table("L", 11, "csv", "L.csv", "L.cache.json"),
        _table("L", 11, "csv", "L.warm.csv", "L.cache.json", same_as="L.csv"),
        _table("L", 11, "json", "L.json", "L.cache.json", agrees_with="L.csv"),
        _table("Ahat", 10, "json", "Ahat.json", "Ahat.cache.json"),
        _table("Ahat", 10, "csv", "Ahat.csv", "Ahat.cache.json", agrees_with="Ahat.json"),
        *(_poly(poly_genus, 10, fmt) for fmt in ("text", "latex", "json")),
        _coeff(rng.choice(reference.GENERA), (1,) * 10),
        *(_coeff(genus, parts) for genus, parts in coeffs),
        _verify("signs", k=10),
        _verify("oracle", k=7),
        _verify("formal", **{"max-r": 4, "n": 5}),
    ]


def deep_sums(seed: int) -> list[Op]:
    # Nothing here is sampled: the suites are deterministic at these degrees.
    # The degree-11 poly gives table_s some computation besides interpreter
    # start-up, whose time swings more from run to run on a shared host.
    # Depths are half the suites' defaults, so that a run holds several
    # rounds; ahat still passes at 1e6 (at 5e5 its a[1] misses 1e-6).
    return [
        _poly("L", 5, "json"),
        _poly("Ahat", 4, "text"),
        _poly("L", 11, "latex"),
        _verify("main", k=5, depth=100_000),
        _verify("ahat", k=4, depth=1_000_000),
    ]


def sampled_identities(seed: int) -> list[Op]:
    rng = random.Random(seed)
    suite_seeds = [rng.randrange(1, 10**6) for _ in range(3)]
    coeffs = [(genus, _partition_with_parts(rng, r, 12)) for genus in reference.GENERA for r in (5, 10)]
    return [
        _verify("hoffman", samples=20, seed=suite_seeds[0], **{"max-r": 3}),
        _verify("multiple-eta", samples=24, seed=suite_seeds[1], **{"max-r": 3}),
        _verify("positivity", samples=120, seed=suite_seeds[2], **{"recurrence-samples": 12}),
        *(_coeff(genus, parts) for genus, parts in coeffs),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "exact-tables": exact_tables,
    "deep-sums": deep_sums,
    "sampled-identities": sampled_identities,
}
