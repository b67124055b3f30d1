"""Verification suites: each cross-checks one family of identities.

A suite produces a SuiteReport holding one CheckResult per comparison,
in a fixed order, so identical configuration gives a byte-identical
report.  One table, _SUITES, declares every suite: its check builder and
its options with their defaults, in the order of the CONFIG header line.
run_suite fills in the defaults, writes that line, and hands each
builder only its own options.  Builders check their largest degree or
size before any work, so an input past the supported range fails at
once, and each imports the layers it runs in its own body, so a suite
loads only those.

The eight suites:

* main      exact L coefficients against chained alternating sums
* ahat      exact A-hat coefficients against non-strict nested zetas
* hoffman   symmetrized strict / non-strict nested zetas against
            products of plain zetas over set partitions
* multiple-eta  the alternating analogue of the hoffman identity
* positivity    sign and magnitude of chained sums, plus both peeling
                recurrences
* formal    exact truncated-polynomial identities
* oracle    recurrence tables and closed-form coefficients against the
            partitions-only oracle
* signs     sign pattern of every coefficient, both named genera

The exact suites (formal, oracle, signs) are built here.  The numeric
ones (main, ahat and the sampled hoffman, multiple-eta and positivity)
and the fan-out that runs them on every CPU live in numeric: the table
gives each by its builder's name there, and run_suite imports numeric
only when such a suite runs, so no exact suite loads it.  Sampled suites
draw from random.Random(seed); the seed appears in the report header so
failures are reproducible.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from math import factorial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .partitions import SetPartition, alternating_length_sum, enumerate_set_partitions, integer_partitions
from .partitions import signed_block_sums

if TYPE_CHECKING:  # each check builder imports the layers it runs in its own body
    from .formal import IdentityReport

__all__ = [
    "CheckResult", "SuiteReport", "available_suites", "run_suite", "DEFAULT_SEED", "SAMPLE_DEPTH", "AHAT_DEPTH",
]

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-6
SAMPLE_DEPTH = 50_000  # matched-truncation identity checks
AHAT_DEPTH = 2_000_000  # 1/N outer tails need this for 1e-6 relative
FORMAL_SIZE_CAP = 20_000  # of level_cap^max_r; `formal --max-r 4 --n 11` takes about 0.5 s


@dataclass(frozen=True)
class CheckResult:
    """One comparison: name, verdict, and the two sides as strings."""

    name: str
    passed: bool
    lhs: str
    rhs: str
    delta: str
    bound: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {status} {self.lhs} {self.rhs} {self.delta} {self.bound}"


@dataclass(frozen=True)
class SuiteReport:
    """All checks of one suite run plus the header configuration."""

    suite: str
    config: tuple[tuple[str, str], ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"SUITE {self.suite}"]
        out.append("CONFIG " + " ".join(f"{k}={v}" for k, v in self.config))
        out.extend(c.line() for c in self.checks)
        npass = sum(c.passed for c in self.checks)
        status = "PASS" if self.passed else "FAIL"
        out.append(f"RESULT {self.suite} {status} {npass}/{len(self.checks)}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


Checks = Iterator[CheckResult]


def _exact_check(name: str, ok: bool, lhs: str, rhs: str, delta: str) -> CheckResult:
    return CheckResult(name, ok, lhs, rhs, delta, "exact")


def _count_check(name: str, bad: int, total: int) -> CheckResult:
    return _exact_check(name, bad == 0, f"{total - bad}/{total}", f"{total}/{total}", str(bad))


def _identity_check(name: str, rep: IdentityReport) -> CheckResult:
    if rep.ok:
        return _exact_check(name, True, "match", "match", "0")
    return _exact_check(name, False, str(rep.lhs_coeff), str(rep.rhs_coeff), f"at={rep.first_diff}".replace(" ", ""))


def _partition_label(pi: SetPartition) -> str:
    return "|".join("".join(str(a) for a in block) for block in pi.blocks)


def _formal_checks(max_r: int, level_cap: int) -> Checks:
    """Exact truncated-polynomial identities over whole partition lattices.

    For every set partition of ground sets up to max_r, at the given
    level cap: the free sum decomposes as the sum of distinct-level sums
    over coarsenings; Mobius inversion recovers the distinct-level sum;
    and both directions of the chained-sum inversion hold.  Also checks
    that the signed length statistic of the whole lattice equals
    (-1)^n, by direct enumeration and by the alternating Stirling sum.
    Each polynomial is built once per ground size, through a memo of this
    run: the coarsenings of a partition keep its ground set.
    """
    from .formal import (
        _memoized, check_chain_inversion, check_mobius_inversion, check_size, monomial_poly, power_sum_poly,
        sum_over_coarsenings,
    )
    for n in range(1, max_r + 1):
        # the partition of n into singletons is the largest one of size n;
        # refuse it before any work, as the first check to reach it would
        check_size(n, level_cap, chained=True)
    if level_cap**max_r > FORMAL_SIZE_CAP:
        size = f"{level_cap}^{max_r} = {level_cap**max_r:,}"
        raise ValueError(f"level_cap^max_r = {size} is past the formal cap {FORMAL_SIZE_CAP:,}")
    for n in range(1, max_r + 1):
        polys: dict = {}
        for pi in enumerate_set_partitions(n):
            label = _partition_label(pi)
            lhs = _memoized(power_sum_poly, polys)(pi, level_cap)
            rhs = sum_over_coarsenings(pi, level_cap, _memoized(monomial_poly, polys))
            diff = lhs.first_difference(rhs)
            yield _exact_check(
                f"free-sum[{label}]",
                diff is None,
                f"terms={len(lhs.terms)}",
                f"terms={len(rhs.terms)}",
                "0" if diff is None else f"at={diff}".replace(" ", ""),
            )
            yield _identity_check(f"mobius[{label}]", check_mobius_inversion(pi, level_cap, polys))
            yield _identity_check(f"chain-inversion[{label}]", check_chain_inversion(pi, level_cap, polys))
    for n in range(1, 10):
        by_sum = alternating_length_sum(n)
        lengths: list[int] = []
        signed_block_sums(range(n), lambda w, sums: lengths.append(len(sums)))
        by_enum = sum((-1 if m % 2 else 1) * factorial(m) for m in lengths)
        ok = by_sum == by_enum == (-1 if n % 2 else 1)
        yield _exact_check(f"length-parity[n={n}]", ok, str(by_enum), str(by_sum), "0" if ok else "1")


def _oracle_checks(max_k: int) -> Checks:
    """Recurrence tables and closed-form coefficients against the oracle.

    The oracle solves a triangular system over the partitions of k alone;
    it shares no code path with the log/exp recurrence behind the tables
    or with the paper's closed form on the multiplicity grid, so exact
    agreement of all three on every partition is a genuine cross-check.
    A partition counts as bad when either route differs from the oracle.
    """
    from .genus import NAMED, check_oracle_degree, coefficient_closed_form, coefficient_table, coefficient_table_oracle
    check_oracle_degree(max_k)  # refuse before the first table is built
    for name, genus in [(name, spec(max_k)) for name, spec in NAMED.items()]:
        for k in range(1, max_k + 1):
            table = coefficient_table(genus, k)
            oracle = coefficient_table_oracle(genus, k)
            parts = integer_partitions(k)
            bad = sum(not table[p] == coefficient_closed_form(genus, p) == oracle[p] for p in parts)
            yield _count_check(f"oracle[{name},k={k}]", bad, len(parts))


def _signs_checks(max_k: int) -> Checks:
    """Sign pattern of every coefficient of both named genera.

    For a partition with r parts the L coefficient has sign (-1)^(r-1)
    and the A-hat coefficient sign (-1)^r, for every partition of every
    k <= max_k, in exact arithmetic.  One aggregated check per
    (genus, k).
    """
    from .genus import NAMED, check_table_degree, coefficient_table
    check_table_degree(max_k)
    for name, genus in [(name, spec(max_k)) for name, spec in NAMED.items()]:
        offset = 1 if name == "L" else 0
        for k in range(1, max_k + 1):
            table = coefficient_table(genus, k)
            parts = integer_partitions(k)
            bad = sum(not table[p] * (-1) ** (len(p) + offset) > 0 for p in parts)  # good: times its sign, > 0
            yield _count_check(f"signs[{name},k={k}]", bad, len(parts))


@dataclass(frozen=True)
class _Suite:
    """A suite's check builder (a numeric suite's by its name in numeric,
    where it also takes workers, the processes numeric._fan_out may run it
    on) and its options with their defaults, in the order of the CONFIG line."""

    build: Callable[..., Iterable[CheckResult]] | str
    config: tuple[tuple[str, object], ...]


_SAMPLED = (
    ("max_r", 3),
    ("samples", 20),
    ("seed", DEFAULT_SEED),
    ("depth", SAMPLE_DEPTH),
    ("tol", DEFAULT_TOL),
)

_SUITES: dict[str, _Suite] = {
    "main": _Suite("main_checks", (("max_k", 3), ("depth", None), ("tol", DEFAULT_TOL))),
    "ahat": _Suite("ahat_checks", (("max_k", 3), ("depth", AHAT_DEPTH), ("tol", DEFAULT_TOL))),
    "hoffman": _Suite("hoffman_checks", _SAMPLED),
    "multiple-eta": _Suite("multiple_eta_checks", _SAMPLED),
    "positivity": _Suite(
        "positivity_checks",
        (("samples", 100), ("recurrence_samples", 10), ("seed", DEFAULT_SEED), ("depth", SAMPLE_DEPTH), ("tol", DEFAULT_TOL)),
    ),
    "formal": _Suite(_formal_checks, (("max_r", 3), ("level_cap", 4))),
    "oracle": _Suite(_oracle_checks, (("max_k", 6),)),
    "signs": _Suite(_signs_checks, (("max_k", 12),)),
}
_OPTIONS = {key for suite in _SUITES.values() for key, _ in suite.config}
# a size of 0 would pass with no checks run; `hoffman --samples 1000` is past the work budget
_SIZES = {"max_k": (1, math.inf), "max_r": (1, math.inf), "samples": (1, 1000), "recurrence_samples": (0, 1000)}


def _config_text(value: object) -> str:
    if value is None:
        return "default"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, *, workers: int = 1, **options: object) -> SuiteReport:
    """Run one named suite.

    An option left out or given as None takes the suite's default.  A
    suite ignores the options of other suites, so one option set serves
    them all; an option that no suite takes is an error.  A numeric suite's
    builder is looked up in numeric and runs on up to workers processes
    (numeric._fan_out; 1 without os.sched_setaffinity), after every refusal,
    as run_suite draws its checks; the report is the same for any count.
    workers is no suite option: it is not in CONFIG.
    """
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(_SUITES)}") from None
    unknown = sorted(set(options) - _OPTIONS)
    if unknown:
        raise ValueError(f"unknown suite option(s): {', '.join(unknown)}")
    values = {key: default if options.get(key) is None else options[key] for key, default in suite.config}
    if "tol" in values and not isinstance(values["tol"], numbers.Real):
        raise ValueError(f"tol must be a number, got {values['tol']!r}")
    if "tol" in values and not 0 < values["tol"] < math.inf:
        raise ValueError(f"tol must be positive and finite, got {values['tol']}")
    if "level_cap" in values and not isinstance(values["level_cap"], numbers.Integral):  # its range: formal
        raise ValueError(f"level_cap must be an integer, got {values['level_cap']!r}")
    for key, (least, most) in _SIZES.items():
        if key in values and not isinstance(values[key], numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {values[key]!r}")
        if key in values and not least <= values[key] <= most:
            bound = f"at least {least}" if values[key] < least else f"at most {most}"
            raise ValueError(f"{key} must be {bound}, got {values[key]}")
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    workers = workers if hasattr(os, "sched_setaffinity") else 1  # Linux, where os.fork is too
    config = tuple((key, _config_text(value)) for key, value in values.items())
    if isinstance(suite.build, str):
        from . import numeric
        checks = getattr(numeric, suite.build)(**values, workers=workers)
    else:
        checks = suite.build(**values)
    return SuiteReport(name, config, tuple(checks))
