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

Sampled suites draw from random.Random(seed); the seed appears in the
report header so failures are reproducible.  Each draws and prices its
whole run, then returns items (a tuple or draw each) that _fan_out runs,
serially or on forked workers (cli.main), to the same report.
"""

from __future__ import annotations

import marshal
import math
import numbers
import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, NoReturn, Optional, Sequence

from .partitions import SetPartition, alternating_length_sum, enumerate_set_partitions, integer_partitions
from .partitions import signed_block_sums

if TYPE_CHECKING:  # each check builder imports the layers it runs in its own body
    from fractions import Fraction

    from .formal import IdentityReport
    from .series import SeriesValue

__all__ = [
    "CheckResult", "SuiteReport", "available_suites", "run_suite", "DEFAULT_SEED", "SAMPLE_DEPTH", "AHAT_DEPTH",
]

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-6
SAMPLE_DEPTH = 50_000  # matched-truncation identity checks
AHAT_DEPTH = 2_000_000  # 1/N outer tails need this for 1e-6 relative
FORMAL_SIZE_CAP = 20_000  # of level_cap^max_r; `formal --max-r 4 --n 11` takes about 0.5 s
EXPONENT_LOW, EXPONENT_HIGH = 1.2, 4.0
TAIL_K_HIGH = 8


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
Item = Callable[[], Checks]  # one sampled tuple's or draw's checks


def _flt(x: float) -> str:
    return f"{x:.12e}"


def _relative_check(name: str, exact: Fraction, approx: float, tol: float) -> CheckResult:
    target = float(exact)
    delta = abs(target - approx) / abs(target)
    return CheckResult(name, delta <= tol, str(exact), _flt(approx), f"{delta:.3e}", f"{tol:g}")


def _absolute_check(name: str, lhs: float, rhs: float, tol: float) -> CheckResult:
    delta = abs(lhs - rhs)
    return CheckResult(name, delta <= tol, _flt(lhs), _flt(rhs), f"{delta:.3e}", f"{tol:g}")


def _exact_check(name: str, ok: bool, lhs: str, rhs: str, delta: str) -> CheckResult:
    return CheckResult(name, ok, lhs, rhs, delta, "exact")


def _count_check(name: str, bad: int, total: int) -> CheckResult:
    return _exact_check(name, bad == 0, f"{total - bad}/{total}", f"{total}/{total}", str(bad))


def _sign_check(name: str, sv: SeriesValue, side: str) -> CheckResult:
    """sv is on the given side of 0, farther from it than its error bound."""
    ok = (sv.value < 0 if side == "<0" else sv.value > 0) and abs(sv.value) > sv.err_bound
    return CheckResult(name, ok, _flt(sv.value), side, _flt(abs(sv.value)), _flt(sv.err_bound))


def _identity_check(name: str, rep: IdentityReport) -> CheckResult:
    if rep.ok:
        return _exact_check(name, True, "match", "match", "0")
    return _exact_check(name, False, str(rep.lhs_coeff), str(rep.rhs_coeff), f"at={rep.first_diff}")


def _tuple_label(s: Sequence[float]) -> str:
    return ",".join(f"{x:.3f}" for x in s)


def _partition_label(pi: SetPartition) -> str:
    return "|".join("".join(str(a) for a in block) for block in pi.blocks)


def _genus_checks(
    genus_name: str, kernel: str, label: str, scale: Callable[[float, int, float], float],
    suite: str, max_k: int, depth: Optional[int], tol: float,
) -> Checks:
    """Exact genus coefficients against pi-normalized symmetrized sums.

    For each partition J = (j_1 >= ... >= j_r) of each k <= max_k the
    exact coefficient is compared, to relative tolerance tol, with
    scale((-1)^r / (prod of multiplicity factorials), k, symmetrize(kernel,
    (2 j_1, ..., 2 j_r))): for main the L genus, chained alternating sums
    (T) and 2^(2k) / pi^(2k); for ahat the A-hat genus, non-strict nested
    zetas (S), whose 1/N outer tails need a large depth, and (2 pi)^(-2k).
    Without a depth, each partition uses the default for its r.  The
    partitions of one depth share one symmetrize_family, all priced first.
    """
    from .genus import NAMED, check_table_degree, coefficient_table
    from .series import EvalConfig, check_work, default_config, price, symmetrize_family
    check_table_degree(max_k)
    classes: dict[EvalConfig, list] = {}
    for k in range(1, max_k + 1):
        for part in integer_partitions(k):
            classes.setdefault(default_config(len(part)) if depth is None else EvalConfig(depth), []).append(part)
    families = {cfg: [[2.0 * j for j in p] for p in parts] for cfg, parts in classes.items()}
    check_work(f"verify {suite}", sum(price(cfg.depth, family) for cfg, family in families.items()))
    runs = [(parts, symmetrize_family(kernel, families[cfg], cfg)) for cfg, parts in classes.items()]
    sums = {part: sv.value for parts, run in runs for part, sv in zip(parts, run)}
    genus = NAMED[genus_name](max_k)
    for k in range(1, max_k + 1):
        table = coefficient_table(genus, k)
        for part in integer_partitions(k):
            sign = -1.0 if len(part) % 2 else 1.0
            approx = scale(sign / part.symmetry_factor(), k, sums[part])
            yield _relative_check(f"{label}[{part}]", table[part], approx, tol)


# Each suite keeps its own float expression order, so its reports do not move.
def _main_scale(c: float, k: int, value: float) -> float:
    return c * 4.0**k / math.pi ** (2 * k) * value


def _ahat_scale(c: float, k: int, value: float) -> float:
    return c * value / (2.0 * math.pi) ** (2 * k)


def _sampled_tuples(suite: str, seed: int, samples: int, max_r: int, depth: int, kernels: int) -> list[tuple]:
    """(index, exponents) with r cycling 1..max_r, reproducible from seed.

    Every tuple is checked against the symmetrize size guard, and the run's
    price (each tuple's symmetrized sums by this many kernels, and an
    ordering for each of its 2^r - 1 block sums) against the work budget.
    Both depend only on a tuple's multiplicities, so the first tuple of
    each multiplicity pattern is priced and the rest read its price.
    """
    from .series import check_work, price
    rng = random.Random(seed)
    out, work, prices = [], 0, {}
    for r in range(1, max_r + 1):
        for i in range(samples):
            s = tuple(rng.uniform(EXPONENT_LOW, EXPONENT_HIGH) for _ in range(r))
            pattern = tuple(sorted(Counter(s).values()))
            if pattern not in prices:
                prices[pattern] = kernels * price(depth, [s]) + price(depth, ordering=2**r - 1)
            work += prices[pattern]
            out.append((i, s))
    check_work(f"verify {suite}", work)
    return out


def _weighted_products(s: Sequence[float], f: Callable[[float], float]) -> list[tuple[int, float]]:
    """(Mobius weight, product of f over the block sums) for every set
    partition of the positions of s; f runs once per distinct block sum."""
    terms: list[tuple[int, tuple[float, ...]]] = []
    signed_block_sums(s, lambda w, sums: terms.append((w, tuple(sums))))
    values = {x: f(x) for x in dict.fromkeys(x for _, sums in terms for x in sums)}
    return [(w, math.prod(values[x] for x in sums)) for w, sums in terms]


def _hoffman_checks(max_r: int, samples: int, seed: int, depth: int, tol: float) -> list[Item]:
    """Symmetrized nested zetas against set-partition products of zetas.

    Strict form:      sum over permutations of the strict nested sum
                      equals sum over set partitions of
                      (-1)^(r-blocks) * prod (|B|-1)! * prod zeta(sum of
                      exponents in B).
    Non-strict form:  same without the sign.

    Both sides are truncated at the same depth; the identities are exact
    decompositions of the finite index box, so residuals are pure float
    noise and the tolerance is easily met.  An item is one tuple.
    """
    from .series import EvalConfig, symmetrize, zeta
    cfg = EvalConfig(depth)

    def item(i: int, s: tuple[float, ...]) -> Checks:
        products = _weighted_products(s, lambda x: zeta(x, cfg).value)
        label = f"{i:02d}:{_tuple_label(s)}"
        lhs = symmetrize("strict", s, cfg).value
        rhs = math.fsum(w * p for w, p in products)
        yield _absolute_check(f"strict[{label}]", lhs, rhs, tol)
        lhs = symmetrize("S", s, cfg).value
        rhs = math.fsum(abs(w) * p for w, p in products)
        yield _absolute_check(f"star[{label}]", lhs, rhs, tol)

    return [partial(item, i, s) for i, s in _sampled_tuples("hoffman", seed, samples, max_r, depth, 2)]


def _multiple_eta_checks(max_r: int, samples: int, seed: int, depth: int, tol: float) -> list[Item]:
    """The alternating analogue: eta products against chained sums.

    sum over set partitions of (-1)^(r-blocks) * prod (|B|-1)! * prod
    eta(sum over B) equals (-1)^r * symmetrize("T", s).  Each eta factor
    is evaluated as minus the one-variable chained sum so that every
    index is truncated at exactly the same depth, which again makes the
    identity exact on the finite box.  An item is one tuple.
    """
    from .series import EvalConfig, alternating_chain_sum, symmetrize
    cfg = EvalConfig(depth)

    def item(i: int, s: tuple[float, ...]) -> Checks:
        products = _weighted_products(s, lambda x: -alternating_chain_sum((x,), cfg).value)
        lhs = math.fsum(w * p for w, p in products)
        rhs = (-1.0 if len(s) % 2 else 1.0) * symmetrize("T", s, cfg).value
        yield _absolute_check(f"eta[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)

    return [partial(item, i, s) for i, s in _sampled_tuples("multiple-eta", seed, samples, max_r, depth, 1)]


def _positivity_checks(samples: int, recurrence_samples: int, seed: int, depth: int, tol: float) -> list[Item]:
    """Sign separation for chained sums plus both peeling recurrences.

    For sampled exponent tuples (r cycling 1..3): the chained sum is
    negative and the tail-bounded chained sum positive, each with
    magnitude exceeding its own error bound.  A further sampled batch
    checks the two recurrences that peel the innermost index and the
    terminal block, to absolute tolerance.  The run's price is checked
    against the work budget before any sum runs.  An item is one draw of
    either batch.
    """
    from .series import EvalConfig, alternating_chain_and_tail, bottom_block_residual, check_work, price
    from .series import innermost_peel_residual
    cfg = EvalConfig(depth)
    rng = random.Random(seed)

    def draws(count: int) -> Iterator[tuple[int, tuple[float, ...], int]]:  # (i, s, k) with r cycling 1..3
        for i in range(count):
            s = tuple(rng.uniform(EXPONENT_LOW, EXPONENT_HIGH) for _ in range(1 + i % 3))
            yield i, s, rng.randint(1, TAIL_K_HIGH)

    signs, recurrences = list(draws(samples)), list(draws(recurrence_samples))  # one rng, in this order
    work = sum(price(depth, ordering=len(s)) for _, s, _ in signs)
    work += sum(price(depth, peel=len(s), block=len(s)) for _, s, _ in recurrences)
    check_work("verify positivity", work)

    def sign(i: int, s: tuple[float, ...], k: int) -> Checks:
        chain, tail = alternating_chain_and_tail(k, s, cfg)
        yield _sign_check(f"chain-negative[{i:02d}:{_tuple_label(s)}]", chain, "<0")
        yield _sign_check(f"tail-positive[{i:02d}:k={k}:{_tuple_label(s)}]", tail, ">0")

    def recurrence(i: int, s: tuple[float, ...], k: int) -> Checks:
        lhs, rhs = innermost_peel_residual(s, cfg)
        yield _absolute_check(f"peel[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)
        lhs, rhs = bottom_block_residual(k, s, cfg)
        yield _absolute_check(f"block[{i:02d}:k={k}:{_tuple_label(s)}]", lhs, rhs, tol)

    return [partial(sign, *d) for d in signs] + [partial(recurrence, *d) for d in recurrences]


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
                "0" if diff is None else f"at={diff}",
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
    """A suite's check builder and its options with their defaults, in
    the order of the CONFIG line.  A sampled suite's builder (one with a
    seed) draws and prices its whole run and returns its items; any other
    yields its checks."""

    build: Callable[..., Checks | list[Item]]
    config: tuple[tuple[str, object], ...]


_SAMPLED = (
    ("max_r", 3),
    ("samples", 20),
    ("seed", DEFAULT_SEED),
    ("depth", SAMPLE_DEPTH),
    ("tol", DEFAULT_TOL),
)

_SUITES: dict[str, _Suite] = {
    "main": _Suite(
        partial(_genus_checks, "L", "T", "h", _main_scale, "main"),
        (("max_k", 3), ("depth", None), ("tol", DEFAULT_TOL)),
    ),
    "ahat": _Suite(
        partial(_genus_checks, "Ahat", "S", "a", _ahat_scale, "ahat"),
        (("max_k", 3), ("depth", AHAT_DEPTH), ("tol", DEFAULT_TOL)),
    ),
    "hoffman": _Suite(_hoffman_checks, _SAMPLED),
    "multiple-eta": _Suite(_multiple_eta_checks, _SAMPLED),
    "positivity": _Suite(
        _positivity_checks,
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


def _child(share: list[Item], write: int) -> NoReturn:
    """A forked child: the checks of share's items, their fields marshalled to the pipe write."""
    try:
        try:
            result = (True, [[tuple(vars(c).values()) for c in item()] for item in share])
        except Exception:
            import traceback  # loaded on a failure only, as is signal below
            result = (False, traceback.format_exc())
        with os.fdopen(write, "wb") as pipe:
            pipe.write(marshal.dumps(result))
    finally:  # never back into the parent's code
        os._exit(0)


def _fan_out(items: list[Item], workers: int) -> list[CheckResult]:
    """The checks of every item, in item order, on W = min(workers, items)
    processes: with os.fork, W - 1 children take the items j, j + W, ...
    (child j) and this process the items 0, W, ....  A child inherits the
    items and the loaded layers, sends only its checks, and ends by
    os._exit.  Each item computes its checks alone, so the report is
    byte-identical for any W.  A child that raises or dies raises
    RuntimeError here; every child is reaped before this returns or
    raises, and killed first if this raises.
    """
    w = max(1, min(workers, len(items))) if hasattr(os, "fork") else 1
    children: list[tuple[int, BinaryIO]] = []
    try:
        for j in range(1, w):
            read, write = os.pipe()
            if not (pid := os.fork()):
                _child(items[j::w], write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        shares = [[list(item()) for item in items[::w]]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"verify worker {pid} ended without a result")
            ok, result = marshal.loads(data)
            if not ok:
                raise RuntimeError(f"verify worker {pid} failed:\n{result}")
            shares.append([[CheckResult(*fields) for fields in checks] for checks in result])
    except BaseException:
        from signal import SIGKILL
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return [check for k in range(len(items)) for check in shares[k % w][k // w]]


def run_suite(name: str, *, workers: int = 1, **options: object) -> SuiteReport:
    """Run one named suite.

    An option left out or given as None takes the suite's default.  A
    suite ignores the options of other suites, so one option set serves
    them all; an option that no suite takes is an error.  A sampled
    suite (hoffman, multiple-eta, positivity) runs its items on up to
    workers processes (_fan_out), after every refusal; the report is the
    same for any count.  workers is no suite option: it is not in CONFIG.
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
    config = tuple((key, _config_text(value)) for key, value in values.items())
    checks = suite.build(**values)
    if "seed" in values:  # a sampled suite: its items
        checks = _fan_out(list(checks), workers)
    return SuiteReport(name, config, tuple(checks))
