"""Verification suites: each cross-checks one family of identities.

A suite produces a SuiteReport holding one CheckResult per comparison.
Checks are pure and independent, so they may be evaluated on a thread
pool; results are buffered and emitted in a fixed order, making reports
byte-identical for identical configuration regardless of thread count.

The eight suites:

* main      exact L coefficients against chained alternating sums
* ahat      exact A-hat coefficients against non-strict nested zetas
* hoffman   symmetrized strict / non-strict nested zetas against
            products of plain zetas over set partitions
* multiple-eta  the alternating analogue of the hoffman identity
* positivity    sign and magnitude of chained sums, plus both peeling
                recurrences
* formal    exact truncated-polynomial identities
* oracle    closed-form genus coefficients against the elimination oracle
* signs     sign pattern of every coefficient, both named genera

Sampled suites draw from random.Random(seed); the seed appears in the
report header so failures are reproducible.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence

from .formal import (
    FormalPolynomial,
    check_chain_inversion,
    check_mobius_inversion,
    monomial_poly,
    power_sum_poly,
)
from .genus import (
    GenusSpec,
    coefficient_table,
    coefficient_table_oracle,
)
from .partitions import (
    SetPartition,
    alternating_length_sum,
    coarsenings,
    enumerate_set_partitions,
    integer_partitions,
    iter_set_partitions,
)
from .series import (
    DEFAULT_MARGIN,
    DEFAULT_TOL,
    EvalConfig,
    alternating_chain_sum,
    alternating_chain_tail,
    bottom_block_residual,
    default_config,
    distinct_orderings,
    innermost_peel_residual,
    symmetrize,
    zeta,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "available_suites",
    "run_suite",
    "DEFAULT_SEED",
    "SAMPLE_DEPTH",
    "AHAT_DEPTH",
]

DEFAULT_SEED = 1729
SAMPLE_DEPTH = 50_000  # matched-truncation identity checks
AHAT_DEPTH = 2_000_000  # 1/N outer tails need this for 1e-6 relative
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


def _flt(x: float) -> str:
    return f"{x:.12e}"


def _run_checks(
    tasks: Sequence[Callable[[], CheckResult]], threads: int
) -> tuple[CheckResult, ...]:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return tuple(pool.map(lambda fn: fn(), tasks))
    return tuple(fn() for fn in tasks)


def _relative_check(name: str, exact: Fraction, approx: float, tol: float) -> CheckResult:
    target = float(exact)
    delta = abs(target - approx) / abs(target)
    return CheckResult(name, delta <= tol, str(exact), _flt(approx), f"{delta:.3e}", f"{tol:g}")


def _absolute_check(name: str, lhs: float, rhs: float, tol: float) -> CheckResult:
    delta = abs(lhs - rhs)
    return CheckResult(name, delta <= tol, _flt(lhs), _flt(rhs), f"{delta:.3e}", f"{tol:g}")


def _tuple_label(s: Sequence[float]) -> str:
    return ",".join(f"{x:.3f}" for x in s)


def _partition_label(pi: SetPartition) -> str:
    return "|".join("".join(str(a) for a in block) for block in pi.blocks)


def _partition_weights(r: int) -> list[tuple[int, int, tuple[tuple[int, ...], ...]]]:
    """(sign, cycle factor, blocks) for every set partition of {1..r}."""
    out = []
    for pi in enumerate_set_partitions(r):
        sign = -1 if (r - pi.length) % 2 else 1
        cfac = 1
        for block in pi.blocks:
            cfac *= factorial(len(block) - 1)
        out.append((sign, cfac, pi.blocks))
    return out


def _config_for(parts: int, depth: Optional[int], tol: float, margin: float) -> EvalConfig:
    if depth is None:
        base = default_config(parts)
        return EvalConfig(base.depth, tol, margin)
    return EvalConfig(depth, tol, margin)


def suite_main(
    *,
    max_k: Optional[int] = None,
    depth: Optional[int] = None,
    tol: Optional[float] = None,
    margin: Optional[float] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Exact L coefficients against pi-normalized chained alternating sums.

    For each partition J = (j_1 >= ... >= j_r) of each k <= max_k the
    exact coefficient h_J is compared with

        (-1)^r / (prod of multiplicity factorials)
        * 2^(2k) / pi^(2k) * symmetrize("T", (2 j_1, ..., 2 j_r))

    to relative tolerance tol.
    """
    max_k = 3 if max_k is None else max_k
    tol = DEFAULT_TOL if tol is None else tol
    margin = DEFAULT_MARGIN if margin is None else margin
    genus = GenusSpec.l_genus(max_k)
    tasks: list[Callable[[], CheckResult]] = []
    for k in range(1, max_k + 1):
        table = coefficient_table(genus, k)
        for part in integer_partitions(k):
            exact = table[part]

            def task(part=part, exact=exact, k=k) -> CheckResult:
                r = len(part)
                cfg = _config_for(r, depth, tol, margin)
                sym = symmetrize("T", [2.0 * j for j in part.parts], cfg)
                sign = -1.0 if r % 2 else 1.0
                approx = (
                    sign / part.symmetry_factor() * 4.0**k / math.pi ** (2 * k) * sym.value
                )
                return _relative_check(f"h[{part}]", exact, approx, tol)

            tasks.append(task)
    checks = _run_checks(tasks, threads)
    config = (
        ("max_k", str(max_k)),
        ("depth", "default" if depth is None else str(depth)),
        ("tol", f"{tol:g}"),
        ("threads", str(threads)),
    )
    return SuiteReport("main", config, checks)


def suite_ahat(
    *,
    max_k: Optional[int] = None,
    depth: Optional[int] = None,
    tol: Optional[float] = None,
    margin: Optional[float] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Exact A-hat coefficients against non-strict nested zeta sums.

    Same shape as suite_main with kernel S and normalization (2 pi)^(2k).
    The non-strict sums have 1/N outer tails, hence the large default
    depth.
    """
    max_k = 3 if max_k is None else max_k
    depth = AHAT_DEPTH if depth is None else depth
    tol = DEFAULT_TOL if tol is None else tol
    margin = DEFAULT_MARGIN if margin is None else margin
    genus = GenusSpec.a_hat(max_k)
    tasks: list[Callable[[], CheckResult]] = []
    for k in range(1, max_k + 1):
        table = coefficient_table(genus, k)
        for part in integer_partitions(k):
            exact = table[part]

            def task(part=part, exact=exact, k=k) -> CheckResult:
                r = len(part)
                cfg = EvalConfig(depth, tol, margin)
                sym = symmetrize("S", [2.0 * j for j in part.parts], cfg)
                sign = -1.0 if r % 2 else 1.0
                approx = (
                    sign / part.symmetry_factor() * sym.value / (2.0 * math.pi) ** (2 * k)
                )
                return _relative_check(f"a[{part}]", exact, approx, tol)

            tasks.append(task)
    checks = _run_checks(tasks, threads)
    config = (
        ("max_k", str(max_k)),
        ("depth", str(depth)),
        ("tol", f"{tol:g}"),
        ("threads", str(threads)),
    )
    return SuiteReport("ahat", config, checks)


def _sampled_tuples(
    seed: int, samples: int, max_r: int
) -> list[tuple[int, tuple[float, ...]]]:
    """(index, exponents) with r cycling 1..max_r, reproducible from seed."""
    rng = random.Random(seed)
    out = []
    for r in range(1, max_r + 1):
        for i in range(samples):
            s = tuple(rng.uniform(EXPONENT_LOW, EXPONENT_HIGH) for _ in range(r))
            out.append((i, s))
    return out


def suite_hoffman(
    *,
    max_r: Optional[int] = None,
    samples: Optional[int] = None,
    depth: Optional[int] = None,
    tol: Optional[float] = None,
    margin: Optional[float] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Symmetrized nested zetas against set-partition products of zetas.

    Strict form:      sum over permutations of the strict nested sum
                      equals sum over set partitions of
                      (-1)^(r-blocks) * prod (|B|-1)! * prod zeta(sum of
                      exponents in B).
    Non-strict form:  same without the sign.

    Both sides are truncated at the same depth; the identities are exact
    decompositions of the finite index box, so residuals are pure float
    noise and the tolerance is easily met.
    """
    max_r = 3 if max_r is None else max_r
    samples = 20 if samples is None else samples
    depth = SAMPLE_DEPTH if depth is None else depth
    tol = DEFAULT_TOL if tol is None else tol
    margin = DEFAULT_MARGIN if margin is None else margin
    seed = DEFAULT_SEED if seed is None else seed
    cfg_tmpl = EvalConfig(depth, tol, margin)
    tasks: list[Callable[[], CheckResult]] = []
    for i, s in _sampled_tuples(seed, samples, max_r):
        r = len(s)
        distinct_orderings(s)  # reject an oversized max_r before any sum runs
        weights = _partition_weights(r)

        def strict_task(i=i, s=s, r=r, weights=weights) -> CheckResult:
            lhs = symmetrize("strict", s, cfg_tmpl).value
            rhs = math.fsum(
                sign
                * cfac
                * math.prod(zeta(sum(s[a - 1] for a in block), cfg_tmpl).value for block in blocks)
                for sign, cfac, blocks in weights
            )
            return _absolute_check(f"strict[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)

        def star_task(i=i, s=s, r=r, weights=weights) -> CheckResult:
            lhs = symmetrize("S", s, cfg_tmpl).value
            rhs = math.fsum(
                cfac
                * math.prod(zeta(sum(s[a - 1] for a in block), cfg_tmpl).value for block in blocks)
                for _sign, cfac, blocks in weights
            )
            return _absolute_check(f"star[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)

        tasks.append(strict_task)
        tasks.append(star_task)
    checks = _run_checks(tasks, threads)
    config = (
        ("max_r", str(max_r)),
        ("samples", str(samples)),
        ("seed", str(seed)),
        ("depth", str(depth)),
        ("tol", f"{tol:g}"),
        ("threads", str(threads)),
    )
    return SuiteReport("hoffman", config, checks)


def suite_multiple_eta(
    *,
    max_r: Optional[int] = None,
    samples: Optional[int] = None,
    depth: Optional[int] = None,
    tol: Optional[float] = None,
    margin: Optional[float] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """The alternating analogue: eta products against chained sums.

    sum over set partitions of (-1)^(r-blocks) * prod (|B|-1)! * prod
    eta(sum over B) equals (-1)^r * symmetrize("T", s).  Each eta factor
    is evaluated as minus the one-variable chained sum so that every
    index is truncated at exactly the same depth, which again makes the
    identity exact on the finite box.
    """
    max_r = 3 if max_r is None else max_r
    samples = 20 if samples is None else samples
    depth = SAMPLE_DEPTH if depth is None else depth
    tol = DEFAULT_TOL if tol is None else tol
    margin = DEFAULT_MARGIN if margin is None else margin
    seed = DEFAULT_SEED if seed is None else seed
    cfg = EvalConfig(depth, tol, margin)
    tasks: list[Callable[[], CheckResult]] = []
    for i, s in _sampled_tuples(seed, samples, max_r):
        r = len(s)
        distinct_orderings(s)  # reject an oversized max_r before any sum runs
        weights = _partition_weights(r)

        def task(i=i, s=s, r=r, weights=weights) -> CheckResult:
            def eta_at(x: float) -> float:
                return -alternating_chain_sum((x,), cfg).value

            lhs = math.fsum(
                sign
                * cfac
                * math.prod(eta_at(sum(s[a - 1] for a in block)) for block in blocks)
                for sign, cfac, blocks in weights
            )
            sym = symmetrize("T", s, cfg)
            rhs = (-1.0 if r % 2 else 1.0) * sym.value
            return _absolute_check(f"eta[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)

        tasks.append(task)
    checks = _run_checks(tasks, threads)
    config = (
        ("max_r", str(max_r)),
        ("samples", str(samples)),
        ("seed", str(seed)),
        ("depth", str(depth)),
        ("tol", f"{tol:g}"),
        ("threads", str(threads)),
    )
    return SuiteReport("multiple-eta", config, checks)


def suite_positivity(
    *,
    samples: Optional[int] = None,
    recurrence_samples: Optional[int] = None,
    depth: Optional[int] = None,
    tol: Optional[float] = None,
    margin: Optional[float] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Sign separation for chained sums plus both peeling recurrences.

    For sampled exponent tuples (r cycling 1..3): the chained sum is
    negative and the tail-bounded chained sum positive, each with
    magnitude exceeding its own error bound.  A further sampled batch
    checks the two recurrences that peel the innermost index and the
    terminal block, to absolute tolerance.
    """
    samples = 100 if samples is None else samples
    recurrence_samples = 10 if recurrence_samples is None else recurrence_samples
    depth = SAMPLE_DEPTH if depth is None else depth
    tol = DEFAULT_TOL if tol is None else tol
    margin = DEFAULT_MARGIN if margin is None else margin
    seed = DEFAULT_SEED if seed is None else seed
    cfg = EvalConfig(depth, tol, margin)
    rng = random.Random(seed)
    tasks: list[Callable[[], CheckResult]] = []
    for i in range(samples):
        r = 1 + i % 3
        s = tuple(rng.uniform(EXPONENT_LOW, EXPONENT_HIGH) for _ in range(r))
        k = rng.randint(1, TAIL_K_HIGH)

        def neg_task(i=i, s=s) -> CheckResult:
            sv = alternating_chain_sum(s, cfg)
            ok = sv.value < 0 and abs(sv.value) > sv.err_bound
            return CheckResult(
                f"chain-negative[{i:02d}:{_tuple_label(s)}]",
                ok,
                _flt(sv.value),
                "<0",
                _flt(abs(sv.value)),
                _flt(sv.err_bound),
            )

        def tail_task(i=i, s=s, k=k) -> CheckResult:
            sv = alternating_chain_tail(k, s, cfg)
            ok = sv.value > 0 and sv.value > sv.err_bound
            return CheckResult(
                f"tail-positive[{i:02d}:k={k}:{_tuple_label(s)}]",
                ok,
                _flt(sv.value),
                ">0",
                _flt(abs(sv.value)),
                _flt(sv.err_bound),
            )

        tasks.append(neg_task)
        tasks.append(tail_task)
    for i in range(recurrence_samples):
        r = 1 + i % 3
        s = tuple(rng.uniform(EXPONENT_LOW, EXPONENT_HIGH) for _ in range(r))
        k = rng.randint(1, TAIL_K_HIGH)

        def peel_task(i=i, s=s) -> CheckResult:
            lhs, rhs = innermost_peel_residual(s, cfg)
            return _absolute_check(f"peel[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)

        def block_task(i=i, s=s, k=k) -> CheckResult:
            lhs, rhs = bottom_block_residual(k, s, cfg)
            return _absolute_check(f"block[{i:02d}:k={k}:{_tuple_label(s)}]", lhs, rhs, tol)

        tasks.append(peel_task)
        tasks.append(block_task)
    checks = _run_checks(tasks, threads)
    config = (
        ("samples", str(samples)),
        ("recurrence_samples", str(recurrence_samples)),
        ("seed", str(seed)),
        ("depth", str(depth)),
        ("tol", f"{tol:g}"),
        ("threads", str(threads)),
    )
    return SuiteReport("positivity", config, checks)


def suite_formal(
    *,
    max_r: Optional[int] = None,
    level_cap: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Exact truncated-polynomial identities over whole partition lattices.

    For every set partition of ground sets up to max_r, at the given
    level cap: the free sum decomposes as the sum of distinct-level sums
    over coarsenings; Mobius inversion recovers the distinct-level sum;
    and both directions of the chained-sum inversion hold.  Also checks
    that the signed length statistic of the whole lattice equals
    (-1)^n, by direct enumeration and by the alternating Stirling sum.
    """
    max_r = 3 if max_r is None else max_r
    level_cap = 4 if level_cap is None else level_cap
    tasks: list[Callable[[], CheckResult]] = []
    for n in range(1, max_r + 1):
        for pi in enumerate_set_partitions(n):
            label = _partition_label(pi)

            def free_task(pi=pi, label=label) -> CheckResult:
                lhs = power_sum_poly(pi, level_cap)
                rhs = FormalPolynomial({}, level_cap)
                for rho, _grouping in coarsenings(pi):
                    rhs = rhs + monomial_poly(rho, level_cap)
                diff = lhs.first_difference(rhs)
                ok = diff is None
                return CheckResult(
                    f"free-sum[{label}]",
                    ok,
                    f"terms={len(lhs.terms)}",
                    f"terms={len(rhs.terms)}",
                    "0" if ok else f"at={diff}",
                    "exact",
                )

            def mobius_task(pi=pi, label=label) -> CheckResult:
                rep = check_mobius_inversion(pi, level_cap)
                return CheckResult(
                    f"mobius[{label}]",
                    rep.ok,
                    "match" if rep.ok else str(rep.lhs_coeff),
                    "match" if rep.ok else str(rep.rhs_coeff),
                    "0" if rep.ok else f"at={rep.first_diff}",
                    "exact",
                )

            def chain_task(pi=pi, label=label) -> CheckResult:
                rep = check_chain_inversion(pi, level_cap)
                bad = None
                if not rep.chain_from_signed.ok:
                    bad = rep.chain_from_signed
                elif not rep.signed_from_chain.ok:
                    bad = rep.signed_from_chain
                return CheckResult(
                    f"chain-inversion[{label}]",
                    rep.ok,
                    "match" if rep.ok else str(bad.lhs_coeff),
                    "match" if rep.ok else str(bad.rhs_coeff),
                    "0" if rep.ok else f"at={bad.first_diff}",
                    "exact",
                )

            tasks.append(free_task)
            tasks.append(mobius_task)
            tasks.append(chain_task)
    for n in range(1, 10):

        def parity_task(n=n) -> CheckResult:
            by_sum = alternating_length_sum(n)
            by_enum = sum(
                (-1 if pi.length % 2 else 1) * factorial(pi.length)
                for pi in iter_set_partitions(n)
            )
            expected = -1 if n % 2 else 1
            ok = by_sum == by_enum == expected
            return CheckResult(
                f"length-parity[n={n}]",
                ok,
                str(by_enum),
                str(by_sum),
                "0" if ok else "1",
                "exact",
            )

        tasks.append(parity_task)
    checks = _run_checks(tasks, threads)
    config = (
        ("max_r", str(max_r)),
        ("level_cap", str(level_cap)),
        ("threads", str(threads)),
    )
    return SuiteReport("formal", config, checks)


def suite_oracle(
    *,
    max_k: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Closed-form coefficient tables against the elimination oracle.

    The oracle expands the defining product of one-variable series and
    reduces to the power-sum basis by lex leading-term elimination; it
    shares no code path with the set-partition closed form, so exact
    agreement on every partition is a genuine cross-check.
    """
    max_k = 6 if max_k is None else max_k
    tasks: list[Callable[[], CheckResult]] = []
    for name, genus in (
        ("L", GenusSpec.l_genus(max_k)),
        ("Ahat", GenusSpec.a_hat(max_k)),
    ):
        for k in range(1, max_k + 1):

            def task(name=name, genus=genus, k=k) -> CheckResult:
                closed = coefficient_table(genus, k)
                oracle = coefficient_table_oracle(genus, k)
                parts = integer_partitions(k)
                bad = sum(1 for p in parts if closed[p] != oracle[p])
                total = len(parts)
                return CheckResult(
                    f"oracle[{name},k={k}]",
                    bad == 0,
                    f"{total - bad}/{total}",
                    f"{total}/{total}",
                    str(bad),
                    "exact",
                )

            tasks.append(task)
    checks = _run_checks(tasks, threads)
    config = (("max_k", str(max_k)), ("threads", str(threads)))
    return SuiteReport("oracle", config, checks)


def suite_signs(
    *,
    max_k: Optional[int] = None,
    threads: int = 1,
    **_: object,
) -> SuiteReport:
    """Sign pattern of every coefficient of both named genera.

    For a partition with r parts the L coefficient has sign (-1)^(r-1)
    and the A-hat coefficient sign (-1)^r, for every partition of every
    k <= max_k, in exact arithmetic.  One aggregated check per
    (genus, k).
    """
    max_k = 12 if max_k is None else max_k
    specs = (
        ("L", GenusSpec.l_genus(max_k), 1),
        ("Ahat", GenusSpec.a_hat(max_k), 0),
    )
    tasks: list[Callable[[], CheckResult]] = []
    for name, genus, offset in specs:
        for k in range(1, max_k + 1):

            def task(name=name, genus=genus, offset=offset, k=k) -> CheckResult:
                table = coefficient_table(genus, k)
                parts = integer_partitions(k)
                bad = 0
                for p in parts:
                    expected = -1 if (len(p) + offset) % 2 else 1
                    q = table[p]
                    actual = 1 if q > 0 else (-1 if q < 0 else 0)
                    if actual != expected:
                        bad += 1
                total = len(parts)
                return CheckResult(
                    f"signs[{name},k={k}]",
                    bad == 0,
                    f"{total - bad}/{total}",
                    f"{total}/{total}",
                    str(bad),
                    "exact",
                )

            tasks.append(task)
    checks = _run_checks(tasks, threads)
    config = (("max_k", str(max_k)), ("threads", str(threads)))
    return SuiteReport("signs", config, checks)


_SUITES: dict[str, Callable[..., SuiteReport]] = {
    "main": suite_main,
    "ahat": suite_ahat,
    "hoffman": suite_hoffman,
    "multiple-eta": suite_multiple_eta,
    "positivity": suite_positivity,
    "formal": suite_formal,
    "oracle": suite_oracle,
    "signs": suite_signs,
}


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, **options: object) -> SuiteReport:
    """Run one named suite; unknown option keys are ignored by the suite."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(_SUITES)}"
        ) from None
    return fn(**options)
