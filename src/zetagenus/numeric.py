"""The numeric verify suites (main, ahat, hoffman, multiple-eta and
positivity; see verify) and the fan-out that runs them on every CPU.

verify.run_suite imports this module only when such a suite runs, so no
exact suite loads it.  Each builder prices its whole run, runs _fan_out's
items (a group of partitions, a tuple or a draw each), serially or on
forked workers (cli.main), and makes its checks from the floats they send.
"""

from __future__ import annotations

import marshal
import math
import os
import random
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .partitions import integer_partitions, signed_block_sums
from .verify import CheckResult, Checks

if TYPE_CHECKING:  # each check builder imports the layers it runs in its own body
    from fractions import Fraction

EXPONENT_LOW, EXPONENT_HIGH = 1.2, 4.0
TAIL_K_HIGH = 8


def _flt(x: float) -> str:
    return f"{x:.12e}"


def _relative_check(name: str, exact: Fraction, approx: float, tol: float) -> CheckResult:
    target = float(exact)
    delta = abs(target - approx) / abs(target)
    return CheckResult(name, delta <= tol, str(exact), _flt(approx), f"{delta:.3e}", f"{tol:g}")


def _absolute_check(name: str, lhs: float, rhs: float, tol: float) -> CheckResult:
    delta = abs(lhs - rhs)
    return CheckResult(name, delta <= tol, _flt(lhs), _flt(rhs), f"{delta:.3e}", f"{tol:g}")


def _sign_check(name: str, value: float, bound: float, side: str) -> CheckResult:
    """value is on the given side of 0, farther from it than its error bound."""
    ok = (value < 0 if side == "<0" else value > 0) and abs(value) > bound
    return CheckResult(name, ok, _flt(value), side, _flt(abs(value)), _flt(bound))


def _tuple_label(s: Sequence[float]) -> str:
    return ",".join(f"{x:.3f}" for x in s)


def _genus_checks(
    genus_name: str, kernel: str, label: str, scale: Callable[[float, int, float], float],
    suite: str, max_k: int, depth: Optional[int], tol: float, workers: int,
) -> Checks:
    """Exact genus coefficients against pi-normalized symmetrized sums.

    For each partition J = (j_1 >= ... >= j_r) of each k <= max_k the
    exact coefficient is compared, to relative tolerance tol, with
    scale((-1)^r / (prod of multiplicity factorials), k, symmetrize(kernel,
    (2 j_1, ..., 2 j_r))): for main the L genus, chained alternating sums
    (T) and 2^(2k) / pi^(2k); for ahat the A-hat genus, non-strict nested
    zetas (S), whose 1/N outer tails need a large depth, and (2 pi)^(-2k).
    Without a depth, each partition uses the default for its r.  The
    partitions of one depth, all priced first, form W = min(workers, max_k)
    groups by largest part mod W, one symmetrize_family each, and process g
    of _fan_out sums group g of every depth: a sum does not depend on its family.
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
    w = min(workers, max_k)  # so the one-part partitions (1), ..., (max_k) fill every group of their class

    def values(cfg: EvalConfig, parts: list) -> Iterator[float]:  # one group's sums, as a child sends them
        return (sv.value for sv in symmetrize_family(kernel, [[2.0 * j for j in p] for p in parts], cfg))

    groups = [(cfg, [p for p in parts if p[0] % w == g]) for cfg, parts in classes.items() for g in range(w)]
    runs = _fan_out([partial(values, cfg, parts) for cfg, parts in groups], w)
    sums = {part: value for (_, parts), run in zip(groups, runs) for part, value in zip(parts, run)}
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


main_checks = partial(_genus_checks, "L", "T", "h", _main_scale, "main")
ahat_checks = partial(_genus_checks, "Ahat", "S", "a", _ahat_scale, "ahat")


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


def hoffman_checks(max_r: int, samples: int, seed: int, depth: int, tol: float, workers: int) -> Checks:
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

    def item(s: tuple[float, ...]) -> list[float]:  # both sides of the strict form, then of the star form
        products = _weighted_products(s, lambda x: zeta(x, cfg).value)
        strict, star = math.fsum(w * p for w, p in products), math.fsum(abs(w) * p for w, p in products)
        return [symmetrize("strict", s, cfg).value, strict, symmetrize("S", s, cfg).value, star]

    tuples = _sampled_tuples("hoffman", seed, samples, max_r, depth, 2)
    for (i, s), (lhs, rhs, star_lhs, star_rhs) in zip(tuples, _fan_out([partial(item, s) for _, s in tuples], workers)):
        label = f"{i:02d}:{_tuple_label(s)}"
        yield _absolute_check(f"strict[{label}]", lhs, rhs, tol)
        yield _absolute_check(f"star[{label}]", star_lhs, star_rhs, tol)


def multiple_eta_checks(max_r: int, samples: int, seed: int, depth: int, tol: float, workers: int) -> Checks:
    """The alternating analogue: eta products against chained sums.

    sum over set partitions of (-1)^(r-blocks) * prod (|B|-1)! * prod
    eta(sum over B) equals (-1)^r * symmetrize("T", s).  Each eta factor
    is evaluated as minus the one-variable chained sum so that every
    index is truncated at exactly the same depth, which again makes the
    identity exact on the finite box.  An item is one tuple.
    """
    from .series import EvalConfig, alternating_chain_sum, symmetrize
    cfg = EvalConfig(depth)

    def item(s: tuple[float, ...]) -> list[float]:  # both sides
        products = _weighted_products(s, lambda x: -alternating_chain_sum((x,), cfg).value)
        return [math.fsum(w * p for w, p in products), (-1.0 if len(s) % 2 else 1.0) * symmetrize("T", s, cfg).value]

    tuples = _sampled_tuples("multiple-eta", seed, samples, max_r, depth, 1)
    for (i, s), (lhs, rhs) in zip(tuples, _fan_out([partial(item, s) for _, s in tuples], workers)):
        yield _absolute_check(f"eta[{i:02d}:{_tuple_label(s)}]", lhs, rhs, tol)


def positivity_checks(samples: int, recurrence_samples: int, seed: int, depth: int, tol: float, workers: int) -> Checks:
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

    def sign(s: tuple[float, ...], k: int) -> list[float]:  # the chain's and the tail's value and bound
        chain, tail = alternating_chain_and_tail(k, s, cfg)
        return [chain.value, chain.err_bound, tail.value, tail.err_bound]

    def recurrence(s: tuple[float, ...], k: int) -> list[float]:  # the peel's sides, then the block's
        return [*innermost_peel_residual(s, cfg), *bottom_block_residual(k, s, cfg)]

    runs = _fan_out([partial(sign, s, k) for _, s, k in signs] + [partial(recurrence, s, k) for _, s, k in recurrences], workers)
    for (i, s, k), (chain, chain_bound, tail, tail_bound) in zip(signs, runs):
        yield _sign_check(f"chain-negative[{i:02d}:{_tuple_label(s)}]", chain, chain_bound, "<0")
        yield _sign_check(f"tail-positive[{i:02d}:k={k}:{_tuple_label(s)}]", tail, tail_bound, ">0")
    for (i, s, k), (peel_lhs, peel_rhs, lhs, rhs) in zip(recurrences, runs[len(signs):]):
        yield _absolute_check(f"peel[{i:02d}:{_tuple_label(s)}]", peel_lhs, peel_rhs, tol)
        yield _absolute_check(f"block[{i:02d}:k={k}:{_tuple_label(s)}]", lhs, rhs, tol)


def _child(share: list[Callable[[], Iterable]], write: int, cpu: int, cpus: list[int]) -> NoReturn:
    """A forked child, moved to the CPU cpu and then free to use cpus: the
    values of share's items, marshalled to the pipe write."""
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, cpus)
            data = marshal.dumps((True, [list(item()) for item in share]))
        except Exception:  # an item's, or a value marshal cannot carry
            import traceback  # loaded on a failure only, as is signal below
            data = marshal.dumps((False, traceback.format_exc()))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:  # never back into the parent's code
        os._exit(0)


def _fan_out(items: list[Callable[[], Iterable]], workers: int) -> list[list]:
    """The values of every item, a list each, in item order, on W =
    min(workers, items) processes: W - 1 forked children take the items j,
    j + W, ... (child j) and this process the items 0, W, ....  A child
    inherits the items and the loaded layers, sends only its values
    (plain ones, which marshal carries), and ends by os._exit.  Each item
    computes its values alone, so they are the same for any W.  Process j
    starts on CPU pid + j of those it may use, then may move: Linux may
    leave a new child on its parent's CPU for longer than a share runs.  A
    child that raises or dies raises RuntimeError here; every child is
    reaped before this returns or raises, and killed first if this raises.
    """
    w = max(1, min(workers, len(items)))
    if w == 1:
        return [list(item()) for item in items]
    children: list[tuple[int, BinaryIO]] = []
    cpus, first = sorted(os.sched_getaffinity(0)), os.getpid()  # launches at once start on different CPUs
    try:
        for j in range(1, w):
            read, write = os.pipe()
            if not (pid := os.fork()):
                _child(items[j::w], write, cpus[(first + j) % len(cpus)], cpus)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        os.sched_setaffinity(0, {cpus[first % len(cpus)]})
        os.sched_setaffinity(0, cpus)
        shares = [[list(item()) for item in items[::w]]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"verify worker {pid} ended without a result")
            ok, result = marshal.loads(data)
            if not ok:
                raise RuntimeError(f"verify worker {pid} failed:\n{result}")
            shares.append(result)
    except BaseException:
        from signal import SIGKILL
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return [shares[k % w][k // w] for k in range(len(items))]
