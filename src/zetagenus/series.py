"""Numeric evaluation of zeta-type series and their chained variants.

All evaluators share the same truncation semantics: a depth N caps every
summation index, so an r-fold sum runs over the part of its index region
inside the box {1..N}^r.  Every kernel folds one level step over its
exponents, a carry (a prefix or suffix sum, made in place in a level
read no more) times n^(-x), and one DP, _sweep, takes all the steps:
zeta is the one-level case of the monotone nested sum behind
multiple_zeta and multiple_zeta_star, the chained sum is its own tail
from the first index on, each a DP along one ordering, and
symmetrize_family sums a kernel over all orderings of each multiset of
a family by one DP over their sub-multisets (symmetrize: one multiset).
Values are plain float64; each comes with an err_bound field holding a
truncation estimate:

* monotone sums (zeta, multiple_zeta, multiple_zeta_star) use an
  integral tail bound for the outer index times partial-sum bounds for
  the inner ones, which is a genuine upper bound;
* alternating sums (dirichlet_eta, the chained sums) use the magnitude
  of the first omitted outer term with a safety factor, a heuristic
  estimate validated by the depth-doubling tests (for eta, the one-level
  case, a proved bound).

A small floating-point noise allowance is folded into every bound.
Final sums are exactly rounded, bit for bit math.fsum over the terms:
one pass of error-free extraction per sweep block (_exact_parts) leaves
a remainder summed as one float under a proved error bound, and where
the bounds do not settle the rounding (_rounded), about one sum in a
thousand, the sum is reduced again to a zero remainder (Rump, Ogita and
Oishi, "Accurate floating-point summation", parts I and II, SIAM J.
Sci. Comput. 31, 2008).  Level sums are sequential cumulative sums in
fixed index order, so runs are bitwise reproducible.  numpy loads with
this module, which no exact command imports.  MAX_DEPTH caps
the depth, which every DP sweeps in blocks of _SWEEP (16,384) terms, so
at any depth it holds a 128 kB array per live node; MAX_WORK caps the
price (from one table, PRICES) of a symmetrize DP and of a verify run.  The
powers of one ordering or multiset are cached read-only by exponent
and index range, the 32 blocks used last (4 MiB); a family caches none.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise, product
from math import factorial
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "EvalConfig", "SeriesValue", "default_config", "zeta",
    "dirichlet_eta", "multiple_zeta", "multiple_zeta_star",
    "alternating_chain_sum", "alternating_chain_tail", "alternating_chain_tail_family",
    "symmetrize", "symmetrize_family", "innermost_peel_residual",
    "bottom_block_residual", "alternating_chain_and_tail", "price", "check_work",
]

MIN_EXPONENT = 1.05  # a margin above 1 keeps the truncation bounds finite
DEPTH_LOW_RANK = 1_000_000  # default depth for 1- and 2-fold sums
DEPTH_HIGH_RANK = 200_000  # default depth for deeper sums
MAX_DEPTH = 20_000_000  # alternating_chain_tail_family returns 80 MB; `verify ahat` here: 1.5 s, 31 MB
MAX_SYMMETRIZE_SUBSETS = 128  # checked in _plan; 7 distinct exponents: 9.7 MiB traced at depth 2e5; 8 take 2x
MAX_WORK = 10_000_000_000  # the price in ns of one verify run or symmetrize DP: 10 s
# The price in ns per index of each sum shape, measured once in process on a 2-core
# host: a DP's level step, a reduction per family member, and per exponent an ordering
# (as a chained sum and its tail, or each zeta or eta), the peel and the block residual
PRICES = {"step": 3, "member": 4, "ordering": 12, "peel": 15, "block": 28}

_EPS = sys.float_info.epsilon
_SWEEP = 1 << 14  # terms per sweep block (128 kB), even, see _carry: 2^13 ran slower, 2^15 kept more memory


@dataclass(frozen=True)
class EvalConfig:
    """The truncation depth: it caps every summation index, and MAX_DEPTH caps it."""

    depth: int

    def __post_init__(self) -> None:
        if not isinstance(self.depth, (int, np.integer)):
            raise ValueError(f"depth must be an integer, got {self.depth!r}")
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth {self.depth} is past the depth cap {MAX_DEPTH}")


def default_config(parts: int) -> EvalConfig:
    """Default depth by number of nested indices: 10^6 up to 2, 2*10^5 beyond."""
    if parts < 1:
        raise ValueError("parts must be at least 1")
    return EvalConfig(depth=DEPTH_LOW_RANK if parts <= 2 else DEPTH_HIGH_RANK)


@dataclass(frozen=True)
class SeriesValue:
    """A float value bundled with its truncation-error estimate."""

    value: float
    err_bound: float

    def __post_init__(self) -> None:
        if not self.err_bound >= 0:
            raise ValueError("err_bound must be nonnegative")


def _setup(s: Sequence[float], cfg: EvalConfig | None, empty_ok: bool = False) -> tuple[list[float], EvalConfig]:
    """The exponents as floats and the config, by default the one for
    their count; every exponent must be at least MIN_EXPONENT."""
    out = [float(x) for x in s]
    cfg = cfg or default_config(max(len(out), 1))
    if not out and not empty_ok:
        raise ValueError("need at least one exponent")
    for x in out:
        if not x >= MIN_EXPONENT:
            raise ValueError(
                f"exponent {x} below the floor {MIN_EXPONENT}; the truncated sum "
                "would not be meaningful"
            )
    return out, cfg


@lru_cache(maxsize=32)  # 32 blocks of _SWEEP terms: 4 MiB
def _powers(s: float, hi: int, lo: int) -> np.ndarray:
    """n^(-s) for n = lo+1..hi, read-only; the cache keeps the blocks used last."""
    p = np.arange(lo + 1, hi + 1, dtype=np.float64) ** (-s)
    p.flags.writeable = False
    return p


def _exact_parts(arr: np.ndarray, passes: float = math.inf) -> tuple[list[float], float]:
    """Floats whose exact sum is within err of arr's, and err ([], 0.0 for zeros).

    A pass over the remainder r (at first arr itself, of k terms) takes
    the power of two sigma >= k * M, where M is max|r| rounded up to a
    power of two, and splits r exactly into q = (sigma + r) - sigma and
    r - q.  Every q is a multiple of 2^-53 sigma and at most M in
    magnitude, so every partial sum of the q is a multiple of 2^-53 sigma
    no larger than sigma: a float.  Their numpy sum is therefore exact, in
    whatever order it adds.  The remainder is at most u sigma, u = 2^-53,
    so the passes end with r all zero and err 0.0, or after `passes`
    passes with its numpy sum as the last part.  Added in any order, k
    such terms err by at most gamma_(k-1) k u sigma, gamma_m = m u/(1-m u)
    (Higham, "Accuracy and Stability of Numerical Algorithms", (4.4); a
    sum that underflows is exact).  err, 2 k^2 u^2 sigma plus the least
    subnormal, is more than twice that, so float sums of such bounds stay
    above theirs.  The passes write two buffers, one pass one, never arr.

    The first sigma bounds every partial sum of the terms, and each sigma
    bounds its pass's part.  So while all the sigmas add up to at most
    2^1022, no partial sum of the terms or of the parts leaves the float
    range, and math.fsum rounds both exactly alike.  Past that budget, or
    where arr holds inf or nan, the terms themselves are the parts.
    """
    parts: list[float] = []
    budget = math.ldexp(1.0, 1022)  # for the sum of all the sigmas
    shift = (arr.size - 1).bit_length()  # ceil(log2(k))
    r, q = arr, None
    while r.size:
        m = max(float(r.max()), -float(r.min()))  # nan if r holds a nan
        if m == 0.0:
            break
        mant, exp = math.frexp(m)  # m = mant * 2^exp, 0.5 <= mant < 1
        exp += shift - (mant == 0.5)  # sigma = 2^exp >= k * M
        if not (math.isfinite(m) and exp <= 1022):  # sigma + r must stay finite
            return arr.tolist(), 0.0
        sigma = math.ldexp(1.0, exp)
        budget -= sigma
        if budget < 0.0:  # a partial sum might leave the float range
            return arr.tolist(), 0.0
        q = np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        passes -= 1
        r = np.subtract(r, q, out=q if not passes else None if r is arr else r)  # never into arr
        if not passes:  # its float sum is the last part
            return [*parts, float(r.sum())], math.ldexp(arr.size * arr.size * sigma, -105) + 5e-324
    return parts, 0.0


def _rounded(parts: list[float], err: float) -> float | None:
    """math.fsum(parts) if all within err of their exact sum round to it (rounding is monotone: if both ends do), else None."""
    return math.fsum(parts) if not err or math.fsum([*parts, -err]) == math.fsum([*parts, err]) else None


def _noise(l1_scale: float, depth: int, levels: int) -> float:
    # worst-case linear accumulation model for the per-level cumulative sums
    return _EPS * depth * max(levels, 1) * abs(l1_scale)


def zeta(s: float, cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated zeta(s) = sum_{n<=N} n^(-s) with an integral tail bound:
    the one-level nested sum."""
    return _ordered("strict", *_setup([s], cfg))[0]


def dirichlet_eta(s: float, cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated eta(s) = sum_{n<=N} (-1)^(n-1) n^(-s): minus the one-level
    chained sum.  Its estimate 2 (N+1)^(-s) is twice the first omitted
    term, which bounds the tail of an alternating series with decreasing
    terms."""
    sv = alternating_chain_sum([s], cfg)
    return SeriesValue(-sv.value, sv.err_bound)


def _carry(kernel: str, level: np.ndarray | None, size: int, run: list | None = None) -> np.ndarray:
    """The step after `level` before its exponent enters, in place in a
    writable level or else a copy: "S" the prefix sum, "strict" that
    shifted by one, "T" (-1)^n times the suffix sum less, at odd n, the
    equal term.  run[0], the running total of the blocks swept before
    (-0.0, which adds nothing, at first), starts the sum, so each entry is
    the whole range's bit for bit, and takes this block's total."""
    if level is None:  # "T" before its first step: (-1)^n; its blocks start at odd n
        return np.tile([-1.0, 1.0], (size + 1) // 2)[:size]
    out = level if level.flags.writeable else level.copy()
    even = out[0::2].copy() if kernel == "T" else None
    seq, run = out[::-1] if kernel == "T" else out, run or [-0.0]  # "T" sums from the top
    total = run[0]
    seq[0] += total
    np.cumsum(seq, out=seq)  # one view as input and output: numpy makes no copy
    run[0] = float(seq[-1])
    if kernel == "T":  # even - x is -(x - even) bit for bit, but for the sign of a zero
        np.subtract(even, out[0::2], out=out[0::2])
    elif kernel == "strict":
        out[1:] = out[:-1]
        out[0] = total + 0.0  # 0.0 in the first block
    return out


def _tail_factor(kernel: str, x: float, depth: int, first: bool, head: float = 0.0) -> float:
    """x's factor in an ordering's truncation estimate, a product over its
    exponents: first, the outer index's integral tail bound ("T": twice the
    first omitted term); later, head, x's partial power sum, plus tail ("T": 1 + 2^(-x))."""
    if kernel == "T":
        return 2.0 * float(depth + 1) ** (-x) if first else 1.0 + 2.0 ** (-x)
    tail = depth ** (1.0 - x) / (x - 1.0)
    return tail if first else head + tail


def _sweep(kernel: str, xs: list[float], ups: dict, depth: int, cached: bool = True) -> Iterator[tuple]:
    """The DP behind every kernel.  ups[M] lists node M's level steps as
    (x, M + x), x an index into xs; the first node, the root, has no level.
    The DP sweeps blocks of _SWEEP indices, up for "S" and "strict" and
    down for "T", and visits the nodes of each block in the order of ups:
    it yields (lo, hi, powers, M, level), with M's level and the powers of
    xs (_powers, through its cache if cached) on the indices lo+1..hi,
    and then turns the level into its carry, with a running total per M
    (see _carry), so each entry is the whole-range DP's bit for bit.  The
    carry's products with the powers go into the levels of the M + x, new
    ones first, the last made in the carry itself.  A reader may change a
    level with no steps."""
    runs = {M: [-0.0] for M in ups}  # each carry's running total
    power = _powers if cached else _powers.__wrapped__
    starts = range(0, depth, _SWEEP)
    for lo in reversed(starts) if kernel == "T" else starts:
        hi = min(lo + _SWEEP, depth)
        powers = [power(x, hi, lo) for x in xs]
        arrays: dict = {}
        for M, steps in ups.items():
            level = arrays.pop(M, None)
            yield lo, hi, powers, M, level
            if not steps:
                continue
            if level is None and kernel != "T":  # the first level is the powers
                arrays.update((up, powers[x]) for x, up in steps)
                continue
            carry, scratch = _carry(kernel, level, hi - lo, runs[M]), None
            for j, (x, up) in enumerate(sorted(steps, key=lambda st: st[1] in arrays), 1 - len(steps)):  # j = 0: the last
                new = up not in arrays
                step = np.multiply(carry, powers[x], out=carry if j == 0 else None if new else scratch)
                if new:
                    arrays[up] = step
                else:
                    arrays[up] += step
                    scratch = step
            del level, carry, scratch, step  # before the next carry
        level = powers = None  # before the next block's


def _path(r: int) -> dict[int, list[tuple[int, int]]]:
    """The DP of one ordering: node i has taken the steps for xs[:i]."""
    return {i: [(i, i + 1)] if i < r else [] for i in range(r + 1)}


def _ordered(kernel: str, s: list[float], cfg: EvalConfig, base: int = 1, passes: float = 1) -> list[SeriesValue]:
    """The sum over one ordering, and for "T" its tail over n_r >= base,
    from one sweep that reduces its final level below base and from base
    apart: the "strict" (>) or "S" (>=) nested zeta sum, swept from the
    innermost exponent out, or the chained sum ("T", from the outermost
    in), whose estimate is the first omitted outer term times a bound per
    inner index.  A block's final level takes `passes` of _exact_parts."""
    depth, r = cfg.depth, len(s)
    head, tail, err, l1, heads = [], [], [0.0, 0.0], [0.0, 0.0], [0.0] * (r - 1)  # heads: the inner partial power sums, innermost first
    for lo, _, powers, i, level in _sweep(kernel, s if kernel == "T" else s[::-1], _path(r), depth):
        if not i and kernel != "T":
            heads = [h + float(p.sum()) for h, p in zip(heads, powers)]
        if i == r:
            cut = max(base - 1 - lo, 0)  # 0 for every sum with base 1: no head to reduce
            (h, e), (t, f) = _exact_parts(level[:cut], passes) if cut else ([], 0.0), _exact_parts(level[cut:], passes)
            head, tail, err = head + h, tail + t, [err[0] + e, err[1] + f]
            if kernel == "T":  # both l1 norms from one np.abs
                whole = float(np.abs(level, out=level).sum())
                l1 = [l1[0] + whole, l1[1] + (float(level[cut:].sum()) if cut else whole)]
    value, rest = _rounded(head + tail, err[0] + err[1]), _rounded(tail, err[1])
    if value is None or rest is None:  # a rounding left open: again, reducing exactly
        return _ordered(kernel, s, cfg, base, math.inf)
    first = _tail_factor(kernel, s[0], depth, True)
    inner = [_tail_factor(kernel, x, depth, False, h) for x, h in zip(s[1:], heads[::-1])]
    if kernel != "T":  # all terms positive: l1 = value
        return [SeriesValue(value, first * math.prod(inner) + _noise(value, depth, r))]
    return [SeriesValue(v, math.prod(inner, start=first * float(b) ** (-sum(s[1:]))) + _noise(n, depth, r))
            for v, n, b in zip((value, rest), l1, (1, base))]  # each inner index is at least 1, or base


def multiple_zeta(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated multiple zeta value over strictly decreasing indices.

    sum over n_1 > n_2 > ... > n_r >= 1 (all <= depth) of prod n_i^(-s_i).
    """
    return _ordered("strict", *_setup(s, cfg))[0]


def multiple_zeta_star(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated non-strict multiple zeta value (indices may repeat).

    sum over n_1 >= n_2 >= ... >= n_r >= 1 (all <= depth) of prod n_i^(-s_i).
    """
    return _ordered("S", *_setup(s, cfg))[0]


def alternating_chain_sum(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """The parity-chained alternating sum over n_1 >=' ... >=' n_r >= 1.

    Each term is (-1)^(n_1+...+n_r) / (n_1^(s_1) ... n_r^(s_r)); the
    chain relation a >=' b allows equality only when the shared value is
    even.  For r = 1 this is -eta(s).  The value is negative for
    admissible exponents, with magnitude shrinking as r grows.
    """
    return _ordered("T", *_setup(s, cfg))[0]


def alternating_chain_tail(k: int, s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Chained alternating sum with the innermost index bounded by n_r >= 2k.

    The empty exponent list is the empty product, identically 1, which
    is the base case the peeling recurrences bottom out at.  Values are
    positive: the leading surviving term has all indices at the even
    value 2k.
    """
    if k >= 1 and not len(s):
        return SeriesValue(1.0, 0.0)
    return alternating_chain_and_tail(k, s, cfg)[1]


def alternating_chain_and_tail(k: int, s: Sequence[float], cfg: EvalConfig | None = None) -> list[SeriesValue]:
    """alternating_chain_sum(s) and alternating_chain_tail(k, s), bit for
    bit, from one sweep."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _ordered("T", *_setup(s, cfg), 2 * k)


def alternating_chain_tail_family(s: Sequence[float], cfg: EvalConfig | None = None) -> np.ndarray:
    """All tail values for k = 1..depth//2 in one pass.

    Returns an array whose entry k-1 is the chained sum with n_r >= 2k,
    at the same truncation depth as alternating_chain_tail would use.
    For the empty exponent list every entry is exactly 1.
    """
    sl, cfg = _setup(s, cfg, empty_ok=True)
    out, run = np.empty(cfg.depth // 2), [-0.0]
    for lo, hi, _, i, level in _sweep("T", sl, _path(len(sl)), cfg.depth):
        if i == len(sl):  # entry k-1 is the final level's carry at n = 2k, its suffix sum
            out[lo // 2 : hi // 2] = _carry("T", level, hi - lo, run)[1::2]
    return out


def price(depth: int, family: Sequence[Sequence[float]] = (), **counts: int) -> int:
    """The price in ns of sums at this depth (PRICES): one DP over the
    sub-multisets of a family, a step per sub-multiset and distinct value in
    it and a reduction per member, and counts[shape] units of each shape."""
    if family:
        counts = {"step": sum(map(len, _plan(tuple(map(tuple, family)))[3].values())), "member": len(family), **counts}
    return depth * sum(PRICES[shape] * n for shape, n in counts.items())


def check_work(what: str, work: int) -> None:
    if work > MAX_WORK:
        raise ValueError(f"{what} is priced at {work:,} ns, past the work budget of {MAX_WORK:,} ns")


def symmetrize_family(kernel: str, family: Sequence[Sequence[float]], cfg: EvalConfig) -> Iterator[SeriesValue]:
    """symmetrize of each member of a family, by one DP over the union of
    their sub-multisets M: an iterator of the members' values.  Each
    member's check and the family's price against MAX_WORK (a step per M and
    distinct value in M, a reduction per member) run at the call; the sums when it is read.

    Kernels: "T" is the parity-chained alternating sum, "S" the non-strict
    and "strict" the strict multiple zeta.  Steps are linear in the level
    below, so over M the final levels of the distinct orderings sum to
    A[M] = sum over distinct x in M of the step for x from A[M - x]; a
    member's value is its A's exact sum times prod m_i!, m_i its multiplicities.

    Order: the exponents are ranked so that each member lists its values
    in rank order (a ValueError if no ranking does), and M is held as the
    sorted tuple of its ranks.  _sweep visits the M by size, then
    ascending, and A[M], complete by then, is reduced if M is a member
    before its carry's products go into the A[M + x].  So A[M] takes its
    terms from the M - x by descending rank of x, an order set by how the
    ranks order M's own values, as a member alone ranks them.  By
    induction over the sizes, every A[M] below a member, its carry and
    running total, and so its value and bound, are bit for bit those of
    symmetrize on it alone (not so if ranked by first appearance).  A
    member's parts, l1 norm and power sums add up block by block.

    The bound is at least the sum of the per-ordering bounds: m_i (r-1)!
    permutations start with x_i, and the l1 norm of A[all] is the sum of
    theirs, since no entry cancels across orderings.  For "T" entry n of
    each is (-1)^n times a nonnegative number: if a level is (-1)^m a_m
    with a_m >= 0 non-increasing, the suffix sum a_n - a_(n+1) + ... is
    >= 0 at even n and equals its value at n+1 at odd n, so the next
    level has the same form.  Merging a layer's steps counts as one more
    noise level, and the bound is rounded up by 4r ulps, more than the
    roundings of any one product in it or in a per-ordering bound.
    """
    return _family(kernel, family, cfg, 1)


def _family(kernel: str, family: Sequence[Sequence[float]], cfg: EvalConfig, passes: float) -> Iterator[SeriesValue]:
    if kernel not in ("T", "S", "strict"):
        raise ValueError(f"unknown kernel {kernel!r}; expected one of ['S', 'T', 'strict']")
    depth = cfg.depth
    members, rank, tops, ups = _plan(tuple(map(tuple, family)))
    check_work(f"symmetrize at depth {depth} over {len(family)} multiset(s)", price(depth, family))

    def sums() -> Iterator[SeriesValue]:
        parts, err, l1 = {M: [] for M in tops}, dict.fromkeys(tops, 0.0), dict.fromkeys(tops, 0.0)
        heads = [0.0] * len(rank)  # the partial power sums, for "S" and "strict"
        # one multiset's power blocks serve the next call; a family uses each once
        for _, _, powers, M, level in _sweep(kernel, list(rank), ups, depth, len(family) == 1):
            if not M and kernel != "T":
                heads = [h + float(p.sum()) for h, p in zip(heads, powers)]
            if M in l1:
                p, e = _exact_parts(level, passes)
                parts[M] += p
                err[M] += e
                l1[M] += float((np.abs(level, out=None if ups[M] else level) if kernel == "T" else level).sum())
        f = [_tail_factor(kernel, x, depth, False, h) for x, h in zip(rank, heads)]
        for s, top in zip(members, tops):
            value = _rounded(parts[top], err[top])
            if value is None:  # its rounding left open: summed again alone, exactly, as here bit for bit
                yield next(_family(kernel, [s], cfg, math.inf))
                continue
            counts, r = Counter(s), len(s)
            mult = math.prod(map(factorial, counts.values()))
            ratio = math.fsum(m * _tail_factor(kernel, x, depth, True) / f[rank[x]] for x, m in counts.items())
            trunc = ratio * math.prod(f[rank[x]] ** m for x, m in counts.items()) * factorial(r - 1)
            bound = (trunc + _noise(l1[top] * mult, depth, r + 1)) * (1.0 + 4 * r * _EPS)
            yield SeriesValue(value * mult, bound)

    return sums()


@lru_cache(maxsize=4)  # symmetrize_family prices a family, then sweeps it; main's price of a depth class is reused on one CPU only
def _plan(family: tuple[tuple[float, ...], ...]) -> tuple[list, dict, list, dict]:
    """symmetrize_family's DP: the members as floats, each exponent's rank, each member's top M
    and ups (see _sweep), all read-only; ValueError if a member is empty or has too many sub-multisets."""
    for s in family:
        if not len(s):
            raise ValueError("symmetrize needs at least one exponent")
        count = math.prod(m + 1 for m in Counter(s).values())
        if count > MAX_SYMMETRIZE_SUBSETS:
            raise ValueError(f"symmetrize supports at most {MAX_SYMMETRIZE_SUBSETS} sub-multisets of "
                             f"the exponents, got {count} for {len(s)} exponents")
    members = [_setup(s, None)[0] for s in family]
    before = {(a, b) for s in members for a, b in pairwise(dict.fromkeys(s))}  # a member lists a, then b
    height = dict.fromkeys((x for s in members for x in s), 0)  # of the longest such chain below x
    for _, (a, b) in product(height, before):  # as many passes as values: enough without a cycle
        height[b] = max(height[b], height[a] + 1)
    if any(height[a] >= height[b] for a, b in before):
        raise ValueError("the members of a family list their common exponents in different orders")
    rank = {x: i for i, x in enumerate(sorted(height, key=height.get))}  # ties by first appearance
    tops = [tuple(sorted(rank[x] for x in s)) for s in members]
    subs, below = set(tops), set(tops)
    while below:  # drop one exponent at a time
        below = {M[:i] + M[i + 1 :] for M in below for i in range(len(M))} - subs
        subs |= below
    order = sorted(subs, key=lambda M: (len(M), M))
    ups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {M: [] for M in order}
    for up in order:
        for x in dict.fromkeys(up):
            ups[up[: up.index(x)] + up[up.index(x) + 1 :]].append((x, up))
    return members, rank, tops, ups


def symmetrize(kernel: str, s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Sum a kernel over all r! orderings of the exponents, repeats included,
    at cfg or the default depth for r: symmetrize_family of one member."""
    return next(symmetrize_family(kernel, [s], cfg or default_config(max(len(s), 1))))


def innermost_peel_residual(s: Sequence[float], cfg: EvalConfig | None = None) -> tuple[float, float]:
    """Both sides of the recurrence that peels off the innermost exponent.

    The chained sum satisfies

        chain(s_1..s_r) = sum_{k>=1} (-(2k-1)^(-s_r) + (2k)^(-s_r))
                          * tail_k(s_1..s_{r-1})

    because grouping chains by their innermost value n_r forces the rest
    of the chain to live on indices >= 2k, whether n_r is 2k-1 or 2k.
    Both sides are evaluated at the same truncation depth, under which
    the grouping is an exact bijection of finite index sets, so the
    difference is pure floating-point noise.  Returns (lhs, rhs).
    """
    sl, cfg = _setup(s, cfg)
    r, run, lhs, rhs = len(sl) - 1, [-0.0], [], []
    for lo, hi, powers, i, level in _sweep("T", sl, _path(r), cfg.depth):
        if i == r:  # the prefix s_1..s_{r-1}: its carry at n = 2k is tail_k(prefix)
            carry = _carry("T", level, hi - lo, run)
            lhs += _exact_parts(carry * powers[r])[0]
            # the weight of n_r = 2k-1 is tail_k too; at an odd depth the last
            # n_r has k past the family, where the carry is -1 for the empty
            # prefix and -0 otherwise, as the tail is 1 or 0
            np.negative(carry[1::2], out=carry[0::2][: (hi - lo) // 2])
            rhs += _exact_parts(np.multiply(carry, powers[r], out=carry))[0]
    return math.fsum(lhs), math.fsum(rhs)


def bottom_block_residual(k: int, s: Sequence[float], cfg: EvalConfig | None = None) -> tuple[float, float]:
    """Both sides of the recurrence that strips the terminal constant block.

    A chain counted by the k-th tail ends in a maximal run at some even
    value 2l >= 2k, topped by an element equal to 2l or 2l + 1 at
    position j; everything above position j lives on indices >= 2l + 2.
    Summing over (l, j) gives

        tail_k(s_1..s_r) = sum_{l>=k} sum_{j=1..r}
            (2l)^(-(s_{j+1}+...+s_r))
            * ((2l)^(-s_j) - (2l+1)^(-s_j))
            * tail_{l+1}(s_1..s_{j-1})

    Evaluated at one shared truncation depth the decomposition is an
    exact bijection, so the residual is floating-point noise.  Returns
    (lhs, rhs).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sl, cfg = _setup(s, cfg)
    depth, r = cfg.depth, len(sl)
    lhs, rhs, runs = [], [], [[-0.0] for _ in sl]
    for lo, hi, _, i, level in _sweep("T", sl, _path(r), depth):
        if i == r:
            lhs += _exact_parts(level[max(2 * k - 1 - lo, 0) :])[0]
            continue
        # the terms of the l >= k whose tail_{l+1}(s_1..s_i), the suffix sum
        # from n = 2l + 2, falls in this block; the top block also takes
        # l = depth // 2, past the family's end, where the tail is 1 for the
        # empty prefix and 0 otherwise.  rest is rebound, so the top block
        # frees its suffix sums once appended
        if not i:
            first = max(k, lo // 2)
            even = np.arange(2 * first, 2 * (hi // 2 + (hi == depth)), 2, dtype=np.float64)  # 2l
            odd = even[even < depth] + 1.0  # 2l + 1 <= depth
        rest = _carry("T", level.copy(), hi - lo, runs[i])[1::2] if i else np.ones((hi - lo) // 2)
        rest = (np.append(rest, float(not i)) if hi == depth else rest)[first - lo // 2 :]
        own = common if i == r - 1 > 0 else even ** -sl[i]  # i = r - 2's common is (2l)^(-s_r)
        suffix_exp = sum(sl[i + 1 :])  # s_{i+2} + ... + s_r
        common = even ** -suffix_exp if suffix_exp else np.ones(len(even))
        rhs += _exact_parts((common * own) * rest)[0]
        rhs += _exact_parts((-common[: len(odd)] * odd ** -sl[i]) * rest[: len(odd)])[0]
    return math.fsum(lhs), math.fsum(rhs)
