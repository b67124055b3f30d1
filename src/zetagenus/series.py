"""Numeric evaluation of zeta-type series and their chained variants.

All evaluators share the same truncation semantics: a depth N caps every
summation index, so an r-fold sum runs over the part of its index region
inside the box {1..N}^r.  Each sum has one code path: zeta is the
one-level case of the monotone nested sum behind multiple_zeta and
multiple_zeta_star, and the chained sum is its own tail from the first
index on.  Values are plain float64; each comes with an err_bound field
holding a truncation estimate:

* monotone sums (zeta, multiple_zeta, multiple_zeta_star) use an
  integral tail bound for the outer index times partial-sum bounds for
  the inner ones, which is a genuine upper bound;
* alternating sums (dirichlet_eta, the chained sums) use the magnitude
  of the first omitted outer term with a safety factor, which is a
  heuristic estimate validated by the depth-doubling tests (for eta, the
  one-level case, it is a proved bound).

A small floating-point noise allowance is folded into every bound.
Final reductions are exactly rounded, bit for bit what math.fsum over the
terms gives: error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation, part I", SIAM J. Sci. Comput. 31(1), 2008)
splits the array, in plain numpy adds, into a few float64 partial sums
whose total is exact, and math.fsum rounds those once.  Intermediate
per-level prefix sums are sequential float64 cumulative sums in fixed
ascending-index order, so single-threaded runs are bitwise reproducible.
numpy is imported inside the functions that build arrays, so it loads
when a series is first evaluated and never for the exact commands.

For even integer arguments the exact values are available as rational
multiples of powers of pi through zeta_even_exact and
dirichlet_eta_even_exact; verification code prefers those where it can.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .exact import bernoulli

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EvalConfig",
    "SeriesValue",
    "default_config",
    "zeta",
    "zeta_even_exact",
    "dirichlet_eta",
    "dirichlet_eta_even_exact",
    "multiple_zeta",
    "multiple_zeta_star",
    "alternating_chain_sum",
    "alternating_chain_tail",
    "alternating_chain_tail_family",
    "symmetrize",
    "distinct_orderings",
    "innermost_peel_residual",
    "bottom_block_residual",
]

DEFAULT_TOL = 1e-6
DEFAULT_MARGIN = 0.05
DEPTH_LOW_RANK = 1_000_000  # default depth for 1- and 2-fold sums
DEPTH_HIGH_RANK = 200_000  # default depth for deeper sums
MAX_SYMMETRIZE_ORDERINGS = 720  # 6!: six distinct exponents

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class EvalConfig:
    """Truncation depth plus the admissible exponent range.

    ``depth`` caps every summation index.  ``min_exponent_margin`` is the
    delta in the requirement s >= 1 + delta on every exponent, which
    keeps the truncation bounds finite and meaningful.
    """

    depth: int = DEPTH_HIGH_RANK
    min_exponent_margin: float = DEFAULT_MARGIN

    def __post_init__(self) -> None:
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if not self.min_exponent_margin > 0:
            raise ValueError("min_exponent_margin must be positive")


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

    def __float__(self) -> float:
        return self.value


def _setup(
    s: Sequence[float], cfg: EvalConfig | None, empty_ok: bool = False
) -> tuple[list[float], EvalConfig]:
    """The exponents as floats and the config, by default the one for
    their count; every exponent must be at least 1 + margin."""
    out = [float(x) for x in s]
    cfg = cfg or default_config(max(len(out), 1))
    if not out and not empty_ok:
        raise ValueError("need at least one exponent")
    floor = 1.0 + cfg.min_exponent_margin
    for x in out:
        if not x >= floor:
            raise ValueError(
                f"exponent {x} below 1 + margin = {floor}; the truncated sum "
                "would not be meaningful"
            )
    return out, cfg


@lru_cache(maxsize=8)
def _powers(s: float, depth: int) -> np.ndarray:
    """n^(-s) for n = 1..depth, cached read-only."""
    import numpy as np
    n = np.arange(1, depth + 1, dtype=np.float64)
    p = n ** (-s)
    p.flags.writeable = False
    return p


def _signed_powers(s: float, depth: int) -> np.ndarray:
    """(-1)^n n^(-s) for n = 1..depth (fresh writable array)."""
    p = _powers(s, depth).copy()
    p[0::2] = -p[0::2]
    return p


def _exact_parts(arr: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of arr.

    Each pass takes the power of two sigma >= n * M, where M is max|r|
    rounded up to a power of two, and splits r exactly into
    q = (sigma + r) - sigma and r - q.  Every q is a multiple of
    2^-53 sigma and at most M in magnitude, so every partial sum of the
    q is a multiple of 2^-53 sigma no larger than sigma: a float.  Their
    numpy sum is therefore exact, in whatever order it adds.  The
    remainder is at most 2^-53 sigma, so the passes end with r all zero.
    Where sigma would overflow, or arr holds inf or nan, the terms
    themselves are the parts.
    """
    import numpy as np
    parts: list[float] = []
    if not arr.size:
        return parts
    shift = (arr.size - 1).bit_length()  # ceil(log2(n))
    r = arr
    q = np.empty_like(arr)
    while True:
        m = float(np.abs(r, out=q).max())
        if m == 0.0:
            return parts
        mant, exp = math.frexp(m)  # m = mant * 2^exp, 0.5 <= mant < 1
        exp += shift - (mant == 0.5)  # sigma = 2^exp >= n * M
        if not (math.isfinite(m) and exp <= 1022):  # sigma + r must stay finite
            return arr.tolist()
        sigma = math.ldexp(1.0, exp)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        r = np.subtract(r, q, out=None if r is arr else r)  # never writes arr


def _fsum(arr: np.ndarray) -> float:
    """The exactly rounded sum of arr, bit for bit math.fsum(arr.tolist())."""
    return math.fsum(_exact_parts(arr))


def _noise(l1_scale: float, depth: int, levels: int) -> float:
    # worst-case linear accumulation model for the per-level cumulative sums
    return _EPS * depth * max(levels, 1) * abs(l1_scale)


def zeta(s: float, cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated zeta(s) = sum_{n<=N} n^(-s) with an integral tail bound:
    the one-level nested sum."""
    return _nested_monotone(*_setup([s], cfg), strict=True)


def zeta_even_exact(k: int) -> Fraction:
    """The rational q with zeta(2k) = q * pi^(2k).

    Derived from the alternating-sum evaluation: eta(2k) is the rational
    pi-multiple (2^(2k-1) - 1) B_k / (2k)! and zeta = eta / (1 - 2^(1-s)).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return dirichlet_eta_even_exact(k) / (1 - Fraction(2) ** (1 - 2 * k))


def dirichlet_eta(s: float, cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated eta(s) = sum_{n<=N} (-1)^(n-1) n^(-s): minus the one-level
    chained sum.  Its estimate 2 (N+1)^(-s) is twice the first omitted
    term, which bounds the tail of an alternating series with decreasing
    terms."""
    sl, cfg = _setup([s], cfg)
    sv = _chain_from(sl, cfg.depth, 1)
    return SeriesValue(-sv.value, sv.err_bound)


def dirichlet_eta_even_exact(k: int) -> Fraction:
    """The rational q with eta(2k) = q * pi^(2k), via Bernoulli numbers."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return Fraction(2 ** (2 * k - 1) - 1, factorial(2 * k)) * bernoulli(k)


def _nested_monotone(s: list[float], cfg: EvalConfig, strict: bool) -> SeriesValue:
    """Shared DP for the strict (>) and non-strict (>=) nested zeta sums.

    Level arrays are indexed by the value of one summation index; each
    outer level multiplies its power weights by a prefix sum of the level
    below (shifted by one position in the strict case).
    """
    import numpy as np
    depth = cfg.depth
    level = _powers(s[-1], depth)
    for j in range(len(s) - 2, -1, -1):
        prefix = np.cumsum(level)
        if strict:
            prefix = np.concatenate(([0.0], prefix[:-1]))
        level = _powers(s[j], depth) * prefix
    value = _fsum(level)
    inner_bound = 1.0
    for sj in s[1:]:
        partial = float(_powers(sj, depth).sum())
        inner_bound *= partial + depth ** (1.0 - sj) / (sj - 1.0)
    tail = depth ** (1.0 - s[0]) / (s[0] - 1.0) * inner_bound
    return SeriesValue(value, tail + _noise(value, depth, len(s)))


def multiple_zeta(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated multiple zeta value over strictly decreasing indices.

    sum over n_1 > n_2 > ... > n_r >= 1 (all <= depth) of prod n_i^(-s_i).
    """
    return _nested_monotone(*_setup(s, cfg), strict=True)


def multiple_zeta_star(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """Truncated non-strict multiple zeta value (indices may repeat).

    sum over n_1 >= n_2 >= ... >= n_r >= 1 (all <= depth) of prod n_i^(-s_i).
    """
    return _nested_monotone(*_setup(s, cfg), strict=False)


def _chain_final_level(s: list[float], depth: int) -> np.ndarray:
    """Final-level array of the parity-chained alternating sum.

    Entry n of the returned array is the signed sum over all chains
    n_1 >=' n_2 >=' ... >=' n_r = n inside {1..depth}, where a >=' b
    means a >= b with equality permitted only at even a.  Summing a
    suffix of the array bounds the innermost index from below.
    """
    import numpy as np
    level = _signed_powers(s[0], depth)
    for j in range(1, len(s)):
        suffix = np.cumsum(level[::-1])[::-1]
        # drop the equal-index term where the shared value is odd
        suffix[0::2] -= level[0::2]
        level = _signed_powers(s[j], depth) * suffix
    return level


def _chain_from(s: list[float], depth: int, base: int) -> SeriesValue:
    """The chained sum over n_r >= base, with the first-omitted-outer-term
    estimate as its error."""
    import numpy as np
    final = _chain_final_level(s, depth)[base - 1 :]
    value = _fsum(final)
    est = 2.0 * float(depth + 1) ** (-s[0])
    if len(s) > 1:
        est *= float(base) ** (-sum(s[1:]))
        for sj in s[1:]:
            est *= 1.0 + 2.0 ** (-sj)
    l1 = float(np.abs(final).sum())
    return SeriesValue(value, est + _noise(l1, depth, len(s)))


def alternating_chain_sum(s: Sequence[float], cfg: EvalConfig | None = None) -> SeriesValue:
    """The parity-chained alternating sum over n_1 >=' ... >=' n_r >= 1.

    Each term is (-1)^(n_1+...+n_r) / (n_1^(s_1) ... n_r^(s_r)); the
    chain relation a >=' b allows equality only when the shared value is
    even.  For r = 1 this is -eta(s).  The value is negative for
    admissible exponents, with magnitude shrinking as r grows.
    """
    sl, cfg = _setup(s, cfg)
    return _chain_from(sl, cfg.depth, 1)


def alternating_chain_tail(
    k: int, s: Sequence[float], cfg: EvalConfig | None = None
) -> SeriesValue:
    """Chained alternating sum with the innermost index bounded by n_r >= 2k.

    The empty exponent list is the empty product, identically 1, which
    is the base case the peeling recurrences bottom out at.  Values are
    positive: the leading surviving term has all indices at the even
    value 2k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sl, cfg = _setup(s, cfg, empty_ok=True)
    if not sl:
        return SeriesValue(1.0, 0.0)
    return _chain_from(sl, cfg.depth, 2 * k)


def alternating_chain_tail_family(
    s: Sequence[float], cfg: EvalConfig | None = None
) -> np.ndarray:
    """All tail values for k = 1..depth//2 in one pass.

    Returns an array whose entry k-1 is the chained sum with n_r >= 2k,
    at the same truncation depth as alternating_chain_tail would use.
    For the empty exponent list every entry is exactly 1.
    """
    import numpy as np
    sl, cfg = _setup(s, cfg, empty_ok=True)
    half = cfg.depth // 2
    if not sl:
        return np.ones(half, dtype=np.float64)
    final = _chain_final_level(sl, cfg.depth)
    suffix = np.cumsum(final[::-1])[::-1]
    return suffix[1 : 2 * half : 2].copy()


def distinct_orderings(s: Sequence[float]) -> int:
    """Number of distinct orderings of the exponents, r! / prod m_i!.

    Raises ValueError unless symmetrize accepts that many: at least one
    exponent and at most MAX_SYMMETRIZE_ORDERINGS distinct orderings.
    """
    sl = list(s)
    if not sl:
        raise ValueError("symmetrize needs at least one exponent")
    count = factorial(len(sl))
    for mult in Counter(sl).values():
        count //= factorial(mult)
    if count > MAX_SYMMETRIZE_ORDERINGS:
        raise ValueError(
            f"symmetrize supports at most {MAX_SYMMETRIZE_ORDERINGS} distinct "
            f"orderings of the exponents, got {count} for {len(sl)} exponents"
        )
    return count


def _multiset_permutations(counts: dict[float, int], r: int) -> Iterator[list[float]]:
    """Each distinct ordering of the multiset {x: count} of size r, once."""
    if r == 0:
        yield []
        return
    for x in counts:
        if counts[x]:
            counts[x] -= 1
            for rest in _multiset_permutations(counts, r - 1):
                yield [x, *rest]
            counts[x] += 1


def symmetrize(
    kernel: str, s: Sequence[float], cfg: EvalConfig | None = None
) -> SeriesValue:
    """Sum a kernel over all r! orderings of the exponents, repeats included.

    Kernels: "T" is the parity-chained alternating sum, "S" the
    non-strict multiple zeta, "strict" the strict multiple zeta.  Each
    distinct ordering is evaluated once; it stands for prod m_i! of the
    r! permutations, where m_i are the multiplicities of the exponents.
    The value is the exactly rounded sum of multiplicity times kernel
    value, bit for bit what math.fsum over all r! terms gives, and the
    error bound the same sum of the per-ordering bounds.  At most
    MAX_SYMMETRIZE_ORDERINGS distinct orderings are accepted (see
    distinct_orderings), so [2.0] * 8 is one evaluation while seven
    distinct exponents raise ValueError.
    """
    kernels: dict[str, Callable[[Sequence[float], EvalConfig], SeriesValue]] = {
        "T": alternating_chain_sum,
        "S": multiple_zeta_star,
        "strict": multiple_zeta,
    }
    if kernel not in kernels:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {sorted(kernels)}")
    sl = list(s)
    mult = factorial(len(sl)) // distinct_orderings(sl)  # permutations per ordering
    cfg = cfg or default_config(len(sl))
    fn = kernels[kernel]
    value = Fraction(0)
    error = Fraction(0)
    for ordering in _multiset_permutations(Counter(sl), len(sl)):
        sv = fn(ordering, cfg)
        value += Fraction(sv.value)
        error += Fraction(sv.err_bound)
    return SeriesValue(float(value * mult), float(error * mult))


def innermost_peel_residual(
    s: Sequence[float], cfg: EvalConfig | None = None
) -> tuple[float, float]:
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
    import numpy as np
    sl, cfg = _setup(s, cfg)
    lhs = alternating_chain_sum(sl, cfg).value
    depth = cfg.depth
    if len(sl) == 1:
        # the empty-prefix tail is identically 1 at every lower bound
        fam = np.ones((depth + 1) // 2, dtype=np.float64)
    else:
        fam = alternating_chain_tail_family(sl[:-1], cfg)
    # iterate the innermost value directly so odd depths stay exact
    weights = _signed_powers(sl[-1], depth)
    k_of_n = (np.arange(1, depth + 1) + 1) // 2  # 1-based tail index for each n_r
    fam_padded = np.concatenate(([0.0], fam, [0.0]))
    terms = weights * fam_padded[k_of_n]
    rhs = _fsum(terms)
    return lhs, rhs


def bottom_block_residual(
    k: int, s: Sequence[float], cfg: EvalConfig | None = None
) -> tuple[float, float]:
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
    import numpy as np
    if k < 1:
        raise ValueError("k must be at least 1")
    sl, cfg = _setup(s, cfg)
    depth = cfg.depth
    lhs = alternating_chain_tail(k, sl, cfg).value
    half = depth // 2
    # the terms are grouped by l = k..half; the powers come from Python's
    # float pow, whose rounding numpy's vectorised pow does not match on
    # every CPU, and only the products and the sum run in numpy
    even = np.arange(2 * k, 2 * half + 1, 2, dtype=np.float64).tolist()  # 2l
    odd = np.arange(2 * k + 1, depth + 1, 2, dtype=np.float64).tolist()  # 2l + 1 <= depth

    def powers(base: list[float], exp: float) -> np.ndarray:
        return np.fromiter(map(pow, base, repeat(exp)), np.float64, len(base))

    parts: list[float] = []
    for j in range(1, len(sl) + 1):
        prefix = sl[: j - 1]
        fam = alternating_chain_tail_family(prefix, cfg)  # entry t-1 = tail_t(prefix)
        # tail_{l+1}(prefix); past the family's end (l = half) it is 1 for
        # the empty prefix (identically 1 at any bound) and 0 otherwise
        rest = np.append(fam[k:], float(not prefix))[: len(even)]
        suffix_exp = sum(sl[j:])  # s_{j+1} + ... + s_r
        sj = sl[j - 1]
        common = powers(even, -suffix_exp) if suffix_exp else np.ones(len(even))
        parts += _exact_parts((common * powers(even, -sj)) * rest)
        parts += _exact_parts((-common[: len(odd)] * powers(odd, -sj)) * rest[: len(odd)])
    rhs = math.fsum(parts)
    return lhs, rhs
