"""Tests for the truncated numeric evaluators.

Every evaluator is checked against a literal nested-loop oracle at a small
shared depth, where the two computations must agree to float rounding, and
against known closed forms at depths where the reported error bound is
decisive.  The reported bounds themselves are tested for honesty by depth
doubling: the distance from a deeper evaluation must not exceed the bound
claimed at the shallower depth.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagenus import series, verify
from zetagenus.exact import bernoulli
from zetagenus.genus import MAX_EXACT_DEGREE
from zetagenus.partitions import integer_partitions
from zetagenus.series import (
    MAX_DEPTH,
    MAX_SYMMETRIZE_SUBSETS,
    PRICES,
    EvalConfig,
    SeriesValue,
    alternating_chain_and_tail,
    alternating_chain_sum,
    alternating_chain_tail,
    alternating_chain_tail_family,
    bottom_block_residual,
    default_config,
    dirichlet_eta,
    innermost_peel_residual,
    multiple_zeta,
    multiple_zeta_star,
    price,
    symmetrize,
    symmetrize_family,
    zeta,
)
from zetagenus.verify import run_suite

SMALL = EvalConfig(40)
CLOSE = 5e-13


def _cfg(depth):
    return EvalConfig(depth)


# ---------------------------------------------------------------------------
# Literal nested-loop oracles (depth 40, rank <= 3)
# ---------------------------------------------------------------------------


def _oracle_mzv(s, depth, strict):
    r = len(s)
    total = 0.0
    stack = [(0, depth + 1, 1.0)]
    while stack:
        level, upper, prod = stack.pop()
        if level == r:
            total += prod
            continue
        for n in range(1, upper):
            cap = n if strict else n + 1
            stack.append((level + 1, cap, prod * n ** -s[level]))
    return total


def _oracle_chain(s, depth, lowest=1):
    # Chains n_1 >=' n_2 >=' ... >=' n_r, outermost first, where a >=' b
    # means a >= b with equality allowed only at even a.  Each term carries
    # the sign (-1)^(n_1 + ... + n_r); the innermost index runs from
    # ``lowest`` so the same loop serves the tail sums.
    r = len(s)
    total = 0.0

    def rec(level, prev, prod):
        nonlocal total
        top = prev + 1 if prev % 2 == 0 else prev
        lo = lowest if level == r - 1 else 1
        for n in range(lo, top):
            term = prod * (-1) ** n * n ** -s[level]
            if level == r - 1:
                total += term
            else:
                rec(level + 1, n, term)

    for n in range(lowest if r == 1 else 1, depth + 1):
        term = (-1) ** n * n ** -s[0]
        if r == 1:
            total += term
        else:
            rec(1, n, term)
    return total


_TUPLES = [(2.0,), (3.5,), (2.0, 2.0), (3.0, 1.5), (2.0, 2.0, 2.0), (4.0, 2.5, 1.3)]


@pytest.mark.parametrize("s", _TUPLES)
def test_strict_sum_matches_nested_loops(s):
    got = multiple_zeta(s, SMALL).value
    want = _oracle_mzv(list(s), 40, strict=True)
    assert abs(got - want) < CLOSE


@pytest.mark.parametrize("s", _TUPLES)
def test_weak_sum_matches_nested_loops(s):
    got = multiple_zeta_star(s, SMALL).value
    want = _oracle_mzv(list(s), 40, strict=False)
    assert abs(got - want) < CLOSE


@pytest.mark.parametrize("s", _TUPLES)
def test_alternating_chain_matches_nested_loops(s):
    got = alternating_chain_sum(s, SMALL).value
    want = _oracle_chain(list(s), 40)
    assert abs(got - want) < CLOSE


@pytest.mark.parametrize("s", _TUPLES)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_tail_sum_matches_nested_loops(k, s):
    # The tail keeps the signs; it only bounds the innermost index below.
    got = alternating_chain_tail(k, s, SMALL).value
    want = _oracle_chain(list(s), 40, lowest=2 * k)
    assert abs(got - want) < CLOSE
    assert got > 0.0


def test_empty_tail_is_one():
    v = alternating_chain_tail(3, (), SMALL)
    assert v.value == 1.0 and v.err_bound == 0.0


def test_double_sum_spot_check():
    # (3, 2) against an independent double loop at depth 2000.
    depth = 2000
    want = sum(
        n**-3.0 * sum(m**-2.0 for m in range(1, n)) for n in range(1, depth + 1)
    )
    got = multiple_zeta((3.0, 2.0), _cfg(depth)).value
    assert abs(got - want) < 1e-8


# ---------------------------------------------------------------------------
# Error-bound honesty by depth doubling
# ---------------------------------------------------------------------------

_HONESTY_CASES = [
    (zeta, (2.0,)),
    (zeta, (1.21,)),
    (dirichlet_eta, (1.3,)),
    (multiple_zeta, ((2.0, 1.5),)),
    (multiple_zeta, ((1.3, 1.3, 1.3),)),
    (multiple_zeta_star, ((2.0, 2.0),)),
    (multiple_zeta_star, ((1.21, 2.0),)),
    (alternating_chain_sum, ((2.0, 2.0),)),
    (alternating_chain_sum, ((1.3, 1.21),)),
]


@pytest.mark.parametrize("fn,args", _HONESTY_CASES)
def test_error_bounds_survive_depth_doubling(fn, args):
    lo = EvalConfig(20_000)
    hi = EvalConfig(40_000)
    shallow = fn(*args, lo)
    deep = fn(*args, hi)
    assert abs(deep.value - shallow.value) <= shallow.err_bound
    assert deep.err_bound < shallow.err_bound


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("s", [(2.0,), (2.0, 2.0), (3.0, 2.0, 2.0)])
def test_tail_error_bounds_survive_depth_doubling(k, s):
    shallow = alternating_chain_tail(k, s, _cfg(20_000))
    deep = alternating_chain_tail(k, s, _cfg(40_000))
    assert abs(deep.value - shallow.value) <= shallow.err_bound


# ---------------------------------------------------------------------------
# Rank-one identities and known constants
# ---------------------------------------------------------------------------


def test_rank_one_sums_collapse_to_zeta():
    cfg = _cfg(5000)
    z = zeta(3.0, cfg).value
    assert multiple_zeta((3.0,), cfg).value == pytest.approx(z, abs=1e-14)
    assert multiple_zeta_star((3.0,), cfg).value == pytest.approx(z, abs=1e-14)


@pytest.mark.parametrize("depth", [2, 3, 1000, 50_000])
def test_zeta_is_the_one_level_monotone_sum_bit_for_bit(depth):
    # zeta has no summation code of its own: the one-level strict and
    # non-strict nested sums give the same value and bound, bit for bit
    # (SeriesValue equality compares both fields with float ==).
    rng = random.Random(1729 + depth)
    cfg = _cfg(depth)
    for s in [1.06, 2.0, 9.0] + [rng.uniform(1.06, 9.0) for _ in range(12)]:
        z = zeta(s, cfg)
        assert z == multiple_zeta([s], cfg)
        assert z == multiple_zeta_star([s], cfg)


def test_rank_one_chain_is_negated_eta():
    cfg = _cfg(5000)
    got = alternating_chain_sum((2.5,), cfg).value
    assert abs(got + dirichlet_eta(2.5, cfg).value) < 1e-12


@pytest.mark.parametrize("s", [1.3, 2.0, 2.5, 7.0])
def test_eta_sums_every_index_up_to_an_odd_depth(s):
    # The depth caps every index: at an odd depth the last term is
    # summed too, so eta is minus the one-level chained sum exactly.
    cfg = EvalConfig(1001)
    eta = dirichlet_eta(s, cfg)
    assert eta.value == -alternating_chain_sum([s], cfg).value
    assert eta.err_bound >= 1002.0 ** (-s)  # at least the first omitted term


def _paired_eta(s, depth):
    # the former evaluation: complete pairs (2m-1)^(-s) - (2m)^(-s), each
    # difference rounded to float64, then summed exactly rounded
    p = series._powers(s, depth, 0).tolist()
    diffs = [(p[i], p[i + 1], p[i] - p[i + 1]) for i in range(0, depth - 1, 2)]
    exact = all(Fraction(a) - Fraction(b) == Fraction(d) for a, b, d in diffs)
    return math.fsum(d for _, _, d in diffs), exact, p


@pytest.mark.parametrize("depth", [2, 4, 1000, 2000])
def test_eta_at_even_depths_is_the_exactly_rounded_sum_of_its_terms(depth):
    # At an even depth the value is the exactly rounded sum of the depth
    # signed terms.  Where every pair difference is exact in float64 the
    # former paired sum had that value too, so the two agree bit for bit;
    # elsewhere the pairing's own rounding may move it by an ulp.
    pairs_exact = []
    for s in [1.06, 1.3, 2.0, 2.5, 4.0, 9.0]:
        got = dirichlet_eta(s, EvalConfig(depth)).value
        old, exact, p = _paired_eta(s, depth)
        signed = sum(Fraction(x) * (-1) ** n for n, x in enumerate(p))
        assert got == float(signed)
        if exact:
            pairs_exact.append(s)
            assert got == old
        else:
            assert abs(got - old) <= math.ulp(old)
    assert 2.0 in pairs_exact


KNOWN = [
    (lambda cfg: zeta(2.0, cfg), math.pi**2 / 6, 1e-5),
    (lambda cfg: dirichlet_eta(2.0, cfg), math.pi**2 / 12, 1e-9),
    (lambda cfg: multiple_zeta((2.0, 2.0), cfg), math.pi**4 / 120, 1e-5),
    (lambda cfg: multiple_zeta_star((2.0, 2.0), cfg), 7 * math.pi**4 / 360, 1e-5),
    (lambda cfg: alternating_chain_sum((2.0, 2.0), cfg), -(math.pi**4) / 720, 1e-9),
    (
        lambda cfg: alternating_chain_tail(1, (2.0,), cfg),
        1 - math.pi**2 / 12,
        1e-9,
    ),
    (
        lambda cfg: alternating_chain_tail(2, (2.0,), cfg),
        1 - 1 / 4 + 1 / 9 - math.pi**2 / 12,
        1e-9,
    ),
]


@pytest.mark.parametrize("fn,target,tol", KNOWN)
def test_known_constants(fn, target, tol):
    got = fn(_cfg(400_000))
    assert abs(got.value - target) < tol
    # The reported bound must cover the actual truncation error.
    assert abs(got.value - target) <= got.err_bound


def _eta_even(k):
    """The rational q with eta(2k) = q * pi^(2k), via Bernoulli numbers:
    (2^(2k-1) - 1) B_k / (2k)!."""
    return Fraction(2 ** (2 * k - 1) - 1, math.factorial(2 * k)) * bernoulli(k)


def _zeta_even(k):
    """The rational q with zeta(2k) = q * pi^(2k), via Bernoulli numbers:
    2^(2k-1) B_k / (2k)!, independent of _eta_even."""
    return Fraction(2 ** (2 * k - 1), math.factorial(2 * k)) * bernoulli(k)


def test_exact_even_values():
    assert _zeta_even(1) == Fraction(1, 6)
    assert _zeta_even(2) == Fraction(1, 90)
    assert _zeta_even(3) == Fraction(1, 945)
    assert _eta_even(1) == Fraction(1, 12)
    assert _eta_even(2) == Fraction(7, 720)
    for k in range(1, 8):
        z = float(_zeta_even(k)) * math.pi ** (2 * k)
        e = float(_eta_even(k)) * math.pi ** (2 * k)
        assert abs(zeta(2.0 * k, _cfg(200_000)).value - z) < 1e-5
        assert abs(dirichlet_eta(2.0 * k, _cfg(200_000)).value - e) < 1e-9


def test_eta_is_an_alternating_rescaling_of_zeta():
    for k in range(1, 8):
        factor = Fraction(1) - Fraction(2, 4**k)
        assert _eta_even(k) == factor * _zeta_even(k)


# ---------------------------------------------------------------------------
# Symmetrised sums
# ---------------------------------------------------------------------------


def test_symmetrize_sums_over_distinct_orderings():
    cfg = _cfg(2000)
    got = symmetrize("strict", (3.0, 2.0), cfg)
    direct = multiple_zeta((3.0, 2.0), cfg).value + multiple_zeta((2.0, 3.0), cfg).value
    assert abs(got.value - direct) < 1e-14


def test_symmetrize_counts_repeated_exponents_per_permutation():
    # Symmetrisation runs over all r! orderings, repeats included, so equal
    # exponents multiply the single evaluation by r!.
    cfg = _cfg(2000)
    single = multiple_zeta((2.0, 2.0), cfg)
    sym = symmetrize("strict", (2.0, 2.0), cfg)
    assert sym.value == pytest.approx(2 * single.value, abs=1e-14)


def test_symmetrize_kernels_differ():
    cfg = _cfg(2000)
    t = symmetrize("T", (2.0, 2.0), cfg).value
    s = symmetrize("S", (2.0, 2.0), cfg).value
    strict = symmetrize("strict", (2.0, 2.0), cfg).value
    assert t == pytest.approx(
        2 * alternating_chain_sum((2.0, 2.0), cfg).value, abs=1e-14
    )
    assert s == pytest.approx(2 * multiple_zeta_star((2.0, 2.0), cfg).value, abs=1e-14)
    assert t < 0 < strict < s


def test_symmetrize_guards():
    with pytest.raises(ValueError):
        symmetrize("U", (2.0,), SMALL)
    with pytest.raises(ValueError):
        symmetrize("T", (), SMALL)
    # the cap is on sub-multisets, not on the number of exponents
    eight = tuple(2.0 + 0.5 * i for i in range(8))
    steps = 7 * MAX_SYMMETRIZE_SUBSETS // 2  # each of the 7 values in half the sub-multisets
    assert price(1, [eight[:7]]) == PRICES["step"] * steps + PRICES["member"]  # per index
    assert symmetrize("T", eight[:7], SMALL).value < 0
    with pytest.raises(ValueError, match="sub-multisets"):
        symmetrize("T", eight, SMALL)
    same = symmetrize("T", (2.0,) * 8, SMALL)
    assert same.value == 40320 * alternating_chain_sum((2.0,) * 8, SMALL).value


def _steps(s):
    """Level steps per index, counted by brute force: one for each
    nonempty sub-multiset M of s and distinct value in M."""
    mults = list(Counter(s).values())
    return sum(sum(m > 0 for m in sub) for sub in itertools.product(*(range(m + 1) for m in mults)))


def _plan_peak(s):
    """Widest two adjacent layers of the sub-multiset lattice of s, counted
    by brute force, plus the step in flight."""
    mults = list(Counter(s).values())
    widths = Counter(sum(sub) for sub in itertools.product(*(range(m + 1) for m in mults)))
    return max(widths[j] + widths[j + 1] for j in range(len(s))) + 1


_PLANS = [(2.5,), (2.0, 2.0, 2.0), (4.0, 3.0, 2.0, 2.0, 2.0), (8.0, 6.0, 4.0, 2.0, 2.0, 2.0),
          tuple(2.0 + 0.5 * i for i in range(7))]
# the most step arrays each plan holds at once: of a layer being taken,
# its rest and the next layer so far, and a scratch array; for seven
# distinct exponents 45, where the two middle layers have 70
_PEAKS = [1, 1, 6, 10, 45]


def _certified(monkeypatch):
    """Fail at once if the certificate leaves a sum's rounding open: such a
    sum is swept a second time, so a count of its arrays or steps would not
    be its plan's."""
    rounded = series._rounded

    def settled(parts, err):
        value = rounded(parts, err)
        assert value is not None, "the certificate left this input open: choose another"
        return value

    monkeypatch.setattr(series, "_rounded", settled)


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
@pytest.mark.parametrize("s", _PLANS, ids=str)
def test_symmetrize_holds_no_more_arrays_than_its_plan(kernel, s, monkeypatch):
    # count the writable arrays the DP makes (carries and steps) alive at
    # each carry and step, the one made included; the read-only powers
    # belong to the _powers cache instead
    _certified(monkeypatch)
    refs, peak = [], [0]
    carry, multiply = series._carry, np.multiply

    def tracked(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.flags.writeable and all(ref() is not out for ref in refs):
                refs.append(weakref.ref(out))
            peak[0] = max(peak[0], sum(ref() is not None for ref in refs))
            return out
        return call

    monkeypatch.setattr(series, "_carry", tracked(carry))
    monkeypatch.setattr(np, "multiply", tracked(multiply))
    symmetrize(kernel, s, SMALL)
    want = _PEAKS[_PLANS.index(s)] if kernel == "T" or len(s) > 1 else 0  # else only the powers
    assert peak[0] == want <= _plan_peak(s)


@pytest.mark.parametrize("s", _PLANS, ids=str)
def test_symmetrize_refuses_a_plan_past_the_working_set_budget(s, monkeypatch):
    # the price is the DP's steps and one reduction per index times the
    # depth, so the boundary is exactly W // (its price per index)
    monkeypatch.setattr(series, "MAX_WORK", 10**7)
    steps = _steps(s)
    per_index = PRICES["step"] * steps + PRICES["member"]
    fits = 10**7 // per_index
    assert fits < MAX_DEPTH // 2
    assert price(1, [s]) == per_index and price(fits, [s]) == fits * per_index
    symmetrize_family("T", [s], EvalConfig(fits))  # checked at the call, summed when read

    def no_array(*args):
        raise AssertionError("an array was built")

    with monkeypatch.context() as patch:
        patch.setattr(series, "_powers", no_array)
        patch.setattr(series, "_carry", no_array)
        message = f"is priced at {(fits + 1) * per_index:,} ns, past the work budget of 10,000,000 ns"
        with pytest.raises(ValueError, match=message):
            symmetrize("T", s, EvalConfig(fits + 1))


def test_symmetrize_size_verdict_is_the_same_in_every_order(monkeypatch):
    # the price depends on the multiplicities (2, 1, 1, 1) alone, 52 steps
    # and a reduction per index; a plan walked in the exponents' order
    # refused (2, 2, 4, 6, 8) at depth 18,000,000 and accepted (8, 6, 4, 2, 2)
    monkeypatch.setattr(series, "MAX_WORK", 10**9)

    def accepts(s, depth):
        try:
            symmetrize_family("T", [s], EvalConfig(depth))
        except ValueError:
            return False
        return True

    orders = set(itertools.permutations((2.0, 2.0, 4.0, 6.0, 8.0)))
    fits = series.MAX_WORK // (52 * PRICES["step"] + PRICES["member"])
    assert {price(fits, [s]) for s in orders} == {fits * (52 * PRICES["step"] + PRICES["member"])}
    for depth in (fits, fits + 1, 18_000_000):
        assert {accepts(s, depth) for s in orders} == {depth == fits}


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
@pytest.mark.parametrize("s", [(8.0, 4.0, 4.0), *_PLANS], ids=str)
def test_symmetrize_traced_peak_is_within_its_plan(kernel, s):
    # numpy reports its buffers to tracemalloc, so the peak is exact; the
    # cache starts empty, so the call's own powers are traced too.  At any
    # depth a call holds at most two layers and a step in flight, a power
    # block per exponent and one more block (n while a power block is
    # made, or a carry's even entries), each of _SWEEP terms, beside a
    # full cache of 32 such blocks, the reduction's two buffers and a few
    # KiB of dicts and tuples
    arrays = _plan_peak(s) + len(set(s)) + 1 + 32 + 2
    bound = arrays * 8 * series._SWEEP + 64 * 1024
    for blocks in (1, 4):
        series._powers.cache_clear()
        tracemalloc.start()
        try:
            symmetrize(kernel, s, EvalConfig(blocks * series._SWEEP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
    series._powers.cache_clear()


def test_powers_cache_is_capped_in_entries_and_bytes():
    # an LRU of 32 blocks keyed by the literal call (s, hi, lo): a hit is
    # the same read-only array, the block used least recently goes first,
    # and as the sweep asks for at most _SWEEP terms a block, a full cache
    # holds 32 blocks of _SWEEP terms, 4 MiB
    series._powers.cache_clear()
    keys = [(2.0 + i % 3, 1000 * i + 1000, 1000 * i) for i in range(33)]
    for s, hi, lo in keys[:32]:
        p = series._powers(s, hi, lo)
        assert p.tobytes() == (np.arange(lo + 1, hi + 1, dtype=np.float64) ** -s).tobytes()
        assert series._powers(s, hi, lo) is p and not p.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p[0] = 0.0
    first = series._powers(*keys[0])  # now the most recently used
    series._powers(*keys[32])  # a new block: keys[1], used least recently, goes
    info = series._powers.cache_info()
    assert info.currsize == info.maxsize == 32
    assert series._powers(*keys[0]) is first
    assert series._powers.cache_info().hits == info.hits + 1
    series._powers(*keys[1])
    assert series._powers.cache_info().misses == info.misses + 1
    series._powers.cache_clear()
    del p, first
    block = 8 * series._SWEEP
    tracemalloc.start()
    try:
        for lo in range(0, 40 * series._SWEEP, series._SWEEP):
            series._powers(2.0, lo + series._SWEEP, lo)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert series._powers.cache_info().currsize == 32
    assert 32 * block <= held <= 32 * block + 64 * 1024
    series._powers.cache_clear()


def test_powers_cache_keeps_an_exponents_blocks_together():
    # one ordering or multiset caches every block of each of its exponents
    # over the depth (here 2 exponents of 4 blocks, within the 32), so a
    # second call is all hits; a family of two or more members bypasses
    # the cache and leaves it as it was
    series._powers.cache_clear()
    cfg = EvalConfig(4 * series._SWEEP)
    first = symmetrize("T", (4.0, 2.0), cfg)
    info = series._powers.cache_info()
    assert info.currsize == 8
    for x in (4.0, 2.0):
        for lo in range(0, cfg.depth, series._SWEEP):
            series._powers(x, lo + series._SWEEP, lo)
    assert series._powers.cache_info().misses == info.misses
    assert symmetrize("T", (4.0, 2.0), cfg) == first
    info = series._powers.cache_info()
    assert (info.currsize, info.misses) == (8, 8)
    family = [(4.0, 2.0), (6.0, 2.0, 2.0)]
    list(symmetrize_family("T", family, SMALL))
    assert series._powers.cache_info() == info
    series._powers.cache_clear()
    list(symmetrize_family("T", family, SMALL))
    assert series._powers.cache_info().currsize == 0
    symmetrize("T", family[0], SMALL)  # one member caches its blocks
    assert series._powers.cache_info().currsize == 2
    series._powers.cache_clear()


def _weight_family(w):
    """Every partition of weight at most w as exponents 2j, parts
    descending, as main and ahat sum them."""
    return [[2.0 * j for j in p.parts] for k in range(1, w + 1) for p in integer_partitions(k)]


def _family_steps(family):
    """Level steps per index of one DP over a family, counted by brute
    force: one for each nonempty sub-multiset M of a member and distinct
    value in M, each M counted once."""
    subs = {tuple(sorted(c)) for s in family for r in range(1, len(s) + 1) for c in itertools.combinations(s, r)}
    return sum(len(set(m)) for m in subs)


def test_working_set_budget_admits_every_suite_default():
    # main at its default depths to the exact-layer cap and ahat at AHAT_DEPTH
    # to degree 13, one family per depth as the suites sum them
    # (symmetrize_family checks at the call and sums nothing unread), but not
    # ahat to degree 14; the sampled suites with seven distinct exponents at
    # SAMPLE_DEPTH
    for kernel, cap, depth in (("T", MAX_EXACT_DEGREE, None), ("S", 13, verify.AHAT_DEPTH)):
        classes = {}
        for s in _weight_family(cap):
            classes.setdefault(default_config(len(s)).depth if depth is None else depth, []).append(s)
        for d, family in classes.items():
            symmetrize_family(kernel, family, EvalConfig(d))
    with pytest.raises(ValueError, match="past the work budget"):
        symmetrize_family("S", _weight_family(14), EvalConfig(verify.AHAT_DEPTH))
    symmetrize_family("T", [_PLANS[-1]], EvalConfig(verify.SAMPLE_DEPTH))


def test_main_at_the_depth_cap_stops_at_degree_8():
    # one DP over every partition of weight <= k is priced by its steps
    # and a reduction per member: at the depth cap the 75 steps and 44
    # members of k = 7 fit, and the 120 and 66 of k = 8 do not, though
    # every partition of weight <= 9 fits alone
    cap = EvalConfig(MAX_DEPTH)
    families = {k: _weight_family(k) for k in (7, 8)}
    assert [(_family_steps(f), len(f)) for f in families.values()] == [(75, 44), (120, 66)]
    for family in families.values():
        per_index = PRICES["step"] * _family_steps(family) + PRICES["member"] * len(family)
        assert price(MAX_DEPTH, family) == MAX_DEPTH * per_index
    symmetrize_family("T", families[7], cap)
    with pytest.raises(ValueError, match=f"is priced at {price(MAX_DEPTH, families[8]):,} ns, past the work budget"):
        symmetrize_family("T", families[8], cap)
    for s in _weight_family(9):
        symmetrize_family("T", [s], cap)


_KERNELS = {
    "T": alternating_chain_sum,
    "S": multiple_zeta_star,
    "strict": multiple_zeta,
}


def _symmetrize_by_permutations(kernel, s, cfg):
    """Reference: math.fsum over the list of all r! permutation terms.

    The kernels are deterministic, so each distinct ordering is evaluated
    once and its result repeated in the list; the list itself has r!
    entries, as a literal loop over itertools.permutations would build.
    """
    fn = _KERNELS[kernel]
    memo = {}
    values, errors = [], []
    for perm in itertools.permutations(s):
        if perm not in memo:
            memo[perm] = fn(list(perm), cfg)
        values.append(memo[perm].value)
        errors.append(memo[perm].err_bound)
    return SeriesValue(math.fsum(values), math.fsum(errors))


def _permutation_noise(kernel, s, cfg):
    """The noise part of the reference's bound: each permutation's l1 norm
    through the noise model, summed."""
    memo = {}
    for perm in itertools.permutations(s):
        if perm not in memo:
            if kernel == "T":
                l1 = float(np.abs(_whole("T", perm, cfg.depth)).sum())
            else:
                l1 = _KERNELS[kernel](list(perm), cfg).value  # every term is positive
            memo[perm] = series._noise(l1, cfg.depth, len(perm))
    return math.fsum(memo[perm] for perm in itertools.permutations(s))


def _orderings_by_formula(s):
    n = math.factorial(len(s))
    for x in set(s):
        n //= math.factorial(s.count(x))
    return n


def _seeded_multisets(seed, count):
    """Exponent multisets with repeats, r <= 8, with at most 720 distinct
    orderings for the reference to evaluate, plus six distinct exponents."""
    rng = random.Random(seed)
    pool = (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
    out = [(2.0,) * 8, (2.0, 4.0, 6.0, 2.0, 2.0), (1.5,) * 7, pool]
    while len(out) < count:
        r = rng.randint(2, 8)
        s = tuple(rng.choice(pool[: rng.randint(1, 4)]) for _ in range(r))
        if len(set(s)) < r and _orderings_by_formula(s) <= 720:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# Whole-depth reference: every level in one array of the depth
# ---------------------------------------------------------------------------


def _fsum(arr):
    # the exactly rounded sum, bit for bit math.fsum(arr.tolist())
    return math.fsum(series._exact_parts(arr)[0])


def _step(kernel, x, level, depth):
    """The level after the step for x from `level` (None: before the
    first), in a fresh array of the whole depth, but the read-only powers
    for the monotone first level."""
    if level is None and kernel != "T":
        return series._powers(x, depth, 0)
    out = np.empty(depth)
    if level is None:
        out.fill(1.0)
    elif kernel == "T":
        np.cumsum(level[::-1], out=out[::-1])
        out[0::2] -= level[0::2]
    elif kernel == "S":
        np.cumsum(level, out=out)
    else:
        out[0] = 0.0
        np.cumsum(level[:-1], out=out[1:])
    out *= series._powers(x, depth, 0)
    if kernel == "T":
        np.negative(out[0::2], out=out[0::2])
    return out


def _whole(kernel, xs, depth):
    """The final level of the steps for xs in order (None for none); for "T"
    (from the outermost exponent in) entry n is the signed sum over all
    chains n_1 >=' ... >=' n_r = n, for "S" and "strict" (from the
    innermost out) the sum over the nested indices with n_1 = n."""
    level = None
    for x in xs:
        level = _step(kernel, x, level, depth)
    return level


def _whole_tails(final, half):
    """Entry k-1 is the chained sum with n_r >= 2k, k = 1..half; all 1 if final is None."""
    if final is None:
        return np.ones(half)
    return np.cumsum(final[::-1])[::-1][1 : 2 * half : 2]


def _whole_ordered(kernel, s, depth, base=1):
    """A single-ordering kernel as it was summed over whole-depth arrays,
    the inner indices bounded by whole-depth power sums."""
    s = [float(x) for x in s]
    final = _whole(kernel, s if kernel == "T" else s[::-1], depth)[base - 1 :]
    value, first = _fsum(final), series._tail_factor(kernel, s[0], depth, True)
    if kernel == "T":
        est = first * float(base) ** (-sum(s[1:]))
        for x in s[1:]:
            est *= series._tail_factor("T", x, depth, False)
        return SeriesValue(value, est + series._noise(float(np.abs(final).sum()), depth, len(s)))
    heads = [float(series._powers(x, depth, 0).sum()) for x in s[1:]]
    inner = math.prod(series._tail_factor(kernel, x, depth, False, h) for x, h in zip(s[1:], heads))
    return SeriesValue(value, first * inner + series._noise(value, depth, len(s)))


def _step_by_step(kernel, s, cfg):
    """symmetrize as the DP was before carries: each step from its level
    in a fresh array, added into the layer above in layer order."""
    depth = cfg.depth
    counts = Counter(float(x) for x in s)
    xs, top, r = list(counts), tuple(counts.values()), len(s)
    layer = {(0,) * len(xs): None}
    for _ in range(r):
        above = {}
        for sub, level in layer.items():
            for i, x in enumerate(xs):
                if sub[i] < top[i]:
                    up = sub[:i] + (sub[i] + 1,) + sub[i + 1 :]
                    if up in above:
                        above[up] += _step(kernel, x, level, depth)
                    else:
                        above[up] = _step(kernel, x, level, depth)
        layer = above
    final, mult = layer[top], math.prod(map(math.factorial, top))
    f = {x: series._tail_factor(kernel, x, depth, False, float(series._powers(x, depth, 0).sum())) for x in xs}
    ratio = math.fsum(m * series._tail_factor(kernel, x, depth, True) / f[x] for x, m in zip(xs, top))
    trunc = ratio * math.prod(f[x] ** m for x, m in zip(xs, top)) * math.factorial(r - 1)
    noise = series._noise(float(np.abs(final).sum()) * mult, depth, r + 1)
    return SeriesValue(_fsum(final) * mult, (trunc + noise) * (1.0 + 4 * r * series._EPS))


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
def test_symmetrize_matches_the_step_by_step_dp_bit_for_bit(kernel, monkeypatch):
    # one carry per sub-multiset, turned into its last step, changes no bit
    # in one block: swept in several, the bound adds up its power sums and
    # l1 norm block by block and may move by an ulp
    for depth in (41, 2000, 98_305):
        with monkeypatch.context() as patch:
            patch.setattr(series, "_SWEEP", 1 << 17)
            for s in [*_PLANS, *_seeded_multisets(seed=1913, count=8 if depth > 2000 else 16)]:
                got, want = symmetrize(kernel, s, EvalConfig(depth)), _step_by_step(kernel, s, EvalConfig(depth))
                assert (got.value.hex(), got.err_bound.hex()) == (want.value.hex(), want.err_bound.hex()), (depth, s)


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
def test_symmetrize_matches_the_permutation_sum_within_its_noise(kernel):
    for cfg in (_cfg(2000), _cfg(41)):
        for s in _seeded_multisets(seed=2017, count=16):
            got = symmetrize(kernel, s, cfg)
            want = _symmetrize_by_permutations(kernel, s, cfg)
            assert abs(got.value - want.value) <= _permutation_noise(kernel, s, cfg), s
            assert got.err_bound >= want.err_bound, s


# (depth, sweep block): at depth 41 the top block holds 1 or 5 indices,
# and 98,305 = 24 * 4096 + 1 leaves a top block of one index
_SWEEPS = [(41, 2), (41, 6), (2000, 64), (98_305, 4096)]


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
@pytest.mark.parametrize("depth,block", _SWEEPS)
def test_symmetrize_is_the_same_swept_in_small_blocks(kernel, depth, block, monkeypatch):
    # each carry starts from the running total of the blocks swept, so the
    # value is the one-block value bit for bit; the bound adds up its power
    # sums and l1 norm block by block, and still covers the reference's
    # (the reference's kernels sweep too, so it is taken in one block)
    plans = [*_PLANS, *_seeded_multisets(seed=1913, count=8 if depth > 2000 else 16)]
    one = [symmetrize(kernel, s, EvalConfig(depth)) for s in plans]
    few = [s for s in plans if _orderings_by_formula(list(s)) <= 24]
    few = {s: _symmetrize_by_permutations(kernel, s, EvalConfig(depth)) for s in few}
    monkeypatch.setattr(series, "_SWEEP", block)
    for s, want in zip(plans, one):
        got = symmetrize(kernel, s, EvalConfig(depth))
        assert got.value.hex() == want.value.hex(), s
        if s in few:  # the reference evaluates each ordering
            assert got.err_bound >= few[s].err_bound, s


def test_reports_do_not_depend_on_the_sweep_block(monkeypatch):
    # numpy's SIMD pow may round differently on another CPU, so the reports
    # are compared within one process, not with a stored hash
    runs = {"ahat": dict(max_k=4, depth=1_000_000), "main": dict(max_k=6)}
    swept = {name: run_suite(name, **options).lines() for name, options in runs.items()}
    monkeypatch.setattr(series, "_SWEEP", 2 * 10**6)  # one block past every depth here
    assert {name: run_suite(name, **options).lines() for name, options in runs.items()} == swept


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
def test_symmetrize_traced_peak_does_not_grow_with_the_depth(kernel, monkeypatch):
    # with nothing cached, a call holds only its block-sized arrays and
    # the reduction's buffers, at 4 blocks as at 16
    monkeypatch.setattr(series, "_powers", series._powers.__wrapped__)
    peaks = []
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            symmetrize(kernel, (4.0, 2.0, 2.0), EvalConfig(blocks * series._SWEEP))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 * series._SWEEP  # one block's array


def _scrambled(s):
    """s in one fixed order of its values, neither ascending nor descending."""
    return tuple(sorted(s, key=lambda x: ((10 * x) % 7, x)))


@pytest.mark.parametrize("kernel", ["T", "S", "strict"])
def test_symmetrize_family_is_each_member_alone_bit_for_bit(kernel, monkeypatch):
    # several sweep blocks, the last one short and odd.  A[M] takes its
    # terms in an order set by the ranks of M's values, so a family must
    # rank them as each member lists them: descending, ascending or
    # neither.  Ranked by first appearance in the family, the scrambled
    # six distinct exponents came out two ulps off.  A family's values
    # are those of a member alone, also swept in one block, and its
    # bounds, which add up block by block, those of a member alone
    cfg = EvalConfig(2 * series._SWEEP + 3)
    families = [
        _weight_family(6),
        [s[::-1] for s in _weight_family(6)],
        [_scrambled(s) for s in (_PLANS[3], _PLANS[2], (1.5, 2.0, 2.5, 3.0, 4.0, 6.0), (6.0, 4.0, 2.0), (2.5, 4.0))],
    ]
    with monkeypatch.context() as patch:
        patch.setattr(series, "_SWEEP", 1 << 16)
        alone = [[symmetrize(kernel, s, cfg).value.hex() for s in family] for family in families]
    for family, values in zip(families, alone):
        for s, value, got in zip(family, values, symmetrize_family(kernel, family, cfg), strict=True):
            want = symmetrize(kernel, s, cfg)
            assert got.value.hex() == value, s
            assert (got.value.hex(), got.err_bound.hex()) == (want.value.hex(), want.err_bound.hex()), s
    # no ranks fit members that list two values in opposite orders
    with pytest.raises(ValueError, match="different orders"):
        symmetrize_family(kernel, [(2.0, 4.0), (4.0, 2.0)], cfg)


@pytest.mark.parametrize("kernel,weight,depth", [("T", 6, 100_000), ("S", 4, 1_000_000)])
def test_family_values_do_not_depend_on_the_family_block(kernel, weight, depth, monkeypatch):
    # main's partitions and ahat's at the depths the benchmark sums them:
    # carries start from running totals and member reductions are exact,
    # so the values in _SWEEP blocks are those in blocks of 100,000
    family, cfg = _weight_family(weight), EvalConfig(depth)
    small = [sv.value.hex() for sv in symmetrize_family(kernel, family, cfg)]
    monkeypatch.setattr(series, "_SWEEP", 100_000)
    assert [sv.value.hex() for sv in symmetrize_family(kernel, family, cfg)] == small


@pytest.mark.parametrize("kernel", ["T", "S"])
def test_family_traced_peak_has_a_bound_that_does_not_grow_with_the_weight(kernel):
    # a family holds a 128 kB block per live sub-multiset and caches no
    # powers: 3.9 MiB traced at weight <= 8 and 6.1 MiB at <= 10, where
    # 800 kB blocks took 20 and 33 MiB
    for weight in (8, 10):
        tracemalloc.start()
        try:
            list(symmetrize_family(kernel, _weight_family(weight), EvalConfig(200_000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, weight


@pytest.mark.parametrize(
    "s,steps",
    # sum over the nonempty sub-multisets M of the distinct values in M
    [((2.0,) * 6, 6), ((2.0, 4.0, 6.0, 2.0, 2.0), 28), ((2.0, 2.0, 4.0, 4.0), 12), ((3.0, 2.5, 2.0), 12)],
)
def test_symmetrize_takes_one_level_step_per_sub_multiset_and_value(monkeypatch, s, steps):
    # one carry per sub-multiset below the top, and one product with the
    # powers per step; the monotone first level is the powers themselves
    _certified(monkeypatch)
    carry, multiply = series._carry, np.multiply
    for fn in _KERNELS.values():
        monkeypatch.setattr(series, fn.__name__, None)  # symmetrize runs no kernel
    subs = math.prod(m + 1 for m in Counter(s).values())
    for kernel in _KERNELS:
        carries, products = [], []
        monkeypatch.setattr(series, "_carry", lambda *a: carries.append(a) or carry(*a))
        monkeypatch.setattr(np, "multiply", lambda a, p, **kw: products.append(p) or multiply(a, p, **kw))
        symmetrize(kernel, s, SMALL)
        first = 0 if kernel == "T" else len(set(s))
        assert len(carries) == subs - 1 - (first > 0)
        assert len(products) == steps - first
        assert {x for x in s for p in products if p is series._powers(x, SMALL.depth, 0)} == set(s)
    # the guard prices the same steps and one reduction: at this depth they
    # fit a budget of exactly their price, and one index more does not
    assert price(1, [s]) == PRICES["step"] * steps + PRICES["member"]
    monkeypatch.setattr(series, "MAX_WORK", SMALL.depth * (PRICES["step"] * steps + PRICES["member"]))
    symmetrize_family("T", [s], SMALL)
    with pytest.raises(ValueError, match="work budget"):
        symmetrize_family("T", [s], EvalConfig(SMALL.depth + 1))


def _without_delta(line):
    fields = line.split(" ")
    return fields[:5] + fields[6:] if fields[0] == "CHECK" else fields


def test_reports_match_the_permutation_reference(monkeypatch):
    # each suite twice in one process: with symmetrize, then with the reference
    options = {
        "main": dict(max_k=5, depth=20_000),
        "ahat": dict(max_k=4, depth=100_000),
        "positivity": {},
        "hoffman": {},
        "multiple-eta": {},
    }
    dp = {name: run_suite(name, **opts).lines() for name, opts in options.items()}
    # verify imports them from series when a suite runs
    monkeypatch.setattr(series, "symmetrize", _symmetrize_by_permutations)
    # main and ahat sum one family per depth: the reference takes each member alone
    monkeypatch.setattr(
        series, "symmetrize_family", lambda kernel, family, cfg: (_symmetrize_by_permutations(kernel, s, cfg) for s in family)
    )
    ref = {name: run_suite(name, **opts).lines() for name, opts in options.items()}
    for name in ("main", "ahat", "positivity"):
        assert dp[name] == ref[name], name
    # matched-depth identities print their float noise in the delta column
    for name in ("hoffman", "multiple-eta"):
        assert [_without_delta(x) for x in dp[name]] == [_without_delta(x) for x in ref[name]]
        assert dp[name] != ref[name]


# ---------------------------------------------------------------------------
# Exactly rounded reduction
# ---------------------------------------------------------------------------


def _list_fsum(arr):
    # the reduction as it was: every element through a Python list
    return math.fsum(arr.tolist())


def _same_sum(values):
    arr = np.asarray(values, dtype=np.float64)
    got, want = _fsum(arr), _list_fsum(arr)
    assert got.hex() == want.hex()  # bit for bit, sign of zero included
    return got


class _NoList(np.ndarray):
    def tolist(self):
        raise AssertionError("tolist called")


def _wide_signed(rng, n, low, high):
    return [rng.choice((-1.0, 1.0)) * rng.random() * 2.0 ** rng.randint(low, high) for _ in range(n)]


BLOCK = 2 * series._SWEEP  # arrays of a few BLOCKs span several sweep blocks


def _wide_array(n, seed):
    # both signs over 120 binades, so the reduction takes several passes
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))


def test_fsum_of_empty_and_zero_arrays():
    assert _same_sum([]) == 0.0
    for zeros in ([0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0] * 5):
        _same_sum(zeros)


def test_fsum_of_subnormals():
    tiny = 5e-324
    _same_sum([tiny] * 7)
    _same_sum([tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, -1e-310])
    rng = random.Random(11)
    _same_sum([rng.uniform(-1, 1) * 1e-310 for _ in range(500)])
    _same_sum(_wide_signed(rng, 500, -1074, -1000))


def test_fsum_of_exact_cancellation():
    rng = random.Random(12)
    for n in (1, 2, 50, 2000):
        half = _wide_signed(rng, n, -60, 60)
        both = half + [-x for x in half]
        rng.shuffle(both)
        assert _same_sum(both) == 0.0
    _same_sum([1.0, 1e100, 1.0, -1e100])  # cancels all but 2.0
    _same_sum([2.0**53, 1.0, -(2.0**53)])
    _same_sum([1.0, 2.0**-53, 2.0**-106, -1.0])


@pytest.mark.parametrize("seed", range(6))
def test_fsum_of_mixed_signs_over_a_wide_range(seed):
    rng = random.Random(seed)
    for n in (1, 3, 64, 1000, 30_000):
        _same_sum(_wide_signed(rng, n, -1000, 1000))
    # ties and half-ulp remainders, where a compensated sum can go wrong
    _same_sum([rng.choice((1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-1074, 3.0)) for _ in range(999)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True), max_size=100))
def test_fsum_matches_math_fsum_bit_for_bit(values):
    _same_sum(values)


@pytest.mark.parametrize("s", [1.06, 2.0, 3.7, 14.0])
def test_fsum_of_series_terms(s):
    _same_sum(_whole("T", [s], 50_000))  # (-1)^n n^(-s)
    _same_sum(series._powers(s, 50_000, 0))


def test_fsum_builds_no_list_without_overflow():
    rng = random.Random(13)
    arr = np.array(_wide_signed(rng, 5000, -1000, 1000)).view(_NoList)
    assert _fsum(arr) == _list_fsum(arr.view(np.ndarray))
    arr = _wide_array(3 * BLOCK + 7, 14).view(_NoList)
    assert _fsum(arr).hex() == _list_fsum(arr.view(np.ndarray)).hex()
    assert _fsum(np.zeros(3).view(_NoList)) == 0.0
    assert _fsum(np.zeros(0).view(_NoList)) == 0.0


class _Listing(np.ndarray):
    calls: list[int] = []

    def tolist(self):
        self.calls.append(len(self))
        return super().tolist()


def test_fsum_falls_back_to_the_list_near_overflow():
    for values in ([1e308, -1e308, 1.0], [1.7e308, 3.0, -1.6e308, 2.0**-1000], [8.9e307] * 2):
        arr = np.array(values)
        _Listing.calls.clear()
        got = _fsum(arr.view(_Listing))
        assert _Listing.calls == [len(arr)]  # sigma would overflow: the fallback ran
        assert got.hex() == _list_fsum(arr).hex()
    # where math.fsum itself overflows, so does the fallback
    with pytest.raises(OverflowError):
        _fsum(np.array([1e308, 1e308, -1e308]))


def test_fsum_of_non_finite_values_follows_math_fsum():
    assert _fsum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(_fsum(np.array([1.0, math.nan])))
    with pytest.raises(ValueError):
        _fsum(np.array([math.inf, -math.inf]))


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_fsum_across_block_edges(n):
    _same_sum(_wide_array(n, n))
    _same_sum(_whole("T", [2.0], n))  # (-1)^n n^(-2)
    # the blocks cancel each other but for one term
    half = _wide_array(n // 2, n + 1)
    _same_sum(np.concatenate((half, [2.0**-70] * (n % 2), -half[::-1])))


def test_fsum_with_a_zero_block_between_nonzero_blocks():
    arr = _wide_array(3 * BLOCK + 7, 15)
    arr[BLOCK : 2 * BLOCK] = 0.0
    _same_sum(arr)
    arr[2 * BLOCK :] = -0.0
    _same_sum(arr)


@pytest.mark.parametrize("last", [1e308, -1.7e308, math.inf, -math.inf, math.nan])
def test_fsum_falls_back_to_the_list_once_for_the_last_block(last):
    arr = _wide_array(2 * BLOCK + 5, 16)
    arr[-1] = last
    _Listing.calls.clear()
    got = _fsum(arr.view(_Listing))
    assert _Listing.calls == [len(arr)]  # the whole array, listed once
    want = _list_fsum(arr)
    assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)


def test_fsum_falls_back_to_the_list_when_the_sigmas_add_up_past_the_range():
    # the first sigma, 2^1022, is the whole budget, and the remainder takes a second pass
    arr = np.full(3 * BLOCK + 7, 2e302)
    _Listing.calls.clear()
    assert _fsum(arr.view(_Listing)).hex() == _list_fsum(arr).hex()
    assert _Listing.calls == [len(arr)]
    # where math.fsum itself overflows, so does the fallback
    with pytest.raises(OverflowError):
        _fsum(np.full(3 * BLOCK + 7, 1e304))


def test_fsum_leaves_a_read_only_input_unchanged():
    arr = _wide_array(2 * BLOCK + 3, 17)
    arr.flags.writeable = False
    for a in (arr, series._powers(2.0, 3 * BLOCK + 7, 0)):  # the cached powers are read-only too
        before = a.tobytes()
        _same_sum(a)
        assert a.tobytes() == before


def _one_pass_sum(arr, block=series._SWEEP):
    """arr reduced as the kernels reduce a final level: one pass of
    _exact_parts per block, and, where _rounded leaves the rounding open,
    the exact reduction.  Also whether the certificate settled it."""
    parts, err = [], 0.0
    for lo in range(0, len(arr), block):
        p, e = series._exact_parts(arr[lo : lo + block], 1)
        parts, err = parts + p, err + e
    value = series._rounded(parts, err)
    return (_fsum(arr), False) if value is None else (value, True)


def _same_one_pass_sum(values, block=series._SWEEP):
    arr = np.asarray(values, dtype=np.float64)
    (got, certified), want = _one_pass_sum(arr, block), _list_fsum(arr)
    assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)
    return got, certified


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True), max_size=100),
    st.sampled_from([1, 2, 3, 7, series._SWEEP]),
)
def test_one_pass_sum_matches_math_fsum_bit_for_bit(values, block):
    _same_one_pass_sum(values, block)


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_sum_is_exactly_rounded_on_seeded_arrays(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 100, series._SWEEP, series._SWEEP + 1):
        _same_one_pass_sum(_wide_array(n, seed + n))
        _same_one_pass_sum(rng.standard_normal(n))
        _same_one_pass_sum(rng.random(n) * 2.0 ** rng.integers(-1074, -1000))  # subnormal remainders


def test_one_pass_sum_of_half_ulp_ties():
    # the remainder sits exactly on, or just past, a rounding boundary: the
    # certificate cannot settle these, and the exact reduction must
    for values in ([1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-120], [1.0, 2.0**-53, -(2.0**-120)],
                   [1.0 + 2.0**-52, 2.0**-53], [-1.0, -(2.0**-53), 2.0**-107], [3.0, 2.0**-52]):
        assert not _same_one_pass_sum(values)[1], values
        rng = random.Random(len(values))
        for _ in range(20):  # the same ties among many cancelling terms
            pad = _wide_signed(rng, 40, -60, 60)
            both = values + pad + [-x for x in pad]
            rng.shuffle(both)
            _same_one_pass_sum(both)


def test_one_pass_sum_under_heavy_cancellation():
    rng = random.Random(21)
    for n in (2, 50, 2000, series._SWEEP + 1):
        half = _wide_signed(rng, n // 2, -60, 60)
        assert _same_one_pass_sum(half + [-x for x in half])[0] == 0.0
        both = half + [-x for x in half] + [2.0**-70, 3 * 2.0**-1074]
        rng.shuffle(both)
        _same_one_pass_sum(both)
    _same_one_pass_sum([1.0, 1e100, 1.0, -1e100])
    _same_one_pass_sum([2.0**53, 1.0, -(2.0**53)])


def test_one_pass_sum_of_zero_blocks_is_plus_zero():
    for zeros in ([], [0.0], [-0.0], [-0.0] * 3, [0.0, -0.0] * 5, [-0.0] * (series._SWEEP + 1)):
        got, certified = _same_one_pass_sum(zeros)
        assert got.hex() == "0x0.0p+0" and certified  # no pass ran: nothing to certify
        assert series._exact_parts(np.array(zeros), 1) == ([], 0.0)


@pytest.mark.parametrize("last", [1e308, -1.7e308, math.inf, -math.inf, math.nan])
def test_one_pass_sum_of_non_finite_or_huge_terms_follows_math_fsum(last):
    arr = _wide_array(2 * series._SWEEP + 5, 18)
    arr[-1] = last
    _Listing.calls.clear()
    parts, err = series._exact_parts(arr[-5:].view(_Listing), 1)
    assert _Listing.calls == [5] and err == 0.0  # the terms themselves are the parts
    _same_one_pass_sum(arr)
    with pytest.raises(ValueError):
        _one_pass_sum(np.array([math.inf, 1.0, -math.inf]))


@pytest.mark.parametrize("s", [1.06, 2.0, 3.7, 14.0])
def test_one_pass_sum_certifies_series_terms(s):
    # the level arrays the kernels reduce: one pass settles their rounding
    for arr in (_whole("T", [s], 50_000), series._powers(s, 50_000, 0), _whole("strict", [2.5, s], 50_000)):
        assert _same_one_pass_sum(arr)[1]


def test_one_pass_error_bound_covers_the_remainder_sum():
    # err bounds the remainder's float sum against its exact sum, with a factor 2 to spare
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 1000, series._SWEEP):
        for _ in range(20 if n < 1000 else 3):
            arr = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))
            parts, err = series._exact_parts(arr, 1)
            exact = Fraction(0)
            for x in arr.tolist():
                exact += Fraction(x)
            assert abs(sum(map(Fraction, parts)) - exact) <= Fraction(err) / 2


SUITE_OPTIONS = {
    "main": {"max_k": 3},
    "ahat": {"max_k": 3},
    "hoffman": {"max_r": 3, "samples": 4, "seed": 3},
    "multiple-eta": {"max_r": 3, "samples": 4, "seed": 4},
    "positivity": {"samples": 6, "recurrence_samples": 6, "seed": 5},
}


@pytest.mark.parametrize("depth", [1001, 1200, 3 * BLOCK + 1])
@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_reports_do_not_depend_on_the_reduction(monkeypatch, suite, depth):
    report = run_suite(suite, depth=depth, **SUITE_OPTIONS[suite]).lines()
    # the certificate fails every time: every one-pass sum is reduced again, exactly
    rounded, left_open = series._rounded, []

    def uncertified(parts, err):
        if err:
            left_open.append(parts)
            return None
        return rounded(parts, err)  # exact parts: nothing to certify

    monkeypatch.setattr(series, "_rounded", uncertified)
    assert run_suite(suite, depth=depth, **SUITE_OPTIONS[suite]).lines() == report
    assert left_open
    # each term its own part: the reduction is math.fsum over the list
    monkeypatch.setattr(series, "_exact_parts", lambda arr, passes=None: (arr.tolist(), 0.0))
    assert run_suite(suite, depth=depth, **SUITE_OPTIONS[suite]).lines() == report


@pytest.mark.parametrize("suite,options", [("hoffman", {}), ("multiple-eta", {}), ("positivity", {}), ("main", {"max_k": 8})])
def test_one_pass_certifies_nearly_every_sum_of_the_seeded_suites(monkeypatch, suite, options):
    # a bound loosened until it settles nothing would keep every report and
    # only run slower: each sum it leaves open is reduced a second time
    rounded, counts = series._rounded, Counter()

    def counted(parts, err):
        value = rounded(parts, err)
        if err:
            counts[value is None] += 1
        return value

    monkeypatch.setattr(series, "_rounded", counted)
    run_suite(suite, **options)
    assert counts[False] >= 60 and counts[True] <= 0.01 * (counts[False] + counts[True]), counts


# ---------------------------------------------------------------------------
# Recurrence residuals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [101, 200, 333])
@pytest.mark.parametrize("s", [(2.0,), (2.0, 2.0), (3.0, 2.0, 2.0)])
def test_innermost_peel_residual_is_float_noise(depth, s):
    lhs, rhs = innermost_peel_residual(s, _cfg(depth))
    assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("depth", [101, 200, 333])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("s", [(2.0, 2.0), (4.0, 3.0, 2.0)])
def test_bottom_block_residual_is_float_noise(depth, k, s):
    lhs, rhs = bottom_block_residual(k, s, _cfg(depth))
    assert abs(lhs - rhs) < 1e-10


def _peel_rhs_by_list(s, cfg):
    # the former right-hand side: a depth-long zero pad, summed via a list
    depth = cfg.depth
    if len(s) == 1:
        fam = np.ones((depth + 1) // 2)
    else:
        fam = _whole_tails(_whole("T", s[:-1], depth), depth // 2)
    weights = series._powers(s[-1], depth, 0) * np.where(np.arange(depth) % 2, 1.0, -1.0)
    k_of_n = (np.arange(1, depth + 1) + 1) // 2
    fam_padded = np.concatenate(([0.0], fam, np.zeros(depth)))
    return math.fsum((weights * fam_padded[k_of_n]).tolist())


def _block_rhs_by_loop(k, s, cfg):
    # the former right-hand side: one Python float per term, then fsum; the
    # powers from numpy's vectorised pow over the bases 2l and 2l + 1, l >= k
    depth = cfg.depth
    half = depth // 2
    even = np.arange(2 * k, 2 * half + 1, 2, dtype=np.float64)
    terms = []
    for j in range(1, len(s) + 1):
        prefix = s[: j - 1]
        fam = _whole_tails(_whole("T", prefix, depth), half)
        suffix_exp = sum(s[j:])
        sj = s[j - 1]
        commons = even ** -suffix_exp if suffix_exp else np.ones(len(even))
        owns, odds = even ** -sj, (even + 1.0) ** -sj
        for ell in range(k, half + 1):
            rest = float(fam[ell]) if ell < len(fam) else float(not prefix)
            if rest == 0.0:
                continue
            common = float(commons[ell - k])
            terms.append(common * float(owns[ell - k]) * rest)
            if 2 * ell + 1 <= depth:
                terms.append(-common * float(odds[ell - k]) * rest)
    return math.fsum(terms)


def _seeded_recurrence_cases(seed):
    rng = random.Random(seed)
    for depth in (2, 3, 40, 41, 999, 1000):
        for r in (1, 2, 3):
            s = [rng.uniform(1.06, 9.0) for _ in range(r)]
            for k in (1, rng.randint(1, max(depth // 2, 1)), depth // 2, depth // 2 + 1):
                yield depth, k, s


@pytest.mark.parametrize("seed", [1, 2])
def test_peel_rhs_is_bit_identical_to_the_list_sum(seed):
    for depth, _, s in _seeded_recurrence_cases(seed):
        cfg = _cfg(depth)
        assert innermost_peel_residual(s, cfg)[1] == _peel_rhs_by_list(s, cfg)


@pytest.mark.parametrize("seed", [1, 2])
def test_block_rhs_is_bit_identical_to_the_term_loop(seed):
    for depth, k, s in _seeded_recurrence_cases(seed):
        cfg = _cfg(depth)
        assert bottom_block_residual(k, s, cfg)[1] == _block_rhs_by_loop(k, s, cfg)


def _edge_ks(depth, block):
    # the first and the last tails, one past them, and a k whose 2k sits at
    # each side of the first block edge
    return sorted({1, 2, depth // 2, depth // 2 + 1} | ({block // 2, block // 2 + 1} if block else set()))


@pytest.mark.parametrize("depth,block", [(2, None), (3, None), (41, None), (2000, None), *_SWEEPS])
def test_every_single_ordering_kernel_is_the_whole_depth_reference_bit_for_bit(depth, block, monkeypatch):
    # one DP sweeps every kernel in blocks; each carry starts from the
    # running total of the blocks swept, so each value is the whole-depth
    # one.  The bound adds up its power sums and l1 norm block by block,
    # which moves it by a few ulps past one block
    if block:
        monkeypatch.setattr(series, "_SWEEP", block)
    cfg = EvalConfig(depth)
    for s in [(2.0,), (3.5, 1.06), (2.5, 2.0, 1.5), (4.0, 2.5, 1.3, 2.2)]:
        cases = [(fn(s, cfg), _whole_ordered(kernel, s, depth)) for kernel, fn in _KERNELS.items()]
        tails = {k: _whole_ordered("T", s, depth, 2 * k) for k in _edge_ks(depth, block)}
        cases += [(alternating_chain_tail(k, s, cfg), tail) for k, tail in tails.items()]
        chain = _whole_ordered("T", s, depth)  # and both from one sweep
        cases += [pair for k, tail in tails.items() for pair in zip(alternating_chain_and_tail(k, s, cfg), (chain, tail))]
        for got, want in cases:
            assert got.value.hex() == want.value.hex(), s
            if block:
                assert math.isclose(got.err_bound, want.err_bound, rel_tol=1e-15), s
            else:
                assert got.err_bound == want.err_bound, s
        want_tails = _whole_tails(_whole("T", s, depth), depth // 2)
        assert alternating_chain_tail_family(s, cfg).tobytes() == want_tails.tobytes()
        lhs, rhs = innermost_peel_residual(s, cfg)  # the empty prefix at r = 1
        assert (lhs.hex(), rhs.hex()) == (_whole_ordered("T", s, depth).value.hex(), _peel_rhs_by_list(s, cfg).hex())
        for k, tail in tails.items():
            lhs, rhs = bottom_block_residual(k, s, cfg)
            assert (lhs.hex(), rhs.hex()) == (tail.value.hex(), _block_rhs_by_loop(k, s, cfg).hex())
    assert alternating_chain_tail_family((), cfg).tobytes() == np.ones(depth // 2).tobytes()


@pytest.mark.parametrize(
    "call",
    [lambda cfg: multiple_zeta((4.0, 2.0, 2.0), cfg), lambda cfg: alternating_chain_sum((4.0, 2.0, 2.0), cfg),
     lambda cfg: bottom_block_residual(2, (3.0, 2.0), cfg)],
    ids=["multiple_zeta", "alternating_chain_sum", "bottom_block_residual"],
)
def test_single_ordering_traced_peak_does_not_grow_with_the_depth(call, monkeypatch):
    # with nothing cached, a call holds only its block-sized arrays and
    # lists, at 2 blocks as at 6
    monkeypatch.setattr(series, "_powers", series._powers.__wrapped__)
    peaks = []
    for blocks in (2, 6):
        tracemalloc.start()
        try:
            call(EvalConfig(blocks * series._SWEEP))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 * series._SWEEP  # one block's array


def test_bottom_block_makes_one_numpy_pow_pass_fewer(monkeypatch):
    # per j: the common suffix powers (none at j = r) and the own even and
    # odd powers, each one pass of numpy's pow over the bases 2l or 2l + 1,
    # but j = r - 1's common is j = r's own even powers
    passes = []
    arange = np.arange

    class Bases(np.ndarray):
        def __pow__(self, exp):
            passes.append(len(self))
            return np.asarray(self) ** exp

    for s, made in (((2.5,), 2), ((2.5, 3.5), 4), ((2.5, 3.5, 1.5), 7), ((2.5, 2.5, 2.5), 7)):
        bottom_block_residual(1, s, _cfg(41))  # the cached power blocks make no arange
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "arange", lambda *a, **kw: arange(*a, **kw).view(Bases))
            lhs, rhs = bottom_block_residual(1, s, _cfg(41))
        assert len(passes) == made and abs(lhs - rhs) < 1e-12


def test_bottom_block_guard():
    with pytest.raises(ValueError):
        bottom_block_residual(0, (2.0, 2.0), SMALL)
    with pytest.raises(ValueError):
        alternating_chain_tail(0, (2.0,), SMALL)


def test_tail_family_matches_per_index_tails():
    cfg = _cfg(3000)
    for s in [(2.0,), (2.0, 2.0), (3.0, 2.0, 1.5)]:
        family = alternating_chain_tail_family(s, cfg)
        assert len(family) == cfg.depth // 2
        for k in range(1, 7):
            single = alternating_chain_tail(k, s, cfg).value
            assert abs(family[k - 1] - single) < 1e-12


def test_tail_family_of_the_empty_tuple_is_all_ones():
    family = alternating_chain_tail_family((), _cfg(100))
    assert family.shape == (50,)
    assert (family == 1.0).all()


# ---------------------------------------------------------------------------
# Configuration and validation
# ---------------------------------------------------------------------------


def test_default_config_depths_by_rank():
    assert default_config(1).depth == default_config(2).depth
    assert default_config(3).depth == default_config(4).depth
    assert default_config(1).depth > default_config(3).depth
    assert [f.name for f in dataclasses.fields(EvalConfig)] == ["depth"]
    with pytest.raises(ValueError):
        default_config(0)


def test_config_validation():
    with pytest.raises(TypeError):
        EvalConfig()  # no default depth; default_config(parts) is the default
    with pytest.raises(ValueError):
        EvalConfig(1)
    assert EvalConfig(MAX_DEPTH).depth == MAX_DEPTH
    with pytest.raises(ValueError, match="past the depth cap"):
        EvalConfig(MAX_DEPTH + 1)


def test_series_value_basics():
    with pytest.raises(ValueError):
        SeriesValue(1.0, -0.1)


# each public numeric entry point, called with one exponent x
_ENTRY_POINTS = {
    "zeta": zeta,
    "dirichlet_eta": dirichlet_eta,
    "multiple_zeta": lambda x, cfg: multiple_zeta((2.0, x), cfg),
    "multiple_zeta_star": lambda x, cfg: multiple_zeta_star((2.0, x), cfg),
    "alternating_chain_sum": lambda x, cfg: alternating_chain_sum((2.0, x), cfg),
    "alternating_chain_tail": lambda x, cfg: alternating_chain_tail(2, (2.0, x), cfg),
    "alternating_chain_tail_family": lambda x, cfg: alternating_chain_tail_family((x,), cfg),
    "symmetrize-T": lambda x, cfg: symmetrize("T", (2.0, x), cfg),
    "symmetrize-S": lambda x, cfg: symmetrize("S", (2.0, x), cfg),
    "symmetrize-strict": lambda x, cfg: symmetrize("strict", (2.0, x), cfg),
    "innermost_peel_residual": lambda x, cfg: innermost_peel_residual((2.0, x), cfg),
    "bottom_block_residual": lambda x, cfg: bottom_block_residual(2, (2.0, x), cfg),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_exponent_floor_is_enforced(name):
    # every exponent must be at least 1.05
    call = _ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="below the floor 1.05"):
        call(1.04, _cfg(1000))
    call(1.06, _cfg(1000))


def test_monotone_sums_need_an_exponent():
    with pytest.raises(ValueError):
        multiple_zeta((), _cfg(1000))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_exponents = st.floats(min_value=1.5, max_value=6.0, allow_nan=False)


@given(st.lists(_exponents, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_monotone_sums_are_ordered(s):
    cfg = _cfg(500)
    strict = multiple_zeta(s, cfg).value
    weak = multiple_zeta_star(s, cfg).value
    assert 0.0 < strict <= weak
    assert all(v.err_bound >= 0 for v in (multiple_zeta(s, cfg),))


@given(st.lists(_exponents, min_size=1, max_size=3), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_tails_shrink_as_the_cutoff_grows(s, k):
    cfg = _cfg(500)
    a = alternating_chain_tail(k, s, cfg).value
    b = alternating_chain_tail(k + 1, s, cfg).value
    assert a >= b >= 0.0


@given(st.lists(_exponents, min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_chain_sums_are_bounded_by_the_weak_sum(s):
    cfg = _cfg(500)
    chain = alternating_chain_sum(s, cfg).value
    weak = multiple_zeta_star(s, cfg).value
    assert abs(chain) <= weak + 1e-12
