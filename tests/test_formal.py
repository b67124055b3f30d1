"""Tests for the exact truncated index-sum polynomials.

The formal layer replaces each index variable with a polynomial over the
finite level set {1..N}.  All identities checked here are exact lattice
statements with no analytic content, so equality is literal term-by-term
agreement of integer coefficients.
"""

from fractions import Fraction

import pytest

from zetagenus import formal
from zetagenus.formal import (
    MAX_CHAIN_BLOCKS,
    TERM_BUDGET,
    FormalPolynomial,
    chain_sum_poly_symmetrized,
    check_chain_inversion,
    check_mobius_inversion,
    monomial_poly,
    power_sum_poly,
    substitute_exact,
    substitute_float,
)
from zetagenus.partitions import (
    SetPartition,
    enumerate_set_partitions,
)
from zetagenus.series import EvalConfig, alternating_chain_sum, symmetrize
from zetagenus.verify import run_suite

F = Fraction


def _poly(terms):
    return FormalPolynomial(dict(terms))


def _pi(*blocks):
    return SetPartition.from_blocks(blocks)


# ---------------------------------------------------------------------------
# Generators: frozen small expansions
# ---------------------------------------------------------------------------


def test_power_sum_of_a_singleton():
    got = power_sum_poly(_pi((1,)), 2)
    assert got == _poly({(((1, 1)),): 1, (((1, 2)),): 1})


def test_power_sum_factorises_over_blocks():
    pi = _pi((1, 3), (2,))
    # Each block contributes an independent diagonal factor: block {1,3}
    # sits at level n, block {2} at level m, for all 3 x 3 pairs.
    expected = _poly(
        {
            ((1, 1), (2, 1), (3, 1)): 1,
            ((1, 1), (2, 2), (3, 1)): 1,
            ((1, 1), (2, 3), (3, 1)): 1,
            ((1, 2), (2, 1), (3, 2)): 1,
            ((1, 2), (2, 2), (3, 2)): 1,
            ((1, 2), (2, 3), (3, 2)): 1,
            ((1, 3), (2, 1), (3, 3)): 1,
            ((1, 3), (2, 2), (3, 3)): 1,
            ((1, 3), (2, 3), (3, 3)): 1,
        },
    )
    assert power_sum_poly(pi, 3) == expected


def test_signed_power_sum_flips_odd_levels():
    got = power_sum_poly(_pi((1,)), 2, signed=True)
    assert got == _poly({((1, 1),): -1, ((1, 2),): 1})
    pair = power_sum_poly(_pi((1, 2)), 2, signed=True)
    assert pair == _poly({((1, 1), (2, 1)): -1, ((1, 2), (2, 2)): 1})


def test_signed_and_unsigned_power_sums_differ_by_level_parity():
    # One sign per block, carried by the block's shared level.
    for pi in enumerate_set_partitions(3):
        plain = power_sum_poly(pi, 3)
        signed = power_sum_poly(pi, 3, signed=True)
        for mono, c in plain.terms.items():
            levels = dict(mono)
            parity = sum(levels[block[0]] for block in pi.blocks) % 2
            assert signed.terms[mono] == (-c if parity else c)


def test_monomial_requires_distinct_block_levels():
    got = monomial_poly(_pi((1,), (2,)), 2)
    assert got == _poly({((1, 1), (2, 2)): 1, ((1, 2), (2, 1)): 1})
    # One block: no distinctness constraint to impose.
    assert monomial_poly(_pi((1, 2)), 3) == power_sum_poly(_pi((1, 2)), 3)
    # More blocks than levels leaves nothing.
    assert not monomial_poly(_pi((1,), (2,)), 1).terms


def test_monomial_parity_slice():
    # Restricting the two-block monomial sum to odd first-block level and
    # even second-block level picks exactly the mixed-parity terms.
    pi = _pi((1, 2), (3,))
    sliced = {
        mono: c
        for mono, c in monomial_poly(pi, 4).terms.items()
        if dict(mono)[1] % 2 == 1 and dict(mono)[3] % 2 == 0
    }
    expected = {
        ((1, n), (2, n), (3, m)): F(1) for n in (1, 3) for m in (2, 4)
    }
    assert sliced == expected


def test_chain_sum_frozen_expansion():
    # Two singleton blocks at N = 2: both block orderings contribute,
    # equality of levels allowed only at the even level.
    got = chain_sum_poly_symmetrized(_pi((1,), (2,)), 2)
    assert got == _poly(
        {
            ((1, 2), (2, 1)): -1,
            ((1, 2), (2, 2)): 2,
            ((1, 1), (2, 2)): -1,
        },
    )


def test_chain_sum_of_one_block_is_the_signed_sum():
    for pi in (_pi((1,)), _pi((1, 2)), _pi((1, 2, 3))):
        assert chain_sum_poly_symmetrized(pi, 4) == power_sum_poly(pi, 4, signed=True)


def test_chain_sum_term_signs_follow_level_parity():
    poly = chain_sum_poly_symmetrized(_pi((1,), (2,), (3,)), 3)
    for mono, c in poly.terms.items():
        parity = sum(level for _, level in mono) % 2
        assert (c < 0) == bool(parity)


# ---------------------------------------------------------------------------
# Lattice identities
# ---------------------------------------------------------------------------


def test_power_sum_splits_into_monomials():
    # p_pi = sum of m_rho over coarsenings rho >= pi.
    for n in (1, 2, 3):
        for pi in enumerate_set_partitions(n):
            assert formal.sum_over_coarsenings(pi, 3, monomial_poly) == power_sum_poly(pi, 3)


@pytest.mark.parametrize("n,cap", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_mobius_inversion_is_exact(n, cap):
    for pi in enumerate_set_partitions(n):
        report = check_mobius_inversion(pi, cap)
        assert report.ok, report
        assert report.first_diff is None


@pytest.mark.parametrize("n,cap", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_chain_inversion_is_exact_in_both_directions(n, cap):
    for pi in enumerate_set_partitions(n):
        report = check_chain_inversion(pi, cap)
        # a pass reports direction two, which runs only after direction one passed
        assert report.ok, report
        assert report.name == f"signed-from-chain[{pi!r},N={cap}]"


@pytest.mark.parametrize("failing", ["chain-from-signed", "signed-from-chain"])
def test_chain_inversion_reports_the_failing_direction(monkeypatch, failing):
    pi = _pi((1,), (2,))
    real = chain_sum_poly_symmetrized

    # Direction one builds the chained sum of pi alone, direction two that
    # of every coarsening; doubling only the coarser ones breaks direction two.
    def doubled(rho, cap):
        broken = failing == "chain-from-signed" or rho.length < pi.length
        return real(rho, cap).scale(2 if broken else 1)

    monkeypatch.setattr(formal, "chain_sum_poly_symmetrized", doubled)
    report = check_chain_inversion(pi, 3)
    assert not report.ok
    assert report.name == f"{failing}[{pi!r},N=3]"
    assert report.first_diff is not None
    assert report.lhs_coeff != report.rhs_coeff


def test_identity_report_describes_the_first_mismatch():
    lhs = _poly({((1, 1),): 1, ((1, 2),): 3})
    rhs = _poly({((1, 1),): 1, ((1, 2),): 4})
    diff = lhs.first_difference(rhs)
    assert diff == ((1, 2),)
    assert lhs.first_difference(lhs) is None


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_polynomial_ring_operations():
    a = _poly({((1, 1),): 2, ((1, 2),): -5})
    assert a.scale(-1) == _poly({((1, 1),): -2, ((1, 2),): 5})
    assert a.scale(3) == _poly({((1, 1),): 6, ((1, 2),): -15})
    assert a.scale(0) == _poly({})


def test_builders_yield_integer_coefficients():
    pi = _pi((1, 3), (2,))
    built = [
        power_sum_poly(pi, 3),
        power_sum_poly(pi, 3, signed=True),
        monomial_poly(pi, 3),
        chain_sum_poly_symmetrized(pi, 3),
        formal.sum_over_coarsenings(pi, 3, power_sum_poly, lambda rho, mu: mu),
    ]
    for poly in built:
        assert poly.terms and all(type(c) is int for c in poly.terms.values())
        scaled = poly.scale(-3)
        assert all(type(c) is int for c in scaled.terms.values())
        assert scaled.terms == {m: -3 * c for m, c in poly.terms.items()}
        assert not poly.scale(0).terms


def test_formal_suite_builds_each_polynomial_once(monkeypatch):
    # four kinds (free, signed, distinct-level, chained) for each of the
    # 1 + 2 + 5 + 15 set partitions of ground sizes 1..4, one memo per run
    plain = run_suite("formal", max_r=4, level_cap=5).render()
    calls = []
    real = formal._level_sum

    def counting(pi, assignments, level_cap, signed=False):
        calls.append(pi)
        return real(pi, assignments, level_cap, signed)

    monkeypatch.setattr(formal, "_level_sum", counting)
    assert run_suite("formal", max_r=4, level_cap=5).render() == plain
    assert len(calls) == 4 * (1 + 2 + 5 + 15)
    assert all(calls.count(pi) == 4 for pi in set(calls))
    # nothing outlives the run: a second run builds them all again
    run_suite("formal", max_r=4, level_cap=5)
    assert len(calls) == 2 * 4 * (1 + 2 + 5 + 15)
    # one call without a memo of its own still builds each polynomial once:
    # the chained and signed sums of each of the Bell(3) = 5 coarsenings
    calls.clear()
    assert check_chain_inversion(_pi((1,), (2,), (3,)), 3).ok
    assert len(calls) == 2 * 5


def test_budget_guards():
    with pytest.raises(ValueError):
        power_sum_poly(_pi((1,), (2,), (3,)), 101)
    with pytest.raises(ValueError):
        power_sum_poly(_pi((1,)), 0)
    five = SetPartition.from_blocks([(i,) for i in range(1, 6)])
    assert MAX_CHAIN_BLOCKS < 5
    with pytest.raises(ValueError):
        chain_sum_poly_symmetrized(five, 2)
    assert 101 ** 3 > TERM_BUDGET


# ---------------------------------------------------------------------------
# Substitution bridges to the numeric layer
# ---------------------------------------------------------------------------


def test_exact_substitution_recovers_harmonic_products():
    # Substituting exponent 2 into the two-singleton power sum gives the
    # square of the generalised harmonic number H_N^(2).
    N = 6
    poly = power_sum_poly(_pi((1,), (2,)), N)
    h2 = sum(F(1, n**2) for n in range(1, N + 1))
    assert substitute_exact(poly, {1: 2, 2: 2}) == h2 * h2
    mono = monomial_poly(_pi((1,), (2,)), N)
    strict = sum(
        F(1, (a * b) ** 2) for a in range(1, N + 1) for b in range(1, N + 1) if a != b
    )
    assert substitute_exact(mono, {1: 2, 2: 2}) == strict


def test_float_substitution_matches_the_numeric_evaluators():
    N = 60
    cfg = EvalConfig(N)
    pi = _pi((1,), (2,))
    chain = chain_sum_poly_symmetrized(pi, N)
    got = substitute_float(chain, {1: 2.0, 2: 2.0})
    want = symmetrize("T", (2.0, 2.0), cfg).value
    assert abs(got - want) < 1e-13
    single = chain_sum_poly_symmetrized(_pi((1,)), N)
    got1 = substitute_float(single, {1: 3.0})
    want1 = alternating_chain_sum((3.0,), cfg).value
    assert abs(got1 - want1) < 1e-15


def test_exact_and_float_substitution_agree():
    poly = chain_sum_poly_symmetrized(_pi((1,), (2,)), 8)
    exact = substitute_exact(poly, {1: 2, 2: 3})
    approx = substitute_float(poly, {1: 2.0, 2: 3.0})
    assert abs(float(exact) - approx) < 1e-14
