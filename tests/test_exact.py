"""Tests for the exact rational series layer."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetagenus.exact import (
    PowerSeries,
    a_hat_series,
    bernoulli,
    l_genus_series,
    standard_bernoulli,
)

F = Fraction


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def akiyama_tanigawa(n_max):
    """Independent Bernoulli oracle via the Akiyama-Tanigawa transform.

    Starts from the row 1/1, 1/2, 1/3, ... and repeatedly applies
    row'[m] = (m+1) * (row[m] - row[m+1]); the leading entries are the
    Bernoulli numbers in the B_1 = +1/2 convention.
    """
    row = [F(1, m + 1) for m in range(n_max + 1)]
    out = []
    for _ in range(n_max + 1):
        out.append(row[0])
        row = [(m + 1) * (row[m] - row[m + 1]) for m in range(len(row) - 1)]
    return out


def test_standard_bernoulli_matches_akiyama_tanigawa():
    oracle = akiyama_tanigawa(24)
    for n in range(25):
        if n == 1:
            # The two conventions differ only in the sign of B_1.
            assert standard_bernoulli(1) == -oracle[1] == F(-1, 2)
        else:
            assert standard_bernoulli(n) == oracle[n]


def test_standard_bernoulli_frozen_values():
    assert standard_bernoulli(0) == 1
    assert standard_bernoulli(2) == F(1, 6)
    assert standard_bernoulli(4) == F(-1, 30)
    assert standard_bernoulli(10) == F(5, 66)
    assert standard_bernoulli(12) == F(-691, 2730)


def test_standard_bernoulli_vanishes_at_odd_indices():
    assert all(standard_bernoulli(n) == 0 for n in range(3, 30, 2))


def test_standard_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        standard_bernoulli(-1)


def _primes_upto(n):
    flags = [True] * (n + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [p for p, f in enumerate(flags) if f]


def test_von_staudt_clausen():
    # B_{2k} plus the sum of 1/p over primes with (p-1) | 2k is an integer.
    for k in range(1, 21):
        n = 2 * k
        total = standard_bernoulli(n) + sum(
            F(1, p) for p in _primes_upto(n + 1) if n % (p - 1) == 0
        )
        assert total.denominator == 1


def test_unsigned_bernoulli_sequence():
    values = [bernoulli(k) for k in range(1, 6)]
    assert values == [F(1, 6), F(1, 30), F(1, 42), F(1, 30), F(5, 66)]
    assert all(bernoulli(k) > 0 for k in range(1, 21))


def test_unsigned_bernoulli_rejects_index_zero():
    with pytest.raises(ValueError):
        bernoulli(0)


# ---------------------------------------------------------------------------
# PowerSeries arithmetic
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=30)


def _series(order):
    return st.lists(_coeffs, min_size=order + 1, max_size=order + 1).map(PowerSeries)


@given(_series(4), _series(4))
def test_multiplication_is_commutative(a, b):
    assert a * b == b * a


@given(_series(3), _series(3), _series(3))
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_series(4))
def test_one_is_a_multiplicative_identity(a):
    assert a * PowerSeries([1, 0, 0, 0, 0]) == a


@given(_series(4))
def test_reciprocal_inverts_multiplication(a):
    if a[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a.reciprocal()
    else:
        assert a * a.reciprocal() == PowerSeries([1, 0, 0, 0, 0])


def test_coefficients_are_canonical_fractions():
    p = PowerSeries([2, "4/6", 0.5])
    assert p.coefficients == (F(2), F(2, 3), F(1, 2))


def test_order_mismatch_fails_loudly():
    a = PowerSeries([1, 2])
    b = PowerSeries([1, 2, 3])
    with pytest.raises(ValueError, match="order mismatch"):
        a * b


def test_empty_series_is_rejected():
    with pytest.raises(ValueError):
        PowerSeries([])


# ---------------------------------------------------------------------------
# Characteristic series
# ---------------------------------------------------------------------------


def test_signature_series_frozen_coefficients():
    s = l_genus_series(3)
    assert s.coefficients == (F(1), F(1, 3), F(-1, 45), F(2, 945))


def test_signature_series_closed_form():
    s = l_genus_series(10)
    for k in range(1, 11):
        expected = (-1) ** (k - 1) * F(2 ** (2 * k), factorial(2 * k)) * bernoulli(k)
        assert s[k] == expected


def test_spinor_series_frozen_coefficients():
    s = a_hat_series(3)
    assert s.coefficients == (F(1), F(-1, 24), F(7, 5760), F(-31, 967680))


def test_spinor_series_closed_form():
    # z^k coefficient of (sqrt(z)/2)/sinh(sqrt(z)/2) is
    # (2^(1-2k) - 1) B_{2k} / (2k)! in the signed convention.
    s = a_hat_series(10)
    for k in range(1, 11):
        expected = (F(2, 4**k) - 1) * standard_bernoulli(2 * k) / factorial(2 * k)
        assert s[k] == expected


def test_characteristic_series_reject_negative_order():
    with pytest.raises(ValueError):
        l_genus_series(-1)
    with pytest.raises(ValueError):
        a_hat_series(-1)


def test_characteristic_series_truncations_are_consistent():
    assert l_genus_series(8).coefficients[:5] == l_genus_series(4).coefficients
    assert a_hat_series(8).coefficients[:5] == a_hat_series(4).coefficients
