"""Tests for genus coefficient tables and the symmetric-function bridge."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetagenus import genus as genus_module
from zetagenus import partitions as partitions_module
from zetagenus.exact import bernoulli
from zetagenus.genus import (
    MAX_EXACT_DEGREE,
    MAX_ORACLE_DEGREE,
    CoefficientTable,
    GenusSpec,
    coefficient_closed_form,
    coefficient_table,
    coefficient_table_oracle,
    leading_coefficients,
    monomial_to_power_sum,
)
from zetagenus.partitions import (
    IntegerPartition,
    enumerate_set_partitions,
    integer_partitions,
)

F = Fraction

SIGNATURE_TABLE = {
    1: {(1,): F(1, 3)},
    2: {(2,): F(7, 45), (1, 1): F(-1, 45)},
    3: {(3,): F(62, 945), (2, 1): F(-13, 945), (1, 1, 1): F(2, 945)},
}

SPINOR_TABLE = {
    1: {(1,): F(-1, 24)},
    2: {(2,): F(-1, 1440), (1, 1): F(7, 5760)},
    3: {
        (3,): F(-16, 967680),
        (2, 1): F(44, 967680),
        (1, 1, 1): F(-31, 967680),
    },
}


@pytest.fixture(scope="module")
def signature_genus():
    return GenusSpec.l_genus(8)


@pytest.fixture(scope="module")
def spinor_genus():
    return GenusSpec.a_hat(8)


# Zero coefficients make whole degrees vanish (every odd degree below 5);
# their tables must still hold every partition, with Fraction(0) entries.
SPARSE_COEFFICIENTS = (1, 0, 1, 0, 0, F(1, 3), 0, F(-2, 7), 0, 0, 5, 0, F(3, 11))


def _three_genera(order):
    return (
        GenusSpec.l_genus(order),
        GenusSpec.a_hat(order),
        GenusSpec.from_coefficients("sparse", SPARSE_COEFFICIENTS[: order + 1]),
    )


def _raise(*args, **kwargs):
    raise AssertionError("this route must not be taken")


# ---------------------------------------------------------------------------
# Frozen low-degree tables
# ---------------------------------------------------------------------------


def test_signature_tables_match_frozen_values(signature_genus):
    for k, expected in SIGNATURE_TABLE.items():
        table = coefficient_table(signature_genus, k)
        assert {J.parts: c for J, c in table.items()} == expected


def test_spinor_tables_match_frozen_values(spinor_genus):
    for k, expected in SPINOR_TABLE.items():
        table = coefficient_table(spinor_genus, k)
        assert {J.parts: c for J, c in table.items()} == expected


def test_table_lookup_accepts_flexible_keys(signature_genus):
    table = coefficient_table(signature_genus, 3)
    assert table[(2, 1)] == table[[1, 2]] == table[IntegerPartition([2, 1])]
    assert table.degree == 3


def test_closed_form_matches_table_entries():
    # The recurrence behind the tables against the paper's formula.
    for genus in _three_genera(10):
        for k in range(1, 11):
            table = coefficient_table(genus, k)
            assert [J for J, _ in table.items()] == integer_partitions(k)
            for J, c in table.items():
                assert type(c) is Fraction
                assert coefficient_closed_form(genus, J) == c
    sparse = _three_genera(10)[2]
    for k in (1, 3):
        assert all(c == 0 for _, c in coefficient_table(sparse, k).items())


def test_closed_form_equals_the_literal_set_partition_sum():
    # The paper's sum over the set partitions of J's positions is
    # sum_K [p_K] m_J * prod_i lambda_{K_i}, with [p_K] m_J enumerated.
    expansions = {
        J: monomial_to_power_sum(J)
        for k in range(1, 13)
        for J in integer_partitions(k)
        if len(J) <= 8
    }
    for genus in _three_genera(12):
        lam = leading_coefficients(genus, 12)
        for J, expansion in expansions.items():
            literal = sum(
                c * math.prod(lam[s - 1] for s in K.parts) for K, c in expansion.items()
            )
            assert coefficient_closed_form(genus, J) == literal


def test_closed_form_needs_no_set_partition_enumeration(monkeypatch):
    for module in (genus_module, partitions_module):
        monkeypatch.setattr(module, "signed_block_sums", _raise)
    for genus in (GenusSpec.l_genus(20), GenusSpec.a_hat(20)):
        for J, c in coefficient_table(genus, 14).items():
            assert coefficient_closed_form(genus, J) == c
        table = coefficient_table(genus, 20)
        for parts in ((1,) * 20, (2,) * 10, (3, 3, 2, 2) + (1,) * 10):
            assert coefficient_closed_form(genus, parts) == table[parts]


def test_tables_need_no_set_partition_enumeration(monkeypatch):
    genus_module._level.cache_clear()
    monkeypatch.setattr(genus_module, "signed_block_sums", _raise)
    for genus in (GenusSpec.l_genus(12), GenusSpec.a_hat(12)):
        for k in range(1, 13):
            table = coefficient_table(genus, k)
            assert table[(1,) * k] == genus.series[k]
            assert table[(k,)] == leading_coefficients(genus, k)[-1]


def test_each_recurrence_level_is_computed_once():
    genus = GenusSpec.from_coefficients("once", [1] + [F(1, p) for p in (2, 3, 5, 7, 11, 13, 17)])
    before = genus_module._level.cache_info().misses
    for k in range(1, 8):
        coefficient_table(genus, k)
    for k in range(7, 0, -1):
        coefficient_table(genus, k)
    assert genus_module._level.cache_info().misses - before == 8  # levels 0..7


def _fraction_level(series, k, memo):
    """The recurrence as it ran in Fractions, the reference for _level:
    F_k = (1/k) sum_j lambda_j N_j F_{k-j}, one Fraction per entry."""
    if k == 0:
        return {(): F(1)}
    if k not in memo:
        lam = genus_module._leading_from_series(series, k)
        acc = {}
        for j in range(1, k + 1):
            for nu, n in genus_module._newton(j):
                for mu, c in _fraction_level(series, k - j, memo).items():
                    key = tuple(sorted(nu + mu, reverse=True))
                    acc[key] = acc.get(key, 0) + lam[j - 1] * n * c
        memo[k] = {mu: c / k for mu, c in acc.items()}
    return memo[k]


# negative, zero and non-unit-denominator coefficients, to degree 20
CUSTOM_COEFFICIENTS = (1, F(-1, 3), 0, F(5, 7), F(-2, 9), 0, 3, F(-11, 4), F(1, 6), 0, -2, F(7, 25), 0,
                       F(-1, 8), 5, 0, F(13, 27), F(-3, 10), 0, F(2, 49), -1)


@pytest.mark.parametrize("genus", [
    GenusSpec.l_genus(20), GenusSpec.a_hat(20), GenusSpec.from_coefficients("custom", CUSTOM_COEFFICIENTS),
], ids=["L", "Ahat", "custom"])
def test_integer_levels_match_the_fraction_recurrence(genus):
    # each level is one denominator over integer numerators, reduced by one
    # gcd, and equal to the Fraction recurrence at every entry of degrees 1..20
    memo = {}
    for k in range(1, MAX_EXACT_DEGREE + 1):
        den, terms = genus_module._level(genus.series, k)
        assert type(den) is int and den > 0 and all(type(c) is int for _, c in terms)
        assert math.gcd(den, *(c for _, c in terms)) == 1
        assert {mu: F(c, den) for mu, c in terms} == _fraction_level(genus.series, k, memo)
        assert {J.parts: c for J, c in coefficient_table(genus, k).items()} == memo[k]


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def test_oracle_agrees_with_closed_form(signature_genus, spinor_genus):
    for genus in (signature_genus, spinor_genus):
        for k in range(1, 9):
            oracle = coefficient_table_oracle(genus, k)
            for J, c in oracle.items():
                assert coefficient_closed_form(genus, J) == c


def test_oracle_shares_no_code_with_the_recurrence(monkeypatch):
    genera = _three_genera(8)
    tables = [[coefficient_table(genus, k) for k in range(1, 9)] for genus in genera]
    for name in (
        "_level",
        "_newton",
        "_leading_from_series",
        "signed_block_sums",
    ):
        monkeypatch.setattr(genus_module, name, _raise)
    for genus, expected in zip(genera, tables):
        assert [coefficient_table_oracle(genus, k) for k in range(1, 9)] == expected


def test_oracle_degree_guard(signature_genus):
    with pytest.raises(ValueError):
        coefficient_table_oracle(signature_genus, MAX_ORACLE_DEGREE + 1)
    with pytest.raises(ValueError):
        coefficient_table_oracle(signature_genus, 0)


# ---------------------------------------------------------------------------
# Leading coefficients
# ---------------------------------------------------------------------------


def test_signature_leading_coefficients_closed_form():
    genus = GenusSpec.l_genus(20)
    lams = leading_coefficients(genus, 20)
    for k in range(1, 21):
        expected = (
            F(2 ** (2 * k) * (2 ** (2 * k - 1) - 1), math.factorial(2 * k))
            * bernoulli(k)
        )
        assert lams[k - 1] == expected


def test_spinor_leading_coefficients_closed_form():
    genus = GenusSpec.a_hat(20)
    lams = leading_coefficients(genus, 20)
    for k in range(1, 21):
        assert lams[k - 1] == -bernoulli(k) / (2 * math.factorial(2 * k))


def test_leading_coefficients_match_single_part_entries(signature_genus):
    lams = leading_coefficients(signature_genus, 6)
    for k in range(1, 7):
        assert coefficient_closed_form(signature_genus, (k,)) == lams[k - 1]


def test_leading_coefficients_guards(signature_genus):
    with pytest.raises(ValueError):
        leading_coefficients(signature_genus, 0)
    with pytest.raises(ValueError):
        leading_coefficients(signature_genus, signature_genus.order + 1)


def test_pure_first_power_coefficient_recovers_the_series(
    signature_genus, spinor_genus
):
    # The coefficient of p_1^k in the degree-k polynomial is the z^k series
    # coefficient; this couples the combination formula back to the series.
    for genus in (signature_genus, spinor_genus):
        for k in range(1, 9):
            assert coefficient_closed_form(genus, (1,) * k) == genus.series[k]


# ---------------------------------------------------------------------------
# Monomial-to-power-sum expansion
# ---------------------------------------------------------------------------


def test_monomial_expansion_frozen_examples():
    assert monomial_to_power_sum((1, 1)) == {
        IntegerPartition((1, 1)): F(1, 2),
        IntegerPartition((2,)): F(-1, 2),
    }
    assert monomial_to_power_sum((2, 1)) == {
        IntegerPartition((2, 1)): F(1),
        IntegerPartition((3,)): F(-1),
    }
    assert monomial_to_power_sum((1, 1, 1)) == {
        IntegerPartition((1, 1, 1)): F(1, 6),
        IntegerPartition((2, 1)): F(-1, 2),
        IntegerPartition((3,)): F(1, 3),
    }
    assert monomial_to_power_sum((5,)) == {IntegerPartition((5,)): F(1)}


def _monomial_at(parts, xs):
    # Sum over injective variable assignments, then divide by the number of
    # position permutations fixing the exponent multiset.
    total = F(0)
    for idx in permutations(range(len(xs)), len(parts)):
        prod = F(1)
        for exponent, i in zip(parts, idx):
            prod *= xs[i] ** exponent
        total += prod
    return total / IntegerPartition(parts).symmetry_factor()


def _power_sum_at(parts, xs):
    prod = F(1)
    for exponent in parts:
        prod *= sum(x**exponent for x in xs)
    return prod


@pytest.mark.parametrize(
    "xs",
    [
        (F(1, 2), F(1, 3), F(2), F(3, 5), F(1)),
        (F(-1, 2), F(5, 7), F(1, 4), F(-2), F(3)),
    ],
)
def test_monomial_expansion_evaluates_correctly(xs):
    for k in range(1, 6):
        for J in integer_partitions(k):
            expansion = monomial_to_power_sum(J)
            lhs = _monomial_at(J.parts, xs)
            rhs = sum(c * _power_sum_at(mu.parts, xs) for mu, c in expansion.items())
            assert lhs == rhs


def _brute_monomial_expansion(parts):
    counts = {}
    r = len(parts)
    for sp in enumerate_set_partitions(r):
        w = (-1) ** (r - sp.length)
        key = []
        for block in sp.blocks:
            w *= math.factorial(len(block) - 1)
            key.append(sum(parts[i - 1] for i in block))
        key = IntegerPartition(key)
        counts[key] = counts.get(key, 0) + w
    af = IntegerPartition(parts).symmetry_factor()
    return {k: F(v, af) for k, v in counts.items() if v}


@pytest.mark.parametrize(
    "parts",
    [(1,), (1, 1, 1, 1), (2, 2, 1), (3, 2, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1)],
)
def test_monomial_expansion_matches_direct_enumeration(parts):
    got = {k: v for k, v in monomial_to_power_sum(parts).items() if v}
    assert got == _brute_monomial_expansion(parts)


def test_monomial_expansion_guards():
    with pytest.raises(ValueError):
        monomial_to_power_sum(())
    # one part has one set partition, whatever its weight
    assert monomial_to_power_sum((13,)) == {IntegerPartition((13,)): 1}
    with pytest.raises(ValueError, match="ground size 13"):
        monomial_to_power_sum((1,) * 13)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_from_coefficients_round_trip(signature_genus):
    clone = GenusSpec.from_coefficients(
        "clone", signature_genus.series.coefficients
    )
    assert clone.order == signature_genus.order
    assert coefficient_table(clone, 3) == coefficient_table(signature_genus, 3)


def test_genus_requires_unit_constant_term():
    with pytest.raises(ValueError):
        GenusSpec.from_coefficients("bad", [0, 1])
    with pytest.raises(ValueError):
        GenusSpec.from_coefficients("bad", [2, 1])


def test_closed_form_guards(signature_genus):
    with pytest.raises(ValueError):
        coefficient_closed_form(signature_genus, ())
    # Past the exact-layer cap, by weight, even where the series reaches.
    deep = GenusSpec.l_genus(MAX_EXACT_DEGREE + 1)
    for parts in ((1,) * (MAX_EXACT_DEGREE + 1), (MAX_EXACT_DEGREE + 1,)):
        with pytest.raises(ValueError, match="exact-layer cap"):
            coefficient_closed_form(deep, parts)
    # Weight exceeding the series order must fail rather than zero-fill.
    with pytest.raises(ValueError):
        coefficient_closed_form(GenusSpec.l_genus(2), (3,))


def test_table_guards(signature_genus):
    with pytest.raises(ValueError):
        coefficient_table(signature_genus, 0)
    with pytest.raises(ValueError):
        CoefficientTable(2, {IntegerPartition((2,)): F(1)})
    with pytest.raises(ValueError):
        CoefficientTable(
            2,
            {
                IntegerPartition((2,)): F(1),
                IntegerPartition((1, 1)): F(1),
                IntegerPartition((3,)): F(1),
            },
        )


def test_table_refuses_plain_tuple_keys_equal_to_the_partitions():
    # a plain tuple equals its partition and hashes alike, but would print
    # as "(2,)" in place of "2" in every export and cache key
    entries = {(2,): F(-1, 3), (1, 1): F(1, 3)}
    assert set(entries) == set(integer_partitions(2))
    with pytest.raises(ValueError, match="exactly the partitions of 2"):
        CoefficientTable(2, entries)
    with pytest.raises(ValueError, match="exactly the partitions of 2"):
        CoefficientTable(2, {IntegerPartition((2,)): F(-1, 3), (1, 1): F(1, 3)})
    assert CoefficientTable(2, {IntegerPartition(J): c for J, c in entries.items()})[(1, 1)] == F(1, 3)


@given(st.integers(min_value=1, max_value=6))
def test_tables_cover_every_partition_of_the_degree(k):
    genus = GenusSpec.l_genus(8)
    table = coefficient_table(genus, k)
    by_parts = lambda J: J.parts
    assert sorted((J for J, _ in table.items()), key=by_parts) == sorted(
        integer_partitions(k), key=by_parts
    )
