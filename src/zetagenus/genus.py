"""Coefficients of multiplicative sequences in the power-sum basis.

A multiplicative sequence is determined by a characteristic power series
Q(z) = 1 + b_1 z + b_2 z^2 + ...  Writing the degree-k polynomial of the
sequence in the power-sum basis,

    K_k = sum over partitions J = (j_1 >= ... >= j_r) of k
          of lambda_J * p_{j_1} ... p_{j_r},

this module computes the lambda_J exactly.  Two independent routes are
provided:

* ``coefficient_closed_form`` combines the leading coefficients
  lambda_k (obtained from the b_k by Newton's identities) over the
  lattice of set partitions of the r index positions:

      lambda_J = (1/prod_l alpha_l!) * sum over set partitions P of
                 (-1)^(r - len(P)) * prod_blocks (|B|-1)! *
                 prod_blocks lambda_{sum of j_i over B}

  where alpha_l are the multiplicities of the parts of J.

* ``coefficient_table_oracle`` never touches that formula: it expands
  prod_{i=1..k} Q(x_i z) mod z^(k+1) as an exact multivariate symmetric
  polynomial, reduces the z^k coefficient to the elementary basis by
  lex leading-term elimination, and renames e_i -> p_i.

Agreement of the two routes is what the test suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Mapping

from .exact import PowerSeries, a_hat_series, l_genus_series
from .partitions import (
    MAX_GROUND_SIZE,
    IntegerPartition,
    PartitionLike,
    as_integer_partition,
    integer_partitions,
    signed_block_sums,
)

__all__ = [
    "GenusSpec",
    "CoefficientTable",
    "leading_coefficients",
    "coefficient_closed_form",
    "coefficient_table",
    "coefficient_table_oracle",
    "monomial_to_power_sum",
    "check_parts",
    "check_oracle_degree",
]

MAX_CLOSED_FORM_PARTS = MAX_GROUND_SIZE  # set-partition enumeration cap
MAX_ORACLE_DEGREE = 8  # multivariate expansion in k variables gets large fast
MAX_MONOMIAL_WEIGHT = 12


@dataclass(frozen=True)
class GenusSpec:
    """A named characteristic series with constant term 1."""

    name: str
    series: PowerSeries

    def __post_init__(self) -> None:
        if self.series[0] != 1:
            raise ValueError("characteristic series must have constant term 1")

    @property
    def order(self) -> int:
        return self.series.order

    @classmethod
    def l_genus(cls, order: int) -> "GenusSpec":
        return cls("L", l_genus_series(order))

    @classmethod
    def a_hat(cls, order: int) -> "GenusSpec":
        return cls("Ahat", a_hat_series(order))

    @classmethod
    def from_coefficients(cls, name: str, coefficients) -> "GenusSpec":
        return cls(name, PowerSeries(coefficients))


@dataclass(frozen=True)
class CoefficientTable:
    """All power-sum coefficients of one degree, keyed by integer partition."""

    degree: int
    entries: Mapping[IntegerPartition, Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        expected = set(integer_partitions(self.degree))
        if set(self.entries) != expected:
            raise ValueError(
                f"table keys must be exactly the partitions of {self.degree}"
            )

    def __getitem__(self, partition: PartitionLike) -> Fraction:
        return self.entries[as_integer_partition(partition)]

    def items(self):
        return self.entries.items()


@lru_cache(maxsize=None)
def _leading_from_series(series: PowerSeries, count: int) -> tuple[Fraction, ...]:
    """lambda_1..lambda_count by Newton's identities with e_j = b_j."""
    e = series.coefficients
    lam: list[Fraction] = []
    for k in range(1, count + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            term = e[i] * lam[k - i - 1]
            acc += term if i % 2 == 1 else -term
        lam.append(acc)
    return tuple(lam)


def leading_coefficients(genus: GenusSpec, count: int) -> list[Fraction]:
    """The coefficients lambda_1..lambda_count of p_1, p_2, ..., p_count.

    lambda_k is the coefficient of the single-part partition (k) in the
    degree-k polynomial; the genus series must carry at least that order.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if genus.order < count:
        raise ValueError(
            f"genus series order {genus.order} too small for lambda_{count}"
        )
    return list(_leading_from_series(genus.series, count))


def check_parts(r: int) -> None:
    """Refuse a closed-form coefficient with more than MAX_CLOSED_FORM_PARTS parts.

    A degree-k table needs k parts (the partition 1^k), so callers that
    build tables up to some degree check that degree before any work.
    """
    if r > MAX_CLOSED_FORM_PARTS:
        raise ValueError(
            f"{r} parts needs {r}-element set-partition enumeration; cap is "
            f"{MAX_CLOSED_FORM_PARTS}"
        )


def check_oracle_degree(k: int) -> None:
    """Refuse an oracle table outside degrees 1..MAX_ORACLE_DEGREE."""
    if not 1 <= k <= MAX_ORACLE_DEGREE:
        raise ValueError(f"oracle supports degrees 1..{MAX_ORACLE_DEGREE}, got {k}")


@lru_cache(maxsize=None)
def _block_sum_weights(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The signed set-partition sum over the positions of parts, aggregated
    by multiset of block sums: sorted (block sums, total weight) pairs.

    The genus- and basis-independent half of both the closed coefficient
    formula and the monomial expansion.
    """
    weights: dict[tuple[int, ...], int] = {}

    def add(w: int, sums: list[int]) -> None:
        key = tuple(sorted(sums))
        weights[key] = weights.get(key, 0) + w

    signed_block_sums(parts, add)
    return tuple(sorted(weights.items()))


def coefficient_closed_form(genus: GenusSpec, partition: PartitionLike) -> Fraction:
    """lambda_J for one partition, by the set-partition combination formula."""
    J = as_integer_partition(partition)
    if len(J) == 0:
        raise ValueError("partition must have at least one part")
    k = J.weight
    if genus.order < k:
        raise ValueError(f"genus series order {genus.order} too small for weight {k}")
    check_parts(len(J))
    lam = _leading_from_series(genus.series, k)
    total = Fraction(0)
    for key, w in _block_sum_weights(J.parts):
        prod = Fraction(w)
        for s in key:
            prod *= lam[s - 1]
        total += prod
    return total / J.symmetry_factor()


def coefficient_table(genus: GenusSpec, degree: int) -> CoefficientTable:
    """The full degree-k table, one closed-form evaluation per partition."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    check_parts(degree)
    entries = {
        J: coefficient_closed_form(genus, J) for J in integer_partitions(degree)
    }
    return CoefficientTable(degree, entries)


def monomial_to_power_sum(partition: PartitionLike) -> dict[IntegerPartition, Fraction]:
    """Expand a monomial symmetric function in the power-sum basis.

    For I = (i_1 >= ... >= i_r), the monomial m_I (the sum of all distinct
    monomials x_{a_1}^{i_1}...x_{a_r}^{i_r} over distinct variable indices)
    equals

        (1/prod alpha_l!) * sum over set partitions P of the r positions
        of (-1)^(r - len(P)) * prod (|B|-1)! * p_{J(P)}

    where J(P) collects the per-block sums of I.  Returned as a map from
    integer partition J to the exact coefficient of p_J.
    """
    I = as_integer_partition(partition)
    if len(I) == 0:
        raise ValueError("partition must have at least one part")
    if I.weight > MAX_MONOMIAL_WEIGHT:
        raise ValueError(
            f"weight {I.weight} exceeds the supported cap {MAX_MONOMIAL_WEIGHT}"
        )
    af = I.symmetry_factor()
    return {
        IntegerPartition(key): Fraction(w, af)
        for key, w in _block_sum_weights(I.parts)
    }


# --- the independent multivariate oracle -----------------------------------

# Exact multivariate polynomials as {exponent tuple: Fraction}.  Tuples are
# full length m; lexicographic comparison of tuples is lexicographic
# monomial order with x_1 heaviest.

_Poly = dict


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key)
            prod = ca * cb
            out[key] = prod if c is None else c + prod
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _elementary_poly(j: int, m: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """e_j in m variables, as a frozen item tuple."""
    terms = {}
    for combo in combinations(range(m), j):
        exps = [0] * m
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = Fraction(1)
    return tuple(terms.items())


def _conjugate(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate of a weakly decreasing exponent vector, as partition parts."""
    parts = [e for e in exponents if e]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def coefficient_table_oracle(genus: GenusSpec, degree: int) -> CoefficientTable:
    """Degree-k table by explicit symmetric-function expansion.

    Instantiates m = k variables, expands prod_i Q(x_i z) mod z^(k+1)
    exactly, reduces the z^k coefficient to the elementary basis by
    repeatedly eliminating the lex-leading monomial, and reads the table
    off e_i -> p_i.  Shares no code path with coefficient_closed_form.
    """
    k = degree
    check_oracle_degree(k)
    if genus.order < k:
        raise ValueError(f"genus series order {genus.order} too small for degree {k}")
    m = k
    b = genus.series.coefficients
    zero_exp = (0,) * m

    # levels[d] is the z^d coefficient, a polynomial in x_1..x_m
    levels: list[_Poly] = [{zero_exp: Fraction(1)}] + [dict() for _ in range(k)]
    for var in range(m):
        new_levels: list[_Poly] = [dict() for _ in range(k + 1)]
        for d in range(k + 1):
            target = new_levels[d]
            for bdeg in range(d + 1):
                cb = b[bdeg]
                if not cb:
                    continue
                for mono, c in levels[d - bdeg].items():
                    if bdeg:
                        lst = list(mono)
                        lst[var] += bdeg
                        mono2 = tuple(lst)
                    else:
                        mono2 = mono
                    prev = target.get(mono2)
                    prod = c * cb
                    target[mono2] = prod if prev is None else prev + prod
        levels = new_levels

    poly = {e: c for e, c in levels[k].items() if c}
    found: dict[IntegerPartition, Fraction] = {}
    while poly:
        lead = max(poly)
        c = poly[lead]
        mu = _conjugate(lead)
        found[IntegerPartition(mu)] = c
        expansion: _Poly = {zero_exp: Fraction(1)}
        for j in mu:
            expansion = _poly_mul(expansion, dict(_elementary_poly(j, m)))
        for mono, ec in expansion.items():
            nv = poly.get(mono, Fraction(0)) - c * ec
            if nv:
                poly[mono] = nv
            else:
                poly.pop(mono, None)

    entries = {
        J: found.get(J, Fraction(0)) for J in integer_partitions(k)
    }
    return CoefficientTable(k, entries)
