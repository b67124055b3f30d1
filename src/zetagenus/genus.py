"""Coefficients of multiplicative sequences in the power-sum basis.

A multiplicative sequence is determined by a characteristic power series
Q(z) = 1 + b_1 z + b_2 z^2 + ...  Writing the degree-k polynomial of the
sequence in the power-sum basis,

    K_k = sum over partitions J = (j_1 >= ... >= j_r) of k
          of lambda_J * p_{j_1} ... p_{j_r},

this module computes the lambda_J exactly: K_k is the degree-k part of
prod_i Q(x_i) in the elementary symmetric functions e_j of the x_i, with
e_j renamed p_j.  There are three routes:

* ``coefficient_table``, the production route, is the log/exp
  recurrence, run in integers over one denominator per degree.  With
  log Q(z) = sum_j c_j z^j the product is exp(sum_j c_j P_j) over the
  power sums P_j of the x_i, and
  j c_j = (-1)^(j-1) lambda_j for the leading coefficients lambda_k
  (Newton's identities on the b_k).  With N_j = (-1)^(j-1) P_j written
  in the elementary basis (genus-independent), each degree follows from
  the lower ones (Macdonald, Symmetric Functions and Hall Polynomials,
  ch. I section 2):

      F_0 = 1,   F_k = (1/k) * sum_{j=1..k} lambda_j * N_j * F_{k-j}

* ``coefficient_closed_form`` is the paper's statement: one coefficient
  from the lambda_k, summed over the set partitions P of the r positions,

      lambda_J = (1/prod_l alpha_l!) * sum over P of (-1)^(r - len(P)) *
                 prod_{B in P} (|B|-1)! * lambda_{sum of j_i over B}

  with alpha the multiplicities of the distinct parts l of J.  A block's
  factor depends only on the multiplicity vector 0 != beta <= alpha of
  the parts it takes, so by the exponential formula (Stanley, Enumerative
  Combinatorics vol. 2, section 5.1) lambda_J = [x^alpha] exp(G), with
  G = sum_beta (-1)^(|beta|-1) (|beta|-1)! lambda_{beta.l} x^beta / beta!,
  a sum over the prod_l (alpha_l + 1) points of the multiplicity grid in
  place of Bell(r) set partitions.  ``monomial_to_power_sum`` keeps the
  set-partition sum itself.

* ``coefficient_table_oracle`` uses neither, nor the lambda_k: it works
  on partitions alone, matching the coefficients of the monomials
  x^lambda in prod_i Q(x_i) with those in the e_mu, a triangular system.

The ``oracle`` verification suite requires all three to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Mapping

from .exact import PowerSeries, a_hat_series, l_genus_series
from .partitions import (
    IntegerPartition,
    PartitionLike,
    as_integer_partition,
    integer_partitions,
    signed_block_sums,
)

__all__ = [
    "GenusSpec",
    "NAMED",
    "CoefficientTable",
    "leading_coefficients",
    "coefficient_closed_form",
    "coefficient_table",
    "coefficient_table_oracle",
    "monomial_to_power_sum",
    "check_table_degree",
    "check_oracle_degree",
]

MAX_EXACT_DEGREE = 20  # tables, polynomials, signs and single coefficients
# `verify oracle --k 12` takes about 1 s; each degree costs the oracle 2.5x the last
MAX_ORACLE_DEGREE = 12


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


NAMED = {"L": GenusSpec.l_genus, "Ahat": GenusSpec.a_hat}  # each named genus to a given order, L first


@dataclass(frozen=True)
class CoefficientTable:
    """All power-sum coefficients of one degree, keyed by integer partition."""

    degree: int
    entries: Mapping[IntegerPartition, Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        # a plain tuple equals its partition and hashes alike, but prints as a tuple
        expected = set(integer_partitions(self.degree))
        if set(self.entries) != expected or {type(J) for J in self.entries} != {IntegerPartition}:
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


def check_table_degree(k: int) -> None:
    """Refuse a table, or a coefficient of weight k, past MAX_EXACT_DEGREE.

    The cap is set from cost: the tables of degrees 1..20 take about
    0.2 s in integers (1..24 0.5 s, 1..28 1.9 s), and the closed form
    rechecks all 627 entries of degree 20 in about 1.7 s.
    """
    if k > MAX_EXACT_DEGREE:
        raise ValueError(
            f"degree {k} is past the exact-layer cap {MAX_EXACT_DEGREE}: the "
            f"tables of degrees 1..{MAX_EXACT_DEGREE} take under a second, and "
            "each further degree costs about 1.5 times the last"
        )


def check_oracle_degree(k: int) -> None:
    """Refuse an oracle table outside degrees 1..MAX_ORACLE_DEGREE."""
    if not 1 <= k <= MAX_ORACLE_DEGREE:
        raise ValueError(f"oracle supports degrees 1..{MAX_ORACLE_DEGREE}, got {k}")


@lru_cache(maxsize=None)
def _grid(alpha: tuple[int, ...]) -> tuple[tuple, ...]:
    """The genus-independent part of the grid recurrence for multiplicities
    alpha: each nonzero point beta, in mixed radix (last coordinate fastest,
    so beta - gamma is idx(beta) - idx(gamma)), with its weight
    (-1)^(n-1) (n-1)! / beta!, beta_i for i its first nonzero coordinate,
    and the (idx(gamma), gamma_i) of every gamma <= beta with gamma_i >= 1."""
    stride = [math.prod(a + 1 for a in alpha[i + 1 :]) for i in range(len(alpha))]
    points = []
    for beta in list(product(*(range(a + 1) for a in alpha)))[1:]:
        n, i = sum(beta), next(j for j, x in enumerate(beta) if x)
        w = Fraction((-1) ** (n - 1) * math.factorial(n - 1), math.prod(map(math.factorial, beta)))
        ranges = [range(1, x + 1) if j == i else range(x + 1) for j, x in enumerate(beta)]
        steps = tuple((sum(map(math.prod, zip(gamma, stride))), gamma[i]) for gamma in product(*ranges))
        points.append((beta, w, beta[i], steps))
    return tuple(points)


def coefficient_closed_form(genus: GenusSpec, partition: PartitionLike) -> Fraction:
    """lambda_J = F_alpha for F = exp(G), by the grid recurrence
    beta_i F_beta = sum_{gamma <= beta, gamma_i >= 1} gamma_i G_gamma F_{beta-gamma}
    on the points of _grid(alpha)."""
    J = as_integer_partition(partition)
    if len(J) == 0:
        raise ValueError("partition must have at least one part")
    k = J.weight
    check_table_degree(k)
    if genus.order < k:
        raise ValueError(f"genus series order {genus.order} too small for weight {k}")
    lam = _leading_from_series(genus.series, k)
    mult = J.multiplicities()
    points = _grid(tuple(mult.values()))
    G = [0] + [lam[sum(map(math.prod, zip(beta, mult))) - 1] * w for beta, w, _, _ in points]
    F = [Fraction(1)]
    for b, (_, _, bi, steps) in enumerate(points, 1):
        F.append(sum(gi * G[g] * F[b - g] for g, gi in steps) / bi)
    return F[-1]


@lru_cache(maxsize=None)
def _newton(j: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """N_j = (-1)^(j-1) P_j in the elementary basis, as (parts of e_mu,
    coefficient) pairs, by N_j = j e_j - sum_{i<j} e_i N_{j-i}."""
    terms = {(j,): j}
    for i in range(1, j):
        for mu, c in _newton(j - i):
            key = tuple(sorted(mu + (i,), reverse=True))
            terms[key] = terms.get(key, 0) - c
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _level(series: PowerSeries, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """F_k, the degree-k part of prod_i Q(x_i), in the elementary basis, as
    one denominator D_k and (parts of e_mu, integer numerator) pairs, zeros
    included, so every partition of k is present (N_k alone has them all).
    With lambda_j = a_j / d_j, the j-sums are put over L = lcm_j(d_j D_{k-j}),
    divided by k, and reduced by one gcd.  Cached, so building degrees
    1..K computes each level once."""
    if k == 0:
        return 1, (((), 1),)
    lam = _leading_from_series(series, k)
    lower = [_level(series, k - j) for j in range(1, k + 1)]
    common = math.lcm(*(lam[j - 1].denominator * lower[j - 1][0] for j in range(1, k + 1)))
    acc: dict[tuple[int, ...], int] = {}
    for j in range(1, k + 1):
        den, terms = lower[j - 1]
        scale = lam[j - 1].numerator * (common // (lam[j - 1].denominator * den))
        for nu, n in _newton(j):
            w = scale * n
            for mu, c in terms:
                key = tuple(sorted(nu + mu, reverse=True))
                acc[key] = acc.get(key, 0) + w * c
    g = math.gcd(k * common, *acc.values())
    return k * common // g, tuple((mu, c // g) for mu, c in acc.items())


def coefficient_table(genus: GenusSpec, degree: int) -> CoefficientTable:
    """The full degree-k table, from the log/exp recurrence."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    check_table_degree(degree)
    if genus.order < degree:
        raise ValueError(f"genus series order {genus.order} too small for weight {degree}")
    den, terms = _level(genus.series, degree)
    level = dict(terms)
    return CoefficientTable(degree, {J: Fraction(level[J], den) for J in integer_partitions(degree)})


def monomial_to_power_sum(partition: PartitionLike) -> dict[IntegerPartition, Fraction]:
    """Expand a monomial symmetric function in the power-sum basis.

    For I = (i_1 >= ... >= i_r), the monomial m_I (the sum of all distinct
    monomials x_{a_1}^{i_1}...x_{a_r}^{i_r} over distinct variable indices)
    equals

        (1/prod alpha_l!) * sum over set partitions P of the r positions
        of (-1)^(r - len(P)) * prod (|B|-1)! * p_{J(P)}

    where J(P) collects the per-block sums of I.  Returned as a map from
    integer partition J to the exact coefficient of p_J.  The sum runs
    over Bell(r) partitions, so r is capped by partitions.MAX_GROUND_SIZE.
    """
    I = as_integer_partition(partition)
    if len(I) == 0:
        raise ValueError("partition must have at least one part")
    weights: dict[tuple[int, ...], int] = {}

    def add(w: int, sums: list[int]) -> None:
        key = tuple(sorted(sums))
        weights[key] = weights.get(key, 0) + w

    signed_block_sums(I, add)
    af = I.symmetry_factor()
    return {IntegerPartition(key): Fraction(w, af) for key, w in sorted(weights.items())}


# --- the partitions-only oracle ---------------------------------------------


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate of a nonempty partition."""
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


@lru_cache(maxsize=None)
def _zero_one_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """The number of 0-1 matrices with row sums rows and column sums cols.

    Equal columns are interchangeable, so cols is kept sorted with zeros
    dropped, which makes the cache hit more often.
    """
    if not rows:
        return int(not cols)
    total = 0
    for chosen in combinations(range(len(cols)), rows[0]):
        rest = list(cols)
        for i in chosen:
            rest[i] -= 1
        total += _zero_one_matrices(rows[1:], tuple(sorted(filter(None, rest), reverse=True)))
    return total


def coefficient_table_oracle(genus: GenusSpec, degree: int) -> CoefficientTable:
    """Degree-k table by triangular elimination over the partitions of k.

    The degree-k part of prod_i Q(x_i) is symmetric, so it is fixed by its
    coefficients on the monomials x^lambda for partitions lambda of k;
    each is prod_i b_{lambda_i}.  The coefficient of x^lambda in e_mu is
    the number of 0-1 matrices with row sums lambda and column sums mu:
    1 when mu is the conjugate lambda', and 0 unless lambda' dominates mu.
    Taking lambda in decreasing lex order, every other mu with a nonzero
    count is already solved, so each equation yields the coefficient of
    e_{lambda'}.  Shares no code with the recurrence or the closed form.
    """
    k = degree
    check_oracle_degree(k)
    if genus.order < k:
        raise ValueError(f"genus series order {genus.order} too small for degree {k}")
    b = genus.series.coefficients
    found: dict[tuple[int, ...], Fraction] = {}
    for lam in integer_partitions(k):
        rhs = math.prod(b[p] for p in lam)
        for mu, c in found.items():
            if c:
                rhs -= c * _zero_one_matrices(lam, mu)
        found[_conjugate(lam)] = rhs
    return CoefficientTable(k, {J: found[J] for J in integer_partitions(k)})
