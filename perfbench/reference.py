"""Exact reference values computed without any zetagenus code.

Everything here uses only the standard library.  The characteristic
series are built from their sinh/cosh definitions, the coefficient
tables from the log/exp form of the multiplicative sequence, and the
tables are checked by evaluating both sides of the defining identity

    sum over partitions l of k of c_l * prod_i e_{l_i}(x)
        = [z^k] prod_{j=1..k} Q(x_j z)

at rational points x_1..x_k.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

GENERA = ("L", "Ahat")


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k as weakly decreasing tuples."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(k, k, ())
    return out


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n)]


def _reciprocal(a: list[Fraction]) -> list[Fraction]:
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum((a[i] * out[m - i] for i in range(1, m + 1)), Fraction(0)) / a[0])
    return out


@lru_cache(maxsize=None)
def char_series(genus: str, order: int) -> tuple[Fraction, ...]:
    """Coefficients b_0..b_order of Q(z) for L or Ahat.

    With u = sqrt(z): L has Q = u / tanh(u) = cosh(u) / (sinh(u) / u) and
    Ahat has Q = (u/2) / sinh(u/2), both power series in z.
    """
    n = order + 1
    if genus == "L":
        cosh = [Fraction(1, factorial(2 * m)) for m in range(n)]
        sinh_ratio = [Fraction(1, factorial(2 * m + 1)) for m in range(n)]
        return tuple(_mul(cosh, _reciprocal(sinh_ratio)))
    if genus == "Ahat":
        half_sinh = [Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(n)]
        return tuple(_reciprocal(half_sinh))
    raise ValueError(f"unknown genus {genus!r}")


def _emul(a: dict, b: dict) -> dict:
    """Product of polynomials in e_1, e_2, ... keyed by partitions."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def tables(genus: str, max_k: int) -> tuple[dict[tuple[int, ...], Fraction], ...]:
    """Exact tables for degrees 0..max_k: entry k maps partitions of k to c.

    prod Q(x_j z) = exp(sum_m c_m P_m z^m) with log Q = sum c_m z^m and P_m
    the power sums of the x_j; Newton's identities write P_m in the e_i,
    and F' = F * (log)' gives k F_k = sum_m m c_m P_m F_{k-m}.
    """
    b = char_series(genus, max_k)
    logc = [Fraction(0)] * (max_k + 1)
    for m in range(1, max_k + 1):
        logc[m] = b[m] - sum((i * logc[i] * b[m - i] for i in range(1, m)), Fraction(0)) / m
    power: list[dict] = [{}]
    for m in range(1, max_k + 1):
        pm: dict[tuple[int, ...], Fraction] = {(m,): Fraction((-1) ** (m - 1) * m)}
        for i in range(1, m):
            for key, c in _emul({(i,): Fraction((-1) ** (i - 1))}, power[m - i]).items():
                pm[key] = pm.get(key, 0) + c
        power.append({k: c for k, c in pm.items() if c})
    out: list[dict] = [{(): Fraction(1)}]
    for k in range(1, max_k + 1):
        acc: dict[tuple[int, ...], Fraction] = {}
        for m in range(1, k + 1):
            scaled = {key: m * logc[m] * c for key, c in power[m].items()}
            for key, c in _emul(scaled, out[k - m]).items():
                acc[key] = acc.get(key, 0) + c
        out.append({p: acc.get(p, Fraction(0)) / k for p in partitions(k)})
    return tuple(out)


def coefficient(genus: str, partition: tuple[int, ...]) -> Fraction:
    part = tuple(sorted(partition, reverse=True))
    return tables(genus, sum(part))[sum(part)][part]


def _elementary(xs: list[Fraction]) -> list[Fraction]:
    """e_0..e_n of the given values, from prod (1 + x t)."""
    e = [Fraction(1)] + [Fraction(0)] * len(xs)
    for x in xs:
        for i in range(len(xs), 0, -1):
            e[i] += x * e[i - 1]
    return e


def identity_sides(genus: str, k: int, table: dict, xs: list[Fraction]) -> tuple[Fraction, Fraction]:
    """(table side, product side) of the defining identity at the point xs."""
    e = _elementary(xs)
    lhs = Fraction(0)
    for part, c in table.items():
        term = c
        for i in part:
            term *= e[i]
        lhs += term
    b = char_series(genus, k)
    prod = [Fraction(1)] + [Fraction(0)] * k
    for x in xs:
        q = [b[m] * x**m for m in range(k + 1)]
        prod = _mul(prod, q)
    return lhs, prod[k]


def random_point(rng: random.Random, k: int) -> list[Fraction]:
    """k nonzero rationals with one-digit numerators and denominators."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]


def cp_signature_value(k: int, table: dict) -> Fraction:
    """The degree-k table at p_i = C(2k+1, i), the classes of CP^(2k)."""
    total = Fraction(0)
    for part, c in table.items():
        term = c
        for i in part:
            term *= comb(2 * k + 1, i)
        total += term
    return total
