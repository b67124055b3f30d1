"""Truncated power series and Bernoulli numbers, in exact arithmetic.

Everything in this module is exact: scalars are ``fractions.Fraction``
(always in lowest terms with a positive denominator), and series are
truncated polynomials with one operation, a quotient, which invents no
coefficients beyond the truncation order.  The two characteristic series at the bottom of the
file are the generating data for the genus computations in
:mod:`zetagenus.genus`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Union

__all__ = [
    "PowerSeries",
    "standard_bernoulli",
    "bernoulli",
    "l_genus_series",
    "a_hat_series",
]

_Coeff = Union[Fraction, int]


class PowerSeries:
    """A truncated power series c_0 + c_1 z + ... + c_order z^order.

    Coefficients are exact rationals.  Division insists that both
    operands carry the same truncation order, so an accidental mix of
    truncation depths fails loudly instead of silently dropping terms.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[_Coeff]):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a power series needs at least a constant term")
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self._coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        if len(self._coeffs) > 6:
            shown += ", ..."
        return f"PowerSeries([{shown}]; order={self.order})"

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """Quotient truncated at the shared order; the divisor's constant term must be nonzero."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        a, b = self._coeffs, other._coeffs
        if b[0] == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        out: list[Fraction] = []
        for m, am in enumerate(a):
            acc = am
            for k in range(1, m + 1):
                if b[k]:
                    acc -= b[k] * out[m - k]
            out.append(acc / b[0])
        return PowerSeries(out)


_BERNOULLI = [Fraction(1)]  # B_0, B_1, ... as far as asked for, each built once


def standard_bernoulli(n: int) -> Fraction:
    """The signed Bernoulli number B_n (convention B_1 = -1/2).

    Built from the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0,
    i.e. B_m = -(1/(m+1)) * sum_{j<m} C(m+1, j) B_j, onto the table of
    the B_j already built, so B_0..B_n take one pass in all.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    for m in range(len(_BERNOULLI), n + 1):
        acc = Fraction(0)
        for j, b in enumerate(_BERNOULLI):
            if b:
                acc += comb(m + 1, j) * b
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number in the unsigned topologists' convention.

    This is |B_{2k}| in the standard indexing, so the sequence runs
    1/6, 1/30, 1/42, 1/30, 5/66, ... for k = 1, 2, 3, 4, 5, ...
    The index k = 0 is deliberately rejected: the unsigned convention
    starts at k = 1.
    """
    if k < 1:
        raise ValueError("unsigned Bernoulli convention starts at k = 1")
    return abs(standard_bernoulli(2 * k))


def _sinh_ratio_series(order: int, scale: Fraction) -> PowerSeries:
    """sum_m scale^m z^m / (2m+1)!  (sinh(sqrt(u))/sqrt(u) with u = scale*z)."""
    return PowerSeries(
        tuple(scale**m / factorial(2 * m + 1) for m in range(order + 1))
    )


def _cosh_series(order: int) -> PowerSeries:
    """sum_m z^m / (2m)!  (cosh(sqrt(z)) as a series in z)."""
    return PowerSeries(tuple(Fraction(1, factorial(2 * m)) for m in range(order + 1)))


def l_genus_series(order: int) -> PowerSeries:
    """Characteristic series sqrt(z)/tanh(sqrt(z)) of the signature genus.

    Computed by two unrelated routes and cross-checked term by term:

    1. the closed coefficient formula b_k = (-1)^(k-1) 2^(2k) B_k / (2k)!
       with B_k the unsigned Bernoulli numbers, and
    2. the series quotient cosh(sqrt(z)) / (sinh(sqrt(z))/sqrt(z)), both
       taken from the exponential series.

    Any disagreement raises, so a silent regression in either the series
    arithmetic or the Bernoulli values is impossible.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    closed = PowerSeries(
        [Fraction(1)]
        + [
            (-1) ** (k - 1) * Fraction(2 ** (2 * k), factorial(2 * k)) * bernoulli(k)
            for k in range(1, order + 1)
        ]
    )
    derived = _cosh_series(order) / _sinh_ratio_series(order, Fraction(1))
    if closed != derived:
        raise ArithmeticError(
            "closed-form and series-derived coefficients disagree; "
            "exact arithmetic is broken"
        )
    return closed


def a_hat_series(order: int) -> PowerSeries:
    """Characteristic series (sqrt(z)/2)/sinh(sqrt(z)/2).

    Assembled as 1 divided by sinh(sqrt(z)/2)/(sqrt(z)/2), whose z^m
    coefficient is (1/4)^m / (2m+1)!.  The first few coefficients are
    1, -1/24, 7/5760, -31/967680.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    one = PowerSeries([1] + [0] * order)
    return one / _sinh_ratio_series(order, Fraction(1, 4))
