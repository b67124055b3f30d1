"""Exact truncated-polynomial verification of the lattice identities.

The numeric modules can only check identities up to truncation estimates.
Here the same identities are established exactly: attach to each ground
element a of a set partition a family of commuting indeterminates
a_1, ..., a_N (one per summation level), build the four sum types as
honest polynomials with Fraction coefficients, and compare them term by
term.  Truncation at level N is innocuous because every identity in play
is an identity of formal series in these indeterminates; setting all
levels above N to zero preserves it.  A failure therefore pinpoints a
concrete first differing monomial rather than a numeric residual.

Ground elements are the integers 1..r of a SetPartition; a monomial is a
sorted tuple of (element, level) pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Mapping, Optional

from .partitions import SetPartition, coarsenings, mobius

__all__ = [
    "FormalPolynomial",
    "TERM_BUDGET",
    "check_size",
    "power_sum_poly",
    "monomial_poly",
    "signed_power_sum_poly",
    "chain_sum_poly_symmetrized",
    "IdentityReport",
    "check_mobius_inversion",
    "check_chain_inversion",
    "ChainInversionReport",
    "substitute_exact",
    "substitute_float",
]

TERM_BUDGET = 10**6
MAX_CHAIN_BLOCKS = 4

Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FormalPolynomial:
    """A polynomial in indeterminates tagged (element, level)."""

    terms: Mapping[Monomial, Fraction]
    level_cap: int

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        if self.level_cap != other.level_cap:
            raise ValueError("level caps differ")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            nv = out.get(mono, Fraction(0)) + c
            if nv:
                out[mono] = nv
            else:
                out.pop(mono, None)
        return FormalPolynomial(out, self.level_cap)

    def __sub__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalPolynomial":
        c = Fraction(c)
        if not c:
            return FormalPolynomial({}, self.level_cap)
        return FormalPolynomial(
            {mono: c * v for mono, v in self.terms.items()}, self.level_cap
        )

    def __mul__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        if self.level_cap != other.level_cap:
            raise ValueError("level caps differ")
        if len(self.terms) * len(other.terms) > TERM_BUDGET:
            raise ValueError(
                f"product would exceed the {TERM_BUDGET:,}-term budget"
            )
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(sorted(ma + mb))
                prev = out.get(key)
                prod = ca * cb
                out[key] = prod if prev is None else prev + prod
        return FormalPolynomial({m: c for m, c in out.items() if c}, self.level_cap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalPolynomial):
            return NotImplemented
        return self.level_cap == other.level_cap and dict(self.terms) == dict(
            other.terms
        )

    def first_difference(self, other: "FormalPolynomial") -> Optional[Monomial]:
        """Smallest monomial on which the two polynomials disagree, if any."""
        keys = set(self.terms) | set(other.terms)
        diffs = sorted(
            m
            for m in keys
            if self.terms.get(m, Fraction(0)) != other.terms.get(m, Fraction(0))
        )
        return diffs[0] if diffs else None


def check_size(blocks: int, level_cap: int, chained: bool = False) -> None:
    """Refuse a partition with this many blocks at this level cap.

    Every polynomial here has at most level_cap^blocks terms, which must
    fit TERM_BUDGET; chained symmetrization also needs at most
    MAX_CHAIN_BLOCKS blocks.
    """
    if level_cap < 1:
        raise ValueError("level cap must be at least 1")
    if level_cap**blocks > TERM_BUDGET:
        raise ValueError(
            f"cap^blocks = {level_cap}^{blocks} exceeds the "
            f"{TERM_BUDGET:,}-term budget"
        )
    if chained and blocks > MAX_CHAIN_BLOCKS:
        raise ValueError(
            f"chained symmetrization supports at most {MAX_CHAIN_BLOCKS} blocks"
        )


def _block_factor(block: tuple[int, ...], n: int) -> Monomial:
    return tuple(sorted((a, n) for a in block))


def power_sum_poly(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """prod over blocks B of (sum_{n<=N} prod_{a in B} a_n): free nested sums."""
    check_size(pi.length, level_cap)
    result = FormalPolynomial({(): Fraction(1)}, level_cap)
    for block in pi.blocks:
        factor = FormalPolynomial(
            {_block_factor(block, n): Fraction(1) for n in range(1, level_cap + 1)},
            level_cap,
        )
        result = result * factor
    return result


def signed_power_sum_poly(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """Like power_sum_poly but each term carries (-1)^(sum of levels)."""
    check_size(pi.length, level_cap)
    result = FormalPolynomial({(): Fraction(1)}, level_cap)
    for block in pi.blocks:
        factor = FormalPolynomial(
            {
                _block_factor(block, n): Fraction(-1 if n % 2 else 1)
                for n in range(1, level_cap + 1)
            },
            level_cap,
        )
        result = result * factor
    return result


def monomial_poly(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """Sum over assignments of pairwise distinct levels to the blocks."""
    check_size(pi.length, level_cap)
    terms: dict[Monomial, Fraction] = {}
    blocks = pi.blocks
    for levels in itertools.permutations(range(1, level_cap + 1), len(blocks)):
        mono = tuple(
            sorted(
                pair
                for block, n in zip(blocks, levels)
                for pair in _block_factor(block, n)
            )
        )
        terms[mono] = terms.get(mono, Fraction(0)) + 1
    return FormalPolynomial(terms, level_cap)


def chain_sum_poly_symmetrized(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """Signed chained sums, added over all orderings of the blocks.

    For each of the len(pi)! block orderings, levels run over chains
    n_1 >=' n_2 >=' ... >=' n_r with every index <= the cap, where
    equality is permitted only at even shared values; each term carries
    the sign (-1)^(n_1 + ... + n_r).  This is the exact-polynomial twin
    of series.symmetrize("T", ...).
    """
    check_size(pi.length, level_cap, chained=True)
    r = pi.length
    terms: dict[Monomial, Fraction] = {}
    for ordered in itertools.permutations(pi.blocks):
        chain: list[int] = []

        def rec(position: int) -> None:
            if position == r:
                mono = tuple(
                    sorted(
                        pair
                        for block, n in zip(ordered, chain)
                        for pair in _block_factor(block, n)
                    )
                )
                sign = -1 if sum(chain) % 2 else 1
                nv = terms.get(mono, Fraction(0)) + sign
                if nv:
                    terms[mono] = nv
                else:
                    terms.pop(mono, None)
                return
            if position == 0:
                candidates = range(1, level_cap + 1)
            else:
                prev = chain[-1]
                top = prev + 1 if prev % 2 == 0 else prev
                candidates = range(1, top)
            for n in candidates:
                chain.append(n)
                rec(position + 1)
                chain.pop()

        rec(0)
    return FormalPolynomial(terms, level_cap)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact polynomial comparison."""

    name: str
    ok: bool
    first_diff: Optional[Monomial] = None
    lhs_coeff: Optional[Fraction] = None
    rhs_coeff: Optional[Fraction] = None

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: exact match"
        return (
            f"{self.name}: first differing monomial {self.first_diff}, "
            f"lhs {self.lhs_coeff}, rhs {self.rhs_coeff}"
        )


def _compare(name: str, lhs: FormalPolynomial, rhs: FormalPolynomial) -> IdentityReport:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return IdentityReport(name, True)
    return IdentityReport(
        name,
        False,
        diff,
        lhs.terms.get(diff, Fraction(0)),
        rhs.terms.get(diff, Fraction(0)),
    )


def check_mobius_inversion(pi: SetPartition, level_cap: int) -> IdentityReport:
    """Distinct-level sums from free sums by Mobius inversion, exactly.

    Verifies  monomial(pi) = sum over rho >= pi of mu(pi, rho) * power_sum(rho).
    """
    lhs = monomial_poly(pi, level_cap)
    rhs = FormalPolynomial({}, level_cap)
    for rho, _ in coarsenings(pi):
        rhs = rhs + power_sum_poly(rho, level_cap).scale(mobius(pi, rho))
    return _compare(f"mobius-inversion[{pi!r},N={level_cap}]", lhs, rhs)


@dataclass(frozen=True)
class ChainInversionReport:
    """The two directions of the chained-sum / signed-sum inversion."""

    chain_from_signed: IdentityReport
    signed_from_chain: IdentityReport

    @property
    def ok(self) -> bool:
        return self.chain_from_signed.ok and self.signed_from_chain.ok


def check_chain_inversion(pi: SetPartition, level_cap: int) -> ChainInversionReport:
    """Both exact inversions tying chained sums to signed free sums.

    Direction one expresses the symmetrized chained sum through signed
    free sums of coarsenings:

        (-1)^len(pi) chain(pi) =
            sum_{rho >= pi} (-1)^len(rho) mu(pi, rho) signed(rho)

    Direction two inverts it:

        (-1)^len(pi) signed(pi) = sum_{rho >= pi} (-1)^len(rho) chain(rho)

    Both sides are exact polynomials; each report carries the first
    differing monomial on failure.
    """
    sign_pi = -1 if pi.length % 2 else 1

    lhs1 = chain_sum_poly_symmetrized(pi, level_cap).scale(sign_pi)
    rhs1 = FormalPolynomial({}, level_cap)
    for rho, _ in coarsenings(pi):
        sign_rho = -1 if rho.length % 2 else 1
        rhs1 = rhs1 + signed_power_sum_poly(rho, level_cap).scale(
            sign_rho * mobius(pi, rho)
        )
    first = _compare(f"chain-from-signed[{pi!r},N={level_cap}]", lhs1, rhs1)

    lhs2 = signed_power_sum_poly(pi, level_cap).scale(sign_pi)
    rhs2 = FormalPolynomial({}, level_cap)
    for rho, _ in coarsenings(pi):
        sign_rho = -1 if rho.length % 2 else 1
        rhs2 = rhs2 + chain_sum_poly_symmetrized(rho, level_cap).scale(sign_rho)
    second = _compare(f"signed-from-chain[{pi!r},N={level_cap}]", lhs2, rhs2)

    return ChainInversionReport(first, second)


def substitute_exact(
    poly: FormalPolynomial, exponents: Mapping[int, int]
) -> Fraction:
    """Evaluate with a_n -> n^(-s_a) for integer exponents, exactly."""
    total = Fraction(0)
    for mono, c in poly.terms.items():
        term = c
        for element, level in mono:
            term *= Fraction(1, level ** exponents[element])
        total += term
    return total


def substitute_float(poly: FormalPolynomial, exponents: Mapping[int, float]) -> float:
    """Evaluate with a_n -> n^(-s_a) in floats, compensated at the end."""
    terms = []
    for mono, c in poly.terms.items():
        term = float(c)
        for element, level in mono:
            term *= float(level) ** (-exponents[element])
        terms.append(term)
    return fsum(terms)
