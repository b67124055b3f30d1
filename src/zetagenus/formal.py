"""Exact truncated-polynomial verification of the lattice identities.

The numeric modules can only check identities up to truncation estimates.
Here the same identities are established exactly: attach to each ground
element a of a set partition a family of commuting indeterminates
a_1, ..., a_N (one per summation level), build the four sum types as
honest polynomials with integer coefficients, and compare them term by
term.  Truncation at level N is innocuous because every identity in play
is an identity of formal series in these indeterminates; setting all
levels above N to zero preserves it.  A failure therefore pinpoints a
concrete first differing monomial rather than a numeric residual.

Ground elements are the integers 1..r of a SetPartition; a monomial is a
sorted tuple of (element, level) pairs.  All four sums go through one
routine, _level_sum, that adds a monomial for each assignment of levels
to the blocks; they differ only in which assignments they pass (free,
pairwise distinct, or chained) and in the sign.  Each identity's
right-hand side is added up in one dict by sum_over_coarsenings.  A
suite run passes the checks a memo it owns, so that each polynomial is
built once per run, not once per partition below it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .partitions import SetPartition, coarsenings

__all__ = [
    "FormalPolynomial",
    "TERM_BUDGET",
    "check_size",
    "power_sum_poly",
    "monomial_poly",
    "chain_sum_poly_symmetrized",
    "sum_over_coarsenings",
    "IdentityReport",
    "check_mobius_inversion",
    "check_chain_inversion",
    "substitute_exact",
    "substitute_float",
]

TERM_BUDGET = 10**6
MAX_CHAIN_BLOCKS = 4

Monomial = tuple[tuple[int, int], ...]
Builder = Callable[[SetPartition, int], "FormalPolynomial"]


@dataclass(frozen=True)
class FormalPolynomial:
    """A polynomial in indeterminates tagged (element, level), with integer
    coefficients."""

    terms: Mapping[Monomial, int]

    def scale(self, c: int) -> "FormalPolynomial":
        if not c:
            return FormalPolynomial({})
        return FormalPolynomial({mono: c * v for mono, v in self.terms.items()})

    def first_difference(self, other: "FormalPolynomial") -> Optional[Monomial]:
        """Smallest monomial on which the two polynomials disagree, if any."""
        if self.terms == other.terms:
            return None
        keys = set(self.terms) | set(other.terms)
        return min((m for m in keys if self.terms.get(m, 0) != other.terms.get(m, 0)), default=None)


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


def _level_sum(
    pi: SetPartition,
    assignments: Iterable[tuple[int, ...]],
    level_cap: int,
    signed: bool = False,
) -> FormalPolynomial:
    """Sum over level assignments (one level per block of pi, in block
    order) of the monomial giving each element its block's level, times
    (-1)^(sum of levels) when signed.  The (element, level) pairs are built
    once and shared by every monomial that holds them."""
    pairs = [[[(a, n) for a in block] for n in range(level_cap + 1)] for block in pi.blocks]
    counts: dict[Monomial, int] = {}
    for levels in assignments:
        mono = tuple(sorted(p for at, n in zip(pairs, levels) for p in at[n]))
        counts[mono] = counts.get(mono, 0) + (-1 if signed and sum(levels) % 2 else 1)
    return FormalPolynomial({m: c for m, c in counts.items() if c})


def power_sum_poly(pi: SetPartition, level_cap: int, signed: bool = False) -> FormalPolynomial:
    """prod over blocks B of (sum_{n<=N} prod_{a in B} a_n): free nested
    sums; when signed, each term carries (-1)^(sum of levels)."""
    check_size(pi.length, level_cap)
    levels = itertools.product(range(1, level_cap + 1), repeat=pi.length)
    return _level_sum(pi, levels, level_cap, signed)


def monomial_poly(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """Sum over assignments of pairwise distinct levels to the blocks."""
    check_size(pi.length, level_cap)
    levels = itertools.permutations(range(1, level_cap + 1), pi.length)
    return _level_sum(pi, levels, level_cap)


def _chains(r: int, top: int) -> Iterator[tuple[int, ...]]:
    """Chains n_1 >=' ... >=' n_r of levels below top, where equality is
    permitted only at even shared values."""
    if r == 0:
        yield ()
        return
    for n in range(1, top):
        for rest in _chains(r - 1, n + 1 if n % 2 == 0 else n):
            yield (n, *rest)


def chain_sum_poly_symmetrized(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    """Signed chained sums, added over all orderings of the blocks.

    For each of the len(pi)! block orderings, levels run over chains
    n_1 >=' n_2 >=' ... >=' n_r with every index <= the cap, where
    equality is permitted only at even shared values; each term carries
    the sign (-1)^(n_1 + ... + n_r).  Giving the i-th block of an ordering
    the i-th chain level is giving the blocks, in their own order, a
    permutation of the chain.  This is the exact-polynomial twin of
    series.symmetrize("T", ...).
    """
    check_size(pi.length, level_cap, chained=True)
    levels = (
        perm
        for chain in _chains(pi.length, level_cap + 1)
        for perm in itertools.permutations(chain)
    )
    return _level_sum(pi, levels, level_cap, signed=True)


def _signed_power_sum_poly(pi: SetPartition, level_cap: int) -> FormalPolynomial:
    return power_sum_poly(pi, level_cap, signed=True)


def _memoized(build: Builder, polys: dict) -> Builder:
    """build, through polys, a memo keyed by (build, partition, level cap)
    that the caller owns."""

    def built(pi: SetPartition, level_cap: int) -> FormalPolynomial:
        key = (build, pi, level_cap)
        if key not in polys:
            polys[key] = build(pi, level_cap)
        return polys[key]

    return built


def sum_over_coarsenings(
    pi: SetPartition,
    level_cap: int,
    build: Builder,
    weight: Callable[[SetPartition, int], int] = lambda rho, mu: 1,
) -> FormalPolynomial:
    """sum over rho >= pi of weight(rho, mu(pi, rho)) * build(rho, level_cap),
    added into one dict."""
    acc: dict[Monomial, int] = {}
    for rho, mu in coarsenings(pi):
        w = weight(rho, mu)
        for mono, c in build(rho, level_cap).terms.items():
            acc[mono] = acc.get(mono, 0) + w * c
    return FormalPolynomial({m: c for m, c in acc.items() if c})


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact polynomial comparison."""

    name: str
    ok: bool
    first_diff: Optional[Monomial] = None
    lhs_coeff: Optional[int] = None
    rhs_coeff: Optional[int] = None

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
        lhs.terms.get(diff, 0),
        rhs.terms.get(diff, 0),
    )


def check_mobius_inversion(pi: SetPartition, level_cap: int, polys: Optional[dict] = None) -> IdentityReport:
    """Distinct-level sums from free sums by Mobius inversion, exactly.

    Verifies  monomial(pi) = sum over rho >= pi of mu(pi, rho) * power_sum(rho),
    building each polynomial once through the memo polys (by default, one
    of this call alone).
    """
    polys = {} if polys is None else polys
    lhs = _memoized(monomial_poly, polys)(pi, level_cap)
    rhs = sum_over_coarsenings(pi, level_cap, _memoized(power_sum_poly, polys), lambda rho, mu: mu)
    return _compare(f"mobius-inversion[{pi!r},N={level_cap}]", lhs, rhs)


def check_chain_inversion(pi: SetPartition, level_cap: int, polys: Optional[dict] = None) -> IdentityReport:
    """Both exact inversions tying chained sums to signed free sums.

    Direction one expresses the symmetrized chained sum through signed
    free sums of coarsenings:

        (-1)^len(pi) chain(pi) =
            sum_{rho >= pi} (-1)^len(rho) mu(pi, rho) signed(rho)

    Direction two inverts it:

        (-1)^len(pi) signed(pi) = sum_{rho >= pi} (-1)^len(rho) chain(rho)

    Both sides are exact polynomials.  The report is the first direction
    that fails, with its first differing monomial, or else the passing
    report of direction two.  Polynomials are built through polys, as in
    check_mobius_inversion.
    """
    polys = {} if polys is None else polys
    chain = _memoized(chain_sum_poly_symmetrized, polys)
    signed = _memoized(_signed_power_sum_poly, polys)
    lhs1 = chain(pi, level_cap).scale((-1) ** pi.length)
    rhs1 = sum_over_coarsenings(pi, level_cap, signed, lambda rho, mu: (-1) ** rho.length * mu)
    first = _compare(f"chain-from-signed[{pi!r},N={level_cap}]", lhs1, rhs1)
    if not first.ok:
        return first

    lhs2 = signed(pi, level_cap).scale((-1) ** pi.length)
    rhs2 = sum_over_coarsenings(pi, level_cap, chain, lambda rho, mu: (-1) ** rho.length)
    return _compare(f"signed-from-chain[{pi!r},N={level_cap}]", lhs2, rhs2)


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
