"""The set-partition lattice and exact truncated index sums.

The bridge between coefficient tables and nested series runs through the
lattice of set partitions under refinement.  This walkthrough enumerates a
small lattice, evaluates its Moebius function, and then replays the key
inversions as exact polynomial identities over a finite level set
{1, ..., N}: every index variable becomes a formal sum over its levels, so
both sides of each identity are literal polynomials with integer
coefficients and equality is term-by-term.

Run:  python3 demos/03_lattice_identities.py
"""

from fractions import Fraction
from math import factorial

from zetagenus import (
    SetPartition,
    alternating_length_sum,
    bell_number,
    chain_sum_poly_symmetrized,
    check_chain_inversion,
    check_mobius_inversion,
    enumerate_set_partitions,
    mobius,
    monomial_poly,
    power_sum_poly,
    stirling2,
    substitute_exact,
    substitute_float,
    sum_over_coarsenings,
    symmetrize,
    EvalConfig,
)

# ---------------------------------------------------------------------------
# The lattice on three elements
# ---------------------------------------------------------------------------

print("Set partitions of {1,2,3}, refinement order, with mu(pi, top):")
top = SetPartition.from_blocks([(1, 2, 3)])
for sp in enumerate_set_partitions(3):
    blocks = " | ".join("".join(map(str, b)) for b in sp.blocks)
    print(f"  {blocks:13s} length {sp.length}   mu = {mobius(sp, top):+d}")
print()

print("Counting: Bell and Stirling numbers up to n = 6")
for n in range(1, 7):
    row = [stirling2(n, k) for k in range(1, n + 1)]
    print(f"  n={n}: Bell {bell_number(n):3d} = sum {row}")
print()

print("Alternating length sums (Stirling route vs direct enumeration):")
for n in range(1, 10):
    stirling_route = alternating_length_sum(n)
    direct = sum(
        (-1) ** sp.length * factorial(sp.length)
        for sp in enumerate_set_partitions(n)
    )
    assert stirling_route == direct == (-1) ** n
    print(f"  n={n}: sum of (-1)^l l! over partitions = {stirling_route} = (-1)^{n}")
print()

# ---------------------------------------------------------------------------
# Power sums versus monomials, exactly
# ---------------------------------------------------------------------------
# p_pi replaces each block by a diagonal level sum with no constraint between
# blocks; m_rho forces distinct blocks onto distinct levels.  Grouping the
# unconstrained sum by which blocks collide gives p_pi = sum of m_rho over
# all coarsenings rho >= pi.

N = 4
pi = SetPartition.from_blocks([(1,), (2,), (3,)])
assert sum_over_coarsenings(pi, N, monomial_poly) == power_sum_poly(pi, N)
print(f"p_pi = sum of m_rho over the {bell_number(3)} coarsenings: exact at N = {N}.")

# Moebius inversion turns that triangular system upside down.
for sp in enumerate_set_partitions(3):
    report = check_mobius_inversion(sp, N)
    assert report.ok, report
print("Moebius inversion m = sum mu * p: exact for every partition of 3 elements.")

# The chained alternating sums admit the same two-way inversion against the
# signed power sums.
for sp in enumerate_set_partitions(3):
    report = check_chain_inversion(sp, N)
    assert report.ok
print("Chain-sum inversions: exact in both directions for all of Pi_3.")
print()

# ---------------------------------------------------------------------------
# Substitution: from formal polynomials back to numbers
# ---------------------------------------------------------------------------
# Substituting 1/level^e for each variable turns the formal identities into
# the truncated numeric sums.  Exact substitution keeps Fractions end to end.

pair = SetPartition.from_blocks([(1,), (2,)])
poly = power_sum_poly(pair, 6)
h2 = sum(Fraction(1, n**2) for n in range(1, 7))
value = substitute_exact(poly, {1: 2, 2: 2})
assert value == h2 * h2
print(f"Exact substitution: p at exponent 2, N=6 gives (H_6^(2))^2 = {value}.")

# Float substitution of the symmetrized chain polynomial reproduces the
# numeric evaluator at the same depth, to float rounding.
N = 50
chain = chain_sum_poly_symmetrized(pair, N)
formal = substitute_float(chain, {1: 2.0, 2: 2.0})
numeric = symmetrize("T", (2.0, 2.0), EvalConfig(N)).value
print(f"Float substitution vs numeric evaluator at depth {N}:")
print(f"  formal  {formal:.15f}")
print(f"  numeric {numeric:.15f}")
print(f"  residual {abs(formal - numeric):.1e}")
