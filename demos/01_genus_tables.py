"""Exact coefficient tables for multiplicative sequences.

A multiplicative sequence is a family of polynomials K_1, K_2, ... in the
variables p_1, p_2, ..., determined by a characteristic power series
Q(z) = 1 + b_1 z + b_2 z^2 + ...  This walkthrough builds the two classical
sequences, prints their exact low-degree tables, and shows how to define a
genus of your own from raw series coefficients.

Run:  python3 demos/01_genus_tables.py
"""

from fractions import Fraction

from zetagenus import (
    GenusSpec,
    coefficient_closed_form,
    coefficient_table,
    coefficient_table_oracle,
    leading_coefficients,
    render_poly_latex,
    render_poly_text,
)

# ---------------------------------------------------------------------------
# The two built-in genera
# ---------------------------------------------------------------------------
# The signature genus has Q(z) = sqrt(z)/tanh(sqrt(z)); the spinor genus has
# Q(z) = (sqrt(z)/2)/sinh(sqrt(z)/2).  Both constructors take the series
# order, which bounds the largest degree you can ask for.

signature = GenusSpec.l_genus(8)
spinor = GenusSpec.a_hat(8)

print("Characteristic series, first terms:")
print("  signature:", ", ".join(str(c) for c in signature.series.coefficients[:4]))
print("  spinor:   ", ", ".join(str(c) for c in spinor.series.coefficients[:4]))
print()

# ---------------------------------------------------------------------------
# Full polynomials, rendered
# ---------------------------------------------------------------------------

print("Signature polynomials:")
for k in (1, 2, 3):
    print(f"  K_{k} =", render_poly_text(coefficient_table(signature, k)))
print()

print("Spinor polynomials:")
for k in (1, 2, 3):
    print(f"  K_{k} =", render_poly_text(coefficient_table(spinor, k)))
print()

print("The same, as LaTeX:")
print(" ", render_poly_latex(coefficient_table(signature, 2)))
print(" ", render_poly_latex(coefficient_table(spinor, 3)))
print()

# ---------------------------------------------------------------------------
# Single coefficients
# ---------------------------------------------------------------------------
# coefficient_closed_form is the paper's formula: a signed sum over set
# partitions of the parts, weighted by the leading coefficients lambda_k.
# It needs no lower degree, only Bell(r) terms for a partition with r parts.

print("Isolated coefficients:")
for parts in [(2, 1), (4,), (3, 2, 1), (2, 2, 2, 2)]:
    value = coefficient_closed_form(signature, parts)
    label = "+".join(map(str, parts))
    print(f"  signature [{label}] = {value}")
print()

# ---------------------------------------------------------------------------
# Leading coefficients
# ---------------------------------------------------------------------------
# lambda_k, the coefficient of the single-part partition (k), comes from
# Newton's identities applied to the series coefficients.

lams = leading_coefficients(signature, 6)
print("Signature leading coefficients lambda_1..lambda_6:")
for k, lam in enumerate(lams, start=1):
    print(f"  lambda_{k} = {lam}")
print()

# ---------------------------------------------------------------------------
# An independent oracle
# ---------------------------------------------------------------------------
# coefficient_table builds whole degrees from the log/exp recurrence.
# coefficient_table_oracle recomputes a degree on partitions alone: the
# coefficient of the monomial x^lambda in prod Q(x_i) is prod b_{lambda_i},
# and in e_mu it counts 0-1 matrices with margins (lambda, mu), a triangular
# system.  It shares no code path with the other two routes, which makes it
# a real referee.

k = 5
oracle = coefficient_table_oracle(signature, k)
assert oracle == coefficient_table(signature, k)
assert all(coefficient_closed_form(signature, J) == c for J, c in oracle.items())
print(f"Oracle, recurrence and closed form agree at degree {k}.")
print()

# ---------------------------------------------------------------------------
# User-defined genera
# ---------------------------------------------------------------------------
# Any series with constant term 1 defines a genus.  Here is the series
# Q(z) = 1/(1 - z), whose associated polynomials collect every partition
# with coefficient depending only on its shape.

geometric = GenusSpec.from_coefficients("geometric", [Fraction(1)] * 7)
print("Genus of Q(z) = 1/(1-z):")
for k in (1, 2, 3):
    print(f"  K_{k} =", render_poly_text(coefficient_table(geometric, k)))
