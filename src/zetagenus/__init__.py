"""Exact multiplicative-sequence coefficients and zeta-series checks.

The package computes coefficients of the polynomial sequences attached
to a characteristic power series (the classical signature and spinor
sequences, or any custom series) in exact rational arithmetic, converts
between symmetric-function bases, evaluates the nested and chained
zeta-type series the coefficients are known to equal, and machine-checks
the identities tying the two worlds together, both numerically and as
exact truncated-polynomial statements.  The package namespace holds
what the demos and the README use; the rest is in the submodules.
"""

from .formal import (
    chain_sum_poly_symmetrized,
    check_chain_inversion,
    check_mobius_inversion,
    monomial_poly,
    power_sum_poly,
    substitute_exact,
    substitute_float,
)
from .genus import (
    GenusSpec,
    coefficient_closed_form,
    coefficient_table,
    coefficient_table_oracle,
    leading_coefficients,
)
from .partitions import (
    SetPartition,
    alternating_length_sum,
    bell_number,
    coarsenings,
    enumerate_set_partitions,
    integer_partitions,
    mobius,
    stirling2,
)
from .render import render_poly_latex, render_poly_text
from .series import (
    EvalConfig,
    alternating_chain_sum,
    alternating_chain_tail,
    dirichlet_eta,
    multiple_zeta,
    multiple_zeta_star,
    symmetrize,
    zeta,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SetPartition",
    "integer_partitions",
    "enumerate_set_partitions",
    "coarsenings",
    "mobius",
    "stirling2",
    "bell_number",
    "alternating_length_sum",
    "GenusSpec",
    "leading_coefficients",
    "coefficient_closed_form",
    "coefficient_table",
    "coefficient_table_oracle",
    "EvalConfig",
    "zeta",
    "dirichlet_eta",
    "multiple_zeta",
    "multiple_zeta_star",
    "alternating_chain_sum",
    "alternating_chain_tail",
    "symmetrize",
    "power_sum_poly",
    "monomial_poly",
    "chain_sum_poly_symmetrized",
    "check_mobius_inversion",
    "check_chain_inversion",
    "substitute_exact",
    "substitute_float",
    "render_poly_text",
    "render_poly_latex",
    "run_suite",
]
