"""Exact multiplicative-sequence coefficients and zeta-series checks.

The package computes coefficients of the polynomial sequences attached
to a characteristic power series (the classical signature and spinor
sequences, or any custom series) in exact rational arithmetic, converts
between symmetric-function bases, evaluates the nested and chained
zeta-type series the coefficients are known to equal, and machine-checks
the identities tying the two worlds together, both numerically and as
exact truncated-polynomial statements.
"""

from .exact import (
    PowerSeries,
    Rational,
    a_hat_series,
    bernoulli,
    l_genus_series,
    standard_bernoulli,
)
from .formal import (
    FormalPolynomial,
    chain_sum_poly_symmetrized,
    check_chain_inversion,
    check_mobius_inversion,
    monomial_poly,
    power_sum_poly,
    substitute_exact,
    substitute_float,
)
from .genus import (
    CoefficientTable,
    GenusSpec,
    coefficient_closed_form,
    coefficient_table,
    coefficient_table_oracle,
    leading_coefficients,
    monomial_to_power_sum,
)
from .partitions import (
    IntegerPartition,
    SetPartition,
    alternating_length_sum,
    bell_number,
    coarsenings,
    enumerate_set_partitions,
    integer_partitions,
    iter_set_partitions,
    merge_blocks,
    mobius,
    refinement_witness,
    stirling2,
)
from .render import (
    parse_table_json,
    render_poly_json,
    render_poly_latex,
    render_poly_text,
    render_table_csv,
    render_table_json,
)
from .series import (
    EvalConfig,
    SeriesValue,
    alternating_chain_sum,
    alternating_chain_tail,
    alternating_chain_tail_family,
    bottom_block_residual,
    default_config,
    dirichlet_eta,
    dirichlet_eta_even_exact,
    innermost_peel_residual,
    multiple_zeta,
    multiple_zeta_star,
    symmetrize,
    zeta,
    zeta_even_exact,
)
from .verify import CheckResult, SuiteReport, available_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "PowerSeries",
    "standard_bernoulli",
    "bernoulli",
    "l_genus_series",
    "a_hat_series",
    "IntegerPartition",
    "SetPartition",
    "integer_partitions",
    "iter_set_partitions",
    "enumerate_set_partitions",
    "merge_blocks",
    "coarsenings",
    "refinement_witness",
    "mobius",
    "stirling2",
    "bell_number",
    "alternating_length_sum",
    "GenusSpec",
    "CoefficientTable",
    "leading_coefficients",
    "coefficient_closed_form",
    "coefficient_table",
    "coefficient_table_oracle",
    "monomial_to_power_sum",
    "EvalConfig",
    "SeriesValue",
    "default_config",
    "zeta",
    "zeta_even_exact",
    "dirichlet_eta",
    "dirichlet_eta_even_exact",
    "multiple_zeta",
    "multiple_zeta_star",
    "alternating_chain_sum",
    "alternating_chain_tail",
    "alternating_chain_tail_family",
    "symmetrize",
    "innermost_peel_residual",
    "bottom_block_residual",
    "FormalPolynomial",
    "power_sum_poly",
    "monomial_poly",
    "chain_sum_poly_symmetrized",
    "check_mobius_inversion",
    "check_chain_inversion",
    "substitute_exact",
    "substitute_float",
    "render_poly_text",
    "render_poly_latex",
    "render_poly_json",
    "render_table_csv",
    "render_table_json",
    "parse_table_json",
    "CheckResult",
    "SuiteReport",
    "available_suites",
    "run_suite",
]
