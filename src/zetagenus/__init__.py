"""Exact multiplicative-sequence coefficients and zeta-series checks.

The package computes coefficients of the polynomial sequences attached
to a characteristic power series (the classical signature and spinor
sequences, or any custom series) in exact rational arithmetic, converts
between symmetric-function bases, evaluates the nested and chained
zeta-type series the coefficients are known to equal, and machine-checks
the identities tying the two worlds together, both numerically and as
exact truncated-polynomial statements.  The package namespace holds
what the demos and the README use; the rest is in the submodules.
Importing the package loads no submodule: each exported name imports
its home module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name and the submodule that defines it
_EXPORTS = {
    "SetPartition": "partitions",
    "integer_partitions": "partitions",
    "enumerate_set_partitions": "partitions",
    "mobius": "partitions",
    "stirling2": "partitions",
    "bell_number": "partitions",
    "alternating_length_sum": "partitions",
    "GenusSpec": "genus",
    "leading_coefficients": "genus",
    "coefficient_closed_form": "genus",
    "coefficient_table": "genus",
    "coefficient_table_oracle": "genus",
    "EvalConfig": "series",
    "zeta": "series",
    "dirichlet_eta": "series",
    "multiple_zeta": "series",
    "multiple_zeta_star": "series",
    "alternating_chain_sum": "series",
    "alternating_chain_tail": "series",
    "symmetrize": "series",
    "power_sum_poly": "formal",
    "monomial_poly": "formal",
    "chain_sum_poly_symmetrized": "formal",
    "sum_over_coarsenings": "formal",
    "check_mobius_inversion": "formal",
    "check_chain_inversion": "formal",
    "substitute_exact": "formal",
    "substitute_float": "formal",
    "render_poly_text": "render",
    "render_poly_latex": "render",
    "run_suite": "verify",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    """Import an exported name's home module on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
