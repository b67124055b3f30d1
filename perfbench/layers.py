"""Fixed-input timings of each layer's public functions.

Each entry prepares its inputs, then times one call.  probe.py runs
every entry in its own process, forked from an interpreter that has
imported zetagenus and called nothing, so every lru_cache starts empty.
Inputs never depend on the seed.
"""

from __future__ import annotations

import os
import tempfile
from time import perf_counter

import checks
import reference


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _exact(name: str):
    from zetagenus import exact

    if name == "l_series":
        return _timed(exact.l_genus_series, 12)
    if name == "a_hat_series":
        return _timed(exact.a_hat_series, 12)
    return _timed(exact.standard_bernoulli, 40)


def _table(genus: str, k: int) -> float:
    from zetagenus.genus import GenusSpec, coefficient_table

    spec = GenusSpec.l_genus(k) if genus == "L" else GenusSpec.a_hat(k)
    return _timed(coefficient_table, spec, k)


def _oracle(k: int) -> float:
    from zetagenus.genus import GenusSpec, coefficient_table_oracle

    return _timed(coefficient_table_oracle, GenusSpec.l_genus(k), k)


def _leading() -> float:
    from zetagenus.genus import GenusSpec, leading_coefficients

    return _timed(leading_coefficients, GenusSpec.l_genus(20), 20)


def _series(fn_name: str, *args, depth: int) -> float:
    from zetagenus import series

    return _timed(getattr(series, fn_name), *args, series.EvalConfig(depth))


def _formal(fn_name: str) -> float:
    from zetagenus import formal
    from zetagenus.partitions import SetPartition

    finest = SetPartition((0, 1, 2, 3))
    return _timed(getattr(formal, fn_name), finest, 5)


def _l_tables(max_k: int):
    """CoefficientTable objects for L built from the reference, not the program."""
    from zetagenus.genus import CoefficientTable
    from zetagenus.partitions import IntegerPartition

    ref = reference.tables("L", max_k)
    return {k: CoefficientTable(k, {IntegerPartition(p): c for p, c in ref[k].items()})
            for k in range(1, max_k + 1)}


def _render(what: str) -> float:
    from zetagenus import render
    from zetagenus.genus import GenusSpec

    tables = _l_tables(12)
    if what == "table_csv":
        return _timed(render.render_table_csv, tables)
    if what == "table_json":
        return _timed(render.render_table_json, "L", 12, tables)
    if what == "poly_text":
        return _timed(render.render_poly_text, tables[12])
    if what == "poly_latex":
        return _timed(render.render_poly_latex, tables[12])
    if what == "parse_table_json":
        return _timed(render.parse_table_json, render.render_table_json("L", 12, tables))
    genus = GenusSpec.l_genus(12)
    fd, path = tempfile.mkstemp(suffix=".json", dir=os.environ["PERFBENCH_WORK"])
    os.close(fd)
    if what == "cache_write":
        return _timed(render.write_cache, path, genus, tables)
    render.write_cache(path, genus, tables)
    return _timed(render.read_cache, path, genus)


def _partitions(what: str) -> float:
    from zetagenus import partitions

    if what == "set":
        return _timed(partitions.enumerate_set_partitions, 10)
    return _timed(partitions.integer_partitions, 20)


def _monomial() -> float:
    from zetagenus.genus import monomial_to_power_sum

    return _timed(monomial_to_power_sum, (1,) * 10)


EQ5 = [2.0] * 5
MIXED5 = [2.0, 2.0, 4.0, 6.0, 8.0]

FIXED = {
    "exact.l_series_s.o12": lambda: _exact("l_series"),
    "exact.a_hat_series_s.o12": lambda: _exact("a_hat_series"),
    "exact.bernoulli_s.n40": lambda: _exact("bernoulli"),
    "partitions.set_partitions_s.r10": lambda: _partitions("set"),
    "partitions.integer_partitions_s.k20": lambda: _partitions("integer"),
    "genus.table_s.k10": lambda: _table("L", 10),
    "genus.table_s.k11": lambda: _table("L", 11),
    "genus.table_s.k12": lambda: _table("L", 12),
    "genus.table_s.ahat.k12": lambda: _table("Ahat", 12),
    "genus.leading_s.k20": _leading,
    "genus.monomial_to_power_sum_s.w10": _monomial,
    "genus.oracle_s.k6": lambda: _oracle(6),
    "genus.oracle_s.k8": lambda: _oracle(8),
    "series.chain_s.d200k.r3": lambda: _series("alternating_chain_sum", [2.0, 2.5, 3.0], depth=200_000),
    "series.chain_s.d200k.r6": lambda: _series(
        "alternating_chain_sum", [2.0, 2.5, 3.0, 3.5, 4.0, 4.5], depth=200_000),
    "series.star_s.d2m.r1": lambda: _series("multiple_zeta_star", [2.0], depth=2_000_000),
    "series.star_s.d2m.r4": lambda: _series("multiple_zeta_star", [2.0, 4.0, 6.0, 8.0], depth=2_000_000),
    "series.symmetrize_s.T.eq5": lambda: _series("symmetrize", "T", EQ5, depth=200_000),
    "series.symmetrize_s.T.mixed5": lambda: _series("symmetrize", "T", MIXED5, depth=200_000),
    "series.symmetrize_s.S.eq3": lambda: _series("symmetrize", "S", [2.0] * 3, depth=2_000_000),
    "series.zeta_s.d50k": lambda: _series("zeta", 2.5, depth=50_000),
    "series.zeta_s.d1m": lambda: _series("zeta", 2.5, depth=1_000_000),
    "series.eta_s.d1m": lambda: _series("dirichlet_eta", 2.5, depth=1_000_000),
    "series.strict_s.d50k.r3": lambda: _series("multiple_zeta", [2.5, 2.0, 1.5], depth=50_000),
    "series.tail_family_s.d50k.r2": lambda: _series(
        "alternating_chain_tail_family", [2.5, 2.0], depth=50_000),
    "series.peel_s.d50k.r3": lambda: _series("innermost_peel_residual", [2.5, 2.0, 1.5], depth=50_000),
    "series.block_s.d50k.r3": lambda: _series("bottom_block_residual", 1, [2.5, 2.0, 1.5], depth=50_000),
    "formal.power_sum_s.r4n5": lambda: _formal("power_sum_poly"),
    "formal.chain_sym_s.r4n5": lambda: _formal("chain_sum_poly_symmetrized"),
    "formal.mobius_s.r4n5": lambda: _formal("check_mobius_inversion"),
    "formal.chain_inversion_s.r4n5": lambda: _formal("check_chain_inversion"),
    "render.table_csv_s.k12": lambda: _render("table_csv"),
    "render.table_json_s.k12": lambda: _render("table_json"),
    "render.poly_text_s.k12": lambda: _render("poly_text"),
    "render.poly_latex_s.k12": lambda: _render("poly_latex"),
    "render.cache_write_s.k12": lambda: _render("cache_write"),
    "render.cache_read_s.k12": lambda: _render("cache_read"),
    "render.parse_table_json_s.k12": lambda: _render("parse_table_json"),
}


def derived(t: dict) -> dict:
    """Rates computed from the fixed timings: work done per second."""
    counts = sum(len(reference.partitions(k)) for k in (10, 11, 12))
    table_time = t["genus.table_s.k10"] + t["genus.table_s.k11"] + t["genus.table_s.k12"]
    return {
        "partitions.set_partitions_per_s": checks.bell(10) / t["partitions.set_partitions_s.r10"],
        "genus.coeffs_per_s": counts / table_time,
        "series.chain.elems_per_s": 200_000 * (3 + 6)
        / (t["series.chain_s.d200k.r3"] + t["series.chain_s.d200k.r6"]),
        "series.star.elems_per_s": 2_000_000 * (1 + 4)
        / (t["series.star_s.d2m.r1"] + t["series.star_s.d2m.r4"]),
    }
