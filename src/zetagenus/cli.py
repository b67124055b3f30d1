"""Command-line surface: coefficients, polynomials, tables, verification.

Four subcommands:

* coeff   one exact coefficient as p/q
* poly    a full degree-k polynomial as text, LaTeX, or JSON
* table   all coefficients up to a degree, exported CSV or JSON, with an
          optional JSON cache reused across runs
* verify  one named verification suite with configurable depth,
          tolerance, and seed

Exit codes: 0 all good, 1 a mathematical check failed, 2 usage or
configuration error.  An input past a supported range (degree, ground
size, term budget) exits 2 before any work.  Every flag can also be set
through an environment variable ZETAGENUS_<COMMAND>_<FLAG>, e.g.
ZETAGENUS_VERIFY_DEPTH.  Each command imports the modules it runs in its
own body, so a launch loads (and, without bytecode, compiles) only those:
an exact verify suite does not load numeric, which holds the numeric ones.
main() sets OPENBLAS_NUM_THREADS=1 unless it is set: no command calls BLAS.
It runs the numeric verify suites on every CPU the process may use
(os.sched_getaffinity), in children forked after every refusal, to the same
report bytes; cli called in process, or one CPU, runs them serially.
After click exits, main() flushes stdout and stderr and calls os._exit with
its code: commands close their files, and teardown only collects garbage.

A genus is named "L" or "Ahat", or is a path to a JSON file of the form
{"name": ..., "coefficients": [{"num": "1", "den": "1"}, ...]} listing
the characteristic series coefficients from the constant term (which
must be 1) upward.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Optional

import click

if TYPE_CHECKING:
    from .genus import GenusSpec

__all__ = ["cli", "main", "ConfigError"]


class ConfigError(click.ClickException):
    """Usage or configuration problem; reserved exit code 2."""

    exit_code = 2


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.replace(" ", "").split(","))
    except ValueError:
        raise ConfigError(f"partition {text!r} is not a comma list of integers")
    if not parts or any(p < 1 for p in parts):
        raise ConfigError("partition parts must be positive integers")
    return parts


def _load_genus(name: str, order: int) -> GenusSpec:
    """Resolve a genus name or a custom-series JSON path for degrees up to
    order.  An order past the cap is refused first, before any series is
    built; after this, the exact routes the commands call raise no ValueError."""
    from .genus import NAMED, GenusSpec, check_table_degree
    try:
        check_table_degree(order)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if name in NAMED:
        return NAMED[name](order)
    if not os.path.exists(name):
        raise ConfigError(
            f"unknown genus {name!r}: expected L, Ahat, or a JSON file path"
        )
    import json
    from .render import decode_rational
    try:
        with open(name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        coeffs = [decode_rational(e) for e in doc["coefficients"]]
        genus = GenusSpec.from_coefficients(str(doc["name"]), coeffs)
    except (OSError, KeyError, RecursionError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot load genus from {name}: {exc}")
    if genus.order < order:
        raise ConfigError(
            f"genus {genus.name!r} provides coefficients through degree "
            f"{genus.order}, but degree {order} is required"
        )
    return genus


def _emit(text: str, out: Optional[str]) -> None:
    """Write text as it is, to stdout or to the file out."""
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}")


@click.group()
def cli() -> None:
    """Exact coefficients of multiplicative polynomial sequences, with
    numeric verification against nested zeta-type series."""


@cli.command()
@click.option("--genus", required=True, help="L, Ahat, or a series JSON path.")
@click.option("--partition", required=True, help="Comma list, e.g. 2,1.")
@click.option("--out", default=None, help="Write to file instead of stdout.")
def coeff(genus: str, partition: str, out: Optional[str]) -> None:
    """Print one exact coefficient as a reduced fraction."""
    from .genus import coefficient_closed_form
    parts = _parse_partition(partition)
    spec = _load_genus(genus, sum(parts))
    _emit(f"{coefficient_closed_form(spec, parts)}\n", out)


@cli.command()
@click.option("--genus", required=True, help="L, Ahat, or a series JSON path.")
@click.option("--k", required=True, type=int, help="Degree of the polynomial.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "latex", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", default=None, help="Write to file instead of stdout.")
def poly(genus: str, k: int, fmt: str, out: Optional[str]) -> None:
    """Print the whole degree-k polynomial in power-sum variables."""
    from .genus import coefficient_table
    from .render import render_poly_json, render_poly_latex, render_poly_text
    if k < 0:
        raise ConfigError("k must be nonnegative")
    spec = _load_genus(genus, max(k, 1))
    table = coefficient_table(spec, k) if k >= 1 else None
    if fmt == "text":
        rendered = render_poly_text(table)
    elif fmt == "latex":
        rendered = render_poly_latex(table)
    else:
        rendered = render_poly_json(spec.name, k, table)
    _emit(rendered + "\n", out)


@cli.command()
@click.option("--genus", required=True, help="L, Ahat, or a series JSON path.")
@click.option("--max-k", required=True, type=int, help="Largest degree to export.")
@click.option("--out", required=True, help="Destination file.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@click.option("--cache", default=None, help="JSON cache file reused across runs.")
def table(genus: str, max_k: int, out: str, fmt: str, cache: Optional[str]) -> None:
    """Export every coefficient for degrees 1..max-k to a file."""
    from .render import render_table_csv, render_table_json, tables_with_cache
    if max_k < 1:
        raise ConfigError("max-k must be at least 1")
    spec = _load_genus(genus, max_k)
    try:
        tables = tables_with_cache(spec, max_k, cache)
    except OSError as exc:
        raise ConfigError(f"cache {cache}: {exc}")
    rendered = render_table_csv(tables) if fmt == "csv" else render_table_json(
        spec.name, max_k, tables
    )
    _emit(rendered, out)


class _SuiteChoice(click.Choice):
    """click.Choice over verify.available_suites(), read only when click
    asks for the names (to check a value or print help), so that no other
    command imports verify."""

    def __init__(self) -> None:
        self.case_sensitive = True

    @property
    def choices(self) -> tuple[str, ...]:
        from .verify import available_suites
        return available_suites()


@cli.command()
@click.argument("suite", type=_SuiteChoice())
@click.option(
    "--k",
    "--max-k",
    "max_k",
    type=int,
    default=None,
    help="Max degree (main, ahat, oracle, signs).",
)
@click.option("--max-r", type=int, default=None, help="Max tuple length / ground size.")
@click.option("--n", "level_cap", type=int, default=None, help="Formal level cap.")
@click.option("--samples", type=int, default=None, help="Sampled tuples per batch.")
@click.option(
    "--recurrence-samples", type=int, default=None, help="Recurrence spot checks."
)
@click.option("--depth", type=int, default=None, help="Series truncation depth.")
@click.option("--tol", type=float, default=None, help="Comparison tolerance.")
@click.option("--seed", type=int, default=None, help="Seed for sampled suites.")
@click.option("--out", default=None, help="Also determines report destination.")
@click.pass_context
def verify(ctx: click.Context, suite: str, out: Optional[str], **options: object) -> None:
    """Run one verification suite; exit 1 iff any check fails."""
    from .verify import run_suite
    try:  # ctx.obj: the CPUs main() runs numeric suites on; None in process
        report = run_suite(suite, workers=ctx.obj or 1, **options)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _emit(report.render() + "\n", out)
    if not report.passed:
        ctx.exit(1)


def main() -> None:
    """Console-script entry point with the documented env-var prefix."""
    # numpy's OpenBLAS would start a worker pool no command uses: ~0.07 s a launch on 2 cores
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        cli(auto_envvar_prefix="ZETAGENUS", obj=cpus)
    except SystemExit as exc:  # how click ends every command; teardown would only collect garbage
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exc.code)
