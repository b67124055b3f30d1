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
size, term budget) exits 2 before any work.  Only the command line sets
options: no environment variable does.  The parser uses only the
standard library; its help and messages are click's at 80 columns, but
an unknown name is shown as typed, with no hint.  Each command imports the
modules it runs in its own body, so a launch loads (and, without
bytecode, compiles) only those: an exact verify suite does not load
numeric.  main() sets OPENBLAS_NUM_THREADS=1 unless it is set: no
command calls BLAS.  It runs the numeric verify suites on every CPU the
process may use (os.sched_getaffinity), in children forked after every
refusal, to the same report bytes; cli called in process, or one CPU,
runs them serially.  Once the command returns, main() flushes stdout and
stderr and calls os._exit with its code: commands close their files, and
teardown only collects garbage.

A genus is named "L" or "Ahat", or is a path to a JSON file of the form
{"name": ..., "coefficients": [{"num": "1", "den": "1"}, ...]} listing
the characteristic series coefficients from the constant term (which
must be 1) upward.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .genus import GenusSpec

__all__ = ["cli", "main", "ConfigError"]


class ConfigError(Exception):
    """Usage or configuration problem; reserved exit code 2."""


class UsageError(ConfigError):
    """A command line that does not parse, shown under its command's usage (command None: the group's)."""

    def __init__(self, message: str, command: str | None) -> None:
        super().__init__(message)
        self.command = command


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


def _emit(text: str, out: str | None) -> None:
    """Write text as it is, to stdout or to the file out."""
    if out is None:
        print(text, end="", flush=True)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}")


_TYPES = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


class _Option:
    """A parameter of a command: its flags (none for verify's SUITE), the keyword it fills, and its type:
    str, int, float, a tuple of choices, or a function that returns them when they are needed."""

    def __init__(self, *flags: str, dest: str = "", type=str, default=None, help: str = "", required: bool = False):
        self.flags, self.dest, self.type = flags, dest or flags[0][2:].replace("-", "_"), type
        self.default, self.help, self.required = default, help, required

    def choices(self) -> tuple[str, ...]:
        return () if self.type in _TYPES else self.type if isinstance(self.type, tuple) else self.type()

    def metavar(self) -> str:
        choices = "|".join(self.choices())
        return _TYPES.get(self.type) or (f"[{choices}]" if self.flags else f"{{{choices}}}")

    def hint(self) -> str:
        return " / ".join(f"'{flag}'" for flag in self.flags) or f"'{self.metavar()}'"

    def row(self) -> tuple[str, str]:
        """This option's row in its command's help."""
        note = "[required]" if self.required else f"[default: {self.default}]" if self.default else ""
        return f"{', '.join(self.flags)} {self.metavar()}", "  ".join(filter(None, [self.help, note]))

    def convert(self, raw: str, command: str):
        if self.type in (int, float):
            try:
                return self.type(raw)
            except ValueError:
                message = f"{raw!r} is not a valid {_TYPES[self.type].lower()}."
        elif self.type is str or raw in self.choices():
            return raw
        else:
            message = f"{raw!r} is not one of {', '.join(map(repr, self.choices()))}."
        raise UsageError(f"Invalid value for {self.hint()}: {message}", command)


_COMMANDS: dict[str, tuple] = {}  # name: (function, its _Options)
_GENUS = _Option("--genus", required=True, help="L, Ahat, or a series JSON path.")
_OUT = _Option("--out", help="Write to file instead of stdout.")


def _command(*options: _Option):
    """Register the decorated function as the command of its name, with these parameters."""
    return lambda fn: _COMMANDS.setdefault(fn.__name__, (fn, options))[0]


@_command(_GENUS, _Option("--partition", required=True, help="Comma list, e.g. 2,1."), _OUT)
def coeff(genus: str, partition: str, out: str | None) -> None:
    """Print one exact coefficient as a reduced fraction."""
    from .genus import coefficient_closed_form
    parts = _parse_partition(partition)
    spec = _load_genus(genus, sum(parts))
    _emit(f"{coefficient_closed_form(spec, parts)}\n", out)


@_command(
    _GENUS,
    _Option("--k", type=int, required=True, help="Degree of the polynomial."),
    _Option("--format", dest="fmt", type=("text", "latex", "json"), default="text"),
    _OUT,
)
def poly(genus: str, k: int, fmt: str, out: str | None) -> None:
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


@_command(
    _GENUS,
    _Option("--max-k", type=int, required=True, help="Largest degree to export."),
    _Option("--out", required=True, help="Destination file."),
    _Option("--format", dest="fmt", type=("csv", "json"), default="csv"),
    _Option("--cache", help="JSON cache file reused across runs."),
)
def table(genus: str, max_k: int, out: str, fmt: str, cache: str | None) -> None:
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


def _suites() -> tuple[str, ...]:
    """verify's suite names, read only when a verify command line needs them, so no other command imports verify."""
    from .verify import available_suites
    return available_suites()


@_command(
    _Option(dest="suite", type=_suites, required=True),
    _Option("--k", "--max-k", dest="max_k", type=int, help="Max degree (main, ahat, oracle, signs)."),
    _Option("--max-r", type=int, help="Max tuple length / ground size."),
    _Option("--n", dest="level_cap", type=int, help="Formal level cap."),
    _Option("--samples", type=int, help="Sampled tuples per batch."),
    _Option("--recurrence-samples", type=int, help="Recurrence spot checks."),
    _Option("--depth", type=int, help="Series truncation depth."),
    _Option("--tol", type=float, help="Comparison tolerance."),
    _Option("--seed", type=int, help="Seed for sampled suites."),
    _Option("--out", help="Also determines report destination."),
)
def verify(suite: str, out: str | None, workers: int = 1, **options: object) -> int:
    """Run one verification suite; exit 1 iff any check fails."""
    from .verify import run_suite
    try:  # workers: the CPUs main() runs numeric suites on; 1 in process
        report = run_suite(suite, workers=workers, **options)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _emit(report.render() + "\n", out)
    return 0 if report.passed else 1


def _wrap(text: str, first: str, indent: str) -> list[str]:
    import textwrap  # at 78 columns, as click wraps on a terminal of 80 or more, and off a terminal
    return textwrap.wrap(text, 78, initial_indent=first, subsequent_indent=indent)


def _usage(prog: str, command: str | None) -> list[str]:
    """The usage line of a command (None: the group), wrapped as click wraps it."""
    args = " ".join(o.metavar() for o in _COMMANDS[command][1] if not o.flags) if command else "COMMAND [ARGS]..."
    prefix = f"Usage: {prog} {command or ''}".rstrip() + " "
    return _wrap(f"[OPTIONS] {args}".rstrip(), prefix, " " * len(prefix))


def _help(prog: str, command: str | None) -> str:
    """The --help page of a command (None: the group) in click's layout, where no row is long enough to wrap."""
    fn, options = _COMMANDS[command] if command else (_Group, ())
    sections = [("Options", [o.row() for o in options if o.flags] + [("--help", "Show this message and exit.")])]
    if command is None:
        sections.append(("Commands", [(name, f.__doc__) for name, (f, _) in _COMMANDS.items()]))
    lines = _usage(prog, command) + [""] + _wrap(" ".join(fn.__doc__.split()), "  ", "  ")
    for title, rows in sections:
        width = max(len(term) for term, _ in rows) + 2
        lines += ["", f"{title}:"] + [f"  {term:<{width}}{text}" for term, text in rows]
    return "\n".join(lines) + "\n"


def _parse(args: list[str], options, command: str | None) -> tuple[dict, list[str], bool]:
    """Split a command line as click does: each option's last value, the other arguments, and whether
    --help was given.  The group (None) stops at its command."""
    flags, values, rest, shown = {flag: o for o in options for flag in o.flags}, {}, [], False
    while args:
        arg = args.pop(0)
        name, eq, value = arg.partition("=")
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if command is None:
                args.insert(0, arg)
                break
            rest.append(arg)
        elif name == "--help":
            if eq:
                raise ConfigError("Option '--help' does not take a value.")
            shown = True
        elif name not in flags:
            raise UsageError(f"No such option '{name}'.", command)
        elif not eq and not args:
            raise ConfigError(f"Option '{name}' requires an argument.")
        else:
            values[flags[name].dest] = value if eq else args.pop(0)
    return values, rest + args, shown


def _run(args: list[str], prog: str, workers: int) -> int:
    """Parse and run one command line and return its exit code; a usage error raises UsageError."""
    if not args:  # the group's help, on stderr
        print(_help(prog, None), end="", file=sys.stderr)
        return 2
    name, (_, rest, shown) = None, _parse(args, (), None)
    if not shown:
        if not rest:
            raise UsageError("Missing command.", None)
        name = rest[0]
        if name not in _COMMANDS:
            raise UsageError(f"No such command {name!r}.", None)
        fn, options = _COMMANDS[name]
        values, rest, shown = _parse(rest[1:], options, name)
    if shown:
        print(_help(prog, name), end="")
        return 0
    kwargs = {"workers": workers} if name == "verify" else {}
    for o in options:  # in the table's order: of several wrong parameters, the first there is reported
        raw = values.get(o.dest)
        if not o.flags and rest:  # verify's SUITE, the first argument left
            raw = rest.pop(0)
        if raw is None and o.required:
            more = " Choose from:\n\t" + ",\n\t".join(o.choices()) if o.choices() else ""
            raise UsageError(f"Missing {'option' if o.flags else 'argument'} {o.hint()}.{more}", name)
        kwargs[o.dest] = o.default if raw is None else o.convert(raw, name)
    if rest:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})", name)
    return fn(**kwargs) or 0


class _Group:
    """Exact coefficients of multiplicative polynomial sequences, with
    numeric verification against nested zeta-type series."""

    def main(self, args=None, prog_name: str | None = None, workers: int = 1, **click_keywords: object) -> int:
        """Run one command line, write its output, or its error to stderr, and return its exit code.  The
        keywords of click's main that perfbench/probe.py passes (auto_envvar_prefix, standalone_mode) are
        not read: args alone sets the options, and the code is always returned."""
        prog = prog_name or os.path.basename(sys.argv[0])
        try:
            return _run(list(sys.argv[1:] if args is None else args), prog, workers)
        except ConfigError as exc:
            if isinstance(exc, UsageError):
                path = f"{prog} {exc.command or ''}".rstrip()
                print(*_usage(prog, exc.command), f"Try '{path} --help' for help.\n", sep="\n", file=sys.stderr)
            print(f"Error: {exc}", file=sys.stderr)
            return 2


cli = _Group()


def main(prog_name: str | None = None) -> None:
    """Console-script entry point.  Help and errors name the program prog_name (`python -m zetagenus`
    under -m), else the file name of argv[0], as click did."""
    # numpy's OpenBLAS would start a worker pool no command uses: ~0.07 s a launch on 2 cores
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        code = cli.main(prog_name=prog_name, workers=cpus)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader has gone, as under `| head`
        code = 1
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    sys.stderr.flush()  # teardown would only collect garbage
    os._exit(code)
