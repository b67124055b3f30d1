"""Rendering and serialization: polynomial text, tables, and the cache.

Exact rationals always serialize as decimal strings {"num": ..., "den":
...}, written by encode_rational and read by decode_rational; floats
never appear in exact outputs, since table denominators outgrow 64-bit
range quickly.  All emitted orders are deterministic
(degree ascending, partitions in the descending lexicographic order of
integer_partitions), so reruns with the same inputs are byte-identical.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional

from .genus import CoefficientTable, GenusSpec, check_table_degree, coefficient_table
from .partitions import IntegerPartition, integer_partitions

__all__ = [
    "render_poly_text",
    "render_poly_latex",
    "render_poly_json",
    "encode_rational",
    "decode_rational",
    "render_table_csv",
    "render_table_json",
    "parse_table_json",
    "read_cache",
    "write_cache",
    "tables_with_cache",
    "CSV_HEADER",
    "CACHE_VERSION",
]

CSV_HEADER = "k,partition,coefficient_num,coefficient_den,sign,r"
CACHE_VERSION = 1


def encode_rational(c: Fraction) -> dict[str, str]:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def decode_rational(entry: Mapping[str, str]) -> Fraction:
    if any(type(entry[key]) not in (int, str) for key in ("num", "den")):  # int() truncates a float, reads a bool
        raise ValueError(f"num and den must be integers or decimal strings, got {entry}")
    return Fraction(int(entry["num"]), int(entry["den"]))


def _ordered_terms(table: CoefficientTable) -> list[tuple[IntegerPartition, Fraction]]:
    return [(J, table[J]) for J in integer_partitions(table.degree)]


def _monomial_text(J: IntegerPartition) -> str:
    pairs = sorted(J.multiplicities().items(), reverse=True)
    return "*".join(f"p{part}" if mult == 1 else f"p{part}^{mult}" for part, mult in pairs)


def _monomial_latex(J: IntegerPartition) -> str:
    pieces = []
    for part, mult in sorted(J.multiplicities().items(), reverse=True):
        sub = f"p_{part}" if part < 10 else f"p_{{{part}}}"
        if mult > 1:
            sub += f"^{mult}" if mult < 10 else f"^{{{mult}}}"
        pieces.append(sub)
    return " ".join(pieces)


def _render_poly(
    table: Optional[CoefficientTable],
    monomial: Callable[[IntegerPartition], str],
    times: str,
    fraction: Callable[[Fraction], str],
    over: Callable[[str, int], str],
) -> str:
    """The renderer core: a lone term keeps its own coefficient, several
    terms share their common denominator, applied by over(terms, den)."""
    if table is None:
        return "1"
    terms = _ordered_terms(table)
    if len(terms) == 1:
        J, c = terms[0]
        sign = "-" if c < 0 else ""
        a = abs(c)
        if a == 1:
            return f"{sign}{monomial(J)}"
        coef = str(a.numerator) if a.denominator == 1 else fraction(a)
        return f"{sign}{coef}{times}{monomial(J)}"
    den = math.lcm(*(c.denominator for _, c in terms))
    rendered = []
    for i, (J, c) in enumerate(terms):
        num = c.numerator * (den // c.denominator)
        body = monomial(J) if abs(num) == 1 else f"{abs(num)}{times}{monomial(J)}"
        if i == 0:
            rendered.append(f"-{body}" if num < 0 else body)
        else:
            rendered.append(f"{'-' if num < 0 else '+'} {body}")
    joined = " ".join(rendered)
    return over(joined, den) if den != 1 else joined


def render_poly_text(table: Optional[CoefficientTable]) -> str:
    """Plain-text polynomial with the common denominator pulled out.

    Degree 0 (table None) renders as "1".  A single term renders as
    sign(fraction)*monomial, e.g. "-(1/24)*p1"; several terms share one
    denominator, e.g. "(7*p2 - p1^2)/45".
    """
    return _render_poly(
        table, _monomial_text, "*", lambda a: f"({a})", lambda t, den: f"({t})/{den}"
    )


def render_poly_latex(table: Optional[CoefficientTable]) -> str:
    """LaTeX polynomial in factored style: \\frac{1}{45}\\left(...\\right)."""
    return _render_poly(
        table,
        _monomial_latex,
        " ",
        lambda a: f"\\frac{{{a.numerator}}}{{{a.denominator}}}",
        lambda t, den: f"\\frac{{1}}{{{den}}}\\left({t}\\right)",
    )


def render_poly_json(genus_name: str, k: int, table: Optional[CoefficientTable]) -> str:
    """One-line JSON polynomial; rationals as decimal strings."""
    pairs = [((), Fraction(1))] if table is None else _ordered_terms(table)
    terms = [{"partition": list(J), **encode_rational(c)} for J, c in pairs]
    return json.dumps({"genus": genus_name, "k": k, "terms": terms})


def _table_rows(
    tables: Mapping[int, CoefficientTable]
) -> Iterator[tuple[int, IntegerPartition, Fraction, int]]:
    """(k, partition, coefficient, sign) for export, degree ascending,
    partitions in table order."""
    for k in sorted(tables):
        for J, c in _ordered_terms(tables[k]):
            yield k, J, c, 1 if c > 0 else (-1 if c < 0 else 0)


def render_table_csv(tables: Mapping[int, CoefficientTable]) -> str:
    rows = (f"{k},{J},{c.numerator},{c.denominator},{sign},{len(J)}" for k, J, c, sign in _table_rows(tables))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def render_table_json(genus_name: str, max_k: int, tables: Mapping[int, CoefficientTable]) -> str:
    rows = [
        {"k": k, "partition": list(J), **encode_rational(c), "sign": sign, "r": len(J)}
        for k, J, c, sign in _table_rows(tables)
    ]
    doc = {"genus": genus_name, "max_k": max_k, "rows": rows}
    return json.dumps(doc, indent=1) + "\n"


def parse_table_json(text: str) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """Exact rationals back from a JSON table; key (k, partition parts)."""
    rows = json.loads(text)["rows"]
    return {(int(row["k"]), tuple(int(p) for p in row["partition"])): decode_rational(row) for row in rows}


def write_cache(path: str, genus: GenusSpec, tables: Mapping[int, CoefficientTable]) -> None:
    """Write the versioned cache document, deterministically serialized."""
    doc = {
        "version": CACHE_VERSION,
        "genus": genus.name,
        "b_coeffs": [encode_rational(c) for c in genus.series.coefficients],
        "tables": {
            str(k): {str(J): encode_rational(c) for J, c in tables[k].items()}
            for k in sorted(tables)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def read_cache(path: str, genus: GenusSpec) -> dict[int, CoefficientTable]:
    """Cached tables still valid for this genus; {} when unusable.

    The stored characteristic-series coefficients are the guard against
    mixing genera: any disagreement on the shared prefix discards the
    cache, and a table of degree k is reused only when the stored series
    pins coefficients 0..k.  Corrupt files warn on stderr and recompute.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON, or not UTF-8
        print(f"warning: cache {path}: {exc}; recomputing", file=sys.stderr)
        return {}
    try:
        if doc["version"] != CACHE_VERSION or doc["genus"] != genus.name:
            return {}
        stored = [decode_rational(e) for e in doc["b_coeffs"]]
        current = list(genus.series.coefficients)
        shared = min(len(stored), len(current))
        if stored[:shared] != current[:shared]:
            return {}
        out: dict[int, CoefficientTable] = {}
        for key, entries in doc["tables"].items():
            k = int(key)
            if k >= shared:  # stored series does not pin b_k
                continue
            parsed = {
                IntegerPartition(int(x) for x in pk.split("+")): decode_rational(e)
                for pk, e in entries.items()
            }
            out[k] = CoefficientTable(k, parsed)
        return out
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        print(f"warning: cache {path}: malformed ({exc}); recomputing", file=sys.stderr)
        return {}


def tables_with_cache(
    genus: GenusSpec, max_k: int, cache_path: Optional[str]
) -> dict[int, CoefficientTable]:
    """Tables for 1..max_k, reusing and refreshing the cache when given."""
    check_table_degree(max_k)  # refuse before any work
    cached = read_cache(cache_path, genus) if cache_path else {}
    tables = {k: cached[k] if k in cached else coefficient_table(genus, k) for k in range(1, max_k + 1)}
    if cache_path and (not cached or any(k not in cached for k in tables)):
        write_cache(cache_path, genus, {**cached, **tables})
    return tables
