"""Checkers for every output the benchmark's commands produce.

Each checker parses one output, compares it with values from
reference.py or with properties the method must have, and returns how
many coefficients or CHECK lines it accepted.  Any disagreement raises
CheckError.  No checker imports zetagenus or compares with a stored copy
of an earlier output.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import reference


class CheckError(Exception):
    """An output that does not hold up."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- exact coefficient tables -----------------------------------------------

def check_degree(genus: str, k: int, entries: dict, rng: random.Random, points: int = 2) -> int:
    """One degree-k table {partition: Fraction} against the reference."""
    _require(set(entries) == set(reference.partitions(k)),
             f"{genus} k={k}: keys are not exactly the partitions of {k}")
    for _ in range(points):
        lhs, rhs = reference.identity_sides(genus, k, entries, reference.random_point(rng, k))
        _require(lhs == rhs, f"{genus} k={k}: table side {lhs} != product side {rhs}")
    if genus == "L":
        value = reference.cp_signature_value(k, entries)
        _require(value == 1, f"L k={k}: signature of CP^{2 * k} is {value}, not 1")
    expected = reference.tables(genus, k)[k]
    for part, c in entries.items():
        _require(c == expected[part], f"{genus} {part}: {c} != reference {expected[part]}")
    return len(entries)


def _sign_rule(genus: str, r: int) -> int:
    offset = 1 if genus == "L" else 0
    return -1 if (r + offset) % 2 else 1


def _check_rows(genus: str, max_k: int, rows: dict, rng: random.Random) -> int:
    """rows maps (k, partition) to (coefficient, sign, r)."""
    _require({k for k, _ in rows} == set(range(1, max_k + 1)),
             f"{genus}: degrees are not exactly 1..{max_k}")
    for (k, part), (c, sign, r) in rows.items():
        _require(r == len(part), f"{genus} {part}: r={r} but {len(part)} parts")
        _require(sign == (c > 0) - (c < 0), f"{genus} {part}: sign {sign} does not match {c}")
        _require(sign == _sign_rule(genus, r), f"{genus} {part}: sign {sign} breaks the sign rule")
    total = 0
    for k in range(1, max_k + 1):
        entries = {part: row[0] for (kk, part), row in rows.items() if kk == k}
        total += check_degree(genus, k, entries, rng)
    return total


def parse_table_csv(text: str) -> dict:
    lines = text.split("\n")
    _require(lines[0] == "k,partition,coefficient_num,coefficient_den,sign,r", "bad CSV header")
    _require(lines[-1] == "", "CSV does not end with a newline")
    rows = {}
    for line in lines[1:-1]:
        k, part, num, den, sign, r = line.split(",")
        key = (int(k), tuple(int(p) for p in part.split("+")))
        _require(key not in rows, f"duplicate row {key}")
        c = Fraction(int(num), int(den))
        _require((c.numerator, c.denominator) == (int(num), int(den)), f"{key}: {num}/{den} not reduced")
        rows[key] = (c, int(sign), int(r))
    return rows


def parse_table_json(text: str) -> tuple[str, int, dict]:
    doc = json.loads(text)
    rows = {}
    for row in doc["rows"]:
        key = (int(row["k"]), tuple(int(p) for p in row["partition"]))
        _require(key not in rows, f"duplicate row {key}")
        c = Fraction(int(row["num"]), int(row["den"]))
        _require((str(c.numerator), str(c.denominator)) == (row["num"], row["den"]),
                 f"{key}: {row['num']}/{row['den']} not reduced")
        rows[key] = (c, int(row["sign"]), int(row["r"]))
    return doc["genus"], int(doc["max_k"]), rows


def check_table_csv(genus: str, max_k: int, text: str, rng: random.Random) -> int:
    return _check_rows(genus, max_k, parse_table_csv(text), rng)


def check_table_json(genus: str, max_k: int, text: str, rng: random.Random) -> int:
    name, mk, rows = parse_table_json(text)
    _require((name, mk) == (genus, max_k), f"JSON header {name} {mk} != {genus} {max_k}")
    return _check_rows(genus, max_k, rows, rng)


def check_cache(genus: str, max_k: int, text: str) -> None:
    """The --cache file holds every degree the export covered, for this genus."""
    doc = json.loads(text)
    _require(doc["genus"] == genus, f"cache holds genus {doc['genus']}, not {genus}")
    _require(set(range(1, max_k + 1)) <= {int(k) for k in doc["tables"]},
             f"cache lacks some degree of 1..{max_k}")


def check_same_table(csv_text: str, json_text: str) -> None:
    """A CSV and a JSON export of the same genus and degrees agree row by row."""
    _, _, from_json = parse_table_json(json_text)
    from_csv = parse_table_csv(csv_text)
    _require(list(from_csv.items()) == list(from_json.items()), "CSV and JSON exports disagree")


# --- polynomials ---------------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")


def _terms(inner: str, den: int, parse_body) -> dict:
    pieces = _TERM_SPLIT.split(inner)
    signs = ["+"] + pieces[1::2]
    out = {}
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            _require(sign == "+", f"doubled sign in {body!r}")
            sign, body = "-", body[1:]
        num, part = parse_body(body)
        _require(part not in out, f"repeated monomial {part}")
        out[part] = Fraction(-num if sign == "-" else num, den)
    return out


def _text_body(body: str) -> tuple[int, tuple[int, ...]]:
    m = re.fullmatch(r"(?:(\d+)\*)?(p\d+(?:\^\d+)?(?:\*p\d+(?:\^\d+)?)*)", body)
    _require(m is not None, f"unreadable term {body!r}")
    parts = []
    for piece in m.group(2).split("*"):
        base, _, mult = piece[1:].partition("^")
        parts += [int(base)] * int(mult or 1)
    return int(m.group(1) or 1), tuple(sorted(parts, reverse=True))


def parse_poly_text(text: str) -> dict:
    """'(7*p2 - p1^2)/45', '-(1/24)*p1' or '2*p1' back to {partition: c}."""
    m = re.fullmatch(r"\((.*)\)/(\d+)", text)
    if m:
        return _terms(m.group(1), int(m.group(2)), _text_body)
    m = re.fullmatch(r"(-?)\((\d+)/(\d+)\)\*(.+)", text)
    if m:
        _, part = _text_body(m.group(4))
        return {part: Fraction(int(m.group(2)), int(m.group(3))) * (-1 if m.group(1) else 1)}
    return _terms(text, 1, _text_body)


_LATEX_PIECE = re.compile(r"p_(?:(\d)|\{(\d+)\})(?:\^(?:(\d)|\{(\d+)\}))?")


def _latex_body(body: str) -> tuple[int, tuple[int, ...]]:
    tokens = body.split(" ")
    num = 1
    if tokens[0].isdigit():
        num = int(tokens.pop(0))
    parts = []
    for tok in tokens:
        m = _LATEX_PIECE.fullmatch(tok)
        _require(m is not None, f"unreadable LaTeX monomial {tok!r}")
        base = int(m.group(1) or m.group(2))
        parts += [base] * int(m.group(3) or m.group(4) or 1)
    _require(bool(parts), f"term without a monomial: {body!r}")
    return num, tuple(sorted(parts, reverse=True))


def parse_poly_latex(text: str) -> dict:
    r"""'\frac{1}{45}\left(7 p_2 - p_1^2\right)' back to {partition: c}."""
    m = re.fullmatch(r"\\frac\{1\}\{(\d+)\}\\left\((.*)\\right\)", text)
    if m:
        return _terms(m.group(2), int(m.group(1)), _latex_body)
    m = re.fullmatch(r"(-?)\\frac\{(\d+)\}\{(\d+)\} (.+)", text)
    if m:
        _, part = _latex_body(m.group(4))
        return {part: Fraction(int(m.group(2)), int(m.group(3))) * (-1 if m.group(1) else 1)}
    return _terms(text, 1, _latex_body)


def parse_poly_json(text: str) -> tuple[str, int, dict]:
    doc = json.loads(text)
    out = {}
    for term in doc["terms"]:
        part = tuple(int(p) for p in term["partition"])
        _require(part not in out, f"repeated monomial {part}")
        out[part] = Fraction(int(term["num"]), int(term["den"]))
    return doc["genus"], int(doc["k"]), out


def check_poly(genus: str, k: int, fmt: str, text: str, rng: random.Random) -> int:
    """A `poly` output in text, latex or json format.

    A zero coefficient would be dropped by neither renderer, so every
    partition of k must appear.
    """
    text = text.rstrip("\n")
    if fmt == "json":
        name, kk, entries = parse_poly_json(text)
        _require((name, kk) == (genus, k), f"JSON header {name} {kk} != {genus} {k}")
    elif fmt == "latex":
        entries = parse_poly_latex(text)
    else:
        entries = parse_poly_text(text)
    return check_degree(genus, k, entries, rng)


def check_coeff(genus: str, partition: tuple[int, ...], text: str) -> int:
    value = Fraction(text.strip())
    _require(text.strip() == str(value), f"coeff {text.strip()!r} is not a reduced fraction")
    expected = reference.coefficient(genus, partition)
    _require(value == expected, f"coeff {genus} {partition}: {value} != reference {expected}")
    return 1


# --- verify reports ------------------------------------------------------------

def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def expected_checks(suite: str, opts: dict) -> int:
    """Number of CHECK lines the suite must print for these options."""
    if suite in ("main", "ahat"):
        return sum(len(reference.partitions(k)) for k in range(1, opts["k"] + 1))
    if suite == "hoffman":
        return 2 * opts["samples"] * opts["max-r"]
    if suite == "multiple-eta":
        return opts["samples"] * opts["max-r"]
    if suite == "positivity":
        return 2 * opts["samples"] + 2 * opts["recurrence-samples"]
    if suite == "formal":
        return 3 * sum(bell(n) for n in range(1, opts["max-r"] + 1)) + 9
    if suite in ("oracle", "signs"):
        return 2 * opts["k"]
    raise ValueError(f"no expected count for suite {suite!r}")


# Printed floats carry 13 significant digits, so a value re-read from a
# report may differ from the one the program compared by this much.
_PRINT_REL = 1e-11


def _close(printed_delta: str, derived: float, slack: float) -> bool:
    """A 4-digit printed delta matches the delta re-derived from the report."""
    return abs(float(printed_delta) - derived) <= 1e-3 * abs(derived) + slack


def _verdict(name: str, lhs: str, rhs: str, delta: str, bound: str, genus: str) -> bool:
    """Re-derive one check's verdict from its printed numbers."""
    if name.startswith(("h[", "a[")):
        part = tuple(int(p) for p in name[2:-1].split("+"))
        exact = Fraction(lhs)
        expected = reference.coefficient(genus, part)
        _require(exact == expected, f"{name}: exact column {lhs} != reference {expected}")
        rel = abs(float(exact) - float(rhs)) / abs(float(exact))
        _require(_close(delta, rel, _PRINT_REL), f"{name}: printed delta {delta} but numbers give {rel:.3e}")
        return rel <= float(bound) * (1 + 1e-9) + _PRINT_REL
    if name.startswith(("strict[", "star[", "eta[", "peel[", "block[")):
        a, b = float(lhs), float(rhs)
        diff = abs(a - b)
        slack = _PRINT_REL * max(abs(a), abs(b))
        _require(_close(delta, diff, slack), f"{name}: printed delta {delta} but numbers give {diff:.3e}")
        return diff <= float(bound) + slack
    if name.startswith("chain-negative["):
        value, magnitude, err = float(lhs), float(delta), float(bound)
        _require(rhs == "<0" and magnitude == abs(value), f"{name}: malformed sign claim")
        return value < 0 and magnitude > err
    if name.startswith("tail-positive["):
        value, magnitude, err = float(lhs), float(delta), float(bound)
        _require(rhs == ">0" and magnitude == abs(value), f"{name}: malformed sign claim")
        return value > 0 and magnitude > err
    if name.startswith(("free-sum[", "mobius[", "chain-inversion[")):
        _require(bound == "exact", f"{name}: bound {bound} is not exact")
        well_formed = lhs.startswith("terms=") if name.startswith("free-sum[") else lhs == "match"
        return well_formed and lhs == rhs and delta == "0"
    if name.startswith("length-parity[n="):
        n = int(name[len("length-parity[n="):-1])
        expected = str(-1 if n % 2 else 1)
        return lhs == rhs == expected and delta == "0" and bound == "exact"
    m = re.fullmatch(r"(?:oracle|signs)\[(L|Ahat),k=(\d+)\]", name)
    if m:
        total = len(reference.partitions(int(m.group(2))))
        return lhs == rhs == f"{total}/{total}" and delta == "0" and bound == "exact"
    raise CheckError(f"unknown check {name!r}")


def check_report(suite: str, opts: dict, text: str) -> int:
    """A `verify` report: line structure, CHECK count and every verdict."""
    lines = text.rstrip("\n").split("\n")
    _require(lines[0] == f"SUITE {suite}", f"first line {lines[0]!r}")
    _require(lines[1].startswith("CONFIG "), "second line is not CONFIG")
    checks = lines[2:-1]
    want = expected_checks(suite, opts)
    _require(len(checks) == want, f"{suite}: {len(checks)} CHECK lines, options imply {want}")
    genus = "L" if suite == "main" else "Ahat"
    names = set()
    for line in checks:
        fields = line.split(" ")
        _require(len(fields) == 7 and fields[0] == "CHECK", f"malformed line {line!r}")
        _, name, status, lhs, rhs, delta, bound = fields
        _require(name not in names, f"repeated check {name}")
        names.add(name)
        ok = _verdict(name, lhs, rhs, delta, bound, genus)
        _require(status == ("PASS" if ok else "FAIL"), f"{name}: printed {status}, numbers say {ok}")
        _require(ok, f"{name}: check fails")
    if suite in ("main", "ahat"):
        prefix = "h" if suite == "main" else "a"
        labels = {f"{prefix}[{'+'.join(map(str, p))}]"
                  for k in range(1, opts["k"] + 1) for p in reference.partitions(k)}
        _require(names == labels, f"{suite}: checks are not one per partition")
    _require(lines[-1] == f"RESULT {suite} PASS {want}/{want}", f"last line {lines[-1]!r}")
    return len(checks)


def check_identical(a: bytes, b: bytes, what: str) -> None:
    _require(a == b, f"{what}: outputs differ")
