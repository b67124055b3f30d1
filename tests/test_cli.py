"""End-to-end tests for the command line and the verification suites."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from zetagenus.cli import cli
from zetagenus.genus import GenusSpec
from zetagenus.partitions import IntegerPartition
from zetagenus.render import parse_table_json, read_cache
from zetagenus import cli as cli_module
from zetagenus import genus as genus_module
from zetagenus import formal, numeric, partitions, render, series, verify
from zetagenus.verify import available_suites, run_suite

F = Fraction


class _Stream(io.StringIO):
    """stdout or stderr of an in-process run: it keeps its own text and
    also adds each write to a log that both streams share."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.append(text)
        return super().write(text)


def _invoke(args, env=None):
    """Run one command line in process through cli.main, serially; env
    sets environment variables for this run.  output holds both streams in
    the order they were written, stdout_bytes stdout alone."""
    log = []
    out, err = _Stream(log), _Stream(log)
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args, prog_name="zetagenus")
    return SimpleNamespace(exit_code=code, output="".join(log), stdout_bytes=out.getvalue().encode())


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "genus,partition,expected",
    [
        ("L", "2,1", "-13/945"),
        ("L", "1", "1/3"),
        ("L", "1,1,1", "2/945"),
        ("Ahat", "2", "-1/1440"),
        ("Ahat", "1,1,1", "-31/967680"),
    ],
)
def test_coeff_prints_reduced_fractions(genus, partition, expected):
    result = _invoke(["coeff", "--genus", genus, "--partition", partition])
    assert result.exit_code == 0
    assert result.output == expected + "\n"


def test_coeff_rejects_malformed_partitions():
    for bad in ("2,x", "", "0", "1,-2"):
        result = _invoke(["coeff", "--genus", "L", "--partition", bad])
        assert result.exit_code == 2


def test_coeff_rejects_unknown_genus():
    result = _invoke(["coeff", "--genus", "Q", "--partition", "1"])
    assert result.exit_code == 2
    assert "genus" in result.output.lower()


def test_coeff_writes_to_file(tmp_path):
    out = tmp_path / "c.txt"
    result = _invoke(
        ["coeff", "--genus", "L", "--partition", "2", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == "7/45\n"


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "genus,k,expected",
    [
        ("L", "1", "(1/3)*p1"),
        ("L", "2", "(7*p2 - p1^2)/45"),
        ("L", "3", "(62*p3 - 13*p2*p1 + 2*p1^3)/945"),
        ("Ahat", "1", "-(1/24)*p1"),
        ("Ahat", "0", "1"),
        # a lone term with a unit coefficient shows no coefficient
        pytest.param([F(1), F(-1)], "1", "-p1", id="1-z-1--p1"),
    ],
)
def test_poly_text_rendering(tmp_path, genus, k, expected):
    result = _invoke(["poly", "--genus", _genus_arg(tmp_path, genus), "--k", k])
    assert result.exit_code == 0
    assert result.output == expected + "\n"


def test_poly_latex_rendering(tmp_path):
    for genus, k, expected in [("L", "2", "\\frac{1}{45}\\left(7 p_2 - p_1^2\\right)"), ([F(1), F(-1)], "1", "-p_1")]:
        result = _invoke(["poly", "--genus", _genus_arg(tmp_path, genus), "--k", k, "--format", "latex"])
        assert result.exit_code == 0
        assert result.output == expected + "\n"


def test_poly_json_rendering():
    result = _invoke(["poly", "--genus", "Ahat", "--k", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["genus"] == "Ahat"
    assert doc["k"] == 2
    by_partition = {tuple(t["partition"]): (t["num"], t["den"]) for t in doc["terms"]}
    assert by_partition[(2,)] == ("-1", "1440")
    assert by_partition[(1, 1)] == ("7", "5760")


def test_poly_guards():
    assert _invoke(["poly", "--genus", "L", "--k", "-1"]).exit_code == 2
    result = _invoke(["poly", "--genus", "L", "--k", "1", "--format", "xml"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_CSV_L3 = """k,partition,coefficient_num,coefficient_den,sign,r
1,1,1,3,1,1
2,2,7,45,1,1
2,1+1,-1,45,-1,2
3,3,62,945,1,1
3,2+1,-13,945,-1,2
3,1+1+1,2,945,1,3
"""


def test_table_csv_golden(tmp_path):
    out = tmp_path / "t.csv"
    result = _invoke(
        ["table", "--genus", "L", "--max-k", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == _CSV_L3


def test_table_json_round_trip(tmp_path):
    out = tmp_path / "t.json"
    result = _invoke(
        [
            "table",
            "--genus",
            "Ahat",
            "--max-k",
            "3",
            "--out",
            str(out),
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0
    entries = parse_table_json(out.read_text())
    assert entries[(1, (1,))] == F(-1, 24)
    assert entries[(3, (2, 1))] == F(44, 967680)
    assert len(entries) == 1 + 2 + 3


@pytest.mark.parametrize("max_k", ["3", "20"])
@pytest.mark.parametrize("genus", ["L", "Ahat"])
def test_table_cache_reuse_is_byte_identical(tmp_path, monkeypatch, genus, max_k):
    # the warm run builds no table: it parses every partition up to max_k
    # back from the cache
    out = tmp_path / "t.csv"
    cache = tmp_path / "cache.json"
    args = [
        "table",
        "--genus",
        genus,
        "--max-k",
        max_k,
        "--out",
        str(out),
        "--cache",
        str(cache),
    ]
    assert _invoke(args).exit_code == 0
    first = out.read_bytes()
    cached = cache.read_bytes()
    monkeypatch.setattr(render, "coefficient_table", None)
    result = _invoke(args)
    assert result.exit_code == 0 and "warning" not in result.output
    assert out.read_bytes() == first
    assert cache.read_bytes() == cached


def test_table_cache_survives_corruption_and_growth(tmp_path):
    out = tmp_path / "t.csv"
    cache = tmp_path / "cache.json"
    base = ["table", "--genus", "L", "--out", str(out), "--cache", str(cache)]
    assert _invoke(base + ["--max-k", "2"]).exit_code == 0
    cache.write_text("{not json")
    assert _invoke(base + ["--max-k", "3"]).exit_code == 0
    assert out.read_text() == _CSV_L3
    doc = json.loads(cache.read_text())
    assert sorted(doc["tables"]) == ["1", "2", "3"]


def test_table_rejects_unwritable_destination(tmp_path):
    result = _invoke(
        [
            "table",
            "--genus",
            "L",
            "--max-k",
            "1",
            "--out",
            str(tmp_path / "missing" / "t.csv"),
        ],
    )
    assert result.exit_code == 2


def test_read_cache_warns_on_corruption(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("{broken")
    assert read_cache(str(path), GenusSpec.l_genus(3)) == {}
    assert "cache" in capsys.readouterr().err.lower()


def test_read_cache_warns_on_a_zero_denominator(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ["table", "--genus", "L", "--max-k", "2", "--out", str(tmp_path / "t.csv")]
    assert _invoke(args + ["--cache", str(cache)]).exit_code == 0
    doc = json.loads(cache.read_text())
    doc["tables"]["1"]["1"]["den"] = "0"
    cache.write_text(json.dumps(doc))
    assert read_cache(str(cache), GenusSpec.l_genus(3)) == {}
    assert "malformed" in capsys.readouterr().err


def _valid_cache(tmp_path):
    """The cache document that `table --genus L --max-k 2` writes."""
    genus, cache = GenusSpec.l_genus(2), tmp_path / "valid.json"
    render.write_cache(str(cache), genus, {k: genus_module.coefficient_table(genus, k) for k in (1, 2)})
    return json.loads(cache.read_text())


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda doc: json.dumps({**doc, "tables": []}).encode(), id="tables a list"),
        pytest.param(lambda doc: json.dumps({**doc, "tables": {"1": []}}).encode(), id="table a list"),
        pytest.param(lambda doc: b"\xff\xfe" + json.dumps(doc).encode(), id="utf-16 mark"),
        pytest.param(lambda doc: b"[" * 100_000 + b"]" * 100_000, id="nested too deep"),
        # int() would read these as 0 and 1, a wrong coefficient
        pytest.param(lambda doc: json.dumps({**doc, "tables": {"1": {"1": {"num": 0.9, "den": "3"}}}}).encode(), id="float"),
        pytest.param(lambda doc: json.dumps({**doc, "tables": {"1": {"1": {"num": True, "den": "3"}}}}).encode(), id="bool"),
    ],
)
def test_a_malformed_cache_warns_and_is_recomputed(tmp_path, capsys, corrupt):
    cache, out, fresh = tmp_path / "cache.json", tmp_path / "t.csv", tmp_path / "fresh.csv"
    cache.write_bytes(corrupt(_valid_cache(tmp_path)))
    assert read_cache(str(cache), GenusSpec.l_genus(3)) == {}
    assert "warning: cache" in capsys.readouterr().err
    args = ["table", "--genus", "L", "--max-k", "2", "--out"]
    assert _invoke(args + [str(out), "--cache", str(cache)]).exit_code == 0
    assert _invoke(args + [str(fresh)]).exit_code == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert json.loads(cache.read_text()) == _valid_cache(tmp_path)


@pytest.mark.parametrize(
    "edit,coeffs,name,max_k,computed",
    [
        pytest.param(lambda doc: {**doc, "version": doc["version"] + 1}, None, "L", 3, [1, 2, 3], id="version"),
        pytest.param(None, [F(1), F(1, 3), F(-1, 45), F(2, 945)], "M", 3, [1, 2, 3], id="genus name"),
        pytest.param(None, [F(1), F(1, 3), F(-1, 45), F(1, 7)], "L", 3, [1, 2, 3], id="series"),
        # without table 1 the run writes the cache back, with no degree-3
        # table: this series does not pin b_3
        pytest.param(
            lambda doc: {**doc, "tables": {k: t for k, t in doc["tables"].items() if k != "1"}},
            [F(1), F(1, 3), F(-1, 45)], "L", 2, [1], id="shorter series",
        ),
    ],
)
def test_a_cache_is_reused_only_where_its_genus_agrees(tmp_path, monkeypatch, edit, coeffs, name, max_k, computed):
    # the cache holds L's tables of degrees 1..3; a custom genus named L
    # reuses a table only where its series agrees with the stored one
    cache, out, fresh = tmp_path / "cache.json", tmp_path / "t.csv", tmp_path / "fresh.csv"
    assert _invoke(["table", "--genus", "L", "--max-k", "3", "--out", str(out), "--cache", str(cache)]).exit_code == 0
    if edit:
        cache.write_text(json.dumps(edit(json.loads(cache.read_text()))))
    args = ["table", "--genus", _genus_arg(tmp_path, coeffs or "L", name), "--max-k", str(max_k), "--out"]
    assert _invoke(args + [str(fresh)]).exit_code == 0
    real, degrees = render.coefficient_table, []
    monkeypatch.setattr(render, "coefficient_table", lambda spec, k: degrees.append(k) or real(spec, k))
    result = _invoke(args + [str(out), "--cache", str(cache)])
    assert result.exit_code == 0 and "warning" not in result.output
    assert degrees == computed
    assert out.read_bytes() == fresh.read_bytes()
    doc = json.loads(cache.read_text())
    assert (doc["genus"], sorted(doc["tables"])) == (name, [str(k) for k in range(1, max_k + 1)])


# ---------------------------------------------------------------------------
# custom genus files
# ---------------------------------------------------------------------------


def _genus_arg(tmp_path, genus, name="custom"):
    """genus as --genus takes it: a name as it is, a series written to a file."""
    if isinstance(genus, str):
        return genus
    _write_genus(tmp_path / "genus.json", genus, name)
    return str(tmp_path / "genus.json")


def _write_genus(path, coeffs, name="custom"):
    doc = {
        "name": name,
        "coefficients": [
            {"num": str(c.numerator), "den": str(c.denominator)} for c in coeffs
        ],
    }
    path.write_text(json.dumps(doc))


def test_custom_genus_file_round_trip(tmp_path):
    gpath = tmp_path / "sig.json"
    _write_genus(gpath, [F(1), F(1, 3), F(-1, 45), F(2, 945)])
    result = _invoke(
        ["coeff", "--genus", str(gpath), "--partition", "2,1"]
    )
    assert result.exit_code == 0
    assert result.output == "-13/945\n"
    poly = _invoke(["poly", "--genus", str(gpath), "--k", "2"])
    assert poly.output == "(7*p2 - p1^2)/45\n"


def test_custom_genus_with_insufficient_order_fails_cleanly(tmp_path):
    gpath = tmp_path / "short.json"
    _write_genus(gpath, [F(1), F(1, 3)])
    result = _invoke(["coeff", "--genus", str(gpath), "--partition", "2,1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"name": "x", "coefficients": [{"num": "1", "den": "0"}]}', id="zero denominator"),
        # json raises RecursionError on this, which is no ValueError
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested too deep"),
    ],
)
def test_genus_file_with_a_zero_denominator_fails_cleanly(tmp_path, text):
    gpath = tmp_path / "genus.json"
    gpath.write_text(text)
    result = _invoke(["coeff", "--genus", str(gpath), "--partition", "1"])
    assert result.exit_code == 2
    assert "cannot load genus from" in result.output


@pytest.mark.parametrize("num", [1.9, True], ids=["float", "bool"])
def test_genus_file_with_a_non_integer_numerator_fails_cleanly(tmp_path, num):
    # int() would read 1.9 as 1 and true as 1, and print a wrong coefficient
    gpath = tmp_path / "float.json"
    gpath.write_text(json.dumps({"name": "x", "coefficients": [{"num": "1", "den": "1"}, {"num": num, "den": "3"}]}))
    result = _invoke(["coeff", "--genus", str(gpath), "--partition", "1"])
    assert result.exit_code == 2
    assert "cannot load genus from" in result.output


def test_malformed_genus_file_fails_cleanly(tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text('{"name": "x"}')
    result = _invoke(["coeff", "--genus", str(gpath), "--partition", "1"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# the command line is the only input
# ---------------------------------------------------------------------------

# the ZETAGENUS_<COMMAND>_<KEYWORD> variables that click's auto_envvar_prefix
# read for every flag not given, each set to a value its flag would take
_OLD_VARIABLES = {
    "ZETAGENUS_COEFF_GENUS": "Ahat",
    "ZETAGENUS_COEFF_PARTITION": "1,1,1",
    "ZETAGENUS_COEFF_OUT": "variable.out",
    "ZETAGENUS_POLY_GENUS": "Ahat",
    "ZETAGENUS_POLY_K": "3",
    "ZETAGENUS_POLY_FMT": "latex",
    "ZETAGENUS_POLY_OUT": "variable.out",
    "ZETAGENUS_TABLE_GENUS": "Ahat",
    "ZETAGENUS_TABLE_MAX_K": "3",
    "ZETAGENUS_TABLE_OUT": "variable.out",
    "ZETAGENUS_TABLE_FMT": "json",
    "ZETAGENUS_TABLE_CACHE": "variable.cache",
    "ZETAGENUS_VERIFY_MAX_K": "2",
    "ZETAGENUS_VERIFY_MAX_R": "2",
    "ZETAGENUS_VERIFY_LEVEL_CAP": "2",
    "ZETAGENUS_VERIFY_SAMPLES": "1",
    "ZETAGENUS_VERIFY_RECURRENCE_SAMPLES": "1",
    "ZETAGENUS_VERIFY_DEPTH": "1000",
    "ZETAGENUS_VERIFY_TOL": "1e-300",
    "ZETAGENUS_VERIFY_SEED": "2",
    "ZETAGENUS_VERIFY_OUT": "variable.out",
}


@pytest.mark.parametrize(
    "args,code",
    [
        pytest.param(["coeff", "--genus", "L", "--partition", "2,1"], 0, id="coeff"),
        pytest.param(["coeff", "--genus", "Ahat"], 2, id="missing-partition"),
        pytest.param(["poly", "--genus", "L", "--k", "2"], 0, id="poly"),
        pytest.param(["poly", "--genus", "L", "--k", "2", "--format", "text"], 0, id="poly-format"),
        pytest.param(["table", "--genus", "L", "--max-k", "2", "--out", "t.csv"], 0, id="table"),
        pytest.param(["verify", "signs"], 0, id="signs"),
        pytest.param(["verify", "formal"], 0, id="formal"),
        pytest.param(["verify", "main", "--k", "1", "--depth", "2000"], 0, id="main"),
        pytest.param(["verify", "positivity", "--samples", "2", "--recurrence-samples", "0"], 0, id="positivity"),
    ],
)
@pytest.mark.parametrize(
    "variables", [_OLD_VARIABLES, dict.fromkeys(_OLD_VARIABLES, "x")], ids=["flag-values", "bad-values"]
)
def test_exported_variables_change_no_output(tmp_path, monkeypatch, args, code, variables):
    # each run's exit code, both streams and the files it leaves, without the
    # variables and with all of them exported
    monkeypatch.chdir(tmp_path)
    runs = []
    for env in ({}, variables):
        result = _invoke(args, env=env)
        runs.append((result.exit_code, result.output, {path.name: path.read_bytes() for path in tmp_path.iterdir()}))
        for path in tmp_path.iterdir():
            path.unlink()
    assert runs[0] == runs[1]
    assert runs[0][0] == code


def test_explicit_flags_beat_env_vars():
    result = _invoke(
        ["coeff", "--genus", "L", "--partition", "2,1"],
        env={"ZETAGENUS_COEFF_PARTITION": "1"},
    )
    assert result.output == "-13/945\n"


@pytest.mark.parametrize(
    "env,args,code,expected",
    [
        # the only input documented for a flag is the command line: a variable
        # named after the flag or its keyword fills in no flag not given
        ({"ZETAGENUS_POLY_FMT": "latex"}, ["poly", "--genus", "L", "--k", "2"], 0, "(7*p2 - p1^2)/45\n"),
        ({"ZETAGENUS_POLY_FORMAT": "latex"}, ["poly", "--genus", "L", "--k", "2"], 0, "(7*p2 - p1^2)/45\n"),
        ({"ZETAGENUS_VERIFY_DEPTH": "x"}, ["verify", "main", "--depth", "1000", "--k", "1"], 0, "CONFIG max_k=1 depth=1000"),
        # a flag's bad value is refused whatever a variable holds
        (
            {"ZETAGENUS_VERIFY_DEPTH": "1000"},
            ["verify", "main", "--depth", "x"],
            2,
            "\nError: Invalid value for '--depth': 'x' is not a valid integer.\n",
        ),
    ],
    ids=["fmt", "format-is-no-variable", "flag-beats-depth", "bad-depth"],
)
def test_each_flag_reads_its_documented_variable(env, args, code, expected):
    result = _invoke(args, env=env)
    assert result.exit_code == code, result.output
    assert expected in result.output


@pytest.mark.parametrize("keywords", [{}, {"auto_envvar_prefix": None, "standalone_mode": True}])
def test_cli_main_returns_the_code_whatever_click_keywords_it_is_given(keywords):
    # perfbench/probe.py calls cli.main as it called click's main; those
    # keywords are not read: the code is always returned
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["poly", "--genus", "L", "--k", "2"], **keywords) == 0
        with redirect_stderr(io.StringIO()):
            assert cli.main(["poly", "--genus", "L", "--k", "x"], **keywords) == 2
    assert out.getvalue() == "(7*p2 - p1^2)/45\n"


@pytest.mark.parametrize(
    "args,error",
    [
        (["verify", "nosuch", "--k", "x"], "Invalid value for '{main|ahat|hoffman|multiple-eta|positivity|formal|oracle|signs}'"),
        (["verify", "--k", "x"], "Missing argument '{main|ahat|hoffman|multiple-eta|positivity|formal|oracle|signs}'"),
        (["poly", "--format", "x", "--k", "y"], "Missing option '--genus'"),
        (["poly", "--format", "x", "--k", "y", "--genus", "L"], "Invalid value for '--k': 'y'"),
    ],
)
def test_of_several_wrong_parameters_the_first_in_the_table_is_reported(args, error):
    # parameters are checked in the order of the command's table, not in the
    # order they are given
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.output.count("Error: ") == 1 and f"Error: {error}" in result.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_pass_and_exits_zero():
    result = _invoke(["verify", "oracle", "--k", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "SUITE oracle"
    assert lines[1].startswith("CONFIG ")
    assert "CHECK oracle[L,k=3] PASS" in result.output
    assert lines[-1] == "RESULT oracle PASS 6/6"


def _shift_two_block_monomials(monkeypatch):
    # one more on the first monomial of every two-block distinct-level sum:
    # the free sums of 1|2 and its Mobius inversion both fail there
    real = formal.monomial_poly

    def shifted(pi, level_cap):
        poly = real(pi, level_cap)
        if pi.length != 2:
            return poly
        first = min(poly.terms)
        return formal.FormalPolynomial({**poly.terms, first: poly.terms[first] + 1})

    monkeypatch.setattr(formal, "monomial_poly", shifted)


def test_verify_check_lines_are_well_formed(monkeypatch):
    # CHECK <name> <PASS|FAIL> <lhs> <rhs> <delta> <bound>
    pattern = re.compile(r"^CHECK \S+ (PASS|FAIL) \S+ \S+ \S+ \S+$")
    runs = [
        (["formal", "--max-r", "2", "--n", "3"], 0),
        (["oracle", "--k", "2"], 0),
        (["formal", "--max-r", "2", "--n", "2"], 1),
    ]
    for args, code in runs:
        if code:  # a failing formal check names the monomial where the sides differ
            _shift_two_block_monomials(monkeypatch)
        result = _invoke(["verify", *args])
        assert result.exit_code == code
        checks = [l for l in result.output.splitlines() if l.startswith("CHECK ")]
        assert checks and all(pattern.match(l) for l in checks)


def test_verify_mathematical_failure_exits_one():
    result = _invoke(
        ["verify", "main", "--k", "1", "--depth", "500", "--tol", "1e-12"],
    )
    assert result.exit_code == 1
    assert "RESULT main FAIL" in result.output


def test_verify_rejects_unknown_suite_and_bad_config():
    assert _invoke(["verify", "nope"]).exit_code == 2
    result = _invoke(["verify", "main", "--depth", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("suite", ["main", "ahat", "hoffman", "multiple-eta", "positivity"])
def test_the_exponent_margin_is_no_option(suite):
    # the exponent floor is fixed in series; no flag or suite option sets it
    assert _invoke(["verify", suite, "--delta", "0.1"]).exit_code == 2
    with pytest.raises(ValueError, match=r"unknown suite option\(s\): margin"):
        run_suite(suite, margin=0.1)


def test_verify_refuses_a_depth_past_the_cap_before_any_array(monkeypatch):
    def no_array(*args):
        raise AssertionError("an array was built")

    monkeypatch.setattr(series, "_powers", no_array)
    monkeypatch.setattr(series, "_carry", no_array)
    for suite in ("main", "ahat", "hoffman", "multiple-eta", "positivity"):
        for depth in (series.MAX_DEPTH + 1, 100_000_000):
            start = time.perf_counter()
            result = _invoke(["verify", suite, "--depth", str(depth)])
            assert time.perf_counter() - start < 0.5
            assert result.exit_code == 2
            assert f"depth {depth} is past the depth cap {series.MAX_DEPTH}" in result.output


class _Reached(Exception):
    pass


def _reach(*args):
    raise _Reached


def _no_array(*args):
    raise AssertionError("an array was built")


def test_verify_refuses_an_oversized_working_set_before_any_array(monkeypatch):
    # each run's price is checked once, before any sum.  The largest input of
    # each priced shape along one option, each about 10 s in a launch on a
    # 2-core host (ahat --k 13 about 7 s), reaches its first sweep; one more,
    # or 1% more depth, is past the budget and exits 2 in under a second
    for args, edge in (
        (["main", "--k", "12", "--depth"], 3_403_675),
        (["main", "--k", "16", "--depth"], 907_358),
        (["ahat", "--k", "8", "--depth"], 16_025_641),
        (["ahat", "--k"], 13),
        (["hoffman", "--max-r", "7", "--samples"], 26),
        (["hoffman", "--max-r", "7", "--depth"], 65_496),
        (["multiple-eta", "--max-r", "7", "--samples"], 37),
        (["multiple-eta", "--max-r", "7", "--depth"], 94_357),
        (["positivity", "--depth"], 3_120_124),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(series, "_sweep", _reach)
            with pytest.raises(_Reached):
                _invoke(["verify", *args, str(edge)])
            patch.setattr(series, "_powers", _no_array)
            patch.setattr(series, "_carry", _no_array)
            start = time.perf_counter()
            result = _invoke(["verify", *args, str(max(edge + 1, edge * 101 // 100))])
            assert time.perf_counter() - start < 1.0
            assert result.exit_code == 2
            assert f"past the work budget of {series.MAX_WORK:,} ns" in result.output, args


def test_verify_main_runs_to_the_exact_layer_cap(monkeypatch):
    # main's degree is bounded by the exact layer alone: 20 reaches its first
    # sweep, and 21 exits 2 with the exact-layer message before any array
    with monkeypatch.context() as patch:
        patch.setattr(series, "_sweep", _reach)
        with pytest.raises(_Reached):
            _invoke(["verify", "main", "--k", "20"])
        patch.setattr(series, "_powers", _no_array)
        patch.setattr(series, "_carry", _no_array)
        result = _invoke(["verify", "main", "--k", "21"])
    assert result.exit_code == 2
    assert "degree 21 is past the exact-layer cap 20" in result.output


def _check_price(monkeypatch, args, per_index):
    """A budget of exactly the run's price at depth 1,000 accepts it, and one
    ns less refuses it with exit 2, before any array is built."""
    args, work = ["verify", *args, "--depth", "1000", "--tol", "1"], 1_000 * per_index
    with monkeypatch.context() as patch:
        patch.setattr(series, "MAX_WORK", work)
        assert _invoke(args).exit_code == 0
        patch.setattr(series, "MAX_WORK", work - 1)
        patch.setattr(series, "_powers", _no_array)
        patch.setattr(series, "_carry", _no_array)
        result = _invoke(args)
    assert result.exit_code == 2
    assert f"is priced at {work:,} ns, past the work budget of {work - 1:,} ns" in result.output


@pytest.mark.parametrize("suite", ["main", "ahat"])
def test_genus_suites_refuse_past_the_work_budget(monkeypatch, suite):
    # --k 2 runs one DP over (2), (4) and (2, 2): 3 steps and 3 members
    p = series.PRICES
    _check_price(monkeypatch, [suite, "--k", "2"], 3 * p["step"] + 3 * p["member"])


@pytest.mark.parametrize("options,classes", [({"max_k": 6}, 2), ({"max_k": 4, "depth": 20_000}, 1)])
def test_genus_suites_plan_each_depth_class_once(options, classes):
    # verify prices each depth class by its DP plan and symmetrize_family
    # sweeps it by the same plan: by default main --k 6 has two classes,
    # r <= 2 parts at depth 10^6 and r >= 3 at 2*10^5
    series._plan.cache_clear()
    run_suite("main", **options)
    assert series._plan.cache_info().misses == classes


@pytest.mark.parametrize("suite,kernels", [("hoffman", 2), ("multiple-eta", 1)])
def test_sampled_suites_refuse_past_the_suite_work_budget(monkeypatch, suite, kernels):
    # one tuple each of r = 1 and 2: 1 + 4 steps and a member for each
    # kernel the suite symmetrizes, and an ordering for each of the 1 + 3
    # block sums
    p = series.PRICES
    per_index = kernels * (5 * p["step"] + 2 * p["member"]) + 4 * p["ordering"]
    _check_price(monkeypatch, [suite, "--max-r", "2", "--samples", "1"], per_index)


def test_positivity_refuses_past_the_suite_work_budget(monkeypatch):
    # samples of r = 1, 2 and 3 take an ordering each of r exponents, and
    # recurrence samples of r = 1 and 2 both residuals over r exponents
    p = series.PRICES
    _check_price(monkeypatch, ["positivity", "--samples", "3", "--recurrence-samples", "0"], 6 * p["ordering"])
    per_index = p["ordering"] + 3 * (p["peel"] + p["block"])
    _check_price(monkeypatch, ["positivity", "--samples", "1", "--recurrence-samples", "2"], per_index)


def test_positivity_work_budget_admits_the_defaults_and_the_benchmark_shapes(monkeypatch):
    # the budget is checked first: each of these reaches its first sum
    monkeypatch.setattr(series, "alternating_chain_and_tail", _reach)
    at_the_cap = dict(samples=3, recurrence_samples=1, depth=series.MAX_DEPTH)
    for options in ({}, dict(samples=120, recurrence_samples=12), at_the_cap):
        with pytest.raises(_Reached):
            run_suite("positivity", **options)


def test_suite_work_budget_admits_the_defaults_and_max_r_7():
    # hoffman --max-r 7 at its default depth: per sample 769 steps and 7
    # members for each of two kernels, and 247 block sums, priced about 7 s
    # for 20 samples; and up to 775 samples at max_r 3
    for samples, max_r in ((20, 7), (26, 7), (775, 3)):
        tuples = numeric._sampled_tuples("hoffman", verify.DEFAULT_SEED, samples, max_r, verify.SAMPLE_DEPTH, 2)
        assert len(tuples) == samples * max_r
    for samples, max_r in ((27, 7), (776, 3)):
        with pytest.raises(ValueError, match="verify hoffman is priced at .* ns, past the work budget"):
            numeric._sampled_tuples("hoffman", verify.DEFAULT_SEED, samples, max_r, verify.SAMPLE_DEPTH, 2)


def test_verify_rejects_too_many_orderings_before_summing():
    # eight distinct exponents have 256 sub-multisets, past the symmetrize cap
    for suite in ("hoffman", "multiple-eta"):
        start = time.perf_counter()
        result = _invoke(["verify", suite, "--max-r", "8"])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert "symmetrize supports at most 128 sub-multisets" in result.output


def test_verify_runs_seven_distinct_exponents():
    for suite, checks in (("hoffman", 28), ("multiple-eta", 14)):
        result = _invoke(
            ["verify", suite, "--max-r", "7", "--samples", "2", "--depth", "2000"]
        )
        assert result.exit_code == 0
        assert f"RESULT {suite} PASS {checks}/{checks}" in result.output
        assert re.search(r"\[01:(\d\.\d{3},){6}\d\.\d{3}\] PASS", result.output)


_EXACT_CAP = "degree 21 is past the exact-layer cap 20"
_AHAT_BUDGET = "verify ahat is priced at 11,634,000,000 ns, past the work budget of 10,000,000,000 ns"
_DEEP_CAP = "degree 150 is past the exact-layer cap 20"


@pytest.mark.parametrize(
    "args,message",
    [
        # explicit ids: the message would make the test names over-long
        pytest.param(["table", "--genus", "L", "--max-k", "21"], _EXACT_CAP, id="args0-table cap"),
        pytest.param(["verify", "main", "--k", "21"], _EXACT_CAP, id="args1-main exact cap"),
        pytest.param(["verify", "signs", "--k", "21"], _EXACT_CAP, id="args2-table cap"),
        pytest.param(["poly", "--genus", "L", "--k", "21"], _EXACT_CAP, id="args3-table cap"),
        pytest.param(
            ["verify", "oracle", "--k", "13"], "oracle supports degrees 1..12, got 13",
            id="args4-oracle cap",
        ),
        (["verify", "formal", "--max-r", "4", "--n", "40"], "cap^blocks = 40^4 exceeds"),
        (["verify", "formal", "--max-r", "5"], "supports at most 4 blocks"),
        pytest.param(["verify", "ahat", "--k", "14"], _AHAT_BUDGET, id="args7-ahat work budget"),
        # coeff is capped by weight, however few its parts
        pytest.param(
            ["coeff", "--genus", "L", "--partition", ",".join(["1"] * 21)], _EXACT_CAP,
            id="args8-coefficient cap",
        ),
        pytest.param(
            ["coeff", "--genus", "L", "--partition", "21"], _EXACT_CAP, id="args9-coefficient cap"
        ),
        # far past the cap: refused before the series is built
        pytest.param(["table", "--genus", "L", "--max-k", "150"], _DEEP_CAP, id="args10-deep table"),
        pytest.param(["poly", "--genus", "L", "--k", "150"], _DEEP_CAP, id="args11-deep poly"),
        pytest.param(
            ["coeff", "--genus", "L", "--partition", "150"], _DEEP_CAP, id="args12-deep coeff"
        ),
        # inside the term budget, but it would run for close to a minute
        pytest.param(
            ["verify", "formal", "--max-r", "4", "--n", "31"],
            "level_cap^max_r = 31^4 = 923,521 is past the formal cap 20,000",
            id="args13-formal cap",
        ),
    ],
)
def test_out_of_range_inputs_fail_before_any_work(tmp_path, args, message):
    if args[0] == "table":
        args = args + ["--out", str(tmp_path / "t.csv")]
    start = time.perf_counter()
    result = _invoke(args)
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("tol", ["0", "-1e-06", "inf", "nan"])
@pytest.mark.parametrize("suite", ["main", "ahat", "hoffman", "multiple-eta", "positivity"])
def test_nonpositive_tol_fails_before_any_work(monkeypatch, suite, tol):
    def build(**kwargs):
        raise AssertionError("the checks were built")

    entry = dataclasses.replace(verify._SUITES[suite], build=build)
    monkeypatch.setitem(verify._SUITES, suite, entry)
    result = _invoke(["verify", suite, "--tol", tol])
    assert result.exit_code == 2
    assert f"tol must be positive and finite, got {float(tol)}" in result.output


@pytest.mark.parametrize(
    "args,message",
    [
        (["main", "--k", "0"], "max_k must be at least 1, got 0"),
        (["ahat", "--k", "0"], "max_k must be at least 1, got 0"),
        (["oracle", "--k", "0"], "max_k must be at least 1, got 0"),
        (["signs", "--k", "-3"], "max_k must be at least 1, got -3"),
        (["hoffman", "--max-r", "0"], "max_r must be at least 1, got 0"),
        (["multiple-eta", "--max-r", "-1"], "max_r must be at least 1, got -1"),
        (["formal", "--max-r", "0"], "max_r must be at least 1, got 0"),
        (["hoffman", "--samples", "0"], "samples must be at least 1, got 0"),
        (
            ["positivity", "--samples", "0", "--recurrence-samples", "0"],
            "samples must be at least 1, got 0",
        ),
        (
            ["positivity", "--recurrence-samples", "-1"],
            "recurrence_samples must be at least 0, got -1",
        ),
    ],
)
def test_sizes_that_would_run_no_check_fail_before_any_work(args, message):
    # a report of 0/0 checks would pass without testing anything
    start = time.perf_counter()
    result = _invoke(["verify", *args])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "suite,option",
    [("hoffman", "samples"), ("multiple-eta", "samples"), ("positivity", "samples"),
     ("positivity", "recurrence_samples")],
)
def test_sample_counts_past_the_cap_fail_before_any_work(monkeypatch, suite, option):
    # sampled suites run linearly in their samples; 1000 is the most
    built = []
    entry = dataclasses.replace(verify._SUITES[suite], build=lambda **kw: built.append(kw) or iter(()))
    monkeypatch.setitem(verify._SUITES, suite, entry)
    result = _invoke(["verify", suite, "--" + option.replace("_", "-"), "1001"])
    assert result.exit_code == 2
    assert f"{option} must be at most 1000, got 1001" in result.output
    assert not built
    run_suite(suite, **{option: 1000})
    assert built[0][option] == 1000


def test_verify_has_no_threads_option():
    result = _invoke(["verify", "main", "--threads", "2"])
    assert result.exit_code == 2
    assert "--threads" in result.output


def test_verify_writes_report_to_file(tmp_path):
    out = tmp_path / "report.txt"
    result = _invoke(
        ["verify", "oracle", "--k", "2", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "RESULT oracle PASS" in out.read_text()


# ---------------------------------------------------------------------------
# verification suites as a library
# ---------------------------------------------------------------------------


def test_available_suites_are_stable():
    assert available_suites() == (
        "main",
        "ahat",
        "hoffman",
        "multiple-eta",
        "positivity",
        "formal",
        "oracle",
        "signs",
    )


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_run_suite_rejects_options_no_suite_takes():
    with pytest.raises(ValueError, match="threads"):
        run_suite("oracle", max_k=1, threads=2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: series.EvalConfig(1e5), id="EvalConfig"),
        pytest.param(lambda: run_suite("hoffman", depth=50000.0), id="depth"),
        pytest.param(lambda: run_suite("signs", max_k=3.5), id="max_k"),
        pytest.param(lambda: run_suite("hoffman", samples=2.5), id="samples"),
        pytest.param(lambda: run_suite("formal", level_cap=2.5), id="level_cap"),
    ],
)
def test_sizes_that_are_not_integers_raise_value_errors(call):
    # range() would raise a TypeError from deep inside a suite or a sum
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()
    # a numpy integer is an integer
    assert series.EvalConfig(np.int64(50)).depth == 50
    assert run_suite("signs", max_k=np.int64(2)).passed


@pytest.mark.parametrize("suite", ["main", "hoffman", "positivity"])
def test_a_tol_that_is_not_a_number_raises_a_value_error(suite):
    # the range check would raise a TypeError from comparing it with 0
    with pytest.raises(ValueError, match="tol must be a number, got '1e-6'"):
        run_suite(suite, tol="1e-6")


@pytest.mark.parametrize("workers", [2.5, "2", None, 0])
@pytest.mark.parametrize("suite", ["main", "hoffman", "signs"])
def test_a_workers_count_that_is_not_a_positive_integer_raises_a_value_error(suite, workers):
    # range and min in the fan-out would raise a TypeError, and 0 would run nothing
    with pytest.raises(ValueError, match=f"workers must be a positive integer, got {workers!r}"):
        run_suite(suite, workers=workers, max_k=1, samples=1, depth=2_000)
    assert run_suite(suite, workers=np.int64(2), max_k=1, samples=1, depth=2_000).passed


def test_reports_are_deterministic():
    one = run_suite("oracle", max_k=3).render()
    two = run_suite("oracle", max_k=3).render()
    assert one == two


@pytest.mark.parametrize("route", ["coefficient_table", "coefficient_closed_form"])
def test_oracle_suite_counts_a_disagreeing_route(monkeypatch, route):
    # The oracle checks both the production tables and the paper's formula:
    # shifting either route's 1+1+1 coefficient fails exactly the k=3 checks.
    plain = run_suite("oracle", max_k=3).lines()
    real = getattr(genus_module, route)  # verify imports it from its home module when it runs
    ones = IntegerPartition((1, 1, 1))

    def shifted_table(genus, k):
        table = real(genus, k)
        if k != 3:
            return table
        entries = dict(table.items())
        entries[ones] += 1
        return dataclasses.replace(table, entries=entries)

    def shifted_closed_form(genus, partition):
        return real(genus, partition) + (IntegerPartition(partition) == ones)

    shifted = shifted_table if route == "coefficient_table" else shifted_closed_form
    monkeypatch.setattr(genus_module, route, shifted)
    lines = run_suite("oracle", max_k=3).lines()
    assert [line for line in lines if "FAIL" in line] == [
        "CHECK oracle[L,k=3] FAIL 2/3 3/3 1 exact",
        "CHECK oracle[Ahat,k=3] FAIL 2/3 3/3 1 exact",
        "RESULT oracle FAIL 4/6",
    ]
    assert [line for line in lines if line.startswith("CHECK") and "PASS" in line] == [
        line for line in plain if line.startswith("CHECK") and "k=3" not in line
    ]


def test_formal_suite_reports_a_failing_identity(monkeypatch):
    _shift_two_block_monomials(monkeypatch)
    result = _invoke(["verify", "formal", "--max-r", "2", "--n", "2"])
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines() if "FAIL" in line] == [
        "CHECK free-sum[1|2] FAIL terms=4 terms=4 at=((1,1),(2,2)) exact",
        "CHECK mobius[1|2] FAIL 2 1 at=((1,1),(2,2)) exact",
        "RESULT formal FAIL 16/18",
    ]


_SAMPLED_CONFIG = "CONFIG max_r=3 samples=20 seed=1729 depth=50000 tol=1e-06"
_NUMERIC = ("tol",)


@pytest.mark.parametrize(
    "suite,config,options",
    [
        ("main", "CONFIG max_k=3 depth=default tol=1e-06", ("max_k", "depth", *_NUMERIC, "workers")),
        ("ahat", "CONFIG max_k=3 depth=2000000 tol=1e-06", ("max_k", "depth", *_NUMERIC, "workers")),
        ("hoffman", _SAMPLED_CONFIG, ("max_r", "samples", "seed", "depth", *_NUMERIC, "workers")),
        ("multiple-eta", _SAMPLED_CONFIG, ("max_r", "samples", "seed", "depth", *_NUMERIC, "workers")),
        (
            "positivity",
            "CONFIG samples=100 recurrence_samples=10 seed=1729 depth=50000 tol=1e-06",
            ("samples", "recurrence_samples", "seed", "depth", *_NUMERIC, "workers"),
        ),
        ("formal", "CONFIG max_r=3 level_cap=4", ("max_r", "level_cap")),
        ("oracle", "CONFIG max_k=6", ("max_k",)),
        ("signs", "CONFIG max_k=12", ("max_k",)),
    ],
)
def test_default_config_lines(monkeypatch, suite, config, options):
    # The header comes from the suite table alone, so the checks are stubbed
    # out; each builder must receive exactly its own options, and a numeric
    # suite's, which runs its sums on up to that many processes, workers too.
    # The table names a numeric suite's builder, which run_suite looks up in
    # numeric, so the stub takes its place there.
    received = {}

    def build(**kwargs):
        received.update(kwargs)
        return iter(())

    entry = verify._SUITES[suite]
    if isinstance(entry.build, str):
        monkeypatch.setattr(numeric, entry.build, build)
    else:
        monkeypatch.setitem(verify._SUITES, suite, dataclasses.replace(entry, build=build))
    result = _invoke(["verify", suite])
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == config
    assert sorted(received) == sorted(options)


def test_config_line_with_explicit_depth():
    result = _invoke(["verify", "main", "--k", "1", "--depth", "20000"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "CONFIG max_k=1 depth=20000 tol=1e-06"


def _count_calls(monkeypatch, name):
    seen = []
    real = getattr(series, name)  # verify imports it from its home module when it runs

    def counting(*args):
        seen.append(args[0])
        return real(*args)

    monkeypatch.setattr(series, name, counting)
    return seen


@pytest.mark.parametrize(
    "suite,function", [("hoffman", "zeta"), ("multiple-eta", "alternating_chain_sum")]
)
def test_sampled_suites_evaluate_each_block_sum_once(monkeypatch, suite, function):
    # A tuple of r exponents has 2^r - 1 distinct block sums, one per
    # nonempty subset; each is evaluated once and shared by every set
    # partition (and, in hoffman, by the strict and the star check).
    plain = run_suite(suite, samples=2, max_r=3, depth=2_000).render()
    seen = _count_calls(monkeypatch, function)
    report = run_suite(suite, samples=2, max_r=3, depth=2_000)
    assert report.render() == plain
    assert report.passed
    assert len(seen) == len(set(seen)) == 2 * (1 + 3 + 7)


def test_signs_suite_passes_to_degree_twenty():
    # The paper's theorem: every coefficient is nonzero with the expected sign.
    report = run_suite("signs", max_k=20)
    assert report.passed
    assert len(report.checks) == 40


def test_oracle_suite_passes_at_its_cap():
    report = run_suite("oracle", max_k=12)
    assert report.passed
    assert len(report.checks) == 24


def _no_set_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("set partitions were enumerated")

    # every enumeration of set partitions runs through this one walk
    for module in (partitions, genus_module, verify):
        monkeypatch.setattr(module, "signed_block_sums", refuse)


@pytest.mark.parametrize(
    "args",
    [
        ["coeff", "--genus", "L", "--partition", ",".join(["1"] * 20)],
        ["coeff", "--genus", "Ahat", "--partition", "3,3,2,2" + ",1" * 10],
        ["table", "--genus", "L", "--max-k", "14", "--format", "json"],
        ["poly", "--genus", "Ahat", "--k", "14"],
        ["verify", "signs", "--k", "14"],
        ["verify", "oracle", "--k", "9"],
        ["verify", "main", "--k", "2"],
        ["verify", "ahat", "--k", "2", "--depth", "20000", "--tol", "1e-3"],
    ],
    ids=["coeff-1^20", "coeff-3,3,2,2,1^10", "table", "poly", "signs", "oracle", "main", "ahat"],
)
def test_no_production_route_enumerates_set_partitions(monkeypatch, tmp_path, args):
    _no_set_partitions(monkeypatch)
    if args[0] == "table":
        args = args + ["--out", str(tmp_path / "t.json")]
    result = _invoke(args)
    assert result.exit_code == 0, result.output


def test_main_suite_passes_to_degree_seven():
    report = run_suite("main", max_k=7)
    assert report.passed
    assert len(report.checks) == 1 + 2 + 3 + 5 + 7 + 11 + 15


def test_seeded_suites_record_their_seed():
    report = run_suite(
        "hoffman", samples=2, max_r=2, depth=2_000, seed=7
    )
    assert report.passed
    assert any("seed=7" in line for line in report.lines() if "CONFIG" in line)
    again = run_suite("hoffman", samples=2, max_r=2, depth=2_000, seed=7)
    assert report.render() == again.render()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "zetagenus", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "coeff" in result.stdout and "verify" in result.stdout


def test_the_console_script_names_itself_in_usage_lines(tmp_path):
    # click's naming: the file name of argv[0], and `python -m zetagenus` only under -m
    script = tmp_path / "zetagenus"
    script.write_text("import sys\nfrom zetagenus.cli import main\nsys.exit(main())\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, str(script), "coeff"], capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert result.stderr.startswith("Usage: zetagenus coeff [OPTIONS]\nTry 'zetagenus coeff --help' for help.\n")


def test_main_pins_openblas_to_one_thread_unless_set(monkeypatch):
    # no command calls BLAS, so numpy's OpenBLAS gets no worker pool; the
    # variable is set before dispatch, so before any command imports numpy
    seen = []

    def record(**kwargs):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return 0

    monkeypatch.setattr(cli_module.cli, "main", record)
    monkeypatch.setattr(os, "_exit", lambda code: None)
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    monkeypatch.setattr(os, "environ", environ)
    cli_module.main()
    assert seen == ["1"]
    environ["OPENBLAS_NUM_THREADS"] = "3"
    cli_module.main()
    assert seen == ["1", "3"]


@pytest.mark.parametrize(
    "args,code", [(["--help"], 0), (["coeff", "--genus", "Nope", "--partition", "1"], 2)], ids=["help", "bad-genus"]
)
def test_main_ends_with_os_exit_and_the_commands_code(monkeypatch, capsys, args, code):
    # main skips the interpreter's teardown: once the command has returned
    # its code it flushes and calls os._exit, recorded here so that pytest
    # runs on
    codes = []
    monkeypatch.setattr(sys, "argv", ["zetagenus", *args])
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(os, "_exit", codes.append)
    cli_module.main()
    assert codes == [code]
    captured = capsys.readouterr()
    assert ("Usage:" in captured.out) if code == 0 else ("unknown genus" in captured.err)


def _launch(args, **kwargs):
    """python -m zetagenus in a fresh interpreter, from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "zetagenus", *args], env={**os.environ, "PYTHONPATH": str(src)}, **kwargs
    )


@pytest.mark.parametrize(
    "args,code",
    [
        (["verify", "main", "--k", "3"], 0),
        (["verify", "main", "--k", "3", "--tol", "1e-300"], 1),
        (["coeff", "--genus", "Nope", "--partition", "1"], 2),
    ],
    ids=["pass", "fail", "refused"],
)
def test_launch_exits_with_the_commands_code_after_all_its_output(tmp_path, args, code):
    # os._exit ends the process without the interpreter's own flush, so
    # stdout redirected to a file must still hold all that the command prints
    path = tmp_path / "stdout.txt"
    with open(path, "wb") as fh:
        result = _launch(args, stdout=fh, stderr=subprocess.PIPE)
    expected = _invoke(args)
    assert result.returncode == expected.exit_code == code, result.stderr
    assert path.read_bytes() == expected.stdout_bytes
    assert (b"unknown genus" in result.stderr) == (code == 2)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "main", "--k", "3", "--depth", "20000", "--out", "{out}"],
        ["table", "--genus", "L", "--max-k", "10", "--format", "json", "--out", "{out}"],
    ],
    ids=["verify", "table"],
)
def test_launch_writes_complete_files(tmp_path, args):
    launched, in_process = tmp_path / "launched.txt", tmp_path / "in-process.txt"
    result = _launch([a.format(out=launched) for a in args], capture_output=True)
    assert result.returncode == 0, result.stderr
    assert _invoke([a.format(out=in_process) for a in args]).exit_code == 0
    assert launched.read_bytes() == in_process.read_bytes()
    assert launched.read_bytes().endswith(b"\n")


# the benchmark's sampled-identities shapes at its seed 1, whose suite seeds
# are random.Random(1).randrange(1, 10**6) drawn three times
_SAMPLED_RUNS = {
    "hoffman-defaults": ("hoffman", {}),
    "multiple-eta-defaults": ("multiple-eta", {}),
    "positivity-defaults": ("positivity", {}),
    "hoffman-bench": ("hoffman", {"samples": 20, "seed": 140892, "max_r": 3}),
    "multiple-eta-bench": ("multiple-eta", {"samples": 24, "seed": 596854, "max_r": 3}),
    "positivity-bench": ("positivity", {"samples": 120, "seed": 888599, "recurrence_samples": 12}),
}


def _flags(options):
    return [a for key, value in options.items() for a in ("--" + key.replace("_", "-"), str(value))]


@pytest.mark.parametrize("name", list(_SAMPLED_RUNS))
def test_a_sampled_suite_launch_prints_the_serial_report(name):
    # a launch runs a sampled suite on every CPU it may use; the float golden
    # hashes are pinned to one numpy pow path, so this guards the bytes elsewhere
    suite, options = _SAMPLED_RUNS[name]
    result = _launch(["verify", suite, *_flags(options)], capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode() == run_suite(suite, **options).render() + "\n"


# the benchmark's deep-sums shapes (one depth class each) and main's defaults (two)
_GENUS_RUNS = {
    "main-bench": ("main", {"max_k": 5, "depth": 100_000}),
    "ahat-bench": ("ahat", {"max_k": 4, "depth": 1_000_000}),
    "main-defaults": ("main", {}),
}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("cpus", ["one", "all"])
@pytest.mark.parametrize("name", list(_GENUS_RUNS))
def test_a_main_or_ahat_launch_prints_the_serial_report(name, cpus):
    # a launch splits each depth class's sums over every CPU it may use
    suite, options = _GENUS_RUNS[name]
    one_cpu = _one_cpu if cpus == "one" else None
    result = _launch(["verify", suite, *_flags(options)], capture_output=True, preexec_fn=one_cpu)
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode() == run_suite(suite, **options).render() + "\n"


_FORKS_SCRIPT = r"""
import os
import sys

cpus, *args = sys.argv[1:]
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
parent, real_fork, real_exit = os.getpid(), os.fork, os._exit


def fork():
    pid = real_fork()
    if pid:
        os.write(2, b"forked\n")
    return pid


def exit(code):
    if os.getpid() == parent:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            os.write(2, b"no child left\n")
    real_exit(code)


os.fork, os._exit = fork, exit
sys.argv = ["zetagenus", *args]
from zetagenus.cli import main

main()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("cpus", ["one", "all"])
@pytest.mark.parametrize(
    "args,code",
    [
        (["hoffman", "--samples", "3", "--depth", "2000"], 0),
        (["multiple-eta", "--samples", "3", "--depth", "2000", "--tol", "1e-300"], 1),
        (["positivity", "--samples", "4", "--recurrence-samples", "2", "--depth", "2000"], 0),
        (["hoffman", "--max-r", "7", "--samples", "27"], 2),
        (["main", "--k", "3", "--depth", "20000"], 0),
        (["main", "--k", "3", "--tol", "1e-300"], 1),
        (["main", "--k", "21"], 2),
        (["ahat", "--k", "2"], 0),
        (["ahat", "--k", "14"], 2),
    ],
    ids=["pass", "fail", "positivity", "refused", "main-pass", "main-fail", "main-refused", "ahat-pass", "ahat-refused"],
)
def test_a_launch_forks_only_past_one_cpu_and_reaps_every_child(cpus, args, code):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _FORKS_SCRIPT, cpus, "verify", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    expected = _invoke(["verify", *args])
    assert result.returncode == expected.exit_code == code, result.stderr
    assert result.stdout == expected.stdout_bytes
    # items of the sampled suites; main and ahat split their sums into --k groups at most
    items = {"hoffman": 9, "multiple-eta": 9, "positivity": 6, "main": 3, "ahat": 2}[args[0]]
    forks = 0 if cpus == "one" or code == 2 else min(len(os.sched_getaffinity(0)), items) - 1
    assert result.stderr.count(b"forked\n") == forks
    assert result.stderr.count(b"no child left\n") == 1


def _raise():
    raise ZeroDivisionError("an item failed")


def _die():
    os._exit(3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize(
    "bad,item,error,message",
    [
        # on two processes the child runs the odd items and this process the even ones
        (1, _raise, RuntimeError, "ZeroDivisionError: an item failed"),
        (0, _raise, ZeroDivisionError, "an item failed"),  # the child is killed
        (3, _die, RuntimeError, "ended without a result"),
        (5, lambda: [object()], RuntimeError, "ValueError: unmarshallable object"),
    ],
    ids=["child-raises", "parent-raises", "child-dies", "child-sends-an-object"],
)
def test_a_failing_item_makes_the_fan_out_raise_and_leaves_no_child(bad, item, error, message):
    items = [lambda k=k: [str(k), float(k)] for k in range(6)]
    items[bad] = item
    cpus = os.sched_getaffinity(0)
    with pytest.raises(error, match=message):
        numeric._fan_out(items, 2)
    assert os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_fan_out_merges_in_item_order():
    # seven items on three processes: every third item each
    items = [lambda k=k: (f"{k}a", k / 3)[: 1 + k % 2] for k in range(7)]
    assert numeric._fan_out(items, 3) == numeric._fan_out(items, 1) == [[f"{k}a", k / 3][: 1 + k % 2] for k in range(7)]
    # main at its default depths has two depth classes
    for suite, options in [
        ("positivity", dict(samples=5, recurrence_samples=3, depth=2_000)),
        ("main", dict(max_k=6, depth=2_000)),
        ("main", dict(max_k=4)),
        ("ahat", dict(max_k=5, depth=20_000)),
    ]:
        assert run_suite(suite, workers=3, **options) == run_suite(suite, **options)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_fan_out_starts_each_process_on_its_own_cpu_and_lets_it_move(monkeypatch):
    # a new child may stay on its parent's CPU for longer than a share runs;
    # the affinity calls are recorded, not made, so any host runs this
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 6, 7})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, sorted(cpus))))
    monkeypatch.setattr(os, "getpid", lambda: 4)  # the first process starts on CPU 4 mod 3 of those
    items = [lambda: list(calls)] * 4  # each item: its process's calls so far
    moves = {cpu: [(0, [cpu]), (0, [5, 6, 7])] for cpu in (5, 6, 7)}
    assert numeric._fan_out(items, 3) == [moves[6], moves[7], moves[5], moves[6]]
    calls.clear()
    assert numeric._fan_out(items, 1) == [[]] * 4  # one process makes no call


@pytest.mark.parametrize("suite,options", [
    ("main", dict(max_k=3, depth=2_000)),
    ("ahat", dict(max_k=3, depth=20_000)),
    ("hoffman", dict(samples=2, depth=2_000)),
    ("multiple-eta", dict(samples=2, depth=2_000)),
    ("positivity", dict(samples=3, recurrence_samples=2, depth=2_000)),
])
def test_every_fan_out_item_sends_back_floats(monkeypatch, suite, options):
    # a child sends its items' sums alone, and the builder makes the checks
    # from them in the launch process
    real, runs = numeric._fan_out, []

    def recording(items, workers):
        values = real(items, workers)
        runs.extend(values)
        return values

    monkeypatch.setattr(numeric, "_fan_out", recording)
    assert run_suite(suite, **options).checks
    assert runs and all(run for run in runs)
    assert {type(value) for run in runs for value in run} == {float}


@pytest.mark.parametrize("suite,options", [
    ("main", dict(max_k=4, depth=2_000)), ("ahat", dict(max_k=3, depth=20_000)), ("hoffman", dict(samples=2, depth=2_000)),
])
def test_numeric_suites_run_in_process_without_affinity_calls(monkeypatch, suite, options):
    # as on hosts without them (macOS, Windows), where cli.main passes one worker
    serial = run_suite(suite, **options)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    assert run_suite(suite, workers=2, **options) == serial


def test_main_sums_each_depth_class_in_groups_by_largest_part(monkeypatch):
    # run serially here, so that every group's family is seen
    real = series.symmetrize_family

    def record(kernel, family, cfg):
        families.append((cfg.depth, [int(max(s)) // 2 for s in family]))
        return real(kernel, family, cfg)

    def serial(items, w):
        processes.append(w)
        return [list(item()) for item in items]

    families, processes = [], []
    monkeypatch.setattr(series, "symmetrize_family", record)
    monkeypatch.setattr(numeric, "_fan_out", serial)
    assert run_suite("main", max_k=4, workers=3).passed
    assert [depth for depth, _ in families] == [series.DEPTH_LOW_RANK] * 3 + [series.DEPTH_HIGH_RANK] * 3
    assert all(j % 3 == g % 3 for g, (_, tops) in enumerate(families) for j in tops)
    parts = [p for k in range(1, 5) for p in partitions.integer_partitions(k)]
    assert sorted(j for _, tops in families for j in tops) == sorted(p[0] for p in parts)
    # no more processes than largest parts, so that none has only empty groups
    assert run_suite("main", max_k=2, workers=8).passed
    assert processes == [3, 2]


_LIBRARY_SCRIPT = r"""
import os

before = dict(os.environ)
import zetagenus
from zetagenus import series
series.multiple_zeta_star([2.0, 2.0], series.EvalConfig(1000))
series.symmetrize("T", [2.0, 4.0], series.EvalConfig(1000))
print(dict(os.environ) == before)
"""


def test_library_imports_leave_the_environment_alone():
    # only the CLI owns its process; a library caller's numpy keeps its threads
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", _LIBRARY_SCRIPT],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_reports_do_not_depend_on_openblas_threads():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        result = subprocess.run(
            [sys.executable, "-m", "zetagenus", "verify", "main", "--k", "4", "--depth", "20000"],
            capture_output=True,
            env={**env, **extra, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert b"RESULT main PASS" in outputs[0]


def _last_json_line(script, *args):
    """The last line a script prints in a fresh interpreter, as JSON."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_STARTUP_SCRIPT = r"""
import json
import sys

import zetagenus
loaded = {"import zetagenus": "numpy" in sys.modules}
from zetagenus import cli
loaded["import zetagenus.cli"] = "numpy" in sys.modules
for args in [
    ["--help"],
    ["table", "--genus", "L", "--max-k", "4", "--out", sys.argv[1]],
    ["poly", "--genus", "Ahat", "--k", "3"],
    ["coeff", "--genus", "L", "--partition", "2,1"],
    ["verify", "signs"],
    ["verify", "oracle"],
    ["verify", "formal"],
    ["verify", "main", "--k", "1", "--depth", "1000"],
]:
    assert cli.cli.main(args) == 0, args
    loaded[" ".join(args[:2])] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_only_numeric_suites_load_numpy(tmp_path):
    # numpy serves only the series evaluators: importing the package and
    # running the exact commands leave it unloaded, and the first series
    # evaluation loads it.
    loaded = _last_json_line(_STARTUP_SCRIPT, str(tmp_path / "table.csv"))
    assert loaded.pop("verify main") is True
    assert len(loaded) == 9 and not any(loaded.values()), loaded


_COMMAND_SCRIPT = r"""
import sys

import zetagenus
loaded = {"import zetagenus": sorted(m for m in sys.modules if m.startswith("zetagenus."))}
from zetagenus import cli
assert cli.cli.main(sys.argv[1:]) == 0
loaded["command"] = sorted(m.removeprefix("zetagenus.") for m in sys.modules if m.startswith("zetagenus."))
loaded["numpy"] = "numpy" in sys.modules
loaded["json"] = "json" in sys.modules
loaded["rationals"] = sorted(m for m in ("decimal", "fractions") if m in sys.modules)
loaded["click"] = "click" in sys.modules
import json
print(json.dumps(loaded))
"""
_EXACT_MODULES = ["cli", "exact", "genus", "partitions"]
# each suite loads its own layers: the exact suites neither series nor the
# numeric suites' module, the numeric suites neither formal nor exact
_EXACT_SUITE_MODULES = _EXACT_MODULES + ["verify"]
_NUMERIC_SUITE_MODULES = ["cli", "numeric", "partitions", "series", "verify"]


@pytest.mark.parametrize(
    "args,modules",
    [
        (["--help"], ["cli"]),
        (["coeff", "--genus", "L", "--partition", "2,1"], _EXACT_MODULES),
        (["poly", "--genus", "Ahat", "--k", "3"], _EXACT_MODULES + ["render"]),
        (["table", "--genus", "L", "--max-k", "4", "--out", "{out}"], _EXACT_MODULES + ["render"]),
        (["verify", "signs"], _EXACT_SUITE_MODULES),
        (["verify", "oracle", "--k", "3"], _EXACT_SUITE_MODULES),
        (["verify", "main", "--k", "1", "--depth", "1000"], _EXACT_SUITE_MODULES + ["numeric", "series"]),
        (["verify", "formal"], ["cli", "formal", "partitions", "verify"]),
        (["verify", "hoffman", "--samples", "1", "--depth", "1000"], _NUMERIC_SUITE_MODULES),
        (["verify", "multiple-eta", "--samples", "1", "--depth", "1000"], _NUMERIC_SUITE_MODULES),
        (
            ["verify", "positivity", "--samples", "1", "--recurrence-samples", "1", "--depth", "1000"],
            _NUMERIC_SUITE_MODULES,
        ),
    ],
    ids=["help", "coeff", "poly", "table", "signs", "oracle", "main", "formal", "hoffman", "multiple-eta", "positivity"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, modules):
    # each command in a fresh interpreter: the package namespace loads no
    # submodule, the exact commands load neither verify, formal, series
    # nor numpy, the exact suites not numeric, only render's exports load
    # json, and the sampled suites, which compare floats with floats, load
    # no rational or decimal arithmetic; no command loads click
    args = [a.format(out=tmp_path / "t.csv") for a in args]
    assert _last_json_line(_COMMAND_SCRIPT, *args) == {
        "import zetagenus": [],
        "command": sorted(modules),
        "numpy": "series" in modules,
        "json": "render" in modules,
        "rationals": ["decimal", "fractions"] if {"exact", "formal"} & set(modules) else [],
        "click": False,
    }


def test_no_other_module_binds_a_numeric_suite_function():
    # verify looks the numeric builders up as a suite runs; a module-level
    # binding would load numeric with it, and tools that wrap the functions a
    # module imports from another would find a layer they do not know
    import importlib
    import inspect
    run_suite("hoffman", samples=1, depth=1000)  # numeric is loaded now
    for name in ("cli", "exact", "partitions", "genus", "series", "formal", "verify", "render"):
        module = importlib.import_module(f"zetagenus.{name}")
        bound = [k for k, v in vars(module).items() if inspect.isfunction(v) and v.__module__ == numeric.__name__]
        assert not bound, (name, bound)


def test_series_imports_no_other_package_module():
    # series is a leaf: the numeric kernels need none of the exact layers
    script = "import json, sys, zetagenus.series; print(json.dumps(sorted(m for m in sys.modules if 'zetagenus.' in m)))"
    assert _last_json_line(script) == ["zetagenus.series"]
