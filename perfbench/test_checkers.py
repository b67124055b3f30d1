"""Self-tests of the benchmark's checkers and input generation.

    python3 -m pytest perfbench/test_checkers.py

The checkers must accept correct outputs and reject corrupted ones: a
table with one coefficient perturbed, a report with a verdict flipped,
a report with a CHECK line missing.  The same seed must give the same
inputs, and the tracer must count kernel calls where they run.  Nothing
here runs zetagenus.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks
import reference
import spans
import workloads

MAIN_K2 = """SUITE main
CONFIG max_k=2 depth=default tol=1e-06 threads=1
CHECK h[1] PASS 1/3 3.333333333331e-01 6.078e-13 1e-06
CHECK h[2] PASS 7/45 1.555555555556e-01 1.784e-16 1e-06
CHECK h[1+1] PASS -1/45 -2.222222222229e-02 3.040e-12 1e-06
RESULT main PASS 3/3
"""

POSITIVITY = """SUITE positivity
CONFIG samples=1 recurrence_samples=1 seed=1729 depth=50000 tol=1e-06 threads=1
CHECK chain-negative[00:3.990] PASS -9.466917392842e-01 <0 9.466917392842e-01 1.202401056714e-11
CHECK tail-positive[00:k=1:3.990] PASS 5.330826071577e-02 >0 5.330826071577e-02 9.217803208851e-13
CHECK peel[00:1.781] PASS -7.990874535757e-01 -7.990874535757e-01 0.000e+00 1e-06
CHECK block[00:k=3:1.781] PASS 2.352823531146e-02 2.352823531146e-02 0.000e+00 1e-06
RESULT positivity PASS 4/4
"""

ORACLE_K2 = """SUITE oracle
CONFIG max_k=2 threads=1
CHECK oracle[L,k=1] PASS 1/1 1/1 0 exact
CHECK oracle[L,k=2] PASS 2/2 2/2 0 exact
CHECK oracle[Ahat,k=1] PASS 1/1 1/1 0 exact
CHECK oracle[Ahat,k=2] PASS 2/2 2/2 0 exact
RESULT oracle PASS 4/4
"""


def _csv(genus: str, max_k: int, tweak=None) -> str:
    """A table export in the CLI's CSV layout, made from the reference."""
    lines = ["k,partition,coefficient_num,coefficient_den,sign,r"]
    for k in range(1, max_k + 1):
        for part, c in reference.tables(genus, max_k)[k].items():
            if tweak and tweak[0] == (k, part):
                c = c * tweak[1]
            sign = (c > 0) - (c < 0)
            lines.append(f"{k},{'+'.join(map(str, part))},{c.numerator},{c.denominator},{sign},{len(part)}")
    return "\n".join(lines) + "\n"


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def test_reference_satisfies_defining_identity():
    rng = random.Random(5)
    for genus in reference.GENERA:
        for k in range(1, 9):
            table = reference.tables(genus, 8)[k]
            lhs, rhs = reference.identity_sides(genus, k, table, reference.random_point(rng, k))
            assert lhs == rhs
    assert reference.coefficient("L", (1,)) == Fraction(1, 3)
    assert reference.coefficient("Ahat", (2,)) == Fraction(-1, 1440)
    assert reference.char_series("Ahat", 3) == (1, Fraction(-1, 24), Fraction(7, 5760), Fraction(-31, 967680))


def test_table_checker_accepts_the_reference_table():
    assert checks.check_table_csv("L", 9, _csv("L", 9), random.Random(1)) == sum(
        len(reference.partitions(k)) for k in range(1, 10))
    checks.check_table_csv("Ahat", 6, _csv("Ahat", 6), random.Random(1))


def test_table_checker_rejects_one_perturbed_coefficient():
    for genus, key in (("L", (7, (3, 2, 1, 1))), ("Ahat", (5, (5,)))):
        bad = _csv(genus, 7, tweak=(key, Fraction(1001, 1000)))
        assert _rejects(checks.check_table_csv, genus, 7, bad, random.Random(1))
    # the evaluation identity alone catches it too, without the reference table
    table = dict(reference.tables("L", 6)[6])
    table[(2, 2, 2)] += Fraction(1, 10**9)
    lhs, rhs = reference.identity_sides("L", 6, table, reference.random_point(random.Random(2), 6))
    assert lhs != rhs


def test_table_checker_rejects_wrong_sign_or_missing_row():
    text = _csv("L", 4)
    assert _rejects(checks.check_table_csv, "L", 4, text.replace("\n2,1+1,-1,45,-1,2", "\n2,1+1,-1,45,1,2"),
                    random.Random(1))
    assert _rejects(checks.check_table_csv, "L", 4, text.replace("3,2+1,-13,945,-1,2\n", ""), random.Random(1))


def test_poly_parsers_read_every_form():
    rng = random.Random(3)
    assert checks.check_poly("L", 3, "text", "(62*p3 - 13*p2*p1 + 2*p1^3)/945\n", rng) == 3
    assert checks.check_poly("L", 3, "latex", r"\frac{1}{945}\left(62 p_3 - 13 p_2 p_1 + 2 p_1^3\right)", rng) == 3
    assert checks.check_poly("Ahat", 1, "text", "-(1/24)*p1", rng) == 1
    assert checks.check_poly("Ahat", 1, "latex", r"-\frac{1}{24} p_1", rng) == 1
    assert checks.parse_poly_latex(r"p_{12}^{10} p_1") == {(12,) * 10 + (1,): 1}
    assert _rejects(checks.check_poly, "L", 3, "text", "(62*p3 - 13*p2*p1 + 3*p1^3)/945", rng)
    assert _rejects(checks.check_poly, "L", 3, "latex", r"\frac{1}{945}\left(62 p_3 - 13 p_2 p_1\right)", rng)


def test_coeff_checker():
    assert checks.check_coeff("Ahat", (1, 1, 1), "-31/967680\n") == 1
    assert _rejects(checks.check_coeff, "Ahat", (1, 1, 1), "-31/967681\n")
    assert _rejects(checks.check_coeff, "L", (2,), "14/90\n")  # not reduced


def test_report_checker_accepts_correct_reports():
    assert checks.check_report("main", {"k": 2}, MAIN_K2) == 3
    assert checks.check_report("positivity", {"samples": 1, "recurrence-samples": 1}, POSITIVITY) == 4
    assert checks.check_report("oracle", {"k": 2}, ORACLE_K2) == 4


def test_report_checker_rejects_flipped_verdicts():
    flipped = MAIN_K2.replace("CHECK h[2] PASS", "CHECK h[2] FAIL").replace("PASS 3/3", "FAIL 2/3")
    assert _rejects(checks.check_report, "main", {"k": 2}, flipped)
    # PASS printed although the printed numbers miss the tolerance
    off = MAIN_K2.replace("1.555555555556e-01 1.784e-16", "1.555565555556e-01 6.429e-06")
    assert _rejects(checks.check_report, "main", {"k": 2}, off)
    weak = POSITIVITY.replace("9.466917392842e-01 1.202401056714e-11", "9.466917392842e-01 1.0e+00")
    assert _rejects(checks.check_report, "positivity", {"samples": 1, "recurrence-samples": 1}, weak)
    wrong_exact = MAIN_K2.replace("h[1+1] PASS -1/45", "h[1+1] PASS -1/46")
    assert _rejects(checks.check_report, "main", {"k": 2}, wrong_exact)


def test_report_checker_rejects_a_missing_check_line():
    missing = MAIN_K2.replace("CHECK h[2] PASS 7/45 1.555555555556e-01 1.784e-16 1e-06\n", "")
    assert _rejects(checks.check_report, "main", {"k": 2}, missing)
    renumbered = missing.replace("PASS 3/3", "PASS 2/2")
    assert _rejects(checks.check_report, "main", {"k": 2}, renumbered)
    short = ORACLE_K2.replace("CHECK oracle[Ahat,k=2] PASS 2/2 2/2 0 exact\n", "").replace("4/4", "3/3")
    assert _rejects(checks.check_report, "oracle", {"k": 2}, short)


def test_expected_check_counts():
    assert checks.expected_checks("formal", {"max-r": 2}) == 18
    assert checks.expected_checks("hoffman", {"samples": 1, "max-r": 2}) == 4
    assert checks.expected_checks("main", {"k": 5}) == 18
    assert [checks.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_same_seed_gives_same_inputs():
    for name, build in workloads.WORKLOADS.items():
        assert [op.argv for op in build(7)] == [op.argv for op in build(7)], name
    for name in ("exact-tables", "sampled-identities"):
        build = workloads.WORKLOADS[name]
        assert len({tuple(op.argv for op in build(seed)) for seed in range(5)}) > 1, name



def test_kernel_calls_are_counted_where_they_run():
    tracer = spans.Tracer()
    kernel = tracer.counted(lambda s: None)  # as installed in zetagenus.series

    def symmetrize(name, s):
        for _ in range(6):  # every ordering, repeats included
            kernel(s)

    tracer.wrap("series.symmetrize", symmetrize)("T", [2.0, 2.0, 3.0])
    tracer.wrap("series.multiple_zeta", lambda s: None)([2.5])
    assert tracer.kernel_calls == 7
    assert tracer.sym_kernel_calls == 6
    assert tracer.sym_distinct == 3
