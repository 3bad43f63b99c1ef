"""End-to-end command-line tests.

Commands run in process through cli.main, with files on disk or stdin.
Text outputs for operator listings are themselves valid ideal files, so
the strongest checks here are feed-the-output-back round trips.
"""

import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import oreshape
from oreshape import cli
from oreshape.arith import MultiPoly, RatFunc, format_monomial, join_sum, power_product, var_name
from oreshape.cli import main
from oreshape.errors import OreShapeError
from oreshape.gb import GroebnerBasis, TermOrder, groebner_basis
from oreshape.ore import OreOperator, der_name, format_operator
from oreshape.parsing import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, MAX_NVARS, parse_ideal_file
from oreshape.series import MAX_DEPENDENCE_WORK, MAX_SERIES_MONOMIALS, solve_series

from _helpers import exp_series, poly_times_exp_series, rand_operator

TWO_POINTS = "Dx^2 - 3*Dx + 2\nDy\n"
EXP_PAIR = "Dx - 1\nDy^2 - Dy\n"
NILPOTENT_Y = "Dx - 1\nDy^2\n"
# exp(a*x + b*y) at (a, b) = (-7, 0), (-9, 1), (-4, 2), (-1, 3), (-6, 4), (-9, 5):
# no shear in [-5, 5] separates the x-rates a + c*b, and -6 does
SIX_POINTS = (
    "Dx - 13/120*Dy^5 + 23/24*Dy^4 - 37/24*Dy^3 - 95/24*Dy^2 + 133/20*Dy + 7\n"
    "Dy^6 - 15*Dy^5 + 85*Dy^4 - 225*Dy^3 + 274*Dy^2 - 120*Dy\n"
)
# every monomial of degree 2 at nvars 3: no shear puts it in normal position
FAT_POINT_3 = "# nvars 3\nDx^2\nDx*Dy1\nDx*Dy2\nDx*Dy3\nDy1^2\nDy1*Dy2\nDy1*Dy3\nDy2^2\nDy2*Dy3\nDy3^2\n"


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, text, name="input.ideal"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_output_is_canonical_ideal_file(capsys, tmp_path):
    path = write(tmp_path, "# a comment\nDx*x - x*Dx\n2*y + y\n")
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    assert out == "# nvars 1\n1\n3*y\n"
    # feeding the output back reproduces it exactly
    path2 = write(tmp_path, out, "echo.ideal")
    code, out2, _ = run(capsys, "parse", path2)
    assert code == 0 and out2 == out


def test_parse_random_round_trip(capsys, tmp_path):
    rng = random.Random(501)
    for nvars in (1, 2):
        ops = [rand_operator(rng, nvars) for _ in range(5)]
        text = f"# nvars {nvars}\n" + "".join(format_operator(g) + "\n" for g in ops)
        code, out, _ = run(capsys, "parse", write(tmp_path, text))
        assert code == 0
        got_nvars, got_ops = parse_ideal_file(out)
        assert got_nvars == nvars and got_ops == ops


def test_parse_json_payload(capsys, tmp_path):
    import hashlib

    text = "Dx - 1\nDy\n"
    code, out, _ = run(capsys, "parse", write(tmp_path, text), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "ore-shape/1"
    assert d["command"] == "parse"
    assert d["nvars"] == 1
    assert d["input_digest"] == hashlib.sha256(text.encode()).hexdigest()
    assert d["result"]["operators"] == ["Dx - 1", "Dy"]
    assert d["timings_ms"]["total"] >= 0


def test_mul_composes_in_file_order(capsys, tmp_path):
    code, out, _ = run(capsys, "mul", write(tmp_path, "Dx\nDx - 1\n"))
    assert code == 0 and out == "Dx^2 - Dx\n"
    # noncommutative: reversed file gives the other product
    code, out, _ = run(capsys, "mul", write(tmp_path, "Dx - x\nDx + x\n", "rev.ideal"))
    assert out == "Dx^2 - x^2 + 1\n"


def test_apply_first_operator_to_solutions(capsys, tmp_path):
    path = write(tmp_path, "Dy\n" + EXP_PAIR)
    code, out, _ = run(capsys, "apply", path, "--trunc", "4")
    # Dy kills exp(x); applied to the second member it leaves exp(x + y)
    assert (code, out) == (0, "0\n1 + y + x + 1/2*y^2 + x*y + 1/2*x^2\n")


def test_gb_elim_order_and_round_trip(capsys, tmp_path):
    path = write(tmp_path, "Dx - 1\nx*Dy^2 - x*Dy\n")
    code, out, _ = run(capsys, "gb", path)
    assert code == 0 and out == "# nvars 1\nDx - 1\nDy^2 - Dy\n"
    code, out_elim, _ = run(capsys, "gb", path, "--order", "elim")
    assert code == 0
    n, ops = parse_ideal_file(out_elim)
    assert n == 1 and len(ops) == 2


def test_dim_reports_quotient_dimension(capsys, tmp_path):
    code, out, _ = run(capsys, "dim", write(tmp_path, TWO_POINTS))
    assert code == 0 and out == "dimension: 2\n"
    code, out, _ = run(capsys, "dim", write(tmp_path, "Dx*Dy\n", "inf.ideal"))
    assert code == 0 and out == "not zero-dimensional\n"


def test_eliminate_methods_and_main_var(capsys, tmp_path):
    path = write(tmp_path, TWO_POINTS)
    for method in ("krylov", "elim-order"):
        code, out, _ = run(capsys, "eliminate", path, "--method", method)
        assert code == 0 and out == "Dx^2 - 3*Dx + 2\n"
    code, out, _ = run(capsys, "eliminate", path, "--main-var", "Dy")
    assert code == 0 and out == "Dy\n"


def test_shape_command(capsys, tmp_path):
    path = write(tmp_path, EXP_PAIR)
    code, out, err = run(capsys, "shape", path)
    assert code == 3 and "normal position" in err
    sheared = write(tmp_path, "Dx - Dy - 1\nDy^2 - Dy\n", "sheared.ideal")
    code, out, _ = run(capsys, "shape", sheared, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["result"]["P"] == "Dx^2 - 3*Dx + 2"
    assert d["result"]["Q"] == ["Dx - 1"]
    assert d["result"]["generators"] == ["-Dx + Dy + 1", "Dx^2 - 3*Dx + 2"]
    assert d["result"]["dimension"] == 2


def test_check_normal_both_procedures(capsys, tmp_path):
    path = write(tmp_path, EXP_PAIR)
    code, out, _ = run(capsys, "check-normal", path)
    assert code == 0 and out == "normal: false\n"
    code, out, _ = run(capsys, "check-normal", path, "--via", "series")
    assert code == 0
    assert out == "normal: false\nalgebraic agrees: true\n"
    code, out, _ = run(capsys, "check-normal", write(tmp_path, TWO_POINTS, "tp.ideal"), "--via", "series", "--json")
    d = json.loads(out)
    assert d["result"] == {"via": "series", "normal": True, "algebraic_agrees": True}


def test_check_normal_main_var_changes_answer(capsys, tmp_path):
    path = write(tmp_path, TWO_POINTS)
    code, out, _ = run(capsys, "check-normal", path)
    assert out == "normal: true\n"
    code, out, _ = run(capsys, "check-normal", path, "--main-var", "Dy")
    assert out == "normal: false\n"


def test_check_dradical_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "check-dradical", write(tmp_path, NILPOTENT_Y), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["result"]["verdict"] == "DependenceFound"
    assert d["result"]["witness"] == ["y", "-1"]
    code, out, _ = run(capsys, "check-dradical", write(tmp_path, TWO_POINTS, "tp.ideal"))
    assert code == 0 and out == "verdict: NoDependenceUpToBound\n"


def test_shear_command_and_arity(capsys, tmp_path):
    path = write(tmp_path, EXP_PAIR)
    code, out, _ = run(capsys, "shear", path, "--shear", "1")
    assert code == 0 and out == "# nvars 1\nDx - Dy - 1\nDy^2 - Dy\n"
    code, _, err = run(capsys, "shear", path, "--shear", "1,2")
    assert code == 2 and "shear" in err


def test_shear_coefficients_are_plain_rationals(capsys, tmp_path):
    path = write(tmp_path, "Dx^2 - 1\nDy - Dx\n")
    for shear, line in (("1/2", "Dx - 3/2*Dy"), ("0.5", "Dx - 3/2*Dy"), ("-3", "Dx + 2*Dy"), ("+2", "Dx - 3*Dy")):
        code, out, _ = run(capsys, "shear", path, "--shear", shear)
        assert code == 0 and out == f"# nvars 1\n{line}\nDy^2 - 1\n", shear
    # Fraction() alone reads exponent notation, and 1e10000000 never finished
    for shear in ("1e3", ".5", "5.", "1/-2", "0x10", "inf", "nan", "1_000", "1e10000000"):
        start = time.perf_counter()
        code, _, err = run(capsys, "shear", path, "--shear", shear)
        assert code == 2 and "bad shear coefficient" in err and "Traceback" not in err, shear
        assert time.perf_counter() - start < 1, shear


def test_normalize_command(capsys, tmp_path):
    path = write(tmp_path, EXP_PAIR)
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("shear: ")
    assert lines[1] == "# nvars 1"
    # a shear past the first 20 candidates, from the grid
    code, out, _ = run(capsys, "normalize", write(tmp_path, SIX_POINTS, "six.ideal"))
    assert code == 0 and out.splitlines()[:2] == ["shear: -6", "# nvars 1"]
    # no shear at all: the whole grid fails
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", write(tmp_path, FAT_POINT_3, "fat.ideal"))
    assert time.perf_counter() - start < 5
    assert code == 3 and out == "" and err.startswith("error: no rational shear puts the ideal in normal position")
    # the search has no knobs: nothing in it is random, and it always ends
    for flag in ("--seed", "--degree-bound", "--trunc"):
        with pytest.raises(SystemExit):
            main(["normalize", path, flag, "1"])


def test_solve_and_trunc(capsys, tmp_path):
    path = write(tmp_path, TWO_POINTS)
    code, out, _ = run(capsys, "solve", path, "--trunc", "3")
    assert code == 0
    assert out.splitlines()[0] == "dimension: 2"
    assert out.splitlines()[1] == "1 - x^2"
    assert out.splitlines()[2] == "x + 3/2*x^2"
    code, out, _ = run(capsys, "solve", path, "--trunc", "5", "--json")
    d = json.loads(out)
    assert d["result"]["members"][0]["order"] == 5
    assert d["result"]["initial_monomials"] == [[0, 0], [1, 0]]


def test_wronskian_command(capsys, tmp_path):
    code, out, _ = run(capsys, "wronskian", write(tmp_path, TWO_POINTS), "--trunc", "4")
    assert code == 0 and out == "1 + 3*x + 9/2*x^2\n"


def test_gauge_command(capsys, tmp_path):
    path = write(tmp_path, EXP_PAIR)
    code, out, _ = run(capsys, "gauge", path, "--cyclic-vector", "x*Dy + 1")
    assert code == 0
    assert out.splitlines()[0] == "cyclic vector: x*Dy + 1"
    assert out.splitlines()[2] == "(-x - 1)*Dx + Dy + x + 1"
    assert out.splitlines()[3] == "Dx^2 - 2*Dx + 1"
    # the automatic search lands on the same vector deterministically
    code, out_auto, _ = run(capsys, "gauge", path)
    assert code == 0 and out_auto == out
    # the search has no knobs: nothing in it is random, and it always ends
    for flag in ("--seed", "--degree-bound", "--trunc"):
        with pytest.raises(SystemExit):
            main(["gauge", path, flag, "1"])


def test_stdin_input(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "eliminate", "-", stdin=TWO_POINTS, monkeypatch=monkeypatch)
    assert code == 0 and out == "Dx^2 - 3*Dx + 2\n"


@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (("parse", "-"), "Dx +\n", 2),
        (("parse", "-"), "y7\n", 2),
        (("parse", "-"), "1/(x - x)\n", 3),
        (("eliminate", "-"), "Dx\n", 3),
        (("shape", "-"), EXP_PAIR, 3),
        (("solve", "-"), "x*Dx - 1\nDy\n", 3),
        (("wronskian", "-"), "Dx - 1\nDx - 2\n", 3),
        (("gb", "-"), "Dx^31\nDy\n", 4),
        (("wronskian", "-", "--trunc", "1"), TWO_POINTS, 4),
        # over Q the re-check goes to r*(degree_bound + 1) = 64 at r = 16: C(67, 4) monomials
        (("check-dradical", "-"), "# nvars 3\nDx^2 - 1\nDy1^2 - 1\nDy2^2 - 1\nDy3^2 - 1\n", 4),
        (("normalize", "-"), "Dx^2\nDx*Dy\nDy^2\n", 3),
        (("normalize", "-"), "Dx\n", 3),
        (("eliminate", "-"), "", 2),
        (("check-dradical", "-", "--degree-bound", "-1"), NILPOTENT_Y, 2),
        (("solve", "-", "--trunc", "0"), TWO_POINTS, 2),
        (("solve", "-", "--trunc", "-1"), TWO_POINTS, 2),
        (("wronskian", "-", "--trunc", "-3"), TWO_POINTS, 2),
        (("apply", "-", "--trunc", "0"), "Dx\n" + TWO_POINTS, 2),
        (("gauge", "-"), "1\n", 3),
        (("gauge", "-", "--cyclic-vector", "1"), "1\n", 3),
        (("apply", "-"), "1/x*Dx\nDx - 1\nDy\n", 3),
    ],
)
def test_exit_codes(capsys, monkeypatch, argv, stdin, code):
    got, _, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert got == code
    assert err.startswith("error: ")


# One row per exported error class, as in the README's exit-code table.
EXIT_CODES = {
    "OreShapeError": 1,
    "InternalError": 1,
    "ParseError": 2,
    "ArityError": 2,
    "NotZeroDimensional": 3,
    "NotNormalPosition": 3,
    "NotCyclic": 3,
    "NonOrdinaryOrigin": 3,
    "PoleAtPoint": 3,
    "PoleAtOrigin": 3,
    "DivisionByZero": 3,
    "DegreeCapExceeded": 4,
    "TruncationTooSmall": 4,
    "ResourceLimit": 4,
}


def test_each_error_class_carries_its_exit_code():
    exported = [getattr(oreshape, name) for name in oreshape.__all__]
    errors = [cls for cls in exported if isinstance(cls, type) and issubclass(cls, OreShapeError)]
    assert {cls.__name__: cls.exit_code for cls in errors} == EXIT_CODES
    assert cli._exit_code(oreshape.PoleAtOrigin("x")) == 3
    assert cli._exit_code(ValueError("x")) == cli._exit_code(OSError("x")) == 2
    assert cli._exit_code(RuntimeError("x")) == 1


def test_json_error_payload(capsys, monkeypatch):
    code, out, err = run(capsys, "parse", "-", "--json", stdin="Dx +\n", monkeypatch=monkeypatch)
    assert code == 2
    d = json.loads(out)
    assert d["error"]["type"] == "ParseError"
    assert "line 1" in d["error"]["message"]


def test_failed_self_check_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(GroebnerBasis, "contains", lambda self, f: False)
    code, out, err = run(capsys, "shape", "-", "--json", stdin=TWO_POINTS, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InternalError"
    assert err.startswith("error: ") and "Traceback" not in err


def test_deep_nesting_is_a_parse_error(capsys, monkeypatch):
    deepest = "(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1) + "\n"
    assert run(capsys, "parse", "-", stdin=deepest, monkeypatch=monkeypatch)[:2] == (0, "# nvars 1\nx\n")
    for text in ("(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x", "(" * MAX_NESTING + "x" + ")" * MAX_NESTING):
        code, out, err = run(capsys, "parse", "-", stdin=text + "\n", monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error: ") and "nested deeper" in err and "Traceback" not in err


def test_exponent_above_the_cap_is_a_parse_error(capsys, monkeypatch):
    code, out, _ = run(capsys, "parse", "-", stdin=f"x^{MAX_EXPONENT}*Dx\n", monkeypatch=monkeypatch)
    assert code == 0 and out == f"# nvars 1\nx^{MAX_EXPONENT}*Dx\n"
    for text in (f"Dx^{MAX_EXPONENT + 1}", "Dx^100000000000", "x^-" + "9" * 5000, "(x + 1)^00001001"):
        code, out, err = run(capsys, "parse", "-", stdin=text + "\n", monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error: ") and "exponent larger than" in err and "Traceback" not in err


def test_nvars_above_the_cap_is_a_parse_error(capsys, monkeypatch):
    text = f"# nvars {MAX_NVARS}\nx*Dx + y1*Dy1\n"
    assert run(capsys, "parse", "-", stdin=text, monkeypatch=monkeypatch)[:2] == (0, text)
    # the cap is checked before any exponent tuple of that length is built
    for n in (MAX_NVARS + 1, 1000000000):
        code, out, err = run(capsys, "parse", "-", stdin=f"# nvars {n}\nx*Dx + y1*Dy1\n", monkeypatch=monkeypatch)
        assert code == 2 and err.startswith("error: nvars must be between 1 and") and "Traceback" not in err


def test_digit_strings_above_the_cap_are_parse_errors(capsys, monkeypatch, tmp_path):
    # int() and Fraction() would raise a ValueError about an interpreter
    # setting on these, on interpreters that have one
    top = "9" * MAX_DIGITS
    code, out, _ = run(capsys, "parse", "-", stdin=f"{top}*Dx\n", monkeypatch=monkeypatch)
    assert (code, out) == (0, f"# nvars 1\n{top}*Dx\n")
    # an exponent is read without its leading zeros
    code, out, _ = run(capsys, "parse", "-", stdin="Dx^" + "0" * 5000 + "2\n", monkeypatch=monkeypatch)
    assert (code, out) == (0, "# nvars 1\nDx^2\n")
    big = "9" * 5000
    shear = ("shear", write(tmp_path, "Dx - Dy\nDy^2 - 1\n"), "--shear", big, "--json")
    for argv, stdin, where in (
        (("parse", "-", "--json"), f"# nvars {big}\nDx\n", " at line 1, column 9"),
        (("parse", "-", "--json"), f"Dx\n{big}*Dx\n", " at line 2, column 1"),
        (shear, None, ""),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 1, argv
        error = json.loads(out)["error"]
        assert code == 2 and "Traceback" not in err, argv
        assert error == {"type": "ParseError", "message": f"a number with more than {MAX_DIGITS} digits{where}"}


def test_printed_numbers_above_the_cap_are_resource_limits(capsys, monkeypatch):
    # 99999^1000 has 5,000 digits and 10^4300 has 4,301: str() would raise a
    # ValueError about an interpreter setting on interpreters that have one
    limit = {"type": "ResourceLimit", "message": f"cannot print a number with more than {MAX_DIGITS} digits"}
    for argv, text in (
        (("parse", "-", "--json"), "(99999)^1000*Dx\n"),
        (("parse", "-", "--json"), "(10^1000)^4*10^300*Dx\n"),
        (("parse", "-", "--json"), "1/99999^1000*Dx\n"),
        (("solve", "-", "--json", "--trunc", "2"), "Dx - 99999^1000\nDy\n"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 5, text
        assert code == 4 and "Traceback" not in err, text
        assert json.loads(out)["error"] == limit, text
    # the series lines of text mode are built inside main's error handling
    for argv, text in (
        (("solve", "-", "--trunc", "2"), "Dx - 99999^1000\nDy\n"),
        (("wronskian", "-", "--trunc", "2"), "Dx - 99999^1000\nDy\n"),
        (("apply", "-", "--trunc", "2"), "1\nDx - 99999^1000\nDy\n"),
    ):
        code, out, err = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (4, ""), argv
        assert err == f"error: {limit['message']}\n", argv
    code, out, _ = run(capsys, "parse", "-", stdin="((10^1000)^4*10^300 - 1)*Dx\n", monkeypatch=monkeypatch)
    assert (code, out) == (0, f"# nvars 1\n{'9' * MAX_DIGITS}*Dx\n")


# --trunc 100000 asks each command to walk 5*10^9 monomials in (x, y).
# check-dradical is refused before its first walk when its deeper re-check,
# at --trunc + 4, would pass the bound: from --trunc 443 on.
@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("solve",), "Dx^2 - 1\nDy - Dx\n"),
        (("wronskian",), "Dx^2 - 1\nDy - Dx\n"),
        (("apply",), "Dx\nDx^2 - 1\nDy - Dx\n"),
        (("check-dradical",), "Dx^2 - 1\nDy - Dx\n"),
        (("check-normal", "--via", "series"), "Dx^2 - 1\nDy - Dx\n"),
        # exp(x*y): its action matrices are not constant, so the walk is over K
        (("solve",), "Dx - y\nDy - x\n"),
        (("check-dradical", "--trunc", "443"), "Dx^2 - 3*Dx + 2\nDy - Dx\n"),
    ],
)
def test_series_walk_past_the_monomial_bound_exits_4(capsys, monkeypatch, argv, stdin):
    if "--trunc" not in argv:
        argv += ("--trunc", "100000")
    trunc = int(argv[argv.index("--trunc") + 1])
    walked = trunc + 4 if argv[0] == "check-dradical" else trunc
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "-", *argv[1:], "--json", stdin=stdin, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert code == 4 and "Traceback" not in err
    assert json.loads(out)["error"] == {
        "type": "ResourceLimit",
        "message": f"series order {walked} needs more than {MAX_SERIES_MONOMIALS} monomials in 2 variables",
    }


def test_oversized_dependence_system_exits_4(capsys, monkeypatch):
    # 95,703 rows (monomials below total degree 437 in x, y) by 20 columns:
    # refused before the first walk, which alone would take seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "check-dradical", "-", "--trunc", "440", "--json",
                         stdin="Dx^2 - 3*Dx + 2\nDy - Dx\n", monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert code == 4 and "Traceback" not in err
    assert json.loads(out)["error"] == {
        "type": "ResourceLimit",
        "message": f"dependence system of 95703 x 20 needs 38281200 units of work, more than {MAX_DEPENDENCE_WORK}",
    }
    # 595 x 160 has fewer entries than 95,703 x 20 but needs more work than
    # the two points at --trunc 100 (4,753 x 20); solved, it took about 30 s
    roots = "*".join(f"(Dx - {k})" for k in range(16))
    start = time.perf_counter()
    code, out, err = run(capsys, "check-dradical", "-", "--trunc", "37", "--json",
                         stdin=f"{roots}\nDy - Dx^2 + 3*Dx\n", monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 5
    assert code == 4 and "Traceback" not in err
    assert json.loads(out)["error"]["message"].startswith("dependence system of 595 x 160 needs 15232000 units")


def _fraction_det(rows):
    """Determinant over Q by Gaussian elimination with row swaps."""
    rows = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


def _series_of(obj):
    """A JSON series as (order, {exponent tuple: Fraction})."""
    return obj["order"], {tuple(t["exponents"]): Fraction(t["coefficient"]) for t in obj["terms"]}


TEN_EXPONENTIALS = "*".join(f"(Dx - {k})" for k in range(10)) + "\nDy - Dx^2 + 3*Dx\n"


def test_ten_exponential_wronskian_answers(capsys, monkeypatch):
    # The solutions exp(k*x + (k^2 - 3*k)*y), k = 0..9, at --trunc 12: the
    # cofactor expansion would make P(10) = 6,235,300 series products and was
    # refused (exit 4).  By Liouville's formula W = W(0)*exp(45*x + 150*y),
    # with tr A_x = sum k = 45 and tr A_y = sum (k^2 - 3*k) = 150.  W(0) is
    # the determinant of the x-derivatives of the walked members at 0.
    nvars, ops = parse_ideal_file(TEN_EXPONENTIALS)
    members = solve_series(groebner_basis(ops, TermOrder.degrevlex(nvars)), 10).members
    w0 = _fraction_det([[factorial(i) * f.coefficient((i, 0)) for f in members] for i in range(10)])
    assert w0 == Fraction(1, 30)
    start = time.perf_counter()
    code, out, err = run(capsys, "wronskian", "-", "--trunc", "12", "--json", stdin=TEN_EXPONENTIALS,
                         monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 10
    assert code == 0 and "Traceback" not in err
    order, w = _series_of(json.loads(out)["result"]["wronskian"])
    assert order == 3
    assert w == {e: w0 * c for e, c in exp_series(1, 3, (45, 150)).coeffs.items()}
    start = time.perf_counter()
    code, out, err = run(capsys, "check-normal", "-", "--via", "series", "--trunc", "12", stdin=TEN_EXPONENTIALS,
                         monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 10
    assert (code, out) == (0, "normal: true\nalgebraic agrees: true\n")


# The gauge of the points (-1, 0), (1, -1), (2, -1) by -2*x - 2, as CI takes it
RATIONAL_R3N1 = (
    "# nvars 1\n-1/6*Dx^2 + (1/2*x + 5/6)/(x + 1)*Dx + Dy + (2/3*x^2 + 5/6*x - 1/6)/(x^2 + 2*x + 1)\n"
    "Dx^3 + (-2*x - 5)/(x + 1)*Dx^2 + (-x^2 + 2*x + 9)/(x^2 + 2*x + 1)*Dx"
    " + (2*x^3 + 7*x^2 + 4*x - 7)/(x^3 + 3*x^2 + 3*x + 1)\n"
)


def test_rational_wronskian_at_trunc_100_answers(capsys, monkeypatch):
    # Its solutions are (x + 1)*exp(a*x + b*y) at the three points, so W is
    # c*(x + 1)^3*exp(2*x - 2*y), c != 0.  The cofactor expansion refused it.
    start = time.perf_counter()
    code, out, err = run(capsys, "wronskian", "-", "--trunc", "100", "--json", stdin=RATIONAL_R3N1,
                         monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 10
    assert code == 0 and "Traceback" not in err
    order, w = _series_of(json.loads(out)["result"]["wronskian"])
    cube = {(k, 0): Fraction(comb(3, k)) for k in range(4)}
    want = poly_times_exp_series(1, 98, cube, (2, -2)).coeffs
    assert order == 98 and len(want) == comb(99, 2)
    c = w[(0, 0)]
    assert c and w == {e: c * v for e, v in want.items()}


@pytest.mark.parametrize("argv, out", [
    (("wronskian",), ""),
    (("check-normal", "--via", "series"), "normal: true\nalgebraic agrees: true\n"),
])
def test_unit_ideal_wronskian(capsys, monkeypatch, argv, out):
    # the unit ideal has no solutions: wronskian exits 3, check-normal
    # --via series calls it normal (r = 0, the empty Krylov family)
    for trunc in ("1", "12"):
        code, got, err = run(capsys, argv[0], "-", *argv[1:], "--trunc", trunc, stdin="Dx - 1\nDx - 2\n",
                             monkeypatch=monkeypatch)
        assert (code, got) == ((3, "") if not out else (0, out))
        assert err == ("error: the unit ideal has no solutions to take a Wronskian of\n" if not out else "")


def test_json_mode_formats_no_series_lines(capsys, monkeypatch):
    calls = []
    real = cli.format_series
    monkeypatch.setattr(cli, "format_series", lambda f: calls.append(f) or real(f))
    for argv, text in (
        (("solve", "-", "--json"), TWO_POINTS),
        (("apply", "-", "--json"), "Dx\n" + TWO_POINTS),
        (("wronskian", "-", "--json"), TWO_POINTS),
    ):
        code, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["result"], argv
    assert calls == []
    code, out, _ = run(capsys, "solve", "-", "--trunc", "3", stdin=TWO_POINTS, monkeypatch=monkeypatch)
    assert (code, out) == (0, "dimension: 2\n1 - x^2\nx + 3/2*x^2\n") and len(calls) == 2


def test_text_mode_builds_no_series_json(capsys, monkeypatch):
    calls = []
    real = cli._series_json
    monkeypatch.setattr(cli, "_series_json", lambda f: calls.append(f) or real(f))
    for argv, text in (
        (("solve", "-"), TWO_POINTS),
        (("apply", "-"), "Dx\n" + TWO_POINTS),
        (("wronskian", "-"), TWO_POINTS),
    ):
        code, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and out, argv
    assert calls == []
    for argv, text, count in (
        (("solve", "-", "--json"), TWO_POINTS, 2),
        (("apply", "-", "--json"), "Dx\n" + TWO_POINTS, 2),
        (("wronskian", "-", "--json"), TWO_POINTS, 1),
    ):
        code, out, _ = run(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["result"], argv
        assert len(calls) == count, argv
        calls.clear()


def test_runaway_gauge_then_solve_completes(capsys, monkeypatch):
    """The gauge whose completion in solve once ran for minutes in one gcd."""
    code, out, _ = run(capsys, "gauge", "-", "--json", "--cyclic-vector", "(x^2 + 1)*Dx + y*Dy + x",
                       stdin="(Dx - 1)*(Dx - 2)\nDy - Dx\n", monkeypatch=monkeypatch)
    assert code == 0
    gens = "# nvars 1\n" + "\n".join(json.loads(out)["result"]["generators"]) + "\n"
    code, out, _ = run(capsys, "solve", "-", "--trunc", "6", stdin=gens, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("dimension: 2\n")


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "dim", "/nonexistent/no.ideal")
    assert code == 2 and err.startswith("error: ")


def test_module_entry_point(tmp_path):
    path = tmp_path / "i.ideal"
    path.write_text(TWO_POINTS)
    proc = subprocess.run(
        [sys.executable, "-m", "oreshape", "eliminate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Dx^2 - 3*Dx + 2\n"


# ---------------------------------------------------------------------------
# results do not depend on the insertion order of term dicts
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden"


def _shuffled_poly(p, rng):
    items = list(p.terms.items())
    rng.shuffle(items)
    return MultiPoly(p.nvars, dict(items))


def _shuffled_ratfunc(f, rng):
    return RatFunc(_shuffled_poly(f.num, rng), _shuffled_poly(f.den, rng))


def _shuffled_operator(op, rng):
    items = [(dm, _shuffled_ratfunc(c, rng)) for dm, c in op.terms.items()]
    rng.shuffle(items)
    return OreOperator(op.nvars, dict(items))


def _shuffled_text(op, rng):
    """op as ideal-file text, with its terms and its coefficients' terms in
    random order."""
    names = [var_name(i, op.nvars) for i in range(op.nvars + 1)]
    dnames = [der_name(i, op.nvars) for i in range(op.nvars + 1)]

    def poly(p):
        items = list(p.terms.items())
        rng.shuffle(items)
        return "(" + join_sum([format_monomial(e, c, names) for e, c in items]) + ")"

    items = list(op.terms.items())
    rng.shuffle(items)
    parts = []
    for dm, c in items:
        body = power_product(dm, dnames)
        coeff = f"{poly(c.num)}/{poly(c.den)}"
        parts.append(f"{coeff}*{body}" if body else coeff)
    return " + ".join(parts)


def test_values_do_not_depend_on_term_order():
    rng = random.Random(502)
    reordered = 0
    for nvars in (1, 2):
        ops = [rand_operator(rng, nvars, max_terms=4) for _ in range(12)]
        shuffled = [_shuffled_operator(op, rng) for op in ops]
        reordered += sum(list(a.terms) != list(b.terms) for a, b in zip(ops, shuffled))
        pairs = list(zip(ops, shuffled))
        pairs += [(a * b, sa * sb) for (a, sa), (b, sb) in zip(pairs, pairs[1:])]
        for op, sop in pairs:
            values = [(op, sop)]
            for dm, c in op.terms.items():
                values.append((c, sop.terms[dm]))
                values.append((c.num, _shuffled_poly(c.num, rng)))
                values.append((c.num * c.den, _shuffled_poly(c.num, rng) * _shuffled_poly(c.den, rng)))
            for a, b in values:
                assert a == b and hash(a) == hash(b) and str(a) == str(b), (a, b)
    # the shuffles did reorder the dicts
    assert reordered >= 5


@pytest.mark.parametrize("name", ["rational", "two_points_n2", "double_point"])
def test_cli_output_does_not_depend_on_term_order(capsys, tmp_path, name):
    text = (GOLDEN / f"{name}.ideal").read_text()
    nvars, ops = parse_ideal_file(text)
    rng = random.Random(503)
    shuffled = f"# nvars {nvars}\n" + "".join(_shuffled_text(op, rng) + "\n" for op in ops)
    assert parse_ideal_file(shuffled) == (nvars, ops)
    for command in (("parse",), ("gb",), ("shape",), ("solve", "--trunc", "5"), ("gauge",)):
        outs = []
        for source in (text, shuffled):
            code, out, _ = run(capsys, command[0], write(tmp_path, source), *command[1:], "--json")
            payload = json.loads(out)
            # the digest is of the input text, which differs by construction
            payload.pop("input_digest")
            payload.pop("timings_ms", None)
            outs.append((code, payload))
        assert outs[0] == outs[1], command
