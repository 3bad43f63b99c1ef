"""Fuzzing the parser and the CLI with hypothesis.

Inputs are built from the grammar's own tokens (names, integers, operators,
parentheses), plus '# nvars' directives, comments and junk characters, so
most of them get deep into the parser before they fail.  Every failure must
map to a documented exit code: a library call raises an error that the CLI
maps to 2, 3, 4 or 5, and `oreshape parse` / `oreshape mul` exit with one of
0, 2, 3, 4, 5, print no traceback and, with --json, one JSON object.

Tokens are joined with spaces, so integers stay single digits, and powers
are not nested: the size of a power is not bounded yet (see ROADMAP), and
this test is about crashes, not run time.  The example budget is fixed and
derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oreshape.cli import _exit_code, main
from oreshape.errors import OreShapeError
from oreshape.parsing import parse_ideal_file, parse_operator

DOCUMENTED = {0, 2, 3, 4, 5}

# Out-of-range names (y3, Dy0, y when nvars > 1) are rarer than valid ones.
NAMES = ["x", "x", "Dx", "Dx", "y", "Dy", "y1", "Dy1", "y1", "Dy1", "y2", "Dy2", "y3", "Dy0"]
DIGITS = ["0", "1", "2", "3", "7"]
OPERATORS = ["+", "-", "*", "/", "^", "(", ")"]
JUNK = ["@", "$", "%", ".", ",", "=", "\t", "é", "∂", "\\", "'", "_", "z", "D", "Dz", "1e3"]

atoms = st.sampled_from(NAMES + DIGITS)
# One level of parentheses around a flat sum or product of atoms.
groups = st.tuples(atoms, st.lists(st.tuples(st.sampled_from("+-*/"), atoms), max_size=3)).map(
    lambda t: ["(", t[0], *[tok for pair in t[1] for tok in pair], ")"]
)
powers = st.sampled_from([[], [], ["^", "2"], ["^", "3"], ["^", "-", "1"], ["^", "0"]])
factors = st.tuples(st.booleans(), st.one_of(atoms.map(lambda a: [a]), groups), powers).map(
    lambda t: ["-"] * t[0] + t[1] + t[2]
)
grammatical = st.tuples(factors, st.lists(st.tuples(st.sampled_from("+-*/"), factors), max_size=4)).map(
    lambda t: t[0] + [tok for op, f in t[1] for tok in [op, *f]]
)
# Edits: insert a grammar or junk token at a position, or delete the token there.
edits = st.lists(
    st.tuples(st.integers(0, 40), st.one_of(st.none(), st.sampled_from(NAMES + DIGITS + OPERATORS + JUNK))),
    max_size=2,
)


def _edit(toks, changes):
    toks = list(toks)
    for pos, tok in changes:
        if tok is None:
            if toks:
                del toks[pos % len(toks)]
        else:
            toks.insert(pos % (len(toks) + 1), tok)
    return " ".join(toks)


expressions = st.builds(_edit, grammatical, edits)
directives = st.sampled_from(
    ["# nvars 1", "# nvars 2", "# nvars 3", "# nvars 0", "#nvars 2", "# nvars: 2",
     "# nvars = 1", "# nvars", "# nvars x", "# nvars -1", "# nvars 01"]
)
comments = expressions.map(lambda e: "# " + e)
lines = st.one_of(expressions, expressions, expressions, directives, comments, st.just(""))
files = st.lists(lines, min_size=1, max_size=6).map("\n".join)

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _documented_failure(call):
    try:
        call()
    except (OreShapeError, ValueError) as exc:
        assert _exit_code(exc) in DOCUMENTED - {0}, repr(exc)


@FUZZ
@given(expressions, st.integers(1, 3))
def test_parse_operator_fails_only_with_documented_errors(text, nvars):
    _documented_failure(lambda: parse_operator(text, nvars))


@FUZZ
@given(files)
def test_parse_ideal_file_fails_only_with_documented_errors(text):
    _documented_failure(lambda: parse_ideal_file(text))


@FUZZ
@given(files, st.sampled_from(["parse", "mul"]), st.booleans())
def test_cli_exits_with_documented_codes(text, command, as_json):
    argv = [command, "-"] + (["--json"] if as_json else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in DOCUMENTED
    assert "Traceback" not in stderr.getvalue()
    if as_json:
        assert json.loads(stdout.getvalue())["command"] == command
