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

The last properties compare the walks over Q and over K, the series walk
and the Krylov walk, on constant-coefficient ideals, drawn from _helpers:
two points or a double point, some hidden by elementary steps with
constant or rational coefficients; and, on the same ideals conjugated by
x + c, the series walk over Z[x, y] with the walk over K; and on both, the
Wronskian by Liouville's formula with the cofactor expansion of the walked
members.  Conjugated by x instead, the origin is not ordinary, and every
order is refused.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oreshape import gb
from oreshape.cli import _exit_code, main
from oreshape.errors import NonOrdinaryOrigin, OreShapeError, TruncationTooSmall
from oreshape.gb import TermOrder, _spoly, groebner_basis
from oreshape.ore import OreOperator
from oreshape.parsing import parse_ideal_file, parse_operator
from oreshape.series import NO_DEPENDENCE, _Expansion, d_radical_check, solve_series, wronskian_x
from oreshape.shape import _krylov_walk, _shape_from_krylov, quotient_action, shear_ideal

from _helpers import (
    MULTIPLICITIES,
    conjugate,
    disguise,
    double_point_ideal,
    rand_operator,
    reference_groebner_basis,
    reference_left_reduce,
    reference_solve_series,
    reference_wronskian,
    shape_form_ideal,
    two_point_ideal,
)

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


# How constant_ideals disguises its generators: the rat_coeffs of _helpers.disguise
STEPS = {"plain": "none", "constant": None, "polynomial": False, "rational": True}


@st.composite
def constant_ideals(draw):
    """(nvars, generators, steps) of two points or a double point, each a
    constant-coefficient ideal K[D]*J, possibly disguised by steps with
    constant, polynomial or rational coefficients (STEPS): its generators
    then may have non-constant coefficients, its reduced basis not."""
    nvars = draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = draw(st.sampled_from([two_point_ideal, double_point_ideal]))(rng, nvars)
    steps = draw(st.sampled_from(sorted(STEPS)))
    if steps != "plain":
        gens = disguise(rng, gens, rat_coeffs=STEPS[steps])
    return nvars, gens, steps


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(constant_ideals(), st.integers(1, 8))
def test_walk_over_q_matches_the_walk_over_k(ideal, order):
    nvars, gens, _ = ideal
    gb = groebner_basis(gens, TermOrder.degrevlex(nvars))
    act = quotient_action(gb)
    over_q, over_k = act.unit(), act.coords(OreOperator.one(nvars))
    assert all(type(a) is Fraction for a in over_q)
    assert solve_series(gb, order) == reference_solve_series(gb, order)
    # the Krylov walk from the class of 1 over Q, as shape takes it, against
    # the walk over K from the same class, also under shears
    assert _shape_from_krylov(act, over_q) == _shape_from_krylov(act, over_k)
    for c in product((Fraction(0), Fraction(1), Fraction(-2)), repeat=nvars):
        assert _krylov_walk(act, over_q, c)[0] == _krylov_walk(act, over_k, c)[0]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(constant_ideals(), st.fractions(-3, 3, max_denominator=3).filter(bool), st.integers(1, 8))
def test_walk_over_z_matches_the_walk_over_k(ideal, c, order):
    # conjugation by x + c puts (x + c)^k into the denominators of the A_t,
    # which has a value at 0, so the walk runs over Z
    nvars, gens, _ = ideal
    gb = conjugate(groebner_basis(gens, TermOrder.degrevlex(nvars)), c)
    assert _Expansion(quotient_action(gb), order).d0
    assert solve_series(gb, order) == reference_solve_series(gb, order)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(constant_ideals(), st.sampled_from([0, 0, 2, -3, Fraction(3, 2), Fraction(-1, 3)]))
def test_conjugating_by_x_makes_the_origin_non_ordinary(ideal, c):
    # Conjugated by x every solution x*f vanishes at 0, so no canonical basis
    # exists and the common denominator has D(0) = 0: refused at every
    # order.  By x + c with c != 0, D is a power of x + c: never refused.
    nvars, gens, _ = ideal
    gb = conjugate(groebner_basis(gens, TermOrder.degrevlex(nvars)), c)
    for order in range(1, 7):
        if c:
            assert solve_series(gb, order).r == gb.dimension()
        else:
            with pytest.raises(NonOrdinaryOrigin, match="^the origin is not ordinary: "):
                solve_series(gb, order)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(constant_ideals(), st.sampled_from([0, 0, 2, -3, Fraction(3, 2), Fraction(-1, 3)]), st.integers(1, 8),
       st.booleans())
def test_wronskian_matches_the_cofactor_expansion(ideal, c, order, swap):
    # over Q, or conjugated by x + c over K with D(0) != 0; swapped, as by
    # --main-var, so that some ideals are not in normal position (W = 0)
    nvars, gens, _ = ideal
    if swap:
        gens = [g.swap_roles(nvars) for g in gens]
    gb = groebner_basis(gens, TermOrder.degrevlex(nvars))
    if c:
        gb = conjugate(gb, c)
    assert gb.over_q == (not c)
    sol = solve_series(gb, order)
    if order < sol.r:
        with pytest.raises(TruncationTooSmall, match=f"^need guaranteed order above {sol.r - 1} "):
            wronskian_x(gb, order)
    else:
        assert wronskian_x(gb, order) == reference_wronskian(sol.members)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(constant_ideals(), st.sampled_from(["degrevlex", "lex", "elim"]), st.integers(0, 2**32))
def test_completion_over_q_matches_the_completion_over_k(ideal, kind, seed):
    # groebner_basis completes over Q exactly when every input coefficient is
    # constant: undisguised and constant-step ideals always, rational steps
    # only where their coefficients cancel.  reference_groebner_basis runs
    # gb's own _spoly and left_reduce on operators over K, so it is the
    # completion over K.  The reduced basis of K[D]*J lies in Q[D] anyway.
    nvars, gens, steps = ideal
    order = TermOrder(kind, nvars)
    fields = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gb, "_spoly", lambda g1, g2, o: fields.append(gb._is_q(g1)) or _spoly(g1, g2, o))
        basis = groebner_basis(gens, order)
    constant = all(c.is_constant() for g in gens for c in g.terms.values())
    assert constant or steps in ("polynomial", "rational")
    assert fields == [constant] * len(fields)
    assert basis == reference_groebner_basis(gens, order) and basis.over_q
    rng = random.Random(seed)
    for _ in range(3):
        f = rand_operator(rng, nvars, max_terms=4, max_ord=3)
        for h in (f, OreOperator(nvars, {dm: rng.randint(-3, 3) for dm in f.terms})):
            assert basis.reduce(h) == reference_left_reduce(h, basis.gens, order)


RADICAL = [m for m in MULTIPLICITIES if max(m) == 1]


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 2), st.integers(0, 2**32), st.sampled_from([0, 1, -2]))
def test_radical_shape_form_ideals_have_no_dependence(nvars, seed, c):
    # A radical shape-form J (every mu_k = 1) has r exponential solutions
    # with distinct exponents, K-independent, also under a shear; over Q the
    # re-check is exact for the degree bound, so no witness may survive it.
    # r = 4 only at nvars 1, where its system is 35 x 16, not 84 x 80.
    gens, _ = shape_form_ideal(random.Random(seed), nvars, RADICAL[: 4 - nvars])
    basis = shear_ideal(groebner_basis(gens, TermOrder.degrevlex(nvars)), (Fraction(c),) * nvars)
    assert basis.over_q
    assert d_radical_check(basis).tag == NO_DEPENDENCE, ([str(g) for g in gens], c)
