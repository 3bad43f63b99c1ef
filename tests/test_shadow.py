"""The commutative shadow, checked against sympy.

On constant coefficients the Ore algebra is the polynomial ring
Q[Dx, Dy1..Dyn]: Dx and the Dyi commute with each other and with the
constants.  So the left ideal that constant-coefficient generators span in
K[D] has the reduced Groebner basis of the commutative ideal J they span in
Q[D] (every S-polynomial and reduction step stays in Q[D]), the dimension
of its quotient is the size of J's normal set, and the elimination operator
and the shape basis are read off J's lex basis with Dx the smallest
variable.  This module compares gb, dim, eliminate, shape and normalize
with sympy's `groebner` of J; normalize's basis is that of J under the
shear it reports.  Operators are read off through their `.terms` only.

sympy is an optional test oracle; without it the module is skipped.
"""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oreshape.gb import TermOrder, groebner_basis
from oreshape.parsing import parse_ideal_file
from oreshape.shape import eliminate_dx, in_normal_position, normalize_by_shear, shape_basis

from _helpers import disguise, two_point_ideal

sympy = pytest.importorskip("sympy")

GOLDEN = Path(__file__).parent / "data" / "golden"
SYMPY_ORDER = {"degrevlex": "grevlex", "lex": "lex"}

# The points (1,0,2), (1,2,1), (2,1,2), (2,2,1) and (2,2,2), by their lex
# basis.  Their degrevlex basis differs from the graded lex one, which none
# of the two-point ideals tells apart.
FIVE_POINTS = """# nvars 2
Dx^2 - 3*Dx + 2
Dx*Dy1 - 2*Dx - Dy1^2 + Dy1 + 2
2*Dx*Dy2 - 2*Dx + Dy1^2 - 3*Dy1 - 4*Dy2 + 6
Dy1^3 - 3*Dy1^2 + 2*Dy1
Dy1*Dy2 - 2*Dy1 - 2*Dy2 + 4
Dy2^2 - 3*Dy2 + 2
"""


def _constant(c) -> Fraction:
    """The rational value of a constant coefficient."""
    assert c.den.is_one() and all(not any(e) for e in c.num.terms), c
    return sum(c.num.terms.values(), Fraction(0))


def _shadow_dict(op) -> dict:
    return {dm: _constant(c) for dm, c in op.terms.items()}


def _cases():
    """(name, nvars, generators of the ideal, constant-coefficient
    generators of the same ideal): the constant-coefficient golden ideals,
    five points, then disguised two-point ideals, whose disguise may bring
    in rational coefficients."""
    texts = {path.stem: path.read_text() for path in sorted(GOLDEN.glob("*.ideal")) if path.stem != "rational"}
    assert len(texts) == 6
    cases = []
    for name, text in [*texts.items(), ("five_points", FIVE_POINTS)]:
        nvars, gens = parse_ideal_file(text)
        cases.append((name, nvars, gens, gens))
    rng = random.Random(1806)
    for nvars, rat_coeffs, k in product((1, 2), (False, True), range(2)):
        plain = two_point_ideal(rng, nvars)
        name = f"two_points_n{nvars}_{'rational' if rat_coeffs else 'constant'}_{k}"
        cases.append((name, nvars, disguise(rng, plain, rat_coeffs), plain))
    return cases


CASES = _cases()


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def case(request):
    return request.param


def _symbols(nvars):
    """sympy symbols D0 > D1 > ... for oreshape's Dx > Dy1 > ... > Dyn."""
    return sympy.symbols(f"D0:{nvars + 1}")


def _shadow_exprs(plain, nvars):
    """The constant-coefficient operators as sympy polynomials in _symbols."""
    syms = _symbols(nvars)
    return [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(syms, dm)) for dm, c in _shadow_dict(g).items())
        for g in plain
    ]


def _sympy_basis(exprs, nvars, order, gens_order=None):
    """sympy's reduced basis of the ideal of exprs, as monic term dicts keyed
    by oreshape exponent tuples, each with its leading exponent under
    `order`.  The symbols run in oreshape's order Dx > Dy1 > ... > Dyn
    unless gens_order, a permutation of the symbol indices, names another."""
    perm = list(gens_order or range(nvars + 1))
    syms = [_symbols(nvars)[i] for i in perm]

    def unpermute(m):
        return tuple(m[perm.index(i)] for i in range(nvars + 1))

    out = []
    for p in sympy.groebner(exprs, *syms, order=order, domain=sympy.QQ).polys:
        lead = p.monoms(order=order)[0]
        lc = p.coeff_monomial(lead)
        out.append((unpermute(lead), {unpermute(m): Fraction(int((c / lc).p), int((c / lc).q)) for m, c in p.terms()}))
    return sorted(out)


def _lex_with_dx_last(exprs, nvars):
    """J's lex basis under Dy1 > ... > Dyn > Dx, and whether it is in shape
    form {Dy_i - Q_i(Dx), P(Dx)} with P of order r."""
    lex = _sympy_basis(exprs, nvars, "lex", gens_order=[*range(1, nvars + 1), 0])
    r = len(_normal_set([lead for lead, _ in _sympy_basis(exprs, nvars, "grevlex")], nvars))
    dys = [tuple(int(i == t) for i in range(nvars + 1)) for t in range(1, nvars + 1)]
    return lex, sorted(lead for lead, _ in lex) == sorted(dys + [(r,) + (0,) * nvars])


def _normal_set(leads, nvars):
    """The monomials no lead divides; J is zero-dimensional, so each symbol
    has a pure power among the leads."""
    bounds = [min(m[t] for m in leads if not any(e for i, e in enumerate(m) if i != t)) for t in range(nvars + 1)]
    return [m for m in product(*map(range, bounds)) if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)]


def _ours(ops, key):
    """oreshape operators as (leading exponent under key, monic term dict)."""
    out = []
    for op in ops:
        lead, lc = op.leading(key)
        lc = _constant(lc)
        out.append((lead, {dm: c / lc for dm, c in _shadow_dict(op).items()}))
    return sorted(out)


@pytest.mark.parametrize("kind", ["degrevlex", "lex"])
def test_gb_is_the_reduced_basis_of_the_shadow(case, kind):
    _, nvars, gens, plain = case
    order = TermOrder(kind, nvars)
    gb = groebner_basis(gens, order)
    assert _ours(gb.gens, order.key) == _sympy_basis(_shadow_exprs(plain, nvars), nvars, SYMPY_ORDER[kind])


def test_dim_is_the_size_of_the_normal_set(case):
    _, nvars, gens, plain = case
    leads = [lead for lead, _ in _sympy_basis(_shadow_exprs(plain, nvars), nvars, "grevlex")]
    assert groebner_basis(gens, TermOrder.degrevlex(nvars)).dimension() == len(_normal_set(leads, nvars))


def test_eliminate_and_shape_match_the_lex_basis_with_dx_last(case):
    _, nvars, gens, plain = case
    gb = groebner_basis(gens, TermOrder.degrevlex(nvars))
    # Dy1 > ... > Dyn > Dx, so J's lex basis is in shape form exactly when
    # the ideal is in normal position, and P is its one Dy-free member
    lex, shape_form = _lex_with_dx_last(_shadow_exprs(plain, nvars), nvars)
    [p] = [poly for _, poly in lex if not any(any(dm[1:]) for dm in poly)]
    for method in ("krylov", "elim-order"):
        assert _shadow_dict(eliminate_dx(gb, method)) == p
    r = gb.dimension()
    normal = in_normal_position(gb)
    assert normal == (shape_form or r == 0)
    if normal:
        generators = [_shadow_dict(g) for g in shape_basis(gb).generators()]
        if r:
            assert sorted(generators, key=sorted) == sorted((poly for _, poly in lex), key=sorted)
        else:
            # the unit ideal: its reduced basis is {1}, its shape basis {Dy1, ..., Dyn, 1}
            dys = [tuple(int(i == t) for i in range(nvars + 1)) for t in range(1, nvars + 1)]
            assert lex == [((0,) * (nvars + 1), {(0,) * (nvars + 1): 1})]
            assert generators == [{dy: 1} for dy in dys] + [{(0,) * (nvars + 1): 1}]


def test_normalize_matches_the_shadow_under_the_shear_it_reports(case):
    _, nvars, gens, plain = case
    c, sheared = normalize_by_shear(groebner_basis(gens, TermOrder.degrevlex(nvars)))
    # the shear by c maps Dx -> Dx - c.Dy and fixes each Dy_i
    syms = _symbols(nvars)
    dx = syms[0] - sum(sympy.Rational(ci.numerator, ci.denominator) * s for ci, s in zip(c, syms[1:]))
    exprs = [e.subs(syms[0], dx, simultaneous=True) for e in _shadow_exprs(plain, nvars)]
    assert _ours(sheared.gens, sheared.order.key) == _sympy_basis(exprs, nvars, "grevlex")
    _, shape_form = _lex_with_dx_last(exprs, nvars)
    assert shape_form or sheared.dimension() == 0
