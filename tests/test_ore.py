"""Operator algebra and truncated series.

The load-bearing oracle for the noncommutative product is the module action:
(L*M).apply(f) must equal L.apply(M.apply(f)) on random truncated series, and
constant-coefficient operators must act on exp(a*x + b*y) as multiplication
by their symbol polynomial evaluated at (a, b).  Expected values below were
frozen only after those independent checks passed.
"""

import random
from fractions import Fraction

import pytest

from oreshape.arith import MultiPoly, RatFunc
from oreshape.errors import PoleAtOrigin, TruncationTooSmall
from oreshape.ore import OreOperator, TruncSeries, ratfunc_to_series

from _helpers import assert_canonical, exp_series, poly_times_exp_series, rand_operator, rand_ratfunc, rand_series


def sym(nvars):
    """Dx, Dy1.., x, y1.., 1 as operators."""
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    vs = [OreOperator.from_coeff(RatFunc.var(nvars, i)) for i in range(nvars + 1)]
    return ds, vs, OreOperator.one(nvars)


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------


def test_commutation_relations_exact():
    for nvars in (1, 2):
        ds, vs, one = sym(nvars)
        zero = OreOperator.zero(nvars)
        for a in range(nvars + 1):
            for b in range(nvars + 1):
                comm = ds[a] * vs[b] - vs[b] * ds[a]
                assert comm == (one if a == b else zero)
                assert ds[a] * ds[b] - ds[b] * ds[a] == zero
                assert vs[a] * vs[b] - vs[b] * vs[a] == zero


def test_product_pushes_derivatives_through():
    (dx, dy), (x, y), one = sym(1)
    assert dy * OreOperator.from_coeff(RatFunc.var(1, 1) ** 2) == (
        OreOperator.from_coeff(RatFunc.var(1, 1) ** 2) * dy
        + OreOperator.from_coeff(2 * RatFunc.var(1, 1))
    )
    # the two orderings of (Dx + x)(Dx - x) differ by the commutator -2
    assert (dx + x) * (dx - x) - (dx - x) * (dx + x) == -2 * one


def test_known_product():
    (dx, dy), _, one = sym(1)
    L = (dx - one) * (dx - 2 * one)
    assert str(L) == "Dx^2 - 3*Dx + 2"
    assert L == dx * dx - 3 * dx + 2 * one


def test_constant_coefficients_are_not_differentiated(monkeypatch):
    # Commuting a derivative past a constant coefficient adds nothing, so a
    # product of constant-coefficient operators differentiates no coefficient.
    calls = []
    derivative = RatFunc.derivative

    def counting(self, index):
        calls.append(index)
        return derivative(self, index)

    monkeypatch.setattr(RatFunc, "derivative", counting)
    (dx, dy1, dy2), (x, _, _), one = sym(2)
    product = (dx - dy1 + 2 * one) * (dx + dy1 - one) * (3 * dy2 - one)
    assert str(product) == (
        "3*Dx^2*Dy2 - 3*Dy1^2*Dy2 - Dx^2 + Dy1^2 + 3*Dx*Dy2 + 9*Dy1*Dy2 - Dx - 3*Dy1 - 6*Dy2 + 2"
    )
    assert calls == []
    # a variable coefficient is still differentiated
    assert dx * x == x * dx + one
    assert calls == [0]


def test_associativity_random():
    rng = random.Random(201)
    for _ in range(25):
        a = rand_operator(rng, 2, max_terms=2, max_ord=2)
        b = rand_operator(rng, 2, max_terms=2, max_ord=2)
        c = rand_operator(rng, 2, max_terms=2, max_ord=2)
        assert (a * b) * c == a * (b * c)


def test_left_distributivity_random():
    rng = random.Random(202)
    for _ in range(15):
        a = rand_operator(rng, 1)
        b = rand_operator(rng, 1)
        c = rand_operator(rng, 1)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_trusted_constructors_keep_the_canonical_form():
    rng = random.Random(205)
    for nvars in (1, 2):
        ds, _, _ = sym(nvars)
        for k in range(20):
            a = rand_operator(rng, nvars, rat_coeffs=k % 2 == 0)
            b = rand_operator(rng, nvars)
            c = rand_ratfunc(rng, nvars)
            values = [a + b, a - b, a * b, -a, a - a, a + (-a), a.scale(c), a.scale(0), a.scale(3)]
            values += [d * a for d in ds]
            for value in values:
                assert_canonical(value)


# ---------------------------------------------------------------------------
# action on series
# ---------------------------------------------------------------------------


def test_module_action_random():
    rng = random.Random(203)
    for _ in range(12):
        L = rand_operator(rng, 1, max_terms=2, max_ord=1, origin_safe=True)
        M = rand_operator(rng, 1, max_terms=2, max_ord=1, origin_safe=True)
        f = rand_series(rng, 1, order=7)
        lhs = (L * M).apply(f)
        rhs = L.apply(M.apply(f))
        assert lhs.agrees_with(rhs)
        assert (L + M).apply(f).agrees_with(L.apply(f) + M.apply(f))


def test_constant_coefficient_symbol_action():
    rng = random.Random(204)
    for _ in range(10):
        L = rand_operator(rng, 1, max_terms=3, max_ord=2, rat_coeffs=False)
        L = OreOperator(1, {dm: RatFunc.const(1, c.num.terms.get((0, 0), Fraction(0)))
                           for dm, c in L.terms.items()})
        if L.is_zero():
            continue
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        f = exp_series(1, 8, (a, b))
        val = sum(
            (c.constant_value() * Fraction(a) ** dm[0] * Fraction(b) ** dm[1]
             for dm, c in L.terms.items()),
            Fraction(0),
        )
        expected = exp_series(1, 8 - L.max_order(), (a, b)) * val
        assert L.apply(f).agrees_with(expected)


def test_annihilators_of_exponentials():
    (dx, dy), _, one = sym(1)
    ex = exp_series(1, 8, (1, 0))
    assert (dx - one).apply(ex).is_zero()
    assert dy.apply(ex).is_zero()
    e2x = exp_series(1, 8, (2, 0))
    assert ((dx - one) * (dx - 2 * one)).apply(e2x).is_zero()
    exy = exp_series(1, 8, (1, 1))
    assert (dy * dy - dy).apply(exy).is_zero()
    assert (dy * dy - dy).apply(ex).is_zero()


def test_apply_with_polynomial_coefficient():
    # x*Dx applied to exp(2x) is 2x*exp(2x)
    (dx, dy), (x, y), one = sym(1)
    L = x * dx
    got = L.apply(exp_series(1, 8, (2, 0)))
    expected = poly_times_exp_series(1, 7, {(1, 0): Fraction(2)}, (2, 0))
    assert got.agrees_with(expected)
    assert got.order == 7


def test_truncation_order_bookkeeping():
    (dx, dy), _, one = sym(1)
    f = rand_series(random.Random(205), 1, order=6)
    assert (dx * dx).apply(f).order == 4
    assert one.apply(f).order == 6
    assert OreOperator.zero(1).apply(f).order == 6
    assert f.diff(0).order == 5
    g = rand_series(random.Random(206), 1, order=4)
    assert (f + g).order == 4
    assert (f * g).order == 4
    with pytest.raises(TruncationTooSmall):
        (dx * dx).apply(TruncSeries(1, 2, {}))


def test_pole_at_origin_detected():
    x = MultiPoly.var(1, 0)
    L = OreOperator.from_coeff(RatFunc(MultiPoly.one(1), x))
    with pytest.raises(PoleAtOrigin):
        L.apply(TruncSeries.one(1, 5))
    with pytest.raises(PoleAtOrigin):
        ratfunc_to_series(RatFunc(MultiPoly.one(1), x), 5)


def test_ratfunc_series_expansion():
    one = MultiPoly.one(1)
    x = MultiPoly.var(1, 0)
    geo = ratfunc_to_series(RatFunc(one, one - x), 6)
    assert all(geo.coefficient((k, 0)) == 1 for k in range(6))
    # multiplicative check on random rational functions: f * den == num as series
    rng = random.Random(207)
    from _helpers import rand_ratfunc

    for _ in range(10):
        f = rand_ratfunc(rng, 1, unit_den_at_origin=True)
        s = ratfunc_to_series(f, 6)
        lhs = s * TruncSeries(1, 6, f.den.terms)
        assert lhs.agrees_with(TruncSeries(1, 6, f.num.terms))


# ---------------------------------------------------------------------------
# shear substitution
# ---------------------------------------------------------------------------


def test_shear_known_images():
    (dx, dy), (x, y), one = sym(1)
    assert (dx - one).shear((1,), "inverse") == dx - dy - one
    assert dy.shear((1,), "inverse") == dy
    assert (dx - one).shear((1,), "forward") == dx + dy - one
    assert y.shear((2,), "inverse") == y + 2 * x
    # c = 0 is the identity
    L = (dx - one) * (dy * dy - dy)
    assert L.shear((0,), "forward") == L


def test_shear_moves_solutions():
    # generators of the annihilator of exp(x), exp(x+y); their inverse-shear
    # images must annihilate exp(x) and exp(2x+y)
    (dx, dy), _, one = sym(1)
    gens = [dx - one, dy * dy - dy]
    sheared = [g.shear((1,), "inverse") for g in gens]
    assert sheared[0] == dx - dy - one
    assert sheared[1] == dy * dy - dy
    for member in (exp_series(1, 8, (1, 0)), exp_series(1, 8, (2, 1))):
        for g in sheared:
            assert g.apply(member).is_zero()


def test_shear_homomorphism_and_round_trip():
    rng = random.Random(208)
    for _ in range(25):
        a = rand_operator(rng, 2, max_terms=2, max_ord=1)
        b = rand_operator(rng, 2, max_terms=2, max_ord=1)
        c = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        direction = rng.choice(("forward", "inverse"))
        assert (a * b).shear(c, direction) == a.shear(c, direction) * b.shear(c, direction)
        assert (a + b).shear(c, direction) == a.shear(c, direction) + b.shear(c, direction)
        other = "inverse" if direction == "forward" else "forward"
        assert a.shear(c, direction).shear(c, other) == a


# ---------------------------------------------------------------------------
# role swap
# ---------------------------------------------------------------------------


def test_swap_roles_involution_and_action():
    rng = random.Random(209)
    (dx, dy), (x, y), one = sym(1)
    assert dx.swap_roles(1) == dy
    assert (x * dx).swap_roles(1) == y * dy
    for _ in range(10):
        L = rand_operator(rng, 2, origin_safe=True)
        k = rng.choice((1, 2))
        assert L.swap_roles(k).swap_roles(k) == L
        f = rand_series(rng, 2, order=6)
        lhs = L.swap_roles(k).apply(f.swap_vars(k))
        assert lhs.agrees_with(L.apply(f).swap_vars(k))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def test_operator_formatting():
    (dx, dy), (x, y), one = sym(1)
    assert str((dx - one) * (dx - 2 * one)) == "Dx^2 - 3*Dx + 2"
    assert str(dx - dy - one) == "Dx - Dy - 1"
    assert str(OreOperator.zero(1)) == "0"
    assert str(x * dx) == "x*Dx"
    assert str((x + one) * dx) == "(x + 1)*Dx"
    L = OreOperator(1, {(1, 0): RatFunc(MultiPoly.var(1, 0), MultiPoly.var(1, 0) + 1)})
    assert str(L) == "x/(x + 1)*Dx"
    assert str(OreOperator.D(2, 2)) == "Dy2"


def test_series_formatting():
    s = exp_series(1, 3, (1, 0))
    assert str(s) == "1 + x + 1/2*x^2"
    assert str(TruncSeries(1, 3, {})) == "0"
