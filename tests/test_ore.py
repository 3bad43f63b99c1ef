"""Operator algebra and truncated series.

The load-bearing oracle for the noncommutative product is the module action:
(L*M).apply(f) must equal L.apply(M.apply(f)) on random truncated series, and
constant-coefficient operators must act on exp(a*x + b*y) as multiplication
by their symbol polynomial evaluated at (a, b).  Expected values below were
frozen only after those independent checks passed.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from oreshape.arith import MultiPoly, RatFunc
from oreshape.cli import main
from oreshape.errors import ArityError, PoleAtOrigin, TruncationTooSmall
from oreshape.ore import OreOperator, TruncSeries, format_operator, ratfunc_to_series
from oreshape.parsing import parse_operator

from _helpers import (
    assert_canonical,
    exp_series,
    monomials_below,
    poly_times_exp_series,
    rand_operator,
    rand_ratfunc,
    rand_series,
    reference_pow,
    reference_series_add,
    reference_series_diff,
    reference_series_mul,
)


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
# powers and the CLI product: the short factor goes on the left
# ---------------------------------------------------------------------------


def _rational_operator(rng, nvars, rat_coeffs):
    """A random operator of order 1 whose coefficients carry non-unit rational
    denominators, and polynomial ones too when rat_coeffs is set."""
    while True:
        op = rand_operator(rng, nvars, max_terms=2, max_ord=1, rat_coeffs=rat_coeffs)
        if op.max_order() == 1:
            break
    scaled = {}
    for dm, c in op.terms.items():
        q = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(2, 7))
        scaled[dm] = c * RatFunc.const(nvars, q)
    return OreOperator(nvars, scaled)


def test_power_matches_repeated_squaring():
    # eighth powers of rational-function coefficients in two variables can
    # take seconds, so those stop at the fourth
    rng = random.Random(211)
    for nvars in (1, 2):
        for rat_coeffs, top in ((False, 8), (True, 4)):
            for _ in range(4):
                a = _rational_operator(rng, nvars, rat_coeffs)
                for k in range(top + 1):
                    assert a**k == reference_pow(a, k)
                assert a**0 == 1
                assert a**1 == a
                with pytest.raises(ValueError):
                    a**-1


def test_cli_mul_is_the_product_in_file_order(capsys, tmp_path):
    rng = random.Random(212)
    for nvars in (1, 2):
        for n in (1, 2, 3, 4):
            ops = [_rational_operator(rng, nvars, rat_coeffs=True) for _ in range(n)]
            path = tmp_path / f"n{nvars}-{n}.ideal"
            path.write_text(f"# nvars {nvars}\n" + "".join(format_operator(g) + "\n" for g in ops))
            assert main(["mul", str(path)]) == 0
            assert capsys.readouterr().out == format_operator(reduce(mul, ops)) + "\n"


def _left_factor_sizes(monkeypatch):
    """Record the number of terms of every product's left factor."""
    sizes = []
    inner = OreOperator.__mul__

    def spy(self, other):
        sizes.append(len(self.terms))
        return inner(self, other)

    monkeypatch.setattr(OreOperator, "__mul__", spy)
    return sizes


def test_power_keeps_the_base_on_the_left(monkeypatch):
    base = parse_operator("Dx + 2*x + 1", 1)
    sizes = _left_factor_sizes(monkeypatch)
    power = parse_operator("(Dx + 2*x + 1)^40", 1)
    assert power.max_order() == 40
    assert len(sizes) >= 40 and max(sizes) <= len(base.terms)


def test_cli_mul_keeps_one_input_line_on_the_left(capsys, tmp_path, monkeypatch):
    rng = random.Random(213)
    lines = [
        f"({rng.randint(1, 2)}*x - {rng.randint(1, 2)}*y1 + {rng.randint(1, 3)})*Dx + Dy1 - {rng.randint(1, 2)}"
        for _ in range(7)
    ]
    longest = max(len(parse_operator(ln, 2).terms) for ln in lines)
    path = tmp_path / "mul7.ideal"
    path.write_text("# nvars 2\n" + "\n".join(lines) + "\n")
    sizes = _left_factor_sizes(monkeypatch)
    assert main(["mul", str(path)]) == 0
    assert capsys.readouterr().out.count("Dx^7") == 1
    assert len(sizes) >= 6 and max(sizes) <= longest


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------


def _rational_series(rng, nvars, order):
    return TruncSeries(
        nvars,
        order,
        {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in monomials_below(nvars, order)},
    )


def _series_pairs(rng, nvars):
    """Seeded operand pairs: equal and mixed orders, rational coefficients,
    zero series, and orders 0 and 1."""
    for _ in range(6):
        yield rand_series(rng, nvars, order=rng.randint(2, 5)), rand_series(rng, nvars, order=rng.randint(2, 5))
    yield _rational_series(rng, nvars, 4), _rational_series(rng, nvars, 3)
    f = rand_series(rng, nvars, order=4)
    yield f, TruncSeries(nvars, 4, {e: -v for e, v in f.coeffs.items()})
    for order in (0, 1):
        yield rand_series(rng, nvars, order=order), rand_series(rng, nvars, order=3)
        yield TruncSeries.one(nvars, order), _rational_series(rng, nvars, 2)
    yield TruncSeries(nvars, 4, {}), rand_series(rng, nvars, order=3)


def test_series_arithmetic_matches_the_fraction_loops():
    rng = random.Random(208)
    for nvars in (1, 2, 3):
        for f, g in _series_pairs(rng, nvars):
            for h, expected in (
                (f + g, reference_series_add(f, g)),
                (g + f, reference_series_add(g, f)),
                (f * g, reference_series_mul(f, g)),
                (g * f, reference_series_mul(g, f)),
            ):
                assert (h.order, h.coeffs) == expected, (f, g)
                assert h.order == min(f.order, g.order)
                assert_canonical(h)
            assert f - g == f + (-g)
            assert (-g).coeffs == {e: -v for e, v in g.coeffs.items()}
            if f.order:
                for index in range(nvars + 1):
                    d = f.diff(index)
                    assert (d.order, d.coeffs) == reference_series_diff(f, index)
                    assert_canonical(d)
            for h in (f - g, -g, f.swap_vars(nvars)):
                assert_canonical(h)
            assert f.swap_vars(nvars).swap_vars(nvars) == f
            below = monomials_below(nvars, min(f.order, g.order))
            assert f.agrees_with(g) == all(f.coefficient(e) == g.coefficient(e) for e in below)
            # a term at f's order is past f's guarantee
            longer = TruncSeries(nvars, f.order + 1, {**f.coeffs, (f.order,) + (0,) * nvars: Fraction(1)})
            assert f.agrees_with(longer) and longer.agrees_with(f)
            assert not longer.agrees_with(TruncSeries(nvars, f.order + 1, f.coeffs))


def test_series_arithmetic_with_scalars():
    rng = random.Random(209)
    for nvars in (1, 2, 3):
        for order in (0, 1, 4):
            f = _rational_series(rng, nvars, order)
            for s in (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 7)):
                for h, expected in (
                    (f + s, reference_series_add(f, s)),
                    (s + f, reference_series_add(f, s)),
                    (f - s, reference_series_add(f, -s)),
                    (f * s, reference_series_mul(f, s)),
                    (s * f, reference_series_mul(f, s)),
                ):
                    assert (h.order, h.coeffs) == expected, (f, s)
                    assert_canonical(h)


def test_series_truncates_at_its_order():
    x, y = MultiPoly.var(1, 0), MultiPoly.var(1, 1)
    p = (x + y + 1) ** 4
    f = TruncSeries(1, 3, p)
    assert f == TruncSeries(1, 3, p.terms)
    assert max(sum(e) for e in f.coeffs) == 2
    assert_canonical(f)
    # (1 + x)(2 + y) below order 1 keeps only the constant term
    assert (TruncSeries(1, 1, x + 1) * TruncSeries(1, 1, y + 2)).coeffs == {(0, 0): 2}
    # the product's high terms are cut, not carried: (1 + x)^2 below order 2
    assert (TruncSeries(1, 2, x + 1) * TruncSeries(1, 2, x + 1)).coeffs == {(0, 0): 1, (1, 0): 2}
    assert TruncSeries(1, 0, {(0, 0): 5}).is_zero()
    assert (TruncSeries(1, 0) + 1).is_zero()
    assert TruncSeries(1, 4, (x - x) + 0).is_zero()
    with pytest.raises(ValueError):
        TruncSeries(1, -1)
    with pytest.raises(ValueError):
        TruncSeries.one(1, 0).diff(0)


def test_series_arity_and_operand_types():
    f1, f2 = TruncSeries.one(1, 3), TruncSeries.one(2, 3)
    for op in (
        lambda: f1 + f2,
        lambda: f1 - f2,
        lambda: f1 * f2,
        lambda: f1.agrees_with(f2),
        lambda: TruncSeries(2, 3, MultiPoly.one(1)),
    ):
        with pytest.raises(ArityError):
            op()
    assert f1 != f2
    assert not f1 == f2
    assert TruncSeries(1, 3) != TruncSeries(2, 3)
    p = MultiPoly.one(1)
    for op in (lambda: f1 + p, lambda: p + f1, lambda: f1 - p, lambda: f1 * p, lambda: p * f1):
        with pytest.raises(TypeError):
            op()


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
            (c.num.terms[(0, 0)] * Fraction(a) ** dm[0] * Fraction(b) ** dm[1]
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
        assert_canonical(s)
        lhs = s * TruncSeries(1, 6, f.den)
        assert lhs.agrees_with(TruncSeries(1, 6, f.num))


# ---------------------------------------------------------------------------
# shear substitution
# ---------------------------------------------------------------------------


def test_shear_known_images():
    (dx, dy), (x, y), one = sym(1)
    assert (dx - one).shear((1,)) == dx - dy - one
    assert dy.shear((1,)) == dy
    assert (dx - one).shear((-1,)) == dx + dy - one
    assert y.shear((2,)) == y + 2 * x
    # c = 0 is the identity
    L = (dx - one) * (dy * dy - dy)
    assert L.shear((0,)) == L


def test_shear_moves_solutions():
    # generators of the annihilator of exp(x), exp(x+y); their images under
    # the shear by 1 must annihilate exp(x) and exp(2x+y)
    (dx, dy), _, one = sym(1)
    gens = [dx - one, dy * dy - dy]
    sheared = [g.shear((1,)) for g in gens]
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
        # a random sign, so that shears by c and by -c are both tested
        c = tuple(rng.choice((-1, 1)) * ci for ci in c)
        assert (a * b).shear(c) == a.shear(c) * b.shear(c)
        assert (a + b).shear(c) == a.shear(c) + b.shear(c)
        assert a.shear(c).shear(tuple(-ci for ci in c)) == a


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
