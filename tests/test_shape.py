"""Quotient actions, elimination, shape bases, shears, gauge transforms.

Ground truth throughout is the exponential picture: the left ideal
annihilating exp(a1*x + b1*y) and exp(a2*x + b2*y) with a1 != a2 is
generated by (Dx - a1)(Dx - a2) and Dy - L(Dx), where L is the affine line
through (a1, b1) and (a2, b2).  Its elimination polynomial in Dx is
(Dx - a1)(Dx - a2), it is in normal position exactly when a1 != a2, and a
shear by c moves the x-exponents to a_i + c*b_i while keeping the
y-exponents.  Random instances of this family give an independent oracle
for every operation below; truncated series solutions give a second one.
"""

import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oreshape import shape
from oreshape.arith import MultiPoly, RatFunc
from oreshape.errors import (
    ArityError,
    InternalError,
    NotCyclic,
    NotNormalPosition,
    NotZeroDimensional,
    ResourceLimit,
)
from oreshape.gb import GroebnerBasis, TermOrder, groebner_basis
from oreshape.ore import OreOperator
from oreshape.parsing import parse_ideal_file
from oreshape.series import solve_series
from oreshape.shape import (
    QuotientAction,
    _Echelon,
    cyclic_vector,
    eliminate_dx,
    gauge_transform,
    in_normal_position,
    normalize_by_shear,
    quotient_action,
    shape_basis,
    shear_ideal,
)

from _helpers import (
    conjugate,
    disguised_two_point_ideal,
    rand_ratfunc,
    reference_in_normal_position,
    reference_normalize_by_shear,
)


def sym(nvars=1):
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    return ds, OreOperator.one(nvars)


def two_exp_gens(a1, b1, a2, b2):
    """Generators of the annihilator of exp(a1 x + b1 y), exp(a2 x + b2 y)."""
    assert a1 != a2
    (dx, dy), one = sym(1)
    s = Fraction(b2 - b1, a2 - a1)
    line = s * (dx - a1 * one) + b1 * one
    return [(dx - a1 * one) * (dx - a2 * one), dy - line], s


def fixture_gb(name):
    (dx, dy), one = sym(1)
    order = TermOrder.degrevlex(1)
    gens = {
        "two_points": [(dx - one) * (dx - 2 * one), dy],
        "double_point": [(dx - one) * (dx - one), dy],
        "exp_pair": [dx - one, dy * dy - dy],
        "nilpotent_y": [dx - one, dy * dy],
        "unit": [dx - one, dx - 2 * one],
        "axes": [dx, dy],
    }[name]
    return groebner_basis(gens, order)


# ---------------------------------------------------------------------------
# quotient action


def test_action_rows_for_two_points():
    act = quotient_action(fixture_gb("two_points"))
    assert act.basis == [(0, 0), (1, 0)]
    # Dx * 1 = Dx, Dx * Dx = Dx^2 = 3 Dx - 2 in the quotient; Dy acts as 0
    assert act.rows == [[[(1, -2)], [(0, 1), (1, 3)]], [[], []]]


def test_action_rows_are_the_normal_forms_reduced_once(monkeypatch):
    # Over Q and over K, rows[t] holds the nonzero entries of A_t, whose
    # column j is coords(D_t * m_j); construction makes the (n + 1)*r
    # reductions of D_t * m_j, and no later step reduces one of them again.
    bases = _fixture_and_golden_bases() + [_three_points()]
    bases += [conjugate(fixture_gb(name), Fraction(2)) for name in ("two_points", "exp_pair", "nilpotent_y")]
    bases = [gb for gb in bases if gb.dimension()]
    assert sum(gb.over_q for gb in bases) >= 5 and sum(not gb.over_q for gb in bases) >= 4
    real = GroebnerBasis.reduce
    reductions = []
    def spy(self, f):
        reductions.append(f)
        return real(self, f)

    for gb in bases:
        nvars, basis = gb.nvars, gb.quotient_basis()
        reductions.clear()
        monkeypatch.setattr(GroebnerBasis, "reduce", spy)
        act = quotient_action(gb)
        assert len(reductions) == (nvars + 1) * act.r
        monkeypatch.undo()
        m = cyclic_vector(gb)
        monkeypatch.setattr(GroebnerBasis, "reduce", spy)
        reductions.clear()
        gauge_transform(gb, m)
        solve_series(gb, 5)
        monkeypatch.undo()
        assert reductions == [m]
        field = Fraction if gb.over_q else RatFunc
        for t, rows in enumerate(act.rows):
            cols = [act.coords(OreOperator.D(nvars, t) * OreOperator.monomial(nvars, dm)) for dm in basis]
            assert rows == [[(j, a) for j, a in enumerate(row) if a] for row in zip(*cols)]
            assert all(type(a) is field for row in rows for _, a in row)


def test_action_matches_reduction():
    # coords(D_t * op) must equal the pseudo-linear action on coords(op)
    rng = random.Random(401)
    gb = fixture_gb("exp_pair")
    act = quotient_action(gb)
    (dx, dy), one = sym(1)
    pool = [dx, dy, dx * dy, dy * dy, dx * dx - dy]
    for op in pool:
        v = act.coords(op)
        for t in (0, 1):
            direct = act.coords(OreOperator.D(1, t) * op)
            assert act.apply(t, v) == direct


def test_action_is_pseudo_linear():
    # D.(f v) = f' v + f (D.v) for scalars f
    rng = random.Random(402)
    act = quotient_action(fixture_gb("two_points"))
    for _ in range(10):
        f = rand_ratfunc(rng, 1)
        v = [rand_ratfunc(rng, 1) for _ in range(act.r)]
        for t in (0, 1):
            lhs = act.apply(t, [f * vi for vi in v])
            fv = act.apply(t, v)
            rhs = [f.derivative(t) * vi + f * fvi for vi, fvi in zip(v, fv)]
            assert lhs == rhs


def express(vectors, target, nvars):
    """Coefficients of target in the span of the vectors, or None."""
    ech = _Echelon(RatFunc.zero(nvars), RatFunc.one(nvars), RatFunc.degree)
    for v in vectors:
        ech.add(v)
    c, rest = ech.reduce(target)
    return c if all(a.is_zero() for a in rest) else None


def test_echelon_small_systems():
    one = RatFunc.one(1)
    zero = RatFunc.zero(1)
    x = RatFunc.var(1, 0)
    # identity system
    assert express([[one, zero], [zero, one]], [x, one], 1) == [x, one]
    # dependent family: the second vector is reported and not added, and a
    # consistent target is expressed in the independent part
    ech = _Echelon(zero, one, RatFunc.degree)
    assert ech.add([one, zero]) is None
    assert ech.add([x, zero]) == [x]
    c, rest = ech.reduce([one + x, zero])
    assert c == [one + x] and all(a.is_zero() for a in rest)
    # inconsistent target
    assert express([[one, zero]], [zero, one], 1) is None
    # empty family expresses only zero
    assert express([], [zero, zero], 1) == []
    assert express([], [one], 1) is None


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_known_values():
    (dx, dy), one = sym(1)
    assert eliminate_dx(fixture_gb("two_points")) == dx * dx - 3 * dx + 2 * one
    assert eliminate_dx(fixture_gb("exp_pair")) == dx - one
    assert eliminate_dx(fixture_gb("nilpotent_y")) == dx - one
    assert eliminate_dx(fixture_gb("unit")) == one


def test_eliminate_methods_agree():
    rng = random.Random(403)
    order = TermOrder.degrevlex(1)
    pool = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y", "unit", "axes")]
    for _ in range(6):
        a1 = rng.randint(-4, 4)
        a2 = a1 + rng.randint(1, 3)
        gens, _ = two_exp_gens(a1, rng.randint(-3, 3), a2, rng.randint(-3, 3))
        pool.append(groebner_basis(gens, order))
    for gb in pool:
        p_krylov = eliminate_dx(gb, method="krylov")
        p_elim = eliminate_dx(gb, method="elim-order")
        assert p_krylov == p_elim
        # membership and shape of the eliminant
        assert gb.reduce(p_krylov).is_zero()
        assert p_krylov.is_free_of(1)
        assert p_krylov.max_order() <= gb.dimension()


def test_eliminate_two_exp_product():
    rng = random.Random(404)
    (dx, dy), one = sym(1)
    order = TermOrder.degrevlex(1)
    for _ in range(8):
        a1 = rng.randint(-5, 5)
        a2 = a1 + rng.randint(1, 4)
        gens, _ = two_exp_gens(a1, rng.randint(-3, 3), a2, rng.randint(-3, 3))
        gb = groebner_basis(gens, order)
        assert gb.dimension() == 2
        assert eliminate_dx(gb) == (dx - a1 * one) * (dx - a2 * one)


def test_eliminate_rejects_unknown_method():
    with pytest.raises(ValueError):
        eliminate_dx(fixture_gb("two_points"), method="guess")


# ---------------------------------------------------------------------------
# normal position


def test_normal_position_known_cases():
    assert in_normal_position(fixture_gb("two_points")) is True
    assert in_normal_position(fixture_gb("exp_pair")) is False
    assert in_normal_position(fixture_gb("nilpotent_y")) is False
    assert in_normal_position(fixture_gb("unit")) is True
    # constants are the only solutions: r = 1 and P = Dx already has order 1
    assert in_normal_position(fixture_gb("axes")) is True


def test_normal_position_depends_on_main_variable():
    # same ideal, roles swapped: solutions exp(x), exp(2x) separate along x
    # but collapse along y
    gb = fixture_gb("two_points")
    swapped = groebner_basis([g.swap_roles(1) for g in gb.gens], gb.order)
    assert in_normal_position(gb) is True
    assert in_normal_position(swapped) is False


def test_normal_position_two_exp_after_shear():
    # exponents (a_i + c b_i, b_i): normal iff the sheared x-exponents differ
    rng = random.Random(405)
    order = TermOrder.degrevlex(1)
    for _ in range(6):
        a1, b1 = rng.randint(-3, 3), rng.randint(-3, 3)
        a2 = a1 + rng.randint(1, 3)
        b2 = b1 + rng.choice([-2, -1, 1, 2])
        gens, _ = two_exp_gens(a1, b1, a2, b2)
        gb = groebner_basis(gens, order)
        for c in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(a1 - a2, b2 - b1)):
            sheared = shear_ideal(gb, (c,))
            expect = a1 + c * b1 != a2 + c * b2
            assert in_normal_position(sheared) is expect, (a1, b1, a2, b2, c)


# ---------------------------------------------------------------------------
# shape bases


def test_shape_basis_of_sheared_exp_pair():
    (dx, dy), one = sym(1)
    sheared = shear_ideal(fixture_gb("exp_pair"), (Fraction(1),))
    sb = shape_basis(sheared)
    assert sb.r == 2
    assert sb.P() == dx * dx - 3 * dx + 2 * one
    assert sb.Q(1) == dx - one
    assert sb.generators() == [dy - (dx - one), dx * dx - 3 * dx + 2 * one]
    # generators present the same ideal: canonical reduced bases coincide
    regen = groebner_basis(sb.generators(), sheared.order)
    assert regen.gens == sheared.gens


def test_shape_basis_two_exp_interpolation():
    rng = random.Random(406)
    (dx, dy), one = sym(1)
    order = TermOrder.degrevlex(1)
    for _ in range(6):
        a1, b1 = rng.randint(-4, 4), rng.randint(-3, 3)
        a2 = a1 + rng.randint(1, 3)
        b2 = rng.randint(-3, 3)
        gens, s = two_exp_gens(a1, b1, a2, b2)
        sb = shape_basis(groebner_basis(gens, order))
        assert sb.P() == (dx - a1 * one) * (dx - a2 * one)
        assert sb.Q(1) == s * (dx - a1 * one) + b1 * one


def test_shape_generators_annihilate_solutions():
    sheared = shear_ideal(fixture_gb("exp_pair"), (Fraction(1),))
    sb = shape_basis(sheared)
    sol = solve_series(sheared, order=8)
    for g in sb.generators():
        for f in sol.members:
            assert g.apply(f).is_zero()


def test_shape_basis_requires_normal_position():
    with pytest.raises(NotNormalPosition):
        shape_basis(fixture_gb("exp_pair"))
    with pytest.raises(NotNormalPosition):
        shape_basis(fixture_gb("nilpotent_y"))


def test_shape_basis_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(GroebnerBasis, "contains", lambda self, f: False)
    with pytest.raises(InternalError):
        shape_basis(fixture_gb("two_points"))


def test_shape_basis_unit_ideal():
    (dx, dy), one = sym(1)
    sb = shape_basis(fixture_gb("unit"))
    assert sb.r == 0
    assert sb.P() == one
    assert sb.generators() == [dy, one]


def test_shape_basis_two_blocks():
    ds, one = sym(2)
    dx, dy1, dy2 = ds
    gb = groebner_basis([dx - one, dy1 - one, dy2 - 2 * one], TermOrder.degrevlex(2))
    sb = shape_basis(gb)
    assert sb.r == 1
    assert sb.P() == dx - one
    assert sb.Q(1) == one
    assert sb.Q(2) == 2 * one


# ---------------------------------------------------------------------------
# shears


def test_shear_ideal_round_trip_and_dimension():
    rng = random.Random(407)
    order = TermOrder.degrevlex(1)
    pool = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y")]
    for gb in pool:
        r = gb.dimension()
        for c in ((Fraction(1),), (Fraction(-2),), (Fraction(1, 2),)):
            sheared = shear_ideal(gb, c)
            assert sheared.dimension() == r
            back = shear_ideal(sheared, (-c[0],))
            assert back.gens == gb.gens


def _fixture_and_golden_bases():
    bases = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y", "unit", "axes")]
    for p in sorted((Path(__file__).parent / "data" / "golden").glob("*.ideal")):
        nvars, gens = parse_ideal_file(p.read_text())
        bases.append(groebner_basis(gens, TermOrder.degrevlex(nvars)))
    return bases


def _recompleted_shear(gb, c):
    return groebner_basis([g.shear(c) for g in gb.gens], gb.order)


def test_identity_shear_is_the_basis_itself(monkeypatch):
    for gb in _fixture_and_golden_bases():
        zero = (Fraction(0),) * gb.nvars
        assert shear_ideal(gb, zero) is gb
        assert shear_ideal(gb, (0,) * gb.nvars) is gb
        assert gb == _recompleted_shear(gb, zero)
    with pytest.raises(ArityError):
        shear_ideal(fixture_gb("two_points"), (0, 0))
    # normalize_by_shear finds the same shear and basis when the shear it
    # returns, c = 0 included, is recompleted
    found = [normalize_by_shear(gb) for gb in _fixture_and_golden_bases()]
    monkeypatch.setattr(shape, "shear_ideal", _recompleted_shear)
    assert found == [normalize_by_shear(gb) for gb in _fixture_and_golden_bases()]


def test_shear_makes_nilpotent_y_normal():
    gb = fixture_gb("nilpotent_y")
    (dx, dy), one = sym(1)
    assert in_normal_position(gb) is False
    for c in (Fraction(1), Fraction(-1), Fraction(2)):
        sheared = shear_ideal(gb, (c,))
        assert in_normal_position(sheared) is True
        assert eliminate_dx(sheared) == (dx - one) * (dx - one)


def test_normalize_returns_zero_shift_when_already_normal():
    gb = fixture_gb("two_points")
    params, out = normalize_by_shear(gb)
    assert params == (Fraction(0),)
    assert out.gens == gb.gens


def test_normalize_finds_working_shift():
    gb = fixture_gb("exp_pair")
    params, out = normalize_by_shear(gb)
    assert in_normal_position(out)
    assert out.gens == shear_ideal(gb, params).gens
    assert params != (Fraction(0),)


def _three_points():
    """exp(x), exp(x + y) and exp(2x + y): the shear by c moves the x-rates
    to 1, 1 + c and 2 + c, so c = 0 and c = -1 fail and 1, 2, -2 pass."""
    (dx, dy), one = sym(1)
    gens = [(dx - one) * (dx - 2 * one), dy * dy - dy, (dx - one) * (dy - one)]
    return groebner_basis(gens, TermOrder.degrevlex(1))


def _shear_pool():
    """The fixture and golden bases, the three points, and disguised
    two-point ideals with nvars 1 and 2, with and without rational
    coefficients in the disguise."""
    rng = random.Random(1313)
    pool = _fixture_and_golden_bases() + [_three_points()]
    for nvars, rat_coeffs in product((1, 2), (False, True)):
        for _ in range(2):
            pool.append(groebner_basis(disguised_two_point_ideal(rng, nvars, rat_coeffs), TermOrder.degrevlex(nvars)))
    return pool


def test_shear_walk_agrees_with_completing_the_shear():
    # the walk of Dx + c*Dy on the quotient of I against the walk of Dx on
    # the quotient of the completed shear, for every c in {-2..2}^nvars
    verdicts = []
    for gb in _shear_pool():
        for c in product(range(-2, 3), repeat=gb.nvars):
            c = tuple(map(Fraction, c))
            verdict = in_normal_position(gb, c)
            assert verdict is reference_in_normal_position(shear_ideal(gb, c)), (gb.gens, c)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_normalize_skips_rejected_shears():
    gb = _three_points()
    assert [in_normal_position(gb, (c,)) for c in range(-2, 3)] == [True, False, False, True, True]
    # c = 0 fails and the first draw, 1, passes
    params, out = normalize_by_shear(gb)
    assert params == (Fraction(1),)
    assert [str(g) for g in out.gens] == ["Dy^2 - Dy", "Dx*Dy - Dx - Dy + 1", "Dx^2 - 5*Dx + 2*Dy + 4"]
    assert (params, out) == reference_normalize_by_shear(gb)


def _six_points():
    """exp(a*x + b*y) at (a, b) = (-7, 0), (-9, 1), (-4, 2), (-1, 3), (-6, 4),
    (-9, 5): the shear by c moves the x-rates to a + c*b, and they are
    distinct for no c in [-5, 5], the range of the draws."""
    (dx, dy), one = sym(1)
    points = [(-7, 0), (-9, 1), (-4, 2), (-1, 3), (-6, 4), (-9, 5)]
    p, line = one, 0 * one
    for a, b in points:
        p = p * (dy - b * one)
        lagrange = a * one
        for _, b2 in points:
            if b2 != b:
                lagrange = lagrange * (dy - b2 * one) * Fraction(1, b - b2)
        line = line + lagrange
    return groebner_basis([dx - line, p], TermOrder.degrevlex(1))


def _fat_point(nvars):
    """<every monomial of degree 2 in Dx, Dy1..Dyn>: r = nvars + 2, and the
    walk of any L from 1 stops at step 2, so no shear works."""
    ds, _ = sym(nvars)
    gens = [ds[i] * ds[j] for i in range(nvars + 1) for j in range(i, nvars + 1)]
    return groebner_basis(gens, TermOrder.degrevlex(nvars))


def _judging(monkeypatch):
    """The candidates normalize_by_shear judges, in order, as integer tuples."""
    judged = []
    real = shape.in_normal_position
    monkeypatch.setattr(shape, "in_normal_position", lambda gb, c: judged.append(tuple(map(int, c))) or real(gb, c))
    return judged


def _draws(nvars):
    """The distinct candidates before the grid: 0, then 19 draws."""
    rng = random.Random(0)
    return list(dict.fromkeys([(0,) * nvars] + [tuple(rng.randint(-5, 5) for _ in range(nvars)) for _ in range(19)]))


def test_normalize_finds_a_shear_past_the_draws(monkeypatch):
    gb = _six_points()
    r = gb.dimension()
    assert r == 6 and not any(in_normal_position(gb, (Fraction(c),)) for c in range(-5, 6))
    judged = _judging(monkeypatch)
    c, out = normalize_by_shear(gb)
    # the draws reach -5..4; the grid S = {-7, ..., 8} (d = 15) goes on with
    # 5, which fails, and -6
    assert c == (Fraction(-6),)
    assert judged == _draws(1) + [(5,), (-6,)]
    assert out.gens == shear_ideal(gb, c).gens
    assert (c, out) == reference_normalize_by_shear(gb)
    assert in_normal_position(out)


def test_normalize_decides_fat_points_on_the_whole_grid(monkeypatch):
    judged = _judging(monkeypatch)
    for nvars, side in ((1, 4), (2, 7), (3, 11)):
        gb = _fat_point(nvars)
        d = gb.dimension() * (gb.dimension() - 1) // 2
        assert side == d + 1
        judged.clear()
        start = time.perf_counter()
        with pytest.raises(NotNormalPosition, match="no rational shear"):
            normalize_by_shear(gb)
        assert time.perf_counter() - start < 5
        values = range(-(d // 2), (d + 1) // 2 + 1)
        draws = _draws(nvars)
        grid = sorted(product(values, repeat=nvars), key=lambda c: (max(map(abs, c)), c))
        assert len(grid) == side**nvars
        assert judged == draws + [c for c in grid if c not in draws]
    with pytest.raises(NotNormalPosition):
        reference_normalize_by_shear(_fat_point(1))


def test_normalize_grid_is_bounded(monkeypatch):
    # the bound is grid points times r^3, 100 times that over K, checked
    # after the draws and before the first walk of the grid; the fat point
    # at nvars 3 is admitted
    assert 11**3 * 5**3 <= shape.MAX_SHEAR_WORK
    judged = _judging(monkeypatch)
    # (x + 1)*I*(1/(x + 1)) for the fat point I at nvars 1: rational coefficients
    x1 = RatFunc.var(1, 0) + RatFunc.one(1)
    left, right = OreOperator.from_coeff(x1), OreOperator.from_coeff(1 / x1)
    conjugated = groebner_basis([left * g * right for g in _fat_point(1).gens], TermOrder.degrevlex(1))
    for gb, side, r, field, weight in ((_fat_point(2), 7, 4, "Q", 1), (conjugated, 4, 3, "K", 100)):
        assert gb.over_q is (field == "Q")
        work = side**gb.nvars * r**3 * weight
        monkeypatch.setattr(shape, "MAX_SHEAR_WORK", work - 1)
        judged.clear()
        message = f"a shear grid of {side}^{gb.nvars} points at quotient dimension {r} over {field} needs more than"
        with pytest.raises(ResourceLimit) as refused:
            normalize_by_shear(gb)
        assert str(refused.value).startswith(f"{message} {work - 1}")
        assert judged == _draws(gb.nvars)
        monkeypatch.setattr(shape, "MAX_SHEAR_WORK", work)
        with pytest.raises(NotNormalPosition):
            normalize_by_shear(gb)
    # a shear found among the draws needs no grid, however large
    monkeypatch.setattr(shape, "MAX_SHEAR_WORK", 0)
    assert normalize_by_shear(fixture_gb("exp_pair"))[0] != (Fraction(0),)


def test_normalize_completes_only_the_shear_it_returns(monkeypatch):
    completions = []
    real = shape.groebner_basis

    def spy(gens, order):
        completions.append(gens)
        return real(gens, order)

    pool = _shear_pool()
    expected = [reference_normalize_by_shear(gb) for gb in pool]
    monkeypatch.setattr(shape, "groebner_basis", spy)
    sheared = 0
    for gb, want in zip(pool, expected):
        completions.clear()
        params, out = normalize_by_shear(gb)
        assert (params, out) == want
        sheared += any(params)
        assert len(completions) == any(params), (gb.gens, params)
    assert sheared >= 3  # exp_pair, nilpotent_y and the three points
    # eleven shears are rejected before -6 passes
    completions.clear()
    assert normalize_by_shear(_six_points())[0] == (Fraction(-6),)
    assert len(completions) == 1


def test_normalize_unit_and_non_zero_dimensional_ideals():
    gb = fixture_gb("unit")
    assert normalize_by_shear(gb) == ((Fraction(0),), gb)
    assert normalize_by_shear(gb)[1] is gb
    (dx, dy), one = sym(1)
    with pytest.raises(NotZeroDimensional):
        normalize_by_shear(groebner_basis([dx - one], TermOrder.degrevlex(1)))


# ---------------------------------------------------------------------------
# cyclic vectors and gauge transforms


def test_cyclic_vector_trivial_when_normal():
    gb = fixture_gb("two_points")
    m = cyclic_vector(gb)
    assert m == OreOperator.one(1)


def test_cyclic_vector_for_exp_pair():
    (dx, dy), one = sym(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = fixture_gb("exp_pair")
    m = cyclic_vector(gb)
    assert m == x * dy + one
    sb = gauge_transform(gb, m)
    assert sb.P() == dx * dx - 2 * dx + one


def test_katz_vectors_hold_a_cyclic_one():
    # Dx acts as the identity on <Dx - 1, Dy^2 - Dy>, so neither 1 nor Dy is
    # cyclic; the sweep reaches x*Dy + 1 first, while Katz's v(0) =
    # (1 - x)*e_0 + x*e_1 is cyclic too, its Wronskian being 1.
    (dx, dy), one = sym(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = fixture_gb("exp_pair")
    assert next(shape._katz_vectors(quotient_action(gb))) == x * dy - x + one
    assert gauge_transform(gb, x * dy - x + one).r == 2
    # on every fixture one of the r(r - 1) + 1 vectors passes the Krylov walk
    for name in ("two_points", "double_point", "nilpotent_y", "axes", "exp_pair"):
        act = quotient_action(fixture_gb(name))
        katz = list(shape._katz_vectors(act))
        assert len(katz) == act.r * (act.r - 1) + 1
        assert any(len(shape._krylov_walk(act, act.coords(m))[0]) == act.r for m in katz), name


def test_cyclic_vector_rejects_trivial_quotient():
    with pytest.raises(NotCyclic):
        cyclic_vector(fixture_gb("unit"))
    with pytest.raises(NotCyclic):
        gauge_transform(fixture_gb("unit"), OreOperator.one(1))


def test_gauge_transform_known_values():
    (dx, dy), one = sym(1)
    xp = MultiPoly.var(1, 0)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = fixture_gb("exp_pair")
    sb = gauge_transform(gb, x + dy)
    assert sb.P() == dx * dx - 2 * dx + one
    q1 = sb.q_coeffs[0]
    one_p = MultiPoly.one(1)
    assert q1[0] == RatFunc((xp + one_p) * (xp + one_p))
    assert q1[1] == RatFunc(-(xp * (xp + one_p)))


def test_gauge_outputs_annihilate_transformed_solutions():
    (dx, dy), one = sym(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = fixture_gb("exp_pair")
    m = x + dy
    sb = gauge_transform(gb, m)
    sol = solve_series(gb, order=9)
    for f in sol.members:
        g = m.apply(f)
        assert sb.P().apply(g).is_zero()
        # Dy g = Q1(Dx) g as functions
        dyg = OreOperator.D(1, 1).apply(g)
        q1g = sb.Q(1).apply(g)
        assert dyg.agrees_with(q1g)


def test_gauge_transform_rejects_non_cyclic_class():
    gb = fixture_gb("exp_pair")
    with pytest.raises(NotCyclic):
        gauge_transform(gb, OreOperator.one(1))
    # the class of a generator is zero in the quotient
    with pytest.raises(NotCyclic):
        gauge_transform(gb, gb.gens[0])


def test_krylov_engine_over_fixture_corpus():
    # the one Krylov walk serves elimination, shape bases and gauge
    # transforms; elim-order completion is the independent reference
    ds, one2 = sym(2)
    pool = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y", "unit", "axes")]
    pool += [shear_ideal(fixture_gb(n), (Fraction(1),)) for n in ("exp_pair", "nilpotent_y")]
    pool.append(groebner_basis([ds[0] - one2, ds[1] - one2, ds[2] - 2 * one2], TermOrder.degrevlex(2)))
    normal = 0
    for gb in pool:
        assert eliminate_dx(gb, method="krylov") == eliminate_dx(gb, method="elim-order")
        if gb.dimension() and in_normal_position(gb):
            normal += 1
            assert gauge_transform(gb, OreOperator.one(gb.nvars)) == shape_basis(gb)
    assert normal == 6


def test_gauge_with_one_matches_shape_basis():
    gb = fixture_gb("two_points")
    assert gauge_transform(gb, OreOperator.one(1)) == shape_basis(gb)
