"""Series solutions, Wronskians, and the dependence search.

Oracles: closed-form solutions.  For constant-coefficient ideals the
solution basis is an explicit combination of exponentials (or polynomials
times exponentials at a repeated root), built here coefficient by
coefficient with plain Fraction arithmetic, independent of the library's
series type internals.  The dependence search is checked both against known
witnesses and by re-summing witness * member products from raw coefficient
dictionaries.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from oreshape import arith, series
from oreshape.arith import MultiPoly, RatFunc, grevlex_key
from oreshape.errors import NonOrdinaryOrigin, OreShapeError, ResourceLimit, TruncationTooSmall
from oreshape.gb import TermOrder, groebner_basis
from oreshape.ore import OreOperator, TruncSeries
from oreshape.parsing import parse_ideal_file
from oreshape.series import (
    DEPENDENCE_FOUND,
    NO_DEPENDENCE,
    DRadicalVerdict,
    SolutionBasis,
    _Expansion,
    _graded_monomials,
    _kernel_basis,
    d_radical_check,
    in_normal_position_series,
    solve_series,
    wronskian_x,
)
from oreshape.shape import (
    QuotientAction,
    _krylov_walk,
    cyclic_vector,
    eliminate_dx,
    gauge_transform,
    in_normal_position,
    quotient_action,
    shape_basis,
    shear_ideal,
)

from _helpers import (
    conjugate,
    disguise,
    double_point_ideal,
    exp_series,
    MULTIPLICITIES,
    monomials_below,
    poly_times_exp_series,
    reference_kernel_basis,
    reference_solve_series,
    reference_wronskian,
    shape_form_ideal,
    two_point_ideal,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


def sym(nvars=1):
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    return ds, OreOperator.one(nvars)


def fixture_gb(name):
    (dx, dy), one = sym(1)
    order = TermOrder.degrevlex(1)
    gens = {
        "two_points": [(dx - one) * (dx - 2 * one), dy],
        "double_point": [(dx - one) * (dx - one), dy],
        "exp_pair": [dx - one, dy * dy - dy],
        "nilpotent_y": [dx - one, dy * dy],
        "unit": [dx - one, dx - 2 * one],
    }[name]
    return groebner_basis(gens, order)


def golden_gbs():
    gbs = []
    for path in sorted(GOLDEN.glob("*.ideal")):
        nvars, ops = parse_ideal_file(path.read_text())
        gbs.append(groebner_basis(ops, TermOrder.degrevlex(nvars)))
    return gbs


def combo_coefficient(polys, members, expo):
    """Coefficient of sum polys[i] * members[i] on expo, from raw dicts."""
    total = Fraction(0)
    for p, f in zip(polys, members):
        for pe, pc in p.terms.items():
            rest = tuple(e - a for e, a in zip(expo, pe))
            if all(e >= 0 for e in rest):
                total += pc * f.coefficient(rest)
    return total


# ---------------------------------------------------------------------------
# monomial enumeration and kernel solver


def test_graded_monomials_matches_reference():
    # same monomial sets as the reference enumeration, degrees nondecreasing
    for nsyms, bound in ((2, 5), (3, 4)):
        got = list(_graded_monomials(nsyms, bound))
        assert sorted(got) == sorted(monomials_below(nsyms - 1, bound))
        # each layer in grevlex order, as generated, with no sort
        assert got == sorted(got, key=grevlex_key)
        assert list(_graded_monomials(nsyms, bound, 2)) == got[nsyms + 1:]
    assert list(_graded_monomials(2, 1)) == [(0, 0)]
    assert list(_graded_monomials(2, 0)) == []


def test_kernel_basis_known_systems():
    F = Fraction
    # x0 + x1 = 0 in 2 unknowns: kernel spanned by (1, -1) after scaling
    [v] = _kernel_basis([[F(1), F(1)]], 2)
    assert v[0] * -1 == v[1] and any(v)
    # full-rank system has no kernel
    assert _kernel_basis([[F(1), F(0)], [F(0), F(1)]], 2) == []
    # zero matrix: kernel is everything
    basis = _kernel_basis([[F(0), F(0)]], 2)
    assert len(basis) == 2
    # redundant rows behave like one row
    [v] = _kernel_basis([[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]], 2)
    assert v[0] == -2 * v[1] and any(v)


def _kernel_cases(rng):
    """Seeded random Q matrices (rows, ncols) of every shape the solver meets."""
    def entry(density):
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)

    def matrix(nrows, ncols, density=0.7):
        return [[entry(density) for _ in range(ncols)] for _ in range(nrows)]

    cases = []
    for _ in range(6):
        n = rng.randint(1, 6)
        cases.append((matrix(n, n, 1.0), n))  # square, full rank but by chance
        cases.append((matrix(n + rng.randint(1, 6), n), n))  # tall
        wide = n + rng.randint(1, 6)
        cases.append((matrix(n, wide), wide))  # wide
        rows = matrix(n, 7)
        for _ in range(2):
            rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * 7)
        cases.append((rows, 7))  # zero rows
        rows = matrix(n + 2, 7, 0.5)
        for j in rng.sample(range(7), 2):
            for row in rows:
                row[j] = Fraction(0)
        cases.append((rows, 7))  # zero columns
        rows = matrix(n + 3, 6)
        src, dst = rng.sample(range(6), 2)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        for row in rows:
            row[dst] = row[src] * scale
        cases.append((rows, 6))  # repeated columns
        left, right = matrix(7, 2, 1.0), matrix(2, 6, 1.0)
        rows = [[sum((a * b[j] for a, b in zip(lrow, right)), Fraction(0)) for j in range(6)] for lrow in left]
        cases.append((rows, 6))  # rank at most 2
    cases += [([], 3), ([[Fraction(0)] * 4], 4)]
    return cases


def test_kernel_basis_matches_reference_on_random_matrices():
    cases = _kernel_cases(random.Random(612))
    empty = 0
    for rows, ncols in cases:
        got = _kernel_basis(rows, ncols)
        assert got == reference_kernel_basis(rows, ncols)
        empty += not got
        for v in got:
            assert Fraction(1) in v  # at its own dependent column
            assert all(sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0 for row in rows)
    assert 0 < empty < len(cases)


def test_kernel_basis_matches_reference_on_dradical_systems(monkeypatch):
    # Every system that check-dradical solves on the fixtures and the golden
    # ideals: trace forms, and, with the trace form made to fail so that
    # radical quotients run the search too, every dependence system.
    systems = []
    kernel_basis = series._kernel_basis

    def recording(rows, ncols):
        systems.append((rows, ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(series, "_kernel_basis", recording)
    ideals = [fixture_gb(name) for name in ("two_points", "double_point", "exp_pair", "nilpotent_y")]
    ideals += golden_gbs()
    for radical in (series._radical, lambda act: False):
        monkeypatch.setattr(series, "_radical", radical)
        for gb in ideals:
            for degree_bound, order in ((1, 5), (2, 6)):
                built = len(systems)
                d_radical_check(gb, degree_bound=degree_bound, order=order)
                # the trivial quotient of the unit ideal builds no system
                assert (len(systems) > built) == (gb.dimension() > 0)
    for rows, ncols in systems:
        assert kernel_basis(rows, ncols) == reference_kernel_basis(rows, ncols)


# ---------------------------------------------------------------------------
# solution bases


def test_members_of_two_point_ideal():
    # solutions 2 exp(x) - exp(2x) and exp(2x) - exp(x), by initial values
    sol = solve_series(fixture_gb("two_points"), order=9)
    assert sol.r == 2
    assert sol.initial_monomials == ((0, 0), (1, 0))
    e1 = exp_series(1, 9, (1, 0))
    e2 = exp_series(1, 9, (2, 0))
    assert sol.members[0] == e1 + e1 - e2
    assert sol.members[1] == e2 - e1


def test_members_of_exp_pair_ideal():
    # solutions exp(x) and exp(x + y) - exp(x)
    sol = solve_series(fixture_gb("exp_pair"), order=8)
    ex = exp_series(1, 8, (1, 0))
    exy = exp_series(1, 8, (1, 1))
    assert sol.members[0] == ex
    assert sol.members[1] == exy - ex


def test_members_at_a_double_point():
    # solutions (1 - x) exp(x) and x exp(x)
    sol = solve_series(fixture_gb("double_point"), order=9)
    one = Fraction(1)
    assert sol.members[0] == poly_times_exp_series(1, 9, {(0, 0): one, (1, 0): -one}, (1, 0))
    assert sol.members[1] == poly_times_exp_series(1, 9, {(1, 0): one}, (1, 0))


def test_member_initial_coefficients_are_kronecker():
    for name in ("two_points", "double_point", "exp_pair", "nilpotent_y"):
        sol = solve_series(fixture_gb(name), order=6)
        for k, f in enumerate(sol.members):
            for j, m in enumerate(sol.initial_monomials):
                fact = 1
                for e in m:
                    fact *= factorial(e)
                expect = Fraction(int(j == k), fact)
                assert f.coefficient(m) == expect


def test_generators_annihilate_members():
    pool = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y")]
    pool.append(shear_ideal(fixture_gb("exp_pair"), (Fraction(1),)))
    pool.append(shear_ideal(fixture_gb("nilpotent_y"), (Fraction(-2),)))
    for gb in pool:
        sol = solve_series(gb, order=8)
        assert sol.r == gb.dimension()
        for g in gb.gens:
            for f in sol.members:
                assert g.apply(f).is_zero()


def test_unit_ideal_has_no_members():
    sol = solve_series(fixture_gb("unit"), order=5)
    assert sol.r == 0
    assert sol.members == ()


def test_two_block_exponential():
    ds, one = sym(2)
    dx, dy1, dy2 = ds
    gb = groebner_basis([dx - one, dy1 - one, dy2 - 2 * one], TermOrder.degrevlex(2))
    sol = solve_series(gb, order=6)
    assert sol.r == 1
    assert sol.members[0] == exp_series(2, 6, (1, 1, 2))


def test_rational_coefficients_at_ordinary_origin():
    # (x + 1) Dx - 1 has solution x + 1; Dy completes to dimension 1
    (dx, dy), one = sym(1)
    xp1 = OreOperator.from_coeff(RatFunc.var(1, 0) + RatFunc.one(1))
    gb = groebner_basis([xp1 * dx - one, dy], TermOrder.degrevlex(1))
    sol = solve_series(gb, order=7)
    assert sol.r == 1
    expect = TruncSeries(1, 7, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert sol.members[0] == expect


ORIGIN = r"^the origin is not ordinary: the matrix of D[xy] has a pole at 0$"


def test_non_ordinary_origin_is_detected(monkeypatch):
    # A_x = 1/x: D = x vanishes at 0 (see series), so the origin is refused
    # before any step, at every order.  The reference walk over K answers at
    # order 1, which never reads the pole: the truncation of a basis that
    # does not exist, since every solution c*x vanishes at 0.
    (dx, dy), one = sym(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = groebner_basis([x * dx - one, dy], TermOrder.degrevlex(1))
    steps = _count_steps(monkeypatch)
    with pytest.raises(NonOrdinaryOrigin, match=r"^the origin is not ordinary: the matrix of Dx has a pole at 0$"):
        solve_series(gb, order=5)
    assert steps == {"Q": 0, "K": 0, "Z": 0}
    _assert_refused(gb, range(1, 7), answered={1})


def _solve_outcome(solve, gb, order):
    """The solution basis, or the message of the NonOrdinaryOrigin raised."""
    try:
        return solve(gb, order)
    except NonOrdinaryOrigin as exc:
        return str(exc)


def _assert_solve_matches_reference(gb, orders):
    for order in orders:
        assert _solve_outcome(solve_series, gb, order) == _solve_outcome(reference_solve_series, gb, order)


def _assert_refused(gb, orders, answered):
    """solve_series refuses the non-ordinary origin of gb at every order:
    at the orders `answered`, where the reference walk over K meets no pole
    and answers, and at the others, where it meets one."""
    for order in orders:
        with pytest.raises(NonOrdinaryOrigin, match=ORIGIN):
            solve_series(gb, order)
        assert isinstance(_solve_outcome(reference_solve_series, gb, order), SolutionBasis) == (order in answered)


def test_solve_series_matches_reference_on_fixtures_and_golden_ideals():
    pool = [fixture_gb(name) for name in ("two_points", "double_point", "exp_pair", "nilpotent_y", "unit")]
    for gb in pool + golden_gbs():
        _assert_solve_matches_reference(gb, range(3, 13))


def test_solve_series_matches_reference_on_conjugated_ideals():
    rng = random.Random(1409)
    pool = [fixture_gb(name) for name in ("two_points", "double_point", "exp_pair", "nilpotent_y")]
    pool += [gb for gb in golden_gbs() if gb.nvars == 2]
    denominators = 0
    for gb in pool:
        for _ in range(2):
            conj = conjugate(gb, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
            act = quotient_action(conj)
            denominators += sum(not v.den.is_one() for t in range(gb.nvars + 1) for v in act.apply(t, act.unit()))
            _assert_solve_matches_reference(conj, range(3, 9))
    assert denominators > 0


def test_solve_series_matches_reference_on_gauge_outputs():
    (dx, dy), one = sym(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    y = OreOperator.from_coeff(RatFunc.var(1, 1))
    cases = [(gb, cyclic_vector(gb)) for gb in golden_gbs() if gb.dimension()]
    cases.append((fixture_gb("exp_pair"), (x + one) * dx + y * dy + one))
    cases.append((fixture_gb("two_points"), x * dx + one))
    denominators = 0
    for gb, m in cases:
        gauged = groebner_basis(gauge_transform(gb, m).generators(), gb.order)
        denominators += sum(not c.den.is_one() for g in gauged.gens for c in g.terms.values())
        _assert_solve_matches_reference(gauged, range(3, 9))
    assert denominators > 0


def test_katz_vector_gauges_where_no_swept_candidate_is_cyclic():
    # Dx acts as the identity on <Dx - 1, Dy^n - 1>, so sum p_j(x)*e_j is
    # cyclic only if p_0..p_(n-1) are independent over Q(y): nothing of
    # x-degree <= 2 qualifies from n = 4 on, and Katz's vector, of x-degree
    # n - 1, is what the search returns.  P' and Dy - Q' annihilate M(f).
    for n in (4, 5):
        nvars, ops = parse_ideal_file(f"Dx - 1\nDy^{n} - 1\n")
        gb = groebner_basis(ops, TermOrder.degrevlex(nvars))
        m = cyclic_vector(gb)
        assert max(c.degree() for c in m.terms.values()) == n - 1
        sb = gauge_transform(gb, m)
        assert sb.r == n
        for f in solve_series(gb, 2 * n + 4).members:
            g = m.apply(f)
            assert sb.P().apply(g).is_zero()
            assert OreOperator.D(1, 1).apply(g).agrees_with(sb.Q(1).apply(g))
        # The gauge output's common denominator vanishes at 0: the images
        # M(f) have no canonical basis there, though the reference walk
        # answers below order 3.
        _assert_refused(groebner_basis(sb.generators(), gb.order), range(1, 9), answered={1, 2})


def test_coordinate_with_no_value_at_origin_is_a_pole():
    # The annihilator of exp(x^2/(x + y)).  NF(Dy) = -x^2/(x + y)^2 has no
    # value at 0, though its numerator has no constant term either; read
    # numerator first, it would pass as 0 and the series as 1.  The common
    # denominator (x + y)^2 vanishes at 0, so it is refused at every order,
    # also at order 1, where the reference walk answers.
    text = "Dx - (x^2 + 2*x*y)/(x + y)^2\nDy + x^2/(x + y)^2\n"
    nvars, ops = parse_ideal_file(text)
    gb = groebner_basis(ops, TermOrder.degrevlex(nvars))
    assert gb.dimension() == 1
    with pytest.raises(NonOrdinaryOrigin, match=r"monomial \(0, 1\) has a pole"):
        reference_solve_series(gb, 3)
    _assert_refused(gb, range(1, 7), answered={1})


def test_order_must_be_positive():
    with pytest.raises(TruncationTooSmall):
        solve_series(fixture_gb("two_points"), order=0)


# ---------------------------------------------------------------------------
# Wronskians


def test_wronskian_of_two_point_basis_is_exp_3x():
    w = wronskian_x(fixture_gb("two_points"), order=9)
    assert w.order == 8
    for k in range(8):
        assert w.coefficient((k, 0)) == Fraction(3**k, factorial(k))


def test_wronskian_order_bookkeeping():
    sol = solve_series(fixture_gb("two_points"), order=6)
    assert wronskian_x(fixture_gb("two_points"), 6).order == 5
    assert reference_wronskian(sol.members).order == 5
    assert reference_wronskian(sol.members[:1]).order == 6


def test_wronskian_vanishes_for_x_dependent_family():
    # exp(x) and y exp(x) are proportional over the y-constants
    sol = solve_series(fixture_gb("nilpotent_y"), order=8)
    assert reference_wronskian(sol.members).is_zero()
    assert wronskian_x(fixture_gb("nilpotent_y"), 8) == TruncSeries(1, 7)


def test_wronskian_single_member_is_the_member():
    sol = solve_series(fixture_gb("two_points"), order=6)
    assert reference_wronskian(sol.members[:1]) == sol.members[0]


def test_wronskian_needs_enough_order():
    f = TruncSeries(1, 1, {(0, 0): Fraction(1)})
    with pytest.raises(TruncationTooSmall):
        reference_wronskian([f, f])
    with pytest.raises(ValueError):
        reference_wronskian([])


def _wronskian_outcome(wronskian, gb, order):
    """The Wronskian, or the type and message of the OreShapeError raised."""
    try:
        return wronskian(gb, order)
    except OreShapeError as exc:
        return type(exc), str(exc)


def _walked_wronskian(gb, order):
    """The Wronskian as taken before Liouville's formula: the solution basis
    walked, then its determinant expanded by cofactors."""
    return reference_wronskian(solve_series(gb, order).members)


def _assert_wronskian_matches_cofactors(gb, orders):
    for order in orders:
        got = _wronskian_outcome(wronskian_x, gb, order)
        assert got == _wronskian_outcome(_walked_wronskian, gb, order), order


def _swapped(gb):
    """The ideal with Dx and the last Dy exchanged, as --main-var takes it."""
    return groebner_basis([g.swap_roles(gb.nvars) for g in gb.gens], gb.order)


def _pivot_flips(gb):
    """Inversions of the pivot positions of the Krylov walk from the class of 1."""
    act = quotient_action(gb)
    pivots = [p for p, _, _ in _krylov_walk(act, act.unit())[1].rows]
    return sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])


def test_wronskian_matches_cofactors_on_fixtures_and_golden_ideals():
    pool = [fixture_gb(name) for name in ("two_points", "double_point", "exp_pair", "nilpotent_y")]
    pool += [gb for gb in golden_gbs() if gb.dimension()]
    zero = 0
    for gb in pool + [_swapped(gb) for gb in pool]:
        _assert_wronskian_matches_cofactors(gb, range(1, 11))
        zero += wronskian_x(gb, 10).is_zero()
    assert 0 < zero < 2 * len(pool)  # ideals in normal position and not
    # the empty family of the unit ideal has the empty determinant
    for gb in (fixture_gb("unit"), *(gb for gb in golden_gbs() if not gb.dimension())):
        assert wronskian_x(gb, 5) == TruncSeries.one(gb.nvars, 6)


def test_wronskian_matches_cofactors_on_rational_ideals():
    # conjugated and gauged ideals at nvars 1 and 2, over K with D(0) != 0
    for name, gb in _rational_ideals().items():
        assert not gb.over_q and _Expansion(quotient_action(gb), 1).d0, name
        for h in (gb, _swapped(gb)):
            _assert_wronskian_matches_cofactors(h, range(1, 9))


def test_wronskian_matches_cofactors_on_shape_form_ideals():
    # r = 2 to 4 under shears: pivot permutations of both signs, and factors
    # x^k*exp in W at a repeated root
    rng = random.Random(2707)
    odd = 0
    for k in range(16):
        nvars = 1 + k % 2
        gens, mults = shape_form_ideal(rng, nvars, [m for m in MULTIPLICITIES if len(m) <= 4 - nvars])
        gb = shear_ideal(groebner_basis(gens, TermOrder.degrevlex(nvars)), (Fraction(k % 3 - 1),) * nvars)
        for h in (gb, _swapped(gb)):
            odd += _pivot_flips(h) % 2 and in_normal_position(h)
            _assert_wronskian_matches_cofactors(h, range(1, 8 - nvars))
    assert odd


def test_wronskian_walks_no_member(monkeypatch):
    # Over Q and over K with D(0) != 0 only the Krylov walk steps, r times
    # from the class of 1, and no series product is formed; over K with
    # D(0) = 0 nothing steps and nothing is multiplied before the refusal.
    # Over K the walk's integer form (z_form) is never built.
    steps = _count_steps(monkeypatch)
    products, packed = [], []
    real, z_form = TruncSeries.__mul__, QuotientAction.z_form
    monkeypatch.setattr(TruncSeries, "__mul__", lambda f, g: products.append(1) or real(f, g))
    monkeypatch.setattr(QuotientAction, "z_form", lambda act, b: packed.append(b) or z_form(act, b))
    conj = conjugate(fixture_gb("two_points"), Fraction(2))
    for gb, field in ((fixture_gb("two_points"), "Q"), (conj, "K")):
        steps.update(Q=0, K=0, Z=0)
        assert not wronskian_x(gb, 12).is_zero()
        assert steps == {"Q": 0, "K": 0, "Z": 0, field: 2} and products == []
    steps.update(Q=0, K=0, Z=0)
    (dx, dy), one = sym(1)
    gb = groebner_basis([dx * dx - OreOperator.from_coeff(1 / RatFunc.var(1, 0)) * dx, dy], TermOrder.degrevlex(1))
    with pytest.raises(NonOrdinaryOrigin, match=ORIGIN):
        wronskian_x(gb, 2)
    assert steps == {"Q": 0, "K": 0, "Z": 0} and products == [] and packed == []


def test_krylov_walk_of_one_is_taken_once(monkeypatch):
    # check-normal --via series takes the algebraic test and then the
    # Wronskian, and eliminate_dx and shape_basis read the same walk of Dx
    # from the class of 1: r = 2 steps in all, not 2r, plus shape_basis's
    # one step of Dy for Q.
    steps = _count_steps(monkeypatch)
    conj = conjugate(fixture_gb("two_points"), Fraction(2))
    for gb, field in ((fixture_gb("two_points"), "Q"), (conj, "K")):
        steps.update(Q=0, K=0, Z=0)
        assert in_normal_position(gb) and in_normal_position_series(gb, 8)
        assert steps == {"Q": 0, "K": 0, "Z": 0, field: 2}
        assert eliminate_dx(gb).max_order() == 2 and shape_basis(gb).r == 2
        assert steps == {"Q": 0, "K": 0, "Z": 0, field: 3}


def test_wronskian_errors_are_kept():
    # The checks run in the order of the walk: the order, the walk's bound,
    # a non-ordinary origin, the unit ideal, then order - (r - 1) >= 1.
    first = (TruncationTooSmall, "series order must be at least 1")
    (dx, dy), one = sym(1)
    inv_x = OreOperator.from_coeff(1 / RatFunc.var(1, 0))
    pole = groebner_basis([dx * dx - inv_x * dx, dy], TermOrder.degrevlex(1))
    nvars, ops = parse_ideal_file("Dx - (x^2 + 2*x*y)/(x + y)^2\nDy + x^2/(x + y)^2\n")
    no_value = groebner_basis(ops, TermOrder.degrevlex(nvars))
    four = groebner_basis(parse_ideal_file("*".join(f"(Dx - {k})" for k in range(4)) + "\nDy - Dx^2 + 3*Dx\n")[1],
                          TermOrder.degrevlex(1))
    for gb in (fixture_gb("two_points"), fixture_gb("unit"), pole, no_value, four):
        assert _wronskian_outcome(wronskian_x, gb, 0) == first
        assert _wronskian_outcome(in_normal_position_series, gb, 0) == first
    for order in (1, 2, 3):
        assert _wronskian_outcome(wronskian_x, four, order) == (
            TruncationTooSmall, "need guaranteed order above 3 to differentiate 4 members")
    assert _wronskian_outcome(wronskian_x, fixture_gb("two_points"), 1) == (
        TruncationTooSmall, "need guaranteed order above 1 to differentiate 2 members")
    # a pole, also at order 1, where order - (r - 1) < 1 came first before,
    # and at order 2, where the walk over K never read it
    at_x = (NonOrdinaryOrigin, "the origin is not ordinary: the matrix of Dx has a pole at 0")
    for gb in (pole, no_value):
        assert [_wronskian_outcome(wronskian_x, gb, order) for order in range(1, 5)] == [at_x] * 4
    # the walk's bound before the origin
    assert _wronskian_outcome(wronskian_x, pole, 10**6)[0] is ResourceLimit
    for gb in (pole, no_value, four, fixture_gb("two_points")):
        _assert_wronskian_matches_cofactors(gb, range(0, 5))


def test_series_normal_position_matches_algebraic():
    pool = [fixture_gb(n) for n in ("two_points", "double_point", "exp_pair", "nilpotent_y", "unit")]
    pool.append(shear_ideal(fixture_gb("exp_pair"), (Fraction(1),)))
    pool.append(shear_ideal(fixture_gb("nilpotent_y"), (Fraction(2),)))
    for gb in pool:
        assert in_normal_position_series(gb) is in_normal_position(gb)


# ---------------------------------------------------------------------------
# dependence search


def test_no_dependence_for_semisimple_ideal():
    v = d_radical_check(fixture_gb("two_points"))
    assert v.tag == NO_DEPENDENCE
    assert v.witness is None


def test_dependence_at_double_point():
    # x * (1 - x) exp(x) + (x - 1) * x exp(x) = 0
    v = d_radical_check(fixture_gb("double_point"))
    assert v.tag == DEPENDENCE_FOUND
    x = MultiPoly.var(1, 0)
    one = MultiPoly.one(1)
    assert v.witness == (x, x - one)


def test_dependence_in_nilpotent_y_direction():
    # y * exp(x) - (y exp(x)) = 0: witness proportional to (y, -1)
    v = d_radical_check(fixture_gb("nilpotent_y"))
    assert v.tag == DEPENDENCE_FOUND
    p0, p1 = v.witness
    y = MultiPoly.var(1, 1)
    assert p0 * MultiPoly.const(1, -1) == p1 * y


def test_witness_sum_vanishes_against_deeper_expansion():
    for name in ("double_point", "nilpotent_y"):
        gb = fixture_gb(name)
        v = d_radical_check(gb)
        sol = solve_series(gb, order=14)
        for expo in monomials_below(1, 14):
            assert combo_coefficient(v.witness, sol.members, expo) == 0


def test_witness_normalization():
    x, y = MultiPoly.var(1, 0), MultiPoly.var(1, 1)
    one, zero = MultiPoly.one(1), MultiPoly.zero(1)
    norm = series._normalize_witness
    # denominators cleared by their lcm, 30, and no integer content left
    assert norm([x * Fraction(1, 2) - Fraction(1, 3), one * Fraction(2, 5)]) == (x * 15 - 10, one * 12)
    # content 2 divided out; the first nonzero polynomial's lead is made positive
    assert norm([zero, y * -4 + 6]) == (zero, y * 2 - 3)
    assert norm([y * Fraction(-3, 4), x * Fraction(9, 2)]) == (y, x * -6)
    # no all-zero input: every witness has a coefficient 1 from its kernel vector


def test_dependence_survives_shears():
    gb = fixture_gb("nilpotent_y")
    for c in (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)):
        sheared = shear_ideal(gb, (c,))
        v = d_radical_check(sheared)
        assert v.tag == DEPENDENCE_FOUND
        sol = solve_series(sheared, order=14)
        for expo in monomials_below(1, 10):
            assert combo_coefficient(v.witness, sol.members, expo) == 0


def test_no_dependence_for_unit_ideal():
    v = d_radical_check(fixture_gb("unit"))
    assert v.tag == NO_DEPENDENCE


def test_dependence_bounds_are_recorded():
    v = d_radical_check(fixture_gb("two_points"), degree_bound=2, order=9)
    assert v.degree_bound == 2 and v.order == 9


def test_dependence_requires_room_above_degree_bound():
    with pytest.raises(TruncationTooSmall):
        d_radical_check(fixture_gb("two_points"), degree_bound=3, order=3)


def test_dependence_found_on_span_of_kernel_basis():
    # Solutions e^(-x - y), x*e^(-x - y), 1 and e^(-2x), so x*f - g = 0 for
    # the first two.  At the default bounds no single kernel basis vector
    # survives the deeper expansion; a combination of them does.
    (dx, dy), one = sym(1)
    gens = [(dx + one) * (dx + one) * dx * (dx + 2 * one), dy - (dx * dx + 2 * dx)]
    gb = groebner_basis(gens, TermOrder.degrevlex(1))
    v = d_radical_check(gb)
    assert v.tag == DEPENDENCE_FOUND
    x = MultiPoly.var(1, 0)
    one_p = MultiPoly.one(1)
    assert v.witness == (x, -x, -x - one_p, x + one_p)
    sol = solve_series(gb, order=16)
    for expo in monomials_below(1, 16):
        assert combo_coefficient(v.witness, sol.members, expo) == 0


def test_dependence_verdict_matches_the_multiplicities():
    # Ground truth by construction (_helpers.shape_form_ideal): the solutions
    # are K-dependent exactly when P has a multiple root.  A shear keeps that
    # and may leave normal position; conjugation by x + c keeps it and moves
    # the walk from Q to K.  Over Q a false witness makes sum p_i*f_i a
    # nonzero exponential polynomial that vanishes through total degree
    # deep - 1, the re-check, with deep = max(order + 4, 4*r) at
    # degree_bound 3.  On a line through 0 where its exponents differ it has
    # at most 4*r coefficients (deg p_i <= 3), so by Polya's bound it
    # vanishes there to order at most 4*r - 1 < deep.  The sample reaches
    # r = 4, where the default order + 4 = 14 alone would not rule it out.
    # Over K the re-check stays at order + 4 and proves nothing; the sampled
    # conjugates pass there.  The check through total degree 15 below
    # confirms each witness found.
    rng = random.Random(104)
    for i in range(16):
        kind = ("plain", "shear", "conjugate")[i % 3]
        nvars = 1 if kind == "conjugate" else rng.choice((1, 2))
        gens, mults = shape_form_ideal(rng, nvars)
        gb = groebner_basis(gens, TermOrder.degrevlex(nvars))
        if kind == "shear":
            gb = shear_ideal(gb, tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(nvars)))
        elif kind == "conjugate":
            gb = conjugate(gb, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
        assert isinstance(quotient_action(gb).unit()[0], RatFunc) == (kind == "conjugate")
        v = d_radical_check(gb)
        assert (v.tag == DEPENDENCE_FOUND) == (max(mults) >= 2), (kind, mults, [str(g) for g in gens])
        if v.witness is not None:
            sol = reference_solve_series(gb, v.order + 6)
            for expo in monomials_below(nvars, v.order + 6):
                assert combo_coefficient(v.witness, sol.members, expo) == 0


def test_dependence_rows_are_the_coefficient_rows_scaled(monkeypatch):
    # Row beta of the dependence system is the row of member coefficients,
    # f_i[beta - alpha] at column (i, alpha), times s^|beta|*beta!, built in
    # integers from the walk: over Q with s the lcm of the A_t denominators
    # (s > 1 here), over K with s = D(0).  The coefficients come from the
    # reference walk over K.  The trace form is made to fail, so that the
    # search runs, and the stub's empty kernel stops it before the re-check.
    systems = []
    monkeypatch.setattr(series, "_radical", lambda act: False)
    monkeypatch.setattr(series, "_kernel_basis", lambda rows, ncols: systems.append(rows) or [])
    nvars, ops = parse_ideal_file("(Dx - 1/2)^2*(Dx + 2/3)\nDy - 1/5*Dx + 3/4\n")
    rational_roots = groebner_basis(ops, TermOrder.degrevlex(nvars))
    n2 = groebner_basis(double_point_ideal(random.Random(8), 2), TermOrder.degrevlex(2))
    ideals = [rational_roots, shear_ideal(n2, (Fraction(-1, 2),) * 2),
              conjugate(fixture_gb("double_point"), Fraction(2))]
    for gb in ideals:
        nvars, r = gb.nvars, gb.dimension()
        s = _Expansion(quotient_action(gb), 1).s
        assert s > 1
        for degree_bound, order in ((1, 5), (2, 7)):
            assert d_radical_check(gb, degree_bound, order).tag == NO_DEPENDENCE
            rows = systems.pop()
            members = reference_solve_series(gb, order).members
            betas = list(_graded_monomials(nvars + 1, order - degree_bound))
            cols = [(i, a) for i in range(r) for a in _graded_monomials(nvars + 1, degree_bound + 1)]
            assert len(rows) == len(betas)
            for beta, row in zip(betas, rows):
                scale = s ** sum(beta)
                for b in beta:
                    scale *= factorial(b)
                rests = [tuple(b - a for b, a in zip(beta, alpha)) for _, alpha in cols]
                assert row == [members[i].coefficient(rest) * scale if min(rest) >= 0 else 0
                               for (i, _), rest in zip(cols, rests)]
                assert all(type(c) is int for c in row)


def test_no_dependence_among_four_exponentials(monkeypatch):
    # The solutions 1, e^x, e^(2x), e^(3x) are K-independent, but at the
    # default bounds 16 polynomial coefficients of degree <= 3 in x leave a
    # sum that vanishes through total degree 13 (Hermite-Pade), so a
    # re-check at order 14 would pass it.  The trace form decides the ideal
    # before any walk; made to fail, it leaves the search, whose re-check at
    # 4*r = 16 rejects that sum.
    (dx, dy), one = sym(1)
    gb = groebner_basis([dx * (dx - one) * (dx - 2 * one) * (dx - 3 * one), dy], TermOrder.degrevlex(1))
    assert d_radical_check(gb).tag == NO_DEPENDENCE
    monkeypatch.setattr(series, "_radical", lambda act: False)
    assert d_radical_check(gb).tag == NO_DEPENDENCE


def test_witness_at_a_double_root_among_six():
    # Roots 0, 1, 2, 3 and a double 5: the one true dependence pairs
    # x*e^(5x) with e^(5x).  The re-check at 6*(3 + 1) = 24 keeps exactly
    # this witness; at order + 4 = 14 a false one of degree 3 would pass.
    nvars, ops = parse_ideal_file("Dx*(Dx - 1)*(Dx - 2)*(Dx - 3)*(Dx - 5)^2\nDy\n")
    v = d_radical_check(groebner_basis(ops, TermOrder.degrevlex(nvars)))
    assert v.tag == DEPENDENCE_FOUND
    assert [str(p) for p in v.witness] == ["x", "5*x - 1", "25*x - 10", "125*x - 75", "625*x - 500", "3125*x - 3125"]


def test_trace_form_matches_the_multiplicities():
    # Ground truth by construction (_helpers.shape_form_ideal): J is radical
    # exactly when every root of P is simple, and a shear keeps that.  The
    # trace form is nondegenerate exactly then, at nvars 1 and 2, under the
    # shears by 0, 1 and -2.
    rng = random.Random(3013)
    seen = set()
    for i in range(48):
        nvars, c = 1 + i % 2, (0, 1, -2)[i // 2 % 3]
        gens, mults = shape_form_ideal(rng, nvars)
        gb = shear_ideal(groebner_basis(gens, TermOrder.degrevlex(nvars)), (Fraction(c),) * nvars)
        assert gb.over_q
        radical = max(mults) == 1
        assert series._radical(quotient_action(gb)) == radical, (mults, c, [str(g) for g in gens])
        seen.add((nvars, c, radical))
    assert len(seen) == 12


def test_radical_quotient_walks_no_series(monkeypatch):
    # A radical quotient over Q answers from its trace form: the only steps
    # are the trace form's r*(r - 1) products, one kernel is solved, the r x r
    # form, and no series monomial is walked.  Sixteen exponentials, whose
    # deeper re-check would pass the work bound, answer within a second.
    steps = _count_steps(monkeypatch)
    walks, kernels = [], []
    solution, kernel_basis = _Expansion.solution, series._kernel_basis
    monkeypatch.setattr(_Expansion, "solution", lambda self, order: walks.append(order) or solution(self, order))
    monkeypatch.setattr(series, "_kernel_basis", lambda rows, ncols: kernels.append(ncols) or kernel_basis(rows, ncols))
    sixteen = parse_ideal_file("*".join(f"(Dx - {k})" for k in range(16)) + "\nDy - Dx^2 + 3*Dx\n")[1]
    n2 = groebner_basis(two_point_ideal(random.Random(5), 2), TermOrder.degrevlex(2))
    for gb in (fixture_gb("two_points"), fixture_gb("exp_pair"), n2, groebner_basis(sixteen, TermOrder.degrevlex(1))):
        r = gb.dimension()
        steps.update(Q=0, K=0, Z=0)
        kernels.clear()
        start = time.perf_counter()
        assert d_radical_check(gb).tag == NO_DEPENDENCE
        assert time.perf_counter() - start < 1
        assert steps == {"Q": r * (r - 1), "K": 0, "Z": 0} and kernels == [r] and walks == []


def test_resumed_expansion_matches_fresh_one():
    # the last ideal has rational action matrices, so it resumes the walk over Z
    gbs = [fixture_gb(name) for name in ("two_points", "double_point", "nilpotent_y")]
    gbs.append(conjugate(fixture_gb("double_point"), Fraction(2)))
    for gb in gbs:
        expansion = _Expansion(quotient_action(gb), 11)
        for order in (3, 7, 5, 11):
            assert expansion.solution(order) == solve_series(gb, order) == reference_solve_series(gb, order)
    assert all(isinstance(a, RatFunc) for a in expansion.act.unit()) and expansion.d0


def test_constant_action_matrices_take_the_walk_over_q():
    # A disguised ideal has rational generators but the constant reduced
    # basis of its two points, so its A_t are constant; a conjugated ideal's
    # are not.  Both walks agree with the walk over K of the reference.
    rng = random.Random(2006)
    for nvars in (1, 2):
        plain = two_point_ideal(rng, nvars)
        gens = disguise(rng, plain, rat_coeffs=True)
        assert not all(c.is_constant() for g in gens for c in g.terms.values())
        disguised = groebner_basis(gens, TermOrder.degrevlex(nvars))
        assert all(c.is_constant() for g in disguised.gens for c in g.terms.values())
        conjugated = conjugate(groebner_basis(plain, TermOrder.degrevlex(nvars)), Fraction(3, 2))
        for gb, over_q in ((disguised, True), (conjugated, False)):
            assert all(type(a) is Fraction for a in quotient_action(gb).unit()) == over_q
            _assert_solve_matches_reference(gb, range(1, 9))


def _rational_ideals():
    """Conjugated and gauged ideals at nvars 1 and 2, each with a rational
    A_t and D(0) != 0 (see series), named for the assertion messages."""
    (dx, dy), one = sym(1)
    x, y = (OreOperator.from_coeff(RatFunc.var(1, i)) for i in (0, 1))
    n2 = groebner_basis(two_point_ideal(random.Random(5), 2), TermOrder.degrevlex(2))
    x2 = OreOperator.from_coeff(RatFunc.var(2, 0) + RatFunc.one(2))
    gauged = [(fixture_gb("two_points"), x * dx + one), (fixture_gb("exp_pair"), (x + one) * dx + y * dy + one),
              (n2, 2 * x2)]
    ideals = {f"conjugated {name}": conjugate(fixture_gb(name), c)
              for name, c in (("double_point", Fraction(2)), ("exp_pair", Fraction(-1, 2)), ("nilpotent_y", Fraction(3)))}
    ideals["conjugated n2"] = conjugate(n2, Fraction(-3, 2))
    for k, (gb, m) in enumerate(gauged):
        ideals[f"gauged {k}"] = groebner_basis(gauge_transform(gb, m).generators(), gb.order)
    return ideals


def _cut(sol, order):
    """The solution basis sol cut to a lower order."""
    members = tuple(TruncSeries(sol.nvars, order, f.coeffs) for f in sol.members)
    return SolutionBasis(sol.nvars, sol.r, order, sol.initial_monomials, members)


def test_walk_over_z_matches_the_walk_over_k(monkeypatch):
    # Every step of these walks is over Z, fresh and resumed, at every order
    # from 1 to 12; the reference walks over K once, to order 12, and is cut.
    steps = _count_steps(monkeypatch)
    nvars = set()
    for name, gb in _rational_ideals().items():
        ref = reference_solve_series(gb, 12)
        steps.update(Q=0, K=0, Z=0)
        for order in range(1, 13):
            assert solve_series(gb, order) == _cut(ref, order), (name, order)
        expansion = _Expansion(quotient_action(gb), 11)
        for order in (3, 7, 5, 11):
            assert expansion.solution(order) == _cut(ref, order), (name, order)
        assert steps["Q"] == steps["K"] == 0 < steps["Z"], name
        nvars.add(gb.nvars)
    assert nvars == {1, 2}


def test_walk_over_q_matches_the_walk_over_k(monkeypatch):
    # Every step of these walks over Q is the integer step B_t*w, fresh and
    # resumed, at every order from 1 to 12: none steps a Fraction vector.
    # The reference walks over K once, to order 12, and is cut.  Shears by
    # non-integers and rational roots put denominators into the A_t, so
    # some walks run with s > 1 and read each coefficient over s^|m|*m!.
    steps = _count_steps(monkeypatch)
    monkeypatch.setattr(QuotientAction, "apply", lambda *args: pytest.fail("a step over Fractions"))
    rng = random.Random(3101)
    n2 = groebner_basis(two_point_ideal(rng, 2), TermOrder.degrevlex(2))
    ideals = {name: fixture_gb(name) for name in ("two_points", "double_point", "exp_pair", "nilpotent_y")}
    ideals["n2 sheared by 1/2"] = shear_ideal(n2, (Fraction(1, 2),) * 2)
    ideals["double point n2"] = groebner_basis(double_point_ideal(rng, 2), TermOrder.degrevlex(2))
    nvars, ops = parse_ideal_file("(Dx - 1/2)*(Dx + 2/3)^2\nDy - 1/5*Dx^2 + 3/4\n")
    ideals["rational roots"] = shear_ideal(groebner_basis(ops, TermOrder.degrevlex(nvars)), (Fraction(-2, 3),))
    scales = set()
    for name, gb in ideals.items():
        ref = reference_solve_series(gb, 12)
        steps.update(Q=0, K=0, Z=0)
        for order in range(1, 13):
            assert solve_series(gb, order) == _cut(ref, order), (name, order)
        expansion = _Expansion(quotient_action(gb), 11)
        for order in (3, 7, 5, 11):
            assert expansion.solution(order) == _cut(ref, order), (name, order)
        walked = sum(comb(order + gb.nvars, gb.nvars + 1) - 1 for order in (*range(1, 13), 11))
        assert gb.over_q and steps == {"Q": walked, "K": 0, "Z": 0}, name
        scales.add((gb.nvars, expansion.s > 1))
    assert scales == {(1, False), (1, True), (2, False), (2, True)}


def test_walk_over_z_computes_no_gcd(monkeypatch):
    # The action and its integer form take their gcds once, when built;
    # the walk takes none, so a walk to order 30 takes as many as one to 6.
    (dx, dy), one = sym(1)
    mult = OreOperator.from_coeff(RatFunc.var(1, 0)) * dx + one
    counts = []
    for order in (6, 30):
        gb = groebner_basis(gauge_transform(fixture_gb("two_points"), mult).generators(), TermOrder.degrevlex(1))
        calls = []
        with monkeypatch.context() as patch:
            gcd = arith.poly_gcd
            patch.setattr(arith, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
            solve_series(gb, order)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_pole_the_walk_never_reaches_is_refused():
    # Dx^2 - Dx/x has its pole only in the column of the standard monomial
    # Dx, which the walk first multiplies at degree |Dx| + 1 = 2: the walk
    # over K reads no pole below order 3 and answers 1 and x at order 2.
    # But every solution is a + b*x^2, so no solution is x + O(2): the
    # origin is refused at every order, before any step.
    (dx, dy), one = sym(1)
    inv_x = OreOperator.from_coeff(1 / RatFunc.var(1, 0))
    gb = groebner_basis([dx * dx - inv_x * dx, dy], TermOrder.degrevlex(1))
    assert quotient_action(gb).rows[0] == [[], [(0, RatFunc.one(1)), (1, 1 / RatFunc.var(1, 0))]]
    assert [str(f) for f in reference_solve_series(gb, 2).members] == ["1", "x"]
    with pytest.raises(NonOrdinaryOrigin, match=r"monomial \(2, 0\) has a pole"):
        reference_solve_series(gb, 3)
    _assert_refused(gb, range(1, 7), answered={1, 2})


def test_deeper_recheck_is_bounded(monkeypatch):
    # Five solutions, the root 3 doubled, so the trace form is degenerate and
    # the search runs: at the default bounds the 28 x 50 system has rank 28,
    # so 22 kernel vectors, each re-checked on the 210 monomials below
    # deep = 5*(3 + 1) = 20.  The bound admits 22 x 210 x 22 units of work
    # and refuses one unit more, before the deeper walk.
    nvars, ops = parse_ideal_file("Dx*(Dx - 1)*(Dx - 2)*(Dx - 3)^2\nDy - Dx^2 + 3*Dx\n")
    gb = groebner_basis(ops, TermOrder.degrevlex(nvars))
    work = 22 * 210 * 22
    monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", work)
    assert d_radical_check(gb).tag == DEPENDENCE_FOUND
    monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", work - 1)
    steps = _count_steps(monkeypatch)
    with pytest.raises(ResourceLimit, match=rf"^deeper re-check of 22 x 210 needs {work} units of work, more than {work - 1}$"):
        d_radical_check(gb)
    # the walk to order 10, after the trace form's r*(r - 1) = 20 steps
    assert steps == {"Q": len(list(_graded_monomials(2, 10))) - 1 + 20, "K": 0, "Z": 0}


def _count_steps(monkeypatch):
    """Record each step of the quotient action by the ring of its vector:
    A_t·v over Q (the trace form's Fraction columns, and the walk's integer
    numerators B_t·w), D_t·v over K, and the numerator of D_t·v over Z[x, y]."""
    steps = {"Q": 0, "K": 0, "Z": 0}
    apply, apply_q, apply_z = QuotientAction.apply, QuotientAction.apply_q, QuotientAction.apply_z

    def counting(self, t, v):
        steps["K" if isinstance(v[0], RatFunc) else "Q"] += 1
        return apply(self, t, v)

    def counting_q(self, *args):
        steps["Q"] += 1
        return apply_q(self, *args)

    def counting_z(self, *args):
        steps["Z"] += 1
        return apply_z(self, *args)

    monkeypatch.setattr(QuotientAction, "apply", counting)
    monkeypatch.setattr(QuotientAction, "apply_q", counting_q)
    monkeypatch.setattr(QuotientAction, "apply_z", counting_z)
    return steps


def test_dependence_check_expands_each_monomial_once(monkeypatch):
    steps = _count_steps(monkeypatch)
    # one derivative step per monomial of total degree 1..order + 3, over Q
    # after the r*(r - 1) = 2 steps of the trace form
    deep = len(list(_graded_monomials(2, 14))) - 1
    assert d_radical_check(fixture_gb("double_point"), order=10).tag == DEPENDENCE_FOUND
    assert steps == {"Q": deep + 2, "K": 0, "Z": 0}
    # over K, walked over Z: the conjugated double point keeps its dependence
    steps.update(Q=0, K=0, Z=0)
    assert d_radical_check(conjugate(fixture_gb("double_point"), Fraction(2)), order=10).tag == DEPENDENCE_FOUND
    assert steps == {"Q": 0, "K": 0, "Z": deep}
    # no kernel, as the members are independent over Q: the deeper
    # expansion never runs
    steps.update(Q=0, K=0, Z=0)
    assert d_radical_check(fixture_gb("double_point"), degree_bound=0, order=10).tag == NO_DEPENDENCE
    assert steps == {"Q": len(list(_graded_monomials(2, 10))) - 1 + 2, "K": 0, "Z": 0}


def test_dependence_system_is_bounded(monkeypatch):
    # The system's size is known before the walk: one row per monomial below
    # total degree order - degree_bound, r columns per monomial of degree
    # <= degree_bound, in nvars + 1 variables.  Its work is rows x columns x
    # min(rows, columns).  The bound admits a system of exactly
    # MAX_DEPENDENCE_WORK and refuses one unit more, before any step of the
    # walk, over Q and over K; the unit ideal has no system.  The quotients
    # over Q are not radical, so the search runs past the trace form, whose
    # r*(r - 1) steps come first.  The largest systems of the golden corpus
    # and the benchmark are 84 x 40.
    assert 84 * 40 * 40 <= series.MAX_DEPENDENCE_WORK
    # The stub solves the square trace forms and gives the dependence
    # systems, none of them square here, an empty kernel: no re-check runs.
    systems = []
    kernel_basis = series._kernel_basis
    monkeypatch.setattr(series, "_kernel_basis", lambda rows, ncols: systems.append((len(rows), ncols))
                        or (kernel_basis(rows, ncols) if len(rows) == ncols else []))
    steps = _count_steps(monkeypatch)
    n2 = groebner_basis(double_point_ideal(random.Random(5), 2), TermOrder.degrevlex(2))
    cases = [(fixture_gb("double_point"), 3, 10), (conjugate(fixture_gb("two_points"), Fraction(2)), 2, 9),
             (n2, 2, 7), (fixture_gb("double_point"), 3, 6)]
    for gb, degree_bound, order in cases:
        nvars, r = gb.nvars, gb.dimension()
        size = (comb(order - degree_bound + nvars, nvars + 1), r * comb(degree_bound + nvars + 1, nvars + 1))
        work = size[0] * size[1] * min(size)
        monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", work)
        d_radical_check(gb, degree_bound, order)
        assert systems.pop() == size
        monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", work - 1)
        steps.update(Q=0, K=0, Z=0)
        with pytest.raises(ResourceLimit, match=rf"dependence system of {size[0]} x {size[1]} needs {work} units"):
            d_radical_check(gb, degree_bound, order)
        assert steps == {"Q": r * (r - 1) if gb.over_q else 0, "K": 0, "Z": 0}
    monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", 0)
    assert d_radical_check(fixture_gb("unit")).tag == NO_DEPENDENCE
    # The trace form of r = 2 costs r^3 = 8 units, past a system of 1 x 2 at
    # degree_bound 0 and order 1; one unit less refuses it before any step,
    # radical or not, since it runs before the walk and the system.
    monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", 8)
    assert d_radical_check(fixture_gb("two_points"), 0, 1).tag == NO_DEPENDENCE
    monkeypatch.setattr(series, "MAX_DEPENDENCE_WORK", 7)
    for name in ("two_points", "double_point"):
        steps.update(Q=0, K=0, Z=0)
        with pytest.raises(ResourceLimit, match=r"^trace form of 2 x 2 needs 8 units of work, more than 7$"):
            d_radical_check(fixture_gb(name), 0, 1)
        assert steps == {"Q": 0, "K": 0, "Z": 0}


def test_series_walk_is_bounded(monkeypatch):
    # the bound admits exactly the largest orders the README states
    for nvars, top in ((1, 446), (2, 83), (3, 37)):
        assert comb(top + nvars, nvars + 1) <= series.MAX_SERIES_MONOMIALS < comb(top + 1 + nvars, nvars + 1)
    # the unit ideal has nothing to walk, at any order
    assert solve_series(fixture_gb("unit"), 10**6).r == 0
    # 55 monomials have total degree below 10 in (x, y)
    monkeypatch.setattr(series, "MAX_SERIES_MONOMIALS", 55)
    steps = _count_steps(monkeypatch)
    assert solve_series(fixture_gb("two_points"), 10).order == 10
    steps.update(Q=0, K=0, Z=0)
    for gb in (fixture_gb("two_points"), conjugate(fixture_gb("two_points"), Fraction(2))):
        with pytest.raises(ResourceLimit, match="series order 11 needs more than 55 monomials in 2 variables"):
            solve_series(gb, 11)
    assert steps == {"Q": 0, "K": 0, "Z": 0}
    # check-dradical is refused before its first walk to order 10, since its
    # deeper re-check would walk to order 14; over Q only the trace form's
    # r*(r - 1) = 2 steps come first.  The unit ideal is not refused, and
    # neither is a radical quotient over Q, which the trace form decides.
    for gb in (fixture_gb("double_point"), conjugate(fixture_gb("double_point"), Fraction(2))):
        with pytest.raises(ResourceLimit, match="series order 14 needs more than 55 monomials"):
            d_radical_check(gb, order=10)
    assert steps == {"Q": 2, "K": 0, "Z": 0}
    assert d_radical_check(fixture_gb("two_points"), order=10).tag == NO_DEPENDENCE
    assert d_radical_check(fixture_gb("unit"), order=10**6).tag == NO_DEPENDENCE
