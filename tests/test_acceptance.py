"""Acceptance checks.

Nine end-to-end criteria, each printing one PASS/FAIL line.  Run directly

    python3 tests/test_acceptance.py

for the nine-line report, or through pytest, where each criterion is one
test.  The corpus used by the corpus-wide criteria mixes fixed ideals with
known closed-form solutions, role-swapped and sheared variants, a
rational-coefficient ideal, seeded random annihilators of exponential
pairs, and a three-derivative system.
"""

import random
import sys
from fractions import Fraction
from math import factorial

from oreshape.arith import MultiPoly, RatFunc
from oreshape.errors import NotNormalPosition
from oreshape.gb import TermOrder, groebner_basis, left_reduce, _spoly
from oreshape.ore import OreOperator
from oreshape.series import (
    DEPENDENCE_FOUND,
    NO_DEPENDENCE,
    d_radical_check,
    in_normal_position_series,
    solve_series,
    wronskian_x,
)
from oreshape.shape import (
    eliminate_dx,
    gauge_transform,
    in_normal_position,
    normalize_by_shear,
    shape_basis,
    shear_ideal,
)

from _helpers import rand_operator


def sym(nvars=1):
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    return ds, OreOperator.one(nvars)


def _gb(gens, nvars=1):
    return groebner_basis(gens, TermOrder.degrevlex(nvars))


def two_points():
    (dx, dy), one = sym()
    return _gb([(dx - one) * (dx - 2 * one), dy])


def double_point():
    (dx, dy), one = sym()
    return _gb([(dx - one) * (dx - one), dy])


def exp_pair():
    (dx, dy), one = sym()
    return _gb([dx - one, dy * dy - dy])


def nilpotent_y():
    (dx, dy), one = sym()
    return _gb([dx - one, dy * dy])


def two_exp_ideal(rng):
    """Annihilator of exp(a1 x + b1 y), exp(a2 x + b2 y) with a1 != a2,
    sheared by a random integer c.  Constructed from scratch each time."""
    (dx, dy), one = sym()
    a1 = rng.randint(-3, 3)
    a2 = a1 + rng.randint(1, 3)
    b1, b2 = rng.randint(-3, 3), rng.randint(-3, 3)
    s = Fraction(b2 - b1, a2 - a1)
    gens = [(dx - a1 * one) * (dx - a2 * one), dy - (s * (dx - a1 * one) + b1 * one)]
    c = Fraction(rng.randint(-2, 2))
    return shear_ideal(_gb(gens), (c,))


def build_corpus():
    (dx, dy), one = sym()
    xp1 = OreOperator.from_coeff(RatFunc.var(1, 0) + RatFunc.one(1))
    corpus = [
        ("two_points", two_points()),
        ("double_point", double_point()),
        ("exp_pair", exp_pair()),
        ("nilpotent_y", nilpotent_y()),
        ("two_points_swapped", _gb([g.swap_roles(1) for g in two_points().gens])),
        ("axes", _gb([dx, dy])),
        ("unit", _gb([dx - one, dx - 2 * one])),
        ("exp_pair_sheared", shear_ideal(exp_pair(), (Fraction(1),))),
        ("nilpotent_y_sheared", shear_ideal(nilpotent_y(), (Fraction(-2),))),
        ("rational_coeff", _gb([xp1 * dx - one, dy])),
    ]
    rng = random.Random(20260819)
    for k in range(4):
        corpus.append((f"two_exp_{k}", two_exp_ideal(rng)))
    ds2, one2 = sym(2)
    corpus.append(("three_derivs", _gb([ds2[0] - one2, ds2[1] - one2, ds2[2] - 2 * one2], nvars=2)))
    return corpus


# ---------------------------------------------------------------------------
# criteria


def criterion_1():
    (dx, dy), one = sym()
    gb = two_points()
    assert gb.dimension() == 2, "quotient dimension"
    expect = dx * dx - 3 * dx + 2 * one
    for method in ("krylov", "elim-order"):
        p = eliminate_dx(gb, method=method)
        assert p == expect, f"eliminant via {method}: {p}"
    assert in_normal_position(gb) is True, "normal position along Dx"
    swapped = _gb([g.swap_roles(1) for g in gb.gens])
    assert in_normal_position(swapped) is False, "normal position along Dy"


def criterion_2():
    w = wronskian_x(two_points(), order=9)
    assert w.order == 8, f"wronskian order {w.order}"
    lam = w.coefficient((0, 0))
    assert lam == 1, f"leading multiple {lam}"
    for k in range(8):
        want = lam * Fraction(3**k, factorial(k))
        got = w.coefficient((k, 0))
        assert got == want, f"x^{k} coefficient {got} != {want}"
    for expo, c in w.coeffs.items():
        assert expo[1] == 0 or c == 0, f"unexpected y-dependence at {expo}"


def criterion_3():
    assert d_radical_check(double_point()).tag == DEPENDENCE_FOUND, "double point"
    assert d_radical_check(two_points()).tag == NO_DEPENDENCE, "semisimple point pair"
    v = d_radical_check(nilpotent_y())
    assert v.tag == DEPENDENCE_FOUND, "nilpotent y direction"
    p0, p1 = v.witness
    y = MultiPoly.var(1, 1)
    assert p0 * MultiPoly.const(1, -1) == p1 * y, f"witness ({p0}, {p1}) not prop. to (y, -1)"
    for c in (-2, -1, 1, 2):
        sheared = shear_ideal(nilpotent_y(), (Fraction(c),))
        assert d_radical_check(sheared).tag == DEPENDENCE_FOUND, f"shear by {c}"


def criterion_4():
    (dx, dy), one = sym()
    gb = exp_pair()
    assert in_normal_position(gb) is False, "unsheared"
    for c in (1, -1, 2, -2):
        assert in_normal_position(shear_ideal(gb, (Fraction(c),))), f"shear by {c}"
    params, sheared = normalize_by_shear(gb)
    assert in_normal_position(sheared), "normalize_by_shear output"
    assert sheared.gens == shear_ideal(gb, params).gens, "reported shear"
    sb = shape_basis(shear_ideal(gb, (Fraction(1),)))
    assert sb.P() == dx * dx - 3 * dx + 2 * one, f"P = {sb.P()}"
    assert sb.Q(1) == dx - one, f"Q1 = {sb.Q(1)}"
    assert sb.generators() == [dy - (dx - one), dx * dx - 3 * dx + 2 * one]
    regen = groebner_basis(sb.generators(), sheared.order)
    assert regen.gens == shear_ideal(gb, (Fraction(1),)).gens, "shape generators present the ideal"


def criterion_5():
    corpus = build_corpus()
    assert len(corpus) >= 10, f"corpus size {len(corpus)}"
    for name, gb in corpus:
        algebraic = in_normal_position(gb)
        series = in_normal_position_series(gb, order=9)
        try:
            shape_basis(gb)
            shaped = True
        except NotNormalPosition:
            shaped = False
        assert algebraic == series == shaped, (
            f"{name}: algebraic={algebraic} series={series} shape={shaped}"
        )


def criterion_6():
    for name, gb in build_corpus():
        pk = eliminate_dx(gb, method="krylov")
        pe = eliminate_dx(gb, method="elim-order")
        assert pk == pe, f"{name}: {pk} != {pe}"


def criterion_7():
    rng = random.Random(2026)
    for nvars in (1, 2):
        ds, one = sym(nvars)
        for t, d in enumerate(ds):
            for v in range(nvars + 1):
                var = OreOperator.from_coeff(RatFunc.var(nvars, v))
                commutator = d * var - var * d
                want = one if v == t else OreOperator.zero(nvars)
                assert commutator == want, f"[D_{t}, var_{v}]"
    # alternate rational and polynomial coefficients across the samples;
    # low orders keep iterated-derivative denominators from blowing up
    for i in range(100):
        nvars = 1 if i % 2 else 2
        rat = i % 4 < 2
        a = rand_operator(rng, nvars, max_terms=2, max_ord=2, rat_coeffs=rat)
        b = rand_operator(rng, nvars, max_terms=2, max_ord=1, rat_coeffs=rat)
        c = rand_operator(rng, nvars, max_terms=2, max_ord=1, rat_coeffs=not rat)
        assert (a * b) * c == a * (b * c), f"associativity sample {i}"
    for i in range(100):
        nvars = 1 if i % 2 else 2
        rat = i % 4 < 2
        cvec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nvars))
        a = rand_operator(rng, nvars, max_terms=2, max_ord=2, rat_coeffs=rat)
        b = rand_operator(rng, nvars, max_terms=2, max_ord=1, rat_coeffs=not rat)
        back = tuple(-ci for ci in cvec)
        assert (a * b).shear(back) == a.shear(back) * b.shear(back), f"shear homomorphism sample {i}"
        assert a.shear(back).shear(cvec) == a, f"shear round trip {i}"
    for name, gb in build_corpus():
        gens = gb.gens
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = _spoly(gens[i], gens[j], gb.order)
                assert gb.reduce(s).is_zero(), f"{name}: S({i},{j}) does not reduce to zero"


def criterion_8():
    for name, gb in build_corpus():
        r = gb.dimension()
        sol = solve_series(gb, order=7)
        assert sol.r == r and len(sol.members) == r, f"{name}: member count"
        for k, f in enumerate(sol.members):
            for j, m in enumerate(sol.initial_monomials):
                fact = 1
                for e in m:
                    fact *= factorial(e)
                want = Fraction(int(j == k), fact)
                assert f.coefficient(m) == want, f"{name}: initial data of member {k}"
        for g in gb.gens:
            for f in sol.members:
                assert g.apply(f).is_zero(), f"{name}: generator {g} does not annihilate"


def criterion_9():
    (dx, dy), one = sym()
    xp = MultiPoly.var(1, 0)
    onep = MultiPoly.one(1)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    gb = exp_pair()
    m = x + dy
    sb = gauge_transform(gb, m)
    assert sb.P() == dx * dx - 2 * dx + one, f"P' = {sb.P()}"
    want_q = (RatFunc((xp + onep) * (xp + onep)), RatFunc(-(xp * (xp + onep))))
    assert sb.q_coeffs[0] == want_q, f"Q' coefficients {sb.q_coeffs[0]}"
    sol = solve_series(gb, order=9)
    for f in sol.members:
        g = m.apply(f)
        for gen in sb.generators():
            assert gen.apply(g).is_zero(), "gauge output must annihilate the image"


CRITERIA = (
    (1, "elimination and normal position on the two-point ideal", criterion_1),
    (2, "Wronskian of the two-point solution basis is exp(3x)", criterion_2),
    (3, "dependence-search verdicts, witness, and shear invariance", criterion_3),
    (4, "shear normalization of the exponential pair and its shape basis", criterion_4),
    (5, "algebraic, shape, and series normal-position tests agree on the corpus", criterion_5),
    (6, "Krylov and elimination-order eliminants agree on the corpus", criterion_6),
    (7, "commutation, associativity, shear homomorphism, and confluence", criterion_7),
    (8, "series solving yields an independent annihilated basis of size r", criterion_8),
    (9, "gauge transform by x + Dy: exact shape and transformed solutions", criterion_9),
)


def _report(k, title, fn):
    try:
        fn()
    except AssertionError as exc:
        print(f"FAIL criterion {k}: {title} -- {exc}")
        return False, f"criterion {k}: {exc}"
    print(f"PASS criterion {k}: {title}")
    return True, ""


def _make_test(k, title, fn):
    def test():
        ok, msg = _report(k, title, fn)
        assert ok, msg

    test.__name__ = f"test_criterion_{k}"
    test.__doc__ = title
    return test


for _k, _title, _fn in CRITERIA:
    globals()[f"test_criterion_{_k}"] = _make_test(_k, _title, _fn)


def main():
    results = [_report(k, title, fn)[0] for k, title, fn in CRITERIA]
    print(f"{sum(results)}/{len(results)} criteria passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
