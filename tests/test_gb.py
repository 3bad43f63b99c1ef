"""Left reduction and Groebner bases.

The reduction oracle: a full reduction of f by {g} amounts to writing
f = q*g + r with an operator quotient q, so r is re-checked by reconstructing
q*g + r through the (independently tested) product.  GB postconditions
(S-pairs to zero, membership of inputs, normal-form linearity) are the
standard confluence characterizations and double as the correctness oracle
for the completion.  Pair skipping is checked against plain Buchberger
(reference_groebner_basis), whose reduced basis must be the same.
"""

import random
from pathlib import Path

import pytest

from oreshape import gb
from oreshape.arith import RatFunc
from oreshape.errors import DegreeCapExceeded, NotZeroDimensional
from oreshape.gb import GroebnerBasis, TermOrder, groebner_basis, left_reduce, _spoly
from oreshape.ore import OreOperator
from oreshape.parsing import parse_ideal_file
from oreshape.shape import shape_basis

from _helpers import (
    disguised_two_point_ideal,
    rand_operator,
    rand_ratfunc,
    reference_groebner_basis,
    reference_left_reduce,
    reference_order_key,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
KINDS = ("degrevlex", "lex", "elim")


def sym(nvars):
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    vs = [OreOperator.from_coeff(RatFunc.var(nvars, i)) for i in range(nvars + 1)]
    return ds, vs, OreOperator.one(nvars)


def fixture_ideals():
    """The nvars = 1 generator lists that the completion tests here use."""
    (dx, dy), (x, y), one = sym(1)
    return [
        [(dx - one) * (dx - 2 * one), dy],
        [(dx - one) * (dx - one), dy],
        [dx - dy - one, dy * dy - dy],
        [dx * dx - y * dy, dy * dy - one, x * dx - dy],
        [dx - one, dy * dy],
        [dx - one, x * dx - one],
        [dx - one, one],
        [dx, x * dx],
        [dx * dy],
    ]


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------


def test_degrevlex_priorities():
    o = TermOrder.degrevlex(1)
    # Dx > Dy at equal degree; degree dominates
    assert o.key((1, 0)) > o.key((0, 1))
    assert o.key((0, 2)) > o.key((1, 0))
    assert o.key((2, 1)) > o.key((1, 2))


def test_lex_order():
    o = TermOrder.lex(1)
    # pure lex: any Dx power beats any Dy-only monomial
    assert o.key((1, 0)) > o.key((0, 5))
    assert o.key((2, 0)) > o.key((1, 7))


def test_elim_order_blocks():
    o = TermOrder.elim(1)
    # anything containing Dy dominates everything Dy-free
    assert o.key((0, 1)) > o.key((9, 0))
    assert o.key((1, 1)) > o.key((0, 1))
    o2 = TermOrder.elim(2)
    assert o2.key((0, 1, 0)) > o2.key((5, 0, 0))
    assert o2.key((0, 0, 1)) > o2.key((5, 0, 0))


def test_order_key_is_total_and_multiplicative():
    rng = random.Random(301)
    for o in (TermOrder.degrevlex(2), TermOrder.lex(2), TermOrder.elim(2)):
        for _ in range(60):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 3) for _ in range(3))
            if a == b:
                continue
            assert (o.key(a) > o.key(b)) != (o.key(b) > o.key(a))
            # compatibility with multiplication
            if o.key(a) > o.key(b):
                ac = tuple(i + j for i, j in zip(a, c))
                bc = tuple(i + j for i, j in zip(b, c))
                assert o.key(ac) > o.key(bc)
            # 1 is smallest
            assert o.key(a) > o.key((0, 0, 0)) or not any(a)


def test_order_keys_match_the_former_formulas():
    rng = random.Random(311)
    for nvars in (1, 2, 3):
        for kind in ("degrevlex", "lex", "elim"):
            o = TermOrder(kind, nvars)
            for _ in range(40):
                dm = tuple(rng.randint(0, 5) for _ in range(nvars + 1))
                assert o.key(dm) == reference_order_key(kind, nvars, dm), (kind, dm)


# ---------------------------------------------------------------------------
# left reduction
# ---------------------------------------------------------------------------


def test_left_reduce_pushes_only_below_the_top(monkeypatch):
    # Every monomial the kernel pushes lies strictly below the term it is
    # cancelling, which is what makes a popped, irreducible term final.
    top = None
    real_heappop, real_heappush = gb.heappop, gb.heappush

    def heappop(heap):
        nonlocal top
        item = real_heappop(heap)
        assert top is None or item[0] >= top
        top = item[0]
        return item

    def heappush(heap, item):
        assert item[0] > top, (item, top)
        real_heappush(heap, item)

    monkeypatch.setattr(gb, "heappop", heappop)
    monkeypatch.setattr(gb, "heappush", heappush)
    (dx, dy), (x, y), one = sym(1)
    f = dx**3 - dx * dx + dy**3 + x * dx * dy
    for kind in KINDS:
        o = TermOrder(kind, 1)
        for gens in ([dx - one, dy**3 - dx * dx], [dx * dx - y * dy, dy * dy - one, x * dx - dy]):
            top = None
            assert left_reduce(f, gens, o) == reference_left_reduce(f, gens, o)


def test_left_reduce_matches_the_former_strategy():
    # Against generators that are not a Groebner basis the normal form
    # depends on which generator cancels which term.  Top-reduction must make
    # the same choices as the former loop (largest divisible term, first
    # dividing generator).  Generators of order one share leading monomials
    # often; the reversed list stands for "last dividing generator" and must
    # give a different answer often enough to matter.
    rng = random.Random(312)
    cases = differs = 0
    for nvars in (1, 2):
        for kind in ("degrevlex", "lex", "elim"):
            o = TermOrder(kind, nvars)
            for _ in range(12):
                gens = []
                while len(gens) < 3:
                    g = rand_operator(rng, nvars, max_terms=3, max_ord=1)
                    if g.max_order() == 1:
                        gens.append(g)
                f = rand_operator(rng, nvars, max_terms=4, max_ord=3)
                expected = reference_left_reduce(f, gens, o)
                assert left_reduce(f, gens, o) == expected, (kind, f, gens)
                cases += 1
                differs += reference_left_reduce(f, gens[::-1], o) != expected
    assert differs >= cases // 4, (differs, cases)


def _fixture_and_golden_ideals():
    ideals = [(1, gens) for gens in fixture_ideals()]
    ideals += [parse_ideal_file(p.read_text()) for p in sorted(GOLDEN.glob("*.ideal"))]
    assert len(ideals) == len(fixture_ideals()) + 7
    return ideals


def test_left_reduce_against_a_basis_and_its_cached_leads():
    # A GroebnerBasis argument reduces like its gens list, also under an
    # order other than its own (its cached leads must not be used then), and
    # repeated reduce calls reuse one cached lead list.
    rng = random.Random(313)
    moved = 0
    for nvars, gens in _fixture_and_golden_ideals():
        for kind in KINDS:
            o = TermOrder(kind, nvars)
            G = groebner_basis(gens, o)
            for _ in range(3):
                f = rand_operator(rng, nvars, max_terms=4, max_ord=3)
                expected = reference_left_reduce(f, G.gens, o)
                assert left_reduce(f, G, o) == expected, (kind, f, G)
                assert left_reduce(f, list(G.gens), o) == expected
                assert G.reduce(f) == expected
                lead = G._cache["lead"]
                assert G.reduce(f) == expected and G._cache["lead"] is lead
                for other_kind in KINDS:
                    o2 = TermOrder(other_kind, nvars)
                    assert left_reduce(f, G, o2) == reference_left_reduce(f, G.gens, o2)
                    moved += G.leading_monomials() != [g.leading(o2.key)[0] for g in G.gens]
                assert G._cache["lead"] is lead
                assert G.reduce(f) == expected
    assert moved > 0


def test_left_reduce_when_terms_cancel_and_come_back():
    # Reducing Dx^3 by Dx - 1 cancels Dx^2, and reducing Dy^3 by Dy^3 - Dx^2
    # brings it back, so Dx^2 has a stale heap entry and a live one.  In
    # Dx^2 - Dx the first step cancels Dx for good.  Then random operands
    # full of such cancellations, with rational coefficients and non-monic
    # generators.
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    f = dx**3 - dx * dx + dy**3
    gens = [dx - one, dy**3 - dx * dx]
    assert left_reduce(f, gens, o) == reference_left_reduce(f, gens, o) == one
    assert left_reduce(dx * dx - dx, [dx - one], o).is_zero()
    rng = random.Random(314)
    for nvars in (1, 2):
        for kind in KINDS:
            o = TermOrder(kind, nvars)
            for _ in range(10):
                gens = [rand_operator(rng, nvars, max_terms=3, max_ord=2) for _ in range(2)]
                gens = [g.scale(rand_ratfunc(rng, nvars, max_deg=1)) for g in gens if not g.is_zero()]
                gens = [g for g in gens if not g.is_zero()]
                q = rand_operator(rng, nvars, max_terms=2, max_ord=2)
                f = q * gens[0] + rand_operator(rng, nvars, max_terms=3, max_ord=2) if gens else q
                assert left_reduce(f, gens, o) == reference_left_reduce(f, gens, o), (kind, f, gens)


def test_completion_and_membership_go_through_left_reduce(monkeypatch):
    # The benchmark's tracer wraps gb.left_reduce and gb._spoly by name: it
    # counts a zero reduction when the S-polynomial object itself reaches
    # left_reduce, and times shape-basis verification as left_reduce calls
    # made by GroebnerBasis.contains.
    formed, reduced = [], []
    real_spoly, real_left_reduce = gb._spoly, gb.left_reduce

    def spoly(*args):
        formed.append(real_spoly(*args))
        return formed[-1]

    def left_reduce_(f, *args):
        reduced.append(f)
        return real_left_reduce(f, *args)

    monkeypatch.setattr(gb, "_spoly", spoly)
    monkeypatch.setattr(gb, "left_reduce", left_reduce_)
    (dx, dy), (x, y), one = sym(1)
    o = TermOrder.degrevlex(1)
    G = groebner_basis([dx * dx - y * dy, dy * dy - one, x * dx - dy], o)
    assert formed and all(any(h is f for f in reduced) for h in formed)
    del reduced[:]
    assert G.contains(G.gens[0]) and reduced == [G.gens[0]]
    del reduced[:]
    G = groebner_basis([(dx - one) * (dx - 2 * one), dy - dx], o)
    sb = shape_basis(G)
    assert [f for f in reduced if f in sb.generators()] == list(sb.generators())


def test_reduce_dx_squared_by_dx_minus_one():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    r = left_reduce(dx * dx, [dx - one], o)
    assert r == one
    # oracle: Dx^2 = (Dx + 1)(Dx - 1) + 1 exactly
    assert (dx + one) * (dx - one) + one == dx * dx


def test_reduce_leaves_no_divisible_terms():
    rng = random.Random(302)
    o = TermOrder.degrevlex(1)
    (dx, dy), (x, y), one = sym(1)
    gens = [dx * dx - x * dy, dy * dy - one]
    lms = [g.leading(o.key)[0] for g in gens]
    for _ in range(10):
        f = rand_operator(rng, 1, max_terms=3, max_ord=3)
        r = left_reduce(f, gens, o)
        for dm in r.terms:
            assert not any(all(a >= b for a, b in zip(dm, lm)) for lm in lms)


def test_reduction_is_division_with_remainder():
    # f - NF(f) must lie in the left ideal; for a single generator that means
    # f = q*g + NF(f) for some q, recovered here by reducing the difference
    # and reconstructing the quotient step by step
    rng = random.Random(303)
    o = TermOrder.degrevlex(1)
    (dx, dy), (x, y), one = sym(1)
    g = dx * dx - y * dx - one
    for _ in range(8):
        f = rand_operator(rng, 1, max_terms=3, max_ord=3)
        r = left_reduce(f, [g], o)
        # reconstruct the quotient by reducing f - r by hand
        diff = f - r
        q = OreOperator.zero(1)
        lm, lc = g.leading(o.key)
        while not diff.is_zero():
            dm, c = diff.leading(o.key)
            delta = tuple(a - b for a, b in zip(dm, lm))
            assert all(d >= 0 for d in delta), "difference not in the monomial ideal"
            t = OreOperator.monomial(1, delta).scale(c / lc)
            q = q + t
            diff = diff - t * g
        assert q * g + r == f


def test_normal_form_linear_against_gb():
    rng = random.Random(304)
    o = TermOrder.degrevlex(1)
    (dx, dy), _, one = sym(1)
    G = groebner_basis([(dx - one) * (dx - 2 * one), dy], o)
    for _ in range(10):
        f = rand_operator(rng, 1)
        g = rand_operator(rng, 1)
        a = rand_ratfunc(rng, 1)
        b = rand_ratfunc(rng, 1)
        lhs = G.reduce(f.scale(a) + g.scale(b))
        rhs = G.reduce(f).scale(a) + G.reduce(g).scale(b)
        assert lhs == rhs
        assert G.reduce(G.reduce(f)) == G.reduce(f)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def test_left_multiple_collapses():
    (dx, dy), (x, y), one = sym(1)
    o = TermOrder.degrevlex(1)
    G = groebner_basis([dx, x * dx], o)
    assert list(G.gens) == [dx]


def test_known_bases_already_complete():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    L = (dx - one) * (dx - 2 * one)
    G = groebner_basis([L, dy], o)
    assert list(G.gens) == [dy, L]
    G2 = groebner_basis([dx - dy - one, dy * dy - dy], o)
    assert list(G2.gens) == [dx - dy - one, dy * dy - dy]


def test_spairs_of_output_reduce_to_zero():
    rng = random.Random(305)
    o = TermOrder.degrevlex(1)
    (dx, dy), (x, y), one = sym(1)
    ideals = [
        [(dx - one) * (dx - 2 * one), dy],
        [dx - dy - one, dy * dy - dy],
        [dx * dx - y * dy, dy * dy - one, x * dx - dy],
    ]
    for _ in range(4):
        ideals.append([rand_operator(rng, 1, max_terms=2, max_ord=2) for _ in range(2)])
    for gens in ideals:
        gens = [g for g in gens if not g.is_zero()]
        G = groebner_basis(gens, o)
        for i in range(len(G.gens)):
            for j in range(i + 1, len(G.gens)):
                assert G.reduce(_spoly(G.gens[i], G.gens[j], o)).is_zero()
        # membership of the inputs
        for g in gens:
            assert G.contains(g)
        # monic sorted canonical shape
        keys = [o.key(g.leading(o.key)[0]) for g in G.gens]
        assert keys == sorted(keys)
        for g in G.gens:
            assert g.leading(o.key)[1].is_one()


def test_chain_criterion_keeps_the_fixture_and_golden_bases():
    for nvars, gens in _fixture_and_golden_ideals():
        for kind in KINDS:
            o = TermOrder(kind, nvars)
            assert groebner_basis(gens, o) == reference_groebner_basis(gens, o), (kind, gens)


def test_chain_criterion_keeps_random_bases():
    rng = random.Random(321)
    for nvars in (1, 2):
        for rat_coeffs in (False, True):
            for kind in KINDS:
                o = TermOrder(kind, nvars)
                for _ in range(2):
                    gens = disguised_two_point_ideal(rng, nvars, rat_coeffs)
                    G = groebner_basis(gens, o)
                    assert len(G) == nvars + 1
                    assert G == reference_groebner_basis(gens, o), (kind, gens)


def test_chain_criterion_skips_pairs(monkeypatch):
    # every pushed pair is either formed by _spoly or skipped; on this ideal
    # the chain criterion skips some, and the basis stays the same.  Pairs
    # are (lcm key, i, j) entries; left_reduce's heap holds (key, monomial).
    (dx, dy), (x, y), one = sym(1)
    gens = [dx * dx - y * dy, dy * dy - one, x * dx - dy]
    o = TermOrder.degrevlex(1)
    expected = reference_groebner_basis(gens, o)
    formed = pushed = 0
    real_spoly, real_heapify, real_heappush = gb._spoly, gb.heapify, gb.heappush

    def spoly(*args):
        nonlocal formed
        formed += 1
        return real_spoly(*args)

    def heapify(heap):
        nonlocal pushed
        pushed += sum(len(item) == 3 for item in heap)
        real_heapify(heap)

    def heappush(heap, item):
        nonlocal pushed
        pushed += len(item) == 3
        real_heappush(heap, item)

    monkeypatch.setattr(gb, "_spoly", spoly)
    monkeypatch.setattr(gb, "heapify", heapify)
    monkeypatch.setattr(gb, "heappush", heappush)
    assert groebner_basis(gens, o) == expected
    assert 0 < formed < pushed, (formed, pushed)


def test_unit_ideal_reduces_to_one():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    G = groebner_basis([dx - one, one], o)
    assert list(G.gens) == [one]
    assert G.quotient_basis() == []
    # completion discovers the unit: Dy*Q - ... example where 1 only appears
    # after an S-pair (Dx - 1 and x*Dx - 1 give (x-1)*Dx... then constants)
    x = OreOperator.from_coeff(RatFunc.var(1, 0))
    G2 = groebner_basis([dx - one, x * dx - one], o)
    assert list(G2.gens) == [one]


def test_degree_cap():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    with pytest.raises(DegreeCapExceeded):
        groebner_basis([(dx - one) * (dx - 2 * one), dy], o, degree_cap=1)
    # inputs within the cap whose completion forms an operator above it
    y = OreOperator.from_coeff(RatFunc.var(1, 1))
    gens = [dx * dy + y * dy * dy, dx * dx]
    with pytest.raises(DegreeCapExceeded, match="completion produced order 3, cap is 2"):
        groebner_basis(gens, o, degree_cap=2)
    completed = groebner_basis(gens, o)
    assert max(g.max_order() for g in completed.gens) == 3 and completed.dimension() == 4


def test_all_zero_generators_rejected():
    o = TermOrder.degrevlex(1)
    with pytest.raises(ValueError):
        groebner_basis([OreOperator.zero(1)], o)


# ---------------------------------------------------------------------------
# staircase and quotient
# ---------------------------------------------------------------------------


def test_quotient_basis_known():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    G = groebner_basis([(dx - one) * (dx - 2 * one), dy], o)
    assert G.quotient_basis() == [(0, 0), (1, 0)]
    assert G.dimension() == 2
    G2 = groebner_basis([dx - one, dy * dy - dy], o)
    assert G2.quotient_basis() == [(0, 0), (0, 1)]
    G3 = groebner_basis([dx, dy], o)
    assert G3.quotient_basis() == [(0, 0)]
    assert groebner_basis([one], o).quotient_basis() == []


def test_not_zero_dimensional_detected():
    (dx, dy), _, one = sym(1)
    o = TermOrder.degrevlex(1)
    G = groebner_basis([dx], o)
    assert not G.is_zero_dimensional()
    with pytest.raises(NotZeroDimensional):
        G.quotient_basis()
    # mixed monomial does not make it zero-dimensional either
    G2 = groebner_basis([dx * dy], o)
    assert not G2.is_zero_dimensional()


def test_dimension_independent_of_order():
    (dx, dy), (x, y), one = sym(1)
    systems = [
        [(dx - one) * (dx - 2 * one), dy],
        [dx - dy - one, dy * dy - dy],
        [dx - one, dy * dy],
        [(dx - one) * (dx - one), dy],
    ]
    for gens in systems:
        dims = set()
        for o in (TermOrder.degrevlex(1), TermOrder.lex(1), TermOrder.elim(1)):
            dims.add(groebner_basis(gens, o).dimension())
        assert len(dims) == 1


def test_two_parameter_completion():
    ds, vs, one = sym(2)
    dx, dy1, dy2 = ds
    o = TermOrder.degrevlex(2)
    G = groebner_basis([dx - one, dy1 - one, dy2 - 2 * one], o)
    assert G.dimension() == 1
    assert G.quotient_basis() == [(0, 0, 0)]
