"""Shared test utilities.

The oracle helpers here deliberately avoid the code paths they are used to
check: dense univariate coefficient lists with plain Fractions stand in for
MultiPoly arithmetic, and expected series are built directly from factorial
formulas rather than through the solver.  Reading .terms / .coeffs off the
objects under test is allowed (that is the input encoding), re-using their
arithmetic is not.
"""

from fractions import Fraction
from math import comb, factorial


# ---------------------------------------------------------------------------
# dense univariate arithmetic over Q (lists of Fractions, index = power of h)
# ---------------------------------------------------------------------------


def d1_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def d1_sub(a, b):
    m = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(m)
    ]


def d1_scale(a, c):
    return [ai * c for ai in a]


def poly_on_line(poly, point, var, sign):
    """Coefficients in h of poly evaluated at point with point[var] += sign*h.

    Reads poly.terms directly; all arithmetic is Fraction-only.
    """
    deg = max((expo[var] for expo in poly.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    s = Fraction(sign)
    for expo, c in poly.terms.items():
        base = Fraction(c)
        for j, (pj, ej) in enumerate(zip(point, expo)):
            if j != var and ej:
                base *= Fraction(pj) ** ej
        ev = expo[var]
        for k in range(ev + 1):
            out[k] += base * comb(ev, k) * Fraction(point[var]) ** (ev - k) * s**k
    return out


# ---------------------------------------------------------------------------
# sparse multivariate product over Q
# ---------------------------------------------------------------------------


def reference_mul(f, g):
    """Terms of the MultiPoly product f*g by the schoolbook double loop over
    Fractions, the product MultiPoly used before its integer kernel."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# operator powers
# ---------------------------------------------------------------------------


def reference_pow(op, k):
    """op**k by repeated squaring, the loop OreOperator.__pow__ used before
    it multiplied by op on the left k times."""
    from oreshape.ore import OreOperator

    if k < 0:
        raise ValueError("negative power of an operator")
    out = OreOperator.one(op.nvars)
    base = op
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# truncated series arithmetic over Q
# ---------------------------------------------------------------------------


def _series_parts(f, other):
    """(order, coeffs) of a series operand; a scalar is a constant series at
    f's order."""
    if isinstance(other, (int, Fraction)):
        return f.order, {(0,) * (f.nvars + 1): Fraction(other)}
    return other.order, other.coeffs


def _cut(order, coeffs):
    return order, {e: v for e, v in coeffs.items() if v and sum(e) < order}


def reference_series_add(f, g):
    """(order, coeffs) of f + g by the Fraction loop TruncSeries used before
    it became a MultiPoly cut at its order; g may be an int or Fraction."""
    g_order, g_coeffs = _series_parts(f, g)
    out = dict(f.coeffs)
    for expo, v in g_coeffs.items():
        s = out.get(expo, Fraction(0)) + v
        if s:
            out[expo] = s
        else:
            out.pop(expo, None)
    return _cut(min(f.order, g_order), out)


def reference_series_mul(f, g):
    """(order, coeffs) of f * g by the former TruncSeries double loop, which
    skipped every product at or above the smaller order; g may be a scalar."""
    if isinstance(g, (int, Fraction)):
        return _cut(f.order, {e: v * Fraction(g) for e, v in f.coeffs.items()})
    order = min(f.order, g.order)
    out = {}
    for e1, v1 in f.coeffs.items():
        d1 = sum(e1)
        if d1 >= order:
            continue
        for e2, v2 in g.coeffs.items():
            if d1 + sum(e2) >= order:
                continue
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, Fraction(0)) + v1 * v2
    return _cut(order, out)


def reference_series_diff(f, index):
    """(order, coeffs) of the partial derivative by the former TruncSeries loop."""
    out = {}
    for expo, v in f.coeffs.items():
        e = expo[index]
        if e:
            ne = list(expo)
            ne[index] = e - 1
            out[tuple(ne)] = v * e
    return _cut(f.order - 1, out)


# ---------------------------------------------------------------------------
# random value generators (callers pass a seeded random.Random)
# ---------------------------------------------------------------------------


def rand_poly(rng, nvars, max_deg=2, max_terms=3, coeff_bound=3, nonzero=False):
    from oreshape.arith import MultiPoly

    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            expo = [0] * (nvars + 1)
            for _ in range(rng.randint(0, max_deg)):
                expo[rng.randrange(nvars + 1)] += 1
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[tuple(expo)] = terms.get(tuple(expo), 0) + c
        p = MultiPoly(nvars, {e: Fraction(c) for e, c in terms.items() if c})
        if not (nonzero and p.is_zero()):
            return p


def rand_ratfunc(rng, nvars, max_deg=2, unit_den_at_origin=False, poly_only=False):
    from oreshape.arith import MultiPoly, RatFunc

    num = rand_poly(rng, nvars, max_deg=max_deg)
    if poly_only:
        return RatFunc(num)
    origin = (Fraction(0),) * (nvars + 1)
    while True:
        den = rand_poly(rng, nvars, max_deg=1, max_terms=2, nonzero=True)
        if not unit_den_at_origin or den.evaluate(origin) != 0:
            return RatFunc(num, den)


def rand_point(rng, nvars, denominators=(), span=6):
    """Random rational point where none of the given polynomials vanish."""
    while True:
        pt = tuple(
            Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(nvars + 1)
        )
        if all(d.evaluate(pt) != 0 for d in denominators):
            return pt


def rand_operator(rng, nvars, max_terms=3, max_ord=2, rat_coeffs=True, origin_safe=False):
    from oreshape.ore import OreOperator

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        dm = [0] * (nvars + 1)
        for _ in range(rng.randint(0, max_ord)):
            dm[rng.randrange(nvars + 1)] += 1
        if rat_coeffs:
            c = rand_ratfunc(rng, nvars, max_deg=1, unit_den_at_origin=origin_safe)
        else:
            c = rand_ratfunc(rng, nvars, max_deg=1, poly_only=True)
        if not c.is_zero():
            terms[tuple(dm)] = c
    return OreOperator(nvars, terms)


def two_point_ideal(rng, nvars):
    """Constant-coefficient generators of the ideal of two random points
    with distinct x-coordinates, in shape form."""
    from oreshape.ore import OreOperator

    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    one = OreOperator.one(nvars)
    a1, a2 = rng.sample(range(-3, 4), 2)
    gens = [(ds[0] - a1 * one) * (ds[0] - a2 * one)]
    for t in range(1, nvars + 1):
        b, c = rng.randint(-3, 3), rng.randint(-3, 3)
        gens.append(ds[t] - b * one - (ds[0] - a1 * one).scale(Fraction(c - b, a2 - a1)))
    return gens


def double_point_ideal(rng, nvars):
    """Constant-coefficient generators of a random double point, in shape
    form: (Dx - a)^2 and Dy_t - b_t - c_t*(Dx - a), whose solutions are
    exp(a*x + b.y) and (x + c.y)*exp(a*x + b.y)."""
    from oreshape.ore import OreOperator

    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    one = OreOperator.one(nvars)
    shift = ds[0] - rng.randint(-3, 3) * one
    gens = [shift * shift]
    for t in range(1, nvars + 1):
        gens.append(ds[t] - rng.randint(-3, 3) * one - shift.scale(Fraction(rng.randint(-3, 3))))
    return gens


# Multiplicity patterns of the roots of P, from r = 2 to r = 4.
MULTIPLICITIES = [(1, 1), (2,), (1, 1, 1), (2, 1), (3,), (1, 1, 1, 1), (2, 1, 1), (2, 2)]


def shape_form_ideal(rng, nvars, patterns=MULTIPLICITIES):
    """(generators, multiplicities) of J = <prod (Dx - a_k)^mu_k, Dy_i - Q_i(Dx)>
    with distinct random integers a_k, a random pattern mu from patterns
    and random Q_i of order below r = sum mu_k.

    Q[D]/J is Q[Dx]/(P), so J is radical exactly when every mu_k is 1.  Then
    the solutions of K[D]*J are r exponentials exp(a_k*x + sum Q_i(a_k)*y_i),
    with distinct exponents, hence K-independent.  A root a with mu_k >= 2
    also has the solution (x + sum Q_i'(a)*y_i) times its exponential, a
    polynomial multiple of the first: the solutions are K-dependent."""
    from oreshape.ore import OreOperator

    mults = rng.choice(patterns)
    ds = [OreOperator.D(nvars, i) for i in range(nvars + 1)]
    one = OreOperator.one(nvars)
    p = one
    for a, mu in zip(rng.sample(range(-3, 4), len(mults)), mults):
        for _ in range(mu):
            p = p * (ds[0] - a * one)
    gens = [p]
    for t in range(1, nvars + 1):
        q = OreOperator.zero(nvars)
        for k in range(sum(mults)):
            q = q + rng.randint(-2, 2) * ds[0] ** k
        gens.append(ds[t] - q)
    return gens, mults


def disguise(rng, gens, rat_coeffs):
    """A copy of gens hidden by two random elementary steps g_t += q * g_s
    (q of order at most one), which keep the left ideal the same.  q has
    rational coefficients, polynomial ones for rat_coeffs False, and
    integer constants for rat_coeffs None."""
    from oreshape.ore import OreOperator

    gens = list(gens)
    for _ in range(2):
        t, s = rng.sample(range(len(gens)), 2)
        q = rand_operator(rng, gens[0].nvars, max_terms=2, max_ord=1, rat_coeffs=bool(rat_coeffs))
        if rat_coeffs is None:
            q = OreOperator(q.nvars, {dm: rng.randint(-3, 3) for dm in q.terms})
        gens[t] = gens[t] + q * gens[s]
    return gens


def disguised_two_point_ideal(rng, nvars, rat_coeffs):
    """Generators of the ideal of two points with distinct x-coordinates,
    disguised."""
    return disguise(rng, two_point_ideal(rng, nvars), rat_coeffs)


def rand_series(rng, nvars, order=5, coeff_bound=4):
    from oreshape.ore import TruncSeries

    coeffs = {}
    for expo in monomials_below(nvars, order):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            coeffs[expo] = Fraction(c)
    return TruncSeries(nvars, order, coeffs)


def monomials_below(nvars, bound):
    """All exponent tuples (len nvars + 1) of total degree < bound, graded order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    for d in range(bound):
        chunk = []

        def rec_exact(prefix, remaining, slots):
            if slots == 1:
                chunk.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec_exact(prefix + [e], remaining - e, slots - 1)

        rec_exact([], d, nvars + 1)
        out.extend(chunk)
    return out


def grevlex_lead(terms):
    """Leading exponent of a {exponent tuple: coefficient} dict in graded
    reverse lexicographic order, x > y1 > ... > yn."""
    return max(terms, key=lambda e: (sum(e), tuple(-a for a in reversed(e))))


# ---------------------------------------------------------------------------
# canonical-form contract of values built by the trusted constructors
# ---------------------------------------------------------------------------


def assert_canonical(value):
    """A MultiPoly, RatFunc, OreOperator or TruncSeries holds tuple keys of
    the right length and no zero coefficients (Fractions only, in a MultiPoly
    or a series, whose terms all lie below its order), and equals the public
    constructor rebuilt from the same parts."""
    from oreshape.arith import MultiPoly, RatFunc
    from oreshape.ore import OreOperator, TruncSeries

    if isinstance(value, MultiPoly):
        for expo, c in value.terms.items():
            assert type(expo) is tuple and len(expo) == value.nvars + 1, expo
            assert type(c) is Fraction and c != 0, (expo, c)
        assert MultiPoly(value.nvars, dict(value.terms)) == value
    elif isinstance(value, RatFunc):
        assert_canonical(value.num)
        assert_canonical(value.den)
        rebuilt = RatFunc(value.num, value.den)
        assert (rebuilt.num.terms, rebuilt.den.terms) == (value.num.terms, value.den.terms)
    elif isinstance(value, OreOperator):
        for dm, c in value.terms.items():
            assert type(dm) is tuple and len(dm) == value.nvars + 1, dm
            assert isinstance(c, RatFunc) and c.nvars == value.nvars and not c.is_zero(), (dm, c)
            assert_canonical(c)
        assert OreOperator(value.nvars, dict(value.terms)) == value
    elif isinstance(value, TruncSeries):
        for expo, c in value.coeffs.items():
            assert type(expo) is tuple and len(expo) == value.nvars + 1, expo
            assert sum(expo) < value.order, (expo, value.order)
            assert type(c) is Fraction and c != 0, (expo, c)
        assert TruncSeries(value.nvars, value.order, dict(value.coeffs)) == value
    else:
        raise TypeError(f"not a canonical value type: {type(value).__name__}")


# ---------------------------------------------------------------------------
# the completion, reduction strategy, term-order keys and kernel solver
# that gb and series used to implement
# ---------------------------------------------------------------------------


def reference_left_reduce(f, gens, order):
    """Left normal form by the former strategy of gb.left_reduce: sort the
    remainder's terms on every step, cancel the largest one divisible by
    some leading monomial, using the first such generator, and rebuild
    D^delta * g as a product with the monomial operator."""
    from oreshape.ore import OreOperator

    lead = [(g, *g.leading(order.key)) for g in gens if not g.is_zero()]
    r = f
    while True:
        hit = None
        for dm in sorted(r.terms, key=order.key, reverse=True):
            for g, lm, lc in lead:
                if all(i <= j for i, j in zip(lm, dm)):
                    hit = (dm, g, lm, lc)
                    break
            if hit:
                break
        if hit is None:
            return r
        dm, g, lm, lc = hit
        delta = tuple(a - b for a, b in zip(dm, lm))
        c = r.terms[dm] / lc
        r = r - (OreOperator.monomial(f.nvars, delta) * g).scale(c)


def reference_groebner_basis(gens, order):
    """Reduced left Groebner basis by the former gb.groebner_basis: plain
    Buchberger, which forms and reduces every S-pair, smallest lcm first,
    then full interreduction.  Inputs must be valid (no cap, no checks)."""
    from heapq import heapify, heappop, heappush

    from oreshape.gb import GroebnerBasis, _divides, _spoly, left_reduce

    work = []
    for gm in (g.monic(order.key) for g in gens if not g.is_zero()):
        if gm not in work:
            work.append(gm)
    lms = [g.leading(order.key)[0] for g in work]

    def pair(i, j):
        return (order.key(tuple(map(max, lms[i], lms[j]))), i, j)

    pairs = [pair(i, j) for j in range(len(work)) for i in range(j)]
    heapify(pairs)
    while pairs:
        _, i, j = heappop(pairs)
        h = left_reduce(_spoly(work[i], work[j], order), work, order)
        if h.is_zero():
            continue
        k = len(work)
        work.append(h.monic(order.key))
        lms.append(work[k].leading(order.key)[0])
        for i2 in range(k):
            heappush(pairs, pair(i2, k))

    survivors = [
        g
        for i, g in enumerate(work)
        if not any(
            j != i and _divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
            for j in range(len(work))
        )
    ]
    reduced = []
    for i, g in enumerate(survivors):
        others = survivors[:i] + survivors[i + 1 :]
        h = left_reduce(g, others, order) if others else g
        reduced.append(h.monic(order.key))
    reduced.sort(key=lambda g: order.key(g.leading(order.key)[0]))
    return GroebnerBasis(work[0].nvars, order, reduced)


def _grevlex_part(dm, symbols):
    return (sum(dm[s] for s in symbols), *(-dm[s] for s in reversed(symbols)))


def reference_order_key(kind, nvars, dm):
    """The former TermOrder.key with its default priority Dx > Dy1 > ... >
    Dyn and, for "elim", its default block of all Dyi."""
    symbols = list(range(nvars + 1))
    if kind == "lex":
        return tuple(dm[s] for s in symbols)
    if kind == "degrevlex":
        return _grevlex_part(dm, symbols)
    return _grevlex_part(dm, symbols[1:]) + _grevlex_part(dm, symbols[:1])


def reference_kernel_basis(rows, ncols):
    """Right kernel over Q by the former series._kernel_basis: row-by-row
    Gauss-Jordan to the reduced echelon form, then one vector per free
    column (1 there, minus that column's entries at the pivot columns)."""
    ech = []  # (pivot column, normalized row)
    for row in rows:
        row = row[:]
        for pc, erow in ech:
            if row[pc]:
                f = row[pc]
                row = [a - f * b for a, b in zip(row, erow)]
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is None:
            continue
        inv = 1 / row[pivot]
        row = [a * inv for a in row]
        # keep earlier rows reduced against the new pivot
        ech = [
            (pc, [a - erow[pivot] * b for a, b in zip(erow, row)] if erow[pivot] else erow)
            for pc, erow in ech
        ]
        ech.append((pivot, row))
    pivot_cols = {pc for pc, _ in ech}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for pc, erow in ech:
            v[pc] = -erow[free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# reference series built straight from factorial formulas
# ---------------------------------------------------------------------------


def exp_series(nvars, order, rates):
    """Truncation of exp(rates[0]*x + rates[1]*y1 + ...) below total degree `order`."""
    from oreshape.ore import TruncSeries

    assert len(rates) == nvars + 1
    coeffs = {}
    for expo in monomials_below(nvars, order):
        c = Fraction(1)
        for r, e in zip(rates, expo):
            c *= Fraction(r) ** e
            c /= factorial(e)
        if c:
            coeffs[expo] = c
    return TruncSeries(nvars, order, coeffs)


def poly_times_exp_series(nvars, order, poly_terms, rates):
    """Truncation of (sum of poly_terms) * exp(sum rates[i] * var_i).

    poly_terms maps exponent tuples to Fractions.
    """
    from oreshape.ore import TruncSeries

    coeffs = {}
    for expo in monomials_below(nvars, order):
        total = Fraction(0)
        for pe, pc in poly_terms.items():
            if all(a >= b for a, b in zip(expo, pe)):
                c = Fraction(pc)
                for r, e, b in zip(rates, expo, pe):
                    c *= Fraction(r) ** (e - b)
                    c /= factorial(e - b)
                total += c
        if total:
            coeffs[expo] = total
    return TruncSeries(nvars, order, coeffs)


# ---------------------------------------------------------------------------
# normal position of a shear, judged on the completed shear
# ---------------------------------------------------------------------------


def reference_in_normal_position(gb):
    """The former shape.in_normal_position: the elimination operator of the
    basis has order r = dim of the quotient."""
    from oreshape.shape import eliminate_dx

    return eliminate_dx(gb, "krylov").max_order() == gb.dimension()


def reference_normalize_by_shear(gb):
    """The former shape.normalize_by_shear and the grid after it: c = 0,
    then 19 draws of random.Random(0) from [-5, 5]^n, then every c in S^n,
    S the d + 1 integers nearest 0 (ties to the positive one) for d =
    r(r - 1)/2, by max |ci| and then lexicographically; repeats skipped,
    each judged by completing its shear and testing the completed basis.
    NotNormalPosition when none passes."""
    import random
    from itertools import product

    from oreshape.errors import NotNormalPosition
    from oreshape.shape import shear_ideal

    nvars, r = gb.nvars, gb.dimension()
    d = r * (r - 1) // 2
    rng = random.Random(0)
    draws = [(0,) * nvars] + [tuple(rng.randint(-5, 5) for _ in range(nvars)) for _ in range(19)]
    grid = sorted(product(range(-(d // 2), (d + 1) // 2 + 1), repeat=nvars), key=lambda c: (max(map(abs, c)), c))
    for c in dict.fromkeys(draws + grid):
        c = tuple(map(Fraction, c))
        sheared = shear_ideal(gb, c)
        if reference_in_normal_position(sheared):
            return c, sheared
    raise NotNormalPosition("no shear in the grid")


# ---------------------------------------------------------------------------
# the series walk that evaluated each quotient coordinate at the origin
# ---------------------------------------------------------------------------


def conjugate(gb, c):
    """The ideal (x + c)*I*(1/(x + c)), completed: (x + c)*g*(1/(x + c))
    annihilates (x + c)*f whenever g annihilates f.  Its quotient
    coordinates carry powers of x + c in their denominators."""
    from oreshape.arith import RatFunc
    from oreshape.gb import groebner_basis
    from oreshape.ore import OreOperator

    xc = RatFunc.var(gb.nvars, 0) + RatFunc.const(gb.nvars, c)
    left, right = OreOperator.from_coeff(xc), OreOperator.from_coeff(1 / xc)
    return groebner_basis([left * g * right for g in gb.gens], gb.order)


def reference_solve_series(gb, order):
    """The former series.solve_series: the same walk of quotient coordinates,
    always over K from act.coords(1), each step d/dt c + A_t*c written out
    with the columns A_t[., j] = act.coords(D_t*D^(b_j)) for the standard
    monomials b_j, not taken from QuotientAction.rows or apply, and each
    coordinate's value at 0 taken by RatFunc.evaluate, so a pole is a
    denominator that evaluates to 0 there."""
    from oreshape.arith import RatFunc
    from oreshape.errors import NonOrdinaryOrigin, PoleAtPoint
    from oreshape.ore import OreOperator, TruncSeries
    from oreshape.series import SolutionBasis, _graded_monomials
    from oreshape.shape import quotient_action

    act = quotient_action(gb)
    r, nvars = act.r, act.nvars
    if r == 0:
        return SolutionBasis(nvars, 0, order, (), ())
    origin = (Fraction(0),) * (nvars + 1)
    columns = [[act.coords(OreOperator.D(nvars, t) * OreOperator.monomial(nvars, dm)) for dm in act.basis]
               for t in range(nvars + 1)]
    coords = {}
    coeff_dicts = [{} for _ in range(r)]
    for m in _graded_monomials(nvars + 1, order):
        if any(m):
            t = next(i for i, e in enumerate(m) if e)
            prev = list(m)
            prev[t] -= 1
            v, cols = coords[tuple(prev)], columns[t]
            coords[m] = [v[i].derivative(t) + sum((cols[j][i] * v[j] for j in range(r)), RatFunc.zero(nvars))
                         for i in range(r)]
        else:
            coords[m] = act.coords(OreOperator.one(nvars))
        fact = 1
        for e in m:
            fact *= factorial(e)
        for k in range(r):
            try:
                val = coords[m][k].evaluate(origin)
            except PoleAtPoint:
                raise NonOrdinaryOrigin(
                    f"quotient coordinate for derivative monomial {m} has a pole at 0"
                ) from None
            if val:
                coeff_dicts[k][m] = val / fact
    members = tuple(TruncSeries(nvars, order, d) for d in coeff_dicts)
    return SolutionBasis(nvars, r, order, tuple(act.basis), members)


def reference_wronskian(members):
    """The Wronskian determinant in x of the given series, by cofactor
    expansion along the first row, independent of Liouville's formula in
    series.wronskian_x.  Its order is min(member orders) - (len(members) -
    1); the ring of truncated series has zero divisors, so no elimination."""
    from oreshape.errors import TruncationTooSmall

    members = list(members)
    if not members:
        raise ValueError("wronskian of an empty family")
    n, r = min(f.order for f in members), len(members)
    if n - (r - 1) < 1:
        raise TruncationTooSmall(f"need guaranteed order above {r - 1} to differentiate {r} members")
    rows = [members]
    for _ in range(r - 1):
        rows.append([f.diff(0) for f in rows[-1]])

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        for j, a in enumerate(rows[0]):
            term = a * det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = term if j == 0 else total - term if j % 2 else total + term
        return total

    return det(rows)
