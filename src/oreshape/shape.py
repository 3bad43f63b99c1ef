"""Shape bases and normal position for zero-dimensional left ideals.

Everything here works in coordinates on the finite-dimensional quotient
K[Dx, Dy1..Dyn] / I.  The residue classes of the standard monomials form a
K-basis; each derivative symbol D acts on coordinate vectors by the
pseudo-linear rule

    D . v = dv/dvar(D) + A_D * v

where A_D's column k holds the coordinates of the normal form of D times the
k-th basis monomial.  The action is pseudo-linear, not linear: it twists by
the derivation, which is why all the linear algebra below is over K with the
derivative applied explicitly where needed.

The Krylov sequence v, Dx.v, Dx^2.v, ... of the class of 1 yields the monic
generator P of the elimination ideal I intersect K[Dx]: the first K-linear
dependence gives its coefficients.  The ideal is in normal position exactly
when that first dependence happens at step r = dim of the quotient; then
expressing the class of each Dyi in the Krylov basis yields Qi with
Dyi - Qi(Dx) in I, and {Dy1 - Q1, ..., Dyn - Qn, P} generates I.  For the
unit ideal r = 0: the Krylov family is empty, hence dependent at step 0 = r,
P = 1, every Qi = 0 and the shape basis is {Dy1, ..., Dyn, 1}.

One routine does all of this linear algebra, and the series layer's too:
_Echelon is an echelon form over a field given by the caller that grows
one vector at a time and remembers each row's combination of the family.
_krylov_walk walks the Krylov family into it up to the first dependence.
The k-th step reduces one new vector against k rows, so a walk to step r
costs O(r^3) field operations instead of the O(r^4) of solving afresh at
every step.  The Dyi images reduce against the same echelon, and the walk
of Dx from the class of 1 is taken once (QuotientAction.krylov).  Over K,
pivots are the lowest-degree nonzero entry of the reduced vector (ties by
position), which keeps intermediate coefficient growth down and the whole
computation deterministic; the results do not depend on the pivots, since
coefficients in an independent family are unique.

The field is the basis's (see gb).  QuotientAction keeps each A_D once, as
sparse rows over that field, read off the normal forms at construction.
Over a basis kept over Q, as for K[D]*J with J in Q[D], they hold
Fractions and the class of 1 is over Q.  Every D.v from it is constant
too, so apply steps it by A_D*v alone; the Krylov walk runs over the field
of its start vector, with the first nonzero entry as pivot over Q.  On
constants every entry has degree 0, so the echelon over K picks the same
pivots: lam, P and the Qi are the same.  coords stays over K, and a
Fraction entry times a coordinate over K is that RatFunc times a constant.

Shears are judged without a completion.  The shear by c (OreOperator.shear)
is an automorphism phi of K[D] that maps K onto K, with phi^-1(Dx) = L =
Dx + sum(ci*Dyi).  phi^-1 is K-semilinear, so sum a_k*Dx^k lies in phi(I)
exactly when sum phi^-1(a_k)*L^k lies in I: [1], [Dx], ..., [Dx^(r-1)] are
K-independent in K[D]/phi(I) exactly when [1], [L], ..., [L^(r-1)] are
K-independent in K[D]/I.  So phi(I) is in normal position exactly when the
walk of L from the class of 1, on the quotient I already has, reaches r.
The ci are constants, so L.v = Dx.v + sum ci*Dyi.v.  With v the class of
1 the test is det(v, L.v, ..., L^(r-1).v) != 0, and L^k.v has degree <= k
in c: the determinant is a polynomial in c over K of total degree <= d =
r(r - 1)/2.  By Schwartz-Zippel (Schwartz, JACM 1980; Zippel, EUROSAM 1979)
a nonzero one does not vanish on all of S^n when S has d + 1 values, so
when that grid fails no rational shear puts the ideal in normal position.

shape_basis certifies its answer with n + 1 reductions, not a second
completion: see its docstring for why J = <shape generators> inside I
already forces J = I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, product
from math import comb, factorial, lcm
from operator import mul

from . import arith
from .arith import RatFunc, divexact
from .errors import InternalError, NotCyclic, NotNormalPosition, ResourceLimit
from .gb import GroebnerBasis, TermOrder, groebner_basis
from .ore import OreOperator


class QuotientAction:
    """Coordinates and derivative action on K[D]/I for zero-dimensional I.

    rows[t] holds A_t as rows of its nonzero entries (j, a) over the basis's
    field, read off the normal forms of D_t*m, m standard, at construction."""

    __slots__ = ("gb", "basis", "rows", "_z_form", "_krylov")

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.basis = gb.quotient_basis()
        self._z_form = self._krylov = None
        nvars = gb.nvars
        one = Fraction(1) if gb.over_q else RatFunc.one(nvars)
        self.rows = []
        for t in range(nvars + 1):
            nfs = [gb.reduce(OreOperator._make(nvars, {dm[:t] + (dm[t] + 1,) + dm[t + 1:]: one})).terms
                   for dm in self.basis]
            self.rows.append([[(j, a) for j, nf in enumerate(nfs) if (a := nf.get(dm))] for dm in self.basis])

    def z_form(self, b: int) -> tuple:
        """The A_t over K in integer form, for r > 0: (b, D, dD, B) with D the
        lcm of every A_t denominator, scaled so that each B_t = D*A_t has
        integer polynomial entries, and dD[t] = d/dt D.  B_t keeps the rows
        of A_t: entries (j, polynomial).  Each polynomial is a list of terms
        (key, c), its exponent tuple e packed into the key
        sum(e_i*(b^i + b^(nvars+1))): keys add as exponents do, and for n <= b
        a key is below n*b^(nvars+1) exactly when |e| < n.  The lcm is taken
        once, on first use."""
        if self._z_form is None:
            dens = {a.den for At in self.rows for row in At for _, a in row}
            den = reduce(lambda f, g: divexact(f * g, arith.poly_gcd(f, g)), dens)
            B = [[[(j, a.num * divexact(den, a.den)) for j, a in row] for row in At] for At in self.rows]
            polys = chain([den], (p for Bt in B for row in Bt for _, p in row))
            s = lcm(*(c.denominator for p in polys for c in p.terms.values()))
            self._z_form = s, den, [den.derivative(t) for t in range(self.nvars + 1)], B
        s, den, dD, B = self._z_form
        weights = [b**i + b ** (self.nvars + 1) for i in range(self.nvars + 1)]
        def z(p):
            return [(sum(map(mul, e, weights)), c.numerator * (s // c.denominator)) for e, c in p.terms.items()]
        return b, z(den), list(map(z, dD)), [[[(j, z(p)) for j, p in row] for row in Bt] for Bt in B]

    def krylov(self) -> tuple:
        """_krylov_walk of Dx from the class of 1, walked once, on first use."""
        if self._krylov is None:
            self._krylov = _krylov_walk(self, self.unit())
        return self._krylov

    @property
    def r(self) -> int:
        return len(self.basis)

    @property
    def nvars(self) -> int:
        return self.gb.nvars

    def unit(self) -> list:
        """Coordinates of the class of 1 over the basis's field; [] for the
        unit ideal.  Otherwise 1 is the first standard monomial."""
        one = Fraction(1) if self.gb.over_q else RatFunc.one(self.nvars)
        return [one - one if any(dm) else one for dm in self.basis]

    def coords(self, op: OreOperator) -> list[RatFunc]:
        """Coordinates of the residue class of an arbitrary operator."""
        nf = self.gb.reduce(op).terms
        return [nf.get(dm, RatFunc.zero(self.nvars)) for dm in self.basis]

    def apply(self, t: int, v: list) -> list:
        """Action of D_t on a coordinate vector: A_t*v, plus d/dt v when v is
        over K.  A vector over Q, from unit over Q, has no derivative."""
        over_k = v and isinstance(v[0], RatFunc)
        return [sum((a * v[j] for j, a in row if v[j]), vi.derivative(t) if over_k else 0)
                for row, vi in zip(self.rows[t], v)]

    def apply_z(self, t: int, w: list, k: int, cut: int, form: tuple) -> list:
        """Action of D_t on w/D^k, w a vector over Z[x, y] packed as in form =
        z_form(b): the numerator D*d/dt w - k*(d/dt D)*w + B_t*w of the image
        over D^(k+1), without its terms of total degree cut or more."""
        b, D, dD, B = form
        bt, bn = b**t, b ** (self.nvars + 1)
        lim = cut * bn  # keys of total degree below cut (see z_form)
        kdD = [(e, -k * c) for e, c in dD[t]] if k else []
        w = [sorted(v.items()) for v in w]  # so each inner loop stops at lim
        def image(row, wi):
            acc = {}
            get = acc.get
            dw = [(e - bt - bn, c * n) for e, c in wi if (n := e // bt % b)]
            for f, g in ((D, dw), (kdD, wi), *((bij, w[j]) for j, bij in row)):
                for e1, c1 in f:
                    for e2, c2 in g:
                        if (e := e1 + e2) >= lim:
                            break
                        acc[e] = get(e, 0) + c1 * c2
            return {e: c for e, c in acc.items() if c}

        return list(map(image, B[t], w))


def quotient_action(gb: GroebnerBasis) -> QuotientAction:
    """The cached QuotientAction of a Groebner basis."""
    act = gb._cache.get("action")
    if act is None:
        act = QuotientAction(gb)
        gb._cache["action"] = act
    return act


class _Echelon:
    """Row echelon form of a family v_0, v_1, ... of vectors over a field,
    grown one vector at a time.

    The caller gives the field's zero and one and a pivot measure: a new
    row's pivot is its nonzero entry of least measure, ties by position.
    Entries are tested by truthiness, which is false exactly for 0 in K
    (RatFunc) and in Q (Fraction).

    Row j is v_j minus its combination of the earlier rows, scaled to 1 at
    its pivot, and it remembers that combination as coefficients on
    v_0..v_j.  Each row is zero at the pivots of the rows before it, so
    reducing a vector against the rows in order clears every pivot.
    """

    __slots__ = ("zero", "one", "measure", "rows")

    def __init__(self, zero, one, measure):
        self.zero = zero
        self.one = one
        self.measure = measure
        self.rows = []  # (pivot, row, combination)

    def reduce(self, v: list):
        """(c, rest) with v = sum c[j] * v_j + rest and rest zero at every pivot."""
        c = [self.zero] * len(self.rows)
        for p, row, comb in self.rows:
            f = v[p]
            if not f:
                continue
            v = [a - f * b if b else a for a, b in zip(v, row)]
            for j, b in enumerate(comb):
                if b:
                    c[j] = c[j] + f * b
        return c, v

    def add(self, v: list):
        """Append v and return None; or, when v lies in the span of the
        family, return its coefficients and leave the family as it was."""
        c, rest = self.reduce(v)
        cand = [(self.measure(a), i) for i, a in enumerate(rest) if a]
        if not cand:
            return c
        _, p = min(cand)
        inv = self.one / rest[p]
        row = [a * inv if a else a for a in rest]
        comb = [-a * inv if a else a for a in c] + [inv]
        self.rows.append((p, row, comb))
        return None


def _q_echelon() -> _Echelon:
    """An empty echelon over Q, where every nonzero pivot is as good as any."""
    return _Echelon(Fraction(0), Fraction(1), lambda a: 0)


def _krylov_walk(act: QuotientAction, v0: list, c=()):
    """The Krylov walk v0, L.v0, L^2.v0, ... of L = Dx + sum(ci*Dyi) (Dx
    itself for an empty c) up to its first dependence.

    Returns (lam, ech): L^s.v0 = sum lam[k] * L^k.v0 with s = len(lam)
    the first step whose vector lies in the span of the earlier ones, and
    ech the echelon of v0..L^(s-1).v0, over the field of v0's entries.
    s = 0 when v0 is zero, and s <= r.
    """
    over_k = v0 and isinstance(v0[0], RatFunc)
    ech = _Echelon(RatFunc.zero(act.nvars), RatFunc.one(act.nvars), RatFunc.degree) if over_k else _q_echelon()
    v = v0
    while True:
        lam = ech.add(v)
        if lam is not None:
            return lam, ech
        w = act.apply(0, v)
        for i, ci in enumerate(c, start=1):
            if ci:
                w = [a + ci * b for a, b in zip(w, act.apply(i, v))]
        v = w


def _dx_poly(nvars: int, coeffs) -> OreOperator:
    """sum coeffs[k] * Dx^k as an operator."""
    return OreOperator(nvars, {(k,) + (0,) * nvars: c for k, c in enumerate(coeffs)})


def eliminate_dx(gb: GroebnerBasis, method: str = "krylov") -> OreOperator:
    """Monic generator of the elimination ideal I intersect K[Dx].

    method "krylov" walks the quotient action of Dx on the class of 1;
    "elim-order" recomputes the basis under the block order that eliminates
    all Dyi and picks out the Dy-free generator.  Both return the same
    operator; the unit ideal gives P = 1.
    """
    gb.dimension()  # raises NotZeroDimensional, which elim-order alone would not
    if method == "krylov":
        lam, _ = quotient_action(gb).krylov()
        return _dx_poly(gb.nvars, [-c for c in lam] + [RatFunc.one(gb.nvars)])
    if method == "elim-order":
        order = TermOrder.elim(gb.nvars)
        g2 = gb if gb.order == order else groebner_basis(gb.gens, order)
        p = next(g for g in g2 if all(g.is_free_of(i) for i in range(1, gb.nvars + 1)))
        return p.monic(order.key)
    raise ValueError(f"unknown elimination method {method!r}")


def in_normal_position(gb: GroebnerBasis, c=()) -> bool:
    """True when the shear of the ideal by c (none for an empty c) is in
    normal position: the walk of L = Dx + sum(ci*Dyi) from the class of 1
    reaches r = dim of the quotient (see the module docstring)."""
    act = quotient_action(gb)
    lam, _ = _krylov_walk(act, act.unit(), c) if any(c) else act.krylov()
    return len(lam) == act.r


@dataclass(frozen=True)
class ShapeBasis:
    """Generators {Dy1 - Q1(Dx), ..., Dyn - Qn(Dx), P(Dx)} with P monic of
    order r and every Qi of order < r.  Coefficient lists run from order 0
    upward; p_coeffs has length r + 1 with final entry 1, each q_coeffs[i]
    has trailing zeros trimmed."""

    nvars: int
    r: int
    p_coeffs: tuple[RatFunc, ...]
    q_coeffs: tuple[tuple[RatFunc, ...], ...]

    def P(self) -> OreOperator:
        return _dx_poly(self.nvars, self.p_coeffs)

    def Q(self, i: int) -> OreOperator:
        return _dx_poly(self.nvars, self.q_coeffs[i - 1])

    def generators(self) -> list[OreOperator]:
        dys = [OreOperator.D(self.nvars, i) - self.Q(i) for i in range(1, self.nvars + 1)]
        return dys + [self.P()]


def _trim(nvars: int, coeffs: list) -> tuple[RatFunc, ...]:
    """The coefficients, over Q or K, as RatFuncs without trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(c if isinstance(c, RatFunc) else RatFunc.const(nvars, c) for c in coeffs)


def _shape_from_krylov(act: QuotientAction, v0: list, walk=None) -> ShapeBasis:
    """Shared core of shape_basis and gauge_transform: build P and the Qi
    from the Krylov family of v0, requiring independence up to step r; walk
    is that family's _krylov_walk when the caller has it already.

    Then the r independent vectors span the r-dimensional quotient, so each
    Dyi.v0 reduces to zero against their echelon and its combination is Qi."""
    r = act.r
    nvars = act.nvars
    lam, ech = walk or _krylov_walk(act, v0)
    if len(lam) < r:
        why = f"Krylov family dependent at step {len(lam)}, quotient dimension {r}"
        raise NotCyclic(why if lam else "the vector reduces to zero in the quotient")
    p_coeffs = _trim(nvars, [-c for c in lam] + [ech.one])
    q_all = tuple(_trim(nvars, ech.reduce(act.apply(i, v0))[0]) for i in range(1, nvars + 1))
    return ShapeBasis(nvars, r, p_coeffs, q_all)


def shape_basis(gb: GroebnerBasis) -> ShapeBasis:
    """Shape basis of a zero-dimensional ideal in normal position.

    Raises NotNormalPosition when the elimination operator has order < r.

    Certificate (checked): the n + 1 shape generators reduce to zero modulo
    gb, so J = <shape generators> is contained in I.  Modulo J each Dyi
    rewrites to Qi(Dx); by induction on the Dy-degree every monomial
    becomes a K[Dx]-combination, because commuting a Dy past a coefficient
    only lowers that degree.  P, monic of order r, then brings every power
    of Dx below r, so dim K[D]/J <= r.  With J inside I and dim K[D]/I = r
    this forces J = I, under any term order.  A failed containment is a bug
    and raises InternalError.
    """
    act = quotient_action(gb)
    try:
        sb = _shape_from_krylov(act, act.unit(), act.krylov())
    except NotCyclic as exc:
        raise NotNormalPosition(f"the ideal is not in normal position: {exc}") from None
    for h in sb.generators():
        if not gb.contains(h):
            raise InternalError(f"shape generator {h} is not in the ideal")
    return sb


def shear_ideal(gb: GroebnerBasis, c) -> GroebnerBasis:
    """Groebner basis of the ideal annihilating f(x, y + c*x) for solutions
    f(x, y) of the input: shear every generator by c (OreOperator.shear) and
    recomplete under the same order.  For c = 0 that is the reduced basis gb
    itself, since a reduced basis is unique, so gb is returned."""
    c = tuple(Fraction(v) for v in c)
    if c == (0,) * gb.nvars:
        return gb
    return groebner_basis([g.shear(c) for g in gb.gens], gb.order)


# Grid points times r^3, 100 times that over K: about the field operations
# of the grid's walks, 3 us each over Q and 25 to 160 us over K when they
# reach r - 1 (Python 3.11, shared 2-vCPU x86-64 VM), so the largest
# admitted grid takes about 9 s over Q and 5 s over K.
MAX_SHEAR_WORK = 3_000_000


def _shear_grid(nvars: int, r: int, over_q: bool):
    """S^n by max |ci|, then lexicographically, for S = {0, 1, -1, 2, -2, ...}
    of d + 1 values, d = r(r - 1)/2 (see the module docstring); refused past
    MAX_SHEAR_WORK before anything is yielded."""
    d = r * (r - 1) // 2
    if (d + 1) ** nvars * r**3 * (1 if over_q else 100) > MAX_SHEAR_WORK:
        raise ResourceLimit(f"a shear grid of {d + 1}^{nvars} points at quotient dimension {r} over "
                            f"{'Q' if over_q else 'K'} needs more than {MAX_SHEAR_WORK} units of work")
    values = [(-1) ** (k + 1) * ((k + 1) // 2) for k in range(d + 1)]
    yield from sorted(product(values, repeat=nvars), key=lambda c: (max(map(abs, c)), c))


def normalize_by_shear(gb: GroebnerBasis) -> tuple[tuple[Fraction, ...], GroebnerBasis]:
    """A shear y <- y + c*x putting the ideal into normal position: c and the
    sheared basis.  It judges c = 0, then 19 draws of random.Random(0) from
    [-5, 5]^n (fixed: the golden outputs record the shears they give), then
    the grid that holds a good shear if any exists (_shear_grid), skipping
    repeats; NotNormalPosition when the grid fails too.  Each c is judged by in_normal_position(gb, c), so
    only the shear returned is completed, and none when c = 0 passes."""
    act = quotient_action(gb)
    rng = random.Random(0)
    draws = [(0,) * gb.nvars] + [tuple(rng.randint(-5, 5) for _ in range(gb.nvars)) for _ in range(19)]
    judged = set()
    for c in chain(draws, _shear_grid(gb.nvars, act.r, gb.over_q)):
        if c in judged:
            continue
        judged.add(c)
        c = tuple(map(Fraction, c))
        if in_normal_position(gb, c):
            return c, shear_ideal(gb, c)
    raise NotNormalPosition(f"no rational shear puts the ideal in normal position ({len(judged)} judged)")


def _katz_vectors(act: QuotientAction):
    """Katz's vectors v(a), a = 0, 1, ..., r(r - 1), one of which is cyclic.

    (N. Katz, "A simple algorithm for cyclic vectors", Amer. J. Math. 109,
    1987.)  With e_i the class of the i-th standard monomial,

        v(a) = sum_{j<r} (x - a)^j/j! * sum_{k<=j} (-1)^k*C(j, k)*Dx^k.e_(j-k)

    By Leibniz and sum_l C(i, l)*C(l, m)*(-1)^(l-m) = [i = m], Dx^i.v(a) at
    a = x is e_i, so det(v, Dx.v, ..., Dx^(r-1).v) is a polynomial in a of
    degree <= r(r - 1) with value 1 at a = x, which has at most r(r - 1)
    rational roots."""
    r, nvars = act.r, act.nvars
    xvar = RatFunc.var(nvars, 0)
    zero = RatFunc.zero(nvars)
    s = [[zero] * r for _ in range(r)]  # s[j] = sum_k (-1)^k*C(j, k)*Dx^k.e_(j-k)
    for i in range(r):
        w = [RatFunc.one(nvars) if t == i else zero for t in range(r)]
        for k in range(r - i):
            w = act.apply(0, w) if k else w
            s[i + k] = [c + (-1) ** k * comb(i + k, k) * b for c, b in zip(s[i + k], w)]
    for a in range(r * (r - 1) + 1):
        fs = [(xvar - a) ** j / factorial(j) for j in range(r)]
        v = [sum((f * sj[t] for f, sj in zip(fs, s)), zero) for t in range(r)]
        yield OreOperator(nvars, dict(zip(act.basis, v)))


def cyclic_vector(gb: GroebnerBasis) -> OreOperator:
    """M whose class generates the quotient under the Dx-action.

    Among the first 200 candidates: the standard monomials, then their
    combinations with multipliers x^d, 0 <= d <= 2, in lexicographic order
    of the power tuples.  Then Katz's vectors (_katz_vectors), one of which
    is cyclic.  Each candidate is certified by its Krylov walk; if none
    passes the theorem failed: InternalError."""
    act = quotient_action(gb)
    r = act.r
    nvars = gb.nvars
    if r == 0:
        raise NotCyclic("the quotient is trivial; no cyclic vector exists")
    xvar = RatFunc.var(nvars, 0)
    searched = chain((OreOperator.monomial(nvars, dm) for dm in act.basis),
                     (OreOperator(nvars, {dm: xvar**d for dm, d in zip(act.basis, powers)})
                      for powers in product(range(3), repeat=r)))
    for M in chain(islice(searched, 200), _katz_vectors(act)):
        if len(_krylov_walk(act, act.coords(M))[0]) == r:
            return M
    raise InternalError(f"none of Katz's {r * (r - 1) + 1} vectors is cyclic")


def gauge_transform(gb: GroebnerBasis, M: OreOperator) -> ShapeBasis:
    """Shape-form annihilator of the gauge images M(f) of the solutions f.

    The class of M must be cyclic for the Dx-action on the quotient; its
    Krylov family then carries both the monic minimal operator P' and the
    coefficients Q' expressing each Dyi-image.  Raises NotCyclic when the
    quotient is trivial or the family becomes dependent before step r."""
    r = gb.dimension()
    if r == 0:
        raise NotCyclic("the quotient is trivial; nothing to transform")
    act = quotient_action(gb)
    return _shape_from_krylov(act, act.coords(M))
