"""Exact arithmetic in Q[x, y1..yn] and its fraction field K = Q(x, y1..yn).

A polynomial is a sparse dict mapping exponent tuples to nonzero Fractions.
Exponent tuples have length nvars + 1 with position 0 holding the power of x
and position i (1 <= i <= nvars) the power of yi.  Values are immutable by
convention: no method mutates self or its arguments, every operation builds a
new value, and construction canonicalizes (zero coefficients dropped).  The
canonical form is the set of terms: the insertion order of the terms dict is
not part of it, and nothing may depend on it (==, hash and the printers do
not).

A product with a one-term factor is a scaled, shifted copy of the other
factor.  Any other product clears each factor's denominators once and
multiplies over Z (_z_mul).

A rational function is a reduced fraction num/den of two such polynomials.
The representation is pinned so that equal field elements compare equal as
Python objects: gcd(num, den) = 1, and den monic with respect to the graded
reverse lexicographic order with x > y1 > ... > yn.  The zero element is
0/1.  A unit denominator is reduced and monic by definition, so num/1 is
canonical without a gcd: construction skips it, and +, -, * and derivative
build the result directly when both denominators are 1.

poly_gcd clears denominators and works over Z.  It runs the heuristic gcd
GCDHEU (Char, Geddes and Gonnet, JSC 1989): evaluate one variable at an
integer xi >= 2*min(|f|_inf, |g|_inf) + 2, recurse down to math.gcd, rebuild
the candidate from balanced xi-adic digits, and accept it only if it divides
both inputs exactly, which at that xi proves it is the gcd (the theorem is
stated at _heu_gcd).  After HEU_GCD_MAX growing points it falls back to a
primitive polynomial remainder sequence, which runs on the same integer
dicts and multiplies with the same kernel.  Either way the gcd is a function
of its inputs (primitive over Z, positive grevlex lead), so canonical forms
do not depend on which algorithm found it.

Sums and products use Henrici's reductions (Knuth, TAOCP vol. 2, 4.5.1) and
never reduce a product of denominators from scratch: a/b + c/d takes
g = gcd(b, d) and reduces only against g (nothing at all when g = 1), and
a/b * c/d cancels gcd(a, d) and gcd(c, b) crosswise before multiplying.

Each value class has a private trusted constructor, _make, that skips all
checks and copies nothing.  It may only receive parts that are canonical
already (tuple keys, nonzero Fraction coefficients, a reduced num/den with
den monic); the public constructors keep every check.

Every sparse sum of Fractions, ints or RatFuncs is add_into, one merge into
a dict its caller owns that deletes the keys whose sum vanishes.  The heap
kernels _z_divide and gb.left_reduce keep their own loops: they also push
each new key onto a heap, and a shared loop would branch on its caller.

Monomial comparisons everywhere in this module use that same grevlex order;
it is only a tie-breaking device here (canonical signs, monic denominators),
not a term order for reduction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, isqrt, lcm as int_lcm
from operator import add, gt, mul, neg, sub

from .errors import ArityError, DivisionByZero, PoleAtPoint, ResourceLimit


def grevlex_key(expo: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key giving graded reverse lexicographic order, x > y1 > ... > yn.

    Ties in total degree go to the monomial with the smaller exponent in the
    least significant variable, scanning yn, ..., y1, x.
    """
    return (sum(expo), *(-e for e in reversed(expo)))


def var_name(index: int, nvars: int) -> str:
    if index == 0:
        return "x"
    return "y" if nvars == 1 else f"y{index}"


def add_into(out: dict, terms: dict, scale=None) -> dict:
    """out += scale * terms in place (scale None: no multiplication),
    deleting each key whose sum is 0; returns out."""
    for k, c in terms.items():
        if scale is not None:
            c = scale * c
        s = out.get(k)
        if s is None:
            out[k] = c
        elif s := s + c:
            out[k] = s
        else:
            del out[k]
    return out


class MultiPoly:
    """Sparse multivariate polynomial over Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, c in terms.items():
                c = Fraction(c)
                if c:
                    cleaned[tuple(expo)] = c
        self.nvars = nvars
        self.terms = cleaned

    @classmethod
    def _make(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Trusted constructor: `terms` must already be canonical (tuple keys,
        nonzero Fraction values) and becomes the new value's own dict."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._make(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls._make(nvars, {(0,) * (nvars + 1): Fraction(1)})

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * (nvars + 1): Fraction(c)})

    @classmethod
    def var(cls, nvars: int, index: int) -> "MultiPoly":
        """The variable x (index 0) or y_index (1 <= index <= nvars)."""
        if not 0 <= index <= nvars:
            raise ArityError(f"variable index {index} out of range for nvars={nvars}")
        expo = [0] * (nvars + 1)
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        t = self.terms
        return len(t) == 1 and t.get((0,) * (self.nvars + 1)) == 1

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def lead(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) under grevlex; poly must be nonzero."""
        expo = max(self.terms, key=grevlex_key)
        return expo, self.terms[expo]

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ArityError(f"mixed arities: nvars {self.nvars} vs {other.nvars}")

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(self.nvars, add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(self.nvars, add_into((-other).terms, self.terms))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f, g = self.terms, other.terms
        if len(f) > len(g):
            f, g = g, f
        if len(f) <= 1:
            # zero or a monomial times g: distinct exponents stay distinct,
            # and a product of nonzero Fractions is nonzero
            return MultiPoly._make(
                self.nvars, {tuple(map(add, e1, e)): c1 * c for e1, c1 in f.items() for e, c in g.items()}
            )
        fz, fm = _to_z(self)
        gz, gm = _to_z(other)
        m = fm * gm
        return MultiPoly._make(self.nvars, {e: Fraction(c, m) for e, c in _z_mul(fz, gz).items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to x (index 0) or y_index."""
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.terms.items():
            e = expo[index]
            if e:
                ne = list(expo)
                ne[index] = e - 1
                out[tuple(ne)] = c * e
        return MultiPoly._make(self.nvars, out)

    def evaluate(self, point) -> Fraction:
        """Value at a point given as nvars + 1 Fractions (x first).  The
        package never evaluates; this is the tests' point-evaluation oracle."""
        if len(point) != self.nvars + 1:
            raise ArityError(f"point has {len(point)} coordinates, need {self.nvars + 1}")
        pt = [Fraction(p) for p in point]
        total = Fraction(0)
        for expo, c in self.terms.items():
            v = c
            for p, e in zip(pt, expo):
                if e:
                    v *= p**e
            total += v
        return total

    def shear_vars(self, shifts) -> "MultiPoly":
        """Substitute yi <- yi + shifts[i-1] * x for every parameter yi: the
        sum of c * x^e0 * prod_i (yi + shifts[i-1] * x)^ei over the terms,
        each power of an image formed once per call."""
        if len(shifts) != self.nvars:
            raise ArityError(f"{len(shifts)} shear constants for nvars={self.nvars}")
        shifts = [Fraction(s) for s in shifts]
        if not any(shifts) or not any(any(e[1:]) for e in self.terms):
            return self
        n = self.nvars
        x = MultiPoly.var(n, 0)
        powers = []
        for i, s in enumerate(shifts, start=1):
            img = MultiPoly.var(n, i) + x * s
            p = [MultiPoly.one(n)]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                p.append(p[-1] * img)
            powers.append(p)
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.terms.items():
            t = MultiPoly._make(n, {(expo[0],) + (0,) * n: c})
            for p, e in zip(powers, expo[1:]):
                t = t * p[e]
            add_into(out, t.terms)
        return MultiPoly._make(n, out)

    def swap_vars(self, index: int) -> "MultiPoly":
        """Exchange the roles of x and y_index in every exponent tuple."""
        if not 1 <= index <= self.nvars:
            raise ArityError(f"variable index {index} out of range for nvars={self.nvars}")
        out = {}
        for expo, c in self.terms.items():
            ne = list(expo)
            ne[0], ne[index] = ne[index], ne[0]
            out[tuple(ne)] = c
        return MultiPoly(self.nvars, out)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"


# ---------------------------------------------------------------------------
# integer polynomials: {exponent tuple: nonzero int} dicts, their product
# kernel, and gcds by the heuristic gcd with a primitive polynomial remainder
# sequence as its fallback
# ---------------------------------------------------------------------------

# Evaluation points the heuristic gcd tries at one level before poly_gcd
# falls back to the remainder sequence.
HEU_GCD_MAX = 6


def _to_z(p: MultiPoly) -> tuple[dict[tuple[int, ...], int], int]:
    """(terms, m) with integer terms and p = terms / m, m the lcm of the
    coefficient denominators."""
    m = int_lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (m // c.denominator) for e, c in p.terms.items()}, m


def _z_mul(f: dict, g: dict) -> dict:
    """Product of two nonzero integer polynomials (Johnson, EUROSAM 1974;
    Monagan and Pearce, ISSAC 2009).

    Each exponent tuple is packed into one int in base b = 1 + maxexp(f) +
    maxexp(g) (Kronecker substitution), the products are summed over plain
    ints, and each surviving term is unpacked once.  No exponent of the
    product reaches b, so the packed sums never carry from one variable into
    the next."""
    b = 1 + max(map(max, f)) + max(map(max, g))
    weights = [b**i for i in range(len(next(iter(f))))]
    gp = [(sum(map(mul, e, weights)), c) for e, c in g.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for e1, c1 in f.items():
        k1 = sum(map(mul, e1, weights))
        for k2, c2 in gp:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    out: dict[tuple[int, ...], int] = {}
    for k, c in acc.items():
        if c:
            expo = []
            for _ in weights:
                k, r = divmod(k, b)
                expo.append(r)
            out[tuple(expo)] = c
    return out


def _z_is_constant(f: dict) -> bool:
    return len(f) == 1 and not any(next(iter(f)))


def _z_content(f: dict) -> tuple[int, dict]:
    """(c, f / c) for c the integer content of f."""
    c = int_gcd(*f.values())
    return c, (f if c == 1 else {e: x // c for e, x in f.items()})


def _z_primitive(f: dict) -> dict:
    """f over its integer content, signed so the grevlex-leading coefficient is positive."""
    g = int_gcd(*f.values())
    if f[max(f, key=grevlex_key)] < 0:
        g = -g
    return f if g == 1 else {e: c // g for e, c in f.items()}


def _z_coeffs(f: dict, v: int) -> dict[int, dict]:
    """{k: coefficient of v^k in f}, with position v of each exponent set to 0."""
    out: dict[int, dict] = {}
    for e, c in f.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return out


def _z_eval(f: dict, v: int, xi: int) -> dict:
    """f with variable v set to xi; position v of every exponent becomes 0."""
    out: dict[tuple[int, ...], int] = {}
    for k, c in _z_coeffs(f, v).items():
        add_into(out, c, xi**k)
    return out


def _z_interpolate(gamma: dict, v: int, xi: int) -> dict:
    """The polynomial whose coefficients in variable v are the balanced
    xi-adic digits (absolute value at most xi/2) of gamma's coefficients."""
    half = xi // 2
    out = {}
    for e, c in gamma.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:v] + (k,) + e[v + 1:]] = d
            c = (c - d) // xi
            k += 1
    return out


def _z_divide(f: dict, h: dict) -> dict | None:
    """Exact quotient f / h of integer polynomials, or None if h does not
    divide f in Z[x, y1..yn].

    Terms are cancelled in decreasing lex order.  A step only adds terms
    below the one it cancels, so a heap of the remainder's exponents (with
    stale entries skipped) yields its leading term without a scan.  An exact
    quotient has degree deg(f) - deg(h) in each variable, so a quotient term
    outside that box ends the division, and a wrong gcd candidate costs at
    most one step per monomial of the box."""
    if not f:
        return {}
    hl = max(h)
    hc = h[hl]
    box = [max(e[i] for e in f) - max(e[i] for e in h) for i in range(len(hl))]
    tail = [(e, c) for e, c in h.items() if e != hl]
    # add_into's merge, inline: a new key also goes onto the heap
    r = dict(f)
    heap = [tuple(map(neg, e)) for e in r]
    heapify(heap)
    q = {}
    while heap:
        e = tuple(map(neg, heappop(heap)))
        c = r.pop(e, 0)
        if not c:
            continue
        qc, rem = divmod(c, hc)
        qe = tuple(map(sub, e, hl))
        if rem or min(qe) < 0 or any(map(gt, qe, box)):
            return None
        q[qe] = qc
        for te, tc in tail:
            k = tuple(map(add, qe, te))
            s = r.get(k)
            if s is None:
                r[k] = -qc * tc
                heappush(heap, tuple(map(neg, k)))
            else:
                s -= qc * tc
                if s:
                    r[k] = s
                else:
                    del r[k]
    return q


def _heu_gcd(f: dict, g: dict) -> dict | None:
    """gcd of two nonzero integer polynomials, up to sign and with their
    common integer content, by GCDHEU (Char, Geddes and Gonnet, JSC 1989);
    None if HEU_GCD_MAX evaluation points at some level all fail.

    The last variable v that occurs is set to an integer xi, the gcd gamma
    of the two images is taken recursively (math.gcd once no variable is
    left), and the candidate h is the primitive part of the polynomial whose
    v-coefficients are the balanced xi-adic digits of gamma.  It is accepted
    only if it divides both inputs exactly.  That test proves it correct:

    Theorem (Char, Geddes, Gonnet).  Let f, g in Z[v1..vk] be nonzero with
    integer content 1, and xi >= 2*min(|f|_inf, |g|_inf) + 2.  Let gamma =
    gcd(f(v1..vk-1, xi), g(v1..vk-1, xi)) in Z[v1..vk-1], and let H have as
    vk-coefficients the balanced xi-adic digits of gamma.  If pp(H) divides
    f and g, then pp(H) = +-gcd(f, g).

    Every xi tried here satisfies the bound, and gamma is exact (math.gcd,
    or an answer accepted by the same test one level down), so an accepted
    candidate is the gcd and no answer rests on chance.
    """
    cf, f = _z_content(f)
    cg, g = _z_content(g)
    c = int_gcd(cf, cg)
    if _z_is_constant(f) or _z_is_constant(g):
        return {(0,) * len(next(iter(f))): c}
    v = max(i for e in (*f, *g) for i, k in enumerate(e) if k)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(HEU_GCD_MAX):
        ff, gg = _z_eval(f, v, xi), _z_eval(g, v, xi)
        # the image of the input of least norm is never 0 (no root reaches xi)
        gamma = _heu_gcd(ff, gg) if ff and gg else ff or gg
        if gamma is not None:
            _, h = _z_content(_z_interpolate(gamma, v, xi))
            if _z_divide(f, h) is not None and _z_divide(g, h) is not None:
                return h if c == 1 else {e: x * c for e, x in h.items()}
        # the published growth rule, about 2.7 * xi^1.25, keeps xi above the bound
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


# The fallback: a primitive polynomial remainder sequence (Knuth, TAOCP
# vol. 2, 4.6.1) on the same integer dicts.


def _z_gcd(f: dict, g: dict) -> dict:
    """gcd of two integer polynomials, up to sign and with their common
    integer content: GCDHEU, then the remainder sequence if GCDHEU gives up."""
    if not f or not g:
        return f or g
    h = _heu_gcd(f, g)
    return _gcd_z(f, g) if h is None else h


def _z_content_pp(f: dict, v: int) -> tuple[dict, dict]:
    """(content, primitive part) of a nonzero f as a polynomial in v.  The
    content is the gcd of the coefficients, integer content included, so the
    primitive part has integer content 1."""
    cont = reduce(_z_gcd, _z_coeffs(f, v).values())
    return cont, _z_divide(f, cont)


def _gcd_z(f: dict, g: dict) -> dict:
    """gcd of two nonconstant integer polynomials, up to sign and with their
    common integer content, in the first variable v that occurs: the gcd of
    the contents times the last nonzero primitive part of the remainder
    sequence that starts from the two primitive parts."""
    v = min(i for e in (*f, *g) for i, k in enumerate(e) if k)
    cf, u = _z_content_pp(f, v)
    cg, w = _z_content_pp(g, v)
    if max(e[v] for e in u) < max(e[v] for e in w):
        u, w = w, u
    while w:
        # the pseudo-remainder of u by w: r <- lc(w)*r - lc(r)*v^(dr-dw)*w
        dw = max(e[v] for e in w)
        lw = _z_coeffs(w, v)[dw]
        r = u
        while r and (dr := max(e[v] for e in r)) >= dw:
            t = {e[:v] + (dr - dw,) + e[v + 1:]: c for e, c in r.items() if e[v] == dr}
            r = add_into(_z_mul(lw, r), _z_mul(t, w), -1)
        u, w = w, r and _z_content_pp(r, v)[1]
    return _z_mul(_z_gcd(cf, cg), u)


def divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises if b does not divide a.

    Divides a's integer terms by the primitive part of b's.  By Gauss's
    lemma a primitive polynomial that divides an integer polynomial over Q
    divides it over Z, so the integer division is exact whenever a / b is."""
    if b.is_zero():
        raise DivisionByZero("exact division by the zero polynomial")
    f, fm = _to_z(a)
    h, hm = _to_z(b)
    hc, h = _z_content(h)
    q = _z_divide(f, h)
    if q is None:
        raise ValueError("inexact polynomial division")
    # a / b = (f / fm) / (hc * h / hm) = q * hm / (fm * hc)
    den = fm * hc
    return MultiPoly._make(a.nvars, {e: Fraction(c * hm, den) for e, c in q.items()})


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd in Q[x, y1..yn], normalized primitive over Z with positive lead.

    Defined up to a constant over the field; this normalization makes it a
    function, which is what the reduced-fraction canonical form needs.  A
    constant argument gives the integer gcd of the two contents.  The
    heuristic gcd computes it; the remainder sequence takes over when the
    heuristic gives up.
    """
    if a.nvars != b.nvars:
        raise ArityError(f"mixed arities: nvars {a.nvars} vs {b.nvars}")
    f, _ = _to_z(a)
    g, _ = _to_z(b)
    h = _z_gcd(f, g)
    if not h:
        return MultiPoly.zero(a.nvars)
    if not (f and g and (_z_is_constant(f) or _z_is_constant(g))):
        h = _z_primitive(h)
    return MultiPoly._make(a.nvars, {e: Fraction(c) for e, c in h.items()})


class RatFunc:
    """Element of K = Q(x, y1..yn) as a canonical reduced fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.nvars)
        if num.nvars != den.nvars:
            raise ArityError(f"mixed arities: nvars {num.nvars} vs {den.nvars}")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            num, den = MultiPoly.zero(num.nvars), MultiPoly.one(num.nvars)
        elif not den.is_one():
            num, den = _monic(*_cancel(num, den))
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Trusted constructor: num/den must already be canonical (reduced,
        den monic, zero as 0/1)."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return cls(MultiPoly.const(nvars, c))

    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls._make(MultiPoly.zero(nvars), MultiPoly.one(nvars))

    @classmethod
    def one(cls, nvars: int) -> "RatFunc":
        one = MultiPoly.one(nvars)
        return cls._make(one, one)

    @classmethod
    def var(cls, nvars: int, index: int) -> "RatFunc":
        return cls(MultiPoly.var(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def degree(self) -> int:
        """max(deg num, deg den); used as a size measure for pivot choice."""
        return max(self.num.total_degree(), self.den.total_degree())

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if self.nvars != other.nvars:
                raise ArityError(f"mixed arities: nvars {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.nvars, other)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RatFunc._make(a + c, b) if b.is_one() else RatFunc(a + c, b)
        # Henrici: with b, d reduced against a, c, a factor shared by the
        # sum's numerator and b*d must divide g = gcd(b, d).  With g = 1 the
        # sum is canonical already: b*d is monic as a product of monic values.
        # The sum is not 0 here, since -(c/d) has the denominator d != b.
        g = poly_gcd(b, d)
        if g.is_one():
            return RatFunc._make(a * d + c * b, b * d)
        b, d = divexact(b, g), divexact(d, g)
        t, g = _cancel(a * d + c * b, g)
        return RatFunc._make(*_monic(t, b * d * g))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc._make(self.num - other.num, self.den)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc._make(self.num * other.num, self.den)
        return _times(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return _times(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        """Powers of coprime num and den stay coprime, and a power of a
        monic den is monic, so no gcd is needed."""
        if k >= 0:
            return RatFunc._make(self.num**k, self.den**k)
        if self.is_zero():
            raise DivisionByZero("negative power of zero")
        return RatFunc._make(*_monic(self.den ** (-k), self.num ** (-k)))

    def derivative(self, index: int) -> "RatFunc":
        """Partial derivative by the quotient rule, re-reduced."""
        n, d = self.num, self.den
        if d.is_one():
            return RatFunc._make(n.derivative(index), d)
        if not any(e[index] for e in n.terms) and not any(e[index] for e in d.terms):
            return RatFunc.zero(self.nvars)
        return RatFunc(n.derivative(index) * d - n * d.derivative(index), d * d)

    def evaluate(self, point) -> Fraction:
        """Value at a point; PoleAtPoint where the denominator vanishes.  Kept
        as the tests' oracle, whose reference series walk needs that error."""
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / dv

    def shear_vars(self, shifts) -> "RatFunc":
        return RatFunc(self.num.shear_vars(shifts), self.den.shear_vars(shifts))

    def swap_vars(self, index: int) -> "RatFunc":
        return RatFunc(self.num.swap_vars(index), self.den.swap_vars(index))

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _cancel(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """p and q divided by their gcd."""
    if q.is_one():
        return p, q
    g = poly_gcd(p, q)
    if g.is_one():
        return p, q
    return divexact(p, g), divexact(q, g)


def _monic(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num and den scaled so that den's grevlex-leading coefficient is 1."""
    _, lc = den.lead()
    if lc == 1:
        return num, den
    inv = 1 / lc
    return num * inv, den * inv


def _times(a: MultiPoly, b: MultiPoly, c: MultiPoly, d: MultiPoly) -> RatFunc:
    """(a/b)*(c/d) for reduced a/b and c/d, by Henrici's cross-cancellation
    (Knuth, TAOCP vol. 2, 4.5.1): once gcd(a, d) and gcd(c, b) are divided
    out the product is reduced, so b*d is never formed and then reduced."""
    if a.is_zero() or c.is_zero():
        return RatFunc.zero(a.nvars)
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return RatFunc._make(*_monic(a * c, b * d))


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def join_sum(parts: list[str]) -> str:
    """Join term strings with ' + ' / ' - ', folding leading minus signs."""
    if not parts:
        return "0"
    out = [parts[0]]
    for p in parts[1:]:
        if p.startswith("-"):
            out.append(" - " + p[1:])
        else:
            out.append(" + " + p)
    return "".join(out)


def power_product(expo: tuple[int, ...], names: list[str]) -> str:
    """name1^e1*name2^e2*..., omitting zero exponents; '' for all zeros."""
    return "*".join(name if e == 1 else f"{name}^{e}" for e, name in zip(expo, names) if e)


# Longest digit string read or printed as a number: CPython's default limit
# for int <-> str, so every supported interpreter (3.10.0-3.10.6 have none)
# stops at the same length.  The parser checks digit strings before int() or
# Fraction() sees them; format_number checks numbers before str() does.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


def format_number(c: Fraction) -> str:
    """str(c); ResourceLimit if its numerator or denominator has more than
    MAX_DIGITS digits."""
    if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
        raise ResourceLimit(f"cannot print a number with more than {MAX_DIGITS} digits")
    return str(c)


def format_monomial(expo: tuple[int, ...], coeff, names: list[str]) -> str:
    """coeff*body, with a number coeff printed by format_number and a string
    taken as printed; a coefficient that prints as 1 or -1 prints only its
    sign."""
    body = power_product(expo, names)
    c = coeff if isinstance(coeff, str) else format_number(coeff)
    if not body:
        return c
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    return f"{c}*{body}"


def format_poly(p: MultiPoly) -> str:
    names = [var_name(i, p.nvars) for i in range(p.nvars + 1)]
    expos = sorted(p.terms, key=grevlex_key, reverse=True)
    return join_sum([format_monomial(e, p.terms[e], names) for e in expos])


def _is_single_factor(p: MultiPoly) -> bool:
    """True when a denominator other than 1 prints as one grammar factor."""
    if len(p.terms) != 1:
        return False
    expo, c = next(iter(p.terms.items()))
    return sum(1 for e in expo if e) == 1 and c == 1


def format_ratfunc(f: RatFunc) -> str:
    num_s = format_poly(f.num)
    if f.den.is_one():
        return num_s
    if len(f.num.terms) > 1:
        num_s = f"({num_s})"
    den_s = format_poly(f.den)
    if not _is_single_factor(f.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
