"""Linear differential operators with rational-function coefficients.

An operator is a finite sum of terms c * Dx^i * Dy1^j1 * ... * Dyn^jn with
c in K = Q(x, y1..yn).  The derivative symbols commute with each other; the
only nontrivial relations are Dx*x = x*Dx + 1 and Dyi*yi = yi*Dyi + 1, i.e.
each D acts as the partial derivative on its own variable.  Terms are stored
in canonical form with coefficients on the left and derivative monomials on
the right: a dict mapping the derivative exponent tuple (i, j1..jn) to its
nonzero coefficient.  Values are immutable by convention.

Multiplication pushes derivatives through coefficients one symbol at a time:
D_t * c = c * D_t + dc/dt, applied recursively.  This is the whole
noncommutative content of the algebra; everything downstream (reduction,
Groebner bases, elimination) sits on top of this product.

A product f*g shifts all of g once per term of f, one pass per derivative in
that term, so it is cheap only when f is short.  __pow__ therefore builds
self * out k times, and the CLI mul folds a file's product from the right.
The product fills one dict, merging each c * D^m * g into it with
arith.add_into (no multiplication when c is 1); sums, shear and apply too.

TruncSeries is the exact truncated power-series module the operators act on.
A series is a MultiPoly cut at the order N up to which its coefficients are
guaranteed: it stores only the terms of total degree < N.  Every series
operation is the MultiPoly operation followed by dropping the terms at or
above the result's order, so products run through the integer product
kernel of arith.  Orders track guarantees pessimistically: sums and products
carry min(N1, N2), differentiation drops the order by one, and applying an
operator of maximal derivative order d drops it by d.  Comparisons between
series only ever look below the smaller recorded order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .arith import MultiPoly, RatFunc, add_into, format_monomial, format_ratfunc, grevlex_key, join_sum, var_name
from .errors import ArityError, InternalError, PoleAtOrigin, TruncationTooSmall


def der_name(index: int, nvars: int) -> str:
    if index == 0:
        return "Dx"
    return "Dy" if nvars == 1 else f"Dy{index}"


class OreOperator:
    """Canonical-form element of K[Dx, Dy1..Dyn]."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], RatFunc] | None = None):
        cleaned: dict[tuple[int, ...], RatFunc] = {}
        if terms:
            for dm, c in terms.items():
                if isinstance(c, (int, Fraction)):
                    c = RatFunc.const(nvars, c)
                if c.nvars != nvars:
                    raise ArityError(f"coefficient arity {c.nvars} in operator with nvars={nvars}")
                if not c.is_zero():
                    cleaned[tuple(dm)] = c
        self.nvars = nvars
        self.terms = cleaned

    @classmethod
    def _make(cls, nvars: int, terms: dict[tuple[int, ...], RatFunc]) -> "OreOperator":
        """Trusted constructor: `terms` must already be canonical (tuple keys, nonzero
        RatFunc values of arity nvars; Fractions in gb's operators over Q) and becomes its own dict."""
        op = object.__new__(cls)
        op.nvars = nvars
        op.terms = terms
        return op

    @classmethod
    def zero(cls, nvars: int) -> "OreOperator":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "OreOperator":
        return cls.from_coeff(RatFunc.one(nvars))

    @classmethod
    def from_coeff(cls, c: RatFunc) -> "OreOperator":
        return cls(c.nvars, {(0,) * (c.nvars + 1): c})

    @classmethod
    def D(cls, nvars: int, index: int) -> "OreOperator":
        """The derivative symbol Dx (index 0) or Dy_index."""
        if not 0 <= index <= nvars:
            raise ArityError(f"derivative index {index} out of range for nvars={nvars}")
        dm = [0] * (nvars + 1)
        dm[index] = 1
        return cls(nvars, {tuple(dm): RatFunc.one(nvars)})

    @classmethod
    def monomial(cls, nvars: int, dm: tuple[int, ...]) -> "OreOperator":
        return cls(nvars, {tuple(dm): RatFunc.one(nvars)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, dm: tuple[int, ...]) -> RatFunc:
        return self.terms.get(tuple(dm), RatFunc.zero(self.nvars))

    def max_order(self) -> int:
        """Largest total derivative order among the terms (0 for zero)."""
        if not self.terms:
            return 0
        return max(sum(dm) for dm in self.terms)

    def is_free_of(self, index: int) -> bool:
        return all(dm[index] == 0 for dm in self.terms)

    def leading(self, keyfn) -> tuple[tuple[int, ...], RatFunc]:
        """Leading (derivative monomial, coefficient) under the given key."""
        dm = max(self.terms, key=keyfn)
        return dm, self.terms[dm]

    def _coerce(self, other):
        if isinstance(other, OreOperator):
            if self.nvars != other.nvars:
                raise ArityError(f"mixed arities: nvars {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return OreOperator.from_coeff(RatFunc.const(self.nvars, other))
        if isinstance(other, RatFunc):
            return OreOperator.from_coeff(other)
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
        return OreOperator._make(self.nvars, add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return OreOperator._make(self.nvars, {dm: -c for dm, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return OreOperator._make(self.nvars, add_into((-other).terms, self.terms))

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c: RatFunc) -> "OreOperator":
        """Left multiplication by an element of K."""
        if isinstance(c, (int, Fraction)):
            c = RatFunc.const(self.nvars, c)
        if c.is_zero():
            return OreOperator.zero(self.nvars)
        if c.is_one():
            return self
        # K is a field: products of nonzero coefficients are nonzero
        return OreOperator._make(self.nvars, {dm: c * v for dm, v in self.terms.items()})

    def _d_once(self, index: int) -> "OreOperator":
        """Left multiplication by the single symbol D_index: D*c*D^m = c*D^(m+1)
        + dc*D^m.  Raising one exponent is injective: only dc*D^m is merged."""
        out: dict[tuple[int, ...], RatFunc] = {}
        ders: dict[tuple[int, ...], RatFunc] = {}
        for dm, c in self.terms.items():
            up = list(dm)
            up[index] += 1
            out[tuple(up)] = c
            if not c.is_constant() and (dc := c.derivative(index)):
                ders[dm] = dc
        return OreOperator._make(self.nvars, add_into(out, ders))

    def shift(self, delta: tuple[int, ...]) -> "OreOperator":
        """Left multiplication by the monomial D^delta."""
        cur = self
        for index, times in enumerate(delta):
            for _ in range(times):
                cur = cur._d_once(index)
        return cur

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], RatFunc] = {}
        for dm, c in self.terms.items():
            add_into(out, other.shift(dm).terms, None if c.is_one() else c)
        return OreOperator._make(self.nvars, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of an operator")
        out = OreOperator.one(self.nvars)
        for _ in range(k):
            out = self * out
        return out

    def monic(self, keyfn) -> "OreOperator":
        """Divide by the leading coefficient under the given monomial key."""
        if self.is_zero():
            return self
        _, lc = self.leading(keyfn)
        if lc.is_one():
            return self
        inv = RatFunc.one(self.nvars) / lc
        return self.scale(inv)

    # -- action on truncated series ------------------------------------------

    def apply(self, f: "TruncSeries") -> "TruncSeries":
        """Apply the operator to a truncated series.

        The result order is f.order minus the maximal total derivative order:
        differentiating d times can only guarantee coefficients that far.
        Raises TruncationTooSmall when nothing would be guaranteed, and
        PoleAtOrigin when a coefficient has no expansion at 0.
        """
        if self.nvars != f.nvars:
            raise ArityError(f"mixed arities: nvars {self.nvars} vs {f.nvars}")
        d = self.max_order()
        if f.order - d < 1:
            raise TruncationTooSmall(
                f"operator of order {d} applied to a series of guaranteed order {f.order}"
            )
        out: dict[tuple[int, ...], Fraction] = {}
        for dm, c in self.terms.items():
            g = f
            for index, times in enumerate(dm):
                for _ in range(times):
                    g = g.diff(index)
            add_into(out, (ratfunc_to_series(c, g.order) * g).coeffs)
        return TruncSeries(self.nvars, f.order - d, MultiPoly._make(self.nvars, out))

    # -- substitutions ---------------------------------------------------------

    def shear(self, c) -> "OreOperator":
        """Image under the shear by c: the algebra automorphism that sends
        yi to yi + ci*x and Dx to Dx - sum(ci*Dyi), and fixes x and every Dyi.

        If the operator annihilates f(x, y), its image annihilates
        f(x, y + c*x).  shear(-c) is the inverse map.  The images are checked
        once per (nvars, c) to satisfy the same commutation relations as the
        symbols they replace.
        """
        if len(c) != self.nvars:
            raise ArityError(f"{len(c)} shear constants for nvars={self.nvars}")
        c = tuple(Fraction(v) for v in c)
        dx_img = _checked_shear_images(self.nvars, c)
        out: dict[tuple[int, ...], RatFunc] = {}
        for dm, coeff in self.terms.items():
            ys = OreOperator.monomial(self.nvars, (0, *dm[1:]))
            add_into(out, (OreOperator.from_coeff(coeff.shear_vars(c)) * dx_img ** dm[0] * ys).terms)
        return OreOperator._make(self.nvars, out)

    def swap_roles(self, index: int) -> "OreOperator":
        """Exchange the distinguished pair (x, Dx) with (y_index, Dy_index)."""
        if not 1 <= index <= self.nvars:
            raise ArityError(f"index {index} out of range for nvars={self.nvars}")
        out = {}
        for dm, c in self.terms.items():
            nd = list(dm)
            nd[0], nd[index] = nd[index], nd[0]
            out[tuple(nd)] = c.swap_vars(index)
        return OreOperator(self.nvars, out)

    def __str__(self) -> str:
        return format_operator(self)

    def __repr__(self) -> str:
        return f"OreOperator({self})"


_shear_checked: dict = {}


def _checked_shear_images(nvars: int, c: tuple[Fraction, ...]) -> OreOperator:
    """Dx - sum(ci*Dyi), the image of Dx under the shear by c, returned once
    the images of the symbols (those of the variables from shear_vars) pass
    a check.

    Cheap insurance that the sign conventions stay consistent: for each pair
    of an image derivative and an image variable the commutator must be 1 on
    the matching pair and 0 otherwise, and image derivatives must commute.
    """
    key = (nvars, c)
    dx_img = _shear_checked.get(key)
    if dx_img is not None:
        return dx_img
    dys = [OreOperator.D(nvars, i) for i in range(1, nvars + 1)]
    dx_img = OreOperator.D(nvars, 0) - sum((d.scale(ci) for d, ci in zip(dys, c)), OreOperator.zero(nvars))
    ders = [dx_img] + dys
    varops = [OreOperator.from_coeff(RatFunc.var(nvars, i).shear_vars(c)) for i in range(nvars + 1)]
    one = OreOperator.one(nvars)
    zero = OreOperator.zero(nvars)
    for a in range(nvars + 1):
        for b in range(nvars + 1):
            comm = ders[a] * varops[b] - varops[b] * ders[a]
            if comm != (one if a == b else zero):
                raise InternalError("shear images break commutation relations")
            if ders[a] * ders[b] != ders[b] * ders[a]:
                raise InternalError("shear image derivatives do not commute")
    _shear_checked[key] = dx_img
    return dx_img


class TruncSeries:
    """Power series truncated below a guaranteed total degree: a MultiPoly
    holding only its terms of total degree < order, plus that order."""

    __slots__ = ("poly", "order")

    def __init__(self, nvars: int, order: int, coeffs: MultiPoly | dict[tuple[int, ...], Fraction] | None = None):
        if order < 0:
            raise ValueError("series order must be >= 0")
        if not isinstance(coeffs, MultiPoly):
            coeffs = MultiPoly(nvars, coeffs)
        elif coeffs.nvars != nvars:
            raise ArityError(f"polynomial arity {coeffs.nvars} in a series with nvars={nvars}")
        self.poly = MultiPoly._make(nvars, {e: c for e, c in coeffs.terms.items() if sum(e) < order})
        self.order = order

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        return self.poly.terms

    @classmethod
    def one(cls, nvars: int, order: int) -> "TruncSeries":
        return cls(nvars, order, MultiPoly.one(nvars))

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(expo), Fraction(0))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.poly))

    def agrees_with(self, other: "TruncSeries") -> bool:
        """Equality of all coefficients below min(order, other.order): the
        comparison the module docstring defines, kept for the tests."""
        return TruncSeries(self.nvars, min(self.order, other.order), self.poly - other.poly).is_zero()

    def _combine(self, other, op):
        """op on the polynomials, cut at the smaller order; scalars keep self's."""
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self.nvars, self.order, op(self.poly, other))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries(self.nvars, min(self.order, other.order), op(self.poly, other.poly))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.nvars, self.order, -self.poly)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        return self._combine(other, mul)

    __rmul__ = __mul__

    def diff(self, index: int) -> "TruncSeries":
        """Partial derivative; the guaranteed order drops by one."""
        return TruncSeries(self.nvars, self.order - 1, self.poly.derivative(index))

    def swap_vars(self, index: int) -> "TruncSeries":
        return TruncSeries(self.nvars, self.order, self.poly.swap_vars(index))

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, {self})"


def ratfunc_to_series(f: RatFunc, order: int) -> TruncSeries:
    """Expand a rational function at the origin, exactly, below `order`.

    Raises PoleAtOrigin when the denominator vanishes at 0.
    """
    nvars = f.nvars
    num = TruncSeries(nvars, order, f.num)
    if f.den.is_one():
        return num
    c0 = f.den.terms.get((0,) * (nvars + 1))
    if c0 is None:
        raise PoleAtOrigin(f"no series expansion at the origin for {f}")
    # 1/den = (1/c0) * 1/(1 - u) with u = 1 - den/c0 of positive valuation
    u = TruncSeries(nvars, order, 1 - f.den * (1 / c0))
    inv = TruncSeries.one(nvars, order)
    for _ in range(order - 1):
        inv = inv * u + 1
    return num * inv * (1 / c0)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def format_operator(op: OreOperator) -> str:
    names = [der_name(i, op.nvars) for i in range(op.nvars + 1)]
    parts = []
    for dm in sorted(op.terms, key=grevlex_key, reverse=True):
        c = op.terms[dm]
        c_s = format_ratfunc(c)
        if any(dm) and c.den.is_one() and len(c.num.terms) > 1:
            c_s = f"({c_s})"
        parts.append(format_monomial(dm, c_s, names))
    return join_sum(parts)


def format_series(f: TruncSeries) -> str:
    names = [var_name(i, f.nvars) for i in range(f.nvars + 1)]
    return join_sum([format_monomial(e, f.coeffs[e], names) for e in sorted(f.coeffs, key=grevlex_key)])
