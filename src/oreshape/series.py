"""Truncated series solutions, Wronskians, and the D-radical test.

At an ordinary origin the solution space of a zero-dimensional ideal has
dimension r over the constants and a Taylor coefficient of a solution is
read off the quotient coordinates: for the member attached to the k-th
standard monomial, the coefficient on the monomial x^a y^b... with exponent
tuple m is

    evaluate(coords(NF(D^m))[k] at 0) / m!

The coordinates are generated by the recurrence coords(m + e_t) =
d/dt coords(m) + A_t coords(m), one derivative step per monomial, walking
monomials in graded order so each predecessor is already known.  A pole at
the origin in any needed coordinate means the origin is not ordinary.

The Wronskian in x is computed by cofactor expansion: the ring of truncated
series has zero divisors, so elimination with division is not available.
Differentiating r - 1 times costs r - 1 guaranteed orders, which is the
recorded order of the result.

The D-radical test looks for polynomials p_i of total degree <= degree_bound
with sum p_i f_i = 0 through total degree order - degree_bound.  That is a
finite exact Q-linear system in the p-coefficients.  Its kernel is read off
the column dependences: the columns are walked into shape's _Echelon over
Q, and a column j that depends on the independent columns k_0 < k_1 < ...
before it, as sum c_i times column k_i, gives the kernel vector
e_j - sum c_i e_(k_i).  These are the vectors of the free columns of the
reduced echelon form, one per dependent column.  A nontrivial kernel
vector is re-verified against a deeper expansion (order + 4, continuing the
walk of the first expansion rather than starting over) before being
reported: first each kernel basis vector, then, if none survives, the
first dependence among their deeper images, which names a combination
whose image vanishes.  No verified vector means no dependence up to the
stated bounds, a semi-decision, not a proof of D-radicality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from .arith import MultiPoly, grevlex_key
from .errors import NonOrdinaryOrigin, PoleAtPoint, TruncationTooSmall
from .gb import GroebnerBasis
from .ore import TruncSeries
from .shape import _Echelon, quotient_action

DEPENDENCE_FOUND = "DependenceFound"
NO_DEPENDENCE = "NoDependenceUpToBound"


@dataclass(frozen=True)
class SolutionBasis:
    """Truncated basis of the solution space at the origin.

    members[k] is the solution whose initial coefficients are zero on all
    standard monomials except the k-th, where the Taylor normalization puts
    1/m!.  initial_monomials records the labeling."""

    nvars: int
    r: int
    order: int
    initial_monomials: tuple[tuple[int, ...], ...]
    members: tuple[TruncSeries, ...]


def _graded_monomials(nsyms: int, bound: int, start: int = 0):
    """Exponent tuples with start <= total degree < bound, by degree then grevlex."""
    def exact(prefix, remaining, slots):
        if slots == 1:
            yield (*prefix, remaining)
            return
        for e in range(remaining + 1):
            yield from exact((*prefix, e), remaining - e, slots - 1)

    for d in range(start, bound):
        yield from sorted(exact((), d, nsyms), key=grevlex_key)


class _Expansion:
    """The coefficient walk behind solve_series, resumable to a higher order.

    Holds the Taylor coefficients read off so far and the quotient
    coordinates of the last degree layer walked, which is all the next
    layer needs; solution(order) walks only the layers below `order` not yet
    reached."""

    def __init__(self, act):
        self.act = act
        self.reached = 0
        self.layer = {}
        self.coeff_dicts: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(act.r)]

    def solution(self, order: int) -> SolutionBasis:
        act = self.act
        r = act.r
        nvars = act.nvars
        if r == 0:
            return SolutionBasis(nvars, 0, order, (), ())
        origin = (Fraction(0),) * (nvars + 1)
        for d in range(self.reached, order):
            layer = {}
            for m in _graded_monomials(nvars + 1, d + 1, d):
                if d == 0:
                    cm = act.unit()
                else:
                    t = next(i for i, e in enumerate(m) if e)
                    prev = list(m)
                    prev[t] -= 1
                    cm = act.apply(t, self.layer[tuple(prev)])
                layer[m] = cm
                fact = 1
                for e in m:
                    fact *= factorial(e)
                for k in range(r):
                    try:
                        val = cm[k].evaluate(origin)
                    except PoleAtPoint:
                        raise NonOrdinaryOrigin(
                            f"quotient coordinate for derivative monomial {m} has a pole at 0"
                        ) from None
                    if val:
                        self.coeff_dicts[k][m] = val / fact
            self.layer = layer
        self.reached = max(self.reached, order)
        members = tuple(TruncSeries(nvars, order, d) for d in self.coeff_dicts)
        return SolutionBasis(nvars, r, order, tuple(act.basis), members)


def solve_series(gb: GroebnerBasis, order: int = 8) -> SolutionBasis:
    """Expand the canonical solution basis to guaranteed order `order`."""
    if order < 1:
        raise TruncationTooSmall("series order must be at least 1")
    return _Expansion(quotient_action(gb)).solution(order)


def _det(rows: list[list[TruncSeries]]) -> TruncSeries:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def wronskian_x(members) -> TruncSeries:
    """Wronskian determinant in x of the given series, by cofactor expansion.

    The recorded order is min(member orders) - (len(members) - 1)."""
    members = list(members)
    if not members:
        raise ValueError("wronskian of an empty family")
    n = min(f.order for f in members)
    r = len(members)
    if n - (r - 1) < 1:
        raise TruncationTooSmall(
            f"need guaranteed order above {r - 1} to differentiate {r} members"
        )
    rows = [members]
    for _ in range(r - 1):
        rows.append([f.diff(0) for f in rows[-1]])
    return _det(rows)


def in_normal_position_series(gb: GroebnerBasis, order: int = 8) -> bool:
    """Truncated-Wronskian proxy for normal position: nonzero Wronskian of
    the solution basis below the guaranteed order.  A zero result can be a
    truncation artifact for adversarial inputs; the algebraic test is the
    authority."""
    sol = solve_series(gb, order)
    if sol.r == 0:
        return True
    return not wronskian_x(sol.members).is_zero()


@dataclass(frozen=True)
class DRadicalVerdict:
    """Outcome of the K-linear dependence search among the solutions.

    tag is DEPENDENCE_FOUND or NO_DEPENDENCE; witness holds the polynomials
    p_i (normalized integer content, first nonzero leading coefficient
    positive) when a dependence sum p_i f_i = 0 was found and re-verified."""

    tag: str
    witness: tuple[MultiPoly, ...] | None
    degree_bound: int
    order: int

    @property
    def dependence_found(self) -> bool:
        return self.tag == DEPENDENCE_FOUND


def _q_echelon() -> _Echelon:
    """An empty echelon over Q, where every nonzero pivot is as good as any."""
    return _Echelon(Fraction(0), Fraction(1), lambda a: 0)


def _kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, one vector per dependent column."""
    ech = _q_echelon()
    independent = []
    basis = []
    for j in range(ncols):
        c = ech.add([row[j] for row in rows])
        if c is None:
            independent.append(j)
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for k, ck in zip(independent, c):
            v[k] = -ck
        basis.append(v)
    return basis


def d_radical_check(gb: GroebnerBasis, degree_bound: int = 3, order: int = 10) -> DRadicalVerdict:
    """Search for a K-linear dependence among the truncated solutions.

    Unknowns: coefficients of p_1..p_r of total degree <= degree_bound.
    Equations: every monomial of total degree < order - degree_bound in
    sum p_i f_i vanishes.  DependenceFound carries a witness re-verified
    against a deeper expansion; NoDependenceUpToBound is only a statement
    about these bounds."""
    if order <= degree_bound:
        raise TruncationTooSmall("series order must exceed degree_bound")
    expansion = _Expansion(quotient_action(gb))
    sol = expansion.solution(order)
    r = sol.r
    nvars = gb.nvars
    if r == 0:
        return DRadicalVerdict(NO_DEPENDENCE, None, degree_bound, order)
    pmonos = [m for m in _graded_monomials(nvars + 1, degree_bound + 1)]
    cols = [(i, a) for i in range(r) for a in pmonos]
    rows = []
    for beta in _graded_monomials(nvars + 1, order - degree_bound):
        row = []
        for i, alpha in cols:
            rest = tuple(b - a for b, a in zip(beta, alpha))
            if any(e < 0 for e in rest):
                row.append(Fraction(0))
            else:
                row.append(sol.members[i].coefficient(rest))
        rows.append(row)
    kernel = _kernel_basis(rows, len(cols))
    if not kernel:
        return DRadicalVerdict(NO_DEPENDENCE, None, degree_bound, order)
    deep = expansion.solution(order + 4)

    def polys_of(vec):
        polys = [{} for _ in range(r)]
        for (i, alpha), v in zip(cols, vec):
            if v:
                polys[i][alpha] = v
        return [MultiPoly(nvars, terms) for terms in polys]

    images = []
    for vec in kernel:
        polys = polys_of(vec)
        image = TruncSeries(nvars, order + 4)
        for p, f in zip(polys, deep.members):
            image = image + TruncSeries(nvars, order + 4, p) * f
        if image.is_zero():
            return DRadicalVerdict(DEPENDENCE_FOUND, _normalize_witness(polys), degree_bound, order)
        images.append(image)
    # No basis vector survives the deeper expansion, but a combination of
    # them may: the first image that depends on the ones before it names one.
    monos = sorted({m for image in images for m in image.coeffs})
    ech = _q_echelon()
    for image in images:
        c = ech.add([image.coefficient(m) for m in monos])
        if c is not None:
            t = [-a for a in c] + [Fraction(1)]
            vec = [sum((tk * v[j] for tk, v in zip(t, kernel)), Fraction(0)) for j in range(len(cols))]
            return DRadicalVerdict(DEPENDENCE_FOUND, _normalize_witness(polys_of(vec)), degree_bound, order)
    return DRadicalVerdict(NO_DEPENDENCE, None, degree_bound, order)


def _normalize_witness(polys: list[MultiPoly]) -> tuple[MultiPoly, ...]:
    coeffs = [c for p in polys for c in p.terms.values()]
    denom = lcm(*(c.denominator for c in coeffs))
    scale = Fraction(denom, gcd(*(c.numerator * (denom // c.denominator) for c in coeffs)) or 1)
    first = next((p for p in polys if not p.is_zero()), None)
    if first is not None and first.lead()[1] * scale < 0:
        scale = -scale
    return tuple(p * scale for p in polys)
