"""Truncated series solutions, Wronskians, and the D-radical test.

At an ordinary origin the solution space of a zero-dimensional ideal has
dimension r over the constants and a Taylor coefficient of a solution is
read off the quotient coordinates: for the member attached to the k-th
standard monomial, the coefficient on the monomial x^a y^b... with exponent
tuple m is

    const(num) / const(den) / m!   for coords(NF(D^m))[k] = num/den,

its value at 0 as constant term over constant term, with coords(m + e_t) =
D_t . coords(m) walked in graded order by the quotient action from the
class of 1.  A den with no constant term means the origin is not ordinary.
It is read before num: the reduced x^2/(x + y)^2 also has num constant 0,
but has no value at 0.  Over Q (see shape) a coordinate is its own value.
An expansion that would walk more than MAX_SERIES_MONOMIALS monomials,
check-dradical's deeper re-check included, is a ResourceLimit raised
before its first step, and so is a D-radical system whose solving would
cost more than MAX_DEPENDENCE_WORK.

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
vector is re-verified against a deeper expansion, to deep = order + 4, over
Q to deep = max(order + 4, r*(degree_bound + 1)), continuing the walk of
the first expansion, before being reported: first each kernel basis
vector, then, if none survives, the first dependence among their deeper
images, which names a combination whose image vanishes.  Over Q the
verdict is exact for the degree bound: a false witness on a generic line
through 0 is a nonzero exponential polynomial with at most
r*(degree_bound + 1) coefficients, which by Polya's bound cannot vanish
through order deep - 1.  Over K no such bound holds, so no verified vector
means no dependence up to the stated bounds, a semi-decision, not a proof
of D-radicality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .arith import MultiPoly, RatFunc, grevlex_key
from .errors import NonOrdinaryOrigin, ResourceLimit, TruncationTooSmall
from .gb import GroebnerBasis
from .ore import TruncSeries
from .shape import _q_echelon, quotient_action

DEPENDENCE_FOUND = "DependenceFound"
NO_DEPENDENCE = "NoDependenceUpToBound"

# Monomials of total degree below the order in nvars + 1 variables that one
# expansion may walk: --trunc 446 at nvars 1, 83 at nvars 2, 37 at nvars 3.
MAX_SERIES_MONOMIALS = 100_000
# Work of check-dradical's dependence system, rows x columns x min(rows,
# columns), about the field operations of _kernel_basis: 1 to 2 us per unit
# (Python 3.11 on a shared 2-vCPU x86-64 VM), so about 8 s at most.  For
# r = 2 at the default degree bound, --trunc 143 at nvars 1, 26 at nvars 2.
MAX_DEPENDENCE_WORK = 4_000_000


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
    """The coefficient walk behind solve_series, resumable up to order `top`.

    Holds the Taylor coefficients read off so far and the quotient
    coordinates of the last degree layer walked, which is all the next
    layer needs; solution(order) walks only the layers below `order` not yet
    reached."""

    def __init__(self, act, top: int):
        if act.r and comb(top + act.nvars, act.nvars + 1) > MAX_SERIES_MONOMIALS:
            raise ResourceLimit(f"series order {top} needs more than {MAX_SERIES_MONOMIALS} "
                                f"monomials in {act.nvars + 1} variables")
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
        zero = (0,) * (nvars + 1)
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
                for k, c in enumerate(cm):
                    if isinstance(c, RatFunc):
                        den0 = c.den.terms.get(zero)
                        if den0 is None:
                            raise NonOrdinaryOrigin(
                                f"quotient coordinate for derivative monomial {m} has a pole at 0"
                            )
                        c = c.num.terms.get(zero, 0) / den0
                    if c:
                        self.coeff_dicts[k][m] = c / fact
            self.layer = layer
        self.reached = max(self.reached, order)
        members = tuple(TruncSeries(nvars, order, d) for d in self.coeff_dicts)
        return SolutionBasis(nvars, r, order, tuple(act.basis), members)


def solve_series(gb: GroebnerBasis, order: int = 8) -> SolutionBasis:
    """Expand the canonical solution basis to guaranteed order `order`."""
    if order < 1:
        raise TruncationTooSmall("series order must be at least 1")
    return _Expansion(quotient_action(gb), order).solution(order)


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
    against a deeper expansion.  Over Q the verdict is exact for
    degree_bound; over K NoDependenceUpToBound is only about these bounds."""
    if order <= degree_bound:
        raise TruncationTooSmall("series order must exceed degree_bound")
    act = quotient_action(gb)
    deep = order + 4 if act.q_rows is None else max(order + 4, act.r * (degree_bound + 1))
    expansion = _Expansion(act, deep)
    nrows = comb(order - degree_bound + gb.nvars, gb.nvars + 1)
    ncols = act.r * comb(degree_bound + gb.nvars + 1, gb.nvars + 1)
    work = nrows * ncols * min(nrows, ncols)
    if work > MAX_DEPENDENCE_WORK:
        raise ResourceLimit(f"dependence system of {nrows} x {ncols} needs {work} units of work, "
                            f"more than {MAX_DEPENDENCE_WORK}")
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
    deep_sol = expansion.solution(deep)

    def polys_of(vec):
        polys = [{} for _ in range(r)]
        for (i, alpha), v in zip(cols, vec):
            if v:
                polys[i][alpha] = v
        return [MultiPoly(nvars, terms) for terms in polys]

    images = []
    for vec in kernel:
        polys = polys_of(vec)
        image = TruncSeries(nvars, deep)
        for p, f in zip(polys, deep_sol.members):
            image = image + TruncSeries(nvars, deep, p) * f
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
    scale = Fraction(denom, gcd(*(c.numerator * (denom // c.denominator) for c in coeffs)))
    first = next(p for p in polys if not p.is_zero())
    if first.lead()[1] * scale < 0:
        scale = -scale
    return tuple(p * scale for p in polys)
