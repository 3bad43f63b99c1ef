"""Truncated series solutions, Wronskians, and the D-radical test.

At an ordinary origin the solution space of a zero-dimensional ideal has
dimension r over the constants.  The quotient coordinates c_m =
coords(NF(D^m)) are walked in graded order from the class of 1 by the
quotient action, c_(m+e_t) = d/dt c_m + A_t*c_m, and the member of the k-th
standard monomial has coefficient c_m[k](0)/m! on x^a y^b... with exponent
tuple m.  Over Q (see shape) c_m is constant.  Over K the walk runs over
Z[x, y] and computes no gcd: with the polynomial D, the lcm of the A_t
denominators, and each B_t = D*A_t over Z (shape's z_form), c_m = w_m/D^|m|
for w_(m+e_t) = D*d/dt w_m - |m|*(d/dt D)*w_m + B_t*w_m, and c_m(0) =
w_m(0)/D(0)^|m|.  Only d/dt lowers a degree, by one per step, so the terms
of w_m of total degree top - |m| or more never reach a constant term below
order top: a walk made for order top drops them, exactly, check-dradical's
resumed walk included.  A walk past MAX_SERIES_MONOMIALS monomials,
check-dradical's deeper re-check included, is a ResourceLimit raised before
its first step, and so is a D-radical system, or a re-check of its kernel,
that would cost more than MAX_DEPENDENCE_WORK.

Over K with D(0) = 0 every series command raises NonOrdinaryOrigin before
any step, naming a derivative whose matrix has the pole.  This one test is
exact: D(0) != 0 exactly when every entry of every A_t is a formal power
series at 0, and when D(0) = 0 no canonical basis exists.  Write z = (x,
y1..yn) and an entry as p/q in lowest terms: q | D, and each irreducible
factor of D divides some q, so D(0) = 0 exactly when some q(0) = 0.  Then
p/q is no power series: Q[z]_(z) -> Q[[z]] is faithfully flat, so q | p in
Q[[z]] would give s*p = q*a over Q[z] with s(0) != 0, and an irreducible
factor of q that vanishes at 0 would divide s*p but not p, hence s(0) = 0.
A canonical basis would make every entry a power series: F(0) = I makes F
invertible over Q[[z]], and d/dt F = A_t^T*F (below) gives A_t^T = d/dt
F*F^-1.  So a low-order answer there would be the truncation of a basis
that does not exist.

The Wronskian in x of the solution basis comes from Liouville's formula
(Abel-Jacobi-Liouville; Coddington and Levinson, Theory of Ordinary
Differential Equations, McGraw-Hill 1955, ch. 1), with no member walked.
Let F_(j,k) = D^(b_j) f_k for the standard monomials b_j and the members
f_k.  Their normalization gives F(0) = I, and D_t*D^(b_j) = sum_i
A_t[i][j]*D^(b_i) modulo I gives d/dt F = A_t^T*F, so det F is the series
g with d/dt g = tr(A_t)*g and g(0) = 1.  The Wronskian matrix is Kry*F,
where the rows of Kry are the Krylov vectors 1, Dx, ..., Dx^(r-1) of the
class of 1, so W = series(det Kry)*g, cut at order - (r - 1): differentiating
r - 1 times costs r - 1 guaranteed orders.  det Kry is read off the echelon
of shape's Krylov walk (the sign of the pivot permutation times the product
of the pivots); a walk that stops before r means the ideal is not in normal
position and W = 0.  tr(A_t) is the diagonal of the action's rows.  With
tr(A_t) = N_t/T_t and det Kry = P/Q, every coefficient of g and of W comes
from earlier ones by a recurrence, T_t*d/dt g = N_t*g and Q*W = P*g, at
a cost linear in the monomials below the order.  Over Q, T_t = Q = 1 and
g = exp(sum tr(A_t)*x_t).  Over K this needs T_t(0) and Q(0) nonzero,
which holds since both divide powers of D and D(0) != 0.

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
from functools import reduce
from math import comb, gcd, lcm
from operator import mul, sub

from .arith import MultiPoly, RatFunc
from .errors import NonOrdinaryOrigin, ResourceLimit, TruncationTooSmall
from .gb import GroebnerBasis
from .ore import TruncSeries, der_name
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
    """Exponent tuples with start <= total degree < bound, by degree then
    grevlex: within a degree the last exponent falls first, then the one
    before it, so no layer needs a sort."""
    def exact(suffix, remaining, slots):
        if slots == 1:
            yield (remaining, *suffix)
            return
        for e in range(remaining, -1, -1):
            yield from exact((e, *suffix), remaining - e, slots - 1)

    for d in range(start, bound):
        yield from exact((), d, nsyms)


class _Expansion:
    """The coefficient walk behind solve_series, resumable up to order `top`.

    Holds the Taylor coefficients read off so far and, for each monomial m
    of the last degree layer walked, its quotient coordinates (over Z, their
    numerators) and m!, which is all the next layer needs; solution(order)
    walks only the layers below `order` not yet reached."""

    def __init__(self, act, top: int):
        if act.r and comb(top + act.nvars, act.nvars + 1) > MAX_SERIES_MONOMIALS:
            raise ResourceLimit(f"series order {top} needs more than {MAX_SERIES_MONOMIALS} "
                                f"monomials in {act.nvars + 1} variables")
        self.act = act
        self.top = top
        self.reached = 0
        self.layer = {}
        self.coeff_dicts: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(act.r)]
        self.form = act.r and not act.gb.over_q and act.z_form(top + 1)
        self.d0 = self.form and dict(self.form[1]).get(0)  # D(0) when the walk runs over Z
        if self.form and not self.d0:
            zero = (0,) * (act.nvars + 1)
            t = next(t for t, At in enumerate(act.rows) for row in At for _, a in row if zero not in a.den.terms)
            raise NonOrdinaryOrigin(f"the origin is not ordinary: the matrix of {der_name(t, act.nvars)} "
                                    "has a pole at 0")

    def solution(self, order: int) -> SolutionBasis:
        act, r, nvars = self.act, self.act.r, self.act.nvars
        if r == 0:
            return SolutionBasis(nvars, 0, order, (), ())
        d0 = self.d0
        for d in range(self.reached, order):
            layer = {}
            scale = d0**d if d0 else 1  # D(0)^|m|
            for m in _graded_monomials(nvars + 1, d + 1, d):
                if d == 0:
                    cm = [{} if any(dm) else {0: 1} for dm in act.basis] if d0 else act.unit()
                    fact = 1
                else:
                    t = next(i for i, e in enumerate(m) if e)
                    prev, fact = self.layer[m[:t] + (m[t] - 1,) + m[t + 1:]]
                    cm = act.apply_z(t, prev, d - 1, self.top - d, self.form) if d0 else act.apply(t, prev)
                    fact *= m[t]  # m! = (m - e_t)!*m_t
                layer[m] = cm, fact
                div = scale * fact
                for k, c in enumerate(cm):
                    c = c.get(0) and Fraction(c[0], div) if d0 else c / fact
                    if c:
                        self.coeff_dicts[k][m] = c
            self.layer = layer
        self.reached = max(self.reached, order)
        members = tuple(TruncSeries(nvars, order, d) for d in self.coeff_dicts)
        return SolutionBasis(nvars, r, order, tuple(act.basis), members)


def solve_series(gb: GroebnerBasis, order: int = 8) -> SolutionBasis:
    """Expand the canonical solution basis to guaranteed order `order`."""
    if order < 1:
        raise TruncationTooSmall("series order must be at least 1")
    return _Expansion(quotient_action(gb), order).solution(order)


def _num_den(v, zero: tuple) -> tuple[list, Fraction, list]:
    """(N, D(0), D - D(0)) for v = N/D in K or in Q with D(0) != 0, the
    polynomials as terms (exponent tuple, coefficient)."""
    if not isinstance(v, RatFunc):
        return [(zero, v)], 1, []
    den = dict(v.den.terms)
    return list(v.num.terms.items()), den.pop(zero), list(den.items())


def _pull(terms: list, coeffs: dict, m: tuple) -> Fraction:
    """sum c*coeffs[m - e] over the terms (e, c): the coefficient on m of a
    product (a rest with a negative exponent is no key of coeffs)."""
    total = 0
    for e, c in terms:
        v = coeffs.get(tuple(map(sub, m, e)))
        if v:
            total += c * v
    return total


def _liouville(act, n: int) -> TruncSeries:
    """W = series(det Kry)*g below order n, for r > 0 (see the module docstring)."""
    r, nvars = act.r, act.nvars
    zero = (0,) * (nvars + 1)
    lam, ech = act.krylov()
    if len(lam) < r:
        return TruncSeries(nvars, n)
    # Kry = L*R, with R the echelon rows (1 at their own pivot, 0 at the
    # pivots before it) and L lower triangular with the pivot values
    # 1/comb[-1] on its diagonal: det Kry = sign(pivot permutation)*product.
    pivots = [p for p, _, _ in ech.rows]
    flips = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    det = ech.one / reduce(mul, (c[-1] for _, _, c in ech.rows))
    p, q0, q_rest = _num_den(-det if flips % 2 else det, zero)
    traces = [_num_den(sum((a for i, row in enumerate(At) for j, a in row if j == i), ech.zero), zero)
              for At in act.rows]
    g, w = {}, {}
    for m in _graded_monomials(nvars + 1, n):
        if any(m):
            # T_t*d/dt g = N_t*g at m - e_t, for the first variable t of m
            t = next(i for i, e in enumerate(m) if e)
            num, t0, t_rest = traces[t]
            rest = [(e, a * (m[t] - e[t])) for e, a in t_rest]
            c = _pull(num, g, m[:t] + (m[t] - 1,) + m[t + 1:]) - _pull(rest, g, m)
            if c:
                g[m] = c / (t0 * m[t])
        else:
            g[m] = Fraction(1)
        c = _pull(p, g, m) - _pull(q_rest, w, m)  # Q*W = P*g
        if c:
            w[m] = c / q0
    return TruncSeries(nvars, n, w)


def wronskian_x(gb: GroebnerBasis, order: int = 8) -> TruncSeries:
    """Wronskian determinant in x of the canonical solution basis of
    solve_series(gb, order), guaranteed to order - (r - 1), by Liouville's
    formula (see the module docstring).  It refuses what solve_series
    refuses.  The unit ideal's empty family has the empty determinant 1."""
    if order < 1:
        raise TruncationTooSmall("series order must be at least 1")
    act = quotient_action(gb)
    _Expansion(act, order)
    if act.r == 0:
        return TruncSeries.one(act.nvars, order + 1)
    if order - (act.r - 1) < 1:
        raise TruncationTooSmall(f"need guaranteed order above {act.r - 1} to differentiate {act.r} members")
    return _liouville(act, order - (act.r - 1))


def in_normal_position_series(gb: GroebnerBasis, order: int = 8) -> bool:
    """Truncated-Wronskian proxy for normal position: nonzero Wronskian of
    the solution basis below the guaranteed order.  A zero result can be a
    truncation artifact for adversarial inputs; the algebraic test is the
    authority."""
    return not wronskian_x(gb, order).is_zero()


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


def _check_work(what: str, nrows: int, ncols: int) -> None:
    """Refuse a system whose solving would cost more than MAX_DEPENDENCE_WORK."""
    work = nrows * ncols * min(nrows, ncols)
    if work > MAX_DEPENDENCE_WORK:
        raise ResourceLimit(f"{what} of {nrows} x {ncols} needs {work} units of work, more than {MAX_DEPENDENCE_WORK}")


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
    deep = max(order + 4, act.r * (degree_bound + 1)) if gb.over_q else order + 4
    expansion = _Expansion(act, deep)
    _check_work("dependence system", comb(order - degree_bound + gb.nvars, gb.nvars + 1),
                act.r * comb(degree_bound + gb.nvars + 1, gb.nvars + 1))
    sol = expansion.solution(order)
    r, nvars = sol.r, gb.nvars
    if r == 0:
        return DRadicalVerdict(NO_DEPENDENCE, None, degree_bound, order)
    cols = [(i, a) for i in range(r) for a in _graded_monomials(nvars + 1, degree_bound + 1)]
    # a rest with a negative exponent is no key of a member: coefficient 0
    rows = [[sol.members[i].coefficient(tuple(map(sub, beta, alpha))) for i, alpha in cols]
            for beta in _graded_monomials(nvars + 1, order - degree_bound)]
    kernel = _kernel_basis(rows, len(cols))
    if not kernel:
        return DRadicalVerdict(NO_DEPENDENCE, None, degree_bound, order)
    _check_work("deeper re-check", len(kernel), comb(deep + nvars, nvars + 1))
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
