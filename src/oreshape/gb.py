"""Left Groebner bases for left ideals of K[Dx, Dy1..Dyn].

Monomial orders are key functions on derivative exponent tuples.  Reduction
only ever multiplies generators on the left by terms c * D^delta; since the
commutation corrections produced by pushing D^delta through a coefficient
are of strictly smaller derivative order, the leading monomial and leading
coefficient of D^delta * g are those of g shifted by delta, so ordinary
Buchberger theory applies verbatim.

Reduction is the textbook top-reduction: walk the remainder's terms from the
top down; cancel a term divisible by a generator's leading monomial with the
first such generator, and keep any other.  A step changes only terms below
the one it cancels, so this makes exactly the reductions of repeatedly
cancelling the largest reducible term.  It keeps one remainder dict and a
heap of its monomials (Monagan and Pearce, JSC 2011).  A step adds q * v in
place for the other terms v of D^delta * g, q = -c / lc(g) (no division for
lc(g) = 1), pushing new monomials and deleting cancelled ones; the top term
cancels exactly and is dropped, and popped monomials no longer in the dict
are skipped.  A GroebnerBasis keeps its generators' leads for its order.

One consequence of the noncommutative coefficients is that the classical
coprime-leading-monomial criterion is unsound here, so it is not used.

Pairs are processed smallest lcm first.  Buchberger's chain criterion skips
a popped pair (i, j) when some other generator k has lm_k | m = lcm(lm_i,
lm_j) and neither {i, k} nor {j, k} is still pending (pushed and not yet
popped; a skipped pair counts as done).  It holds in K[D] because the D's
commute with each other and lm(c * D^a * f) = a + lm(f): for monic
generators, with m_ik = lcm(lm_i, lm_k) and m_jk alike, both dividing m,

    S(i,j) = D^(m - m_ik) * S(i,k) - D^(m - m_jk) * S(j,k).

A reduced pair's S-polynomial is a combination of basis elements with all
terms below its lcm, and a shift by D^(m - m_ik) keeps them below m.
Unfolding the skipped pairs in the order they were popped (each rests on two
pairs popped before it) gives every S(i,j) such a representation below its
m, which is all Buchberger's criterion needs (Kandri-Rody and Weispfenning,
JSC 1990; Gebauer and Moeller, JSC 1988).  The reduced basis is unique, so
skipping changes no result.  A cap on the derivative order of new basis
elements turns runaway completions into a clean DegreeCapExceeded.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product

from .arith import grevlex_key
from .errors import ArityError, DegreeCapExceeded, NotZeroDimensional
from .ore import OreOperator, der_name

_KEYS = {
    # graded reverse lexicographic, Dx > Dy1 > ... > Dyn
    "degrevlex": grevlex_key,
    # lexicographic, Dx > Dy1 > ... > Dyn: the exponent tuple itself
    "lex": tuple,
    # the Dyi by their own grevlex first, then Dx
    "elim": lambda dm: (*grevlex_key(dm[1:]), dm[0], -dm[0]),
}


class TermOrder:
    """Monomial order on derivative exponent tuples, as a sort key.

    kind is one of "degrevlex", "lex", "elim", with Dx > Dy1 > ... > Dyn.
    "elim" compares the Dyi first by their own graded reverse lexicographic
    order, then Dx; any monomial involving a Dyi is larger than any
    Dyi-free one, so Dyi-free members of a reduced basis generate the
    elimination ideal.
    """

    __slots__ = ("kind", "nvars", "key")

    def __init__(self, kind: str, nvars: int):
        if kind not in _KEYS:
            raise ValueError(f"unknown term order {kind!r}")
        self.kind = kind
        self.nvars = nvars
        self.key = _KEYS[kind]

    @classmethod
    def degrevlex(cls, nvars: int) -> "TermOrder":
        return cls("degrevlex", nvars)

    @classmethod
    def lex(cls, nvars: int) -> "TermOrder":
        return cls("lex", nvars)

    @classmethod
    def elim(cls, nvars: int) -> "TermOrder":
        return cls("elim", nvars)

    def __eq__(self, other):
        if not isinstance(other, TermOrder):
            return NotImplemented
        return (self.kind, self.nvars) == (other.kind, other.nvars)

    def __hash__(self):
        return hash((self.kind, self.nvars))

    def __repr__(self):
        return f"TermOrder({self.kind!r}, nvars={self.nvars})"


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(i <= j for i, j in zip(a, b))


def _leads(gens, order: TermOrder):
    return [(g, *g.leading(order.key)) for g in gens if not g.is_zero()]


def left_reduce(f: OreOperator, gens, order: TermOrder) -> OreOperator:
    """Full left normal form of f modulo the given generators.

    Top-reduction: walk the remainder's terms from the largest down.  A term
    c * D^m divisible by a generator's leading monomial is cancelled by
    subtracting (c / lc(g)) * D^delta * g for the first such g; any other
    term is kept.  Terms above the one cancelled never change, so this is
    the same as cancelling the largest divisible term every step.  The
    result has no term divisible by any generator's leading monomial.
    Against a Groebner basis this is the K-linear normal-form projection
    onto standard monomials.
    """
    cached = isinstance(gens, GroebnerBasis) and gens.order == order
    lead = gens._cache["lead"] if cached else _leads(gens, order)
    if any(g.nvars != f.nvars for g, _, _ in lead):
        raise ArityError("generator arity differs from operand")
    key = order.key
    r = dict(f.terms)
    heap = [(tuple(-k for k in key(dm)), dm) for dm in r]
    heapify(heap)
    while heap:
        _, dm = heappop(heap)
        c = r.get(dm)
        if c is None:
            continue  # cancelled after it was pushed
        for g, lm, lc in lead:
            if _divides(lm, dm):
                q = -c if lc.is_one() else -c / lc
                del r[dm]  # lm(D^delta * g) = dm with coefficient lc
                # arith.add_into's merge, inline: a new key also goes onto the heap
                for v, a in g.shift(tuple(i - j for i, j in zip(dm, lm))).terms.items():
                    if v == dm:
                        continue
                    s = r.get(v)
                    if s is None:
                        r[v] = q * a
                        heappush(heap, (tuple(-k for k in key(v)), v))
                    elif s := s + q * a:
                        r[v] = s
                    else:
                        del r[v]
                break
    return OreOperator._make(f.nvars, r)


def _spoly(g1: OreOperator, g2: OreOperator, order: TermOrder) -> OreOperator:
    """S-polynomial of two monic generators."""
    lm1, _ = g1.leading(order.key)
    lm2, _ = g2.leading(order.key)
    m = tuple(max(a, b) for a, b in zip(lm1, lm2))
    d1 = tuple(a - b for a, b in zip(m, lm1))
    d2 = tuple(a - b for a, b in zip(m, lm2))
    return g1.shift(d1) - g2.shift(d2)


class GroebnerBasis:
    """A reduced left Groebner basis: monic generators, each fully reduced
    against the others, sorted by leading monomial ascending."""

    __slots__ = ("nvars", "order", "gens", "_cache")

    def __init__(self, nvars: int, order: TermOrder, gens):
        self.nvars = nvars
        self.order = order
        self.gens = tuple(gens)
        self._cache = {"lead": _leads(self.gens, order)}

    def leading_monomials(self):
        return [g.leading(self.order.key)[0] for g in self.gens]

    def reduce(self, f: OreOperator) -> OreOperator:
        return left_reduce(f, self, self.order)

    def contains(self, f: OreOperator) -> bool:
        return self.reduce(f).is_zero()

    def _staircase_bounds(self):
        """Minimal pure-power exponent of each symbol among the leading
        monomials, or None where no pure power occurs."""
        lms = self.leading_monomials()
        bounds = []
        for t in range(self.nvars + 1):
            pures = [lm[t] for lm in lms if all(e == 0 for i, e in enumerate(lm) if i != t)]
            bounds.append(min(pures) if pures else None)
        return bounds

    def is_zero_dimensional(self) -> bool:
        return all(b is not None for b in self._staircase_bounds())

    def quotient_basis(self):
        """Standard monomials under the staircase, sorted ascending.

        Raises NotZeroDimensional when the quotient is infinite dimensional.
        """
        if "qb" in self._cache:
            return self._cache["qb"]
        bounds = self._staircase_bounds()
        for t, b in enumerate(bounds):
            if b is None:
                raise NotZeroDimensional(
                    f"no pure power of {der_name(t, self.nvars)} among the leading monomials"
                )
        lms = self.leading_monomials()
        basis = [
            dm
            for dm in product(*(range(b) for b in bounds))
            if not any(_divides(lm, dm) for lm in lms)
        ]
        basis.sort(key=self.order.key)
        self._cache["qb"] = basis
        return basis

    def dimension(self) -> int:
        return len(self.quotient_basis())

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.nvars == other.nvars and self.order == other.order and self.gens == other.gens

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return "GroebnerBasis[" + "; ".join(str(g) for g in self.gens) + "]"


def groebner_basis(gens, order: TermOrder, degree_cap: int = 30) -> GroebnerBasis:
    """Buchberger completion followed by full interreduction.

    Every generator entering the working basis (inputs included) must stay
    within `degree_cap` total derivative order.
    """
    work = []
    nvars = None
    for g in gens:
        if g.is_zero():
            continue
        if nvars is None:
            nvars = g.nvars
        elif g.nvars != nvars:
            raise ArityError("generators have mixed arities")
        if g.max_order() > degree_cap:
            raise DegreeCapExceeded(f"generator order {g.max_order()} exceeds cap {degree_cap}")
        gm = g.monic(order.key)
        if gm not in work:
            work.append(gm)
    if not work:
        raise ValueError("ideal needs at least one nonzero generator")

    lms = [g.leading(order.key)[0] for g in work]

    def lcm(i, j):
        return tuple(map(max, lms[i], lms[j]))

    def pair(i, j):
        return (order.key(lcm(i, j)), i, j)

    def done(i, k):
        return ((i, k) if i < k else (k, i)) not in pending

    pairs = [pair(i, j) for j in range(len(work)) for i in range(j)]
    pending = {(i, j) for _, i, j in pairs}
    heapify(pairs)
    while pairs:
        _, i, j = heappop(pairs)
        pending.remove((i, j))
        m = lcm(i, j)
        if any(
            k != i and k != j and _divides(lms[k], m) and done(i, k) and done(j, k)
            for k in range(len(work))
        ):
            continue  # the chain criterion
        h = left_reduce(_spoly(work[i], work[j], order), work, order)
        if h.is_zero():
            continue
        if h.max_order() > degree_cap:
            raise DegreeCapExceeded(
                f"completion produced order {h.max_order()}, cap is {degree_cap}"
            )
        k = len(work)
        work.append(h.monic(order.key))
        lms.append(work[k].leading(order.key)[0])
        for i2 in range(k):
            heappush(pairs, pair(i2, k))
            pending.add((i2, k))

    # interreduction: minimal leading monomials, then tail reduction
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
    return GroebnerBasis(nvars, order, reduced)
