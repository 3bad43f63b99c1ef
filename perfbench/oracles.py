"""Answer checks that share no code with the program under test.

Everything here is plain ``fractions.Fraction`` arithmetic on dictionaries.
A polynomial is a dict mapping exponent tuples to nonzero Fractions.  With
``nvars`` parameters the first ``nvars + 1`` slots are the variables
``x, y1..yn`` and, where derivative symbols appear, the next ``nvars + 1``
slots are ``Dx, Dy1..Dyn``, read as commuting symbols (the symbol of an
operator written with its coefficients on the left).

Every check returns ``None`` when the answer is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial


class OracleError(ValueError):
    """Text the oracle cannot read, such as a coefficient that is not a polynomial."""


# ---------------------------------------------------------------------------
# polynomials as dicts


def p_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_const(nsym, c):
    c = Fraction(c)
    return {(0,) * nsym: c} if c else {}


def p_var(nsym, i):
    e = [0] * nsym
    e[i] = 1
    return {tuple(e): Fraction(1)}


def p_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def p_subs(a, values):
    """Substitute numbers for the slots listed in ``values`` (slot -> value);
    those slots become zero exponents."""
    out = {}
    for e, c in a.items():
        v = c
        ne = list(e)
        for i, x in values.items():
            if e[i]:
                v *= Fraction(x) ** e[i]
                ne[i] = 0
        if v:
            ne = tuple(ne)
            s = out.get(ne, 0) + v
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
    return out


# ---------------------------------------------------------------------------
# expression text -> syntax tree

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokens(text):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"unreadable text at {text[pos:pos + 10]!r}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    out.append("")
    return out


def parse_expr(text):
    """Syntax tree of an operator or polynomial expression: nested tuples
    ("num", q), ("name", s), ("neg", a), (op, a, b) for op in + - * /, and
    ("pow", a, k)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        acc = term()
        while peek() in ("+", "-"):
            op = take()
            acc = (op, acc, term())
        return acc

    def term():
        acc = factor()
        while peek() in ("*", "/"):
            op = take()
            acc = (op, acc, factor())
        return acc

    def factor():
        if peek() == "-":
            take()
            return ("neg", factor())
        base = atom()
        if peek() == "^":
            take()
            k = take()
            if not k.isdigit():
                raise OracleError(f"exponent {k!r} is not a natural number")
            return ("pow", base, int(k))
        return base

    def atom():
        t = take()
        if t.isdigit():
            return ("num", Fraction(int(t)))
        if t == "(":
            inner = expr()
            if take() != ")":
                raise OracleError("unbalanced parenthesis")
            return inner
        if t and (t[0].isalpha()):
            return ("name", t)
        raise OracleError(f"unexpected token {t!r}")

    tree = expr()
    if peek() != "":
        raise OracleError(f"trailing text at {peek()!r}")
    return tree


def _slot(name, nvars, derivative):
    """Index of a variable name among x, y1..yn (derivative=False) or
    Dx, Dy1..Dyn (derivative=True), or None when the name is of the other kind."""
    is_d = name.startswith("D")
    if is_d != derivative:
        return None
    base = name[1:] if is_d else name
    if base == "x":
        return 0
    if base.startswith("y"):
        rest = base[1:]
        k = 1 if rest == "" and nvars == 1 else int(rest) if rest.isdigit() else -1
        if 1 <= k <= nvars:
            return k
    raise OracleError(f"unknown name {name!r}")


def symbol(tree, nvars):
    """Commutative evaluation: the symbol of an operator printed in canonical
    form (every coefficient to the left of its derivative monomial)."""
    n1 = nvars + 1
    nsym = 2 * n1

    def ev(t):
        kind = t[0]
        if kind == "num":
            return p_const(nsym, t[1])
        if kind == "name":
            s = _slot(t[1], nvars, False)
            return p_var(nsym, s) if s is not None else p_var(nsym, n1 + _slot(t[1], nvars, True))
        if kind == "neg":
            return {e: -c for e, c in ev(t[1]).items()}
        if kind == "pow":
            out = p_const(nsym, 1)
            base = ev(t[1])
            for _ in range(t[2]):
                out = p_mul(out, base)
            return out
        a, b = ev(t[1]), ev(t[2])
        if kind == "+":
            return p_add(a, b)
        if kind == "-":
            return p_add(a, b, -1)
        if kind == "*":
            return p_mul(a, b)
        return _div_const(a, b)

    return ev(tree)


def _div_const(a, b):
    if len(b) != 1 or any(next(iter(b))):
        raise OracleError("division by a non-constant")
    c = next(iter(b.values()))
    return {e: v / c for e, v in a.items()}


def action_symbol(tree, nvars):
    """Symbol of the operator an expression denotes, computed by letting the
    expression act on exp(lambda . z): each derivative D_t sends p*exp to
    (dp/dz_t + lambda_t * p)*exp, and products act right to left.  The
    lambda_t live in the derivative slots, so the result is comparable with
    symbol() of the canonical form."""
    n1 = nvars + 1
    nsym = 2 * n1

    def act(t, p):
        kind = t[0]
        if kind == "num":
            return {e: c * t[1] for e, c in p.items()} if t[1] else {}
        if kind == "name":
            s = _slot(t[1], nvars, False)
            if s is not None:
                return p_mul(p_var(nsym, s), p)
            d = _slot(t[1], nvars, True)
            return p_add(p_diff(p, d), p_mul(p_var(nsym, n1 + d), p))
        if kind == "neg":
            return {e: -c for e, c in act(t[1], p).items()}
        if kind == "pow":
            for _ in range(t[2]):
                p = act(t[1], p)
            return p
        if kind == "+":
            return p_add(act(t[1], p), act(t[2], p))
        if kind == "-":
            return p_add(act(t[1], p), act(t[2], p), -1)
        if kind == "*":
            return act(t[1], act(t[2], p))
        return _div_const(act(t[1], p), symbol(t[2], nvars))

    return act(tree, p_const(nsym, 1))


# ---------------------------------------------------------------------------
# truncated series of polynomial-times-exponential functions


def monomials_below(nsym, order):
    """Exponent tuples of total degree < order."""
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append((*prefix, left))
            return
        for e in range(left + 1):
            rec((*prefix, e), left - e, slots - 1)

    for d in range(order):
        rec((), d, nsym)
    return out


def exp_series(poly, rates, order):
    """Taylor coefficients below total degree ``order`` of poly(z) * exp(rates . z);
    poly uses the first len(rates) slots only."""
    n1 = len(rates)
    e_coef = {}
    for m in monomials_below(n1, order):
        c = Fraction(1)
        for r, k in zip(rates, m):
            c *= Fraction(r) ** k / factorial(k)
        e_coef[m] = c
    out = {}
    for pe, pc in poly.items():
        pe = pe[:n1]
        for m, c in e_coef.items():
            e = tuple(i + j for i, j in zip(pe, m))
            if sum(e) < order:
                out[e] = out.get(e, 0) + pc * c
    return {e: c for e, c in out.items() if c}


def series_from_json(obj):
    return obj["order"], {
        tuple(t["exponents"]): Fraction(t["coefficient"]) for t in obj["terms"]
    }


def rank(rows):
    rows = [dict(r) for r in rows if r]
    rk = 0
    while rows:
        pivot_row = rows.pop()
        key, pv = next(iter(pivot_row.items()))
        rk += 1
        nxt = []
        for r in rows:
            f = r.get(key)
            if f:
                r = p_add(r, {k: v * f / pv for k, v in pivot_row.items()}, -1)
            if r:
                nxt.append(r)
        rows = nxt
    return rk


def check_same_span(got, want, order):
    """got and want are lists of series dicts; compare their spans over Q on
    the monomials of total degree < order."""
    cut = lambda s: {e: c for e, c in s.items() if sum(e) < order}
    got = [cut(s) for s in got]
    want = [cut(s) for s in want]
    rw = rank(want)
    if rank(got) != rw or rank(got + want) != rw:
        return f"solution span differs from the closed form below order {order}"
    return None


def check_wronskian(w_obj, poly, rates):
    """The Wronskian must equal C * poly * exp(rates . z) with C != 0."""
    order, w = series_from_json(w_obj)
    want = exp_series(poly, rates, order)
    origin = (0,) * len(rates)
    if not w.get(origin) or not want.get(origin):
        return "Wronskian vanishes at the origin"
    c = w[origin] / want[origin]
    keys = set(w) | set(want)
    if any(w.get(e, 0) != c * want.get(e, 0) for e in keys):
        return "Wronskian is not a constant times the closed form"
    return None
