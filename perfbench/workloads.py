"""Job generators for the four workloads, with their oracles.

A job is a short pipeline of CLI commands run on ideal files that this
module writes as text; the program under test sees nothing else.  Each
workload is a fixed list of cells (a job shape, such as r = 3 points in
nvars = 2).  Every cell has VARIANTS concrete variants, drawn from a random
generator seeded by the cell name, so the pool is finite and its outputs
are recorded once (golden.json).  A run's seed orders the pool, and a run
times whole passes over it.  Every run measures the same pool because the
cost of variants of one cell differs by up to 3x, which made runs that drew
different variants disagree by 10-15% on a 2-core VM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import oracles as orc

VARIANTS = 2


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``argv`` is the command and its flags; the runner adds
    the file argument "-" and "--json".  ``text`` is the ideal file fed on
    stdin, or None to pipe the ``pipe`` field of the previous step's result
    (a list of operators) back in as an ideal file."""

    argv: tuple
    text: str | None = None
    pipe: str = ""


@dataclass(frozen=True)
class Job:
    key: str
    nvars: int
    steps: tuple
    check: object = field(compare=False)  # callable(list of result dicts) -> str | None


# ---------------------------------------------------------------------------
# text helpers


def q_str(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def d_name(t, nvars):
    return "Dx" if t == 0 else ("Dy" if nvars == 1 else f"Dy{t}")


def lin(coeffs, names, const=0):
    """Text of sum coeffs[i]*names[i] + const, e.g. 'Dx + 2*Dy1 - 3'."""
    parts = []
    for c, name in zip(coeffs, names):
        c = Fraction(c)
        if c:
            mag = "" if abs(c) == 1 else q_str(abs(c)) + "*"
            parts.append(("-" if c < 0 else "+", mag + name))
    if const or not parts:
        parts.append(("-" if const < 0 else "+", q_str(abs(Fraction(const)))))
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def solve_linear(rows, rhs):
    """Exact solution of a square nonsingular system over Q."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        p = next(i for i in range(col, n) if m[i][col])
        m[col], m[p] = m[p], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# annihilators of exponential solutions


@dataclass(frozen=True)
class Points:
    """Solutions exp(lam . z) for each point lam = (a, b1..bn); a point with
    multiplicity 2 also gives x * exp(lam . z)."""

    nvars: int
    lams: tuple
    mults: tuple

    def basis(self):
        """Solution basis as (polynomial, rates) pairs."""
        n1 = self.nvars + 1
        one = orc.p_const(n1, 1)
        out = []
        for lam, m in zip(self.lams, self.mults):
            out.append((one, lam))
            if m == 2:
                out.append((orc.p_var(n1, 0), lam))
        return out

    def rate_sum(self):
        return tuple(sum(m * lam[t] for lam, m in zip(self.lams, self.mults)) for t in range(self.nvars + 1))

    @property
    def r(self):
        return sum(self.mults)


def ells(pts: Points, c):
    """Values ell_k = a_k + c . b_k of the linear form Dx + c . Dy at the points."""
    return [lam[0] + sum(ci * bi for ci, bi in zip(c, lam[1:])) for lam in pts.lams]


def ideal_text(pts: Points, c):
    """Generators of the annihilator in shape form along ell = Dx + c . Dy:
    P(ell) = prod (ell - ell_k)^m_k and Dyi - L_i(ell), with L_i the Hermite
    interpolant of the b_k[i] (zero slope at double points).  The ell_k
    must be distinct."""
    n = pts.nvars
    dnames = [d_name(t, n) for t in range(n + 1)]
    ell_txt = lin((1, *c), dnames)
    values = ells(pts, c)
    if len(set(values)) != len(values):
        raise ValueError("the linear form does not separate the points")
    factors = []
    for e, m in zip(values, pts.mults):
        factors.append(f"({lin((1, *c), dnames, -e)})" + (f"^{m}" if m > 1 else ""))
    lines = [f"# nvars {n}", "*".join(factors)]
    r = pts.r
    rows = []
    for e, m in zip(values, pts.mults):
        rows.append([e**j for j in range(r)])
        if m == 2:
            rows.append([j * e ** (j - 1) if j else 0 for j in range(r)])
    powers = [f"({ell_txt})" + (f"^{j}" if j > 1 else "") for j in range(r - 1, 0, -1)]
    for i in range(1, n + 1):
        rhs = []
        for lam, m in zip(pts.lams, pts.mults):
            rhs += [lam[i]] + [0] * (m - 1)
        coef = solve_linear(rows, rhs)
        if any(coef):
            lines.append(f"{dnames[i]} - ({lin(coef[:0:-1], powers, coef[0])})")
        else:
            lines.append(dnames[i])
    return "\n".join(lines) + "\n"


def random_points(rng, nvars, r, repeat_a=False, double=False, a_range=2, b_range=1):
    """r solutions: distinct points, x-rates distinct unless repeat_a (then
    exactly two points share one), the first point doubled if double.  Every
    y-rate takes at least two values, so every variant of a cell has the
    same structure and a similar cost."""
    npts = r - 1 if double else r
    while True:
        if repeat_a:
            a_vals = rng.sample(range(-a_range, a_range + 1), npts - 1)
            a_vals.append(a_vals[0])
        else:
            a_vals = rng.sample(range(-a_range, a_range + 1), npts)
        lams = tuple(
            (Fraction(a), *(Fraction(rng.randint(-b_range, b_range)) for _ in range(nvars)))
            for a in a_vals
        )
        if len(set(lams)) == npts and (npts < 2 or all(len({lam[i] for lam in lams}) > 1 for i in range(1, nvars + 1))):
            mults = (2,) + (1,) * (npts - 1) if double else (1,) * npts
            return Points(nvars, lams, mults)


def random_presentation(rng, pts):
    """Integer c with distinct ell_k = a_k + c . b_k: a single entry +-1 when
    one separates the points, else small random entries."""
    n = pts.nvars
    sparse = [tuple(Fraction(s if j == i else 0) for j in range(n)) for i in range(n) for s in (1, -1)]
    rng.shuffle(sparse)
    while True:
        c = sparse.pop() if sparse else tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        values = ells(pts, c)
        if len(set(values)) == len(values):
            return c


# ---------------------------------------------------------------------------
# oracles wired to CLI results


def _symbol_at(text, nvars, lam):
    """Polynomial m(z) with M(exp(lam . z)) = m(z) exp(lam . z)."""
    n1 = nvars + 1
    sym = orc.action_symbol(orc.parse_expr(text), nvars)
    sub = orc.p_subs(sym, {n1 + t: lam[t] for t in range(n1)})
    return {e[:n1]: c for e, c in sub.items()}


def check_shape(pts: Points, results):
    """normalize then shape: P(a_k + c.b_k) = 0, Qi(a_k + c.b_k) = b_k[i]."""
    n = pts.nvars
    n1 = n + 1
    c = [Fraction(s) for s in results[0]["shear"]]
    shape = results[1]
    if shape["dimension"] != pts.r:
        return f"dimension {shape['dimension']} != {pts.r}"
    values = ells(pts, c)

    def univariate(text):
        sym = orc.symbol(orc.parse_expr(text), n)
        if any(any(e[:n1]) or any(e[n1 + 1:]) for e in sym):
            raise orc.OracleError(f"{text!r} is not a constant-coefficient polynomial in Dx")
        return {e[n1]: v for e, v in sym.items()}

    def at(poly, v):
        return sum(cf * v**k for k, cf in poly.items())

    p = univariate(shape["P"])
    if max(p, default=-1) != pts.r or p[pts.r] != 1:
        return "P is not monic of order r"
    if any(at(p, e) for e in values):
        return "P does not vanish at the sheared x-rates"
    for i, qt in enumerate(shape["Q"], start=1):
        q = univariate(qt)
        if any(at(q, e) != lam[i] for e, lam in zip(values, pts.lams)):
            return f"Q{i} does not interpolate the y{i}-rates"
    return None


def check_gauge(pts: Points, m_text, results):
    """gauge, solve, apply: both spans equal that of M(exp(lam_k . z))."""
    images = [_symbol_at(m_text, pts.nvars, lam) for lam in pts.lams]
    for res, key in ((results[1], "members"), (results[2], "images")):
        got = [orc.series_from_json(s) for s in res[key]]
        order = min(o for o, _ in got)
        want = [orc.exp_series(m, lam, order) for m, lam in zip(images, pts.lams)]
        why = orc.check_same_span([s for _, s in got], want, order)
        if why:
            return f"{key}: {why}"
        if len(got) != pts.r:
            return f"{key}: {len(got)} series for dimension {pts.r}"
    return None


def check_series(kind, pts: Points, q, results):
    """q is the conjugating polynomial x + c (the constant 1 when absent)."""
    res = results[0]
    basis = [(orc.p_mul(q, p), lam) for p, lam in pts.basis()]
    if kind == "solve":
        got = [orc.series_from_json(s) for s in res["members"]]
        order = got[0][0]
        want = [orc.exp_series(p, lam, order) for p, lam in basis]
        return orc.check_same_span([s for _, s in got], want, order)
    if kind == "wronskian":
        qr = orc.p_const(pts.nvars + 1, 1)
        for _ in range(pts.r):
            qr = orc.p_mul(qr, q)
        return orc.check_wronskian(res["wronskian"], qr, pts.rate_sum())
    want = "DependenceFound" if 2 in pts.mults else "NoDependenceUpToBound"
    return None if res["verdict"] == want else f"verdict {res['verdict']}, expected {want}"


def check_symbol(nvars, input_text, results):
    """parse/mul: the printed operator has the same symbol as the input expression."""
    want = orc.action_symbol(orc.parse_expr(input_text), nvars)
    res = results[0]
    printed = res["operators"][0] if "operators" in res else res["product"]
    got = orc.symbol(orc.parse_expr(printed), nvars)
    return None if got == want else "printed operator differs from the input expression"


# ---------------------------------------------------------------------------
# the four workloads


@dataclass(frozen=True)
class Cell:
    name: str
    weight: int  # jobs of each variant of this cell in every pass
    make: object  # callable(random.Random) -> (nvars, steps, check)


def _shape_const(r, n, repeat, rng):
    pts = random_points(rng, n, r, repeat_a=repeat)
    text = ideal_text(pts, random_presentation(rng, pts))
    steps = (Step(("normalize",), text), Step(("shape",), None, "basis"))
    return n, steps, partial(check_shape, pts)


GAUGE_TRUNC = 6


def _gauge_multiplier(rng):
    """A polynomial a*x + b with b != 0, so the origin stays ordinary."""
    return lin((rng.choice((1, 2, 3, -1, -2)),), ("x",), rng.choice((1, 2, 3, -1, -2, -3)))


def _gauge_steps(text, m_text):
    ideal_body = "\n".join(text.splitlines()[1:])
    nv = text.splitlines()[0]
    return (
        Step(("gauge", "--cyclic-vector", m_text), text),
        Step(("solve", "--trunc", str(GAUGE_TRUNC)), None, "generators"),
        Step(("apply", "--trunc", str(GAUGE_TRUNC)), f"{nv}\n{m_text}\n{ideal_body}\n"),
    )


def _gauge_rational(r, n, rng):
    pts = random_points(rng, n, r)
    text = ideal_text(pts, random_presentation(rng, pts))
    m_text = _gauge_multiplier(rng)
    return n, _gauge_steps(text, m_text), partial(check_gauge, pts, m_text)


def runaway_job():
    """The gauge of <(Dx-1)(Dx-2), Dy-Dx> by (x^2+1)*Dx + y*Dy + x, whose
    completion in solve did not finish within 30 s when this was written."""
    pts = Points(1, ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))), (1, 1))
    m_text = "(x^2 + 1)*Dx + y*Dy + x"
    text = "# nvars 1\n(Dx - 1)*(Dx - 2)\nDy - Dx\n"
    return Job("gauge_rational/runaway", 1, _gauge_steps(text, m_text),
               partial(check_gauge, pts, m_text))


SERIES_ARGV = {
    "solve": ("solve", "--trunc", "12"),
    "wronskian": ("wronskian", "--trunc", "10"),
    "dradical": ("check-dradical",),
}


# (command, solution kind, r, nvars); sizes chosen to keep the mean call near 0.2 s
SERIES_CELLS = (
    ("solve", "simple", 2, 1), ("solve", "simple", 3, 1), ("solve", "simple", 4, 1),
    ("solve", "simple", 2, 2), ("solve", "double", 2, 1), ("solve", "double", 3, 1),
    ("solve", "double", 2, 2), ("solve", "rational", 2, 1),
    ("wronskian", "simple", 3, 1), ("wronskian", "simple", 4, 1), ("wronskian", "simple", 2, 2),
    ("wronskian", "double", 3, 1), ("wronskian", "double", 4, 1), ("wronskian", "double", 2, 2),
    ("wronskian", "rational", 2, 1),
    ("dradical", "simple", 2, 1), ("dradical", "simple", 3, 1),
    ("dradical", "double", 3, 1), ("dradical", "double", 4, 1), ("dradical", "double", 2, 2),
)


def _series_dradical(kind, kind_of_points, r, n, rng):
    pts = random_points(rng, n, r, double=kind_of_points == "double")
    text = ideal_text(pts, random_presentation(rng, pts))
    n1 = n + 1
    q = orc.p_const(n1, 1)
    if kind_of_points == "rational":
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        q = orc.p_add(orc.p_var(n1, 0), orc.p_const(n1, c))
        qt = f"({lin((1,), ('x',), c)})"
        lines = text.splitlines()
        text = "\n".join([lines[0]] + [f"{qt}*({g})*(1/{qt})" for g in lines[1:]]) + "\n"
    steps = (Step(SERIES_ARGV[kind], text),)
    return n, steps, partial(check_series, kind, pts, q)


def _parse_powers(template, k, rng):
    a, b = rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, -1, -2))
    if template == "mul":
        n = 2
        lines = [
            f"({lin((rng.randint(-2, 2), rng.randint(-2, 2)), ('x', 'y1'), rng.randint(1, 3))})*Dx"
            f" + {lin((1,), ('Dy1',), rng.randint(-2, 2))}"
            for _ in range(k)
        ]
        text = "# nvars 2\n" + "\n".join(lines) + "\n"
        expr = "*".join(f"({ln})" for ln in lines)
        return n, (Step(("mul",), text),), partial(check_symbol, n, expr)
    expr = {
        "dx_x": f"(Dx + {lin((a,), ('x',), b)})^{k}",
        "euler": f"(x*Dx + {lin((a,), ('y',))}*Dy + {b})^{k}",
        "coeff": f"({lin((1, a), ('x', 'y'), b)})^{k}*Dx",
    }[template]
    text = f"# nvars 1\n{expr}\n"
    return 1, (Step(("parse",), text),), partial(check_symbol, 1, expr)


def cells(workload):
    if workload == "shape_const":
        plain = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3))
        repeat = ((2, 1), (3, 1), (2, 2))
        return [Cell(f"r{r}n{n}", 1, partial(_shape_const, r, n, False)) for r, n in plain] + [
            Cell(f"r{r}n{n}rep", 1, partial(_shape_const, r, n, True)) for r, n in repeat
        ]
    if workload == "gauge_rational":
        return [Cell(f"r{r}n{n}", w, partial(_gauge_rational, r, n)) for r, n, w in ((2, 1, 2), (3, 1, 1), (2, 2, 1))]
    if workload == "series_dradical":
        return [
            Cell(f"{kind}-{pk}-r{r}n{n}", 1, partial(_series_dradical, kind, pk, r, n))
            for kind, pk, r, n in SERIES_CELLS
        ]
    if workload == "parse_powers":
        return [
            Cell(f"{t}-k{k}", 1, partial(_parse_powers, t, k))
            for t, ks in (("dx_x", (6, 10, 15)), ("euler", (4, 6, 7)), ("coeff", (10, 20, 30)), ("mul", (3, 5, 7)))
            for k in ks
        ]
    raise KeyError(workload)


WORKLOADS = ("shape_const", "gauge_rational", "series_dradical", "parse_powers")


def variant(workload, cell, v):
    nvars, steps, check = cell.make(random.Random(f"{workload}/{cell.name}/{v}"))
    return Job(f"{workload}/{cell.name}/{v}", nvars, steps, check)


def pool(workload):
    """Every job of the workload, the deadline jobs included."""
    jobs = [variant(workload, c, v) for c in cells(workload) for v in range(VARIANTS)]
    return jobs + deadline_jobs(workload)


def deadline_jobs(workload):
    return [runaway_job()] if workload == "gauge_rational" else []


def passes(workload, seed, count):
    """The run's regular jobs as ``count`` passes.  A pass holds every
    variant of every cell (``weight`` times) in an order drawn from the
    seed, so every pass measures the same work in every run."""
    rng = random.Random(seed)
    jobs = [variant(workload, c, v) for c in cells(workload) for v in range(VARIANTS) for _ in range(c.weight)]
    out = []
    for _ in range(count):
        batch = list(jobs)
        rng.shuffle(batch)
        out.append(batch)
    return out
