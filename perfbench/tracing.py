"""Layer spans for the traced run, installed from outside the program.

``install`` wraps the public functions and methods of each oreshape module
(plus the private ``gb._spoly``, which is where S-pairs are formed) and
rebinds every module attribute that referred to the original, so a call is
traced whichever namespace it goes through (``groebner_basis`` is bound in
``gb``, ``shape``, ``cli`` and the package itself).  Nothing is wrapped in
the untraced run, so it runs the program exactly as a user does.

A span's self time is its duration minus the time covered by its child
spans; calls run on one thread, so the children of a span never overlap and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys

# (span name, module, attribute, class or None)
TARGETS = (
    ("arith.poly_gcd", "oreshape.arith", "poly_gcd", None),
    ("arith.ratfunc", "oreshape.arith", "__init__", "RatFunc"),
    ("ore.mul", "oreshape.ore", "__mul__", "OreOperator"),
    ("ore.apply", "oreshape.ore", "apply", "OreOperator"),
    ("ore.shear", "oreshape.ore", "shear", "OreOperator"),
    ("gb.groebner_basis", "oreshape.gb", "groebner_basis", None),
    ("gb.left_reduce", "oreshape.gb", "left_reduce", None),
    ("gb.spoly", "oreshape.gb", "_spoly", None),
    ("shape.quotient_action", "oreshape.shape", "__init__", "QuotientAction"),
    ("shape.action_apply", "oreshape.shape", "apply", "QuotientAction"),
    ("shape.eliminate_dx", "oreshape.shape", "eliminate_dx", None),
    ("shape.in_normal_position", "oreshape.shape", "in_normal_position", None),
    ("shape.shape_basis", "oreshape.shape", "shape_basis", None),
    ("shape.shear_ideal", "oreshape.shape", "shear_ideal", None),
    ("shape.normalize_by_shear", "oreshape.shape", "normalize_by_shear", None),
    ("shape.cyclic_vector", "oreshape.shape", "cyclic_vector", None),
    ("shape.gauge_transform", "oreshape.shape", "gauge_transform", None),
    ("series.solve_series", "oreshape.series", "solve_series", None),
    ("series.wronskian_x", "oreshape.series", "wronskian_x", None),
    ("series.d_radical_check", "oreshape.series", "d_radical_check", None),
    ("parsing.parse_ideal_file", "oreshape.parsing", "parse_ideal_file", None),
    ("cli.main", "oreshape.cli", "main", None),
)

# Called too often to keep one record per call; only their totals are kept.
HOT = frozenset(
    {"arith.poly_gcd", "arith.ratfunc", "ore.mul", "gb.left_reduce", "gb.spoly", "shape.action_apply"}
)


class Tracer:
    """Open spans on a stack; totals per name and per (parent, child) pair;
    one record per span for the names outside HOT."""

    def __init__(self, clock):
        self.clock = clock
        self.stack = []  # [name, start, child_ns]
        self.totals = {}  # name -> [calls, total_ns, self_ns]
        self.edges = {}  # (parent name, name) -> [calls, total_ns]
        self.spans = []  # (job, parent name, name, start, end, self_ns)
        self.counts = {}
        self.maxima = {}
        self.job = ""
        self.last_spoly = None  # S-polynomial awaiting its reduction

    def enter(self, name):
        self.stack.append([name, self.clock(), 0])

    def exit(self):
        name, start, child_ns = self.stack.pop()
        end = self.clock()
        dur = end - start
        self_ns = dur - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0, 0, 0]
        t[0] += 1
        t[1] += dur
        t[2] += self_ns
        key = (parent[0] if parent else "", name)
        e = self.edges.get(key)
        if e is None:
            e = self.edges[key] = [0, 0]
        e[0] += 1
        e[1] += dur
        if name not in HOT:
            self.spans.append((self.job, key[0], name, start, end, self_ns))

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def high(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value


def _observe(tracer, name, args, result):
    """Counts taken at a layer boundary, after the call returns."""
    if name == "arith.poly_gcd":
        if not result.is_one():
            tracer.count("poly_gcd.useful")
    elif name == "arith.ratfunc":
        f = args[0]
        tracer.high("coeff_deg", max(f.num.total_degree(), f.den.total_degree()))
        bits = 0
        for p in (f.num, f.den):
            for c in p.terms.values():
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        tracer.high("coeff_bits", bits)
    elif name == "gb.spoly":
        tracer.last_spoly = result
    elif name == "gb.left_reduce":
        if args[0] is tracer.last_spoly:
            tracer.last_spoly = None
            tracer.count("spair_reductions")
            if result.is_zero():
                tracer.count("zero_reductions")
    elif name == "parsing.parse_ideal_file":
        tracer.count("input_bytes", len(args[0].encode()))


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _observe(tracer, name, args, result)
        return result

    return traced


def install(tracer):
    """Wrap every target in the loaded oreshape modules; returns an undo function."""
    mods = [m for k, m in sys.modules.items() if k == "oreshape" or k.startswith("oreshape.")]
    undo = []
    for name, modname, attr, clsname in TARGETS:
        home = sys.modules[modname]
        if clsname is not None:
            cls = getattr(home, clsname)
            orig = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, orig))
            undo.append((cls, attr, orig))
            continue
        orig = getattr(home, attr)
        traced = _wrap(tracer, name, orig)
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, traced)
                    undo.append((m, k, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json from a finished trace."""
    tot = lambda n, i: tracer.totals.get(n, (0, 0, 0))[i]
    edge = lambda p, n, i: tracer.edges.get((p, n), (0, 0))[i]
    ms = lambda ns: ns / 1e6
    calls = lambda n: tot(n, 0)
    c = tracer.counts
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "arith.poly_gcd.calls": calls("arith.poly_gcd"),
        "arith.poly_gcd.ms": ms(tot("arith.poly_gcd", 1)),
        "arith.poly_gcd.useful_ratio": ratio(c.get("poly_gcd.useful", 0), calls("arith.poly_gcd")),
        "arith.ratfunc.new": calls("arith.ratfunc"),
        "arith.ratfunc.self_ms": ms(tot("arith.ratfunc", 2)),
        "arith.coeff_deg_max": tracer.maxima.get("coeff_deg", 0),
        "arith.coeff_bits_max": tracer.maxima.get("coeff_bits", 0),
        "ore.mul.calls": calls("ore.mul"),
        "ore.mul.self_ms": ms(tot("ore.mul", 2)),
        "ore.apply.ms": ms(tot("ore.apply", 1)),
        "ore.shear.ms": ms(tot("ore.shear", 1)),
        "gb.groebner_basis.calls": calls("gb.groebner_basis"),
        "gb.groebner_basis.self_ms": ms(tot("gb.groebner_basis", 2)),
        "gb.left_reduce.calls": calls("gb.left_reduce"),
        "gb.left_reduce.self_ms": ms(tot("gb.left_reduce", 2)),
        "gb.spairs": calls("gb.spoly"),
        "gb.zero_reduction_ratio": ratio(c.get("zero_reductions", 0), c.get("spair_reductions", 0)),
        "shape.quotient_action.ms": ms(tot("shape.quotient_action", 1)),
        "shape.action_apply.calls": calls("shape.action_apply"),
        "shape.action_apply.self_ms": ms(tot("shape.action_apply", 2)),
        "shape.shape_basis.verify_ms": ms(
            edge("shape.shape_basis", "gb.groebner_basis", 1) + edge("shape.shape_basis", "gb.left_reduce", 1)
        ),
        "shape.gauge_transform.self_ms": ms(tot("shape.gauge_transform", 2)),
        "shape.normalize.attempts": edge("shape.normalize_by_shear", "shape.shear_ideal", 0),
        "series.solve_series.self_ms": ms(tot("series.solve_series", 2)),
        "series.wronskian_x.ms": ms(tot("series.wronskian_x", 1)),
        "series.d_radical_check.self_ms": ms(tot("series.d_radical_check", 2)),
        "parsing.parse_ideal_file.self_ms": ms(tot("parsing.parse_ideal_file", 2)),
        "parsing.input_bytes": c.get("input_bytes", 0),
        "cli.main.self_ms": ms(tot("cli.main", 2)),
    }
