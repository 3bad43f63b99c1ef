"""Command-line interface.

Every command reads an ideal file (one operator per line, optional
'# nvars <n>' directive, '#' comments) from a path or '-' for stdin.
Text output is stable and, for operator listings, itself a valid ideal
file.  With --json a single JSON object is printed instead, under schema
"ore-shape/1".

Exit codes, each carried by its error class in errors as exit_code:
    0  success
    1  internal self-check failed (a bug)
    2  malformed input: parse errors, arity errors, bad flags or file shape
    3  precondition failures: infinite-dimensional quotient, not in normal
       position (for normalize: no rational shear reaches it), origin not
       ordinary (before any walk), an applied operator with a coefficient
       that has a pole at the origin, division by zero, non-cyclic class
    4  resource limits: degree cap, truncation order too small, a printed
       number above MAX_DIGITS digits, a series walk, dependence system or
       shear grid past its bound
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import re
import sys
import time
from fractions import Fraction

from .arith import format_number, format_poly
from .errors import ArityError, NotZeroDimensional, OreShapeError, ParseError
from .gb import GroebnerBasis, TermOrder, groebner_basis
from .ore import TruncSeries, format_operator, format_series
from .parsing import check_digits, parse_ideal_file, parse_operator
from .series import (
    d_radical_check,
    in_normal_position_series,
    solve_series,
    wronskian_x,
)
from .shape import (
    cyclic_vector,
    eliminate_dx,
    gauge_transform,
    in_normal_position,
    normalize_by_shear,
    shape_basis,
    shear_ideal,
)

SCHEMA = "ore-shape/1"


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, OreShapeError):
        return exc.exit_code
    return 2 if isinstance(exc, (ValueError, OSError)) else 1


class _Input:
    """Parsed ideal file plus bookkeeping shared by all commands.

    swap is the index k of --main-var Dyk (0 for Dx): commands work on the
    ideal with Dx and Dyk exchanged and swap their results back."""

    def __init__(self, raw: str, main_var: str | None = None):
        self.digest = hashlib.sha256(raw.encode()).hexdigest()
        self.nvars, self.operators = parse_ideal_file(raw)
        self.swap = _main_var_index(main_var, self.nvars)

    def ideal(self, order: TermOrder | None = None, skip: int = 0) -> GroebnerBasis:
        gens = [self.swapped(g) for g in self.operators[skip:]]
        if not gens:
            raise ValueError("the input file contains no generators")
        return groebner_basis(gens, order or TermOrder.degrevlex(self.nvars))

    def swapped(self, x):
        """An operator or series with Dx and the main variable exchanged.
        The exchange is an involution: it maps into the swapped ideal's
        variables and back."""
        if not self.swap:
            return x
        if isinstance(x, TruncSeries):
            return x.swap_vars(self.swap)
        return x.swap_roles(self.swap)


def _read_input(args) -> _Input:
    main_var = getattr(args, "main_var", None)
    if args.file == "-":
        return _Input(sys.stdin.read(), main_var)
    with open(args.file, "r", encoding="utf-8") as fh:
        return _Input(fh.read(), main_var)


def _main_var_index(spec: str | None, nvars: int) -> int:
    """0 for Dx (no swap); k >= 1 to make Dyk play the distinguished role."""
    if spec is None or spec == "Dx":
        return 0
    name = spec[2:] if spec.startswith("Dy") else None
    if name is not None and (name == "" or name.isdigit()):
        k = 1 if name == "" else int(name)
        if name == "" and nvars != 1:
            raise ArityError(f"bare 'Dy' needs an index when nvars = {nvars}")
        if 1 <= k <= nvars:
            return k
    raise ArityError(f"--main-var must be Dx or Dy1..Dy{nvars}, got {spec!r}")


# Fraction() alone would also read exponent notation: reading 1e10000000
# takes it about 8 s, and a shear by that number does not finish.
_SHEAR_COEFF = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _parse_shear_vector(text: str, nvars: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != nvars:
        raise ArityError(f"--shear needs {nvars} comma-separated rationals, got {len(parts)}")
    for p in parts:
        if not _SHEAR_COEFF.fullmatch(p):
            raise ParseError(f"bad shear coefficient {p!r}: expected an integer, a/b or a decimal")
        for digits in re.findall("[0-9]+", p):
            check_digits(digits)
    try:
        return tuple(Fraction(p) for p in parts)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad shear coefficient: {exc}") from None


def _series_json(f: TruncSeries) -> dict:
    """A series in a result, as JSON: json.dumps calls it, text mode never."""
    terms = [
        {"exponents": list(expo), "coefficient": format_number(c)}
        for expo, c in sorted(f.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    return {"order": f.order, "terms": terms}


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, text_lines).  The lines reuse
# the strings in result; a series is a TruncSeries in result (json.dumps
# converts it) and an iterator of lines main reads only in text mode.


def _ideal_file_lines(nvars: int, texts: list[str]) -> list[str]:
    return [f"# nvars {nvars}", *texts]


def cmd_parse(args, inp: _Input):
    ops = [format_operator(g) for g in inp.operators]
    return {"operators": ops}, _ideal_file_lines(inp.nvars, ops)


def cmd_mul(args, inp: _Input):
    if not inp.operators:
        raise ValueError("the input file contains no operators to multiply")
    acc = inp.operators[-1]
    for g in reversed(inp.operators[:-1]):
        acc = g * acc
    product = format_operator(acc)
    return {"product": product}, [product]


def cmd_apply(args, inp: _Input):
    if len(inp.operators) < 2:
        raise ValueError("apply needs one operator line followed by ideal generators")
    op = inp.operators[0]
    gb = inp.ideal(skip=1)
    sol = solve_series(gb, order=args.trunc)
    images = [op.apply(f) for f in sol.members]
    result = {
        "dimension": sol.r,
        "applied": format_operator(op),
        "images": images,
    }
    return result, map(format_series, images)


def cmd_gb(args, inp: _Input):
    gb = inp.ideal(TermOrder(args.order, inp.nvars))
    basis = [format_operator(g) for g in gb.gens]
    return {"order": args.order, "basis": basis}, _ideal_file_lines(inp.nvars, basis)


def cmd_dim(args, inp: _Input):
    gb = inp.ideal()
    if gb.is_zero_dimensional():
        r = gb.dimension()
        return {"zero_dimensional": True, "dimension": r}, [f"dimension: {r}"]
    return {"zero_dimensional": False, "dimension": None}, ["not zero-dimensional"]


def cmd_eliminate(args, inp: _Input):
    p = format_operator(inp.swapped(eliminate_dx(inp.ideal(), method=args.method)))
    return {"eliminant": p, "method": args.method}, [p]


def _shape_result(inp: _Input, sb) -> dict:
    """The dimension/P/Q/generators payload of a shape basis, in the input's
    variables."""
    p = format_operator(inp.swapped(sb.P()))
    return {
        "dimension": sb.r,
        "P": p,
        "Q": [format_operator(inp.swapped(sb.Q(i))) for i in range(1, inp.nvars + 1)],
        "generators": [format_operator(inp.swapped(g)) for g in sb.generators()[:-1]] + [p],
    }


def cmd_shape(args, inp: _Input):
    result = _shape_result(inp, shape_basis(inp.ideal()))
    return result, _ideal_file_lines(inp.nvars, result["generators"])


def cmd_check_normal(args, inp: _Input):
    gb = inp.ideal()
    algebraic = in_normal_position(gb)
    result = {"via": args.via}
    if args.via == "series":
        verdict = in_normal_position_series(gb, order=args.trunc)
        result["normal"] = verdict
        result["algebraic_agrees"] = verdict == algebraic
    else:
        result["normal"] = algebraic
    lines = [f"normal: {'true' if result['normal'] else 'false'}"]
    if args.via == "series":
        lines.append(f"algebraic agrees: {'true' if result['algebraic_agrees'] else 'false'}")
    return result, lines


def cmd_check_dradical(args, inp: _Input):
    gb = inp.ideal()
    verdict = d_radical_check(gb, degree_bound=args.degree_bound, order=args.trunc)
    result = {
        "verdict": verdict.tag,
        "degree_bound": verdict.degree_bound,
        "trunc_order": verdict.order,
        "witness": None
        if verdict.witness is None
        else [format_poly(p) for p in verdict.witness],
    }
    lines = [f"verdict: {verdict.tag}"]
    lines += [f"witness[{i}]: {p}" for i, p in enumerate(result["witness"] or ())]
    return result, lines


def _shear_result(inp: _Input, c, gb: GroebnerBasis) -> tuple[dict, list]:
    result = {"shear": [format_number(ci) for ci in c], "basis": [format_operator(g) for g in gb.gens]}
    return result, _ideal_file_lines(inp.nvars, result["basis"])


def cmd_shear(args, inp: _Input):
    c = _parse_shear_vector(args.shear, inp.nvars)
    return _shear_result(inp, c, shear_ideal(inp.ideal(), c))


def cmd_normalize(args, inp: _Input):
    c, sheared = normalize_by_shear(inp.ideal())
    result, lines = _shear_result(inp, c, sheared)
    return result, ["shear: " + ",".join(result["shear"])] + lines


def cmd_solve(args, inp: _Input):
    gb = inp.ideal()
    sol = solve_series(gb, order=args.trunc)
    result = {
        "dimension": sol.r,
        "initial_monomials": [list(m) for m in sol.initial_monomials],
        "members": sol.members,
    }
    return result, itertools.chain([f"dimension: {sol.r}"], map(format_series, sol.members))


def cmd_wronskian(args, inp: _Input):
    gb = inp.ideal()
    w = inp.swapped(wronskian_x(gb, order=args.trunc))
    r = gb.dimension()
    if r == 0:
        raise NotZeroDimensional("the unit ideal has no solutions to take a Wronskian of")
    return {"dimension": r, "wronskian": w}, map(format_series, [w])


def cmd_gauge(args, inp: _Input):
    gb = inp.ideal()
    if args.cyclic_vector is not None:
        m = inp.swapped(parse_operator(args.cyclic_vector, inp.nvars))
    else:
        m = cyclic_vector(gb)
    m_out = format_operator(inp.swapped(m))
    result = {"cyclic_vector": m_out, **_shape_result(inp, gauge_transform(gb, m))}
    return result, [f"cyclic vector: {m_out}", *_ideal_file_lines(inp.nvars, result["generators"])]


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="oreshape",
        description="Exact computations with linear differential operators: "
        "left Groebner bases, elimination, shape bases, shears, and "
        "truncated series solutions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_, main_var=False, trunc=None):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="ideal file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        if main_var:
            p.add_argument(
                "--main-var",
                metavar="D",
                default=None,
                help="distinguished derivative: Dx (default) or Dyk",
            )
        if trunc is not None:
            p.add_argument(
                "--trunc",
                type=int,
                default=trunc,
                metavar="N",
                help=f"guaranteed series order (default {trunc})",
            )
        p.set_defaults(func=func)
        return p

    add("parse", cmd_parse, "parse and reprint the operators canonically")
    add("mul", cmd_mul, "multiply the operators in file order")
    add("apply", cmd_apply, "apply the first operator to the solutions of the rest", trunc=8)
    pgb = add("gb", cmd_gb, "reduced left Groebner basis")
    pgb.add_argument(
        "--order",
        choices=("degrevlex", "lex", "elim"),
        default="degrevlex",
        help="term order (default degrevlex)",
    )
    add("dim", cmd_dim, "dimension of the quotient by the ideal")
    pel = add("eliminate", cmd_eliminate, "monic generator of the main-variable subideal", main_var=True)
    pel.add_argument(
        "--method",
        choices=("krylov", "elim-order"),
        default="krylov",
        help="elimination algorithm (default krylov)",
    )
    add("shape", cmd_shape, "shape basis {Dyi - Qi(Dx), P(Dx)}", main_var=True)
    pcn = add("check-normal", cmd_check_normal, "normal position test", main_var=True, trunc=8)
    pcn.add_argument(
        "--via",
        choices=("algebraic", "series"),
        default="algebraic",
        help="decision procedure (default algebraic)",
    )
    pdr = add("check-dradical", cmd_check_dradical, "search for a rational dependence among solutions", trunc=10)
    pdr.add_argument(
        "--degree-bound",
        type=int,
        default=3,
        metavar="D",
        help="max total degree of dependence multipliers (default 3)",
    )
    psh = add("shear", cmd_shear, "apply a linear change of variables to the ideal")
    psh.add_argument(
        "--shear",
        required=True,
        metavar="C1,..,CN",
        help="shear coefficients, one rational per y-variable: an integer, a/b or a decimal",
    )
    add("normalize", cmd_normalize, "find a shear putting the ideal in normal position")
    add("solve", cmd_solve, "truncated series basis of the solution space", trunc=8)
    add("wronskian", cmd_wronskian, "Wronskian of the solution basis in the main variable", main_var=True, trunc=8)
    pga = add("gauge", cmd_gauge, "shape basis of the gauge transform by a cyclic vector", main_var=True)
    pga.add_argument(
        "--cyclic-vector",
        metavar="EXPR",
        default=None,
        help="operator whose class to use (default: search for one)",
    )
    return top


def _check_flags(args):
    """Reject out-of-range numbers."""
    for flag, least in (("degree_bound", 0), ("trunc", 1)):
        value = getattr(args, flag, least)
        if value < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_flags(args)
        inp = _read_input(args)
        result, lines = args.func(args, inp)
        if args.json:
            payload = {
                "schema": SCHEMA,
                "command": args.command,
                "nvars": inp.nvars,
                "main_var": getattr(args, "main_var", None) or "Dx",
                "input_digest": inp.digest,
                "result": result,
                "timings_ms": {"total": round((time.perf_counter() - started) * 1000.0, 3)},
            }
            lines = [json.dumps(payload, default=_series_json)]
        else:
            lines = list(lines)
    except (OreShapeError, ValueError, OSError) as exc:
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            payload = {
                "schema": SCHEMA,
                "command": args.command,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            print(json.dumps(payload))
        return code
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
