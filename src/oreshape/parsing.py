"""Text syntax for operators and ideal files.

Expression grammar, standard precedence (loosest first):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ['^' ['-'] INTEGER]
    atom   := INTEGER | NAME | '(' expr ')'

Names: x, y1..yn, Dx, Dy1..Dyn; when n = 1 the aliases y and Dy are
accepted (and produced by the printers).  '*' is never implicit.  '/'
is field division, so both of its operands must be free of derivative
symbols; likewise a negative exponent needs a derivative-free, nonzero
base.  These rules keep every printable operator re-parseable while
ruling out expressions whose meaning would depend on operator inverses.

Ideal files: one operator per line.  '#' starts a comment running to the
end of the line.  An optional directive line '# nvars <n>' (also accepted
without the space) declares the number n of y-variables, 1 <= n <=
MAX_NVARS; it must come before the first operator and defaults to 1.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arith import RatFunc
from .errors import ArityError, DivisionByZero, ParseError
from .ore import OreOperator

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])")

_NVARS_DIRECTIVE = re.compile(r"^\s*#\s*nvars\b\s*[:=]?\s*(\d+)\s*$")

# Deepest nesting of parentheses and unary minus signs a factor may sit in.
# Each level costs at most five stack frames of the recursive descent, so
# the parser stays far below Python's default recursion limit of 1000.
MAX_NESTING = 100

# Largest exponent '^' accepts, checked before the power is computed:
# without it Dx^100000000000 never returned.  It is far above the
# completion's default degree cap of 30.
MAX_EXPONENT = 1000

# Largest n the '# nvars <n>' directive accepts, checked when the directive
# is read: every exponent tuple has n + 1 entries, so a parse costs time and
# memory in proportion to n.
MAX_NVARS = 100

# Longest digit string read as a number, leading zeros included, checked
# before int() or Fraction() sees it.  It is CPython's default limit, so all
# supported interpreters (3.10.0-3.10.6 have none) give the same ParseError.
MAX_DIGITS = 4300


def check_digits(digits: str, line: int | None = None, column: int | None = None) -> None:
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"a number with more than {MAX_DIGITS} digits", line, column)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int, line: int):
        self.nvars = nvars
        self.line = line
        self.tokens = _tokenize(text, line)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.take()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", self.line, tok[2])
        return tok

    def fail(self, message, col):
        raise ParseError(message, self.line, col)

    # grammar -------------------------------------------------------------

    def parse(self) -> OreOperator:
        op = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r} after expression", tok[2])
        return op

    def expr(self) -> OreOperator:
        if self.peek()[1] == "-":
            self.take()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[1] in ("+", "-"):
            sign = self.take()[1]
            rhs = self.term()
            acc = acc + rhs if sign == "+" else acc - rhs
        return acc

    def term(self) -> OreOperator:
        acc = self.factor()
        while self.peek()[1] in ("*", "/"):
            tok = self.take()
            rhs = self.factor()
            if tok[1] == "*":
                acc = acc * rhs
            else:
                acc = self._divide(acc, rhs, tok[2])
        return acc

    def factor(self) -> OreOperator:
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok[2])
        if tok[1] == "-":
            self.take()
            out = -self.factor()
        else:
            out = self.power()
        self.depth -= 1
        return out

    def power(self) -> OreOperator:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        col = self.take()[2]
        negative = False
        if self.peek()[1] == "-":
            self.take()
            negative = True
        tok = self.expect("int")
        digits = tok[1].lstrip("0")  # leading zeros change no exponent
        if len(digits) > len(str(MAX_EXPONENT)) or (e := int(digits or 0)) > MAX_EXPONENT:
            self.fail(f"exponent larger than {MAX_EXPONENT}", tok[2])
        if not negative:
            return base**e
        c = self._scalar(base, col, "a negative exponent")
        if c.is_zero():
            raise DivisionByZero(f"zero raised to a negative power (line {self.line}, column {col})")
        return OreOperator.from_coeff(c ** (-e))

    def atom(self) -> OreOperator:
        kind, text, col = self.take()
        if kind == "int":
            check_digits(text, self.line, col)
            return OreOperator.from_coeff(RatFunc.const(self.nvars, Fraction(text)))
        if kind == "name":
            return self._name(text, col)
        if text == "(":
            inner = self.expr()
            self.expect("op", ")")
            return inner
        self.fail(f"expected a number, a name, or '(', found {text or 'end of input'!r}", col)

    # helpers -------------------------------------------------------------

    def _name(self, text: str, col: int) -> OreOperator:
        n = self.nvars
        if text == "x":
            return OreOperator.from_coeff(RatFunc.var(n, 0))
        if text == "Dx":
            return OreOperator.D(n, 0)
        for prefix, maker in (("Dy", lambda k: OreOperator.D(n, k)),
                              ("y", lambda k: OreOperator.from_coeff(RatFunc.var(n, k)))):
            if not text.startswith(prefix):
                continue
            rest = text[len(prefix):]
            if rest == "":
                if n == 1:
                    return maker(1)
                raise ArityError(
                    f"bare {prefix!r} needs an index when nvars = {n} (line {self.line}, column {col})"
                )
            if rest.isdigit():
                k = int(rest)
                if not 1 <= k <= n:
                    raise ArityError(
                        f"{text!r} is out of range for nvars = {n} (line {self.line}, column {col})"
                    )
                return maker(k)
        self.fail(f"unknown name {text!r}", col)

    def _scalar(self, op: OreOperator, col: int, why: str) -> RatFunc:
        if op.max_order() != 0:
            self.fail(f"{why} requires an operand free of derivative symbols", col)
        return op.coefficient((0,) * (self.nvars + 1))

    def _divide(self, lhs: OreOperator, rhs: OreOperator, col: int) -> OreOperator:
        a = self._scalar(lhs, col, "division")
        b = self._scalar(rhs, col, "division")
        if b.is_zero():
            raise DivisionByZero(f"division by zero (line {self.line}, column {col})")
        return OreOperator.from_coeff(a / b)


def parse_operator(text: str, nvars: int, line: int = 1) -> OreOperator:
    """Parse a single operator expression."""
    return _Parser(text, nvars, line).parse()


def strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def parse_ideal_file(text: str) -> tuple[int, list[OreOperator]]:
    """Parse an ideal file into (nvars, operators).

    Raises ParseError on malformed lines or a misplaced/duplicate nvars
    directive, ArityError on out-of-range variable names."""
    nvars = None
    ops: list[OreOperator] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _NVARS_DIRECTIVE.match(raw)
        if m:
            if ops:
                raise ParseError("nvars directive must precede all operators", lineno, 1)
            if nvars is not None:
                raise ParseError("duplicate nvars directive", lineno, 1)
            check_digits(m.group(1), lineno, m.start(1) + 1)
            nvars = int(m.group(1))
            if not 1 <= nvars <= MAX_NVARS:
                raise ParseError(f"nvars must be between 1 and {MAX_NVARS}", lineno, 1)
            continue
        body = strip_comment(raw)
        if not body.strip():
            continue
        if nvars is None:
            nvars = 1
        ops.append(parse_operator(body, nvars, line=lineno))
    return (1 if nvars is None else nvars), ops
