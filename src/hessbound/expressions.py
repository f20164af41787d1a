"""Expression parsing straight into the straight-line codelist IR.

The textual grammar accepts subtraction, division, unary minus and numeric
literals for convenience.  The parser appends one codelist line per
operation as it reads the source, in the closed operation alphabet

    var, add, mul, powNat (m >= 2), oneOver, sqrt, exp, ln, addC, mulByC

and folds constant operands as it goes, so the rest of the package only
ever sees these ten operations: ``x - y`` is ``x + (-1)*y`` and ``x / y``
is ``x * oneOver(y)``.  There is no expression tree: every parsed operand
is either the number of the line that computes it or a folded constant.

A new unary operation (e.g. ``sin``) needs one ``_FUNCTIONS`` entry here,
its ``UNARY_RULES`` row and ``_POINT_EXPR`` template in
:mod:`hessbound.codelist`, and its float rule in ``reference._POINT_RULES``
(plus a ``reference._POINT_DOMAINS`` entry if its domain is restricted).
"""

from __future__ import annotations

import math

from .codelist import Codelist, Line, _check_variable_count
from .errors import ConstantExpression, ExpressionSyntaxError, UnknownVariable

__all__ = ["compile_expression"]

# function name -> (codelist op, its fold on a constant argument, the name
# an undefined fold reports)
_FUNCTIONS = {
    "sqrt": ("sqrt", math.sqrt, "Sqrt"),
    "exp": ("exp", math.exp, "Exp"),
    "ln": ("ln", math.log, "Ln"),
}

# Deepest nesting of parentheses and function calls.  Each level costs four
# parser frames, so this stays well inside Python's default recursion limit
# of 1000 with room for the caller's frames.
MAX_NESTING = 150


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence (loosest to tightest): + - ; * / ; unary - ; ^ .

    Operations are emitted in post-order, left to right, through the
    builders at the end of the class; an operand is the ``int`` number of
    its line or a ``float`` constant.  A constant fold that is undefined
    (``1/0``, ``ln(0)``, an overflow) is not raised where it happens: the
    first one is raised once the whole source has parsed, so a syntax error
    anywhere in the source is reported before it.  It is reported at the
    start of the folded subexpression: the left operand of a binary
    operator or ``^``, the name of a function, or the number literal.
    """

    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.pos = 0
        self.depth = 0  # open parentheses and calls
        self.lines = [Line(op="var")] * n
        self.undefined = None  # the first undefined constant fold

    def error(self, message: str):
        raise ExpressionSyntaxError(self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        operand = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("trailing input")
        if self.undefined is not None:
            raise self.undefined
        return operand

    def start(self) -> int:
        """The position of the next token."""
        self.skip_ws()
        return self.pos

    def expr(self):
        start = self.start()
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = self.add(node, rhs if op == "+" else self.neg(rhs), start)
        return node

    def term(self):
        start = self.start()
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = self.mul(node, rhs if op == "*" else self.recip(rhs, start), start)
        return node

    def factor(self):
        negations = 0
        while self.peek() == "-":
            self.pos += 1
            negations += 1
        mark, start = len(self.lines), self.pos  # peek() skipped the whitespace
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("exponent must be a natural number")
            node = self.power(node, self.natural(), mark, start)
        for _ in range(negations):
            node = self.neg(node)
        return node

    def natural(self) -> int:
        start = self.start()
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.src[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            return self.group()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalnum():
                self.pos += 1
            name = self.src[start:self.pos]
            if name in _FUNCTIONS:
                return self.call(*_FUNCTIONS[name], self.group(), start)
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if not 1 <= index <= self.n:
                    raise UnknownVariable(f"{name} with n={self.n}")
                return index
            self.pos = start
            self.error(f"unknown identifier {name!r}")
        if ch.isdigit() or ch == ".":
            return self.number()
        self.error("expected an atom")

    def group(self):
        """``( expr )``, raising at the ``(`` that opens one level too many."""
        self.eat("(")
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError(
                self.pos - 1, f"parentheses and calls nested deeper than {MAX_NESTING}")
        self.depth += 1
        node = self.expr()
        self.eat(")")
        self.depth -= 1
        return node

    def number(self) -> float:
        start = self.start()
        while self.pos < len(self.src) and (self.src[self.pos].isdigit() or self.src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos].isdigit():
                while self.pos < len(self.src) and self.src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = self.src[start:self.pos]
        try:
            value = float(text)
        except ValueError:
            self.error(f"bad number literal {text!r}")
        if math.isfinite(value):
            return value
        return self.fail(f"number literal {text} overflows", start)

    # -- builders: each emits its operation as one codelist line and returns
    # the line's number, or folds constant operands into a float; ``start``
    # is where the folded subexpression starts in the source

    def emit(self, op: str, i: int, j=None, c=None, m=None) -> int:
        self.lines.append(Line(op, i, j, c, m))
        return len(self.lines)

    def fail(self, message: str, start: int) -> float:
        """Remember an undefined fold; its NaN placeholder folds on silently."""
        if self.undefined is None:
            self.undefined = ExpressionSyntaxError(start, message)
        return math.nan

    def folded(self, value: float, start: int, label: str, *operands: float) -> float:
        """``value``, the fold of ``label`` at ``operands``, unless it overflows."""
        if math.isfinite(value):
            return value
        return self.fail(
            f"constant fold of {label} at {' and '.join(map(str, operands))} is undefined", start)

    def add(self, l, r, start: int):
        if isinstance(r, float):
            if isinstance(l, float):
                return self.folded(l + r, start, "Add", l, r)
            return self.emit("addC", l, c=r)
        return self.emit("addC", r, c=l) if isinstance(l, float) else self.emit("add", l, r)

    def mul(self, l, r, start: int):
        if isinstance(r, float):
            if isinstance(l, float):
                return self.folded(l * r, start, "Mul", l, r)
            return self.emit("mulByC", l, c=r)
        return self.emit("mulByC", r, c=l) if isinstance(l, float) else self.emit("mul", l, r)

    def neg(self, a):
        return -a if isinstance(a, float) else self.emit("mulByC", a, c=-1.0)

    def recip(self, a, start: int):
        """``1/a``, the divisor of a division whose dividend starts at ``start``."""
        if not isinstance(a, float):
            return self.emit("oneOver", a)
        if a == 0:
            return self.fail("division by a literal zero", start)
        return self.folded(1.0 / a, start, "OneOver", a)

    def power(self, base, m: int, mark: int, start: int):
        """``base^m``; the lines from ``mark`` on compute ``base``."""
        if m == 0:
            del self.lines[mark:]
            return 1.0
        if m == 1:
            return base
        if not isinstance(base, float):
            return self.emit("powNat", base, m=m)
        try:
            return base ** m
        except OverflowError:
            return self.fail(f"constant fold of PowNat at {base} with m = {m} is undefined", start)

    def call(self, op: str, fold, label: str, a, start: int):
        if not isinstance(a, float):
            return self.emit(op, a)
        try:
            return fold(a)
        except (ValueError, OverflowError):
            return self.fail(f"constant fold of {label} at {a} is undefined", start)


def compile_expression(source: str, n: int) -> Codelist:
    """Parse ``source`` over variables x1..xn into an analysed codelist.

    Raises :class:`MalformedCodelist` unless ``n`` is an integer >= 1,
    :class:`ExpressionSyntaxError` for bad text, nesting deeper than
    :data:`MAX_NESTING` or a constant fold or literal that is undefined or
    overflows, :class:`UnknownVariable` for a variable outside x1..xn and
    :class:`ConstantExpression` when the whole expression folds to a
    constant, since every codelist line must trace back to a variable.
    No common subexpressions are merged.
    """
    _check_variable_count(n)
    parser = _Parser(source, n)
    root = parser.parse()
    if isinstance(root, float):
        raise ConstantExpression(f"expression is the constant {root}")
    if root != len(parser.lines):
        # bare-variable root with n > 1: the result must sit on the last line
        parser.emit("mulByC", root, c=1.0)
    return Codelist(n=n, lines=tuple(parser.lines))
