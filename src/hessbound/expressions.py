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

from .codelist import Codelist, Line
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
    anywhere in the source is reported before it.
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

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = self.add(node, rhs if op == "+" else self.neg(rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = self.mul(node, rhs if op == "*" else self.recip(rhs))
        return node

    def factor(self):
        negations = 0
        while self.peek() == "-":
            self.pos += 1
            negations += 1
        mark = len(self.lines)
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("exponent must be a natural number")
            node = self.power(node, self.natural(), mark)
        for _ in range(negations):
            node = self.neg(node)
        return node

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
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
                return self.call(*_FUNCTIONS[name], self.group())
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
        self.skip_ws()
        start = self.pos
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
        try:
            return float(self.src[start:self.pos])
        except ValueError:
            self.error(f"bad number literal {self.src[start:self.pos]!r}")

    # -- builders: each emits its operation as one codelist line and returns
    # the line's number, or folds constant operands into a float

    def emit(self, op: str, i: int, j=None, c=None, m=None) -> int:
        self.lines.append(Line(op, i, j, c, m))
        return len(self.lines)

    def fail(self, message: str) -> float:
        """Remember an undefined fold; its NaN placeholder folds on silently."""
        if self.undefined is None:
            self.undefined = ExpressionSyntaxError(0, message)
        return math.nan

    def add(self, l, r):
        if isinstance(r, float):
            return l + r if isinstance(l, float) else self.emit("addC", l, c=r)
        return self.emit("addC", r, c=l) if isinstance(l, float) else self.emit("add", l, r)

    def mul(self, l, r):
        if isinstance(r, float):
            return l * r if isinstance(l, float) else self.emit("mulByC", l, c=r)
        return self.emit("mulByC", r, c=l) if isinstance(l, float) else self.emit("mul", l, r)

    def neg(self, a):
        return -a if isinstance(a, float) else self.emit("mulByC", a, c=-1.0)

    def recip(self, a):
        if not isinstance(a, float):
            return self.emit("oneOver", a)
        if a == 0:
            return self.fail("division by a literal zero")
        return 1.0 / a

    def power(self, base, m: int, mark: int):
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
            return self.fail(f"constant fold of PowNat at {base} with m = {m} is undefined")

    def call(self, op: str, fold, label: str, a):
        if not isinstance(a, float):
            return self.emit(op, a)
        try:
            return fold(a)
        except (ValueError, OverflowError):
            return self.fail(f"constant fold of {label} at {a} is undefined")


def compile_expression(source: str, n: int) -> Codelist:
    """Parse ``source`` over variables x1..xn into an analysed codelist.

    Raises :class:`ExpressionSyntaxError` for bad text, nesting deeper than
    :data:`MAX_NESTING` or a constant fold that is undefined,
    :class:`UnknownVariable` for a variable outside x1..xn and
    :class:`ConstantExpression` when the whole expression folds to a
    constant, since every codelist line must trace back to a variable.
    No common subexpressions are merged.
    """
    parser = _Parser(source, n)
    root = parser.parse()
    if isinstance(root, float):
        raise ConstantExpression(f"expression is the constant {root}")
    if root != len(parser.lines):
        # bare-variable root with n > 1: the result must sit on the last line
        parser.emit("mulByC", root, c=1.0)
    return Codelist(n=n, lines=tuple(parser.lines))
