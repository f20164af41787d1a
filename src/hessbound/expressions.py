"""Expression parsing straight into the straight-line codelist IR.

The textual grammar accepts subtraction, division, unary minus and numeric
literals for convenience.  The source is lexed once into a token list, and
a recursive-descent parser over it appends one codelist line per operation
as it reads the tokens, in the closed operation alphabet

    var, add, mul, powNat (m >= 2), oneOver, sqrt, exp, ln, addC, mulByC

and folds constant operands as it goes, so the rest of the package only
ever sees these ten operations: ``x - y`` is ``x + (-1)*y`` and ``x / y``
is ``x * oneOver(y)``.  There is no expression tree: every parsed operand
is either the number of the line that computes it or a folded constant.

A new unary operation (e.g. ``sin``) needs one ``_FUNCTIONS`` entry here,
its ``UNARY_RULES`` row and ``_POINT_EXPR`` template in
:mod:`hessbound.codelist`, and its float rule row, with its domain test if
its domain is restricted, in ``reference._POINT_RULES``.
"""

from __future__ import annotations

import math
import re

from .codelist import Codelist, Line, _check_variable_count
from .errors import ConstantExpression, ExpressionSyntaxError, InvalidArgument, UnknownVariable

__all__ = ["compile_expression"]

# function name -> (codelist op, its fold on a constant argument, the name
# an undefined fold reports)
_FUNCTIONS = {
    "sqrt": ("sqrt", math.sqrt, "Sqrt"),
    "exp": ("exp", math.exp, "Exp"),
    "ln": ("ln", math.log, "Ln"),
}

# Deepest nesting of parentheses and function calls.  Each level costs five
# parser frames (atom, group, expr, term, factor), so this stays well inside
# Python's default recursion limit of 1000 with room for the caller's frames.
MAX_NESTING = 150

# A token after its leading whitespace: a number literal, a name (letters
# and digits of any script: [^\W_] is str.isalnum()) or any other character.
# With \s as str.isspace(), these tiles cover the source up to its trailing
# whitespace.  Exponents, variable indices and number literals are written
# in ASCII digits only: str.isdigit() is true of '²' and '١' too, which
# int() and float() either reject or read as 2 and 1.
_TOKEN = re.compile(r"\s*([0-9.]+(?:[eE][+-]?[0-9]+)?|[^\W_]+|\S)")
_SPACE = re.compile(r"\s*")
_NATURAL = re.compile(r"[0-9]*")


class _Parser:
    """Recursive-descent parser over the source's tokens, ``tokens[i]`` next.

    Precedence (loosest to tightest): + - ; * / ; unary - ; ^ .  The token
    list ends in ``""``; a start is a token index, whose source position is
    computed from the tiles before it only when an error is raised.

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
        self.tokens = _TOKEN.findall(source) + [""]
        self.i = 0
        self.depth = 0  # open parentheses and calls
        self.lines = [Line(op="var")] * n
        self.undefined = None  # (message, start) of the first undefined constant fold

    def position(self, k: int) -> int:
        """The source position of token ``k``."""
        pos = 0
        for token in self.tokens[:k]:
            pos = _SPACE.match(self.src, pos).end() + len(token)
        return _SPACE.match(self.src, pos).end()

    def error(self, message: str, k=None):
        """Raise a syntax error at token ``k``, by default the next one."""
        raise ExpressionSyntaxError(self.position(self.i if k is None else k), message)

    def eat(self, token: str):
        if self.tokens[self.i] != token:
            self.error(f"expected {token!r}")
        self.i += 1

    def parse(self):
        operand = self.expr()
        if self.tokens[self.i]:
            self.error("trailing input")
        if self.undefined is not None:
            self.error(*self.undefined)
        return operand

    def expr(self):
        start = self.i
        node = self.term()
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            node = self.add(node, rhs if op == "+" else self.neg(rhs), start)
        return node

    def term(self):
        start = self.i
        node = self.factor()
        while (op := self.tokens[self.i]) == "*" or op == "/":
            self.i += 1
            rhs = self.factor()
            node = self.mul(node, rhs if op == "*" else self.recip(rhs, start), start)
        return node

    def factor(self):
        tokens = self.tokens
        negations = 0
        while tokens[self.i] == "-":
            self.i += 1
            negations += 1
        mark, start = len(self.lines), self.i
        node = self.atom()
        if tokens[self.i] == "^":
            self.i += 1
            if tokens[self.i] == "-":
                self.error("exponent must be a natural number")
            node = self.power(node, self.natural(), mark, start)
        for _ in range(negations):
            node = self.neg(node)
        return node

    def natural(self) -> int:
        """The leading digits of the next token; the rest of a number token
        such as ``2.5`` or ``2e3`` is split off as the token after them."""
        k, token = self.i, self.tokens[self.i]
        digits = _NATURAL.match(token).group()
        if not digits:
            self.error("expected a natural number")
        if digits != token:
            self.tokens[k:k + 1] = [digits, token[len(digits):]]
        self.i += 1
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.error(f"exponent of {len(digits)} digits is too long", k)

    def atom(self):
        k, token = self.i, self.tokens[self.i]
        if token == "(":
            return self.group()
        if token[:1].isalpha():
            self.i += 1
            if token in _FUNCTIONS:
                return self.call(*_FUNCTIONS[token], self.group(), k)
            digits = token[1:]
            if token[0] != "x" or not digits.isdigit():
                self.error(f"unknown identifier {token!r}", k)
            if not digits.isascii():
                o = next(o for o, digit in enumerate(digits) if not digit.isascii())
                raise ExpressionSyntaxError(
                    self.position(k) + 1 + o, f"variable index digit {digits[o]!r} is not one of 0-9")
            try:
                index = int(digits)
            except ValueError:  # more digits than int() converts
                raise UnknownVariable(
                    f"a variable index of {len(digits)} digits with n={self.n}") from None
            if not 1 <= index <= self.n:
                raise UnknownVariable(f"{token} with n={self.n}")
            return index
        if token and token[0] in "0123456789.":
            return self.number()
        self.error("expected an atom")

    def group(self):
        """``( expr )``, raising at the ``(`` that opens one level too many."""
        self.eat("(")
        if self.depth == MAX_NESTING:
            self.error(f"parentheses and calls nested deeper than {MAX_NESTING}", self.i - 1)
        self.depth += 1
        node = self.expr()
        self.eat(")")
        self.depth -= 1
        return node

    def number(self) -> float:
        k, text = self.i, self.tokens[self.i]
        self.i += 1
        try:
            value = float(text)
        except ValueError:
            self.error(f"bad number literal {text!r}", k)
        if math.isfinite(value):
            return value
        return self.fail(f"number literal {text} overflows", k)

    # -- builders: each emits its operation as one codelist line and returns
    # the line's number, or folds constant operands into a float; ``start``
    # is the token the folded subexpression starts at

    def emit(self, op: str, i: int, j=None, c=None, m=None) -> int:
        self.lines.append(Line(op, i, j, c, m))
        return len(self.lines)

    def fail(self, message: str, start: int) -> float:
        """Remember an undefined fold; its NaN placeholder folds on silently."""
        if self.undefined is None:
            self.undefined = (message, start)
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

    Raises :class:`InvalidArgument` unless ``source`` is a string,
    :class:`MalformedCodelist` unless ``n`` is an integer >= 1,
    :class:`ExpressionSyntaxError` for bad text, nesting deeper than
    :data:`MAX_NESTING` or a constant fold or literal that is undefined or
    overflows, :class:`UnknownVariable` for a variable outside x1..xn and
    :class:`ConstantExpression` when the whole expression folds to a
    constant, since every codelist line must trace back to a variable.
    No common subexpressions are merged.
    """
    if not isinstance(source, str):
        raise InvalidArgument(f"expression source must be a string, got {type(source).__name__}")
    _check_variable_count(n)
    parser = _Parser(source, n)
    root = parser.parse()
    if isinstance(root, float):
        raise ConstantExpression(f"expression is the constant {root}")
    if root != len(parser.lines):
        # bare-variable root with n > 1: the result must sit on the last line
        parser.emit("mulByC", root, c=1.0)
    return Codelist(n=n, lines=tuple(parser.lines))
