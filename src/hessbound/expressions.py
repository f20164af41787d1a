"""Expression parsing and lowering to the straight-line codelist IR.

The textual grammar accepts subtraction, division, unary minus and numeric
literals for convenience.  The parser builds every node through a builder
that writes them in the closed operation alphabet

    var, add, mul, powNat (m >= 2), oneOver, sqrt, exp, ln, addC, mulByC

and folds constant operands as it goes, so the rest of the package only
ever sees these ten operations: ``x - y`` is ``x + (-1)*y``, ``x / y`` is
``x * oneOver(y)``, and a ``Const`` node can only be a whole tree, which
:func:`normalize` rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codelist import Codelist, Line
from .errors import ConstantExpression, ExpressionSyntaxError, UnknownVariable

__all__ = [
    "Var", "Const", "Add", "Mul", "PowNat",
    "Recip", "Sqrt", "Exp", "Ln", "AddConst", "MulByConst",
    "parse", "normalize", "lower", "compile_expression", "eval_expr",
]


# -- AST node kinds ------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class PowNat:
    base: object
    m: int


@dataclass(frozen=True)
class Recip:
    arg: object


@dataclass(frozen=True)
class Sqrt:
    arg: object


@dataclass(frozen=True)
class Exp:
    arg: object


@dataclass(frozen=True)
class Ln:
    arg: object


@dataclass(frozen=True)
class AddConst:
    arg: object
    c: float


@dataclass(frozen=True)
class MulByConst:
    arg: object
    c: float


# function name -> (node kind, its fold on a constant argument)
_FUNCTIONS = {"sqrt": (Sqrt, math.sqrt), "exp": (Exp, math.exp), "ln": (Ln, math.log)}


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence (loosest to tightest): + - ; * / ; unary - ; ^ .

    Nodes are built in post-order, left to right, through the builders at
    the end of the class.  A constant fold that is undefined (``1/0``,
    ``ln(0)``, an overflow) is not raised where it happens: the first one is
    raised once the whole source has parsed, so a syntax error anywhere in
    the source is reported before it.
    """

    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.pos = 0
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
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("trailing input")
        if self.undefined is not None:
            raise self.undefined
        return expr

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
        if self.peek() == "-":
            self.pos += 1
            return self.neg(self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("exponent must be a natural number")
            m = self.natural()
            node = self.power(node, m)
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
            self.pos += 1
            node = self.expr()
            self.eat(")")
            return node
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalnum():
                self.pos += 1
            name = self.src[start:self.pos]
            if name in _FUNCTIONS:
                self.eat("(")
                node = self.expr()
                self.eat(")")
                return self.call(*_FUNCTIONS[name], node)
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if not 1 <= index <= self.n:
                    raise UnknownVariable(f"{name} with n={self.n}")
                return Var(index)
            self.pos = start
            self.error(f"unknown identifier {name!r}")
        if ch.isdigit() or ch == ".":
            return Const(self.number())
        self.error("expected an atom")

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

    # -- node builders: each returns its node in the closed alphabet, with
    # constant operands folded (a Const never sits below the root)

    def fail(self, message: str) -> Const:
        """Remember an undefined fold; its NaN placeholder folds on silently."""
        if self.undefined is None:
            self.undefined = ExpressionSyntaxError(0, message)
        return Const(math.nan)

    @staticmethod
    def add(l, r):
        if isinstance(r, Const):
            return Const(l.value + r.value) if isinstance(l, Const) else AddConst(l, r.value)
        return AddConst(r, l.value) if isinstance(l, Const) else Add(l, r)

    @staticmethod
    def mul(l, r):
        if isinstance(r, Const):
            return Const(l.value * r.value) if isinstance(l, Const) else MulByConst(l, r.value)
        return MulByConst(r, l.value) if isinstance(l, Const) else Mul(l, r)

    @staticmethod
    def neg(a):
        return Const(-a.value) if isinstance(a, Const) else MulByConst(a, -1.0)

    def recip(self, a):
        if not isinstance(a, Const):
            return Recip(a)
        if a.value == 0:
            return self.fail("division by a literal zero")
        return Const(1.0 / a.value)

    def power(self, base, m: int):
        if m == 0:
            return Const(1.0)
        if m == 1:
            return base
        if not isinstance(base, Const):
            return PowNat(base, m)
        try:
            return Const(base.value ** m)
        except OverflowError:
            return self.fail(f"constant fold of PowNat at {base.value} with m = {m} is undefined")

    def call(self, kind, fold, a):
        if not isinstance(a, Const):
            return kind(a)
        try:
            return Const(fold(a.value))
        except (ValueError, OverflowError):
            return self.fail(f"constant fold of {kind.__name__} at {a.value} is undefined")


def parse(source: str, n: int):
    """Parse ``source`` into a tree over variables x1..xn.

    The tree is already in the closed operation alphabet with its constants
    folded.  Raises :class:`ExpressionSyntaxError` for bad text or a constant
    fold that is undefined, and :class:`UnknownVariable` for a variable
    outside x1..xn.
    """
    return _Parser(source, n).parse()


def normalize(e):
    """Check that a parsed tree depends on a variable, and return it.

    :func:`parse` builds the tree in the closed operation alphabet already;
    what is left is to raise :class:`ConstantExpression` when the whole
    expression folded to a constant, since every codelist line must trace
    back to a variable.
    """
    if isinstance(e, Const):
        raise ConstantExpression(f"expression is the constant {e.value}")
    return e


def lower(e, n: int) -> Codelist:
    """Lower a normalized AST to a codelist with n leading var lines.

    Emits one line per AST node in post-order; no common subexpressions are
    merged, so the mapping from nodes to lines is one-to-one.
    """
    lines = [Line(op="var") for _ in range(n)]

    def emit(node) -> int:
        if isinstance(node, Var):
            return node.index
        if isinstance(node, Add):
            i, j = emit(node.left), emit(node.right)
            lines.append(Line(op="add", i=i, j=j))
        elif isinstance(node, Mul):
            i, j = emit(node.left), emit(node.right)
            lines.append(Line(op="mul", i=i, j=j))
        elif isinstance(node, PowNat):
            i = emit(node.base)
            lines.append(Line(op="powNat", i=i, m=node.m))
        elif isinstance(node, Recip):
            lines.append(Line(op="oneOver", i=emit(node.arg)))
        elif isinstance(node, Sqrt):
            lines.append(Line(op="sqrt", i=emit(node.arg)))
        elif isinstance(node, Exp):
            lines.append(Line(op="exp", i=emit(node.arg)))
        elif isinstance(node, Ln):
            lines.append(Line(op="ln", i=emit(node.arg)))
        elif isinstance(node, AddConst):
            lines.append(Line(op="addC", i=emit(node.arg), c=node.c))
        elif isinstance(node, MulByConst):
            lines.append(Line(op="mulByC", i=emit(node.arg), c=node.c))
        else:
            raise TypeError(f"node {node!r} is outside the lowered alphabet")
        return len(lines)

    root = emit(e)
    if root != len(lines):
        # bare-variable root with n > 1: the result must sit on the last line
        lines.append(Line(op="mulByC", i=root, c=1.0))
    return Codelist(n=n, lines=tuple(lines))


def compile_expression(source: str, n: int) -> Codelist:
    """parse + normalize + lower in one call; the codelist comes back analysed."""
    return lower(normalize(parse(source, n)), n)


def eval_expr(e, x) -> float:
    """Evaluate an AST at a real point (1-based variables)."""
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Add):
        return eval_expr(e.left, x) + eval_expr(e.right, x)
    if isinstance(e, Mul):
        return eval_expr(e.left, x) * eval_expr(e.right, x)
    if isinstance(e, PowNat):
        return eval_expr(e.base, x) ** e.m
    if isinstance(e, Recip):
        return 1.0 / eval_expr(e.arg, x)
    if isinstance(e, Sqrt):
        return math.sqrt(eval_expr(e.arg, x))
    if isinstance(e, Exp):
        return math.exp(eval_expr(e.arg, x))
    if isinstance(e, Ln):
        return math.log(eval_expr(e.arg, x))
    if isinstance(e, AddConst):
        return eval_expr(e.arg, x) + e.c
    if isinstance(e, MulByConst):
        return eval_expr(e.arg, x) * e.c
    raise TypeError(f"unknown node {e!r}")
