"""Expression parsing and lowering to the straight-line codelist IR.

The textual grammar accepts subtraction, division, unary minus and numeric
literals for convenience; :func:`normalize` rewrites all of them into the
closed operation alphabet

    var, add, mul, powNat (m >= 2), oneOver, sqrt, exp, ln, addC, mulByC

so that the rest of the package only ever sees these eleven node kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codelist import Codelist, Line
from .errors import ConstantExpression, ExpressionSyntaxError, UnknownVariable

__all__ = [
    "Var", "Const", "Add", "Sub", "Mul", "Div", "Neg", "PowNat",
    "Recip", "Sqrt", "Exp", "Ln", "AddConst", "MulByConst",
    "parse", "normalize", "lower", "compile_expression", "eval_expr",
]


# -- AST node kinds ------------------------------------------------------
# Sub/Div/Neg only appear in freshly parsed trees; normalize removes them.

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
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


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


_FUNCTIONS = {"sqrt": Sqrt, "exp": Exp, "ln": Ln}


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence (loosest to tightest): + - ; * / ; unary - ; ^ .
    """

    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.pos = 0

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
        return expr

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("exponent must be a natural number")
            m = self.natural()
            node = PowNat(node, m)
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
                return _FUNCTIONS[name](node)
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


def parse(source: str, n: int):
    """Parse ``source`` into an AST over variables x1..xn."""
    return _Parser(source, n).parse()


def _fold_unary(cls, value: float, pos_hint: int = 0) -> float:
    try:
        if cls is Sqrt:
            return math.sqrt(value)
        if cls is Exp:
            return math.exp(value)
        if cls is Ln:
            return math.log(value)
        if cls is Recip:
            return 1.0 / value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ExpressionSyntaxError(pos_hint, f"constant fold of {cls.__name__} at {value} is undefined")


def _norm(e):
    if isinstance(e, (Var, Const)):
        return e
    if isinstance(e, Neg):
        inner = _norm(e.arg)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return MulByConst(inner, -1.0)
    if isinstance(e, Sub):
        return _norm(Add(e.left, Neg(e.right)))
    if isinstance(e, Div):
        return _norm(Mul(e.left, Recip(e.right)))
    if isinstance(e, Add):
        l, r = _norm(e.left), _norm(e.right)
        if isinstance(l, Const) and isinstance(r, Const):
            return Const(l.value + r.value)
        if isinstance(r, Const):
            return AddConst(l, r.value)
        if isinstance(l, Const):
            return AddConst(r, l.value)
        return Add(l, r)
    if isinstance(e, Mul):
        l, r = _norm(e.left), _norm(e.right)
        if isinstance(l, Const) and isinstance(r, Const):
            return Const(l.value * r.value)
        if isinstance(r, Const):
            return MulByConst(l, r.value)
        if isinstance(l, Const):
            return MulByConst(r, l.value)
        return Mul(l, r)
    if isinstance(e, PowNat):
        base = _norm(e.base)
        if e.m == 0:
            return Const(1.0)
        if e.m == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value ** e.m)
        return PowNat(base, e.m)
    if isinstance(e, Recip):
        inner = _norm(e.arg)
        if isinstance(inner, Const):
            if inner.value == 0:
                raise ExpressionSyntaxError(0, "division by a literal zero")
            return Const(1.0 / inner.value)
        return Recip(inner)
    if isinstance(e, (Sqrt, Exp, Ln)):
        inner = _norm(e.arg)
        if isinstance(inner, Const):
            return Const(_fold_unary(type(e), inner.value))
        return type(e)(inner)
    if isinstance(e, AddConst):
        inner = _norm(e.arg)
        if isinstance(inner, Const):
            return Const(inner.value + e.c)
        return AddConst(inner, e.c)
    if isinstance(e, MulByConst):
        inner = _norm(e.arg)
        if isinstance(inner, Const):
            return Const(inner.value * e.c)
        return MulByConst(inner, e.c)
    raise TypeError(f"unknown node {e!r}")


def normalize(e):
    """Rewrite an AST into the closed operation alphabet.

    Raises :class:`ConstantExpression` if the whole expression folds to a
    constant, since every codelist line must trace back to a variable.
    """
    out = _norm(e)
    if isinstance(out, Const):
        raise ConstantExpression(f"expression is the constant {out.value}")
    return out


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
    if isinstance(e, Sub):
        return eval_expr(e.left, x) - eval_expr(e.right, x)
    if isinstance(e, Mul):
        return eval_expr(e.left, x) * eval_expr(e.right, x)
    if isinstance(e, Div):
        return eval_expr(e.left, x) / eval_expr(e.right, x)
    if isinstance(e, Neg):
        return -eval_expr(e.arg, x)
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
