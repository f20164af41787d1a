"""Straight-line IR for factorable functions plus static sparsity analysis.

A codelist is a sequence of lines; the first n lines introduce the
variables and every later line applies one elementary operation to earlier
lines.  :meth:`Codelist.analyze` attaches two index sets to every line k:

* ``indep[k]`` -- variables the intermediate function y_k is independent of,
* ``linear[k]`` -- variables y_k depends on at most linearly.

Both sets are determined by the operation structure alone; they do not
depend on the box the codelist is later evaluated over.

:data:`UNARY_RULES` holds the interval rules of every unary operation
y_k = r(y_i): its value, r', r'' and the factored curvature rule.  Both
bound engines and the interval-Hessian reference route apply them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .errors import DomainViolation, MalformedCodelist
from .interval import Interval, point

__all__ = ["Line", "Codelist", "UnaryRule", "UNARY_RULES"]


@dataclass(frozen=True)
class UnaryRule:
    """Interval rules of one unary operation y_k = r(y_i).

    Each rule is called with the operand enclosure ``yi``, the value
    enclosure ``yk`` and the codelist ``line`` (for its ``m`` or ``c``):

    * ``value(yi, line)`` -- y_k, raising :class:`DomainViolation` (without a
      line number) outside the domain;
    * ``first(yi, yk, line)`` -- r'(y_i); ``None`` means r' = 1 exactly;
    * ``second(yi, yk, line)`` -- r''(y_i); ``None`` for the affine
      operations, whose r'' is exactly 0;
    * ``lam(yi, yk, line, ls, lam)`` -- eigenvalue bounds of y_k's Hessian
      from the operand's bounds ``lam`` and the λ_s bounds ``ls`` of its
      gradient's outer product (unused by the affine rules).  The nonaffine
      rules keep a factored form such as ``yk·(ls + lam)``: interval
      multiplication is only subdistributive, so ``r''·ls + r'·lam`` is wider.

    ``ops``, ``second_ops`` and ``lam_ops`` are the operation counts the
    engines charge for ``value`` and ``first`` together, for ``second·ls``
    and for ``lam``.
    """

    value: Callable
    first: Optional[Callable]
    second: Optional[Callable]
    lam: Callable
    ops: int
    second_ops: int
    lam_ops: int


def _sqrt(yi: Interval, line) -> Interval:
    if yi.lo <= 0.0:
        # r' divides by sqrt(y); demand strict positivity
        raise DomainViolation("sqrt", yi)
    return yi.sqrt()


UNARY_RULES = {
    "powNat": UnaryRule(
        value=lambda yi, line: yi.pow(line.m),
        first=lambda yi, yk, line: yi.pow(line.m - 1).scale(line.m),
        second=lambda yi, yk, line: yi.pow(line.m - 2).scale(line.m * (line.m - 1)),
        lam=lambda yi, yk, line, ls, lam:
            yi.pow(line.m - 2).scale(line.m) * (ls.scale(line.m - 1) + yi * lam),
        ops=3, second_ops=3, lam_ops=5),
    "oneOver": UnaryRule(
        value=lambda yi, line: yi.recip(),
        first=lambda yi, yk, line: yk.pow(2).scale(-1.0),
        second=lambda yi, yk, line: yk.pow(3).scale(2.0),
        lam=lambda yi, yk, line, ls, lam: yk.pow(2) * (yk.scale(2.0) * ls - lam),
        ops=3, second_ops=3, lam_ops=4),
    "sqrt": UnaryRule(
        value=_sqrt,
        first=lambda yi, yk, line: yk.scale(2.0).recip(),
        second=lambda yi, yk, line: yk.pow(3).scale(-4.0).recip(),
        lam=lambda yi, yk, line, ls, lam:
            yk.scale(2.0).recip() * (yi.scale(-2.0).recip() * ls + lam),
        ops=3, second_ops=3, lam_ops=4),
    "exp": UnaryRule(
        value=lambda yi, line: yi.exp(),
        first=lambda yi, yk, line: yk,
        second=lambda yi, yk, line: yk,
        lam=lambda yi, yk, line, ls, lam: yk * (ls + lam),
        ops=1, second_ops=2, lam_ops=2),
    "ln": UnaryRule(
        value=lambda yi, line: yi.ln(),
        first=lambda yi, yk, line: yi.recip(),
        second=lambda yi, yk, line: yi.recip().pow(2).scale(-1.0),
        lam=lambda yi, yk, line, ls, lam: (ri := yi.recip()) * (lam - ri * ls),
        ops=2, second_ops=4, lam_ops=4),
    "addC": UnaryRule(
        value=lambda yi, line: yi.add_const(line.c),
        first=None,
        second=None,
        lam=lambda yi, yk, line, ls, lam: lam,
        ops=1, second_ops=0, lam_ops=0),
    "mulByC": UnaryRule(
        value=lambda yi, line: yi.scale(line.c),
        first=lambda yi, yk, line: point(line.c),
        second=None,
        lam=lambda yi, yk, line, ls, lam: lam.scale(line.c),
        ops=1, second_ops=0, lam_ops=1),
}

UNARY_OPS = frozenset(UNARY_RULES)
BINARY_OPS = {"add", "mul"}
AFFINE_OPS = frozenset(op for op, rule in UNARY_RULES.items() if rule.second is None)

# real-point rule per operation, called as fn(vals, i, b) (see point_steps)
_POINT_OPS = {
    "add": lambda v, i, j: v[i] + v[j],
    "mul": lambda v, i, j: v[i] * v[j],
    "powNat": lambda v, i, m: v[i] ** m,
    "oneOver": lambda v, i, _: 1.0 / v[i],
    "sqrt": lambda v, i, _: math.sqrt(v[i]),
    "exp": lambda v, i, _: math.exp(v[i]),
    "ln": lambda v, i, _: math.log(v[i]),
    "addC": lambda v, i, c: v[i] + c,
    "mulByC": lambda v, i, c: v[i] * c,
}


@dataclass(frozen=True)
class Line:
    """One codelist entry.  Operand refs i, j are 1-based line numbers."""

    op: str
    i: Optional[int] = None
    j: Optional[int] = None
    c: Optional[float] = None
    m: Optional[int] = None

    def describe(self) -> str:
        if self.op == "var":
            return "var"
        if self.op in BINARY_OPS:
            return f"{self.op}({self.i},{self.j})"
        if self.op == "powNat":
            return f"powNat({self.i},m={self.m})"
        if self.op in AFFINE_OPS:
            return f"{self.op}({self.i},c={self.c:g})"
        return f"{self.op}({self.i})"


@dataclass
class Codelist:
    """Straight-line program for one scalar function of n variables."""

    n: int
    lines: Tuple[Line, ...]
    indep: Optional[Tuple[frozenset, ...]] = field(default=None, repr=False)
    linear: Optional[Tuple[frozenset, ...]] = field(default=None, repr=False)
    # (n, lines, indep, linear) as last validated, and (n, lines, steps) as
    # last compiled by point_steps(); a reassigned field invalidates either
    _validated: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _steps: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def t(self) -> int:
        """Number of operation lines (codelist length minus var prefix)."""
        return len(self.lines) - self.n

    @property
    def analyzed(self) -> bool:
        return self.indep is not None

    def line(self, k: int) -> Line:
        return self.lines[k - 1]

    def validate(self) -> None:
        """Check structural invariants; raises MalformedCodelist.

        A passed check is remembered until ``n``, ``lines``, ``indep`` or
        ``linear`` is reassigned (the tuples themselves are immutable).
        """
        seen = self._validated
        if (seen is not None and seen[0] == self.n and seen[1] is self.lines
                and seen[2] is self.indep and seen[3] is self.linear):
            return
        n = self.n
        if n < 1:
            raise MalformedCodelist(0, "variable count must be at least 1")
        for k, line in enumerate(self.lines, start=1):
            if k <= n:
                if line.op != "var":
                    raise MalformedCodelist(k, "first n lines must be var lines")
                continue
            if line.op == "var":
                raise MalformedCodelist(k, "var line after the variable prefix")
            if line.op in BINARY_OPS:
                if line.i is None or line.j is None:
                    raise MalformedCodelist(k, f"{line.op} needs two operands")
                if not (1 <= line.i < k and 1 <= line.j < k):
                    raise MalformedCodelist(k, "operand refs must point to earlier lines")
            elif line.op in UNARY_OPS:
                if line.i is None or not 1 <= line.i < k:
                    raise MalformedCodelist(k, "operand ref must point to an earlier line")
                if line.op == "powNat" and (line.m is None or line.m < 2):
                    raise MalformedCodelist(k, "powNat exponent must be >= 2")
                if line.op in AFFINE_OPS and (line.c is None or not math.isfinite(line.c)):
                    raise MalformedCodelist(k, f"{line.op} needs a finite constant")
            else:
                raise MalformedCodelist(k, f"unknown operation {line.op!r}")
        if self.analyzed:
            full = frozenset(range(1, n + 1))
            for k in range(1, len(self.lines) + 1):
                ik, lk = self.indep[k - 1], self.linear[k - 1]
                if not ik <= lk:
                    raise MalformedCodelist(k, "independence set exceeds linear set")
                if ik == full:
                    raise MalformedCodelist(k, "a line cannot be independent of every variable")
        self._validated = (n, self.lines, self.indep, self.linear)

    def point_steps(self) -> Tuple[Tuple[Callable, int, object], ...]:
        """The operation lines as ``(fn, i, b)`` steps for real-point evaluation.

        Step k computes ``fn(vals, i, b)`` from the list ``vals`` of earlier
        line values: ``i`` is the 0-based operand, ``b`` the second operand
        or the constant.  Built once, and again only after ``n`` or ``lines``
        is reassigned.
        """
        cached = self._steps
        if cached is not None and cached[0] == self.n and cached[1] is self.lines:
            return cached[2]
        self.validate()
        steps = []
        for line in self.lines[self.n:]:
            if line.op in BINARY_OPS:
                steps.append((_POINT_OPS[line.op], line.i - 1, line.j - 1))
            else:
                steps.append((_POINT_OPS[line.op], line.i - 1,
                              line.m if line.op == "powNat" else line.c))
        self._steps = (self.n, self.lines, tuple(steps))
        return self._steps[2]

    def analyze(self) -> "Codelist":
        """Populate the per-line index sets (idempotent)."""
        self.validate()
        n = self.n
        full = frozenset(range(1, n + 1))
        indep: list = []
        linear: list = []
        for k, line in enumerate(self.lines, start=1):
            if line.op == "var":
                indep.append(full - {k})
                linear.append(full)
            elif line.op == "add":
                indep.append(indep[line.i - 1] & indep[line.j - 1])
                linear.append(linear[line.i - 1] & linear[line.j - 1])
            elif line.op == "mul":
                both = indep[line.i - 1] & indep[line.j - 1]
                indep.append(both)
                linear.append(both)
            elif line.op in AFFINE_OPS:
                indep.append(indep[line.i - 1])
                linear.append(linear[line.i - 1])
            else:  # nonaffine unary
                indep.append(indep[line.i - 1])
                linear.append(indep[line.i - 1])
        self.indep = tuple(indep)
        self.linear = tuple(linear)
        self.validate()
        return self

    def dump(self) -> str:
        """Debug listing, one line per entry, with index sets if analyzed."""
        out = []
        for k, line in enumerate(self.lines, start=1):
            text = f"{k}: {line.describe()}"
            if self.analyzed:
                i = ",".join(map(str, sorted(self.indep[k - 1])))
                l = ",".join(map(str, sorted(self.linear[k - 1])))
                text += f" I={{{i}}} L={{{l}}}"
            out.append(text)
        return "\n".join(out)
