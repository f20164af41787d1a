"""Straight-line IR for factorable functions plus static sparsity analysis.

A codelist is a sequence of lines; the first n lines introduce the
variables and every later line applies one elementary operation to earlier
lines.  A :class:`Codelist` is immutable and analysed when it is built:
construction validates it and :meth:`Codelist.analyze` attaches to every
line k

* ``indep[k]`` -- variables the intermediate function y_k is independent of,
* ``linear[k]`` -- variables y_k depends on at most linearly,
* ``blocks[k]`` -- the variables outside ``linear[k]``, ascending: the block
  of y_k's Hessian that can be nonzero, on which the λ operators act,
* ``rules[k]`` -- the :class:`Rule` by which the sparsity-aware engine
  combines the operands' eigenvalue bounds (``None`` on a var line).

All four are determined by the operation structure alone; they do not
depend on the box the codelist is later evaluated over.

:data:`UNARY_RULES` holds the interval rules of every unary operation
y_k = r(y_i): its value, r', r'' and the factored curvature rule.  Both
bound engines and the interval-Hessian reference route apply them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional, Tuple

from .errors import DomainViolation, MalformedCodelist
from .interval import ZERO, Interval, hull, point, zero_widen

__all__ = ["Line", "Codelist", "Rule", "UnaryRule", "UNARY_RULES"]


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


# how an operand's eigenvalue bound enters its line's rule
ABSENT, EXACT, WIDENED = "absent", "exact", "widened"
# how a binary line combines its own λ_t bound with its operands' terms
SUM, WIDENED_SUM, HULL, WIDENED_HULL, STAR = "sum", "widened sum", "hull", "widened hull", "2x2"


def term(kind: str, lam: Interval, factor: Optional[Interval] = None) -> Optional[Interval]:
    """An operand's term in a rule: ``factor·lam``, ``lam`` zero-widened
    first if ``kind`` is WIDENED; ``None`` if it is ABSENT."""
    if kind == ABSENT:
        return None
    if kind == WIDENED:
        lam = zero_widen(lam)
    return lam if factor is None else factor * lam


def _plus(x: Optional[Interval], y: Optional[Interval]) -> Optional[Interval]:
    return y if x is None else x if y is None else x + y


@dataclass(frozen=True)
class Rule:
    """Sparsity rule of one codelist line, chosen once by :meth:`Codelist.analyze`.

    ``op`` is ``"add"``, ``"mul"`` or ``"unary"``.  Each
    operand x enters as a :func:`term`: ABSENT when L_x holds every
    variable, else its bound λ_x, EXACT or WIDENED (zero_widen(λ_x)), and
    on a mul line scaled by the other operand's value.  A binary line
    combines λ_t over its block, if it has one, with the terms a and b:

    * SUM -- ``(λ_t + a) + b``, absent terms left out, 0 if nothing is left;
    * WIDENED_SUM -- ``λ_t + zero_widen(a + b)``;
    * HULL / WIDENED_HULL -- ``λ_t + hull(a, b)``, the hull zero-widened;
    * STAR -- the 2x2 rule ``lambda_star(a, b, gi[p]·gj[q])`` with
      ``cross == (p, q)``, absent terms as 0.

    A unary line uses ``i`` only.  Every rule but a 2x2 one is one object
    shared by all lines that take it.
    """

    op: str
    i: str
    j: str = ABSENT
    combine: str = SUM
    cross: Optional[Tuple[int, int]] = None

    @property
    def name(self) -> str:
        """The terms and the combination, e.g. ``exact/widened widened sum``
        or ``exact/absent 2x2 1,2``; on a unary line the term alone."""
        if self.op not in BINARY_OPS:
            return self.i
        cross = "" if self.cross is None else " {},{}".format(*self.cross)
        return f"{self.i}/{self.j} {self.combine}{cross}"

    def apply(self, lt: Optional[Interval], lam_i: Interval, lam_j: Interval,
              yi: Optional[Interval] = None, yj: Optional[Interval] = None) -> Interval:
        """A binary line's bound from its λ_t bound ``lt`` (``None`` on an add
        line) and its operands' bounds; on a mul line the terms are scaled by
        ``yj`` and ``yi``.  Evaluated in the order the formula is written.
        The 2x2 rule is the engine's: it needs the gradients."""
        a = term(self.i, lam_i, yj)
        if self.combine == SUM:
            out = _plus(_plus(lt, a), term(self.j, lam_j, yi))
            return ZERO if out is None else out
        b = term(self.j, lam_j, yi)
        if self.combine == WIDENED_SUM:
            return lt + zero_widen(a + b)
        h = hull(a, b)
        if self.combine == WIDENED_HULL:
            h = zero_widen(h)
        return h if lt is None else lt + h


_shared_rule = cache(Rule)  # one object per (op, i, j, combine)


def _binary_rule(op: str, ii: frozenset, li: frozenset, ij: frozenset, lj: frozenset,
                 lk: frozenset, full: frozenset) -> Rule:
    if li == full and lj == full:
        return _shared_rule(op, ABSENT, ABSENT, SUM)
    if op == "mul" and len(ii) == len(ij) == len(full) - 1 and ii | ij == full:
        # each operand depends on one variable, a different one: the 2x2 rule
        (p,), (q,) = full - ii, full - ij
        return Rule(op, ABSENT if li == full else EXACT,
                    ABSENT if lj == full else EXACT, STAR, (p, q))
    lc = li & lj
    if li == full or lj == full:
        kind = EXACT if lk == lc else WIDENED
        return _shared_rule(op, ABSENT if li == full else kind,
                            ABSENT if lj == full else kind, SUM)
    if li | lj == full:
        return _shared_rule(op, EXACT, EXACT, HULL if lk == lc else WIDENED_HULL)
    nested = li <= lj or lj <= li
    return _shared_rule(op, EXACT if li <= lj else WIDENED, EXACT if lj <= li else WIDENED,
                        WIDENED_SUM if nested and lk < lc else SUM)


def _is_ref(ref, k: int) -> bool:
    """Whether ``ref`` is the (1-based) number of a line before line k."""
    return type(ref) is int and 1 <= ref < k


@dataclass(frozen=True)
class Codelist:
    """Straight-line program for one scalar function of n variables; building
    one raises :class:`MalformedCodelist` if it is malformed."""

    n: int
    lines: Tuple[Line, ...]
    indep: Tuple[frozenset, ...] = field(init=False, repr=False, compare=False)
    linear: Tuple[frozenset, ...] = field(init=False, repr=False, compare=False)
    blocks: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    rules: Tuple[Optional[Rule], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))
        self.analyze()

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def t(self) -> int:
        """Number of operation lines (codelist length minus var prefix)."""
        return len(self.lines) - self.n

    def validate(self) -> None:
        """Check structural invariants; raises MalformedCodelist."""
        n = self.n
        if type(n) is not int or n < 1:
            raise MalformedCodelist(0, "variable count must be an integer >= 1")
        for k, line in enumerate(self.lines, start=1):
            if k <= n:
                if line.op != "var":
                    raise MalformedCodelist(k, "first n lines must be var lines")
                continue
            if line.op == "var":
                raise MalformedCodelist(k, "var line after the variable prefix")
            binary = line.op in BINARY_OPS
            if not binary and line.op not in UNARY_OPS:
                raise MalformedCodelist(k, f"unknown operation {line.op!r}")
            if not (_is_ref(line.i, k) and (not binary or _is_ref(line.j, k))):
                raise MalformedCodelist(k, "operand refs must be numbers of earlier lines")
            if line.op == "powNat" and not (type(line.m) is int and line.m >= 2):
                raise MalformedCodelist(k, "powNat exponent must be an integer >= 2")
            if line.op in AFFINE_OPS and not (isinstance(line.c, (int, float))
                                              and math.isfinite(line.c)):
                raise MalformedCodelist(k, f"{line.op} needs a finite constant")

    @cached_property
    def point_steps(self) -> Tuple[Tuple[Callable, int, object], ...]:
        """The operation lines as ``(fn, i, b)`` steps for real-point evaluation.

        Step k computes ``fn(vals, i, b)`` from the list ``vals`` of earlier
        line values: ``i`` is the 0-based operand, ``b`` the second operand
        or the constant.  Built on first use.
        """
        steps = []
        for line in self.lines[self.n:]:
            if line.op in BINARY_OPS:
                steps.append((_POINT_OPS[line.op], line.i - 1, line.j - 1))
            else:
                steps.append((_POINT_OPS[line.op], line.i - 1,
                              line.m if line.op == "powNat" else line.c))
        return tuple(steps)

    def analyze(self) -> "Codelist":
        """Validate, then derive the per-line index sets, blocks and rules.

        Construction calls it; calling it again derives the same values.
        """
        self.validate()
        n = self.n
        full = frozenset(range(1, n + 1))
        indep: list = []
        linear: list = []
        blocks: list = []
        rules: list = []
        seen: dict = {}  # linear set -> its block, so equal sets share one tuple
        for k, line in enumerate(self.lines, start=1):
            if line.op == "var":
                ik, lk, rule = full - {k}, full, None
            else:
                ii, li = indep[line.i - 1], linear[line.i - 1]
                if line.op in BINARY_OPS:
                    ij, lj = indep[line.j - 1], linear[line.j - 1]
                    ik = ii & ij
                    lk = li & lj if line.op == "add" else ik
                    rule = _binary_rule(line.op, ii, li, ij, lj, lk, full)
                else:
                    ik = ii
                    lk = li if line.op in AFFINE_OPS else ii
                    # L_k = L_i on an affine line, so its term is never widened
                    kind = ABSENT if li == full else EXACT if lk == li else WIDENED
                    rule = _shared_rule("unary", kind)
            block = seen.get(lk)
            if block is None:
                block = seen[lk] = tuple(sorted(full - lk))
            indep.append(ik)
            linear.append(lk)
            blocks.append(block)
            rules.append(rule)
        object.__setattr__(self, "indep", tuple(indep))
        object.__setattr__(self, "linear", tuple(linear))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "rules", tuple(rules))
        return self

    def dump(self) -> str:
        """Debug listing, one line per entry, with index sets and rule."""
        out = []
        for k, line in enumerate(self.lines, start=1):
            i = ",".join(map(str, sorted(self.indep[k - 1])))
            l = ",".join(map(str, sorted(self.linear[k - 1])))
            text = f"{k}: {line.describe()} I={{{i}}} L={{{l}}}"
            rule = self.rules[k - 1]
            if rule is not None:
                text += f" rule: {rule.name}"
            out.append(text)
        return "\n".join(out)
