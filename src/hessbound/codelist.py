"""Straight-line IR for factorable functions plus static sparsity analysis.

A codelist is a sequence of lines; the first n lines introduce the
variables and every later line applies one elementary operation to earlier
lines.  A :class:`Codelist` is immutable and analysed when it is built:
construction validates it and :meth:`Codelist.analyze` attaches to every
line k

* ``supports[k]`` -- S_k, ascending: the variables y_k can depend on, the
  support of its gradient and the keys of the engines' sparse gradient of
  line k,
* ``blocks[k]`` -- B_k ⊆ S_k, ascending: the variables y_k can depend on
  nonlinearly, the block of its Hessian that can be nonzero, on which the λ
  operators act,
* ``rules[k]`` -- the :class:`Rule` by which the sparsity-aware engine
  combines the operands' eigenvalue bounds (``None`` on a var line).

and to the codelist ``op_counts``, each engine's operation count.  All are
fixed by the operation structure alone, not by the box it is evaluated over.
The analysis works on these small sets, so its time and the memory a
codelist keeps grow with the sizes of the supports, not with n per line.
Their complements, ``indep[k]`` (I_k, the variables y_k is independent of)
and ``linear[k]`` (L_k, those it depends on at most linearly), are derived
on first read, for :meth:`Codelist.dump` and for inspection; no bound route
reads them.

:data:`UNARY_RULES` holds the interval rules of every unary operation
y_k = r(y_i): its value, r', r'' and the factored curvature rule, on
``(lo, hi)`` float pairs.  Both bound engines and the interval-Hessian
reference route apply them from here; a :class:`Rule` is data, which the
engines' line templates in :mod:`hessbound.bounds` apply.

:attr:`Codelist.point_function` is the codelist as one generated Python
function of a real point, one source line per codelist line, compiled on
first use and kept on the codelist (a pickled codelist is rebuilt from
``n`` and ``lines`` and compiles its own); it raises the package's errors
itself.  :attr:`Codelist.last_read`, the last reader of each line, is kept
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (DomainViolation, InvalidArgument, InvalidInterval, LengthMismatch,
                     MalformedCodelist, shown)
from .interval import (
    Interval,
    Pair,
    pair_add,
    pair_exp,
    pair_ln,
    pair_mul,
    pair_pow,
    pair_recip,
    pair_scale,
    pair_sqrt,
)

__all__ = ["Line", "Codelist", "Rule", "UnaryRule", "UNARY_RULES"]


@dataclass(frozen=True)
class UnaryRule:
    """Interval rules of one unary operation y_k = r(y_i).

    Every interval a rule takes or returns is a ``(lo, hi)`` pair of floats,
    computed by the endpoint kernels of :mod:`hessbound.interval`.  Each rule
    is called with the operand enclosure ``yi``, the value enclosure ``yk``
    and the codelist ``line`` (for its ``m`` or ``c``):

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

    ``ops``, ``second_ops`` and ``lam_ops`` are the operation counts of
    ``value`` and ``first`` together, of ``second·ls`` and of ``lam``, as
    :meth:`Codelist.analyze` adds them into ``op_counts``.
    """

    value: Callable
    first: Optional[Callable]
    second: Optional[Callable]
    lam: Callable
    ops: int
    second_ops: int
    lam_ops: int


def _sqrt(yi: Pair, line) -> Pair:
    lo, hi = yi
    if lo <= 0.0:
        # r' divides by sqrt(y); demand strict positivity
        raise DomainViolation("sqrt", Interval(lo, hi))
    return pair_sqrt(yi)


def _sqrt_second(yi: Pair, yk: Pair, line) -> Pair:
    cube = pair_pow(yk, 3)
    if cube[0] == 0.0:  # y^3 underflows although y > 0: r'' = -1/(4y^3) overflows
        raise InvalidInterval(f"sqrt r'' overflow on {Interval(*yi)}")
    return pair_recip(pair_scale(cube, -4.0))


UNARY_RULES = {
    "powNat": UnaryRule(
        value=lambda yi, line: pair_pow(yi, line.m),
        first=lambda yi, yk, line: pair_scale(pair_pow(yi, line.m - 1), line.m),
        second=lambda yi, yk, line:
            pair_scale(pair_pow(yi, line.m - 2), line.m * (line.m - 1)),
        lam=lambda yi, yk, line, ls, lam:
            pair_mul(pair_scale(pair_pow(yi, line.m - 2), line.m),
                     pair_add(pair_scale(ls, line.m - 1), pair_mul(yi, lam))),
        ops=3, second_ops=3, lam_ops=5),
    "oneOver": UnaryRule(
        value=lambda yi, line: pair_recip(yi),
        first=lambda yi, yk, line: pair_scale(pair_pow(yk, 2), -1.0),
        second=lambda yi, yk, line: pair_scale(pair_pow(yk, 3), 2.0),
        lam=lambda yi, yk, line, ls, lam:
            pair_mul(pair_pow(yk, 2),
                     pair_add(pair_mul(pair_scale(yk, 2.0), ls), pair_scale(lam, -1.0))),
        ops=3, second_ops=3, lam_ops=4),
    "sqrt": UnaryRule(
        value=_sqrt,
        first=lambda yi, yk, line: pair_recip(pair_scale(yk, 2.0)),
        second=_sqrt_second,
        lam=lambda yi, yk, line, ls, lam:
            pair_mul(pair_recip(pair_scale(yk, 2.0)),
                     pair_add(pair_mul(pair_recip(pair_scale(yi, -2.0)), ls), lam)),
        ops=3, second_ops=3, lam_ops=4),
    "exp": UnaryRule(
        value=lambda yi, line: pair_exp(yi),
        first=lambda yi, yk, line: yk,
        second=lambda yi, yk, line: yk,
        lam=lambda yi, yk, line, ls, lam: pair_mul(yk, pair_add(ls, lam)),
        ops=1, second_ops=2, lam_ops=2),
    "ln": UnaryRule(
        value=lambda yi, line: pair_ln(yi),
        first=lambda yi, yk, line: pair_recip(yi),
        second=lambda yi, yk, line: pair_scale(pair_pow(pair_recip(yi), 2), -1.0),
        lam=lambda yi, yk, line, ls, lam:
            pair_mul(ri := pair_recip(yi), pair_add(lam, pair_scale(pair_mul(ri, ls), -1.0))),
        ops=2, second_ops=4, lam_ops=4),
    "addC": UnaryRule(
        value=lambda yi, line: pair_add(yi, (line.c, line.c)),
        first=None,
        second=None,
        lam=lambda yi, yk, line, ls, lam: lam,
        ops=1, second_ops=0, lam_ops=0),
    "mulByC": UnaryRule(
        value=lambda yi, line: pair_scale(yi, line.c),
        first=lambda yi, yk, line: (float(line.c), float(line.c)),
        second=None,
        lam=lambda yi, yk, line, ls, lam: pair_scale(lam, line.c),
        ops=1, second_ops=0, lam_ops=1),
}

UNARY_OPS = frozenset(UNARY_RULES)
BINARY_OPS = {"add", "mul"}
AFFINE_OPS = frozenset(op for op, rule in UNARY_RULES.items() if rule.second is None)

# real-point rule per operation, as source: v{i} / v{j} are the operand
# lines' values, c{k} is line k's constant (see Codelist.point_function)
_POINT_EXPR = {
    "add": "v{i} + v{j}",
    "mul": "v{i} * v{j}",
    "powNat": "v{i} ** {m}",
    "oneOver": "1.0 / v{i}",
    "sqrt": "sqrt(v{i})",
    "exp": "exp(v{i})",
    "ln": "log(v{i})",
    "addC": "v{i} + c{k}",
    "mulByC": "v{i} * c{k}",
}


def _point_length(x) -> int:
    """``len(x)``, or :class:`InvalidArgument` unless ``x`` is a sequence or a 1-D array."""
    # tuples and lists first: an isinstance test against the Sequence ABC costs
    # several times as much as a type test
    if (type(x) is tuple or type(x) is list or isinstance(x, Sequence)
            or getattr(x, "ndim", None) == 1):
        return len(x)
    raise InvalidArgument(f"a point must be a sequence or a 1-D array, got {type(x).__name__}")


def _point_error(lines, x, vals, err) -> Exception:
    """The package's error for the exception ``err`` of a point function's
    line, or for a non-finite value if ``err`` is ``None``; ``vals`` are the
    function's locals, and its source line k + 3 computes codelist line k."""
    if err is None:  # name the first line whose value is not finite
        k = next(k for k in range(1, len(lines) + 1) if not math.isfinite(vals[f"v{k}"]))
        text = f"non-finite value {vals[f'v{k}']!r} from {lines[k - 1].op}"
    else:
        k = err.__traceback__.tb_lineno - 3  # the point function's own frame
        line = lines[k - 1]
        if line.op == "var":  # float() of the component failed
            why = "too large for a float" if isinstance(err, OverflowError) else "not a number"
            return InvalidInterval(f"point component {k} is {shown(x[k - 1])}, {why}")
        arg = vals[f"v{line.i}"]
        if not isinstance(err, OverflowError):
            return DomainViolation("recip" if line.op == "oneOver" else line.op, arg, line=k)
        text = f"{line.op} overflow on {arg!r}"
    out = InvalidInterval(f"{text} at codelist line {k}")
    out.line = k
    return out


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


@dataclass(frozen=True)
class Rule:
    """Sparsity rule of one codelist line, chosen once by :meth:`Codelist.analyze`.

    ``op`` is ``"add"``, ``"mul"`` or ``"unary"``.  Each
    operand x enters as a term: ABSENT when L_x holds every variable, else
    its bound λ_x, EXACT or WIDENED (zero_widen(λ_x)), and on a mul line
    scaled by the other operand's value.  A binary line
    combines λ_t over its block, if it has one, with the terms a and b:

    * SUM -- ``(λ_t + a) + b``, absent terms left out, 0 if nothing is left;
    * WIDENED_SUM -- ``λ_t + zero_widen(a + b)``;
    * HULL / WIDENED_HULL -- ``λ_t + hull(a, b)``, the hull zero-widened;
    * STAR -- the 2x2 rule ``lambda_star(a, b, gi[p]·gj[q])`` with
      ``cross == (p, q)``, absent terms as 0.

    A unary line uses ``i`` only.  Every rule but a 2x2 one is one object
    shared by all lines that take it.  The rule is data: the engines'
    source template of each (op, i, j, combine) applies it
    (``hessbound.bounds._template``).
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


_shared_rule = cache(Rule)  # one object per (op, i, j, combine)


def _binary_rule(op: str, si: frozenset, bi: frozenset, sj: frozenset, bj: frozenset,
                 bk: frozenset) -> Rule:
    """The :class:`Rule` of an ``op`` line from its operands' supports
    ``si``, ``sj`` and blocks ``bi``, ``bj`` and its own block ``bk``.

    An empty block is an operand whose L holds every variable (ABSENT); two
    disjoint blocks are L_i ∪ L_j = all; B_j ⊆ B_i is L_i ⊆ L_j; and the
    line's block B_k growing past B_i ∪ B_j is L_k ⊊ L_i ∩ L_j.
    """
    if not bi and not bj:
        return _shared_rule(op, ABSENT, ABSENT, SUM)
    if op == "mul" and len(si) == len(sj) == 1 and si != sj:
        # each operand depends on one variable, a different one: the 2x2 rule
        (p,), (q,) = si, sj
        return Rule(op, EXACT if bi else ABSENT, EXACT if bj else ABSENT, STAR, (p, q))
    bc = bi | bj
    if not bi or not bj:
        kind = EXACT if bk == bc else WIDENED
        return _shared_rule(op, kind if bi else ABSENT, kind if bj else ABSENT, SUM)
    if bi.isdisjoint(bj):
        return _shared_rule(op, EXACT, EXACT, HULL if bk == bc else WIDENED_HULL)
    inner_i, inner_j = bi <= bj, bj <= bi  # L_j ⊆ L_i, L_i ⊆ L_j
    return _shared_rule(op, EXACT if inner_j else WIDENED, EXACT if inner_i else WIDENED,
                        WIDENED_SUM if (inner_i or inner_j) and bk > bc else SUM)


def _check_variable_count(n) -> None:
    """Raise :class:`MalformedCodelist` unless ``n`` is an integer >= 1."""
    if type(n) is not int or n < 1:
        raise MalformedCodelist(0, "variable count must be an integer >= 1")


def _is_ref(ref, k: int) -> bool:
    """Whether ``ref`` is the (1-based) number of a line before line k."""
    return type(ref) is int and 1 <= ref < k


@dataclass(frozen=True)
class Codelist:
    """Straight-line program for one scalar function of n variables; building
    one raises :class:`MalformedCodelist` if it is malformed.

    The derived fields are those of the module docstring, one entry per
    line.  ``supports[k - 1]`` lists, ascending, the variables line k's
    gradient can depend on; the engines pass the operands' supports to
    ``pair_lambda_t``.  Equal index sets share one tuple.  The stored fields
    are the supports and blocks; :attr:`indep` and :attr:`linear`, their
    complements, are derived from them on first read.
    """

    n: int
    lines: Tuple[Line, ...]
    supports: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    blocks: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    rules: Tuple[Optional[Rule], ...] = field(init=False, repr=False, compare=False)
    op_counts: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.lines, Iterable):  # validate rejects anything else
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
        _check_variable_count(n)
        if type(self.lines) is not tuple:
            raise MalformedCodelist(0, "lines must be a sequence of Line entries")
        for k, line in enumerate(self.lines, start=1):
            if not isinstance(line, Line):
                raise MalformedCodelist(k, f"not a Line: {line!r}")
            op = line.op
            if k <= n:
                if op != "var":
                    raise MalformedCodelist(k, "first n lines must be var lines")
                if line.i is not None or line.j is not None:
                    raise MalformedCodelist(k, "a var line takes no operands")
            elif op == "var":
                raise MalformedCodelist(k, "var line after the variable prefix")
            else:
                binary = op in BINARY_OPS
                if not binary and op not in UNARY_OPS:
                    raise MalformedCodelist(k, f"unknown operation {op!r}")
                if not (_is_ref(line.i, k) and (not binary or _is_ref(line.j, k))):
                    raise MalformedCodelist(k, "operand refs must be numbers of earlier lines")
                if not binary and line.j is not None:
                    raise MalformedCodelist(k, f"{op} takes one operand, got j={shown(line.j)}")
                if op == "powNat" and not (type(line.m) is int and line.m >= 2):
                    raise MalformedCodelist(k, "powNat exponent must be an integer >= 2")
                if op in AFFINE_OPS and not (isinstance(line.c, (int, float))
                                             and type(line.c) is not bool
                                             and math.isfinite(line.c)):
                    raise MalformedCodelist(k, f"{op} needs a finite constant")
            # a field the op does not use would be ignored by every pass and by dump()
            if line.c is not None and op not in AFFINE_OPS:
                raise MalformedCodelist(k, f"{op} takes no constant, got c={shown(line.c)}")
            if line.m is not None and op != "powNat":
                raise MalformedCodelist(k, f"{op} takes no exponent, got m={shown(line.m)}")
        if len(self.lines) < n:
            raise MalformedCodelist(0, f"{len(self.lines)} lines, fewer than the {n} var "
                                       "lines a codelist starts with")

    def __reduce__(self):
        # rebuilt from its inputs: the derived fields are analysed again, and
        # a generated point function is not carried over (it cannot be pickled)
        return Codelist, (self.n, self.lines)

    @cached_property
    def point_function(self) -> Callable:
        """The codelist as one Python function ``point(x)`` of a real point.

        Its source is generated and compiled on first use; source line k + 3
        computes the local ``v<k>`` of codelist line k, a var line as
        ``float(x[k - 1])``.  It returns ``v<N>`` of the last line, or raises
        :class:`InvalidArgument` unless ``x`` is a sequence or a 1-D array,
        :class:`LengthMismatch`, or :class:`DomainViolation` or
        :class:`InvalidInterval` with ``line`` set to the codelist line it
        names.  An overflow to inf raises nothing, so it checks at the end
        the lines no later line reads and the operands of ``exp`` and
        ``oneOver`` (which map inf to 0), and names the first non-finite line.
        """
        names = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "isfinite": math.isfinite,
                 "LengthMismatch": LengthMismatch, "fail": partial(_point_error, self.lines),
                 "point_length": _point_length}
        src = ["def point(x):", f"    if point_length(x) != {self.n}: raise LengthMismatch(f'point of "
               f"length {{len(x)}} vs codelist of n={self.n}')", "    try:"]
        for k, line in enumerate(self.lines, start=1):
            if line.op == "var":
                expr = f"float(x[{k - 1}])"
            else:
                expr = _POINT_EXPR[line.op].format(i=line.i, j=line.j, m=line.m, k=k)
                if line.op in AFFINE_OPS:
                    names[f"c{k}"] = line.c
            src.append(f"        v{k} = {expr}")
        last = len(self.lines)
        checks = " and ".join(f"isfinite(v{k})" for k in sorted(
            {k for k in range(1, last + 1) if k not in self.last_read}
            | {line.i for line in self.lines if line.op in ("exp", "oneOver")}))
        src += ["    except (ArithmeticError, TypeError, ValueError) as err:",
                "        raise fail(x, locals(), err) from None",
                f"    if {checks}: return v{last}",
                "    raise fail(x, locals(), None)"]
        exec(compile("\n".join(src), "<codelist point function>", "exec"), names)
        return names["point"]

    @cached_property
    def last_read(self) -> Mapping[int, int]:
        """Maps each line that a later line reads to the last line reading it.

        :func:`hessbound.reference.interval_hessian` drops a line's Hessian
        after its last reader.  Built on the first use and kept on the
        codelist; a pickled codelist is rebuilt without it.
        """
        return MappingProxyType({ref: k for k, line in enumerate(self.lines, start=1)
                                 for ref in (line.i, line.j) if ref is not None})

    @cached_property
    def indep(self) -> Tuple[frozenset, ...]:
        """I_k of each line: the variables y_k is independent of, all but
        ``supports[k - 1]``.  Derived on the first read and kept, like
        :attr:`last_read`; the engines and the reference routes never read it."""
        return self._complements(self.supports)

    @cached_property
    def linear(self) -> Tuple[frozenset, ...]:
        """L_k of each line: the variables y_k depends on at most linearly,
        all but ``blocks[k - 1]``.  Derived on the first read, as :attr:`indep`."""
        return self._complements(self.blocks)

    def _complements(self, sets) -> Tuple[frozenset, ...]:
        full = frozenset(range(1, self.n + 1))
        rest = {s: full.difference(s) for s in set(sets)}  # equal sets share one complement
        return tuple(rest[s] for s in sets)

    def analyze(self) -> "Codelist":
        """Validate, then derive the supports, blocks, rules and operation
        counts.  Construction calls it; a second call derives the same values.

        A var line k has S = {k} and B = ∅.  An operation line takes its
        operands' S_i and S_j: a unary line keeps S_k = S_i and has B_k = B_i
        if it is affine, else S_i; an add line has S_k = S_i ∪ S_j and B_k =
        B_i ∪ B_j; a mul line has B_k = S_k = S_i ∪ S_j.  The rule of each
        line is read off these sets (:func:`_binary_rule`).

        ``op_counts`` maps ``"original"`` and ``"improved"`` to the paper's
        cost measure, the interval operations of each method's rules.  With
        s_x = |S_x| (y_x's gradient support, n - |I_x|) and b = |B_k| (the
        size of ``blocks[k]``, n - |L_k|), operation line k costs both methods

        * add: 1 (value) + s_i + s_j - s_k (gradient sums on the shared
          support) + 1 (λ); mul: 1 + s_i + s_j + (s_i + s_j - s_k);
        * unary: ``ops`` (value and r') + s_i (gradient, unless r' = 1);

        then the original method adds 2n + 2 (λ_t) + 3 on a mul line and
        n (λ_s, charged on affine lines too) + ``lam_ops`` on a unary one.
        The improved method adds 2 + 5 (2x2 rule) or 2 + 2b + 2 (λ_t) on a
        mul line, ``lam_ops`` on an affine one and max(b, 1) (λ_s) plus
        ``second_ops`` if the operand's term is absent, else ``lam_ops``, on
        another unary one; and 1 for its final lift.

        The counts are the paper's cost model, not the work the engines do:
        λ_t is charged on the whole block (or on all n variables) although
        the engines sum over the operands' supports, and λ_s and λ_t are
        charged to each method although the engines compute a term of a
        two-or-more-variable block once per box for both.
        """
        self.validate()
        n = self.n
        # (S_k, B_k) of each line as frozensets, until a line reads them; a
        # later reader of the same line (a var line, or a shared operand)
        # rebuilds them from the kept tuples, so a long chain of growing
        # sets is never held at once
        sets: list = []
        supports: list = []
        blocks: list = []
        rules: list = []
        seen: dict = {}  # each distinct ascending tuple, so equal index sets share one

        def new(s):  # a set no operand holds, and its tuple
            t = tuple(sorted(s))
            return s, seen.setdefault(t, t)

        both, original, improved = 0, 0, 1  # 1: the improved final lift
        for k, line in enumerate(self.lines, start=1):
            op, i, j = line.op, line.i, line.j
            if op == "var":
                sets.append(None)
                supports.append(seen.setdefault((k,), (k,)))
                blocks.append(())
                rules.append(None)
                continue
            si, bi = sets[i - 1] or (frozenset(supports[i - 1]), frozenset(blocks[i - 1]))
            sets[i - 1] = None
            if op in BINARY_OPS:
                sj, bj = sets[j - 1] or (frozenset(supports[j - 1]), frozenset(blocks[j - 1]))
                sets[j - 1] = None
                # S_i ∪ S_j: an operand's own set and tuple when it holds the other's
                sk, tk = ((si, supports[i - 1]) if sj <= si else
                          (sj, supports[j - 1]) if si <= sj else new(si | sj))
                bk, tb = ((sk, tk) if op == "mul" else (bi, blocks[i - 1]) if bj <= bi else
                          (bj, blocks[j - 1]) if bi <= bj else new(bi | bj))
                rule = _binary_rule(op, si, bi, sj, bj, bk)
                shared = len(si) + len(sj) - len(sk)  # |S_i ∩ S_j|
                if op == "add":
                    both += shared + 2
                else:
                    both += 1 + len(si) + len(sj) + shared
                    original += 2 * n + 5
                    improved += 7 if rule.cross is not None else 2 * len(bk) + 4
            else:
                sk, tk = si, supports[i - 1]
                # B_k = B_i on an affine line, so its term is never widened;
                # B_k = S_i ⊇ B_i on another one
                bk, tb = (bi, blocks[i - 1]) if op in AFFINE_OPS else (si, tk)
                kind = ABSENT if not bi else EXACT if len(bk) == len(bi) else WIDENED
                rule = _shared_rule("unary", kind)
                unary = UNARY_RULES[op]
                both += unary.ops + (0 if unary.first is None else len(si))
                original += n + unary.lam_ops
                if unary.second is None:
                    improved += unary.lam_ops
                else:
                    improved += max(len(bk), 1) + (
                        unary.second_ops if kind == ABSENT else unary.lam_ops)
            sets.append((sk, bk))
            supports.append(tk)
            blocks.append(tb)
            rules.append(rule)
        object.__setattr__(self, "supports", tuple(supports))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "op_counts", MappingProxyType(
            {"original": both + original, "improved": both + improved}))
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
