"""Evaluation of extended codelists over boxes.

Two engines are provided:

* :func:`eval_original` propagates (value, gradient, eigenvalue-bound)
  triples line by line, treating every intermediate as a function of all
  n variables.
* :func:`eval_improved` additionally uses the per-line index sets to keep
  eigenvalue bounds for the nontrivial Hessian block only, which gives
  bounds that are never wider and often strictly tighter.  Which operand
  bounds enter each line, and how, is the line's ``Codelist.rules`` entry,
  chosen once when the codelist is built.

One walk over the codelist (:func:`_walk`) runs two passes: the value
pass (:func:`_values`), which propagates values, sparse gradients and each
unary line's r', then the rule pass it is given by name: the eigenvalue
rule of either engine, or the interval-Hessian rule of
:func:`hessbound.reference.interval_hessian`.  Every interval the walk
carries -- a line's value, r' and eigenvalue bound, and each gradient
entry -- is a ``(lo, hi)`` pair of floats, computed by the endpoint kernels of
:mod:`hessbound.interval`, the λ kernels included: the interval
arithmetic, bit for bit, with the same validity check and errors.  A sparse
gradient maps a variable index to its entry, so the work scales with the
structurally nonzero entries.  Every unary line takes its value, r' and
curvature rules from :data:`hessbound.codelist.UNARY_RULES`.  Intervals are
built only at the edge, where a public function hands one out: an
:class:`EvalResult`'s value and eigen bound (and its gradient :class:`Box`,
on first read) and the :class:`LineState` triples of a trace.
``op_count`` is the paper's cost measure, ``Codelist.op_counts``: it is
fixed when the codelist is built and the same on every box.

The module keeps the last value pass in one slot, keyed by the codelist
and the box's component tuple, both compared by identity (``is``).  So the
second route (engine, trace or interval Hessian) asked about the same
:class:`Box` object reuses the first one's values and gradients, and any
other call pays one identity check.  The slot also holds the box's λ memo,
created empty with the value pass: λ_t of each mul line and λ_s of each
nonaffine unary line whose block has two or more variables, by line number,
as the first engine on the box computed them; the other engine reads them
(see :func:`_lam_t`).  λ_t gets the operands' sparse gradients with their
``Codelist.supports``, so its sums run over the nonzero entries only.

Both passes name the line that fails: the error is raised with
`` at codelist line k`` appended to its text and ``line`` set to k.  The
value pass does not raise on a line: it records the first failing line and
its error and stops.  The second pass applies its rule to the lines before
that one, so an earlier rule error still wins, and then raises the recorded
error afresh; the errors and their order are those of a single walk.

Each pass is one entry of one table (:data:`_PASSES`), ``(key, template,
names)``, and nothing else: the value pass, both engines' λ passes (see
:func:`_template`) and the interval-Hessian rule, which
:mod:`hessbound.reference` adds.  The walk runs a pass by its name: the
pass's key gives each line's shape, and the interpreter runs that shape's
function (:class:`_Shapes`), compiled from the shape's source template on
first use; it reads the line's operands from the walk's lists by index and
its ``UNARY_RULES`` row when it runs.  What either tier builds of a pass is
kept with the entry it was built from, and built anew once it is replaced.

A codelist walked on many boxes is compiled (see :func:`_generate`): the
first interpreted value pass past ``_COMPILE_AFTER`` on which every line
succeeds has its value pass generated as straight-line Python source, the
same templates filled with the codelist's locals and literals, one statement
per line (:func:`_lines`), and compiled; so is each rule pass of the table on
its first use after that.  The compiled passes are kept in the codelist's
``__dict__`` under their names, which a pickled codelist does not carry, with
the count of passes before them; they bind each line's ``UNARY_RULES`` row
when they are generated.  They also bind, once per codelist, what does not
depend on the box (:data:`_CONSTANTS`): each var line's gradient and the
gradient of each affine line (one with an empty block), taken from the
interpreted pass that builds the value pass, and each Hessian block term's
gradient factor whose operands are affine, from the walk that builds the
Hessian pass (a term that overflows there is left to the pass, which raises
it on every box, so the interpreter names its line).  Every other kernel and
helper call stays per box and in the interpreter's order, so the bits, the
memo and the calls a wrapper of ``bounds.lambda_t`` sees are the same (the λ
kernels are called on every box, also on affine operands), and both traces
use them.  A compiled pass
runs the success path only: when it raises a :class:`HessboundError` or (in
the interval Hessian's numpy arrays) a ``FloatingPointError``, the
interpreter walks that box again and raises its error, naming the line (so a
kernel before the failing line is called twice).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from string import Template
from typing import Callable, Dict, List, Optional

from .codelist import (ABSENT, STAR, SUM, UNARY_RULES, WIDENED, WIDENED_HULL, WIDENED_SUM,
                       Codelist)
from .errors import HessboundError, InvalidArgument, InvalidInterval, LengthMismatch
from .interval import Box, Interval, Pair, ZERO, pair_add, pair_hull, pair_mul, zero_widen
# the engines call the λ kernels by these module names, which tracers and tests wrap
from .interval import pair_lambda_s as lambda_s, pair_lambda_star as lambda_star
from .interval import pair_lambda_t as lambda_t

__all__ = [
    "EvalResult",
    "LineState",
    "eval_original",
    "eval_improved",
    "trace_original",
    "trace_improved",
]

SparseGrad = Dict[int, Pair]
_ZERO, _ONE = (0.0, 0.0), (1.0, 1.0)


@dataclass(frozen=True)
class LineState:
    """Per-line runtime triple: value, full-length gradient, eigen bound."""

    y: Interval
    grad: Box
    lam: Interval


@dataclass(frozen=True)
class EvalResult:
    """A bound method's result on a box (``op_count`` None for a reference).

    The gradient is kept as sparse endpoint pairs, and its :class:`Box` is
    built on the first read of ``gradient``.
    """

    value: Interval
    gradient: Box
    eigen: Interval
    method: str
    op_count: Optional[int]

    __hash__ = None

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the gradient
        # before its first read, built from (sparse gradient, n)
        sparse = self.__dict__.get("_sparse") if name == "gradient" else None
        if sparse is None:
            raise AttributeError(f"'EvalResult' object has no attribute {name!r}")
        return self.__dict__.setdefault("gradient", _full(*sparse))


def _lift(lam_dagger: Interval, size: int, n: int) -> Interval:
    """The full Hessian's bounds from those of its block of ``size`` variables:
    the block's if it is all n variables, 0 if it is empty, else them widened to 0."""
    if size == n:
        return lam_dagger
    if size == 0:
        return ZERO
    return zero_widen(lam_dagger)


def _grad_add(a: SparseGrad, b: SparseGrad) -> SparseGrad:
    """``a + b`` entrywise: the interval sum of the entries both have."""
    out = dict(a)
    for k, v in b.items():
        u = out.get(k)
        out[k] = v if u is None else pair_add(u, v)
    return out


def _grad_scale(g: SparseGrad, f: Pair) -> SparseGrad:
    """``{k: f * x}`` over the entries of g."""
    return {k: pair_mul(f, x) for k, x in g.items()}


def _full(g: SparseGrad, n: int) -> Box:
    return Box(Interval(*g[j]) if j in g else ZERO for j in range(1, n + 1))


# The last value pass: (codelist, box components, ys, grads, firsts, failure,
# memo).  It is reused only for the same codelist and the same component
# tuple, compared with ``is``: equal intervals can differ in the sign of a
# zero endpoint.  The strong references keep both ids from being recycled
# while the slot holds them.  The slot is one tuple, read and replaced whole,
# so threads that share it at worst redo a pass; the memo dict they then
# share only ever gains an entry that is equal to any other writer's.
_last = None


def _values(cl: Codelist, box: Box) -> tuple:
    """The values and sparse gradients of every line, r' by line number, and the first failure.

    Each line runs its shape's function (see :class:`_Shapes`).  The pass
    does not raise on a line: it stops at the first one that fails and
    returns ``(k, error)`` as the failure (``None`` when every line
    succeeds), so that the second pass can raise it in the walk's order.
    """
    n = cl.n
    if len(box) != n:
        raise LengthMismatch(f"box dimension {len(box)} != variable count {n}")
    ys: List[Pair] = [(d.lo, d.hi) for d in box.dims]
    grads: List[SparseGrad] = [{k: _ONE} for k in range(1, n + 1)]
    firsts: Dict[int, Optional[Pair]] = {}
    shapes = _built(_shapes, "_values", lambda: _Shapes("_values"))  # keyed by (line.op,)
    try:
        for k, line in enumerate(cl.lines[n:], start=n + 1):
            yk, gk = shapes[line.op,](k, line, ys, grads, firsts)
            ys.append(yk)
            grads.append(gk)
    except HessboundError as err:
        return ys, grads, firsts, (k, err.with_traceback(None))
    return ys, grads, firsts, None


def _value_pass(cl: Codelist, box: Box) -> tuple:
    """:func:`_values`' result, from the codelist's compiled value pass once
    it has one: the first interpreted pass past ``_COMPILE_AFTER`` on which
    every line succeeds builds it (see :func:`_generate`)."""
    passes = cl.__dict__
    compiled = _kept(passes, "_values")
    if compiled is not None:
        if len(box) == cl.n:  # else _values raises the LengthMismatch
            try:
                return compiled(box.dims)
            except HessboundError:
                pass  # _values records the failing line and its error
        return _values(cl, box)
    result = _values(cl, box)
    count = passes["_value_passes"] = passes.get("_value_passes", 0) + 1
    if count > _COMPILE_AFTER and result[3] is None:
        _built(passes, "_values", lambda: _generate(_values_source(cl, result[:3])))
    return result


def _walk(cl: Codelist, box: Box, name: str) -> tuple:
    """Lists of the values, sparse gradients and results of pass ``name`` of every line.

    ``cl`` is a :class:`Codelist`, else :class:`InvalidArgument` is
    raised; ``box`` is a :class:`Box`, or anything ``Box`` builds one from.  The
    first two lists come from :func:`_value_pass`, or from the slot when the
    previous pass was on this codelist and box.  ``name`` is a rule pass of
    :data:`_PASSES`: operation line k's result is that of its shape's
    function (see :class:`_Shapes`) on those lists, the box's λ memo (see
    :func:`_lam_t`) and the results of earlier lines, (0, 0) on a var line
    (a template may ``$drop`` one no later line reads).  Once the
    codelist's value pass is compiled the rule runs as its compiled pass.
    The lines before a failing one come first, so an earlier rule error
    wins; an error of either pass is raised naming its line.
    """
    global _last
    if not isinstance(cl, Codelist):
        raise InvalidArgument(f"expected a Codelist, got {type(cl).__name__}")
    if not isinstance(box, Box):
        box = Box(box)
    last, dims = _last, box.dims
    if last is not None and last[0] is cl and last[1] is dims:
        ys, grads, firsts, failure, memo = last[2:]
    else:
        ys, grads, firsts, failure = _value_pass(cl, box)
        memo = {}
        _last = cl, dims, ys, grads, firsts, failure, memo
    n = cl.n
    out = [_ZERO] * n
    if failure is None and "_values" in cl.__dict__:
        compiled = _built(cl.__dict__, name,
                          lambda: _generate(_rule_source(cl, name, (ys, grads, firsts))))
        try:
            return ys, grads, compiled(cl, ys, grads, firsts, memo, out)
        except (HessboundError, FloatingPointError):
            pass  # the rule loop below raises the error, naming its line
    key, shapes = _PASSES[name][0], _built(_shapes, name, lambda: _Shapes(name))
    stop = len(cl.lines) if failure is None else failure[0] - 1
    try:
        for k, line in enumerate(cl.lines[n:stop], start=n + 1):
            out.append(shapes[key(cl, k, line)](cl, k, line, ys, grads, firsts, memo, out))
    except HessboundError as err:
        failure = k, err
    if failure is None:
        return ys, grads, out
    k, err = failure
    err = copy.copy(err)  # the slot keeps the recorded error for the next walk on the box
    err.args, err.line = (f"{err} at codelist line {k}",), k
    raise err from None


# λ_t of a mul line and λ_s of a nonaffine unary line act on the line's
# ``Codelist.blocks`` entry: the operands' gradient supports.  On a block of
# two or more variables they give both engines the same bits (the original
# engine's λ_t only adds the +0.0 of the variables outside the block), so
# each is computed once per box, by whichever engine comes first, and kept
# in the memo by line number.  A one-variable block is the exact square or
# product for the improved engine and the rank-one bound in n dimensions for
# the original one, so it stays per engine.  The improved engine takes λ* on
# a 2x2 line and never reads that line's entry.

def _lam_t(cl: Codelist, k: int, line, grads, memo, n: int) -> Pair:
    """λ_t of mul line k in dimension n: the block's own, or the whole space's."""
    i, j = line.i - 1, line.j - 1
    supports = cl.supports[i], cl.supports[j]
    size = len(cl.blocks[k - 1])
    if size == 1:
        return lambda_t(grads[i], grads[j], supports, n)
    lt = memo.get(k)
    if lt is None:
        lt = memo[k] = lambda_t(grads[i], grads[j], supports, size)
    return lt if size == n else (lt[0] + 0.0, lt[1])


def _lam_s(cl: Codelist, k: int, line, grads, memo, n: int) -> Pair:
    """λ_s of unary line k in dimension n, as :func:`_lam_t`."""
    gi = grads[line.i - 1]
    block = cl.blocks[k - 1]
    if len(block) == 1:
        return lambda_s([gi[j] for j in block], n)
    ls = memo.get(k)
    if ls is None:
        ls = memo[k] = lambda_s([gi[j] for j in block], len(block))
    return ls


# -- line shapes: the one formula of each rule ------------------------------
#
# A line shape is one pass of :data:`_PASSES` on one kind of line, as the
# pass's key tells it: the op of a value or original λ line, the op and Rule
# of an improved λ line, the op and carrier kinds of an interval-Hessian
# line.  Its template is the source of that line, with ``string.Template``
# placeholders that each tier fills:
#
#   $k, $line          the line's number and its Line;
#   $yi, $yj, $y       the operands' values and the line's own;
#   $gi, $gj, $g, $f   the sparse gradients, and r' of a unary line;
#   $li, $lj, $l       the operands' results of the pass and the line's own;
#   $n, $size          the dimension of the original engine and of the line's block;
#   $p, $q             the cross of a 2x2 rule;
#   $block, $bi, $bj   the blocks of the line and its operands (Codelist.blocks);
#   $value, $first, $second, $lam   the functions of the line's UNARY_RULES row;
#   ${try}, $except    around statements whose overflow the interpreter raises as
#                      InvalidInterval('non-finite gradient or Hessian enclosure');
#   $drop              sets each operand's result to None after its last reader;
#   $gsum, $gscaled    the gradient of an add and of a mulByC line, and any other
#                      term of _CONSTANTS (below).
#
# A value template assigns $y, $g and $f, a rule template $l; both call the
# kernels and helpers in the order the rule is written.  The code runs in
# this module's namespace, with the names of the pass's table entry, so it
# looks up ``lambda_star``, as ``_lam_t`` and ``_lam_s`` look up ``lambda_t``
# and ``lambda_s``, on every call.

_ROW = ("value", "first", "second", "lam")


def _template(name: str, op: str, i: str = ABSENT, j: str = ABSENT,
              combine: str = SUM) -> Template:
    """The template of engine pass ``name`` on an ``op`` line; ``i``, ``j``
    and ``combine`` are the line's :class:`~hessbound.codelist.Rule` in the
    improved pass (the 2x2 rule's cross is ``$p, $q``)."""
    row = UNARY_RULES.get(op)
    if name == "_values":
        if op == "add":
            src = "$y = pair_add($yi, $yj); $g = $gsum"
        elif op == "mul":
            src = ("$y = pair_mul($yi, $yj); "
                   "$g = _grad_add(_grad_scale($gi, $yj), _grad_scale($gj, $yi))")
        elif row.first is None:  # r' = 1
            src = "$y = $value($yi, $line); $f = None; $g = $gi"
        else:  # an affine line's r' is its constant
            grad = "$gscaled" if row.second is None else "_grad_scale($gi, $f)"
            src = f"$y = $value($yi, $line); $f = $first($yi, $y, $line); $g = {grad}"
    elif name == "_lam_original":
        if op == "add":
            src = "$l = pair_add($li, $lj)"
        elif op == "mul":
            src = ("$l = pair_add(pair_add(pair_mul($yj, $li), pair_mul($yi, $lj)), "
                   "_lam_t(cl, $k, $line, grads, memo, $n))")
        else:
            ls = "None" if row.second is None else "_lam_s(cl, $k, $line, grads, memo, $n)"
            src = f"$l = $lam($yi, $y, $line, {ls}, $li)"
    else:
        def term(kind, lam, factor=None):  # an operand's term (see Rule)
            if kind == ABSENT:
                return None
            if kind == WIDENED:
                lam = f"pair_hull({lam}, _ZERO)"
            return lam if factor is None else f"pair_mul({factor}, {lam})"

        if row is not None:  # a unary line: its operand's term is i
            t = term(i, "$li")
            ls = "_lam_s(cl, $k, $line, grads, memo, $size)"
            if row.second is None:  # affine: L_k = L_i and r'' = 0
                src = "$l = " + ("_ZERO" if t is None else f"$lam($yi, $y, $line, None, {t})")
            elif t is None:  # the argument block vanishes entirely
                src = f"s = {ls}; $l = pair_mul($second($yi, $y, $line), s)"
            else:
                src = f"t = {t}; $l = $lam($yi, $y, $line, {ls}, t)"
            return Template(src)
        scaled = op == "mul"
        a, b = term(i, "$li", "$yj" if scaled else None), term(j, "$lj", "$yi" if scaled else None)
        lt = "_lam_t(cl, $k, $line, grads, memo, $size)" if scaled else None
        if combine == STAR:
            out = (f"lambda_star({a or '_ZERO'}, {b or '_ZERO'}, "
                   "pair_mul($gi.get($p, _ZERO), $gj.get($q, _ZERO)))")
        elif combine == SUM:
            out = None
            for x in (lt, a, b):
                if x is not None:
                    out = x if out is None else f"pair_add({out}, {x})"
            out = out or "_ZERO"
        elif combine == WIDENED_SUM:
            out = f"pair_add({lt}, pair_hull(pair_add({a}, {b}), _ZERO))"
        else:
            out = f"pair_hull({a}, {b})"
            if combine == WIDENED_HULL:
                out = f"pair_hull({out}, _ZERO)"
            if lt is not None:
                out = f"pair_add({lt}, {out})"
        src = f"$l = {out}"
    return Template(src)


def _rule_key(cl: Codelist, k: int, line) -> tuple:
    rule = cl.rules[k - 1]
    return line.op, rule.i, rule.j, rule.combine


# Every pass by name, ``(key, template, names)``, from which both tiers build
# it: the value pass and each rule pass of _walk.  ``key(cl, k, line)`` is
# the shape of operation line k, ``template(*key)`` that shape's Template
# and ``names`` the names its source reads besides this module's.
# hessbound.reference adds the interval-Hessian rule.  An entry replaced
# under its name runs from the next walk on, in both tiers (a value pass
# already in the slot for the same box is reused).
_PASSES = {
    "_values": (lambda cl, k, line: (line.op,), partial(_template, "_values"), {}),
    "_lam_original": (lambda cl, k, line: (line.op,), partial(_template, "_lam_original"), {}),
    "_lam_improved": (_rule_key, partial(_template, "_lam_improved"), {}),
}


# The terms of a line that do not depend on the box, by placeholder: each is
# an expression of the line's placeholders that a template uses only where it
# reads no value of the box once the line's operands have empty blocks (are
# affine): the gradient of an affine line, from its operands' gradients and
# constant.  The interpreter fills a term with its expression on every line.
# A compiled pass fills it so too, except on a line whose operands all have
# empty blocks, where it reads the term's value, computed once when the pass
# is built (see _lines).  hessbound.reference adds the interval Hessian's.
_CONSTANTS = {"gsum": "_grad_add($gi, $gj)", "gscaled": "_grad_scale($gi, $f)"}


def _drop(cl: Codelist, k: int, line, out: list) -> None:
    """The interpreter's ``$drop``: the result in ``out`` of each operation
    line that line k reads last set to None."""
    i, j, n, last_read = line.i, line.j, cl.n, cl.last_read
    if i > n and last_read[i] == k:
        out[i - 1] = None
    if j is not None and j > n and last_read[j] == k:
        out[j - 1] = None


# The interpreter's fill: each placeholder read from the walk's lists by
# index.  The row is looked up when the line runs, so a UNARY_RULES row
# replaced after its shape was compiled takes effect on the next walk.
# ``$drop`` is a call of _drop, after the line's ``$except``.  Each term of
# _CONSTANTS is its expression, filled from this table.
_INTERPRETED = {
    "k": "k", "line": "line", "n": "cl.n", "size": "len(cl.blocks[k - 1])",
    "yi": "ys[line.i - 1]", "yj": "ys[line.j - 1]", "y": "ys[k - 1]",
    "gi": "grads[line.i - 1]", "gj": "grads[line.j - 1]", "g": "g", "f": "firsts[k]",
    "li": "out[line.i - 1]", "lj": "out[line.j - 1]", "l": "l",
    "p": "cl.rules[k - 1].cross[0]", "q": "cl.rules[k - 1].cross[1]",
    "block": "cl.blocks[k - 1]", "bi": "cl.blocks[line.i - 1]", "bj": "cl.blocks[line.j - 1]",
    "drop": "\n_drop(cl, k, line, out)",
    "try": "\ntry: ",
    "except": ("\nexcept (InvalidInterval, FloatingPointError): "
               "raise InvalidInterval('non-finite gradient or Hessian enclosure') from None"),
    **{attr: f"UNARY_RULES[line.op].{attr}" for attr in _ROW},
}


class _Shapes(dict):
    """The interpreter's function of each line shape of pass ``name``, keyed
    by the pass's key (see :data:`_PASSES`): compiled from its template on
    first use and kept in ``_shapes`` (see :func:`_built`).  A value shape is
    ``shape(k, line, ys, grads, firsts)``, giving line k's value and
    gradient; a rule shape is ``shape(cl, k, line, ys, grads, firsts, memo,
    out)``, giving its result."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, shape: tuple):
        _, template, names = _PASSES[self.name]
        fill = {**_INTERPRETED, **{term: Template(src).substitute(_INTERPRETED)
                                   for term, src in _CONSTANTS.items()}}
        if self.name == "_values":
            signature, body = "shape(k, line, ys, grads, firsts)", "return y, g"
            src = template(*shape).substitute(fill, y="y")
        else:
            signature, body = "shape(cl, k, line, ys, grads, firsts, memo, out)", "return l"
            src = template(*shape).substitute(fill)
        return self.setdefault(shape, _generate((signature, [*src.split("\n"), body], names)))


_shapes: Dict[str, tuple] = {}  # each pass's (entry, _Shapes), for the process


def _kept(store: dict, name: str):
    """What ``store`` keeps of pass ``name`` (see :func:`_built`), or None
    when it keeps nothing or what it keeps was made from a replaced entry."""
    kept = store.get(name)
    return kept[1] if kept is not None and kept[0] is _PASSES[name] else None


def _built(store: dict, name: str, build: Callable[[], object]):
    """What ``build()`` makes of pass ``name`` (its :class:`_Shapes`, or a
    codelist's compiled pass): kept in ``store`` under the name with the
    :data:`_PASSES` entry it was made from, and made anew once that entry is
    replaced.  Threads that race on it at worst make it twice."""
    made = _kept(store, name)
    if made is None:
        entry = _PASSES[name]
        made = build()
        store[name] = entry, made
    return made


# -- the compiled tier (see the module docstring) ---------------------------

# Interpreted value passes before a codelist's value pass is compiled; each
# rule pass of _PASSES follows on its first use after that.  Generation
# follows the first successful interpreted pass past this count, whose lists
# give the constants.  Generating and compiling the value and engine passes,
# the constants bound, took 1.7 ms (20 lines) to 13.9 ms (135 lines) per
# codelist, the time of 15 to 34 interpreted walks of both engines on one box
# (the benchmark's engine_boxes and dense_gershgorin codelists, n = 4..48;
# Python 3.11, 2 vCPUs), so compiling costs at most about a tenth of the
# interpreted time spent before it.
_COMPILE_AFTER = 300


def _generate(source: tuple):
    """The function that ``source``, ``(signature, body lines, names)``,
    defines: ``names`` maps each name the body reads besides this module's
    to its value."""
    signature, body, names = source
    name = signature.partition("(")[0]
    src = "\n".join([f"def make({', '.join(names)}):", f"    def {signature}:",
                     *(f"        {line}" for line in body), f"    return {name}"])
    scope: dict = {}
    exec(compile(src, f"<codelist {name} pass>", "exec"), globals(), scope)
    return scope["make"](*names.values())  # by position: keywords bind in quadratic time


def _lines(cl: Codelist, name: str, names: dict, lists: tuple) -> List[str]:
    """Pass ``name`` on cl's operation lines, as source: each line's template
    filled with the codelist's locals (``y5``, ``g5``, ``l5``), ``firsts``
    and literals, the blocks as tuples.  The Line and row functions that
    line k's template reads are bound in ``names`` as ``line5``, ``lam5``
    and so on; its ``$drop`` sets each operand's local to None after its
    last reader.  A term of :data:`_CONSTANTS` on a line whose operands have
    empty blocks is bound as ``gsum5`` and so on: its value on ``lists``,
    the ``(ys, grads, firsts)`` of a walk on which every line succeeded, as
    the interpreter computes it, read-only if it is an array.  A term whose
    value raises (an overflow in a constant Hessian factor) is not bound:
    the pass computes it on every box, so it raises there, and the walk's
    interpreter raises the error naming the line."""
    key, template, extra = _PASSES[name]
    n, blocks, out, bound = cl.n, cl.blocks, [], ("line", *_ROW)
    ys, grads, firsts = lists
    scope = {**globals(), **extra}
    for k, line in enumerate(cl.lines[n:], start=n + 1):
        i, j, rule = line.i, line.j, cl.rules[k - 1]
        shape = template(*key(cl, k, line))
        text = shape.template
        row = UNARY_RULES.get(line.op)
        for attr in bound:
            if f"${attr}" in text:
                names[f"{attr}{k}"] = line if attr == "line" else getattr(row, attr)
        drop = "" if "$drop" not in text else "".join(
            f"; l{r} = None" for r in dict.fromkeys((i, j))
            if r is not None and r > n and cl.last_read[r] == k)
        p, q = rule.cross or (None, None)
        fill = {"try": "", "except": "", **{attr: f"{attr}{k}" for attr in bound},
                "k": k, "n": n, "size": len(blocks[k - 1]), "block": blocks[k - 1],
                "bi": blocks[i - 1], "bj": j and blocks[j - 1], "yi": f"y{i}", "yj": f"y{j}",
                "y": f"y{k}", "gi": f"g{i}", "gj": f"g{j}", "g": f"g{k}", "f": f"firsts[{k}]",
                "li": f"l{i}" if i > n else "_ZERO", "lj": f"l{j}" if j and j > n else "_ZERO",
                "l": f"l{k}", "p": p, "q": q, "drop": drop}
        affine = not blocks[i - 1] and (j is None or not blocks[j - 1])
        for term, src in _CONSTANTS.items():
            if f"${term}" not in text:
                continue
            fill[term] = Template(src).substitute(fill)
            if not affine:
                continue
            try:
                value = eval(Template(src).substitute(_INTERPRETED), scope,
                             {"cl": cl, "k": k, "line": line, "ys": ys, "grads": grads,
                              "firsts": firsts})
            except (HessboundError, FloatingPointError):
                continue  # the pass computes it, raises, and the interpreter names the line
            if hasattr(value, "setflags"):  # a numpy array
                value.setflags(write=False)
            names[f"{term}{k}"] = value
            fill[term] = f"{term}{k}"
        out.append(shape.substitute(fill))
    return out


def _values_source(cl: Codelist, lists: tuple) -> tuple:
    """:func:`_values` without its failure handling, as ``values(dims)``,
    with the constants of ``lists``, a successful value pass (see
    :func:`_lines`), bound: the var lines' gradients among them."""
    n, every = cl.n, range(1, len(cl.lines) + 1)
    names = {f"g{k}": lists[1][k - 1] for k in range(1, n + 1)}
    body = ["".join(f"d{k}, " for k in range(1, n + 1)) + "= dims; firsts = {}",
            *(f"y{k} = d{k}.lo, d{k}.hi" for k in range(1, n + 1)),
            *_lines(cl, "_values", names, lists),
            f"return [{', '.join(f'y{k}' for k in every)}], "
            f"[{', '.join(f'g{k}' for k in every)}], firsts, None"]
    return "values(dims)", body, names


def _rule_source(cl: Codelist, name: str, lists: tuple) -> tuple:
    """Rule ``name`` as a pass ``name(cl, ys, grads, firsts, memo, out)``,
    which gives ``out``, the var lines' results, and every operation line's;
    its constants are those of ``lists`` (see :func:`_lines`)."""
    n, names, every = cl.n, dict(_PASSES[name][2]), range(1, len(cl.lines) + 1)
    body = ["".join(f"y{k}, " for k in every) + "= ys",
            "".join(f"g{k}, " for k in every) + "= grads",
            *_lines(cl, name, names, lists),
            f"return [*out, {''.join(f'l{k}, ' for k in every[n:])}]"]
    return f"{name}(cl, ys, grads, firsts, memo, out)", body, names


# -- public entry points: Intervals are built here -------------------------

def _result(cl: Codelist, ys, grads, eigen: Interval, method: str) -> EvalResult:
    res = object.__new__(EvalResult)  # no __init__: the gradient Box waits for its first read
    res.__dict__.update(value=Interval(*ys[-1]), eigen=eigen, method=method,
                        op_count=cl.op_counts.get(method), _sparse=(grads[-1], cl.n))
    return res


def eval_original(cl: Codelist, box: Box) -> EvalResult:
    """Direct eigenvalue bounds, ignoring sparsity."""
    ys, grads, lams = _walk(cl, box, "_lam_original")
    return _result(cl, ys, grads, Interval(*lams[-1]), "original")


def eval_improved(cl: Codelist, box: Box) -> EvalResult:
    """Sparsity-aware eigenvalue bounds (never wider than the original)."""
    ys, grads, lams = _walk(cl, box, "_lam_improved")
    eigen = _lift(Interval(*lams[-1]), len(cl.blocks[-1]), cl.n)
    return _result(cl, ys, grads, eigen, "improved")


def _trace(cl: Codelist, box: Box, name: str) -> List[LineState]:
    ys, grads, lams = _walk(cl, box, name)
    return [LineState(Interval(*y), _full(g, cl.n), Interval(*lam))
            for y, g, lam in zip(ys, grads, lams)]


def trace_original(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line (value, gradient, eigen-bound) triples of the direct method."""
    return _trace(cl, box, "_lam_original")


def trace_improved(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line triples of the sparsity-aware method (lam holds the
    reduced-block bound, before the final lift)."""
    return _trace(cl, box, "_lam_improved")
