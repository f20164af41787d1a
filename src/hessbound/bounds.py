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

One walk over the codelist (:func:`_walk`) in two passes serves three
rules: the eigenvalue rules of both engines and the interval-Hessian rule of
:func:`hessbound.reference.interval_hessian`.  The value pass (:func:`_values`)
propagates values, sparse gradients and each unary line's r'; the second
pass applies the rule to each line.  Every interval the walk carries -- a
line's value, r' and eigenvalue bound, and each gradient entry -- is a
``(lo, hi)`` pair of floats, computed by the endpoint kernels of
:mod:`hessbound.interval`, the λ kernels included: the interval
arithmetic, bit for bit, with the same validity check and errors.  A sparse
gradient maps a variable index to its entry, so the work scales with the
structurally nonzero entries.  Every unary line takes its value, r' and
curvature rules from :data:`hessbound.codelist.UNARY_RULES`; only ``add``
and ``mul`` values and gradients are written out here.  Intervals are
built only at the edge, where a public function hands one out: an
:class:`EvalResult`'s value and eigen bound (and its gradient :class:`Box`,
on first read), the input of :func:`lift_reduced` and the
:class:`LineState` triples of a trace.
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

A codelist walked on many boxes is compiled (see :func:`_generate`): after
``_COMPILE_AFTER`` interpreted value passes its value pass is generated as
straight-line Python source and compiled, and so is each engine's rule pass
on its first use after that.  The compiled passes are kept in the
codelist's ``__dict__``, which a pickled codelist does not carry, with the
count of passes before them.  They make the interpreter's kernel and helper
calls in its order, so the bits, the memo and the calls a wrapper of
``bounds.lambda_t`` sees are the same, and both traces use them.  A
compiled pass runs the success path only: when it raises, the interpreter
walks that box again and raises its error, naming the line (so a λ kernel
before the failing line is called twice).  The interval-Hessian rule stays
interpreted and reads the compiled value pass through the slot.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from .codelist import (ABSENT, SUM, UNARY_RULES, WIDENED, WIDENED_HULL, WIDENED_SUM, Codelist,
                       term)
from .errors import HessboundError, LengthMismatch
from .interval import Box, Interval, Pair, ZERO, pair_add, pair_hull, pair_mul, zero_widen
# the engines call the λ kernels by these module names, which tracers and tests wrap
from .interval import pair_lambda_s as lambda_s, pair_lambda_star as lambda_star
from .interval import pair_lambda_t as lambda_t

__all__ = [
    "EvalResult",
    "LineState",
    "lift_reduced",
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
    """An engine's result on a box.

    The engines keep the gradient as sparse endpoint pairs and build its
    :class:`Box` on the first read of ``gradient``.
    """

    value: Interval
    gradient: Box
    eigen: Interval
    method: str
    op_count: int

    __hash__ = None

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: an engine's
        # gradient before its first read, built from (sparse gradient, n)
        sparse = self.__dict__.get("_sparse") if name == "gradient" else None
        if sparse is None:
            raise AttributeError(f"'EvalResult' object has no attribute {name!r}")
        return self.__dict__.setdefault("gradient", _full(*sparse))


def lift_reduced(lam_dagger: Interval, linear_set, n: int) -> Interval:
    """Bounds for the full Hessian from bounds for its nontrivial block."""
    if not linear_set:
        return lam_dagger
    if len(linear_set) == n:
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

    The pass does not raise on a line: it stops at the first one that fails
    and returns ``(k, error)`` as the failure (``None`` when every line
    succeeds), so that the second pass can raise it in the walk's order.
    """
    n = cl.n
    if len(box) != n:
        raise LengthMismatch(f"box dimension {len(box)} != variable count {n}")
    ys: List[Pair] = [(d.lo, d.hi) for d in box.dims]
    grads: List[SparseGrad] = [{k: _ONE} for k in range(1, n + 1)]
    firsts: Dict[int, Optional[Pair]] = {}
    try:
        for k, line in enumerate(cl.lines[n:], start=n + 1):
            yi, gi = ys[line.i - 1], grads[line.i - 1]
            if line.op == "add":
                yk, gk = pair_add(yi, ys[line.j - 1]), _grad_add(gi, grads[line.j - 1])
            elif line.op == "mul":
                yj = ys[line.j - 1]
                yk = pair_mul(yi, yj)
                gk = _grad_add(_grad_scale(gi, yj), _grad_scale(grads[line.j - 1], yi))
            else:
                rule = UNARY_RULES[line.op]
                yk = rule.value(yi, line)
                firsts[k] = first = None if rule.first is None else rule.first(yi, yk, line)
                gk = dict(gi) if first is None else _grad_scale(gi, first)
            ys.append(yk)
            grads.append(gk)
    except HessboundError as err:
        return ys, grads, firsts, (k, err.with_traceback(None))
    return ys, grads, firsts, None


def _value_pass(cl: Codelist, box: Box) -> tuple:
    """:func:`_values`' result, from the codelist's compiled value pass once
    it has had ``_COMPILE_AFTER`` interpreted ones (see :func:`_generate`)."""
    passes = cl.__dict__
    values = passes.get("_values")
    if values is None:
        count = passes["_value_passes"] = passes.get("_value_passes", 0) + 1
        if count <= _COMPILE_AFTER:
            return _values(cl, box)
        values = passes.setdefault("_values", _generate(_values_source(cl)))
    if len(box) == cl.n:  # else _values raises the LengthMismatch
        try:
            return values(box.dims)
        except HessboundError:
            pass  # _values records the failing line and its error
    return _values(cl, box)


def _walk(cl: Codelist, box: Box, rule, seed=_ZERO) -> tuple:
    """Lists of the values, sparse gradients and rule results of every line.

    ``box`` is a :class:`Box`, or anything ``Box`` builds one from.  The
    first two lists come from :func:`_value_pass`, or from the slot when the
    previous pass was on this codelist and box.  ``rule(cl, k, line, ys,
    grads, firsts, memo, out)`` gives operation line k's result from those,
    the box's λ memo (see :func:`_lam_t`) and the results ``out`` of earlier
    lines (``seed`` on a var line; a rule may drop one no later line reads).
    An engine's rule runs as the codelist's compiled pass once its value
    pass is compiled.  The lines before a failing one come first, so an
    earlier rule error wins; an error of either pass is raised naming its
    line.
    """
    global _last
    if not isinstance(box, Box):
        box = Box(box)
    last, dims = _last, box.dims
    if last is not None and last[0] is cl and last[1] is dims:
        ys, grads, firsts, failure, memo = last[2:]
    else:
        ys, grads, firsts, failure = _value_pass(cl, box)
        memo = {}
        _last = cl, dims, ys, grads, firsts, failure, memo
    if failure is None and "_values" in cl.__dict__ and rule in _LINE_SOURCES:
        lam = cl.__dict__.get(rule.__name__) or cl.__dict__.setdefault(
            rule.__name__, _generate(_lam_source(cl, rule)))
        try:
            return ys, grads, lam(cl, ys, grads, memo)
        except HessboundError:
            pass  # the rule loop below raises the error, naming its line
    n = cl.n
    out = [seed] * n
    stop = len(cl.lines) if failure is None else failure[0] - 1
    try:
        for k, line in enumerate(cl.lines[n:stop], start=n + 1):
            out.append(rule(cl, k, line, ys, grads, firsts, memo, out))
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


def _lam_original(cl: Codelist, k: int, line, ys, grads, firsts, memo, lams) -> Pair:
    """Eigenvalue rule of the original method: λ acts on all n variables."""
    lam_i, yi = lams[line.i - 1], ys[line.i - 1]
    if line.op == "add":
        return pair_add(lam_i, lams[line.j - 1])
    if line.op == "mul":
        return pair_add(pair_add(pair_mul(ys[line.j - 1], lam_i), pair_mul(yi, lams[line.j - 1])),
                        _lam_t(cl, k, line, grads, memo, cl.n))
    rule = UNARY_RULES[line.op]
    ls = None if rule.second is None else _lam_s(cl, k, line, grads, memo, cl.n)
    return rule.lam(yi, ys[k - 1], line, ls, lam_i)


def _lam_improved(cl: Codelist, k: int, line, ys, grads, firsts, memo, lams) -> Pair:
    """Eigenvalue rule of the sparsity-aware method: the line's
    ``Codelist.rules`` entry, λ acting on its block only."""
    rule = cl.rules[k - 1]
    lam_i, yi = lams[line.i - 1], ys[line.i - 1]
    if line.op == "add":
        return rule.apply(None, lam_i, lams[line.j - 1])
    if line.op == "mul":
        yj, lam_j = ys[line.j - 1], lams[line.j - 1]
        if rule.cross is not None:  # the 2x2 rule: λ* and the cross product
            a, b = term(rule.i, lam_i, yj), term(rule.j, lam_j, yi)
            p, q = rule.cross
            return lambda_star(_ZERO if a is None else a, _ZERO if b is None else b,
                               pair_mul(grads[line.i - 1].get(p, _ZERO),
                                        grads[line.j - 1].get(q, _ZERO)))
        lt = _lam_t(cl, k, line, grads, memo, len(cl.blocks[k - 1]))
        return rule.apply(lt, lam_i, lam_j, yi, yj)
    unary = UNARY_RULES[line.op]
    yk = ys[k - 1]
    lam = term(rule.i, lam_i)  # None when the argument block vanishes entirely
    if unary.second is None:  # affine: L_k = L_i and r'' = 0
        return _ZERO if lam is None else unary.lam(yi, yk, line, None, lam)
    ls = _lam_s(cl, k, line, grads, memo, len(cl.blocks[k - 1]))
    if lam is None:
        return pair_mul(unary.second(yi, yk, line), ls)
    return unary.lam(yi, yk, line, ls, lam)


# -- the compiled tier (see the module docstring) ---------------------------
#
# Each line's op, ``UNARY_RULES`` row and ``Codelist.rules`` entry are
# resolved when the source is generated.  The generated code runs in this
# module's namespace, so it looks up ``lambda_star``, as ``_lam_t`` and
# ``_lam_s`` look up ``lambda_t`` and ``lambda_s``, on every call.

# Interpreted value passes before a codelist's value pass is compiled; each
# engine's rule pass follows on its first use after that.  Generating and
# compiling the three passes took 2.0 ms (20 lines) to 11.3 ms (135 lines) per
# codelist, the time of 15 to 33 interpreted walks of both engines on one box
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
    return scope["make"](**names)


def _values_source(cl: Codelist) -> tuple:
    """:func:`_values` without its failure handling, as ``values(dims)``."""
    names, firsts = {}, []
    body = ["".join(f"d{k}, " for k in range(1, cl.n + 1)) + "= dims"]
    for k, line in enumerate(cl.lines, start=1):
        i, j = line.i, line.j
        if line.op == "var":
            body.append(f"y{k} = d{k}.lo, d{k}.hi; g{k} = {{{k}: _ONE}}")
        elif line.op == "add":
            body.append(f"y{k} = pair_add(y{i}, y{j}); g{k} = _grad_add(g{i}, g{j})")
        elif line.op == "mul":
            body.append(f"y{k} = pair_mul(y{i}, y{j}); "
                        f"g{k} = _grad_add(_grad_scale(g{i}, y{j}), _grad_scale(g{j}, y{i}))")
        else:
            unary = UNARY_RULES[line.op]
            names[f"L{k}"], names[f"V{k}"] = line, unary.value
            if unary.first is None:
                firsts.append(f"{k}: None")
                body.append(f"y{k} = V{k}(y{i}, L{k}); g{k} = dict(g{i})")
            else:
                names[f"F{k}"] = unary.first
                firsts.append(f"{k}: f{k}")
                body.append(f"y{k} = V{k}(y{i}, L{k}); f{k} = F{k}(y{i}, y{k}, L{k}); "
                            f"g{k} = _grad_scale(g{i}, f{k})")
    every = range(1, len(cl.lines) + 1)
    body.append(f"return [{', '.join(f'y{k}' for k in every)}], "
                f"[{', '.join(f'g{k}' for k in every)}], {{{', '.join(firsts)}}}, None")
    return "values(dims)", body, names


def _lam_source(cl: Codelist, rule) -> tuple:
    """The interpreted ``rule`` as a pass ``lam(cl, ys, grads, memo)``: its
    line k is ``_LINE_SOURCES[rule](cl, k, line, lam, names)``, where
    ``lam(r)`` is line r's bound."""
    n, names, line_source = cl.n, {}, _LINE_SOURCES[rule]
    every = range(1, len(cl.lines) + 1)
    body = ["".join(f"y{k}, " for k in every) + "= ys"]
    lam = lambda r: f"l{r}" if r > n else "_ZERO"
    body += [line_source(cl, k, line, lam, names)
             for k, line in enumerate(cl.lines[n:], start=n + 1)]
    body.append(f"return [{', '.join(map(lam, every))}]")
    return "lam(cl, ys, grads, memo)", body, names


def _original_line(cl: Codelist, k: int, line, lam, names) -> str:
    """:func:`_lam_original` on line k, as source."""
    i, j = line.i, line.j
    if line.op == "add":
        return f"l{k} = pair_add({lam(i)}, {lam(j)})"
    names[f"L{k}"] = line
    if line.op == "mul":
        return (f"l{k} = pair_add(pair_add(pair_mul(y{j}, {lam(i)}), pair_mul(y{i}, {lam(j)})), "
                f"_lam_t(cl, {k}, L{k}, grads, memo, {cl.n}))")
    unary = UNARY_RULES[line.op]
    names[f"M{k}"] = unary.lam
    ls = "None" if unary.second is None else f"_lam_s(cl, {k}, L{k}, grads, memo, {cl.n})"
    return f"l{k} = M{k}(y{i}, y{k}, L{k}, {ls}, {lam(i)})"


def _term_source(kind: str, lam: str, factor: Optional[str] = None) -> Optional[str]:
    """:func:`term` as source."""
    if kind == ABSENT:
        return None
    if kind == WIDENED:
        lam = f"pair_hull({lam}, _ZERO)"
    return lam if factor is None else f"pair_mul({factor}, {lam})"


def _apply_source(rule, lt: Optional[str], lam_i: str, lam_j: str,
                  yi: Optional[str] = None, yj: Optional[str] = None) -> str:
    """:meth:`Rule.apply` as source, with the same calls in the same order."""
    a, b = _term_source(rule.i, lam_i, yj), _term_source(rule.j, lam_j, yi)
    if rule.combine == SUM:
        out = None
        for x in (lt, a, b):
            if x is not None:
                out = x if out is None else f"pair_add({out}, {x})"
        return out or "_ZERO"
    if rule.combine == WIDENED_SUM:
        return f"pair_add({lt}, pair_hull(pair_add({a}, {b}), _ZERO))"
    h = f"pair_hull({a}, {b})"
    if rule.combine == WIDENED_HULL:
        h = f"pair_hull({h}, _ZERO)"
    return h if lt is None else f"pair_add({lt}, {h})"


def _improved_line(cl: Codelist, k: int, line, lam, names) -> str:
    """:func:`_lam_improved` on line k, as source."""
    rule, i, j, size = cl.rules[k - 1], line.i, line.j, len(cl.blocks[k - 1])
    if line.op == "add":
        return f"l{k} = {_apply_source(rule, None, lam(i), lam(j))}"
    if line.op == "mul":
        if rule.cross is not None:
            a = _term_source(rule.i, lam(i), f"y{j}") or "_ZERO"
            b = _term_source(rule.j, lam(j), f"y{i}") or "_ZERO"
            p, q = rule.cross
            return (f"l{k} = lambda_star({a}, {b}, pair_mul(grads[{i - 1}].get({p}, _ZERO), "
                    f"grads[{j - 1}].get({q}, _ZERO)))")
        names[f"L{k}"] = line
        lt = f"_lam_t(cl, {k}, L{k}, grads, memo, {size})"
        return f"l{k} = {_apply_source(rule, lt, lam(i), lam(j), f'y{i}', f'y{j}')}"
    unary = UNARY_RULES[line.op]
    names[f"L{k}"], names[f"M{k}"] = line, unary.lam
    t = _term_source(rule.i, lam(i))
    if unary.second is None:
        return f"l{k} = " + ("_ZERO" if t is None else f"M{k}(y{i}, y{k}, L{k}, None, {t})")
    ls = f"_lam_s(cl, {k}, L{k}, grads, memo, {size})"
    if t is None:
        names[f"S{k}"] = unary.second
        return f"s = {ls}; l{k} = pair_mul(S{k}(y{i}, y{k}, L{k}), s)"
    return f"t = {t}; l{k} = M{k}(y{i}, y{k}, L{k}, {ls}, t)"


# the rules whose passes are compiled, and the source of one line of each
_LINE_SOURCES = {_lam_original: _original_line, _lam_improved: _improved_line}


# -- public entry points: Intervals are built here -------------------------

def _result(cl: Codelist, ys, grads, eigen: Interval, method: str) -> EvalResult:
    res = object.__new__(EvalResult)  # no __init__: the gradient Box waits for its first read
    res.__dict__.update(value=Interval(*ys[-1]), eigen=eigen, method=method,
                        op_count=cl.op_counts[method], _sparse=(grads[-1], cl.n))
    return res


def eval_original(cl: Codelist, box: Box) -> EvalResult:
    """Direct eigenvalue bounds, ignoring sparsity."""
    ys, grads, lams = _walk(cl, box, _lam_original)
    return _result(cl, ys, grads, Interval(*lams[-1]), "original")


def eval_improved(cl: Codelist, box: Box) -> EvalResult:
    """Sparsity-aware eigenvalue bounds (never wider than the original)."""
    ys, grads, lams = _walk(cl, box, _lam_improved)
    eigen = lift_reduced(Interval(*lams[-1]), cl.linear[len(cl.lines) - 1], cl.n)
    return _result(cl, ys, grads, eigen, "improved")


def _trace(cl: Codelist, box: Box, lam_rule) -> List[LineState]:
    ys, grads, lams = _walk(cl, box, lam_rule)
    return [LineState(Interval(*y), _full(g, cl.n), Interval(*lam))
            for y, g, lam in zip(ys, grads, lams)]


def trace_original(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line (value, gradient, eigen-bound) triples of the direct method."""
    return _trace(cl, box, _lam_original)


def trace_improved(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line triples of the sparsity-aware method (lam holds the
    reduced-block bound, before the final lift)."""
    return _trace(cl, box, _lam_improved)
