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

Both engines are one walk over the codelist (:func:`_walk`) in two passes.
The value pass (:func:`_values`) propagates values and sparse gradients,
which the two methods share; the λ pass then applies the method's
eigenvalue rule to each line.  A sparse gradient maps a variable index to
the ``(lo, hi)`` float endpoints of that entry, so the work scales with the
structurally nonzero entries and builds no :class:`Interval` per entry; its
arithmetic is the interval arithmetic, bit for bit, with the same validity
check and error.  Gradients become intervals only in the results.  Every
unary line takes its value, r' and curvature rules from
:data:`hessbound.codelist.UNARY_RULES`; only ``add`` and ``mul`` values and
gradients are written out here.  ``op_count`` is the paper's cost measure,
``Codelist.op_counts``: it is fixed when the codelist is built and the same
on every box.

The module keeps the last value pass in one slot, keyed by the codelist
and the box's component tuple, both compared by identity (``is``).  So the
second engine (or trace) asked about the same :class:`Box` object reuses
the first one's values and gradients, and any other call pays one identity
check.  The value pass does not raise on a line: it records the first
failing line and its error and stops.  The λ pass bounds the lines before
that one, so an earlier λ error still wins, and then raises the recorded
error afresh, a :class:`DomainViolation` with its line number; the errors
and their order are those of a single walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Tuple

from .codelist import UNARY_RULES, Codelist, term
from .errors import DomainViolation, HessboundError, LengthMismatch
from .interval import (
    Box,
    Interval,
    ZERO,
    _interval,
    lambda_s,
    lambda_star,
    lambda_t,
    zero_widen,
)

__all__ = [
    "EvalResult",
    "LineState",
    "lift_reduced",
    "eval_original",
    "eval_improved",
    "trace_original",
    "trace_improved",
]

SparseGrad = Dict[int, Tuple[float, float]]
_ZERO, _ONE = (0.0, 0.0), (1.0, 1.0)


@dataclass(frozen=True)
class LineState:
    """Per-line runtime triple: value, full-length gradient, eigen bound."""

    y: Interval
    grad: Box
    lam: Interval


@dataclass(frozen=True)
class EvalResult:
    value: Interval
    gradient: Box
    eigen: Interval
    method: str
    op_count: int


def lift_reduced(lam_dagger: Interval, linear_set, n: int) -> Interval:
    """Bounds for the full Hessian from bounds for its nontrivial block."""
    if not linear_set:
        return lam_dagger
    if len(linear_set) == n:
        return ZERO
    return zero_widen(lam_dagger)


# Each new entry gets Interval's check; a failing one is built as an
# Interval, which raises the error the interval operator would have raised.

def _grad_add(a: SparseGrad, b: SparseGrad) -> SparseGrad:
    """``a + b`` entrywise: the interval sum of the entries both have."""
    out = dict(a)
    for k, v in b.items():
        u = out.get(k)
        if u is None:
            out[k] = v
        else:
            lo, hi = u[0] + v[0], u[1] + v[1]
            if not -inf < lo <= hi < inf:
                Interval(lo, hi)
            out[k] = lo, hi
    return out


def _grad_scale(g: SparseGrad, f: Interval) -> SparseGrad:
    """``{k: f * x}`` over the entries of g, bit for bit.

    A point factor (lo == hi) needs two products per x.  The other two
    repeat them, or, for a zero factor such as [-0.0, 0.0], all four are
    zeros; either way min and max pick the same first result.
    """
    a, b = f.lo, f.hi
    out = {}
    if a == b:
        for k, (c, d) in g.items():
            p, q = a * c, a * d
            lo, hi = min(p, q), max(p, q)
            if not -inf < lo <= hi < inf:
                Interval(lo, hi)
            out[k] = lo, hi
        return out
    for k, (c, d) in g.items():
        p, q, r, s = a * c, a * d, b * c, b * d
        lo, hi = min(p, q, r, s), max(p, q, r, s)
        if not -inf < lo <= hi < inf:
            Interval(lo, hi)
        out[k] = lo, hi
    return out


def _product(u: Tuple[float, float], v: Tuple[float, float]) -> Tuple[float, float]:
    """The interval product of two gradient entries."""
    (a, b), (c, d) = u, v
    p, q, r, s = a * c, a * d, b * c, b * d
    lo, hi = min(p, q, r, s), max(p, q, r, s)
    if not -inf < lo <= hi < inf:
        Interval(lo, hi)
    return lo, hi


def _full(g: SparseGrad, n: int) -> Box:
    return Box(_interval(*g[j]) if j in g else ZERO for j in range(1, n + 1))


# The last value pass: (codelist, box components, ys, grads, failure).  It is
# reused only for the same codelist and the same component tuple, compared
# with ``is``: equal intervals can differ in the sign of a zero endpoint.  The
# strong references keep both ids from being recycled while the slot holds
# them.  The slot is one tuple, read and replaced whole, so threads that
# share it at worst redo a pass.
_last = None


def _values(cl: Codelist, box: Box) -> tuple:
    """Lists of the values and sparse gradients of every line, and the first failure.

    The pass does not raise on a line: it stops at the first one that fails
    and returns ``(k, error)`` as the failure (``None`` when every line
    succeeds), so that the λ pass can raise it in the walk's order.
    """
    n = cl.n
    if len(box) != n:
        raise LengthMismatch(f"box dimension {len(box)} != variable count {n}")
    ys = list(box)
    grads: List[SparseGrad] = [{k: _ONE} for k in range(1, n + 1)]
    try:
        for k, line in enumerate(cl.lines[n:], start=n + 1):
            yi, gi = ys[line.i - 1], grads[line.i - 1]
            if line.op == "add":
                yk, gk = yi + ys[line.j - 1], _grad_add(gi, grads[line.j - 1])
            elif line.op == "mul":
                yj = ys[line.j - 1]
                yk = yi * yj
                gk = _grad_add(_grad_scale(gi, yj), _grad_scale(grads[line.j - 1], yi))
            else:
                rule = UNARY_RULES[line.op]
                yk = rule.value(yi, line)
                gk = dict(gi) if rule.first is None else _grad_scale(gi, rule.first(yi, yk, line))
            ys.append(yk)
            grads.append(gk)
    except HessboundError as err:
        return ys, grads, (k, err.with_traceback(None))
    return ys, grads, None


def _walk(cl: Codelist, box: Box, lam_rule) -> tuple:
    """Lists of the values, sparse gradients and eigenvalue bounds of every line.

    The values and gradients come from :func:`_values`, or from the slot when
    the previous pass was on this codelist and box.  ``lam_rule(cl, k, line,
    ys, grads, lams)`` gives the bound of operation line k from those lists
    and the bounds of the lines before it.  The lines before a failing one
    get their bounds first, so an earlier λ error wins; then the failure is
    raised afresh, a :class:`DomainViolation` with its line.
    """
    global _last
    last, dims = _last, box.dims
    if last is not None and last[0] is cl and last[1] is dims:
        ys, grads, failure = last[2:]
    else:
        ys, grads, failure = _values(cl, box)
        _last = cl, dims, ys, grads, failure
    n = cl.n
    lams = [ZERO] * n
    stop = len(cl.lines) if failure is None else failure[0] - 1
    try:
        for k, line in enumerate(cl.lines[n:stop], start=n + 1):
            lams.append(lam_rule(cl, k, line, ys, grads, lams))
    except DomainViolation as err:
        failure = k, err
    if failure is None:
        return ys, grads, lams
    k, err = failure
    if isinstance(err, DomainViolation):
        raise DomainViolation(err.kind, err.interval, line=k) from None
    raise type(err)(*err.args) from None


# The λ operators get the gradient components on the line's ``Codelist.blocks``
# entry (the operands' gradient supports, ascending) and the dimension they act on.

def _lam_original(cl: Codelist, k: int, line, ys, grads, lams) -> Interval:
    """Eigenvalue rule of the original method: λ acts on all n variables."""
    lam_i, yi, gi = lams[line.i - 1], ys[line.i - 1], grads[line.i - 1]
    if line.op == "add":
        return lam_i + lams[line.j - 1]
    block = cl.blocks[k - 1]
    if line.op == "mul":
        gj = grads[line.j - 1]
        lt = lambda_t([gi.get(j, _ZERO) for j in block], [gj.get(j, _ZERO) for j in block], cl.n)
        return ys[line.j - 1] * lam_i + yi * lams[line.j - 1] + lt
    rule = UNARY_RULES[line.op]
    ls = None if rule.second is None else lambda_s([gi[j] for j in block], cl.n)
    return rule.lam(yi, ys[k - 1], line, ls, lam_i)


def _lam_improved(cl: Codelist, k: int, line, ys, grads, lams) -> Interval:
    """Eigenvalue rule of the sparsity-aware method: the line's
    ``Codelist.rules`` entry, λ acting on its block only."""
    rule = cl.rules[k - 1]
    lam_i, yi, gi = lams[line.i - 1], ys[line.i - 1], grads[line.i - 1]
    if line.op == "add":
        return rule.apply(None, lam_i, lams[line.j - 1])
    block = cl.blocks[k - 1]
    if line.op == "mul":
        gj, yj, lam_j = grads[line.j - 1], ys[line.j - 1], lams[line.j - 1]
        if rule.cross is not None:  # the 2x2 rule: λ* and the cross product
            a, b = term(rule.i, lam_i, yj), term(rule.j, lam_j, yi)
            p, q = rule.cross
            return lambda_star(ZERO if a is None else a, ZERO if b is None else b,
                               _product(gi.get(p, _ZERO), gj.get(q, _ZERO)))
        lt = lambda_t([gi.get(j, _ZERO) for j in block], [gj.get(j, _ZERO) for j in block],
                      len(block))
        return rule.apply(lt, lam_i, lam_j, yi, yj)
    unary = UNARY_RULES[line.op]
    yk = ys[k - 1]
    lam = term(rule.i, lam_i)  # None when the argument block vanishes entirely
    if unary.second is None:  # affine: L_k = L_i and r'' = 0
        return ZERO if lam is None else unary.lam(yi, yk, line, None, lam)
    ls = lambda_s([gi[j] for j in block], len(block))
    if lam is None:
        return unary.second(yi, yk, line) * ls
    return unary.lam(yi, yk, line, ls, lam)


# -- public entry points -------------------------------------------------

def _result(cl: Codelist, ys, grads, eigen: Interval, method: str) -> EvalResult:
    return EvalResult(value=ys[-1], gradient=_full(grads[-1], cl.n), eigen=eigen,
                      method=method, op_count=cl.op_counts[method])


def eval_original(cl: Codelist, box: Box) -> EvalResult:
    """Direct eigenvalue bounds, ignoring sparsity."""
    ys, grads, lams = _walk(cl, box, _lam_original)
    return _result(cl, ys, grads, lams[-1], "original")


def eval_improved(cl: Codelist, box: Box) -> EvalResult:
    """Sparsity-aware eigenvalue bounds (never wider than the original)."""
    ys, grads, lams = _walk(cl, box, _lam_improved)
    eigen = lift_reduced(lams[-1], cl.linear[len(cl.lines) - 1], cl.n)
    return _result(cl, ys, grads, eigen, "improved")


def _trace(cl: Codelist, box: Box, lam_rule) -> List[LineState]:
    ys, grads, lams = _walk(cl, box, lam_rule)
    return [LineState(y, _full(g, cl.n), lam) for y, g, lam in zip(ys, grads, lams)]


def trace_original(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line (value, gradient, eigen-bound) triples of the direct method."""
    return _trace(cl, box, _lam_original)


def trace_improved(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line triples of the sparsity-aware method (lam holds the
    reduced-block bound, before the final lift)."""
    return _trace(cl, box, _lam_improved)
