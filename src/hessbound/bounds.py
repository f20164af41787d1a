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

Both engines are one walk over the codelist (:func:`_walk`) that
propagates values and sparse gradients (variable index -> interval, so the
work scales with the structurally nonzero entries) and calls the method's
eigenvalue rule on each line.  Every unary line takes its value, r' and
curvature rules from :data:`hessbound.codelist.UNARY_RULES`; only ``add``
and ``mul`` values and gradients are written out here.  ``op_count`` is the
paper's cost measure, ``Codelist.op_counts``: it is fixed when the codelist
is built and the same on every box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .codelist import UNARY_RULES, Codelist, term
from .errors import DomainViolation, LengthMismatch
from .interval import (
    Box,
    Interval,
    ONE,
    ZERO,
    _interval,
    lambda_s,
    lambda_star,
    lambda_t,
    mul_each,
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

SparseGrad = Dict[int, Interval]


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


def _grad_add(a: SparseGrad, b: SparseGrad) -> SparseGrad:
    out = dict(a)
    for k, v in b.items():
        u = out.get(k)
        out[k] = v if u is None else _interval(u.lo + v.lo, u.hi + v.hi)  # u + v, inlined
    return out


def _grad_scale(g: SparseGrad, f: Interval) -> SparseGrad:
    return dict(zip(g, mul_each(f, g.values())))


def _full(g: SparseGrad, n: int) -> Box:
    return Box(g.get(j, ZERO) for j in range(1, n + 1))


def _walk(cl: Codelist, box: Box, lam_rule) -> tuple:
    """Lists of the values, sparse gradients and eigenvalue bounds of every line.

    ``lam_rule(cl, k, line, ys, grads, lams)`` gives the bound of operation
    line k from the lists so far, which already hold line k's value and
    gradient.  A :class:`DomainViolation` is raised again with its line.
    """
    n = cl.n
    if len(box) != n:
        raise LengthMismatch(f"box dimension {len(box)} != variable count {n}")
    ys, lams = list(box), [ZERO] * n
    grads: List[SparseGrad] = [{k: ONE} for k in range(1, n + 1)]
    try:
        for k, line in enumerate(cl.lines[n:], start=n + 1):
            yi, gi = ys[line.i - 1], grads[line.i - 1]
            if line.op == "add":
                ys.append(yi + ys[line.j - 1])
                grads.append(_grad_add(gi, grads[line.j - 1]))
            elif line.op == "mul":
                yj = ys[line.j - 1]
                ys.append(yi * yj)
                grads.append(_grad_add(_grad_scale(gi, yj), _grad_scale(grads[line.j - 1], yi)))
            else:
                rule = UNARY_RULES[line.op]
                yk = rule.value(yi, line)
                ys.append(yk)
                grads.append(dict(gi) if rule.first is None
                             else _grad_scale(gi, rule.first(yi, yk, line)))
            lams.append(lam_rule(cl, k, line, ys, grads, lams))
    except DomainViolation as err:
        raise DomainViolation(err.kind, err.interval, line=k) from None
    return ys, grads, lams


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
        lt = lambda_t([gi.get(j, ZERO) for j in block], [gj.get(j, ZERO) for j in block], cl.n)
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
                               gi.get(p, ZERO) * gj.get(q, ZERO))
        lt = lambda_t([gi.get(j, ZERO) for j in block], [gj.get(j, ZERO) for j in block],
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
