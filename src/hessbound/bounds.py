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

Gradients are held sparsely (variable index -> interval) so that the
operation count scales with the number of structurally nonzero entries.
Every unary line takes its value, r' and curvature rules from
:data:`hessbound.codelist.UNARY_RULES`; only ``add`` and ``mul`` values and
gradients are written out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

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


class _Evaluator:
    """Shared value/gradient propagation with operation counting."""

    def __init__(self, cl: Codelist, box: Box):
        if len(box) != cl.n:
            raise LengthMismatch(f"box dimension {len(box)} != variable count {cl.n}")
        self.cl = cl
        self.box = box
        self.n = cl.n
        self.ys: List[Interval] = []
        self.grads: List[SparseGrad] = []
        self.lams: List[Interval] = []
        self.ops = 0

    # -- sparse gradient helpers -----------------------------------------

    def _grad_add(self, a: SparseGrad, b: SparseGrad) -> SparseGrad:
        out = dict(a)
        for k, v in b.items():
            u = out.get(k)
            if u is None:
                out[k] = v
            else:  # u + v, without the operator frame
                out[k] = _interval(u.lo + v.lo, u.hi + v.hi)
                self.ops += 1
        return out

    def _grad_scale(self, g: SparseGrad, f: Interval) -> SparseGrad:
        self.ops += len(g)
        return dict(zip(g, mul_each(f, g.values())))

    def _full(self, g: SparseGrad) -> Box:
        return Box(g.get(j, ZERO) for j in range(1, self.n + 1))

    def result(self, eigen: Interval, method: str) -> EvalResult:
        return EvalResult(value=self.ys[-1], gradient=self._full(self.grads[-1]),
                          eigen=eigen, method=method, op_count=self.ops)

    # The λ operators get the gradient components of the line's block (its
    # ``Codelist.blocks`` entry, which is the union of the operands' gradient
    # supports, ascending) plus the dimension they act on; the operation
    # count charges that whole dimension, as the paper counts.

    def _lambda_s(self, g: SparseGrad, block: Sequence[int], dim: int) -> Interval:
        self.ops += max(dim, 1)
        return lambda_s([g[j] for j in block], dim)

    def _lambda_t(self, gi: SparseGrad, gj: SparseGrad, block: Sequence[int],
                  dim: int) -> Interval:
        self.ops += 2 * dim + 2
        return lambda_t([gi.get(j, ZERO) for j in block], [gj.get(j, ZERO) for j in block], dim)

    # -- value and gradient propagation ----------------------------------

    def run(self, lam_rule) -> "_Evaluator":
        for k, line in enumerate(self.cl.lines, start=1):
            try:
                self._step(k, line, lam_rule)
            except DomainViolation as err:
                raise DomainViolation(err.kind, err.interval, line=k) from None
        return self

    def _step(self, k: int, line, lam_rule) -> None:
        op = line.op
        if op == "var":
            self.ys.append(self.box[k - 1])
            self.grads.append({k: ONE})
        elif op == "add":
            yi, yj = self.ys[line.i - 1], self.ys[line.j - 1]
            self.ys.append(yi + yj)
            self.ops += 1
            self.grads.append(self._grad_add(self.grads[line.i - 1], self.grads[line.j - 1]))
        elif op == "mul":
            yi, yj = self.ys[line.i - 1], self.ys[line.j - 1]
            self.ys.append(yi * yj)
            self.ops += 1
            gi = self._grad_scale(self.grads[line.i - 1], yj)
            gj = self._grad_scale(self.grads[line.j - 1], yi)
            self.grads.append(self._grad_add(gi, gj))
        else:
            rule = UNARY_RULES[op]
            yi = self.ys[line.i - 1]
            yk = rule.value(yi, line)
            self.ys.append(yk)
            self.ops += rule.ops
            gi = self.grads[line.i - 1]
            if rule.first is None:
                self.grads.append(dict(gi))
            else:
                self.grads.append(self._grad_scale(gi, rule.first(yi, yk, line)))
        self.lams.append(lam_rule(self, k, line))


# -- eigenvalue rules, original method -----------------------------------

def _lam_original(ev: _Evaluator, k: int, line) -> Interval:
    op = line.op
    if op == "var":
        return ZERO
    lam_i = ev.lams[line.i - 1]
    yi = ev.ys[line.i - 1]
    yk = ev.ys[k - 1]
    if op == "add":
        ev.ops += 1
        return lam_i + ev.lams[line.j - 1]
    # the gradient supports are the line's block, but λ acts on all n variables
    block = ev.cl.blocks[k - 1]
    if op == "mul":
        yj = ev.ys[line.j - 1]
        lam_j = ev.lams[line.j - 1]
        lt = ev._lambda_t(ev.grads[line.i - 1], ev.grads[line.j - 1], block, ev.n)
        ev.ops += 3
        return yj * lam_i + yi * lam_j + lt
    rule = UNARY_RULES[op]
    if rule.second is None:
        # an affine rule needs no λ_s, but its block cost is still charged:
        # the recorded op_count values of tests/data/engine_seed.json include it
        ev.ops += ev.n
        ls = None
    else:
        ls = ev._lambda_s(ev.grads[line.i - 1], block, ev.n)
    ev.ops += rule.lam_ops
    return rule.lam(yi, yk, line, ls, lam_i)


# -- eigenvalue rules, sparsity-aware method -----------------------------

def _lam_improved(ev: _Evaluator, k: int, line) -> Interval:
    op = line.op
    if op == "var":
        return ZERO
    rule = ev.cl.rules[k - 1]
    lam_i = ev.lams[line.i - 1]
    yi = ev.ys[line.i - 1]
    if op == "add":
        ev.ops += 1
        return rule.apply(None, lam_i, ev.lams[line.j - 1])
    block = ev.cl.blocks[k - 1]
    if op == "mul":
        gi, gj = ev.grads[line.i - 1], ev.grads[line.j - 1]
        yj, lam_j = ev.ys[line.j - 1], ev.lams[line.j - 1]
        ev.ops += 2
        if rule.cross is not None:  # the 2x2 rule: λ* and the cross product
            ev.ops += 5
            a, b = term(rule.i, lam_i, yj), term(rule.j, lam_j, yi)
            p, q = rule.cross
            return lambda_star(ZERO if a is None else a, ZERO if b is None else b,
                               gi.get(p, ZERO) * gj.get(q, ZERO))
        return rule.apply(ev._lambda_t(gi, gj, block, len(block)), lam_i, lam_j, yi, yj)
    unary = UNARY_RULES[op]
    yk = ev.ys[k - 1]
    lam = term(rule.i, lam_i)  # None when the argument block vanishes entirely
    if unary.second is None:  # affine: L_k = L_i and r'' = 0
        ev.ops += unary.lam_ops
        return ZERO if lam is None else unary.lam(yi, yk, line, None, lam)
    ls = ev._lambda_s(ev.grads[line.i - 1], block, len(block))
    if lam is None:
        ev.ops += unary.second_ops
        return unary.second(yi, yk, line) * ls
    ev.ops += unary.lam_ops
    return unary.lam(yi, yk, line, ls, lam)


# -- public entry points -------------------------------------------------

def eval_original(cl: Codelist, box: Box) -> EvalResult:
    """Direct eigenvalue bounds, ignoring sparsity."""
    ev = _Evaluator(cl, box).run(_lam_original)
    return ev.result(ev.lams[-1], "original")


def eval_improved(cl: Codelist, box: Box) -> EvalResult:
    """Sparsity-aware eigenvalue bounds (never wider than the original)."""
    ev = _Evaluator(cl, box).run(_lam_improved)
    eigen = lift_reduced(ev.lams[-1], cl.linear[len(cl.lines) - 1], cl.n)
    ev.ops += 1
    return ev.result(eigen, "improved")


def trace_original(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line (value, gradient, eigen-bound) triples of the direct method."""
    ev = _Evaluator(cl, box).run(_lam_original)
    return [LineState(y, ev._full(g), lam) for y, g, lam in zip(ev.ys, ev.grads, ev.lams)]


def trace_improved(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line triples of the sparsity-aware method (lam holds the
    reduced-block bound, before the final lift)."""
    ev = _Evaluator(cl, box).run(_lam_improved)
    return [LineState(y, ev._full(g), lam) for y, g, lam in zip(ev.ys, ev.grads, ev.lams)]
