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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .codelist import Codelist
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
        elif op == "powNat":
            yi = self.ys[line.i - 1]
            self.ys.append(yi.pow(line.m))
            factor = yi.pow(line.m - 1).scale(line.m)
            self.ops += 3
            self.grads.append(self._grad_scale(self.grads[line.i - 1], factor))
        elif op == "oneOver":
            yi = self.ys[line.i - 1]
            yk = yi.recip()
            self.ys.append(yk)
            factor = yk.pow(2).scale(-1.0)
            self.ops += 3
            self.grads.append(self._grad_scale(self.grads[line.i - 1], factor))
        elif op == "sqrt":
            yi = self.ys[line.i - 1]
            if yi.lo <= 0.0:
                # the gradient rule divides by sqrt(y); demand strict positivity
                raise DomainViolation("sqrt", yi, line=k)
            yk = yi.sqrt()
            self.ys.append(yk)
            factor = yk.scale(2.0).recip()
            self.ops += 3
            self.grads.append(self._grad_scale(self.grads[line.i - 1], factor))
        elif op == "exp":
            yi = self.ys[line.i - 1]
            yk = yi.exp()
            self.ys.append(yk)
            self.ops += 1
            self.grads.append(self._grad_scale(self.grads[line.i - 1], yk))
        elif op == "ln":
            yi = self.ys[line.i - 1]
            yk = yi.ln()
            self.ys.append(yk)
            factor = yi.recip()
            self.ops += 2
            self.grads.append(self._grad_scale(self.grads[line.i - 1], factor))
        elif op == "addC":
            yi = self.ys[line.i - 1]
            self.ys.append(yi.add_const(line.c))
            self.ops += 1
            self.grads.append(dict(self.grads[line.i - 1]))
        elif op == "mulByC":
            yi = self.ys[line.i - 1]
            self.ys.append(yi.scale(line.c))
            self.ops += 1
            self.grads.append(self._grad_scale(self.grads[line.i - 1], Interval(line.c, line.c)))
        else:  # pragma: no cover - validate() rejects unknown ops
            raise ValueError(f"unknown op {op!r}")
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
    ls = ev._lambda_s(ev.grads[line.i - 1], ev.full)
    if op == "powNat":
        m = line.m
        ev.ops += 5
        return yi.pow(m - 2).scale(m) * (ls.scale(m - 1) + yi * lam_i)
    if op == "oneOver":
        ev.ops += 4
        return yk.pow(2) * (yk.scale(2.0) * ls - lam_i)
    if op == "sqrt":
        ev.ops += 4
        return yk.scale(2.0).recip() * (lam_i + yi.scale(-2.0).recip() * ls)
    if op == "exp":
        ev.ops += 2
        return yk * (ls + lam_i)
    if op == "ln":
        ev.ops += 4
        ri = yi.recip()
        return ri * (lam_i - ri * ls)
    if op == "addC":
        return lam_i
    if op == "mulByC":
        ev.ops += 1
        return lam_i.scale(line.c)
    raise ValueError(f"unknown op {op!r}")  # pragma: no cover


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

    if op == "addC":
        return ZERO if Li == full else lam_i
    if op == "mulByC":
        ev.ops += 1
        return ZERO if Li == full else lam_i.scale(line.c)

    # nonaffine unary compositions
    ls = ev._lambda_s(ev.grads[line.i - 1], full - Lk)
    if Li == full:
        lam_arg = None  # the argument block vanishes entirely
    elif Lk == Li:
        lam_arg = lam_i
    else:
        lam_arg = zero_widen(lam_i)

    if op == "powNat":
        m = line.m
        if lam_arg is None:
            ev.ops += 3
            return yi.pow(m - 2).scale(m * (m - 1)) * ls
        ev.ops += 5
        return yi.pow(m - 2).scale(m) * (ls.scale(m - 1) + yi * lam_arg)
    if op == "oneOver":
        if lam_arg is None:
            ev.ops += 3
            return yk.pow(3).scale(2.0) * ls
        ev.ops += 4
        return yk.pow(2) * (yk.scale(2.0) * ls - lam_arg)
    if op == "sqrt":
        if lam_arg is None:
            ev.ops += 3
            return yk.pow(3).scale(-4.0).recip() * ls
        ev.ops += 4
        return yk.scale(2.0).recip() * (yi.scale(-2.0).recip() * ls + lam_arg)
    if op == "exp":
        ev.ops += 2
        if lam_arg is None:
            return yk * ls
        return yk * (ls + lam_arg)
    if op == "ln":
        ev.ops += 4
        ri = yi.recip()
        if lam_arg is None:
            return ri.pow(2).scale(-1.0) * ls
        return ri * (lam_arg - ri * ls)
    raise ValueError(f"unknown op {op!r}")  # pragma: no cover


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
