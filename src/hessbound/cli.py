"""Command-line interface.

Subcommands:

* ``eval``          -- eigenvalue bounds for one function over one box
* ``compare``       -- corpus benchmark, classifying methods against references
* ``underestimate`` -- convex underestimator value at a point
* ``convexity``     -- convexity certificate over a box (exit code 0 iff convex)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .bounds import _full, _walk, eval_improved, eval_original
from .errors import HessboundError
from .harness import (
    DEFAULT_EPS,
    alpha_bb_eval,
    emit_report,
    parse_box,
    read_corpus,
    run_compare,
)
from .interval import Interval
from .expressions import compile_expression
from .reference import gershgorin_bounds, hertz_rohn_bounds, interval_hessian

__all__ = ["main"]


def _parse_point(text: str, n: int) -> List[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"point has {len(parts)} components, expected {n}")
    vals = []
    for k, p in enumerate(parts, start=1):
        try:
            vals.append(float(p))
        except ValueError:
            raise ValueError(f"point component {k} is {p.strip()!r}, expected a number") from None
    return vals


def _load_source(args) -> str:
    if args.inline is not None:
        return args.inline
    with open(args.expr, encoding="utf-8") as fh:
        return fh.read().strip()


def _add_expr_args(sub, with_box: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="path to a file holding the expression")
    group.add_argument("--inline", help="expression text, e.g. 'x1^2 + x2*exp(x2)'")
    sub.add_argument("--vars", type=int, required=True, metavar="N",
                     help="number of variables x1..xN")
    if with_box:
        sub.add_argument("--box", required=True,
                         help="variable ranges as 'l1,u1;l2,u2;...;lN,uN'")


def _iv(iv: Interval) -> List[float]:
    return [iv.lo, iv.hi]


def _cmd_eval(args) -> int:
    cl = compile_expression(_load_source(args), args.vars)
    box = parse_box(args.box, args.vars)
    if args.method in ("original", "improved"):
        res = (eval_original if args.method == "original" else eval_improved)(cl, box)
        value, gradient, eigen, ops = res.value, res.gradient, res.eigen, res.op_count
    else:
        enc = interval_hessian(cl, box)
        eigen = gershgorin_bounds(enc) if args.method == "gershgorin" else hertz_rohn_bounds(enc)
        # value and gradient from the value pass that interval_hessian ran, with
        # no engine's λ rule; no operation count is kept for this route
        ys, grads, _ = _walk(cl, box, lambda *args: None)
        value, gradient, ops = Interval(*ys[-1]), _full(grads[-1], cl.n), None
    if args.json:
        print(json.dumps({
            "method": args.method,
            "value": _iv(value),
            "gradient": [_iv(g) for g in gradient],
            "eigen": _iv(eigen),
            "opCount": ops,
        }))
    else:
        print(f"method:   {args.method}")
        print(f"value:    {value}")
        print("gradient: " + " ".join(str(g) for g in gradient))
        print(f"eigen:    {eigen}")
        print(f"opCount:  {'n/a' if ops is None else ops}")
    return 0


def _cmd_compare(args) -> int:
    entries = read_corpus(args.corpus)
    result = run_compare(entries, boxes_per_function=args.boxes,
                         seed=args.seed, eps=args.eps)
    report = emit_report(result, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out} ({len(result.records)} classifications, "
              f"{len(result.skips)} skipped boxes)")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_underestimate(args) -> int:
    cl = compile_expression(_load_source(args), args.vars)
    box = parse_box(args.box, args.vars)
    x = _parse_point(args.at, args.vars)
    lam_lo = eval_improved(cl, box).eigen.lo
    value = alpha_bb_eval(cl, box, x, lam_lo)
    if args.json:
        print(json.dumps({"at": x, "value": value, "eigenLower": lam_lo}))
    else:
        print(f"eigenLower: {lam_lo:.12g}")
        print(f"value:      {value:.12g}")
    return 0


def _cmd_convexity(args) -> int:
    cl = compile_expression(_load_source(args), args.vars)
    box = parse_box(args.box, args.vars)
    lam = eval_improved(cl, box).eigen
    convex = lam.lo >= 0.0
    print("convex" if convex else "not certified convex")
    print(f"eigen: {lam}")
    return 0 if convex else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessbound",
        description="Guaranteed Hessian eigenvalue bounds for factorable functions over boxes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="eigenvalue bounds over a box")
    _add_expr_args(p_eval)
    p_eval.add_argument("--method", default="improved",
                        choices=["original", "improved", "gershgorin", "hertzrohn"])
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = subs.add_parser("compare", help="benchmark methods on a corpus directory")
    p_cmp.add_argument("--corpus", required=True, help="directory of *.txt function files")
    p_cmp.add_argument("--boxes", type=int, default=100, help="sub-boxes per function")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="relative tolerance of the class comparison")
    p_cmp.add_argument("--out", help="write the report here instead of stdout")
    p_cmp.add_argument("--format", default="csv", choices=["csv", "json", "table"])
    p_cmp.set_defaults(func=_cmd_compare)

    p_under = subs.add_parser("underestimate", help="convex underestimator at a point")
    _add_expr_args(p_under)
    p_under.add_argument("--at", required=True, help="evaluation point 'x1,...,xN'")
    p_under.add_argument("--json", action="store_true")
    p_under.set_defaults(func=_cmd_underestimate)

    p_cvx = subs.add_parser("convexity", help="certify convexity over a box")
    _add_expr_args(p_cvx)
    p_cvx.set_defaults(func=_cmd_convexity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HessboundError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
