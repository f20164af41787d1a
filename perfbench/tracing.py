"""Span tracing around the package's public entry points.

Each entry point is wrapped at the module attribute its caller looks up
(``hessbound.bounds.lambda_t`` is what the engines call, for example), so
no package file changes.  A span is (name, start_ns, end_ns, parent, unit);
spans are kept in memory and written out when the run ends.  Self time is
a span's duration minus the durations of its direct children; spans never
overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]

# (span name, [(module, attribute), ...]): every place a caller looks it up
HOOKS: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("interval.lambda_s", [("hessbound.bounds", "lambda_s")]),
    ("interval.lambda_t", [("hessbound.bounds", "lambda_t")]),
    ("interval.lambda_star", [("hessbound.bounds", "lambda_star")]),
    ("bounds.eval_original", [("hessbound.bounds", "eval_original"),
                              ("hessbound.harness", "eval_original")]),
    ("bounds.eval_improved", [("hessbound.bounds", "eval_improved"),
                              ("hessbound.harness", "eval_improved")]),
    ("expressions.compile_expression", [("hessbound.expressions", "compile_expression"),
                                        ("hessbound.harness", "compile_expression")]),
    ("codelist.analyze", [("hessbound.codelist:Codelist", "analyze")]),
    ("reference.interval_hessian", [("hessbound.reference", "interval_hessian"),
                                    ("hessbound.harness", "interval_hessian")]),
    ("reference.gershgorin_bounds", [("hessbound.reference", "gershgorin_bounds"),
                                     ("hessbound.harness", "gershgorin_bounds")]),
    ("reference.hertz_rohn_bounds", [("hessbound.reference", "hertz_rohn_bounds"),
                                     ("hessbound.harness", "hertz_rohn_bounds")]),
    ("reference.sym_eigen_range", [("hessbound.reference", "sym_eigen_range")]),
    ("harness.run_compare", [("hessbound.harness", "run_compare")]),
    ("harness.random_boxes", [("hessbound.harness", "random_boxes")]),
    ("harness.classify", [("hessbound.harness", "classify")]),
    ("harness.alpha_bb_eval", [("hessbound.harness", "alpha_bb_eval")]),
    ("harness.codelist_value", [("hessbound.harness", "codelist_value")]),
]


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Install with ``with tracer:``; everything is restored on exit."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.unit = -1
        self.unit_ns = 0
        self._unit_start = 0
        self.counts: Counter = Counter()
        self.skip_types: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._after: Dict[str, Callable] = {
            "bounds.eval_original": self._count_ops,
            "bounds.eval_improved": self._count_ops,
            "expressions.compile_expression": self._count_lines,
            "harness.run_compare": self._count_skips,
        }

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        after = self._after.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        from hessbound.interval import Interval

        for name, sites in HOOKS:
            wrapper = None
            for target, attr in sites:
                owner = _resolve(target)
                original = getattr(owner, attr)
                wrapper = wrapper or self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

        counts = self.counts
        post_init = Interval.__post_init__

        def counted_post_init(iv):
            counts["interval.intervals_created"] += 1
            post_init(iv)

        self._saved.append((Interval, "__post_init__", post_init))
        Interval.__post_init__ = counted_post_init
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- units ------------------------------------------------------------

    def start_unit(self, unit: int) -> float:
        """Mark the start of a unit; returns its perf_counter start time."""
        self.unit = unit
        self._unit_start = time.perf_counter_ns()
        return self._unit_start * 1e-9

    def end_unit(self) -> float:
        """Mark the end of the current unit; returns its duration in s."""
        dt = time.perf_counter_ns() - self._unit_start
        self.unit_ns += dt
        return dt * 1e-9

    def unit_seconds(self) -> float:
        return self.unit_ns * 1e-9

    # -- counts recorded at the same boundaries ----------------------------

    def _count_ops(self, args, result) -> None:
        self.counts[f"bounds.eval_{result.method}.op_count"] += result.op_count

    def _count_lines(self, args, result) -> None:
        self.counts["expressions.lines_emitted"] += len(result.lines)

    def _count_skips(self, args, result) -> None:
        self.counts["harness.compare_boxes"] += len(args[0]) * result.boxes_per_function
        self.counts["harness.skips"] += len(result.skips)
        for s in result.skips:
            self.skip_types[s.reason.split(":", 1)[0]] += 1

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """calls, busy_s and self_s per span name.

        busy_s counts only the outermost span of a name, so a recursive call
        is not counted twice; self_s subtracts every direct child.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for idx, (name, start, end, parent, _) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start - child_ns[idx]) * 1e-9
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec["busy_s"] += (end - start) * 1e-9
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "unit"],
                       "spans": self.spans}, fh, separators=(",", ":"))
