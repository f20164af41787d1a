"""Benchmark runner: one workload, one seed, closed loop, single thread.

    python3 perfbench/run.py --workload engine_boxes --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout; nothing is installed.  Each unit of work starts after
the previous one finishes, so there is no queue and no wait time.

Phases of one run:

1. set-up: import time (median of fresh interpreters) plus the workload's
   own set-up (median of repeats), reported as ``setup_s``;
2. timed phase: units from the seeded stream until ``--seconds`` have
   passed and at least the workload's prefix of units has run;
3. with ``--trace 1``, the prefix again with every layer wrapped;
4. quality metrics over the prefix, and the correctness gate on a seeded
   sample of it; both run outside the timed phase.

The last line of standard output is one JSON object; the lines before it
are a readable summary.  Exit code 1 means a unit failed or a correctness
check was violated; exit code 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import REFERENCE_LOOP_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 7
SETUP_REPEATS = 5
# tail percentiles tried from the workload's pinned one downwards until at
# least TAIL_MIN_BEYOND samples lie beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# import in a fresh interpreter, between two timings of the reference loop
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
    "p = speed.loop_seconds(); t = time.perf_counter(); "
    "import hessbound, hessbound.harness, hessbound.reference; "
    "d = time.perf_counter() - t; print(d, (p + speed.loop_seconds()) / 2)"
)

END_TO_END = {
    "setup_s": "s",
    "boxes_per_s": "1/s",
    "box_p50_ms": "ms",
    "box_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "certified_share": "share",
    "width_ratio": "ratio",
}

PER_LAYER_SPANS = {
    "interval.lambda_s": ("calls", "busy_s"),
    "interval.lambda_t": ("calls", "busy_s"),
    "interval.lambda_star": ("calls", "busy_s"),
    "bounds.eval_original": ("calls", "busy_s", "self_s"),
    "bounds.eval_improved": ("calls", "busy_s", "self_s"),
    "expressions.compile_expression": ("calls", "busy_s"),
    "codelist.analyze": ("calls", "busy_s"),
    "reference.interval_hessian": ("calls", "busy_s"),
    "reference.gershgorin_bounds": ("busy_s",),
    "reference.hertz_rohn_bounds": ("calls", "busy_s", "self_s"),
    "reference.sym_eigen_range": ("calls", "busy_s"),
    "harness.run_compare": ("busy_s", "self_s"),
    "harness.random_boxes": ("busy_s",),
    "harness.classify": ("calls",),
    "harness.alpha_bb_eval": ("calls", "busy_s"),
    "harness.codelist_value": ("busy_s",),
}
PER_LAYER_COUNTS = (
    "interval.intervals_created",
    "bounds.eval_original.op_count",
    "bounds.eval_improved.op_count",
    "expressions.lines_emitted",
    "harness.skips",
)


def per_layer_units():
    units = {}
    for span, fields in PER_LAYER_SPANS.items():
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    for name in PER_LAYER_COUNTS:
        units[name] = "count"
    units["harness.skip_share"] = "share"
    units["trace.unit_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def import_seconds(repeats: int):
    """Import times of the package in fresh interpreters, raw and in
    reference seconds.  One unmeasured import runs first, so that every
    measured one finds the same file and bytecode caches."""
    raw, ref = [], []
    here = str(Path(__file__).resolve().parent)
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), here], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            seconds, loop_s = map(float, out.stdout.split())
            raw.append(seconds)
            ref.append(seconds * REFERENCE_LOOP_S / loop_s)
    return raw, ref


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list, pinned: float):
    """(percentile, value, samples beyond) for the pinned tail percentile, or
    the next lower one on the ladder when too few samples lie beyond it."""
    n = len(sorted_values)
    ladder = [p for p in TAIL_LADDER if p <= pinned]
    for pct in ladder:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND or pct == ladder[-1]:
            return pct, percentile(sorted_values, pct), beyond


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the report (see module docstring).

    ``tiny`` shrinks the prefix, the gate sample and the set-up repeats for
    the self-test; it does not change what a unit is.
    """
    import numpy as np

    import inputs
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](seed)
    if tiny:
        wl.prefix = min(wl.prefix, 5)
        wl.gate_units = min(wl.gate_units, 2)
        wl.quality_units = min(wl.quality_units, 20)
    probe = SpeedProbe()
    # one vCPU for this process and its import probes, so the speed probe and
    # the units it corrects always share a processor
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    # -- 1. set-up ---------------------------------------------------------
    imports, ref_imports = import_seconds(1 if tiny else IMPORT_REPEATS)
    setups, ref_setups = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        probe.sample()
        ref_setups.append(setups[-1] * probe.factor(t0))
    setup_s = statistics.median(ref_imports) + statistics.median(ref_setups)

    # -- 2. timed phase ----------------------------------------------------
    prefix_units, prefix_out = [], []
    starts, latencies = [], []
    errors: Counter = Counter()
    failed_units = set()
    first_traceback = None
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < wl.prefix or time.perf_counter() < deadline:
        probe.maybe_sample()
        unit = wl.make_unit(index)
        t0 = time.perf_counter()
        try:
            out = wl.run_unit(unit)
            err = None
        except Exception as exc:  # a failing unit is counted, the run goes on
            out, err = None, type(exc).__name__
            if first_traceback is None:
                first_traceback = traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        err = err or wl.unit_error(out)
        if err:
            errors[err] += 1
            failed_units.add(index)
        if index < wl.prefix:
            prefix_units.append(unit)
            prefix_out.append(None if err else out)
        index += 1
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.sample()
    ref_latencies = [lat * probe.factor(t) for lat, t in zip(latencies, starts)]

    # -- 3. traced pass over the prefix --------------------------------------
    tracer = None
    if trace:
        tracer = Tracer()
        traced_ref_s = 0.0
        with tracer:
            for k, unit in enumerate(prefix_units):
                probe.maybe_sample()
                t0 = tracer.start_unit(k)
                try:
                    out = wl.run_unit(unit)
                except Exception:
                    out = None
                traced_ref_s += tracer.end_unit() * probe.factor(t0)
                if prefix_out[k] is not None and (out is None or not wl.same(out, prefix_out[k])):
                    errors["traced result differs"] += 1
                    failed_units.add(k)
        # span times are scaled by the pass's mean speed, so that they add up
        # to trace.unit_s
        traced_factor = traced_ref_s / tracer.unit_seconds()

    # -- 4. quality and correctness gate -------------------------------------
    quality = wl.quality(prefix_units, prefix_out)
    violations = []
    gate_rng = np.random.default_rng(seed)
    checked = 0
    for k in workloads.gate_sample(wl.name, seed, len(prefix_units), wl.gate_units):
        if prefix_out[k] is None:
            continue
        checked += 1
        bad = wl.gate(prefix_units[k], prefix_out[k], gate_rng)
        if bad:
            failed_units.add(k)
            errors["correctness check"] += 1
            violations.append({"unit": k, "input": repr(wl.describe_unit(prefix_units[k])),
                               "violations": bad})

    # -- report --------------------------------------------------------------
    attempted = len(latencies)
    failed = len(failed_units)
    lat_ms = sorted(1e3 * x for x in ref_latencies)
    tail_pct, tail_ms, beyond = tail(lat_ms, wl.tail_pct)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "input_digest": inputs.digest([wl.describe_unit(u) for u in prefix_units]),
        "prefix_units": len(prefix_units),
        "gate_units_checked": checked,
        "loop": "closed, one unit at a time, single thread: no queue, no wait time",
        "timing": "reference seconds (see speed.py); raw wall-clock figures in summary.raw",
        "cpu": cpu,
    }
    if hasattr(wl, "N_CAP"):
        context["n_cap"] = {"n_max": wl.N_CAP, "why": wl.N_CAP_WHY}
    raw_ms = sorted(1e3 * x for x in latencies)
    summary = {
        "units": attempted,
        "error_rate": failed / attempted,
        "errors": dict(errors),
        "tail": {"percentile": tail_pct, "samples": attempted, "samples_beyond": beyond},
        "quality": quality,
        "machine_speed": probe.speed(),
        "raw": {
            "wall_s": wall_s,
            "busy_s": sum(latencies),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "import_s": imports,
            "workload_setup_s": setups,
            "boxes_per_s": attempted / sum(latencies),
            "box_p50_ms": statistics.median(raw_ms),
            "box_tail_ms": percentile(raw_ms, tail_pct),
        },
    }
    if trace:
        untraced_ref_s = sum(ref_latencies[:len(prefix_units)])
        metrics = per_layer_metrics(tracer, traced_factor, traced_ref_s, untraced_ref_s)
        summary["layer_shares"] = layer_shares(tracer)
        summary["skip_types"] = dict(tracer.skip_types)
    else:
        values = {
            "setup_s": setup_s,
            "boxes_per_s": attempted / sum(ref_latencies),
            "box_p50_ms": statistics.median(lat_ms),
            "box_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb,
            "certified_share": quality["certified_share"],
            "width_ratio": quality["width_ratio"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"context": context, "summary": summary, "violations": violations,
            "first_traceback": first_traceback, "result": result, "tracer": tracer}


def per_layer_metrics(tracer, factor: float, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures of the traced pass; span times are scaled to
    reference seconds with the pass's speed ``factor``."""
    totals = tracer.layer_totals()
    values = {}
    for span, fields in PER_LAYER_SPANS.items():
        rec = totals.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            values[f"{span}.{f}"] = rec[f] if f == "calls" else rec[f] * factor
    for name in PER_LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0)
    boxes = tracer.counts.get("harness.compare_boxes", 0)
    values["harness.skip_share"] = values["harness.skips"] / boxes if boxes else 0.0
    values["trace.unit_s"] = traced_s
    values["trace.overhead"] = traced_s / untraced_s
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


def layer_shares(tracer) -> dict:
    """Self time per module as a share of the traced units' time; the rest
    is interval arithmetic and glue outside any wrapped function."""
    totals = tracer.layer_totals()
    unit_s = tracer.unit_seconds()
    shares = Counter()
    for span, rec in totals.items():
        shares[span.split(".", 1)[0]] += rec["self_s"] / unit_s
    shares["compile+analyse"] = totals.get("expressions.compile_expression",
                                           {"busy_s": 0.0})["busy_s"] / unit_s
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def print_report(report: dict) -> None:
    ctx, summ, res = report["context"], report["summary"], report["result"]
    print(f"perfbench {ctx['workload']} seed={ctx['seed']} trace={ctx['trace']}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    t = summ["tail"]
    print(f"  tail percentile p{t['percentile']:g} of {t['samples']} units "
          f"({t['samples_beyond']} beyond); error_rate = {summ['error_rate']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    print("  quality " + json.dumps(summ["quality"], sort_keys=True))
    if "layer_shares" in summ:
        print("  layer self-time shares " + json.dumps(summ["layer_shares"]))
        print("  skips by type " + json.dumps(summ["skip_types"]))
    if summ["errors"]:
        print("  errors " + json.dumps(summ["errors"]))
    for v in report["violations"][:5]:
        print("  VIOLATION " + json.dumps(v))
    if report["first_traceback"]:
        print("  first failure:\n" + report["first_traceback"])


def write_record(report: dict) -> None:
    ctx = report["context"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{ctx['workload']}-seed{ctx['seed']}-trace{ctx['trace']}"
    record = {k: report[k] for k in ("context", "summary", "violations", "result")}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if report["tracer"] is not None:
        report["tracer"].write(str(OUT_DIR / f"{stem}.spans.json.gz"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hessbound" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS threads before numpy is first imported; import probes inherit it
    os.environ.update({k: BLAS_THREADS for k in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    write_record(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
