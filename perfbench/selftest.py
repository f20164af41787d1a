"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload, traced and untraced, emits every
metric named in BENCHMARK.json with its unit, and that the correctness gate
flags deliberately wrong bounds, both directly and through a whole run.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402

os.environ.update({k: bench.BLAS_THREADS for k in bench.BLAS_ENV})

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hessbound.interval import Interval  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end_to_end names and units match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units(),
          "BENCHMARK.json per_layer names and units match run.py")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match run.py")


def check_tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace, expected in ((False, bench.END_TO_END), (True, bench.per_layer_units())):
            res = bench.run(name, seed=3, seconds=0.1, trace=trace, tiny=True)["result"]
            metrics = res["metrics"]
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={int(trace)}: tiny run is correct")
            check({k: m["unit"] for k, m in metrics.items()} == expected,
                  f"{name} trace={int(trace)}: every metric present with its unit")
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      for m in metrics.values()),
                  f"{name} trace={int(trace)}: every value is a finite number")


def check_gate_flags_narrow_bound() -> None:
    wl = workloads.EngineBoxes(seed=1)
    wl.setup()
    rng = np.random.default_rng(0)
    unit = wl.make_unit(1)  # a shared-variable function, not a separable one
    original, improved, under = wl.run_unit(unit)
    check(wl.gate(unit, (original, improved, under), rng) == [],
          "gate passes the engines' own output")
    mid = 0.5 * (improved.lo + improved.hi)
    narrow = Interval(mid, mid)
    check(any(v.startswith("improved bound") for v in
              wl.gate(unit, (original, narrow, under), rng)),
          "gate flags a too-narrow improved bound")
    wide = Interval(original.lo - 1.0, original.hi)
    check(any("not inside original" in v for v in wl.gate(unit, (original, wide, under), rng)),
          "gate flags an improved bound wider than the original")
    f = wl.functions[1].oracle()
    lifted = [f(x) + 1.0 for x in unit[2]]
    check(any(v.startswith("alpha-BB") for v in
              wl.gate(unit, (original, improved, lifted), rng)),
          "gate flags an underestimator above the function")


class NarrowEngineBoxes(workloads.EngineBoxes):
    """engine_boxes with the improved bound collapsed to its midpoint."""

    def run_unit(self, unit):
        original, improved, under = super().run_unit(unit)
        mid = 0.5 * (improved.lo + improved.hi)
        return original, Interval(mid, mid), under


def check_run_fails_on_violation() -> None:
    workloads.WORKLOADS["narrow"] = NarrowEngineBoxes
    try:
        res = bench.run("narrow", seed=1, seconds=0.1, trace=False, tiny=True)["result"]
    finally:
        del workloads.WORKLOADS["narrow"]
    check(not res["correct"] and res["failed"] >= 1,
          "a run whose bounds are too narrow reports correct=false")


def main() -> int:
    check_manifest()
    check_gate_flags_narrow_bound()
    check_run_fails_on_violation()
    check_tiny_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
