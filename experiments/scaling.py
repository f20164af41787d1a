"""Cost of preparing and bounding a codelist as n grows.

    python experiments/scaling.py --seed 1 --sizes 16 64 256 --out scaling.json

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  For each family (Rosenbrock and Trid, written as one sum in
source order) and each n it records one row:

* ``lines`` -- N(f), the codelist's length;
* ``compile_s`` -- ``compile_expression`` wall time (parse, validate and
  analyse), the median of ``--repeats`` runs;
* ``analyze_s`` -- ``Codelist.analyze`` wall time on the built codelist
  (validate and analyse), the median of ``--repeats`` runs;
* ``kept_bytes`` -- memory the built codelist keeps: ``tracemalloc``'s
  current size with the codelist alive, less the size before compiling;
* ``peak_bytes`` -- ``tracemalloc``'s peak while compiling, less the size before;
* ``methods`` -- for ``original``, ``improved`` and ``interval_hessian``:
  the median wall time of one warm call on a fresh :class:`Box` (so each
  runs its own value pass) in the interpreted tier, ``wall_s``, and in the
  compiled tier, ``compiled_s``; each tier walks its own codelist, whose
  first call (untimed) builds the tier's shape functions or compiled passes.
  The engines add the paper's cost measure ``op_count`` and the eigenvalue
  bounds ``eigen``;
* ``passes`` -- for each pass of the walk (``_values``, ``_lam_original``,
  ``_lam_improved``, ``_hessian``): ``generate_s``, the median time to
  generate and compile the codelist's pass (``bounds._generate``), with the
  constants of an interpreted value pass on the box bound, and
  ``peak_bytes``, ``tracemalloc``'s peak while doing so, less the size
  before (both null when that value pass fails on a line).

The box is drawn from ``--seed``, the family and n: each component is
[lo, lo + w] with lo uniform in [-1, 0.5] and w in [0.1, 1].  The JSON
file also names the Python version and machine.  Wall times are of this
process on whatever else the host runs; compare two commits by alternating
runs on one host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hessbound import Box, compile_expression, eval_improved, eval_original  # noqa: E402
import hessbound.bounds  # noqa: E402
from hessbound.reference import interval_hessian  # noqa: E402

ENGINES = {"original": eval_original, "improved": eval_improved}
ROUTES = {**ENGINES, "interval_hessian": interval_hessian}
PASSES = ("_values", "_lam_original", "_lam_improved", "_hessian")
TIERS = {"wall_s": 10**9, "compiled_s": 0}  # bounds._COMPILE_AFTER of each tier


def rosenbrock(n: int) -> str:
    """sum_{i<n} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    return " + ".join(f"100*(x{i + 1} - x{i}^2)^2 + (1 - x{i})^2" for i in range(1, n))


def trid(n: int) -> str:
    """sum_i (x_i - 1)^2 - sum_{i>1} x_i x_{i-1}."""
    return (" + ".join(f"(x{i} - 1)^2" for i in range(1, n + 1)) + " - "
            + " - ".join(f"x{i}*x{i - 1}" for i in range(2, n + 1)))


FAMILIES = {"rosenbrock": rosenbrock, "trid": trid}


def _median_time(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _memory(call) -> tuple:
    """(kept, peak) bytes of ``call()``, as ``tracemalloc`` counts them, kept
    with its result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept - before, peak - before


def _generation(cl, box: Box, name: str, repeats: int) -> dict:
    """Time and peak memory of generating ``cl``'s pass ``name``, with the
    constants of an interpreted value pass on ``box`` bound; both None when
    that pass fails on a line, as no pass is compiled from a failed one."""
    *lists, failure = hessbound.bounds._values(cl, box)
    if failure is not None:
        return {"generate_s": None, "peak_bytes": None}

    def generate():
        source = (hessbound.bounds._values_source(cl, lists) if name == "_values"
                  else hessbound.bounds._rule_source(cl, name, lists))
        return hessbound.bounds._generate(source)

    return {"generate_s": _median_time(generate, repeats), "peak_bytes": _memory(generate)[1]}


def _tiers(source: str, n: int, bounds: list, repeats: int) -> dict:
    """Each route's warm median wall time in each tier (see the module docstring)."""
    times = {name: {} for name in ROUTES}
    saved = hessbound.bounds._COMPILE_AFTER
    try:
        for tier, after in TIERS.items():
            hessbound.bounds._COMPILE_AFTER = after
            cl = compile_expression(source, n)
            for name, route in ROUTES.items():
                route(cl, Box.from_bounds(bounds))
                times[name][tier] = _median_time(lambda: route(cl, Box.from_bounds(bounds)),
                                                 repeats)
    finally:
        hessbound.bounds._COMPILE_AFTER = saved
    return times


def measure(family: str, n: int, seed: int, repeats: int) -> dict:
    """One row of the report (see the module docstring)."""
    source = FAMILIES[family](n)
    cl = compile_expression(source, n)
    kept, peak = _memory(lambda: compile_expression(source, n))
    rng = random.Random(f"scaling/{seed}/{family}/{n}")
    bounds = []
    for _ in range(n):
        lo = rng.uniform(-1.0, 0.5)
        bounds.append((lo, lo + rng.uniform(0.1, 1.0)))
    methods = _tiers(source, n, bounds, repeats)
    for name, engine in ENGINES.items():
        res = engine(cl, Box.from_bounds(bounds))
        methods[name].update(op_count=res.op_count, eigen=[res.eigen.lo, res.eigen.hi])
    return {
        "family": family, "n": n, "lines": len(cl.lines),
        "compile_s": _median_time(lambda: compile_expression(source, n), repeats),
        "analyze_s": _median_time(cl.analyze, repeats),
        "kept_bytes": kept, "peak_bytes": peak, "methods": methods,
        "passes": {name: _generation(cl, Box.from_bounds(bounds), name, repeats)
                   for name in PASSES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 64, 256])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="write the report here as JSON")
    args = ap.parse_args(argv)
    if min(args.sizes) < 2 or args.repeats < 1:
        ap.error("every size must be at least 2 and --repeats at least 1")

    rows = [measure(family, n, args.seed, args.repeats)
            for family in FAMILIES for n in args.sizes]
    print(f"{'family':<11} {'n':>4} {'lines':>6} {'compile ms':>10} {'analyze ms':>10} "
          f"{'kept MB':>8} {'peak MB':>8} {'orig ops':>9} {'impr ops':>9}")
    for r in rows:
        m = r["methods"]
        print(f"{r['family']:<11} {r['n']:>4} {r['lines']:>6} {r['compile_s'] * 1e3:>10.2f} "
              f"{r['analyze_s'] * 1e3:>10.2f} {r['kept_bytes'] / 1e6:>8.3f} "
              f"{r['peak_bytes'] / 1e6:>8.3f} {m['original']['op_count']:>9} "
              f"{m['improved']['op_count']:>9}")
    print(f"\n{'family':<11} {'n':>4} {'route / pass':<17} {'interp ms':>10} {'compiled ms':>11} "
          f"{'generate ms':>11} {'peak MB':>8}")
    for r in rows:
        for name, m in r["methods"].items():
            print(f"{r['family']:<11} {r['n']:>4} {name:<17} {m['wall_s'] * 1e3:>10.2f} "
                  f"{m['compiled_s'] * 1e3:>11.2f}")
        for name, g in r["passes"].items():
            cost = ("value pass fails" if g["generate_s"] is None else
                    f"{g['generate_s'] * 1e3:>11.2f} {g['peak_bytes'] / 1e6:>8.2f}")
            print(f"{r['family']:<11} {r['n']:>4} {name:<17} {'':>10} {'':>11} {cost}")
    if args.out:
        report = {"seed": args.seed, "repeats": args.repeats,
                  "python": platform.python_version(), "machine": platform.machine(),
                  "cpus": os.cpu_count(), "rows": rows}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
