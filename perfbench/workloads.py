"""The four benchmark workloads.

A workload turns (seed, unit index) into one unit of input, runs the unit
through the package's public functions, and afterwards scores and checks
the outputs of a fixed prefix of units.  A unit is one (function, box)
pair.  Only ``run_unit`` is timed; input generation happens before the
clock starts.

The package is always called through its module attributes
(``bounds.eval_improved`` rather than a name imported from it), so the
traced run sees every call.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from hessbound import bounds, expressions, harness, reference
from hessbound.interval import Box, Interval

import inputs

# slack of acceptance criterion 5 (sampled eigenvalues inside every bound)
# and criterion 4 (improved bound inside the original one)
EIG_SLACK_REL = 1e-7
NEST_SLACK = 1e-12
# vertex bounds inside Gershgorin bounds, as in criterion 7
HR_IN_GERSHGORIN_SLACK = 1e-9
GATE_POINTS = 16
WIDTH_RATIO_FLOOR = 1e-3


# -- correctness checks shared by the workloads ---------------------------

def spectrum_violations(cl, box: Box, bounds_by_method: Dict[str, Interval],
                        rng: np.random.Generator) -> List[str]:
    """Every bound must contain the eigenvalues of the exact Hessian at the
    box midpoint and at GATE_POINTS - 1 random points of the box."""
    lo = np.array([d.lo for d in box])
    hi = np.array([d.hi for d in box])
    pts = np.vstack([0.5 * (lo + hi), rng.uniform(lo, hi, size=(GATE_POINTS - 1, len(lo)))])
    eigs = np.linalg.eigvalsh(reference.point_hessians(cl, pts))
    e_lo, e_hi = float(eigs.min()), float(eigs.max())
    slack = EIG_SLACK_REL * (1.0 + float(np.abs(eigs).max()))
    return [f"{method} bound {iv} misses sampled eigenvalues [{e_lo:.6g}, {e_hi:.6g}]"
            for method, iv in bounds_by_method.items()
            if not (iv.lo - slack <= e_lo and e_hi <= iv.hi + slack)]


def nesting_violations(original: Interval, improved: Interval) -> List[str]:
    if original.encloses(improved, slack=NEST_SLACK):
        return []
    return [f"improved bound {improved} is not inside original bound {original}"]


def vertex_violations(gersh: Interval, vertex: Interval) -> List[str]:
    slack = HR_IN_GERSHGORIN_SLACK * (1.0 + gersh.mag)
    if gersh.encloses(vertex, slack=slack):
        return []
    return [f"Hertz-Rohn bound {vertex} is not inside Gershgorin bound {gersh}"]


def is_certified(iv: Interval) -> bool:
    return iv.lo >= 0.0 or iv.hi <= 0.0


def width_ratio(original: Interval, improved: Interval) -> float:
    """Improved width over original width, floored so that an exact
    (zero-width) improved bound counts as a 1000-fold tightening."""
    if original.width == 0.0:
        return 1.0
    return max(improved.width / original.width, WIDTH_RATIO_FLOOR)


def engine_quality(pairs: Sequence[Optional[tuple]]) -> Dict[str, float]:
    """certified_share and width_ratio over (original, improved) pairs."""
    done = [p for p in pairs if p is not None]
    if not done:
        return {"certified_share": 0.0, "width_ratio": 0.0}
    logs = [math.log(width_ratio(o, i)) for o, i in done]
    return {
        "certified_share": sum(is_certified(i) for _, i in done) / len(done),
        "width_ratio": math.exp(sum(logs) / len(logs)),
    }


class Workload:
    name = ""
    tail_pct = 99.0
    prefix = 0         # units gated and re-run traced
    gate_units = 0     # seeded sample of the prefix checked by the gate
    quality_units = 0  # units scored by quality(): the prefix and, when
                       # larger, further units of the stream run untimed

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Work done once before the timed phase (counted in setup_s)."""

    def make_unit(self, index: int):
        raise NotImplementedError

    def run_unit(self, unit):
        raise NotImplementedError

    def unit_error(self, output) -> Optional[str]:
        """Error type when a unit completed but did not do its work."""
        return None

    def same(self, a, b) -> bool:
        return a == b

    def engine_pair(self, unit) -> tuple:
        """(original, improved) bounds of one unit, outside the timed phase."""
        raise NotImplementedError

    def output_pair(self, output) -> Optional[tuple]:
        """(original, improved) bounds from a timed output, when it has them."""
        return output[:2]

    def quality(self, units: list, outputs: list) -> Dict[str, float]:
        pairs = [None if o is None else self.output_pair(o) for o in outputs]
        for index in range(len(pairs), self.quality_units):
            pairs.append(self.engine_pair(self.make_unit(index)))
        return engine_quality(pairs)

    def gate(self, unit, output, rng: np.random.Generator) -> List[str]:
        raise NotImplementedError

    def describe_unit(self, unit) -> object:
        raise NotImplementedError


# -- engine_boxes ----------------------------------------------------------

class EngineBoxes(Workload):
    """A branch-and-bound user: few fixed functions, many sub-boxes."""

    name = "engine_boxes"
    # seven functions, so no latency class boundary sits at p50
    FUNCTIONS = (("separable", 4), ("shared", 8), ("dense", 8), ("separable", 16),
                 ("shared", 16), ("dense", 24), ("shared", 32))
    POINTS = 32
    # p99 here is the top 7% of the costliest function's boxes, mostly
    # scheduling and collector noise: its run-to-run spread was 10%, p95's 4%
    tail_pct = 95.0
    prefix = 7 * 40
    gate_units = 14

    def setup(self) -> None:
        self.functions = [inputs.fixed_function(s, n) for s, n in self.FUNCTIONS]
        self.codelists = [expressions.compile_expression(f.text, f.n) for f in self.functions]
        self.oracles = [f.oracle() for f in self.functions]

    def make_unit(self, index: int):
        k = index % len(self.functions)
        rng = inputs.unit_rng(self.name, self.seed, index)
        ranges = inputs.sub_box(rng, self.functions[k].domain)
        return k, Box.from_bounds(ranges), inputs.points_in(rng, ranges, self.POINTS)

    def describe_unit(self, unit):
        k, box, pts = unit
        return self.functions[k].name, [(d.lo, d.hi) for d in box], pts

    def run_unit(self, unit):
        k, box, pts = unit
        cl = self.codelists[k]
        original = bounds.eval_original(cl, box).eigen
        improved = bounds.eval_improved(cl, box).eigen
        under = [harness.alpha_bb_eval(cl, box, x, improved.lo) for x in pts]
        return original, improved, under

    def engine_pair(self, unit):
        k, box, _ = unit
        cl = self.codelists[k]
        return bounds.eval_original(cl, box).eigen, bounds.eval_improved(cl, box).eigen

    def gate(self, unit, output, rng):
        k, box, pts = unit
        original, improved, under = output
        bad = spectrum_violations(self.codelists[k], box,
                                  {"original": original, "improved": improved}, rng)
        bad += nesting_violations(original, improved)
        # alpha-BB: below f inside the box, by at most the quadratic shift
        f = self.oracles[k]
        lam = min(improved.lo, 0.0)
        max_shift = sum(0.25 * d.width ** 2 for d in box)
        for x, a in zip(pts, under):
            fx = f(x)
            tol = 1e-9 * (1.0 + abs(fx) + abs(lam) * max_shift)
            if not (fx + 0.5 * lam * max_shift - tol <= a <= fx + tol):
                bad.append(f"alpha-BB value {a!r} at {x} is not within "
                           f"[f + lam/2 * shift, f] with f = {fx!r}")
        return bad


# -- cold_functions --------------------------------------------------------

class ColdFunctions(Workload):
    """Many distinct small functions, each compiled and evaluated once."""

    name = "cold_functions"
    SIZES = (2, 3, 4, 5, 6)
    # units take about 0.3 ms, so the top 1% is mostly host hiccups shorter
    # than the speed probe can see; p99 spread up to 9% between runs
    tail_pct = 95.0
    prefix = 2000
    gate_units = 40

    def make_unit(self, index: int):
        rng = inputs.unit_rng(self.name, self.seed, index)
        n = self.SIZES[index % len(self.SIZES)]
        fn = inputs.stream_function(rng, f"cold{index}", n, index // len(self.SIZES))
        return fn, Box.from_bounds(fn.domain)

    def describe_unit(self, unit):
        return unit[0]

    def run_unit(self, unit):
        fn, box = unit
        cl = expressions.compile_expression(fn.text, fn.n)
        return cl, bounds.eval_original(cl, box).eigen, bounds.eval_improved(cl, box).eigen

    def same(self, a, b):
        return a[1:] == b[1:] and a[0].lines == b[0].lines

    def output_pair(self, output):
        return output[1:]

    def gate(self, unit, output, rng):
        fn, box = unit
        cl, original, improved = output
        bad = spectrum_violations(cl, box, {"original": original, "improved": improved}, rng)
        return bad + nesting_violations(original, improved)


# -- dense_gershgorin ------------------------------------------------------

class DenseGershgorin(Workload):
    """Larger functions through both engines and the interval-Hessian route."""

    name = "dense_gershgorin"
    # (shape, n, size knob): sizes chosen so that every function costs about
    # the same per box, which keeps the latency distribution single-peaked
    FUNCTIONS = (("separable", 16, 2), ("shared", 24, 10), ("dense", 32, 7),
                 ("dense", 40, 4), ("dense", 48, 2))
    tail_pct = 75.0
    prefix = 10
    gate_units = 5
    quality_units = 100

    def setup(self) -> None:
        self.functions = [inputs.fixed_function(*spec) for spec in self.FUNCTIONS]
        self.codelists = [expressions.compile_expression(f.text, f.n) for f in self.functions]

    def make_unit(self, index: int):
        k = index % len(self.functions)
        rng = inputs.unit_rng(self.name, self.seed, index)
        return k, Box.from_bounds(inputs.sub_box(rng, self.functions[k].domain))

    def describe_unit(self, unit):
        k, box = unit
        return self.functions[k].name, [(d.lo, d.hi) for d in box]

    def run_unit(self, unit):
        k, box = unit
        cl = self.codelists[k]
        original = bounds.eval_original(cl, box).eigen
        improved = bounds.eval_improved(cl, box).eigen
        gersh = reference.gershgorin_bounds(reference.interval_hessian(cl, box))
        return original, improved, gersh

    def engine_pair(self, unit):
        k, box = unit
        cl = self.codelists[k]
        return bounds.eval_original(cl, box).eigen, bounds.eval_improved(cl, box).eigen

    def gate(self, unit, output, rng):
        k, box = unit
        original, improved, gersh = output
        bad = spectrum_violations(self.codelists[k], box, {
            "original": original, "improved": improved, "gershgorin": gersh}, rng)
        return bad + nesting_violations(original, improved)


# -- compare_corpus --------------------------------------------------------

class CompareCorpus(Workload):
    """run_compare on a fixed corpus of small functions, one entry per call."""

    name = "compare_corpus"
    N_CAP = 7
    N_CAP_WHY = ("vertex enumeration solves 2^(n-1) eigenproblems per bound side in "
                 "pure Python: about 0.6 s per box at n = 8 and 4.3 s at n = 10")
    # 5 appears twice so that no latency class edge sits at p50
    SIZES = (2, 3, 4, 5, 5, 6, 7)
    CORPUS_SIZE = 210
    tail_pct = 90.0
    prefix = 70
    gate_units = 7

    def setup(self) -> None:
        # the corpus is the same on every run, so the cost mix does not vary
        # with the seed; the seed picks the box run_compare samples per call
        rng = random.Random("perfbench/compare_corpus")
        self.corpus = []
        for e in range(self.CORPUS_SIZE):
            n = self.SIZES[e % len(self.SIZES)]
            fn = inputs.stream_function(rng, f"corpus{e}", n, e // len(self.SIZES))
            self.corpus.append((fn, harness.CorpusEntry(
                name=fn.name, n=n, domain=Box.from_bounds(fn.domain), source=fn.text)))

    def make_unit(self, index: int):
        fn, entry = self.corpus[index % len(self.corpus)]
        return fn, entry, inputs.unit_rng(self.name, self.seed, index).randrange(1 << 30)

    def describe_unit(self, unit):
        fn, _, box_seed = unit
        return fn, box_seed

    def run_unit(self, unit):
        _, entry, box_seed = unit
        return harness.run_compare([entry], boxes_per_function=1, seed=box_seed)

    def unit_error(self, output):
        if output.skips:
            return output.skips[0].reason.split(":", 1)[0]
        return None

    def same(self, a, b):
        return a.records == b.records and a.skips == b.skips

    def engine_pair(self, unit):
        _, entry, _ = unit
        cl = expressions.compile_expression(entry.source, entry.n)
        return (bounds.eval_original(cl, entry.domain).eigen,
                bounds.eval_improved(cl, entry.domain).eigen)

    def quality(self, units, outputs):
        # run_compare keeps its bounds to itself, so the engines are scored on
        # the domain of every corpus entry, outside the timed phase
        q = engine_quality([self.engine_pair(self.make_unit(i))
                            for i in range(len(self.corpus))])
        sides = good = 0
        for out in outputs:
            for rec in () if out is None else out.records:
                if rec.method == "improved":
                    sides += 2
                    good += (rec.lower_class >= 4) + (rec.upper_class >= 4)
        q["class45_share"] = good / sides if sides else 0.0
        return q

    def gate(self, unit, output, rng):
        fn, entry, _ = unit
        bad = []
        if len(output.records) != 2 or not all(
                1 <= c <= 5 for r in output.records for c in (r.lower_class, r.upper_class)):
            bad.append(f"run_compare returned {output.records}")
        cl = expressions.compile_expression(entry.source, entry.n)
        box = entry.domain
        original = bounds.eval_original(cl, box).eigen
        improved = bounds.eval_improved(cl, box).eigen
        enc = reference.interval_hessian(cl, box)
        gersh = reference.gershgorin_bounds(enc)
        vertex = reference.hertz_rohn_bounds(enc)
        bad += spectrum_violations(cl, box, {"original": original, "improved": improved,
                                             "gershgorin": gersh, "hertz_rohn": vertex}, rng)
        bad += nesting_violations(original, improved)
        return bad + vertex_violations(gersh, vertex)


WORKLOADS = {w.name: w for w in (EngineBoxes, ColdFunctions, DenseGershgorin, CompareCorpus)}


def gate_sample(name: str, seed: int, prefix: int, count: int) -> List[int]:
    return sorted(random.Random(f"gate/{name}/{seed}").sample(range(prefix), min(count, prefix)))
