"""Eigenvalue bound engines: golden values, soundness, tightening."""

import dataclasses
import itertools
import json
import math
import pickle
import random
import re
import sys
import threading
from collections import Counter
from pathlib import Path
from string import Template
from types import MappingProxyType

import numpy as np
import pytest

import hessbound.bounds
from hessbound import (
    Box,
    DomainViolation,
    Interval,
    InvalidArgument,
    InvalidInterval,
    compile_expression,
    eval_improved,
    eval_original,
    LengthMismatch,
    trace_improved,
    trace_original,
)
from hessbound.codelist import (ABSENT, AFFINE_OPS, EXACT, STAR, UNARY_RULES, WIDENED, Codelist,
                                Line, _binary_rule, _shared_rule)
from hessbound import reference
from hessbound.harness import (CorpusEntry, codelist_value, random_boxes, random_function,
                               run_compare)
from hessbound.reference import (
    SymIntervalMatrix,
    gershgorin_bounds,
    interval_hessian,
    point_hessians,
)

from helpers import fd_gradient, grid_points, sampled_eigs

UNIT_SQUARE = Box.from_bounds([(0, 1), (0, 1)])


def _engine_seed() -> list:
    """The cases of data/engine_seed.json, each box's hex bounds also as
    floats, under ``bounds``."""
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    for case in cases:
        case["bounds"] = [(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"]]
    return cases


# -- golden values --------------------------------------------------------

def test_sum_of_squares_golden():
    cl = compile_expression("x1^2 + x2^2", 2)
    assert eval_original(cl, UNIT_SQUARE).eigen == Interval(0, 4)
    assert eval_improved(cl, UNIT_SQUARE).eigen == Interval(2, 2)


def test_sum_of_squares_trace_golden():
    tr = trace_original(compile_expression("x1^2 + x2^2", 2), UNIT_SQUARE)
    assert tr[2].y == Interval(0, 1)
    assert tr[2].grad == Box([Interval(0, 2), Interval(0, 0)])
    assert tr[2].lam == Interval(0, 2)
    assert tr[4].y == Interval(0, 2)
    assert tr[4].grad == Box([Interval(0, 2), Interval(0, 2)])
    assert tr[4].lam == Interval(0, 4)


def test_mixed_exponential_golden():
    cl = compile_expression("x1^2 + x2*exp(x2)", 2)
    orig = eval_original(cl, UNIT_SQUARE).eigen
    impr = eval_improved(cl, UNIT_SQUARE).eigen
    e = math.e
    assert math.isclose(orig.lo, 1 - e, rel_tol=1e-12)
    assert math.isclose(orig.hi, 3 * e + 2, rel_tol=1e-12)
    assert math.isclose(impr.lo, 2.0, rel_tol=1e-12)
    assert math.isclose(impr.hi, 3 * e, rel_tol=1e-12)
    assert orig.contains(0.0)
    assert not impr.contains(0.0)


def test_bilinear_golden():
    cl = compile_expression("x1*x2", 2)
    assert eval_original(cl, UNIT_SQUARE).eigen == Interval(-1, 1)
    assert eval_improved(cl, UNIT_SQUARE).eigen == Interval(-1, 1)


def test_univariate_square_is_exact():
    cl = compile_expression("x1^2", 1)
    box = Box.from_bounds([(0, 1)])
    assert eval_original(cl, box).eigen == Interval(2, 2)
    assert eval_improved(cl, box).eigen == Interval(2, 2)


def test_value_and_gradient_golden():
    cl = compile_expression("x1^2 + x2*exp(x2)", 2)
    res = eval_improved(cl, UNIT_SQUARE)
    assert res.value == Interval(0.0, 1.0 + math.e)
    assert res.gradient[0] == Interval(0, 2)
    assert math.isclose(res.gradient[1].lo, 1.0)
    assert math.isclose(res.gradient[1].hi, 2 * math.e)


@pytest.mark.parametrize("source,block,lam,eigen", [
    ("x1^2 + x2^2 + x3^2", (1, 2, 3), (2, 2), (2, 2)),  # the whole block: its bounds
    ("2*x1 + x3 + 1", (), (0, 0), (0, 0)),  # an empty block: 0
    ("(x2 + 1)^2", (2,), (2, 2), (0, 2)),  # a smaller block: its bounds widened to 0
], ids=["whole", "empty", "widened"])
def test_the_improved_bound_is_lifted_from_the_last_block(source, block, lam, eigen):
    cl = compile_expression(source, 3)
    box = Box.from_bounds([(0, 1)] * 3)
    assert cl.blocks[-1] == block
    assert trace_improved(cl, box)[-1].lam == Interval(*lam)
    assert eval_improved(cl, box).eigen == Interval(*eigen)


# -- error reporting ------------------------------------------------------

def test_domain_violation_carries_line_number():
    cl = compile_expression("ln(x1) + x2", 2)
    with pytest.raises(DomainViolation) as exc:
        eval_original(cl, Box.from_bounds([(-1, 1), (0, 1)]))
    assert exc.value.line is not None


@pytest.mark.parametrize("source,n,lo,hi,message", [
    # finite values, gradient entries past the float range: a scaled entry
    # (a point factor and an interval factor) and a summed one, each named by
    # the line of the value pass that finds it
    ("(1e160*x1)^2", 1, 1e-10, 2e-10, "non-finite endpoints [inf, inf] at codelist line 3"),
    ("1e300*(1e10*x1)", 1, 1e-10, 2e-10, "non-finite endpoints [inf, inf] at codelist line 3"),
    ("1e308*x1 + 1e308*x1", 1, 1e-10, 2e-10,
     "non-finite endpoints [inf, inf] at codelist line 4"),
    # finite gradients whose λ_t / λ* bound overflows
    ("exp(x1)*(1e200*x2) + (1e200*x1)*exp(x2)", 2, 1e-200, 2e-200,
     "non-finite endpoints [-inf, inf] at codelist line 5"),
])
@pytest.mark.parametrize("engine", [eval_original, eval_improved])
def test_gradient_overflow_with_a_finite_value_is_invalid(engine, source, n, lo, hi, message):
    cl = compile_expression(source, n)
    box = Box.from_bounds([(lo, hi)] * n)
    assert codelist_value(cl, box.midpoint()) < 1e301
    with pytest.raises(InvalidInterval) as info:
        engine(cl, box)
    assert str(info.value) == message


def test_dimension_mismatch():
    cl = compile_expression("x1 + x2", 2)
    with pytest.raises(ValueError):
        eval_original(cl, Box.from_bounds([(0, 1)]))


@pytest.mark.parametrize("apply", [
    lambda cl: eval_original(cl, Box.from_bounds([(0, 1)])),
    lambda cl: eval_improved(cl, Box.from_bounds([(0, 1)] * 3)),
    lambda cl: interval_hessian(cl, Box.from_bounds([(0, 1)])),
    lambda cl: point_hessians(cl, np.zeros((4, 3))),
], ids=["eval_original", "eval_improved", "interval_hessian", "point_hessians"])
def test_dimension_mismatch_is_a_length_mismatch(apply):
    with pytest.raises(LengthMismatch, match="variable count 2"):
        apply(compile_expression("x1*x2", 2))


@pytest.mark.parametrize("apply", [
    lambda cl: eval_original(cl, UNIT_SQUARE),
    lambda cl: eval_improved(cl, UNIT_SQUARE),
    lambda cl: trace_original(cl, UNIT_SQUARE),
    lambda cl: trace_improved(cl, UNIT_SQUARE),
    lambda cl: interval_hessian(cl, UNIT_SQUARE),
    lambda cl: point_hessians(cl, np.zeros((1, 2))),
], ids=["eval_original", "eval_improved", "trace_original", "trace_improved", "interval_hessian",
        "point_hessians"])
@pytest.mark.parametrize("cl", [None, "x1"], ids=["None", "str"])
def test_a_codelist_that_is_not_a_codelist_is_an_invalid_argument(apply, cl):
    # each leaked an AttributeError: no '__dict__' (the walk), no 'n' (point_hessians)
    with pytest.raises(InvalidArgument) as info:
        apply(cl)
    assert str(info.value) == f"expected a Codelist, got {type(cl).__name__}"


# -- randomized cross-method properties -----------------------------------

def _random_cases(count, n_range=(2, 6), seed0=100):
    cases = []
    s = seed0
    while len(cases) < count:
        s += 1
        n = 2 + s % (n_range[1] - n_range[0] + 1)
        entry = random_function(n, seed=s)
        cl = entry.compile()
        for box in random_boxes(entry.domain, 2, seed=s):
            cases.append((entry, cl, box))
    return cases[:count]


CASES = _random_cases(60)


@pytest.mark.parametrize("idx", range(len(CASES)))
def test_improved_is_subset_of_original(idx):
    entry, cl, box = CASES[idx]
    orig = eval_original(cl, box).eigen
    impr = eval_improved(cl, box).eigen
    assert orig.encloses(impr, slack=1e-12), (entry.source, orig, impr)


@pytest.mark.parametrize("idx", range(0, len(CASES), 3))
def test_bounds_contain_sampled_hessian_eigenvalues(idx):
    entry, cl, box = CASES[idx]
    if entry.n > 4:
        return
    eigs = sampled_eigs(cl, box, per_dim=4)
    slack = 1e-7 * (1 + np.abs(eigs).max())
    for res in (eval_original(cl, box), eval_improved(cl, box)):
        assert res.eigen.lo - slack <= eigs.min(), (entry.source, res)
        assert eigs.max() <= res.eigen.hi + slack, (entry.source, res)



def test_every_product_rule_is_sound_on_the_engine_fixture():
    # random_function fires 3 of the 17 product rules; the recorded fixture
    # fires all of them (criteria 4 and 5 on every rule)
    cases = _engine_seed()
    fired = set()
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        box = Box.from_bounds(case["bounds"])
        fired |= {(r.i, r.j, r.combine) for r in cl.rules if r is not None and r.op == "mul"}
        eigs = sampled_eigs(cl, box, per_dim=5 if case["n"] <= 4 else 3)
        slack = 1e-7 * (1 + np.abs(eigs).max())
        orig, impr = eval_original(cl, box).eigen, eval_improved(cl, box).eigen
        gersh = gershgorin_bounds(interval_hessian(cl, box))
        for lam in (orig, impr, gersh):
            assert lam.lo - slack <= eigs.min() and eigs.max() <= lam.hi + slack, \
                (case["source"], lam)
        assert orig.encloses(impr, slack=1e-12), (case["source"], orig, impr)
    assert len(fired) == 17

@pytest.mark.parametrize("idx", range(0, len(CASES), 5))
def test_value_and_gradient_enclose_sampled_truth(idx):
    entry, cl, box = CASES[idx]
    rng = random.Random(idx)
    for _ in range(5):
        x = [rng.uniform(d.lo, d.hi) for d in box]
        val = codelist_value(cl, x)
        res = eval_original(cl, box)
        assert res.value.contains(val, slack=1e-9 * (1 + abs(val)))
        g = fd_gradient(cl, x)
        for gi, comp in zip(g, res.gradient):
            assert comp.contains(gi, slack=1e-4 * (1 + abs(gi))), (entry.source, x)


def test_original_bilinear_bound_always_contains_zero():
    # with at least two variables, a product line forces 0 into the bound
    for s in range(30):
        entry = random_function(2 + s % 3, seed=5000 + s, require_mul=True)
        cl = entry.compile()
        lam = eval_original(cl, entry.domain).eigen
        assert lam.contains(0.0), entry.source


def test_improved_can_exclude_zero():
    cl = compile_expression("x1^2 + x2^2 + x1*x2", 2)
    lam = eval_improved(cl, Box.from_bounds([(0, 1), (0, 1)]))
    assert lam.eigen.lo >= 1.0 - 1e-12  # eigenvalues are exactly {1, 3}


def test_op_count_positive_and_larger_for_original():
    cl = compile_expression("x1^2 + x2^2 + x3^2 + x4^2", 4)
    box = Box.from_bounds([(0, 1)] * 4)
    orig = eval_original(cl, box)
    impr = eval_improved(cl, box)
    assert orig.op_count > 0 and impr.op_count > 0
    assert impr.op_count <= orig.op_count


@pytest.mark.parametrize("source,small,n", [
    ("1e200*x1 + 1", "2*x1 + 1", 1),
    ("1e200*(x1 + x2) + 1", "2*(x1 + x2) + 1", 2),
    ("3*(1e200*(x1 + x2))", "3*(2*(x1 + x2))", 2),
])
def test_original_affine_line_over_a_huge_gradient(source, small, n):
    # an affine line takes its operand's curvature bound, scaled; it needs no
    # λ_s, whose square of the 1e200 gradient would overflow
    box = Box.from_bounds([(1, 2)] * n)
    cl = compile_expression(source, n)
    res = eval_original(cl, box)
    assert res.eigen == Interval(0.0, 0.0) == eval_improved(cl, box).eigen
    # the block cost of the λ_s an affine line no longer calls is still charged
    assert res.op_count == eval_original(compile_expression(small, n), box).op_count


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
def test_sum_of_squares_op_counts_closed_form(n):
    # the paper's sparsity gain in closed form: n^2 + 11n - 2 operations for
    # the original method, 10n - 1 for the improved one, on any box
    cl = compile_expression(" + ".join(f"x{i}^2" for i in range(1, n + 1)), n)
    box = Box.from_bounds([(-1, 2)] * n)
    assert eval_original(cl, box).op_count == n * n + 11 * n - 2
    assert eval_improved(cl, box).op_count == 10 * n - 1


def test_improved_sum_cost_scales_linearly():
    counts = {}
    for n in (8, 16, 32):
        src = " + ".join(f"x{i}^2" for i in range(1, n + 1))
        cl = compile_expression(src, n)
        box = Box.from_bounds([(0, 1)] * n)
        counts[n] = eval_improved(cl, box).op_count
    assert counts[16] / counts[8] < 2.5
    assert counts[32] / counts[16] < 2.5


def test_trace_improved_reduced_sets_golden():
    cl = compile_expression("x1^2 + x2*exp(x2)", 2)
    tr = trace_improved(cl, UNIT_SQUARE)
    # the exp and mul lines act on x2 only: tight scalar bounds, no widening
    assert cl.linear[3] == frozenset({1})
    assert cl.linear[4] == frozenset({1})
    assert cl.linear[5] == frozenset()
    e = math.e
    assert math.isclose(tr[4].lam.lo, 2.0)  # d2/dx2^2 of x2*exp(x2) at 0
    assert math.isclose(tr[4].lam.hi, 3 * e)


def test_engines_match_recorded_results():
    # 200 (function, box) pairs recorded as float.hex by the earlier engines,
    # which padded every gradient to n components before each λ operator.
    # 100 are random_function entries; 92 come from a generator that reuses
    # variables and 8 are hand-written, so every product and sum rule of the
    # sparsity-aware engine runs.  Hex strings also compare the sign of zero.
    cases = _engine_seed()
    assert len(cases) == 200

    def hexes(x):
        return [x.lo.hex(), x.hi.hex()]

    for case in cases:
        box = Box.from_bounds(case["bounds"])
        cl = compile_expression(case["source"], case["n"])
        for method, engine in (("original", eval_original), ("improved", eval_improved)):
            res = engine(cl, box)
            got = {"value": hexes(res.value), "gradient": [hexes(g) for g in res.gradient],
                   "eigen": hexes(res.eigen), "op_count": res.op_count}
            assert got == case[method], (method, case["source"])


# -- both engines on one box ----------------------------------------------

def test_an_earlier_lambda_error_wins_over_a_later_value_error():
    # line 5's λ_t overflows; line 7 takes ln of a negative interval, so a
    # split that raised value errors as it met them would report line 7
    cl = compile_expression("(1e160*x1)*(1e160*x2) + ln(x1 - 1)", 2)
    box = Box.from_bounds([(1e-200, 2e-200)] * 2)
    for engines in ((eval_original, eval_improved), (eval_improved, eval_original)):
        for engine in engines:
            with pytest.raises(InvalidInterval) as info:
                engine(cl, box)
            assert str(info.value) == "non-finite endpoints [-inf, inf] at codelist line 5"
            assert info.value.line == 5


def test_sqrt_curvature_that_overflows_is_an_invalid_interval():
    # sqrt is smooth on the box, but y = sqrt(x1) reaches 1e-150, whose cube
    # underflows to 0, so r'' = -1/(4y^3) overflows: no route may call that a
    # domain violation
    cl = compile_expression("sqrt(x1) + x2", 2)
    bounds = [(1e-300, 1.0), (0.0, 1.0)]
    for route in (eval_original, eval_improved, interval_hessian):
        for box in [Box.from_bounds(bounds)] * 2:  # afresh, then on the kept value pass
            with pytest.raises(InvalidInterval):
                route(cl, box)


def test_a_domain_violation_of_the_lambda_pass_carries_its_line(monkeypatch):
    # the values are defined; exp's λ rule is made to reject its operand
    def lam(yi, yk, line, ls, lam):
        raise DomainViolation("exp", yi)

    monkeypatch.setitem(UNARY_RULES, "exp", dataclasses.replace(UNARY_RULES["exp"], lam=lam))
    cl = compile_expression("x1 + exp(x1*x2)", 2)
    line = next(k for k, ln in enumerate(cl.lines, start=1) if ln.op == "exp")
    box = Box.from_bounds([(0.5, 1.0), (0.0, 1.0)])
    for engine in (eval_original, eval_improved):
        for _ in range(2):  # afresh, then on the kept value pass
            with pytest.raises(DomainViolation) as info:
                engine(cl, box)
            assert (info.value.kind, info.value.line) == ("exp", line)


def _hexes(x):
    return x.lo.hex(), x.hi.hex()


def _outcome(apply, cl, box):
    """Everything ``apply(cl, box)`` gives, floats as hex: the result or the error."""
    try:
        res = apply(cl, box)
    except Exception as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    if isinstance(res, SymIntervalMatrix):
        return [v.hex() for v in res.lo.ravel()], [v.hex() for v in res.hi.ravel()]
    if isinstance(res, list):  # a trace
        return [(_hexes(s.y), [_hexes(g) for g in s.grad], _hexes(s.lam)) for s in res]
    return (_hexes(res.value), [_hexes(g) for g in res.gradient], _hexes(res.eigen),
            res.method, res.op_count)


# (source, n, box, outcome of eval_original, of eval_improved): overflow and
# domain errors raised from (lo, hi) pairs name their operands as intervals,
# with the text of the interval operators; one that the value pass finds also
# names its line
_POW_OVERFLOW = ("InvalidInterval", "pow overflow on [1, 5.22147e+173]^2 at codelist line 3", 3)
_RECIP = ("DomainViolation", "recip undefined on [-1, 1] at codelist line 2", 2)
ERROR_CASES = [
    # only the improved engine takes the 2x2 rule; the original one's λ_t overflows
    ("exp(exp(x1))*exp(x2)", 2, [(4, 5.5), (100, 105)],
     ("InvalidInterval", "non-finite endpoints [-inf, inf] at codelist line 6", 6),
     ("InvalidInterval", "lambda_star overflow on [4.20109e+70, 4.44925e+156], "
      "[1.38396e+67, 7.40076e+151], [7.55616e+68, 1.81091e+154] at codelist line 6", 6)),
    ("exp(x1)^2", 1, [(0, 400)], _POW_OVERFLOW, _POW_OVERFLOW),
    ("1/x1 + exp(x1)", 1, [(-1, 1)], _RECIP, _RECIP),
]


@pytest.mark.parametrize("source,n,bounds,original,improved", ERROR_CASES,
                         ids=[c[0] for c in ERROR_CASES])
def test_error_texts_are_those_of_the_interval_operators(source, n, bounds, original, improved):
    cl = compile_expression(source, n)
    for engine, other, want in ((eval_original, eval_improved, original),
                                (eval_improved, eval_original, improved)):
        assert _outcome(engine, cl, Box.from_bounds(bounds)) == want, engine.__name__
        box = Box.from_bounds(bounds)
        _outcome(other, cl, box)
        assert _outcome(engine, cl, box) == want, engine.__name__  # on the kept value pass
        if want[0] == "DomainViolation":
            with pytest.raises(DomainViolation) as info:
                engine(cl, box)
            assert type(info.value.interval) is Interval


def test_an_overflow_of_the_lambda_pass_names_its_line():
    # the values and gradients fit a double; line 5's λ_t (and λ*) overflows
    cl = compile_expression("(1e100*x1)*(1e100*x2)", 2)
    want = ("InvalidInterval", "non-finite endpoints [-inf, inf] at codelist line 5", 5)
    for route in (eval_original, eval_improved, trace_original, trace_improved):
        assert _outcome(route, cl, Box.from_bounds([(0, 1)] * 2)) == want, route.__name__
    for pair in ((eval_original, eval_improved), (trace_original, trace_improved)):
        for first, then in (pair, pair[::-1]):
            box = Box.from_bounds([(0, 1)] * 2)
            assert _outcome(first, cl, box) == want
            assert _outcome(then, cl, box) == want, (first.__name__, then.__name__)


ROUTES = (eval_original, eval_improved, trace_original, trace_improved, interval_hessian)


@pytest.mark.parametrize("route", ROUTES, ids=[r.__name__ for r in ROUTES])
def test_every_route_takes_intervals_in_any_sequence(route):
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    dims = [Interval(0.0, 1.0), Interval(-1.0, 2.0)]
    want = _outcome(route, cl, Box(dims))
    assert _outcome(route, cl, dims) == want
    assert _outcome(route, cl, tuple(dims)) == want
    # float pairs and a number are not boxes of intervals
    for bad in ([(0.0, 1.0), (-1.0, 2.0)], 5):
        with pytest.raises(InvalidInterval):
            route(cl, bad)


def test_an_engine_after_another_on_the_same_box_equals_it_on_a_fresh_box():
    # interval_hessian is a rule on the same walk, so it takes part too
    cases = _engine_seed()
    failures = 0
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        for bounds in (case["bounds"], [(-1.0, 1.0)] * case["n"]):  # the second leaves most domains
            for first in (eval_original, eval_improved, interval_hessian):
                for then in (eval_original, eval_improved, trace_original, trace_improved,
                             interval_hessian):
                    if then is first:
                        continue
                    want = _outcome(then, cl, Box.from_bounds(bounds))
                    box = Box.from_bounds(bounds)
                    before = _outcome(first, cl, box)
                    assert _outcome(then, cl, box) == want, (case["source"], bounds)
                    assert _outcome(first, cl, box) == before, (case["source"], bounds)
                    failures += isinstance(want[0], str)
    assert failures > 0  # the deferred failure path ran


# (source, n, box, eigen bound or error of eval_original, of eval_improved),
# recorded as float.hex before the engines shared their λ_s / λ_t terms
_ZERO_HEX = ("0x0.0p+0", "0x0.0p+0")
SHARING_CASES = [
    # one-variable blocks (x1^2, exp(x1) and their product): λ_s and λ_t per engine
    ("x1^2*exp(x1) + x2*x3", 3, [(0.5, 1.0), (0.0, 1.0), (1.0, 2.0)],
     ("-0x1.326c0278cd5c2p+2", "0x1.4072939b1cc7cp+4"),
     ("-0x1.0000000000000p+0", "0x1.3072939b1cc7cp+4")),
    # blocks of 2 and 3 variables out of 4: shared, the original engine adds +0.0
    ("exp(x1 + x2)*(x2 + x3) + x4", 4, [(0.0, 0.5), (-1.0, 1.0), (1.0, 2.0), (0.0, 1.0)],
     ("-0x1.130e5349e5dc7p+3", "0x1.42ae7e319bdeap+5"),
     ("-0x1.130e5349e5dc7p+3", "0x1.42ae7e319bdeap+5")),
    # β = 0: every gradient entry of (x1 - 1)^2 is [0, 0]
    ("(x1 - 1)^2*x2", 2, [(1.0, 1.0), (-2.0, -0.5)],
     ("-0x1.0000000000000p+2", "0x0.0p+0"), ("-0x1.0000000000000p+2", "0x0.0p+0")),
    # β = 0 on a block smaller than n: the +0.0 alone makes the original's lower end +0.0
    ("(x1 - 1)^2*(-(x1 - 1)*(x2 - 1))", 3, [(1.0, 1.0), (1.0, 1.0), (0.0, 1.0)],
     _ZERO_HEX, ("-0x0.0p+0", "0x0.0p+0")),
    # β = 0 with entries outside the shared support: their signed zeros decide the sign
    ("(x1 - 1)*(x2 - 1)*(1 - x1)", 3, [(1.0, 1.0), (1.0, 1.0), (-1.0, 1.0)],
     _ZERO_HEX, _ZERO_HEX),
    # λ_t overflows: a shared pair product, then β alone
    ("(1e160*x1)*(1e160*x1 + x2) + x3", 3, [(1e-100, 2e-100), (1.0, 2.0), (0.0, 1.0)],
     ("InvalidInterval", "non-finite endpoints [inf, inf] at codelist line 7"),
     ("InvalidInterval", "non-finite endpoints [inf, inf] at codelist line 7")),
    ("(1e100*x1 + 1e100*x2)*(1e100*x2 + 1e100*x3) + x4", 4, [(1.0, 2.0)] * 3 + [(0.0, 1.0)],
     ("InvalidInterval", "non-finite endpoints [-inf, inf] at codelist line 11"),
     ("InvalidInterval", "non-finite endpoints [-inf, inf] at codelist line 11")),
]


@pytest.mark.parametrize("source,n,bounds,original,improved", SHARING_CASES,
                         ids=[c[0] for c in SHARING_CASES])
def test_shared_lambda_terms_give_each_engine_its_fresh_box_bits(source, n, bounds, original,
                                                                 improved):
    cl = compile_expression(source, n)
    routes = (eval_original, eval_improved, trace_original, trace_improved)
    fresh = {route: _outcome(route, cl, Box.from_bounds(bounds)) for route in routes}
    for route, want in ((eval_original, original), (eval_improved, improved)):
        got = fresh[route]  # a result's eigen bound, or the error's type and text
        assert (got[2] if len(got) == 5 else got[:2]) == want, route.__name__
    for pair in ((eval_original, eval_improved), (trace_original, trace_improved)):
        for first, then in (pair, pair[::-1]):
            box = Box.from_bounds(bounds)
            assert _outcome(first, cl, box) == fresh[first]
            assert _outcome(then, cl, box) == fresh[then], (first.__name__, then.__name__)


def test_an_equal_box_with_other_zero_signs_is_evaluated_afresh():
    # the two boxes are ==, but the sign of the zero endpoints reaches the results
    cl = compile_expression("x1*x2 + x1", 2)
    signed, unsigned = (Box.from_bounds([(zero, 1.0)] * 2) for zero in (-0.0, 0.0))
    assert signed == unsigned
    want = _outcome(eval_improved, cl, Box.from_bounds([(0.0, 1.0)] * 2))
    assert _outcome(eval_improved, cl, signed) != want
    eval_original(cl, signed)
    assert _outcome(eval_improved, cl, unsigned) == want


def test_threads_alternating_boxes_on_one_codelist_get_fresh_box_results():
    entry = random_function(4, seed=11, require_mul=True)
    cl = entry.compile()
    boxes = random_boxes(entry.domain, 6, seed=3)
    routes = (eval_original, eval_improved, interval_hessian)
    want = [[_outcome(route, cl, Box.from_bounds([(d.lo, d.hi) for d in box]))
             for route in routes] for box in boxes]
    wrong = []

    def work(offset):
        for step in range(600):
            b = (offset + step) % len(boxes)
            if [_outcome(route, cl, boxes[b]) for route in routes] != want[b]:
                wrong.append(b)

    # more threads than cores, switching as often as the interpreter allows;
    # two pairs of threads walk the boxes in step, so they often ask about one box at once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 0, 1, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


# -- the compiled tier: the fixture-driven cases again, with every codelist's
# passes compiled from its first walk on ----------------------------------

@pytest.fixture
def compiled(monkeypatch):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", 0)


def test_compiled_engines_match_recorded_results(compiled):
    test_engines_match_recorded_results()


def test_compiled_routes_equal_on_the_engine_fixture_and_on_the_unit_box(compiled):
    test_an_engine_after_another_on_the_same_box_equals_it_on_a_fresh_box()


def test_compiled_every_product_rule_is_sound_on_the_engine_fixture(compiled):
    test_every_product_rule_is_sound_on_the_engine_fixture()


@pytest.mark.parametrize("source,n,bounds,original,improved", ERROR_CASES,
                         ids=[c[0] for c in ERROR_CASES])
def test_compiled_error_texts_are_those_of_the_interval_operators(compiled, source, n, bounds,
                                                                  original, improved):
    test_error_texts_are_those_of_the_interval_operators(source, n, bounds, original, improved)


@pytest.mark.parametrize("source,n,bounds,original,improved", SHARING_CASES,
                         ids=[c[0] for c in SHARING_CASES])
def test_compiled_shared_lambda_terms_give_each_engine_its_fresh_box_bits(
        compiled, source, n, bounds, original, improved):
    test_shared_lambda_terms_give_each_engine_its_fresh_box_bits(source, n, bounds, original,
                                                                 improved)


_PASSES = ("_value_passes", "_values", "_lam_original", "_lam_improved")


def test_a_pickled_codelist_drops_its_compiled_passes_and_its_counter(compiled):
    cl = compile_expression("x1*x2 + exp(x1)*x3", 3)
    box = Box.from_bounds([(0, 1), (1, 2), (-1, 1)])
    want = [_outcome(route, cl, box) for route in (eval_original, eval_improved)]
    assert all(name in cl.__dict__ for name in _PASSES)
    again = pickle.loads(pickle.dumps(cl))
    assert again == cl and not any(name in again.__dict__ for name in _PASSES)
    assert [_outcome(route, again, box) for route in (eval_original, eval_improved)] == want


def test_a_pickled_codelist_drops_its_compiled_hessian_pass(compiled):
    cl = compile_expression("x1*x2 + exp(x1)*x3", 3)
    box = Box.from_bounds([(0, 1), (1, 2), (-1, 1)])
    routes = (eval_original, eval_improved, interval_hessian)
    want = [_outcome(route, cl, box) for route in routes]
    assert all(name in vars(cl) for name in (*_PASSES, "_hessian"))
    again = pickle.loads(pickle.dumps(cl))
    assert again == cl and not any(name in vars(again) for name in (*_PASSES, "_hessian"))
    assert [_outcome(route, again, box) for route in routes] == want


_LINEAR_FORMS = "exp(0.1*(x1+x2+x3+x4))*ln(x3+x4+x5+x6) + (x1+x2)*(x5+x6) + sqrt(x2+x3)"


def _linear_forms_boxes(count: int) -> list:
    """``count`` seeded boxes for _LINEAR_FORMS, inside its domain."""
    rng = random.Random(39)
    return [[(a, a + rng.uniform(0.01, 1.0)) for a in (rng.uniform(0.1, 2.0) for _ in range(6))]
            for _ in range(count)]


def test_every_route_is_the_same_in_both_tiers_on_the_engine_fixture_and_on_linear_forms(
        monkeypatch):
    # each codelist is walked on all its boxes, so a compiled pass runs on
    # boxes other than the one whose walk bound its constants; _LINEAR_FORMS
    # is mostly affine lines, whose terms are those constants
    inputs = [(case["source"], case["n"], bounds) for case in _engine_seed()
              for bounds in (case["bounds"], [(-1.0, 1.0)] * case["n"])]
    inputs += [(_LINEAR_FORMS, 6, bounds) for bounds in _linear_forms_boxes(60)]
    routes = (eval_original, eval_improved, interval_hessian)
    tiers = []
    for after in (10**9, 0):
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        codelists = {}
        # hex of the value, the gradient and both engines' bounds; the Hessian's endpoints
        tiers.append([[_outcome(route, codelists.setdefault(source, compile_expression(source, n)),
                                Box.from_bounds(bounds)) for route in routes]
                      for source, n, bounds in inputs])
        assert ("_hessian" in vars(codelists[_LINEAR_FORMS])) == (after == 0)
    assert tiers[0] == tiers[1]
    assert any(isinstance(got[0], str) for bits in tiers[0] for got in bits)  # errors too
    assert not any(isinstance(got[0], str) for bits in tiers[0][-60:] for got in bits)


def test_one_codelist_gives_the_same_results_before_and_after_it_crosses_the_switch(monkeypatch):
    case = _engine_seed()[-1]
    cl = compile_expression(case["source"], case["n"])
    boxes = [case["bounds"], [(-1.0, 1.0)] * case["n"], [(0.5, 2.0)] * case["n"],
             [(-2.0, -0.5)] * case["n"]]

    def outcomes():
        return [_outcome(route, cl, Box.from_bounds(bounds)) for bounds in boxes
                for route in (eval_original, eval_improved, trace_original, trace_improved,
                              interval_hessian)]

    # one value pass per route and box: 20, all interpreted, then 20 compiled
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", 20)
    before = outcomes()
    assert "_values" not in cl.__dict__
    assert outcomes() == before
    assert all(name in cl.__dict__ for name in _PASSES[1:])


def test_a_wrapped_lambda_kernel_counts_the_same_calls_in_both_tiers(monkeypatch):
    cases = _engine_seed()
    calls = Counter()

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in ("lambda_s", "lambda_t", "lambda_star"):
        monkeypatch.setattr(hessbound.bounds, name,
                            counted(name, getattr(hessbound.bounds, name)))
    counts = []
    for after in (10**9, 0):
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        calls.clear()
        for case in cases:
            cl = compile_expression(case["source"], case["n"])
            box = Box.from_bounds(case["bounds"])
            for route in (eval_original, eval_improved, trace_improved, trace_original):
                route(cl, box)
            assert ("_lam_original" in cl.__dict__) == (after == 0)
        counts.append(dict(calls))
    assert counts[0] == counts[1] and set(counts[0]) == {"lambda_s", "lambda_t", "lambda_star"}


@pytest.mark.parametrize("after", [10**9, 0], ids=["interpreted", "compiled"])
def test_a_unary_row_replaced_after_both_engines_walked_its_op_is_called_on_the_next_walk(
        monkeypatch, after):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
    source, bounds = "x1 + exp(x1*x2)", [(0.5, 1.0), (0.0, 1.0)]
    cl = compile_expression(source, 2)
    routes = (eval_original, eval_improved)
    box = Box.from_bounds(bounds)
    want = [_outcome(route, cl, box) for route in routes]
    calls = Counter()

    def counted(name, rule):
        def wrapper(*args):
            calls[name] += 1
            return rule(*args)
        return wrapper

    row = UNARY_RULES["exp"]
    monkeypatch.setitem(UNARY_RULES, "exp", dataclasses.replace(
        row, **{name: counted(name, getattr(row, name)) for name in ("value", "first", "lam")}))
    # the same codelist on the interpreter; a new one in the compiled tier,
    # whose passes bind the rows when they are generated
    again = cl if after else compile_expression(source, 2)
    box = Box.from_bounds(bounds)  # a new box: the value pass runs again
    assert [_outcome(route, again, box) for route in routes] == want
    assert calls == {"value": 1, "first": 1, "lam": 2}


def _every_assignable_shape():
    """(n, line, rule): every Rule ``_binary_rule`` gives over all index sets of
    n <= 3 variables as operand supports and blocks, on an add and a mul line,
    and each term kind on each unary op."""
    out = set()
    for n in (1, 2, 3):
        full = frozenset(range(1, n + 1))
        sets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(full, r)]
        for op in ("add", "mul"):
            for si, bi, sj, bj in itertools.product(sets, repeat=4):
                bk = bi | bj if op == "add" else si | sj
                out.add((n, Line(op, 1, n), _binary_rule(op, si, bi, sj, bj, bk)))
        for op in UNARY_RULES:
            for kind in (ABSENT, EXACT, WIDENED):
                line = Line(op, 1, c=1.5 if op in AFFINE_OPS else None,
                            m=2 if op == "powNat" else None)
                out.add((n, line, _shared_rule("unary", kind)))
    return sorted(out, key=repr)


def test_the_rules_from_supports_and_blocks_are_those_of_the_complement_sets():
    # the complements I = full - S and L = full - B over the same index sets
    # gave 137 (n, line, rule) shapes and 43 distinct rules
    shapes = _every_assignable_shape()
    assert len(shapes) == 137
    assert len({rule for _, _, rule in shapes}) == 43


def _shape_functions():
    """The interpreter's function of every line shape so far, keyed ``(pass, *shape)``."""
    return {(name, *shape): function for name, (_, shapes) in hessbound.bounds._shapes.items()
            for shape, function in shapes.items()}


def test_every_shape_the_analysis_can_assign_compiles_in_both_tiers(monkeypatch):
    cases = []
    for n, line, rule in _every_assignable_shape():
        cl = Codelist(n, [Line("var")] * n + [line])
        object.__setattr__(cl, "rules", cl.rules[:-1] + (rule,))  # the shape under test
        cases.append((cl, Box.from_bounds([(0.5, 2.0)] * n)))

    def outcomes(after):
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        return [[_outcome(route, cl, Box(box)) for route in (eval_original, eval_improved)]
                for cl, box in cases]

    interpreted = outcomes(10**9)
    assert all(len(got) == 5 for case in interpreted for got in case)  # no error
    assert outcomes(0) == interpreted
    assert all(name in cl.__dict__ for cl, _ in cases for name in _PASSES)
    # one function per shape, whichever codelist or cross it came from
    before = _shape_functions()
    assert outcomes(10**9) == interpreted
    shapes = _shape_functions()
    assert shapes.keys() == before.keys() and all(shapes[key] is before[key] for key in before)
    crosses = {cl.rules[-1].cross for cl, _ in cases if cl.rules[-1].combine == STAR}
    assert len(crosses) > 1
    assert len([key for key in shapes if key[0] == "_lam_improved" and key[-1] == STAR]) <= 4


# the unary ops on an operand source, as the parser writes them
_UNARY_SOURCES = {"powNat": "({})^3", "oneOver": "1/({})", "sqrt": "sqrt({})", "exp": "exp({})",
                  "ln": "ln({})", "addC": "({}) + 1.5", "mulByC": "1.5*({})"}


def _every_hessian_shape():
    """{reference._shape: (source, n)}: every shape that the lines of an add,
    a mul or a unary line on operands over n <= 3 variables (affine, with a
    one-variable Hessian or with a larger one) reach, and the first source
    that reaches it."""
    out = {}
    for n in (1, 2, 3):
        xs = [f"x{i}" for i in range(1, n + 1)]
        pairs = list(itertools.combinations(xs, 2))
        operands = [*xs, *(f"{a}^2" for a in xs), *(f"{a}*{b}" for a, b in pairs),
                    *(f"{a} + {b}" for a, b in pairs), "*".join(xs)]
        sources = [f"({a}) {op} ({b})" for op in "+*" for a in operands for b in operands]
        sources += [form.format(a) for a in operands for form in _UNARY_SOURCES.values()]
        for source in sources:
            cl = compile_expression(source, n)
            for k, line in enumerate(cl.lines[n:], start=n + 1):
                out.setdefault(reference._shape(cl, k, line), (source, n))
    return out


def test_every_hessian_shape_compiles_in_both_tiers(monkeypatch):
    assert set(_UNARY_SOURCES) == set(UNARY_RULES)
    reached = _every_hessian_shape()
    assert {shape[0] for shape in reached} == {"add", "mul", *UNARY_RULES}
    assert {shape[3:] for shape in reached} == {(0, False), (1, False), (1, True), (2, False),
                                                (2, True)}
    cases = sorted(set(reached.values()))

    def outcomes(after):  # fresh codelists: the passes compile on their first walk when after = 0
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        codelists = [compile_expression(source, n) for source, n in cases]
        got = [[_outcome(interval_hessian, cl, Box.from_bounds([bounds] * cl.n))
                for bounds in ((0.5, 2.0), (-1.0, 1.0))] for cl in codelists]
        assert all(("_hessian" in vars(cl)) == (after == 0) for cl in codelists)
        return got

    interpreted = outcomes(10**9)
    assert not any(isinstance(inside[0], str) for inside, _ in interpreted)  # no error
    assert any(isinstance(straddling[0], str) for _, straddling in interpreted)
    assert outcomes(0) == interpreted
    # one function per shape that carries a Hessian, whichever codelist or line it came from
    before = _shape_functions()
    assert {("_hessian", *shape) for shape in reached if shape[3]} <= before.keys()
    assert outcomes(10**9) == interpreted
    shapes = _shape_functions()
    assert shapes.keys() == before.keys() and all(shapes[key] is before[key] for key in before)


def test_a_codelist_without_operation_lines_has_a_zero_hessian_in_both_tiers(monkeypatch):
    box = Box.from_bounds([(0.0, 1.0)])
    for after in (10**9, 0):
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        cl = compile_expression("x1", 1)
        assert len(cl.lines) == 1
        for engine in (eval_original, eval_improved):
            res = engine(cl, box)
            assert res.eigen == Interval(0.0, 0.0) and res.value == Interval(0.0, 1.0)
        enc = interval_hessian(cl, box)
        assert enc.lo.tolist() == [[0.0]] and enc.hi.tolist() == [[0.0]]
        assert ("_hessian" in vars(cl)) == (after == 0)


def test_a_pass_registered_in_the_pass_table_alone_runs_in_both_tiers(monkeypatch):
    # a toy pass: each line's number and its shape's block size; it drops the
    # results of the operands whose last reader it is
    monkeypatch.setitem(hessbound.bounds._PASSES, "_toy", (
        lambda cl, k, line: (len(cl.blocks[k - 1]),),
        lambda size: Template(f"$l = ($k, {size})$drop"), {}))
    box = Box.from_bounds([(0, 1), (1, 2), (-1, 1)])
    walks = []
    for after in (10**9, 0):
        monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
        cl = compile_expression("x1*x2 + exp(x1)*x3", 3)
        want = eval_improved(cl, box)
        walks.append(hessbound.bounds._walk(cl, box, "_toy"))
        assert ("_toy" in vars(cl)) == (after == 0)
        assert Interval(*walks[-1][0][-1]) == want.value
    assert walks[0] == walks[1]
    out = walks[0][2]
    assert out[-1] == (len(cl.lines), 3) and out[3] is None  # line 4 is read by line 7 only
    assert out[:3] == [(0.0, 0.0)] * 3


@pytest.mark.parametrize("after", [10**9, 0], ids=["interpreted", "compiled"])
def test_a_pass_replaced_between_two_walks_runs_as_replaced_on_the_next_walk(monkeypatch, after):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
    passes, walk = hessbound.bounds._PASSES, hessbound.bounds._walk
    bounds = [(0.5, 1.0), (2.0, 3.0)]

    def toy(result):  # a rule pass that gives every line ``result``
        return lambda cl, k, line: (), lambda: Template(f"$l = {result}"), {}

    monkeypatch.setitem(passes, "_toy", toy("_ONE"))
    walked = compile_expression("x1*x2", 2)
    want = eval_improved(walked, Box.from_bounds(bounds))
    assert walk(walked, Box.from_bounds(bounds), "_toy")[2][-1] == (1.0, 1.0)
    # a rule pass, and the value pass with each operation line's value doubled
    monkeypatch.setitem(passes, "_toy", toy("_ZERO"))
    key, template, names = passes["_values"]
    doubled = "; $y = pair_mul($y, (2.0, 2.0))"
    monkeypatch.setitem(passes, "_values", (
        key, lambda *shape: Template(template(*shape).template + doubled), names))
    for cl in (walked, compile_expression("x1*x2", 2)):  # a new box: the value pass runs again
        assert walk(cl, Box.from_bounds(bounds), "_toy")[2][-1] == (0.0, 0.0)
        res = eval_improved(cl, Box.from_bounds(bounds))
        assert res.value == Interval(2 * want.value.lo, 2 * want.value.hi)
        assert (res.gradient, res.eigen) == (want.gradient, want.eigen)
        assert all((name in vars(cl)) == (after == 0) for name in ("_values", "_toy"))


@pytest.mark.parametrize("after", [10**9, 0], ids=["interpreted", "compiled"])
def test_no_pass_writes_a_gradient_after_its_own_line(monkeypatch, after):
    # the value pass makes each operation line's gradient by _grad_add or
    # _grad_scale, or takes its operand's (r' = 1); made read-only there, a
    # later write to it raises TypeError, and the var lines' seeds are
    # checked unchanged after every pass
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
    cases = _engine_seed()
    routes = (eval_original, eval_improved, interval_hessian)

    def outcomes():
        got = []
        for case in cases:
            cl = compile_expression(case["source"], case["n"])
            for bounds in (case["bounds"], [(-1.0, 1.0)] * case["n"]):
                box = Box.from_bounds(bounds)
                got.append([_outcome(route, cl, box) for route in routes])
                seeds = hessbound.bounds._last[3][:cl.n]  # the gradients the three walks shared
                assert seeds == [{k: (1.0, 1.0)} for k in range(1, cl.n + 1)]
        return got

    want = outcomes()
    for name in ("_grad_add", "_grad_scale"):
        helper = getattr(hessbound.bounds, name)
        monkeypatch.setattr(hessbound.bounds, name,
                            lambda *args, helper=helper: MappingProxyType(helper(*args)))
    assert outcomes() == want
    assert any(isinstance(got[0][0], str) for got in want)  # errors too


# -- the compiled tier's constants: what does not depend on the box ---------

def test_a_compiled_pass_computes_no_term_of_affine_operands():
    # the gain of binding them: no gradient helper on an affine line (an empty
    # block), no gradient factor of affine operands in the Hessian
    bound = 0
    inputs = [(_LINEAR_FORMS, 6, _linear_forms_boxes(1)[0]),
              *((case["source"], case["n"], case["bounds"]) for case in _engine_seed())]
    for source, n, bounds in inputs:
        cl = compile_expression(source, n)
        *lists, failure = hessbound.bounds._values(cl, Box.from_bounds(bounds))
        if failure is not None:
            continue
        with np.errstate(all="raise"):  # as the walk builds them
            values = hessbound.bounds._lines(cl, "_values", {}, lists)
            hessian = hessbound.bounds._lines(cl, "_hessian", {}, lists)
        for k, value, term in zip(range(n + 1, len(cl.lines) + 1), values, hessian):
            if not cl.blocks[k - 1]:
                assert "_grad_add" not in value and "_grad_scale" not in value, value
            if all(not cl.blocks[r - 1] for r in (cl.lines[k - 1].i, cl.lines[k - 1].j) if r):
                assert "_outer" not in term and "_cross" not in term, term
                bound += len(cl.blocks[k - 1]) > 1
    assert bound > 10


def _constants(compiled):
    """The names a compiled pass binds, and their values."""
    return dict(zip(compiled.__code__.co_freevars,
                    (cell.cell_contents for cell in compiled.__closure__)))


def test_a_compiled_pass_keeps_its_constants_unwritten(monkeypatch):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", 0)
    gradients = arrays = 0
    inputs = [(_LINEAR_FORMS, 6, [(0.5, 1.5)] * 6),
              *((case["source"], case["n"], case["bounds"]) for case in _engine_seed())]
    for source, n, bounds in inputs:
        cl = compile_expression(source, n)
        for box in (bounds, [(-1.0, 1.0)] * n, bounds):
            for route in (eval_original, eval_improved, interval_hessian):
                _outcome(route, cl, Box.from_bounds(box))
        if "_hessian" not in vars(cl):  # no walk succeeded
            continue
        fresh = hessbound.bounds._values(cl, Box.from_bounds(bounds))[1]
        for name, value in _constants(vars(cl)["_values"][1]).items():
            line = re.fullmatch(r"(?:g|gsum|gscaled)(\d+)", name)  # a var line's or a term's
            if line:
                assert value == fresh[int(line[1]) - 1], (source, name)
                gradients += 1
        for name, value in _constants(vars(cl)["_hessian"][1]).items():
            if name.startswith(("outer", "cross")):
                with pytest.raises(ValueError):
                    value[0, 0, 0] = 0.0
                arrays += 1
    assert gradients > 500 and arrays > 10


def test_a_replaced_value_pass_binds_its_own_constants_on_the_next_walk(monkeypatch):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", 0)
    passes, walk = hessbound.bounds._PASSES, hessbound.bounds._walk
    bounds = [(0.5, 1.0), (1.0, 2.0), (0.25, 0.5), (1.0, 1.5), (0.5, 2.0), (1.0, 3.0)]
    compiled = compile_expression(_LINEAR_FORMS, 6)
    walk(compiled, Box.from_bounds(bounds), "_lam_improved")
    assert "_values" in vars(compiled)
    key, template, names = passes["_values"]
    doubled = "; $g = _grad_scale($g, (2.0, 2.0))"  # every operation line's gradient doubled
    monkeypatch.setitem(passes, "_values", (
        key, lambda *shape: Template(template(*shape).template + doubled), names))
    want = hessbound.bounds._values(compile_expression(_LINEAR_FORMS, 6), Box.from_bounds(bounds))
    for cl in (compiled, compile_expression(_LINEAR_FORMS, 6)):
        for _ in range(2):  # the interpreted pass that builds the compiled one, then that one
            got = walk(cl, Box.from_bounds(bounds), "_lam_improved")
            assert got[:2] == want[:2]
        assert vars(cl)["_values"][0] is passes["_values"]
        constants = _constants(vars(cl)["_values"][1])
        assert constants["gsum8"] == {1: (2.0, 2.0), 2: (2.0, 2.0), 3: (1.0, 1.0)}


@pytest.mark.parametrize("after", [10**9, 0], ids=["interpreted", "compiled"])
def test_a_failure_on_every_box_is_raised_on_each_and_never_compiled(monkeypatch, after):
    # line 5 adds two gradients of 1e308: inf, whatever the box
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
    cl = compile_expression("x2*(1e308*x1 + 1e308*x1)", 2)
    for bounds in ([(0.0, 0.5), (1.0, 2.0)], [(0.1, 0.2), (-1.0, 1.0)], [(-0.5, 0.25), (0, 0)]):
        for route in (eval_original, eval_improved, interval_hessian):
            with pytest.raises(InvalidInterval) as info:
                route(cl, Box.from_bounds(bounds))
            assert str(info.value) == "non-finite endpoints [inf, inf] at codelist line 5"
            assert info.value.line == 5
    assert not any(name in vars(cl) for name in ("_values", *hessbound.bounds._PASSES))


@pytest.mark.parametrize("after", [10**9, 0], ids=["interpreted", "compiled"])
@pytest.mark.parametrize("source,line", [("(1e200*x1 + x2)*(x1 + 1e200*x2)", 7),
                                         ("exp(1e200*x1 + 1e200*x2)", 6)],
                         ids=["cross", "outer"])
def test_an_overflow_in_a_constant_hessian_factor_is_raised_naming_its_line(
        monkeypatch, after, source, line):
    # near 0 the value pass succeeds, but the Hessian factor of the affine
    # operands' gradients (1e200 * 1e200) overflows on every box
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", after)
    text = f"non-finite gradient or Hessian enclosure at codelist line {line}"
    cl = compile_expression(source, 2)
    for bounds in ([(0.0, 1e-300)] * 2, [(-1e-300, 1e-300), (0.0, 1e-301)], [(0.0, 1e-300)] * 2):
        with pytest.raises(InvalidInterval) as info:
            interval_hessian(cl, Box.from_bounds(bounds))
        assert (str(info.value), info.value.line) == (text, line)
    assert ("_hessian" in vars(cl)) == (after == 0)
    entry = CorpusEntry("f", 2, Box.from_bounds([(0.0, 1e-300)] * 2), source)
    result = run_compare([entry], boxes_per_function=3)
    assert [skip.reason for skip in result.skips] == [f"InvalidInterval: {text}"] * 3
