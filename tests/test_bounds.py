"""Eigenvalue bound engines: golden values, soundness, tightening."""

import dataclasses
import json
import math
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hessbound import (
    Box,
    DomainViolation,
    Interval,
    InvalidInterval,
    compile_expression,
    eval_improved,
    eval_original,
    LengthMismatch,
    lift_reduced,
    trace_improved,
    trace_original,
)
from hessbound.codelist import UNARY_RULES
from hessbound.harness import codelist_value, random_boxes, random_function
from hessbound.reference import (
    SymIntervalMatrix,
    gershgorin_bounds,
    interval_hessian,
    point_hessians,
)

from helpers import fd_gradient, grid_points, sampled_eigs

UNIT_SQUARE = Box.from_bounds([(0, 1), (0, 1)])


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


# -- helper functions -----------------------------------------------------

def test_lift_reduced():
    lam = Interval(2, 5)
    assert lift_reduced(lam, frozenset(), 3) == lam
    assert lift_reduced(lam, frozenset({1, 2, 3}), 3) == Interval(0, 0)
    assert lift_reduced(lam, frozenset({2}), 3) == Interval(0, 5)


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
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    fired = set()
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        box = Box(Interval(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"])
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
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    assert len(cases) == 200

    def hexes(x):
        return [x.lo.hex(), x.hi.hex()]

    for case in cases:
        box = Box(Interval(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"])
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
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    failures = 0
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        inside = [(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"]]
        for bounds in (inside, [(-1.0, 1.0)] * case["n"]):  # the second leaves most domains
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
