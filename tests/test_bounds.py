"""Eigenvalue bound engines: golden values, soundness, tightening."""

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
from hessbound.harness import codelist_value, random_boxes, random_function
from hessbound.reference import interval_hessian, point_hessians

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
    # (a point factor and an interval factor) and a summed one
    ("(1e160*x1)^2", 1, 1e-10, 2e-10, "non-finite endpoints [inf, inf]"),
    ("1e300*(1e10*x1)", 1, 1e-10, 2e-10, "non-finite endpoints [inf, inf]"),
    ("1e308*x1 + 1e308*x1", 1, 1e-10, 2e-10, "non-finite endpoints [inf, inf]"),
    # finite gradients whose λ_t / λ* bound overflows
    ("exp(x1)*(1e200*x2) + (1e200*x1)*exp(x2)", 2, 1e-200, 2e-200,
     "non-finite endpoints [-inf, inf]"),
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
            assert str(info.value) == "non-finite endpoints [-inf, inf]"


def test_a_domain_violation_of_the_lambda_pass_carries_its_line():
    # the values are defined; sqrt's r'' cubes y = sqrt(x1), which underflows
    cl = compile_expression("sqrt(x1) + x2", 2)
    box = Box.from_bounds([(1e-300, 1.0), (0.0, 1.0)])
    for _ in range(2):  # afresh, then on the kept value pass
        with pytest.raises(DomainViolation) as info:
            eval_improved(cl, box)
        assert (info.value.kind, info.value.line) == ("recip", 3)


def _hexes(x):
    return x.lo.hex(), x.hi.hex()


def _outcome(apply, cl, box):
    """Everything ``apply(cl, box)`` gives, floats as hex: the result or the error."""
    try:
        res = apply(cl, box)
    except Exception as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    if isinstance(res, list):  # a trace
        return [(_hexes(s.y), [_hexes(g) for g in s.grad], _hexes(s.lam)) for s in res]
    return (_hexes(res.value), [_hexes(g) for g in res.gradient], _hexes(res.eigen),
            res.method, res.op_count)


def test_an_engine_after_another_on_the_same_box_equals_it_on_a_fresh_box():
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    failures = 0
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        inside = [(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"]]
        for bounds in (inside, [(-1.0, 1.0)] * case["n"]):  # the second leaves most domains
            for first in (eval_original, eval_improved):
                for then in (eval_original, eval_improved, trace_original, trace_improved):
                    if then is first:
                        continue
                    want = _outcome(then, cl, Box.from_bounds(bounds))
                    box = Box.from_bounds(bounds)
                    before = _outcome(first, cl, box)
                    assert _outcome(then, cl, box) == want, (case["source"], bounds)
                    assert _outcome(first, cl, box) == before, (case["source"], bounds)
                    failures += isinstance(want[0], str)
    assert failures > 0  # the deferred failure path ran


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
    engines = (eval_original, eval_improved)
    want = [[_outcome(engine, cl, Box.from_bounds([(d.lo, d.hi) for d in box]))
             for engine in engines] for box in boxes]
    wrong = []

    def work(offset):
        for step in range(600):
            b = (offset + step) % len(boxes)
            if [_outcome(engine, cl, boxes[b]) for engine in engines] != want[b]:
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
