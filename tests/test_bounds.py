"""Eigenvalue bound engines: golden values, soundness, tightening."""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from hessbound import (
    Box,
    DomainViolation,
    Interval,
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
