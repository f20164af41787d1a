"""Benchmark harness: deviation measure, classification, sampling, reports."""

import json
import math
import pickle
import random
import re
from decimal import Decimal
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hessbound import (
    Box,
    DomainViolation,
    ExpressionSyntaxError,
    HessboundError,
    Interval,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
    PointOutsideBox,
    UnknownVariable,
    compile_expression,
    eval_improved,
)
from hessbound.codelist import Codelist, Line
from hessbound.errors import InconsistentInputs, MalformedCodelist
from hessbound.harness import (
    CorpusEntry,
    alpha_bb_eval,
    classify,
    codelist_value,
    dev,
    emit_report,
    parse_box,
    random_boxes,
    random_function,
    read_corpus,
    run_compare,
    write_corpus,
)

from helpers import grid_points


# -- deviation measure ----------------------------------------------------

def test_dev_golden():
    assert dev(2.0, 0.0) == 1.0
    assert dev(-1.0, 1.0) == -2.0
    assert dev(5.0, 5.0) == 0.0


def test_dev_antisymmetric_and_scale_free():
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.uniform(-100, 100), rng.uniform(-100, 100)
        assert math.isclose(dev(a, b), -dev(b, a), rel_tol=1e-12)
    # large values of equal sign are compared relatively
    assert abs(dev(1e9 + 1.0, 1e9)) < 1e-8


# -- classification -------------------------------------------------------

G = Interval(-10, 10)
H = Interval(-5, 5)


@pytest.mark.parametrize("tested,expected", [
    (Interval(-4, 4), (5, 5)),      # strictly inside the vertex bounds
    (Interval(-5, 5), (4, 4)),      # equal to the vertex bounds
    (Interval(-7, 7), (3, 3)),      # strictly between
    (Interval(-10, 10), (2, 2)),    # equal to Gershgorin
    (Interval(-11, 11), (1, 1)),    # outside Gershgorin
    (Interval(-4, 11), (5, 1)),     # sides classified independently
])
def test_classify_fixtures(tested, expected):
    assert classify(tested, G, H) == expected


def test_classify_rejects_inconsistent_references():
    with pytest.raises(InconsistentInputs):
        classify(Interval(-1, 1), G, Interval(-11, 11))


def test_classify_eps_tolerance():
    # a hair away from the vertex bound counts as equal under a loose eps
    t = Interval(-5 - 1e-9, 5 + 1e-9)
    assert classify(t, G, H, eps=1e-6) == (4, 4)
    assert classify(t, G, H, eps=1e-12) == (3, 3)
    assert classify(t, G, H, eps=0) == (3, 3)


@pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_a_comparison_tolerance_that_is_negative_or_not_finite_is_an_invalid_argument(eps):
    text = f"comparison tolerance {eps!r} is not a finite number of 0 or more"
    assert _argument_error(lambda: classify(Interval(-7, 7), G, H, eps=eps)) == text
    entries = [CorpusEntry("f", 2, Box.from_bounds([(0.5, 1), (0.5, 1.5)]), "x1*x2 + exp(x1)")]
    for chosen in (entries, []):
        assert _argument_error(lambda: run_compare(chosen, boxes_per_function=3, eps=eps)) == text
    assert len(run_compare(entries, boxes_per_function=3, eps=0).records) == 6


def test_classify_monotone_in_eps():
    # growing eps can only move extreme classes toward the middle ones
    t = Interval(-5.001, 5.001)
    strict = classify(t, G, H, eps=1e-9)
    loose = classify(t, G, H, eps=1e-2)
    assert strict == (3, 3) and loose == (4, 4)


# -- convex underestimator ------------------------------------------------

def test_alpha_bb_golden_bilinear():
    cl = compile_expression("x1*x2", 2)
    box = Box.from_bounds([(0, 1), (0, 1)])
    # smallest eigenvalue over the box is -1, so at the center:
    # 0.25 - 0.5*(-1)*((0-.5)(1-.5)*2) = 0.25 - 0.25 = 0
    assert abs(alpha_bb_eval(cl, box, (0.5, 0.5), -1.0)) < 1e-12


def test_alpha_bb_equals_function_when_convex():
    cl = compile_expression("x1^2 + x2^2", 2)
    box = Box.from_bounds([(0, 1), (0, 1)])
    assert alpha_bb_eval(cl, box, (0.3, 0.4)) == codelist_value(cl, (0.3, 0.4))


def test_alpha_bb_underestimates_and_matches_at_vertices():
    for s in range(10):
        entry = random_function(2, seed=3000 + s, require_mul=True)
        cl = entry.compile()
        lam = eval_improved(cl, entry.domain).eigen.lo
        for v in entry.domain.vertices():
            assert math.isclose(alpha_bb_eval(cl, entry.domain, v, lam),
                                codelist_value(cl, v), rel_tol=1e-10, abs_tol=1e-10)
        for x in grid_points(entry.domain, 5):
            under = alpha_bb_eval(cl, entry.domain, x, lam)
            assert under <= codelist_value(cl, x) + 1e-10


def test_alpha_bb_rejects_outside_point():
    cl = compile_expression("x1*x2", 2)
    box = Box.from_bounds([(0, 1), (0, 1)])
    with pytest.raises(PointOutsideBox):
        alpha_bb_eval(cl, box, (2.0, 0.5))


def test_alpha_bb_rejects_an_outside_int_too_long_to_print():
    box = Box.from_bounds([(0, 1)])
    with pytest.raises(PointOutsideBox, match=r"^<tuple too long to show> is not in "):
        alpha_bb_eval(compile_expression("x1", 1), box, [10 ** 5000])


def test_alpha_bb_rejects_a_point_of_the_wrong_length():
    cl = compile_expression("x1*x2", 2)
    with pytest.raises(LengthMismatch, match="^point of length 1 vs box of length 2$"):
        alpha_bb_eval(cl, Box.from_bounds([(0, 1), (0, 1)]), (0.5,))


@pytest.mark.parametrize("source,bounds,x", [
    ("exp(x1)", (0, 1000), 1000.0),
    ("x1^3", (0, 1e150), 1e150),
])
def test_alpha_bb_point_overflow_is_invalid_interval(source, bounds, x):
    # with lam_lo given the box is never evaluated, so the point walk is the
    # first place the overflow shows
    cl = compile_expression(source, 1)
    with pytest.raises(InvalidInterval, match="overflow .* at codelist line 2"):
        alpha_bb_eval(cl, Box.from_bounds([bounds]), [x], lam_lo=-1.0)


@pytest.mark.parametrize("source,x,kind", [
    ("ln(x1)", -0.5, "ln"),
    ("sqrt(x1)", -0.5, "sqrt"),
    ("1/x1", 0.0, "recip"),
])
def test_alpha_bb_point_outside_domain_is_domain_violation(source, x, kind):
    cl = compile_expression(source, 1)
    with pytest.raises(DomainViolation) as info:
        alpha_bb_eval(cl, Box.from_bounds([(-1, 1)]), [x], lam_lo=-1.0)
    assert (info.value.kind, info.value.interval, info.value.line) == (kind, x, 2)


def test_codelist_value_domain_violation_names_the_failing_line():
    cl = compile_expression("x1 + ln(x2 - 1)", 2)
    with pytest.raises(DomainViolation) as info:
        codelist_value(cl, (0.0, 0.5))
    assert cl.lines[info.value.line - 1].op == "ln"
    assert info.value.interval == -0.5


@pytest.mark.parametrize("source", ["x1*x2", "x1*x2 - x1*x2"])
def test_codelist_value_non_finite_is_invalid_interval(source):
    # the float product overflows to inf without raising; inf - inf is nan
    cl = compile_expression(source, 2)
    with pytest.raises(InvalidInterval, match=r"non-finite value inf from mul at codelist line 3"):
        codelist_value(cl, (1e200, 1e200))


def test_alpha_bb_non_finite_point_value_is_invalid_interval():
    # the shift is -inf at this point, so the old inf value came back as nan
    cl = compile_expression("x1*x2", 2)
    box = Box.from_bounds([(0.0, 1e201), (0.0, 1e201)])
    with pytest.raises(InvalidInterval, match="codelist line 3"):
        alpha_bb_eval(cl, box, (1e200, 1e200), lam_lo=-1.0)


def test_alpha_bb_non_finite_shift_is_invalid_interval():
    # the point value 0 is finite, but (lo - x)(hi - x) = -1e400 overflows
    cl = compile_expression("x1", 1)
    with pytest.raises(InvalidInterval, match="non-finite alpha-BB shift -inf"):
        alpha_bb_eval(cl, Box.from_bounds([(-1e200, 1e200)]), [0.0], lam_lo=-1.0)


def test_point_function_is_built_once():
    cl = compile_expression("x1 * x2 + x1", 2)
    assert cl.point_function is cl.point_function
    assert codelist_value(cl, (2.0, 3.0)) == 8.0


# the real-point rules written out once more, as the oracle of the generated
# point function
POINT_RULES = {
    "add": lambda v, line: v[line.i - 1] + v[line.j - 1],
    "mul": lambda v, line: v[line.i - 1] * v[line.j - 1],
    "powNat": lambda v, line: v[line.i - 1] ** line.m,
    "oneOver": lambda v, line: 1.0 / v[line.i - 1],
    "sqrt": lambda v, line: math.sqrt(v[line.i - 1]),
    "exp": lambda v, line: math.exp(v[line.i - 1]),
    "ln": lambda v, line: math.log(v[line.i - 1]),
    "addC": lambda v, line: v[line.i - 1] + line.c,
    "mulByC": lambda v, line: v[line.i - 1] * line.c,
}


def walk(cl, x, upto=None):
    """Values of lines 1..upto (default all) at the point x."""
    vals = [float(x[k]) for k in range(cl.n)]
    for line in cl.lines[cl.n:upto]:
        vals.append(POINT_RULES[line.op](vals, line))
    return vals


def test_point_function_equals_a_walk_over_the_lines():
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    rng = random.Random(11)
    compared = 0
    for case in cases:
        cl = compile_expression(case["source"], case["n"])
        dims = [(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"]]
        for x in [tuple(lo for lo, _ in dims), tuple(hi for _, hi in dims)] + [
                tuple(rng.uniform(lo, hi) for lo, hi in dims) for _ in range(5)]:
            try:
                expected = walk(cl, x)[-1]
            except (OverflowError, ValueError, ZeroDivisionError):
                with pytest.raises((DomainViolation, InvalidInterval)):
                    codelist_value(cl, x)
                continue
            if not math.isfinite(expected):
                with pytest.raises(InvalidInterval, match="non-finite value"):
                    codelist_value(cl, x)
                continue
            assert cl.point_function(x).hex() == expected.hex(), (case["source"], x)
            assert codelist_value(cl, x).hex() == expected.hex()
            compared += 1
    assert compared >= 1300


def deep_codelist(op, prep, m=None):
    """Two variables, 29 bounded lines, ``prep`` on line 32 and ``op`` of it
    on line 33, then 20 more lines."""
    lines = [Line("var"), Line("var")]
    for k in range(3, 32):
        lines.append(Line("add", i=k - 1, j=1) if k % 2 else Line("mulByC", i=k - 1, c=0.5))
    lines.append(prep)
    lines.append(Line(op, i=32, m=m))
    for k in range(34, 54):
        lines.append(Line("add", i=k - 1, j=2))
    return Codelist(2, lines)


@pytest.mark.parametrize("op,prep,kind", [
    ("ln", Line("addC", i=31, c=-5.0), "ln"),
    ("sqrt", Line("addC", i=31, c=-5.0), "sqrt"),
    ("oneOver", Line("mulByC", i=31, c=0.0), "recip"),
])
def test_codelist_value_names_a_deep_domain_violation(op, prep, kind):
    cl = deep_codelist(op, prep)
    x = (0.75, 0.25)
    with pytest.raises(DomainViolation) as info:
        codelist_value(cl, x)
    assert (info.value.kind, info.value.line) == (kind, 33)
    assert info.value.interval == walk(cl, x, upto=32)[-1]


def test_codelist_value_names_a_deep_pow_overflow():
    cl = deep_codelist("powNat", Line("addC", i=31, c=1e3), m=200)
    x = (0.75, 0.25)
    arg = walk(cl, x, upto=32)[-1]
    with pytest.raises(InvalidInterval, match=rf"^powNat overflow on {arg!r} at codelist line 33$"):
        codelist_value(cl, x)


def test_codelist_value_reraises_a_malformed_point():
    # a component float() rejects comes back as a library error naming it
    cl = compile_expression("x1 * x2", 2)
    with pytest.raises(InvalidInterval, match=r"^point component 2 is 'a', not a number$"):
        codelist_value(cl, (1.0, "a"))
    with pytest.raises(InvalidInterval, match=r"^point component 2 is None, not a number$"):
        codelist_value(cl, (1.0, None))


def test_codelist_value_names_an_int_too_long_to_print():
    # repr of an int over Python's 4300-digit limit raises ValueError itself
    text = r"^point component 1 is <int too long to show>, too large for a float$"
    with pytest.raises(InvalidInterval, match=text):
        codelist_value(compile_expression("x1", 1), [10 ** 5000])


def test_codelist_value_names_an_int_too_large_for_a_float():
    text = r"^point component 1 is 1000000000000000\.\.\.000000000000000, too large for a float$"
    with pytest.raises(InvalidInterval, match=text):
        codelist_value(compile_expression("x1", 1), [10 ** 400])


@pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0)])
def test_codelist_value_rejects_a_point_of_the_wrong_length(x):
    cl = compile_expression("x1 * x2", 2)
    with pytest.raises(LengthMismatch, match=f"point of length {len(x)} vs codelist of n=2"):
        codelist_value(cl, x)


@pytest.mark.parametrize("source,text", [
    # 1/inf and exp(-inf) are 0: the value is finite after the overflow
    ("1e308/(x1*1e308*10)", "non-finite value inf from mulByC at codelist line 3"),
    ("exp(-1e308*x1*10)", "non-finite value -inf from mulByC at codelist line 3"),
])
def test_an_overflow_that_exp_or_one_over_turns_finite_is_invalid_interval(source, text):
    cl = compile_expression(source, 1)
    box = Box.from_bounds([(0.5, 1.0)])
    for evaluate in (cl.point_function, partial(codelist_value, cl),
                     lambda x: alpha_bb_eval(cl, box, x, lam_lo=-1.0)):
        with pytest.raises(InvalidInterval) as info:
            evaluate([1.0])
        assert (str(info.value), info.value.line) == (text, 3)


def test_a_non_finite_component_that_no_line_reads_is_invalid_interval():
    cl = compile_expression("exp(x1)*exp(x1)", 2)  # x2 is read by no line
    with pytest.raises(InvalidInterval) as info:
        codelist_value(cl, (1.0, math.inf))
    assert str(info.value) == "non-finite value inf from var at codelist line 2"
    assert info.value.line == 2


@pytest.mark.parametrize("cl,x,error,line", [
    (compile_expression("x1*x2", 2), (1e200, 1e200), InvalidInterval, 3),
    (compile_expression("exp(x1)", 1), (1000.0,), InvalidInterval, 2),
    (compile_expression("x1 + ln(x2 - 1)", 2), (0.0, 0.5), DomainViolation, 4),
    (deep_codelist("powNat", Line("addC", i=31, c=1e3), m=200), (0.75, 0.25), InvalidInterval, 33),
])
def test_every_point_error_naming_a_codelist_line_carries_it(cl, x, error, line):
    with pytest.raises(error, match=f"at codelist line {line}$") as info:
        codelist_value(cl, x)
    assert info.value.line == line


def test_the_point_function_raises_the_package_errors_itself():
    with pytest.raises(DomainViolation) as info:
        compile_expression("1/x1", 1).point_function((0.0,))
    assert (str(info.value), info.value.line) == ("recip undefined on 0.0 at codelist line 2", 2)
    with pytest.raises(LengthMismatch, match=r"^point of length 1 vs codelist of n=2$"):
        compile_expression("x1*x2", 2).point_function((1.0,))


SEED_CASES = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
ODD_COMPONENTS = (0.0, -0.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan, None, "a")


@cache
def seed_codelist(index):
    return compile_expression(SEED_CASES[index]["source"], SEED_CASES[index]["n"])


@st.composite
def seed_points(draw):
    """An engine seed case and a point: box components mixed with odd ones,
    at the right length, one short or one too long."""
    index = draw(st.integers(0, len(SEED_CASES) - 1))
    x = draw(st.tuples(*(
        st.one_of(st.floats(float.fromhex(lo), float.fromhex(hi)), st.sampled_from(ODD_COMPONENTS))
        for lo, hi in SEED_CASES[index]["box"])))
    return index, (x + (0.5,))[:draw(st.sampled_from((len(x), len(x) - 1, len(x) + 1)))]


@given(seed_points())
def test_only_package_errors_leave_real_point_evaluation(case):
    index, x = case
    cl = seed_codelist(index)
    for evaluate in (cl.point_function, partial(codelist_value, cl)):
        try:
            value = evaluate(x)
        except HessboundError:
            continue
        assert len(x) == cl.n
        values = walk(cl, x)  # a value only where every line's value is finite
        assert all(map(math.isfinite, values)) and value.hex() == values[-1].hex()


@pytest.mark.parametrize("x", [5, None, {0.5, 1.0}, {0: 0.5, 2: 1.0}, {0: 0.5, 1: 1.0},
                               np.float64(0.5), np.array([[0.5, 1.0]])])
def test_a_point_that_is_not_a_sequence_is_an_invalid_argument(x):
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 2.0)])
    text = f"^a point must be a sequence or a 1-D array, got {type(x).__name__}$"
    for evaluate in (cl.point_function, partial(codelist_value, cl),
                     lambda x: alpha_bb_eval(cl, box, x, -1.0)):
        with pytest.raises(InvalidArgument, match=text):
            evaluate(x)


@pytest.mark.parametrize("x", [[0.5, 1.0], (0.5, 1.0), np.array([0.5, 1.0])])
def test_lists_tuples_and_1d_arrays_are_points(x):
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 2.0)])
    assert cl.point_function(x) == codelist_value(cl, x) == alpha_bb_eval(cl, box, x, 0.0) == 0.5


def test_alpha_bb_names_a_malformed_point_component():
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(InvalidInterval, match=r"^point component 2 is 'a', not a number$"):
        alpha_bb_eval(cl, box, (0.5, "a"), -1.0)
    # a Decimal passes the containment test but cannot be subtracted from a float
    text = r"^point component 2 is Decimal\('0\.5'\), not a number$"
    with pytest.raises(InvalidInterval, match=text):
        alpha_bb_eval(cl, box, (0.5, Decimal("0.5")), -1.0)
    # an outside component before a malformed one is reported first
    with pytest.raises(PointOutsideBox, match=r"^\(2\.0, 'a'\) is not in "):
        alpha_bb_eval(cl, box, (2.0, "a"), -1.0)


def alpha_bb_loop(cl, box, x, lam_lo):
    """The underestimator as a plain loop over the box's components, which
    reads every endpoint at every point."""
    s = 0.0
    for d, xi in zip(box.dims, x):
        assert d.lo - 1e-12 <= xi <= d.hi + 1e-12
        s += (d.lo - xi) * (d.hi - xi)
    if lam_lo is None:
        lam_lo = eval_improved(cl, box).eigen.lo
    val = codelist_value(cl, x)
    return val if lam_lo >= 0.0 else val + -0.5 * lam_lo * s


def test_alpha_bb_equals_a_loop_over_the_box_on_each_box_in_turn():
    cl = compile_expression("x1*x2*x3 + x1^2 - 3*x2*x3 + exp(x3)", 3)
    a = Box.from_bounds([(-1.5, 2.0), (-0.25, 3.0), (-2.0, 0.5)])
    b = random_boxes(a, 1, seed=5)[0]
    rng = random.Random(17)

    def component(d):
        ints = range(math.ceil(d.lo), math.floor(d.hi) + 1)
        return rng.choice([rng.uniform(d.lo, d.hi), d.lo, d.hi]
                          + ([rng.choice(ints)] if ints else [])
                          + ([-0.0] if d.lo <= 0.0 <= d.hi else []))

    compared = 0
    for box in (a, b, a, Box(a.dims)):
        lam = eval_improved(cl, box).eigen.lo
        assert lam < 0.0
        for _ in range(40):
            x = [component(d) for d in box.dims]
            for point in (tuple(x), x, np.array(x, dtype=float)):
                for lam_lo in (None, lam, 0.0):
                    got = alpha_bb_eval(cl, box, point, lam_lo)
                    want = alpha_bb_loop(cl, box, point, lam_lo)
                    assert got == want and repr(got) == repr(want), (box, point, lam_lo)
                    compared += 1
    assert compared == 4 * 40 * 3 * 3


@pytest.mark.parametrize("lam_lo", ["a", 1j, np.array([-1.0]), np.array([-1.0, 2.0]),
                                    np.full((2, 2), -1.0)],
                         ids=["a", "1j", "array of 1", "array of 2", "2x2 array"])
def test_alpha_bb_rejects_a_lam_lo_that_is_not_a_number(lam_lo):
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(InvalidArgument, match=rf"^lam_lo {re.escape(repr(lam_lo))} is not a number$"):
        alpha_bb_eval(cl, box, (0.5, 0.5), lam_lo)
    # checked where it is first used: the point's own errors come first
    with pytest.raises(PointOutsideBox):
        alpha_bb_eval(cl, box, (2.0, 0.5), lam_lo)
    with pytest.raises(DomainViolation):
        alpha_bb_eval(compile_expression("1/x1", 1), Box.from_bounds([(0, 1)]), (0.0,), lam_lo)


def test_alpha_bb_shift_by_an_int_lam_lo_below_the_float_range_is_not_finite():
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(InvalidInterval, match=r"^non-finite alpha-BB shift -inf of the value 0\.25$"):
        alpha_bb_eval(cl, box, (0.5, 0.5), -10 ** 400)


def test_alpha_bb_with_an_int_lam_lo_above_the_float_range_is_the_function():
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    assert alpha_bb_eval(cl, box, (0.5, 0.5), 10 ** 400) == 0.25


def test_alpha_bb_takes_a_numpy_scalar_lam_lo():
    cl = compile_expression("x1 * x2", 2)
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    want = alpha_bb_eval(cl, box, (0.25, 0.5), -1.0)
    for lam_lo in (np.float64(-1.0), np.array(-1.0)):
        got = alpha_bb_eval(cl, box, (0.25, 0.5), lam_lo)
        assert type(got) is np.float64 and got == want == -0.09375


@pytest.mark.parametrize("lam_lo", [-1.0, None])
def test_alpha_bb_takes_a_list_or_tuple_of_intervals(lam_lo):
    cl = compile_expression("x1 * x2", 2)
    dims = [Interval(0.0, 1.0), Interval(0.0, 1.0)]
    for box in (dims, tuple(dims)):
        assert alpha_bb_eval(cl, box, (0.25, 0.5), lam_lo) == -0.09375
        with pytest.raises(PointOutsideBox, match=r"^\(2\.0, 0\.5\) is not in Box\(\[0, 1\] x \[0, 1\]\)$"):
            alpha_bb_eval(cl, box, (2.0, 0.5), lam_lo)
    with pytest.raises(InvalidInterval, match="^a box is built from Interval components, got 5$"):
        alpha_bb_eval(cl, 5, (0.25, 0.5), lam_lo)


# -- box sampling ---------------------------------------------------------

def test_random_boxes_deterministic_and_contained():
    domain = Box.from_bounds([(0, 1), (-2, 3)])
    a = random_boxes(domain, 20, seed=9)
    b = random_boxes(domain, 20, seed=9)
    assert a == b
    assert a != random_boxes(domain, 20, seed=10)
    for box in a:
        for d, dom in zip(box, domain):
            assert dom.lo <= d.lo <= d.hi <= dom.hi
            assert d.width >= 1e-9 * dom.width


def test_a_box_count_below_zero_is_an_invalid_argument():
    domain = Box.from_bounds([(0, 1)])
    entries = [CorpusEntry("f", 1, domain, "x1^2")]
    assert _argument_error(lambda: random_boxes(domain, -3, seed=1)) == "box count -3 is below 0"
    for chosen in (entries, []):
        assert (_argument_error(lambda: run_compare(chosen, boxes_per_function=-1))
                == "box count -1 is below 0")
    assert random_boxes(domain, 0, seed=1) == []
    empty = run_compare(entries, boxes_per_function=0)
    assert empty.records == [] and empty.skips == []


@pytest.mark.parametrize("count,text", [
    (2.5, "box count 2.5 is not an integer"),
    ("3", "box count '3' is not an integer"),
    (None, "box count None is not an integer"),
], ids=["float", "str", "None"])
def test_a_box_count_that_is_not_an_integer_is_an_invalid_argument(count, text):
    entries = [CorpusEntry("f", 1, Box.from_bounds([(0, 1)]), "x1^2")]
    assert _argument_error(lambda: random_boxes(entries[0].domain, count, seed=1)) == text
    assert _argument_error(lambda: run_compare(entries, boxes_per_function=count)) == text


def test_a_numpy_integer_box_count_is_accepted():
    domain = Box.from_bounds([(0, 1)])
    assert random_boxes(domain, np.int64(2), seed=1) == random_boxes(domain, 2, seed=1)
    result = run_compare([CorpusEntry("f", 1, domain, "x1^2")], boxes_per_function=np.int64(2))
    assert type(result.boxes_per_function) is int and len(result.records) == 4


# -- corpus files ---------------------------------------------------------

def test_corpus_round_trip(tmp_path):
    entries = [random_function(n, seed=40 + n) for n in (2, 3, 4)]
    write_corpus(str(tmp_path), entries)
    loaded = read_corpus(str(tmp_path))
    assert [e.name for e in loaded] == sorted(e.name for e in entries)
    by_name = {e.name: e for e in entries}
    for e in loaded:
        orig = by_name[e.name]
        assert e.n == orig.n and e.source == orig.source
        assert e.domain == orig.domain
        e.compile()  # must stay compilable


def _argument_error(call) -> str:
    """The text of the error ``call()`` raises, a ValueError of the package."""
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, HessboundError) and isinstance(info.value, ValueError)
    return str(info.value)


def test_read_corpus_reads_only_txt_files_and_skips_blank_lines(tmp_path):
    (tmp_path / "notes.md").write_text("not a corpus file\n")
    (tmp_path / "f.txt").write_text("\nvars: 2\n\n# domain: 0,1;0,2\n  \nx1*x2\n\n+ x2\n")
    assert read_corpus(str(tmp_path)) == [
        CorpusEntry("f", 2, Box.from_bounds([(0, 1), (0, 2)]), "x1*x2 + x2")]


def test_read_corpus_rejects_incomplete_file(tmp_path):
    (tmp_path / "bad.txt").write_text("x1 + x2\n")
    assert (_argument_error(lambda: read_corpus(str(tmp_path)))
            == "bad.txt: needs a vars: line, a domain comment and an expression")


def test_read_corpus_names_the_file_of_a_vars_line_that_is_not_a_number(tmp_path):
    (tmp_path / "bad.txt").write_text("vars: two\n# domain: 0,1;0,1\nx1*x2\n")
    assert (_argument_error(lambda: read_corpus(str(tmp_path)))
            == "bad.txt: vars: 'two' is not a whole number")


@pytest.mark.parametrize("count,domain", [("0", ""), ("-2", "0,1")])
def test_read_corpus_names_the_file_of_a_vars_count_below_one(tmp_path, count, domain):
    # rejected before the domain line is parsed against the count
    (tmp_path / "f.txt").write_text(f"vars: {count}\n# domain: {domain}\nx1\n")
    assert (_argument_error(lambda: read_corpus(str(tmp_path)))
            == f"f.txt: vars: {count} must be at least 1")


def test_read_corpus_names_the_file_that_is_not_utf8_text(tmp_path):
    (tmp_path / "f.txt").write_bytes(b"vars: 1\n# domain: 0,1\n\xff\xfe x1\n")
    assert (_argument_error(lambda: read_corpus(str(tmp_path)))
            == "f.txt: not UTF-8 text (invalid start byte at byte 22)")


@pytest.mark.parametrize("domain,error,text", [
    ("0,1", InvalidArgument, "f.txt: domain: box has 1 components, expected 2"),
    ("0,1;1,0", InvalidInterval, "f.txt: domain: lo > hi in [1.0, 0.0]"),
])
def test_read_corpus_names_the_file_of_a_malformed_domain_line(tmp_path, domain, error, text):
    (tmp_path / "f.txt").write_text(f"vars: 2\n# domain: {domain}\nx1*x2\n")
    with pytest.raises(error) as info:
        read_corpus(str(tmp_path))
    assert str(info.value) == text


def test_random_function_is_seed_deterministic_and_domain_safe():
    for s in (1, 2, 3):
        e1 = random_function(3, seed=s)
        e2 = random_function(3, seed=s)
        assert e1 == e2
        cl = e1.compile()
        for x in grid_points(e1.domain, 3):
            codelist_value(cl, x)  # no domain error anywhere on the grid


@pytest.mark.parametrize("n", [2.5, 0, True])
def test_random_function_rejects_a_variable_count_as_compile_expression_does(n):
    with pytest.raises(MalformedCodelist) as info:
        random_function(n, seed=1)
    assert str(info.value) == "line 0: variable count must be an integer >= 1"


def test_random_function_require_mul():
    for s in range(20):
        entry = random_function(2, seed=s, require_mul=True)
        assert any(l.op == "mul" for l in entry.compile().lines), entry.source


# -- comparison driver and reports ----------------------------------------

@pytest.fixture(scope="module")
def small_result():
    entries = [random_function(n, seed=60 + n) for n in (2, 2, 3)]
    return run_compare(entries, boxes_per_function=8, seed=4, eps=1e-6)


def test_run_compare_is_deterministic(small_result):
    entries = [random_function(n, seed=60 + n) for n in (2, 2, 3)]
    again = run_compare(entries, boxes_per_function=8, seed=4, eps=1e-6)
    assert again.records == small_result.records
    assert again.skips == small_result.skips


def test_run_compare_covers_both_methods(small_result):
    methods = {r.method for r in small_result.records}
    assert methods == {"original", "improved"}


def test_report_percentages_sum_to_hundred(small_result):
    data = json.loads(emit_report(small_result, "json"))
    assert data["rows"]
    for row in data["rows"]:
        total = sum(row[f"class{i}"] for i in range(1, 6))
        assert abs(total - 100.0) < 0.01


def test_report_csv_shape_and_determinism(small_result):
    csv1 = emit_report(small_result, "csv")
    csv2 = emit_report(small_result, "csv")
    assert csv1 == csv2
    lines = csv1.strip().splitlines()
    assert lines[0] == "method,n,bound,cases,class1,class2,class3,class4,class5"
    # per-n rows plus an "all" aggregate per method and bound side
    assert any(",all," in l for l in lines[1:])
    for l in lines[1:]:
        assert len(l.split(",")) == 9


def test_report_table_renders(small_result):
    table = emit_report(small_result, "table")
    assert "method" in table and "cls5" in table


def test_report_unknown_format(small_result):
    assert (_argument_error(lambda: emit_report(small_result, "yaml"))
            == "unknown report format 'yaml'")


@pytest.mark.parametrize("text,match", [
    ("1,2,3", "box component 1 is '1,2,3', expected the form lo,hi"),
    ("0,1;2", "box component 2 is '2', expected the form lo,hi"),
    ("a,1", "box component 1 is 'a,1', expected the form lo,hi"),
    ("0,1;2,b", "box component 2 is '2,b', expected the form lo,hi"),
])
def test_parse_box_names_a_malformed_component(text, match):
    assert _argument_error(lambda: parse_box(text, len(text.split(";")))) == match


def test_parse_box_rejects_the_wrong_component_count():
    assert _argument_error(lambda: parse_box("0,1", 2)) == "box has 1 components, expected 2"


def test_run_compare_names_the_entry_whose_expression_fails_to_compile():
    good = CorpusEntry("good", 1, Box.from_bounds([(0.0, 1.0)]), "x1^2")
    with pytest.raises(UnknownVariable) as info:
        run_compare([good, CorpusEntry("f", 1, Box.from_bounds([(0.0, 1.0)]), "x2")], 2)
    assert str(info.value) == "f: x2 with n=1"
    with pytest.raises(ExpressionSyntaxError) as info:
        run_compare([CorpusEntry("g", 1, Box.from_bounds([(0.0, 1.0)]), "x1 +* 2")], 2)
    assert str(info.value) == "g: syntax error at position 4: expected an atom"
    assert info.value.position == 4


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the errors whose __init__ does not take the message; every other one does
_ERROR_ARGS = {
    DomainViolation: ("recip", Interval(-1.0, 1.0), 2),
    ExpressionSyntaxError: (3, "expected an atom"),
    MalformedCodelist: (4, "var line after the variable prefix"),
}


@pytest.mark.parametrize("cls", [HessboundError, *_subclasses(HessboundError)],
                         ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_type_text_and_attributes(cls):
    err = cls(*_ERROR_ARGS.get(cls, ("some text",)))
    for prefixed in (False, True):
        if prefixed:  # as run_compare names the entry
            err.args = (f"f: {err}",)
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is cls
        assert (str(copy), copy.args, vars(copy)) == (str(err), err.args, vars(err))


# inputs whose error quotes a run of thousands of characters: (call, type, position or line)
_LONG_INPUT_ERRORS = {
    "variable index": (lambda: compile_expression("x" + "1" * 4000, 2), UnknownVariable, None),
    "overflowing literal": (lambda: compile_expression("x1 + 1" + "0" * 4000 + "*x1", 2),
                            ExpressionSyntaxError, 5),
    "identifier": (lambda: compile_expression("y" * 5000, 1), ExpressionSyntaxError, 0),
    "bad literal": (lambda: compile_expression("x1 + 1." + "1" * 5000 + ".", 1),
                    ExpressionSyntaxError, 5),
    "pow exponent": (lambda: eval_improved(compile_expression("x1^" + "9" * 400 + " + x2", 2),
                                           Box.from_bounds([(0.5, 0.9), (0.1, 1.0)])),
                     InvalidInterval, 3),
    "point component": (lambda: codelist_value(compile_expression("x1", 1), [10 ** 4000]),
                        InvalidInterval, None),
    "box component": (lambda: parse_box("1," + "9" * 5000 + "x", 1), InvalidArgument, None),
}


@pytest.mark.parametrize("case", _LONG_INPUT_ERRORS)
def test_an_error_quoting_a_long_input_has_a_short_text(case):
    call, kind, where = _LONG_INPUT_ERRORS[case]
    with pytest.raises(kind) as info:
        call()
    err, text = info.value, str(info.value)
    assert getattr(err, "position" if kind is ExpressionSyntaxError else "line", None) == where
    assert len(text) <= 200 and "..." in text
    err.args = (text,)  # as run_compare names an entry: a cut text is not cut again
    assert str(err) == text


def test_an_error_named_by_run_compare_pickles():
    with pytest.raises(ExpressionSyntaxError) as info:
        run_compare([CorpusEntry("g", 1, Box.from_bounds([(0.0, 1.0)]), "x1^²")], 2)
    copy = pickle.loads(pickle.dumps(info.value))
    assert str(copy) == "g: syntax error at position 3: expected a natural number"
    assert copy.position == 3


def test_run_compare_skips_domain_violations():
    # 1/x over a domain straddling zero: every sampled box containing 0 skips
    entries = [CorpusEntry("straddle", 1, Box.from_bounds([(-1.0, 1.0)]), "1/(x1)")]
    res = run_compare(entries, boxes_per_function=30, seed=0)
    assert res.skips, "expected at least one skipped box"
    for s in res.skips:
        assert "DomainViolation" in s.reason


def test_run_compare_skips_overflow():
    entries = [CorpusEntry("huge", 2, Box.from_bounds([(1e200, 1e201), (1.0, 2.0)]),
                           "x1^2 + x1*x2")]
    res = run_compare(entries, boxes_per_function=5, seed=0)
    assert not res.records and len(res.skips) == 5
    for s in res.skips:
        assert s.reason.startswith("InvalidInterval")
    assert emit_report(res, "table").endswith("\nskipped boxes: 5\n")


def test_run_compare_matches_recorded_records_and_skips():
    # 63 entries x 3 boxes recorded from the earlier reference route, whose
    # interval Hessian took four products per scalar factor: 30 random_function
    # entries, 30 that reuse variables and 3 whose boxes skip (sqrt and 1/x
    # leave their domain, a Hessian entry overflows)
    data = json.loads((Path(__file__).parent / "data" / "compare_seed.json").read_text())
    entries = [CorpusEntry(e["name"], e["n"], Box(Interval(float.fromhex(lo), float.fromhex(hi))
                                                  for lo, hi in e["domain"]), e["source"])
               for e in data["entries"]]
    assert len(entries) == 63
    res = run_compare(entries, boxes_per_function=data["boxes_per_function"], seed=data["seed"])
    assert [[r.function, r.n, r.box_index, r.method, r.lower_class, r.upper_class]
            for r in res.records] == data["records"]
    assert [[s.function, s.n, s.box_index, s.reason] for s in res.skips] == data["skips"]
