"""Interval-Hessian enclosures and the matrix eigenvalue references."""

import copy
import json
import math
import pickle
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import hessbound.bounds
from hessbound import (
    Box,
    DimensionTooLarge,
    DomainViolation,
    HessboundError,
    Interval,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
    NotSymmetric,
    compile_expression,
    eval_improved,
    eval_original,
)
from hessbound import reference
from hessbound.harness import CorpusEntry, random_boxes, random_function, run_compare
from hessbound.reference import (
    SymIntervalMatrix,
    gershgorin_bounds,
    hertz_rohn_bounds,
    interval_hessian,
    point_hessians,
    sym_eigen_range,
)

from helpers import fd_hessian, grid_points

UNIT_SQUARE = Box.from_bounds([(0, 1), (0, 1)])


# -- SymIntervalMatrix ----------------------------------------------------

def test_sym_interval_matrix_validation():
    with pytest.raises(NotSymmetric):
        SymIntervalMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)) + 1)
    with pytest.raises(NotSymmetric):
        SymIntervalMatrix(np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NotSymmetric):
        SymIntervalMatrix(np.zeros((2, 3)), np.ones((2, 3)))


def test_sym_interval_matrix_rejects_entries_that_are_not_real_numbers():
    with pytest.raises(InvalidArgument, match="^interval matrix entries are not real numbers: "):
        SymIntervalMatrix([["a"]], [["b"]])


def test_sym_interval_matrix_rejects_an_empty_matrix():
    # accepted, the references would fail on it with numpy's own ValueError
    with pytest.raises(NotSymmetric, match="at least one row"):
        SymIntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0)))


def test_sym_interval_matrix_accepts_exact_and_allclose_symmetry():
    exact = np.array([[1.0, 0.1 + 0.2], [0.1 + 0.2, 2.0]])
    near = exact.copy()
    near[1, 0] = 0.3  # 0.1 + 0.2 != 0.3, but allclose
    for lo in (exact, near):
        m = SymIntervalMatrix(lo, exact + 1.0)
        assert m.lo.tolist() == lo.tolist()


# a NaN is named as such, not as an asymmetry (NaN != NaN); None converts to NaN
@pytest.mark.parametrize("lo,text", [
    (np.array([[0.0, 1.0], [0.5, 0.0]]), "endpoint matrices must be symmetric"),
    (np.array([[0.0, math.nan], [math.nan, 0.0]]), "entries must be finite intervals with lo <= hi"),
    ([[None]], "entries must be finite intervals with lo <= hi"),
], ids=["lo0", "lo1", "lo2"])
def test_sym_interval_matrix_rejects_asymmetric_and_nan(lo, text):
    n = len(lo)
    with pytest.raises(NotSymmetric, match=f"^{text}$"):
        SymIntervalMatrix(lo, np.ones((n, n)))
    with pytest.raises(NotSymmetric, match=f"^{text}$"):
        SymIntervalMatrix(np.zeros((n, n)) - 1.0, lo)


def test_mid_rad():
    m = SymIntervalMatrix(np.array([[0.0, -1.0], [-1.0, 2.0]]),
                          np.array([[2.0, 1.0], [1.0, 2.0]]))
    mid, rad = m.mid_rad()
    assert np.allclose(mid, [[1, 0], [0, 2]])
    assert np.allclose(rad, [[1, 1], [1, 0]])


def test_the_layers_are_views_of_one_checked_stack():
    lo = np.array([[0.0, -1.0], [-1.0, 2.0]])
    m = SymIntervalMatrix(lo.T, lo + 1.0)  # a Fortran-ordered layer is copied into the stack
    assert m.ends.shape == (2, 2, 2) and m.ends.flags.c_contiguous and m.ends.dtype == float
    assert m.lo.base is m.ends and m.hi.base is m.ends
    assert m.ends.tolist() == [lo.tolist(), (lo + 1.0).tolist()]
    assert repr(m).startswith("SymIntervalMatrix(lo=array(") and "ends" not in repr(m)
    # a copy or a pickle is rebuilt from its layers, views of one stack again
    for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert again.lo.base is again.ends and again.ends.tolist() == m.ends.tolist()


def _walk_stack(n=3):
    """A C-ordered float (2, n, n) stack, as interval_hessian's walk leaves it."""
    a = np.arange(n * n, dtype=float).reshape(n, n)
    a = a + a.T
    return np.stack((a - 1.0, a + 1.0))


def _ulp_asymmetry(m):
    m[0, 0, 1] = np.nextafter(m[0, 0, 1], math.inf)  # allclose accepts it


def _gross_asymmetry(m):
    m[1, 2, 0] += 5.0


@pytest.mark.parametrize("change", [
    lambda m: m[0].__setitem__((1, 1), math.nan),
    lambda m: m[1].__setitem__((0, 2), math.inf),
    lambda m: m[0].__setitem__((2, 2), 100.0),
    _ulp_asymmetry,
    _gross_asymmetry,
    lambda m: None,
], ids=["nan", "inf", "lo above hi", "one-ulp asymmetry", "gross asymmetry", "valid"])
def test_a_walk_stack_is_checked_as_its_layers_are(change, strict):
    ends = _walk_stack()
    change(ends)
    try:
        want = SymIntervalMatrix(ends[0].copy(), ends[1].copy())
    except HessboundError as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            SymIntervalMatrix._of(ends)
        return
    m = SymIntervalMatrix._of(ends)
    assert m.ends is ends and m.lo.base is ends  # read in place, not copied
    assert m.ends.tolist() == want.ends.tolist()


@pytest.mark.parametrize("ends", [
    np.asfortranarray(_walk_stack()),
    _walk_stack().astype(np.float32),
    _walk_stack()[:, :2, :],
    np.zeros((2, 0, 0)),
], ids=["fortran", "float32", "not square", "empty"])
def test_a_stack_that_is_not_a_c_ordered_float_stack_goes_through_the_constructor(ends):
    try:
        want = SymIntervalMatrix(ends[0], ends[1])
    except HessboundError as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            SymIntervalMatrix._of(ends)
        return
    m = SymIntervalMatrix._of(ends)
    assert m.ends is not ends and m.ends.flags.c_contiguous and m.ends.dtype == float
    assert m.ends.tolist() == want.ends.tolist()


def test_interval_hessian_reads_the_walks_stack_in_place():
    cl = compile_expression("x1*x2 + exp(x2*x3)", 3)
    enc = interval_hessian(cl, Box.from_bounds([(0, 1), (1, 2), (-1, 1)]))
    assert enc.ends.flags.c_contiguous and enc.lo.base is enc.ends and enc.hi.base is enc.ends


# -- interval Hessians ----------------------------------------------------

def test_hessian_golden_sum_of_squares():
    enc = interval_hessian(compile_expression("x1^2 + x2^2", 2), UNIT_SQUARE)
    assert np.allclose(enc.lo, np.diag([2.0, 2.0]))
    assert np.allclose(enc.hi, np.diag([2.0, 2.0]))


def test_hessian_golden_bilinear():
    enc = interval_hessian(compile_expression("x1*x2", 2), UNIT_SQUARE)
    assert np.allclose(enc.lo, [[0, 1], [1, 0]])
    assert np.allclose(enc.hi, [[0, 1], [1, 0]])


def test_hessian_golden_mixed_exponential():
    enc = interval_hessian(compile_expression("x1^2 + x2*exp(x2)", 2), UNIT_SQUARE)
    assert enc.entry(0, 0).lo == 2.0 and enc.entry(0, 0).hi == 2.0
    # d2/dx2^2 = (2 + x2) e^{x2} in [2, 3e]
    assert math.isclose(enc.entry(1, 1).lo, 2.0)
    assert math.isclose(enc.entry(1, 1).hi, 3 * math.e)


def test_hessian_domain_violation_line():
    cl = compile_expression("sqrt(x1) + x2", 2)
    with pytest.raises(DomainViolation) as exc:
        interval_hessian(cl, Box.from_bounds([(0, 1), (0, 1)]))  # sqrt needs lo > 0
    assert exc.value.line is not None


def test_hessian_encloses_finite_difference_truth():
    for s in range(12):
        entry = random_function(2 + s % 3, seed=9000 + s)
        cl = entry.compile()
        for box in random_boxes(entry.domain, 1, seed=s):
            enc = interval_hessian(cl, box)
            for x in grid_points(box, 3)[::4]:
                H = fd_hessian(cl, x)
                scale = 1e-4 * (1 + np.abs(H).max())
                assert enc.contains_matrix(H, slack=scale), (entry.source, x)


def test_hessian_matches_recorded_per_entry_interval_results():
    # 200 (function, box) pairs, with the upper triangles of lo and hi recorded
    # as float.hex by the earlier implementation that built one Interval per
    # Hessian entry.  Half are random_function entries; the other half multiply
    # two entries with their variables folded onto x1..xm, so the three terms
    # of the product rule overlap and their summation order shows.
    cases = json.loads((Path(__file__).parent / "data" / "interval_hessian_seed.json").read_text())
    assert len(cases) == 200
    for case in cases:
        n = case["n"]
        box = Box(Interval(float.fromhex(lo), float.fromhex(hi)) for lo, hi in case["box"])
        enc = interval_hessian(compile_expression(case["source"], n), box)
        rows, cols = np.triu_indices(n)
        for got, recorded in ((enc.lo, case["lo"]), (enc.hi, case["hi"])):
            assert np.array_equal(got, got.T)
            assert got[rows, cols].tolist() == [float.fromhex(v) for v in recorded.split()], \
                case["source"]


@pytest.mark.parametrize("src,n,bounds,line", [
    # the values stay in [1, 4]; line 3's Hessian 2e400 does not fit a double
    ("(1e200*x1)^2", 1, [(1e-200, 2e-200)], 3),
    # line 6's r'' term on the block {1, 2} of 3 variables, added through the
    # block's flat index: g g^T with g up to 2e200 overflows
    ("(1e200*x1*x2)^2 + x3", 3, [(1e-200, 2e-200), (1, 2), (0, 1)], 6),
    # the same term on a block of every variable, the whole stack
    ("(1e200*x1*x2)^2", 2, [(1e-200, 2e-200), (1, 2)], 5),
    # line 8 scales line 6's stack (up to 8e300) by y7 (up to 2e10)
    ("(1e150*x1*x2)^2*(1e10*x3)", 3, [(1e-150, 2e-150), (1, 2), (1, 2)], 8),
], ids=["pair", "block term", "whole stack", "scaled stack"])
def test_hessian_overflow_is_invalid_interval(src, n, bounds, line):
    cl = compile_expression(src, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInterval) as info:
            interval_hessian(cl, Box.from_bounds(bounds))
    assert str(info.value) == f"non-finite gradient or Hessian enclosure at codelist line {line}"
    assert info.value.line == line


def test_hessian_ignores_and_keeps_the_callers_numpy_error_settings():
    def hexes(enc):
        return [x.hex() for x in np.concatenate((enc.lo, enc.hi)).ravel().tolist()]

    # line 6's cross term 1e-400 underflows to 0
    cl = compile_expression("(1e-200*x1)*(1e-200*x2) + x3", 3)
    overflowing = compile_expression("(1e200*x1*x2)^2", 2)
    want = hexes(interval_hessian(cl, Box.from_bounds([(1, 2)] * 3)))
    old = np.seterr(all="raise")
    try:
        settings = np.geterr()
        assert hexes(interval_hessian(cl, Box.from_bounds([(1, 2)] * 3))) == want
        assert np.geterr() == settings
        with pytest.raises(InvalidInterval, match="non-finite gradient or Hessian enclosure"):
            interval_hessian(overflowing, Box.from_bounds([(1e-200, 2e-200), (1, 2)]))
        assert np.geterr() == settings
    finally:
        np.seterr(**old)


def test_hessian_of_affine_line_ignores_overflowing_outer_product():
    # addC has second derivative exactly zero; its operand's gradient is
    # 1e200, whose outer product overflows, and 0 * inf must not become nan
    enc = interval_hessian(compile_expression("1e200*x1 + 1", 1), Box.from_bounds([(1, 2)]))
    assert enc.lo.tolist() == [[0.0]] and enc.hi.tolist() == [[0.0]]


def test_a_hessian_overflow_wins_over_a_later_domain_violation():
    # line 4's Hessian 2e400 overflows; line 5 takes sqrt of [-1, 1].  The
    # value pass stops at line 5, and the Hessian rule still reports line 4
    cl = compile_expression("(1e200*x1)^2 + sqrt(x2)", 2)
    bounds = [(1e-200, 2e-200), (-1.0, 1.0)]
    box = Box.from_bounds(bounds)
    with pytest.raises(InvalidInterval):  # its λ overflows on line 4 too
        eval_original(cl, box)
    for box in (Box.from_bounds(bounds), box):  # afresh, then on the engine's value pass
        with pytest.raises(InvalidInterval) as info:
            interval_hessian(cl, box)
        assert str(info.value) == "non-finite gradient or Hessian enclosure at codelist line 4"
        assert info.value.line == 4


def test_a_gradient_overflow_raises_the_engines_error():
    # the values stay in [5, 6] and [e^5, e^6]; the gradient 1e307·e^5 does
    # not fit a double, and the value pass that finds it is the engines'
    cl = compile_expression("exp(1e307*x1)", 1)
    bounds = [(5e-307, 6e-307)]
    with pytest.raises(InvalidInterval) as engine:
        eval_original(cl, Box.from_bounds(bounds))
    with pytest.raises(InvalidInterval) as route:
        interval_hessian(cl, Box.from_bounds(bounds))
    assert str(route.value) == str(engine.value) == (
        "non-finite endpoints [inf, inf] at codelist line 3")
    assert route.value.line == engine.value.line == 3


# A line carries its Hessian as a (lo, hi) pair when its block is one
# variable, and as a stack when it is larger.  The rules are exact on these
# boxes, so each result is the closed form.
@pytest.mark.parametrize("src,n,bounds,lo,hi", [
    # two pairs on different variables, added into a stack
    ("x1^3 + x2^3", 2, [(1, 2), (3, 4)], [[6, 0], [0, 18]], [[12, 0], [0, 24]]),
    # a pair read by a mul line whose block is larger
    ("x1^2*x2", 2, [(1, 2), (3, 4)], [[6, 2], [2, 0]], [[8, 4], [4, 0]]),
    # the last line is a pair, in three variables
    ("x2^3 + 2*x2", 3, [(0, 1), (1, 2), (0, 1)],
     [[0, 0, 0], [0, 6, 0], [0, 0, 0]], [[0, 0, 0], [0, 12, 0], [0, 0, 0]]),
    # A line with a larger block scales a pair it reads as a pair and adds it
    # as one entry of its own stack, or of a copy of the other operand's.
    # An add of a stack and a pair, in either order:
    ("x1*x2 + x1^3", 2, [(1, 2), (3, 4)], [[6, 1], [1, 0]], [[12, 1], [1, 0]]),
    ("x1^3 + x1*x2", 2, [(1, 2), (3, 4)], [[6, 1], [1, 0]], [[12, 1], [1, 0]]),
    # two pairs added onto a two-variable block of three variables
    ("x3^2 + x1^3", 3, [(1, 2), (0, 1), (3, 4)],
     [[6, 0, 0], [0, 0, 0], [0, 0, 2]], [[12, 0, 0], [0, 0, 0], [0, 0, 2]]),
    # a mul of a pair and a stack: f11 = 2 x2 x3, f12 = 2 x1 x3, f13 = 2 x1 x2, f23 = x1^2
    ("x1^2*(x2*x3)", 3, [(1, 2), (1, 2), (1, 2)],
     [[2, 2, 2], [2, 0, 1], [2, 1, 0]], [[8, 8, 8], [8, 0, 4], [8, 4, 0]]),
    # a mul of two pairs on x1 whose block is {1, 2}: f11 = 12 x1^2 + 2 x2, f12 = 2 x1
    ("(x1^2 + x2)*x1^2", 2, [(1, 2), (3, 4)], [[18, 2], [2, 0]], [[56, 4], [4, 0]]),
    # a unary line on a pair: f11 = 12 x1^2 + 4 x2, f12 = 4 x1, f22 = 2
    ("(x1^2 + x2)^2", 2, [(1, 2), (3, 4)], [[24, 4], [4, 2]], [[64, 8], [8, 2]]),
])
def test_hessian_of_pairs_and_stacks_is_the_closed_form(src, n, bounds, lo, hi):
    enc = interval_hessian(compile_expression(src, n), Box.from_bounds(bounds))
    assert enc.lo.tolist() == lo and enc.hi.tolist() == hi



# A stack is taken before a pair, whatever the operand order, so the order
# of the terms in the source changes no bit, the sign of a zero included.
@pytest.mark.parametrize("src,swapped,n", [
    ("x1^2 + x2*x3", "x2*x3 + x1^2", 3),
    ("(x1^2)*(x2*x3)", "(x2*x3)*(x1^2)", 3),
    ("exp(x1) + x2*x3 + x4^2", "x4^2 + x2*x3 + exp(x1)", 4),
    ("(x1 + x2^2)*(x3 - x1)", "(x3 - x1)*(x1 + x2^2)", 3),
    # -(x2*x3) holds -0.0 off its block; zeros started by the pair would make it 0.0
    ("x1^2 - x2*x3", "-(x2*x3) + x1^2", 4),
])
def test_hessian_is_the_same_with_the_operands_swapped(src, swapped, n):
    for bounds in ((-1, 2), (0.5, 1.5), (-2, -1)):
        box = Box.from_bounds([bounds] * n)
        a, b = (interval_hessian(compile_expression(f, n), box) for f in (src, swapped))
        assert ([v.hex() for v in (*a.lo.ravel(), *a.hi.ravel())]
                == [v.hex() for v in (*b.lo.ravel(), *b.hi.ravel())]), bounds


def test_a_block_term_keeps_the_sign_of_its_zeros():
    # the cross term of (-x1)*x2 on its block {1, 2} is -0.0 at (1, 1), as
    # (-1)·0 + 0·(-1) is entry by entry; it is assigned into the line's stack,
    # since adding it to zeros would make that entry 0.0
    enc = interval_hessian(compile_expression("(-x1)*x2", 3), Box.from_bounds([(1, 2)] * 3))
    assert (enc.lo[0, 0].hex(), enc.hi[0, 0].hex()) == ("-0x0.0p+0", "-0x0.0p+0")

@pytest.mark.parametrize("src,n,bounds,text", [
    # line 4's r' (up to 1e160) times line 3's Hessian 2e150 overflows, and
    # so does line 4's r'' = -(1/y)^2; as in a stack, the r'' error wins
    ("ln(1e150*x1^2)", 1, [(1e-155, 2e-155)],
     "pow overflow on [2.5e+159, 1e+160]^2 at codelist line 4"),
    # the one-variable block of line 4 overflows (2e400) before line 5 reads it
    ("(1e200*x1)^2*x2 + x2", 2, [(1e-200, 2e-200), (1, 2)],
     "non-finite gradient or Hessian enclosure at codelist line 4"),
    # line 6's block is {1, 2}: y5 (up to 2e10) times line 4's pair 2e300 overflows
    ("(1e150*x1)^2*(1e10*x2)", 2, [(1e-150, 2e-150), (1, 2)],
     "non-finite gradient or Hessian enclosure at codelist line 6"),
    # line 6's block is {1, 2}: r' (up to 5e159) times line 5's pair 2e150
    # overflows, and so does r'' = -(1/y)^2, whose error wins
    ("ln(1e150*x1^2 + x2)", 2, [(1e-155, 2e-155), (1e-160, 2e-160)],
     "pow overflow on [1.66667e+159, 5e+159]^2 at codelist line 6"),
])
def test_a_hessian_overflow_in_a_pair_raises_at_the_end_of_its_line(src, n, bounds, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInterval) as info:
            interval_hessian(compile_expression(src, n), Box.from_bounds(bounds))
    assert str(info.value) == text


def test_a_codelist_pickles_after_a_hessian_call():
    cl = compile_expression("x1*x2 + x3^2 + exp(x2*x3)", 4)
    box = Box.from_bounds([(0, 1), (1, 2), (-1, 1), (2, 3)])
    assert "_index" not in vars(cl)
    enc = interval_hessian(cl, box)
    assert set(vars(cl)["_index"]) == {(1, 2), (2, 3)}  # built by the call, kept on the codelist
    # x1*x2 (line 5) is read last by the first + (line 7), x4 by no line
    assert cl.last_read[5] == 7 and 4 not in cl.last_read and "last_read" in vars(cl)
    copy = pickle.loads(pickle.dumps(cl))
    assert copy == cl and "_index" not in vars(copy) and "last_read" not in vars(copy)
    again = interval_hessian(copy, box)
    assert np.array_equal(again.lo, enc.lo) and np.array_equal(again.hi, enc.hi)


# -- the array kernels of interval_hessian --------------------------------

def _four_product(s, lo, hi):
    lo, hi = float(lo), float(hi)  # Python floats overflow to inf silently
    p = (s.lo * lo, s.lo * hi, s.hi * lo, s.hi * hi)
    return min(p), max(p)


_ZEROS = st.sampled_from([0.0, -0.0])
_ENDPOINT = st.one_of(_ZEROS, st.floats(-1e3, 1e3), st.floats(-1e200, 1e200))


@st.composite
def _scalars(draw):
    kind = draw(st.sampled_from(["nonneg", "nonpos", "straddle", "point"]))
    if kind == "point":
        v = draw(_ENDPOINT)
        return Interval(v, v)
    a = draw(st.one_of(_ZEROS, st.floats(0.0, 1e3), st.floats(0.0, 1e200)))
    b = draw(st.one_of(_ZEROS, st.floats(0.0, 1e3), st.floats(0.0, 1e200)))
    a, b = sorted((abs(a), abs(b)))
    if kind == "nonneg":
        return Interval(a, b)
    if kind == "nonpos":
        return Interval(-b, -a)
    return Interval(-a - 1.0, b + 1.0)


@st.composite
def _stacks(draw, shape):
    ends = np.array(draw(st.lists(st.tuples(_ENDPOINT, _ENDPOINT), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape)))))
    return np.stack((ends.min(axis=1).reshape(shape), ends.max(axis=1).reshape(shape)))


# entries [-1, 2], [-0, 0], [0, 3], [-2, -0], [-0, 0], [1, 4]
_ZERO_ENDS = np.array([[[-1.0, -0.0], [0.0, -2.0], [-0.0, 1.0]],
                       [[2.0, 0.0], [3.0, -0.0], [0.0, 4.0]]])


@given(_scalars(), _stacks((3, 2)))
@example(Interval(0.0, 2.0), _ZERO_ENDS.copy())
@example(Interval(-0.0, 0.0), _ZERO_ENDS.copy())
@example(Interval(-3.0, -0.0), _ZERO_ENDS.copy())
@example(Interval(-0.0, -0.0), _ZERO_ENDS.copy())
@example(Interval(-1.5, 2.5), _ZERO_ENDS.copy())
def test_scale_equals_the_four_product_rule(s, m):
    before = m.copy()
    with np.errstate(over="ignore"):  # products may overflow to inf
        got = reference._scale(s, m)
    assert np.array_equal(m, before)  # the operand is still read by later lines
    assert got.shape == m.shape
    for idx in np.ndindex(m.shape[1:]):
        lo, hi = m[(0, *idx)], m[(1, *idx)]
        assert (got[(0, *idx)], got[(1, *idx)]) == _four_product(s, lo, hi), (s, lo, hi)


@given(_stacks((3,)), _stacks((4,)))
def test_outer_of_swapped_factors_is_the_transpose(a, b):
    with np.errstate(over="ignore"):
        ab = reference._outer(a, b)
        ba = reference._outer(b, a)
    assert np.array_equal(ba, ab.transpose(0, 2, 1))
    for i in range(3):
        for j in range(4):
            assert (ab[0, i, j], ab[1, i, j]) == _four_product(
                Interval(a[0, i], a[1, i]), b[0, j], b[1, j])


def test_hessian_drops_each_line_after_its_last_reader():
    # 191 lines: the peak was 8.8 MB while every line kept a 64x64 (lo, hi)
    # pair of arrays alive, and 0.2 MB now that each is freed after its last
    # reader has run and the 64 squares carry one-variable pairs
    n = 64
    cl = compile_expression(" + ".join(f"x{i}^2" for i in range(1, n + 1)), n)
    box = Box.from_bounds([(-1.0, 2.0)] * n)
    expected = interval_hessian(cl, box)
    tracemalloc.start()
    try:
        enc = interval_hessian(cl, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert np.array_equal(enc.lo, expected.lo) and np.array_equal(enc.hi, expected.hi)
    # 64 one-variable pairs lifted into one matrix
    assert np.array_equal(enc.lo, 2.0 * np.eye(n)) and np.array_equal(enc.hi, 2.0 * np.eye(n))


# -- the compiled Hessian pass: the cases above again, with every codelist's
# passes compiled from its first walk -------------------------------------

@pytest.fixture
def compiled(monkeypatch):
    monkeypatch.setattr(hessbound.bounds, "_COMPILE_AFTER", 0)


def test_compiled_hessian_matches_recorded_per_entry_interval_results(compiled):
    test_hessian_matches_recorded_per_entry_interval_results()


@pytest.mark.parametrize("src,n,bounds,text,line", [
    # a pair kernel's InvalidInterval
    ("(1e200*x1)^2", 1, [(1e-200, 2e-200)],
     "non-finite gradient or Hessian enclosure at codelist line 3", 3),
    # numpy's FloatingPointError in a stack
    ("(1e200*x1*x2)^2 + x3", 3, [(1e-200, 2e-200), (1, 2), (0, 1)],
     "non-finite gradient or Hessian enclosure at codelist line 6", 6),
    # the line's r'' overflows as well as its terms, and its error wins
    ("ln(1e150*x1^2)", 1, [(1e-155, 2e-155)],
     "pow overflow on [2.5e+159, 1e+160]^2 at codelist line 4", 4),
    ("ln(1e150*x1^2 + x2)", 2, [(1e-155, 2e-155), (1e-160, 2e-160)],
     "pow overflow on [1.66667e+159, 5e+159]^2 at codelist line 6", 6),
], ids=["pair", "stack", "r'' of a pair", "r'' of a stack"])
def test_a_compiled_hessian_pass_that_fails_raises_the_interpreters_error(compiled, src, n,
                                                                         bounds, text, line):
    cl = compile_expression(src, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # the pass is generated on the first walk and kept
            with pytest.raises(InvalidInterval) as info:
                interval_hessian(cl, Box.from_bounds(bounds))
            assert str(info.value) == text and info.value.line == line
    assert "_hessian" in vars(cl)


def test_compiled_hessian_drops_each_line_after_its_last_reader(compiled):
    test_hessian_drops_each_line_after_its_last_reader()


# -- point Hessians -------------------------------------------------------

@pytest.mark.parametrize("src,kind,line", [
    ("x2 + 1/x1", "recip", 3),
    ("x2*ln(x1)", "ln", 3),
    ("x2 + x1*sqrt(x1)", "sqrt", 3),
])
def test_point_hessians_name_the_line_of_a_sampled_domain_violation(src, kind, line):
    cl = compile_expression(src, 2)
    point_hessians(cl, [[1.0, 1.0], [0.5, 2.0]])  # inside the domain
    with pytest.raises(DomainViolation) as info:
        point_hessians(cl, [[1.0, 1.0], [0.0, 2.0]])
    assert (info.value.kind, info.value.line) == (kind, line)


def test_point_hessians_reject_points_that_are_not_a_p_by_n_array():
    cl = compile_expression("x1*x2", 2)
    with pytest.raises(InvalidArgument, match=r"^points must be a \(P, n\) array, got shape \(2,\)$"):
        point_hessians(cl, [1.0, 2.0])  # one point, not a batch of one
    with pytest.raises(InvalidArgument, match="^points are not real numbers: "):
        point_hessians(cl, [["a", "b"]])
    with pytest.raises(LengthMismatch):
        point_hessians(cl, [[1.0, 2.0, 3.0]])


def test_point_hessians_reject_complex_points():
    # the cast to float dropped the imaginary parts, with a ComplexWarning
    cl = compile_expression("x1*x2", 2)
    for points in (np.array([[1 + 1j, 2.0]]), [[1 + 1j, 2.0]], np.zeros((1, 2), complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument) as info:
                point_hessians(cl, points)
        assert str(info.value) == "points are not real numbers: complex entries"


def test_an_interval_matrix_and_sym_eigen_range_reject_complex_entries():
    # both cast to float and dropped the imaginary parts, with a ComplexWarning
    for build in (lambda: SymIntervalMatrix(np.array([[1 + 1j]]), np.array([[2 + 0j]])),
                  lambda: SymIntervalMatrix([[1.0]], [[2 + 0j]]),
                  lambda: sym_eigen_range(np.array([[1 + 1j, 0], [0, 2]]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument) as info:
                build()
        assert str(info.value) == "interval matrix entries are not real numbers: complex entries"


def test_point_hessians_reject_points_that_are_not_finite():
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidArgument, match="^points must have finite coordinates$"):
            point_hessians(cl, [[1.0, 2.0], [bad, 1.0]])


@pytest.mark.parametrize("src,n,point,want", [
    # r'' = 0 on an affine line: no 0·g gᵀ term, which would be 0·inf here
    ("1e200*x1 + 1", 1, [1.0], [[0.0]]),
    ("(1e200*x1 + 1)*x2", 2, [1.0, 1.0], [[0.0, 1e200], [1e200, 0.0]]),
])
def test_point_hessians_form_no_term_of_an_affine_line_with_r2_zero(src, n, point, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = point_hessians(compile_expression(src, n), [point])
    assert H.tolist() == [want]


@pytest.mark.parametrize("src,n,point,line", [
    ("exp(1000*x1)", 1, [1.0], 3),
    ("(1e200*x1)*(1e200*x2)", 2, [1.0, 1.0], 5),
    # the outer product of two gradients overflows, and nothing else does
    ("(1e160*x1)*(1e160*x2)", 2, [1e-200, 1e-200], 5),
    ("exp(1e160*x1)", 1, [1e-200], 3),
    # r'' = -1/(4 y^3) with y^3 underflowed to 0
    ("sqrt(x1)", 1, [1e-300], 2),
    # an exponent of 10^400 - 1 does not convert to a float
    pytest.param("x1^" + "9" * 400 + " + x2", 2, [0.7, 0.5], 3, id="x1^(10^400-1) + x2"),
])
@pytest.mark.parametrize("caller_settings", [{}, {"all": "ignore"}, {"all": "raise"}])
def test_point_hessians_raise_a_float_overflow_at_its_line(src, n, point, line, caller_settings):
    cl = compile_expression(src, n)
    with warnings.catch_warnings(), np.errstate(**caller_settings):
        warnings.simplefilter("error")
        with pytest.raises(InvalidInterval) as info:
            point_hessians(cl, [[0.5] * n, point])
    assert str(info.value) == f"non-finite point Hessian at codelist line {line}"
    assert info.value.line == line


def test_point_hessians_match_analytic():
    cl = compile_expression("x1^2 + x2*exp(x2)", 2)
    H = point_hessians(cl, [[0.3, 0.7]])[0]
    assert np.allclose(H, [[2, 0], [0, (2 + 0.7) * math.exp(0.7)]])


def test_point_hessians_match_the_enclosure_on_a_degenerate_box():
    entry = random_function(3, seed=77)
    cl = entry.compile()
    pts = grid_points(entry.domain, 3)
    batch = point_hessians(cl, pts)
    for p in range(0, len(pts), 7):
        enc = interval_hessian(cl, Box(Interval(v, v) for v in pts[p]))
        assert np.allclose(batch[p], enc.lo, atol=1e-10)
        assert np.allclose(batch[p], enc.hi, atol=1e-10)


# -- Gershgorin -----------------------------------------------------------

def test_gershgorin_golden():
    m = SymIntervalMatrix(np.diag([2.0, 2.0]), np.diag([2.0, 2.0]))
    assert gershgorin_bounds(m) == sym_eigen_range(np.diag([2.0, 2.0]))
    m2 = SymIntervalMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gershgorin_bounds(m2)
    assert g.lo == -1.0 and g.hi == 1.0


def test_gershgorin_uses_entry_magnitudes():
    m = SymIntervalMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]]),
                          np.array([[1.0, 0.5], [0.5, 1.0]]))
    g = gershgorin_bounds(m)
    assert g.lo == -1.0 and g.hi == 3.0


@pytest.mark.parametrize("method", [gershgorin_bounds, hertz_rohn_bounds])
@pytest.mark.parametrize("mat", [[[1.0, 0.0], [0.0, 1.0]], np.eye(2), None],
                         ids=["list", "ndarray", "None"])
def test_a_matrix_bound_of_anything_but_a_sym_interval_matrix_is_an_invalid_argument(method, mat):
    # both read mat.lo or mat.n: each leaked a bare AttributeError
    with pytest.raises(InvalidArgument) as info:
        method(mat)
    assert str(info.value) == f"expected a SymIntervalMatrix, got {type(mat).__name__}"


# -- vertex enumeration ---------------------------------------------------

def test_hertz_rohn_golden():
    m = SymIntervalMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.array([[0.0, 1.0], [1.0, 0.0]]))
    hr = hertz_rohn_bounds(m)
    assert abs(hr.lo + 1) < 1e-12 and abs(hr.hi - 1) < 1e-12
    m2 = SymIntervalMatrix(np.diag([2.0, 3.0]), np.diag([2.0, 3.0]))
    hr2 = hertz_rohn_bounds(m2)
    assert abs(hr2.lo - 2) < 1e-12 and abs(hr2.hi - 3) < 1e-12


def test_hertz_rohn_dimension_limit():
    n = 21
    m = SymIntervalMatrix(np.eye(n), np.eye(n))
    with pytest.raises(DimensionTooLarge):
        hertz_rohn_bounds(m)


def _random_sym_interval(rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    a = a + a.T
    b = b + b.T
    return SymIntervalMatrix(np.minimum(a, b), np.maximum(a, b))


# LAPACK's syevd returns the entry of a 1 x 1 matrix itself.  It solves a
# larger diagonal matrix exactly, too, unless its largest magnitude lies
# outside [2^-484.5, 2^484.5] (about [1.4e-146, 7.1e145]): it then scales the
# matrix by a factor that rounds.  So a 1 x 1 matrix takes any finite
# endpoints, subnormals and the largest floats among them, and a larger one
# endpoints of at most 1e145, with one of at least 1e-145 in each endpoint
# matrix (the diagonal of a vertex).
_MAX = np.finfo(float).max


@st.composite
def _diagonal_ends(draw):
    n = draw(st.integers(1, 4))
    bound = _MAX if n == 1 else 1e145
    ends = st.floats(-bound, bound)
    lo, hi = zip(*(sorted(draw(st.tuples(ends, ends))) for _ in range(n)))
    assume(n == 1 or min(max(map(abs, lo)), max(map(abs, hi))) >= 1e-145)
    return list(lo), list(hi)


@given(_diagonal_ends())
@example(([5e-324], [1.5e-323]))  # mid + rad was 2e-323
@example(([1.2055769063657978e308], [_MAX]))  # mid + rad overflowed
@example(([5e-324, 1.0], [1.5e-323, 2.0]))  # mid - rad was 0
def test_hertz_rohn_of_a_diagonal_interval_matrix_is_its_diagonal_hull(ends):
    lo, hi = ends
    m = SymIntervalMatrix(np.diag(lo), np.diag(hi))
    assert hertz_rohn_bounds(m) == Interval(min(lo), max(hi))


def test_hertz_rohn_chunking_does_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(41)
    mats = [_random_sym_interval(rng, n) for n in range(2, 7) for _ in range(4)]
    whole = [hertz_rohn_bounds(m) for m in mats]
    monkeypatch.setattr(reference, "_VERTEX_CHUNK", 3)
    assert [hertz_rohn_bounds(m) for m in mats] == whole


def test_cached_sign_patterns_give_the_bounds_of_fresh_ones(monkeypatch):
    # n = 13 has 4096 vertices, two chunks, and is not cached
    rng = np.random.default_rng(13)
    mats = [_random_sym_interval(rng, n) for n in range(1, 14)]
    monkeypatch.setattr(reference, "_SIGN_PATTERNS", {})
    for n, m in enumerate(mats, start=1):
        reference._SIGN_PATTERNS.clear()
        fresh = hertz_rohn_bounds(m)
        assert list(reference._SIGN_PATTERNS) == ([(n, 0, 1 << (n - 1))] if n <= 12 else [])
        cached = hertz_rohn_bounds(m)
        assert (cached.lo.hex(), cached.hi.hex()) == (fresh.lo.hex(), fresh.hi.hex())
    reference._SIGN_PATTERNS.clear()
    for m in mats:
        hertz_rohn_bounds(m)
    patterns = reference._SIGN_PATTERNS
    assert sorted(patterns) == [(n, 0, 1 << (n - 1)) for n in range(1, 13)]
    assert sum(p.nbytes for p in patterns.values()) < 1 << 20
    assert not any(p.flags.writeable for p in patterns.values())


# signed zeros of the bounds, as recorded before the endpoints became one stack
@pytest.mark.parametrize("lo,hi,want", [
    ([[-0.0]], [[0.0]], ("-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0", "0x0.0p+0")),
    ([[-0.0]], [[-0.0]], ("-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0")),
    ([[0.0, -0.0], [-0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]],
     ("-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ([[-1.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [0.0, -0.0]],
     ("-0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+0", "-0x0.0p+0")),
], ids=["diagonal", "negative zero", "mixed zeros", "zeros beside -1"])
def test_the_bounds_keep_the_sign_of_zeros(lo, hi, want):
    m = SymIntervalMatrix(np.array(lo), np.array(hi))
    g, h = gershgorin_bounds(m), hertz_rohn_bounds(m)
    assert (g.lo.hex(), g.hi.hex(), h.lo.hex(), h.hi.hex()) == want


def test_hertz_rohn_bounds_random_members_and_sits_inside_gershgorin():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = _random_sym_interval(rng, n)
        hr = hertz_rohn_bounds(m)
        g = gershgorin_bounds(m)
        assert g.lo - 1e-9 <= hr.lo and hr.hi <= g.hi + 1e-9
        mid, rad = m.mid_rad()
        for _ in range(50):
            t = rng.uniform(-1, 1, size=(n, n))
            t = 0.5 * (t + t.T)
            w = np.linalg.eigvalsh(mid + t * rad)
            assert hr.lo - 1e-9 <= w[0] and w[-1] <= hr.hi + 1e-9


def test_hertz_rohn_endpoints_attained_at_vertices():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = _random_sym_interval(rng, n)
        hr = hertz_rohn_bounds(m)
        lo = math.inf
        hi = -math.inf
        # brute force over all 2^(n(n+1)/2) symmetric endpoint choices
        idx = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in range(1 << len(idx)):
            v = np.zeros((n, n))
            for b, (i, j) in enumerate(idx):
                v[i, j] = v[j, i] = m.hi[i, j] if bits >> b & 1 else m.lo[i, j]
            w = np.linalg.eigvalsh(v)
            lo = min(lo, w[0])
            hi = max(hi, w[-1])
        assert abs(hr.lo - lo) < 1e-9 and abs(hr.hi - hi) < 1e-9


# -- sym_eigen_range (LAPACK) ---------------------------------------------

def test_sym_eigen_range_2x2_characteristic_polynomial():
    # [[a, c], [c, b]] has eigenvalues (a+b)/2 -+ sqrt(((a-b)/2)^2 + c^2)
    a, b, c = 1.0, -2.0, 0.75
    r = sym_eigen_range(np.array([[a, c], [c, b]]))
    half = 0.5 * (a + b)
    disc = math.sqrt((0.5 * (a - b)) ** 2 + c * c)
    assert abs(r.lo - (half - disc)) < 1e-10
    assert abs(r.hi - (half + disc)) < 1e-10


def test_sym_eigen_range_3x3_known_spectrum():
    # circulant-like matrix with spectrum {0, 3, 3} after shift: use
    # ones(3) which has eigenvalues {0, 0, 3}
    r = sym_eigen_range(np.ones((3, 3)))
    assert abs(r.lo) < 1e-10 and abs(r.hi - 3) < 1e-10


def test_sym_eigen_range_matches_numpy_randomized():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) * 10.0 ** int(rng.integers(-3, 4))
        a = a + a.T
        r = sym_eigen_range(a)
        w = np.linalg.eigvalsh(a)
        tol = 1e-9 * max(1.0, np.abs(w).max())
        assert abs(r.lo - w[0]) < tol and abs(r.hi - w[-1]) < tol


def test_sym_eigen_range_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen_range(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_range_solves_the_matrix_as_given():
    # 0.5 * 5e-324 + 0.5 * 5e-324 would be 0
    assert sym_eigen_range([[5e-324]]) == Interval(5e-324, 5e-324)


# -- the references under the caller's strictest settings ------------------
# Each reference routine sets numpy's error handling itself, or leaves its only
# float arithmetic to eigvalsh, which sets its own, so a caller who
# turns warnings into errors, or has numpy raise on every float event, sees
# the same result or a package error, never a RuntimeWarning or a bare
# FloatingPointError.

@pytest.fixture(params=["warnings", "numpy"])
def strict(request):
    with warnings.catch_warnings(), np.errstate(all="raise" if request.param == "numpy" else "warn"):
        warnings.simplefilter("error")
        yield


# every Hessian entry is finite (at most 5e307), and a row sum of them is not
GERSHGORIN_OVERFLOW = ("5e307*x1*(x2 + x3 + x4 + x5)", Box.from_bounds([(0, 1)] + [(0, 0.1)] * 4))
# y'' = 1.6e308 on the whole box: lo + hi would overflow in a midpoint
MIDPOINT_OVERFLOW = ("8e307*x1^2", Box.from_bounds([(0, 1e-100)]))
# subnormal endpoints, whose midpoints and radii would underflow
SUBNORMAL = SymIntervalMatrix([[3e-308, 1e-310], [1e-310, 5e-324]],
                              [[5e-308, 1e-310], [1e-310, 1e-323]])


def test_gershgorin_overflow_is_an_invalid_interval(strict):
    src, box = GERSHGORIN_OVERFLOW
    enc = interval_hessian(compile_expression(src, 5), box)
    assert np.isfinite(enc.hi).all() and enc.hi.max() == 5e307
    with pytest.raises(InvalidInterval, match="^non-finite Gershgorin disc$"):
        gershgorin_bounds(enc)


def test_hertz_rohn_midpoint_does_not_overflow(strict):
    src, box = MIDPOINT_OVERFLOW
    cl = compile_expression(src, 1)
    enc = interval_hessian(cl, box)
    want = Interval(1.6e308, 1.6e308)
    assert hertz_rohn_bounds(enc) == gershgorin_bounds(enc) == want
    assert eval_original(cl, box).eigen == eval_improved(cl, box).eigen == want
    mid, rad = enc.mid_rad()
    assert mid.tolist() == [[1.6e308]] and rad.tolist() == [[0.0]]


def test_hertz_rohn_vertex_next_to_the_largest_float_is_exact(strict):
    # mid + rad would round one unit above hi, the largest float; a vertex takes hi itself
    m = SymIntervalMatrix([[1.2055769063657978e308]], [[_MAX]])
    assert hertz_rohn_bounds(m) == Interval(1.2055769063657978e308, _MAX)


def test_hertz_rohn_underflow_keeps_the_result(strict):
    with np.errstate(all="ignore"):
        want = hertz_rohn_bounds(SUBNORMAL)
    assert hertz_rohn_bounds(SUBNORMAL).hi.hex() == want.hi.hex()
    assert hertz_rohn_bounds(SUBNORMAL).lo.hex() == want.lo.hex()
    g = gershgorin_bounds(SUBNORMAL)
    assert g.lo <= want.lo and want.hi <= g.hi


@pytest.mark.parametrize("m", [
    np.zeros((0, 0)),
    np.zeros((2, 3)),
    [["a"]],
    [[10 ** 400]],
    [[math.nan]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [0.5, 0.0]],
    [[0.0, 1e308], [-1e308, 0.0]],
], ids=["empty", "2x3", "string", "huge int", "nan", "inf", "asymmetric",
        "asymmetry past the float range"])
def test_sym_eigen_range_raises_the_errors_of_sym_interval_matrix(m, strict):
    with pytest.raises(HessboundError) as want:
        SymIntervalMatrix(m, m)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        sym_eigen_range(m)


def test_an_asymmetry_past_the_float_range_is_not_symmetric(strict):
    # lo - lo.T overflows inside np.allclose
    with pytest.raises(NotSymmetric, match="^endpoint matrices must be symmetric$"):
        SymIntervalMatrix([[0.0, 1e308], [-1e308, 0.0]], [[0.0, 1e308], [1e308, 0.0]])


def test_sym_eigen_range_of_a_large_matrix(strict):
    assert sym_eigen_range([[1e308, 0.0], [0.0, 1.0]]) == Interval(1.0, 1e308)


def test_run_compare_skips_a_gershgorin_overflow(strict):
    src, box = GERSHGORIN_OVERFLOW
    # the Hessian is constant, so every sub-box overflows row 1's disc
    result = run_compare([CorpusEntry("wide", 5, box, src)], boxes_per_function=3)
    assert result.records == []
    assert [s.reason for s in result.skips] == ["InvalidInterval: non-finite Gershgorin disc"] * 3
