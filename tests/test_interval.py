"""Interval arithmetic and the spectral operators."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hessbound import (
    Box,
    DomainViolation,
    EmptySlice,
    Interval,
    InvalidInterval,
    LengthMismatch,
    ONE,
    ZERO,
    hull,
    lambda_s,
    lambda_star,
    lambda_t,
    point,
    zero_widen,
)
from hessbound.bounds import _grad_scale


def iv(lo, hi):
    return Interval(lo, hi)


# -- construction ---------------------------------------------------------

def test_rejects_inverted_endpoints():
    with pytest.raises(InvalidInterval):
        Interval(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite(bad):
    with pytest.raises(InvalidInterval):
        Interval(0.0, bad)


@pytest.mark.parametrize("lo,hi,message", [
    (math.nan, 1.0, "non-finite endpoints [nan, 1.0]"),
    (0.0, math.inf, "non-finite endpoints [0.0, inf]"),
    (-math.inf, 0.0, "non-finite endpoints [-inf, 0.0]"),
    (math.nan, math.nan, "non-finite endpoints [nan, nan]"),
    (2.0, 1.0, "lo > hi in [2.0, 1.0]"),
    (2, 1, "lo > hi in [2.0, 1.0]"),
])
def test_rejection_messages(lo, hi, message):
    with pytest.raises(InvalidInterval) as info:
        Interval(lo, hi)
    assert str(info.value) == message


def test_endpoints_are_coerced_to_float():
    for lo, hi in ((1, 2), (np.float64(1.0), np.float64(2.0)), (True, 2), (np.int64(1), 2.0)):
        x = Interval(lo, hi)
        assert type(x.lo) is float and type(x.hi) is float
        assert x == Interval(1.0, 2.0)


def test_interval_is_frozen_slotted_and_hashable():
    x = Interval(1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.lo = 0.0
    assert not hasattr(x, "__dict__")
    assert hash(x) == hash(Interval(1, 2))
    assert len({x, Interval(1, 2), Interval(0, 2)}) == 2


# -- elementary operations: golden values --------------------------------

def test_add_golden():
    assert iv(0, 1) + iv(0, 1) == iv(0, 2)
    assert iv(-1, 2) + iv(-3, 1) == iv(-4, 3)


def test_mul_golden():
    assert iv(-1, 2) * iv(-3, 1) == iv(-6, 3)
    assert iv(0, 1) * iv(0, 1) == iv(0, 1)
    assert iv(-2, -1) * iv(-3, -2) == iv(2, 6)


def test_mul_matches_endpoint_product_oracle():
    cases = [(-2.5, -1), (-1, 3), (0, 0), (0.5, 2), (-4, 0)]
    for (a, b), (c, d) in itertools.product(cases, cases):
        got = iv(a, b) * iv(c, d)
        prods = [a * c, a * d, b * c, b * d]
        assert got == iv(min(prods), max(prods))


def test_recip_golden_and_domain():
    assert iv(2, 4).recip() == iv(0.25, 0.5)
    assert iv(-4, -2).recip() == iv(-0.5, -0.25)
    with pytest.raises(DomainViolation):
        iv(-1, 1).recip()
    with pytest.raises(DomainViolation):
        iv(0, 1).recip()


def test_pow_branches():
    assert iv(-2, 3).pow(2) == iv(0, 9)
    assert iv(-2, 3).pow(3) == iv(-8, 27)
    assert iv(-3, -2).pow(2) == iv(4, 9)
    assert iv(2, 3).pow(2) == iv(4, 9)
    assert iv(-2, 3).pow(0) == ONE
    assert iv(-2, 3).pow(1) == iv(-2, 3)


def test_pow_overflow_is_invalid_interval():
    with pytest.raises(InvalidInterval):
        iv(1e200, 1e201).pow(2)
    with pytest.raises(InvalidInterval):
        iv(-1e201, 1.0).pow(3)


def test_sqrt_golden_and_domain():
    assert iv(4, 9).sqrt() == iv(2, 3)
    assert iv(0, 4).sqrt() == iv(0, 2)
    with pytest.raises(DomainViolation):
        iv(-1, 1).sqrt()


def test_exp_ln_golden():
    e = iv(0, 1).exp()
    assert e.lo == 1.0 and abs(e.hi - math.e) < 1e-15
    l = iv(1, math.e).ln()
    assert l.lo == 0.0 and abs(l.hi - 1.0) < 1e-15
    with pytest.raises(DomainViolation):
        iv(0, 1).ln()
    with pytest.raises(InvalidInterval):
        iv(0, 1e6).exp()


def test_affine_golden():
    assert iv(0, 1).add_const(-2.5) == iv(-2.5, -1.5)
    assert iv(-1, 2).scale(3.0) == iv(-3, 6)
    assert iv(-1, 2).scale(-3.0) == iv(-6, 3)
    assert iv(-1, 2).scale(0.0) == ZERO


# -- inclusion soundness (property) ---------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def intervals(draw, lo=-50, hi=50):
    a = draw(st.floats(min_value=lo, max_value=hi))
    b = draw(st.floats(min_value=lo, max_value=hi))
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals(), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_add_mul_inclusion_soundness(x, y, s, t):
    px = x.lo + s * (x.hi - x.lo)
    py = y.lo + t * (y.hi - y.lo)
    assert (x + y).contains(px + py, slack=1e-9)
    assert (x * y).contains(px * py, slack=1e-9)


@given(intervals(lo=0.1, hi=40), st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=4))
def test_unary_inclusion_soundness(x, s, m):
    p = x.lo + s * (x.hi - x.lo)
    assert x.pow(m).contains(p**m, slack=1e-6)
    assert x.recip().contains(1 / p, slack=1e-9)
    assert x.sqrt().contains(math.sqrt(p), slack=1e-9)
    assert x.exp().contains(math.exp(p), slack=1e-6 * math.exp(x.hi))
    assert x.ln().contains(math.log(p), slack=1e-9)


# -- Box ------------------------------------------------------------------

def test_box_basics():
    b = Box.from_bounds([(0, 1), (-1, 2)])
    assert len(b) == 2
    assert b[1] == iv(-1, 2)
    assert b.contains_point((0.5, 0.0))
    assert not b.contains_point((1.5, 0.0))
    assert b.midpoint() == (0.5, 0.5)
    assert len(b.vertices()) == 4
    with pytest.raises(EmptySlice):
        Box([])
    with pytest.raises(LengthMismatch):
        b.contains_point((0.5,))


@pytest.mark.parametrize("dims,message", [
    # floats instead of intervals
    ([0.5, 1.0], "box component 1 is not an Interval: 0.5"),
    # one interval: it unpacks to its endpoints
    (Interval(0, 1), "box component 1 is not an Interval: 0.0"),
    ([iv(0, 1), (0.0, 1.0)], "box component 2 is not an Interval: (0.0, 1.0)"),
])
def test_box_rejects_a_component_that_is_not_an_interval(dims, message):
    with pytest.raises(InvalidInterval) as info:
        Box(dims)
    assert str(info.value) == message


# -- spectral operators ---------------------------------------------------

def test_lambda_s_single_component_is_exact_square():
    assert lambda_s(Box([iv(1, 1)])) == iv(1, 1)
    assert lambda_s(Box([iv(-2, 3)])) == iv(0, 9)


def test_lambda_s_golden():
    assert lambda_s(Box([iv(1, 1), iv(0, 0)])) == iv(0, 1)
    assert lambda_s(Box([iv(0, 2), iv(0, 0)])) == iv(0, 4)
    assert lambda_s(Box([iv(-1, 2), iv(1, 3)])) == iv(0, 13)


def test_lambda_s_soundness_by_sampling():
    rng = np.random.default_rng(7)
    b = Box([iv(-1, 2), iv(0.5, 3), iv(-2, -1)])
    enc = lambda_s(b)
    for _ in range(200):
        v = np.array([rng.uniform(d.lo, d.hi) for d in b])
        eigs = np.linalg.eigvalsh(np.outer(v, v))
        assert enc.lo - 1e-9 <= eigs.min() and eigs.max() <= enc.hi + 1e-9


def test_lambda_t_single_component():
    assert lambda_t(Box([iv(1, 2)]), Box([iv(3, 4)])) == iv(6, 16)


def test_lambda_t_golden():
    # u in [1,1]x[0,0], v in [0,0]x[1,1]: eigenvalues of u v^T + v u^T are +-1
    got = lambda_t(Box([ONE, ZERO]), Box([ZERO, ONE]))
    assert got == iv(-1, 1)


def test_lambda_t_length_mismatch():
    with pytest.raises(LengthMismatch):
        lambda_t(Box([ONE]), Box([ONE, ZERO]))


def test_lambda_t_soundness_by_sampling():
    rng = np.random.default_rng(11)
    a = Box([iv(-1, 2), iv(0, 1), iv(-3, 0)])
    b = Box([iv(1, 2), iv(-1, 1), iv(0, 2)])
    enc = lambda_t(a, b)
    for _ in range(200):
        u = np.array([rng.uniform(d.lo, d.hi) for d in a])
        v = np.array([rng.uniform(d.lo, d.hi) for d in b])
        eigs = np.linalg.eigvalsh(np.outer(u, v) + np.outer(v, u))
        assert enc.lo - 1e-9 <= eigs.min() and eigs.max() <= enc.hi + 1e-9


def test_lambda_t_symmetric_in_arguments():
    a = Box([iv(-1, 2), iv(0, 1)])
    b = Box([iv(1, 3), iv(-2, 0)])
    assert lambda_t(a, b) == lambda_t(b, a)


@st.composite
def sparse_operands(draw):
    """(n, indices, a, b): components of a and b at the ascending 0-based
    ``indices`` of an n-vector, ZERO where only the other one is nonzero."""
    n = draw(st.integers(min_value=1, max_value=6))
    idx = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    comp = st.one_of(intervals(lo=-1e3, hi=1e3), st.just(ZERO))
    a = [draw(comp) for _ in idx]
    b = [draw(comp) for _ in idx]
    return n, idx, a, b


def padded(n, idx, comps):
    full = [ZERO] * n
    for j, c in zip(idx, comps):
        full[j] = c
    return Box(full)


def hexes(x):
    return x.lo.hex(), x.hi.hex()


@given(sparse_operands())
def test_lambda_s_t_on_components_equal_the_zero_padded_form(case):
    n, idx, a, b = case
    assert hexes(lambda_s(a, n)) == hexes(lambda_s(padded(n, idx, a)))
    assert hexes(lambda_t(a, b, n)) == hexes(lambda_t(padded(n, idx, a), padded(n, idx, b)))


def test_lambda_s_t_dimension_decides_the_exact_square():
    x = iv(-2, 3)
    # one dimension: exact square, also when the component is left out
    assert lambda_s([x], 1) == iv(0, 9)
    assert lambda_s([], 1) == ZERO
    assert lambda_t([x], [x], 1) == iv(-12, 18)
    assert lambda_t([], [], 1) == ZERO
    # one component of a longer vector: the rank-1 bound, not the square
    assert lambda_s([x], 3) == iv(0, 9) == lambda_s(Box([x, ZERO, ZERO]))
    assert lambda_s([iv(2, 3)], 2) == iv(0, 9) != lambda_s([iv(2, 3)], 1)
    assert lambda_t([iv(2, 3)], [iv(2, 3)], 2) == lambda_t(Box([iv(2, 3), ZERO]),
                                                           Box([iv(2, 3), ZERO]))
    assert lambda_t([iv(2, 3)], [iv(2, 3)], 2) != lambda_t([iv(2, 3)], [iv(2, 3)], 1)
    with pytest.raises(LengthMismatch):
        lambda_s([x, x], 1)
    with pytest.raises(LengthMismatch):
        lambda_t([x, x], [x, x], 1)


def test_hull():
    assert hull(iv(0, 1), iv(2, 3)) == iv(0, 3)
    assert hull(iv(-1, 5), iv(0, 2)) == iv(-1, 5)


def test_lambda_star_golden():
    # point matrix [[1, 2], [2, 1]] has eigenvalues -1 and 3
    got = lambda_star(point(1), point(1), point(2))
    assert got == iv(-1, 3)


def test_lambda_star_tight_against_vertex_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vals = sorted(rng.uniform(-3, 3, 2))
        a = iv(*vals)
        vals = sorted(rng.uniform(-3, 3, 2))
        b = iv(*vals)
        vals = sorted(rng.uniform(-3, 3, 2))
        c = iv(*vals)
        enc = lambda_star(a, b, c)
        lo = math.inf
        hi = -math.inf
        for aa in (a.lo, a.hi):
            for bb in (b.lo, b.hi):
                for cc in (c.lo, c.hi):
                    w = np.linalg.eigvalsh(np.array([[aa, cc], [cc, bb]]))
                    lo = min(lo, w[0])
                    hi = max(hi, w[1])
        # sound: encloses all vertex matrices ...
        assert enc.lo <= lo + 1e-9 and hi - 1e-9 <= enc.hi
        # ... and tight: the endpoints are attained at vertex matrices
        assert abs(enc.lo - lo) < 1e-9 and abs(enc.hi - hi) < 1e-9


def test_lambda_star_overflow_is_invalid_interval():
    with pytest.raises(InvalidInterval):
        lambda_star(iv(1e160, 1e160), ZERO, ZERO)


def test_zero_widen():
    assert zero_widen(iv(1, 2)) == iv(0, 2)
    assert zero_widen(iv(-2, -1)) == iv(-2, 0)
    assert zero_widen(iv(-1, 1)) == iv(-1, 1)
    assert zero_widen(zero_widen(iv(3, 4))) == zero_widen(iv(3, 4))


# -- endpoint fast paths, bit for bit ---------------------------------------

# signed zeros, points and negative factors are where a reordered min/max or
# a dropped product would show, so the draws lean on them
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, -1e-300, 1e150, -1e150]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def edge_intervals(draw):
    a = draw(edge_floats)
    if draw(st.booleans()):
        return point(a)  # zero width
    b = draw(edge_floats)
    return Interval(a, b) if a <= b else Interval(b, a)  # [0.0, -0.0] is kept


def product_hexes(x, y):
    p = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return min(p).hex(), max(p).hex()


# zero products of both signs, from signed-zero endpoints and from underflow
@example(point(2.0), [Interval(-0.0, 0.0), Interval(0.0, -0.0), Interval(-1e-300, 1e-300)])
@example(point(-2.0), [Interval(-0.0, 0.0), Interval(-1e-300, 1e-300)])
@example(Interval(-0.0, 0.0), [Interval(-1.0, 1.0), point(-3.0), Interval(0.0, -0.0)])
@given(edge_intervals(), st.lists(edge_intervals(), max_size=6))
def test_grad_scale_equals_the_operator_and_the_endpoint_products(f, xs):
    # the engines' gradient kernel, on (lo, hi) pairs keyed by variable index
    expected = [hexes(f * x) for x in xs]
    scaled = _grad_scale({k: (x.lo, x.hi) for k, x in enumerate(xs)}, f)
    assert [(lo.hex(), hi.hex()) for lo, hi in scaled.values()] == expected
    assert expected == [product_hexes(f, x) for x in xs]


def sum_sq_mag(comps):
    s = 0.0
    for d in comps:
        s += max(d.lo * d.lo, d.hi * d.hi)
    return s


@example([(Interval(-0.0, 0.0), point(2.0)), (point(-1e-300), Interval(-1e-300, 1e-300))])
@given(st.lists(st.tuples(edge_intervals(), edge_intervals()), min_size=2, max_size=6))
def test_lambda_s_t_loops_equal_the_per_pair_formulas(pairs):
    a = [u for u, _ in pairs]
    b = [v for _, v in pairs]
    try:
        beta = math.sqrt(sum_sq_mag(a) * sum_sq_mag(b))
        lo, hi = -beta, beta
        for u, v in zip(a, b):
            p = u * v
            lo, hi = lo + p.lo, hi + p.hi
        expected = hexes(Interval(lo, hi))
    except InvalidInterval as err:
        with pytest.raises(InvalidInterval, match=re.escape(str(err))):
            lambda_t(a, b)
        return
    assert hexes(lambda_t(a, b)) == expected
    assert hexes(lambda_s(a)) == (0.0.hex(), sum_sq_mag(a).hex())


def test_lambda_s_adds_squares_left_to_right():
    # 1e16 + 1 rounds back to 1e16 four times; a compensated sum (Python
    # 3.12's sum() over floats) would give 1e16 + 4
    assert lambda_s([point(1e8)] + [ONE] * 4).hi == 1e16


def test_lambda_t_pair_overflow_names_the_pair_product():
    # the first pair product is [-inf, -inf]; the sum of all pairs would be nan
    a = [iv(-1e200, -1e200), iv(0, 1)]
    b = [iv(1e200, 1e200), iv(0, 1)]
    with pytest.raises(InvalidInterval, match=r"^non-finite endpoints \[-inf, -inf\]$"):
        lambda_t(a, b)
