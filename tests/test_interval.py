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
    HessboundError,
    Interval,
    InvalidArgument,
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
from hessbound.interval import (
    pair_add,
    pair_exp,
    pair_hull,
    pair_lambda_s,
    pair_lambda_star,
    pair_lambda_t,
    pair_ln,
    pair_mul,
    pair_pow,
    pair_recip,
    pair_scale,
    pair_sqrt,
)


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


@pytest.mark.parametrize("build,message", [
    (lambda: Interval("a", 1), "interval endpoint 'a' is not a real number"),
    (lambda: Interval(0.0, None), "interval endpoint None is not a real number"),
    (lambda: iv(1, 2).pow(-1), "exponent must be a natural number, got -1"),
    (lambda: iv(1, 2).pow(2.5), "exponent must be a natural number, got 2.5"),
    (lambda: iv(1, 2).pow(math.nan), "exponent must be a natural number, got nan"),
    (lambda: iv(1, 2).pow("2"), "exponent must be a natural number, got '2'"),
])
def test_a_bad_endpoint_or_exponent_is_a_value_error_of_the_package(build, message):
    with pytest.raises(InvalidArgument) as info:
        build()
    assert isinstance(info.value, HessboundError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


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


def test_box_of_a_non_iterable_is_an_invalid_interval():
    with pytest.raises(InvalidInterval, match="^a box is built from Interval components, got 5$"):
        Box(5)


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


def _outcome_or_error(f):
    try:
        lo, hi = f()
    except InvalidInterval as err:
        return str(err)
    return lo.hex(), hi.hex()


# zero components of both signs, and ones whose squares underflow (β = 0)
# or overflow (β = inf), next to ordinary ones
sparse_components = st.one_of(edge_intervals(), st.sampled_from(
    [ZERO, Interval(-0.0, -0.0), point(1e-170), point(-1e-170), point(1e160), point(-1e160)]))


# β = 0: the left-out pairs' +0.0 turns the lower end -0.0 into +0.0, then the +0.0 of n
@example({1: ZERO}, {2: point(-1.0)}, 0)
@example({1: point(-1.0)}, {2: Interval(-0.0, -0.0)}, 1)
# β = 0: each term's products tie at -0.0 and 0.0, and the first, -0.0, is its minimum
@example({1: Interval(-0.0, 0.0), 2: Interval(-0.0, 0.0)}, {1: ZERO, 2: ZERO}, 0)
@given(st.dictionaries(st.integers(1, 6), sparse_components, max_size=6),
       st.dictionaries(st.integers(1, 6), sparse_components, max_size=6),
       st.integers(0, 2))
def test_lambda_t_on_supports_equals_the_listed_union(a, b, extra):
    # the operands' own supports, as the engines' sparse gradients give them
    supports = tuple(sorted(a)), tuple(sorted(b))
    pa, pb = ({j: (x.lo, x.hi) for j, x in g.items()} for g in (a, b))
    union = sorted({*a, *b})
    n = max(len(union) + extra, 1)
    listed = [a.get(j, ZERO) for j in union], [b.get(j, ZERO) for j in union]
    want = _outcome_or_error(lambda: tuple(Interval(*_lambda_t(*listed, n))))
    assert _outcome_or_error(lambda: pair_lambda_t(pa, pb, supports, n)) == want
    assert _outcome_or_error(lambda: lambda_t(*listed, n)) == want
    if len(union) > 1:
        with pytest.raises(LengthMismatch, match=f"^{len(union)} components in dimension"):
            pair_lambda_t(pa, pb, supports, len(union) - 1)


# -- the endpoint kernels, bit for bit --------------------------------------

# The interval operators' formulas written out on the endpoints, each giving
# the raw (lo, hi) or raising the operator's domain or overflow error; the
# validity check is Interval's own.

def _recip(x):
    if x.lo <= 0.0 <= x.hi:
        raise DomainViolation("recip", x)
    return 1.0 / x.hi, 1.0 / x.lo


def _sqrt(x):
    if x.lo < 0.0:
        raise DomainViolation("sqrt", x)
    return math.sqrt(x.lo), math.sqrt(x.hi)


def _exp(x):
    try:
        return math.exp(x.lo), math.exp(x.hi)
    except OverflowError:
        raise InvalidInterval(f"exp overflow on {x}") from None


def _ln(x):
    if x.lo <= 0.0:
        raise DomainViolation("ln", x)
    return math.log(x.lo), math.log(x.hi)


def _pow(x, m):
    if m == 0:
        return 1.0, 1.0
    if m == 1:
        return x.lo, x.hi
    try:
        lo, hi = x.lo ** m, x.hi ** m
    except OverflowError:
        raise InvalidInterval(f"pow overflow on {x}^{m}") from None
    if x.lo > 0 or m % 2 == 1:
        return lo, hi
    return (hi, lo) if x.hi < 0 else (0.0, max(lo, hi))


def _products(x, y):
    p = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return min(p), max(p)


def _lambda_s(comps, n):
    if n < len(comps):
        raise LengthMismatch(f"{len(comps)} components in dimension {n}")
    if n == 1:
        return _pow(comps[0], 2) if comps else (0.0, 0.0)
    return 0.0, sum_sq_mag(comps)


def _lambda_t(a, b, n):
    """λ_t of the components a and b, listed on the same indices."""
    if n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        p = Interval(*_products(a[0], b[0])) if a else ZERO
        return 2.0 * p.lo, 2.0 * p.hi
    beta = math.sqrt(sum_sq_mag(a) * sum_sq_mag(b))
    lo, hi = -beta, beta
    for u, v in zip(a, b):
        p, q = _products(u, v)
        lo, hi = lo + p, hi + q
    if len(a) < n:
        lo += 0.0
    if not -math.inf < lo <= hi < math.inf:
        for u, v in zip(a, b):
            Interval(*_products(u, v))  # the error of the first overflowing product
    return lo, hi


def _lambda_star(a, b, c):
    d = 4.0 * max(c.lo * c.lo, c.hi * c.hi)
    try:
        return (0.5 * (a.lo + b.lo - math.sqrt((a.lo - b.lo) ** 2 + d)),
                0.5 * (a.hi + b.hi + math.sqrt((a.hi - b.hi) ** 2 + d)))
    except OverflowError:
        raise InvalidInterval(f"lambda_star overflow on {a}, {b}, {c}") from None


# name: (kernel on pairs, operator on Intervals, endpoint formula)
BINARY_KERNELS = {
    "add": (pair_add, lambda x, y: x + y, lambda x, y: (x.lo + y.lo, x.hi + y.hi)),
    "sub": (lambda x, y: pair_add(x, pair_scale(y, -1.0)), lambda x, y: x - y,
            lambda x, y: (x.lo - y.hi, x.hi - y.lo)),
    "mul": (pair_mul, lambda x, y: x * y, _products),
    "hull": (pair_hull, hull, lambda x, y: (min(x.lo, y.lo), max(x.hi, y.hi))),
}
UNARY_KERNELS = {
    "recip": (pair_recip, Interval.recip, _recip),
    "sqrt": (pair_sqrt, Interval.sqrt, _sqrt),
    "exp": (pair_exp, Interval.exp, _exp),
    "ln": (pair_ln, Interval.ln, _ln),
    "zero_widen": (lambda x: pair_hull(x, (0.0, 0.0)), zero_widen,
                   lambda x: (min(x.lo, 0.0), max(x.hi, 0.0))),
    "neg": (lambda x: pair_scale(x, -1.0), lambda x: -x, lambda x: (-x.hi, -x.lo)),
}
CONSTANT_KERNELS = {
    "scale": (pair_scale, Interval.scale,
              lambda x, c: (c * x.lo, c * x.hi) if c >= 0 else (c * x.hi, c * x.lo)),
    "add_const": (lambda x, c: pair_add(x, (c, c)), Interval.add_const,
                  lambda x, c: (x.lo + c, x.hi + c)),
}


def _result(compute):
    """The result as hex endpoints, or the error's type, text and interval type."""
    try:
        lo, hi = compute()
    except HessboundError as err:
        return type(err).__name__, str(err), type(getattr(err, "interval", None)).__name__
    return lo.hex(), hi.hex()


# large endpoints overflow products, sums, pow and exp
kernel_floats = st.one_of(
    edge_floats, st.sampled_from([1e155, -1e155, 1e308, -1e308, 709.0, 710.0, 1e-320]))


@st.composite
def kernel_intervals(draw):
    a = draw(kernel_floats)
    if draw(st.booleans()):
        return point(a)
    b = draw(kernel_floats)
    return Interval(a, b) if a <= b else Interval(b, a)


@example(Interval(-0.0, 0.0), Interval(0.0, -0.0), -0.0, 2)
@example(Interval(-1.0, -0.0), Interval(-1.0, 0.0), 0.0, 0)  # a tie of -0.0 and 0.0 products
@example(point(-2.0), Interval(-0.0, 0.0), 0.0, 3)
@example(Interval(1e155, 1e308), point(1e155), 1e300, 2)
@example(Interval(709.0, 710.0), Interval(-1.0, 0.0), -1e308, 4)
# -0.0 and 0.0 products tie at the maximum of a product: the chain keeps the
# first, as max() does
@example(Interval(-1.0, 0.0), Interval(0.0, 2.0), 0.0, 3)
@given(kernel_intervals(), kernel_intervals(),
       st.one_of(kernel_floats, st.integers(-3, 3)), st.integers(0, 6))
def test_kernels_equal_the_interval_operators_bit_for_bit(x, y, c, m):
    px, py = (x.lo, x.hi), (y.lo, y.hi)

    def check(name, kernel, operator, oracle):
        want = _result(lambda: Interval(*oracle()))
        assert _result(kernel) == want, (name, x, y, c, m)
        assert _result(operator) == want, (name, x, y, c, m)

    for name, (kernel, operator, oracle) in BINARY_KERNELS.items():
        check(name, lambda: kernel(px, py), lambda: operator(x, y), lambda: oracle(x, y))
    for name, (kernel, operator, oracle) in UNARY_KERNELS.items():
        check(name, lambda: kernel(px), lambda: operator(x), lambda: oracle(x))
    for name, (kernel, operator, oracle) in CONSTANT_KERNELS.items():
        check(name, lambda: kernel(px, c), lambda: operator(x, c), lambda: oracle(x, c))
    check("pow", lambda: pair_pow(px, m), lambda: x.pow(m), lambda: _pow(x, m))
    # the λ kernels, also on sparse supports; m is the dimension, so one below
    # the component count raises the length error
    for name, kernel, wrapper, oracle in (
        ("lambda_s", lambda: pair_lambda_s([px, py], m), lambda: lambda_s([x, y], m),
         lambda: _lambda_s([x, y], m)),
        ("lambda_s 1", lambda: pair_lambda_s([px], m), lambda: lambda_s([x], m),
         lambda: _lambda_s([x], m)),
        ("lambda_t", lambda: pair_lambda_t({1: px, 2: py}, {2: py, 3: px}, ((1, 2), (2, 3)), m),
         lambda: lambda_t([x, y, ZERO], [ZERO, y, x], m),
         lambda: _lambda_t([x, y, ZERO], [ZERO, y, x], m)),
        ("lambda_t 1", lambda: pair_lambda_t({1: px}, {1: py}, ((1,), (1,)), m),
         lambda: lambda_t([x], [y], m), lambda: _lambda_t([x], [y], m)),
        ("lambda_star", lambda: pair_lambda_star(px, py, px), lambda: lambda_star(x, y, x),
         lambda: _lambda_star(x, y, x)),
    ):
        check(name, kernel, wrapper, oracle)
