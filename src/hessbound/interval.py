"""Closed-interval arithmetic and the spectral interval operators.

Intervals are closed, bounded subsets [lo, hi] of the reals.  All
operations return the exact image interval in round-to-nearest double
precision; no directed rounding is performed.

The twelve endpoint kernels (``pair_add``, ``pair_mul``, ``pair_scale``,
``pair_recip``, ``pair_pow``, ``pair_sqrt``, ``pair_exp``, ``pair_ln``,
``pair_hull`` and the spectral ``pair_lambda_s``, ``pair_lambda_t`` and
``pair_lambda_star``) are the one home of the endpoint formulas.  Each takes
and returns intervals as ``(lo, hi)`` pairs of floats, runs the validity
check of :class:`Interval` on its result and raises the errors of the
interval operation.  The :class:`Interval` operators and the public
functions below wrap them, each building its result with the ``Interval``
constructor; the bound engines and the unary rule table call them directly,
so that a value never becomes an object on their hot paths.  A change to
how an endpoint is computed (outward rounding, say) is made in the kernels
alone.  Every interval sum is ``pair_add``: x - y is x + (-1)·y, the same
bits in IEEE 754, and x + c is x + [c, c].  Every hull is ``pair_hull``:
the zero widening is the hull with [0, 0].

No kernel calls the builtin ``min`` or ``max``: each extreme is picked by a
chain of ordered comparisons that copies the builtin's loop (start at the
first candidate, replace it only when a later one compares strictly ``<``
for the minimum or ``>`` for the maximum).  Ties between ``0.0`` and
``-0.0``, and NaNs, therefore keep the element the builtin keeps, and the
bits are those of ``min``/``max`` by construction.  In a chain that tracks
both extremes at once a candidate below the running minimum cannot be above
the running maximum, so it skips the second test.

On top of the elementary rules this module provides the four operators used
by the bound engine:

* ``lambda_s`` -- encloses the spectrum of rank-1 matrices a a^T,
* ``lambda_t`` -- encloses the spectrum of symmetric terms a b^T + b a^T,
* ``hull`` -- the interval hull, the paper's λ_r,
* ``lambda_star`` -- tight bounds for 2x2 symmetric interval matrices.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (
    DomainViolation,
    EmptySlice,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
)

__all__ = [
    "Interval",
    "Box",
    "ZERO",
    "ONE",
    "point",
    "hull",
    "zero_widen",
    "lambda_s",
    "lambda_t",
    "lambda_star",
]


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed real interval [lo, hi] with finite endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not float:
            lo = _endpoint(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not float:
            hi = _endpoint(hi)
            object.__setattr__(self, "hi", hi)
        if not -_INF < lo <= hi < _INF:
            _reject(lo, hi)

    def __iter__(self):
        """The endpoints, so that ``lo, hi = iv`` unpacks an interval."""
        return iter((self.lo, self.hi))

    # -- elementary arithmetic, by the endpoint kernels below ---------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(*pair_add((self.lo, self.hi), (other.lo, other.hi)))

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*pair_mul((self.lo, self.hi), (other.lo, other.hi)))

    def __neg__(self) -> "Interval":
        return Interval(*pair_scale((self.lo, self.hi), -1.0))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(*pair_add((self.lo, self.hi), pair_scale((other.lo, other.hi), -1.0)))

    def recip(self) -> "Interval":
        return Interval(*pair_recip((self.lo, self.hi)))

    def pow(self, m: int) -> "Interval":
        if m == 0:
            return ONE
        if m == 1:
            return self
        return Interval(*pair_pow((self.lo, self.hi), m))

    def sqrt(self) -> "Interval":
        return Interval(*pair_sqrt((self.lo, self.hi)))

    def exp(self) -> "Interval":
        return Interval(*pair_exp((self.lo, self.hi)))

    def ln(self) -> "Interval":
        return Interval(*pair_ln((self.lo, self.hi)))

    def add_const(self, c: float) -> "Interval":
        return Interval(*pair_add((self.lo, self.hi), (c, c)))

    def scale(self, c: float) -> "Interval":
        return Interval(*pair_scale((self.lo, self.hi), c))

    # -- predicates and helpers ------------------------------------------

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def encloses(self, other: "Interval", slack: float = 0.0) -> bool:
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


_INF = math.inf


def _endpoint(x) -> float:
    """``float(x)``, or :class:`InvalidArgument` if x is not a real number."""
    try:
        return float(x)
    except (TypeError, ValueError):
        raise InvalidArgument(f"interval endpoint {x!r} is not a real number") from None


def _reject(lo: float, hi: float):
    """Raise the error of an invalid ``Interval(lo, hi)``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInterval(f"non-finite endpoints [{lo}, {hi}]")
    raise InvalidInterval(f"lo > hi in [{lo}, {hi}]")


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def point(x: float) -> Interval:
    return Interval(x, x)


# -- endpoint kernels (see the module docstring) ----------------------------
#
# An Interval operand unpacks like a pair, so a kernel takes either; on the
# engines' paths the operands are tuples.

Pair = Tuple[float, float]


def pair_add(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    lo, hi = a + c, b + d
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_mul(x: Pair, y: Pair) -> Pair:
    (a, b), (c, d) = x, y
    lo = hi = a * c
    p = a * d
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = b * c
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = b * d
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_scale(x: Pair, c: float) -> Pair:
    """``c·x`` for a real c."""
    a, b = x
    lo, hi = (c * a, c * b) if c >= 0 else (c * b, c * a)
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_recip(x: Pair) -> Pair:
    a, b = x
    if a <= 0.0 <= b:
        raise DomainViolation("recip", Interval(a, b))
    lo, hi = 1.0 / b, 1.0 / a
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_pow(x: Pair, m: int) -> Pair:
    """``x^m`` for a natural number m."""
    try:
        natural = m >= 0 and m == int(m)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        natural = False
    if not natural:
        raise InvalidArgument(f"exponent must be a natural number, got {m!r}")
    if m == 0:
        return 1.0, 1.0
    if m == 1:
        return x
    a, b = x
    try:
        a_m, b_m = a**m, b**m
    except OverflowError:
        raise InvalidInterval(f"pow overflow on {Interval(a, b)}^{m}") from None
    if a > 0 or m % 2 == 1:
        lo, hi = a_m, b_m
    elif b < 0:  # m even
        lo, hi = b_m, a_m
    else:
        lo, hi = 0.0, b_m if b_m > a_m else a_m
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_sqrt(x: Pair) -> Pair:
    a, b = x
    if a < 0.0:
        raise DomainViolation("sqrt", Interval(a, b))
    lo, hi = math.sqrt(a), math.sqrt(b)
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_exp(x: Pair) -> Pair:
    a, b = x
    try:
        lo, hi = math.exp(a), math.exp(b)
    except OverflowError:
        raise InvalidInterval(f"exp overflow on {Interval(a, b)}") from None
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_ln(x: Pair) -> Pair:
    a, b = x
    if a <= 0.0:
        raise DomainViolation("ln", Interval(a, b))
    lo, hi = math.log(a), math.log(b)
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_hull(x: Pair, y: Pair) -> Pair:
    """The interval hull of x and y."""
    (a, b), (c, d) = x, y
    lo = c if c < a else a
    hi = d if d > b else b
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


# The sums below run left to right in plain float additions: from Python
# 3.12 on, sum() over floats is compensated, which would change the bits.

def _sum_sq_mag(a: Iterable[Pair]) -> float:
    s = 0.0
    for lo, hi in a:
        lo *= lo
        hi *= hi
        s += hi if hi > lo else lo
    return s


def pair_lambda_s(a: Sequence[Pair], n: int) -> Pair:
    """λ_s of the components ``a`` of a vector in dimension n (see :func:`lambda_s`)."""
    if n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        return pair_pow(a[0], 2) if a else (0.0, 0.0)
    lo, hi = 0.0, _sum_sq_mag(a)
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_lambda_t(a: Mapping[int, Pair], b: Mapping[int, Pair],
                  supports: Tuple[Sequence[int], Sequence[int]], n: int) -> Pair:
    """λ_t in dimension n (see :func:`lambda_t`) of two sparse vectors.

    ``a`` and ``b`` map an index to a component, and their keys are the
    ascending indices ``supports = (sa, sb)``; the components left out are
    zero.  Each squared-magnitude sum runs over its own support and the
    cross sum over the shared indices only, with the bits of the sums over
    the union: a left-out term is a signed zero, which changes a float sum
    only when the sum is -0.0, and a sum that starts at ±β ≠ 0 never is.  At
    β = 0 (and in one dimension) the cross sum runs over the union.
    """
    sa, sb = supports
    pairs = [(a[j], b[j]) for j in sa if j in b]  # on the shared indices, ascending
    m = len(sa) + len(sb) - len(pairs)
    if n < m:
        raise LengthMismatch(f"{m} components in dimension {n}")
    beta = 0.0 if n == 1 else math.sqrt(_sum_sq_mag(map(a.__getitem__, sa))
                                        * _sum_sq_mag(map(b.__getitem__, sb)))
    if beta == 0.0 and len(pairs) < m:
        pairs = [(a.get(j, ZERO), b.get(j, ZERO)) for j in sorted({*sa, *sb})]
    if n == 1:
        return pair_scale(pair_mul(*pairs[0]), 2.0) if pairs else (0.0, 0.0)
    lo, hi = -beta, beta
    for u, v in pairs:  # an overflowing product raises its own error
        low, high = pair_mul(u, v)
        lo += low
        hi += high
    if m < n:
        # a left-out pair adds +0.0, which turns a -0.0 lower end into +0.0
        lo += 0.0
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


def pair_lambda_star(a: Pair, b: Pair, c: Pair) -> Pair:
    """λ* of the 2x2 symmetric matrices with diagonal entries in a and b and
    off-diagonal entry in c (see :func:`lambda_star`)."""
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = a, b, c
    p, q = c_lo * c_lo, c_hi * c_hi
    d = 4.0 * (q if q > p else p)
    try:
        lo = 0.5 * (a_lo + b_lo - math.sqrt((a_lo - b_lo) ** 2 + d))
        hi = 0.5 * (a_hi + b_hi + math.sqrt((a_hi - b_hi) ** 2 + d))
    except OverflowError:
        raise InvalidInterval(f"lambda_star overflow on {Interval(a_lo, a_hi)}, "
                              f"{Interval(b_lo, b_hi)}, {Interval(c_lo, c_hi)}") from None
    if not -_INF < lo <= hi < _INF:
        _reject(lo, hi)
    return lo, hi


class Box:
    """Axis-aligned hyperrectangle: an ordered tuple of intervals."""

    __slots__ = ("dims",)

    def __init__(self, dims: Iterable[Interval]):
        try:
            dims = iter(dims)
        except TypeError:
            raise InvalidInterval(f"a box is built from Interval components, got {dims!r}") from None
        self.dims: Tuple[Interval, ...] = tuple(dims)
        if not self.dims:
            raise EmptySlice("a box must have at least one component")
        for i, d in enumerate(self.dims, start=1):
            if not isinstance(d, Interval):
                raise InvalidInterval(f"box component {i} is not an Interval: {d!r}")

    @classmethod
    def from_bounds(cls, bounds: Sequence[Tuple[float, float]]) -> "Box":
        return cls(Interval(lo, hi) for lo, hi in bounds)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def __iter__(self):
        return iter(self.dims)

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and self.dims == other.dims

    def __repr__(self) -> str:
        return "Box(" + " x ".join(repr(d) for d in self.dims) + ")"

    def contains_point(self, x: Sequence[float], slack: float = 0.0) -> bool:
        if len(x) != len(self.dims):
            raise LengthMismatch(f"point of length {len(x)} vs box of length {len(self)}")
        # Interval.contains, inlined
        return all(d.lo - slack <= v <= d.hi + slack for d, v in zip(self.dims, x))

    def midpoint(self) -> Tuple[float, ...]:
        return tuple(0.5 * (d.lo + d.hi) for d in self.dims)

    def vertices(self):
        """All 2^n corner points, in lexicographic lo/hi order."""
        corners = [()]
        for d in self.dims:
            corners = [c + (e,) for c in corners for e in (d.lo, d.hi)]
        return corners


def lambda_s(a: Sequence[Interval], n: Optional[int] = None) -> Interval:
    """Spectral enclosure for rank-1 matrices v v^T with v in the box ``a``.

    ``a`` may list only the components of v that can be nonzero, in
    ascending index order; ``n`` is the dimension of the space v lives in
    (default ``len(a)``), and the missing components are zero.  In one
    dimension this is the exact square; otherwise the spectrum is
    {0 (multiple), |v|^2}, bounded by [0, sum of squared magnitudes].
    """
    return Interval(*pair_lambda_s(a, len(a) if n is None else n))


def lambda_t(a: Sequence[Interval], b: Sequence[Interval], n: Optional[int] = None) -> Interval:
    """Spectral enclosure for symmetric terms u v^T + v u^T, u in a, v in b.

    ``a`` and ``b`` may list only the components where u or v can be
    nonzero (the same indices for both, ascending, ``ZERO`` where one of
    them vanishes); ``n`` is the dimension (default ``len(a)``), and the
    components left out are zero in both.  The result is the same, bit for
    bit, as with the zero components listed.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"boxes of length {len(a)} and {len(b)}")
    full = range(len(a))
    return Interval(*pair_lambda_t(dict(zip(full, a)), dict(zip(full, b)), (full, full),
                                   len(a) if n is None else n))


def hull(a: Interval, b: Interval) -> Interval:
    """Interval hull of two intervals: the paper's λ_r."""
    return Interval(*pair_hull((a.lo, a.hi), (b.lo, b.hi)))


def lambda_star(a: Interval, b: Interval, c: Interval) -> Interval:
    """Tight eigenvalue bounds for 2x2 symmetric matrices with diagonal
    entries in [a], [b] and off-diagonal entry in [c]."""
    return Interval(*pair_lambda_star(a, b, c))


def zero_widen(a: Interval) -> Interval:
    """Smallest interval containing both [a] and 0."""
    return Interval(*pair_hull((a.lo, a.hi), (0.0, 0.0)))
