"""Closed-interval arithmetic and the spectral interval operators.

Intervals are closed, bounded subsets [lo, hi] of the reals.  All
operations return the exact image interval in round-to-nearest double
precision; no directed rounding is performed.  On top of the elementary
rules this module provides the four operators used by the bound engine:

* ``lambda_s`` -- encloses the spectrum of rank-1 matrices a a^T,
* ``lambda_t`` -- encloses the spectrum of symmetric terms a b^T + b a^T,
* ``hull`` -- the interval hull, the paper's λ_r,
* ``lambda_star`` -- tight bounds for 2x2 symmetric interval matrices.

An interval unpacks as ``lo, hi = iv``.  The λ operators read their
gradient components that way, so the engines can pass ``(lo, hi)`` float
pairs where public callers pass :class:`Interval` objects.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    DomainViolation,
    EmptySlice,
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
            lo = float(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not float:
            hi = float(hi)
            object.__setattr__(self, "hi", hi)
        if not -_INF < lo <= hi < _INF:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidInterval(f"non-finite endpoints [{lo}, {hi}]")
            raise InvalidInterval(f"lo > hi in [{lo}, {hi}]")

    def __iter__(self):
        """The endpoints, so that ``lo, hi = iv`` unpacks an interval."""
        return iter((self.lo, self.hi))

    # -- elementary arithmetic -------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return _interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p, q, r, s = a * c, a * d, b * c, b * d
        return _interval(min(p, q, r, s), max(p, q, r, s))

    def __neg__(self) -> "Interval":
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return _interval(self.lo - other.hi, self.hi - other.lo)

    def recip(self) -> "Interval":
        if self.lo <= 0.0 <= self.hi:
            raise DomainViolation("recip", self)
        return _interval(1.0 / self.hi, 1.0 / self.lo)

    def pow(self, m: int) -> "Interval":
        if m < 0 or m != int(m):
            raise ValueError(f"exponent must be a natural number, got {m}")
        if m == 0:
            return ONE
        if m == 1:
            return self
        return _pow(self.lo, self.hi, m)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainViolation("sqrt", self)
        return _interval(math.sqrt(self.lo), math.sqrt(self.hi))

    def exp(self) -> "Interval":
        try:
            return _interval(math.exp(self.lo), math.exp(self.hi))
        except OverflowError:
            raise InvalidInterval(f"exp overflow on {self}") from None

    def ln(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainViolation("ln", self)
        return _interval(math.log(self.lo), math.log(self.hi))

    def add_const(self, c: float) -> "Interval":
        return _interval(self.lo + c, self.hi + c)

    def scale(self, c: float) -> "Interval":
        if c >= 0:
            return _interval(c * self.lo, c * self.hi)
        return _interval(c * self.hi, c * self.lo)

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
_new = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _interval(lo: float, hi: float) -> Interval:
    """``Interval(lo, hi)`` without the dataclass ``__init__`` frame.

    Every operator builds its result here.  The endpoints are stored
    through the slots, and ``__post_init__`` is still looked up on the
    class and called, so the result is validated (and counted by anything
    that wraps ``Interval.__post_init__``) as if the constructor had run.
    """
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    iv.__post_init__()
    return iv


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def point(x: float) -> Interval:
    return _interval(x, x)


def _pow(lo: float, hi: float, m: int) -> Interval:
    """``[lo, hi]^m`` for a natural m >= 2, from the endpoints."""
    try:
        lo_m, hi_m = lo**m, hi**m
    except OverflowError:
        raise InvalidInterval(f"pow overflow on {Interval(lo, hi)}^{m}") from None
    if lo > 0 or m % 2 == 1:
        return _interval(lo_m, hi_m)
    if hi < 0:  # m even
        return _interval(hi_m, lo_m)
    return _interval(0.0, max(lo_m, hi_m))


class Box:
    """Axis-aligned hyperrectangle: an ordered tuple of intervals."""

    __slots__ = ("dims",)

    def __init__(self, dims: Iterable[Interval]):
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
        # Interval.contains, inlined: this runs once per point evaluation
        return all(d.lo - slack <= v <= d.hi + slack for d, v in zip(self.dims, x))

    def midpoint(self) -> Tuple[float, ...]:
        return tuple(0.5 * (d.lo + d.hi) for d in self.dims)

    def vertices(self):
        """All 2^n corner points, in lexicographic lo/hi order."""
        corners = [()]
        for d in self.dims:
            corners = [c + (e,) for c in corners for e in (d.lo, d.hi)]
        return corners


# The sums below run left to right in plain float additions: from Python
# 3.12 on, sum() over floats is compensated, which would change the bits.

def _sum_sq_mag(a: Sequence[Interval]) -> float:
    s = 0.0
    for lo, hi in a:
        s += max(lo * lo, hi * hi)
    return s


def lambda_s(a: Sequence[Interval], n: Optional[int] = None) -> Interval:
    """Spectral enclosure for rank-1 matrices v v^T with v in the box ``a``.

    ``a`` may list only the components of v that can be nonzero, in
    ascending index order; ``n`` is the dimension of the space v lives in
    (default ``len(a)``), and the missing components are zero.  A component
    is an :class:`Interval` or a ``(lo, hi)`` pair of floats.  In one
    dimension this is the exact square; otherwise the spectrum is
    {0 (multiple), |v|^2}, bounded by [0, sum of squared magnitudes].
    """
    if n is None:
        n = len(a)
    elif n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        return _pow(*a[0], 2) if a else ZERO
    return _interval(0.0, _sum_sq_mag(a))


def lambda_t(a: Sequence[Interval], b: Sequence[Interval], n: Optional[int] = None) -> Interval:
    """Spectral enclosure for symmetric terms u v^T + v u^T, u in a, v in b.

    ``a`` and ``b`` may list only the components where u or v can be
    nonzero (the same indices for both, ascending, ``ZERO`` where one of
    them vanishes); ``n`` is the dimension (default ``len(a)``), and the
    components left out are zero in both.  The result is the same, bit for
    bit, as with the zero components listed.  Components are intervals or
    ``(lo, hi)`` pairs, as for :func:`lambda_s`.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"boxes of length {len(a)} and {len(b)}")
    if n is None:
        n = len(a)
    elif n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        if not a:
            return ZERO
        (c, d), (e, f) = a[0], b[0]
        p, q, r, s = c * e, c * f, d * e, d * f  # the product a[0] * b[0]
        return _interval(min(p, q, r, s), max(p, q, r, s)).scale(2.0)
    beta = math.sqrt(_sum_sq_mag(a) * _sum_sq_mag(b))
    lo, hi = -beta, beta
    for (c, d), (e, f) in zip(a, b):  # the endpoints of each pair product, summed
        p, q, r, s = c * e, c * f, d * e, d * f
        lo += min(p, q, r, s)
        hi += max(p, q, r, s)
    if len(a) < n:
        # a left-out pair adds +0.0, which turns a -0.0 lower end into +0.0
        lo += 0.0
    if not -_INF < lo <= hi < _INF:
        for u, v in zip(a, b):
            Interval(*u) * Interval(*v)  # raises the error of the first overflowing product
    return _interval(lo, hi)


def hull(a: Interval, b: Interval) -> Interval:
    """Interval hull of two intervals: the paper's λ_r."""
    return _interval(min(a.lo, b.lo), max(a.hi, b.hi))


def lambda_star(a: Interval, b: Interval, c: Interval) -> Interval:
    """Tight eigenvalue bounds for 2x2 symmetric matrices with diagonal
    entries in [a], [b] and off-diagonal entry in [c] (an interval or a
    ``(lo, hi)`` pair)."""
    c_lo, c_hi = c
    d = 4.0 * max(c_lo * c_lo, c_hi * c_hi)
    try:
        lo = 0.5 * (a.lo + b.lo - math.sqrt((a.lo - b.lo) ** 2 + d))
        hi = 0.5 * (a.hi + b.hi + math.sqrt((a.hi - b.hi) ** 2 + d))
    except OverflowError:
        raise InvalidInterval(
            f"lambda_star overflow on {a}, {b}, {Interval(c_lo, c_hi)}") from None
    return _interval(lo, hi)


def zero_widen(a: Interval) -> Interval:
    """Smallest interval containing both [a] and 0."""
    return _interval(min(a.lo, 0.0), max(a.hi, 0.0))
