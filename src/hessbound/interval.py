"""Closed-interval arithmetic and the spectral interval operators.

Intervals are closed, bounded subsets [lo, hi] of the reals.  All
operations return the exact image interval in round-to-nearest double
precision; no directed rounding is performed.  On top of the elementary
rules this module provides the four operators used by the bound engine:

* ``lambda_s`` -- encloses the spectrum of rank-1 matrices a a^T,
* ``lambda_t`` -- encloses the spectrum of symmetric terms a b^T + b a^T,
* ``lambda_r`` -- the interval hull,
* ``lambda_star`` -- tight bounds for 2x2 symmetric interval matrices.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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
    "mul_each",
    "hull",
    "zero_widen",
    "lambda_s",
    "lambda_t",
    "lambda_r",
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
        try:
            lo_m, hi_m = self.lo**m, self.hi**m
        except OverflowError:
            raise InvalidInterval(f"pow overflow on {self}^{m}") from None
        if self.lo > 0 or m % 2 == 1:
            return _interval(lo_m, hi_m)
        if self.hi < 0:  # m even
            return _interval(hi_m, lo_m)
        return _interval(0.0, max(lo_m, hi_m))

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


def mul_each(f: Interval, xs: Iterable[Interval]) -> List[Interval]:
    """``[f * x for x in xs]``, bit for bit, without an operator frame per x.

    A point factor (lo == hi) needs two products per x.  The other two
    repeat them, or, for a zero factor such as [-0.0, 0.0], all four are
    zeros; either way min and max pick the same first result.
    """
    a, b = f.lo, f.hi
    if a == b:
        out = []
        for x in xs:
            p, q = a * x.lo, a * x.hi
            out.append(_interval(min(p, q), max(p, q)))
        return out
    out = []
    for x in xs:
        c, d = x.lo, x.hi
        p, q, r, s = a * c, a * d, b * c, b * d
        out.append(_interval(min(p, q, r, s), max(p, q, r, s)))
    return out


class Box:
    """Axis-aligned hyperrectangle: an ordered tuple of intervals."""

    __slots__ = ("dims",)

    def __init__(self, dims: Iterable[Interval]):
        self.dims: Tuple[Interval, ...] = tuple(dims)
        if not self.dims:
            raise EmptySlice("a box must have at least one component")

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
    for d in a:
        lo, hi = d.lo, d.hi
        s += max(lo * lo, hi * hi)
    return s


def lambda_s(a: Sequence[Interval], n: Optional[int] = None) -> Interval:
    """Spectral enclosure for rank-1 matrices v v^T with v in the box ``a``.

    ``a`` may list only the components of v that can be nonzero, in
    ascending index order; ``n`` is the dimension of the space v lives in
    (default ``len(a)``), and the missing components are zero.  In one
    dimension this is the exact square; otherwise the spectrum is
    {0 (multiple), |v|^2}, bounded by [0, sum of squared magnitudes].
    """
    if n is None:
        n = len(a)
    elif n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        return a[0].pow(2) if a else ZERO
    return _interval(0.0, _sum_sq_mag(a))


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
    if n is None:
        n = len(a)
    elif n < len(a):
        raise LengthMismatch(f"{len(a)} components in dimension {n}")
    if n == 1:
        return (a[0] * b[0]).scale(2.0) if a else ZERO
    beta = math.sqrt(_sum_sq_mag(a) * _sum_sq_mag(b))
    lo, hi = -beta, beta
    for u, v in zip(a, b):  # the endpoints of each pair product u*v, summed
        c, d, e, f = u.lo, u.hi, v.lo, v.hi
        p, q, r, s = c * e, c * f, d * e, d * f
        lo += min(p, q, r, s)
        hi += max(p, q, r, s)
    if len(a) < n:
        # a left-out pair adds +0.0, which turns a -0.0 lower end into +0.0
        lo += 0.0
    if not -_INF < lo <= hi < _INF:
        for u, v in zip(a, b):
            u * v  # raises the error of the first pair product that overflows
    return _interval(lo, hi)


def lambda_r(a: Interval, b: Interval) -> Interval:
    """Interval hull of two intervals."""
    return _interval(min(a.lo, b.lo), max(a.hi, b.hi))


hull = lambda_r


def lambda_star(a: Interval, b: Interval, c: Interval) -> Interval:
    """Tight eigenvalue bounds for 2x2 symmetric matrices with diagonal
    entries in [a], [b] and off-diagonal entry in [c]."""
    d = 4.0 * max(c.lo * c.lo, c.hi * c.hi)
    try:
        lo = 0.5 * (a.lo + b.lo - math.sqrt((a.lo - b.lo) ** 2 + d))
        hi = 0.5 * (a.hi + b.hi + math.sqrt((a.hi - b.hi) ** 2 + d))
    except OverflowError:
        raise InvalidInterval(f"lambda_star overflow on {a}, {b}, {c}") from None
    return _interval(lo, hi)


def zero_widen(a: Interval) -> Interval:
    """Smallest interval containing both [a] and 0."""
    return _interval(min(a.lo, 0.0), max(a.hi, 0.0))
