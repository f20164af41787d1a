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
        if not -math.inf < lo <= hi < math.inf:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidInterval(f"non-finite endpoints [{lo}, {hi}]")
            raise InvalidInterval(f"lo > hi in [{lo}, {hi}]")

    # -- elementary arithmetic -------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        p = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(p), max(p))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def recip(self) -> "Interval":
        if self.lo <= 0.0 <= self.hi:
            raise DomainViolation("recip", self)
        return Interval(1.0 / self.hi, 1.0 / self.lo)

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
            return Interval(lo_m, hi_m)
        if self.hi < 0:  # m even
            return Interval(hi_m, lo_m)
        return Interval(0.0, max(lo_m, hi_m))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainViolation("sqrt", self)
        return Interval(math.sqrt(self.lo), math.sqrt(self.hi))

    def exp(self) -> "Interval":
        try:
            return Interval(math.exp(self.lo), math.exp(self.hi))
        except OverflowError:
            raise InvalidInterval(f"exp overflow on {self}") from None

    def ln(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainViolation("ln", self)
        return Interval(math.log(self.lo), math.log(self.hi))

    def add_const(self, c: float) -> "Interval":
        return Interval(self.lo + c, self.hi + c)

    def scale(self, c: float) -> "Interval":
        if c >= 0:
            return Interval(c * self.lo, c * self.hi)
        return Interval(c * self.hi, c * self.lo)

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


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def point(x: float) -> Interval:
    return Interval(x, x)


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


def _sum_sq_mag(a: Sequence[Interval]) -> float:
    return sum(max(d.lo * d.lo, d.hi * d.hi) for d in a)


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
    return Interval(0.0, _sum_sq_mag(a))


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
    for ai, bi in zip(a, b):
        p = ai * bi
        lo += p.lo
        hi += p.hi
    if len(a) < n:
        # a left-out pair adds +0.0, which turns a -0.0 lower end into +0.0
        lo += 0.0
    return Interval(lo, hi)


def lambda_r(a: Interval, b: Interval) -> Interval:
    """Interval hull of two intervals."""
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


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
    return Interval(lo, hi)


def zero_widen(a: Interval) -> Interval:
    """Smallest interval containing both [a] and 0."""
    return Interval(min(a.lo, 0.0), max(a.hi, 0.0))
