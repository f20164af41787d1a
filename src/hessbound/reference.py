"""Interval-Hessian reference methods.

These provide the baseline eigenvalue bounds the codelist methods are
compared against:

* :func:`interval_hessian` -- forward second-order interval propagation,
  yielding an elementwise enclosure of the Hessian over a box; each
  codelist line carries its gradient and Hessian as one stacked float array
  of shape (2, n + 1, n) (lower / upper endpoints x gradient row and Hessian
  rows), so one numpy operation serves both derivatives; unary lines take
  their value, r' and r'' from :data:`hessbound.codelist.UNARY_RULES`, the
  table the bound engines use;
* :func:`gershgorin_bounds` -- disc bounds from such an enclosure;
* :func:`hertz_rohn_bounds` -- exact extremal eigenvalues of a symmetric
  interval matrix via signed vertex enumeration, with the vertex matrices
  solved in stacked batches by LAPACK (``numpy.linalg.eigvalsh``);
* :func:`sym_eigen_range` -- eigenvalue range of one symmetric matrix;
* :func:`point_hessians` -- exact real Hessians at a batch of points, used
  as a sampling oracle; it has its own float rules, so sampling checks the
  interval rules rather than repeating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .codelist import UNARY_RULES, Codelist
from .errors import DimensionTooLarge, DomainViolation, InvalidInterval, LengthMismatch, NotSymmetric
from .interval import Box, Interval

__all__ = [
    "SymIntervalMatrix",
    "interval_hessian",
    "point_hessians",
    "gershgorin_bounds",
    "hertz_rohn_bounds",
    "sym_eigen_range",
    "VERTEX_DIMENSION_LIMIT",
]

# hertz_rohn_bounds solves 2^n eigenproblems of size n.  On one core of a
# 2-vCPU x86_64 Xeon VM (numpy 2.4 with OpenBLAS, one BLAS thread) one call
# took 0.044 s at n = 12, 1.0 s at n = 16 and 27 s at n = 20 (the process
# peaked at 57 MB resident).
VERTEX_DIMENSION_LIMIT = 20
# vertices per batched eigvalsh call: 4096 x n x n doubles, 13 MB at n = 20
_VERTEX_CHUNK = 4096


def _symmetric(a: np.ndarray) -> bool:
    # exact symmetry implies allclose symmetry and NaN fails both, so the
    # exact test only skips allclose's cost on the common exact case
    return bool((a == a.T).all()) or np.allclose(a, a.T)


@dataclass(frozen=True)
class SymIntervalMatrix:
    """Elementwise interval enclosure of a symmetric n x n matrix."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise NotSymmetric(f"bad shapes {lo.shape} / {hi.shape}")
        if not (_symmetric(lo) and _symmetric(hi)):
            raise NotSymmetric("endpoint matrices must be symmetric")
        if np.any(lo > hi) or not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NotSymmetric("entries must be finite intervals with lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def entry(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def mid_rad(self) -> Tuple[np.ndarray, np.ndarray]:
        return 0.5 * (self.lo + self.hi), 0.5 * (self.hi - self.lo)

    def contains_matrix(self, m: np.ndarray, slack: float = 0.0) -> bool:
        return bool(np.all(self.lo - slack <= m) and np.all(m <= self.hi + slack))


# -- interval Hessian propagation ----------------------------------------
#
# Each line's gradient and Hessian are carried as one float array of shape
# (2, n + 1, n): index 0 of the first axis holds the lower endpoints and
# index 1 the upper ones; row 0 of the second axis is the gradient and rows
# 1..n are the Hessian.  One numpy operation then serves both derivatives
# of a line.  Line values stay scalar Intervals so that the domain checks
# are the ones of the interval type.  Each array expression keeps the
# association order of the elementwise Interval formulas, so every entry
# equals (==) what the per-entry Interval computation gives.


def _scale(s: Interval, m: np.ndarray) -> np.ndarray:
    """Elementwise product of the scalar interval s with a stack m.

    Equals the four-product min/max rule under ==.  When s does not
    straddle 0 only the two products that can be extreme are formed (one
    when s is a point), since multiplying by a non-negative float is
    monotone and by a non-positive one antitone, also after rounding.
    """
    lo, hi = s.lo, s.hi
    if lo >= 0.0 or hi <= 0.0:
        if hi <= 0.0:
            m = m[::-1]  # a non-positive factor swaps the endpoints
        out = lo * m
        if lo != hi:
            far = hi * m
            np.minimum(out[0], far[0], out=out[0])
            np.maximum(out[1], far[1], out=out[1])
        return out
    a = lo * m  # the four products: a = (p1, p2) and out = (p3, p4)
    out = hi * m
    low = np.minimum(a, out)
    high = np.maximum(a, out, out=a)
    np.minimum(low[0], low[1], out=out[0])
    np.maximum(high[0], high[1], out=out[1])
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interval enclosure of the outer product a b^T of two (2, n) stacks.

    ``_outer(b, a)`` equals ``_outer(a, b)`` transposed entry for entry: both
    take the min and max of the same four products.
    """
    shape = (a.shape[1], b.shape[1])
    p = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, *shape)
    out = np.empty((2, *shape))
    np.minimum.reduce(p, out=out[0])
    np.maximum.reduce(p, out=out[1])
    return out


def interval_hessian(cl: Codelist, box: Box) -> SymIntervalMatrix:
    """Elementwise enclosure of the Hessian of the codelist over the box.

    Raises :class:`InvalidInterval` when an enclosure entry overflows.
    """
    n = cl.n
    if len(box) != n:
        raise LengthMismatch(f"box dimension {len(box)} != variable count {n}")
    # each line's stack is dropped after its last reader
    last_read = [0] * len(cl.lines)
    for k, line in enumerate(cl.lines, start=1):
        for ref in (line.i, line.j):
            if ref is not None:
                last_read[ref - 1] = k
    ys: List[Interval] = []
    ms: List[Optional[np.ndarray]] = []

    def stack(ref: int) -> np.ndarray:
        # a var line's stack (unit gradient, zero Hessian) is built when
        # first read, so only the live ones take memory
        m = ms[ref - 1]
        if m is None:
            m = np.zeros((2, n + 1, n))
            m[:, 0, ref - 1] = 1.0
            ms[ref - 1] = m
        return m

    with np.errstate(over="ignore", invalid="ignore"):
        for k, line in enumerate(cl.lines, start=1):
            try:
                if line.op == "var":
                    ys.append(box[k - 1])
                    ms.append(None)
                    continue
                if line.op == "add":
                    ys.append(ys[line.i - 1] + ys[line.j - 1])
                    m = stack(line.i) + stack(line.j)
                elif line.op == "mul":
                    yi, yj = ys[line.i - 1], ys[line.j - 1]
                    mi, mj = stack(line.i), stack(line.j)
                    ys.append(yi * yj)
                    m = _scale(yj, mi)
                    m += _scale(yi, mj)
                    cross = _outer(mi[:, 0], mj[:, 0])
                    m[:, 1:] += cross + cross.transpose(0, 2, 1)
                else:
                    rule = UNARY_RULES[line.op]
                    yi = ys[line.i - 1]
                    yk = rule.value(yi, line)
                    mi = stack(line.i)
                    ys.append(yk)
                    m = mi.copy() if rule.first is None else _scale(rule.first(yi, yk, line), mi)
                    if rule.second is not None:
                        m[:, 1:] += _scale(rule.second(yi, yk, line), _outer(mi[:, 0], mi[:, 0]))
                if not np.isfinite(m).all():
                    raise InvalidInterval("non-finite gradient or Hessian enclosure")
                ms.append(m)
                for ref in (line.i, line.j):
                    if ref is not None and last_read[ref - 1] == k:
                        ms[ref - 1] = None
            except DomainViolation as err:
                raise DomainViolation(err.kind, err.interval, line=k) from None
    lo, hi = stack(len(cl.lines))[:, 1:]
    # symmetrize away last-bit rounding asymmetry between mirrored entries
    lo = np.minimum(lo, lo.T)
    hi = np.maximum(hi, hi.T)
    return SymIntervalMatrix(lo, hi)


# Real-point (value, r', r'') of each unary op, on arrays of sampled operand
# values.  These are written apart from codelist.UNARY_RULES on purpose:
# point_hessians is the oracle the interval rules are checked against.
_POINT_RULES = {
    "powNat": (lambda y, line: y ** line.m,
               lambda y, yk, line: line.m * y ** (line.m - 1),
               lambda y, yk, line: line.m * (line.m - 1) * y ** (line.m - 2)),
    "oneOver": (lambda y, line: 1.0 / y,
                lambda y, yk, line: -yk * yk,
                lambda y, yk, line: 2.0 * yk ** 3),
    "sqrt": (lambda y, line: np.sqrt(y),
             lambda y, yk, line: 0.5 / yk,
             lambda y, yk, line: -0.25 / yk ** 3),
    "exp": (lambda y, line: np.exp(y),
            lambda y, yk, line: yk,
            lambda y, yk, line: yk),
    "ln": (lambda y, line: np.log(y),
           lambda y, yk, line: 1.0 / y,
           lambda y, yk, line: -1.0 / y ** 2),
    "addC": (lambda y, line: y + line.c,
             lambda y, yk, line: np.ones(y.shape),
             lambda y, yk, line: np.zeros(y.shape)),
    "mulByC": (lambda y, line: y * line.c,
               lambda y, yk, line: np.full(y.shape, line.c),
               lambda y, yk, line: np.zeros(y.shape)),
}
# (kind, test for sampled operand values outside the domain, description)
_POINT_DOMAINS = {
    "oneOver": ("recip", lambda y: y == 0.0, "0 in sampled values"),
    "sqrt": ("sqrt", lambda y: y <= 0.0, "non-positive sampled values"),
    "ln": ("ln", lambda y: y <= 0.0, "non-positive sampled values"),
}


def point_hessians(cl: Codelist, xs: np.ndarray) -> np.ndarray:
    """Real Hessians at a batch of points.

    ``xs`` has shape (P, n); the result has shape (P, n, n).
    """
    xs = np.asarray(xs, dtype=float)
    P, n = xs.shape
    if n != cl.n:
        raise LengthMismatch(f"points of dimension {n} vs variable count {cl.n}")
    ys: List[np.ndarray] = []
    gs: List[np.ndarray] = []
    hs: List[np.ndarray] = []
    for k, line in enumerate(cl.lines, start=1):
        if line.op == "var":
            ys.append(xs[:, k - 1])
            g = np.zeros((P, n))
            g[:, k - 1] = 1.0
            gs.append(g)
            hs.append(np.zeros((P, n, n)))
            continue
        if line.op == "add":
            ys.append(ys[line.i - 1] + ys[line.j - 1])
            gs.append(gs[line.i - 1] + gs[line.j - 1])
            hs.append(hs[line.i - 1] + hs[line.j - 1])
            continue
        if line.op == "mul":
            yi, yj = ys[line.i - 1], ys[line.j - 1]
            gi, gj = gs[line.i - 1], gs[line.j - 1]
            ys.append(yi * yj)
            gs.append(yj[:, None] * gi + yi[:, None] * gj)
            cross = np.einsum("pa,pb->pab", gi, gj)
            hs.append(yj[:, None, None] * hs[line.i - 1]
                      + yi[:, None, None] * hs[line.j - 1]
                      + cross + cross.transpose(0, 2, 1))
            continue
        yi = ys[line.i - 1]
        domain = _POINT_DOMAINS.get(line.op)
        if domain is not None and np.any(domain[1](yi)):
            raise DomainViolation(domain[0], domain[2], line=k)
        value, first, second = _POINT_RULES[line.op]
        yk = value(yi, line)
        r1, r2 = first(yi, yk, line), second(yi, yk, line)
        gi = gs[line.i - 1]
        ys.append(yk)
        gs.append(r1[:, None] * gi)
        outer = np.einsum("pa,pb->pab", gi, gi)
        hs.append(r2[:, None, None] * outer + r1[:, None, None] * hs[line.i - 1])
    return hs[-1]


# -- eigenvalue bounds from interval matrices ----------------------------

def gershgorin_bounds(mat: SymIntervalMatrix) -> Interval:
    """Disc-based eigenvalue bounds for a symmetric interval matrix."""
    n = mat.n
    mags = np.maximum(np.abs(mat.lo), np.abs(mat.hi))
    off = mags.sum(axis=1) - np.diag(mags)
    lo = float(np.min(np.diag(mat.lo) - off))
    hi = float(np.max(np.diag(mat.hi) + off))
    return Interval(lo, hi)


def hertz_rohn_bounds(mat: SymIntervalMatrix) -> Interval:
    """Extremal eigenvalues of a symmetric interval matrix.

    Enumerates the 2^(n-1) sign patterns (first entry fixed positive) of
    the vertex matrices mid -+ diag(z) rad diag(z); the minimum smallest and
    maximum largest eigenvalue over these vertices are attained exactly.
    The vertices are stacked _VERTEX_CHUNK at a time and solved with one
    batched LAPACK call per chunk and side.
    """
    n = mat.n
    if n > VERTEX_DIMENSION_LIMIT:
        raise DimensionTooLarge(f"vertex enumeration limited to n <= {VERTEX_DIMENSION_LIMIT}, got {n}")
    mid, rad = mat.mid_rad()
    # the enclosure need only be allclose-symmetric; make each vertex exactly so
    mid = 0.5 * (mid + mid.T)
    rad = 0.5 * (rad + rad.T)
    shifts = np.arange(n - 1)
    count = 1 << (n - 1)
    lo = math.inf
    hi = -math.inf
    for start in range(0, count, _VERTEX_CHUNK):
        bits = np.arange(start, min(start + _VERTEX_CHUNK, count))
        z = np.ones((bits.size, n))
        z[:, 1:] -= 2.0 * ((bits[:, None] >> shifts) & 1)
        signed = z[:, :, None] * z[:, None, :]
        signed *= rad
        lo = min(lo, float(np.linalg.eigvalsh(mid - signed)[:, 0].min()))
        hi = max(hi, float(np.linalg.eigvalsh(mid + signed)[:, -1].max()))
    return Interval(lo, hi)


def sym_eigen_range(m: np.ndarray) -> Interval:
    """Smallest and largest eigenvalue of one symmetric matrix (LAPACK)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if not np.allclose(a, a.T, atol=max(scale, 1.0) * 1e-12):
        raise NotSymmetric("matrix is not symmetric")
    if a.shape[0] == 1:
        v = float(a[0, 0])
        return Interval(v, v)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return Interval(float(w[0]), float(w[-1]))
