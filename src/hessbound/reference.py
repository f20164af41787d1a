"""Interval-Hessian reference methods.

These provide the baseline eigenvalue bounds the codelist methods are
compared against:

* :func:`interval_hessian` -- forward second-order interval propagation,
  yielding an elementwise enclosure of the Hessian over a box.  It is a rule
  on the bound engines' walk (:func:`hessbound.bounds._walk`): values,
  gradients and r' come from their value pass, r'' from
  :data:`hessbound.codelist.UNARY_RULES`.  A line carries its Hessian by the
  size of its ``Codelist.blocks`` entry: none, ``None`` (zero); one
  variable p, the entry (p, p) as a ``(lo, hi)`` pair of the endpoint
  kernels; more, a (2, n, n) float array of the lower and upper endpoints.
  Zeros are built only for the final matrix, and a line's carrier is set to
  ``None`` after its last reader.  No pair is lifted into a stack: a line
  with a larger block scales the pair as a pair and adds it as the one
  entry (p, p) of its stack.  A block term (a product's cross term, a unary
  line's r'' term) is added through the flat index of its block, built on
  first use and cached on the codelist (``Codelist.block_index``).  An
  overflow in any Hessian entry raises :class:`InvalidInterval` at the
  operation where it happens, in a pair kernel or a numpy stack alike,
  whatever the caller's numpy error settings; an error of the line's own
  r'' (``pow overflow``, ``sqrt r'' overflow``) comes first;
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
from itertools import chain, repeat
from typing import List, Tuple

import numpy as np

from .bounds import _ZERO, _walk
from .codelist import UNARY_RULES, Codelist
from .errors import (
    DimensionTooLarge,
    DomainViolation,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
    NotSymmetric,
)
from .interval import Box, Interval, Pair, pair_add, pair_mul

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
# vertices per batched eigvalsh call, which solves both sides of each: a
# 2 x 2048 x n x n stack of doubles, 13 MB at n = 20
_VERTEX_CHUNK = 2048


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
        try:
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
        except (TypeError, ValueError) as err:
            raise InvalidArgument(f"interval matrix entries are not real numbers: {err}") from None
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise NotSymmetric(f"bad shapes {lo.shape} / {hi.shape}")
        if lo.shape[0] == 0:
            raise NotSymmetric("an interval matrix needs at least one row")
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


# -- interval Hessian propagation: the helpers take a pair or a stack -------
# Each helper raises where an endpoint overflows: a pair kernel raises
# InvalidInterval, and a stack operation FloatingPointError, since
# interval_hessian raises numpy's overflow and invalid errors and ignores
# the others, whatever the caller's settings.

def _scale(s: Pair, m):
    """Elementwise product of the scalar interval s, a (lo, hi) pair, with a pair or a stack m.

    Equals the four-product min/max rule under ==.  When s does not
    straddle 0 only the two products that can be extreme are formed (one
    when s is a point), since multiplying by a non-negative float is
    monotone and by a non-positive one antitone, also after rounding.
    """
    if type(m) is tuple:
        return pair_mul(s, m)
    lo, hi = s
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


def _outer(a, b):
    """Interval enclosure of the outer product a b^T of two (2, n) stacks, or of two pairs.

    ``_outer(b, a)`` equals ``_outer(a, b)`` transposed entry for entry: both
    take the min and max of the same four products.
    """
    if type(a) is tuple:
        return pair_mul(a, b)
    shape = (a.shape[1], b.shape[1])
    p = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, *shape)
    out = np.empty((2, *shape))
    np.minimum.reduce(p, out=out[0])
    np.maximum.reduce(p, out=out[1])
    return out


def _cross(a, b):
    """The cross term a b^T + b a^T of a mul line, on its block."""
    c = _outer(a, b)
    return pair_add(c, c) if type(c) is tuple else c + c.transpose(0, 2, 1)


def _dense(g, block):
    """A sparse gradient on a block, 0 off its support: a pair, or the (2, b) stack."""
    if len(block) == 1:
        return g.get(block[0], _ZERO)
    pairs = chain.from_iterable(map(g.get, block, repeat(_ZERO)))
    return np.fromiter(pairs, float, 2 * len(block)).reshape(-1, 2).T


def interval_hessian(cl: Codelist, box: Box) -> SymIntervalMatrix:
    """Elementwise enclosure of the Hessian of the codelist over the box.

    Every expression keeps the association order of the elementwise
    Interval formulas, so each entry equals (==) the per-entry Interval
    result.  Raises :class:`InvalidInterval` at the line where an entry
    overflows, whatever numpy's error settings are; an error of that line's
    r'' comes first.
    """
    n = cl.n
    last_read = cl.last_read
    blocks = cl.blocks

    def total(terms, size, hs):
        """The sum of s·H_ref over a line's operand terms (s, ref), s = None for 1, on a block
        of ``size`` variables: None if every H_ref is zero, else a pair or a stack.

        The stacks are summed first; then each pair on a larger block is added as the
        single entry (p, p) of its block (p,).  Two terms commute, so each entry is
        term i plus term j, as in the elementwise formula.
        """
        m = None
        own = False  # whether m is this line's own array, to be written into
        pairs = []
        for s, ref in terms:
            h = hs[ref - 1]
            if h is None:
                continue
            if s is not None:
                h = _scale(s, h)  # a new array, or a pair
            if type(h) is tuple:
                if size == 1:
                    m = h if m is None else pair_add(m, h)
                else:
                    pairs.append((blocks[ref - 1][0] - 1, h))
            elif m is None:
                m, own = h, s is not None
            elif own:
                np.add(m, h, out=m)
            else:
                m, own = m + h, True
        for p, h in pairs:
            if m is None:
                m = np.zeros((2, n, n))
            elif not own:
                m = m.copy()
            own = True
            m[0, p, p] += h[0]
            m[1, p, p] += h[1]
        return m

    def add(m, d, block):
        """``m + d`` for a term d on block x block; m is None (zero), a pair, or this line's own stack."""
        if type(d) is tuple:  # a one-variable block: m is a pair too
            return d if m is None else pair_add(m, d)
        if len(block) == n:
            return d if m is None else np.add(m, d, out=m)
        ix = cl.block_index[block]
        if m is None:
            m = np.zeros((2, n, n))
            m.reshape(-1)[ix] = d.reshape(-1)
        else:
            m.reshape(-1)[ix] += d.reshape(-1)  # m is C-ordered, so reshape gives a view
        return m

    def hessian(cl, k, line, ys, grads, firsts, memo, hs):
        block, i, j = blocks[k - 1], line.i, line.j
        rule = UNARY_RULES.get(line.op)  # r'' comes before the terms, so that its errors win
        r2 = rule.second(ys[i - 1], ys[k - 1], line) if block and rule and rule.second else None
        try:
            if not block:  # y_k is affine in x
                m = None
            elif line.op == "add":
                m = total(((None, i), (None, j)), len(block), hs)
            elif line.op == "mul":
                m = total(((ys[j - 1], i), (ys[i - 1], j)), len(block), hs)
                m = add(m, _cross(_dense(grads[i - 1], block), _dense(grads[j - 1], block)), block)
            else:  # firsts[k] is None where r' = 1: the operand's carrier itself
                m = total(((firsts[k], i),), len(block), hs)
                if r2 is not None:
                    g = _dense(grads[i - 1], block)
                    m = add(m, _scale(r2, _outer(g, g)), block)
        except (InvalidInterval, FloatingPointError):
            raise InvalidInterval("non-finite gradient or Hessian enclosure") from None
        for ref in (i, j):  # drop each carrier after its last reader
            if ref is not None and last_read[ref] == k:
                hs[ref - 1] = None
        return m

    with np.errstate(all="ignore", over="raise", invalid="raise"):
        m = _walk(cl, box, hessian, None)[2][-1]
    if type(m) is not np.ndarray:  # zero, or the pair of the last line's one-variable block (p,)
        pair, m = m, np.zeros((2, n, n))
        if pair is not None:
            p = blocks[-1][0] - 1
            m[:, p, p] = pair
    lo, hi = m
    # symmetrize away last-bit rounding asymmetry between mirrored entries
    return SymIntervalMatrix(np.minimum(lo, lo.T), np.maximum(hi, hi.T))


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
    try:
        xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidArgument(f"points are not real numbers: {err}") from None
    if xs.ndim != 2:
        raise InvalidArgument(f"points must be a (P, n) array, got shape {xs.shape}")
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
    The vertices are stacked _VERTEX_CHUNK at a time, both sides together,
    and solved with one batched LAPACK call per chunk.
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
        vertices = np.stack((-signed, signed))
        vertices += mid  # mid -+ signed; LAPACK solves each matrix on its own
        w = np.linalg.eigvalsh(vertices)
        lo = min(lo, float(w[0, :, 0].min()))
        hi = max(hi, float(w[1, :, -1].max()))
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
