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
  One loop adds each of a line's terms: its operands' carriers, scaled, then
  a product's cross term or a unary line's r'' term on the line's block,
  through that block's flat index (``Codelist.block_index``).  A stack is
  taken before a pair, and a pair is never lifted: on a larger block it is
  the one entry (p, p) added into the line's stack.  No carrier is written
  into by a later line, and each is ``None`` after its last reader.  An
  overflow in any Hessian entry raises :class:`InvalidInterval` at the
  operation where it happens, in a pair kernel or a numpy stack alike; an
  error of the line's own r'' (``pow overflow``, ``sqrt r'' overflow``)
  comes first;
* :func:`gershgorin_bounds` -- disc bounds from such an enclosure;
* :func:`hertz_rohn_bounds` -- exact extremal eigenvalues of a symmetric
  interval matrix via signed vertex enumeration, each vertex picked from the
  endpoint matrices and solved in stacked batches by LAPACK (``eigvalsh``);
* :func:`sym_eigen_range` -- eigenvalue range of one symmetric matrix,
  checked as a :class:`SymIntervalMatrix` is;
* :func:`point_hessians` -- exact real Hessians at a batch of points, used
  as a sampling oracle; it has its own float rules, so sampling checks the
  interval rules rather than repeating them.  Their table has the shape of
  ``UNARY_RULES``, ``None`` marking r' = 1 and r'' = 0: an affine line
  passes its operand's gradient and Hessian on (``addC``) or scales them by
  its constant (``mulByC``), and forms no r'' g gᵀ term.  Like
  :func:`interval_hessian` it raises :class:`InvalidInterval` at the line
  where a float overflows.

The Hessians and Gershgorin run under numpy's error setting ``_FLOAT_ERRORS``, not the
caller's: overflows raise, and Gershgorin reports them as :class:`InvalidInterval`.
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
# took 0.05 s at n = 12, 1.2 s at n = 16 and 26 s at n = 20 (the process
# peaked at 64 MB resident).
VERTEX_DIMENSION_LIMIT = 20
# vertices per batched eigvalsh call, which solves both sides of each: a
# 2 x 2048 x n x n stack of doubles, 13 MB at n = 20, picked by a
# 2048 x n x n boolean sign pattern, 0.8 MB
_VERTEX_CHUNK = 2048
# numpy's errors in each array routine: overflow and invalid raise, underflow rounds
_FLOAT_ERRORS = {"all": "raise", "under": "ignore"}


def _symmetric(a: np.ndarray) -> bool:
    # exact symmetry implies allclose symmetry and NaN fails both, so the
    # exact test only skips allclose's cost on the common exact case; a
    # difference past the float range is inf, which is not close
    with np.errstate(all="ignore"):
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
        except (TypeError, ValueError, OverflowError) as err:
            raise InvalidArgument(f"interval matrix entries are not real numbers: {err}") from None
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise NotSymmetric(f"bad shapes {lo.shape} / {hi.shape}")
        if lo.shape[0] == 0:
            raise NotSymmetric("an interval matrix needs at least one row")
        if np.any(lo > hi) or not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NotSymmetric("entries must be finite intervals with lo <= hi")
        if not (_symmetric(lo) and _symmetric(hi)):
            raise NotSymmetric("endpoint matrices must be symmetric")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def entry(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def mid_rad(self) -> Tuple[np.ndarray, np.ndarray]:
        return 0.5 * self.lo + 0.5 * self.hi, 0.5 * self.hi - 0.5 * self.lo

    def contains_matrix(self, m: np.ndarray, slack: float = 0.0) -> bool:
        return bool(np.all(self.lo - slack <= m) and np.all(m <= self.hi + slack))


# -- interval Hessian propagation: the helpers take a pair or a stack -------
# Each helper raises where an endpoint overflows: a pair kernel raises
# InvalidInterval, and a stack operation FloatingPointError, since
# interval_hessian runs under _FLOAT_ERRORS.

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
    result.  It is exactly symmetric, as c + cᵀ and g gᵀ are.  Raises
    :class:`InvalidInterval` at the line where an entry overflows, naming
    that line; an error of that line's r'' comes first.
    """
    n = cl.n
    last_read = cl.last_read
    blocks = cl.blocks

    def hessian(cl, k, line, ys, grads, firsts, memo, hs):
        block, i, j = blocks[k - 1], line.i, line.j
        if not block:  # y_k is affine in x, and so are its operands: no carrier to read
            return None
        rule = UNARY_RULES.get(line.op)  # r'' comes before the terms, so that its errors win
        r2 = rule.second(ys[i - 1], ys[k - 1], line) if rule and rule.second else None
        m = None  # the sum: None (zero), a pair or a stack
        try:
            # terms (s, H, H's block) for s·H, s = None for 1: the operands, then the block term
            if line.op in ("add", "mul"):
                mul = line.op == "mul"
                terms = [(ys[j - 1] if mul else None, hs[i - 1], blocks[i - 1]),
                         (ys[i - 1] if mul else None, hs[j - 1], blocks[j - 1])]
                if type(hs[i - 1]) is tuple:  # a stack before a pair: a stack added to
                    terms.reverse()  # the zeros that a pair starts would turn -0.0 into 0.0
                if mul:
                    g = _cross(_dense(grads[i - 1], block), _dense(grads[j - 1], block))
                    terms.append((None, g, block))
            else:  # firsts[k] is None where r' = 1
                terms = [(firsts[k], hs[i - 1], blocks[i - 1])]
                if r2 is not None:
                    g = _dense(grads[i - 1], block)
                    terms.append((None, _scale(r2, _outer(g, g)), block))
            for s, h, b in terms:
                if h is None:
                    continue
                if s is not None:
                    h = _scale(s, h)  # a new stack, or a pair
                if len(block) == 1:  # every term is a pair
                    m = h if m is None else pair_add(m, h)
                elif type(h) is tuple:  # an operand's entry (p, p), added into a new stack
                    m = np.zeros((2, n, n)) if m is None else m.copy()
                    p = b[0] - 1
                    m[0, p, p], m[1, p, p] = pair_add((m[0, p, p], m[1, p, p]), h)
                elif h.shape[1] == n:  # a whole stack
                    m = h if m is None else m + h
                elif m is None:  # a term on a smaller block: assigned into zeros, not added
                    m = np.zeros((2, n, n))
                    m.reshape(-1)[cl.block_index[block]] = h.reshape(-1)
                else:  # m comes from a scaled operand, so it is a new C-ordered stack
                    m.reshape(-1)[cl.block_index[block]] += h.reshape(-1)
        except (InvalidInterval, FloatingPointError):
            raise InvalidInterval("non-finite gradient or Hessian enclosure") from None
        for ref in (i, j):  # drop each carrier after its last reader
            if ref is not None and last_read[ref] == k:
                hs[ref - 1] = None
        return m

    with np.errstate(**_FLOAT_ERRORS):
        m = _walk(cl, box, hessian, None)[2][-1]
    if type(m) is not np.ndarray:  # zero, or the pair of the last line's one-variable block (p,)
        pair, m = m, np.zeros((2, n, n))
        if pair is not None:
            p = blocks[-1][0] - 1
            m[:, p, p] = pair
    return SymIntervalMatrix(*m)


# point_hessians' rules (value, r', r'', domain) of each unary op on arrays of
# sampled operand values, written apart from UNARY_RULES so that the oracle
# does not repeat them; domain is None or (kind, test of values outside it, text)
_POINT_RULES = {
    "powNat": (lambda y, line: y ** line.m,
               lambda y, yk, line: line.m * y ** (line.m - 1),
               lambda y, yk, line: line.m * (line.m - 1) * y ** (line.m - 2),
               None),
    "oneOver": (lambda y, line: 1.0 / y,
                lambda y, yk, line: -yk * yk,
                lambda y, yk, line: 2.0 * yk ** 3,
                ("recip", lambda y: y == 0.0, "0 in sampled values")),
    "sqrt": (lambda y, line: np.sqrt(y),
             lambda y, yk, line: 0.5 / yk,
             lambda y, yk, line: -0.25 / yk ** 3,
             ("sqrt", lambda y: y <= 0.0, "non-positive sampled values")),
    "exp": (lambda y, line: np.exp(y),
            lambda y, yk, line: yk,
            lambda y, yk, line: yk,
            None),
    "ln": (lambda y, line: np.log(y),
           lambda y, yk, line: 1.0 / y,
           lambda y, yk, line: -1.0 / y ** 2,
           ("ln", lambda y: y <= 0.0, "non-positive sampled values")),
    "addC": (lambda y, line: y + line.c, None, None, None),
    "mulByC": (lambda y, line: y * line.c, lambda y, yk, line: line.c, None, None),
}


def point_hessians(cl: Codelist, xs: np.ndarray) -> np.ndarray:
    """Real Hessians at a batch of points.

    ``xs`` has shape (P, n) and finite entries; the result has shape (P, n, n).
    A float overflow raises :class:`InvalidInterval` naming its codelist line.
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
    if not np.isfinite(xs).all():
        raise InvalidArgument("points must have finite coordinates")
    ys: List[np.ndarray] = []
    gs: List[np.ndarray] = []
    hs: List[np.ndarray] = []
    # overflows and divisions by an underflowed 0 raise at their line (einsum would
    # not), as does a powNat exponent that does not convert to a float
    try:
        with np.errstate(**_FLOAT_ERRORS):
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
                    cross = gi[:, :, None] * gj[:, None, :]
                    hs.append(yj[:, None, None] * hs[line.i - 1]
                              + yi[:, None, None] * hs[line.j - 1]
                              + cross + cross.transpose(0, 2, 1))
                    continue
                yi, gi, h = ys[line.i - 1], gs[line.i - 1], hs[line.i - 1]
                value, first, second, domain = _POINT_RULES[line.op]
                if domain is not None and np.any(domain[1](yi)):
                    raise DomainViolation(domain[0], domain[2], line=k)
                yk, gk = value(yi, line), gi
                if first is not None:  # r' per point as a column, or mulByC's constant
                    r1 = np.reshape(first(yi, yk, line), (-1, 1))
                    gk, h = r1 * gi, r1[:, :, None] * h
                if second is not None:
                    h = second(yi, yk, line)[:, None, None] * (gi[:, :, None] * gi[:, None, :]) + h
                ys.append(yk)
                gs.append(gk)
                hs.append(h)
    except (FloatingPointError, OverflowError):
        err = InvalidInterval(f"non-finite point Hessian at codelist line {k}")
        err.line = k
        raise err from None
    return hs[-1]


# -- eigenvalue bounds from interval matrices ----------------------------

def gershgorin_bounds(mat: SymIntervalMatrix) -> Interval:
    """Disc-based eigenvalue bounds for a symmetric interval matrix."""
    try:
        with np.errstate(**_FLOAT_ERRORS):
            mags = np.maximum(np.abs(mat.lo), np.abs(mat.hi))
            off = mags.sum(axis=1) - np.diag(mags)
            lo = float(np.min(np.diag(mat.lo) - off))
            hi = float(np.max(np.diag(mat.hi) + off))
    except FloatingPointError:
        raise InvalidInterval("non-finite Gershgorin disc") from None
    return Interval(lo, hi)


def hertz_rohn_bounds(mat: SymIntervalMatrix) -> Interval:
    """Extremal eigenvalues of a symmetric interval matrix (Hertz 1992; Rohn 1994).

    Over the 2^(n-1) sign vectors z (last entry +1), the lower vertex takes lo_ij where
    z_i z_j = 1 and hi_ij elsewhere, the upper one the reverse; their extreme eigenvalues
    are exact.  One batched ``eigvalsh`` call per _VERTEX_CHUNK vertices solves both sides;
    it reads the lower triangle (``UPLO='L'``) of an enclosure that is only allclose-symmetric.
    """
    n = mat.n
    if n > VERTEX_DIMENSION_LIMIT:
        raise DimensionTooLarge(f"vertex enumeration limited to n <= {VERTEX_DIMENSION_LIMIT}, got {n}")
    count = 1 << (n - 1)
    ends = np.stack((mat.lo, mat.hi))[:, None]  # (2, 1, n, n): lower side, upper side
    lo, hi = math.inf, -math.inf
    for start in range(0, count, _VERTEX_CHUNK):
        bits = np.arange(start, min(start + _VERTEX_CHUNK, count))
        z = (bits[:, None] >> np.arange(n)) & 1  # 1 where z_i = -1; bit n - 1 is 0
        same = z[:, :, None] == z[:, None, :]  # z_i z_j = 1
        w = np.linalg.eigvalsh(np.where(same, ends, ends[::-1]))
        lo = min(lo, float(w[0, :, 0].min()))
        hi = max(hi, float(w[1, :, -1].max()))
    return Interval(lo, hi)


def sym_eigen_range(m: np.ndarray) -> Interval:
    """Eigenvalue range of one symmetric matrix, checked as a SymIntervalMatrix is;
    ``eigvalsh`` reads the lower triangle (``UPLO='L'``) of an allclose-symmetric one."""
    w = np.linalg.eigvalsh(SymIntervalMatrix(m, m).lo)
    return Interval(float(w[0]), float(w[-1]))
