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
  A line adds its operands' carriers, scaled, then a product's cross term or
  a unary line's r'' term on the line's block, through that block's flat
  index (:func:`_index`).  A stack is taken before a pair, and a
  pair is never lifted: on a larger block it is the one entry (p, p) added
  into the line's stack.  So the carrier kinds fix every branch of a line's
  rule but a scaling's sign test, and the rule is written once, as a
  ``string.Template`` per line shape (:func:`_hessian_template`).  The
  rule is the ``_hessian`` entry of the walk's pass table
  (``bounds._PASSES``) and nothing more: the walk runs it by that name, and
  both tiers fill its templates as they fill the engines' passes (the
  interpreter runs one function per shape, and a codelist walked on many
  boxes gets a compiled pass).  A block term's gradient factor on two or
  more variables, ``$outer`` of a unary line and ``$cross`` of a product,
  is a term of ``bounds._CONSTANTS``: where the line's operands are affine
  (have empty blocks) it does not depend on the box, and the compiled pass
  binds it once, from the walk that builds the pass, as a read-only array;
  r'' and every scaling and sum stay per box.  No carrier is written into
  by a later line, and each is ``None`` after its last reader, set so by
  the template's ``$drop``.  An overflow in any Hessian entry raises
  :class:`InvalidInterval` at the line where it happens, in a pair kernel
  or a numpy stack alike; an error of the line's own r'' (``pow
  overflow``, ``sqrt r'' overflow``) comes first;
* :func:`gershgorin_bounds` -- disc bounds from such an enclosure;
* :func:`hertz_rohn_bounds` -- exact extremal eigenvalues of a symmetric
  interval matrix via signed vertex enumeration, each vertex picked from the
  endpoint stack and solved in stacked batches by LAPACK (``eigvalsh``);
  the sign patterns of a vertex set that fits in one batch (n <= 12) are
  built once per process;
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

An interval matrix (:class:`SymIntervalMatrix`) is one C-ordered float
(2, n, n) endpoint stack, checked once when it is built: finite entries with
lo <= hi, then symmetry.  :func:`interval_hessian` hands its walk's stack in
without a copy, and both references read it in place.

The Hessians and Gershgorin run under numpy's error setting ``_FLOAT_ERRORS``, not the
caller's: overflows raise, and Gershgorin reports them as :class:`InvalidInterval`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from string import Template
from typing import List, Tuple

import numpy as np

from .bounds import _CONSTANTS, _PASSES, _ZERO, _walk
from .codelist import UNARY_RULES, Codelist
from .errors import (
    DimensionTooLarge,
    DomainViolation,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
    NotSymmetric,
)
from .interval import Box, Interval, Pair, pair_add

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


def _check_ends(ends: np.ndarray) -> None:
    """The entry checks of a C-ordered float (2, n, n) endpoint stack: finite
    entries with lo <= hi, then symmetric layers.

    Exact symmetry implies allclose symmetry, so each layer's ``allclose``
    runs only when the exact test of the whole stack fails; a difference past
    the float range is inf, which is not close.
    """
    with np.errstate(all="ignore"):
        if not (np.isfinite(ends).all() and (ends[0] <= ends[1]).all()):
            raise NotSymmetric("entries must be finite intervals with lo <= hi")
        if not ((ends == ends.transpose(0, 2, 1)).all()
                or all(np.allclose(a, a.T) for a in ends)):
            raise NotSymmetric("endpoint matrices must be symmetric")


@dataclass(frozen=True)
class SymIntervalMatrix:
    """Elementwise interval enclosure of a symmetric n x n matrix.

    Its endpoints are one C-ordered float (2, n, n) stack, ``ends``, checked
    once; ``lo`` and ``hi`` are views of its two layers.
    """

    lo: np.ndarray
    hi: np.ndarray
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            # a cast to float would drop the imaginary parts
            if np.iscomplexobj(self.lo) or np.iscomplexobj(self.hi):
                raise TypeError("complex entries")
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise InvalidArgument(f"interval matrix entries are not real numbers: {err}") from None
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise NotSymmetric(f"bad shapes {lo.shape} / {hi.shape}")
        if lo.shape[0] == 0:
            raise NotSymmetric("an interval matrix needs at least one row")
        ends = np.empty((2, *lo.shape))  # C-ordered, whatever the layers' order
        ends[0], ends[1] = lo, hi
        _check_ends(ends)
        self._set(ends)

    def _set(self, ends: np.ndarray) -> None:
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "lo", ends[0])
        object.__setattr__(self, "hi", ends[1])

    @classmethod
    def _of(cls, ends: np.ndarray) -> "SymIntervalMatrix":
        """The matrix of a (2, n, n) stack, checked as the constructor checks
        its layers; a writable C-ordered float stack is read in place,
        anything else (a compiled pass's read-only constant, say) goes
        through the constructor, which copies it."""
        if not (ends.dtype == np.float64 and ends.ndim == 3 and len(ends) == 2
                and 0 < ends.shape[1] == ends.shape[2] and ends.flags.c_contiguous
                and ends.flags.writeable):
            return cls(ends[0], ends[1])
        _check_ends(ends)
        mat = object.__new__(cls)
        mat._set(ends)
        return mat

    def __reduce__(self):
        # rebuilt from its layers, so that they are views of one stack again
        return type(self), (self.lo, self.hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def entry(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def mid_rad(self) -> Tuple[np.ndarray, np.ndarray]:
        return 0.5 * self.lo + 0.5 * self.hi, 0.5 * self.hi - 0.5 * self.lo

    def contains_matrix(self, m: np.ndarray, slack: float = 0.0) -> bool:
        return bool(np.all(self.lo - slack <= m) and np.all(m <= self.hi + slack))


# -- interval Hessian propagation: the stack helpers -----------------------
# Each raises FloatingPointError where an endpoint overflows, since
# interval_hessian runs under _FLOAT_ERRORS; a pair is scaled and added by
# the pair kernels, which raise InvalidInterval.

def _scale(s: Pair, m: np.ndarray) -> np.ndarray:
    """Elementwise product of the scalar interval s, a (lo, hi) pair, with a stack m.

    Equals the four-product min/max rule under ==.  When s does not
    straddle 0 only the two products that can be extreme are formed (one
    when s is a point), since multiplying by a non-negative float is
    monotone and by a non-positive one antitone, also after rounding.
    """
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross term a b^T + b a^T of a mul line, on its block."""
    c = _outer(a, b)
    return c + c.transpose(0, 2, 1)


def _dense(g, block) -> np.ndarray:
    """A sparse gradient on a block of two or more variables, 0 off its
    support: the (2, b) stack."""
    pairs = chain.from_iterable(map(g.get, block, repeat(_ZERO)))
    return np.fromiter(pairs, float, 2 * len(block)).reshape(-1, 2).T


def _put(m: np.ndarray, p: int, t: Pair) -> None:
    """Add the pair t into the entry (p, p) of the stack m."""
    m[0, p, p], m[1, p, p] = pair_add((m[0, p, p], m[1, p, p]), t)


def _index(cl: Codelist, block: tuple) -> np.ndarray:
    """The flat index of the entries of ``block`` in both layers of a C-ordered
    (2, n, n) stack, kept on the codelist from its first use (not pickled)."""
    try:
        return cl.__dict__["_index"][block]
    except KeyError:
        n = cl.n
        index = cl.__dict__.setdefault("_index", {})[block] = np.array(
            [layer + (p - 1) * n + q - 1 for layer in (0, n * n) for p in block for q in block])
        return index


# -- the interval-Hessian rule: one template per line shape ----------------
#
# A line's carrier kind is 0 (None), 1 (a pair) or 2 (a stack), by the size
# of its block (see the module docstring).  A shape's template takes the
# placeholders of hessbound.bounds' line shapes, $l, $li and $lj being the
# carriers of the line and its operands.

_NAMES = {"np": np, "_scale": _scale, "_outer": _outer, "_cross": _cross, "_dense": _dense,
          "_put": _put, "_index": _index}


def _shape(cl: Codelist, k: int, line) -> tuple:
    """The shape of operation line k: its op, the carrier kinds of its
    operands and its own, and whether its block spans all n variables."""
    blocks, j = cl.blocks, line.j
    size, ki, kj = len(blocks[k - 1]), len(blocks[line.i - 1]), j and len(blocks[j - 1])
    return (line.op, ki if ki < 2 else 2, kj if j is None or kj < 2 else 2,
            size if size < 2 else 2, size == cl.n)


def _hessian_template(op: str, ki: int, kj, kk: int, whole: bool) -> Template:
    """The rule on a line of the shape ``(op, ki, kj, kk, whole)``: the
    statement of its r'' (none on a binary or an affine line), whose errors
    come first, then its terms, which assign $l and whose overflow is an
    :class:`InvalidInterval`, then the drops of its operands' carriers.

    The line's block term (a product's cross term or a unary line's r''
    term) is formed first; then its operands' terms, scaled, and the block
    term are added in that order.
    """
    if not kk:  # y_k is affine in x, and so are its operands: no carrier to read
        return Template("$l = None")
    row, head, block = UNARY_RULES.get(op), "", None
    if row is None:
        mul = op == "mul"
        terms = [("$yj" if mul else None, "$li", ki, "$bi[0] - 1"),
                 ("$yi" if mul else None, "$lj", kj, "$bj[0] - 1")]
        if ki == 1:  # a stack before a pair: a stack added to the zeros
            terms.reverse()  # that a pair starts would turn -0.0 into 0.0
        if mul:
            block = ("c = pair_mul($gi.get($block[0], _ZERO), $gj.get($block[0], _ZERO)); "
                     "c = pair_add(c, c)" if kk == 1 else "c = $cross")
    else:  # scaled by r', unless r' = 1
        terms = [(None if row.first is None else "$f", "$li", ki, "$bi[0] - 1")]
        if row.second is not None:
            head = "r = $second($yi, $y, $line); "
            block = ("d = $gi.get($block[0], _ZERO); c = pair_mul(r, pair_mul(d, d))" if kk == 1
                     else "c = _scale(r, $outer)")
    src, started = [], False
    if block is not None:  # the block term, added last; kind 3: a stack on a smaller block
        src.append(block)
        terms.append((None, "c", 1 if kk == 1 else 2 if whole else 3, None))
    for s, h, kind, pivot in terms:
        if not kind:
            continue
        if s is not None:  # a new pair or stack
            h = f"pair_mul({s}, {h})" if kind == 1 else f"_scale({s}, {h})"
        if kk == 1:  # every term is a pair
            src.append(f"$l = pair_add($l, {h})" if started else f"$l = {h}")
        elif kind == 1:  # an operand's entry (p, p), added into a new stack
            new = "$l.copy()" if started else "np.zeros((2, $n, $n))"
            src.append(f"$l = {new}; _put($l, {pivot}, {h})")
        elif kind == 2:  # a whole stack
            src.append(f"$l = $l + {h}" if started else f"$l = {h}")
        elif started:  # through its index: $l is a new C-ordered stack, from a scaled operand
            src.append(f"$l.reshape(-1)[_index(cl, $block)] += {h}.reshape(-1)")
        else:  # assigned into zeros, not added, which keeps the sign of its zeros
            src.append(f"$l = np.zeros((2, $n, $n)); "
                       f"$l.reshape(-1)[_index(cl, $block)] = {h}.reshape(-1)")
        started = True
    return Template(head + "${try}" + "; ".join(src) + "${except}$drop")


_PASSES["_hessian"] = _shape, _hessian_template, _NAMES
# the gradient factor of a block term on two or more variables: with affine
# operands, a constant of the compiled pass
_CONSTANTS.update(outer="_outer(d := _dense($gi, $block), d)",
                  cross="_cross(_dense($gi, $block), _dense($gj, $block))")


def _hessian_walk(cl: Codelist, box: Box) -> tuple:
    """The values and sparse gradients of every line and the enclosure, from one walk."""
    with np.errstate(**_FLOAT_ERRORS):
        ys, grads, hs = _walk(cl, box, "_hessian")
    m, block = hs[-1], cl.blocks[-1]
    if len(block) < 2:  # zero, or the pair of the last line's one-variable block (p,)
        n = cl.n
        pair, m = m, np.zeros((2, n, n))
        if block:
            m[:, block[0] - 1, block[0] - 1] = pair
    return ys, grads, SymIntervalMatrix._of(m)


def interval_hessian(cl: Codelist, box: Box) -> SymIntervalMatrix:
    """Elementwise enclosure of the Hessian of the codelist over the box.

    Every expression keeps the association order of the elementwise
    Interval formulas, so each entry equals (==) the per-entry Interval
    result.  It is exactly symmetric, as c + cᵀ and g gᵀ are.  Raises
    :class:`InvalidInterval` at the line where an entry overflows, naming
    that line; an error of that line's r'' comes first.
    """
    return _hessian_walk(cl, box)[2]


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

    ``xs`` has shape (P, n) and finite real entries; the result has shape (P, n, n).
    A float overflow raises :class:`InvalidInterval` naming its codelist line.
    """
    if not isinstance(cl, Codelist):
        raise InvalidArgument(f"expected a Codelist, got {type(cl).__name__}")
    try:
        if np.iscomplexobj(xs):  # a cast to float would drop the imaginary parts
            raise TypeError("complex entries")
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

def _check_matrix(mat) -> None:
    """:class:`InvalidArgument` unless ``mat`` is a :class:`SymIntervalMatrix`."""
    if not isinstance(mat, SymIntervalMatrix):
        raise InvalidArgument(f"expected a SymIntervalMatrix, got {type(mat).__name__}")


def gershgorin_bounds(mat: SymIntervalMatrix) -> Interval:
    """Disc-based eigenvalue bounds for a symmetric interval matrix."""
    _check_matrix(mat)
    try:
        with np.errstate(**_FLOAT_ERRORS):
            mags = np.abs(mat.ends)
            mags = np.maximum(mags[0], mags[1], out=mags[0])
            off = mags.sum(axis=1) - mags.diagonal()
            lo = float((mat.lo.diagonal() - off).min())
            hi = float((mat.hi.diagonal() + off).max())
    except FloatingPointError:
        raise InvalidInterval("non-finite Gershgorin disc") from None
    return Interval(lo, hi)


# the sign patterns of vertex sets that fit in one chunk, keyed (n, start, stop):
# n <= 12 at _VERTEX_CHUNK = 2048, 0.5 MB in all.  Entries are read-only, and
# threads that race on one at worst build it twice.
_SIGN_PATTERNS = {}


def _sign_pattern(n: int, start: int, stop: int) -> np.ndarray:
    """Where z_i z_j = 1 for the sign vectors ``start`` to ``stop`` of the
    2^(n-1), as a (stop - start, n, n) boolean array.  All of them, when they
    are one chunk, are built once and kept read-only."""
    key = n, start, stop
    same = _SIGN_PATTERNS.get(key)
    if same is None:
        # 1 where z_i = -1; bit n - 1 is 0
        z = (np.arange(start, stop)[:, None] >> np.arange(n)) & 1
        same = z[:, :, None] == z[:, None, :]
        if stop - start == 1 << (n - 1):
            same.flags.writeable = False
            _SIGN_PATTERNS[key] = same
    return same


def hertz_rohn_bounds(mat: SymIntervalMatrix) -> Interval:
    """Extremal eigenvalues of a symmetric interval matrix (Hertz 1992; Rohn 1994).

    Over the 2^(n-1) sign vectors z (last entry +1), the lower vertex takes lo_ij where
    z_i z_j = 1 and hi_ij elsewhere, the upper one the reverse; their extreme eigenvalues
    are exact.  Each vertex is picked from the matrix's endpoint stack, and one batched
    ``eigvalsh`` call per _VERTEX_CHUNK vertices solves both sides; it reads the lower
    triangle (``UPLO='L'``) of an enclosure that is only allclose-symmetric.
    """
    _check_matrix(mat)
    n = mat.n
    if n > VERTEX_DIMENSION_LIMIT:
        raise DimensionTooLarge(f"vertex enumeration limited to n <= {VERTEX_DIMENSION_LIMIT}, got {n}")
    count = 1 << (n - 1)
    ends = mat.ends[:, None]  # (2, 1, n, n): lower side, upper side
    lo, hi = math.inf, -math.inf
    for start in range(0, count, _VERTEX_CHUNK):
        same = _sign_pattern(n, start, min(start + _VERTEX_CHUNK, count))
        w = np.linalg.eigvalsh(np.where(same, ends, ends[::-1]))
        lo = min(lo, float(w[0, :, 0].min()))
        hi = max(hi, float(w[1, :, -1].max()))
    return Interval(lo, hi)


def sym_eigen_range(m: np.ndarray) -> Interval:
    """Eigenvalue range of one symmetric matrix, checked as a SymIntervalMatrix is;
    ``eigvalsh`` reads the lower triangle (``UPLO='L'``) of an allclose-symmetric one."""
    w = np.linalg.eigvalsh(SymIntervalMatrix(m, m).lo)
    return Interval(float(w[0]), float(w[-1]))
