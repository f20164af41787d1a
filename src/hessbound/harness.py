"""Benchmark harness: the bound methods, box sampling, comparison and reporting.

:data:`METHODS` maps each method's name to ``(cl, box) -> EvalResult``.  On a
corpus, each (function, box) pair yields a class per side of a codelist bound
against the interval-Hessian references:

    1  worse than the Gershgorin bound
    2  as good as the Gershgorin bound
    3  between the Gershgorin and vertex-enumeration bounds
    4  as good as the vertex-enumeration bound
    5  better than the vertex-enumeration bound

"as good as" is decided by a scale-free deviation measure with a relative
tolerance eps.  The module also hosts real-point evaluation, which runs
a codelist's generated ``point_function``, the alpha-BB convex
underestimator built on it, and a seeded random-function generator used
to build corpora.

The underestimator keeps the endpoints of the last box it was asked about,
with its containment slack added, in a one-entry slot keyed by the identity
of ``box.dims``: points on one ``Box`` object read them once, and a call on
a new ``Box`` object pays about a microsecond to read them again.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
import zlib
from dataclasses import dataclass, field
from decimal import InvalidOperation
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bounds import EvalResult, _result, eval_improved, eval_original
from .codelist import Codelist, _check_variable_count, _point_length
from .errors import (
    HessboundError,
    InconsistentInputs,
    InvalidArgument,
    InvalidInterval,
    LengthMismatch,
    PointOutsideBox,
    shown,
)
from .expressions import compile_expression
from .interval import Box, Interval
from .reference import _hessian_walk, gershgorin_bounds, hertz_rohn_bounds, interval_hessian

__all__ = [
    "METHODS",
    "DEFAULT_EPS",
    "dev",
    "classify",
    "alpha_bb_eval",
    "codelist_value",
    "random_boxes",
    "parse_box",
    "CorpusEntry",
    "read_corpus",
    "write_corpus",
    "random_function",
    "CompareRecord",
    "SkipRecord",
    "CompareResult",
    "run_compare",
    "emit_report",
]

DEFAULT_EPS = 1e-6
MIN_WIDTH_FRACTION = 1e-9


# -- scale-free comparison ------------------------------------------------

def dev(a: float, b: float) -> float:
    """Scale-free deviation of a from b; positive iff a is larger."""
    return (a - b) / (1.0 + 0.5 * abs(a + b))


def _greater(a: float, b: float, eps: float) -> bool:
    return dev(a, b) > eps


def _approx(a: float, b: float, eps: float) -> bool:
    return abs(dev(a, b)) <= eps


def _check_eps(eps: float) -> None:
    """:class:`InvalidArgument` unless the tolerance ``eps`` is finite and 0 or more."""
    try:
        valid = bool(0.0 <= eps < math.inf)
    except (TypeError, ValueError):  # not a number, or an array of them
        valid = False
    if not valid:
        raise InvalidArgument(f"comparison tolerance {eps!r} is not a finite number of 0 or more")


def classify(tested: Interval, gersh: Interval, vertex: Interval,
             eps: float = DEFAULT_EPS) -> Tuple[int, int]:
    """Quality classes (lower side, upper side) of the tested bounds.

    The vertex-enumeration interval is exact for the interval-Hessian
    relaxation, so it must sit inside the Gershgorin interval; if it does
    not (beyond eps), the inputs are inconsistent.  ``eps`` is finite and 0
    or more.  Each bound is an :class:`Interval`, else :class:`InvalidArgument`.
    """
    for name, bound in ("tested", tested), ("gersh", gersh), ("vertex", vertex):
        if not isinstance(bound, Interval):
            raise InvalidArgument(f"{name} bound {shown(bound)} is not an Interval")
    _check_eps(eps)
    if _greater(gersh.lo, vertex.lo, eps) or _greater(vertex.hi, gersh.hi, eps):
        raise InconsistentInputs(
            f"vertex bounds {vertex} are not within Gershgorin bounds {gersh}")

    def side(t: float, g: float, v: float, better_is_larger: bool) -> int:
        sign = 1.0 if better_is_larger else -1.0
        if _greater(sign * t, sign * v, eps):
            return 5
        if _approx(t, v, eps):
            return 4
        if _greater(sign * g, sign * t, eps):
            return 1
        if _approx(t, g, eps):
            return 2
        return 3

    return (side(tested.lo, gersh.lo, vertex.lo, True),
            side(tested.hi, gersh.hi, vertex.hi, False))


# -- point evaluation and the convex underestimator ----------------------

def codelist_value(cl: Codelist, x: Sequence[float]) -> float:
    """The codelist's value at a real point: ``cl.point_function(x)``, which
    raises only the package's errors."""
    try:
        point = cl.point_function
    except AttributeError:
        raise InvalidArgument(f"expected a Codelist, got {type(cl).__name__}") from None
    return point(x)


# The box that alpha_bb_eval last prepared: (box components, ends), with
# (lo - 1e-12, hi + 1e-12, lo, hi) in ends for each component.  It is reused
# only for the same component tuple, compared with ``is``, as the engines reuse
# their last value pass; the strong reference keeps the id from being recycled
# while the slot holds it.  The slot is one tuple, read and replaced whole, so
# threads that share it at worst prepare a box again.
_last_box = None


def alpha_bb_eval(cl: Codelist, box: Box, x: Sequence[float],
                  lam_lo: Optional[float] = None) -> float:
    """Convex underestimator value at x.

    Shifts the function by the separable quadratic
    -0.5 * lam_lo * sum_i (lo_i - x_i)(hi_i - x_i) when the guaranteed
    smallest Hessian eigenvalue lam_lo over the box is negative.  Each
    factor pair (lo_i - x_i)(hi_i - x_i) is <= 0 inside the box, so the
    shift vanishes at every vertex and is <= 0 inside the box, which makes
    the result an underestimator of the function.  ``box`` is a
    :class:`Box`, or a list or tuple of Intervals, as the engines take.
    Raises :class:`InvalidArgument` unless x is a sequence or a 1-D array
    and lam_lo a real number (a nan is not, nor is a numpy array of one or
    more dimensions), and :class:`InvalidInterval` when a component of x is not a
    number or the shifted value is not finite.

    The endpoints of the box, with the containment slack of 1e-12 added,
    are read once per box: the module keeps those of the last box, keyed by
    the identity of ``box.dims``.  A run of points on one ``Box`` object
    reads them once; each call on a new ``Box`` object, even one equal to
    the last, reads them again, which costs about a microsecond.
    """
    global _last_box
    length = _point_length(x)
    try:
        dims = box.dims
    except AttributeError:  # a list or tuple of Intervals, as the engines take
        box = Box(box)
        dims = box.dims
    if length != len(dims):
        raise LengthMismatch(f"point of length {length} vs box of length {len(dims)}")
    last = _last_box
    if last is not None and last[0] is dims:
        ends = last[1]
    else:
        ends = [(d.lo - 1e-12, d.hi + 1e-12, d.lo, d.hi) for d in dims]
        _last_box = dims, ends
    # containment and the sum of (lo_i - x_i)(hi_i - x_i), in one left-to-right
    # loop of plain float additions (sum() is compensated from Python 3.12)
    s = 0.0
    try:
        for (a, b, lo, hi), xi in zip(ends, x):
            if not a <= xi <= b:
                raise PointOutsideBox(f"{shown(tuple(x))} is not in {box}")
            s += (lo - xi) * (hi - xi)
    except TypeError:  # a component is not a number: name the first one
        for k, ((a, b, lo, hi), xi) in enumerate(zip(ends, x), start=1):
            try:  # what the loop computes; a Decimal compares, but does not subtract
                a <= xi <= b and (lo - xi) * (hi - xi)
            except TypeError:
                raise InvalidInterval(f"point component {k} is {shown(xi)}, not a number") from None
        raise
    if lam_lo is None:
        lam_lo = eval_improved(cl, box).eigen.lo
    val = codelist_value(cl, x)
    if type(lam_lo) is not float and getattr(lam_lo, "ndim", 0):  # a numpy array of numbers
        raise InvalidArgument(f"lam_lo {shown(lam_lo)} is not a number")
    try:
        if lam_lo != lam_lo:  # nan, tested first: a Decimal nan does not order
            raise InvalidArgument(f"lam_lo {shown(lam_lo)} is not a number")
        if lam_lo >= 0.0:
            return val
        shift = -0.5 * lam_lo * s
    except (TypeError, InvalidOperation):  # a signalling Decimal nan raises even on !=
        raise InvalidArgument(f"lam_lo {shown(lam_lo)} is not a number") from None
    except OverflowError:  # an int below -(largest float): -0.5 * lam_lo is inf
        shift = math.inf * s
    shifted = val + shift
    if not math.isfinite(shifted):
        raise InvalidInterval(f"non-finite alpha-BB shift {shift!r} of the value {val!r}")
    return shifted


# -- box sampling ---------------------------------------------------------

def _integer(value, what: str) -> int:
    """``value`` as an int, or :class:`InvalidArgument` unless it is an integer
    (numpy integers pass; floats, strings and bools do not)."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidArgument(f"{what} {value!r} is not an integer")


def _box_count(count) -> int:
    """``count`` as an int, or :class:`InvalidArgument` unless it is an integer of 0 or more."""
    count = _integer(count, "box count")
    if count < 0:
        raise InvalidArgument(f"box count {count} is below 0")
    return count


def _rng(seed) -> random.Random:
    """``random.Random(seed)``; :class:`InvalidArgument` for a seed it does not take."""
    if seed is not None and not isinstance(seed, (int, float, str, bytes, bytearray)):
        raise InvalidArgument(f"seed {shown(seed)} is not None, an int, a float, a str, "
                              "bytes or a bytearray")
    return random.Random(seed)


def random_boxes(domain: Box, count: int, seed: int) -> List[Box]:
    """Deterministic sample of sub-boxes of ``domain``.

    Each dimension gets two independent uniform draws, sorted; a dimension
    is redrawn while its width is below 1e-9 times the domain width.  A
    domain component wider than the largest float is an
    :class:`InvalidArgument`: every draw on it would be inf.  So is a
    ``seed`` that :class:`random.Random` does not take.  ``domain`` is a
    :class:`Box`, or anything ``Box`` builds one from.
    """
    count = _box_count(count)
    rng = _rng(seed)
    if not isinstance(domain, Box):
        domain = Box(domain)
    for i, d in enumerate(domain, start=1):
        if not d.width < math.inf:
            raise InvalidArgument(f"domain component {i} {d} is wider than the largest float")
    boxes: List[Box] = []
    for _ in range(count):
        dims = []
        for d in domain:
            while True:
                a = rng.uniform(d.lo, d.hi)
                b = rng.uniform(d.lo, d.hi)
                lo, hi = (a, b) if a <= b else (b, a)
                if hi - lo >= MIN_WIDTH_FRACTION * d.width:
                    break
            dims.append(Interval(lo, hi))
        boxes.append(Box(dims))
    return boxes


# -- corpus files ---------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One corpus function.  Construction checks every field, else
    :class:`InvalidArgument`: ``name`` and ``source`` are str, ``n`` is an
    int of 1 or more and ``domain`` a :class:`Box` of n components."""

    name: str
    n: int
    domain: Box
    source: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidArgument(f"corpus entry name {shown(self.name)} is not a str")
        if type(self.n) is not int or self.n < 1:
            raise InvalidArgument(f"{self.name}: variable count {shown(self.n)} "
                                  "is not an int of 1 or more")
        if not isinstance(self.domain, Box) or len(self.domain) != self.n:
            raise InvalidArgument(f"{self.name}: domain {shown(self.domain)} "
                                  f"is not a Box of {self.n} components")
        if not isinstance(self.source, str):
            raise InvalidArgument(f"{self.name}: source {shown(self.source)} is not a str")

    def compile(self) -> Codelist:
        return compile_expression(self.source, self.n)


def parse_box(text: str, n: int) -> Box:
    """Parse ``'l1,u1;l2,u2;...;ln,un'`` into an n-dimensional box."""
    if not isinstance(text, str):
        raise InvalidArgument(f"box text {shown(text)} is not a str")
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != n:
        raise InvalidArgument(f"box has {len(parts)} components, expected {n}")
    bounds = []
    for k, p in enumerate(parts, start=1):
        try:  # two numbers, or ValueError (a wrong count or not a number)
            lo, hi = map(float, p.split(","))
        except ValueError:
            raise InvalidArgument(
                f"box component {k} is {p.strip()!r}, expected the form lo,hi") from None
        bounds.append((lo, hi))
    return Box.from_bounds(bounds)


def _directory(directory) -> str:
    """``directory`` as a str path; :class:`InvalidArgument` unless it is a str or a path."""
    try:
        path = os.fspath(directory)
    except TypeError:
        path = None
    if not isinstance(path, str):  # None lists the working directory, bytes list bytes names
        raise InvalidArgument(f"corpus directory {shown(directory)} is not a str or a path")
    return path


def _entries(entries) -> List[CorpusEntry]:
    """``entries`` as a list; :class:`InvalidArgument` unless it is an iterable of CorpusEntry."""
    try:
        entries = list(entries)
    except TypeError:
        raise InvalidArgument(f"entries of type {type(entries).__name__} are not an iterable "
                              "of CorpusEntry") from None
    for k, entry in enumerate(entries, start=1):
        if not isinstance(entry, CorpusEntry):
            raise InvalidArgument(f"corpus entry {k} is a {type(entry).__name__}, "
                                  "not a CorpusEntry")
    return entries


def read_corpus(directory: str) -> List[CorpusEntry]:
    """Load every *.txt function file from a corpus directory, a str or a path.

    File layout: a ``vars: n`` line, a ``# domain: l,u;...;l,u`` line, then
    the expression on the remaining non-comment lines.
    """
    directory = _directory(directory)
    entries: List[CorpusEntry] = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".txt"):
            continue
        n = None
        domain_text = None
        expr_lines: List[str] = []
        try:
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                raw_lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise InvalidArgument(
                f"{fname}: not UTF-8 text ({err.reason} at byte {err.start})") from None
        for raw in raw_lines:
            line = raw.strip()
            if not line:
                continue
            if line.lower().startswith("vars:"):
                text = line.split(":", 1)[1].strip()
                try:
                    n = int(text)
                except ValueError:
                    raise InvalidArgument(
                        f"{fname}: vars: {text!r} is not a whole number") from None
                if n < 1:
                    raise InvalidArgument(f"{fname}: vars: {n} must be at least 1")
            elif line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.lower().startswith("domain:"):
                    domain_text = body.split(":", 1)[1]
            else:
                expr_lines.append(line)
        if n is None or domain_text is None or not expr_lines:
            raise InvalidArgument(f"{fname}: needs a vars: line, a domain comment and an expression")
        try:
            domain = parse_box(domain_text, n)
        except (InvalidArgument, InvalidInterval) as err:
            raise type(err)(f"{fname}: domain: {err}") from None
        entries.append(CorpusEntry(name=fname[:-4], n=n, domain=domain, source=" ".join(expr_lines)))
    return entries


def write_corpus(directory: str, entries: Iterable[CorpusEntry]) -> None:
    """Write each :class:`CorpusEntry` as ``<name>.txt`` in the layout
    :func:`read_corpus` reads, making the directory if it is missing."""
    directory = _directory(directory)
    entries = _entries(entries)
    os.makedirs(directory, exist_ok=True)
    for e in entries:
        domain = ";".join(f"{d.lo:.17g},{d.hi:.17g}" for d in e.domain)
        with open(os.path.join(directory, e.name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(f"vars: {e.n}\n# domain: {domain}\n{e.source}\n")


# -- seeded random function generation ------------------------------------

_EXTRA_OPS = 3  # a generated function's step budget beyond one step per variable


def random_function(n: int, seed: int, *, require_mul: bool = False) -> CorpusEntry:
    """Generate one random, domain-safe function of n variables.

    Builds the expression bottom-up from the variable pool, guarding every
    step with an interval evaluation over the domain so that reciprocal,
    sqrt and ln arguments stay clear of their singularities and exp never
    overflows.  Raises :class:`MalformedCodelist` unless ``n`` is an
    integer >= 1, as :func:`compile_expression` does, and
    :class:`InvalidArgument` for a ``seed`` that :func:`random_boxes` refuses.
    """
    _check_variable_count(n)
    rng = _rng(seed)
    domain = Box(Interval(round(rng.uniform(0.2, 0.8), 3),
                          round(rng.uniform(1.0, 2.0), 3)) for _ in range(n))

    pool: List[Tuple[str, Interval]] = [
        (f"x{i}", domain[i - 1]) for i in range(1, n + 1)
    ]
    rng.shuffle(pool)
    used_mul = False

    def unary_choices(iv: Interval) -> List[str]:
        out = ["pow2", "addC", "mulByC"]
        if iv.mag < 20.0:
            out.append("exp")
        if iv.lo > 1e-6:
            out.extend(["sqrt", "ln", "recip"])
        return out

    def apply_unary(expr: str, iv: Interval) -> Tuple[str, Interval]:
        kind = rng.choice(unary_choices(iv))
        if kind == "pow2" and iv.mag < 1e3:
            return f"({expr})^2", iv.pow(2)
        if kind == "exp":
            return f"exp({expr})", iv.exp()
        if kind == "sqrt":
            return f"sqrt({expr})", iv.sqrt()
        if kind == "ln":
            return f"ln({expr})", iv.ln()
        if kind == "recip":
            return f"1/({expr})", iv.recip()
        if kind == "addC":
            c = round(rng.uniform(-2.0, 2.0), 3)
            return f"({expr}) + {c}" if c >= 0 else f"({expr}) - {-c}", iv.add_const(c)
        c = round(rng.uniform(0.5, 2.5), 3) * rng.choice([1.0, -1.0])
        return f"{c}*({expr})", iv.scale(c)

    steps = 0
    budget = _EXTRA_OPS + len(pool)
    while len(pool) > 1 or steps < budget:
        steps += 1
        if len(pool) > 1 and (rng.random() < 0.6 or steps >= budget):
            (e1, v1) = pool.pop()
            (e2, v2) = pool.pop()
            if rng.random() < 0.5 and (v1 * v2).mag < 1e6:
                pool.append((f"({e1})*({e2})", v1 * v2))
                used_mul = True
            else:
                pool.append((f"({e1}) + ({e2})", v1 + v2))
        else:
            expr, iv = pool.pop()
            if iv.mag < 1e6:
                pool.append(apply_unary(expr, iv))
            else:
                c = 1e-3
                pool.append((f"{c}*({expr})", iv.scale(c)))
    expr, iv = pool[0]
    if require_mul and not used_mul:
        j = rng.randrange(1, n + 1)
        expr = f"({expr}) + (x{j})*(x{j % n + 1})"
    return CorpusEntry(name=f"fn_{n}_{seed}", n=n, domain=domain, source=expr)


# -- comparison driver ----------------------------------------------------

def _reference(cl: Codelist, box: Box, bound, method: str) -> EvalResult:
    """``bound`` of the interval Hessian, with the value and gradient of its one walk."""
    ys, grads, enc = _hessian_walk(cl, box)
    return _result(cl, ys, grads, bound(enc), method)


# each entry looks its functions up by this module's names when it runs, as tracers wrap them
METHODS = {
    "original": lambda cl, box: eval_original(cl, box),
    "improved": lambda cl, box: eval_improved(cl, box),
    "gershgorin": lambda cl, box: _reference(cl, box, gershgorin_bounds, "gershgorin"),
    "hertzrohn": lambda cl, box: _reference(cl, box, hertz_rohn_bounds, "hertzrohn"),
}


@dataclass(frozen=True)
class CompareRecord:
    function: str
    n: int
    box_index: int
    method: str
    lower_class: int
    upper_class: int


@dataclass(frozen=True)
class SkipRecord:
    function: str
    n: int
    box_index: int
    reason: str


@dataclass
class CompareResult:
    eps: float
    seed: int
    boxes_per_function: int
    records: List[CompareRecord] = field(default_factory=list)
    skips: List[SkipRecord] = field(default_factory=list)


def run_compare(entries: Sequence[CorpusEntry], boxes_per_function: int = 100,
                seed: int = 0, eps: float = DEFAULT_EPS) -> CompareResult:
    """Classify ``original`` and then ``improved`` against the references
    on sampled sub-boxes.

    Boxes that make the function leave its domain (or a reference method
    fail) are skipped with a reason; everything else is deterministic in
    (entries order, seed).
    """
    boxes_per_function = _box_count(boxes_per_function)
    _check_eps(eps)
    seed = _integer(seed, "seed")
    entries = _entries(entries)
    result = CompareResult(eps=eps, seed=seed, boxes_per_function=boxes_per_function)
    for entry in entries:
        box_seed = (seed * 1000003 + zlib.crc32(entry.name.encode())) & 0x7FFFFFFF
        try:
            cl = entry.compile()
            boxes = random_boxes(entry.domain, boxes_per_function, box_seed)
        except HessboundError as err:  # name the entry; the type and attributes stay
            err.args = (f"{entry.name}: {err}",)
            raise
        for idx, box in enumerate(boxes):
            try:
                enc = interval_hessian(cl, box)  # one Hessian for both references
                gersh = gershgorin_bounds(enc)
                vertex = hertz_rohn_bounds(enc)
                for method in ("original", "improved"):
                    tested = METHODS[method](cl, box).eigen
                    low, up = classify(tested, gersh, vertex, eps)
                    result.records.append(CompareRecord(
                        entry.name, entry.n, idx, method, low, up))
            except HessboundError as err:
                result.skips.append(SkipRecord(entry.name, entry.n, idx,
                                               f"{type(err).__name__}: {err}"))
    return result


def _aggregate(result: CompareResult) -> List[dict]:
    """Percentage of boxes per class, per (method, n, bound side)."""
    buckets: Dict[Tuple[str, object, str], List[int]] = {}
    for rec in result.records:
        for n_key in (rec.n, "all"):
            for side, klass in (("lower", rec.lower_class), ("upper", rec.upper_class)):
                counts = buckets.setdefault((rec.method, n_key, side), [0] * 5)
                counts[klass - 1] += 1
    rows = []
    def sort_key(k):
        method, n_key, side = k
        return (method, (1, 0) if n_key == "all" else (0, n_key), side)
    for key in sorted(buckets, key=sort_key):
        method, n_key, side = key
        counts = buckets[key]
        total = sum(counts)
        rows.append({
            "method": method,
            "n": n_key,
            "bound": side,
            "cases": total,
            **{f"class{i+1}": 100.0 * counts[i] / total for i in range(5)},
        })
    return rows


def emit_report(result: CompareResult, fmt: str = "csv") -> str:
    """Render the aggregated comparison as csv, json or an aligned table."""
    if not isinstance(result, CompareResult):
        raise InvalidArgument(f"result is a {type(result).__name__}, not a CompareResult")
    rows = _aggregate(result)
    if fmt == "csv":
        out = ["method,n,bound,cases,class1,class2,class3,class4,class5"]
        for r in rows:
            out.append("{method},{n},{bound},{cases},".format(**r)
                       + ",".join(f"{r[f'class{i+1}']:.4f}" for i in range(5)))
        return "\n".join(out) + "\n"
    if fmt == "json":
        return json.dumps({
            "eps": result.eps,
            "seed": result.seed,
            "boxes_per_function": result.boxes_per_function,
            "rows": rows,
            "skipped": [s.__dict__ for s in result.skips],
        }, indent=2) + "\n"
    if fmt == "table":
        header = f"{'method':<10}{'n':>5}{'bound':>7}{'cases':>7}" + "".join(
            f"{'cls' + str(i+1):>9}" for i in range(5))
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(f"{r['method']:<10}{str(r['n']):>5}{r['bound']:>7}{r['cases']:>7}"
                         + "".join(f"{r[f'class{i+1}']:>9.2f}" for i in range(5)))
        if result.skips:
            lines.append(f"skipped boxes: {len(result.skips)}")
        return "\n".join(lines) + "\n"
    raise InvalidArgument(f"unknown report format {fmt!r}")
