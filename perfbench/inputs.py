"""Seeded benchmark inputs: expression text, domains, sub-boxes and points.

The generator lives here, not in ``hessbound.harness``, so that a change to
the package's own ``random_function`` cannot change what the benchmark runs.
It never imports the package: ranges are tracked with plain float pairs
and every singular operation keeps a safety margin, so the generated
functions are defined and twice differentiable on their whole domain.

Each generated function carries two renderings of one tree:

* ``text`` -- the expression grammar the package parses;
* ``py``   -- a Python expression over ``x`` used as an independent point
  oracle by the correctness gate.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

Range = Tuple[float, float]

# singular operations need their argument at least this far above zero
POSITIVE_MARGIN = 0.05
EXP_ARG_MAX = 6.0
# operands above this magnitude are scaled down before the next operation
MAG_MAX = 50.0


@dataclass(frozen=True)
class Node:
    text: str
    py: str
    lo: float
    hi: float
    atomic: bool = False

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class Function:
    """One generated function: text for the package, oracle for the gate."""

    name: str
    n: int
    text: str
    py: str
    domain: Tuple[Range, ...]

    def oracle(self) -> Callable[[Sequence[float]], float]:
        return eval("lambda x: " + self.py, {"math": math})


def _num(c: float) -> str:
    s = repr(c)
    return f"({s})" if c < 0 else s


def _wrap(e: Node, py: bool = False) -> str:
    body = e.py if py else e.text
    return body if e.atomic else f"({body})"


def var(i: int, r: Range) -> Node:
    return Node(f"x{i}", f"x[{i - 1}]", r[0], r[1], atomic=True)


def add(a: Node, b: Node) -> Node:
    return Node(f"{a.text} + {b.text}", f"{a.py} + {b.py}", a.lo + b.lo, a.hi + b.hi)


def mul(a: Node, b: Node) -> Node:
    p = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Node(f"{_wrap(a)}*{_wrap(b)}", f"{_wrap(a, True)}*{_wrap(b, True)}",
                min(p), max(p))


def scale(c: float, a: Node) -> Node:
    lo, hi = (c * a.lo, c * a.hi) if c >= 0 else (c * a.hi, c * a.lo)
    return Node(f"{_num(c)}*{_wrap(a)}", f"{_num(c)}*{_wrap(a, True)}", lo, hi)


def add_const(a: Node, c: float) -> Node:
    return Node(f"{a.text} + {_num(c)}", f"{a.py} + {_num(c)}", a.lo + c, a.hi + c)


def power(a: Node, m: int) -> Node:
    lo_m, hi_m = a.lo ** m, a.hi ** m
    if a.lo >= 0 or m % 2 == 1:
        lo, hi = lo_m, hi_m
    elif a.hi <= 0:
        lo, hi = hi_m, lo_m
    else:
        lo, hi = 0.0, max(lo_m, hi_m)
    return Node(f"{_wrap(a)}^{m}", f"{_wrap(a, True)}**{m}", lo, hi)


def exp(a: Node) -> Node:
    return Node(f"exp({a.text})", f"math.exp({a.py})", math.exp(a.lo), math.exp(a.hi),
                atomic=True)


def ln(a: Node) -> Node:
    return Node(f"ln({a.text})", f"math.log({a.py})", math.log(a.lo), math.log(a.hi),
                atomic=True)


def sqrt(a: Node) -> Node:
    return Node(f"sqrt({a.text})", f"math.sqrt({a.py})", math.sqrt(a.lo), math.sqrt(a.hi),
                atomic=True)


def recip(a: Node) -> Node:
    return Node(f"1/{_wrap(a)}", f"1/{_wrap(a, True)}", 1.0 / a.hi, 1.0 / a.lo)


def make_positive(a: Node) -> Node:
    """Shift ``a`` so that its range starts at POSITIVE_MARGIN or above."""
    if a.lo >= POSITIVE_MARGIN:
        return a
    return add_const(a, round(POSITIVE_MARGIN + 0.5 - a.lo, 3))


def tame(a: Node) -> Node:
    """Scale ``a`` down when its magnitude leaves the working range."""
    if a.mag <= MAG_MAX:
        return a
    return scale(round(10.0 / a.mag, 6) or 1e-6, a)


def random_unary(rng: random.Random, a: Node) -> Node:
    kind = rng.choice(("pow2", "pow3", "exp", "sqrt", "ln", "recip", "addC", "mulByC"))
    if kind in ("pow2", "pow3"):
        a = tame(a)
        return power(a, 2 if kind == "pow2" else 3)
    if kind == "exp":
        a = tame(a)
        if a.hi > EXP_ARG_MAX or a.lo < -EXP_ARG_MAX:
            a = scale(round(EXP_ARG_MAX / (2.0 * a.mag), 4), a)
        return exp(a)
    if kind in ("sqrt", "ln", "recip"):
        a = make_positive(tame(a))
        return {"sqrt": sqrt, "ln": ln, "recip": recip}[kind](a)
    if kind == "addC":
        return add_const(a, round(rng.uniform(-2.0, 2.0), 3))
    return scale(round(rng.uniform(0.5, 2.5), 3) * rng.choice((1.0, -1.0)), a)


def random_domain(rng: random.Random, n: int) -> Tuple[Range, ...]:
    return tuple((round(rng.uniform(0.2, 0.8), 3), round(rng.uniform(1.0, 2.0), 3))
                 for _ in range(n))


def random_function(rng: random.Random, name: str, n: int, share_vars: bool,
                    unary_ops: int) -> Function:
    """Random expression tree over x1..xn on a random positive domain.

    Every variable appears at least once.  With ``share_vars`` some variables
    appear more than once, so products can combine subtrees that depend on
    the same variable and the shared-variable product rules run.
    """
    domain = random_domain(rng, n)
    pool: List[Node] = [var(i, domain[i - 1]) for i in range(1, n + 1)]
    if share_vars:
        for _ in range(rng.randint(1, max(1, n // 2 + 1))):
            i = rng.randint(1, n)
            pool.append(var(i, domain[i - 1]))
    rng.shuffle(pool)
    left = unary_ops
    while len(pool) > 1 or left > 0:
        if len(pool) > 1 and (left == 0 or rng.random() < 0.6):
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            if rng.random() < 0.5:
                pool.append(mul(tame(a), tame(b)))
            else:
                pool.append(add(a, b))
        else:
            k = rng.randrange(len(pool))
            pool[k] = random_unary(rng, pool[k])
            left -= 1
    root = tame(pool[0])
    return Function(name, n, root.text, root.py, domain)


# -- fixed shapes used by the engine and dense workloads -------------------

# second derivatives bounded away from zero on any positive sub-box, so the
# sparsity-aware engine certifies convexity on every box
CONVEX_TERMS = ("pow2", "exp", "recip", "pow3")


def separable_function(rng: random.Random, name: str, n: int,
                       terms_per_var: int = 1) -> Function:
    """Sum of positively weighted convex univariate terms: convex everywhere."""
    domain = random_domain(rng, n)
    terms = []
    first = rng.randrange(len(CONVEX_TERMS))
    for r in range(terms_per_var):
        for i in range(1, n + 1):
            x = var(i, domain[i - 1])
            kind = CONVEX_TERMS[(first + r + i) % len(CONVEX_TERMS)]
            if kind == "pow2":
                t = power(add_const(x, round(rng.uniform(-1.0, 0.0), 3)), 2)
            elif kind == "exp":
                t = exp(scale(round(rng.uniform(0.3, 1.2), 3), x))
            elif kind == "recip":
                t = recip(x)
            else:
                t = power(x, 3)
            terms.append(scale(round(rng.uniform(0.5, 2.0), 3), t))
    root = terms[0]
    for t in terms[1:]:
        root = add(root, t)
    return Function(name, n, root.text, root.py, domain)


def block_function(rng: random.Random, name: str, n: int, blocks: int = 3) -> Function:
    """Densely coupled: nonlinear maps of overlapping variable sums, multiplied
    and added together, so every Hessian entry is structurally nonzero."""
    domain = random_domain(rng, n)
    xs = [var(i, domain[i - 1]) for i in range(1, n + 1)]
    half = (n + 1) // 2
    subsets = [list(range(half)), list(range(n - half, n))]
    while len(subsets) < blocks:
        subsets.append(sorted(rng.sample(range(n), max(2, n // 4))))
    parts = []
    for b, subset in enumerate(subsets):
        s = xs[subset[0]]
        for j in subset[1:]:
            s = add(s, xs[j])
        kind = ("exp", "sqrt", "pow2", "recip", "ln")[(b + rng.randrange(5)) % 5]
        if kind == "exp":
            parts.append(exp(scale(round(1.0 / s.hi, 4), s)))
        elif kind == "pow2":
            parts.append(power(scale(round(1.0 / s.hi, 4), s), 2))
        else:
            parts.append({"sqrt": sqrt, "recip": recip, "ln": ln}[kind](s))
    root = mul(parts[0], parts[1])
    for p in parts[2:]:
        root = add(root, p) if rng.random() < 0.5 else mul(tame(root), p)
    return Function(name, n, root.text, root.py, domain)


def stream_function(rng: random.Random, name: str, n: int, index: int) -> Function:
    """Function number ``index`` of a workload's stream.  The kind cycles so
    that every stream holds the same mix: a plain random tree, one that
    reuses variables, and a convex separable sum."""
    kind = index % 3
    if kind == 2:
        return separable_function(rng, name, n)
    return random_function(rng, name, n, share_vars=kind == 1, unary_ops=rng.randint(1, 4))


def shared_function(rng: random.Random, name: str, n: int, unary_ops: int = 0) -> Function:
    """Random tree with reused variables, sized to the variable count."""
    return random_function(rng, name, n, share_vars=True,
                           unary_ops=unary_ops or max(3, n // 4))


SHAPES = {
    "separable": separable_function,
    "shared": shared_function,
    "dense": block_function,
}


def fixed_function(shape: str, n: int, size: int = 0) -> Function:
    """The same function on every run: structure and constants depend only on
    (shape, n, size), so per-box cost does not vary with the run seed.
    ``size`` is the shape's own size knob (terms per variable, blocks, or
    unary operations); 0 keeps the shape's default."""
    if not size:
        return SHAPES[shape](random.Random(f"perfbench/{shape}/{n}"), f"{shape}{n}", n)
    rng = random.Random(f"perfbench/{shape}/{n}/{size}")
    return SHAPES[shape](rng, f"{shape}{n}", n, size)


# -- boxes and points ------------------------------------------------------

def sub_box(rng: random.Random, domain: Sequence[Range]) -> Tuple[Range, ...]:
    """Sub-box whose relative width is log-uniform in [0.05, 1] per dimension,
    like the boxes a branch-and-bound search visits at varying depth."""
    out = []
    for lo, hi in domain:
        w = (hi - lo) * math.exp(rng.uniform(math.log(0.05), 0.0))
        a = rng.uniform(lo, hi - w)
        out.append((a, a + w))
    return tuple(out)


def points_in(rng: random.Random, box: Sequence[Range], count: int) -> List[Tuple[float, ...]]:
    return [tuple(rng.uniform(lo, hi) for lo, hi in box) for _ in range(count)]


def unit_rng(tag: str, seed: int, index: int) -> random.Random:
    """Independent stream per (workload, seed, unit), so unit k's input does not
    depend on how many units ran before it."""
    return random.Random(f"{tag}/{seed}/{index}")


def digest(items: Sequence[object]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
