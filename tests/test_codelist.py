"""Codelist structure, the static index-set analysis and the unary rule table."""

import dataclasses
import json
import math
import pickle
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hessbound import (
    Box,
    Codelist,
    DomainViolation,
    Interval,
    Line,
    MalformedCodelist,
    compile_expression,
    eval_improved,
    eval_original,
)
from hessbound import bounds
from hessbound.codelist import (
    ABSENT,
    AFFINE_OPS,
    EXACT,
    HULL,
    STAR,
    SUM,
    UNARY_OPS,
    UNARY_RULES,
    WIDENED,
    WIDENED_HULL,
    WIDENED_SUM,
    _POINT_EXPR,
)
from hessbound.expressions import _FUNCTIONS
from hessbound.harness import codelist_value, random_function
from hessbound.reference import _POINT_RULES, interval_hessian


def test_validate_rejects_structural_errors():
    with pytest.raises(MalformedCodelist):
        Codelist(n=0, lines=()).validate()
    with pytest.raises(MalformedCodelist):  # non-var line inside the prefix
        Codelist(n=2, lines=(Line("var"), Line("add", i=1, j=1))).validate()
    with pytest.raises(MalformedCodelist):  # var line after the prefix
        Codelist(n=1, lines=(Line("var"), Line("var"))).validate()
    with pytest.raises(MalformedCodelist):  # forward/self reference
        Codelist(n=1, lines=(Line("var"), Line("add", i=2, j=1))).validate()
    with pytest.raises(MalformedCodelist):  # powNat exponent below 2
        Codelist(n=1, lines=(Line("var"), Line("powNat", i=1, m=1))).validate()
    with pytest.raises(MalformedCodelist):  # affine op without constant
        Codelist(n=1, lines=(Line("var"), Line("addC", i=1))).validate()
    with pytest.raises(MalformedCodelist):
        Codelist(n=1, lines=(Line("var"), Line("frobnicate", i=1))).validate()


@pytest.mark.parametrize("bad", [
    Line("add", i=1.5, j=1),  # a float operand ref
    Line("exp", i=True),  # a bool is not a line number
    Line("powNat", i=1, m=2.5),  # a non-integer exponent
    Line("addC", i=1, c="2"),  # a constant that is not a number
], ids=["float-ref", "bool-ref", "float-exponent", "str-constant"])
def test_construction_rejects_operands_of_the_wrong_type(bad):
    with pytest.raises(MalformedCodelist):
        Codelist(n=1, lines=(Line("var"), bad))


@pytest.mark.parametrize("n,lines,message", [
    (2, [Line("var"), Line("var"), "x"], "line 3: not a Line: 'x'"),
    (1, None, "line 0: lines must be a sequence of Line entries"),
    (1, 5, "line 0: lines must be a sequence of Line entries"),
], ids=["str-line", "no-lines", "int-lines"])
def test_construction_rejects_lines_that_are_not_line_entries(n, lines, message):
    with pytest.raises(MalformedCodelist) as info:
        Codelist(n, lines)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [1.5, True])
def test_construction_rejects_a_variable_count_that_is_not_an_integer(n):
    with pytest.raises(MalformedCodelist, match="variable count"):
        Codelist(n=n, lines=(Line("var"),))


def test_codelist_is_frozen_and_analysed_when_built():
    cl = Codelist(n=2, lines=[Line("var"), Line("var"), Line("mul", i=1, j=2)])
    assert type(cl.lines) is tuple
    assert len(cl.indep) == len(cl.linear) == len(cl.blocks) == len(cl.rules) == 3
    for f in dataclasses.fields(Codelist):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cl, f.name, getattr(cl, f.name))


def test_analysis_golden_sum_of_squares():
    cl = compile_expression("x1^2 + x2^2", 2)
    full = frozenset({1, 2})
    assert cl.indep[0] == frozenset({2}) and cl.linear[0] == full
    assert cl.indep[2] == frozenset({2}) and cl.linear[2] == frozenset({2})
    assert cl.indep[3] == frozenset({1}) and cl.linear[3] == frozenset({1})
    assert cl.indep[4] == frozenset() and cl.linear[4] == frozenset()


def test_analysis_golden_mixed_exponential():
    cl = compile_expression("x1^2 + x2*exp(x2)", 2)
    # lines: var var pow(1) exp(2) mul(2,4) add(3,5)
    assert cl.indep[3] == frozenset({1}) and cl.linear[3] == frozenset({1})
    assert cl.indep[4] == frozenset({1}) and cl.linear[4] == frozenset({1})
    assert cl.indep[5] == frozenset() and cl.linear[5] == frozenset()


def test_analysis_bilinear_has_empty_sets():
    cl = compile_expression("x1*x2", 2)
    # the mixed partial d2/dx1dx2 is nonzero, so no Hessian row vanishes
    assert cl.linear[-1] == frozenset()
    assert cl.indep[-1] == frozenset()


def test_analysis_separable_linear_term():
    cl = compile_expression("x1^2 + x2", 2)
    # the Hessian row/column of x2 is identically zero
    assert 2 in cl.linear[-1]
    assert 2 in cl.indep[-2] or cl.lines[-2].op == "powNat"


def test_analysis_affine_ops_preserve_sets():
    cl = compile_expression("2*x1^2 + 3", 1)
    pow_idx = next(k for k, l in enumerate(cl.lines) if l.op == "powNat")
    for k, line in enumerate(cl.lines):
        if line.op in ("mulByC", "addC"):
            assert cl.indep[k] == cl.indep[pow_idx]
            assert cl.linear[k] == cl.linear[pow_idx]


def test_analysis_idempotent():
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    i1, l1 = cl.indep, cl.linear
    cl.analyze()
    assert cl.indep == i1 and cl.linear == l1


SOURCES = [
    ("x1^2 + x2^2", 2),
    ("x1*x2 + x3", 3),
    ("exp(x1) + x2*x3 + x3", 3),
    ("sqrt(x1 + x2) * x3", 3),
    ("x1 + 2*x2 - 3*x3", 3),
    ("ln(x1)*x2 + x1^3", 2),
]


@pytest.mark.parametrize("src,n", SOURCES)
def test_index_sets_sound_by_finite_differences(src, n):
    """I must contain only variables the line is independent of, and L only
    variables whose whole Hessian row vanishes; checked numerically."""
    cl = compile_expression(src, n)
    rng = random.Random(42)
    h = 1e-4

    def line_value(k, x):
        vals = []
        for idx, line in enumerate(cl.lines, start=1):
            if line.op == "var":
                vals.append(float(x[idx - 1]))
            elif line.op == "add":
                vals.append(vals[line.i - 1] + vals[line.j - 1])
            elif line.op == "mul":
                vals.append(vals[line.i - 1] * vals[line.j - 1])
            elif line.op == "powNat":
                vals.append(vals[line.i - 1] ** line.m)
            elif line.op == "oneOver":
                vals.append(1.0 / vals[line.i - 1])
            elif line.op == "sqrt":
                vals.append(np.sqrt(vals[line.i - 1]))
            elif line.op == "exp":
                vals.append(np.exp(vals[line.i - 1]))
            elif line.op == "ln":
                vals.append(np.log(vals[line.i - 1]))
            elif line.op == "addC":
                vals.append(vals[line.i - 1] + line.c)
            else:
                vals.append(vals[line.i - 1] * line.c)
            if idx == k:
                return vals[-1]

    for _ in range(5):
        x = np.array([rng.uniform(0.6, 1.4) for _ in range(n)])
        for k in range(1, len(cl.lines) + 1):
            f0 = line_value(k, x)
            for v in range(1, n + 1):
                xp, xm = x.copy(), x.copy()
                xp[v - 1] += h
                xm[v - 1] -= h
                d1 = (line_value(k, xp) - line_value(k, xm)) / (2 * h)
                if v in cl.indep[k - 1]:
                    assert abs(d1) < 1e-6, (src, k, v)
                if v in cl.linear[k - 1]:
                    # the whole Hessian row of v must vanish
                    d2 = (line_value(k, xp) - 2 * f0 + line_value(k, xm)) / h**2
                    assert abs(d2) < 1e-3, (src, k, v)
                    for w in range(1, n + 1):
                        if w == v:
                            continue
                        xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                        xpp[[v - 1, w - 1]] += h
                        xmm[[v - 1, w - 1]] -= h
                        xpm[v - 1] += h
                        xpm[w - 1] -= h
                        xmp[v - 1] -= h
                        xmp[w - 1] += h
                        mixed = (line_value(k, xpp) - line_value(k, xpm)
                                 - line_value(k, xmp) + line_value(k, xmm)) / (4 * h**2)
                        assert abs(mixed) < 1e-3, (src, k, v, w)


def test_dump_lists_sets():
    text = compile_expression("x1^2 + x2^2", 2).dump()
    assert "3: powNat(1,m=2) I={2} L={2}" in text
    assert text.splitlines()[-1].startswith("5: add(3,4)")


def test_dump_names_each_operation_line_rule():
    lines = compile_expression("x1*x2 + exp(x1)*x2^2", 2).dump().splitlines()
    assert lines[0] == "1: var I={2} L={1,2}"
    assert lines[2] == "3: mul(1,2) I={} L={} rule: absent/absent sum"
    assert lines[3] == "4: exp(1) I={2} L={2} rule: absent"
    assert lines[5] == "6: mul(4,5) I={} L={} rule: exact/exact 2x2 1,2"
    assert lines[6] == "7: add(3,6) I={} L={} rule: exact/exact sum"


def test_round_trip_value_after_analysis():
    cl = compile_expression("sqrt(x1)*x2 + 1/(x2)", 2)
    assert abs(codelist_value(cl, (4.0, 2.0)) - (2 * 2 + 0.5)) < 1e-12


# -- the unary rule table --------------------------------------------------

# (line, closed-form (value, r', r'') at a real point x, points to check)
CLOSED_FORMS = [
    (Line("powNat", i=1, m=2), lambda x: (x * x, 2 * x, 2.0), (-1.3, 0.4, 2.5)),
    (Line("powNat", i=1, m=5), lambda x: (x ** 5, 5 * x ** 4, 20 * x ** 3), (-1.3, 0.4, 2.5)),
    (Line("oneOver", i=1), lambda x: (1 / x, -1 / x ** 2, 2 / x ** 3), (-1.3, 0.4, 2.5)),
    (Line("sqrt", i=1), lambda x: (math.sqrt(x), 0.5 / math.sqrt(x), -0.25 / x ** 1.5),
     (0.4, 2.5, 9.0)),
    (Line("exp", i=1), lambda x: (math.exp(x), math.exp(x), math.exp(x)), (-1.3, 0.4, 2.5)),
    (Line("ln", i=1), lambda x: (math.log(x), 1 / x, -1 / x ** 2), (0.4, 2.5, 9.0)),
    (Line("addC", i=1, c=2.5), lambda x: (x + 2.5, 1.0, 0.0), (-1.3, 0.4, 2.5)),
    (Line("mulByC", i=1, c=-1.5), lambda x: (-1.5 * x, -1.5, 0.0), (-1.3, 0.4, 2.5)),
]


def test_rule_table_defines_the_unary_vocabulary():
    assert {line.op for line, _, _ in CLOSED_FORMS} == set(UNARY_RULES) == UNARY_OPS
    assert AFFINE_OPS == {"addC", "mulByC"}
    # a unary op is usable only with all of these: a parser name, a point
    # template and the oracle's float rule
    assert {op for op, _, _ in _FUNCTIONS.values()} <= UNARY_OPS
    assert UNARY_OPS <= set(_POINT_EXPR) and UNARY_OPS <= set(_POINT_RULES)
    # the oracle's rows mark r' = 1 and r'' = 0 where the interval rows do
    for op, rule in UNARY_RULES.items():
        _, first, second, _ = _POINT_RULES[op]
        assert (first is None, second is None) == (rule.first is None, rule.second is None), op


@pytest.mark.parametrize("line,closed,xs", CLOSED_FORMS,
                         ids=[line.describe() for line, _, _ in CLOSED_FORMS])
def test_rule_matches_closed_form_derivatives_at_points(line, closed, xs):
    # the rules take and return intervals as (lo, hi) float pairs
    rule = UNARY_RULES[line.op]
    for x in xs:
        yi = (x, x)
        value, d1, d2 = closed(x)
        yk = rule.value(yi, line)
        # None stands for r' = 1 and r'' = 0 exactly
        first = (1.0, 1.0) if rule.first is None else rule.first(yi, yk, line)
        second = (0.0, 0.0) if rule.second is None else rule.second(yi, yk, line)
        # on point arguments the factored curvature rule is r''·ls + r'·lam
        ls, lam = 0.7, -2.1
        curv = rule.lam(yi, yk, line, (ls, ls), (lam, lam))
        for got, want in ((yk, value), (first, d1), (second, d2), (curv, d2 * ls + d1 * lam)):
            lo, hi = got
            assert lo == pytest.approx(want, rel=1e-13), (line.op, x)
            assert hi == pytest.approx(want, rel=1e-13), (line.op, x)


@pytest.mark.parametrize("op,kind", [("sqrt", "sqrt"), ("ln", "ln"), ("oneOver", "recip")])
@pytest.mark.parametrize("bounds", [(0.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)])
def test_rule_value_raises_domain_violation_at_the_boundary(op, kind, bounds):
    # sqrt demands strict positivity: its r' divides by sqrt(y)
    with pytest.raises(DomainViolation) as info:
        UNARY_RULES[op].value(Interval(*bounds), Line(op, i=1))
    assert info.value.kind == kind and info.value.line is None


def test_engines_and_interval_hessian_apply_the_rule_table(monkeypatch):
    # a second copy of the exp rules anywhere would leave a count at 0
    calls = Counter()
    rule = UNARY_RULES["exp"]

    def counted(name):
        fn = getattr(rule, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("value", "first", "second", "lam")
    monkeypatch.setitem(UNARY_RULES, "exp",
                        dataclasses.replace(rule, **{name: counted(name) for name in names}))
    # exp(x1) has a full linear operand set, exp(x1*x2) an empty one, so the
    # sparsity-aware engine takes r''·ls on the first and the factored rule
    # on the second
    cl = compile_expression("exp(x1) + exp(x1*x2)", 2)
    bounds = [(0.5, 1.0), (0.5, 1.5)]
    for apply, want in ((eval_original, {"value": 2, "first": 2, "lam": 2}),
                        (eval_improved, {"value": 2, "first": 2, "second": 1, "lam": 1}),
                        (interval_hessian, {"value": 2, "first": 2, "second": 2})):
        calls.clear()
        apply(cl, Box.from_bounds(bounds))
        assert calls == want, apply.__name__
    # on the box the original engine has just evaluated, the improved one
    # reuses its values and gradients
    box = Box.from_bounds(bounds)
    eval_original(cl, box)
    calls.clear()
    eval_improved(cl, box)
    assert calls == {"second": 1, "lam": 1}
    # and so does the interval-Hessian rule, r' included
    calls.clear()
    interval_hessian(cl, box)
    assert calls == {"second": 2}


# -- the per-line sparsity rules ---------------------------------------------

A, E, W = ABSENT, EXACT, WIDENED
# every (op, i, j, combine) that analyze() can choose for a binary line
BINARY_RULES = {
    ("add", A, A, SUM), ("add", E, A, SUM), ("add", A, E, SUM), ("add", E, E, HULL),
    ("add", E, E, SUM), ("add", E, W, SUM), ("add", W, E, SUM), ("add", W, W, SUM),
    ("mul", A, A, SUM), ("mul", E, A, SUM), ("mul", W, A, SUM), ("mul", E, A, STAR),
    ("mul", A, E, SUM), ("mul", A, W, SUM), ("mul", A, E, STAR), ("mul", E, E, WIDENED_HULL),
    ("mul", E, E, HULL), ("mul", E, E, STAR), ("mul", E, E, SUM), ("mul", E, W, SUM),
    ("mul", W, E, SUM), ("mul", E, E, WIDENED_SUM), ("mul", E, W, WIDENED_SUM),
    ("mul", W, E, WIDENED_SUM), ("mul", W, W, SUM),
}
UNARY_LINE_RULES = {("unary", A), ("unary", E), ("unary", W)}


def _engine_seed_codelists():
    cases = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    return [compile_expression(case["source"], case["n"]) for case in cases]


def test_every_rule_fires_on_the_engine_fixture():
    binary, unary, shared = set(), set(), {}
    for cl in _engine_seed_codelists():
        for line, rule in zip(cl.lines, cl.rules):
            if line.op == "var":
                assert rule is None
            elif line.op in ("add", "mul"):
                key = (rule.op, rule.i, rule.j, rule.combine)
                assert rule.op == line.op and (rule.cross is not None) == (rule.combine == STAR)
                binary.add(key)
                if rule.combine != STAR:  # one object per rule, not one per line
                    assert shared.setdefault(key, rule) is rule
            else:
                unary.add((rule.op, rule.i))
    assert len(BINARY_RULES) == 25
    assert binary == BINARY_RULES
    assert unary == UNARY_LINE_RULES


def test_index_sets_and_blocks_are_consistent():
    corpus = _engine_seed_codelists() + [
        random_function(n, seed=300 + 10 * n + s, require_mul=s % 2 == 0).compile()
        for n in range(1, 7) for s in range(10)]
    for cl in corpus:
        full = frozenset(range(1, cl.n + 1))
        rests = {}  # index set -> the tuple of the other variables
        for ik, lk, support, block in zip(cl.indep, cl.linear, cl.supports, cl.blocks):
            assert ik <= lk and ik != full
            assert support == tuple(sorted(full - ik))
            assert block == tuple(sorted(full - lk))
            assert rests.setdefault(ik, support) is support  # equal sets share one tuple
            assert rests.setdefault(lk, block) is block
        # the supports are the keys of the engines' sparse gradients
        grads = bounds._values(cl, Box.from_bounds([(1.0, 1.5)] * cl.n))[1]
        assert [tuple(sorted(g)) for g in grads] == list(cl.supports[:len(grads)])


def test_len_is_the_line_count():
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    assert len(cl) == len(cl.lines) == 5


def test_codelist_pickles_before_and_after_a_point_evaluation():
    cl = compile_expression("x1*x2 + exp(x1) + 1.5*sqrt(x2)", 2)
    box = Box.from_bounds([(0.5, 1.0), (1.0, 2.0)])
    for evaluated in (False, True):
        assert ("point_function" in vars(cl)) == evaluated
        copy = pickle.loads(pickle.dumps(cl))
        assert copy == cl and "point_function" not in vars(copy)
        assert (copy.indep, copy.supports, copy.linear, copy.blocks, copy.rules) == (
            cl.indep, cl.supports, cl.linear, cl.blocks, cl.rules)
        assert codelist_value(copy, (1.0, 2.0)).hex() == codelist_value(cl, (1.0, 2.0)).hex()
        assert eval_improved(copy, box) == eval_improved(cl, box)
