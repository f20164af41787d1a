"""Parsing, normalization and lowering to codelists."""

import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hessbound import (
    ConstantExpression,
    ExpressionSyntaxError,
    UnknownVariable,
    compile_expression,
    eval_expr,
    lower,
    normalize,
    parse,
)
from hessbound.expressions import (
    Add,
    AddConst,
    Const,
    Exp,
    Ln,
    Mul,
    MulByConst,
    PowNat,
    Recip,
    Sqrt,
    Var,
)
from hessbound.harness import codelist_value


# -- parsing --------------------------------------------------------------

def test_parse_precedence():
    # a + b*c parses multiplication tighter than addition
    e = normalize(parse("x1 + x2*x3", 3))
    assert isinstance(e, Add)
    assert isinstance(e.right, Mul)


def test_parse_power_tightest():
    e = normalize(parse("2*x1^2", 1))
    assert isinstance(e, MulByConst)
    assert isinstance(e.arg, PowNat)


def test_parse_function_calls():
    e = normalize(parse("sqrt(exp(x1))", 1))
    assert isinstance(e, Sqrt)
    assert isinstance(e.arg, Exp)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x3", 2)


def test_parse_syntax_errors():
    for bad in ["x1 +", "(x1", "x1 ^ -2", "x1 @ x2", "foo(x1)", ""]:
        with pytest.raises(ExpressionSyntaxError):
            parse(bad, 2)


def test_parse_numbers():
    e = normalize(parse("x1 * 2.5e-1", 1))
    assert isinstance(e, MulByConst) and e.c == 0.25


# -- normalization --------------------------------------------------------

def test_normalize_removes_sub_div_neg():
    e = normalize(parse("x1 - x2", 2))
    assert isinstance(e, Add) and isinstance(e.right, MulByConst) and e.right.c == -1.0
    e = normalize(parse("x1 / x2", 2))
    assert isinstance(e, Mul) and isinstance(e.right, Recip)
    e = normalize(parse("-x1", 1))
    assert isinstance(e, MulByConst) and e.c == -1.0


def test_normalize_folds_constants():
    e = normalize(parse("x1 + 2*3", 1))
    assert isinstance(e, AddConst) and e.c == 6.0


def test_normalize_pow_edge_cases():
    assert isinstance(normalize(parse("x1^1", 1)), Var)
    with pytest.raises(ConstantExpression):
        normalize(parse("x1^0", 1))


def test_normalize_constant_expression_raises():
    with pytest.raises(ConstantExpression):
        normalize(parse("1 + 2", 1))


def test_normalize_division_by_literal_zero():
    with pytest.raises(ExpressionSyntaxError):
        normalize(parse("x1 / 0", 1))


def test_normalize_idempotent():
    for src in ["x1 - x2/x1", "-sqrt(x1)*ln(x2)", "x1^3 + 2"]:
        e = normalize(parse(src, 2))
        assert normalize(e) == e


@pytest.mark.parametrize("src,message", [
    ("x1/0", "division by a literal zero"),
    ("ln(0)+x1", "constant fold of Ln at 0.0 is undefined"),
    ("sqrt(-1)*x1", "constant fold of Sqrt at -1.0 is undefined"),
    ("exp(1000)*x1", "constant fold of Exp at 1000.0 is undefined"),
    ("(1e200)^2*x1", "constant fold of PowNat at 1e+200 with m = 2 is undefined"),
    ("-(2^1100)+x1", "constant fold of PowNat at 2.0 with m = 1100 is undefined"),
])
def test_undefined_constant_fold_is_a_syntax_error(src, message):
    with pytest.raises(ExpressionSyntaxError) as info:
        compile_expression(src, 1)
    assert str(info.value) == f"syntax error at position 0: {message}"


@pytest.mark.parametrize("src,n,error", [
    ("ln(0) + x1 +", 1, "syntax error at position 12: expected an atom"),
    ("1/0 + x3", 2, "x3 with n=2"),
    ("sqrt(-1)*x1 + ln(0)", 1, "syntax error at position 0: constant fold of Sqrt at -1.0 is undefined"),
    ("(1/0)^0 + x1", 1, "syntax error at position 0: division by a literal zero"),
])
def test_a_syntax_error_wins_over_an_earlier_fold_and_the_first_fold_wins(src, n, error):
    with pytest.raises((ExpressionSyntaxError, UnknownVariable), match=re.escape(error)):
        parse(src, n)


# -- lowering -------------------------------------------------------------

def test_lower_shape():
    cl = compile_expression("x1^2 + x2^2", 2)
    ops = [l.op for l in cl.lines]
    assert ops == ["var", "var", "powNat", "powNat", "add"]
    assert cl.t == 3


def test_lower_last_line_is_result_even_for_bare_variable():
    cl = compile_expression("x1", 2)
    assert cl.lines[-1].op != "var"
    assert codelist_value(cl, (0.7, 0.3)) == 0.7


def test_lower_no_subexpression_merging():
    # x1*x1 keeps two operand references but emits exactly one mul line
    cl = lower(normalize(parse("(x1 + x2) * (x1 + x2)", 2)), 2)
    assert [l.op for l in cl.lines].count("add") == 2


# -- round-trip evaluation ------------------------------------------------

SOURCES = [
    "x1^2 + x2^2",
    "x1*x2 + x2*x3",
    "sqrt(x1) * ln(x2) + exp(x3)",
    "1/(x1 + x2) - x3^3",
    "-2.5*x1 + x2/x1",
    "exp(x1*x2) + sqrt(x3 + 1)",
    "x2^0*x1 - x3/x2^1",
    "-(x1 - 2)^1/(x2^0 + x3)",
]


@pytest.mark.parametrize("src", SOURCES)
def test_codelist_matches_ast_evaluation(src):
    rng = random.Random(hash(src) & 0xFFFF)
    ast = normalize(parse(src, 3))
    cl = lower(ast, 3)
    for _ in range(50):
        x = [rng.uniform(0.5, 2.0) for _ in range(3)]
        assert math.isclose(eval_expr(ast, x), codelist_value(cl, x), rel_tol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_random_polynomials_round_trip(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = round(rng.uniform(-3, 3), 3)
        i = rng.randint(1, 3)
        m = rng.randint(1, 4)
        terms.append(f"{c}*x{i}^{m}")
    src = " + ".join(terms)
    try:
        cl = compile_expression(src, 3)
    except ConstantExpression:
        return
    x = [rng.uniform(-2, 2) for _ in range(3)]
    expected = sum(float(t.split("*", 1)[0]) * x[int(t.split("x")[1][0]) - 1] ** int(t.rsplit("^", 1)[1])
                   for t in src.split(" + "))
    assert math.isclose(codelist_value(cl, x), expected, rel_tol=1e-9, abs_tol=1e-9)


# -- the parsed tree is in the closed alphabet ----------------------------

CLOSED_ALPHABET = (Var, Add, Mul, PowNat, Recip, Sqrt, Exp, Ln, AddConst, MulByConst)


def children(e):
    if isinstance(e, (Add, Mul)):
        return (e.left, e.right)
    if isinstance(e, PowNat):
        return (e.base,)
    if isinstance(e, Var):
        return ()
    return (e.arg,)


def test_parse_builds_only_closed_alphabet_nodes():
    data = json.loads((Path(__file__).parent / "data" / "engine_seed.json").read_text())
    cases = [(src, 3) for src in SOURCES] + sorted({(c["source"], c["n"]) for c in data})
    for src, n in cases:
        stack = [parse(src, n)]
        while stack:
            e = stack.pop()
            assert isinstance(e, CLOSED_ALPHABET), (src, e)  # no Const below the root either
            assert not isinstance(e, PowNat) or e.m >= 2, (src, e)
            stack.extend(children(e))
