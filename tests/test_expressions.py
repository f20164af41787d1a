"""Parsing expression text straight into codelist lines."""

import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hessbound import (
    Box,
    ConstantExpression,
    ExpressionSyntaxError,
    HessboundError,
    Line,
    MalformedCodelist,
    UnknownVariable,
    compile_expression,
    eval_improved,
    eval_original,
)
from hessbound.expressions import MAX_NESTING
from hessbound.harness import codelist_value
from hessbound.reference import interval_hessian

def ops(src, n):
    """The codelist of ``src`` after its var lines."""
    return compile_expression(src, n).lines[n:]


# -- parsing --------------------------------------------------------------

def test_parse_precedence():
    # a + b*c parses multiplication tighter than addition
    assert ops("x1 + x2*x3", 3) == (Line("mul", 2, 3), Line("add", 1, 4))


def test_parse_power_tightest():
    assert ops("2*x1^2", 1) == (Line("powNat", 1, m=2), Line("mulByC", 2, c=2.0))


def test_parse_function_calls():
    assert ops("sqrt(exp(x1))", 1) == (Line("exp", 1), Line("sqrt", 2))


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        compile_expression("x3", 2)


def test_parse_syntax_errors():
    for bad in ["x1 +", "(x1", "x1 ^ -2", "x1 @ x2", "foo(x1)", ""]:
        with pytest.raises(ExpressionSyntaxError):
            compile_expression(bad, 2)


def test_parse_numbers():
    assert ops("x1 * 2.5e-1", 1) == (Line("mulByC", 1, c=0.25),)


# -- the closed alphabet and constant folds -------------------------------

def test_normalize_removes_sub_div_neg():
    assert ops("x1 - x2", 2) == (Line("mulByC", 2, c=-1.0), Line("add", 1, 3))
    assert ops("x1 / x2", 2) == (Line("oneOver", 2), Line("mul", 1, 3))
    assert ops("-x1", 1) == (Line("mulByC", 1, c=-1.0),)
    assert ops("--x1^2", 1) == (Line("powNat", 1, m=2), Line("mulByC", 2, c=-1.0),
                                Line("mulByC", 3, c=-1.0))


def test_normalize_folds_constants():
    assert ops("x1 + 2*3", 1) == (Line("addC", 1, c=6.0),)
    assert ops("(1 - 3)*x1 + 1/4", 1) == (Line("mulByC", 1, c=-2.0), Line("addC", 2, c=0.25))


def test_normalize_pow_edge_cases():
    assert compile_expression("x1^1", 1).lines == (Line(op="var"),)
    with pytest.raises(ConstantExpression):
        compile_expression("x1^0", 1)
    # ^0 drops the lines its base emitted, and nothing before them
    assert ops("x1*x2 + (sqrt(x1) + x2)^0*x3", 3) == (
        Line("mul", 1, 2), Line("mulByC", 3, c=1.0), Line("add", 4, 5))


def test_normalize_constant_expression_raises():
    with pytest.raises(ConstantExpression, match=re.escape("expression is the constant 3.0")):
        compile_expression("1 + 2", 1)


def test_normalize_division_by_literal_zero():
    with pytest.raises(ExpressionSyntaxError):
        compile_expression("x1 / 0", 1)


# (source, position, message): the position is where the folded
# subexpression starts, at the left operand, the function name or the literal
UNDEFINED_FOLDS = [
    ("x1/0", 0, "division by a literal zero"),
    ("ln(0)+x1", 0, "constant fold of Ln at 0.0 is undefined"),
    ("sqrt(-1)*x1", 0, "constant fold of Sqrt at -1.0 is undefined"),
    ("exp(1000)*x1", 0, "constant fold of Exp at 1000.0 is undefined"),
    ("(1e200)^2*x1", 0, "constant fold of PowNat at 1e+200 with m = 2 is undefined"),
    ("-(2^1100)+x1", 2, "constant fold of PowNat at 2.0 with m = 1100 is undefined"),
    # an overflow to inf (or a fold of one) is undefined too, not a bad codelist line
    ("x1 + 1e200*1e200", 5, "constant fold of Mul at 1e+200 and 1e+200 is undefined"),
    ("x1*(1e308+1e308)", 4, "constant fold of Add at 1e+308 and 1e+308 is undefined"),
    ("x1 + 1/5e-324", 5, "constant fold of OneOver at 5e-324 is undefined"),
    ("x1 + 0*1e400", 7, "number literal 1e400 overflows"),
    ("x1 + 1/(1e200*1e200)", 8, "constant fold of Mul at 1e+200 and 1e+200 is undefined"),
    ("x1 + exp(1000)", 5, "constant fold of Exp at 1000.0 is undefined"),
    ("x1 + 3*2^2000", 7, "constant fold of PowNat at 2.0 with m = 2000 is undefined"),
]


@pytest.mark.parametrize("src,position,message", UNDEFINED_FOLDS,
                         ids=[f"{src}-{message}" for src, _, message in UNDEFINED_FOLDS])
def test_undefined_constant_fold_is_a_syntax_error(src, position, message):
    with pytest.raises(ExpressionSyntaxError) as info:
        compile_expression(src, 1)
    assert str(info.value) == f"syntax error at position {position}: {message}"


@pytest.mark.parametrize("n", [2.0, True, 0])
def test_variable_count_must_be_a_positive_integer(n):
    with pytest.raises(MalformedCodelist) as info:
        compile_expression("x1", n)
    assert str(info.value) == "line 0: variable count must be an integer >= 1"


@pytest.mark.parametrize("src,n,error", [
    ("ln(0) + x1 +", 1, "syntax error at position 12: expected an atom"),
    ("1/0 + x3", 2, "x3 with n=2"),
    ("sqrt(-1)*x1 + ln(0)", 1, "syntax error at position 0: constant fold of Sqrt at -1.0 is undefined"),
    ("(1/0)^0 + x1", 1, "syntax error at position 1: division by a literal zero"),
])
def test_a_syntax_error_wins_over_an_earlier_fold_and_the_first_fold_wins(src, n, error):
    with pytest.raises((ExpressionSyntaxError, UnknownVariable), match=re.escape(error)):
        compile_expression(src, n)


# -- nesting --------------------------------------------------------------

@pytest.mark.parametrize("opening", ["(", "exp(", "sqrt( ", "ln("])
def test_nesting_deeper_than_the_limit_is_a_syntax_error(opening):
    def nested(depth):
        return opening * depth + "x1 + 2" + ")" * depth

    cl = compile_expression(nested(MAX_NESTING), 1)
    assert len(cl.lines) == 1 + MAX_NESTING * (opening != "(") + 1
    for depth in (MAX_NESTING + 1, 400, 5000):
        with pytest.raises(ExpressionSyntaxError) as info:
            compile_expression(nested(depth), 1)
        # reported at the opening parenthesis of level MAX_NESTING + 1
        position = MAX_NESTING * len(opening) + opening.index("(")
        assert info.value.position == position
        assert str(info.value) == (f"syntax error at position {position}: parentheses "
                                   f"and calls nested deeper than {MAX_NESTING}")


def test_long_sources_compile_and_evaluate_without_recursion():
    src = " + ".join(f"x{1 + k % 3}*x{1 + (k + 1) % 3}" for k in range(3000))
    cl = compile_expression(src, 3)
    assert len(cl.lines) == 6002
    box = Box.from_bounds([(0.5, 1.0), (1.0, 2.0), (-1.0, 1.0)])
    for engine in (eval_original, eval_improved):
        eigen = engine(cl, box).eigen  # the Hessian's spectrum is {-1000, 2000}
        assert eigen.lo <= -1000.0 and eigen.hi >= 2000.0
    assert codelist_value(cl, (1.0, 2.0, 3.0)) == 1000 * (2.0 + 6.0 + 3.0)
    assert interval_hessian(cl, box).lo[0, 1] == 1000.0
    minus = compile_expression("-" * 3001 + "x1", 1)
    assert len(minus.lines) == 3002 and codelist_value(minus, (2.0,)) == -2.0


# -- codelist shape -------------------------------------------------------

def test_lower_shape():
    cl = compile_expression("x1^2 + x2^2", 2)
    assert [l.op for l in cl.lines] == ["var", "var", "powNat", "powNat", "add"]
    assert cl.t == 3


def test_lower_last_line_is_result_even_for_bare_variable():
    cl = compile_expression("x1", 2)
    assert cl.lines[-1].op != "var"
    assert codelist_value(cl, (0.7, 0.3)) == 0.7


def test_lower_no_subexpression_merging():
    # x1*x1 keeps two operand references but emits exactly one mul line
    cl = compile_expression("(x1 + x2) * (x1 + x2)", 2)
    assert [l.op for l in cl.lines].count("add") == 2


def test_compile_matches_the_recorded_codelists():
    """Every line (op, refs, constant as float.hex, exponent) or error (type
    and message) as recorded from the earlier expression-tree front end."""
    cases = json.loads((Path(__file__).parent / "data" / "codelist_seed.json").read_text())
    assert len(cases) == 304
    for case in cases:
        try:
            cl = compile_expression(case["source"], case["n"])
        except HessboundError as err:
            assert case.get("error") == [type(err).__name__, str(err)], case["source"]
            continue
        got = [[l.op, l.i, l.j, None if l.c is None else l.c.hex(), l.m] for l in cl.lines]
        assert case.get("lines") == got, case["source"]


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
    # the oracle is Python's own parser: ^ is **, and - / * bind as in Python
    code = compile(src.replace("^", "**"), src, "eval")
    rng = random.Random(src)
    cl = compile_expression(src, 3)
    for _ in range(50):
        x = [rng.uniform(0.5, 2.0) for _ in range(3)]
        names = {"ln": math.log, "sqrt": math.sqrt, "exp": math.exp,
                 "x1": x[0], "x2": x[1], "x3": x[2]}
        assert math.isclose(eval(code, names), codelist_value(cl, x), rel_tol=1e-12)


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
