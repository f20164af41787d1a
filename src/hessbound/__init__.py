"""Guaranteed eigenvalue bounds for Hessians of factorable functions.

Given an expression for a twice continuously differentiable function built
from +, *, natural powers, reciprocal, sqrt, exp, ln and affine steps, and a
box of variable ranges, this package computes intervals guaranteed to
contain every eigenvalue of the Hessian anywhere in the box.  It also ships
interval-Hessian reference methods, a convex underestimator and a
benchmarking harness for comparing the approaches.
"""

from .bounds import (
    EvalResult,
    LineState,
    eval_improved,
    eval_original,
    lift_reduced,
    trace_improved,
    trace_original,
)
from .codelist import Codelist, Line
from .errors import (
    ConstantExpression,
    DimensionTooLarge,
    DomainViolation,
    EmptySlice,
    ExpressionSyntaxError,
    HessboundError,
    InconsistentInputs,
    InvalidInterval,
    LengthMismatch,
    MalformedCodelist,
    NotSymmetric,
    PointOutsideBox,
    UnknownVariable,
)
from .expressions import compile_expression
from .interval import (
    Box,
    Interval,
    ONE,
    ZERO,
    hull,
    lambda_s,
    lambda_star,
    lambda_t,
    point,
    zero_widen,
)

__version__ = "1.0.0"

__all__ = [
    "Interval", "Box", "ZERO", "ONE", "point", "hull",
    "lambda_s", "lambda_t", "lambda_star", "zero_widen",
    "Line", "Codelist",
    "compile_expression",
    "EvalResult", "LineState", "eval_original", "eval_improved",
    "trace_original", "trace_improved", "lift_reduced",
    "HessboundError", "InvalidInterval", "DomainViolation", "EmptySlice",
    "LengthMismatch", "ExpressionSyntaxError", "UnknownVariable",
    "ConstantExpression", "MalformedCodelist",
    "DimensionTooLarge", "NotSymmetric", "PointOutsideBox",
    "InconsistentInputs",
    "__version__",
]
