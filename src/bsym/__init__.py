"""Closed-form Bernoulli IVP solutions and their reflection symmetries.

Parse coefficient functions, classify rational exponents, evaluate the
closed-form solution of y' = a(t)y + b(t)y^n with y(0) = d, construct the
symmetric partner problem for each catalog case, and verify the predicted
origin / t-axis / y-axis relation against a direct integrator.
"""

from .closedform import (
    BoundaryKind,
    ProblemSpec,
    Validity,
    eval_solution,
    problem,
    solution_values,
    validity_interval,
)
from .errors import (
    BsymError,
    CaseNotApplicable,
    DomainError,
    EvalError,
    ExprSyntaxError,
    OutsideValidity,
    ParityViolation,
    StepFailure,
    ZeroDenominator,
)
from .exponent import (
    ExponentClass,
    RationalExponent,
    classify_exponent,
    parse_exponent,
    signed_pow,
)
from .expr import (
    Expr,
    Parity,
    detect_parity,
    format_expr,
    parse_expr,
)
from .oracle import rk_solve, solve_on_grid
from .quad import Identity, identity_residuals
from .stepper import StepControl
from .symmetry import (
    CATALOG,
    CASE_BY_ID,
    Relation,
    SymmetryCase,
    VerificationReport,
    applicable_cases,
    transform_problem,
    verify_cases,
    verify_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind",
    "BsymError",
    "CASE_BY_ID",
    "CATALOG",
    "CaseNotApplicable",
    "DomainError",
    "EvalError",
    "ExponentClass",
    "Expr",
    "ExprSyntaxError",
    "Identity",
    "OutsideValidity",
    "Parity",
    "ParityViolation",
    "ProblemSpec",
    "RationalExponent",
    "Relation",
    "StepControl",
    "StepFailure",
    "SymmetryCase",
    "Validity",
    "VerificationReport",
    "ZeroDenominator",
    "applicable_cases",
    "classify_exponent",
    "detect_parity",
    "eval_solution",
    "format_expr",
    "identity_residuals",
    "parse_expr",
    "parse_exponent",
    "problem",
    "rk_solve",
    "signed_pow",
    "solution_values",
    "solve_on_grid",
    "transform_problem",
    "validity_interval",
    "verify_cases",
    "verify_pair",
]
