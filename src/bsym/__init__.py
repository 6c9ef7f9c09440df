"""Closed-form Bernoulli IVP solutions and their reflection symmetries.

Parse coefficient functions, classify rational exponents, evaluate the
closed-form solution of y' = a(t)y + b(t)y^n with y(0) = d, construct the
symmetric partner problem for each catalog case, and verify the predicted
origin / t-axis / y-axis relation against an independent direct integrator.
"""

from .closedform import (
    BoundaryKind,
    ProblemSpec,
    Validity,
    eval_solution,
    problem,
    solution_values,
    validity_interval,
    validity_intervals,
)
from .errors import (
    BsymError,
    CaseNotApplicable,
    DomainError,
    EmptyDomain,
    EvalError,
    ExprSyntaxError,
    NoConvergence,
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
    eval_expr,
    format_expr,
    parse_expr,
)
from .oracle import OracleConfig, Trajectory, rk_solve, solve_on_grid
from .quad import (
    Identity,
    QuadConfig,
    identity_residuals,
    integral_A,
)
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
    "EmptyDomain",
    "EvalError",
    "ExponentClass",
    "Expr",
    "ExprSyntaxError",
    "Identity",
    "NoConvergence",
    "OracleConfig",
    "OutsideValidity",
    "Parity",
    "ParityViolation",
    "ProblemSpec",
    "QuadConfig",
    "RationalExponent",
    "Relation",
    "StepFailure",
    "SymmetryCase",
    "Trajectory",
    "Validity",
    "VerificationReport",
    "ZeroDenominator",
    "applicable_cases",
    "classify_exponent",
    "detect_parity",
    "eval_expr",
    "eval_solution",
    "format_expr",
    "identity_residuals",
    "integral_A",
    "parse_expr",
    "parse_exponent",
    "problem",
    "rk_solve",
    "signed_pow",
    "solution_values",
    "solve_on_grid",
    "transform_problem",
    "validity_interval",
    "validity_intervals",
    "verify_cases",
    "verify_pair",
]
