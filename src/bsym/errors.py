"""Exception types shared across the package."""


class BsymError(Exception):
    """Base class for all package-specific errors; the CLI prints one as
    `bsym: <prefix><message>` and exits with its exit_code."""

    exit_code = 2
    prefix = ""


class ExprSyntaxError(BsymError):
    """Malformed coefficient-expression source; carries the byte offset."""

    exit_code = 1
    prefix = "parse error: "

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(BsymError):
    """Expression evaluation hit a division by zero or a non-finite value."""


class ZeroDenominator(BsymError):
    """Rational exponent with denominator zero."""


class DomainError(BsymError):
    """Input outside the mathematical domain of an operation."""


class ParityViolation(BsymError):
    """Coefficient parities do not satisfy an identity's preconditions."""


class OutsideValidity(BsymError):
    """Closed-form evaluation requested outside the real-valued interval."""


class CaseNotApplicable(BsymError):
    """Problem does not satisfy a symmetry case's hypotheses."""

    exit_code = 3
    prefix = "case not applicable: "


class StepFailure(BsymError):
    """An adaptive integration could not reach its end: the stepper's
    `StepUnderflow` and `StepBudgetExceeded`, or the oracle's overflowing
    right-hand side."""
