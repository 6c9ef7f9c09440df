"""Direct numerical integration of the Bernoulli ODE for cross-validation.

This is the independent route: it never touches the closed-form code path.
It drives its own instance of the shared adaptive 5(4) stepper, with its
own (looser) tolerances, over the scalar equation

    y' = a(t) * y + b(t) * y^n

using the same sign-correct power semantics as the rest of the package, so
odd/odd exponents follow the sign of the initial value and odd/even
exponents enforce y > 0 at runtime.

Negative target times are reached by stepping with negative h; a(t) and
b(t) are always evaluated at the true t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .closedform import ProblemSpec
from .errors import StepFailure
from .exponent import ExponentClass, signed_pow
from .expr import as_callable
from .stepper import (
    DensePath,
    StepBudgetExceeded,
    StepControl,
    StepUnderflow,
    grid_values,
    integrate,
)

__all__ = [
    "OracleConfig",
    "DEFAULT_ORACLE_CONFIG",
    "Trajectory",
    "rk_solve",
    "solve_on_grid",
]


@dataclass(frozen=True)
class OracleConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_steps: int = 1_000_000
    blowup_threshold: float = 1e12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def control(self) -> StepControl:
        return StepControl(
            rel_tol=self.rel_tol, abs_tol=self.abs_tol, max_steps=self.max_steps
        )


DEFAULT_ORACLE_CONFIG = OracleConfig()

# step-size collapse this far up the magnitude scale counts as blow-up,
# not failure
_BLOWUP_UNDERFLOW_FRACTION = 1e-3


@dataclass
class Trajectory:
    """The oracle's dense path from (0, d): accepted nodes with the
    stepper's continuous extension in between."""

    path: DensePath
    blew_up: bool

    @property
    def t_last(self) -> float:
        """Last reliable time: the target, or where blow-up stopped the run."""
        return self.path.t_reached

    def __call__(self, t: float) -> float:
        """Dense-output y(t); ValueError outside the integrated range."""
        return self.path.value(t)[0]


def rk_solve(
    p: ProblemSpec, t_end: float, cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> Trajectory:
    """Integrate the IVP from (0, d) toward t_end (either direction).

    Stops early with a blow-up marker once |y| exceeds the configured
    threshold (or the step size collapses while |y| is already huge); the
    trajectory then ends at the last accepted step.  Raises StepFailure when
    the step size underflows at moderate |y|, and DomainError when y leaves
    the legal domain of y^n (e.g. y < 0 with an even root denominator).
    """
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    fa, fb = as_callable(p.a), as_callable(p.b)
    n = p.n
    threshold = cfg.blowup_threshold

    if n.cls is ExponentClass.ONE:

        def rhs(t, y):
            return ((fa(t) + fb(t)) * y[0],)

    else:

        def rhs(t, y):
            return (fa(t) * y[0] + fb(t) * signed_pow(y[0], n),)

    def stop(t, y):
        return abs(y[0]) > threshold

    blew_up = False
    try:
        path = integrate(rhs, 0.0, (p.d,), t_end, cfg.control(), stop=stop)
        blew_up = path.stopped
    except StepUnderflow as exc:
        path = exc.path
        if abs(path.y_end[0]) > _BLOWUP_UNDERFLOW_FRACTION * threshold:
            blew_up = True
        else:
            raise StepFailure(str(exc)) from None
    except StepBudgetExceeded as exc:
        raise StepFailure(str(exc)) from None

    return Trajectory(path, blew_up)


def solve_on_grid(
    p: ProblemSpec, ts: Sequence[float], cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> list[float]:
    """Oracle y at every t, sharing one solve per side of 0; StepFailure if
    the solution blows up before the farthest point of a side."""

    def solve(t_end: float) -> DensePath:
        traj = rk_solve(p, t_end, cfg)
        if traj.blew_up:
            raise StepFailure(
                f"oracle blew up at t={traj.t_last!r} before reaching {t_end!r}"
            )
        return traj.path

    return [y for (y,) in grid_values(solve, ts)]
