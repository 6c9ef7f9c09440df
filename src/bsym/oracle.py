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
    """Accepted integration nodes with the stepper's continuous extension
    in between."""

    points: list[tuple[float, float]]
    blew_up: bool
    t_last: float
    _path: DensePath

    def __call__(self, t: float) -> float:
        """Dense-output y(t) for t between 0 and the last reliable time."""
        if not self._path.covers(t):
            raise ValueError(
                f"t={t!r} outside the integrated range [0, {self.t_last!r}]"
            )
        return self._path.value(t)[0]


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

    points = [(t, y[0]) for t, y in zip(path.ts, path.ys)]
    return Trajectory(points=points, blew_up=blew_up, t_last=path.t_reached, _path=path)


def solve_on_grid(
    p: ProblemSpec, ts: Sequence[float], cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> list[float]:
    """Oracle y at every t, sharing one solve per direction."""
    out: list[float] = [p.d] * len(ts)
    for sign in (1.0, -1.0):
        sel = [(i, t) for i, t in enumerate(ts) if t * sign > 0.0]
        if not sel:
            continue
        extreme = max(t * sign for _, t in sel) * sign
        traj = rk_solve(p, extreme, cfg)
        if traj.blew_up:
            raise StepFailure(
                f"oracle blew up at t={traj.t_last!r} before reaching {extreme!r}"
            )
        for i, t in sel:
            out[i] = traj(t)
    return out
