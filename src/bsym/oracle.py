"""Direct numerical integration of the Bernoulli ODE for cross-validation.

This is the independent route: it never touches the closed-form code path.
It drives the shared adaptive 5(4) stepper over the scalar equation

    y' = a(t) * y + b(t) * y^n

using the same sign-correct power semantics as the rest of the package, so
odd/odd exponents follow the sign of the initial value and odd/even
exponents enforce y > 0 at runtime.  The right-hand side (t, y) -> a*y +
b*y^n takes y as a float.  It is one of two functions generated by
`expr.checked_factory`: a linear one for n = 1 and a power one for every
other n, with the sign of y^n for y < 0 (`ExponentClass.negative_sign`)
and the unary minuses at the top of a and b bound to it as factors, so a
problem and its partners share one compile per (a, b) up to sign.  Its
values and errors are those of the coefficient-by-coefficient closure
with `signed_pow`.

Negative target times are reached by stepping with negative h; a(t) and
b(t) are always evaluated at the true t.

Every solve runs at `ORACLE_CONTROL` (relative tolerance 1e-10, absolute
1e-11, looser than the quadrature's 1e-12); only `rk_solve` takes
another `StepControl`.  A run stops with a blow-up marker once |y| exceeds
the fixed `_BLOWUP_THRESHOLD`.

`solve_on_grids` answers several problems' grids from one table of
integrated paths by the package's one reflection rule
(`exponent.reflections`, `stepper.shared_path`): a problem whose solution
is a reflection of one already solved reads its path through
`stepper.PathView` (a shared-path residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .closedform import ProblemSpec
from .errors import StepFailure
from .exponent import ExponentClass, reflections, signed_pow
from .expr import CheckedForm, checked_factory, split_sign
from .stepper import (
    DensePath,
    StepBudgetExceeded,
    StepControl,
    StepUnderflow,
    grid_values,
    integrate,
    shared_path,
)

__all__ = [
    "ORACLE_CONTROL",
    "Trajectory",
    "rk_solve",
    "solve_on_grid",
    "solve_on_grids",
]


ORACLE_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-11)

# |y| past the threshold ends a run as blow-up; so does a step-size
# collapse with |y| past the fraction of it, rather than failure
_BLOWUP_THRESHOLD = 1e12
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


# y' = a*y + b*y^n, with y^n computed as signed_pow computes it: math.pow
# of |y| times the sign of y^n for y < 0 inline, and signed_pow itself at
# y = 0, for NaN and for an even root of y < 0, so values and error texts
# match.  a = sa*a0 and b = sb*b0 with sa, sb = +-1.0, so a problem and its
# partners that flip the signs of a or b share one compile; multiplying by
# +-1.0 is exact, so (sa*f0)*x is (-f0)*x and neg*pow(-x, e) is signed_pow's
_RHS_ENV = "sa, sb, n, neg, e, pow, signed_pow"
_LINEAR = CheckedForm("t, x", "return ((sa * f0 + sb * f1) * x,)", _RHS_ENV)
_POWER = CheckedForm(
    "t, x",
    """\
if x > 0.0:
    xn = pow(x, e)
elif x < 0.0 and neg:
    xn = neg * pow(-x, e)
else:
    xn = signed_pow(x, n)
return (sa * f0 * x + sb * f1 * xn,)""",
    _RHS_ENV,
)


def rk_solve(p: ProblemSpec, t_end: float, ctl: StepControl = ORACLE_CONTROL) -> Trajectory:
    """Integrate the IVP from (0, d) toward t_end (either direction).

    Stops early with a blow-up marker once |y| exceeds `_BLOWUP_THRESHOLD`
    (or the step size collapses while |y| is already huge); the
    trajectory then ends at the last accepted step.  Raises StepFailure when
    the step size underflows at moderate |y|, ctl's step budget runs out or
    y^n overflows, DomainError when y leaves the legal domain of y^n
    (e.g. y < 0 with an even root denominator), and ValueError, from
    `integrate`, for a non-finite t_end.
    """
    n = p.n
    (sa, a0), (sb, b0) = split_sign(p.a), split_sign(p.b)
    form = _LINEAR if n.cls is ExponentClass.ONE else _POWER
    rhs = checked_factory(form, a0, b0)(sa, sb, n, n.cls.negative_sign, n.p / n.q, math.pow, signed_pow)

    def stop(t, y):
        return abs(y[0]) > _BLOWUP_THRESHOLD

    blew_up = False
    try:
        path = integrate(rhs, (p.d,), t_end, ctl, stop=stop)
        blew_up = path.stopped
    except StepUnderflow as exc:
        path = exc.path
        if abs(path.y_end[0]) > _BLOWUP_UNDERFLOW_FRACTION * _BLOWUP_THRESHOLD:
            blew_up = True
        else:
            raise StepFailure(str(exc)) from None
    except StepBudgetExceeded as exc:
        raise StepFailure(str(exc)) from None
    except OverflowError as exc:  # y^n of an overshooting trial stage
        raise StepFailure(f"right-hand side overflow: {exc}") from None

    return Trajectory(path, blew_up)


def solve_on_grids(requests: Sequence[tuple[ProblemSpec, Sequence[float]]]) -> list[list[float]]:
    """Oracle y of each (p, ts) request at every t of its ts, in request
    order, integrating each distinct path once.

    Each side of 0 of a grid is answered from one path toward its farthest
    point (`stepper.grid_values`), resolved by the reflection rule
    (`exponent.reflections`, `stepper.shared_path`) from one table of
    integrated paths keyed by (a0, b0, n, sa, sb, d, t_end): a view
    (r, s, ka, kb, kd) reads the path of (a0, b0, n, ka, kb, kd*d) toward
    r*t_end as `PathView(source, r, (s,))`, and a fresh path is `rk_solve`
    of p toward t_end.  The source's right-hand side g obeys
    f(r*t, s*y) = r*s*g(t, y) bit for bit, so the view is the fresh path
    bit for bit (see `PathView`).  A residual between a mirror and its
    source shares their arithmetic and reads 0 by construction: it is
    evidence only with the certificate that the coefficients are exact
    reflections.

    Raises StepFailure if a solution blows up before the farthest point of
    a side, and the errors of `rk_solve`, in request order.
    """
    paths: dict = {}
    out = []
    for p, ts in requests:
        a0, b0, views = reflections(p.a, p.b, p.n.cls)

        def fresh(t_end: float) -> DensePath:
            traj = rk_solve(p, t_end)
            if traj.blew_up:
                raise StepFailure(
                    f"oracle blew up at t={traj.t_last!r} before reaching {t_end!r}"
                )
            return traj.path

        keyed = [(r, (s,), (a0, b0, p.n, ka, kb, kd * p.d)) for r, s, ka, kb, kd in views]
        ys = grid_values(lambda x: shared_path(paths, keyed, x, fresh), ts)
        out.append([y for (y,) in ys])
    return out


def solve_on_grid(p: ProblemSpec, ts: Sequence[float]) -> list[float]:
    """Oracle y at every t: `solve_on_grids` of the one request (p, ts)."""
    return solve_on_grids([(p, ts)])[0]
