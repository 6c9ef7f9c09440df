"""Direct numerical integration of the Bernoulli ODE for cross-validation.

This is the independent route: it never touches the closed-form code path.
It drives the shared adaptive 5(4) stepper over the scalar equation

    y' = a(t) * y + b(t) * y^n

using the same sign-correct power semantics as the rest of the package, so
odd/odd exponents follow the sign of the initial value and odd/even
exponents enforce y > 0 at runtime.  The right-hand side (t, y) -> a*y +
b*y^n takes y as a float.  It is one of two checked forms that
`expr.checked_factory` binds, each one expression in y: a linear one for
n = 1 and a power one for every other n.  `stepper.integrate` runs each
through its own DP5 loop, compiled once per process under the file name
`<bsym.stepper DP5 kernel dim=1 form #K>`, which evaluates a and b inline
at 5 stages of each step and recomputes only the value (y^n) at the 7th,
whose time is the 6th's.  The sign of y^n for y < 0
(`ExponentClass.negative_sign`) is bound to it as a factor, beside the
functions of a and b as written, each compiled once per shape with the
tree's constants bound and shared with the quadrature.  Its values and
errors are those of the coefficient-by-coefficient closure with
`signed_pow`.

Negative target times are reached by stepping with negative h; a(t) and
b(t) are always evaluated at the true t.

Every solve runs at `ORACLE_CONTROL`, Dormand and Prince's 5(4) pair
(`stepper.DP5`) at relative tolerance 1e-10 and absolute 1e-11, an
independent method beside the quadrature's DOP853; only `rk_solve` takes
another `StepControl`.  `rk_solve` returns the stepper's `DensePath`,
whose `blew_up` marks a blow-up: |y| passed `_BLOWUP_THRESHOLD`, the
stepper's `limit`, or the step size underflowed at a huge |y|.

`solve_on_grid` answers a grid from one fresh path per side of 0.  No
oracle path is shared between problems: `symmetry.verify_cases` answers a
partner that the reflection rule certifies (`exponent.reflections`) from
p1's values, y2(r*t) = s*y1(t), and solves every other partner on its own
paths.
"""

from __future__ import annotations

import math
from typing import Sequence

from .closedform import ProblemSpec
from .errors import StepFailure
from .exponent import ExponentClass, reflections, signed_pow
from .expr import CheckedForm, checked_factory
from .stepper import DP5, DensePath, StepControl, StepUnderflow, grid_values, integrate

__all__ = [
    "ORACLE_CONTROL",
    "rk_solve",
    "solve_on_grid",
]


ORACLE_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-11, tableau=DP5)

# |y| past the threshold ends a run as blow-up; so does a step-size
# collapse with |y| past the fraction of it, rather than failure
_BLOWUP_THRESHOLD = 1e12
_BLOWUP_UNDERFLOW_FRACTION = 1e-3


# y' = a*y + b*y^n, with y^n computed as signed_pow computes it: math.pow
# of |y| times the sign of y^n for y < 0 inline, and signed_pow itself at
# y = 0, for NaN and for an even root of y < 0, so values and error texts
# match; multiplying by neg = +-1.0 is exact, so neg*pow(-x, e) is
# signed_pow's
_RHS_ENV = "n, neg, e, pow, signed_pow"
_LINEAR = CheckedForm("x", "((f0 + f1) * x,)", 2, _RHS_ENV)
_POWER = CheckedForm(
    "x",
    "(f0 * x + f1 * ("
    "pow(x, e) if x > 0.0 else neg * pow(-x, e) if x < 0.0 and neg else signed_pow(x, n)),)",
    2,
    _RHS_ENV,
)


def rk_solve(p: ProblemSpec, t_end: float, ctl: StepControl = ORACLE_CONTROL) -> DensePath:
    """The dense path of the IVP from (0, d) toward t_end (either
    direction), y(t) = path.value(t)[0].

    The path ends early, with path.blew_up set, at the first accepted step
    with |y| past `_BLOWUP_THRESHOLD`, or where the step size collapses
    while |y| is already huge.  Raises StepFailure when the step size
    underflows at moderate |y| or ctl's step budget runs out (the
    stepper's own, with the partial path) or y^n overflows, DomainError
    when y leaves the domain of y^n (y < 0 under an even root), and
    ValueError, from `integrate`, for a non-finite t_end.
    """
    n = p.n
    form = _LINEAR if n.cls is ExponentClass.ONE else _POWER
    rhs = checked_factory(form, p.a, p.b)(n, n.cls.negative_sign, n.p / n.q, math.pow, signed_pow)

    try:
        return integrate(rhs, (p.d,), t_end, ctl, limit=_BLOWUP_THRESHOLD)
    except StepUnderflow as exc:
        path = exc.path
        if abs(path.y_end[0]) > _BLOWUP_UNDERFLOW_FRACTION * _BLOWUP_THRESHOLD:
            path.blew_up = True
            return path
        raise
    except OverflowError as exc:  # y^n of an overshooting trial stage
        raise StepFailure(f"right-hand side overflow: {exc}") from None


def solve_on_grid(p: ProblemSpec, ts: Sequence[float]) -> list[float]:
    """Oracle y of p at every t of ts, from one `rk_solve` path per side of
    0 toward that side's farthest t (`stepper.grid_values`).

    Where `exponent.reflections` certifies that y is even, y(-t) = y(t)
    (a and b of structural odd parity), and the grid's sides end at -T and
    T, every t is read at |t| on the one path toward T: the fresh path
    toward -T is that path's t-mirror bit for bit (`stepper.PathView`).

    Raises StepFailure if the solution blows up before the farthest point
    of a side, and the errors of `rk_solve`.
    """

    def solve(t_end: float) -> DensePath:
        path = rk_solve(p, t_end)
        if path.blew_up:
            raise StepFailure(f"oracle blew up at t={path.t_reached!r} before reaching {t_end!r}")
        return path

    even = (-1.0, 1.0, 1, 1, 1) in reflections(p.a, p.b, p.n.cls)  # the view that names p itself
    if even and ts and min(ts) == -max(ts):
        ts = [abs(t) for t in ts]
    return [y for (y,) in grid_values(solve, ts)]
