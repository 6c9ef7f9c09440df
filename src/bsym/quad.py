"""Nested integrals behind the closed-form solution, plus identity checks.

Everything here reduces to the accumulator pair

    A(t) = int_0^t a(s) ds
    B(t) = int_0^t b(s) * exp(m * A(s)) ds

driven as the coupled system (A' = a, B' = b*exp(m*A), A(0) = B(0) = 0)
through the shared adaptive stepper, so B never re-integrates A.  B never
feeds back, so it is a pure quadrature: the right-hand side reads A alone,
the one component the stepper gives stage states.  A path may carry one B
per multiplier, (A, B_m1, .., B_mk), from one right-hand side that
evaluates a and b once per stage; with one multiplier it is the (A, B)
path.  Every path runs at, and records, the one fixed `QUAD_CONTROL`:
relative tolerance 1e-10, absolute tolerance 1e-12 and a smallest step of
2**-40 of the span, below which the integration reports NoConvergence;
its tolerances are also the error scale at which the path's
`first_crossing` counts a tangent touch.  The
right-hand side (t, A) -> (a, b*exp(m1*A), ..) is the wrapper
`expr.checked_factory` compiles once per number of multipliers, bound per
path to the multipliers and to a's and b's functions, which compile once
per tree and are shared with the oracle.  A failing or non-finite
coefficient raises EvalError, and so does an overflowing exp(m*A), as
"integrand overflow: ..".  Reversed limits are handled by the sign of the
step, not by re-parameterization: integrating from 0 toward a
negative t directly yields int_0^t.  A grid of t is answered by
`ab_values` from one path per side of 0 through `stepper.grid_values`: a
path the caller hands in (a problem's validity search paths) where it
reaches the grid's farthest t on that side, else a fresh one.  A(t) is the
first component of every pair; with m = 0 the pair is (int_0^t a,
int_0^t b), which is all the unit exponent's closed form d * exp(A + B)
needs.

The checkable integral identities relate mirrored values of B, with
m = n - 1:

    Eq4 (a even, b odd):   int_{-t}^0 b e^{-mA} = -int_0^t b e^{mA}
    Eq7 (a odd,  b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{mA}
    Eq8 (a even, b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{-mA}
    Eq9 (a even, b even):  int_{-t}^0 b e^{-mA} =  int_0^t b e^{mA}

Each is the substitution s -> -s in its left side, so it is fixed by the
(a, b) parities and the sign of m on the mirrored side.  (Eq7 is the
even-integrand mirror; it is the same identity regardless of which
exponent class consumes it, so there is exactly one tag for it.)  Each
identity reads B_{sigma*m} at -t and B_{ka*sigma*m} at t through
`stepper.grid_values`, from one path per side of 0 carrying the
multipliers read there.  Where `exponent.reflections` certifies the
t-mirror, a read of B_mult at x < 0 is kb times B_{ka*mult} at -x, so one
path answers every read: an identity residual is then a shared-path
residual, 0 by construction, and evidence only through the parity
certificate.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .errors import EvalError, NoConvergence, ParityViolation
from .expr import (
    CheckedForm,
    Expr,
    Parity,
    checked_factory,
    detect_parity,
)
from .exponent import RationalExponent, minus_one, reflection_signs, reflections
from .stepper import (
    DensePath,
    PathView,
    StepBudgetExceeded,
    StepControl,
    StepUnderflow,
    grid_values,
    integrate,
    shared_path,
)

__all__ = [
    "QUAD_CONTROL",
    "Identity",
    "ab_values",
    "nested_path",
    "ab_path",
    "identity_residuals",
]


QUAD_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-12)


@lru_cache(maxsize=None)
def _ab_form(count: int) -> CheckedForm:
    """The right-hand side (A', B_0', .., B_{count-1}') of `count`
    multipliers, which reads A only and evaluates a and b once per call."""
    terms = ", ".join(f"f1 * exp(mult{i} * A)" for i in range(count))
    return CheckedForm("t, A", f"return (f0, {terms})", ", ".join(f"mult{i}" for i in range(count)))


def nested_path(a: Expr, b: Expr, mults: tuple, t: float) -> DensePath:
    """Dense path (A, B_0, .., B_k) over [0, t] with
    B_i' = b * exp(mults[i] * A): one B per multiplier, in that order,
    from one right-hand side.

    The error norm sums the components in order, so the multipliers' order
    is part of the path: its t-mirror is the path of the mirrored
    multipliers in the same order.
    """
    rhs = checked_factory(_ab_form(len(mults)), a, b)(*mults)
    try:
        return integrate(rhs, (0.0,) * (1 + len(mults)), t, QUAD_CONTROL)
    except (StepUnderflow, StepBudgetExceeded) as exc:
        raise NoConvergence(str(exc)) from None
    except OverflowError as exc:
        raise EvalError(f"integrand overflow: {exc}") from None


def ab_path(
    paths: dict, a: Expr, b: Expr, mult: float, t_end: float
) -> Union[DensePath, PathView]:
    """The (A, B) path of (a, b, mult) from 0 to t_end by the reflection
    rule (`exponent.reflections`), from the caller's table `paths` of
    integrated (a0, b0, (m0,)) paths keyed by (a0, b0, (m0,), t_end)
    (`stepper.shared_path`): a view (r, ka, kb) reads the path of
    (a0, b0, (ka*mult,)) toward r*t_end with signs (ka, kb), and a fresh
    path integrates the own view's (a0, b0, (sa*mult,)).
    """
    a0, b0, views = reflections(a, b)
    keyed = [(r, (ka, kb), (a0, b0, (ka * mult,))) for r, _, ka, kb, _ in views]
    return shared_path(paths, keyed, t_end, lambda x: nested_path(*keyed[0][2], x))


def ab_values(
    a: Expr,
    b: Expr,
    mult: float,
    ts: Sequence[float],
    searched: Optional[Mapping[float, Union[DensePath, PathView]]] = None,
) -> list[tuple[float, float]]:
    """(A(t), B(t)) pairs for every t, sharing one solve per side of 0.

    `searched` maps a side of 0 (1.0 or -1.0) to a path from 0 of
    (a, b, mult), integrated or a `PathView`, such as a problem's
    validity-search paths.  A side is answered from searched[side] if that
    path reaches the side's farthest t; otherwise one fresh path of
    (a, b, mult) is integrated to that t.  Every path runs at
    `QUAD_CONTROL`, so either way the values agree with a fresh path to the
    quadrature tolerance.
    """
    searched = searched or {}

    def solve(x: float) -> Union[DensePath, PathView]:
        path = searched.get(1.0 if x >= 0.0 else -1.0)
        if path is not None and abs(x) <= abs(path.t_reached):
            return path
        return nested_path(a, b, (mult,), x)

    return grid_values(solve, ts)


# --- Integral identities ----------------------------------------------------

class Identity(Enum):
    EQ4 = "Eq4"
    EQ7 = "Eq7"
    EQ8 = "Eq8"
    EQ9 = "Eq9"


# (a parity, b parity, sign sigma of m on the mirrored side)
_IDENTITIES = {
    Identity.EQ4: (Parity.EVEN, Parity.ODD, -1.0),
    Identity.EQ7: (Parity.ODD, Parity.EVEN, +1.0),
    Identity.EQ8: (Parity.EVEN, Parity.EVEN, +1.0),
    Identity.EQ9: (Parity.EVEN, Parity.EVEN, -1.0),
}


def identity_residuals(
    ident: Union[Identity, str],
    a: Expr,
    b: Expr,
    n: RationalExponent,
    ts: Sequence[float],
) -> list[float]:
    """|LHS - RHS| of the chosen identity at each t, from one path per side.

    The left side reads B_{sigma*m} at -t and the right side B_{ka*sigma*m}
    at t, all in one `stepper.grid_values` call whose path for each side of
    0 carries the multipliers read there, the left side's first.  Where
    `exponent.reflections` certifies the t-mirror, a read at x < 0 becomes
    kb times the read of B_{ka*mult} at -x, so one path toward the farthest
    |t| answers every read, carrying both multipliers for Eq4, Eq8 and Eq9
    on a grid that straddles 0, and one for Eq7 or a grid on one side of
    0: an identity residual is then a shared-path residual, exactly 0, and
    evidence only through the parity certificate.  With a sampled parity
    each side of 0 integrates its own path.  Every residual is bit for bit
    the one fresh paths per side give, and no path outlives the call.
    Raises DomainError where n - 1 is no usable float
    (`exponent.minus_one`), then ParityViolation unless (a, b) carry the
    parities the identity assumes, then ValueError for a non-finite t,
    before any integration.
    """
    if isinstance(ident, str):
        ident = Identity(ident)
    m = minus_one(n)
    par_a, par_b, sigma = _IDENTITIES[ident]
    got_a, got_b = detect_parity(a), detect_parity(b)
    if (got_a, got_b) != (par_a, par_b):
        raise ParityViolation(
            f"{ident.value} needs a {par_a.value}, b {par_b.value}; "
            f"got a {got_a.value}, b {got_b.value}"
        )
    # the t-mirror of (a, b, mult) is (a, b, ka*mult) with B multiplied by
    # kb, B_mult(-t) = kb * B_{ka*mult}(t), so
    # int_{-t}^0 b e^{sigma*m*A} = -B_{sigma*m}(-t) = -kb * B_{ka*sigma*m}(t)
    ka, kb, _ = reflection_signs(None, -1, 1, par_a.sign, par_b.sign)
    mirrored = any(r == -1.0 for r, *_ in reflections(a, b)[2])
    left, right = sigma * m, ka * sigma * m
    # each read (x, mult, factor) is factor * B_mult(x); a certified mirror
    # reads x < 0 at -x
    reads = [(-t, left, 1.0) for t in ts] + [(t, right, 1.0) for t in ts]
    if mirrored:
        reads = [(-x, ka * mult, kb) if x < 0.0 else (x, mult, 1.0) for x, mult, _ in reads]
    carried = {}  # side of 0 -> the multipliers its path carries, in (left, right) order

    def solve(t_end: float) -> DensePath:
        side = t_end >= 0.0
        here = {mult for x, mult, _ in reads if (x >= 0.0) is side}
        mults = carried[side] = tuple(dict.fromkeys(u for u in (left, right) if u in here))
        return nested_path(a, b, mults, t_end)

    states = grid_values(solve, [x for x, _, _ in reads])
    got = [f * y[1 + carried[x >= 0.0].index(mult)] for (x, mult, f), y in zip(reads, states)]
    return [abs(-bl + kb * br) for bl, br in zip(got[:len(ts)], got[len(ts):])]
