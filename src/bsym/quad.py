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
Prince and Dormand's 8(5,3) pair (`stepper.DOP853`) at relative
tolerance 5e-12, absolute tolerance 5e-14 and a smallest step of 2**-40
of the span, below which the stepper's StepUnderflow, a StepFailure,
passes through as it is; its tolerances are also the error scale at
which the path's `first_crossing` counts a tangent touch.  Its 7th-order
continuous extension reads A and B between nodes as closely as at them:
B of a = 0.42 cos t, b = 0.85 sin t, m = 2 at t = 1.5, between nodes, is
5.4e-14 from a 30-digit reference, where DP5's quartic at 1e-10 read it
2.17e-8 off.  On the benchmark's paths it takes a third of DP5's steps,
and its end values are about 100 times closer to a tight reference.  The
right-hand side (t, A) -> (a, b*exp(m1*A), ..) is the checked form
`_ab_form(k)` of k multipliers, one expression in A, which
`expr.checked_factory` binds per path to the multipliers and to the
functions of a and b as written (compiled once per shape, constants
bound, shared with the oracle).  `stepper.integrate` runs it through the
form's own DOP853 loop, compiled once per process and form, which
evaluates a inline at 11 stages of each attempted step and b at 7:
stages 2 to 5 feed later stages through A alone and have zero weight in
every B, so the form's head, A' = a, is all it computes there.  The loop
recomputes only the value (exp(m*A)) at the 13th stage, whose time is
the 12th's; its file name in tracebacks and profiles is `<bsym.stepper
DOP853 kernel dim=N form #K>`, N = 1 + k.  The 3 dense stages, which
only the continuous extension reads, evaluate a and b on the first read
of a step, between its nodes or by a crossing walk, in the loop's
completion function, rendered into the loop's source and file and
handed to each path, so a step that nothing reads costs 11 evaluations
of a and 7 of b per attempt and no more.  A failing or non-finite coefficient raises
EvalError, and so does an overflowing exp(m*A) or a B past the float
range, as "integrand overflow: ..": from `nested_path` where the loop
meets it, and from the read that opens the step where a dense stage
does.  Reversed limits are handled
by the sign of the step, not by re-parameterization: integrating from 0
toward a negative t directly yields int_0^t.  A grid of t is answered
from one path per side of 0 through `stepper.grid_values`, each side's
path from `ab_sides`: a path the caller hands in (a problem's validity
search paths) where it reaches the grid's farthest t on that side, else
the path that the one reflection rule gives, as it does for the
validity search: a certified t-mirror of the other side's path,
integrated by the same solve toward the same |t|, or a fresh path of
(a, b, mult).  `ab_values` reads (A, B) so; `closedform.solution_values`
computes y from (A, B) read on the same paths.  No path is
shared between problems.  A(t) is the first
component of every pair; with m = 0 the pair is (int_0^t a, int_0^t b),
which is all the unit exponent's closed form d * exp(A + B) needs.

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
multipliers read there, and the state at each distinct time read once.
Where `exponent.reflections` certifies the t-mirror, a read of B_mult at
x < 0 is kb times B_{ka*mult} at -x, so one path answers every read: an
identity residual is then a shared-path residual, 0 by construction, and
evidence only through the parity certificate.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import EvalError, ParityViolation
from .expr import CheckedForm, Expr, Parity, checked_factory, detect_parity
from .exponent import RationalExponent, minus_one, reflection_signs, reflections
from .stepper import DOP853, DensePath, PathView, StepControl, grid_values, integrate

__all__ = [
    "QUAD_CONTROL",
    "Identity",
    "ab_values",
    "nested_path",
    "ab_sides",
    "identity_residuals",
]


QUAD_CONTROL = StepControl(rel_tol=5e-12, abs_tol=5e-14, tableau=DOP853)


@lru_cache(maxsize=None)
def _ab_form(count: int) -> CheckedForm:
    """The right-hand side (A', B_0', .., B_{count-1}') of `count`
    multipliers, which reads A only and evaluates a and b once per call;
    its head, A' = a, reads a alone."""
    terms = ", ".join(f"f1 * exp(mult{i} * A)" for i in range(count))
    return CheckedForm("A", f"(f0, {terms})", 2, ", ".join(f"mult{i}" for i in range(count)), "f0", (0,))


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
    except OverflowError as exc:
        raise EvalError(f"integrand overflow: {exc}") from None


def ab_sides(
    a: Expr,
    b: Expr,
    mult: float,
    searched: Optional[Mapping[float, Union[DensePath, PathView]]] = None,
) -> Callable[[float], Union[DensePath, PathView]]:
    """solve(t_end), the (A, B) path of (a, b, mult) from 0 to t_end.

    `searched` maps a side of 0 (1.0 or -1.0) to a path of (a, b, mult)
    from 0, integrated or a `PathView`, such as a problem's validity-search
    paths: solve answers t_end's side (-0.0 with 0.0) from it where it
    reaches t_end.  Otherwise solve answers by the reflection rule
    (`exponent.reflections`), resolved on the first side it answers so:
    where solve last integrated toward exactly -t_end and the certified
    t-mirror (-1, 1, ka, kb, 1) keeps the multiplier (ka*mult == mult: a
    odd, or mult = 0), that path read at -t with signs (ka, kb); else a
    fresh path of (a, b, mult).
    """
    searched = searched or {}
    mirror = None  # [(ka, kb)] of the t-mirror, resolved on the first integration
    last = (None, None)  # (t_end, path) of solve's latest integration

    def solve(t_end: float) -> Union[DensePath, PathView]:
        nonlocal mirror, last
        path = searched.get(1.0 if t_end >= 0.0 else -1.0)
        if path is not None and abs(t_end) <= abs(path.t_reached):
            return path
        if mirror is None:
            mirror = [(ka, kb) for _, _, ka, kb, _ in reflections(a, b) if ka * mult == mult]
        end, source = last
        if mirror and end == -t_end:
            return PathView(source, mirror[0])
        source = nested_path(a, b, (mult,), t_end)
        last = (t_end, source)
        return source

    return solve


def ab_values(
    a: Expr,
    b: Expr,
    mult: float,
    ts: Sequence[float],
    searched: Optional[Mapping[float, Union[DensePath, PathView]]] = None,
) -> list[tuple[float, float]]:
    """(A(t), B(t)) pairs for every t, sharing one solve per side of 0.

    Each side is answered by `ab_sides`: from searched[side], such as a
    problem's validity-search path, if that path reaches the side's
    farthest t; otherwise from the certified t-mirror of the other side's
    path where this call has just integrated it toward the same |t|, else
    a fresh path, exactly the path of (a, b, mult).  `searched` is only
    read.  Every path runs at `QUAD_CONTROL`, so either way the values
    agree with a fresh path to the quadrature tolerance.
    """
    return grid_values(ab_sides(a, b, mult, searched), ts)


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
    each side of 0 integrates its own path.  The state at each distinct
    time is read once, and every read at that time takes its multiplier's
    B from it: the benchmark's six times (+-0.5, +-1.5, +-3) read three
    states under a certified mirror, not twelve.  Every residual is bit
    for bit the one fresh paths of (a, b) per side give, and no path
    outlives the call.
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
    mirrored = bool(reflections(a, b))  # cls = None: the t-mirror alone
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

    times = list(dict.fromkeys(x for x, _, _ in reads))  # -0.0 is read as 0.0
    state = dict(zip(times, grid_values(solve, times)))
    got = [f * state[x][1 + carried[x >= 0.0].index(mult)] for x, mult, f in reads]
    return [abs(-bl + kb * br) for bl, br in zip(got[:len(ts)], got[len(ts):])]
