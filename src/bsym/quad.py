"""Nested integrals behind the closed-form solution, plus identity checks.

Everything here reduces to the accumulator pair

    A(t) = int_0^t a(s) ds
    B(t) = int_0^t b(s) * exp(m * A(s)) ds

driven as the coupled system (A' = a, B' = b*exp(m*A), A(0) = B(0) = 0)
through the shared adaptive stepper, so B never re-integrates A.  Reversed
limits are handled by the sign of the step, not by re-parameterization:
integrating from 0 toward a negative t directly yields int_0^t.  A grid of
t is answered by `ab_values` from one path per side of 0 through
`stepper.grid_values`, the latest validity search's path where it reaches
the grid's farthest t on that side.  With m = 0 the pair is
(int_0^t a, int_0^t b), which is all the unit exponent's closed form
d * exp(A + B) needs.

The checkable integral identities relate mirrored values of B:

    Eq4 (a even, b odd):   int_{-t}^0 b e^{-mA} = -int_0^t b e^{mA}
    Eq7 (a odd,  b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{mA}
    Eq8 (a even, b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{-mA}
    Eq9 (a even, b even):  int_{-t}^0 b e^{-mA} =  int_0^t b e^{mA}

with m = n - 1.  (Eq7 is the even-integrand mirror; it is the same identity
regardless of which exponent class consumes it, so there is exactly one tag
for it.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .errors import EvalError, NoConvergence, ParityViolation
from .expr import Expr, Parity, as_callable, detect_parity
from .exponent import RationalExponent
from .stepper import (
    DensePath,
    StepBudgetExceeded,
    StepControl,
    StepUnderflow,
    grid_values,
    integrate,
)

__all__ = [
    "QuadConfig",
    "DEFAULT_QUAD_CONFIG",
    "Identity",
    "integral_A",
    "integral_B",
    "ab_values",
    "nested_path",
    "check_identity",
    "identity_residuals",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances for the quadrature stepper.

    max_depth bounds step halving: the minimum step is span * 2**-max_depth,
    below which the integration reports NoConvergence.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def control(self) -> StepControl:
        return StepControl(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            min_step_fraction=2.0 ** -self.max_depth,
        )


DEFAULT_QUAD_CONFIG = QuadConfig()


def _run(rhs, y0, t: float, cfg: QuadConfig) -> DensePath:
    try:
        return integrate(rhs, 0.0, y0, t, cfg.control())
    except (StepUnderflow, StepBudgetExceeded) as exc:
        raise NoConvergence(str(exc)) from None
    except OverflowError as exc:
        raise EvalError(f"integrand overflow: {exc}") from None


def nested_path(a: Expr, b: Expr, mult: float, t: float, cfg: QuadConfig) -> DensePath:
    """Dense (A, B) path over [0, t] with B' = b * exp(mult * A)."""
    fa, fb = as_callable(a), as_callable(b)
    exp = math.exp

    def rhs(s, y):
        return (fa(s), fb(s) * exp(mult * y[0]))

    return _run(rhs, (0.0, 0.0), t, cfg)


def integral_A(a: Expr, t: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG) -> float:
    """int_0^t a(s) ds; reversed limits negate by the sign convention."""
    fa = as_callable(a)
    return _run(lambda s, y: (fa(s),), (0.0,), t, cfg).y_end[0]


def integral_B(
    a: Expr,
    b: Expr,
    n: RationalExponent,
    t: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> float:
    """int_0^t b(s) * exp((n-1) * A(s)) ds to the configured tolerance."""
    return nested_path(a, b, (n.p - n.q) / n.q, t, cfg).y_end[1]


# (a, b, mult, cfg, side of 0) -> the (A, B) path the latest validity
# search integrated from 0 to that side's search radius
_searched: dict = {}


def _search_paths() -> dict:
    """Forget the previous validity search's paths; return the empty dict
    the new search fills, which `ab_values` reads until the next search."""
    global _searched
    _searched = {}
    return _searched


def ab_values(
    a: Expr,
    b: Expr,
    mult: float,
    ts: Sequence[float],
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> list[tuple[float, float]]:
    """(A(t), B(t)) pairs for every t, sharing one solve per side of 0.

    A side is answered from the path the latest validity search integrated
    for the same (a, b, mult, cfg) on that side of 0, if that path reaches
    the side's farthest t; otherwise one fresh path is integrated to that
    t.  Either way the values agree with a fresh path to the quadrature
    tolerance.
    """

    def solve(x: float) -> DensePath:
        path = _searched.get((a, b, mult, cfg, 1.0 if x >= 0.0 else -1.0))
        if path is not None and abs(x) <= abs(path.t_reached):
            return path
        return nested_path(a, b, mult, x, cfg)

    return grid_values(solve, ts)


# --- Integral identities ----------------------------------------------------

class Identity(Enum):
    EQ4 = "Eq4"
    EQ7 = "Eq7"
    EQ8 = "Eq8"
    EQ9 = "Eq9"


_REQUIRED_PARITY = {
    Identity.EQ4: (Parity.EVEN, Parity.ODD),
    Identity.EQ7: (Parity.ODD, Parity.EVEN),
    Identity.EQ8: (Parity.EVEN, Parity.EVEN),
    Identity.EQ9: (Parity.EVEN, Parity.EVEN),
}

# (multiplier sign on the left/negative side, on the right side, RHS sign)
_IDENTITY_FORM = {
    Identity.EQ4: (-1.0, +1.0, -1.0),
    Identity.EQ7: (+1.0, +1.0, +1.0),
    Identity.EQ8: (+1.0, -1.0, +1.0),
    Identity.EQ9: (-1.0, +1.0, +1.0),
}


def require_identity_parity(ident: Identity, a: Expr, b: Expr) -> None:
    want_a, want_b = _REQUIRED_PARITY[ident]
    got_a, got_b = detect_parity(a), detect_parity(b)
    if (got_a, got_b) != (want_a, want_b):
        raise ParityViolation(
            f"{ident.value} needs a {want_a.value}, b {want_b.value}; "
            f"got a {got_a.value}, b {got_b.value}"
        )


def identity_residuals(
    ident: Union[Identity, str],
    a: Expr,
    b: Expr,
    n: RationalExponent,
    ts: Sequence[float],
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> list[float]:
    """|LHS - RHS| of the chosen identity at each t, sharing quadratures.

    Raises ParityViolation unless (a, b) carry the parities the identity
    assumes.
    """
    if isinstance(ident, str):
        ident = Identity(ident)
    require_identity_parity(ident, a, b)
    m = (n.p - n.q) / n.q
    sign_l, sign_r, rhs_sign = _IDENTITY_FORM[ident]

    # LHS(t) = int_{-t}^0 b e^{sign_l*m*A} = -B_{sign_l*m}(-t)
    left = ab_values(a, b, sign_l * m, [-t for t in ts], cfg)
    right = ab_values(a, b, sign_r * m, list(ts), cfg)
    return [
        abs(-bl[1] - rhs_sign * br[1]) for bl, br in zip(left, right)
    ]


def check_identity(
    ident: Union[Identity, str],
    a: Expr,
    b: Expr,
    n: RationalExponent,
    t: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> float:
    """Residual |LHS - RHS| of one mirrored-integral identity at t."""
    return identity_residuals(ident, a, b, n, [t], cfg)[0]
