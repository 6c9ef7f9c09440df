"""Nested integrals behind the closed-form solution, plus identity checks.

Everything here reduces to the accumulator pair

    A(t) = int_0^t a(s) ds
    B(t) = int_0^t b(s) * exp(m * A(s)) ds

driven as the coupled system (A' = a, B' = b*exp(m*A), A(0) = B(0) = 0)
through the shared adaptive stepper, so B never re-integrates A.  The
right-hand side (a, b*exp(m*A)) is one function generated by
`expr.checked_factory` per (a, b) and bound to m per path.  A failing or
non-finite coefficient raises EvalError, and so does an overflowing
exp(m*A), as "integrand overflow: ..".  Reversed limits are handled by the
sign of the step, not by re-parameterization: integrating from 0 toward a
negative t directly yields int_0^t.  A grid of t is answered by
`ab_values` from one path per side of 0 through `stepper.grid_values`: a
path the caller hands in (a problem's validity search paths) where it
reaches the grid's farthest t on that side, else a fresh one.  A(t) is the
first component of every pair; with m = 0 the pair is (int_0^t a,
int_0^t b), which is all the unit exponent's closed form d * exp(A + B)
needs.

Paths are integrated only up to the signs of a and b: `canonical` strips
the unary minus wrappers at the top of both trees, and the path of
(-a, b, m) is that of (a, b, -m) with A negated, the path of (a, -b, m)
that of (a, b, m) with B negated.  Negation is exact and every operation
of the coefficient evaluation and of the stepper commutes with it under
round-to-nearest (the step control reads only magnitudes), so the two
agree bit for bit, up to the sign of a zero; the coefficient evaluation
fails, and the exponential overflows, at the same t with the same message.

Paths are shared across t -> -t as well, where `closedform`'s validity
search has the structural parities eps_a and eps_b of both canonical trees
(`expr.structural_parity`; the sampled fallback of `detect_parity` never
decides this): the path of (a0, b0, m) toward -T is that of
(a0, b0, -eps_a * m) toward T read at -t, with A and B multiplied by
-eps_a and -eps_b, a `stepper.ReflectedPath`.  It is bit for bit the path
integrated toward -T provided the C library evaluates sin and sinh as odd,
cos and cosh as even, and pow(-x, k) as +-pow(x, k) exactly, so that a
coefficient of structural parity eps satisfies f(-t) = eps * f(t) bit for
bit; the evaluation fails at -t exactly where it fails at t.  `ab_values`
reads such views among the paths it is handed; it never makes one, so its
fresh paths, `identity_residuals` and the oracle never reflect.

The checkable integral identities relate mirrored values of B, with
m = n - 1:

    Eq4 (a even, b odd):   int_{-t}^0 b e^{-mA} = -int_0^t b e^{mA}
    Eq7 (a odd,  b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{mA}
    Eq8 (a even, b even):  int_{-t}^0 b e^{mA}  =  int_0^t b e^{-mA}
    Eq9 (a even, b even):  int_{-t}^0 b e^{-mA} =  int_0^t b e^{mA}

Each is the substitution s -> -s in its left side, so it is fixed by the
(a, b) parities and the sign of m on the mirrored side.  (Eq7 is the
even-integrand mirror; it is the same identity regardless of which
exponent class consumes it, so there is exactly one tag for it.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from .errors import EvalError, NoConvergence, ParityViolation
from .expr import CheckedForm, Expr, Neg, Parity, checked_factory, detect_parity
from .exponent import RationalExponent
from .stepper import (
    DensePath,
    ReflectedPath,
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
    "ab_values",
    "canonical",
    "nested_path",
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


# the accumulator right-hand side (A', B')
_AB = CheckedForm("t, y", "return (f0, f1 * exp(mult * y[0]))", "mult")


def nested_path(a: Expr, b: Expr, mult: float, t: float, cfg: QuadConfig) -> DensePath:
    """Dense (A, B) path over [0, t] with B' = b * exp(mult * A)."""
    return _run(checked_factory(_AB, a, b)(mult), (0.0, 0.0), t, cfg)


def canonical(a: Expr, b: Expr, mult: float) -> tuple[Expr, Expr, float, float, float]:
    """(a0, b0, sa * mult, sa, sb) with a = sa * a0 and b = sb * b0.

    a0 and b0 are a and b with every unary minus at the top of the tree
    stripped, sa and sb the signs (+-1.0) those minuses make.  The (A, B)
    path of (a, b, mult) is (sa * A0, sb * B0) on the path of
    (a0, b0, sa * mult), bit for bit up to the sign of a zero.
    """
    sa = sb = 1.0
    while isinstance(a.ast, Neg):
        a, sa = Expr(a.ast.arg), -sa
    while isinstance(b.ast, Neg):
        b, sb = Expr(b.ast.arg), -sb
    return a, b, sa * mult, sa, sb


def ab_values(
    a: Expr,
    b: Expr,
    mult: float,
    ts: Sequence[float],
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    searched: Optional[Mapping[tuple[QuadConfig, float], Union[DensePath, ReflectedPath]]] = None,
) -> list[tuple[float, float]]:
    """(A(t), B(t)) pairs for every t, sharing one solve per side of 0.

    Each side is answered on a path of `canonical(a, b, mult)`'s triple
    (a0, b0, sa * mult), and the pairs are multiplied by the signs
    (sa, sb), so they equal those of the path of (a, b, mult) itself up
    to the sign of a zero.  `searched` maps (cfg, side of 0) to paths
    from 0 of that canonical triple, integrated or `ReflectedPath` views,
    such as a problem's validity-search paths.  A side is answered from
    searched[(cfg, side)] if that path reaches the side's farthest t;
    otherwise one fresh path is integrated to that t.  Either way the
    values agree with a fresh path to the quadrature tolerance.
    """
    a, b, mult, sa, sb = canonical(a, b, mult)
    searched = searched or {}

    def solve(x: float) -> Union[DensePath, ReflectedPath]:
        path = searched.get((cfg, 1.0 if x >= 0.0 else -1.0))
        if path is not None and abs(x) <= abs(path.t_reached):
            return path
        return nested_path(a, b, mult, x, cfg)

    pairs = grid_values(solve, ts)
    if sa == sb == 1.0:
        return pairs
    return [(sa * aval, sb * bval) for aval, bval in pairs]


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


def require_identity_parity(ident: Identity, a: Expr, b: Expr) -> None:
    want_a, want_b, _ = _IDENTITIES[ident]
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

    Every path is integrated afresh and none is reflected, so the residuals
    do not depend on earlier calls and the mirrored side is integrated, not
    derived from the other.  Eq7's two sides read the same (a, b, m), so
    one `ab_values` call over both grids answers them, from one path per
    side of 0 reaching the farther of t and -t there.  Raises
    ParityViolation unless (a, b) carry the parities the identity assumes.
    """
    if isinstance(ident, str):
        ident = Identity(ident)
    require_identity_parity(ident, a, b)
    m = (n.p - n.q) / n.q
    par_a, par_b, sigma = _IDENTITIES[ident]
    # with eps = Parity.sign, s -> -s turns A(-u) into -eps_a * A(u) and
    # b(-u) into eps_b * b(u), so
    # int_{-t}^0 b e^{sigma*m*A} = eps_b * int_0^t b e^{-eps_a*sigma*m*A}
    sign_r, rhs_sign = -par_a.sign * sigma, par_b.sign

    # LHS(t) = int_{-t}^0 b e^{sigma*m*A} = -B_{sigma*m}(-t)
    mirrored = [-t for t in ts]
    if sign_r == sigma:  # Eq7: both sides read one (a, b, m) path per side of 0
        pairs = ab_values(a, b, sigma * m, mirrored + list(ts), cfg)
        left, right = pairs[:len(ts)], pairs[len(ts):]
    else:
        left = ab_values(a, b, sigma * m, mirrored, cfg)
        right = ab_values(a, b, sign_r * m, list(ts), cfg)
    return [
        abs(-bl[1] - rhs_sign * br[1]) for bl, br in zip(left, right)
    ]

