"""Closed-form evaluation of Bernoulli initial-value problems.

For y' = a(t)*y + b(t)*y^n with y(0) = d and reduced n = p/q != 1, the
solution is

    y(t) = sigma * exp(A(t)) * G(t)^(-1/(n-1)),
    G(t) = d^(1-n) - (n-1) * B(t),

with A, B the nested integrals from the quad module.  The root exponent
-1/(n-1) reduces exactly to (-q)/(p-q) (already coprime), and its reduced
denominator decides which real branch exists:

* even numerator p:  |p-q| odd, plain odd-root semantics, no sign prefix;
* odd p, even q:     |p-q| odd again, but d must be positive;
* odd p, odd q:      |p-q| even, so the root demands G > 0 and returns the
                     positive branch; the solution sign sigma = sign(d).

For n = 1 the solution is d * exp(A(t) + B(t)) with no radicand at all;
n - 1 = 0 there makes B plain int_0^t b.

The validity interval around t = 0 is bounded by zeros of G: with a
negative root exponent the solution blows up there (asymptote); with a
positive one the root loses the positivity the branch requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .errors import DomainError, EvalError, OutsideValidity
from .expr import Expr, parse_expr
from .exponent import (
    ExponentClass,
    RationalExponent,
    classify_exponent,
    parse_exponent,
    signed_pow,
)
from .quad import (
    DEFAULT_QUAD_CONFIG,
    QuadConfig,
    ab_values,
    nested_path,
)

__all__ = [
    "ProblemSpec",
    "problem",
    "BoundaryKind",
    "Validity",
    "radicand",
    "eval_solution",
    "solution_values",
    "validity_interval",
]

VALIDITY_SCAN_POINTS = 1024  # scan resolution ahead of bisection
_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """One Bernoulli IVP: y' = a(t)*y + b(t)*y^n, y(0) = d."""

    a: Expr
    b: Expr
    n: RationalExponent
    d: float

    def __post_init__(self):
        if not math.isfinite(self.d) or self.d == 0.0:
            raise DomainError("initial value d must be finite and nonzero")
        if self.n.cls is ExponentClass.ODD_OVER_EVEN and self.d < 0.0:
            raise DomainError(
                "exponent with even denominator requires a positive initial value"
            )


def problem(a: str, b: str, n: Union[str, int], d: float) -> ProblemSpec:
    """Convenience constructor from source texts."""
    return ProblemSpec(parse_expr(a), parse_expr(b), parse_exponent(n), float(d))


class BoundaryKind(Enum):
    ASYMPTOTE = "Asymptote"
    ROOT_BOUNDARY = "RootBoundary"
    UNBOUNDED = "Unbounded"
    SEARCH_LIMIT = "SearchLimit"


@dataclass(frozen=True)
class Validity:
    """Interval around 0 on which the closed form is real and finite.

    For Unbounded and SearchLimit ends, lo/hi hold the scanned bound rather
    than a boundary location.
    """

    lo: float
    hi: float
    lo_kind: BoundaryKind
    hi_kind: BoundaryKind

    def __post_init__(self):
        if not (self.lo < 0.0 < self.hi):
            raise ValueError("validity interval must contain 0")

    def contains(self, t: float) -> bool:
        return self.lo < t < self.hi

    def interior(self, margin_frac: float = 0.01) -> tuple[float, float]:
        m = margin_frac * (self.hi - self.lo)
        return self.lo + m, self.hi - m


def _mult(n: RationalExponent) -> float:
    return (n.p - n.q) / n.q  # n - 1 without an extra rounding


def _recip_exponent(n: RationalExponent) -> RationalExponent:
    """Exponent of d in d^(1-n) = 1/d^(n-1)."""
    return classify_exponent(n.q - n.p, n.q)


def _root_exponent(n: RationalExponent) -> RationalExponent:
    """-1/(n-1) as the exact reduced rational (-q)/(p-q)."""
    return classify_exponent(-n.q, n.p - n.q)


def radicand(p: ProblemSpec, t: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG) -> float:
    """G(t) = d^(1-n) - (n-1)*B(t); undefined for n = 1."""
    if p.n.cls is ExponentClass.ONE:
        raise DomainError("radicand is undefined for the unit exponent")
    g0 = signed_pow(p.d, _recip_exponent(p.n))
    m = _mult(p.n)
    bval = ab_values(p.a, p.b, m, [t], cfg)[0][1]
    return g0 - m * bval


def solution_values(
    p: ProblemSpec, ts: Sequence[float], cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> list[float]:
    """Closed-form y at every t, sharing one quadrature per direction.

    Raises OutsideValidity where the required root does not exist: G <= 0
    with an even reduced root denominator, or G = 0 with a negative root
    exponent.
    """
    m = _mult(p.n)  # 0 for n = 1, where B is plain int_0^t b
    values = zip(ab_values(p.a, p.b, m, ts, cfg), ts)
    out = []
    if p.n.cls is ExponentClass.ONE:
        for (aval, bval), t in values:
            try:
                out.append(p.d * math.exp(aval + bval))
            except OverflowError:
                raise EvalError(f"solution overflow at t={t!r}") from None
        return out
    g0 = signed_pow(p.d, _recip_exponent(p.n))
    root = _root_exponent(p.n)
    even_root = root.q % 2 == 0
    sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0
    for (aval, bval), t in values:
        g = g0 - m * bval
        # a radicand this small is indistinguishable from its zero at
        # quadrature precision
        g_eps = 1e-13 * (1.0 + abs(g0) + abs(m * bval))
        if even_root:
            if g <= (g_eps if root.p < 0 else 0.0):
                raise OutsideValidity(
                    f"radicand {g!r} at t={t!r} but the root requires positivity"
                )
        elif root.p < 0 and abs(g) <= g_eps:
            raise OutsideValidity(f"asymptote: radicand vanishes at t={t!r}")
        try:
            out.append(sigma * math.exp(aval) * signed_pow(g, root))
        except OverflowError:
            raise EvalError(f"solution overflow at t={t!r}") from None
    return out


def eval_solution(
    p: ProblemSpec, t: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> float:
    """Closed-form y(t); equals d at t = 0 up to rounding."""
    return solution_values(p, [t], cfg)[0]


def validity_interval(
    p: ProblemSpec,
    search_radius: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    scan_points: int = VALIDITY_SCAN_POINTS,
) -> Validity:
    """Bracket the first zero of G on each side of 0 within search_radius.

    G comes from the dense (A, B) path of one integration per side.  Scans G
    with a fixed step of search_radius/scan_points in one walk over the
    path's steps, then bisects any sign change (or exact zero hit) of the
    same G down to 1e-9.  Boundary kinds:
    Asymptote when the root exponent is negative (the solution diverges),
    RootBoundary otherwise (the root loses its real branch / uniqueness),
    SearchLimit when no zero is found, and Unbounded for the radicand-free
    unit exponent.
    """
    if not 0.0 < search_radius < math.inf:
        raise DomainError("search_radius must be positive and finite")
    if p.n.cls is ExponentClass.ONE:
        return Validity(
            -search_radius, search_radius, BoundaryKind.UNBOUNDED, BoundaryKind.UNBOUNDED
        )
    g0 = signed_pow(p.d, _recip_exponent(p.n))
    m = _mult(p.n)
    root = _root_exponent(p.n)
    zero_kind = BoundaryKind.ASYMPTOTE if root.p < 0 else BoundaryKind.ROOT_BOUNDARY
    step = search_radius / scan_points

    ends: dict[float, tuple[float, BoundaryKind]] = {}
    for direction in (1.0, -1.0):
        path = nested_path(p.a, p.b, m, direction * search_radius, cfg)

        def g(tau: float) -> float:
            return g0 - m * path.value(tau)[1]

        taus = [
            direction * (search_radius if i == scan_points else i * step)
            for i in range(1, scan_points + 1)
        ]
        prev_t, prev_g = 0.0, g0
        found = None
        for tau, bval in zip(taus, path.component_values(taus, 1)):
            gv = g0 - m * bval
            if prev_g * gv <= 0.0:
                found = _bisect_zero(g, prev_t, tau, prev_g)
                break
            prev_t, prev_g = tau, gv
        if found is None:
            ends[direction] = (direction * search_radius, BoundaryKind.SEARCH_LIMIT)
        else:
            ends[direction] = (found, zero_kind)

    (hi, hi_kind), (lo, lo_kind) = ends[1.0], ends[-1.0]
    return Validity(lo, hi, lo_kind, hi_kind)


def _bisect_zero(g, t_in: float, t_out: float, g_in: float) -> float:
    """Refine a bracketed sign change of g to within _BISECT_TOL."""
    while abs(t_out - t_in) > _BISECT_TOL:
        mid = 0.5 * (t_in + t_out)
        if g(mid) * g_in > 0.0:
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_in + t_out)
