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
from dataclasses import dataclass, field
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
    canonical,
    nested_path,
)

__all__ = [
    "ProblemSpec",
    "problem",
    "BoundaryKind",
    "Validity",
    "eval_solution",
    "solution_values",
    "validity_interval",
    "validity_intervals",
]

@dataclass(frozen=True)
class ProblemSpec:
    """One Bernoulli IVP: y' = a(t)*y + b(t)*y^n, y(0) = d.

    _searched holds the (A, B) paths of the problem's latest validity
    search, keyed by (QuadConfig, side of 0), for `solution_values` to
    answer grids from.  They are the paths of the canonical triple
    `quad.canonical(a, b, n-1)`, which `ab_values` signs back.
    """

    a: Expr
    b: Expr
    n: RationalExponent
    d: float
    _searched: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    For Unbounded and SearchLimit ends, lo/hi hold the search radius rather
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


def _g0(p: ProblemSpec) -> float:
    """G(0) = d^(1-n); DomainError when it overflows (|d| too near 0)."""
    try:
        return signed_pow(p.d, _recip_exponent(p.n))
    except OverflowError:
        raise DomainError(f"initial value d={p.d!r} is too small: d^(1-n) overflows") from None


def solution_values(
    p: ProblemSpec, ts: Sequence[float], cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> list[float]:
    """Closed-form y at every t, sharing one quadrature per direction.

    (A, B) come from `ab_values`: a side of 0 that p's latest validity
    search path for cfg reaches is answered from that path, to the
    quadrature tolerance of a fresh one; otherwise a fresh path is
    integrated.  The exponent class is decided once per call: the
    per-point loop raises G to the root exponent with `math.pow` and the
    sign rule of `signed_pow`, which it calls only at G = 0 and where
    `signed_pow` would raise, so every value and error is `signed_pow`'s.

    Raises OutsideValidity where the required root does not exist: G <= 0
    with an even reduced root denominator, or G = 0 with a negative root
    exponent.
    """
    m = _mult(p.n)  # 0 for n = 1, where B is plain int_0^t b
    values = zip(ab_values(p.a, p.b, m, ts, cfg, p._searched), ts)
    exp = math.exp
    out = []
    if p.n.cls is ExponentClass.ONE:
        d = p.d
        for (aval, bval), t in values:
            try:
                out.append(d * exp(aval + bval))
            except OverflowError:
                raise EvalError(f"solution overflow at t={t!r}") from None
        return out
    g0 = _g0(p)
    abs_g0 = abs(g0)
    root = _root_exponent(p.n)
    e = root.p / root.q  # as signed_pow computes it
    even_root = root.q % 2 == 0  # G must be positive
    odd_power = root.p % 2 != 0  # (-G)^e = -(G^e) on an odd root
    asymptote = root.p < 0  # G = 0 is a pole
    sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0
    pow_ = math.pow
    for (aval, bval), t in values:
        mb = m * bval
        g = g0 - mb
        # a radicand this small is indistinguishable from its zero at
        # quadrature precision; relative to the terms of G only, so that
        # G(0) = g0 != 0 always passes, however small d^(1-n) is
        g_eps = 1e-13 * (abs_g0 + abs(mb)) if asymptote else 0.0
        if even_root:
            if g <= g_eps:
                raise OutsideValidity(
                    f"radicand {g!r} at t={t!r} but the root requires positivity"
                )
        elif asymptote and abs(g) <= g_eps:
            raise OutsideValidity(f"asymptote: radicand vanishes at t={t!r}")
        try:
            scale = sigma * exp(aval)
            if g > 0.0:
                out.append(scale * pow_(g, e))
            elif g < 0.0 and not even_root:
                mag = pow_(-g, e)
                out.append(scale * (-mag if odd_power else mag))
            else:
                out.append(scale * signed_pow(g, root))
        except OverflowError:
            raise EvalError(f"solution overflow at t={t!r}") from None
    return out


def eval_solution(
    p: ProblemSpec, t: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> float:
    """Closed-form y(t); equals d at t = 0 up to rounding."""
    return solution_values(p, [t], cfg)[0]


def validity_intervals(
    problems: Sequence[ProblemSpec],
    search_radius: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> list[Validity]:
    """The first zero of G on each side of 0 within search_radius, per problem.

    G = g0 - (n-1)*B vanishes where B reaches g0/(n-1), which
    `DensePath.first_crossing` finds step by step on the dense (A, B) path
    of one integration per side, to full float resolution; a tangent touch
    within the quadrature's error scale (abs_tol + rel_tol*|B| in B) counts.
    A and B depend on a, b and n-1 only, and on a and b only up to their
    signs: one path per side is integrated for each distinct canonical
    triple `quad.canonical(a, b, n-1)` = (a0, b0, sa*(n-1)), on which a
    problem with b = sb*b0 looks for B0 reaching sb*g0/(n-1).  So a problem
    shares its paths with its partners that flip d, b or both, and a
    partner that flips a shares with any problem of the same canonical
    triple; d only moves the level.  Each (path, level) pair is walked once
    per call, so a problem whose level coincides with an earlier one's on
    the same path walks nothing.  Boundary kinds: Asymptote when the root
    exponent is negative (the solution diverges), RootBoundary otherwise
    (the root loses its real branch / uniqueness), SearchLimit when no zero
    is found, and Unbounded for the radicand-free unit exponent.  Errors
    are raised in problem order.

    Each problem keeps the canonical paths of its search, each integrated
    to exactly +-search_radius, for `solution_values` until its next search
    replaces them; a path lives only as long as its problem.  A search
    never reads paths kept by an earlier one, so its intervals do not
    depend on earlier calls.
    """
    if not 0.0 < search_radius < math.inf:
        raise DomainError("search_radius must be positive and finite")
    paths = {}  # (a0, b0, sa*(n-1), direction) -> that side's (A0, B0) path
    crossings = {}  # (path key, level of B0) -> first crossing or None
    out = []
    for p in problems:
        if p.n.cls is ExponentClass.ONE:
            out.append(Validity(
                -search_radius, search_radius, BoundaryKind.UNBOUNDED, BoundaryKind.UNBOUNDED
            ))
            continue
        g0 = _g0(p)
        m = _mult(p.n)
        root = _root_exponent(p.n)
        zero_kind = BoundaryKind.ASYMPTOTE if root.p < 0 else BoundaryKind.ROOT_BOUNDARY

        level = g0 / m  # the B at which G vanishes; B(0) = 0 must differ from it
        if level == 0.0:
            raise DomainError(f"initial value d={p.d!r}: d^(1-n)/(n-1) underflows to 0")
        a0, b0, m0, _, sb = canonical(p.a, p.b, m)
        level0 = sb * level  # B = sb*B0 reaches level where B0 reaches sb*level
        p._searched.clear()
        ends = []
        for direction in (1.0, -1.0):
            key = (a0, b0, m0, direction)
            path = paths.get(key)
            if path is None:
                path = paths[key] = nested_path(a0, b0, m0, direction * search_radius, cfg)
            p._searched[cfg, direction] = path
            if (key, level0) not in crossings:
                crossings[key, level0] = path.first_crossing(1, level0, cfg.abs_tol, cfg.rel_tol)
            found = crossings[key, level0]
            limit = (direction * search_radius, BoundaryKind.SEARCH_LIMIT)
            ends.append(limit if found is None else (found, zero_kind))
        (hi, hi_kind), (lo, lo_kind) = ends
        out.append(Validity(lo, hi, lo_kind, hi_kind))
    return out


def validity_interval(
    p: ProblemSpec, search_radius: float, cfg: QuadConfig = DEFAULT_QUAD_CONFIG
) -> Validity:
    """p's validity interval: `validity_intervals` of p alone."""
    return validity_intervals([p], search_radius, cfg)[0]
