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
positive one the root loses the positivity the branch requires.  The
validity search and the evaluator read G's terms and the root exponent
from one place, `_radicand`, and both end it at G's first zero on a path.

A and B come from paths integrated at the quadrature's one fixed step
control, `quad.QUAD_CONTROL` (DOP853 at relative tolerance 5e-12), which
each path records; its tolerances are also the error scale at which the
validity search counts a tangent touch of G = 0.  Each read between
nodes, of a point or of G's first zero, is on the path's 7th-order
extension, which is as accurate as its nodes: next to a pole, where
G's root exponent amplifies B's error, this keeps the closed form within
criterion 4 of the oracle (the oracle, DP5 at 1e-10, can be the farther
from the truth there).  Each problem integrates its own paths, one per side of 0 or
one read on both sides through a certified t-mirror, and keeps those of
its latest search; no path is shared between problems.  A grid reads
each side of 0 in one walk over its path's steps, which returns (A, B) at
each point, and computes y from them; the reflection rule is resolved
only for a side that the searched paths do not reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

from .errors import BsymError, DomainError, EvalError, OutsideValidity
from .expr import Expr, parse_expr
from .exponent import (
    ExponentClass,
    RationalExponent,
    classify_exponent,
    minus_one,
    parse_exponent,
    signed_pow,
)
from .quad import ab_sides
from .stepper import grid_values

__all__ = [
    "ProblemSpec",
    "problem",
    "BoundaryKind",
    "Validity",
    "eval_solution",
    "solution_values",
    "validity_interval",
]

@dataclass(frozen=True)
class ProblemSpec:
    """One Bernoulli IVP: y' = a(t)*y + b(t)*y^n, y(0) = d.

    _searched holds the (A, B) paths of (a, b, n-1) from the problem's
    latest validity search, keyed by side of 0 (1.0 or -1.0), for
    `solution_values` to answer grids from: an integrated path or a
    `stepper.PathView` of one (see `validity_interval`).
    """

    a: Expr
    b: Expr
    n: RationalExponent
    d: float
    _searched: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        # True would otherwise read as d = 1.0; an int d is stored as a float,
        # so d and every partner's s * d are floats
        if isinstance(self.d, bool):
            raise TypeError("initial value d must be a number, not a boolean")
        try:
            d = float(self.d)
        except OverflowError:  # an int past the largest float
            d = math.inf
        object.__setattr__(self, "d", d)
        if not math.isfinite(d) or d == 0.0:
            raise DomainError("initial value d must be finite and nonzero")
        if not self.n.cls.negative_sign and self.d < 0.0:
            raise DomainError(
                "exponent with even denominator requires a positive initial value"
            )
        minus_one(self.n)  # DomainError where n - 1 is no usable float


def problem(a: str, b: str, n: Union[str, int], d: float) -> ProblemSpec:
    """Convenience constructor from source texts.

    TypeError for a boolean n or d, which would otherwise read as 1 or 0.
    """
    return ProblemSpec(parse_expr(a), parse_expr(b), parse_exponent(n), d)


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

    def interior(self) -> tuple[float, float]:
        """The interval less 1% of its width at each end."""
        m = 0.01 * (self.hi - self.lo)
        return self.lo + m, self.hi - m


def _radicand(p: ProblemSpec) -> tuple[float, float, RationalExponent]:
    """(g0, m, root) of G = g0 - m*B and y = sigma * exp(A) * G^root.

    g0 = G(0) = d^(1-n), m = n - 1 and root = -1/(n-1) as the exact reduced
    rational (-q)/(p-q).  DomainError when g0 overflows (|d| too near 0)
    or g0/m, the B at which G vanishes, underflows to B(0) = 0.
    """
    n = p.n
    try:
        g0 = signed_pow(p.d, classify_exponent(n.q - n.p, n.q))
    except OverflowError:
        raise DomainError(f"initial value d={p.d!r} is too small: d^(1-n) overflows") from None
    if g0 / (m := minus_one(n)) == 0.0:
        raise DomainError(f"initial value d={p.d!r}: d^(1-n)/(n-1) underflows to 0")
    return g0, m, classify_exponent(-n.q, n.p - n.q)


def solution_values(p: ProblemSpec, ts: Sequence[float]) -> list[float]:
    """Closed-form y at every t, sharing one quadrature per direction.

    Each side of 0 resolves to one (A, B) path by `quad.ab_sides`: p's
    latest validity search path where it reaches the side's farthest t,
    integrated at the same `QUAD_CONTROL` as a fresh one; otherwise the
    reflection rule's path, a mirror or a fresh one.  Each side is read in
    one walk over its steps (`stepper.grid_values`), and y at each point
    is computed from the path's (A, B) there.
    Where G = 0 is a pole or an even root's edge, a point at or past G's
    first zero on the path that answers it, where `validity_interval`
    ends the interval, or where G lacks G(0)'s sign, raises OutsideValidity
    ("asymptote: .." or "root boundary: .."); an odd root with a positive
    exponent goes on.  G^root is `math.pow` times the root's `negative_sign`
    where G < 0, and `signed_pow` at G = 0: every value is `signed_pow`'s.
    A value that is not finite, such as exp(A) or its product with G^root
    or d past the float range, raises EvalError ("solution overflow at
    t=..").  Where several points fail, the first in the order of ts
    raises.

    Raises DomainError before any integration where `_radicand` does.
    """
    failed: list = []
    if p.n.cls is ExponentClass.ONE:
        # n - 1 = 0, so B is plain int_0^t b; the unit exponent searches nothing
        def read(path, qs):
            out = []
            for t, (a, b) in zip(qs, path.values(qs)):
                try:
                    y = p.d * math.exp(a + b)
                except OverflowError:
                    y = math.inf
                if not math.isfinite(y):
                    y = EvalError(f"solution overflow at t={t!r}")
                    failed.append(y)
                out.append(y)
            return out

        ys = grid_values(ab_sides(p.a, p.b, 0.0), ts, read)
    else:
        g0, m, root = _radicand(p)
        e = root.p / root.q  # as signed_pow computes it
        neg = root.cls.negative_sign  # G^e = neg * (-G)^e for G < 0; 0.0: G must be > 0
        # G = 0 at a pole or an even root's edge (g0 > 0 there) ends it: at
        # its first zero on each side's path, lo < 0 < hi
        ends = root.p < 0 or not neg
        end = "asymptote" if root.p < 0 else "root boundary"
        sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0

        def read(path, qs):
            right = qs[-1] >= 0.0
            zero = (ends and path.first_crossing(1, g0 / m)) or (math.inf if right else -math.inf)
            lo, hi = (-math.inf, zero) if right else (zero, math.inf)
            out = []
            for t, (a, b) in zip(qs, path.values(qs)):
                g = g0 - m * b
                if ends and not ((g > 0.0 if g0 > 0.0 else g < 0.0) and lo < t < hi):
                    y = OutsideValidity(f"{end}: G={g!r} at t={t!r} is at or past G's first zero (G(0)={g0!r})")
                    failed.append(y)
                else:
                    try:
                        scale = sigma * math.exp(a)
                        if g > 0.0:
                            y = scale * math.pow(g, e)
                        elif g < 0.0 and neg:
                            y = scale * (neg * math.pow(-g, e))
                        else:
                            y = scale * signed_pow(g, root)
                    except OverflowError:
                        y = math.inf
                    if not math.isfinite(y):
                        y = EvalError(f"solution overflow at t={t!r}")
                        failed.append(y)
                out.append(y)
            return out

        ys = grid_values(ab_sides(p.a, p.b, m, p._searched), ts, read)
    if failed:
        raise next(y for y in ys if isinstance(y, BsymError))
    return ys


def eval_solution(p: ProblemSpec, t: float) -> float:
    """Closed-form y(t); equals d at t = 0 up to rounding."""
    return solution_values(p, [t])[0]


def validity_interval(p: ProblemSpec, search_radius: float) -> Validity:
    """The first zero of G on each side of 0 within search_radius.

    G = g0 - (n-1)*B vanishes where B reaches level = g0/(n-1), which
    `DensePath.first_crossing` finds step by step on the dense (A, B) path
    of one integration per side, to full float resolution; a tangent touch
    within the error scale of the path's control (abs_tol + rel_tol*|B| in
    B) counts.
    A and B depend on a, b and n-1 only, and each side resolves once to a
    path by the reflection rule (`quad.ab_sides`): an integrated path or a
    `stepper.PathView` of one, whose first crossing is its end.  No path
    is shared between problems: a partner that `exponent.reflections`
    certifies is answered from p1's values (`symmetry.verify_cases`) and
    searches nothing.  Where a is odd and b of structural parity, the
    side toward -radius is the t-mirror of the one toward +radius, so one
    integration serves both.

    Boundary kinds: Asymptote when the root exponent is negative (the
    solution diverges), RootBoundary otherwise (the root loses its real
    branch / uniqueness), SearchLimit when no zero is found, and Unbounded
    for the radicand-free unit exponent.

    p keeps the paths of its search, each reaching exactly +-search_radius,
    for `solution_values` until its next search replaces them; a path
    lives only as long as its problem.  A search never reads paths kept by
    an earlier one, so its interval does not depend on earlier calls.
    """
    if not 0.0 < search_radius < math.inf:
        raise DomainError("search_radius must be positive and finite")
    if p.n.cls is ExponentClass.ONE:
        return Validity(-search_radius, search_radius, BoundaryKind.UNBOUNDED, BoundaryKind.UNBOUNDED)
    g0, m, root = _radicand(p)
    zero_kind = BoundaryKind.ASYMPTOTE if root.p < 0 else BoundaryKind.ROOT_BOUNDARY

    level = g0 / m  # the B at which G vanishes; nonzero, as B(0) = 0 must differ from it
    p._searched.clear()
    solve = ab_sides(p.a, p.b, m)
    ends = []
    for direction in (1.0, -1.0):
        path = p._searched[direction] = solve(direction * search_radius)
        found = path.first_crossing(1, level)
        limit = (direction * search_radius, BoundaryKind.SEARCH_LIMIT)
        ends.append(limit if found is None else (found, zero_kind))
    (hi, hi_kind), (lo, lo_kind) = ends
    return Validity(lo, hi, lo_kind, hi_kind)
