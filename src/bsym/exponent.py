"""Exact rational exponents and sign-correct real powers.

Exponents are carried as reduced integer pairs end to end; only the final
power is evaluated in floating point, so the parity of numerator and
denominator (which decides which real root exists) is never corrupted by
rounding.

The exponent class also decides which reflections y2(r*t) = s*y1(t) of a
problem exist: `reflection_signs` is the one rule for the signs of a
reflected problem's (a, b, d), and `reflections` lists the ones that the
structural parities of a and b, as written, make exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError, ZeroDenominator
from .expr import Expr, structural_parity

__all__ = [
    "ExponentClass",
    "RationalExponent",
    "classify_exponent",
    "minus_one",
    "parse_exponent",
    "reflection_signs",
    "reflections",
    "signed_pow",
]


class ExponentClass(Enum):
    EVEN_OVER_ODD = "even/odd"
    ODD_OVER_EVEN = "odd/even"
    ODD_OVER_ODD = "odd/odd"
    ONE = "one"

    @property
    def negative_sign(self) -> float:
        """The sign of x^n for x < 0: 1.0 for even/odd, -1.0 for odd/odd and
        one, and 0.0 for odd/even, where x^n has no real value."""
        if self is ExponentClass.ODD_OVER_EVEN:
            return 0.0
        return 1.0 if self is ExponentClass.EVEN_OVER_ODD else -1.0


@dataclass(frozen=True)
class RationalExponent:
    """A reduced rational p/q with q > 0 and its parity class."""

    p: int
    q: int
    cls: ExponentClass

    def __str__(self) -> str:
        return str(self.p) if self.q == 1 else f"{self.p}/{self.q}"


def classify_exponent(p: int, q: int) -> RationalExponent:
    """Reduce p/q, canonicalize q > 0, and classify by parity.

    n = 0 reduces to 0/1 and lands in the even/odd class, so linear problems
    flow through the same formula selection as any other even-numerator
    exponent.
    """
    if q == 0:
        raise ZeroDenominator("exponent denominator must be nonzero")
    frac = Fraction(p, q)
    rp, rq = frac.numerator, frac.denominator
    if rp == 1 and rq == 1:
        cls = ExponentClass.ONE
    elif rp % 2 == 0:
        cls = ExponentClass.EVEN_OVER_ODD
    elif rq % 2 == 0:
        cls = ExponentClass.ODD_OVER_EVEN
    else:
        cls = ExponentClass.ODD_OVER_ODD
    return RationalExponent(rp, rq, cls)


def minus_one(n: RationalExponent) -> float:
    """n - 1 as the float (p - q)/q, rounded once.

    The closed form divides by n - 1 and raises to -1/(n - 1), so
    DomainError, naming n, where n, n - 1 or 1/(n - 1) is not a finite
    float, or where n - 1 rounds to 0.0 for n != 1.
    """
    p, q = n.p, n.q
    try:  # int / int raises OverflowError rather than round to inf
        m, _, _ = (p - q) / q, p / q, q / (p - q or 1)  # n = 1 has m = 0.0
    except OverflowError:
        m = 0.0
    if m == 0.0 and p != q:
        raise DomainError(f"exponent n={n}: n, n-1 or 1/(n-1) is out of float range")
    return m


def reflection_signs(
    cls: Optional[ExponentClass], r: int, s: int, eps_a: int = 1, eps_b: int = 1
) -> tuple[int, int, int]:
    """The signs of (a2, b2, d2) against (a1, b1, d1) whose solutions obey
    y2(r*t) = s*y1(t), r, s = +-1, where a1(r*t) = eps_a*a1(t) and
    b1(r*t) = eps_b*b1(t): (r*eps_a, r*s^(1-p)*eps_b, s).

    Substituting y1 = s*y2(r*t) into y1' = a1*y1 + b1*y1^n gives them,
    since (s*y)^n = s*s^(1-p)*y^n.  s^(1-p) is 1 for s = 1, where cls may
    be None (any exponent), and -cls.negative_sign for s = -1, which needs
    a class with a real power of a negative base.
    """
    s_pow = 1 if s == 1 else int(-cls.negative_sign)
    return (r * eps_a, r * s_pow * eps_b, s)


def reflections(a: Expr, b: Expr, cls: Optional[ExponentClass] = None) -> list:
    """The certified reflections of the problem (a, b, d), the one place
    that decides which problems share a solve: each view (r, s, ka, kb,
    kd) names the problem (ka*a, kb*b, kd*d) whose solution is
    t -> s*y(r*t), with the signs of `reflection_signs`.  The identity is
    no view.  r = -1 only where `expr.structural_parity` gives a and b
    parities (a sampled parity never shares), s = -1 only where cls has a
    real power of a negative base (never for cls = None).  The quadrature
    reads a problem's side toward -t on its path toward t where the
    t-mirror keeps the multiplier (`quad.ab_sides`, cls = None),
    `symmetry.verify_cases` certifies a partner as p1 reflected by it, and
    `oracle.solve_on_grid` reads an even solution, the view
    (-1, 1, 1, 1, 1), at |t|.
    """
    eps = {1.0: (1, 1)}  # r -> (eps_a, eps_b)
    pa, pb = structural_parity(a), structural_parity(b)
    if pa is not None and pb is not None:
        eps[-1.0] = (pa.sign, pb.sign)
    flips = (1.0, -1.0) if cls is not None and cls.negative_sign else (1.0,)
    return [
        (r, s, *reflection_signs(cls, r, s, eps_a, eps_b))
        for r, (eps_a, eps_b) in eps.items()
        for s in flips
        if (r, s) != (1.0, 1.0)
    ]


def parse_exponent(text: Union[str, int, float]) -> RationalExponent:
    """Parse "p/q" or integer text, or an integral number.

    ValueError on other text or numbers, TypeError on any other type,
    booleans included.
    """
    if isinstance(text, RationalExponent):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return classify_exponent(text, 1)
    if isinstance(text, float):
        if not text.is_integer():
            raise ValueError(f"non-integer exponent {text!r}; use the p/q form")
        return classify_exponent(int(text), 1)
    if not isinstance(text, str):
        raise TypeError(f"exponent must be text or a number, not {type(text).__name__}")
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return classify_exponent(int(num.strip()), int(den.strip()))
    return classify_exponent(int(s), 1)


def signed_pow(x: float, r: RationalExponent) -> float:
    """x**(p/q) with odd-root semantics: sign(x)**p * |x|**(p/q) for odd q.

    For even q the base must be non-negative.  Exact for x in {0, -1, 1}.
    Raises DomainError for an even root of a negative base, and for
    0 raised to a negative exponent.
    """
    p, q = r.p, r.q
    if x == 0.0:
        if p < 0:
            raise DomainError("zero base with negative exponent")
        return 1.0 if p == 0 else 0.0
    if q % 2 == 0:
        if x < 0.0:
            raise DomainError(f"even root ({p}/{q}) of negative base {x!r}")
        return math.pow(x, p / q)
    mag = math.pow(abs(x), p / q)
    return -mag if (x < 0.0 and p % 2 != 0) else mag
