#!/usr/bin/env python3
"""Manufactured Bernoulli problems with exact references.

Usage: python tests/manufactured.py

Prints the summary of `measure` over the seeded family as one JSON line.

The method of manufactured solutions (Roache, J. Fluids Eng. 124(1),
2002) inverts the problem: pick A(t) and B(t), and derive the
coefficients.  A is a polynomial of degree <= 2 and B one of degree <= 3,
both with A(0) = B(0) = 0 and dyadic coefficients.  Then

    a = A',    b = (B') * exp(-m * (A)),    m = n - 1,

written in the DSL, make the closed form's nested integrals exactly A and
B, so G = g0 - m*B and y = sigma * exp(A) * G^(1/(1-n)) hold exactly.  d
is a signed power of 8, so g0 = d^(1-n) is exact for every n of
`EXPONENTS`, and A, B and G are exact in `Fraction`.  Each side's end is
the root of G nearest 0 within `RADIUS`, where the closed form's validity
interval ends; it is found by bisection to adjacent floats on exact signs,
the sign changes of G's Sturm sequence, which count its roots between two
points (problems whose G has a repeated root are skipped).  The reference
y at a float t is one `exp` and one `pow` of exact values rounded once.
No ODE solver and no package beyond the standard library is needed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # run as a script: the checkout's own package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bsym import BsymError, problem, solution_values, solve_on_grid, validity_interval  # noqa: E402
from bsym.closedform import BoundaryKind  # noqa: E402

EXPONENTS = ("2", "3", "1/3", "5/3", "-1", "0", "2/3")
RADIUS = 4
COUNT = 200
POINTS = 41  # interior points per problem, both sides of 0
SEED = 1


def _text(q: Fraction) -> str:
    """q as a parenthesized DSL constant: (3/4), (-1/2), (2)."""
    body = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({body})"


def _poly_text(cs) -> str:
    """The DSL text of sum cs[k] * t^k, the zero polynomial as 0."""
    powers = ("", "*t", *(f"*t^{k}" for k in range(2, len(cs))))
    return " + ".join(_text(c) + power for c, power in zip(cs, powers) if c) or "0"


def _value(cs, x: Fraction) -> Fraction:
    """sum cs[k] * x^k, by Horner's rule, exactly."""
    v = Fraction(0)
    for c in reversed(cs):
        v = v * x + c
    return v


def _derivative(cs) -> list:
    return [k * c for k, c in enumerate(cs)][1:]


def _trim(cs) -> list:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _remainder(num, den) -> list:
    """num mod den, both lowest degree first, den with a nonzero top."""
    num = list(num)
    while len(num) >= len(den):
        k = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= k * c
        num.pop()
    return _trim(num)


def _sturm(cs) -> list:
    """The Sturm sequence of the polynomial cs."""
    seq = [_trim(cs), _trim(_derivative(cs))]
    while seq[-1] and len(seq[-1]) > 1:
        rest = _remainder(seq[-2], seq[-1])
        if not rest:
            break
        seq.append([-c for c in rest])
    return [p for p in seq if p]


def _changes(seq, x: Fraction) -> int:
    signs = [v for v in (_value(p, x) for p in seq) if v]
    return sum((u > 0) != (v > 0) for u, v in zip(signs, signs[1:]))


@dataclass(frozen=True)
class Manufactured:
    """One problem of the family, with its exact data.

    `A`, `B` and `G` are coefficient lists, lowest degree first; `ends`
    holds the end toward -RADIUS and the one toward +RADIUS, each the float
    nearest the root of G or None where G has no root on that side."""

    a: str
    b: str
    n: str
    d: float
    A: tuple
    B: tuple
    G: tuple
    m: Fraction
    sigma: float
    root: float  # 1/(1 - n), exact in binary for every n of EXPONENTS
    ends: tuple

    def reference(self, t: float) -> float:
        """y(t): exp of the exact A(t) and pow of the exact G(t), each rounded once."""
        x = Fraction(t)
        g = float(_value(self.G, x))
        return self.sigma * math.exp(float(_value(self.A, x))) * math.copysign(math.pow(abs(g), self.root), g)

    def interior(self) -> list:
        """POINTS points across the exact interval less 1 % of its width at each end."""
        lo, hi = (e if e is not None else s * RADIUS for e, s in zip(self.ends, (-1, 1)))
        margin = 0.01 * (hi - lo)
        lo, hi = lo + margin, hi - margin
        return [lo + (hi - lo) * k / (POINTS - 1) for k in range(POINTS)]

    def without_m(self) -> str:
        """b with m dropped, (B'): the closed form's B is then B only where A = 0."""
        return f"({_poly_text(_derivative(self.B))})"


def _first_root(g):
    """The float nearest the least root of G in (0, RADIUS], or None.

    Sturm's theorem counts G's roots in (lo, x] as V(lo) - V(x), the sign
    changes of its Sturm sequence at lo less those at x; lo is never a
    root, so the count is exact."""
    seq = _sturm(g)
    if _changes(seq, Fraction(0)) == _changes(seq, Fraction(RADIUS)):
        return None
    lo, hi = 0.0, float(RADIUS)  # no root in (0, lo], one or more in (lo, hi]
    v_lo = _changes(seq, Fraction(0))
    while (mid := (lo + hi) / 2) not in (lo, hi):
        v_mid = _changes(seq, Fraction(mid))
        if v_mid != v_lo:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    # lo and hi are adjacent floats with the root in (lo, hi]: the nearer one
    return hi if abs(_value(g, Fraction(hi))) <= abs(_value(g, Fraction(lo))) else lo


def _ends(g) -> tuple:
    """G's root nearest 0 toward -RADIUS (a root of G(-t) negated) and toward +RADIUS."""
    left = _first_root([c if k % 2 == 0 else -c for k, c in enumerate(g)])
    return (None if left is None else -left, _first_root(g))


def _dyadic(rng: random.Random, top: int = 4) -> Fraction:
    return Fraction(rng.randint(-top, top), 4)


def family() -> list:
    """COUNT problems from one generator seeded with SEED, each exponent in turn."""
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        n = Fraction(EXPONENTS[len(out) % len(EXPONENTS)])
        m = n - 1
        A = [Fraction(0), _dyadic(rng), _dyadic(rng, 2)]
        B = [Fraction(0), _dyadic(rng), _dyadic(rng), _dyadic(rng, 2)]
        sign, k = rng.choice((-1, 1)), rng.randint(-1, 1)
        d = sign * Fraction(8) ** k
        # g0 = d^(1-n), a real odd root: |d|^(1-n) = 2^(3k(1-n)) is an integer
        # power of 2, since 1 - n has denominator 1 or 3
        g0 = (sign if (1 - n).numerator % 2 else 1) * Fraction(2) ** int(3 * k * (1 - n))
        G = [g0, *(-m * c for c in B[1:])]
        if not any(B) or len(_sturm(G)[-1]) > 1:
            continue  # b = 0, or G and G' share a root: a tangent end
        ends = _ends(G)
        odd_odd = n.numerator % 2 and n.denominator % 2
        a_text = _poly_text(_derivative(A))
        b_text = f"({_poly_text(_derivative(B))}) * exp(-{_text(m)} * ({_poly_text(A)}))"
        out.append(Manufactured(
            a_text, b_text, str(n), float(d), tuple(A), tuple(B), tuple(G), m,
            math.copysign(1.0, d) if odd_odd else 1.0, float(1 / (1 - n)), ends,
        ))
    return out


def _scaled(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


def value_error(mp: Manufactured, route: str = "closed", b: str = "") -> float:
    """The worst scaled error, |y - ref| / (1 + |ref|), of one route
    ("closed" or "oracle") on mp's interior points, with b in place of
    mp.b where given; infinite where the route fails."""
    solve = solution_values if route == "closed" else solve_on_grid
    ts = mp.interior()
    try:
        return max(map(_scaled, solve(problem(mp.a, b or mp.b, mp.n, mp.d), ts), map(mp.reference, ts)))
    except BsymError:
        return math.inf


def found_ends(mp: Manufactured) -> tuple:
    """The closed form's validity ends within RADIUS toward -RADIUS and
    toward +RADIUS, None for a SearchLimit side."""
    v = validity_interval(problem(mp.a, mp.b, mp.n, mp.d), RADIUS)
    return tuple(None if kind is BoundaryKind.SEARCH_LIMIT else t
                 for t, kind in ((v.lo, v.lo_kind), (v.hi, v.hi_kind)))


def measure(problems) -> dict:
    """The family's summary against the exact references: the closed
    form's and the oracle's worst scaled value errors and their medians
    over the problems (each problem's error its worst point's), the worst
    and the median end error over the ends found, and the ends missed (G
    has a root, the interval says SearchLimit) and false (the interval
    ends where G has no root)."""
    closed, oracle, ends = [], [], []
    misses = false_ends = 0
    for mp in problems:
        for want, got in zip(mp.ends, found_ends(mp)):
            misses += want is not None and got is None
            false_ends += want is None and got is not None
            if want is not None and got is not None:
                ends.append(abs(got - want))
        closed.append(value_error(mp, "closed"))
        oracle.append(value_error(mp, "oracle"))
    return {"problems": len(problems),
            "closed_worst": max(closed, default=0.0), "closed_median": _median(closed),
            "end_worst": max(ends, default=0.0), "end_median": _median(ends),
            "misses": misses, "false_ends": false_ends,
            "oracle_worst": max(oracle, default=0.0), "oracle_median": _median(oracle)}


def _median(errors: list) -> float:
    return statistics.median(errors) if errors else 0.0


def main() -> int:
    print(json.dumps(measure(family())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
