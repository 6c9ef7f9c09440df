"""The eleven symmetry cases: applicability, partner construction, checking.

Every case is one reflection rule, y2(r t) = s y1(t) with r, s = +-1:

    origin  (r = -1, s = -1):  y2(-t) = -y1(t)
    t-axis  (r = +1, s = -1):  y2(t)  = -y1(t)
    y-axis  (r = -1, s = +1):  y2(-t) =  y1(t)

Substituting y1(t) = s y2(r t) into y1' = a1 y1 + b1 y1^n, with n = p/q
and q odd when s = -1, gives the partner problem

    a2(t) = r a1(r t),   b2(t) = r s^(1-p) b1(r t),   d2 = s d.

A catalog row holds only the paper's hypotheses (exponent class, (a, b)
parities) and its relation; the parities make a1(r t) and b1(r t) equal to
+-a1(t) and +-b1(t), so the signs of (a2, b2, d2) are derived by
`exponent.reflection_signs`, the rule `exponent.reflections` certifies
reflections by.  `verify_cases` samples the partner at r t and takes
|y2(r t) - s y1(t)|, each case on its own: a partner whose (r, s) and
signs the certificate lists as a view of p1 is read from p1's one
solve, and any other is searched and solved as `verify_pair` does.
Coefficient negation is structural (the tree is wrapped in a unary minus)
and the transformed coefficients are re-classified by detect_parity, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .closedform import ProblemSpec, Validity, solution_values, validity_interval
from .errors import CaseNotApplicable
from .expr import Parity, detect_parity, negated
from .exponent import ExponentClass, reflection_signs, reflections
from .oracle import solve_on_grid

__all__ = [
    "Relation",
    "SymmetryCase",
    "CATALOG",
    "CASE_BY_ID",
    "explain_inapplicable",
    "applicable_cases",
    "transform_problem",
    "VerificationReport",
    "verify_pair",
    "verify_cases",
    "DEFAULT_SEARCH_RADIUS",
]

DEFAULT_SEARCH_RADIUS = 4.0


class Relation(Enum):
    """The reflection y2(r * t) = s * y1(t) between two solutions."""

    ORIGIN = "origin"
    T_AXIS = "t-axis"
    Y_AXIS = "y-axis"

    @property
    def r(self) -> int:
        return 1 if self is Relation.T_AXIS else -1

    @property
    def s(self) -> int:
        return 1 if self is Relation.Y_AXIS else -1


@dataclass(frozen=True)
class SymmetryCase:
    id: str
    cls: Optional[ExponentClass]  # None = any rational exponent
    parity: Optional[tuple[Parity, Parity]]  # required (a, b) parities
    relation: Relation

    @property
    def signs(self) -> tuple[int, int, int]:
        """The signs of (a2, b2, d2) against (a1, b1, d1)."""
        r = self.relation.r
        # a1(r t) = eps_a * a1(t), b1(r t) = eps_b * b1(t)
        eps = (1, 1) if r == 1 else (self.parity[0].sign, self.parity[1].sign)
        return reflection_signs(self.cls, r, self.relation.s, *eps)

    @property
    def transform_text(self) -> str:
        """The signs as text, such as "a2=-a1,b2=+b1,d2=-d1"."""
        return ",".join(
            f"{x}2={'-' if sign < 0 else '+'}{x}1" for x, sign in zip("abd", self.signs)
        )

    def __str__(self) -> str:
        return f"{self.id}({self.transform_text} -> {self.relation.value})"


_EVEN_ODD, _ODD_ODD = ExponentClass.EVEN_OVER_ODD, ExponentClass.ODD_OVER_ODD
_E, _O = Parity.EVEN, Parity.ODD

CATALOG: tuple[SymmetryCase, ...] = (
    SymmetryCase("T2i", _EVEN_ODD, (_E, _O), Relation.ORIGIN),
    SymmetryCase("T2ii", _EVEN_ODD, (_O, _E), Relation.ORIGIN),
    SymmetryCase("T2iii", _EVEN_ODD, (_E, _E), Relation.ORIGIN),
    SymmetryCase("T2iv", _EVEN_ODD, None, Relation.T_AXIS),
    SymmetryCase("T3i", None, (_E, _O), Relation.Y_AXIS),
    SymmetryCase("T3ii", None, (_O, _E), Relation.Y_AXIS),
    SymmetryCase("T3iii", None, (_E, _E), Relation.Y_AXIS),
    SymmetryCase("T4i", _ODD_ODD, (_O, _E), Relation.ORIGIN),
    SymmetryCase("T4ii", _ODD_ODD, None, Relation.T_AXIS),
    SymmetryCase("T4iii", _ODD_ODD, (_E, _O), Relation.ORIGIN),
    SymmetryCase("T4iv", _ODD_ODD, (_E, _E), Relation.ORIGIN),
)

CASE_BY_ID = {c.id: c for c in CATALOG}


def resolve_case(case: Union[SymmetryCase, str]) -> SymmetryCase:
    if isinstance(case, SymmetryCase):
        return case
    try:
        return CASE_BY_ID[case]
    except KeyError:
        raise ValueError(f"unknown case id {case!r}") from None


def explain_inapplicable(p: ProblemSpec, case: Union[SymmetryCase, str]) -> Optional[str]:
    """Why the case's hypotheses fail for p, or None if they all hold."""
    case = resolve_case(case)
    if case.cls is not None and p.n.cls is not case.cls:
        num, den = case.cls.value.split("/")
        return (
            f"{case.id} requires an {num}-numerator/{den}-denominator exponent; "
            f"n = {p.n} is {p.n.cls.value}"
        )
    if case.parity is not None:
        want_a, want_b = case.parity
        got_a = detect_parity(p.a)
        if got_a is not want_a:
            return f"{case.id} requires a(t) {want_a.value}; got {got_a.value}"
        got_b = detect_parity(p.b)
        if got_b is not want_b:
            return f"{case.id} requires b(t) {want_b.value}; got {got_b.value}"
    return None


def applicable_cases(p: ProblemSpec) -> list[SymmetryCase]:
    """All catalog rows whose hypotheses p satisfies, in catalog order."""
    return [c for c in CATALOG if explain_inapplicable(p, c) is None]


def transform_problem(
    p: ProblemSpec, case: Union[SymmetryCase, str], *, force: bool = False
) -> ProblemSpec:
    """Build the partner problem prescribed by the case.

    Raises CaseNotApplicable unless the hypotheses hold (or force is set,
    which is only useful for demonstrating that violated hypotheses break
    the predicted relation).
    """
    case = resolve_case(case)
    if not force:
        reason = explain_inapplicable(p, case)
        if reason is not None:
            raise CaseNotApplicable(reason)
    sign_a, sign_b, s = case.signs
    return ProblemSpec(
        a=negated(p.a) if sign_a < 0 else p.a,
        b=negated(p.b) if sign_b < 0 else p.b,
        n=p.n,
        d=s * p.d,
    )


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    relation: Relation
    grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    y_scale: float  # max |y1| over the grid; the pass rule scales by 1 + this
    common_validity: Validity
    tol: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def verify_pair(
    p1: ProblemSpec,
    case: Union[SymmetryCase, str],
    grid_points: int = 51,
    tol: float = 1e-6,
    method: str = "oracle",
    *,
    force: bool = False,
) -> VerificationReport:
    """Check the case's predicted relation between p1 and its partner.

    The two validity intervals are intersected (the partner's reflected
    by the relation's r), y1 is evaluated on a uniform grid over the
    interior (1% end margins) and y2 at r * t, and the residual
    |y2(r t) - s * y1(t)| is reported.  Pass iff
    max residual <= tol * (1 + max |y1|).
    """
    return verify_cases(p1, [case], grid_points, tol, method, force=force)[0]


def verify_cases(
    p1: ProblemSpec,
    cases: Sequence[Union[SymmetryCase, str]],
    grid_points: int = 51,
    tol: float = 1e-6,
    method: str = "oracle",
    *,
    force: bool = False,
) -> list[VerificationReport]:
    """verify_pair for each case in order, searching p1 once for all of them.

    An inapplicable case raises CaseNotApplicable before any integration:
    every partner is built first.  Each case then stands alone, in case
    order, so errors come in that order.  p1's validity interval is
    searched once, within DEFAULT_SEARCH_RADIUS.  A partner is certified
    where `exponent.reflections` of p1 holds the view (r, s, *case.signs):
    the partner is built from those signs, so that view's problem is the
    partner.  A certified case takes p1's interval, end kinds included, as
    its common interval, p1's grid, and y2(r t) = s * y1(t), from p1's one
    solve on that grid, run at the first certified case: it runs no search
    or solve of its own, and its residual is 0 by construction, evidence
    only through the certificate.
    Every other partner (a forced case, or parities that only sampling
    finds) is searched, its interval reflected by r and intersected with
    p1's, with p1's end and kind on a tie (both hold 0, since both problems
    start at t = 0, so it is never empty), and p1 and the partner are
    solved on that case's own grid.  The closed form answers from the
    search's kept paths, the oracle from `solve_on_grid`.  So the reports
    equal, bit for bit, those of one verify_pair per case, and, for a
    certified case, those of solving its partner on its own paths (the
    `stepper.PathView` contract).  A case passes only where every y1 and
    residual is finite.

    ValueError, before any integration, for an unknown method, a tol that
    is not positive and finite, or grid_points that is not an int >= 3.
    """
    cases = [resolve_case(case) for case in cases]
    if not (isinstance(grid_points, int) and grid_points >= 3):
        raise ValueError(f"grid_points must be an int >= 3, not {grid_points!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    if method not in ("closed", "oracle"):
        raise ValueError(f"unknown method {method!r} (expected 'closed' or 'oracle')")
    partners = [transform_problem(p1, case, force=force) for case in cases]
    if not cases:
        return []
    certified = reflections(p1.a, p1.b, p1.n.cls)  # views (r, s, ka, kb, kd)
    solve = solve_on_grid if method == "oracle" else solution_values
    v1 = validity_interval(p1, DEFAULT_SEARCH_RADIUS)
    mirrored = None  # p1 on its own grid, which every certified case reads
    reports = []
    for case, p2 in zip(cases, partners):
        r, s = case.relation.r, case.relation.s
        own = (r, s, *case.signs) not in certified
        common = v1
        if own:  # searched and solved on its own grid
            # y2 is sampled at r * t: reflect its interval by r before intersecting
            v2 = validity_interval(p2, DEFAULT_SEARCH_RADIUS)
            (lo2, lo2_kind), (hi2, hi2_kind) = sorted(
                ((r * v2.lo, v2.lo_kind), (r * v2.hi, v2.hi_kind)), key=lambda e: e[0]
            )
            lo, lo_kind = max((v1.lo, v1.lo_kind), (lo2, lo2_kind), key=lambda e: e[0])
            hi, hi_kind = min((v1.hi, v1.hi_kind), (hi2, hi2_kind), key=lambda e: e[0])
            common = Validity(lo, hi, lo_kind, hi_kind)
        glo, ghi = common.interior()
        step = (ghi - glo) / (grid_points - 1)
        grid = [glo + i * step for i in range(grid_points)]
        if own:
            y1, y2 = solve(p1, grid), solve(p2, [r * t for t in grid])
        else:
            if mirrored is None:
                mirrored = solve(p1, grid)
            y1, y2 = mirrored, [s * v for v in mirrored]  # y2(r t) = s * y1(t)
        residuals = tuple(abs(v2_ - s * v1_) for v1_, v2_ in zip(y1, y2))
        max_residual = max(residuals)
        y_scale = max(abs(v) for v in y1)
        # a residual is finite only where y1 and y2 are
        finite = all(map(math.isfinite, residuals))
        reports.append(
            VerificationReport(
                case_id=case.id,
                relation=case.relation,
                grid=tuple(grid),
                residuals=residuals,
                max_residual=max_residual,
                y_scale=y_scale,
                common_validity=common,
                tol=tol,
                passed=finite and max_residual <= tol * (1.0 + y_scale),
            )
        )
    return reports
