"""The eleven symmetry cases: applicability, partner construction, checking.

Each catalog row pairs hypotheses (an exponent-class predicate plus optional
parities of a and b) with a sign transformation of (a, b, d) and the
reflection relation it predicts between the two solutions:

    origin:  y2(-t) = -y1(t)
    t-axis:  y2(t)  = -y1(t)
    y-axis:  y2(-t) =  y1(t)

Coefficient negation is structural (the tree is wrapped in a unary minus)
and the transformed coefficients are re-classified by detect_parity, never
assumed.

The y-axis rows hold for any rational exponent; for negative initial values
they additionally require the exponent's reduced denominator to be odd
(classes even/odd, odd/odd, or the unit exponent).  Since problems with an
even-denominator exponent already require d > 0, that caveat can only
trigger on hand-built specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .closedform import ProblemSpec, Validity, solution_values, validity_intervals
from .errors import CaseNotApplicable, EmptyDomain
from .expr import Parity, detect_parity, negated
from .exponent import ExponentClass
from .oracle import DEFAULT_ORACLE_CONFIG, OracleConfig, solve_on_grid
from .quad import DEFAULT_QUAD_CONFIG, QuadConfig, _search_paths

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
    ORIGIN = "origin"
    T_AXIS = "t-axis"
    Y_AXIS = "y-axis"


@dataclass(frozen=True)
class SymmetryCase:
    id: str
    classes: Optional[frozenset[ExponentClass]]  # None = any rational exponent
    parity: Optional[tuple[Parity, Parity]]  # required (a, b) parities
    flip_a: bool
    flip_b: bool
    flip_d: bool
    relation: Relation

    @property
    def transform_signs(self) -> str:
        return ",".join("-" if f else "+" for f in (self.flip_a, self.flip_b, self.flip_d))

    def __str__(self) -> str:
        return f"{self.id}({self.transform_signs} -> {self.relation.value})"


_EVEN_ODD = frozenset({ExponentClass.EVEN_OVER_ODD})
_ODD_ODD = frozenset({ExponentClass.ODD_OVER_ODD})
_E, _O = Parity.EVEN, Parity.ODD

CATALOG: tuple[SymmetryCase, ...] = (
    SymmetryCase("T2i", _EVEN_ODD, (_E, _O), True, True, True, Relation.ORIGIN),
    SymmetryCase("T2ii", _EVEN_ODD, (_O, _E), False, False, True, Relation.ORIGIN),
    SymmetryCase("T2iii", _EVEN_ODD, (_E, _E), True, False, True, Relation.ORIGIN),
    SymmetryCase("T2iv", _EVEN_ODD, None, False, True, True, Relation.T_AXIS),
    SymmetryCase("T3i", None, (_E, _O), True, False, False, Relation.Y_AXIS),
    SymmetryCase("T3ii", None, (_O, _E), False, True, False, Relation.Y_AXIS),
    SymmetryCase("T3iii", None, (_E, _E), True, True, False, Relation.Y_AXIS),
    SymmetryCase("T4i", _ODD_ODD, (_O, _E), False, True, True, Relation.ORIGIN),
    SymmetryCase("T4ii", _ODD_ODD, None, False, False, True, Relation.T_AXIS),
    SymmetryCase("T4iii", _ODD_ODD, (_E, _O), True, False, True, Relation.ORIGIN),
    SymmetryCase("T4iv", _ODD_ODD, (_E, _E), True, True, True, Relation.ORIGIN),
)

CASE_BY_ID = {c.id: c for c in CATALOG}

# classes whose solutions admit negative initial values
_NEGATIVE_D_OK = frozenset(
    {ExponentClass.EVEN_OVER_ODD, ExponentClass.ODD_OVER_ODD, ExponentClass.ONE}
)


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
    if case.classes is not None and p.n.cls not in case.classes:
        (cls,) = case.classes  # each catalog row names one class, e.g. even/odd
        num, den = cls.value.split("/")
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
    if (
        case.relation is Relation.Y_AXIS
        and p.d < 0.0
        and p.n.cls not in _NEGATIVE_D_OK
    ):
        return (
            f"{case.id} with a negative initial value requires an exponent "
            f"with odd reduced denominator; n = {p.n} is {p.n.cls.value}"
        )
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
    return ProblemSpec(
        a=negated(p.a) if case.flip_a else p.a,
        b=negated(p.b) if case.flip_b else p.b,
        n=p.n,
        d=-p.d if case.flip_d else p.d,
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


def _evaluate(p, ts, method, quad_cfg, oracle_cfg):
    if method == "closed":
        return solution_values(p, ts, quad_cfg)
    if method == "oracle":
        return solve_on_grid(p, ts, oracle_cfg)
    raise ValueError(f"unknown method {method!r} (expected 'closed' or 'oracle')")


def verify_pair(
    p1: ProblemSpec,
    case: Union[SymmetryCase, str],
    grid_points: int = 51,
    tol: float = 1e-6,
    method: str = "oracle",
    *,
    search_radius: float = DEFAULT_SEARCH_RADIUS,
    force: bool = False,
    quad_cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    oracle_cfg: OracleConfig = DEFAULT_ORACLE_CONFIG,
) -> VerificationReport:
    """Check the case's predicted relation between p1 and its partner.

    The two validity intervals are intersected (the partner's is reflected
    through t -> -t for origin and y-axis relations), both solutions are
    evaluated on a uniform grid over the interior (1% end margins), and the
    relation residual is reported.  Pass iff
    max residual <= tol * (1 + max |y1|).
    """
    return verify_cases(
        p1,
        [case],
        grid_points,
        tol,
        method,
        search_radius=search_radius,
        force=force,
        quad_cfg=quad_cfg,
        oracle_cfg=oracle_cfg,
    )[0]


def verify_cases(
    p1: ProblemSpec,
    cases: Sequence[Union[SymmetryCase, str]],
    grid_points: int = 51,
    tol: float = 1e-6,
    method: str = "oracle",
    *,
    search_radius: float = DEFAULT_SEARCH_RADIUS,
    force: bool = False,
    quad_cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
    oracle_cfg: OracleConfig = DEFAULT_ORACLE_CONFIG,
) -> list[VerificationReport]:
    """verify_pair for each case in order, integrating each distinct path once.

    Every partner is built first, so an inapplicable case raises
    CaseNotApplicable before any integration.  Then every case's common
    interval and grid come from one `validity_intervals` call, which
    integrates one (A, B) path per side for each distinct (a, b, n-1), and
    an EmptyDomain is raised for the first case without one.  The oracle
    method forgets that search's paths at once, since only the closed form
    reads them.  p1 is evaluated once on all case grids joined together
    (one solve per side of 0), and each partner on its own grid.  Where the
    cases' common intervals coincide, as the theorem makes them for
    applicable cases, the reports equal those of one verify_pair per case
    bit for bit.
    """
    cases = [resolve_case(case) for case in cases]
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    partners = [transform_problem(p1, case, force=force) for case in cases]
    if not cases:
        return []
    v1, *v2s = validity_intervals([p1, *partners], search_radius, quad_cfg)
    if method == "oracle":
        _search_paths()  # the oracle integrates y itself: no grid reads them
    commons, grids = [], []
    for case, v2 in zip(cases, v2s):
        if case.relation is Relation.T_AXIS:
            lo2, lo2_kind, hi2, hi2_kind = v2.lo, v2.lo_kind, v2.hi, v2.hi_kind
        else:  # y2 is sampled at -t: reflect its interval before intersecting
            lo2, lo2_kind, hi2, hi2_kind = -v2.hi, v2.hi_kind, -v2.lo, v2.lo_kind
        lo, lo_kind = max((v1.lo, v1.lo_kind), (lo2, lo2_kind), key=lambda e: e[0])
        hi, hi_kind = min((v1.hi, v1.hi_kind), (hi2, hi2_kind), key=lambda e: e[0])
        if not lo < hi:
            raise EmptyDomain(
                f"no common interval: [{v1.lo}, {v1.hi}] against [{lo2}, {hi2}]"
            )
        common = Validity(lo, hi, lo_kind, hi_kind)
        glo, ghi = common.interior()
        step = (ghi - glo) / (grid_points - 1)
        commons.append(common)
        grids.append([glo + i * step for i in range(grid_points)])

    y1_joined = _evaluate(p1, [t for grid in grids for t in grid], method, quad_cfg, oracle_cfg)
    reports = []
    for i, (case, p2, common, grid) in enumerate(zip(cases, partners, commons, grids)):
        y1 = y1_joined[i * grid_points:(i + 1) * grid_points]
        q2 = grid if case.relation is Relation.T_AXIS else [-t for t in grid]
        y2 = _evaluate(p2, q2, method, quad_cfg, oracle_cfg)

        if case.relation is Relation.Y_AXIS:
            residuals = tuple(abs(v2_ - v1_) for v1_, v2_ in zip(y1, y2))
        else:
            residuals = tuple(abs(v2_ + v1_) for v1_, v2_ in zip(y1, y2))
        max_residual = max(residuals)
        y_scale = max(abs(v) for v in y1)
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
                passed=max_residual <= tol * (1.0 + y_scale),
            )
        )
    return reports
