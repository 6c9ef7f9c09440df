import math
import random

import pytest

from bsym import (
    CATALOG,
    BoundaryKind,
    BsymError,
    DomainError,
    EvalError,
    OutsideValidity,
    eval_solution,
    problem,
    signed_pow,
    solution_values,
    solve_on_grid,
    validity_interval,
)
from bsym import applicable_cases, closedform, transform_problem
from bsym.closedform import ProblemSpec
from bsym import stepper
from bsym.quad import QUAD_CONTROL, ab_values
from bsym.exponent import ExponentClass, classify_exponent, parse_exponent
from bsym.expr import Parity, negated, parse_expr, structural_parity
from bsym.stepper import DensePath, PathView, StepUnderflow, grid_values

from helpers import (
    conforming_problem,
    count_calls,
    own_path,
    random_problem,
    simpson,
    split_sign,
)

# int_0^0.3 s*e^s ds via the Simpson oracle, then G = 1/d - B with d = -1
# (analytic cross-check: B = 1 - 0.7*e^0.3)
G_FIXTURE = -1.0550988346967978

# closed form for (a=cos, b=sin, n=2, d=1) at t=0.7: e^{sin 0.7} / (1 - B),
# B = int_0^0.7 sin(s) e^{sin(s)} ds by the Simpson oracle; mpmath quadrature
# and an independent high-precision ODE solve both give 3.0200706670159803
Y_FIXTURE = 3.0200706670159803


# --- the radicand G = d^(1-n) - (n-1)*B --------------------------------------

def _radicand(p: ProblemSpec, t: float) -> float:
    """G(t) from `ab_values`' B, for n != 1."""
    m = (p.n.p - p.n.q) / p.n.q
    g0 = signed_pow(p.d, classify_exponent(p.n.q - p.n.p, p.n.q))
    return g0 - m * ab_values(p.a, p.b, m, [t])[0][1]


def test_radicand_at_zero_is_reciprocal_power():
    p = problem("0", "1", 2, 1.0)
    assert _radicand(p, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert solution_values(p, [0.0]) == [1.0]  # y(0) = G(0)^-1 = d


def test_radicand_linear_decay():
    p = problem("0", "1", 2, 1.0)
    assert _radicand(p, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert solution_values(p, [0.5]) == [pytest.approx(1.0 / 0.5, rel=1e-10)]


def test_radicand_simpson_fixture():
    p = problem("1", "t", 2, -1.0)
    g = _radicand(p, 0.3)
    assert g == pytest.approx(G_FIXTURE, abs=1e-9)
    analytic = -1.0 - (1.0 - 0.7 * math.exp(0.3))
    assert g == pytest.approx(analytic, abs=1e-9)
    # y = e^A / G with A = t
    assert solution_values(p, [0.3]) == [pytest.approx(math.exp(0.3) / G_FIXTURE, rel=1e-9)]


# --- eval_solution --------------------------------------------------------------

def test_solution_riccati_family():
    assert eval_solution(problem("0", "1", 2, 1.0), 0.5) == pytest.approx(2.0, rel=1e-10)


def test_solution_reduces_to_linear():
    assert eval_solution(problem("1", "0", 2, 1.0), 1.0) == pytest.approx(
        math.e, rel=1e-9
    )


def test_solution_unit_exponent_formula():
    y = eval_solution(problem("1", "1", 1, 2.0), 0.3)
    assert y == pytest.approx(2.0 * math.exp(0.6), abs=1e-10)
    p = problem("cos(t)", "1", 1, 0.7)
    for t in (1.3, -1.3):
        y = eval_solution(p, t)
        assert abs(y - 0.7 * math.exp(math.sin(t) + t)) <= 1e-9


def test_unit_exponent_overflow_is_eval_error():
    with pytest.raises(EvalError):
        solution_values(problem("100", "0", 1, 1.0), [1.0, 8.0])


def test_both_routes_evaluate_the_coefficients_at_zero():
    # a = 1/t is undefined at t = 0, so a grid holding t = 0 fails on the
    # closed-form and the oracle route alike
    p = problem("1/t", "1", 2, 1.0)
    with pytest.raises(EvalError):
        eval_solution(p, 0.0)
    with pytest.raises(EvalError):
        solve_on_grid(p, [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 1])
def test_non_finite_times_are_rejected(bad, n):
    p = problem("cos(t)", "sin(t)", n, 0.5)
    with pytest.raises(ValueError):
        solution_values(p, [0.5, bad, -0.5])
    with pytest.raises(ValueError):
        solve_on_grid(p, [0.5, bad, -0.5])


def test_solution_oracle_fixture():
    y = eval_solution(problem("cos(t)", "sin(t)", 2, 1.0), 0.7)
    assert y == pytest.approx(Y_FIXTURE, abs=1e-8)


def test_solution_outside_validity_asymptote():
    with pytest.raises(OutsideValidity):
        eval_solution(problem("0", "1", 2, 1.0), 1.0)
    # the end the search reports is refused too, where G read there keeps
    # G(0)'s sign: y' = e^t y^2, y(0) = 1/2 has G = 3 - e^t, and its end
    # lies 2.3e-13 past ln 3 (y' = y^2's G is exactly 0 at its end t = 1)
    p = problem("0", "exp(t)", 2, 0.5)
    v = validity_interval(p, 4.0)
    assert v.hi == pytest.approx(math.log(3.0), abs=1e-12)
    with pytest.raises(OutsideValidity):
        eval_solution(p, v.hi)


def test_solution_outside_validity_even_root():
    # n=3: G = 1 - 2t < 0 past 0.5 and the root denominator is even
    with pytest.raises(OutsideValidity):
        eval_solution(problem("0", "1", 3, 1.0), 0.8)


def test_problem_invariants():
    with pytest.raises(DomainError):
        problem("0", "1", 2, 0.0)
    with pytest.raises(DomainError):
        problem("0", "1", "1/2", -1.0)
    with pytest.raises(DomainError):
        problem("0", "1", 2, math.inf)
    # an int past the largest float, which float() cannot convert
    with pytest.raises(DomainError, match="^initial value d must be finite and nonzero$"):
        problem("0", "1", 2, 10**400)


@pytest.mark.parametrize("n,d", [(True, 1.0), (2, True), (True, True), (2, False)])
def test_problem_rejects_a_boolean_exponent_or_initial_value(n, d):
    # True would otherwise read as n = 1 or d = 1.0, and (True, True) as a
    # unit-exponent problem to which T3iii applies
    with pytest.raises(TypeError):
        problem("0", "1", n, d)


@pytest.mark.parametrize("d", [True, False])
def test_problem_spec_rejects_a_boolean_initial_value(d):
    # ProblemSpec itself, not only problem(): True kept as d made T2iii,
    # T2iv and T3iii applicable and eval_solution(p, 0.5) 1.9999999999999996
    with pytest.raises(TypeError, match="not a boolean"):
        ProblemSpec(parse_expr("0"), parse_expr("1"), parse_exponent(2), d)


def test_problem_spec_stores_an_int_initial_value_as_a_float():
    p = ProblemSpec(parse_expr("0"), parse_expr("1"), parse_exponent(2), 3)
    assert type(p.d) is float and p.d == 3.0
    partner = transform_problem(p, "T2iv")
    assert type(partner.d) is float and partner.d == -3.0
    assert p == ProblemSpec(parse_expr("0"), parse_expr("1"), parse_exponent(2), 3.0)


def test_initial_condition_on_random_problems():
    rng = random.Random(321)
    for _ in range(60):
        p = random_problem(rng)
        y0 = eval_solution(p, 0.0)
        assert abs(y0 - p.d) <= 1e-12 * (1.0 + abs(p.d))


def test_sign_law_odd_over_odd():
    rng = random.Random(99)
    count = 0
    while count < 20:
        p = random_problem(rng)
        if p.n.cls is not ExponentClass.ODD_OVER_ODD:
            continue
        count += 1
        v = validity_interval(p, 4.0)
        m = 0.02 * (v.hi - v.lo)
        lo, hi = v.lo + m, v.hi - m
        ts = [lo + i * (hi - lo) / 12 for i in range(13)]
        for y in solution_values(p, ts):
            assert math.copysign(1.0, y) == math.copysign(1.0, p.d)


def test_ode_residual_by_centered_differences():
    # (y(t+h) - y(t-h)) / 2h must match a*y + b*y^n; each endpoint value is
    # integrated exactly to its own t (no interpolation)
    rng = random.Random(2718)
    h = 1e-5
    specs = 0
    while specs < 100:
        p = random_problem(rng)
        specs += 1
        v = validity_interval(p, 4.0)
        m = 0.1 * (v.hi - v.lo)
        lo, hi = v.lo + m, v.hi - m
        points = [lo + (i + 0.5) * (hi - lo) / 20 for i in range(20)]
        for t in points:
            if abs(t) < 2 * h:
                continue
            ym = eval_solution(p, t - h)
            yc = eval_solution(p, t)
            yp = eval_solution(p, t + h)
            if abs(yc) > 50.0:
                continue
            fd = (yp - ym) / (2 * h)
            if p.n.cls is ExponentClass.ONE:
                rhs = (p.a(t) + p.b(t)) * yc
            else:
                rhs = p.a(t) * yc + p.b(t) * signed_pow(yc, p.n)
            assert abs(fd - rhs) <= 1e-4 + 1e-4 * abs(rhs), (
                p.a.source,
                p.b.source,
                str(p.n),
                p.d,
                t,
            )


def test_closed_form_matches_oracle_inside_validity():
    rng = random.Random(777)
    for _ in range(25):
        p = random_problem(rng)
        v = validity_interval(p, 4.0)
        lo, hi = v.interior()  # 1% margins
        ts = [lo + i * (hi - lo) / 14 for i in range(15)]
        closed = solution_values(p, ts)
        oracle = solve_on_grid(p, ts)
        for yc, yo in zip(closed, oracle):
            assert abs(yc - yo) <= 1e-6 * (1.0 + abs(yc))


# --- validity_interval ------------------------------------------------------------

def test_validity_riccati_asymptote():
    v = validity_interval(problem("0", "1", 2, 1.0), 5.0)
    assert v.hi == pytest.approx(1.0, abs=1e-8)
    assert v.hi_kind is BoundaryKind.ASYMPTOTE
    assert v.lo == -5.0
    assert v.lo_kind is BoundaryKind.SEARCH_LIMIT


def test_validity_no_zero():
    v = validity_interval(problem("0", "0", 2, 3.0), 5.0)
    assert (v.lo, v.hi) == (-5.0, 5.0)
    assert v.lo_kind is v.hi_kind is BoundaryKind.SEARCH_LIMIT


def test_validity_cubic():
    v = validity_interval(problem("0", "1", 3, 1.0), 5.0)
    assert v.hi == pytest.approx(0.5, abs=1e-8)
    assert v.hi_kind is BoundaryKind.ASYMPTOTE


def test_validity_root_boundary_for_even_denominator():
    # y' = -sqrt(y), y(0) = 1: G = 1 - t/2 vanishes at 2 with root exponent +2
    v = validity_interval(problem("0", "-(1)", "1/2", 1.0), 5.0)
    assert v.hi == pytest.approx(2.0, abs=1e-8)
    assert v.hi_kind is BoundaryKind.ROOT_BOUNDARY


def test_validity_unit_exponent_unbounded():
    v = validity_interval(problem("cos(t)", "sin(t)", 1, 2.0), 3.0)
    assert (v.lo, v.hi) == (-3.0, 3.0)
    assert v.lo_kind is v.hi_kind is BoundaryKind.UNBOUNDED


def test_validity_requires_positive_radius():
    with pytest.raises(DomainError):
        validity_interval(problem("0", "1", 2, 1.0), 0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
@pytest.mark.parametrize("n", [2, 1])
def test_validity_requires_finite_radius(radius, n):
    with pytest.raises(DomainError):
        validity_interval(problem("0", "1", n, 1.0), radius)


def test_solution_continues_through_g_zero_for_odd_root():
    # n = 2/3: y = e^A G^3 passes smoothly through G = 0; the conservative
    # validity interval still stops there, but evaluation is legal
    p = problem("0", "-(1)", "2/3", 1.0)
    v = validity_interval(p, 10.0)
    assert v.hi == pytest.approx(3.0, abs=1e-8)
    assert v.hi_kind is BoundaryKind.ROOT_BOUNDARY
    y = eval_solution(p, 4.0)  # G = 1 - t/3 = -1/3, odd cube
    assert y == pytest.approx((1.0 - 4.0 / 3.0) ** 3, rel=1e-9)


@pytest.mark.parametrize("n", ["2", "4/3"])
@pytest.mark.parametrize("d", [1.0, -1.0])
@pytest.mark.parametrize("b", ["1", "-1"])
def test_the_closed_form_stops_past_a_pole(n, d, b):
    # y' = b*y^n: G = g0 - (n-1)*b*t vanishes at a pole of y = G^(-1/(n-1))
    # on the side of 0 that the sign of b*d picks.  Past it the odd root
    # (-1, -3) reads G of the other sign on the formula's other branch,
    # which solves no IVP; the far side has no pole
    p = problem("0", b, n, d)
    v = validity_interval(p, 8.0)
    pole = v.hi if float(b) * d > 0.0 else v.lo
    assert abs(pole) == pytest.approx(1.0 if n == "2" else 3.0, rel=1e-12)
    assert BoundaryKind.ASYMPTOTE in (v.lo_kind, v.hi_kind)
    y = solution_values(p, [0.5 * pole, -2.0 * pole])
    assert all(math.isfinite(x) and math.copysign(1.0, x) == d for x in y)
    for t in (1.5 * pole, 4.0 * pole):
        with pytest.raises(OutsideValidity, match=r"^asymptote: G=-?\d.* at t=.* is at or past G's first zero \(G\(0\)="):
            eval_solution(p, t)


@pytest.mark.parametrize("b, pole", [("1", 1.0), ("-1", -1.0)])
def test_the_closed_form_answers_next_to_its_pole(b, pole):
    # y' = b*y^2, y(0) = 1: y = 1/(1 - b*t) and B = b*t, at every node
    # exactly.  The validity search puts the pole at t = +-1; 1e-13 short
    # of it, G is about 1e-13 and keeps G(0)'s sign, so the point is
    # answered (the zero band it once fell in was 2e-13 wide), from B read
    # between nodes to one ulp of t, which moves y by 1.1e-3 of itself
    # there; past the pole no point is
    p = problem("0", b, 2, 1.0)
    v = validity_interval(p, 1.05)
    end = (v.hi, v.hi_kind) if pole > 0 else (v.lo, v.lo_kind)
    assert end == (pole, BoundaryKind.ASYMPTOTE)
    t = 0.9999999999999 * pole
    assert v.contains(t)
    one, y = solution_values(p, [0.0, t])
    assert one == 1.0 and y == eval_solution(p, t) > 0.0
    assert abs(1.0 / y - (1.0 - float(b) * t)) <= math.ulp(1.0)
    assert all(bb == float(b) * tt for tt, (_, bb) in zip(p._searched[pole].ts, p._searched[pole].ys))
    # at the pole, the end the search found, and past it no point is
    for x in (pole, 1.5 * pole, 4.0 * pole):
        with pytest.raises(OutsideValidity, match=r"^asymptote: G=-?\d.* is at or past G's first zero \(G\(0\)=1\.0\)$"):
            eval_solution(p, x)


_SPAN = [-2.5, -2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
# each grid reaches +-2.5, past G's first zero on both sides of 0, and
# holds duplicates and both zeros
_GRIDS = {"ascending": sorted(_SPAN + [-2.0, 1.5, 0.0])}
_GRIDS["descending"] = _GRIDS["ascending"][::-1]
for _seed in range(4):
    _GRIDS[f"shuffled-{_seed}"] = random.Random(_seed).sample(_GRIDS["ascending"], len(_GRIDS["ascending"]))


@pytest.mark.parametrize("grid", _GRIDS.values(), ids=list(_GRIDS))
@pytest.mark.parametrize(
    "a, b, n",
    [("0.2", "t + 0.3*t^2", 2), ("0", "t", 2), ("0.1*cos(t)", "-(t)", "1/3")],
    ids=["poles", "mirrored-poles", "root-boundaries"],
)
def test_a_grid_past_both_zeros_raises_the_first_failing_points_error(a, b, n, grid):
    # G = g0 - m*B reaches 0 on both sides of 0 inside +-2.5.  The error is
    # that of the first point in input order that the closed form refuses,
    # whatever order the points are read in: one point at a time, each
    # from the same paths as the grid (a search toward +-2.5 integrates
    # what a grid ending at +-2.5 does), the first refused one gives it
    searched = problem(a, b, n, 1.0)
    v = validity_interval(searched, 2.5)
    assert -2.5 < v.lo < -0.5 and 0.5 < v.hi < 2.5
    first = None
    for t in grid:
        try:
            solution_values(searched, [t])
        except BsymError as exc:
            first = type(exc), str(exc)
            break
    assert first is not None and first[0] is OutsideValidity
    for p in (problem(a, b, n, 1.0), searched):
        with pytest.raises(OutsideValidity) as info:
            solution_values(p, grid)
        assert (type(info.value), str(info.value)) == first


# G = cos^2 t, which touches zero at +-pi/2: y = 1/cos^2 t for n = 2, a
# grazing root boundary for n = 1/3, 1/(|cos t|) for n = 3
@pytest.mark.parametrize(
    "n, b, d, kind",
    [
        (2, "sin(2*t)", 1.0, BoundaryKind.ASYMPTOTE),
        ("1/3", "-1.5*sin(2*t)", 1.0, BoundaryKind.ROOT_BOUNDARY),
        (3, "0.5*sin(2*t)", 1.0, BoundaryKind.ASYMPTOTE),
        (3, "0.5*sin(2*t)", -1.0, BoundaryKind.ASYMPTOTE),
    ],
)
def test_validity_finds_tangent_zeros(n, b, d, kind):
    # the dense G touches zero within 2e-11 of pi/2 and misses it by about
    # 4e-13, inside the tangent allowance; each end is that touch's near
    # edge, 2.2e-6 inside the pole for every n, so no point past the pole
    # is answered (DP5's quartic read 8.4e-6 inside for n = 2, where its G
    # dipped below zero, and 2.3e-9 past the pole for n = 3)
    v = validity_interval(problem("0", b, n, d), 4.0)
    assert v.lo_kind is v.hi_kind is kind
    assert math.pi / 2 - 1e-5 <= v.hi < math.pi / 2
    assert -math.pi / 2 < v.lo <= -math.pi / 2 + 1e-5


def test_validity_pole_next_to_zero():
    # y' = y^2, y(0) = 1e13: G = 1e-13 - t, a pole at t = 1e-13
    v = validity_interval(problem("0", "1", 2, 1e13), 4.0)
    assert v.hi == pytest.approx(1e-13, rel=1e-12)
    assert v.hi_kind is BoundaryKind.ASYMPTOTE
    assert (v.lo, v.lo_kind) == (-4.0, BoundaryKind.SEARCH_LIMIT)


def test_validity_small_g0_without_zero():
    # G = 1e-13 + t^2/2 is smallest at t = 0 and never vanishes
    v = validity_interval(problem("0", "-t", 2, 1e13), 4.0)
    assert (v.lo, v.hi) == (-4.0, 4.0)
    assert v.lo_kind is v.hi_kind is BoundaryKind.SEARCH_LIMIT


@pytest.mark.parametrize(
    "b, y_before",
    [("1", 1.0 / (1e-13 + 1e-3)), ("-t", 1.0 / (1e-13 + 5e-7))],
    ids=["b=1", "b=-t"],
)
def test_solution_at_zero_with_tiny_g0(b, y_before):
    # G(0) = d^(1-n) = 1e-13 is small but not a zero of G: y(0) = d, and
    # y(-1e-3) = 1/G with G = 1e-13 + 1e-3 or 1e-13 + (1e-3)^2/2
    p = problem("0", b, 2, 1e13)
    assert solution_values(p, [0.0]) == [1e13]
    assert solution_values(p, [-1e-3]) == [pytest.approx(y_before, rel=1e-9)]


def test_tiny_initial_value_is_domain_error_before_any_integration(monkeypatch):
    # d^(1-n) = 1e400 overflows; b = 1/t would fail the integration at t = 0
    p = problem("0", "1/t", 3, 1e-200)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    with pytest.raises(DomainError, match="d=1e-200 is too small"):
        validity_interval(p, 4.0)
    with pytest.raises(DomainError, match="d=1e-200 is too small"):
        solution_values(p, [1.0])
    assert calls == []


def _search_each(problems, search_radius):
    """The validity interval of each problem, searched in order."""
    return [validity_interval(p, search_radius) for p in problems]


def test_validity_interval_integrates_each_problems_own_sides(monkeypatch):
    # (b, 1), (-b, 1) and (b, 2) as (B's coefficient, n-1): (-b, 1) is the
    # path of (b, 1) with B negated, yet no path is shared between
    # problems, so each searched problem integrates its two sides (b has no
    # parity, so no side is a mirror); the unit exponent integrates nothing
    b = "0.5 + t"
    ps = [problem("cos(t)", b, 2, d) for d in (1.0, -1.0, 0.5)]
    ps += [problem("cos(t)", f"-({b})", 2, 1.0), problem("cos(t)", b, 3, 2.0)]
    ps += [problem("cos(t)", b, 1, 1.0)]
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = _search_each(ps, 4.0)
    assert [call[3] for call in calls] == [4.0, -4.0] * 5
    monkeypatch.undo()
    assert got == [validity_interval(p, 4.0) for p in ps]
    assert len({v.hi for v in got[:3]}) == 3  # d moves the level


def test_each_problem_walks_its_levels_on_its_own_path(monkeypatch):
    # T2iv flips b and d, T2ii d alone: on n = 2 the level g0/(n-1) = 1/d
    # flips with d, and each problem integrates its own b, so both
    # partners walk the level -1 toward +4.  With a = sin odd and b = cos
    # even, each problem's path toward -4 is its path toward +4 read at -t
    # with B negated, so each problem integrates one path and walks both
    # its levels there; no problem walks on another's path
    walks = []
    walk = DensePath._walk

    def counted(path, k, level):
        walks.append((id(path), level))
        return walk(path, k, level)

    p1 = problem("sin(t)", "cos(t)", 2, 1.0)
    partners = [transform_problem(p1, case) for case in ("T2iv", "T2ii")]
    monkeypatch.setattr(DensePath, "_walk", counted)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = _search_each([p1, *partners], 4.0)
    assert [call[3] for call in calls] == [4.0] * 3
    assert [level for _, level in walks] == [1.0, -1.0, -1.0, 1.0, -1.0, 1.0]
    assert len({path for path, _ in walks}) == 3
    # the path caches each crossing: with b = t odd as well, the side
    # toward -4 reads the very level that the side toward +4 walked
    walks.clear()
    validity_interval(problem("sin(t)", "t", 2, 1.0), 4.0)
    assert [level for _, level in walks] == [1.0]
    monkeypatch.undo()
    assert got == [validity_interval(p, 4.0) for p in (p1, *partners)]


@pytest.mark.parametrize("n, d", [(3, 1e300), (1000, 2.1)])
def test_validity_g0_underflow_is_domain_error(n, d):
    # G = d^(1-n) - (n-1)*t: the pole at d^(1-n)/(n-1) is 0.0 in floats
    # (5e-601 and 1.3e-325), and no interval around 0 is left
    with pytest.raises(DomainError, match="underflows"):
        validity_interval(problem("0", "1", n, d), 4.0)


def test_solution_defined_across_validity_of_conforming_problems():
    # no OutsideValidity anywhere inside the interval's 1% margins
    rng = random.Random(4242)
    for i in range(110):
        p = conforming_problem(CATALOG[i % len(CATALOG)], rng)
        lo, hi = validity_interval(p, 4.0).interior()
        ts = [lo + k * (hi - lo) / 400 for k in range(401)]
        assert all(math.isfinite(y) for y in solution_values(p, ts))


# --- grids answered from the validity search's paths -----------------------

def _rel_diff(x: float, y: float) -> float:
    return abs(x - y) / (1.0 + abs(y))


def test_ab_values_reuses_a_searched_path_only_on_a_full_key_match(monkeypatch):
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 4.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    # p's own grid, inside its validity interval (-2.57, 1.03): both sides
    # come from p's searched paths
    solution_values(p, [-2.5, -0.5, 0.0, 0.5, 1.0])
    assert calls == []
    # another problem, even one equal to p, integrates a fresh path: a, b
    # and n-1 all match only on p's own paths
    for q in (
        problem("cos(t)", "cos(t)", 2, 1.0),
        problem("sin(t)", "sin(t)", 2, 1.0),
        problem("sin(t)", "cos(t)", 3, 0.5),
        problem("sin(t)", "cos(t)", 2, 1.0),
    ):
        calls.clear()
        solution_values(q, [0.5])
        assert [call[3] for call in calls] == [0.5], q


def test_ab_values_reuses_only_the_matching_side(monkeypatch):
    # b has a pole at t = -1: the search keeps its path to +4, then fails
    # toward -4, so only the right side of 0 has a searched path
    p = problem("0", "1/(1 + t)", 2, 0.05)
    with pytest.raises(StepUnderflow):
        validity_interval(p, 4.0)
    assert list(p._searched) == [1.0]
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    solution_values(p, [0.5])
    assert calls == []
    got = ab_values(p.a, p.b, 1.0, [-0.5], p._searched)
    assert got[0][1] == pytest.approx(-math.log(2.0), rel=1e-9)
    assert [call[3] for call in calls] == [-0.5]


def test_ab_values_past_the_searched_path_integrates_afresh(monkeypatch):
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 1.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    kept = dict(p._searched)
    got = ab_values(p.a, p.b, 1.0, [-1.0, 0.5, 2.0], p._searched)
    assert [call[3] for call in calls] == [2.0]  # the left side reuses its path
    # the table is only read: the problem keeps its search's paths
    assert p._searched == kept and all(p._searched[k] is kept[k] for k in kept)
    # G = 1 - B has its first zero at 1.033, past the searched radius, and
    # has G(0)'s sign again at 2.5: the evaluator stops at the zero on the
    # fresh path that answers the side, not only on a searched one
    with pytest.raises(OutsideValidity, match=r"^asymptote: G=1\.6\d* at t=2\.5 is at or past G's first zero"):
        solution_values(p, [-1.0, 0.5, 2.5])
    assert [call[3] for call in calls] == [2.0, 2.5]
    monkeypatch.undo()
    fresh = ab_values(p.a, p.b, 1.0, [-1.0, 0.5, 2.0])
    assert got[1:] == fresh[1:]  # the same fresh path to 2.0
    assert all(_rel_diff(x, y) <= 1e-8 for g, f in zip(got, fresh) for x, y in zip(g, f))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("searched", [False, True], ids=["unsearched", "searched"])
def test_solution_values_leaves_its_problem_as_it_found_it(n, searched):
    # the paths an earlier call integrated stay with that call: the problem
    # keeps only its own search's paths, so a later answer is bit for bit
    # that of a problem with the same search and no earlier call
    p, q = problem("cos(t)", "sin(t)", n, 0.2), problem("cos(t)", "sin(t)", n, 0.2)
    if searched:
        _search_each([p, q], 1.0)
    kept = dict(p._searched)
    solution_values(p, [2.0, -2.0])
    answer = eval_solution(p, 0.3)
    assert p._searched.keys() == kept.keys() and all(p._searched[k] is kept[k] for k in kept)
    assert repr(answer) == repr(eval_solution(q, 0.3))


def test_validity_after_a_wider_search_equals_a_fresh_search():
    # G = 5 - t: a zero past radius 4 but inside radius 8
    p = problem("0", "1", 2, 0.2)
    fresh = validity_interval(p, 4.0)
    assert validity_interval(p, 8.0).hi == pytest.approx(5.0, rel=1e-12)
    assert repr(validity_interval(p, 4.0)) == repr(fresh)
    assert fresh.hi == 4.0 and fresh.hi_kind is BoundaryKind.SEARCH_LIMIT


def test_only_the_latest_search_paths_are_kept():
    # each problem keeps its own latest search's paths, one per side of 0
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 8.0)
    validity_interval(p, 1.0)  # replaces the radius-8 paths
    kept = dict(p._searched)
    assert {key: path.t_reached for key, path in kept.items()} == {
        1.0: 1.0, -1.0: -1.0
    }
    # another problem's search leaves p's alone
    q, r = problem("sin(t)", "cos(t)", 2, -1.0), problem("cos(t)", "1", 3, 1.0)
    _search_each([q, r], 1.0)
    assert p._searched == kept and all(p._searched[k] is kept[k] for k in kept)
    assert all(q._searched[k] is not kept[k] for k in kept)
    v, w = problem("sin(t)", "cos(t)", 2, 0.5), problem("sin(t)", "cos(t)", 2, 2.0)
    _search_each([v, w], 4.0)  # same a, b, n-1: each integrates its own path

    def source(path):
        return path.source if isinstance(path, PathView) else path

    # a = sin odd makes each problem's side toward -4 its own path toward
    # +4 read at -t; the two problems' paths are equal bit for bit, not one
    for x in (v, w):
        assert isinstance(x._searched[-1.0], PathView)
        assert source(x._searched[-1.0]) is x._searched[1.0]
    assert all(source(v._searched[k]) is not source(w._searched[k]) for k in kept)
    assert v._searched[1.0].ys == w._searched[1.0].ys
    # a grid's fresh paths, here past the searched radius and inside p's
    # validity interval (-2.57, 1.03), are not kept
    solution_values(p, [-2.5, 1.02])
    assert p._searched == kept
    # the unit exponent searches nothing and keeps nothing
    u = problem("sin(t)", "cos(t)", 1, 1.0)
    validity_interval(u, 4.0)
    assert u._searched == {}


def test_a_verification_leaves_p1_its_paths(monkeypatch):
    # verify_cases' validity search keeps its (A, B) paths on p1 by either
    # method (the oracle integrates y itself and reads none of them); the
    # closed form answers p1's later grids from them
    from bsym import verify_cases

    for method in ("oracle", "closed"):
        p = problem("sin(t)", "cos(t)", 2, 1.0)
        verify_cases(p, ["T2ii", "T2iv"], method=method)
        assert len(p._searched) == 2
        calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
        solution_values(p, [-1.0, 0.5])
        assert calls == []
        monkeypatch.undo()


def test_a_solve_after_another_problems_search_reuses_its_own_paths(monkeypatch):
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 4.0)
    validity_interval(problem("cos(t)", "1", 3, 1.0), 4.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    solution_values(p, [-1.0, 0.5, 1.0])
    # t = 2 is past p's pole at 1.03 and refused, from the same paths
    with pytest.raises(OutsideValidity, match=r"^asymptote: G=0\.05\d* at t=2\.0 is at or past G's first zero"):
        solution_values(p, [-1.0, 0.5, 2.0])
    assert calls == []


def test_ab_values_after_a_search_agree_with_a_fresh_path(monkeypatch):
    rng = random.Random(808)
    reused = 0
    for _ in range(40):
        p = random_problem(rng)
        lo, hi = validity_interval(p, 4.0).interior()
        ts = [lo + k * (hi - lo) / 400 for k in range(401)] + [0.0]
        m = (p.n.p - p.n.q) / p.n.q
        calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
        got = ab_values(p.a, p.b, m, ts, p._searched)
        monkeypatch.undo()
        reused += not calls
        fresh = ab_values(p.a, p.b, m, ts)
        worst = max(_rel_diff(x, y) for g, f in zip(got, fresh) for x, y in zip(g, f))
        assert worst <= 1e-8, (p.a.source, p.b.source, str(p.n), p.d)
    assert reused >= 30  # the unit exponent searches nothing


@pytest.mark.parametrize(
    "n, ts, ends", [(1, [-2.0, 0.5, 2.0], [2.0]), (2, [-0.5, 0.5], [0.5, -0.5])], ids=["n=1", "n=2"]
)
def test_a_side_is_the_other_sides_mirror_only_where_it_keeps_the_multiplier(monkeypatch, n, ts, ends):
    # a = cos even, b = sin odd: the t-mirror answers B_m at -t from B_{-m}
    # at t, the same path only for m = n - 1 = 0, where the one path
    # toward 2 answers both sides; for n = 2 each side integrates its own.
    # Either way the values are those of fresh paths per side, bit for bit
    p = problem("cos(t)", "sin(t)", n, 0.5)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = outcome(lambda: solution_values(p, ts))
    assert [call[3] for call in calls] == ends
    monkeypatch.undo()
    m = (p.n.p - p.n.q) / p.n.q
    pairs = grid_values(lambda x: own_path(p.a, p.b, m, x), ts)
    assert got == outcome(lambda: reference_solution_values(p, pairs, ts))


def test_a_view_side_reads_and_refuses_at_the_grids_own_time(monkeypatch):
    # a = sin odd keeps the multiplier, so the side toward -t is a view of
    # the path toward t; G = 1 - B with B even vanishes at -+1.19.  Its
    # values and its refusal at t = -2 read the grid's own negative t, and
    # equal those of fresh paths toward the same end per side bit for bit
    p = problem("sin(t)", "t", 2, 1.0)
    searched = validity_interval(p, 4.0)
    assert isinstance(p._searched[-1.0], PathView) and -2.0 < searched.lo < -1.0
    fresh = lambda x: own_path(p.a, p.b, 1.0, math.copysign(4.0, x))  # noqa: E731
    for ts in ([-1.0, 0.5, -0.5, 1.0], [0.5, -2.0, -1.0]):
        got = outcome(lambda: solution_values(p, ts))
        assert got == outcome(lambda: reference_solution_values(p, grid_values(fresh, ts), ts))
    assert got[0] is OutsideValidity
    assert got[1].startswith("asymptote: G=-") and " at t=-2.0 is at or past G's first zero" in got[1]
    # unsearched, the side toward -1 is the view of the path toward 1
    p = problem("sin(t)", "t", 2, 1.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    ts = [-1.0, -0.5, 0.5, 1.0]
    got = outcome(lambda: solution_values(p, ts))
    assert [call[3] for call in calls] == [1.0]
    fresh = lambda x: own_path(p.a, p.b, 1.0, math.copysign(1.0, x))  # noqa: E731
    assert got == outcome(lambda: reference_solution_values(p, grid_values(fresh, ts), ts))


# --- the per-point loop against the one it replaced --------------------------

def reference_solution_values(p, pairs, ts):
    """`solution_values` before the class decisions left its loop, given
    the (A, B) pairs alone, so with no path whose first zero of G to stop
    at: signed_pow at every point, and OutsideValidity where G = 0 ends the
    closed form (a pole, or an even root) and G lacks the sign of g0, G = 0
    included, and EvalError for a value that overflows or is not finite."""
    m = (p.n.p - p.n.q) / p.n.q
    out = []

    def finite(y, t):
        if not math.isfinite(y):
            raise EvalError(f"solution overflow at t={t!r}")
        return y

    if p.n.cls is ExponentClass.ONE:
        for (aval, bval), t in zip(pairs, ts):
            try:
                out.append(finite(p.d * math.exp(aval + bval), t))
            except OverflowError:
                raise EvalError(f"solution overflow at t={t!r}") from None
        return out
    g0 = signed_pow(p.d, classify_exponent(p.n.q - p.n.p, p.n.q))
    root = classify_exponent(-p.n.q, p.n.p - p.n.q)
    ends = root.p < 0 or root.q % 2 == 0
    kind = "asymptote" if root.p < 0 else "root boundary"
    sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0
    for (aval, bval), t in zip(pairs, ts):
        g = g0 - m * bval
        if ends and not g * math.copysign(1.0, g0) > 0.0:
            raise OutsideValidity(f"{kind}: G={g!r} at t={t!r} is at or past G's first zero (G(0)={g0!r})")
        try:
            out.append(finite(sigma * math.exp(aval) * signed_pow(g, root), t))
        except OverflowError:
            raise EvalError(f"solution overflow at t={t!r}") from None
    return out


def outcome(fn):
    try:
        return [repr(y) for y in fn()]
    except BsymError as exc:
        return type(exc), str(exc)


# a path that reports no zero of G, so the evaluator stops only where G
# lacks G(0)'s sign
_NoZero = type(
    "NoZero", (stepper._path_class(2, QUAD_CONTROL.tableau),), {"first_crossing": lambda self, k, level: None}
)


def answering(monkeypatch, pairs, ts):
    """Make `solution_values` read (A, B) = pairs[k] at ts[k]: each side of
    0 is answered from a path whose nodes are 0, where (A, B) = (0, 0),
    and the side's points, whose walk reads each point's state as stored,
    and which has no zero of G to stop at."""
    nodes = {0.0: (0.0, 0.0), **dict(zip(ts, pairs))}

    def solve(x):
        times = sorted((t for t in nodes if (t >= 0.0) is (x >= 0.0) or t == 0.0), key=abs)
        steps = [((0.0,) * len(QUAD_CONTROL.tableau.stored),) * 2] * (len(times) - 1)
        return _NoZero(ctl=QUAD_CONTROL, ts=times, ys=[nodes[t] for t in times], ks=steps)

    monkeypatch.setattr(closedform, "ab_sides", lambda a, b, mult, searched=None: solve)


# n, root exponent -1/(n-1): 2 -> -1, 4/3 -> -3 (odd roots, poles); 3 -> -1/2,
# 5/3 -> -3/2 (even roots, poles); 0 -> 1, 1/2 -> 2, 2/3 -> 3, -2 -> 1/3
# (odd roots); 1/3 -> 3/2, 3/5 -> 5/2, -1 -> 1/2 (even roots); 1
EXPONENTS = ["2", "4/3", "3", "5/3", "0", "1/2", "2/3", "-2", "1/3", "3/5", "-1", "1"]


@pytest.mark.parametrize("n", EXPONENTS)
@pytest.mark.parametrize("d", [1.0, -1.0, 0.7, -2.5])
def test_solution_loop_matches_the_signed_pow_loop(monkeypatch, n, d):
    if d < 0 and n == "1/2":
        pytest.skip("an exponent with an even denominator takes a positive d only")
    p = problem("0", "1", n, d)
    m = (p.n.p - p.n.q) / p.n.q
    g0 = signed_pow(d, classify_exponent(p.n.q - p.n.p, p.n.q))
    # B where G = g0 - m*B is zero (exactly, for all but n = 1/3, d = -2.5,
    # where no float B gives 0), positive, negative, within 1e-13 relative
    # of 0, huge or not finite; A
    # moderate, large enough to overflow exp, or not finite
    bvals = [0.0, 0.5, -0.5, 3.0, -3.0, 1e300, -1e300, math.inf, math.nan, g0 / m if m else 0.0]
    bvals += [b * (1.0 + 1e-14) for b in bvals[-1:]]
    avals = [0.0, -0.25, 1.5, 800.0, -800.0, math.nan]
    seen = set()
    for aval in avals:
        for k, bval in enumerate(bvals):
            pairs = [(0.0, 0.0), (0.1, 0.2), (aval, bval), (-0.3, 0.1)]
            ts = [0.0, 0.5, 1.0 + k, -0.5]
            answering(monkeypatch, pairs, ts)
            got = outcome(lambda: solution_values(p, ts))
            assert got == outcome(lambda: reference_solution_values(p, pairs, ts)), (aval, bval)
            if p.n.cls is not ExponentClass.ONE:
                seen.add(math.copysign(1.0, g0 - m * bval) if g0 - m * bval else 0.0)
    if p.n.cls is not ExponentClass.ONE:
        assert seen >= {-1.0, 1.0}
        assert 0.0 in seen or (n, d) == ("1/3", -2.5)


@pytest.mark.parametrize("n", ["0", "1"])
def test_a_solution_past_the_float_range_raises(n):
    # 1e10 * exp(176 * 3.92) is past the largest float, though exp(176 *
    # 3.92) is not: the product rounds to inf without an OverflowError
    p = problem("176", "0", n, 1e10)
    assert math.isfinite(solution_values(p, [3.9])[0])
    with pytest.raises(EvalError, match=r"^solution overflow at t=3\.92$"):
        solution_values(p, [0.5, 3.92])


def test_solution_loop_error_texts(monkeypatch):
    def at(n, d, pair):
        answering(monkeypatch, [pair], [0.25])
        with pytest.raises(BsymError) as info:
            solution_values(problem("0", "1", n, d), [0.25])
        return type(info.value), str(info.value)

    # G = 1 - (n-1)*B
    assert at("3", 1.0, (0.0, 1.0)) == (
        OutsideValidity, "asymptote: G=-1.0 at t=0.25 is at or past G's first zero (G(0)=1.0)")
    assert at("1/3", 1.0, (0.0, -3.0)) == (
        OutsideValidity, "root boundary: G=-1.0 at t=0.25 is at or past G's first zero (G(0)=1.0)")
    assert at("2", 1.0, (0.0, 1.0)) == (
        OutsideValidity, "asymptote: G=0.0 at t=0.25 is at or past G's first zero (G(0)=1.0)")
    assert at("2", -1.0, (0.0, -1.5)) == (
        OutsideValidity, "asymptote: G=0.5 at t=0.25 is at or past G's first zero (G(0)=-1.0)")
    assert at("2", 1.0, (800.0, 0.5)) == (EvalError, "solution overflow at t=0.25")
    assert at("1/3", 1.0, (0.0, 1e300)) == (EvalError, "solution overflow at t=0.25")
    assert at("1", 1.0, (400.0, 400.0)) == (EvalError, "solution overflow at t=0.25")


@pytest.mark.parametrize(
    "n,y", [("0", 0.0), ("1/2", 0.0), ("2/3", 0.0), ("1/3", None), ("2", None), ("3", None)]
)
def test_solution_at_a_zero_radicand(monkeypatch, n, y):
    # G = 1 - (n-1)*B is exactly 0: a root of 0 is 0 for an odd root with
    # a positive exponent; an even root requires G > 0, and a negative
    # exponent has its pole there
    p = problem("0", "1", n, 1.0)
    m = (p.n.p - p.n.q) / p.n.q
    answering(monkeypatch, [(0.0, 1.0 / m)], [0.5])
    assert 1.0 - m * (1.0 / m) == 0.0
    if y is None:
        with pytest.raises(OutsideValidity, match=r"G=0\.0 at t=0\.5 is at or past G's first zero \(G\(0\)=1\.0\)$"):
            solution_values(p, [0.5])
    else:
        assert solution_values(p, [0.5]) == [y]



# --- paths read through the signs of a and b, against each problem's own -----

def reference_search(p, radius: float = 4.0):
    """p's validity ends as [hi, lo], None where no zero lies within
    radius, and its two paths keyed by side of 0: nothing shared."""
    m = (p.n.p - p.n.q) / p.n.q
    level = signed_pow(p.d, classify_exponent(p.n.q - p.n.p, p.n.q)) / m
    paths = {direction: own_path(p.a, p.b, m, direction * radius) for direction in (1.0, -1.0)}
    ends = [path.first_crossing(1, level) for path in paths.values()]
    return ends, paths


def _ends(v):
    """A Validity's ends as reference_search gives them."""
    return [
        None if kind is BoundaryKind.SEARCH_LIMIT else x
        for x, kind in ((v.hi, v.hi_kind), (v.lo, v.lo_kind))
    ]


def _variants(p1):
    """p1 and every flip of a, b and d that ProblemSpec takes, made from
    p1's trees by `negated`."""
    out = []
    for sa in (1, -1):
        for sb in (1, -1):
            for sd in (1, -1):
                if sd < 0 and p1.n.cls is ExponentClass.ODD_OVER_EVEN:
                    continue
                a = p1.a if sa > 0 else negated(p1.a)
                b = p1.b if sb > 0 else negated(p1.b)
                out.append(ProblemSpec(a, b, p1.n, sd * p1.d))
    return out


@pytest.mark.parametrize(
    "a, b, n, d",
    [
        ("sin(t)", "cos(t)", "2", 1.0),  # the showcase Riccati problem
        ("-(t/3)", "0.5 + t", "3", 0.8),  # a topped by a minus
        ("cos(t)", "-(sin(t))", "2/3", -1.2),  # b topped by a minus
        ("--t", "1 + t^2", "-1", 0.5),  # a double negation
        ("0.3*t", "-(-(cos(t)))", "3/2", 1.5),  # even denominator: d > 0 only
        ("t", "1", "4/3", 0.9),
    ],
)
def test_flipped_coefficients_search_and_solve_as_their_own_trees(a, b, n, d):
    # every flip of a, b and d, searched in turn, gets the ends and
    # values of its own trees' paths bit for bit
    _search_and_solve_as_own_trees(_variants(problem(a, b, n, d)))


def _search_and_solve_as_own_trees(problems):
    """Search `problems` in turn, in their order and reversed, then check
    each one's validity ends and `solution_values` against paths of its
    own trees, nothing shared.  Reversed, another problem integrates
    first; the answers must not change."""
    refs = [reference_search(p) for p in problems]
    for order in (1, -1):
        got = _search_each(problems[::order], 4.0)[::order]
        assert [_ends(v) for v in got] == [ends for ends, _ in refs]
        for p, v, (_, paths) in zip(problems, got, refs):
            lo, hi = v.interior()
            ts = [lo + k * (hi - lo) / 100 for k in range(101)]
            # from the kept paths, and from fresh ones to the grid's ends
            pairs = grid_values(lambda x: paths[1.0 if x >= 0.0 else -1.0], ts)
            assert outcome(lambda: solution_values(p, ts)) == outcome(
                lambda: reference_solution_values(p, pairs, ts)
            )
            fresh = ProblemSpec(p.a, p.b, p.n, p.d)
            m = (p.n.p - p.n.q) / p.n.q
            pairs = grid_values(lambda x: own_path(p.a, p.b, m, x), ts)
            assert outcome(lambda: solution_values(fresh, ts)) == outcome(
                lambda: reference_solution_values(p, pairs, ts)
            )


# --- paths read across t -> -t, against each problem's own --------------------

@pytest.mark.parametrize(
    "a, b, n, d",
    [
        ("sin(t)", "cos(t)", "2", 1.0),  # a odd: p1's sides share one path
        ("sinh(t/2)", "cosh(t/3)", "3", 0.7),
        ("cos(t)", "t^3", "2", 1.0),  # a even: each side integrates its own
        ("t^2*cos(t)", "sin(t)*cosh(t)", "-1", 0.5),  # products
        ("0.3*t", "2", "3/2", 1.2),  # a constant b
        ("-(sinh(t))", "-(t^4 + 1)", "3", 0.9),  # Neg-topped trees
        ("--t", "cos(2*t)", "5/3", 0.8),
        ("1.5", "sin(t)^2", "1/3", -0.6),  # a constant a
        ("cosh(t) - 1", "t*cosh(t)", "4/3", 2.0),  # a zero at t = 0
    ],
)
def test_reflected_paths_search_and_solve_as_their_own_trees(monkeypatch, a, b, n, d):
    # p1 and its partners, searched in turn: each problem integrates its
    # own sides, and a side answered by the reflection of the problem's
    # other side, where a is odd, gets the ends and values of the
    # problem's own path toward that side, bit for bit
    p1 = problem(a, b, n, d)
    problems = [p1, *(transform_problem(p1, case) for case in applicable_cases(p1))]
    assert len(problems) > 1
    odd_a = structural_parity(split_sign(p1.a)[1]) is Parity.ODD
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    _search_each(problems, 4.0)
    assert [call[3] for call in calls] == ([4.0] if odd_a else [4.0, -4.0]) * len(problems)
    monkeypatch.undo()
    _search_and_solve_as_own_trees(problems)
    for p in problems:
        mirrored = p._searched[-1.0]
        assert isinstance(mirrored, PathView) is odd_a


@pytest.mark.parametrize(
    "a, b, n",
    [
        # a pole at t = +-1/16, where the first trial step's last stage
        # lands on either side; the side toward +4 is integrated first
        ("1/(t^2 - 0.00390625)", "cos(t)", "2"),  # in a, even
        ("sin(t)", "t/(t^2 - 0.00390625)", "2"),  # in b, odd
        # a even, so exp((n-1)*A) overflows toward one side only: toward
        # +4 for p1, toward -4 for a flip of a
        ("100*cosh(0*t)", "cos(t)", "3"),
        # toward -4 for p1: its path toward +4 is integrated, and the one
        # toward -4 then fails on its own (StepUnderflow as the step shrinks)
        ("-(100)", "t^2", "3"),
    ],
)
def test_reflected_paths_fail_as_their_own_trees(a, b, n):
    # a problem whose paths cannot be integrated fails as its own trees
    # do, alone and among its partners and flips, error type and text alike
    p1 = problem(a, b, n, 1.0)
    problems = _variants(p1)
    for p in problems:
        own = failure(lambda: reference_search(p))
        assert failure(lambda: validity_interval(p, 4.0)) == own
    assert failure(lambda: _search_each(problems, 4.0)) == failure(
        lambda: reference_search(problems[0])
    )
    partners = [transform_problem(p1, case) for case in applicable_cases(p1)]
    for p in [*partners, p1]:  # each partner first
        assert failure(lambda: _search_each([p, *problems], 4.0)) == failure(
            lambda: reference_search(p)
        )


def test_sampled_parity_never_shares_a_reflection(monkeypatch):
    # t^2 + 1e-11*t samples as even, t + 1e-11*t^2 as odd; neither has a
    # structural parity, so no side is the reflection of another: every
    # problem integrates both of its sides
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    for a in ("t^2 + 0.00000000001*t", "t + 0.00000000001*t^2"):
        p1 = problem(a, "cos(t)", 2, 1.0)
        problems = [p1, *(transform_problem(p1, case) for case in applicable_cases(p1))]
        calls.clear()
        _search_each(problems, 4.0)
        assert [call[3] for call in calls] == [4.0, -4.0] * len(problems)
        calls.clear()
        validity_interval(p1, 4.0)
        assert [call[3] for call in calls] == [4.0, -4.0]
        kept = [path for p in problems for path in p._searched.values()]
        assert not any(isinstance(path, PathView) and path.r < 0 for path in kept)


def failure(fn):
    with pytest.raises(BsymError) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "a, b, n, want",
    [
        # the first trial step's last stage lands on t = +-1/16
        ("0", "1/(t - 0.0625)", "2", (EvalError, "division by zero at t=0.0625")),
        ("1/(0.0625 + t)", "1", "2", (EvalError, "division by zero at t=-0.0625")),
        # exp((n-1)*A) overflows on the side where (n-1)*A grows
        ("100", "1", "3", (EvalError, "integrand overflow: math range error")),
        ("-(100)", "-(1)", "3", (EvalError, "integrand overflow: math range error")),
        ("1", "1/(t - 1.5)", "2", (StepUnderflow, "step size underflow at t=1.499999998933732")),
    ],
)
def test_flipped_coefficients_fail_as_their_own_trees(a, b, n, want):
    # want is p1's failure; a flip of a changes the path, and may change
    # how it fails, but each variant fails as its own trees do
    problems = _variants(problem(a, b, n, 1.0))
    assert failure(lambda: reference_search(problems[0])) == want
    for p in problems:
        own = failure(lambda: reference_search(p))
        assert failure(lambda: validity_interval(p, 4.0)) == own
        fresh = ProblemSpec(p.a, p.b, p.n, p.d)
        assert failure(lambda: solution_values(fresh, [-4.0, 4.0])) == own  # same paths
    assert failure(lambda: _search_each(problems, 4.0)) == want


def test_seed_404_agrees_with_the_oracle_next_to_its_pole():
    # bench/inputs.solve_inputs(404, 435)[176], whose last grid point
    # before its Asymptote end failed criterion 4 (1.9e-6) when the
    # closed form read B from DP5's quartic: every one of the 401 points
    # is now within it, and the end within 1e-9 of 30-digit mpmath's
    # 3.2654188928 (DP5's read 3.2654189223)
    p = problem("-(0.47*sin(t)^2)", "0.92*sin(t)*sin(t)", "5/3", -1.506)
    v = validity_interval(p, 4.0)
    assert v.hi_kind is BoundaryKind.ASYMPTOTE
    assert v.hi == pytest.approx(3.2654188928, abs=1e-9)
    lo, hi = v.interior()
    ts = [lo + i * (hi - lo) / 400 for i in range(401)]
    ys, oracle = solution_values(p, ts), solve_on_grid(p, ts)
    assert all(abs(c - o) <= 1e-6 * (1.0 + abs(c)) for c, o in zip(ys, oracle))


def test_seed_427_closed_form_matches_mpmath_next_to_its_pole():
    # bench/inputs.solve_inputs(427, 435)[149] at t = 3.124633743498869,
    # where G = 2.25e-5: 30-digit mpmath gives y = -204.2313557960777; the
    # closed form reads it 1.0e-9 off (4.4e-7 from DP5's quartic), while
    # the DP5 oracle is 2.35e-6 off there, past criterion 4's 1e-6
    p = problem("-(0.27*t/3*sin(t)*cos(t)) + 0.37*t^2/9*sin(t)*cos(t)", "0.21*sin(t)^2", 3, -1.252)
    (y,) = solution_values(p, [3.124633743498869])
    assert y == pytest.approx(-204.2313557960777, rel=1e-8)
