import math
import random

import pytest

from bsym import (
    CATALOG,
    BoundaryKind,
    BsymError,
    DomainError,
    EvalError,
    NoConvergence,
    OutsideValidity,
    QuadConfig,
    eval_solution,
    problem,
    signed_pow,
    solution_values,
    solve_on_grid,
    validity_interval,
    validity_intervals,
)
from bsym import closedform, transform_problem
from bsym.closedform import ProblemSpec
from bsym.quad import DEFAULT_QUAD_CONFIG, ab_values
from bsym.exponent import ExponentClass, classify_exponent
from bsym.expr import negated
from bsym.stepper import DensePath, grid_values

from helpers import conforming_problem, count_calls, own_path, random_problem, simpson

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
        lo, hi = v.interior(0.02)
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
        lo, hi = v.interior(0.1)
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
    v = validity_interval(problem("0", b, n, d), 4.0)
    assert v.lo_kind is v.hi_kind is kind
    assert v.hi == pytest.approx(math.pi / 2, abs=1e-4)
    assert v.lo == pytest.approx(-math.pi / 2, abs=1e-4)
    if n == 2:  # the dense G dips below zero just inside the pole
        assert math.pi / 2 - 1e-4 <= v.hi <= math.pi / 2


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


def test_validity_intervals_share_one_path_per_side_and_integrand(monkeypatch):
    # (b, 1), (-b, 1) and (b, 2) as (B's coefficient, n-1): (-b, 1) is the
    # path of (b, 1) with B negated, so two integrands, however many d; the
    # unit exponent integrates nothing
    b = "0.5 + t"
    ps = [problem("cos(t)", b, 2, d) for d in (1.0, -1.0, 0.5)]
    ps += [problem("cos(t)", f"-({b})", 2, 1.0), problem("cos(t)", b, 3, 2.0)]
    ps += [problem("cos(t)", b, 1, 1.0)]
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = validity_intervals(ps, 4.0)
    assert len(calls) == 2 * 2
    monkeypatch.undo()
    assert got == [validity_interval(p, 4.0) for p in ps]
    assert len({v.hi for v in got[:3]}) == 3  # d moves the level


def test_a_partner_that_shares_p1s_level_walks_nothing(monkeypatch):
    # T2iv flips b and d: on n = 2 the level g0/(n-1) = 1/d flips with d,
    # so the partner looks for B0 reaching p1's own level on p1's paths;
    # T2ii flips d alone and needs a level of its own
    walks = []
    crossing = DensePath.first_crossing

    def counted(path, k, level, *tol):
        walks.append(level)
        return crossing(path, k, level, *tol)

    p1 = problem("sin(t)", "cos(t)", 2, 1.0)
    partners = [transform_problem(p1, case) for case in ("T2iv", "T2ii")]
    monkeypatch.setattr(DensePath, "first_crossing", counted)
    got = validity_intervals([p1, *partners], 4.0)
    assert walks == [1.0, 1.0, -1.0, -1.0]  # p1, T2ii; one per side
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
    # p's own grid, same cfg: both sides come from p's searched paths
    solution_values(p, [-3.0, -0.5, 0.0, 0.5, 3.0])
    assert calls == []
    # another problem, even one equal to p, or another cfg integrates a fresh
    # path: a, b, n-1 and cfg all match only on p's own paths with p's cfg
    for q, cfg in (
        (problem("cos(t)", "cos(t)", 2, 1.0), DEFAULT_QUAD_CONFIG),
        (problem("sin(t)", "sin(t)", 2, 1.0), DEFAULT_QUAD_CONFIG),
        (problem("sin(t)", "cos(t)", 3, 0.5), DEFAULT_QUAD_CONFIG),
        (problem("sin(t)", "cos(t)", 2, 1.0), DEFAULT_QUAD_CONFIG),
        (p, QuadConfig(rel_tol=1e-9)),
    ):
        calls.clear()
        solution_values(q, [0.5], cfg)
        assert [call[3] for call in calls] == [0.5], (q, cfg)
    calls.clear()
    ab_values(p.a, p.b, 1.0, [0.5], QuadConfig(rel_tol=1e-9), p._searched)
    assert [call[3] for call in calls] == [0.5]


def test_ab_values_reuses_only_the_matching_side(monkeypatch):
    # b has a pole at t = -1: the search keeps its path to +4, then fails
    # toward -4, so only the right side of 0 has a searched path
    p = problem("0", "1/(1 + t)", 2, 0.05)
    with pytest.raises(NoConvergence):
        validity_interval(p, 4.0)
    assert [side for _, side in p._searched] == [1.0]
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    solution_values(p, [0.5])
    assert calls == []
    got = ab_values(p.a, p.b, 1.0, [-0.5], DEFAULT_QUAD_CONFIG, p._searched)
    assert got[0][1] == pytest.approx(-math.log(2.0), rel=1e-9)
    assert [call[3] for call in calls] == [-0.5]


def test_ab_values_past_the_searched_path_integrates_afresh(monkeypatch):
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 1.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = ab_values(p.a, p.b, 1.0, [-1.0, 0.5, 2.0], DEFAULT_QUAD_CONFIG, p._searched)
    assert [call[3] for call in calls] == [2.0]  # the left side reuses its path
    monkeypatch.undo()
    fresh = ab_values(p.a, p.b, 1.0, [-1.0, 0.5, 2.0])
    assert got[1:] == fresh[1:]  # the same fresh path to 2.0
    assert all(_rel_diff(x, y) <= 1e-8 for g, f in zip(got, fresh) for x, y in zip(g, f))


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
    validity_interval(p, 4.0)  # replaces the radius-8 paths
    kept = dict(p._searched)
    assert {key: path.t_reached for key, path in kept.items()} == {
        (DEFAULT_QUAD_CONFIG, 1.0): 4.0, (DEFAULT_QUAD_CONFIG, -1.0): -4.0
    }
    # another problem's search, shared paths included, leaves p's alone
    q, r = problem("sin(t)", "cos(t)", 2, -1.0), problem("cos(t)", "1", 3, 1.0)
    validity_intervals([q, r], 4.0)
    assert p._searched == kept and all(p._searched[k] is kept[k] for k in kept)
    assert all(q._searched[k] is not kept[k] for k in kept)
    v, w = problem("sin(t)", "cos(t)", 2, 0.5), problem("sin(t)", "cos(t)", 2, 2.0)
    validity_intervals([v, w], 4.0)  # same a, b, n-1: one path per side
    assert all(v._searched[k] is w._searched[k] for k in kept)
    # a grid's fresh paths, here past the searched radius, are not kept
    solution_values(p, [-5.0, 5.0])
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
        got = ab_values(p.a, p.b, m, ts, DEFAULT_QUAD_CONFIG, p._searched)
        monkeypatch.undo()
        reused += not calls
        fresh = ab_values(p.a, p.b, m, ts)
        worst = max(_rel_diff(x, y) for g, f in zip(got, fresh) for x, y in zip(g, f))
        assert worst <= 1e-8, (p.a.source, p.b.source, str(p.n), p.d)
    assert reused >= 30  # the unit exponent searches nothing


# --- the per-point loop against the one it replaced --------------------------

def reference_solution_values(p, pairs, ts):
    """`solution_values` before the class decisions left its loop, given
    the (A, B) pairs: signed_pow at every point."""
    m = (p.n.p - p.n.q) / p.n.q
    out = []
    if p.n.cls is ExponentClass.ONE:
        for (aval, bval), t in zip(pairs, ts):
            try:
                out.append(p.d * math.exp(aval + bval))
            except OverflowError:
                raise EvalError(f"solution overflow at t={t!r}") from None
        return out
    g0 = signed_pow(p.d, classify_exponent(p.n.q - p.n.p, p.n.q))
    root = classify_exponent(-p.n.q, p.n.p - p.n.q)
    even_root = root.q % 2 == 0
    sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0
    for (aval, bval), t in zip(pairs, ts):
        g = g0 - m * bval
        g_eps = 1e-13 * (abs(g0) + abs(m * bval))
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


def outcome(fn):
    try:
        return [repr(y) for y in fn()]
    except BsymError as exc:
        return type(exc), str(exc)


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
    # B where G = g0 - m*B is zero (exactly, for some of these), positive,
    # negative, within the asymptote threshold, huge or not finite; A
    # moderate, large enough to overflow exp, or not finite
    bvals = [0.0, 0.5, -0.5, 3.0, -3.0, 1e300, -1e300, math.inf, math.nan, g0 / m if m else 0.0]
    bvals += [b * (1.0 + 1e-14) for b in bvals[-1:]]
    avals = [0.0, -0.25, 1.5, 800.0, -800.0, math.nan]
    seen = set()
    for aval in avals:
        for k, bval in enumerate(bvals):
            pairs = [(0.0, 0.0), (0.1, 0.2), (aval, bval), (-0.3, 0.1)]
            ts = [0.0, 0.5, 1.0 + k, -0.5]
            monkeypatch.setattr(closedform, "ab_values", lambda a, b, m, ts, cfg, searched: pairs)
            got = outcome(lambda: solution_values(p, ts))
            assert got == outcome(lambda: reference_solution_values(p, pairs, ts)), (aval, bval)
            if p.n.cls is not ExponentClass.ONE:
                seen.add(math.copysign(1.0, g0 - m * bval) if g0 - m * bval else 0.0)
    if p.n.cls is not ExponentClass.ONE:
        assert seen >= {-1.0, 1.0}  # G = 0 exactly: test_solution_at_a_zero_radicand


def test_solution_loop_error_texts(monkeypatch):
    def at(n, d, pair):
        monkeypatch.setattr(closedform, "ab_values", lambda a, b, m, ts, cfg, searched: [pair])
        with pytest.raises(BsymError) as info:
            solution_values(problem("0", "1", n, d), [0.25])
        return type(info.value), str(info.value)

    # G = 1 - (n-1)*B
    assert at("3", 1.0, (0.0, 1.0)) == (
        OutsideValidity, "radicand -1.0 at t=0.25 but the root requires positivity")
    assert at("1/3", 1.0, (0.0, -3.0)) == (
        OutsideValidity, "radicand -1.0 at t=0.25 but the root requires positivity")
    assert at("2", 1.0, (0.0, 1.0)) == (OutsideValidity, "asymptote: radicand vanishes at t=0.25")
    assert at("2", 1.0, (800.0, 0.5)) == (EvalError, "solution overflow at t=0.25")
    assert at("1/3", 1.0, (0.0, 1e300)) == (EvalError, "solution overflow at t=0.25")
    assert at("1", 1.0, (400.0, 400.0)) == (EvalError, "solution overflow at t=0.25")


@pytest.mark.parametrize("n,y", [("0", 0.0), ("1/2", 0.0), ("2/3", 0.0), ("1/3", None)])
def test_solution_at_a_zero_radicand(monkeypatch, n, y):
    # G = 1 - (n-1)*B is exactly 0: a root of 0 is 0 for a positive root
    # exponent; an even root requires G > 0
    p = problem("0", "1", n, 1.0)
    m = (p.n.p - p.n.q) / p.n.q
    monkeypatch.setattr(closedform, "ab_values", lambda a, b, mult, ts, cfg, searched: [(0.0, 1.0 / m)])
    assert 1.0 - m * (1.0 / m) == 0.0
    if y is None:
        with pytest.raises(OutsideValidity, match="requires positivity"):
            solution_values(p, [0.5])
    else:
        assert solution_values(p, [0.5]) == [y]



# --- paths shared up to the signs of a and b, against each problem's own ------

def reference_search(p, radius: float = 4.0, cfg: QuadConfig = DEFAULT_QUAD_CONFIG):
    """p's validity ends as [hi, lo], None where no zero lies within
    radius, and its two paths keyed by side of 0: nothing shared."""
    m = (p.n.p - p.n.q) / p.n.q
    level = signed_pow(p.d, classify_exponent(p.n.q - p.n.p, p.n.q)) / m
    paths = {direction: own_path(p.a, p.b, m, direction * radius, cfg) for direction in (1.0, -1.0)}
    ends = [path.first_crossing(1, level, cfg.abs_tol, cfg.rel_tol) for path in paths.values()]
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
    # every flip of a, b and d, searched together so that they share
    # paths, gets the ends and values of its own trees' paths bit for bit
    problems = _variants(problem(a, b, n, d))
    refs = [reference_search(p) for p in problems]
    got = validity_intervals(problems, 4.0)
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
        ("1", "1/(t - 1.5)", "2", (NoConvergence, "step size underflow at t=1.4999999999479559")),
    ],
)
def test_flipped_coefficients_fail_as_their_own_trees(a, b, n, want):
    # want is p1's failure; a flip of a changes the path, and may change
    # how it fails, but each variant fails as its own trees do
    problems = _variants(problem(a, b, n, 1.0))
    assert failure(lambda: reference_search(problems[0])) == want
    for p in problems:
        own = failure(lambda: reference_search(p))
        assert failure(lambda: validity_intervals([p], 4.0)) == own
        fresh = ProblemSpec(p.a, p.b, p.n, p.d)
        assert failure(lambda: solution_values(fresh, [-4.0, 4.0])) == own  # same paths
    assert failure(lambda: validity_intervals(problems, 4.0)) == want
