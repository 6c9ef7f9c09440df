import math
import random

import pytest

from bsym import (
    BoundaryKind,
    DomainError,
    EvalError,
    OutsideValidity,
    eval_solution,
    problem,
    radicand,
    signed_pow,
    solution_values,
    solve_on_grid,
    validity_interval,
)
from bsym.closedform import ProblemSpec
from bsym.exponent import ExponentClass

from helpers import random_problem, simpson

# int_0^0.3 s*e^s ds via the Simpson oracle, then G = 1/d - B with d = -1
# (analytic cross-check: B = 1 - 0.7*e^0.3)
G_FIXTURE = -1.0550988346967978

# closed form for (a=cos, b=sin, n=2, d=1) at t=0.7: e^{sin 0.7} / (1 - B),
# B = int_0^0.7 sin(s) e^{sin(s)} ds by the Simpson oracle; mpmath quadrature
# and an independent high-precision ODE solve both give 3.0200706670159803
Y_FIXTURE = 3.0200706670159803


# --- radicand -----------------------------------------------------------------

def test_radicand_at_zero_is_reciprocal_power():
    assert radicand(problem("0", "1", 2, 1.0), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_radicand_linear_decay():
    assert radicand(problem("0", "1", 2, 1.0), 0.5) == pytest.approx(0.5, abs=1e-10)


def test_radicand_simpson_fixture():
    g = radicand(problem("1", "t", 2, -1.0), 0.3)
    assert g == pytest.approx(G_FIXTURE, abs=1e-9)
    analytic = -1.0 - (1.0 - 0.7 * math.exp(0.3))
    assert g == pytest.approx(analytic, abs=1e-9)


def test_radicand_rejects_unit_exponent():
    with pytest.raises(DomainError):
        radicand(problem("1", "1", 1, 1.0), 0.5)


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
