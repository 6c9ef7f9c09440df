import dataclasses
import math

import pytest

from bsym import (
    CASE_BY_ID,
    DomainError,
    StepFailure,
    applicable_cases,
    problem,
    rk_solve,
    solve_on_grid,
    transform_problem,
    validity_interval,
    verify_cases,
)
from bsym.oracle import ORACLE_CONTROL
from bsym.stepper import StepBudgetExceeded, StepUnderflow, grid_values

from helpers import count_calls


def test_exponential_growth():
    path = rk_solve(problem("1", "0", 2, 1.0), 1.0)
    assert path.value(1.0)[0] == pytest.approx(math.e, abs=1e-9)
    assert not path.blew_up and path.t_reached == 1.0


def test_riccati_near_asymptote():
    path = rk_solve(problem("0", "1", 2, 1.0), 0.9)
    assert path.value(0.9)[0] == pytest.approx(10.0, abs=1e-7)


def test_blow_up_marker():
    # the step size underflows toward the pole at t = 1 with |y| past 1e9,
    # below the 1e12 limit: the rescue marks the partial path as a blow-up
    path = rk_solve(problem("0", "1", 2, 1.0), 1.5)
    assert path.blew_up
    assert path.t_reached == pytest.approx(1.0, abs=1e-3)
    assert 1e10 < abs(path.y_end[0]) <= 1e12


def test_a_limit_stop_and_a_rescued_underflow_differ_in_the_last_y():
    # both end in a blow-up; only the stop at the limit leaves |y| past 1e12
    stopped = rk_solve(problem("50", "0", 2, 1.0), 1.0)
    rescued = rk_solve(problem("0", "1", 2, 1.0), 2.0)
    assert stopped.blew_up and abs(stopped.y_end[0]) > 1e12
    assert 0.55 < stopped.t_reached < 0.56
    assert rescued.blew_up and abs(rescued.y_end[0]) <= 1e12


def test_an_underflow_at_moderate_y_is_the_steppers_own_step_failure():
    # |y| is about 1.4e5 where the step size underflows, below the rescue's
    # 1e9: the stepper's StepUnderflow propagates with its partial path
    with pytest.raises(StepUnderflow) as info:
        rk_solve(problem("0", "1", 3, 1.0), 1.0)
    path = info.value.path
    assert isinstance(info.value, StepFailure) and not path.blew_up
    assert str(info.value) == f"step size underflow at t={path.t_reached!r}"
    assert 1e3 < abs(path.y_end[0]) < 1e9


def test_trajectory_starts_at_initial_value():
    path = rk_solve(problem("cos(t)", "sin(t)", 2, 0.5), 1.0)
    assert (path.ts[0], path.ys[0]) == (0.0, (0.5,))
    assert path.value(0.0) == (0.5,)


def test_negative_direction():
    path = rk_solve(problem("1", "0", 2, 1.0), -1.0)
    assert path.value(-1.0)[0] == pytest.approx(1.0 / math.e, rel=1e-9)
    ts = path.ts
    assert ts[0] == 0.0 and ts[-1] == -1.0
    assert all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))


def test_default_tolerance_near_asymptote():
    # y = -exp(A) / sqrt(G) with G -> 0 just beyond t; the reference is the
    # closed form evaluated with 30-digit mpmath quadrature
    p = problem(
        "-(0.24*cosh(t/3)/2)",
        "-(0.37*t^2/9 + 0.25*cos(t)) + 0.58*t/3 + 0.29*sin(2*t)",
        3,
        -1.634,
    )
    t = 1.7204470613319427
    reference = -11.999668841520855
    y = solve_on_grid(p, [t])[0]
    assert abs(y - reference) <= 1e-7 * abs(reference)


def test_query_outside_range_rejected():
    path = rk_solve(problem("1", "0", 2, 1.0), 1.0)
    with pytest.raises(ValueError):
        path.value(2.0)
    with pytest.raises(ValueError):
        path.value(-0.1)


def test_convergence_with_tolerance():
    # error scales roughly like tol^(5/6) for a tolerance-proportional
    # controller, so a 16x tolerance cut must buy at least a 4x error cut
    p = problem("0", "1", 2, 1.0)
    errors = []
    for scale in (1.0, 1.0 / 16.0, 1.0 / 256.0):
        ctl = dataclasses.replace(ORACLE_CONTROL, rel_tol=1e-6 * scale, abs_tol=1e-7 * scale)
        errors.append(abs(rk_solve(p, 0.9, ctl).value(0.9)[0] - 10.0))
    assert errors[0] / errors[1] >= 4.0
    assert errors[1] / errors[2] >= 4.0
    assert errors[2] <= 1e-8


def test_direction_symmetry_oracle_only():
    # even a, odd b with its y-axis partner: two independent solves must
    # reproduce y2(-t) = y1(t) without any closed-form involvement
    p1 = problem("cos(t)", "sin(t)", 2, 1.0)
    p2 = transform_problem(p1, "T3i")
    path1 = rk_solve(p1, 0.8)
    path2 = rk_solve(p2, -0.8)
    for k in range(9):
        t = 0.1 * k
        (y1,) = path1.value(t)
        (y2,) = path2.value(-t)
        assert abs(y2 - y1) <= 1e-7 * (1.0 + abs(y1))


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_blow_up_agrees_with_validity_asymptote(d):
    p = problem("0", "1", 2, d)
    path = rk_solve(p, 2.0 / d)
    v = validity_interval(p, 5.0)
    assert path.blew_up
    assert abs(path.t_reached - v.hi) <= 1e-3


def test_domain_error_when_solution_hits_zero_with_even_root():
    # y' = -sqrt(y) reaches y = 0 at t = 2 and cannot continue
    with pytest.raises(DomainError):
        rk_solve(problem("0", "-(1)", "1/2", 1.0), 3.0)


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_right_hand_side_overflow_is_step_failure(t_end):
    # y' = y^2 from 1e13: the first trial step's stages square past a
    # float's range (the pole is at t = 1e-13)
    with pytest.raises(StepFailure, match="overflow"):
        rk_solve(problem("0", "1", 2, 1e13), t_end)


def test_step_budget_exhaustion_is_step_failure():
    # the stepper's own StepFailure, with the path it reached
    with pytest.raises(StepBudgetExceeded, match="^step budget exhausted at t=") as info:
        rk_solve(
            problem("0", "1", 2, 1.0), 0.999999, dataclasses.replace(ORACLE_CONTROL, max_steps=10)
        )
    assert isinstance(info.value, StepFailure)
    assert len(info.value.path.ts) <= 11


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_non_finite_target_is_value_error(t_end):
    # the stepper rejects it before any step: no path "arrives" at t = 0
    with pytest.raises(ValueError, match="t_end must be finite"):
        rk_solve(problem("1", "1", 2, 0.5), t_end)


def test_oracle_config_validation():
    # the oracle's control rejects a bad tolerance or step budget
    with pytest.raises(ValueError):
        dataclasses.replace(ORACLE_CONTROL, abs_tol=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ORACLE_CONTROL, max_steps=0)


def test_subnormal_grid():
    # the oracle's paths toward +-1e-322 are one step each; the first step
    # was once 1e-322 / 64 = 0.0, and the step budget ran out at t = 0.0
    p = problem("cos(t)", "cos(t)", 2, 1.0)
    assert solve_on_grid(p, [-1e-322, 0.0, 1e-322]) == [1.0, 1.0, 1.0]


def _own_values(p, ts):
    """p's y on ts from a fresh rk_solve per side of 0."""
    return [y for (y,) in grid_values(lambda t_end: rk_solve(p, t_end), ts)]


@pytest.mark.parametrize(
    "a, b, n, d, case",
    [
        # T2i: origin, y2(-t) = -y1(t); T2iv: t-axis, y2(t) = -y1(t); T3i:
        # y-axis, y2(-t) = y1(t)
        ("cos(t)", "sin(t)", 2, 1.0, "T2i"),
        ("cos(t)", "sin(t)", 2, 1.0, "T2iv"),
        ("cos(t)", "sin(t)", 2, 1.0, "T3i"),
        ("-(sin(t))", "cosh(t/3)", 3, -0.8, "T4i"),
        ("0.3*t^2", "-(cos(2*t))", "5/3", 1.2, "T4ii"),
        ("t/3", "sin(t)^2", "1/2", 0.9, "T3ii"),
    ],
)
def test_a_fresh_solve_of_a_certified_partner_is_p1_reflected(a, b, n, d, case):
    # verify_cases answers a certified partner as y2(r t) = s * y1(t) from
    # p1's solve; the partner's own fresh paths give the same floats
    p1 = problem(a, b, n, d)
    case = CASE_BY_ID[case]
    r, s = case.relation.r, case.relation.s
    p2 = transform_problem(p1, case)
    ts = [-0.6 + 0.1 * i for i in range(15)]  # -0.6 .. 0.8
    y1 = _own_values(p1, ts)
    assert _own_values(p2, [r * t for t in ts]) == [s * y for y in y1]
    assert solve_on_grid(p2, [r * t for t in ts]) == [s * y for y in y1]
    path1, path2 = rk_solve(p1, 0.8), rk_solve(p2, r * 0.8)
    assert path2.ts == [r * t for t in path1.ts]
    assert path2.ys == [(s * y,) for (y,) in path1.ys]


def test_the_exact_end_decides_which_path_is_read(monkeypatch):
    # a path's first step (span/64) and its clamped last step depend on its
    # end, so a path that merely reaches past a grid's end reads other
    # floats: a certified partner is read on p1's own grid, and each side
    # of a grid is solved toward its farthest point exactly
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    assert rk_solve(p, 0.8).value(0.5) != rk_solve(p, 0.7).value(0.5)
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    assert solve_on_grid(p, [-0.5, 0.5, 0.7]) == _own_values(p, [-0.5, 0.5, 0.7])
    assert [call[1] for call in solves] == [0.7, -0.5]
    # y is even for odd a and b: the sides share a path only where their
    # ends are exactly -T and T
    q = problem("sin(t)", "t", 2, 1.0)
    for ts, want in (([-0.7, 0.7], [0.7]), ([-0.7, 0.6999999999999999], [0.6999999999999999, -0.7])):
        solves.clear()
        assert solve_on_grid(q, ts) == _own_values(q, ts)
        assert [call[1] for call in solves] == want


@pytest.mark.parametrize(
    "a, b, structural",
    [("cos(t)", "sin(t)", True), ("cos(t)", "sin(t) + 0.0*exp(t)", False)],
)
def test_a_t_mirror_is_certified_only_under_structural_parity(monkeypatch, a, b, structural):
    # T3i (y2(-t) = y1(t)) applies to both problems, but only a and b of
    # structural parity certify the t-mirror; a parity that only sampling
    # finds gets the partner solved on its own paths, in each route
    p = problem(a, b, 2, 1.0)
    assert applicable_cases(p) == [CASE_BY_ID[c] for c in ("T2i", "T2iv", "T3i")]
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    reports = verify_cases(p, ["T3i"])
    assert [call[0] for call in solves] == [p] * 2 + [transform_problem(p, "T3i")] * 2 * (not structural)
    assert reports[0].passed
    # the t-axis partner is certified either way: no t-mirror is needed
    solves.clear()
    verify_cases(p, ["T2iv"])
    assert [call[0] for call in solves] == [p] * 2
    # y is even for odd a and b, and so each side reads the other's path,
    # only under structural parity
    q = problem("sin(t)", b.replace("sin(t)", "t"), 2, 1.0)
    solves.clear()
    assert solve_on_grid(q, [-0.7, 0.7]) == _own_values(q, [-0.7, 0.7])
    assert [call[1] for call in solves] == ([0.7] if structural else [0.7, -0.7])
