import dataclasses
import math

import pytest

from bsym import (
    DomainError,
    StepFailure,
    problem,
    rk_solve,
    solve_on_grid,
    transform_problem,
    validity_interval,
)
from bsym.oracle import ORACLE_CONTROL, solve_on_grids
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


def test_solve_on_grids_reads_partners_from_mirrors_of_integrated_paths(monkeypatch):
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    p1 = problem("cos(t)", "sin(t)", 2, 1.0)
    ts = [-0.6 + 0.1 * i for i in range(15)]  # -0.6 .. 0.8
    # T2i: origin, y2(-t) = -y1(t); T2iv: t-axis, y2(t) = -y1(t); T3i:
    # y-axis, y2(-t) = y1(t); each reads p1's two paths, as r * ts
    partners = [(transform_problem(p1, c), r) for c, r in (("T2i", -1), ("T2iv", 1), ("T3i", -1))]
    requests = [(p1, ts)] + [(p2, [r * t for t in ts]) for p2, r in partners]
    shared = solve_on_grids(requests)
    assert [call[1] for call in solves] == [ts[-1], ts[0]]  # p1's two sides only
    assert shared == [_own_values(p, grid) for p, grid in requests]
    # the one-request wrapper answers from a table of its own
    assert solve_on_grid(*requests[1]) == shared[1]


def test_solve_on_grids_keys_the_exact_end(monkeypatch):
    # a path that merely reaches past a grid's end is not reused: the first
    # step (span/64) and the clamped last step depend on the end, so the
    # partner integrates the side whose farthest point differs
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    p1 = problem("cos(t)", "sin(t)", 2, 1.0)
    p2 = transform_problem(p1, "T2iv")  # y2(t) = -y1(t), same side
    shared = solve_on_grids([(p1, [-0.5, 0.8]), (p2, [-0.5, 0.7])])
    assert [(call[0].d, call[1]) for call in solves] == [(1.0, 0.8), (1.0, -0.5), (-1.0, 0.7)]
    assert shared == [_own_values(p1, [-0.5, 0.8]), _own_values(p2, [-0.5, 0.7])]


@pytest.mark.parametrize(
    "a, b, n, ts, want",
    [
        # a and b odd: y is even, so the side toward -0.7 reads the path
        # toward 0.7 (r = -1, s = 1) within one problem
        ("sin(t)", "t", 2, [-0.7, 0.7], [0.7]),
        # the sampled parity never certifies a reflection in t
        ("sin(t)", "t + 0.0*exp(t)", 2, [-0.7, 0.7], [0.7, -0.7]),
    ],
)
def test_solve_on_grids_mirrors_in_t_only_for_structural_parity(monkeypatch, a, b, n, ts, want):
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    p = problem(a, b, n, 1.0)
    assert solve_on_grids([(p, ts)]) == [_own_values(p, ts)]
    assert [call[1] for call in solves] == want

