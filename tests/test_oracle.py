import math

import pytest

from bsym import (
    DomainError,
    OracleConfig,
    StepFailure,
    problem,
    rk_solve,
    solve_on_grid,
    transform_problem,
    validity_interval,
)


def test_exponential_growth():
    tr = rk_solve(problem("1", "0", 2, 1.0), 1.0)
    assert tr(1.0) == pytest.approx(math.e, abs=1e-9)
    assert not tr.blew_up


def test_riccati_near_asymptote():
    tr = rk_solve(problem("0", "1", 2, 1.0), 0.9)
    assert tr(0.9) == pytest.approx(10.0, abs=1e-7)


def test_blow_up_marker():
    tr = rk_solve(problem("0", "1", 2, 1.0), 1.5)
    assert tr.blew_up
    assert tr.t_last == pytest.approx(1.0, abs=1e-3)
    assert abs(tr.path.ys[-1][0]) > 1e10


def test_trajectory_starts_at_initial_value():
    tr = rk_solve(problem("cos(t)", "sin(t)", 2, 0.5), 1.0)
    assert (tr.path.ts[0], tr.path.ys[0]) == (0.0, (0.5,))
    assert tr(0.0) == 0.5


def test_negative_direction():
    tr = rk_solve(problem("1", "0", 2, 1.0), -1.0)
    assert tr(-1.0) == pytest.approx(1.0 / math.e, rel=1e-9)
    ts = tr.path.ts
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
    tr = rk_solve(problem("1", "0", 2, 1.0), 1.0)
    with pytest.raises(ValueError):
        tr(2.0)
    with pytest.raises(ValueError):
        tr(-0.1)


def test_convergence_with_tolerance():
    # error scales roughly like tol^(5/6) for a tolerance-proportional
    # controller, so a 16x tolerance cut must buy at least a 4x error cut
    p = problem("0", "1", 2, 1.0)
    errors = []
    for scale in (1.0, 1.0 / 16.0, 1.0 / 256.0):
        cfg = OracleConfig(rel_tol=1e-6 * scale, abs_tol=1e-7 * scale)
        errors.append(abs(rk_solve(p, 0.9, cfg)(0.9) - 10.0))
    assert errors[0] / errors[1] >= 4.0
    assert errors[1] / errors[2] >= 4.0
    assert errors[2] <= 1e-8


def test_direction_symmetry_oracle_only():
    # even a, odd b with its y-axis partner: two independent solves must
    # reproduce y2(-t) = y1(t) without any closed-form involvement
    p1 = problem("cos(t)", "sin(t)", 2, 1.0)
    p2 = transform_problem(p1, "T3i")
    tr1 = rk_solve(p1, 0.8)
    tr2 = rk_solve(p2, -0.8)
    for k in range(9):
        t = 0.1 * k
        y1 = tr1(t)
        y2 = tr2(-t)
        assert abs(y2 - y1) <= 1e-7 * (1.0 + abs(y1))


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_blow_up_agrees_with_validity_asymptote(d):
    p = problem("0", "1", 2, d)
    tr = rk_solve(p, 2.0 / d)
    v = validity_interval(p, 5.0)
    assert tr.blew_up
    assert abs(tr.t_last - v.hi) <= 1e-3


def test_domain_error_when_solution_hits_zero_with_even_root():
    # y' = -sqrt(y) reaches y = 0 at t = 2 and cannot continue
    with pytest.raises(DomainError):
        rk_solve(problem("0", "-(1)", "1/2", 1.0), 3.0)


def test_step_budget_exhaustion_is_step_failure():
    with pytest.raises(StepFailure):
        rk_solve(problem("0", "1", 2, 1.0), 0.999999, OracleConfig(max_steps=10))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        OracleConfig(max_steps=0)
