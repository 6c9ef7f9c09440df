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
    radicand,
    signed_pow,
    solution_values,
    solve_on_grid,
    validity_interval,
    validity_intervals,
)
from bsym import closedform, quad
from bsym.closedform import ProblemSpec
from bsym.quad import DEFAULT_QUAD_CONFIG, ab_values
from bsym.exponent import ExponentClass, classify_exponent

from helpers import conforming_problem, count_calls, random_problem, simpson

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
    # (b, 1), (-b, 1) and (b, 2) as (B's coefficient, n-1): three integrands,
    # however many d; the unit exponent integrates nothing
    b = "0.5 + t"
    ps = [problem("cos(t)", b, 2, d) for d in (1.0, -1.0, 0.5)]
    ps += [problem("cos(t)", f"-({b})", 2, 1.0), problem("cos(t)", b, 3, 2.0)]
    ps += [problem("cos(t)", b, 1, 1.0)]
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = validity_intervals(ps, 4.0)
    assert len(calls) == 3 * 2
    monkeypatch.undo()
    assert got == [validity_interval(p, 4.0) for p in ps]
    assert len({v.hi for v in got[:3]}) == 3  # d moves the level


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
    # same a, b, n-1 and cfg: both sides come from the searched paths
    ab_values(p.a, p.b, 1.0, [-3.0, -0.5, 0.0, 0.5, 3.0])
    assert calls == []
    # any one of a, b, n-1 or cfg differing integrates a fresh path
    other = problem("cos(t)", "sin(t)", 2, 1.0)
    for args in (
        (other.a, p.b, 1.0, [0.5], DEFAULT_QUAD_CONFIG),
        (p.a, other.b, 1.0, [0.5], DEFAULT_QUAD_CONFIG),
        (p.a, p.b, 2.0, [0.5], DEFAULT_QUAD_CONFIG),
        (p.a, p.b, 1.0, [0.5], QuadConfig(rel_tol=1e-9)),
    ):
        calls.clear()
        ab_values(*args)
        assert [call[3] for call in calls] == [0.5], args[2:]


def test_ab_values_reuses_only_the_matching_side(monkeypatch):
    # b has a pole at t = -1: the search keeps its path to +4, then fails
    # toward -4, so only the right side of 0 has a searched path
    p = problem("0", "1/(1 + t)", 2, 0.05)
    with pytest.raises(NoConvergence):
        validity_interval(p, 4.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    ab_values(p.a, p.b, 1.0, [0.5])
    assert calls == []
    assert ab_values(p.a, p.b, 1.0, [-0.5])[0][1] == pytest.approx(-math.log(2.0), rel=1e-9)
    assert [call[3] for call in calls] == [-0.5]


def test_ab_values_past_the_searched_path_integrates_afresh(monkeypatch):
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    validity_interval(p, 1.0)
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    got = ab_values(p.a, p.b, 1.0, [-1.0, 0.5, 2.0])
    assert [call[3] for call in calls] == [2.0]  # the left side reuses its path
    monkeypatch.undo()
    quad._search_paths()
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
    from bsym import verify_cases

    validity_interval(problem("cos(t)", "1", 3, 1.0), 4.0)  # forgotten below
    p = problem("sin(t)", "cos(t)", 2, 1.0)
    verify_cases(p, ["T2ii", "T2iv", "T3ii"], method="closed")
    keys = {(k[0].source, k[1].source, k[2], k[4]) for k in quad._searched}
    assert len(quad._searched) == 4 and keys == {
        (a, b, 1.0, side) for a, b in (("sin(t)", "cos(t)"), ("sin(t)", "-(cos(t))"))
        for side in (1.0, -1.0)
    }
    # a grid's fresh paths, here past the searched radius, are not kept
    solution_values(problem("0", "1", 2, 0.1), [-5.0, 5.0])
    assert len(quad._searched) == 4
    assert {(k[0].source, k[1].source, k[2], k[4]) for k in quad._searched} == keys


def test_an_oracle_verification_keeps_no_searched_paths(monkeypatch):
    # the oracle integrates y itself, so its validity search's (A, B) paths
    # are forgotten at once; the closed form answers its grids from them
    from bsym import verify_cases

    p = problem("sin(t)", "cos(t)", 2, 1.0)
    verify_cases(p, ["T2ii", "T2iv"], method="oracle")
    assert quad._searched == {}
    verify_cases(p, ["T2ii", "T2iv"], method="closed")
    assert len(quad._searched) == 4
    calls = count_calls(monkeypatch, "bsym.quad", "nested_path")
    solution_values(p, [-1.0, 0.5])
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
        got = ab_values(p.a, p.b, m, ts)
        monkeypatch.undo()
        reused += not calls
        quad._search_paths()
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
            monkeypatch.setattr(closedform, "ab_values", lambda a, b, m, ts, cfg: pairs)
            got = outcome(lambda: solution_values(p, ts))
            assert got == outcome(lambda: reference_solution_values(p, pairs, ts)), (aval, bval)
            if p.n.cls is not ExponentClass.ONE:
                seen.add(math.copysign(1.0, g0 - m * bval) if g0 - m * bval else 0.0)
    if p.n.cls is not ExponentClass.ONE:
        assert seen >= {-1.0, 1.0}  # G = 0 exactly: test_solution_at_a_zero_radicand


def test_solution_loop_error_texts(monkeypatch):
    def at(n, d, pair):
        monkeypatch.setattr(closedform, "ab_values", lambda a, b, m, ts, cfg: [pair])
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
    monkeypatch.setattr(closedform, "ab_values", lambda a, b, mult, ts, cfg: [(0.0, 1.0 / m)])
    assert 1.0 - m * (1.0 / m) == 0.0
    if y is None:
        with pytest.raises(OutsideValidity, match="requires positivity"):
            solution_values(p, [0.5])
    else:
        assert solution_values(p, [0.5]) == [y]
