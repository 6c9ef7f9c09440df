import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from bsym import (
    CASE_BY_ID,
    CATALOG,
    BsymError,
    CaseNotApplicable,
    DomainError,
    Parity,
    ProblemSpec,
    Relation,
    Validity,
    applicable_cases,
    classify_exponent,
    detect_parity,
    eval_solution,
    expr,
    parse_expr,
    oracle,
    problem,
    solution_values,
    transform_problem,
    validity_interval,
    verify_cases,
    verify_pair,
)
from bsym.errors import StepFailure
from bsym.exponent import ExponentClass, minus_one, reflections
from bsym.stepper import grid_values
from bsym.symmetry import DEFAULT_SEARCH_RADIUS, explain_inapplicable

from helpers import (
    SPIKED_B,
    bench_inputs,
    conforming_problem,
    count_calls,
    counting_walks,
    random_problem,
    split_sign,
)

_E, _O = Parity.EVEN, Parity.ODD

# (class or None, required parity or None, flips (a, b, d), relation): the
# paper's table, kept literally as the reference for the derived signs
EXPECTED_ROWS = {
    "T2i": ("even/odd", (_E, _O), (True, True, True), Relation.ORIGIN),
    "T2ii": ("even/odd", (_O, _E), (False, False, True), Relation.ORIGIN),
    "T2iii": ("even/odd", (_E, _E), (True, False, True), Relation.ORIGIN),
    "T2iv": ("even/odd", None, (False, True, True), Relation.T_AXIS),
    "T3i": (None, (_E, _O), (True, False, False), Relation.Y_AXIS),
    "T3ii": (None, (_O, _E), (False, True, False), Relation.Y_AXIS),
    "T3iii": (None, (_E, _E), (True, True, False), Relation.Y_AXIS),
    "T4i": ("odd/odd", (_O, _E), (False, True, True), Relation.ORIGIN),
    "T4ii": ("odd/odd", None, (False, False, True), Relation.T_AXIS),
    "T4iii": ("odd/odd", (_E, _O), (True, False, True), Relation.ORIGIN),
    "T4iv": ("odd/odd", (_E, _E), (True, True, True), Relation.ORIGIN),
}


def test_catalog_is_complete_and_exact():
    assert len(CATALOG) == 11
    assert [c.id for c in CATALOG] == list(EXPECTED_ROWS)
    for case in CATALOG:
        cls, parity, flips, relation = EXPECTED_ROWS[case.id]
        assert (case.cls.value if case.cls else None) == cls
        assert case.parity == parity
        assert tuple(sign < 0 for sign in case.signs) == flips
        assert case.relation is relation


def test_d_flip_follows_relation():
    # y-axis rows preserve d; origin and t-axis rows flip it
    for case in CATALOG:
        assert case.signs[2] == (1 if case.relation is Relation.Y_AXIS else -1)


def test_relations_are_the_reflections_they_name():
    # y2(r t) = s y1(t)
    assert (Relation.ORIGIN.r, Relation.ORIGIN.s) == (-1, -1)
    assert (Relation.T_AXIS.r, Relation.T_AXIS.s) == (1, -1)
    assert (Relation.Y_AXIS.r, Relation.Y_AXIS.s) == (-1, 1)


def test_partners_follow_the_reflection_rule():
    # a2(t) = r a1(r t), b2(t) = r s^(1-p) b1(r t) and d2 = s d, with the
    # partner's coefficients evaluated from its own tree
    rng = random.Random(2718)
    ts = [k * 0.13 - 3.9 for k in range(61)]
    for case in CATALOG:
        r, s = case.relation.r, case.relation.s
        for _ in range(6):
            p = conforming_problem(case, rng)
            p2 = transform_problem(p, case)
            s_pow = s ** (1 - p.n.p)
            assert p2.d == s * p.d
            assert p2.n is p.n
            for t in ts:
                assert p2.a(t) == pytest.approx(r * p.a(r * t), rel=1e-12, abs=1e-12)
                assert p2.b(t) == pytest.approx(
                    r * s_pow * p.b(r * t), rel=1e-12, abs=1e-12
                )


def test_str_and_cases_print_the_same_transform(tmp_path, capsys):
    from bsym.cli import main

    for case in CATALOG:
        p = conforming_problem(case, random.Random(case.id))
        path = tmp_path / f"{case.id}.json"
        path.write_text(json.dumps(
            {"a": p.a.source, "b": p.b.source, "n": str(p.n), "d": repr(p.d)}
        ))
        assert main(["cases", "--problem", str(path)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        (relation, transform), = [row[1:] for row in rows if row[0] == case.id]
        assert relation == case.relation.value
        assert str(case) == f"{case.id}({transform} -> {relation})"


def test_negative_d_needs_an_odd_denominator():
    # an even-denominator exponent refuses d < 0 when the problem is built,
    # so no catalog row has to: a y-axis partner keeps d, and the others
    # need an odd denominator by their class
    a, b = parse_expr("cos(t)"), parse_expr("t")
    for p, q in ((1, 2), (3, 2), (-1, 2), (1, 4)):
        with pytest.raises(DomainError, match="even denominator"):
            ProblemSpec(a, b, classify_exponent(p, q), -1.0)
    for p, q in ((2, 1), (2, 3), (3, 1), (1, 3), (1, 1)):
        assert ProblemSpec(a, b, classify_exponent(p, q), -1.0).d == -1.0


# --- applicability ----------------------------------------------------------------

def test_applicable_riccati_even_odd():
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    assert [c.id for c in applicable_cases(p)] == ["T2i", "T2iv", "T3i"]


def test_applicable_odd_odd_negative_d():
    p = problem("t", "cos(t)", 3, -1.0)
    assert [c.id for c in applicable_cases(p)] == ["T3ii", "T4i", "T4ii"]


def test_applicable_neither_parity_odd_over_even():
    p = problem("t + 1", "t + 1", "1/2", 1.0)
    assert applicable_cases(p) == []


def test_inapplicable_reasons_name_the_hypothesis():
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    assert "exponent" in explain_inapplicable(p, "T4i")
    assert "a(t)" in explain_inapplicable(p, "T2ii")
    assert explain_inapplicable(p, "T2i") is None


def test_parity_walks_each_tree_once(monkeypatch):
    # verify --case all asks for the parities of a and b per case, per path
    # side and per oracle request, and compiles both for the quadrature and
    # the oracle; a parsed tree of a known shape is filed with its record
    # and never walked, and a tree no parse returned is walked once for all
    for text in ("cos(t)", "sin(t)", SPIKED_B):  # known shapes
        parse_expr(text)
    roots = counting_walks(monkeypatch)
    monkeypatch.setattr(expr, "_records", {})
    expr.detect_parity.cache_clear()
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    reports = verify_cases(p, applicable_cases(p))
    assert [r.passed for r in reports] == [True] * 3
    assert roots == []
    # a b whose parity the rules leave open is sampled on the function
    # bound from the same record; no reflection is certified for it, so the
    # cases' negated a and b are built partner trees, each walked once
    q = problem("cos(t)", SPIKED_B, 2, 1.0)
    verify_cases(q, applicable_cases(q))
    assert detect_parity(q.b) is Parity.ODD
    assert roots == ["-(cos(t))", f"-({q.b.source})"]


def test_wrong_class_reasons_are_exact():
    # the hint names the row's exponent class in words
    assert explain_inapplicable(problem("cos(t)", "sin(t)", 3, 1.0), "T2i") == (
        "T2i requires an even-numerator/odd-denominator exponent; n = 3 is odd/odd"
    )
    assert explain_inapplicable(problem("t", "1", "1/2", 1.0), "T4ii") == (
        "T4ii requires an odd-numerator/odd-denominator exponent; n = 1/2 is odd/even"
    )


def test_unknown_case_id_rejected():
    with pytest.raises(ValueError):
        transform_problem(problem("0", "1", 2, 1.0), "T9x")


# --- transforms -------------------------------------------------------------------

def test_transform_t_axis_riccati():
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    p2 = transform_problem(p, "T2iv")
    assert p2.a.source == "cos(t)"
    assert p2.b.source == "-(sin(t))"
    assert p2.d == -1.0
    assert p2.n is p.n


def test_transform_y_axis_even_even():
    p = problem("cos(t)", "t^2", 2, 0.5)
    p2 = transform_problem(p, "T3iii")
    assert p2.a.source == "-(cos(t))"
    assert p2.b.source == "-(t^2)"
    assert p2.d == 0.5


def test_transform_t_axis_odd_odd():
    p = problem("t", "1", 3, -2.0)
    p2 = transform_problem(p, "T4ii")
    assert (p2.a.source, p2.b.source, p2.d) == ("t", "1", 2.0)


def test_transform_requires_applicability():
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    with pytest.raises(CaseNotApplicable):
        transform_problem(p, "T4i")
    forced = transform_problem(p, "T4i", force=True)
    assert forced.b.source == "-(sin(t))"


def test_transform_involution():
    rng = random.Random(1234)
    ts = [k * 0.07 - 3.5 for k in range(101)]
    for case in CATALOG:
        for _ in range(3):
            p = conforming_problem(case, rng)
            back = transform_problem(transform_problem(p, case), case)
            assert back.d == p.d
            assert back.n == p.n
            for t in ts:
                assert back.a(t) == pytest.approx(p.a(t), abs=1e-14)
                assert back.b(t) == pytest.approx(p.b(t), abs=1e-14)


def test_transformed_parity_is_recomputed_not_assumed():
    from bsym import detect_parity

    p = problem("cos(t)", "sin(t)", 2, 1.0)
    p2 = transform_problem(p, "T2i")
    assert detect_parity(p2.a) is Parity.EVEN
    assert detect_parity(p2.b) is Parity.ODD


# --- verification -------------------------------------------------------------------

def test_verify_riccati_origin_oracle():
    rep = verify_pair(problem("cos(t)", "sin(t)", 2, 1.0), "T2i", 51, 1e-6, "oracle")
    assert rep.passed
    assert rep.relation is Relation.ORIGIN
    assert rep.max_residual <= 1e-6 * (1.0 + rep.y_scale)
    assert len(rep.grid) == 51


def test_verify_t_axis_closed_form():
    rep = verify_pair(problem("t", "1", 3, -2.0), "T4ii", 51, 1e-6, "closed")
    assert rep.passed
    assert rep.relation is Relation.T_AXIS


def test_verify_rejects_inapplicable_case():
    with pytest.raises(CaseNotApplicable):
        verify_pair(problem("cos(t)", "sin(t)", 2, 1.0), "T4i")


def test_verify_rejects_tiny_grid():
    with pytest.raises(ValueError):
        verify_pair(problem("cos(t)", "sin(t)", 2, 1.0), "T2i", grid_points=2)


def test_verify_methods_agree():
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    for case in ("T2i", "T2iv", "T3i"):
        oracle = verify_pair(p, case, 21, 1e-6, "oracle")
        closed = verify_pair(p, case, 21, 1e-6, "closed")
        assert oracle.grid == closed.grid
        for ro, rc in zip(oracle.residuals, closed.residuals):
            assert abs(ro - rc) <= 1e-5


def test_relation_soundness_sampled():
    # one random conforming problem per case, verified by the oracle
    rng = random.Random(5150)
    for case in CATALOG:
        p = conforming_problem(case, rng)
        rep = verify_pair(p, case, 31, 1e-6, "oracle")
        assert rep.passed, (case.id, p.a.source, p.b.source, str(p.n), p.d)


def test_verify_cases_equals_one_verify_pair_per_case():
    # the sampled conforming problem of every catalog row that admits more
    # than one case: the cases share one common interval and one grid, so
    # p1's one solve there serves them all as one verify_pair per case would
    rng = random.Random(5150)
    checked = 0
    for row in CATALOG:
        p = conforming_problem(row, rng)
        cases = applicable_cases(p)
        if len(cases) < 2:
            continue
        checked += 1
        for method in ("oracle", "closed"):
            reports = verify_cases(p, cases, method=method)
            assert len({r.common_validity for r in reports}) == 1
            assert reports == [verify_pair(p, c, method=method) for c in cases]
    assert checked >= 5


@pytest.mark.parametrize("method", ["oracle", "closed"])
def test_verify_cases_walks_p1_once_per_distinct_time(monkeypatch, method):
    # the three cases share one interval and so one grid: p1's dense
    # output is asked for each of its 51 times once, not three times
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    cases = applicable_cases(p)
    assert [c.id for c in cases] == ["T2i", "T2iv", "T3i"]
    expected = [verify_pair(p, c, method=method) for c in cases]
    calls = []  # per grid_values call, the times of each walk

    class Recorded:
        def __init__(self, path, walks):
            self.path, self.walks = path, walks

        def values(self, qs):
            self.walks.append(list(qs))
            return self.path.values(qs)

        def first_crossing(self, k, level):
            return self.path.first_crossing(k, level)

    def recording(solve, ts, *read):
        walks = []
        calls.append(walks)
        return grid_values(lambda t_end: Recorded(solve(t_end), walks), ts, *read)

    monkeypatch.setattr("bsym.oracle.grid_values", recording)
    monkeypatch.setattr("bsym.closedform.grid_values", recording)
    reports = verify_cases(p, cases, method=method)
    assert reports == expected
    assert len(calls) == 1  # p1 alone: every partner is certified and reads p1's values
    p1_times = [t for walk in calls[0] for t in walk]
    assert sorted(p1_times) == sorted(set(expected[0].grid))
    assert len(p1_times) == len(expected[0].grid) == 51
    assert all(r.grid == expected[0].grid for r in expected)


@pytest.mark.parametrize("method", ["oracle", "closed"])
def test_verify_cases_with_differing_intervals_agrees_with_verify_pair(method):
    # b = 1 + t has no parity: G = 1 - t - t^2/2 vanishes at -1 -+ sqrt(3),
    # T2iv's partner shares those zeros, forced T2i's reflects them, so the
    # common intervals differ and p1's path runs past one case's grid
    p = problem("0", "1 + t", 2, 1.0)
    cases = ["T2i", "T2iv"]
    joined = verify_cases(p, cases, method=method, force=True)
    single = [verify_pair(p, c, method=method, force=True) for c in cases]
    assert joined[0].common_validity != joined[1].common_validity
    assert joined == single
    assert [r.passed for r in joined] == [False, True]


# the showcase problems of scripts/run_catalog.py
SHOWCASE = [
    problem("cos(t)", "sin(t)", 2, 1.0),
    problem("0", "1", 2, 1.0),
    problem("t", "cos(t)", 3, -1.0),
    problem("-(t^2/9)", "cos(t)", "1/2", 1.5),
    problem("cos(t)", "sin(t)", 1, 2.0),
    problem("sin(t)", "cos(t)", -1, 0.8),
]


def _outcome(compute):
    """compute()'s result, or its typed error's type and text."""
    try:
        return compute()
    except BsymError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("method", ["oracle", "closed"])
def test_verify_cases_equals_verify_pair_in_every_mix(monkeypatch, method):
    # each case stands alone: certified cases read p1's one solve, and an
    # uncertified one solves p1 and its partner on its own grid, so a list
    # of cases gives, bit for bit, one verify_pair per case, errors included,
    # whatever mix of certified and uncertified cases and intervals it holds
    rng = random.Random(2323)
    sets = [(p, CATALOG) for p in SHOWCASE] + [(random_problem(rng), CATALOG) for _ in range(12)]
    sets.append((problem("0", "1 + t", 2, 1.0), ["T2i", "T2iv"]))
    for p, cases in sets:
        assert _outcome(lambda: verify_cases(p, cases, method=method, force=True)) == _outcome(
            lambda: [verify_pair(p, c, method=method, force=True) for c in cases]
        ), (p, method)
    # a list whose partner cannot be built raises before any integration,
    # where one verify_pair per case integrates the cases before it
    p = problem("-(t^2/9)", "cos(t)", "1/2", 1.5)
    calls = _integrations(monkeypatch)
    with pytest.raises(DomainError, match="even denominator"):
        verify_cases(p, ["T3iii", "T2i"], method=method, force=True)
    assert calls == ([], [])


def _common(v1, v2, r):
    """v1 intersected with v2 reflected by r; v1's end and kind on a tie."""
    ends2 = [(v2.lo, v2.lo_kind), (v2.hi, v2.hi_kind)]
    (lo2, lo2_kind), (hi2, hi2_kind) = ends2 if r > 0 else [(-t, k) for t, k in ends2[::-1]]
    lo, lo_kind = (lo2, lo2_kind) if lo2 > v1.lo else (v1.lo, v1.lo_kind)
    hi, hi_kind = (hi2, hi2_kind) if hi2 < v1.hi else (v1.hi, v1.hi_kind)
    return Validity(lo, hi, lo_kind, hi_kind)


def test_every_forced_common_interval_holds_zero_and_is_the_intersection():
    # both problems start at t = 0, so no common interval is ever empty
    outcomes = []
    for p in SHOWCASE:
        applicable = {c.id for c in applicable_cases(p)}
        for case in CATALOG:
            if case.id in applicable:
                continue
            try:
                rep = verify_pair(p, case, method="closed", force=True)
            except DomainError:
                outcomes.append("DomainError")
                continue
            outcomes.append(rep.verdict)
            v1 = validity_interval(p, DEFAULT_SEARCH_RADIUS)
            v2 = validity_interval(transform_problem(p, case, force=True), DEFAULT_SEARCH_RADIUS)
            assert rep.common_validity.contains(0.0)
            assert rep.common_validity == _common(v1, v2, case.relation.r)
    assert {"DomainError", "fail", "pass"} <= set(outcomes)


def _integrations(monkeypatch):
    """The recorded nested_path and rk_solve calls."""
    return (
        count_calls(monkeypatch, "bsym.quad", "nested_path"),
        count_calls(monkeypatch, "bsym.oracle", "rk_solve"),
    )


def test_verify_cases_of_no_cases_does_no_work(monkeypatch):
    calls = _integrations(monkeypatch)
    for method in ("oracle", "closed"):
        assert verify_cases(problem("cos(t)", "sin(t)", 2, 1.0), [], method=method) == []
    assert calls == ([], [])


def test_verify_cases_rejects_an_inapplicable_case_before_integrating(monkeypatch):
    calls = _integrations(monkeypatch)
    for method in ("oracle", "closed"):
        with pytest.raises(CaseNotApplicable, match="T4i requires"):
            verify_cases(problem("cos(t)", "sin(t)", 2, 1.0), ["T2i", "T4i"], method=method)
    assert calls == ([], [])


def test_verify_cases_rejects_an_unknown_method_before_integrating(monkeypatch):
    calls = _integrations(monkeypatch)
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    for cases in (["T2i"], []):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            verify_cases(p, cases, method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        verify_pair(p, "T2i", method="bogus")
    assert calls == ([], [])


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"tol": -1.0}, "tol must be positive and finite"),
        ({"tol": 0.0}, "tol must be positive and finite"),
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"grid_points": 3.5}, "grid_points must be an int >= 3"),
        ({"grid_points": 2}, "grid_points must be an int >= 3"),
    ],
)
def test_verify_cases_rejects_a_bad_tol_or_grid_before_integrating(monkeypatch, kwargs, match):
    # tol = nan or -1 would fail a relation that holds, and tol = inf
    # would pass anything; 3.5 points would reach range() as a TypeError
    calls = _integrations(monkeypatch)
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    for method in ("oracle", "closed"):
        for cases in (["T2i"], []):
            with pytest.raises(ValueError, match=match):
                verify_cases(p, cases, method=method, **kwargs)
        with pytest.raises(ValueError, match=match):
            verify_pair(p, "T2i", method=method, **kwargs)
    assert calls == ([], [])


def test_grid_stays_inside_common_validity():
    rep = verify_pair(problem("0", "1", 2, 1.0), "T2iv", 51, 1e-6, "closed")
    lo, hi = rep.common_validity.lo, rep.common_validity.hi
    assert all(lo < t < hi for t in rep.grid)
    # y1 = 1/(1-t) and its t-axis partner 1/(t-1) share all of t < 1
    assert hi == pytest.approx(1.0, abs=1e-6)
    assert rep.common_validity.hi_kind.value == "Asymptote"
    assert lo == -4.0  # default search radius
    assert rep.common_validity.lo_kind.value == "SearchLimit"


# --- negative cases: violated hypotheses must break the relations -------------------

@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["p1", "partner"])
def test_a_case_with_a_value_that_is_not_finite_fails(monkeypatch, bad, where):
    # inf - inf is NaN, which max() skips, and y_scale = inf makes any
    # residual pass the scaled rule: a case passes only on finite values.
    # T3i holds for both problems; only structural parity certifies it, so
    # the second's partner is solved on its own paths
    p = problem("cos(t)", "sin(t)" if where == "p1" else "sin(t) + 0.0*exp(t)", 2, 1.0)

    def spoiled(q, ts):
        ys = solution_values(q, ts)
        if (q is p) is (where == "p1"):
            ys[len(ys) // 2] = bad
        return ys

    assert verify_cases(p, ["T3i"], method="closed")[0].passed
    monkeypatch.setattr("bsym.symmetry.solution_values", spoiled)
    (report,) = verify_cases(p, ["T3i"], method="closed")
    assert not report.passed
    assert not all(map(math.isfinite, report.residuals))


def test_forced_origin_violation_has_large_residual():
    # T2i forced onto a problem whose a is not even
    p = problem("t + 1", "0", 2, 1.0)
    rep = verify_pair(p, "T2i", 31, 1e-6, "oracle", force=True)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_forced_t_axis_violation_has_large_residual():
    # T2iv's transform applied to an odd/odd problem (wrong class)
    p = problem("1", "1", 3, 1.0)
    rep = verify_pair(p, "T2iv", 31, 1e-6, "oracle", force=True)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_forced_y_axis_violation_has_large_residual():
    # T3i forced although a is odd, not even
    p = problem("t", "t", 2, 1.0)
    rep = verify_pair(p, "T3i", 31, 1e-6, "oracle", force=True)
    assert not rep.passed
    assert rep.max_residual > 1e-2


# --- a certified partner is read from p1's solve ----------------------------

def _own_oracle_values(p, ts):
    """Oracle y of p on ts from p's own `rk_solve` toward each side's
    farthest point, sharing no path with another problem or side."""

    def solve(t_end):
        path = oracle.rk_solve(p, t_end)  # looked up per call, for count_calls
        if path.blew_up:
            raise StepFailure(f"oracle blew up at t={path.t_reached!r} before reaching {t_end!r}")
        return path

    return [y for (y,) in grid_values(solve, ts)]


def _general_route(monkeypatch):
    """Make verify_cases certify no partner: every partner is then searched
    with p1 and solved on its own paths, the oracle's with no path shared
    between problems or sides."""
    monkeypatch.setattr("bsym.symmetry.reflections", lambda a, b, cls: [])
    monkeypatch.setattr("bsym.symmetry.solve_on_grid", _own_oracle_values)


def _outcomes(sets, method):
    """verify_cases of each (p1, cases, force), or its error's type and text."""
    out = []
    for p, cases, force in sets:
        try:
            out.append(verify_cases(p, cases, method=method, force=force))
        except BsymError as exc:
            out.append((type(exc), str(exc)))
    return out


def _showcase():
    path = Path(__file__).parents[1] / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return [p for _, p in script.SHOWCASE]


def _verify_inputs(seed):
    """The verify-all benchmark's problems at an input seed, with their cases."""
    items = bench_inputs().verify_inputs(seed, 40)
    return [(problem(i.a, i.b, i.n_text, i.d), list(i.expected_cases), False) for i in items]


def _oracle_verify_sets(name):
    """(p1, cases, force) triples: conforming problems with their applicable
    cases, random problems with every case forced, and the showcase with
    each case forced alone and all of them together."""
    if name == "conforming":
        rng = random.Random(23)
        problems = [conforming_problem(case, rng) for case in CATALOG for _ in range(2)]
        return [(p, applicable_cases(p), False) for p in problems]
    if name == "random":
        rng = random.Random(2323)
        return [(random_problem(rng), CATALOG, True) for _ in range(12)]
    sets = []
    for p in _showcase():
        sets += [(p, [case], True) for case in CATALOG] + [(p, CATALOG, True)]
    return sets


@pytest.mark.parametrize("name", ["conforming", "random", "showcase"])
def test_oracle_reports_equal_those_of_each_problems_own_solves(monkeypatch, name):
    # a certified partner read as p1 reflected must give the report, or the
    # error, that its own integration gives, floats included; this also
    # checks that the platform's sin and sinh are exactly odd, cos and cosh
    # exactly even and pow exactly sign-symmetric, which the t-mirrors rely on
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    sets = _oracle_verify_sets(name)
    certified = _outcomes(sets, "oracle")
    certified_solves = len(solves)
    solves.clear()
    _general_route(monkeypatch)
    own = _outcomes(sets, "oracle")
    assert certified == own
    reports = [r for outcome in certified if isinstance(outcome, list) for r in outcome]
    assert len(reports) >= len(certified)  # mostly reports, not errors
    assert certified_solves < len(solves)  # and certified partners solved nothing


@pytest.mark.parametrize("method", ["closed", "oracle"])
@pytest.mark.parametrize("inputs", ["showcase", 1, 2, 3])
def test_certified_reports_equal_those_of_the_general_route(monkeypatch, inputs, method):
    # `bsym verify --case all` on the showcase and on the verify-all
    # benchmark's problems: reading each certified partner as p1 reflected
    # changes no report and no error, bit for bit
    if inputs == "showcase":
        sets = [(p, applicable_cases(p), False) for p in _showcase()]
    else:
        sets = _verify_inputs(inputs)
    searched = count_calls(monkeypatch, "bsym.symmetry", "validity_interval")
    certified = _outcomes(sets, method)
    assert [call[0] for call in searched] == [p for p, _, _ in sets]  # p1 alone, each time
    _general_route(monkeypatch)
    assert certified == _outcomes(sets, method)
    assert sum(isinstance(outcome, list) for outcome in certified) >= len(sets) - 1


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_a_certified_case_runs_no_partner_search_or_solve(monkeypatch, method):
    p = problem("cos(t)", "sin(t)", 2, 1.0)
    cases = applicable_cases(p)
    searched = count_calls(monkeypatch, "bsym.symmetry", "validity_interval")
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    paths = count_calls(monkeypatch, "bsym.quad", "nested_path")
    values = count_calls(monkeypatch, "bsym.symmetry", "solution_values")
    reports = verify_cases(p, cases, method=method)
    assert [call[0] for call in searched] == [p]
    assert len(paths) == 2  # p1's two sides of the search; the closed form reads them
    grid = reports[0].grid
    if method == "oracle":
        assert [(call[0], call[1]) for call in solves] == [(p, grid[-1]), (p, grid[0])]
    else:
        assert not solves and [call[0] for call in values] == [p]
    for case, report in zip(cases, reports):
        assert report.common_validity == reports[0].common_validity and report.grid == grid
        assert report.residuals == (0.0,) * 51 and report.passed


@pytest.mark.parametrize("method", ["closed", "oracle"])
@pytest.mark.parametrize(
    "a, b, case, force",
    [
        ("t + 1", "0", "T2i", True),  # forced: a is not even
        ("cos(t)", "sin(t) + 0.0*exp(t)", "T3i", False),  # b is odd by sampling only
    ],
)
def test_an_uncertified_partner_is_solved_on_its_own_paths(monkeypatch, method, a, b, case, force):
    p = problem(a, b, 2, 1.0)
    p2 = transform_problem(p, case, force=force)
    searched = count_calls(monkeypatch, "bsym.symmetry", "validity_interval")
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    values = count_calls(monkeypatch, "bsym.symmetry", "solution_values")
    (report,) = verify_cases(p, [case], method=method, force=force)
    assert [call[0] for call in searched] == [p, p2]
    if method == "oracle":
        assert [call[0] for call in solves] == [p, p, p2, p2]
    else:
        assert [call[0] for call in values] == [p, p2]
    assert report.passed is not force


def _reflection_keys(p):
    """p's views as sign-split trees, a = sa*a0 and b = sb*b0: as the
    (A, B) triples they read, (r, (a0, b0, ka*sa*(n-1))), and as the
    problems they name, (r, s, (a0, b0, n, ka*sa, kb*sb, kd*d)), the
    identity first."""
    m = minus_one(p.n)
    (sa, a0), (sb, b0) = split_sign(p.a), split_sign(p.b)
    identity = (1.0, 1.0, 1, 1, 1)
    quad = [(r, (a0, b0, ka * sa * m)) for r, _, ka, _, _ in [identity, *reflections(p.a, p.b)]]
    oracle = [
        (r, s, (a0, b0, p.n, ka * sa, kb * sb, kd * p.d))
        for r, s, ka, kb, kd in [identity, *reflections(p.a, p.b, p.n.cls)]
    ]
    return quad, oracle


@pytest.mark.parametrize("case", CATALOG, ids=lambda case: case.id)
def test_a_partners_own_key_is_one_of_p1s_reflection_keys(case):
    # so `exponent.reflections` names every catalog partner as p1 reflected
    # by the case's (r, s), both as an (A, B) triple and as a problem: the
    # certificate by which `verify_cases` reads the partner from p1's solve
    rng = random.Random(case.id)
    r, s = case.relation.r, case.relation.s
    for _ in range(4):
        p1 = conforming_problem(case, rng)
        quad1, oracle1 = _reflection_keys(p1)
        quad2, oracle2 = _reflection_keys(transform_problem(p1, case))
        assert (r, quad2[0][1]) in quad1
        assert (r, s, oracle2[0][2]) in oracle1


@pytest.mark.parametrize("cls", [*ExponentClass, None])
def test_a_sampled_parity_yields_no_t_mirror(cls):
    views = reflections(parse_expr("cos(t)"), parse_expr(SPIKED_B), cls)
    assert all(r == 1 for r, *_ in views)


def test_certification_by_signs_equals_sign_split_trees():
    # a forced partner is certified by its signs exactly where its a and b,
    # as sign-split trees, and its d are the problem a view of p1 names
    # with the case's (r, s): the signs say what the trees would.  Checked
    # with all 11 cases forced on the showcase, 12 random problems and 2
    # conforming problems per case
    rng, conforming = random.Random(2323), random.Random(23)
    problems = [*_showcase(), *(random_problem(rng) for _ in range(12))]
    problems += [conforming_problem(case, conforming) for case in CATALOG for _ in range(2)]
    counts = {True: 0, False: 0}
    for p1 in problems:
        views = reflections(p1.a, p1.b, p1.n.cls)
        (sa, a0), (sb, b0) = split_sign(p1.a), split_sign(p1.b)
        named = {(r, s, (ka * sa, a0), (kb * sb, b0), kd * p1.d) for r, s, ka, kb, kd in views}
        for case in CATALOG:
            try:
                p2 = transform_problem(p1, case, force=True)
            except DomainError:
                continue
            r, s = case.relation.r, case.relation.s
            by_trees = (r, s, split_sign(p2.a), split_sign(p2.b), p2.d) in named
            assert ((r, s, *case.signs) in views) is by_trees, (p1, case.id)
            counts[by_trees] += 1
    assert min(counts.values()) > 50, counts
