import random

import pytest

from bsym import (
    CASE_BY_ID,
    CATALOG,
    CaseNotApplicable,
    Parity,
    Relation,
    applicable_cases,
    eval_solution,
    problem,
    transform_problem,
    verify_cases,
    verify_pair,
)
from bsym.exponent import ExponentClass
from bsym.symmetry import explain_inapplicable

from helpers import conforming_problem

_E, _O = Parity.EVEN, Parity.ODD

# (class set or None, required parity or None, flips (a, b, d), relation)
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
        if cls is None:
            assert case.classes is None
        else:
            assert case.classes == frozenset(
                {c for c in ExponentClass if c.value == cls}
            )
        assert case.parity == parity
        assert (case.flip_a, case.flip_b, case.flip_d) == flips
        assert case.relation is relation


def test_d_flip_follows_relation():
    # y-axis rows preserve d; origin and t-axis rows flip it
    for case in CATALOG:
        assert case.flip_d == (case.relation is not Relation.Y_AXIS)


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
    # than one case
    rng = random.Random(5150)
    checked = 0
    for row in CATALOG:
        p = conforming_problem(row, rng)
        cases = applicable_cases(p)
        if len(cases) < 2:
            continue
        checked += 1
        assert verify_cases(p, cases) == [verify_pair(p, c) for c in cases]
    assert checked >= 5


def _forbid_validity(monkeypatch):
    import bsym.symmetry as symmetry

    def fail(*args, **kwargs):
        raise AssertionError("validity_interval called")

    monkeypatch.setattr(symmetry, "validity_interval", fail)


def test_verify_cases_of_no_cases_does_no_work(monkeypatch):
    _forbid_validity(monkeypatch)
    assert verify_cases(problem("cos(t)", "sin(t)", 2, 1.0), []) == []


def test_verify_cases_rejects_an_inapplicable_case_before_integrating(monkeypatch):
    _forbid_validity(monkeypatch)
    with pytest.raises(CaseNotApplicable, match="T4i requires"):
        verify_cases(problem("cos(t)", "sin(t)", 2, 1.0), ["T2i", "T4i"])


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
