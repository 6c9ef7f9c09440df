"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are fixed here; every numeric component runs at its
default configuration.
"""

import importlib.util
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bsym import (
    CATALOG,
    CASE_BY_ID,
    DomainError,
    ExponentClass,
    Parity,
    applicable_cases,
    classify_exponent,
    eval_solution,
    identity_residuals,
    parse_expr,
    problem,
    solution_values,
    solve_on_grid,
    transform_problem,
    validity_interval,
    verify_pair,
)
from bsym.expr import detect_parity
from bsym.quad import Identity

from helpers import (
    LEMMA_EXPONENTS,
    cli_env,
    conforming_problem,
    random_even_source,
    random_odd_source,
    random_problem,
    split_sign,
)

GOLDEN = Path(__file__).parent / "golden"
IDENTITY_T_SET = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert passed, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_lemma_suite():
    start = time.monotonic()
    rng = random.Random(20101)
    worst = 0.0
    for _ in range(200):
        a = parse_expr(random_even_source(rng))
        b = parse_expr(random_odd_source(rng))
        n = classify_exponent(*rng.choice(LEMMA_EXPONENTS))
        worst = max(worst, max(identity_residuals(Identity.EQ4, a, b, n, IDENTITY_T_SET)))
    elapsed = time.monotonic() - start
    _report(
        1,
        "lemma suite (200 even/odd pairs)",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_identity_suite():
    rng = random.Random(20202)
    worst = 0.0
    plans = (
        (Identity.EQ7, random_odd_source, random_even_source),
        (Identity.EQ8, random_even_source, random_even_source),
        (Identity.EQ9, random_even_source, random_even_source),
    )
    for ident, gen_a, gen_b in plans:
        for _ in range(200):
            a, b = parse_expr(gen_a(rng)), parse_expr(gen_b(rng))
            n = classify_exponent(*rng.choice(LEMMA_EXPONENTS))
            worst = max(worst, max(identity_residuals(ident, a, b, n, IDENTITY_T_SET)))
    _report(
        2,
        "mirrored-integral identities Eq7/Eq8/Eq9",
        worst <= 1e-8,
        f"worst residual {worst:.2e}",
    )


def test_criterion_3_theorem_suite():
    start = time.monotonic()
    rng = random.Random(20303)
    worst = 0.0
    checked = 0
    for case in CATALOG:
        for _ in range(50):
            p = conforming_problem(case, rng)
            rep = verify_pair(p, case, 51, 1e-6, "oracle")
            checked += 1
            worst = max(worst, rep.max_residual / (1.0 + rep.y_scale))
            assert rep.passed, (case.id, p.a.source, p.b.source, str(p.n), p.d)
    elapsed = time.monotonic() - start
    _report(
        3,
        "theorem suite (11 cases x 50 problems, oracle)",
        checked == 550 and elapsed < 180.0,
        f"worst scaled residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_vs_oracle():
    rng = random.Random(20404)
    worst = 0.0
    for _ in range(100):
        p = random_problem(rng)
        v = validity_interval(p, 4.0)
        lo, hi = v.interior()  # 1% end margins
        ts = [lo + i * (hi - lo) / 14 for i in range(15)]
        closed = solution_values(p, ts)
        oracle = solve_on_grid(p, ts)
        worst = max(
            worst,
            max(abs(c - o) / (1.0 + abs(c)) for c, o in zip(closed, oracle)),
        )
    _report(
        4,
        "closed form vs oracle (100 random problems)",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e}",
    )


def test_criterion_5_analytic_fixtures():
    from bsym import rk_solve

    start = time.monotonic()
    riccati = problem("0", "1", 2, 1.0)
    ok = abs(eval_solution(riccati, 0.5) - 2.0) <= 1e-9
    v = validity_interval(riccati, 5.0)
    ok &= abs(v.hi - 1.0) <= 1e-6
    linear_growth = problem("1", "0", 2, 1.0)
    ok &= abs(eval_solution(linear_growth, 1.0) - math.e) <= 1e-9
    ok &= abs(rk_solve(linear_growth, 1.0).value(1.0)[0] - math.e) <= 1e-9
    unit = problem("1", "1", 1, 2.0)
    ok &= abs(eval_solution(unit, 0.3) - 2.0 * math.exp(0.6)) <= 1e-10
    elapsed = time.monotonic() - start
    _report(
        5,
        "analytic fixtures",
        ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


# deliberately hypothesis-violating problems, one per catalog row
_VIOLATIONS = {
    "T2i": ("t + 1", "sin(t)", "2", 1.0),  # a not even
    "T2ii": ("t + 1", "cos(t)", "2", 1.0),  # a not odd
    "T2iii": ("cos(t)", "t + 1", "2", 1.0),  # b not even
    "T2iv": ("1", "1", "3", 1.0),  # class is odd/odd, not even/odd
    "T3i": ("t + 1", "sin(t)", "2", 1.0),
    "T3ii": ("t + 1", "cos(t)", "2", 1.0),
    "T3iii": ("cos(t)", "t + 1", "2", 1.0),
    "T4i": ("t + 1", "cos(t)", "3", 1.0),
    "T4ii": ("1", "1", "2", 1.0),  # class is even/odd, not odd/odd
    "T4iii": ("t + 1", "sin(t)", "3", 1.0),
    "T4iv": ("cos(t)", "t + 1", "3", 1.0),
}

# forcing the transform anyway must break each relation type visibly
_COUNTEREXAMPLES = (
    ("T2i", ("t + 1", "0", "2", 1.0)),  # origin
    ("T2iv", ("1", "1", "3", 1.0)),  # t-axis
    ("T3i", ("t", "t", "2", 1.0)),  # y-axis
)


def test_criterion_6_negative_cases():
    for case_id, (a, b, n, d) in _VIOLATIONS.items():
        p = problem(a, b, n, d)
        assert CASE_BY_ID[case_id] not in applicable_cases(p), case_id
    relations_broken = set()
    for case_id, (a, b, n, d) in _COUNTEREXAMPLES:
        p = problem(a, b, n, d)
        rep = verify_pair(p, case_id, 31, 1e-6, "oracle", force=True)
        assert rep.max_residual > 1e-2, (case_id, rep.max_residual)
        assert not rep.passed
        relations_broken.add(rep.relation)
    _report(
        6,
        "negative cases (rejection + forced counterexamples)",
        len(relations_broken) == 3,
        "all 11 rows reject; origin/t-axis/y-axis all break when forced",
    )


def _run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bsym", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


def test_criterion_7_cli_contract(tmp_path):
    ok = True
    details = []

    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"a": "0", "b": "1", "n": "2", "d": "1"}))

    out = tmp_path / "out.csv"
    r = _run_cli("solve", "--problem", str(prob), "--t-min", "0", "--t-max", "0.5",
                 "--points", "3", "--out", str(out))
    ok &= r.returncode == 0
    ok &= out.read_bytes() == (GOLDEN / "solve_riccati.csv").read_bytes()
    details.append(f"solve exit {r.returncode}")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": "t^sin(t)", "b": "1", "n": "2", "d": "1"}))
    r = _run_cli("cases", "--problem", str(bad))
    ok &= r.returncode == 1
    details.append(f"parse exit {r.returncode}")

    zero_d = tmp_path / "zero.json"
    zero_d.write_text(json.dumps({"a": "0", "b": "1", "n": "2", "d": "0"}))
    r = _run_cli("solve", "--problem", str(zero_d), "--t-min", "0", "--t-max", "1",
                 "--out", str(tmp_path / "x.csv"))
    ok &= r.returncode == 2
    details.append(f"domain exit {r.returncode}")

    r = _run_cli("pair", "--problem", str(prob), "--case", "T4i",
                 "--out", str(tmp_path / "x.json"))
    ok &= r.returncode == 3
    details.append(f"inapplicable exit {r.returncode}")

    spiked = tmp_path / "spiked.json"
    spiked.write_text(json.dumps({
        "a": "cos(t)",
        "b": "sin(t) + exp(-(10000*(t - 0.86)^2))",
        "n": "2",
        "d": "1",
    }))
    report = tmp_path / "rep.json"
    r = _run_cli("verify", "--problem", str(spiked), "--case", "T2i",
                 "--points", "21", "--report", str(report))
    ok &= r.returncode == 4
    details.append(f"verify-fail exit {r.returncode}")

    pair_out = tmp_path / "pair.json"
    r = _run_cli("pair", "--problem", str(prob), "--case", "T2iv",
                 "--out", str(pair_out))
    ok &= r.returncode == 0
    ok &= pair_out.read_bytes() == (GOLDEN / "pair_t2iv.json").read_bytes()

    r = _run_cli("verify", "--problem", str(prob), "--case", "all",
                 "--points", "11", "--report", str(report))
    ok &= r.returncode == 0
    data = json.loads(report.read_text())
    ok &= all(
        set(entry) == {"case", "relation", "max_residual", "grid_size", "validity", "verdict"}
        for entry in data
    )

    r = _run_cli("identities", "cos(t)", "sin(t)", "3", "--samples", "3")
    ok &= r.returncode == 0

    _report(7, "CLI contract (exit codes 0-4, golden files)", ok, "; ".join(details))


# a forced partner that is not an exact reflection must miss by at least
# this share of 1 + max |y1|: far outside the pass rule's 1e-6
NEGATIVE_CONTROL_MIN_SCALED = 0.1


def _showcase():
    """The problems of scripts/run_catalog.py."""
    path = Path(__file__).parents[1] / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return [p for _, p in script.SHOWCASE]


def _trees(p):
    """p as sign-split trees: (sign, tree) of a and of b, n and d."""
    return split_sign(p.a), split_sign(p.b), p.n, p.d


def _exact_reflections(p):
    """(r, s, partner) of every reflection the theorems make exact for p:
    the identity; the partner of each case whose hypotheses hold, where
    a = 0 is even and odd alike; and for n = 1, where y -> -y maps every
    solution to one, each of those with s and d negated."""
    zero_a = split_sign(p.a)[1] == parse_expr("0")
    parities_a = {Parity.EVEN, Parity.ODD} if zero_a else {detect_parity(p.a)}
    exact = {(1, 1, _trees(p))}
    for case in CATALOG:
        if case.cls is not None and p.n.cls is not case.cls:
            continue
        if case.parity is not None and (
            case.parity[0] not in parities_a or case.parity[1] is not detect_parity(p.b)
        ):
            continue
        partner = transform_problem(p, case, force=True)
        exact.add((case.relation.r, case.relation.s, _trees(partner)))
    if p.n.cls is ExponentClass.ONE:
        exact |= {(r, -s, (a, b, n, -d)) for r, s, (a, b, n, d) in exact}
    return exact


def test_criterion_8_negative_controls():
    # every inapplicable case of every showcase problem, forced, by both
    # routes: the verifier must fail each partner that is not an exact
    # reflection, and may pass only those the rules above compute
    outcomes = {"fail": 0, "DomainError": 0, "pass": 0}
    worst_fail = math.inf
    for p in _showcase():
        exact = _exact_reflections(p)
        applicable = {case.id for case in applicable_cases(p)}
        for case in CATALOG:
            if case.id in applicable:
                continue
            for method in ("closed", "oracle"):
                try:
                    partner = transform_problem(p, case, force=True)
                    rep = verify_pair(p, case, 51, 1e-6, method, force=True)
                except DomainError:
                    outcomes["DomainError"] += 1
                    continue
                outcomes[rep.verdict] += 1
                reflection = (case.relation.r, case.relation.s, _trees(partner))
                assert rep.passed is (reflection in exact), (str(p.a), str(p.b), str(p.n), case.id, method)
                if not rep.passed:
                    worst_fail = min(worst_fail, rep.max_residual / (1.0 + rep.y_scale))
    _report(
        8,
        "negative controls (showcase x inapplicable cases, forced, both routes)",
        outcomes == {"fail": 74, "DomainError": 16, "pass": 14}
        and worst_fail >= NEGATIVE_CONTROL_MIN_SCALED,
        f"{outcomes}; smallest scaled miss {worst_fail:.3f}",
    )
