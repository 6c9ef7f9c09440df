"""End-to-end CLI contract tests: exit codes 0-4, golden outputs, round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SPIKED_B, cli_env

GOLDEN = Path(__file__).parent / "golden"

RICCATI = {"a": "0", "b": "1", "n": "2", "d": "1"}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bsym", *args],
        capture_output=True,
        text=True,
        env=cli_env(env),
    )


def write_problem(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# --- solve -----------------------------------------------------------------------

def test_solve_golden_csv(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "out.csv"
    res = run_cli(
        "solve", "--problem", prob, "--t-min", "0", "--t-max", "0.5",
        "--points", "3", "--method", "closed", "--out", str(out),
    )
    assert res.returncode == 0
    assert out.read_bytes() == (GOLDEN / "solve_riccati.csv").read_bytes()
    # every golden row is the exact solution y = 1/(1 - t) to the last bits
    rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
    assert len(rows) == 3
    for t, y in rows:
        exact = 1.0 / (1.0 - float(t))
        assert abs(float(y) - exact) <= 1e-15 * exact


def test_solve_csv_shape(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "out.csv"
    res = run_cli(
        "solve", "--problem", prob, "--t-min", "-0.4", "--t-max", "0.4",
        "--points", "5", "--method", "oracle", "--out", str(out),
    )
    assert res.returncode == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,y"
    assert lines[-1].startswith("# validity: [")
    assert len(lines) == 7  # header + 5 rows + footer


def test_solve_clips_to_validity(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "out.csv"
    res = run_cli(
        "solve", "--problem", prob, "--t-min", "0", "--t-max", "2",
        "--points", "21", "--out", str(out),
    )
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    data = [line for line in lines[1:] if not line.startswith("#")]
    assert all(float(line.split(",")[0]) < 1.0 for line in data)
    footer = lines[-1]
    assert "Asymptote" in footer
    hi = float(footer.split("]")[0].split(",")[1])
    assert hi == pytest.approx(1.0, abs=1e-6)


def test_solve_syntax_error_is_exit_1(tmp_path):
    prob = write_problem(tmp_path / "p.json", {**RICCATI, "a": "t^sin(t)"})
    res = run_cli("solve", "--problem", prob, "--t-min", "0", "--t-max", "1",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 1
    assert "parse error" in res.stderr


@pytest.mark.parametrize(
    "a",
    ["1" * 401, "(" * 300 + "t" + ")" * 300, "-" * 300 + "t", "+".join(["t"] * 250)],
    ids=["401-digit-literal", "parens-300", "minus-300", "sum-250"],
)
def test_solve_unparseable_coefficient_is_exit_1(tmp_path, a):
    # a non-finite literal and three over-deep expressions, each of which
    # used to end in a traceback
    prob = write_problem(tmp_path / "p.json", {**RICCATI, "a": a})
    out = tmp_path / "x.csv"
    res = run_cli("solve", "--problem", prob, "--t-min", "0", "--t-max", "1",
                  "--out", str(out))
    assert res.returncode == 1
    assert "parse error" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_solve_domain_error_is_exit_2(tmp_path):
    prob = write_problem(tmp_path / "p.json", {**RICCATI, "d": "0"})
    res = run_cli("solve", "--problem", prob, "--t-min", "0", "--t-max", "1",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_solve_bad_range_is_exit_2(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    res = run_cli("solve", "--problem", prob, "--t-min", "1", "--t-max", "0",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


@pytest.mark.parametrize("t_min,t_max", [("-1", "inf"), ("-inf", "1"), ("nan", "1")])
def test_solve_non_finite_range_is_exit_2(tmp_path, t_min, t_max):
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": "1", "d": "0.5"}
    )
    out = tmp_path / "x.csv"
    res = run_cli("solve", "--problem", prob, f"--t-min={t_min}", f"--t-max={t_max}",
                  "--out", str(out))
    assert res.returncode == 2
    assert "must be finite" in res.stderr
    assert not out.exists()


def test_solve_unit_exponent_overflow_is_exit_2(tmp_path):
    # y = exp(100 t) overflows a float before t = 8
    prob = write_problem(tmp_path / "p.json", {"a": "100", "b": "0", "n": "1", "d": "1"})
    res = run_cli("solve", "--problem", prob, "--t-min", "0", "--t-max", "8",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "overflow" in res.stderr
    assert "Traceback" not in res.stderr


# d^(1-n) = 1e400 overflows a float before any integration starts
TINY_D = {"a": "0", "b": "1", "n": "3", "d": "1e-200"}


def test_solve_tiny_initial_value_is_exit_2(tmp_path):
    prob = write_problem(tmp_path / "p.json", TINY_D)
    out = tmp_path / "x.csv"
    res = run_cli("solve", "--problem", prob, "--t-min", "-1", "--t-max", "1",
                  "--out", str(out))
    assert res.returncode == 2
    assert "d=1e-200" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_solve_on_a_subnormal_range(tmp_path, method):
    # the oracle once spent its whole step budget at t = 0.0 on such a range
    # and exited 2; both methods answer y = d at every point
    prob = write_problem(tmp_path / "p.json", {"a": "cos(t)", "b": "cos(t)", "n": "2", "d": "1"})
    out = tmp_path / "out.csv"
    res = run_cli(
        "solve", "--problem", prob, "--t-min", "-1e-322", "--t-max", "1e-322",
        "--points", "3", "--method", method, "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
    assert [float(t) for t, _ in rows] == [-1e-322, 0.0, 1e-322]
    assert [float(y) for _, y in rows] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_verify_tiny_initial_value_is_exit_2(tmp_path, method):
    prob = write_problem(tmp_path / "p.json", TINY_D)
    report = tmp_path / "r.json"
    res = run_cli("verify", "--problem", prob, "--case", "all", "--method", method,
                  "--report", str(report))
    assert res.returncode == 2
    assert "d=1e-200" in res.stderr
    assert "Traceback" not in res.stderr
    assert not report.exists()


# y' = y^2 with its pole at t = 1e-13; the oracle's first trial step overflows
STEEP = {"a": "0", "b": "1", "n": "2", "d": "1e13"}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_oracle_overflow_is_exit_2(tmp_path, command):
    prob = write_problem(tmp_path / "p.json", STEEP)
    out = tmp_path / "out"
    if command == "solve":
        args = ("--t-min", "-1", "--t-max", "1", "--out", str(out))
    else:
        args = ("--case", "all", "--report", str(out))
    res = run_cli(command, "--problem", prob, "--method", "oracle", *args)
    assert res.returncode == 2
    assert "right-hand side overflow" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


# exponents whose float forms break: n - 1 rounds to 0.0, and n overflows
NEAR_ONE = f"{10**400 + 1}/{10**400}"
HUGE = str(10**400)


@pytest.mark.parametrize(
    "command, n",
    [
        pytest.param("solve", NEAR_ONE, id="solve-near-one"),
        pytest.param("verify", NEAR_ONE, id="verify-near-one"),
        pytest.param("cases", NEAR_ONE, id="cases-near-one"),
        pytest.param("pair", NEAR_ONE, id="pair-near-one"),
        # once read as "initial value d=1.0 is too small"
        pytest.param("solve", HUGE, id="solve-huge"),
        pytest.param("identities", HUGE, id="identities-huge"),
    ],
)
def test_an_exponent_out_of_float_range_is_exit_2(tmp_path, command, n):
    prob = write_problem(tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": n, "d": "1"})
    out = str(tmp_path / "out")
    args = {
        "solve": ("--problem", prob, "--t-min", "-1", "--t-max", "1", "--out", out),
        "verify": ("--problem", prob, "--report", out),
        "cases": ("--problem", prob),
        "pair": ("--problem", prob, "--case", "T2ii", "--out", out),
        "identities": ("cos(t)", "sin(t)", n),
    }[command]
    res = run_cli(command, *args)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    [line] = res.stderr.splitlines()
    assert line == f"bsym: exponent n={n}: n, n-1 or 1/(n-1) is out of float range"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [HUGE, NEAR_ONE], ids=["huge", "near-one"])
def test_identities_check_the_exponent_when_every_identity_is_skipped(capsys, n):
    # a = b = t meets no identity's parity premise, so no identity runs
    from bsym.cli import main

    assert main(["identities", "t", "t", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bsym: exponent n={n}: n, n-1 or 1/(n-1) is out of float range\n"


def test_a_tiny_exponent_still_solves(tmp_path):
    # n = 3e-400 is 0.0 as a float, but n - 1 = -1.0 and 1/(n - 1) are fine
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": f"3/{10**400}", "d": "1"}
    )
    out = tmp_path / "out.csv"
    res = run_cli("solve", "--problem", prob, "--t-min", "-1", "--t-max", "1",
                  "--points", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 5


def test_verify_closed_form_stops_at_the_pole_next_to_zero(tmp_path):
    prob = write_problem(tmp_path / "p.json", STEEP)
    report = tmp_path / "r.json"
    res = run_cli("verify", "--problem", prob, "--method", "closed", "--report", str(report))
    assert res.returncode == 0
    for entry in json.loads(report.read_text()):
        validity = entry["validity"]
        assert validity["hi_kind"] == "Asymptote"
        assert validity["hi"] == pytest.approx(1e-13, rel=1e-12)


# --- cases -----------------------------------------------------------------------

def test_cases_golden(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    res = run_cli("cases", "--problem", prob)
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "cases_riccati.txt").read_text()


def test_cases_empty_is_exit_0(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", {"a": "t + 1", "b": "1", "n": "1/2", "d": "1"}
    )
    res = run_cli("cases", "--problem", prob)
    assert res.returncode == 0
    assert res.stdout == ""


def test_cases_unknown_key_is_exit_1(tmp_path):
    prob = write_problem(tmp_path / "p.json", {**RICCATI, "extra": 1})
    res = run_cli("cases", "--problem", prob)
    assert res.returncode == 1


def test_cases_malformed_json_is_exit_1(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    res = run_cli("cases", "--problem", str(path))
    assert res.returncode == 1


@pytest.mark.parametrize("n", [None, [2], {"p": 2}])
def test_cases_exponent_of_another_type_is_exit_1(tmp_path, capsys, n):
    from bsym.cli import main

    prob = write_problem(tmp_path / "p.json", {**RICCATI, "n": n})
    assert main(["cases", "--problem", prob]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bsym: parse error: ") and "exponent must be text or a number" in err


@pytest.mark.parametrize("key", ["n", "d"])
def test_cases_boolean_exponent_or_initial_value_is_exit_1(tmp_path, capsys, key):
    from bsym.cli import main

    prob = write_problem(tmp_path / "p.json", {**RICCATI, key: True})
    assert main(["cases", "--problem", prob]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bsym: parse error: {prob}: key {key!r} must be text or a number, not a boolean\n"


# --- pair ------------------------------------------------------------------------

def test_pair_golden(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "pair.json"
    res = run_cli("pair", "--problem", prob, "--case", "T2iv", "--out", str(out))
    assert res.returncode == 0
    assert out.read_bytes() == (GOLDEN / "pair_t2iv.json").read_bytes()


def test_pair_inapplicable_is_exit_3(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "x.json"
    res = run_cli("pair", "--problem", prob, "--case", "T4i", "--out", str(out))
    assert res.returncode == 3
    assert res.stderr == (
        "bsym: case not applicable: T4i requires an odd-numerator/odd-denominator "
        "exponent; n = 2 is even/odd\n"
    )
    assert not out.exists()


def test_pair_preserves_sign_conventions(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", {"a": "t", "b": "1", "n": "3", "d": "-2"}
    )
    out = tmp_path / "pair.json"
    res = run_cli("pair", "--problem", prob, "--case", "T4ii", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data == {"a": "t", "b": "1", "n": "3", "d": "2", "relation": "t-axis"}


def test_pair_applied_twice_gives_back_the_problem(tmp_path):
    src = {"a": "cos(t)", "b": "-(sin(t))", "n": "2", "d": "1"}
    prob = write_problem(tmp_path / "p.json", src)
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run_cli("pair", "--problem", prob, "--case", "T2iv", "--out", str(once)).returncode == 0
    assert json.loads(once.read_text())["b"] == "sin(t)"
    assert run_cli("pair", "--problem", str(once), "--case", "T2iv", "--out", str(twice)).returncode == 0
    assert json.loads(twice.read_text()) == {**src, "relation": "t-axis"}


def test_pair_too_deep_to_read_back_is_exit_2(tmp_path):
    # b at exactly the 100-level bound; its T2iv partner -(b) is 101 deep
    deep = "sin(" * 99 + "t" + ")" * 99
    prob = write_problem(tmp_path / "p.json", {"a": "0", "b": deep, "n": "2", "d": "1"})
    out = tmp_path / "pair.json"
    res = run_cli("pair", "--problem", prob, "--case", "T2iv", "--out", str(out))
    assert res.returncode == 2
    assert "partner coefficient b cannot be written" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


# --- verify ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--points", "2", "--points must be >= 3"),
        ("--tol", "nan", "--tol must be positive and finite"),
        ("--tol", "inf", "--tol must be positive and finite"),
        ("--tol", "0", "--tol must be positive and finite"),
    ],
)
def test_verify_bad_options_are_exit_2(tmp_path, option, value, message):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    report = tmp_path / "r.json"
    res = run_cli("verify", "--problem", prob, f"{option}={value}", "--report", str(report))
    assert res.returncode == 2
    assert res.stderr == f"bsym: {message}\n"
    assert res.stdout == ""
    assert not report.exists()


def test_verify_all_passes_and_report_schema(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": "2", "d": "1"}
    )
    report = tmp_path / "rep.json"
    res = run_cli(
        "verify", "--problem", prob, "--case", "all", "--points", "21",
        "--tol", "1e-6", "--method", "oracle", "--report", str(report),
    )
    assert res.returncode == 0
    data = json.loads(report.read_text())
    assert [r["case"] for r in data] == ["T2i", "T2iv", "T3i"]
    for r in data:
        assert set(r) == {
            "case", "relation", "max_residual", "grid_size", "validity", "verdict"
        }
        assert set(r["validity"]) == {"lo", "hi", "lo_kind", "hi_kind"}
        assert r["verdict"] == "pass"
        assert r["grid_size"] == 21


def test_verify_inapplicable_case_is_exit_3(tmp_path):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    report = tmp_path / "r.json"
    res = run_cli("verify", "--problem", prob, "--case", "T3i", "--report", str(report))
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == "bsym: case not applicable: T3i requires b(t) odd; got even\n"
    assert not report.exists()


@pytest.mark.parametrize("method", ["closed", "oracle"])
def test_verify_all_with_no_applicable_case_is_exit_3(tmp_path, method):
    # an empty report would read as a pass without a single residual
    prob = write_problem(
        tmp_path / "p.json", {"a": "t+1", "b": "t+1", "n": "1/2", "d": "1"}
    )
    report = tmp_path / "r.json"
    res = run_cli("verify", "--problem", prob, "--case", "all", "--method", method,
                  "--report", str(report))
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == "bsym: case not applicable: no catalog case applies to this problem\n"
    assert not report.exists()


def test_verify_all_integrates_each_distinct_path_once(tmp_path, monkeypatch):
    # a odd, b even: T2ii flips d only, T2iv and T3ii both flip b, and the
    # path of (a, -b) is that of (a, b) with B negated, so the validity
    # search integrates the (A, B) path of (a, b) alone; with a odd and b
    # even its path toward -4 is its path toward +4 read at -t with B
    # negated, so one integration serves both sides (it was one per side
    # before reflections were shared).  The oracle solves p1 once per side
    # for all three cases; every partner's y is p1's read through a
    # reflection (T2ii: y2(-t) = -y1(t); T2iv: y2 = -y1; T3ii: y2(-t) = y1(t)),
    # and the cases share one grid, so each partner side reads a mirror
    # of one of p1's two paths and integrates nothing
    from bsym.cli import main
    from helpers import count_calls

    nested = count_calls(monkeypatch, "bsym.quad", "nested_path")
    solves = count_calls(monkeypatch, "bsym.oracle", "rk_solve")
    prob = write_problem(
        tmp_path / "p.json", {"a": "sin(t)", "b": "cos(t)", "n": "2", "d": "1"}
    )
    report = tmp_path / "rep.json"
    # (method, nested_path calls, rk_solve calls); the closed form answers
    # every grid from the validity search's paths, which reach +-4
    for method, want_nested, want_solves in (("oracle", 1, 2), ("closed", 1, 0)):
        nested.clear()
        solves.clear()
        args = ["verify", "--problem", prob, "--case", "all", "--method", method]
        assert main([*args, "--report", str(report)]) == 0
        assert [r["case"] for r in json.loads(report.read_text())] == ["T2ii", "T2iv", "T3ii"]
        assert (len(nested), len(solves)) == (want_nested, want_solves), method

    # a partner that flips only d (T2ii on even/odd n, T4ii on odd/odd n)
    # has p1's (A, B): the closed form integrates p1's side toward +4, whose
    # reflection is its side toward -4, and nothing of its own
    odd_odd = write_problem(
        tmp_path / "q.json", {"a": "sin(t)", "b": "cos(t)", "n": "3", "d": "1"}
    )
    for path, case in ((prob, "T2ii"), (odd_odd, "T4ii")):
        nested.clear()
        args = ["verify", "--problem", path, "--case", case, "--method", "closed"]
        assert main([*args, "--report", str(report)]) == 0
        assert [(call[0].source, call[1].source, call[3]) for call in nested] == [
            ("sin(t)", "cos(t)", 4.0)
        ], case

    # sampling, not structure, calls SPIKED_B odd, so no reflection in t is
    # certified: T2i's partner (r = -1) integrates both of its own sides,
    # and its residual shows that the relation fails
    spiked = write_problem(
        tmp_path / "s.json", {"a": "cos(t)", "b": SPIKED_B, "n": "2", "d": "1"}
    )
    solves.clear()
    args = ["verify", "--problem", spiked, "--case", "T2i", "--method", "oracle"]
    assert main([*args, "--report", str(report)]) == 4
    assert len(solves) == 4
    assert [call[0].d for call in solves] == [1.0, 1.0, -1.0, -1.0]  # d2 = -d1


def test_verify_failure_is_exit_4(tmp_path):
    # the hidden bump defeats sampled parity, so T2i applies formally but the
    # predicted relation genuinely fails
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": SPIKED_B, "n": "2", "d": "1"}
    )
    report = tmp_path / "rep.json"
    res = run_cli(
        "verify", "--problem", prob, "--case", "T2i", "--points", "21",
        "--report", str(report),
    )
    assert res.returncode == 4
    data = json.loads(report.read_text())
    assert data[0]["verdict"] == "fail"
    assert data[0]["max_residual"] > 1e-2


def test_verify_round_trip_through_pair(tmp_path):
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": "2", "d": "1"}
    )
    pair_file = tmp_path / "pair.json"
    run_cli("pair", "--problem", prob, "--case", "T2i", "--out", str(pair_file))
    rep1 = tmp_path / "rep1.json"
    rep2 = tmp_path / "rep2.json"
    res1 = run_cli("verify", "--problem", prob, "--case", "T2i",
                   "--report", str(rep1))
    res2 = run_cli("verify", "--problem", str(pair_file), "--case", "T2i",
                   "--report", str(rep2))
    assert res1.returncode == res2.returncode == 0
    r1 = json.loads(rep1.read_text())[0]
    r2 = json.loads(rep2.read_text())[0]
    assert r1["verdict"] == r2["verdict"] == "pass"
    assert abs(r1["max_residual"] - r2["max_residual"]) <= 1e-8


def test_run_catalog_exit_code(monkeypatch, capsys):
    import importlib.util

    from bsym import problem

    path = Path(__file__).parents[1] / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--method", "closed", "--points", "21"])
    monkeypatch.setattr(script, "SHOWCASE", [("riccati", problem("0", "1", 2, 1.0))])
    assert script.main() == 0
    monkeypatch.setattr(script, "SHOWCASE", [("spiked", problem("cos(t)", SPIKED_B, 2, 1.0))])
    assert script.main() == 4
    assert "fail" in capsys.readouterr().out


# --- identities --------------------------------------------------------------------

def test_identities_routing_and_exit_0():
    res = run_cli("identities", "cos(t)", "sin(t)", "3", "--t-max", "2.0",
                  "--samples", "4")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    eq4 = [l for l in lines if l.startswith("Eq4\tt=")]
    assert len(eq4) == 4
    assert all(float(l.rsplit("=", 1)[1]) <= 1e-9 for l in eq4)
    assert any(l.startswith("Eq7\tskipped") for l in lines)
    assert any(l.startswith("Eq8\tskipped") for l in lines)


def test_identities_even_even_routes_eq8_eq9():
    res = run_cli("identities", "cos(t)", "cos(t)", "2", "--t-max", "2.0",
                  "--samples", "3")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert sum(l.startswith("Eq8\tt=") for l in lines) == 3
    assert sum(l.startswith("Eq9\tt=") for l in lines) == 3
    assert any(l.startswith("Eq4\tskipped") for l in lines)


def test_identities_read_each_one_sided_grid_from_one_path(capsys, monkeypatch):
    # the CLI's grid t_max*(i+1)/samples lies on one side of 0; with a and b
    # even, the right side of Eq8 and of Eq9 reads the mirror of its left
    # side's path: one integration per identity, not two
    from bsym.cli import main
    from helpers import count_calls

    nested = count_calls(monkeypatch, "bsym.quad", "nested_path")
    assert main(["identities", "cos(t)", "1", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted({line.split("\t")[0] for line in lines if "\tt=" in line}) == ["Eq8", "Eq9"]
    assert len(nested) == 2


def test_identities_parse_error_is_exit_1():
    res = run_cli("identities", "cos(t", "sin(t)", "3")
    assert res.returncode == 1


def test_identities_bad_exponent_is_exit_1(capsys):
    from bsym.cli import main

    assert main(["identities", "cos(t)", "sin(t)", "1.5"]) == 1
    assert capsys.readouterr().err.startswith("bsym: parse error: ")


@pytest.mark.parametrize("command", ["pair", "verify"])
def test_unknown_case_id_is_exit_1(tmp_path, capsys, command):
    from bsym.cli import main

    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = "--out" if command == "pair" else "--report"
    assert main([command, "--problem", prob, "--case", "T9", out, str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "bsym: parse error: unknown case id 'T9'\n"
    assert not (tmp_path / "x").exists()


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int() digit limit")
_MANY_DIGITS = "9" * max(5000, _DIGIT_LIMIT + 1)


def test_problem_file_that_is_not_utf8_is_exit_1(tmp_path, capsys):
    from bsym.cli import main

    prob = tmp_path / "p.json"
    prob.write_bytes(b"\xff\xfe" + json.dumps(RICCATI).encode("utf-16-le"))
    assert main(["cases", "--problem", str(prob)]) == 1
    assert capsys.readouterr().err.startswith(f"bsym: parse error: {prob} is not valid JSON: ")


@needs_digit_limit
@pytest.mark.parametrize("key", ["n", "d"])
def test_problem_file_integer_past_the_digit_limit_is_exit_1(tmp_path, capsys, key):
    from bsym.cli import main

    text = json.dumps({**RICCATI, key: 0}).replace(f'"{key}": 0', f'"{key}": {_MANY_DIGITS}')
    prob = tmp_path / "p.json"
    prob.write_text(text, encoding="utf-8")
    assert main(["cases", "--problem", str(prob)]) == 1
    assert capsys.readouterr().err.startswith(f"bsym: parse error: {prob} is not valid JSON: ")


@needs_digit_limit
def test_identities_exponent_of_a_power_past_the_digit_limit_is_exit_1(capsys):
    from bsym.cli import main

    assert main(["identities", "t^" + _MANY_DIGITS, "1", "2"]) == 1
    assert capsys.readouterr().err.startswith("bsym: parse error: ")


# README's exit codes and stderr prefixes, per error type: 1 parse error,
# 2 domain or quadrature error, 3 case not applicable
_ERROR_EXITS = {
    "BsymError": (2, ""),
    "ExprSyntaxError": (1, "parse error: "),
    "ProblemFileError": (1, "parse error: "),
    "_ArgumentError": (1, "parse error: "),
    "EvalError": (2, ""),
    "ZeroDenominator": (2, ""),
    "DomainError": (2, ""),
    "NoConvergence": (2, ""),
    "ParityViolation": (2, ""),
    "OutsideValidity": (2, ""),
    "CaseNotApplicable": (3, "case not applicable: "),
    "EmptyDomain": (2, "empty domain: "),
    "StepFailure": (2, ""),
    "OutputFileError": (2, ""),
}


def test_every_error_type_has_a_documented_exit():
    from bsym import cli  # noqa: F401, defines the CLI's own error types
    from bsym.errors import BsymError

    assert {"BsymError", *(c.__name__ for c in BsymError.__subclasses__())} == set(_ERROR_EXITS)


@pytest.mark.parametrize("name", _ERROR_EXITS)
def test_error_type_sets_exit_code_and_prefix(tmp_path, monkeypatch, capsys, name):
    from bsym import cli, errors

    cls = getattr(errors, name, None) or getattr(cli, name)
    exc = cls("boom", 3) if cls is errors.ExprSyntaxError else cls("boom")

    def broken(p):
        raise exc

    monkeypatch.setattr(cli, "applicable_cases", broken)
    prob = write_problem(tmp_path / "p.json", RICCATI)
    code, prefix = _ERROR_EXITS[name]
    assert cli.main(["cases", "--problem", prob]) == code
    assert capsys.readouterr().err == f"bsym: {prefix}{exc}\n"


def test_library_value_error_is_exit_2(tmp_path, monkeypatch, capsys):
    # a ValueError raised past parsing (a dense-path range error, say) is
    # not a parse error
    from bsym import cli

    def broken(*args, **kwargs):
        raise ValueError("t=5.0 outside integrated range [0.0, 4.0]")

    monkeypatch.setattr(cli, "validity_interval", broken)
    prob = write_problem(tmp_path / "p.json", RICCATI)
    args = ["solve", "--problem", prob, "--t-min", "0", "--t-max", "1", "--out", str(tmp_path / "x.csv")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "bsym: t=5.0 outside integrated range [0.0, 4.0]\n"


@pytest.mark.parametrize("t_max", ["nan", "inf", "0", "1e308"])
def test_identities_bad_t_max_is_exit_2(t_max):
    res = run_cli("identities", "cos(t)", "cos(t)", "2", "--t-max", t_max)
    assert res.returncode == 2
    assert res.stdout == ""


def test_identities_failure_is_exit_4():
    res = run_cli("identities", "cos(t)", SPIKED_B, "3", "--t-max", "3.0",
                  "--samples", "4")
    assert res.returncode == 4


def test_cases_do_not_depend_on_bsym_seed(tmp_path):
    import os

    # parity takes no seed: the sampler's points are fixed, so BSYM_SEED
    # in the environment changes no catalog answer
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": SPIKED_B, "n": "2", "d": "1"}
    )
    plain = run_cli("cases", "--problem", prob)
    seeded = run_cli("cases", "--problem", prob, env={**os.environ, "BSYM_SEED": "2"})
    assert plain.returncode == seeded.returncode == 0
    assert [line.split()[0] for line in plain.stdout.splitlines()] == ["T2i", "T2iv", "T3i"]
    assert seeded.stdout == plain.stdout


# --- output paths that cannot be written -------------------------------------------

_WRITES = {
    "solve": ["--t-min", "0", "--t-max", "0.5", "--points", "3", "--out"],
    "pair": ["--case", "T2iv", "--out"],
    "verify": ["--case", "T2iv", "--report"],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", _WRITES)
def test_an_unwritable_output_path_is_exit_2(tmp_path, capsys, command, where):
    # a typed error naming the path, no traceback, no file and, for verify,
    # no report rows on stdout, since the rows follow the written report
    from bsym.cli import main

    prob = write_problem(tmp_path / "p.json", RICCATI)
    target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--problem", prob, *_WRITES[command], str(target)]) == 2
    out, err = capsys.readouterr()
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert err == f"bsym: cannot write {target}: {reason}\n"
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


# --- option values that start with '-' ------------------------------------------
# argparse reads a value such as -1e-05 or -inf (anything but a plain
# negative decimal) as an option name; both spellings must reach the option

def spelled(option, value, joined):
    return [f"{option}={value}"] if joined else [option, value]


def main_in_process(capsys, argv):
    from bsym import cli

    code = cli.main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("joined", [False, True])
def test_solve_takes_a_negative_time_in_exponent_notation(tmp_path, capsys, joined):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "x.csv"
    argv = ["solve", "--problem", prob, *spelled("--t-min", "-1e-05", joined),
            *spelled("--t-max", "-1e-06", joined), "--points", "3", "--out", str(out)]
    code, _ = main_in_process(capsys, argv)
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("-1.0000000000000001e-05,")


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_solve_non_finite_negative_time_is_exit_2(tmp_path, capsys, joined, value):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    argv = ["solve", "--problem", prob, *spelled("--t-min", value, joined), "--t-max", "1",
            "--out", str(tmp_path / "x.csv")]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: --t-min and --t-max must be finite\n"


def test_solve_grid_whose_step_overflows_is_exit_2(tmp_path, capsys):
    # t_max - t_min overflows: the grid would be nan and inf, and no row kept
    prob = write_problem(tmp_path / "p.json", RICCATI)
    out = tmp_path / "x.csv"
    argv = ["solve", "--problem", prob, "--t-min", "-1e308", "--t-max", "1e308",
            "--points", "3", "--out", str(out)]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: the grid from --t-min to --t-max overflows a float\n"
    assert not out.exists()


def test_identities_times_whose_product_overflows_are_exit_2(capsys):
    # t_max is finite, but t_max * (i + 1) overflows before the division
    argv = ["identities", "cos(t)", "sin(t)", "2", "--t-max", "1e308", "--samples", "3"]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: --t-max * --samples overflows a float\n"


@pytest.mark.parametrize("joined", [False, True])
def test_identities_negative_t_max_in_exponent_notation_is_exit_2(capsys, joined):
    argv = ["identities", "cos(t)", "cos(t)", "2", *spelled("--t-max", "-1e-05", joined)]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: --t-max must be positive and finite\n"


@pytest.mark.parametrize("joined", [False, True])
def test_verify_negative_tol_in_exponent_notation_is_exit_2(tmp_path, capsys, joined):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    argv = ["verify", "--problem", prob, *spelled("--tol", "-1e-05", joined),
            "--report", str(tmp_path / "r.json")]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: --tol must be positive and finite\n"


def test_arguments_after_the_separator_are_not_joined():
    from bsym.cli import _normalised

    assert _normalised(["identities", "--samples", "-1e0", "--", "--t-max", "-1e-05"]) == [
        "identities", "--samples=-1e0", "--", "--t-max", "-1e-05"]
    # a leading separator is kept once, with everything after it
    assert _normalised(["--", "x"]) == ["--", "x"]
    assert _normalised(["--"]) == ["--"]
    # every long option but --help takes one value, a number or not
    assert _normalised(["solve", "--t-min", "-x", "--t-max", "-2", "--out"]) == [
        "solve", "--t-min=-x", "--t-max=-2", "--out"]
    # abbreviations are joined too, and argparse resolves or rejects them
    assert _normalised(["solve", "--t-mi", "-inf", "--t", "-1e-05", "--out", "-1e-05"]) == [
        "solve", "--t-mi=-inf", "--t=-1e-05", "--out=-1e-05"]


def test_a_path_value_starting_with_a_dash_reaches_its_option(tmp_path, monkeypatch, capsys):
    # "-p.json" and "-y.csv" are joined to their options like a negative number
    monkeypatch.chdir(tmp_path)
    write_problem(tmp_path / "-p.json", RICCATI)
    code, captured = main_in_process(capsys, ["cases", "--problem", "-p.json"])
    assert code == 0 and captured.err == ""
    argv = ["solve", "--problem", "-p.json", "--t-min", "-0.5", "--t-max", "0.5",
            "--points", "3", "--out", "-y.csv"]
    code, captured = main_in_process(capsys, argv)
    assert code == 0 and captured.err == ""
    assert (tmp_path / "-y.csv").read_text().startswith("t,y\n-0.5,")


def test_a_joined_value_that_does_not_parse_is_still_a_usage_error(tmp_path, capsys):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    with pytest.raises(SystemExit) as info:
        main_in_process(capsys, ["solve", "--problem", prob, "--t-min", "-x", "--t-max", "1",
                                 "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert "argument --t-min: invalid float value: '-x'" in capsys.readouterr().err


def test_an_abbreviated_option_takes_a_negative_number(tmp_path, capsys):
    prob = write_problem(tmp_path / "p.json", RICCATI)
    argv = ["solve", "--problem", prob, "--t-mi", "-inf", "--t-max", "1", "--out", str(tmp_path / "x.csv")]
    code, captured = main_in_process(capsys, argv)
    assert code == 2
    assert captured.err == "bsym: --t-min and --t-max must be finite\n"


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    from bsym import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    prob = write_problem(tmp_path / "p.json", RICCATI)
    for _ in range(3):
        assert cli.main(["cases", "--problem", prob]) == 0
    assert built == [1]
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv, separated", [
    (["cos(t)", "-t^2", "2"], ["--", "cos(t)", "-t^2", "2"]),
    (["cos(t)", "cos(t)", "-1/2", "--samples", "2"], ["--samples", "2", "--", "cos(t)", "cos(t)", "-1/2"]),
    (["--t-max", "1", "-t^2", "cos(t)", "2"], ["--t-max", "1", "--", "-t^2", "cos(t)", "2"]),
    (["cos(t)", "--samples=2", "-t^2", "2", "-h"], ["--samples=2", "-h", "--", "cos(t)", "-t^2", "2"]),
])
def test_identities_positional_starting_with_a_dash(capsys, argv, separated):
    # argparse reads "-t^2" or "-1/2" as an option unless it follows `--`:
    # main moves the positionals there itself
    from bsym.cli import _normalised

    assert _normalised(["identities", *argv]) == ["identities", *separated]
    if "-h" not in argv:
        code, captured = main_in_process(capsys, ["identities", *argv])
        assert code == 0 and captured.err == ""
        assert (code, captured) == main_in_process(capsys, ["identities", *separated])


def test_identities_missing_positional_after_a_dash_is_still_a_usage_error(capsys):
    from bsym.cli import main

    with pytest.raises(SystemExit) as info:
        main(["identities", "cos(t)", "-t^2"])
    assert info.value.code == 2
    assert "the following arguments are required: n" in capsys.readouterr().err
