"""End-to-end CLI contract tests: exit codes 0-4, golden outputs, round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cli_env

GOLDEN = Path(__file__).parent / "golden"

RICCATI = {"a": "0", "b": "1", "n": "2", "d": "1"}

# sin(t) plus a narrow bump the parity sampler cannot see at the default
# seed: classified odd, but the symmetry relations genuinely fail
SPIKED_B = "sin(t) + exp(-(10000*(t - 0.86)^2))"


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
    # search integrates the (A, B) path of (a, b) alone, one per side; the
    # oracle solves p1 once per side for all three cases, each partner once
    # per side on its own grid
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
    for method, want_nested, want_solves in (("oracle", 2, 8), ("closed", 2, 0)):
        nested.clear()
        solves.clear()
        args = ["verify", "--problem", prob, "--case", "all", "--method", method]
        assert main([*args, "--report", str(report)]) == 0
        assert [r["case"] for r in json.loads(report.read_text())] == ["T2ii", "T2iv", "T3ii"]
        assert (len(nested), len(solves)) == (want_nested, want_solves), method

    # a partner that flips only d (T2ii on even/odd n, T4ii on odd/odd n)
    # has p1's (A, B): the closed form integrates p1's two sides and nothing
    # of its own
    odd_odd = write_problem(
        tmp_path / "q.json", {"a": "sin(t)", "b": "cos(t)", "n": "3", "d": "1"}
    )
    for path, case in ((prob, "T2ii"), (odd_odd, "T4ii")):
        nested.clear()
        args = ["verify", "--problem", path, "--case", case, "--method", "closed"]
        assert main([*args, "--report", str(report)]) == 0
        assert [(call[0].source, call[1].source, call[3]) for call in nested] == [
            ("sin(t)", "cos(t)", 4.0), ("sin(t)", "cos(t)", -4.0)
        ], case


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


def test_seed_env_var_changes_parity_sampling(tmp_path):
    import os

    # under a different seed the sampler may land on the bump; all we pin is
    # that the override is honored end to end (exit code flips from 0 to 3
    # if the bump is detected and T2i stops applying, or stays 4)
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": SPIKED_B, "n": "2", "d": "1"}
    )
    env = {**os.environ, "BSYM_SEED": "7"}
    res = run_cli("verify", "--problem", prob, "--case", "T2i",
                  "--report", str(tmp_path / "r.json"), env=env)
    assert res.returncode in (3, 4)


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
    from bsym.cli import _joined

    assert _joined(["identities", "--samples", "-1e0", "--", "--t-max", "-1e-05"]) == [
        "identities", "--samples=-1e0", "--", "--t-max", "-1e-05"]
    assert _joined(["solve", "--t-min", "-x", "--t-max", "-2", "--out"]) == [
        "solve", "--t-min", "-x", "--t-max=-2", "--out"]
    # abbreviations are joined too, and argparse resolves or rejects them
    assert _joined(["solve", "--t-mi", "-inf", "--t", "-1e-05", "--out", "-1e-05"]) == [
        "solve", "--t-mi=-inf", "--t=-1e-05", "--out", "-1e-05"]


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
    from bsym.cli import _dashed_positionals

    assert _dashed_positionals(["identities", *argv]) == ["identities", *separated]
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
