"""End-to-end CLI contract tests: exit codes 0-4, golden outputs, round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        env=env,
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


# --- verify ----------------------------------------------------------------------

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


def test_verify_all_computes_p1_validity_once(tmp_path, monkeypatch):
    # three cases: one validity interval for p1 plus one per partner
    import bsym.closedform
    from bsym.cli import main

    orig = bsym.closedform.validity_interval
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bsym" or name.startswith("bsym."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, counted)
    prob = write_problem(
        tmp_path / "p.json", {"a": "cos(t)", "b": "sin(t)", "n": "2", "d": "1"}
    )
    report = tmp_path / "rep.json"
    assert main(["verify", "--problem", prob, "--case", "all", "--report", str(report)]) == 0
    assert [r["case"] for r in json.loads(report.read_text())] == ["T2i", "T2iv", "T3i"]
    assert len(calls) == 1 + 3
    assert calls.count(calls[0]) == 1  # p1 is not among the partners


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
