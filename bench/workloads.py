"""The three benchmark workloads: one operation each, its checks and the
input properties recorded next to the numbers.

Every workload runs a fixed number of operations per run, so the problem
mix does not depend on how fast the program is.  An operation is one
closed-loop call into bsym; its output is checked as soon as it returns,
outside the timed region.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import inputs as gen

IDENTITY_TS = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)
IDENTITY_TOL = 1e-8  # criteria 1 and 2
ORACLE_AGREEMENT = 1e-6  # criterion 4: |closed - oracle| / (1 + |closed|)
SEARCH_RADIUS = 4.0
SOLVE_POINTS = 401
SOLVE_CHECK_STRIDE = 50  # 9 of the 401 points are compared with the oracle


class VerifyAll:
    """`bsym verify --case all --method oracle`, in process, per problem."""

    name = "verify-all"
    why = ("the user path bsym verify --case all; the only workload through "
           "oracle, symmetry and cli, and it recomputes p1's validity once per case")
    ops_per_s = 6.6  # sizes a run to about --seconds at the reference host speed
    warmup_ops = 1

    def inputs(self, seed, count):
        return gen.verify_inputs(seed, count)

    def prepare(self, pkg, items, workdir: Path):
        args = []
        for i, item in enumerate(items):
            problem = workdir / f"problem-{i:05d}.json"
            problem.write_text(json.dumps(
                {"a": item.a, "b": item.b, "n": item.n_text, "d": repr(item.d)}))
            args.append((str(problem), str(workdir / f"report-{i:05d}.json")))
        return args

    def run(self, pkg, arg):
        problem, report = arg
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = pkg.cli.main(["verify", "--problem", problem, "--case", "all",
                                     "--method", "oracle", "--report", report])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, pkg, item, arg, output) -> Optional[str]:
        code, stdout, stderr = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        rows = [line.split("\t") for line in stdout.splitlines()]
        printed = tuple(r[0] for r in rows)
        if printed != item.expected_cases:
            return f"cases {printed} != expected {item.expected_cases}"
        if any(len(r) != 4 or r[3] != "pass" for r in rows):
            return f"not every case reads pass: {stdout!r}"
        report = json.loads(Path(arg[1]).read_text())
        if tuple(r["case"] for r in report) != printed or any(r["verdict"] != "pass" for r in report):
            return "report disagrees with stdout"
        return None

    def observe(self, pkg, item, arg, output) -> dict:
        ends = []
        for entry in json.loads(Path(arg[1]).read_text()):
            ends += [entry["validity"]["lo_kind"], entry["validity"]["hi_kind"]]
        return {
            "exponent_class": item.exponent_class,
            "applicable_cases": len(item.expected_cases),
            "validity_end_kind": ends,
        }

    def digest(self, output):
        return output[:2]  # exit code and stdout


class SolveDense:
    """validity_interval then solution_values on a 401-point grid."""

    name = "solve-dense"
    why = ("dense output does most of the work: the validity scan queries "
           "DensePath.value and the 401-point grid queries value_refined")
    ops_per_s = 14.5
    warmup_ops = 3

    def inputs(self, seed, count):
        return gen.solve_inputs(seed, count)

    def prepare(self, pkg, items, workdir):
        return items

    def run(self, pkg, item):
        p = pkg.problem(item.a, item.b, item.n_text, item.d)
        v = pkg.validity_interval(p, SEARCH_RADIUS)
        lo, hi = v.interior()
        step = (hi - lo) / (SOLVE_POINTS - 1)
        ts = [lo + i * step for i in range(SOLVE_POINTS)]
        return p, v, ts, pkg.solution_values(p, ts)

    def check(self, pkg, item, arg, output) -> Optional[str]:
        p, v, ts, ys = output
        if len(ys) != len(ts) or not all(math.isfinite(y) for y in ys):
            return "solution values missing or not finite"
        sub = ts[::SOLVE_CHECK_STRIDE]
        oracle = pkg.solve_on_grid(p, sub)
        worst = max(abs(c - o) / (1.0 + abs(c)) for c, o in zip(ys[::SOLVE_CHECK_STRIDE], oracle))
        if not worst <= ORACLE_AGREEMENT:
            return f"closed form vs oracle deviation {worst:.3e}"
        return None

    def observe(self, pkg, item, arg, output) -> dict:
        p, v = output[:2]
        return {
            "exponent_class": item.exponent_class,
            "applicable_cases": len(pkg.applicable_cases(p)),
            "validity_end_kind": [v.lo_kind.value, v.hi_kind.value],
        }

    def digest(self, output):
        p, v, ts, ys = output
        return v.lo, v.hi, v.lo_kind.value, v.hi_kind.value, ys


class Identities:
    """identity_residuals on freshly parsed coefficients, cycling Eq4..Eq9."""

    name = "identities"
    why = ("long quadrature paths with few dense queries and no validity scan "
           "or oracle; fresh expressions mostly miss the compile cache")
    ops_per_s = 140.0
    warmup_ops = 8

    def inputs(self, seed, count):
        return gen.identity_inputs(seed, count)

    def prepare(self, pkg, items, workdir):
        return items

    def run(self, pkg, item):
        a, b = pkg.parse_expr(item.a), pkg.parse_expr(item.b)
        return pkg.identity_residuals(item.ident, a, b, pkg.classify_exponent(item.p, item.q),
                                      IDENTITY_TS)

    def check(self, pkg, item, arg, output) -> Optional[str]:
        if len(output) != len(IDENTITY_TS) or not all(r <= IDENTITY_TOL for r in output):
            return f"residuals {output} exceed {IDENTITY_TOL}"
        return None

    def observe(self, pkg, item, arg, output) -> dict:
        return {"identity": item.ident, "exponent_class": gen.exponent_class(item.p, item.q)}

    def digest(self, output):
        return output


WORKLOADS = {w.name: w for w in (VerifyAll(), SolveDense(), Identities())}

