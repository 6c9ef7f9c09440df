#!/usr/bin/env python3
"""Mutation gate: would the tests notice a wrong answer?

Usage: python scripts/mutate.py

Each entry of MUTANTS replaces one exact text in one file of `src/` by a
plausible mistake.  The script copies `src/`, `tests/`, `scripts/` and
`pyproject.toml` to a temporary directory, checks that the tests each
entry names pass there unmutated, then applies each mutant to a fresh copy
(never to the checkout) and runs its tests, stopping at the first failure.
A mutant is killed when a test fails, and survives when all pass.

Prints one line per mutant: killed (with the first failing test) or
survived.  Every listed mutant must be killed: exits 1 when one
survives, and 2 when the unmutated tests fail, a mutant's text no longer
occurs exactly once, or pytest itself errors, since then no verdict can
be given.  Standard library only, apart from pytest for the runs.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/bsym
    old: str  # must occur exactly once in the file
    new: str
    reason: str
    tests: tuple  # pytest arguments, relative to the repository root


MUTANTS = [
    Mutant(
        "reflection-drops-r-on-a",
        "exponent.py",
        "return (r * eps_a, r * s_pow * eps_b, s)",
        "return (eps_a, r * s_pow * eps_b, s)",
        "a t-reflected partner keeps a's sign: the wrong partner problem",
        ("tests/test_symmetry.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "reflection-drops-s-power",
        "exponent.py",
        "return (r * eps_a, r * s_pow * eps_b, s)",
        "return (r * eps_a, r * eps_b, s)",
        "a y-flip ignores the sign of s^(1-p): the wrong b for odd/odd n",
        ("tests/test_symmetry.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "certify-by-sampled-parity",
        "exponent.py",
        "pa, pb = structural_parity(a0), structural_parity(b0)",
        "from .expr import detect_parity; pa, pb = detect_parity(a0), detect_parity(b0)",
        "a t-mirror is certified by a sampled parity, which is not exact",
        ("tests/test_closedform.py", "tests/test_symmetry.py"),
    ),
    Mutant(
        "pass-rule-always-true",
        "symmetry.py",
        "passed=max_residual <= tol * (1.0 + y_scale),",
        "passed=True,",
        "every verification passes, whatever its residual",
        ("tests/test_symmetry.py",),
    ),
    Mutant(
        "oracle-rel-tol-1e-6",
        "oracle.py",
        "ORACLE_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-11)",
        "ORACLE_CONTROL = StepControl(rel_tol=1e-6, abs_tol=1e-11)",
        "the oracle is 10 000 times less accurate than documented",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "shared-path-reuses-any-longer-path",
        "stepper.py",
        "source = paths.get((*key, r * t_end))",
        "source = next((q for (*k, x), q in paths.items() if k == [*key] and 0.0 <= r * t_end * x"
        " and abs(t_end) <= abs(x)), None)",
        "a path toward a farther end serves a nearer one: different first and last steps",
        ("tests/test_oracle.py", "tests/test_symmetry.py"),
    ),
    Mutant(
        "tangent-allowance-x10",
        "stepper.py",
        "tol = abs_tol + rel_tol * (abs(y0) + vary)",
        "tol = 10 * (abs_tol + rel_tol * (abs(y0) + vary))",
        "a near miss ten times the step control's error counts as a validity end",
        ("tests/test_stepper.py",),
    ),
    Mutant(
        "tangent-allowance-ignores-the-control",
        "stepper.py",
        "abs_tol, rel_tol = self.ctl.abs_tol, self.ctl.rel_tol",
        "abs_tol, rel_tol = 1e-12, 1e-10",
        "every path counts a tangent touch at the quadrature's error scale,"
        " whatever control it was integrated at",
        ("tests/test_stepper.py",),
    ),
    Mutant(
        "closed-form-sigma-is-one",
        "closedform.py",
        "sigma = math.copysign(1.0, p.d) if p.n.cls is ExponentClass.ODD_OVER_ODD else 1.0",
        "sigma = 1.0",
        "an odd/odd exponent with d < 0 gets the positive branch: y has the wrong sign",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "root-exponent-drops-its-sign",
        "closedform.py",
        "return classify_exponent(-n.q, n.p - n.q)",
        "return classify_exponent(n.q, n.p - n.q)",
        "G is raised to 1/(n-1) instead of -1/(n-1): every closed-form value"
        " and every end's kind is wrong",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "sampled-parity-tolerance-1e-6",
        "expr.py",
        "_SAMPLE_TOL = 1e-10",
        "_SAMPLE_TOL = 1e-6",
        "a coefficient with a 1e-7 part of the other parity reads even or odd",
        ("tests/test_expr.py",),
    ),
    Mutant(
        "wrapper-reads-the-first-coefficient",
        "expr.py",
        "            f{i} = c{i}(t)\n",
        "            f{i} = c0(t)\n",
        "every value of a checked form is a's: b is never evaluated",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "wrapper-drops-the-finite-check",
        "expr.py",
        "            if f{i} - f{i}:\n                raise _failed(t, None)\n",
        "",
        "an infinite or NaN coefficient reaches the stepper, which retries the step",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "wrapper-checks-only-the-first-value",
        "expr.py",
        "            if f{i} - f{i}:\n",
        "            if f0 - f0:\n",
        "an infinite b passes unchecked while a is finite",
        ("tests/test_checked.py",),
    ),
    Mutant(
        "view-crossing-drops-r",
        "stepper.py",
        "return None if found is None else self.r * found",
        "return found",
        "a t-reflected view reports its source's crossing on the wrong side of 0",
        ("tests/test_stepper.py", "tests/test_quad.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "view-crossing-drops-sign",
        "stepper.py",
        "found = self.source.first_crossing(k, self.signs[k] * level)",
        "found = self.source.first_crossing(k, level)",
        "a sign-flipped view looks for the level its source never reaches",
        ("tests/test_stepper.py", "tests/test_quad.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "crossing-cache-drops-level",
        "stepper.py",
        "key = (k, level)",
        "key = (k,)",
        "a path answers every level with the first level it walked",
        ("tests/test_stepper.py", "tests/test_closedform.py"),
    ),
    Mutant(
        "second-multiplier-reads-the-first",
        "quad.py",
        'terms = ", ".join(f"f1 * exp(mult{i} * A)" for i in range(count))',
        'terms = ", ".join(f"f1 * exp(mult0 * A)" for i in range(count))',
        "every B of a path integrates the first multiplier: an identity's two"
        " sides read one wrong path alike and its residual stays 0",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "identities-mirror-without-certificate",
        "quad.py",
        "mirrored = any(r == -1.0 for r, *_ in reflections(a, b)[2])",
        "mirrored = True",
        "a sampled parity is read as a t-mirror: a failing identity reads 0",
        ("tests/test_quad.py", "tests/test_cli.py"),
    ),
    Mutant(
        "mirror-keeps-the-multipliers",
        "quad.py",
        "(-x, ka * mult, kb)",
        "(-x, mult, kb)",
        "a mirrored read at t < 0 reads B_mult where B_{ka*mult} belongs",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "mirror-drops-kb",
        "quad.py",
        "(-x, ka * mult, kb)",
        "(-x, ka * mult, 1.0)",
        "a mirrored read at t < 0 keeps B's sign where b's parity flips it",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "quad-rel-tol-1e-6",
        "quad.py",
        "QUAD_CONTROL = StepControl(rel_tol=1e-10, abs_tol=1e-12)",
        "QUAD_CONTROL = StepControl(rel_tol=1e-6, abs_tol=1e-12)",
        "the quadrature is 10 000 times less accurate than documented",
        ("tests/test_quad.py",),
    ),
    Mutant(
        "closed-form-drops-the-negative-radicand-sign",
        "closedform.py",
        "out.append(scale * (neg * pow_(-g, e)))",
        "out.append(scale * pow_(-g, e))",
        "G^e of a negative radicand loses the sign its exponent class gives it: y has the wrong sign",
        ("tests/test_closedform.py",),
    ),
    Mutant(
        "minus-one-drops-the-reciprocal-check",
        "exponent.py",
        "m, _, _ = (p - q) / q, p / q, q / (p - q or 1)",
        "m, _ = (p - q) / q, p / q",
        "an n whose 1/(n-1) overflows a float is accepted: -1/(n-1) is inf",
        ("tests/test_exponent.py",),
    ),
    Mutant(
        "parser-product-right-associative",
        "expr.py",
        "right, right_depth = self._factor()",
        "right, right_depth = self._term()",
        "t/2/2 parses as t/(2/2)",
        ("tests/test_expr.py",),
    ),
    Mutant(
        "parser-sum-right-associative",
        "expr.py",
        "right, right_depth = self._term()",
        "right, right_depth = self._expr()",
        "t-1-1 parses as t-(1-1)",
        ("tests/test_expr.py",),
    ),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, tests) -> tuple:
    """(return code, first failing test or None) of one pytest run in cwd."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.M)
    return proc.returncode, failed and failed[1]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bsym-mutate-") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = _pytest(clean, tests)
        if code != 0:
            print(f"the unmutated tests fail ({failed or f'pytest exit {code}'}): no verdict", file=sys.stderr)
            return 2
        status = 0
        for m in MUTANTS:
            work = Path(tmp) / m.name
            shutil.copytree(clean, work)
            path = work / "src" / "bsym" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: stale, the text to replace occurs {text.count(m.old)} times in {m.file}")
                status = 2
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, failed = _pytest(work, m.tests)
            shutil.rmtree(work)
            if code == 1 and failed:
                print(f"{m.name}: killed by {failed}")
            elif code == 0:
                print(f"{m.name}: SURVIVED: {m.reason}")
                status = max(status, 1)
            else:
                print(f"{m.name}: error, pytest exit {code}")
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
