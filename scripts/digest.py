#!/usr/bin/env python3
"""Print one sha256 over the reprs of bsym's answers on the benchmark inputs.

Usage: python scripts/digest.py [--seed S] [--count N]

The digest covers, on the seeded generators of bench/inputs.py (imported,
never changed):

* `verify_cases` of every applicable case, by the closed form and by the
  oracle, on N verify-all problems;
* `validity_interval` of each verify-all and solve-dense problem and of
  each of its partners, then 101-point `solution_values` across each
  interval;
* `identity_residuals` on 4*N identity inputs.

A typed error is digested as its type and message.  Two commits that print
the same digest give the same answers bit for bit, as `repr` shows them;
a change meant to alter only speed checks itself with one run at each.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402
from bsym import (  # noqa: E402
    BsymError,
    applicable_cases,
    classify_exponent,
    identity_residuals,
    parse_expr,
    problem,
    solution_values,
    transform_problem,
    validity_interval,
    verify_cases,
)

SEARCH_RADIUS = 4.0
POINTS = 101
IDENTITY_TS = (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)


def _answer(compute):
    """repr of compute()'s result, or of the typed error it raises."""
    try:
        return repr(compute())
    except BsymError as exc:
        return repr((type(exc).__name__, str(exc)))


def _grid(v) -> list:
    lo, hi = v.interior()
    step = (hi - lo) / (POINTS - 1)
    return [lo + i * step for i in range(POINTS)]


def _solutions(p1) -> str:
    problems = [p1, *(transform_problem(p1, case) for case in applicable_cases(p1))]
    intervals = [validity_interval(p, SEARCH_RADIUS) for p in problems]
    values = [_answer(lambda: solution_values(p, _grid(v))) for p, v in zip(problems, intervals)]
    return repr((intervals, values))


def answers(seed: int, count: int):
    """The reprs the digest covers, in a fixed order."""
    verify = inputs.verify_inputs(seed, count)
    for item in verify:
        p = problem(item.a, item.b, item.n_text, item.d)
        for method in ("closed", "oracle"):
            yield _answer(lambda: verify_cases(p, applicable_cases(p), method=method))
    for item in [*verify, *inputs.solve_inputs(seed, count)]:
        yield _answer(lambda: _solutions(problem(item.a, item.b, item.n_text, item.d)))
    for item in inputs.identity_inputs(seed, 4 * count):
        yield _answer(lambda: identity_residuals(
            item.ident, parse_expr(item.a), parse_expr(item.b),
            classify_exponent(item.p, item.q), IDENTITY_TS,
        ))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=40)
    args = ap.parse_args()
    h = hashlib.sha256()
    for text in answers(args.seed, args.count):
        h.update(text.encode())
        h.update(b"\n")
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
