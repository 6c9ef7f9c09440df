#!/usr/bin/env python3
"""Sweep showcase problems through the symmetry catalog and print a table.

Usage: python scripts/run_catalog.py [--method closed|oracle] [--points N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bsym import applicable_cases, problem, verify_cases  # noqa: E402

SHOWCASE = [
    ("riccati, even/odd coefficients", problem("cos(t)", "sin(t)", 2, 1.0)),
    ("riccati, constant b", problem("0", "1", 2, 1.0)),
    ("cubic, odd a / even b", problem("t", "cos(t)", 3, -1.0)),
    ("square root, decaying", problem("-(t^2/9)", "cos(t)", "1/2", 1.5)),
    ("linear (n = 1)", problem("cos(t)", "sin(t)", 1, 2.0)),
    ("inverse (n = -1)", problem("sin(t)", "cos(t)", -1, 0.8)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", choices=("closed", "oracle"), default="oracle")
    ap.add_argument("--points", type=int, default=51)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    print(f"{'problem':38} {'case':6} {'relation':8} {'max residual':>13} verdict")
    print("-" * 80)
    for label, p in SHOWCASE:
        cases = applicable_cases(p)
        if not cases:
            print(f"{label:38} (no applicable cases)")
            continue
        for rep in verify_cases(p, cases, args.points, args.tol, args.method):
            print(
                f"{label:38} {rep.case_id:6} {rep.relation.value:8} "
                f"{rep.max_residual:13.3e} {rep.verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
