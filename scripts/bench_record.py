#!/usr/bin/env python3
"""Write one benchmark record, BENCH_<N>.json, at the repository root.

Usage: python scripts/bench_record.py --pr N
       python scripts/bench_record.py --code-lines FILE...

The record holds, for the change numbered N:

* the last JSON line of `bench/run.py` for each workload (verify-all,
  solve-dense, identities) at seed 1, run twice: untraced for 30 s
  (`--trace 0 --seconds 30`) and traced for 5 s (`--trace 1 --seconds 5`);
* the answer digests of `scripts/digest.py` at input seeds 1 and 2;
* the size of `src/bsym/*.py` by `wc -l` and as code lines;
* the Python version and `os.cpu_count()`.

Exits 1 when any run reads `"correct": false` (`bench/run.py` itself exits
0 then), after writing the record; 2 when a run or the digest fails.

Code lines are lines of statements, counted with `ast`, less blank,
comment and docstring lines.  `--code-lines` prints that count for the
given files and exits; the CI prints it for the base and head commits.
Standard library only.
"""

import argparse
import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify-all", "solve-dense", "identities")
RUNS = (("0", "30"), ("1", "5"))  # (--trace, --seconds)


def code_lines(paths) -> int:
    """Lines of statements in the files, less blank, comment and docstring lines."""
    total = 0
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines = {
            k for node in ast.walk(tree) if getattr(node, "end_lineno", None)
            for k in range(node.lineno, node.end_lineno + 1)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    doc = node.body[0]
                    lines -= set(range(doc.lineno, doc.end_lineno + 1))
        src = text.splitlines()
        total += sum(1 for k in lines if src[k - 1].strip() and not src[k - 1].lstrip().startswith("#"))
    return total


def _output(*args: str) -> str:
    """stdout of one Python script run from the repository root."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--pr", type=int, help="the change's number, N in BENCH_<N>.json")
    group.add_argument("--code-lines", nargs="+", metavar="FILE", help="print the files' code lines")
    args = ap.parse_args()
    if args.code_lines:
        print(code_lines(args.code_lines))
        return 0

    sources = sorted((ROOT / "src" / "bsym").glob("*.py"))
    record = {
        "pr": args.pr,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": [],
        "digests": {},
        "src_lines": {
            "wc": sum(len(p.read_bytes().splitlines()) for p in sources),
            "code": code_lines(sources),
        },
    }
    try:
        for trace, seconds in RUNS:
            for workload in WORKLOADS:
                command = ["--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", trace]
                print("bench/run.py " + " ".join(command), file=sys.stderr)
                last = _output("bench/run.py", *command).strip().splitlines()[-1]
                record["runs"].append({"command": command, "result": json.loads(last)})
        for seed in ("1", "2"):
            record["digests"][seed] = _output("scripts/digest.py", "--seed", seed).strip()
    except (subprocess.CalledProcessError, ValueError, IndexError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    wrong = [run["command"] for run in record["runs"] if run["result"].get("correct") is not True]
    for command in wrong:
        print(f"not correct: bench/run.py {' '.join(command)}", file=sys.stderr)
    print(out.name)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
