#!/usr/bin/env python3
"""Write one benchmark record, BENCH_<N>.json, at the repository root.

Usage: python scripts/bench_record.py --pr N [--seed S]
       python scripts/bench_record.py --code-lines FILE...

The record holds, for the change numbered N:

* the last JSON line of `bench/run.py` for each workload (verify-all,
  solve-dense, identities) at seed 1, run twice: untraced for 30 s
  (`--trace 0 --seconds 30`) and traced for 5 s (`--trace 1 --seconds 5`);
* `PAIRS` (10) interleaved pairs of untraced runs per workload at input
  seed S (`--seed`, default 1; recorded as `pair_seed`, so that a claimed
  gain can be shown at a seed not used while writing the change) for 30 s
  (5 s pairs of an unchanged workload spread by 10 %), one of the
  parent's `bench/run.py`
  (HEAD's tree, extracted by `git archive` into a temporary directory,
  since the record is written before the change is committed) and one of
  the working tree's, each pair starting with the other side than the
  pair before: each run's end-to-end metrics (`BENCHMARK.json`),
  the median head/parent ratio per metric, the number of pairs the head
  won and each side's quartiles [q1, median, q3] per metric, so that a
  claimed gain can be checked: won in at least 9 of 10 pairs, by a median
  gain above the parent's spread q3 - q1;
* the parent's commit id and whether the working tree's `src/` and
  `bench/` differ from it: where they do not, as in a record written after
  the change is committed, the pairs compare the parent with itself, and
  the script says so on stderr;
* the answer digests of `scripts/digest.py` at input seeds 1 and 2;
* the manufactured family's summary, `tests/manufactured.py`'s JSON line:
  its problem count, the closed form's and the oracle's worst and median
  scaled value errors (`closed_worst`, `closed_median`, `oracle_worst`,
  `oracle_median`), the worst and median validity end errors
  (`end_worst`, `end_median`), and the missed and false ends, all against
  exact references;
* one tier-1 run (`python -m pytest -q --continue-on-collection-errors`):
  its wall time, exit code and passed, skipped and failed counts (errors
  count as failed);
* one run of the mutation gate, `scripts/mutate.py`: its wall time, exit
  code and killed and listed mutant counts;
* the size of `src/bsym/*.py` by `wc -l` and as code lines;
* the Python version and `os.cpu_count()`.

After writing the record, exits 1 when a tier-1 test fails, a mutant is
not killed, any run, paired runs included, reads `"correct": false`
(`bench/run.py` itself exits 0 then) or a traced run's
`trace.work_counts_match` is not 1 (its two traced passes did different
work); 2 when a benchmark run or the digest fails to run, or the parent's
tree cannot be extracted.  The parent's tree is removed on every path.

Code lines are lines of statements, counted with `ast`, less blank,
comment and docstring lines.  `--code-lines` prints that count for the
given files and exits; the CI prints it for the base and head commits.
Standard library only.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify-all", "solve-dense", "identities")
RUNS = (("0", "30"), ("1", "5"))  # (--trace, --seconds)
PAIRED = ("--seconds", "30", "--trace", "0")
PAIRS = 10
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
MUTATE = ("scripts/mutate.py",)
MANUFACTURED = ("tests/manufactured.py",)


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


def _run(*args: str) -> tuple:
    """(exit code, stdout, wall seconds) of one Python command run from the repository root."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def _output(*args: str) -> str:
    """stdout of one Python script that must succeed."""
    code, out, _ = _run(*args)
    if code:
        raise subprocess.CalledProcessError(code, args)
    return out


def _last_json(*args: str) -> dict:
    """The last line of a `bench/run.py` run that must succeed, parsed."""
    return json.loads(_output(*args).strip().splitlines()[-1])


def _git(*args: str) -> str:
    """stdout of one git command that must succeed, run at the repository root."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


@contextmanager
def _parent_tree():
    """HEAD's tree, extracted by `git archive` into a temporary directory
    that is removed on leaving, whatever happens, and HEAD's commit id and
    whether the working tree's src/ and bench/ differ from it, untracked
    files included.  An archive leaves the repository's `.git` as it was,
    where a `git worktree` registers itself there and stays registered if
    the run is killed before it is removed."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-record-"))
    tree = tmp / "parent"
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        changed = _git("status", "--porcelain", "--untracked-files=all", "--", "src", "bench")
        yield tree, {"commit": _git("rev-parse", "HEAD").strip(), "differs": bool(changed.strip())}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _pairs(parent: Path, workload: str, seed: int) -> dict:
    """PAIRS interleaved untraced runs at input seed `seed` of the parent's
    `bench/run.py` and the working tree's: each run's end-to-end metrics
    and "correct", then per metric the median head/parent ratio, the pairs
    the head won and each side's quartiles [q1, median, q3]
    (`statistics.quantiles`)."""
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    command = ["--workload", workload, "--seed", str(seed), *PAIRED]
    scripts = {"parent": str(parent / "bench" / "run.py"), "head": "bench/run.py"}
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        pair = {"first": order[0]}
        for side in order:
            result = _last_json(scripts[side], *command)
            pair[side] = {"correct": result.get("correct"),
                          **{name: result["metrics"][name]["value"] for name in better}}
        pairs.append(pair)
    ratios, won, quartiles = {}, {}, {}
    for name, direction in better.items():
        each = [p["head"][name] / p["parent"][name] for p in pairs if p["parent"][name]]
        ratios[name] = statistics.median(each) if each else None
        sign = 1.0 if direction == "higher" else -1.0
        won[name] = sum(sign * (p["head"][name] - p["parent"][name]) > 0.0 for p in pairs)
        quartiles[name] = {side: statistics.quantiles([p[side][name] for p in pairs], n=4)
                           for side in ("parent", "head")}
    return {"command": command, "pairs": pairs, "median_ratio": ratios, "head_won": won,
            "quartiles": quartiles}


def _tier1() -> dict:
    """One tier-1 run, counted from pytest's summary line."""
    code, out, seconds = _run(*TIER1)
    summary = out.strip().rpartition("\n")[2]
    counts = {kind.rstrip("s"): int(k) for k, kind in re.findall(r"(\d+) (passed|skipped|failed|errors?)\b", summary)}
    return {"command": list(TIER1), "exit": code, "seconds": round(seconds, 2),
            "passed": counts.get("passed", 0), "skipped": counts.get("skipped", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def _mutation_gate() -> dict:
    """One run of the mutation gate, which prints one line per mutant."""
    code, out, seconds = _run(*MUTATE)
    return {"command": list(MUTATE), "exit": code, "seconds": round(seconds, 2),
            "killed": len(re.findall(r"^\S+: killed by ", out, re.M)),
            "listed": len(re.findall(r"^\S+: ", out, re.M))}


def run_faults(command: list, result: dict) -> list:
    """Why one `bench/run.py` run fails the change, given its arguments and
    last JSON line: it reads `"correct": false`, or it ran with `--trace 1`
    and its `trace.work_counts_match` is not 1.  The CI's traced smoke runs
    are checked by this function too."""
    faults, line = [], " ".join(command)
    if result.get("correct") is not True:
        faults.append(f"not correct: bench/run.py {line}")
    match = result.get("metrics", {}).get("trace.work_counts_match", {}).get("value")
    if command[command.index("--trace") + 1] == "1" and match != 1:
        faults.append(f"traced work differs between passes ({match}): bench/run.py {line}")
    return faults


def _faults(record: dict) -> list:
    """Why the record fails the change: each a line for stderr."""
    faults = []
    tier1, gate = record["tier1"], record["mutation"]
    if tier1["exit"] or tier1["failed"]:
        faults.append(f"tier-1: {tier1['failed']} failed, pytest exit {tier1['exit']}")
    if gate["exit"] or gate["killed"] < gate["listed"]:
        faults.append(f"mutation gate: {gate['killed']} of {gate['listed']} killed, exit {gate['exit']}")
    for run in record["runs"]:
        faults += run_faults(run["command"], run["result"])
    for paired in record["pairs"].values():
        for pair in paired["pairs"]:
            for side in ("parent", "head"):
                faults += [f"{side}: {fault}" for fault in run_faults(paired["command"], pair[side])]
    return faults


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--pr", type=int, help="the change's number, N in BENCH_<N>.json")
    group.add_argument("--code-lines", nargs="+", metavar="FILE", help="print the files' code lines")
    ap.add_argument("--seed", type=int, default=1, help="the input seed of the paired runs (default 1)")
    args = ap.parse_args()
    if args.code_lines:
        print(code_lines(args.code_lines))
        return 0

    sources = sorted((ROOT / "src" / "bsym").glob("*.py"))
    record = {
        "pr": args.pr,
        "pair_seed": args.seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "parent": {},
        "runs": [],
        "digests": {},
        "manufactured": {},
        "pairs": {},
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
                record["runs"].append({"command": command, "result": _last_json("bench/run.py", *command)})
        for seed in ("1", "2"):
            record["digests"][seed] = _output("scripts/digest.py", "--seed", seed).strip()
        record["manufactured"] = _last_json(*MANUFACTURED)
        with _parent_tree() as (parent, commit):
            record["parent"] = commit
            for workload in WORKLOADS:
                print(f"paired parent/head runs: {workload}, seed {args.seed}", file=sys.stderr)
                record["pairs"][workload] = _pairs(parent, workload, args.seed)
    except (subprocess.CalledProcessError, OSError, ValueError, IndexError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    print("tier-1 and the mutation gate", file=sys.stderr)
    record["tier1"] = _tier1()
    record["mutation"] = _mutation_gate()
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not record["parent"]["differs"]:
        print(f"bench_record: src/ and bench/ equal the parent commit {record['parent']['commit']}:"
              " its pairs compare the parent with itself", file=sys.stderr)
    faults = _faults(record)
    for fault in faults:
        print(fault, file=sys.stderr)
    print(out.name)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
