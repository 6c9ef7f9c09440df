"""scripts/bench_record.py: the record it writes and its exit code."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import bench_record  # noqa: E402


TIER1_OK = "....\n1136 passed, 2 skipped in 33.40s\n"
GATE_OK = "a-mutant: killed by tests/test_x.py::test_a\nb-mutant: killed by tests/test_y.py::test_b\n"
MANUFACTURED = {"problems": 200, "closed_worst": 3e-12, "end_worst": 4e-13, "misses": 0, "false_ends": 0,
                "oracle_worst": 8e-9}


# a paired run's ops_per_s, per side and pair: the head is faster in all
# pairs but 2 and 8; sorted, the parent's are 97, 98, 99, 100 x 4, 101,
# 102, 103 and the head's 90, 95, 105, 108, 110, 111, 112, 113, 115, 120
PAIRED_OPS = {
    "parent": [100.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0, 97.0, 103.0, 100.0],
    "head": [110.0, 120.0, 90.0, 105.0, 115.0, 112.0, 108.0, 111.0, 95.0, 113.0],
}


def fake_run(fault=None):
    """`_run` stand-in: bench/run.py's log lines then its JSON line, a
    digest per seed, the manufactured family's summary, tier-1's summary
    and the mutation gate's lines, with
    `fault` broken: a workload's name reads `"correct": false`, "untraced"
    or "traced" makes the traced passes' work differ, "tier1" fails a test,
    "mutant" lets one survive, "parent" makes the parent's paired runs read
    `"correct": false`, and "crash" makes its third paired run fail to run."""
    calls = []
    paired = {"parent": 0, "head": 0}  # paired runs so far, per side

    def run(*args):
        calls.append(args)
        if args[0] == "scripts/digest.py":
            return 0, f"digest-{args[-1]}\n", 1.0
        if args[0] == "-m":
            if fault == "tier1":
                return 1, "..F.\n1 failed, 1135 passed, 2 skipped, 1 error in 30.00s\n", 30.0
            return 0, TIER1_OK, 33.4
        if args == bench_record.MANUFACTURED:
            return 0, json.dumps(MANUFACTURED) + "\n", 2.0
        if args[0] == "scripts/mutate.py":
            if fault == "mutant":
                return 1, GATE_OK + "c-mutant: SURVIVED: a reason\n", 120.0
            return 0, GATE_OK, 120.0
        metrics = {}
        if args[-1] == "1":
            metrics["trace.work_counts_match"] = {"value": 0 if fault == "traced" else 1, "unit": "bool"}
        result = {"correct": fault not in args, "attempted": 3, "failed": 0, "metrics": metrics}
        if any(call[0] == "scripts/digest.py" for call in calls):  # a paired run, after the digests
            side = "head" if args[0] == "bench/run.py" else "parent"
            assert side == "head" or Path(args[0]).is_file()  # the parent's own script
            i = paired[side] % len(PAIRED_OPS[side])
            paired[side] += 1
            if fault == "crash" and side == "parent" and i == 2:
                return 1, "", 1.0
            values = {"ops_per_s": PAIRED_OPS[side][i], "latency_p50_ms": 4.0, "latency_p90_ms": 6.0,
                      "ok_frac": 1.0, "peak_rss_mb": 30.0, "setup_s": 0.5}
            metrics.update({name: {"value": value} for name, value in values.items()})
            result["correct"] = fault != side
        return 0, "inputs: {}\n" + json.dumps(result) + "\n", 5.0

    return run, calls


def git_tree(path: Path, commit: bool = True) -> None:
    """Make path a git repository holding a bench/run.py and BENCHMARK.json,
    committed unless commit is false (then HEAD names no commit)."""
    (path / "bench").mkdir(parents=True, exist_ok=True)
    (path / "bench" / "run.py").write_text("", encoding="utf-8")
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    git = ["git", "-C", str(path), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    if commit:
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)


def worktrees(path: Path) -> list:
    out = subprocess.run(["git", "-C", str(path), "worktree", "list", "--porcelain"],
                         check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


def write_record(monkeypatch, tmp_path, capsys, fault, edit="src/bsym/m.py", options=()):
    """Run `main` with `options` after `--pr 7` on a fake tree with
    `fault`, whose file `edit` (relative to the tree) is written after the
    parent is committed: (exit code,
    record, calls, the stderr lines after the progress lines, one per
    fault, after the line that says the parent is paired with itself where
    it is)."""
    (tmp_path / "src" / "bsym").mkdir(parents=True)
    (tmp_path / "src" / "bsym" / "m.py").write_text('"""Doc."""\n\n# note\nx = 1\n', encoding="utf-8")
    git_tree(tmp_path)
    if edit:
        (tmp_path / edit).write_text('"""Doc."""\n\n# note\nx = 2\n', encoding="utf-8")
    run, calls = fake_run(fault)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_run", run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--pr", "7", *options])
    code = bench_record.main()
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    # one progress line per benchmark run, one per workload's pairs, one before tier-1
    return code, record, calls, capsys.readouterr().err.splitlines()[10:]


@pytest.mark.parametrize("correct_on,code", [(None, 0), ("solve-dense", 1)])
def test_the_record_holds_every_run_and_fails_on_an_incorrect_one(
    monkeypatch, tmp_path, capsys, correct_on, code
):
    got, record, calls, faults = write_record(monkeypatch, tmp_path, capsys, correct_on)
    assert got == code
    assert [run["command"][1] for run in record["runs"]] == [*bench_record.WORKLOADS] * 2
    assert [(run["command"][5], run["command"][7]) for run in record["runs"]] == (
        [("30", "0")] * 3 + [("5", "1")] * 3
    )
    assert [run["result"]["correct"] for run in record["runs"]] == [
        correct_on is None or workload != correct_on for workload in bench_record.WORKLOADS
    ] * 2
    assert record["digests"] == {"1": "digest-1", "2": "digest-2"}
    assert record["manufactured"] == MANUFACTURED and calls[8] == bench_record.MANUFACTURED
    assert record["src_lines"] == {"wc": 4, "code": 1}
    assert record["pr"] == 7 and record["pair_seed"] == 1 and record["cpu_count"] >= 1
    assert record["tier1"] == {
        "command": [*bench_record.TIER1], "exit": 0, "seconds": 33.4, "passed": 1136, "skipped": 2, "failed": 0,
    }
    assert record["mutation"] == {
        "command": [*bench_record.MUTATE], "exit": 0, "seconds": 120.0, "killed": 2, "listed": 2,
    }
    # six runs, two digests, the manufactured summary, the pairs, tier-1
    # and the mutation gate
    assert bench_record.PAIRS == 10
    assert len(calls) == 71 and calls[-2:] == [bench_record.TIER1, bench_record.MUTATE]
    assert faults == [
        f"not correct: bench/run.py --workload solve-dense --seed 1 --seconds {s} --trace {t}"
        for s, t in (("30", "0"), ("5", "1"))
    ][:2 * code]


@pytest.mark.parametrize(
    "fault,key,value,message,count",
    [
        ("traced", None, None, "traced work differs between passes (0): bench/run.py --workload ", 3),
        ("tier1", "tier1", {"exit": 1, "seconds": 30.0, "passed": 1135, "skipped": 2, "failed": 2},
         "tier-1: 2 failed, pytest exit 1", 1),
        ("mutant", "mutation", {"exit": 1, "seconds": 120.0, "killed": 2, "listed": 3},
         "mutation gate: 2 of 3 killed, exit 1", 1),
    ],
    ids=["traced", "tier1", "mutant"],
)
def test_the_record_fails_on_a_failed_test_a_surviving_mutant_or_differing_traced_work(
    monkeypatch, tmp_path, capsys, fault, key, value, message, count
):
    # the record is written first, whole, then the change fails
    code, record, calls, faults = write_record(monkeypatch, tmp_path, capsys, fault)
    assert code == 1 and len(calls) == 71 and len(record["runs"]) == 6
    if key is not None:
        assert {k: record[key][k] for k in value} == value
    assert len(faults) == count and all(line.startswith(message) for line in faults)


def test_paired_runs_alternate_sides_and_say_who_won(monkeypatch, tmp_path, capsys):
    code, record, calls, faults = write_record(monkeypatch, tmp_path, capsys, None)
    assert code == 0 and faults == []
    assert list(record["pairs"]) == [*bench_record.WORKLOADS]
    runs = calls[9:-2]  # after the six benchmark runs, the two digests and the manufactured summary
    assert len(runs) == 2 * 10 * 3
    parent = runs[0][0]
    assert parent.endswith("/bench/run.py") and parent != "bench/run.py"
    for k, workload in enumerate(bench_record.WORKLOADS):
        paired = record["pairs"][workload]
        # 5 s pairs of an unchanged workload spread by 10 %, too wide to
        # settle a gain or a loss of a few per cent: every workload pairs at 30 s
        command = ["--workload", workload, "--seed", "1", "--seconds", "30", "--trace", "0"]
        assert paired["command"] == command
        scripts = [args[0] for args in runs[20 * k:20 * k + 20]]
        assert all(list(args[1:]) == command for args in runs[20 * k:20 * k + 20])
        # the side that runs first alternates from pair to pair
        assert scripts == [parent, "bench/run.py", "bench/run.py", parent] * 5
        assert [pair["first"] for pair in paired["pairs"]] == ["parent", "head"] * 5
        assert [pair["head"]["ops_per_s"] for pair in paired["pairs"]] == PAIRED_OPS["head"]
        assert all(pair[side]["correct"] is True for pair in paired["pairs"] for side in ("parent", "head"))
        assert set(paired["pairs"][0]["head"]) == {"correct", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
                                                 "ok_frac", "peak_rss_mb", "setup_s"}
        # the ratios sorted: 90/102, 95/103, 1.05, 1.08, 1.1, 112/101, ..
        assert paired["median_ratio"]["ops_per_s"] == pytest.approx((1.1 + 112 / 101) / 2)
        assert paired["median_ratio"]["latency_p50_ms"] == 1.0
        assert paired["head_won"] == {"ops_per_s": 8, "latency_p50_ms": 0, "latency_p90_ms": 0,
                                      "ok_frac": 0, "peak_rss_mb": 0, "setup_s": 0}
        # each side's [q1, median, q3] per metric, the quartiles at (n + 1) / 4
        # and 3 * (n + 1) / 4 of the sorted values: a median gain of 10.5
        # against the parent's spread of 2.5
        quartiles = paired["quartiles"]
        assert set(quartiles) == set(paired["head_won"])
        assert quartiles["ops_per_s"] == {"parent": [98.75, 100.0, 101.25], "head": [102.5, 110.5, 113.5]}
        assert quartiles["latency_p50_ms"] == {"parent": [4.0, 4.0, 4.0], "head": [4.0, 4.0, 4.0]}
    # the parent's tree is gone, and git lists no worktree beside the checkout
    assert not Path(parent).exists() and len(worktrees(tmp_path)) == 1


def test_paired_runs_read_the_seed_given(monkeypatch, tmp_path, capsys):
    # `--seed 11` moves the pairs, and only the pairs, to input seed 11
    code, record, calls, faults = write_record(monkeypatch, tmp_path, capsys, None, options=("--seed", "11"))
    assert code == 0 and faults == [] and record["pair_seed"] == 11
    assert all(run["command"][3] == "1" for run in record["runs"])
    runs = calls[9:-2]
    assert len(runs) == 2 * 10 * 3 and all(args[3:5] == ("--seed", "11") for args in runs)
    for workload in bench_record.WORKLOADS:
        command = ["--workload", workload, "--seed", "11", "--seconds", "30", "--trace", "0"]
        assert record["pairs"][workload]["command"] == command


def head(path: Path) -> str:
    return subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize(
    "edit, differs",
    [(None, False), ("src/bsym/m.py", True), ("bench/new.py", True), ("notes.py", False)],
    ids=["committed", "modified", "untracked", "outside"],
)
def test_the_record_names_its_parent_and_says_when_the_tree_equals_it(
    monkeypatch, tmp_path, capsys, edit, differs
):
    # a record written after the commit pairs the change with itself: the
    # record names the parent commit and whether src/ and bench/ differ
    # from it, untracked files included, and stderr says when they do not
    code, record, calls, lines = write_record(monkeypatch, tmp_path, capsys, None, edit)
    assert code == 0 and record["parent"] == {"commit": head(tmp_path), "differs": differs}
    assert len(head(tmp_path)) == 40
    note = (f"bench_record: src/ and bench/ equal the parent commit {head(tmp_path)}:"
            " its pairs compare the parent with itself")
    assert lines == ([] if differs else [note])


def test_a_paired_run_that_is_not_correct_fails_the_change(monkeypatch, tmp_path, capsys):
    code, record, calls, faults = write_record(monkeypatch, tmp_path, capsys, "parent")
    assert code == 1 and len(record["pairs"]) == 3
    assert faults == [
        f"parent: not correct: bench/run.py --workload {workload} --seed 1 --seconds 30 --trace 0"
        for workload in bench_record.WORKLOADS for _ in range(bench_record.PAIRS)
    ]


@pytest.mark.parametrize("fault", ["no commit", "crash"])
def test_no_worktree_or_a_paired_run_that_fails_is_exit_2_and_leaves_no_worktree(
    monkeypatch, tmp_path, capsys, fault
):
    # HEAD names no commit, so no parent tree can be extracted; or the
    # parent's third paired run fails to run, with the tree extracted
    (tmp_path / "src" / "bsym").mkdir(parents=True)
    git_tree(tmp_path, commit=fault != "no commit")
    run, calls = fake_run(fault)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_run", run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--pr", "7"])
    assert bench_record.main() == 2
    assert not (tmp_path / "BENCH_7.json").exists()
    parents = {args[0] for args in calls if args[0].endswith("/bench/run.py")}
    assert len(parents) == (fault == "crash")
    assert not any(Path(parent).exists() for parent in parents)
    assert len(worktrees(tmp_path)) == 1
    assert "bench_record: " in capsys.readouterr().err


def test_run_faults_reads_correct_and_a_traced_runs_work_match():
    # the one check of a run, which the CI's traced smoke runs call too
    args = ["--workload", "identities", "--seed", "1", "--seconds", "5", "--trace"]
    ok = {"correct": True, "metrics": {"trace.work_counts_match": {"value": 1}}}
    assert bench_record.run_faults(args + ["1"], ok) == []
    assert bench_record.run_faults(args + ["0"], {"correct": True, "metrics": {}}) == []
    line = " ".join(args + ["1"])
    assert bench_record.run_faults(args + ["1"], {"correct": False, "metrics": {}}) == [
        f"not correct: bench/run.py {line}",
        f"traced work differs between passes (None): bench/run.py {line}",
    ]


def test_a_run_that_fails_to_run_is_exit_2(monkeypatch, tmp_path):
    (tmp_path / "src" / "bsym").mkdir(parents=True)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_run", lambda *args: (1, "", 0.1))
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--pr", "7"])
    assert bench_record.main() == 2
    assert not (tmp_path / "BENCH_7.json").exists()


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Module\ndoc."""\n\n\nclass C:\n    """Doc."""\n\n    x = (\n        1,  # one\n    )\n'
        "    # alone\n    s = '''\n    text\n    '''\n",
        encoding="utf-8",
    )
    # class C, the three lines of x = (..) and the three of s = '''..'''
    assert bench_record.code_lines([path]) == 7
