"""scripts/bench_record.py: the record it writes and its exit code."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import bench_record  # noqa: E402


def fake_output(correct_on):
    """`_output` stand-in: bench/run.py's log lines then its JSON line,
    correct unless the command names `correct_on`, and a digest per seed."""
    calls = []

    def output(script, *args):
        calls.append((script, *args))
        if script == "scripts/digest.py":
            return f"digest-{args[-1]}\n"
        result = {"correct": correct_on not in args, "attempted": 3, "failed": 0, "metrics": {}}
        return "inputs: {}\n" + json.dumps(result) + "\n"

    return output, calls


@pytest.mark.parametrize("correct_on,code", [(None, 0), ("solve-dense", 1)])
def test_the_record_holds_every_run_and_fails_on_an_incorrect_one(
    monkeypatch, tmp_path, capsys, correct_on, code
):
    (tmp_path / "src" / "bsym").mkdir(parents=True)
    (tmp_path / "src" / "bsym" / "m.py").write_text('"""Doc."""\n\n# note\nx = 1\n', encoding="utf-8")
    output, calls = fake_output(correct_on)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_output", output)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--pr", "7"])
    assert bench_record.main() == code
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert [run["command"][1] for run in record["runs"]] == [*bench_record.WORKLOADS] * 2
    assert [(run["command"][5], run["command"][7]) for run in record["runs"]] == (
        [("30", "0")] * 3 + [("5", "1")] * 3
    )
    assert [run["result"]["correct"] for run in record["runs"]] == [
        correct_on is None or workload != correct_on for workload in bench_record.WORKLOADS
    ] * 2
    assert record["digests"] == {"1": "digest-1", "2": "digest-2"}
    assert record["src_lines"] == {"wc": 4, "code": 1}
    assert record["pr"] == 7 and record["cpu_count"] >= 1
    assert len(calls) == 8
    err = capsys.readouterr().err
    assert ("not correct: bench/run.py --workload solve-dense" in err) is (code == 1)


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Module\ndoc."""\n\n\nclass C:\n    """Doc."""\n\n    x = (\n        1,  # one\n    )\n'
        "    # alone\n    s = '''\n    text\n    '''\n",
        encoding="utf-8",
    )
    # class C, the three lines of x = (..) and the three of s = '''..'''
    assert bench_record.code_lines([path]) == 7
