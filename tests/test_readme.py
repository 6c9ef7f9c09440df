"""README's library examples run as written, so they cannot go stale."""

import re
from pathlib import Path

from bsym import applicable_cases, parse_expr, problem

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_the_python_block_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})  # noqa: S102
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    p1 = problem("cos(t)", "sin(t)", 2, 1.0)
    assert [row[0] for row in rows] == [case.id for case in applicable_cases(p1)]


def test_the_inline_evaluation_example():
    text = " ".join(README.split())  # the example may break across lines
    [(call, value)] = re.findall(r'`(parse_expr\("[^"`]*"\)\([^)`]*\))` is ([-\d.]+)', text)
    assert eval(call, {"parse_expr": parse_expr}) == float(value)  # noqa: S307
