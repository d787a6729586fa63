"""The README's "Library quickstart" block runs, and its commented values hold."""

import ast
import math
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def _comment(block: str, statement: str) -> str:
    """The comment on the line of the block whose code is ``statement``."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip() == statement:
            return comment.strip()
    raise AssertionError(f"no line {statement!r} in the quickstart")


def test_library_quickstart_runs_and_its_comments_hold(capsys):
    block = _quickstart()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    r, traj = namespace["r"], namespace["traj"]

    assert _comment(block, "r.coefficient").startswith("-1/3,")
    assert r.coefficient == pytest.approx(-1 / 3, rel=1e-12)
    assert _comment(block, "r.area_coefficient").startswith("1/sqrt(17),")
    assert r.area_coefficient == pytest.approx(1 / math.sqrt(17), rel=1e-12)
    assert traj.drift == ast.literal_eval(_comment(block, "traj.drift"))
    header = _comment(block, "print(traj.to_csv())")
    assert capsys.readouterr().out.splitlines()[0] == header
    assert traj.columns[0][-1] == traj.points[-1].x
