"""The committed CLI corpus, in-process: the exit contract and byte pins.

``tools/cli_parity.py`` generates the corpus (every subcommand, model and s;
k absent, valid, malformed and zero; every format; bad sources, points, dt
and steps; the README commands).  Every command must return 0, 1 or 2 from
``main`` with no exception escaping it, and must match its pin in
``cli_corpus_pins.json``: the exit code and the sha256 of stdout (only the
exit code for ``leaf-form``, whose digits come from LAPACK).  A change meant
to move a result regenerates the pins with ``tools/cli_parity.py --pins``
and lists the commands whose pins moved.
"""

import hashlib
import json
import shlex
import signal
import sys
from pathlib import Path

import pytest

from poisson4.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import cli_parity  # noqa: E402

PINS = json.loads((Path(__file__).parent / "cli_corpus_pins.json").read_text())
COMMANDS = cli_parity.corpus()


def test_every_command_is_pinned():
    assert [shlex.join(argv) for argv in COMMANDS] == list(PINS)


def test_corpus_covers_the_readme():
    assert set(cli_parity.readme_commands()) <= set(COMMANDS)


def test_corpus_exit_contract_and_pins():
    # One loop, not one test per command: the corpus runs in a few seconds.
    escaped, moved = [], []
    for argv in COMMANDS:
        result = cli_parity.run_command(main, argv)
        command = shlex.join(argv)
        code, stdout_sha256 = PINS[command]
        if result["exit"] not in (0, 1, 2):
            escaped.append((command, result["exit"]))
        elif result["exit"] != code or stdout_sha256 not in (
            None, hashlib.sha256(result["stdout"].encode()).hexdigest()
        ):
            moved.append(command)
    assert escaped == []
    assert moved == []


def test_a_command_past_the_time_bound_is_named(monkeypatch):
    def hang(argv):
        while True:
            pass

    monkeypatch.setattr(cli_parity, "COMMAND_SECONDS", 0.05)
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(cli_parity.CommandTimeout, match=r"^rank --point 1,0,0,1 ran past 0.05 s$"):
        cli_parity.run_command(hang, ("rank", "--point", "1,0,0,1"))
    # The timer and the handler are gone with the command.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert cli_parity.run_command(lambda argv: 0, ("list-models",))["exit"] == 0


def _result(code, stderr=""):
    return {"exit": code, "stdout": "", "stderr": stderr, "warnings": [], "sites": []}


def test_parity_fails_only_on_the_new_trees_escapes(capsys):
    commands = [("rank",), ("flow",)]
    escaped = _result("exception: ValueError: Exceeds the limit")
    mended = _result(1, "poisson4: a coefficient has more than 4300 digits to print\n")
    # A base that escapes where the change mends: reported, not failed.
    assert cli_parity.report(commands, [escaped, _result(0)], [mended, _result(0)]) == 0
    out = capsys.readouterr().out
    assert "exits outside {0, 1, 2}: old 1 (not checked), new 0" in out
    assert "exit/stdout  exception: ValueError: Exceeds the limit -> 1  rank" in out
    # An escape in the new tree fails, whatever the old tree did.
    for old in (_result(0), escaped):
        assert cli_parity.report(commands, [_result(0), old], [_result(0), escaped]) == 1
        assert "new 1" in capsys.readouterr().out
    assert cli_parity.report(commands, [_result(0)] * 2, [_result(2)] * 2) == 0


def test_against_counts_commands_not_run_apart():
    not_run = cli_parity.NOT_RUN
    got = {"a": [0, "h"], "b": [not_run, None], "c": [1, "x"], "d": [0, "y"]}
    pinned = {"a": [0, "h"], "b": [0, None], "c": [0, "x"], "e": [0, "z"]}
    assert cli_parity.against(got, pinned) == {
        "commands": 4,
        "identical": 1,
        "not_run": 1,
        "differing": ["c", "d"],
        "unpinned": ["d", "e"],
    }
