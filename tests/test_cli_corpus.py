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
import sys
from pathlib import Path

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
