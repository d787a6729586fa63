"""Output parity of the ``poisson4`` command line across two source trees.

The corpus is a fixed, ordered list of invocations: every subcommand on
every model and value of s, and on user-supplied Casimir pairs; the factor k
absent, valid, malformed and zero; every ``--format``; a lone ``--c1`` or
``--c2`` beside ``--model``; non-finite and overflowing points; bad ``--dt``
and ``--steps``; a k that makes the probe warn beside a usage error; an
``--s`` or a literal too large to build; a Jacobiator just past and one
just under the work limit; option values that begin with ``-`` after a
space, the options also abbreviated; and the README's "Command line"
block.

Each command runs in-process through ``poisson4.cli.main`` with warnings set
to "always", so a repeated warning is reported every time and the result of
a command does not depend on the ones before it.  A command that runs past
``COMMAND_SECONDS`` of wall-clock time stops the run with ``CommandTimeout``,
which names it.  A result is the exit code (or the exception that escaped
``main``), stdout, stderr, and the warnings raised: their category and
message, with the ``file:line`` they cite kept apart, since it moves with
any edit above it.

Usage::

    python tools/cli_parity.py OLD_TREE NEW_TREE
    python tools/cli_parity.py --pins TREE > tests/cli_corpus_pins.json
    python tools/cli_parity.py --pins TREE --python PATH --against tests/cli_corpus_pins.json

The first form runs the corpus in both trees (each a checkout holding
``src/poisson4``), sorts every difference into "exit/stdout" or "stderr
only", counts the warnings whose location moved, and prints the table and
each differing command.  It exits 1 if a command in the new tree exits
outside {0, 1, 2}; the old tree's such exits are only counted, and a
difference alone never fails it.  The second form prints the exit code and
the sha256 of stdout of every command, the pins that
``tests/test_cli_corpus.py`` checks; with ``--against PINS`` it prints, as
JSON, how they compare with the pins in that file instead.

``--python PATH`` runs the corpus under that interpreter (by default the one
running this script).  Where numpy is not installed, the ``leaf-form``
commands, the only ones that import it, are not run: their exit reads
"not run", and a comparison counts them apart from the commands that match.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# (name, takes s); the catalogue is fixed, and the corpus must not depend on
# the tree it runs in.
MODELS = (
    ("lefschetz", False),
    ("fold", False),
    ("cusp", False),
    ("birth", True),
    ("merge", True),
    ("flip", True),
    ("wrinkle", True),
)
S_VALUES = ("-1", "0", "1/2")

# Absent; valid and positive; valid but vanishing on the probe grid (it
# warns); malformed twice; zero.
K_FACTORS = (None, "1+x^2+y^2+z^2+t^2", "x", "x+", ")(", "0")

# A regular point, then critical, negative (after a space) and overflowing
# ones.
POINTS = (
    "0.5,-0.25,0.75,1",
    "0,0,0,0",
    "1,0,0,1",
    "-1,0,0,1",
    "1e200,0,0,1",
    "1,1e200,1e200,1",
)
# Points that are usage errors on any source.
BAD_POINTS = ("nan,0,0,1", "1,-inf,0,0", "1,2,3", "1,a,0,0")

USER_PAIRS = (
    ("--c1", "t", "--c2", "x^3 - 3*x*t + y^2 - z^2"),
    ("--c1", "x*s + y", "--c2", "z*t", "--s", "2"),
    ("--c1", "x^2", "--c2", "y^2"),
)

# Sources that are usage errors however the rest of the command reads.
BAD_SOURCES = (
    (),
    ("--model", "cusp", "--c1", "x"),
    ("--model", "cusp", "--c2", "y"),
    ("--model", "cusp", "--c1", "x", "--c2", "y"),
    ("--c1", "x"),
    ("--c2", "y"),
    ("--c1", "x +", "--c2", "y"),
    ("--c1", "x", "--c2", "w"),
    ("--c1", "x^65", "--c2", "y"),
    ("--model", "birth", "--s", "abc"),
    ("--model", "birth", "--s", "1/0"),
) + tuple(("--model", name, "--s", "1") for name, uses_s in MODELS if not uses_s)

POINT_COMMANDS = ("rank", "leaf-form", "locus")

# The exit of a command the worker did not run: leaf-form without numpy.
NOT_RUN = "not run: numpy is not installed"

# Wall-clock bound on one command in-process; the slowest, the Jacobiator
# just under the work limit, takes 3-4 s, a leaf-form that imports numpy
# about 0.16 s, and the others under 0.02 s.
COMMAND_SECONDS = 30

# One command per option that takes a value, the value beginning with '-'.
DASH_VALUES = (
    ("--model", ("bivector", "--model", "-x")),
    ("--c1", ("bivector", "--c1", "-x^2", "--c2", "y")),
    ("--c2", ("bivector", "--c1", "y", "--c2", "-x^2")),
    ("--s", ("bivector", "--model", "birth", "--s", "-1/2")),
    ("--k", ("jacobi", "--model", "cusp", "--k", "-x^2-1")),
    ("--h", ("casimir-check", "--model", "cusp", "--h", "-x")),
    ("--point", ("rank", "--model", "cusp", "--point", "-1,0,0,1")),
    ("--dt", ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--dt", "-1e-3")),
    ("--steps", ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "-3")),
    ("--format", ("rank", "--model", "cusp", "--point", "1,0,0,1", "--format", "-json")),
)


def _by_factor(source: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Every math subcommand on a source with each factor; options rotate."""
    out = []
    for i, k in enumerate(K_FACTORS):
        h = (None, "x +", "x", "x*y + s")[i % 4]
        fmt = ("text", "json")[i % 2]
        commands = [
            ("bivector", *source, "--format", fmt),
            ("jacobi", *source) + (("--expect-poisson",) if i % 2 else ()),
            ("casimir-check", *source) + (() if h is None else ("--h", h)),
            ("flow", *source, "--h", "x", "--point", "0,1,1,1", "--steps", "20",
             "--format", ("csv", "text", "json")[i % 3]),
        ]
        commands += [
            (command, *source, "--point", POINTS[0], "--format", fmt)
            for command in POINT_COMMANDS
        ]
        out += [argv if k is None else argv + ("--k", k) for argv in commands]
    return out


def _by_point(source: tuple[str, ...], points) -> list[tuple[str, ...]]:
    return [
        (command, *source, "--point", point, "--format", ("text", "json")[i % 2])
        for command in POINT_COMMANDS
        for i, point in enumerate(points)
    ]


def _source_commands() -> list[tuple[str, ...]]:
    out = []
    for name, uses_s in MODELS:
        for s in S_VALUES if uses_s else (None,):
            source = ("--model", name) + (() if s is None else ("--s", s))
            out += _by_factor(source) + _by_point(source, POINTS[1:])
        if uses_s:
            # s stays symbolic; the commands that take --point need it.
            out += _by_factor(("--model", name))
    for source in USER_PAIRS:
        out += _by_factor(source) + _by_point(source, POINTS[1:])
    for source in BAD_SOURCES:
        out += _by_factor(source)[:7]  # each subcommand once, without k
    return out + _by_point(("--model", "cusp"), BAD_POINTS)


def _flow_commands() -> list[tuple[str, ...]]:
    base = ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1")
    out = [base + ("--dt", dt, "--steps", "5") for dt in ("nan", "inf", "-1", "abc", "0")]
    out += [
        base + ("--steps", steps)
        for steps in ("0", "-3", "x", "1", "100001")
    ]
    out += [
        base[:3] + ("--point", "0,1,1,1"),  # no --h
        base[:4] + ("x +", "--point", "0,1,1,1"),
        ("flow", "--model", "cusp", "--h", "x^4", "--point", "10,10,10,10",
         "--dt", "1", "--steps", "5"),
        ("flow", "--model", "fold", "--h", "x", "--point", "1e200,1,1,1", "--steps", "3"),
        ("flow", "--model", "cusp", "--h", "1" + "0" * 400, "--point", "0,1,1,1",
         "--steps", "2"),
    ]
    return out


def _other_commands() -> list[tuple[str, ...]]:
    return [
        ("list-models",),
        ("list-models", "--format", "text"),
        ("list-models", "--format", "json"),
        ("list-models", "--format", "csv"),
        ("--version",),
        (),
        ("no-such-command",),
        ("bivector", "--model", "cusp", "--format", "csv"),
        ("rank", "--model", "cusp"),
        ("rank", "--model", "fold", "--k", "x*y", "--point=1,1e200,1e200,1"),
        ("leaf-form", "--model", "fold", "--k", "x*y", "--point=1,1e200,1e200,1"),
        ("rank", "--model", "fold", "--k", "x*y", "--point=1e160,1,1,1"),
        ("jacobi", "--model", "cusp", "--k", "1" + "0" * 400 + "*x + 1"),
        # Rationals too large to print or to make a float, and literals too
        # long for int(): usage errors.  (An --s such as 1e99999999, which
        # takes minutes to build, is left to tests/test_cli.py: the corpus
        # also runs on trees from before its bound.)
        ("bivector", "--model", "birth", "--s", "1e5000"),
        ("rank", "--model", "birth", "--s", "1e5000", "--point", "1,1,1,1"),
        ("rank", "--model", "birth", "--s", "1e350", "--point", "1,1,1,1"),
        ("bivector", "--c1", "x*" + "9" * 5000, "--c2", "y"),
        ("bivector", "--c1", "x^" + "9" * 5000, "--c2", "y"),
        # Products and powers of literals under the parser's limit whose
        # coefficients pass CPython's 4,300-digit int-to-str limit.
        ("flow", "--model", "fold", "--h", "(y*" + "9" * 900 + ")^5",
         "--point=0.1,0.5,0.5,0.5", "--steps", "3"),
        ("bivector", "--c1", "(x*" + "9" * 900 + ")^3", "--c2", "(y*" + "9" * 900 + ")^3"),
        ("rank", "--c1", "(x*" + "9" * 900 + ")^5", "--c2", "y", "--point", "1,1,1,1"),
        # The Jacobiator of two sextics would take 15.8 M term products, past
        # the bracket layer's work limit: exit 1.  With a quintic it takes
        # 8.4 M, under the limit, and runs.
        ("jacobi", "--c1", "(x+y+z+t+1)^6", "--c2", "(x-y+2*z-t+3)^6"),
        ("jacobi", "--c1", "(x+y+z+t+1)^6", "--c2", "(x-y+2*z-t+3)^5"),
        # A k that makes the probe warn beside a usage error: the usage
        # error is reported alone, with no warning before it.
        ("rank", "--model", "cusp", "--k", "x", "--point", "0,1,1"),
        ("locus", "--model", "cusp", "--k", "x", "--point", "nan,0,0,1"),
        ("leaf-form", "--model", "cusp", "--k", "x", "--point", "1,a,0,0"),
        ("casimir-check", "--model", "cusp", "--k", "x", "--h", "x +"),
        ("flow", "--model", "cusp", "--k", "x", "--h", "x", "--point", "0,1,1,1",
         "--dt", "nan"),
        ("flow", "--model", "cusp", "--k", "x", "--h", "x", "--point", "0,1,1,1",
         "--steps", "0"),
        ("flow", "--model", "cusp", "--k", "x", "--h", "x +", "--point", "0,1,1,1"),
        # Values that begin with '-' after a space read as in the '=' form;
        # a missing value before an option stays a usage error.
        ("bivector", "--model", "birth", "--s", "-1/2"),
        ("rank", "--model", "birth", "--s", "-1e-3", "--point", "1,1,1,1"),
        ("bivector", "--c1", "-x^2", "--c2", "y"),
        ("casimir-check", "--model", "cusp", "--h", "-x"),
        ("jacobi", "--model", "cusp", "--k", "-x^2-1"),
        ("flow", "--model", "cusp", "--h", "-x", "--point", "0,1,1,1", "--steps", "3"),
        ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--dt", "-1e-3"),
        ("bivector", "--c1", "--c2", "y"),
    ]


def _abbreviated_commands() -> list[tuple[str, ...]]:
    """Each DASH_VALUES command with its option cut to every prefix that names it alone."""
    names = [option for option, _ in DASH_VALUES]
    out = []
    for option, argv in DASH_VALUES:
        i = argv.index(option)
        for n in range(3, len(option)):
            if sum(name.startswith(option[:n]) for name in names) == 1:
                out.append(argv[:i] + (option[:n],) + argv[i + 1:])
    return out


def readme_commands() -> list[tuple[str, ...]]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        tuple(shlex.split(line)[1:])
        for line in block.splitlines()
        if line.startswith("poisson4 ")
    ]


def corpus() -> list[tuple[str, ...]]:
    """The ordered corpus, each command once."""
    commands = _source_commands() + _flow_commands() + _other_commands()
    commands += readme_commands() + _abbreviated_commands()
    return list(dict.fromkeys(commands))


class CommandTimeout(BaseException):
    """A corpus command ran past ``COMMAND_SECONDS``.

    A ``BaseException``, so that no ``except Exception`` in the command, nor
    the one in :func:`run_command` that records escapes, can take it.
    """


@contextlib.contextmanager
def _time_bound(argv):
    """Raise ``CommandTimeout`` naming ``argv`` once it has run ``COMMAND_SECONDS``.

    The bound is a ``SIGALRM`` interval timer, which only the main thread can
    set; on another thread, or where there is no such timer, the command runs
    unbounded.
    """
    on_main = threading.current_thread() is threading.main_thread()
    if not (on_main and hasattr(signal, "setitimer")):
        yield
        return

    def expire(signum, frame):
        raise CommandTimeout(f"{shlex.join(argv)} ran past {COMMAND_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_command(main, argv) -> dict:
    """One command in-process: exit, stdout, stderr, warnings and their sites.

    A command still running after ``COMMAND_SECONDS`` raises ``CommandTimeout``.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with _time_bound(argv):
                    code = main(list(argv))
            except Exception as exc:  # recorded: the contract allows none
                code = f"exception: {type(exc).__name__}: {exc}"
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "sites": [f"{w.filename}:{w.lineno}" for w in caught],
    }


def _worker(tree: Path) -> None:
    """Run the corpus against ``tree/src`` and print the results as JSON."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from poisson4 import cli

    if not cli.__file__.startswith(str(src)):
        raise SystemExit(f"imported {cli.__file__}, not the tree's")
    skip_leaf_form = importlib.util.find_spec("numpy") is None
    results = [
        {"exit": NOT_RUN, "stdout": "", "stderr": "", "warnings": [], "sites": []}
        if skip_leaf_form and argv[:1] == ("leaf-form",)
        else run_command(cli.main, argv)
        for argv in corpus()
    ]
    for result in results:
        result["sites"] = [
            os.path.relpath(site, src) if site.startswith(str(src)) else site
            for site in result["sites"]
        ]
    json.dump(results, sys.stdout)


def run_tree(tree: Path, python: str = sys.executable) -> list[dict]:
    """The corpus results of one tree, from a fresh interpreter ``python``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [python, __file__, "--worker", str(tree)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"corpus run in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def pins(tree: Path, python: str = sys.executable) -> dict[str, list]:
    """[exit, sha256 of stdout] per command.

    ``leaf-form`` prints the digits of LAPACK solves, whose last bits may
    differ with the BLAS build, so only its exit code is pinned.
    """
    return {
        shlex.join(argv): [
            result["exit"],
            None
            if argv[:1] == ("leaf-form",)
            else hashlib.sha256(result["stdout"].encode()).hexdigest(),
        ]
        for argv, result in zip(corpus(), run_tree(tree, python))
    }


def against(got: dict[str, list], pinned: dict[str, list]) -> dict:
    """How one run's pins compare with the committed ones."""
    not_run = [command for command, (code, _) in got.items() if code == NOT_RUN]
    differing = [
        command
        for command, pin in got.items()
        if pin[0] != NOT_RUN and pin != pinned.get(command)
    ]
    return {
        "commands": len(got),
        "identical": len(got) - len(not_run) - len(differing),
        "not_run": len(not_run),
        "differing": differing,
        "unpinned": sorted(set(got) ^ set(pinned)),
    }


def compare(old_tree: Path, new_tree: Path, python: str = sys.executable) -> int:
    return report(corpus(), run_tree(old_tree, python), run_tree(new_tree, python))


def report(commands, old: list[dict], new: list[dict]) -> int:
    """Print the differences of two corpus runs; 1 if a new result escapes.

    An exit outside {0, 1, 2} fails only in the new tree.  The old tree's
    are counted for information: a change that mends such an exit, and pins
    the mended command in the corpus, runs it on a base that still escapes.
    """
    groups: collections.Counter = collections.Counter()
    moved: collections.Counter = collections.Counter()
    listed = []
    escapes = collections.Counter()
    for argv, a, b in zip(commands, old, new):
        for side, r in (("old", a), ("new", b)):
            escapes[side] += r["exit"] not in (0, 1, 2, NOT_RUN)
            escapes[f"{side} not run"] += r["exit"] == NOT_RUN
        if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]):
            kind = "exit/stdout"
        elif (a["stderr"], a["warnings"]) != (b["stderr"], b["warnings"]):
            kind = "stderr only"
        else:
            kind = None
        if a["warnings"] == b["warnings"]:
            for site_a, site_b in zip(a["sites"], b["sites"]):
                if site_a != site_b:
                    moved[(site_a, site_b)] += 1
        if kind is not None:
            command = argv[0] if argv else "(none)"
            groups[(kind, command, a["exit"], b["exit"])] += 1
            listed.append(f"{kind:<12} {a['exit']} -> {b['exit']}  {shlex.join(argv)}")

    print(f"commands: {len(commands)}")
    print(f"identical exit, stdout, stderr and warnings: {len(commands) - len(listed)}")
    print(f"{'difference':<12} {'subcommand':<14} {'exit old -> new':<16} count")
    for (kind, command, code_a, code_b), count in sorted(groups.items(), key=str):
        print(f"{kind:<12} {command:<14} {f'{code_a} -> {code_b}':<16} {count}")
    for (site_a, site_b), count in sorted(moved.items()):
        print(f"warning site {site_a} -> {site_b}: {count}")
    print(f"exits outside {{0, 1, 2}}: old {escapes['old']} (not checked), new {escapes['new']}")
    if escapes["old not run"] or escapes["new not run"]:
        print(f"not run: old {escapes['old not run']}, new {escapes['new not run']}")
    if listed:
        print("\ndiffering commands:\n" + "\n".join(listed))
    return 1 if escapes["new"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--pins", type=Path, metavar="TREE", help="print TREE's pins")
    parser.add_argument(
        "--python", default=sys.executable, metavar="PATH",
        help="the interpreter that runs the corpus (default: this one)",
    )
    parser.add_argument(
        "--against", type=Path, metavar="PINS",
        help="with --pins, compare with the pins in this file and print the result",
    )
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker)
        return 0
    if args.pins is not None:
        got = pins(args.pins, args.python)
        if args.against is not None:
            version = subprocess.run(
                [args.python, "-c", "import platform; print(platform.python_version())"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            pinned = json.loads(args.against.read_text(encoding="utf-8"))
            print(json.dumps({"python": version, **against(got, pinned)}, indent=2))
            return 0
        lines = [f"{json.dumps(c)}: {json.dumps(v)}" for c, v in got.items()]
        print("{\n" + ",\n".join(lines) + "\n}")
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_TREE and NEW_TREE, or --pins TREE")
    return compare(*args.trees, args.python)


if __name__ == "__main__":
    raise SystemExit(main())
