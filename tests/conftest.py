"""Run the suite against this checkout's ``src/``.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's path; the
tests that start a fresh ``python -m poisson4`` need it in ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
