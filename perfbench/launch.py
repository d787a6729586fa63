"""Traced stand-in for ``python -m poisson4 ARGS...`` (cli-cold, --trace 1).

Times the numpy import, the rest of ``import poisson4.cli`` and ``main()``,
traces the library layers underneath ``main()``, and writes the result as
JSON to the file descriptor named by PERFBENCH_TRACE_FD.  Exit status,
stdout and stderr are those of ``python -m poisson4``.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import poisson4.cli  # noqa: E402

t2 = perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    t3 = perf_counter()
    try:
        return poisson4.cli.main(sys.argv[1:])
    finally:
        main_ms = (perf_counter() - t3) * 1e3
        tracer.uninstall()
        import json

        payload = json.dumps(
            {
                "import_numpy_ms": (t1 - t0) * 1e3,
                "import_poisson4_ms": (t2 - t1) * 1e3,
                "main_ms": main_ms,
                "spans": tracer.dump(),
            }
        )
        with os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w") as out:
            out.write(payload)


if __name__ == "__main__":
    raise SystemExit(main())
