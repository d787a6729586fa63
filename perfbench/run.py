"""poisson4 benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: poisson4 is imported from its ``src/``.
Workloads: exact-catalogue, leaf-sweep, flow-rk4, cli-cold (see README.md).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(setup_s, ops_per_s, op_p50_ms, op_tail_ms, peak_rss_mb); with ``--trace 1``
the per-layer metrics of a traced run of fixed length.  Outputs are checked
against sympy/scipy references after the timed phase; ``correct`` is false
if any check fails.  A summary goes to stderr.
"""

import os

# Pin BLAS/OpenMP to one thread, for this process and every child, before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
WALL_FACTOR = 3
# Wall-clock limit on a timed phase that cannot reach its minimum op count.
HARD_LIMIT_S = 100


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_poisson4():
    if not os.path.isfile(os.path.join(SRC, "poisson4", "__init__.py")):
        raise SystemExit(f"perfbench: no poisson4 sources under {SRC}")
    sys.path.insert(0, SRC)
    import poisson4

    if not os.path.abspath(poisson4.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: poisson4 was imported from {poisson4.__file__}")
    import workloads

    return workloads


def timed_phase(w, seconds: float, rounds_limit=None):
    """Attempt whole rounds until ``seconds`` of op CPU time and ``w.min_ops``.

    A run on a busy machine also stops, at the end of a round, once the wall
    clock has run WALL_FACTOR times ``seconds`` (and ``w.min_ops`` are done).
    Returns the CPU seconds of each completed op, grouped by round, the first
    output kept per input, and the inputs whose repeats gave another output.
    """
    rounds, outputs, differing = [], {}, set()
    attempted = failed = completed = 0
    busy = 0.0
    cpu = w.cpu
    wall_end = perf_counter() + WALL_FACTOR * seconds
    hard_end = perf_counter() + HARD_LIMIT_S
    for mix in w.rounds():
        latencies = []
        for inp in mix:
            t0 = cpu()
            try:
                out = w.op(inp)
            except Exception as err:  # OpFailed, or an uncaught fault in poisson4
                out, error = None, err
            dt = cpu() - t0
            busy += dt
            attempted += 1
            if out is None:
                failed += 1
                if failed <= 3:
                    log(f"failed op: {error!r}"[:300])
                continue
            latencies.append(dt)
            key, value = w.keep(inp, out)
            if outputs.setdefault(key, value) != value:
                differing.add(key)
        rounds.append(latencies)
        completed += len(latencies)
        if rounds_limit is not None:
            if len(rounds) >= rounds_limit:
                break
        elif completed >= w.min_ops and (busy >= seconds or perf_counter() > wall_end):
            break
        elif perf_counter() > hard_end:  # ops keep failing: give up, stay in time
            log(f"stopped after {HARD_LIMIT_S} s with {completed} ops completed")
            break
    return rounds, outputs, differing, attempted, failed


def latency_metrics(w, rounds) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms from the per-round op times.

    ops_per_s is the median over rounds of completed ops per CPU second, so a
    burst of contention on the shared machine moves one round, not the run.
    op_tail_ms is the ``w.tail_pct`` percentile of all op times or, when
    ``w.tail_per_round`` is set, the median over rounds of each round's.
    """
    import numpy as np

    rounds = [lat for lat in rounds if lat]
    if not rounds:
        raise SystemExit("perfbench: no op completed, so there is nothing to time")
    every = [x * 1e3 for lat in rounds for x in lat]
    if w.tail_per_round:
        tail = statistics.median(float(np.percentile(lat, w.tail_pct)) * 1e3 for lat in rounds)
    else:
        tail = float(np.percentile(every, w.tail_pct))
    return {
        "ops_per_s": (statistics.median(len(lat) / sum(lat) for lat in rounds), "1/s"),
        "op_p50_ms": (statistics.median(every), "ms"),
        "op_tail_ms": (tail, "ms"),
    }


def run(args) -> dict:
    workloads = load_poisson4()
    cls = workloads.WORKLOADS[args.workload]
    w = cls(args.seed)
    tracer, cli_times = None, []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

        def from_child(payload):
            tracer.merge(payload["spans"])
            cli_times.append(payload)

        w.launcher_trace = from_child
        tracer.install()

    setup_times = []
    for _ in range(1 if args.trace else SETUPS):
        clock = workloads.Clock(w.cpu)
        w.setup(clock)
        setup_times.append(clock.seconds)
    gc.collect()
    rounds, outputs, differing, attempted, failed = timed_phase(
        w, args.seconds, w.trace_rounds if args.trace else None
    )
    peak_rss_mb = w.peak_rss_kb() / 1024.0
    if tracer is not None:
        tracer.uninstall()

    errors = [f"input {key} gave two different outputs" for key in differing]
    errors += w.check(outputs)
    for e in errors[:20]:
        log(f"check failed: {e}")
    timing = latency_metrics(w, rounds)
    per_block = min(map(len, rounds)) if w.tail_per_round else sum(map(len, rounds))
    log(
        f"{w.name} seed={args.seed}: {len(rounds)} rounds, {attempted} ops attempted, "
        f"{failed} failed; ops_per_s={timing['ops_per_s'][0]:.6g}; op_tail_ms is "
        f"p{w.tail_pct:g} of {per_block} samples or more "
        f"({per_block * (1 - w.tail_pct / 100):.1f} beyond it); {len(errors)} check errors"
    )
    if args.trace:
        from spans import layer_metrics

        metrics = layer_metrics(tracer, cli_times)
        log("traced run: compare ops_per_s with an untraced run for the tracing overhead")
    else:
        metrics = dict(timing, setup_s=(statistics.median(setup_times), "s"),
                       peak_rss_mb=(peak_rss_mb, "MB"))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-catalogue", "leaf-sweep", "flow-rk4", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
