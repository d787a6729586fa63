"""Per-input CPU times of ``flow`` and ``to_csv`` on the flow-rk4 inputs.

Usage::

    python tools/flow_ops.py TREE [--passes 20] [--seed 1]
    python tools/flow_ops.py OLD_TREE NEW_TREE [--processes 6] [--passes 20] [--seed 1]

A tree is a checkout holding ``src/poisson4`` and ``perfbench/``.  The inputs
are those of the benchmark's flow-rk4 workload: every ``charts.FLOW_COMBOS``
(model, s, h), ``workloads.STARTS_PER_COMBO`` start points each, chosen by
``workloads.flow_start`` from random generators seeded by ``--seed``, the
combination and the start.  Nothing under ``perfbench/`` is changed.

One tree: the inputs are timed in one process, each pass running every input
once: the 1000-step ``flow`` and, apart, its ``to_csv``, in CPU seconds.
The table gives each input's minimum over the passes, then the median and
the 90th percentile (nearest rank) of flow + CSV over the inputs: the
workload's ``op_p50_ms`` and ``op_tail_ms`` without its round structure.

Two trees: ``--processes`` processes per tree, in alternating order, each
timing ``--passes`` passes as above; the table gives each input's minimum
over every process of a side, and the ratio new/old.  The kernel compiled
on the first flow of an input (the start search) is not timed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path


def measure(tree: Path, passes: int, seed: int) -> list[tuple[str, float, float]]:
    """(input label, flow seconds, to_csv seconds) per input, minima over ``passes``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import charts
    import workloads
    from poisson4 import flaschka_ratiu, flow, model, parse

    inputs = []
    for c, (name, s, h_text) in enumerate(charts.FLOW_COMBOS):
        b = flaschka_ratiu(model(name, s).casimirs)
        h = parse(charts.to_poisson4(h_text))
        for j in range(workloads.STARTS_PER_COMBO):
            rng = random.Random(f"{seed}:{c}:{j}")
            p, _ = workloads.flow_start(lambda fn, *args: fn(*args), rng, b, h, s)
            inputs.append((f"{name} s={s} h={h_text} #{j}", b, h, p))
    cpu = time.process_time
    best = {label: [math.inf, math.inf] for label, *_ in inputs}
    for _ in range(passes):
        for label, b, h, p in inputs:
            t0 = cpu()
            traj = flow(b, h, p, charts.FLOW_DT, charts.FLOW_STEPS)
            t1 = cpu()
            traj.to_csv()
            t2 = cpu()
            times = best[label]
            times[0] = min(times[0], t1 - t0)
            times[1] = min(times[1], t2 - t1)
    return [(label, *times) for label, times in best.items()]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def summary(rows: list[tuple[str, float, float]]) -> tuple[float, float]:
    totals = [f + c for _, f, c in rows]
    return nearest_rank(totals, 50), nearest_rank(totals, 90)


def one_tree(rows: list[tuple[str, float, float]]) -> None:
    print(f"{'input':34} {'flow ms':>9} {'csv ms':>9}")
    for label, f, c in rows:
        print(f"{label:34} {1e3 * f:9.3f} {1e3 * c:9.3f}")
    p50, p90 = summary(rows)
    print(f"flow + csv over {len(rows)} inputs: p50 {1e3 * p50:.3f} ms, p90 {1e3 * p90:.3f} ms")


def worker(tree: Path, passes: int, seed: int) -> list[tuple[str, float, float]]:
    argv = [sys.executable, __file__, str(tree), "--passes", str(passes),
            "--seed", str(seed), "--json"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return [tuple(row) for row in json.loads(out)]


def two_trees(old: Path, new: Path, processes: int, passes: int, seed: int) -> None:
    best: dict[str, dict[str, list[float]]] = {"old": {}, "new": {}}
    for i in range(processes):
        order = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
        for side, tree in order:
            for label, f, c in worker(tree, passes, seed):
                times = best[side].setdefault(label, [math.inf, math.inf])
                times[0], times[1] = min(times[0], f), min(times[1], c)
    rows = {side: [(label, *t) for label, t in best[side].items()] for side in best}
    head = f"{'new':>9} {'ratio':>6}"
    print(f"{'input':34} {'flow old':>9} {head} {'csv old':>9} {head}")
    for (label, fo, co), (_, fn, cn) in zip(rows["old"], rows["new"]):
        print(f"{label:34} {1e3 * fo:9.3f} {1e3 * fn:9.3f} {fn / fo:6.3f}"
              f" {1e3 * co:9.3f} {1e3 * cn:9.3f} {cn / co:6.3f}")
    (o50, o90), (n50, n90) = summary(rows["old"]), summary(rows["new"])
    print(f"flow + csv over {len(rows['old'])} inputs, old -> new: "
          f"p50 {1e3 * o50:.3f} -> {1e3 * n50:.3f} ms ({n50 / o50:.3f}), "
          f"p90 {1e3 * o90:.3f} -> {1e3 * n90:.3f} ms ({n90 / o90:.3f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("trees", nargs="+", type=Path, help="TREE, or OLD_TREE NEW_TREE")
    parser.add_argument("--passes", type=int, default=20, help="passes per process")
    parser.add_argument("--processes", type=int, default=6, help="processes per tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if len(args.trees) > 2 or args.passes < 1 or args.processes < 1:
        parser.error("give one or two trees, and at least one pass and one process")
    trees = [tree.resolve() for tree in args.trees]
    if len(trees) == 2:
        two_trees(*trees, args.processes, args.passes, args.seed)
        return 0
    rows = measure(trees[0], args.passes, args.seed)
    if args.json:
        print(json.dumps(rows))
    else:
        one_tree(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
