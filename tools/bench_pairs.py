"""Alternating before/after runs of ``perfbench/run.py`` on two source trees.

Usage::

    python tools/bench_pairs.py OLD_TREE NEW_TREE --workload cli-cold \\
        --seeds 1101-1110 --label rank_without_numpy

Each tree is a checkout holding ``src/poisson4`` and ``perfbench/``, for
example one made with ``git archive``.  Before the first run the script
deletes every ``__pycache__`` directory under both trees, and each run gets
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their sources alike on
every start: a bytecode cache in one tree only reads as a cli-cold
difference between identical import paths.

One pair is one run per tree on the same seed, of the length
``BENCHMARK.json`` sets as ``run_seconds``; the side that runs first
alternates from pair to pair.  Only the last stdout line of
``perfbench/run.py`` is read.  The record ``BENCH_<label>.json`` (in
``--out-dir``, the current directory by default) holds, per workload, the
environment, each side's median and interquartile range of every end-to-end
metric, the pairs the new tree won on each metric (the direction comes from
``BENCHMARK.json``), and every run's ``correct``, ``attempted`` and
``failed``.  A workload already in the record is replaced; the others are
kept, so one record can collect several workloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``1101-1110,1200`` -> [1101, ..., 1110, 1200]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def clear_bytecode(tree: Path) -> int:
    caches = [p for p in tree.rglob("__pycache__") if p.is_dir()]
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"perfbench in {tree} (seed {seed}) exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def compare(old: Path, new: Path, workload: str, seeds: list[int]):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = []
    for pair, seed in enumerate(seeds):
        order = [("old", old), ("new", new)]
        if pair % 2:
            order.reverse()
        for side, tree in order:
            result = run_once(tree, workload, seed, seconds)
            runs.append({
                "pair": pair, "seed": seed, "side": side,
                "first": order[0][0],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()
            ), file=sys.stderr, flush=True)

    by_side = {
        side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side}
        for side in ("old", "new")
    }
    out = {}
    for name, better in metrics.items():
        old_v = [by_side["old"][p][name] for p in range(len(seeds))]
        new_v = [by_side["new"][p][name] for p in range(len(seeds))]
        sign = 1 if better == "higher" else -1
        old_s, new_s = summary(old_v), summary(new_v)
        gap = sign * (new_s["median"] - old_s["median"])
        out[name] = {
            "better": better,
            "old": old_s,
            "new": new_s,
            "median_change_pct": 100 * (new_s["median"] / old_s["median"] - 1),
            "new_wins": sum(sign * (b - a) > 0 for a, b in zip(old_v, new_v)),
            "pairs": len(seeds),
            "median_gain_exceeds_old_iqr": gap > old_s["iqr"],
        }
    return {"seeds": seeds, "seconds": seconds, "metrics": out, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("old", type=Path, help="the tree before the change")
    parser.add_argument("new", type=Path, help="the tree with the change")
    parser.add_argument("--workload", required=True,
                        choices=("exact-catalogue", "leaf-sweep", "flow-rk4", "cli-cold"))
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed list, e.g. 1101-1110 or 5,7,9")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds: the IQR needs two pairs")

    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    cleared = sum(clear_bytecode(tree) for tree in (args.old, args.new))
    load = os.getloadavg()
    record = compare(args.old, args.new, args.workload, args.seeds)
    record.update(started=started, load_average_at_start=load,
                  bytecode_caches_cleared=cleared)

    path = args.out_dir / f"BENCH_{args.label}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["label"] = args.label
    data["environment"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": "1",
        "timing": "CPU time, as perfbench/run.py reports it",
    }
    data["trees"] = {"old": args.old.resolve().name, "new": args.new.resolve().name}
    data.setdefault("workloads", {})[args.workload] = record
    path.write_text(json.dumps(data, indent=2) + "\n")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name}: {m['old']['median']:.4g} -> {m['new']['median']:.4g} "
              f"({m['median_change_pct']:+.1f} %), new wins {m['new_wins']}/{m['pairs']}, "
              f"old IQR {m['old']['iqr']:.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
