"""Alternating before/after runs of ``perfbench/run.py`` on two source trees.

Usage::

    python tools/bench_pairs.py OLD_TREE NEW_TREE --workload exact-catalogue \\
        --seeds 1-10 --label exact_int_engine \\
        --old-commit c5967f3 --new-commit "c5967f3 + uncommitted change"

``--workload`` may be given more than once: the workloads run one after the
other, each over every seed, and each gets its own section of the record,
written as soon as its last pair has run.  A workload named twice is a usage
error (exit 2), and so are an ``--out-dir`` that is not a directory and a
record there that is not a JSON object: nothing runs.

Each tree is a checkout holding ``src/poisson4`` and ``perfbench/``, for
example one made with ``git archive``.  Such an export holds no commit id,
so ``--old-commit`` and ``--new-commit`` name the commit each tree was
exported from (for a change not yet committed, its parent and a note), and
the record keeps them under ``"trees"``.

Neither side runs where it was given.  Both trees are copied, without
``__pycache__`` directories or ``.git``, to ``<work>/old/tree`` and
``<work>/new/tree`` under one fresh temporary directory, and the copies are
removed after the last run.  The two paths have equal length and the same last
component, so whatever a run keeps of its own path (``sys.path``, module
file names) costs both sides alike: ``peak_rss_mb`` moved by up to 0.5 MB
with nothing but the checkout's directory name changed.  The record keeps
the paths under ``"run_trees"`` of its workload.  Each run gets
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their sources alike on
every start: a bytecode cache in one tree only reads as a cli-cold
difference between identical import paths.

One pair is one run per tree on the same seed, of the length
``BENCHMARK.json`` sets as ``run_seconds``; the side that runs first
alternates from pair to pair.  Only the last stdout line of
``perfbench/run.py`` is read.  The record ``BENCH_<label>.json`` (in
``--out-dir``, the current directory by default) holds, per workload, the
environment, each side's median and interquartile range of every end-to-end
metric, the median and interquartile range of the per-pair ratio new/old,
the pairs the new tree won on each metric (the direction comes from
``BENCHMARK.json``), and every run's ``correct``, ``attempted`` and
``failed``.  The ratio is taken within each pair, so a drift of the
machine's speed that moves both runs of a pair alike cancels in it, while it
widens each side's own interquartile range.  A workload already in the
record is replaced; the others are kept, so one record can collect several
workloads.
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
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``1101-1110,1200`` -> [1101, ..., 1110, 1200]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


# Left out of the copies: bytecode caches, so that every run compiles its
# sources, and version control, which no run reads.
_NOT_COPIED = shutil.ignore_patterns("__pycache__", ".git")


def run_trees(work: Path) -> dict[str, Path]:
    """Where each side runs: paths of equal length with the same last component."""
    return {side: work / side / "tree" for side in ("old", "new")}


def copy_trees(old: Path, new: Path, work: Path) -> dict[str, Path]:
    """Copy the two trees to their :func:`run_trees` paths under ``work``."""
    paths = run_trees(work)
    for side, tree in (("old", old), ("new", new)):
        shutil.copytree(tree, paths[side], ignore=_NOT_COPIED)
    return paths


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
        ratios = [b / a for a, b in zip(old_v, new_v) if a]
        out[name] = {
            "better": better,
            "old": old_s,
            "new": new_s,
            # None when fewer than two pairs have a nonzero old value.
            "pair_ratio": summary(ratios) if len(ratios) > 1 else None,
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
    parser.add_argument("--workload", required=True, action="append",
                        choices=("exact-catalogue", "leaf-sweep", "flow-rk4", "cli-cold"),
                        help="a workload to compare; repeat the option for several")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed list, e.g. 1101-1110 or 5,7,9")
    parser.add_argument("--label", required=True)
    parser.add_argument("--old-commit", required=True,
                        help="the commit OLD_TREE was exported from")
    parser.add_argument("--new-commit", required=True,
                        help="the commit NEW_TREE was exported from")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds: the IQR needs two pairs")
    for workload in args.workload:
        if args.workload.count(workload) > 1:
            parser.error(f"--workload {workload} is given more than once")
    # A record that cannot be written would be found only after the first
    # workload's last pair.
    if not args.out_dir.is_dir():
        parser.error(f"--out-dir {args.out_dir} is not a directory")
    path = record_path(args)
    try:
        kept = json.loads(path.read_text()) if path.exists() else {}
    except (OSError, ValueError):
        kept = None
    if not isinstance(kept, dict):
        parser.error(f"{path} exists and is not a JSON object")

    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        paths = copy_trees(args.old, args.new, work)
        for workload in args.workload:
            started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
            load = os.getloadavg()
            record = compare(paths["old"], paths["new"], workload, args.seeds)
            record.update(started=started, load_average_at_start=load,
                          run_trees={side: str(path) for side, path in paths.items()})
            write_record(args, workload, record)
    finally:
        shutil.rmtree(work)
    return 0


def record_path(args) -> Path:
    return args.out_dir / f"BENCH_{args.label}.json"


def write_record(args, workload: str, record: dict) -> None:
    """Put ``record`` into BENCH_<label>.json as the section of ``workload`` and print it."""
    path = record_path(args)
    data = json.loads(path.read_text()) if path.exists() else {}
    data["label"] = args.label
    data["environment"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": "1",
        "timing": "CPU time, as perfbench/run.py reports it",
    }
    data["trees"] = {
        "old": args.old.resolve().name, "new": args.new.resolve().name,
        "old_commit": args.old_commit, "new_commit": args.new_commit,
    }
    data.setdefault("workloads", {})[workload] = record
    path.write_text(json.dumps(data, indent=2) + "\n")
    for name, m in record["metrics"].items():
        ratio = m["pair_ratio"]
        paired = "" if ratio is None else (
            f", pair ratio new/old {ratio['median']:.4g} (IQR {ratio['iqr']:.3g})"
        )
        print(f"{workload} {name}: {m['old']['median']:.4g} -> {m['new']['median']:.4g} "
              f"({m['median_change_pct']:+.1f} %), new wins {m['new_wins']}/{m['pairs']}, "
              f"old IQR {m['old']['iqr']:.3g}{paired}")


if __name__ == "__main__":
    raise SystemExit(main())
