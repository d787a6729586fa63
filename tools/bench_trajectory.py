"""Chain the per-record pair ratios of the committed ``BENCH_*.json`` files.

Usage::

    python tools/bench_trajectory.py [DIR]

``tools/bench_pairs.py`` writes one record per change: per workload and
end-to-end metric, the median of the per-pair ratio new/old.  Absolute
medians do not carry from one record to the next (the machine's speed moves
between sessions), but ratios taken within pairs do.  This script reads
every ``BENCH_*.json`` in DIR (the repository root by default) and prints,
per workload and metric, each record's median ``pair_ratio`` with the
commits it compared, oldest record first, and their product: the chained
ratio.  The product is taken over the records listed; it is a trajectory
only as far as their commits follow one another.

A record, or one of its workloads or metrics, without a ``pair_ratio`` is
listed as skipped.  Its figure is never filled in from anywhere else.  A
file that is not a well-formed record makes the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RecordError(ValueError):
    """A ``BENCH_*.json`` file that is not a well-formed record."""


def _require(condition: bool, path: Path, what: str) -> None:
    if not condition:
        raise RecordError(f"{path.name}: {what}")


def _commits(path: Path, data: dict) -> str:
    """``old -> new`` from the record's ``trees``, or a note that it has none."""
    trees = data.get("trees", {})
    _require(isinstance(trees, dict), path, "'trees' is not an object")
    if "old_commit" in trees and "new_commit" in trees:
        return f"{trees['old_commit']} -> {trees['new_commit']}"
    return "commits not recorded (trees {} -> {})".format(
        trees.get("old", "?"), trees.get("new", "?")
    )


def read_record(path: Path) -> dict:
    """One record: its label, compared commits, start time and median ratios.

    ``ratios`` maps (workload, metric) to the median pair ratio, or to None
    where the record has no ``pair_ratio``.
    """
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise RecordError(f"{path.name}: not JSON ({err})") from None
    _require(isinstance(data, dict), path, "not a JSON object")
    _require(isinstance(data.get("label"), str), path, "no 'label'")
    workloads = data.get("workloads")
    _require(isinstance(workloads, dict) and workloads, path, "no 'workloads'")
    ratios, started = {}, []
    for workload, run in workloads.items():
        _require(isinstance(run, dict), path, f"{workload}: not an object")
        metrics = run.get("metrics")
        _require(isinstance(metrics, dict) and metrics, path, f"{workload}: no 'metrics'")
        if isinstance(run.get("started"), str):
            started.append(run["started"])
        for metric, m in metrics.items():
            where = f"{workload} {metric}"
            _require(isinstance(m, dict), path, f"{where}: not an object")
            _require(m.get("better") in ("higher", "lower"), path, f"{where}: bad 'better'")
            ratio = m.get("pair_ratio")
            if ratio is not None:
                _require(isinstance(ratio, dict), path, f"{where}: 'pair_ratio' is not an object")
                median = ratio.get("median")
                _require(
                    type(median) in (int, float) and math.isfinite(median) and median > 0,
                    path, f"{where}: 'pair_ratio' has no positive finite median",
                )
            ratios[(workload, metric)] = None if ratio is None else ratio["median"]
    return {
        "file": path.name,
        "label": data["label"],
        "commits": _commits(path, data),
        "started": min(started, default=""),
        "ratios": ratios,
    }


def trajectory(records: list[dict]) -> dict:
    """Per (workload, metric): the records with a ratio, in order, and their product.

    Returns ``{(workload, metric): {"steps": [(record, ratio)], "chained": float,
    "skipped": [record]}}``.
    """
    out: dict = {}
    for record in sorted(records, key=lambda r: (r["started"], r["file"])):
        for key, ratio in record["ratios"].items():
            entry = out.setdefault(key, {"steps": [], "chained": 1.0, "skipped": []})
            if ratio is None:
                entry["skipped"].append(record)
            else:
                entry["steps"].append((record, ratio))
                entry["chained"] *= ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT,
                        help="directory holding the BENCH_*.json records")
    args = parser.parse_args(argv)
    paths = sorted(args.dir.glob("BENCH_*.json"))
    try:
        if not paths:
            raise RecordError(f"no BENCH_*.json in {args.dir}")
        records = [read_record(path) for path in paths]
    except RecordError as err:
        print(f"bench_trajectory: {err}", file=sys.stderr)
        return 1
    for (workload, metric), entry in sorted(trajectory(records).items()):
        print(f"{workload} {metric}: chained pair ratio {entry['chained']:.4g} "
              f"over {len(entry['steps'])} record(s)")
        for record, ratio in entry["steps"]:
            print(f"  {ratio:8.4g}  {record['file']}  {record['commits']}")
        for record in entry["skipped"]:
            print(f"  skipped   {record['file']}  {record['commits']} (no pair_ratio)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
