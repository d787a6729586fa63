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

A record whose ``old_commit`` equals its ``new_commit`` is an A/A record:
one tree run as both sides, so its ratios show how far a pair ratio moves
with no change at all.  It is printed as the null spread of each of its
metrics, the median and interquartile range of its pair ratio, and left out
of the product.  Every metric of an A/A record needs a ``pair_ratio`` with
both.

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


def _finite(value, positive: bool) -> bool:
    return type(value) in (int, float) and math.isfinite(value) and (
        value > 0 if positive else value >= 0
    )


def _commits(path: Path, data: dict) -> tuple[str, bool]:
    """``old -> new`` from the record's ``trees``, or a note that it has none,
    and whether it is an A/A record (the two commits equal)."""
    trees = data.get("trees", {})
    _require(isinstance(trees, dict), path, "'trees' is not an object")
    if "old_commit" in trees and "new_commit" in trees:
        old, new = trees["old_commit"], trees["new_commit"]
        return f"{old} -> {new}", old == new
    return "commits not recorded (trees {} -> {})".format(
        trees.get("old", "?"), trees.get("new", "?")
    ), False


def read_record(path: Path) -> dict:
    """One record: its label, compared commits, start time and median ratios.

    ``ratios`` maps (workload, metric) to the median pair ratio, or to None
    where the record has no ``pair_ratio``.  ``null`` says whether it is an
    A/A record; if so, ``iqrs`` maps each (workload, metric) to the
    interquartile range of its pair ratio.
    """
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise RecordError(f"{path.name}: not JSON ({err})") from None
    _require(isinstance(data, dict), path, "not a JSON object")
    _require(isinstance(data.get("label"), str), path, "no 'label'")
    commits, null = _commits(path, data)
    workloads = data.get("workloads")
    _require(isinstance(workloads, dict) and workloads, path, "no 'workloads'")
    ratios, iqrs, started = {}, {}, []
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
            _require(ratio is not None or not null, path, f"{where}: A/A record without 'pair_ratio'")
            if ratio is not None:
                _require(isinstance(ratio, dict), path, f"{where}: 'pair_ratio' is not an object")
                _require(
                    _finite(ratio.get("median"), positive=True),
                    path, f"{where}: 'pair_ratio' has no positive finite median",
                )
                if null:
                    _require(
                        _finite(ratio.get("iqr"), positive=False),
                        path, f"{where}: A/A 'pair_ratio' has no finite IQR",
                    )
                    iqrs[(workload, metric)] = ratio["iqr"]
            ratios[(workload, metric)] = None if ratio is None else ratio["median"]
    return {
        "file": path.name,
        "label": data["label"],
        "commits": commits,
        "started": min(started, default=""),
        "ratios": ratios,
        "null": null,
        "iqrs": iqrs,
    }


def trajectory(records: list[dict]) -> dict:
    """Per (workload, metric): the records with a ratio, in order, and their product.

    Returns ``{(workload, metric): {"steps": [(record, ratio)], "chained": float,
    "skipped": [record], "null": [(record, ratio, iqr)]}}``; the A/A records
    are under ``"null"`` alone.
    """
    out: dict = {}
    for record in sorted(records, key=lambda r: (r["started"], r["file"])):
        for key, ratio in record["ratios"].items():
            entry = out.setdefault(key, {"steps": [], "chained": 1.0, "skipped": [], "null": []})
            if record["null"]:
                entry["null"].append((record, ratio, record["iqrs"][key]))
            elif ratio is None:
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
        for record, ratio, iqr in entry["null"]:
            print(f"  null {ratio:8.4g}  IQR {iqr:.4g}  {record['file']}  {record['commits']} "
                  "(A/A, not chained)")
        for record, ratio in entry["steps"]:
            print(f"  {ratio:8.4g}  {record['file']}  {record['commits']}")
        for record in entry["skipped"]:
            print(f"  skipped   {record['file']}  {record['commits']} (no pair_ratio)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
