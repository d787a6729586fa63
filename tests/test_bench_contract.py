"""The names the benchmark's tracer wraps must exist in poisson4.

``perfbench/spans.py`` replaces functions and ``Expr`` methods by name, so a
rename in poisson4 would otherwise turn its per-layer metrics into silent
zeros under ``--trace 1``.  The file is read and run here, never imported as
a package module, so nothing is written under ``perfbench/``.
"""

import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from poisson4.expr import Expr
from poisson4.leaves import Trajectory

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("perfbench/spans.py is not in this checkout")
    return runpy.run_path(str(SPANS))


def test_every_traced_function_resolves(spans):
    for span, (module, attr) in spans["FUNCTIONS"].items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_every_traced_expr_method_is_defined_on_expr(spans):
    for span, methods in spans["EXPR_METHODS"].items():
        for attr in methods:
            assert attr in Expr.__dict__, (span, attr)
    assert "to_csv" in Trajectory.__dict__


def test_leaf_matrix_evaluations_go_through_the_traced_name():
    # The tracer counts leaves.matrix_evals_per_point on the name
    # bivector_matrix_at as poisson4.leaves holds it.
    import poisson4.leaves
    import poisson4.poisson

    assert poisson4.leaves.bivector_matrix_at is poisson4.poisson.bivector_matrix_at


def test_flow_fields_go_through_the_traced_name():
    # poisson.hamiltonian_field.self_ms counts the field builds of flow's
    # closure memo, which looks the name up in poisson4.rk4.
    import poisson4.poisson
    import poisson4.rk4

    assert poisson4.rk4.hamiltonian_field is poisson4.poisson.hamiltonian_field


def test_bench_pairs_reports_the_per_pair_ratio(monkeypatch):
    # Two pairs whose sides drift together: each side's IQR is wide, the
    # ratio new/old is 2 in both pairs.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    bench_pairs = runpy.run_path(str(tools))
    compare = bench_pairs["compare"]
    values = {("old", 1): 10.0, ("new", 1): 20.0, ("old", 2): 30.0, ("new", 2): 60.0}

    def run_once(tree, workload, seed, seconds):
        value = values[(tree.name, seed)]
        metrics = {name: {"value": value} for name in ("setup_s", "ops_per_s",
                   "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setitem(compare.__globals__, "run_once", run_once)
    record = compare(Path("old"), Path("new"), "flow-rk4", [1, 2])
    ops = record["metrics"]["ops_per_s"]
    assert ops["pair_ratio"] == {"median": 2.0, "iqr": 0.0}
    assert ops["old"] == {"median": 20.0, "iqr": 10.0}
    assert ops["new_wins"] == 2
    assert record["metrics"]["op_p50_ms"]["new_wins"] == 0


def test_trajectory_prints_an_aa_record_as_the_null_spread(tmp_path, capsys):
    # One tree given as both sides: its ratio and IQR are printed as the
    # null spread, and the chained product leaves it out.
    aa = _record("aa", "2026-01-02T00:00:00+00:00", 1.25, ("a1", "a1"))
    aa["workloads"]["exact-catalogue"]["metrics"]["op_p50_ms"]["pair_ratio"]["iqr"] = 0.21
    (tmp_path / "BENCH_aa.json").write_text(json.dumps(aa))
    (tmp_path / "BENCH_b.json").write_text(json.dumps(
        _record("b", "2026-01-01T00:00:00+00:00", 0.8, ("a0", "a1"))))
    module = _trajectory_module()
    assert module["read_record"](tmp_path / "BENCH_aa.json")["null"] is True
    assert module["main"]([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exact-catalogue op_p50_ms: chained pair ratio 0.8 over 1 record(s)",
        "  null     1.25  IQR 0.21  BENCH_aa.json  a1 -> a1 (A/A, not chained)",
        "       0.8  BENCH_b.json  a0 -> a1",
    ]


@pytest.mark.parametrize("drop", ["pair_ratio", "iqr"])
def test_trajectory_fails_on_a_malformed_aa_record(tmp_path, capsys, drop):
    aa = _record("aa", "", 1.0, ("a1", "a1"))
    metric = aa["workloads"]["exact-catalogue"]["metrics"]["op_p50_ms"]
    if drop == "pair_ratio":
        del metric["pair_ratio"]
    else:
        del metric["pair_ratio"]["iqr"]
    (tmp_path / "BENCH_good.json").write_text(json.dumps(_record("good", "", 0.9)))
    (tmp_path / "BENCH_aa.json").write_text(json.dumps(aa))
    assert _trajectory_module()["main"]([str(tmp_path)]) == 1
    assert "BENCH_aa.json: exact-catalogue op_p50_ms: A/A" in capsys.readouterr().err


def test_bench_pairs_records_the_compared_commits(monkeypatch, tmp_path):
    # An exported tree holds no commit id: the record takes it from the
    # command line, next to the directory names it kept before.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    main = runpy.run_path(str(tools))["main"]
    monkeypatch.setitem(main.__globals__, "compare", lambda *args: {"metrics": {}})
    for tree in ("parent", "new"):  # the trees are copied before the runs
        (tmp_path / tree).mkdir()
    argv = [str(tmp_path / "parent"), str(tmp_path / "new"), "--workload", "cli-cold",
            "--seeds", "1-2", "--label", "t", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit):
        main(argv)  # the commits are required
    assert main(argv + ["--old-commit", "c5967f3", "--new-commit", "c5967f3 + change"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["trees"] == {
        "old": "parent", "new": "new",
        "old_commit": "c5967f3", "new_commit": "c5967f3 + change",
    }


def test_bench_pairs_runs_both_sides_from_equal_length_copies(monkeypatch, tmp_path):
    # The sides run from <work>/old/tree and <work>/new/tree, whatever the
    # given trees are called: a directory name alone moves peak_rss_mb.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    module = runpy.run_path(str(tools))
    paths = module["run_trees"](tmp_path / "work")
    assert len(str(paths["old"])) == len(str(paths["new"]))
    assert paths["old"] != paths["new"] and paths["old"].name == paths["new"].name
    assert paths["old"].parent.parent == paths["new"].parent.parent == tmp_path / "work"

    for tree, text in (("base2", "old side"), ("n", "new side")):
        (tmp_path / tree / "src" / "__pycache__").mkdir(parents=True)
        (tmp_path / tree / "src" / "mod.py").write_text(text)
    seen = {}

    def compare(old, new, workload, seeds):
        seen.update(old=old, new=new, caches=list(old.rglob("__pycache__")),
                    text=[(tree / "src" / "mod.py").read_text() for tree in (old, new)])
        return {"metrics": {}}

    main = module["main"]
    monkeypatch.setitem(main.__globals__, "compare", compare)
    (tmp_path / "work").mkdir()
    monkeypatch.setattr(main.__globals__["tempfile"], "tempdir", str(tmp_path / "work"))
    argv = [str(tmp_path / "base2"), str(tmp_path / "n"), "--workload", "flow-rk4",
            "--seeds", "1-2", "--label", "t", "--out-dir", str(tmp_path),
            "--old-commit", "a1", "--new-commit", "a1 + change"]
    assert main(argv) == 0
    old, new = seen["old"], seen["new"]
    assert (old.parent.name, new.parent.name, old.name, new.name) == ("old", "new", "tree", "tree")
    assert old.parent.parent == new.parent.parent
    assert old.parent.parent.parent == tmp_path / "work"
    assert seen["text"] == ["old side", "new side"] and seen["caches"] == []
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["workloads"]["flow-rk4"]["run_trees"] == {"old": str(old), "new": str(new)}
    assert record["trees"]["old"] == "base2" and record["trees"]["new"] == "n"
    assert list((tmp_path / "work").iterdir()) == []  # the copies are removed


TRAJECTORY = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"


def _trajectory_module():
    return runpy.run_path(str(TRAJECTORY))


def _record(label, started, ratio, commits=("a1", "a1 + change")):
    metric = {"better": "lower", "old": {"median": 1.0}, "new": {"median": 1.0}}
    if ratio is not None:
        metric["pair_ratio"] = {"median": ratio, "iqr": 0.0}
    return {
        "label": label,
        "trees": {"old": "parent", "new": "new",
                  "old_commit": commits[0], "new_commit": commits[1]},
        "workloads": {"exact-catalogue": {"started": started, "metrics": {"op_p50_ms": metric}}},
    }


def test_trajectory_chains_the_committed_records(capsys):
    # Every committed record reads; the chained ratio is the product of the
    # per-record medians but those of A/A records (one commit on both
    # sides), and a record without pair_ratio is only skipped.
    module = _trajectory_module()
    root = TRAJECTORY.parent.parent
    assert module["main"]([str(root)]) == 0
    printed = capsys.readouterr().out
    paths = sorted(root.glob("BENCH_*.json"))
    records = [module["read_record"](p) for p in paths]
    chains = module["trajectory"](records)
    for (workload, metric), entry in chains.items():
        want = 1.0
        for path in paths:
            data = json.loads(path.read_text())
            if data["trees"].get("old_commit", 0) == data["trees"].get("new_commit"):
                continue
            m = data["workloads"].get(workload, {}).get("metrics", {}).get(metric)
            if m is not None and m.get("pair_ratio") is not None:
                want *= m["pair_ratio"]["median"]
        assert entry["chained"] == pytest.approx(want, rel=1e-12), (workload, metric)
        assert f"{workload} {metric}: chained pair ratio {entry['chained']:.4g}" in printed
    without = [r for r in records if all(v is None for v in r["ratios"].values())]
    assert [r["file"] for r in without] == ["BENCH_rank_without_numpy.json"]
    assert printed.count("skipped   BENCH_rank_without_numpy.json") == len(without[0]["ratios"])


def test_trajectory_orders_by_start_and_skips_missing_ratios(tmp_path, capsys):
    records = {
        "BENCH_b.json": _record("b", "2026-01-02T00:00:00+00:00", 0.5, ("b0", "b1")),
        "BENCH_a.json": _record("a", "2026-01-01T00:00:00+00:00", 0.8, ("a0", "a1")),
        "BENCH_c.json": _record("c", "2026-01-03T00:00:00+00:00", None, ("c0", "c1")),
    }
    for name, data in records.items():
        (tmp_path / name).write_text(json.dumps(data))
    assert _trajectory_module()["main"]([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exact-catalogue op_p50_ms: chained pair ratio 0.4 over 2 record(s)"
    assert "a0 -> a1" in lines[1] and "b0 -> b1" in lines[2]
    assert lines[3].startswith("  skipped   BENCH_c.json  c0 -> c1")


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([1, 2]),
    json.dumps({"label": "x", "workloads": {}}),
    json.dumps({"label": "x", "workloads": {"flow-rk4": {"metrics": {"ops_per_s": {"better": "up"}}}}}),
    json.dumps(_record("x", "", 0.0)),
    json.dumps(_record("x", "", "0.9")),
])
def test_trajectory_fails_on_a_malformed_record(tmp_path, capsys, text):
    (tmp_path / "BENCH_good.json").write_text(json.dumps(_record("good", "", 0.9)))
    (tmp_path / "BENCH_bad.json").write_text(text)
    assert _trajectory_module()["main"]([str(tmp_path)]) == 1
    assert "BENCH_bad.json" in capsys.readouterr().err


def test_bench_pairs_records_every_workload_given(monkeypatch, tmp_path, capsys):
    # Each --workload runs over every seed and keeps its own section; before,
    # only the last one given was run and recorded.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    main = runpy.run_path(str(tools))["main"]
    calls = []

    def compare(old, new, workload, seeds):
        calls.append((workload, seeds))
        return {"metrics": {}, "workload_seen": workload}

    monkeypatch.setitem(main.__globals__, "compare", compare)
    for tree in ("parent", "new"):
        (tmp_path / tree).mkdir()
    argv = [str(tmp_path / "parent"), str(tmp_path / "new"), "--seeds", "1-2", "--label", "t",
            "--out-dir", str(tmp_path), "--old-commit", "a1", "--new-commit", "a1 + change"]
    assert main(argv + ["--workload", "flow-rk4", "--workload", "cli-cold"]) == 0
    assert calls == [("flow-rk4", [1, 2]), ("cli-cold", [1, 2])]
    sections = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]
    assert {name: s["workload_seen"] for name, s in sections.items()} == {
        "flow-rk4": "flow-rk4", "cli-cold": "cli-cold",
    }
    # A workload named twice is a usage error, and nothing runs.
    calls.clear()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--workload", "cli-cold", "--workload", "flow-rk4", "--workload", "cli-cold"])
    assert exit_.value.code == 2 and calls == []
    assert "--workload cli-cold is given more than once" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "file", "bad-record", "list-record"])
def test_bench_pairs_refuses_a_bad_out_dir_before_the_first_pair(monkeypatch, tmp_path, capsys, case):
    # A record that cannot be written stops the command before the first
    # pair: a workload's pairs take minutes, and their runs would be lost.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    main = runpy.run_path(str(tools))["main"]

    def compare(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setitem(main.__globals__, "compare", compare)
    for tree in ("parent", "new"):
        (tmp_path / tree).mkdir()
    out = tmp_path / "out"
    if case == "file":
        out.write_text("")
    elif case != "missing":
        out.mkdir()
        (out / "BENCH_t.json").write_text("{not json" if case == "bad-record" else "[]")
    argv = [str(tmp_path / "parent"), str(tmp_path / "new"), "--workload", "flow-rk4",
            "--seeds", "1-2", "--label", "t", "--out-dir", str(out),
            "--old-commit", "a1", "--new-commit", "a1 + change"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert str(out) in capsys.readouterr().err


FLOW_OPS = Path(__file__).resolve().parent.parent / "tools" / "flow_ops.py"


def _flow_ops(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(FLOW_OPS), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_flow_ops_times_every_flow_rk4_input_once():
    root = FLOW_OPS.parent.parent
    proc = _flow_ops(root, "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["input", "flow", "ms", "csv", "ms"]
    rows = lines[1:-1]
    assert len(rows) == 34
    for row in rows:
        flow_ms, csv_ms = map(float, row.split()[-2:])
        assert flow_ms > 0 and csv_ms > 0, row
    assert re.fullmatch(r"flow \+ csv over 34 inputs: p50 [\d.]+ ms, p90 [\d.]+ ms", lines[-1])


def test_flow_ops_refuses_three_trees():
    proc = _flow_ops("a", "b", "c")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "give one or two trees" in proc.stderr
