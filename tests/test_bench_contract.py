"""The names the benchmark's tracer wraps must exist in poisson4.

``perfbench/spans.py`` replaces functions and ``Expr`` methods by name, so a
rename in poisson4 would otherwise turn its per-layer metrics into silent
zeros under ``--trace 1``.  The file is read and run here, never imported as
a package module, so nothing is written under ``perfbench/``.
"""

import importlib
import json
import runpy
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
    # closure memo, which looks the name up in poisson4.leaves.
    import poisson4.leaves
    import poisson4.poisson

    assert poisson4.leaves.hamiltonian_field is poisson4.poisson.hamiltonian_field


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


def test_bench_pairs_records_the_compared_commits(monkeypatch, tmp_path):
    # An exported tree holds no commit id: the record takes it from the
    # command line, next to the directory names it kept before.
    tools = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    main = runpy.run_path(str(tools))["main"]
    monkeypatch.setitem(main.__globals__, "compare", lambda *args: {"metrics": {}})
    monkeypatch.setitem(main.__globals__, "clear_bytecode", lambda tree: 0)
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
