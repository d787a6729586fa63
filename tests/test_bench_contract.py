"""The names the benchmark's tracer wraps must exist in poisson4.

``perfbench/spans.py`` replaces functions and ``Expr`` methods by name, so a
rename in poisson4 would otherwise turn its per-layer metrics into silent
zeros under ``--trace 1``.  The file is read and run here, never imported as
a package module, so nothing is written under ``perfbench/``.
"""

import importlib
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
