"""Tests for the model catalogue: charts, golden matrices, critical loci."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from poisson4.expr import Expr, Point4, parse
from poisson4.models import (
    MODEL_NAMES,
    SINGULAR_MODELS,
    catalogue_json,
    expected_bivector,
    model,
    on_critical_locus,
)
from poisson4.poisson import bivector_matrix_at, flaschka_ratiu, is_poisson, rank_at

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_parity  # noqa: E402


class TestCharts:
    def test_cusp_chart(self):
        spec = model("cusp")
        assert spec.casimirs.c1 == parse("t")
        assert spec.casimirs.c2 == parse("x^3 - 3*x*t + y^2 - z^2")

    def test_birth_at_zero(self):
        spec = model("birth", 0)
        assert spec.casimirs.c2 == parse("x^3 - 3*x*t^2 + y^2 - z^2")

    def test_flip_at_one(self):
        spec = model("flip", 1)
        assert spec.casimirs.c2 == parse("x^4 - x^2 + x*t + y^2 - z^2")

    def test_lefschetz_real_form(self):
        # (x + iy)^2 + (z + it)^2 split into real and imaginary parts.
        x, y, z, t = (parse(v) for v in "xyzt")
        real = x**2 - y**2 + z**2 - t**2
        imag = 2 * x * y + 2 * z * t
        spec = model("lefschetz")
        assert spec.casimirs.c1 == real
        assert spec.casimirs.c2 == imag

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            model("saddle")

    def test_s_rejected_without_parameter(self):
        with pytest.raises(ValueError):
            model("cusp", 1)

    def test_symbolic_s_kept_when_unbound(self):
        spec = model("birth")
        assert spec.casimirs.c2.uses_s()
        assert spec.s_value is None

    def test_coordinate_casimir_flags(self):
        # Read off C1: t on the five charts whose C1 is the coordinate t.
        for name in ("fold", "cusp", "birth", "merge", "flip"):
            assert model(name).coordinate_casimir == "t"
        for name in ("lefschetz", "wrinkle"):
            assert model(name).coordinate_casimir is None

    def test_corpus_model_flags_match_the_catalogue(self):
        # tools/cli_parity.py keeps its own copy, so that the corpus does not
        # depend on the tree it runs in; uses_s is read off the Casimir pair.
        assert cli_parity.MODELS == tuple((n, model(n).uses_s) for n in MODEL_NAMES)


class TestGoldenMatrices:
    """The central regression: construction reproduces every stored matrix."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_construction_matches_catalogue_symbolic(self, name):
        spec = model(name)
        built = flaschka_ratiu(spec.casimirs)
        assert built.components == spec.expected_bivector.components

    @pytest.mark.parametrize("name", ("birth", "merge", "flip", "wrinkle"))
    @pytest.mark.parametrize("s", (-1, 0, 1))
    def test_construction_matches_catalogue_at_parameter(self, name, s):
        spec = model(name, s)
        built = flaschka_ratiu(spec.casimirs)
        assert built.components == spec.expected_bivector.components

    def test_cusp_entries(self):
        b = expected_bivector("cusp")
        assert b.components[0][1] == parse("2*z")
        assert b.components[0][2] == parse("2*y")
        assert b.components[1][2] == parse("3*t - 3*x^2")

    def test_merge_entry_consistent_with_construction(self):
        # The (y, z) bracket of the merging move: -dC2/dx = 3(s - t^2) - 3x^2.
        b = expected_bivector("merge")
        assert b.components[1][2] == parse("3*s - 3*t^2 - 3*x^2")
        spec = model("merge")
        assert b.components[1][2] == -spec.casimirs.c2.differentiate(
            list(__import__("poisson4.expr", fromlist=["VARS"]).VARS)[0]
        )

    def test_wrinkle_entries(self):
        b = expected_bivector("wrinkle")
        assert b.components[1][2] == parse("-(2*s*t + 4*t^2 + 4*x^2)")
        assert b.components[0][3] == parse("4*y^2 + 4*z^2")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_all_models_are_poisson(self, name):
        assert is_poisson(flaschka_ratiu(model(name).casimirs))


class TestLeafForms:
    def test_quoted_forms_exist_for_singular_models(self):
        for name in SINGULAR_MODELS:
            assert model(name).leaf_coefficient is not None

    def test_no_quoted_form_for_fold(self):
        assert model("fold").leaf_coefficient is None

    @pytest.mark.parametrize("name", ("cusp", "birth", "merge", "flip"))
    def test_quoted_and_chart_forms_agree_off_wrinkle(self, name):
        spec = model(name)
        assert spec.leaf_coefficient.numerator == spec.leaf_coefficient_chart.numerator
        assert (
            spec.leaf_coefficient.denominator
            == spec.leaf_coefficient_chart.denominator
        )

    def test_wrinkle_forms_differ_by_exact_factor(self):
        spec = model("wrinkle")
        quoted = spec.leaf_coefficient
        chart = spec.leaf_coefficient_chart
        # quoted = -2 * chart as rational functions:
        # (-1) * (4ty + 4xz) == -2 * (1) * (2ty + 2xz)
        lhs = quoted.numerator * chart.denominator
        rhs = Expr.constant(-2) * chart.numerator * quoted.denominator
        assert lhs == rhs

    def test_chart_form_values(self):
        p = Point4(0, 1, 1, 1)
        chart = model("cusp").leaf_coefficient_chart
        assert chart.evaluate(p) == pytest.approx(-1 / 3)
        p2 = Point4(1, 1, 0, 0)
        chart = model("merge", 0).leaf_coefficient_chart
        assert chart.evaluate(p2) == pytest.approx(1 / 3)


class TestCriticalLocus:
    def test_cusp_on_arc(self):
        b = flaschka_ratiu(model("cusp").casimirs)
        assert on_critical_locus(b, Point4(1, 0, 0, 1))
        assert not on_critical_locus(b, Point4(0, 1, 0, 0))

    def test_indicator_matches_rank(self):
        rng = np.random.default_rng(2024)
        for name in ("cusp", "fold", "wrinkle"):
            s = 1 if model_uses_s(name) else None
            b = flaschka_ratiu(model(name, s).casimirs)
            for _ in range(40):
                p = Point4(*rng.uniform(-2, 2, size=4))
                assert on_critical_locus(b, p) == (rank_at(b, p) == 0)

    def test_predicate_matches_matrix_test(self):
        # The float predicate against the 4x4 matrix test it replaced: the
        # origin, points on and near each chart's locus, and random points.
        rng = np.random.default_rng(31)
        for name in MODEL_NAMES:
            for s in (-1, 0, 1) if model_uses_s(name) else (None,):
                b = flaschka_ratiu(model(name, s).casimirs)
                points = [Point4(0, 0, 0, 0), Point4(1e-5, 0, 0, 0), Point4(1, 0, 0, 1)]
                points += [Point4(*rng.uniform(-2, 2, size=4)) for _ in range(20)]
                for p in points:
                    m = bivector_matrix_at(b, p)
                    expected = bool((abs(m) <= 1e-9).all())
                    assert on_critical_locus(b, p) == expected

    def test_indicator_matches_locus_equations(self):
        rng = np.random.default_rng(77)
        for name in MODEL_NAMES:
            s = -1 if model_uses_s(name) else None
            spec = model(name, s)
            b = flaschka_ratiu(spec.casimirs)
            # on-locus samples for the cusp family: x^2 = t, y = z = 0
            for _ in range(40):
                p = Point4(*rng.uniform(-2, 2, size=4))
                eqs = [eq.evaluate(p) for eq in spec.critical_locus]
                assert on_critical_locus(b, p) == all(abs(v) < 1e-9 for v in eqs)

    def test_cusp_arc_satisfies_equations(self):
        spec = model("cusp")
        b = flaschka_ratiu(spec.casimirs)
        for x in np.linspace(-1.4, 1.4, 21):
            p = Point4(float(x), 0.0, 0.0, float(x) ** 2)
            assert all(abs(eq.evaluate(p)) < 1e-12 for eq in spec.critical_locus)
            assert on_critical_locus(b, p)

    def test_birth_negative_parameter_misses_grid(self):
        # On a 20^4 uniform grid in [-2, 2]^4 no point satisfies y = z = 0,
        # so the indicator is false everywhere at s = -1.
        b = flaschka_ratiu(model("birth", -1).casimirs)
        axis = np.linspace(-2, 2, 20)
        grid = np.stack(
            np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1
        ).reshape(-1, 4)
        hits = np.ones(len(grid), dtype=bool)
        for (i, j), e in b.upper_entries().items():
            if e.is_zero:
                continue
            hits &= np.abs(e.evaluate_batch(grid)) <= 1e-9
        assert not hits.any()

    def test_birth_negative_parameter_chart_locus_is_nonempty(self):
        # ... although the chart-level zero set itself is not empty:
        # x^2 = t^2 + 1 at y = z = 0.
        b = flaschka_ratiu(model("birth", -1).casimirs)
        assert on_critical_locus(b, Point4(np.sqrt(2.0), 0.0, 0.0, 1.0))


class TestCatalogueExport:
    def test_json_is_parseable_and_round_trips(self):
        data = json.loads(catalogue_json())
        assert data["schema"] == 1
        names = [m["name"] for m in data["models"]]
        assert names == list(MODEL_NAMES)
        for entry in data["models"]:
            for text in (entry["c1"], entry["c2"]):
                assert str(parse(text)) == text
            for row in entry["bivector"]["matrix"]:
                for cell in row:
                    assert str(parse(cell)) == cell

    def test_deterministic_serialisation(self):
        assert catalogue_json() == catalogue_json()


def model_uses_s(name: str) -> bool:
    return model(name).uses_s
