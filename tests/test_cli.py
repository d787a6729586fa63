"""CLI tests: payloads, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings

import pytest
from test_leaves import _combo_flow_inputs, _reference_flow_csv
from test_poisson import _reference_rank

import poisson4
from poisson4 import cli, models
from poisson4.cli import main
from poisson4.expr import Point4, parse
from poisson4.models import expected_bivector, model
from poisson4.poisson import (
    CasimirPair,
    bivector_matrix_at,
    bivector_to_json_dict,
    flaschka_ratiu,
)


# (source flags, point): the origin with s = 0, points on each model's
# critical locus and regular points, for every model and for --c1/--c2.
LOCUS_INPUTS = [
    (("--model", "lefschetz"), "0,0,0,0"),
    (("--model", "lefschetz"), "1e-5,0,0,0"),  # 4*x^2 = 4e-10, inside 1e-9
    (("--model", "lefschetz"), "2e-5,0,0,0"),
    (("--model", "lefschetz"), "0.5,-0.25,0.75,1"),
    (("--model", "fold"), "0,0,0,1.5"),
    (("--model", "fold"), "0.5,-0.25,0.75,1"),
    (("--model", "cusp"), "0,0,0,0"),
    (("--model", "cusp"), "-1,0,0,1"),
    (("--model", "cusp"), "1.4142135623730951,0,0,2"),
    (("--model", "cusp"), "0.5,-0.25,0.75,1"),
    (("--model", "birth", "--s", "0"), "0,0,0,0"),
    (("--model", "birth", "--s", "0"), "-1,0,0,1"),
    (("--model", "birth", "--s", "-1"), "1.4142135623730951,0,0,1"),
    (("--model", "birth", "--s", "0"), "0.5,-0.25,0.75,1"),
    (("--model", "merge", "--s", "0"), "0,0,0,0"),
    (("--model", "merge", "--s", "1"), "0.6,0,0,0.8"),
    (("--model", "merge", "--s", "0"), "0.5,-0.25,0.75,1"),
    (("--model", "flip", "--s", "0"), "0,0,0,0"),
    (("--model", "flip", "--s", "0"), "0.5,0,0,-0.5"),
    (("--model", "flip", "--s", "0"), "0.5,-0.25,0.75,1"),
    (("--model", "wrinkle", "--s", "0"), "0,0,0,0"),
    (("--model", "wrinkle", "--s", "-1"), "0,0,0,0.5"),
    (("--model", "wrinkle", "--s", "0"), "0.5,-0.25,0.75,1"),
    (("--c1", "t", "--c2", "x^3 - 3*x*t + y^2 - z^2"), "1,0,0,1"),
    (("--c1", "t", "--c2", "x^3 - 3*x*t + y^2 - z^2"), "1,1,0,1"),
    (("--c1", "x^2", "--c2", "y^2"), "1e-5,1e-5,0,0"),
    (("--c1", "x^2", "--c2", "y^2"), "1e-4,1e-5,0,0"),
    (("--c1", "x", "--c2", "y"), "0,0,0,0"),
]


def _matrix_at(source, point):
    """The evaluated 4x4 matrix of a LOCUS_INPUTS source at a point."""
    flags = dict(zip(source[::2], source[1::2]))
    if "--model" in flags:
        pair = model(flags["--model"], flags.get("--s")).casimirs
    else:
        pair = CasimirPair(parse(flags["--c1"]), parse(flags["--c2"]))
    return bivector_matrix_at(flaschka_ratiu(pair), Point4(*map(float, point.split(","))))


def _matrix_locus_verdict(source, point) -> bool:
    """The locus test on the evaluated 4x4 matrix, as the CLI once wrote it."""
    return bool((abs(_matrix_at(source, point)) <= 1e-9).all())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBivector:
    def test_cusp_json_payload_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "bivector", "--model", "cusp", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == bivector_to_json_dict(expected_bivector("cusp"))
        assert data["k"] is None

    def test_user_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "bivector", "--c1", "x", "--c2", "y", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["matrix"][2][3] == "1"

    def test_parameter_substitution(self, capsys):
        code, out, _ = run_cli(
            capsys, "bivector", "--model", "birth", "--s", "1", "--format", "json"
        )
        assert code == 0
        assert "s" not in json.dumps(json.loads(out)["matrix"])

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run_cli(capsys, "bivector", "--model", "cusp", "--c1", "x", "--c2", "y")
        assert code == 2
        assert "--model" in err
        code, _, _ = run_cli(capsys, "bivector")
        assert code == 2

    def test_parse_work_budget_is_a_usage_error(self, capsys):
        heavy = "(x+y+z)^43 + (x+y+z)^43"
        code, out, err = run_cli(capsys, "bivector", "--c1", heavy, "--c2", "t")
        assert (code, out) == (2, "")
        assert "--c1:" in err and "term products" in err


class TestJacobi:
    def test_constant_bivector_is_poisson(self, capsys):
        code, out, _ = run_cli(capsys, "jacobi", "--c1", "x", "--c2", "y")
        assert code == 0
        assert out.strip() == "Poisson: true"

    def test_all_models(self, capsys):
        for name in ("lefschetz", "fold", "cusp", "birth", "merge", "flip", "wrinkle"):
            code, out, _ = run_cli(capsys, "jacobi", "--model", name)
            assert code == 0
            assert out.strip() == "Poisson: true"

    def test_with_conformal_factor(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobi", "--model", "cusp", "--k", "1 + x^2 + y^2 + z^2 + t^2"
        )
        assert code == 0
        assert out.strip() == "Poisson: true"


class TestCasimirCheck:
    def test_model_casimirs(self, capsys):
        code, out, _ = run_cli(capsys, "casimir-check", "--model", "cusp")
        assert code == 0
        assert out.splitlines() == ["C1: true", "C2: true"]

    def test_extra_function(self, capsys):
        code, out, _ = run_cli(capsys, "casimir-check", "--model", "cusp", "--h", "x")
        assert out.splitlines()[-1] == "h: false"

    def test_bad_extra_function_prints_nothing(self, capsys):
        code, out, err = run_cli(capsys, "casimir-check", "--model", "cusp", "--h", "x +")
        assert (code, out) == (2, "")
        assert err.startswith("poisson4: error: --h: ")


class TestRankAndLocus:
    def test_rank_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "--model", "cusp", "--point", "1,0,0,1"
        )
        assert (code, out.strip()) == (0, "rank: 0")
        code, out, _ = run_cli(
            capsys, "rank", "--model", "cusp", "--point", "0,1,0,0", "--format", "json"
        )
        assert json.loads(out)["rank"] == 2

    def test_locus(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--model", "cusp", "--point", "1,0,0,1")
        assert out.strip() == "critical: true"
        code, out, _ = run_cli(capsys, "locus", "--model", "cusp", "--point", "0,1,0,0")
        assert out.strip() == "critical: false"
        verdicts = set()
        for source, point in LOCUS_INPUTS:
            code, out, _ = run_cli(capsys, "locus", *source, "--point", point)
            expected = _matrix_locus_verdict(source, point)
            assert (code, out) == (0, f"critical: {str(expected).lower()}\n")
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_rank_matches_the_svd(self, capsys):
        # The closed form against the SVD it replaced, on and off each
        # model's critical locus.
        ranks = set()
        for source, point in LOCUS_INPUTS:
            code, out, _ = run_cli(capsys, "rank", *source, "--point", point)
            want = _reference_rank(_matrix_at(source, point))
            assert (code, out) == (0, f"rank: {want}\n"), (source, point)
            ranks.add(want)
        assert ranks == {0, 2}

    def test_missing_s_for_parametric_model(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--model", "birth", "--point", "0,1,0,0")
        assert code == 2
        assert "--s" in err

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--model", "cusp", "--point", "1,2,3")
        assert code == 2
        assert "--point" in err


class TestLeafForm:
    def test_merge_magnitude(self, capsys):
        code, out, _ = run_cli(
            capsys, "leaf-form", "--model", "merge", "--s", "0", "--point", "1,1,0,0"
        )
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert abs(abs(value) - 1 / 3) < 1e-9

    def test_singular_point_is_math_error(self, capsys):
        code, _, err = run_cli(
            capsys, "leaf-form", "--model", "cusp", "--point", "1,0,0,1"
        )
        assert code == 1
        assert "singular" in err.lower()

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "leaf-form", "--model", "cusp", "--point", "0,1,1,1", "--format", "json",
        )
        data = json.loads(out)
        assert data["chart"] == ["y", "z"]
        assert abs(data["coefficient"] + 1 / 3) < 1e-9

    def test_without_numpy_one_line_and_exit_1(self, capsys, monkeypatch):
        # None in sys.modules makes every later "import numpy" fail.
        monkeypatch.setitem(sys.modules, "numpy", None)
        for fmt in ("text", "json"):
            code, out, err = run_cli(
                capsys, "leaf-form", "--model", "cusp", "--point", "0,1,1,1", "--format", fmt
            )
            assert (code, out) == (1, "")
            assert err == "poisson4: leaf-form needs numpy, which is not installed\n"
        # A usage error is still found first, and the other commands run.
        code, out, err = run_cli(capsys, "leaf-form", "--model", "cusp", "--point", "0,1")
        assert (code, out) == (2, "") and "numpy" not in err
        code, out, _ = run_cli(capsys, "rank", "--model", "cusp", "--point", "0,1,1,1")
        assert (code, out) == (0, "rank: 2\n")

    def test_another_missing_module_is_not_reported_as_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "poisson4.leaves", None)
        with pytest.raises(ModuleNotFoundError) as info:
            main(["leaf-form", "--model", "cusp", "--point", "0,1,1,1"])
        assert info.value.name == "poisson4.leaves"

    def test_without_numpy_in_a_fresh_interpreter(self, capsys):
        # numpy is gone before poisson4 is imported, so leaves' own top-level
        # import is what fails; the flow module runs without numpy.
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            sys.modules["numpy"] = None
            import poisson4, poisson4.cli
            seen = []
            for argv in json.loads(sys.argv[1]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = poisson4.cli.main(argv)
                seen.append([code, out.getvalue(), err.getvalue()])
            print(json.dumps({"seen": seen, "flow": poisson4.flow.__module__}))
            """
        )
        flow = ["flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "10"]
        commands = [
            ["leaf-form", "--model", "cusp", "--point", "0,1,1,1"],
            ["leaf-form", "--model", "cusp", "--point", "0,1"],
            flow,
        ]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout)
        (code, out, err), (usage_code, usage_out, usage_err), flowed = result["seen"]
        assert (code, out) == (1, "")
        assert err == "poisson4: leaf-form needs numpy, which is not installed\n"
        assert (usage_code, usage_out) == (2, "") and "numpy" not in usage_err
        assert flowed == [0, run_cli(capsys, *flow)[1], ""]
        assert result["flow"] == "poisson4.rk4"


class TestFlow:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "flow", "--model", "cusp", "--h", "x",
            "--point", "0,1,1,1", "--dt", "0.001", "--steps", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,x,y,z,t,C1,C2,H"
        assert len(lines) == 7

    def test_drift_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "flow", "--model", "cusp", "--h", "x",
            "--point", "0,1,1,1", "--steps", "100", "--format", "text",
        )
        assert code == 0
        assert out.count("max |") == 3

    # h = 1: its closure gives the int 1, and the drift must still be 0.0.
    @pytest.mark.parametrize(
        "name,s,h_text",
        [("cusp", None, "x"), ("flip", 1, "x + y*z"), ("cusp", None, "1")],
    )
    def test_json_and_text_match_the_reference(self, capsys, name, s, h_text):
        b, h, p0 = _combo_flow_inputs(name, s, h_text)
        _, drift, points = _reference_flow_csv(b, h, p0, 1e-3, 1000)
        argv = ["flow", "--model", name, "--h", h_text, "--point", "0.1,0.5,0.5,0.5"]
        if s is not None:
            argv += ["--s", str(s)]
        payload = {
            "dt": 1e-3,
            "steps": 1000,
            "drift": {key: float(drift[key]) for key in sorted(drift)},
            "final": list(points[-1].coords()),
        }
        assert run_cli(capsys, *argv, "--format", "json") == (
            0, json.dumps(payload) + "\n", ""
        )
        text = "".join(
            f"max |{key} - {key}(0)| = {format(float(drift[key]), '.17g')}\n"
            for key in ("C1", "C2", "H")
        )
        assert run_cli(capsys, *argv, "--format", "text") == (0, text, "")

    def test_expression_error_names_flag(self, capsys):
        code, _, err = run_cli(
            capsys,
            "flow", "--model", "cusp", "--h", "x +",
            "--point", "0,1,1,1",
        )
        assert code == 2
        assert "--h" in err and "column" in err


# The options each math subcommand needs besides its source.
REQUIRED_OPTIONS = {
    "bivector": (),
    "jacobi": (),
    "casimir-check": ("--h", "x"),
    "rank": ("--point", "1,0,0,1"),
    "leaf-form": ("--point", "0,1,1,1"),
    "flow": ("--h", "x", "--point", "0,1,1,1", "--steps", "3"),
    "locus": ("--point", "1,0,0,1"),
}


class TestOneSource:
    """Every math subcommand reads --model, --c1, --c2, --s and --k alike."""

    @pytest.mark.parametrize("lone", [("--c1", "x"), ("--c2", "y")])
    @pytest.mark.parametrize("command", list(REQUIRED_OPTIONS))
    def test_lone_casimir_beside_model_is_usage_error(self, capsys, command, lone):
        argv = (command, "--model", "cusp", *lone, *REQUIRED_OPTIONS[command])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("poisson4: error: provide exactly one of --model")

    @pytest.mark.parametrize("k", ["x+", ")(", "0"])
    @pytest.mark.parametrize("command", ["casimir-check", "locus"])
    def test_bad_factor_is_usage_error(self, capsys, command, k):
        argv = (command, "--model", "cusp", "--k", k, *REQUIRED_OPTIONS[command])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("poisson4: error: --k: ")

    # k = x vanishes on the probe grid, so the probe would warn; every option
    # is checked before it runs.
    @pytest.mark.parametrize(
        "argv",
        [
            ("rank", "--point", "0,1,1"),
            ("leaf-form", "--point", "nan,0,0,1"),
            ("locus", "--point", "1,a,0,0"),
            ("casimir-check", "--h", "x +"),
            ("flow", "--h", "x", "--point", "0,1,1,1", "--dt", "nan"),
            ("flow", "--h", "x", "--point", "0,1,1,1", "--steps", "0"),
            ("flow", "--h", "x +", "--point", "0,1,1,1"),
        ],
    )
    def test_usage_error_comes_before_the_factor_probe(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv[0], "--model", "cusp", "--k", "x", *argv[1:])
        assert (code, out, caught) == (2, "", [])
        assert err.startswith("poisson4: error: --") and err.count("\n") == 1

    # k = x vanishes on the probe grid, and the probe warns.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("k", ["1 + x^2 + y^2 + z^2 + t^2", "x"])
    @pytest.mark.parametrize("command", ["casimir-check", "locus"])
    def test_valid_factor_leaves_stdout_alone(self, capsys, command, k):
        argv = (command, "--model", "cusp", *REQUIRED_OPTIONS[command])
        plain = run_cli(capsys, *argv)
        scaled = run_cli(capsys, *argv, "--k", k)
        assert plain[0] == 0
        assert scaled[:2] == plain[:2]


# sha256 of `list-models --format json`: the catalogue export is pinned
# byte for byte.
CATALOGUE_JSON_SHA256 = (
    "edb82541b02fcc427d554055bb2240020223cbdf7e37b6f2e8bca3175a925d72"
)


class TestListModelsAndVersion:
    def test_list_models_text(self, capsys):
        code, out, _ = run_cli(capsys, "list-models")
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_list_models_json(self, capsys):
        code, out, _ = run_cli(capsys, "list-models", "--format", "json")
        names = [m["name"] for m in json.loads(out)["models"]]
        assert "wrinkle" in names

    def test_list_models_json_bytes_and_one_bivector_per_model(
        self, capsys, monkeypatch
    ):
        built = []
        original = models.expected_bivector

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(models, "expected_bivector", counting)
        code, out, _ = run_cli(capsys, "list-models", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CATALOGUE_JSON_SHA256
        assert built == [(name,) for name in models.MODEL_NAMES]

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("poisson4 ") and "schema" in out


# CPU seconds any one drawn flow command may take: a MAX_STEPS cusp flow
# and its CSV take about 1 s.
FLOW_FUZZ_CPU_S = 10.0


def _mostly(st, valid, invalid):
    """One of the values, an invalid one about one time in ten."""
    pick = st.tuples(st.integers(0, 9), st.sampled_from(valid), st.sampled_from(invalid))
    return pick.map(lambda drawn: drawn[2] if drawn[0] == 9 else drawn[1])


def _run_drawn(argv: list, cpu_bound: float) -> None:
    """Run argv through ``main``: exit 0, 1 or 2, no traceback, within cpu_bound."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k = x vanishes on the probe grid
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert time.process_time() - start < cpu_bound, argv


def test_drawn_flow_commands_keep_the_exit_contract():
    """argv for ``flow`` drawn from its grammar, mostly valid, run in-process.

    Every command returns 0, 1 or 2 from ``main``, prints no traceback and
    stays within a CPU bound.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def mostly(valid, invalid):
        return _mostly(st, valid, invalid)

    factors = st.lists(st.sampled_from(["x", "y", "z", "t", "s", "2", "x^3"]), min_size=1, max_size=3)
    h = st.one_of(
        st.lists(factors.map("*".join), min_size=1, max_size=3).map(" - ".join),
        mostly(
            ["x", "x + y*z", "y", "t", "1", "0", "x^2 - t", "z^3*y", "s*x + z", "x^60"],
            ["x +", ")(", "x^65", "-y", "1" + "0" * 400, "(y*" + "9" * 900 + ")^5"],
        ),
    )
    coordinate = st.one_of(
        st.floats(-2, 2).map(repr),
        mostly(["0", "-0.0", "0.1", "-1", "1e150", "1e200"], ["nan", "inf", "a"]),
    )
    optional = {
        "--dt": mostly(["0", "-0.0", "1e-3", "0.01", "0.1", "1", "1e200"], ["-1", "nan", "inf", "abc"]),
        "--steps": st.one_of(
            st.integers(1, 300).map(str),
            mostly(["1000"], [str(cli.MAX_STEPS)]),
            mostly(["1"], ["0", "-3", "x", str(cli.MAX_STEPS + 1), "9" * 20]),
        ),
        "--k": mostly(["1 + x^2 + y^2 + z^2 + t^2", "3", "x"], ["0", "x +"]),
        "--format": mostly(["csv", "text", "json"], ["xml"]),
    }
    phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

    @hypothesis.settings(max_examples=150, deadline=None, database=None, phases=phases)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        name = draw(mostly(list(models.MODEL_NAMES), ["nosuch"]))
        argv = ["flow", "--model", name, "--h", draw(h)]
        count = draw(mostly([4], [3, 5]))
        argv += ["--point", ",".join(draw(st.lists(coordinate, min_size=count, max_size=count)))]
        if name in models.MODEL_NAMES and model(name).uses_s:
            s = draw(mostly(["-1", "0", "1/2", "2"], [None, "abc", "1/0", "1e400"]))
        else:
            s = draw(mostly([None], ["1"]))
        argv += [] if s is None else ["--s", s]
        for flag, values in optional.items():
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        _run_drawn(argv, FLOW_FUZZ_CPU_S)

    check()


# CPU seconds any one drawn command of the other subcommands may take: the
# slowest drawn ones take about 0.05 s once numpy is imported, and a cold
# leaf-form (the numpy import) or an unmemoised k probe adds about 0.2 s.
# On OVER_THE_WORK_LIMIT, casimir-check takes about 1 s.
FUZZ_CPU_S = 5.0

# A source whose Jacobiator would take 15.8 M term products, past the work
# limit, so jacobi exits 1 before forming it; at 0.3 us a product it would
# take about 5 s.
OVER_THE_WORK_LIMIT = ("--c1", "(x+y+z+t+1)^6", "--c2", "(x-y+2*z-t+3)^6")


@pytest.mark.parametrize(
    "command",
    ["bivector", "jacobi", "casimir-check", "rank", "locus", "leaf-form", "list-models"],
)
def test_drawn_commands_keep_the_exit_contract(command):
    """argv for every other subcommand drawn from its grammar, run in-process.

    The source is a model (with ``--s`` where it takes one) or a ``--c1``,
    ``--c2`` pair, with ``--k`` and the command's own options; about one
    value in ten is invalid.  Every command returns 0, 1 or 2 from ``main``,
    prints no traceback and stays within its CPU bound.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def mostly(valid, invalid):
        return _mostly(st, valid, invalid)

    factors = st.lists(st.sampled_from(["x", "y", "z", "t", "s", "2", "1/3", "x^3"]), min_size=1, max_size=3)
    expression = st.one_of(
        st.lists(factors.map("*".join), min_size=1, max_size=3).map(" - ".join),
        mostly(
            ["x", "t", "x^3 - 3*x*t + y^2 - z^2", "x^2 + y^2", "0", "1", "y*z - 1/2", "x^60"],
            ["x +", ")(", "x^65", "q", "1" + "0" * 400, "(y*" + "9" * 900 + ")^5"],
        ),
    )
    coordinate = st.one_of(
        st.floats(-2, 2).map(repr),
        mostly(["0", "-0.0", "0.1", "-1", "1e-5", "1e150"], ["nan", "inf", "a"]),
    )
    k = mostly(["1 + x^2 + y^2 + z^2 + t^2", "3", "x", "x*y - 3/2"], ["0", "x +"])
    formats = {
        "bivector": ["text", "json"],
        "rank": ["text", "json"],
        "locus": ["text", "json"],
        "leaf-form": ["text", "json"],
        "list-models": ["text", "json"],
    }
    phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

    def source(draw) -> list:
        shape = draw(mostly(["model", "pair"], ["both", "c1 only", "none", "over the work limit"]))
        if shape == "over the work limit":
            return list(OVER_THE_WORK_LIMIT)
        argv = []
        if shape in ("model", "both"):
            name = draw(mostly(list(models.MODEL_NAMES), ["nosuch"]))
            argv += ["--model", name]
            if name in models.MODEL_NAMES and model(name).uses_s:
                s = draw(mostly(["-1", "0", "1/2", "2"], [None, "abc", "1/0", "1e400"]))
            else:
                s = draw(mostly([None], ["1"]))
            argv += [] if s is None else ["--s", s]
        if shape in ("pair", "both", "c1 only"):
            argv += ["--c1", draw(expression)]
        if shape in ("pair", "both"):
            argv += ["--c2", draw(expression)]
        if shape == "pair" and draw(st.booleans()):
            argv += ["--s", draw(mostly(["0", "1/2", "-3"], ["abc"]))]
        return argv

    @hypothesis.settings(max_examples=75, deadline=None, database=None, phases=phases)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        argv = [command]
        if command == "list-models":
            if draw(mostly([False], [True])):
                argv += ["--model", "cusp"]  # not an option of list-models
        else:
            argv += source(draw)
            if draw(st.booleans()):
                argv += ["--k", draw(k)]
        if command in ("rank", "locus", "leaf-form") and draw(mostly([True], [False])):
            count = draw(mostly([4], [3, 5]))
            argv += ["--point", ",".join(draw(st.lists(coordinate, min_size=count, max_size=count)))]
        if command == "jacobi" and draw(st.booleans()):
            argv += ["--expect-poisson"]
        if command == "casimir-check" and draw(st.booleans()):
            argv += ["--h", draw(expression)]
        if command in formats and draw(st.booleans()):
            argv += ["--format", draw(mostly(formats[command], ["xml"]))]
        _run_drawn(argv, FUZZ_CPU_S)

    check()
    if command != "list-models":  # not drawn in about one run in seven
        _run_drawn([command, *OVER_THE_WORK_LIMIT], FUZZ_CPU_S)


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self):
        cmd = [
            sys.executable, "-m", "poisson4",
            "bivector", "--model", "wrinkle", "--format", "json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_catalogue_json_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "list-models", "--format", "json")
        _, out2, _ = run_cli(capsys, "list-models", "--format", "json")
        assert out1 == out2


NON_FINITE_INPUTS = [
    (("rank", "--model", "cusp", "--point", "nan,0,0,1"), "--point"),
    (("rank", "--model", "birth", "--s", "1", "--point", "1,0,0,inf"), "--point"),
    (("locus", "--model", "cusp", "--point", "nan,0,0,1"), "--point"),
    (("leaf-form", "--model", "cusp", "--point", "inf,0,0,1"), "--point"),
    (("flow", "--model", "cusp", "--h", "x", "--point", "0,1,-inf,1"), "--point"),
    (("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--dt", "nan"),
     "--dt"),
    (("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--dt", "inf"),
     "--dt"),
]

# A --c1 nested 3000 levels deep (parentheses, then unary minus signs), and
# one whose expansion has 20475 terms.
PARSER_LIMIT_INPUTS = [
    ("bivector", "--c1", "(" * 3000 + "x" + ")" * 3000, "--c2", "y"),
    ("bivector", "--c1=" + "-" * 3000 + "x", "--c2", "y"),
    ("bivector", "--c1", "(x+y+z+t+s)^24", "--c2", "y"),
    # Literals past CPython's 4,300-digit int-string limit, and a digit
    # that int() does not read.
    ("bivector", "--c1", "x*" + "9" * 5000, "--c2", "y"),
    ("bivector", "--c1", "x^" + "9" * 5000, "--c2", "y"),
    ("bivector", "--c1", "x*\u00b2", "--c2", "y"),
]

# Values of --s and --steps too large to build or to run, each refused at
# once with one line.
OVERSIZED_INPUTS = [
    (("bivector", "--model", "birth", "--s", "1e5000"), "--s"),
    (("bivector", "--model", "birth", "--s", "1e99999999"), "--s"),
    (("bivector", "--model", "birth", "--s", "1e-99999999"), "--s"),
    (("bivector", "--model", "birth", "--s", "1" * 309), "--s"),
    (("bivector", "--model", "birth", "--s", "1e308"), "--s"),
    (("rank", "--model", "birth", "--s", "1e5000", "--point", "1,1,1,1"), "--s"),
    (("rank", "--model", "birth", "--s", "1e350", "--point", "1,1,1,1"), "--s"),
    (("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1",
      "--steps", "100001"), "--steps"),
    (("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1",
      "--steps", "99999999999999999999"), "--steps"),
]

# A power of a coordinate overflows in the first bivector entry evaluated.
OVERFLOW_INPUTS = [
    (command, *k)
    for command in ("rank", "locus", "leaf-form")
    for k in ((), ("--k", "1 + x^2 + y^2 + z^2 + t^2"))
]

# Points where the scaled matrix leaves double precision: k = x*y is inf.
NON_FINITE_MATRIX_INPUTS = [
    ("rank", "--model", "fold", "--k", "x*y", "--point=1,1e200,1e200,1"),
    ("leaf-form", "--model", "fold", "--k", "x*y", "--point=1,1e200,1e200,1"),
    ("rank", "--model", "fold", "--k", "x*y", "--point=1e160,1,1,1"),
]

# Factors k whose sign probe meets an int beyond the float range, or a float
# power that overflows (x^1088, under the parser's exponent limit of 64).
PROBE_OVERFLOW_FACTORS = [
    "1" + "0" * 400 + "*x + 1",
    "*".join(["x^64"] * 17) + " + 1",
    "1" + "0" * 400,
]

# Products and powers of literals under MAX_LITERAL_DIGITS whose coefficients
# pass CPython's 4,300-digit int-to-str limit: printed or compiled, each is
# a mathematical failure.
NINES = "9" * 900
DIGIT_LIMIT_INPUTS = [
    ("flow", "--model", "fold", "--h", f"(y*{NINES})^5", "--point=0.1,0.5,0.5,0.5",
     "--steps", "3"),
    ("bivector", "--c1", f"(x*{NINES})^3", "--c2", f"(y*{NINES})^3"),
    ("rank", "--c1", f"(x*{NINES})^5", "--c2", "y", "--point", "1,1,1,1"),
    ("rank", "--model", "cusp", "--k", f"(x*{NINES})^5", "--point", "1,1,1,1"),
    ("locus", "--c1", f"(x*{NINES})^5", "--c2", "y", "--point", "1,1,1,1"),
    ("leaf-form", "--c1", f"(x*{NINES})^5", "--c2", "y", "--point", "1,1,1,1"),
]

# One value that begins with '-' after a space in each command.
NEGATIVE_VALUES = [
    ("rank", "--model", "cusp", "--point", "-1,0,0,1"),
    ("locus", "--model", "cusp", "--point", "-1,0,0,-1"),
    ("leaf-form", "--model", "cusp", "--point", "-1,1,0,1", "--format", "json"),
    ("flow", "--model", "cusp", "--h", "x", "--point", "-0.1,1,1,1", "--steps", "3"),
    ("bivector", "--model", "birth", "--s", "-1/2"),
    ("rank", "--model", "birth", "--s", "-1e-3", "--point", "1,1,1,1"),
    ("bivector", "--c1", "-x^2", "--c2", "y", "--format", "json"),
    ("casimir-check", "--model", "cusp", "--h", "-x"),
    ("jacobi", "--model", "cusp", "--k", "-x^2-1"),
    ("flow", "--model", "birth", "--s", "-1", "--h", "-x", "--point", "0,1,1,1",
     "--steps", "3", "--format", "text"),
]

# One command per option that takes a value, the value beginning with '-'.
DASH_VALUES = {
    "--model": ("bivector", "--model", "-x"),
    "--c1": ("bivector", "--c1", "-x^2", "--c2", "y"),
    "--c2": ("bivector", "--c1", "y", "--c2", "-x^2"),
    "--s": ("bivector", "--model", "birth", "--s", "-1/2"),
    "--k": ("jacobi", "--model", "cusp", "--k", "-x^2-1"),
    "--h": ("casimir-check", "--model", "cusp", "--h", "-x"),
    "--point": ("rank", "--model", "cusp", "--point", "-1,0,0,1"),
    "--dt": ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--dt", "-1e-3"),
    "--steps": ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "-3"),
    "--format": ("rank", "--model", "cusp", "--point", "1,0,0,1", "--format", "-json"),
}


def _spellings(option: str) -> list[str]:
    """The option's name and every prefix that abbreviates it alone."""
    return [
        option[:n] for n in range(3, len(option) + 1)
        if option[:n] == option or sum(name.startswith(option[:n]) for name in DASH_VALUES) == 1
    ]


class TestInputContract:
    @pytest.mark.parametrize("argv,flag", NON_FINITE_INPUTS)
    def test_non_finite_input_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", PARSER_LIMIT_INPUTS)
    def test_parser_limits_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--c1" in err and "column" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", OVERSIZED_INPUTS)
    def test_oversized_input_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"poisson4: error: {flag}:") and err.count("\n") == 1

    def test_size_bounds_admit_their_limits(self, capsys):
        code, out, _ = run_cli(capsys, "bivector", "--model", "birth", "--s", "1e307")
        assert code == 0 and " - 3" + "0" * 307 + ", " in out
        # An accepted s is a finite double: here 3*s overflows, a math error.
        argv = ("rank", "--model", "birth", "--s", "9" * 308, "--point", "1,1,1,1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("poisson4: evaluation at")
        code, out, _ = run_cli(capsys, "bivector", "--c1", "x*" + "9" * 1000, "--c2", "y")
        assert code == 0 and "9" * 1000 in out
        assert cli.MAX_S_DIGITS == 308 and cli.MAX_STEPS == 100_000
        argv = ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1",
                "--dt", "0", "--steps", str(cli.MAX_STEPS), "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["steps"] == cli.MAX_STEPS

    @pytest.mark.parametrize("argv", DIGIT_LIMIT_INPUTS, ids=lambda argv: argv[0])
    def test_coefficient_past_the_digit_limit_is_math_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == f"poisson4: a coefficient has more than {limit} digits to print\n"

    @pytest.mark.parametrize("argv", OVERFLOW_INPUTS)
    def test_overflow_is_math_error(self, capsys, argv):
        code, out, err = run_cli(
            capsys, *argv, "--model", "cusp", "--point", "1e200,0,0,1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("poisson4: evaluation at Point4(x=1e+200")
        assert err.endswith("left double precision\n") and err.count("\n") == 1

    def test_large_point_that_evaluates_finitely_keeps_its_verdict(self, capsys):
        # The entry 2*y = 2 settles the verdict before -3*x^2 + 3*t, whose
        # power would overflow, is evaluated; at x = 1e100 every power fits.
        argv = ("locus", "--model", "cusp", "--point", "1e200,1,0,1")
        assert run_cli(capsys, *argv) == (0, "critical: false\n", "")
        argv = ("rank", "--model", "cusp", "--point", "1e100,1,0,1")
        assert run_cli(capsys, *argv) == (0, "rank: 2\n", "")

    # k = x*y vanishes on the probe grid.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("argv", NON_FINITE_MATRIX_INPUTS)
    def test_non_finite_matrix_or_frame_is_math_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("poisson4: evaluation at Point4(")
        assert err.endswith("left double precision\n") and err.count("\n") == 1

    @pytest.mark.parametrize("k", PROBE_OVERFLOW_FACTORS, ids=["int", "power", "constant"])
    @pytest.mark.parametrize("command", ["jacobi", "bivector"])
    def test_probe_overflow_is_a_warning(self, command, k):
        # A fresh interpreter, so that stderr shows every warning printed.
        argv = [command, "--model", "cusp", "--k", k]
        proc = subprocess.run(
            [sys.executable, "-m", "poisson4", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0
        if command == "jacobi":
            assert proc.stdout == "Poisson: true\n"
        else:
            assert f"\nk: {parse(k)}\n" in proc.stdout
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, proc.stderr
        # An overflow says nothing about zeros, so the message does not
        # claim one: a constant of 10^400 never vanishes.
        assert "ConformalFactorWarning: conformal factor overflows or is not finite" in lines[0]
        assert "vanishes there was not checked" in lines[0]

    # Finite matrices whose column norms, squared, or Gram determinants are
    # beyond double precision: the frame is built on the matrix scaled by a
    # power of two.
    @pytest.mark.parametrize(
        "name,point",
        [
            ("fold", "1,1e200,1e200,1"),
            ("fold", "1,1,1e200,1"),
            ("lefschetz", "1,1e80,1,1"),
            ("lefschetz", "1e80,1e79,1,1"),
        ],
    )
    def test_leaf_form_of_a_finite_matrix_with_large_entries(self, capsys, name, point):
        argv = ("leaf-form", "--model", name, "--point=" + point, "--format", "json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        data = json.loads(out)
        m = bivector_matrix_at(flaschka_ratiu(model(name).casimirs), Point4(*data["point"]))
        i, j = ("xyzt".index(c) for c in data["chart"])
        want = -1 / m[i, j]
        assert abs(data["coefficient"] - want) <= 1e-13 * abs(want)

    def test_rank_of_a_finite_matrix_with_large_entries(self, capsys):
        # The entries 2*y = 2*z = 2e200 are finite, and the rank is 2.
        argv = ("rank", "--model", "fold", "--point=1,1e200,1e200,1")
        assert run_cli(capsys, *argv) == (0, "rank: 2\n", "")

    @pytest.mark.parametrize("argv", NEGATIVE_VALUES)
    def test_negative_point_after_a_space(self, capsys, argv):
        spaced = run_cli(capsys, *argv)
        i = next(i for i, arg in enumerate(argv) if arg[:1] == "-" and arg[:2] != "--")
        joined = run_cli(capsys, *argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])
        assert spaced[0] == 0
        assert spaced == joined

    def test_the_dash_values_cover_every_value_option(self):
        assert set(DASH_VALUES) == cli._VALUE_OPTIONS
        assert _spellings("--point") == ["--p", "--po", "--poi", "--poin", "--point"]
        assert _spellings("--steps") == ["--st", "--ste", "--step", "--steps"]
        assert _spellings("--s") == ["--s"]
        assert _spellings("--c1") == ["--c1"]

    @pytest.mark.parametrize(
        "option,spelling",
        [(option, spelling) for option in DASH_VALUES for spelling in _spellings(option)],
    )
    def test_an_abbreviated_option_takes_a_value_after_a_space(self, capsys, option, spelling):
        argv = DASH_VALUES[option]
        i = argv.index(option)
        before, value, after = argv[:i], argv[i + 1], argv[i + 2:]
        spaced = run_cli(capsys, *before, spelling, value, *after)
        joined = run_cli(capsys, *before, f"{spelling}={value}", *after)
        assert spaced == joined
        assert spaced == run_cli(capsys, *before, f"{option}={value}", *after)

    def test_an_abbreviated_point(self, capsys):
        argv = ("rank", "--model", "cusp", "--poi", "-1,0,0,1")
        assert run_cli(capsys, *argv) == (0, "rank: 0\n", "")

    def test_an_ambiguous_prefix_takes_no_value(self, capsys):
        # --c abbreviates both --c1 and --c2, so argparse refuses it.
        code, out, err = run_cli(capsys, "bivector", "--c", "-x^2", "--c2", "y")
        assert (code, out) == (2, "")
        assert "ambiguous option: --c could match --c1, --c2" in err

    def test_negative_dt_after_a_space_is_read_as_a_value(self, capsys):
        argv = ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1")
        spaced = run_cli(capsys, *argv, "--dt", "-1e-3")
        joined = run_cli(capsys, *argv, "--dt=-1e-3")
        assert spaced == joined == (2, "", "poisson4: error: --dt: must be non-negative\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("bivector", "--c1", "--c2", "y"),
            ("rank", "--model", "cusp", "--point", "--format", "json"),
            ("casimir-check", "--model", "cusp", "--h", "--k", "x"),
        ],
    )
    def test_a_missing_value_before_an_option_stays_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "expected one argument" in err

    def test_every_option_that_takes_a_value_is_joined(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "subcommand")
        taking = {
            flag
            for command in sub.choices.values()
            for action in command._actions
            if action.nargs is None and action.option_strings
            for flag in action.option_strings
        }
        assert taking == cli._VALUE_OPTIONS

    def test_fresh_interpreter(self):
        def run(*argv):
            cmd = [sys.executable, "-m", "poisson4", *argv]
            return subprocess.run(cmd, capture_output=True, text=True)

        probe = run("rank", "--model", "cusp", "--point", "nan,0,0,1")
        assert probe.returncode == 2
        assert "Traceback" not in probe.stderr
        negative = run("rank", "--model", "cusp", "--point", "-1,0,0,1")
        assert (negative.returncode, negative.stdout) == (0, "rank: 0\n")

    def test_numpy_loads_only_for_linear_algebra(self):
        # One fresh interpreter runs the commands in turn and reports, after
        # each, whether numpy has been imported so far.
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            import poisson4, poisson4.cli
            seen = [["import", 0, "numpy" in sys.modules]]
            for argv in json.loads(sys.argv[1]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = poisson4.cli.main(argv)
                seen.append([argv[0], code, "numpy" in sys.modules])
            print(json.dumps(seen))
            """
        )
        commands = [
            ["list-models"],
            ["list-models", "--format", "json"],
            ["bivector", "--model", "wrinkle", "--format", "json"],
            ["bivector", "--c1", "t", "--c2", "x^3 - 3*x*t + y^2 - z^2"],
            ["casimir-check", "--model", "cusp", "--h", "x"],
            ["locus", "--model", "cusp", "--point", "1,0,0,1"],
            ["flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "10"],
            ["jacobi", "--model", "wrinkle", "--k", "1 + x^2 + y^2 + z^2 + t^2"],
            ["bivector", "--model", "cusp", "--k", "x*y", "--format", "json"],
            ["flow", "--model", "fold", "--k", "2 + t^2", "--h", "x",
             "--point", "0,1,1,1", "--steps", "10"],
            ["rank", "--model", "cusp", "--point", "nan,0,0,1"],
            ["rank", "--model", "cusp", "--point", "1,0,0,1"],
            ["leaf-form", "--model", "cusp", "--point", "0,1,1,1"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, check=True,
        )
        seen = json.loads(proc.stdout)
        assert seen[:-3] == [["import", 0, False]] + [
            [argv[0], 0, False] for argv in commands[:-3]
        ]
        # rank takes its singular values in closed form; leaf-form solves.
        assert seen[-3:] == [["rank", 2, False], ["rank", 0, False], ["leaf-form", 0, True]]

    def test_cold_start_leaves_out_dataclasses_and_leaves(self):
        # One fresh interpreter reports, after the imports and after each
        # command, which of the costly modules have been imported so far.
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            costly = ("typing", "dataclasses", "inspect", "ast", "poisson4.rk4", "poisson4.leaves", "numpy")
            loaded = lambda: [name for name in costly if name in sys.modules]
            import poisson4, poisson4.cli
            seen = [["import", 0, loaded()]]
            for argv in json.loads(sys.argv[1]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = poisson4.cli.main(argv)
                seen.append([argv[0], code, loaded()])
            print(json.dumps(seen))
            """
        )

        def seen(flags: list, commands: list) -> list:
            proc = subprocess.run(
                [sys.executable, *flags, "-c", script, json.dumps(commands)],
                capture_output=True, text=True, check=True,
            )
            return json.loads(proc.stdout)

        # -S keeps the site hooks out, since a .pth file may import typing
        # before poisson4 loads.
        assert seen(["-S"], [
            ["list-models"],
            ["bivector", "--model", "wrinkle", "--s", "1", "--format", "json"],
            ["jacobi", "--model", "cusp", "--k", "1 + x^2 + y^2 + z^2 + t^2"],
            ["casimir-check", "--model", "cusp", "--h", "x"],
            ["locus", "--model", "cusp", "--point", "1,0,0,1"],
            ["rank", "--model", "cusp", "--point", "1,0,0,1"],
            ["bivector", "--c1", "t"],
            ["flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "10"],
            ["flow", "--model", "cusp", "--h", "x + y*z", "--point", "0,1,1,1", "--steps", "10"],
        ]) == [
            ["import", 0, []],
            ["list-models", 0, []],
            ["bivector", 0, []],
            ["jacobi", 0, []],
            ["casimir-check", 0, []],
            ["locus", 0, []],
            ["rank", 0, []],
            ["bivector", 2, []],
            ["flow", 0, ["poisson4.rk4"]],
            ["flow", 0, ["poisson4.rk4"]],
        ]
        # -S also puts numpy out of reach, so leaf-form runs with site.
        # numpy may import inspect itself.
        last = seen([], [["leaf-form", "--model", "cusp", "--point", "0,1,1,1"]])[-1]
        assert last[:2] == ["leaf-form", 0]
        assert {"poisson4.rk4", "poisson4.leaves", "numpy"} <= set(last[2])

    def test_package_names_resolve_lazily(self):
        script = textwrap.dedent(
            """
            import json, sys
            import poisson4
            loaded = lambda: [m for m in ("poisson4.rk4", "poisson4.leaves") if m in sys.modules]
            before = loaded()
            flow = poisson4.flow is sys.modules["poisson4.rk4"].flow
            after_flow = loaded()
            listed = set(dir(poisson4))
            namespace = {}
            exec("from poisson4 import *", namespace)
            print(json.dumps({
                "before": before,
                "flow": flow,
                "after_flow": after_flow,
                "dir": sorted(set(poisson4.__all__) - listed),
                "star": sorted(set(poisson4.__all__) - set(namespace)),
            }))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout) == {
            "before": [], "flow": True, "after_flow": ["poisson4.rk4"], "dir": [], "star": []
        }
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            poisson4.no_such_name


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


# A command that prints, for every subcommand.
PRINTING = [
    ("list-models",),
    ("bivector", "--model", "cusp"),
    ("jacobi", "--model", "cusp"),
    ("casimir-check", "--model", "cusp"),
    ("rank", "--model", "cusp", "--point", "1,0,0,1"),
    ("leaf-form", "--model", "cusp", "--point", "0,1,1,1"),
    ("flow", "--model", "cusp", "--h", "x", "--point", "0,1,1,1", "--steps", "10"),
    ("locus", "--model", "cusp", "--point", "1,0,0,1"),
]


class TestClosedStdout:
    def test_every_subcommand_is_listed(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "subcommand")
        assert {argv[0] for argv in PRINTING} == set(sub.choices)

    @pytest.mark.parametrize("argv", PRINTING, ids=lambda argv: argv[0])
    def test_exits_1_with_nothing_on_stderr(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
            assert main(list(argv)) == 1
        assert err.getvalue() == ""

    def test_a_pipe_whose_reader_has_closed(self):
        # The read end is closed before the command starts, so its first
        # write to stdout fails.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "poisson4", "list-models", "--format", "json"],
                stdout=write, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("rank", "--help")])
    def test_help_and_version_into_a_closed_pipe(self, argv, unbuffered):
        # argparse ignores a failed write of its own messages, so unbuffered
        # these once exited 0; buffered, the write fails at main's flush.
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "poisson4", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
