"""Tests for leaf frames, anchor solves, leaf coefficients and flow."""

import dis
import math
import random
import warnings
from fractions import Fraction
from itertools import combinations, count, product, zip_longest

import numpy as np
import pytest

import poisson4.expr as expr_module
from poisson4.expr import COORD_NAMES, Expr, Point4, WorkLimitError, _fused_closure, parse
from poisson4.leaves import (
    NotInImageError,
    OpenLeafError,
    SingularPointError,
    leaf_form_coefficient,
    leaf_tangent_frame,
    solve_anchor,
)
from poisson4.models import MODEL_NAMES, model
from poisson4.poisson import (
    Bivector,
    CasimirPair,
    ConformalFactorWarning,
    bivector_matrix_at,
    flaschka_ratiu,
    gradient,
    hamiltonian_field,
    rank_at,
)
from poisson4.rk4 import NonFiniteError, Trajectory, _drift, _flow_kernel, flow

CUSP = model("cusp")
CUSP_BIVECTOR = flaschka_ratiu(CUSP.casimirs)


def _random_regular_point(rng, bivector, spec, bound=2.0):
    while True:
        p = Point4(*rng.uniform(-bound, bound, size=4))
        if rank_at(bivector, p) == 2:
            return p


class TestLeafTangentFrame:
    def test_frame_is_orthonormal_and_tangent(self):
        p = Point4(0, 1, 1, 1)
        frame = leaf_tangent_frame(CUSP_BIVECTOR, p)
        u, v = frame.u.as_array(), frame.v.as_array()
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(np.dot(u, v)) < 1e-12
        for c in (CUSP.casimirs.c1, CUSP.casimirs.c2):
            grad = np.array([e.evaluate(p) for e in gradient(c)])
            assert abs(np.dot(grad, u)) < 1e-9
            assert abs(np.dot(grad, v)) < 1e-9

    def test_orientation_convention(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = _random_regular_point(rng, CUSP_BIVECTOR, CUSP)
            frame = leaf_tangent_frame(CUSP_BIVECTOR, p)
            g1 = np.array([e.evaluate(p) for e in gradient(CUSP.casimirs.c1)])
            g2 = np.array([e.evaluate(p) for e in gradient(CUSP.casimirs.c2)])
            det = np.linalg.det(
                np.column_stack([frame.u.as_array(), frame.v.as_array(), g1, g2])
            )
            assert det > 0

    def test_singular_point_raises(self):
        with pytest.raises(SingularPointError):
            leaf_tangent_frame(CUSP_BIVECTOR, Point4(1, 0, 0, 1))

    def test_fold_regular_point(self):
        fold = model("fold")
        frame = leaf_tangent_frame(flaschka_ratiu(fold.casimirs), Point4(1, 0, 0, 0))
        assert frame.u is not None

    def test_frame_spans_matrix_image(self):
        p = Point4(0, 1, 1, 1)
        frame = leaf_tangent_frame(CUSP_BIVECTOR, p)
        m = bivector_matrix_at(CUSP_BIVECTOR, p)
        basis = np.column_stack([frame.u.as_array(), frame.v.as_array()])
        for col in m.T:
            # each column of B lies in span{u, v}
            residual = col - basis @ (basis.T @ col)
            assert np.linalg.norm(residual) < 1e-9


class TestSolveAnchor:
    def test_anchor_reproduces_tangent_vector(self):
        p = Point4(0, 1, 1, 1)
        frame = leaf_tangent_frame(CUSP_BIVECTOR, p)
        m = bivector_matrix_at(CUSP_BIVECTOR, p)
        alpha = frame.alpha.as_array()
        assert np.linalg.norm(m @ alpha - frame.u.as_array()) < 1e-9

    def test_zero_right_hand_side(self):
        alpha = solve_anchor(CUSP_BIVECTOR, Point4(0, 1, 1, 1), np.zeros(4))
        assert np.allclose(alpha.as_array(), 0.0)

    def test_casimir_gradient_not_in_image(self):
        p = Point4(0, 1, 1, 1)
        g1 = np.array([e.evaluate(p) for e in gradient(CUSP.casimirs.c1)])
        with pytest.raises(NotInImageError):
            solve_anchor(CUSP_BIVECTOR, p, g1)


class TestLeafFormCoefficient:
    def test_cusp_value(self):
        r = leaf_form_coefficient(CUSP_BIVECTOR, Point4(0, 1, 1, 1))
        assert r.chart == ("y", "z")
        assert math.isclose(r.coefficient, -1 / 3, rel_tol=1e-12)
        assert math.isclose(abs(r.coefficient), 1 / 3, rel_tol=1e-12)

    def test_merge_value(self):
        spec = model("merge", 0)
        r = leaf_form_coefficient(flaschka_ratiu(spec.casimirs), Point4(1, 1, 0, 0))
        assert math.isclose(abs(r.coefficient), 1 / 3, rel_tol=1e-12)

    def test_wrinkle_chart_value(self):
        spec = model("wrinkle", 0)
        r = leaf_form_coefficient(flaschka_ratiu(spec.casimirs), Point4(0, 1, 0, 1))
        assert r.chart == ("z", "t")
        assert math.isclose(r.coefficient, 1 / 4, rel_tol=1e-12)
        # the quoted closed form for this chart is -2x the recovered value
        quoted = spec.leaf_coefficient.evaluate(Point4(0, 1, 0, 1))
        assert math.isclose(quoted, -2 * r.coefficient, rel_tol=1e-12)

    def test_antisymmetry_of_recovery(self):
        rng = np.random.default_rng(15)
        for name in ("cusp", "fold", "wrinkle"):
            spec = model(name, 1 if model(name).uses_s else None)
            b = flaschka_ratiu(spec.casimirs)
            for _ in range(10):
                p = _random_regular_point(rng, b, spec)
                r = leaf_form_coefficient(b, p)
                assert r.antisymmetry_defect < 1e-9

    def test_closed_form_agreement_sampled(self):
        rng = np.random.default_rng(303)
        for name in ("cusp", "birth", "merge", "flip"):
            spec = model(name, 1 if model(name).uses_s else None)
            b = flaschka_ratiu(spec.casimirs)
            checked = 0
            while checked < 25:
                p = Point4(*rng.uniform(-2, 2, size=4))
                if abs(spec.leaf_coefficient.denominator.evaluate(p)) <= 0.1:
                    continue
                r = leaf_form_coefficient(b, p)
                want = spec.leaf_coefficient.evaluate(p)
                assert math.isclose(r.coefficient, want, rel_tol=1e-8)
                checked += 1

    def test_well_definedness_under_anchor_perturbation(self):
        rng = np.random.default_rng(21)
        p = _random_regular_point(rng, CUSP_BIVECTOR, CUSP)
        frame = leaf_tangent_frame(CUSP_BIVECTOR, p)
        g1 = np.array([e.evaluate(p) for e in gradient(CUSP.casimirs.c1)])
        g2 = np.array([e.evaluate(p) for e in gradient(CUSP.casimirs.c2)])
        base = float(frame.alpha.as_array() @ frame.v.as_array())
        for _ in range(100):
            a, b_ = rng.uniform(-1, 1, size=2)
            perturbed = frame.alpha.as_array() + a * g1 + b_ * g2
            assert abs(perturbed @ frame.v.as_array() - base) < 1e-9

    def test_singular_point_propagates(self):
        with pytest.raises(SingularPointError):
            leaf_form_coefficient(CUSP_BIVECTOR, Point4(1, 0, 0, 1))


# Bivectors of rank 4 at the given point, where no leaf is a surface: the
# constant dx^dy + dz^dt, and dx^dy + x dz^dt off x = 0.  Flaschka-Ratiu
# bivectors have rank at most 2, so only a bivector built by hand gets here.
RANK_FOUR = [
    (Bivector.from_upper({(0, 1): parse("1"), (2, 3): parse("1")}), Point4(0, 0, 0, 0)),
    (Bivector.from_upper({(0, 1): parse("1"), (2, 3): parse("x")}), Point4(2, 1, 0, 1)),
]


class TestRankFour:
    @pytest.mark.parametrize("b,p", RANK_FOUR)
    @pytest.mark.parametrize("fn", [leaf_tangent_frame, leaf_form_coefficient])
    def test_rank_four_point_raises(self, b, p, fn):
        assert rank_at(b, p) == 4
        with pytest.raises(ValueError, match="rank 4") as info:
            fn(b, p)
        assert isinstance(info.value, OpenLeafError)
        assert not isinstance(info.value, SingularPointError)

    def test_rank_two_off_the_degenerate_set(self):
        # dx^dy + x dz^dt has rank 2 on x = 0, where the leaf is a surface.
        b, _ = RANK_FOUR[1]
        p = Point4(0, 1, 0, 1)
        assert rank_at(b, p) == 2
        assert leaf_tangent_frame(b, p).u is not None
        assert math.isfinite(leaf_form_coefficient(b, p).coefficient)


class TestFlow:
    def test_casimir_hamiltonian_is_stationary(self):
        traj = flow(CUSP_BIVECTOR, CUSP.casimirs.c1, Point4(0, 1, 1, 1), 1e-2, 50)
        assert all(p == traj.points[0] for p in traj.points)
        assert traj.drift["H"] == 0.0

    def test_cusp_conservation(self):
        traj = flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), 1e-3, 1000)
        assert traj.drift["C1"] < 1e-6
        assert traj.drift["C2"] < 1e-6
        assert traj.drift["H"] < 1e-6

    def test_zero_step_degenerates(self):
        traj = flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), 0.0, 1)
        assert len(traj.points) == 2
        assert traj.points[0] == traj.points[1]
        assert all(d == 0.0 for d in traj.drift.values())

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), -1e-3, 10)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_fewer_than_one_step_rejected(self, steps):
        with pytest.raises(ValueError, match="^steps must be at least 1$"):
            flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), 1e-3, steps)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_raises_non_finite(self):
        # dx/dt = x^2 along this bracket: finite-time blowup from x0 = 1.
        b = Bivector.from_upper({(0, 1): parse("x^2")})
        with pytest.raises(NonFiniteError):
            flow(b, parse("y"), Point4(1, 0, 0, 0), 0.05, 10000)

    def test_nan_in_a_tracked_quantity_raises(self):
        # The state stays finite, but C1 = z*(y - t) is inf - inf = nan
        # after step 1, which max() alone never reports as the drift.
        pair = CasimirPair(parse("y*z - z*t"), parse("y - t"))
        b = Bivector.from_upper({(0, 1): Expr.one(), (0, 3): Expr.one()}, casimirs=pair)
        with pytest.raises(NonFiniteError) as info:
            flow(b, parse("-x"), Point4(0, 1, 1e150, 1), 1e200, 2)
        assert str(info.value) == "conserved quantities left double precision"

    def test_tracked_int_beyond_float_range_raises(self):
        # The closure of the constant h = 10^400 gives an int no float holds.
        h = parse("1" + "0" * 400)
        with pytest.raises(NonFiniteError) as info:
            flow(CUSP_BIVECTOR, h, Point4(0, 1, 1, 1), 1e-3, 2)
        assert str(info.value) == "conserved quantities left double precision"

    def test_wrinkle_parameter_binding(self):
        spec = model("wrinkle")
        b = flaschka_ratiu(spec.casimirs)
        p0 = Point4(0.1, 0.5, 0.5, 0.5, s=1.0)
        traj = flow(b, parse("x"), p0, 1e-3, 500)
        assert traj.drift["C1"] < 1e-6
        assert traj.drift["C2"] < 1e-6

    def test_csv_export(self):
        traj = flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), 1e-3, 3)
        text = traj.to_csv()
        lines = text.split("\n")
        assert lines[0] == "step,x,y,z,t,C1,C2,H"
        assert len(lines) == 6  # header + 4 rows + trailing newline
        assert lines[-1] == ""
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == 1.0
        assert "\r" not in text

    def test_csv_requires_casimirs(self):
        b = Bivector.from_upper({(0, 1): Expr.one()})
        traj = flow(b, parse("x"), Point4(0, 0, 0, 0), 1e-3, 2)
        with pytest.raises(ValueError):
            traj.to_csv()


def _reference_flow(b, h, p0, dt, steps):
    """``flow`` as a hand-written loop over fused closures: the oracle of the kernel.

    Each RK4 stage is one call returning the four field components, and each
    step one call returning the tracked quantities; every coordinate is
    stepped, held or not.
    """
    field = _fused_closure(hamiltonian_field(b, h))
    pair = b.casimirs
    tracked = {"H": h} if pair is None else {"C1": pair.c1, "C2": pair.c2, "H": h}
    track = _fused_closure(tracked.values())
    s = p0.s
    lost_row = (math.inf,) * len(tracked)

    isfinite = math.isfinite
    half, sixth = 0.5 * dt, dt / 6.0
    x, y, z, t = map(float, p0.coords())
    states = [(x, y, z, t)]
    try:
        rows = [track(x, y, z, t, s)]
    except OverflowError:
        rows = [lost_row]

    for n in range(1, steps + 1):
        try:
            k1x, k1y, k1z, k1t = field(x, y, z, t, s)
            k2x, k2y, k2z, k2t = field(
                x + half * k1x, y + half * k1y, z + half * k1z, t + half * k1t, s
            )
            k3x, k3y, k3z, k3t = field(
                x + half * k2x, y + half * k2y, z + half * k2z, t + half * k2t, s
            )
            k4x, k4y, k4z, k4t = field(
                x + dt * k3x, y + dt * k3y, z + dt * k3z, t + dt * k3t, s
            )
        except OverflowError:
            finite = False
        else:
            x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
            t = t + sixth * (k1t + 2.0 * (k2t + k3t) + k4t)
            finite = isfinite(x) and isfinite(y) and isfinite(z) and isfinite(t)
        if not finite:
            raise NonFiniteError(
                f"trajectory left double precision after {n} steps",
                step=n,
                last_point=Point4(*states[-1], s),
            )
        states.append((x, y, z, t))
        try:
            rows.append(track(x, y, z, t, s))
        except OverflowError:
            rows.append(lost_row)

    lost = "conserved quantities left double precision"
    try:
        # A closure free of x, y, z, t may give an int; the CSV needs floats.
        columns = [tuple(map(float, col)) for col in zip(*rows)]
    except OverflowError:  # an int beyond the float range
        raise NonFiniteError(lost) from None
    conserved = dict(zip(tracked, columns))
    drift = {key: max(abs(v - col[0]) for v in col) for key, col in conserved.items()}
    # A NaN after the first value never wins max(), so every value is checked.
    finite = all(map(isfinite, drift.values())) and all(
        all(map(isfinite, col)) for col in columns
    )
    if not finite:
        raise NonFiniteError(lost)
    return Trajectory(
        columns=tuple(zip(*states)), s=s, dt=dt, conserved=conserved, drift=drift
    )


def _reference_flow_csv(b, h, p0, dt, steps):
    """The RK4 loop on a (4,) ndarray state, kept as an independent reference.

    Returns the CSV text, the drift and the points, or raises NonFiniteError
    with the message the float loop must reproduce.
    """
    field = [e.compiled() for e in hamiltonian_field(b, h)]
    s = p0.s

    def rhs(state):
        x, y, z, t = state
        return np.array([f(x, y, z, t, s) for f in field])

    pair = b.casimirs
    trackers = {"C1": pair.c1.compiled(), "C2": pair.c2.compiled()}
    trackers["H"] = h.compiled()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = np.array(p0.coords(), dtype=float)
        points = [p0]
        values = {key: [fn(*state, s)] for key, fn in trackers.items()}
        for _ in range(steps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(state)):
                raise NonFiniteError(
                    f"trajectory left double precision after {len(points)} steps"
                )
            points.append(Point4(*map(float, state), s=s))
            for key, fn in trackers.items():
                values[key].append(float(fn(*state, s)))
        drift = {
            key: max(abs(v - vals[0]) for v in vals)
            for key, vals in values.items()
        }
    if not all(math.isfinite(d) for d in drift.values()):
        raise NonFiniteError("conserved quantities left double precision")
    lines = ["step,x,y,z,t,C1,C2,H"]
    for idx, p in enumerate(points):
        row = [str(idx)] + [format(c, ".17g") for c in p.coords()]
        row += [format(values[key][idx], ".17g") for key in ("C1", "C2", "H")]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", drift, points


def _first_difference(text, expected):
    """(line number, line, expected line) where two texts first differ.

    None when they are equal; keeps a failure report to one CSV row.
    """
    if text == expected:
        return None
    rows = zip_longest(text.split("\n"), expected.split("\n"))
    return next((n, a, b) for n, (a, b) in enumerate(rows) if a != b)


FLOW_ORIGIN = (0.1, 0.5, 0.5, 0.5)
K_FACTOR = parse("1 + x^2 + y^2 + z^2 + t^2")

# (model, s, h) whose flow from FLOW_ORIGIN exists up to t = 1.
CONSERVING_COMBOS = [
    ("fold", None, "x"),
    ("fold", None, "x + y*z"),
    ("cusp", None, "x"),
    ("cusp", None, "x + y*z"),
    ("birth", -1, "x"),
    ("birth", 0, "x"),
    ("birth", 0, "x + y*z"),
    ("birth", 1, "x"),
    ("merge", -1, "x"),
    ("merge", 0, "x"),
    ("merge", 0, "x + y*z"),
    ("merge", 1, "x"),
    ("flip", -1, "x"),
    ("flip", 0, "x"),
    ("flip", 0, "x + y*z"),
    ("flip", 1, "x"),
    ("flip", 1, "x + y*z"),
]

# (model, s, h) whose flow from FLOW_ORIGIN leaves double precision.
ESCAPING_COMBOS = [
    ("lefschetz", None, "x"),
    ("lefschetz", None, "x + y*z"),
    ("wrinkle", 1, "x"),
    ("birth", 1, "x + y*z"),
    ("flip", -1, "x + y*z"),
]


def _combo_flow_inputs(name, s, h_text, k=None, coords=FLOW_ORIGIN):
    b = flaschka_ratiu(model(name, s).casimirs, k=k)
    return b, parse(h_text), Point4(*coords, s=float(s or 0))


class TestFlowMatchesNdarrayReference:
    @pytest.mark.parametrize("name,s,h_text", CONSERVING_COMBOS)
    def test_csv_bytes_on_conserving_combos(self, name, s, h_text):
        b, h, p0 = _combo_flow_inputs(name, s, h_text)
        expected, _, points = _reference_flow_csv(b, h, p0, 1e-3, 1000)
        traj = flow(b, h, p0, 1e-3, 1000)
        assert _first_difference(traj.to_csv(), expected) is None
        assert all(type(d) is float for d in traj.drift.values())
        assert list(traj.points) == points

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_bytes_or_message_with_k_from_seeded_starts(self, seed):
        rng = random.Random(seed)
        name, s, h_text = rng.choice(CONSERVING_COMBOS)
        coords = [c + rng.uniform(-0.05, 0.05) for c in FLOW_ORIGIN]
        b, h, p0 = _combo_flow_inputs(name, s, h_text, K_FACTOR, coords)

        def outcome(run):
            try:
                return run(b, h, p0, 1e-3, 1000)
            except NonFiniteError as err:
                return str(err), None

        def run_flow(*args):
            traj = flow(*args)
            return traj.to_csv(), list(traj.points)

        expected = outcome(lambda *a: _reference_flow_csv(*a)[::2])
        found = outcome(run_flow)
        assert _first_difference(found[0], expected[0]) is None
        assert found[1] == expected[1]

    @pytest.mark.parametrize("name,s,h_text", ESCAPING_COMBOS)
    def test_escape_message_matches(self, name, s, h_text):
        b, h, p0 = _combo_flow_inputs(name, s, h_text)
        with pytest.raises(NonFiniteError) as ref:
            _reference_flow_csv(b, h, p0, 1e-3, 1000)
        assert str(ref.value).startswith("trajectory left double precision after")
        with pytest.raises(NonFiniteError) as new:
            flow(b, h, p0, 1e-3, 1000)
        assert str(new.value) == str(ref.value)

    def test_overflow_in_a_step_matches(self):
        # dx/dt = x^3: the power overflows within a step from a large start.
        pair = CasimirPair(parse("z"), parse("t"))
        b = Bivector.from_upper({(0, 1): parse("x^3")}, casimirs=pair)
        p0 = Point4(1e100, 0, 0, 0)
        with pytest.raises(NonFiniteError) as ref:
            _reference_flow_csv(b, parse("y"), p0, 1e-3, 10)
        with pytest.raises(NonFiniteError) as new:
            flow(b, parse("y"), p0, 1e-3, 10)
        assert str(new.value) == str(ref.value)

    def test_overflow_in_a_tracker_matches(self):
        # The state stays finite while C1 = t^60 overflows at t = 1e6.
        pair = CasimirPair(parse("t^60"), parse("y"))
        b = Bivector.from_upper({(0, 1): Expr.one()}, casimirs=pair)
        p0 = Point4(1e6, 1e6, 0, 1e6)
        with pytest.raises(NonFiniteError) as ref:
            _reference_flow_csv(b, parse("x^3"), p0, 1e-3, 50)
        assert str(ref.value) == "conserved quantities left double precision"
        with pytest.raises(NonFiniteError) as new:
            flow(b, parse("x^3"), p0, 1e-3, 50)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            flow(CUSP_BIVECTOR, parse("x"), Point4(0, 1, 1, 1), dt, 10)


@pytest.mark.parametrize("name,s,h_text", ESCAPING_COMBOS)
def test_escape_carries_the_step_and_the_last_finite_point(name, s, h_text):
    b, h, p0 = _combo_flow_inputs(name, s, h_text)
    with pytest.raises(NonFiniteError) as ref:
        _reference_flow_csv(b, h, p0, 1e-3, 1000)
    step = int(str(ref.value).split()[-2])
    # The reference run that stops one step short ends on the last finite point.
    points = _reference_flow_csv(b, h, p0, 1e-3, step - 1)[2]
    with pytest.raises(NonFiniteError) as new:
        flow(b, h, p0, 1e-3, 1000)
    assert str(new.value) == str(ref.value)
    assert new.value.step == step
    assert new.value.last_point == points[-1]
    assert all(map(math.isfinite, new.value.last_point.values()))


def test_tracked_escape_carries_no_step():
    h = parse("1" + "0" * 400)
    with pytest.raises(NonFiniteError) as info:
        flow(CUSP_BIVECTOR, h, Point4(0, 1, 1, 1), 1e-3, 2)
    assert (info.value.step, info.value.last_point) == (None, None)


def _signed(values):
    """Values with their signs: -0.0 differs from 0.0, and nan equals nan."""
    return [(math.copysign(1.0, v), v if v == v else "nan") for v in values]


def _flow_outcome(run, *args):
    """What a flow gives: its CSV, drift and columns, or its escape."""
    try:
        traj = run(*args)
    except NonFiniteError as err:
        point = None if err.last_point is None else _signed(err.last_point.values())
        return str(err), err.step, point
    try:
        csv = traj.to_csv()
    except ValueError:  # the bivector records no Casimir pair
        csv = None
    return csv, repr(traj.drift), repr(traj.columns), repr(traj.conserved)


# Coefficients the kernel writes as float literals, or leaves as they are:
# 2^53 + 1 rounds to 2^53, 10^20 is a double, 10^308 - 1 (308 digits) rounds
# to 1e308, 10^309 - 1 stays an int no float holds, and a rational is one
# constant.
ODD_COEFFICIENTS = ["9007199254740993", "-100000000000000000000", "9" * 308, "-" + "9" * 309,
                    "1/3", "-7/9"]


class TestKernelMatchesTheLoop:
    """The generated kernel of ``flow`` against ``_reference_flow``.

    The catalogue flows hold t (C1 = t, so X^t = 0) and, when h = x, x too;
    a held coordinate is x0 + dt*0.0 from step 1 on, which differs from x0
    only for a -0.0 start, and from x0 + 0.0 only when dt is -0.0 as well.
    """

    @pytest.mark.parametrize("dt", [1e-3, 0.0, -0.0])
    @pytest.mark.parametrize("name,s,h_text", CONSERVING_COMBOS)
    def test_signed_zero_starts(self, name, s, h_text, dt):
        for coords in ((-0.0, 0.5, 0.5, -0.0), (0.0, -0.0, 0.5, 0.0)):
            b, h, p0 = _combo_flow_inputs(name, s, h_text, coords=coords)
            want = _flow_outcome(_reference_flow, b, h, p0, dt, 30)
            assert _flow_outcome(flow, b, h, p0, dt, 30) == want, coords

    def test_escape_after_a_held_negative_zero(self):
        # x is held at x0 + 0.0 = 0.0 from step 1 on, so the last finite
        # point of a later escape has x = +0.0, not the start's -0.0.
        b, h, p0 = _combo_flow_inputs("lefschetz", None, "x", coords=(-0.0, 0.5, 0.5, 0.5))
        want = _flow_outcome(_reference_flow, b, h, p0, 1e-3, 1000)
        assert want[:2] == ("trajectory left double precision after 944 steps", 944)
        assert want[2][0] == (1.0, 0.0)
        assert _flow_outcome(flow, b, h, p0, 1e-3, 1000) == want

    @pytest.mark.parametrize("held", ["x", "t"])
    def test_non_finite_held_start_escapes_at_step_one(self, held):
        b, h, _ = _combo_flow_inputs("cusp", None, "x")
        for value in (math.inf, -math.inf, math.nan):
            p0 = Point4(**{**dict(zip(COORD_NAMES, FLOW_ORIGIN)), held: value})
            want = _flow_outcome(_reference_flow, b, h, p0, 1e-3, 5)
            assert want[1] == 1
            assert _flow_outcome(flow, b, h, p0, 1e-3, 5) == want

    def test_drawn_flows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coord = st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e150, 1e6]),
            st.floats(-2, 2),
        )
        drawn = _drawn_polynomials(st, ["-2", "-1", "1", "3", "1/2", *ODD_COEFFICIENTS], 3)
        # h = x^60 and the 10^400 constant overflow as tracked quantities.
        fixed = ["x", "x + y*z", "y", "t", "1", "0", "x^2 - t", "z^3*y", "s*x + z",
                 "x^60", "1" + "0" * 400]
        factors = [None, K_FACTOR, parse("x"), parse("3"), parse("y*z - 1")]
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=300, deadline=None, database=None, phases=phases)
        @hypothesis.given(
            st.sampled_from(MODEL_NAMES),
            st.sampled_from([None, -1, 0, 1]),
            st.sampled_from(factors),
            st.booleans(),
            st.one_of(st.sampled_from(fixed), drawn),
            st.lists(coord, min_size=4, max_size=4),
            st.sampled_from([-1.0, -0.0, 0.5, 2.0]),
            st.sampled_from([0.0, -0.0, 0, 5e-324, 1e-3, 1e-2, 0.1, 1e200]),
            st.integers(1, 40),
        )
        def check(name, s, k, with_pair, h_text, coords, s_value, dt, steps):
            s = s if model(name).uses_s else None
            pair = model(name, s).casimirs
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # k = x vanishes on the probe
                b = flaschka_ratiu(pair, k=k)
            if not with_pair:
                b = Bivector(b.components, conformal=b.conformal)
            p0 = Point4(*coords, s=s_value if s is None else float(s))
            args = (b, parse(h_text), p0, dt, steps)
            assert _flow_outcome(flow, *args) == _flow_outcome(_reference_flow, *args)

        check()

    def test_drawn_casimir_pairs(self):
        # A coordinate C1 holds that coordinate, and a coordinate h holds
        # that one too, so y, z or two coordinates at once are held.  The
        # drawn terms free of the moved coordinates stand first, in the
        # middle or last, in the field and in the tracked quantities, and
        # 1e100 makes such a term overflow.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coord = st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -2.0, 1e6, 1e100, 1.7e308]), st.floats(-2, 2)
        )
        drawn = _drawn_polynomials(
            st, ["-2", "-1", "1", "3", "1/2", "-3/4", "s", "-2*s", *ODD_COEFFICIENTS], 5
        )
        hamiltonians = st.one_of(st.sampled_from(COORD_NAMES + ("x + t", "y*z", "s*z")), drawn)
        factors = [None, parse("x"), parse("1 + y^2")]
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)
        start = (-0.0, 0.5, 0.0, -0.0)

        @hypothesis.settings(max_examples=300, deadline=None, database=None, phases=phases)
        @hypothesis.given(
            st.one_of(st.sampled_from(COORD_NAMES), drawn),
            drawn,
            st.sampled_from(factors),
            hamiltonians,
            st.lists(coord, min_size=4, max_size=4),
            st.sampled_from([-1.0, -0.0, 0.5]),
            st.sampled_from([0.0, -0.0, 1e-3, 0.1]),
            st.integers(1, 30),
        )
        @hypothesis.example("t", "y^2 - x^3*z - z^2 + 1/2*x*t", None, "x", start, 0.5, 1e-3, 3)
        @hypothesis.example("t", "x^3*t + y^2 - x*t - z^2 + s*x^2", None, "x", start, -1.0, 0.1, 3)
        @hypothesis.example("y", "x^2*y - 3*x*z + y^3 - t", None, "y", start, 0.5, 1e-3, 3)
        @hypothesis.example("z", "-x*y + s*z^2*t + t", parse("x"), "z", start, 0.5, 1e-3, 3)
        # A field term that reads only held coordinates must take them from
        # the -0.0 start in stage 1 of step 1, and from the held +0.0 in the
        # later stages.
        @hypothesis.example(
            "z", "-2*x^2*y^2*z^3*t + y*z^2*t^3", None, "t", (-0.0, -0.0, 0.0, -0.0), 0.5, 0.1, 2
        )
        @hypothesis.example("t", "x*y^2", None, "x", (0.0, -0.0, -0.0, -0.0), 0.5, 0.0, 3)
        @hypothesis.example(
            "y", "-x*y^3*t^3 + 1/2*x*y^3*z^2", None, "t", (-0.0, -0.0, -0.0, 0.0), 0.5, 0.1, 1
        )
        def check(c1, c2, k, h_text, coords, s_value, dt, steps):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # k = x vanishes on the probe
                b = flaschka_ratiu(CasimirPair(parse(c1), parse(c2)), k=k)
            args = (b, parse(h_text), Point4(*coords, s=s_value), dt, steps)
            assert _flow_outcome(flow, *args) == _flow_outcome(_reference_flow, *args)

        check()

    def test_overflow_in_a_held_field_term_escapes_from_the_start(self):
        # X^y = x^4 reads only the held x and t, and (1e100)**4 overflows.
        b = flaschka_ratiu(CasimirPair(parse("t"), parse("y^2 - x^4*z")))
        p0 = Point4(1e100, 0.5, 0.5, 0.5)
        want = _flow_outcome(_reference_flow, b, parse("x"), p0, 1e-3, 5)
        assert want == ("trajectory left double precision after 1 steps", 1, _signed(p0.values()))
        assert _flow_outcome(flow, b, parse("x"), p0, 1e-3, 5) == want

    def test_a_coefficient_beyond_the_float_range_escapes_at_step_one(self):
        # X^z = -2*10^400*y: the coefficient stays an int, so its product
        # with y raises OverflowError in stage 1 of step 1.
        big = "1" + "0" * 400
        b = flaschka_ratiu(CasimirPair(parse("t"), parse(big + "*y^2 - z^2")))
        p0 = Point4(*FLOW_ORIGIN)
        want = _flow_outcome(_reference_flow, b, parse("x"), p0, 1e-3, 5)
        assert want == ("trajectory left double precision after 1 steps", 1, _signed(p0.values()))
        assert _flow_outcome(flow, b, parse("x"), p0, 1e-3, 5) == want

    def test_a_coefficient_beyond_the_float_range_in_a_tracked_quantity(self):
        big = "1" + "0" * 400
        pair = CasimirPair(parse("t"), parse(big + "*y^2 - z^2"))
        b = Bivector(CUSP_BIVECTOR.components, casimirs=pair)
        args = (b, parse("x + y*z"), Point4(*FLOW_ORIGIN), 1e-3, 5)
        want = _flow_outcome(_reference_flow, *args)
        assert want == ("conserved quantities left double precision", None, None)
        assert _flow_outcome(flow, *args) == want

    @pytest.mark.parametrize("c2", ["3/8*x*y^2 - z^2", "1/9007199254740993*x*y^2 - z^2"])
    def test_a_rational_coefficient_of_a_moved_term(self, c2):
        # X^z = -3/4*x*y, or -2/9007199254740993*x*y, whose denominator is
        # no double: 2/9007199254740993.0 would differ.  From z = 0 the
        # value's own digits reach the z and C2 columns.
        b = flaschka_ratiu(CasimirPair(parse("t"), parse(c2)))
        args = (b, parse("x"), Point4(0.1, 0.5, 0.0, 0.5), 1e-3, 20)
        want = _flow_outcome(_reference_flow, *args)
        assert want[0].startswith("step,x,y,z,t,C1,C2,H\n")
        assert _flow_outcome(flow, *args) == want

    @pytest.mark.parametrize("z0,step", [(0.5, None), (1.7e308, 1)])
    def test_overflow_in_a_held_tracked_term(self, z0, step):
        # C2's first term x^4 reads only the held x, and the field does not
        # read it; a coordinate that escapes (-2*z overflows) comes first.
        b = flaschka_ratiu(CasimirPair(parse("t"), parse("x^4 + y^2 - z^2")))
        p0 = Point4(1e100, 0.5, z0, 0.5)
        want = _flow_outcome(_reference_flow, b, parse("x"), p0, 1e-3, 5)
        assert want[1] == step
        assert step or want[0] == "conserved quantities left double precision"
        assert _flow_outcome(flow, b, parse("x"), p0, 1e-3, 5) == want


def test_drift_beyond_double_precision_raises():
    # C1 = 10^308*x stays finite while x goes from -1 to about 1.17, but
    # C1 - C1(start) passes the largest double.
    pair = CasimirPair(parse("1" + "0" * 308 + "*x"), parse("t"))
    args = (parse("x + y*z"), Point4(-1, 1, 1, 1), 1e-3, 520)
    assert 1 < flow(CUSP_BIVECTOR, *args).columns[0][-1] < 1.7
    b = Bivector(CUSP_BIVECTOR.components, casimirs=pair)
    want = _flow_outcome(_reference_flow, b, *args)
    assert want == ("conserved quantities left double precision", None, None)
    assert _flow_outcome(flow, b, *args) == want


def test_a_field_too_long_to_compile_is_a_work_limit_error(monkeypatch):
    # The kernel holds each field component and tracked quantity as one sum,
    # here about 20,000 terms, and CPython's compiler gives up on it
    # (3.10-3.12 above about 3,000 terms, 3.13 above about 10,000).  The flow
    # ends naming the term count of the longest, H = h.  Its monomials would
    # fill most of the shared table, so it gets its own.
    monkeypatch.setattr(expr_module, "_SHARED_MONOMIALS", {})
    h = Expr({(i, j, 0, 0, 0): 1 for i in range(200) for j in range(100)})
    b = Bivector.from_upper({(0, 1): Expr.one()})
    with pytest.raises(WorkLimitError, match="^a polynomial of 20000 terms is too long to compile$"):
        flow(b, h, Point4(0, 0, 0, 0), 1e-3, 1)


def _loop_arithmetic(code):
    """The operands of each multiply in the kernel's loop, and its count of powers.

    A constant operand is its value, any other one None.  The operands are
    followed on a model of the stack through loads and arithmetic; any other
    instruction empties it, so an operand it cannot place is missing.
    """
    instructions = list(dis.get_instructions(code))
    loop = next(i for i in instructions if i.opname == "FOR_ITER")
    stack, multiplies, powers = [], [], 0
    for ins in instructions:
        if not loop.offset < ins.offset < loop.argval:
            continue
        op = ins.argrepr if ins.opname == "BINARY_OP" else ins.opname  # 3.10: BINARY_<OP>
        if ins.opname in ("LOAD_CONST", "LOAD_SMALL_INT"):
            stack.append(ins.argval)
        elif ins.opname in ("LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_DEREF", "LOAD_GLOBAL"):
            stack.append(None)
        elif ins.opname == "LOAD_FAST_LOAD_FAST":  # 3.13
            stack += [None, None]
        elif ins.opname == "UNARY_NEGATIVE":
            stack[-1:] = [None]
        elif op in ("*", "BINARY_MULTIPLY", "**", "BINARY_POWER", "+", "BINARY_ADD",
                    "-", "BINARY_SUBTRACT"):
            if op in ("*", "BINARY_MULTIPLY"):
                multiplies.append(stack[-2:])
            powers += op in ("**", "BINARY_POWER")
            stack[-2:] = [None]
        else:
            stack = []
    return multiplies, powers


@pytest.mark.parametrize("c2,powers", [
    # Per stage x^2, y^2 and z^2 (x^2 in X^y and X^z); x^3, y^2, z^2 after it.
    (None, 4 * 3 + 3),
    # The same field; C2 takes x^2 twice, and H = x + y*z no power.
    ("x^2*y - x^2*z", 4 * 3 + 1),
])
def test_the_loop_multiplies_floats_and_takes_each_power_once(c2, powers):
    # The speed of the kernel, which no output shows: no int coefficient
    # is converted per product, and a power shared by components of one
    # stage, or by tracked quantities, is taken once.
    pair = CUSP.casimirs if c2 is None else CasimirPair(parse("t"), parse(c2))
    b = Bivector(CUSP_BIVECTOR.components, casimirs=pair)
    key = b.upper, b.conformal, b.casimirs, parse("x + y*z")
    multiplies, counted = _loop_arithmetic(_flow_kernel(*key)[0].__code__)
    assert len(multiplies) > 40
    assert all(len(operands) == 2 for operands in multiplies)
    assert not [v for operands in multiplies for v in operands if type(v) is int]
    assert counted == powers


def _drawn_polynomials(st, coefficients, most):
    """Texts of sums of 1 to ``most`` monomials in x, y, z, t of degree <= 3 each."""
    monomial = st.tuples(
        st.sampled_from(coefficients), st.lists(st.integers(0, 3), min_size=4, max_size=4)
    )
    return st.lists(monomial, min_size=1, max_size=most).map(
        lambda terms: " + ".join(
            "*".join([c] + [f"{v}^{e}" for v, e in zip(COORD_NAMES, es) if e])
            for c, es in terms
        )
    )


def _reference_to_csv(traj):
    """Trajectory.to_csv as it was before constant columns: %.17g per value."""
    if "C1" not in traj.conserved or "C2" not in traj.conserved:
        raise ValueError("CSV export needs Casimir diagnostics")
    row = "%d" + ",%.17g" * 7 + "\n"
    c1, c2, h = (traj.conserved[key] for key in ("C1", "C2", "H"))
    return "step,x,y,z,t,C1,C2,H\n" + "".join(
        map(row.__mod__, zip(count(), *traj.columns, c1, c2, h))
    )


# Columns of five values; each is put in every one of the seven CSV columns.
CSV_COLUMNS = {
    "constant nonzero": (0.5,) * 5,
    "constant 0.0": (0.0,) * 5,
    "constant -0.0": (-0.0,) * 5,
    "mixed signed zeros": (0.0, -0.0, 0.0, -0.0, -0.0),
    "int constant": (3,) * 5,
    "1e300": (1e300,) * 5,
    "5e-324": (5e-324,) * 5,
    "constant but the last": (0.25, 0.25, 0.25, 0.25, 0.2500000000000001),
    "negative zero first": (-0.0, 0.0, 0.0, 0.0, 0.0),
    "zeros of both signs after a nonzero": (0.25, 0.0, -0.0, 0.25, -0.0),
    "varying": (0.1, 0.2, 0.30000000000000004, -1.5, 2.0),
}


def _trajectory(columns):
    x, y, z, t, c1, c2, h = columns
    conserved = {"C1": c1, "C2": c2, "H": h}
    return Trajectory(
        columns=(x, y, z, t), s=0.0, dt=1e-3, conserved=conserved,
        drift={key: 0.0 for key in conserved},
    )


@pytest.mark.parametrize("kind", CSV_COLUMNS)
def test_csv_bytes_of_hand_built_columns(kind):
    special, varying = CSV_COLUMNS[kind], CSV_COLUMNS["varying"]
    for slot in range(7):
        columns = [varying] * 7
        columns[slot] = special
        traj = _trajectory(columns)
        assert traj.to_csv() == _reference_to_csv(traj), (kind, slot)
    traj = _trajectory([special] * 7)
    assert traj.to_csv() == _reference_to_csv(traj), kind


def test_csv_bytes_of_mixed_columns_and_short_columns():
    kinds = list(CSV_COLUMNS.values())
    rng = random.Random(5)
    for _ in range(50):
        traj = _trajectory([rng.choice(kinds) for _ in range(7)])
        assert traj.to_csv() == _reference_to_csv(traj)
    # Columns of unequal length give as many rows as the shortest.
    columns = [(1.0,) * 5] * 7
    columns[2] = (1.0, 1.0)
    traj = _trajectory(columns)
    assert traj.to_csv() == _reference_to_csv(traj)
    assert _trajectory([()] * 7).to_csv() == "step,x,y,z,t,C1,C2,H\n"


class TestFlowClosureMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _flow_kernel.cache_clear()

    @staticmethod
    def _memo_after(*bivectors, h_texts=("x + y*z",)):
        p0 = Point4(*FLOW_ORIGIN)
        csvs = {
            flow(b, parse(h), p0, 1e-3, 5).to_csv() for b in bivectors for h in h_texts
        }
        info = _flow_kernel.cache_info()
        return info.hits, info.misses, len(csvs)

    def test_an_equal_but_distinct_h_hits_the_memo(self):
        assert self._memo_after(CUSP_BIVECTOR, h_texts=("x + y*z",) * 2) == (1, 1, 1)

    def test_an_equal_but_distinct_bivector_hits_the_memo(self):
        again = flaschka_ratiu(model("cusp").casimirs)
        assert self._memo_after(CUSP_BIVECTOR, again) == (1, 1, 1)

    def test_another_k_adds_an_entry(self):
        scaled = flaschka_ratiu(CUSP.casimirs, k=parse("3 + x^2 + 5*y^2"))
        assert self._memo_after(CUSP_BIVECTOR, scaled) == (0, 2, 2)

    def test_another_casimir_pair_with_the_same_bracket_adds_an_entry(self):
        # (C1 + C2, C2) gives the same bracket; only the trackers differ.
        c1, c2 = CUSP.casimirs.c1, CUSP.casimirs.c2
        other = flaschka_ratiu(CasimirPair(c1 + c2, c2))
        assert other.components == CUSP_BIVECTOR.components
        assert self._memo_after(CUSP_BIVECTOR, other) == (0, 2, 2)


def test_fused_closure_matches_compiled_at_zero_coordinates():
    # Every catalogue field and tracker triple, at points made of +-0.0 and
    # 0.5, where a sum of signed zeros decides the sign of a value; repr
    # tells 0.0 from -0.0 and from the int 0.
    coords = (0.0, -0.0, 0.5)
    points = list(product(coords, repeat=4))
    for name in MODEL_NAMES:
        for s in (-1, 0, 1) if model(name).uses_s else (None,):
            pair = model(name, s).casimirs
            b = flaschka_ratiu(pair)
            for h in map(parse, ("x", "x + y*z", "-y")):
                for exprs in (hamiltonian_field(b, h), (pair.c1, pair.c2, h)):
                    fused = _fused_closure(exprs)
                    single = [e.compiled() for e in exprs]
                    for p in points:
                        args = (*p, float(s or 0))
                        want = [repr(f(*args)) for f in single]
                        found = list(map(repr, fused(*args)))
                        assert found == want, (name, s, h, p)


def test_one_pass_drift_is_bitwise_the_generator_max():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    edge = st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
         1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300]
    )
    finite = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(finite, min_size=1, max_size=40))
    def check(vals):
        expected = max(abs(v - vals[0]) for v in vals)
        assert repr(_drift(tuple(vals))) == repr(expected)

    check()


# (model, s) on which the chart coefficient is checked against its closed form.
ORACLE_COMBOS = [("cusp", None), ("wrinkle", 1), ("lefschetz", None), ("flip", 1)]


def _regular_points(b, s, seed, count):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = Point4(*rng.uniform(-2, 2, size=4), s=float(s or 0))
        if rank_at(b, p) == 2:
            points.append(p)
    return points


class TestOneMatrixPerPoint:
    @pytest.mark.parametrize("k", [None, K_FACTOR])
    @pytest.mark.parametrize("name,s", ORACLE_COMBOS)
    def test_chart_coefficient_is_minus_one_over_the_chart_entry(self, name, s, k):
        # In the chart (x^i, x^j) the leaf form is -1/B[i, j] dx^i ^ dx^j; the
        # error of the lstsq/solve pipeline grows with max|B| / |B[i, j]|.
        b = flaschka_ratiu(model(name, s).casimirs, k=k)
        for p in _regular_points(b, s, seed=len(name), count=30):
            r = leaf_form_coefficient(b, p)
            m = bivector_matrix_at(b, p)
            i, j = map(COORD_NAMES.index, r.chart)
            want = -1 / m[i, j]
            ratio = np.max(np.abs(m)) / abs(m[i, j])
            assert abs(r.coefficient - want) <= 1e-13 * ratio * abs(want), (p, r)

    def test_bivector_matrix_is_evaluated_once_per_point(self, monkeypatch):
        import poisson4.leaves
        import poisson4.poisson

        seen = []

        def counting(b, p):
            seen.append(p)
            return bivector_matrix_at(b, p)

        monkeypatch.setattr(poisson4.leaves, "bivector_matrix_at", counting)
        monkeypatch.setattr(poisson4.poisson, "bivector_matrix_at", counting)
        b = flaschka_ratiu(model("wrinkle", 1).casimirs, k=K_FACTOR)
        points = _regular_points(b, 1, seed=5, count=10)
        seen.clear()
        for p in points:
            leaf_form_coefficient(b, p)
        assert seen == points

    # Entries of 2e80: each Gram determinant there is about 1e321 or more.
    @pytest.mark.parametrize("k", [None, parse("3")])
    @pytest.mark.parametrize("point", [(1, 1e80, 1, 1), (1e80, 1e79, 1, 1)])
    def test_gram_determinants_that_overflow_as_floats(self, point, k):
        b = flaschka_ratiu(model("fold").casimirs, k=k)
        p = Point4(*point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = leaf_form_coefficient(b, p)
        m = bivector_matrix_at(b, p)
        cols = [[Fraction(float(v)) for v in m[:, i]] for i in range(4)]

        def dot(a, c):
            return sum(x * y for x, y in zip(a, c))

        def gram(i, j):
            a, c = cols[i], cols[j]
            return dot(a, a) * dot(c, c) - dot(a, c) ** 2

        # The frame starts from the first column of the largest exact Gram
        # pair, normalised as it would be without scaling.
        i, _ = max(combinations(range(4), 2), key=lambda ij: gram(*ij))
        u = m[:, i] / np.linalg.norm(m[:, i])
        assert np.array_equal(r.frame.u.as_array(), u)
        # The chart coefficient is the closed form -1/(k*pi^{ij}).
        i, j = map(COORD_NAMES.index, r.chart)
        scale = 1.0 if k is None else k.evaluate(p)
        want = -1 / (scale * b.components[i][j].evaluate(p))
        assert math.isclose(r.coefficient, want, rel_tol=1e-13)

    def test_vanishing_k_warns_then_the_point_is_singular(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConformalFactorWarning)
            b = flaschka_ratiu(CUSP.casimirs, k=parse("x"))
        with pytest.warns(ConformalFactorWarning, match="~0 at the query point"):
            with pytest.raises(SingularPointError):
                leaf_form_coefficient(b, Point4(0, 1, 1, 1))
