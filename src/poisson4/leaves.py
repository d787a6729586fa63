"""Numeric geometry on symplectic leaves: frames, anchors, coefficients, flow.

A regular point of a rank-2 bivector sits on a two-dimensional leaf whose
tangent plane is the image of the evaluated component matrix B.  B is
evaluated once per point, from the one source text of ``expr`` (graded-lex
sums, signed zeros as in Python), and the rank check, the frame, both anchor
solves and the chart all read that matrix.  The rank check is the closed form
of ``poisson.rank_at``, run on that matrix; numpy runs only the
frame, the least-squares anchor solves and the chart-lift solve.  The leaf
symplectic form is recovered by solving the anchor equation B(alpha) = u and
pairing: omega(u, v) = <alpha, v> = -<beta, u>.  Any two anchor solutions
differ by a combination of dC1, dC2, which annihilates tangent vectors, so
the pairing is well defined.

Two normalizations of the recovered 2-form are reported:

* ``area_coefficient`` - against the Euclidean area form of the leaf,
  evaluated on an orthonormal oriented tangent frame;
* ``coefficient`` - against a coordinate-plane chart: the tangent lifts of
  the two chart directions (the lexicographically last coordinate pair on
  which B acts nondegenerately), ordered so that the closed-form catalogue
  coefficients are reproduced sign for sign on the coordinate-Casimir models.

numpy is imported only inside the functions that solve (see ``expr``); the
RK4 flow runs on Python floats.  A :class:`Trajectory` keeps its coordinates
as four float columns; ``Trajectory.points``, one :class:`Point4` per step,
is built from them on first access.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Optional

from .expr import COORD_NAMES, Expr, Point4, Record, _fused_closure
from .poisson import (
    COORD_PAIRS,
    Bivector,
    CasimirPair,
    Covector4,
    Vector4,
    _rank_of_matrix,
    _warn_if_k_vanishes,
    bivector_matrix_at,
    hamiltonian_field,
)

__all__ = [
    "SingularPointError",
    "NotInImageError",
    "NonFiniteError",
    "LeafFrame",
    "LeafFormResult",
    "Trajectory",
    "leaf_tangent_frame",
    "solve_anchor",
    "leaf_form_coefficient",
    "flow",
]

ANCHOR_TOLERANCE = 1e-9
PAIR_SELECTION_RTOL = 1e-9


class SingularPointError(ValueError):
    """The bivector has rank < 2 at the query point (0-dimensional leaf)."""


class NotInImageError(ValueError):
    """The anchor right-hand side is not tangent to the leaf."""


class NonFiniteError(ArithmeticError):
    """A trajectory coordinate left the double-precision range."""


class LeafFrame(Record):
    """Orthonormal oriented tangent frame with anchor covectors at a point."""

    base: Point4
    u: Vector4
    v: Vector4
    alpha: Covector4
    beta: Covector4


class LeafFormResult(Record):
    """Recovered leaf symplectic form at a point, in both normalizations."""

    coefficient: float
    chart: tuple[str, str]
    area_coefficient: float
    pairing_alpha_v: float
    pairing_beta_u: float
    frame: LeafFrame

    @property
    def antisymmetry_defect(self) -> float:
        """|<alpha, v> + <beta, u>|; ~0 when the recovery is consistent."""
        return abs(self.pairing_alpha_v + self.pairing_beta_u)


def _regular_matrix(b: Bivector, p: Point4) -> np.ndarray:
    """B_p, evaluated once; :class:`SingularPointError` where its rank is < 2.

    The rank is that of ``rank_at``, taken on the entries of this matrix.
    """
    _warn_if_k_vanishes(b, p)
    m = bivector_matrix_at(b, p)
    if _rank_of_matrix(m) < 2:
        raise SingularPointError(
            f"bivector is singular at {p}; the leaf through it is a point"
        )
    return m


def solve_anchor(b: Bivector, p: Point4, u) -> Covector4:
    """A least-squares solution alpha of B_p alpha = u with checked residual.

    Any solution is acceptable: the ambiguity lies in span{dC1, dC2}, which
    pairs to zero with tangent vectors.  Raises :class:`NotInImageError` when
    the residual exceeds 1e-9 (relative to ||u|| once ||u|| > 1).
    """
    return _anchor(bivector_matrix_at(b, p), p, u)


def _anchor(m: np.ndarray, p: Point4, u) -> Covector4:
    import numpy as np

    rhs = u.as_array() if isinstance(u, Vector4) else np.asarray(u, dtype=float)
    alpha, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    residual = float(np.linalg.norm(m @ alpha - rhs))
    if residual > ANCHOR_TOLERANCE * max(1.0, float(np.linalg.norm(rhs))):
        raise NotInImageError(
            f"residual {residual:.3e} solving B(alpha) = u at {p}; "
            "u is not in the image of B"
        )
    return Covector4(tuple(float(a) for a in alpha))


def leaf_tangent_frame(b: Bivector, p: Point4) -> LeafFrame:
    """Orthonormal oriented basis of the leaf tangent plane at a regular point.

    The two columns of B_p with the largest Gram determinant are selected and
    orthonormalized; when ``b.casimirs`` records the generating pair the
    orientation is fixed by det(u, v, grad C1, grad C2) > 0.
    """
    return _frame(p, _regular_matrix(b, p), b.casimirs)


def _frame(p: Point4, m: np.ndarray, pair: Optional[CasimirPair]) -> LeafFrame:
    import numpy as np

    # The Gram determinants are fourth powers of the entries and the column
    # norms squares, so both are taken on m scaled by an exact power of two
    # to max|m| in [1/2, 1).  The scale cannot overflow them, and the unit
    # vectors u, v are those of the unscaled columns, bit for bit, wherever
    # the unscaled computation stays finite and the scaled entries and their
    # products do not underflow.
    _, exponent = math.frexp(float(np.max(np.abs(m))))
    scaled = np.ldexp(m, -exponent)
    best, best_gram = None, -1.0
    for i, j in COORD_PAIRS:
        a, c = scaled[:, i], scaled[:, j]
        gram = float(np.dot(a, a) * np.dot(c, c) - np.dot(a, c) ** 2)
        if gram > best_gram:
            best, best_gram = (i, j), gram
    a, c = scaled[:, best[0]], scaled[:, best[1]]
    u = a / np.linalg.norm(a)
    w = c - np.dot(c, u) * u
    v = w / np.linalg.norm(w)

    if pair is not None:
        g = np.array(pair._gradient_closure(*p.values()), dtype=float)
        if np.linalg.det(np.column_stack([u, v, g[:4], g[4:]])) < 0:
            v = -v

    return LeafFrame(
        base=p,
        u=Vector4(tuple(map(float, u))),
        v=Vector4(tuple(map(float, v))),
        alpha=_anchor(m, p, u),
        beta=_anchor(m, p, v),
    )


def _select_chart_pair(m: np.ndarray) -> tuple[int, int]:
    """Last coordinate pair (i, j) on which the leaf projects regularly.

    The leaf is a graph over the (x^i, x^j) plane exactly where B[i, j] != 0;
    among the admissible pairs the lexicographically last one is chosen, which
    picks (y, z) for the coordinate-Casimir charts and (z, t) for the
    wrinkling chart.
    """
    import numpy as np

    scale = float(np.max(np.abs(m)))
    chosen = None
    for i, j in COORD_PAIRS:
        if abs(m[i, j]) > PAIR_SELECTION_RTOL * scale:
            chosen = (i, j)
    if chosen is None:  # cannot happen at rank >= 2
        raise SingularPointError("no nondegenerate coordinate plane found")
    return chosen


def leaf_form_coefficient(b: Bivector, p: Point4) -> LeafFormResult:
    """Recover the leaf symplectic form at a regular point.

    Evaluates B_p once and builds everything from it: the rank check, the
    orthonormal frame, both anchor solves and the chart.  Verifies the
    antisymmetry <alpha, v> = -<beta, u>, and converts the frame value into
    the chart normalization by pairing the tangent lifts of the selected
    coordinate directions.
    """
    import numpy as np

    m = _regular_matrix(b, p)
    frame = _frame(p, m, b.casimirs)
    omega_frame = float(frame.alpha.pair(frame.v))
    cross = float(frame.beta.pair(frame.u))

    i, j = _select_chart_pair(m)
    u = frame.u.as_array()
    v = frame.v.as_array()
    # Tangent lifts of d/dx^i and d/dx^j inside span{u, v}: coefficients of
    # (u, v) such that the (i, j)-projection is the identity.
    proj = np.array([[u[i], v[i]], [u[j], v[j]]])
    lifts = np.linalg.solve(proj, np.eye(2))
    (a1, b1), (a2, b2) = lifts[:, 0], lifts[:, 1]
    # omega(lift_j, lift_i) with omega(u, v) = omega_frame
    coefficient = (a2 * b1 - b2 * a1) * omega_frame

    return LeafFormResult(
        coefficient=float(coefficient),
        chart=(COORD_NAMES[i], COORD_NAMES[j]),
        area_coefficient=omega_frame,
        pairing_alpha_v=omega_frame,
        pairing_beta_u=cross,
        frame=frame,
    )


class Trajectory(Record):
    """A fixed-step integral curve with conservation diagnostics.

    ``columns`` holds the x, y, z and t values of every step, the start
    point's included; ``points`` builds the :class:`Point4` tuple from them
    on first access.
    """

    columns: tuple[tuple[float, ...], ...]
    s: float
    dt: float
    conserved: dict[str, tuple[float, ...]]
    drift: dict[str, float]

    @cached_property
    def points(self) -> tuple[Point4, ...]:
        return tuple(
            Point4(x, y, z, t, self.s) for x, y, z, t in zip(*self.columns)
        )

    def to_csv(self) -> str:
        """CSV export: step,x,y,z,t,C1,C2,H with 17 significant digits."""
        if "C1" not in self.conserved or "C2" not in self.conserved:
            raise ValueError(
                "CSV export needs Casimir diagnostics; integrate with a "
                "bivector that records its Casimir pair"
            )
        row = "%d" + ",%.17g" * 7 + "\n"
        c1, c2, h = (self.conserved[key] for key in ("C1", "C2", "H"))
        return "step,x,y,z,t,C1,C2,H\n" + "".join(
            map(row.__mod__, zip(itertools.count(), *self.columns, c1, c2, h))
        )


def _drift(vals: tuple[float, ...]) -> float:
    """max(abs(v - vals[0]) for v in vals), bit for bit, in one pass per side.

    Rounded subtraction is monotone, so the largest |v - v0| comes from the
    largest or the smallest v.
    """
    v0 = vals[0]
    return max(max(vals) - v0, v0 - min(vals))


def flow(
    b: Bivector,
    h: Expr,
    p0: Point4,
    dt: float,
    steps: int,
) -> Trajectory:
    """Classical fixed-step RK4 integration of the Hamiltonian field of h.

    Records C1, C2 (when ``b.casimirs`` records the pair) and h at every step,
    plus the maximum drift of each from its initial value.  Raises
    :class:`NonFiniteError` if a coordinate leaves double precision.

    The state is four Python floats, each updated as ``x + (dt/2)*k``,
    ``x + dt*k3`` and ``x + (dt/6)*(k1 + 2*(k2 + k3) + k4)``; the exported
    CSV digits depend on this order of operations.  Each RK4 stage is one call
    to a closure returning all four field components, and each step one call
    to a closure returning the tracked quantities.  A float power that
    overflows raises ``OverflowError`` instead of giving inf, so an overflow
    inside a step ends the flow as a non-finite coordinate does, and one in
    the tracked quantities records a row of inf, which ends it after the
    last step as any non-finite tracked value does.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    field = _fused_closure(hamiltonian_field(b, h))
    s = p0.s

    pair = b.casimirs
    tracked = {"H": h} if pair is None else {"C1": pair.c1, "C2": pair.c2, "H": h}
    track = _fused_closure(tracked.values())
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
                f"trajectory left double precision after {n} steps"
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
    drift = {key: _drift(col) for key, col in conserved.items()}
    # A NaN after the first value never wins max(), so every value is checked.
    finite = all(map(isfinite, drift.values())) and all(
        all(map(isfinite, col)) for col in columns
    )
    if not finite:
        raise NonFiniteError(lost)
    return Trajectory(
        columns=tuple(zip(*states)), s=s, dt=dt, conserved=conserved, drift=drift
    )
