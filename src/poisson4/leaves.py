"""Numeric geometry on symplectic leaves: frames, anchors, coefficients.

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

Every function here solves with numpy, so the module imports numpy at the
top; of the commands, only ``leaf-form`` imports this module.  The RK4 flow,
which runs on Python floats, is in ``rk4``.
"""

from __future__ import annotations

import math

# Re-exported because perfbench/spans.py resolves poisson4.leaves.flow and
# poisson4.leaves.Trajectory.to_csv.  Imported before numpy, since a fresh
# process compiles a module more slowly once numpy is loaded.
from .rk4 import NonFiniteError, Trajectory, flow  # noqa: F401

import numpy as np

from .expr import COORD_NAMES, Point4, Record
from .poisson import (
    COORD_PAIRS,
    Bivector,
    CasimirPair,
    Covector4,
    Vector4,
    _rank,
    _warn_if_k_vanishes,
    bivector_matrix_at,
)

__all__ = [
    "SingularPointError",
    "NotInImageError",
    "OpenLeafError",
    "LeafFrame",
    "LeafFormResult",
    "leaf_tangent_frame",
    "solve_anchor",
    "leaf_form_coefficient",
]

ANCHOR_TOLERANCE = 1e-9
PAIR_SELECTION_RTOL = 1e-9


class SingularPointError(ValueError):
    """The bivector has rank < 2 at the query point (0-dimensional leaf)."""


class OpenLeafError(ValueError):
    """The bivector has rank 4 at the query point (the leaf is open in R^4)."""


class NotInImageError(ValueError):
    """The anchor right-hand side is not tangent to the leaf."""


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
    """B_p, evaluated once, where its rank is exactly 2.

    The rank is that of ``rank_at``, taken on the entries of this matrix.
    Raises :class:`SingularPointError` at rank 0 and :class:`OpenLeafError`
    at rank 4, where the leaf is not a surface.
    """
    _warn_if_k_vanishes(b, p)
    m = bivector_matrix_at(b, p)
    rank = _rank([float(m[i, j]) for i, j in COORD_PAIRS])
    if rank < 2:
        raise SingularPointError(
            f"bivector is singular at {p}; the leaf through it is a point"
        )
    if rank > 2:
        raise OpenLeafError(
            f"bivector has rank 4 at {p}; the leaf through it is open"
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
    orientation is fixed by det(u, v, grad C1, grad C2) > 0.  Raises
    :class:`SingularPointError` at rank 0 and :class:`OpenLeafError` at rank 4.
    """
    return _frame(p, _regular_matrix(b, p), b.casimirs)


def _frame(p: Point4, m: np.ndarray, pair: CasimirPair | None) -> LeafFrame:
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
    scale = float(np.max(np.abs(m)))
    # m is nonzero, so its largest entry passes and the list is not empty.
    return [ij for ij in COORD_PAIRS if abs(m[ij]) > PAIR_SELECTION_RTOL * scale][-1]


def leaf_form_coefficient(b: Bivector, p: Point4) -> LeafFormResult:
    """Recover the leaf symplectic form at a regular point.

    Evaluates B_p once and builds everything from it: the rank check, the
    orthonormal frame, both anchor solves and the chart.  Verifies the
    antisymmetry <alpha, v> = -<beta, u>, and converts the frame value into
    the chart normalization by pairing the tangent lifts of the selected
    coordinate directions.  Raises :class:`SingularPointError` at rank 0 and
    :class:`OpenLeafError` at rank 4.
    """
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
