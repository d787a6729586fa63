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
RK4 flow runs on Python floats, in one kernel generated from the source texts
of the field and the tracked quantities and compiled once per bivector value
and Hamiltonian.  A coordinate whose field component is the zero polynomial
(t on the catalogue charts, where C1 = t; x when h = x) is held, not stepped,
and what reads only held coordinates is computed before the loop (see
:func:`flow`).  A :class:`Trajectory` keeps its
coordinates as four float columns; ``Trajectory.points``, one :class:`Point4`
per step, is built from them on first access.  ``Trajectory.to_csv`` formats
a constant nonzero column once: on the catalogue charts C1 = t, so the t and
C1 columns of a flow are exactly constant, and so are x and H when h = x.  It
formats each distinct value of a conserved column that must repeat values,
as C2 does when h = x, once.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional

from .expr import COORD_NAMES, Expr, Point4, Record, _python_source
from .poisson import (
    COORD_PAIRS,
    Bivector,
    CasimirPair,
    Covector4,
    Vector4,
    _rank,
    _warn_if_k_vanishes,
    bivector_matrix_at,
    hamiltonian_field,
)

__all__ = [
    "SingularPointError",
    "NotInImageError",
    "OpenLeafError",
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
# Distinct (bivector, h) whose flow kernels are kept: more than the 17
# (model, s, h) combinations that flow to t = 1 from the usual start.
_FLOW_MEMO_SIZE = 64


class SingularPointError(ValueError):
    """The bivector has rank < 2 at the query point (0-dimensional leaf)."""


class OpenLeafError(ValueError):
    """The bivector has rank 4 at the query point (the leaf is open in R^4)."""


class NotInImageError(ValueError):
    """The anchor right-hand side is not tangent to the leaf."""


class NonFiniteError(ArithmeticError):
    """A trajectory coordinate left the double-precision range.

    ``step`` is the step n of the message "trajectory left double precision
    after n steps" and ``last_point`` the last finite state, as a
    :class:`Point4`; both are None when the coordinates stayed finite and a
    tracked quantity did not.
    """

    def __init__(
        self,
        message: str,
        step: Optional[int] = None,
        last_point: Optional[Point4] = None,
    ):
        super().__init__(message)
        self.step = step
        self.last_point = last_point


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
    orientation is fixed by det(u, v, grad C1, grad C2) > 0.  Raises
    :class:`SingularPointError` at rank 0 and :class:`OpenLeafError` at rank 4.
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
        """CSV export: step,x,y,z,t,C1,C2,H with 17 significant digits.

        A column whose values all equal its nonzero first value is formatted
        once, into the row template.  A conserved column whose drift spans
        fewer doubles around its first value than it has values repeats some,
        and each of its distinct values is formatted once, unless one is zero
        (0.0 == -0.0, but the two print differently); the drift only chooses
        the way, and both give the same text.  Any other column is formatted
        per row.
        """
        if "C1" not in self.conserved or "C2" not in self.conserved:
            raise ValueError(
                "CSV export needs Casimir diagnostics; integrate with a "
                "bivector that records its Casimir pair"
            )
        keys = ("C1", "C2", "H")
        columns = (*self.columns, *(self.conserved[key] for key in keys))
        drifts = (math.inf,) * 4 + tuple(self.drift.get(key, math.inf) for key in keys)
        rows = min(map(len, columns))
        fields, varying = ["%d"], []
        for col, drift in zip(columns, drifts):
            first = col[0] if rows else 0
            if first != 0 and col[-1] == first and col.count(first) == len(col):
                fields.append("%.17g" % first)
                continue
            if abs(first) > drift and 2 * drift < (len(col) - 1) * math.ulp(abs(first) - drift):
                distinct = set(col)
                if 0 not in distinct:
                    text = {v: "%.17g" % v for v in distinct}
                    fields.append("%s")
                    varying.append(map(text.__getitem__, col))
                    continue
            fields.append("%.17g")
            varying.append(col)
        row = ",".join(fields) + "\n"
        return "step,x,y,z,t,C1,C2,H\n" + (row * rows) % tuple(
            chain.from_iterable(zip(range(rows), *varying))
        )


def _drift(vals: tuple[float, ...]) -> float:
    """max(abs(v - vals[0]) for v in vals), bit for bit, in one pass per side.

    Rounded subtraction is monotone, so the largest |v - v0| comes from the
    largest or the smallest v.
    """
    v0 = vals[0]
    return max(max(vals) - v0, v0 - min(vals))


# A coordinate name standing alone in a source text of ``expr``.
_COORD = re.compile(r"\b[xyzt]\b")


def _escape(n: int, *point: float) -> NonFiniteError:
    message = f"trajectory left double precision after {n} steps"
    return NonFiniteError(message, step=n, last_point=Point4(*point))


def _hoisted(src: str, moved: set[str], hoisted: dict[str, str]) -> str:
    """``src`` with its leading run of terms free of the moved coordinates named.

    Terms sum left to right, so the run is the left operand of the rest, and
    its name stands for a whole operand of ``src``.  A run of one character
    or free of variables stays.  ``hoisted`` maps each named text to its name
    ``v<i>`` and gains the new one.
    """
    parts = src.split(" ")  # term, sign, term, ...: no term holds a space
    free = [moved.isdisjoint(_COORD.findall(term)) for term in parts[::2]]
    run = 2 * (free.index(False) if False in free else len(free)) - 1
    head = " ".join(parts[:max(run, 0)])
    if len(head) < 2 or set(head).isdisjoint("xyzts"):
        return src
    return " ".join([hoisted.setdefault(head, f"v{len(hoisted)}")] + parts[run:])


def _renamed(text: str, names: dict[str, str]) -> str:
    return _COORD.sub(lambda m: names[m[0]], text) if names else text


def _block(lines: list[str], on_overflow: str) -> list[str]:
    return ["try:"] + ["    " + line for line in lines] + ["except OverflowError:", "    " + on_overflow]


@lru_cache(maxsize=_FLOW_MEMO_SIZE)
def _flow_kernel(components, k, pair, h):
    """``(kernel, tracked keys)`` for the flow of h on this bivector.

    ``kernel(x, y, z, t, s, dt, steps)`` runs the RK4 loop of :func:`flow`
    and returns the coordinate columns, the columns of C1, C2 (when ``pair``
    is given) and h, and per tracked column the values it takes, first value
    first: ``(q0, qh)`` for a constant column ``(q0,) + (qh,) * steps``, else
    the column.  It is generated as source and compiled once.  Its loop does
    only what changes per step:

    * a hoisted value (see :func:`_hoisted`) of the field is computed before
      the loop as ``v``, from the start, and as ``vh``, from the held values,
      and ``v = vh`` follows stage 1: as with a held c, only stage 1 of step
      1 reads the start's value.  A hoisted value of the tracked quantities
      alone is computed once, from the held values;
    * a tracked quantity free of the moved coordinates is a constant column.

    An overflow in a hoisted value of the field ends the flow as in step 1.
    One in another hoisted value, or in a ``qh``, makes them inf, so every
    row that reads them is not finite, as the row of inf it gave in the loop.
    The key is the bivector's values, not the object: a :class:`Bivector` is
    unhashable, and its attributes can be reassigned.
    """
    b = Bivector(components, conformal=k, casimirs=pair)
    field = dict(zip(COORD_NAMES, map(_python_source, hamiltonian_field(b, h))))
    moved = [c for c in COORD_NAMES if field[c] != "0.0"]
    held = [c for c in COORD_NAMES if c not in moved]
    moving = set(moved)
    tracked = {"H": h} if pair is None else {"C1": pair.c1, "C2": pair.c2, "H": h}
    # A value free of x, y, z, t may be an int; the columns hold floats.
    sources = {
        f"q{i}": src if _COORD.search(src) else f"float({src})"
        for i, src in enumerate(map(_python_source, tracked.values()))
    }
    varying = [q for q, src in sources.items() if not moving.isdisjoint(_COORD.findall(src))]
    hoisted: dict[str, str] = {}
    fields = {c: _hoisted(field[c], moving, hoisted) for c in moved}
    stepped = list(hoisted.values())  # the field's hoisted values
    tracks = {q: _hoisted(sources[q], moving, hoisted) for q in varying}
    at_held = {c: c + "h" for c in held}

    body = ["half, sixth = 0.5 * dt, dt / 6.0"]
    for c in held:  # c + dt*0.0 is finite exactly when c is
        body += [f"if not isfinite({c}): raise escape(1, x, y, z, t, s)"]
        body += [f"{c}h = {c} + dt * 0.0", f"{c.upper()} = ({c},) + ({c}h,) * steps"]
    body += [f"{c.upper()} = [{c}]" for c in moved]
    lines = [line for text, v in hoisted.items() if v in stepped
             for line in (f"{v} = {text}", f"{v}h = {_renamed(text, at_held)}")]
    body += _block(lines, "raise escape(1, x, y, z, t, s) from None") if lines else []
    late = {v: text for text, v in hoisted.items() if v not in stepped}
    late.update((q + "h", src) for q, src in sources.items() if q not in varying)
    lines = [f"{target} = {_renamed(text, at_held)}" for target, text in late.items()]
    body += _block(lines, f"{' = '.join(late)} = inf") if late else []
    body += _block([f"{q} = {src}" for q, src in sources.items()], f"{' = '.join(sources)} = inf")
    body += [f"{q.upper()} = [{q}]" if q in varying else f"{q.upper()} = ({q},) + ({q}h,) * steps"
             for q in sources]

    # Stage n reads the names in names: stage 1 the step's own, and after it
    # a moved c as c<n> and a held c as ch.  A hoisted v is the start's in
    # stage 1 of step 1 and the held values' after it.
    step, names = [], {}
    for n, weight in enumerate(("half", "half", "dt", None), 1):
        step += [f"k{n}{c} = {_renamed(fields[c], names)}" for c in moved]
        step += [f"{c}{n + 1} = {c} + {weight} * k{n}{c}" for c in moved if weight]
        step += [f"{v} = {v}h" for v in stepped if n == 1]
        names = {**at_held, **{c: f"{c}{n + 1}" for c in moved}}
    loop = _block(step, "raise escape(n, x, y, z, t, s) from None")
    loop += [f"{c}1 = {c} + sixth * (k1{c} + 2.0 * (k2{c} + k3{c}) + k4{c})" for c in moved]
    loop += [f"if not ({' and '.join(f'isfinite({c}1)' for c in moved)}):"]
    loop += ["    raise escape(n, x, y, z, t, s)"]
    loop += [f"{c} = {c}1; {c.upper()}.append({c})" for c in moved]
    loop += [f"{c} = {c}h" for c in held]
    if varying:
        loop += _block([f"{q} = {tracks[q]}" for q in varying], f"{' = '.join(varying)} = inf")
        loop += [f"{q.upper()}.append({q})" for q in varying]
    if moved:
        body += ["for n in range(1, steps + 1):"] + ["    " + line for line in loop]
    body += [f"{q.upper()} = tuple({q.upper()})" for q in varying]
    columns = [c.upper() if c in held else f"tuple({c.upper()})" for c in COORD_NAMES]
    values = [q.upper() for q in sources]
    taken = [q.upper() if q in varying else f"({q}, {q}h)" for q in sources]
    body += [f"return ({', '.join(columns)}), ({', '.join(values)},), ({', '.join(taken)},)"]
    namespace = {"isfinite": math.isfinite, "inf": math.inf, "escape": _escape}
    exec("def kernel(x, y, z, t, s, dt, steps):\n    " + "\n    ".join(body), namespace)
    return namespace["kernel"], tuple(tracked)


def flow(b: Bivector, h: Expr, p0: Point4, dt: float, steps: int) -> Trajectory:
    """Classical fixed-step RK4 integration of the Hamiltonian field of h.

    Records C1, C2 (when ``b.casimirs`` records the pair) and h at every step,
    plus the maximum drift of each from its initial value.  Raises
    :class:`NonFiniteError` if a coordinate leaves double precision; it
    carries the step and the last finite point.

    The state is four Python floats, each updated as ``x + (dt/2)*k``,
    ``x + dt*k3`` and ``x + (dt/6)*(k1 + 2*(k2 + k3) + k4)``; the exported
    CSV digits depend on this order of operations.  The loop is one generated
    kernel, kept per value of (components, k, Casimir pair, h), so a second
    flow of the same structure and Hamiltonian compiles nothing.  A
    coordinate whose field component is the zero polynomial is held: checked
    for finiteness once, it is ``x0 + dt*0.0`` from step 1 on.  That is
    exact: the zero polynomial's source is ``0.0``, and dt/2, dt and dt/6 are
    finite with the sign of dt, so every stage argument and update of the
    coordinate adds the same signed zero dt*0.0 (which changes x0 only when
    x0 is -0.0 and dt is not): stage 1 of step 1 reads x0, and every later
    stage x0 + dt*0.0.

    What reads only held coordinates and s is computed once, before the
    loop: the leading run of such terms of a field component or tracked
    quantity.  Each run is computed by the same operations of the source
    text on the same values (from x0 for stage 1 of step 1, from x0 + dt*0.0
    elsewhere), so every float is as before.  A tracked quantity that reads
    only held coordinates is a constant column, whose drift and finiteness
    come from its first two values.

    A float power that overflows raises ``OverflowError`` instead of giving
    inf, so an overflow inside a step, or in a field value computed before
    the loop, ends the flow as a non-finite coordinate does (the latter at
    step 1).  One in the tracked quantities records a row of inf, which ends
    the flow after the last step unless a coordinate escapes first.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    key = tuple(map(tuple, b.components)), b.conformal, b.casimirs, h
    kernel, tracked = _flow_kernel(*key)
    columns, values, taken = kernel(*map(float, p0.coords()), p0.s, dt, steps)
    drift = dict(zip(tracked, map(_drift, taken)))
    # A NaN after the first value never wins max(), so every value is checked.
    if not all(map(math.isfinite, chain(drift.values(), *taken))):
        raise NonFiniteError("conserved quantities left double precision")
    conserved = dict(zip(tracked, values))
    return Trajectory(columns=columns, s=p0.s, dt=dt, conserved=conserved, drift=drift)
