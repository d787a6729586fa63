"""The Hamiltonian RK4 flow on Python floats, with no numpy.

The flow runs in one kernel generated from the source texts of the field and
the tracked quantities and compiled once per bivector value and Hamiltonian.
A coordinate whose field component is the zero polynomial (t on the
catalogue charts, where C1 = t; x when h = x) is held, not stepped, and the
part of a tracked quantity that reads only held coordinates is computed before
the loop (see :func:`flow`).
A :class:`Trajectory` keeps its coordinates as four float columns;
``Trajectory.points``, one :class:`Point4` per step, is built from them on
first access.  ``Trajectory.to_csv`` formats a constant nonzero column once:
on the catalogue charts C1 = t, so the t and C1 columns of a flow are exactly
constant, and so are x and H when h = x.  It formats each distinct value of a
conserved column that must repeat values, as C2 does when h = x, once.

The leaf-form solves, which need numpy, are in ``leaves``; this module
imports neither, so a ``flow`` command compiles only the flow.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from itertools import chain

from .expr import COORD_NAMES, Expr, Point4, Record, _python_source
from .poisson import Bivector, hamiltonian_field

__all__ = ["NonFiniteError", "Trajectory", "flow"]

# Distinct (bivector, h) whose flow kernels are kept: more than the 17
# (model, s, h) combinations that flow to t = 1 from the usual start.
_FLOW_MEMO_SIZE = 64


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
        step: int | None = None,
        last_point: Point4 | None = None,
    ):
        super().__init__(message)
        self.step = step
        self.last_point = last_point


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


# An integer coefficient below 10^308 at the head of a term whose next factor
# is x, y, z or t, and a power of one name (x, y, z, t, s, or a stage's x2,
# th, ...).
_COEFFICIENT = re.compile(r"(?<![^ -])\d{1,308}(?=\*[xyzt]\b)")
_POWER = re.compile(r"\b\w+\*\*\d+\b")


def _floated(src: str) -> str:
    """``src`` with each integer coefficient of a coordinate written as a float.

    ``n*x`` converts n to the correctly rounded double, as the literal
    ``n.0`` does, so the product is the same float; a float literal only
    spares the int conversion.  A rational is one folded constant already.
    A coefficient of s alone stays an int, as does one of 309 digits or
    more, which may be beyond the float range and must raise in the loop.
    """
    return _COEFFICIENT.sub(r"\g<0>.0", src)


def _shared_powers(lines: list[str]) -> list[str]:
    """``lines`` after a local for each power they take more than once.

    ``x2**2`` becomes ``x2_2``, assigned before the first line: ``**`` binds
    tighter than ``*`` and unary ``-``, so each occurrence is a whole operand.
    """
    text = "\n".join(lines)
    found = _POWER.findall(text)
    shared = {p: p.replace("**", "_") for p in found if found.count(p) > 1}
    if not shared:
        return lines
    heads = [f"{name} = {power}" for power, name in shared.items()]
    return heads + _POWER.sub(lambda m: shared.get(m[0], m[0]), text).split("\n")


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

    * a held coordinate c is checked once, and stage 1 of step 1 reads c,
      every later stage ``ch``, its value from step 1 on;
    * a tracked quantity's leading run of terms free of the moved
      coordinates (see :func:`_hoisted`) is computed once, from the held
      values;
    * a tracked quantity free of the moved coordinates is a constant column.

    An overflow in a hoisted run, or in a ``qh``, makes all of them inf, so
    every row that reads them is not finite, as the row of inf it gave in the
    loop.

    Two rewrites of the source texts spare work per step and keep every
    float, and every escape, as the texts give them:

    * an integer coefficient of a coordinate is a float literal, ``2.0*y``
      for ``2*y`` (see :func:`_floated`): CPython multiplies two floats on a
      fast path, and an int by a float only after converting the int, with
      the rounding of the literal;
    * a power taken more than once within one stage, or within the tracked
      block, is taken once into a local at its head, inside the stage's
      ``try`` (see :func:`_shared_powers`), so an overflow raises in the
      same ``try`` as before.

    A power is never written as a product: ``x*x`` differs from ``x**2`` in
    the last bit for about 2,600 of 3,000,000 random doubles (glibc 2.36).

    The key is the bivector's values, not the object: a :class:`Bivector` is
    unhashable, and its attributes can be reassigned.
    """
    b = Bivector(components, conformal=k, casimirs=pair)
    field = dict(zip(COORD_NAMES, map(_floated, map(_python_source, hamiltonian_field(b, h)))))
    moved = [c for c in COORD_NAMES if field[c] != "0.0"]
    held = [c for c in COORD_NAMES if c not in moved]
    moving = set(moved)
    tracked = {"H": h} if pair is None else {"C1": pair.c1, "C2": pair.c2, "H": h}
    # A value free of x, y, z, t may be an int; the columns hold floats.
    sources = {
        f"q{i}": src if _COORD.search(src) else f"float({src})"
        for i, src in enumerate(map(_floated, map(_python_source, tracked.values())))
    }
    varying = [q for q, src in sources.items() if not moving.isdisjoint(_COORD.findall(src))]
    hoisted: dict[str, str] = {}
    tracks = {q: _hoisted(sources[q], moving, hoisted) for q in varying}
    at_held = {c: c + "h" for c in held}

    body = ["half, sixth = 0.5 * dt, dt / 6.0"]
    for c in held:  # c + dt*0.0 is finite exactly when c is
        body += [f"if not isfinite({c}): raise escape(1, x, y, z, t, s)"]
        body += [f"{c}h = {c} + dt * 0.0", f"{c.upper()} = ({c},) + ({c}h,) * steps"]
    body += [f"{c.upper()} = [{c}]" for c in moved]
    once = {v: text for text, v in hoisted.items()}
    once.update((q + "h", src) for q, src in sources.items() if q not in varying)
    lines = [f"{target} = {_renamed(text, at_held)}" for target, text in once.items()]
    body += _block(lines, f"{' = '.join(once)} = inf") if once else []
    body += _block([f"{q} = {src}" for q, src in sources.items()], f"{' = '.join(sources)} = inf")
    body += [f"{q.upper()} = [{q}]" if q in varying else f"{q.upper()} = ({q},) + ({q}h,) * steps"
             for q in sources]

    # Stage n reads the names in names: stage 1 the step's own, and after it
    # a moved c as c<n> and a held c as ch.
    step, names = [], {}
    for n, weight in enumerate(("half", "half", "dt", None), 1):
        step += _shared_powers([f"k{n}{c} = {_renamed(field[c], names)}" for c in moved])
        step += [f"{c}{n + 1} = {c} + {weight} * k{n}{c}" for c in moved if weight]
        names = {**at_held, **{c: f"{c}{n + 1}" for c in moved}}
    loop = _block(step, "raise escape(n, x, y, z, t, s) from None")
    loop += [f"{c}1 = {c} + sixth * (k1{c} + 2.0 * (k2{c} + k3{c}) + k4{c})" for c in moved]
    loop += [f"if not ({' and '.join(f'isfinite({c}1)' for c in moved)}):"]
    loop += ["    raise escape(n, x, y, z, t, s)"]
    loop += [f"{c} = {c}1; {c.upper()}.append({c})" for c in moved]
    loop += [f"{c} = {c}h" for c in held]
    if varying:
        loop += _block(_shared_powers([f"{q} = {tracks[q]}" for q in varying]),
                       f"{' = '.join(varying)} = inf")
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

    What a tracked quantity reads only of held coordinates and s is computed
    once, before the loop: the leading run of such terms, by the same
    operations of the source text on the same values (x0 + dt*0.0, which
    every row after the first reads), so every float is as before.  A
    tracked quantity that reads only held coordinates is a constant column,
    whose drift and finiteness come from its first two values.  The field
    components are computed whole in every stage.

    Within a stage, a power that several terms take is computed once, and
    an integer coefficient of a coordinate is written as a float: ``n*x``
    converts n to the correctly rounded double, as the literal ``n.0`` does,
    so both are the same operation on the same operands.  A rational
    coefficient is already one folded float, and one of 309 digits or more
    stays an int: if no float holds it, its product raises ``OverflowError``
    as before.  A power stays a power, not a product, which differs in the
    last bit for some doubles.

    A float power that overflows raises ``OverflowError`` instead of giving
    inf, and so does an int coefficient that no float holds, so an overflow
    inside a step ends the flow as a non-finite coordinate does.  One in the
    tracked quantities, in the loop or before it, records a row of inf, which
    ends the flow after the last step unless a coordinate escapes first.
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
