"""Catalogue of local fibration models and their Poisson data.

Each entry stores the chart map R^4 -> R^2 as a Casimir pair, the expected
k = 1 component matrix, the closed-form leaf coefficient (where one is
quoted for the model), the chart-normalized closed form that the numeric
pipeline recovers, and the polynomial equations cutting out the critical
locus.  The moves (birth, merging, flipping, wrinkling) depend on a real
parameter s; the catalogue keeps s symbolic unless a value is supplied, so
one symbolic comparison covers the whole family.

:func:`model`, :func:`expected_bivector` and :func:`catalogue_json` read
the catalogue through one parse of each entry.  The two flags of a
:class:`ModelSpec` are read off the Casimir pair, not stored:
``uses_s`` is whether C1 or C2 involves s, and ``coordinate_casimir`` is
C1's name when C1 is one of the coordinates x, y, z, t.

A note on the wrinkling model: its quoted leaf coefficient -1/(2(ty + xz))
belongs to the conformal rescaling of the stored matrix by -1/2.  For the
k = 1 matrix stored here the chart-normalized coefficient is 1/(4(ty + xz));
the two differ by an exact factor of -2, which the test suite pins.  The
other four singular models agree with their quoted forms on the nose.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .expr import COORD_NAMES, Expr, Point4, Record, Scalar, parse
from .poisson import Bivector, CasimirPair, bivector_to_json_dict

__all__ = [
    "MODEL_NAMES",
    "ModelSpec",
    "RationalForm",
    "model",
    "expected_bivector",
    "on_critical_locus",
    "catalogue_json_dict",
    "catalogue_json",
]

LOCUS_TOLERANCE = 1e-9


class RationalForm(Record):
    """A closed-form coefficient numerator/denominator pair of polynomials."""

    numerator: Expr
    denominator: Expr

    def evaluate(self, p: Point4) -> float:
        return self.numerator.evaluate(p) / self.denominator.evaluate(p)

    def substitute_s(self, value: Scalar | float) -> "RationalForm":
        return RationalForm(
            self.numerator.substitute_s(value),
            self.denominator.substitute_s(value),
        )

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


# name -> (c1, c2, expected upper-triangle matrix, quoted leaf form, chart
#          leaf form, critical locus equations)
#
# The five singular charts carry their expected matrices verbatim; the
# Lefschetz and fold entries were computed with this toolkit (and verified
# against numeric determinants) and are frozen here as regression goldens.
_CATALOGUE: dict[str, dict] = {
    "lefschetz": dict(
        c1="x^2 - y^2 + z^2 - t^2",
        c2="2*x*y + 2*z*t",
        matrix={
            (0, 1): "4*z^2 + 4*t^2",
            (0, 2): "-4*x*t + 4*y*z",
            (0, 3): "-4*x*z - 4*y*t",
            (1, 2): "4*x*z + 4*y*t",
            (1, 3): "-4*x*t + 4*y*z",
            (2, 3): "4*x^2 + 4*y^2",
        },
        leaf=None,
        leaf_chart=("-1", "4*x^2 + 4*y^2"),
        locus=["x", "y", "z", "t"],
    ),
    "fold": dict(
        c1="t",
        c2="-x^2 + y^2 + z^2",
        matrix={
            (0, 1): "-2*z",
            (0, 2): "2*y",
            (1, 2): "2*x",
        },
        leaf=None,
        leaf_chart=("-1", "2*x"),
        locus=["x", "y", "z"],
    ),
    "cusp": dict(
        c1="t",
        c2="x^3 - 3*x*t + y^2 - z^2",
        matrix={
            (0, 1): "2*z",
            (0, 2): "2*y",
            (1, 2): "3*t - 3*x^2",
        },
        leaf=("1", "3*x^2 - 3*t"),
        leaf_chart=("1", "3*x^2 - 3*t"),
        locus=["y", "z", "x^2 - t"],
    ),
    "birth": dict(
        c1="t",
        c2="x^3 - 3*x*(t^2 - s) + y^2 - z^2",
        matrix={
            (0, 1): "2*z",
            (0, 2): "2*y",
            (1, 2): "3*(t^2 - s) - 3*x^2",
        },
        leaf=("1", "3*s - 3*t^2 + 3*x^2"),
        leaf_chart=("1", "3*s - 3*t^2 + 3*x^2"),
        locus=["y", "z", "x^2 - t^2 + s"],
    ),
    "merge": dict(
        c1="t",
        c2="x^3 - 3*x*(s - t^2) + y^2 - z^2",
        matrix={
            (0, 1): "2*z",
            (0, 2): "2*y",
            (1, 2): "3*(s - t^2) - 3*x^2",
        },
        leaf=("1", "3*t^2 - 3*s + 3*x^2"),
        leaf_chart=("1", "3*t^2 - 3*s + 3*x^2"),
        locus=["y", "z", "x^2 + t^2 - s"],
    ),
    "flip": dict(
        c1="t",
        c2="x^4 - x^2*s + x*t + y^2 - z^2",
        matrix={
            (0, 1): "2*z",
            (0, 2): "2*y",
            (1, 2): "-(4*x^3 - 2*s*x + t)",
        },
        leaf=("1", "t - 2*s*x + 4*x^3"),
        leaf_chart=("1", "t - 2*s*x + 4*x^3"),
        locus=["y", "z", "4*x^3 - 2*s*x + t"],
    ),
    "wrinkle": dict(
        c1="t^2 - x^2 + y^2 - z^2 + s*t",
        c2="2*t*x + 2*y*z",
        matrix={
            (0, 1): "-2*s*y - 4*t*y - 4*x*z",
            (0, 2): "-4*x*y + 2*s*z + 4*t*z",
            (0, 3): "4*y^2 + 4*z^2",
            (1, 2): "-(2*s*t + 4*t^2 + 4*x^2)",
            (1, 3): "4*x*y - 4*t*z",
            (2, 3): "-4*t*y - 4*x*z",
        },
        # Quoted for the -1/2-rescaled matrix; see the module docstring.
        leaf=("-1", "2*t*y + 2*x*z"),
        leaf_chart=("1", "4*t*y + 4*x*z"),
        locus=["y", "z", "2*x^2 + 2*t^2 + s*t"],
    ),
}

MODEL_NAMES = tuple(_CATALOGUE)

SINGULAR_MODELS = ("cusp", "birth", "merge", "flip", "wrinkle")


class ModelSpec(Record):
    """A fully populated catalogue entry (s substituted when a value is set)."""

    name: str
    uses_s: bool
    s_value: Fraction | None
    casimirs: CasimirPair
    coordinate_casimir: str | None
    expected_bivector: Bivector | None
    leaf_coefficient: RationalForm | None
    leaf_coefficient_chart: RationalForm | None
    critical_locus: tuple[Expr, ...]


@functools.cache
def _parsed(name: str) -> dict:
    """Entry ``name`` parsed once (s symbolic) and shared, with its two flags."""
    try:
        data = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(MODEL_NAMES)
        raise ValueError(f"unknown model {name!r} (known: {known})") from None
    c1, c2 = parse(data["c1"]), parse(data["c2"])

    def form(pair) -> RationalForm | None:
        return None if pair is None else RationalForm(parse(pair[0]), parse(pair[1]))

    return {
        "c1": c1,
        "c2": c2,
        "uses_s": c1.uses_s() or c2.uses_s(),
        "coordinate_casimir": str(c1) if str(c1) in COORD_NAMES else None,
        "matrix": {ij: parse(text) for ij, text in data["matrix"].items()},
        "leaf": form(data["leaf"]),
        "leaf_chart": form(data["leaf_chart"]),
        "locus": tuple(parse(eq) for eq in data["locus"]),
    }


def _maybe_substitute(e, s_value: Fraction | None):
    """``e`` (an Expr, a RationalForm or None) with s bound, if s is given."""
    return e if s_value is None or e is None else e.substitute_s(s_value)


def model(name: str, s_value: Scalar | float | None = None) -> ModelSpec:
    """Look up a model by name, optionally binding the parameter s exactly.

    Models without a parameter reject a supplied s.  For parametric models a
    missing s keeps the parameter symbolic, which is what the linearisation
    diagnostics and the family-wide regression comparisons want; numeric
    routines can instead bind s through :class:`poisson4.expr.Point4`.
    """
    expected = expected_bivector(name, s_value)
    parsed = _parsed(name)
    s = None if s_value is None else Fraction(s_value)
    return ModelSpec(
        name=name,
        uses_s=parsed["uses_s"],
        s_value=s,
        casimirs=expected.casimirs,
        coordinate_casimir=parsed["coordinate_casimir"],
        expected_bivector=expected,
        leaf_coefficient=_maybe_substitute(parsed["leaf"], s),
        leaf_coefficient_chart=_maybe_substitute(parsed["leaf_chart"], s),
        critical_locus=tuple(_maybe_substitute(e, s) for e in parsed["locus"]),
    )


def expected_bivector(name: str, s_value: Scalar | float | None = None) -> Bivector:
    """The catalogue's k = 1 component matrix, transcribed exactly."""
    parsed = _parsed(name)
    if s_value is not None and not parsed["uses_s"]:
        raise ValueError(f"model {name!r} does not take a parameter s")
    s = None if s_value is None else Fraction(s_value)
    entries = {ij: _maybe_substitute(e, s) for ij, e in parsed["matrix"].items()}
    cas = CasimirPair(
        _maybe_substitute(parsed["c1"], s), _maybe_substitute(parsed["c2"], s)
    )
    return Bivector.from_upper(entries, casimirs=cas)


def on_critical_locus(b: Bivector, p: Point4) -> bool:
    """Do all unscaled components of b vanish at p (within 1e-9)?

    The conformal factor is ignored: it scales every entry alike, and the
    critical set is that of the Casimir pair.
    """
    return all(
        abs(e.evaluate(p)) <= LOCUS_TOLERANCE for e in b.upper_entries().values()
    )


def catalogue_json_dict() -> dict:
    """The whole catalogue in a stable, serialisable layout."""
    models = []
    for name in MODEL_NAMES:
        parsed = _parsed(name)
        models.append(
            {
                "name": name,
                "uses_s": parsed["uses_s"],
                "coordinate_casimir": parsed["coordinate_casimir"],
                "c1": str(parsed["c1"]),
                "c2": str(parsed["c2"]),
                "bivector": bivector_to_json_dict(expected_bivector(name)),
                "leaf_coefficient": _form_json(parsed["leaf"]),
                "leaf_coefficient_chart": _form_json(parsed["leaf_chart"]),
                "critical_locus": [str(eq) for eq in parsed["locus"]],
            }
        )
    return {"schema": 1, "models": models}


def _form_json(rf: RationalForm | None) -> dict | None:
    if rf is None:
        return None
    return {"numerator": str(rf.numerator), "denominator": str(rf.denominator)}


def catalogue_json() -> str:
    return json.dumps(catalogue_json_dict(), indent=2)
