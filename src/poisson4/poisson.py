"""Bivector construction from Casimir pairs and symbolic Poisson checks.

The central operation builds the antisymmetric component matrix

    pi[i][j] = det(e_i, e_j, dC1, dC2)

as an exact polynomial determinant (columns in that order), so that both
Casimirs are annihilated identically.  Because the resulting bivector is
decomposable its rank is at most 2 everywhere, and any conformal rescaling
by a non-vanishing function k stays Poisson.  The Jacobiator of k*pi is
still computed, never assumed, from the identity

    J(k*pi)^{ijk} = k^2 * J(pi)^{ijk} +/- k * Pf(pi) * d_l k,

where l is the index missing from ijk and
Pf(pi) = pi01*pi23 - pi02*pi13 + pi03*pi12.  It holds for every 4x4
bivector; for a decomposable one (every Casimir-pair bivector) Pf = 0,
pi ^ pi = 0 and J(k*pi) = k^2 * J(pi) (Vaisman, *Lectures on the Geometry of
Poisson Manifolds*, 1994).  So only the unscaled Jacobiator is expanded.

numpy is imported only inside the numeric functions (see ``expr``); the sign
probe of k runs on Python floats.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .expr import COORD_NAMES, VARS, Expr, Point4, parse

__all__ = [
    "CasimirPair",
    "Bivector",
    "Covector4",
    "Vector4",
    "PoissonVerdict",
    "StructureConstants",
    "ConformalFactorWarning",
    "DroppedConstantWarning",
    "gradient",
    "flaschka_ratiu",
    "jacobiator",
    "is_poisson",
    "casimir_check",
    "rank_at",
    "hamiltonian_field",
    "linear_part",
    "bivector_to_json_dict",
    "bivector_to_json",
    "bivector_matrix_at",
]

# Index triples i < j < k over four coordinates.
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# Per triple ijk: the missing index l, and the sign s with
# pi^{il} pi^{jk} + pi^{jl} pi^{ki} + pi^{kl} pi^{ij} = s * Pf(pi).
_PFAFFIAN_SIGNS = {
    (0, 1, 2): (3, 1),
    (0, 1, 3): (2, -1),
    (0, 2, 3): (1, 1),
    (1, 2, 3): (0, -1),
}

RANK_RELATIVE_THRESHOLD = 1e-9

# The probe grid's axis, bit-equal to numpy.linspace(-2, 2, 10).
_PROBE_AXIS = tuple(i * (4.0 / 9) - 2.0 for i in range(9)) + (2.0,)
# Distinct factors k whose probe verdict is remembered.  The probe takes
# about 5 ms of pure Python; a caller that reuses one k pays it once.
_PROBE_MEMO_SIZE = 64


class ConformalFactorWarning(UserWarning):
    """A supplied conformal factor appears to vanish somewhere."""


class DroppedConstantWarning(UserWarning):
    """Linear-part extraction discarded a nonzero constant term."""


@dataclass(frozen=True)
class Covector4:
    """Four covariant entries (Expr for symbolic use, floats for numeric)."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def pair(self, vec: "Vector4"):
        """Componentwise contraction <covector, vector>."""
        return sum(a * b for a, b in zip(self.entries, vec.entries))

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([float(v) for v in self.entries])


@dataclass(frozen=True)
class Vector4:
    """Four contravariant entries (Expr or floats)."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([float(v) for v in self.entries])


@dataclass(frozen=True)
class CasimirPair:
    """Two functions R^4 -> R defining a fibration chart (C1, C2)."""

    c1: Expr
    c2: Expr


class Bivector:
    """Antisymmetric 4x4 matrix of polynomials plus an optional factor k.

    ``components[i][j]`` is the bracket {x^i, x^j} of the unscaled structure;
    ``conformal`` is the multiplicative factor k (``None`` means "symbolic k",
    treated as 1 numerically).  ``casimirs`` records the generating pair when
    the bivector came out of :func:`flaschka_ratiu`.
    """

    __slots__ = ("components", "conformal", "casimirs")

    def __init__(
        self,
        components: Sequence[Sequence[Expr]],
        conformal: Optional[Expr] = None,
        casimirs: Optional[CasimirPair] = None,
    ):
        rows = tuple(tuple(row) for row in components)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("components must be a 4x4 matrix of Expr")
        for i in range(4):
            if not rows[i][i].is_zero:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, 4):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(f"antisymmetry violated at ({i},{j})")
        self.components = rows
        self.conformal = conformal
        self.casimirs = casimirs

    @staticmethod
    def from_upper(entries: dict[tuple[int, int], Expr], **kwargs) -> "Bivector":
        """Build from the entries above the diagonal; the rest is filled in."""
        rows = [[Expr.zero() for _ in range(4)] for _ in range(4)]
        for (i, j), e in entries.items():
            if not 0 <= i < j < 4:
                raise ValueError(f"expected upper-triangular index, got {(i, j)}")
            rows[i][j] = e
            rows[j][i] = -e
        return Bivector(rows, **kwargs)

    def scaled_components(self) -> tuple[tuple[Expr, ...], ...]:
        """Components with the conformal factor folded in (absent k -> 1)."""
        if self.conformal is None:
            return self.components
        k = self.conformal
        return tuple(tuple(k * e for e in row) for row in self.components)

    def upper_entries(self) -> dict[tuple[int, int], Expr]:
        return {
            (i, j): self.components[i][j]
            for i in range(4)
            for j in range(i + 1, 4)
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bivector):
            return NotImplemented
        return (
            self.components == other.components
            and self.conformal == other.conformal
        )

    def __repr__(self) -> str:
        nonzero = {
            f"{COORD_NAMES[i]}{COORD_NAMES[j]}": str(e)
            for (i, j), e in self.upper_entries().items()
            if not e.is_zero
        }
        return f"Bivector({nonzero}, k={self.conformal})"


def gradient(c: Expr) -> Covector4:
    """Differential of c with respect to the ordered coordinates (x, y, z, t)."""
    return Covector4(tuple(c.differentiate(v) for v in VARS))


def _det2(m) -> Expr:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m) -> Expr:
    out = Expr.zero()
    sign = 1
    for col in range(3):
        minor = [
            [m[r][c] for c in range(3) if c != col] for r in (1, 2)
        ]
        out = out + sign * m[0][col] * _det2(minor)
        sign = -sign
    return out


def det4(columns: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant of a 4x4 matrix given by its four columns of Expr."""
    m = [[columns[c][r] for c in range(4)] for r in range(4)]
    out = Expr.zero()
    sign = 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in (1, 2, 3)]
        out = out + sign * m[0][col] * _det3(minor)
        sign = -sign
    return out


def _basis_column(i: int) -> tuple[Expr, ...]:
    return tuple(Expr.one() if r == i else Expr.zero() for r in range(4))


@functools.lru_cache(maxsize=_PROBE_MEMO_SIZE)
def _k_vanishes_on_probe(k: Expr) -> bool:
    """True iff k looks like it vanishes on the 10^4-point grid of [-2, 2]^4.

    k is evaluated at s = 0 on every point of ``_PROBE_AXIS``^4.  It vanishes
    there if it takes both signs, if min|k| < 1e-9 * max(1, max|k|), or if a
    value overflows or is not finite.
    """
    f = k.compiled()
    axis = _PROBE_AXIS
    try:
        values = [
            f(x, y, z, t, 0.0)
            for x in axis for y in axis for z in axis for t in axis
        ]
        # A constant k gives an int, which may exceed the float range.
        if not all(map(math.isfinite, values)):
            return True
    except OverflowError:
        return True
    lo, hi = min(values), max(values)
    return lo < 0.0 < hi or min(map(abs, values)) < 1e-9 * max(1.0, -lo, hi)


def flaschka_ratiu(
    cas: CasimirPair, k: Optional[Expr] = None
) -> Bivector:
    """Bivector with prescribed Casimirs C1, C2 and conformal factor k.

    Rejects an exactly-zero k.  A supplied k is additionally probed on a
    deterministic 10^4-point grid in [-2, 2]^4 (s = 0, Python floats); a sign
    change, a near-zero value or a value that overflows there only raises
    :class:`ConformalFactorWarning`, since non-vanishing on the whole chart
    is the caller's responsibility.  The verdict is remembered per k; the
    warning is raised on every call.
    """
    if k is not None:
        if k.is_zero:
            raise ValueError("conformal factor k must not be the zero polynomial")
        if _k_vanishes_on_probe(k):
            warnings.warn(
                "conformal factor vanishes somewhere on [-2, 2]^4 (detected on "
                "a 10^4-point sample grid); the scaled bracket degenerates there",
                ConformalFactorWarning,
                stacklevel=2,
            )
    dc1 = gradient(cas.c1)
    dc2 = gradient(cas.c2)
    grad_cols = (tuple(dc1.entries), tuple(dc2.entries))
    entries: dict[tuple[int, int], Expr] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            entries[(i, j)] = det4(
                (_basis_column(i), _basis_column(j)) + grad_cols
            )
    return Bivector.from_upper(entries, conformal=k, casimirs=cas)


def jacobiator(b: Bivector) -> dict[tuple[int, int, int], Expr]:
    """The four obstruction polynomials J^{ijk} of the k-scaled bivector.

    J^{ijk} = sum_l ( pi^{il} d_l pi^{jk} + pi^{jl} d_l pi^{ki}
                      + pi^{kl} d_l pi^{ij} );
    the bivector is Poisson iff all four vanish identically.  With a factor
    k, the product rule turns the sums over k*pi into
    k^2 * J(pi)^{ijk} + s * k * Pf(pi) * d_l k, with l and s from
    ``_PFAFFIAN_SIGNS``; the second term is zero for every
    :func:`flaschka_ratiu` output.
    """
    m = b.components
    partials = [
        [tuple(m[i][j].differentiate(v) for v in VARS) for j in range(4)]
        for i in range(4)
    ]
    out: dict[tuple[int, int, int], Expr] = {}
    for (i, j, k) in TRIPLES:
        total = Expr.zero()
        for l in range(4):
            total = (
                total
                + m[i][l] * partials[j][k][l]
                + m[j][l] * partials[k][i][l]
                + m[k][l] * partials[i][j][l]
            )
        out[(i, j, k)] = total
    factor = b.conformal
    if factor is None:
        return out
    k2 = factor * factor
    k_pfaffian = factor * (
        m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
    )
    for triple, (l, sign) in _PFAFFIAN_SIGNS.items():
        dk = factor.differentiate(VARS[l])
        out[triple] = k2 * out[triple] + sign * k_pfaffian * dk
    return out


@dataclass(frozen=True)
class PoissonVerdict:
    """Outcome of the Jacobi-identity check, with a witness on failure."""

    holds: bool
    witness_triple: Optional[tuple[str, str, str]] = None
    witness: Optional[Expr] = None

    def __bool__(self) -> bool:
        return self.holds


def is_poisson(b: Bivector) -> PoissonVerdict:
    """True iff every Jacobiator component is exactly the zero polynomial."""
    for (i, j, k), poly in jacobiator(b).items():
        if not poly.is_zero:
            names = (COORD_NAMES[i], COORD_NAMES[j], COORD_NAMES[k])
            return PoissonVerdict(False, names, poly)
    return PoissonVerdict(True)


def casimir_check(b: Bivector, c: Expr) -> bool:
    """True iff components . grad(c) is exactly the zero 4-tuple.

    Runs on the unscaled components: k never changes the answer because the
    factor multiplies every entry of the product.
    """
    dc = gradient(c)
    for i in range(4):
        total = Expr.zero()
        for j in range(4):
            total = total + b.components[i][j] * dc[j]
        if not total.is_zero:
            return False
    return True


def bivector_matrix_at(b: Bivector, p: Point4) -> np.ndarray:
    """Evaluate the scaled component matrix at a point (absent k -> 1).

    An entry that is not finite raises ``OverflowError``.
    """
    import numpy as np

    m = np.empty((4, 4))
    scale = 1.0 if b.conformal is None else b.conformal.evaluate(p)
    for i in range(4):
        m[i, i] = 0.0
        for j in range(i + 1, 4):
            v = b.components[i][j].evaluate(p) * scale
            m[i, j] = v
            m[j, i] = -v
    if not np.isfinite(m).all():
        raise OverflowError(f"bracket matrix at {p} is not finite")
    return m


def _warn_if_k_vanishes(b: Bivector, p: Point4) -> None:
    if b.conformal is not None and abs(b.conformal.evaluate(p)) < 1e-12:
        warnings.warn(
            "conformal factor is ~0 at the query point; rank reflects the "
            "degenerate scaled matrix",
            ConformalFactorWarning,
            stacklevel=3,
        )


def _rank(m: np.ndarray) -> int:
    """Numeric rank (0, 2 or 4) of an evaluated component matrix."""
    import numpy as np

    scale = max(float(np.max(np.abs(m))), 1e-300)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > RANK_RELATIVE_THRESHOLD * scale))
    return rank - (rank % 2)  # antisymmetric matrices have even rank


def rank_at(b: Bivector, p: Point4) -> int:
    """Numeric rank (0, 2 or 4) of the evaluated component matrix.

    Uses a singular-value cutoff of 1e-9 relative to the largest entry
    magnitude (floored at 1e-300 so the zero matrix is well-defined).
    """
    _warn_if_k_vanishes(b, p)
    return _rank(bivector_matrix_at(b, p))


def hamiltonian_field(b: Bivector, h: Expr) -> Vector4:
    """The vector field X_h with components sum_j pi^{ij} d_j h (k folded in)."""
    m = b.scaled_components()
    dh = gradient(h)
    comps = []
    for i in range(4):
        total = Expr.zero()
        for j in range(4):
            total = total + m[i][j] * dh[j]
        comps.append(total)
    return Vector4(tuple(comps))


@dataclass(frozen=True)
class StructureConstants:
    """Degree-one truncation of the brackets, as a Lie-algebra table.

    ``linear[(i, j)]`` is the degree-one part (in x, y, z, t) of pi^{ij} for
    i < j; entries may still involve s, which counts as a constant.
    ``dropped[(i, j)]`` holds any discarded nonzero constant term.
    """

    linear: dict[tuple[int, int], Expr]
    dropped: dict[tuple[int, int], Expr]

    def bracket(self, i: int, j: int) -> Expr:
        if i == j:
            return Expr.zero()
        if i < j:
            return self.linear[(i, j)]
        return -self.linear[(j, i)]

    def constant(self, i: int, j: int, l: int | str) -> Expr:
        """The structure constant c_{ij}^l (an Expr in s, usually rational)."""
        name = l if isinstance(l, str) else COORD_NAMES[l]
        return self.bracket(i, j).coefficient_of(name)

    def is_trivial(self) -> bool:
        return all(e.is_zero for e in self.linear.values())


def linear_part(b: Bivector) -> StructureConstants:
    """Structure constants of the linearised bracket at the origin.

    Requires k fixed to 1 (``conformal`` absent or equal to one).  Terms of
    xyzt-degree one are kept (s-proportional ones included); nonzero constant
    terms are dropped with a :class:`DroppedConstantWarning`.
    """
    if b.conformal is not None and b.conformal != Expr.one():
        raise ValueError("linear_part is defined for k = 1; rescale first")
    linear: dict[tuple[int, int], Expr] = {}
    dropped: dict[tuple[int, int], Expr] = {}
    for (i, j), e in b.upper_entries().items():
        split = e.coordinate_degree_split()
        linear[(i, j)] = split.get(1, Expr.zero())
        constant = split.get(0, Expr.zero())
        if not constant.is_zero:
            dropped[(i, j)] = constant
            warnings.warn(
                f"linear part of pi^({COORD_NAMES[i]},{COORD_NAMES[j]}) "
                f"drops the constant term {constant}",
                DroppedConstantWarning,
                stacklevel=2,
            )
    return StructureConstants(linear=linear, dropped=dropped)


def bivector_to_json_dict(b: Bivector) -> dict:
    """JSON-ready form: fixed key order, canonical expression strings."""
    return {
        "coords": list(COORD_NAMES),
        "k": None if b.conformal is None else str(b.conformal),
        "matrix": [[str(e) for e in row] for row in b.components],
    }


def bivector_to_json(b: Bivector) -> str:
    return json.dumps(bivector_to_json_dict(b), indent=2)


def bivector_from_json_dict(data: dict) -> Bivector:
    if data.get("coords") != list(COORD_NAMES):
        raise ValueError("unsupported coordinate chart in serialized bivector")
    k = data.get("k")
    rows = [[parse(cell) for cell in row] for row in data["matrix"]]
    return Bivector(rows, conformal=None if k is None else parse(k))
