"""Bivector construction from Casimir pairs and symbolic Poisson checks.

The central operation builds the antisymmetric component matrix

    pi[i][j] = det(e_i, e_j, dC1, dC2)

as an exact polynomial determinant (columns in that order), so that both
Casimirs are annihilated identically.  Expanded by complementary 2x2 minors,
the determinant with basis columns e_i, e_j keeps one term: pi[i][j] is
+/- the minor d(C1, C2)/d(x^u, x^v) on the rows u < v other than i and j,
and :func:`flaschka_ratiu` forms exactly that signed minor.  ``det4`` remains
the general determinant of four columns.  Because the resulting bivector is
decomposable its rank is at most 2 everywhere, and any conformal rescaling
by a non-vanishing function k stays Poisson.  The Jacobiator of k*pi is
still computed, never assumed, from the identity

    J(k*pi)^{ijk} = k^2 * J(pi)^{ijk} +/- k * Pf(pi) * d_l k,

where l is the index missing from ijk and
Pf(pi) = pi01*pi23 - pi02*pi13 + pi03*pi12.  It holds for every 4x4
bivector; for a decomposable one (every Casimir-pair bivector) Pf = 0,
pi ^ pi = 0 and J(k*pi) = k^2 * J(pi) (Vaisman, *Lectures on the Geometry of
Poisson Manifolds*, 1994).  So only the unscaled Jacobiator is expanded, and
the k terms are formed only where they can be nonzero: k^2 only when some
J(pi) component is nonzero, k * Pf and d_l k only when Pf is nonzero.  For a
Flaschka-Ratiu bivector both are zero and no k term is formed.

C1, C2, k and a Hamiltonian h take their derivatives from ``Expr.partials``,
which differentiates a polynomial once and keeps the four results, so within
one check ``flaschka_ratiu`` and ``casimir_check`` share the partials of C1
and C2.  The bivector's entries are differentiated once, by ``jacobiator``,
each in one ``_partials`` sweep into term dicts that are not kept.

Each set of sums is one call of expr's kernel ``_sums_of_products`` on term
dicts, each product a (sum, sign, factor, factor), pi^{ji} read as the stored
pi^{ij} with its sign folded in: the six signed minors of ``flaschka_ratiu``
(``_minors``, which ``det4`` uses too), the four Jacobiator components with
the Pfaffian when k is given (table ``_JACOBIATOR_PRODUCTS``), the four
unscaled rows of ``_contract`` (table ``_CONTRACTION``), which
``casimir_check`` and ``hamiltonian_field`` share, and k times the field.
Each call goes through ``_bounded_sums``, which raises ``WorkLimitError``
before a set of sums that would take more than ``MAX_BRACKET_PRODUCTS`` term
products, as the parser refuses an expansion past ``MAX_TERM_PRODUCTS``.

numpy is imported only inside ``bivector_matrix_at`` and the ``as_array``
helpers, which only the leaf-form module ``leaves`` calls (see ``expr``); the
sign probe of k and the rank at a point run on Python floats.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence

from .expr import COORD_NAMES, MAX_BRACKET_PRODUCTS, Expr, Point4, Record, WorkLimitError
from .expr import _fused_closure, _is_negation, _partials, _sums_of_products, parse

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
    "bivector_matrix_at",
]

# Per index triple i < j < k: the missing index l, and the sign s with
# pi^{il} pi^{jk} + pi^{jl} pi^{ki} + pi^{kl} pi^{ij} = s * Pf(pi).
_PFAFFIAN_SIGNS = {
    (0, 1, 2): (3, 1),
    (0, 1, 3): (2, -1),
    (0, 2, 3): (1, 1),
    (1, 2, 3): (0, -1),
}
TRIPLES = tuple(_PFAFFIAN_SIGNS)
# Row pairs (r, s) of a 4x4 matrix, each with its complement (u, v) and the
# sign of the permutation (r, s, u, v).
_LAPLACE = (
    ((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
    ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1),
)
# Index pairs i < j, in the order of the upper triangle, the position n of
# each, and (sign, n) per pair i != j with pi^{ij} = sign * upper entry n.
COORD_PAIRS = tuple(pair for pair, _, _ in _LAPLACE)
_PAIR_INDEX = {pair: n for n, pair in enumerate(COORD_PAIRS)}
_SIGNED = {pair: (1, n) for pair, n in _PAIR_INDEX.items()}
_SIGNED.update({(j, i): (-1, n) for (i, j), n in _PAIR_INDEX.items()})
# Entry n of the upper triangle is det(e_i, e_j, dC1, dC2) for its (i, j):
# the minor of dC1, dC2 on the complement (u, v), with the sign of _LAPLACE.
_ENTRY_MINORS = tuple((u, v, sign) for _, (u, v), sign in _LAPLACE)
# The Jacobiator as products (t, sign, a, b) over the factors upper entry n
# at n and d_l of upper entry n at 6 + 4n + l.  Sums 0-3 are J^{ijk} for
# the triples in order; sum 4, the last three products, is Pf(pi).
_JACOBIATOR_PRODUCTS = tuple(
    (t, sign * s, n, 6 + 4 * _PAIR_INDEX[pair] + l)
    for t, (i, j, k) in enumerate(TRIPLES)
    for row, pair, sign in ((i, (j, k), 1), (j, (i, k), -1), (k, (i, j), 1))
    for l in range(4)
    if l != row
    for s, n in [_SIGNED[row, l]]
) + tuple((4, sign, n, _PAIR_INDEX[uv]) for n, (_, uv, sign) in enumerate(_LAPLACE[:3]))
# The products of the four components alone, for a bivector without k.
_JACOBIATOR_UNSCALED = _JACOBIATOR_PRODUCTS[:-3]
# The contraction sum_j pi^{ij} d_j h as products (i, sign, n, j).
_CONTRACTION = tuple((i, *_SIGNED[i, j], j) for i in range(4) for j in range(4) if j != i)
# The partials of a zero entry, which no product reads.
_NO_PARTIALS = ({}, {}, {}, {})

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


class _Entries(Record):
    """Four entries (Expr for symbolic use, floats for numeric)."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([float(v) for v in self.entries])


class Covector4(_Entries):
    """Four covariant entries (Expr for symbolic use, floats for numeric)."""

    entries: tuple

    def pair(self, vec: "Vector4"):
        """Componentwise contraction <covector, vector>."""
        return sum(a * b for a, b in zip(self.entries, vec.entries))


class Vector4(_Entries):
    """Four contravariant entries (Expr or floats)."""

    entries: tuple


class CasimirPair(Record):
    """Two functions R^4 -> R defining a fibration chart (C1, C2)."""

    c1: Expr
    c2: Expr

    @functools.cached_property
    def _gradient_closure(self):
        """``f(x, y, z, t, s) -> (dC1/dx, ..., dC1/dt, dC2/dx, ..., dC2/dt)``.

        Compiled on first use and kept with the pair.
        """
        return _fused_closure(self.c1.partials() + self.c2.partials())


_ZERO = Expr.zero()


def _require_expr(e, i: int, j: int) -> None:
    if not isinstance(e, Expr):
        raise TypeError(f"entry ({i},{j}) must be an Expr, got {type(e).__name__}")


class Bivector:
    """Antisymmetric 4x4 matrix of polynomials plus an optional factor k.

    ``upper`` holds the brackets {x^i, x^j}, i < j, of the unscaled structure
    in ``COORD_PAIRS`` order; ``components`` builds the 4x4 rows from them on
    each access.  ``conformal`` is the factor k (``None`` means "symbolic k",
    treated as 1 numerically).  ``casimirs`` records the generating pair when
    the bivector came out of :func:`flaschka_ratiu`.  ``_longest`` is the
    term count of its longest entry, which bounds the work of the bracket
    layer's sums before they are formed.
    """

    __slots__ = ("upper", "conformal", "casimirs", "_longest")

    def __init__(
        self,
        components: Sequence[Sequence[Expr]],
        conformal: Expr | None = None,
        casimirs: CasimirPair | None = None,
    ):
        rows = tuple(tuple(row) for row in components)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("components must be a 4x4 matrix of Expr")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                _require_expr(e, i, j)
        for i in range(4):
            for j in range(i, 4):  # a diagonal entry must be its own negation
                if not _is_negation(rows[i][j], rows[j][i]):
                    raise ValueError(f"antisymmetry violated at ({i},{j})")
        self._set(tuple(rows[i][j] for i, j in COORD_PAIRS), conformal, casimirs)

    def _set(self, upper: tuple[Expr, ...], conformal, casimirs) -> "Bivector":
        self.upper = upper
        self.conformal = conformal
        self.casimirs = casimirs
        self._longest = max(len(e._terms) for e in upper)
        return self

    @staticmethod
    def from_upper(
        entries: dict[tuple[int, int], Expr],
        conformal: Expr | None = None,
        casimirs: CasimirPair | None = None,
    ) -> "Bivector":
        """Build from the entries above the diagonal, keyed by (i, j), i < j.

        An unset entry is one shared zero.  The six entries determine an
        antisymmetric matrix, so nothing is checked beyond them: an index
        that is not above the diagonal raises ``ValueError``, an entry that
        is not an ``Expr`` ``TypeError``.
        """
        upper = [_ZERO] * 6
        for (i, j), e in entries.items():
            n = _PAIR_INDEX.get((i, j))
            if n is None:
                raise ValueError(f"expected upper-triangular index, got {(i, j)}")
            _require_expr(e, i, j)
            upper[n] = e
        return object.__new__(Bivector)._set(tuple(upper), conformal, casimirs)

    @property
    def components(self) -> tuple[tuple[Expr, ...], ...]:
        """The 4x4 rows: ``upper`` above the diagonal, its negations below, zeros on it."""
        rows = [[_ZERO] * 4 for _ in range(4)]
        for (i, j), e in zip(COORD_PAIRS, self.upper):
            rows[i][j] = e
            rows[j][i] = -e if e._terms else _ZERO
        return tuple(map(tuple, rows))

    def scaled_components(self) -> tuple[tuple[Expr, ...], ...]:
        """Components with the conformal factor folded in (absent k -> 1)."""
        if self.conformal is None:
            return self.components
        k = self.conformal
        return tuple(tuple(k * e for e in row) for row in self.components)

    def upper_entries(self) -> dict[tuple[int, int], Expr]:
        return dict(zip(COORD_PAIRS, self.upper))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.upper == other.upper and self.conformal == other.conformal

    def __repr__(self) -> str:
        nonzero = {
            f"{COORD_NAMES[i]}{COORD_NAMES[j]}": str(e)
            for (i, j), e in self.upper_entries().items()
            if not e.is_zero
        }
        return f"Bivector({nonzero}, k={self.conformal})"


def gradient(c: Expr) -> Covector4:
    """Differential of c with respect to the ordered coordinates (x, y, z, t)."""
    return Covector4(c.partials())


def det4(columns: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant of a 4x4 matrix given by its four columns a, b, c, d.

    Laplace expansion by complementary minors: the sum over ``_LAPLACE`` of
    sign * (a[r]*b[s] - a[s]*b[r]) * (c[u]*d[v] - c[v]*d[u]), skipping a term
    whose first minor is zero.  The six first minors, the second minors that
    are needed (each set one :func:`_minors`) and the outer sum are one
    ``_sums_of_products`` each.  With basis columns a = e_i, b = e_j only
    the minor of c, d on the rows other than i and j is formed.
    """
    a, b, c, d = ([e._terms for e in column] for column in columns)
    firsts = _minors(a, b, [(r, s, 1) for r, s in COORD_PAIRS])
    kept = [n for n, first in enumerate(firsts) if first]
    seconds = _minors(c, d, [(*_LAPLACE[n][1], 1) for n in kept])
    products = [(0, _LAPLACE[n][2], firsts[n], second) for n, second in zip(kept, seconds)]
    return Expr._trusted(_bounded_sums(1, products, "the determinant")[0])


def _minors(x: list, y: list, rows, bound: int | None = None) -> list[dict]:
    """sign * (x[u]*y[v] - x[v]*y[u]) for each (u, v, sign) of ``rows``.

    The signed 2x2 minors of two columns of term dicts, one
    ``_sums_of_products`` on the products whose two factors are nonzero,
    within the work limit (``bound`` as in :func:`_bounded_sums`).
    """
    products = []
    for n, (u, v, sign) in enumerate(rows):
        if x[u] and y[v]:
            products.append((n, sign, x[u], y[v]))
        if x[v] and y[u]:
            products.append((n, -sign, x[v], y[u]))
    return _bounded_sums(len(rows), products, "the 2x2 minors", bound)


def _bounded_sums(n: int, products: list, what: str, bound: int | None = None) -> list[dict]:
    """``_sums_of_products(n, products)``, or ``WorkLimitError`` before it starts.

    The error is raised when the products take more than
    ``MAX_BRACKET_PRODUCTS`` term products, sum len(a) * len(b).  ``bound``
    is a cheap upper bound on that count, taken from the longest factors; the
    exact count is summed only when there is no bound or it is over the limit.
    """
    if bound is None or bound > MAX_BRACKET_PRODUCTS:
        work = sum(len(a) * len(b) for _, _, a, b in products)
        if work > MAX_BRACKET_PRODUCTS:
            raise WorkLimitError(
                f"{what} would take {work} term products, over the work limit "
                f"{MAX_BRACKET_PRODUCTS}"
            )
    return _sums_of_products(n, products)


@functools.lru_cache(maxsize=_PROBE_MEMO_SIZE)
def _k_probe_warning(k: Expr) -> str | None:
    """Why k looks degenerate on the 10^4-point grid of [-2, 2]^4, or None.

    k is evaluated at s = 0 on every point of ``_PROBE_AXIS``^4.  It looks
    degenerate if a value overflows or is not finite, if it takes both signs,
    or if min|k| < 1e-9 * max(1, max|k|).
    """
    f = k.compiled()
    axis = _PROBE_AXIS
    try:
        values = [
            f(x, y, z, t, 0.0)
            for x in axis for y in axis for z in axis for t in axis
        ]
        # A constant k gives an int, which may exceed the float range.
        finite = all(map(math.isfinite, values))
    except OverflowError:
        finite = False
    if not finite:
        return (
            "conformal factor overflows or is not finite somewhere on "
            "[-2, 2]^4 (detected on a 10^4-point sample grid); whether it "
            "vanishes there was not checked"
        )
    lo, hi = min(values), max(values)
    if lo < 0.0 < hi or min(map(abs, values)) < 1e-9 * max(1.0, -lo, hi):
        return (
            "conformal factor vanishes somewhere on [-2, 2]^4 (detected on "
            "a 10^4-point sample grid); the scaled bracket degenerates there"
        )
    return None


def flaschka_ratiu(
    cas: CasimirPair, k: Expr | None = None
) -> Bivector:
    """Bivector with prescribed Casimirs C1, C2 and conformal factor k.

    Entry (i, j) is det(e_i, e_j, dC1, dC2), formed as its one signed minor
    sign * (dC1[u]*dC2[v] - dC1[v]*dC2[u]) over the complement (u, v) of
    (i, j); the six are one :func:`_minors` call.  ``det4`` on basis
    columns gives the same polynomials with more work.

    Rejects an exactly-zero k.  A supplied k is additionally probed on a
    deterministic 10^4-point grid in [-2, 2]^4 (s = 0, Python floats); a sign
    change, a near-zero value or a value that overflows there only raises
    :class:`ConformalFactorWarning`, worded for the overflow apart from the
    other two, since non-vanishing on the whole chart is the caller's
    responsibility.  The verdict is remembered per k; the warning is raised
    on every call.  Minors past the work limit raise ``WorkLimitError``.
    """
    if k is not None:
        if k.is_zero:
            raise ValueError("conformal factor k must not be the zero polynomial")
        message = _k_probe_warning(k)
        if message is not None:
            warnings.warn(message, ConformalFactorWarning, stacklevel=2)
    d1, d2 = ([d._terms for d in c.partials()] for c in (cas.c1, cas.c2))
    # Twelve products, and a partial has at most the terms of its polynomial.
    minors = _minors(d1, d2, _ENTRY_MINORS, 12 * len(cas.c1._terms) * len(cas.c2._terms))
    return Bivector.from_upper(
        dict(zip(COORD_PAIRS, map(Expr._trusted, minors))), conformal=k, casimirs=cas
    )


def jacobiator(b: Bivector) -> dict[tuple[int, int, int], Expr]:
    """The four obstruction polynomials J^{ijk} of the k-scaled bivector.

    J^{ijk} = sum_l ( pi^{il} d_l pi^{jk} + pi^{jl} d_l pi^{ki}
                      + pi^{kl} d_l pi^{ij} );
    the bivector is Poisson iff all four vanish identically.  Only the six
    entries of ``upper`` are differentiated, each in one ``_partials`` sweep
    whose term dicts are not kept: pi^{jl}, j > l, is read as -pi^{lj} and
    d_l pi^{ki} as -d_l pi^{ik}, and the terms with l equal to the row index,
    whose factor is a zero diagonal entry, are left out, so each component
    is a sum of at most 9 products.  The four components, and the Pfaffian
    when there is a factor k, are one ``_sums_of_products`` on the products
    of the table ``_JACOBIATOR_PRODUCTS`` whose two factors are both nonzero:
    a product with a zero factor is left out of the list, not skipped by the
    kernel.
    With k, the product rule gives k^2 * J(pi)^{ijk} + s * k * Pf(pi) * d_l k,
    with l and s from ``_PFAFFIAN_SIGNS``, a second call for the four sums;
    k^2 is formed only when some J(pi) component is nonzero, and k * Pf(pi)
    and the partials of k only when Pf(pi) is nonzero.  A term left out is
    k^2 * 0 or k * 0 * d_l k, so the result is the same polynomial.  For
    every :func:`flaschka_ratiu` output both are zero and no k term is formed.
    A set of sums past the work limit raises ``WorkLimitError`` before it is
    formed.
    """
    factors = [e._terms for e in b.upper]
    for e in b.upper:
        factors += _partials(e._terms) if e._terms else _NO_PARTIALS
    factor = b.conformal
    n, table = (4, _JACOBIATOR_UNSCALED) if factor is None else (5, _JACOBIATOR_PRODUCTS)
    products = [
        (t, sign, fa, fc)
        for t, sign, a, c in table
        if (fa := factors[a]) and (fc := factors[c])
    ]
    # At most 39 products, and a partial has at most the terms of its entry.
    sums = _bounded_sums(n, products, "the Jacobiator", 39 * b._longest * b._longest)
    if factor is not None:
        *unscaled, pfaffian = sums
        k = factor._terms
        products = []
        if any(unscaled):
            k2 = _bounded_sums(1, [(0, 1, k, k)], "k^2")[0]
            products += [(t, 1, k2, e) for t, e in enumerate(unscaled) if e]
        if pfaffian:
            k_pfaffian = _bounded_sums(1, [(0, 1, k, pfaffian)], "k * Pf")[0]
            dk = factor.partials()
            products += [
                (t, sign, k_pfaffian, dk[l]._terms)
                for t, (l, sign) in enumerate(_PFAFFIAN_SIGNS.values())
                if dk[l]._terms
            ]
        sums = _bounded_sums(4, products, "the Jacobiator of k * pi")
    return {triple: Expr._trusted(e) for triple, e in zip(TRIPLES, sums)}


class PoissonVerdict(Record):
    """Outcome of the Jacobi-identity check, with a witness on failure."""

    holds: bool
    witness_triple: tuple[str, str, str] | None = None
    witness: Expr | None = None

    def __bool__(self) -> bool:
        return self.holds


# The one verdict of every bivector that is Poisson; a verdict is immutable.
_HOLDS = PoissonVerdict(True)


def is_poisson(b: Bivector) -> PoissonVerdict:
    """True iff every Jacobiator component is exactly the zero polynomial."""
    for (i, j, k), poly in jacobiator(b).items():
        if not poly.is_zero:
            names = (COORD_NAMES[i], COORD_NAMES[j], COORD_NAMES[k])
            return PoissonVerdict(False, names, poly)
    return _HOLDS


def casimir_check(b: Bivector, c: Expr) -> bool:
    """True iff components . grad(c) is exactly the zero 4-tuple.

    Runs on the unscaled entries: k never changes the answer because the
    factor multiplies every entry of the product.
    """
    return not any(_contract(b, c))


def _contract(b: Bivector, h: Expr) -> list[dict]:
    """The term dicts of the four unscaled sums sum_j pi^{ij} * d_j h.

    One ``_sums_of_products`` on the products of ``_CONTRACTION`` whose two
    factors are nonzero, each at most 12 * ``_longest`` * len(h) term
    products; past the work limit it raises ``WorkLimitError``.
    """
    upper = [e._terms for e in b.upper]
    dh = [d._terms for d in h.partials()]
    products = [
        (i, sign, e, d)
        for i, sign, n, j in _CONTRACTION
        if (d := dh[j]) and (e := upper[n])
    ]
    bound = 12 * b._longest * len(h._terms)
    return _bounded_sums(4, products, "the contraction with a gradient", bound)


def _upper_at(b: Bivector, p: Point4) -> tuple[float, ...]:
    """The six k-scaled entries above the diagonal at p, in ``COORD_PAIRS`` order.

    Python floats (absent k -> 1); an entry that is not finite raises
    ``OverflowError``.
    """
    scale = 1.0 if b.conformal is None else b.conformal.evaluate(p)
    upper = tuple(e.evaluate(p) * scale for e in b.upper)
    if not all(map(math.isfinite, upper)):
        raise OverflowError(f"bracket matrix at {p} is not finite")
    return upper


def bivector_matrix_at(b: Bivector, p: Point4) -> np.ndarray:
    """Evaluate the scaled component matrix at a point (absent k -> 1).

    The entries are those of :func:`_upper_at`; one that is not finite raises
    ``OverflowError``.
    """
    import numpy as np

    m = np.zeros((4, 4))
    for (i, j), v in zip(COORD_PAIRS, _upper_at(b, p)):
        m[i, j] = v
        m[j, i] = -v
    return m


def _warn_if_k_vanishes(b: Bivector, p: Point4) -> None:
    if b.conformal is not None and abs(b.conformal.evaluate(p)) < 1e-12:
        warnings.warn(
            "conformal factor is ~0 at the query point; rank reflects the "
            "degenerate scaled matrix",
            ConformalFactorWarning,
            stacklevel=3,
        )


def _rank(upper: Sequence[float]) -> int:
    """Numeric rank (0, 2 or 4) of an antisymmetric 4x4 matrix B.

    ``upper`` holds the six finite entries of B above the diagonal, in
    ``COORD_PAIRS`` order.  B has singular values s1, s1, s2, s2 with s1^2 + s2^2 = F, the sum of the
    squared entries, and s1 * s2 = |Pf B|, since det B = Pf(B)^2 (Horn &
    Johnson, *Matrix Analysis*).  Both are taken on B scaled by an exact power
    of two to max|entry| in [1/2, 1), where F cannot overflow:
    s1 = sqrt((F + sqrt(F^2 - 4 Pf^2)) / 2) and s2 = |Pf| / s1, which does not
    cancel.  A pair of singular values counts where it exceeds
    ``RANK_RELATIVE_THRESHOLD`` times max|entry|, floored at 1e-300, under
    the same power of two.
    """
    big = max(map(abs, upper))
    if big == 0.0:
        return 0
    _, exponent = math.frexp(big)
    b01, b02, b03, b12, b13, b23 = (math.ldexp(v, -exponent) for v in upper)
    f = b01 * b01 + b02 * b02 + b03 * b03 + b12 * b12 + b13 * b13 + b23 * b23
    pf = b01 * b23 - b02 * b13 + b03 * b12
    s1 = math.sqrt((f + math.sqrt(max(f * f - 4.0 * pf * pf, 0.0))) / 2.0)
    s2 = abs(pf) / s1
    cut = RANK_RELATIVE_THRESHOLD * math.ldexp(max(big, 1e-300), -exponent)
    return 2 * (s1 > cut) + 2 * (s2 > cut)


def rank_at(b: Bivector, p: Point4) -> int:
    """Numeric rank (0, 2 or 4) of the evaluated component matrix.

    Runs :func:`_rank` on the six entries of :func:`_upper_at`, on Python
    floats: a singular-value cutoff of 1e-9 relative to the largest entry
    magnitude (floored at 1e-300 so the zero matrix is well-defined).
    """
    _warn_if_k_vanishes(b, p)
    return _rank(_upper_at(b, p))


def hamiltonian_field(b: Bivector, h: Expr) -> Vector4:
    """The field X_h: k * sum_j pi^{ij} d_j h (absent k -> 1), k applied after the sums."""
    field = _contract(b, h)
    if b.conformal is not None:
        k = b.conformal._terms
        products = [(i, 1, k, e) for i, e in enumerate(field) if e]
        field = _bounded_sums(4, products, "k times the field")
    return Vector4(tuple(map(Expr._trusted, field)))


class StructureConstants(Record):
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


def bivector_from_json_dict(data: dict) -> Bivector:
    if data.get("coords") != list(COORD_NAMES):
        raise ValueError("unsupported coordinate chart in serialized bivector")
    k = data.get("k")
    rows = [[parse(cell) for cell in row] for row in data["matrix"]]
    return Bivector(rows, conformal=None if k is None else parse(k))
