"""Tests for bivector construction and the symbolic Poisson checks."""

import copy
import math
import pickle
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import poisson4.expr as expr_module
import poisson4.poisson as poisson_module
from poisson4.expr import COORD_NAMES, VARS, Expr, Point4, WorkLimitError, parse
from poisson4.models import MODEL_NAMES, model
from test_expr import (
    _int_exactly_when_integral,
    _reference_add,
    _reference_differentiate,
    _reference_mul,
    _reference_str,
    _reference_terms,
)

from poisson4.poisson import (
    COORD_PAIRS,
    RANK_RELATIVE_THRESHOLD,
    TRIPLES,
    _PROBE_AXIS,
    Bivector,
    CasimirPair,
    ConformalFactorWarning,
    DroppedConstantWarning,
    bivector_from_json_dict,
    bivector_matrix_at,
    bivector_to_json_dict,
    casimir_check,
    det4,
    flaschka_ratiu,
    gradient,
    hamiltonian_field,
    is_poisson,
    jacobiator,
    linear_part,
    rank_at,
    _rank,
    _upper_at,
)
from poisson4.rk4 import _flow_kernel, flow

CUSP = CasimirPair(parse("t"), parse("x^3 - 3*x*t + y^2 - z^2"))
WRINKLE = CasimirPair(
    parse("t^2 - x^2 + y^2 - z^2 + s*t"), parse("2*t*x + 2*y*z")
)


def non_poisson_example() -> Bivector:
    """dx^dy + x dz^dt: the standard rank-4 failure of the Jacobi identity."""
    return Bivector.from_upper({(0, 1): Expr.one(), (2, 3): parse("x")})


class TestGradient:
    def test_projection_casimir(self):
        assert tuple(map(str, gradient(parse("t")))) == ("0", "0", "0", "1")

    def test_constant(self):
        assert all(e.is_zero for e in gradient(parse("5")))

    def test_wrinkle_first_casimir(self):
        g = gradient(parse("t^2 - x^2 + y^2 - z^2 + s*t"))
        assert tuple(map(str, g)) == ("-2*x", "2*y", "-2*z", "2*t + s")


class TestFlaschkaRatiu:
    def test_cusp_matrix(self):
        b = flaschka_ratiu(CUSP)
        assert b.components[0][1] == parse("2*z")
        assert b.components[0][2] == parse("2*y")
        assert b.components[1][2] == parse("3*t - 3*x^2")
        # fourth row and column vanish: t is a Casimir coordinate
        assert all(b.components[i][3].is_zero for i in range(4))
        assert all(b.components[3][j].is_zero for j in range(4))

    def test_coordinate_pair_gives_unit_dz_dt(self):
        b = flaschka_ratiu(CasimirPair(parse("x"), parse("y")))
        assert b.components[2][3] == Expr.one()
        others = [
            (i, j)
            for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
        ]
        assert all(b.components[i][j].is_zero for i, j in others)

    def test_wrinkle_matrix(self):
        b = flaschka_ratiu(WRINKLE)
        assert b.components[0][3] == parse("4*y^2 + 4*z^2")
        assert b.components[1][2] == parse("-2*s*t - 4*t^2 - 4*x^2")
        assert b.components[2][3] == parse("-4*t*y - 4*x*z")

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            flaschka_ratiu(CUSP, k=Expr.zero())

    def test_vanishing_k_warns(self):
        with pytest.warns(ConformalFactorWarning, match="factor vanishes somewhere"):
            flaschka_ratiu(CUSP, k=parse("x"))

    def test_negative_k_near_zero_warns(self):
        # k < 0 everywhere, and min|k| = 1e-6 at x = 2/9 on the probe grid,
        # against a cutoff of 1e-9 * max|k| = 0.49: the cutoff must be taken
        # on the magnitude of the negative values.
        k = parse("-(1/1000000 + 100000000*(x - 2/9)^2)")
        with pytest.warns(ConformalFactorWarning, match="factor vanishes somewhere"):
            flaschka_ratiu(CUSP, k=k)

    def test_overflowing_k_warns_without_claiming_a_zero(self):
        with pytest.warns(ConformalFactorWarning) as caught:
            flaschka_ratiu(CUSP, k=parse("1" + "0" * 400))
        (message,) = [str(w.message) for w in caught]
        assert message.startswith("conformal factor overflows or is not finite")
        assert "factor vanishes" not in message

    def test_positive_k_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flaschka_ratiu(CUSP, k=parse("1 + x^2 + y^2 + z^2 + t^2"))

    def test_numeric_symbolic_agreement(self):
        # Independent route: assemble the four columns numerically and take
        # numpy's determinant.
        rng = np.random.default_rng(42)
        for _ in range(25):
            c1, c2 = _random_pair(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2))
            p = Point4(*rng.uniform(-2, 2, size=4), s=rng.uniform(-1, 1))
            g1 = [c1.differentiate(v).evaluate(p) for v in _vars()]
            g2 = [c2.differentiate(v).evaluate(p) for v in _vars()]
            for i in range(4):
                for j in range(i + 1, 4):
                    cols = np.zeros((4, 4))
                    cols[i, 0] = 1.0
                    cols[j, 1] = 1.0
                    cols[:, 2] = g1
                    cols[:, 3] = g2
                    want = np.linalg.det(cols)
                    got = b.components[i][j].evaluate(p)
                    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-9)


def _reference_flaschka_ratiu(cas: CasimirPair, k=None) -> Bivector:
    """The bracket as ``det4`` on basis columns: det(e_i, e_j, dC1, dC2).

    Every entry is a full determinant, and the matrix goes through the
    validated ``Bivector(rows)``.
    """
    basis = [tuple(Expr.constant(int(r == i)) for r in range(4)) for i in range(4)]
    grads = (gradient(cas.c1).entries, gradient(cas.c2).entries)
    rows = [[Expr.zero() for _ in range(4)] for _ in range(4)]
    for i, j in COORD_PAIRS:
        rows[i][j] = det4((basis[i], basis[j]) + grads)
        rows[j][i] = -rows[i][j]
    return Bivector(rows, conformal=k, casimirs=cas)


def _typed_terms(e: Expr) -> list:
    """e's terms with each coefficient's type, so an int never equals a Fraction."""
    return [(m, c, type(c)) for m, c in e.terms()]


def _assert_same_bivector(got: Bivector, want: Bivector) -> None:
    for i in range(4):
        for j in range(4):
            assert _typed_terms(got.components[i][j]) == _typed_terms(want.components[i][j]), (i, j)
    assert got.conformal == want.conformal
    assert got.casimirs == want.casimirs


# The benchmark's conformal factor, and one with denominators.
K_TEXT = "1 + x^2 + y^2 + z^2 + t^2"
K_WITH_DENOMINATORS = "1/2*x*y - 3/2 + 2/3*t^2"


class TestSignedMinors:
    """flaschka_ratiu's one signed minor per entry against det4 on basis columns."""

    @pytest.mark.filterwarnings("ignore::poisson4.poisson.ConformalFactorWarning")
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_catalogue(self, name):
        values = (None, -1, 0, Fraction(1, 2), 2) if model(name).uses_s else (None,)
        for s in values:
            cas = model(name, s).casimirs
            for text in (None, K_TEXT, K_WITH_DENOMINATORS):
                k = None if text is None else parse(text)
                _assert_same_bivector(flaschka_ratiu(cas, k), _reference_flaschka_ratiu(cas, k))

    def test_drawn_pairs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 2))
        coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
        poly = st.dictionaries(monomial, coeff, max_size=5).map(Expr)
        k = st.none() | poly.filter(lambda e: not e.is_zero)
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=200, deadline=None, database=None, phases=phases)
        @hypothesis.given(poly, poly, k)
        def check(c1, c2, k):
            cas = CasimirPair(c1, c2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConformalFactorWarning)
                got = flaschka_ratiu(cas, k)
            _assert_same_bivector(got, _reference_flaschka_ratiu(cas, k))

        check()

    def test_from_upper_equals_validated_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))
        coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
        poly = st.dictionaries(monomial, coeff, max_size=3).map(Expr)
        upper = st.dictionaries(st.sampled_from(COORD_PAIRS), poly)
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=100, deadline=None, database=None, phases=phases)
        @hypothesis.given(upper, st.none() | poly.filter(lambda e: not e.is_zero))
        def check(upper, k):
            rows = [[Expr.zero() for _ in range(4)] for _ in range(4)]
            for (i, j), e in upper.items():
                rows[i][j], rows[j][i] = e, -e
            got = Bivector.from_upper(upper, conformal=k)
            _assert_same_bivector(got, Bivector(rows, conformal=k))
            assert all(got.components[i][i].is_zero for i in range(4))

        check()

    @pytest.mark.parametrize("value", [1, "x", Fraction(1, 2), None])
    def test_non_expr_entry_is_a_type_error(self, value):
        with pytest.raises(TypeError, match=r"entry \(1,3\)"):
            Bivector.from_upper({(0, 1): Expr.one(), (1, 3): value})
        rows = [[Expr.zero() for _ in range(4)] for _ in range(4)]
        rows[3][1] = value
        with pytest.raises(TypeError, match=r"entry \(3,1\)"):
            Bivector(rows)

    def test_index_below_the_diagonal_is_a_value_error(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            Bivector.from_upper({(1, 0): Expr.one()})


class TestJacobiator:
    def test_cusp_is_poisson(self):
        assert all(e.is_zero for e in jacobiator(flaschka_ratiu(CUSP)).values())

    def test_constant_bivector(self):
        b = Bivector.from_upper({(0, 1): Expr.one()})
        assert all(e.is_zero for e in jacobiator(b).values())

    def test_hand_expanded_failure(self):
        # Only pi^{yx} d_x pi^{zt} = (-1)(1) survives in J^{yzt}.
        j = jacobiator(non_poisson_example())
        assert j[(1, 2, 3)] == Expr.constant(-1)
        assert j[(0, 1, 2)].is_zero
        assert j[(0, 1, 3)].is_zero
        assert j[(0, 2, 3)].is_zero

    def test_verdict_with_witness(self):
        verdict = is_poisson(non_poisson_example())
        assert not verdict
        assert verdict.witness_triple == ("y", "z", "t")
        assert verdict.witness == Expr.constant(-1)

    def test_scaled_birth_is_poisson(self):
        birth = CasimirPair(parse("t"), parse("x^3 - 3*x*(t^2 - s) + y^2 - z^2"))
        k = parse("1 + x^2 + y^2 + z^2 + t^2")
        assert is_poisson(flaschka_ratiu(birth, k=k))

    def test_flip_is_poisson(self):
        flip = CasimirPair(parse("t"), parse("x^4 - x^2*s + x*t + y^2 - z^2"))
        assert is_poisson(flaschka_ratiu(flip))


def _reference_jacobiator(b: Bivector) -> dict:
    """The Jacobiator expanded on the fully k-scaled components."""
    m = b.scaled_components()
    partials = [
        [tuple(m[i][j].differentiate(v) for v in VARS) for j in range(4)]
        for i in range(4)
    ]
    out = {}
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
    return out


def _reference_verdict(b: Bivector):
    for triple, poly in _reference_jacobiator(b).items():
        if not poly.is_zero:
            return triple, poly
    return None


# Conformal factors: non-vanishing, vanishing, constant, s-dependent.
K_VALUES = [
    "1 + x^2 + y^2 + z^2 + t^2",
    "x",
    "x*y",
    "y*z - 1",
    "-3",
    "1/2",
    "1 + s*x",
    "x^3 - y + 7",
    "2 + t^4 + x*y*z",
]


def _catalogue_cases():
    for name in MODEL_NAMES:
        for s in (None, -1, 0, 1) if model(name).uses_s else (None,):
            yield name, s


class TestPfaffianRoute:
    @pytest.mark.filterwarnings("ignore::poisson4.poisson.ConformalFactorWarning")
    @pytest.mark.parametrize("name,s", list(_catalogue_cases()))
    def test_catalogue_matches_the_scaled_expansion(self, name, s):
        for text in K_VALUES:
            k = parse(text) if s is None else parse(text).substitute_s(s)
            b = flaschka_ratiu(model(name, s).casimirs, k=k)
            assert jacobiator(b) == _reference_jacobiator(b), (name, s, text)

    def test_random_bivectors(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))
        coeff = st.integers(-3, 3)
        poly = st.dictionaries(monomial, coeff, max_size=2).map(Expr)
        vector = st.tuples(*[poly] * 4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        # X ^ Y has zero Pfaffian and is rarely Poisson; six free entries
        # usually have a nonzero Pfaffian.
        wedge = st.tuples(vector, vector).map(
            lambda xy: [xy[0][i] * xy[1][j] - xy[0][j] * xy[1][i] for i, j in pairs]
        )
        upper = st.one_of(wedge, st.tuples(*[poly] * 6))
        k = st.dictionaries(monomial, coeff, min_size=1, max_size=3).map(Expr)

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(upper, k.filter(lambda e: not e.is_zero))
        def check(upper, k):
            b = Bivector.from_upper(dict(zip(pairs, upper)), conformal=k)
            assert jacobiator(b) == _reference_jacobiator(b)
            verdict = is_poisson(b)
            want = _reference_verdict(b)
            if want is None:
                assert verdict.holds
            else:
                triple, poly = want
                names = tuple(COORD_NAMES[i] for i in triple)
                assert (verdict.witness_triple, verdict.witness) == (names, poly)

        check()

    def test_upper_partials_on_non_decomposable_bivectors(self):
        # jacobiator differentiates only the six upper entries and skips the
        # diagonal terms; the reference differentiates all 16 entries of the
        # k-scaled matrix.  Six free entries with a nonzero Pfaffian, with
        # and without k.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))
        coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
        poly = st.dictionaries(monomial, coeff, max_size=3).map(Expr)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        upper = st.tuples(*[poly] * 6).filter(
            lambda e: not (e[0] * e[5] - e[1] * e[4] + e[2] * e[3]).is_zero
        )
        k = st.none() | st.dictionaries(monomial, coeff, min_size=1, max_size=3).map(
            Expr
        ).filter(lambda e: not e.is_zero)
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=100, deadline=None, database=None, phases=phases)
        @hypothesis.given(upper, k)
        def check(upper, k):
            b = Bivector.from_upper(dict(zip(pairs, upper)), conformal=k)
            want = _reference_jacobiator(b)
            got = jacobiator(b)
            assert got == want
            assert [str(got[t]) for t in TRIPLES] == [str(want[t]) for t in TRIPLES]
            verdict, witness = is_poisson(b), _reference_verdict(b)
            if witness is None:
                assert verdict.holds
            else:
                triple, poly = witness
                assert verdict.witness_triple == tuple(COORD_NAMES[i] for i in triple)
                assert str(verdict.witness) == str(poly)

        check()

    def test_pfaffian_term_in_every_triple(self):
        # Pf = x*t - 2 and k depends on every coordinate, so each of the
        # four triples carries a nonzero Pfaffian term.
        b = Bivector.from_upper(
            {(0, 1): Expr.one(), (0, 2): parse("z"), (1, 3): parse("y"),
             (2, 3): parse("x*t - 2 + y*z")},
            conformal=parse("3 + x + y^2 - z + t^3"),
        )
        got = jacobiator(b)
        assert got == _reference_jacobiator(b)
        unscaled = jacobiator(Bivector.from_upper(dict(b.upper_entries())))
        k = b.conformal
        assert all(got[t] != k * k * unscaled[t] for t in TRIPLES)

    def test_non_decomposable_bivector_gets_the_pfaffian_term(self):
        # dx^dy + x dz^dt has Pfaffian x: J(k*pi) is not k^2 * J(pi).
        k = parse("1 + y^2")
        b = Bivector.from_upper(
            {(0, 1): Expr.one(), (2, 3): parse("x")}, conformal=k
        )
        got = jacobiator(b)
        assert got == _reference_jacobiator(b)
        # J^{xzt} is zero without k and nonzero with it.
        assert jacobiator(non_poisson_example())[(0, 2, 3)].is_zero
        verdict = is_poisson(b)
        assert verdict.witness_triple == ("x", "z", "t")
        assert verdict.witness == parse("2*x*y^3 + 2*x*y")

    def test_scaled_jacobiator_is_k_squared_times_the_unscaled_one(self):
        # pi = dx ^ (dy + x dz) is decomposable and not Poisson.
        entries = {(0, 1): Expr.one(), (0, 2): parse("x")}
        k = parse("2 + y")
        got = jacobiator(Bivector.from_upper(entries, conformal=k))
        unscaled = jacobiator(Bivector.from_upper(entries))
        assert got == {t: k * k * e for t, e in unscaled.items()}
        assert [t for t, e in got.items() if not e.is_zero] == [(0, 1, 2)]

    # One case per branch of jacobiator's conformal terms: k^2 * J(pi) is
    # formed only when some J(pi) component is nonzero, k * Pf * d_l k only
    # when Pf is nonzero.

    @staticmethod
    def _branch(b: Bivector) -> tuple[bool, bool]:
        """(some unscaled J(pi) component is nonzero, Pf(pi) is nonzero)."""
        unscaled = jacobiator(Bivector.from_upper(b.upper_entries()))
        m = b.components
        pfaffian = m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
        return any(not e.is_zero for e in unscaled.values()), not pfaffian.is_zero

    @staticmethod
    def _assert_matches_the_reference(b: Bivector) -> dict:
        got, want = jacobiator(b), _reference_jacobiator(b)
        assert got == want
        assert [str(got[t]) for t in TRIPLES] == [str(want[t]) for t in TRIPLES]
        verdict, witness = is_poisson(b), _reference_verdict(b)
        if witness is None:
            assert verdict.holds and verdict.witness_triple is verdict.witness is None
        else:
            triple, poly = witness
            assert not verdict.holds
            assert verdict.witness_triple == tuple(COORD_NAMES[i] for i in triple)
            assert str(verdict.witness) == str(poly)
        return got

    def test_k_terms_when_j_and_the_pfaffian_are_zero(self):
        b = flaschka_ratiu(model("wrinkle").casimirs, k=parse("1 + x^2 + s*t"))
        assert self._branch(b) == (False, False)
        got = self._assert_matches_the_reference(b)
        assert all(e.is_zero for e in got.values())

    def test_k_terms_when_only_j_is_nonzero(self):
        # y dx^dy + t dx^dz + x*t dy^dz has no t direction, and every
        # bivector in three directions is a wedge of two vectors: Pf = 0.
        # It is not Poisson.
        entries = {(0, 1): parse("y"), (0, 2): parse("t"), (1, 2): parse("x*t")}
        k = parse("2 + y^2 - x*t")
        b = Bivector.from_upper(entries, conformal=k)
        assert self._branch(b) == (True, False)
        got = self._assert_matches_the_reference(b)
        unscaled = jacobiator(Bivector.from_upper(entries))
        assert got == {t: k * k * e for t, e in unscaled.items()}

    def test_k_terms_when_only_the_pfaffian_is_nonzero(self):
        # dx^dy + dz^dt is constant, so J(pi) = 0, and Pf = 1: with a
        # non-constant k, J(k*pi)^{ijk} = s * k * d_l k is not zero.
        k = parse("2 + y^2 - x*t")
        b = Bivector.from_upper({(0, 1): Expr.one(), (2, 3): Expr.one()}, conformal=k)
        assert self._branch(b) == (False, True)
        got = self._assert_matches_the_reference(b)
        assert got == {
            (0, 1, 2): k * parse("-x"),
            (0, 1, 3): Expr.zero(),
            (0, 2, 3): k * parse("2*y"),
            (1, 2, 3): k * parse("t"),
        }
        assert str(is_poisson(b).witness) == "x^2*t - x*y^2 - 2*x"

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        names = sympy.symbols("x y z t s")
        x = names[:4]

        def to_sympy(e: Expr):
            return sympy.sympify(str(e).replace("^", "**"), locals=dict(
                zip("xyzts", names)
            ))

        cases = [
            flaschka_ratiu(model("wrinkle").casimirs, k=parse("1 + x^2 + s*t")),
            flaschka_ratiu(model("cusp").casimirs, k=parse("x*y + 5")),
            Bivector.from_upper(
                {(0, 1): parse("z"), (2, 3): parse("x + t")},
                conformal=parse("1 + y^2"),
            ),
            Bivector.from_upper(
                {(0, 1): parse("y*z"), (1, 3): parse("x")}, conformal=parse("t - 3")
            ),
            Bivector.from_upper(
                {(0, 1): parse("y*z"), (0, 2): parse("t"), (1, 3): parse("x")},
                conformal=parse("t - 3 + x*y + z^2"),
            ),
        ]
        for b in cases:
            k = to_sympy(b.conformal)
            pi = [[k * to_sympy(e) for e in row] for row in b.components]
            got = jacobiator(b)
            for (i, j, l) in TRIPLES:
                want = sum(
                    pi[i][m] * sympy.diff(pi[j][l], x[m])
                    + pi[j][m] * sympy.diff(pi[l][i], x[m])
                    + pi[l][m] * sympy.diff(pi[i][j], x[m])
                    for m in range(4)
                )
                assert sympy.expand(want - to_sympy(got[(i, j, l)])) == 0


def _reference_det(columns) -> dict:
    """Leibniz expansion of a 4x4 determinant of reference polynomials."""
    total: dict = {}
    for perm in permutations(range(4)):
        inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        term = {(0, 0, 0, 0, 0): Fraction(-1 if inversions % 2 else 1)}
        for col, row in enumerate(perm):
            term = _reference_mul(term, columns[col][row])
        total = _reference_add(total, term)
    return total


def _reference_bivector(c1: dict, c2: dict) -> dict:
    """pi^{ij} = det(e_i, e_j, dC1, dC2) for i < j, on reference polynomials."""
    grads = [[_reference_differentiate(c, v) for v in range(4)] for c in (c1, c2)]
    one = {(0, 0, 0, 0, 0): Fraction(1)}
    basis = [[one if r == i else {} for r in range(4)] for i in range(4)]
    return {(i, j): _reference_det([basis[i], basis[j], *grads]) for i, j in COORD_PAIRS}


def _reference_matrix(upper: dict, k: dict) -> list:
    """The k-scaled antisymmetric matrix of reference polynomials."""
    m = [[{} for _ in range(4)] for _ in range(4)]
    for (i, j), e in upper.items():
        m[i][j] = _reference_mul(k, e)
        m[j][i] = {mono: -c for mono, c in m[i][j].items()}
    return m


def _reference_engine_jacobiator(m: list) -> dict:
    """The scaled expansion of ``_reference_jacobiator``, on reference polynomials."""
    partials = [
        [[_reference_differentiate(m[i][j], v) for v in range(4)] for j in range(4)]
        for i in range(4)
    ]
    out = {}
    for (i, j, k) in TRIPLES:
        total: dict = {}
        for l in range(4):
            for a, (b, c) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                total = _reference_add(total, _reference_mul(m[a][l], partials[b][c][l]))
        out[(i, j, k)] = total
    return out


def _reference_contraction_vanishes(upper: dict, c: dict) -> bool:
    """Whether sum_j pi^{ij} d_j c is zero for every i (unscaled, as casimir_check)."""
    m = _reference_matrix(upper, {(0, 0, 0, 0, 0): Fraction(1)})
    grad = [_reference_differentiate(c, v) for v in range(4)]
    for row in m:
        total: dict = {}
        for e, d in zip(row, grad):
            total = _reference_add(total, _reference_mul(e, d))
        if total:
            return False
    return True


class TestReferenceEnginePipeline:
    """flaschka_ratiu, is_poisson and casimir_check against the reference engine.

    The reference engine (``tests/test_expr.py``) keeps every coefficient a
    Fraction and expands the k-scaled Jacobiator as ``_reference_jacobiator``
    does, so the int coefficients, the shared keys and the Pfaffian route are
    all checked at once.
    """

    def strategies(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))
        coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
        poly = st.dictionaries(monomial, coeff, max_size=3).map(Expr)
        casimir = poly.filter(lambda e: not e.is_zero).map(
            lambda e: e if next(e.terms())[1] < 0 else -e
        )
        # A k with a denominator: 1/3, 2/3 or 1/5 times a polynomial with
        # coefficients +/-1 and +/-2, so no coefficient of k is whole.
        k = st.builds(
            lambda e, q: e * q,
            st.dictionaries(monomial, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2)
            .map(Expr),
            st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)]),
        )
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)
        settings = hypothesis.settings(
            max_examples=30, deadline=None, database=None, phases=phases
        )
        return hypothesis, st, poly, casimir, k, settings

    def test_drawn_pairs_and_bivectors(self):
        hypothesis, st, poly, casimir, k, settings = self.strategies()

        @settings
        @hypothesis.given(casimir, casimir, k, st.tuples(*[poly] * 6))
        def check(c1, c2, k, extra):
            assert all(type(c) is Fraction for _, c in k.terms())
            rc1, rc2, rk = map(_reference_terms, (c1, c2, k))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConformalFactorWarning)
                b = flaschka_ratiu(CasimirPair(c1, c2), k=k)
            want = _reference_bivector(rc1, rc2)
            for ij, e in b.upper_entries().items():
                assert dict(e.terms()) == want[ij]
                assert str(e) == _reference_str(want[ij])
                assert _int_exactly_when_integral(e)
            assert is_poisson(b).holds
            assert not any(_reference_engine_jacobiator(_reference_matrix(want, rk)).values())
            assert casimir_check(b, c1) and casimir_check(b, c2)
            assert _reference_contraction_vanishes(want, rc1)
            assert _reference_contraction_vanishes(want, rc2)

            # A bivector that is not the pair's: the Pfaffian term, witnesses
            # and failing Casimir checks.
            upper = {ij: e + x for (ij, e), x in zip(b.upper_entries().items(), extra)}
            other = Bivector.from_upper(upper, conformal=k)
            r_upper = {ij: _reference_terms(e) for ij, e in upper.items()}
            want_j = _reference_engine_jacobiator(_reference_matrix(r_upper, rk))
            got_j = jacobiator(other)
            via_expansion = _reference_jacobiator(other)
            for triple in TRIPLES:
                assert dict(got_j[triple].terms()) == want_j[triple]
                assert dict(via_expansion[triple].terms()) == want_j[triple]
                assert _int_exactly_when_integral(got_j[triple])
            verdict = is_poisson(other)
            failing = [t for t in TRIPLES if want_j[t]]
            if not failing:
                assert verdict.holds
            else:
                names = tuple(COORD_NAMES[i] for i in failing[0])
                assert verdict.witness_triple == names
                assert str(verdict.witness) == _reference_str(want_j[failing[0]])
            for c, rc in ((c1, rc1), (c2, rc2)):
                assert casimir_check(other, c) == _reference_contraction_vanishes(r_upper, rc)

        check()


def _numpy_probe(k: Expr) -> bool:
    """The grid probe as numpy runs it: (n, 4) batch, numpy's min and max."""
    axis = np.linspace(-2.0, 2.0, 10)
    grid = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
    values = k.evaluate_batch(grid.reshape(-1, 4), s=0.0)
    takes_both_signs = np.min(values) < 0.0 < np.max(values)
    nearly_zero = np.min(np.abs(values)) < 1e-9 * max(1.0, np.max(np.abs(values)))
    return bool(takes_both_signs or nearly_zero)


def _probe_warns(k: Expr) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        flaschka_ratiu(CUSP, k=k)
    assert all(w.category is ConformalFactorWarning for w in caught), caught
    return len(caught) == 1


def _power_product(var: str, n: int) -> str:
    """var^n as factors under the parser's exponent limit."""
    return "*".join([f"{var}^64"] * (n // 64) + [f"{var}^{n % 64}"])


class TestDet4Oracle:
    """det4, flaschka_ratiu and jacobiator against sympy, expanded."""

    def setup_method(self):
        self.sympy = sympy = pytest.importorskip("sympy")
        hypothesis = pytest.importorskip("hypothesis")
        self.hypothesis, self.st = hypothesis, hypothesis.strategies
        self.names = sympy.symbols("x y z t s")

    def poly(self, e: Expr):
        """e as a sympy Poly, built from its terms rather than its string."""
        sympy = self.sympy
        terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in e.terms()}
        return sympy.Poly.from_dict(terms, *self.names, domain=sympy.QQ)

    def exprs(self, min_size=0, max_size=1, top=2):
        st = self.st
        monomial = st.tuples(*[st.integers(0, top)] * 4, st.integers(0, 1))
        coeff = st.fractions(-5, 5, max_denominator=4).filter(bool)
        terms = st.dictionaries(monomial, coeff, min_size=min_size, max_size=max_size)
        return terms.map(Expr)

    def det(self, rows):
        """sympy's determinant of a 4x4 matrix given by rows, expanded.

        It is taken over the entries' polynomial ring (``to_DM``): the
        default ``Matrix.det`` took over 30 s on one matrix of two-term
        entries, and Berkowitz about 0.3 s on one of monomials.
        """
        m = self.sympy.Matrix(rows).to_DM()
        det = m.domain.to_sympy(m.det())
        return self.sympy.Poly(det, *self.names, domain=self.sympy.QQ)

    def given(self, examples, *strategies):
        # No shrink phase: each example costs a sympy determinant, and
        # shrinking a failure ran into hypothesis's 5-minute cap.
        phases = (self.hypothesis.Phase.explicit, self.hypothesis.Phase.generate)
        settings = self.hypothesis.settings(
            max_examples=examples, deadline=None, database=None, phases=phases
        )
        return lambda test: settings(self.hypothesis.given(*strategies)(test))

    def check_columns(self, columns, examples):
        @self.given(examples, columns)
        def check(columns):
            rows = [[self.poly(col[r]).as_expr() for col in columns] for r in range(4)]
            assert self.det(rows) == self.poly(det4(columns))

        check()

    def columns(self, min_size=0, max_size=1, top=2):
        return self.st.tuples(*[self.exprs(min_size, max_size, top)] * 4)

    def test_dense(self):
        # Monomials of degree at most one in each variable, so that products
        # in the expansion coincide and cancel.
        self.check_columns(self.st.tuples(*[self.columns(1, 1, top=1)] * 4), 20)

    def test_zero_entries(self):
        self.check_columns(self.st.tuples(*[self.columns()] * 4), 30)

    def test_zero_first_minors(self):
        # b[r] = q * a[r] on at least two rows, so the first minor vanishes on
        # each pair of them and det4 skips those terms.
        column = self.columns(1, 1)

        def build(a, q, rows, other, c, d):
            b = tuple(q * a[r] if r in rows else other[r] for r in range(4))
            return (a, b, c, d)

        rows = self.st.sets(self.st.integers(0, 3), min_size=2)
        columns = self.st.builds(build, column, self.exprs(1), rows, column, column, column)
        self.check_columns(columns, 15)

    def test_basis_first_columns(self):
        def basis(i):
            return tuple(Expr.one() if r == i else Expr.zero() for r in range(4))

        def build(order, c, d):
            return (basis(order[0]), basis(order[1]), c, d)

        column = self.columns(0, 3)
        self.check_columns(
            self.st.builds(build, self.st.permutations(range(4)), column, column), 30
        )

    def test_flaschka_ratiu(self):
        sympy = self.sympy
        coords = self.names[:4]

        def leading_negative(e: Expr) -> Expr:
            return e if next(e.terms())[1] < 0 else -e

        casimir = self.exprs(1, 3).map(leading_negative)

        @self.given(15, casimir, casimir)
        def check(c1, c2):
            b = flaschka_ratiu(CasimirPair(c1, c2))
            grads = [
                [sympy.diff(self.poly(c).as_expr(), v) for v in coords] for c in (c1, c2)
            ]
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                e_i, e_j = ([int(r == n) for r in range(4)] for n in (i, j))
                rows = [list(row) for row in zip(e_i, e_j, *grads)]
                assert self.det(rows) == self.poly(b.components[i][j])

        check()

    def test_jacobiator_on_non_decomposable_bivectors(self):
        # Six free entries with a nonzero Pfaffian, with and without k:
        # every component of the k-scaled Jacobiator, and is_poisson's
        # witness, the first nonzero component in TRIPLES order.
        coords = self.names[:4]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        upper = self.st.tuples(*[self.exprs(0, 3)] * 6).filter(
            lambda e: not (e[0] * e[5] - e[1] * e[4] + e[2] * e[3]).is_zero
        )
        k = self.st.none() | self.exprs(1, 3)

        @self.given(60, upper, k)
        def check(upper, k):
            b = Bivector.from_upper(dict(zip(pairs, upper)), conformal=k)
            scale = self.poly(Expr.one() if k is None else k)
            pi = [[scale * self.poly(e) for e in row] for row in b.components]
            want = {
                (i, j, l): sum(
                    (
                        pi[i][m] * pi[j][l].diff(coords[m])
                        + pi[j][m] * pi[l][i].diff(coords[m])
                        + pi[l][m] * pi[i][j].diff(coords[m])
                        for m in range(4)
                    ),
                    self.poly(Expr.zero()),
                )
                for (i, j, l) in TRIPLES
            }
            got = jacobiator(b)
            assert {t: self.poly(e) for t, e in got.items()} == want
            verdict = is_poisson(b)
            nonzero = [t for t in TRIPLES if not want[t].is_zero]
            if not nonzero:
                assert verdict.holds and verdict.witness is None
            else:
                assert verdict.witness_triple == tuple(COORD_NAMES[i] for i in nonzero[0])
                assert self.poly(verdict.witness) == want[nonzero[0]]

        check()


class TestProbe:
    def test_axis_is_numpy_linspace_bit_for_bit(self):
        axis = np.linspace(-2.0, 2.0, 10)
        assert np.array(_PROBE_AXIS).tobytes() == axis.tobytes()

    @pytest.mark.parametrize(
        "text",
        K_VALUES + ["1", "x^2 + y^2 + z^2 + t^2", "t", "t - 2", "x + 5/2", "s - 1"],
    )
    def test_verdict_matches_numpy(self, text):
        k = parse(text)
        assert _probe_warns(k) == _numpy_probe(k)

    def test_verdict_matches_numpy_on_random_factors(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 3)] * 4, st.just(0))
        coeff = st.fractions(-100, 100, max_denominator=12)
        poly = st.dictionaries(monomial, coeff, min_size=1, max_size=5).map(Expr)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(poly.filter(lambda e: not e.is_zero))
        def check(k):
            assert _probe_warns(k) == _numpy_probe(k)

        check()

    def test_every_call_warns(self):
        k = parse("x + 1/3")
        assert _probe_warns(k) and _probe_warns(k)
        assert _probe_warns(parse("x + 1/3"))

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "0" * 400 + "*x + 1",  # an int beyond the float range
            "1" + "0" * 400,
            _power_product("x", 1088) + " + 1",  # a float power that overflows
            # x^520*y^520 is inf, so this is inf - inf = NaN where x = y = z = 2
            f"{_power_product('x', 520)}*{_power_product('y', 520)}"
            f" - {_power_product('x', 520)}*{_power_product('z', 520)} + 1",
        ],
    )
    def test_overflow_or_nan_warns(self, text):
        assert _probe_warns(parse(text))


class TestCasimirCheck:
    def test_both_casimirs_annihilated(self):
        b = flaschka_ratiu(CUSP)
        assert casimir_check(b, CUSP.c1)
        assert casimir_check(b, CUSP.c2)

    def test_non_casimir(self):
        assert not casimir_check(flaschka_ratiu(CUSP), parse("x"))

    def test_annihilation_for_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c1, c2 = _random_pair(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2))
            assert casimir_check(b, c1)
            assert casimir_check(b, c2)
            # and any polynomial in the Casimirs is again a Casimir
            assert casimir_check(b, c1 * c2 + c2)


class TestRank:
    def test_cusp_critical_point(self):
        assert rank_at(flaschka_ratiu(CUSP), Point4(1, 0, 0, 1)) == 0

    def test_cusp_regular_point(self):
        assert rank_at(flaschka_ratiu(CUSP), Point4(0, 1, 0, 0)) == 2

    def test_wrinkle_regular_point(self):
        b = flaschka_ratiu(WRINKLE)
        assert rank_at(b, Point4(1, 1, 0, 0, s=0.0)) == 2

    def test_never_rank_four(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c1, c2 = _random_pair(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2))
            p = Point4(*rng.uniform(-2, 2, size=4), s=rng.uniform(-1, 1))
            assert rank_at(b, p) <= 2

    def test_rank_is_conformal_invariant(self):
        rng = np.random.default_rng(17)
        k = parse("1 + x^2 + y^2 + z^2 + t^2")
        plain = flaschka_ratiu(CUSP)
        scaled = flaschka_ratiu(CUSP, k=k)
        for _ in range(50):
            p = Point4(*rng.uniform(-2, 2, size=4))
            assert rank_at(plain, p) == rank_at(scaled, p)

    def test_degenerate_k_warns(self):
        with pytest.warns(ConformalFactorWarning):
            b = flaschka_ratiu(CUSP, k=parse("x"))
        with pytest.warns(ConformalFactorWarning):
            rank_at(b, Point4(0, 1, 1, 1))


def _reference_rank(m: np.ndarray) -> int:
    """The numeric rank by numpy's SVD, as ``rank_at`` once computed it."""
    scale = max(float(np.max(np.abs(m))), 1e-300)
    sv = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(sv > RANK_RELATIVE_THRESHOLD * scale))
    return rank - (rank % 2)  # antisymmetric matrices have even rank


def _exact_rank(upper) -> int:
    """The rank at the cutoff tau, decided on the float entries as rationals.

    s1^2 and s2^2 are the roots of q(l) = l^2 - F*l + Pf^2, so s2 > tau iff
    q(tau^2) > 0 and tau^2 < F/2, and s1 > tau iff tau^2 < F/2 or
    q(tau^2) < 0.  tau is the threshold times max|entry| floored at 1e-300.
    """
    e = [Fraction(v) for v in upper]
    tau2 = (Fraction(RANK_RELATIVE_THRESHOLD) * max(*map(abs, e), Fraction(1e-300))) ** 2
    f = sum(v * v for v in e)
    pf = e[0] * e[5] - e[1] * e[4] + e[2] * e[3]
    q = tau2 * tau2 - f * tau2 + pf * pf
    return 2 * (tau2 < f / 2 or q < 0) + 2 * (q > 0 and tau2 < f / 2)


def _matrix(upper) -> np.ndarray:
    m = np.zeros((4, 4))
    for (i, j), v in zip(COORD_PAIRS, upper):
        m[i, j], m[j, i] = v, -v
    return m


def _two_plane_upper(rng, s1: float, s2: float) -> tuple[float, ...]:
    """Upper entries of s1*(u^v) + s2*(w^x) for a random orthonormal u, v, w, x.

    Its singular values are s1, s1, s2, s2; the entries are the floats
    nearest those products, so the exact matrix is within rounding of that.
    """
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    u, v, w, x = q.T
    return tuple(
        float(s1 * (u[i] * v[j] - u[j] * v[i]) + s2 * (w[i] * x[j] - w[j] * x[i]))
        for i, j in COORD_PAIRS
    )


class TestClosedFormRank:
    """``_rank`` against the SVD it replaced and an exact verdict."""

    SCALES = (1e-305, 1e-300, 1e-290, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300)
    # s2 as a multiple of the cutoff tau; 0 is an exact rank-2 construction.
    RATIOS = (0.0, 1e-7, 0.5, 1 - 1e-4, 1 - 1e-5 * 1.01, 1 + 1e-5 * 1.01,
              1 + 1e-4, 2.0, 1e3, 1e9)

    def _agree(self, upper, s2_over_tau=None):
        want = _exact_rank(upper)
        assert _rank(upper) == want, (upper, s2_over_tau)
        assert _reference_rank(_matrix(upper)) == want, (upper, s2_over_tau)
        return want

    def test_zero_matrix(self):
        assert self._agree((0.0,) * 6) == 0
        assert self._agree((-0.0, 0.0, -0.0, 0.0, 0.0, -0.0)) == 0

    def test_subnormal_entries(self):
        # Below the 1e-300 floor every entry is negligible.
        for upper in [(5e-324, 0, 0, 0, 0, 0), (1e-310, -3e-315, 0, 2e-320, 0, 1e-310)]:
            assert self._agree(upper) == 0
        # A subnormal part beside normal entries: rank 2 or 4 by the cutoff.
        assert self._agree((1e-300, 0, 0, 0, 0, 1e-310)) == 2
        assert self._agree((1e-300, 0, 0, 0, 0, 2e-308)) == 4

    def test_exact_rank_two(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, c = rng.integers(-9, 10, size=(2, 4))
            scale = 2.0 ** int(rng.integers(-1000, 1000))
            upper = tuple(
                float(a[i] * c[j] - a[j] * c[i]) * scale for i, j in COORD_PAIRS
            )
            assert self._agree(upper) == (2 if any(upper) else 0)

    def test_two_planes_across_scales(self):
        # Wherever s2 lies outside tau * (1 +/- 1e-5), the closed form, the
        # SVD and the exact verdict agree.  Inside that band both float
        # methods carry a relative error of about 1e-7 and may differ.
        rng = np.random.default_rng(43)
        checked = 0
        for scale in self.SCALES:
            for ratio in self.RATIOS:
                for _ in range(12):
                    # tau = 1e-9 * max(max|entry|, 1e-300); max|entry| is at
                    # most s1 and rarely far below it.
                    probe = _two_plane_upper(rng, scale, 0.0)
                    tau = RANK_RELATIVE_THRESHOLD * max(max(map(abs, probe)), 1e-300)
                    upper = _two_plane_upper(rng, scale, ratio * tau)
                    big = max(max(map(abs, upper)), 1e-300)
                    s2_over_tau = ratio * tau / (RANK_RELATIVE_THRESHOLD * big)
                    if abs(s2_over_tau - 1) <= 1e-5:
                        continue
                    self._agree(upper, s2_over_tau)
                    checked += 1
        assert checked > 800

    def test_non_finite_entry_raises(self):
        # At x = 1e10, k = 1e300 and k * 2z = 2e310 is inf; at x = 1e11 the
        # power x^30 itself overflows.
        b = flaschka_ratiu(CUSP, k=parse("3 + x^30"))
        for p in (Point4(1e10, 1, 1e10, 1), Point4(1e11, 1, 1, 1)):
            with pytest.raises(OverflowError):
                _upper_at(b, p)

    def test_matches_the_matrix_entries(self):
        b = flaschka_ratiu(WRINKLE, k=parse("1 + x^2 + y^2 + z^2 + t^2"))
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = Point4(*rng.uniform(-2, 2, size=4), s=rng.uniform(-1, 1))
            m = bivector_matrix_at(b, p)
            assert _upper_at(b, p) == tuple(float(m[i, j]) for i, j in COORD_PAIRS)
            upper = [float(m[i, j]) for i, j in COORD_PAIRS]
            assert rank_at(b, p) == _rank(upper) == _reference_rank(m)


class TestHamiltonianField:
    def test_coordinate_hamiltonian(self):
        x_field = hamiltonian_field(flaschka_ratiu(CUSP), parse("x"))
        assert tuple(map(str, x_field)) == ("0", "-2*z", "-2*y", "0")

    def test_constant_hamiltonian(self):
        field = hamiltonian_field(flaschka_ratiu(CUSP), parse("9/4"))
        assert all(e.is_zero for e in field)

    def test_casimir_hamiltonian_vanishes(self):
        field = hamiltonian_field(flaschka_ratiu(CUSP), CUSP.c2)
        assert all(e.is_zero for e in field)

    def test_field_matches_pointwise_contraction(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c1, c2 = _random_pair(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2))
            h = _random_polynomial(rng, degree=3)
            field = hamiltonian_field(b, h)
            p = Point4(*rng.uniform(-1.5, 1.5, size=4), s=rng.uniform(-1, 1))
            m = bivector_matrix_at(b, p)
            dh = np.array([h.differentiate(v).evaluate(p) for v in _vars()])
            want = m @ dh
            got = np.array([e.evaluate(p) for e in field])
            assert np.allclose(got, want, rtol=1e-10, atol=1e-9)


def _work_limit_cases():
    """(id, function, argument) of every bracket-layer call the work limit guards."""
    k = parse("1 + x^2 + y^2 + z^2 + t^2")
    cases = []
    for name in MODEL_NAMES:
        cas = model(name, 1 if model(name).uses_s else None).casimirs
        b = flaschka_ratiu(cas)
        cases += [
            (f"flaschka_ratiu {name}", flaschka_ratiu, cas),
            (f"jacobiator {name}", jacobiator, b),
            (f"casimir_check {name}", lambda b, c=cas.c1: casimir_check(b, c), b),
            (f"hamiltonian_field {name}", lambda b: hamiltonian_field(b, parse("x*y + z*t")), b),
        ]
    scaled = Bivector.from_upper(non_poisson_example().upper_entries(), conformal=k)
    cases.append(("jacobiator with k, J and Pf nonzero", jacobiator, scaled))
    # The k products are the larger set of sums: 35 * 5 term products,
    # against the contraction's 5.
    scaled = flaschka_ratiu(CUSP, parse("(2 + x^2 + y^2 + z^2 + t^2)^3"))
    cases.append(("hamiltonian_field with k", lambda b: hamiltonian_field(b, parse("x + y")), scaled))
    one, zero = Expr.one(), Expr.zero()
    columns = [(one, zero, zero, zero), (zero, one, zero, zero)]
    columns += [gradient(WRINKLE.c1).entries, gradient(WRINKLE.c2).entries]
    cases.append(("det4", det4, columns))
    return cases


class TestWorkLimit:
    """Each set of sums is refused before it is formed when it would pass the limit."""

    @staticmethod
    def _works(monkeypatch, function, argument) -> list[int]:
        """The term products of each ``_sums_of_products`` call ``function`` makes."""
        works = []
        kernel = poisson_module._sums_of_products

        def counting(n, products):
            products = list(products)
            works.append(sum(len(a) * len(b) for _, _, a, b in products))
            return kernel(n, products)

        with monkeypatch.context() as patch:
            patch.setattr(poisson_module, "_sums_of_products", counting)
            function(argument)
        return works

    @pytest.mark.parametrize(
        "function,argument",
        [case[1:] for case in _work_limit_cases()],
        ids=[case[0] for case in _work_limit_cases()],
    )
    def test_the_largest_set_of_sums_meets_the_limit(self, monkeypatch, function, argument):
        want = function(argument)
        largest = max(self._works(monkeypatch, function, argument))
        monkeypatch.setattr(poisson_module, "MAX_BRACKET_PRODUCTS", largest)
        assert function(argument) == want
        monkeypatch.setattr(poisson_module, "MAX_BRACKET_PRODUCTS", largest - 1)
        over = f" would take {largest} term products, over the work limit {largest - 1}$"
        with pytest.raises(WorkLimitError, match=over):
            function(argument)

    def test_each_stage_is_named(self, monkeypatch):
        monkeypatch.setattr(poisson_module, "MAX_BRACKET_PRODUCTS", 0)
        for stage, call in [
            ("the 2x2 minors", lambda: flaschka_ratiu(WRINKLE)),
            ("the Jacobiator", lambda: jacobiator(non_poisson_example())),
            ("the contraction with a gradient", lambda: casimir_check(non_poisson_example(), parse("x"))),
        ]:
            with pytest.raises(WorkLimitError, match=f"^{stage} would take [1-9][0-9]* term products"):
                call()
        # With h = x + y, 5 products in the contraction and 3 * 5 with k.
        monkeypatch.setattr(poisson_module, "MAX_BRACKET_PRODUCTS", 12)
        b = flaschka_ratiu(CUSP, parse("1 + x^2 + y^2"))
        for stage, call in [
            ("the contraction with a gradient", lambda: hamiltonian_field(b, parse("(x + y + z)^2"))),
            ("k times the field", lambda: hamiltonian_field(b, parse("x + y"))),
        ]:
            with pytest.raises(WorkLimitError, match=f"^{stage} would take [1-9][0-9]* term products"):
                call()

    def test_the_limit_and_the_pair_just_past_it(self):
        # One constant, in expr beside the parser's limits; the pair that the
        # CLI corpus pins past it is refused at its Jacobiator.
        assert poisson_module.MAX_BRACKET_PRODUCTS == expr_module.MAX_BRACKET_PRODUCTS == 10_000_000
        assert issubclass(WorkLimitError, ArithmeticError)
        assert {"WorkLimitError", "MAX_BRACKET_PRODUCTS"} <= set(expr_module.__all__)
        b = flaschka_ratiu(CasimirPair(parse("(x+y+z+t+1)^6"), parse("(x-y+2*z-t+3)^6")))
        with pytest.raises(WorkLimitError, match="^the Jacobiator would take 15758288 term products"):
            is_poisson(b)


class TestLinearPart:
    def test_cusp_structure_constants(self):
        sc = linear_part(flaschka_ratiu(CUSP))
        assert sc.linear[(0, 1)] == parse("2*z")
        assert sc.linear[(0, 2)] == parse("2*y")
        assert sc.linear[(1, 2)] == parse("3*t")
        assert sc.constant(0, 1, "z") == Expr.constant(2)
        assert sc.constant(1, 0, "z") == Expr.constant(-2)
        assert all(sc.bracket(i, i) == Expr.zero() for i in range(4))
        assert not sc.dropped

    def test_wrinkle_at_zero_parameter(self):
        b = flaschka_ratiu(
            CasimirPair(
                WRINKLE.c1.substitute_s(0), WRINKLE.c2.substitute_s(0)
            )
        )
        assert linear_part(b).is_trivial()

    def test_wrinkle_symbolic_parameter_is_not_trivial(self):
        sc = linear_part(flaschka_ratiu(WRINKLE))
        assert sc.linear[(0, 1)] == parse("-2*s*y")

    def test_birth_drops_constant(self):
        birth = CasimirPair(parse("t"), parse("x^3 - 3*x*(t^2 - s) + y^2 - z^2"))
        with pytest.warns(DroppedConstantWarning):
            sc = linear_part(flaschka_ratiu(birth))
        assert sc.linear[(0, 1)] == parse("2*z")
        assert sc.linear[(0, 2)] == parse("2*y")
        assert sc.linear[(1, 2)].is_zero
        assert sc.dropped[(1, 2)] == parse("-3*s")

    def test_requires_unit_conformal(self):
        b = flaschka_ratiu(CUSP, k=parse("1 + x^2"))
        with pytest.raises(ValueError):
            linear_part(b)


class TestKeptPartials:
    """C1, C2, k and h are differentiated once, and no call changes them."""

    def test_gradient_is_the_kept_partials(self):
        for e in (CUSP.c1, CUSP.c2, parse("x^2*y - 3/2*z*t*s"), Expr.zero()):
            assert gradient(e).entries == e.partials()
            assert gradient(e).entries is e.partials()

    @pytest.mark.filterwarnings("ignore::poisson4.poisson.ConformalFactorWarning")
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_inputs_and_their_partials_are_unchanged(self, name):
        cas = model(name).casimirs
        k = parse(K_WITH_DENOMINATORS + " + s*x^2")
        h = parse("x*y - 2/3*t^3 + s*z")
        inputs = (cas.c1, cas.c2, k, h)
        kept = [e.partials() for e in inputs]

        def snapshot():
            return [
                (_typed_terms(e), [_typed_terms(d) for d in e.partials()]) for e in inputs
            ]

        before = snapshot()
        for conformal in (None, k):
            b = flaschka_ratiu(cas, k=conformal)
            entries = [_typed_terms(e) for row in b.components for e in row]
            is_poisson(b)
            assert casimir_check(b, cas.c1) and casimir_check(b, cas.c2)
            casimir_check(b, h)
            hamiltonian_field(b, h)
            hamiltonian_field(b, cas.c1)
            assert [_typed_terms(e) for row in b.components for e in row] == entries
        assert snapshot() == before
        assert all(e.partials() is d for e, d in zip(inputs, kept))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bivector_entries_keep_no_partials(self, name):
        cas = model(name).casimirs
        for conformal in (None, parse(K_TEXT)):
            b = flaschka_ratiu(cas, k=conformal)
            assert is_poisson(b)
            jacobiator(b)
            assert all(e._partials is None for row in b.components for e in row)

    def test_pickle_and_copy_after_rank_at_and_is_poisson(self):
        b = flaschka_ratiu(CUSP, k=parse(K_TEXT))
        p = Point4(0.5, -0.25, 1.0, 0.75)
        rank = rank_at(b, p)
        assert is_poisson(b)
        for copied in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert copied == b and copied.casimirs == b.casimirs
            for row, copied_row in zip(b.components, copied.components):
                assert [hash(e) for e in copied_row] == [hash(e) for e in row]
            assert hash(copied.conformal) == hash(b.conformal)
            assert bivector_to_json_dict(copied) == bivector_to_json_dict(b)
            assert rank_at(copied, p) == rank and _upper_at(copied, p) == _upper_at(b, p)
            assert is_poisson(copied)


class TestBivectorType:
    def test_only_the_upper_triangle_is_stored(self):
        assert Bivector.__slots__ == ("upper", "conformal", "casimirs", "_longest")
        assert not hasattr(Bivector, "_trusted")
        b = flaschka_ratiu(CUSP)
        assert b.upper == tuple(b.components[i][j] for i, j in COORD_PAIRS)
        assert b.upper_entries() == dict(zip(COORD_PAIRS, b.upper))

    def test_no_entry_is_negated(self, monkeypatch):
        # Every sum reads the six stored entries and folds the sign of an
        # entry below the diagonal into its product.
        k, h = parse("1 + x^2 + y^2 + z^2 + t^2"), parse("x + y*z")
        p = Point4(0.1, 0.2, 0.3, 0.4, 0.5)
        negations = []
        negate = Expr.__neg__
        monkeypatch.setattr(Expr, "__neg__", lambda e: negations.append(e) or negate(e))
        _flow_kernel.cache_clear()
        for factor in (None, k):
            b = flaschka_ratiu(WRINKLE, factor)
            assert is_poisson(b)
            assert casimir_check(b, WRINKLE.c1) and casimir_check(b, WRINKLE.c2)
            hamiltonian_field(b, h)
            flow(b, h, p, 1e-3, 3)
        assert negations == []

    def test_antisymmetry_enforced(self):
        rows = [[Expr.zero()] * 4 for _ in range(4)]
        rows[0][1] = parse("x")
        rows[1][0] = parse("x")  # wrong sign
        with pytest.raises(ValueError):
            Bivector(rows)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (5, 5)])
    def test_a_matrix_that_is_not_4x4_is_refused(self, shape):
        rows = [[Expr.zero()] * shape[1] for _ in range(shape[0])]
        with pytest.raises(ValueError, match="^components must be a 4x4 matrix of Expr$"):
            Bivector(rows)

    def test_equality_with_another_type_is_false(self):
        b = flaschka_ratiu(CUSP)
        assert (b == 1) is False and (b != 1) is True
        assert b == flaschka_ratiu(CUSP)

    def test_json_of_another_chart_is_refused(self):
        data = bivector_to_json_dict(flaschka_ratiu(CUSP))
        data["coords"] = ["t", "z", "y", "x"]
        with pytest.raises(ValueError, match="^unsupported coordinate chart"):
            bivector_from_json_dict(data)

    def test_json_round_trip(self):
        b = flaschka_ratiu(CUSP, k=parse("1 + t^2"))
        data = bivector_to_json_dict(b)
        assert list(data) == ["coords", "k", "matrix"]
        restored = bivector_from_json_dict(data)
        assert restored.components == b.components
        assert restored.conformal == b.conformal

    def test_antisymmetry_for_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c1, c2 = _random_pair(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2))
            for i in range(4):
                assert b.components[i][i].is_zero
                for j in range(4):
                    assert b.components[i][j] == -b.components[j][i]

    def test_jacobiator_vanishes_with_even_k(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            c1, c2 = _random_pair(rng)
            k = _random_even_k(rng)
            b = flaschka_ratiu(CasimirPair(c1, c2), k=k)
            assert is_poisson(b)


def _vars():
    from poisson4.expr import VARS

    return VARS


def _random_polynomial(rng, degree=4, max_terms=5) -> Expr:
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = [0, 0, 0, 0, 0]
        for _ in range(rng.integers(0, degree + 1)):
            exps[rng.integers(0, 5)] += 1
        coeff = Fraction(int(rng.integers(-4, 5)))
        if coeff:
            mono = tuple(exps)
            terms[mono] = terms.get(mono, 0) + coeff
    e = Expr(terms)
    return e if not e.is_zero else Expr.one()


def _random_pair(rng) -> tuple[Expr, Expr]:
    return _random_polynomial(rng), _random_polynomial(rng)


def _random_even_k(rng) -> Expr:
    # 1 + a sum of even monomials: positive on all of R^4, so non-vanishing.
    terms = {(0, 0, 0, 0, 0): Fraction(1)}
    for _ in range(rng.integers(1, 4)):
        exps = [0, 0, 0, 0, 0]
        exps[rng.integers(0, 4)] = 2 * int(rng.integers(1, 3))
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + Fraction(int(rng.integers(1, 4)))
    return Expr(terms)
