"""Tests for bivector construction and the symbolic Poisson checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from poisson4.expr import COORD_NAMES, VARS, Expr, Point4, parse
from poisson4.models import MODEL_NAMES, model
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
    _rank_of_matrix,
    _upper_at,
)

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
    """det4 and flaschka_ratiu against sympy's determinant, expanded."""

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
            assert rank_at(b, p) == _rank_of_matrix(m) == _reference_rank(m)


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


class TestLinearPart:
    def test_cusp_structure_constants(self):
        sc = linear_part(flaschka_ratiu(CUSP))
        assert sc.linear[(0, 1)] == parse("2*z")
        assert sc.linear[(0, 2)] == parse("2*y")
        assert sc.linear[(1, 2)] == parse("3*t")
        assert sc.constant(0, 1, "z") == Expr.constant(2)
        assert sc.constant(1, 0, "z") == Expr.constant(-2)
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


class TestBivectorType:
    def test_antisymmetry_enforced(self):
        rows = [[Expr.zero()] * 4 for _ in range(4)]
        rows[0][1] = parse("x")
        rows[1][0] = parse("x")  # wrong sign
        with pytest.raises(ValueError):
            Bivector(rows)

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
