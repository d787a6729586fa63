"""Tests for bivector construction and the symbolic Poisson checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from poisson4.expr import COORD_NAMES, VARS, Expr, Point4, parse
from poisson4.models import MODEL_NAMES, model
from poisson4.poisson import (
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
    flaschka_ratiu,
    gradient,
    hamiltonian_field,
    is_poisson,
    jacobiator,
    linear_part,
    rank_at,
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
        with pytest.warns(ConformalFactorWarning):
            flaschka_ratiu(CUSP, k=parse("x"))

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
