"""Tests for the exact polynomial engine."""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from poisson4.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    MAX_TERMS,
    Expr,
    ParseError,
    Point4,
    Var,
    _Parser,
    parse,
)


class TestParse:
    def test_cusp_chart_polynomial(self):
        e = parse("x^3 - 3*x*t + y^2 - z^2")
        assert len(e) == 4
        x, y, z, t = (Expr.variable(v) for v in "xyzt")
        assert e == x**3 - 3 * x * t + y**2 - z**2

    def test_zero(self):
        assert parse("0").is_zero
        assert len(parse("0")) == 0

    def test_distributes_over_parentheses(self):
        e = parse("2*(t*x + y*z)")
        assert len(e) == 2
        assert e == parse("2*t*x + 2*y*z")

    def test_rational_literals(self):
        assert parse("7/2").evaluate(Point4(0, 0, 0, 0)) == 3.5
        assert parse("3/6") == parse("1/2")

    def test_unary_minus(self):
        assert parse("-x^2 + x^2").is_zero
        assert parse("- (x + y)") == parse("-x - y")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse("2x")
        with pytest.raises(ParseError):
            parse("x y")

    def test_error_reports_column(self):
        with pytest.raises(ParseError) as info:
            parse("x + * y")
        assert info.value.column == 5

    def test_exponent_limit(self):
        parse(f"x^{MAX_EXPONENT}")
        with pytest.raises(ParseError):
            parse(f"x^{MAX_EXPONENT + 1}")

    def test_nesting_limit(self):
        parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING)
        parse("-" * MAX_NESTING + "x")
        for text in (
            "(" * 3000 + "x" + ")" * 3000,
            "-" * 3000 + "x",
            "-(" * 1500 + "x" + ")" * 1500,
        ):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.column == MAX_NESTING + 1

    def test_power_term_budget(self):
        # (x+y+z+t+s)^24 has C(28, 24) = 20475 terms: refused unexpanded.
        with pytest.raises(ParseError) as info:
            parse("(x+y+z+t+s)^24")
        assert info.value.column == 13
        assert "20475" in str(info.value)
        assert len(parse("(x+y+z+t+s)^8")) == math.comb(12, 8)
        assert len(parse("(x + 1)^64")) == 65

    def test_product_term_budget(self):
        a = "(" + " + ".join(f"x^{i}" for i in range(40)) + ")"
        b = "(" + " + ".join(f"y^{j}" for j in range(25)) + ")"
        assert 40 * 25 == MAX_TERMS
        assert len(parse(a + "*" + b)) == MAX_TERMS
        wider = b[:-1] + " + z)"
        with pytest.raises(ParseError) as info:
            parse(a + "*" + wider)
        assert info.value.column == len(a) + 1
        # The budget is the parser's: Expr arithmetic itself is unbounded.
        assert len(parse(a) * parse(wider)) == 40 * 26

    def test_parse_work_budget(self):
        # (x+y+z)^43 has 990 terms, within MAX_TERMS, and takes 69,933 term
        # products, the most of any power of x+y+z that MAX_TERMS admits.  A
        # second copy in the same parse crosses MAX_TERM_PRODUCTS at its own
        # exponent; each copy took about 0.4 s.
        one = "(x+y+z)^43"
        parser = _Parser(one)
        assert len(parser.parse()) == 990
        assert parser.products == 69_933 <= MAX_TERM_PRODUCTS
        with pytest.raises(ParseError) as info:
            parse(one + " + " + one)
        assert info.value.column == len(one + " + (x+y+z)^") + 1
        assert f"more than {MAX_TERM_PRODUCTS} term products" in str(info.value)

    def test_flat_sum_parses_in_linear_time(self):
        # 2000 distinct monomials joined by signs: rebuilding the running sum
        # at each sign took about 9 s; summing into one dict takes well
        # under a second.
        terms = [f"{i % 7 + 1}*x^{i // 45}*y^{i % 45}" for i in range(2000)]
        signs = [" - " if i % 3 else " + " for i in range(2000)]
        text = "".join(sign + t for sign, t in zip(signs, terms))[3:]
        start = time.process_time()
        value = parse(text)
        assert time.process_time() - start < 1.0
        parts = [parse(t) for t in terms]
        parts = [-e if sign == " - " else e for sign, e in zip(signs, parts)]
        while len(parts) > 1:  # pairwise, so the reference sum is quick too
            pairs = zip(parts[::2], parts[1::2] + [Expr.zero()])
            parts = [a + b for a, b in pairs]
        assert value == parts[0]
        assert len(value) == 2000

    def test_sum_cancels_and_matches_expr_arithmetic(self):
        assert parse("x + y - x - y").is_zero
        assert parse("x - (x - 1/2) + y^2 - 2*y^2") == Expr.constant(
            Fraction(1, 2)
        ) - parse("y^2")
        assert parse("-x + 3*x") == 2 * parse("x")

    def test_division_only_in_rationals(self):
        with pytest.raises(ParseError):
            parse("x/2")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(x + y")


class TestDifferentiate:
    def test_cusp_x_derivative(self):
        e = parse("x^3 - 3*x*t + y^2 - z^2")
        assert e.differentiate(Var.X) == parse("3*x^2 - 3*t")

    def test_constant_derivative_is_zero(self):
        assert parse("5/3").differentiate(Var.T).is_zero

    def test_flip_x_derivative(self):
        e = parse("x^4 - x^2*s + x*t + y^2 - z^2")
        assert e.differentiate(Var.X) == parse("4*x^3 - 2*x*s + t")

    def test_s_is_not_a_var(self):
        assert len(Var) == 4
        assert all(v.name_lower in "xyzt" for v in Var)
        with pytest.raises(TypeError):
            parse("s^2").differentiate("s")


class TestEvaluate:
    def test_on_critical_arc(self):
        # 3t - 3x^2 vanishes where x^2 = t
        assert parse("3*t - 3*x^2").evaluate(Point4(1, 0, 0, 1)) == 0.0

    def test_constant(self):
        assert parse("7/2").evaluate(Point4(9, -2, 4, 100)) == 3.5

    def test_linear(self):
        assert parse("2*z").evaluate(Point4(0, 1, 1, 1)) == 2.0

    def test_s_binding(self):
        e = parse("s*t + x")
        assert e.evaluate(Point4(1, 0, 0, 2, s=3)) == 7.0
        assert e.evaluate(Point4(1, 0, 0, 2)) == 1.0

    def test_batch_matches_scalar(self):
        # Both run the compiled closure. numpy's vectorised power can differ
        # from the C library's pow() in the last bit (x**3 at about 3% of
        # random arguments, numpy 2.4), so the values must be equal where
        # every power is exact and close elsewhere.
        rng = np.random.default_rng(7)
        exact = np.array(list(product((-0.0, 0.0, 0.5, -1.5), repeat=4)))
        inexact = rng.uniform(-2, 2, size=(40, 4))
        for text in ("x^3 - 3*x*t + y^2 - z^2 + s*x", "-y*z + 1/3*t^2", "7/2", "0"):
            e = parse(text)
            for pts in (exact, inexact):
                batch = e.evaluate_batch(pts, s=0.5)
                assert batch.shape == (len(pts),) and batch.dtype == np.float64
                rows = [e.evaluate(Point4(*row, s=0.5)) for row in pts]
                if pts is exact:
                    assert np.array_equal(batch, rows), text
                else:
                    assert np.allclose(batch, rows, rtol=1e-13, atol=1e-13), text

    def test_compiled_matches_evaluate(self):
        e = parse("x^4 - x^2*s + x*t + y^2 - 7/2*z^2")
        f = e.compiled()
        p = Point4(0.3, -1.2, 0.9, 1.7, s=-0.4)
        assert math.isclose(f(*p.values()), e.evaluate(p), rel_tol=1e-14)


class TestEquality:
    def test_expansion(self):
        assert parse("x^3 - 3*x*(t^2 - s) + y^2 - z^2") == parse(
            "x^3 - 3*x*t^2 + 3*x*s + y^2 - z^2"
        )

    def test_distributivity(self):
        assert parse("3*(t - x^2)") == parse("3*t - 3*x^2")

    def test_distinct_monomials(self):
        assert parse("2*y") != parse("2*z")

    def test_scalar_comparison(self):
        assert parse("2 - 2") == 0
        assert parse("1/2 + 1/2") == 1


class TestCanonicalForm:
    def test_printing_is_graded_lex(self):
        assert str(parse("y^2 + x^3 - z^2 - 3*t*x")) == "x^3 - 3*x*t + y^2 - z^2"

    def test_zero_prints_as_zero(self):
        assert str(parse("x - x")) == "0"

    def test_substitute_s_exact(self):
        e = parse("x^3 - 3*x*(t^2 - s) + y^2 - z^2")
        assert e.substitute_s(0) == parse("x^3 - 3*x*t^2 + y^2 - z^2")
        assert e.substitute_s(Fraction(1, 2)) == parse(
            "x^3 - 3*x*t^2 + 3/2*x + y^2 - z^2"
        )


def _random_expr(rng: np.random.Generator, max_terms: int = 6, max_deg: int = 3) -> Expr:
    terms = {}
    for _ in range(rng.integers(0, max_terms + 1)):
        mono = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(5))
        coeff = Fraction(int(rng.integers(-1000, 1001)), int(rng.integers(1, 8)))
        terms[mono] = terms.get(mono, 0) + coeff
    return Expr(terms)


class TestAlgebraicProperties:
    """Randomised checks of the ring and calculus laws."""

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            e = _random_expr(rng)
            assert parse(str(e)) == e

    def test_leibniz_rule(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a, b = _random_expr(rng), _random_expr(rng)
            v = list(Var)[rng.integers(0, 4)]
            lhs = (a * b).differentiate(v)
            rhs = a.differentiate(v) * b + a * b.differentiate(v)
            assert lhs == rhs

    def test_evaluation_is_ring_homomorphism(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            a, b = _random_expr(rng), _random_expr(rng)
            p = Point4(*rng.uniform(-1.5, 1.5, size=4), s=rng.uniform(-1, 1))
            prod = (a * b).evaluate(p)
            split = a.evaluate(p) * b.evaluate(p)
            assert math.isclose(prod, split, rel_tol=1e-12, abs_tol=1e-9)

    def test_canonical_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = _random_expr(rng)
            assert Expr(dict(e.terms())) == e
            assert not any(c == 0 for _, c in e.terms())


def _reference_evaluate(e: Expr, point: Point4) -> float:
    """The graded-lex term loop that evaluated an Expr before the closures."""
    vals = point.values()
    total = 0.0
    for monomial, coeff in e.terms():
        term = float(coeff)
        for v, n in zip(vals, monomial):
            if n:
                term *= v**n
        total += term
    return total


def _same_value(found: float, want: float) -> bool:
    """Equal, and bit for bit unless the reference gives +0.0.

    The reference sums from 0.0, so it never gives -0.0; the closures give
    -0.0 wherever Python arithmetic does.
    """
    if want == 0.0 and math.copysign(1.0, want) == 1.0:
        return found == 0.0
    return repr(found) == repr(want)


def _evaluated_polynomials():
    """Every catalogue entry, k-scaled entry, gradient and Hamiltonian field."""
    from poisson4.models import MODEL_NAMES, model
    from poisson4.poisson import flaschka_ratiu, gradient, hamiltonian_field

    ks = [parse(k) for k in ("1 + x^2 + y^2 + z^2 + t^2", "x", "y*z - 1", "-3")]
    hs = [parse(h) for h in ("x", "x + y*z", "-y", "s*t - x^2")]
    for name in MODEL_NAMES:
        for s in (None, -1, 0, 1) if model(name).uses_s else (None,):
            spec = model(name, s)
            pair = spec.casimirs
            exprs = [pair.c1, pair.c2, *spec.critical_locus]
            for form in (spec.leaf_coefficient, spec.leaf_coefficient_chart):
                if form is not None:
                    exprs += [form.numerator, form.denominator]
            entries = list(spec.expected_bivector.upper_entries().values())
            exprs += entries + [k * e for k in ks for e in entries] + ks
            for c in (pair.c1, pair.c2, *hs):
                exprs += list(gradient(c))
            b = flaschka_ratiu(pair)
            for h in hs:
                exprs += list(hamiltonian_field(b, h))
            yield name, s, exprs


class TestOneEvaluator:
    def test_evaluate_matches_the_term_loop_at_signed_zeros(self):
        coords = (-0.0, 0.0, 0.5)
        checked = 0
        for name, s, exprs in _evaluated_polynomials():
            for s_value in (-0.0, 0.0, 0.5) if s is None else (float(s),):
                points = [Point4(*c, s=s_value) for c in product(coords, repeat=4)]
                for e in exprs:
                    for p in points:
                        found, want = e.evaluate(p), _reference_evaluate(e, p)
                        assert _same_value(found, want), (name, s, str(e), p)
                        checked += 1
        assert checked > 100_000

    def test_evaluate_matches_the_term_loop_on_random_polynomials(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 3)] * 5)
        coeff = st.fractions(max_denominator=12).filter(lambda q: abs(q) < 10**6)
        coord = st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -1.0, 5e-324, 1e-200]),
            st.floats(-1e3, 1e3),
        )

        @hypothesis.settings(max_examples=250, deadline=None, database=None)
        @hypothesis.given(
            st.dictionaries(monomial, coeff, max_size=8),
            st.tuples(*[coord] * 5),
        )
        def check(terms, values):
            e, p = Expr(terms), Point4(*values)
            assert _same_value(e.evaluate(p), _reference_evaluate(e, p))

        check()
