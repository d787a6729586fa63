"""Tests for the exact polynomial engine."""

import copy
import math
import pickle
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from poisson4 import expr as expr_module
from poisson4.expr import (
    DEGREE_LIMIT,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    MAX_TERMS,
    VARS,
    DegreeLimitError,
    Expr,
    ParseError,
    Point4,
    Var,
    WorkLimitError,
    _fused_closure,
    _Parser,
    _integral,
    _pack,
    _partials,
    _sums_of_products,
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

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 1)])
    def test_batch_refuses_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 4\)"):
            parse("x + y").evaluate_batch(np.zeros(shape))

    def test_compiled_matches_evaluate(self):
        e = parse("x^4 - x^2*s + x*t + y^2 - 7/2*z^2")
        f = e.compiled()
        p = Point4(0.3, -1.2, 0.9, 1.7, s=-0.4)
        assert math.isclose(f(*p.values()), e.evaluate(p), rel_tol=1e-14)

    def test_a_sum_too_long_to_compile_is_a_work_limit_error(self, monkeypatch):
        # A sum of n terms compiles as n - 1 nested additions, and CPython's
        # compiler gives up on 20,000: 3.10-3.12 above about 3,000 terms,
        # 3.13 above about 10,000.  The refusal names the term count.  Its
        # monomials would fill most of the shared table, so it gets its own.
        monkeypatch.setattr(expr_module, "_SHARED_MONOMIALS", {})
        e = Expr({(i, j, 0, 0, 0): 1 for i in range(200) for j in range(100)})
        assert len(e) == 20_000
        message = "^a polynomial of 20000 terms is too long to compile$"
        with pytest.raises(WorkLimitError, match=message):
            e.evaluate(Point4(0, 0, 0, 0))
        assert e._compiled is None
        with pytest.raises(WorkLimitError, match=message):
            _fused_closure([parse("x"), e])


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

    @pytest.mark.parametrize(
        "text,scalar",
        [("0", 0), ("1", 1), ("-3", -3), ("1/2", Fraction(1, 2)),
         ("-7/3", Fraction(-7, 3)), ("x - x", 0), ("2/2", 1)],
    )
    def test_a_constant_hashes_as_the_scalar_it_equals(self, text, scalar):
        e = parse(text)
        assert e == scalar and hash(e) == hash(scalar)
        assert e in {scalar} and scalar in {e}
        assert {scalar: "value"}.get(e) == "value"
        assert {e: "value"}.get(scalar) == "value"
        assert len({e, scalar}) == 1

    def test_a_polynomial_hash_is_that_of_its_terms(self):
        e = parse("x + 1")
        assert hash(e) == hash(frozenset(e.terms()))
        assert hash(e) == hash(parse("1 + x"))


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


# -- the reference engine ------------------------------------------------------
#
# Polynomials as plain dicts of exponent tuples to nonzero Fractions, with the
# arithmetic written out term by term, as the engine did before it stored
# integral coefficients as ints.


def _reference_terms(e: Expr) -> dict:
    return {m: Fraction(c) for m, c in e.terms()}


def _reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _reference_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _reference_differentiate(a: dict, i: int) -> dict:
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in a.items() if m[i]}


def _reference_str(a: dict) -> str:
    """The printed form: descending graded lex, ``^`` powers, ``p/q`` rationals."""
    if not a:
        return "0"
    pieces = []
    for idx, m in enumerate(sorted(a, key=lambda m: (sum(m), m), reverse=True)):
        c = a[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip("xyzts", m) if e]
        if factors and abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = ("" if c > 0 else "-") if idx == 0 else (" + " if c > 0 else " - ")
        pieces.append(sign + body)
    return "".join(pieces)


def _keys_packed_and_shared(e: Expr) -> bool:
    """Each key of ``e`` packs the tuple ``terms()`` yields for it, the table's own."""
    table = expr_module._SHARED_MONOMIALS
    monomials = [m for m, _ in e.terms()]
    return sorted(e._terms, reverse=True) == list(map(_pack, monomials)) and all(
        table[_pack(m)] is m for m in monomials
    )


def _int_exactly_when_integral(e: Expr) -> bool:
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction) for _, c in e.terms()
    )


def _assert_matches(e: Expr, want: dict) -> None:
    assert dict(e.terms()) == want
    assert str(e) == _reference_str(want)
    assert _int_exactly_when_integral(e)


class TestReferenceEngine:
    """+, -, * and differentiate against the reference engine, on drawn polynomials."""

    def test_arithmetic_matches_the_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 2))
        coeff = st.one_of(
            st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)
        ).filter(bool)
        terms = st.dictionaries(monomial, coeff, max_size=5)

        def partner(a: dict, b: dict, mode: int) -> dict:
            # 0: independent; 1: -a, so a + b cancels to zero; 2: b shares
            # a's monomials with coefficients that cancel some of a's terms
            # or add up to whole numbers with them.
            if mode == 1:
                return {m: -c for m, c in a.items()}
            if mode == 2:
                out = dict(b)
                for n, (m, c) in enumerate(a.items()):
                    out[m] = -c if n % 2 else 1 - c
                return out
            return b

        cases = st.builds(
            lambda a, b, mode: (a, partner(a, b, mode)), terms, terms, st.integers(0, 2)
        )
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=300, deadline=None, database=None, phases=phases)
        @hypothesis.given(cases, st.sampled_from(list(Var)))
        def check(case, var):
            a_in, b_in = case
            a, b = Expr(a_in), Expr(b_in)
            ra, rb = _reference_terms(a), _reference_terms(b)
            assert ra == {m: Fraction(c) for m, c in a_in.items() if c}
            _assert_matches(a, ra)
            neg_b = {m: -c for m, c in rb.items()}
            _assert_matches(a + b, _reference_add(ra, rb))
            _assert_matches(a - b, _reference_add(ra, neg_b))
            _assert_matches(-b, neg_b)
            _assert_matches(a * b, _reference_mul(ra, rb))
            # (a + b)(a - b): cross terms cancel.
            _assert_matches(
                (a + b) * (a - b),
                _reference_mul(_reference_add(ra, rb), _reference_add(ra, neg_b)),
            )
            _assert_matches(a.differentiate(var), _reference_differentiate(ra, var.index))
            half = {(0, 0, 0, 0, 0): Fraction(1, 2)}
            _assert_matches(a * Fraction(1, 2), _reference_mul(ra, half))
            _assert_matches(2 * (a * Fraction(1, 2)), ra)

        check()

    def test_sums_and_products_of_fractions_that_are_whole_store_ints(self):
        half = parse("1/2*x + 3/2*y")
        for e in (half + half, half * 2, half * parse("2*x"), parse("1/3*x^3").differentiate(Var.X)):
            assert _int_exactly_when_integral(e)
        assert [type(c) for _, c in (half + half).terms()] == [int, int]
        assert [type(c) for _, c in (parse("1/3*x^3").differentiate(Var.X)).terms()] == [int]
        assert [type(c) for _, c in parse("2*x*s + 3").substitute_s(Fraction(1, 2)).terms()] == [int, int]
        assert [type(c) for _, c in Expr({(0, 0, 0, 0, 0): Fraction(4, 2)}).terms()] == [int]
        assert [type(c) for _, c in Expr({(0, 0, 0, 0, 0): True}).terms()] == [int]


def _sum(triples) -> Expr:
    """The one-output kernel on (sign, a, b) triples of Expr."""
    return Expr._trusted(
        _sums_of_products(1, [(0, sign, a._terms, b._terms) for sign, a, b in triples])[0]
    )


class TestSumOfProducts:
    """The one product kernel against the reference engine, on signed product lists."""

    OUTPUTS = 4

    @staticmethod
    def _reference(triples) -> dict:
        out: dict = {}
        for sign, a, b in triples:
            product_ = _reference_mul(a, b)
            out = _reference_add(out, {m: sign * c for m, c in product_.items()})
        return out

    def test_matches_the_reference(self):
        # Each drawn product goes to one of OUTPUTS sums.  Every sum of the
        # n-output call must equal the one-output call on its own products
        # (terms, coefficient types and keys) and the reference engine.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))
        coeff = st.one_of(
            st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)
        ).filter(bool)
        terms = st.dictionaries(monomial, coeff, max_size=4)  # empty factors too
        product_ = st.tuples(
            st.integers(0, self.OUTPUTS - 1), st.sampled_from((1, -1)), terms, terms
        )
        one = {(0, 0, 0, 0, 0): Fraction(1)}

        def closed(products: list, mode: int) -> list:
            # 0: as drawn; 1: each product again with the other sign, so
            # every sum cancels to zero; 2: one more product per sum that
            # tops each coefficient of it up to a whole number, or to zero.
            if mode == 1:
                return products + [(i, -sign, a, b) for i, sign, a, b in products]
            if mode == 2:
                tops = []
                for i in range(self.OUTPUTS):
                    ref = self._reference(
                        [(sign, _reference_terms(Expr(a)), _reference_terms(Expr(b)))
                         for j, sign, a, b in products if j == i]
                    )
                    top = {
                        m: math.floor(c) - c + n % 2 for n, (m, c) in enumerate(ref.items())
                    }
                    tops.append((i, 1, top, one))
                return products + tops
            return products

        cases = st.builds(closed, st.lists(product_, max_size=8), st.integers(0, 2))
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=200, deadline=None, database=None, phases=phases)
        @hypothesis.given(cases)
        def check(drawn):
            products = [(i, sign, Expr(a), Expr(b)) for i, sign, a, b in drawn]
            sums = _sums_of_products(
                self.OUTPUTS, [(i, sign, a._terms, b._terms) for i, sign, a, b in products]
            )
            assert len(sums) == self.OUTPUTS
            for i, terms_ in enumerate(sums):
                mine = [(sign, a, b) for j, sign, a, b in products if j == i]
                got = Expr._trusted(terms_)
                alone = _sum(mine)
                assert _typed(got) == _typed(alone)
                want = self._reference(
                    [(sign, _reference_terms(a), _reference_terms(b)) for sign, a, b in mine]
                )
                _assert_matches(got, want)
                assert _keys_packed_and_shared(got)

        check()

    def test_cancellation_and_whole_sums(self):
        a, b = parse("1/2*x + y - 1/3"), parse("x*z - 2*t + 3/4")
        assert _sum([(1, a, b), (-1, b, a)]).is_zero
        assert _sum([]).is_zero
        assert _sums_of_products(3, []) == [{}, {}, {}]
        half = parse("1/2*x + 3/2*y*s")
        whole = _sum([(1, half, Expr.one()), (1, Expr.one(), half)])
        assert whole == parse("x + 3*y*s") and _int_exactly_when_integral(whole)
        assert _keys_packed_and_shared(whole)
        # The product is the one-output case, and - builds no -rhs.
        assert a * b == _sum([(1, a, b)])
        assert a - b == _sum([(1, a, Expr.one()), (-1, b, Expr.one())])
        assert 1 - a == _sum([(1, Expr.one(), Expr.one()), (-1, a, Expr.one())])
        # Sums are formed apart: one that cancels leaves its neighbours whole.
        sums = _sums_of_products(
            3,
            [(0, 1, a._terms, b._terms), (1, 1, half._terms, half._terms),
             (2, 1, b._terms, a._terms), (0, -1, b._terms, a._terms)],
        )
        assert sums == [{}, (half * half)._terms, (a * b)._terms]


class TestExponentTypes:
    @pytest.mark.parametrize(
        "monomial",
        [(True, 0, 0, 0, 0), (0, 0, 0, False, 0), (1, 0, 0, 0, 1.0), (0, 0, -1, 0, 0)],
    )
    def test_only_plain_int_exponents(self, monomial):
        with pytest.raises(ValueError):
            Expr({monomial: 1})

    def test_a_refused_bool_exponent_leaves_later_products_plain(self, monkeypatch):
        # On an empty table, a refused (True, 0, 0, 0, 0) must not become
        # the key of x in the products that follow.
        monkeypatch.setattr(expr_module, "_SHARED_MONOMIALS", {})
        with pytest.raises(ValueError):
            Expr({(True, 0, 0, 0, 0): 1})
        for e in (parse("x"), parse("x") * parse("1"), parse("x") * parse("y")):
            for monomial, _ in e.terms():
                assert all(type(n) is int for n in monomial), monomial
        ((monomial, coeff),) = (parse("x") * parse("1")).terms()
        assert monomial == (1, 0, 0, 0, 0) and type(monomial[0]) is int
        assert coeff == 1 and type(coeff) is int


class TestSharedMonomials:
    """``terms()`` yields the table's tuples, so kept term lists share them."""

    def test_results_take_their_keys_from_the_table(self, monkeypatch):
        monkeypatch.setattr(expr_module, "_SHARED_MONOMIALS", {})
        a = Expr({(1, 0, 2, 0, 0): 3, (0, 1, 0, 0, 1): Fraction(1, 2)})
        b = Expr({(0, 0, 1, 1, 0): -1, (1, 1, 0, 0, 0): 2})
        assert _keys_packed_and_shared(a) and _keys_packed_and_shared(b)
        for e in (a * b, (a * b).differentiate(Var.Z), a + b, a - b, -(a * b)):
            assert not e.is_zero and _keys_packed_and_shared(e)
        # Equal exponents made three ways are one key, and one tuple.
        made = (
            Expr({(2, 0, 0, 0, 0): 1}), parse("x") * parse("x"), parse("x^3").differentiate(Var.X)
        )
        assert [list(e._terms) for e in made] == [[_pack((2, 0, 0, 0, 0))]] * 3
        (m1, _), (m2, _), (m3, _) = (next(e.terms()) for e in made)
        assert m1 is m2 is m3

    def test_the_table_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(expr_module, "_SHARED_MONOMIALS", {})
        monkeypatch.setattr(expr_module, "MAX_SHARED_MONOMIALS", 3)
        e = parse("(x + y + z + t + s)^2")
        assert str(e) == (
            "x^2 + 2*x*y + 2*x*z + 2*x*t + 2*x*s + y^2 + 2*y*z + 2*y*t + 2*y*s"
            " + z^2 + 2*z*t + 2*z*s + t^2 + 2*t*s + s^2"
        )
        assert len(expr_module._SHARED_MONOMIALS) == 3
        assert len(e) == 15 and e == parse("x^2 + y^2 + z^2 + t^2 + s^2") + 2 * (
            parse("x*y + x*z + x*t + x*s + y*z + y*t + y*s + z*t + z*s + t*s")
        )
        # Past the bound a tuple is made anew, equal but not shared.
        again = [m for m, _ in e.terms()]
        assert again == [m for m, _ in e.terms()]
        assert sum(m is expr_module._SHARED_MONOMIALS.get(_pack(m)) for m in again) == 3
        assert len(expr_module._SHARED_MONOMIALS) == 3


def _per_variable_partials(e: Expr) -> tuple:
    """The four partials one variable at a time, one pass over the terms each."""
    out = []
    for i in range(4):
        d = {}
        for monomial, coeff in e.terms():
            if monomial[i]:
                lowered = monomial[:i] + (monomial[i] - 1,) + monomial[i + 1:]
                d[lowered] = _integral(coeff * monomial[i])
        out.append(Expr(d))
    return tuple(out)


class TestPartials:
    """``partials`` differentiates in one sweep and keeps the four results."""

    def test_partials_are_the_four_derivatives(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monomial = st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 2))
        coeff = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
        phases = (hypothesis.Phase.explicit, hypothesis.Phase.generate)

        @hypothesis.settings(max_examples=200, deadline=None, database=None, phases=phases)
        @hypothesis.given(st.dictionaries(monomial, coeff, max_size=6).map(Expr))
        def check(e):
            want = _per_variable_partials(e)
            got = e.partials()
            assert got == want
            assert [_typed(d) for d in got] == [_typed(d) for d in want]
            assert [e.differentiate(v) for v in VARS] == list(want)
            assert tuple(map(Expr._trusted, _partials(e._terms))) == want
            assert all(map(_keys_packed_and_shared, got))

        check()

    def test_a_second_call_returns_the_kept_tuple(self):
        e = parse("x^2*y - 3/2*z*t*s + s^2")
        first = e.partials()
        assert e.partials() is first
        assert first == (parse("2*x*y"), parse("x^2"), parse("-3/2*t*s"), parse("-3/2*z*s"))

    def test_equal_polynomials_keep_their_own_partials(self):
        a, b = parse("x*y + z"), parse("z + y*x")
        assert a.partials() == b.partials() and a.partials() is not b.partials()


def _typed(e: Expr) -> list:
    return [(m, c, type(c)) for m, c in e.terms()]


class TestCopies:
    """Pickling and copying rebuild an Expr from its terms alone."""

    CASES = ["0", "7", "x^2*y - 3/2*z*t*s + s^2", "(x + 2/3*y - s)^3"]

    @staticmethod
    def _round_trips(e: Expr):
        yield pickle.loads(pickle.dumps(e))
        yield copy.deepcopy(e)
        yield copy.copy(e)

    @pytest.mark.parametrize("text", CASES)
    @pytest.mark.parametrize("derived", ["compiled", "partials", "hash", "all"])
    def test_round_trips_after_derived_values(self, text, derived):
        e = parse(text)
        if derived in ("compiled", "all"):
            e.compiled()
        if derived in ("partials", "all"):
            e.partials()
        if derived in ("hash", "all"):
            hash(e)
        # The pickled form holds the exponent tuples, not the packed keys.
        assert e.__reduce__() == (Expr, (dict(e.terms()),))
        for copied in self._round_trips(e):
            assert copied == e and hash(copied) == hash(e)
            assert _typed(copied) == _typed(e)
            assert copied._compiled is None and copied._partials is None
            assert copied._terms == e._terms and _keys_packed_and_shared(copied)
            assert copied.partials() == e.partials()
            assert copied.evaluate(Point4(0.5, -1, 2, 3, s=0.25)) == e.evaluate(
                Point4(0.5, -1, 2, 3, s=0.25)
            )

    def test_a_pickled_partial_is_a_plain_polynomial(self):
        e = parse("x^3*t + s*y")
        dx = pickle.loads(pickle.dumps(e.partials()))[0]
        assert dx == parse("3*x^2*t") and dx._partials is None


class TestGuards:
    """The argument checks of the constructors, queries and the parser."""

    def test_a_variable_by_var_index_or_name(self):
        for i, (var, name) in enumerate(zip(VARS, "xyzt")):
            assert Expr.variable(var) == Expr.variable(i) == Expr.variable(name) == parse(name)
        assert Expr.variable(4) == Expr.variable("s") == parse("s")

    @pytest.mark.parametrize("which", ["w", "X", "", True, False])
    def test_an_unknown_variable_name_is_refused(self, which):
        with pytest.raises(ValueError, match=f"^unknown variable {which!r}$"):
            Expr.variable(which)

    @pytest.mark.parametrize("which", [5, -1])
    def test_a_variable_index_out_of_range_is_refused(self, which):
        with pytest.raises(ValueError, match=f"^variable index {which} out of range$"):
            Expr.variable(which)

    def test_coefficient_of_a_var_or_a_name(self):
        e = parse("3*x + 2*s*x - 5*y*s^2 + x^2 + x*y + 7")
        for var, want in zip(VARS, ("3 + 2*s", "-5*s^2", "0", "0")):
            assert e.coefficient_of(var) == e.coefficient_of(var.name_lower) == parse(want)
        with pytest.raises(ValueError):
            e.coefficient_of("s")  # a parameter, not a coordinate

    @pytest.mark.parametrize("n", [-1, 1.0, 2.5, "2", None])
    def test_a_power_takes_a_non_negative_int(self, n):
        with pytest.raises(ValueError, match="^exponent must be a non-negative integer$"):
            parse("x + 1") ** n

    def test_sums_and_products_take_exact_scalars_or_expr(self):
        # A str or float operand is not coerced: both sides give NotImplemented.
        with pytest.raises(TypeError, match="unsupported operand"):
            parse("x") + "y"
        with pytest.raises(TypeError, match="unsupported operand"):
            parse("x") * 1.5

    @pytest.mark.parametrize("text", [b"x", 3, None, ["x"]])
    def test_parse_takes_a_str(self, text):
        with pytest.raises(TypeError, match="^parse expects a string$"):
            parse(text)


def _grlex(m: tuple) -> tuple:
    """The graded-lex sort key of an exponent tuple, x > y > z > t > s."""
    return (sum(m), m)


class TestPackedKeys:
    """The int key of a monomial: total degree, then x, y, z, t, s, 16 bits each."""

    @staticmethod
    def _exponents(st, top=DEGREE_LIMIT - 1):
        # Tuples of total degree at most top, with the exponents near the
        # field width drawn as often as the small ones.
        exponent = st.one_of(st.integers(0, 3), st.integers(0, top))
        return st.tuples(*[exponent] * 5).filter(lambda m: sum(m) <= top)

    def test_pack_and_unpack_round_trip(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(self._exponents(st))
        def check(m):
            a, b, c, d, e = m
            key = sum(m) << 80 | a << 64 | b << 48 | c << 32 | d << 16 | e
            assert _pack(m) == key
            (got, coeff), = Expr({m: 3}).terms()
            assert got == m and type(got) is tuple and coeff == 3
            assert list(Expr({m: 3})._terms) == [key]

        check()

    def test_integer_order_is_graded_lex_order(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.lists(self._exponents(st, 40), max_size=12, unique=True))
        def check(monomials):
            want = sorted(monomials, key=_grlex, reverse=True)
            assert sorted(map(_pack, monomials), reverse=True) == list(map(_pack, want))
            e = Expr({m: n + 1 for n, m in enumerate(monomials)})
            assert [m for m, _ in e.terms()] == want
            assert str(e) == _reference_str({m: Fraction(c) for m, c in e.terms()})

        check()

    def test_a_key_sum_is_the_product_monomial(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        half = (DEGREE_LIMIT - 1) // 2

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(self._exponents(st, half), self._exponents(st, half))
        def check(a, b):
            assert _pack(a) + _pack(b) == _pack(tuple(map(sum, zip(a, b))))

        check()

    def test_the_degree_limit(self):
        limit = DEGREE_LIMIT
        over = f"a monomial would reach the degree limit {limit}"
        x = parse("x")
        below = Expr({(limit - 2, 0, 0, 0, 0): 1}) * x
        assert list(below.terms()) == [((limit - 1, 0, 0, 0, 0), 1)]
        with pytest.raises(DegreeLimitError, match=f"^{over}$"):
            below * x
        with pytest.raises(DegreeLimitError):
            Expr({(0, 0, 0, 1, limit - 1): 1}) * parse("y")
        with pytest.raises(DegreeLimitError, match=f"^{over}$"):
            Expr({(limit, 0, 0, 0, 0): 1})
        with pytest.raises(DegreeLimitError):
            Expr({(1, 1, 1, 1, limit - 4): 1})
        assert issubclass(DegreeLimitError, ArithmeticError)
        assert "DegreeLimitError" in expr_module.__all__

    def test_a_field_at_its_top_does_not_spill(self):
        # Two exponents whose field sum passes 2^16 - 1 only with a degree
        # past the limit, which the one compare refuses.
        top = DEGREE_LIMIT - 1
        a, b = Expr({(0, top, 0, 0, 0): 1}), Expr({(0, 1, 0, 0, 0): 1})
        with pytest.raises(DegreeLimitError):
            a * b
        for near_top in (Expr({(0, top - 1, 0, 0, 0): 2}), Expr({(0, 0, 0, 0, top - 1): 2})):
            (monomial, coeff), = (near_top * b).terms()
            assert sum(monomial) == top and coeff == 2

    def test_parse_past_the_limit_names_the_column(self):
        assert list(parse("((x^64)^64)^15").terms()) == [((61440, 0, 0, 0, 0), 1)]
        over = r"^a monomial would reach the degree limit 65536 \(column 13\)$"
        with pytest.raises(ParseError, match=over) as err:
            parse("((x^64)^64)^16")
        assert err.value.column == 13
        with pytest.raises(ParseError) as err:
            parse("y + ((x^64)^64)^8 * ((x^64)^64)^8")
        assert err.value.column == 19 and "degree limit" in str(err.value)
