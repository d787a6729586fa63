"""Exact sparse polynomials in x, y, z, t and the parameter s.

A polynomial is a finite map from exponent vectors (e_x, e_y, e_z, e_t, e_s)
to rational coefficients.  Zero coefficients are never stored, so every
polynomial has exactly one representation and equality is a dictionary
comparison.  Coefficients are ``fractions.Fraction`` (arbitrary-precision),
which keeps determinant expansions and Jacobiator sums exact.

x, y, z, t are coordinates and may be differentiated; s is a deformation
parameter and is deliberately excluded from :class:`Var`, so no code path can
ever request d/ds.

Every float value runs one source text, ``_python_source`` (the printed
polynomial, ``^`` as ``**``): terms summed left to right in graded-lex order,
the sign of a zero following Python arithmetic.  ``evaluate``,
``evaluate_batch``, ``compiled`` and the fused closures all use it.

numpy is imported inside the functions that use it, here and in the other
modules, so that a command doing no floating-point linear algebra starts
without it.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Expr",
    "Var",
    "Point4",
    "Record",
    "ParseError",
    "parse",
    "COORD_NAMES",
    "MAX_EXPONENT",
    "MAX_NESTING",
    "MAX_TERMS",
    "MAX_TERM_PRODUCTS",
]

VAR_NAMES = ("x", "y", "z", "t", "s")

# The four coordinates of R^4, in the order of every matrix and gradient.
COORD_NAMES = VAR_NAMES[:4]

# Exponent of any single variable in a parsed literal; guards against typos
# like x^400 silently producing megabyte monomials.
MAX_EXPONENT = 64

# Parentheses and unary minus signs open one parser recursion level each;
# deeper input is refused well before Python's recursion limit.
MAX_NESTING = 100

# Bound on the term count of a parsed product or power, checked before it is
# expanded: (x+y+z+t+s)^24 would otherwise take minutes.
MAX_TERMS = 1000

# Bound on the work of one parse: the sum of len(a) * len(b) over every
# product it performs, the squarings of a power included.  (x+y+z)^43 takes
# 69,933 and parses in about 0.4 s; two copies of it summed are refused.
MAX_TERM_PRODUCTS = 100_000

Monomial = tuple[int, int, int, int, int]
Scalar = Union[int, Fraction]

_ZERO_MONOMIAL: Monomial = (0, 0, 0, 0, 0)


class Var(enum.Enum):
    """The four differentiation variables.  s is a parameter, not a Var."""

    X = 0
    Y = 1
    Z = 2
    T = 3

    @property
    def index(self) -> int:
        return self.value

    @property
    def name_lower(self) -> str:
        return VAR_NAMES[self.value]


VARS = (Var.X, Var.Y, Var.Z, Var.T)


class Record:
    """Base of the package's small immutable value types.

    A subclass lists its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  Construction takes
    the fields positionally or by keyword, and the instance then refuses
    assignment and deletion.  Equality compares the fields of two instances
    of one class; the hash is that of the field tuple; ``repr`` shows
    ``Name(field=value, ...)``.  Instances keep a ``__dict__``, so a
    ``functools.cached_property`` can store its value there.  Pickling and
    copying rebuild a record from its fields and leave such cached values
    behind.

    It stands in for frozen dataclasses: importing ``dataclasses`` (and with
    it ``inspect``) and decorating the classes took about a sixth of the CPU
    time of a command-line call that needs no numpy.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # Every field by position, as Trajectory.points passes them for each
        # step, needs no binding.
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        set_field = object.__setattr__
        for field, value in zip(fields, args):
            set_field(self, field, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """One value per field from the arguments and the defaults."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        for key in kwargs:
            problem = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to {key!r} of {type(self).__qualname__}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete {key!r} of {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return (type(self), self._values())


class Point4(Record):
    """A point of R^4 together with a bound value for the parameter s."""

    x: float
    y: float
    z: float
    t: float
    s: float = 0.0

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.t)

    def values(self) -> tuple[float, float, float, float, float]:
        return (self.x, self.y, self.z, self.t, self.s)


def _grlex_key(monomial: Monomial) -> tuple:
    # Graded lexicographic with x > y > z > t > s: total degree first,
    # then componentwise exponents.
    return (sum(monomial), monomial)


class Expr:
    """An immutable multivariate polynomial in canonical form."""

    __slots__ = ("_terms", "_hash", "_compiled")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for monomial, coeff in terms.items():
                if len(monomial) != 5 or any(
                    not isinstance(e, int) or e < 0 for e in monomial
                ):
                    raise ValueError(f"bad exponent vector {monomial!r}")
                q = Fraction(coeff)
                if q:
                    key = tuple(monomial)
                    acc = canon.get(key)
                    canon[key] = acc + q if acc is not None else q
                    if not canon[key]:
                        del canon[key]
        object.__setattr__(self, "_terms", canon)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_compiled", None)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr()

    @staticmethod
    def one() -> "Expr":
        return Expr({_ZERO_MONOMIAL: 1})

    @staticmethod
    def constant(value: Scalar) -> "Expr":
        return Expr({_ZERO_MONOMIAL: Fraction(value)})

    @staticmethod
    def variable(which: Union[str, Var, int]) -> "Expr":
        """The polynomial x, y, z, t or s (s is allowed as a symbol here)."""
        if isinstance(which, Var):
            idx = which.index
        elif isinstance(which, int):
            idx = which
        else:
            try:
                idx = VAR_NAMES.index(which)
            except ValueError:
                raise ValueError(f"unknown variable {which!r}") from None
        if not 0 <= idx < 5:
            raise ValueError(f"variable index {idx} out of range")
        exps = [0, 0, 0, 0, 0]
        exps[idx] = 1
        return Expr({tuple(exps): 1})

    # -- ring structure -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (deterministic)."""
        for monomial in sorted(self._terms, key=_grlex_key, reverse=True):
            yield monomial, self._terms[monomial]

    def __len__(self) -> int:
        return len(self._terms)

    def _coerce(self, other) -> "Expr | None":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.constant(other)
        return None

    def __add__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for monomial, coeff in rhs._terms.items():
            acc = out.get(monomial)
            total = coeff if acc is None else acc + coeff
            if total:
                out[monomial] = total
            elif acc is not None:
                del out[monomial]
        return Expr(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Expr":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                monomial = (
                    m1[0] + m2[0],
                    m1[1] + m2[1],
                    m1[2] + m2[2],
                    m1[3] + m2[3],
                    m1[4] + m2[4],
                )
                acc = out.get(monomial)
                total = c1 * c2 if acc is None else acc + c1 * c2
                if total:
                    out[monomial] = total
                elif acc is not None:
                    del out[monomial]
        return Expr(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(self, n, Expr.__mul__)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._terms.items()))
            )
        return self._hash

    # -- calculus and evaluation ----------------------------------------

    def differentiate(self, var: Var) -> "Expr":
        """Exact partial derivative with respect to one of x, y, z, t."""
        if not isinstance(var, Var):
            raise TypeError("differentiate expects a Var (s is a parameter)")
        i = var.index
        out: dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            e = monomial[i]
            if e:
                lowered = list(monomial)
                lowered[i] = e - 1
                out[tuple(lowered)] = coeff * e
        return Expr(out)

    def evaluate(self, point: Point4) -> float:
        """Value at a point: the :meth:`compiled` closure, made a float.

        The terms are summed left to right in graded-lex order, and the sign
        of a zero value follows Python arithmetic.
        """
        return float(self.compiled()(*point.values()))

    def evaluate_batch(self, coords: np.ndarray, s: float = 0.0) -> np.ndarray:
        """Float values on an (n, 4) array of (x, y, z, t) rows.

        numpy's powers can differ from Python's in the last bit.
        """
        import numpy as np

        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 4:
            raise ValueError("coords must have shape (n, 4)")
        out = np.empty(coords.shape[0])
        out[:] = self.compiled()(*coords.T, s)  # a constant fills each row
        return out

    def compiled(self):
        """A fast ``f(x, y, z, t, s) -> float`` closure (cached)."""
        if self._compiled is None:
            source = _python_source(self)
            fn = eval(f"lambda x, y, z, t, s: ({source})")  # noqa: S307
            object.__setattr__(self, "_compiled", fn)
        return self._compiled

    def substitute_s(self, value: Scalar) -> "Expr":
        """Exactly substitute a rational value for the parameter s."""
        q = Fraction(value)
        out: dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            scaled = coeff * q ** monomial[4]
            key = monomial[:4] + (0,)
            acc = out.get(key)
            total = scaled if acc is None else acc + scaled
            if total:
                out[key] = total
            elif acc is not None:
                del out[key]
        return Expr(out)

    # -- structure queries ----------------------------------------------

    def coordinate_degree_split(self) -> dict[int, "Expr"]:
        """Split into homogeneous parts by xyzt-degree (s kept symbolic)."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for monomial, coeff in self._terms.items():
            buckets.setdefault(sum(monomial[:4]), {})[monomial] = coeff
        return {deg: Expr(part) for deg, part in buckets.items()}

    def coefficient_of(self, var: Union[str, Var]) -> "Expr":
        """Coefficient of the degree-one monomial in ``var`` (Expr in s)."""
        if isinstance(var, Var):
            idx = var.index
        else:
            idx = VAR_NAMES.index(var)
        out: dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            if monomial[idx] == 1 and sum(monomial[:4]) == 1:
                out[(0, 0, 0, 0, monomial[4])] = coeff
        return Expr(out)

    def uses_s(self) -> bool:
        return any(m[4] for m in self._terms)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for idx, (monomial, coeff) in enumerate(self.terms()):
            factors = []
            for name, e in zip(VAR_NAMES, monomial):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = _format_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_format_rational(mag)] + factors)
            if idx == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Expr({self})"


def _power(base: Expr, n: int, multiply) -> Expr:
    """base^n by repeated squaring, each product taken by multiply(a, b)."""
    result = Expr.one()
    while n:
        if n & 1:
            result = multiply(result, base)
        if n > 1:
            base = multiply(base, base)
        n >>= 1
    return result


def _python_source(e: Expr) -> str:
    """``e`` as a Python expression in x, y, z, t, s; "0.0" for zero.

    Every float value of an :class:`Expr` is computed from this text, so a
    fused closure gives bit for bit the values of the per-expression ones,
    signed zeros included.
    """
    return "0.0" if e.is_zero else str(e).replace("^", "**")


def _fused_closure(exprs: Iterable[Expr]):
    """``f(x, y, z, t, s) -> (e0, e1, ...)``: one call for several values."""
    body = "".join(_python_source(e) + ", " for e in exprs)
    return eval(f"lambda x, y, z, t, s: ({body})")  # noqa: S307


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- parsing ---------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := var | rational | '(' expr ')' | '-' factor
# rational := int ('/' nat)?
#
# Whitespace is insignificant; implicit multiplication is rejected.  Nesting
# is bounded by MAX_NESTING, and products and powers by MAX_TERMS: a^n has at
# most C(len(a) + n - 1, n) terms, a*b at most len(a)*len(b).  The work of
# a whole parse is bounded by MAX_TERM_PRODUCTS before each product.


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        """(kind, value, 1-based column) of the next token; kind 'end' at EOF."""
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        self.pos = i
        if i >= n:
            return ("end", "", n + 1)
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            return ("int", text[i:j], i + 1)
        if ch in "xyzts":
            return ("var", ch, i + 1)
        if ch in "+-*/^()":
            return (ch, ch, i + 1)
        raise ParseError(f"unexpected character {ch!r}", i + 1)

    def advance(self, token: tuple[str, str, int]) -> None:
        # peek() already skipped leading whitespace and left pos at the token.
        self.pos += len(token[1])


def _check_terms(bound: int, col: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(
            f"expansion may reach {bound} terms, above the limit {MAX_TERMS}", col
        )


class _Parser:
    def __init__(self, text: str):
        self.tok = _Tokenizer(text)
        self.depth = 0
        self.products = 0

    def parse(self) -> Expr:
        value = self.expr()
        kind, val, col = self.tok.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", col)
        return value

    def expr(self) -> Expr:
        # The terms are summed into one dict: rebuilding the running sum at
        # every sign would make a flat sum of n terms cost O(n^2).
        value = self.term()
        if self.tok.peek()[0] not in ("+", "-"):
            return value
        acc = dict(value._terms)
        while True:
            kind, _, _ = self.tok.peek()
            if kind not in ("+", "-"):
                return Expr(acc)
            self._eat(kind)
            sign = 1 if kind == "+" else -1
            for monomial, coeff in self.term()._terms.items():
                total = acc.get(monomial, 0) + sign * coeff
                if total:
                    acc[monomial] = total
                else:
                    acc.pop(monomial, None)

    def term(self) -> Expr:
        value = self.factor()
        while True:
            kind, _, col = self.tok.peek()
            if kind != "*":
                return value
            self._eat("*")
            rhs = self.factor()
            _check_terms(len(value) * len(rhs), col)
            value = self._multiply(value, rhs, col)

    def factor(self) -> Expr:
        base = self.base()
        if self.tok.peek()[0] == "^":
            self._eat("^")
            kind, digits, col = self.tok.peek()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", col)
            self._eat("int")
            exponent = int(digits)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds limit {MAX_EXPONENT}", col
                )
            _check_terms(math.comb(max(len(base), 1) + exponent - 1, exponent), col)
            return _power(base, exponent, lambda a, b: self._multiply(a, b, col))
        return base

    def _multiply(self, a: Expr, b: Expr, col: int) -> Expr:
        self.products += len(a) * len(b)
        if self.products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expansion needs more than {MAX_TERM_PRODUCTS} term products", col
            )
        return a * b

    def base(self) -> Expr:
        kind, value, col = self.tok.peek()
        if kind == "var":
            self._eat("var")
            return Expr.variable(value)
        if kind == "int":
            return Expr.constant(self.rational())
        if kind == "(":
            self._eat("(")
            self._descend(col)
            inner = self.expr()
            k2, v2, c2 = self.tok.peek()
            if k2 != ")":
                raise ParseError(f"expected ')', found {v2!r}" if v2 else "expected ')'", c2)
            self._eat(")")
            self.depth -= 1
            return inner
        if kind == "-":
            self._eat("-")
            self._descend(col)
            negated = -self.factor()
            self.depth -= 1
            return negated
        raise ParseError(
            f"expected a variable, number or '(', found {value!r}" if value else "unexpected end of input",
            col,
        )

    def rational(self) -> Fraction:
        kind, digits, _ = self.tok.peek()
        assert kind == "int"
        self._eat("int")
        numerator = int(digits)
        if self.tok.peek()[0] == "/":
            self._eat("/")
            k2, d2, c2 = self.tok.peek()
            if k2 != "int":
                raise ParseError("expected integer denominator after '/'", c2)
            self._eat("int")
            denominator = int(d2)
            if denominator == 0:
                raise ParseError("zero denominator", c2)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def _descend(self, col: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", col)

    def _eat(self, kind: str) -> None:
        token = self.tok.peek()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1]!r}", token[2])
        self.tok.advance(token)


def parse(text: str) -> Expr:
    """Parse an expression string into canonical form.

    Raises :class:`ParseError` (with a 1-based column) on malformed input,
    on an integer exponent above ``MAX_EXPONENT``, on nesting deeper than
    ``MAX_NESTING``, on a product or power that could expand to more than
    ``MAX_TERMS`` terms, and when its products would take more than
    ``MAX_TERM_PRODUCTS`` term products in all.
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    return _Parser(text).parse()
