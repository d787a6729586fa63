"""Exact sparse polynomials in x, y, z, t and the parameter s.

A polynomial is a finite map from exponent vectors (e_x, e_y, e_z, e_t, e_s)
to rational coefficients.  Zero coefficients are never stored, so every
polynomial has exactly one representation and equality is a dictionary
comparison.  A coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` only when its denominator is above 1; both are
arbitrary-precision, which keeps determinant expansions and Jacobiator sums
exact.  ``n`` and ``Fraction(n)`` compare and hash alike, so the choice never
shows in equality, hashing or printing.

``Expr(terms)`` is the one validating constructor.  The results of ``+``,
``-``, ``*``, ``differentiate`` and the other operations are canonical by
construction and are wrapped by ``Expr._trusted`` without a second check.
The monomial keys of those results are taken from one table, so polynomials
that share a monomial share its tuple (see ``MAX_SHARED_MONOMIALS``).  ``*``
and the bracket layer's sums (a determinant, a Jacobiator component) run one
product loop, ``_sum_of_products``, which adds sign * a * b over (sign, a, b)
triples into one dict in place; ``+`` and ``-`` add into a copy of one side.

No operation changes a polynomial's terms after it is built, so an ``Expr``
may keep values derived from them: its hash, its compiled closure and its
four partial derivatives (``partials``), each made on first use.  Pickling
and copying rebuild an ``Expr`` from its terms alone and leave those behind.

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
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Expr",
    "Var",
    "Point4",
    "Record",
    "ParseError",
    "DigitLimitError",
    "parse",
    "COORD_NAMES",
    "MAX_EXPONENT",
    "MAX_LITERAL_DIGITS",
    "MAX_NESTING",
    "MAX_SHARED_MONOMIALS",
    "MAX_TERMS",
    "MAX_TERM_PRODUCTS",
]

VAR_NAMES = ("x", "y", "z", "t", "s")

# The four coordinates of R^4, in the order of every matrix and gradient.
COORD_NAMES = VAR_NAMES[:4]

# Exponent of any single variable in a parsed literal; guards against typos
# like x^400 silently producing megabyte monomials.
MAX_EXPONENT = 64

# Digits of one integer literal, well below the 4,300 digits at which CPython
# stops converting between int and str.
MAX_LITERAL_DIGITS = 1000

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

# Bound on the table of shared monomials.  Each new monomial key of a
# polynomial is looked up there first, so a kept polynomial holds one 5-tuple
# (80 bytes) per distinct monomial of the process, not one per term.  Past
# this many entries a new monomial is simply not shared, so a long-lived
# process cannot grow the table without limit; a full table takes about
# 4 MB.  Monomials of degree at most 20 in x, y, z, t and 2 in s number
# 31,878.
MAX_SHARED_MONOMIALS = 1 << 15

Monomial = tuple[int, int, int, int, int]
Scalar = Union[int, Fraction]

_SHARED_MONOMIALS: dict[Monomial, Monomial] = {}


def _shared(monomial: Monomial) -> Monomial:
    """The table's tuple equal to ``monomial``; a new one is entered while there is room."""
    table = _SHARED_MONOMIALS
    found = table.get(monomial)
    if found is not None:
        return found
    if len(table) < MAX_SHARED_MONOMIALS:
        table[monomial] = monomial
    return monomial


def _integral(q: Scalar) -> Scalar:
    """``q`` as an ``int`` when it is whole.

    Fraction arithmetic returns a Fraction even when the result is whole,
    and a stored coefficient is an int exactly when it is integral.  Every
    computed coefficient that is not an int already passes through here.
    """
    return q.numerator if q.denominator == 1 else q


_ZERO_MONOMIAL: Monomial = _shared((0, 0, 0, 0, 0))


class Var(enum.Enum):
    """The four differentiation variables.  s is a parameter, not a Var."""

    X = 0
    Y = 1
    Z = 2
    T = 3

    def __init__(self, index: int):
        self.index = index  # attributes, not properties: every derivative reads it
        self.name_lower = VAR_NAMES[index]


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
    """An immutable multivariate polynomial in canonical form.

    The hash, the :meth:`compiled` closure and the :meth:`partials` tuple are
    made on first use and kept with the polynomial; pickling and copying keep
    only the terms.
    """

    # _terms is never changed after construction; the other three hold what
    # is derived from it once asked for: the hash, the compiled closure and
    # the tuple of the four partial derivatives.
    __slots__ = ("_terms", "_hash", "_compiled", "_partials")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        canon: dict[Monomial, Scalar] = {}
        if terms:
            for monomial, coeff in terms.items():
                # Exactly int: a bool exponent would be entered in the shared
                # table and become the key of later monomials equal to it.
                if len(monomial) != 5 or any(
                    type(e) is not int or e < 0 for e in monomial
                ):
                    raise ValueError(f"bad exponent vector {monomial!r}")
                q = Fraction(coeff)
                if q:
                    canon[_shared(tuple(monomial))] = _integral(q)
        self._terms = canon
        self._hash = None
        self._compiled = None
        self._partials = None

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Scalar]) -> "Expr":
        """Wrap a dict that is canonical already, without checking it.

        Canonical: keys are 5-tuples of non-negative ints, taken from the
        shared table while it had room; values are nonzero, an ``int`` when
        integral and a ``Fraction`` otherwise.  The new Expr owns the dict.
        """
        e = object.__new__(cls)
        e._terms = terms
        e._hash = None
        e._compiled = None
        e._partials = None
        return e

    def __reduce__(self):
        # Rebuilt by the validating constructor: the keys come from the
        # shared table again, and nothing derived travels with the terms.
        return (Expr, (self._terms,))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr._trusted({})

    @staticmethod
    def one() -> "Expr":
        return Expr._trusted({_ZERO_MONOMIAL: 1})

    @staticmethod
    def constant(value: Scalar) -> "Expr":
        return Expr({_ZERO_MONOMIAL: value})

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

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (deterministic).

        A coefficient is an ``int`` when integral, else a ``Fraction``.
        """
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

    def _plus(self, other, sign: int) -> "Expr":
        """self + sign * other, sign 1 or -1, in a copy of self's terms and keys."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for monomial, coeff in rhs._terms.items():
            acc = get(monomial)
            if acc is None:
                out[monomial] = coeff if sign > 0 else -coeff
            elif total := (acc + coeff if sign > 0 else acc - coeff):
                out[monomial] = total if total.__class__ is int else _integral(total)
            else:
                del out[monomial]
        return Expr._trusted(out)

    def __add__(self, other) -> "Expr":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Expr":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else lhs._plus(self, -1)

    def __mul__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _sum_of_products(((1, self, rhs),))

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
        # A constant hashes as its scalar, since it compares equal to it.
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {_ZERO_MONOMIAL}:
                value = hash(terms.get(_ZERO_MONOMIAL, 0))
            else:
                value = hash(frozenset(terms.items()))
            object.__setattr__(self, "_hash", value)
        return self._hash

    # -- calculus and evaluation ----------------------------------------

    def differentiate(self, var: Var) -> "Expr":
        """Exact partial derivative with respect to one of x, y, z, t."""
        if not isinstance(var, Var):
            raise TypeError("differentiate expects a Var (s is a parameter)")
        i = var.index
        out: dict[Monomial, Scalar] = {}
        for monomial, coeff in self._terms.items():
            e = monomial[i]
            if e:
                lowered = monomial[:i] + (e - 1,) + monomial[i + 1:]
                out[_shared(lowered)] = _integral(coeff * e)
        return Expr._trusted(out)

    def partials(self) -> tuple["Expr", "Expr", "Expr", "Expr"]:
        """(d/dx, d/dy, d/dz, d/dt), from :meth:`differentiate` on first use (cached)."""
        if self._partials is None:
            object.__setattr__(
                self, "_partials", tuple(self.differentiate(v) for v in VARS)
            )
        return self._partials

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
        parts: dict[int, dict[Monomial, Scalar]] = {}
        for monomial, coeff in self._terms.items():
            parts.setdefault(monomial[4], {})[_shared(monomial[:4] + (0,))] = coeff
        return _sum_of_products(
            (1, Expr._trusted(part), Expr.constant(q**e)) for e, part in parts.items()
        )

    # -- structure queries ----------------------------------------------

    def coordinate_degree_split(self) -> dict[int, "Expr"]:
        """Split into homogeneous parts by xyzt-degree (s kept symbolic)."""
        buckets: dict[int, dict[Monomial, Scalar]] = {}
        for monomial, coeff in self._terms.items():
            buckets.setdefault(sum(monomial[:4]), {})[monomial] = coeff
        return {deg: Expr._trusted(part) for deg, part in buckets.items()}

    def coefficient_of(self, var: Union[str, Var]) -> "Expr":
        """Coefficient of the degree-one monomial in ``var`` (Expr in s)."""
        if isinstance(var, Var):
            idx = var.index
        else:
            idx = VAR_NAMES.index(var)
        out: dict[Monomial, Scalar] = {}
        for monomial, coeff in self._terms.items():
            if monomial[idx] == 1 and sum(monomial[:4]) == 1:
                out[_shared((0, 0, 0, 0, monomial[4]))] = coeff
        return Expr._trusted(out)

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


def _sum_of_products(triples: Iterable[tuple[int, Expr, Expr]]) -> Expr:
    """The sum of sign * a * b over (sign, a, b) triples, sign 1 or -1.

    Each term product is added in place into one dict, whose new keys are the
    shared table's tuples; whole coefficients become ints after the last one.
    """
    out: dict[Monomial, Scalar] = {}
    get = out.get
    shared = _SHARED_MONOMIALS.get
    for sign, a, b in triples:
        right = b._terms.items()
        for (a0, a1, a2, a3, a4), c1 in a._terms.items():
            if sign < 0:
                c1 = -c1
            for m2, c2 in right:
                monomial = (a0 + m2[0], a1 + m2[1], a2 + m2[2], a3 + m2[3], a4 + m2[4])
                acc = get(monomial)
                if acc is None:
                    out[shared(monomial) or _shared(monomial)] = c1 * c2
                else:
                    total = acc + c1 * c2
                    if total:
                        out[monomial] = total
                    else:
                        del out[monomial]
    for monomial, coeff in out.items():
        if coeff.__class__ is not int:
            out[monomial] = _integral(coeff)
    return Expr._trusted(out)


def _is_negation(a: Expr, b: Expr) -> bool:
    """a == -b, compared term by term without building -b."""
    get = b._terms.get
    return len(a) == len(b) and all(get(m) == -c for m, c in a._terms.items())


_ONE = Expr.one()


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


class DigitLimitError(ArithmeticError):
    """A coefficient has more digits than CPython converts from int to str."""


def _format_rational(q: Scalar) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # beyond sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise DigitLimitError(f"a coefficient has more than {limit} digits to print") from None


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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"literal longer than {MAX_LITERAL_DIGITS} digits", i + 1)
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
        terms = [(1, self.term(), _ONE)]
        while (kind := self.tok.peek()[0]) in ("+", "-"):
            self._eat(kind)
            terms.append((1 if kind == "+" else -1, self.term(), _ONE))
        return terms[0][1] if len(terms) == 1 else _sum_of_products(terms)

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

    Raises :class:`ParseError` (with a 1-based column) on malformed input, on
    an integer literal longer than ``MAX_LITERAL_DIGITS`` digits, on an
    exponent above ``MAX_EXPONENT``, on nesting deeper than ``MAX_NESTING``,
    on a product or power that could expand to more than ``MAX_TERMS`` terms,
    and when its products would take more than ``MAX_TERM_PRODUCTS`` in all.
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    return _Parser(text).parse()
