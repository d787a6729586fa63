"""Exact sparse polynomials in x, y, z, t and the parameter s.

A polynomial is a finite map from monomials x^a y^b z^c t^d s^e to rational
coefficients.  Zero coefficients are never stored, so every polynomial has
exactly one representation and equality is a dictionary comparison.  A
coefficient is an ``int`` when it is integral and a ``fractions.Fraction``
only when its denominator is above 1; both are arbitrary-precision, which
keeps determinant expansions and Jacobiator sums exact.  ``n`` and
``Fraction(n)`` compare and hash alike, so the choice never shows in
equality, hashing or printing.

A monomial is stored as one ``int`` key, its total degree above 16-bit
fields for a, b, c, d and e (packed exponent vectors: Monagan & Pearce,
CASC 2007), so a monomial product is one addition and integer order is
graded-lex order.  A degree of ``DEGREE_LIMIT`` (2^16) raises
:class:`DegreeLimitError`.  ``Expr(terms)`` takes exponent 5-tuples and
``terms()`` yields them, from one shared table (``MAX_SHARED_MONOMIALS``).

``Expr(terms)`` is the one validating constructor.  The results of ``+``,
``-``, ``*``, ``differentiate`` and the other operations are canonical by
construction and are wrapped by ``Expr._trusted`` without a second check.

Every product runs one kernel on term dicts, ``_sums_of_products``: in one
pass it forms n sums, adding sign * a * b for each (i, sign, a, b) into the
dict of sum i in place.  ``*``, ``substitute_s`` and a parsed sum are its
one-output case; the bracket layer forms each set of sums in one call (the
six minors of a bivector, the Jacobiator's components, the rows of a
contraction).  ``+`` and ``-`` add into a copy of one side.  The four partial
derivatives come from one sweep over the terms, ``_partials``.

No operation changes a polynomial's terms after it is built, so an ``Expr``
may keep values derived from them: its hash, its compiled closure and its
four partial derivatives (``partials``, which ``differentiate`` reads when
they are kept), each made on first use.  Pickling and copying rebuild an
``Expr`` from the exponent tuples of its terms alone and leave those behind.

x, y, z, t are coordinates and may be differentiated; s is a deformation
parameter and is deliberately excluded from :class:`Var`, so no code path can
ever request d/ds.

Every float value runs one source text, ``_python_source`` (the printed
polynomial, ``^`` as ``**``): terms summed left to right in graded-lex order,
the sign of a zero following Python arithmetic.  ``evaluate``,
``evaluate_batch``, ``compiled`` and the fused closures all use it.

``parse`` reads its text once, with one regular expression, into a list of
tokens, and parses that list by recursive descent (see the parsing section).

numpy is imported inside the functions that use it, here and in
``poisson``; ``leaves``, where every function solves with it, imports it at
the top and is loaded only by ``leaf-form``.  So a command doing no
floating-point linear algebra starts without it.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

__all__ = [
    "Expr",
    "Var",
    "Point4",
    "Record",
    "ParseError",
    "DegreeLimitError",
    "DigitLimitError",
    "WorkLimitError",
    "parse",
    "COORD_NAMES",
    "DEGREE_LIMIT",
    "MAX_BRACKET_PRODUCTS",
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

# Bound on the work of one set of sums in the bracket layer (the minors of a
# bivector, its Jacobiator, a contraction with a gradient): the sum of
# len(a) * len(b) over its products, checked before they are formed.  At
# 0.3-0.4 us a product it stands for 3-4 s.  The Jacobiator of
# (x+y+z+t+1)^6 and (x-y+2*z-t+3)^5 takes 8,360,960; with both to the
# sixth power it would take 15,758,288 and is refused.
MAX_BRACKET_PRODUCTS = 10_000_000

# A key holds the exponent of x, y, z, t or s at bit _SHIFTS[i] and the total
# degree from bit 80.  Below DEGREE_LIMIT no field overflows, and a key sum
# reaches _KEY_LIMIT exactly when its degree reaches DEGREE_LIMIT, since an
# overflowing field can only carry into the degree.
DEGREE_LIMIT = 1 << 16
_MASK = DEGREE_LIMIT - 1
_DEGREE_SHIFT = 80
_SHIFTS = (64, 48, 32, 16, 0)
_KEY_LIMIT = DEGREE_LIMIT << _DEGREE_SHIFT
# The key of each variable, x to s.
_UNITS = tuple((1 << _DEGREE_SHIFT) | (1 << shift) for shift in _SHIFTS)
_S_UNIT = _UNITS[4]
# (index, field shift, key) of each coordinate x, y, z, t.
_COORD_FIELDS = tuple(zip(range(4), _SHIFTS, _UNITS))

# Bound on the table that maps a key to the exponent tuple ``terms()``
# yields, so kept term lists hold one 5-tuple (80 bytes) per distinct
# monomial of the process, not one per term.  Past this many entries a new
# tuple is simply not shared; a full table takes about 5 MB.  Monomials of
# degree at most 20 in x, y, z, t and 2 in s number 31,878.
MAX_SHARED_MONOMIALS = 1 << 15

Monomial = tuple[int, int, int, int, int]
Scalar = int | Fraction

_SHARED_MONOMIALS: dict[int, Monomial] = {}


def _pack(monomial: Monomial) -> int:
    """The key of an exponent tuple; at least ``_KEY_LIMIT`` when its degree reaches the limit."""
    key = sum(monomial)
    for e in monomial:
        key = key << 16 | e  # the next field down, as _SHIFTS lays them out
    return key


class DegreeLimitError(ArithmeticError):
    """A monomial would reach total degree ``DEGREE_LIMIT``, beyond the packed key."""


_OVER_THE_DEGREE_LIMIT = f"a monomial would reach the degree limit {DEGREE_LIMIT}"


class WorkLimitError(ArithmeticError):
    """A set of sums would take more than ``MAX_BRACKET_PRODUCTS`` term products."""


def _integral(q: Scalar) -> Scalar:
    """``q`` as an ``int`` when it is whole.

    Fraction arithmetic returns a Fraction even when the result is whole,
    and a stored coefficient is an int exactly when it is integral.  Every
    computed coefficient that is not an int already passes through here.
    """
    return q.numerator if q.denominator == 1 else q


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
        """The polynomial of a map from exponent 5-tuples to rational coefficients.

        Exponents are plain non-negative ints of total degree below
        ``DEGREE_LIMIT`` (else :class:`DegreeLimitError`); zero coefficients
        are dropped and whole ones become ints.
        """
        canon: dict[int, Scalar] = {}
        if terms:
            for monomial, coeff in terms.items():
                if len(monomial) != 5 or any(
                    type(e) is not int or e < 0 for e in monomial
                ):
                    raise ValueError(f"bad exponent vector {monomial!r}")
                key = _pack(monomial)
                if key >= _KEY_LIMIT:
                    raise DegreeLimitError(_OVER_THE_DEGREE_LIMIT)
                q = Fraction(coeff)
                if q:
                    canon[key] = _integral(q)
        self._terms = canon
        self._hash = None
        self._compiled = None
        self._partials = None

    @classmethod
    def _trusted(cls, terms: dict[int, Scalar]) -> "Expr":
        """Wrap a dict that is canonical already, without checking it.

        Canonical: keys are packed monomials of total degree below
        ``DEGREE_LIMIT``, the degree field equal to the sum of the exponent
        fields; values are nonzero, an ``int`` when integral and a
        ``Fraction`` otherwise.  The new Expr owns the dict.
        """
        e = object.__new__(cls)
        e._terms = terms
        e._hash = None
        e._compiled = None
        e._partials = None
        return e

    def __reduce__(self):
        # Rebuilt by the validating constructor from the exponent tuples,
        # so nothing derived travels with the terms.
        return (Expr, (dict(self.terms()),))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr._trusted({})

    @staticmethod
    def one() -> "Expr":
        return Expr._trusted({0: 1})

    @staticmethod
    def constant(value: Scalar) -> "Expr":
        return Expr({(0, 0, 0, 0, 0): value})

    @staticmethod
    def variable(which: str | Var | int) -> "Expr":
        """The polynomial x, y, z, t or s (s is allowed as a symbol here)."""
        if isinstance(which, Var):
            idx = which.index
        elif isinstance(which, int) and not isinstance(which, bool):
            idx = which
        else:
            try:
                idx = VAR_NAMES.index(which)
            except ValueError:
                raise ValueError(f"unknown variable {which!r}") from None
        if not 0 <= idx < 5:
            raise ValueError(f"variable index {idx} out of range")
        return Expr._trusted({_UNITS[idx]: 1})

    # -- ring structure -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (deterministic).

        Each monomial is the shared table's exponent 5-tuple, entered there
        while the table has room.  A coefficient is an ``int`` when integral,
        else a ``Fraction``.
        """
        table = _SHARED_MONOMIALS
        for key in sorted(self._terms, reverse=True):
            monomial = table.get(key)
            if monomial is None:
                monomial = tuple(key >> shift & _MASK for shift in _SHIFTS)
                if len(table) < MAX_SHARED_MONOMIALS:
                    table[key] = monomial
            yield monomial, self._terms[key]

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
        return Expr._trusted(_sums_of_products(1, ((0, 1, self._terms, rhs._terms),))[0])

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
            if terms.keys() <= {0}:
                value = hash(terms.get(0, 0))
            else:
                value = hash(frozenset(self.terms()))
            object.__setattr__(self, "_hash", value)
        return self._hash

    # -- calculus and evaluation ----------------------------------------

    def differentiate(self, var: Var) -> "Expr":
        """Exact partial derivative with respect to one of x, y, z, t.

        Read from the kept :meth:`partials` if they were made, else from a
        :func:`_partials` sweep that is not kept.
        """
        if not isinstance(var, Var):
            raise TypeError("differentiate expects a Var (s is a parameter)")
        if self._partials is not None:
            return self._partials[var.index]
        return Expr._trusted(_partials(self._terms)[var.index])

    def partials(self) -> tuple["Expr", "Expr", "Expr", "Expr"]:
        """(d/dx, d/dy, d/dz, d/dt), from one :func:`_partials` sweep on first use (cached)."""
        if self._partials is None:
            object.__setattr__(
                self, "_partials", tuple(map(Expr._trusted, _partials(self._terms)))
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
        parts: dict[int, dict[int, Scalar]] = {}
        for key, coeff in self._terms.items():
            e = key & _MASK
            parts.setdefault(e, {})[key - e * _S_UNIT] = coeff
        return Expr._trusted(
            _sums_of_products(
                1, [(0, 1, part, Expr.constant(q**e)._terms) for e, part in parts.items()]
            )[0]
        )

    # -- structure queries ----------------------------------------------

    def coordinate_degree_split(self) -> dict[int, "Expr"]:
        """Split into homogeneous parts by xyzt-degree (s kept symbolic)."""
        buckets: dict[int, dict[int, Scalar]] = {}
        for key, coeff in self._terms.items():
            buckets.setdefault((key >> _DEGREE_SHIFT) - (key & _MASK), {})[key] = coeff
        return {deg: Expr._trusted(part) for deg, part in buckets.items()}

    def coefficient_of(self, var: str | Var) -> "Expr":
        """Coefficient of the degree-one monomial in ``var`` (Expr in s).

        ``var`` is a :class:`Var` or one of the names x, y, z, t.
        """
        if isinstance(var, Var):
            idx = var.index
        else:
            idx = COORD_NAMES.index(var)
        unit = _UNITS[idx]
        out: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            s_part = (key & _MASK) * _S_UNIT
            if key - s_part == unit:
                out[s_part] = coeff
        return Expr._trusted(out)

    def uses_s(self) -> bool:
        return any(key & _MASK for key in self._terms)

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


def _sums_of_products(n: int, products: Iterable[tuple]) -> list[dict[int, Scalar]]:
    """The term dicts of n sums: sum i adds sign * a * b over its (i, sign, a, b).

    ``a`` and ``b`` are term dicts, ``sign`` is 1 or -1 and ``i`` is below n.
    Each term product is one key addition, added in place into its sum's
    dict; a new key is compared once with the degree limit.  Whole
    coefficients become ints after the last product.  The dicts are
    canonical and new, so the caller owns them.
    """
    # A list display costs a fifth of a comprehension, and most calls form one sum.
    outs = [{}] if n == 1 else [{} for _ in range(n)]
    limit = _KEY_LIMIT
    for i, sign, a, b in products:
        out = outs[i]
        get = out.get
        right = b.items()
        for k1, c1 in a.items():
            if sign < 0:
                c1 = -c1
            for k2, c2 in right:
                key = k1 + k2
                acc = get(key)
                if acc is None:
                    if key >= limit:
                        raise DegreeLimitError(_OVER_THE_DEGREE_LIMIT)
                    out[key] = c1 * c2
                else:
                    total = acc + c1 * c2
                    if total:
                        out[key] = total
                    else:
                        del out[key]
    for out in outs:
        for key, coeff in out.items():
            if coeff.__class__ is not int:
                out[key] = _integral(coeff)
    return outs


def _partials(terms: dict[int, Scalar]) -> tuple[dict[int, Scalar], ...]:
    """The term dicts of d/dx, d/dy, d/dz and d/dt, in one pass over ``terms``."""
    outs = ({}, {}, {}, {})
    for key, coeff in terms.items():
        for i, shift, unit in _COORD_FIELDS:
            e = key >> shift & _MASK
            if e:
                outs[i][key - unit] = coeff * e if coeff.__class__ is int else _integral(coeff * e)
    return outs


def _is_negation(a: Expr, b: Expr) -> bool:
    """a == -b, compared term by term without building -b."""
    get = b._terms.get
    return len(a) == len(b) and all(get(m) == -c for m, c in a._terms.items())


# The terms of 1.
_ONE = {0: 1}


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
# _TOKEN reads the text once into (kind, value, column) tokens ending in
# ("end", "", len(text) + 1); \s and \d are str.isspace and str.isdecimal.
# A character that starts no token, or a literal over MAX_LITERAL_DIGITS, is
# an "error" token holding its message: no rule takes it, so the parser stops
# there, and _error raises that message.  Implicit multiplication is
# rejected.  Nesting is bounded by MAX_NESTING, and products and powers by
# MAX_TERMS: a^n has at most C(len(a) + n - 1, n) terms, a*b at most
# len(a)*len(b).  The work of a whole parse is bounded by MAX_TERM_PRODUCTS
# before each product.  A product that reaches DEGREE_LIMIT, such as
# ((x^64)^64)^16, is a ParseError at the column of its '*' or exponent.


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_TOKEN = re.compile(r"\s*(?:(\d+)|([xyzts])|([-+*/^()])|(\S))")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, 1-based column) of each token, then ("end", "", len + 1)."""
    tokens = []
    for match in _TOKEN.finditer(text):
        digits, var, op, other = match.groups()
        col = match.start(match.lastindex) + 1
        if var:
            tokens.append(("var", var, col))
        elif op:
            tokens.append((op, op, col))
        elif other:
            tokens.append(("error", f"unexpected character {other!r}", col))
        elif len(digits) > MAX_LITERAL_DIGITS:
            tokens.append(("error", f"literal longer than {MAX_LITERAL_DIGITS} digits", col))
        else:
            tokens.append(("int", digits, col))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _error(token: tuple[str, str, int], message: str) -> ParseError:
    """The ParseError at ``token``: ``message``, or an error token's own."""
    kind, value, col = token
    return ParseError(value if kind == "error" else message, col)


def _check_terms(bound: int, col: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(
            f"expansion may reach {bound} terms, above the limit {MAX_TERMS}", col
        )


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.i = 0  # index of the next token
        self.depth = 0
        self.products = 0

    def parse(self) -> Expr:
        value = self.expr()
        token = self.tokens[self.i]
        if token[0] != "end":
            raise _error(token, f"unexpected {token[1]!r}")
        return value

    def expr(self) -> Expr:
        # The terms are summed into one dict: rebuilding the running sum at
        # every sign would make a flat sum of n terms cost O(n^2).
        first = self.term()
        terms = [(0, 1, first._terms, _ONE)]
        while (kind := self.tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            terms.append((0, 1 if kind == "+" else -1, self.term()._terms, _ONE))
        return first if len(terms) == 1 else Expr._trusted(_sums_of_products(1, terms)[0])

    def term(self) -> Expr:
        value = self.factor()
        while (token := self.tokens[self.i])[0] == "*":
            self.i += 1
            rhs = self.factor()
            col = token[2]
            _check_terms(len(value) * len(rhs), col)
            value = self._multiply(value, rhs, col)
        return value

    def factor(self) -> Expr:
        base = self.base()
        if self.tokens[self.i][0] != "^":
            return base
        token = self.tokens[self.i + 1]
        kind, digits, col = token
        if kind != "int":
            raise _error(token, "expected integer exponent after '^'")
        self.i += 2
        exponent = int(digits)
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds limit {MAX_EXPONENT}", col)
        _check_terms(math.comb(max(len(base), 1) + exponent - 1, exponent), col)
        return _power(base, exponent, lambda a, b: self._multiply(a, b, col))

    def _multiply(self, a: Expr, b: Expr, col: int) -> Expr:
        self.products += len(a) * len(b)
        if self.products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expansion needs more than {MAX_TERM_PRODUCTS} term products", col
            )
        try:
            return a * b
        except DegreeLimitError as err:
            raise ParseError(str(err), col) from None

    def base(self) -> Expr:
        token = self.tokens[self.i]
        kind, value, col = token
        if kind == "var":
            self.i += 1
            return Expr.variable(value)
        if kind == "int":
            self.i += 1
            return Expr.constant(self.rational(value))
        if kind == "(":
            self.i += 1
            self._descend(col)
            inner = self.expr()
            token = self.tokens[self.i]
            if token[0] != ")":
                found = token[1]
                raise _error(token, f"expected ')', found {found!r}" if found else "expected ')'")
            self.i += 1
            self.depth -= 1
            return inner
        if kind == "-":
            self.i += 1
            self._descend(col)
            negated = -self.factor()
            self.depth -= 1
            return negated
        raise _error(
            token,
            f"expected a variable, number or '(', found {value!r}" if value else "unexpected end of input",
        )

    def rational(self, digits: str) -> Fraction:
        """The literal ``digits`` over the denominator that follows it, if any."""
        if self.tokens[self.i][0] != "/":
            return Fraction(int(digits))
        token = self.tokens[self.i + 1]
        if token[0] != "int":
            raise _error(token, "expected integer denominator after '/'")
        self.i += 2
        denominator = int(token[1])
        if denominator == 0:
            raise ParseError("zero denominator", token[2])
        return Fraction(int(digits), denominator)

    def _descend(self, col: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", col)


def parse(text: str) -> Expr:
    """Parse an expression string into canonical form.

    Raises :class:`ParseError` (with a 1-based column) on malformed input, on
    an integer literal longer than ``MAX_LITERAL_DIGITS`` digits, on an
    exponent above ``MAX_EXPONENT``, on nesting deeper than ``MAX_NESTING``,
    on a product or power that could expand to more than ``MAX_TERMS`` terms,
    when its products would take more than ``MAX_TERM_PRODUCTS`` in all, and
    on a product with a monomial of total degree ``DEGREE_LIMIT`` or more.
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    return _Parser(text).parse()
