"""Exact field arithmetic: rationals, prime fields F_p, and fraction fields
of multivariate polynomial rings over the rationals.

Rational functions are deliberately *not* kept in GCD-reduced form; equality
is decided by the cross-multiplied polynomial identity p1*q2 == p2*q1, which
stays exact without multivariate GCDs.  All integer arithmetic is arbitrary
precision (Python ints / Fraction).

Because nothing cancels, the forms grow with every operation that combines
them, and the printed and spec-file forms are these unreduced ones.  A Yau
twist of a Q(params) structure by its own structure maps roughly doubles the
size of its largest entry: on rb_derive of the symbolic two-parameter algebra
with the w1f3 family, the larger of an entry's term count (numerator plus
denominator) and its total degree goes 3, 5, 13, 29, 61 over 0 to 4 twists
(tests/test_scalars.py pins 0 to 3).

Each field's arithmetic is defined once, in its ops table `FieldSpec.ops`
(an instance of a class in OPS_CLASSES): zero and one, add, mul, neg, inv,
is_zero and eq on raw values, and the conversions unbox (a Scalar's value
to its raw value), box (back), norm and from_fraction.  A raw value is an
int or a Fraction over Q, an int in 0..p-1 over F_p, and a (numerator,
denominator) pair of polynomial dicts over Q(params).  Over Q, norm turns
an integral Fraction into an int.  unbox and from_fraction norm their
value, and so do the constructors of the linalg and trees containers
(through linalg._raw); the kernels of linalg and trees, and Scalar
arithmetic, keep what the ops compute.  So a computed Q entry may be an
integral Fraction: compose stores 1/2 - 1/2 + 3 as Fraction(3), and a free
element scaled by 1/2 and then by 2 holds Fraction(1).  Such an entry
prints, serializes and compares as the int does; norming every stored
entry would cost every kernel a call.

A polynomial maps packed monomials to nonzero coefficients (an int when
integral, else a Fraction).  A packed monomial is one int holding the
exponent vector in fixed fields of _W = 32 bits, parameter 0 in the most
significant one (the packed exponent vectors of Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): a monomial product is one int addition, and the int
order is the lexicographic order of the exponent tuples.  The top bit of
each field is a guard, so an exponent must stay below _EXP_LIMIT = 2**31:
a Scalar refuses a larger one with ValueError, and a product that reaches
it raises ExponentOverflow instead of carrying into the next field.

A Scalar holds its raw value, and every Scalar operation and the parser
compute on raw values.  Scalar(field, value) unboxes value, and `.value`
boxes a copy: a Fraction over Q, an int over F_p, and over Q(params) a
(numerator, denominator) pair of dicts keyed by exponent tuples, one slot
per parameter in FieldSpec order.  The kernels of linalg and trees keep raw
values too and box them into Scalars only where they are read.  The ops
classes live at module level, so a pickled FieldSpec carries its table;
the table is not a dataclass field, so FieldSpec equality, hash and repr
ignore it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import (EvalSingular, ExponentOverflow, FieldMismatch,
                     IncompleteAssignment)

RATIONAL = "rational"
PRIME = "prime"
RATIONAL_FUNCTION = "rational_function"


# Miller-Rabin with the first 13 prime bases is exact below _PRIME_LIMIT, the
# smallest strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86 (2017)).  The first 12 bases alone pass the composite
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _clip(text: str) -> str:
    """Shorten text echoed in an error message to 60 characters and '…'."""
    return text if len(text) <= 60 else text[:60] + "…"


def _ascii_int(text: str) -> int | None:
    """The integer that text writes in ASCII digits alone, [0-9]+, or None:
    int() also reads '٣', '1_000', '+5' and ' 7 ', and refuses more than
    4300 digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _frac_str(q: Fraction | int) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; p >= _PRIME_LIMIT is refused."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"{_clip(str(p))} is out of range: p must be below {_PRIME_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# A polynomial is a dict mapping packed monomials (see the module docstring)
# to nonzero coefficients: an int when integral, else a Fraction.  Mixed
# int/Fraction arithmetic is exact, and int arithmetic is several times
# cheaper than Fraction.  {} is the zero polynomial and 0 the monomial 1.

_W = 32  # bits per exponent field
_EXP_LIMIT = 1 << (_W - 1)  # the field's top bit is its guard
_FIELD = (1 << _W) - 1


def _poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _poly_mul(p, q, guard):
    """p * q, where guard has the guard bit of every exponent field set."""
    # Times the int unit {0: 1}, the general loop below gives 0 + c * 1 = c,
    # of c's type, at each monomial of the other operand in its order: a
    # copy, so the shortcut changes no printed byte.  A unit Fraction(1)
    # takes the loop, since int * Fraction(1) is a Fraction.  There is no
    # one-term shortcut: one measured slower than this loop.
    if len(q) == 1:
        (m2, c2), = q.items()
        if c2 == 1 and type(c2) is int and not m2:
            return dict(p)
    if len(p) == 1:
        (m1, c1), = p.items()
        if c1 == 1 and type(c1) is int and not m1:
            return dict(q)
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = m1 + m2  # no carry: both operands' guard bits are clear
            if mono & guard:
                raise ExponentOverflow(
                    f"a product has an exponent of {_EXP_LIMIT} or more; "
                    f"exponents must stay below 2**{_W - 1}")
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _poly_eval(p, shifts, values):
    """p at values, values[i] for the parameter whose field starts at bit
    shifts[i]."""
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for s, v in zip(shifts, values):
            exp = mono >> s & _FIELD
            if exp:
                term *= v ** exp
        total += term
    return total


class _Ops:
    """One field's arithmetic on raw values (see the module docstring).  The
    defaults are those of Q and F_p, whose raw values are plain numbers."""

    zero, one = 0, 1
    is_zero, eq = staticmethod(operator.not_), staticmethod(operator.eq)
    to_str = str  # the literal of a raw value

    def __init__(self, field: "FieldSpec"):
        self.p = field.p  # None over Q

    @staticmethod
    def unbox(value):
        return value

    box = norm = unbox  # norm: a raw value in the form the kernels store


class _RationalOps(_Ops):
    """Q: an int, or a Fraction when not integral; `.value` is a Fraction."""

    add, mul, neg = map(staticmethod, (operator.add, operator.mul, operator.neg))
    box = Fraction
    inv = partial(Fraction, 1)  # Fraction(1, a)
    to_str = staticmethod(_frac_str)

    @staticmethod
    def unbox(value):
        return value.numerator if value.denominator == 1 else value

    norm = from_fraction = unbox


class _PrimeOps(_Ops):
    """F_p: an int in 0..p-1."""

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def from_fraction(self, q):
        num, den = q.numerator % self.p, q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator vanishes mod p")
        return (num * pow(den, -1, self.p)) % self.p


class _RationalFunctionOps(_Ops):
    """Q(params): a (numerator, denominator) pair of polynomials, unreduced.
    Equality cross-multiplies without counting as a mul.  Parameter i's
    exponent field starts at bit shifts[i], and guard holds the guard bits
    of all the fields."""

    def __init__(self, field: "FieldSpec"):
        n = len(field.params)
        self.params = field.params
        self.shifts = tuple(_W * (n - 1 - i) for i in range(n))
        self.guard = sum(_EXP_LIMIT << s for s in self.shifts)
        self.zero, self.one = ({}, {0: 1}), ({0: 1}, {0: 1})

    def add(self, a, b):
        (p1, q1), (p2, q2), guard = a, b, self.guard
        return (_poly_add(_poly_mul(p1, q2, guard), _poly_mul(p2, q1, guard)),
                _poly_mul(q1, q2, guard))

    def mul(self, a, b):
        return _poly_mul(a[0], b[0], self.guard), _poly_mul(a[1], b[1], self.guard)

    @staticmethod
    def neg(a):
        return {mono: -c for mono, c in a[0].items()}, a[1]

    inv = operator.itemgetter(1, 0)  # (denominator, numerator)

    @staticmethod
    def is_zero(a):
        return not a[0]

    def eq(self, a, b):
        return _poly_mul(a[0], b[1], self.guard) == _poly_mul(b[0], a[1], self.guard)

    @staticmethod
    def from_fraction(q):
        c = q.numerator if q.denominator == 1 else Fraction(q)
        return {0: c} if c else {}, {0: 1}

    def unbox(self, value):
        """Pack the exponent tuples of a boxed value, refusing any but len(params)
        ints in [0, _EXP_LIMIT)."""
        num, den = value
        return self._packed(num), self._packed(den)

    def _packed(self, p):
        out = {}
        for exps, c in p.items():
            if len(exps) != len(self.params) or not all(
                    isinstance(e, int) and 0 <= e < _EXP_LIMIT for e in exps):
                raise ValueError(f"a monomial needs {len(self.params)} exponents "
                                 f"in [0, 2**{_W - 1}), got {_clip(repr(exps))}")
            mono = 0
            for e in exps:
                mono = mono << _W | e
            out[mono] = c
        return out

    def box(self, value):
        shifts = self.shifts
        return tuple({tuple(mono >> s & _FIELD for s in shifts): c
                      for mono, c in p.items()} for p in value)

    def to_str(self, value):
        num_s = _poly_str(value[0], self.params, self.shifts)
        if value[1] == {0: 1}:
            return f"({num_s})" if ("+" in num_s[1:] or "-" in num_s[1:]) else num_s
        return f"({num_s})/({_poly_str(value[1], self.params, self.shifts)})"


OPS_CLASSES = {RATIONAL: _RationalOps, PRIME: _PrimeOps,
               RATIONAL_FUNCTION: _RationalFunctionOps}


@dataclass(frozen=True)
class FieldSpec:
    """Names an exact field: Q, F_p, or Q(params).  Its ops table, `ops`, is
    not a dataclass field, so equality, hash and repr do not see it."""

    kind: str
    p: int | None = None
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == PRIME:
            if not isinstance(self.p, int):
                raise ValueError(f"p must be an integer, got {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p!r} is not prime")
        elif self.kind == RATIONAL_FUNCTION:
            if not self.params:
                raise ValueError("rational_function field needs parameters")
            if len(set(self.params)) != len(self.params):
                raise ValueError("parameter names must be distinct")
            for i, name in enumerate(self.params):
                # a name the literal grammar reads as one identifier
                if not 0 < _identifier_end(name, 0) == len(name):
                    raise ValueError(f"bad parameter name {_clip(repr(name))}"
                                     f" at params[{i}]")
        elif self.kind != RATIONAL:
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "ops", OPS_CLASSES[self.kind](self))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(RATIONAL)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(PRIME, p=p)

    @staticmethod
    def rational_function(*params: str) -> "FieldSpec":
        return FieldSpec(RATIONAL_FUNCTION, params=tuple(params))

    # -- element builders --------------------------------------------------

    def zero(self) -> "Scalar":
        """The Scalar that holds the field's zero object, ops.zero."""
        return _scalar(self, self.ops.zero)

    def one(self) -> "Scalar":
        return self.from_fraction(Fraction(1))

    def from_int(self, n: int) -> "Scalar":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, q: Fraction) -> "Scalar":
        return _scalar(self, self.ops.from_fraction(q))

    def parameter(self, name: str) -> "Scalar":
        if self.kind != RATIONAL_FUNCTION:
            raise ValueError("parameters only exist in rational_function fields")
        if name not in self.params:
            raise ValueError(f"unknown parameter {_clip(repr(name))}")
        mono = 1 << self.ops.shifts[self.params.index(name)]
        return _scalar(self, ({mono: 1}, {0: 1}))

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(self, text)


class Scalar:
    """An exact element of the field named by its FieldSpec.

    Immutable by convention; all arithmetic returns fresh values, computed by
    the field's ops table on the raw values the Scalars hold (see the module
    docstring).  Scalar(field, value) unboxes value, and `value` boxes a
    copy: a Fraction over Q, an int over F_p, and a (numerator, denominator)
    pair of sparse polynomials keyed by exponent tuples, not necessarily
    reduced, over Q(params).
    """

    __slots__ = ("field", "_v")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self._v = field.ops.unbox(value)

    @property
    def value(self):
        return self.field.ops.box(self._v)

    # -- helpers -----------------------------------------------------------

    def _joins(self, other) -> bool:
        return isinstance(other, Scalar) and (
            other.field is self.field or other.field == self.field)

    def _join(self, other: "Scalar") -> None:
        if not self._joins(other):
            raise FieldMismatch(f"cannot combine {self!r} and {other!r}")

    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self._v)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._join(other)
        return _scalar(self.field, self.field.ops.add(self._v, other._v))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _scalar(self.field, self.field.ops.neg(self._v))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._join(other)
        return _scalar(self.field, self.field.ops.mul(self._v, other._v))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return _scalar(self.field, self.field.ops.inv(self._v))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not self._joins(other):
            return NotImplemented
        return self.field.ops.eq(self._v, other._v)

    def __hash__(self):
        raise TypeError("Scalar is unhashable (rational functions lack canonical form)")

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)!r})"

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, assignment: dict[str, Fraction]) -> "Scalar":
        """Substitute rationals for all parameters, returning a Scalar over Q."""
        if self.field.kind != RATIONAL_FUNCTION:
            raise ValueError("evaluate only applies to rational_function scalars")
        values = []
        for name in self.field.params:
            if self._uses(name) and name not in assignment:
                raise IncompleteAssignment(f"no value for parameter {name!r}")
            values.append(Fraction(assignment.get(name, 0)))
        (num, den), shifts = self._v, self.field.ops.shifts
        d = _poly_eval(den, shifts, values)
        if d == 0:
            raise EvalSingular("denominator evaluates to zero")
        return Scalar(FieldSpec.rational(), _poly_eval(num, shifts, values) / d)

    def _uses(self, name: str) -> bool:
        bits = _FIELD << self.field.ops.shifts[self.field.params.index(name)]
        num, den = self._v
        return any(m & bits for m in num) or any(m & bits for m in den)


_new = object.__new__


def _scalar(field: FieldSpec, raw) -> Scalar:
    """The Scalar of field that holds the raw value raw, as is."""
    x = _new(Scalar)
    x.field, x._v = field, raw
    return x


def scalar_eq(x: Scalar, y: Scalar) -> bool:
    """Exact field equality; cross-multiplied for rational functions."""
    x._join(y)
    return x == y


# ---------------------------------------------------------------------------
# Literal grammar: integers, p/q rationals, parameter identifiers, + - * / ( )
# ---------------------------------------------------------------------------

def _identifier_end(text: str, i: int) -> int:
    """The end of the identifier at text[i], or i when none starts there: a
    letter or '_', then letters, digits or '_'.  FieldSpec accepts exactly
    the parameter names this reads whole."""
    if i < len(text) and (text[i].isalpha() or text[i] == "_"):
        i += 1
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
    return i


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "0123456789":  # not str.isdigit, which takes '²' and '٣'
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif (j := _identifier_end(text, i)) > i:
            tokens.append(("ident", text[i:j]))
            i = j
        elif c in "+-*/()":
            tokens.append((c, c))
            i += 1
        else:
            raise ValueError(f"bad character {c!r} in scalar literal at {i}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, field: FieldSpec, tokens):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> Scalar:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        kind, text = self.take()
        if kind == "int":
            return self.field.from_int(int(text))
        if kind == "ident":
            return self.field.parameter(text)
        if kind == "(":
            value = self.expr()
            if self.take()[0] != ")":
                raise ValueError("unbalanced parentheses in scalar literal")
            return value
        raise ValueError(f"unexpected token {text!r} in scalar literal")


def parse_scalar(field: FieldSpec, text: str) -> Scalar:
    parser = _Parser(field, _tokenize(text))
    value = parser.expr()
    if parser.peek() != "end":
        raise ValueError(f"trailing garbage in scalar literal {_clip(repr(text))}")
    return value


def _poly_str(p, params, shifts) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, reverse=True):  # lexicographic in the exponents
        c = p[mono]
        factors = []
        for name, s in zip(params, shifts):
            factors.extend([name] * (mono >> s & _FIELD))  # grammar has no '^'
        if not factors:
            parts.append(_frac_str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(_frac_str(c) + "*" + "*".join(factors))
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


def scalar_to_str(x: Scalar) -> str:
    """Serialize back into the literal grammar (round-trips through parse)."""
    return x.field.ops.to_str(x._v)
