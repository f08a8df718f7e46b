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
to its raw value), box (back) and from_fraction.  A raw value is an int or
a Fraction over Q (an int when integral), an int in 0..p-1 over F_p, and a
(numerator, denominator) pair of polynomial dicts over Q(params).  Scalar
arithmetic goes through the table, and so do the kernels of linalg, which
keep raw values and box them into Scalars only where they are read.  Over
F_p and Q(params) a raw value is a Scalar's value; over Q the Scalar holds
the equal Fraction.  The ops classes live at module level, so a pickled
FieldSpec (as search --jobs sends its workers) carries its table; the table
is not a dataclass field, so FieldSpec equality, hash and repr ignore it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import EvalSingular, FieldMismatch, IncompleteAssignment

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


# A polynomial is a dict mapping exponent tuples (one slot per parameter,
# in FieldSpec order) to nonzero coefficients: an int when integral, else a
# Fraction.  Mixed int/Fraction arithmetic is exact, and int arithmetic is
# several times cheaper than Fraction.  {} is the zero polynomial.

def _poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _poly_mul(p, q):
    # Times the int unit {(0, .., 0): 1}, the general loop below gives
    # 0 + c * 1 = c, of c's type, at each monomial of the other operand in
    # its order: a copy, so the shortcut changes no printed byte.  A unit
    # Fraction(1) takes the loop, since int * Fraction(1) is a Fraction.
    # There is no one-term shortcut: one measured slower than this loop.
    if len(q) == 1:
        (m2, c2), = q.items()
        if c2 == 1 and type(c2) is int and not any(m2):
            return dict(p)
    if len(p) == 1:
        (m1, c1), = p.items()
        if c1 == 1 and type(c1) is int and not any(m1):
            return dict(q)
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(map(operator.add, m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _poly_eval(p, values):
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for exp, v in zip(mono, values):
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

    box = unbox


class _RationalOps(_Ops):
    """Q: an int, or a Fraction when not integral; a Scalar holds a Fraction."""

    add, mul, neg = map(staticmethod, (operator.add, operator.mul, operator.neg))
    box = from_fraction = Fraction
    inv = partial(Fraction, 1)  # Fraction(1, a)
    to_str = staticmethod(_frac_str)

    @staticmethod
    def unbox(value):
        return value.numerator if value.denominator == 1 else value


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
    Equality cross-multiplies without counting as a mul."""

    def __init__(self, field: "FieldSpec"):
        self.params, self.mono = field.params, (0,) * len(field.params)
        self.zero, self.one = ({}, {self.mono: 1}), ({self.mono: 1}, {self.mono: 1})

    @staticmethod
    def add(a, b):
        (p1, q1), (p2, q2) = a, b
        return _poly_add(_poly_mul(p1, q2), _poly_mul(p2, q1)), _poly_mul(q1, q2)

    @staticmethod
    def mul(a, b):
        return _poly_mul(a[0], b[0]), _poly_mul(a[1], b[1])

    @staticmethod
    def neg(a):
        return {mono: -c for mono, c in a[0].items()}, a[1]

    inv = operator.itemgetter(1, 0)  # (denominator, numerator)

    @staticmethod
    def is_zero(a):
        return not a[0]

    @staticmethod
    def eq(a, b):
        return _poly_mul(a[0], b[1]) == _poly_mul(b[0], a[1])

    def from_fraction(self, q):
        c = q.numerator if q.denominator == 1 else Fraction(q)
        return {self.mono: c} if c else {}, {self.mono: 1}

    def to_str(self, value):
        num_s = _poly_str(value[0], self.params)
        if value[1] == {self.mono: 1}:
            return f"({num_s})" if ("+" in num_s[1:] or "-" in num_s[1:]) else num_s
        return f"({num_s})/({_poly_str(value[1], self.params)})"


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
            for name in self.params:
                if not name.isidentifier():
                    raise ValueError(f"bad parameter name {_clip(repr(name))}")
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
        return self.from_fraction(Fraction(0))

    def one(self) -> "Scalar":
        return self.from_fraction(Fraction(1))

    def from_int(self, n: int) -> "Scalar":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, q: Fraction) -> "Scalar":
        return Scalar(self, self.ops.from_fraction(q))

    def parameter(self, name: str) -> "Scalar":
        if self.kind != RATIONAL_FUNCTION:
            raise ValueError("parameters only exist in rational_function fields")
        if name not in self.params:
            raise ValueError(f"unknown parameter {_clip(repr(name))}")
        i = self.params.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.params)))
        return Scalar(self, ({mono: 1}, {self.ops.mono: 1}))

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(self, text)


class Scalar:
    """An exact element of the field named by its FieldSpec.

    Immutable by convention; all arithmetic returns fresh values, computed by
    the field's ops table.  The value is a Fraction over Q, an int over F_p,
    and a (numerator, denominator) pair of sparse polynomials, not
    necessarily reduced, over Q(params).
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value

    # -- helpers -----------------------------------------------------------

    def _joins(self, other) -> bool:
        return isinstance(other, Scalar) and (
            other.field is self.field or other.field == self.field)

    def _join(self, other: "Scalar") -> None:
        if not self._joins(other):
            raise FieldMismatch(f"cannot combine {self!r} and {other!r}")

    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.value)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._join(other)
        return Scalar(self.field, self.field.ops.add(self.value, other.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.ops.neg(self.value))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._join(other)
        return Scalar(self.field, self.field.ops.mul(self.value, other.value))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Scalar(self.field, self.field.ops.inv(self.value))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not self._joins(other):
            return NotImplemented
        return self.field.ops.eq(self.value, other.value)

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
        num, den = self.value
        d = _poly_eval(den, values)
        if d == 0:
            raise EvalSingular("denominator evaluates to zero")
        return Scalar(FieldSpec.rational(), _poly_eval(num, values) / d)

    def _uses(self, name: str) -> bool:
        i = self.field.params.index(name)
        num, den = self.value
        return any(m[i] for m in num) or any(m[i] for m in den)


def scalar_eq(x: Scalar, y: Scalar) -> bool:
    """Exact field equality; cross-multiplied for rational functions."""
    x._join(y)
    return x == y


# ---------------------------------------------------------------------------
# Literal grammar: integers, p/q rationals, parameter identifiers, + - * / ( )
# ---------------------------------------------------------------------------

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
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
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


def _poly_str(p, params) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, reverse=True):
        c = p[mono]
        factors = []
        for exp, name in zip(mono, params):
            factors.extend([name] * exp)  # grammar has no '^'
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
    return x.field.ops.to_str(x.value)
