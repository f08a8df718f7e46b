import copy
import operator
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bihomalg import (FieldSpec, Scalar, parse_scalar, rb_derive, scalar_eq,
                      scalar_to_str, symbolic_rb_family,
                      symbolic_two_param_algebra, yau_twist)
from bihomalg.errors import (EvalSingular, ExponentOverflow, FieldMismatch,
                             IncompleteAssignment)
from bihomalg.scalars import (_EXP_LIMIT, _PRIME_LIMIT, _Parser, _is_prime,
                               _poly_add, _poly_mul, _tokenize)


def test_rational_arithmetic():
    q = FieldSpec.rational()
    x = q.from_fraction(Fraction(3, 4))
    y = q.from_int(2)
    assert scalar_eq(x + y, q.from_fraction(Fraction(11, 4)))
    assert scalar_eq(x * y, q.from_fraction(Fraction(3, 2)))
    assert scalar_eq(-x, q.from_fraction(Fraction(-3, 4)))
    assert scalar_eq(y / x, q.from_fraction(Fraction(8, 3)))


def test_prime_field_wraps():
    f = FieldSpec.prime(5)
    assert (f.from_int(3) + f.from_int(4)).value == 2
    assert (f.from_int(3) * f.from_int(4)).value == 2
    assert f.from_int(2).inverse().value == 3
    assert f.from_fraction(Fraction(1, 2)).value == 3


def test_prime_requires_prime():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)


def test_rational_function_cross_multiplied_equality():
    f = FieldSpec.rational_function("a", "b")
    a, b = f.parameter("a"), f.parameter("b")
    # a/b == (a*a)/(a*b) without any GCD reduction
    lhs = a / b
    rhs = (a * a) / (a * b)
    assert lhs == rhs
    assert not (lhs == (b / a))


def test_parse_round_trip():
    f = FieldSpec.rational_function("a", "r2")
    for text in ["a", "1-a", "a*a/r2", "-(a+1)/(r2*r2)", "3/4", "(1-a)*a"]:
        x = f.parse(text)
        assert x == f.parse(scalar_to_str(x)), text


def test_parse_rejects_garbage():
    q = FieldSpec.rational()
    with pytest.raises(ValueError):
        q.parse("1 +")
    with pytest.raises(ValueError):
        q.parse("2 ^ 3")
    f = FieldSpec.rational_function("a")
    with pytest.raises(ValueError):
        f.parse("c")  # unknown parameter


def test_evaluate():
    f = FieldSpec.rational_function("a", "b")
    x = f.parse("b*(1-a)/a")
    v = x.evaluate({"a": Fraction(2), "b": Fraction(3)})
    assert v.value == Fraction(-3, 2)
    with pytest.raises(EvalSingular):
        x.evaluate({"a": Fraction(0), "b": Fraction(1)})
    with pytest.raises(IncompleteAssignment):
        x.evaluate({"a": Fraction(2)})
    # parameters absent from the expression default to zero
    assert f.parse("a").evaluate({"a": Fraction(7)}).value == 7


def test_field_mismatch():
    q = FieldSpec.rational()
    f = FieldSpec.prime(3)
    with pytest.raises(FieldMismatch):
        q.one() + f.one()


def test_scalars_unhashable():
    with pytest.raises(TypeError):
        hash(FieldSpec.rational().one())


small = st.integers(min_value=-6, max_value=6)


@given(small, small, small)
def test_field_axioms_rational(x, y, z):
    q = FieldSpec.rational()
    a, b, c = q.from_int(x), q.from_int(y), q.from_int(z)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(small, small)
def test_ratfunc_sub_add_cancel(x, y):
    f = FieldSpec.rational_function("t")
    t = f.parameter("t")
    a = f.from_int(x) + t * f.from_int(y)
    b = t * t + f.from_int(y)
    assert (a + b) - b == a


# -- int polynomial coefficients against the Fraction-coefficient reference ---
#
# A copy of the Fraction-coefficient polynomial arithmetic that Q(params) used
# before integral coefficients were stored as int, driven through the same
# (unchanged) literal parser.  Same operations in the same order, so the new
# code must give the same monomial order, equal coefficients and equal text.

def _ref_poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, Fraction(0)) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _ref_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


class _RefScalar:
    def __init__(self, value):
        self.value = value

    def __add__(self, other):
        (p1, q1), (p2, q2) = self.value, other.value
        num = _ref_poly_add(_ref_poly_mul(p1, q2), _ref_poly_mul(p2, q1))
        return _RefScalar((num, _ref_poly_mul(q1, q2)))

    def __neg__(self):
        p, q = self.value
        return _RefScalar(({mono: -c for mono, c in p.items()}, q))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        (p1, q1), (p2, q2) = self.value, other.value
        return _RefScalar((_ref_poly_mul(p1, p2), _ref_poly_mul(q1, q2)))

    def __truediv__(self, other):
        p, q = other.value
        if not p:
            raise ZeroDivisionError("inverse of zero")
        return self * _RefScalar((q, p))


class _RefField:
    def __init__(self, params):
        self.params = params

    def from_fraction(self, q):
        zero = (0,) * len(self.params)
        num = {zero: Fraction(q)} if q else {}
        return _RefScalar((num, {zero: Fraction(1)}))

    def from_int(self, n):
        return self.from_fraction(Fraction(n))

    def parameter(self, name):
        i = self.params.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.params)))
        one = (0,) * len(self.params)
        return _RefScalar(({mono: Fraction(1)}, {one: Fraction(1)}))


def _q_ab_literals():
    atom = st.one_of(st.integers(0, 9).map(str), st.sampled_from(["a", "b"]))
    return st.recursive(atom, lambda sub: st.one_of(
        sub.map(lambda x: f"-{x}"),
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})")), max_leaves=4)


# An expression is a literal, a coefficient Fraction(n, d) built by
# from_fraction (the parser only makes integers), or (op, lhs, rhs).
_expressions = st.recursive(
    st.one_of(_q_ab_literals(),
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))),
    lambda sub: st.tuples(st.sampled_from("+-*/"), sub, sub), max_leaves=4)

_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def _evaluate(field, expr):
    if isinstance(expr, str):
        return _Parser(field, _tokenize(expr)).expr()
    if isinstance(expr, Fraction):
        return field.from_fraction(expr)
    op, lhs, rhs = expr
    return _OPS[op](_evaluate(field, lhs), _evaluate(field, rhs))


@given(_expressions)
def test_int_coefficients_match_fraction_reference(expr):
    f = FieldSpec.rational_function("a", "b")
    try:
        got = _evaluate(f, expr)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _evaluate(_RefField(f.params), expr)
        return
    want = _evaluate(_RefField(f.params), expr)
    for g, w in zip(got.value, want.value):
        assert list(g) == list(w)  # monomial key order
        assert list(g.values()) == list(w.values())
    assert scalar_to_str(got) == scalar_to_str(Scalar(f, want.value))


def test_q_params_coefficients_are_int_when_integral():
    f = FieldSpec.rational_function("a", "b")
    num, den = f.parse("2*a").value
    assert num == {(1, 0): 2} and den == {(0, 0): 1}
    assert all(type(c) is int for c in [*num.values(), *den.values()])
    (half,) = f.from_fraction(Fraction(1, 2)).value[0].values()
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_yau_twist_growth_is_bounded():
    # Entries are unreduced, so each twist by the structure's own maps
    # roughly doubles the largest entry (see the scalars module docstring).
    def size(x):
        num, den = x.value
        degree = max(sum(mono) for mono in [*num, *den])
        return max(len(num) + len(den), degree)

    S = rb_derive(symbolic_two_param_algebra(), symbolic_rb_family("w1f3"))
    sizes = []
    for _ in range(4):
        entries = [x for t in (S.prec, S.succ, S.dot) for row in t.constants
                   for col in row for x in col]
        entries += [x for m in (S.alpha, S.beta) for row in m.entries for x in row]
        sizes.append(max(map(size, entries)))
        S = yau_twist(S, S.alpha, S.beta)
    assert sizes == [3, 5, 13, 29]


# -- _poly_mul's int-unit shortcut against the general loop ------------------
#
# A verbatim copy of the general product loop, which _poly_mul ran for every
# pair of operands before its shortcut, on exponent tuples as monomials were
# stored before they were packed: the shortcut must give the same keys (once
# unpacked), insertion order and coefficient types.

def _loop_poly_mul(p, q):
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


def _params_field(n):
    return FieldSpec.rational_function(*(f"x{i}" for i in range(n)))


def _assert_same_polys(got, want):
    """Equal keys in the same insertion order, with coefficients of equal
    value and type."""
    for g, w in zip(got, want, strict=True):
        assert list(g.items()) == list(w.items())
        assert [type(c) for c in g.values()] == [type(c) for c in w.values()]


_nonzero = st.integers(-5, 5).filter(bool)
# Fraction(n, 1) included: an integral Fraction such as Fraction(1, 2) * 2
# stays a Fraction in a polynomial
_poly_coeffs = st.one_of(_nonzero, st.builds(Fraction, _nonzero, st.integers(1, 4)))


@st.composite
def _poly_operands(draw):
    """Two polynomials in 1-3 parameters: the int or Fraction(1) unit, one
    term, zero, or a general polynomial, on either side."""
    n = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    polys = st.one_of(
        st.just({(0,) * n: 1}), st.just({(0,) * n: Fraction(1)}),
        st.builds(lambda m, c: {m: c}, monos, _poly_coeffs),
        st.just({}), st.dictionaries(monos, _poly_coeffs, max_size=4))
    return draw(polys), draw(polys)


@settings(max_examples=400)
@given(_poly_operands())
@example(({(0, 0): 1}, {(1, 0): Fraction(1, 2), (0, 1): 3}))
@example(({(2,): 3, (0,): 1}, {(0,): Fraction(1)}))
@example(({(0, 0): Fraction(1)}, {(0, 1): 2, (1, 0): Fraction(1, 3)}))
@example(({(1,): Fraction(2)}, {(0,): 5, (3,): Fraction(-1, 3)}))
@example(({}, {(0, 0, 0): 1}))
def test_poly_mul_unit_shortcut_matches_the_general_loop(operands):
    p, q = operands
    ops = _params_field(len(next(iter(p | q), (0,)))).ops
    packed_p, packed_q = ops.unbox((p, q))
    got = _poly_mul(packed_p, packed_q, ops.guard)
    _assert_same_polys(ops.box((got,)), (_loop_poly_mul(p, q),))


# -- packed monomials against the tuple-keyed code ---------------------------
#
# Verbatim copies of _poly_add, _poly_eval, _poly_str, to_str and
# Scalar.evaluate as they ran on exponent tuples before monomials were
# packed.  The packed code must give the same keys once unpacked, the same
# insertion order and coefficient types, the same text and the same values.

def _tuple_poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _tuple_poly_eval(p, values):
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for exp, v in zip(mono, values):
            if exp:
                term *= v ** exp
        total += term
    return total


def _tuple_poly_str(p, params) -> str:
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


def _frac_str(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _tuple_to_str(value, params):
    num_s = _tuple_poly_str(value[0], params)
    if value[1] == {(0,) * len(params): 1}:
        return f"({num_s})" if ("+" in num_s[1:] or "-" in num_s[1:]) else num_s
    return f"({num_s})/({_tuple_poly_str(value[1], params)})"


def _tuple_evaluate(value, params, assignment):
    """Scalar.evaluate's value, or the type of the error it raises."""
    num, den = value
    values = []
    for i, name in enumerate(params):
        uses = any(m[i] for m in num) or any(m[i] for m in den)
        if uses and name not in assignment:
            return IncompleteAssignment
        values.append(Fraction(assignment.get(name, 0)))
    d = _tuple_poly_eval(den, values)
    if d == 0:
        return EvalSingular
    return _tuple_poly_eval(num, values) / d


@st.composite
def _packed_cases(draw):
    """1-6 parameters; two polynomials, each the int or Fraction(1) unit,
    zero, or up to 4 terms; and small rationals for some parameters.  Large
    exponents are just under half the limit, so a product of two stays just
    under the guard."""
    n = draw(st.integers(1, 6))
    large = draw(st.booleans())
    exps = st.integers(0, 3)
    if large:
        exps = st.one_of(exps, st.integers(_EXP_LIMIT // 2 - 2, _EXP_LIMIT // 2 - 1))
    unit = (0,) * n
    polys = st.one_of(st.just({unit: 1}), st.just({unit: Fraction(1)}), st.just({}),
                      st.dictionaries(st.tuples(*[exps] * n), _poly_coeffs, max_size=4))
    names = [f"x{i}" for i in range(n)]
    assignment = draw(st.dictionaries(st.sampled_from(names), st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 3))))
    return n, large, draw(polys), draw(polys), assignment


@settings(max_examples=300)
@given(_packed_cases())
@example((2, True, {(_EXP_LIMIT // 2 - 1, 0): 1, (0, 1): Fraction(1, 2)},
          {(_EXP_LIMIT // 2, 3): -2, (0, 0): 1}, {}))
def test_packed_polynomials_match_the_tuple_keyed_reference(case):
    n, large, p, q, assignment = case
    field = _params_field(n)
    ops = field.ops
    packed_p, packed_q = ops.unbox((p, q))
    got = (_poly_mul(packed_p, packed_q, ops.guard), _poly_add(packed_p, packed_q))
    _assert_same_polys(ops.box(got), (_loop_poly_mul(p, q), _tuple_poly_add(p, q)))
    if large:
        return  # the text and the value of x**(2**30) are too large to build
    assert ops.to_str((packed_p, packed_q)) == _tuple_to_str((p, q), field.params)
    want = _tuple_evaluate((p, q), field.params, assignment)
    try:
        got = Scalar(field, (p, q)).evaluate(assignment).value
    except (EvalSingular, IncompleteAssignment) as exc:
        got = type(exc)
    assert got == want and type(got) is type(want)


# -- the exponent limit and the storage of a Scalar ----------------------------

@pytest.mark.parametrize("name", ["a", "c"])
def test_squaring_a_parameter_31_times_overflows(name):
    """a**(2**30) is below the limit 2**31 and a**(2**31) is not.  Without
    the guard, the first parameter's carry would leave the int's top field
    and the last one's would land in its neighbour's field."""
    f = FieldSpec.rational_function("a", "b", "c")
    x = f.parameter(name)
    for _ in range(30):
        x = x * x
    top = tuple(_EXP_LIMIT // 2 if p == name else 0 for p in f.params)
    assert x.value == ({top: 1}, {(0, 0, 0): 1})
    below = tuple(e and e - 1 for e in top)
    assert (x * Scalar(f, ({below: 1}, {(0, 0, 0): 1}))).value[0] == {
        tuple(e and _EXP_LIMIT - 1 for e in top): 1}
    with pytest.raises(ExponentOverflow):
        x * x
    with pytest.raises(ExponentOverflow):
        x / x.inverse()


@pytest.mark.parametrize("exps", [(-1, 0), (0, _EXP_LIMIT), (0, 2 ** 64), (1,),
                                  (1, 0, 0), (Fraction(1), 0)])
def test_scalar_refuses_exponents_outside_the_packed_fields(exps):
    f = FieldSpec.rational_function("a", "b")
    for value in (({exps: 1}, {(0, 0): 1}), ({(0, 0): 1}, {exps: 1})):
        with pytest.raises(ValueError, match=r"needs 2 exponents in \[0, 2\*\*31\)"):
            Scalar(f, value)
    largest = ({(_EXP_LIMIT - 1, 0): 3}, {(0, _EXP_LIMIT - 1): 1})
    assert Scalar(f, largest).value == largest


@pytest.mark.parametrize("field, text", [
    (FieldSpec.rational(), "-3/4"), (FieldSpec.rational(), "2"),
    (FieldSpec.prime(5), "3"),
    (FieldSpec.rational_function("a", "b"), "(a*a-b/2)/(b+1)"),
    (FieldSpec.rational_function("a", "b"), "3")])
def test_scalar_pickle_and_deepcopy_keep_value_type_and_repr(field, text):
    x = field.parse(text)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(y.value) is type(x.value) and repr(y.value) == repr(x.value)
        assert repr(y) == repr(x) and y == x


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if _trial_division(n)]
    assert _is_prime(2 ** 61 - 1)
    # a strong pseudoprime to the 12 prime bases 2..37
    assert not _is_prime(318665857834031151167461)


def test_prime_field_refuses_large_p_quickly():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="is not prime"):
        FieldSpec.prime(1000000007 * 1000000009)
    assert time.perf_counter() - start < 1
    assert FieldSpec.prime(2 ** 61 - 1).p == 2 ** 61 - 1
    for p in (0, 1, 4, 6):
        with pytest.raises(ValueError, match="is not prime"):
            FieldSpec.prime(p)
    with pytest.raises(ValueError, match="out of range"):
        FieldSpec.prime(_PRIME_LIMIT)
    with pytest.raises(ValueError, match="out of range"):
        FieldSpec.prime(2 ** 89 - 1)  # a Mersenne prime, but too large


@pytest.mark.parametrize("p", [5.0, 43.0])
def test_prime_field_refuses_non_int_p(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        FieldSpec.prime(p)


@pytest.mark.parametrize("field, text, message", [
    (FieldSpec.rational(), "1" + " 1" * 3000, "trailing garbage"),
    (FieldSpec.rational_function("a", "b"), "c" * 5000, "unknown parameter"),
])
def test_parse_scalar_clips_the_echoed_literal(field, text, message):
    with pytest.raises(ValueError, match=message) as info:
        parse_scalar(field, text)
    assert len(str(info.value)) < 200


def test_rational_function_field_clips_a_bad_parameter_name():
    with pytest.raises(ValueError, match="bad parameter name") as info:
        FieldSpec.rational_function("a b" * 3000)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("text, char, pos", [
    ("²", "²", 0), ("٣", "٣", 0), ("1٣", "٣", 1), ("2/²", "²", 2),
])
def test_scalar_literals_take_ascii_digits_only(text, char, pos):
    """str.isdigit takes '²', which int() refuses, and '٣', which it reads as
    3; the tokenizer reads ASCII digits alone."""
    for field in (FieldSpec.rational(), FieldSpec.prime(5),
                  FieldSpec.rational_function("a")):
        with pytest.raises(ValueError,
                           match=f"^bad character '{char}' in scalar literal at {pos}$"):
            parse_scalar(field, text)


@given(name=st.text(max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_parameter_name_is_accepted_exactly_when_the_grammar_reads_it_whole(name):
    """`a·` passes str.isidentifier, but the literal grammar refuses '·'."""
    try:
        tokens = _tokenize(name)
    except ValueError:
        tokens = None
    try:
        FieldSpec.rational_function(name)
    except ValueError as exc:
        assert str(exc).endswith(" at params[0]")
        accepted = False
    else:
        accepted = True
    assert accepted == (tokens == [("ident", name), ("end", "")])
