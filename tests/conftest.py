"""Shared builders for concrete algebras used across the test modules, and
field-operation and kernel-call counters."""

from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from bihomalg import (BiHomAssociativeAlgebra, FieldSpec, LinearMap,
                      RBOperator, Scalar, StructureTable)
from bihomalg import bimodules, pseudotwistors, structures
from bihomalg.errors import BiHomAlgError
from bihomalg.linalg import tensor2
from bihomalg.scalars import OPS_CLASSES
from bihomalg.structures import _read


def truncated_poly_algebra(field: FieldSpec, degree: int) -> BiHomAssociativeAlgebra:
    """k[x]/(x^degree) on the basis 1, x, .., x^(degree-1), alpha = beta = id."""
    n = degree
    zero, one = field.zero(), field.one()
    constants = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                constants[i][j][i + j] = one
    table = StructureTable(field, tuple(
        tuple(tuple(col) for col in row) for row in constants))
    return BiHomAssociativeAlgebra.associative(field, table)


def integration_rb(field: FieldSpec, degree: int) -> RBOperator:
    """The weight-0 operator x^k -> x^(k+1)/(k+1) on k[x]/(x^degree),
    truncating at the top; needs 1..degree-1 invertible in the field."""
    n = degree
    zero = field.zero()
    entries = [[zero] * n for _ in range(n)]
    for k in range(n - 1):
        entries[k + 1][k] = field.from_int(k + 1).inverse()
    return RBOperator(LinearMap(field, tuple(tuple(r) for r in entries)),
                      field.zero())


@pytest.fixture
def qfield():
    return FieldSpec.rational()


@pytest.fixture
def f5():
    return FieldSpec.prime(5)


@pytest.fixture
def qx3(qfield):
    return truncated_poly_algebra(qfield, 3)


@pytest.fixture
def qx3_rb(qfield):
    return integration_rb(qfield, 3)


@pytest.fixture
def qx2(qfield):
    return truncated_poly_algebra(qfield, 2)


@pytest.fixture
def qx2_rb(qfield):
    return integration_rb(qfield, 2)


def frac(n, d=1):
    return Fraction(n, d)


def counted(monkeypatch, fn, *args, to_zero=False):
    """fn(*args) and its (mul, add) call counts at the fields' ops tables,
    which count a raw kernel's operations and a Scalar's alike.  With
    to_zero, a third count follows: the adds whose left operand is the
    table's zero object (ops.zero, which FieldSpec.zero() holds), by
    identity, not equality.  A kernel that stores each sum's first term as
    computed makes none of them."""
    counts = {"mul": 0, "add": 0, "to_zero": 0}

    def counting(name, op, left_is_zero):
        def wrapper(*xs):
            counts[name] += 1
            if name == "add" and left_is_zero(xs):
                counts["to_zero"] += 1
            return op(*xs)
        return wrapper

    with monkeypatch.context() as m:
        for cls in OPS_CLASSES.values():
            for name in ("mul", "add"):
                raw = cls.__dict__[name]
                if isinstance(raw, staticmethod):
                    left_is_zero = lambda xs, zero=cls.zero: xs[0] is zero
                    m.setattr(cls, name, staticmethod(
                        counting(name, raw.__func__, left_is_zero)))
                else:  # xs[0] is the table, which holds its zero
                    left_is_zero = lambda xs: xs[1] is xs[0].zero
                    m.setattr(cls, name, counting(name, raw, left_is_zero))
        result = fn(*args)
    ops = counts["mul"], counts["add"]
    return result, (ops + (counts["to_zero"],) if to_zero else ops)


def raw_report(rep):
    """A report's violations with raw scalar values, its sub-checks, cap and
    total violation count."""
    return ([(axiom, idx, [x.value for x in lhs.coords], [x.value for x in rhs.coords])
             for axiom, idx, lhs, rhs in rep.violations], rep.sub_checks, rep.cap,
            rep.total_violations)


def against_reference(fn, reference, *args):
    """The outcomes of fn(*args) and reference(*args), each the result or the
    (type, text) of the BiHomAlgError raised, and their (mul, add) counts."""
    def outcome(f):
        try:
            return f(*args)
        except BiHomAlgError as exc:
            return type(exc), str(exc)

    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, outcome, fn)
        want, want_ops = counted(monkeypatch, outcome, reference)
    return got, want, got_ops, want_ops


def kron_skipped(h, f, g) -> int:
    """The muls of tensor2(f, g) that _compose_kron(h, f, g) never makes:
    of the Kronecker entries f[i1][j1] * g[i2][j2], those in a row k =
    i1*g.rows + i2 where column k of h stores no entry."""
    is_zero = g.field.ops.is_zero

    def row_counts(m):
        counts = [0] * m.rows
        for col in m._d:
            for i, x in col.items():
                counts[i] += not is_zero(x)
        return counts

    in_f, in_g = row_counts(f), row_counts(g)
    read = [bool(col) for col in h._d]
    return sum(in_f[i1] * in_g[i2] for i1 in range(f.rows)
               for i2 in range(g.rows) if not read[i1 * g.rows + i2])


def kron_skipped_muls(mats, rows) -> int:
    """The muls of tensor2 that the evaluator skips on rows (a checker's
    rows and sub-check rows together), mats as the evaluator reads them.
    A Kronecker factor read once over all the rows, as the last factor of a
    side after another, is composed in place (kron_skipped)."""
    sides = [side for _, lhs, rhs in rows for side in (lhs, rhs)]
    reads = Counter(f for side in sides for f in side if isinstance(f, tuple))

    def matrix(factor):
        if isinstance(factor, str):
            return _read(mats[factor])[0]
        return reduce(tensor2, (_read(mats[name])[0] for name in factor))

    skipped = 0
    for side in sides:
        if len(side) > 1 and reads[side[-1]] == 1:
            h = reduce(LinearMap.compose, map(matrix, side[:-1]))
            *kron, g = (_read(mats[name])[0] for name in side[-1])
            skipped += kron_skipped(h, reduce(tensor2, kron), g)
    return skipped


def kernel_calls(monkeypatch, fn, *args):
    """fn(*args) and its (tensor2, _compose_kron) call counts, counted where
    the checkers and constructors call them."""
    calls = {"tensor2": 0, "_compose_kron": 0}

    def counting(name, kernel):
        def wrapper(*maps):
            calls[name] += 1
            return kernel(*maps)
        return wrapper

    with monkeypatch.context() as m:
        for module in (structures, bimodules, pseudotwistors):
            for name in calls:
                if hasattr(module, name):
                    m.setattr(module, name, counting(name, getattr(module, name)))
        result = fn(*args)
    return result, (calls["tensor2"], calls["_compose_kron"])
