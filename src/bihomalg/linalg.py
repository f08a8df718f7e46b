"""Finite-dimensional exact linear algebra: vectors, matrices, bilinear
structure-constant tables, and Kronecker products for maps on tensor
squares/cubes.

Basis conventions are fixed once and for all: the basis of A (x) B is ordered
lexicographically, index(i, j) = i*dim(B) + j with 0-based indices, and a
LinearMap stores entries[i][j] = coefficient of e_i in the image of e_j.

Storage is raw: a Vector, LinearMap or StructureTable holds its field and
the raw values of its entries in `_d` (an int or Fraction over Q, an int
over F_p, a numerator/denominator pair of polynomials over Q(params); see
scalars), and every kernel computes on them through the field's ops table,
`field.ops`.  A Vector is a tuple.  A LinearMap is sparse by column: `_d[j]`
is a dict from row to value, rows increasing, and a row missing from it
holds `ops.zero`.  A StructureTable is stored as its matrix X (x) Y -> Z:
column i*dim_right + j holds c[i][j], the coordinates of e_i e_j, and
`as_matrix` and `from_matrix` share these dicts.  A dict stores every value
that is not structurally equal (==) to `ops.zero`; so over Q(params) a
computed zero with a denominator, `({}, q)`, is stored, and reading a
missing row back as `ops.zero` gives every kernel the value and the printed
form it had.  No dict is changed once stored, so maps and tables may share
them.  Scalar stays the public boundary: the constructors take Scalars of
the container's field (FieldMismatch refuses any other) and unbox them, and
`coords`, `entries` and `constants` box the raw values on each read.  The
kernels build no Scalar; a checker boxes only the columns of the violations
it logs.

`LinearMap.compose` and `tensor2` visit only the stored entries and skip
those that are zero, in the order of the dense loops: every entry of a
product is `a1*b1 + a2*b2 + ...` with k increasing (column by column, as in
Gustavson's sparse product), and every Kronecker entry is one `a*b`.  So
each output entry comes from the same field operations as a dense
evaluation, less the dense loop's add to its starting zero (below).  That
matters over Q(params), where the printed (unreduced) form of a rational
function depends on that sequence.  As in Gustavson's product, `compose`
sums a column in an accumulator of the rows its products touch, a dict,
not a slot per row: it reads the dict out in increasing row order (by row
alone, as raw values do not order) and drops the sums structurally equal
to `ops.zero`, and a column of one entry keeps its accumulator dict.  Its
work is its multiply-adds and its output entries, not rows times nonempty
columns.  `CheckReport._compare` and `==` compare two maps or tables column
by column, over the stored rows only.

`_compose_kron(h, f, g)` is `h.compose(K)` for K = `tensor2(f, g)`, entry
for entry, without building K: the rule for Kronecker products that Van
Loan states (The ubiquitous Kronecker product, 2000), in Gustavson's
column at a time.  It keeps the two calls' order of field operations: it
visits the columns j1*g.cols + j2 of K that tensor2 stores, skipping an
empty column of f or g as tensor2 does, and in each the rows k =
i1*g.rows + i2 increasing; it makes the Kronecker value
`mul(f[i1][j1], g[i2][j2])` of two nonzero factors only where column k of
h stores an entry, and sums `mul(h[i][k], value)` as `compose` does.  So
its adds are those of the two calls and its muls are no more, fewer by
the Kronecker values in rows where h stores nothing.  It refuses what they
refuse: the field of f against g's, then "composition dims differ", then
h's field against f's.  The package composes a map after a Kronecker
product only through it, or after a factor that several rows of one check
read, which `tensor2` builds once.

`+` of two maps or two tables merges their stored entries column by
column: `ops.add` where both store a row, the stored value where one does,
and the other operand's dict itself where a column is empty; a sum
structurally equal to `ops.zero` is dropped.  That is the dense sum byte
for byte, as `add(x, zero)` and `add(zero, y)` are x and y in value, type
and dict order (over Q(params) `_poly_mul` copies a polynomial times the
int unit, and `_poly_add` copies one plus {}).  `scale` stays dense: over
Q(params) `c*zero` is `({}, q_c)`, a zero with c's denominator, which is
stored, so skipping the missing entries would change bytes.  So do the
table ops' sums, `_combine` (below).

Every sum follows one accumulation rule, in `compose`, `_compose_kron`,
`_combine` and `StructureTable.apply` (and, on a dict, in
`rota_baxter._inner_map`): an accumulator that is still the zero object
stores its first term as computed, and `ops.add` is called from the second
term on.  The dense loop's `zero + t1` gives t1 byte for byte, so the rule
changes no value, type or printed form, only the work: over Q `0 + y` is
y, an int or a Fraction alike; over F_p `(0 + y) % p` is y; over Q(params)
`add(zero, y)` is y's numerator and denominator dicts with the same
coefficients and insertion order, as zero's denominator is the int unit
{0: 1}, which `_poly_mul` copies.  The test is identity, `acc is
ops.zero`, never equality: a sum that cancelled is added to as before,
since over Q a `Fraction(0)` plus the int 3 is a Fraction, not the int 3,
and over Q(params) a cancelled `({}, d)` is not the zero object.  (Over Q
and F_p a computed int 0 is the zero object, and adding to it would give
the next term unchanged.)

`StructureTable.apply` visits the stored constants too and skips the zero
ones, as its dense loop did.  Every other kernel reads a map or table
densely, through `_dense()` (the nested public view) or `_columns()`, and
so makes the mul calls of the dense loops, and their add calls but the adds
to a starting zero: `scale`, `entries`, `LinearMap.apply` and
`postcompose`.  `LinearMap.apply` and the table ops `compose_left`,
`compose_right`, `twist` and `postcompose` form linear combinations of
whole columns through `_combine`: `c1*v1 + c2*v2 + ...` coordinate by
coordinate, in term order, skipping a term whose coefficient c is zero but
not the zero coordinates of its v (`compose_left` and `compose_right` take
the coefficients c from a map's stored entries, as the missing ones would
be skipped).  The products
with those zeros stay because they reach the printed forms: over Q(params),
`c*0 + ...` keeps the denominators of c, e.g. `(a*a*a)/(a)` where a
zero-skip would give `a*a`.

So the Rota-Baxter-type checkers (rota_baxter._rb_type) pick their
kernels by field.  Over Q and F_p, whose values have one form, both sides
are `compose` and `tensor2` chains over the operation's matrix.  Over
Q(params) both are built by the table ops, and a violation prints their
forms.  The constructors' tables come from the table ops over every field.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

from .errors import DimensionMismatch, FieldMismatch
from .scalars import FieldSpec, Scalar, _clip, _scalar


def _join(*fields: FieldSpec) -> None:
    """Refuse values over different fields."""
    for other in fields[1:]:
        if other is not fields[0] and other != fields[0]:
            raise FieldMismatch(f"cannot combine values over {fields[0]} and {other}")


def _check(cond: bool, msg: str, *operands) -> None:
    """Refuse operands of the wrong dims, or over different fields."""
    if not cond:
        raise DimensionMismatch(msg)
    for x in operands[1:]:  # most calls share one field object: no _join
        if x.field is not operands[0].field:
            _join(*(y.field for y in operands))
            return


def _raw(field: FieldSpec, x) -> object:
    """The raw value of x, which must be a Scalar of field."""
    if not isinstance(x, Scalar) or (x.field is not field and x.field != field):
        raise FieldMismatch(f"{x!r} is not a Scalar of {field}")
    return field.ops.norm(x._v)


def _nest(fn, depth: int, data) -> tuple:
    """fn mapped over the entries of nested tuples of the given depth."""
    if depth == 1:
        return tuple(map(fn, data))
    return tuple(_nest(fn, depth - 1, part) for part in data)


def _combine(ops, n: int, terms) -> tuple:
    """c1*v1 + c2*v2 + ... for (c, v) in terms, v of length n, coordinate by
    coordinate in term order (ops.zero when every term is skipped); terms
    with c == 0 are skipped, zero coordinates of v are not.  A coordinate
    that is still the zero object stores its first product as computed, and
    only later terms are added to it: the dense loop's `zero + c1*x1` is
    `c1*x1` in value, type and form (see the module docstring)."""
    add, mul, is_zero, zero = ops.add, ops.mul, ops.is_zero, ops.zero
    out = [zero] * n
    for c, v in terms:
        if not is_zero(c):
            out = [mul(c, x) if acc is zero else add(acc, mul(c, x))
                   for acc, x in zip(out, v)]
    return tuple(out)


class _Raw:
    """A field and raw values _d, stored as each subclass says and read
    back nested as the public view by _dense().  The public constructors
    unbox Scalars."""

    __slots__ = ("field", "_d")

    def _boxed(self):
        return _nest(partial(_scalar, self.field), self._depth, self._dense())

    def __sub__(self, other):
        return self + other.scale(-self.field.one())

    def scale(self, c: Scalar):
        c, mul = _raw(self.field, c), self.field.ops.mul
        return self._map(lambda a: mul(c, a))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return ((other.field is self.field or other.field == self.field)
                and self._shape() == other._shape() and self._equal(other))

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def __repr__(self):
        return (f"{type(self).__name__}(field={self.field!r}, "
                f"{self._public}={self._boxed()!r})")


class Vector(_Raw):
    __slots__ = ()
    _depth, _public = 1, "coords"
    coords = property(_Raw._boxed)

    def __init__(self, field: FieldSpec, coords):
        self.field, self._d = field, tuple(_raw(field, x) for x in coords)

    @staticmethod
    def _of(field: FieldSpec, data: tuple) -> "Vector":
        obj = object.__new__(Vector)
        obj.field, obj._d = field, data
        return obj

    def _dense(self) -> tuple:
        return self._d

    def _map(self, fn, *others) -> "Vector":
        return Vector._of(self.field, tuple(map(fn, self._d, *(o._d for o in others))))

    def __add__(self, other: "Vector") -> "Vector":
        _check(self.dim == other.dim, "vector dims differ", self, other)
        return self._map(self.field.ops.add, other)

    def _equal(self, other) -> bool:
        return all(map(self.field.ops.eq, self._d, other._d))

    def is_zero(self) -> bool:
        return all(map(self.field.ops.is_zero, self._d))

    @property
    def dim(self) -> int:
        return len(self._d)

    _shape = dim.fget

    @staticmethod
    def zero(field: FieldSpec, n: int) -> "Vector":
        return Vector._of(field, (field.ops.zero,) * n)

    @staticmethod
    def basis(field: FieldSpec, n: int, i: int) -> "Vector":
        if not 0 <= i < n:
            raise DimensionMismatch(f"basis index {_clip(str(i))} is outside [0, {n})")
        coords = [field.ops.zero] * n
        coords[i] = field.ops.one
        return Vector._of(field, tuple(coords))

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return self._map(self.field.ops.neg)


def _sparse(zero, columns) -> list:
    """Dense columns as dicts of their rows not structurally zero."""
    out = []
    for col in columns:  # plain loops: the columns are short
        d = {}
        for i, x in enumerate(col):
            if x != zero:
                d[i] = x
        out.append(d)
    return out


class _Matrix(_Raw):
    """A matrix of `rows` rows, sparse by column: `_d[j]` holds column j
    (see the module docstring).  LinearMap and StructureTable share it; each
    gives _set, which stores its shape, and _like, which makes one of that
    shape from column dicts."""

    __slots__ = ("rows",)

    @classmethod
    def _of_cols(cls, field: FieldSpec, rows: int, cols, *factors):
        """The map, or the table of factors dim_left and dim_right, with
        the given column dicts, rows increasing."""
        return object.__new__(cls)._set(field, rows, cols, *factors)

    def _of_dense(self, rows: int, columns, *factors):
        """_of_cols over self's field, of raw dense columns."""
        return self._of_cols(self.field, rows, _sparse(self.field.ops.zero, columns),
                             *factors)

    @property
    def cols(self) -> int:
        return len(self._d)

    def _columns(self) -> tuple:
        """The raw columns, dense."""
        zeros, out = [self.field.ops.zero] * self.rows, []
        for col in self._d:
            dense = zeros[:]
            for i, x in col.items():
                dense[i] = x
            out.append(tuple(dense))
        return tuple(out)

    def _column(self, j: int) -> Vector:
        dense = [self.field.ops.zero] * self.rows
        for i, x in self._d[j].items():
            dense[i] = x
        return Vector._of(self.field, tuple(dense))

    def _map(self, fn):
        """fn on the entries, column by column, missing ones included."""
        return self._like(_sparse(self.field.ops.zero, (map(fn, col) for col in self._columns())))

    def __add__(self, other):
        """The sum, column by column over the stored rows: ops.add where both
        operands store a row, the stored value where one does, an empty
        column's partner as it is (see the module docstring)."""
        _check(self._shape() == other._shape(), self._sum_dims, self, other)
        add, zero, out = self.field.ops.add, self.field.ops.zero, []
        for a, b in zip(self._d, other._d):
            if not (a and b):
                out.append(a or b)
                continue
            out.append(d := {})
            for i in (a if a.keys() == b.keys() else sorted(a.keys() | b.keys())):
                if i not in b:
                    d[i] = a[i]
                elif i not in a:
                    d[i] = b[i]
                elif (x := add(a[i], b[i])) != zero:
                    d[i] = x
        return self._like(out)

    def _equal(self, other) -> bool:
        return next(_differing_columns(self, other), None) is None

    def is_zero(self) -> bool:
        return all(map(self.field.ops.is_zero,
                       chain.from_iterable(col.values() for col in self._d)))


class LinearMap(_Matrix):
    """A rows x cols matrix; column j is the image of basis vector e_j."""

    __slots__ = ()
    _depth, _public, _sum_dims = 2, "entries", "sum dims differ"
    entries = property(_Raw._boxed)  # entries[i][j]
    column = _Matrix._column

    def __init__(self, field: FieldSpec, entries):
        rows = _nest(partial(_raw, field), 2, entries)
        if len({len(row) for row in rows}) > 1:
            raise DimensionMismatch("ragged matrix")
        self._set(field, len(rows), _sparse(field.ops.zero, zip(*rows)))

    def _set(self, field: FieldSpec, rows: int, cols) -> "LinearMap":
        # a map without rows has no columns either, as a tuple of rows
        self.field, self.rows, self._d = field, rows, tuple(cols) if rows else ()
        return self

    def _like(self, cols) -> "LinearMap":
        return self._of_cols(self.field, self.rows, cols)

    def _dense(self) -> tuple:
        return tuple(zip(*self._columns())) if self._d else ((),) * self.rows

    def _shape(self):
        return self.rows, self.cols

    @staticmethod
    def from_rows(field: FieldSpec, rows) -> "LinearMap":
        return LinearMap(field, rows)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "LinearMap":
        one = field.ops.one
        return LinearMap._of_cols(field, n, [{j: one} for j in range(n)])

    @staticmethod
    def zero_map(field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        return LinearMap._of_cols(field, rows, [{}] * cols)

    def apply(self, v: Vector) -> Vector:
        _check(self.cols == v.dim, "map/vector dims differ", self, v)
        return Vector._of(self.field, _combine(self.field.ops, self.rows,
                                               zip(v._d, self._columns())))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        _check(self.cols == other.rows, "composition dims differ", self, other)
        ops = self.field.ops
        add, mul, is_zero, zero = ops.add, ops.mul, ops.is_zero, ops.zero
        # each entry is a1*b1 + a2*b2 + ..., k increasing, its first term
        # stored as computed; a column sums in a dict of the rows its
        # products touch, read out in increasing row order
        left, out = self._d, [{}] * other.cols
        for j, col in enumerate(other._d):
            if not col:
                continue
            acc = {}
            for k, b in col.items():
                terms = left[k]
                if terms and not is_zero(b):
                    for i, a in terms.items():
                        if not is_zero(a):
                            if i in acc and (x := acc[i]) is not zero:
                                acc[i] = add(x, mul(a, b))
                            else:
                                acc[i] = mul(a, b)
            if len(acc) > 1:
                out[j] = d = {}
                for i in sorted(acc):
                    x = acc[i]
                    if x != zero:
                        d[i] = x
            elif acc:
                (x,) = acc.values()
                if x != zero:
                    out[j] = acc
        return LinearMap._of_cols(self.field, self.rows, out)

    def power(self, k: int) -> "LinearMap":
        _check(self.rows == self.cols, "power of a non-square map")
        if k < 0:
            raise ValueError(f"map power must be a non-negative integer, got {_clip(str(k))}")
        out = LinearMap.identity(self.field, self.rows)
        for _ in range(k):
            out = out.compose(self)
        return out


def _differing_columns(f: LinearMap, g: LinearMap):
    """The indices j, increasing, where columns j of f and g differ.  Equal
    dicts are equal columns; other pairs compare by the field's eq, a
    missing row as ops.zero."""
    eq, zero = f.field.ops.eq, f.field.ops.zero
    for j, (a, b) in enumerate(zip(f._d, g._d)):
        if a != b and not (all(eq(x, b.get(i, zero)) for i, x in a.items())
                           and all(eq(zero, y) for i, y in b.items() if i not in a)):
            yield j


def maps_commute(f: LinearMap, g: LinearMap) -> bool:
    _check(f.rows == f.cols == g.rows == g.cols, "commutation needs equal square maps")
    return f.compose(g) == g.compose(f)


def tensor2(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product f (x) g in the lexicographic basis order.  A product
    of two nonzero values is nonzero, so every entry it makes is stored."""
    if f.field is not g.field:
        _join(f.field, g.field)
    mul, is_zero = f.field.ops.mul, f.field.ops.is_zero
    g_cols = [(j, col) for j, col in enumerate(g._d) if col]
    out, empty = [], [{}] * g.cols
    for col in f._d:
        block = empty[:]
        if col:
            for j, g_col in g_cols:
                block[j] = d = {}
                for i1, a in col.items():
                    if not is_zero(a):
                        r0 = i1 * g.rows
                        for i2, b in g_col.items():
                            if not is_zero(b):
                                d[r0 + i2] = mul(a, b)
        out += block
    return LinearMap._of_cols(f.field, f.rows * g.rows, out)


def _compose_kron(h: LinearMap, f: LinearMap, g: LinearMap) -> LinearMap:
    """h.compose(K) for K = tensor2(f, g), entry for entry, without building K:
    column j1*g.cols + j2 of the Kronecker product is visited row k =
    i1*g.rows + i2 increasing, and its value f[i1][j1]*g[i2][j2] is made
    only where column k of h stores an entry, then summed as compose sums
    it (see the module docstring)."""
    if f.field is not g.field:
        _join(f.field, g.field)
    _check(h.cols == f.rows * g.rows, "composition dims differ", h, f)
    ops = h.field.ops
    add, mul, is_zero, zero = ops.add, ops.mul, ops.is_zero, ops.zero
    left, m, n = h._d, g.rows, g.cols
    g_cols = [(j, col) for j, col in enumerate(g._d) if col]
    out = [{}] * (f.cols * n)
    for j1, f_col in enumerate(f._d):
        if not f_col:
            continue
        for j2, g_col in g_cols:
            acc = {}
            for i1, a in f_col.items():
                if not is_zero(a):
                    r0 = i1 * m
                    for i2, b in g_col.items():
                        terms = left[r0 + i2]
                        if terms and not is_zero(b):
                            kv = mul(a, b)
                            for i, x in terms.items():
                                if not is_zero(x):
                                    if i in acc and (y := acc[i]) is not zero:
                                        acc[i] = add(y, mul(x, kv))
                                    else:
                                        acc[i] = mul(x, kv)
            if len(acc) > 1:
                out[j1 * n + j2] = d = {}
                for i in sorted(acc):
                    x = acc[i]
                    if x != zero:
                        d[i] = x
            elif acc:
                (x,) = acc.values()
                if x != zero:
                    out[j1 * n + j2] = acc
    return LinearMap._of_cols(h.field, h.rows, out)


def tensor3(f: LinearMap, g: LinearMap, h: LinearMap) -> LinearMap:
    return tensor2(f, tensor2(g, h))


def _shifted(col: dict, shift: int) -> dict:
    """A column dict with its rows moved down by shift."""
    return {shift + i: x for i, x in col.items()}


def block_diag(f: LinearMap, g: LinearMap) -> LinearMap:
    _join(f.field, g.field)
    return LinearMap._of_cols(f.field, f.rows + g.rows, f._d + tuple(
        _shifted(col, f.rows) for col in g._d))


class StructureTable(_Matrix):
    """A bilinear operation X x Y -> Z as structure constants c[i][j][k],
    meaning (e_i, e_j) |-> sum_k c[i][j][k] e_k.  It is stored as its matrix
    X (x) Y -> Z: column i*dim_right + j holds c[i][j], and the matrix's
    rows are dim_out.  It keeps its dim_left * dim_right columns even when
    dim_out is 0.  Square algebra tables have dim_left == dim_right ==
    dim_out; bimodule actions are rectangular.
    """

    __slots__ = ("dim_left", "dim_right")
    _depth, _public, _sum_dims = 3, "constants", "table sum dims differ"
    constants = property(_Raw._boxed)  # c[i][j][k]
    dim_out = _Matrix.rows  # the matrix's rows
    __add__, scale = _Matrix.__add__, _Raw.scale  # the table ops are all its own

    def __init__(self, field: FieldSpec, constants):
        c = _nest(partial(_raw, field), 3, constants)
        right = len(c[0]) if c else 0
        self._set(field, len(c[0][0]) if right else 0,
                  _sparse(field.ops.zero, chain.from_iterable(c)), len(c), right)

    def _set(self, field: FieldSpec, rows: int, cols, dim_left: int,
             dim_right: int) -> "StructureTable":
        self.field, self.rows, self._d = field, rows, tuple(cols)
        self.dim_left, self.dim_right = dim_left, dim_right
        return self

    def _like(self, cols) -> "StructureTable":
        return self._of_cols(self.field, self.rows, cols, self.dim_left, self.dim_right)

    def _dense(self) -> tuple:
        cols, r = self._columns(), self.dim_right
        return tuple(cols[i * r:(i + 1) * r] for i in range(self.dim_left))

    def _shape(self):
        return self.dim_left, self.dim_right, self.dim_out

    @property
    def dim(self) -> int:
        _check(self.dim_left == self.dim_right == self.dim_out,
               "dim on a non-square table")
        return self.dim_left

    @staticmethod
    def zero(field: FieldSpec, dim_left: int, dim_right: int | None = None,
             dim_out: int | None = None) -> "StructureTable":
        dim_right = dim_left if dim_right is None else dim_right
        return StructureTable._of_cols(field, dim_left if dim_out is None else dim_out,
                                       [{}] * (dim_left * dim_right), dim_left, dim_right)

    def apply_basis(self, i: int, j: int) -> Vector:
        return self._column(i * self.dim_right + j)

    def apply(self, u: Vector, v: Vector) -> Vector:
        _check(u.dim == self.dim_left and v.dim == self.dim_right,
               "bilinear operand dims differ", self, u, v)
        ops, cols, r = self.field.ops, self._d, self.dim_right
        add, mul, is_zero, zero = ops.add, ops.mul, ops.is_zero, ops.zero
        out = [zero] * self.dim_out
        for i, a in enumerate(u._d):
            if is_zero(a):
                continue
            for j, b in enumerate(v._d):
                if is_zero(b):
                    continue
                ab = mul(a, b)
                for k, x in cols[i * r + j].items():
                    if not is_zero(x):
                        y = out[k]
                        out[k] = mul(ab, x) if y is zero else add(y, mul(ab, x))
        return Vector._of(self.field, tuple(out))

    def compose_left(self, f: LinearMap) -> "StructureTable":
        """(x, y) |-> B(f(x), y)."""
        _check(f.rows == self.dim_left, "compose_left dims differ", self, f)
        ops, cols, r, n = self.field.ops, self._columns(), self.dim_right, self.dim_out
        return self._of_dense(n, (
            _combine(ops, n, [(c, cols[i * r + j]) for i, c in col.items()])
            for col in f._d for j in range(r)), f.cols, r)

    def compose_right(self, g: LinearMap) -> "StructureTable":
        """(x, y) |-> B(x, g(y))."""
        _check(g.rows == self.dim_right, "compose_right dims differ", self, g)
        ops, cols, r, n = self.field.ops, self._columns(), self.dim_right, self.dim_out
        return self._of_dense(n, (
            _combine(ops, n, [(c, cols[i * r + k]) for k, c in col.items()])
            for i in range(self.dim_left) for col in g._d), self.dim_left, g.cols)

    def twist(self, f: LinearMap, g: LinearMap) -> "StructureTable":
        """(x, y) |-> B(f(x), g(y))."""
        return self.compose_left(f).compose_right(g)

    def postcompose(self, h: LinearMap) -> "StructureTable":
        """(x, y) |-> h(B(x, y))."""
        _check(h.cols == self.dim_out, "postcompose dims differ", self, h)
        ops, cols = self.field.ops, h._columns()
        return self._of_dense(h.rows, (_combine(ops, h.rows, zip(v, cols))
                                       for v in self._columns()),
                              self.dim_left, self.dim_right)

    def as_matrix(self) -> LinearMap:
        """The operation as a map X (x) Y -> Z in the lexicographic basis,
        sharing the table's columns."""
        return LinearMap._of_cols(self.field, self.rows, self._d)

    @staticmethod
    def from_matrix(field: FieldSpec, m: LinearMap, dim_left: int,
                    dim_right: int) -> "StructureTable":
        _check(m.cols == dim_left * dim_right, "matrix shape does not factor")
        _join(field, m.field)
        return StructureTable._of_cols(field, m.rows, m._d, dim_left, dim_right)


def apply_bilinear(op: StructureTable, u: Vector, v: Vector) -> Vector:
    return op.apply(u, v)
