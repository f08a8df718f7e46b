"""Finite-dimensional exact linear algebra: vectors, matrices, bilinear
structure-constant tables, and Kronecker products for maps on tensor
squares/cubes.

Basis conventions are fixed once and for all: the basis of A (x) B is ordered
lexicographically, index(i, j) = i*dim(B) + j with 0-based indices, and a
LinearMap stores entries[i][j] = coefficient of e_i in the image of e_j.

Storage is dense, but `LinearMap.compose` and `tensor2` visit only the pairs
of nonzero factors, in the order of the dense loops: every entry of a product
is `zero + a1*b1 + a2*b2 + ...` with k increasing, and every Kronecker entry
is one `a*b`.  So each output entry comes from the same scalar operations as
a dense evaluation, which matters over Q(params), where the printed
(unreduced) form of a rational function depends on that sequence.

`LinearMap.apply` and the table ops `compose_left`, `compose_right`, `twist`
and `postcompose` instead form linear combinations of whole columns through
`_combine`: `zero + c1*v1 + c2*v2 + ...` coordinate by coordinate, in term
order, skipping a term whose coefficient c is zero but not the zero
coordinates of its v.  The products with those zeros stay because they
reach the printed forms: over Q(params), `zero + c*0 + ...` keeps the
denominators of c, e.g. `(a*a*a)/(a)` where a zero-skip would give `a*a`.

`StructureTable.as_matrix` and `from_matrix` are transposes: column
i*dim_right + j of the matrix is the table's column c[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .scalars import FieldSpec, Scalar


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise DimensionMismatch(msg)


def _combine(zero: Scalar, n: int, terms) -> tuple[Scalar, ...]:
    """zero + c1*v1 + c2*v2 + ... for (c, v) in terms, v of length n; terms
    with c == 0 are skipped, zero coordinates of v are not."""
    out = [zero] * n
    for c, v in terms:
        if not c.is_zero():
            out = [acc + c * x for acc, x in zip(out, v)]
    return tuple(out)


@dataclass(frozen=True)
class Vector:
    field: FieldSpec
    coords: tuple[Scalar, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(field: FieldSpec, n: int) -> "Vector":
        return Vector(field, tuple(field.zero() for _ in range(n)))

    @staticmethod
    def basis(field: FieldSpec, n: int, i: int) -> "Vector":
        return Vector(field, tuple(field.one() if j == i else field.zero()
                                   for j in range(n)))

    def __add__(self, other: "Vector") -> "Vector":
        _check(self.dim == other.dim, "vector dims differ")
        return Vector(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        _check(self.dim == other.dim, "vector dims differ")
        return Vector(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, tuple(-a for a in self.coords))

    def scale(self, c: Scalar) -> "Vector":
        return Vector(self.field, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        raise TypeError("Vector is unhashable")


@dataclass(frozen=True)
class LinearMap:
    """A rows x cols matrix; column j is the image of basis vector e_j."""

    field: FieldSpec
    entries: tuple[tuple[Scalar, ...], ...]  # entries[i][j]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(field: FieldSpec, rows) -> "LinearMap":
        return LinearMap(field, tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "LinearMap":
        one, zero = field.one(), field.zero()
        return LinearMap(field, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @staticmethod
    def zero_map(field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        z = field.zero()
        return LinearMap(field, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    def apply(self, v: Vector) -> Vector:
        _check(self.cols == v.dim, "map/vector dims differ")
        return Vector(self.field, _combine(self.field.zero(), self.rows,
                                           zip(v.coords, zip(*self.entries))))

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(self.entries[i][j] for i in range(self.rows)))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        _check(self.cols == other.rows, "composition dims differ")
        zero = self.field.zero()
        by_col = [[] for _ in range(self.cols)]  # k -> [(i, a)], a != 0
        for i, row in enumerate(self.entries):
            for k, a in enumerate(row):
                if not a.is_zero():
                    by_col[k].append((i, a))
        out = [[zero] * other.cols for _ in range(self.rows)]
        for k, row in enumerate(other.entries):
            col = by_col[k]
            if not col:
                continue
            for j, b in enumerate(row):
                if b.is_zero():
                    continue
                for i, a in col:
                    out[i][j] = out[i][j] + a * b
        return LinearMap(self.field, tuple(tuple(r) for r in out))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        _check(self.rows == other.rows and self.cols == other.cols, "sum dims differ")
        return LinearMap(self.field, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scale(-self.field.one())

    def scale(self, c: Scalar) -> "LinearMap":
        return LinearMap(self.field, tuple(tuple(c * a for a in row)
                                           for row in self.entries))

    def power(self, k: int) -> "LinearMap":
        _check(self.rows == self.cols, "power of a non-square map")
        out = LinearMap.identity(self.field, self.rows)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(a == b for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def __hash__(self):
        raise TypeError("LinearMap is unhashable")

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)


def maps_commute(f: LinearMap, g: LinearMap) -> bool:
    _check(f.rows == f.cols == g.rows == g.cols, "commutation needs equal square maps")
    return f.compose(g) == g.compose(f)


def tensor2(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product f (x) g in the lexicographic basis order."""
    zero = f.field.zero()
    rows, cols = f.rows * g.rows, f.cols * g.cols
    out = [[zero] * cols for _ in range(rows)]
    g_nonzero = [(i2, j2, b) for i2, row in enumerate(g.entries)
                 for j2, b in enumerate(row) if not b.is_zero()]
    for i1, row in enumerate(f.entries):
        for j1, a in enumerate(row):
            if a.is_zero():
                continue
            r0, c0 = i1 * g.rows, j1 * g.cols
            for i2, j2, b in g_nonzero:
                out[r0 + i2][c0 + j2] = a * b
    return LinearMap(f.field, tuple(tuple(row) for row in out))


def tensor3(f: LinearMap, g: LinearMap, h: LinearMap) -> LinearMap:
    return tensor2(f, tensor2(g, h))


def block_diag(f: LinearMap, g: LinearMap) -> LinearMap:
    z = f.field.zero()
    return LinearMap(f.field, tuple(row + (z,) * g.cols for row in f.entries)
                     + tuple((z,) * f.cols + row for row in g.entries))


@dataclass(frozen=True)
class StructureTable:
    """A bilinear operation X x Y -> Z as structure constants c[i][j][k],
    meaning (e_i, e_j) |-> sum_k c[i][j][k] e_k.  Square algebra tables have
    dim_left == dim_right == dim_out; bimodule actions are rectangular.
    """

    field: FieldSpec
    constants: tuple[tuple[tuple[Scalar, ...], ...], ...]  # c[i][j][k]

    @property
    def dim_left(self) -> int:
        return len(self.constants)

    @property
    def dim_right(self) -> int:
        return len(self.constants[0]) if self.constants else 0

    @property
    def dim_out(self) -> int:
        return len(self.constants[0][0]) if self.constants and self.constants[0] else 0

    @property
    def dim(self) -> int:
        _check(self.dim_left == self.dim_right == self.dim_out,
               "dim on a non-square table")
        return self.dim_left

    @staticmethod
    def zero(field: FieldSpec, dim_left: int, dim_right: int | None = None,
             dim_out: int | None = None) -> "StructureTable":
        dim_right = dim_left if dim_right is None else dim_right
        dim_out = dim_left if dim_out is None else dim_out
        return StructureTable(
            field, (((field.zero(),) * dim_out,) * dim_right,) * dim_left)

    def apply_basis(self, i: int, j: int) -> Vector:
        return Vector(self.field, self.constants[i][j])

    def apply(self, u: Vector, v: Vector) -> Vector:
        _check(u.dim == self.dim_left and v.dim == self.dim_right,
               "bilinear operand dims differ")
        out = [self.field.zero()] * self.dim_out
        for i in range(self.dim_left):
            a = u.coords[i]
            if a.is_zero():
                continue
            for j in range(self.dim_right):
                b = v.coords[j]
                if b.is_zero():
                    continue
                ab = a * b
                row = self.constants[i][j]
                for k in range(self.dim_out):
                    if not row[k].is_zero():
                        out[k] = out[k] + ab * row[k]
        return Vector(self.field, tuple(out))

    def __add__(self, other: "StructureTable") -> "StructureTable":
        _check((self.dim_left, self.dim_right, self.dim_out)
               == (other.dim_left, other.dim_right, other.dim_out),
               "table sum dims differ")
        return StructureTable(self.field, tuple(
            tuple(tuple(a + b for a, b in zip(k1, k2))
                  for k1, k2 in zip(r1, r2))
            for r1, r2 in zip(self.constants, other.constants)))

    def __sub__(self, other: "StructureTable") -> "StructureTable":
        return self + other.scale(-self.field.one())

    def scale(self, c: Scalar) -> "StructureTable":
        return StructureTable(self.field, tuple(
            tuple(tuple(c * a for a in col) for col in row)
            for row in self.constants))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTable):
            return NotImplemented
        return self.constants == other.constants

    def __hash__(self):
        raise TypeError("StructureTable is unhashable")

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.constants for col in row for a in col)

    def compose_left(self, f: LinearMap) -> "StructureTable":
        """(x, y) |-> B(f(x), y)."""
        _check(f.rows == self.dim_left, "compose_left dims differ")
        zero, consts = self.field.zero(), self.constants
        return StructureTable(self.field, tuple(
            tuple(_combine(zero, self.dim_out, zip(col, (r[j] for r in consts)))
                  for j in range(self.dim_right))
            for col in zip(*f.entries)))

    def compose_right(self, g: LinearMap) -> "StructureTable":
        """(x, y) |-> B(x, g(y))."""
        _check(g.rows == self.dim_right, "compose_right dims differ")
        zero, cols = self.field.zero(), tuple(zip(*g.entries))
        return StructureTable(self.field, tuple(
            tuple(_combine(zero, self.dim_out, zip(col, row)) for col in cols)
            for row in self.constants))

    def twist(self, f: LinearMap, g: LinearMap) -> "StructureTable":
        """(x, y) |-> B(f(x), g(y))."""
        return self.compose_left(f).compose_right(g)

    def postcompose(self, h: LinearMap) -> "StructureTable":
        """(x, y) |-> h(B(x, y))."""
        _check(h.cols == self.dim_out, "postcompose dims differ")
        zero, cols = self.field.zero(), tuple(zip(*h.entries))
        return StructureTable(self.field, tuple(
            tuple(_combine(zero, h.rows, zip(v, cols)) for v in row)
            for row in self.constants))

    def as_matrix(self) -> LinearMap:
        """The operation as a map X (x) Y -> Z in the lexicographic basis."""
        return LinearMap(self.field, tuple(
            zip(*(col for row in self.constants for col in row))))

    @staticmethod
    def from_matrix(field: FieldSpec, m: LinearMap, dim_left: int,
                    dim_right: int) -> "StructureTable":
        _check(m.cols == dim_left * dim_right, "matrix shape does not factor")
        cols = tuple(zip(*m.entries))
        return StructureTable(field, tuple(
            cols[i * dim_right:(i + 1) * dim_right] for i in range(dim_left)))


def apply_bilinear(op: StructureTable, u: Vector, v: Vector) -> Vector:
    return op.apply(u, v)
