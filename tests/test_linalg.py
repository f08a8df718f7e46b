import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, CheckReport,
                      FieldSpec, GRBOperator, LinearMap, RBOperator, Scalar,
                      StructureTable, Vector, apply_bilinear, block_diag,
                      check_bimodule, grb_hat, index_to_matrix, maps_commute,
                      rb_derive, split_null_extension, tensor2, tensor3,
                      tensor_quadri, tridend_to_dend)
from bihomalg.errors import BiHomAlgError, DimensionMismatch, FieldMismatch
from bihomalg.families import _evaluated
from bihomalg.linalg import _check, _compose_kron
from bihomalg.scalars import scalar_to_str
from bihomalg.specfile import serialize
from bihomalg.structures import _decode, _tensor_tables, require
from conftest import counted, integration_rb, truncated_poly_algebra

Q = FieldSpec.rational()


def lm(rows):
    return LinearMap(Q, tuple(tuple(Q.from_int(x) for x in row) for row in rows))


def vec(*coords):
    return Vector(Q, tuple(Q.from_int(x) for x in coords))


def test_compose_is_matrix_product():
    f = lm([[1, 2], [3, 4]])
    g = lm([[0, 1], [1, 0]])
    assert f.compose(g) == lm([[2, 1], [4, 3]])
    assert f.apply(vec(1, 0)) == vec(1, 3)  # columns are images


def test_tensor2_lex_order():
    f = lm([[1, 2], [3, 4]])
    g = lm([[5, 6], [7, 8]])
    t = tensor2(f, g)
    # entry for basis e_(0,0) -> coefficient of e_(1,1) is f[1][0]*g[1][0]
    assert t.entries[1 * 2 + 1][0] == Q.from_int(3 * 7)
    assert t.entries[0][0] == Q.from_int(1 * 5)
    assert tensor3(f, g, f).rows == 8


def test_tensor_of_identities():
    i2 = LinearMap.identity(Q, 2)
    assert tensor2(i2, i2) == LinearMap.identity(Q, 4)


def test_block_diag():
    f = lm([[1]])
    g = lm([[2, 0], [0, 3]])
    b = block_diag(f, g)
    assert b == lm([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_maps_commute():
    d1 = lm([[1, 0], [0, 2]])
    d2 = lm([[3, 0], [0, 4]])
    n = lm([[0, 1], [0, 0]])
    assert maps_commute(d1, d2)
    assert not maps_commute(d1, n)


def test_structure_table_apply_and_matrix_round_trip():
    # e0*e0 = e1, all other products zero
    z, o = Q.zero(), Q.one()
    t = StructureTable(Q, (((z, o), (z, z)), ((z, z), (z, z))))
    assert apply_bilinear(t, vec(1, 0), vec(1, 0)) == vec(0, 1)
    assert apply_bilinear(t, vec(2, 0), vec(3, 0)) == vec(0, 6)
    m = t.as_matrix()
    assert m.rows == 2 and m.cols == 4
    assert StructureTable.from_matrix(Q, m, 2, 2) == t


def test_compose_left_right_twist():
    z, o = Q.zero(), Q.one()
    t = StructureTable(Q, (((z, o), (z, z)), ((z, z), (z, z))))
    swap = lm([[0, 1], [1, 0]])
    # B(swap(x), y): now e1*e0 = e1
    left = t.compose_left(swap)
    assert left.apply_basis(1, 0) == vec(0, 1)
    assert left.apply_basis(0, 0) == vec(0, 0)
    right = t.compose_right(swap)
    assert right.apply_basis(0, 1) == vec(0, 1)
    assert t.twist(swap, swap).apply_basis(1, 1) == vec(0, 1)
    assert t.postcompose(swap).apply_basis(0, 0) == vec(1, 0)


def test_dimension_errors():
    f = lm([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        f.apply(vec(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        f.compose(lm([[1, 2, 3]]))


def test_rectangular_tables():
    # action table A (x) M -> M with dim A = 1, dim M = 2
    z, o = Q.zero(), Q.one()
    t = StructureTable(Q, (((o, z), (z, o)),))
    assert (t.dim_left, t.dim_right, t.dim_out) == (1, 2, 2)
    with pytest.raises(DimensionMismatch):
        t.dim


# -- compose/tensor2 and the column combinations perform the old loops' scalar
#    operations --------------------------------------------------------------

QAB = FieldSpec.rational_function("a", "b")
SPARSE_FIELDS = (Q, FieldSpec.prime(5), QAB)


def dense_compose(f, g):
    """The dense i-j-k product loop that compose must match term by term."""
    zero = f.field.zero()
    fe, ge = f.entries, g.entries  # boxed once: each read boxes anew
    out = []
    for i in range(f.rows):
        row = []
        for j in range(g.cols):
            acc = zero
            for k in range(f.cols):
                a, b = fe[i][k], ge[k][j]
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return LinearMap(f.field, tuple(out))


def dense_tensor2(f, g):
    """The dense Kronecker loop that tensor2 must match term by term."""
    zero = f.field.zero()
    fe, ge = f.entries, g.entries  # boxed once: each read boxes anew
    out = [[zero] * (f.cols * g.cols) for _ in range(f.rows * g.rows)]
    for i1 in range(f.rows):
        for j1 in range(f.cols):
            a = fe[i1][j1]
            if a.is_zero():
                continue
            for i2 in range(g.rows):
                for j2 in range(g.cols):
                    b = ge[i2][j2]
                    if not b.is_zero():
                        out[i1 * g.rows + i2][j1 * g.cols + j2] = a * b
    return LinearMap(f.field, tuple(tuple(row) for row in out))


def loop_apply(f, v):
    """The row-by-row loop that LinearMap.apply must match term by term."""
    out = []
    for i in range(f.rows):
        acc = f.field.zero()
        for j in range(f.cols):
            if not v.coords[j].is_zero():
                acc = acc + f.entries[i][j] * v.coords[j]
        out.append(acc)
    return Vector(f.field, tuple(out))


def loop_compose_left(t, f):
    """The Vector loop that StructureTable.compose_left must match."""
    out = []
    for i in range(f.cols):
        fi = f.column(i)
        row = []
        for j in range(t.dim_right):
            acc = Vector.zero(t.field, t.dim_out)
            for s in range(t.dim_left):
                c = fi.coords[s]
                if not c.is_zero():
                    acc = acc + t.apply_basis(s, j).scale(c)
            row.append(acc.coords)
        out.append(tuple(row))
    return StructureTable(t.field, tuple(out))


def loop_compose_right(t, g):
    """The Vector loop that StructureTable.compose_right must match."""
    out = []
    for i in range(t.dim_left):
        row = []
        for j in range(g.cols):
            gj = g.column(j)
            acc = Vector.zero(t.field, t.dim_out)
            for s in range(t.dim_right):
                c = gj.coords[s]
                if not c.is_zero():
                    acc = acc + t.apply_basis(i, s).scale(c)
            row.append(acc.coords)
        out.append(tuple(row))
    return StructureTable(t.field, tuple(out))


def loop_postcompose(t, h):
    """The loop that StructureTable.postcompose must match."""
    return StructureTable(t.field, tuple(
        tuple(loop_apply(h, t.apply_basis(i, j)).coords
              for j in range(t.dim_right))
        for i in range(t.dim_left)))


def entry_pool(field):
    """Zeros (plain and computed) and nonzero entries, some with denominators."""
    zero = field.zero()
    if field.kind == "rational_function":
        computed_zero = zero / field.parameter("a")
        nonzero = ["a", "b", "-1", "1/2", "a*b - 3", "b/(a + 1)", "1/(a - b)"]
    else:
        computed_zero = field.from_int(2) - field.from_int(2)
        nonzero = ["1", "2", "-1", "3"] + (["1/3", "-5/2"]
                                           if field.kind == "rational" else [])
    return [zero, computed_zero], [field.parse(x) for x in nonzero]


@st.composite
def sparse_matrix(draw, field, rows, cols):
    zeros, nonzero = entry_pool(field)
    entry = st.one_of(st.sampled_from(zeros), st.sampled_from(zeros),
                      st.sampled_from(nonzero))
    return LinearMap(field, tuple(
        tuple(draw(entry) for _ in range(cols)) for _ in range(rows)))


@st.composite
def compose_operands(draw):
    field = draw(st.sampled_from(SPARSE_FIELDS))
    n, m, p = (draw(st.integers(1, 5)) for _ in range(3))
    return (draw(sparse_matrix(field, n, m)), draw(sparse_matrix(field, m, p)))


@st.composite
def tensor_operands(draw):
    field = draw(st.sampled_from(SPARSE_FIELDS))
    shapes = [draw(st.integers(1, 3)) for _ in range(4)]
    return (draw(sparse_matrix(field, *shapes[:2])),
            draw(sparse_matrix(field, *shapes[2:])))


COLUMN_OPS = {
    "apply": (LinearMap.apply, loop_apply),
    "compose_left": (StructureTable.compose_left, loop_compose_left),
    "compose_right": (StructureTable.compose_right, loop_compose_right),
    "postcompose": (StructureTable.postcompose, loop_postcompose),
}


@st.composite
def column_op_operands(draw, op):
    """Operands of one COLUMN_OPS entry: a map and a vector for apply, else
    a rectangular table and a map of the matching shape."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    left, right, out, k = (draw(st.integers(1, 4)) for _ in range(4))
    if op == "apply":
        return (draw(sparse_matrix(field, k, left)),
                draw(sparse_matrix(field, left, 1)).column(0))
    table = StructureTable.from_matrix(
        field, draw(sparse_matrix(field, out, left * right)), left, right)
    rows, cols = {"compose_left": (left, k), "compose_right": (right, k),
                  "postcompose": (k, out)}[op]
    return table, draw(sparse_matrix(field, rows, cols))


def raw_entries(x):
    """The shape and raw entry values (numerator and denominator dicts, not
    just ==) of a LinearMap, a StructureTable (as its matrix) or a Vector."""
    if isinstance(x, Vector):
        return x.dim, [c.value for c in x.coords]
    if isinstance(x, StructureTable):
        return (x.dim_left, x.dim_right), raw_entries(x.as_matrix())
    return (x.rows, x.cols), [[c.value for c in row] for row in x.entries]


def accumulated(ops):
    """A reference's (mul, add, to_zero) counts (see conftest.counted) as a
    kernel that stores each sum's first term as computed makes them: the
    same muls, and the adds less those to the reference's starting zero."""
    mul, add, to_zero = ops
    return mul, add - to_zero, 0


def assert_same_scalar_ops(monkeypatch, fn, reference, *args):
    """fn(*args) gives reference(*args) entry for entry, with the same raw
    values, the same number of scalar * calls and the reference's + calls
    but those to its starting zero; returns fn's result."""
    got, got_ops = counted(monkeypatch, fn, *args, to_zero=True)
    want, want_ops = counted(monkeypatch, reference, *args, to_zero=True)
    assert raw_entries(got) == raw_entries(want)
    assert got_ops == accumulated(want_ops)
    return got


@given(compose_operands())
@settings(max_examples=150, deadline=None)
def test_compose_matches_dense_loop_property(operands):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_scalar_ops(monkeypatch, LinearMap.compose, dense_compose,
                               *operands)


@given(tensor_operands())
@settings(max_examples=150, deadline=None)
def test_tensor2_matches_dense_loop_property(operands):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_scalar_ops(monkeypatch, tensor2, dense_tensor2, *operands)


@pytest.mark.parametrize("op", sorted(COLUMN_OPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_column_ops_match_vector_loops_property(op, data):
    operands = data.draw(column_op_operands(op))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_scalar_ops(monkeypatch, *COLUMN_OPS[op], *operands)


def test_compose_matches_dense_loop_at_quadri_dim9_shape(monkeypatch):
    # A dim-9 axiom check composes a 9 x 729 matrix after a 729 x 729 one
    # (a map on the tensor cube); both are mostly zero there.
    rng = random.Random(9)
    zeros, nonzero = entry_pool(Q)

    def sparse(rows, cols, density):
        return LinearMap(Q, tuple(
            tuple(rng.choice(nonzero) if rng.random() < density
                  else rng.choice(zeros) for _ in range(cols))
            for _ in range(rows)))

    outer = sparse(9, 729, 0.02)
    cube_map = assert_same_scalar_ops(
        monkeypatch, tensor3, lambda f, g, h: dense_tensor2(f, dense_tensor2(g, h)),
        sparse(9, 9, 0.3), sparse(9, 9, 0.3), LinearMap.identity(Q, 9))
    assert_same_scalar_ops(monkeypatch, LinearMap.compose, dense_compose,
                           outer, cube_map)


# -- the placements of scalars give what the index loops gave ----------------
#    The seven bodies below are the zero-grid index loops that transposes and
#    concatenations replaced, kept verbatim as the reference.

def ref_as_matrix(self) -> LinearMap:
    """The operation as a map X (x) Y -> Z in the lexicographic basis."""
    zero = self.field.zero()
    cols = self.dim_left * self.dim_right
    rows = [[zero] * cols for _ in range(self.dim_out)]
    for i in range(self.dim_left):
        for j in range(self.dim_right):
            for k in range(self.dim_out):
                rows[k][i * self.dim_right + j] = self.constants[i][j][k]
    return LinearMap(self.field, tuple(tuple(r) for r in rows))


def ref_from_matrix(field: FieldSpec, m: LinearMap, dim_left: int,
                    dim_right: int) -> "StructureTable":
    _check(m.cols == dim_left * dim_right, "matrix shape does not factor")
    out = []
    for i in range(dim_left):
        row = []
        for j in range(dim_right):
            row.append(tuple(m.entries[k][i * dim_right + j]
                             for k in range(m.rows)))
        out.append(tuple(row))
    return StructureTable(field, tuple(out))


def ref_zero(field: FieldSpec, dim_left: int, dim_right: int | None = None,
             dim_out: int | None = None) -> "StructureTable":
    dim_right = dim_left if dim_right is None else dim_right
    dim_out = dim_left if dim_out is None else dim_out
    z = field.zero()
    return StructureTable(field, tuple(
        tuple(tuple(z for _ in range(dim_out)) for _ in range(dim_right))
        for _ in range(dim_left)))


def ref_eq(self, other) -> bool:
    if not isinstance(other, StructureTable):
        return NotImplemented
    if (self.dim_left, self.dim_right, self.dim_out) != \
            (other.dim_left, other.dim_right, other.dim_out):
        return False
    return all(a == b
               for r1, r2 in zip(self.constants, other.constants)
               for k1, k2 in zip(r1, r2)
               for a, b in zip(k1, k2))


def ref_block_diag(f: LinearMap, g: LinearMap) -> LinearMap:
    zero = f.field.zero()
    rows, cols = f.rows + g.rows, f.cols + g.cols
    out = [[zero] * cols for _ in range(rows)]
    for i in range(f.rows):
        for j in range(f.cols):
            out[i][j] = f.entries[i][j]
    for i in range(g.rows):
        for j in range(g.cols):
            out[f.rows + i][f.cols + j] = g.entries[i][j]
    return LinearMap(f.field, tuple(tuple(row) for row in out))


def ref_split_null_extension(A, M, check=True):
    if check:
        require(check_bimodule(A, M), "split_null_extension")
    n, m = A.dim, M.dim
    d = n + m
    zero = A.field.zero()
    constants = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                constants[i][j][k] = A.mu.constants[i][j][k]
    for i in range(n):          # a . m'
        for j in range(m):
            for k in range(m):
                constants[i][n + j][n + k] = M.left_action.constants[i][j][k]
    for i in range(m):          # m . a'
        for j in range(n):
            for k in range(m):
                constants[n + i][j][n + k] = M.right_action.constants[i][j][k]
    table = StructureTable(A.field, tuple(
        tuple(tuple(col) for col in row) for row in constants))
    return BiHomAssociativeAlgebra(A.field, table,
                                   block_diag(A.alpha, M.alpha_M),
                                   block_diag(A.beta, M.beta_M))


def ref_grb_hat(A, M, pi):
    require(check_bimodule(A, M), "grb_hat")
    n, m = A.dim, M.dim
    d = n + m
    zero = A.field.zero()
    entries = [[zero] * d for _ in range(d)]
    for i in range(n):
        for j in range(m):
            entries[i][n + j] = pi.map.entries[i][j]
    return RBOperator(LinearMap(A.field, tuple(tuple(r) for r in entries)),
                      A.field.zero())


@st.composite
def sparse_nested(draw, field, shape):
    """A nested tuple of the given shape, mostly of zeros."""
    zeros, nonzero = entry_pool(field)
    entry = st.one_of(st.sampled_from(zeros), st.sampled_from(zeros),
                      st.sampled_from(nonzero))
    if not shape:
        return draw(entry)
    return tuple(draw(sparse_nested(field, shape[1:])) for _ in range(shape[0]))


def table_of(draw, field, shape):
    return StructureTable(field, draw(sparse_nested(field, shape)))


def map_of(draw, field, rows, cols):
    return LinearMap(field, draw(sparse_nested(field, (rows, cols))))


def equal_copy(t):
    """t with every entry replaced by an equal scalar that is another object."""
    return StructureTable(t.field, tuple(
        tuple(tuple(x + t.field.zero() for x in col) for col in row)
        for row in t.constants))


def random_bimodule(draw, field):
    """An algebra of dim 1-3 and a module of dim 1-3 over it, all random, so
    the module axioms mostly fail, or zero actions with alpha_M = beta_M,
    where they all hold."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = BiHomAssociativeAlgebra(field, table_of(draw, field, (n, n, n)),
                                map_of(draw, field, n, n), map_of(draw, field, n, n))
    alpha_M = map_of(draw, field, m, m)
    if draw(st.booleans()):
        return A, BiHomBimodule.zero_actions(A, alpha_M, alpha_M)
    return A, BiHomBimodule(A, alpha_M, map_of(draw, field, m, m),
                            table_of(draw, field, (n, m, m)),
                            table_of(draw, field, (m, n, m)))


@st.composite
def placement_operands(draw, name):
    """Arguments for one PLACEMENTS entry; dims 0-3 where a zero dimension
    is possible, with square and rectangular shapes."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    dim = st.integers(0, 3)
    if name == "as_matrix":
        return (table_of(draw, field, [draw(dim) for _ in range(3)]),)
    if name == "from_matrix":
        rows, left, right = draw(dim), draw(dim), draw(dim)
        # a matrix with no rows has no columns: then any left * right > 0
        # is refused by both
        return field, map_of(draw, field, rows, left * right), left, right
    if name == "zero":
        return (field, draw(dim), draw(st.one_of(st.none(), dim)),
                draw(st.one_of(st.none(), dim)))
    if name == "__eq__":
        t = table_of(draw, field, [draw(dim) for _ in range(3)])
        kind = draw(st.sampled_from(["equal", "drawn", "shape"]))
        if kind == "equal":
            return t, equal_copy(t)
        shape = ((t.dim_left, t.dim_right, t.dim_out) if kind == "drawn"
                 else [draw(dim) for _ in range(3)])
        return t, table_of(draw, field, shape)
    if name == "block_diag":
        return tuple(map_of(draw, field, draw(dim), draw(dim)) for _ in range(2))
    A, M = random_bimodule(draw, field)
    if name == "split_null_extension":
        return A, M, draw(st.booleans())
    return A, M, GRBOperator(map_of(draw, field, A.dim, M.dim))


PLACEMENTS = {
    "as_matrix": (StructureTable.as_matrix, ref_as_matrix),
    "from_matrix": (StructureTable.from_matrix, ref_from_matrix),
    "zero": (StructureTable.zero, ref_zero),
    "__eq__": (StructureTable.__eq__, ref_eq),
    "block_diag": (block_diag, ref_block_diag),
    "split_null_extension": (split_null_extension, ref_split_null_extension),
    "grb_hat": (grb_hat, ref_grb_hat),
}


def raw_nested(x):
    """Shape and raw entry values of a placement's result, nested as stored;
    an exception counts as its type."""
    if isinstance(x, BaseException):
        return type(x)
    if isinstance(x, StructureTable):
        return [[[c.value for c in col] for col in row] for row in x.constants]
    if isinstance(x, LinearMap):
        return [[c.value for c in row] for row in x.entries]
    if isinstance(x, BiHomAssociativeAlgebra):
        return raw_nested(x.mu), raw_nested(x.alpha), raw_nested(x.beta)
    if isinstance(x, RBOperator):
        return raw_nested(x.map), x.weight.value
    return x


def outcome(fn, *args):
    try:
        return fn(*args)
    except BiHomAlgError as exc:
        return exc


@pytest.mark.parametrize("name", list(PLACEMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_placements_match_index_loops_property(name, data):
    args = data.draw(placement_operands(name))
    fn, reference = PLACEMENTS[name]
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, outcome, fn, *args)
        want, want_ops = counted(monkeypatch, outcome, reference, *args)
        # grb_hat and a checked split_null_extension first run check_bimodule
        checks = (counted(monkeypatch, check_bimodule, *args[:2])[1]
                  if name == "grb_hat" or name == "split_null_extension" and args[2]
                  else (0, 0))
    assert raw_nested(got) == raw_nested(want)
    assert got_ops == want_ops
    if name != "__eq__":
        assert got_ops == checks
    if name == "as_matrix":
        # one row per output coordinate, also for a table without columns
        assert got.rows == args[0].dim_out


# -- raw storage: every kernel that computes on raw values gives what the
#    boxed bodies it replaced gave, value, type and dict order of each entry,
#    and with the same numbers of field mul and add calls.  The old_* bodies
#    are the Scalar-loop methods kept verbatim as the reference.

def old_combine(zero, n, terms):
    out = [zero] * n
    for c, v in terms:
        if not c.is_zero():
            out = [acc + c * x for acc, x in zip(out, v)]
    return tuple(out)


def old_vector_add(self, other):
    _check(self.dim == other.dim, "vector dims differ")
    return Vector(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))


def old_vector_sub(self, other):
    _check(self.dim == other.dim, "vector dims differ")
    return Vector(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))


def old_vector_neg(self):
    return Vector(self.field, tuple(-a for a in self.coords))


def old_vector_scale(self, c):
    return Vector(self.field, tuple(c * a for a in self.coords))


def old_vector_is_zero(self):
    return all(a.is_zero() for a in self.coords)


def old_vector_eq(self, other):
    return self.dim == other.dim and all(
        a == b for a, b in zip(self.coords, other.coords))


def old_apply(self, v):
    _check(self.cols == v.dim, "map/vector dims differ")
    return Vector(self.field, old_combine(self.field.zero(), self.rows,
                                          zip(v.coords, zip(*self.entries))))


def old_column(self, j):
    return Vector(self.field, tuple(self.entries[i][j] for i in range(self.rows)))


def old_compose(self, other):
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


def old_map_add(self, other):
    _check(self.rows == other.rows and self.cols == other.cols, "sum dims differ")
    return LinearMap(self.field, tuple(
        tuple(a + b for a, b in zip(r1, r2))
        for r1, r2 in zip(self.entries, other.entries)))


def old_map_scale(self, c):
    return LinearMap(self.field, tuple(tuple(c * a for a in row)
                                       for row in self.entries))


def old_map_sub(self, other):
    return old_map_add(self, old_map_scale(other, -self.field.one()))


def old_power(self, k):
    _check(self.rows == self.cols, "power of a non-square map")
    out = LinearMap.identity(self.field, self.rows)
    for _ in range(k):
        out = old_compose(out, self)
    return out


def old_map_eq(self, other):
    if self.rows != other.rows or self.cols != other.cols:
        return False
    return all(a == b for r1, r2 in zip(self.entries, other.entries)
               for a, b in zip(r1, r2))


def old_map_is_zero(self):
    return all(a.is_zero() for row in self.entries for a in row)


def old_table_apply(self, u, v):
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


def old_table_add(self, other):
    _check((self.dim_left, self.dim_right, self.dim_out)
           == (other.dim_left, other.dim_right, other.dim_out),
           "table sum dims differ")
    return StructureTable(self.field, tuple(
        tuple(tuple(a + b for a, b in zip(k1, k2))
              for k1, k2 in zip(r1, r2))
        for r1, r2 in zip(self.constants, other.constants)))


def old_table_scale(self, c):
    return StructureTable(self.field, tuple(
        tuple(tuple(c * a for a in col) for col in row)
        for row in self.constants))


def old_table_is_zero(self):
    return all(a.is_zero() for row in self.constants for col in row for a in col)


def old_compose_left(self, f):
    _check(f.rows == self.dim_left, "compose_left dims differ")
    zero, consts = self.field.zero(), self.constants
    return StructureTable(self.field, tuple(
        tuple(old_combine(zero, self.dim_out, zip(col, (r[j] for r in consts)))
              for j in range(self.dim_right))
        for col in zip(*f.entries)))


def old_compose_right(self, g):
    _check(g.rows == self.dim_right, "compose_right dims differ")
    zero, cols = self.field.zero(), tuple(zip(*g.entries))
    return StructureTable(self.field, tuple(
        tuple(old_combine(zero, self.dim_out, zip(col, row)) for col in cols)
        for row in self.constants))


def old_twist(self, f, g):
    return old_compose_right(old_compose_left(self, f), g)


def old_postcompose(self, h):
    _check(h.cols == self.dim_out, "postcompose dims differ")
    zero, cols = self.field.zero(), tuple(zip(*h.entries))
    return StructureTable(self.field, tuple(
        tuple(old_combine(zero, h.rows, zip(v, cols)) for v in row)
        for row in self.constants))


def old_tensor2(f, g):
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


def old_compare(self, axiom, lhs, rhs, dims):
    for col in range(lhs.cols):
        if any(lhs.entries[i][col] != rhs.entries[i][col]
               for i in range(lhs.rows)) and len(self.violations) < self.cap:
            self.violations.append(
                (axiom, _decode(col, dims), lhs.column(col), rhs.column(col)))


def old_tensor_tables(ta, tb):
    zero = ta.field.zero()
    return StructureTable(ta.field, tuple(
        tuple(tuple(zero if a.is_zero() or b.is_zero() else a * b
                    for a in ta.constants[i1][i2] for b in tb.constants[j1][j2])
              for i2 in range(ta.dim) for j2 in range(tb.dim))
        for i1 in range(ta.dim) for j1 in range(tb.dim)))


def old_index_to_matrix(field, n, k):
    p = field.p
    flat = []
    for _ in range(n * n):
        k, d = divmod(k, p)
        flat.append(Scalar(field, d))
    rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
    return LinearMap(field, rows)


def old_evaluate_map(m, assignment):
    q = FieldSpec.rational()
    return LinearMap(q, tuple(tuple(x.evaluate(assignment) for x in row)
                              for row in m.entries))


def old_evaluate_table(t, assignment):
    q = FieldSpec.rational()
    return StructureTable(q, tuple(
        tuple(tuple(x.evaluate(assignment) for x in col) for col in row)
        for row in t.constants))


def compare_columns(compare):
    """A report's violations after compare(report, "ax", lhs, rhs, dims)."""
    def run(lhs, rhs, dims, cap):
        rep = CheckReport(cap=cap)
        compare(rep, "ax", lhs, rhs, dims)
        return rep.violations
    return run


F5 = FieldSpec.prime(5)
RAW_KERNELS = {
    "Vector.__add__": (Vector.__add__, old_vector_add, "vv"),
    "Vector.__sub__": (Vector.__sub__, old_vector_sub, "vv"),
    "Vector.__neg__": (Vector.__neg__, old_vector_neg, "v"),
    "Vector.scale": (Vector.scale, old_vector_scale, "vc"),
    "Vector.is_zero": (Vector.is_zero, old_vector_is_zero, "v"),
    "Vector.__eq__": (Vector.__eq__, old_vector_eq, "vv"),
    "LinearMap.apply": (LinearMap.apply, old_apply, "mv"),
    "LinearMap.column": (LinearMap.column, old_column, "mj"),
    "LinearMap.compose": (LinearMap.compose, old_compose, "mm"),
    "LinearMap.__add__": (LinearMap.__add__, old_map_add, "m+"),
    "LinearMap.__sub__": (LinearMap.__sub__, old_map_sub, "m+"),
    "LinearMap.scale": (LinearMap.scale, old_map_scale, "mc"),
    "LinearMap.power": (LinearMap.power, old_power, "sk"),
    "LinearMap.__eq__": (LinearMap.__eq__, old_map_eq, "m+"),
    "LinearMap.is_zero": (LinearMap.is_zero, old_map_is_zero, "m"),
    "tensor2": (tensor2, old_tensor2, "mm"),
    "StructureTable.apply": (StructureTable.apply, old_table_apply, "tuv"),
    "StructureTable.__add__": (StructureTable.__add__, old_table_add, "t+"),
    "StructureTable.scale": (StructureTable.scale, old_table_scale, "tc"),
    "StructureTable.is_zero": (StructureTable.is_zero, old_table_is_zero, "t"),
    "StructureTable.compose_left": (StructureTable.compose_left, old_compose_left, "tl"),
    "StructureTable.compose_right": (StructureTable.compose_right, old_compose_right, "tr"),
    "StructureTable.twist": (StructureTable.twist, old_twist, "tlr"),
    "StructureTable.postcompose": (StructureTable.postcompose, old_postcompose, "to"),
    "CheckReport._compare": (compare_columns(CheckReport._compare),
                             compare_columns(old_compare), "cmp"),
    "_tensor_tables": (_tensor_tables, old_tensor_tables, "tt"),
    "index_to_matrix": (index_to_matrix, old_index_to_matrix, "idx"),
    "families._evaluated(map)": (_evaluated, old_evaluate_map, "em"),
    "families._evaluated(table)": (_evaluated, old_evaluate_table, "et"),
}


@st.composite
def raw_kernel_operands(draw, shape):
    """Operands of one RAW_KERNELS entry over Q, F_5 or Q(a, b), of dims
    1-3, half of the entries zero, plain or computed, so that sums of
    several nonzero terms are common."""
    field = {"idx": F5, "em": QAB, "et": QAB}.get(shape) or draw(st.sampled_from(SPARSE_FIELDS))
    zeros, nonzero = entry_pool(field)
    scalar = st.one_of(st.sampled_from(zeros), st.sampled_from(nonzero))
    d = [draw(st.integers(1, 3)) for _ in range(4)]

    def matrix(rows, cols):
        return LinearMap(field, tuple(tuple(draw(scalar) for _ in range(cols))
                                      for _ in range(rows)))

    def vector(n):
        return matrix(n, 1).column(0)

    def table(left, right, out):
        return StructureTable.from_matrix(field, matrix(out, left * right), left, right)

    if shape == "idx":
        return F5, d[0], draw(st.integers(0, 5 ** (d[0] * d[0]) - 1))
    if shape in ("em", "et"):
        x = table(d[0], d[1], d[2]) if shape == "et" else matrix(d[0], d[1])
        return x, {"a": Fraction(draw(st.integers(-2, 2))), "b": Fraction(draw(st.integers(-2, 2)))}
    if shape == "cmp":
        lhs = matrix(d[0], d[1] * d[2])
        rhs = lhs if draw(st.booleans()) else matrix(d[0], d[1] * d[2])
        return lhs, rhs, (d[1], d[2]), draw(st.integers(0, 3))
    if shape == "tt":
        return table(d[0], d[0], d[0]), table(d[1], d[1], d[1])
    first, rest = shape[0], shape[1:]
    if first == "v":
        x = vector(d[0])
        other = {"v": lambda: vector(d[0]), "c": lambda: draw(scalar)}
    elif first in "ms":
        x = matrix(d[0], d[0] if first == "s" else d[1])
        other = {"v": lambda: vector(x.cols), "j": lambda: draw(st.integers(0, x.cols - 1)),
                 "m": lambda: matrix(x.cols, d[2]), "+": lambda: matrix(x.rows, x.cols),
                 "c": lambda: draw(scalar), "k": lambda: draw(st.integers(0, 3))}
    else:
        x = table(d[0], d[1], d[2])
        other = {"u": lambda: vector(d[0]), "v": lambda: vector(d[1]),
                 "+": lambda: table(d[0], d[1], d[2]), "c": lambda: draw(scalar),
                 "l": lambda: matrix(d[0], d[3]), "r": lambda: matrix(d[1], d[3]),
                 "o": lambda: matrix(d[3], d[2])}
    return (x, *(other[c]() for c in rest))


def typed(x):
    """x with every scalar as the type and repr of its value, which show
    Fraction against int and the insertion order of polynomial dicts."""
    if isinstance(x, Scalar):
        return type(x.value).__name__, repr(x.value)
    if isinstance(x, Vector):
        return "Vector", typed(x.coords)
    if isinstance(x, LinearMap):
        return "LinearMap", typed(x.entries)
    if isinstance(x, StructureTable):
        return "StructureTable", typed(x.constants)
    if isinstance(x, (tuple, list)):
        return [typed(y) for y in x]
    return type(x) if isinstance(x, BaseException) else x


# the kernels that sum terms, each sum's first term stored as computed
SUMMING = {"LinearMap.apply", "LinearMap.compose", "LinearMap.power",
           "StructureTable.apply", "StructureTable.compose_left",
           "StructureTable.compose_right", "StructureTable.twist",
           "StructureTable.postcompose"}
# the sums that merge the stored entries of their two operands, each mapped
# to the two operands it adds
MERGING = {"LinearMap.__add__": lambda x, y: (x, y),
           "LinearMap.__sub__": lambda x, y: (x, y.scale(-x.field.one())),
           "StructureTable.__add__": lambda x, y: (x, y)}


def stored_in_both(x, y) -> int:
    """The (column, row) pairs that both x and y store."""
    return sum(len(a.keys() & b.keys()) for a, b in zip(x._d, y._d))


@pytest.mark.parametrize("name", list(RAW_KERNELS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_kernels_match_boxed_bodies_property(name, data):
    fn, reference, shape = RAW_KERNELS[name]
    args = data.draw(raw_kernel_operands(shape))
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, outcome, fn, *args, to_zero=True)
        want, want_ops = counted(monkeypatch, outcome, reference, *args, to_zero=True)
    assert typed(got) == typed(want)
    if name in MERGING:
        # the reference's muls (a difference scales densely), and one add
        # per row that both operands store
        want_ops = want_ops[0], stored_in_both(*MERGING[name](*args)), 0
    assert got_ops == (accumulated(want_ops) if name in SUMMING else want_ops)


def test_table_apply_multiplies_its_operands_in_the_boxed_order_over_q_params():
    """A fixed case the property's draws miss: u_i v_j times a two-term
    constant c[i][j]^k over Q(a, b), whose product keeps the insertion order
    of its polynomial dicts only when taken as (u_i v_j) * c, not c * (u_i v_j)."""
    a, b, zero, one = QAB.parameter("a"), QAB.parameter("b"), QAB.zero(), QAB.one()
    t = StructureTable(QAB, (((a + b, zero),), ((zero, one),)))
    u, v = Vector(QAB, (a + one, zero)), Vector(QAB, (b + one,))
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, StructureTable.apply, t, u, v, to_zero=True)
        want, want_ops = counted(monkeypatch, old_table_apply, t, u, v, to_zero=True)
    assert typed(got) == typed(want) and got_ops == accumulated(want_ops)


def raw_values(field):
    """Raw values y of field: ints and Fractions over Q, 0..p-1 over F_p,
    and over Q(params) numerators with int, Fraction and integral Fraction
    coefficients, or none (a stored zero ({}, d)), over the int unit, the
    Fraction(1) unit or a non-unit denominator."""
    if field.kind == "prime":
        return st.integers(0, field.p - 1)
    coeff = st.one_of(st.integers(-4, 4).filter(bool),
                      st.fractions(-3, 3, max_denominator=4).filter(bool),
                      st.integers(1, 3).map(Fraction))
    if field.kind == "rational":
        return st.one_of(st.integers(-4, 4), coeff)
    shifts = field.ops.shifts
    mono = st.tuples(*(st.integers(0, 3) for _ in shifts)).map(
        lambda exps: sum(e << s for e, s in zip(exps, shifts)))
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3)
    den = st.one_of(st.just({0: 1}), st.just({0: Fraction(1)}), poly)
    return st.tuples(st.one_of(st.just({}), poly), den)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=["Q", "F_5", "Q(a,b)"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_add_to_the_zero_object_gives_the_other_operand_property(field, data):
    """The accumulation rule's premise: zero + y is y in value, type,
    coefficient types and dict order, so a sum may store its first term."""
    y = data.draw(raw_values(field))
    got = field.ops.add(field.ops.zero, y)
    assert (type(got), repr(got)) == (type(y), repr(y))


QA = FieldSpec.rational_function("a")


def parsed_map(field, rows):
    return LinearMap(field, tuple(tuple(field.parse(x) for x in row) for row in rows))


def stored(x):
    """Each column's stored entries as (row, type, repr of the raw value),
    in dict order: the rows must increase."""
    return [[(i, type(v).__name__, repr(v)) for i, v in col.items()] for col in x._d]


@pytest.mark.parametrize("field, f, g, want", [
    (Q, [["0", "1"], ["0", "0"], ["1", "0"]], [["1"], ["1"]],
     [[(0, "int", "1"), (2, "int", "1")]]),
    (Q, [["1/2", "-1/2"], ["1", "1"]], [["1"], ["1"]], [[(1, "int", "2")]]),
    (F5, [["2", "3"]], [["1"], ["1"]], [[]]),
    (QA, [["1/a", "-1/a"]], [["1"], ["1"]], [[(0, "tuple", "({}, {2: 1})")]]),
    (Q, [["0"], ["3"]], [["2"]], [[(1, "int", "6")]]),
], ids=["later-k-lower-row", "cancels-Q", "cancels-F5", "cancels-to-stored-Qa", "one-entry"])
def test_compose_accumulates_over_the_touched_rows(field, f, g, want):
    """compose sums each column in a dict of the rows its products touch:
    rows read out increasing though a later k touched a lower row first, a
    sum structurally equal to zero dropped (1/2 - 1/2 over Q, 2 + 3 over
    F_5), a cancelled Q(a) sum ({}, a^2) kept with its form, and a column of
    one entry; each as the dense loop gives it."""
    f, g = parsed_map(field, f), parsed_map(field, g)
    got = f.compose(g)
    assert stored(got) == want
    assert typed(got) == typed(old_compose(f, g))


@pytest.mark.parametrize("field, x, y, want", [
    (Q, [["1", "0"], ["0", "0"]], [["0", "0"], ["2", "3"]],
     [[(0, "int", "1"), (1, "int", "2")], [(1, "int", "3")]]),
    (Q, [["1", "1/2"], ["1", "0"]], [["-1", "-1/2"], ["1", "0"]], [[(1, "int", "2")], []]),
    (F5, [["2"]], [["3"]], [[]]),
    (QA, [["0/a"], ["0"]], [["0"], ["1"]],
     [[(0, "tuple", "({}, {1: 1})"), (1, "tuple", "({0: 1}, {0: 1})")]]),
], ids=["one-side", "cancels-Q", "cancels-F5", "stored-zero-Qa"])
def test_sums_merge_the_stored_entries(field, x, y, want):
    """+ of maps and of tables adds where both operands store a row, keeps
    the stored value where one does (a stored ({}, a) too), takes an empty
    column's partner as it is and drops a sum structurally equal to zero;
    each as the dense loop gives it."""
    x, y = parsed_map(field, x), parsed_map(field, y)
    tables = [StructureTable.from_matrix(field, m, 1, m.cols) for m in (x, y)]
    for got, want_dense in ((x + y, old_map_add(x, y)),
                            (tables[0] + tables[1], old_table_add(*tables))):
        assert stored(got) == want
        assert typed(got) == typed(want_dense)
        for a, b, col in zip(x._d, y._d, got._d):
            if not (a and b):
                assert col is (a or b)


def test_compose_adds_to_a_sum_that_cancelled_over_q():
    """1/2 - 1/2 is Fraction(0), not the zero object, so the int term after
    it is added, as the dense loop adds it: the entry is Fraction(3), where a
    skip by equality would store the int 3."""
    f = LinearMap(Q, ((Q.parse("1/2"), Q.parse("-1/2"), Q.from_int(3)),))
    g = LinearMap(Q, ((Q.one(),), (Q.one(),), (Q.one(),)))
    got = f.compose(g)
    assert typed(got) == typed(old_compose(f, g))
    add = Q.ops.add
    dense = add(add(add(Q.ops.zero, Fraction(1, 2)), Fraction(-1, 2)), 3)
    assert (type(got._d[0][0]), got._d[0][0]) == (type(dense), dense) == (Fraction, 3)


@st.composite
def compose_kron_operands(draw):
    """(h, f, g) over Q, F_5 or Q(a, b), sparse with empty columns and,
    over Q(a, b), stored zeros ({}, a); now and then h's columns miss
    f.rows * g.rows by one, or one operand is over another field."""
    fields = SPARSE_FIELDS
    field = draw(st.sampled_from(fields))
    r1, c1, r2, c2, rows = (draw(st.integers(1, 3)) for _ in range(5))
    cols = r1 * r2 + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    shapes = [(rows, cols), (r1, c1), (r2, c2)]
    over = [field] * 3
    if draw(st.integers(0, 9)) == 0:
        over[draw(st.integers(0, 2))] = draw(st.sampled_from(fields))
    return tuple(draw(sparse_matrix(x, *shape)) for x, shape in zip(over, shapes))


def kron_reference(h, f, g):
    return h.compose(tensor2(f, g))


@settings(max_examples=300, deadline=None)
@given(compose_kron_operands())
def test_compose_kron_is_compose_after_tensor2_property(operands):
    """_compose_kron(h, f, g) is h.compose(tensor2(f, g)) in raw values,
    types and dict order, or the same refusal; it makes the same adds and
    no more muls, as it makes a Kronecker entry only where h reads it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, (got_mul, got_add) = counted(monkeypatch, outcome, _compose_kron, *operands)
        want, (want_mul, want_add) = counted(monkeypatch, outcome, kron_reference,
                                             *operands)
    if isinstance(want, BiHomAlgError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert typed(got) == typed(want) and stored(got) == stored(want)
    assert got_mul <= want_mul and got_add == want_add


@pytest.mark.parametrize("field", [Q, F5, QA], ids=["Q", "F_5", "Q(a)"])
def test_compose_kron_makes_only_the_entries_h_reads(field):
    """h reads rows 0 and 3 of f (x) g, the identity (x) [[1, 1], [0, 1]]:
    of its 6 entries, the 3 in rows 1 and 2 are never made, and the result
    is the reference's."""
    h = parsed_map(field, [["2", "0", "0", "1"]])
    f = parsed_map(field, [["1", "0"], ["0", "1"]])
    g = parsed_map(field, [["1", "1"], ["0", "1"]])
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, _compose_kron, h, f, g)
        want, want_ops = counted(monkeypatch, kron_reference, h, f, g)
    assert typed(got) == typed(want)
    assert got_ops == (want_ops[0] - 3, want_ops[1])


def test_compose_kron_keeps_the_operand_order_over_q_params():
    """Over Q(a, b) a product of two two-term denominators keeps the dict
    order of its left factor's terms, so f[i1][j1] * g[i2][j2] and h's entry
    times it must be taken in that order: here g * f would print another
    form of the same value."""
    f = parsed_map(QAB, [["b/(a + 1)"]])
    g = parsed_map(QAB, [["1/(a - b)", "a*b - 3"]])
    h = parsed_map(QAB, [["a*a + 2*b + 1"], ["1/(a - b)"]])
    got, want = _compose_kron(h, f, g), kron_reference(h, f, g)
    assert typed(got) == typed(want)
    assert typed(got) != typed(kron_reference(h, g, f))


def test_an_integral_fraction_entry_prints_and_compares_as_the_int():
    """The constructors store an integral Q value as an int, and the kernels
    keep what the ops compute, so compose stores 1/2 - 1/2 + 3 as
    Fraction(3).  That entry prints 3 through `entries` and `serialize`, and
    the map equals the one built with the int 3."""
    f = LinearMap(Q, ((Q.parse("1/2"), Q.parse("-1/2"), Q.from_int(3)),))
    g = LinearMap(Q, ((Q.one(),), (Q.one(),), (Q.one(),)))
    got, want = f.compose(g), LinearMap(Q, ((Q.from_int(3),),))
    assert (type(got._d[0][0]), type(want._d[0][0])) == (Fraction, int)
    assert got == want and got.entries == want.entries
    assert [[scalar_to_str(c) for c in row] for row in got.entries] == [["3"]]
    zero = StructureTable.zero(Q, 1, 1, 1)
    texts = [serialize({"structure": BiHomAssociativeAlgebra(
        Q, zero, alpha, LinearMap.identity(Q, 1))}) for alpha in (got, want)]
    assert texts[0] == texts[1] and '"3"' in texts[0]


@pytest.mark.parametrize("shape, dims, constants", [
    ((0,), (0, 0, 0), ()),
    ((2, 2, 0), (2, 2, 0), (((), ()), ((), ()))),
], ids=["0", "2x2->0"])
def test_tables_with_a_zero_dimension(shape, dims, constants):
    """A table without output coordinates keeps its dim_left * dim_right
    columns: apply, the constants, ==, + and the matrix of each."""
    t = StructureTable.zero(Q, *shape)
    u = Vector(Q, (Q.one(),) * t.dim_left)
    v = Vector(Q, (Q.one(),) * t.dim_right)
    assert (t.dim_left, t.dim_right, t.dim_out) == dims
    assert t.apply(u, v) == Vector(Q, ()) and t.apply(u, v).dim == 0
    assert t.constants == constants
    assert t == StructureTable(Q, constants) and t + t == t
    assert t != StructureTable.zero(Q, 1, 1, 0)
    m = t.as_matrix()
    # a map without rows has no columns
    assert (m.rows, m.cols) == (0, 0)
    if t.dim_left * t.dim_right == 0:
        assert StructureTable.from_matrix(Q, m, t.dim_left, t.dim_right) == t
    else:
        with pytest.raises(DimensionMismatch):
            StructureTable.from_matrix(Q, m, t.dim_left, t.dim_right)


@pytest.mark.parametrize("field, c", [(Q, "2"), (FieldSpec.rational_function("a"), "1/a")],
                         ids=["Q", "Q(a)"])
def test_raw_kernels_match_boxed_bodies_at_dim_9(field, c):
    """compose and tensor2 on the operands of a dim-9 tensor_quadri check,
    mu (9 x 81) and alpha (x) mu (81 x 729), scaled by c: over Q(a) every
    zero entry of alpha and mu is then a stored ({}, a), which both kernels
    must skip as the dense loops did."""
    D = tridend_to_dend(rb_derive(truncated_poly_algebra(field, 3), integration_rb(field, 3)))
    S = tensor_quadri(D, D)
    c = field.parse(c)
    mu, alpha = S.nw.as_matrix().scale(c), S.alpha.scale(c)
    with pytest.MonkeyPatch.context() as monkeypatch:
        kron, kron_ops = counted(monkeypatch, tensor2, alpha, mu)
        want, want_ops = counted(monkeypatch, old_tensor2, alpha, mu)
        assert (kron.rows, kron.cols) == (81, 729)
        assert typed(kron) == typed(want) and kron_ops == want_ops
        got, got_ops = counted(monkeypatch, LinearMap.compose, mu, kron, to_zero=True)
        want, want_ops = counted(monkeypatch, old_compose, mu, kron, to_zero=True)
    assert (got.rows, got.cols) == (9, 729)
    assert typed(got) == typed(want) and got_ops == accumulated(want_ops)
    assert got_ops[0] > 0 and not got.is_zero()
    # composed in place, the same map from no more muls
    with pytest.MonkeyPatch.context() as monkeypatch:
        fused, fused_ops = counted(monkeypatch, _compose_kron, mu, alpha, mu)
    assert typed(fused) == typed(got)
    assert fused_ops[0] <= kron_ops[0] + got_ops[0] and fused_ops[1] == got_ops[1]


def test_scale_keeps_the_computed_zeros_over_q_params():
    """c * 0 over Q(a, b) is ({}, den c): stored, and read back as is."""
    m = LinearMap(QAB, ((QAB.one(), QAB.zero()), (QAB.zero(), QAB.parameter("b"))))
    scaled = m.scale(QAB.parse("1/a"))
    over_a = ({}, {(1, 0): 1})
    assert [[x.value for x in row] for row in scaled.entries] == [
        [({(0, 0): 1}, {(1, 0): 1}), over_a], [over_a, ({(0, 1): 1}, {(1, 0): 1})]]
    assert over_a != QAB.ops.zero and scaled.entries[0][1].is_zero()


@pytest.mark.parametrize("build", [
    lambda x: Vector(Q, (Q.one(), x)),
    lambda x: LinearMap(Q, ((Q.one(),), (x,))),
    lambda x: StructureTable(Q, (((Q.one(), x),),)),
], ids=["Vector", "LinearMap", "StructureTable"])
def test_entries_from_another_field_are_refused(build):
    for x in (F5.one(), QAB.parameter("a"), 1):
        with pytest.raises(FieldMismatch):
            build(x)


@pytest.mark.parametrize("k", [-1, -3])
def test_power_refuses_a_negative_exponent(k):
    m = LinearMap(Q, ((Q.from_int(2), Q.one()), (Q.zero(), Q.one())))
    with pytest.raises(ValueError, match=f"got {k}$"):
        m.power(k)
    assert m.power(0) == LinearMap.identity(Q, 2)
    assert m.power(2) == m.compose(m)


@pytest.mark.parametrize("n, i", [(3, -1), (2, 2), (0, 0)])
def test_basis_refuses_an_index_outside_the_dim(n, i):
    """-1 used to give e_(n-1), and n a bare IndexError."""
    with pytest.raises(DimensionMismatch, match=rf"^basis index {i} is outside \[0, {n}\)$"):
        Vector.basis(Q, n, i)
    assert [Vector.basis(Q, 2, j).coords for j in (0, 1)] == [
        (Q.one(), Q.zero()), (Q.zero(), Q.one())]


def test_operands_from_another_field_are_refused():
    q, f = LinearMap.identity(Q, 2), LinearMap.identity(F5, 2)
    t = StructureTable.zero(Q, 2)
    A = BiHomAssociativeAlgebra.associative(Q, t)
    for call in (lambda: q.compose(f), lambda: q + f, lambda: tensor2(q, f),
                 lambda: q.scale(F5.one()), lambda: t.compose_left(f),
                 lambda: t.postcompose(f), lambda: q.apply(Vector.zero(F5, 2)),
                 lambda: grb_hat(A, BiHomBimodule.regular(A), GRBOperator(f))):
        with pytest.raises(FieldMismatch):
            call()
    assert q != f


def test_ops_table_leaves_field_identity_alone():
    f = FieldSpec.prime(7)
    g = pickle.loads(pickle.dumps(f))
    assert f == g and hash(f) == hash(g) and g.ops.p == 7
    assert repr(f) == "FieldSpec(kind='prime', p=7, params=())"
    m = LinearMap(f, ((f.from_int(3),),))
    assert pickle.loads(pickle.dumps(m)) == m
    assert type(Q.from_int(2).value) is Fraction
    assert [type(x.value) for x in LinearMap.identity(Q, 2).entries[0]] == [Fraction] * 2


def test_from_rows_is_the_constructor_on_rows():
    for field in (Q, F5, FieldSpec.rational_function("a")):
        rows = ((field.from_int(1), field.from_int(2), field.zero()),
                (field.zero(), field.from_int(-1), field.from_int(3)))
        m = LinearMap.from_rows(field, rows)
        assert m == LinearMap(field, rows) and (m.rows, m.cols) == (2, 3)
        assert m.entries == rows
    with pytest.raises(FieldMismatch):
        LinearMap.from_rows(Q, ((F5.one(),),))


def test_basis_is_the_unit_vector():
    for field in (Q, F5, FieldSpec.rational_function("a")):
        z, o = field.zero(), field.one()
        assert Vector.basis(field, 3, 1).coords == (z, o, z)
        assert [type(x.value) for x in Vector.basis(field, 3, 1).coords] == \
            [type(x.value) for x in (z, o, z)]
        assert Vector.basis(field, 1, 0) == Vector(field, (o,))
        assert Vector.basis(field, 2, 0) == LinearMap.identity(field, 2).column(0)


def test_containers_store_an_integral_rational_as_an_int():
    # "4/2" parses to a Scalar whose raw value is Fraction(2, 1); the
    # kernels keep ints where they can
    two = Q.parse("4/2")
    (col,) = LinearMap(Q, ((two,),))._d
    assert col == {0: 2} and type(col[0]) is int
    assert type(Vector(Q, (two,))._d[0]) is int
