import random

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, FieldSpec,
                      GRBOperator, LinearMap, RBOperator, StructureTable,
                      Vector, apply_bilinear, block_diag, check_bimodule,
                      grb_hat, maps_commute, split_null_extension, tensor2,
                      tensor3)
from bihomalg.errors import BiHomAlgError, DimensionMismatch
from bihomalg.linalg import _check
from bihomalg.structures import require
from conftest import counted

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
    out = []
    for i in range(f.rows):
        row = []
        for j in range(g.cols):
            acc = zero
            for k in range(f.cols):
                a, b = f.entries[i][k], g.entries[k][j]
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return LinearMap(f.field, tuple(out))


def dense_tensor2(f, g):
    """The dense Kronecker loop that tensor2 must match term by term."""
    zero = f.field.zero()
    out = [[zero] * (f.cols * g.cols) for _ in range(f.rows * g.rows)]
    for i1 in range(f.rows):
        for j1 in range(f.cols):
            a = f.entries[i1][j1]
            if a.is_zero():
                continue
            for i2 in range(g.rows):
                for j2 in range(g.cols):
                    b = g.entries[i2][j2]
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


def assert_same_scalar_ops(monkeypatch, fn, reference, *args):
    """fn(*args) gives reference(*args) entry for entry, with the same raw
    values and the same numbers of scalar * and + calls; returns fn's
    result."""
    got, got_ops = counted(monkeypatch, fn, *args)
    want, want_ops = counted(monkeypatch, reference, *args)
    assert raw_entries(got) == raw_entries(want)
    assert got_ops == want_ops
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
