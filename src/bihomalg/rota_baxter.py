"""Rota-Baxter and one-sided Baxter operators, their checkers, and the
derived dendriform/tridendriform/quadri/double-product structures.

Conventions: an operator record holds only its matrix and weight and is never
validated on construction.  Commutation of R with the structure maps alpha
and beta is reported by check_rota_baxter as a named sub-check, not as an
axiom violation; the derived-structure constructors do require it.

The four Rota-Baxter-type checkers (check_rota_baxter,
check_double_product_morphism, check_rb_on_dendriform,
check_one_sided_baxter) each compare op(P(x), P(y)) with P(inner(x, y)),
inner a sum of op(P(x), y), op(x, P(y)) and weight * op(x, y), in one
evaluator pass that also reads the caller's own rows and sub-check rows.
They share one function, _rb_type, in two parts: the part built once per
structure (the operations' matrices, the rows, the mats of alpha and beta)
returns the part run once per operator (the dimension refusals, P's own
mats, one _check_axioms pass).  A checker runs the two parts once each;
search's second pass builds the first once per search and runs the second
on every hit.  Over Q and F_p the sides are the matrix chains
op o (P (x) P) and P o op o K, K the n^2 x n^2 map of inner's terms, built
from P's stored entries.  Over Q(params) the table ops build both sides,
since a violation prints their unreduced forms.  The constructors keep the
table ops over every field: their tables are the output.

Every commutation the module checks is a _commutes row over named maps (P,
alpha, beta, a second operator or the twist maps): a sub-check, a
violation, or a hypothesis that _refuse turns into the caller's error.
The mats of these rows hold the maps themselves, and the tables built from
P over Q(params), each read by the evaluator on its own domain; only the
operations' matrices, read once per structure, and K, a map on the tensor
square, are given as (matrix, dims) pairs.  The evaluator builds each
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import (DimensionMismatch, InputAxiomsFail, NonzeroWeight,
                     TwistHypothesisViolated)
from .linalg import LinearMap, StructureTable, _check, _raw
from .scalars import RATIONAL_FUNCTION, Scalar
from .structures import (BiHomAssociativeAlgebra, BiHomDendriform, BiHomQuadri,
                         BiHomTridendriform, CheckReport, DEFAULT_VIOLATION_CAP,
                         _check_axioms, _commutes, _refuse, check_dendriform,
                         require, yau_twist)

# the rows that the operator P commutes with the structure maps alpha and beta
COMMUTES = tuple(_commutes(f"commutes_{f}", "P", f) for f in ("alpha", "beta"))


@dataclass(frozen=True)
class RBOperator:
    map: LinearMap
    weight: Scalar

    @property
    def dim(self) -> int:
        return self.map.rows


@dataclass(frozen=True)
class OneSidedBaxter:
    map: LinearMap
    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def _match(A, op_map: LinearMap) -> None:
    if op_map.rows != op_map.cols or op_map.rows != A.dim:
        raise DimensionMismatch("operator does not match the algebra dimension")


def _square(*maps) -> None:
    """Refuse maps that are not square of one size, before their commutation
    rows, with the message of linalg's commutation test."""
    _check(all(f.rows == f.cols == maps[0].rows for f in maps),
           "commutation needs equal square maps")


def _inner_table(op: StructureTable, P: LinearMap, terms, weight=None) -> StructureTable:
    """The sum, in the order of terms, of op(P(x), y) for each "left" and
    op(x, P(y)) for each "right", then weight * op(x, y) when a weight is
    given: the argument of P on a Rota-Baxter-type row, by table ops."""
    tables = [op.compose_left(P) if t == "left" else op.compose_right(P) for t in terms]
    if weight is not None:
        tables.append(op.scale(weight))
    return reduce(add, tables)


def _inner_map(P: LinearMap, terms, weight=None) -> LinearMap:
    """The n^2 x n^2 map K with op o K the matrix of _inner_table(op, P,
    terms, weight): P (x) I for "left", I (x) P for "right" and weight * I,
    summed column by column from P's stored entries.  Column i*n + j holds
    P(e_i) (x) e_j and e_i (x) P(e_j), which meet only in row i*n + j."""
    ops, n, cols = P.field.ops, P.rows, P._d
    add_, zero = ops.add, ops.zero
    w = zero if weight is None else _raw(P.field, weight)
    left, right, out = "left" in terms, "right" in terms, []
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            diag = i * n + j
            d = {diag: w} if w != zero else {}
            if left:
                for a, x in ci.items():
                    r = a * n + j
                    d[r] = add_(d[r], x) if r in d else x
            if right:
                for b, y in cj.items():
                    r = i * n + b
                    d[r] = add_(d[r], y) if r in d else y
            out.append({r: d[r] for r in sorted(d) if d[r] != zero})
    return LinearMap._of_cols(P.field, n * n, out)


def _double_product(A: BiHomAssociativeAlgebra, R: RBOperator) -> StructureTable:
    """x * y = R(x)y + xR(y) + weight*xy."""
    return _inner_table(A.mu, R.map, ("left", "right"), R.weight)


def _rb_type(S, ops, terms, weight=None, swap: bool = False, rows=(),
             sub_checks=()):
    """The check, prepared once for S, of the row op(P(x), P(y)) ==
    P(inner(x, y)) for each (tag, op) of ops, operations of S, inner the sum
    that _inner_table(op, P, terms, weight) builds; swap puts P(inner) on
    the left.  The caller's rows, then its sub_checks, over the names P,
    alpha and beta (S's maps), are read in the same evaluator pass.

    It returns check(P, cap): the report, logging up to cap violations, for
    the operator P.  The operations' matrices and the rows are built here,
    once; check refuses a P that does not match S's dimension and, for
    sub_checks, alpha and beta when they are not P's size and square, then
    adds P and the maps or tables built from it to the mats and runs one
    _check_axioms pass.

    Over Q and F_p, whose values have one form, the sides are the matrix
    chains op o (P (x) P) and P o op o K, K = _inner_map(P, terms, weight),
    read by compose (P (x) P composed in place when one operation reads
    it, else built once by tensor2).  The rows are tuples, hashable, so the
    evaluator's plan for them is made once, not per operator.  Over
    Q(params) both are built by the table ops, whose unreduced forms are
    the ones a violation prints: compose skips the zero products that the
    table ops include."""
    n = S.dim
    shared = {"alpha": S.alpha, "beta": S.beta,
              **{tag: (op.as_matrix(), (n, n)) for tag, op in ops}}

    def row(tag, lhs, rhs) -> tuple:
        return (tag, rhs, lhs) if swap else (tag, lhs, rhs)
    chain_rows = (*(row(tag, (tag, ("P", "P")), ("P", tag, "K")) for tag, _ in ops),
                  *rows)
    table_rows = (*(row(tag, (f"{tag}.twisted",), (f"{tag}.image",)) for tag, _ in ops),
                  *rows)

    def check(P: LinearMap, cap: int) -> CheckReport:
        _match(S, P)
        if sub_checks:
            _square(P, S.alpha, S.beta)
        mats, rb_rows = {**shared, "P": P}, chain_rows
        if P.field.kind == RATIONAL_FUNCTION:
            rb_rows = table_rows
            for tag, op in ops:
                inner = _inner_table(op, P, terms, weight)
                mats[f"{tag}.twisted"] = op.twist(P, P)
                mats[f"{tag}.image"] = inner.postcompose(P)
        else:
            mats["K"] = (_inner_map(P, terms, weight), (n, n))
        return _check_axioms(mats, rb_rows, cap, sub_checks)
    return check


def _rb_identity(A, weight, sub_checks=()):
    """The prepared check of the Rota-Baxter identity of the given weight on
    A: the identity part of check_rota_baxter, with its sub_checks."""
    return _rb_type(A, [("rota_baxter", A.mu)], ("left", "right"), weight,
                    sub_checks=sub_checks)


def _baxter_identity(A, side: str):
    """The prepared check of check_one_sided_baxter for the given side."""
    inner = "left" if side == "right" else "right"
    return _rb_type(A, [(f"{side}_baxter", A.mu)], (inner,))


def check_rota_baxter(A: BiHomAssociativeAlgebra, R: RBOperator,
                      cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """R(x)R(y) == R( R(x)y + xR(y) + weight*xy ) on all basis pairs.

    Whether R commutes with alpha and beta is recorded in sub_checks but does
    not count as a violation.
    """
    return _rb_identity(A, R.weight, COMMUTES)(R.map, cap)


def _require_rb(A: BiHomAssociativeAlgebra, R: RBOperator, caller: str,
                suffix: str = "") -> None:
    require(check_rota_baxter(A, R), caller, ("commutes_alpha", "commutes_beta"),
            suffix)


def rb_derive(A: BiHomAssociativeAlgebra, R: RBOperator,
              check: bool = True) -> BiHomTridendriform:
    """x < y = xR(y), x > y = R(x)y, x . y = weight * xy.

    With check=True (the default) the Rota-Baxter identity and commutation
    with alpha, beta are verified first.  check=False builds the raw tables
    regardless, for inspecting operators that fail the commutation half.
    """
    if check:
        _require_rb(A, R, "rb_derive")
    return BiHomTridendriform(
        A.field,
        prec=A.mu.compose_right(R.map),
        succ=A.mu.compose_left(R.map),
        dot=A.mu.scale(R.weight),
        alpha=A.alpha, beta=A.beta)


def check_double_product_morphism(A: BiHomAssociativeAlgebra, R: RBOperator,
                                  cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """R(x * y) == R(x)R(y) where * is the Rota-Baxter double product."""
    return _rb_type(A, [("double_product_morphism", A.mu)], ("left", "right"),
                    R.weight, swap=True)(R.map, cap)


def rb_double_product(A: BiHomAssociativeAlgebra, R: RBOperator,
                      check: bool = True) -> BiHomAssociativeAlgebra:
    """x * y = xR(y) + R(x)y + weight*xy, a BiHom-associative multiplication
    for which R becomes multiplicative."""
    if check:
        _require_rb(A, R, "rb_double_product")
    return BiHomAssociativeAlgebra(A.field, _double_product(A, R), A.alpha, A.beta)


def check_rb_on_dendriform(D: BiHomDendriform, R: RBOperator,
                           cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """Weight-0 Rota-Baxter identity for both dendriform halves:
    R(x) <> R(y) == R( x <> R(y) + R(x) <> y ), together with commutation
    of R with alpha and beta (part of the definition here)."""
    _match(D, R.map)  # a mismatch is refused before a nonzero weight
    _raw(R.map.field, R.weight)  # and then a weight over another field
    if not R.weight.is_zero():
        raise NonzeroWeight("Rota-Baxter on a dendriform algebra needs weight 0")
    ops = [("rb_dendriform_succ", D.succ), ("rb_dendriform_prec", D.prec)]
    return _rb_type(D, ops, ("right", "left"), rows=COMMUTES)(R.map, cap)


def rb_dendriform_to_quadri(D: BiHomDendriform, R: RBOperator) -> BiHomQuadri:
    """x nw y = x < R(y), x sw y = R(x) < y, x ne y = x > R(y),
    x se y = R(x) > y."""
    require(check_rb_on_dendriform(D, R), "rb_dendriform_to_quadri")
    require(check_dendriform(D), "rb_dendriform_to_quadri")
    return BiHomQuadri(
        D.field,
        nw=D.prec.compose_right(R.map),
        sw=D.prec.compose_left(R.map),
        ne=D.succ.compose_right(R.map),
        se=D.succ.compose_left(R.map),
        alpha=D.alpha, beta=D.beta)


def commuting_pair_quadri(A: BiHomAssociativeAlgebra, R: RBOperator,
                          P: RBOperator) -> BiHomQuadri:
    """For a commuting pair of weight-0 Rota-Baxter operators:
    x se y = R(P(x))y, x ne y = R(x)P(y), x sw y = P(x)R(y),
    x nw y = xR(P(y))."""
    for op, name in ((R, "R"), (P, "P")):
        if not op.weight.is_zero():
            raise InputAxiomsFail(f"commuting_pair_quadri: weight of {name} is nonzero")
        _require_rb(A, op, "commuting_pair_quadri", f" ({name})")
    _refuse({"R": R.map, "P": P.map}, [_commutes("R and P", "R", "P")],
            lambda pair: InputAxiomsFail(f"commuting_pair_quadri: {pair} do not commute"))
    rp = R.map.compose(P.map)
    return BiHomQuadri(
        A.field,
        nw=A.mu.compose_right(rp),
        sw=A.mu.twist(P.map, R.map),
        ne=A.mu.twist(R.map, P.map),
        se=A.mu.compose_left(rp),
        alpha=A.alpha, beta=A.beta)


def check_one_sided_baxter(A: BiHomAssociativeAlgebra, B: OneSidedBaxter,
                           cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """Right: P(a)P(b) == P(P(a)b).  Left: Q(a)Q(b) == Q(aQ(b))."""
    return _baxter_identity(A, B.side)(B.map, cap)


def _require_baxter_pair(A: BiHomAssociativeAlgebra, P: OneSidedBaxter,
                         Q: OneSidedBaxter, caller: str) -> None:
    """P right Baxter, Q left Baxter, both commuting with alpha and beta, and
    PQ = QP."""
    if P.side != "right" or Q.side != "left":
        raise InputAxiomsFail(f"{caller}: need a (right, left) pair")
    for op, name in ((P, "P"), (Q, "Q")):
        require(check_one_sided_baxter(A, op), caller, suffix=f" ({name})")
        _square(op.map, A.alpha, A.beta)
        _refuse({"P": op.map, "alpha": A.alpha, "beta": A.beta},
                [_commutes(f, "P", f) for f in ("alpha", "beta")],
                lambda f: InputAxiomsFail(f"{caller}: {name} does not commute with {f}"))
    _refuse({"P": P.map, "Q": Q.map}, [_commutes("P and Q", "P", "Q")],
            lambda pair: InputAxiomsFail(f"{caller}: {pair} do not commute"))


def baxter_pair_product(A: BiHomAssociativeAlgebra, P: OneSidedBaxter,
                        Q: OneSidedBaxter) -> BiHomAssociativeAlgebra:
    """a * b = P(a)Q(b) for a right Baxter operator P and a left Baxter
    operator Q that commute with each other and with alpha, beta."""
    _require_baxter_pair(A, P, Q, "baxter_pair_product")
    return BiHomAssociativeAlgebra(A.field, A.mu.twist(P.map, Q.map),
                                   A.alpha, A.beta)


def rb_persists_under_twist(A: BiHomAssociativeAlgebra, R: RBOperator,
                            atilde: LinearMap, btilde: LinearMap) -> CheckReport:
    """Yau-twist the algebra by (atilde, btilde) and re-check R there.

    The twist endomorphisms must also commute with R for the persistence
    statement to apply; that is validated alongside the usual twist
    hypotheses."""
    _square(R.map, atilde, btilde)
    _refuse({"R": R.map, "atilde": atilde, "btilde": btilde},
            [_commutes(f, f, "R") for f in ("atilde", "btilde")],
            lambda f: TwistHypothesisViolated(f"{f} does not commute with R"))
    twisted = yau_twist(A, atilde, btilde)
    return check_rota_baxter(twisted, R)
