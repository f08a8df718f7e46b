"""Algebra records for the BiHom structure kinds, their axiom checkers,
Yau twists, and the structure-to-structure constructors.

Each kind states its axioms as data next to its operations (MULTS, AXIOMS,
in the paper's numbering), and one evaluator, _check_axioms, reads them.
Checkers verify identities on basis tuples only (complete by linearity) and
report *all* violations up to a cap, in a deterministic order.  Records never
self-validate on construction; validation is always an explicit checker call.
Classical (unadorned) structures are the special case alpha = beta = id.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import reduce
from operator import add

from .errors import InputAxiomsFail, TwistHypothesisViolated
from .linalg import LinearMap, StructureTable, tensor2
from .scalars import FieldSpec

DEFAULT_VIOLATION_CAP = 16


@dataclass
class CheckReport:
    """Outcome of an axiom check: empty violations means passed.

    violations: (axiom id, basis index tuple, lhs vector, rhs vector).
    sub_checks: named auxiliary facts reported alongside the main axioms
    (e.g. whether a Rota-Baxter operator commutes with the structure maps).
    """

    violations: list = dc_field(default_factory=list)
    sub_checks: dict = dc_field(default_factory=dict)
    cap: int = DEFAULT_VIOLATION_CAP

    @property
    def passed(self) -> bool:
        return not self.violations

    def failed_axioms(self) -> list[str]:
        seen = []
        for axiom, *_ in self.violations:
            if axiom not in seen:
                seen.append(axiom)
        return seen

    def _compare(self, axiom: str, lhs: LinearMap, rhs: LinearMap, dims) -> bool:
        """Compare two matrices columnwise; log violating columns as basis
        tuples decoded through dims."""
        ok = True
        for col in range(lhs.cols):
            bad = any(lhs.entries[i][col] != rhs.entries[i][col]
                      for i in range(lhs.rows))
            if bad:
                ok = False
                if len(self.violations) < self.cap:
                    self.violations.append(
                        (axiom, _decode(col, dims), lhs.column(col), rhs.column(col)))
        return ok


def require(rep: CheckReport, caller: str, sub_checks=(), suffix: str = "") -> None:
    """Refuse a construction whose input failed its precondition: raise
    InputAxiomsFail naming the failed axioms of rep or, when every axiom
    held, the first of the required sub_checks that is false.  The message
    is "<caller>: <names><suffix>"."""
    failed = rep.failed_axioms()
    if not failed:
        failed = [name for name in sub_checks if not rep.sub_checks[name]][:1]
    if failed:
        raise InputAxiomsFail(f"{caller}: {', '.join(failed)}{suffix}", rep)


def _decode(col: int, dims) -> tuple[int, ...]:
    out = []
    for d in reversed(dims[1:]):
        col, r = divmod(col, d)
        out.append(r)
    out.append(col)
    return tuple(reversed(out))


def _mult_check(rep: CheckReport, tag: str, f: LinearMap, m: LinearMap) -> None:
    """f(x op y) == f(x) op f(y) as a matrix identity on the tensor square,
    for the operation op with matrix m."""
    n = m.rows
    rep._compare(tag, f.compose(m), m.compose(tensor2(f, f)), (n, n))


def _commute_check(rep: CheckReport, tag: str, f: LinearMap, g: LinearMap) -> None:
    rep._compare(tag, f.compose(g), g.compose(f), (f.rows,))


# ---------------------------------------------------------------------------
# Structure records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiHomAssociativeAlgebra:
    field: FieldSpec
    mu: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("mu",)
    MULTS = (("alpha_multiplicative", "alpha", "mu"),
             ("beta_multiplicative", "beta", "mu"))
    AXIOMS = (("bihom_associativity", ("mu", "alpha", "mu"), ("mu", "mu", "beta")),)

    @property
    def dim(self) -> int:
        return self.alpha.rows

    @staticmethod
    def associative(field: FieldSpec, mu: StructureTable) -> "BiHomAssociativeAlgebra":
        ident = LinearMap.identity(field, mu.dim)
        return BiHomAssociativeAlgebra(field, mu, ident, ident)


@dataclass(frozen=True)
class BiHomDendriform:
    field: FieldSpec
    prec: StructureTable
    succ: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("prec", "succ")
    MULTS = tuple((f"{f}_mult_{op}", f, op)
                  for f in ("alpha", "beta") for op in ("prec", "succ"))
    AXIOMS = (
        ("dend_prec", ("prec", "prec", "beta"), ("prec", "alpha", "total")),
        ("dend_mid", ("prec", "succ", "beta"), ("succ", "alpha", "prec")),
        ("dend_succ", ("succ", "alpha", "succ"), ("succ", "total", "beta")),
    )

    @property
    def dim(self) -> int:
        return self.alpha.rows


@dataclass(frozen=True)
class BiHomTridendriform:
    field: FieldSpec
    prec: StructureTable
    succ: StructureTable
    dot: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("prec", "succ", "dot")
    MULTS = tuple((f"{f}_mult_{op}", f, op) for op in OPS for f in ("alpha", "beta"))
    AXIOMS = (
        ("tridend_8", ("prec", "prec", "beta"), ("prec", "alpha", "total")),
        ("tridend_9", ("prec", "succ", "beta"), ("succ", "alpha", "prec")),
        ("tridend_10", ("succ", "alpha", "succ"), ("succ", "total", "beta")),
        ("tridend_11", ("dot", "alpha", "succ"), ("dot", "prec", "beta")),
        ("tridend_12", ("succ", "alpha", "dot"), ("dot", "succ", "beta")),
        ("tridend_13", ("dot", "alpha", "prec"), ("prec", "dot", "beta")),
        ("tridend_14", ("dot", "alpha", "dot"), ("dot", "dot", "beta")),
    )

    @property
    def dim(self) -> int:
        return self.alpha.rows


@dataclass(frozen=True)
class BiHomQuadri:
    field: FieldSpec
    nw: StructureTable
    sw: StructureTable
    ne: StructureTable
    se: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("nw", "sw", "ne", "se")
    MULTS = tuple((f"{f}_mult_{op}", f, op) for op in OPS for f in ("alpha", "beta"))
    AXIOMS = (
        ("quadri_11a", ("nw", "nw", "beta"), ("nw", "alpha", "total")),
        ("quadri_11b", ("nw", "ne", "beta"), ("ne", "alpha", "prec")),
        ("quadri_12a", ("ne", "wedge", "beta"), ("ne", "alpha", "succ")),
        ("quadri_12b", ("nw", "sw", "beta"), ("sw", "alpha", "wedge")),
        ("quadri_13a", ("nw", "se", "beta"), ("se", "alpha", "nw")),
        ("quadri_13b", ("ne", "vee", "beta"), ("se", "alpha", "ne")),
        ("quadri_14a", ("sw", "prec", "beta"), ("sw", "alpha", "vee")),
        ("quadri_14b", ("sw", "succ", "beta"), ("se", "alpha", "sw")),
        ("quadri_15", ("se", "total", "beta"), ("se", "alpha", "se")),
    )

    @property
    def dim(self) -> int:
        return self.alpha.rows

    # derived operations, computed on demand, never stored
    @property
    def succ(self) -> StructureTable:
        return self.ne + self.se

    @property
    def prec(self) -> StructureTable:
        return self.nw + self.sw

    @property
    def vee(self) -> StructureTable:
        return self.se + self.sw

    @property
    def wedge(self) -> StructureTable:
        return self.ne + self.nw

    @property
    def star(self) -> StructureTable:
        return self.nw + self.sw + self.ne + self.se


Structure = (BiHomAssociativeAlgebra | BiHomDendriform
             | BiHomTridendriform | BiHomQuadri)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _total(S: Structure) -> StructureTable:
    """The sum of S's operations, left to right in OPS order."""
    return reduce(add, (getattr(S, tag) for tag in S.OPS))


def _check_axioms(S: Structure, cap: int) -> CheckReport:
    """Check S against its kind's tables, in this order: alpha and beta
    commute; each MULTS entry (id, map, op) says map is multiplicative for
    op; each AXIOMS entry (id, lhs, rhs) says lhs == rhs on the tensor cube,
    where a side (outer, left, right) is outer o (left (x) right).  A name
    in a side is alpha, beta, an operation or derived operation of S, or
    "total" (the sum of S.OPS); each name's matrix is built once."""
    rep = CheckReport(cap=cap)
    mats = {"alpha": S.alpha, "beta": S.beta}

    def mat(name: str) -> LinearMap:
        if name not in mats:
            op = _total(S) if name == "total" else getattr(S, name)
            mats[name] = op.as_matrix()
        return mats[name]

    _commute_check(rep, "alpha_beta_commute", S.alpha, S.beta)
    for tag, f, op in S.MULTS:
        _mult_check(rep, tag, mat(f), mat(op))
    for tag, *sides in S.AXIOMS:
        lhs, rhs = (mat(outer).compose(tensor2(mat(left), mat(right)))
                    for outer, left, right in sides)
        rep._compare(tag, lhs, rhs, (S.dim,) * 3)
    return rep


def check_bihom_associative(A: BiHomAssociativeAlgebra,
                            cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return _check_axioms(A, cap)


def check_dendriform(D: BiHomDendriform,
                     cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return _check_axioms(D, cap)


def check_tridendriform(T: BiHomTridendriform,
                        cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return _check_axioms(T, cap)


def check_quadri(Q: BiHomQuadri, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return _check_axioms(Q, cap)


def check_structure(S: Structure, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """Run the checker matching the structure kind."""
    if isinstance(S, BiHomAssociativeAlgebra):
        return check_bihom_associative(S, cap)
    if isinstance(S, BiHomDendriform):
        return check_dendriform(S, cap)
    if isinstance(S, BiHomTridendriform):
        return check_tridendriform(S, cap)
    if isinstance(S, BiHomQuadri):
        return check_quadri(S, cap)
    raise TypeError(f"not a structure: {S!r}")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def yau_twist(S: Structure, atilde: LinearMap, btilde: LinearMap) -> Structure:
    """Twist every operation to x <>' y = atilde(x) <> btilde(y) and compose
    the structure maps.  Hypotheses (multiplicativity and pairwise
    commutation) are checked up front and violations refuse the twist."""
    probe = CheckReport(cap=1)
    for tag in S.OPS:
        m = getattr(S, tag).as_matrix()
        _mult_check(probe, f"atilde_mult_{tag}", atilde, m)
        _mult_check(probe, f"btilde_mult_{tag}", btilde, m)
    _commute_check(probe, "atilde_btilde", atilde, btilde)
    _commute_check(probe, "atilde_alpha", atilde, S.alpha)
    _commute_check(probe, "atilde_beta", atilde, S.beta)
    _commute_check(probe, "btilde_alpha", btilde, S.alpha)
    _commute_check(probe, "btilde_beta", btilde, S.beta)
    if not probe.passed:
        raise TwistHypothesisViolated(", ".join(probe.failed_axioms()))
    twisted = {tag: getattr(S, tag).twist(atilde, btilde) for tag in S.OPS}
    return replace(S, alpha=atilde.compose(S.alpha), beta=btilde.compose(S.beta),
                   **twisted)


def tridend_to_dend(T: BiHomTridendriform) -> BiHomDendriform:
    """x <' y = x < y + x.y ; x >' y = x > y."""
    require(check_structure(T), "tridend_to_dend")
    return BiHomDendriform(T.field, T.prec + T.dot, T.succ, T.alpha, T.beta)


def embed_dend_in_tridend(D: BiHomDendriform) -> BiHomTridendriform:
    """A dendriform algebra is tridendriform with the zero middle product."""
    zero = StructureTable.zero(D.field, D.dim)
    return BiHomTridendriform(D.field, D.prec, D.succ, zero, D.alpha, D.beta)


def total_product(S: Structure) -> BiHomAssociativeAlgebra:
    """The sum of all operations, a BiHom-associative multiplication."""
    require(check_structure(S), "total_product")
    if isinstance(S, BiHomAssociativeAlgebra):
        return S
    return BiHomAssociativeAlgebra(S.field, _total(S), S.alpha, S.beta)


def quadri_projections(Q: BiHomQuadri) -> tuple[BiHomDendriform, BiHomDendriform]:
    """Horizontal (prec, succ) and vertical (wedge, vee) dendriform algebras."""
    require(check_structure(Q), "quadri_projections")
    horizontal = BiHomDendriform(Q.field, Q.prec, Q.succ, Q.alpha, Q.beta)
    vertical = BiHomDendriform(Q.field, Q.wedge, Q.vee, Q.alpha, Q.beta)
    return horizontal, vertical


def _tensor_tables(ta: StructureTable, tb: StructureTable) -> StructureTable:
    """Componentwise tensor: (a1 (x) b1, a2 (x) b2) -> ta(a1,a2) (x) tb(b1,b2).
    A product with a zero factor is the field's zero, not a computed 0*x,
    which over Q(params) would serialize as (0)/(..)."""
    zero = ta.field.zero()
    return StructureTable(ta.field, tuple(
        tuple(tuple(zero if a.is_zero() or b.is_zero() else a * b
                    for a in ta.constants[i1][i2] for b in tb.constants[j1][j2])
              for i2 in range(ta.dim) for j2 in range(tb.dim))
        for i1 in range(ta.dim) for j1 in range(tb.dim)))


def tensor_quadri(A: BiHomDendriform, B: BiHomDendriform) -> BiHomQuadri:
    """The quadri-algebra on A (x) B built from two dendriform algebras."""
    require(check_structure(A), "tensor_quadri (left factor)")
    require(check_structure(B), "tensor_quadri (right factor)")
    return BiHomQuadri(
        A.field,
        nw=_tensor_tables(A.prec, B.prec),
        sw=_tensor_tables(A.prec, B.succ),
        ne=_tensor_tables(A.succ, B.prec),
        se=_tensor_tables(A.succ, B.succ),
        alpha=tensor2(A.alpha, B.alpha),
        beta=tensor2(A.beta, B.beta),
    )
