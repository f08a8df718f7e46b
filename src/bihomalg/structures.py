"""Algebra records for the BiHom structure kinds, their axiom checkers,
Yau twists, and the structure-to-structure constructors.

Checkers verify identities on basis tuples only (complete by linearity) and
report *all* violations up to a cap, in a deterministic order.  Records never
self-validate on construction; validation is always an explicit checker call.
Classical (unadorned) structures are the special case alpha = beta = id.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

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


def _mult_check(rep: CheckReport, tag: str, f: LinearMap, op: StructureTable) -> None:
    """f(x op y) == f(x) op f(y) as a matrix identity on the tensor square."""
    m = op.as_matrix()
    n = op.dim
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

def check_bihom_associative(A: BiHomAssociativeAlgebra,
                            cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    rep = CheckReport(cap=cap)
    n = A.dim
    _commute_check(rep, "alpha_beta_commute", A.alpha, A.beta)
    _mult_check(rep, "alpha_multiplicative", A.alpha, A.mu)
    _mult_check(rep, "beta_multiplicative", A.beta, A.mu)
    m = A.mu.as_matrix()
    # alpha(x)(yz) == (xy)beta(z)
    lhs = m.compose(tensor2(A.alpha, m))
    rhs = m.compose(tensor2(m, A.beta))
    rep._compare("bihom_associativity", lhs, rhs, (n, n, n))
    return rep


def check_dendriform(D: BiHomDendriform,
                     cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    rep = CheckReport(cap=cap)
    n = D.dim
    _commute_check(rep, "alpha_beta_commute", D.alpha, D.beta)
    _mult_check(rep, "alpha_mult_prec", D.alpha, D.prec)
    _mult_check(rep, "alpha_mult_succ", D.alpha, D.succ)
    _mult_check(rep, "beta_mult_prec", D.beta, D.prec)
    _mult_check(rep, "beta_mult_succ", D.beta, D.succ)
    p, s = D.prec.as_matrix(), D.succ.as_matrix()
    dims = (n, n, n)
    # (x<y)<b(z) == a(x)<(y<z + y>z)
    rep._compare("dend_prec", p.compose(tensor2(p, D.beta)),
                 p.compose(tensor2(D.alpha, p + s)), dims)
    # (x>y)<b(z) == a(x)>(y<z)
    rep._compare("dend_mid", p.compose(tensor2(s, D.beta)),
                 s.compose(tensor2(D.alpha, p)), dims)
    # a(x)>(y>z) == (x<y + x>y)>b(z)
    rep._compare("dend_succ", s.compose(tensor2(D.alpha, s)),
                 s.compose(tensor2(p + s, D.beta)), dims)
    return rep


def check_tridendriform(T: BiHomTridendriform,
                        cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    rep = CheckReport(cap=cap)
    n = T.dim
    _commute_check(rep, "alpha_beta_commute", T.alpha, T.beta)
    for tag, op in (("prec", T.prec), ("succ", T.succ), ("dot", T.dot)):
        _mult_check(rep, f"alpha_mult_{tag}", T.alpha, op)
        _mult_check(rep, f"beta_mult_{tag}", T.beta, op)
    p, s, d = T.prec.as_matrix(), T.succ.as_matrix(), T.dot.as_matrix()
    a, b = T.alpha, T.beta
    dims = (n, n, n)
    total = p + s + d
    rep._compare("tridend_8", p.compose(tensor2(p, b)),
                 p.compose(tensor2(a, total)), dims)
    rep._compare("tridend_9", p.compose(tensor2(s, b)),
                 s.compose(tensor2(a, p)), dims)
    rep._compare("tridend_10", s.compose(tensor2(a, s)),
                 s.compose(tensor2(total, b)), dims)
    rep._compare("tridend_11", d.compose(tensor2(a, s)),
                 d.compose(tensor2(p, b)), dims)
    rep._compare("tridend_12", s.compose(tensor2(a, d)),
                 d.compose(tensor2(s, b)), dims)
    rep._compare("tridend_13", d.compose(tensor2(a, p)),
                 p.compose(tensor2(d, b)), dims)
    rep._compare("tridend_14", d.compose(tensor2(a, d)),
                 d.compose(tensor2(d, b)), dims)
    return rep


def check_quadri(Q: BiHomQuadri, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    rep = CheckReport(cap=cap)
    n = Q.dim
    _commute_check(rep, "alpha_beta_commute", Q.alpha, Q.beta)
    for tag in Q.OPS:
        _mult_check(rep, f"alpha_mult_{tag}", Q.alpha, getattr(Q, tag))
        _mult_check(rep, f"beta_mult_{tag}", Q.beta, getattr(Q, tag))
    nw, sw = Q.nw.as_matrix(), Q.sw.as_matrix()
    ne, se = Q.ne.as_matrix(), Q.se.as_matrix()
    prec, succ = nw + sw, ne + se
    vee, wedge = se + sw, ne + nw
    star = nw + sw + ne + se
    a, b = Q.alpha, Q.beta
    dims = (n, n, n)
    rep._compare("quadri_11a", nw.compose(tensor2(nw, b)),
                 nw.compose(tensor2(a, star)), dims)
    rep._compare("quadri_11b", nw.compose(tensor2(ne, b)),
                 ne.compose(tensor2(a, prec)), dims)
    rep._compare("quadri_12a", ne.compose(tensor2(wedge, b)),
                 ne.compose(tensor2(a, succ)), dims)
    rep._compare("quadri_12b", nw.compose(tensor2(sw, b)),
                 sw.compose(tensor2(a, wedge)), dims)
    rep._compare("quadri_13a", nw.compose(tensor2(se, b)),
                 se.compose(tensor2(a, nw)), dims)
    rep._compare("quadri_13b", ne.compose(tensor2(vee, b)),
                 se.compose(tensor2(a, ne)), dims)
    rep._compare("quadri_14a", sw.compose(tensor2(prec, b)),
                 sw.compose(tensor2(a, vee)), dims)
    rep._compare("quadri_14b", sw.compose(tensor2(succ, b)),
                 se.compose(tensor2(a, sw)), dims)
    rep._compare("quadri_15", se.compose(tensor2(star, b)),
                 se.compose(tensor2(a, se)), dims)
    return rep


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
        op = getattr(S, tag)
        _mult_check(probe, f"atilde_mult_{tag}", atilde, op)
        _mult_check(probe, f"btilde_mult_{tag}", btilde, op)
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
    mu = None
    for tag in S.OPS:
        op = getattr(S, tag)
        mu = op if mu is None else mu + op
    return BiHomAssociativeAlgebra(S.field, mu, S.alpha, S.beta)


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
