"""Algebra records for the BiHom structure kinds, their axiom checkers,
Yau twists, and the structure-to-structure constructors.

Every identity the package checks, here (MULTS, AXIOMS, in the paper's
numbering) and in the other modules, is a row (id, lhs, rhs) read by one
evaluator, _check_axioms, which logs the violations of a report's rows and
records its sub-check rows (facts reported beside them, such as an operator
commuting with alpha and beta) in the same pass.  A side is a chain of
factors composed left to right, ((f1 o f2) o f3); a factor is a name, or a
tuple of names meaning their Kronecker product, whose domain joins theirs.
A Kronecker factor that only one side reads, as its last factor, is
composed in place, never built (see _check_axioms).  The mats the
evaluator reads map each name to the package's own object: a
StructureTable, read as its matrix on the domain (dim_left, dim_right), so
(n, m) for an action A (x) M -> M; a LinearMap, on the domain (cols,); or,
for a map on a tensor square or cube, a (LinearMap, dims) pair.  A
violation's basis tuple is decoded through the lhs's last factor's domain.
The evaluator builds and returns the report itself, logging up to cap
violations.  A kind's derived operations are data too: DERIVED maps each
name to its summands, added left to right, as "total" to OPS.

Checkers verify identities on basis tuples only (complete by linearity) and
report *all* violations up to a cap, in a deterministic order.  Records never
self-validate on construction; validation is always an explicit checker call.
Classical (unadorned) structures are the special case alpha = beta = id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache, reduce
from itertools import product
from operator import add

from .errors import DimensionMismatch, InputAxiomsFail, TwistHypothesisViolated
from .linalg import (LinearMap, StructureTable, _compose_kron, _differing_columns, _join,
                     tensor2)
from .scalars import FieldSpec

DEFAULT_VIOLATION_CAP = 16


@dataclass
class CheckReport:
    """Outcome of an axiom check: empty violations means passed.

    violations: (axiom id, basis index tuple, lhs vector, rhs vector), the
    first `cap` violating columns.
    sub_checks: named auxiliary facts reported alongside the main axioms
    (e.g. whether a Rota-Baxter operator commutes with the structure maps).
    total_violations: every violating column compared, also past the cap.
    """

    violations: list = dc_field(default_factory=list)
    sub_checks: dict = dc_field(default_factory=dict)
    cap: int = DEFAULT_VIOLATION_CAP
    total_violations: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def failed_axioms(self) -> list[str]:
        seen = []
        for axiom, *_ in self.violations:
            if axiom not in seen:
                seen.append(axiom)
        return seen

    def _compare(self, axiom: str, lhs: LinearMap, rhs: LinearMap, dims) -> None:
        """Compare two matrices columnwise; count the violating columns and
        log the first cap of them as basis tuples decoded through dims."""
        for col in _differing_columns(lhs, rhs):
            self.total_violations += 1
            if len(self.violations) < self.cap:
                self.violations.append(
                    (axiom, _decode(col, dims), lhs.column(col), rhs.column(col)))


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


def _commutes(tag: str, f, g) -> tuple:
    """The row f o g == g o f."""
    return (tag, (f, g), (g, f))


def _compatible(tag: str, f, op, left, right) -> tuple:
    """The row f(x op y) == left(x) op right(y); f multiplicative if f = left = right."""
    return (tag, (f, op), (op, (left, right)))


def _read(obj) -> tuple:
    """A name's (matrix, domain dims) in mats: a table's matrix on
    (dim_left, dim_right), a map on (cols,), or a pair as it is given."""
    if isinstance(obj, tuple):
        return obj
    if isinstance(obj, StructureTable):
        return obj.as_matrix(), (obj.dim_left, obj.dim_right)
    return obj, (obj.cols,)


@lru_cache(maxsize=256)
def _fused(rows: tuple, sub_checks: tuple) -> frozenset:
    """The Kronecker factors of rows and sub_checks that _check_axioms
    composes in place: each one read exactly once, counting every position,
    as the last factor of a side that has a factor before it.  The rows are
    the package's own, a few dozen distinct tuples, so each plan is made
    once per process."""
    sides = [side for _, lhs, rhs in rows + sub_checks for side in (lhs, rhs)]
    reads = Counter(f for side in sides for f in side if isinstance(f, tuple))
    return frozenset(side[-1] for side in sides
                     if len(side) > 1 and reads[side[-1]] == 1)


def _check_axioms(mats: dict, rows, cap: int, sub_checks=()) -> CheckReport:
    """The report of rows, logging up to cap violations, with
    report.sub_checks recording whether each row of sub_checks holds,
    logging and counting none of their violations.  mats maps each name to
    a StructureTable, a LinearMap or a (LinearMap, dims) pair (see the
    module docstring).

    A Kronecker factor that the rows and sub_checks read exactly once, as
    the last factor of a side after at least one other, is never built:
    that side is _compose_kron(h, f, g), h the composite of the factors
    before it, which makes only the Kronecker entries that h reads.  Every
    other Kronecker factor is built once per call by tensor2, however many
    rows read it, and every factor is resolved, its fields joined, before
    a row composes; a name in a Kronecker factor is read once per such
    factor.  The plan, which factors to fuse, is made once per distinct
    rows and sub_checks (_fused)."""
    rows, sub_checks = tuple(rows), tuple(sub_checks)
    fused, factors = _fused(rows, sub_checks), {}

    def side_map(side) -> LinearMap:
        maps = [factors[f][0] for f in side]
        if side[-1] not in fused:
            return reduce(LinearMap.compose, maps)
        *kron, last = maps.pop()
        return _compose_kron(reduce(LinearMap.compose, maps), reduce(tensor2, kron),
                             last)

    def compare(into: CheckReport, tag, lhs, rhs) -> CheckReport:
        for f in lhs + rhs:
            if f not in factors:
                if isinstance(f, str):
                    factors[f] = _read(mats[f])
                else:
                    maps, dims = zip(*(_read(mats[name]) for name in f))
                    if f not in fused:
                        maps = reduce(tensor2, maps)
                    else:  # refuse, as tensor2 would here, maps over two fields
                        for m in maps:
                            if m.field is not maps[0].field:
                                _join(*(x.field for x in maps))
                    factors[f] = maps, sum(dims, ())
        into._compare(tag, side_map(lhs), side_map(rhs), factors[lhs[-1]][1])
        return into

    rep = CheckReport(cap=cap)
    for row in rows:
        compare(rep, *row)
    for row in sub_checks:
        rep.sub_checks[row[0]] = compare(CheckReport(cap=1), *row).passed
    return rep


# the commutations a Yau twist needs: of the twist maps with each other and
# with the structure maps
_TWIST_PAIRS = (("atilde", "btilde"), *product(("atilde", "btilde"), ("alpha", "beta")))


def _square_ok(n: int, **maps: LinearMap) -> None:
    """Refuse with DimensionMismatch, naming it, the first of maps that is
    not n x n, before any row composes it."""
    for name, m in maps.items():
        if (m.rows, m.cols) != (n, n):
            raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, not {n}x{n}")


def _refuse(mats: dict, rows, error) -> None:
    """Raise error(id) with the id of the first of rows that fails, if any:
    the probe of a construction's hypotheses, which logs one violation."""
    probe = _check_axioms(mats, rows, 1)
    if not probe.passed:
        raise error(probe.failed_axioms()[0])


# ---------------------------------------------------------------------------
# Structure records
# ---------------------------------------------------------------------------

class _Derived(dict):
    """A kind's derived operations: each name maps to its summands, added
    left to right; OPS + DERIVED is the tuple of every operation's name."""

    def __radd__(self, names: tuple) -> tuple:
        return names + tuple(self)


def _structure_mats(S) -> dict:
    """The mats of S's structure maps, alpha and beta, and of its stored
    operations, those of OPS."""
    return {"alpha": S.alpha, "beta": S.beta, **{tag: getattr(S, tag) for tag in S.OPS}}


def _operation(S, name: str) -> StructureTable:
    """The operation name of S: a stored one of OPS, or the sum of its
    summands in DERIVED."""
    return reduce(add, (getattr(S, tag) for tag in S.DERIVED.get(name, (name,))))


@dataclass(frozen=True)
class _Record:
    """The field every structure record starts with, and its dimension."""

    field: FieldSpec

    @property
    def dim(self) -> int:
        return self.alpha.rows


@dataclass(frozen=True)
class BiHomAssociativeAlgebra(_Record):
    mu: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("mu",)
    MULTS = (_compatible("alpha_multiplicative", "alpha", "mu", "alpha", "alpha"),
             _compatible("beta_multiplicative", "beta", "mu", "beta", "beta"))
    DERIVED = _Derived()
    AXIOMS = (("bihom_associativity", ("mu", ("alpha", "mu")), ("mu", ("mu", "beta"))),)

    @staticmethod
    def associative(field: FieldSpec, mu: StructureTable) -> "BiHomAssociativeAlgebra":
        ident = LinearMap.identity(field, mu.dim)
        return BiHomAssociativeAlgebra(field, mu, ident, ident)


@dataclass(frozen=True)
class BiHomDendriform(_Record):
    prec: StructureTable
    succ: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("prec", "succ")
    MULTS = tuple(_compatible(f"{f}_mult_{op}", f, op, f, f)
                  for f in ("alpha", "beta") for op in ("prec", "succ"))
    DERIVED = _Derived(total=OPS)
    AXIOMS = (
        ("dend_prec", ("prec", ("prec", "beta")), ("prec", ("alpha", "total"))),
        ("dend_mid", ("prec", ("succ", "beta")), ("succ", ("alpha", "prec"))),
        ("dend_succ", ("succ", ("alpha", "succ")), ("succ", ("total", "beta"))),
    )


@dataclass(frozen=True)
class BiHomTridendriform(_Record):
    prec: StructureTable
    succ: StructureTable
    dot: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("prec", "succ", "dot")
    MULTS = tuple(_compatible(f"{f}_mult_{op}", f, op, f, f)
                  for op in OPS for f in ("alpha", "beta"))
    DERIVED = _Derived(total=OPS)
    AXIOMS = (
        ("tridend_8", ("prec", ("prec", "beta")), ("prec", ("alpha", "total"))),
        ("tridend_9", ("prec", ("succ", "beta")), ("succ", ("alpha", "prec"))),
        ("tridend_10", ("succ", ("alpha", "succ")), ("succ", ("total", "beta"))),
        ("tridend_11", ("dot", ("alpha", "succ")), ("dot", ("prec", "beta"))),
        ("tridend_12", ("succ", ("alpha", "dot")), ("dot", ("succ", "beta"))),
        ("tridend_13", ("dot", ("alpha", "prec")), ("prec", ("dot", "beta"))),
        ("tridend_14", ("dot", ("alpha", "dot")), ("dot", ("dot", "beta"))),
    )


@dataclass(frozen=True)
class BiHomQuadri(_Record):
    nw: StructureTable
    sw: StructureTable
    ne: StructureTable
    se: StructureTable
    alpha: LinearMap
    beta: LinearMap

    OPS = ("nw", "sw", "ne", "se")
    MULTS = tuple(_compatible(f"{f}_mult_{op}", f, op, f, f)
                  for op in OPS for f in ("alpha", "beta"))
    DERIVED = _Derived(prec=("nw", "sw"), succ=("ne", "se"), vee=("se", "sw"),
                       wedge=("ne", "nw"), total=OPS)
    AXIOMS = (
        ("quadri_11a", ("nw", ("nw", "beta")), ("nw", ("alpha", "total"))),
        ("quadri_11b", ("nw", ("ne", "beta")), ("ne", ("alpha", "prec"))),
        ("quadri_12a", ("ne", ("wedge", "beta")), ("ne", ("alpha", "succ"))),
        ("quadri_12b", ("nw", ("sw", "beta")), ("sw", ("alpha", "wedge"))),
        ("quadri_13a", ("nw", ("se", "beta")), ("se", ("alpha", "nw"))),
        ("quadri_13b", ("ne", ("vee", "beta")), ("se", ("alpha", "ne"))),
        ("quadri_14a", ("sw", ("prec", "beta")), ("sw", ("alpha", "vee"))),
        ("quadri_14b", ("sw", ("succ", "beta")), ("se", ("alpha", "sw"))),
        ("quadri_15", ("se", ("total", "beta")), ("se", ("alpha", "se"))),
    )

    # derived operations, computed on demand, never stored
    prec = property(lambda self: _operation(self, "prec"))
    succ = property(lambda self: _operation(self, "succ"))
    vee = property(lambda self: _operation(self, "vee"))
    wedge = property(lambda self: _operation(self, "wedge"))
    star = property(lambda self: _operation(self, "total"))


Structure = (BiHomAssociativeAlgebra | BiHomDendriform
             | BiHomTridendriform | BiHomQuadri)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_structure(S: Structure, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """Check S against its kind's rows: alpha and beta commute, then MULTS
    and AXIOMS over alpha, beta and the operations of OPS and DERIVED."""
    if not isinstance(S, Structure):
        raise TypeError(f"not a structure: {S!r}")
    mats = _structure_mats(S)
    mats.update((name, _operation(S, name)) for name in S.DERIVED)
    rows = (_commutes("alpha_beta_commute", "alpha", "beta"), *S.MULTS, *S.AXIOMS)
    return _check_axioms(mats, rows, cap)


def check_bihom_associative(A: BiHomAssociativeAlgebra,
                            cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return check_structure(A, cap)


def check_dendriform(D: BiHomDendriform,
                     cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return check_structure(D, cap)


def check_tridendriform(T: BiHomTridendriform,
                        cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return check_structure(T, cap)


def check_quadri(Q: BiHomQuadri, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    return check_structure(Q, cap)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def yau_twist(S: Structure, atilde: LinearMap, btilde: LinearMap) -> Structure:
    """Twist every operation to x <>' y = atilde(x) <> btilde(y) and compose
    the structure maps.  Hypotheses (multiplicativity and pairwise
    commutation) are checked up front and violations refuse the twist."""
    _square_ok(S.dim, atilde=atilde, btilde=btilde)
    mats = {**_structure_mats(S), "atilde": atilde, "btilde": btilde}
    rows = [_compatible(f"{f}_mult_{tag}", f, tag, f, f)
            for tag in S.OPS for f in ("atilde", "btilde")]
    rows += [_commutes(f"{f}_{g}", f, g) for f, g in _TWIST_PAIRS]
    _refuse(mats, rows, TwistHypothesisViolated)
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
    return BiHomAssociativeAlgebra(S.field, _operation(S, "total"), S.alpha, S.beta)


def quadri_projections(Q: BiHomQuadri) -> tuple[BiHomDendriform, BiHomDendriform]:
    """Horizontal (prec, succ) and vertical (wedge, vee) dendriform algebras."""
    require(check_structure(Q), "quadri_projections")
    horizontal = BiHomDendriform(Q.field, Q.prec, Q.succ, Q.alpha, Q.beta)
    vertical = BiHomDendriform(Q.field, Q.wedge, Q.vee, Q.alpha, Q.beta)
    return horizontal, vertical


def _tensor_tables(ta: StructureTable, tb: StructureTable) -> StructureTable:
    """Componentwise tensor: (a1 (x) b1, a2 (x) b2) -> ta(a1,a2) (x) tb(b1,b2),
    the columns of ta (x) tb as matrices reindexed from (a1, a2, b1, b2) to
    (a1, b1, a2, b2).  tensor2 multiplies no zero, so a product with a zero
    factor is the field's zero, not a computed 0*x, which over Q(params)
    would serialize as (0)/(..)."""
    na, nb = ta.dim, tb.dim
    cols, n = tensor2(ta.as_matrix(), tb.as_matrix())._d, na * nb
    return StructureTable._of_cols(ta.field, n, [
        cols[((a1 * na + a2) * nb + b1) * nb + b2] for a1 in range(na)
        for b1 in range(nb) for a2 in range(na) for b2 in range(nb)], n, n)


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
