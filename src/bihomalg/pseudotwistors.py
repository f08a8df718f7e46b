"""Weak pseudotwistors and pseudotwistors with companions on BiHom-
associative algebras, materialized as exact matrices on the tensor square
(n^2 x n^2) and tensor cube (n^3 x n^3) in the lexicographic basis.

Every defining identity is an exact matrix equality, so the checkers reduce
to comparisons of composed Kronecker products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, HypothesisViolated
from .linalg import LinearMap, StructureTable, tensor2, tensor3
from .rota_baxter import (OneSidedBaxter, RBOperator, _require_baxter_pair,
                          _require_rb)
from .structures import (BiHomAssociativeAlgebra, CheckReport,
                         DEFAULT_VIOLATION_CAP, require)


@dataclass(frozen=True)
class WeakPseudotwistor:
    T: LinearMap          # n^2 x n^2
    companion: LinearMap  # n^3 x n^3
    atilde: LinearMap     # n x n
    btilde: LinearMap     # n x n

    @property
    def dim(self) -> int:
        return self.atilde.rows


@dataclass(frozen=True)
class PseudotwistorWithCompanions:
    T: LinearMap   # n^2 x n^2
    T1: LinearMap  # n^3 x n^3
    T2: LinearMap  # n^3 x n^3
    atilde: LinearMap
    btilde: LinearMap

    @property
    def dim(self) -> int:
        return self.atilde.rows


def _dims_ok(n: int, T: LinearMap, *cubes: LinearMap) -> None:
    if (T.rows, T.cols) != (n * n, n * n):
        raise DimensionMismatch("T must act on the tensor square")
    for c in cubes:
        if (c.rows, c.cols) != (n ** 3, n ** 3):
            raise DimensionMismatch("companion must act on the tensor cube")


def _common_commutations(rep: CheckReport, A, W) -> None:
    n = A.dim
    for tag, f in (("alpha", A.alpha), ("beta", A.beta),
                   ("atilde", W.atilde), ("btilde", W.btilde)):
        ff = tensor2(f, f)
        rep._compare(f"T_commutes_{tag}", W.T.compose(ff), ff.compose(W.T),
                     (n, n))


def check_weak_pseudotwistor(A: BiHomAssociativeAlgebra, W: WeakPseudotwistor,
                             cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """T composed with (atilde alpha) (x) (mu T) must factor through the weak
    companion on both sides, and T must commute with the four squared maps."""
    n = A.dim
    _dims_ok(n, W.T, W.companion)
    rep = CheckReport(cap=cap)
    mu = A.mu.as_matrix()
    mu_t = mu.compose(W.T)
    dims = (n, n, n)
    rep._compare("weak_1",
                 W.T.compose(tensor2(W.atilde.compose(A.alpha), mu_t)),
                 tensor2(A.alpha, mu).compose(W.companion), dims)
    rep._compare("weak_2",
                 W.T.compose(tensor2(mu_t, W.btilde.compose(A.beta))),
                 tensor2(mu, A.beta).compose(W.companion), dims)
    _common_commutations(rep, A, W)
    return rep


def induced_weak_companion(P: PseudotwistorWithCompanions) -> LinearMap:
    """T1 (T (x) id) (atilde (x) T), the weak companion a full pseudotwistor
    induces."""
    n = P.dim
    ident = LinearMap.identity(P.T.field, n)
    return P.T1.compose(tensor2(P.T, ident)).compose(tensor2(P.atilde, P.T))


def as_weak(P: PseudotwistorWithCompanions) -> WeakPseudotwistor:
    return WeakPseudotwistor(P.T, induced_weak_companion(P), P.atilde, P.btilde)


def check_pseudotwistor(A: BiHomAssociativeAlgebra,
                        P: PseudotwistorWithCompanions,
                        cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    n = A.dim
    _dims_ok(n, P.T, P.T1, P.T2)
    rep = CheckReport(cap=cap)
    mu = A.mu.as_matrix()
    ident = LinearMap.identity(A.field, n)
    dims = (n, n, n)
    t_left = P.T1.compose(tensor2(P.T, ident))
    t_right = P.T2.compose(tensor2(ident, P.T))
    rep._compare("companion_1", P.T.compose(tensor2(A.alpha, mu)),
                 tensor2(A.alpha, mu).compose(t_left), dims)
    rep._compare("companion_2", P.T.compose(tensor2(mu, A.beta)),
                 tensor2(mu, A.beta).compose(t_right), dims)
    rep._compare("companion_3", t_left.compose(tensor2(P.atilde, P.T)),
                 t_right.compose(tensor2(P.T, P.btilde)), dims)
    _common_commutations(rep, A, P)
    return rep


def twisted_algebra(A: BiHomAssociativeAlgebra, W: WeakPseudotwistor,
                    check: bool = True) -> BiHomAssociativeAlgebra:
    """(A, mu T, atilde alpha, btilde beta)."""
    if check:
        require(check_weak_pseudotwistor(A, W), "twisted_algebra")
    mu = StructureTable.from_matrix(A.field, A.mu.as_matrix().compose(W.T),
                                    A.dim, A.dim)
    return BiHomAssociativeAlgebra(A.field, mu, W.atilde.compose(A.alpha),
                                   W.btilde.compose(A.beta))


def rb_pseudotwistor(A: BiHomAssociativeAlgebra, R: RBOperator) -> WeakPseudotwistor:
    """T = R (x) id + id (x) R + weight * id, with the seven-term companion
    (pairwise R placements plus weight times single placements plus weight
    squared times the identity)."""
    _require_rb(A, R, "rb_pseudotwistor")
    n = A.dim
    ident = LinearMap.identity(A.field, n)
    lam = R.weight
    T = tensor2(R.map, ident) + tensor2(ident, R.map) \
        + LinearMap.identity(A.field, n * n).scale(lam)
    companion = (tensor3(R.map, R.map, ident)
                 + tensor3(R.map, ident, R.map)
                 + tensor3(ident, R.map, R.map)
                 + (tensor3(R.map, ident, ident)
                    + tensor3(ident, R.map, ident)
                    + tensor3(ident, ident, R.map)).scale(lam)
                 + LinearMap.identity(A.field, n ** 3).scale(lam * lam))
    return WeakPseudotwistor(T, companion, ident, ident)


def compose_pseudotwistors(A: BiHomAssociativeAlgebra, Tw: WeakPseudotwistor,
                           Dw: WeakPseudotwistor, mode: str) -> WeakPseudotwistor:
    """The composite (T D, companion_T companion_D, id, id).

    mode="general" verifies the two interchange identities between D and the
    T-twisted multiplication; mode="commuting" verifies the three commutation
    identities of the corollary instead.  The hypotheses are never inferred;
    the caller picks the hypothesis set.
    """
    if mode not in ("general", "commuting"):
        raise ValueError(f"mode must be 'general' or 'commuting', got {mode!r}")
    n = A.dim
    ident = LinearMap.identity(A.field, n)
    for name, W in (("T", Tw), ("D", Dw)):
        if W.atilde != ident or W.btilde != ident:
            raise HypothesisViolated(
                f"composition needs identity atilde/btilde on {name}")
    mu = A.mu.as_matrix()
    if mode == "general":
        mu_t = mu.compose(Tw.T)
        mu_td = mu_t.compose(Dw.T)
        if Dw.T.compose(tensor2(A.alpha, mu_td)) \
                != tensor2(A.alpha, mu_t).compose(Dw.companion):
            raise HypothesisViolated("rel1: D (alpha (x) mu T D) = (alpha (x) mu T) companion_D")
        if Dw.T.compose(tensor2(mu_td, A.beta)) \
                != tensor2(mu_t, A.beta).compose(Dw.companion):
            raise HypothesisViolated("rel2: D (mu T D (x) beta) = (mu T (x) beta) companion_D")
    else:
        if mu.compose(Tw.T).compose(Dw.T) != mu.compose(Dw.T).compose(Tw.T):
            raise HypothesisViolated("correl1: mu T D = mu D T")
        id_t = tensor2(ident, Tw.T)
        t_id = tensor2(Tw.T, ident)
        if Dw.companion.compose(id_t) != id_t.compose(Dw.companion):
            raise HypothesisViolated("correl2: companion_D commutes with id (x) T")
        if Dw.companion.compose(t_id) != t_id.compose(Dw.companion):
            raise HypothesisViolated("correl3: companion_D commutes with T (x) id")
    return WeakPseudotwistor(Tw.T.compose(Dw.T),
                             Tw.companion.compose(Dw.companion), ident, ident)


def baxter_pair_pseudotwistor(A: BiHomAssociativeAlgebra, P: OneSidedBaxter,
                              Q: OneSidedBaxter) -> WeakPseudotwistor:
    """T = P (x) Q with companion P (x) (P Q) (x) Q for a commuting
    (right, left) Baxter pair; the twisted multiplication is a*b = P(a)Q(b)."""
    _require_baxter_pair(A, P, Q, "baxter_pair_pseudotwistor")
    ident = LinearMap.identity(A.field, A.dim)
    return WeakPseudotwistor(tensor2(P.map, Q.map),
                             tensor3(P.map, P.map.compose(Q.map), Q.map),
                             ident, ident)
