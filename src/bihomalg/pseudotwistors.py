"""Weak pseudotwistors and pseudotwistors with companions on BiHom-
associative algebras, materialized as exact matrices on the tensor square
(n^2 x n^2) and tensor cube (n^3 x n^3) in the lexicographic basis.

Every defining identity is an exact matrix equality of composed Kronecker
products, a row read by the identity evaluator of bihomalg.structures, and
a companion after a Kronecker factor is composed in place (_compose_kron).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, HypothesisViolated
from .linalg import LinearMap, StructureTable, _compose_kron, tensor2, tensor3
from .rota_baxter import (OneSidedBaxter, RBOperator, _require_baxter_pair,
                          _require_rb)
from .structures import (BiHomAssociativeAlgebra, CheckReport, DEFAULT_VIOLATION_CAP,
                         _check_axioms, _commutes, _refuse, _square_ok,
                         _structure_mats, require)


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


T_COMMUTES = tuple(_commutes(f"T_commutes_{f}", "T", (f, f))
                   for f in ("alpha", "beta", "atilde", "btilde"))

WEAK_AXIOMS = (
    ("weak_1", ("T", ("atilde_alpha", "mu_T")), (("alpha", "mu"), "companion")),
    ("weak_2", ("T", ("mu_T", "btilde_beta")), (("mu", "beta"), "companion")),
    *T_COMMUTES,
)

PSEUDOTWISTOR_AXIOMS = (
    ("companion_1", ("T", ("alpha", "mu")), (("alpha", "mu"), "t_left")),
    ("companion_2", ("T", ("mu", "beta")), (("mu", "beta"), "t_right")),
    ("companion_3", ("t_left", ("atilde", "T")), ("t_right", ("T", "btilde"))),
    *T_COMMUTES,
)


def _twistor_mats(A: BiHomAssociativeAlgebra, W) -> dict:
    n = A.dim
    return {**_structure_mats(A), "atilde": W.atilde, "btilde": W.btilde,
            "T": (W.T, (n, n))}


def check_weak_pseudotwistor(A: BiHomAssociativeAlgebra, W: WeakPseudotwistor,
                             cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """T composed with (atilde alpha) (x) (mu T) must factor through the weak
    companion on both sides, and T must commute with the four squared maps."""
    n = A.dim
    _dims_ok(n, W.T, W.companion)
    mats = _twistor_mats(A, W)
    mats.update(companion=(W.companion, (n, n, n)),
                mu_T=(A.mu.as_matrix().compose(W.T), (n, n)),
                atilde_alpha=W.atilde.compose(A.alpha),
                btilde_beta=W.btilde.compose(A.beta))
    return _check_axioms(mats, WEAK_AXIOMS, cap)


def induced_weak_companion(P: PseudotwistorWithCompanions) -> LinearMap:
    """T1 (T (x) id) (atilde (x) T), the weak companion a full pseudotwistor
    induces."""
    ident = LinearMap.identity(P.T.field, P.dim)
    return _compose_kron(_compose_kron(P.T1, P.T, ident), P.atilde, P.T)


def as_weak(P: PseudotwistorWithCompanions) -> WeakPseudotwistor:
    return WeakPseudotwistor(P.T, induced_weak_companion(P), P.atilde, P.btilde)


def check_pseudotwistor(A: BiHomAssociativeAlgebra,
                        P: PseudotwistorWithCompanions,
                        cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    n = A.dim
    _dims_ok(n, P.T, P.T1, P.T2)
    ident = LinearMap.identity(A.field, n)
    mats = _twistor_mats(A, P)
    mats.update(t_left=(_compose_kron(P.T1, P.T, ident), (n, n, n)),
                t_right=(_compose_kron(P.T2, ident, P.T), (n, n, n)))
    return _check_axioms(mats, PSEUDOTWISTOR_AXIOMS, cap)


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


# by mode; each id is the text of the HypothesisViolated it raises
COMPOSE_HYPOTHESES = {
    "general": (
        ("rel1: D (alpha (x) mu T D) = (alpha (x) mu T) companion_D",
         ("D", ("alpha", "mu_TD")), (("alpha", "mu_T"), "companion_D")),
        ("rel2: D (mu T D (x) beta) = (mu T (x) beta) companion_D",
         ("D", ("mu_TD", "beta")), (("mu_T", "beta"), "companion_D")),
    ),
    "commuting": (
        ("correl1: mu T D = mu D T", ("mu", "T", "D"), ("mu", "D", "T")),
        _commutes("correl2: companion_D commutes with id (x) T",
                  "companion_D", ("id", "T")),
        _commutes("correl3: companion_D commutes with T (x) id",
                  "companion_D", ("T", "id")),
    ),
}


def compose_pseudotwistors(A: BiHomAssociativeAlgebra, Tw: WeakPseudotwistor,
                           Dw: WeakPseudotwistor, mode: str) -> WeakPseudotwistor:
    """The composite (T D, companion_T companion_D, id, id).

    mode="general" verifies the two interchange identities between D and the
    T-twisted multiplication; mode="commuting" verifies the three commutation
    identities of the corollary instead.  The hypotheses are never inferred;
    the caller picks the hypothesis set.
    """
    if mode not in COMPOSE_HYPOTHESES:
        raise ValueError(f"mode must be 'general' or 'commuting', got {mode!r}")
    n = A.dim
    _square_ok(n * n, T=Tw.T, D=Dw.T)
    _square_ok(n ** 3, companion_T=Tw.companion, companion_D=Dw.companion)
    ident = LinearMap.identity(A.field, n)
    for name, W in (("T", Tw), ("D", Dw)):
        if W.atilde != ident or W.btilde != ident:
            raise HypothesisViolated(
                f"composition needs identity atilde/btilde on {name}")
    mats = _twistor_mats(A, Tw)
    mats.update(id=ident, D=(Dw.T, (n, n)), companion_D=(Dw.companion, (n, n, n)))
    if mode == "general":
        mu_t = A.mu.as_matrix().compose(Tw.T)
        mats.update(mu_T=(mu_t, (n, n)), mu_TD=(mu_t.compose(Dw.T), (n, n)))
    _refuse(mats, COMPOSE_HYPOTHESES[mode], HypothesisViolated)
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
