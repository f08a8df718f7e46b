"""Bimodules over BiHom-associative algebras, split null extensions, Yau
twists of bimodules, and generalized Rota-Baxter operators (maps from the
module into the algebra satisfying the Rota-Baxter identity through the
actions).

Actions are rectangular structure tables with an explicit operand order:
left_action is A (x) M -> M and right_action is M (x) A -> M.  A map after
pi (x) id or id (x) pi is composed in place (linalg._compose_kron).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, TwistHypothesisViolated
from .linalg import LinearMap, StructureTable, _compose_kron, _join, _shifted, block_diag
from .rota_baxter import RBOperator
from .structures import (BiHomAssociativeAlgebra, BiHomDendriform, CheckReport,
                         DEFAULT_VIOLATION_CAP, _TWIST_PAIRS, _check_axioms,
                         _commutes, _compatible, _refuse, _square_ok,
                         _structure_mats, require, yau_twist)


@dataclass(frozen=True)
class BiHomBimodule:
    """A bimodule (M, alpha_M, beta_M) over the algebra held in `algebra`."""

    algebra: BiHomAssociativeAlgebra
    alpha_M: LinearMap
    beta_M: LinearMap
    left_action: StructureTable   # A (x) M -> M
    right_action: StructureTable  # M (x) A -> M

    def __post_init__(self):
        n, m = self.algebra.dim, self.dim
        if (self.left_action.dim_left, self.left_action.dim_right,
                self.left_action.dim_out) != (n, m, m):
            raise DimensionMismatch("left_action must be A (x) M -> M")
        if (self.right_action.dim_left, self.right_action.dim_right,
                self.right_action.dim_out) != (m, n, m):
            raise DimensionMismatch("right_action must be M (x) A -> M")

    @property
    def dim(self) -> int:
        return self.alpha_M.rows

    @staticmethod
    def regular(A: BiHomAssociativeAlgebra) -> "BiHomBimodule":
        """M = A with both actions the multiplication."""
        return BiHomBimodule(A, A.alpha, A.beta, A.mu, A.mu)

    @staticmethod
    def zero_actions(A: BiHomAssociativeAlgebra, alpha_M: LinearMap,
                     beta_M: LinearMap) -> "BiHomBimodule":
        m = alpha_M.rows
        return BiHomBimodule(A, alpha_M, beta_M,
                             StructureTable.zero(A.field, A.dim, m, m),
                             StructureTable.zero(A.field, m, A.dim, m))


@dataclass(frozen=True)
class GRBOperator:
    """A map pi: M -> A, stored as an n x m matrix."""

    map: LinearMap


BIMODULE_AXIOMS = (
    _commutes("alphaM_betaM_commute", "alpha_M", "beta_M"),
    _compatible("alphaM_left_compat", "alpha_M", "L", "alpha", "alpha_M"),
    _compatible("betaM_left_compat", "beta_M", "L", "beta", "beta_M"),
    _compatible("alphaM_right_compat", "alpha_M", "R", "alpha_M", "alpha"),
    _compatible("betaM_right_compat", "beta_M", "R", "beta_M", "beta"),
    # alpha_A(a) . (a' . m) == (a a') . beta_M(m)
    ("left_module", ("L", ("alpha", "L")), ("L", ("mu", "beta_M"))),
    # alpha_M(m) . (a a') == (m . a) . beta_A(a')
    ("right_module", ("R", ("alpha_M", "mu")), ("R", ("R", "beta"))),
    # alpha_A(a) . (m . a') == (a . m) . beta_A(a')
    ("bimodule_middle", ("L", ("alpha", "R")), ("R", ("L", "beta"))),
)


def _bimodule_mats(A: BiHomAssociativeAlgebra, M: BiHomBimodule) -> dict:
    return {**_structure_mats(A), "alpha_M": M.alpha_M, "beta_M": M.beta_M,
            "L": M.left_action, "R": M.right_action}


def check_bimodule(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                   cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """All module axioms: commuting structure maps on M, the four alpha/beta
    compatibilities with the actions, the left and right module identities,
    and the middle bimodule identity (the rows of BIMODULE_AXIOMS)."""
    return _check_axioms(_bimodule_mats(A, M), BIMODULE_AXIOMS, cap)


def split_null_extension(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                         check: bool = True) -> BiHomAssociativeAlgebra:
    """The algebra on A (+) M with (a,m)(a',m') = (aa', m.a' + a.m').

    check=False skips the bimodule precondition, which lets the converse of
    the construction be exercised: the extension is BiHom-associative exactly
    when the data is a bimodule.
    """
    if check:
        require(check_bimodule(A, M), "split_null_extension")
    n, m = A.dim, M.dim
    d, mu, L, R = n + m, A.mu._d, M.left_action._d, M.right_action._d

    def column(i, j):
        """e_i e_j in A (+) M, where e_i lies in A when i < n."""
        if i < n:
            return mu[i * n + j] if j < n else _shifted(L[i * m + j - n], n)
        return _shifted(R[(i - n) * n + j], n) if j < n else {}

    table = StructureTable._of_cols(A.field, d, [column(i, j) for i in range(d)
                                                 for j in range(d)], d, d)
    return BiHomAssociativeAlgebra(A.field, table,
                                   block_diag(A.alpha, M.alpha_M),
                                   block_diag(A.beta, M.beta_M))


def yau_twist_bimodule(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                       atilde_A: LinearMap, btilde_A: LinearMap,
                       atilde_M: LinearMap, btilde_M: LinearMap) -> BiHomBimodule:
    """Twisted actions a |> m = atilde_A(a) . btilde_M(m) and
    m <| a = atilde_M(m) . btilde_A(a), over the Yau twist of A.

    The twist maps must be action-compatible endomorphisms that commute with
    each other and with the existing structure maps.
    """
    _square_ok(A.dim, atilde_A=atilde_A, btilde_A=btilde_A)
    _square_ok(M.dim, atilde_M=atilde_M, btilde_M=btilde_M)
    mats = {**_bimodule_mats(A, M), "atilde_A": atilde_A, "btilde_A": btilde_A,
            "atilde_M": atilde_M, "btilde_M": btilde_M}
    rows = [row for f in ("atilde", "btilde") for row in (
        _compatible(f"{f}_left_compat", f"{f}_M", "L", f"{f}_A", f"{f}_M"),
        _compatible(f"{f}_right_compat", f"{f}_M", "R", f"{f}_M", f"{f}_A"))]
    rows += [_commutes(f"{f}M_{g}M", f"{f}_M", f"{g}_M") for f, g in _TWIST_PAIRS]
    _refuse(mats, rows, TwistHypothesisViolated)
    twisted_A = yau_twist(A, atilde_A, btilde_A)  # validates the algebra side
    return BiHomBimodule(
        twisted_A,
        atilde_M.compose(M.alpha_M),
        btilde_M.compose(M.beta_M),
        M.left_action.twist(atilde_A, btilde_M),
        M.right_action.twist(atilde_M, btilde_A))


def _grb_products(M: BiHomBimodule, pi: GRBOperator) -> tuple[LinearMap, LinearMap]:
    """m > n = pi(m).n and m < n = m.pi(n) as maps M (x) M -> M: the
    matrices L and R of M's actions after pi (x) id and id (x) pi."""
    L, R = M.left_action.as_matrix(), M.right_action.as_matrix()
    ident = LinearMap.identity(pi.map.field, L.rows)
    return _compose_kron(L, pi.map, ident), _compose_kron(R, ident, pi.map)


def check_grb(A: BiHomAssociativeAlgebra, M: BiHomBimodule, pi: GRBOperator,
              cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    """pi(m)pi(n) == pi( pi(m).n + m.pi(n) ) on basis pairs of M.

    Commutation of pi with the structure maps (alpha_A pi = pi alpha_M and
    likewise for beta) is reported in sub_checks.
    """
    return _check_grb(A, M, pi, cap)[0]


def _check_grb(A, M, pi, cap=DEFAULT_VIOLATION_CAP):
    """check_grb's report, and the two products of _grb_products it read,
    which the constructors reuse for their tables."""
    n, m = A.dim, M.dim
    if (pi.map.rows, pi.map.cols) != (n, m):
        raise DimensionMismatch("pi must map M into A")
    succ, prec = _grb_products(M, pi)
    mats = {**_bimodule_mats(A, M), "pi": pi.map, "star": (succ + prec, (m, m))}
    # sub-checks: alpha_A pi = pi alpha_M, likewise beta
    commutes = [(f"commutes_{f}", (f, "pi"), ("pi", f"{f}_M")) for f in ("alpha", "beta")]
    return _check_axioms(mats, [("grb", ("mu", ("pi", "pi")), ("pi", "star"))],
                         cap, commutes), (succ, prec)


def grb_hat(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
            pi: GRBOperator) -> RBOperator:
    """pi_hat(a, m) = (pi(m), 0) on the split null extension; a weight-0
    Rota-Baxter operator there exactly when pi satisfies the generalized
    Rota-Baxter identity."""
    require(check_bimodule(A, M), "grb_hat")
    n, m = A.dim, M.dim
    if (pi.map.rows, pi.map.cols) != (n, m):
        raise DimensionMismatch("pi must map M into A")
    _join(A.field, pi.map.field)
    # (0 | pi) over a zero block: n empty columns, then pi's columns
    return RBOperator(LinearMap._of_cols(A.field, n + m, [{}] * n + list(pi.map._d)),
                      A.field.zero())


def _require_grb(A, M, pi, caller):
    """Refuse a pi that fails check_grb, as `caller`; else its two products,
    made once for the check and the caller's tables."""
    report, products = _check_grb(A, M, pi)
    require(report, caller, ("commutes_alpha", "commutes_beta"))
    return products


def grb_to_dendriform(M: BiHomBimodule, pi: GRBOperator,
                      check: bool = True) -> BiHomDendriform:
    """m > n = pi(m).n and m < n = m.pi(n), a dendriform structure on M."""
    A = M.algebra
    if check:
        succ, prec = _require_grb(A, M, pi, "grb_to_dendriform")
    else:
        succ, prec = _grb_products(M, pi)
    return BiHomDendriform(A.field,
                           StructureTable.from_matrix(A.field, prec, M.dim, M.dim),
                           StructureTable.from_matrix(A.field, succ, M.dim, M.dim),
                           M.alpha_M, M.beta_M)


def grb_transpose_actions(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                          pi: GRBOperator):
    """Make A a bimodule over (M, *_pi) via m ._pi a = pi(m)a - pi(m.a) and
    a ._pi m = a pi(m) - pi(a.m).  Returns (bimodule, its split null
    extension M |x A)."""
    succ, prec = _require_grb(A, M, pi, "grb_transpose_actions")
    n, m = A.dim, M.dim
    field = A.field
    mu, L, R = A.mu.as_matrix(), M.left_action.as_matrix(), M.right_action.as_matrix()
    id_n = LinearMap.identity(field, n)
    star = StructureTable.from_matrix(field, succ + prec, m, m)
    base = BiHomAssociativeAlgebra(field, star, M.alpha_M, M.beta_M)
    # left: M (x) A -> A, m ._pi a
    left = StructureTable.from_matrix(
        field, _compose_kron(mu, pi.map, id_n) - pi.map.compose(R), m, n)
    # right: A (x) M -> A, a ._pi m
    right = StructureTable.from_matrix(
        field, _compose_kron(mu, id_n, pi.map) - pi.map.compose(L), n, m)
    module = BiHomBimodule(base, A.alpha, A.beta, left, right)
    return module, split_null_extension(base, module)
