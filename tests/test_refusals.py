"""Every refusing constructor names what failed: InputAxiomsFail.which is
pinned per constructor, since the CLI prints it verbatim on stderr, and so
is the DimensionMismatch that names a wrong-size argument."""

from fractions import Fraction

import pytest

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, BiHomDendriform,
                      BiHomQuadri, BiHomTridendriform, FieldSpec, GRBOperator,
                      LinearMap, OneSidedBaxter, RBOperator, StructureTable,
                      WeakPseudotwistor, baxter_pair_product,
                      baxter_pair_pseudotwistor, commuting_pair_quadri,
                      compose_pseudotwistors,
                      evaluate_rb_family, evaluate_two_param_algebra, grb_hat,
                      grb_to_dendriform, grb_transpose_actions,
                      quadri_projections, rb_dendriform_to_quadri, rb_derive,
                      rb_double_product, rb_pseudotwistor, split_null_extension,
                      tensor_quadri, total_product, tridend_to_dend,
                      twisted_algebra, yau_twist, yau_twist_bimodule)
from bihomalg.errors import DimensionMismatch, InputAxiomsFail
from conftest import integration_rb, truncated_poly_algebra

Q = FieldSpec.rational()
Z, O = Q.zero(), Q.one()

QX3 = truncated_poly_algebra(Q, 3)
QX2 = truncated_poly_algebra(Q, 2)
R3 = integration_rb(Q, 3)
ID3 = LinearMap.identity(Q, 3)
ID2 = LinearMap.identity(Q, 2)
DEND = tridend_to_dend(rb_derive(QX3, R3))
SWAPPED = BiHomDendriform(Q, DEND.succ, DEND.prec, DEND.alpha, DEND.beta)
ZERO_RB3 = RBOperator(LinearMap.zero_map(Q, 3, 3), Z)
ID_RB3 = RBOperator(ID3, Z)

# a weight-0 Rota-Baxter operator on the (2, 3) two-parameter algebra that
# does not commute with its alpha and beta
TWO_PARAM = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
NONCOMMUTING_RB = evaluate_rb_family(
    "w0f1", {"a": Fraction(2), "b": Fraction(3), "r": Fraction(5)})

# on k[x]/(x^2): E11 is right Baxter, E12 is left Baxter, and they do not
# commute; multiplication by 1 + x is one-sided Baxter on k[x]/(x^3) but does
# not commute with the grading map diag(1, 2, 4)
E11 = LinearMap(Q, ((O, Z), (Z, Z)))
E12 = LinearMap(Q, ((Z, O), (Z, Z)))
MUL_1X = LinearMap(Q, ((O, Z, Z), (O, O, Z), (Z, O, O)))
GRADED = BiHomAssociativeAlgebra(
    Q, QX3.mu, LinearMap(Q, ((O, Z, Z), (Z, Q.from_int(2), Z),
                             (Z, Z, Q.from_int(4)))), ID3)

BAD_TRIDEND = BiHomTridendriform(
    Q, *(StructureTable.zero(Q, 2),) * 3,
    LinearMap(Q, ((O, O), (O, Z))), LinearMap(Q, ((Z, O), (O, O))))
BAD_QUADRI = BiHomQuadri(Q, DEND.succ, DEND.prec, DEND.succ, DEND.prec,
                         ID3, ID3)

# a left action that ignores the algebra argument is not a module
BROKEN_MODULE = BiHomBimodule(
    QX3, ID2, ID2,
    StructureTable(Q, tuple(
        tuple(tuple(O if k == j else Z for k in range(2)) for j in range(2))
        for _ in range(3))),
    StructureTable.zero(Q, 2, 3, 2))


def _swap_twistor(n):
    entries = [[Z] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            entries[j * n + i][i * n + j] = O
    ident = LinearMap.identity(Q, n)
    return WeakPseudotwistor(LinearMap(Q, tuple(tuple(r) for r in entries)),
                             LinearMap.identity(Q, n ** 3), ident, ident)


def _identity_twistor(square, cube):
    """Identity T and companion of sizes square and cube, with the dim-2
    identity as atilde and btilde."""
    return WeakPseudotwistor(LinearMap.identity(Q, square),
                             LinearMap.identity(Q, cube), ID2, ID2)


CASES = {
    "tridend_to_dend": (
        lambda: tridend_to_dend(BAD_TRIDEND),
        "tridend_to_dend: alpha_beta_commute"),
    "total_product": (
        lambda: total_product(SWAPPED),
        "total_product: dend_prec, dend_succ"),
    "quadri_projections": (
        lambda: quadri_projections(BAD_QUADRI),
        "quadri_projections: quadri_11a, quadri_11b, quadri_12a, quadri_12b, "
        "quadri_13b, quadri_14a, quadri_14b, quadri_15"),
    "tensor_quadri_left": (
        lambda: tensor_quadri(SWAPPED, DEND),
        "tensor_quadri (left factor): dend_prec, dend_succ"),
    "tensor_quadri_right": (
        lambda: tensor_quadri(DEND, SWAPPED),
        "tensor_quadri (right factor): dend_prec, dend_succ"),
    "rb_derive_identity": (
        lambda: rb_derive(QX3, ID_RB3),
        "rb_derive: rota_baxter"),
    "rb_derive_commutation": (
        lambda: rb_derive(TWO_PARAM, NONCOMMUTING_RB),
        "rb_derive: commutes_alpha"),
    "rb_double_product": (
        lambda: rb_double_product(QX3, ID_RB3),
        "rb_double_product: rota_baxter"),
    "rb_dendriform_to_quadri_operator": (
        lambda: rb_dendriform_to_quadri(DEND, ID_RB3),
        "rb_dendriform_to_quadri: rb_dendriform_succ, rb_dendriform_prec"),
    "rb_dendriform_to_quadri_dendriform": (
        lambda: rb_dendriform_to_quadri(SWAPPED, ZERO_RB3),
        "rb_dendriform_to_quadri: dend_prec, dend_succ"),
    "commuting_pair_quadri_weight": (
        lambda: commuting_pair_quadri(QX3, R3, RBOperator(ID3, O)),
        "commuting_pair_quadri: weight of P is nonzero"),
    "commuting_pair_quadri_rota_baxter": (
        lambda: commuting_pair_quadri(QX3, R3, ID_RB3),
        "commuting_pair_quadri: rota_baxter (P)"),
    "commuting_pair_quadri_commutation": (
        lambda: commuting_pair_quadri(TWO_PARAM, NONCOMMUTING_RB,
                                      NONCOMMUTING_RB),
        "commuting_pair_quadri: commutes_alpha (R)"),
    "commuting_pair_quadri_pair": (
        lambda: commuting_pair_quadri(
            QX3, R3, RBOperator(LinearMap(Q, ((Z, Z, Z), (Z, Z, Z), (Z, O, Z))),
                                Z)),
        "commuting_pair_quadri: R and P do not commute"),
    "baxter_pair_product_sides": (
        lambda: baxter_pair_product(QX3, OneSidedBaxter(ID3, "left"),
                                    OneSidedBaxter(ID3, "left")),
        "baxter_pair_product: need a (right, left) pair"),
    "baxter_pair_product_baxter": (
        lambda: baxter_pair_product(QX3, OneSidedBaxter(R3.map, "right"),
                                    OneSidedBaxter(ID3, "left")),
        "baxter_pair_product: right_baxter (P)"),
    "baxter_pair_product_alpha": (
        lambda: baxter_pair_product(GRADED, OneSidedBaxter(MUL_1X, "right"),
                                    OneSidedBaxter(ID3, "left")),
        "baxter_pair_product: P does not commute with alpha"),
    "baxter_pair_product_pair": (
        lambda: baxter_pair_product(QX2, OneSidedBaxter(E11, "right"),
                                    OneSidedBaxter(E12, "left")),
        "baxter_pair_product: P and Q do not commute"),
    "baxter_pair_pseudotwistor_sides": (
        lambda: baxter_pair_pseudotwistor(QX3, OneSidedBaxter(ID3, "left"),
                                          OneSidedBaxter(ID3, "left")),
        "baxter_pair_pseudotwistor: need a (right, left) pair"),
    "baxter_pair_pseudotwistor_baxter": (
        lambda: baxter_pair_pseudotwistor(QX3, OneSidedBaxter(ID3, "right"),
                                          OneSidedBaxter(R3.map, "left")),
        "baxter_pair_pseudotwistor: left_baxter (Q)"),
    "baxter_pair_pseudotwistor_pair": (
        lambda: baxter_pair_pseudotwistor(QX2, OneSidedBaxter(E11, "right"),
                                          OneSidedBaxter(E12, "left")),
        "baxter_pair_pseudotwistor: P and Q do not commute"),
    "split_null_extension": (
        lambda: split_null_extension(QX3, BROKEN_MODULE),
        "split_null_extension: left_module"),
    "grb_hat": (
        lambda: grb_hat(QX3, BROKEN_MODULE, GRBOperator(R3.map)),
        "grb_hat: left_module"),
    "grb_to_dendriform": (
        lambda: grb_to_dendriform(BiHomBimodule.regular(QX3), GRBOperator(ID3)),
        "grb_to_dendriform: grb"),
    "grb_transpose_actions": (
        lambda: grb_transpose_actions(TWO_PARAM, BiHomBimodule.regular(TWO_PARAM),
                                      GRBOperator(NONCOMMUTING_RB.map)),
        "grb_transpose_actions: commutes_alpha"),
    "twisted_algebra": (
        lambda: twisted_algebra(QX3, _swap_twistor(3)),
        "twisted_algebra: weak_1, weak_2"),
    "rb_pseudotwistor": (
        lambda: rb_pseudotwistor(TWO_PARAM, NONCOMMUTING_RB),
        "rb_pseudotwistor: commutes_alpha"),
    # a wrong-size argument is refused, by name, before any composition
    "yau_twist_size": (
        lambda: yau_twist(QX2, ID3, ID2),
        DimensionMismatch("atilde is 3x3, not 2x2")),
    "yau_twist_bimodule_size": (
        lambda: yau_twist_bimodule(QX2, BiHomBimodule.regular(QX2), ID2, ID2, ID2, ID3),
        DimensionMismatch("btilde_M is 3x3, not 2x2")),
    "compose_pseudotwistors_D": (
        lambda: compose_pseudotwistors(QX2, _swap_twistor(2),
                                       _identity_twistor(5, 8), "general"),
        DimensionMismatch("D is 5x5, not 4x4")),
    "compose_pseudotwistors_companion_D": (
        lambda: compose_pseudotwistors(QX2, _swap_twistor(2),
                                       _identity_twistor(4, 4), "commuting"),
        DimensionMismatch("companion_D is 4x4, not 8x8")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal_names_what_failed(case):
    """A case pins InputAxiomsFail.which and its message, or the type and
    message of the DimensionMismatch it expects."""
    build, want = CASES[case]
    if isinstance(want, str):
        with pytest.raises(InputAxiomsFail) as info:
            build()
        assert info.value.which == want
        assert str(info.value) == f"input axioms fail: {want}"
    else:
        with pytest.raises(type(want)) as info:
            build()
        assert str(info.value) == str(want)
