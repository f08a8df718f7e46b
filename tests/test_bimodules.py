import random
from fractions import Fraction

import pytest

from bihomalg import (BiHomBimodule, FieldSpec, GRBOperator, LinearMap,
                      StructureTable, check_bihom_associative, check_bimodule,
                      check_dendriform, check_grb, check_rota_baxter,
                      evaluate_two_param_algebra, grb_hat, grb_to_dendriform,
                      grb_transpose_actions, split_null_extension,
                      yau_twist_bimodule)
from bihomalg.errors import (DimensionMismatch, InputAxiomsFail,
                             TwistHypothesisViolated)

Q = FieldSpec.rational()


def test_regular_bimodule_passes(qx3):
    M = BiHomBimodule.regular(qx3)
    assert check_bimodule(qx3, M).passed


def test_regular_bimodule_of_twisted_algebra():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    M = BiHomBimodule.regular(A)
    assert check_bimodule(A, M).passed


def test_zero_actions_bimodule(qx3):
    ident = LinearMap.identity(Q, 2)
    M = BiHomBimodule.zero_actions(qx3, ident, ident)
    assert check_bimodule(qx3, M).passed


def test_bimodule_shape_validation(qx3):
    ident = LinearMap.identity(Q, 2)
    with pytest.raises(DimensionMismatch):
        BiHomBimodule(qx3, ident, ident,
                      StructureTable.zero(Q, 2),
                      StructureTable.zero(Q, 2))


def test_broken_bimodule_reports(qx3):
    # a left action that ignores the algebra argument is not a module
    o, z = Q.one(), Q.zero()
    left = StructureTable(Q, tuple(
        tuple(tuple(o if k == j else z for k in range(2)) for j in range(2))
        for _ in range(3)))
    M = BiHomBimodule(qx3, LinearMap.identity(Q, 2), LinearMap.identity(Q, 2),
                      left, StructureTable.zero(Q, 2, 3, 2))
    rep = check_bimodule(qx3, M)
    assert not rep.passed
    assert "left_module" in rep.failed_axioms()


def test_split_null_extension_regular(qx3):
    M = BiHomBimodule.regular(qx3)
    E = split_null_extension(qx3, M)
    assert E.dim == 6
    assert check_bihom_associative(E).passed


def test_split_null_extension_converse(qx3):
    # associativity of the extension fails exactly when the data is not a
    # bimodule; build a broken module and verify the unchecked extension fails
    o, z = Q.one(), Q.zero()
    left = StructureTable(Q, tuple(
        tuple(tuple(o if k == j else z for k in range(2)) for j in range(2))
        for _ in range(3)))
    M = BiHomBimodule(qx3, LinearMap.identity(Q, 2), LinearMap.identity(Q, 2),
                      left, StructureTable.zero(Q, 2, 3, 2))
    with pytest.raises(InputAxiomsFail):
        split_null_extension(qx3, M)
    E = split_null_extension(qx3, M, check=False)
    assert not check_bihom_associative(E).passed


def test_yau_twist_bimodule_scaling(qx3):
    M = BiHomBimodule.regular(qx3)
    c = LinearMap(Q, ((Q.one(), Q.zero(), Q.zero()),
                      (Q.zero(), Q.from_int(2), Q.zero()),
                      (Q.zero(), Q.zero(), Q.from_int(4))))
    M2 = yau_twist_bimodule(qx3, M, c, c, c, c)
    assert check_bimodule(M2.algebra, M2).passed
    # the twisted regular bimodule is the regular bimodule of the twisted algebra
    assert M2.left_action == M2.algebra.mu
    assert M2.right_action == M2.algebra.mu


def test_yau_twist_bimodule_rejects_incompatible(qx3):
    M = BiHomBimodule.regular(qx3)
    c = LinearMap(Q, ((Q.one(), Q.zero(), Q.zero()),
                      (Q.zero(), Q.from_int(2), Q.zero()),
                      (Q.zero(), Q.zero(), Q.from_int(4))))
    ident = LinearMap.identity(Q, 3)
    with pytest.raises(TwistHypothesisViolated):
        yau_twist_bimodule(qx3, M, c, c, ident, ident)


def test_grb_regular_equals_rota_baxter(qx3, qx3_rb):
    # on the regular bimodule a generalized operator is exactly a weight-0
    # Rota-Baxter operator
    M = BiHomBimodule.regular(qx3)
    pi = GRBOperator(qx3_rb.map)
    rep = check_grb(qx3, M, pi)
    assert rep.passed
    assert rep.sub_checks["commutes_alpha"]


def test_grb_zero_actions_criterion(qx3):
    # with zero actions, pi is generalized Rota-Baxter iff mu(pi x, pi y) = 0
    ident = LinearMap.identity(Q, 2)
    M = BiHomBimodule.zero_actions(qx3, ident, ident)
    z, o = Q.zero(), Q.one()
    # image inside span(x, x^2): products land in x^2, x^3 = 0 except x*x
    pi_bad = GRBOperator(LinearMap(Q, ((z, z), (o, z), (z, o))))
    assert not check_grb(qx3, M, pi_bad).passed
    # image inside span(x^2): all products vanish
    pi_good = GRBOperator(LinearMap(Q, ((z, z), (z, z), (o, o))))
    assert check_grb(qx3, M, pi_good).passed


def test_grb_hat_equivalence(qx3, qx3_rb):
    M = BiHomBimodule.regular(qx3)
    for pi_map in (qx3_rb.map, LinearMap.identity(Q, 3)):
        pi = GRBOperator(pi_map)
        hat = grb_hat(qx3, M, pi)
        E = split_null_extension(qx3, M)
        assert check_grb(qx3, M, pi).passed == check_rota_baxter(E, hat).passed
    hat = grb_hat(qx3, M, GRBOperator(qx3_rb.map))
    assert hat.map.compose(hat.map).is_zero()  # hat has square zero


def test_grb_hat_rejects_a_misshapen_pi(qx3):
    # pi maps the 2-dimensional module into A, so it must be 3 x 2
    ident = LinearMap.identity(Q, 2)
    M = BiHomBimodule.zero_actions(qx3, ident, ident)
    with pytest.raises(DimensionMismatch, match="pi must map M into A"):
        grb_hat(qx3, M, GRBOperator(LinearMap.identity(Q, 3)))


def test_grb_to_dendriform(qx3, qx3_rb):
    M = BiHomBimodule.regular(qx3)
    pi = GRBOperator(qx3_rb.map)
    D = grb_to_dendriform(M, pi)
    assert check_dendriform(D).passed
    # on the regular bimodule this is the derived dendriform structure
    assert D.prec == qx3.mu.compose_right(qx3_rb.map)
    assert D.succ == qx3.mu.compose_left(qx3_rb.map)
    with pytest.raises(InputAxiomsFail):
        grb_to_dendriform(M, GRBOperator(LinearMap.identity(Q, 3)))


def test_grb_transpose_actions(qx3, qx3_rb):
    M = BiHomBimodule.regular(qx3)
    pi = GRBOperator(qx3_rb.map)
    module, ext = grb_transpose_actions(qx3, M, pi)
    assert check_bihom_associative(module.algebra).passed
    assert check_bimodule(module.algebra, module).passed
    assert check_bihom_associative(ext).passed
    assert ext.dim == 6


def random_prime_algebra(p, dim, rng):
    """A commutative associative algebra from a random idempotent-diagonal
    table: e_i e_j = d_i d_j e_k(i,j) with nilpotent tail, built to satisfy
    associativity by construction (monomial products)."""
    f = FieldSpec.prime(p)
    zero = f.zero()
    # monoid multiplication on {0..dim-1}: i*j = min(i+j, dim-1) with the top
    # element absorbing to zero gives k[x]/(x^dim) up to relabeling
    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i + j < dim:
                constants[i][j][i + j] = f.one()
    table = StructureTable(f, tuple(
        tuple(tuple(col) for col in row) for row in constants))
    from bihomalg import BiHomAssociativeAlgebra
    return BiHomAssociativeAlgebra.associative(f, table)


def test_randomized_zero_action_bimodules():
    rng = random.Random(7)
    for p in (2, 3):
        f = FieldSpec.prime(p)
        A = random_prime_algebra(p, 3, rng)
        ident = LinearMap.identity(f, 2)
        M = BiHomBimodule.zero_actions(A, ident, ident)
        assert check_bimodule(A, M).passed
        for _ in range(6):
            entries = tuple(tuple(f.from_int(rng.randrange(p))
                                  for _ in range(2)) for _ in range(3))
            pi = GRBOperator(LinearMap(f, entries))
            rep = check_grb(A, M, pi)
            hat = grb_hat(A, M, pi)
            E = split_null_extension(A, M)
            assert rep.passed == check_rota_baxter(E, hat).passed
