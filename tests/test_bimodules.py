import random
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, BiHomDendriform, FieldSpec,
                      GRBOperator, LinearMap,
                      StructureTable, check_bihom_associative, check_bimodule,
                      check_dendriform, check_grb, check_rota_baxter,
                      evaluate_two_param_algebra, grb_hat, grb_to_dendriform,
                      grb_transpose_actions, split_null_extension, tensor2,
                      yau_twist, yau_twist_bimodule)
from bihomalg.errors import (DimensionMismatch, InputAxiomsFail, SpecFileError,
                             TwistHypothesisViolated)
from bihomalg.bimodules import BIMODULE_AXIOMS, _bimodule_mats, _require_grb
from bihomalg.specfile import parse_spec, serialize
from bihomalg.structures import DEFAULT_VIOLATION_CAP, CheckReport
from conftest import (against_reference, counted, integration_rb, kernel_calls,
                      kron_skipped, kron_skipped_muls, raw_report,
                      truncated_poly_algebra)
from test_linalg import QAB, SPARSE_FIELDS, entry_pool, sparse_matrix, stored
from test_structures import _commute_check

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


def test_zero_actions_on_the_zero_module(qx3):
    """The right action M (x) A -> M of a zero module still has dims (0, 3, 0)."""
    M = BiHomBimodule.zero_actions(qx3, LinearMap.identity(Q, 0), LinearMap.identity(Q, 0))
    dims = [(t.dim_left, t.dim_right, t.dim_out) for t in (M.left_action, M.right_action)]
    assert dims == [(3, 0, 0), (0, 3, 0)]
    assert check_bimodule(qx3, M).passed
    assert split_null_extension(qx3, M) == qx3


def test_serialize_refuses_a_zero_dimension_with_parse_spec_s_message(qx3):
    """serialize used to write `"dim": 0` for the zero module, a file that
    parse_spec refuses; it now refuses first, so parse_spec reads back
    everything serialize writes.  A zero-dimensional structure likewise."""
    zero = LinearMap.identity(Q, 0)
    M = BiHomBimodule.zero_actions(qx3, zero, zero)
    with pytest.raises(SpecFileError, match=r"^bimodule\.dim: must be a positive integer$"):
        serialize({"structure": qx3, "bimodule": M})
    A0 = BiHomAssociativeAlgebra(Q, StructureTable.zero(Q, 0, 0, 0), zero, zero)
    with pytest.raises(SpecFileError, match=r"^dim: must be a positive integer$"):
        serialize({"structure": A0})
    M1 = BiHomBimodule.regular(qx3)
    assert parse_spec(serialize({"structure": qx3, "bimodule": M1}))["bimodule"] == M1


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


@pytest.mark.parametrize("name, composed", [
    ("grb_to_dendriform", 3), ("grb_transpose_actions", 15)])
def test_grb_constructors_make_the_products_once(name, composed, qx3, qx3_rb,
                                                 monkeypatch):
    """(tensor2, _compose_kron) calls on the regular bimodule of k[x]/(x^3).
    The check and the constructor's own tables read one pair of products
    L (pi (x) id) and R (id (x) pi), so each is composed once: making them
    again after the check costs 2 calls more (5 and 17)."""
    M, pi = BiHomBimodule.regular(qx3), GRBOperator(qx3_rb.map)
    run = {"grb_to_dendriform": lambda: grb_to_dendriform(M, pi),
           "grb_transpose_actions": lambda: grb_transpose_actions(qx3, M, pi)}[name]
    result, calls = kernel_calls(monkeypatch, run)
    assert result is not None and calls == (0, composed)


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


# -- the row tables find what the hand-written checkers found ---------------
#    check_bimodule, check_grb and yau_twist_bimodule as they were written
#    before BIMODULE_AXIOMS and the GRB and twist rows replaced them, kept
#    verbatim as the reference.

def ref_check_bimodule(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                       cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    rep = CheckReport(cap=cap)
    n, m = A.dim, M.dim
    L = M.left_action.as_matrix()    # m x (n*m)
    R = M.right_action.as_matrix()   # m x (m*n)
    mu = A.mu.as_matrix()
    aA, bA, aM, bM = A.alpha, A.beta, M.alpha_M, M.beta_M
    rep._compare("alphaM_betaM_commute", aM.compose(bM), bM.compose(aM), (m,))
    rep._compare("alphaM_left_compat", aM.compose(L),
                 L.compose(tensor2(aA, aM)), (n, m))
    rep._compare("betaM_left_compat", bM.compose(L),
                 L.compose(tensor2(bA, bM)), (n, m))
    rep._compare("alphaM_right_compat", aM.compose(R),
                 R.compose(tensor2(aM, aA)), (m, n))
    rep._compare("betaM_right_compat", bM.compose(R),
                 R.compose(tensor2(bM, bA)), (m, n))
    # alpha_A(a) . (a' . m) == (a a') . beta_M(m)
    rep._compare("left_module", L.compose(tensor2(aA, L)),
                 L.compose(tensor2(mu, bM)), (n, n, m))
    # alpha_M(m) . (a a') == (m . a) . beta_A(a')
    rep._compare("right_module", R.compose(tensor2(aM, mu)),
                 R.compose(tensor2(R, bA)), (m, n, n))
    # alpha_A(a) . (m . a') == (a . m) . beta_A(a')
    rep._compare("bimodule_middle", L.compose(tensor2(aA, R)),
                 R.compose(tensor2(L, bA)), (n, m, n))
    return rep


def _grb_products(M: BiHomBimodule, pi: GRBOperator) -> tuple[LinearMap, LinearMap]:
    """m > n = pi(m).n and m < n = m.pi(n) as maps M (x) M -> M."""
    ident = LinearMap.identity(pi.map.field, M.dim)
    return (M.left_action.as_matrix().compose(tensor2(pi.map, ident)),
            M.right_action.as_matrix().compose(tensor2(ident, pi.map)))


def ref_check_grb(A: BiHomAssociativeAlgebra, M: BiHomBimodule, pi: GRBOperator,
                  cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    n, m = A.dim, M.dim
    if (pi.map.rows, pi.map.cols) != (n, m):
        raise DimensionMismatch("pi must map M into A")
    rep = CheckReport(cap=cap)
    lhs = A.mu.as_matrix().compose(tensor2(pi.map, pi.map))
    succ, prec = _grb_products(M, pi)
    rep._compare("grb", lhs, pi.map.compose(succ + prec), (m, m))
    rep.sub_checks["commutes_alpha"] = \
        A.alpha.compose(pi.map) == pi.map.compose(M.alpha_M)
    rep.sub_checks["commutes_beta"] = \
        A.beta.compose(pi.map) == pi.map.compose(M.beta_M)
    return rep


def ref_yau_twist_bimodule(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                           atilde_A: LinearMap, btilde_A: LinearMap,
                           atilde_M: LinearMap, btilde_M: LinearMap) -> BiHomBimodule:
    L, R = M.left_action, M.right_action
    probe = CheckReport(cap=1)
    lm, rm = L.as_matrix(), R.as_matrix()
    n, m = A.dim, M.dim
    for tag, f_A, f_M in (("atilde", atilde_A, atilde_M),
                          ("btilde", btilde_A, btilde_M)):
        probe._compare(f"{tag}_left_compat", f_M.compose(lm),
                       lm.compose(tensor2(f_A, f_M)), (n, m))
        probe._compare(f"{tag}_right_compat", f_M.compose(rm),
                       rm.compose(tensor2(f_M, f_A)), (m, n))
    for tag, f, g in (("atildeM_btildeM", atilde_M, btilde_M),
                      ("atildeM_alphaM", atilde_M, M.alpha_M),
                      ("atildeM_betaM", atilde_M, M.beta_M),
                      ("btildeM_alphaM", btilde_M, M.alpha_M),
                      ("btildeM_betaM", btilde_M, M.beta_M)):
        _commute_check(probe, tag, f, g)
    if not probe.passed:
        raise TwistHypothesisViolated(", ".join(probe.failed_axioms()))
    twisted_A = yau_twist(A, atilde_A, btilde_A)  # validates the algebra side
    return BiHomBimodule(
        twisted_A,
        atilde_M.compose(M.alpha_M),
        btilde_M.compose(M.beta_M),
        L.twist(atilde_A, btilde_M),
        R.twist(atilde_M, btilde_A))


def maybe_identity(field, n):
    """The identity map, often, else a sparse random n x n map."""
    return st.one_of(st.just(LinearMap.identity(field, n)), sparse_matrix(field, n, n))


@st.composite
def random_algebra(draw, field, n):
    """A sparse random mu with alpha and beta the identity or sparse random."""
    mu = StructureTable.from_matrix(field, draw(sparse_matrix(field, n, n * n)), n, n)
    return BiHomAssociativeAlgebra(field, mu, draw(maybe_identity(field, n)),
                                   draw(maybe_identity(field, n)))


@st.composite
def random_bimodule(draw):
    """(A, M) over Q, F_5 or Q(a, b): the regular bimodule of a random
    algebra, or random actions with identity or random structure maps, so
    that some axioms hold and some fail.  Over Q(a, b) both dims are <= 2."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    top = 2 if field == QAB else 3
    n, m = draw(st.integers(1, top)), draw(st.integers(1, top))
    A = draw(random_algebra(field, n))
    if draw(st.booleans()):
        return A, BiHomBimodule.regular(A)
    return A, BiHomBimodule(
        A, draw(maybe_identity(field, m)), draw(maybe_identity(field, m)),
        StructureTable.from_matrix(field, draw(sparse_matrix(field, m, n * m)), n, m),
        StructureTable.from_matrix(field, draw(sparse_matrix(field, m, m * n)), m, n))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bimodule_rows_match_hand_written_property(data):
    A, M = data.draw(random_bimodule())
    cap = data.draw(st.sampled_from((16, 10 ** 6)))
    got, want, got_ops, want_ops = against_reference(
        check_bimodule, ref_check_bimodule, A, M, cap)
    assert raw_report(got) == raw_report(want)
    # each Kronecker factor is read once and composed in place
    skipped = kron_skipped_muls(_bimodule_mats(A, M), BIMODULE_AXIOMS)
    assert got_ops == (want_ops[0] - skipped, want_ops[1])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grb_rows_match_hand_written_property(data):
    A, M = data.draw(random_bimodule())
    pi = GRBOperator(data.draw(sparse_matrix(A.field, A.dim, M.dim)))
    got, want, got_ops, want_ops = against_reference(check_grb, ref_check_grb, A, M, pi)
    assert raw_report(got) == raw_report(want)
    # pi (x) pi is composed in place, and so are L after pi (x) id and R
    # after id (x) pi, which the reference builds
    rows = [("grb", ("mu", ("pi", "pi")), ("pi", "star"))]
    skipped = (kron_skipped_muls({"mu": A.mu, "pi": pi.map}, rows)
               + grb_products_skipped(M, pi))
    assert got_ops == (want_ops[0] - skipped, want_ops[1])


def grb_products_skipped(M: BiHomBimodule, pi: GRBOperator) -> int:
    """The muls of tensor2 that _grb_products never makes: L after
    pi (x) id and R after id (x) pi are composed in place."""
    ident = LinearMap.identity(pi.map.field, M.dim)
    return (kron_skipped(M.left_action.as_matrix(), pi.map, ident)
            + kron_skipped(M.right_action.as_matrix(), ident, pi.map))


# -- the constructors compose after pi (x) id and id (x) pi in place --------
#    grb_to_dendriform and grb_transpose_actions as they were written with
#    tensor2 then compose, kept as the reference.

def ref_grb_to_dendriform(M: BiHomBimodule, pi: GRBOperator) -> BiHomDendriform:
    A = M.algebra
    succ, prec = _grb_products(M, pi)
    return BiHomDendriform(A.field,
                           StructureTable.from_matrix(A.field, prec, M.dim, M.dim),
                           StructureTable.from_matrix(A.field, succ, M.dim, M.dim),
                           M.alpha_M, M.beta_M)


def ref_grb_transpose_actions(A: BiHomAssociativeAlgebra, M: BiHomBimodule,
                              pi: GRBOperator):
    _require_grb(A, M, pi, "grb_transpose_actions")
    n, m = A.dim, M.dim
    field = A.field
    mu, L, R = A.mu.as_matrix(), M.left_action.as_matrix(), M.right_action.as_matrix()
    id_n = LinearMap.identity(field, n)
    succ, prec = _grb_products(M, pi)
    star = StructureTable.from_matrix(field, succ + prec, m, m)
    base = BiHomAssociativeAlgebra(field, star, M.alpha_M, M.beta_M)
    left = StructureTable.from_matrix(
        field, mu.compose(tensor2(pi.map, id_n)) - pi.map.compose(R), m, n)
    right = StructureTable.from_matrix(
        field, mu.compose(tensor2(id_n, pi.map)) - pi.map.compose(L), n, m)
    module = BiHomBimodule(base, A.alpha, A.beta, left, right)
    return module, split_null_extension(base, module)


def raw_forms(x):
    """The maps and tables in x, a record or a tuple opened field by field,
    as stored: rows, value types and reprs in dict order."""
    if isinstance(x, (LinearMap, StructureTable)):
        return stored(x)
    if isinstance(x, tuple):
        return [raw_forms(y) for y in x]
    if is_dataclass(x):
        return [raw_forms(getattr(x, f.name)) for f in fields(x)]
    return x


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grb_to_dendriform_matches_tensor2_then_compose_property(data):
    A, M = data.draw(random_bimodule())
    pi = GRBOperator(data.draw(sparse_matrix(A.field, A.dim, M.dim)))
    got, want, got_ops, want_ops = against_reference(
        partial(grb_to_dendriform, check=False), ref_grb_to_dendriform, M, pi)
    assert isinstance(want, BiHomDendriform) and got == want
    assert raw_forms(got) == raw_forms(want)
    assert got_ops == (want_ops[0] - grb_products_skipped(M, pi), want_ops[1])


@st.composite
def grb_instance(draw):
    """(A, M, pi) with pi a generalized Rota-Baxter operator, over Q, F_5 or
    Q(a, b), on A = k[x]/(x^3): c R on the regular bimodule, R the
    integration operator (the identity is homogeneous in pi, so any c
    serves), or, on a 2-dim module with zero actions, a pi into span{x^2},
    whose square is zero."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    A = truncated_poly_algebra(field, 3)
    nonzero = st.sampled_from(entry_pool(field)[1])
    if draw(st.booleans()):
        c = draw(nonzero)
        return A, BiHomBimodule.regular(A), GRBOperator(integration_rb(field, 3).map.scale(c))
    ident, zero = LinearMap.identity(field, 2), field.zero()
    top = tuple(draw(st.one_of(nonzero, st.just(zero))) for _ in range(2))
    return (A, BiHomBimodule.zero_actions(A, ident, ident),
            GRBOperator(LinearMap(field, ((zero, zero), (zero, zero), top))))


@settings(max_examples=30, deadline=None)
@given(grb_instance())
def test_grb_transpose_actions_matches_tensor2_then_compose_property(instance):
    """The module tables and the extension, in values, types and dict
    order; A's multiplication after pi (x) id and id (x) pi is composed in
    place.  L and R after pi (x) id and id (x) pi are made once, for the
    check and the tables: the reference checks through _require_grb and
    then makes them again with tensor2, every operation of which is more."""
    A, M, pi = instance
    got, want, got_ops, want_ops = against_reference(
        grb_transpose_actions, ref_grb_transpose_actions, A, M, pi)
    assert isinstance(want, tuple) and got == want
    assert raw_forms(got) == raw_forms(want)
    mu, id_n = A.mu.as_matrix(), LinearMap.identity(A.field, A.dim)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, (again_muls, again_adds) = counted(monkeypatch, _grb_products, M, pi)
    skipped = (again_muls + kron_skipped(mu, pi.map, id_n)
               + kron_skipped(mu, id_n, pi.map))
    assert got_ops == (want_ops[0] - skipped, want_ops[1] - again_adds)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_yau_twist_bimodule_rows_match_hand_written_property(data):
    """With zero actions every map is action-compatible, so the commutation
    rows decide."""
    A, M = data.draw(random_bimodule())
    n, m, field = A.dim, M.dim, A.field
    if data.draw(st.booleans()):
        M = BiHomBimodule.zero_actions(A, M.alpha_M, M.beta_M)
    twists = [data.draw(maybe_identity(field, k)) for k in (n, n, m, m)]
    got, want, got_ops, want_ops = against_reference(
        yau_twist_bimodule, ref_yau_twist_bimodule, A, M, *twists)
    assert got == want
    assert got_ops[0] <= want_ops[0] and got_ops[1] <= want_ops[1]


def test_yau_twist_bimodule_names_the_first_failing_hypothesis(qx3):
    # every map is compatible with zero actions, and atilde_M commutes with
    # btilde_M = id but with neither alpha_M nor beta_M
    o, z = Q.one(), Q.zero()
    shear = LinearMap(Q, ((o, o), (z, o)))
    M = BiHomBimodule.zero_actions(qx3, shear, shear)
    ident = LinearMap.identity(Q, 3)
    with pytest.raises(TwistHypothesisViolated, match="^atildeM_alphaM$"):
        yau_twist_bimodule(qx3, M, ident, ident, LinearMap(Q, ((o, z), (o, o))),
                           LinearMap.identity(Q, 2))
