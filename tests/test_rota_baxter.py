from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomDendriform, FieldSpec,
                      LinearMap, OneSidedBaxter, RBOperator,
                      Vector, baxter_pair_product,
                      check_bihom_associative, check_dendriform,
                      check_one_sided_baxter, check_rb_on_dendriform,
                      check_rota_baxter, check_tridendriform,
                      commuting_pair_quadri, check_quadri,
                      evaluate_two_param_algebra, evaluate_rb_family,
                      quadri_projections, rb_dendriform_to_quadri, rb_derive,
                      rb_double_product, rb_persists_under_twist,
                      total_product, tridend_to_dend, verify_parametric_family)
from bihomalg.errors import (DimensionMismatch, EvalSingular, FieldMismatch,
                             IncompleteAssignment, InputAxiomsFail, NonzeroWeight,
                             TwistHypothesisViolated)
from bihomalg.families import FAMILY_IDS, rb_family
from bihomalg.cli import main
from bihomalg.linalg import StructureTable, maps_commute, tensor2
from bihomalg.rota_baxter import (_double_product, _inner_map, _match,
                                  check_double_product_morphism)
from bihomalg.scalars import RATIONAL_FUNCTION
from bihomalg.structures import DEFAULT_VIOLATION_CAP, CheckReport
from conftest import (against_reference, integration_rb, kron_skipped_muls,
                      raw_report, truncated_poly_algebra)
from test_linalg import entry_pool, sparse_matrix
from test_structures import _commute_check, random_structure

DATA = Path(__file__).resolve().parent / "data"

Q = FieldSpec.rational()


def two_param_at_23():
    return evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})


def test_weight0_family_passes_at_point():
    A = two_param_at_23()
    R = evaluate_rb_family("w0f1", {"a": Fraction(2), "b": Fraction(3),
                                    "r": Fraction(5)})
    assert check_rota_baxter(A, R).passed


def test_negated_identity_weight_one():
    A = two_param_at_23()
    R = RBOperator(LinearMap.identity(Q, 2).scale(Q.from_int(-1)), Q.one())
    rep = check_rota_baxter(A, R)
    assert rep.passed
    assert rep.sub_checks["commutes_alpha"]
    assert rep.sub_checks["commutes_beta"]


def test_zero_operator_any_weight():
    A = two_param_at_23()
    for lam in (0, 1, 7):
        R = RBOperator(LinearMap.zero_map(Q, 2, 2), Q.from_int(lam))
        assert check_rota_baxter(A, R).passed


def test_all_families_symbolic():
    for fid in ("w0f1", "w0f2", "w1f1", "w1f2", "w1f3", "w1f4"):
        assert verify_parametric_family(fid, "symbolic").passed, fid


def test_family_sampled_mode():
    rep = verify_parametric_family(
        "w1f3", "sampled", [{"a": 2, "b": 3}])
    assert rep.passed
    with pytest.raises(EvalSingular):
        verify_parametric_family(
            "w0f2", "sampled", [{"a": 2, "b": 3, "r1": 1, "r2": 0}])


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_family_sampled_mode_refuses_a_zero_or_missing(fid):
    # the algebra's evaluation refuses both, as it does for the family's own
    # parameters: a = 0 is singular, a missing is an incomplete assignment
    params = {"b": 3, "r": 5, "r1": 1, "r2": 2}
    with pytest.raises(EvalSingular):
        verify_parametric_family(fid, "sampled", [{"a": 0, **params}])
    with pytest.raises(IncompleteAssignment):
        verify_parametric_family(fid, "sampled", [params])


def test_family_ids_keep_their_order():
    assert FAMILY_IDS == ("w0f1", "w0f2", "w1f1", "w1f2", "w1f3", "w1f4")


@pytest.mark.parametrize("fid, params, error, message", [
    ("w9", {}, ValueError, "unknown family 'w9'; pick one of "
                           "('w0f1', 'w0f2', 'w1f1', 'w1f2', 'w1f3', 'w1f4')"),
    ("w0f1", {"r1": Q.one(), "r2": Q.one()}, ValueError, "family w0f1 needs r"),
    ("w1f2", {}, ValueError, "family w1f2 needs r"),
    ("w0f2", {"r": Q.one(), "r1": Q.one()}, ValueError, "family w0f2 needs r1 and r2"),
    # a missing parameter is refused before a zero r2
    ("w1f4", {"r2": Q.zero()}, ValueError, "family w1f4 needs r1 and r2"),
    ("w1f4", {"r1": Q.one(), "r2": Q.zero()}, ZeroDivisionError,
     "the parameter r2 must be nonzero"),
], ids=["unknown", "w0f1-without-r", "w1f2-without-r", "w0f2-without-r2",
        "w1f4-without-r1", "w1f4-r2-zero"])
def test_rb_family_refusals(fid, params, error, message):
    with pytest.raises(error) as info:
        rb_family(fid, Q, **params)
    assert type(info.value) is error and str(info.value) == message


def test_w1f3_needs_no_parameter():
    R = rb_family("w1f3", Q)
    assert R == RBOperator(LinearMap.identity(Q, 2).scale(-Q.one()), Q.one())


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_an_evaluated_family_has_weight_zero_or_one_over_q(fid):
    R = evaluate_rb_family(fid, {"r": Fraction(5), "r1": Fraction(1), "r2": Fraction(2)})
    want = Q.zero() if fid.startswith("w0") else Q.one()
    assert (R.weight.field, type(R.weight.value), R.weight.value) == (
        Q, type(want.value), want.value)


def test_rb_derive_tables_without_commutation():
    # on the two-parameter algebra at a=2, b=3 the r=5 weight-0 operator does
    # not commute with alpha/beta, so the guarded constructor refuses; the
    # raw tables are still well defined and match a hand expansion
    A = two_param_at_23()
    R = evaluate_rb_family("w0f1", {"a": Fraction(2), "b": Fraction(3),
                                    "r": Fraction(5)})
    rep = check_rota_baxter(A, R)
    assert rep.passed and not rep.sub_checks["commutes_alpha"]
    with pytest.raises(InputAxiomsFail):
        rb_derive(A, R)
    T = rb_derive(A, R, check=False)
    # e2 < e2 = mu(e2, R(e2)) = mu(e2, 5 e1) = 5(-(3/2) e1 + 2 e2)
    assert T.prec.apply_basis(1, 1) == Vector(
        Q, (Q.from_fraction(Fraction(-15, 2)), Q.from_int(10)))
    assert T.dot.is_zero()


def test_rb_derive_closure(qx3, qx3_rb):
    T = rb_derive(qx3, qx3_rb)
    assert check_tridendriform(T).passed
    assert T.dot.is_zero()
    D2 = rb_double_product(qx3, qx3_rb)
    assert check_bihom_associative(D2).passed
    assert D2.mu == total_product(T).mu


def test_weight_one_derivation():
    # R = -id has weight 1 and commutes with everything
    A = two_param_at_23()
    R = RBOperator(LinearMap.identity(Q, 2).scale(Q.from_int(-1)), Q.one())
    T = rb_derive(A, R)
    assert check_tridendriform(T).passed
    assert not T.dot.is_zero()
    D = tridend_to_dend(T)
    assert check_dendriform(D).passed
    # double product x*y = -xy - xy + xy = -xy
    star = rb_double_product(A, R)
    assert star.mu == A.mu.scale(Q.from_int(-1))


def test_double_product_morphism(qx3, qx3_rb):
    assert check_double_product_morphism(qx3, qx3_rb).passed


def test_rb_on_dendriform_zero_and_identity(qx3, qx3_rb):
    D = tridend_to_dend(rb_derive(qx3, qx3_rb))
    zero = RBOperator(LinearMap.zero_map(Q, 3, 3), Q.zero())
    assert check_rb_on_dendriform(D, zero).passed
    ident = RBOperator(LinearMap.identity(Q, 3), Q.zero())
    assert not check_rb_on_dendriform(D, ident).passed  # factor-of-two failure
    with pytest.raises(NonzeroWeight):
        check_rb_on_dendriform(D, RBOperator(LinearMap.zero_map(Q, 3, 3),
                                             Q.one()))


def test_rb_on_dendriform_refuses_a_weight_from_another_field():
    """A weight over another field is refused as check_rota_baxter refuses
    it, even a zero one, after the dimension test and before the weight's
    value is read."""
    F5 = FieldSpec.prime(5)
    one, zero = F5.one(), F5.zero()
    D = BiHomDendriform(F5, *[StructureTable.zero(F5, 2)] * 2,
                        LinearMap.identity(F5, 2), LinearMap.identity(F5, 2))
    A = BiHomAssociativeAlgebra.associative(F5, StructureTable.zero(F5, 2))
    R = RBOperator(LinearMap.zero_map(F5, 2, 2), Q.zero())
    with pytest.raises(FieldMismatch) as want:
        check_rota_baxter(A, R)
    for build in (check_rb_on_dendriform, rb_dendriform_to_quadri):
        with pytest.raises(FieldMismatch) as got:
            build(D, R)
        assert str(got.value) == str(want.value)
    for weight in (Q.one(), FieldSpec.prime(7).zero()):
        with pytest.raises(FieldMismatch):
            check_rb_on_dendriform(D, RBOperator(R.map, weight))
    with pytest.raises(DimensionMismatch):
        check_rb_on_dendriform(D, RBOperator(LinearMap.zero_map(F5, 3, 3), Q.one()))
    with pytest.raises(NonzeroWeight):
        check_rb_on_dendriform(D, RBOperator(R.map, one))
    assert check_rb_on_dendriform(D, RBOperator(R.map, zero)).passed


def test_rb_acts_on_its_own_dendriform(qx3, qx3_rb):
    # R commutes with itself, so it is a weight-0 RB operator on the derived
    # dendriform structure
    D = tridend_to_dend(rb_derive(qx3, qx3_rb))
    assert check_rb_on_dendriform(D, qx3_rb).passed


def test_quadri_from_dendriform(qx3, qx3_rb):
    D = tridend_to_dend(rb_derive(qx3, qx3_rb))
    Qd = rb_dendriform_to_quadri(D, qx3_rb)
    assert check_quadri(Qd).passed
    # wedge accessor: x wedge y = x * R(y)
    star = D.prec + D.succ
    assert Qd.wedge == star.compose_right(qx3_rb.map)
    # the vertical projection is the dendriform derived from R on (D, *)
    _, vert = quadri_projections(Qd)
    assert vert.prec == star.compose_right(qx3_rb.map)
    assert vert.succ == star.compose_left(qx3_rb.map)


def test_commuting_pair_quadri(qx3, qx3_rb):
    # P = R^2 is again weight-0 Rota-Baxter here and commutes with R
    P = RBOperator(qx3_rb.map.compose(qx3_rb.map), Q.zero())
    assert check_rota_baxter(qx3, P).passed
    Qd = commuting_pair_quadri(qx3, qx3_rb, P)
    assert check_quadri(Qd).passed
    # total product equals the four-term expansion
    mu = qx3.mu
    rp = qx3_rb.map.compose(P.map)
    expansion = (mu.compose_left(rp) + mu.twist(qx3_rb.map, P.map)
                 + mu.twist(P.map, qx3_rb.map) + mu.compose_right(rp))
    assert total_product(Qd).mu == expansion


def test_commuting_pair_self():
    A = truncated_poly_algebra(Q, 3)
    R = integration_rb(Q, 3)
    Qd = commuting_pair_quadri(A, R, R)
    # x nw y = x R(R(y))
    assert Qd.nw == A.mu.compose_right(R.map.compose(R.map))


def test_commuting_pair_rejects_noncommuting():
    A = truncated_poly_algebra(Q, 3)
    R = integration_rb(Q, 3)
    # a weight-0 RB operator that does not commute with R: x -> x^2, rest -> 0
    z, o = Q.zero(), Q.one()
    P = RBOperator(LinearMap(Q, ((z, z, z), (z, z, z), (z, o, z))), Q.zero())
    assert check_rota_baxter(A, P).passed
    with pytest.raises(InputAxiomsFail):
        commuting_pair_quadri(A, R, P)


def test_one_sided_baxter_examples(qx3):
    ident = LinearMap.identity(Q, 3)
    zero = LinearMap.zero_map(Q, 3, 3)
    for side in ("left", "right"):
        assert check_one_sided_baxter(qx3, OneSidedBaxter(zero, side)).passed
        assert check_one_sided_baxter(qx3, OneSidedBaxter(ident, side)).passed


def test_baxter_pair_product(qx3):
    ident = LinearMap.identity(Q, 3)
    P = OneSidedBaxter(ident, "right")
    Qp = OneSidedBaxter(ident, "left")
    assert baxter_pair_product(qx3, P, Qp).mu == qx3.mu
    zero = OneSidedBaxter(LinearMap.zero_map(Q, 3, 3), "left")
    assert baxter_pair_product(qx3, P, zero).mu.is_zero()
    with pytest.raises(InputAxiomsFail):
        baxter_pair_product(qx3, Qp, Qp)  # wrong sides


def test_rb_persists_under_twist(qx3):
    # the projection killing 1 and fixing x, x^2 is Rota-Baxter of weight -1
    z, o = Q.zero(), Q.one()
    P = RBOperator(LinearMap(Q, ((z, z, z), (z, o, z), (z, z, o))),
                   Q.from_int(-1))
    assert check_rota_baxter(qx3, P).passed
    c = LinearMap(Q, ((o, z, z), (z, Q.from_int(2), z),
                      (z, z, Q.from_int(4))))
    rep = rb_persists_under_twist(qx3, P, c, c)
    assert rep.passed


def test_rb_persists_rejects_noncommuting_twist(qx3, qx3_rb):
    z, o = Q.zero(), Q.one()
    c = LinearMap(Q, ((o, z, z), (z, Q.from_int(2), z), (z, z, Q.from_int(4))))
    with pytest.raises(TwistHypothesisViolated):
        rb_persists_under_twist(qx3, qx3_rb, c, c)


def test_two_param_algebra_is_twist_of_associative():
    # with alpha, beta read as twist maps over the underlying associative
    # product, the structure maps are multiplicative and the record passes
    A = two_param_at_23()
    rep = check_bihom_associative(A)
    assert rep.passed


# -- the four Rota-Baxter-type checkers on their one helper find what the
#    hand-written bodies found; those bodies, kept verbatim as the reference:

def ref_check_rota_baxter(A: BiHomAssociativeAlgebra, R: RBOperator,
                          cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, R.map)
    rep = CheckReport(cap=cap)
    n = A.dim
    lhs = A.mu.twist(R.map, R.map)
    rhs = _double_product(A, R).postcompose(R.map)
    rep._compare("rota_baxter", lhs.as_matrix(), rhs.as_matrix(), (n, n))
    rep.sub_checks["commutes_alpha"] = maps_commute(R.map, A.alpha)
    rep.sub_checks["commutes_beta"] = maps_commute(R.map, A.beta)
    return rep


def ref_check_double_product_morphism(A: BiHomAssociativeAlgebra, R: RBOperator,
                                      cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, R.map)
    rep = CheckReport(cap=cap)
    lhs = _double_product(A, R).postcompose(R.map)
    rhs = A.mu.twist(R.map, R.map)
    rep._compare("double_product_morphism", lhs.as_matrix(), rhs.as_matrix(),
                 (A.dim, A.dim))
    return rep


def ref_check_rb_on_dendriform(D: BiHomDendriform, R: RBOperator,
                               cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(D, R.map)
    if not R.weight.is_zero():
        raise NonzeroWeight("Rota-Baxter on a dendriform algebra needs weight 0")
    rep = CheckReport(cap=cap)
    n = D.dim
    for tag, op in (("succ", D.succ), ("prec", D.prec)):
        lhs = op.twist(R.map, R.map)
        rhs = (op.compose_right(R.map) + op.compose_left(R.map)) \
            .postcompose(R.map)
        rep._compare(f"rb_dendriform_{tag}", lhs.as_matrix(), rhs.as_matrix(),
                     (n, n))
    _commute_check(rep, "commutes_alpha", R.map, D.alpha)
    _commute_check(rep, "commutes_beta", R.map, D.beta)
    return rep


def ref_check_one_sided_baxter(A: BiHomAssociativeAlgebra, B: OneSidedBaxter,
                               cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, B.map)
    rep = CheckReport(cap=cap)
    lhs = A.mu.twist(B.map, B.map)
    if B.side == "right":
        rhs = A.mu.compose_left(B.map).postcompose(B.map)
    else:
        rhs = A.mu.compose_right(B.map).postcompose(B.map)
    rep._compare(f"{B.side}_baxter", lhs.as_matrix(), rhs.as_matrix(),
                 (A.dim, A.dim))
    return rep


# -- over Q and F_p the checkers read both sides as matrix chains,
#    op o (P (x) P) against P o op o K; the same chains, written out:

def mat_rows(rep: CheckReport, rows, P: LinearMap, K: LinearMap,
             swap: bool = False) -> CheckReport:
    n = P.rows
    pp = tensor2(P, P)
    for tag, op in rows:
        m = op.as_matrix()
        lhs, rhs = m.compose(pp), P.compose(m).compose(K)
        if swap:
            lhs, rhs = rhs, lhs
        rep._compare(tag, lhs, rhs, (n, n))
    return rep


def mat_check_rota_baxter(A: BiHomAssociativeAlgebra, R: RBOperator,
                          cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, R.map)
    rep = mat_rows(CheckReport(cap=cap), [("rota_baxter", A.mu)], R.map,
                   _inner_map(R.map, ("left", "right"), R.weight))
    rep.sub_checks["commutes_alpha"] = maps_commute(R.map, A.alpha)
    rep.sub_checks["commutes_beta"] = maps_commute(R.map, A.beta)
    return rep


def mat_check_double_product_morphism(A: BiHomAssociativeAlgebra, R: RBOperator,
                                      cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, R.map)
    return mat_rows(CheckReport(cap=cap), [("double_product_morphism", A.mu)], R.map,
                    _inner_map(R.map, ("left", "right"), R.weight), swap=True)


def mat_check_rb_on_dendriform(D: BiHomDendriform, R: RBOperator,
                               cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(D, R.map)
    if not R.weight.is_zero():
        raise NonzeroWeight("Rota-Baxter on a dendriform algebra needs weight 0")
    rep = mat_rows(CheckReport(cap=cap), [("rb_dendriform_succ", D.succ),
                                          ("rb_dendriform_prec", D.prec)],
                   R.map, _inner_map(R.map, ("right", "left")))
    _commute_check(rep, "commutes_alpha", R.map, D.alpha)
    _commute_check(rep, "commutes_beta", R.map, D.beta)
    return rep


def mat_check_one_sided_baxter(A: BiHomAssociativeAlgebra, B: OneSidedBaxter,
                               cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
    _match(A, B.map)
    inner = "left" if B.side == "right" else "right"
    return mat_rows(CheckReport(cap=cap), [(f"{B.side}_baxter", A.mu)], B.map,
                    _inner_map(B.map, (inner,)))


RB_CHECKERS = {
    "rota_baxter": (check_rota_baxter, ref_check_rota_baxter,
                    mat_check_rota_baxter),
    "double_product_morphism": (check_double_product_morphism,
                                ref_check_double_product_morphism,
                                mat_check_double_product_morphism),
    "rb_on_dendriform": (check_rb_on_dendriform, ref_check_rb_on_dendriform,
                         mat_check_rb_on_dendriform),
    "one_sided_baxter": (check_one_sided_baxter, ref_check_one_sided_baxter,
                         mat_check_one_sided_baxter),
}


@st.composite
def rb_checker_args(draw, name):
    """A random algebra (dendriform for rb_on_dendriform) over Q, F_5 or
    Q(a, b) and a zero, minus-identity or sparse random operator; the
    weight is 1 for minus the identity (a Rota-Baxter operator on every
    algebra), else 0 or, less often, a random nonzero scalar."""
    S = draw(random_structure(BiHomDendriform if name == "rb_on_dendriform"
                              else BiHomAssociativeAlgebra))
    field, n = S.field, S.dim
    minus_id = LinearMap.identity(field, n).scale(-field.one())
    op = draw(st.one_of(st.just(LinearMap.zero_map(field, n, n)), st.just(minus_id),
                        sparse_matrix(field, n, n), sparse_matrix(field, n, n)))
    if name == "one_sided_baxter":
        return S, OneSidedBaxter(op, draw(st.sampled_from(("left", "right"))))
    _, nonzero = entry_pool(field)
    weight = field.one() if op is minus_id else draw(st.one_of(
        st.just(field.zero()), st.just(field.zero()), st.sampled_from(nonzero)))
    return S, RBOperator(op, weight)


def _raw_outcome(outcome):
    return raw_report(outcome) if isinstance(outcome, CheckReport) else outcome


@pytest.mark.parametrize("name", list(RB_CHECKERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rb_type_checkers_match_hand_written_property(name, data):
    """Every field: the report (total_violations too) or refusal is the
    table-op reference's.  Over Q(a, b) the checker also makes the
    reference's mul and add calls, so the printed forms are the same; over
    Q and F_p it makes those of the matrix chains instead."""
    S, op = data.draw(rb_checker_args(name))
    cap = data.draw(st.sampled_from((16, 10 ** 6)))
    check, reference, matrix_form = RB_CHECKERS[name]
    got, want, got_ops, want_ops = against_reference(check, reference, S, op, cap)
    if S.field.kind != RATIONAL_FUNCTION:
        mat, _, want_ops, _ = against_reference(matrix_form, reference, S, op, cap)
        assert _raw_outcome(mat) == _raw_outcome(want)
    assert _raw_outcome(got) == _raw_outcome(want)
    # a P (x) P that one row reads is composed in place over Q and F_p,
    # making only the entries that op reads
    skipped = 0
    if S.field.kind != RATIONAL_FUNCTION:
        ops = {"rb_on_dendriform": ("succ", "prec")}.get(name, ("mu",))
        mats = {"P": op.map, **{tag: getattr(S, tag) for tag in ops}}
        rows = [(tag, (tag, ("P", "P")), ("P", tag, "K")) for tag in ops]
        skipped = kron_skipped_muls(mats, rows)
    assert got_ops == (want_ops[0] - skipped, want_ops[1])


@pytest.mark.parametrize("terms", [("left",), ("right",), ("left", "right")])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inner_map_is_the_kronecker_sum(terms, data):
    """K = P (x) I for "left", plus I (x) P for "right", plus weight * I,
    against the dense sum of tensor2 products, with rows increasing in each
    stored column."""
    field = data.draw(st.sampled_from((Q, FieldSpec.prime(5))))
    n = data.draw(st.integers(1, 3))
    P = data.draw(sparse_matrix(field, n, n))
    weight = data.draw(st.one_of(st.none(), st.sampled_from(entry_pool(field)[1]),
                                 st.just(field.zero())))
    ident = LinearMap.identity(field, n)
    want = LinearMap.zero_map(field, n * n, n * n)
    if "left" in terms:
        want = want + tensor2(P, ident)
    if "right" in terms:
        want = want + tensor2(ident, P)
    if weight is not None:
        want = want + LinearMap.identity(field, n * n).scale(weight)
    got = _inner_map(P, terms, weight)
    assert got == want
    assert all(list(col) == sorted(col) and field.ops.zero not in col.values()
               for col in got._d)


def test_check_failure_output_over_q_params_is_pinned(capsys):
    """The report of a failing `check` over Q(a, b), byte for byte: the
    symbolic two-parameter algebra with b/a + 1 in place of b/a at
    mu(e2, e2).  Every violation comes from a row whose last factor is a
    Kronecker pair composed in place (alpha (x) alpha, beta (x) beta,
    alpha (x) mu, mu (x) beta), and the unreduced printed forms depend on
    the field operations that build them."""
    spec = DATA / "sym_ab_perturbed.json"
    assert main(["check", str(spec)]) == 1
    expected = (DATA / "check_sym_ab_perturbed.out").read_text()
    assert capsys.readouterr().out == expected


def test_rb_type_failure_output_over_q_params_is_pinned(capsys):
    """The report of a failing `derive --via rb-tridend` over Q(a, b, r, r1,
    r2), byte for byte: w0f2 with r1 + 1 in place of r1 at (0, 0).  Both
    sides of each violation are unreduced rational functions, and building
    them as matrix compositions instead of table ops gives equal values but
    different printed forms."""
    spec = DATA / "w0f2_perturbed.json"
    assert main(["derive", str(spec), "--via", "rb-tridend"]) == 1
    expected = (DATA / "derive_rb_tridend_w0f2_perturbed.out").read_text()
    assert capsys.readouterr().out == expected
