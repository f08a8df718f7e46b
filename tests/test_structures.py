import pickle
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomDendriform, BiHomQuadri,
                      BiHomTridendriform, FieldSpec, LinearMap, StructureTable,
                      Vector, check_bihom_associative, check_dendriform,
                      check_structure,
                      check_quadri, check_tridendriform, embed_dend_in_tridend,
                      evaluate_two_param_algebra, two_param_algebra,
                      quadri_projections, rb_derive, tensor2, tensor_quadri,
                      total_product, tridend_to_dend, yau_twist)
from bihomalg.errors import FieldMismatch, InputAxiomsFail, TwistHypothesisViolated
from bihomalg import structures
from bihomalg.structures import DEFAULT_VIOLATION_CAP, CheckReport, Structure
from conftest import (against_reference, counted, integration_rb,
                      kron_skipped_muls, truncated_poly_algebra)
from test_linalg import QAB, SPARSE_FIELDS, sparse_matrix

Q = FieldSpec.rational()


def test_two_param_algebra_sample_values():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    # mu(e1,e2) = 3e1 - e2, mu(e2,e1) = -(3/2)e1 + 2e2, mu(e2,e2) = (3/2)e2
    assert A.mu.apply_basis(0, 1) == Vector(Q, (Q.from_int(3), Q.from_int(-1)))
    assert A.mu.apply_basis(1, 0) == Vector(
        Q, (Q.from_fraction(Fraction(-3, 2)), Q.from_int(2)))
    assert A.mu.apply_basis(1, 1) == Vector(
        Q, (Q.zero(), Q.from_fraction(Fraction(3, 2))))
    assert A.alpha.column(1) == A.mu.apply_basis(1, 0)
    assert A.beta.column(1) == A.mu.apply_basis(0, 1)
    assert check_bihom_associative(A).passed


def test_two_param_algebra_passes_at_several_points():
    for a, b in [(1, 1), (-1, 2), (Fraction(1, 2), 5)]:
        A = evaluate_two_param_algebra({"a": Fraction(a), "b": Fraction(b)})
        assert check_bihom_associative(A).passed, (a, b)


def test_corrupted_algebra_reports_witness():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    bad_constants = list(map(list, A.mu.constants))
    bad_constants[0][1] = (Q.zero(), Q.one())  # overwrite mu(e1,e2) with e2
    bad = BiHomAssociativeAlgebra(
        Q, StructureTable(Q, tuple(tuple(map(tuple, r)) for r in
                                   [[tuple(c) for c in row] for row in bad_constants])),
        A.alpha, A.beta)
    rep = check_bihom_associative(bad)
    assert not rep.passed
    axiom, idx, lhs, rhs = rep.violations[0]
    assert len(idx) in (2, 3)
    assert lhs != rhs


def test_classical_associative_is_bihom():
    A = truncated_poly_algebra(Q, 4)
    assert check_bihom_associative(A).passed


def test_report_cap():
    zero2 = StructureTable.zero(Q, 2)
    # alpha not multiplicative and not commuting with beta: everything breaks
    a = LinearMap(Q, ((Q.one(), Q.one()), (Q.zero(), Q.one())))
    b = LinearMap(Q, ((Q.one(), Q.zero()), (Q.one(), Q.one())))
    one_table = StructureTable(Q, (
        ((Q.one(), Q.zero()), (Q.one(), Q.zero())),
        ((Q.one(), Q.zero()), (Q.one(), Q.zero()))))
    bad = BiHomAssociativeAlgebra(Q, one_table, a, b)
    rep = check_bihom_associative(bad, cap=3)
    assert not rep.passed
    assert len(rep.violations) == 3


def _planted(S, tag, i, j, k, value):
    """S with the constant c[i][j][k] of its operation tag set to value."""
    t = getattr(S, tag).constants
    col = t[i][j][:k] + (value,) + t[i][j][k + 1:]
    row = t[i][:j] + (col,) + t[i][j + 1:]
    return replace(S, **{tag: StructureTable(S.field, t[:i] + (row,) + t[i + 1:])})


@pytest.mark.parametrize("build", [
    lambda: _planted(truncated_poly_algebra(Q, 4), "mu", 0, 0, 0, Q.from_int(2)),
    lambda: _planted(tensor_quadri(*[tridend_to_dend(rb_derive(
        truncated_poly_algebra(Q, 2), integration_rb(Q, 2)))] * 2),
        "ne", 0, 3, 1, Q.from_int(5)),
], ids=["assoc.n4", "quadri.n4"])
def test_total_violations_counts_past_the_cap(build):
    S = build()
    capped, full = check_structure(S, cap=1), check_structure(S, cap=10 ** 6)
    assert len(capped.violations) == 1 and len(full.violations) > 1
    assert capped.total_violations == full.total_violations == len(full.violations)
    assert capped.violations == full.violations[:1]


def test_yau_twist_identity_is_noop(qx3):
    ident = LinearMap.identity(Q, 3)
    assert yau_twist(qx3, ident, ident) == qx3


def test_yau_twist_scaling_example(qx3):
    # x -> 2x, x^2 -> 4x^2, 1 -> 1 is multiplicative; mu'(x,x) = 2x*2x = 4x^2
    c = LinearMap(Q, ((Q.one(), Q.zero(), Q.zero()),
                      (Q.zero(), Q.from_int(2), Q.zero()),
                      (Q.zero(), Q.zero(), Q.from_int(4))))
    twisted = yau_twist(qx3, c, c)
    assert twisted.mu.apply_basis(1, 1) == Vector(
        Q, (Q.zero(), Q.zero(), Q.from_int(4)))
    assert check_bihom_associative(twisted).passed


def test_yau_twist_rejects_non_multiplicative(qx3):
    shift = LinearMap(Q, ((Q.zero(),) * 3,
                          (Q.one(), Q.zero(), Q.zero()),
                          (Q.zero(), Q.one(), Q.zero())))
    with pytest.raises(TwistHypothesisViolated):
        yau_twist(qx3, shift, shift)


def test_zero_dendriform_passes():
    zero = StructureTable.zero(Q, 2)
    ident = LinearMap.identity(Q, 2)
    D = BiHomDendriform(Q, zero, zero, ident, ident)
    assert check_dendriform(D).passed


def test_swapped_dendriform_fails(qx3, qx3_rb):
    T = rb_derive(qx3, qx3_rb)
    D = tridend_to_dend(T)
    assert check_dendriform(D).passed
    swapped = BiHomDendriform(Q, D.succ, D.prec, D.alpha, D.beta)
    assert not check_dendriform(swapped).passed


def test_embed_and_collapse_round_trip(qx2, qx2_rb):
    D = tridend_to_dend(rb_derive(qx2, qx2_rb))
    T = embed_dend_in_tridend(D)
    assert check_tridendriform(T).passed
    assert T.dot.is_zero()
    assert tridend_to_dend(T) == D


def test_total_product_matches_input_algebra(qx3, qx3_rb):
    T = rb_derive(qx3, qx3_rb)
    A = total_product(T)
    assert check_bihom_associative(A).passed
    # weight 0: prec + succ = xR(y) + R(x)y


def test_tridend_to_dend_requires_valid_input():
    zero = StructureTable.zero(Q, 2)
    bad_map = LinearMap(Q, ((Q.one(), Q.one()), (Q.one(), Q.zero())))
    from bihomalg import BiHomTridendriform
    T = BiHomTridendriform(Q, zero, zero, zero, bad_map,
                           LinearMap(Q, ((Q.zero(), Q.one()), (Q.one(), Q.one()))))
    with pytest.raises(InputAxiomsFail):
        tridend_to_dend(T)


def test_tensor_quadri_and_projections(qx2, qx2_rb):
    D = tridend_to_dend(rb_derive(qx2, qx2_rb))
    Qd = tensor_quadri(D, D)
    assert Qd.dim == 4
    assert check_quadri(Qd).passed
    horiz, vert = quadri_projections(Qd)
    assert check_dendriform(horiz).passed
    assert check_dendriform(vert).passed
    tq = total_product(Qd)
    assert tq.mu == total_product(horiz).mu
    assert tq.mu == total_product(vert).mu


def test_tensor_quadri_nw_formula(qx2, qx2_rb):
    D = tridend_to_dend(rb_derive(qx2, qx2_rb))
    Qd = tensor_quadri(D, D)
    # (a1 (x) b1) nw (a2 (x) b2) = (a1 < a2) (x) (b1 < b2)
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    got = Qd.nw.apply_basis(i1 * 2 + j1, i2 * 2 + j2)
                    left = D.prec.apply_basis(i1, i2)
                    right = D.prec.apply_basis(j1, j2)
                    for k1 in range(2):
                        for k2 in range(2):
                            assert got.coords[k1 * 2 + k2] == \
                                left.coords[k1] * right.coords[k2]


def test_quadri_derived_accessors(qx2, qx2_rb):
    from bihomalg import rb_dendriform_to_quadri
    D = tridend_to_dend(rb_derive(qx2, qx2_rb))
    Qd = rb_dendriform_to_quadri(D, qx2_rb)
    assert Qd.star == Qd.prec + Qd.succ
    assert Qd.star == Qd.vee + Qd.wedge


def dim3_structures():
    """k[x]/(x^3), the tridendriform and dendriform algebras its integration
    operator derives, and the quadri-algebra that operator makes of the
    dendriform one."""
    from bihomalg import rb_dendriform_to_quadri
    A, R = truncated_poly_algebra(Q, 3), integration_rb(Q, 3)
    T = rb_derive(A, R)
    D = tridend_to_dend(T)
    return A, D, T, rb_dendriform_to_quadri(D, R)


@pytest.mark.parametrize("kind, built, fused", [
    (BiHomAssociativeAlgebra, 0, 4), (BiHomDendriform, 2, 6),
    (BiHomTridendriform, 8, 2), (BiHomQuadri, 2, 18)],
    ids=["assoc", "dend", "tridend", "quadri"])
def test_check_structure_builds_each_kronecker_factor_once(kind, built, fused,
                                                           monkeypatch):
    """alpha (x) alpha and beta (x) beta serve every MULTS row of a kind
    with two or more operations, and the tridendriform AXIOMS read 8
    distinct factors in 14 uses, 6 of them twice: each of those is built
    once by tensor2.  A factor read once is composed in place instead, so
    one tensor2 per use would make 4, 10, 20 and 26 calls."""
    S = next(S for S in dim3_structures() if type(S) is kind)
    made, composed = [], []

    def counting(calls, fn):
        return lambda *maps: (calls.append(maps), fn(*maps))[1]

    monkeypatch.setattr(structures, "tensor2", counting(made, tensor2))
    monkeypatch.setattr(structures, "_compose_kron",
                        counting(composed, structures._compose_kron))
    assert check_structure(S).passed
    assert S.dim == 3 and (len(made), len(composed)) == (built, fused)


def test_a_pair_composed_in_place_refuses_two_fields_before_any_side():
    """A Kronecker factor composed in place joins its maps' fields when the
    row's factors are read, before any side composes, where tensor2 would
    have refused it: here h o k would fail on its dims first."""
    mats = {"h": LinearMap.identity(Q, 2), "k": LinearMap.identity(Q, 3),
            "f": LinearMap.identity(Q, 1), "g": LinearMap.identity(FieldSpec.prime(5), 2)}
    with pytest.raises(FieldMismatch, match="^cannot combine values over"):
        structures._check_axioms(mats, [("row", ("h", "k", ("f", "g")), ("h",))], 16)


def test_structure_records_keep_their_dataclass_behaviour():
    """The records share one base for field and dim; their fields, repr, ==,
    replace and pickling are those of each record alone."""
    names = {BiHomAssociativeAlgebra: ("mu",), BiHomDendriform: ("prec", "succ"),
             BiHomTridendriform: ("prec", "succ", "dot"),
             BiHomQuadri: ("nw", "sw", "ne", "se")}
    for S in dim3_structures():
        kind = type(S)
        assert [f.name for f in fields(S)] == ["field", *names[kind], "alpha", "beta"]
        assert isinstance(S, Structure) and S.dim == 3 and S.field == Q
        assert repr(S).startswith(f"{kind.__name__}(field={Q!r}, {names[kind][0]}=")
        copy = pickle.loads(pickle.dumps(S))
        assert type(copy) is kind and copy == S and repr(copy) == repr(S)
        assert replace(S, alpha=S.beta) == S  # alpha = beta = id here
        assert replace(S, field=FieldSpec.prime(5)) != S
        with pytest.raises(AttributeError):
            S.field = FieldSpec.prime(5)
    assert not isinstance(structures._Record(Q), Structure)


def test_symbolic_two_param_algebra_passes():
    f = FieldSpec.rational_function("a", "b")
    A = two_param_algebra(f, f.parameter("a"), f.parameter("b"))
    assert check_bihom_associative(A).passed


# -- the table-driven checkers find what the hand-written ones found ---------
#    The four checkers below are the hand-written bodies that the MULTS and
#    AXIOMS tables replaced, kept verbatim as the reference, with the helpers
#    _mult_check and _commute_check they called.

def _mult_check(rep: CheckReport, tag: str, f: LinearMap, op: StructureTable) -> None:
    """f(x op y) == f(x) op f(y) as a matrix identity on the tensor square."""
    m = op.as_matrix()
    n = op.dim
    rep._compare(tag, f.compose(m), m.compose(tensor2(f, f)), (n, n))


def _commute_check(rep: CheckReport, tag: str, f: LinearMap, g: LinearMap) -> None:
    rep._compare(tag, f.compose(g), g.compose(f), (f.rows,))


def ref_check_bihom_associative(A: BiHomAssociativeAlgebra,
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


def ref_check_dendriform(D: BiHomDendriform,
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


def ref_check_tridendriform(T: BiHomTridendriform,
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


def ref_check_quadri(Q: BiHomQuadri, cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
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


CHECKERS = {
    BiHomAssociativeAlgebra: (check_bihom_associative, ref_check_bihom_associative),
    BiHomDendriform: (check_dendriform, ref_check_dendriform),
    BiHomTridendriform: (check_tridendriform, ref_check_tridendriform),
    BiHomQuadri: (check_quadri, ref_check_quadri),
}


@st.composite
def random_structure(draw, kind):
    """A structure of the given kind with sparse random operations; alpha and
    beta are the identity or sparse random maps, so some axioms hold and
    some fail.  Quadri over Q(a, b) stays at dim <= 2 to keep it fast."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    small = kind is BiHomQuadri and field == QAB
    n = draw(st.integers(1, 2 if small else 3))
    ident = LinearMap.identity(field, n)
    alpha, beta = (draw(st.one_of(st.just(ident), sparse_matrix(field, n, n)))
                   for _ in range(2))
    ops = [StructureTable.from_matrix(field, draw(sparse_matrix(field, n, n * n)), n, n)
           for _ in kind.OPS]
    return kind(field, *ops, alpha, beta)


def repeated_factor_muls(mats, uses):
    """The ops-table muls of the tensor2 calls that building each Kronecker
    factor once per check saves over building it once per use, as the
    hand-written references do: those of every use of a factor after its
    first.  uses lists the factors the rows read, mats maps each name in
    them to its matrix."""
    muls = 0
    for factor, count in Counter(f for f in uses if isinstance(f, tuple)).items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            _, (mul, _) = counted(monkeypatch, reduce, tensor2,
                                  [mats[name] for name in factor])
        muls += (count - 1) * mul
    return muls


def check_structure_mats(S):
    """Each name the rows of S's kind read, as its matrix."""
    mats = {name: getattr(S, name).as_matrix()
            for name in S.OPS + S.DERIVED if name != "total"}
    mats.update(alpha=S.alpha, beta=S.beta,
                total=reduce(add, (getattr(S, tag) for tag in S.OPS)).as_matrix())
    return mats


def raw_violations(rep):
    return [(axiom, idx, [x.value for x in lhs.coords], [x.value for x in rhs.coords])
            for axiom, idx, lhs, rhs in rep.violations]


@pytest.mark.parametrize("kind", list(CHECKERS), ids=lambda k: k.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_checkers_match_hand_written_property(kind, data):
    S = data.draw(random_structure(kind))
    cap = data.draw(st.sampled_from((16, 10 ** 6)))
    check, reference = CHECKERS[kind]
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, (got_mul, got_add) = counted(monkeypatch, check, S, cap)
        want, (want_mul, want_add) = counted(monkeypatch, reference, S, cap)
    assert raw_violations(got) == raw_violations(want)
    assert got.cap == want.cap and got.sub_checks == want.sub_checks == {}
    # the checker builds each Kronecker factor once, the reference per use,
    # and composes a factor read once in place, making only the entries read
    rows = kind.MULTS + kind.AXIOMS
    mats = check_structure_mats(S)
    uses = [f for _, lhs, rhs in rows for f in lhs + rhs]
    assert got_mul == (want_mul - repeated_factor_muls(mats, uses)
                       - kron_skipped_muls(mats, rows))
    assert got_add <= want_add
    assert got.total_violations >= len(got.violations)
    if cap == 10 ** 6:
        assert got.total_violations == len(got.violations)


# -- yau_twist's hypothesis rows refuse what the hand-written probe refused --
#    yau_twist as it was written before its probe became rows, kept as the
#    reference; its one change is that the probe hands each operation itself,
#    not its matrix, to the _mult_check above.

def ref_yau_twist(S, atilde: LinearMap, btilde: LinearMap):
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


@pytest.mark.parametrize("kind", list(CHECKERS), ids=lambda k: k.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_yau_twist_rows_match_hand_written_property(kind, data):
    """With zero operations every map is multiplicative, so the commutation
    rows decide."""
    S = data.draw(random_structure(kind))
    if data.draw(st.booleans()):
        S = replace(S, **{tag: StructureTable.zero(S.field, S.dim) for tag in S.OPS})
    ident = LinearMap.identity(S.field, S.dim)
    atilde, btilde = (data.draw(st.one_of(
        st.just(ident), st.just(ident), st.just(S.alpha), st.just(S.beta),
        sparse_matrix(S.field, S.dim, S.dim))) for _ in range(2))
    got, want, got_ops, want_ops = against_reference(yau_twist, ref_yau_twist,
                                                     S, atilde, btilde)
    assert got == want
    # the probe builds atilde (x) atilde and btilde (x) btilde once, the
    # reference once per operation; with one operation, it composes each in
    # place
    mats = {"atilde": atilde, "btilde": btilde,
            **{tag: getattr(S, tag) for tag in S.OPS}}
    rows = [(tag, (f, tag), (tag, (f, f))) for tag in S.OPS for f in ("atilde", "btilde")]
    uses = [(f, f) for _ in S.OPS for f in ("atilde", "btilde")]
    saved = repeated_factor_muls(mats, uses) + kron_skipped_muls(mats, rows)
    assert got_ops == (want_ops[0] - saved, want_ops[1])


def test_yau_twist_names_the_first_failing_hypothesis():
    # every map is multiplicative for the zero operation, and atilde
    # commutes with btilde = id but with neither alpha nor beta
    o, z = Q.one(), Q.zero()
    shear = LinearMap(Q, ((o, o), (z, o)))
    A = BiHomAssociativeAlgebra(Q, StructureTable.zero(Q, 2), shear, shear)
    with pytest.raises(TwistHypothesisViolated, match="^atilde_alpha$"):
        yau_twist(A, LinearMap(Q, ((o, z), (o, o))), LinearMap.identity(Q, 2))
