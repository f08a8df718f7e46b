from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, FieldSpec,
                      GRBOperator, LinearMap,
                      OneSidedBaxter, PseudotwistorWithCompanions, RBOperator,
                      WeakPseudotwistor, as_weak, baxter_pair_pseudotwistor,
                      baxter_pair_product, check_bihom_associative,
                      check_pseudotwistor, check_weak_pseudotwistor,
                      check_grb, compose_pseudotwistors,
                      evaluate_two_param_algebra, induced_weak_companion,
                      evaluate_rb_family, rb_double_product, rb_pseudotwistor,
                      tensor2, twisted_algebra)
from bihomalg.errors import (DimensionMismatch, HypothesisViolated,
                             InputAxiomsFail)
from bihomalg.pseudotwistors import _dims_ok
from bihomalg.structures import DEFAULT_VIOLATION_CAP, CheckReport
from conftest import against_reference, kernel_calls, kron_skipped, raw_report
from test_bimodules import maybe_identity as maybe_identity_of, random_algebra
from test_linalg import SPARSE_FIELDS, stored

Q = FieldSpec.rational()


def identity_weak(A):
    n = A.dim
    return WeakPseudotwistor(LinearMap.identity(A.field, n * n),
                             LinearMap.identity(A.field, n ** 3),
                             LinearMap.identity(A.field, n),
                             LinearMap.identity(A.field, n))


def test_identity_weak_pseudotwistor(qx3):
    W = identity_weak(qx3)
    assert check_weak_pseudotwistor(qx3, W).passed
    assert twisted_algebra(qx3, W) == qx3


def test_identity_full_pseudotwistor(qx3):
    n = qx3.dim
    ident2 = LinearMap.identity(Q, n * n)
    ident3 = LinearMap.identity(Q, n ** 3)
    ident = LinearMap.identity(Q, n)
    P = PseudotwistorWithCompanions(ident2, ident3, ident3, ident, ident)
    assert check_pseudotwistor(qx3, P).passed
    W = as_weak(P)
    assert check_weak_pseudotwistor(qx3, W).passed


def test_rb_weight_zero_pseudotwistor(qx3, qx3_rb):
    W = rb_pseudotwistor(qx3, qx3_rb)
    assert check_weak_pseudotwistor(qx3, W).passed
    twisted = twisted_algebra(qx3, W)
    assert check_bihom_associative(twisted).passed
    # mu T = double product of the Rota-Baxter operator
    assert twisted.mu == rb_double_product(qx3, qx3_rb).mu


def test_rb_weight_one_pseudotwistor():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    R = RBOperator(LinearMap.identity(Q, 2).scale(Q.from_int(-1)), Q.one())
    W = rb_pseudotwistor(A, R)
    assert check_weak_pseudotwistor(A, W).passed
    assert twisted_algebra(A, W).mu == rb_double_product(A, R).mu


def test_rb_pseudotwistor_requires_commuting_operator():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    R = evaluate_rb_family("w0f1", {"a": Fraction(2), "b": Fraction(3),
                                    "r": Fraction(5)})
    with pytest.raises(InputAxiomsFail):
        rb_pseudotwistor(A, R)


def test_twisted_algebra_rejects_bad_twistor(qx3):
    n = qx3.dim
    swap_entries = [[Q.zero()] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            swap_entries[j * n + i][i * n + j] = Q.one()
    swap = LinearMap(Q, tuple(tuple(r) for r in swap_entries))
    W = WeakPseudotwistor(swap, LinearMap.identity(Q, n ** 3),
                          LinearMap.identity(Q, n), LinearMap.identity(Q, n))
    rep = check_weak_pseudotwistor(qx3, W)
    assert not rep.passed
    with pytest.raises(InputAxiomsFail):
        twisted_algebra(qx3, W)


def test_dimension_validation(qx3):
    with pytest.raises(DimensionMismatch):
        check_weak_pseudotwistor(qx3, WeakPseudotwistor(
            LinearMap.identity(Q, 2), LinearMap.identity(Q, 27),
            LinearMap.identity(Q, 3), LinearMap.identity(Q, 3)))


def test_compose_commuting_mode(qx3, qx3_rb):
    # R and P = R^2 commute, and their induced twistors satisfy the
    # commutation hypotheses
    P = RBOperator(qx3_rb.map.compose(qx3_rb.map), Q.zero())
    Tw = rb_pseudotwistor(qx3, qx3_rb)
    Dw = rb_pseudotwistor(qx3, P)
    C = compose_pseudotwistors(qx3, Tw, Dw, mode="commuting")
    assert C.T == Tw.T.compose(Dw.T)
    assert check_weak_pseudotwistor(qx3, C).passed
    twisted = twisted_algebra(qx3, C)
    assert check_bihom_associative(twisted).passed


def test_compose_general_mode_with_identity(qx3, qx3_rb):
    Tw = rb_pseudotwistor(qx3, qx3_rb)
    Dw = identity_weak(qx3)
    C = compose_pseudotwistors(qx3, Tw, Dw, mode="general")
    assert C.T == Tw.T
    assert check_weak_pseudotwistor(qx3, C).passed


def test_compose_rejects_nonidentity_twist_maps():
    A = evaluate_two_param_algebra({"a": Fraction(2), "b": Fraction(3)})
    n = A.dim
    W = WeakPseudotwistor(LinearMap.identity(Q, n * n),
                          LinearMap.identity(Q, n ** 3), A.alpha, A.beta)
    with pytest.raises(HypothesisViolated):
        compose_pseudotwistors(A, W, identity_weak(A), mode="commuting")


def test_compose_mode_validation(qx3):
    W = identity_weak(qx3)
    with pytest.raises(ValueError):
        compose_pseudotwistors(qx3, W, W, mode="both")


def test_compose_rejects_failed_hypotheses(qx3, qx3_rb):
    # a companion that cyclically permutes the tensor cube does not commute
    # with id (x) T, so the commuting-mode hypotheses fail
    z, o = Q.zero(), Q.one()
    entries = [[z] * 27 for _ in range(27)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                entries[(k * 3 + i) * 3 + j][(i * 3 + j) * 3 + k] = o
    perm = LinearMap(Q, tuple(tuple(r) for r in entries))
    bad = WeakPseudotwistor(LinearMap.identity(Q, 9), perm,
                            LinearMap.identity(Q, 3), LinearMap.identity(Q, 3))
    Tw = rb_pseudotwistor(qx3, qx3_rb)
    with pytest.raises(HypothesisViolated):
        compose_pseudotwistors(qx3, Tw, bad, mode="commuting")


def test_baxter_pair_pseudotwistor(qx3):
    ident = LinearMap.identity(Q, 3)
    P = OneSidedBaxter(ident, "right")
    Qop = OneSidedBaxter(ident.scale(Q.from_int(2)), "left")
    W = baxter_pair_pseudotwistor(qx3, P, Qop)
    assert check_weak_pseudotwistor(qx3, W).passed
    twisted = twisted_algebra(qx3, W)
    assert twisted.mu == baxter_pair_product(qx3, P, Qop).mu
    assert check_bihom_associative(twisted).passed


def test_baxter_pair_pseudotwistor_rejects_wrong_sides(qx3):
    ident = LinearMap.identity(Q, 3)
    with pytest.raises(InputAxiomsFail):
        baxter_pair_pseudotwistor(qx3, OneSidedBaxter(ident, "left"),
                                  OneSidedBaxter(ident, "left"))


# -- the row tables find what the hand-written checkers found ---------------
#    check_weak_pseudotwistor, check_pseudotwistor with _common_commutations,
#    and the hypothesis checks of compose_pseudotwistors as they were written
#    before WEAK_AXIOMS, PSEUDOTWISTOR_AXIOMS and COMPOSE_HYPOTHESES replaced
#    them, kept verbatim as the reference.

def _common_commutations(rep: CheckReport, A, W) -> None:
    n = A.dim
    for tag, f in (("alpha", A.alpha), ("beta", A.beta),
                   ("atilde", W.atilde), ("btilde", W.btilde)):
        ff = tensor2(f, f)
        rep._compare(f"T_commutes_{tag}", W.T.compose(ff), ff.compose(W.T),
                     (n, n))


def ref_check_weak_pseudotwistor(A: BiHomAssociativeAlgebra, W: WeakPseudotwistor,
                                 cap: int = DEFAULT_VIOLATION_CAP) -> CheckReport:
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


def ref_check_pseudotwistor(A: BiHomAssociativeAlgebra,
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


def ref_compose_pseudotwistors(A: BiHomAssociativeAlgebra, Tw: WeakPseudotwistor,
                               Dw: WeakPseudotwistor, mode: str) -> WeakPseudotwistor:
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


@st.composite
def twistor_args(draw, kind):
    """A random algebra of dim 1 or 2 over Q, F_5 or Q(a, b) and a random
    twistor of the kind: each map is the identity or sparse random, so some
    identities hold and some fail.  For compose_pseudotwistors, a pair of
    weak twistors with identity atilde and btilde, so that the hypotheses
    are reached, and a mode."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    n = draw(st.integers(1, 2))
    A = draw(random_algebra(field, n))

    def maybe_identity(size):
        return draw(maybe_identity_of(field, size))

    if kind == "weak":
        return A, WeakPseudotwistor(maybe_identity(n * n), maybe_identity(n ** 3),
                                    maybe_identity(n), maybe_identity(n))
    if kind == "full":
        return A, PseudotwistorWithCompanions(
            maybe_identity(n * n), maybe_identity(n ** 3), maybe_identity(n ** 3),
            maybe_identity(n), maybe_identity(n))
    ident = LinearMap.identity(field, n)
    Tw, Dw = (WeakPseudotwistor(maybe_identity(n * n), maybe_identity(n ** 3), ident, ident)
              for _ in range(2))
    return A, Tw, Dw, draw(st.sampled_from(("general", "commuting")))


TWISTOR_CHECKERS = {
    "weak": (check_weak_pseudotwistor, ref_check_weak_pseudotwistor),
    "full": (check_pseudotwistor, ref_check_pseudotwistor),
}


@pytest.mark.parametrize("kind", list(TWISTOR_CHECKERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_twistor_rows_match_hand_written_property(kind, data):
    A, W = data.draw(twistor_args(kind))
    cap = data.draw(st.sampled_from((16, 10 ** 6)))
    check, reference = TWISTOR_CHECKERS[kind]
    got, want, got_ops, want_ops = against_reference(check, reference, A, W, cap)
    assert raw_report(got) == raw_report(want)
    assert got_ops[0] <= want_ops[0] and got_ops[1] <= want_ops[1]


def ref_induced_weak_companion(P: PseudotwistorWithCompanions) -> LinearMap:
    ident = LinearMap.identity(P.T.field, P.dim)
    return P.T1.compose(tensor2(P.T, ident)).compose(tensor2(P.atilde, P.T))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_induced_weak_companion_matches_tensor2_then_compose_property(data):
    """T1 after T (x) id, then after atilde (x) T, each composed in place:
    the reference's map in values, types and dict order, from its adds and
    fewer muls by the Kronecker entries neither composite reads."""
    _, P = data.draw(twistor_args("full"))
    got, want, got_ops, want_ops = against_reference(
        induced_weak_companion, ref_induced_weak_companion, P)
    assert isinstance(want, LinearMap) and stored(got) == stored(want)
    ident = LinearMap.identity(P.T.field, P.dim)
    inner = P.T1.compose(tensor2(P.T, ident))
    skipped = kron_skipped(P.T1, P.T, ident) + kron_skipped(inner, P.atilde, P.T)
    assert got_ops == (want_ops[0] - skipped, want_ops[1])


def identity_full(A):
    n, field = A.dim, A.field
    ident3 = LinearMap.identity(field, n ** 3)
    return PseudotwistorWithCompanions(LinearMap.identity(field, n * n), ident3, ident3,
                                       LinearMap.identity(field, n),
                                       LinearMap.identity(field, n))


@pytest.mark.parametrize("name, calls", [
    ("check_grb", (0, 3)), ("check_pseudotwistor", (6, 4)),
    ("induced_weak_companion", (0, 2))])
def test_each_kronecker_factor_composed_after_once_is_never_built(name, calls, qx3,
                                                                  qx3_rb, monkeypatch):
    """(tensor2, _compose_kron) calls.  check_grb composes mu after pi (x) pi
    and L and R after pi (x) id and id (x) pi; check_pseudotwistor builds the
    four (f (x) f) of T_COMMUTES and alpha (x) mu and mu (x) beta, each read
    twice, and composes t_left, t_right and the two factors after them in
    place; induced_weak_companion composes its two factors in place."""
    M, pi, P = BiHomBimodule.regular(qx3), GRBOperator(qx3_rb.map), identity_full(qx3)
    run = {"check_grb": lambda: check_grb(qx3, M, pi).passed,
           "check_pseudotwistor": lambda: check_pseudotwistor(qx3, P).passed,
           "induced_weak_companion": lambda: induced_weak_companion(P) == P.T1}[name]
    assert kernel_calls(monkeypatch, run) == (True, calls)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_hypotheses_match_hand_written_property(data):
    """Same composite or the same HypothesisViolated text; when every
    hypothesis holds, the same scalar operations.  (A failing hypothesis no
    longer stops the ones after it from being computed.)"""
    args = data.draw(twistor_args("compose"))
    got, want, got_ops, want_ops = against_reference(
        compose_pseudotwistors, ref_compose_pseudotwistors, *args)
    assert got == want
    if isinstance(want, WeakPseudotwistor):
        assert got_ops == want_ops
