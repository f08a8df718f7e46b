"""check-concrete: build and check one structure over Q or F_p per operation.

Why: dense compose/tensor2 at n^2 and n^3 columns dominates here, which is
where a sparse field-specialised kernel must win, and the fault cases run the
violation-collecting path.  Every slot has a fixed kind, dimension and field;
the seed picks coefficients and fault positions, so the cost profile of a
round does not depend on the seed.
"""

from __future__ import annotations

import random

import bihomalg as bh

import oracles as O
import rawgen as G
from bridge import (Lazy, Op, field_of, raw_map, raw_table, report_agrees,
                    scalar, to_map, to_table)

Q = O.RawField()
F5 = O.RawField(5)
F11 = O.RawField(11)
F13 = O.RawField(13)


def _pick(rng, F, magnitude):
    """A seeded nonzero scalar whose cost does not depend on the seed:
    +-magnitude over Q, any nonzero residue over F_p."""
    return rng.choice((magnitude, -magnitude)) if not F.p else rng.randrange(1, F.p)


def _planted_first(rep, planted):
    return planted is None or (bool(rep.violations)
                               and rep.violations[0][:2] == planted)


def assoc_twist_op(rng, F, n, fault):
    """yau_twist of k[x]/(x^n) by x -> c x, x -> d x, then the checker.
    A planted fault makes the unit act as 2 on e_J; the first violation is
    then bihom_associativity at (0, 0, J) (needs 2 != 0 and d != 0)."""
    field = field_of(F)
    c, d = _pick(rng, F, 2), _pick(rng, F, 3)
    mu0 = G.poly_table(F, n)
    J = rng.randrange(1, n) if fault else None
    if fault:
        mu0 = G.unit_fault(F, mu0, J)
    sc, sd = G.sigma(F, n, c), G.sigma(F, n, d)
    A0 = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu0))
    at, bt = to_map(field, sc), to_map(field, sd)
    mu = O.twist_table(F, mu0, sc, sd)
    expected = Lazy(lambda: O.violations(F, O.assoc_axioms(F, mu, sc, sd)))
    planted = ("bihom_associativity", (0, 0, J)) if fault else None

    def run():
        S = bh.yau_twist(A0, at, bt)
        return S, bh.check_bihom_associative(S)

    def check(out):
        S, rep = out
        return (raw_table(S.mu) == mu and raw_map(S.alpha) == sc
                and raw_map(S.beta) == sd and report_agrees(rep, expected())
                and _planted_first(rep, planted))
    tag = "fault" if fault else "ok"
    return Op(f"assoc_twist.n{n}.{_fname(F)}.{tag}", run, check)


def _fname(F):
    return f"f{F.p}" if F.p else "q"


def _rb_operator(rng, F, n, weight):
    if weight == 0:
        lam = _pick(rng, F, 2)
        return G.integration(F, n, lam)
    return O.map_scale(F, F.norm(-1), O.identity(n))


def derive_ops(rng, F, n, weight):
    """rb_derive then check_tridendriform, and rb_double_product then
    check_bihom_associative, for lam * integration (weight 0) or -id
    (weight 1) on k[x]/(x^n)."""
    field = field_of(F)
    mu = G.poly_table(F, n)
    R = _rb_operator(rng, F, n, weight)
    I = O.identity(n)
    A = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu))
    Rl = bh.RBOperator(to_map(field, R), scalar(field, weight))
    prec = O.twist_table(F, mu, I, R)
    succ = O.twist_table(F, mu, R, I)
    dot = O.table_scale(F, weight, mu)
    star = O.table_add(F, prec, succ, dot)
    tri_expected = Lazy(lambda: O.violations(F, O.tridend_axioms(F, prec, succ, dot, I, I)))
    dbl_expected = Lazy(lambda: O.violations(F, O.assoc_axioms(F, star, I, I)))
    suffix = f"n{n}.{_fname(F)}.w{weight}"

    def run_tri():
        T = bh.rb_derive(A, Rl)
        return T, bh.check_tridendriform(T)

    def check_tri(out):
        T, rep = out
        return ((raw_table(T.prec), raw_table(T.succ), raw_table(T.dot))
                == (prec, succ, dot) and report_agrees(rep, tri_expected()))

    def run_dbl():
        D = bh.rb_double_product(A, Rl)
        return D, bh.check_bihom_associative(D)

    def check_dbl(out):
        D, rep = out
        return raw_table(D.mu) == star and report_agrees(rep, dbl_expected())
    return [Op(f"rb_derive.{suffix}", run_tri, check_tri),
            Op(f"rb_double.{suffix}", run_dbl, check_dbl)]


def rb_fault_op(rng, F, n):
    """check_rota_baxter on lam * integration with delta added to R(e_0)'s
    e_0 coefficient: at (0, 0) the two sides differ by delta^2 e_0, so the
    first violation is rota_baxter at (0, 0)."""
    field = field_of(F)
    mu = G.poly_table(F, n)
    R = G.with_entry(F, _rb_operator(rng, F, n, 0), 0, 0,
                     _pick(rng, F, 1))
    A = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu))
    Rl = bh.RBOperator(to_map(field, R), field.zero())
    expected = Lazy(lambda: O.violations(F, O.rb_axioms(F, mu, R, 0)))

    def check(rep):
        return (report_agrees(rep, expected()) and _planted_first(rep, ("rota_baxter", (0, 0)))
                and rep.sub_checks == {"commutes_alpha": True, "commutes_beta": True})
    return Op(f"rb_check.n{n}.{_fname(F)}.fault", lambda: bh.check_rota_baxter(A, Rl), check)


def _dend_raw(F, n, lam):
    """The dendriform structure of rb_derive + tridend_to_dend for the
    weight-0 operator lam * integration on k[x]/(x^n)."""
    mu = G.poly_table(F, n)
    R = G.integration(F, n, lam)
    I = O.identity(n)
    return mu, R, O.twist_table(F, mu, I, R), O.twist_table(F, mu, R, I)


def tensor_quadri_op(rng, F, m1, m2):
    """Derive two dendriform algebras, take tensor_quadri, check_quadri.
    The derive and tensor steps run their own precondition checks."""
    field = field_of(F)
    parts = []
    for m in (m1, m2):
        mu, R, prec, succ = _dend_raw(F, m, _pick(rng, F, 2))
        A = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu))
        parts.append((A, bh.RBOperator(to_map(field, R), field.zero()), prec, succ))
    (A1, R1, p1, s1), (A2, R2, p2, s2) = parts
    nw, sw = O.tensor_tables(F, p1, p2), O.tensor_tables(F, p1, s2)
    ne, se = O.tensor_tables(F, s1, p2), O.tensor_tables(F, s1, s2)
    I = O.identity(m1 * m2)
    expected = Lazy(lambda: O.violations(F, O.quadri_axioms(F, nw, sw, ne, se, I, I)))

    def run():
        D1 = bh.tridend_to_dend(bh.rb_derive(A1, R1))
        D2 = bh.tridend_to_dend(bh.rb_derive(A2, R2))
        Qs = bh.tensor_quadri(D1, D2)
        return Qs, bh.check_quadri(Qs)

    def check(out):
        Qs, rep = out
        return ([raw_table(t) for t in (Qs.nw, Qs.sw, Qs.ne, Qs.se)] == [nw, sw, ne, se]
                and raw_map(Qs.alpha) == I and report_agrees(rep, expected()))
    return Op(f"tensor_quadri.n{m1 * m2}.{_fname(F)}", run, check)


def two_param_twist_op(rng, F, i, j):
    """Yau twist of the built-in dim-2 algebra by (alpha^i, beta^j), powers
    of its own structure maps; twisted valid structures stay valid."""
    field = field_of(F)
    a, b = _pick(rng, F, 2), _pick(rng, F, 3)
    if F.norm(a) == 1:  # keep 1 - a nonzero, so the zero pattern is fixed
        a = 2
    mu, alpha, beta = G.two_param(F, a, b)
    ai, bj = O.map_power(F, alpha, i), O.map_power(F, beta, j)
    tmu = O.twist_table(F, mu, ai, bj)
    ta, tb = O.compose(F, ai, alpha), O.compose(F, bj, beta)
    expected = Lazy(lambda: O.violations(F, O.assoc_axioms(F, tmu, ta, tb)))
    sa, sb = scalar(field, a), scalar(field, b)

    def run():
        A = bh.two_param_algebra(field, sa, sb)
        S = bh.yau_twist(A, A.alpha.power(i), A.beta.power(j))
        return S, bh.check_bihom_associative(S)

    def check(out):
        S, rep = out
        return (raw_table(S.mu) == tmu and raw_map(S.alpha) == ta
                and raw_map(S.beta) == tb and report_agrees(rep, expected()))
    return Op(f"two_param_twist.a{i}b{j}.{_fname(F)}", run, check)


BLOCK_FAULTS = {
    # kind: (operation names, the two operations planted in one block, first axiom)
    "dend": (("prec", "succ"), ("prec", "succ"), "dend_prec"),
    "tridend": (("prec", "succ", "dot"), ("prec", "succ"), "tridend_8"),
    "quadri": (("nw", "sw", "ne", "se"), ("nw", "se"), "quadri_11a"),
}
STRUCTURE_CLASSES = {"assoc": bh.BiHomAssociativeAlgebra, "dend": bh.BiHomDendriform,
                     "tridend": bh.BiHomTridendriform, "quadri": bh.BiHomQuadri}
KIND_OPS = {"assoc": ("mu",), "dend": ("prec", "succ"), "tridend": ("prec", "succ", "dot"),
            "quadri": ("nw", "sw", "ne", "se")}
AXIOMS = {"assoc": O.assoc_axioms, "dend": O.dend_axioms, "tridend": O.tridend_axioms,
          "quadri": O.quadri_axioms}
UNCAPPED = 10 ** 9


def _structure(field, kind, tables, alpha, beta):
    return STRUCTURE_CLASSES[kind](field, *(to_table(field, t) for t in tables),
                                   to_map(field, alpha), to_map(field, beta))


def block_fault_op(rng, F, kind, n):
    """Every operation acts inside the lines k e_k; each line carries a single
    nonzero operation, which satisfies every axiom, except line J, which
    carries two.  The first violation is then the kind's first braid axiom
    at (J, J, J)."""
    field = field_of(F)
    names, planted_ops, first_axiom = BLOCK_FAULTS[kind]
    J = rng.randrange(n)
    values = []
    for k in range(n):
        v = _pick(rng, F, 2)
        if k == J:
            values.append({name: v for name in planted_ops})
        else:
            values.append({rng.choice(names): v})
    tables = G.diag_blocks(F, n, names, values)
    I = O.identity(n)
    S = _structure(field, kind, tables, I, I)
    expected = Lazy(lambda: O.violations(F, AXIOMS[kind](F, *tables, I, I)))
    planted = (first_axiom, (J, J, J))

    def check(rep):
        return report_agrees(rep, expected()) and _planted_first(rep, planted)
    return Op(f"block.{kind}.n{n}.{_fname(F)}.fault", lambda: bh.check_structure(S), check)


def random_structure_op(rng, F, kind, n):
    """check_structure with no cap on dense random tables and random
    diagonal structure maps: nearly every axiom fails at many tuples, and
    the report must list every violation, in order, as the oracle does."""
    field = field_of(F)
    names = KIND_OPS[kind]
    tables = [O.make_table(F, [[[rng.randrange(F.p) for _ in range(n)] for _ in range(n)]
                               for _ in range(n)]) for _ in names]
    alpha = G.diag(F, [rng.randrange(1, F.p) for _ in range(n)])
    beta = G.diag(F, [rng.randrange(1, F.p) for _ in range(n)])
    S = _structure(field, kind, tables, alpha, beta)
    expected = Lazy(lambda: O.violations(F, AXIOMS[kind](F, *tables, alpha, beta)))
    return Op(f"random.{kind}.n{n}.{_fname(F)}.fault",
              lambda: bh.check_structure(S, cap=UNCAPPED),
              lambda rep: report_agrees(rep, expected(), cap=UNCAPPED))


def grb_op(rng, F, n, fault):
    """check_grb on the regular bimodule of k[x]/(x^n) with pi = lam *
    integration; the planted fault is the Rota-Baxter fault above, first
    violation grb at (0, 0)."""
    field = field_of(F)
    mu = G.poly_table(F, n)
    pi = _rb_operator(rng, F, n, 0)
    if fault:
        pi = G.with_entry(F, pi, 0, 0, _pick(rng, F, 1))
    A = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu))
    pil = bh.GRBOperator(to_map(field, pi))
    expected = Lazy(lambda: O.violations(F, O.grb_axioms(F, mu, mu, mu, pi)))

    def run():
        return bh.check_grb(A, bh.BiHomBimodule.regular(A), pil)

    def check(rep):
        return (report_agrees(rep, expected())
                and _planted_first(rep, ("grb", (0, 0)) if fault else None)
                and rep.sub_checks == {"commutes_alpha": True, "commutes_beta": True})
    return Op(f"grb.n{n}.{_fname(F)}.{'fault' if fault else 'ok'}", run, check)


def weak_twistor_op(rng, F, n, fault):
    """rb_pseudotwistor then check_weak_pseudotwistor on k[x]/(x^n).  The
    planted fault adds delta to T(e_0 (x) e_0) along e_0 (x) e_0, so weak_1
    fails first at (0, 0, 0)."""
    field = field_of(F)
    mu = G.poly_table(F, n)
    R = _rb_operator(rng, F, n, 0)
    I = O.identity(n)
    T, companion = O.rb_pseudotwistor_raw(F, R, 0)
    A = bh.BiHomAssociativeAlgebra.associative(field, to_table(field, mu))
    Rl = bh.RBOperator(to_map(field, R), field.zero())
    if fault:
        T = G.with_entry(F, T, 0, 0, _pick(rng, F, 1))
        Il = to_map(field, I)
        Wf = bh.WeakPseudotwistor(to_map(field, T), to_map(field, companion), Il, Il)
    expected = Lazy(lambda: O.violations(
        F, O.weak_pseudotwistor_axioms(F, mu, I, I, T, companion, I, I)))

    def run():
        W = Wf if fault else bh.rb_pseudotwistor(A, Rl)
        return W, bh.check_weak_pseudotwistor(A, W)

    def check(out):
        W, rep = out
        return (raw_map(W.T) == T and raw_map(W.companion) == companion
                and report_agrees(rep, expected())
                and _planted_first(rep, ("weak_1", (0, 0, 0)) if fault else None))
    return Op(f"weak_twistor.n{n}.{_fname(F)}.{'fault' if fault else 'ok'}", run, check)


# One round: 104 slots: 26 planted faults with a first violating tuple known
# by construction, and 4 random structures that fail nearly every axiom.
# The dim-9 quadri check is most of a round's time; the many small slots make
# the p90 latency a statistic of the mix, not of one operation.
ASSOC_TWISTS = [(3, Q, False), (4, Q, False), (5, Q, True), (6, Q, False), (7, Q, True),
                (8, Q, False), (3, F11, False), (4, F11, True), (5, F11, False),
                (6, F11, False), (7, F11, False), (8, F11, False), (3, Q, False),
                (4, Q, False), (5, Q, False), (6, Q, False), (3, F11, True), (4, F11, True),
                (5, F11, True), (6, F11, True)]
DERIVES = [(2, Q, 0), (3, Q, 0), (4, Q, 0), (5, Q, 0), (2, Q, 1), (3, Q, 1), (4, Q, 1),
           (5, Q, 1), (2, F13, 0), (3, F13, 0), (4, F13, 0), (5, F13, 0), (2, F13, 1),
           (3, F13, 1), (4, F13, 1)]
RB_FAULTS = [(2, Q), (3, Q), (4, Q), (5, Q), (2, F13), (3, F13), (4, F13), (5, F13)]
TENSOR_QUADRIS = [(2, 2), (2, 3), (3, 3)]
TWO_PARAM_TWISTS = [(F, i, j) for F in (Q, F11) for i in range(3) for j in range(3)]
BLOCK_FAULT_CASES = [("dend", 4, Q), ("tridend", 5, F11), ("quadri", 4, Q),
                     ("dend", 3, F11), ("tridend", 4, Q), ("quadri", 3, F13)]
GRBS = [(n, F, fault) for n in (2, 3, 4) for F, fault in ((Q, False), (F13, False), (Q, True))]
WEAK_TWISTORS = [(2, Q, False), (3, F13, False), (2, Q, True), (2, F13, False),
                 (2, F13, True), (3, Q, False)]


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [assoc_twist_op(rng, F, n, fault) for n, F, fault in ASSOC_TWISTS]
    for n, F, w in DERIVES:
        ops += derive_ops(rng, F, n, w)
    ops += [rb_fault_op(rng, F, n) for n, F in RB_FAULTS]
    ops += [tensor_quadri_op(rng, Q, m1, m2) for m1, m2 in TENSOR_QUADRIS]
    ops += [two_param_twist_op(rng, F, i, j) for F, i, j in TWO_PARAM_TWISTS]
    ops += [block_fault_op(rng, F, kind, n) for kind, n, F in BLOCK_FAULT_CASES]
    ops += [random_structure_op(rng, F5, kind, 3) for kind in KIND_OPS]
    ops += [grb_op(rng, F, n, fault) for n, F, fault in GRBS]
    ops += [weak_twistor_op(rng, F, n, fault) for n, F, fault in WEAK_TWISTORS]
    rng.shuffle(ops)
    return ops
