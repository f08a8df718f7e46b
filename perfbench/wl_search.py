"""search: one enumerate_rb (weight 0 and a seeded nonzero weight) or
enumerate_baxter (left and right) call per operation, including the
library's second verification pass.

Why: many small calls (dims 1-2 over small prime fields) run the same linalg and
rota_baxter code that check-concrete runs at large dims, so a kernel that
wins on big matrices but adds per-call overhead shows here; two large calls
(dim 2 over F_7, dim 3 over F_2) carry the per-candidate cost.  jobs=1
throughout: the process pool is not measured.

Every slot has a fixed field, dimension and zero pattern; the seed picks the
nonzero structure constants and weights, so the candidate count and the
cost per candidate of a round do not depend on it.
"""

from __future__ import annotations

import random

import bihomalg as bh

import oracles as O
import rawgen as G
from bridge import Lazy, Op, field_of, scalar, to_map, to_table


def algebra(F, mu, alpha=None, beta=None):
    """The library algebra of raw (mu, alpha, beta); maps default to the identity."""
    field = field_of(F)
    n = mu[0]
    alpha = alpha or O.identity(n)
    beta = beta or O.identity(n)
    return bh.BiHomAssociativeAlgebra(field, to_table(field, mu),
                                      to_map(field, alpha), to_map(field, beta))


def search_op(F, mu, A, kind, param, label):
    """kind "rb" with param = weight, or "baxter" with param = side.  The
    oracle enumerates every candidate itself and evaluates the identity
    elementwise; on dim 1 the Rota-Baxter hits also match r in {0, -w}."""
    field = A.field
    n, p = mu[0], F.p
    expected = Lazy(lambda: O.brute_force_hits(F, mu, kind, param))
    closed_form = kind == "rb" and n == 1
    weight = scalar(field, param) if kind == "rb" else None

    def run():
        if kind == "rb":
            return bh.enumerate_rb(A, weight, jobs=1)
        return bh.enumerate_baxter(A, param, jobs=1)

    def check(res):
        hits = expected()
        got = [[[x.value for x in row] for row in m.entries] for m in res.operators]
        return (res.examined == p ** (n * n) and res.found == len(hits) and got == hits
                and (not closed_form
                     or [h[0][0] for h in hits] == O.line_rb_closed_form(p, param)))
    return Op(f"{kind}.{param}.d{n}.f{p}.{label}", run, check, units=p ** (n * n))


def _all_calls(F, mu, A, label, rng):
    w = rng.randrange(1, F.p)
    return [search_op(F, mu, A, "rb", 0, label), search_op(F, mu, A, "rb", w, label),
            search_op(F, mu, A, "baxter", "left", label),
            search_op(F, mu, A, "baxter", "right", label)]


def dim2algebra(rng, F, kind):
    """A seeded dim-2 BiHom-associative algebra over F_p with a fixed zero
    pattern: the Yau twist of k[x]/(x^2) by x -> c x, x -> d x, the direct
    sum of two lines, the null algebra e0 e0 = c e1, or the built-in
    two-parameter algebra."""
    nz = lambda: rng.randrange(1, F.p)
    if kind == "poly":
        c, d = nz(), nz()
        alpha, beta = G.sigma(F, 2, c), G.sigma(F, 2, d)
        return O.twist_table(F, G.poly_table(F, 2), alpha, beta), alpha, beta
    if kind == "sum":
        return (2, 2, 2, {(0, 0): {0: nz()}, (1, 1): {1: nz()}}), None, None
    if kind == "null":
        return (2, 2, 2, {(0, 0): {1: nz()}}), None, None
    # a = 2 over F_3 and a = 1 over F_2 keep the zero pattern fixed
    return G.two_param(F, 2 % F.p or 1, nz())


# One round: 102 calls.  100 have small candidate spaces (dims 1-2 over
# F_2/F_3/F_5/F_7/F_11); 2 have large ones (dim 2 over F_7, dim 3 over F_2).
LINE_FIELDS = (2, 3, 5, 7, 11)
DIM2_ALGEBRAS = [(2, kind) for kind in ("poly", "sum", "null", "two_param")] * 2 \
    + [(3, kind) for kind in ("poly", "sum", "null", "two_param", "two_param", "null", "sum")]


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for p in LINE_FIELDS * 2:
        F = O.RawField(p)
        mu = G.line(F, rng.randrange(1, p))
        ops += _all_calls(F, mu, algebra(F, mu), "line", rng)
    for p, kind in DIM2_ALGEBRAS:
        F = O.RawField(p)
        mu, alpha, beta = dim2algebra(rng, F, kind)
        ops += _all_calls(F, mu, algebra(F, mu, alpha, beta), kind, rng)
    F7, F2 = O.RawField(7), O.RawField(2)
    mu, alpha, beta = G.two_param(F7, rng.randrange(2, 7), rng.randrange(1, 7))
    ops.append(search_op(F7, mu, algebra(F7, mu, alpha, beta), "rb", 0, "two_param"))
    mu = G.poly_table(F2, 3)
    ops.append(search_op(F2, mu, algebra(F2, mu), "rb", 0, "poly"))
    rng.shuffle(ops)
    return ops
