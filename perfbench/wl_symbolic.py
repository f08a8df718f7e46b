"""check-symbolic: the check pipeline over Q(params).

Why: a rational_function multiply costs an order of magnitude more than a Q
or F_p one, so a kernel change aimed at Q/F_p could slow this path without
any other workload showing it.  It also covers specfile parse/serialize,
cli.main on committed spec files, and the growth of unreduced Q(params)
terms along twist-derive-check chains.

The operations and their cost do not depend on the seed: the seed picks the
rational sample points the oracles evaluate at and the order of the round.
"""

from __future__ import annotations

import json
import random

import bihomalg as bh

import oracles as O
import rawgen as G
from bridge import GOLDEN, INPUTS, Lazy, Op, cli_op

Q = O.RawField()

PARAMS = ("a", "b", "r", "r1", "r2")
FAMILIES = ("w0f1", "w0f2", "w1f1", "w1f2", "w1f3", "w1f4")
# twist patterns (alpha power, beta power) applied `depth` times before
# rb_derive with w1f3 (R = -id, weight 1), which commutes with every map
CHAINS = [(p, d) for p in ((1, 0), (0, 1), (1, 1)) for d in (1, 2, 3)] \
    + [(p, d) for p in ((2, 0), (0, 2)) for d in (1, 2)]
# copies of the cheap operations per round, so a round has over 100 slots
FAMILY_COPIES, ROUNDTRIP_COPIES, CLI_COPIES = 2, 3, 4

ALPHA_JSON = json.dumps([["1", "b*(1-a)/a"], ["0", "a"]])
ID_JSON = json.dumps([["1", "0"], ["0", "1"]])


def cli_cases():
    """(golden name, argv) of every cli.main call the workload makes; each
    exits 0 at the seed."""
    spec = lambda fid: str(INPUTS / f"sym_{fid}.json")
    cases = [(f"check_{fid}", ["check", spec(fid)]) for fid in FAMILIES]
    cases += [(f"verify_{fid}", ["verify-family", fid]) for fid in FAMILIES]
    cases += [
        ("derive_tridend_w1f3", ["derive", spec("w1f3"), "--via", "rb-tridend"]),
        ("derive_double_w1f3", ["derive", spec("w1f3"), "--via", "rb-double"]),
        ("derive_yau_w1f3", ["derive", spec("w1f3"), "--via", "yau",
                             "--atilde", ALPHA_JSON, "--btilde", ID_JSON]),
    ]
    return cases


def _point(rng):
    return {name: rng.choice([2, 3, 5, -2, -3, 7]) * rng.choice([1, 1, 1, -1])
            for name in PARAMS}


def _eval_table(t, point):
    values = [point[name] for name in t.field.params]
    consts = [[[O.eval_ratfunc(x.value, values) for x in col] for col in row]
              for row in t.constants]
    return O.make_table(Q, consts)


def chain_op(rng, pattern, depth):
    """depth Yau twists by (alpha^i, beta^j) of the symbolic two-parameter
    algebra, rb_derive with w1f3, check_tridendriform.  Verdict known from
    the paper (twists and derivations of valid structures are valid); the
    tables are also evaluated at a rational point and compared with the same
    chain computed on raw rationals, whose axioms are evaluated elementwise."""
    i, j = pattern
    point = _point(rng)
    A = bh.symbolic_two_param_algebra()
    R = bh.symbolic_rb_family("w1f3")
    ai, bj = A.alpha.power(i), A.beta.power(j)

    def expected():
        mu, alpha, beta = G.two_param(Q, point["a"], point["b"])
        ti, tj = O.map_power(Q, alpha, i), O.map_power(Q, beta, j)
        for _ in range(depth):
            mu = O.twist_table(Q, mu, ti, tj)
            alpha, beta = O.compose(Q, ti, alpha), O.compose(Q, tj, beta)
        prec = O.table_scale(Q, -1, mu)  # x R(y) and R(x) y with R = -id
        tables = (prec, prec, mu)
        bad = O.violations(Q, O.tridend_axioms(Q, *tables, alpha, beta))
        return tables, bad
    expected = Lazy(expected)

    def run():
        S = A
        for _ in range(depth):
            S = bh.yau_twist(S, ai, bj)
        T = bh.rb_derive(S, R)
        return T, bh.check_tridendriform(T)

    def check(out):
        T, rep = out
        tables, bad = expected()
        got = tuple(_eval_table(t, point) for t in (T.prec, T.succ, T.dot))
        return rep.passed and not bad and got == tables
    return Op(f"chain.a{i}b{j}.d{depth}", run, check)


def family_op(fid):
    """verify_parametric_family in symbolic mode: the paper's six families
    are Rota-Baxter operators, so each passes."""
    return Op(f"verify_family.{fid}", lambda: bh.verify_parametric_family(fid),
              lambda rep: rep.passed)


def _literals(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for x in doc:
            yield from _literals(x)
    elif isinstance(doc, dict):
        for k in sorted(doc):
            if k not in ("field", "dim", "kind", "side"):
                yield from _literals(doc[k])


def roundtrip_op(rng, fid):
    """parse_spec then serialize on a committed spec file.  The output must
    match the golden bytes (a regression baseline), and every scalar must
    keep its value at a rational point, read by the oracles' own parser."""
    text = (INPUTS / f"sym_{fid}.json").read_text()
    golden = (GOLDEN / f"roundtrip_{fid}.json").read_text()
    point = _point(rng)
    before = Lazy(lambda: [O.eval_literal(s, point) for s in _literals(json.loads(text))])

    def run():
        return bh.serialize(bh.parse_spec(text))

    def check(out):
        after = [O.eval_literal(s, point) for s in _literals(json.loads(out))]
        return out + "\n" == golden and after == before()
    return Op(f"spec_roundtrip.{fid}", run, check)


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [family_op(fid) for fid in FAMILIES] * FAMILY_COPIES
    ops += [chain_op(rng, p, d) for p, d in CHAINS]
    ops += [roundtrip_op(rng, fid) for fid in FAMILIES for _ in range(ROUNDTRIP_COPIES)]
    ops += [cli_op(name, argv) for name, argv in cli_cases()] * CLI_COPIES
    rng.shuffle(ops)
    return ops
