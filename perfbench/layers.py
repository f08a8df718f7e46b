"""Layer microbenchmarks: each module's hot entry points timed in isolation,
untraced, on fixed inputs.  They match the per-layer table of the roadmap
(scalar ops per field kind, compose and tensor2, each checker by kind and
dimension, the reducer build per window, search rate per case) so a change
to one layer can cite these figures as its "before".

Each figure is the median over a few repeats of the mean time per call, in
reference seconds (refclock.py).
"""

from __future__ import annotations

import random
import statistics

import bihomalg as bh

import oracles as O
import rawgen as G
import wl_trees
from bridge import INPUTS, to_map, to_table
from wl_search import algebra

Q, F3 = O.RawField(), O.RawField(3)
QQ = bh.FieldSpec.rational()


def per_call(clock, fn, calls=1, repeats=3):
    """Median over `repeats` of the mean reference seconds per call of fn
    over `calls` calls."""
    def batch():
        for _ in range(calls):
            fn()
    return statistics.median(clock.time(batch) / calls for _ in range(repeats))


def m(value, unit):
    return {"value": value, "unit": unit}


def _assoc(F, n, c=2, d=3):
    """The Yau twist of k[x]/(x^n) by x -> c x, x -> d x."""
    alpha, beta = G.sigma(F, n, c), G.sigma(F, n, d)
    return algebra(F, O.twist_table(F, G.poly_table(F, n), alpha, beta), alpha, beta)


def _two_param_f3():
    return algebra(F3, *G.two_param(F3, 2, 1))


def _poly(field, n):
    F = O.RawField(field.p)
    return bh.BiHomAssociativeAlgebra.associative(field, to_table(field, G.poly_table(F, n)))


def _integration(field, n, lam=1):
    return bh.RBOperator(to_map(field, G.integration(O.RawField(field.p), n, lam)),
                         field.zero())


def _dend(n, lam):
    return bh.tridend_to_dend(bh.rb_derive(_poly(QQ, n), _integration(QQ, n, lam)))


def scalars(clock):
    out = {}
    rf = bh.FieldSpec.rational_function("a", "b")
    pairs = {
        "rational": (QQ.parse("3/7"), QQ.parse("-5/11"), 2000),
        "prime": (bh.FieldSpec.prime(5).from_int(3), bh.FieldSpec.prime(5).from_int(4), 2000),
        "rational_function": (rf.parse("(a+b)/(a-1)"), rf.parse("(2*a*b+1)/(b+3)"), 200),
    }
    for kind, (x, y, calls) in pairs.items():
        out[f"scalars.mul_us.{kind}"] = m(1e6 * per_call(clock, lambda: x * y, calls, 5), "us")
        out[f"scalars.add_us.{kind}"] = m(1e6 * per_call(clock, lambda: x + y, calls, 5), "us")
    x, y, _ = pairs["rational_function"]
    z = (x * y) / y
    out["scalars.eq_us.rational_function"] = m(1e6 * per_call(clock, lambda: z == x, 200, 5), "us")
    out["scalars.parse_us.rational_function"] = m(
        1e6 * per_call(clock, lambda: rf.parse("(a*b+1)/(a-2)"), 200, 5), "us")
    return out


def linalg(clock):
    out = {}
    for n in (3, 9):
        A = _assoc(Q, n)
        mat = A.mu.as_matrix()
        t2 = bh.tensor2(mat, A.beta)
        reps = 3 if n == 3 else 1
        calls = 50 if n == 3 else 1
        out[f"linalg.compose_ms.n{n}"] = m(1e3 * per_call(clock, lambda: mat.compose(t2), calls, reps), "ms")
        out[f"linalg.tensor2_ms.n{n}"] = m(
            1e3 * per_call(clock, lambda: bh.tensor2(mat, A.beta), calls, reps), "ms")
    table = _two_param_f3().mu
    R = bh.index_to_matrix(table.field, 2, 40)
    out["linalg.table_twist_us.n2"] = m(1e6 * per_call(clock, lambda: table.twist(R, R), 500, 5), "us")
    out["linalg.as_matrix_us.n2"] = m(1e6 * per_call(clock, table.as_matrix, 2000, 5), "us")
    return out


def structures(clock):
    out = {}
    cases = {
        "assoc.n8": (_assoc(Q, 8), 3),
        "dend.n4": (_dend(4, 2), 3),
        "tridend.n5": (bh.rb_derive(_poly(QQ, 5), _integration(QQ, 5, 3)), 3),
        "quadri.n4": (bh.tensor_quadri(_dend(2, 1), _dend(2, 2)), 3),
        "quadri.n9": (bh.tensor_quadri(_dend(3, 1), _dend(3, 2)), 1),
    }
    for name, (S, reps) in cases.items():
        out[f"structures.check_ms.{name}"] = m(
            1e3 * per_call(clock, lambda: bh.check_structure(S), 1, reps), "ms")
    D1, D2 = _dend(3, 1), _dend(3, 2)
    out["structures.tensor_quadri_ms.n9"] = m(
        1e3 * per_call(clock, lambda: bh.tensor_quadri(D1, D2), 1, 3), "ms")
    return out


def rota_baxter(clock):
    A2 = _two_param_f3()
    R2 = bh.RBOperator(bh.index_to_matrix(A2.field, 2, 40), A2.field.zero())
    A5, R5 = _poly(QQ, 5), _integration(QQ, 5, 2)
    return {
        "rota_baxter.check_rb_us.n2.prime": m(
            1e6 * per_call(clock, lambda: bh.check_rota_baxter(A2, R2), 200, 5), "us"),
        "rota_baxter.check_rb_ms.n5.rational": m(
            1e3 * per_call(clock, lambda: bh.check_rota_baxter(A5, R5), 10, 3), "ms"),
    }


def search(clock):
    out = {}
    f2, A2 = bh.FieldSpec.prime(2), _two_param_f3()
    f3 = A2.field
    cases = {
        "rb_w0.d2.f3": (lambda: bh.enumerate_rb(A2, f3.zero()), 3),
        "rb_w1.d2.f3": (lambda: bh.enumerate_rb(A2, f3.one()), 3),
        "baxter_left.d2.f3": (lambda: bh.enumerate_baxter(A2, "left"), 3),
        "baxter_right.d2.f3": (lambda: bh.enumerate_baxter(A2, "right"), 3),
        "rb_w0.d3.f2": (lambda: bh.enumerate_rb(_poly(f2, 3), f2.zero()), 1),
    }
    for name, (call, reps) in cases.items():
        results = []

        def run():
            results.append(call())
        seconds = per_call(clock, run, 1, reps)
        res = results[-1]
        out[f"search.candidates_per_s.{name}"] = m(res.examined / seconds, "1/s")
        out[f"search.hit_ratio.{name}"] = m(res.found / res.examined, "ratio")
    return out


def trees(clock):
    out = {}
    reducer = None
    for label, rank, bounds in wl_trees.WINDOWS:
        holder = []
        seconds = per_call(clock, lambda: holder.append(bh.TruncatedIdealReducer(QQ, rank, bounds)), 1, 1)
        out[f"trees.build_s.{label}"] = m(seconds, "s")
        if label == "w311r1":
            reducer = holder[-1]
    rng = random.Random(7)
    members = [wl_trees.ideal_member(rng, 1, wl_trees.WINDOWS[0][2]) for _ in range(50)]
    out["trees.reduce_us"] = m(
        1e6 * per_call(clock, lambda: [reducer.reduce(x) for x in members], 1, 5) / len(members), "us")
    return out


def specfile(clock):
    out = {}
    texts = {
        "sym_w1f3": (INPUTS / "sym_w1f3.json").read_text(),
        "quadri_n9": bh.serialize({"structure": bh.tensor_quadri(_dend(3, 1), _dend(3, 2))}),
    }
    for name, text in texts.items():
        parts = bh.parse_spec(text)
        calls = 20 if name.startswith("sym") else 1
        out[f"specfile.parse_ms.{name}"] = m(
            1e3 * per_call(clock, lambda: bh.parse_spec(text), calls, 3), "ms")
        out[f"specfile.serialize_ms.{name}"] = m(
            1e3 * per_call(clock, lambda: bh.serialize(parts), calls, 3), "ms")
    return out


def others(clock):
    out = {}
    for fid in bh.FAMILY_IDS:
        out[f"families.verify_ms.{fid}"] = m(
            1e3 * per_call(clock, lambda: bh.verify_parametric_family(fid), 5, 3), "ms")
    A3, R3 = _poly(QQ, 3), _integration(QQ, 3)
    W = bh.rb_pseudotwistor(A3, R3)
    out["pseudotwistors.check_weak_ms.n3"] = m(
        1e3 * per_call(clock, lambda: bh.check_weak_pseudotwistor(A3, W), 5, 3), "ms")
    A2 = _poly(QQ, 2)
    M = bh.BiHomBimodule.regular(A2)
    pi = bh.GRBOperator(_integration(QQ, 2).map)
    out["bimodules.check_grb_us.n2"] = m(
        1e6 * per_call(clock, lambda: bh.check_grb(A2, M, pi), 200, 5), "us")
    return out


def sweep(clock):
    out = {}
    for layer in (scalars, linalg, structures, rota_baxter, search, trees, specfile, others):
        out.update(layer(clock))
    return out

