"""Self-tests of the benchmark: the oracles, a smoke-size run of every
workload, and the runner's behaviour with and without the library sources.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles as O  # noqa: E402
import rawgen as G  # noqa: E402

Q, F11, F13 = O.RawField(), O.RawField(11), O.RawField(13)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(F, axioms):
    bad = O.violations(F, axioms)
    return bad[0][:2] if bad else None


# -- oracles: known-good cases pass, planted faults fail where constructed ----

@pytest.mark.parametrize("F", [Q, F11])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_assoc_twist_and_unit_fault(F, n):
    sc, sd = G.sigma(F, n, 2), G.sigma(F, n, 3)
    mu = O.twist_table(F, G.poly_table(F, n), sc, sd)
    assert first(F, O.assoc_axioms(F, mu, sc, sd)) is None
    for J in range(1, n):
        bad = O.twist_table(F, G.unit_fault(F, G.poly_table(F, n), J), sc, sd)
        assert first(F, O.assoc_axioms(F, bad, sc, sd)) == ("bihom_associativity", (0, 0, J))


@pytest.mark.parametrize("F", [Q, F13])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_rota_baxter_grb_and_derived_structures(F, n):
    mu, I = G.poly_table(F, n), O.identity(n)
    for R, w in ((G.integration(F, n, 2), 0), (O.map_scale(F, F.norm(-1), I), 1)):
        assert first(F, O.rb_axioms(F, mu, R, w)) is None
        prec, succ = O.twist_table(F, mu, I, R), O.twist_table(F, mu, R, I)
        dot = O.table_scale(F, w, mu)
        assert first(F, O.tridend_axioms(F, prec, succ, dot, I, I)) is None
        assert first(F, O.assoc_axioms(F, O.table_add(F, prec, succ, dot), I, I)) is None
    R = G.integration(F, n, 2)
    assert first(F, O.grb_axioms(F, mu, mu, mu, R)) is None
    bad = G.with_entry(F, R, 0, 0, 1)
    assert first(F, O.rb_axioms(F, mu, bad, 0)) == ("rota_baxter", (0, 0))
    assert first(F, O.grb_axioms(F, mu, mu, mu, bad)) == ("grb", (0, 0))


def test_tensor_quadri_of_derived_dendriforms():
    parts = []
    for m in (2, 3):
        mu, R, I = G.poly_table(Q, m), G.integration(Q, m, 2), O.identity(m)
        parts.append((O.twist_table(Q, mu, I, R), O.twist_table(Q, mu, R, I), mu))
    (p1, s1, mu1), (p2, s2, mu2) = parts
    tables = [O.tensor_tables(Q, a, b) for a, b in ((p1, p2), (p1, s2), (s1, p2), (s1, s2))]
    I6 = O.identity(6)
    assert first(Q, O.quadri_axioms(Q, *tables, I6, I6)) is None
    for k in range(4):  # one operation replaced by the tensor square of the products
        broken = list(tables)
        broken[k] = O.tensor_tables(Q, mu1, mu2)
        assert first(Q, O.quadri_axioms(Q, *broken, I6, I6)) == ("quadri_11a", (0, 0, 0))


@pytest.mark.parametrize("kind,names,planted,axiom", [
    ("dend", ("prec", "succ"), ("prec", "succ"), "dend_prec"),
    ("tridend", ("prec", "succ", "dot"), ("prec", "succ"), "tridend_8"),
    ("quadri", ("nw", "sw", "ne", "se"), ("nw", "se"), "quadri_11a"),
])
def test_block_faults(kind, names, planted, axiom):
    evaluate = {"dend": O.dend_axioms, "tridend": O.tridend_axioms,
                "quadri": O.quadri_axioms}[kind]
    n, I = 4, O.identity(4)
    good = [{names[k % len(names)]: 2} for k in range(n)]
    assert first(Q, evaluate(Q, *G.diag_blocks(Q, n, names, good), I, I)) is None
    for J in range(n):
        values = list(good)
        values[J] = {name: 2 for name in planted}
        assert first(Q, evaluate(Q, *G.diag_blocks(Q, n, names, values), I, I)) == \
            (axiom, (J, J, J))


@pytest.mark.parametrize("F,n", [(Q, 2), (Q, 3), (F13, 2)])
def test_weak_pseudotwistor(F, n):
    mu, I = G.poly_table(F, n), O.identity(n)
    T, companion = O.rb_pseudotwistor_raw(F, G.integration(F, n, 2), 0)
    assert first(F, O.weak_pseudotwistor_axioms(F, mu, I, I, T, companion, I, I)) is None
    bad = G.with_entry(F, T, 0, 0, 1)
    assert first(F, O.weak_pseudotwistor_axioms(F, mu, I, I, bad, companion, I, I)) == \
        ("weak_1", (0, 0, 0))


def test_search_oracle_and_closed_form():
    for p in (3, 5, 7):
        F = O.RawField(p)
        for c in range(1, p):
            for w in range(p):
                hits = O.brute_force_hits(F, G.line(F, c), "rb", w)
                assert [h[0][0] for h in hits] == O.line_rb_closed_form(p, w)
    F3 = O.RawField(3)
    mu, _, _ = G.two_param(F3, 2, 1)
    assert O.decode_candidate(3, 2, 1 + 3 * 2) == [[1, 2], [0, 0]]
    hits = O.brute_force_hits(F3, mu, "rb", 0)
    assert [[0, 0], [0, 0]] in hits and len(hits) < 3 ** 4


def test_tree_oracles():
    assert [O.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    import bihomalg as bh
    t = bh.parse_tree("(L[1,2;1] (L[0,2;0] L[3,0;2]){1}){3}")
    assert O.serialize_rb_tree(t.tree, t.leaf_powers, t.vertex_powers) == \
        "(L[1,2;1] (L[0,2;0] L[3,0;2]){1}){3}"


def test_literal_reader():
    env = {"a": 2, "b": 3}
    assert O.eval_literal("(-a*a*a*b+a*b)/(a*a)", env) == O.Fraction(-9, 2)
    assert O.eval_literal("-(r1*(r1+1))/r2", {"r1": 2, "r2": 3}) == -2


# -- the checks reject wrong outputs --------------------------------------------

def test_checks_reject_tampered_outputs():
    import bihomalg as bh
    import wl_concrete
    import wl_trees
    ops = wl_concrete.build(3)
    faults = [op for op in ops if op.case.startswith("rb_check") and op.case.endswith("fault")]
    assert faults
    for op in faults:
        rep = op.run()
        assert op.check(rep)
        assert not op.check(bh.CheckReport())              # a missed fault
        rep.violations = rep.violations[1:]
        assert not op.check(rep)                           # a wrong first tuple
    reduces = [op for op in wl_trees.build(3) if op.case.endswith(".nonzero_sum")][:1]
    assert reduces
    op = reduces[0]
    assert not op.check(bh.FreeElement.zero(bh.FieldSpec.rational(), 1))


# -- the runner ------------------------------------------------------------------

def run_bench(workload, trace, cwd=ROOT, env_extra=None):
    env = dict(os.environ, PYTHONPATH="src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ratio 0" in proc.stdout


def test_traced_run_emits_every_per_layer_metric():
    proc = run_bench("check-symbolic", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_runner_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("search", 0, cwd=tmp_path, env_extra={"PYTHONPATH": ""})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
