"""Write the benchmark's committed inputs and goldens.

    PYTHONPATH=src python3 perfbench/gen_inputs.py

inputs/  spec and element files, written by this script from fixed formulas
         and a fixed generator seed (the paper's two-parameter algebra with
         each of its six Rota-Baxter families; two free elements for
         `trees reduce`).  They do not change with the benchmark's --seed.
golden/  what the library printed for them when this script was run: the
         stdout of every cli.main call the workloads make, and the bytes of
         serialize(parse_spec(file)).  These are regression baselines for
         the "CLI output and spec bytes stay identical" gate, not correctness
         oracles; regenerate them only on purpose.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bihomalg as bh  # noqa: E402

import oracles as O  # noqa: E402
from bridge import GOLDEN, INPUTS, run_cli  # noqa: E402
import wl_symbolic  # noqa: E402
import wl_trees  # noqa: E402

GENERATOR_SEED = 20170321

TWO_PARAM = {
    "tables": {"mu": [[["1", "0"], ["b", "1-a"]], [["b*(1-a)/a", "a"], ["0", "b/a"]]]},
    "alpha": [["1", "b*(1-a)/a"], ["0", "a"]],
    "beta": [["1", "b"], ["0", "1-a"]],
}
FAMILY_MATRICES = {
    "w0f1": ([["0", "r"], ["0", "0"]], "0"),
    "w0f2": ([["r1", "-(r1*r1)/r2"], ["r2", "-r1"]], "0"),
    "w1f1": ([["-1", "r"], ["0", "0"]], "1"),
    "w1f2": ([["0", "r"], ["0", "-1"]], "1"),
    "w1f3": ([["-1", "0"], ["0", "-1"]], "1"),
    "w1f4": ([["r1", "-(r1*(r1+1))/r2"], ["r2", "-(r1+1)"]], "1"),
}


def family_spec(fid):
    matrix, weight = FAMILY_MATRICES[fid]
    doc = {"field": {"kind": "rational_function", "params": list(wl_symbolic.PARAMS)},
           "dim": 2, "kind": "assoc", **TWO_PARAM,
           "rota_baxter": {"matrix": matrix, "weight": weight}}
    return json.dumps(doc, indent=2) + "\n"


def _leaf_text(a, b, f):
    return f"L[{a},{b};{f}]"


def member_terms(rng, count):
    """count generators (t1 t2)beta(t3) - alpha(t1)(t2 t3) on single leaves
    of the (3,1,1) window, with random coefficients."""
    terms = []
    for _ in range(count):
        (a1, b1), (a2, b2), (a3, b3) = (0, rng.randint(0, 1)), \
            (rng.randint(0, 1), rng.randint(0, 1)), (rng.randint(0, 1), 0)
        f1, f2, f3 = (rng.randint(0, 1) for _ in range(3))
        c = rng.choice([1, 2, 3, -1])
        left = f"(({_leaf_text(a1, b1, f1)} {_leaf_text(a2, b2, f2)}){{0}} " \
               f"{_leaf_text(a3, b3 + 1, f3)}){{0}}"
        right = f"({_leaf_text(a1 + 1, b1, f1)} " \
                f"({_leaf_text(a2, b2, f2)} {_leaf_text(a3, b3, f3)}){{0}}){{0}}"
        terms += [{"tree": left, "word": [0, 0, 0], "coeff": str(c)},
                  {"tree": right, "word": [0, 0, 0], "coeff": str(-c)}]
    return terms


def generic_terms(rng, count):
    shapes = {n: bh.enumerate_trees(n) for n in range(1, 4)}
    terms = []
    for _ in range(count):
        t = wl_trees.random_tree(rng, shapes, 3, 1, 1)
        terms.append({"tree": O.serialize_rb_tree(t.tree, t.leaf_powers, t.vertex_powers),
                      "word": [0] * t.leaves,
                      "coeff": f"{rng.choice([1, 2, -3])}/{rng.choice([1, 2, 5])}"})
    return terms


def write_inputs():
    INPUTS.mkdir(exist_ok=True)
    for fid in wl_symbolic.FAMILIES:
        (INPUTS / f"sym_{fid}.json").write_text(family_spec(fid))
    rng = random.Random(GENERATOR_SEED)
    for name, terms in (("trees_member", member_terms(rng, 2)),
                        ("trees_generic", generic_terms(rng, 4))):
        doc = {"field": {"kind": "rational"}, "rank": 1, "terms": terms}
        (INPUTS / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for fid in wl_symbolic.FAMILIES:
        text = (INPUTS / f"sym_{fid}.json").read_text()
        (GOLDEN / f"roundtrip_{fid}.json").write_text(bh.serialize(bh.parse_spec(text)) + "\n")
    for name, argv in wl_symbolic.cli_cases() + list(wl_trees.CLI_CASES):
        rc, out = run_cli(argv)
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        (GOLDEN / f"cli_{name}.out").write_text(out)


if __name__ == "__main__":
    write_inputs()
    write_goldens()
