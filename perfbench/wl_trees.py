"""trees: per truncation window, one TruncatedIdealReducer build (the write
side), then a batch of reduce calls (the read side, one element per
operation); then tree enumerate, serialize/parse round trips, action_eval
and `bihomalg trees ...` through cli.main.

Why: the tree engine does almost no work in the other workloads.  Build and
reduce use it in opposite ways (build: generator products and term keys;
reduce: pivot lookups and subtraction), so lazy generators, tuple keys and
a one-pass reduce each move a different metric.  The windows are fixed; the
seed picks the elements, trees and coefficients.  The (3,2,1) rank-2 window
(about 10 s and 300 MB per build) is left out so a run stays within its
time; see README.md.
"""

from __future__ import annotations

import random
from fractions import Fraction

import bihomalg as bh

import oracles as O
import rawgen as G
from bridge import INPUTS, Lazy, Op, cli_op, raw_vec, to_map, to_table

Q = O.RawField()
QQ = bh.FieldSpec.rational()

# (label, rank, bounds)
WINDOWS = (
    ("w311r1", 1, {"max_leaves": 3, "max_ab_power": 1, "max_r_power": 1}),
    ("w311r2", 2, {"max_leaves": 3, "max_ab_power": 1, "max_r_power": 1}),
    ("w321r1", 1, {"max_leaves": 3, "max_ab_power": 2, "max_r_power": 1}),
)
ELEMENTS_PER_WINDOW = 100
CLI_CASES = (
    ("trees_reduce_member", ["trees", "reduce", str(INPUTS / "trees_member.json"),
                             "--max-leaves", "3", "--max-ab", "1", "--max-r", "1"]),
    ("trees_reduce_generic", ["trees", "reduce", str(INPUTS / "trees_generic.json"),
                              "--max-leaves", "3", "--max-ab", "1", "--max-r", "1"]),
    ("trees_enumerate_4", ["trees", "enumerate", "-n", "4"]),
)


def _coeff(rng):
    return Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 1, 2, 3]))


def _leaf(rng, rank, amax, bmax, rmax):
    t = bh.RBAugTree(bh.LEAF, ((rng.randint(0, amax), rng.randint(0, bmax)),),
                     (rng.randint(0, rmax),))
    return bh.FreeElement.generator(QQ, rank, t, (rng.randrange(rank),))


def ideal_member(rng, rank, bounds):
    """A combination of (t1 t2)beta(t3) - alpha(t1)(t2 t3) generators and
    their alpha/beta images, every term inside the window."""
    ab, r = bounds["max_ab_power"], bounds["max_r_power"]
    total = bh.FreeElement.zero(QQ, rank)
    # an alpha or beta image needs room for one more power on every leaf
    images = ["none", "alpha", "beta"] if ab >= 2 else ["none"]
    for _ in range(rng.randint(1, 3)):
        image = rng.choice(images)
        da, db = (1, 0) if image == "alpha" else (0, 1) if image == "beta" else (0, 0)
        t1 = _leaf(rng, rank, ab - 1 - da, ab - db, r)
        t2 = _leaf(rng, rank, ab - da, ab - db, r)
        t3 = _leaf(rng, rank, ab - da, ab - 1 - db, r)
        g = bh.free_multiply(bh.free_multiply(t1, t2), bh.free_beta(t3)) \
            - bh.free_multiply(bh.free_alpha(t1), bh.free_multiply(t2, t3))
        g = bh.free_alpha(g) if image == "alpha" else bh.free_beta(g) if image == "beta" else g
        total = total + g.scale(QQ.from_fraction(_coeff(rng)))
    return total


def random_tree(rng, shapes, max_leaves, ab, r):
    n = rng.randint(1, max_leaves)
    shape = rng.choice(shapes[n])
    lp = tuple((rng.randint(0, ab), rng.randint(0, ab)) for _ in range(n))
    vp = tuple(rng.randint(0, r) for _ in range(2 * n - 1))
    return bh.RBAugTree(shape, lp, vp)


def random_element(rng, rank, bounds, shapes, coeff_sum):
    """A few in-window generators with random coefficients; the last
    coefficient is set so the coefficients add up to coeff_sum."""
    x = bh.FreeElement.zero(QQ, rank)
    while True:
        terms = []
        for _ in range(rng.randint(2, 5)):
            t = random_tree(rng, shapes, bounds["max_leaves"], bounds["max_ab_power"],
                            bounds["max_r_power"])
            terms.append((t, tuple(rng.randrange(rank) for _ in range(t.leaves))))
        if len(set(terms)) == len(terms):
            break
    coeffs = [_coeff(rng) for _ in terms[:-1]]
    coeffs.append(coeff_sum - sum(coeffs))
    for (t, w), c in zip(terms, coeffs):
        if c:
            x = x + bh.FreeElement.generator(QQ, rank, t, w, QQ.from_fraction(c))
    return x


def coeff_sum(x):
    return sum((c.value for _, _, c in x.terms.values()), Fraction(0))


def reduce_op(holder, label, x, member):
    """Every element of the ideal span has coefficient sum 0 and reduction
    subtracts multiples of such elements: ideal members reduce to 0, the
    sum is preserved, so elements with a nonzero sum never reduce to 0."""
    s = coeff_sum(x)

    def check(out):
        zero = not out.terms
        return coeff_sum(out) == s and (zero or not member) and not (zero and s)
    kind = "member" if member else ("nonzero_sum" if s else "zero_sum")
    return Op(f"reduce.{label}.{kind}", lambda: holder[label].reduce(x), check)


def build_op(holder, label, rank, bounds):
    def run():
        holder[label] = None
        holder[label] = bh.TruncatedIdealReducer(QQ, rank, bounds)
        return holder[label]
    return Op(f"build.{label}", run, lambda red: red is not None, kind="build")


def roundtrip_op(t):
    """serialize_tree then parse_tree; the text must be the documented form,
    written by the oracle's own serializer, and parse back to the same tree."""
    expected = O.serialize_rb_tree(t.tree, t.leaf_powers, t.vertex_powers)

    def run():
        s = bh.serialize_tree(t)
        return s, bh.parse_tree(s)

    def check(out):
        s, back = out
        return (s == expected and back.leaf_powers == t.leaf_powers
                and back.vertex_powers == t.vertex_powers
                and O.serialize_rb_tree(back.tree, back.leaf_powers, back.vertex_powers) == s)
    return Op("tree_roundtrip", run, check)


def _shape_text(node):
    return "L" if node.left is None else f"({_shape_text(node.left)} {_shape_text(node.right)})"


def enumerate_op(n):
    """n-leaf planar binary trees: Catalan(n-1) distinct shapes, n leaves each."""
    def check(trees):
        return (len(trees) == O.catalan(n - 1)
                and all(O.shape_leaves(t) == n for t in trees)
                and len({_shape_text(t) for t in trees}) == len(trees))
    return Op(f"enumerate_trees.n{n}", lambda: bh.enumerate_trees(n), check)


def action_op(rng, shapes, A, R, raw):
    """action_eval of an RB-augmented tree on the Yau twist of k[x]/(x^6)
    with the integration operator, against the oracle's own evaluation."""
    mu, alpha, beta, Rr = raw
    n = mu[0]
    t = random_tree(rng, shapes, 3, 2, 2)
    xs = [{i: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for i in range(n)
           if rng.random() < 0.5} for _ in range(t.leaves)]
    xs_lib = [bh.Vector(QQ, tuple(QQ.from_fraction(x.get(i, Fraction(0))) for i in range(n)))
              for x in xs]
    expected = Lazy(lambda: O.eval_rb_tree(Q, t.tree, t.leaf_powers, t.vertex_powers, xs,
                                           mu, alpha, beta, Rr))
    return Op("action_eval", lambda: bh.action_eval(t, xs_lib, A, R),
              lambda out: raw_vec(out.coords) == expected())


def build(seed: int) -> list[Op]:
    rng = random.Random(seed)
    shapes = {n: bh.enumerate_trees(n) for n in range(1, 6)}
    holder = {}
    ops = []
    for label, rank, bounds in WINDOWS:
        batch = []
        for k in range(ELEMENTS_PER_WINDOW):
            if k % 5 < 2:
                batch.append(reduce_op(holder, label, ideal_member(rng, rank, bounds), True))
            else:
                target = Fraction(0) if k % 5 == 4 else _coeff(rng)
                x = random_element(rng, rank, bounds, shapes, target)
                batch.append(reduce_op(holder, label, x, False))
        rng.shuffle(batch)
        ops.append(build_op(holder, label, rank, bounds))
        ops += batch
    n = 6
    mu = O.twist_table(Q, G.poly_table(Q, n), G.sigma(Q, n, 2), G.sigma(Q, n, 3))
    raw = (mu, G.sigma(Q, n, 2), G.sigma(Q, n, 3), G.integration(Q, n))
    A = bh.BiHomAssociativeAlgebra(QQ, to_table(QQ, mu), to_map(QQ, raw[1]),
                                   to_map(QQ, raw[2]))
    R = bh.RBOperator(to_map(QQ, raw[3]), QQ.zero())
    tree_ops = [roundtrip_op(random_tree(rng, shapes, 5, 3, 3)) for _ in range(20)]
    tree_ops += [enumerate_op(k) for k in range(1, 8)]
    tree_ops += [action_op(rng, shapes, A, R, raw) for _ in range(10)]
    tree_ops += [cli_op(name, argv) for name, argv in CLI_CASES]
    rng.shuffle(tree_ops)
    return ops + tree_ops
