import copy
import dataclasses
import pickle
import re
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BAugTree, FieldSpec, FreeElement, LEAF, PlanarBinaryTree,
                      RBAugTree, Scalar, TruncatedIdealReducer, Vector, action_eval,
                      decompose, enumerate_trees, free_alpha, free_beta,
                      free_multiply, free_R, graft, parse_tree, serialize_tree,
                      tree_R, tree_alpha, tree_beta, trees)
from bihomalg.errors import (BoundsExceeded, BudgetExceeded, FieldMismatch,
                             Indecomposable, InvalidArity, WrongAugmentation)
from bihomalg.linalg import LinearMap
from bihomalg.scalars import scalar_to_str
from conftest import counted

Q = FieldSpec.rational()

SMALL_BOUNDS = {"max_leaves": 3, "max_ab_power": 2, "max_r_power": 1}


def test_catalan_counts():
    assert [len(enumerate_trees(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]
    with pytest.raises(InvalidArity):
        enumerate_trees(0)


def test_graft_and_decompose_round_trip():
    trees = enumerate_trees(3)
    for t in enumerate_trees(4):
        p, q, l, r = decompose(t)
        assert p + q == 4
        assert graft(l, r) == t
    with pytest.raises(Indecomposable):
        decompose(LEAF)


def test_rb_decompose_extracts_root_power():
    t = RBAugTree(graft(LEAF, LEAF), ((1, 0), (0, 2)), (0, 0, 0))
    t2 = tree_R(tree_R(t))
    p, q, s, l, r = decompose(t2)
    assert (p, q, s) == (1, 1, 2)
    rebuilt = graft(l, r)
    for _ in range(s):
        rebuilt = tree_R(rebuilt)
    assert rebuilt == t2


def test_graft_rejects_mixed_kinds():
    b = BAugTree(LEAF, ((0, 0),))
    rb = RBAugTree(LEAF, ((0, 0),), (0,))
    with pytest.raises(WrongAugmentation):
        graft(b, rb)


def test_tree_maps():
    t = RBAugTree(LEAF, ((1, 2),), (3,))
    assert tree_alpha(t).leaf_powers == ((2, 2),)
    assert tree_beta(t).leaf_powers == ((1, 3),)
    assert tree_R(t).vertex_powers == (4,)
    with pytest.raises(WrongAugmentation):
        tree_R(BAugTree(LEAF, ((0, 0),)))


def test_serialize_examples():
    assert serialize_tree(LEAF) == "L"
    t = RBAugTree(graft(LEAF, LEAF), ((1, 2), (0, 0)), (3, 0, 1))
    assert serialize_tree(t) == "(L[1,2;0] L[0,0;1]){3}"
    b = BAugTree(graft(LEAF, LEAF), ((1, 2), (0, 0)))
    assert serialize_tree(b) == "(L[1,2] L[0,0])"


def test_parse_round_trips():
    texts = [
        "L[1,2;3]",
        "(L[1,2;1] (L[0,2;0] L[3,0;2]){1}){3}",
        "(L[0,1] L[2,0])",
        "((L[0,0;0] L[0,0;1]){0} L[1,1;0]){2}",
    ]
    for text in texts:
        t = parse_tree(text)
        assert serialize_tree(t) == text


def test_parse_rejections():
    for bad in ["(L[0,0] L[0,0;1])", "L[1,2", "(L L))", "L extra", ""]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_free_element_linearity():
    g1 = FreeElement.generator(Q, 2, RBAugTree(LEAF, ((0, 0),), (0,)), (0,))
    g2 = FreeElement.generator(Q, 2, RBAugTree(LEAF, ((0, 0),), (0,)), (1,))
    x = g1.scale(Q.from_int(2)) + g2
    assert (x - g2) == g1 + g1
    assert (x - x).is_zero()
    prod = free_multiply(g1, g2)
    assert len(prod.terms) == 1
    (tree, word, c), = prod.terms.values()
    assert word == (0, 1)
    assert tree.tree == graft(LEAF, LEAF)


def test_free_maps_are_linear_and_injective_on_terms():
    g1 = FreeElement.generator(Q, 1, RBAugTree(LEAF, ((0, 0),), (0,)), (0,))
    x = free_multiply(g1, free_R(g1))
    y = free_alpha(x) + free_beta(x)
    assert len(y.terms) == 2
    assert free_R(y) - free_R(free_alpha(x)) == free_R(free_beta(x))


def test_action_eval_matches_direct_composition(qx3, qx3_rb):
    # R(alpha beta R(x0) . R^2(alpha^3 x1)) with alpha = beta = id collapses
    # to R(R(x0) . R^2(x1)); evaluate both ways on x0 = 1 + x, x1 = x
    t = parse_tree("(L[1,1;1] L[3,0;2]){1}")
    one_plus_x = Vector(Q, (Q.one(), Q.one(), Q.zero()))
    xv = Vector(Q, (Q.zero(), Q.one(), Q.zero()))
    got = action_eval(t, [one_plus_x, xv], qx3, qx3_rb)
    r = qx3_rb.map
    from bihomalg import apply_bilinear
    direct = r.apply(apply_bilinear(
        qx3.mu, r.apply(one_plus_x), r.compose(r).apply(xv)))
    assert got == direct


def test_action_eval_b_augmented(qx3):
    t = parse_tree("(L[0,0] L[0,0])")
    xv = Vector(Q, (Q.zero(), Q.one(), Q.zero()))
    got = action_eval(t, [xv, xv], qx3)
    assert got == Vector(Q, (Q.zero(), Q.zero(), Q.one()))
    with pytest.raises(ValueError):
        action_eval(t, [xv], qx3)


def test_action_eval_argument_validation(qx3, qx3_rb):
    rb_tree = parse_tree("L[0,0;1]")
    with pytest.raises(ValueError):
        action_eval(rb_tree, [Vector(Q, (Q.one(), Q.zero(), Q.zero()))], qx3)
    b_tree = parse_tree("L[0,0]")
    with pytest.raises(ValueError):
        action_eval(b_tree, [Vector(Q, (Q.one(), Q.zero(), Q.zero()))],
                    qx3, qx3_rb)


def test_action_eval_refuses_a_negative_map_power(qx3, qx3_rb):
    xv = Vector(Q, (Q.zero(), Q.one(), Q.zero()))
    for t in (RBAugTree(LEAF, ((-1, 0),), (0,)), RBAugTree(LEAF, ((0, -1),), (0,)),
              RBAugTree(LEAF, ((0, 0),), (-1,))):
        with pytest.raises(ValueError, match="got -1$"):
            action_eval(t, [xv], qx3, qx3_rb)


def test_action_eval_refuses_powers_past_the_limit_before_any_product(
        monkeypatch, qx3, qx3_rb):
    """Each power is that many compositions, so a tree whose positive powers
    sum past TREES_LIMIT is refused before the first one; a negative power
    counts as none and is still refused by the power itself."""
    assert trees.TREES_LIMIT == 10 ** 6
    xv = Vector(Q, (Q.zero(), Q.one(), Q.zero()))
    message = "^the tree's map powers sum to more than 1000000$"
    past = [(BAugTree(LEAF, ((10 ** 8, 0),)), [xv], None),
            (RBAugTree(LEAF, ((0, 0),), (10 ** 6 + 1,)), [xv], qx3_rb),
            (parse_tree("(L[500000,0;0] L[0,500000;1]){0}"), [xv, xv], qx3_rb),
            (RBAugTree(LEAF, ((-1, 10 ** 6 + 1),), (0,)), [xv], qx3_rb)]

    def never(*args):
        raise AssertionError("a product was computed")
    with monkeypatch.context() as m:
        m.setattr(LinearMap, "compose", never)
        m.setattr(LinearMap, "apply", never)
        for t, elements, R in past:
            with pytest.raises(BudgetExceeded, match=message):
                action_eval(t, elements, qx3, R)
    monkeypatch.setattr(trees, "TREES_LIMIT", 3)
    action_eval(parse_tree("(L[1,1;0] L[0,0;1]){0}"), [xv, xv], qx3, qx3_rb)
    with pytest.raises(ValueError, match="got -1$"):
        action_eval(RBAugTree(LEAF, ((-1, 3),), (0,)), [xv], qx3, qx3_rb)
    with pytest.raises(BudgetExceeded):
        action_eval(parse_tree("(L[1,1;0] L[0,0;1]){1}"), [xv, xv], qx3, qx3_rb)


@pytest.fixture(scope="module")
def reducer():
    return TruncatedIdealReducer(Q, 2, SMALL_BOUNDS)


def gen(tree_text, word):
    return FreeElement.generator(Q, 2, parse_tree(tree_text), tuple(word))


def test_ideal_seed_reduces_to_zero(reducer):
    t1 = gen("L[0,0;0]", [0])
    t2 = gen("L[0,0;0]", [1])
    t3 = gen("L[0,0;0]", [0])
    g = free_multiply(free_multiply(t1, t2), free_beta(t3)) \
        - free_multiply(free_alpha(t1), free_multiply(t2, t3))
    assert reducer.reduce(g).is_zero()


def test_ideal_closure_under_maps(reducer):
    t1 = gen("L[0,0;0]", [1])
    t2 = gen("L[0,0;1]", [0])
    t3 = gen("L[0,0;0]", [1])
    g = free_multiply(free_multiply(t1, t2), free_beta(t3)) \
        - free_multiply(free_alpha(t1), free_multiply(t2, t3))
    assert reducer.reduce(free_alpha(g)).is_zero()
    assert reducer.reduce(free_beta(g)).is_zero()


def test_nonmember_does_not_reduce_to_zero(reducer):
    x = gen("(L[0,0;0] L[0,0;0]){0}", [0, 1]) - gen("(L[0,0;0] L[0,0;0]){0}",
                                                    [1, 0])
    assert not reducer.reduce(x).is_zero()
    y = gen("L[0,0;1]", [0])
    assert reducer.reduce(y) == y


def test_bounds_enforced(reducer):
    big = gen("L[3,0;0]", [0])
    with pytest.raises(BoundsExceeded):
        reducer.reduce(big)
    with pytest.raises(ValueError):
        TruncatedIdealReducer(Q, 1, {"max_leaves": 2})


@st.composite
def random_rb_trees(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from(enumerate_trees(n)))
    lp = tuple((draw(st.integers(0, 2)), draw(st.integers(0, 2)))
               for _ in range(n))
    vp = tuple(draw(st.integers(0, 2)) for _ in range(shape.vertices))
    return RBAugTree(shape, lp, vp)


@given(random_rb_trees())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip_property(t):
    assert parse_tree(serialize_tree(t)) == t


@given(random_rb_trees(), random_rb_trees())
@settings(max_examples=40, deadline=None)
def test_graft_decompose_inverse_property(t1, t2):
    t = graft(t1, t2)
    p, q, s, l, r = decompose(t)
    assert s == 0 and (l, r) == (t1, t2)


# ---------------------------------------------------------------------------
# References the properties below compare against: separate plain, B and RB
# serializers, FreeElement.scale/__add__ that re-derive every key, an
# eliminator that re-sorts all keys after each subtraction, and an
# enumeration that rebuilds the right subtrees for every left subtree.
# ---------------------------------------------------------------------------

def ref_serialize_tree(t) -> str:
    if isinstance(t, PlanarBinaryTree):
        if t.is_leaf:
            return "L"
        return f"({ref_serialize_tree(t.left)} {ref_serialize_tree(t.right)})"
    if isinstance(t, BAugTree):
        parts, _ = _ref_ser_b(t.tree, t.leaf_powers, 0)
        return parts
    if isinstance(t, RBAugTree):
        parts, _, _ = _ref_ser_rb(t.tree, t.leaf_powers, t.vertex_powers, 0, 0)
        return parts
    raise WrongAugmentation(f"cannot serialize {type(t).__name__}")


def _ref_ser_b(node, powers, i):
    if node.is_leaf:
        a, b = powers[i]
        return f"L[{a},{b}]", i + 1
    left, i = _ref_ser_b(node.left, powers, i)
    right, i = _ref_ser_b(node.right, powers, i)
    return f"({left} {right})", i


def _ref_ser_rb(node, powers, vps, i, v):
    f = vps[v]
    if node.is_leaf:
        a, b = powers[i]
        return f"L[{a},{b};{f}]", i + 1, v + 1
    left, i, v2 = _ref_ser_rb(node.left, powers, vps, i, v + 1)
    right, i, v3 = _ref_ser_rb(node.right, powers, vps, i, v2)
    return f"({left} {right}){{{f}}}", i, v3


def ref_term_key(tree, word) -> str:
    return ref_serialize_tree(tree) + "|" + ",".join(map(str, word))


def _ref_accumulate(x, tree, word, coeff):
    key = ref_term_key(tree, word)
    if key in x.terms:
        _, _, old = x.terms[key]
        coeff = old + coeff
    if coeff.is_zero():
        x.terms.pop(key, None)
    else:
        x.terms[key] = (tree, word, coeff)


def ref_add(x, other):
    out = x.copy()
    for tree, word, c in other.terms.values():
        _ref_accumulate(out, tree, word, c)
    return out


def ref_scale(x, c):
    out = FreeElement.zero(x.field, x.rank)
    if c.is_zero():
        return out
    for tree, word, coeff in x.terms.values():
        _ref_accumulate(out, tree, word, c * coeff)
    return out


def ref_reduce(elim, x):
    x = x.copy()
    changed = True
    while changed:
        changed = False
        for key in sorted(x.terms):
            if key in elim.pivots:
                _, _, c = x.terms[key]
                x = x - elim.pivots[key].scale(c)
                changed = True
                break
    return x


class RefTreeParser:
    """parse_tree one character at a time: `L`, `L[a,b]` or `L[a,b;f]` per
    leaf, `( .. .. )` or `( .. .. ){f}` per node, whitespace before a node
    and before its `)`, and ASCII digits alone."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def error(self, msg):
        raise ValueError(f"tree syntax error at {self.pos}: {msg}")

    def peek(self, ch):
        return self.pos < len(self.text) and self.text[self.pos] == ch

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        if not self.peek(ch):
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def power(self, opener, closer):
        """The ;f or {f} at pos, None if absent."""
        if not self.peek(opener):
            return None
        self.pos += 1
        f = self.integer()
        if closer:
            self.expect(closer)
        return f

    def node(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        if self.peek("L"):
            self.pos += 1
            if not self.peek("["):
                return LEAF, [(0, 0)], None
            self.pos += 1
            a = self.integer()
            self.expect(",")
            b = self.integer()
            f = self.power(";", None)
            self.expect("]")
            return LEAF, [(a, b)], None if f is None else [f]
        if not self.peek("("):
            self.error("expected 'L' or '('")
        self.pos += 1
        lt, lp, lv = self.node()
        rt, rp, rv = self.node()
        self.skip_ws()
        self.expect(")")
        f = self.power("{", "}")
        if (lv is None) != (rv is None) or (f is None) != (lv is None):
            self.error("mixed augmentation kinds")
        return PlanarBinaryTree(lt, rt), lp + rp, None if f is None else [f] + lv + rv


def ref_parse_tree(text):
    parser = RefTreeParser(text)
    tree, lp, vp = parser.node()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing garbage")
    return BAugTree(tree, tuple(lp)) if vp is None else RBAugTree(tree, tuple(lp), tuple(vp))


def ref_enumerate_trees(n):
    if n == 1:
        return [LEAF]
    out = []
    for p in range(1, n):
        for t1 in ref_enumerate_trees(p):
            for t2 in ref_enumerate_trees(n - p):
                out.append(PlanarBinaryTree(t1, t2))
    return out


def raw_terms(x):
    """Keys in term order with their trees, words and raw coefficient values."""
    return [(key, tree, word, c.value) for key, (tree, word, c) in x.terms.items()]


@st.composite
def any_trees(draw, kind=None, max_leaves=4, max_power=3, min_power=0):
    """A plain, B- or RB-augmented tree (kind None draws the kind)."""
    kind = kind or draw(st.sampled_from(["plain", "b", "rb"]))
    shape = draw(st.sampled_from(enumerate_trees(
        draw(st.integers(1, max_leaves)))))
    power = st.integers(min_power, max_power)
    if kind == "plain":
        return shape
    lp = tuple(draw(st.tuples(power, power)) for _ in range(shape.leaves))
    if kind == "b":
        return BAugTree(shape, lp)
    return RBAugTree(shape, lp, tuple(draw(power)
                                      for _ in range(shape.vertices)))


@given(any_trees(min_power=-2))
@settings(max_examples=150, deadline=None)
def test_every_serialized_tree_parses_back_to_itself_property(t):
    """serialize_tree either refuses a negative power, naming it, or gives
    text that parse_tree reads back as t (a plain tree as the shape of a
    B-augmented tree with powers (0, 0))."""
    if isinstance(t, PlanarBinaryTree):
        assert parse_tree(serialize_tree(t)) == BAugTree(t, ((0, 0),) * t.leaves)
        return
    leaf = min(p for pair in t.leaf_powers for p in pair)
    vertex = min(getattr(t, "vertex_powers", ()), default=0)
    if leaf < 0 or vertex < 0:
        kind, power = ("leaf", leaf) if leaf < 0 else ("vertex", vertex)
        with pytest.raises(ValueError, match=f"negative {kind} power, got {power}$"):
            serialize_tree(t)
    else:
        assert parse_tree(serialize_tree(t)) == t


def test_serialize_refuses_negative_powers():
    for t, kind in ((RBAugTree(LEAF, ((-1, 0),), (0,)), "leaf"),
                    (RBAugTree(LEAF, ((0, 0),), (-1,)), "vertex"),
                    (BAugTree(LEAF, ((0, -1),)), "leaf")):
        with pytest.raises(ValueError, match=f"negative {kind} power, got -1$"):
            serialize_tree(t)


FIELDS = [Q, FieldSpec.prime(5), FieldSpec.rational_function("a")]


@st.composite
def free_elements(draw, field, rank=2, kind="rb", keys_from=None):
    """A FreeElement with nonzero coefficients built straight from its terms
    (no FreeElement arithmetic); with keys_from, some terms reuse that
    element's keys, some with the negated coefficient so they cancel."""
    nonzero = st.integers(-3, 3).filter(bool)
    coeffs = st.one_of(nonzero.map(field.from_int), st.tuples(nonzero, nonzero)
                       .map(lambda q: field.from_int(q[0]) * field.from_int(q[1]).inverse()))
    if field.kind == "rational_function":
        coeffs = st.one_of(coeffs, st.sampled_from(["a", "1/a", "a+1", "-a"])
                           .map(field.parse))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        tree = draw(any_trees(kind, max_leaves=3, max_power=2))
        word = tuple(draw(st.integers(0, rank - 1)) for _ in range(tree.leaves))
        terms[ref_term_key(tree, word)] = (tree, word, draw(coeffs))
    if keys_from is not None:
        for key, (tree, word, c) in keys_from.terms.items():
            if draw(st.booleans()):
                terms[key] = (tree, word, -c if draw(st.booleans()) else draw(coeffs))
    return FreeElement(field, rank, terms)


@given(any_trees())
@settings(max_examples=200, deadline=None)
def test_serialize_matches_reference_property(t):
    text = serialize_tree(t)
    assert text == ref_serialize_tree(t)
    if not isinstance(t, PlanarBinaryTree):
        assert parse_tree(text) == t


@given(any_trees(), any_trees())
@settings(max_examples=200, deadline=None)
def test_tree_ops_one_branch_per_kind_property(t1, t2):
    if type(t1) is not type(t2):
        with pytest.raises(WrongAugmentation):
            graft(t1, t2)
        return
    t = graft(t1, t2)
    assert serialize_tree(t) == f"({serialize_tree(t1)} {serialize_tree(t2)})" \
        + ("{0}" if isinstance(t, RBAugTree) else "")
    parts = decompose(t)
    assert parts == ((t1.leaves, t2.leaves, t1, t2) if not isinstance(t, RBAugTree)
                     else (t1.leaves, t2.leaves, 0, t1, t2))
    if isinstance(t, PlanarBinaryTree):
        for op in (tree_alpha, tree_beta):
            with pytest.raises(WrongAugmentation):
                op(t)
        return
    for op, (da, db) in ((tree_alpha, (1, 0)), (tree_beta, (0, 1))):
        image = op(t)
        assert type(image) is type(t) and image.tree == t.tree
        assert image.leaf_powers == tuple((a + da, b + db) for a, b in t.leaf_powers)
        assert getattr(image, "vertex_powers", None) == getattr(t, "vertex_powers", None)


def test_enumerate_trees_matches_reference():
    for n in range(1, 11):
        assert enumerate_trees(n) == ref_enumerate_trees(n)
    assert len(enumerate_trees(10)) == 4862


def test_enumerate_trees_builds_each_subtree_once():
    """One call builds each tree of at most n leaves once: the 8-leaf trees
    and all their subtrees are 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429 = 626
    objects, one per distinct tree.  A recursion that lists the smaller
    trees again at every split makes the same trees many times over."""
    seen = {}

    def walk(t):
        if id(t) not in seen:
            seen[id(t)] = t
            if not t.is_leaf:
                walk(t.left)
                walk(t.right)

    for t in enumerate_trees(8):
        walk(t)
    assert len(seen) == len(set(seen.values())) == sum(trees._tree_counts(8)) == 626


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scale_and_add_match_reference_property(field, data):
    kind = data.draw(st.sampled_from(["b", "rb"]))
    x = data.draw(free_elements(field, kind=kind))
    y = data.draw(free_elements(field, kind=kind, keys_from=x))
    c = data.draw(st.sampled_from([field.zero(), field.one(), -field.one(),
                                   field.from_int(3)]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for got_fn, want_fn, args in ((FreeElement.scale, ref_scale, (x, c)),
                                      (FreeElement.__add__, ref_add, (x, y)),
                                      (FreeElement.__add__, ref_add, (y, x))):
            got, got_ops = counted(monkeypatch, got_fn, *args)
            want, want_ops = counted(monkeypatch, want_fn, *args)
            assert raw_terms(got) == raw_terms(want)
            assert got_ops == want_ops
            assert list(got.terms) == [ref_term_key(t, w)
                                       for t, w, _ in got.terms.values()]


@pytest.fixture(scope="module")
def window_311():
    return {"max_leaves": 3, "max_ab_power": 1, "max_r_power": 1}


def test_reducer_pivots_match_reference_eliminator(window_311, monkeypatch):
    got = TruncatedIdealReducer(Q, 1, window_311)

    class RefEliminator(trees._Eliminator):
        reduce = ref_reduce

    monkeypatch.setattr(trees, "_Eliminator", RefEliminator)
    monkeypatch.setattr(FreeElement, "scale", ref_scale)
    monkeypatch.setattr(FreeElement, "__add__", ref_add)
    want = TruncatedIdealReducer(Q, 1, window_311)
    assert type(want._elim) is RefEliminator
    assert len(got._elim.pivots) == 128
    assert [(key, raw_terms(x)) for key, x in got._elim.pivots.items()] \
        == [(key, raw_terms(x)) for key, x in want._elim.pivots.items()]


@pytest.fixture(scope="module")
def reducer_311(window_311):
    return TruncatedIdealReducer(Q, 1, window_311)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_matches_reference_property(reducer_311, data):
    elim = reducer_311._elim
    support = {key: (tree, word) for x in elim.pivots.values()
               for key, (tree, word, _) in x.terms.items()}
    keys = data.draw(st.lists(st.sampled_from(sorted(support)), max_size=8,
                              unique=True))
    x = FreeElement(Q, 1, {key: (*support[key], Q.from_int(
        data.draw(st.integers(-3, 3).filter(bool)))) for key in keys})
    assert raw_terms(elim.reduce(x)) == raw_terms(ref_reduce(elim, x))


# ---------------------------------------------------------------------------
# The reducer build against a reference that constructs every candidate:
# products and tree maps whose keys re-serialize each tree, and the seed and
# closure loops of a build without pruning, copied verbatim.
# ---------------------------------------------------------------------------

def ref_free_multiply(x, y):
    out = FreeElement.zero(x.field, x.rank)
    for t1, w1, c1 in x.terms.values():
        for t2, w2, c2 in y.terms.values():
            _ref_accumulate(out, graft(t1, t2), w1 + w2, c1 * c2)
    return out


def ref_map_terms(x, fn):
    out = FreeElement.zero(x.field, x.rank)
    for tree, word, coeff in x.terms.values():
        _ref_accumulate(out, fn(tree), word, coeff)
    return out


def ref_free_alpha(x):
    return ref_map_terms(x, tree_alpha)


def ref_free_beta(x):
    return ref_map_terms(x, tree_beta)


def ref_free_R(x):
    return ref_map_terms(x, tree_R)


def ref_build(field, rank, bounds):
    """The pivots of a build that makes every seed and closure image and
    keeps those inside the window."""
    free_multiply, free_alpha, free_beta = ref_free_multiply, ref_free_alpha, ref_free_beta
    _element_fits = trees._element_fits
    max_leaves = bounds["max_leaves"]
    by_leaves = {n: trees._bounded_generators(field, rank, n, bounds)
                 for n in range(1, max_leaves - 1)}
    seeds = []
    for n1 in range(1, max_leaves - 1):
        for n2 in range(1, max_leaves - n1):
            for n3 in range(1, max_leaves - n1 - n2 + 1):
                for t1 in by_leaves[n1]:
                    at1 = free_alpha(t1)
                    for t2 in by_leaves[n2]:
                        left = free_multiply(t1, t2)
                        for t3 in by_leaves[n3]:
                            g = free_multiply(left, free_beta(t3)) \
                                - free_multiply(at1, free_multiply(t2, t3))
                            if not g.is_zero() and _element_fits(g, bounds):
                                seeds.append(g)
    elim = trees._Eliminator()
    queue = seeds
    while queue:
        g = queue.pop()
        if not elim.insert(g):
            continue
        for h in (free_alpha(g), free_beta(g)):
            if _element_fits(h, bounds):
                queue.append(h)
        g_leaves = min(tree.leaves for tree, _, _ in g.terms.values())
        for n in range(1, max_leaves - g_leaves + 1):
            for other in by_leaves[n]:
                for h in (free_multiply(g, other), free_multiply(other, g)):
                    if _element_fits(h, bounds):
                        queue.append(h)
    return elim.pivots


def window(leaves, ab, r):
    return {"max_leaves": leaves, "max_ab_power": ab, "max_r_power": r}


# (4,1,0) is the smallest window whose closure grafts generators onto ideal
# elements, and (4,2,0) the smallest whose closure takes alpha and beta images
# of products
@pytest.mark.parametrize("bounds, count, field", [
    (window(3, 1, 1), 128, Q), (window(3, 2, 1), 2592, Q), (window(4, 1, 0), 272, Q),
    (window(4, 2, 0), 12636, Q), (window(3, 2, 1), 2592, FieldSpec.rational_function("a")),
    (window(4, 1, 0), 272, FieldSpec.rational_function("a"))],
    ids=["w311", "w321", "w410", "w420", "w321-qa", "w410-Qa"])
def test_build_pivots_match_unpruned_build(bounds, count, field):
    got = TruncatedIdealReducer(field, 1, bounds)._elim.pivots
    want = ref_build(field, 1, bounds)
    assert len(got) == count
    assert [(key, raw_terms(x)) for key, x in got.items()] \
        == [(key, raw_terms(x)) for key, x in want.items()]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_free_products_and_maps_match_reference_property(field, data):
    kind = data.draw(st.sampled_from(["b", "rb"]))
    x = data.draw(free_elements(field, kind=kind))
    y = data.draw(free_elements(field, kind=kind))
    cases = [(free_multiply, ref_free_multiply, (x, y)),
             (free_multiply, ref_free_multiply, (y, x)),
             (free_multiply, ref_free_multiply, (x, x)),
             (free_alpha, ref_free_alpha, (x,)),
             (free_beta, ref_free_beta, (x,))]
    if kind == "rb":
        cases.append((free_R, ref_free_R, (x,)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for got_fn, want_fn, args in cases:
            got, got_ops = counted(monkeypatch, got_fn, *args)
            want, want_ops = counted(monkeypatch, want_fn, *args)
            assert raw_terms(got) == raw_terms(want)
            assert got_ops == want_ops
            assert list(got.terms) == [ref_term_key(t, w)
                                       for t, w, _ in got.terms.values()]
            assert_window_checks_match_the_trees(got)


def assert_window_checks_match_the_trees(x):
    """The reducer's window checks, which read the terms' summaries, give
    what the terms' trees give, in windows around every power they hold."""
    trees_ = [t for t, _, _ in x.terms.values()]
    rb = all(isinstance(t, RBAugTree) for t in trees_)
    for leaves, ab, r in product((1, 2, 3, 4), range(5), range(4)):
        fits = rb and all(
            t.leaves <= leaves and max(map(max, t.leaf_powers)) <= ab
            and max(t.vertex_powers) <= r for t in trees_)
        assert trees._element_fits(x, window(leaves, ab, r)) == fits
    for side in (0, 1):
        for ab in range(5):
            assert trees._has_room(x, side, ab) == all(
                p[side] < ab for t in trees_ for p in getattr(t, "leaf_powers", ()))


def test_build_makes_only_what_the_window_keeps(window_311, monkeypatch):
    """Work counts of the (3,1,1) rank-1 build.  A build without pruning
    makes 1600 products and 776 closure images, 516 of them outside the
    window."""
    products, images = [], []

    def recording(fn, log):
        def wrapper(*args):
            log.append(fn(*args))
            return log[-1]
        return wrapper

    monkeypatch.setattr(trees, "free_multiply", recording(free_multiply, products))
    monkeypatch.setattr(trees, "free_alpha", recording(free_alpha, images))
    monkeypatch.setattr(trees, "free_beta", recording(free_beta, images))
    reducer = TruncatedIdealReducer(Q, 1, window_311)
    assert len(reducer._elim.pivots) == 128
    assert len(products) <= 400
    assert images
    assert all(trees._element_fits(x, window_311) for x in products + images)


def test_build_makes_one_product_rule_call_per_stored_key(monkeypatch):
    """The (3,2,1) rank-1 build calls the product rule once for each of the
    two terms of its 2,592 seeds, and once for each of the 432 (t1 t2) and
    (t2 t3) products that rows of seeds share: 5,616 calls.  Every stored
    key is the very string one of these calls returned, so no later call
    joins a key.  A build that joins each seed term's key from a split
    product makes 5,184 calls more."""
    made = []
    graft_terms = trees._graft_terms

    def recording(term1, term2):
        made.append(graft_terms(term1, term2))
        return made[-1]

    monkeypatch.setattr(trees, "_graft_terms", recording)
    pivots = TruncatedIdealReducer(Q, 1, window(3, 2, 1))._elim.pivots
    assert len(pivots) == 2592
    stored = [key for x in pivots.values() for key in x._t]
    returned = {id(result[0]) for result in made}
    assert len(stored) == 2 * 2592
    assert all(id(key) in returned for key in stored)
    assert len(made) == len(stored) + 432 == 5616


def test_closure_takes_no_alpha_or_beta_images(monkeypatch):
    """The closure grafts only: once the first seed is inserted, the (3,2,1)
    rank-1 build makes no alpha or beta image.  A closure that also takes
    the images makes 1152 of them there."""
    inserting, images = [], []
    insert = trees._Eliminator.insert

    def marking_insert(self, x):
        inserting.append(True)
        return insert(self, x)

    def counting(fn):
        def wrapper(x):
            if inserting:
                images.append(x)
            return fn(x)
        return wrapper

    monkeypatch.setattr(trees._Eliminator, "insert", marking_insert)
    monkeypatch.setattr(trees, "free_alpha", counting(free_alpha))
    monkeypatch.setattr(trees, "free_beta", counting(free_beta))
    reducer = TruncatedIdealReducer(Q, 1, window(3, 2, 1))
    assert inserting and len(reducer._elim.pivots) == 2592
    assert len(images) == 0


def recursive_leaves(t):
    return 1 if t.left is None else recursive_leaves(t.left) + recursive_leaves(t.right)


def test_planar_tree_with_cached_leaves_stays_a_plain_dataclass():
    assert repr(LEAF) == "PlanarBinaryTree(left=None, right=None)"
    assert [f.name for f in dataclasses.fields(PlanarBinaryTree)] == ["left", "right"]
    a = PlanarBinaryTree(LEAF, PlanarBinaryTree(LEAF, LEAF))
    b = PlanarBinaryTree(PlanarBinaryTree(),
                         PlanarBinaryTree(PlanarBinaryTree(), PlanarBinaryTree()))
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != PlanarBinaryTree(PlanarBinaryTree(LEAF, LEAF), LEAF)
    assert dataclasses.replace(a, right=LEAF).leaves == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.leaves = 4
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert t.leaves == recursive_leaves(t) == n
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t) and back.leaves == n
    rb = parse_tree("(L[1,2;1] (L[0,2;0] L[3,0;2]){1}){3}")
    assert pickle.loads(pickle.dumps(rb)).leaves == 3


# ---------------------------------------------------------------------------
# FreeElement keeps raw coefficients; Scalar stays the boundary
# ---------------------------------------------------------------------------

F5 = FieldSpec.prime(5)
QA = FieldSpec.rational_function("a")
X_LEAF = RBAugTree(LEAF, ((0, 1),), (1,))


@pytest.mark.parametrize("make", [
    lambda: FreeElement.generator(Q, 1, X_LEAF, (0,), F5.from_int(3)),
    lambda: FreeElement(Q, 1, {FreeElement.term_key(X_LEAF, (0,)):
                               (X_LEAF, (0,), "notascalar")}),
    lambda: FreeElement(Q, 1, {FreeElement.term_key(X_LEAF, (0,)):
                               (X_LEAF, (0,), QA.parse("a"))}),
    lambda: FreeElement.generator(Q, 1, X_LEAF, (0,)).scale(F5.one()),
], ids=["generator", "constructor-str", "constructor-qa", "scale"])
def test_coefficients_from_another_field_are_refused(make):
    with pytest.raises(FieldMismatch):
        make()


@pytest.mark.parametrize("other", [
    FreeElement.generator(F5, 1, X_LEAF, (0,)),
    FreeElement.generator(Q, 2, X_LEAF, (1,)),
    FreeElement.zero(Q, 2),
], ids=["field", "rank", "zero-rank"])
def test_free_elements_over_other_bases_do_not_mix(other):
    """Disjoint keys: before these were refused, a sum merged the terms into
    an element over the left operand's field and rank."""
    x = FreeElement.generator(Q, 1, tree_alpha(X_LEAF), (0,))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a == b,
               free_multiply):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(ValueError, match="different bases"):
                op(a, b)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_terms_is_a_live_boxing_view(field):
    x = free_multiply(FreeElement.generator(field, 1, X_LEAF, (0,), field.from_int(2)),
                      FreeElement.generator(field, 1, X_LEAF, (0,)))
    x = x + FreeElement.generator(field, 1, X_LEAF, (0,))
    key, = (k for k in x.terms if "(" in k)
    leaf_key = FreeElement.term_key(X_LEAF, (0,))
    assert [c for _, _, c in x.terms.values()] == [field.from_int(2), field.one()]
    for _, _, c in x.terms.values():
        assert isinstance(c, Scalar) and c.field == field
        if field == Q:
            assert type(c.value) is Fraction
    # a write through terms persists and reaches the arithmetic
    tree, word, _ = x.terms[key]
    x.terms[key] = (tree, word, field.from_int(3))
    assert x.terms[key][2] == field.from_int(3)
    assert x.scale(field.from_int(2)).terms[key][2] == field.from_int(6)
    with pytest.raises(FieldMismatch):
        x.terms[key] = (tree, word, FieldSpec.prime(7).one())
    # copy() shares no mutable state with the original
    y = x.copy()
    y.terms.pop(leaf_key)
    y.terms[key] = (tree, word, field.one())
    assert leaf_key in x.terms and x.terms[key][2] == field.from_int(3)
    assert list(y.terms) == [key] and y.terms[key][2] == field.one()
    del x.terms[leaf_key]
    assert len(x.terms) == 1 and x == y.scale(field.from_int(3))


def test_free_element_repr_is_unchanged():
    x = FreeElement.generator(Q, 1, X_LEAF, (0,), Q.from_fraction(Fraction(1, 2)))
    assert repr(x) == (
        "FreeElement(field=FieldSpec(kind='rational', p=None, params=()), rank=1, "
        "terms={'L[0,1;1]|0': (RBAugTree(tree=PlanarBinaryTree(left=None, right=None), "
        "leaf_powers=((0, 1),), vertex_powers=(1,)), (0,), Scalar('1/2'))})")
    assert repr(FreeElement.zero(QA, 2)) == (
        "FreeElement(field=FieldSpec(kind='rational_function', p=None, params=('a',)), "
        "rank=2, terms={})")


def test_root_power_is_the_first_vertex_power():
    t = RBAugTree(graft(LEAF, LEAF), ((1, 0), (0, 2)), (0, 1, 2))
    assert t.root_power == 0
    assert tree_R(tree_R(t)).root_power == 2
    assert RBAugTree(LEAF, ((0, 0),), (3,)).root_power == 3


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_a_zero_coefficient_is_no_term(field):
    """The constructor and a write through terms drop a zero, as every kernel
    drops a zero sum; over Q(a) the zero 1 - 1 is a cancelled numerator."""
    zero = field.from_int(1) - field.from_int(1)
    leaf_key = FreeElement.term_key(X_LEAF, (0,))
    other = tree_alpha(X_LEAF)
    other_key = FreeElement.term_key(other, (0,))
    x = FreeElement(field, 1, {leaf_key: (X_LEAF, (0,), zero)})
    assert x.is_zero() and not x.terms and x == FreeElement.zero(field, 1)
    assert x.scale(field.from_int(2)).is_zero()
    y = FreeElement(field, 1, {leaf_key: (X_LEAF, (0,), zero),
                               other_key: (other, (0,), field.from_int(2))})
    assert list(y.terms) == [other_key]
    assert y == FreeElement.generator(field, 1, other, (0,), field.from_int(2))
    assert list(y.scale(field.from_int(3)).terms) == [other_key]
    # a zero written through terms deletes the key, or adds none
    y.terms[other_key] = (other, (0,), field.zero())
    y.terms[leaf_key] = (X_LEAF, (0,), zero)
    assert y.is_zero() and not y.terms and y == FreeElement.zero(field, 1)


# ---------------------------------------------------------------------------
# The augmented-tree records, the trees budgets and the literal digits
# ---------------------------------------------------------------------------

CHERRY = PlanarBinaryTree(LEAF, LEAF)
B_CHERRY = BAugTree(CHERRY, ((0, 1), (2, 0)))
RB_CHERRY = RBAugTree(CHERRY, ((0, 1), (2, 0)), (1, 0, 2))


def test_augmented_tree_reprs_are_unchanged():
    shape = ("tree=PlanarBinaryTree(left=PlanarBinaryTree(left=None, right=None), "
             "right=PlanarBinaryTree(left=None, right=None)), "
             "leaf_powers=((0, 1), (2, 0))")
    assert repr(B_CHERRY) == f"BAugTree({shape})"
    assert repr(RB_CHERRY) == f"RBAugTree({shape}, vertex_powers=(1, 0, 2))"


def test_augmented_trees_compare_and_hash_by_kind_and_fields():
    b = BAugTree(graft(LEAF, LEAF), ((0, 1), (2, 0)))
    rb = RBAugTree(graft(LEAF, LEAF), ((0, 1), (2, 0)), (1, 0, 2))
    assert b == B_CHERRY and hash(b) == hash(B_CHERRY) == hash((CHERRY, b.leaf_powers))
    assert rb == RB_CHERRY and hash(rb) == hash((CHERRY, rb.leaf_powers, (1, 0, 2)))
    assert rb != RBAugTree(CHERRY, rb.leaf_powers, (0, 0, 2))
    assert b != BAugTree(CHERRY, ((0, 1), (2, 1)))
    # the two kinds never meet, even on the same shape and leaf powers
    same = RBAugTree(CHERRY, b.leaf_powers, (0, 0, 0))
    assert b != same and same != b and len({b, same}) == 2
    assert not isinstance(b, RBAugTree) and not isinstance(same, BAugTree)
    assert not hasattr(b, "vertex_powers")
    assert [f.name for f in dataclasses.fields(BAugTree)] == ["tree", "leaf_powers"]
    assert [f.name for f in dataclasses.fields(RBAugTree)] == [
        "tree", "leaf_powers", "vertex_powers"]
    for t in (b, rb):
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and type(back) is type(t)


def test_augmented_tree_length_refusals_leaf_first():
    leaf = "^leaf_powers length must equal the leaf count$"
    vertex = "^vertex_powers length must equal the vertex count$"
    for make, message in ((lambda: BAugTree(CHERRY, ((0, 0),)), leaf),
                          (lambda: RBAugTree(CHERRY, ((0, 0),), (0,)), leaf),
                          (lambda: RBAugTree(CHERRY, ((0, 0),) * 2, (0,)), vertex),
                          (lambda: RBAugTree(LEAF, ((0, 0),), (0, 0)), vertex)):
        with pytest.raises(ValueError, match=message):
            make()


def test_augmented_trees_are_frozen():
    for t in (B_CHERRY, RB_CHERRY):
        for name in ("tree", "leaf_powers", "vertex_powers", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.tree
    assert RB_CHERRY.vertex_powers == (1, 0, 2) and not hasattr(B_CHERRY, "other")


def test_tree_maps_keep_the_kind_and_refuse_other_values():
    assert tree_alpha(B_CHERRY) == BAugTree(CHERRY, ((1, 1), (3, 0)))
    assert tree_beta(RB_CHERRY) == RBAugTree(CHERRY, ((0, 2), (2, 1)), (1, 0, 2))
    assert tree_R(RB_CHERRY) == RBAugTree(CHERRY, RB_CHERRY.leaf_powers, (2, 0, 2))
    for op in (tree_alpha, tree_beta, decompose, serialize_tree):
        with pytest.raises(WrongAugmentation, match="^int is not an augmented tree$"):
            op(3)
    with pytest.raises(WrongAugmentation, match="^int is not an augmented tree$"):
        graft(3, 4)
    with pytest.raises(WrongAugmentation, match="needs an RB-augmented tree"):
        tree_R(B_CHERRY)


def test_enumerate_trees_refuses_past_the_limit_without_building():
    assert trees.TREES_LIMIT == 10 ** 6
    # Catalan(14) = 2674440 trees have 15 leaves; the count stops at the
    # first past the limit, so a huge n is refused as fast
    for n in (15, 40, 10 ** 9):
        with pytest.raises(BudgetExceeded,
                           match=f"^more than 1000000 trees have {n} leaves$"):
            enumerate_trees(n)
    with pytest.raises(InvalidArity):
        enumerate_trees(0)


def test_enumerate_trees_checks_the_limit_once_per_public_call(monkeypatch):
    monkeypatch.setattr(trees, "TREES_LIMIT", 14)
    public, calls = trees.enumerate_trees, []

    def counting(n):
        calls.append(n)
        return public(n)
    monkeypatch.setattr(trees, "enumerate_trees", counting)
    assert trees.enumerate_trees(5) == ref_enumerate_trees(5)
    assert calls == [5]
    with pytest.raises(BudgetExceeded, match="^more than 14 trees have 6 leaves$"):
        trees.enumerate_trees(6)


def test_reducer_refuses_a_window_past_the_limit_before_building(monkeypatch):
    assert trees.TREES_LIMIT == 10 ** 6

    def never(*args):
        raise AssertionError("the refused window was built")
    monkeypatch.setattr(trees, "_bounded_generators", never)
    # (6, 1, 1) spans 359,829,640 basis terms at rank 1; at rank 0 a
    # generator still counts once per shape and powers
    message = "^the window spans more than 1000000 basis terms$"
    for rank, bounds in ((1, window(6, 1, 1)), (1, window(10 ** 9, 1, 1)),
                         (0, window(20, 0, 0)), (3, window(4, 1, 1))):
        with pytest.raises(BudgetExceeded, match=message):
            TruncatedIdealReducer(Q, rank, bounds)
    with pytest.raises(BudgetExceeded, match=message):
        trees.truncated_ideal_reduce(FreeElement.zero(Q, 1), window(6, 1, 1))


def test_reducer_window_limit_counts_every_basis_term(monkeypatch, window_311):
    # (3, 1, 1) at rank 1: 1·4·2 + 1·16·8 + 2·64·32 = 4232 basis terms
    monkeypatch.setattr(trees, "TREES_LIMIT", 4231)
    with pytest.raises(BudgetExceeded, match="more than 4231 basis terms"):
        TruncatedIdealReducer(Q, 1, window_311)
    monkeypatch.setattr(trees, "TREES_LIMIT", 4232)
    assert TruncatedIdealReducer(Q, 1, window_311).reduce(FreeElement.zero(Q, 1)).is_zero()


@pytest.mark.parametrize("other", [
    FreeElement.generator(Q, 2, RBAugTree(LEAF, ((0, 0),), (0,)), (1,)),
    FreeElement.generator(F5, 1, X_LEAF, (0,)),
    FreeElement.zero(F5, 1),
], ids=["rank", "field", "zero"])
def test_reduce_refuses_an_element_over_another_basis(reducer_311, other):
    """Before, such an element came back unreduced unless a term key met a
    pivot."""
    with pytest.raises(ValueError, match="^free elements live over different bases$"):
        reducer_311.reduce(other)


@pytest.mark.parametrize("text, pos", [
    ("L[²,0]", 2), ("L[٣,0]", 2), ("L[0,0;²]", 6), ("(L L){٣}", 6), ("L[1٣,0]", 3),
])
def test_tree_literals_take_ascii_digits_only(text, pos):
    with pytest.raises(ValueError, match=f"^tree syntax error at {pos}: "):
        parse_tree(text)


# ---------------------------------------------------------------------------
# The build's own product path against the references on more fields: seeds
# as two-term rows keyed by the product rule, and the eliminator's in-place
# subtraction.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, rank, bounds, count", [
    (F5, 1, window(3, 2, 1), 2592),
    (FieldSpec.rational_function("a"), 2, window(3, 1, 1), 1024),
    (F5, 1, window(4, 1, 0), 272)], ids=["w321-f5", "w311r2-qa", "w410-f5"])
def test_build_pivots_match_unpruned_build_on_more_fields(field, rank, bounds, count):
    """(4,1,0) is a window whose closure grafts through free_multiply."""
    got = TruncatedIdealReducer(field, rank, bounds)._elim.pivots
    want = ref_build(field, rank, bounds)
    assert len(got) == count
    assert [(key, raw_terms(x)) for key, x in got.items()] \
        == [(key, raw_terms(x)) for key, x in want.items()]


def validated_graft(t1, t2):
    """graft through the dataclass constructors, which check every length."""
    if isinstance(t1, PlanarBinaryTree):
        return PlanarBinaryTree(t1, t2)
    tree = PlanarBinaryTree(t1.tree, t2.tree)
    if isinstance(t1, RBAugTree):
        return RBAugTree(tree, t1.leaf_powers + t2.leaf_powers,
                         (0,) + t1.vertex_powers + t2.vertex_powers)
    return BAugTree(tree, t1.leaf_powers + t2.leaf_powers)


@given(any_trees(), any_trees())
@settings(max_examples=200, deadline=None)
def test_graft_equals_the_validated_construction_property(t1, t2):
    """graft's tree is the one the constructors build in every public
    respect, and its instance dict is as large as theirs."""
    if type(t1) is not type(t2):
        with pytest.raises(WrongAugmentation):
            graft(t1, t2)
        return
    got, want = graft(t1, t2), validated_graft(t1, t2)
    back = pickle.loads(pickle.dumps(got))
    for t in (got, back, dataclasses.replace(got)):
        assert type(t) is type(want) and t == want and hash(t) == hash(want)
        assert repr(t) == repr(want) and vars(t) == vars(want)
        assert serialize_tree(t) == serialize_tree(want)
    shape = got if isinstance(got, PlanarBinaryTree) else got.tree
    assert vars(shape) == {"left": shape.left, "right": shape.right,
                           "leaves": t1.leaves + t2.leaves}
    assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(want))
    if not isinstance(got, PlanarBinaryTree):
        with pytest.raises(ValueError, match="leaf_powers length"):
            dataclasses.replace(got, leaf_powers=got.leaf_powers[1:])


@pytest.fixture(scope="module")
def reducers_311(window_311):
    return {field.kind: TruncatedIdealReducer(field, 1, window_311) for field in FIELDS}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_reduce_matches_reference_property(reducers_311, field, data):
    """The eliminator subtracts in place on one copy: the same terms, and the
    same mul and add calls, as x - pivot*c per step, and x is untouched."""
    elim = reducers_311[field.kind]._elim
    support = {key: (tree, word) for x in elim.pivots.values()
               for key, (tree, word, _) in x.terms.items()}
    keys = data.draw(st.lists(st.sampled_from(sorted(support)), max_size=8, unique=True))
    coeffs = [-field.one(), field.from_int(2), field.from_int(3).inverse()]
    if field.params:
        coeffs += [field.parse("a+1"), field.parse("1/a")]
    x = FreeElement(field, 1, {key: (*support[key], data.draw(st.sampled_from(coeffs)))
                               for key in keys})
    before = raw_terms(x)
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, got_ops = counted(monkeypatch, elim.reduce, x)
        want, want_ops = counted(monkeypatch, ref_reduce, elim, x)
    assert raw_terms(got) == raw_terms(want)
    assert got_ops == want_ops
    assert got is not x and raw_terms(x) == before


# ---------------------------------------------------------------------------
# A term is its key: the stored term is its key, word and window summary,
# and a tree is built from the key where one is read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS[:2], ids=lambda f: f.kind)
def test_insert_stores_a_row_with_coefficient_one_as_it_is(field):
    """A row whose smallest key already has coefficient one, as every seed
    of the benchmark windows has, is stored without a scaled copy."""
    x = FreeElement(field, 1, {ref_term_key(t, (0, 0, 0)): (t, (0, 0, 0), c) for t, c in (
        (parse_tree("((L[0,0;0] L[0,0;0]){0} L[0,1;0]){0}"), field.one()),
        (parse_tree("(L[1,0;0] (L[0,0;0] L[0,0;0]){0}){0}"), -field.one()))})
    elim = trees._Eliminator()
    with pytest.MonkeyPatch.context() as monkeypatch:
        inserted, ops = counted(monkeypatch, elim.insert, x)
    assert inserted and ops == (0, 0)
    (key, pivot), = elim.pivots.items()
    assert key == min(x.terms) and raw_terms(pivot) == raw_terms(x)


def test_a_term_whose_key_does_not_name_its_tree_and_word_is_refused():
    """Before, such a term was stored under its key, and a product keyed
    from it, such as '(zz zz){0}|,', named neither tree nor word."""
    leaf = RBAugTree(LEAF, ((0, 0),), (0,))
    with pytest.raises(ValueError, match="^term key 'zz' does not name its tree and word, "
                                         r"'L\[0,0;0\]\|0'$"):
        FreeElement(Q, 1, {"zz": (leaf, (0,), Q.one())})
    x = FreeElement.generator(Q, 2, leaf, (0,))
    for key, term in (("L[0,0;0]|1", (leaf, (0,), Q.one())),
                      ("L[0,0;0]|0", (tree_alpha(leaf), (0,), Q.one())),
                      ("L[0,0]|0", (leaf, (0,), Q.one()))):
        with pytest.raises(ValueError, match="does not name its tree and word"):
            x.terms[key] = term
    assert x == FreeElement.generator(Q, 2, leaf, (0,)) and list(x.terms) == ["L[0,0;0]|0"]


@pytest.mark.parametrize("tree", [BAugTree(CHERRY, ((0, 0), (1, 0))), CHERRY,
                                  BAugTree(LEAF, ((9, 9),))], ids=["b", "plain", "b-big"])
def test_reduce_refuses_terms_that_are_not_rb_augmented(reducer_311, tree):
    """Before, these raised a bare AttributeError (no vertex_powers)."""
    word = (0,) * tree.leaves
    x = FreeElement.generator(Q, 1, tree, word)
    name = type(tree).__name__
    for y in (x, x + FreeElement.generator(Q, 1, RB_CHERRY, (0, 0))):
        with pytest.raises(WrongAugmentation,
                           match=f"^the reducer needs RB-augmented terms, not {name}$"):
            reducer_311.reduce(y)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_terms_read_back_the_stored_trees_of_every_kind_property(field, data):
    """A term stores no tree: a `terms` read builds it from the key, equal
    and of the same class, for plain, B- and RB-augmented trees.  ==, repr,
    pickle and deepcopy see the same terms, and products and tree maps still
    take every kind, refusing a product of two kinds as graft does."""
    kind = data.draw(st.sampled_from(["plain", "b", "rb"]))
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        tree = data.draw(any_trees(kind, max_leaves=3, max_power=2))
        word = tuple(data.draw(st.integers(0, 1)) for _ in range(tree.leaves))
        terms[ref_term_key(tree, word)] = (
            tree, word, field.from_int(data.draw(st.integers(-3, 3).filter(bool))))
    x = FreeElement(field, 2, terms)
    got = dict(x.terms.items())
    assert got == terms
    assert all(type(got[k][0]) is type(terms[k][0]) for k in terms)
    assert repr(x) == f"FreeElement(field={field!r}, rank=2, terms={terms!r})"
    for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert back == x and repr(back) == repr(x) and dict(back.terms.items()) == terms
    assert raw_terms(free_multiply(x, x)) == raw_terms(ref_free_multiply(x, x))
    assert_window_checks_match_the_trees(x)
    for fn, ref in ((free_alpha, ref_free_alpha), (free_beta, ref_free_beta),
                    (free_R, ref_free_R)):
        assert_same_outcome(fn, ref, x)
    other = data.draw(st.sampled_from([k for k in ("plain", "b", "rb") if k != kind]))
    y = data.draw(free_elements(field, kind=other)) if other != "plain" else \
        FreeElement.generator(field, 2, CHERRY, (0, 1))
    for a, b in ((x, y), (y, x)):
        assert_same_outcome(free_multiply, ref_free_multiply, a, b)


def assert_same_outcome(fn, ref, *args):
    """fn(*args) gives the terms ref(*args) gives, or the same refusal."""
    try:
        want = raw_terms(ref(*args))
    except WrongAugmentation as exc:
        with pytest.raises(WrongAugmentation, match=f"^{re.escape(str(exc))}$"):
            fn(*args)
    else:
        assert raw_terms(fn(*args)) == want


TREE_CHARS = "L[](){},;0123 \t²٣x"


@st.composite
def tree_texts(draw):
    """Tree text, well formed or one to three characters off."""
    text = list(serialize_tree(draw(any_trees(max_power=12))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["drop", "replace", "insert"]))
        if action != "insert" and i < len(text):
            del text[i]
        if action != "drop":
            text.insert(i, draw(st.sampled_from(TREE_CHARS)))
    return "".join(text)


@given(st.one_of(tree_texts(), st.text(TREE_CHARS, max_size=14)))
@settings(max_examples=300, deadline=None)
def test_parse_tree_matches_the_character_parser_property(text):
    """The same tree, or the same refusal at the same position."""
    def outcome(parse):
        try:
            t = parse(text)
        except ValueError as exc:
            return str(exc)
        return type(t), t
    assert outcome(parse_tree) == outcome(ref_parse_tree)


# ---------------------------------------------------------------------------
# insert stores a row that meets no pivot as it is; reduce never returns its
# input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@pytest.mark.parametrize("meets", [False, True], ids=["no-pivot", "pivot"])
def test_reduce_never_returns_its_input(reducers_311, field, meets):
    """Both reduce paths return a new element with a dict of its own, for an
    element that meets no pivot (nothing is subtracted) and for one that
    meets a pivot, so a write through the result leaves the input as it
    was."""
    reducer = reducers_311[field.kind]
    leaf = RBAugTree(LEAF, ((0, 0),), (0,))
    terms = {ref_term_key(leaf, (0,)): (leaf, (0,), field.from_int(2))}
    if meets:
        key, pivot = next(iter(reducer._elim.pivots.items()))
        tree, word, _ = pivot.terms[key]
        terms[key] = (tree, word, field.from_int(3))
    x = FreeElement(field, 1, terms)
    assert any(key in reducer._elim.pivots for key in x.terms) == meets
    before = raw_terms(x)
    for reduce in (reducer.reduce, reducer._elim.reduce):
        got = reduce(x)
        assert got is not x and got._t is not x._t
        for key in list(got.terms):
            tree, word, c = got.terms[key]
            got.terms[key] = (tree, word, c + field.one())
        got.terms[ref_term_key(X_LEAF, (0,))] = (X_LEAF, (0,), field.one())
        assert raw_terms(x) == before


def same_raw(a, b) -> bool:
    """Whether raw values (or terms) a and b are equal and of the same
    types, part for part, dict keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_raw, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_raw(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("field, bounds", [
    (Q, window(3, 1, 1)), (FieldSpec.prime(5), window(3, 1, 1)),
    (FieldSpec.rational_function("a"), window(3, 1, 1)), (Q, window(4, 1, 0)),
    (FieldSpec.rational_function("a"), window(4, 1, 0))],
    ids=["w311-Q", "w311-F5", "w311-Qa", "w410-Q", "w410-Qa"])
def test_insert_stores_a_row_that_meets_no_pivot_as_it_is(field, bounds, monkeypatch):
    """In a build, a row none of whose keys is a pivot, with the field's one
    at its smallest key, is stored as that row itself, with exactly the raw
    terms it had; a row that meets a pivot is reduced on a copy.  No row is
    changed by insert.  Every (3,1,1) row meets no pivot, and in (4,1,0) 16
    of the 272 do.  Over Q(a), the one at a closure row's smallest key is
    the product of two ones, a new pair of the form of ops.one, and scaling
    by it would give back exactly the row's raw terms."""
    rows = []
    insert = trees._Eliminator.insert

    def recording_insert(self, x):
        met = any(key in self.pivots for key in x._t)
        before = raw_terms(x)
        inserted = insert(self, x)
        rows.append((x, met, before, inserted))
        return inserted

    monkeypatch.setattr(trees._Eliminator, "insert", recording_insert)
    pivots = TruncatedIdealReducer(field, 1, bounds)._elim.pivots
    stored = {id(pivot) for pivot in pivots.values()}
    met_rows = sum(met for _, met, _, _ in rows)
    assert met_rows == (16 if bounds["max_leaves"] == 4 else 0)
    kept = 0
    for x, met, before, inserted in rows:
        assert raw_terms(x) == before
        if met:
            assert id(x) not in stored
        elif same_raw(lead := x._t[min(x._t)][1], field.ops.one):
            assert inserted and pivots[min(x._t)] is x
            ops = field.ops
            assert same_raw(x._t, x._scaled(ops.norm(ops.inv(lead)))._t)
            kept += 1
    assert kept == len(rows) - met_rows


def test_insert_scales_a_row_whose_lead_holds_fraction_one():
    """Over Q(a), a row whose smallest key holds ({0: 1}, {0: 1}) made by
    ops.mul is stored as it is, and one holding ({0: Fraction(1)}, {0: 1}),
    equal to one but of other types, is stored as its scaled copy, whose
    int coefficients the scaling turns into Fractions."""
    field = FieldSpec.rational_function("a")
    ops = field.ops
    t = parse_tree("((L[0,0;0] L[0,0;0]){0} L[0,1;0]){0}")
    u = parse_tree("(L[1,0;0] (L[0,0;0] L[0,0;0]){0}){0}")
    word = (0, 0, 0)
    for lead, stored_as_is in ((ops.mul(ops.one, ops.one), True),
                               (({0: Fraction(1)}, {0: 1}), False)):
        x = FreeElement(field, 1, {ref_term_key(t, word): (t, word, field.one()),
                                   ref_term_key(u, word): (u, word, field.from_int(2))})
        key = min(x._t)
        x._t[key] = (x._t[key][0], lead)
        elim = trees._Eliminator()
        assert elim.insert(x)
        pivot, scaled = elim.pivots[key], x._scaled(ops.norm(ops.inv(lead)))
        assert (pivot is x) == stored_as_is == same_raw(x._t, scaled._t)
        assert same_raw(pivot._t, scaled._t) and pivot == x


def test_an_integral_fraction_coefficient_prints_and_compares_as_the_int():
    """The constructor stores an integral Q coefficient as an int, and the
    kernels keep what the ops compute: scaling by 1/2 and then by 2 stores
    Fraction(1), which reads back as 1 and equals the generator."""
    x = FreeElement.generator(Q, 1, X_LEAF, (0,))
    y = x.scale(Q.parse("1/2")).scale(Q.from_int(2))
    (info, c), = y._t.values()
    assert (type(c), type(x._t[ref_term_key(X_LEAF, (0,))][1])) == (Fraction, int)
    assert y == x and raw_terms(y) == raw_terms(x)
    assert [scalar_to_str(c) for _, _, c in y.terms.values()] == ["1"]
