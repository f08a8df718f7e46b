"""Planar binary trees, their augmented variants, grafting, the three tree
maps, the free construction on tree-indexed generators, tree actions on a
concrete operated algebra, and truncated reduction modulo the associativity
ideal.

An augmented tree carries a pair of nonnegative powers on each leaf; the
RB-augmented variant additionally carries one nonnegative power on *every*
vertex (leaves and internal nodes alike), stored in preorder with the root
first.  Grafting joins two trees under a fresh root whose power is 0.

A FreeElement stores each term by its key alone, with the term's window
summary of four ints and no tree or word: the key spells both.  It holds
its coefficients as raw values of its field, as the containers of linalg
do (over Q an int or a Fraction: the constructor norms an integral value to
an int, and the kernels keep what the ops compute; see scalars), and every
kernel on it (`+`, `-`, `scale`, `map_terms`, `free_multiply` and the
eliminator) computes through `field.ops` in the order of the old boxed
loops, so it makes the same mul and add calls and builds no Scalar.  Its
public `terms` is a live mapping over the raw dict that builds each tree
and word from its key and boxes on read, and unboxes on write.
"""

from __future__ import annotations

import re
from collections.abc import MutableMapping
from dataclasses import dataclass, replace
from itertools import chain, product, repeat

from .errors import (BoundsExceeded, BudgetExceeded, Indecomposable,
                     InvalidArity, WrongAugmentation)
from .linalg import Vector, _raw
from .scalars import FieldSpec, Scalar, _clip, _scalar


@dataclass(frozen=True)
class PlanarBinaryTree:
    """Leaf when left is None; otherwise an internal node.  The leaf count
    `leaves` is counted once, at construction; it is a plain attribute, not
    a dataclass field, so equality, hash and repr see only the children."""

    left: "PlanarBinaryTree | None" = None
    right: "PlanarBinaryTree | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("node needs both children")
        object.__setattr__(self, "leaves", 1 if self.left is None
                           else self.left.leaves + self.right.leaves)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def vertices(self) -> int:
        return 2 * self.leaves - 1


LEAF = PlanarBinaryTree()

# enumerate_trees refuses to list more trees than this, and
# TruncatedIdealReducer a truncation window with more basis terms
TREES_LIMIT = 10 ** 6


def _tree_counts(n: int):
    """Catalan(k - 1), the number of trees with k leaves, for k = 1, .., n."""
    count = 1
    for k in range(1, n + 1):
        yield count
        count = count * (4 * k - 2) // (k + 1)


def enumerate_trees(n: int) -> list[PlanarBinaryTree]:
    """All planar binary trees with n leaves, ordered recursively by the
    split point p = 1 .. n-1 (left subtree takes p leaves).  BudgetExceeded
    refuses an n with more than TREES_LIMIT trees."""
    if not isinstance(n, int) or n < 1:
        raise InvalidArity(f"tree arity must be a positive integer, got {n!r}")
    if any(count > TREES_LIMIT for count in _tree_counts(n)):
        raise BudgetExceeded(f"more than {TREES_LIMIT} trees have {n} leaves")
    return _enumerate(n)


def _enumerate(n: int) -> list[PlanarBinaryTree]:
    """The trees of n leaves, bottom up: the list for k leaves is built once,
    for k = 2 .. n, from the lists for fewer leaves, so every tree of fewer
    than n leaves is one object, shared by each tree it is a subtree of.
    The order is that of the recursion on the split point, p = 1 .. k-1,
    then the left subtree, then the right one."""
    by_leaves = [None, [LEAF]]
    for k in range(2, n + 1):
        out = []
        for p in range(1, k):
            rights = by_leaves[k - p]
            for t1 in by_leaves[p]:
                out.extend(PlanarBinaryTree(t1, t2) for t2 in rights)
        by_leaves.append(out)
    return by_leaves[n]


@dataclass(frozen=True)
class _AugTree:
    """The base of both augmented kinds: a shape with an (alpha, beta) power
    pair on each leaf, left to right.  Its __post_init__ also checks the
    vertex powers of a kind that has them (`_has_vertex_powers`, a class
    attribute, not a field), so that a construction, which graft makes once
    per product, makes one check call."""

    tree: PlanarBinaryTree
    leaf_powers: tuple[tuple[int, int], ...]
    _has_vertex_powers = False

    def __post_init__(self):
        if len(self.leaf_powers) != self.tree.leaves:
            raise ValueError("leaf_powers length must equal the leaf count")
        if self._has_vertex_powers and len(self.vertex_powers) != self.tree.vertices:
            raise ValueError("vertex_powers length must equal the vertex count")

    @property
    def leaves(self) -> int:
        return self.tree.leaves


@dataclass(frozen=True)
class BAugTree(_AugTree):
    """A tree with leaf powers only."""


@dataclass(frozen=True)
class RBAugTree(_AugTree):
    """vertex_powers lists one power per vertex in preorder (root, then the
    left subtree's vertices, then the right subtree's)."""

    vertex_powers: tuple[int, ...]
    _has_vertex_powers = True

    @property
    def root_power(self) -> int:
        return self.vertex_powers[0]


AugTree = BAugTree | RBAugTree


def _augmented(t: AugTree) -> AugTree:
    """t, refused with WrongAugmentation unless it is an augmented tree."""
    if not isinstance(t, _AugTree):
        raise WrongAugmentation(f"{type(t).__name__} is not an augmented tree")
    return t


def graft(t1: AugTree | PlanarBinaryTree, t2) -> AugTree | PlanarBinaryTree:
    """Join the roots under a new root node; the new root's power is 0."""
    if type(t1) is not type(t2):
        raise WrongAugmentation(
            f"cannot graft {type(t1).__name__} with {type(t2).__name__}")
    if isinstance(t1, PlanarBinaryTree):
        return PlanarBinaryTree(t1, t2)
    tree = PlanarBinaryTree(_augmented(t1).tree, t2.tree)
    if isinstance(t1, RBAugTree):
        return RBAugTree(tree, t1.leaf_powers + t2.leaf_powers,
                         (0,) + t1.vertex_powers + t2.vertex_powers)
    return BAugTree(tree, t1.leaf_powers + t2.leaf_powers)


def decompose(t):
    """Split at the root.  Returns (p, q, t1, t2) for plain and B-augmented
    trees, and (p, q, s, t1, t2) for RB-augmented trees where s is the root
    power (so tree_R applied s times to graft(t1, t2) reconstructs t)."""
    shape = t if isinstance(t, PlanarBinaryTree) else _augmented(t).tree
    if shape.is_leaf:
        raise Indecomposable("a single leaf has no root split")
    left, right = shape.left, shape.right
    p, q = left.leaves, right.leaves
    if shape is t:  # a plain tree
        return p, q, left, right
    lp = t.leaf_powers
    if isinstance(t, BAugTree):
        return p, q, BAugTree(left, lp[:p]), BAugTree(right, lp[p:])
    vps, nv = t.vertex_powers, 1 + left.vertices
    return (p, q, vps[0], RBAugTree(left, lp[:p], vps[1:nv]),
            RBAugTree(right, lp[p:], vps[nv:]))


def tree_alpha(t: AugTree) -> AugTree:
    """Add 1 to the first component of every leaf power pair."""
    return replace(t, leaf_powers=tuple((a + 1, b) for a, b in _augmented(t).leaf_powers))


def tree_beta(t: AugTree) -> AugTree:
    """Add 1 to the second component of every leaf power pair."""
    return replace(t, leaf_powers=tuple((a, b + 1) for a, b in _augmented(t).leaf_powers))


def tree_R(t: RBAugTree) -> RBAugTree:
    """Add 1 to the root vertex power (the sole leaf counts as the root on a
    1-tree)."""
    if not isinstance(t, RBAugTree):
        raise WrongAugmentation("tree_R needs an RB-augmented tree")
    return replace(t, vertex_powers=(t.root_power + 1,) + t.vertex_powers[1:])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_tree(t) -> str:
    """`L[a1,a2;f]` per leaf, `( .. .. ){f}` per node; B-augmented trees omit
    the `;f` / `{f}` parts; plain trees are `L` and `( .. .. )`.  The grammar
    has no negative powers, so a tree with one is refused with ValueError
    (the constructors do not check, as the reducer builds many trees)."""
    if isinstance(t, PlanarBinaryTree):
        return _ser(t, None, None)
    vps = t.vertex_powers if isinstance(_augmented(t), RBAugTree) else None
    for kind, low in (("leaf", min(map(min, t.leaf_powers))), ("vertex", min(vps or (0,)))):
        if low < 0:
            raise ValueError(f"cannot serialize a negative {kind} power, got {low}")
    return _ser(t.tree, iter(t.leaf_powers), None if vps is None else iter(vps))


def _ser(node, powers, vps) -> str:
    """One preorder walk: powers yields the leaf pairs left to right (None on
    a plain tree), vps the vertex powers (None unless RB-augmented)."""
    f = None if vps is None else next(vps)
    if node.is_leaf:
        if powers is None:
            return "L"
        a, b = next(powers)
        return f"L[{a},{b}]" if f is None else f"L[{a},{b};{f}]"
    left = _ser(node.left, powers, vps)
    right = _ser(node.right, powers, vps)
    return f"({left} {right})" if f is None else f"({left} {right}){{{f}}}"


# Whitespace may stand before a node and before its ')'.  Integers take
# ASCII digits alone: str.isdigit also takes '²', which int() refuses, and
# '٣', which int() reads as 3.
_SPACE = re.compile(r"\s*")
_OPEN = re.compile(r"\s*(?:(\()|L(?:\[([0-9]+),([0-9]+)(?:;([0-9]+))?\])?)")
_CLOSE = re.compile(r"\s*\)(?:\{([0-9]+)\})?")
# the longest well-formed start of a leaf's [a,b;f] or a node's {f}
_OPENED = re.compile(r"\[(?:[0-9]+(?:,(?:[0-9]+(?:;[0-9]*)?)?)?)?|\{[0-9]*")


def _syntax_error(pos: int, msg: str):
    raise ValueError(f"tree syntax error at {pos}: {msg}")


def _bracket_error(text: str, pos: int):
    """Refuse the malformed [a,b;f] or {f} at pos where its longest
    well-formed start ends, naming what the grammar wants there."""
    done = _OPENED.match(text, pos).group()
    want = ("an integer" if done[-1] in "[{,;" else "'}'" if done[0] == "{"
            else "','" if "," not in done else "']'")
    _syntax_error(pos + len(done), f"expected {want}")


def _node(text: str, pos: int):
    """The node at pos: (tree, leaf_powers list, vertex_powers list or
    None, the position after it)."""
    m = _OPEN.match(text, pos)
    if m is None:
        pos = _SPACE.match(text, pos).end()
        _syntax_error(pos, "unexpected end of input" if pos == len(text)
                      else "expected 'L' or '('")
    paren, a, b, f = m.groups()
    if paren is None:  # a leaf
        if a is None:
            if text.startswith("[", m.end()):
                _bracket_error(text, m.end())
            return LEAF, [(0, 0)], None, m.end()
        return LEAF, [(int(a), int(b))], None if f is None else [int(f)], m.end()
    lt, lp, lv, pos = _node(text, m.end())
    rt, rp, rv, pos = _node(text, pos)
    m = _CLOSE.match(text, pos)
    if m is None:
        _syntax_error(_SPACE.match(text, pos).end(), "expected ')'")
    f = m.group(1)
    if f is None and text.startswith("{", m.end()):
        _bracket_error(text, m.end())
    if (lv is None) != (rv is None) or (f is None) != (lv is None):
        _syntax_error(m.end(), "mixed augmentation kinds")
    vp = None if f is None else [int(f)] + lv + rv
    return PlanarBinaryTree(lt, rt), lp + rp, vp, m.end()


def parse_tree(text: str):
    """Inverse of serialize_tree on augmented trees.  Text without `;f` /
    `{f}` parses as a B-augmented tree, a bare `L` meaning the powers (0, 0);
    use .tree for the undecorated shape."""
    tree, lp, vp, pos = _node(text, 0)
    pos = _SPACE.match(text, pos).end()
    if pos != len(text):
        _syntax_error(pos, "trailing garbage")
    if vp is None:
        return BAugTree(tree, tuple(lp))
    return RBAugTree(tree, tuple(lp), tuple(vp))


# ---------------------------------------------------------------------------
# Free elements
# ---------------------------------------------------------------------------

def _summary(t) -> tuple[int, int, int, int]:
    """A term's window summary: its leaf count and its largest alpha, beta
    and R powers, -1 for a kind of power the tree does not carry (so a plain
    tree reads (n, -1, -1, -1) and a B-augmented one (n, a, b, -1))."""
    if isinstance(t, PlanarBinaryTree):
        return t.leaves, -1, -1, -1
    alphas, betas = map(max, zip(*t.leaf_powers))
    return t.leaves, alphas, betas, max(getattr(t, "vertex_powers", (-1,)))


def _kind(info) -> str:
    """The name of the tree class a term's info stands for."""
    _, a, _, r = info
    return "RBAugTree" if r >= 0 else "BAugTree" if a >= 0 else "PlanarBinaryTree"


def _keyed(tree, word):
    """A term's key and info, its window summary.  The word is read back
    from the key alone, so ValueError refuses a letter that is not an int."""
    if not all(type(w) is int for w in word):
        raise ValueError(f"leaf word letters must be ints, got {_clip(repr(word))}")
    return FreeElement.term_key(tree, word), _summary(tree)


def _tree_of(text: str):
    """The tree a term key's text before its "|" names; text with no powers
    names a plain tree."""
    t = parse_tree(text)
    return t if "[" in text else t.tree


def _word(text: str) -> tuple[int, ...]:
    """The word a term key's text after its "|" spells."""
    return tuple(map(int, text.split(","))) if text else ()


class _Terms(MutableMapping):
    """`FreeElement.terms`, a live view of the raw term dict: a read builds
    the tree from its key and boxes the coefficient into a Scalar of the
    element's field, and a write unboxes it (FieldMismatch refuses anything
    else); a zero written deletes the key.  A write refuses, with
    ValueError, a key other than term_key(tree, word)."""

    __slots__ = ("_x",)

    def __init__(self, x: "FreeElement"):
        self._x = x

    def __getitem__(self, key):
        c = self._x._t[key][1]
        shape, _, word = key.partition("|")
        return _tree_of(shape), _word(word), _scalar(self._x.field, c)

    def __setitem__(self, key, term):
        tree, word, c = term
        right, info = _keyed(tree, word)
        if key != right:
            raise ValueError(f"term key {_clip(repr(key))} does not name its tree "
                             f"and word, {_clip(repr(right))}")
        c = _raw(self._x.field, c)
        if self._x.field.ops.is_zero(c):
            self._x._t.pop(key, None)  # a zero coefficient is no term
        else:
            self._x._t[key] = (info, c)

    def __delitem__(self, key):
        del self._x._t[key]

    def __contains__(self, key):
        return key in self._x._t

    def __iter__(self):
        return iter(self._x._t)

    def __len__(self):
        return len(self._x._t)

    def __repr__(self):
        return repr(dict(self.items()))


def _same_basis(x, y) -> None:
    """Refuse free elements (or a reducer and an element) over different
    fields or ranks."""
    if (x.field is not y.field and x.field != y.field) or x.rank != y.rank:
        raise ValueError("free elements live over different bases")


class FreeElement:
    """A finite linear combination of generators (tree, leaf word), with the
    leaf word drawn from a finite basis 0..rank-1 of the generating module.
    Keys are canonical serializations so the term order is reproducible.

    A term is its key, `serialize_tree(tree) + "|" + word`: the private dict
    `_t` maps each key to its info and its coefficient, and holds no tree
    and no word.  The info is the window summary of _summary, four ints, so
    the product rule and the reducer's window checks read no key.  A tree is
    built from its key only where one is read, a `terms` read and
    map_terms, and the word is parsed from it only by a `terms` read.

    The coefficients are raw values of `field` (see linalg).  Only nonzero
    values are stored (the constructor and a write through `terms` drop a
    zero), and the kernels compute on them through `field.ops` and build no
    Scalar.  `terms` is a live mapping over the same dict that boxes each
    coefficient on read and unboxes it on write, so Scalar stays the
    boundary: the constructor and `generator` take Scalars of `field`
    (FieldMismatch refuses any other), and `+`, `-`, `==` and
    `free_multiply` refuse operands over another field or rank."""

    __slots__ = ("field", "rank", "_t")

    def __init__(self, field: FieldSpec, rank: int, terms: dict):
        self.field, self.rank = field, rank
        self._t = {}
        self.terms.update(terms)

    @classmethod
    def _of(cls, field: FieldSpec, rank: int, raw: dict) -> "FreeElement":
        x = object.__new__(cls)
        x.field, x.rank, x._t = field, rank, raw
        return x

    @property
    def terms(self) -> _Terms:
        """key -> (tree, word tuple, Scalar coefficient)"""
        return _Terms(self)

    def __repr__(self):
        return f"FreeElement(field={self.field!r}, rank={self.rank!r}, terms={self.terms!r})"

    @staticmethod
    def zero(field: FieldSpec, rank: int) -> "FreeElement":
        return FreeElement._of(field, rank, {})

    @staticmethod
    def generator(field: FieldSpec, rank: int, tree: RBAugTree,
                  word: tuple[int, ...], coeff: Scalar | None = None) -> "FreeElement":
        if len(word) != tree.leaves:
            raise ValueError("leaf word length must equal the leaf count")
        if any(not 0 <= w < rank for w in word):
            raise ValueError("leaf word letter outside the basis range")
        c = field.ops.one if coeff is None else _raw(field, coeff)
        x = FreeElement.zero(field, rank)
        x._accumulate(*_keyed(tree, word), c)
        return x

    @staticmethod
    def term_key(tree: RBAugTree, word: tuple[int, ...]) -> str:
        return serialize_tree(tree) + "|" + ",".join(map(str, word))

    def _accumulate(self, key, info, coeff):
        """Add the raw coeff at key; a zero sum drops the term."""
        terms, ops = self._t, self.field.ops
        if key in terms:
            coeff = ops.add(terms[key][1], coeff)
        if ops.is_zero(coeff):
            terms.pop(key, None)
        else:
            terms[key] = (info, coeff)

    def _add_in(self, other: "FreeElement") -> None:
        """Add other's terms into self, in place, term by term in other's
        order: the field operations and term order of self + other."""
        _same_basis(self, other)
        for key, (info, c) in other._t.items():
            self._accumulate(key, info, c)

    def copy(self) -> "FreeElement":
        return FreeElement._of(self.field, self.rank, dict(self._t))

    def __add__(self, other: "FreeElement") -> "FreeElement":
        out = self.copy()
        out._add_in(other)
        return out

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        # checked before other's ops meet this field's -1
        _same_basis(self, other)
        ops = self.field.ops
        return self + other._scaled(ops.neg(ops.one))

    def scale(self, c: Scalar) -> "FreeElement":
        return self._scaled(_raw(self.field, c))

    def _scaled(self, c) -> "FreeElement":
        """The element times the raw value c."""
        # stored coefficients are nonzero and a field has no zero divisors,
        # so no product cancels and every key stays
        ops = self.field.ops
        if ops.is_zero(c):
            return FreeElement.zero(self.field, self.rank)
        mul = ops.mul
        return FreeElement._of(self.field, self.rank, {
            key: (info, mul(c, coeff)) for key, (info, coeff) in self._t.items()})

    def is_zero(self) -> bool:
        return not self._t

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (self - other).is_zero()

    def map_terms(self, fn) -> "FreeElement":
        """Apply a tree map to every basis term, keeping words and coefficients."""
        out = FreeElement.zero(self.field, self.rank)
        for key, (_, coeff) in self._t.items():
            shape, _, word = key.partition("|")
            tree = fn(_tree_of(shape))
            out._accumulate(serialize_tree(tree) + "|" + word, _summary(tree), coeff)
        return out


def free_multiply(x: FreeElement, y: FreeElement) -> FreeElement:
    """Bilinear extension of grafting on generators (see _graft_terms).
    Each operand's keys are split once per call, and each product's key and
    summary are one product-rule call."""
    _same_basis(x, y)
    mul = x.field.ops.mul
    out = FreeElement.zero(x.field, x.rank)
    right = [(_split(key, info), c2) for key, (info, c2) in y._t.items()]
    for key1, (info1, c1) in x._t.items():
        term1 = _split(key1, info1)
        for term2, c2 in right:
            out._accumulate(*_graft_terms(term1, term2), mul(c1, c2))
    return out


def _split(key: str, info):
    """A stored term as the product rule reads it: (shape text, word text,
    info), the key split at its "|"."""
    shape, _, word = key.partition("|")
    return shape, word, info


def _graft_terms(term1, term2):
    """The product of two split terms (shape text, word text, info), as the
    key and info it is stored under: the key `(s1 s2){0}|w1,w2` (no `{0}`
    unless RB-augmented) is term_key of the grafted tree and word.  Its
    summary joins the operands': the root's R power 0 is no larger than
    theirs.  Terms of two kinds are refused with WrongAugmentation, as graft
    refuses their trees."""
    (s1, k1, (n1, a1, b1, r1)), (s2, k2, (n2, a2, b2, r2)) = term1, term2
    if (a1 < 0) != (a2 < 0) or (r1 < 0) != (r2 < 0):
        raise WrongAugmentation(
            f"cannot graft {_kind(term1[2])} with {_kind(term2[2])}")
    root = "{0}" if r1 >= 0 else ""
    return f"({s1} {s2}){root}|{k1},{k2}", (
        n1 + n2, a1 if a1 > a2 else a2, b1 if b1 > b2 else b2,
        r1 if r1 > r2 else r2)


def free_alpha(x: FreeElement) -> FreeElement:
    return x.map_terms(tree_alpha)


def free_beta(x: FreeElement) -> FreeElement:
    return x.map_terms(tree_beta)


def free_R(x: FreeElement) -> FreeElement:
    return x.map_terms(tree_R)


# ---------------------------------------------------------------------------
# Tree action on a concrete algebra
# ---------------------------------------------------------------------------

def action_eval(t, elements: list[Vector], A, R=None) -> Vector:
    """Evaluate an augmented tree on a tuple of algebra elements: each leaf i
    contributes alpha^{a_i1} beta^{a_i2} R^{f_i}(x_i), each internal vertex v
    applies R^{f(v)} to the product of its children, and grafting multiplies
    through mu.  BudgetExceeded refuses, before any product, a tree whose
    powers sum to more than TREES_LIMIT: each power is that many compositions."""
    is_rb = isinstance(t, RBAugTree)
    if not is_rb and not isinstance(t, BAugTree):
        raise WrongAugmentation("action_eval needs an augmented tree")
    if is_rb and R is None:
        raise ValueError("an RB-augmented tree needs a Rota-Baxter operator")
    if not is_rb and R is not None:
        raise ValueError("a B-augmented tree takes no Rota-Baxter operator")
    if len(elements) != t.leaves:
        raise ValueError("element count must equal the leaf count")
    powers = [*chain.from_iterable(t.leaf_powers), *(t.vertex_powers if is_rb else ())]
    if sum(p for p in powers if p > 0) > TREES_LIMIT:
        raise BudgetExceeded(f"the tree's map powers sum to more than {TREES_LIMIT}")
    vps = iter(t.vertex_powers) if is_rb else repeat(0)
    return _act(t.tree, iter(t.leaf_powers), vps, iter(elements), A,
                None if R is None else R.map)


def _act(node, powers, vps, elements, A, rmap):
    """The preorder walk of _ser: powers yields the leaf pairs and elements
    the leaf arguments left to right, vps the vertex powers (zeros on a
    B-augmented tree).  A leaf applies alpha^a, then beta^b, to its element
    and a node mu to its children's values; then either applies R^f when
    its vertex power f is not 0."""
    f = next(vps)
    if node.is_leaf:
        a, b = next(powers)
        x = A.beta.power(b).apply(A.alpha.power(a).apply(next(elements)))
    else:
        lx = _act(node.left, powers, vps, elements, A, rmap)
        x = A.mu.apply(lx, _act(node.right, powers, vps, elements, A, rmap))
    return rmap.power(f).apply(x) if f else x


# ---------------------------------------------------------------------------
# Truncated reduction modulo the associativity ideal
# ---------------------------------------------------------------------------

def _element_fits(x: FreeElement, bounds) -> bool:
    """Whether every term of x is RB-augmented and inside the window."""
    return _outside(x, bounds) is None


def _outside(x: FreeElement, bounds):
    """The key of the first stored term of x that is not RB-augmented or
    not inside the window, read from the terms' summaries, or None."""
    leaves, ab, r = bounds["max_leaves"], bounds["max_ab_power"], bounds["max_r_power"]
    return next((key for key, ((n, a, b, f), _) in x._t.items()
                 if not (n <= leaves and a <= ab and b <= ab and 0 <= f <= r)), None)


def _has_room(x: FreeElement, side: int, max_power: int) -> bool:
    """Whether every term's largest power of component `side` (0 for alpha,
    1 for beta) is below max_power, so that map's image keeps it."""
    return all(info[1 + side] < max_power for info, _ in x._t.values())


def _bounded_generators(field, rank, n, bounds):
    """All single-term free elements with exactly n leaves inside the window."""
    out = []
    pairs = list(product(range(bounds["max_ab_power"] + 1), repeat=2))
    r_powers = range(bounds["max_r_power"] + 1)
    for shape in enumerate_trees(n):
        for lp in product(pairs, repeat=n):
            for vp in product(r_powers, repeat=shape.vertices):
                tree = RBAugTree(shape, lp, vp)
                for word in product(range(rank), repeat=n):
                    out.append(FreeElement.generator(field, rank, tree, word))
    return out


class _Eliminator:
    """Incremental exact Gaussian elimination over FreeElement supports.

    Pivots are keyed by the lexicographically smallest term key present in
    the (already reduced) row, which makes reduction canonical."""

    def __init__(self):
        self.pivots = {}  # key -> FreeElement with coefficient 1 on key

    def reduce(self, x: FreeElement) -> FreeElement:
        """Subtract at the smallest pivot key present until none is.  x is
        copied once and each step subtracts c times the pivot in place, term
        by term in pivot order, with the mul and add calls of x - pivot*c."""
        x = x.copy()
        pivots, ops = self.pivots, x.field.ops
        mul, neg_one = ops.mul, ops.neg(ops.one)
        while (key := min((k for k in x._t if k in pivots),
                          default=None)) is not None:
            c = x._t[key][1]
            for k, (info, pc) in pivots[key]._t.items():
                x._accumulate(k, info, mul(neg_one, mul(c, pc)))
        return x

    def insert(self, x: FreeElement) -> bool:
        """Reduce x and store it, scaled to coefficient one at its smallest
        key, as the pivot there; False if it reduces to zero.

        A row none of whose keys is a pivot is already reduced, so it is not
        copied: insert takes ownership of x, as the build may of its queue
        rows, which nothing else holds.  Every seed of a 3-leaf window is
        such a row.  A row that meets a pivot goes through reduce, which
        copies it.  A row whose coefficient at its smallest key is the
        field's one in the very form of ops.one, part for part of the same
        types, as every seed's is, is stored unscaled: scaling by it would
        give back every value and type the row holds.  Over Q(params) that
        includes the new pair ({0: 1}, {0: 1}) that ops.mul(one, one) makes
        for a closure row, but not a pair holding Fraction(1): scaling by
        it turns int coefficients into Fractions, so that row, like one led
        by an integral Fraction(1) over Q, keeps its scaled copy."""
        t = x._t
        if not self.pivots.keys().isdisjoint(t):
            x = self.reduce(x)
            t = x._t
        if not t:
            return False
        key = min(t)
        c, ops = t[key][1], x.field.ops
        one = ops.one
        if c is not one and not (c == one and repr(c) == repr(one)):
            # over Q, ops.inv gives Fraction(1, c): normed, a unit stays an int
            x = x._scaled(ops.norm(ops.inv(c)))
        self.pivots[key] = x
        return True


class TruncatedIdealReducer:
    """Precomputed reduction basis for the associativity ideal inside a fixed
    truncation window; build once, reduce many elements.  BudgetExceeded
    refuses a window of more than TREES_LIMIT basis terms before the build,
    and `reduce` refuses an element over another field or rank with
    ValueError, one with a term that is not RB-augmented with
    WrongAugmentation, and one outside the window with BoundsExceeded.

    The ideal is generated by mu(mu(t1,t2), beta(t3)) - mu(alpha(t1),
    mu(t2,t3)) and closed under the two tree maps and grafting on either
    side, all restricted to the window.  This is a TRUNCATED computation:
    reducing to zero is evidence of ideal membership within the window, not
    a proof of membership in the full ideal.

    Each seed is built as one two-term row: (t1 t2) beta(t3) with
    coefficient one and alpha(t1) (t2 t3) with -1, keyed by the product rule
    of free_multiply (_graft_terms) on split terms, with no tree.  Each
    generator's key, and each alpha or beta image's, is split once per
    build.  The product rule gives a product's stored key and summary in
    one call, so each of a seed's two terms costs one call; the (t1 t2) and
    (t2 t3) products, which each serve a whole row of seeds, cost one call
    each and are split once to be grafted again.  The (3,2,1) rank-1 build
    makes 5,616 calls: 2 for each of its 2,592 seeds and 432 for the
    shared products.  A seed row holds six objects the garbage collector
    tracks: the FreeElement, its dict, and per term the (info, coefficient)
    pair and the summary; the keys are strings, and the words live in them.
    A row none of whose keys is a pivot is stored as built, without a copy
    (see _Eliminator.insert).  In a 3-leaf window
    that is every seed: each of a seed's two terms names its triple, and
    their shapes differ, so no two seeds share a key; and such a window has
    no closure products.

    The build closes the seeds that fit under grafting with the window's
    generators on either side, and takes no alpha or beta images: those of
    the truncated ideal already lie in its span, since both maps are
    multiplicative on free elements (Ebrahimi-Fard-Guo, Free Rota-Baxter
    algebras and rooted trees, J. Algebra Appl. 7, 2008).
    - Seeds.  alpha(x y) = alpha(x) alpha(y), so alpha maps the seed of
      (t1, t2, t3) to the seed of (alpha t1, alpha t2, alpha t3), a triple
      the seed loop takes whenever that image fits.  Likewise beta.
    - Products.  An image of a product that fits has all its factors in the
      window, so by induction it lies in the span of the seeds closed under
      grafting, and that span is unchanged.
    - Output.  The normal form `reduce` returns depends only on that span,
      so over Q and F_p, where each value prints one way, it is that of a
      closure that also takes the images.
    - Pivots.  An image that adds no pivot queues nothing, so the pivot dict
      is that of such a closure whenever no image would insert a pivot.

    Every element built fits the window.
    - A seed's two terms carry the leaves of t1, t2 and beta(t3), and of
      alpha(t1), t2 and t3, under roots of power 0, with at most max_leaves
      leaves by the loop ranges.  So it fits exactly when alpha(t1) and
      beta(t3) do, and a triple is skipped when either does not.  The two
      terms differ in shape, so no seed is zero.
    - Ideal elements are homogeneous in leaf count.  So grafting g with a
      generator of at most max_leaves less g's leaves, under a root of power
      0, fits.
    """

    def __init__(self, field: FieldSpec, rank: int, bounds: dict):
        for name in ("max_leaves", "max_ab_power", "max_r_power"):
            if name not in bounds:
                raise ValueError(f"missing bound {name!r}")
        self.bounds = dict(bounds)
        self.field = field
        self.rank = rank
        max_leaves, max_ab = bounds["max_leaves"], bounds["max_ab_power"]
        # The window's basis: with n leaves, Catalan(n - 1) shapes, an (alpha,
        # beta) power pair per leaf, an R power per vertex, a generator per
        # leaf.  The build walks the shapes and powers even at rank 0.
        size = 0
        for n, shapes in enumerate(_tree_counts(max_leaves), 1):
            size += (shapes * (max_ab + 1) ** (2 * n)
                     * (bounds["max_r_power"] + 1) ** (2 * n - 1) * max(rank, 1) ** n)
            if size > TREES_LIMIT:
                raise BudgetExceeded(f"the window spans more than {TREES_LIMIT} basis terms")
        # Seeds read n <= max_leaves - 2; closure reads n <= max_leaves - 3,
        # because every ideal term has at least 3 leaves.
        by_leaves = {n: _bounded_generators(field, rank, n, bounds)
                     for n in range(1, max_leaves - 1)}
        # the generators and their images as split terms, each key split once
        def term(g):
            (key, (info, _)), = g._t.items()
            return _split(key, info)
        terms = {n: [term(g) for g in gens] for n, gens in by_leaves.items()}
        alphas = {n: [(term(g), term(free_alpha(g))) for g in gens
                      if _has_room(g, 0, max_ab)] for n, gens in by_leaves.items()}
        betas = {n: [(term(g), term(free_beta(g))) for g in gens
                     if _has_room(g, 1, max_ab)] for n, gens in by_leaves.items()}
        # every generator has coefficient one, so a seed's terms carry one
        # and the -1 that subtracting a product of ones makes
        ops, seeds = field.ops, []
        one = ops.one
        minus_one = ops.mul(ops.neg(one), one)
        row, seed, graft = FreeElement._of, seeds.append, _graft_terms
        for n1 in range(1, max_leaves - 1):
            for n2 in range(1, max_leaves - n1):
                for n3 in range(1, max_leaves - n1 - n2 + 1):
                    if not (alphas[n1] and betas[n3]):
                        continue
                    # t2 t3 for the whole (n2, n3) block, dropped after it
                    right = [[_split(*graft(t2, t3)) for t3, _ in betas[n3]]
                             for t2 in terms[n2]]
                    for t1, at1 in alphas[n1]:
                        for t2, products in zip(terms[n2], right):
                            left = _split(*graft(t1, t2))
                            for (_, bt3), t23 in zip(betas[n3], products):
                                k1, info1 = graft(left, bt3)
                                k2, info2 = graft(at1, t23)
                                seed(row(field, rank, {k1: (info1, one),
                                                       k2: (info2, minus_one)}))
        # the queue is LIFO; every ideal row has at least 3 leaves, so only a
        # window of more leaves grafts generators onto its pivots
        elim = _Eliminator()
        insert, queue, grafts = elim.insert, seeds, max_leaves > 3
        while queue:
            g = queue.pop()
            if insert(g) and grafts:
                g_leaves = next(iter(g._t.values()))[0][0]
                for n in range(1, max_leaves - g_leaves + 1):
                    for other in by_leaves[n]:
                        queue.append(free_multiply(g, other))
                        queue.append(free_multiply(other, g))
        self._elim = elim

    def reduce(self, x: FreeElement) -> FreeElement:
        _same_basis(self, x)
        if not _element_fits(x, self.bounds):
            for info, _ in x._t.values():
                if info[3] < 0:
                    raise WrongAugmentation(
                        f"the reducer needs RB-augmented terms, not {_kind(info)}")
            raise BoundsExceeded("element does not fit within the stated bounds")
        return self._elim.reduce(x)


def truncated_ideal_reduce(x: FreeElement, bounds: dict) -> FreeElement:
    """One-shot reduction of x within bounds (keys: max_leaves, max_ab_power,
    max_r_power); see TruncatedIdealReducer for the amortized form."""
    return TruncatedIdealReducer(x.field, x.rank, bounds).reduce(x)
