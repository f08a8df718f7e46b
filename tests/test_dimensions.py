"""The axiom rows certified by the dimensions of free algebras.

With alpha = beta = id, each kind's AXIOMS rows, with its DERIVED sums, are
the relations of a classical nonsymmetric operad.  Its free algebra on one
generator has, in degree n, the planar binary trees with n leaves whose
vertices carry the kind's operations, less the rank of the relations' ideal
in degree n.  The known dimensions by degree:

- dendriform: the Catalan numbers 1, 2, 5, 14, 42 (Loday, *Dialgebras*,
  LNM 1763, 2001);
- tridendriform: the large Schroeder numbers 1, 3, 11, 45, 197 (Loday-Ronco,
  *Trialgebras and families of polytopes*, Contemp. Math. 346, 2004);
- quadri: 1, 4, 23, 156, 1162 (Aguiar-Loday, *Quadri-algebras*, JPAA 191,
  2004);
- associative: 1 in every degree.

The rows are read from the classes alone, and the ideal is ranked with
plain ints mod a prime: nothing here shares code with _check_axioms,
compose or tensor2.
"""

from itertools import product

import pytest

from bihomalg import (BiHomAssociativeAlgebra, BiHomDendriform, BiHomQuadri,
                      BiHomTridendriform)

PRIME = 1000003
LEAF = "x"
IDENTITIES = ("alpha", "beta")  # both the identity here

DIMENSIONS = {
    BiHomAssociativeAlgebra: (1, 1, 1, 1, 1),
    BiHomDendriform: (1, 2, 5, 14, 42),
    BiHomTridendriform: (1, 3, 11, 45, 197),
    BiHomQuadri: (1, 4, 23, 156, 1162),
}


def graft(tree, subs):
    """tree with its leaves, left to right, replaced by the trees of subs."""
    subs = iter(subs)

    def walk(t):
        return next(subs) if t == LEAF else (t[0], walk(t[1]), walk(t[2]))
    return walk(tree)


def arity(tree) -> int:
    return 1 if tree == LEAF else arity(tree[1]) + arity(tree[2])


def substitute(element, parts):
    """The element (a dict tree -> coefficient) with the elements of parts
    substituted into its leaves, left to right, multilinearly."""
    out = {}
    for tree, c in element.items():
        for choice in product(*(part.items() for part in parts)):
            key = graft(tree, [t for t, _ in choice])
            coeff = c
            for _, x in choice:
                coeff = coeff * x % PRIME
            out[key] = (out.get(key, 0) + coeff) % PRIME
    return {t: c for t, c in out.items() if c}


def name_element(kind, name):
    """An operation, a derived sum of them, or a structure map (the identity)
    as an element of the free operad."""
    if name in IDENTITIES:
        return {LEAF: 1}
    return {(op, LEAF, LEAF): 1 for op in kind.DERIVED.get(name, (name,))}


def side_element(kind, side):
    """A side (f1, f2, ...) is ((f1 o f2) o ...); a factor is a name or a
    tuple of names, their Kronecker product.  Each factor is a list of
    elements, one per output; a composite substitutes the outputs of the
    right factor into the leaves of the left one's elements."""
    factors = [[name_element(kind, f)] if isinstance(f, str)
               else [name_element(kind, g) for g in f] for f in side]
    value = factors[-1]
    for factor in reversed(factors[:-1]):
        parts, out = iter(value), []
        for element in factor:
            n = arity(next(iter(element)))
            out.append(substitute(element, [next(parts) for _ in range(n)]))
        assert next(parts, None) is None
        value = out
    (element,) = value
    return element


def relations(kind, rows):
    out = []
    for _, lhs, rhs in rows:
        r = dict(side_element(kind, lhs))
        for t, c in side_element(kind, rhs).items():
            r[t] = (r.get(t, 0) - c) % PRIME
        out.append({t: c for t, c in r.items() if c})
    return out


def colored_trees(ops, n):
    """The planar binary trees with n leaves, each vertex one of ops."""
    if n == 1:
        return [LEAF]
    return [(op, left, right) for p in range(1, n)
            for left in colored_trees(ops, p) for right in colored_trees(ops, n - p)
            for op in ops]


class Echelon:
    """Row echelon form mod PRIME of sparse vectors over hashable keys."""

    def __init__(self):
        self.order, self.pivots = {}, {}

    def insert(self, v) -> bool:
        v = {self.order.setdefault(t, len(self.order)): c for t, c in v.items()}
        while v:
            lead = min(v)
            row = self.pivots.get(lead)
            if row is None:
                inv = pow(v[lead], PRIME - 2, PRIME)
                self.pivots[lead] = {k: c * inv % PRIME for k, c in v.items()}
                return True
            c = v[lead]
            for k, x in row.items():
                y = (v.get(k, 0) - c * x) % PRIME
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
        return False


def dimensions(kind, rows, top: int) -> tuple:
    """The free algebra's dimension in degrees 1..top: the degree-n ideal
    is spanned by a basis of degree n - 1's with an operation grafted at
    the root (the other input a leaf) or onto one leaf."""
    gens = [{(op, LEAF, LEAF): 1} for op in kind.OPS]
    dims, basis = [], []
    for n in range(1, top + 1):
        free = len(colored_trees(kind.OPS, n))
        if n < 3:
            dims.append(free)
            continue
        if n == 3:
            spanning = relations(kind, rows)
        else:
            leaf = {LEAF: 1}
            spanning = [substitute(g, parts) for e in basis for g in gens
                        for parts in ((e, leaf), (leaf, e))]
            spanning += [substitute(e, [g if i == j else leaf for j in range(n - 1)])
                         for e in basis for g in gens for i in range(n - 1)]
        ech = Echelon()
        basis = [v for v in spanning if ech.insert(v)]
        dims.append(free - len(basis))
    return tuple(dims)


@pytest.mark.parametrize("kind", list(DIMENSIONS), ids=lambda k: k.__name__)
def test_axiom_rows_give_the_free_algebra_dimensions(kind):
    assert dimensions(kind, kind.AXIOMS, 5) == DIMENSIONS[kind]


def rename_first(side, old, new):
    """side with its first factor name old replaced by new."""
    done = False

    def swap(name):
        nonlocal done
        if name == old and not done:
            done = True
            return new
        return name
    out = tuple(swap(f) if isinstance(f, str) else tuple(map(swap, f)) for f in side)
    assert done
    return out


# one mutation per kind: one name of one row replaced by another operation
# or derived sum
MUTATIONS = {
    BiHomDendriform: ("dend_prec", "total", "succ"),
    BiHomTridendriform: ("tridend_11", "prec", "succ"),
    BiHomQuadri: ("quadri_13b", "ne", "nw"),
}


@pytest.mark.parametrize("kind", list(MUTATIONS), ids=lambda k: k.__name__)
def test_a_one_name_mutation_changes_the_dimensions(kind):
    tag, old, new = MUTATIONS[kind]
    rows = [(t, lhs, rename_first(rhs, old, new) if t == tag else rhs)
            for t, lhs, rhs in kind.AXIOMS]
    assert rows != list(kind.AXIOMS)
    assert dimensions(kind, rows, 4) != DIMENSIONS[kind][:4]


def test_derived_tables_are_the_summands_in_order():
    assert BiHomAssociativeAlgebra.DERIVED == {}
    for kind in (BiHomDendriform, BiHomTridendriform):
        assert dict(kind.DERIVED) == {"total": kind.OPS}
    assert dict(BiHomQuadri.DERIVED) == {
        "prec": ("nw", "sw"), "succ": ("ne", "se"), "vee": ("se", "sw"),
        "wedge": ("ne", "nw"), "total": ("nw", "sw", "ne", "se")}
    assert BiHomQuadri.OPS + BiHomQuadri.DERIVED == (
        "nw", "sw", "ne", "se", "prec", "succ", "vee", "wedge", "total")
