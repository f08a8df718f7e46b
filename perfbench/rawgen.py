"""Raw constructions of the benchmark's inputs, shared by the workloads.

Each function returns the raw forms of oracles.py; the workloads convert
them to library objects with bridge.py.
"""

from __future__ import annotations

from fractions import Fraction

import oracles as O


def poly_table(F, n):
    """k[x]/(x^n) on the basis 1, x, .., x^(n-1): e_i e_j = e_(i+j)."""
    return (n, n, n, {(i, j): {i + j: 1} for i in range(n) for j in range(n)
                      if i + j < n})


def unit_fault(F, t, J, factor=2):
    """Make the unit act wrongly on e_J: e_0 e_J := factor * (old e_0 e_J)."""
    entries = dict(t[3])
    entries[(0, J)] = O.vscale(F, factor, entries[(0, J)])
    return (t[0], t[1], t[2], entries)


def diag(F, values):
    n = len(values)
    return (n, n, [{j: F.norm(values[j])} if F.norm(values[j]) else {}
                   for j in range(n)])


def sigma(F, n, c):
    """The automorphism x |-> c x of k[x]/(x^n): e_i |-> c^i e_i."""
    return diag(F, [F.norm(Fraction(c) ** i if not F.p else pow(c, i, F.p))
                    for i in range(n)])


def integration(F, n, lam=1):
    """Weight-0 Rota-Baxter operator lam * (x^k |-> x^(k+1) / (k+1))."""
    cols = [{k + 1: F.norm(lam * F.inv(k + 1))} if k + 1 < n else {}
            for k in range(n)]
    return (n, n, cols)


def with_entry(F, f, i, j, delta):
    """f with delta added to the coefficient of e_i in f(e_j)."""
    cols = [dict(c) for c in f[2]]
    cols[j] = O.vadd(F, cols[j], {i: delta})
    return (f[0], f[1], cols)


def two_param(F, a, b):
    """The built-in 2-dimensional BiHom-associative algebra (mu, alpha, beta)
    written from its defining formulas; a must be nonzero."""
    one = 1
    c21 = F.norm(b * (one - a) * F.inv(a))
    consts = [[[one, 0], [b, one - a]],
              [[c21, a], [0, b * F.inv(a)]]]
    mu = O.make_table(F, consts)
    alpha = O.make_map(F, [[one, c21], [0, a]])
    beta = O.make_map(F, [[one, b], [0, one - a]])
    return mu, alpha, beta


def line(F, c):
    """The dim-1 algebra e.e = c e."""
    return (1, 1, 1, {(0, 0): {0: F.norm(c)}})


def diag_blocks(F, n, names, values):
    """A structure on k^n whose operations only act inside each line k e_k:
    op(e_k, e_k) = values[k][op] e_k, everything else zero.  Returns one raw
    table per name."""
    tables = []
    for name in names:
        entries = {}
        for k in range(n):
            v = F.norm(values[k].get(name, 0))
            if v:
                entries[(k, k)] = {k: v}
        tables.append((n, n, n, entries))
    return tables
