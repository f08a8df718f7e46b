"""Independent verdict oracles for the benchmark.

Nothing here imports bihomalg.  The oracles work on raw values (Fraction for
Q, int in [0, p) for F_p) held in sparse dicts, and evaluate every identity
elementwise on basis tuples, instead of as matrix identities on tensor powers
the way the library does.  A workload builds its inputs from these raw forms
first, hands converted copies to the library, and compares what comes back.

Raw shapes:
  vector  {index: value}, zero entries absent
  map     (rows, cols, [column vector of e_j for j in range(cols)])
  table   (dim_left, dim_right, dim_out, {(i, j): vector})
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class RawField:
    """Q when p is None, else F_p."""

    def __init__(self, p: int | None = None):
        self.p = p

    def norm(self, x):
        return x % self.p if self.p else Fraction(x)

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / Fraction(x)


# -- vectors -----------------------------------------------------------------

def vadd(F, *vs):
    out = {}
    for v in vs:
        for i, x in v.items():
            s = F.norm(out.get(i, 0) + x)
            if s:
                out[i] = s
            else:
                out.pop(i, None)
    return out


def vscale(F, c, v):
    out = {}
    for i, x in v.items():
        s = F.norm(c * x)
        if s:
            out[i] = s
    return out


def basis(i):
    return {i: 1}


# -- maps and tables ----------------------------------------------------------

def make_map(F, rows):
    """Raw map from a row-major nested list (rows[i][j] = coeff of e_i in f(e_j))."""
    nr, nc = len(rows), len(rows[0])
    cols = [{i: F.norm(rows[i][j]) for i in range(nr) if F.norm(rows[i][j])}
            for j in range(nc)]
    return (nr, nc, cols)


def identity(n):
    return (n, n, [{i: 1} for i in range(n)])


def apply(F, f, v):
    return vadd(F, *(vscale(F, x, f[2][j]) for j, x in v.items()))


def compose(F, f, g):
    """f after g."""
    return (f[0], g[1], [apply(F, f, col) for col in g[2]])


def map_add(F, *fs):
    return (fs[0][0], fs[0][1], [vadd(F, *cols) for cols in zip(*(f[2] for f in fs))])


def map_scale(F, c, f):
    return (f[0], f[1], [vscale(F, c, col) for col in f[2]])


def map_power(F, f, k):
    out = identity(f[0])
    for _ in range(k):
        out = compose(F, f, out)
    return out


def map_rows(f):
    return [[f[2][j].get(i, 0) for j in range(f[1])] for i in range(f[0])]


def make_table(F, consts):
    """Raw table from consts[i][j][k] = coefficient of e_k in e_i * e_j."""
    dl, dr, do = len(consts), len(consts[0]), len(consts[0][0])
    entries = {}
    for i in range(dl):
        for j in range(dr):
            col = {k: F.norm(consts[i][j][k]) for k in range(do)
                   if F.norm(consts[i][j][k])}
            if col:
                entries[(i, j)] = col
    return (dl, dr, do, entries)


def table_consts(t):
    dl, dr, do, entries = t
    return [[[entries.get((i, j), {}).get(k, 0) for k in range(do)]
             for j in range(dr)] for i in range(dl)]


def bil(F, t, u, v):
    entries = t[3]
    parts = []
    for i, a in u.items():
        for j, b in v.items():
            col = entries.get((i, j))
            if col:
                parts.append(vscale(F, a * b, col))
    return vadd(F, *parts)


def table_add(F, *ts):
    dl, dr, do = ts[0][:3]
    keys = set().union(*(t[3] for t in ts))
    entries = {}
    for key in keys:
        col = vadd(F, *(t[3].get(key, {}) for t in ts))
        if col:
            entries[key] = col
    return (dl, dr, do, entries)


def table_scale(F, c, t):
    return (t[0], t[1], t[2], {k: v for k, v in
                               ((k, vscale(F, c, col)) for k, col in t[3].items()) if v})


def twist_table(F, t, f, g):
    """(x, y) |-> t(f x, g y)."""
    entries = {}
    for i in range(t[0]):
        for j in range(t[1]):
            col = bil(F, t, f[2][i], g[2][j])
            if col:
                entries[(i, j)] = col
    return (t[0], t[1], t[2], entries)


def tensor_tables(F, ta, tb):
    """(a1 (x) b1, a2 (x) b2) |-> ta(a1, a2) (x) tb(b1, b2) on the lexicographic basis."""
    na, nb = ta[0], tb[0]
    n = na * nb
    entries = {}
    for (i1, i2), ca in ta[3].items():
        for (j1, j2), cb in tb[3].items():
            col = {k1 * nb + k2: F.norm(x * y) for k1, x in ca.items()
                   for k2, y in cb.items() if F.norm(x * y)}
            if col:
                entries[(i1 * nb + j1, i2 * nb + j2)] = col
    return (n, n, n, entries)


def kron_map(F, f, g):
    """f (x) g as a raw map on the lexicographic basis."""
    cols = []
    for a in range(f[1]):
        for b in range(g[1]):
            cols.append(outer(F, f[2][a], g[2][b], g[0]))
    return (f[0] * g[0], f[1] * g[1], cols)


def outer(F, u, v, nv):
    """u (x) v, flattened with the right factor of dimension nv."""
    return {a * nv + b: F.norm(x * y) for a, x in u.items() for b, y in v.items()
            if F.norm(x * y)}


# -- elementwise identity evaluation -----------------------------------------

def violations(F, axioms, cap=None):
    """All violations, in axiom order then lexicographic tuple order.

    axioms: (axiom id, dims, fn) with fn(tuple of basis indices) -> (lhs, rhs)
    raw vectors.  Returns [(axiom id, tuple, lhs, rhs)].
    """
    out = []
    for name, dims, fn in axioms:
        for idx in itertools.product(*(range(d) for d in dims)):
            lhs, rhs = fn(idx)
            if lhs != rhs:
                out.append((name, idx, lhs, rhs))
                if cap is not None and len(out) >= cap:
                    return out
    return out


def _commute(F, name, f, g):
    return (name, (f[0],),
            lambda i: (apply(F, f, g[2][i[0]]), apply(F, g, f[2][i[0]])))


def _mult(F, name, f, t):
    return (name, (t[0], t[1]),
            lambda i: (apply(F, f, t[3].get(i, {})),
                       bil(F, t, f[2][i[0]], f[2][i[1]])))


def _braid(F, name, n, lhs, rhs):
    def fn(i):
        x, y, z = (basis(k) for k in i)
        return lhs(x, y, z), rhs(x, y, z)
    return (name, (n, n, n), fn)


def assoc_axioms(F, mu, alpha, beta):
    n = mu[0]
    A = lambda v: apply(F, alpha, v)
    B = lambda v: apply(F, beta, v)
    m = lambda u, v: bil(F, mu, u, v)
    return [
        _commute(F, "alpha_beta_commute", alpha, beta),
        _mult(F, "alpha_multiplicative", alpha, mu),
        _mult(F, "beta_multiplicative", beta, mu),
        _braid(F, "bihom_associativity", n,
               lambda x, y, z: m(A(x), m(y, z)),
               lambda x, y, z: m(m(x, y), B(z))),
    ]


def dend_axioms(F, prec, succ, alpha, beta):
    n = prec[0]
    A = lambda v: apply(F, alpha, v)
    B = lambda v: apply(F, beta, v)
    p = lambda u, v: bil(F, prec, u, v)
    s = lambda u, v: bil(F, succ, u, v)
    ps = lambda u, v: vadd(F, p(u, v), s(u, v))
    return [
        _commute(F, "alpha_beta_commute", alpha, beta),
        _mult(F, "alpha_mult_prec", alpha, prec),
        _mult(F, "alpha_mult_succ", alpha, succ),
        _mult(F, "beta_mult_prec", beta, prec),
        _mult(F, "beta_mult_succ", beta, succ),
        _braid(F, "dend_prec", n, lambda x, y, z: p(p(x, y), B(z)),
               lambda x, y, z: p(A(x), ps(y, z))),
        _braid(F, "dend_mid", n, lambda x, y, z: p(s(x, y), B(z)),
               lambda x, y, z: s(A(x), p(y, z))),
        _braid(F, "dend_succ", n, lambda x, y, z: s(A(x), s(y, z)),
               lambda x, y, z: s(ps(x, y), B(z))),
    ]


def tridend_axioms(F, prec, succ, dot, alpha, beta):
    n = prec[0]
    A = lambda v: apply(F, alpha, v)
    B = lambda v: apply(F, beta, v)
    p = lambda u, v: bil(F, prec, u, v)
    s = lambda u, v: bil(F, succ, u, v)
    d = lambda u, v: bil(F, dot, u, v)
    tot = lambda u, v: vadd(F, p(u, v), s(u, v), d(u, v))
    axioms = [_commute(F, "alpha_beta_commute", alpha, beta)]
    for tag, t in (("prec", prec), ("succ", succ), ("dot", dot)):
        axioms.append(_mult(F, f"alpha_mult_{tag}", alpha, t))
        axioms.append(_mult(F, f"beta_mult_{tag}", beta, t))
    rules = [
        ("tridend_8", lambda x, y, z: p(p(x, y), B(z)), lambda x, y, z: p(A(x), tot(y, z))),
        ("tridend_9", lambda x, y, z: p(s(x, y), B(z)), lambda x, y, z: s(A(x), p(y, z))),
        ("tridend_10", lambda x, y, z: s(A(x), s(y, z)), lambda x, y, z: s(tot(x, y), B(z))),
        ("tridend_11", lambda x, y, z: d(A(x), s(y, z)), lambda x, y, z: d(p(x, y), B(z))),
        ("tridend_12", lambda x, y, z: s(A(x), d(y, z)), lambda x, y, z: d(s(x, y), B(z))),
        ("tridend_13", lambda x, y, z: d(A(x), p(y, z)), lambda x, y, z: p(d(x, y), B(z))),
        ("tridend_14", lambda x, y, z: d(A(x), d(y, z)), lambda x, y, z: d(d(x, y), B(z))),
    ]
    return axioms + [_braid(F, name, n, lhs, rhs) for name, lhs, rhs in rules]


def quadri_axioms(F, nw, sw, ne, se, alpha, beta):
    """The nine quadri-algebra identities (Aguiar-Loday, BiHom form)."""
    n = nw[0]
    A = lambda v: apply(F, alpha, v)
    B = lambda v: apply(F, beta, v)
    op = lambda *ts: (lambda u, v: vadd(F, *(bil(F, t, u, v) for t in ts)))
    NW, SW, NE, SE = op(nw), op(sw), op(ne), op(se)
    prec, succ = op(nw, sw), op(ne, se)
    vee, wedge = op(se, sw), op(ne, nw)
    star = op(nw, sw, ne, se)
    axioms = [_commute(F, "alpha_beta_commute", alpha, beta)]
    for tag, t in (("nw", nw), ("sw", sw), ("ne", ne), ("se", se)):
        axioms.append(_mult(F, f"alpha_mult_{tag}", alpha, t))
        axioms.append(_mult(F, f"beta_mult_{tag}", beta, t))
    rules = [
        ("quadri_11a", NW, NW, NW, star),
        ("quadri_11b", NW, NE, NE, prec),
        ("quadri_12a", NE, wedge, NE, succ),
        ("quadri_12b", NW, SW, SW, wedge),
        ("quadri_13a", NW, SE, SE, NW),
        ("quadri_13b", NE, vee, SE, NE),
        ("quadri_14a", SW, prec, SW, vee),
        ("quadri_14b", SW, succ, SE, SW),
        ("quadri_15", SE, star, SE, SE),
    ]
    # each rule reads: outer_l(inner_l(x, y), beta z) == outer_r(alpha x, inner_r(y, z))
    for name, ol, il, orr, ir in rules:
        axioms.append(_braid(
            F, name, n,
            lambda x, y, z, ol=ol, il=il: ol(il(x, y), B(z)),
            lambda x, y, z, orr=orr, ir=ir: orr(A(x), ir(y, z))))
    return axioms


def rb_axioms(F, mu, R, weight):
    """R(x)R(y) == R(R(x)y + xR(y) + weight xy)."""
    def fn(i):
        x, y = basis(i[0]), basis(i[1])
        rx, ry = apply(F, R, x), apply(F, R, y)
        inner = vadd(F, bil(F, mu, rx, y), bil(F, mu, x, ry),
                     vscale(F, weight, bil(F, mu, x, y)))
        return bil(F, mu, rx, ry), apply(F, R, inner)
    return [("rota_baxter", (mu[0], mu[0]), fn)]


def baxter_axioms(F, mu, P, side):
    """right: P(a)P(b) == P(P(a)b); left: Q(a)Q(b) == Q(aQ(b))."""
    def fn(i):
        pa, pb = apply(F, P, basis(i[0])), apply(F, P, basis(i[1]))
        inner = bil(F, mu, pa, basis(i[1])) if side == "right" \
            else bil(F, mu, basis(i[0]), pb)
        return bil(F, mu, pa, pb), apply(F, P, inner)
    return [(f"{side}_baxter", (mu[0], mu[0]), fn)]


def grb_axioms(F, mu, left, right, pi):
    """pi(m)pi(n) == pi(pi(m).n + m.pi(n)) on basis pairs of the module."""
    m = pi[1]

    def fn(i):
        a, b = basis(i[0]), basis(i[1])
        pa, pb = apply(F, pi, a), apply(F, pi, b)
        inner = vadd(F, bil(F, left, pa, b), bil(F, right, a, pb))
        return bil(F, mu, pa, pb), apply(F, pi, inner)
    return [("grb", (m, m), fn)]


def _as_fn(F, f):
    """(callable on raw vectors, output dimension) for a raw map or a _Mu."""
    if isinstance(f, _Mu):
        return f, f.out_dim
    return (lambda v: apply(F, f, v)), f[0]


def _pair_apply(F, f, g, w, n_right):
    """(f (x) g)(w) for w on a two-factor basis whose right factor has
    n_right basis vectors."""
    fa, _ = _as_fn(F, f)
    ga, ng = _as_fn(F, g)
    parts = []
    for idx, c in w.items():
        a, b = divmod(idx, n_right)
        parts.append(vscale(F, c, outer(F, fa(basis(a)), ga(basis(b)), ng)))
    return vadd(F, *parts)


class _Mu:
    """mu as a linear map A (x) A -> A on raw vectors."""

    def __init__(self, F, mu):
        self.F, self.mu, self.out_dim = F, mu, mu[2]

    def __call__(self, w):
        n = self.mu[1]
        return vadd(self.F, *(vscale(self.F, c, self.mu[3].get(divmod(k, n), {}))
                              for k, c in w.items()))


def weak_pseudotwistor_axioms(F, mu, alpha, beta, T, companion, atilde, btilde):
    """The two weak-pseudotwistor identities on the tensor cube and the four
    commutations of T with squared maps, evaluated basis tuple by tuple."""
    n = mu[0]
    M = _Mu(F, mu)
    mu_t = lambda w: M(apply(F, T, w))
    a_alpha = compose(F, atilde, alpha)
    b_beta = compose(F, btilde, beta)

    def cube(i):
        return {(i[0] * n + i[1]) * n + i[2]: 1}

    def weak1(i):
        inner = outer(F, apply(F, a_alpha, basis(i[0])), mu_t({i[1] * n + i[2]: 1}), n)
        return (apply(F, T, inner),
                _pair_apply(F, alpha, M, apply(F, companion, cube(i)), n * n))

    def weak2(i):
        inner = outer(F, mu_t({i[0] * n + i[1]: 1}), apply(F, b_beta, basis(i[2])), n)
        return (apply(F, T, inner),
                _pair_apply(F, M, beta, apply(F, companion, cube(i)), n))

    axioms = [("weak_1", (n, n, n), weak1), ("weak_2", (n, n, n), weak2)]
    for tag, f in (("alpha", alpha), ("beta", beta), ("atilde", atilde),
                   ("btilde", btilde)):
        def comm(i, f=f):
            e = {i[0] * n + i[1]: 1}
            return (apply(F, T, _pair_apply(F, f, f, e, n)),
                    _pair_apply(F, f, f, apply(F, T, e), n))
        axioms.append((f"T_commutes_{tag}", (n, n), comm))
    return axioms


def rb_pseudotwistor_raw(F, R, weight):
    """T = R (x) id + id (x) R + w id and its seven-term companion."""
    n = R[0]
    I = identity(n)
    T = map_add(F, kron_map(F, R, I), kron_map(F, I, R),
                map_scale(F, weight, identity(n * n)))
    k3 = lambda a, b, c: kron_map(F, a, kron_map(F, b, c))
    companion = map_add(
        F, k3(R, R, I), k3(R, I, R), k3(I, R, R),
        map_scale(F, weight, map_add(F, k3(R, I, I), k3(I, R, I), k3(I, I, R))),
        map_scale(F, F.norm(weight * weight), identity(n ** 3)))
    return T, companion


# -- search -------------------------------------------------------------------

def decode_candidate(p, n, k):
    """Matrix number k: base-p digits fill entries row-major, least
    significant digit first."""
    flat = []
    for _ in range(n * n):
        k, d = divmod(k, p)
        flat.append(d)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def brute_force_hits(F, mu, kind, param):
    """Every candidate matrix over F_p, in enumeration order, that satisfies
    the Rota-Baxter identity (kind "rb", param = weight) or the one-sided
    Baxter identity (kind "baxter", param = side)."""
    n, p = mu[0], F.p
    hits = []
    for k in range(p ** (n * n)):
        rows = decode_candidate(p, n, k)
        R = make_map(F, rows)
        axioms = rb_axioms(F, mu, R, param) if kind == "rb" \
            else baxter_axioms(F, mu, R, param)
        if not violations(F, axioms, cap=1):
            hits.append(rows)
    return hits


def line_rb_closed_form(p, weight):
    """On the dim-1 algebra e.e = c e (c != 0), R(e) = r e is Rota-Baxter of
    weight w exactly when r^2 c = r(2rc + wc), i.e. r in {0, -w}."""
    return sorted({0, (-weight) % p})


# -- rational-function evaluation --------------------------------------------

def eval_poly(poly, point):
    """poly: {exponent tuple: Fraction}; point: values in parameter order."""
    total = Fraction(0)
    for mono, c in poly.items():
        term = Fraction(c)
        for e, v in zip(mono, point):
            if e:
                term *= Fraction(v) ** e
        total += term
    return total


def eval_ratfunc(pair, point):
    num, den = pair
    d = eval_poly(den, point)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at the sample point")
    return eval_poly(num, point) / d


def eval_literal(text, env):
    """Evaluate a scalar literal (ints, identifiers, + - * / parentheses)
    with Fractions; an independent reader of the spec-file grammar."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Fraction(int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Fraction(env[text[i:j]]))
            i = j
        else:
            tokens.append(c)
            i += 1
    pos = 0

    def expr():
        nonlocal pos
        v = term()
        while pos < len(tokens) and tokens[pos] in ("+", "-"):
            op = tokens[pos]
            pos += 1
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        nonlocal pos
        v = factor()
        while pos < len(tokens) and tokens[pos] in ("*", "/"):
            op = tokens[pos]
            pos += 1
            v = v * factor() if op == "*" else v / factor()
        return v

    def factor():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        if t == "-":
            return -factor()
        if t == "+":
            return factor()
        if t == "(":
            v = expr()
            pos += 1  # ")"
            return v
        return t

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return value


# -- trees --------------------------------------------------------------------

def catalan(n):
    """Number of planar binary trees with n + 1 leaves."""
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def shape_leaves(node):
    return 1 if node.left is None else shape_leaves(node.left) + shape_leaves(node.right)


def serialize_rb_tree(tree, leaf_powers, vertex_powers):
    """The documented text form of an RB-augmented tree: L[a,b;f] per leaf
    and (left right){f} per node, vertex powers in preorder."""
    it_leaf = iter(leaf_powers)
    it_vert = iter(vertex_powers)

    def walk(node):
        f = next(it_vert)
        if node.left is None:
            a, b = next(it_leaf)
            return f"L[{a},{b};{f}]"
        left = walk(node.left)
        right = walk(node.right)
        return f"({left} {right}){{{f}}}"
    return walk(tree)


def eval_rb_tree(F, tree, leaf_powers, vertex_powers, xs, mu, alpha, beta, R):
    """Evaluate an RB-augmented tree on raw vectors: each leaf i gives
    R^f beta^b alpha^a (x_i), each internal vertex R^f of its children's
    product."""
    it_leaf = iter(zip(leaf_powers, xs))
    it_vert = iter(vertex_powers)

    def walk(node):
        f = next(it_vert)
        if node.left is None:
            (a, b), x = next(it_leaf)
            v = apply(F, map_power(F, beta, b), apply(F, map_power(F, alpha, a), x))
        else:
            left = walk(node.left)
            right = walk(node.right)
            v = bil(F, mu, left, right)
        return apply(F, map_power(F, R, f), v)
    return walk(tree)
