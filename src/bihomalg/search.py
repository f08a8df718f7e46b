"""Exhaustive enumeration of Rota-Baxter and one-sided Baxter operators on
algebras over prime fields.

The candidate space is every n x n matrix over F_p.  Candidate k has the
base-p digits of k as its entries, row-major and least significant first
(entry (0,0) is the least significant digit), and hits are reported in
increasing k, so output order is machine-independent.  The walk decides
every candidate without visiting each: it writes each component of the
identity as a quadratic form over plain ints mod p in the entries of R,
assigns the entries depth first, tests each equation at the first depth
where all its entries are set, and skips the whole subtree below a
failure.  It builds no LinearMap or Scalar.  Every hit is then verified a
second time, by an independent method: the library's matrix checker (the
identity part of check_rota_baxter, or check_one_sided_baxter), which over
F_p reads both sides as `compose` and `tensor2` chains and shares no code
with the walk.  That checker is prepared once per search, with the
operation's matrix and the rows, and run on each hit with a violation cap
of 1; a hit's matrix is decoded from its index by one divmod per entry.
The walk and the second pass both run in the calling process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .errors import BudgetExceeded, DimensionMismatch, FieldMismatch
from .linalg import LinearMap
from .rota_baxter import _baxter_identity, _rb_identity
from .scalars import PRIME, FieldSpec, Scalar, _ascii_int, _clip
from .structures import BiHomAssociativeAlgebra

BUDGET_ENV_VAR = "BIHOMALG_SEARCH_BUDGET"
DEFAULT_BUDGET = 10 ** 7


@dataclass
class SearchResult:
    operators: list          # LinearMap hits, in enumeration order
    field: FieldSpec
    dim: int
    weight: Scalar | None    # None for one-sided searches
    examined: int
    found: int
    elapsed: float
    side: str | None = None  # set for one-sided searches


def search_budget() -> int:
    """BIHOMALG_SEARCH_BUDGET, which must be a positive integer in ASCII
    digits, or DEFAULT_BUDGET when it is unset or empty."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    budget = _ascii_int(raw)
    if budget is None or budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, "
                         f"got {_clip(repr(raw))}")
    return budget


def index_to_matrix(field: FieldSpec, n: int, k: int) -> LinearMap:
    """Decode the k-th matrix: base-p digits of k fill entries row-major,
    least significant digit first."""
    if field.kind != PRIME:
        raise ValueError(f"matrix field must be a prime field, got a {field.kind} one")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"matrix dimension n must be a positive int, got {_clip(repr(n))}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"matrix index k must be an int, got {_clip(repr(k))}")
    if not 0 <= k < field.p ** (n * n):
        raise ValueError(f"matrix index {_clip(str(k))} is outside [0, {field.p}^{n * n})")
    return _matrix_at(field, n, k)


def _matrix_at(field: FieldSpec, n: int, k: int) -> LinearMap:
    """The k-th n x n matrix over the prime field, unchecked: one divmod
    per entry, row-major, each column's rows increasing."""
    p, cols = field.p, [{} for _ in range(n)]
    for e in range(n * n):
        k, x = divmod(k, p)
        if x:
            cols[e % n][e // n] = x
    return LinearMap._of_cols(field, n, cols)


def _space_size(A: BiHomAssociativeAlgebra) -> int:
    if A.field.kind != PRIME:
        raise ValueError("enumeration needs a prime field")
    total = A.field.p ** (A.dim * A.dim)
    budget = search_budget()
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate matrices exceed the budget of {budget}")
    return total


def _second_pass(A, weight, side):
    """The second verification, prepared once for A: the library's matrix
    checker of the Rota-Baxter identity at the given weight (the identity
    part of check_rota_baxter, without its commutation sub-checks), or of
    check_one_sided_baxter when side is set, as check(m, cap).  It shares no
    code with the walk's equations."""
    if side is None:
        return _rb_identity(A, weight)
    return _baxter_identity(A, side)


def _equations(A, weight, side) -> list:
    """The component equations of the identity, as quadratic forms over F_p
    in the entries of R: entry (a, b) is variable a*n + b, and variable n*n
    is a constant 1, so a linear term is a product with it.  Each form maps
    a pair (u, v), u <= v, to its nonzero coefficient mod p.

    Component t at the basis pair (i, j) is R(e_i)R(e_j) minus
    R(R(e_i)e_j + e_iR(e_j) + weight e_ie_j) in coordinate t; a right
    Baxter side keeps only the R(e_i)e_j term, a left one only e_iR(e_j).
    It reads columns i and j of R, and the row-t entries at the support of
    the argument of R.  A form that cancels to nothing is left out.  The
    structure constants are the table's raw ints; the weight is read once,
    here."""
    n, p = A.dim, A.field.p
    w = weight.value if side is None else 0
    one, eqs = n * n, []
    # the nonzero constants c_ab^k of e_ae_b, as (a, b, k, c_ab^k)
    consts = [(*divmod(col, n), k, x) for col, d in enumerate(A.mu._d)
              for k, x in d.items()]
    for i in range(n):
        for j in range(n):
            forms = [{} for _ in range(n)]  # component t: pair -> coefficient
            arg = [{} for _ in range(n)]  # coordinate m of R's argument
            for a, b, k, x in consts:
                u, v = a * n + i, b * n + j
                key = (u, v) if u <= v else (v, u)
                forms[k][key] = forms[k].get(key, 0) + x
                if b == j and side != "left":  # R(e_i)e_j
                    arg[k][u] = arg[k].get(u, 0) + x
                if a == i and side != "right":  # e_iR(e_j)
                    arg[k][v] = arg[k].get(v, 0) + x
                if a == i and b == j and w:  # weight e_ie_j
                    arg[k][one] = arg[k].get(one, 0) + w * x
            for t, form in enumerate(forms):
                for m, terms in enumerate(arg):
                    for f, x in terms.items():
                        key = (t * n + m, f) if t * n + m <= f else (f, t * n + m)
                        form[key] = form.get(key, 0) - x
                form = {key: x % p for key, x in form.items() if x % p}
                if form:
                    eqs.append(form)
    return eqs


def _entry_order(eqs, nn: int) -> list:
    """The order in which the walk assigns the nn entries of R: again and
    again, the entries left unset of the equation that has the fewest of
    them, in index order (the first such equation on a tie); then the
    entries no equation reads."""
    order, unset = [], [{u for key in form for u in key if u < nn} for form in eqs]
    while any(unset):
        fewest = min((entries for entries in unset if entries), key=len)
        new = sorted(fewest)
        order += new
        unset = [entries.difference(new) for entries in unset]
    return order + [u for u in range(nn) if u not in order]


def _walk(A, weight, side) -> list:
    """The indices of the candidates that pass the walk's test, in the
    order the walk meets them.

    The walk assigns the entries of R depth first, in _entry_order, and
    tests each equation at the depth of its last entry to be set.  There
    the equation is c0 + c1 v + a2 v^2 in the value v of the entry just
    set, c0 and c1 summed from its terms a0 and a1 over the entries set
    before it; the values that solve every equation of the depth are the
    only ones walked below it, so a failure skips the whole subtree.  Every
    candidate is decided."""
    n, p = A.dim, A.field.p
    nn = n * n
    eqs = _equations(A, weight, side)
    order = _entry_order(eqs, nn)
    depth_of = {e: d for d, e in enumerate(order)}
    depth_of[nn] = -1  # the constant 1 is set before every entry
    at_depth = [[] for _ in order]
    for form in eqs:
        d = max(depth_of[u] for key in form for u in key)
        e, a0, a1, a2 = order[d], [], [], 0
        for (u, v), x in form.items():
            if u == v == e:
                a2 += x
            elif e in (u, v):
                a1.append((u + v - e, x))
            else:
                a0.append((u, v, x))
        at_depth[d].append((a0, a1, a2))
    steps = [(e, p ** e, at_depth[d]) for d, e in enumerate(order)]
    r, hits, digits = [0] * nn + [1], [], range(p)

    def visit(d: int, index: int) -> None:
        if d == nn:
            hits.append(index)
            return
        e, scale, tests = steps[d]
        values = digits
        for a0, a1, a2 in tests:
            c0 = sum(r[u] * r[v] * x for u, v, x in a0)
            c1 = sum(r[u] * x for u, x in a1)
            values = [v for v in values if not (c0 + v * (c1 + v * a2)) % p]
            if not values:
                return
        for v in values:
            r[e] = v
            visit(d + 1, index + v * scale)
    visit(0, 0)
    return hits


def _enumerate(A, weight, side) -> SearchResult:
    total = _space_size(A)
    if side is None and (not isinstance(weight, Scalar) or weight.field != A.field):
        raise FieldMismatch(f"the weight {_clip(repr(weight))} is not in "
                            f"the algebra's field {A.field}")
    n, (left, right, out) = A.dim, A.mu._shape()
    if (left, right, out) != (n, n, n):
        raise DimensionMismatch(f"the multiplication is {left}x{right}->{out}, "
                                f"not {n}x{n}->{n} for the algebra dimension {n}")
    for name, m in (("alpha", A.alpha), ("beta", A.beta)):
        if (m.rows, m.cols) != (n, n):
            raise DimensionMismatch(f"{name} is {m.rows}x{m.cols}, "
                                    f"not {n}x{n} for the algebra dimension {n}")
    start = time.monotonic()
    check, operators = _second_pass(A, weight, side), []
    for k in sorted(_walk(A, weight, side)):
        m = _matrix_at(A.field, n, k)
        if not check(m, 1).passed:
            raise AssertionError(f"the matrix checker rejects candidate {k}, "
                                 f"a hit of the pruned walk")
        operators.append(m)
    return SearchResult(operators, A.field, A.dim, weight, total,
                        len(operators), time.monotonic() - start, side=side)


def enumerate_rb(A: BiHomAssociativeAlgebra, weight: Scalar,
                 jobs: int = 1) -> SearchResult:
    """All Rota-Baxter operators of the given weight on A, exhaustively.
    jobs is accepted for compatibility and has no effect."""
    return _enumerate(A, weight, None)


def enumerate_baxter(A: BiHomAssociativeAlgebra, side: str,
                     jobs: int = 1) -> SearchResult:
    """All one-sided Baxter operators of the given side on A, exhaustively.
    jobs is accepted for compatibility and has no effect."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _enumerate(A, None, side)
