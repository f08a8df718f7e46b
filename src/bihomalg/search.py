"""Brute-force enumeration of Rota-Baxter and one-sided Baxter operators on
algebras over prime fields.

The candidate space is every n x n matrix over F_p, walked in row-major
little-endian digit order (entry (0,0) is the least significant digit), so
output order is machine-independent.  The walk tests each candidate with an
elementwise evaluator on plain ints mod p that stops at the first differing
component, and builds no LinearMap or Scalar.  Every hit it finds is then
verified a second time, by an independent method: the library's matrix
checker (the identity part of check_rota_baxter, or check_one_sided_baxter),
which over F_p reads both sides as `compose` and `tensor2` chains and
shares no code with the walk.  jobs > 1 splits the walk across
min(jobs, CPU count) worker processes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BudgetExceeded, FieldMismatch
from .linalg import LinearMap, _sparse
from .rota_baxter import (OneSidedBaxter, RBOperator, _check_rb_identity,
                          check_one_sided_baxter)
from .scalars import PRIME, FieldSpec, Scalar, _clip
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
    """BIHOMALG_SEARCH_BUDGET, which must be a positive integer, or
    DEFAULT_BUDGET when it is unset or empty."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # refused below, like any other value under 1
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, "
                         f"got {_clip(repr(raw))}")
    return budget


def index_to_matrix(field: FieldSpec, n: int, k: int) -> LinearMap:
    """Decode the k-th matrix: base-p digits of k fill entries row-major,
    least significant digit first."""
    if not 0 <= k < field.p ** (n * n):
        raise ValueError(f"matrix index {_clip(str(k))} is outside [0, {field.p}^{n * n})")
    flat = [k // field.p ** e % field.p for e in range(n * n)]
    return LinearMap._of_cols(field, n, _sparse(field.ops.zero, (flat[j::n] for j in range(n))))


def _space_size(A: BiHomAssociativeAlgebra) -> int:
    if A.field.kind != PRIME:
        raise ValueError("enumeration needs a prime field")
    total = A.field.p ** (A.dim * A.dim)
    budget = search_budget()
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate matrices exceed the budget of {budget}")
    return total


def _passes(A, m, weight, side) -> bool:
    """The second verification of a hit m: the library's matrix checker of
    the Rota-Baxter identity at the given weight (the identity part of
    check_rota_baxter, without its commutation sub-checks), or
    check_one_sided_baxter when side is set.  It shares no code with the
    walk's elementwise test.  The checkers are looked up as module globals
    on each call, so rebinding them takes effect."""
    if side is None:
        return _check_rb_identity(A, RBOperator(m, weight)).passed
    return check_one_sided_baxter(A, OneSidedBaxter(m, side)).passed


def _raw_test(A, weight, side):
    """The walk's test of the k-th candidate r, as a function of k.

    On every basis pair (i, j) it compares, elementwise on ints mod p,
    R(e_i)R(e_j) with R(R(e_i)e_j + e_iR(e_j) + weight e_ie_j); a right
    Baxter test keeps only the R(e_i)e_j term, a left one only e_iR(e_j).
    It returns False at the first component that differs.  The structure
    constants are the table's raw ints; the weight is read once, here.
    """
    n, p = A.dim, A.field.p
    c = A.mu._dense()
    w = weight.value if side is None else 0
    # r is the candidate's digit list: entry (a, b) is r[a*n + b], so
    # coordinate a of R(e_i) is r[a*n + i].  Per pair (i, j): the terms of
    # R(e_i)R(e_j) as (index of R(e_i)_a, index of R(e_j)_b, k, c_ab^k), those
    # of the argument of R as (index, m, coefficient), and its constant part
    # weight * e_ie_j.
    pairs = []
    for i in range(n):
        for j in range(n):
            lhs = [(a * n + i, b * n + j, k, c[a][b][k]) for a in range(n)
                   for b in range(n) for k in range(n) if c[a][b][k]]
            inner = []
            if side != "left":
                inner += [(a * n + i, m, c[a][j][m]) for a in range(n)
                          for m in range(n) if c[a][j][m]]
            if side != "right":
                inner += [(b * n + j, m, c[i][b][m]) for b in range(n)
                          for m in range(n) if c[i][b][m]]
            pairs.append((lhs, inner, [w * x for x in c[i][j]]))
    rows = [range(k * n, k * n + n) for k in range(n)]
    nn = n * n

    def test(k: int) -> bool:
        r = []
        for _ in range(nn):
            k, d = divmod(k, p)
            r.append(d)
        for lhs, inner, const in pairs:
            out = [0] * n
            for fa, fb, t, x in lhs:
                out[t] += r[fa] * r[fb] * x
            arg = const[:]
            for f, m, x in inner:
                arg[m] += r[f] * x
            for t, row in enumerate(rows):
                if (out[t] - sum(r[f] * y for f, y in zip(row, arg))) % p:
                    return False
        return True
    return test


def _range_hits(A, weight, side, start, stop):
    test = _raw_test(A, weight, side)
    return [k for k in range(start, stop) if test(k)]


def _run_partitioned(worker, args, total, jobs):
    # a fork-based pool starts all its workers at the first submit
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return worker(*args, 0, total)
    chunk = -(-total // jobs)
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    hits = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(worker, *args, s, e) for s, e in ranges]
        for fut in futures:  # submission order keeps the merge deterministic
            hits.extend(fut.result())
    return hits


def _enumerate(A, weight, side, jobs) -> SearchResult:
    total = _space_size(A)
    if side is None and (not isinstance(weight, Scalar) or weight.field != A.field):
        raise FieldMismatch(f"the weight {_clip(repr(weight))} is not in "
                            f"the algebra's field {A.field}")
    start = time.monotonic()
    hits = _run_partitioned(_range_hits, (A, weight, side), total, jobs)
    hits.sort()
    operators = []
    for k in hits:
        m = index_to_matrix(A.field, A.dim, k)
        if not _passes(A, m, weight, side):
            raise AssertionError(f"the matrix checker rejects candidate {k}, "
                                 f"a hit of the elementwise walk")
        operators.append(m)
    return SearchResult(operators, A.field, A.dim, weight, total,
                        len(operators), time.monotonic() - start, side=side)


def enumerate_rb(A: BiHomAssociativeAlgebra, weight: Scalar,
                 jobs: int = 1) -> SearchResult:
    """All Rota-Baxter operators of the given weight on A, exhaustively."""
    return _enumerate(A, weight, None, jobs)


def enumerate_baxter(A: BiHomAssociativeAlgebra, side: str,
                     jobs: int = 1) -> SearchResult:
    """All one-sided Baxter operators of the given side on A, exhaustively."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _enumerate(A, None, side, jobs)
