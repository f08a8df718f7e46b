"""Brute-force enumeration of Rota-Baxter and one-sided Baxter operators on
algebras over prime fields.

The candidate space is every n x n matrix over F_p, walked in row-major
little-endian digit order (entry (0,0) is the least significant digit), so
output order is machine-independent.  Every hit found during the walk is
checked again, by the same checker, before being reported.  jobs > 1 splits
the walk across min(jobs, CPU count) worker processes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BudgetExceeded
from .linalg import LinearMap
from .rota_baxter import (OneSidedBaxter, RBOperator, check_one_sided_baxter,
                          check_rota_baxter)
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
    p = field.p
    flat = []
    for _ in range(n * n):
        k, d = divmod(k, p)
        flat.append(Scalar(field, d))
    rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
    return LinearMap(field, rows)


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
    """Check candidate m as a Rota-Baxter operator of the given weight, or as
    a one-sided Baxter operator when side is set.  The checkers are looked
    up as module globals on each call, so rebinding them takes effect."""
    if side is None:
        return check_rota_baxter(A, RBOperator(m, weight)).passed
    return check_one_sided_baxter(A, OneSidedBaxter(m, side)).passed


def _range_hits(A, weight, side, start, stop):
    return [k for k in range(start, stop)
            if _passes(A, index_to_matrix(A.field, A.dim, k), weight, side)]


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
    start = time.monotonic()
    hits = _run_partitioned(_range_hits, (A, weight, side), total, jobs)
    hits.sort()
    operators = []
    for k in hits:
        m = index_to_matrix(A.field, A.dim, k)
        if not _passes(A, m, weight, side):
            raise AssertionError("second verification pass disagreed")
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
