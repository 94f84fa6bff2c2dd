"""Brute-force reference solver: exhaustive enumeration over the box.

Deliberately independent from the search engine; it only consumes the
problem data.  Used by the test suite and the command line --verify flag
to cross-check verdicts and optima on small instances.
"""

from __future__ import annotations

from .model import Problem, Solution
from .search import FEASIBLE, INFEASIBLE, OPTIMAL, SolveOutcome

SPACE_GUARD = 10 ** 7
_CHUNK = 1 << 16


class SearchSpaceTooLarge(ValueError):
    pass


def oracle_solve(problem: Problem) -> SolveOutcome:
    import numpy as np  # here, so a solver process that never checks maps no numpy

    n = problem.num_vars
    sizes = [problem.initial_ub[v] - problem.initial_lb[v] + 1 for v in range(n)]
    total = 1
    for s in sizes:
        total *= s
        if total > SPACE_GUARD:
            raise SearchSpaceTooLarge(
                f"{total}+ points exceed the {SPACE_GUARD} enumeration guard")
    if any(c.is_contradiction() for c in problem.constraints):
        return SolveOutcome(INFEASIBLE)
    rows = [c for c in problem.constraints if c.monomials]
    obj = problem.objective
    # every sum the enumeration forms, and every rhs, must fit in int64
    biggest = max(map(abs, [*problem.initial_lb, *problem.initial_ub]), default=0)
    weights = [sum(abs(a) for _, a in c.monomials) for c in rows]
    if obj is not None:
        weights.append(sum(map(abs, obj.coeffs.values())))
    if (max(weights, default=0) * biggest >= 2 ** 62
            or any(abs(c.rhs) >= 2 ** 62 for c in rows)):
        raise SearchSpaceTooLarge("coefficient magnitudes too large to enumerate safely")
    a_mat = np.zeros((len(rows), n), dtype=np.int64)
    b_vec = np.zeros(len(rows), dtype=np.int64)
    for i, c in enumerate(rows):
        for var, coeff in c.monomials:
            a_mat[i, var] = coeff
        b_vec[i] = c.rhs
    lo = np.array(problem.initial_lb, dtype=np.int64)
    c_vec = None
    if obj is not None:
        c_vec = np.zeros(n, dtype=np.int64)
        for var, coeff in obj.coeffs.items():
            c_vec[var] = coeff
    best_value = None
    best_point = None
    radices = np.array(sizes, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        points = np.empty((len(idx), n), dtype=np.int64)
        rem = idx
        for v in range(n - 1, -1, -1):
            rem, digit = np.divmod(rem, radices[v])
            points[:, v] = digit + lo[v]
        feasible = (points @ a_mat.T <= b_vec).all(axis=1)
        if not feasible.any():
            continue
        if obj is None:
            first = int(np.argmax(feasible))
            return SolveOutcome(FEASIBLE, Solution([int(x) for x in points[first]]))
        values = points[feasible] @ c_vec
        k = int(np.argmin(values))
        if best_value is None or int(values[k]) < best_value:
            best_value = int(values[k])
            best_point = [int(x) for x in points[feasible][k]]
    if obj is None or best_value is None:
        return SolveOutcome(INFEASIBLE)
    return SolveOutcome(OPTIMAL, Solution(best_point), best_value)
