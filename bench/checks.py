"""Answer checks that do not use the solver under test.

References come from the generators' own data: a dynamic program for
knapsack, an exact max-weight independent-set search for set packing,
the construction itself for pigeonhole (infeasible) and for planted
instances (never infeasible, and never worse than the planted point).
Models are checked row by row on the benchmark's copy of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from intsat.search import BOUNDED, FEASIBLE, OPTIMAL
from intsat.search import INFEASIBLE as UNSAT
from intsat.search import TIMELIMIT as LIMIT

from instances import INFEASIBLE, Instance

DECIDED = (OPTIMAL, FEASIBLE, UNSAT)


@dataclass
class Answer:
    """What one solve returned, in the benchmark's terms."""

    status: str
    values: Optional[list] = None  # model, by variable index
    objective: Optional[int] = None  # raw minimised value the solver claims
    error: Optional[str] = None  # exception text when the solve raised


def knapsack_optimum(weights, values, capacity) -> int:
    """Largest total value within the capacity (0/1 dynamic program)."""
    best = [0] * (capacity + 1)
    for w, v in zip(weights, values):
        for c in range(capacity, w - 1, -1):
            if best[c - w] + v > best[c]:
                best[c] = best[c - w] + v
    return best[capacity]


def max_weight_independent_set(n, rows, weight) -> int:
    """Exact optimum of the packing ``max sum weight[v]*x[v]`` where each
    row is an at-most-one clique, by memoised branching on the remaining
    vertex with the most remaining neighbours."""
    neighbours = [0] * n
    for terms, _ in rows:
        mask = 0
        for v, _ in terms:
            mask |= 1 << v
        for v, _ in terms:
            neighbours[v] |= mask & ~(1 << v)
    order = sorted(range(n), key=lambda v: -weight[v])

    @lru_cache(maxsize=None)
    def best(candidates: int) -> int:
        if not candidates:
            return 0
        free = 0  # isolated candidates are always taken
        rest = candidates
        for v in order:
            if candidates >> v & 1 and not neighbours[v] & candidates:
                free += weight[v]
                rest &= ~(1 << v)
        if not rest:
            return free
        v = max((u for u in order if rest >> u & 1),
                key=lambda u: bin(neighbours[u] & rest).count("1"))
        take = weight[v] + best(rest & ~neighbours[v] & ~(1 << v))
        skip = best(rest & ~(1 << v))
        return free + max(take, skip)

    return best((1 << n) - 1)


def reference_optimum(inst: Instance) -> Optional[int]:
    """Exact minimised objective where the family has a reference, else None."""
    if inst.family == "knapsack":
        d = inst.data
        return -knapsack_optimum(d["weights"], d["values"], d["capacity"])
    if inst.family == "packing":
        weight = [-inst.objective.get(v, 0) for v in range(len(inst.lb))]
        return -max_weight_independent_set(len(inst.lb), inst.rows, weight)
    return None


def objective_at(inst: Instance, values) -> int:
    return sum(c * values[v] for v, c in inst.objective.items())


def model_errors(inst: Instance, values) -> list:
    if len(values) != len(inst.lb):
        return [f"model has {len(values)} values for {len(inst.lb)} variables"]
    errors = [f"x{v}={x} outside [{lo}, {hi}]"
              for v, (x, lo, hi) in enumerate(zip(values, inst.lb, inst.ub))
              if not lo <= x <= hi]
    for i, (terms, rhs) in enumerate(inst.rows):
        lhs = sum(c * values[v] for v, c in terms)
        if lhs > rhs:
            errors.append(f"row {i} violated: {lhs} > {rhs}")
    return errors


def check(inst: Instance, answer: Answer, optimum: Optional[int]) -> list:
    """Every reason the answer is wrong; empty when it passes."""
    if answer.error is not None:
        return [f"raised {answer.error}"]
    failures = []
    if inst.expect == INFEASIBLE and answer.status not in (UNSAT, LIMIT):
        failures.append(f"verdict {answer.status}, expected infeasible")
    if inst.expect != INFEASIBLE and answer.status == UNSAT:
        failures.append("verdict infeasible on an instance with a planted solution")
    has_model = answer.status in (OPTIMAL, FEASIBLE, BOUNDED)
    if has_model and answer.values is None:
        failures.append(f"verdict {answer.status} without a model")
    if answer.values is None:
        return failures
    failures += model_errors(inst, answer.values)
    if inst.objective is None or failures:
        return failures
    value = objective_at(inst, answer.values)
    if answer.objective != value:
        failures.append(f"claimed objective {answer.objective}, model gives {value}")
    if answer.status == OPTIMAL:
        if optimum is not None and value != optimum:
            failures.append(f"claimed optimum {value}, reference optimum {optimum}")
        if inst.planted is not None and value > objective_at(inst, inst.planted):
            failures.append(f"claimed optimum {value} is worse than the planted point")
    return failures
