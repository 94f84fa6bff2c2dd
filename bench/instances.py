"""Seeded instance generators for the benchmark.

Every generator returns an :class:`Instance` that keeps the benchmark's
own copy of the rows (``sum(coeff * var) <= rhs`` over variable indices),
so answers can be checked without the solver's data structures.  The
solver only ever sees the rendered text, which goes through
``intsat.parse`` like any user input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from intsat import Constraint, Monomial, Objective, Problem, write_problem

FEASIBLE = "feasible"  # planted: a solution exists
INFEASIBLE = "infeasible"  # infeasible by construction

RATIO_3SAT = 4.26  # clauses per variable, near the 3-SAT threshold
DOMAIN = 20  # integer variables range over [-DOMAIN, DOMAIN]


@dataclass
class Instance:
    name: str
    family: str
    lb: list
    ub: list
    rows: list  # [(((var, coeff), ...), rhs)] meaning sum <= rhs
    objective: Optional[dict]  # var -> coeff, minimised
    expect: str  # FEASIBLE or INFEASIBLE
    max_conflicts: int
    planted: Optional[list] = None  # a known feasible point
    data: Optional[dict] = None  # family-specific inputs for the reference

    def render(self) -> str:
        """The instance in the solver's input format."""
        n = len(self.lb)
        constraints = [
            Constraint(tuple(Monomial(v, c) for v, c in sorted(terms)), rhs)
            for terms, rhs in self.rows]
        objective = Objective(dict(self.objective)) if self.objective else None
        problem = Problem(n, list(self.lb), list(self.ub), constraints, objective,
                          var_names=[f"x{v}" for v in range(n)])
        return write_problem(problem)


def pigeonhole(rng: random.Random, holes: int, max_conflicts: int) -> Instance:
    """PHP(holes+1, holes) with pairwise at-most-one rows; infeasible.

    The seed permutes variable numbering and row order, which changes
    the search but not the verdict.
    """
    pigeons = holes + 1
    perm = list(range(pigeons * holes))
    rng.shuffle(perm)
    var = lambda p, h: perm[p * holes + h]
    rows = []
    for p in range(pigeons):  # every pigeon sits somewhere: sum >= 1
        rows.append((tuple((var(p, h), -1) for h in range(holes)), -1))
    for h in range(holes):  # no two pigeons share a hole
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                rows.append((((var(p, h), 1), (var(q, h), 1)), 1))
    rng.shuffle(rows)
    n = pigeons * holes
    return Instance(f"php-{pigeons}-{holes}", "php", [0] * n, [1] * n, rows, None,
                    INFEASIBLE, max_conflicts)


def planted_3sat(rng: random.Random, n: int, max_conflicts: int) -> Instance:
    """Random 3-SAT at ``RATIO_3SAT`` clauses per variable, satisfied by a
    hidden assignment (clauses it falsifies are redrawn)."""
    point = [rng.randint(0, 1) for _ in range(n)]
    rows = []
    while len(rows) < round(RATIO_3SAT * n):
        lits = [(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
        if not any(point[v] == int(positive) for v, positive in lits):
            continue
        # x1 or not x2 or x3  <=>  -x1 + x2 - x3 <= 1 - 1
        terms = tuple((v, -1 if positive else 1) for v, positive in lits)
        negatives = sum(1 for _, positive in lits if not positive)
        rows.append((terms, negatives - 1))
    return Instance(f"3sat-{n}", "3sat", [0] * n, [1] * n, rows, None,
                    FEASIBLE, max_conflicts, planted=point)


def knapsack(rng: random.Random, n: int, max_conflicts: int) -> Instance:
    """0/1 knapsack, weights and values in 5..60, capacity half the weight."""
    weights = [rng.randint(5, 60) for _ in range(n)]
    values = [rng.randint(5, 60) for _ in range(n)]
    capacity = sum(weights) // 2
    rows = [(tuple(enumerate(weights)), capacity)]
    objective = {v: -values[v] for v in range(n)}
    return Instance(f"knapsack-{n}", "knapsack", [0] * n, [1] * n, rows, objective,
                    FEASIBLE, max_conflicts, planted=[0] * n,
                    data={"weights": weights, "values": values, "capacity": capacity})


def set_packing(rng: random.Random, n: int, num_rows: int,
                max_conflicts: int) -> Instance:
    """At-most-one rows over 4 random binaries, maximise a random weight."""
    rows = []
    for _ in range(num_rows):
        rows.append((tuple((v, 1) for v in sorted(rng.sample(range(n), 4))), 1))
    objective = {v: -rng.randint(1, 20) for v in range(n)}
    return Instance(f"packing-{n}", "packing", [0] * n, [1] * n, rows, objective,
                    FEASIBLE, max_conflicts, planted=[0] * n)


def integer_rows(rng: random.Random, n: int, num_rows: int,
                 max_conflicts: int) -> Instance:
    """Rows over 4 integers in [-DOMAIN, DOMAIN] with coefficients in
    -9..9, each satisfied at a planted point with a small slack."""
    point = [rng.randint(-DOMAIN, DOMAIN) for _ in range(n)]
    coeffs = [c for c in range(-9, 10) if c != 0]
    rows = []
    for _ in range(num_rows):
        terms = tuple((v, rng.choice(coeffs)) for v in sorted(rng.sample(range(n), 4)))
        rows.append((terms, sum(c * point[v] for v, c in terms) + rng.randint(0, 9)))
    objective = {v: rng.choice(coeffs) for v in range(n)}
    return Instance(f"integer-{n}", "integer", [-DOMAIN] * n, [DOMAIN] * n, rows,
                    objective, FEASIBLE, max_conflicts, planted=point)


@dataclass(frozen=True)
class Family:
    make: object  # generator, called as make(rng, *args, max_conflicts)
    args: tuple
    count: int  # instances per run
    max_conflicts: int


@dataclass(frozen=True)
class Workload:
    mode: str  # SolverConfig.mode
    families: tuple


# Sized so that one pass takes about 20 s on a 2.1 GHz Xeon and holds
# enough instances that the per-run sums vary little from seed to seed;
# the conflict caps sit near the top decile of each family's conflicts.
WORKLOADS = {
    "clausal-res": Workload("resolution", (
        Family(pigeonhole, (5,), 120, 2000),
        Family(planted_3sat, (100,), 40, 200),
    )),
    "packing-cut": Workload("cut", (
        Family(knapsack, (20,), 40, 150),
        Family(set_packing, (24, 24), 270, 100),
    )),
    "integer-cut": Workload("cut", (
        Family(integer_rows, (6, 16), 320, 60),
    )),
}


def build(workload: str, seed: int) -> list:
    """The workload's instances for this seed, in solving order."""
    instances = []
    for family in WORKLOADS[workload].families:
        for i in range(family.count):
            rng = random.Random(f"{workload}/{family.make.__name__}/{seed}/{i}")
            inst = family.make(rng, *family.args, family.max_conflicts)
            inst.name = f"{inst.name}#{i}"
            instances.append(inst)
    random.Random(f"{workload}/order/{seed}").shuffle(instances)
    return instances
