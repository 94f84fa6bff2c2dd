"""Shared helpers: constraint builders, box enumeration, random instance
generator, and instrumentation probes used by the validity and
termination suites."""

import itertools
import random

import pytest

from intsat.analysis import AnalysisInfeasible
from intsat.model import Bound, Constraint, Monomial, Objective, Problem
from intsat.presolve import clique_rows
from intsat.search import Solver, SolverConfig


def C(terms, rhs):
    """Raw constraint from (var, coeff) pairs; no normalisation."""
    return Constraint(tuple(Monomial(v, c) for v, c in sorted(terms)), rhs)


def lo(var, value):
    return Bound(var, True, value)


def up(var, value):
    return Bound(var, False, value)


def box_points(lbs, ubs):
    return itertools.product(*(range(l, u + 1) for l, u in zip(lbs, ubs)))


def feasible_points(problem):
    """All box points satisfying every constraint (exhaustive)."""
    return [
        pt for pt in box_points(problem.initial_lb, problem.initial_ub)
        if all(c.satisfied_by(pt) for c in problem.constraints)
    ]


def satisfies_bounds(pt, bounds):
    return all(b.satisfied_by(pt[b.var]) for b in bounds)


def entailed(problem, assumptions, bound):
    """True iff constraints + box + assumption bounds entail `bound`."""
    for pt in box_points(problem.initial_lb, problem.initial_ub):
        if not all(c.satisfied_by(pt) for c in problem.constraints):
            continue
        if not satisfies_bounds(pt, assumptions):
            continue
        if not bound.satisfied_by(pt[bound.var]):
            return False
    return True


def random_problem(rng, max_vars=5, dom_lo=-4, dom_hi=4, max_cons=8,
                   max_coeff=5, objective="maybe", max_points=20000):
    """Random bounded instance; the box volume is capped so the
    enumeration oracle stays fast.

    Right-hand sides are anchored at a random box point so instances are
    a healthy mix of feasible and infeasible rather than mostly refuted
    at the root; a share of instances is all-binary with unit
    coefficients to exercise the clause and binary-graph tiers.
    """
    from intsat.model import normalize

    n = rng.randint(1, max_vars)
    binary_heavy = rng.random() < 0.3
    while True:
        if binary_heavy:
            lbs = [0] * n
            ubs = [1] * n
        else:
            lbs = [rng.randint(dom_lo, dom_hi) for _ in range(n)]
            ubs = [min(dom_hi, lb + rng.randint(0, dom_hi - dom_lo)) for lb in lbs]
        size = 1
        for l, u in zip(lbs, ubs):
            size *= u - l + 1
        if size <= max_points:
            break
    anchor = [rng.randint(l, u) for l, u in zip(lbs, ubs)]
    if binary_heavy:
        coeffs = [-1, 1]
    else:
        coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c != 0]
    constraints = []
    for _ in range(rng.randint(1, max_cons)):
        k = rng.randint(1, n)
        terms = [(v, rng.choice(coeffs)) for v in rng.sample(range(n), k)]
        at_anchor = sum(c * anchor[v] for v, c in terms)
        offset = rng.randint(0, 5) if rng.random() < 0.85 else rng.randint(-3, -1)
        c = normalize(terms, at_anchor + offset)
        if not c.is_tautology():
            constraints.append(c)
    obj = None
    want_obj = objective is True or (objective == "maybe" and rng.random() < 0.5)
    if want_obj:
        terms = {v: rng.randint(-max_coeff, max_coeff)
                 for v in rng.sample(range(n), rng.randint(1, n))}
        terms = {v: c for v, c in terms.items() if c != 0}
        obj = Objective(terms or {0: 1})
    return Problem(n, lbs, ubs, constraints, obj)


def live_rows(solver):
    """The cids of the solver's live rows: every input row the cut-mode
    presolve did not replace, every clique row it filed, every learned
    row still in ``learned_activity`` and the strengthening row.  The
    presolve files its cliques right after the input rows; a presolve that
    counted no row changed none, so only one that did is read back."""
    inputs = len(solver.problem.constraints)
    rows = set(range(inputs))
    if solver.stats.clique_rows or solver.stats.replaced_rows:
        cliques, replaced = clique_rows(solver.problem)
        rows -= replaced
        rows.update(range(inputs, inputs + len(cliques)))
    rows |= solver.learned_activity.keys()
    if solver.strengthening_cid is not None:
        rows.add(solver.strengthening_cid)
    return rows


def indexed_rows(propagator):
    """The cids an occurs list, watch list or implication edge names."""
    rows = {cid for occs in propagator.occs for cid, _ in occs}
    rows.update(cid for watchers in propagator.watch for cid in watchers)
    rows.update(cid for edges in propagator.bin_adj for _, cid in edges)
    return rows


def watch_order(propagator, c, b):
    """The reference watch order of a row pushed with the fresh bound b:
    if the row is a clause over binary variables whose every literal but
    b's is false, its literal codes as MiniSat watches them, b's first,
    then the false literal of greatest height, then the rest in row
    order; else None."""
    lits = propagator._as_clause(c)
    if lits is None:
        return None
    first = 2 * b.var + b.is_lower
    trail = propagator.trail
    false = []  # (height, code)
    for lit in lits:
        if lit == first:
            continue
        v = lit >> 1
        if lit & 1 and not trail.ub[v]:
            false.append((trail.pu[v], lit))
        elif not lit & 1 and trail.lb[v]:
            false.append((trail.pl[v], lit))
        else:
            return None
    if len(false) != len(lits) - 1:  # b's literal is not in the row
        return None
    second = max(false)[1]
    return [first, second, *(lit for lit in lits if lit != first and lit != second)]


def termination_measure(trail):
    """Well-founded measure: aggregated domain sizes per decision-level prefix.

    Component i is the total domain size of the trail prefix strictly
    below the (i+1)-th decision (the whole trail when fewer decisions
    exist).  The tuple has one component per possible decision plus one,
    and decreases lexicographically at every fresh push and every
    backjump.  The initial box is read from the seeds.
    """
    seeds = trail.entries[:2 * trail.num_vars]
    lb = [e.bound.value for e in seeds[0::2]]
    ub = [e.bound.value for e in seeds[1::2]]
    max_decisions = sum(u - l for l, u in zip(lb, ub))
    values = []
    next_cut = 0  # index into decision_heights
    total = sum(u - l + 1 for l, u in zip(lb, ub))
    for h, entry in enumerate(trail.entries):
        while next_cut < len(trail.decision_heights) and trail.decision_heights[next_cut] == h:
            values.append(total)
            next_cut += 1
        b = entry.bound
        if b.is_lower:
            total -= b.value - lb[b.var]
            lb[b.var] = b.value
        else:
            total -= ub[b.var] - b.value
            ub[b.var] = b.value
    while len(values) <= max_decisions:
        values.append(total)
    return tuple(values)


class MeasureProbe:
    """Asserts the lexicographic strict decrease of the termination
    measure at every push; restarts reset the baseline."""

    def __init__(self):
        self.baseline = None
        self.violations = 0
        self.checks = 0

    def _measure(self, solver):
        return termination_measure(solver.trail)

    def after_push(self, solver):
        m = self._measure(solver)
        if self.baseline is not None:
            self.checks += 1
            if not m < self.baseline:
                self.violations += 1
        self.baseline = m

    def reset(self, solver):
        self.baseline = None


class ValidityProbe(MeasureProbe):
    """Collects conflict-analysis outputs and conflicting-set snapshots
    for the validity suite; inherits the measure bookkeeping.

    An analysis ends either with a backjump (recorded in `analyses`) or
    by refuting the problem with AnalysisInfeasible (recorded in
    `refutations`), which claims the current constraint set has no point.

    Every record carries the objective-strengthening constraint active at
    that moment: validity properties are stated over the solver's current
    constraint set, which includes it.
    """

    def __init__(self):
        super().__init__()
        self.analyses = []  # (pre_entries, result, strengthening or None)
        self.refutations = []  # (pre_entries, strengthening or None)
        self.cs_snapshots = []  # (bounds_by_height, heights, strengthening)

    @staticmethod
    def _strengthening(solver):
        cid = solver.strengthening_cid
        return solver.propagator.constraints[cid] if cid is not None else None

    def on_cs(self, solver, cs):
        self.cs_snapshots.append((tuple(e.bound for e in solver.trail.entries),
                                  cs, self._strengthening(solver)))


class RecordingSolver(Solver):
    """Solver that snapshots the trail before every conflict analysis and
    records how it ended: a result, or a refutation (AnalysisInfeasible,
    re-raised so the search still answers infeasible)."""

    def _analyze(self, conflict):
        pre_entries = tuple(self.trail.entries)
        recording = self.instr is not None and hasattr(self.instr, "analyses")
        try:
            result = super()._analyze(conflict)
        except AnalysisInfeasible:
            if recording:
                self.instr.refutations.append(
                    (pre_entries, ValidityProbe._strengthening(self)))
            raise
        if recording:
            self.instr.analyses.append(
                (pre_entries, result, ValidityProbe._strengthening(self)))
        return result


def refutation_violated(feasible_s0, strengthening):
    """True iff a refutation's claim fails: some point of the original
    constraint set `feasible_s0` also satisfies the strengthening row
    active at that moment (or there is no row and `feasible_s0` is
    non-empty)."""
    return any(strengthening is None or strengthening.satisfied_by(pt)
               for pt in feasible_s0)


def _objective(rng, n):
    terms = {v: rng.randint(-5, 5) for v in range(n)}
    return Objective({v: c for v, c in terms.items() if c} or {0: 1})


def cover_packing_problem(rng, n=7):
    """Binaries under at-least-one and at-most-one rows over 2-4 of them,
    with a random objective."""
    from intsat.model import normalize
    rows = []
    for _ in range(rng.randint(4, 8)):
        vs = rng.sample(range(n), rng.randint(2, 4))
        sign = -1 if rng.random() < 0.5 else 1
        rows.append(normalize([(v, sign) for v in vs], sign))
    return Problem(n, [0] * n, [1] * n, rows, _objective(rng, n))


def small_integer_problem(rng, n=4, dom=3):
    """Variables in [-dom, dom] under 3-6 rows of 2..n terms whose
    right-hand sides sit near a random point, with a random objective."""
    from intsat.model import normalize
    anchor = [rng.randint(-dom, dom) for _ in range(n)]
    coeffs = [c for c in range(-5, 6) if c != 0]
    rows = []
    for _ in range(rng.randint(3, 6)):
        terms = [(v, rng.choice(coeffs)) for v in rng.sample(range(n), rng.randint(2, n))]
        at_anchor = sum(c * anchor[v] for v, c in terms)
        rows.append(normalize(terms, at_anchor + rng.randint(-1, 3)))
    return Problem(n, [-dom] * n, [dom] * n, rows, _objective(rng, n))


def php_problem(pigeons, holes):
    from intsat.model import normalize
    n = pigeons * holes
    var = lambda p, h: p * holes + h
    cs = []
    for p in range(pigeons):
        cs.append(normalize([(var(p, h), -1) for h in range(holes)], -1))
    for h in range(holes):
        cs.append(normalize([(var(p, h), 1) for p in range(pigeons)], 1))
    return Problem(n, [0] * n, [1] * n, cs)


def pairwise_php_problem(pigeons, holes):
    """PHP with one at-most-one row per pair of pigeons and hole: the
    pair rows are binary clauses, the at-least-one rows clauses."""
    from intsat.model import normalize
    n = pigeons * holes
    var = lambda p, h: p * holes + h
    cs = [normalize([(var(p, h), -1) for h in range(holes)], -1) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                cs.append(normalize([(var(p, h), 1), (var(q, h), 1)], 1))
    return Problem(n, [0] * n, [1] * n, cs)


def planted_3sat_problem(rng, n, ratio=4.26):
    """Random 3-SAT with round(ratio * n) clauses, each satisfied by a
    hidden assignment (clauses it falsifies are redrawn)."""
    from intsat.model import normalize
    point = [rng.randint(0, 1) for _ in range(n)]
    cs = []
    while len(cs) < round(ratio * n):
        lits = [(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
        if any(point[v] == int(positive) for v, positive in lits):
            # x or not y or z  <=>  -x + y - z <= (number of negated) - 1
            negated = sum(1 for _, positive in lits if not positive)
            cs.append(normalize([(v, -1 if positive else 1) for v, positive in lits],
                                negated - 1))
    return Problem(n, [0] * n, [1] * n, cs)


@pytest.fixture
def rng():
    return random.Random(20240817)
