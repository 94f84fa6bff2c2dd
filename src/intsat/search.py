"""The main search loop: propagate, decide, analyze, backjump, learn.

Parameterised by the conflict-analysis mode, with activity-based
variable selection, configurable value strategies, Luby or inner-outer
geometric restarts, learned-constraint database cleanup, and an
optimisation wrapper that repeatedly strengthens the objective.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .model import Bound, Problem, Solution, normalize
from .propagation import BINARY, CLAUSE, GENERAL, OutOfTime, Propagator
from .trail import ReasonInfo, Trail
from . import analysis


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    assert i >= 1
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return luby(i - (1 << (k - 1)) + 1)


def restart_limits(policy):
    """Conflicts allowed before each restart: ``unit * luby(i)``, or the
    inner limit of ``("inout", inner, outer, factor)``, which grows by
    ``factor`` and, once past the outer limit, resets as the outer grows."""
    if policy[0] == "luby":
        for i in itertools.count(1):
            yield policy[1] * luby(i)
    _, inner0, outer, factor = policy
    inner, outer = float(inner0), float(outer)
    while True:
        yield int(inner)
        inner *= factor
        if inner > outer:
            inner = float(inner0)
            outer *= factor


def learned_row_bytes(c) -> int:
    """The estimated size of a learned row, for the cleanup memory cap."""
    return 64 + 16 * len(c.monomials)


RESOLUTION, CUT = "resolution", "cut"
TOTAL_STRATEGIES = {1, 2, 3, 4}


@dataclass
class SolverConfig:
    mode: str = CUT
    strategy_order: tuple = (7, 5, 1)
    restart: tuple = ("inout", 100, 1000, 1.1)  # or ("luby", unit)
    cleanup_learned_threshold: int = 10000
    cleanup_memory_cap: int = 64 * 1024 * 1024  # estimated bytes of learned data
    time_limit: Optional[float] = None
    max_conflicts: Optional[int] = None
    random_seed: int = 0
    user_hint: Optional[dict] = None  # value strategy 11

    def validate(self):
        if self.mode not in (RESOLUTION, CUT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.strategy_order:
            raise ValueError("strategy_order must be non-empty")
        if any(s not in range(1, 12) for s in self.strategy_order):
            raise ValueError("value strategies are numbered 1..11")
        if self.strategy_order[-1] not in TOTAL_STRATEGIES:
            raise ValueError("strategy_order must end with a total strategy (1-4)")
        kind, *params = self.restart
        if kind == "luby":  # ("luby", unit)
            ends = len(params) == 1 and params[0] >= 1
        elif kind == "inout":  # ("inout", inner, outer, factor)
            ends = len(params) == 3 and 1 <= params[0] <= params[1] and params[2] > 1
        else:
            raise ValueError(f"unknown restart policy {kind!r}")
        if not ends:  # restarting after every conflict, a run that learns no row never ends
            raise ValueError(f"restart {self.restart!r} needs a luby unit >= 1, or "
                             f"an inout inner >= 1, outer >= inner and factor > 1")
        if any(v is not None and v < 0 for v in (self.time_limit, self.max_conflicts)):
            raise ValueError("time_limit and max_conflicts must not be negative")


@dataclass
class SolverStats:
    conflicts: int = 0
    decisions: int = 0
    restarts: int = 0
    cleanups: int = 0
    learned: int = 0
    early_backjumps: int = 0
    propagations: dict = field(default_factory=lambda: {BINARY: 0, CLAUSE: 0, GENERAL: 0})

    def as_dict(self):
        d = asdict(self)
        for tier, n in d.pop("propagations").items():
            d[f"propagations_{tier}"] = n
        return d


FEASIBLE, INFEASIBLE, OPTIMAL, BOUNDED, TIMELIMIT = (
    "feasible", "infeasible", "optimal", "bounded", "timelimit")


@dataclass
class SolveOutcome:
    status: str
    solution: Optional[Solution] = None
    objective_value: Optional[int] = None

    @property
    def has_answer(self) -> bool:
        return self.status in (FEASIBLE, INFEASIBLE, OPTIMAL)


ACTIVITY_BUMP_FACTOR, ACTIVITY_RESCALE_CAP = 1.05, 1e100


class ActivityQueue:
    """Max-priority queue of variables by activity, with lazy invalidation."""

    def __init__(self, num_vars, bump_factor, rescale_cap, rng: random.Random):
        # tiny jitter makes tie-breaking seed-dependent but deterministic
        self.scores = [rng.random() * 1e-9 for _ in range(num_vars)]
        self.increment = 1.0
        self.bump_factor = bump_factor
        self.rescale_cap = rescale_cap
        self.heap = [(-s, v) for v, s in enumerate(self.scores)]
        heapq.heapify(self.heap)

    def bump_conflict_vars(self, variables):
        """Bump each variable once, then grow the increment geometrically."""
        for v in variables:
            self.scores[v] += self.increment
            heapq.heappush(self.heap, (-self.scores[v], v))
        self.increment *= self.bump_factor
        if self.scores and max(self.scores) > self.rescale_cap:
            self._rescale()

    def _rescale(self):
        factor = 1.0 / self.rescale_cap
        self.scores = [s * factor for s in self.scores]
        self.increment *= factor
        self.heap = [(-s, v) for v, s in enumerate(self.scores)]
        heapq.heapify(self.heap)

    def on_undefined(self, var):
        heapq.heappush(self.heap, (-self.scores[var], var))

    def pick(self, trail: Trail) -> int:
        while self.heap:
            neg, var = self.heap[0]
            if -neg != self.scores[var] or trail.is_defined(var):
                heapq.heappop(self.heap)
                continue
            return var
        # heap ran dry (stale entries): rebuild from undefined variables
        self.heap = [(-self.scores[v], v) for v in range(len(self.scores))
                     if not trail.is_defined(v)]
        heapq.heapify(self.heap)
        assert self.heap, "pick() called with all variables defined"
        return self.heap[0][1]


class TraceWriter:
    def __init__(self, stream):
        self.stream = stream

    def emit(self, line: str):
        self.stream.write(line + "\n")


class Budget:
    """Cooperative cancellation: wall clock and conflict ceiling."""

    def __init__(self, time_limit, max_conflicts):
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.max_conflicts = max_conflicts

    def exhausted(self, stats: SolverStats) -> bool:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return True
        if self.max_conflicts is not None and stats.conflicts >= self.max_conflicts:
            return True
        return False


class Solver:
    """One search instance over one problem.  Not thread-shared."""

    def __init__(self, problem: Problem, config: Optional[SolverConfig] = None,
                 trace=None, instrumentation=None):
        self.problem = problem
        self.config = config or SolverConfig()
        self.config.validate()
        self.trace = trace
        self.instr = instrumentation
        self.stats = SolverStats()
        self.trail = Trail(problem.num_vars, problem.initial_lb, problem.initial_ub)
        self.propagator = Propagator(problem, self.trail, stats=self.stats, trace=trace)
        rng = random.Random(self.config.random_seed)
        self.activity = ActivityQueue(
            problem.num_vars, ACTIVITY_BUMP_FACTOR, ACTIVITY_RESCALE_CAP, rng)
        self.propagator.on_undefined = self.activity.on_undefined
        self.last_solution = None
        self.strengthening_cid = None
        self.cleanup_mark = 0  # rows with cid >= it were added since the last cleanup
        self.learned_since_cleanup = 0
        self.learned_bytes = 0  # an estimate, over the live learned rows
        self.memory_limit = self.config.cleanup_memory_cap  # grown by cleanups it forces
        self.conflicts_since_restart = 0
        self.restart_limits = restart_limits(self.config.restart)
        self.restart_threshold = next(self.restart_limits)
        if self.instr is not None:
            self.propagator.post_push = lambda h: self.instr.after_push(self)
            self.instr.reset(self)

    # -- decisions -------------------------------------------------------------

    def decide(self) -> Bound:
        var = self.activity.pick(self.trail)
        l, u = self.trail.lb[var], self.trail.ub[var]
        assert l < u
        m = (l + u) // 2  # floor toward -inf so [l,m] and [m+1,u] always split
        for strat in self.config.strategy_order:
            b = self._try_strategy(strat, var, l, u, m)
            if b is not None:
                return b
        raise AssertionError("strategy order had no applicable strategy")

    def _try_strategy(self, strat, var, l, u, m) -> Optional[Bound]:
        if strat == 1:
            return Bound(var, True, m + 1)
        if strat == 2:
            return Bound(var, True, u)
        if strat == 3:
            return Bound(var, False, m)
        if strat == 4:
            return Bound(var, False, l)
        if strat in (5, 6):
            obj = self.problem.objective
            c = obj.coeffs.get(var, 0) if obj is not None else 0
            if c == 0:
                return None
            v = l if c > 0 else u
            if strat == 5:
                return Bound(var, False, m) if v == l else Bound(var, True, m + 1)
            return Bound(var, False, l) if v == l else Bound(var, True, u)
        if strat in (7, 8, 9):
            v = self.propagator.last_value[var]
            return self._toward(strat - 6, var, v, l, u, m)
        if strat == 10:
            v = self.last_solution.values[var] if self.last_solution else None
            return self._toward(3, var, v, l, u, m)
        if strat == 11:
            hint = self.config.user_hint
            v = hint.get(var) if hint else None
            return self._toward(3, var, v, l, u, m)
        raise AssertionError(strat)

    @staticmethod
    def _toward(style, var, v, l, u, m) -> Optional[Bound]:
        """Value strategies guided by a reference value: halve toward it,
        jump to the nearer endpoint, or shrink the interval onto it."""
        if v is None:
            return None
        if style == 1:  # halve toward v
            return Bound(var, False, m) if v <= m else Bound(var, True, m + 1)
        if style == 2:  # fix at the endpoint on v's side
            return Bound(var, False, l) if v <= m else Bound(var, True, u)
        if not l <= v <= u:
            return None
        if v == l:
            return Bound(var, False, l)
        if v == u:
            return Bound(var, True, u)
        if v - l < u - v:
            return Bound(var, False, v)
        return Bound(var, True, v)

    # -- conflict handling -------------------------------------------------------

    def _analyze(self, conflict):
        probe = None
        if self.instr is not None and hasattr(self.instr, "on_cs"):
            probe = lambda cs: self.instr.on_cs(self, cs)
        analyze = (analysis.analyze_resolution if self.config.mode == RESOLUTION
                   else analysis.analyze_hybrid)
        return analyze(conflict, self.trail, self.propagator.constraints, self.problem,
                       trace=self.trace, probe=probe)

    def _apply_analysis(self, result) -> None:
        self.propagator.pop_to(result.pop_to)
        rc_cid = None
        for c in result.learned:
            cid = self._learn(c)
            if result.attach_cc is c:
                rc_cid = cid
        self.propagator.push_bound(
            result.bound, ReasonInfo.propagated(result.reason_set, rc_cid))
        if result.early:
            self.stats.early_backjumps += 1

    def _learn(self, c) -> int:
        """File a learned row and count it toward the next cleanup."""
        self.stats.learned += 1
        self.learned_since_cleanup += 1
        self.learned_bytes += learned_row_bytes(c)
        return self.propagator.add_row(c)

    def _restart(self):
        if self.trail.num_decisions > 0:
            self.propagator.pop_to(self.trail.level_start(1))
        self.stats.restarts += 1
        self.conflicts_since_restart = 0
        self.restart_threshold = next(self.restart_limits)
        if self.instr is not None:
            self.instr.reset(self)

    def _cleanup_due(self) -> bool:
        return (self.learned_since_cleanup >= self.config.cleanup_learned_threshold
                or self.learned_bytes > self.memory_limit)

    def _cleanup(self):
        """Kill inactive long learned rows; must run at level 0, where kept
        rows' filters are upper bounds, queued if positive.  A live row is
        learned unless it is an input or the strengthening row.  Rows learned
        since the last cleanup are kept and not aged: dropping them at the
        restart each cleanup brings can repeat the same conflicts forever.  A
        killed row may be the reason of a level-0 entry, which analysis never
        rewrites."""
        assert self.trail.num_decisions == 0
        pr = self.propagator
        if self.learned_bytes > self.memory_limit:
            # forced by memory: grow the limit whatever the cleanup keeps, as
            # MiniSat does; grown only when a cleanup kept more, it might never grow
            self.memory_limit = self.learned_bytes * 3 // 2
        dead = set()
        for cid in range(len(self.problem.constraints), self.cleanup_mark):
            if not pr.alive[cid] or cid == self.strengthening_cid:
                continue
            if len(pr.constraints[cid].monomials) > 2 and pr.activity[cid] == 0:
                dead.add(cid)
            else:
                pr.activity[cid] //= 2
        pr.kill_rows(dead)
        self.learned_bytes -= sum(learned_row_bytes(pr.constraints[cid]) for cid in dead)
        self.learned_since_cleanup = 0
        self.cleanup_mark = len(pr.constraints)
        self.stats.cleanups += 1

    # -- core loop ------------------------------------------------------------------

    def _run_core(self, budget: Budget) -> str:
        """Search until a total assignment, infeasibility, or budget: the
        returned tag is one of 'sat', 'unsat', 'limit'."""
        while True:
            try:
                conflict = self.propagator.propagate_fixpoint(budget.deadline)
            except OutOfTime:
                return "limit"
            if conflict is None:
                if self.propagator.num_defined == self.problem.num_vars:
                    return "sat"
                b = self.decide()
                self.stats.decisions += 1
                self.propagator.push_bound(b, ReasonInfo.decision())
                continue
            self.stats.conflicts += 1
            self.conflicts_since_restart += 1
            if not conflict.cs:
                return "unsat"  # a constraint false regardless of any bounds
            if self.trail.num_decisions == 0:
                return "unsat"
            try:
                result = self._analyze(conflict)
            except analysis.AnalysisInfeasible:
                return "unsat"
            self.activity.bump_conflict_vars(result.bumped_vars)
            for cid in result.touched_cids:
                self.propagator.activity[cid] += 1
            self._apply_analysis(result)
            if budget.exhausted(self.stats):
                return "limit"
            if self.conflicts_since_restart >= self.restart_threshold or self._cleanup_due():
                self._restart()
                if self._cleanup_due():
                    self._cleanup()

    def _extract_solution(self) -> Solution:
        values = list(self.trail.lb)
        if not self.problem.check_solution(values):
            raise RuntimeError("internal error: bad model")
        return Solution(values)

    def _install_strengthening(self, value: int) -> bool:
        """Require the next solution to be strictly better; False if impossible."""
        obj = self.problem.objective
        c = normalize(list(obj.coeffs.items()), value - 1)
        if c.is_degenerate():
            return False  # constant objective: the incumbent is optimal
        old = self.strengthening_cid
        if old is not None:  # the new row implies it, so reasons and cuts may still read it
            self.propagator.kill_rows({old})
        self.strengthening_cid = self.propagator.add_row(c)
        return True

    def solve(self, on_incumbent: Optional[Callable] = None) -> SolveOutcome:
        start = time.monotonic()
        budget = Budget(self.config.time_limit, self.config.max_conflicts)
        best = best_value = None
        while True:
            tag = self._run_core(budget)
            if tag != "sat":  # "unsat" proves the incumbent optimal, if there is one
                if best is None:
                    return SolveOutcome(INFEASIBLE if tag == "unsat" else TIMELIMIT)
                return SolveOutcome(OPTIMAL if tag == "unsat" else BOUNDED, best, best_value)
            sol = self._extract_solution()
            if self.problem.objective is None:
                return SolveOutcome(FEASIBLE, sol)
            value = self.problem.objective.value_of(sol.values)
            if best_value is not None and value >= best_value:
                raise RuntimeError("internal error: objective did not strictly improve")
            best, best_value = sol, value
            self.last_solution = sol
            if on_incumbent is not None:
                on_incumbent(time.monotonic() - start, value, self.stats.conflicts)
            if budget.exhausted(self.stats):
                return SolveOutcome(BOUNDED, best, best_value)
            if not self._install_strengthening(value):
                return SolveOutcome(OPTIMAL, best, best_value)


def solve(problem: Problem, config: Optional[SolverConfig] = None,
          on_incumbent=None, trace=None, instrumentation=None) -> SolveOutcome:
    return Solver(problem, config, trace=trace,
                  instrumentation=instrumentation).solve(on_incumbent)
