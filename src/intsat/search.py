"""The main search loop: propagate, decide, analyze, backjump, learn.

Parameterised by the conflict-analysis mode, with configurable value
strategies, Luby or inner-outer geometric restarts, and an optimisation
wrapper that repeatedly strengthens the objective.  A decision takes the
most active undefined variable; when none is left, the assignment is total.
Rows live by their owners; the ``Propagator`` only files and kills them.
In cut mode, ``solve`` first replaces the at-most-one input rows that
extend to larger cliques by those cliques (``presolve``): it owns the rows
it touches, so a replaced input row is dead from level 0 on and a clique
row always lives, while every other input row always lives.  The
``Solver`` owns the learned rows: it keeps the activity of each live one,
and every ``CLEANUP_LEARNED_THRESHOLD`` learned rows it reduces them at
the next scheduled restart.  The strengthening row lives until the next
one replaces it.  A ``Solver`` runs one search.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass, field
from math import inf
from typing import Callable, Optional

from .model import Bound, Problem, Solution, normalize
from .presolve import clique_rows
from .propagation import BINARY, CLAUSE, GENERAL, OutOfTime, Propagator
from .trail import DECISION, ReasonInfo, Trail
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


RESOLUTION, CUT = "resolution", "cut"
TOTAL_STRATEGIES = {1, 2, 3, 4}
HALVE, FIX, SHRINK = 1, 2, 3  # how a value strategy steers toward its reference
STRATEGY_STYLE = {1: HALVE, 2: FIX, 3: HALVE, 4: FIX, 5: HALVE, 6: FIX,
                  7: HALVE, 8: FIX, 9: SHRINK, 10: SHRINK, 11: SHRINK}


@dataclass(frozen=True)
class SolverConfig:
    """Checked once, when built: an invalid config raises ValueError."""
    mode: str = CUT
    strategy_order: tuple = (7, 5, 1)
    restart: tuple = ("inout", 100, 1000, 1.1)  # or ("luby", unit)
    time_limit: Optional[float] = None
    max_conflicts: Optional[int] = None
    random_seed: int = 0
    user_hint: Optional[dict] = None  # value strategy 11

    def __post_init__(self):
        if self.mode not in (RESOLUTION, CUT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (isinstance(self.strategy_order, tuple) and self.strategy_order):
            raise ValueError("strategy_order must be a non-empty tuple")
        if any(s not in range(1, 12) for s in self.strategy_order):
            raise ValueError("value strategies are numbered 1..11")
        if self.strategy_order[-1] not in TOTAL_STRATEGIES:
            raise ValueError("strategy_order must end with a total strategy (1-4)")
        if not (isinstance(self.restart, tuple) and self.restart
                and all(isinstance(v, (int, float)) for v in self.restart[1:])):
            raise ValueError(f"restart {self.restart!r} must be a kind and numbers")
        kind, *params = self.restart
        if kind == "luby":  # ("luby", unit)
            ends = len(params) == 1 and params[0] >= 1
        elif kind == "inout":  # ("inout", inner, outer, factor)
            ends = len(params) == 3 and 1 <= params[0] <= params[1] < inf and 1 < params[2] < inf
        else:
            raise ValueError(f"unknown restart policy {kind!r}")
        if not ends:  # intervals must grow without bound, or a run may never end
            raise ValueError(f"restart {self.restart!r} needs a luby unit >= 1, or "
                             f"an inout inner >= 1, finite outer >= inner and finite factor > 1")
        if any(v is not None and not (isinstance(v, (int, float)) and v >= 0)
               for v in (self.time_limit, self.max_conflicts)):
            raise ValueError("time_limit and max_conflicts must not be negative or NaN, "
                             "and must be numbers or None")
        hint = {} if self.user_hint is None else self.user_hint
        if not (isinstance(hint, dict)
                and all(isinstance(v, int) for v in (*hint, *hint.values()))):
            raise ValueError("user_hint must be None or a dict from variable to integer value")
        if not isinstance(self.random_seed, int):
            raise ValueError("random_seed must be an integer")


@dataclass
class SolverStats:
    conflicts: int = 0
    decisions: int = 0
    restarts: int = 0
    cleanups: int = 0
    learned: int = 0
    early_backjumps: int = 0
    scans: int = 0  # early-backjump scans of unit rows the analysis made
    clique_rows: int = 0  # clique rows the cut-mode presolve filed
    replaced_rows: int = 0  # input rows those cliques replaced
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
CLEANUP_LEARNED_THRESHOLD = 10000  # learned rows between two cleanups


class ActivityQueue:
    """Variable activities, bumped per conflict as in Chaff."""

    def __init__(self, num_vars, rng: random.Random):
        # tiny jitter makes tie-breaking seed-dependent but deterministic
        self.scores = [rng.random() * 1e-9 for _ in range(num_vars)]
        self.increment = 1.0

    def bump_conflict_vars(self, variables):
        """Bump each variable once, then grow the increment geometrically.
        Only bumped scores grow, so only they can pass the rescale cap."""
        for v in variables:
            self.scores[v] += self.increment
        self.increment *= ACTIVITY_BUMP_FACTOR
        if variables and max(self.scores[v] for v in variables) > ACTIVITY_RESCALE_CAP:
            self._rescale()

    def _rescale(self):
        factor = 1.0 / ACTIVITY_RESCALE_CAP
        self.scores = [s * factor for s in self.scores]
        self.increment *= factor

    def pick(self, trail: Trail) -> Optional[int]:
        """The undefined variable of highest score, the lowest on a tie, or
        None if all are defined; one sweep over the scores."""
        lb, ub = trail.lb, trail.ub
        best, top = None, -inf
        for var, score in enumerate(self.scores):
            if score > top and lb[var] != ub[var]:
                best, top = var, score
        return best


class Solver:
    """One search instance over one problem.  Not thread-shared."""

    def __init__(self, problem: Problem, config: Optional[SolverConfig] = None,
                 trace=None, instrumentation=None):
        self.problem = problem
        self.config = config or SolverConfig()
        self.trace = trace  # an open text file, or None
        self.instr = instrumentation
        self.stats = SolverStats()
        self.trail = Trail(problem.num_vars, problem.initial_lb, problem.initial_ub)
        self.propagator = Propagator(problem, self.trail, stats=self.stats, trace=trace)
        self.activity = ActivityQueue(problem.num_vars, random.Random(self.config.random_seed))
        self.searched = False  # a Solver runs one search
        self.last_solution = None  # the incumbent
        self.strengthening_cid = None
        self.clique_cids = range(0)  # the rows the cut-mode presolve filed
        self.replaced_cids = frozenset()  # the input rows they replaced
        self.learned_activity = {}  # cid -> activity of each live learned row, in cid order
        self.cleanup_mark = 0  # rows with cid >= it were added since the last cleanup
        self.next_cleanup = CLEANUP_LEARNED_THRESHOLD  # a value of stats.learned
        self.restart_limits = restart_limits(self.config.restart)
        self.next_restart = next(self.restart_limits)  # a value of stats.conflicts
        if self.instr is not None:
            self.propagator.post_push = lambda h: self.instr.after_push(self)
            self.instr.reset(self)

    # -- decisions -------------------------------------------------------------

    def decide(self) -> Optional[Bound]:
        """A decision on the most active undefined variable, by the first
        value strategy that applies; None once every variable is defined."""
        var = self.activity.pick(self.trail)
        if var is None:
            return None
        l, u = self.trail.lb[var], self.trail.ub[var]
        assert l < u
        m = (l + u) // 2  # floor toward -inf so [l,m] and [m+1,u] always split
        for strat in self.config.strategy_order:
            v = self._reference(strat, var, l, u)
            b = self._toward(STRATEGY_STYLE[strat], var, v, l, u, m)
            if b is not None:
                return b
        raise AssertionError("strategy order had no applicable strategy")

    def _reference(self, strat, var, l, u) -> Optional[int]:
        """The value strategy ``strat`` steers var toward, None if it has
        none: u, l, the objective's better end, the saved phase, the
        incumbent's value or the user's hint."""
        if strat <= 2:
            return u
        if strat <= 4:
            return l
        if strat <= 6:
            obj = self.problem.objective
            c = obj.coeffs.get(var, 0) if obj is not None else 0
            if c == 0:
                return None
            return l if c > 0 else u
        if strat <= 9:
            return self.propagator.last_value[var]
        if strat == 10:
            return self.last_solution.values[var] if self.last_solution else None
        hint = self.config.user_hint
        return hint.get(var) if hint else None

    @staticmethod
    def _toward(style, var, v, l, u, m) -> Optional[Bound]:
        """Value strategies guided by a reference value: halve toward it,
        jump to the nearer endpoint, or shrink the interval onto it."""
        if v is None:
            return None
        if style == HALVE:
            return Bound(var, False, m) if v <= m else Bound(var, True, m + 1)
        if style == FIX:  # at the endpoint on v's side
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
        result = analyze(conflict, self.trail, self.propagator.constraints, self.problem,
                         trace=self.trace, probe=probe)
        self.stats.scans += result.scans
        return result

    def _apply_analysis(self, result) -> None:
        """Backjump, then push the bound with the row learned, or else named."""
        self.propagator.pop_to(result.pop_to)
        rc_cid = result.attach_cid
        for c in result.learned:
            rc_cid = self._learn(c, result.lits)
        self.propagator.push_bound(
            result.bound, ReasonInfo.propagated(result.reason_set, rc_cid))
        if result.early:
            self.stats.early_backjumps += 1

    def _learn(self, c, lits=None) -> Optional[int]:
        """File a learned row, count it, and give it activity 0.  It joins
        a literal tier only with ``lits``, the codes in watch order that
        ``analysis.learned_clause`` supplies; with none it is general.  A
        resolution unit lands at level 0 and is only counted: its bound is
        pushed with no row (None), as MiniSat enqueues a learned unit."""
        self.stats.learned += 1
        if self.config.mode == RESOLUTION and len(c.monomials) == 1:
            return None
        cid = self.propagator.add_row(c, lits)
        self.learned_activity[cid] = 0
        return cid

    def _restart(self):
        """Back to level 0; the one place where a due cleanup runs."""
        if self.trail.num_decisions > 0:
            self.propagator.pop_to(self.trail.level_start(1))
        self.stats.restarts += 1
        self.next_restart = self.stats.conflicts + next(self.restart_limits)
        if self.instr is not None:
            self.instr.reset(self)
        if self.stats.learned >= self.next_cleanup:
            self._cleanup()

    def _cleanup(self):
        """Kill inactive long learned rows, at level 0, where kept rows'
        filters are upper bounds, queued if positive.  A row is learned iff
        it is in ``learned_activity``; the rows learned since the last
        cleanup are kept and not aged, the others' activity is halved.  A
        killed row may be the reason of a level-0 entry, which analysis
        never rewrites.  Only a scheduled restart cleans up, and
        ``SolverConfig`` admits only intervals that grow without bound, while
        between two restarts each push lowers a finite measure, the domain
        sizes summed below each decision in turn, compared lexicographically:
        so deletion cannot loop, and keeping the fresh rows is policy."""
        assert self.trail.num_decisions == 0
        pr, activity = self.propagator, self.learned_activity
        dead = set()
        for cid, count in activity.items():
            if cid >= self.cleanup_mark:
                break
            if count == 0 and len(pr.constraints[cid].monomials) > 2:
                dead.add(cid)
            else:
                activity[cid] = count // 2
        for cid in dead:
            del activity[cid]
        pr.kill_rows(dead)
        self.next_cleanup = self.stats.learned + CLEANUP_LEARNED_THRESHOLD
        self.cleanup_mark = len(pr.constraints)
        self.stats.cleanups += 1

    # -- core loop ------------------------------------------------------------------

    def _run_core(self, deadline) -> str:
        """Search until a total assignment, infeasibility, or budget: the
        returned tag is one of 'sat', 'unsat', 'limit'.  Each stop has one
        owner: the fixpoint, which every iteration starts with, checks the
        deadline, the analysis decides infeasibility, and the conflict cap
        is read after each analysed conflict."""
        max_conflicts = self.config.max_conflicts
        while True:
            try:
                conflict = self.propagator.propagate_fixpoint(deadline)
            except OutOfTime:
                return "limit"
            if conflict is None:
                b = self.decide()
                if b is None:
                    return "sat"
                self.stats.decisions += 1
                self.propagator.push_bound(b, DECISION)
                continue
            self.stats.conflicts += 1
            try:
                result = self._analyze(conflict)
            except analysis.AnalysisInfeasible:
                return "unsat"
            self.activity.bump_conflict_vars(result.bumped_vars)
            for cid in result.touched_cids:
                if cid in self.learned_activity:
                    self.learned_activity[cid] += 1
            self._apply_analysis(result)
            if max_conflicts is not None and self.stats.conflicts >= max_conflicts:
                return "limit"
            if self.stats.conflicts >= self.next_restart:
                self._restart()

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

    def _presolve(self):
        """Kill the at-most-one input rows that extend to larger cliques and
        file those cliques, at level 0 before the first fixpoint of the
        search.  Cut mode only: resolution cannot use a clique row,
        and its conflicts rose on them."""
        cliques, replaced = clique_rows(self.problem)
        pr = self.propagator
        if replaced:  # first, so that the occurs lists it rewrites are short
            pr.kill_rows(replaced)
        first = len(pr.constraints)
        for c in cliques:
            pr.add_row(c)
        self.clique_cids = range(first, len(pr.constraints))
        self.replaced_cids = replaced
        self.stats.clique_rows = len(cliques)
        self.stats.replaced_rows = len(replaced)

    def solve(self, on_incumbent: Optional[Callable] = None) -> SolveOutcome:
        """Run the search; a second call raises, as the first leaves its trail behind."""
        if self.searched:
            raise RuntimeError("a Solver runs one search; build a new one to solve again")
        self.searched = True
        start = time.monotonic()
        if self.config.mode == CUT:
            self._presolve()
        time_limit, max_conflicts = self.config.time_limit, self.config.max_conflicts
        deadline = None if time_limit is None else start + time_limit
        best_value = None
        while True:
            tag = self._run_core(deadline)
            if tag != "sat":  # "unsat" proves the incumbent optimal, if there is one
                if self.last_solution is None:
                    return SolveOutcome(INFEASIBLE if tag == "unsat" else TIMELIMIT)
                return SolveOutcome(OPTIMAL if tag == "unsat" else BOUNDED,
                                    self.last_solution, best_value)
            sol = self._extract_solution()
            if self.problem.objective is None:
                return SolveOutcome(FEASIBLE, sol)
            value = self.problem.objective.value_of(sol.values)
            if best_value is not None and value >= best_value:
                raise RuntimeError("internal error: objective did not strictly improve")
            self.last_solution, best_value = sol, value
            if on_incumbent is not None:
                on_incumbent(time.monotonic() - start, value, self.stats.conflicts)
            if max_conflicts is not None and self.stats.conflicts >= max_conflicts:
                return SolveOutcome(BOUNDED, sol, value)
            if not self._install_strengthening(value):
                return SolveOutcome(OPTIMAL, sol, value)


def solve(problem: Problem, config: Optional[SolverConfig] = None,
          on_incumbent=None, trace=None, instrumentation=None) -> SolveOutcome:
    return Solver(problem, config, trace=trace,
                  instrumentation=instrumentation).solve(on_incumbent)
