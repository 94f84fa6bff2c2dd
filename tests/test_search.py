import random
import time
from collections import Counter
from itertools import accumulate, islice

import pytest

import intsat
from intsat import search
from intsat.model import Objective, Problem, normalize
from intsat.oracle import oracle_solve
from intsat.propagation import slack_and_widest
from intsat.search import (ActivityQueue, Solver, SolverConfig, restart_limits,
                           BOUNDED, FEASIBLE, INFEASIBLE, OPTIMAL, TIMELIMIT)
from intsat.trail import DECISION, ReasonInfo
from conftest import (RecordingSolver, ValidityProbe, cover_packing_problem, indexed_rows,
                      live_rows, lo, php_problem, random_problem, small_integer_problem, up)


def solver_for(lbs, ubs, constraints=(), objective=None, **cfg):
    p = Problem(len(lbs), list(lbs), list(ubs), list(constraints), objective)
    return Solver(p, SolverConfig(**cfg))


class TestDecide:
    def decide_with(self, strategies, lbs, ubs, objective=None, prime=None):
        s = solver_for(lbs, ubs, objective=objective,
                       strategy_order=tuple(strategies))
        if prime:
            for var, value in prime.items():
                s.propagator.last_value[var] = value
        return s.decide()

    def test_strategy_1_takes_upper_half(self):
        assert self.decide_with([1], [0], [5]) == lo(0, 3)

    def test_strategy_2_fixes_to_upper(self):
        assert self.decide_with([2], [0], [5]) == lo(0, 5)

    def test_strategy_3_takes_lower_half(self):
        assert self.decide_with([3], [0], [5]) == up(0, 2)

    def test_strategy_4_fixes_to_lower(self):
        assert self.decide_with([4], [-3], [5]) == up(0, -3)

    def test_midpoint_floors_toward_minus_infinity(self):
        assert self.decide_with([3], [-2], [1]) == up(0, -1)

    def test_strategy_5_halves_toward_cheaper_end(self):
        obj = Objective({0: 2})
        assert self.decide_with([5, 1], [0], [5], objective=obj) == up(0, 2)
        obj = Objective({0: -2})
        assert self.decide_with([5, 1], [0], [5], objective=obj) == lo(0, 3)

    def test_strategy_6_fixes_to_cheaper_end(self):
        obj = Objective({0: 3})
        assert self.decide_with([6, 1], [0], [5], objective=obj) == up(0, 0)

    def test_strategies_5_6_fall_through_on_zero_coefficient(self):
        obj = Objective({0: 0})
        assert self.decide_with([6, 5, 4], [0], [5], objective=obj) == up(0, 0)

    def test_strategy_7_halves_toward_last_value(self):
        assert self.decide_with([7, 1], [0], [5], prime={0: 1}) == up(0, 2)
        assert self.decide_with([7, 1], [0], [5], prime={0: 4}) == lo(0, 3)

    def test_strategy_8_jumps_to_endpoint_near_last_value(self):
        assert self.decide_with([8, 1], [0], [5], prime={0: 1}) == up(0, 0)
        assert self.decide_with([8, 1], [0], [5], prime={0: 4}) == lo(0, 5)

    def test_strategy_9_shrinks_onto_last_value(self):
        assert self.decide_with([9, 1], [0], [5], prime={0: 0}) == up(0, 0)
        assert self.decide_with([9, 1], [0], [5], prime={0: 5}) == lo(0, 5)
        assert self.decide_with([9, 1], [0], [5], prime={0: 1}) == up(0, 1)
        assert self.decide_with([9, 1], [0], [5], prime={0: 4}) == lo(0, 4)

    def test_strategies_fall_through_without_history(self):
        assert self.decide_with([7, 5, 1], [0], [5]) == lo(0, 3)

    def test_strategy_11_uses_user_hint(self):
        s = solver_for([0], [5], strategy_order=(11, 1), user_hint={0: 2})
        assert s.decide() == up(0, 2)

    def test_decide_returns_none_once_every_variable_is_defined(self):
        s = solver_for([0, 0], [3, 3])
        assert s.decide() is not None
        s.propagator.push_bound(up(0, 0), DECISION)
        s.propagator.push_bound(lo(1, 3), DECISION)
        assert s.decide() is None
        assert solver_for([2], [2]).decide() is None  # defined from the start

    def test_highest_activity_variable_is_picked(self):
        s = solver_for([0, 0, 0], [5, 5, 5], strategy_order=(4,))
        s.activity.bump_conflict_vars([2])
        assert s.decide().var == 2

    def test_config_requires_total_fallback(self):
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=(7, 5))
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=())
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=(12, 1))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="x")


class TestActivity:
    def test_increment_grows_geometrically(self):
        q = ActivityQueue(3, random.Random(0))
        start = q.increment
        for _ in range(100):
            q.bump_conflict_vars([0])
        assert q.increment == pytest.approx(start * 1.05 ** 100)

    def test_variable_bumped_once_per_conflict(self, monkeypatch):
        monkeypatch.setattr(search, "ACTIVITY_BUMP_FACTOR", 2.0)
        q = ActivityQueue(2, random.Random(0))
        base = q.scores[0]
        q.bump_conflict_vars({0})  # sets, so duplicates are impossible
        assert q.scores[0] == pytest.approx(base + 1.0)

    def test_rescale_preserves_argmax(self, monkeypatch):
        # bumps 1, 10, ..., 1e10 take x1 to 1.11e10, over the cap: scores
        # and increment shrink by 1e10, and the 12th bump adds 10
        monkeypatch.setattr(search, "ACTIVITY_BUMP_FACTOR", 10.0)
        monkeypatch.setattr(search, "ACTIVITY_RESCALE_CAP", 1e10)
        q = ActivityQueue(3, random.Random(0))
        for _ in range(12):
            q.bump_conflict_vars([1])
        assert max(q.scores) == q.scores[1] == pytest.approx(11.1111111111)
        assert q.increment == pytest.approx(100.0)
        t = solver_for([0, 0, 0], [1, 1, 1]).trail
        assert q.pick(t) == 1

    def test_rescale_fires_at_the_same_conflicts_as_a_sweep_of_all_scores(self, monkeypatch):
        # bump_conflict_vars compares only the bumped scores with the cap;
        # the form that takes max(scores) at every conflict must rescale at
        # the same conflicts and leave the same scores
        monkeypatch.setattr(search, "ACTIVITY_BUMP_FACTOR", 1.3)
        monkeypatch.setattr(search, "ACTIVITY_RESCALE_CAP", 1e6)

        class SweepingQueue(ActivityQueue):
            def bump_conflict_vars(self, variables):
                for v in variables:
                    self.scores[v] += self.increment
                self.increment *= search.ACTIVITY_BUMP_FACTOR
                if self.scores and max(self.scores) > search.ACTIVITY_RESCALE_CAP:
                    self._rescale()

        rng = random.Random(5)
        queues = [cls(40, random.Random(1)) for cls in (ActivityQueue, SweepingQueue)]
        rescaled = [[], []]
        for conflict in range(3000):
            variables = set(rng.sample(range(40), rng.randint(1, 8)))
            for q, seen in zip(queues, rescaled):
                increment = q.increment
                q.bump_conflict_vars(variables)
                if q.increment != increment * search.ACTIVITY_BUMP_FACTOR:
                    seen.append(conflict)
        assert rescaled[0] == rescaled[1] and len(rescaled[0]) >= 20, rescaled
        assert queues[0].scores == queues[1].scores
        assert queues[0].increment == queues[1].increment

    @pytest.mark.parametrize("rescale_cap", [1e100, 4.0])
    @pytest.mark.parametrize("mode", ["cut", "resolution"])
    def test_pick_is_the_argmax_over_undefined_variables(self, mode, rescale_cap,
                                                         monkeypatch):
        # after every push and backjump, pick is the undefined variable of
        # highest score, the lowest on a tie, or None; a cap of 4 makes
        # bump_conflict_vars rescale every few conflicts
        monkeypatch.setattr(search, "ACTIVITY_RESCALE_CAP", rescale_cap)
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", AGGRESSIVE_THRESHOLD)
        rescales, rescale = [], ActivityQueue._rescale

        def counted_rescale(q):
            rescales.append(q)
            rescale(q)

        monkeypatch.setattr(ActivityQueue, "_rescale", counted_rescale)

        class PickProbe:
            checks = nones = 0

            def after_push(self, solver):
                q, t = solver.activity, solver.trail
                undefined = [v for v in range(t.num_vars) if t.lb[v] != t.ub[v]]
                expected = max(undefined, key=lambda v: (q.scores[v], -v), default=None)
                assert q.pick(t) == expected
                self.checks += 1
                self.nones += expected is None

            def reset(self, solver):
                pass

        probe, cleanups = PickProbe(), 0
        for p in config_space_problems()[::3]:
            s = Solver(p, SolverConfig(mode=mode, max_conflicts=300, **AGGRESSIVE_CLEANUP),
                       instrumentation=probe)
            pop_to = s.propagator.pop_to

            def checked_pop_to(height, s=s, pop_to=pop_to):
                pop_to(height)
                probe.after_push(s)

            s.propagator.pop_to = checked_pop_to
            s.solve()
            cleanups += s.stats.cleanups
        assert probe.checks > 1000 and probe.nones > 0 and cleanups > 0
        assert bool(rescales) == (rescale_cap < 100)


class TestRestarts:
    def test_luby_heads(self):
        assert list(islice(restart_limits(("luby", 1)), 15)) == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_inner_outer_thresholds(self):
        s = solver_for([0], [1], restart=("inout", 100, 1000, 1.1))
        assert s.next_restart == 100  # the first restart is due at conflict 100
        assert list(islice(restart_limits(("inout", 100, 1000, 1.1)), 3)) == [100, 110, 121]

    def test_inner_reset_when_exceeding_outer(self):
        # 144 > 120: the inner limit resets to 100 and the outer one grows to 144
        limits = restart_limits(("inout", 100, 120, 1.2))
        assert list(islice(limits, 6)) == [100, 120, 100, 120, 144, 100]

    def test_luby_schedule_scales_by_unit(self):
        s = solver_for([0], [1], restart=("luby", 50))
        assert s.next_restart == 50
        assert list(islice(restart_limits(("luby", 50)), 7)) == [50, 50, 100, 50, 50, 100, 200]

    @pytest.mark.parametrize("restart", [
        ("luby",), ("luby", 1, 2), ("luby", 0), ("inout", 100, 1000),
        ("inout", 0, 10, 1.1), ("inout", 10, 5, 1.1), ("inout", 1, 1, 1.0),
        ("fibonacci", 3), ("inout", 1, 1, float("inf"))])
    def test_malformed_or_non_growing_restart_is_rejected(self, restart):
        # a luby unit of 0, or inout limits stuck at 1, restart after every
        # conflict, and a search that learns no row then never ends; an
        # infinite factor makes the second limit int(inf)
        with pytest.raises(ValueError):
            SolverConfig(restart=restart)

    @pytest.mark.parametrize("restart", [("luby", 1), ("inout", 1, 1, 1.1),
                                         ("inout", 100, 1000, 1.1)])
    def test_restart_that_grows_is_accepted(self, restart):
        SolverConfig(restart=restart)

    def test_restart_pops_to_level_zero_and_keeps_learned(self):
        s = solver_for([0, 0], [3, 3], [normalize([(0, 1), (1, 1)], 4)])
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(0, 2), DECISION)
        learned_cid = s._learn(normalize([(0, 1)], 2))
        s._restart()
        assert s.trail.num_decisions == 0
        assert learned_cid in live_rows(s) and learned_cid in indexed_rows(s.propagator)
        s._restart()  # restart at level 0 is a no-op pop-wise
        assert s.trail.num_decisions == 0


class TestCleanup:
    def setup_store(self, monkeypatch):
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
        s = solver_for([0, 0, 0], [3, 3, 3])
        cids = []
        for terms, rhs in [([(0, 1), (1, 1), (2, 1)], 5),
                           ([(0, 1), (1, 1)], 5),
                           ([(0, 1), (1, 1), (2, 2)], 6)]:
            cid = s._learn(normalize(terms, rhs))
            cids.append(cid)
        return s, cids

    def test_removes_long_inactive_learned(self, monkeypatch):
        s, (c3, c2, c3b) = self.setup_store(monkeypatch)
        s.learned_activity[c3b] = 5
        s._cleanup()  # rows learned since the last cleanup are kept, not aged
        assert live_rows(s) == indexed_rows(s.propagator) == {c3, c2, c3b}
        assert s.learned_activity[c3b] == 5
        s._cleanup()
        # c3 dies: 3 monomials, counter 0; c2 has only 2, c3b's counter was nonzero
        assert live_rows(s) == indexed_rows(s.propagator) == {c2, c3b}
        assert s.learned_activity == {c2: 0, c3b: 2}  # 5 // 2

    def test_learned_activity_holds_the_live_learned_rows(self):
        # its keys are the learned rows the Propagator still indexes; input
        # and strengthening rows never enter it, and input rows are never killed
        s = solver_for([0, 0, 0], [3, 3, 3], [normalize([(0, 1), (1, 1), (2, 1)], 8)],
                       objective=Objective({0: 1, 1: 1, 2: 1}))
        pr = s.propagator

        def live_learned():
            return sorted(indexed_rows(pr) - {0, s.strengthening_cid})

        for terms, rhs in [([(0, 1), (1, 1), (2, 1)], 5), ([(0, 1), (1, 1)], 5)]:
            s._learn(normalize(terms, rhs))
            assert list(s.learned_activity) == live_learned()
        assert s._install_strengthening(7)
        s._learn(normalize([(0, 1), (1, 2), (2, 1)], 6))
        assert list(s.learned_activity) == live_learned() == [1, 2, 4]
        s._cleanup()
        assert list(s.learned_activity) == live_learned() == [1, 2, 4]
        s._cleanup()
        assert not {1, 4} & indexed_rows(pr)  # long, counter 0
        assert {0, s.strengthening_cid} <= indexed_rows(pr)
        assert list(s.learned_activity) == live_learned() == [2]

    def test_initial_constraints_never_removed(self):
        s = solver_for([0, 0, 0], [3, 3, 3],
                       [normalize([(0, 1), (1, 1), (2, 1)], 5)])
        s._cleanup()
        s._cleanup()  # the first one keeps every row as fresh
        assert live_rows(s) == indexed_rows(s.propagator) == {0}

    def test_trail_referenced_learned_die_in_place(self):
        # analysis never rewrites a level-0 entry, so the row that is its
        # reason may die; the entry still derives its reason from the row
        s = solver_for([0, 0, 0], [3, 3, 3])
        cid = s._learn(normalize([(0, 1), (1, 1), (2, 1)], 1))
        assert s.propagator.propagate_fixpoint() is None
        height = s.trail.pu[0]
        assert s.trail.entries[height].info.reason_constraint == cid  # x0 <= 1 at level 0
        reason = s.trail.reason_heights(height)
        s._cleanup()
        assert cid in live_rows(s)  # the first one keeps every row as fresh
        s._cleanup()
        assert cid not in live_rows(s)
        assert cid not in indexed_rows(s.propagator)
        assert s.trail.reason_heights(height) == reason

    def test_a_killed_row_leaves_the_queue(self, monkeypatch):
        # a level-0 push after the last fixpoint, as a root fact that a
        # restart pops nothing above, queues an old inactive learned row;
        # the cleanup that kills it takes it out of the queue, so the next
        # fixpoint never visits it
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
        s = solver_for([0, 0, 0], [3, 3, 3])
        pr = s.propagator
        cid = s._learn(normalize([(0, 1), (1, 1), (2, 1)], 4))
        assert pr.propagate_fixpoint() is None and not pr.queue
        s._cleanup()  # the first one keeps every row as fresh
        pr.push_bound(lo(0, 2), ReasonInfo.propagated((), None))
        assert list(pr.queue) == [cid]
        s._cleanup()
        assert cid not in live_rows(s)
        assert not pr.queue
        visit, visited = pr._visit_general, []
        pr._visit_general = lambda c: visited.append(c) or visit(c)
        assert pr.propagate_fixpoint() is None
        assert visited == []

    @pytest.mark.parametrize("seed", range(3))
    def test_rebuild_rewatches_literals_false_at_level_zero(self, seed, monkeypatch):
        # with cleanup after every learned row, rebuilt clause watches
        # land on literals already false at level 0
        rows = [normalize([(0, -1), (3, -1), (4, -1), (6, -1)], -1),
                normalize([(0, 1), (1, 1), (3, 1), (5, 1)], 1),
                normalize([(0, 1), (3, 1), (5, 1)], 1),
                normalize([(0, 1), (5, 1)], 1),
                normalize([(1, -1), (2, -1), (5, -1), (6, -1)], -1),
                normalize([(0, -1), (4, -1), (5, -1)], -1)]
        p = Problem(7, [0] * 7, [1] * 7, rows,
                    Objective({0: 5, 1: -2, 2: 5, 3: 1, 4: 1, 5: -3, 6: 1}))
        ref = oracle_solve(p)
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
        s = Solver(p, SolverConfig(mode="cut", restart=("luby", 1), random_seed=seed))
        out = s.solve()
        assert (out.status, out.objective_value) == (OPTIMAL, ref.objective_value)
        assert s.stats.cleanups > 0


class TestSolveFeasibility:
    def test_trivial_fixed_variable(self):
        out = solver_for([0], [0]).solve()
        assert out.status == FEASIBLE and out.solution.values == [0]

    def test_simple_feasible(self):
        out = solver_for([0, 0], [1, 1], [normalize([(0, 1), (1, 1)], 1)]).solve()
        assert out.status == FEASIBLE
        assert sum(out.solution.values) <= 1

    def test_core_instance_infeasible_in_both_modes(self):
        cs = [normalize([(0, -1), (1, -1), (2, -1)], -2),
              normalize([(0, 1), (1, 1)], 1),
              normalize([(0, 1), (2, 1)], 1),
              normalize([(1, 1), (2, 1)], 1),
              normalize([(0, 1)], 1), normalize([(1, 1)], 1),
              normalize([(2, 1)], 3)]
        for mode in ("resolution", "cut"):
            out = solver_for([-10] * 3, [10] * 3, cs, mode=mode).solve()
            assert out.status == INFEASIBLE

    def test_degenerate_contradiction_is_infeasible(self):
        out = solver_for([0], [1], [normalize([(0, 1), (0, -1)], -2)]).solve()
        assert out.status == INFEASIBLE

    @pytest.mark.parametrize("mode", ["resolution", "cut"])
    @pytest.mark.parametrize("lbs, ubs, rows", [
        ([0], [1], [normalize([], -1)]),  # 0 <= -1: false under any bounds
        ([], [], [normalize([], -1)]),  # the same row over no variable
        # x <= y - 1 and y <= x - 1: level-0 propagation walks both bounds
        # down until a row fails
        ([0, 0], [3, 3], [normalize([(0, 1), (1, -1)], -1),
                          normalize([(0, -1), (1, 1)], -1)]),
    ], ids=["empty-row", "no-variable", "propagated"])
    def test_level_0_conflict_is_refuted_by_the_analysis(self, mode, lbs, ubs, rows):
        probe = ValidityProbe()
        p = Problem(len(lbs), lbs, ubs, rows)
        out = RecordingSolver(p, SolverConfig(mode=mode), instrumentation=probe).solve()
        assert out.status == INFEASIBLE
        assert probe.analyses == [] and len(probe.refutations) == 1

    def test_time_limit_returns_unknown(self):
        p = php_problem(6, 5)
        s = Solver(p, SolverConfig(mode="resolution", max_conflicts=3))
        out = s.solve()
        assert out.status == TIMELIMIT and out.solution is None

    def test_zero_time_limit_is_a_budget(self):
        # the first fixpoint checks the deadline on entry, so the run stops
        # before any propagation: with no budget PHP(6,5) is refuted, and
        # x + y >= 7 over [0, 3]^2 fails at level 0
        out = Solver(php_problem(6, 5), SolverConfig(time_limit=0)).solve()
        assert out.status == TIMELIMIT
        row = normalize([(0, -1), (1, -1)], -7)
        assert solver_for([0, 0], [3, 3], [row], time_limit=0).solve().status == TIMELIMIT

    def test_nan_time_limit_is_rejected(self):
        # a deadline of now + nan never passes, so the run would ignore it
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))

    @pytest.mark.parametrize("settings", [
        {"max_conflicts": "10"}, {"time_limit": "1"},
        {"user_hint": [1], "strategy_order": (11, 1)},
        {"user_hint": {0: 2.5, 1: 1.5}, "strategy_order": (11, 1)},
        {"user_hint": {0: "a"}, "strategy_order": (11, 1)},
        {"restart": ("luby", "2")}, {"restart": ("inout", 1, 2, "1.1")}, {"restart": None},
        {"strategy_order": 5}, {"random_seed": [1]}])
    def test_budgets_and_hint_of_the_wrong_type_are_rejected(self, settings):
        # otherwise the budgets, restarts and strategy order raise TypeError
        # inside the config's own checks, and a list seed in the Solver's
        # constructor; a list hint raises AttributeError and a string value
        # TypeError at the first decision, and a fractional value pushes a
        # fractional bound, which under python -O answers a wrong optimum
        with pytest.raises(ValueError):
            SolverConfig(**settings)

    def test_time_limit_holds_inside_propagation(self):
        # x < y and y < x: root propagation walks the upper bounds down
        # one step per push, about a million pushes before the conflict
        rows = [normalize([(0, 1), (1, -1)], -1), normalize([(0, -1), (1, 1)], -1)]
        t0 = time.monotonic()
        out = solver_for([0, 0], [10 ** 6, 10 ** 6], rows, time_limit=0.2).solve()
        assert out.status == TIMELIMIT
        assert time.monotonic() - t0 < 2.0

    def test_time_limit_holds_in_a_descent_with_no_conflict(self):
        # 8,000 binaries and no rows: no decision meets a conflict, and pick
        # sweeps every score, so the whole descent takes seconds; each
        # decision's fixpoint pushes one entry, so only its check on entry
        # sees the deadline
        t0 = time.monotonic()
        out = solver_for([0] * 8000, [1] * 8000, time_limit=0.05).solve()
        assert out.status == TIMELIMIT
        assert time.monotonic() - t0 < 2.0

    def test_time_limit_holds_in_a_run_of_short_conflicts(self):
        # PHP(8,7) takes seconds of conflicts to refute, and each fixpoint
        # pushes far fewer entries than PUSHES_PER_DEADLINE_CHECK, so only
        # the fixpoint's check on entry sees the deadline
        t0 = time.monotonic()
        out = Solver(php_problem(8, 7), SolverConfig(mode="resolution", time_limit=0.05)).solve()
        assert out.status == TIMELIMIT
        assert time.monotonic() - t0 < 2.0


def strengthening_on_binaries():
    """Objective rows over binaries with unit coefficients look like
    clauses; added mid-search they must still be checked at once."""
    rows = [normalize([(0, 1), (1, -1), (2, -1), (4, 1)], 1),
            normalize([(0, 1), (1, 1), (3, 1), (4, -1)], 1),
            normalize([(0, -1), (1, -1), (2, 1), (3, 1), (4, -1)], -2)]
    return Problem(5, [0] * 5, [1] * 5, rows, Objective({1: 3, 3: -3}))


class TestSolveOptimize:
    def test_unconstrained_minimum_at_lower_bound(self):
        out = solver_for([2], [5], objective=Objective({0: 1})).solve()
        assert out.status == OPTIMAL
        assert out.objective_value == 2 and out.solution.values == [2]

    def test_covering_pair(self):
        out = solver_for([0, 0], [1, 1], [normalize([(0, -1), (1, -1)], -1)],
                         objective=Objective({0: 1, 1: 1})).solve()
        assert out.status == OPTIMAL and out.objective_value == 1

    def test_strengthening_constraint_installed(self):
        s = solver_for([0, 3], [1, 5], objective=Objective({1: 2}))
        out = s.solve()
        assert out.status == OPTIMAL and out.objective_value == 6
        cid = s.strengthening_cid
        assert cid is not None
        assert s.propagator.constraints[cid] == normalize([(1, 2)], 5)  # 2*x1 <= 6-1

    @pytest.mark.parametrize("mode", ["cut", "resolution"])
    def test_one_strengthening_row_is_tightened_in_place(self, mode):
        # the first incumbent files the strengthening row and each better
        # one lowers its rhs in place: the cid stays, and the row is the
        # objective's below the incumbent.  After every backjump its stored
        # slack is exact, its widest term an upper bound, and it is queued
        # iff its filter is positive.
        rng = random.Random(3701)
        seen = Counter()
        for i in range(300):
            p = (small_integer_problem(rng, n=6, dom=6) if i % 2
                 else cover_packing_problem(rng, n=14))
            s = Solver(p, SolverConfig(mode=mode, max_conflicts=200, random_seed=i))
            pr, cids = s.propagator, []
            strengthen, pop_to = s._install_strengthening, pr.pop_to

            def checked_strengthen(value, s=s, p=p, cids=cids, strengthen=strengthen):
                installed = strengthen(value)
                if installed:
                    cids.append(s.strengthening_cid)
                    assert cids[0] == cids[-1], cids
                    assert s.propagator.constraints[cids[0]] == normalize(
                        list(p.objective.coeffs.items()), value - 1)
                    seen["incumbent"] += 1
                return installed

            def checked_pop_to(height, s=s, pr=pr, pop_to=pop_to):
                pop_to(height)
                cid = s.strengthening_cid
                if cid is not None:
                    slack, widest = slack_and_widest(pr.constraints[cid], pr.trail)
                    assert pr.widest[cid] - pr.filters[cid] == slack
                    assert pr.widest[cid] >= widest
                    assert (cid in pr.queue) == (pr.filters[cid] > 0)
                    seen["backjump"] += 1

            s._install_strengthening, pr.pop_to = checked_strengthen, checked_pop_to
            s.solve()
            seen["tightened"] += max(len(cids) - 1, 0)
        assert seen["tightened"] >= 700 and seen["backjump"] >= 1200, seen

    def test_incumbents_strictly_decrease(self):
        # each better incumbent tightens the strengthening row, which is
        # not a learned row: the learned rows and their activity stay
        rng = random.Random(1)
        changes = []
        for _ in range(40):
            p = random_problem(rng, objective=True)
            seen = []
            s = Solver(p)
            strengthen = s._install_strengthening

            def checked_strengthen(value, s=s, strengthen=strengthen):
                before = dict(s.learned_activity)
                installed = strengthen(value)
                changes.append(s.learned_activity != before)
                return installed

            s._install_strengthening = checked_strengthen
            out = s.solve(on_incumbent=lambda t, v, c: seen.append(v))
            if out.status == OPTIMAL:
                assert seen[-1] == out.objective_value
            assert all(b < a for a, b in zip(seen, seen[1:]))
        assert changes and not any(changes)

    def test_infeasible_optimisation(self):
        out = solver_for([0], [1], [normalize([(0, 1)], -1)],
                         objective=Objective({0: 1})).solve()
        assert out.status == INFEASIBLE

    @pytest.mark.parametrize("mode", ["cut", "resolution"])
    def test_strengthening_row_on_binaries_is_checked(self, mode):
        p = strengthening_on_binaries()
        ref = oracle_solve(p)
        for seed in range(5):
            s = Solver(p, SolverConfig(mode=mode, strategy_order=(8, 6, 2),
                                       random_seed=seed))
            out = s.solve()
            assert (out.status, out.objective_value) == (OPTIMAL, ref.objective_value)
            cid = s.strengthening_cid  # a general row, checked against the trail it meets
            assert s.propagator.lits[cid] is None
            assert any(occ[0] == cid for occs in s.propagator.occs
                       for occ in occs)

    def test_budget_with_incumbent_reports_bounded(self):
        rng = random.Random(2)
        p = random_problem(rng, objective=True)
        s = Solver(p, SolverConfig(max_conflicts=0))
        out = s.solve()
        assert out.status in (BOUNDED, TIMELIMIT, OPTIMAL, INFEASIBLE)


class TestOneSearch:
    @pytest.mark.parametrize("mode", ["resolution", "cut"])
    def test_a_second_solve_raises(self, mode):
        # the first search leaves its trail, rows and queue behind, so a
        # second one would start from them (on draw 16 it answered optimal
        # 1, or infeasible, after optimal -2): it raises and moves nothing
        rng = random.Random(3402)
        for i in range(20):
            p = small_integer_problem(rng) if i % 2 == 0 else random_problem(rng, objective=True)
            s = Solver(p, SolverConfig(mode=mode, max_conflicts=500))
            out, stats = s.solve(), s.stats.as_dict()
            with pytest.raises(RuntimeError, match="one search"):
                s.solve()
            assert s.stats.as_dict() == stats
            ref = oracle_solve(p)
            assert (out.status, out.objective_value) == (ref.status, ref.objective_value), i

    @pytest.mark.parametrize("mode", ["resolution", "cut"])
    def test_the_module_solve_runs_one_solver(self, mode):
        rng = random.Random(3404)
        for _ in range(10):
            p = random_problem(rng, objective=True)
            config = SolverConfig(mode=mode, max_conflicts=200, random_seed=3)
            seen = [], []
            got = intsat.solve(p, config, on_incumbent=lambda *a: seen[0].append(a[1:]))
            want = Solver(p, config).solve(on_incumbent=lambda *a: seen[1].append(a[1:]))
            assert (got.status, got.objective_value) == (want.status, want.objective_value)
            assert got.solution == want.solution and seen[0] == seen[1]
            if got.solution is not None:
                assert [got.solution[v] for v in range(p.num_vars)] == want.solution.values


class TestOracleAgreement:
    def test_verdicts_and_optima_match(self, rng):
        for _ in range(120):
            p = random_problem(rng)
            ref = oracle_solve(p)
            for mode in ("resolution", "cut"):
                out = Solver(p, SolverConfig(mode=mode)).solve()
                assert out.status == ref.status, (mode, p.constraints)
                if ref.status == OPTIMAL:
                    assert out.objective_value == ref.objective_value
                if out.solution is not None:
                    assert p.check_solution(out.solution.values)

    def test_luby_restarts_reach_the_same_answers(self, rng, monkeypatch):
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 8)
        for _ in range(40):
            p = random_problem(rng)
            ref = oracle_solve(p)
            out = Solver(p, SolverConfig(restart=("luby", 2))).solve()
            assert out.status == ref.status
            if ref.status == OPTIMAL:
                assert out.objective_value == ref.objective_value

    def test_deterministic_given_seed(self, rng):
        p = random_problem(rng, objective=True)
        runs = []
        for _ in range(2):
            s = Solver(p, SolverConfig(random_seed=7))
            out = s.solve()
            runs.append((out.status, out.objective_value,
                         tuple(out.solution.values) if out.solution else None,
                         s.stats.conflicts, s.stats.decisions))
        assert runs[0] == runs[1]


# (CLEANUP_LEARNED_THRESHOLD, SolverConfig settings): the default cadence,
# and a cleanup every two learned rows, which a Luby unit of 1 runs soon; a
# test sets the threshold before it builds a Solver
CLEANUPS = ((search.CLEANUP_LEARNED_THRESHOLD, {}), (2, dict(restart=("luby", 1))))
AGGRESSIVE_THRESHOLD, AGGRESSIVE_CLEANUP = CLEANUPS[1]
CONFIG_SPACE = [
    (threshold, dict(mode=mode, strategy_order=order, **settings))
    for mode in ("cut", "resolution")
    for order in ((7, 5, 1), (10, 4))
    for threshold, settings in CLEANUPS
]


def config_space_problems():
    rng = random.Random(5)
    return ([cover_packing_problem(rng) for _ in range(300)]
            + [small_integer_problem(rng) for _ in range(60)])


def test_config_space_matches_the_oracle(monkeypatch):
    """Every configuration in CONFIG_SPACE answers as the oracle does on
    seeded binary cover/packing and small general-integer instances,
    each run within 300 conflicts."""
    for i, p in enumerate(config_space_problems()):
        ref = oracle_solve(p)
        for threshold, cfg in CONFIG_SPACE:
            monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", threshold)
            out = Solver(p, SolverConfig(random_seed=i % 3, max_conflicts=300,
                                         **cfg)).solve()
            assert (out.status, out.objective_value) == (ref.status, ref.objective_value), (
                i, cfg)


def test_aggressive_cleanup_terminates(monkeypatch):
    # a cleanup due after every learned row runs at each Luby restart, on
    # the instances where cleanups once met the same conflicts forever:
    # the restart schedule alone makes every run end, at the optimum
    monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
    problems = config_space_problems()
    for i in (300, 321, 326, 339):
        ref = oracle_solve(problems[i])
        for order in ((7, 5, 1), (10, 4)):
            s = Solver(problems[i], SolverConfig(mode="cut", strategy_order=order,
                                                 max_conflicts=300, restart=("luby", 1)))
            out = s.solve()
            assert (out.status, out.objective_value) == (OPTIMAL, ref.objective_value), (
                i, order)
            assert s.stats.cleanups > 0


@pytest.mark.parametrize("restart", [("luby", 1), ("inout", 2, 8, 1.5)])
@pytest.mark.parametrize("mode", ["cut", "resolution"])
def test_cleanups_wait_for_scheduled_restarts(mode, restart, monkeypatch):
    # a cleanup due after every learned row still runs only at a conflict
    # count where the schedule restarts
    monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
    scheduled = set(accumulate(islice(restart_limits(restart), 300)))
    at = []
    for p in config_space_problems()[::12]:
        s = Solver(p, SolverConfig(mode=mode, restart=restart, max_conflicts=300))
        cleanup = s._cleanup

        def recorded(s=s, cleanup=cleanup):
            at.append(s.stats.conflicts)
            cleanup()

        s._cleanup = recorded
        s.solve()
    assert len(at) > 10 and set(at) <= scheduled, sorted(set(at) - scheduled)
