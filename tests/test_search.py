import random
import time
from itertools import accumulate, islice

import pytest

from intsat import search
from intsat.model import Objective, Problem, normalize
from intsat.oracle import oracle_solve
from intsat.search import (ActivityQueue, Solver, SolverConfig, learned_row_bytes, luby,
                           restart_limits, BOUNDED, FEASIBLE, INFEASIBLE, OPTIMAL, TIMELIMIT)
from intsat.trail import DECISION
from conftest import (cover_packing_problem, lo, random_problem,
                      small_integer_problem, up)


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

    def test_highest_activity_variable_is_picked(self):
        s = solver_for([0, 0, 0], [5, 5, 5], strategy_order=(4,))
        s.activity.bump_conflict_vars([2])
        assert s.decide().var == 2

    def test_config_requires_total_fallback(self):
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=(7, 5)).validate()
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=()).validate()
        with pytest.raises(ValueError):
            SolverConfig(strategy_order=(12, 1)).validate()


class TestActivity:
    def test_increment_grows_geometrically(self):
        q = ActivityQueue(3, 1.05, 1e100, random.Random(0))
        start = q.increment
        for _ in range(100):
            q.bump_conflict_vars([0])
        assert q.increment == pytest.approx(start * 1.05 ** 100)

    def test_variable_bumped_once_per_conflict(self):
        q = ActivityQueue(2, 2.0, 1e100, random.Random(0))
        base = q.scores[0]
        q.bump_conflict_vars({0})  # sets, so duplicates are impossible
        assert q.scores[0] == pytest.approx(base + 1.0)

    def test_rescale_preserves_argmax(self):
        # bumps 1, 10, ..., 1e10 take x1 to 1.11e10, over the cap: scores
        # and increment shrink by 1e10, and the 12th bump adds 10
        q = ActivityQueue(3, 10.0, 1e10, random.Random(0))
        for _ in range(12):
            q.bump_conflict_vars([1])
        assert max(q.scores) == q.scores[1] == pytest.approx(11.1111111111)
        assert q.increment == pytest.approx(100.0)
        t = solver_for([0, 0, 0], [1, 1, 1]).trail
        assert q.pick(t) == 1

    @pytest.mark.parametrize("rescale_cap", [1e100, 4.0])
    @pytest.mark.parametrize("mode", ["cut", "resolution"])
    def test_every_undefined_variable_has_a_current_entry(self, mode, rescale_cap,
                                                          monkeypatch):
        # pick relies on it: it never rebuilds the heap.  A cap of 4 makes
        # bump_conflict_vars rescale every few conflicts
        monkeypatch.setattr(search, "ACTIVITY_RESCALE_CAP", rescale_cap)
        rescales, rescale = [], ActivityQueue._rescale

        def counted_rescale(q):
            rescales.append(q)
            rescale(q)

        monkeypatch.setattr(ActivityQueue, "_rescale", counted_rescale)

        class HeapProbe:
            checks = 0

            def after_push(self, solver):
                q, t = solver.activity, solver.trail
                current = set(q.heap)
                assert all((-q.scores[v], v) in current
                           for v in range(t.num_vars) if not t.is_defined(v))
                self.checks += 1

            def reset(self, solver):
                pass

        probe, cleanups = HeapProbe(), 0
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
        assert probe.checks > 1000 and cleanups > 0
        assert bool(rescales) == (rescale_cap < 100)


class TestRestarts:
    def test_luby_heads(self):
        assert [luby(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]

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
        ("fibonacci", 3)])
    def test_malformed_or_non_growing_restart_is_rejected(self, restart):
        # a luby unit of 0, or inout limits stuck at 1, restart after every
        # conflict, and a search that learns no row then never ends
        with pytest.raises(ValueError):
            SolverConfig(restart=restart).validate()

    @pytest.mark.parametrize("restart", [("luby", 1), ("inout", 1, 1, 1.1),
                                         ("inout", 100, 1000, 1.1)])
    def test_restart_that_grows_is_accepted(self, restart):
        SolverConfig(restart=restart).validate()

    def test_restart_pops_to_level_zero_and_keeps_learned(self):
        s = solver_for([0, 0], [3, 3], [normalize([(0, 1), (1, 1)], 4)])
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(0, 2), DECISION)
        learned_cid = s._learn(normalize([(0, 1)], 2))
        s._restart()
        assert s.trail.num_decisions == 0
        assert s.propagator.alive[learned_cid]
        s._restart()  # restart at level 0 is a no-op pop-wise
        assert s.trail.num_decisions == 0


class TestCleanup:
    def setup_store(self):
        s = solver_for([0, 0, 0], [3, 3, 3], cleanup_learned_threshold=1)
        cids = []
        for terms, rhs in [([(0, 1), (1, 1), (2, 1)], 5),
                           ([(0, 1), (1, 1)], 5),
                           ([(0, 1), (1, 1), (2, 2)], 6)]:
            cid = s._learn(normalize(terms, rhs))
            cids.append(cid)
        return s, cids

    def test_removes_long_inactive_learned(self):
        s, (c3, c2, c3b) = self.setup_store()
        s.propagator.activity[c3b] = 5
        s._cleanup()  # rows learned since the last cleanup are kept, not aged
        assert all(s.propagator.alive[c] for c in (c3, c2, c3b))
        assert s.propagator.activity[c3b] == 5
        s._cleanup()
        assert not s.propagator.alive[c3]      # 3 monomials, counter 0
        assert s.propagator.alive[c2]          # only 2 monomials
        assert s.propagator.alive[c3b]         # counter was nonzero
        assert s.propagator.activity[c3b] == 2  # 5 // 2
        assert s.propagator.activity[c2] == 0

    def test_learned_bytes_cover_the_live_learned_rows(self):
        # input and strengthening rows are neither counted nor killed
        s = solver_for([0, 0, 0], [3, 3, 3], [normalize([(0, 1), (1, 1), (2, 1)], 8)],
                       objective=Objective({0: 1, 1: 1, 2: 1}))
        for terms, rhs in [([(0, 1), (1, 1), (2, 1)], 5), ([(0, 1), (1, 1)], 5)]:
            s._learn(normalize(terms, rhs))
        assert s._install_strengthening(7)
        s._learn(normalize([(0, 1), (1, 2), (2, 1)], 6))
        pr = s.propagator

        def live_learned():
            return [c for cid, c in enumerate(pr.constraints)
                    if pr.alive[cid] and cid not in (0, s.strengthening_cid)]

        assert s.learned_bytes == 3 * 64 + 16 * 8 == sum(map(learned_row_bytes, live_learned()))
        s._cleanup()
        s._cleanup()
        assert not pr.alive[1] and not pr.alive[4]  # long, counter 0
        assert pr.alive[0] and pr.alive[s.strengthening_cid]
        assert s.learned_bytes == 64 + 16 * 2 == sum(map(learned_row_bytes, live_learned()))

    def test_initial_constraints_never_removed(self):
        s = solver_for([0, 0, 0], [3, 3, 3],
                       [normalize([(0, 1), (1, 1), (2, 1)], 5)])
        s._cleanup()
        s._cleanup()  # the first one keeps every row as fresh
        pr = s.propagator
        assert pr.alive == [True]

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
        assert s.propagator.alive[cid]  # the first one keeps every row as fresh
        s._cleanup()
        assert not s.propagator.alive[cid]
        occurring = {c for occs in s.propagator.occs for c, _ in occs}
        assert cid not in occurring
        assert s.trail.reason_heights(height) == reason

    @pytest.mark.parametrize("seed", range(3))
    def test_rebuild_rewatches_literals_false_at_level_zero(self, seed):
        # with cleanup after every second learned row, rebuilt clause
        # watches land on literals already false at level 0
        rows = [normalize([(0, -1), (3, -1), (4, -1), (6, -1)], -1),
                normalize([(0, 1), (1, 1), (3, 1), (5, 1)], 1),
                normalize([(0, 1), (3, 1), (5, 1)], 1),
                normalize([(0, 1), (5, 1)], 1),
                normalize([(1, -1), (2, -1), (5, -1), (6, -1)], -1),
                normalize([(0, -1), (4, -1), (5, -1)], -1)]
        p = Problem(7, [0] * 7, [1] * 7, rows,
                    Objective({0: 5, 1: -2, 2: 5, 3: 1, 4: 1, 5: -3, 6: 1}))
        ref = oracle_solve(p)
        s = Solver(p, SolverConfig(mode="cut", cleanup_learned_threshold=2,
                                   restart=("luby", 1), random_seed=seed))
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

    def test_time_limit_returns_unknown(self):
        from conftest import php_problem
        p = php_problem(6, 5)
        s = Solver(p, SolverConfig(mode="resolution", max_conflicts=3))
        out = s.solve()
        assert out.status == TIMELIMIT and out.solution is None

    def test_zero_time_limit_is_a_budget(self):
        # stops at the first conflict; with no budget PHP(6,5) is refuted
        from conftest import php_problem
        out = Solver(php_problem(6, 5), SolverConfig(time_limit=0)).solve()
        assert out.status == TIMELIMIT

    def test_time_limit_holds_inside_propagation(self):
        # x < y and y < x: root propagation walks the upper bounds down
        # one step per push, about a million pushes before the conflict
        rows = [normalize([(0, 1), (1, -1)], -1), normalize([(0, -1), (1, 1)], -1)]
        t0 = time.monotonic()
        out = solver_for([0, 0], [10 ** 6, 10 ** 6], rows, time_limit=0.2).solve()
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

    def test_incumbents_strictly_decrease(self):
        # each better incumbent replaces the strengthening row, which is
        # not a learned row: its bytes are not counted
        rng = random.Random(1)
        changes = []
        for _ in range(40):
            p = random_problem(rng, objective=True)
            seen = []
            s = Solver(p)
            strengthen = s._install_strengthening

            def checked_strengthen(value, s=s, strengthen=strengthen):
                before = s.learned_bytes
                installed = strengthen(value)
                changes.append(s.learned_bytes - before)
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

    def test_luby_restarts_reach_the_same_answers(self, rng):
        for _ in range(40):
            p = random_problem(rng)
            ref = oracle_solve(p)
            out = Solver(p, SolverConfig(
                restart=("luby", 2), cleanup_learned_threshold=8)).solve()
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


AGGRESSIVE_CLEANUP = dict(cleanup_learned_threshold=2, restart=("luby", 1))
CONFIG_SPACE = [
    dict(mode=mode, strategy_order=order, **settings)
    for mode in ("cut", "resolution")
    for order in ((7, 5, 1), (10, 4))
    for settings in ({}, AGGRESSIVE_CLEANUP)
]


def config_space_problems():
    rng = random.Random(5)
    return ([cover_packing_problem(rng) for _ in range(300)]
            + [small_integer_problem(rng) for _ in range(60)])


def test_config_space_matches_the_oracle():
    """Every configuration in CONFIG_SPACE answers as the oracle does on
    seeded binary cover/packing and small general-integer instances,
    each run within 300 conflicts."""
    for i, p in enumerate(config_space_problems()):
        ref = oracle_solve(p)
        for cfg in CONFIG_SPACE:
            out = Solver(p, SolverConfig(random_seed=i % 3, max_conflicts=300,
                                         **cfg)).solve()
            assert (out.status, out.objective_value) == (ref.status, ref.objective_value), (
                i, cfg)


def test_aggressive_cleanup_terminates():
    # cleanup after every two learned rows, each with a restart, used to
    # delete the two rows just learned and meet the same conflicts forever
    problems = config_space_problems()
    for i in (300, 321, 326, 339):
        ref = oracle_solve(problems[i])
        for order in ((7, 5, 1), (10, 4)):
            s = Solver(problems[i], SolverConfig(mode="cut", strategy_order=order,
                                                 max_conflicts=300, **AGGRESSIVE_CLEANUP))
            out = s.solve()
            assert (out.status, out.objective_value) == (OPTIMAL, ref.objective_value), (
                i, order)
            assert s.stats.cleanups > 0


@pytest.mark.parametrize("mode", ["cut", "resolution"])
def test_memory_capped_cleanup_terminates(mode):
    # a cap below one learned row keeps a cleanup due at every restart; the
    # runs end before an inout schedule's first restart, so restart often
    problems = config_space_problems()
    for i in (300, 304):
        ref = oracle_solve(problems[i])
        for order in ((7, 5, 1), (10, 4)):
            s = Solver(problems[i], SolverConfig(mode=mode, strategy_order=order,
                                                 max_conflicts=300, cleanup_memory_cap=1,
                                                 restart=("luby", 1)))
            out = s.solve()
            assert (out.status, out.objective_value) == (ref.status, ref.objective_value), (
                i, order)
            assert s.stats.cleanups > 0


@pytest.mark.parametrize("restart", [("luby", 1), ("inout", 2, 8, 1.5)])
@pytest.mark.parametrize("mode", ["cut", "resolution"])
def test_cleanups_wait_for_scheduled_restarts(mode, restart):
    # a cleanup due after every learned row still runs only at a conflict
    # count where the schedule restarts
    scheduled = set(accumulate(islice(restart_limits(restart), 300)))
    at = []
    for p in config_space_problems()[::12]:
        s = Solver(p, SolverConfig(mode=mode, restart=restart, max_conflicts=300,
                                   cleanup_learned_threshold=1))
        cleanup = s._cleanup

        def recorded(s=s, cleanup=cleanup):
            at.append(s.stats.conflicts)
            cleanup()

        s._cleanup = recorded
        s.solve()
    assert len(at) > 10 and set(at) <= scheduled, sorted(set(at) - scheduled)
