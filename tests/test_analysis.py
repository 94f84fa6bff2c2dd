import random

import pytest

from intsat.analysis import (AnalysisInfeasible, analyze_hybrid,
                             analyze_resolution, clause_to_constraint,
                             cut_skip_check, early_backjump_scan)
from intsat.model import Bound, Objective, Problem, normalize
from intsat.search import Solver, SolverConfig
from intsat.trail import DECISION, ReasonInfo, Trail
from conftest import (C, RecordingSolver, ValidityProbe, box_points,
                      feasible_points, lo, php_problem, refutation_violated,
                      small_integer_problem, up)


def core_solver(**cfg):
    cs = [
        normalize([(0, -1), (1, -1), (2, -1)], -2),  # C0
        normalize([(0, 1), (1, 1)], 1),              # C1
        normalize([(0, 1), (2, 1)], 1),              # C2
        normalize([(1, 1), (2, 1)], 1),              # C3
        normalize([(0, 1)], 1),                      # C4
        normalize([(1, 1)], 1),                      # C5
        normalize([(2, 1)], 3),                      # C6
    ]
    return Solver(Problem(3, [-10] * 3, [10] * 3, cs, None, ["x", "y", "z"]),
                  SolverConfig(**cfg))


def core_conflict(s):
    """Drive the worked instance to its first conflict: decide 1 <= x."""
    assert s.propagator.propagate_fixpoint() is None
    s.propagator.push_bound(lo(0, 1), DECISION)
    conflict = s.propagator.propagate_fixpoint()
    assert conflict is not None
    return conflict


def rounding_solver(**cfg):
    cs = [normalize([(0, 1), (1, 1), (2, 2)], 2),
          normalize([(0, 1), (1, 1), (2, -2)], 0)]
    return Solver(Problem(3, [-2, -2, -1], [2, 1, 1], cs, None, ["x", "y", "z"]),
                  SolverConfig(**cfg))


def rounding_conflict(s):
    """Decisions 0 <= x then 1 <= y falsify x + y - 2z <= 0."""
    assert s.propagator.propagate_fixpoint() is None
    s.propagator.push_bound(lo(0, 0), DECISION)
    assert s.propagator.propagate_fixpoint() is None
    s.propagator.push_bound(lo(1, 1), DECISION)
    conflict = s.propagator.propagate_fixpoint()
    assert conflict is not None
    return conflict


class TestResolutionAnalysis:
    def test_core_example_rewrites_and_pushes(self):
        s = core_solver(mode="resolution")
        conflict = core_conflict(s)
        snapshots = []
        res = analyze_resolution(conflict, s.trail, s.store, s.problem,
                                 probe=lambda cs: snapshots.append(cs))
        as_bounds = [{s.trail.entries[h].bound for h in cs} for cs in snapshots]
        assert as_bounds[0] == {up(0, 1), up(1, 0), up(2, 0)}
        assert as_bounds[1] == {up(0, 1), up(1, 0), lo(0, 1)}
        assert as_bounds[2] == {up(0, 1), lo(0, 1)}
        assert res.bound == up(0, 0)  # not(1 <= x) is x <= 0
        assert [s.trail.entries[h].bound for h in res.reason_set] == [up(0, 1)]
        # x <= 1 sits at level 0, so only the negated decision is learned
        assert res.learned == (C([(0, 1)], 0),)  # x <= 0
        assert len(s.trail) - res.pop_to == 3  # pops z<=0, y<=0, 1<=x
        assert s.trail.entries[res.pop_to].info.is_decision

    def test_rounding_example(self):
        s = rounding_solver(mode="resolution")
        conflict = rounding_conflict(s)
        res = analyze_resolution(conflict, s.trail, s.store, s.problem)
        assert res.bound == up(1, 0)
        assert [s.trail.entries[h].bound for h in res.reason_set] == [lo(0, 0)]
        assert res.learned == () and res.attach_cc is None

    def test_single_decision_pops_to_level_zero(self):
        # deciding 1 <= x0 propagates x1 <= 0, which falsifies x0 <= x1;
        # the rewritten set is the lone decision, negated with empty reason
        p = Problem(2, [0, 0], [1, 1],
                    [normalize([(0, 1), (1, 1)], 1),
                     normalize([(0, 1), (1, -1)], 0)])
        s = Solver(p, SolverConfig(mode="resolution"))
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(0, 1), DECISION)
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None
        res = analyze_resolution(conflict, s.trail, s.store, s.problem)
        assert res.pop_to == s.trail.decision_heights[0]
        assert res.bound == up(0, 0)
        assert res.reason_set == ()

    def test_bumps_every_cs_variable_once(self):
        s = core_solver(mode="resolution")
        conflict = core_conflict(s)
        res = analyze_resolution(conflict, s.trail, s.store, s.problem)
        assert res.bumped_vars == {0, 1, 2}

    def test_learns_despite_level_zero_bounds(self):
        # every conflict set holds seed bounds such as 0 <= x; their
        # negations are left out, so pigeonhole conflicts are learned
        s = Solver(php_problem(6, 5), SolverConfig(mode="resolution"))
        assert s.solve().status == "infeasible"
        assert s.stats.learned > 0


class TestHybridAnalysis:
    def test_rounding_example_learns_cut(self):
        s = rounding_solver(mode="cut")
        conflict = rounding_conflict(s)
        res = analyze_hybrid(conflict, s.trail, s.store, s.problem)
        assert res.bound == up(1, 0)
        assert [s.trail.entries[h].bound for h in res.reason_set] == [lo(0, 0)]
        assert res.learned == (C([(0, 1), (1, 1)], 1),)
        assert res.attach_cc == C([(0, 1), (1, 1)], 1)
        assert not res.early  # nothing fresh propagates at lower levels here

    def test_core_example_early_backjump(self):
        s = core_solver(mode="cut")
        conflict = core_conflict(s)
        res = analyze_hybrid(conflict, s.trail, s.store, s.problem)
        assert res.early
        assert res.learned == (C([(1, -1)], -1),)  # 1 <= y as a constraint
        assert res.bound == lo(1, 1)
        assert res.reason_set == ()
        assert res.pop_to == s.trail.decision_heights[0]  # all the way to level 0

    def test_over_cap_cut_leaves_cc_unchanged(self):
        # the second rewrite needs multipliers that blow the coefficient
        # cap (coprime huge coefficients, so normalisation cannot rescue
        # it); that cut is refused and the conflicting constraint kept
        big = 2 ** 30 - 1
        c_a = C([(1, big), (2, big - 1)], big)   # 1 <= x1 makes c_a false
        c_b = normalize([(0, -1), (2, -1)], -1)  # clause x0 or x2
        c_c = normalize([(0, 1), (1, 1)], 1)     # clause not-x0 or not-x1
        p = Problem(3, [0] * 3, [1] * 3, [c_a, c_b, c_c])
        s = Solver(p, SolverConfig(mode="cut"))
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(1, 1), DECISION)
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None
        assert s.store.constraints[conflict.cid] == c_a
        res = analyze_hybrid(conflict, s.trail, s.store, s.problem)
        # first cut succeeds (c_a x c_b on x2), the second one is refused,
        # so the learned constraint still mentions x0 with a huge weight
        assert res.learned == (C([(0, -(big - 1)), (1, big)], 1),)
        assert not res.early
        assert res.bound == up(1, 0)
        assert res.pop_to == s.trail.decision_heights[0]


class TestEarlyBackjumpScan:
    def test_unit_constraint_propagates_at_level_zero(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        hit = early_backjump_scan(C([(1, -1)], -1), s.trail)  # 1 <= y
        assert hit is not None
        assert hit.cutoff == s.trail.decision_heights[0]
        assert hit.bound == lo(1, 1)
        assert hit.reason_set == ()

    def test_no_hit_when_nothing_fresh(self):
        s = rounding_solver(mode="cut")
        rounding_conflict(s)
        assert early_backjump_scan(C([(0, 1), (1, 1)], 1), s.trail) is None

    def test_false_at_level_zero_signals_infeasible(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        with pytest.raises(AnalysisInfeasible):
            early_backjump_scan(C([(2, 1)], -5), s.trail)  # z <= -5 false at root

    def test_reason_heights_lie_below_the_cutoff(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        hit = early_backjump_scan(C([(0, 1), (1, 1)], 0), s.trail)
        if hit is not None:
            assert all(h < hit.cutoff for h in hit.reason_set)


def reference_level(cc, t, level):
    """cc over the trail entries below the level-th decision: the first
    fresh bound as (cutoff, bound, reason heights), "false", or None."""
    cutoff = t.decision_heights[level]
    last = {}  # (var, is_lower) -> height of the latest bound below cutoff
    for h in range(cutoff):
        b = t.entries[h].bound
        last[b.var, b.is_lower] = h
    bounds = {v: (t.entries[last[v, True]].bound.value,
                  t.entries[last[v, False]].bound.value) for v, _ in cc.monomials}
    smin = sum(a * (bounds[v][0] if a > 0 else bounds[v][1]) for v, a in cc.monomials)
    if smin > cc.rhs:
        return "false"
    for v, a in cc.monomials:
        lb, ub = bounds[v]
        rest = cc.rhs - (smin - (a * lb if a > 0 else a * ub))
        if a > 0:
            b, fresh = up(v, rest // a), lb <= rest // a < ub
        else:
            b, fresh = lo(v, -((-rest) // a)), lb < -((-rest) // a) <= ub
        if fresh:
            reason = sorted(last[w, x > 0] for w, x in cc.monomials if w != v)
            return cutoff, b, tuple(reason)
    return None


def reference_scan(cc, t):
    """The scan recomputed per level from the trail entries below each
    cutoff: the hit as (cutoff, bound, reason heights), None, or
    "infeasible"."""
    for level in range(t.num_decisions):
        got = reference_level(cc, t, level)
        if got == "false":
            return "infeasible" if level == 0 else None
        if got is not None:
            return got
    return None


def passes_an_untouched_level(cc, t):
    """True when the scan, before it ends, reaches a level that adds no
    entry of cc's variables to the prefix below it."""
    support = set(cc.vars())
    for level in range(1, t.num_decisions):
        if reference_level(cc, t, level - 1) is not None:
            return False  # the scan ended one level below
        new = range(t.decision_heights[level - 1], t.decision_heights[level])
        if not any(t.entries[h].bound.var in support for h in new):
            return True
    return False


def scan_outcome(cc, t):
    try:
        hit = early_backjump_scan(cc, t)
    except AnalysisInfeasible:
        return "infeasible"
    return hit if hit is None else (hit.cutoff, hit.bound, hit.reason_set)


class TestScanAgainstReference:
    def test_matches_the_reference_on_random_rows(self):
        rng = random.Random(46)
        outcomes = {"hit": 0, "none": 0, "infeasible": 0}
        for _ in range(400):
            n = rng.randint(1, 5)
            lbs = [rng.randint(-6, 2) for _ in range(n)]
            ubs = [lb + rng.randint(0, 8) for lb in lbs]
            t = Trail(n, lbs, ubs)
            for var in range(n):
                t.push(lo(var, lbs[var]), ReasonInfo.propagated((), None), seed=True)
                t.push(up(var, ubs[var]), ReasonInfo.propagated((), None), seed=True)
            for _ in range(rng.randint(1, 10)):
                var = rng.randrange(n)
                lb, ub = t.current_bounds(var)
                if lb < ub:
                    info = (DECISION if rng.random() < 0.4
                            else ReasonInfo.propagated((), None))
                    t.push(lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
                           else up(var, rng.randint(lb, ub - 1)), info)
            terms = [(v, rng.choice([-7, -3, -2, -1, 1, 2, 3, 7]))
                     for v in rng.sample(range(n), rng.randint(1, n))]
            cc = C(terms, rng.randint(-20, 20))
            want = reference_scan(cc, t)
            hit = scan_outcome(cc, t)
            assert hit == want, (cc, t.dump_lines())
            outcomes["hit" if hit not in (None, "infeasible") else hit or "none"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_matches_the_reference_on_deep_trails(self):
        # 20-60 pushes over up to 8 variables: levels that touch none of
        # cc's variables, variables outside cc, long chains on one variable
        rng = random.Random(48)
        outcomes = {"hit": 0, "none": 0, "infeasible": 0, "skip": 0}
        for _ in range(300):
            n = rng.randint(2, 8)
            lbs = [rng.randint(-30, 0) for _ in range(n)]
            ubs = [lb + rng.randint(10, 40) for lb in lbs]
            t = Trail(n, lbs, ubs)
            for var in range(n):
                t.push(lo(var, lbs[var]), ReasonInfo.propagated((), None), seed=True)
                t.push(up(var, ubs[var]), ReasonInfo.propagated((), None), seed=True)
            support = rng.sample(range(n), rng.randint(1, n))
            outside = [v for v in range(n) if v not in support] or support
            hot = rng.choice(support)
            pool = support
            for _ in range(rng.randint(20, 60)):
                info = ReasonInfo.propagated((), None)
                if rng.random() < 0.2:
                    info = DECISION
                    # some levels push bounds only on variables outside cc
                    pool = outside if rng.random() < 0.4 else list(range(n))
                var = hot if pool is not outside and rng.random() < 0.4 else rng.choice(pool)
                lb, ub = t.current_bounds(var)
                if lb == ub:
                    continue
                step = 1 if var == hot else rng.randint(1, max(1, (ub - lb) // 3))
                t.push(lo(var, min(ub, lb + step)) if rng.random() < 0.5
                       else up(var, max(lb, ub - step)), info)
            terms = [(v, rng.choice([-7, -3, -2, -1, 1, 2, 3, 7])) for v in sorted(support)]
            smin = sum(a * (lbs[v] if a > 0 else ubs[v]) for v, a in terms)
            widest = max(abs(a) * (ubs[v] - lbs[v]) for v, a in terms)
            offset = (-rng.randint(1, 5) if rng.random() < 0.15
                      else rng.randint(0, 2 * widest))
            cc = C(terms, smin + offset)
            want = reference_scan(cc, t)
            hit = scan_outcome(cc, t)
            assert hit == want, (cc, t.dump_lines())
            outcomes["hit" if hit not in (None, "infeasible") else hit or "none"] += 1
            outcomes["skip"] += passes_an_untouched_level(cc, t)
        assert min(outcomes.values()) >= 20, outcomes


class TwinSolver(Solver):
    """Cut-mode solver that also runs resolution analysis on every
    conflict state and records both results with their rewrite steps."""

    def _analyze(self, conflict):
        args = (conflict, self.trail, self.store, self.problem)
        steps = ([], [])
        try:
            hybrid = analyze_hybrid(*args, probe=steps[0].append)
        except AnalysisInfeasible:
            hybrid = None
        if hybrid is not None and not hybrid.early:
            resolution = analyze_resolution(*args, probe=steps[1].append)
            self.twins.append((hybrid, resolution, steps))
        return super()._analyze(conflict)


class TestOneRewriteLoop:
    def test_hybrid_without_early_backjump_matches_resolution(self):
        rng = random.Random(52)
        twins = []
        for _ in range(100):
            s = TwinSolver(small_integer_problem(rng),
                           SolverConfig(mode="cut", strategy_order=(1,)))
            s.twins = twins
            s.solve()
        assert len(twins) >= 300
        assert sum(len(steps[0]) > 2 for _, _, steps in twins) >= 50
        fields = ("pop_to", "bound", "reason_set", "bumped_vars", "touched_cids")
        for hybrid, resolution, (hybrid_steps, resolution_steps) in twins:
            for name in fields:
                assert getattr(hybrid, name) == getattr(resolution, name), name
            assert hybrid_steps == resolution_steps


class TestCutSkipCheck:
    def test_single_shared_variable_skips(self):
        cc = C([(0, 1), (1, 2), (2, 3)], 0)
        rc = C([(0, -1), (3, 1)], 0)
        assert cut_skip_check(cc, rc, 0) is True

    def test_two_shared_variables_do_not_skip(self):
        cc = C([(0, 1), (1, 1)], 0)
        rc = C([(0, -1), (1, 1)], 0)
        assert cut_skip_check(cc, rc, 0) is False


class TestBackjumpTarget:
    def test_pops_through_decision_above_deepest_rest_level(self):
        # four decisions; the falsifying set sits at levels {4, 2}, so the
        # backjump pops through decision 3, keeping exactly two decisions
        p = Problem(4, [0] * 4, [5] * 4, [])
        s = Solver(p)
        assert s.propagator.propagate_fixpoint() is None
        for var in (0, 3, 1, 2):  # levels 1..4
            s.propagator.push_bound(lo(var, 2), DECISION)
        s.propagator.push_bound(  # level-4 propagation justified by level 2
            lo(0, 3), ReasonInfo.propagated((s.trail.pl[3],), None))
        cid = s.store.add(normalize([(0, 1), (3, 1)], 4), initial=True)
        s.propagator.register_constraint(cid)
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None  # 3 + 2 > 4
        assert {s.trail.entries[h].bound for h in conflict.cs} == {lo(0, 3), lo(3, 2)}
        res = analyze_hybrid(conflict, s.trail, s.store, s.problem)
        assert res.bound == up(0, 2)
        new_decisions = [h for h in s.trail.decision_heights if h < res.pop_to]
        assert len(new_decisions) == 2


class TestClauseToConstraint:
    def problem(self):
        # x0, x1 binary; x2 general in [0, 10]
        return Problem(3, [0, 0, 0], [1, 1, 10])

    def test_single_general_lower_bound_is_itself(self):
        got = clause_to_constraint([lo(2, 5)], self.problem())
        assert got == C([(2, -1)], -5)

    def test_mixed_clause_matches_worked_formula(self):
        got = clause_to_constraint([lo(0, 1), up(1, 0), lo(2, 5)], self.problem())
        # 5 - 5(x0 + (1 - x1)) <= x2
        assert got == C([(0, -5), (1, 5), (2, -1)], 0)

    def test_two_bounds_on_one_general_variable_fail(self):
        p = Problem(1, [-2, ], [1])
        assert clause_to_constraint([lo(0, 2), up(0, 0)], p) is None

    def test_all_binary_clause(self):
        got = clause_to_constraint([lo(0, 1), up(1, 0)], self.problem())
        assert got == C([(0, -1), (1, 1)], 0)

    def test_upper_general_bound(self):
        got = clause_to_constraint([lo(0, 1), up(2, 3)], self.problem())
        # x2 <= 3 + 7*x0
        assert got == C([(0, -7), (2, 1)], 3)

    def test_equivalence_over_the_box(self):
        rng = random.Random(31)
        for _ in range(120):
            n_bin = rng.randint(0, 4)
            lbs = [0] * n_bin
            ubs = [1] * n_bin
            lits = []
            for v in range(n_bin):
                if rng.random() < 0.7:
                    lits.append(lo(v, 1) if rng.random() < 0.5 else up(v, 0))
            has_general = rng.random() < 0.8 or not lits
            if has_general:
                g_lb = rng.randint(-3, 3)
                g_ub = g_lb + rng.randint(1, 8)
                lbs.append(g_lb)
                ubs.append(g_ub)
                gv = n_bin
                if rng.random() < 0.5:
                    lits.append(lo(gv, rng.randint(g_lb + 1, g_ub)))
                else:
                    lits.append(up(gv, rng.randint(g_lb, g_ub - 1)))
            p = Problem(len(lbs), lbs, ubs)
            got = clause_to_constraint(lits, p)
            assert got is not None
            for pt in box_points(lbs, ubs):
                clause_true = any(l.satisfied_by(pt[l.var]) for l in lits)
                assert clause_true == got.satisfied_by(pt), (lits, got, pt)


class TestInfeasibleShortCircuit:
    def test_contradictory_cut_raises(self):
        # x >= 1 and x <= 0: conflict whose cut cancels all variables
        p = Problem(2, [0, 0], [1, 1],
                    [normalize([(0, -1), (1, 1)], 0),   # x1 <= x0
                     normalize([(0, 1), (1, -1)], -1)])  # x0 + 1 <= x1
        s = Solver(p, SolverConfig(mode="cut"))
        out = s.solve()
        assert out.status == "infeasible"


class TestRefutationRecording:
    """The validity suite's check on analyses that end in AnalysisInfeasible."""

    @pytest.mark.parametrize("mode", ["resolution", "cut"])
    def test_true_refutation_is_recorded_and_holds(self, mode):
        # min -x0 over x0 in [0,1]: after the incumbent x0 = 1 the row
        # -x0 <= -2 is added and the next conflict refutes S by analysis
        p = Problem(1, [0], [1], [], Objective({0: -1}))
        probe = ValidityProbe()
        out = RecordingSolver(p, SolverConfig(mode=mode),
                              instrumentation=probe).solve()
        assert (out.status, out.objective_value) == ("optimal", -1)
        assert probe.analyses == []
        [(pre_entries, strengthening)] = probe.refutations
        assert pre_entries[-1].info.is_decision
        assert strengthening == normalize([(0, -1)], -2)
        feasible = feasible_points(p)
        assert feasible == [(0,), (1,)]  # S0 alone is feasible
        assert not refutation_violated(feasible, strengthening)
        # without the row, or with one that x0 = 1 satisfies, the claim fails
        assert refutation_violated(feasible, None)
        assert refutation_violated(feasible, normalize([(0, -1)], -1))

    def test_refutation_of_a_feasible_set_is_flagged(self, monkeypatch):
        def refute(*args, **kwargs):
            raise AnalysisInfeasible

        monkeypatch.setattr("intsat.analysis.analyze_hybrid", refute)
        probe = ValidityProbe()
        s = RecordingSolver(rounding_solver(mode="cut").problem,
                            SolverConfig(mode="cut"), instrumentation=probe)
        conflict = rounding_conflict(s)
        with pytest.raises(AnalysisInfeasible):
            s._analyze(conflict)
        assert probe.analyses == []
        [(pre_entries, strengthening)] = probe.refutations
        assert pre_entries == tuple(s.trail.entries)
        feasible = feasible_points(s.problem)
        assert feasible  # e.g. x = y = z = 0
        assert refutation_violated(feasible, strengthening)
