import random

import pytest

from intsat import analysis
from intsat.analysis import (AnalysisInfeasible, analyze_hybrid,
                             analyze_resolution, clause_to_constraint,
                             early_backjump_scan)
from intsat.model import Bound, Objective, Problem, normalize
from intsat.oracle import oracle_solve
from intsat.propagation import Conflict
from intsat.search import Solver, SolverConfig
from intsat.trail import DECISION, ReasonInfo, Trail
from test_search import config_space_problems
from test_search_snapshot import corpus, integer_rows_problem
from conftest import (C, RecordingSolver, ValidityProbe, box_points, cover_packing_problem,
                      feasible_points, lo, pairwise_php_problem, php_problem,
                      planted_3sat_problem, refutation_violated, small_integer_problem, up,
                      watch_order)


def core_solver(y_box=(-10, 10), **cfg):
    cs = [
        normalize([(0, -1), (1, -1), (2, -1)], -2),  # C0
        normalize([(0, 1), (1, 1)], 1),              # C1
        normalize([(0, 1), (2, 1)], 1),              # C2
        normalize([(1, 1), (2, 1)], 1),              # C3
        normalize([(0, 1)], 1),                      # C4
        normalize([(1, 1)], 1),                      # C5
        normalize([(2, 1)], 3),                      # C6
    ]
    return Solver(Problem(3, [-10, y_box[0], -10], [10, y_box[1], 10], cs, None,
                          ["x", "y", "z"]),
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
        res = analyze_resolution(conflict, s.trail, s.propagator.constraints, s.problem,
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
        assert s.trail.entries[res.pop_to].info is DECISION

    def test_rounding_example(self):
        s = rounding_solver(mode="resolution")
        conflict = rounding_conflict(s)
        res = analyze_resolution(conflict, s.trail, s.propagator.constraints, s.problem)
        assert res.bound == up(1, 0)
        assert [s.trail.entries[h].bound for h in res.reason_set] == [lo(0, 0)]
        assert res.learned == () and res.attach_cid is None

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
        res = analyze_resolution(conflict, s.trail, s.propagator.constraints, s.problem)
        assert res.pop_to == s.trail.decision_heights[0]
        assert res.bound == up(0, 0)
        assert res.reason_set == ()

    def test_bumps_every_cs_variable_once(self):
        s = core_solver(mode="resolution")
        conflict = core_conflict(s)
        res = analyze_resolution(conflict, s.trail, s.propagator.constraints, s.problem)
        assert res.bumped_vars == {0, 1, 2}

    def test_learns_despite_level_zero_bounds(self):
        # every conflict set holds seed bounds such as 0 <= x; their
        # negations are left out, so pigeonhole conflicts are learned
        s = Solver(php_problem(6, 5), SolverConfig(mode="resolution"))
        assert s.solve().status == "infeasible"
        assert s.stats.learned > 0


def level_zero_hit_conflict(k, first, x_lb, x_box=(-20, 20)):
    """x + y + z - w <= k and y + z >= 0, with x in ``x_box`` and y, z, w
    in [-20, 20]; the decisions ``first`` then x_lb <= x reach a conflict
    whose first cut, on z, is x - w <= k: over the level-0 box it
    propagates x <= k + 20."""
    cs = [normalize([(0, 1), (1, 1), (2, 1), (3, -1)], k),
          normalize([(1, -1), (2, -1)], 0)]
    s = Solver(Problem(4, [x_box[0]] + [-20] * 3, [x_box[1]] + [20] * 3, cs, None,
                       ["x", "y", "z", "w"]),
               SolverConfig(mode="cut"))
    assert s.propagator.propagate_fixpoint() is None
    s.propagator.push_bound(first, DECISION)
    assert s.propagator.propagate_fixpoint() is None
    s.propagator.push_bound(lo(0, x_lb), DECISION)
    conflict = s.propagator.propagate_fixpoint()
    assert conflict is not None
    return s, conflict


class TestHybridAnalysis:
    def test_rounding_example_learns_cut(self):
        s = rounding_solver(mode="cut")
        conflict = rounding_conflict(s)
        res = analyze_hybrid(conflict, s.trail, s.propagator.constraints, s.problem)
        assert res.bound == up(1, 0)
        assert [s.trail.entries[h].bound for h in res.reason_set] == [lo(0, 0)]
        assert res.learned == (C([(0, 1), (1, 1)], 1),)  # a cut: its reason row
        assert res.attach_cid is None
        assert not res.early  # nothing fresh propagates at lower levels here

    def test_core_example_early_backjump(self):
        s = core_solver(mode="cut")
        conflict = core_conflict(s)
        res = analyze_hybrid(conflict, s.trail, s.propagator.constraints, s.problem)
        assert res.early
        assert res.learned == (C([(1, -1)], -1),)  # 1 <= y as a constraint
        assert res.bound == lo(1, 1)
        assert res.reason_set == ()
        assert res.pop_to == s.trail.decision_heights[0]  # all the way to level 0

    def test_unit_row_over_a_binary_backjumps_early(self):
        # y in [0, 1] makes the level-0 box of x and z [0, 1] too; the
        # learned unit row 1 <= y is kept all the same, where the 1UIP
        # bound would be x <= 0
        s = core_solver(y_box=(0, 1), mode="cut")
        conflict = core_conflict(s)
        res = s._analyze(conflict)
        assert res.early and res.scans == s.stats.scans == 1
        assert res.learned == (C([(1, -1)], -1),)
        assert res.bound == lo(1, 1)
        assert res.reason_set == ()
        assert res.pop_to == s.trail.decision_heights[0]

    @pytest.mark.parametrize("k, first, x_lb, x_box", [
        (-1, up(3, -19), 1, (-20, 20)),  # x <= 19 over the level-0 box: 1 of 41 values
        (-20, up(3, 1), 0, (-20, 20)),   # x <= 0: 20 of 41
        (-21, up(3, 1), 0, (-20, 20)),   # x <= -1: 21 of 41
        (-40, up(1, 0), 0, (-20, 20)),   # x <= -20: fixes x
        (-20, up(1, 0), 1, (0, 1))])     # x <= 0: fixes a binary x
    def test_two_variable_cut_makes_no_early_backjump(self, k, first, x_lb, x_box):
        s, conflict = level_zero_hit_conflict(k, first, x_lb, x_box)
        res = s._analyze(conflict)
        assert res.learned == (C([(0, 1), (3, -1)], k),)
        assert early_backjump_scan(res.learned[0], s.trail) is None
        assert not res.early and res.scans == s.stats.scans
        # the 1UIP bound, the last decision negated, pushed right below it
        assert res.bound == up(0, x_lb - 1)
        assert res.pop_to == s.trail.decision_heights[1]
        assert any(s.trail.decision_level_of(h) == 1 for h in res.reason_set)

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
        assert s.propagator.constraints[conflict.cid] == c_a
        res = analyze_hybrid(conflict, s.trail, s.propagator.constraints, s.problem)
        # first cut succeeds (c_a x c_b on x2), the second one is refused,
        # so the learned constraint still mentions x0 with a huge weight
        assert res.learned == (C([(0, -(big - 1)), (1, big)], 1),)
        assert not res.early
        assert res.bound == up(1, 0)
        assert res.pop_to == s.trail.decision_heights[0]

    def test_contradicting_cut_refutes(self, monkeypatch):
        # the analysis cuts the first row with the third on x2: 0 <= -2
        p = Problem(3, [-3] * 3, [3] * 3,
                    [normalize([(0, 3), (1, 1), (2, -2)], -1),
                     normalize([(0, -3), (1, -1), (2, 3)], 1),
                     normalize([(0, -3), (1, -1), (2, 2)], -1)])
        cuts, cut = [], analysis.cut

        def recorded(c1, c2, var):
            cuts.append(cut(c1, c2, var))
            return cuts[-1]

        monkeypatch.setattr(analysis, "cut", recorded)
        assert Solver(p, SolverConfig(mode="cut")).solve().status == "infeasible"
        assert oracle_solve(p).status == "infeasible"
        assert any(c is not None and c.is_contradiction() for c in cuts)


class TestEarlyBackjumpScan:
    def test_unit_constraint_propagates_at_level_zero(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        assert early_backjump_scan(C([(1, -1)], -1), s.trail) == lo(1, 1)  # 1 <= y

    def test_unit_row_reads_the_box_below_the_first_decision(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        # y <= 0 holds already at level 1, but not over the level-0 box y in [-2, 1]
        assert s.trail.ub[1] == 0
        assert early_backjump_scan(C([(1, 1)], 0), s.trail) == up(1, 0)
        # rounding toward the box: 2x <= -1 is x <= -1, -2x <= 1 is 0 <= x
        assert early_backjump_scan(C([(0, 2)], -1), s.trail) == up(0, -1)
        assert early_backjump_scan(C([(0, -2)], 1), s.trail) == lo(0, 0)

    def test_no_hit_when_nothing_fresh(self):
        s = rounding_solver(mode="cut")
        rounding_conflict(s)
        assert early_backjump_scan(C([(0, 1), (1, 1)], 1), s.trail) is None

    def test_false_at_level_zero_signals_infeasible(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        with pytest.raises(AnalysisInfeasible):
            early_backjump_scan(C([(2, 1)], -5), s.trail)  # z <= -5 false at root

    def test_longer_row_gives_no_hit(self):
        s = core_solver(mode="cut")
        core_conflict(s)
        # x + y <= -2 propagates x <= 0 over the level-0 box x, y in [-2, 1],
        # and x + y <= -5 is false there, but neither is a unit row
        assert early_backjump_scan(C([(0, 1), (1, 1)], -2), s.trail) is None
        assert early_backjump_scan(C([(0, 1), (1, 1)], -5), s.trail) is None


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


def scan_outcome(cc, t):
    """The scan in reference_level's terms: a hit pops to the first decision
    and needs no reason bound."""
    try:
        hit = early_backjump_scan(cc, t)
    except AnalysisInfeasible:
        return "false"
    return hit if hit is None else (t.level_start(1), hit, ())


def expected_scan(cc, t):
    """The scan checks only a unit row over the level-0 prefix; with no
    decision it has none."""
    return reference_level(cc, t, 0) if t.num_decisions and len(cc.monomials) == 1 else None


def count_outcome(outcomes, got):
    outcomes[{None: "none", "false": "infeasible"}.get(got, "hit")] += 1


class TestScanAgainstReference:
    def test_matches_the_reference_on_random_rows(self):
        rng = random.Random(46)
        outcomes = {"hit": 0, "none": 0, "infeasible": 0}
        for _ in range(400):
            n = rng.randint(1, 5)
            lbs = [rng.randint(-6, 2) for _ in range(n)]
            ubs = [lb + rng.randint(0, 8) for lb in lbs]
            t = Trail(n, lbs, ubs)
            for _ in range(rng.randint(1, 10)):
                var = rng.randrange(n)
                lb, ub = t.lb[var], t.ub[var]
                if lb < ub:
                    info = (DECISION if rng.random() < 0.4
                            else ReasonInfo.propagated((), None))
                    t.push(lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
                           else up(var, rng.randint(lb, ub - 1)), info)
            terms = [(v, rng.choice([-7, -3, -2, -1, 1, 2, 3, 7]))
                     for v in rng.sample(range(n), rng.randint(1, n))]
            cc = C(terms, rng.randint(-20, 20))
            got = scan_outcome(cc, t)
            assert got == expected_scan(cc, t), (cc, t.dump_lines())
            count_outcome(outcomes, got)
        assert min(outcomes.values()) >= 20, outcomes

    def test_matches_the_reference_on_deep_trails(self):
        # 20-60 pushes over up to 8 variables: long chains of cc's
        # variables above level 0, which the scan must walk past, levels
        # that touch none of cc's variables, variables outside cc; about a
        # fifth of the rows are unit rows, the only ones that can hit
        rng = random.Random(48)
        outcomes = {"hit": 0, "none": 0, "infeasible": 0}
        for _ in range(900):
            n = rng.randint(2, 8)
            lbs = [rng.randint(-30, 0) for _ in range(n)]
            ubs = [lb + rng.randint(10, 40) for lb in lbs]
            t = Trail(n, lbs, ubs)
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
                lb, ub = t.lb[var], t.ub[var]
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
            got = scan_outcome(cc, t)
            assert got == expected_scan(cc, t), (cc, t.dump_lines())
            count_outcome(outcomes, got)
        assert min(outcomes.values()) >= 20, outcomes


def set_packing_problem(rng, n=24, rows=24):
    """At-most-one rows over 4 of n binaries, maximising random weights."""
    cs = [normalize([(v, 1) for v in rng.sample(range(n), 4)], 1) for _ in range(rows)]
    return Problem(n, [0] * n, [1] * n, cs, Objective({v: -rng.randint(1, 20) for v in range(n)}))


def coverage_draw():
    """More (name, problem, conflict cap) triples for the coverage floors
    below.  The snapshot corpus alone reaches few early backjumps, as only
    a learned unit row backjumps early; small problems over three integers
    give most of them."""
    rng = random.Random(7101)
    out = [(f"set-packing-{i}", set_packing_problem(rng), 100) for i in range(40)]
    out += [(f"integer-rows-{i}", integer_rows_problem(rng), 100) for i in range(120)]
    out += [(f"small-integer-{i}", small_integer_problem(rng, n=6, dom=5), 100)
            for i in range(800)]
    out += [(f"three-integer-{i}", small_integer_problem(rng, n=3, dom=10), 100)
            for i in range(1000)]
    return out


class EarlyBackjumpSolver(Solver):
    """Checks every early backjump of its search against reference_level
    on the trail it analysed, and counts them."""

    early_seen = 0

    def _analyze(self, conflict):
        result = super()._analyze(conflict)
        if result.early:
            assert result.pop_to == self.trail.level_start(1)
            reason = (result.learned[0] if result.learned
                      else self.propagator.constraints[result.attach_cid])
            assert len(reason.monomials) == 1
            assert (reference_level(reason, self.trail, 0)
                    == (result.pop_to, result.bound, result.reason_set))
            self.early_seen += 1
        return result


def test_every_early_backjump_in_cut_mode_solves_pushes_a_root_fact():
    # the snapshot corpus and the coverage draw under their conflict caps:
    # every early backjump pops all decisions and pushes what its row
    # propagates over level 0
    seen = 0
    for _, p, cap in corpus() + coverage_draw():
        s = EarlyBackjumpSolver(p, SolverConfig(mode="cut", max_conflicts=cap))
        s.solve()
        seen += s.early_seen
    assert seen >= 250, seen


def test_cut_mode_hits_come_only_from_unit_rows(monkeypatch):
    # the scan wrapped through the module, as bench/tracer.py wraps it: it
    # runs once per distinct conflicting unit row, on 0-1 and integer
    # problems alike, and only a one-variable row gives a hit; the small
    # integer draws are there to make unit rows, which the rows of four
    # integers do not under this cap
    calls, hits = [], []
    scan = analysis.early_backjump_scan

    def counted(cc, trail):
        calls.append(cc)
        hit = scan(cc, trail)
        if hit is not None:
            hits.append(cc)
        return hit

    monkeypatch.setattr(analysis, "early_backjump_scan", counted)
    rng = random.Random(7601)
    draws = {"0-1": [pairwise_php_problem(5, 4)] + [cover_packing_problem(rng) for _ in range(30)],
             "integer": [integer_rows_problem(rng) for _ in range(5)]
             + [small_integer_problem(rng) for _ in range(12)]}
    for kind, problems in draws.items():
        calls.clear()
        conflicts = scans = 0
        for p in problems:
            s = Solver(p, SolverConfig(mode="cut", max_conflicts=100))
            s.solve()
            conflicts += s.stats.conflicts
            scans += s.stats.scans
        assert conflicts >= 50, (kind, conflicts)
        assert scans == len(calls) and scans > 0, (kind, scans)
    assert all(len(cc.monomials) == 1 for cc in hits), hits


class FilingSolver(Solver):
    """Counts the rows it learns that the store already holds, and checks
    that each bound an analysis pushes names the row it learned, or else
    the filed row the analysis named; a resolution unit files no row and
    is pushed at level 0 with its reason set and no reason row."""

    learned_rows = refiled = named = units = 0

    def _learn(self, c, lits=None):
        self.learned_rows += 1
        self.refiled += any(c is row for row in self.propagator.constraints)
        return super()._learn(c, lits)

    def _apply_analysis(self, result):
        filed = len(self.propagator.constraints)
        super()._apply_analysis(result)
        info = self.trail.entries[-1].info
        reason = info.reason_constraint
        if self.config.mode == "resolution" and [len(c.monomials)
                                                 for c in result.learned] == [1]:
            assert reason is None and info.reason_set == result.reason_set
            assert len(self.propagator.constraints) == filed
            assert self.trail.num_decisions == 0
            self.units += 1
            return
        assert reason == (filed if result.learned else result.attach_cid)
        self.named += not result.learned and reason is not None
        if self.config.mode == "cut":
            assert reason is not None


@pytest.mark.parametrize("mode, min_learned, min_named", [("cut", 1000, 100),
                                                          ("resolution", 700, 0)])
def test_analysis_files_only_rows_it_derived(mode, min_learned, min_named):
    # the snapshot corpus and the coverage draw under their conflict caps: a
    # conflicting row that no cut replaced, such as the strengthening row, is
    # not filed a second time but named as the reason row
    learned = named = units = 0
    for _, p, cap in corpus() + coverage_draw():
        s = FilingSolver(p, SolverConfig(mode=mode, max_conflicts=cap))
        s.solve()
        assert s.refiled == 0, s.refiled
        learned += s.learned_rows
        named += s.named
        units += s.units
    assert learned >= min_learned and named >= min_named, (learned, named)
    assert mode == "cut" or units >= 200, units  # resolution units file no row


class WatchOrderSolver(Solver):
    """Checks each learned resolution clause of two or more literals, just
    after the backjump: its row is ``clause_to_constraint`` of the negated
    bounds, and it is filed with the codes the reference ``watch_order``
    derives from the trail, in MiniSat's order, or with none."""

    checked = 0

    def _apply_analysis(self, result):
        self.result = result
        super()._apply_analysis(result)

    def _learn(self, c, lits=None):
        cid = super()._learn(c, lits)
        if len(c.monomials) > 1:
            t, asserts = self.trail, self.result.bound
            above = [x for x in self.result.reason_set if x >= t.level_start(1)]
            bounds = [asserts, *(t.entries[x].bound.negated() for x in above)]
            assert c == clause_to_constraint(bounds, self.problem)
            want = watch_order(self.propagator, c, asserts)
            assert self.propagator.lits[cid] == want, (lits, want, bounds)
            self.checked += want is not None
        return cid


def test_learned_resolution_clauses_come_in_watch_order():
    # a clause filed in another order watches other literals, which moves
    # the search; every clause here is over binaries but for a few on the
    # integer rows of the corpus, which carry no codes
    rng = random.Random(7201)
    problems = [(p, cap) for _, p, cap in corpus()]
    problems += [(planted_3sat_problem(rng, n), 400) for n in (150, 175, 200, 225, 250)]
    checked = 0
    for p, cap in problems:
        s = WatchOrderSolver(p, SolverConfig(mode="resolution", max_conflicts=cap))
        s.solve()
        checked += s.checked
    assert checked >= 1200, checked


class CutClauseSolver(Solver):
    """Checks each learned cut row that is a clause over binaries asserting
    the bound pushed with it: it is filed general, in the occurs lists of
    its variables, and is that bound's reason row."""

    checked = 0

    def _apply_analysis(self, result):
        self.result, self.clause_cid = result, None
        super()._apply_analysis(result)
        if self.clause_cid is not None:
            top = self.trail.entries[-1]
            assert top.bound == result.bound and top.info.reason_constraint == self.clause_cid
            self.checked += 1

    def _learn(self, c, lits=None):
        cid = super()._learn(c, lits)
        pr = self.propagator
        if watch_order(pr, c, self.result.bound) is not None:
            assert pr.lits[cid] is None
            assert all((cid, 1) in pr.occs[2 * var + (coeff > 0)] for var, coeff in c.monomials)
            self.clause_cid = cid
        return cid


def test_learned_cut_clauses_are_filed_general():
    # config-space draws on which cut mode learns a binary clause (instance
    # 2) or a clause row (56, 65, 124 and 203), each asserting the bound
    # pushed with it: the general tier propagates it, and the answer holds
    problems = config_space_problems()
    checked = 0
    for i in (2, 56, 65, 124, 203):
        s = CutClauseSolver(problems[i], SolverConfig(mode="cut", strategy_order=(10, 4),
                                                      random_seed=i % 3, max_conflicts=300))
        out, want = s.solve(), oracle_solve(problems[i])
        assert (out.status, out.objective_value) == (want.status, want.objective_value)
        checked += s.checked
    assert checked >= 4, checked


def test_mixed_resolution_clause_is_filed_general():
    # binaries x0, z1, z2 and y in [0, 3]: deciding 1 <= x0, then y <= 1,
    # forces z1 and z2 and falsifies x0 + z1 + z2 <= 2, and resolution
    # learns x0 <= 0 or 2 <= y, that is 2*x0 - y <= 0, on a binary and an
    # integer: a clause with no literal codes, filed in the general tier
    rows = [normalize([(0, 1), (1, 1), (2, 1)], 2),
            normalize([(1, -2), (3, -1)], -2),  # y <= 1 forces z1
            normalize([(2, -2), (3, -1)], -2)]  # and z2
    p = Problem(4, [0, 0, 0, 0], [1, 1, 1, 3], rows,
                Objective({0: -2, 1: 1, 2: 1, 3: 1}))
    s = Solver(p, SolverConfig(mode="resolution"))
    pr = s.propagator
    assert pr.propagate_fixpoint() is None
    pr.push_bound(lo(0, 1), DECISION)
    assert pr.propagate_fixpoint() is None
    pr.push_bound(up(3, 1), DECISION)
    result = s._analyze(pr.propagate_fixpoint())
    assert result.learned == (C([(0, 2), (3, -1)], 0),) and result.lits is None
    filed = len(pr.constraints)
    s._apply_analysis(result)
    assert pr.lits[filed] is None and any(cid == filed for cid, _ in pr.occs[2 * 3])
    top = s.trail.entries[-1]
    assert top.bound == lo(3, 2) and top.info.reason_constraint == filed
    assert s.learned_activity == {filed: 0}
    out, want = s.solve(), oracle_solve(p)
    assert (out.status, out.objective_value) == (want.status, want.objective_value)


class AnalysisCountingSolver(Solver):
    analysed = 0

    def _analyze(self, conflict):
        self.analysed += 1
        return super()._analyze(conflict)


def test_resolution_mode_learns_on_almost_every_analysed_conflict():
    # on clause-only problems every 1UIP analysis learns a clause; a
    # resolution mode that never learns would still give right answers
    rng = random.Random(61)
    problems = ([pairwise_php_problem(5, 4), pairwise_php_problem(6, 5)]
                + [planted_3sat_problem(rng, n) for n in (60, 80, 100)])
    total = 0
    for p in problems:
        s = AnalysisCountingSolver(p, SolverConfig(mode="resolution", max_conflicts=300))
        s.solve()
        assert s.stats.learned >= 0.95 * s.analysed, (s.stats.learned, s.analysed)
        total += s.analysed
    assert total >= 250, total


def _stop_state(cs, trail):
    """(h_top, rest_top) when the rewriting must stop, else None.

    The per-step rule the walk replaced: stop when the topmost bound of
    the set is the only one within its own decision level (that level
    may lie below the trail's top level).  Raises AnalysisInfeasible
    when the whole set sits at level 0.
    """
    h_top = max(cs)
    level = trail.decision_level_of(h_top)
    if level == 0:
        raise AnalysisInfeasible
    start = trail.level_start(level)
    rest_top = max((h for h in cs if h != h_top), default=-1)
    if rest_top < start:
        return h_top, rest_top
    return None


def reference_resolution(cs, trail, problem):
    """Probe snapshots and (pop_to, bound, reason_set, learned) of
    resolution analysis with the stop test evaluated before every step."""
    cs = set(cs)
    snapshots = [frozenset(cs)]
    while (stop := _stop_state(cs, trail)) is None:
        h = max(cs)
        cs.discard(h)
        cs.update(trail.reason_heights(h))
        snapshots.append(frozenset(cs))
    h_top, rest_top = stop
    level = trail.decision_level_of(rest_top) if rest_top >= 0 else 0
    lits = [trail.entries[h].bound.negated() for h in sorted(cs)
            if h >= trail.level_start(1)]
    clause = clause_to_constraint(lits, problem)
    return snapshots, (trail.decision_heights[level],
                       trail.entries[h_top].bound.negated(),
                       tuple(sorted(cs - {h_top})),
                       (clause,) if clause is not None else ())


def random_reason_trail(rng):
    """Binaries and small integers; after the seeds, decisions and
    bounds whose explicit reason sets are drawn from lower heights."""
    n = rng.randint(2, 7)
    ubs = [rng.choice([1, 4, 8]) for _ in range(n)]
    problem = Problem(n, [0] * n, ubs)
    t = Trail(n, [0] * n, ubs)
    for _ in range(rng.randint(10, 40)):
        var = rng.randrange(n)
        lb, ub = t.lb[var], t.ub[var]
        if lb == ub:
            continue
        if rng.random() < 0.25:
            info = DECISION
        else:  # mostly recent heights, so that steps stay within a level
            below = range(len(t) - 6 if rng.random() < 0.8 else 0, len(t))
            reason = rng.sample(below, rng.randint(0, 3))
            info = ReasonInfo.propagated(sorted(reason), None)
        t.push(lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
               else up(var, rng.randint(lb, ub - 1)), info)
    return problem, t


class TestWalkAgainstReference:
    def test_matches_the_per_step_rule_on_random_trails(self):
        rng = random.Random(61)
        seen = {"infeasible": 0, "below_top": 0, "at_top": 0, "multi_step": 0}
        for _ in range(1000):
            problem, t = random_reason_trail(rng)
            level0_end = t.level_start(1) if t.num_decisions else len(t)
            if rng.random() < 0.1:  # a conflict wholly at level 0
                top = level0_end
            elif rng.random() < 0.5:  # its top may lie below the top level
                top = rng.randint(level0_end, len(t))
            else:
                top = len(t)
            near = range(max(0, top - 10), top - 1)
            cs = (top - 1, *rng.sample(near, min(len(near), rng.randint(0, 4))))
            conflict = Conflict(0, cs)
            got_snapshots = []
            try:
                want_snapshots, want = reference_resolution(cs, t, problem)
            except AnalysisInfeasible:
                with pytest.raises(AnalysisInfeasible):
                    analyze_resolution(conflict, t, None, problem,
                                       probe=got_snapshots.append)
                assert got_snapshots == [frozenset(cs)]
                seen["infeasible"] += 1
                continue
            res = analyze_resolution(conflict, t, None, problem,
                                     probe=got_snapshots.append)
            assert got_snapshots == want_snapshots, t.dump_lines()
            assert (res.pop_to, res.bound, res.reason_set, res.learned) == want
            below = t.decision_level_of(max(cs)) < t.num_decisions
            seen["below_top" if below else "at_top"] += 1
            seen["multi_step"] += len(want_snapshots) > 2
        assert min(seen.values()) >= 40, seen


class TwinSolver(Solver):
    """Cut-mode solver that also runs resolution analysis on every
    conflict state and records both results with their rewrite steps."""

    def _analyze(self, conflict):
        args = (conflict, self.trail, self.propagator.constraints, self.problem)
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
        cid = s.propagator.add_row(normalize([(0, 1), (3, 1)], 4))
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None  # 3 + 2 > 4
        assert {s.trail.entries[h].bound for h in conflict.cs} == {lo(0, 3), lo(3, 2)}
        res = analyze_hybrid(conflict, s.trail, s.propagator.constraints, s.problem)
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
        assert pre_entries[-1].info is DECISION
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
