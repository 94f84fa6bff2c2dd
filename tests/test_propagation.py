import random
from bisect import bisect_left
from collections import Counter

import pytest

from intsat import propagation, search
from intsat.model import Bound, Objective, Problem, normalize
from intsat.propagation import (BINARY, CLAUSE, GENERAL, exact_filter, falsifying_heights,
                                find_conflict, propagate_constraint, slack_and_widest)
from intsat.search import Solver, SolverConfig, SolverStats
from intsat.trail import DECISION, ReasonInfo, Trail
from conftest import (C, cover_packing_problem, indexed_rows, live_rows, lo,
                      pairwise_php_problem, planted_3sat_problem, up, random_problem,
                      small_integer_problem, watch_order)
from lemma_suites import ALL_SUITES, pushed_with_reasons
from test_search import CLEANUPS
from test_search_snapshot import integer_rows_problem


def state(lbs, ubs, *bounds):
    t = Trail(len(lbs), list(lbs), list(ubs))
    for b in bounds:
        t.push(b, DECISION)
    return t


class TestMinContribution:
    """The row minimum behind slack_and_widest: slack = rhs - minimum."""

    def test_negative_coeff_uses_upper(self):
        assert slack_and_widest(C([(0, -2)], 0), state([-7], [2])) == (4, 18)

    def test_positive_coeff_uses_lower(self):
        assert slack_and_widest(C([(0, 3)], 3), state([1], [9])) == (0, 24)
        assert slack_and_widest(C([(0, 5)], 0), state([0], [7])) == (0, 35)
        assert slack_and_widest(C([(0, 3), (1, -2)], 10), state([1, -7], [9, 2])) == (11, 24)


class TestFindConflict:
    def test_core_conflict(self):
        t = state([-10, -10, -10], [1, 0, 0])
        c = C([(0, -1), (1, -1), (2, -1)], -2)
        conflict = find_conflict(c, t, cid=0)
        assert conflict is not None
        assert {t.entries[h].bound for h in conflict.cs} == {up(0, 1), up(1, 0), up(2, 0)}

    def test_no_conflict(self):
        t = state([0, 0], [1, 1])
        assert find_conflict(C([(0, 1), (1, 1)], 1), t) is None

    def test_lower_bound_violation(self):
        t = state([0], [5])
        assert find_conflict(C([(0, 1)], -1), t) is not None


class TestPropagateConstraint:
    def test_rounding_down(self):
        # 1 <= x and y <= 2 with x - 2y + 5z <= 5 give z <= 1
        t = state([1, -10, -10], [10, 2, 10])
        want = (up(2, 1), (t.pl[0], t.pu[1]))
        assert want in pushed_with_reasons(C([(0, 1), (1, -2), (2, 5)], 5), t)

    def test_half_rounds_to_zero(self):
        t = state([0, 1, -5], [5, 5, 5])
        assert up(2, 0) in propagate_constraint(C([(0, 1), (1, 1), (2, 2)], 2), t)

    def test_reason_is_strongest_other_bounds(self):
        t = state([-10, -10, -10], [1, 1, 10])
        got = pushed_with_reasons(C([(0, -1), (1, -1), (2, -1)], -2), t)
        by_var = {b.var: (b, reason) for b, reason in got}
        b, reason = by_var[2]
        assert b == lo(2, 0)
        assert {t.entries[h].bound for h in reason} == {up(0, 1), up(1, 1)}

    def test_ceiling_for_negative_coefficients(self):
        t = state([0, 0], [3, 3])
        want = (lo(1, 2), (t.pl[0],))  # ceil(3/2) = 2
        assert want in pushed_with_reasons(C([(0, 1), (1, -2)], -3), t)


class TestWouldPropagate:
    """A row that is not false propagates iff its exact filter is positive."""

    def test_exact_zero_slack(self):
        t = state([0, 0], [1, 1])
        assert exact_filter(C([(0, 1), (1, 1)], 1), t) == 0

    def test_becomes_true_after_push(self):
        t = state([0, 0], [1, 1], lo(0, 1))
        c = C([(0, 1), (1, 1)], 1)
        assert exact_filter(c, t) == 1
        assert propagate_constraint(c, t) == [up(1, 0)]

    def test_degenerate_is_false(self):
        t = state([0], [1])
        assert exact_filter(C([], 0), t) <= 0
        assert exact_filter(C([], -1), t) > 0  # a false empty row is visited


def reference_visit(c, t):
    """(conflict, propagations, filter) recomputed directly from the trail's bounds."""
    def side(v, a):
        return t.pl[v] if a > 0 else t.pu[v]

    bounds = {v: (t.lb[v], t.ub[v]) for v, _ in c.monomials}
    row_min = sum(a * (bounds[v][0] if a > 0 else bounds[v][1]) for v, a in c.monomials)
    conflict = tuple(side(v, a) for v, a in c.monomials) if row_min > c.rhs else None
    props = []
    for v, a in c.monomials:
        lb, ub = bounds[v]
        rest = c.rhs - (row_min - (a * lb if a > 0 else a * ub))
        b = up(v, rest // a) if a > 0 else lo(v, -((-rest) // a))
        if conflict is None and t.is_fresh(b):
            props.append((b, tuple(side(w, x) for w, x in c.monomials if w != v)))
    widest = max((abs(a) * (bounds[v][1] - bounds[v][0]) for v, a in c.monomials), default=0)
    return conflict, props, widest + row_min - c.rhs


class TestOnePassVisit:
    def test_matches_the_reference_on_random_rows(self):
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(1, 5)
            lbs = [rng.randint(-6, 2) for _ in range(n)]
            ubs = [lb + rng.randint(0, 8) for lb in lbs]
            t = state(lbs, ubs)
            for _ in range(rng.randint(0, 6)):
                var = rng.randrange(n)
                lb, ub = t.lb[var], t.ub[var]
                if lb < ub:
                    t.push(lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
                           else up(var, rng.randint(lb, ub - 1)), DECISION)
            terms = [(v, rng.choice([-7, -3, -2, -1, 1, 2, 3, 7]))
                     for v in rng.sample(range(n), rng.randint(0, n))]
            c = C(terms, rng.randint(-15, 15))
            conflict, props, filt = reference_visit(c, t)
            got = find_conflict(c, t, cid=3)
            assert (None if got is None else got.cs) == conflict
            assert exact_filter(c, t) == filt
            if conflict is None:
                assert pushed_with_reasons(c, t, cid=3) == props


def solvers_in_both_modes(seed, count):
    """Solvers over seeded random optimisation problems, cut and resolution."""
    rng = random.Random(seed)
    for i in range(count):
        p = random_problem(rng, objective=True) if i % 2 else small_integer_problem(rng)
        for mode in ("cut", "resolution"):
            yield Solver(p, SolverConfig(mode=mode, max_conflicts=200, random_seed=i))


class TestVisitsInSearch:
    def test_each_visit_matches_the_reference_and_leaves_the_exact_filter(self):
        seen = Counter()
        for s in solvers_in_both_modes(33, 80):
            pr = s.propagator
            visit = pr._visit_general

            def checked(cid, pr=pr, visit=visit, s=s):
                c, t = pr.constraints[cid], pr.trail
                conflict, props, _ = reference_visit(c, t)
                height = len(t)
                got = visit(cid)
                assert (None if got is None else got.cs) == conflict
                assert [(t.entries[h].bound, t.reason_heights(h))
                        for h in range(height, len(t))] == props
                if got is None:
                    assert pr.filters[cid] == exact_filter(c, t)
                    assert pr.widest[cid] == slack_and_widest(c, t)[1]
                    seen["propagating" if props else "idle"] += 1
                    if cid == s.strengthening_cid:
                        seen["strengthening"] += 1
                else:
                    seen["conflict"] += 1
                return got

            pr._visit_general = checked
            s.solve()
        assert min(seen[k] for k in ("propagating", "idle", "conflict", "strengthening")) >= 20

    def test_wrapped_calls_fire_and_every_visit_takes_one_pass(self, monkeypatch):
        # the benchmark's tracer counts a visit as useful when a wrapped
        # find_conflict or propagate_constraint call finds something.  A
        # visit reads its slack from the stored widest term and filter: one
        # with no conflict makes exactly one propagate_constraint pass, which
        # returns bounds iff the visit pushes, and no slack_and_widest call;
        # a conflicting visit makes no pass before find_conflict
        calls, seen, results = Counter(), Counter(), []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                results.append(out)
                return out
            return wrapped

        for name in ("find_conflict", "propagate_constraint", "slack_and_widest"):
            monkeypatch.setattr(propagation, name, counting(name, getattr(propagation, name)))
        visit = propagation.Propagator._visit_general

        def counted(self, cid):
            before, height = calls.copy(), len(self.trail)
            results.clear()
            got = visit(self, cid)
            made = calls - before  # the calls this visit made
            if got is None:
                assert made == {"propagate_constraint": 1}, made
                pushed = len(self.trail) > height
                assert bool(results[0]) == pushed
                seen["pushed" if pushed else "idle"] += 1
            else:
                assert made == {"find_conflict": 1}, made
                assert results[0] is got
                seen["conflict"] += 1
            return got

        monkeypatch.setattr(propagation.Propagator, "_visit_general", counted)
        for s in solvers_in_both_modes(34, 20):
            s.solve()
        assert min(seen[k] for k in ("conflict", "pushed", "idle")) >= 20, seen


class TestLazyReasons:
    def test_reason_heights_follow_the_row_rule_at_every_push_and_analysis(self):
        # a bound a row propagated has the row's conflict-set rule as its
        # reason, taken when it is pushed; reason_heights derives it later
        # from the trail, so it is checked again with the trail at its
        # fullest, when analysis reads reasons
        seen = Counter()
        rng = random.Random(36)
        covers = [Solver(cover_packing_problem(rng), SolverConfig(mode=mode, random_seed=i))
                  for i in range(50) for mode in ("cut", "resolution")]
        for s in [*solvers_in_both_modes(35, 80), *covers]:
            pr, t = s.propagator, s.trail
            push, analyze = pr.push_bound, s._analyze
            expected = {}  # height -> (entry, reason heights)

            def checked_push(b, info, tier=None, push=push, t=t, expected=expected):
                row = info.reason_row
                if row is not None:
                    want = tuple(h for (v, _), h in zip(row.monomials, falsifying_heights(row, t))
                                 if v != b.var)
                height = push(b, info, tier)
                if row is not None:
                    assert t.reason_heights(height) == want
                    expected[height] = (t.entries[height], want)
                    seen[tier] += 1
                return height

            def checked_analyze(conflict, analyze=analyze, t=t, expected=expected):
                for h, (entry, want) in expected.items():
                    if h < len(t) and t.entries[h] is entry:
                        assert t.reason_heights(h) == want
                        seen["rechecked"] += 1
                return analyze(conflict)

            pr.push_bound, s._analyze = checked_push, checked_analyze
            s.solve()
        tiers = (GENERAL, CLAUSE, BINARY)
        assert min(seen[k] for k in tiers) >= 50 and seen["rechecked"] >= 1000, seen


class TestSeeds:
    def test_seeds_carry_no_reason_row_and_the_store_holds_only_the_input(self):
        rng = random.Random(8)
        for _ in range(20):
            p = random_problem(rng, objective=True)
            s = Solver(p)
            n, t = p.num_vars, s.trail
            assert [e.bound for e in t.entries[:2 * n]] == [
                b for v in range(n) for b in (lo(v, p.initial_lb[v]), up(v, p.initial_ub[v]))]
            assert all(e.info.reason_constraint is None for e in t.entries[:2 * n])
            assert all(t.reason_heights(h) == () for h in range(2 * n))
            assert s.propagator.constraints == list(p.constraints)
            assert all(line.endswith(" reason={} constraint=none")
                       for line in t.dump_lines()[:2 * n])


class TestPropagatorLayout:
    def test_instance_attributes_stay_under_the_shared_key_cliff(self):
        # the cap keeps the Propagator's __dict__ in CPython 3.11's shared-key
        # layout; at 33 attributes it left it and every attribute access slowed
        rows = [normalize([(0, -1), (1, -1), (2, -1)], -1),  # a clause row
                normalize([(0, 1), (3, 1)], 1),  # a binary row
                normalize([(1, 1), (4, 2)], 7)]  # a general row
        p = Problem(5, [0] * 5, [1, 1, 1, 1, 5], rows, Objective({4: -1, 2: 1}))
        s = Solver(p)
        pr = s.propagator
        assert len(pr.lits[0]) == 3 and pr.watch[1] == pr.watch[3] == [0]
        assert len(pr.lits[1]) == 2 and pr.lits[2] is None
        assert s.solve().status == "optimal"
        assert len(vars(pr)) <= 29


def assert_exact_slack(pr, cid):
    """A general row's stored widest term minus its filter is its exact
    slack, and the widest term is at least the true one, so the filter is
    at least ``exact_filter``."""
    slack, widest = slack_and_widest(pr.constraints[cid], pr.trail)
    assert pr.widest[cid] - pr.filters[cid] == slack, cid
    assert pr.widest[cid] >= widest, cid


class TestFilters:
    def solver(self, constraints, lbs, ubs):
        return Solver(Problem(len(lbs), lbs, ubs, constraints))

    def test_push_delta_lower(self):
        # pushing 1 <= x over previous 0 <= x raises the filter by |1*(1-0)|
        s = self.solver([normalize([(0, 1), (1, 1)], 5)], [0, 0], [3, 3])
        cid = len(s.propagator.constraints) - 1
        before = s.propagator.filters[cid]
        s.propagator.push_bound(lo(0, 1), DECISION)
        assert s.propagator.filters[cid] == before + 1

    def test_push_delta_upper_with_negative_coeff(self):
        # x <= 2 over x <= 5 with coefficient -3 raises the filter by 9
        s = self.solver([normalize([(0, -3), (1, 1)], 5)], [0, 0], [5, 5])
        cid = len(s.propagator.constraints) - 1
        before = s.propagator.filters[cid]
        s.propagator.push_bound(up(0, 2), DECISION)
        assert s.propagator.filters[cid] == before + 9

    def test_pop_to_accepts_only_a_level_start(self):
        s = self.solver([normalize([(0, 2), (1, -1)], 4)], [0, 0], [5, 5])
        cid, pr, t = len(s.propagator.constraints) - 1, s.propagator, s.trail
        before = pr.filters[cid]
        start = pr.push_bound(lo(0, 3), DECISION)
        pr.push_bound(up(1, 4), DECISION)
        pr.push_bound(lo(1, 1), ReasonInfo.propagated((), None))
        for height in (-1, 0, start - 1, start + 2, len(t) + 1):
            with pytest.raises(ValueError):
                pr.pop_to(height)
        pr.pop_to(len(t))
        assert len(t) == start + 3
        pr.pop_to(start)
        assert len(t) == start and pr.filters[cid] == before

    def test_invariants_hold_after_every_push_visit_and_backjump(self, monkeypatch):
        # widest[cid] - filters[cid] is the row's exact slack and widest[cid]
        # at least its widest term, so filters[cid] >= exact_filter, checked
        # after every push, visit, filing, kill, backjump, restart and
        # cleanup; a live row is queued iff its filter is positive, never
        # twice; the row a visit reads is off the queue until the visit
        # ends, and a row that a visit found false stays off it until the
        # backjump.
        # There is one dict of saves per level, 0 included, no dict names a
        # literal row, and a visit above level 0 reads only a row saved in
        # the current level, as it saves nothing itself.  A backjump files
        # in the landing level only live rows it recomputed, and leaves
        # queued only rows it recomputed.
        # With a cleanup every two learned rows, rows die at cleanups and
        # strengthenings, and then no occurs list, watch list, edge, queue
        # entry or save names a row its owner no longer keeps (live_rows);
        # the kills purge saves of rows filed above level 0 and of filters
        seen = Counter()
        rng = random.Random(42)
        problems = ([random_problem(rng, objective=True) for _ in range(24)]
                    + [small_integer_problem(rng) for _ in range(12)]
                    + [cover_packing_problem(rng) for _ in range(12)]
                    + [integer_rows_problem(rng) for _ in range(6)])
        for i, p in enumerate(problems):
            for mode in ("cut", "resolution"):
                for threshold, cleanups in CLEANUPS:
                    monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", threshold)
                    s = Solver(p, SolverConfig(mode=mode, max_conflicts=60, random_seed=i,
                                               **cleanups))
                    self.check_invariants_during(s, seen)
        assert seen["backjump"] >= 200 and seen["unwound"] >= 20, seen
        assert seen["cleanup"] >= 20 and seen["strengthening"] >= 20, seen
        assert seen["saved"] >= 1_000_000 and seen["requeued"] >= 100, seen
        assert seen["purged filed"] >= 100 and seen["purged filter"] >= 60, seen
        assert seen["filed"] >= 250 and seen["killed"] >= 100 and seen["restart"] >= 150, seen

    @staticmethod
    def check_invariants_during(s, seen):
        pr, t = s.propagator, s.trail
        push, visit, pop_to, add_row, kill_rows = (
            pr.push_bound, pr._visit_general, pr.pop_to, pr.add_row, pr.kill_rows)
        cleanup, strengthen, restart = s._cleanup, s._install_strengthening, s._restart
        off_queue = set()
        registered = {}  # row registered above level 0 -> trail length then
        killed = set()  # a strengthening row is killed before its owner forgets it

        def check():
            queued = set(pr.queue)
            assert len(queued) == len(pr.queue)  # no row is queued twice
            assert all(pr.filters[cid] > 0 for cid in queued)
            live = live_rows(s) - killed
            for cid, c in enumerate(pr.constraints):
                if cid in live and pr.lits[cid] is None:  # a live general row
                    assert_exact_slack(pr, cid)
                    if pr.filters[cid] > 0 and cid not in off_queue:
                        assert cid in queued, cid
            assert len(pr.saves) == t.num_decisions + 1
            assert all(pr.lits[cid] is None for saved in pr.saves for cid in saved)
            seen["saved"] += sum(map(len, pr.saves[1:]))

        def checked_push(b, info, tier=None):
            height = push(b, info, tier)
            check()
            return height

        def checked_visit(cid):
            assert not t.num_decisions or cid in pr.saves[-1], cid
            off_queue.add(cid)
            conflict = visit(cid)
            if conflict is None:
                off_queue.discard(cid)
            check()
            seen["visit"] += 1
            return conflict

        def checked_pop_to(height):
            unwound = [cid for cid, at in registered.items() if at > height]
            landing = pr.saves[bisect_left(t.decision_heights, height)]
            before = set(landing)
            pop_to(height)
            off_queue.clear()
            check()
            recomputed = set(landing) - before
            live = live_rows(s)
            assert all(landing[cid] is None and cid in live for cid in recomputed)
            assert set(pr.queue) <= recomputed
            seen["requeued"] += len(pr.queue)
            seen["backjump"] += 1
            seen["unwound"] += bool(unwound)
            for cid in unwound:  # saved again for the resumed level, if above 0 and live
                if t.num_decisions and cid in live:
                    registered[cid] = height
                else:
                    del registered[cid]

        def checked_add_row(c, lits=None):
            cid = add_row(c, lits)
            if pr.lits[cid] is None:
                assert_exact_slack(pr, cid)
                if t.num_decisions:
                    registered[cid] = len(t)
            check()
            seen["filed"] += 1
            return cid

        def checked_kill_rows(dead):
            for saved in pr.saves:
                for cid in dead & saved.keys():
                    seen["purged filed" if saved[cid] is None else "purged filter"] += 1
            kill_rows(dead)
            killed.update(dead)
            check()
            seen["killed"] += len(dead)

        def checked_restart():
            restart()
            check()
            seen["restart"] += 1

        def check_deaths(event):
            check()
            named = indexed_rows(pr) | set(pr.queue)
            named.update(cid for saved in pr.saves for cid in saved)
            dead = named - live_rows(s)
            assert not dead, (event, dead)
            seen[event] += 1

        def checked_cleanup():
            cleanup()
            check_deaths("cleanup")

        def checked_strengthen(value):
            installed = strengthen(value)
            check_deaths("strengthening")
            return installed

        pr.push_bound, pr._visit_general = checked_push, checked_visit
        pr.pop_to, pr.add_row = checked_pop_to, checked_add_row
        pr.kill_rows = checked_kill_rows
        s._cleanup, s._install_strengthening = checked_cleanup, checked_strengthen
        s._restart = checked_restart
        s.solve()

    def test_filter_upper_bounds_exact_value(self):
        # a problem whose level-0 fixpoint conflicts takes no decision, as
        # in the search: a decision is pushed only at a fixpoint
        rng = random.Random(77)
        checked = 0
        for _ in range(30):
            p = random_problem(rng, objective=False)
            s = Solver(p)
            if s.propagator.propagate_fixpoint() is not None:
                continue
            checked += 1
            for _ in range(10):
                undefined = [v for v in range(p.num_vars)
                             if s.trail.lb[v] != s.trail.ub[v]]
                if not undefined:
                    break
                var = rng.choice(undefined)
                lb, ub = s.trail.lb[var], s.trail.ub[var]
                s.propagator.push_bound(lo(var, rng.randint(lb + 1, ub)), DECISION)
                if s.propagator.propagate_fixpoint() is not None:
                    break
                pr, live = s.propagator, live_rows(s)
                for cid, c in enumerate(pr.constraints):
                    if cid not in live or pr.lits[cid] is not None:
                        continue
                    assert s.propagator.filters[cid] >= exact_filter(c, s.trail)
                    if propagate_constraint(c, s.trail):
                        assert s.propagator.filters[cid] > 0
        assert checked >= 10

    def test_backjumps_match_a_replayed_trail(self):
        # decisions at fixpoints, bounds pushed with no row after them and
        # general rows filed mid-level, then backjumps to random level
        # starts: after each one the trail equals a fresh trail replaying
        # the surviving entries, every general row's widest term minus its
        # filter is its exact slack, its widest term is at least the true
        # one, it is queued iff its filter is positive, and pop_one ran once
        # per undone level
        rng = random.Random(2702)
        seen = Counter()
        for _ in range(120):
            p = random_problem(rng, max_vars=10, dom_lo=-8, dom_hi=8, objective=False,
                               max_points=10 ** 12)
            s = Solver(p)
            pr, t, n = s.propagator, s.trail, p.num_vars
            entered, pop_one = [], pr.pop_one

            def counted_pop_one():
                entered.append(t.num_decisions)
                return pop_one()

            def push_somewhere(info):
                undefined = [v for v in range(n) if t.lb[v] != t.ub[v]]
                if undefined:
                    var = rng.choice(undefined)
                    lb, ub = t.lb[var], t.ub[var]
                    pr.push_bound(lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
                                  else up(var, rng.randint(lb, ub - 1)), info)
                return bool(undefined)

            pr.pop_one = counted_pop_one
            for _ in range(40):
                conflict = pr.propagate_fixpoint()
                if conflict is not None or (t.num_decisions and rng.random() < 0.3):
                    if not t.num_decisions:
                        break
                    level, top = rng.randint(1, t.num_decisions), t.num_decisions
                    seen["filed above"] += sum(old is None for saved in pr.saves[level:]
                                               for old in saved.values())
                    entered.clear()
                    pr.pop_to(t.level_start(level))
                    assert entered == list(range(top, level - 1, -1))
                    self.check_backjump(p, pr)
                    seen["backjump"] += 1
                    seen["levels"] += top - level + 1
                    seen["multi-level"] += top > level
                    continue
                if not push_somewhere(DECISION):
                    break
                for _ in range(rng.randint(0, 2)):
                    push_somewhere(ReasonInfo.propagated((), None))
                if rng.random() < 0.3:
                    terms = [(v, rng.choice([-3, -1, 1, 2]))
                             for v in rng.sample(range(n), 1 + n // 2)]
                    pr.add_row(normalize(terms, rng.randint(-4, 6)))
        assert seen["backjump"] >= 300 and seen["multi-level"] >= 80, seen
        assert seen["filed above"] >= 150, seen

    @staticmethod
    def check_backjump(p, pr):
        t, n = pr.trail, p.num_vars
        replay = Trail(n, p.initial_lb, p.initial_ub)
        for entry in t.entries[2 * n:]:
            replay.push(entry.bound, entry.info)
        assert replay.entries == t.entries
        assert (replay.lb, replay.ub, replay.pl, replay.pu) == (t.lb, t.ub, t.pl, t.pu)
        assert replay.decision_heights == t.decision_heights
        assert len(pr.saves) == t.num_decisions + 1
        queued = set(pr.queue)
        assert len(queued) == len(pr.queue)
        for cid in range(len(pr.constraints)):
            if pr.lits[cid] is None:
                assert_exact_slack(pr, cid)
                assert (pr.filters[cid] > 0) == (cid in queued), cid


class TestClauseTiers:
    @staticmethod
    def propagator(p):
        return propagation.Propagator(p, Trail(p.num_vars, p.initial_lb, p.initial_ub),
                                      SolverStats())

    @staticmethod
    def occurring(pr):
        return {cid for occs in pr.occs for cid, _ in occs}

    def test_classification(self):
        # the constructor files every clause-shaped input row in a literal
        # tier; a later row joins one only with the codes its filer passes,
        # here those the reference watch_order gives for a clause that
        # asserts the bound pushed next with it: that literal, then the
        # false literal of greatest height; a row filed with no codes is
        # general
        cover3 = normalize([(0, -1), (1, -1), (2, -1)], -1)  # x0+x1+x2 >= 1
        rows = [cover3,
                normalize([(0, -1), (1, -1)], -1),  # x0+x1 >= 1
                normalize([(0, -1), (3, -1)], -1),  # x3 not binary
                normalize([(0, -2), (1, -1)], -1),  # gcd 1, not +-1
                normalize([(2, -1)], -1)]  # one literal: 1 <= x2
        p = Problem(4, [0, 0, 0, -1], [1, 1, 1, 1], rows)
        pr = self.propagator(p)
        assert pr.constraints == rows and pr.lits[:2] == [[1, 3, 5], [1, 3]]
        assert pr.watch[1] == pr.watch[3] == [0]  # the clause row watches lits[0] and lits[1]
        assert pr.bin_adj[1] == [(3, 1)] and pr.bin_adj[3] == [(1, 1)]
        assert self.occurring(pr) == {2, 3, 4} and pr.lits[2:] == [None] * 3
        learned = pr.add_row(cover3)
        strengthening = pr.add_row(normalize([(0, 1), (1, 1)], 1))
        assert pr.lits[learned] is pr.lits[strengthening] is None
        assert self.occurring(pr) == {2, 3, 4, learned, strengthening}
        assert sum(map(len, pr.watch)) == 2 and sum(map(len, pr.bin_adj)) == 2
        pr.push_bound(up(1, 0), DECISION)  # falsifies code 3
        assert watch_order(pr, cover3, lo(2, 1)) is None  # code 1 is open
        pr.push_bound(up(0, 0), DECISION)  # falsifies code 1, above code 3
        assert watch_order(pr, cover3, up(2, 0)) is None  # 2*2 is not in the row
        assert watch_order(pr, rows[3], lo(0, 1)) is None  # not a clause
        assert watch_order(pr, cover3, lo(2, 1)) == [5, 1, 3]  # asserted, then the latest false
        clause = pr.add_row(cover3, [5, 1, 3])
        assert pr.lits[clause] == [5, 1, 3]
        assert pr.watch[5] == [clause] and pr.watch[1] == [0, clause]
        pair = normalize([(1, -1), (2, -1)], -1)
        assert watch_order(pr, pair, lo(2, 1)) == [5, 3]
        binary = pr.add_row(pair, [5, 3])
        assert pr.lits[binary] == [5, 3]
        assert pr.bin_adj[5] == [(3, binary)] and pr.bin_adj[3] == [(1, 1), (5, binary)]
        assert not any(cid in saved for saved in pr.saves for cid in (clause, binary))
        assert clause not in self.occurring(pr) and binary not in self.occurring(pr)

    def test_killed_learned_literal_rows_leave_their_tier(self):
        # x0+x1+x2+x3 >= 1 and x4+x5 >= 1, learned as clauses asserting
        # 1 <= x3 and 1 <= x5, the first literal rows filed, then killed at
        # level 0: no watch or edge names them, and decisions that falsify
        # all their other literals propagate nothing
        pr = self.propagator(Problem(6, [0] * 6, [1] * 6, []))
        for var in (0, 1, 2, 4):
            pr.push_bound(up(var, 0), DECISION)
        rows = normalize([(v, -1) for v in range(4)], -1), normalize([(4, -1), (5, -1)], -1)
        clause, binary = (pr.add_row(c, lits) for c, lits in zip(rows, ([7, 5, 1, 3], [11, 9])))
        assert pr.lits[clause] == [7, 5, 1, 3] and pr.lits[binary] == [11, 9]
        pr.pop_to(pr.trail.level_start(1))
        pr.kill_rows({clause, binary})
        assert not any(cid in (clause, binary) for cids in pr.watch for cid in cids)
        assert not any(cid in (clause, binary) for edges in pr.bin_adj for _, cid in edges)
        for var in (0, 1, 2, 4):
            pr.push_bound(up(var, 0), DECISION)
            assert pr.propagate_fixpoint() is None
        assert pr.trail.lb[3] == pr.trail.lb[5] == 0
        assert all(e.info.reason_constraint is None for e in pr.trail.entries)

    def test_no_literal_row_builds_no_literal_table(self):
        p = Problem(3, [0, 0, -1], [1, 1, 1], [normalize([(0, -1), (2, -1)], -1),
                                               normalize([(1, -1)], -1)])
        pr = self.propagator(p)
        pr.add_row(normalize([(0, -1), (1, -1)], -1))
        assert pr.watch == pr.bin_adj == pr.lit_bounds == []
        assert pr.propagate_fixpoint() is None and pr.trail.lb[1] == 1

    def test_clause_unit_propagation_and_conflict(self):
        # (x0 or x1 or x2) as -x0-x1-x2 <= -1
        p = Problem(3, [0] * 3, [1] * 3, [normalize([(0, -1), (1, -1), (2, -1)], -1)])
        s = Solver(p)
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(up(0, 0), DECISION)
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(up(1, 0), DECISION)
        assert s.propagator.propagate_fixpoint() is None
        assert (s.trail.lb[2], s.trail.ub[2]) == (1, 1)  # unit-propagated x2
        reason = s.trail.reason_heights(s.trail.pl[2])
        assert {s.trail.entries[h].bound for h in reason} == \
            {up(0, 0), up(1, 0)}

    def test_clause_conflict_detected(self):
        p = Problem(2, [0, 0], [1, 1],
                    [normalize([(0, -1), (1, -1)], -1),   # x0 or x1
                     normalize([(0, 1)], 0),              # not x0
                     normalize([(1, 1)], 0)])             # not x1
        s = Solver(p)
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None

    def test_binary_graph_propagation(self):
        # x0 -> x1 as a binary clause (not x0 or x1): x0 - x1... in <= form
        p = Problem(2, [0, 0], [1, 1], [normalize([(0, 1), (1, -1)], 0)])
        s = Solver(p)
        assert s.propagator.lits[0] == [0, 3]  # "x0 <= 0" or "1 <= x1"
        assert s.propagator.bin_adj[0] == [(3, 0)] and s.propagator.bin_adj[3] == [(0, 0)]
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(0, 1), DECISION)
        assert s.propagator.propagate_fixpoint() is None
        assert (s.trail.lb[1], s.trail.ub[1]) == (1, 1)

    def test_every_fixpoint_leaves_literal_rows_quiet_and_watched(self, monkeypatch):
        # after every fixpoint without a conflict, no live clause or binary
        # row is false or propagates, each live clause row sits in exactly
        # the watch lists of lits[0] and lits[1], each live binary row is
        # exactly the edges from each of its literals to the other, its
        # literals stay a permutation of the filed ones, a false watch has
        # a true partner, as the decisions come at fixpoints and backjumps
        # land on level starts, and no dead row is watched or an edge;
        # learned rows too, filed later, and through the restarts and
        # cleanups of a cleanup every two learned rows.  Only live pair
        # rows count as edges: in cut mode, a pair row a clique replaced
        # is dead before the first fixpoint
        seen = Counter()
        rng = random.Random(55)
        problems = ([pairwise_php_problem(5, 4), pairwise_php_problem(6, 5)]
                    + [planted_3sat_problem(rng, n) for n in (40, 50, 60, 70)]
                    + [cover_packing_problem(rng) for _ in range(8)]
                    # cut mode refutes pairwise PHP at once: more resolution runs
                    + [pairwise_php_problem(7, 6)])
        for i, p in enumerate(problems):
            for mode in ("cut", "resolution"):
                for threshold, cleanups in CLEANUPS:
                    monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", threshold)
                    s = Solver(p, SolverConfig(mode=mode, max_conflicts=100, random_seed=i,
                                               **cleanups))
                    self.check_literal_rows_during(s, seen)
        assert seen["fixpoint after a backjump"] >= 300 and seen["watch move"] >= 3000, seen
        assert seen["false watch"] >= 5000, seen
        assert seen["cleanup"] >= 100, seen
        assert seen["learned clause"] >= 150 and seen["learned binary"] >= 3, seen
        assert seen["killed learned"] >= 80, seen

    @staticmethod
    def check_literal_rows_during(s, seen):
        pr, t = s.propagator, s.trail
        fixpoint, pop_to = pr.propagate_fixpoint, pr.pop_to
        inputs = len(pr.constraints)
        literal = []  # every literal row, in cid order
        filed, last = {}, {}  # clause row -> its sorted literals, its last watches
        backjumped = False

        def track_new_rows():
            known = literal[-1] + 1 if literal else 0
            for cid in range(known, len(pr.lits)):
                lits = pr.lits[cid]
                if lits is None:
                    continue
                literal.append(cid)
                if len(lits) > 2:
                    filed[cid], last[cid] = sorted(lits), lits[:2]
                if cid >= inputs:
                    seen["learned clause" if len(lits) > 2 else "learned binary"] += 1

        def status(lit):
            var, true_side = lit >> 1, lit & 1
            if t.lb[var] == t.ub[var]:
                return "true" if t.lb[var] == true_side else "false"
            return "open"

        def checked_pop_to(height):
            nonlocal backjumped
            pop_to(height)
            backjumped = True

        def checked_fixpoint(deadline=None):
            nonlocal backjumped
            conflict = fixpoint(deadline)
            if conflict is not None:
                return conflict
            track_new_rows()
            kept = live_rows(s)
            live = [cid for cid in literal if cid in kept]
            for cid in live:
                c = pr.constraints[cid]
                assert find_conflict(c, t) is None and propagate_constraint(c, t) == [], cid
            where = Counter((code, cid) for code, cids in enumerate(pr.watch) for cid in cids)
            edges = Counter((code, other, cid) for code, adj in enumerate(pr.bin_adj)
                            for other, cid in adj)
            clauses = [cid for cid in live if cid in filed]
            assert sum(where.values()) == 2 * len(clauses)
            assert sum(edges.values()) == 2 * (len(live) - len(clauses))
            for cid in live:
                if cid not in filed:  # a binary row
                    a, b = pr.lits[cid]
                    assert edges[a, b, cid] == edges[b, a, cid] == 1, cid
            for cid in clauses:
                lits = pr.lits[cid]
                assert sorted(lits) == filed[cid], cid
                assert where[lits[0], cid] == where[lits[1], cid] == 1, cid
                watches = sorted((status(lits[0]), status(lits[1])))
                if watches[0] == "false":
                    assert watches[1] == "true", cid
                    seen["false watch"] += 1
                seen["watch move"] += len(set(lits[:2]) - set(last[cid]))
                last[cid] = lits[:2]
            seen["fixpoint after a backjump"] += backjumped
            backjumped = False
            return None

        pr.propagate_fixpoint, pr.pop_to = checked_fixpoint, checked_pop_to
        track_new_rows()
        s.solve()
        seen["cleanup"] += s.stats.cleanups
        live = live_rows(s)
        seen["killed learned"] += sum(cid not in live for cid in literal)


class TestFixpoint:
    def core_solver(self):
        cs = [
            normalize([(0, -1), (1, -1), (2, -1)], -2),
            normalize([(0, 1), (1, 1)], 1),
            normalize([(0, 1), (2, 1)], 1),
            normalize([(1, 1), (2, 1)], 1),
            normalize([(0, 1)], 1),
            normalize([(1, 1)], 1),
            normalize([(2, 1)], 3),
        ]
        return Solver(Problem(3, [-10] * 3, [10] * 3, cs, None, ["x", "y", "z"]))

    def test_root_propagation_matches_worked_example(self):
        s = self.core_solver()
        assert s.propagator.propagate_fixpoint() is None
        assert (s.trail.lb[0], s.trail.ub[0]) == (-2, 1)
        assert (s.trail.lb[1], s.trail.ub[1]) == (-2, 1)
        assert (s.trail.lb[2], s.trail.ub[2]) == (0, 3)
        c0_cid = 0  # the first input row
        lows = {e.bound: e.info.reason_constraint for e in s.trail.entries
                if e.bound.is_lower and e.info.reason_constraint is not None}
        assert lows[lo(0, -2)] == c0_cid
        assert lows[lo(1, -2)] == c0_cid
        assert lows[lo(2, 0)] == c0_cid

    def test_decision_triggers_conflict_on_core(self):
        s = self.core_solver()
        s.propagator.propagate_fixpoint()
        s.propagator.push_bound(lo(0, 1), DECISION)
        conflict = s.propagator.propagate_fixpoint()
        assert conflict is not None
        assert s.propagator.constraints[conflict.cid] == C([(0, -1), (1, -1), (2, -1)], -2)
        assert {s.trail.entries[h].bound for h in conflict.cs} == \
            {up(0, 1), up(1, 0), up(2, 0)}

    def test_empty_problem(self):
        s = Solver(Problem(1, [0], [1]))
        assert s.propagator.propagate_fixpoint() is None

    def test_fixpoint_completeness(self, rng):
        for _ in range(60):
            p = random_problem(rng, objective=False)
            s = Solver(p)
            if s.propagator.propagate_fixpoint() is None:
                for c in s.propagator.constraints:  # no row has died yet
                    assert find_conflict(c, s.trail) is None
                    assert propagate_constraint(c, s.trail) == []


class TestLemmaSuites:
    def test_all_suites_small(self):
        rng = random.Random(5150)
        for name, case in ALL_SUITES:
            for _ in range(60):
                case(rng)
