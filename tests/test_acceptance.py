"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live).  Expected values are frozen from
worked examples or recomputed by the exhaustive oracle; tolerances are
exact since all arithmetic is integral."""

import random
import time

from intsat.analysis import analyze_hybrid, analyze_resolution, clause_to_constraint
from intsat.model import Objective, Problem, cut, normalize
from intsat.oracle import oracle_solve
from intsat.search import (CUT, INFEASIBLE, OPTIMAL, RESOLUTION, Solver,
                           SolverConfig)
from intsat.trail import DECISION
from conftest import (C, MeasureProbe, RecordingSolver, ValidityProbe,
                      box_points, lo, php_problem, random_problem,
                      refutation_violated, satisfies_bounds, up)
from lemma_suites import ALL_SUITES


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def core_constraints():
    return [
        normalize([(0, -1), (1, -1), (2, -1)], -2),
        normalize([(0, 1), (1, 1)], 1),
        normalize([(0, 1), (2, 1)], 1),
        normalize([(1, 1), (2, 1)], 1),
        normalize([(0, 1)], 1),
        normalize([(1, 1)], 1),
        normalize([(2, 1)], 3),
    ]


def core_problem():
    return Problem(3, [-10] * 3, [10] * 3, core_constraints(), None,
                   ["x", "y", "z"])


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    # (a) the eliminating cut, normalised
    got = cut(C([(0, 4), (1, 4), (2, 2)], 3), C([(0, -10), (1, 1), (2, -1)], 0), 0)
    ok_a = got == C([(1, 11), (2, 4)], 7)

    # (b) bound propagation with rounding: 1<=x, y<=2, x-2y+5z <= 5 give z<=1
    from intsat.propagation import propagate_constraint
    from intsat.trail import Trail
    t = Trail(3, [1, -9, -9], [9, 2, 9])
    bounds = propagate_constraint(C([(0, 1), (1, -2), (2, 5)], 5), t)
    ok_b = up(2, 1) in bounds

    # (c) the rounding-problem instance, both analysis engines
    def rounding_conflict(mode):
        cs = [normalize([(0, 1), (1, 1), (2, 2)], 2),
              normalize([(0, 1), (1, 1), (2, -2)], 0)]
        s = Solver(Problem(3, [-2, -2, -1], [2, 1, 1], cs), SolverConfig(mode=mode))
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(0, 0), DECISION)
        assert s.propagator.propagate_fixpoint() is None
        s.propagator.push_bound(lo(1, 1), DECISION)
        return s, s.propagator.propagate_fixpoint()

    s, conflict = rounding_conflict(RESOLUTION)
    res = analyze_resolution(conflict, s.trail, s.propagator.constraints, s.problem)
    ok_c = (res.bound == up(1, 0)
            and [s.trail.entries[h].bound for h in res.reason_set] == [lo(0, 0)]
            and res.learned == ())
    s, conflict = rounding_conflict(CUT)
    res = analyze_hybrid(conflict, s.trail, s.propagator.constraints, s.problem)
    ok_c = ok_c and res.learned == (C([(0, 1), (1, 1)], 1),)

    # (d) the full instance: infeasible in both modes; cut mode learns
    # 1 <= y through an early backjump
    ok_d = True
    for mode in (RESOLUTION, CUT):
        solver = Solver(core_problem(), SolverConfig(mode=mode))
        out = solver.solve()
        ok_d = ok_d and out.status == INFEASIBLE
        if mode == CUT:
            learned = solver.propagator.constraints[len(solver.problem.constraints):]
            ok_d = ok_d and C([(1, -1)], -1) in learned
            ok_d = ok_d and solver.stats.early_backjumps >= 1
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 1.0
    _report(1, ok, f"worked examples a={ok_a} b={ok_b} c={ok_c} d={ok_d} "
                   f"in {elapsed:.2f}s (< 1s)")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(52100)
    t0 = time.perf_counter()
    n_problems = 500
    mismatches = 0
    for _ in range(n_problems):
        p = random_problem(rng)
        ref = oracle_solve(p)
        for mode in (RESOLUTION, CUT):
            out = Solver(p, SolverConfig(mode=mode, max_conflicts=10 ** 5)).solve()
            same = out.status == ref.status
            if same and ref.status == OPTIMAL:
                same = out.objective_value == ref.objective_value
            if out.solution is not None:
                same = same and p.check_solution(out.solution.values)
            mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(2, ok, f"{n_problems} instances x 2 modes, {mismatches} mismatches, "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_lemma_suites():
    rng = random.Random(3333)
    t0 = time.perf_counter()
    cases_per_suite = 220
    failures = 0
    for name, case in ALL_SUITES:
        for _ in range(cases_per_suite):
            try:
                case(rng)
            except AssertionError:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(3, ok, f"6 suites x {cases_per_suite} cases, {failures} failures, "
                   f"{elapsed:.1f}s (< 30s)")


def _feasible_points(problem):
    return [pt for pt in box_points(problem.initial_lb, problem.initial_ub)
            if all(c.satisfied_by(pt) for c in problem.constraints)]


def _combinatorial_binary_problem(rng):
    """Cover/packing mixes over 6-8 binaries: small boxes, deep conflicts."""
    n = rng.randint(6, 8)
    constraints = []
    for _ in range(rng.randint(8, 14)):
        k = rng.randint(2, min(4, n))
        vs = rng.sample(range(n), k)
        kind = rng.random()
        if kind < 0.45:
            constraints.append(normalize([(v, -1) for v in vs], -1))  # cover
        elif kind < 0.8:
            constraints.append(normalize([(v, 1) for v in vs], rng.randint(1, 2)))
        else:
            terms = [(v, rng.choice([-2, -1, 1, 2])) for v in vs]
            constraints.append(normalize(terms, rng.randint(-1, 2)))
    obj = None
    if rng.random() < 0.5:
        obj = Objective({v: rng.randint(-3, 3) for v in range(n)})
    return Problem(n, [0] * n, [1] * n, constraints, obj)


def test_criterion_4_validity_suite():
    rng = random.Random(4444)
    violations = 0
    analyses = 0
    refutations = 0
    cs_steps = 0
    corpus = [random_problem(rng, max_vars=4, dom_lo=-3, dom_hi=3, max_cons=6,
                             max_coeff=3, max_points=800) for _ in range(100)]
    corpus += [_combinatorial_binary_problem(rng) for _ in range(60)]
    corpus.append(php_problem(4, 3))
    corpus.append(core_problem())
    for p in corpus:
        feasible_s0 = _feasible_points(p)
        for mode in (RESOLUTION, CUT):
            probe = ValidityProbe()
            s = RecordingSolver(p, SolverConfig(mode=mode, max_conflicts=10 ** 4),
                                instrumentation=probe)
            s.solve()
            for pre_entries, result, strengthening in probe.analyses:
                analyses += 1
                # S is the constraint set at analysis time: the original
                # constraints plus the active objective-strengthening row
                feasible = [pt for pt in feasible_s0
                            if strengthening is None or strengthening.satisfied_by(pt)]
                # the new trail is a strict prefix ending below a decision,
                # plus one bound that is fresh in that prefix
                if not (0 <= result.pop_to < len(pre_entries)
                        and pre_entries[result.pop_to].info is DECISION):
                    violations += 1
                lbs = list(p.initial_lb)
                ubs = list(p.initial_ub)
                for e in pre_entries[:result.pop_to]:
                    if e.bound.is_lower:
                        lbs[e.bound.var] = max(lbs[e.bound.var], e.bound.value)
                    else:
                        ubs[e.bound.var] = min(ubs[e.bound.var], e.bound.value)
                b = result.bound
                fresh = (lbs[b.var] < b.value <= ubs[b.var] if b.is_lower
                         else lbs[b.var] <= b.value < ubs[b.var])
                if not fresh:
                    violations += 1
                # reason heights lie strictly below the pushed bound
                if not all(h < result.pop_to for h in result.reason_set):
                    violations += 1
                # S + reason set entails the pushed bound (enumeration)
                reasons = [pre_entries[h].bound for h in result.reason_set]
                for pt in feasible:
                    if satisfies_bounds(pt, reasons) and not b.satisfied_by(pt[b.var]):
                        violations += 1
                        break
                # learned constraints are consequences of S
                for c in result.learned:
                    for pt in feasible:
                        if not c.satisfied_by(pt):
                            violations += 1
                            break
            # an analysis that refutes the problem claims S has no point
            for _pre_entries, strengthening in probe.refutations:
                analyses += 1
                refutations += 1
                if refutation_violated(feasible_s0, strengthening):
                    violations += 1
            # the conflicting set stays jointly infeasible with S at
            # every rewrite step
            for entries, cs, strengthening in probe.cs_snapshots:
                cs_steps += 1
                bounds = [entries[h] for h in cs]
                for pt in feasible_s0:
                    if strengthening is not None and not strengthening.satisfied_by(pt):
                        continue
                    if satisfies_bounds(pt, bounds):
                        violations += 1
                        break
    ok = violations == 0 and analyses > 100 and cs_steps > 100
    _report(4, ok, f"{analyses - refutations} completed + {refutations} refuting "
                   f"analyses, {cs_steps} set-rewrite steps, {violations} violations")


def test_criterion_5_termination_measure():
    rng = random.Random(5555)
    corpus = [random_problem(rng) for _ in range(150)]
    corpus.append(php_problem(5, 4))  # deep search: many conflicts and restarts
    corpus.append(core_problem())
    checks = 0
    violations = 0
    over_ceiling = 0
    for p in corpus:
        for mode in (RESOLUTION, CUT):
            probe = MeasureProbe()
            s = Solver(p, SolverConfig(mode=mode, max_conflicts=10 ** 5),
                       instrumentation=probe)
            out = s.solve()
            checks += probe.checks
            violations += probe.violations
            if not out.has_answer or s.stats.conflicts >= 10 ** 5:
                over_ceiling += 1
    ok = violations == 0 and over_ceiling == 0 and checks > 1000
    _report(5, ok, f"{checks} measure comparisons, {violations} violations, "
                   f"{over_ceiling} runs hit the conflict ceiling")


def test_criterion_6_clause_conversion():
    rng = random.Random(6666)
    cases = 0
    failures = 0
    while cases < 200:
        n_bin = rng.randint(0, 4)
        lits = []
        for v in range(n_bin):
            if rng.random() < 0.75:
                lits.append(lo(v, 1) if rng.random() < 0.5 else up(v, 0))
        g_lb = rng.randint(0, 3)
        g_ub = g_lb + rng.randint(1, min(7, 10 - g_lb))
        lbs = [0] * n_bin + [g_lb]
        ubs = [1] * n_bin + [g_ub]
        if rng.random() < 0.8 or not lits:
            if rng.random() < 0.5:
                lits.append(lo(n_bin, rng.randint(g_lb + 1, g_ub)))
            else:
                lits.append(up(n_bin, rng.randint(g_lb, g_ub - 1)))
        p = Problem(n_bin + 1, lbs, ubs)
        got = clause_to_constraint(lits, p)
        if got is None:
            continue
        cases += 1
        for pt in box_points(lbs, ubs):
            clause_true = any(l.satisfied_by(pt[l.var]) for l in lits)
            if clause_true != got.satisfied_by(pt):
                failures += 1
                break
    ok = failures == 0
    _report(6, ok, f"{cases} convertible clauses, {failures} disagreements "
                   f"with box enumeration")


def test_criterion_7_objective_strengthening():
    rng = random.Random(7777)
    runs = 0
    bad_monotone = 0
    bad_optimum = 0
    for _ in range(200):
        p = random_problem(rng, objective=True)
        ref = oracle_solve(p)
        for mode in (RESOLUTION, CUT):
            incumbents = []
            out = Solver(p, SolverConfig(mode=mode)).solve(
                on_incumbent=lambda t, v, c: incumbents.append(v))
            runs += 1
            if any(b >= a for a, b in zip(incumbents, incumbents[1:])):
                bad_monotone += 1
            if ref.status == OPTIMAL:
                if out.status != OPTIMAL or out.objective_value != ref.objective_value:
                    bad_optimum += 1
            elif out.status != ref.status:
                bad_optimum += 1
    ok = bad_monotone == 0 and bad_optimum == 0
    _report(7, ok, f"{runs} optimisation runs, {bad_monotone} non-monotone "
                   f"incumbent sequences, {bad_optimum} wrong optima")


def test_criterion_8_pigeonhole():
    p = php_problem(6, 5)
    t0 = time.perf_counter()
    s_cut = Solver(p, SolverConfig(mode=CUT, max_conflicts=10 ** 5))
    out_cut = s_cut.solve()
    cut_time = time.perf_counter() - t0
    s_res = Solver(php_problem(6, 5),
                   SolverConfig(mode=RESOLUTION, max_conflicts=10 ** 5))
    out_res = s_res.solve()
    ok = out_cut.status == INFEASIBLE and cut_time < 10.0
    _report(8, ok, f"PHP(6,5): cut mode infeasible in {cut_time:.2f}s with "
                   f"{s_cut.stats.conflicts} conflicts (< 10s); resolution mode: "
                   f"status={out_res.status} conflicts={s_res.stats.conflicts} "
                   f"(statistic only)")
