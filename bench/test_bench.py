"""Tests of the benchmark itself: generators, checker, calibration, tracer."""

import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pytest

import checks
import instances
import tracer as tracer_module
from checks import Answer, check, knapsack_optimum, max_weight_independent_set
from instances import WORKLOADS, build, integer_rows, knapsack, pigeonhole, \
    planted_3sat, set_packing
from timing import REF_CAL_S, scale_times, speed_factor
from run import Pass, self_time_failures, solve_pass
from tracer import Tracer, hooks


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_repeat_per_seed_and_differ_across_seeds(workload):
    first = [inst.render() for inst in build(workload, 7)]
    again = [inst.render() for inst in build(workload, 7)]
    other = [inst.render() for inst in build(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) == sum(f.count for f in WORKLOADS[workload].families)


def test_rendered_text_parses_to_the_generated_rows():
    from intsat import parse

    inst = integer_rows(random.Random(3), 6, 8, 100)
    problem = parse(inst.render())
    assert problem.num_vars == 6
    assert [(list(c.monomials), c.rhs) for c in problem.constraints] == \
        [([tuple(t) for t in sorted(terms)], rhs) for terms, rhs in inst.rows]
    assert problem.objective.coeffs == inst.objective


def _brute_force(inst):
    best = None
    for point in itertools.product(*(range(l, u + 1) for l, u in zip(inst.lb, inst.ub))):
        if not checks.model_errors(inst, list(point)):
            value = checks.objective_at(inst, point)
            if best is None or value < best[0]:
                best = (value, list(point))
    return best


@pytest.mark.parametrize("seed", range(4))
def test_references_match_brute_force(seed):
    rng = random.Random(seed)
    for inst in (knapsack(rng, 10, 100), set_packing(rng, 12, 10, 100)):
        assert checks.reference_optimum(inst) == _brute_force(inst)[0]


def test_knapsack_dynamic_program():
    assert knapsack_optimum([5, 4, 6, 3], [10, 40, 30, 50], 10) == 90


def test_independent_set_takes_isolated_vertices():
    rows = [(((0, 1), (1, 1), (2, 1), (3, 1)), 1)]
    assert max_weight_independent_set(6, rows, [1, 5, 2, 3, 4, 6]) == 15


def _optimal_answer(inst):
    value, point = _brute_force(inst)
    return Answer(checks.OPTIMAL, point, value)


def test_checker_accepts_correct_answers():
    inst = knapsack(random.Random(1), 10, 100)
    assert check(inst, _optimal_answer(inst), checks.reference_optimum(inst)) == []
    php = pigeonhole(random.Random(1), 3, 100)
    assert check(php, Answer(checks.UNSAT), None) == []
    sat = planted_3sat(random.Random(1), 20, 100)
    assert check(sat, Answer(checks.FEASIBLE, sat.planted), None) == []
    assert check(sat, Answer(checks.LIMIT), None) == []


def test_checker_fails_a_flipped_verdict():
    php = pigeonhole(random.Random(1), 3, 100)
    assert check(php, Answer(checks.FEASIBLE, [0] * len(php.lb)), None)
    sat = planted_3sat(random.Random(1), 20, 100)
    assert check(sat, Answer(checks.UNSAT), None)
    integer = integer_rows(random.Random(1), 5, 4, 100)
    assert check(integer, Answer(checks.UNSAT), None)


def test_checker_fails_an_invalid_model():
    inst = knapsack(random.Random(2), 10, 100)
    everything = [1] * len(inst.lb)
    answer = Answer(checks.BOUNDED, everything, checks.objective_at(inst, everything))
    assert any("violated" in f for f in check(inst, answer, None))
    point = [2] + [0] * (len(inst.lb) - 1)
    outside = Answer(checks.BOUNDED, point, checks.objective_at(inst, point))
    assert any("outside" in f for f in check(inst, outside, None))


def test_checker_fails_a_worse_objective_claimed_optimal(monkeypatch):
    inst = knapsack(random.Random(3), 10, 100)
    empty = [0] * len(inst.lb)
    answer = Answer(checks.OPTIMAL, empty, 0)
    assert any("reference optimum" in f
               for f in check(inst, answer, checks.reference_optimum(inst)))
    monkeypatch.setattr(instances, "DOMAIN", 2)  # small enough to enumerate
    integer = integer_rows(random.Random(3), 4, 3, 100)
    planted = checks.objective_at(integer, integer.planted)
    feasible = [list(p) for p in itertools.product(range(-2, 3), repeat=4)
                if not checks.model_errors(integer, list(p))]
    worst = max(feasible, key=lambda p: checks.objective_at(integer, p))
    value = checks.objective_at(integer, worst)
    assert value > planted
    failures = check(integer, Answer(checks.OPTIMAL, worst, value), None)
    assert any("planted point" in f for f in failures)
    lying = Answer(checks.OPTIMAL, integer.planted, planted - 1)
    assert any("claimed objective" in f for f in check(integer, lying, None))


def test_checker_fails_a_crash():
    inst = knapsack(random.Random(3), 10, 100)
    assert check(inst, Answer("error", error="AssertionError: bad model"), None)


def test_calibration_scales_only_time_metrics():
    metrics = {"solve_s": 2.0, "setup_s": 0.5, "conflicts": 40,
               "search.conflicts_per_s": 20.0, "decided_share": 0.9}
    scaled = scale_times(metrics, 0.5)
    assert scaled == {"solve_s": 1.0, "setup_s": 0.25, "conflicts": 40,
                      "search.conflicts_per_s": 20.0, "decided_share": 0.9}
    assert speed_factor(REF_CAL_S, REF_CAL_S) == 1.0
    assert speed_factor(2 * REF_CAL_S, 2 * REF_CAL_S) == 0.5  # slow machine


def test_self_times_add_up_to_the_root_span(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracer_module, "clock", lambda: next(ticks))
    monkeypatch.setattr(tracer_module, "KEEP_SPANS", 2)
    tracer = Tracer()
    tracer.enter("root")
    tracer.enter("child")
    tracer.exit()
    tracer.enter("child")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"root": 6.0, "child": 4.0}
    assert tracer.calls == {"root": 1, "child": 2}
    assert tracer.records == [["root", 0.0, 10.0, -1], ["child", 1.0, 3.0, 0]]
    assert tracer.dropped == 1


def test_hooks_are_removed_afterwards():
    from intsat import analysis, propagation

    before = (propagation.Propagator.push_bound, analysis.cut,
              propagation.find_conflict)
    with hooks(Tracer()):
        assert propagation.Propagator.push_bound is not before[0]
        assert analysis.cut is not before[1]
    assert (propagation.Propagator.push_bound, analysis.cut,
            propagation.find_conflict) == before


def _traced_pass(layers, open_spans=0, solve_s=2.0):
    result = Pass()
    result.records.append({"name": "inst#0", "solve_s": solve_s,
                           "open_spans": open_spans, "layers": layers})
    return result


def test_self_time_check_fails_spans_that_do_not_nest():
    good = {"io.parse_s": 0.3, "search.solve_s": 0.5, "propagation.fixpoint_s": 1.499}
    assert self_time_failures([_traced_pass(good)]) == []
    assert self_time_failures([_traced_pass(good, open_spans=1)])
    assert self_time_failures([_traced_pass({**good, "search.solve_s": -0.1})])
    assert self_time_failures([_traced_pass({**good, "propagation.fixpoint_s": 2.0})])
    assert self_time_failures([_traced_pass({**good, "propagation.fixpoint_s": 0.5})])


def test_traced_solves_pass_the_self_time_check():
    rng = random.Random(5)
    batch = [knapsack(rng, 12, 100), set_packing(rng, 12, 10, 100)]
    texts = [inst.render() for inst in batch]
    optima = [checks.reference_optimum(inst) for inst in batch]
    tracer = Tracer()
    with hooks(tracer):
        traced = solve_pass(batch, texts, optima, "cut", tracer)
    untraced = solve_pass(batch, texts, optima, "cut")
    assert [r["failures"] for r in traced.records] == [[], []]
    assert self_time_failures([traced]) == []
    assert traced.signature() == untraced.signature()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "packing-cut", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
