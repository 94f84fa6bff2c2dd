"""The intsat benchmark: seeded workloads, checked answers, calibrated times.

    python3 bench/run.py --workload packing-cut --seed 1 --seconds 30 --trace 0

Run from the repository root.  Instances are generated from the seed,
rendered in the input format and solved one at a time in a closed loop
through the public path ``parse`` -> ``Solver(problem, SolverConfig(...))``
-> ``Solver.solve``, each under a conflict cap.  Every answer is checked
against a reference that does not come from the solver.  Passes over the
instance set repeat while another one fits in ``--seconds``; time metrics
are the median over passes.  One pass takes about 15 to 20 s on a 2.1 GHz
Xeon, so at ``--seconds 30`` every time metric comes from a single pass.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer numbers instead; its first round always runs in full, and a
traced run takes 50 to 60 s in all, overrunning ``--seconds 30``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Instance failures and the raw figures are
printed above it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3  # set-up is short, so each instance is set up this often
SETUP_SPANS = ("io.parse_s", "search.construct_s")  # traced spans outside solve
SELF_TIME_SLACK = 0.01  # share of traced solve_s that spans may leave uncovered

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "decided_share": "ratio",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


class Pass:
    """Totals of one pass over the instance set."""

    def __init__(self):
        self.records = []
        self.wall_s = 0.0

    def total(self, key):
        return sum(r[key] for r in self.records)

    def signature(self):
        """What must repeat exactly across passes: verdicts and counts."""
        return [(r["status"], r["conflicts"], r["objective"]) for r in self.records]


def solve_pass(instances, texts, optima, mode, tracer=None) -> Pass:
    import intsat
    from checks import DECIDED, Answer, check
    from timing import calibrate, clock, scale_times, speed_factor
    from tracer import Probe

    result = Pass()
    start = clock()
    cal_before = calibrate()
    for inst, text, optimum in zip(instances, texts, optima):
        config = intsat.SolverConfig(mode=mode, max_conflicts=inst.max_conflicts)
        traced_before = dict(tracer.self_s) if tracer else None
        setups = []
        solve_raw = 0.0
        solver = None
        incumbents = []
        cal_mid = None
        try:
            for _ in range(1 if tracer else SETUP_REPEATS):
                t0 = clock()
                if tracer:
                    with tracer.span("io.parse"):
                        problem = intsat.parse(text)
                    with tracer.span("search.construct"):
                        solver = intsat.Solver(problem, config,
                                               instrumentation=Probe(tracer))
                else:
                    problem = intsat.parse(text)
                    solver = intsat.Solver(problem, config)
                setups.append(clock() - t0)
            cal_mid = calibrate()
            t0 = clock()
            try:
                if tracer:
                    with tracer.span("search.solve"):
                        outcome = solver.solve(
                            on_incumbent=lambda *a: incumbents.append(a))
                else:
                    outcome = solver.solve()
            finally:
                solve_raw = clock() - t0
            values = outcome.solution.values if outcome.solution is not None else None
            answer = Answer(outcome.status, values, outcome.objective_value)
        except Exception as exc:  # a crash is a failed answer, not a benchmark error
            answer = Answer("error", error=f"{type(exc).__name__}: {exc}")
        cal_after = calibrate()
        if cal_mid is None:  # set-up raised
            cal_mid = cal_after
        factor = speed_factor(cal_mid, cal_after)
        stats = solver.stats if solver is not None else None
        record = {
            "name": inst.name,
            "status": answer.status,
            "decided": answer.status in DECIDED,
            "failures": check(inst, answer, optimum),
            "objective": answer.objective,
            "conflicts": stats.conflicts if stats else 0,
            "decisions": stats.decisions if stats else 0,
            "restarts": stats.restarts if stats else 0,
            "incumbents": len(incumbents),
            "cal_before_s": cal_before,
            "cal_mid_s": cal_mid,
            "cal_after_s": cal_after,
            "raw_setup_s": statistics.median(setups) if setups else 0.0,
            "raw_solve_s": solve_raw,
        }
        for tier, n in (stats.propagations.items() if stats else ()):
            record[f"props_{tier}"] = n
        # set-up is bracketed by the first two calibrations, the solve by the last two
        setup_factor = speed_factor(cal_before, cal_mid)
        record.update(scale_times({"setup_s": record["raw_setup_s"]}, setup_factor))
        record.update(scale_times({"solve_s": solve_raw}, factor))
        if tracer:
            record["open_spans"] = len(tracer.stack)
            delta = {f"{k}_s": v - traced_before.get(k, 0.0)
                     for k, v in tracer.self_s.items()}
            setup = {k: v for k, v in delta.items() if k in SETUP_SPANS}
            record["layers"] = {
                **scale_times({k: v for k, v in delta.items() if k not in setup}, factor),
                **scale_times(setup, setup_factor)}
        result.records.append(record)
        cal_before = cal_after
    result.wall_s = clock() - start
    return result


def layer_metrics(untraced: list, traced: list, tracer) -> dict:
    """Per-layer figures; times are medians over the traced passes."""
    first = traced[0]
    layer_s = {}
    for name in ("io.parse", "search.solve", "search.decide", "search.strengthen",
                 "search.cleanup", "propagation.fixpoint", "propagation.push",
                 "propagation.pop", "propagation.clause", "propagation.binary",
                 "propagation.general_visit", "analysis.analyze", "analysis.scan",
                 "model.cut", "trail.chain_walk"):
        layer_s[name] = statistics.median(
            sum(r["layers"].get(f"{name}_s", 0.0) for r in p.records) for p in traced)
    passes = len(traced)
    calls = {k: v // passes for k, v in tracer.calls.items()}
    counts = {k: v // passes for k, v in tracer.counts.items()}
    untraced_solve = statistics.median(p.total("solve_s") for p in untraced)
    traced_solve = statistics.median(p.total("solve_s") for p in traced)
    conflicts = first.total("conflicts")
    props = {t: first.total(f"props_{t}") for t in ("binary", "clause", "general")}
    analyses = calls.get("analysis.analyze", 0)
    learned = counts.get("analysis.learned", 0)
    visits = calls.get("propagation.general_visit", 0)
    scans = calls.get("analysis.scan", 0)
    return {
        "io.parse_s": layer_s["io.parse"],
        "search.self_s": layer_s["search.solve"],
        "search.conflicts": conflicts,
        "search.decisions": first.total("decisions"),
        "search.restarts": first.total("restarts"),
        "search.conflicts_per_s": conflicts / untraced_solve,
        "search.decide_s": layer_s["search.decide"],
        "search.incumbents": first.total("incumbents"),
        "search.strengthen_s": layer_s["search.strengthen"],
        "search.cleanup_s": layer_s["search.cleanup"],
        "search.objective_sum": sum(r["objective"] or 0 for r in first.records),
        "propagation.fixpoint_self_s": layer_s["propagation.fixpoint"],
        "propagation.props_per_s": sum(props.values()) / untraced_solve,
        "propagation.props_binary": props["binary"],
        "propagation.props_clause": props["clause"],
        "propagation.props_general": props["general"],
        "propagation.pushes": calls.get("propagation.push", 0),
        "propagation.push_s": layer_s["propagation.push"],
        "propagation.pop_s": layer_s["propagation.pop"],
        "propagation.clause_s": layer_s["propagation.clause"],
        "propagation.binary_s": layer_s["propagation.binary"],
        "propagation.general_visits": visits,
        "propagation.general_visit_s": layer_s["propagation.general_visit"],
        "propagation.general_useful_ratio":
            counts.get("propagation.general_useful", 0) / visits if visits else 0.0,
        "analysis.analyze_self_s": layer_s["analysis.analyze"],
        "analysis.rewrite_steps": counts.get("analysis.cs_snapshots", 0) - analyses,
        "analysis.learned": learned,
        "analysis.learn_none": counts.get("analysis.learn_none", 0),
        "analysis.learned_len_mean":
            counts.get("analysis.learned_len_total", 0) / learned if learned else 0.0,
        "analysis.learned_max_coeff": tracer.maxima["analysis.learned_max_coeff"],
        "analysis.scan_s": layer_s["analysis.scan"],
        "analysis.scan_calls": scans,
        "analysis.scan_hit_ratio":
            counts.get("analysis.scan_hits", 0) / scans if scans else 0.0,
        "model.cut_s": layer_s["model.cut"],
        "model.cut_calls": calls.get("model.cut", 0),
        "model.cut_refusals": counts.get("model.cut_refusals", 0),
        "trail.chain_walk_s": layer_s["trail.chain_walk"],
        "trail.chain_walk_calls": calls.get("trail.chain_walk", 0),
        "trail.max_height": tracer.maxima["trail.max_height"],
        "trace.solve_s": traced_solve,
        "trace.overhead_s": traced_solve - untraced_solve,
    }


def self_time_failures(traced: list) -> list:
    """Check that the spans nest, so that self times split solve_s.

    Every span opened inside a solve closes inside it and nests in the
    ``search.solve`` span, so its self times are never negative and add up
    to just under the traced ``solve_s`` that the run's own clock measures
    around ``Solver.solve``.  A span left open, a negative self time, or a
    pass whose self times exceed its ``solve_s`` or cover less than
    ``1 - SELF_TIME_SLACK`` of it fails the run.
    """
    failures = []
    for i, p in enumerate(traced):
        in_solve = 0.0
        for r in p.records:
            if r["open_spans"]:
                failures.append(f"{r['name']}: {r['open_spans']} span(s) still open "
                                "after the solve")
            for k, v in r["layers"].items():
                if v < 0:
                    failures.append(f"{r['name']}: negative self time {v:.6g} s in {k}")
                elif k not in SETUP_SPANS:
                    in_solve += v
        solve = p.total("solve_s")
        if not solve * (1 - SELF_TIME_SLACK) <= in_solve <= solve * (1 + 1e-9):
            failures.append(f"traced pass {i}: layer self times {in_solve:.6f} s do not "
                            f"account for traced solve_s {solve:.6f} s")
    return failures


def report(workload, seed, passes, failures, metrics, units):
    first = passes[0]
    print(f"workload {workload} seed {seed}: {len(first.records)} instances, "
          f"{len(passes)} pass(es), src_lines {src_lines()}")
    for p in passes:
        cals = [r["cal_before_s"] for r in p.records]
        print(f"  pass: wall {p.wall_s:.3f} s, raw setup {p.total('raw_setup_s'):.4f} s,"
              f" raw solve {p.total('raw_solve_s'):.4f} s, calibration median "
              f"{statistics.median(cals) * 1e3:.4f} ms "
              f"(min {min(cals) * 1e3:.4f}, max {max(cals) * 1e3:.4f})")
    n = len(first.records)
    objective = [r["objective"] for r in first.records if r["objective"] is not None]
    print(f"  failed_share {sum(1 for r in first.records if r['failures']) / n:.4f} ratio")
    if objective:
        print(f"  objective_sum {sum(objective)} (over {len(objective)} instances)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for line in failures:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intsat" / "__init__.py").is_file():
        print(f"error: no intsat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from checks import reference_optimum
    from instances import WORKLOADS, build
    from timing import clock
    from tracer import Tracer, hooks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    mode = WORKLOADS[args.workload].mode
    instances = build(args.workload, args.seed)
    texts = [inst.render() for inst in instances]
    optima = [reference_optimum(inst) for inst in instances]

    start = clock()
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    while True:
        untraced.append(solve_pass(instances, texts, optima, mode))
        if tracer:
            with hooks(tracer):
                traced.append(solve_pass(instances, texts, optima, mode, tracer))
        round_s = untraced[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
        if clock() - start + round_s > args.seconds:
            break

    failures = [f"{r['name']}: {msg}" for p in untraced + traced
                for r in p.records for msg in r["failures"]]
    # tracing, like repeating a pass, must not change the search
    signature = untraced[0].signature()
    if any(p.signature() != signature for p in untraced[1:] + traced):
        failures.append("verdicts, conflicts or objectives differ between passes")
    OUT_DIR.mkdir(exist_ok=True)
    if tracer:
        failures += self_time_failures(traced)
        metrics = layer_metrics(untraced, traced, tracer)
        units = {name: layer_unit(name) for name in metrics}
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        first = untraced[0]
        metrics = {
            "setup_s": statistics.median(p.total("setup_s") for p in untraced),
            "solve_s": statistics.median(p.total("solve_s") for p in untraced),
            "decided_share": first.total("decided") / len(first.records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    with open(OUT_DIR / f"records-{args.workload}-{args.seed}-{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"untraced": [p.records for p in untraced],
                   "traced": [p.records for p in traced]}, f)
    report(args.workload, args.seed, untraced + traced, failures, metrics, units)
    attempted = sum(len(p.records) for p in untraced + traced)
    failed = sum(1 for p in untraced + traced for r in p.records if r["failures"])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
