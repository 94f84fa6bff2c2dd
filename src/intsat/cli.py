"""Command-line driver: parse an instance, solve it, report incumbents
as they are found, and optionally cross-check the result against the
exhaustive oracle.

Exit codes: 0 answered, 1 budget exhausted without a definitive answer,
2 input error, an I/O error in the solve (the trace file, printing an
incumbent) or --verify without numpy, 3 oracle disagreement under --verify.
The solver needs no numpy; --verify does, through the ``verify`` extra
(``pip install intsat[verify]``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import nullcontext

from .io import ParseError, format_objective_value, parse_file, write_problem, write_solution
from .model import Problem
from .oracle import SearchSpaceTooLarge, oracle_solve
from .search import (CUT, FEASIBLE, INFEASIBLE, OPTIMAL, RESOLUTION,
                     Solver, SolverConfig)

EXIT_ANSWERED = 0
EXIT_BUDGET = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _parse_restart(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "luby":
        return ("luby", int(rest))
    if kind == "inout":
        inner, outer, factor = rest.split(",")
        return ("inout", int(inner), int(outer), float(factor))
    raise ValueError(f"unknown restart policy {text!r} (use luby:<unit> "
                     f"or inout:<inner>,<outer>,<factor>)")


def build_config(args) -> SolverConfig:
    settings = {"time_limit": args.time_limit, "max_conflicts": args.max_conflicts}
    if args.restart is not None:
        settings["restart"] = _parse_restart(args.restart)
    if args.strategies is not None:
        settings["strategy_order"] = tuple(int(s) for s in args.strategies.split(","))
    if args.seed is not None:
        settings["random_seed"] = args.seed
    return SolverConfig(mode=args.mode, **settings)


def _statuses_disagree(outcome, reference) -> bool:
    if not outcome.has_answer or not reference.has_answer:
        return False  # inconclusive runs cannot be checked
    if outcome.status != reference.status:
        return True
    if outcome.status == OPTIMAL:
        return outcome.objective_value != reference.objective_value
    return False


def _minimize_disagreement(problem: Problem, config: SolverConfig) -> Problem:
    """Greedy constraint removal preserving the solver/oracle disagreement."""
    current = problem
    changed = True
    while changed:
        changed = False
        for i in range(len(current.constraints)):
            candidate = dataclasses.replace(
                current, constraints=current.constraints[:i] + current.constraints[i + 1:])
            try:
                outcome = Solver(candidate, _fresh_config(config)).solve()
                reference = oracle_solve(candidate)
            except SearchSpaceTooLarge:
                continue
            if _statuses_disagree(outcome, reference):
                current = candidate
                changed = True
                break
    return current


def _fresh_config(config: SolverConfig) -> SolverConfig:
    return dataclasses.replace(
        config, max_conflicts=min(config.max_conflicts or 10 ** 5, 10 ** 5))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intsat",
        description="Conflict-driven constraint-learning solver for bounded "
                    "integer linear programs.")
    parser.add_argument("input", help="instance file (see the io module docs)")
    parser.add_argument("--mode", choices=[RESOLUTION, CUT], default=CUT,
                        help="conflict analysis engine (default: cut)")
    parser.add_argument("--time-limit", type=float, default=None, metavar="SEC")
    parser.add_argument("--restart", default=None,
                        metavar="luby:<u>|inout:<i>,<o>,<f>")
    parser.add_argument("--strategies", default=None, metavar="LIST",
                        help="comma-separated value strategies, e.g. 7,5,1")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-conflicts", type=int, default=None, metavar="N")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check the answer with the exhaustive oracle")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a debug trace of the search to FILE")
    parser.add_argument("--stats", action="store_true")
    args = parser.parse_args(argv)

    try:
        problem = parse_file(args.input)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    obj = problem.objective

    def on_incumbent(elapsed, value, conflicts):
        shown = format_objective_value(value + obj.offset, obj.scale)
        print(f"t={elapsed:.3f} obj={shown}", flush=True)

    try:  # an OSError here comes from the trace file or from printing an incumbent
        with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as trace:
            solver = Solver(problem, config, trace=trace)
            outcome = solver.solve(on_incumbent if obj is not None else None)
            if trace is not None:
                print("final trail:", file=trace)
                for line in solver.trail.dump_lines(problem.var_names):
                    print(line, file=trace)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    sys.stdout.write(write_solution(outcome, problem))
    if args.stats:
        for key, value in solver.stats.as_dict().items():
            print(f"c {key}={value}")

    if args.verify:
        try:
            reference = oracle_solve(problem)
        except SearchSpaceTooLarge as exc:
            print(f"error: --verify impossible: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ImportError:  # the oracle's one import
            print("error: --verify needs numpy", file=sys.stderr)
            return EXIT_INPUT
        if _statuses_disagree(outcome, reference):
            print("verify: DISAGREEMENT with the exhaustive oracle", file=sys.stderr)
            print(f"verify: solver={outcome.status} value={outcome.objective_value} "
                  f"oracle={reference.status} value={reference.objective_value}",
                  file=sys.stderr)
            reduced = _minimize_disagreement(problem, config)
            print("verify: minimized disagreeing instance:", file=sys.stderr)
            sys.stderr.write(write_problem(reduced))
            return EXIT_VERIFY
        if outcome.has_answer:
            print("c verify=ok")

    if outcome.status in (OPTIMAL, INFEASIBLE, FEASIBLE):
        return EXIT_ANSWERED
    return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
