"""Interleaved CPU-time comparison of this checkout's solver with another's.

    python tests/ab_time.py --against DIR --workload packing-cut --seed 1 \\
        [--first N] [--rounds R] [--identical]

Loads ``src/intsat`` of this checkout and of ``DIR`` (another checkout,
such as the parent commit's from ``git archive HEAD | tar -x -C DIR``) as
two separate packages in one process.  It builds the workload's instances
with this checkout's ``bench/instances.build``, and each tree parses the
text each one renders and solves it with the workload's mode under the
instance's conflict cap.  Every instance is solved by both trees in turn,
and which goes first alternates from one instance to the next and from
round to round.  ``time.process_time()`` is summed around ``Solver.solve``
only, so parsing and set-up are left out.

Each round prints both totals and their ratio, this checkout's over
``DIR``'s; then come the median ratio over the rounds and the number of
instances whose status, objective, conflicts, decisions, restarts or
propagations per tier differ between the two trees in any round.  With ``--identical``
any such difference exits 1.  ``--against .`` loads this checkout twice,
a same-code control whose ratio shows the noise of the machine.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from instances import WORKLOADS, build  # noqa: E402
from search_records import KEYS  # noqa: E402


def load(root, name):
    """``root/src/intsat`` imported as the package ``name``."""
    package = Path(root).resolve() / "src" / "intsat"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_solve(intsat, text, mode, max_conflicts):
    """The CPU seconds of one ``Solver.solve`` and the search's record."""
    solver = intsat.Solver(intsat.parse(text),
                           intsat.SolverConfig(mode=mode, max_conflicts=max_conflicts))
    start = time.process_time()
    out = solver.solve()
    seconds = time.process_time() - start
    stats = solver.stats.as_dict()
    return seconds, (out.status, out.objective_value, *(stats[key] for key in KEYS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="DIR",
                        help="the checkout to compare with")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=None, metavar="N",
                        help="only the first N instances in solving order")
    parser.add_argument("--rounds", type=int, default=3, metavar="R")
    parser.add_argument("--identical", action="store_true",
                        help="exit 1 if any instance's search differs")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not (Path(args.against) / "src" / "intsat" / "__init__.py").is_file():
        parser.error(f"{args.against} holds no src/intsat package")
    trees = (load(ROOT, "intsat_here"), load(args.against, "intsat_against"))
    mode = WORKLOADS[args.workload].mode
    instances = [(inst.name, inst.render(), inst.max_conflicts)
                 for inst in build(args.workload, args.seed)[:args.first]]
    ratios, differing = [], {}
    for r in range(args.rounds):
        totals = [0.0, 0.0]
        for i, (name, text, max_conflicts) in enumerate(instances):
            records = [None, None]
            for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                seconds, records[side] = timed_solve(trees[side], text, mode, max_conflicts)
                totals[side] += seconds
            if records[0] != records[1]:
                differing.setdefault(name, records)
        ratio = totals[0] / totals[1] if totals[1] else float("nan")
        ratios.append(ratio)
        print(f"round {r + 1}: here {totals[0]:.3f} s, against {totals[1]:.3f} s, "
              f"ratio {ratio:.4f}", flush=True)
    print(f"median ratio {statistics.median(ratios):.4f} over {args.rounds} round(s), "
          f"{len(instances)} instances")
    print(f"differing: {len(differing)} of {len(instances)} instances")
    for name, (here, there) in list(differing.items())[:3]:
        print(f"  {name}\n    here:    {here}\n    against: {there}")
    return 1 if args.identical and differing else 0


if __name__ == "__main__":
    sys.exit(main())
