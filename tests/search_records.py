"""One benchmark workload's search records, one JSON line per instance.

    python tests/search_records.py --workload packing-cut --seed 1 [--first N]

Builds the workload's instances with ``bench/instances.build``, parses the
text each one renders, as the benchmark does, and solves it with the
workload's mode under the instance's conflict cap.  Each line holds the
instance's name, status and objective and the search's conflicts,
decisions, restarts and propagations per tier.  A change that must leave
the search as it was prints the same lines as its parent commit, so one
``diff`` of the two runs' output checks that, instance by instance.  The
script finds ``src`` and ``bench`` beside this directory, so it runs from
any working directory, in any checkout.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import intsat  # noqa: E402
from instances import WORKLOADS, build  # noqa: E402

KEYS = ("conflicts", "decisions", "restarts",
        "propagations_binary", "propagations_clause", "propagations_general")


def records(workload, seed, first=None):
    """The workload's records in solving order, of its first instances only
    if ``first`` is given."""
    mode = WORKLOADS[workload].mode
    for inst in build(workload, seed)[:first]:
        solver = intsat.Solver(intsat.parse(inst.render()),
                               intsat.SolverConfig(mode=mode, max_conflicts=inst.max_conflicts))
        out = solver.solve()
        stats = solver.stats.as_dict()
        yield dict(name=inst.name, status=out.status, objective=out.objective_value,
                   **{key: stats[key] for key in KEYS})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=None, metavar="N",
                        help="only the first N instances in solving order")
    args = parser.parse_args(argv)
    for record in records(args.workload, args.seed, args.first):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
