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

    python tests/search_records.py --workload packing-cut --seed 1 --against DIR

runs ``DIR/tests/search_records.py`` (another checkout, such as the parent
commit's from ``git archive HEAD | tar -x -C DIR``) with the same
arguments beside this one and compares the two outputs line by line: it
prints ``identical: N records`` and exits 0, or prints the first pair of
lines that differ and exits 1.
"""

import argparse
import json
import subprocess
import sys
from itertools import zip_longest
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
    parser.add_argument("--against", metavar="DIR",
                        help="compare with the records of the checkout in DIR")
    args = parser.parse_args(argv)
    lines = map(json.dumps, records(args.workload, args.seed, args.first))
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    first = [] if args.first is None else ["--first", str(args.first)]
    other = subprocess.Popen(
        [sys.executable, str(Path(args.against) / "tests" / "search_records.py"),
         "--workload", args.workload, "--seed", str(args.seed), *first],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    here = list(lines)  # while the other checkout solves
    out, err = other.communicate()
    if other.returncode:
        sys.exit(f"{args.against} failed:\n{err}")
    for here_line, there_line in zip_longest(here, out.splitlines()):
        if here_line != there_line:
            print(f"differs:\n  here:    {here_line}\n  against: {there_line}")
            return 1
    print(f"identical: {len(here)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
