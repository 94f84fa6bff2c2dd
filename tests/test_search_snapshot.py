"""Search snapshot: a small seeded corpus, solved in both modes, must
reproduce the committed per-instance records exactly.

A change to data layout or speed leaves every record as it is.  A change
that alters the search on purpose regenerates the file with

    PYTHONPATH=src python tests/test_search_snapshot.py

which prints, per mode, how many records changed, every record whose
status or objective moved and the totals of the search counters before
and after, and says so in its change notes.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from intsat.model import Problem, normalize
from intsat.search import Solver, SolverConfig
from conftest import (_objective, cover_packing_problem, pairwise_php_problem, php_problem,
                      planted_3sat_problem, random_problem, small_integer_problem)

SNAPSHOT = Path(__file__).with_name("search_snapshot.json")


def integer_rows_problem(rng, n=6, rows=16, dom=20):
    """Rows of four integers in [-dom, dom] that hold at a random point:
    many bounds per variable and large cut coefficients."""
    anchor = [rng.randint(-dom, dom) for _ in range(n)]
    coeffs = [c for c in range(-9, 10) if c != 0]
    cs = []
    for _ in range(rows):
        terms = [(v, rng.choice(coeffs)) for v in rng.sample(range(n), 4)]
        cs.append(normalize(terms, sum(c * anchor[v] for v, c in terms) + rng.randint(0, 12)))
    return Problem(n, [-dom] * n, [dom] * n, cs, _objective(rng, n))


def corpus():
    """(name, problem, conflict cap) triples, the same on every run."""
    rng = random.Random(7001)
    out = [("php-5-4", php_problem(5, 4), 400), ("php-6-5", php_problem(6, 5), 300)]
    for i in range(30):
        out.append((f"random-{i}", random_problem(rng, objective=True), 200))
        out.append((f"small-integer-{i}", small_integer_problem(rng), 200))
    for i in range(10):
        out.append((f"cover-packing-{i}", cover_packing_problem(rng), 200))
    for i in range(20):
        out.append((f"integer-rows-{i}", integer_rows_problem(rng), 100))
    # the clause and binary tiers at sizes the random problems never reach
    out.append(("pairwise-php-5-4", pairwise_php_problem(5, 4), 400))
    out.append(("pairwise-php-6-5", pairwise_php_problem(6, 5), 300))
    rng = random.Random(7002)
    for i, n in enumerate((60, 68, 76, 84, 92, 100)):
        out.append((f"planted-3sat-{n}-{i}", planted_3sat_problem(rng, n), 200))
    return out


def records():
    """One record per instance and mode: the verdict and the search counters."""
    got = {}
    for name, problem, cap in corpus():
        for mode in ("cut", "resolution"):
            solver = Solver(problem, SolverConfig(mode=mode, max_conflicts=cap))
            out = solver.solve()
            got[f"{name}/{mode}"] = dict(status=out.status, objective=out.objective_value,
                                         **solver.stats.as_dict())
    return got


def assert_matches_the_snapshot(got):
    want = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, [(key, want[key], got[key]) for key in changed[:5]]


def test_search_matches_the_snapshot():
    assert_matches_the_snapshot(records())


def test_search_matches_the_snapshot_without_asserts():
    """No answer may rest on an assert: the corpus again under python -O."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
    code = ("import json, sys, test_search_snapshot as t; "
            "print(json.dumps([sys.flags.optimize, t.records()]))")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    optimize, got = json.loads(done.stdout)
    assert optimize == 1
    assert_matches_the_snapshot(got)


TOTALS = ("conflicts", "decisions", "learned", "early_backjumps", "scans",
          "clique_rows", "replaced_rows",
          "propagations_binary", "propagations_clause", "propagations_general")


def report_changes(want, got):
    """Lines saying, per mode, how many records changed, naming every
    record whose status or objective changed, and giving the mode's
    totals of the search counters before -> after."""
    lines = []
    for mode in ("cut", "resolution"):
        keys = [key for key in got if key.endswith(f"/{mode}")]
        changed = [key for key in keys if want.get(key) != got[key]]
        lines.append(f"{mode}: {len(changed)} of {len(keys)} records changed")
        for key in changed:
            old = want.get(key, {})
            old = (old.get("status"), old.get("objective"))
            new = (got[key]["status"], got[key]["objective"])
            if old != new:
                lines.append(f"  {key}: status, objective {old} -> {new}")
        for name in TOTALS:
            before = sum(want.get(key, {}).get(name, 0) for key in keys)
            lines.append(f"  {name}: {before} -> {sum(got[key][name] for key in keys)}")
    return lines


def test_regeneration_reports_what_moved():
    rec = dict(status="optimal", objective=3, conflicts=9, decisions=20, learned=7,
               early_backjumps=2, scans=11, clique_rows=1, replaced_rows=3,
               propagations_binary=5, propagations_clause=4, propagations_general=30)
    want = {"a/cut": rec, "b/cut": rec, "a/resolution": rec}
    got = {"a/cut": dict(rec, conflicts=8, propagations_general=25, scans=4),
           "b/cut": dict(rec, objective=2, learned=6, early_backjumps=1, replaced_rows=2),
           "a/resolution": dict(rec, propagations_clause=9),
           "c/resolution": rec}  # a record the snapshot did not hold
    assert report_changes(want, got) == [
        "cut: 2 of 2 records changed",
        "  b/cut: status, objective ('optimal', 3) -> ('optimal', 2)",
        "  conflicts: 18 -> 17",
        "  decisions: 40 -> 40",
        "  learned: 14 -> 13",
        "  early_backjumps: 4 -> 3",
        "  scans: 22 -> 15",
        "  clique_rows: 2 -> 2",
        "  replaced_rows: 6 -> 5",
        "  propagations_binary: 10 -> 10",
        "  propagations_clause: 8 -> 8",
        "  propagations_general: 60 -> 55",
        "resolution: 2 of 2 records changed",
        "  c/resolution: status, objective (None, None) -> ('optimal', 3)",
        "  conflicts: 9 -> 18",
        "  decisions: 20 -> 40",
        "  learned: 7 -> 14",
        "  early_backjumps: 2 -> 4",
        "  scans: 11 -> 22",
        "  clique_rows: 1 -> 2",
        "  replaced_rows: 3 -> 6",
        "  propagations_binary: 5 -> 10",
        "  propagations_clause: 4 -> 13",
        "  propagations_general: 30 -> 60"]


if __name__ == "__main__":
    want = json.loads(SNAPSHOT.read_text(encoding="utf-8")) if SNAPSHOT.exists() else {}
    got = records()
    print("\n".join(report_changes(want, got)))
    SNAPSHOT.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
