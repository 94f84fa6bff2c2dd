"""Every layer the benchmark's tracer wraps is still reached by a solve.

The benchmark reports a self time and a call count per span, and reads
0 for a span whose wrapped function the solver no longer calls.  Three
small solves under ``bench/tracer.py``'s ``hooks`` must enter every span
it installs, so a refactor that moves work out of a wrapped function
fails here instead of silently zeroing a per-layer figure.  The solves
also take the tracer's ``Probe`` as instrumentation, so a refactor that
drops the ``on_cs`` or ``post_push`` hook fails here instead of zeroing
``analysis.rewrite_steps`` or ``trail.max_height``.  The tracer counts a
general visit as useful from the wrapped ``find_conflict`` and
``propagate_constraint`` results; that count must equal the visits that
pushed a bound or found a conflict, counted here from the trail, so a
visit that bypasses those two calls fails here too.
"""

import random
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Probe, Tracer, hooks  # noqa: E402

from intsat import propagation, search  # noqa: E402
from intsat.io import parse  # noqa: E402
from intsat.search import Solver, SolverConfig  # noqa: E402
from conftest import planted_3sat_problem  # noqa: E402
from test_cli import CORE  # noqa: E402
from test_search_snapshot import integer_rows_problem  # noqa: E402


class RecordingTracer(Tracer):
    """A Tracer that records the name of every span ``hooks`` installs."""

    def __init__(self):
        super().__init__()
        self.installed = set()

    def wrap(self, fn, name, inspect=None):
        if name is not None:
            self.installed.add(name)
        return super().wrap(fn, name, inspect)


def test_small_solves_enter_every_span_the_tracer_installs(monkeypatch):
    tracer = RecordingTracer()
    probe = Probe(tracer)
    visits = Counter()
    visit = propagation.Propagator._visit_general

    def counted(self, cid):
        height = len(self.trail)
        got = visit(self, cid)
        visits["all"] += 1
        visits["useful"] += got is not None or len(self.trail) > height
        return got

    monkeypatch.setattr(propagation.Propagator, "_visit_general", counted)
    with hooks(tracer):
        # cut mode: integer rows with an objective (general tier, cuts,
        # the early-backjump scan, strengthening)
        cut = Solver(integer_rows_problem(random.Random(3)),
                     SolverConfig(mode="cut", max_conflicts=100), instrumentation=probe)
        assert cut.solve().status in ("optimal", "bounded")
        # cut mode on the paper's core instance: a learned unit row is a
        # scan hit, whose level-0 box is read by a chain walk
        core = Solver(parse(CORE), SolverConfig(mode="cut"), instrumentation=probe)
        assert core.solve().status == "infeasible"
        # resolution mode: clause and binary tiers, and a cleanup at every
        # restart
        monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
        res = Solver(planted_3sat_problem(random.Random(5), 40),
                     SolverConfig(mode="resolution", max_conflicts=200, restart=("luby", 1)),
                     instrumentation=probe)
        assert res.solve().status in ("feasible", "timelimit")
    assert not tracer.stack
    assert "trail.chain_walk" in tracer.installed
    for name in sorted(tracer.installed):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["analysis.scan_hits"] > 0
    assert tracer.calls["propagation.general_visit"] == visits["all"]
    assert 0 < tracer.counts["propagation.general_useful"] == visits["useful"] < visits["all"]
    assert tracer.counts["analysis.cs_snapshots"] > tracer.counts["analysis.analyses"]
    assert tracer.maxima["trail.max_height"] > 0
