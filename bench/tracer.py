"""Spans and counters around the calls into each ``intsat`` layer.

The hooks are installed from the benchmark's side only: methods are
wrapped on their classes and module globals are replaced in the module
that looks them up at call time, and everything is restored afterwards.
A span's self time is its duration minus the time covered by the spans
it encloses; self times are accumulated per span name as spans close,
and the first ``KEEP_SPANS`` spans are also kept whole (name, start,
end, parent) to be written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager

from timing import clock

KEEP_SPANS = 100_000  # whole spans kept for the span file; later ones are counted


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds, record index]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # counters recorded at the same boundaries
        self.maxima = defaultdict(int)
        self.records = []  # [name, start, end, parent record index]
        self.dropped = 0

    def enter(self, name: str):
        start = clock()
        index = -1
        if len(self.records) < KEEP_SPANS:
            parent = self.stack[-1][3] if self.stack else -1
            index = len(self.records)
            self.records.append([name, start, None, parent])
        else:
            self.dropped += 1
        self.stack.append([name, start, 0.0, index])

    def exit(self):
        end = clock()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.records[index][2] = end

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name, inspect=None):
        """``fn`` inside a span called ``name`` (no span when ``name`` is
        None); ``inspect(result, args)`` sees each result."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if name is not None:
                enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name is not None:
                    exit_()
            if inspect is not None:
                inspect(result, args)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "dropped": self.dropped, "spans": self.records}, f)


class Probe:
    """``Solver(instrumentation=...)`` hooks: rewrite steps and trail height."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def on_cs(self, solver, cs):
        self.tracer.counts["analysis.cs_snapshots"] += 1

    def after_push(self, solver):
        maxima = self.tracer.maxima
        if len(solver.trail.entries) > maxima["trail.max_height"]:
            maxima["trail.max_height"] = len(solver.trail.entries)

    def reset(self, solver):
        pass


@contextmanager
def hooks(tracer: Tracer):
    """Install the layer hooks for the duration of the block."""
    from intsat import analysis, propagation, search, trail

    counts = tracer.counts

    def on_analysis(result, args):
        counts["analysis.analyses"] += 1
        if not result.learned:
            counts["analysis.learn_none"] += 1
        for c in result.learned:
            counts["analysis.learned"] += 1
            counts["analysis.learned_len_total"] += len(c.monomials)
            top = max((abs(m.coeff) for m in c.monomials), default=0)
            if top > tracer.maxima["analysis.learned_max_coeff"]:
                tracer.maxima["analysis.learned_max_coeff"] = top

    def on_cut(result, args):
        c1, c2, var = args
        a, b = c1.coeff_of(var), c2.coeff_of(var)
        if result is None and a and b and (a > 0) != (b > 0):
            counts["model.cut_refusals"] += 1

    def on_scan(result, args):
        if result is not None:
            counts["analysis.scan_hits"] += 1

    def on_find_conflict(result, args):
        if result is not None:
            counts["propagation.general_useful"] += 1

    def on_propagate(result, args):
        if result:
            counts["propagation.general_useful"] += 1

    P = propagation.Propagator
    targets = [
        (search.Solver, "decide", "search.decide", None),
        (search.Solver, "_install_strengthening", "search.strengthen", None),
        (search.Solver, "_cleanup", "search.cleanup", None),
        (P, "propagate_fixpoint", "propagation.fixpoint", None),
        (P, "push_bound", "propagation.push", None),
        (P, "pop_one", "propagation.pop", None),
        (P, "_process_clause_entry", "propagation.clause", None),
        (P, "_process_binary_entry", "propagation.binary", None),
        (P, "_visit_general", "propagation.general_visit", None),
        (propagation, "find_conflict", None, on_find_conflict),
        (propagation, "propagate_constraint", None, on_propagate),
        (analysis, "analyze_resolution", "analysis.analyze", on_analysis),
        (analysis, "analyze_hybrid", "analysis.analyze", on_analysis),
        (analysis, "early_backjump_scan", "analysis.scan", on_scan),
        (analysis, "cut", "model.cut", on_cut),
        (trail.Trail, "bounds_at_height", "trail.chain_walk", None),
        (trail.Trail, "height_of_strongest_below", "trail.chain_walk", None),
    ]
    saved = []
    try:
        for owner, attr, name, inspect in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, inspect))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

