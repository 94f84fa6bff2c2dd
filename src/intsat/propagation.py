"""Bound propagation to fixpoint with conflict detection.

Constraints live in three tiers:

* general constraints, visited through per-variable occurs lists and a
  cheap per-constraint filter that certifies "cannot propagate" without
  touching the constraint;
* clauses (input set-covering style constraints over binary variables),
  propagated with two watches, the first two of the row's literal codes;
* binary clauses, kept as edges of a binary implication graph.

The two literal tiers work on integer literal codes, as MiniSat does: on
a binary variable v, ``2*v + 1`` is the literal ``1 <= v`` and ``2*v``
the literal ``v <= 0``.  Watch lists and implication edges are lists
indexed by code, a literal's status is read from ``trail.lb``/``ub`` by
the code's parity, and the bound a literal pushes comes from a per-code
table.  Every row keeps one ``ReasonInfo``, built when it is filed, for
all the bounds it propagates in any tier.

A general-row visit reads the row's bounds in one ``slack_and_widest``
pass and calls ``find_conflict`` or ``propagate_constraint`` only when
that pass says they fire; a visit that propagates reads the new widths
once more for its filter.

``propagated_bounds`` is the one rule for the bounds a row propagates.
It and ``slack_and_widest`` read only the ``lb``/``ub`` of their bounds
argument, so the early-backjump scan applies them, and the reason rule
below, to the level-0 bounds.

All three tiers share one extraction rule for conflict sets and reason
sets: the height of the current strongest bound of each variable on the
side its coefficient uses.  Conflict sets are taken at once; a bound is
pushed with its row, and ``Trail.reason_heights`` derives its reason set.

The ``Propagator`` is the row store: it keeps every row by cid, dead
ones too, beside its per-row state.  A clause over binary variables is
a binary row with two literals and a clause row with more; any other
row, a one-literal clause too, is general.  The constructor files the
problem's rows in input order by this rule.  A later row (learned, or
strengthening the objective) joins a literal tier only with the codes
``analysis.learned_clause`` supplies; every other later row is general.
The literal-code tables are built with the first literal row, whoever
files it.  Later rows alone die, through ``kill_rows`` (learned rows at
a cleanup, a replaced strengthening row): a dead row leaves the occurs
lists of its variables, or its watch lists or implication edges, and the
queue and the saves, so every queued or saved row is live.  The trail
holds the initial box from birth, as level-0 seeds with an empty reason
and no row.

A literal row has no filter and is never saved.  A live general row's
filter is at least its ``exact_filter``, and it is queued iff its filter
is positive, which the queue alone records: a push queues a row whose
filter it lifts from at most 0 above 0, and a visit, which dequeues the
row, leaves it at most 0 unless it finds the row false.  A row's own
pushes never touch its filter, as a normalised row holds each variable
once.  Filters are undone per decision level, with one dict per level:
``saves[k]`` maps each row that level k changed to its filter at the
level's start, and each row filed in level k to None.  ``pop_to``, which
only lands on a level start, walks the undone levels and their saves
newest first, so the oldest filter is written last; a row filed above
the target is recomputed there instead, and mapped to None in the
landing level.  ``saves[0]`` is never written back.  A visit saves
nothing: the Solver decides only at a fixpoint, so what queued the row
saved it in this level.  For the same reason every queued row was lifted
or filed above the target, every filter a backjump writes back is <= 0,
and the rows left queued after a backjump are the recomputed ones with a
positive filter.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from itertools import repeat
from typing import NamedTuple, Optional

from .model import Bound, Constraint, Monomial
from .trail import DECISION, ReasonInfo, Trail


class Conflict(NamedTuple):
    cid: int  # the row's id in the Propagator
    cs: tuple  # trail heights falsifying it


class OutOfTime(Exception):
    """The propagator's deadline passed during a fixpoint."""


PUSHES_PER_DEADLINE_CHECK = 1024
BINARY, CLAUSE, GENERAL = "binary", "clause", "general"  # SolverStats.propagations keys


def slack_and_widest(c: Constraint, bounds):
    """The row's slack, rhs minus its minimum under ``bounds`` (anything
    with per-variable ``lb``/``ub``, like the trail), and its widest term,
    the largest |a|*(ub-lb).  The row is false iff slack < 0; otherwise it
    propagates a fresh bound on x iff |a_x|*(ub-lb) > slack, so it
    propagates something iff widest > slack.
    """
    lb, ub = bounds.lb, bounds.ub
    slack = c.rhs
    widest = 0
    for var, coeff in c.monomials:
        if coeff > 0:
            low = lb[var]
            slack -= coeff * low
            width = coeff * (ub[var] - low)
        else:
            high = ub[var]
            slack -= coeff * high
            width = coeff * (lb[var] - high)
        if width > widest:
            widest = width
    return slack, widest


def exact_filter(c: Constraint, trail: Trail) -> int:
    """widest - slack: positive iff the row is false or propagates a fresh
    bound.  The general tier keeps an upper bound of it per row."""
    slack, widest = slack_and_widest(c, trail)
    return widest - slack


def falsifying_heights(c: Constraint, trail: Trail) -> tuple:
    """Heights of the strongest bound of each variable on its min side."""
    pl, pu = trail.pl, trail.pu
    return tuple(pl[var] if coeff > 0 else pu[var] for var, coeff in c.monomials)


def find_conflict(c: Constraint, trail: Trail, cid: int = -1) -> Optional[Conflict]:
    """The constraint is false iff its slack is negative."""
    if slack_and_widest(c, trail)[0] < 0:
        return Conflict(cid, falsifying_heights(c, trail))
    return None


def propagated_bounds(c: Constraint, bounds, slack: int) -> list:
    """Every fresh bound the row propagates, in row order, given its
    slack >= 0 under ``bounds`` (anything with per-variable ``lb``/``ub``,
    like the trail).

    For each variable, the bound obtained by moving every other variable
    to its minimum and rounding: ``x <= lb + floor(slack/a)`` for a > 0,
    ``ub - floor(slack/|a|) <= x`` for a < 0.  It is fresh iff
    |a|*(ub-lb) > slack.
    """
    lb, ub = bounds.lb, bounds.ub
    out = []
    for var, coeff in c.monomials:
        if coeff > 0:
            if coeff * (ub[var] - lb[var]) > slack:
                out.append(Bound(var, False, lb[var] + slack // coeff))
        elif coeff * (lb[var] - ub[var]) > slack:
            out.append(Bound(var, True, ub[var] - slack // -coeff))
    return out


def clause_row(codes) -> Constraint:
    """The row of a clause over distinct binary variables, given its
    literal codes: -v for ``1 <= v`` (code ``2*v + 1``) and +v for
    ``v <= 0`` (code ``2*v``), with rhs the number of +v terms minus 1.
    Sorted by variable and with gcd 1, the row is already normalised."""
    ordered = sorted(codes)  # by variable, as they are distinct
    terms = [(code >> 1, -1 if code & 1 else 1) for code in ordered]
    rhs = len(ordered) - sum(code & 1 for code in ordered) - 1
    # tuple.__new__ makes a Monomial from a pair with no Python frame, as in normalize
    return Constraint(tuple(map(tuple.__new__, repeat(Monomial), terms)), rhs)


def propagate_constraint(c: Constraint, trail: Trail, slack: Optional[int] = None) -> list:
    """All fresh bounds the constraint propagates under the current trail,
    in row order; the caller must have ruled out a conflict first, and
    may pass the row's slack if it holds it.
    """
    if slack is None:
        slack = slack_and_widest(c, trail)[0]
    return propagated_bounds(c, trail, slack)


class Propagator:
    """The row store and its three tiers; the single push/pop path.

    Every row enters through add_row: the constructor classifies the
    problem's rows, and a later row joins a literal tier only with the
    codes ``analysis.learned_clause`` supplies.  Later rows leave through
    kill_rows.  Every trail change goes through push_bound / pop_to, so
    filters, cursors and saved phases stay consistent.
    """

    def __init__(self, problem, trail: Trail, stats, trace=None):
        self.problem = problem
        self.trail = trail
        self.stats = stats
        self.trace = trace  # an open text file, or None
        n = problem.num_vars
        self.constraints = []  # every row by cid: reasons and cuts read dead ones too
        self.lits = []  # literal codes of a clause or binary row, None for a general row
        self.reasons = []  # the ReasonInfo of every bound the row propagates
        # (cid, |coeff|) of the general rows whose minimum rises with the lower
        # bound of a var, at occs[2*var + 1], or falls with its upper, at occs[2*var]
        self.occs = [[] for _ in range(2 * n)]
        self.filters = []
        # one dict per decision level: saves[k] maps each general row changed
        # in level k to its filter at the level's start, or to None for a row
        # filed in level k, recomputed on unwind; saves[0] is never written back
        self.saves = [{}]
        self.queue = deque()
        # by literal code: the clause cids watching it, its implication edges
        # [(other code, cid)] and the bound it pushes; built with the first literal row
        self.watch, self.bin_adj, self.lit_bounds = [], [], []
        self.binary_cursor = 0
        self.clause_cursor = 0
        self.last_value = [None] * n  # phase saving: last defined value
        self.post_push = None  # optional hook, called after every push
        # 18 attributes, of at most 29 (a test counts them): with more, CPython
        # 3.11 leaves its shared-key layout and every attribute access slows down
        for c in problem.constraints:  # in input order, so cids follow it
            self.add_row(c, self._as_clause(c))

    # -- the row store ----------------------------------------------------------

    def _as_clause(self, c: Constraint):
        """Literal codes if the row is a clause of two or more literals over
        binary variables: ``2*var + 1`` for ``1 <= var``, ``2*var`` for
        ``var <= 0``.  A one-literal row stays general."""
        lits = []
        positives = 0
        for var, coeff in c.monomials:
            if not self.problem.is_binary(var) or abs(coeff) != 1:
                return None
            if coeff < 0:
                lits.append(2 * var + 1)  # the literal "var is true"
            else:
                positives += 1
                lits.append(2 * var)  # "var is false"
        if c.rhs != positives - 1 or len(lits) < 2:
            return None
        return lits

    def add_row(self, c: Constraint, lits=None) -> int:
        """File a row, sized and indexed, and return its cid: general,
        checked against the current trail, if ``lits`` is None, else in a
        literal tier with those codes, watching ``lits[0]`` and ``lits[1]``."""
        cid = len(self.constraints)
        self.constraints.append(c)
        self.lits.append(lits)
        self.reasons.append(ReasonInfo(None, cid, c))  # reason set derived on demand
        self.filters.append(0)
        if lits is None:
            for var, coeff in c.monomials:
                self.occs[2 * var + (coeff > 0)].append((cid, abs(coeff)))
            self.filters[cid] = exact_filter(c, self.trail)
            self.saves[-1][cid] = None  # recomputed if its level is undone
            if self.filters[cid] > 0:
                self.queue.append(cid)
            return cid
        if not self.lit_bounds:
            n = self.problem.num_vars
            self.watch = [[] for _ in range(2 * n)]
            self.bin_adj = [[] for _ in range(2 * n)]
            self.lit_bounds = [Bound(var, s == 1, s) for var in range(n) for s in (0, 1)]
        if len(lits) == 2:  # a binary clause: two implication edges
            self.bin_adj[lits[0]].append((lits[1], cid))
            self.bin_adj[lits[1]].append((lits[0], cid))
        else:  # a clause row watches lits[0] and lits[1]
            self.watch[lits[0]].append(cid)
            self.watch[lits[1]].append(cid)
        return cid

    def kill_rows(self, dead: set):
        """Take the rows out of the occurs lists, watch lists, implication
        edges, queue and saves that name them, so propagation never reads
        them again; they stay filed for reasons and cuts."""
        sides, watched, edged = set(), set(), set()
        for cid in dead:
            lits = self.lits[cid]
            if lits is None:
                sides.update(2 * var + (coeff > 0)
                             for var, coeff in self.constraints[cid].monomials)
            elif len(lits) == 2:
                edged.update(lits)
            else:
                watched.update(lits[:2])
        for side in sides:
            occs = self.occs[side]
            occs[:] = [occ for occ in occs if occ[0] not in dead]
        for code in watched:
            watchers = self.watch[code]
            watchers[:] = [cid for cid in watchers if cid not in dead]
        for code in edged:
            edges = self.bin_adj[code]
            edges[:] = [edge for edge in edges if edge[1] not in dead]
        queued = [cid for cid in self.queue if cid not in dead]
        self.queue.clear()
        self.queue.extend(queued)
        for saved in self.saves:
            for cid in dead & saved.keys():
                del saved[cid]

    # -- push / pop ----------------------------------------------------------

    def push_bound(self, b: Bound, info: ReasonInfo, tier=None) -> int:
        trail = self.trail
        var = b.var
        if b.is_lower:
            delta = b.value - trail.lb[var]
            occs = self.occs[2 * var + 1]
        else:
            delta = trail.ub[var] - b.value
            occs = self.occs[2 * var]
        height = trail.push(b, info)
        if info is DECISION:
            self.saves.append({})
        filters, saved = self.filters, self.saves[-1]
        for cid, weight in occs:
            old = filters[cid]
            if cid not in saved:
                saved[cid] = old
            new = old + weight * delta
            filters[cid] = new
            if new > 0 >= old:  # queued iff positive
                self.queue.append(cid)
        if trail.lb[var] == trail.ub[var]:
            self.last_value[var] = trail.lb[var]
        if tier is not None:
            self.stats.propagations[tier] += 1
        if self.trace is not None and info is not DECISION:
            cid = info.reason_constraint
            print(f"propagate {b.format(self.problem.var_names)} "
                  f"reason={cid if cid is not None else 'none'} "
                  f"set={{{','.join(str(h) for h in trail.reason_heights(height))}}}",
                  file=self.trace)
        if self.post_push is not None:
            self.post_push(height)
        return height

    def pop_one(self):
        """Pop the top entry; ``pop_to`` restores filters, queue and cursors.
        The benchmark's tracer (``bench/tracer.py``) wraps it by name."""
        self.trail.pop()

    def pop_to(self, height: int):
        """Backjump to a level start or the trail's length: saves are exact there."""
        trail = self.trail
        if height == len(trail.entries):
            return
        level = bisect_left(trail.decision_heights, height)
        if trail.decision_heights[level:level + 1] != [height]:
            raise ValueError(f"height {height} is not the start of a decision level")
        for _ in range(len(trail.entries) - height):
            self.pop_one()
        self.binary_cursor = min(self.binary_cursor, height)
        self.clause_cursor = min(self.clause_cursor, height)
        undone = self.saves[level + 1:]
        del self.saves[level + 1:]
        filters, landing = self.filters, self.saves[level]
        recomputed = []
        for saved in reversed(undone):  # newest first: the oldest value is written last
            for cid, old in reversed(saved.items()):
                if old is None:  # filed above: exact here, None in the landing level
                    old = exact_filter(self.constraints[cid], trail)
                    recomputed.append(cid)
                    landing[cid] = None
                filters[cid] = old
        # a restored save is <= 0, as the level started at a fixpoint: only
        # recomputed rows join the queue, in the order they were saved
        rows = dict.fromkeys([*self.queue, *reversed(recomputed)])
        self.queue.clear()
        self.queue.extend(cid for cid in rows if filters[cid] > 0)

    # -- clause / binary tiers -------------------------------------------------
    # A literal code is true, false or open by the bounds of its binary
    # variable v: "1 <= v" (odd) is true iff lb[v] is 1 and false iff ub[v]
    # is 0; "v <= 0" (even) is true iff ub[v] is 0 and false iff lb[v] is 1.
    # The bound 1 <= v falsifies the code 2v, and v <= 0 the code 2v+1.

    def _clause_conflict(self, cid: int) -> Conflict:
        c = self.constraints[cid]
        return Conflict(cid, falsifying_heights(c, self.trail))

    def _process_binary_entry(self, height: int) -> Optional[Conflict]:
        var, is_lower, value = self.trail.entries[height].bound
        if is_lower != (value > 0):
            return None  # falsifies no literal
        lb, ub = self.trail.lb, self.trail.ub
        for other, cid in self.bin_adj[2 * var + (not is_lower)]:
            v = other >> 1
            if other & 1:
                if lb[v]:
                    continue
                if not ub[v]:
                    return self._clause_conflict(cid)
            elif not ub[v]:
                continue
            elif lb[v]:
                return self._clause_conflict(cid)
            self.push_bound(self.lit_bounds[other], self.reasons[cid], BINARY)
        return None

    def _process_clause_entry(self, height: int) -> Optional[Conflict]:
        var, is_lower, value = self.trail.entries[height].bound
        if is_lower != (value > 0):
            return None
        false_lit = 2 * var + (not is_lower)
        watch = self.watch
        watchers = watch[false_lit]
        if not watchers:
            return None
        lb, ub = self.trail.lb, self.trail.ub
        all_lits = self.lits
        keep = []
        conflict = None
        for i, cid in enumerate(watchers):
            lits = all_lits[cid]
            other = lits[0]
            if other == false_lit:  # the false watch goes to lits[1]
                other = lits[0] = lits[1]
                lits[1] = false_lit
            v = other >> 1
            if lb[v] if other & 1 else not ub[v]:  # the other watch is true
                keep.append(cid)
                continue
            for j in range(2, len(lits)):  # the first open or true literal past the watches
                lit = lits[j]
                if ub[lit >> 1] if lit & 1 else not lb[lit >> 1]:
                    lits[1], lits[j] = lit, false_lit
                    watch[lit].append(cid)
                    break
            else:
                keep.append(cid)
                if not ub[v] if other & 1 else lb[v]:  # the other watch is false
                    conflict = self._clause_conflict(cid)
                    keep.extend(watchers[i + 1:])
                    break
                self.push_bound(self.lit_bounds[other], self.reasons[cid], CLAUSE)
        watch[false_lit] = keep
        return conflict

    # -- general tier ---------------------------------------------------------

    def _visit_general(self, cid: int) -> Optional[Conflict]:
        c = self.constraints[cid]
        trail = self.trail
        slack, widest = slack_and_widest(c, trail)
        if slack < 0:
            return find_conflict(c, trail, cid)
        if widest > slack:
            info = self.reasons[cid]
            for b in propagate_constraint(c, trail, slack):
                self.push_bound(b, info, tier=GENERAL)
            slack, widest = slack_and_widest(c, trail)
        self.filters[cid] = widest - slack  # saved in this level by what queued it
        return None

    # -- the fixpoint loop ------------------------------------------------------

    def propagate_fixpoint(self, deadline=None) -> Optional[Conflict]:
        """Advance all tiers to the top of the trail; binary first, then
        clauses, then general constraints, restarting at the cheapest
        tier after every push.  With no clause or binary row filed, the
        literal tiers skip their entries; their cursors move to the top at
        the fixpoint.

        Given a deadline, a time.monotonic() value, raises OutOfTime once it
        has passed, checked every PUSHES_PER_DEADLINE_CHECK trail entries,
        read by a tier or not.
        """
        entries = self.trail.entries
        queue = self.queue
        literal = bool(self.lit_bounds)  # a clause or binary row is filed
        next_check = self.binary_cursor + PUSHES_PER_DEADLINE_CHECK
        while True:
            if deadline is not None and len(entries) >= next_check:
                next_check += PUSHES_PER_DEADLINE_CHECK
                if time.monotonic() >= deadline:
                    raise OutOfTime
            if literal and self.binary_cursor < len(entries):
                conflict = self._process_binary_entry(self.binary_cursor)
                self.binary_cursor += 1
                if conflict is not None:
                    return conflict
                continue
            if literal and self.clause_cursor < len(entries):
                conflict = self._process_clause_entry(self.clause_cursor)
                self.clause_cursor += 1
                if conflict is not None:
                    return conflict
                continue
            if queue:
                conflict = self._visit_general(queue.popleft())
                if conflict is not None:
                    return conflict
                continue
            self.binary_cursor = self.clause_cursor = len(entries)
            return None
