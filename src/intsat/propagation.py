"""Bound propagation to fixpoint with conflict detection.

Constraints live in three tiers:

* general constraints, visited through per-variable occurs lists and a
  cheap per-constraint filter that certifies "cannot propagate" without
  touching the constraint;
* clauses (input set-covering style constraints over binary variables),
  propagated with two watched literals;
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
It reads only the ``lb``/``ub`` of its bounds argument, so the
early-backjump scan, which finds its level in one sweep, applies it and
the reason rule below to a past trail prefix at its hit.

All three tiers share one extraction rule for conflict sets and reason
sets: the height of the current strongest bound of each variable on the
side its coefficient uses.  Conflict sets are taken at once; a bound is
pushed with its row, and ``Trail.reason_heights`` derives its reason set.

The store holds only real rows: the initial box bounds are pushed as
level-0 seeds with an empty reason and no row.  A row enters through
``Propagator.add_row`` and leaves through ``Propagator.kill_rows``.  Only
general rows die (learned rows at a cleanup, a replaced strengthening
row): a dead row leaves the occurs lists of its variables in place, and
the store keeps it for the reasons and cuts that read it.  The clause
and binary tiers hold only input rows, which never die.

A general row's filter is at least its ``exact_filter``, and a row with
a positive filter is queued.  Filters are undone per decision level: the
first change to a row within a level saves its old filter (nothing is
saved at level 0), and ``pop_to``, which only lands on a level start,
writes the oldest saves back.  A row registered above the target is
recomputed there instead, and saved again for the level that resumes.
A backjump re-queues only the rows it recomputes: the level it lands on
began at a fixpoint, when its decision was pushed, so every save it
writes back is <= 0.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from typing import NamedTuple, Optional

from .model import Bound, Constraint
from .trail import ReasonInfo, Trail


class Conflict(NamedTuple):
    cid: int  # constraint id in the store
    cs: tuple  # trail heights falsifying it


class OutOfTime(Exception):
    """The propagator's deadline passed during a fixpoint."""


PUSHES_PER_DEADLINE_CHECK = 1024


def slack_and_widest(c: Constraint, trail: Trail):
    """The row's slack, rhs minus its minimum over the current bounds,
    and its widest term, the largest |a|*(ub-lb).  The row is false iff
    slack < 0; otherwise it propagates a fresh bound on x iff
    |a_x|*(ub-lb) > slack, so it propagates something iff widest > slack.
    """
    lb, ub = trail.lb, trail.ub
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
    heights = []
    for var, coeff in c.monomials:
        h = trail.pl[var] if coeff > 0 else trail.pu[var]
        assert h >= 0, "variable without a trail bound"
        heights.append(h)
    return tuple(heights)


def find_conflict(c: Constraint, trail: Trail, cid: int = -1) -> Optional[Conflict]:
    """The constraint is false iff its slack is negative."""
    if slack_and_widest(c, trail)[0] < 0:
        return Conflict(cid, falsifying_heights(c, trail))
    return None


def propagated_bounds(c: Constraint, bounds, slack: int) -> list:
    """Every fresh bound the row propagates, as (monomial index, bound)
    pairs in row order, given its slack >= 0 under ``bounds`` (anything
    with per-variable ``lb``/``ub``, like the trail).

    For each variable, the bound obtained by moving every other variable
    to its minimum and rounding: ``x <= lb + floor(slack/a)`` for a > 0,
    ``ub - floor(slack/|a|) <= x`` for a < 0.  It is fresh iff
    |a|*(ub-lb) > slack.
    """
    lb, ub = bounds.lb, bounds.ub
    out = []
    for i, (var, coeff) in enumerate(c.monomials):
        if coeff > 0:
            if coeff * (ub[var] - lb[var]) > slack:
                out.append((i, Bound(var, False, lb[var] + slack // coeff)))
        elif coeff * (lb[var] - ub[var]) > slack:
            out.append((i, Bound(var, True, ub[var] - slack // -coeff)))
    return out


def propagate_constraint(c: Constraint, trail: Trail, slack: Optional[int] = None) -> list:
    """All fresh bounds the constraint propagates under the current trail,
    in row order; the caller must have ruled out a conflict first, and
    may pass the row's slack if it holds it.
    """
    if slack is None:
        slack = slack_and_widest(c, trail)[0]
    return [b for _, b in propagated_bounds(c, trail, slack)]


class ConstraintStore:
    """All constraints, by id, with tier and book-keeping metadata."""

    GENERAL, CLAUSE, BINARY = "general", "clause", "binary"

    def __init__(self, problem):
        self.problem = problem
        self.constraints = []
        self.kind = []
        self.initial = []
        self.alive = []
        self.activity = []  # cleanup counter, learned constraints only
        self.lits = []  # literal codes of clause and binary rows, else None
        self.learned_since_cleanup = 0
        self.learned_bytes = 0

    def __len__(self):
        return len(self.constraints)

    def alive_cids(self):
        return [i for i, a in enumerate(self.alive) if a]

    def _as_clause(self, c: Constraint):
        """Literal codes if the constraint is a clause over binary variables:
        ``2*var + 1`` for the literal ``1 <= var``, ``2*var`` for ``var <= 0``."""
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
        if c.rhs != positives - 1:
            return None
        return lits

    def add(self, c: Constraint, initial: bool, mid_search: bool = False) -> int:
        """File the row in its tier.  Only initial rows added before the
        search are clauses: the clause tiers see bounds pushed after the
        row exists, so a row added mid-search (learned, or strengthening
        the objective) goes to the general tier, which checks it against
        the current trail when ``Propagator.add_row`` indexes it."""
        cid = len(self.constraints)
        lits = self._as_clause(c) if initial and not mid_search else None
        if lits is not None and len(lits) >= 3:
            kind = self.CLAUSE
        elif lits is not None and len(lits) == 2:
            kind = self.BINARY
        else:
            kind, lits = self.GENERAL, None
        self.constraints.append(c)
        self.kind.append(kind)
        self.initial.append(initial)
        self.alive.append(True)
        self.activity.append(0)
        self.lits.append(lits)
        if not initial:
            self.learned_since_cleanup += 1
            self.learned_bytes += 64 + 16 * len(c.monomials)
        return cid

    def remove(self, cid: int):
        """Mark the row dead; a learned row gives back its bytes."""
        assert self.alive[cid]
        self.alive[cid] = False
        if not self.initial[cid]:
            self.learned_bytes -= 64 + 16 * len(self.constraints[cid].monomials)


class Propagator:
    """Owns the trail and the constraint indexes; the single push/pop path.

    The constructor pushes the initial box as level-0 seeds; after that,
    everything that changes the trail goes through push_bound / pop_to so
    filters, cursors and phase saving stay consistent.  Rows enter through
    add_row and leave through kill_rows.
    """

    def __init__(self, problem, store: ConstraintStore, trail: Trail,
                 stats, trace=None):
        self.problem = problem
        self.store = store
        self.trail = trail
        self.stats = stats
        self.trace = trace
        n = problem.num_vars
        # (cid, |coeff|) of the general rows whose minimum rises with the
        # lower (occ_pos) or falls with the upper (occ_neg) bound of a var
        self.occ_pos = [[] for _ in range(n)]
        self.occ_neg = [[] for _ in range(n)]
        self.filters = []
        self.in_queue = []
        self.reasons = []  # the ReasonInfo of every bound the row propagates
        # saves holds (cid, old filter, or None: recompute), and level k's
        # begin at save_marks[k - 1]; a row is saved in this level iff
        # stamp[cid] >= epoch, a clock tick per decision and backjump, 0 at level 0
        self.saves, self.save_marks, self.stamp = [], [], []
        self.epoch = self.clock = 0
        self.queue = deque()
        self.watch = [[] for _ in range(2 * n)]  # literal code -> clause cids watching it
        self.watched = {}  # cid -> [lit index, lit index]
        self.bin_adj = [[] for _ in range(2 * n)]  # literal code -> [(other code, cid)]
        self.lit_bounds = [Bound(var, s == 1, s) for var in range(n) for s in (0, 1)]
        self.literal_rows = False  # a clause or binary row is filed
        self.binary_cursor = 0
        self.clause_cursor = 0
        self.num_defined = 0
        self.last_value = [None] * n  # phase saving: last defined value
        self.post_push = None  # optional hook, called after every push
        self.on_undefined = None  # optional hook, var became undefined by a pop
        self.deadline = None  # time.monotonic() value checked during fixpoints
        box = ReasonInfo.propagated((), None)  # seeds hold unconditionally
        for var in range(n):
            low, high = problem.initial_lb[var], problem.initial_ub[var]
            trail.push(Bound(var, True, low), box, seed=True)
            trail.push(Bound(var, False, high), box, seed=True)
            if low == high:
                self.num_defined += 1
                self.last_value[var] = low

    # -- index construction -------------------------------------------------

    def add_row(self, c: Constraint, initial: bool, mid_search: bool = False) -> int:
        """File the row in the store (see ``ConstraintStore.add``), size its
        per-row state and index it in its tier; returns its cid."""
        store = self.store
        cid = store.add(c, initial, mid_search)
        self.filters.append(0)
        self.in_queue.append(False)
        self.stamp.append(0)
        self.reasons.append(ReasonInfo(None, cid, False, c))  # reason set derived on demand
        kind = store.kind[cid]
        if kind == ConstraintStore.GENERAL:
            for var, coeff in c.monomials:
                if coeff > 0:
                    self.occ_pos[var].append((cid, coeff))
                else:
                    self.occ_neg[var].append((cid, -coeff))
            self.filters[cid] = exact_filter(c, self.trail)
            if self.epoch:  # registered above level 0: recompute on unwind
                self.stamp[cid] = self.epoch
                self.saves.append((cid, None))
            if self.filters[cid] > 0:
                self.in_queue[cid] = True
                self.queue.append(cid)
        elif kind == ConstraintStore.CLAUSE:
            lits = store.lits[cid]
            self.watched[cid] = [0, 1]
            self.watch[lits[0]].append(cid)
            self.watch[lits[1]].append(cid)
            self.literal_rows = True
        else:  # binary clause: two implication edges
            l1, l2 = store.lits[cid]
            self.bin_adj[l1].append((l2, cid))
            self.bin_adj[l2].append((l1, cid))
            self.literal_rows = True
        return cid

    def kill_rows(self, dead: set):
        """Mark the general rows dead and take them out of the occurs lists
        of their variables; the store keeps them for reasons and cuts."""
        for cid in dead:
            self.store.remove(cid)
        sides = {(var, coeff > 0) for cid in dead
                 for var, coeff in self.store.constraints[cid].monomials}
        for var, positive in sides:
            occs = self.occ_pos[var] if positive else self.occ_neg[var]
            occs[:] = [occ for occ in occs if occ[0] not in dead]

    # -- push / pop ----------------------------------------------------------

    def push_bound(self, b: Bound, info: ReasonInfo, tier=None) -> int:
        trail = self.trail
        var = b.var
        if b.is_lower:
            delta = b.value - trail.lb[var]
            occs = self.occ_pos[var]
        else:
            delta = trail.ub[var] - b.value
            occs = self.occ_neg[var]
        height = trail.push(b, info)
        if info.is_decision:
            self.save_marks.append(len(self.saves))
            self.epoch = self.clock = self.clock + 1
        filters, in_queue, stamp, epoch = self.filters, self.in_queue, self.stamp, self.epoch
        for cid, weight in occs:
            old = filters[cid]
            if stamp[cid] < epoch:
                stamp[cid] = epoch
                self.saves.append((cid, old))
            new = old + weight * delta
            filters[cid] = new
            if new > 0 and not in_queue[cid]:
                in_queue[cid] = True
                self.queue.append(cid)
        if trail.lb[var] == trail.ub[var]:
            self.num_defined += 1
            self.last_value[var] = trail.lb[var]
        if tier is not None:
            self.stats.propagations[tier] += 1
        if self.trace is not None and not info.is_decision:
            cid = info.reason_constraint
            self.trace.emit(
                f"propagate {b.format(self.problem.var_names)} "
                f"reason={cid if cid is not None else 'none'} "
                f"set={{{','.join(str(h) for h in trail.reason_heights(height))}}}"
            )
        if self.post_push is not None:
            self.post_push(height)
        return height

    def pop_one(self):
        """Pop the top entry; ``pop_to`` restores filters, queue and cursors."""
        trail = self.trail
        var = trail.entries[-1].bound.var
        was_defined = trail.lb[var] == trail.ub[var]
        trail.pop()
        if was_defined and trail.lb[var] != trail.ub[var]:
            self.num_defined -= 1
            if self.on_undefined is not None:
                self.on_undefined(var)

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
        undone = self.saves[self.save_marks[level]:]
        del self.saves[self.save_marks[level]:], self.save_marks[level:]
        self.clock += 1
        self.epoch = self.clock if level else 0
        filters, queue, in_queue = self.filters, self.queue, self.in_queue
        recomputed = []
        for cid, old in reversed(undone):  # the oldest value is written last
            if old is None:  # registered above: exact here, saved for the level
                if not self.store.alive[cid]:
                    continue  # a dead row is never visited again
                old = exact_filter(self.store.constraints[cid], trail)
                recomputed.append(cid)
                if level:
                    self.stamp[cid] = self.epoch
                    self.saves.append((cid, None))
            filters[cid] = old
        # a restored save is <= 0, as the level started at a fixpoint: only
        # recomputed rows join the queue, in the order they were saved
        rows = [*queue, *reversed(recomputed)]
        queue.clear()
        for cid in rows:
            in_queue[cid] = False
        for cid in rows:
            if filters[cid] > 0 and not in_queue[cid]:
                in_queue[cid] = True
                queue.append(cid)

    # -- clause / binary tiers -------------------------------------------------
    # A literal code is true, false or open by the bounds of its binary
    # variable v: "1 <= v" (odd) is true iff lb[v] is 1 and false iff ub[v]
    # is 0; "v <= 0" (even) is true iff ub[v] is 0 and false iff lb[v] is 1.
    # The bound 1 <= v falsifies the code 2v, and v <= 0 the code 2v+1.

    def _clause_conflict(self, cid: int) -> Conflict:
        c = self.store.constraints[cid]
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
            self.push_bound(self.lit_bounds[other], self.reasons[cid], ConstraintStore.BINARY)
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
        all_lits, watched = self.store.lits, self.watched
        keep = []
        conflict = None
        for i, cid in enumerate(watchers):
            lits = all_lits[cid]
            w = watched[cid]
            w0, w1 = w
            if lits[w0] == false_lit:
                slot, other = 0, lits[w1]
            else:
                slot, other = 1, lits[w0]
            v = other >> 1
            if lb[v] if other & 1 else not ub[v]:  # the other watch is true
                keep.append(cid)
                continue
            for j, lit in enumerate(lits):  # the first open or true unwatched literal
                if j != w0 and j != w1 and (ub[lit >> 1] if lit & 1 else not lb[lit >> 1]):
                    w[slot] = j
                    watch[lit].append(cid)
                    break
            else:
                keep.append(cid)
                if not ub[v] if other & 1 else lb[v]:  # the other watch is false
                    conflict = self._clause_conflict(cid)
                    keep.extend(watchers[i + 1:])
                    break
                self.push_bound(self.lit_bounds[other], self.reasons[cid], ConstraintStore.CLAUSE)
        watch[false_lit] = keep
        return conflict

    # -- general tier ---------------------------------------------------------

    def _visit_general(self, cid: int) -> Optional[Conflict]:
        c = self.store.constraints[cid]
        trail = self.trail
        slack, widest = slack_and_widest(c, trail)
        if slack < 0:
            return find_conflict(c, trail, cid)
        if widest > slack:
            info = self.reasons[cid]
            for b in propagate_constraint(c, trail, slack):
                self.push_bound(b, info, tier=ConstraintStore.GENERAL)
            slack, widest = slack_and_widest(c, trail)
        if self.stamp[cid] < self.epoch:
            self.stamp[cid] = self.epoch
            self.saves.append((cid, self.filters[cid]))
        self.filters[cid] = widest - slack
        return None

    # -- the fixpoint loop ------------------------------------------------------

    def propagate_fixpoint(self) -> Optional[Conflict]:
        """Advance all tiers to the top of the trail; binary first, then
        clauses, then general constraints, restarting at the cheapest
        tier after every push.  With no clause or binary row filed, the
        literal tiers skip their entries; their cursors move to the top at
        the fixpoint.

        With a deadline set, raises OutOfTime once it has passed, checked
        every PUSHES_PER_DEADLINE_CHECK trail entries, read by a tier or not.
        """
        entries = self.trail.entries
        queue, alive, filters = self.queue, self.store.alive, self.filters
        deadline = self.deadline
        literal = self.literal_rows
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
                cid = queue.popleft()
                self.in_queue[cid] = False
                if not alive[cid] or filters[cid] <= 0:
                    continue
                conflict = self._visit_general(cid)
                if conflict is not None:
                    return conflict
                continue
            self.binary_cursor = self.clause_cursor = len(entries)
            return None
