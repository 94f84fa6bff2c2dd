"""Bound propagation to fixpoint with conflict detection.

Constraints live in three tiers:

* general constraints, visited through per-variable occurs lists and a
  cheap per-constraint filter that certifies "cannot propagate" without
  touching the constraint;
* clauses (input set-covering style constraints over binary variables),
  propagated with two watched literals;
* binary clauses, kept as edges of a binary implication graph.

A general-row visit reads the row's bounds in one ``slack_and_widest``
pass and calls ``find_conflict`` or ``propagate_constraint`` only when
that pass says they fire; a visit that propagates reads the new widths
once more for its filter.  One-variable rows the initial box implies,
such as the seed box rows, are never visited.

``propagated_bounds`` is the one rule for the bounds a row propagates.
It reads only the ``lb``/``ub`` of its bounds argument, so the
early-backjump scan, which finds its level in one sweep, applies it and
the reason rule below to a past trail prefix at its hit.

All three tiers share one extraction rule for conflict sets and reason
sets: the height of the current strongest bound of each variable on the
side its coefficient uses.
"""

from __future__ import annotations

import time
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


def falsifying_heights(c: Constraint, trail: Trail, skip_var=None) -> tuple:
    """Heights of the strongest bound of each variable on its min side."""
    heights = []
    for var, coeff in c.monomials:
        if var == skip_var:
            continue
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


def propagate_constraint(c: Constraint, trail: Trail, slack: Optional[int] = None):
    """All fresh bounds the constraint propagates under the current trail,
    as (bound, reason heights) pairs in row order, all taken from the
    current trail; the caller must have ruled out a conflict first, and
    may pass the row's slack if it holds it.
    """
    if slack is None:
        slack = slack_and_widest(c, trail)[0]
    heights = falsifying_heights(c, trail)
    return [(b, heights[:i] + heights[i + 1:])
            for i, b in propagated_bounds(c, trail, slack)]


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
        self.lits = []  # literal view for clause/binary tiers
        self.learned_since_cleanup = 0
        self.learned_bytes = 0

    def __len__(self):
        return len(self.constraints)

    def alive_cids(self):
        return [i for i, a in enumerate(self.alive) if a]

    def _as_clause(self, c: Constraint):
        """Literal view if the constraint is a clause over binary variables."""
        lits = []
        positives = 0
        for var, coeff in c.monomials:
            if not self.problem.is_binary(var) or abs(coeff) != 1:
                return None
            if coeff < 0:
                lits.append(Bound(var, True, 1))  # the literal "var is true"
            else:
                positives += 1
                lits.append(Bound(var, False, 0))  # "var is false"
        if c.rhs != positives - 1:
            return None
        return lits

    def add(self, c: Constraint, initial: bool, mid_search: bool = False) -> int:
        """File the row in its tier.  Only initial rows added before the
        search are clauses: the clause tiers see bounds pushed after the
        row exists, so a row added mid-search (learned, or strengthening
        the objective) goes to the general tier, which checks it against
        the current trail when it is registered."""
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

    def bump_activity(self, cid: int):
        if not self.initial[cid]:
            self.activity[cid] += 1

    def remove(self, cid: int):
        assert not self.initial[cid]
        if self.alive[cid]:
            self.alive[cid] = False
            self.learned_bytes -= 64 + 16 * len(self.constraints[cid].monomials)


REGISTERED = object()  # undo-log sentinel for mid-trail registrations


class Propagator:
    """Owns the trail and the constraint indexes; the single push/pop path.

    Everything that changes the trail goes through push_bound / pop_to so
    filters, cursors and phase saving stay consistent.
    """

    def __init__(self, problem, store: ConstraintStore, trail: Trail,
                 stats=None, trace=None):
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
        # every filter mutation is journaled against the trail height it
        # happened under, so popping restores the exact earlier values;
        # REGISTERED entries mark constraints added mid-trail, whose
        # filter must be recomputed from scratch when unwinding past them
        self.filter_log = []
        self.filter_marks = []
        self.queue = deque()
        self.watch = {}  # (var, lit_is_lower) -> clause cids watching that literal
        self.watched = {}  # cid -> [lit index, lit index]
        self.bin_adj = {}  # (var, lit_is_lower) -> [(implied lit, cid)]
        self.binary_cursor = 0
        self.clause_cursor = 0
        self.num_defined = 0
        self.last_value = [None] * n  # phase saving: last defined value
        self.post_push = None  # optional hook, called after every push
        self.on_undefined = None  # optional hook, var became undefined by a pop
        self.deadline = None  # time.monotonic() value checked during fixpoints

    # -- index construction -------------------------------------------------

    def register_constraint(self, cid: int):
        store = self.store
        while len(self.filters) < len(store):
            self.filters.append(0)
            self.in_queue.append(False)
        c = store.constraints[cid]
        kind = store.kind[cid]
        if kind == ConstraintStore.GENERAL:
            if self._implied_by_box(c):
                return  # e.g. the seed box rows: never false, never propagate
            for var, coeff in c.monomials:
                if coeff > 0:
                    self.occ_pos[var].append((cid, coeff))
                else:
                    self.occ_neg[var].append((cid, -coeff))
            self.filters[cid] = exact_filter(c, self.trail)
            if self.filter_marks:  # registered mid-trail: recompute on unwind
                self.filter_log.append((cid, REGISTERED))
            if self.filters[cid] > 0 and not self.in_queue[cid]:
                self.in_queue[cid] = True
                self.queue.append(cid)
        elif kind == ConstraintStore.CLAUSE:
            lits = store.lits[cid]
            self.watched[cid] = [0, 1]
            for i in (0, 1):
                lit = lits[i]
                self.watch.setdefault((lit.var, lit.is_lower), []).append(cid)
        else:  # binary clause: two implication edges
            l1, l2 = store.lits[cid]
            self.bin_adj.setdefault((l1.var, l1.is_lower), []).append((l2, cid))
            self.bin_adj.setdefault((l2.var, l2.is_lower), []).append((l1, cid))

    def rebuild_indexes(self):
        """Recompute occurs lists, watches and filters from alive constraints."""
        n = self.problem.num_vars
        self.occ_pos = [[] for _ in range(n)]
        self.occ_neg = [[] for _ in range(n)]
        self.watch = {}
        self.watched = {}
        self.bin_adj = {}
        self.queue.clear()
        self.filters = [0] * len(self.store)
        self.in_queue = [False] * len(self.store)
        # rebuilds happen at level 0; nothing below the current top is
        # ever popped again, so the journal can start over
        self.filter_log = []
        self.filter_marks = []
        for cid in self.store.alive_cids():
            self.register_constraint(cid)
        self.filter_marks = [0] * len(self.trail)
        # both literal tiers re-read the level-0 trail: the new watches
        # and edges may sit on literals that are already false there
        self.binary_cursor = self.clause_cursor = 0

    def _implied_by_box(self, c: Constraint) -> bool:
        """A one-variable row that the initial box satisfies: bounds only
        tighten inside the box, so it is never false and never propagates.
        It stays in the store (seed box rows are the seeds' reasons)."""
        if len(c.monomials) != 1:
            return False
        var, coeff = c.monomials[0]
        if coeff > 0:
            return coeff * self.problem.initial_ub[var] <= c.rhs
        return coeff * self.problem.initial_lb[var] <= c.rhs

    # -- push / pop ----------------------------------------------------------

    def note_seed_push(self):
        """Keep the undo journal aligned with seed entries pushed directly."""
        self.filter_marks.append(len(self.filter_log))

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
        log, filters, in_queue = self.filter_log, self.filters, self.in_queue
        self.filter_marks.append(len(log))
        alive = self.store.alive
        for cid, weight in occs:
            if not alive[cid]:
                continue
            old = filters[cid]
            log.append((cid, old))
            new = old + weight * delta
            filters[cid] = new
            if new > 0 and not in_queue[cid]:
                in_queue[cid] = True
                self.queue.append(cid)
        if trail.lb[var] == trail.ub[var]:
            self.num_defined += 1
            self.last_value[var] = trail.lb[var]
        if self.stats is not None and tier is not None:
            self.stats.propagations[tier] += 1
        if self.trace is not None and not info.is_decision:
            cid = info.reason_constraint
            self.trace.emit(
                f"propagate {b.format(self.problem.var_names)} "
                f"reason={cid if cid is not None else 'none'} "
                f"set={{{','.join(str(h) for h in info.reason_set)}}}"
            )
        if self.post_push is not None:
            self.post_push(height)
        return height

    def pop_one(self):
        trail = self.trail
        var = trail.entries[-1].bound.var
        was_defined = trail.lb[var] == trail.ub[var]
        entry = trail.pop()
        if was_defined and trail.lb[var] != trail.ub[var]:
            self.num_defined -= 1
            if self.on_undefined is not None:
                self.on_undefined(var)
        mark = self.filter_marks.pop()
        log = self.filter_log
        if len(log) > mark:
            undone = log[mark:]
            del log[mark:]
            filters, alive, in_queue = self.filters, self.store.alive, self.in_queue
            for cid, old in reversed(undone):  # the oldest value is written last
                if old is REGISTERED:
                    old = exact_filter(self.store.constraints[cid], trail)
                filters[cid] = old
                if old > 0 and alive[cid] and not in_queue[cid]:
                    in_queue[cid] = True
                    self.queue.append(cid)
        top = len(trail.entries)
        if self.binary_cursor > top:
            self.binary_cursor = top
        if self.clause_cursor > top:
            self.clause_cursor = top
        return entry

    def pop_to(self, height: int):
        while len(self.trail) > height:
            self.pop_one()

    # -- clause / binary tier helpers ----------------------------------------

    @staticmethod
    def _falsify_key(b: Bound):
        """Literal-falsification event of a pushed bound, if any."""
        if b.is_lower and b.value >= 1:
            return (b.var, False)  # falsifies the literal "var is false"
        if not b.is_lower and b.value <= 0:
            return (b.var, True)  # falsifies the literal "var is true"
        return None

    def _lit_status(self, lit: Bound):
        """1 satisfied, 0 undefined, -1 falsified under current bounds."""
        lb, ub = self.trail.current_bounds(lit.var)
        if lit.is_lower:  # literal "1 <= var"
            if lb >= lit.value:
                return 1
            return -1 if ub < lit.value else 0
        if ub <= lit.value:
            return 1
        return -1 if lb > lit.value else 0

    def _push_from_clause(self, lit: Bound, cid: int, tier: str) -> bool:
        c = self.store.constraints[cid]
        reason = falsifying_heights(c, self.trail, skip_var=lit.var)
        self.push_bound(lit, ReasonInfo.propagated(reason, cid), tier=tier)
        return True

    def _clause_conflict(self, cid: int) -> Conflict:
        c = self.store.constraints[cid]
        return Conflict(cid, falsifying_heights(c, self.trail))

    def _process_binary_entry(self, height: int) -> Optional[Conflict]:
        key = self._falsify_key(self.trail.entries[height].bound)
        if key is None:
            return None
        for other, cid in self.bin_adj.get(key, ()):  # explicit edges
            status = self._lit_status(other)
            if status == 1:
                continue
            if status == -1:
                return self._clause_conflict(cid)
            self._push_from_clause(other, cid, ConstraintStore.BINARY)
        return None

    def _process_clause_entry(self, height: int) -> Optional[Conflict]:
        key = self._falsify_key(self.trail.entries[height].bound)
        if key is None:
            return None
        watchers = self.watch.get(key)
        if not watchers:
            return None
        keep = []
        conflict = None
        i = 0
        while i < len(watchers):
            cid = watchers[i]
            i += 1
            if not self.store.alive[cid]:
                continue
            lits = self.store.lits[cid]
            w = self.watched[cid]
            # which of the two watches is the falsified literal?
            if (lits[w[0]].var, lits[w[0]].is_lower) == key:
                this_slot, other_slot = 0, 1
            else:
                this_slot, other_slot = 1, 0
            other_lit = lits[w[other_slot]]
            if self._lit_status(other_lit) == 1:
                keep.append(cid)
                continue
            moved = False
            for j, lit in enumerate(lits):
                if j in w:
                    continue
                if self._lit_status(lit) != -1:
                    w[this_slot] = j
                    self.watch.setdefault((lit.var, lit.is_lower), []).append(cid)
                    moved = True
                    break
            if moved:
                continue
            keep.append(cid)
            status = self._lit_status(other_lit)
            if status == -1:
                conflict = self._clause_conflict(cid)
                keep.extend(watchers[i:])
                break
            if status == 0:
                self._push_from_clause(other_lit, cid, ConstraintStore.CLAUSE)
        self.watch[key] = keep
        return conflict

    # -- general tier ---------------------------------------------------------

    def _visit_general(self, cid: int) -> Optional[Conflict]:
        c = self.store.constraints[cid]
        trail = self.trail
        slack, widest = slack_and_widest(c, trail)
        if slack < 0:
            return find_conflict(c, trail, cid)
        if widest > slack:
            for b, reason in propagate_constraint(c, trail, slack):
                self.push_bound(b, ReasonInfo.propagated(reason, cid),
                                tier=ConstraintStore.GENERAL)
            slack, widest = slack_and_widest(c, trail)
        if self.filter_marks:
            self.filter_log.append((cid, self.filters[cid]))
        self.filters[cid] = widest - slack
        return None

    # -- the fixpoint loop ------------------------------------------------------

    def propagate_fixpoint(self) -> Optional[Conflict]:
        """Advance all tiers to the top of the trail; binary first, then
        clauses, then general constraints, restarting at the cheapest
        tier after every push.

        With a deadline set, raises OutOfTime once it has passed, checked
        every PUSHES_PER_DEADLINE_CHECK trail entries.
        """
        entries = self.trail.entries
        queue, alive, filters = self.queue, self.store.alive, self.filters
        deadline = self.deadline
        entries_seen = 0
        while True:
            if self.binary_cursor < len(entries):
                if deadline is not None:
                    entries_seen += 1
                    if (entries_seen % PUSHES_PER_DEADLINE_CHECK == 0
                            and time.monotonic() >= deadline):
                        raise OutOfTime
                conflict = self._process_binary_entry(self.binary_cursor)
                self.binary_cursor += 1
                if conflict is not None:
                    return conflict
                continue
            if self.clause_cursor < len(entries):
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
            return None
