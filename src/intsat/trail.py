"""The assignment stack: bounds with reason metadata, plus flat value
lists `lb[]` / `ub[]` so that reading a current bound is one list index.
`pop` restores them from the entry's `pos` link or the initial bounds.

Reason sets are stored as trail heights.  Heights are stable while the
bound is on the stack, and a reason bound is always popped after every
bound it justified, so the references never dangle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from .model import Bound


class ReasonInfo(NamedTuple):
    reason_set: tuple  # trail heights, empty for decisions
    reason_constraint: Optional[int]  # constraint id in the store, or None
    is_decision: bool

    @staticmethod
    def decision() -> "ReasonInfo":
        return ReasonInfo((), None, True)

    @staticmethod
    def propagated(heights, cid) -> "ReasonInfo":
        return ReasonInfo(tuple(heights), cid, False)


DECISION = ReasonInfo.decision()


class TrailEntry(NamedTuple):
    bound: Bound
    pos: int  # height of the previous bound of the same kind for this var, -1 if none
    info: ReasonInfo


class Trail:
    """Stack of bound entries over a fixed set of variables.

    `lb[v]` / `ub[v]` hold the current bounds of `v`, and `pl[v]` /
    `pu[v]` the height of the entry that set them, or -1 before any has
    been pushed.  The `pos` field of each entry chains to the previous
    entry of the same (variable, kind), so popping restores both in O(1).
    """

    def __init__(self, num_vars, initial_lb, initial_ub):
        self.num_vars = num_vars
        self.initial_lb = list(initial_lb)
        self.initial_ub = list(initial_ub)
        self.lb = list(initial_lb)
        self.ub = list(initial_ub)
        self.entries = []
        self.pl = [-1] * num_vars
        self.pu = [-1] * num_vars
        self.decision_heights = []  # heights of decision entries, increasing

    def __len__(self):
        return len(self.entries)

    @property
    def num_decisions(self) -> int:
        return len(self.decision_heights)

    def current_lb(self, var: int) -> int:
        return self.lb[var]

    def current_ub(self, var: int) -> int:
        return self.ub[var]

    def current_bounds(self, var: int):
        return self.lb[var], self.ub[var]

    def is_defined(self, var: int) -> bool:
        return self.lb[var] == self.ub[var]

    def is_fresh(self, b: Bound) -> bool:
        """True iff pushing b would strictly tighten a non-empty interval."""
        var, is_lower, value = b
        if is_lower:
            return self.lb[var] < value <= self.ub[var]
        return self.lb[var] <= value < self.ub[var]

    def push(self, b: Bound, info: ReasonInfo, seed: bool = False) -> int:
        if seed:
            # initial bounds enter the trail verbatim, before search starts
            assert (self.pl[b.var] if b.is_lower else self.pu[b.var]) == -1
        else:
            assert self.is_fresh(b), f"pushing non-fresh bound {b}"
        height = len(self.entries)
        assert all(h < height for h in info.reason_set)
        var, is_lower, value = b
        if is_lower:
            pos = self.pl[var]
            self.pl[var] = height
            self.lb[var] = value
        else:
            pos = self.pu[var]
            self.pu[var] = height
            self.ub[var] = value
        self.entries.append(TrailEntry(b, pos, info))
        if info.is_decision:
            self.decision_heights.append(height)
        return height

    def pop(self) -> TrailEntry:
        assert self.entries, "pop on empty trail"
        entry = self.entries.pop()
        var = entry.bound.var
        pos = entry.pos
        if entry.bound.is_lower:
            self.pl[var] = pos
            self.lb[var] = self.entries[pos].bound.value if pos >= 0 else self.initial_lb[var]
        else:
            self.pu[var] = pos
            self.ub[var] = self.entries[pos].bound.value if pos >= 0 else self.initial_ub[var]
        if entry.info.is_decision:
            self.decision_heights.pop()
        return entry

    def decision_level_of(self, height: int) -> int:
        """Level 0 lies below the first decision; level i starts at the i-th."""
        if not 0 <= height < len(self.entries):
            raise IndexError(f"height {height} out of range")
        return bisect_right(self.decision_heights, height)

    def level_start(self, level: int) -> int:
        """Height of the first entry of the given level."""
        if level == 0:
            return 0
        if level > len(self.decision_heights):
            raise IndexError(f"level {level} out of range")
        return self.decision_heights[level - 1]

    def bounds_at_height(self, var: int, cutoff: int):
        """Strongest (lb, ub) of var among entries below `cutoff`.

        Walks the pos chains, so the cost is the number of entries of
        this variable above the cutoff.  Only the tests and the benchmark
        tracer, which wraps it by name, still call it.
        """
        p = self.pl[var]
        while p >= cutoff:
            p = self.entries[p].pos
        lb = self.entries[p].bound.value if p >= 0 else self.initial_lb[var]
        p = self.pu[var]
        while p >= cutoff:
            p = self.entries[p].pos
        ub = self.entries[p].bound.value if p >= 0 else self.initial_ub[var]
        return lb, ub

    def height_of_strongest_below(self, var: int, lower: bool, cutoff: int) -> int:
        p = self.pl[var] if lower else self.pu[var]
        while p >= cutoff:
            p = self.entries[p].pos
        return p

    def dump_lines(self, names=None):
        """Debug dump, one line per entry (see the trace format)."""
        lines = []
        for h, entry in enumerate(self.entries):
            b = entry.bound
            kind = "lb" if b.is_lower else "ub"
            name = names[b.var] if names else f"x{b.var}"
            level = self.decision_level_of(h)
            if entry.info.is_decision:
                reason = "decision"
            else:
                hs = ",".join(str(x) for x in entry.info.reason_set)
                reason = "reason={" + hs + "}"
            cid = entry.info.reason_constraint
            lines.append(
                f"{h} {kind} {name} {b.value} {level} {reason} "
                f"constraint={cid if cid is not None else 'none'}"
            )
        return lines


def termination_measure(trail: Trail, initial_lb, initial_ub) -> tuple:
    """Well-founded measure: aggregated domain sizes per decision-level prefix.

    Component i is the total domain size of the trail prefix strictly
    below the (i+1)-th decision (the whole trail when fewer decisions
    exist).  The tuple has one component per possible decision plus one,
    and decreases lexicographically at every fresh push and every
    backjump.
    """
    n = trail.num_vars
    max_decisions = sum(u - l for l, u in zip(initial_lb, initial_ub))
    lb = list(initial_lb)
    ub = list(initial_ub)
    values = []
    next_cut = 0  # index into decision_heights
    total = sum(u - l + 1 for l, u in zip(lb, ub))
    for h, entry in enumerate(trail.entries):
        while next_cut < len(trail.decision_heights) and trail.decision_heights[next_cut] == h:
            values.append(total)
            next_cut += 1
        b = entry.bound
        if b.is_lower:
            total -= b.value - lb[b.var]
            lb[b.var] = b.value
        else:
            total -= ub[b.var] - b.value
            ub[b.var] = b.value
    while len(values) <= max_decisions:
        values.append(total)
    return tuple(values)
