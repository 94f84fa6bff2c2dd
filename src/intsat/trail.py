"""The assignment stack: bounds with reason metadata, plus flat value
lists `lb[]` / `ub[]` so that reading a current bound is one list index.
The trail is born holding the initial box as level-0 seeds, so `pop_to`
restores a bound from the entry's `pos` link alone.  It undoes every
entry above a height in one loop, as MiniSat's ``cancelUntil`` does, and
the ``Propagator`` calls it once per undone decision level.

Reason sets are trail heights, stable while the bound is on the stack;
a reason bound is always popped after every bound it justified.  A bound
a row propagated keeps the row, and ``reason_heights`` derives its set
on demand; seeds, decisions and analysis bounds keep an explicit set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from .model import Bound, Constraint


class ReasonInfo(NamedTuple):
    reason_set: Optional[tuple]  # trail heights, () for seeds and decisions; None: from reason_row
    reason_constraint: Optional[int]  # the row's cid in the Propagator, or None
    reason_row: Optional[Constraint] = None  # the row that propagated the bound

    @staticmethod
    def propagated(heights, cid) -> "ReasonInfo":
        return ReasonInfo(tuple(heights), cid)


# A bound is a decision iff its reason is this object: a seed's reason,
# or any other empty one, compares equal to it but is not it.
DECISION = ReasonInfo((), None)


class TrailEntry(NamedTuple):
    bound: Bound
    pos: int  # height of the previous bound of the same kind for this var, -1 for a seed
    info: ReasonInfo


class Trail:
    """Stack of bound entries over a fixed set of variables.

    It starts with 2n level-0 seeds, the initial lower then upper bound of
    each variable in turn, which are never popped.  `lb[v]` / `ub[v]` hold
    the current bounds of `v`, and `pl[v]` / `pu[v]` the height of the
    entry that set them.  The `pos` field of each entry chains to the
    previous entry of the same (variable, kind), so popping an entry
    restores both in O(1).
    """

    def __init__(self, num_vars, initial_lb, initial_ub):
        self.num_vars = num_vars
        self.lb = list(initial_lb)
        self.ub = list(initial_ub)
        seed = ReasonInfo((), None)  # the box holds unconditionally
        self.entries = [TrailEntry(Bound(var, is_lower, value), -1, seed)
                        for var in range(num_vars)
                        for is_lower, value in ((True, self.lb[var]), (False, self.ub[var]))]
        self.pl = list(range(0, 2 * num_vars, 2))
        self.pu = list(range(1, 2 * num_vars, 2))
        self.decision_heights = []  # heights of decision entries, increasing

    def __len__(self):
        return len(self.entries)

    @property
    def num_decisions(self) -> int:
        return len(self.decision_heights)

    def push(self, b: Bound, info: ReasonInfo) -> int:
        """Push b, which must strictly tighten a non-empty interval, with
        every explicit reason height below its own."""
        var, is_lower, value = b
        assert (self.lb[var] < value <= self.ub[var] if is_lower
                else self.lb[var] <= value < self.ub[var]), f"pushing non-fresh bound {b}"
        height = len(self.entries)
        assert not info.reason_set or max(info.reason_set) < height, \
            f"reason heights {info.reason_set} not below {height}"
        if info is DECISION:
            self.decision_heights.append(height)
        if is_lower:
            pos = self.pl[var]
            self.pl[var] = height
            self.lb[var] = value
        else:
            pos = self.pu[var]
            self.pu[var] = height
            self.ub[var] = value
        # tuple.__new__ makes the entry with no Python frame, as normalize does
        self.entries.append(tuple.__new__(TrailEntry, (b, pos, info)))
        return height

    def pop_to(self, height: int):
        """Pop every entry at or above ``height``, a height at or above the
        end of the seeds, newest first: each (variable, kind) ends at the
        `pos` link of its oldest popped entry."""
        entries = self.entries
        assert height >= 2 * self.num_vars, "popping a level-0 seed"
        lb, ub, pl, pu = self.lb, self.ub, self.pl, self.pu
        for (var, is_lower, _), pos, _ in reversed(entries[height:]):
            if is_lower:
                pl[var] = pos
                lb[var] = entries[pos][0][2]
            else:
                pu[var] = pos
                ub[var] = entries[pos][0][2]
        del entries[height:]
        decisions = self.decision_heights
        del decisions[bisect_left(decisions, height):]

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
        """Strongest (lb, ub) of var among entries below `cutoff`, a height
        at or above the end of the seeds.

        Walks the pos chains, so the cost is the number of entries of
        this variable above the cutoff.  The early-backjump scan reads a
        unit row's level-0 box with it, and the benchmark's tracer
        (``bench/tracer.py``) wraps it and the next method by name.
        """
        entries = self.entries
        return (entries[self.height_of_strongest_below(var, True, cutoff)].bound.value,
                entries[self.height_of_strongest_below(var, False, cutoff)].bound.value)

    def height_of_strongest_below(self, var: int, lower: bool, cutoff: int) -> int:
        """Height of var's strongest bound of a kind below `cutoff`."""
        p = self.pl[var] if lower else self.pu[var]
        while p >= cutoff:
            p = self.entries[p].pos
        return p

    def reason_heights(self, height: int) -> tuple:
        """The entry's explicit reason set, or for a bound its row propagated,
        the height of the strongest bound below it of each other variable of
        the row on the side the row's minimum reads, in row order: the set at
        push time, as a row never propagates on the sides its minimum reads."""
        entry = self.entries[height]
        info = entry.info
        if info.reason_set is not None:
            return info.reason_set
        skip, entries, out = entry.bound.var, self.entries, []
        for var, coeff in info.reason_row.monomials:
            if var != skip:
                p = self.pl[var] if coeff > 0 else self.pu[var]
                while p >= height:
                    p = entries[p].pos
                out.append(p)
        return tuple(out)

    def dump_lines(self, names=None):
        """Debug dump, one line per entry (see the trace format)."""
        lines = []
        for h, entry in enumerate(self.entries):
            b = entry.bound
            kind = "lb" if b.is_lower else "ub"
            name = names[b.var] if names else f"x{b.var}"
            level = self.decision_level_of(h)
            if entry.info is DECISION:
                reason = "decision"
            else:
                hs = ",".join(str(x) for x in self.reason_heights(h))
                reason = "reason={" + hs + "}"
            cid = entry.info.reason_constraint
            lines.append(
                f"{h} {kind} {name} {b.value} {level} {reason} "
                f"constraint={cid if cid is not None else 'none'}"
            )
        return lines
