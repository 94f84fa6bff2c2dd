"""Conflict analysis, backjumping and learning.

One rewrite loop serves both engines: the falsifying set of trail
heights is rewritten by replacing its topmost bound with that bound's
reason set until exactly one bound of the set remains at the highest
decision level involved.  The resolution engine then learns the negated
set as a constraint when its shape allows; the hybrid (cut) engine
additionally carries a conflicting constraint, updated by eliminating
cuts against reason constraints, which is always learned and can
justify an early backjump to a lower level.  ``analyze_resolution`` and
``analyze_hybrid`` stay the two entry points, for the search and for
hooks that wrap them by name.
"""

from __future__ import annotations

from bisect import bisect_right
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .model import COEFF_CAP, Bound, Constraint, cut, normalize
from .propagation import Conflict, ConstraintStore, propagated_bounds
from .trail import Trail


class AnalysisInfeasible(Exception):
    """The conflict is entailed below all decisions: the problem has no solution."""


class AnalysisResult(NamedTuple):
    pop_to: int  # new trail length after backjumping
    bound: Bound  # pushed with the reason info below
    reason_set: tuple  # heights, all < pop_to
    attach_cc: Optional[Constraint]  # reason constraint for the pushed bound
    learned: tuple  # constraints to add to the store
    early: bool
    bumped_vars: frozenset
    touched_cids: tuple  # conflicting/reason constraints seen (activity counters)


class EarlyBackjump(NamedTuple):
    cutoff: int  # new trail length
    bound: Bound
    reason_set: tuple


def _stop_state(cs, trail):
    """(h_top, rest_top) when the rewriting must stop, else None.

    Stops when the topmost bound of the set is the only one within its
    own decision level (the classic condition when that level is the
    trail's top level; the generalisation covers conflicts discovered
    below the top, which can happen with freshly learned constraints).
    Raises AnalysisInfeasible when the whole set sits at level 0.
    """
    h_top = max(cs)
    level = trail.decision_level_of(h_top)
    if level == 0:
        raise AnalysisInfeasible
    start = trail.level_start(level)
    rest_top = max((h for h in cs if h != h_top), default=-1)
    if rest_top < start:
        return h_top, rest_top
    return None


def _backjump_height(rest_top: int, trail: Trail) -> int:
    """Pop to just below the (l+1)-th decision, l the deepest level in rest."""
    l = trail.decision_level_of(rest_top) if rest_top >= 0 else 0
    return trail.decision_heights[l]


def analyze_resolution(conflict: Conflict, trail: Trail, store: ConstraintStore,
                       problem, trace=None, probe=None) -> AnalysisResult:
    return _analyze(conflict, trail, store, problem, trace, probe, cut_mode=False)


def analyze_hybrid(conflict: Conflict, trail: Trail, store: ConstraintStore,
                   problem, trace=None, probe=None) -> AnalysisResult:
    return _analyze(conflict, trail, store, problem, trace, probe, cut_mode=True)


def _analyze(conflict, trail, store, problem, trace, probe, cut_mode):
    cs = set(conflict.cs)
    cc = store.constraints[conflict.cid] if cut_mode else None
    cc_label = str(conflict.cid)
    bumped = {trail.entries[h].bound.var for h in cs}
    touched = [conflict.cid]
    pending_scan = cut_mode  # scan once per distinct conflicting constraint
    hit = None
    if probe is not None:
        probe(frozenset(cs))
    while hit is None:
        stop = _stop_state(cs, trail)
        if stop is not None:
            break
        h = max(cs)
        entry = trail.entries[h]
        assert not entry.info.is_decision
        rc_cid = entry.info.reason_constraint
        if rc_cid is not None:
            touched.append(rc_cid)
        cs.discard(h)
        cs.update(entry.info.reason_set)
        for rh in entry.info.reason_set:
            bumped.add(trail.entries[rh].bound.var)
        if trace is not None:
            names = problem.var_names
            added = ", ".join(trail.entries[rh].bound.format(names)
                              for rh in entry.info.reason_set)
            trace.emit(f"analyze step: drop {entry.bound.format(names)} add {{{added}}}")
        if probe is not None:
            probe(frozenset(cs))
        if not cut_mode:
            continue
        if rc_cid is not None:
            rc = store.constraints[rc_cid]
            new_cc = cut(cc, rc, entry.bound.var)
            if new_cc is not None:
                if new_cc.is_contradiction():
                    raise AnalysisInfeasible
                if not new_cc.is_tautology():
                    skip = cut_skip_check(cc, rc, entry.bound.var)
                    if trace is not None:
                        trace.emit(
                            f"cut {cc_label}×{rc_cid} on "
                            f"{problem.name_of(entry.bound.var)} → "
                            f"{new_cc.format(problem.var_names)}"
                        )
                    cc = new_cc
                    cc_label = "cc"
                    pending_scan = not skip
        if pending_scan and cc.monomials:
            pending_scan = False
            hit = early_backjump_scan(cc, trail)
    if hit is not None:
        if trace is not None:
            trace.emit(f"early-backjump k={len(trail) - hit.cutoff} push "
                       f"{hit.bound.format(problem.var_names)}")
        pop_to, bound, reason_set = hit
    else:
        h_top, rest_top = stop
        pop_to = _backjump_height(rest_top, trail)
        bound = trail.entries[h_top].bound.negated()
        reason_set = tuple(sorted(cs - {h_top}))
    if cut_mode:
        learned = (cc,)
    else:
        # level-0 bounds hold in every later state, so their negations
        # can be left out of the learned clause
        level0_end = trail.level_start(1)
        lits = [trail.entries[h].bound.negated() for h in sorted(cs) if h >= level0_end]
        clause = clause_to_constraint(lits, problem)
        learned = (clause,) if clause is not None else ()
    return AnalysisResult(
        pop_to=pop_to,
        bound=bound,
        reason_set=reason_set,
        attach_cc=cc,
        learned=learned,
        early=hit is not None,
        bumped_vars=frozenset(bumped),
        touched_cids=tuple(touched),
    )


def cut_skip_check(cc: Constraint, rc: Constraint, var: int) -> bool:
    """True when an eliminating cut cannot enable an early backjump.

    Holds when the premises share only the eliminated variable: both
    were already propagated exhaustively, and a cut of constraints with
    disjoint remaining support propagates nothing its premises did not.
    """
    common = set(cc.vars()) & set(rc.vars())
    return common == {var}


def early_backjump_scan(cc: Constraint, trail: Trail) -> Optional[EarlyBackjump]:
    """Deepest level-prefix of the trail where cc propagates a fresh bound.

    Candidate states are the trail prefixes ending just below each
    decision, scanned from level 0 upward; the first hit gives the
    maximal number of popped bounds.  One walk down the chains of cc's
    variables gives their level-0 bounds and later entries, applied in
    height order to the slack and their term's width; a prefix that adds
    no entry is not tested again.  Once cc is false the scan ends (false
    at level 0: the problem is infeasible).  The hit's bound comes from
    ``propagated_bounds``, its reasons from ``height_of_strongest_below``.
    """
    decisions = trail.decision_heights
    if not cc.monomials or not decisions:
        return None
    entries, first, last = trail.entries, decisions[0], decisions[-1]
    lb, ub, widths, coeffs = {}, {}, {}, dict(cc.monomials)
    above = []  # heights of cc's entries from level 1 to the last but one
    slack = cc.rhs
    for var, coeff in cc.monomials:
        p = trail.pl[var]
        while p >= first:
            if p < last:  # the top level lies in no prefix
                above.append(p)
            p = entries[p].pos
        lb[var] = entries[p].bound.value if p >= 0 else trail.initial_lb[var]
        p = trail.pu[var]
        while p >= first:
            if p < last:
                above.append(p)
            p = entries[p].pos
        ub[var] = entries[p].bound.value if p >= 0 else trail.initial_ub[var]
        slack -= coeff * (lb[var] if coeff > 0 else ub[var])
        widths[var] = abs(coeff) * (ub[var] - lb[var])
    above.sort()
    k = level = 0
    while True:
        cutoff = decisions[level]
        while k < len(above) and above[k] < cutoff:
            var, is_lower, value = entries[above[k]].bound
            coeff, bounds = coeffs[var], lb if is_lower else ub
            if is_lower == (coeff > 0):  # the slack reads this bound
                slack -= coeff * (value - bounds[var])
            bounds[var] = value
            widths[var] = abs(coeff) * (ub[var] - lb[var])
            k += 1
        if slack < 0:
            if level == 0:
                raise AnalysisInfeasible
            return None
        if max(widths.values()) > slack:
            break
        if k == len(above):
            return None
        level = bisect_right(decisions, above[k])  # next prefix with a new entry
    i, b = propagated_bounds(cc, SimpleNamespace(lb=lb, ub=ub), slack)[0]
    reason = sorted(trail.height_of_strongest_below(other, ocoeff > 0, cutoff)
                    for j, (other, ocoeff) in enumerate(cc.monomials) if j != i)
    return EarlyBackjump(cutoff, b, tuple(reason))


def clause_to_constraint(lits, problem) -> Optional[Constraint]:
    """Constraint equivalent (over the box) to a disjunction of bounds.

    Convertible shapes: bounds on binary variables of the literal forms
    "1 <= x" / "y <= 0", plus at most one bound on a further variable.
    All variables must be distinct.  Returns None when the shape does
    not match or a coefficient would exceed the cap.
    """
    if not lits:
        return None
    if len({l.var for l in lits}) != len(lits):
        return None
    binary_true = []
    binary_false = []
    general = []
    for l in lits:
        if problem.is_binary(l.var) and l.is_lower and l.value == 1:
            binary_true.append(l.var)
        elif problem.is_binary(l.var) and not l.is_lower and l.value == 0:
            binary_false.append(l.var)
        else:
            general.append(l)
    if len(general) > 1:
        return None
    n_false = len(binary_false)
    if not general:
        terms = [(v, -1) for v in binary_true] + [(v, 1) for v in binary_false]
        return normalize(terms, n_false - 1)
    var, is_lower, k = general[0]
    lb0 = problem.initial_lb[var]
    ub0 = problem.initial_ub[var]
    if is_lower:
        if not lb0 < k <= ub0:
            return None
        w = k - lb0
        sign = -1
    else:
        if not lb0 <= k < ub0:
            return None
        w = ub0 - k
        sign = 1
    terms = [(v, -w) for v in binary_true] + [(v, w) for v in binary_false]
    terms.append((var, sign))
    rhs = n_false * w + sign * k
    if any(abs(c) > COEFF_CAP for _, c in terms) or abs(rhs) > COEFF_CAP:
        return None
    return normalize(terms, rhs)
