"""Conflict analysis, backjumping and learning.

One rewrite loop serves both engines: the falsifying set of trail
heights is rewritten by replacing its topmost bound with that bound's
reason set until exactly one bound of the set remains at its decision
level.  It is one walk down the trail with a counter of the set's
heights at that level, as in MiniSat (Een & Sorensson, SAT 2003).  The
resolution engine then learns the negated set as a constraint when its
shape allows, and supplies a clause over binary variables with its
literal codes, built from the set in MiniSat's watch order, which the
Solver files as they are.  The hybrid (cut) engine additionally carries
a conflicting constraint, updated by eliminating cuts against reason
constraints, and learns it only once a cut derived it.  A learned row
is the reason row of its bound, as in MiniSat, but for a resolution
unit: it lands at level 0, and the Solver pushes its bound with no row.
After the first rewrite step and after each new cut, if that constraint
is a unit row, ``early_backjump_scan`` checks whether it tightens its
variable's level-0 box; a longer row is never scanned.  A hit stops the
walk early: it backjumps to level 0 and pushes the row's bound there
with an empty reason set, as MiniSat goes to level 0 only for a learned
unit.
``analyze_resolution`` and ``analyze_hybrid`` stay the two entry points,
for the search and for hooks that wrap them by name.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from .model import COEFF_CAP, Bound, Constraint, cut, normalize
from .propagation import Conflict, clause_row
from .trail import DECISION, Trail


class AnalysisInfeasible(Exception):
    """The conflict is entailed below all decisions: the problem has no solution."""


class AnalysisResult(NamedTuple):
    pop_to: int  # new trail length after backjumping
    bound: Bound  # pushed with the reason info below
    reason_set: tuple  # heights, all < pop_to
    attach_cid: Optional[int]  # a filed row: the bound's reason row if nothing is learned
    learned: tuple  # the row derived, if any: Solver._learn files it as the reason row
    lits: Optional[list]  # a learned clause's literal codes in watch order, if over binaries
    early: bool
    bumped_vars: frozenset
    touched_cids: tuple  # conflicting/reason constraints seen (activity counters)
    scans: int  # early_backjump_scan calls, one per distinct unit row cc


def analyze_resolution(conflict: Conflict, trail: Trail, constraints: list,
                       problem, trace=None, probe=None) -> AnalysisResult:
    return _analyze(conflict, trail, constraints, problem, trace, probe, cut_mode=False)


def analyze_hybrid(conflict: Conflict, trail: Trail, constraints: list,
                   problem, trace=None, probe=None) -> AnalysisResult:
    return _analyze(conflict, trail, constraints, problem, trace, probe, cut_mode=True)


def _analyze(conflict, trail, constraints, problem, trace, probe, cut_mode):
    """``constraints`` is the Propagator's row list, read by cid.  The
    search's one verdict of infeasibility is the AnalysisInfeasible this
    raises, among others when no height of cs lies above level 0."""
    cs = set(conflict.cs)
    cc = constraints[conflict.cid] if cut_mode else None
    cc_cid = conflict.cid if cut_mode else None  # None once a cut replaced cc
    bumped = {trail.entries[h].bound.var for h in cs}
    touched = [conflict.cid]
    pending_scan = cut_mode  # scan once per distinct conflicting unit row
    hit = None
    scans = 0
    if probe is not None:
        probe(frozenset(cs))
    # L, the level of max(cs), is fixed once; it may lie below the top
    # level, as freshly learned rows can conflict there.  While two heights
    # of cs lie in L, the top one is not L's decision, so one stays in L:
    # L never changes, and the next height of cs below h is max(cs).
    if not cs:  # a row false under any bounds
        raise AnalysisInfeasible
    h = max(cs)
    level = trail.decision_level_of(h)
    if level == 0:
        raise AnalysisInfeasible
    start = trail.level_start(level)
    count = sum(1 for x in cs if x >= start)  # heights of cs in L
    while count > 1 and hit is None:
        entry = trail.entries[h]
        assert entry.info is not DECISION
        rc_cid = entry.info.reason_constraint
        if rc_cid is not None:
            touched.append(rc_cid)
        reason = trail.reason_heights(h)
        cs.discard(h)
        count -= 1
        for rh in reason:
            if rh not in cs:
                cs.add(rh)
                count += rh >= start
            bumped.add(trail.entries[rh].bound.var)
        if trace is not None:
            names = problem.var_names
            added = ", ".join(trail.entries[rh].bound.format(names) for rh in reason)
            print(f"analyze step: drop {entry.bound.format(names)} add {{{added}}}", file=trace)
        if probe is not None:
            probe(frozenset(cs))
        h -= 1
        while h not in cs:
            h -= 1
        if not cut_mode:
            continue
        # in cut mode every bound above level 0 but a decision has a reason row
        new_cc = cut(cc, constraints[rc_cid], entry.bound.var)
        if new_cc is not None:
            if new_cc.is_contradiction():
                raise AnalysisInfeasible
            if not new_cc.is_tautology():
                if trace is not None:
                    print(f"cut {'cc' if cc_cid is None else cc_cid}×{rc_cid} on "
                          f"{problem.name_of(entry.bound.var)} → "
                          f"{new_cc.format(problem.var_names)}", file=trace)
                cc = new_cc
                cc_cid = None
                pending_scan = True
        if pending_scan:
            pending_scan = False
            if len(cc.monomials) == 1:  # only a unit row can hit
                scans += 1
                hit = early_backjump_scan(cc, trail)
    if hit is not None:  # the unit row's own propagation at level 0
        pop_to = trail.level_start(1)
        bound, reason_set = hit, ()
        if trace is not None:
            print(f"early-backjump k={len(trail) - pop_to} push "
                  f"{bound.format(problem.var_names)}", file=trace)
    else:
        reason_set = tuple(sorted(cs - {h}))
        rest_top = reason_set[-1] if reason_set else -1  # the runner-up
        pop_to = trail.decision_heights[bisect_right(trail.decision_heights, rest_top)]
        bound = trail.entries[h].bound.negated()
    lits = None
    if cut_mode:
        learned = (cc,) if cc_cid is None else ()
    else:
        # level-0 bounds hold in every later state, so their negations
        # can be left out of the learned clause
        level0_end = trail.level_start(1)
        heights = [x for x in reason_set if x >= level0_end]
        heights.append(h)
        clause, lits = learned_clause(heights, trail, problem)
        learned = (clause,) if clause is not None else ()
    return AnalysisResult(
        pop_to=pop_to,
        bound=bound,
        reason_set=reason_set,
        attach_cid=cc_cid,
        learned=learned,
        lits=lits,
        early=hit is not None,
        bumped_vars=frozenset(bumped),
        touched_cids=tuple(touched),
        scans=scans,
    )


def early_backjump_scan(cc: Constraint, trail: Trail) -> Optional[Bound]:
    """The bound cc propagates at level 0, if cc is a unit row: one
    variable, whose level-0 box the bound tightens.

    Only such a row is learned early, as MiniSat's top-level units: the
    hit's backjump pops every decision, and its bound needs no reason
    bound.  A unit row false over that box means the problem is
    infeasible.  Any longer row gives no hit.
    """
    if len(cc.monomials) != 1 or not trail.decision_heights:
        return None
    (var, coeff), = cc.monomials
    lb, ub = trail.bounds_at_height(var, trail.decision_heights[0])
    if coeff > 0:  # var <= floor(rhs / coeff)
        value = cc.rhs // coeff
        if value < lb:
            raise AnalysisInfeasible
        return Bound(var, False, value) if value < ub else None
    value = -(cc.rhs // -coeff)  # ceil(rhs / coeff) <= var
    if value > ub:
        raise AnalysisInfeasible
    return Bound(var, True, value) if value > lb else None


def learned_clause(heights, trail: Trail, problem):
    """The resolution clause negating the bounds at ``heights`` (above
    level 0, increasing, the 1UIP last), and its literal codes if every
    variable is binary: ``2*var + (not is_lower)`` for each bound, in
    MiniSat's watch order.  That is the asserted literal, the runner-up's,
    then the rest in row order.  A binary variable has one bound above
    level 0, so the row needs no ``normalize``; any other clause is
    converted by ``clause_to_constraint`` and has no codes."""
    entries = trail.entries
    lb0, ub0 = problem.initial_lb, problem.initial_ub
    codes = []
    for x in heights:
        var, is_lower, _ = entries[x].bound
        if lb0[var] != 0 or ub0[var] != 1:
            bounds = [entries[y].bound.negated() for y in heights]
            return clause_to_constraint(bounds, problem), None
        codes.append(2 * var + (not is_lower))
    return clause_row(codes), [codes[-1], *codes[-2:-1], *sorted(codes[:-2])]


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
    if not general:
        return clause_row([2 * v + 1 for v in binary_true] + [2 * v for v in binary_false])
    n_false = len(binary_false)
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
