"""Single-case generators for the randomized propagation/cut suites.

Each function draws one random scenario, checks the claimed property
against brute-force enumeration or direct evaluation, and raises on any
violation.  Used by the unit tests (small counts) and by the acceptance
suite (200+ cases each).
"""

import itertools

from intsat.model import Bound, Constraint, Monomial, cut, normalize
from intsat.propagation import (exact_filter, find_conflict,
                                propagate_constraint, slack_and_widest)
from intsat.trail import ReasonInfo, Trail


def _random_state(rng, max_vars=4, width=6, lo=-5):
    """A trail over a random box, tightened by a few random fresh bounds."""
    n = rng.randint(1, max_vars)
    lbs = [rng.randint(lo, lo + width) for _ in range(n)]
    ubs = [lb + rng.randint(0, width) for lb in lbs]
    t = Trail(n, lbs, ubs)
    for _ in range(rng.randint(0, 2 * n)):
        var = rng.randrange(n)
        lb, ub = t.lb[var], t.ub[var]
        if lb == ub:
            continue
        if rng.random() < 0.5:
            t.push(Bound(var, True, rng.randint(lb + 1, ub)),
                   ReasonInfo.propagated((), None))
        else:
            t.push(Bound(var, False, rng.randint(lb, ub - 1)),
                   ReasonInfo.propagated((), None))
    return t


def _random_constraint(rng, n, max_coeff=5, rhs_span=12):
    k = rng.randint(1, n)
    coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c != 0]
    terms = sorted((v, rng.choice(coeffs)) for v in rng.sample(range(n), k))
    return Constraint(tuple(Monomial(v, c) for v, c in terms),
                      rng.randint(-rhs_span, rhs_span))


def _points(trail):
    ranges = [range(trail.lb[v], trail.ub[v] + 1)
              for v in range(trail.num_vars)]
    return itertools.product(*ranges)


def _per_var_propagates(c, trail, var):
    """Direct evaluation of the per-variable non-redundant-propagation test."""
    coeff = c.coeff_of(var)
    lb, ub = trail.lb[var], trail.ub[var]
    slack, _ = slack_and_widest(c, trail)
    return abs(coeff) * (ub - lb) > slack


def pushed_with_reasons(c, trail, cid=None):
    """Push the bounds c propagates as the propagator does, with the row
    as their reason, and read each reason back through the trail."""
    info = ReasonInfo(None, cid, c)
    heights = [trail.push(b, info) for b in propagate_constraint(c, trail)]
    return [(trail.entries[h].bound, trail.reason_heights(h)) for h in heights]


def _constraint_grid(c, t, margin=4):
    """Points over the constraint's own variables, a margin beyond the
    current bounds; unmentioned variables are irrelevant to entailment."""
    cvars = [m.var for m in c.monomials]
    ranges = []
    for v in cvars:
        lb, ub = t.lb[v], t.ub[v]
        ranges.append(range(lb - margin, ub + margin + 1))
    for combo in itertools.product(*ranges):
        yield dict(zip(cvars, combo))


def lemma1_conflict_case(rng):
    t = _random_state(rng)
    c = _random_constraint(rng, t.num_vars)
    unsat = not any(c.satisfied_by(pt) for pt in _points(t))
    got = find_conflict(c, t, cid=0)
    assert (got is not None) == unsat, (c, [(t.lb[v], t.ub[v]) for v in range(t.num_vars)])
    if got is not None:
        # the returned falsifying set alone must already refute the constraint
        bounds = [t.entries[h].bound for h in got.cs]
        for pt in _constraint_grid(c, t):
            if all(b.satisfied_by(pt[b.var]) for b in bounds):
                assert not c.satisfied_by(pt)


def lemma2_entailment_case(rng):
    t = _random_state(rng)
    c = _random_constraint(rng, t.num_vars)
    if find_conflict(c, t) is not None:
        return
    height = len(t)
    props = [(b, [t.entries[h].bound for h in reason])
             for b, reason in pushed_with_reasons(c, t)]
    t.pop_to(height)  # the grid below spans the bounds before the pushes
    for bound, rs in props:
        # {C} + reason bounds entail the propagated bound
        for pt in _constraint_grid(c, t, margin=5):
            if not c.satisfied_by(pt):
                continue
            if not all(b.satisfied_by(pt[b.var]) for b in rs):
                continue
            assert bound.satisfied_by(pt[bound.var]), (c, bound, rs, pt)


def lemma3_no_rounding_case(rng):
    """Rounding-free propagation: cutting the conflict with the reason
    constraint keeps it false."""
    n = rng.randint(2, 4)
    t = _random_state(rng, max_vars=n)
    n = t.num_vars
    if n < 2:
        return
    j = rng.randrange(n)
    # reason constraint with unit coefficient on x_j: its propagation never rounds
    terms2 = {j: 1}
    for v in range(n):
        if v != j and rng.random() < 0.8:
            terms2[v] = rng.choice([-3, -2, -1, 1, 2, 3])
    c2 = Constraint(tuple(Monomial(v, c) for v, c in sorted(terms2.items())), 0)
    lbj, ubj = t.lb[j], t.ub[j]
    e_j = rng.randint(lbj - 2, ubj)  # propagated value, kept at or below the ub
    others_min = c2.rhs - slack_and_widest(c2, t)[0] - 1 * lbj
    c2 = Constraint(c2.monomials, e_j + others_min)
    # conflicting constraint: negative on x_j, false once x_j <= e_j
    terms1 = {j: -rng.randint(1, 3)}
    for v in range(n):
        if v != j and rng.random() < 0.8:
            terms1[v] = rng.choice([-3, -2, -1, 1, 2, 3])
    mono1 = tuple(Monomial(v, c) for v, c in sorted(terms1.items()))
    min_with_ej = sum(
        c * (e_j if (v == j and c < 0) else
             (t.lb[v] if c > 0 else t.ub[v]))
        for v, c in mono1)
    c1 = Constraint(mono1, min_with_ej - 1 - rng.randint(0, 3))
    cut_c = cut(c1, c2, j)
    assert cut_c is not None
    assert find_conflict(cut_c, t) is not None, (c1, c2, j, cut_c)


def lemma4_filter_case(rng):
    t = _random_state(rng)
    c = _random_constraint(rng, t.num_vars)
    if find_conflict(c, t) is not None:
        return
    predicted = exact_filter(c, t) > 0
    actual = bool(propagate_constraint(c, t))
    assert predicted == actual, (c, [(t.lb[v], t.ub[v]) for v in range(t.num_vars)])


def lemma5_division_case(rng):
    t = _random_state(rng)
    n = t.num_vars
    base = _random_constraint(rng, n, max_coeff=3, rhs_span=8)
    factor = rng.randint(2, 4)
    d = rng.randrange(factor)
    scaled = Constraint(
        tuple(Monomial(v, factor * c) for v, c in base.monomials),
        factor * base.rhs + d)
    for var, _ in base.monomials:
        if not _per_var_propagates(scaled, t, var):
            assert not _per_var_propagates(base, t, var), (base, scaled, var)


def lemma6_disjoint_cut_case(rng):
    """Disjoint-support premises that propagate nothing: their cut
    propagates nothing either."""
    ny = rng.randint(1, 2)
    nz = rng.randint(1, 2)
    n = 1 + ny + nz
    lbs = [0] * n
    ubs = [rng.randint(0, 3) for _ in range(n)]
    t = Trail(n, lbs, ubs)
    a = rng.randint(1, 5)
    b = rng.randint(1, 5)
    t1 = [(0, a)] + [(1 + i, rng.choice([-5, -2, -1, 1, 2, 5])) for i in range(ny)]
    t2 = [(0, -b)] + [(1 + ny + i, rng.choice([-5, -2, -1, 1, 2, 5])) for i in range(nz)]
    c1 = Constraint(tuple(Monomial(v, c) for v, c in sorted(t1)), 0)
    c2 = Constraint(tuple(Monomial(v, c) for v, c in sorted(t2)), 0)
    # lift each rhs until the premise propagates nothing at this state
    c1 = Constraint(c1.monomials, c1.rhs + max(0, exact_filter(c1, t)))
    c2 = Constraint(c2.monomials, c2.rhs + max(0, exact_filter(c2, t)))
    assert exact_filter(c1, t) <= 0 and exact_filter(c2, t) <= 0
    c3 = cut(c1, c2, 0)
    if c3 is None or c3.is_degenerate():
        return
    assert exact_filter(c3, t) <= 0, (c1, c2, c3)


ALL_SUITES = [
    ("conflict predicate vs enumeration", lemma1_conflict_case),
    ("propagated bounds are entailed", lemma2_entailment_case),
    ("no-rounding cuts stay false", lemma3_no_rounding_case),
    ("filter formula is exact", lemma4_filter_case),
    ("divided constraints propagate no more", lemma5_division_case),
    ("disjoint-support cuts propagate nothing new", lemma6_disjoint_cut_case),
]
