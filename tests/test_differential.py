"""Differential test over drawn problems and drawn solver configurations.

Hypothesis draws a small bounded problem, which the exhaustive oracle
can solve (up to six variables, or in a second draw a random 3-SAT
problem over up to 16 binaries), and a valid ``SolverConfig`` from the
space it exposes: both modes, any value-strategy order ending with a
total strategy (with a ``user_hint`` when strategy 11 is in it), both
restart policies, the random seed, an optional conflict budget and an
optional time limit (0 or a few milliseconds).  It also draws a cleanup
after every 1 to 10 learned rows, which it sets as
``search.CLEANUP_LEARNED_THRESHOLD`` for that run only.  A cleanup runs
only at a restart, so the Luby unit is drawn small half of the time,
where restarts come often enough for cleanups to run.

A run whose config sets no budget gets a safety cap and must give the
oracle's status and objective.  A run that stops at its drawn conflict
budget or time limit must hold an incumbent that satisfies every row
and is no better than the oracle's optimum.  The tier-1 run is
derandomised with a fixed example count, so it makes the same draws
every time, and counts the learned rows filed in the literal tiers and
those a cleanup killed, so that it covers both.
"""

import dataclasses
import os
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from intsat import search
from intsat.model import Objective, Problem, normalize
from intsat.oracle import oracle_solve
from intsat.search import BOUNDED, FEASIBLE, OPTIMAL, TIMELIMIT, Solver, SolverConfig

SAFETY_CAP = 20000  # conflicts, for a draw that sets no budget
COEFFS = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5])


@st.composite
def problems(draw):
    """Up to six variables, binary or in a small range; rows anchored near
    a box point, and at-least-one / at-most-one rows over the binaries,
    which file as clause and binary rows."""
    n = draw(st.integers(1, 6))
    lbs, ubs = [], []
    for _ in range(n):
        if draw(st.booleans()):
            lbs.append(0)
            ubs.append(1)
        else:
            lbs.append(draw(st.integers(-3, 2)))
            ubs.append(lbs[-1] + draw(st.integers(0, 4)))
    anchor = [draw(st.integers(lb, ub)) for lb, ub in zip(lbs, ubs)]
    binaries = [v for v in range(n) if (lbs[v], ubs[v]) == (0, 1)]
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if len(binaries) >= 2 and draw(st.booleans()):
            vs = draw(st.lists(st.sampled_from(binaries), min_size=2, unique=True))
            sign = draw(st.sampled_from([-1, 1]))  # -1: at least one, 1: at most one
            rows.append(normalize([(v, sign) for v in vs], sign))
            continue
        vs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        terms = [(v, draw(COEFFS)) for v in vs]
        at_anchor = sum(c * anchor[v] for v, c in terms)
        rows.append(normalize(terms, at_anchor + draw(st.integers(-2, 3))))
    objective = None
    if draw(st.booleans()):
        objective = Objective(draw(st.dictionaries(st.integers(0, n - 1), COEFFS)))
    return Problem(n, lbs, ubs, rows, objective)


@st.composite
def clause_problems(draw):
    """Random 3-SAT over 10 to 16 binaries at 4.3 clauses per variable,
    near its threshold, with an objective half of the time: harder than
    the problems above, so both modes learn clauses over binaries, which
    may file in the literal tiers, and cleanups kill some.  The clauses
    come from a drawn seed, as drawing each literal costs more than the
    solve."""
    n = draw(st.integers(10, 16))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = []
    for _ in range(round(4.3 * n)):
        signs = [rng.choice([-1, 1]) for _ in range(3)]  # 1: the literal "v is false"
        rows.append(normalize(list(zip(rng.sample(range(n), 3), signs)), signs.count(1) - 1))
    objective = None
    if draw(st.booleans()):
        objective = Objective(draw(st.dictionaries(st.integers(0, n - 1), COEFFS)))
    return Problem(n, [0] * n, [1] * n, rows, objective)


@st.composite
def configs(draw, num_vars):
    """A config, and the number of learned rows between two cleanups."""
    order = draw(st.lists(st.integers(1, 11), max_size=3)) + [draw(st.integers(1, 4))]
    hint = None
    if 11 in order:
        hint = draw(st.dictionaries(st.integers(0, num_vars - 1), st.integers(-4, 6)))
    if draw(st.booleans()):
        restart = ("luby", draw(st.integers(1, 3) | st.integers(1, 30)))
    else:
        inner = draw(st.integers(1, 30))
        restart = ("inout", inner, draw(st.integers(inner, 200)),
                   draw(st.sampled_from([1.1, 1.5, 2.0])))
    mode = draw(st.sampled_from(["cut", "resolution"]))
    threshold = draw(st.integers(1, 10))
    return SolverConfig(
        mode=mode,
        strategy_order=tuple(order),
        restart=restart,
        max_conflicts=draw(st.none() | st.integers(0, 20)),
        time_limit=draw(st.none() | st.sampled_from([0, 0.001, 0.002, 0.005])),
        random_seed=draw(st.integers(0, 2 ** 16)),
        user_hint=hint), threshold


@st.composite
def cases(draw, kind):
    p = draw(kind)
    return (p, *draw(configs(p.num_vars)))


def check_against_the_oracle(p, config, threshold, seen):
    """Checks one run, with a cleanup every ``threshold`` learned rows;
    counts in ``seen`` the learned rows it filed in a literal tier and
    those of them a cleanup killed."""
    ref = oracle_solve(p)
    budgeted = config.max_conflicts is not None or config.time_limit is not None
    if config.max_conflicts is None:
        config = dataclasses.replace(config, max_conflicts=SAFETY_CAP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "CLEANUP_LEARNED_THRESHOLD", threshold)
        s = Solver(p, config)
        out = s.solve()
    pr = s.propagator
    learned = [cid for cid in range(len(p.constraints), len(pr.lits)) if pr.lits[cid]]
    seen["learned literal rows"] += len(learned)
    # only a cleanup kills them, and it drops them from learned_activity
    seen["killed"] += sum(cid not in s.learned_activity for cid in learned)
    if out.solution is not None:
        assert p.check_solution(out.solution.values)
        if p.objective is not None:
            assert out.objective_value == p.objective.value_of(out.solution.values)
    if budgeted and out.status in (BOUNDED, TIMELIMIT):
        if out.status == BOUNDED:
            assert ref.status == OPTIMAL and out.objective_value >= ref.objective_value
        return
    assert (out.status, out.objective_value) == (ref.status, ref.objective_value)


def test_drawn_configs_match_the_oracle():
    """400 drawn problems and 150 drawn 3-SAT problems, each with a drawn
    config.  For a longer run, set ``INTSAT_DIFFERENTIAL_SCALE`` to a
    positive integer, which multiplies both counts; the draws stay
    derandomised, so a scaled run repeats too."""
    scale = int(os.environ.get("INTSAT_DIFFERENTIAL_SCALE", "1"))
    assert scale >= 1, "INTSAT_DIFFERENTIAL_SCALE must be a positive integer"
    seen = Counter()
    for kind, examples in ((problems(), 400 * scale), (clause_problems(), 150 * scale)):
        @settings(max_examples=examples, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(cases(kind))
        def check(case):
            check_against_the_oracle(*case, seen)

        check()
    # the draws reach learned rows in the literal tiers and their deaths
    assert seen["learned literal rows"] > 0 and seen["killed"] > 0, seen


# Shrunk failures of the draw above, as plain regression tests.

def test_cut_mode_cleanup_after_every_conflict_answers(monkeypatch):
    # feasible (x0 = 0, x1 = 0, x2 = 2).  Deciding 1 <= x0 and 1 <= x1 meets
    # a conflict whose learned cut, x1 <= 1, does not imply the backjump's
    # x1 <= 0.  When a due cleanup forced a restart after every conflict,
    # the same decisions met the same conflict and learned the same cut
    p = Problem(3, [0, 0, 2], [1, 1, 3], [normalize([(0, -2), (1, 1), (2, 5)], 13),
                                          normalize([(0, 2), (1, 5), (2, -5)], -7)])
    assert oracle_solve(p).status == FEASIBLE
    monkeypatch.setattr(search, "CLEANUP_LEARNED_THRESHOLD", 1)
    config = SolverConfig(mode="cut", strategy_order=(1,),
                          max_conflicts=200)  # a run that answers needs one conflict
    assert Solver(p, config).solve().status == FEASIBLE
