"""Differential test over drawn problems and drawn solver configurations.

Hypothesis draws a small bounded problem, which the exhaustive oracle
can solve, and a valid ``SolverConfig`` from the space it exposes: both
modes, any value-strategy order ending with a total strategy (with a
``user_hint`` when strategy 11 is in it), both restart policies, small
cleanup triggers, the random seed, an optional conflict budget and an
optional time limit (0 or a few milliseconds).

A run whose config sets no budget gets a safety cap and must give the
oracle's status and objective.  A run that stops at its drawn conflict
budget or time limit must hold an incumbent that satisfies every row
and is no better than the oracle's optimum.  The tier-1 run is
derandomised with a fixed example count, so it makes the same draws
every time.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

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
def configs(draw, num_vars):
    order = draw(st.lists(st.integers(1, 11), max_size=3)) + [draw(st.integers(1, 4))]
    hint = None
    if 11 in order:
        hint = draw(st.dictionaries(st.integers(0, num_vars - 1), st.integers(-4, 6)))
    if draw(st.booleans()):
        restart = ("luby", draw(st.integers(1, 30)))
    else:
        inner = draw(st.integers(1, 30))
        restart = ("inout", inner, draw(st.integers(inner, 200)),
                   draw(st.sampled_from([1.1, 1.5, 2.0])))
    return SolverConfig(
        mode=draw(st.sampled_from(["cut", "resolution"])),
        strategy_order=tuple(order),
        restart=restart,
        cleanup_learned_threshold=draw(st.integers(1, 10)),
        cleanup_memory_cap=draw(st.integers(1, 2000)),
        max_conflicts=draw(st.none() | st.integers(0, 20)),
        time_limit=draw(st.none() | st.sampled_from([0, 0.001, 0.002, 0.005])),
        random_seed=draw(st.integers(0, 2 ** 16)),
        user_hint=hint)


@st.composite
def cases(draw):
    p = draw(problems())
    return p, draw(configs(p.num_vars))


def check_against_the_oracle(p, config):
    ref = oracle_solve(p)
    budgeted = config.max_conflicts is not None or config.time_limit is not None
    if config.max_conflicts is None:
        config.max_conflicts = SAFETY_CAP
    out = Solver(p, config).solve()
    if out.solution is not None:
        assert p.check_solution(out.solution.values)
        if p.objective is not None:
            assert out.objective_value == p.objective.value_of(out.solution.values)
    if budgeted and out.status in (BOUNDED, TIMELIMIT):
        if out.status == BOUNDED:
            assert ref.status == OPTIMAL and out.objective_value >= ref.objective_value
        return
    assert (out.status, out.objective_value) == (ref.status, ref.objective_value)


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_drawn_configs_match_the_oracle(case):
    check_against_the_oracle(*case)


# Shrunk failures of the draw above, as plain regression tests.

def test_cut_mode_cleanup_after_every_conflict_answers():
    # feasible (x0 = 0, x1 = 0, x2 = 2).  Deciding 1 <= x0 and 1 <= x1 meets
    # a conflict whose learned cut, x1 <= 1, does not imply the backjump's
    # x1 <= 0.  When a due cleanup forced a restart after every conflict,
    # the same decisions met the same conflict and learned the same cut
    p = Problem(3, [0, 0, 2], [1, 1, 3], [normalize([(0, -2), (1, 1), (2, 5)], 13),
                                          normalize([(0, 2), (1, 5), (2, -5)], -7)])
    assert oracle_solve(p).status == FEASIBLE
    config = SolverConfig(mode="cut", strategy_order=(1,), cleanup_learned_threshold=1,
                          max_conflicts=200)  # a run that answers needs one conflict
    assert Solver(p, config).solve().status == FEASIBLE
