"""The cut-mode presolve: at-most-one rows replaced by the cliques they
extend to, before the search."""

import random

import pytest

from intsat.model import Objective, Problem, normalize
from intsat.oracle import oracle_solve
from intsat.presolve import clique_rows
from intsat.search import INFEASIBLE, Solver, SolverConfig
from conftest import box_points, indexed_rows, live_rows, pairwise_php_problem


def at_most_one(literals):
    """The row of at most one true literal, each a (var, positive) pair:
    +v for a positive literal, 1 - v for a negated one."""
    negated = sum(1 for _, positive in literals if not positive)
    return normalize([(v, 1 if positive else -1) for v, positive in literals], 1 - negated)


def planted_at_most_one_problem(rng):
    """Binaries, now and then one variable in [0, 2], under pair rows and
    rows of 3 to 5 literals drawn from one to three hidden cliques of 3 to
    6 literals, some negated, beside a few clauses and general rows, with
    an objective half of the time."""
    n = rng.randint(3, 9)
    ubs = [1] * n
    if rng.random() < 0.2:
        ubs[rng.randrange(n)] = 2  # its +-1 rows are no at-most-one rows
    rows = []
    for _ in range(rng.randint(1, 3)):
        clique = [(v, rng.random() < 0.7) for v in rng.sample(range(n), rng.randint(3, min(6, n)))]
        for _ in range(rng.randint(1, 6)):  # now and then the whole clique
            size = len(clique) if rng.random() < 0.15 else rng.randint(2, len(clique) - 1)
            rows.append(at_most_one(rng.sample(clique, size)))
    point = [rng.randint(0, u) for u in ubs]
    for _ in range(rng.randint(0, 3)):
        terms = [(v, rng.choice((-2, -1, 1, 2))) for v in rng.sample(range(n), rng.randint(1, 3))]
        rows.append(normalize(terms, sum(c * point[v] for v, c in terms) + rng.randint(-1, 2)))
    rng.shuffle(rows)
    objective = None
    if rng.random() < 0.5:
        objective = Objective({v: rng.randint(-5, 5) for v in range(n)} or {0: 1})
    return Problem(n, [0] * n, ubs, rows, objective)


def solutions(problem, rows):
    return {pt for pt in box_points(problem.initial_lb, problem.initial_ub)
            if all(c.satisfied_by(pt) for c in rows)}


class TestCliqueRows:
    def test_a_triangle_of_pair_rows_becomes_one_clique(self):
        # x + y <= 1, y + z <= 1 and x + z <= 1 file as binary rows
        p = Problem(3, [0] * 3, [1] * 3, [at_most_one([(0, True), (1, True)]),
                                          at_most_one([(1, True), (2, True)]),
                                          at_most_one([(0, True), (2, True)])])
        cliques, replaced = clique_rows(p)
        assert cliques == [normalize([(0, 1), (1, 1), (2, 1)], 1)]
        assert replaced == {0, 1, 2}

    def test_a_negated_literal_enters_as_one_minus_v(self):
        # x + (1 - y) <= 1 and (1 - y) + z <= 1 and x + z <= 1: at most one
        # of x, not y, z, the row x - y + z <= 0
        p = Problem(3, [0] * 3, [1] * 3, [at_most_one([(0, True), (1, False)]),
                                          at_most_one([(1, False), (2, True)]),
                                          at_most_one([(0, True), (2, True)])])
        cliques, replaced = clique_rows(p)
        assert cliques == [normalize([(0, 1), (1, -1), (2, 1)], 0)]
        assert replaced == {0, 1, 2}

    def test_a_clique_equal_to_a_kept_row_is_not_filed_again(self):
        # the pair row extends to the triple, which is already an input row
        triple = at_most_one([(0, True), (1, True), (2, True)])
        p = Problem(3, [0] * 3, [1] * 3, [at_most_one([(0, True), (1, True)]), triple])
        assert clique_rows(p) == ([], {0})

    def test_rows_that_are_not_at_most_one_are_left_alone(self):
        # beside one at-most-one row, rows that share its literals but say
        # something else; a two-literal clause would count, as at most one
        # of its complements holds
        p = Problem(4, [0] * 4, [1, 1, 1, 2], [
            normalize([(0, 1), (1, 1)], 1),             # the at-most-one row
            normalize([(0, 1), (3, 1)], 1),             # x3 in [0, 2]
            normalize([(0, 1), (2, 1)], 0),             # rhs 0: both false
            normalize([(1, 2), (2, 1)], 2),             # a coefficient 2
            normalize([(0, -1), (1, -1), (2, -1)], -1)])  # at least one of three
        assert clique_rows(p) == ([], set())

    def test_greedy_takes_candidates_in_code_order_and_never_a_complement(self):
        # x0 conflicts with x1, with x2 and with not x2; x1 with both as
        # well: x0 and x1 extend to {x0, x1, not x2}, code 4 before code 5
        rows = [at_most_one([(0, True), (1, True)])]
        for other in ((2, True), (2, False)):
            rows += [at_most_one([(0, True), other]), at_most_one([(1, True), other])]
        cliques, replaced = clique_rows(Problem(3, [0] * 3, [1] * 3, rows))
        assert normalize([(0, 1), (1, 1), (2, -1)], 0) in cliques
        assert all(len({v for v, _ in c.monomials}) == len(c.monomials) for c in cliques)
        assert 0 in replaced


class TestPresolve:
    def test_live_rows_keep_the_solution_set(self):
        # over random 0-1 problems with planted at-most-one structure: the
        # live rows after the presolve have exactly the original solutions,
        # the store indexes exactly them, the counters match, and each
        # replaced row is strictly inside some clique row
        rng = random.Random(3301)
        replaced = filed = 0
        for _ in range(300):
            p = planted_at_most_one_problem(rng)
            s = Solver(p, SolverConfig(mode="cut"))
            s._presolve()
            pr, live = s.propagator, live_rows(s)
            assert indexed_rows(pr) == live and set(pr.queue) <= live
            kept = [pr.constraints[cid] for cid in live]
            assert solutions(p, kept) == solutions(p, p.constraints)
            assert s.stats.clique_rows == len(s.clique_cids)
            assert s.stats.replaced_rows == len(s.replaced_cids)
            cliques = [set(pr.constraints[cid].monomials) for cid in s.clique_cids]
            for cid in s.replaced_cids:
                row = set(p.constraints[cid].monomials)
                assert any(row < clique for clique in cliques) or any(
                    row < set(p.constraints[k].monomials)
                    for k in range(len(p.constraints)) if k not in s.replaced_cids)
            replaced += len(s.replaced_cids)
            filed += len(s.clique_cids)
        assert replaced >= 1000 and filed >= 80, (replaced, filed)

    def test_cut_mode_matches_the_oracle_on_planted_cliques(self):
        rng = random.Random(3302)
        moved = 0
        for i in range(150):
            p = planted_at_most_one_problem(rng)
            ref = oracle_solve(p)
            s = Solver(p, SolverConfig(mode="cut", max_conflicts=20000, random_seed=i))
            out = s.solve()
            assert (out.status, out.objective_value) == (ref.status, ref.objective_value), i
            if out.solution is not None:
                assert p.check_solution(out.solution.values)
            moved += s.stats.replaced_rows > 0
        assert moved >= 100, moved

    def test_resolution_mode_files_no_clique(self):
        p = pairwise_php_problem(4, 3)
        s = Solver(p, SolverConfig(mode="resolution"))
        assert s.solve().status == INFEASIBLE
        assert not s.clique_cids and not s.replaced_cids
        assert s.stats.clique_rows == s.stats.replaced_rows == 0

    def test_a_second_solve_files_nothing_again(self):
        # a Solver runs one search: the second call raises before it files
        s = Solver(pairwise_php_problem(4, 3), SolverConfig(mode="cut"))
        s.solve()
        cliques, rows = s.clique_cids, len(s.propagator.constraints)
        with pytest.raises(RuntimeError, match="one search"):
            s.solve()
        assert s.clique_cids is cliques and len(cliques) == s.stats.clique_rows == 3
        assert len(s.propagator.constraints) == rows

    def test_pairwise_pigeonhole_7_6_falls_in_a_few_conflicts(self):
        # one clique per hole replaces its 21 pair rows, and cutting planes
        # refute the cardinality rows in about one conflict per hole
        s = Solver(pairwise_php_problem(7, 6), SolverConfig(mode="cut", max_conflicts=10 ** 4))
        assert s.solve().status == INFEASIBLE
        assert s.stats.conflicts <= 10, s.stats.conflicts
        assert (s.stats.clique_rows, s.stats.replaced_rows) == (6, 6 * 21)
