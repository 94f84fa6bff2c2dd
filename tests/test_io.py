import itertools
from fractions import Fraction

import pytest

from intsat.io import (ParseError, format_objective_value, parse,
                       write_problem, write_solution)
from intsat.model import Problem, Objective, Solution, normalize
from intsat.oracle import SearchSpaceTooLarge, oracle_solve
from intsat.search import (BOUNDED, FEASIBLE, INFEASIBLE, OPTIMAL, TIMELIMIT,
                           SolveOutcome, Solver, SolverConfig)
from conftest import C, box_points, random_problem


class TestParse:
    def test_ge_is_negated(self):
        p = parse("var x int [0, 1]\nvar y int [0, 1]\nx + y >= 1\n")
        assert p.constraints == [C([(0, -1), (1, -1)], -1)]

    def test_equality_splits_in_two(self):
        p = parse("var x int [0, 5]\nx = 3\n")
        assert p.constraints == [C([(0, 1)], 3), C([(0, -1)], -3)]

    def test_decimal_scaling_and_normalisation(self):
        p = parse("var x int [0, 4]\nvar y int [0, 4]\n0.5x + 1.25y <= 2\n")
        assert p.constraints == [C([(0, 2), (1, 5)], 8)]
        # scaling preserved the solution set over the box
        raw_ok = {pt for pt in box_points([0, 0], [4, 4])
                  if Fraction(1, 2) * pt[0] + Fraction(5, 4) * pt[1] <= 2}
        got_ok = {pt for pt in box_points([0, 0], [4, 4])
                  if p.constraints[0].satisfied_by(pt)}
        assert raw_ok == got_ok

    def test_objective_scaling_sets_scale(self):
        p = parse("var x int [0, 4]\nmin: 0.5x\n")
        assert p.objective.coeffs == {0: 5} and p.objective.scale == 10

    def test_objective_constant_becomes_offset(self):
        p = parse("var x int [0, 4]\nmin: x + 7\n")
        assert p.objective.coeffs == {0: 1} and p.objective.offset == 7

    def test_comments_and_blank_lines(self):
        p = parse("# header\n\nvar x int [0, 1]  # inline\nx <= 1 # tail\n")
        assert p.num_vars == 1

    def test_term_syntax_variants(self):
        p = parse("var x int [0, 9]\nvar y int [0, 9]\n"
                  "2x + 3*y - x - 1 <= 7\n")
        assert p.constraints == [C([(0, 1), (1, 3)], 8)]

    def test_leading_bare_term_and_negative_decimal_rhs(self):
        p = parse("var x int [0, 9]\nvar y int [0, 9]\n4 + 2x - 3*y + 0.5 * x >= -0.5\n")
        assert p.constraints == [C([(0, -5), (1, 6)], 9)]

    def test_bare_number_rows(self):
        assert parse("var x int [0, 1]\n3 <= 2\n").constraints == [C([], -1)]
        assert parse("var x int [0, 1]\n1 <= 2\n").constraints == []

    def test_tautologies_are_dropped(self):
        p = parse("var x int [0, 1]\nx - x <= 0\n")
        assert p.constraints == []

    def test_var_names_round_trip(self):
        p = parse("var alpha int [-3, 3]\nalpha <= 2\n")
        assert p.var_names == ["alpha"] and p.initial_lb == [-3]

    def test_a_row_may_start_with_a_variable_named_var(self):
        # a line starting "var " is a declaration only without a relation
        p = parse("var var int [0, 1]\nvar x int [0, 1]\nvar + x >= 1\nvar - x = 0\n")
        assert p.var_names == ["var", "x"]
        assert p.constraints == [C([(0, -1), (1, -1)], -1),
                                 C([(0, 1), (1, -1)], 0), C([(0, -1), (1, 1)], 0)]


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ParseError) as e:
            parse(text)
        return str(e.value)

    def test_undeclared_variable(self):
        msg = self.err("var x int [0, 5]\nx + w <= 3\n")
        assert "line 2" in msg and "w" in msg

    def test_unbounded_declaration_rejected(self):
        msg = self.err("var x int\nx <= 3\n")
        assert "line 1" in msg

    def test_duplicate_variable(self):
        assert "duplicate" in self.err("var x int [0, 1]\nvar x int [0, 2]\n")

    def test_empty_domain(self):
        assert "empty domain" in self.err("var x int [3, 1]\n")

    def test_too_many_decimals(self):
        assert "decimal" in self.err("var x int [0, 1]\n0.0625x <= 1\n")

    def test_fractional_bounds_rejected(self):
        assert "line 1" in self.err("var x int [0.5, 2]\n")

    def test_coefficient_over_cap(self):
        assert "cap" in self.err("var x int [0, 1]\n2000000000x <= 1\n")

    def test_merged_coefficient_over_cap(self):
        # 2**30 + 2**30 on x: each term is within the cap, the row is not
        assert "cap" in self.err("var x int [0, 1]\nvar y int [0, 1]\n"
                                 "1073741824 x + 1073741824 x + y <= 5\n")

    def test_merged_objective_coefficient_over_cap(self):
        assert "cap" in self.err("var x int [0, 1]\nmin: 1073741824 x + 1073741824 x\n")

    def test_merged_coefficient_divided_back_under_the_cap(self):
        p = parse("var x int [0, 1]\n1073741824 x + 1073741824 x <= 5\n")
        assert p.constraints == [normalize([(0, 1)], 0)]

    def test_duplicate_objective(self):
        assert "objective" in self.err(
            "var x int [0, 1]\nmin: x\nmin: x\n")

    def test_relationless_line(self):
        assert "line 2" in self.err("var x int [0, 1]\nx + 1\n")

    @pytest.mark.parametrize("row", ["x y <= 1", "x 3 <= 5", "3 4 <= 1", "x + y 2 <= 1"])
    def test_terms_without_a_sign_between_them(self, row):
        assert "missing '+' or '-'" in self.err(f"var x int [0, 1]\nvar y int [0, 1]\n{row}\n")

    def test_objective_terms_without_a_sign_between_them(self):
        assert "line 2" in self.err("var x int [0, 1]\nmin: x x\n")

    @pytest.mark.parametrize("row", ["2 * * x <= 1", "* x <= 1", "x * 2 <= 1", "2* <= 1"])
    def test_star_must_join_a_coefficient_to_a_variable(self, row):
        assert "line 2" in self.err(f"var x int [0, 1]\n{row}\n")

    @pytest.mark.parametrize("row", ["x + - y <= 1", "x + <= 1", "- <= 1"])
    def test_dangling_sign(self, row):
        assert "dangling sign" in self.err(f"var x int [0, 1]\nvar y int [0, 1]\n{row}\n")

    @pytest.mark.parametrize("line, message", [
        ("min:", "empty expression"), ("<= 3", "empty expression"),
        ("var z int [0, 2000000000]", "bound magnitude exceeds the cap"),
        ("x <= y", "right-hand side must be a number")])
    def test_message_names_the_fault(self, line, message):
        assert message in self.err(f"var x int [0, 1]\nvar y int [0, 1]\n{line}\n")


class TestWriteSolution:
    def test_infeasible(self):
        p = Problem(1, [0], [1])
        assert write_solution(SolveOutcome(INFEASIBLE), p) == "INFEASIBLE\n"

    def test_optimal_with_values(self):
        p = Problem(1, [0], [5], objective=Objective({0: 1}), var_names=["x"])
        text = write_solution(SolveOutcome(OPTIMAL, Solution([2]), 2), p)
        assert text == "OPTIMAL 2\nx = 2\n"

    def test_feasible_prints_all_variables(self):
        p = Problem(2, [0, 0], [1, 1], var_names=["a", "b"])
        text = write_solution(SolveOutcome(FEASIBLE, Solution([0, 1])), p)
        assert text == "FEASIBLE\na = 0\nb = 1\n"

    def test_bounded_run_prints_its_incumbent_as_feasible(self):
        p = parse("var x int [0, 9]\nvar y int [0, 9]\nmin: -x - y\nx + y <= 9\n")
        out = Solver(p, SolverConfig(max_conflicts=0)).solve()
        assert out.status == BOUNDED
        assert write_solution(out, p).splitlines()[0] == "FEASIBLE -9"

    def test_unknown_without_solution(self):
        p = Problem(1, [0], [1])
        assert write_solution(SolveOutcome(TIMELIMIT), p) == "UNKNOWN\n"

    def test_scaled_objective_value(self):
        assert format_objective_value(225, 100) == "2.25"
        assert format_objective_value(-225, 100) == "-2.25"
        assert format_objective_value(200, 100) == "2"
        assert format_objective_value(3, 1) == "3"


class TestRoundTrip:
    def test_parse_write_parse_preserves_solutions(self, rng):
        for _ in range(40):
            p = random_problem(rng, max_vars=3, max_points=500)
            text = write_problem(p)
            p2 = parse(text)
            ref1 = oracle_solve(p)
            ref2 = oracle_solve(p2)
            assert ref1.status == ref2.status
            if ref1.status == OPTIMAL:
                assert ref1.objective_value == ref2.objective_value

    def test_zero_objective_terms_are_not_written(self):
        p = Problem(2, [0, 0], [1, 1], objective=Objective({0: 0, 1: -2}))
        text = write_problem(p)
        assert "min: -2*x1\n" in text and "0*" not in text
        assert parse(text).objective.coeffs == {1: -2}
        zero = Problem(1, [0], [1], objective=Objective({0: 0}))
        assert "min: 0\n" in write_problem(zero)
        assert parse(write_problem(zero)).objective.coeffs == {}

    def test_decimal_objectives_with_a_constant_report_the_same_values(self, rng):
        def reported(p, values):
            obj = p.objective
            return format_objective_value(obj.value_of(values) + obj.offset, obj.scale)

        p = parse("var x int [0, 1]\nvar y int [0, 1]\nmin: 0.5 x - 2 y + 3\n")
        assert reported(p, [1, 0]) == "3.5"
        assert "min: 0.5*x - 2*y + 3\n" in write_problem(p)
        texts = []
        for _ in range(30):
            terms = [f"{rng.choice('+-')} {rng.randint(0, 30) / 10 ** rng.randint(0, 3)} {v}"
                     for v in ("x", "y")]
            const = f"{rng.choice('+-')} {rng.randint(0, 2000) / 10 ** rng.randint(0, 3)}"
            texts.append("var x int [-2, 3]\nvar y int [0, 4]\n"
                         f"min: {' '.join(terms)} {const}\n")
        for text in texts:
            p = parse(text)
            p2 = parse(write_problem(p))
            for point in itertools.product(range(-2, 4), range(0, 5)):
                assert reported(p2, point) == reported(p, point), text


class TestRationalRewriting:
    def test_verdicts_agree_with_exact_rational_check(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            lbs = [rng.randint(-3, 0) for _ in range(n)]
            ubs = [lb + rng.randint(1, 4) for lb in lbs]
            lines = [f"var v{i} int [{lbs[i]}, {ubs[i]}]" for i in range(n)]
            rows = []
            for _ in range(rng.randint(1, 4)):
                terms = [(i, Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4, 10])))
                         for i in range(n)]
                rel = rng.choice(["<=", ">=", "="])
                rhs = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
                rows.append((terms, rel, rhs))
                parts = []
                for i, c in terms:
                    sign = "-" if c < 0 else ("+" if parts else "")
                    parts.append(f"{sign} {float(abs(c))}*v{i}")
                lines.append(f"{' '.join(parts)} {rel} {float(rhs)}")
            problem = parse("\n".join(lines) + "\n")
            feasible_exact = False
            for pt in box_points(lbs, ubs):
                ok = True
                for terms, rel, rhs in rows:
                    val = sum(c * pt[i] for i, c in terms)
                    ok &= (val <= rhs if rel == "<=" else
                           val >= rhs if rel == ">=" else val == rhs)
                if ok:
                    feasible_exact = True
                    break
            got = oracle_solve(problem)
            assert (got.status != INFEASIBLE) == feasible_exact


class TestOracle:
    def test_core_instance_infeasible(self):
        cs = [normalize([(0, -1), (1, -1), (2, -1)], -2),
              normalize([(0, 1), (1, 1)], 1), normalize([(0, 1), (2, 1)], 1),
              normalize([(1, 1), (2, 1)], 1), normalize([(0, 1)], 1),
              normalize([(1, 1)], 1), normalize([(2, 1)], 3)]
        assert oracle_solve(Problem(3, [-10] * 3, [10] * 3, cs)).status == INFEASIBLE

    def test_minimum_at_lower_bound(self):
        out = oracle_solve(Problem(1, [2], [5], objective=Objective({0: 1})))
        assert out.status == OPTIMAL and out.objective_value == 2

    def test_feasibility_and_optimum_on_pair(self):
        cs = [normalize([(0, 1), (1, 1)], 1), normalize([(0, -1), (1, -1)], -1)]
        p = Problem(2, [0, 0], [1, 1], cs)
        assert oracle_solve(p).status == FEASIBLE
        p_obj = Problem(2, [0, 0], [1, 1], cs, Objective({0: 1}))
        out = oracle_solve(p_obj)
        assert out.status == OPTIMAL and out.objective_value == 0

    def test_guard_rejects_huge_boxes(self):
        p = Problem(4, [0] * 4, [100] * 4)
        with pytest.raises(SearchSpaceTooLarge):
            oracle_solve(p)

    def test_guard_rejects_an_objective_beyond_int64(self):
        # 8 * 2**30 * 2**30 = 2**63: the optimum wrapped to -2**63
        n = 8
        p = Problem(n, [2 ** 30 - 1] * n, [2 ** 30] * n,
                    objective=Objective({v: 2 ** 30 for v in range(n)}))
        with pytest.raises(SearchSpaceTooLarge):
            oracle_solve(p)

    def test_guard_rejects_a_rhs_beyond_int64(self):
        p = Problem(2, [0, 0], [1, 1], [normalize([(0, 1), (1, 1)], 10 ** 20)])
        with pytest.raises(SearchSpaceTooLarge):
            oracle_solve(p)

    def test_no_variables(self):
        assert oracle_solve(Problem(0, [], [])).status == FEASIBLE
        out = oracle_solve(Problem(0, [], [], objective=Objective({})))
        assert (out.status, out.objective_value) == (OPTIMAL, 0)
        p = Problem(0, [], [], [C([], -1)])
        assert oracle_solve(p).status == INFEASIBLE
