import dataclasses
import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from intsat import cli
from intsat.io import parse, write_problem
from intsat.oracle import SearchSpaceTooLarge
from intsat.search import SolveOutcome, FEASIBLE, INFEASIBLE, OPTIMAL

CORE = """\
var x int [-10, 10]
var y int [-10, 10]
var z int [-10, 10]
-x - y - z <= -2
x + y <= 1
x + z <= 1
y + z <= 1
x <= 1
y <= 1
z <= 3
"""

OPT = """\
var x int [0, 1]
var y int [0, 1]
min: x + y
-x - y <= -1
"""

# the strengthening row 3*x1 - 3*x3 <= v-1 is a clause over binaries
STRENGTHEN_BINARIES = """\
var x0 int [0, 1]
var x1 int [0, 1]
var x2 int [0, 1]
var x3 int [0, 1]
var x4 int [0, 1]
min: 3*x1 - 3*x3
x0 - x1 - x2 + x4 <= 1
x0 + x1 + x3 - x4 <= 1
-x0 - x1 + x2 + x3 - x4 <= -2
"""

# beyond the oracle's int64 arithmetic: an optimum of 8 * 2**60, and a rhs of 10**20
WIDE_OBJECTIVE = ("".join(f"var x{i} int [1073741823, 1073741824]\n" for i in range(8))
                  + "min: " + " + ".join(f"1073741824 x{i}" for i in range(8)) + "\n")
HUGE_RHS = "var x int [0, 1]\nvar y int [0, 1]\nx + y <= 100000000000000000000\n"


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestExitCodes:
    def test_answered_is_zero(self, tmp_path, capsys):
        path = write(tmp_path, "core.ilp", CORE)
        assert cli.main([path, "--mode", "resolution"]) == 0
        assert capsys.readouterr().out.strip() == "INFEASIBLE"

    def test_budget_exhausted_is_one(self, tmp_path, capsys):
        from conftest import php_problem
        from intsat.io import write_problem
        path = write(tmp_path, "php.ilp", write_problem(php_problem(6, 5)))
        code = cli.main([path, "--mode", "resolution", "--max-conflicts", "3"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "UNKNOWN"

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.ilp", "var x int [0, 1]\nx + w <= 1\n")
        assert cli.main([path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_two(self, capsys):
        assert cli.main(["/nonexistent/f.ilp"]) == 2

    def test_bad_flag_value_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--restart", "fibonacci:3"]) == 2
        assert cli.main([path, "--strategies", "7,5"]) == 2

    def test_restart_that_never_ends_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--restart", "luby:0"]) == 2
        assert cli.main([path, "--restart", "inout:1,1,1.0"]) == 2
        assert cli.main([path, "--restart", "inout:1,1,inf"]) == 2  # third limit: int(inf)
        assert "luby unit >= 1" in capsys.readouterr().err

    def test_unwritable_trace_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        trace = tmp_path / "no" / "such" / "dir" / "t.txt"
        assert cli.main([path, "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(trace) in captured.err
        assert captured.out == ""  # nothing was solved

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_trace_device_is_two(self, tmp_path, capsys):
        # every write to /dev/full fails: the trace's last flush, at close,
        # raises ENOSPC, which is an error, not a budget-exhausted run
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--trace", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert os.strerror(errno.ENOSPC) in captured.err

    def test_negative_budget_is_two(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--time-limit", "-1"]) == 2
        assert cli.main([path, "--max-conflicts", "-1"]) == 2
        assert cli.main([path, "--time-limit", "nan"]) == 2  # now + nan never passes
        assert "must not be negative" in capsys.readouterr().err

    def test_verify_disagreement_is_three(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "opt.ilp", OPT)
        fake = SolveOutcome(OPTIMAL, None, -99)
        monkeypatch.setattr(cli, "oracle_solve", lambda p: fake)
        assert cli.main([path, "--verify"]) == 3
        err = capsys.readouterr().err
        assert "DISAGREEMENT" in err
        assert "minimized" in err

    def test_verify_status_mismatch_is_three(self, tmp_path, capsys, monkeypatch):
        # the oracle says infeasible where the solver finds optimum 1; the
        # disagreement outlives dropping the one row, so that goes
        path = write(tmp_path, "opt.ilp", OPT)
        monkeypatch.setattr(cli, "oracle_solve", lambda p: SolveOutcome(INFEASIBLE))
        assert cli.main([path, "--verify"]) == 3
        err = capsys.readouterr().err
        assert "solver=optimal value=1 oracle=infeasible value=None" in err
        reduced = err.split("minimized disagreeing instance:\n")[1]
        assert reduced == write_problem(dataclasses.replace(parse(OPT), constraints=[]))

    def test_verify_keeps_rows_the_oracle_cannot_check_without(self, tmp_path, capsys,
                                                               monkeypatch):
        # every smaller candidate is beyond the oracle, so none is kept
        path = write(tmp_path, "core.ilp", CORE)
        rows = len(parse(CORE).constraints)

        def oracle(p):
            if len(p.constraints) < rows:
                raise SearchSpaceTooLarge("too large")
            return SolveOutcome(FEASIBLE)

        monkeypatch.setattr(cli, "oracle_solve", oracle)
        assert cli.main([path, "--verify"]) == 3
        err = capsys.readouterr().err
        assert err.split("minimized disagreeing instance:\n")[1] == write_problem(parse(CORE))

    def test_verify_after_an_exhausted_budget_checks_nothing(self, tmp_path, capsys):
        # with no answer there is nothing to check: exit 1, no verdict
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--verify", "--max-conflicts", "0"]) == 1
        captured = capsys.readouterr()
        assert "c verify=ok" not in captured.out and "DISAGREEMENT" not in captured.err

    @pytest.mark.parametrize("text", [WIDE_OBJECTIVE, HUGE_RHS], ids=["objective", "rhs"])
    def test_verify_beyond_the_oracle_is_two(self, tmp_path, capsys, text):
        path = write(tmp_path, "big.ilp", text)
        assert cli.main([path, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "error: --verify impossible" in captured.err
        assert "DISAGREEMENT" not in captured.err

    def test_verify_without_numpy_is_two(self, tmp_path, capsys, monkeypatch):
        # numpy is the verify extra's, not a dependency of the solver
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "error: --verify needs numpy" in captured.err
        assert "OPTIMAL 1" in captured.out  # the answer is printed before the check


class TestOutput:
    def test_incumbent_lines_then_answer(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path]) == 0
        out = capsys.readouterr().out.splitlines()
        incumbents = [l for l in out if l.startswith("t=")]
        assert incumbents, out
        assert all(re.fullmatch(r"t=\d+\.\d{3} obj=-?[\d.]+", l) for l in incumbents)
        assert "OPTIMAL 1" in out

    def test_stats_lines_are_comment_prefixed(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        assert cli.main([path, "--stats"]) == 0
        out = capsys.readouterr().out.splitlines()
        stats = [l for l in out if l.startswith("c ")]
        assert any(re.fullmatch(r"c conflicts=\d+", l) for l in stats)
        assert any(re.fullmatch(r"c early_backjumps=\d+", l) for l in stats)
        assert any(re.fullmatch(r"c scans=\d+", l) for l in stats)
        assert all(any(re.fullmatch(rf"c {key}=\d+", l) for l in stats)
                   for key in ("clique_rows", "replaced_rows"))

    @pytest.mark.parametrize("text, args, answer", [
        (OPT, [], "OPTIMAL 1"),
        ("var x int [0, 3]\n-x <= -2\n", [], "FEASIBLE"),  # x >= 2
        (CORE, ["--mode", "resolution"], "INFEASIBLE")],
        ids=["optimal", "feasible", "infeasible"])
    def test_verify_agreement_reports_ok(self, tmp_path, capsys, text, args, answer):
        path = write(tmp_path, "problem.ilp", text)
        assert cli.main([path, "--verify", *args]) == 0
        out = capsys.readouterr().out.splitlines()
        assert answer in out and "c verify=ok" in out

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        path = write(tmp_path, "opt.ilp", OPT)
        outs = []
        for _ in range(2):
            assert cli.main([path, "--seed", "3", "--stats"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestTrace:
    TRACE_RES = [
        re.compile(r"propagate (-?\d+ <= \w+|\w+ <= -?\d+) reason=(\d+|none) "
                   r"set=\{[\d,]*\}"),
        re.compile(r"analyze step: drop .+ add \{.*\}"),
        re.compile(r"cut (\d+|cc)×\d+ on \w+ → .+"),
        re.compile(r"early-backjump k=\d+ push .+"),
        re.compile(r"final trail:"),
        re.compile(r"\d+ (lb|ub) \w+ -?\d+ \d+ (reason=\{[\d,]*\}|decision) "
                   r"constraint=(\d+|none)"),
    ]

    def test_trace_lines_match_the_documented_grammar(self, tmp_path, capsys):
        path = write(tmp_path, "core.ilp", CORE)
        trace_path = tmp_path / "trace.txt"
        assert cli.main([path, "--mode", "cut", "--trace", str(trace_path)]) == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        for line in lines:
            assert any(r.fullmatch(line) for r in self.TRACE_RES), line

    def test_final_trail_dump_is_consistent(self, tmp_path):
        path = write(tmp_path, "core.ilp", CORE)
        trace_path = tmp_path / "trace.txt"
        cli.main([path, "--mode", "cut", "--trace", str(trace_path)])
        lines = trace_path.read_text().splitlines()
        start = lines.index("final trail:") + 1
        level = 0
        for expect_h, line in enumerate(lines[start:]):
            fields = line.split()
            assert int(fields[0]) == expect_h  # heights are dense
            assert fields[1] in ("lb", "ub")
            if fields[5] == "decision":
                level += 1
            else:
                heights = re.match(r"reason=\{([\d,]*)\}", fields[5]).group(1)
                for h in filter(None, heights.split(",")):
                    assert int(h) < expect_h  # reasons lie strictly below
            assert int(fields[4]) == level

    def test_cut_mode_learns_unit_bound_on_core(self, tmp_path):
        path = write(tmp_path, "core.ilp", CORE)
        trace_path = tmp_path / "trace.txt"
        cli.main([path, "--mode", "cut", "--trace", str(trace_path)])
        text = trace_path.read_text()
        assert "early-backjump" in text
        assert "→ -y <= -1" in text  # the learned bound 1 <= y


class TestOptimisedInterpreter:
    @pytest.mark.parametrize("text, args, expected", [
        (STRENGTHEN_BINARIES, ["--strategies", "8,6,2"], ["OPTIMAL 3"]),
        # cut mode learns the unit row 1 <= y with an early backjump, then refutes
        (CORE, ["--mode", "cut", "--stats"], ["INFEASIBLE", "c early_backjumps=1"])],
        ids=["strengthen-binaries", "core-cut"])
    def test_verified_answer_without_asserts(self, tmp_path, text, args, expected):
        """No answer may rest on an assert: run the CLI under python -O."""
        path = write(tmp_path, "problem.ilp", text)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "intsat.cli", path, *args, "--verify"],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert all(line in lines for line in [*expected, "c verify=ok"]), done.stdout
